"""Span aggregation for traced benchmark passes.

Spans are recorded around calls into curveflow's public names by wrapping
those names from outside the package; nothing inside the package changes.
Hot spans such as ``geometry.second_derivative`` fire hundreds of thousands
of times per run, so each span is folded into a per-(name, parent)
aggregate of call count, total time and time covered by its direct child
spans, instead of being stored one record per call.  Aggregates live per
thread (the sweep runs members on worker threads) and are merged on read.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

NO_PARENT = "<root>"


class Tracer:
    """Per-thread span stacks and (name, parent) aggregates."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (spans, counts) of every thread that recorded

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # spans: (name, parent) -> [calls, total_s, child_s]
            state = ([], defaultdict(lambda: [0, 0.0, 0.0]), defaultdict(int))
            self._local.state = state
            with self._lock:
                self._threads.append(state[1:])
        return state

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a ``name`` span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, _ = tracer._state()
            parent = stack[-1][0] if stack else NO_PARENT
            frame = [name, 0.0]  # name, time covered by direct children
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                agg = spans[(name, parent)]
                agg[0] += 1
                agg[1] += duration
                agg[2] += frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def count(self, key, amount=1):
        """Add ``amount`` to the counter ``key`` of the calling thread."""
        self._state()[2][key] += amount

    def spans(self):
        """Merged {(name, parent): (calls, total_s, child_s)} over all threads."""
        merged = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for spans, _ in self._threads:
                for key, (calls, total, child) in spans.items():
                    agg = merged[key]
                    agg[0] += calls
                    agg[1] += total
                    agg[2] += child
        return {key: tuple(agg) for key, agg in merged.items()}

    def counts(self):
        merged = defaultdict(int)
        with self._lock:
            for _, counts in self._threads:
                for key, value in counts.items():
                    merged[key] += value
        return dict(merged)


def rebind(package, original, replacement):
    """Point every binding of ``original`` inside ``package`` at ``replacement``.

    Modules that imported a name with ``from .x import name`` hold their own
    binding, so patching only the defining module would miss those callers.
    """
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    if not bound:
        raise LookupError(f"{getattr(original, '__qualname__', original)} is not "
                          f"bound anywhere in {package}")
    return bound


def totals(spans, name, parent=None):
    """(calls, total_s, child_s) of ``name``, over all parents or under one."""
    calls, total, child = 0, 0.0, 0.0
    for (span, span_parent), (c, t, ch) in spans.items():
        if span == name and (parent is None or span_parent == parent):
            calls += c
            total += t
            child += ch
    return calls, total, child
