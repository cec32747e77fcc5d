"""curveflow benchmark: measure one workload on one seed, print the metrics.

    python3 perfbench/run.py --workload ellipse-stepper --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from the checkout's ``src``.
Every pass is a fresh process (``worker.py``) and only one runs at a time.

``--trace 0`` measures the end-to-end metrics: several set-up-only
processes, then untraced passes until ``--seconds`` is used up (at least
one); each metric is the median over its samples.  ``--trace 1`` runs
untraced/traced pass pairs instead and reports the per-layer metrics of
the traced passes, after checking that tracing left ``series.csv`` byte for
byte and the step counts unchanged.  The metric names and units come from
``BENCHMARK.json``.

Earlier lines of stdout describe the run (environment, samples, accuracy
figures against their acceptance bounds); the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every run was correct and 1 when a run failed; a worker that crashes
or times out also gives 1, with no result line.  It is 2 when the benchmark
cannot run at all (no program source, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from worker import GATES, WORKLOADS, evolved_forms, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DEADLINE_S = 170.0    # a run must end within 180 s
SETUP_REPEATS = 2     # set-up-only processes per untraced run
# one thread per BLAS; the sweep's worker threads are the only parallelism
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class PassFailed(Exception):
    """A worker process crashed, timed out or wrote no result."""


def _spawn(workload, seed, tag, deadline, trace=False, setup_only=False):
    """Run one worker pass to completion and return its result dict."""
    out, result = WORK / tag, WORK / f"{tag}.json"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassFailed("no time left before the deadline")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{tag} timed out after {remaining:.0f} s") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed(f"{tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        data = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        raise PassFailed(f"{tag} wrote no readable result: {exc!r}") from None
    data["wall_s"] = time.monotonic() - spawned
    return data


def _failures(runs):
    return [f"{rec['dir']}: {problem}" for rec in runs for problem in rec["problems"]]


def _room_for_another(started, walls, seconds, deadline):
    """Whether one more unit of work, as long as the mean so far, fits."""
    now = time.monotonic()
    expected = now + statistics.fmean(walls)
    return expected - started <= seconds and expected <= deadline


def measure_end_to_end(workload, seed, seconds, deadline):
    """Set-up samples and untraced passes; returns (metrics, passes, runs, samples)."""
    started = time.monotonic()
    setups = [_spawn(workload, seed, f"setup{i}", deadline, setup_only=True)
              for i in range(SETUP_REPEATS)]
    passes = []
    while True:
        passes.append(_spawn(workload, seed, f"pass{len(passes)}", deadline))
        if not _room_for_another(started, [p["wall_s"] for p in passes], seconds, deadline):
            break
    runs = [rec for p in passes for rec in p["runs"]]
    failed = sum(1 for rec in runs if rec["problems"])
    metrics = {
        "run_s": statistics.median(p["run_s"] for p in passes),
        "setup_s": statistics.median([s["setup_s"] for s in setups + passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1.0 - failed / len(runs),
    }
    samples = {"set-ups": len(setups) + len(passes), "passes": len(passes),
               "run_s": [p["run_s"] for p in passes]}
    return metrics, passes, runs, samples


def _check_traced_pair(workload, plain, traced):
    """Mark the traced runs that show tracing changed what the program computed."""
    for a, b in zip(plain["runs"], traced["runs"]):
        if a.get("series_sha256") != b.get("series_sha256"):
            b["problems"].append("traced output differs from the untraced one")
        if a.get("steps") != b.get("steps"):
            b["problems"].append(f"traced steps {b.get('steps')} != untraced {a.get('steps')}")
    layers = traced["layers"]
    problems = []
    summary_steps = sum(rec.get("steps") or 0 for rec in traced["runs"])
    if layers["flow.steps"] != summary_steps:
        problems.append(f"flow.steps {layers['flow.steps']} != summary.json steps "
                        f"{summary_steps}")
    floor = 4 * evolved_forms(workload)
    if layers["flow.steps"] and layers["flow.rhs_per_step"] < floor:
        problems.append(f"flow.rhs_per_step {layers['flow.rhs_per_step']!r} < {floor}")
    for rec in traced["runs"]:
        rec["problems"] += problems


def measure_layers(workload, seed, seconds, deadline):
    """Untraced/traced pass pairs; per-layer metrics come from the traced ones."""
    started = time.monotonic()
    pairs, walls = [], []
    while True:
        unit_start = time.monotonic()
        plain = _spawn(workload, seed, f"plain{len(pairs)}", deadline)
        traced = _spawn(workload, seed, f"traced{len(pairs)}", deadline, trace=True)
        walls.append(time.monotonic() - unit_start)
        pairs.append((plain, traced))
        _check_traced_pair(workload, plain, traced)
        if not _room_for_another(started, walls, seconds, deadline):
            break
    runs = [rec for pair in pairs for p in pair for rec in p["runs"]]
    metrics = {name: statistics.median(t["layers"][name] for _, t in pairs)
               for name in pairs[0][1]["layers"]}
    metrics["bench.trace_overhead_s"] = statistics.median(
        t["run_s"] - p["run_s"] for p, t in pairs)
    samples = {"pairs": len(pairs), "untraced run_s": [p["run_s"] for p, _ in pairs],
               "traced run_s": [t["run_s"] for _, t in pairs]}
    return metrics, [t for _, t in pairs], runs, samples


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def environment(workload, seed, seconds, trace):
    return {"cpu": _cpu_model(), "nproc": nproc(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "commit": _git_commit(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace}


def _figures(passes):
    """Worst value of each accuracy figure over the runs of the last pass."""
    worst = {}
    for rec in passes[-1]["runs"]:
        for name, value in rec.get("figures", {}).items():
            lower_is_worse = GATES.get(name, ("<",))[0] == ">="
            pick = min if lower_is_worse else max
            worst[name] = pick(worst.get(name, value), value)
    return worst


def _declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curveflow" / "__init__.py").is_file():
        print(f"error: no curveflow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        units = _declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the metric list from BENCHMARK.json: {exc!r}",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds,
                                          args.trace)))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, passes, runs, samples = measure(
            args.workload, args.seed, args.seconds, deadline)
    except PassFailed as exc:
        # no metrics to report: fail without a result line
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    problems = _failures(runs)
    failed = sum(1 for rec in runs if rec["problems"])
    print("samples " + json.dumps(samples))
    print(f"runs attempted {len(runs)} failed {failed} fail_ratio {failed / len(runs)!r}")
    for problem in problems:
        print(f"problem {problem}")
    for name, value in _figures(passes).items():
        if name in GATES:
            op, bound, criterion = GATES[name]
            print(f"figure {name} = {value!r} (criterion {criterion}: {op} {bound:g})")
        else:
            print(f"figure {name} = {value!r} (reported, not gated)")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(json.dumps({"correct": not problems, "attempted": len(runs), "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
