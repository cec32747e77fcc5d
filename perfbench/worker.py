"""One benchmark pass of a curveflow workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass pays process
start and imports the way a user's run does.  The pass:

1. imports curveflow from the checkout's ``src`` and does what a run does
   before its first step (law parse, initial profiles, hypothesis check),
   then stamps the set-up time;
2. with ``--trace``, installs the span tracer;
3. times the workload's calls into ``cli.execute_run``,
   ``cli.execute_sweep`` and ``cli.execute_containment``;
4. reads back the files those calls wrote, computes the accuracy figures
   and judges the gated ones against their acceptance-criterion bounds;
5. writes everything to the ``--result`` JSON file.

With ``--setup-only`` it stops after step 1.  Program stdout (the monitor
tables) is discarded by the caller; only the result file carries data.

    python3 perfbench/worker.py --workload batch --seed 1 \\
        --out perfbench/.work/p0 --result perfbench/.work/p0.json \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A workload is a list of calls made in order.  The seed goes into every
# RunSpec; only fourier curves consume it, as their mode phases.  "figures"
# names the accuracy figures read back from a run or sweep call's outputs;
# a containment call is always judged by criterion 8.
WORKLOADS = {
    # the step loop is nearly all of the time: stepper changes show here
    "ellipse-stepper": [
        {"call": "run", "figures": "ellipse",
         "spec": dict(law="power:1", curve="ellipse:2,1", n=256, area_floor=1e-3,
                      cadence=1000)},
    ],
    # per-snapshot geometry, monitors and output dominate; stepping does not
    "snapshot-dense": [
        {"call": "run", "figures": "forms",
         "spec": dict(law="power:2", curve="fourier:2:0.05,5:0.02", n=128,
                      area_floor=1e-2, cadence=10, scheme="both")},
    ],
    # many short runs at one grid size, with exact circle references
    "batch": [
        {"call": "sweep", "figures": "circle",
         "specs": [dict(law=law, curve=curve, n=128, cadence=250)
                   for law in ("power:1", "power:0.5", "power:2")
                   for curve in ("circle:1", "ellipse:2,1")]},
        {"call": "containment",
         "spec": dict(law="power:1", curve="circle:2", n=128, cadence=250),
         "outer": "circle:2", "inner": "circle:1"},
    ],
}

# acceptance-criterion bounds of the gated accuracy figures
GATES = {
    "ellipse_roundness": (">=", 0.95, 3),
    "ellipse_rescaling_dev": ("<=", 0.05, 4),
    "ellipse_hausdorff": ("<", 0.02, 9),
    "circle_k_err": ("<", 1e-6, 1),
    "circle_omega_width": ("<", 1e-6, 1),
    "containment_gap_err": ("<=", 1e-5, 8),
}


def nproc():
    return len(os.sched_getaffinity(0))


def evolved_forms(workload):
    """Most forms any run of ``workload`` evolves (2 for scheme "both")."""
    specs = [spec for call in WORKLOADS[workload]
             for spec in call.get("specs", [call.get("spec")])]
    return max(2 if spec.get("scheme") == "both" else 1 for spec in specs)


def _import_curveflow():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import curveflow
    if Path(curveflow.__file__).resolve().parent != src / "curveflow":
        raise ImportError(f"curveflow imported from {curveflow.__file__}, not {src}")
    from curveflow import cli, diagnostics, flow, geometry, speed_law
    return cli, diagnostics, flow, geometry, speed_law


def _with_specs(cli, workload, seed):
    """The workload's calls with RunSpec objects in place of field dicts."""
    calls = []
    for call in WORKLOADS[workload]:
        call = dict(call)
        if "spec" in call:
            call["spec"] = cli.RunSpec(**call["spec"], seed=seed)
        if "specs" in call:
            call["specs"] = [cli.RunSpec(**fields, seed=seed) for fields in call["specs"]]
        calls.append(call)
    return calls


def _preflight(cli, geometry, speed_law, calls):
    """What a run does before its first step: parse, build, probe the law."""
    specs = []
    for call in calls:
        if call["call"] == "containment":
            specs += [dataclasses.replace(call["spec"], curve=call[side])
                      for side in ("outer", "inner")]
        else:
            specs += call.get("specs", [call.get("spec")])
    for spec in specs:
        law = cli.parse_law(spec.law)
        profile = cli.build_initial(spec)
        if not isinstance(profile, geometry.CurvatureProfile):
            profile = geometry.k_from_support(profile, spec.spatial)
        k_min, k_max = float(profile.k.min()), float(profile.k.max())
        k_cap = spec.k_cap if spec.k_cap is not None else 1e6 * k_max
        speed_law.check_hypotheses(law, k_min / 2.0, k_cap, n_probes=64)


def _execute(cli, calls, out):
    """Make the calls; returns ([(call, out_dir, exit code, error)], run_s)."""
    records = []
    start = time.perf_counter()
    for index, call in enumerate(calls):
        out_dir = out / f"call{index}_{call['call']}"
        try:
            if call["call"] == "run":
                code = cli.execute_run(call["spec"], out_dir)
            elif call["call"] == "sweep":
                code = cli.execute_sweep(call["specs"], out_dir, nproc())
            else:
                code = cli.execute_containment(call["spec"], call["outer"],
                                               call["inner"], out_dir)
            records.append((call, out_dir, code, None))
        except Exception:  # a failed call is a failed run, not a lost pass
            records.append((call, out_dir, None, traceback.format_exc(limit=4)))
    return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# reading the outputs back
# ---------------------------------------------------------------------------

def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_snapshot(path):
    """(t, k) of one snap_<index>.csv."""
    import numpy as np

    with open(path) as fh:
        t = float(fh.readline().split()[1][len("t="):])
        fh.readline()
        k = np.array([float(line.split(",")[1]) for line in fh])
    return t, k


def _descriptor_value(descriptor):
    """The single number of 'power:<p>' or 'circle:<R>'; None for other kinds."""
    kind, _, arg = descriptor.partition(":")
    return float(arg) if kind in ("power", "circle") else None


def _record(out_dir, code, stop_reason, series, steps=None):
    rec = {"dir": out_dir.name, "exit": code, "stop_reason": stop_reason,
           "steps": steps, "series_sha256": _sha256(series), "figures": {},
           "problems": []}
    if code != 0:
        rec["problems"].append(f"exit code {code}")
    if stop_reason != "area-floor":
        rec["problems"].append(f"stopped by {stop_reason}, not area-floor")
    return rec


def _check_run(out_dir, spec, code, figures):
    """Record of one execute_run output directory, with its accuracy figures."""
    import numpy as np

    summary = json.loads((out_dir / "summary.json").read_text())
    rec = _record(out_dir, code, summary["stop_reason"], out_dir / "series.csv",
                  summary["steps"]["count"])
    omega = summary["omega"]
    last = summary["snapshots"][-1]
    snaps = sorted(out_dir.glob("snap_*.csv"))
    p = _descriptor_value(spec.law)
    radius0 = _descriptor_value(spec.curve)

    if figures == "ellipse":
        # criteria 3, 4 (its <= 0.05 part) and 9, read at the area floor
        rec["figures"]["ellipse_roundness"] = min(last["k_min"] / last["k_max"],
                                                  last["r_in"] / last["r_out"])
        rec["figures"]["ellipse_hausdorff"] = last["hausdorff"]
        if omega is None:
            rec["problems"].append("no omega bracket")
        else:
            width = omega["omega_hi"] - omega["omega_lo"]
            if not width < 0.02 * omega["omega_mid"]:
                rec["problems"].append(f"omega bracket {width!r} is not < 2% of omega")
            t, k = _read_snapshot(snaps[-1])
            rec["figures"]["ellipse_rescaling_dev"] = float(np.max(np.abs(
                k * math.sqrt(2.0 * (omega["omega_mid"] - t)) - 1.0)))
    elif figures == "circle" and radius0 is not None:
        # criterion 1: a circle keeps R(t)^(p+1) = R0^(p+1) - (p+1) t
        q = p + 1.0
        err = 0.0
        for path in snaps:
            t, k = _read_snapshot(path)
            radius = (radius0 ** q - q * t) ** (1.0 / q)
            err = max(err, float(np.max(np.abs(k * radius - 1.0))))
        rec["figures"]["circle_k_err"] = err
        exact = radius0 ** q / q
        if omega is None:
            rec["problems"].append("no omega bracket")
        else:
            rec["figures"]["circle_omega_width"] = omega["omega_hi"] - omega["omega_lo"]
            if not omega["omega_lo"] <= exact <= omega["omega_hi"]:
                rec["problems"].append(f"omega bracket misses the exact {exact!r}")
    elif figures == "forms":
        # criteria 10 and 12's quantities, reported only: criterion 10 is
        # defined on the n=512 ellipse, not on this profile
        rec["figures"]["form_disagreement"] = max(summary["form_disagreement"])
        for monitor in summary["monitors"]:
            if monitor["name"] == "evolution-identities" and monitor["status"] == "pass":
                rec["figures"]["evolution_mismatch"] = monitor["extras"]["worst_mismatch"]
    return rec


def _check_containment(out_dir, call, code):
    """Record of one execute_containment output directory (concentric circles)."""
    doc = json.loads((out_dir / "containment.json").read_text())
    rec = _record(out_dir, code, doc["stop_reason"], out_dir / "containment.csv")
    if not doc["all_ok"]:
        rec["problems"].append("containment violated")
    q = _descriptor_value(call["spec"].law) + 1.0
    r_out, r_in = _descriptor_value(call["outer"]), _descriptor_value(call["inner"])
    # criterion 8: concentric circles keep the exact radius gap
    worst = 0.0
    for line in (out_dir / "containment.csv").read_text().splitlines()[1:]:
        t, gap, _ = map(float, line.split(","))
        exact = (r_out ** q - q * t) ** (1.0 / q) - (r_in ** q - q * t) ** (1.0 / q)
        worst = max(worst, abs(gap - exact))
    rec["figures"]["containment_gap_err"] = worst
    return rec


def _unreadable(name, exc):
    return {"dir": name, "problems": [f"unreadable output: {exc!r}"]}


def _check_outputs(records):
    """One record per program run, failed ones included."""
    readable = (OSError, ValueError, KeyError, IndexError, TypeError)
    runs = []
    for call, out_dir, code, error in records:
        members = len(call.get("specs", [None]))
        if error is not None:
            runs += [{"dir": out_dir.name, "problems": [error]} for _ in range(members)]
        elif call["call"] == "sweep":
            try:
                index = json.loads((out_dir / "sweep.json").read_text())["runs"]
            except readable as exc:
                runs += [_unreadable(out_dir.name, exc) for _ in range(members)]
                continue
            for entry, spec in zip(index, call["specs"]):
                try:
                    runs.append(_check_run(out_dir / entry["name"], spec, entry["exit"],
                                           call["figures"]))
                except readable as exc:
                    runs.append(_unreadable(entry["name"], exc))
        else:
            try:
                if call["call"] == "run":
                    runs.append(_check_run(out_dir, call["spec"], code, call["figures"]))
                else:
                    runs.append(_check_containment(out_dir, call, code))
            except readable as exc:
                runs.append(_unreadable(out_dir.name, exc))
    for rec in runs:
        for figure, value in rec.get("figures", {}).items():
            if figure in GATES:
                op, bound, criterion = GATES[figure]
                ok = {"<": value < bound, "<=": value <= bound, ">=": value >= bound}[op]
                if not ok:
                    rec["problems"].append(f"{figure} = {value!r} fails criterion "
                                           f"{criterion} ({op} {bound:g})")
    return runs


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _fft_bytes(n):
    """Bytes one Fourier second derivative of one row reads and writes.

    rfft reads n doubles and writes n/2+1 complex; the multiply reads those
    and the real symbol table and writes n/2+1 complex; irfft reads them and
    writes n doubles.  Computed from array sizes, not measured: caches are
    ignored.
    """
    m = n // 2 + 1
    return 8 * n + 16 * m + (16 * m + 8 * m + 16 * m) + 16 * m + 8 * n


def _install_tracer(cli, diagnostics, flow, geometry, speed_law):
    """Wrap the public names each layer is timed through; returns the tracer."""
    from spans import Tracer, rebind

    tracer = Tracer()

    def wrap(module, attr, inner=None):
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        rebind("curveflow", original, tracer.wrap(name, inner or original))

    second_derivative = geometry.second_derivative

    def counted_second_derivative(values, grid, *args, **kwargs):
        scheme = args[0] if args else kwargs.get("scheme", "fourier")
        if scheme == "fourier":
            tracer.count(("fft_n", grid.n), getattr(values, "size", grid.n) // grid.n)
        return second_derivative(values, grid, *args, **kwargs)

    run = flow.run

    def counted_run(*args, **kwargs):
        traj = run(*args, **kwargs)
        tracer.count("flow.steps", traj.step_count)
        tracer.count("flow.snapshots", len(traj.snapshots))
        return traj

    parse_law = cli.parse_law

    def traced_parse_law(name):
        law = parse_law(name)
        fields = {f: tracer.wrap(f"speed_law.{f}", getattr(law, f))
                  for f in LAW_CALLABLES if getattr(law, f) is not None}
        return dataclasses.replace(law, **fields)

    wrap(geometry, "second_derivative", counted_second_derivative)
    wrap(geometry, "summarize")
    wrap(geometry, "radii")
    wrap(geometry, "support_from_curvature")
    wrap(flow, "run", counted_run)
    wrap(flow, "containment_run")
    rebind("curveflow", parse_law, traced_parse_law)
    wrap(speed_law, "check_hypotheses")
    wrap(diagnostics, "run_all_monitors")
    wrap(cli, "emit_timeseries")
    for top in ("execute_run", "execute_sweep", "execute_containment"):
        wrap(cli, top)
    return tracer


LAW_CALLABLES = ("g", "g_prime", "g_double_prime", "tail_integral")


def _layer_metrics(tracer, out):
    """Per-layer metrics of one traced pass; zero where a layer did not run."""
    from spans import totals

    spans, counts = tracer.spans(), tracer.counts()

    def seconds(name, parent=None):
        return totals(spans, name, parent)[1]

    def calls(name, parent=None):
        return totals(spans, name, parent)[0]

    steps = counts.get("flow.steps", 0)
    _, run_s, run_children_s = totals(spans, "flow.run")
    snapshot_geometry_s = (seconds("geometry.summarize", "flow.run")
                           + seconds("geometry.support_from_curvature", "flow.run"))
    rhs_evals = calls("speed_law.g", "flow.run")
    sd_calls, sd_s, _ = totals(spans, "geometry.second_derivative")
    sweep_s = seconds("cli.execute_sweep")
    files = [p for p in out.rglob("*") if p.is_file()]
    law_spans = [f"speed_law.{f}" for f in LAW_CALLABLES]
    return {
        "flow.steps": steps,
        "flow.rhs_evals": rhs_evals,
        "flow.rhs_per_step": rhs_evals / steps if steps else 0.0,
        "flow.self_s": run_s - run_children_s,
        "flow.us_per_step": 1e6 * (run_s - snapshot_geometry_s) / steps if steps else 0.0,
        "flow.containment_s": seconds("flow.containment_run"),
        "flow.snapshots": counts.get("flow.snapshots", 0),
        "geometry.second_derivative_calls": sd_calls,
        "geometry.second_derivative_s": sd_s,
        "geometry.second_derivative_us": 1e6 * sd_s / sd_calls if sd_calls else 0.0,
        "geometry.fft_bytes_computed": sum(_fft_bytes(key[1]) * value
                                           for key, value in counts.items()
                                           if isinstance(key, tuple) and key[0] == "fft_n"),
        "geometry.summarize_calls": calls("geometry.summarize"),
        "geometry.summarize_s": seconds("geometry.summarize"),
        "geometry.radii_s": seconds("geometry.radii"),
        "geometry.support_from_curvature_s": seconds("geometry.support_from_curvature"),
        "speed_law.calls": sum(calls(name) for name in law_spans),
        "speed_law.s": sum(seconds(name) for name in law_spans),
        "speed_law.check_hypotheses_s": seconds("speed_law.check_hypotheses"),
        "diagnostics.monitors_s": seconds("diagnostics.run_all_monitors"),
        "cli.emit_s": seconds("cli.emit_timeseries"),
        "cli.bytes_written": sum(p.stat().st_size for p in files),
        "cli.files_written": len(files),
        # member runs execute on the sweep's worker threads
        "cli.sweep_overlap": seconds("cli.execute_run") / sweep_s if sweep_s else 0.0,
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spawned-at", required=True, type=float,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    modules = _import_curveflow()
    cli, _, _, geometry, speed_law = modules
    calls = _with_specs(cli, args.workload, args.seed)
    _preflight(cli, geometry, speed_law, calls)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp compares
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        tracer = _install_tracer(*modules) if args.trace else None
        records, result["run_s"] = _execute(cli, calls, args.out)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["runs"] = _check_outputs(records)
        if tracer is not None:
            result["layers"] = _layer_metrics(tracer, args.out)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
