"""Command-line front end: run flows, containment pairs, sweeps, and law checks.

Data goes to files and stdout (the monitors table); error text goes to
stderr.  Exit codes: 0 run completed and no monitor failed, 1 monitors
failed, 2 usage or configuration error, 3 runtime failure (convexity loss,
degenerate snapshot, hypothesis violation, unwritable output, failed
allocation).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, flow, geometry, oracle
from .errors import CurveFlowError
from .speed_law import PROBES, check_hypotheses, parse_law

SERIES_COLUMNS = ("t", "L", "A", "iso_ratio", "r_in", "r_out", "k_min", "k_max",
                  "bonnesen_gap", "gage_deficit", "hausdorff", "closure_residual")

EXIT_OK = 0
EXIT_MONITOR_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one run; echoed into summary.json."""

    law: str = "power:1"
    curve: str = "circle:1"
    n: int = 256
    area_floor: float = flow.FlowConfig.area_floor
    k_cap: Optional[float] = flow.FlowConfig.k_cap
    max_steps: int = flow.FlowConfig.max_steps
    cadence: int = flow.FlowConfig.snapshot_every
    scheme: str = flow.FlowConfig.formulation
    seed: int = 0

    @property
    def spatial(self):
        # read by perfbench/worker.py until ROADMAP item 1 changes the benchmark
        return "fourier"

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        """The spec of an echo; a key that is not a field is refused."""
        fields = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in fields:
                raise ValueError(f"unknown run setting {key!r}")
        return cls(**data)


def build_initial(spec):
    """Initial profile from a descriptor; fourier phases come from the seed."""
    grid = geometry.AngleGrid(spec.n)
    kind, _, arg = str(spec.curve).partition(":")
    if kind not in ("circle", "ellipse", "fourier"):
        raise ValueError(f"unknown curve descriptor {spec.curve!r}; expected "
                         "circle:R, ellipse:a,b or fourier:m:amp[,m:amp...]")
    try:
        # underflow is ignored; any other float error is a bad descriptor
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if kind == "circle":
                (radius,) = map(float, arg.split(","))
                return oracle.circle_profile(radius, grid)
            if kind == "ellipse":
                a, b = map(float, arg.split(","))
                return oracle.ellipse_profile(a, b, grid)
            rng = np.random.default_rng(spec.seed)
            h = np.ones(grid.n)
            for pair in arg.split(","):
                m, amp = pair.split(":")
                h += float(amp) * np.cos(int(m) * grid.theta + rng.uniform(0.0, 2.0 * np.pi))
            sp = geometry.SupportProfile(grid, h)
            geometry.curvature_radius(sp)  # h'' + h > 0 must hold before the run
            return sp
    except ArithmeticError as exc:  # a size, mode or amplitude beyond float range
        raise ValueError(f"curve {spec.curve!r} is beyond float range: {exc}") from None
    except CurveFlowError as exc:  # only a fourier curve can fail to be convex
        raise ValueError(f"fourier amplitudes too large for a convex curve: {exc}")


def _flow_config(spec, law, initial):
    return flow.FlowConfig(
        law=law, initial=initial, area_floor=spec.area_floor,
        k_cap=spec.k_cap, max_steps=spec.max_steps, snapshot_every=spec.cadence,
        formulation=spec.scheme)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    """Write ``header``, then each row of Python numbers as comma-joined ``repr``s."""
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _summary_row(t, summary):
    return (t, summary.length, summary.area, summary.iso_ratio, summary.r_in,
            summary.r_out, summary.k_min, summary.k_max, summary.bonnesen_gap,
            summary.gage_deficit, summary.hausdorff_to_disk,
            summary.closure_residual_norm)


def _finite_or_null(value):
    """``value`` with every non-finite float, nested ones included, made None.

    A container that holds no non-finite float is returned itself, not
    copied, so a document is not held twice while it is written.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        new = {k: _finite_or_null(v) for k, v in value.items()}
        same = all(new[k] is v for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        new = [_finite_or_null(v) for v in value]
        same = all(a is b for a, b in zip(new, value))
    else:
        return value
    return value if same else new


def _write_json(path, doc):
    """Write strict JSON: inf and nan become null rather than Infinity/NaN.

    The encoder's chunks stream into the open file, so the document is never
    held as one string: with ``indent`` set, ``json.dumps`` would join about
    100k chunks of a dense run's summary into a string as large as the file.
    """
    with path.open("w") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, allow_nan=False)
        fh.write("\n")


def emit_timeseries(traj, out_dir, spec=None, reports=None):
    """Write series.csv, summary.json and one snap_<index>.csv per snapshot."""
    if not traj.snapshots:
        raise ValueError("refusing to emit an empty trajectory")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_csv(out / "series.csv", ",".join(SERIES_COLUMNS),
               [_summary_row(snap.t, snap.summary) for snap in traj.snapshots])
    for index, snap in enumerate(traj.snapshots):
        kp = snap.curvature
        rows = np.column_stack([kp.grid.theta, kp.k, snap.support.h,
                                geometry.reconstruct(kp).points]).tolist()
        _write_csv(out / f"snap_{index:05d}.csv",
                   f"# t={snap.t!r} n={kp.grid.n}\ntheta,k,h,x,y", rows)

    est = traj.omega_estimate
    hyp = traj.hypothesis_report
    doc = {
        "config": spec.to_dict() if spec is not None else None,
        "law": traj.config.law.label,
        "stop_reason": traj.stop_reason,
        "roundness_expected": traj.roundness_expected,
        "hypothesis_report": dataclasses.asdict(hyp) if hyp is not None else None,
        "omega": dataclasses.asdict(est) if est is not None else None,
        "steps": {"count": traj.step_count, "rejected": traj.rejected_count,
                  "dt_min": traj.dt_min, "dt_max": traj.dt_max, "dt_s_max": traj.dt_s_max},
        "snapshots": [dict(zip(SERIES_COLUMNS, _summary_row(s.t, s.summary)))
                      for s in traj.snapshots],
        "form_disagreement": traj.form_disagreement,
        "monitors": [dataclasses.asdict(r) for r in (reports or [])],
    }
    _write_json(out / "summary.json", doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def execute_run(spec, out_dir, config=None):
    """Shared path for `run` and for sweep members; returns an exit code.

    ``config`` is the run's FlowConfig when the caller has built it from
    ``spec`` already, as a sweep does to validate its entries.
    """
    if config is None:
        config = _flow_config(spec, parse_law(spec.law), build_initial(spec))
    traj = flow.run(config)
    reports = diagnostics.run_all_monitors(traj)
    emit_timeseries(traj, out_dir, spec=spec, reports=reports)
    print(diagnostics.format_monitor_table(reports))
    if traj.omega_estimate is not None:
        est = traj.omega_estimate
        print(f"omega bracket: [{est.omega_lo!r}, {est.omega_hi!r}] ({est.method})")
    print(f"stop reason: {traj.stop_reason}  steps: {traj.step_count}")
    if traj.stop_reason in flow.FAILED_STOPS:
        return EXIT_RUNTIME
    if any(r.status == "fail" for r in reports):
        return EXIT_MONITOR_FAIL
    return EXIT_OK


def execute_containment(spec, outer_desc, inner_desc, out_dir):
    law = parse_law(spec.law)
    outer, inner = (build_initial(dataclasses.replace(spec, curve=descriptor))
                    for descriptor in (outer_desc, inner_desc))
    # the outer curve is the config's initial one; containment_run checks k_cap against both
    config = _flow_config(dataclasses.replace(spec, scheme="support"), law, outer)
    report = flow.containment_run(config, inner)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "containment.csv", "t,min_gap,ok",
               zip(report.times, report.min_gap, map(int, report.ok)))
    doc = {
        "law": spec.law, "outer": outer_desc, "inner": inner_desc, "n": spec.n,
        "tol_contain": report.tol_contain, "stop_reason": report.stop_reason,
        "all_ok": report.all_ok, "worst_gap": min(report.min_gap),
    }
    _write_json(out / "containment.json", doc)
    print(f"containment: {'ok' if report.all_ok else 'VIOLATED'}  "
          f"worst gap {min(report.min_gap)!r}  tol {report.tol_contain!r}")
    if report.stop_reason in flow.FAILED_STOPS:
        return EXIT_RUNTIME
    return EXIT_OK if report.all_ok else EXIT_MONITOR_FAIL


def execute_check_law(law_name_str, x_lo, x_hi):
    """Probe the law on the PROBES points that run and containment judge it on."""
    law = parse_law(law_name_str)
    report = check_hypotheses(law, x_lo, x_hi)
    print(f"law: {law.label}")
    print(f"probe range: [{report.x_lo:g}, {report.x_hi:g}]  probes: {PROBES}")
    print(f"H1 (G > 0, G' >= 0):        {'ok' if report.h1_ok else 'VIOLATED'}")
    print(f"H2 convexity of G(x) x^2:   {'ok' if report.h2_convexity_ok else 'VIOLATED'}")
    print(f"H2 growth G'x <= C0 G:      {'ok' if report.h2_growth_ok else 'VIOLATED'}")
    print(f"minimal C0 on upper range:  {report.witness_c0:g}")
    if report.witness_x is not None:
        print(f"worst violation: {report.worst_violation:g} at x = {report.witness_x:g}")
    return EXIT_OK if report.all_ok else EXIT_MONITOR_FAIL


def _message(exc):
    """The text of a runtime error; a MemoryError may carry none."""
    return str(exc) or "out of memory"


def execute_sweep(specs, out_root, workers=None):
    """Run the members one after another, in spec order; returns the worst exit code."""
    # ``workers`` is ignored; perfbench/worker.py passes one until ROADMAP item 1
    # a bad entry is a usage error before any run starts
    configs = [_flow_config(spec, parse_law(spec.law), build_initial(spec))
               for spec in specs]
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    names = [f"run_{i:03d}_" + f"{s.law}_{s.curve}".replace(":", "").replace(",", "x")
             for i, s in enumerate(specs)]
    results = []  # (exit code, error message or None) per member
    for spec, config, name in zip(specs, configs, names):
        try:
            results.append((execute_run(spec, out_root / name, config), None))
        except (CurveFlowError, MemoryError) as exc:
            print(f"{name}: {_message(exc)}", file=sys.stderr)
            results.append((EXIT_RUNTIME, _message(exc)))
    index = {"runs": [{"name": n, "spec": s.to_dict(), "exit": c, "error": e}
                      for n, s, (c, e) in zip(names, specs, results)]}
    _write_json(out_root / "sweep.json", index)
    for name, (code, _) in zip(names, results):
        print(f"{name}: exit {code}")
    return max((code for code, _ in results), default=EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_run_flags(p, multi=False, curve=True):
    """The RunSpec flags, each dest named as its field; repeatable ones default
    to None, since argparse would append to a list default.  ``curve=False``
    leaves out --curve and --scheme, which a containment pair does not read."""
    action, repeat = ("append", ", repeatable") if multi else ("store", "")
    p.add_argument("--law", action=action, default=None if multi else RunSpec.law,
                   help=f"speed law power:p (default {RunSpec.law}{repeat})")
    if curve:
        p.add_argument("--curve", action=action, default=None if multi else RunSpec.curve,
                       help="initial curve: circle:R | ellipse:a,b | fourier:m:amp,... "
                            f"(default {RunSpec.curve}{repeat})")
        p.add_argument("--scheme", choices=flow.FORMULATIONS, default=RunSpec.scheme,
                       help="evolved formulation")
    p.add_argument("--n", type=int, default=RunSpec.n, help="grid size (power of two >= 32)")
    p.add_argument("--area-floor", type=float, default=RunSpec.area_floor,
                   help="stop when A drops to this fraction of A(0)")
    p.add_argument("--k-cap", type=float, default=RunSpec.k_cap,
                   help="absolute curvature cap (default 1e6 * k_max(0))")
    p.add_argument("--max-steps", type=int, default=RunSpec.max_steps)
    p.add_argument("--cadence", type=int, default=RunSpec.cadence,
                   help="snapshot every this many CFL units; a step of dt counts "
                        "dt / (0.4 dtheta^2 / (2 max k^2 Phi'(k))), so one unit is "
                        "one RK4 step at its CFL bound")
    p.add_argument("--seed", type=int, default=RunSpec.seed,
                   help="seed for fourier phase randomization")
    p.add_argument("--out", default="out", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Generalized curve shortening flow: runs, sweeps and checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="integrate one flow and check all monitors")
    _add_run_flags(run_p)

    cont_p = sub.add_parser("containment", help="co-evolve a nested curve pair")
    _add_run_flags(cont_p, curve=False)
    cont_p.add_argument("--outer", required=True, help="outer curve descriptor")
    cont_p.add_argument("--inner", required=True, help="inner curve descriptor")

    sweep_p = sub.add_parser("sweep", help="run a law x curve product, one run after another")
    _add_run_flags(sweep_p, multi=True)

    check_p = sub.add_parser("check-law", help="probe (H1)/(H2) for a law")
    check_p.add_argument("--law", required=True)
    check_p.add_argument("--range", default="0.1,100",
                         help="probe range lo,hi (default 0.1,100)")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    # the RunSpec fields; the subcommand, output directory and containment
    # curves are passed on separately
    settings = {k: v for k, v in vars(args).items()
                if k not in ("subcommand", "out", "outer", "inner")}
    try:
        if args.subcommand == "run":
            return execute_run(RunSpec.from_dict(settings), args.out)
        if args.subcommand == "containment":
            spec = RunSpec.from_dict(dict(settings, curve=args.outer))
            return execute_containment(spec, args.outer, args.inner, args.out)
        if args.subcommand == "sweep":
            specs = [RunSpec.from_dict(dict(settings, law=law, curve=curve))
                     for law in args.law or [RunSpec.law]
                     for curve in args.curve or [RunSpec.curve]]
            return execute_sweep(specs, args.out)
        if args.subcommand == "check-law":
            lo, hi = map(float, args.range.split(","))
            return execute_check_law(args.law, lo, hi)
    except (CurveFlowError, OSError, MemoryError) as exc:
        # convexity loss, hypothesis violation, unwritable output directory,
        # an allocation the machine cannot make
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
