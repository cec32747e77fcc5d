"""Command-line front end: run flows, containment pairs, sweeps, and law checks.

Data goes to files and stdout (the monitors table); progress and error text
go to stderr.  Exit codes: 0 run completed and no monitor failed, 1 monitors
failed, 2 usage or configuration error, 3 runtime failure (convexity loss,
degenerate snapshot, hypothesis violation, unwritable output).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, flow, geometry, oracle
from .errors import CurveFlowError
from .speed_law import check_hypotheses, parse_law

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
    area_floor: float = 1e-3
    k_cap: Optional[float] = None
    max_steps: int = 100_000_000
    cadence: int = 500
    cfl: float = 0.4
    scheme: str = "curvature"
    spatial: str = "fourier"
    seed: int = 0

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


def _parse_curve(descriptor):
    kind, _, arg = str(descriptor).partition(":")
    if kind == "circle":
        (radius,) = map(float, arg.split(","))
        return kind, (radius,)
    if kind == "ellipse":
        a, b = map(float, arg.split(","))
        return kind, (a, b)
    if kind == "fourier":
        modes = []
        for pair in arg.split(","):
            m, amp = pair.split(":")
            modes.append((int(m), float(amp)))
        if not modes:
            raise ValueError("fourier descriptor needs at least one mode:amplitude pair")
        return kind, tuple(modes)
    raise ValueError(f"unknown curve descriptor {descriptor!r}; expected "
                     "circle:R, ellipse:a,b or fourier:m:amp[,m:amp...]")


def build_initial(spec):
    """Initial profile from a descriptor; fourier phases come from the seed."""
    grid = geometry.AngleGrid(spec.n)
    kind, args = _parse_curve(spec.curve)
    if kind == "circle":
        return oracle.circle_profile(args[0], grid)
    if kind == "ellipse":
        return oracle.ellipse_profile(args[0], args[1], grid)
    rng = np.random.default_rng(spec.seed)
    h = np.ones(grid.n)
    for m, amp in args:
        h += amp * np.cos(m * grid.theta + rng.uniform(0.0, 2.0 * np.pi))
    sp = geometry.SupportProfile(grid, h)
    try:
        geometry.curvature_radius(sp)  # h'' + h > 0 must hold before the run
    except CurveFlowError as exc:
        raise ValueError(f"fourier amplitudes too large for a convex curve: {exc}")
    return sp


def _flow_config(spec, law, initial):
    return flow.FlowConfig(
        law=law, initial=initial, c_cfl=spec.cfl, area_floor=spec.area_floor,
        k_cap=spec.k_cap, max_steps=spec.max_steps, snapshot_every=spec.cadence,
        formulation=spec.scheme, spatial_scheme=spec.spatial)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(value):
    # full round-trip decimal precision
    return repr(float(value))


def _summary_row(t, summary):
    return (t, summary.length, summary.area, summary.iso_ratio, summary.r_in,
            summary.r_out, summary.k_min, summary.k_max, summary.bonnesen_gap,
            summary.gage_deficit, summary.hausdorff_to_disk,
            summary.closure_residual_norm)


def _finite_or_null(value):
    """``value`` with every non-finite float, nested ones included, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, doc):
    """Write strict JSON: inf and nan become null rather than Infinity/NaN."""
    path.write_text(json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n")


def emit_timeseries(traj, out_dir, spec=None, reports=None):
    """Write series.csv, summary.json and one snap_<index>.csv per snapshot."""
    if not traj.snapshots:
        raise ValueError("refusing to emit an empty trajectory")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [",".join(SERIES_COLUMNS)]
    for snap in traj.snapshots:
        lines.append(",".join(_fmt(v) for v in _summary_row(snap.t, snap.summary)))
    (out / "series.csv").write_text("\n".join(lines) + "\n")

    for index, snap in enumerate(traj.snapshots):
        curve = geometry.reconstruct(snap.curvature)
        rows = [f"# t={_fmt(snap.t)} n={snap.curvature.grid.n}", "theta,k,h,x,y"]
        for theta, k, h, (x, y) in zip(snap.curvature.grid.theta, snap.curvature.k,
                                       snap.support.h, curve.points):
            rows.append(",".join(_fmt(v) for v in (theta, k, h, x, y)))
        (out / f"snap_{index:05d}.csv").write_text("\n".join(rows) + "\n")

    est = traj.omega_estimate
    hyp = traj.hypothesis_report
    doc = {
        "config": spec.to_dict() if spec is not None else None,
        "law": traj.config.law.label,
        "stop_reason": traj.stop_reason,
        "roundness_expected": traj.roundness_expected,
        "hypothesis_report": dataclasses.asdict(hyp) if hyp is not None else None,
        "omega": dataclasses.asdict(est) if est is not None else None,
        "steps": {"count": traj.step_count, "dt_min": traj.dt_min,
                  "dt_max": traj.dt_max},
        "snapshots": [dict(zip(SERIES_COLUMNS, _summary_row(s.t, s.summary)))
                      for s in traj.snapshots],
        "form_disagreement": traj.form_disagreement,
        "monitors": [dataclasses.asdict(r) for r in (reports or [])],
    }
    _write_json(out / "summary.json", doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def execute_run(spec, out_dir):
    """Shared path for `run` and for sweep workers; returns an exit code."""
    law = parse_law(spec.law)
    initial = build_initial(spec)
    traj = flow.run(_flow_config(spec, law, initial))
    reports = diagnostics.run_all_monitors(traj, law)
    emit_timeseries(traj, out_dir, spec=spec, reports=reports)
    print(diagnostics.format_monitor_table(reports))
    if traj.omega_estimate is not None:
        est = traj.omega_estimate
        print(f"omega bracket: [{est.omega_lo!r}, {est.omega_hi!r}] ({est.method})")
    print(f"stop reason: {traj.stop_reason}  steps: {traj.step_count}")
    if traj.stop_reason in (flow.STOP_CONVEXITY_LOSS, flow.STOP_DEGENERATE):
        return EXIT_RUNTIME
    if any(r.status == "fail" for r in reports):
        return EXIT_MONITOR_FAIL
    return EXIT_OK


def _support_initial(spec, descriptor):
    base = dataclasses.replace(spec, curve=descriptor)
    profile = build_initial(base)
    if isinstance(profile, geometry.CurvatureProfile):
        profile = geometry.support_from_curvature(profile)
    return profile


def execute_containment(spec, outer_desc, inner_desc, out_dir):
    law = parse_law(spec.law)
    outer = _support_initial(spec, outer_desc)
    inner = _support_initial(spec, inner_desc)
    config = _flow_config(spec, law, outer)
    report = flow.containment_run(outer, inner, law, config)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["t,min_gap,ok"]
    for t, gap, ok in zip(report.times, report.min_gap, report.ok):
        lines.append(f"{_fmt(t)},{_fmt(gap)},{int(ok)}")
    (out / "containment.csv").write_text("\n".join(lines) + "\n")
    doc = {
        "law": spec.law, "outer": outer_desc, "inner": inner_desc, "n": spec.n,
        "tol_contain": report.tol_contain, "stop_reason": report.stop_reason,
        "all_ok": report.all_ok, "worst_gap": min(report.min_gap),
    }
    _write_json(out / "containment.json", doc)
    print(f"containment: {'ok' if report.all_ok else 'VIOLATED'}  "
          f"worst gap {min(report.min_gap)!r}  tol {report.tol_contain!r}")
    if report.stop_reason == flow.STOP_CONVEXITY_LOSS:
        return EXIT_RUNTIME
    return EXIT_OK if report.all_ok else EXIT_MONITOR_FAIL


def execute_check_law(law_name_str, x_lo, x_hi, n_probes):
    law = parse_law(law_name_str)
    report = check_hypotheses(law, x_lo, x_hi, n_probes)
    print(f"law: {law.label}")
    print(f"probe range: [{report.x_lo:g}, {report.x_hi:g}]  probes: {n_probes}")
    print(f"H1 (G > 0, G' >= 0):        {'ok' if report.h1_ok else 'VIOLATED'}")
    print(f"H2 convexity of G(x) x^2:   {'ok' if report.h2_convexity_ok else 'VIOLATED'}")
    print(f"H2 growth G'x <= C0 G:      {'ok' if report.h2_growth_ok else 'VIOLATED'}")
    print(f"minimal C0 on upper range:  {report.witness_c0:g}")
    if report.witness_x is not None:
        print(f"worst violation: {report.worst_violation:g} at x = {report.witness_x:g}")
    return EXIT_OK if report.all_ok else EXIT_MONITOR_FAIL


def execute_sweep(specs, out_root, workers):
    for spec in specs:  # a bad entry is a usage error before any run starts
        parse_law(spec.law)
        build_initial(spec)
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    names = []
    for i, spec in enumerate(specs):
        tag = f"{spec.law}_{spec.curve}".replace(":", "").replace(",", "x")
        names.append(f"run_{i:03d}_{tag}")

    def worker(pair):
        """(exit code, error message or None) of one member run."""
        spec, name = pair
        try:
            return execute_run(spec, out_root / name), None
        except CurveFlowError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME, str(exc)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(worker, zip(specs, names)))
    codes = [code for code, _ in results]
    index = {"runs": [{"name": n, "spec": s.to_dict(), "exit": c, "error": e}
                      for n, s, (c, e) in zip(names, specs, results)]}
    _write_json(out_root / "sweep.json", index)
    for name, code in zip(names, codes):
        print(f"{name}: exit {code}")
    return max(codes) if codes else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_run_flags(p, multi=False):
    action = "append" if multi else "store"
    p.add_argument("--law", action=action, default=None,
                   help="speed law, e.g. power:1" + (" (repeatable)" if multi else ""))
    p.add_argument("--curve", action=action, default=None,
                   help="initial curve: circle:R | ellipse:a,b | fourier:m:amp,..."
                        + (" (repeatable)" if multi else ""))
    p.add_argument("--n", type=int, default=256, help="grid size (power of two >= 32)")
    p.add_argument("--area-floor", type=float, default=1e-3,
                   help="stop when A drops to this fraction of A(0)")
    p.add_argument("--k-cap", type=float, default=None,
                   help="absolute curvature cap (default 1e6 * k_max(0))")
    p.add_argument("--max-steps", type=int, default=100_000_000)
    p.add_argument("--cadence", type=int, default=500,
                   help="snapshot every this many accepted steps")
    p.add_argument("--cfl", type=float, default=0.4, help="CFL safety factor")
    p.add_argument("--scheme", choices=flow.FORMULATIONS, default="curvature",
                   help="evolved formulation")
    p.add_argument("--spatial", choices=("fourier", "fd4"), default="fourier",
                   help="spatial derivative scheme")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for fourier phase randomization")
    p.add_argument("--out", default="out", help="output directory")


def _spec_from_args(args, law, curve):
    return RunSpec(law=law, curve=curve, n=args.n, area_floor=args.area_floor,
                   k_cap=args.k_cap, max_steps=args.max_steps, cadence=args.cadence,
                   cfl=args.cfl, scheme=args.scheme, spatial=args.spatial,
                   seed=args.seed)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curveflow",
        description="Generalized curve shortening flow: runs, sweeps and checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="integrate one flow and check all monitors")
    _add_run_flags(run_p)

    cont_p = sub.add_parser("containment", help="co-evolve a nested curve pair")
    _add_run_flags(cont_p)
    cont_p.add_argument("--outer", required=True, help="outer curve descriptor")
    cont_p.add_argument("--inner", required=True, help="inner curve descriptor")

    sweep_p = sub.add_parser("sweep", help="run a law x curve product concurrently")
    _add_run_flags(sweep_p, multi=True)
    sweep_p.add_argument("--workers", type=int, default=4)

    check_p = sub.add_parser("check-law", help="probe (H1)/(H2) for a law")
    check_p.add_argument("--law", required=True)
    check_p.add_argument("--range", default="0.1,100",
                         help="probe range lo,hi (default 0.1,100)")
    check_p.add_argument("--probes", type=int, default=64)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.subcommand == "run":
            spec = _spec_from_args(args, args.law or "power:1", args.curve or "circle:1")
            return execute_run(spec, args.out)
        if args.subcommand == "containment":
            spec = _spec_from_args(args, args.law or "power:1", args.outer)
            return execute_containment(spec, args.outer, args.inner, args.out)
        if args.subcommand == "sweep":
            laws = args.law or ["power:1"]
            curves = args.curve or ["circle:1"]
            specs = [_spec_from_args(args, law, curve)
                     for law in laws for curve in curves]
            return execute_sweep(specs, args.out, args.workers)
        if args.subcommand == "check-law":
            lo, hi = map(float, args.range.split(","))
            return execute_check_law(args.law, lo, hi, args.probes)
        parser.error(f"unknown subcommand {args.subcommand}")
    except (CurveFlowError, OSError) as exc:
        # convexity loss, hypothesis violation, unwritable output directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
