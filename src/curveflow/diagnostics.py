"""Post-hoc monitors: every inequality and asymptotic law checked per trajectory.

Monitors are pure functions of a trajectory; they never mutate it and never
abort a run.  Each returns a MonitorReport whose status is "pass", "fail",
or "inconclusive" (the last for trajectories that stopped before the regime
a monitor needs, or for speed laws outside the validated hypotheses, where
the roundness theory makes no promise).  Every pass or fail comes from one
rule, ``_conclusive``: a monitor's margins judge the trailing snapshot times,
and a margin that is not >= -tolerance, NaN included, is a violation.  The
evolution identities are judged in integrated form, against the flux
integrals that ``flow.run`` accumulates over its steps and records in every
snapshot, so no monitor differentiates the snapshot series in time.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

import numpy as np

from . import flow, geometry
from .errors import InsufficientDataError

RATIO_TOL = 0.05          # roundness target for k_min/k_max and r_in/r_out
BLOWUP_RHO_TOL = 0.05     # target for |rho - 1| of the blow-up integral
EVOLUTION_TOL = 0.01      # relative mismatch allowed in the integrated dL/dt, dA/dt
ISO_SLACK = 1e-8          # relative slack for monotonicity of L^2/A
BONNESEN_TOL = 1e-7       # relative tolerance for the Bonnesen gap
GAGE_TOL = 1e-9           # roundoff allowance for 0 <= F < 1
GRADIENT_TOL = 1e-8       # relative allowance in the gradient estimate


@dataclasses.dataclass(frozen=True)
class MonitorReport:
    """Outcome of one monitor over a trajectory.

    ``values`` is the series the monitor judges, one per entry of ``times``;
    its margins judge the trailing times (the asymptotic laws only the
    last), and for conclusive reports the pass flag is equivalent to
    worst_margin >= -tolerance, which a NaN margin fails.
    """

    name: str
    times: List[float]
    values: List[float]
    worst_margin: float
    tolerance: float
    status: str
    first_violation_time: Optional[float] = None
    note: str = ""
    extras: dict = dataclasses.field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"


def _conclusive(name, times, values, margins, tolerance, extras=None, traj=None,
                claim=None):
    """The one verdict rule: the margins judge the last ``len(margins)`` of
    ``times``, and a margin is a violation unless margin >= -tolerance, so a
    NaN margin fails.  Given ``traj`` and ``claim``, a failure outside
    (H1)/(H2) is inconclusive instead: there the roundness theory promises
    nothing, so a failed check is expected behavior, not a defect."""
    margins = np.asarray(margins, dtype=float)
    worst = float(np.min(margins)) if margins.size else 0.0
    bad = np.nonzero(~(margins >= -tolerance))[0]
    first_violation = (float(times[len(times) - margins.size + int(bad[0])])
                       if bad.size else None)
    status = "pass" if first_violation is None else "fail"
    note = ""
    if status == "fail" and traj is not None and not traj.roundness_expected:
        status = "inconclusive"
        note = (f"{claim} is not asserted for {traj.config.law.label}: "
                "the structural hypotheses fail on the probed range")
    return MonitorReport(name=name, times=list(times), values=list(values),
                         worst_margin=worst, tolerance=tolerance, status=status,
                         first_violation_time=first_violation, note=note,
                         extras=extras or {})


def _inconclusive(name, times, values, note, extras=None):
    return MonitorReport(name=name, times=list(times), values=list(values),
                         worst_margin=float("nan"), tolerance=0.0,
                         status="inconclusive", note=note, extras=extras or {})


def _need_snapshots(traj, count):
    if len(traj.snapshots) < count:
        raise InsufficientDataError(
            f"monitor needs at least {count} snapshots, trajectory has "
            f"{len(traj.snapshots)}")


# ---------------------------------------------------------------------------
# monotone quantities and static inequalities
# ---------------------------------------------------------------------------

def monitor_iso_ratio(traj):
    """L^2/A must be non-increasing snapshot to snapshot (relative slack)."""
    _need_snapshots(traj, 2)
    ratios = [s.iso_ratio for s in traj.summaries()]
    margins = [(ratios[i] - ratios[i + 1]) / ratios[i] for i in range(len(ratios) - 1)]
    return _conclusive("iso-ratio-monotone", traj.times(), ratios, margins, ISO_SLACK,
                       extras={"initial": ratios[0], "final": ratios[-1]},
                       traj=traj, claim="monotonicity of L^2/A")


def monitor_bonnesen(traj):
    """L^2/A - 4 pi >= pi^2 (r_out - r_in)^2 / A at every snapshot."""
    _need_snapshots(traj, 1)
    gaps = [s.bonnesen_gap for s in traj.summaries()]
    margins = [g / s.iso_ratio for g, s in zip(gaps, traj.summaries())]
    return _conclusive("bonnesen", traj.times(), gaps, margins, BONNESEN_TOL)


def monitor_gage(traj):
    """The roundness deficit F = 1 - (pi L/A)/oint k^2 ds stays in [0, 1).

    The liminf decay statement is reported, not asserted pointwise: the
    extras carry L (oint k^2 ds - pi L/A) over the last quarter of the run.
    """
    _need_snapshots(traj, 1)
    times = traj.times()
    deficits = [s.gage_deficit for s in traj.summaries()]
    margins = [min(f, 1.0 - f) for f in deficits]
    late = traj.summaries()[-max(1, len(times) // 4):]
    trend = [s.length * (math.pi * s.length / s.area) * s.gage_deficit
             / (1.0 - s.gage_deficit) for s in late]
    return _conclusive("gage-deficit", times, deficits, margins, GAGE_TOL,
                       extras={"final": deficits[-1],
                               "late_liminf_trend": min(trend)})


def monitor_gradient_estimate(traj):
    """max |dPhi/dtheta|^2 <= max(2 max_(s<=t) Phi^2, initial Phi_theta^2 + 2 Phi^2).

    Judged on Phi 2^-e, e the binary exponent of the largest |Phi| over the
    snapshots: the scaling is exact, so the margins keep their bits and
    Phi^2 cannot overflow.  Values and bounds are scaled back for the
    report, where one beyond the float range reads inf.
    """
    _need_snapshots(traj, 1)
    law = traj.config.law
    phis = [law.phi(snap.curvature.k) for snap in traj.snapshots]
    e = math.frexp(max(float(np.max(np.abs(phi))) for phi in phis))[1]
    lhs, phimax2 = [], []
    for snap, phi in zip(traj.snapshots, phis):
        phi = np.ldexp(phi, -e)
        dphi = geometry.first_derivative(phi, snap.curvature.grid)
        lhs.append(float(np.max(dphi * dphi)))
        phimax2.append(float(np.max(phi * phi)))
        if len(lhs) == 1:  # the initial snapshot
            initial_bound = float(np.max(dphi * dphi + 2.0 * phi * phi))
    bounds = np.maximum(2.0 * np.maximum.accumulate(phimax2), initial_bound)
    margins = [(b - v) / b for b, v in zip(bounds, lhs)]
    with np.errstate(over="ignore"):
        lhs, bounds = (np.ldexp(x, 2 * e).tolist() for x in (lhs, bounds))
    return _conclusive("gradient-estimate", traj.times(), lhs, margins, GRADIENT_TOL,
                       extras={"bounds": bounds}, traj=traj, claim="the gradient estimate")


# ---------------------------------------------------------------------------
# asymptotics near blow-up
# ---------------------------------------------------------------------------

def _turn_round_rate(traj):
    """(fitted, predicted) rate at which the curve turns round, or None each.

    Linearized about the shrinking circle, the slowest free mode of the
    curvature, m = 2, decays as d log(1 - k_min/k_max) / d log k_max =
    1 - 3q with q = k Phi'(k) / Phi(k) (ROADMAP item 11): -2, -5 and -8 for
    G = k^(p-1) at p = 1, 2 and 3.  ``fitted`` is the least-squares slope of
    log(1 - k_min/k_max) against log k_max over the snapshots where
    1e-10 < 1 - k_min/k_max < 1e-2, the linear regime above rounding (None
    with fewer than 3 there); ``predicted`` is 1 - 3q at the last k_max
    (None where q is not finite).
    """
    window = [(s.k_max, 1.0 - s.k_min / s.k_max) for s in traj.summaries()]
    window = [(k, d) for k, d in window if 1e-10 < d < 1e-2]
    fitted = None
    if len(window) >= 3:
        # least squares in closed form: np.polyfit would load LAPACK
        x, y = np.log(np.array(window)).T
        x = x - x.mean()
        fitted = float((x * (y - y.mean())).sum() / (x * x).sum())
    law, k = traj.config.law, traj.summaries()[-1].k_max
    with np.errstate(all="ignore"):  # a law beyond the float range has no q
        q = 1.0 + float(law.g_prime(k)) * k / float(law.g(k))
    return fitted, (1.0 - 3.0 * q if math.isfinite(q) else None)


def monitor_ratio_asymptotics(traj):
    """r_in/r_out and k_min/k_max must both reach 1 - 0.05 by the final snapshot.

    Needs the run to have contracted to 1% of the initial area, otherwise the
    verdict is inconclusive.  The extras also track max |k r_in - 1|, the
    pointwise curvature-inradius law, and report the rate at which the curve
    turns round (``turn_round_slope``) beside its linearized prediction
    (``turn_round_slope_predicted``, see ``_turn_round_rate``); neither is
    judged.
    """
    _need_snapshots(traj, 1)
    times = traj.times()
    summaries = traj.summaries()
    k_ratio = [s.k_min / s.k_max for s in summaries]
    r_ratio = [s.r_in / s.r_out for s in summaries]
    values = [min(a, b) for a, b in zip(k_ratio, r_ratio)]
    kr_dev = [float(np.max(np.abs(snap.curvature.k * snap.summary.r_in - 1.0)))
              for snap in traj.snapshots]
    slope, predicted = _turn_round_rate(traj)
    extras = {"k_min_over_k_max": k_ratio, "r_in_over_r_out": r_ratio,
              "max_abs_k_rin_minus_1": kr_dev, "turn_round_slope": slope,
              "turn_round_slope_predicted": predicted}
    if summaries[-1].area > 0.01 * summaries[0].area:
        return _inconclusive(
            "ratio-asymptotics", times, values,
            "trajectory stopped before reaching 1% of the initial area", extras)
    return _conclusive("ratio-asymptotics", times, values, [values[-1] - (1.0 - RATIO_TOL)],
                       0.0, extras=extras, traj=traj, claim="roundness of the ratios")


def monitor_blowup_integral(traj):
    """rho(theta, t) = tail(k)/(omega_hat - t) must approach 1 uniformly.

    The tail integral is monotone in k, so the extremes over theta are
    attained at k_min and k_max.  Uses omega_mid; rho evaluated at the
    bracket endpoints is reported so the systematic error stays visible.
    Inconclusive when no bracket is available or it is too wide.
    """
    _need_snapshots(traj, 1)
    law = traj.config.law
    times = traj.times()
    est = traj.omega_estimate
    if est is None:
        return _inconclusive("blowup-integral", times, [],
                             "no blow-up bracket: run stopped before the asymptotic regime")
    k_max0 = traj.snapshots[0].summary.k_max
    late = [s for s in traj.snapshots if s.summary.k_max >= flow.ASYMPTOTIC_GROWTH * k_max0]
    if not late:
        return _inconclusive("blowup-integral", times, [], "no snapshots in the asymptotic "
                             f"regime (k_max >= {flow.ASYMPTOTIC_GROWTH:g} k_max(0))")
    t_final = late[-1].t
    width = est.omega_hi - est.omega_lo
    if width > 0.1 * (est.omega_mid - t_final):
        return _inconclusive(
            "blowup-integral", times, [],
            f"omega bracket width {width:.3e} exceeds 10% of the remaining "
            f"time {est.omega_mid - t_final:.3e}")

    late_times, values, rho_ranges = [], [], {}
    for omega, tag in ((est.omega_lo, "lo"), (est.omega_mid, "mid"), (est.omega_hi, "hi")):
        rho_ranges[tag] = []
        for snap in late:
            s = snap.summary
            rho_hi = law.tail_mass(s.k_min) / (omega - snap.t)
            rho_lo = law.tail_mass(s.k_max) / (omega - snap.t)
            rho_ranges[tag].append((rho_lo, rho_hi))
            if tag == "mid":
                late_times.append(snap.t)
                values.append(max(abs(rho_lo - 1.0), abs(rho_hi - 1.0)))
    return _conclusive("blowup-integral", late_times, values, [BLOWUP_RHO_TOL - values[-1]],
                       0.0, extras={"rho_ranges": rho_ranges, "omega": dataclasses.asdict(est)},
                       traj=traj, claim="the blow-up integral law")


# ---------------------------------------------------------------------------
# evolution identities
# ---------------------------------------------------------------------------

def monitor_evolution_identities(traj):
    """dL/dt = -oint G(k) k dtheta and dA/dt = -oint G(k) dtheta, integrated.

    Between consecutive snapshots, L and A must lose what the run's flux
    integrals (``Snapshot.flux``, accumulated over every accepted step)
    gained: each interval is judged by
    max(|dL + dI_Phi| / |dI_Phi|, |dA + dI_G| / |dI_G|) at 1% relative
    mismatch.  An identity whose flux integral did not change over an
    interval, as rounding leaves it far below the initial area, is not
    judged there; inconclusive when no interval can be judged.
    """
    _need_snapshots(traj, 2)
    snaps = traj.snapshots
    times, mismatches = [], []
    for a, b in zip(snaps, snaps[1:]):
        changes = ((b.summary.length - a.summary.length, b.flux[0] - a.flux[0]),
                   (b.summary.area - a.summary.area, b.flux[1] - a.flux[1]))
        judged = [abs(size + flux) / abs(flux) for size, flux in changes if flux != 0.0]
        if judged:
            times.append(b.t)
            mismatches.append(max(judged))
    if not mismatches:
        return _inconclusive("evolution-identities", traj.times()[1:], [],
                             "no flux integral changed between snapshots")
    margins = [EVOLUTION_TOL - m for m in mismatches]
    return _conclusive("evolution-identities", times, mismatches, margins, 0.0,
                       extras={"worst_mismatch": max(mismatches)})


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_all_monitors(traj):
    """Evaluate every monitor; multi-snapshot ones are skipped (inconclusive)
    when the trajectory is too short to judge."""
    reports = []
    for name, fn in (
            ("iso-ratio-monotone", monitor_iso_ratio),
            ("bonnesen", monitor_bonnesen),
            ("gage-deficit", monitor_gage),
            ("gradient-estimate", monitor_gradient_estimate),
            ("ratio-asymptotics", monitor_ratio_asymptotics),
            ("blowup-integral", monitor_blowup_integral),
            ("evolution-identities", monitor_evolution_identities)):
        try:
            reports.append(fn(traj))
        except InsufficientDataError as exc:
            reports.append(_inconclusive(name, [], [], str(exc)))
    return reports


def format_monitor_table(reports):
    """Aligned plain-text table: monitor, status, worst margin, violation time."""
    rows = [("monitor", "status", "worst_margin", "violation_t")]
    for r in reports:
        margin = "-" if math.isnan(r.worst_margin) else f"{r.worst_margin:.3e}"
        viol = "-" if r.first_violation_time is None else f"{r.first_violation_time:.6g}"
        rows.append((r.name, r.status, margin, viol))
    widths = [max(len(row[j]) for row in rows) for j in range(4)]
    lines = ["  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines)
