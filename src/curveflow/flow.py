"""Time integration of the flow toward blow-up, in curvature and support form.

Curvature form (angle parametrization):  dk/dt = k^2 (Phi(k)_thth + Phi(k))
Support form:                            dh/dt = -Phi((h'' + h)^-1)
with Phi(k) = G(k) * k.

One stepper core integrates both.  It advances a (B, n) stack of rows, at
most one curvature row k first and then support rows h, with shared
classical RK4 steps under the adaptive parabolic CFL bound (min over the
rows); a step that loses positivity in any row is rejected and retried at
half the dt.  The rows are stage-synchronous: at every RK4 stage the arrays
they differentiate, Phi(k) and h, go through one stacked second_derivative
call, and after the step the h'' + h of all support rows through one more.
``run`` passes one row (two for formulation="both"), ``containment_run``
passes its outer and inner support rows, and ``step``, ``stable_dt`` and
the ``rhs_*`` functions expose single pieces of the core on one profile.
The equation stiffens as curvature blows up, so runs stop at an area floor
(or a curvature cap) and report a bracket for the blow-up time instead of
trying to cross it.  Blaschke's rolling theorem, A >= pi / k_max^2, gates
the curvature form's area check: the exact Fourier area is computed only
once pi / k_max^2 is down to twice the floor, so the stop step is the same.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Union

import numpy as np

from . import geometry
from .errors import (
    ConvexityLossError,
    DegenerateProfileError,
    HypothesisViolationError,
    InsufficientDataError,
    NotClosedError,
    SpeedLawDomainError,
    StepRejected,
)
from .geometry import CurvatureProfile, SupportProfile
from .speed_law import check_hypotheses

STOP_AREA_FLOOR = "area-floor"
STOP_CURVATURE_CAP = "curvature-cap"
STOP_STEP_LIMIT = "step-limit"
STOP_CONVEXITY_LOSS = "convexity-loss"
STOP_DEGENERATE = "degenerate"
STOP_ANALYTIC = "analytic"  # used by exact reference trajectories only

FORMULATIONS = ("curvature", "support", "both")

# Spectral radius of the discrete second derivative, normalized to the
# Fourier value pi^2/dtheta^2; the CFL bound then gives the same
# lambda_max * dt = c_cfl * pi^2 / 2 for every scheme (RK4 wants c <~ 0.56).
_SCHEME_RADIUS_FACTOR = {"fourier": 1.0, "fd4": 16.0 / (3.0 * math.pi ** 2)}
SPATIAL_SCHEMES = tuple(_SCHEME_RADIUS_FACTOR)


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Run parameters; the grid comes from the initial profile.

    ``area_floor`` is the fraction of the initial area at which the run
    stops; ``k_cap`` is an absolute curvature cap (default 1e6 times the
    initial maximum), checked against the initial k_max when the config is
    built.  ``snapshot_every`` counts accepted steps.  Building the config
    also sets ``initial_curvature``, the initial profile in curvature form,
    and ``curvature_cap``, the cap in force.
    """

    law: object
    initial: Union[CurvatureProfile, SupportProfile]
    c_cfl: float = 0.4
    area_floor: float = 1e-3
    k_cap: Optional[float] = None
    max_steps: int = 100_000_000
    snapshot_every: int = 500
    formulation: str = "curvature"
    spatial_scheme: str = "fourier"

    def __post_init__(self):
        if not (0.0 < self.c_cfl <= 1.0):
            raise ValueError(f"c_cfl must be in (0, 1], got {self.c_cfl}")
        if not (0.0 < self.area_floor < 1.0):
            raise ValueError(f"area_floor must be in (0, 1), got {self.area_floor}")
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if self.spatial_scheme not in SPATIAL_SCHEMES:
            raise ValueError(f"spatial_scheme must be one of {SPATIAL_SCHEMES}")
        if self.max_steps < 1 or self.snapshot_every < 1:
            raise ValueError("max_steps and snapshot_every must be >= 1")
        kp0 = (self.initial if isinstance(self.initial, CurvatureProfile)
               else geometry.k_from_support(self.initial, self.spatial_scheme))
        k_max0 = float(np.max(kp0.k))
        k_cap = self.k_cap if self.k_cap is not None else 1e6 * k_max0
        if not k_cap > k_max0:
            raise ValueError(f"k_cap {k_cap} must exceed the initial k_max {k_max0}")
        object.__setattr__(self, "initial_curvature", kp0)
        object.__setattr__(self, "curvature_cap", k_cap)


@dataclasses.dataclass(frozen=True)
class BlowUpEstimate:
    """Bracket [omega_lo, omega_hi] for the blow-up time, with point estimate."""

    omega_lo: float
    omega_mid: float
    omega_hi: float
    method: str


@dataclasses.dataclass(frozen=True)
class Snapshot:
    t: float
    curvature: CurvatureProfile
    support: SupportProfile
    summary: geometry.GeometrySummary


@dataclasses.dataclass
class Trajectory:
    """Ordered snapshots of one run plus its metadata."""

    snapshots: List[Snapshot]
    stop_reason: str
    config: FlowConfig
    hypothesis_report: object
    roundness_expected: bool
    omega_estimate: Optional[BlowUpEstimate] = None
    step_count: int = 0
    dt_min: float = float("inf")
    dt_max: float = 0.0
    form_disagreement: Optional[List[float]] = None

    def times(self):
        return [s.t for s in self.snapshots]

    def summaries(self):
        return [s.summary for s in self.snapshots]

    @property
    def last(self):
        return self.snapshots[-1]


# ---------------------------------------------------------------------------
# the stepper core
# ---------------------------------------------------------------------------

def _speed(law, k):
    """Phi(k) = G(k) k of each row of the stack ``k``, one law.g call per row.

    Calling the law per row, not once on the stack, evaluates it on each row
    exactly as when that row is stepped alone.
    """
    if len(k) == 1:
        return law.g(k) * k
    return np.stack([law.g(row) * row for row in k])


def _rhs(y, ncurv, grid, law, scheme):
    """Right-hand sides of all rows of the (B, n) stack ``y`` at one RK4 stage.

    The first ``ncurv`` rows (0 or 1) hold curvature, the rest support
    functions.  The arrays the rows differentiate, Phi(k) and h, go through
    one stacked second_derivative call.  Raises StepRejected when a stage
    leaves the domain of any row.
    """
    k, h = y[:ncurv], y[ncurv:]
    if ncurv:
        # positivity guard is NaN-safe; law.g needs no further validation here
        if not k.min() > 0.0:
            raise StepRejected("curvature lost positivity in a stage")
        phi = law.g(k) * k  # one row, one law.g call
        d2 = geometry.second_derivative(np.concatenate((phi, h)) if len(h) else phi,
                                        grid, scheme)
        dk = k * k
        dk *= d2[:ncurv] + phi
        if not len(h):
            return dk
    else:
        d2 = geometry.second_derivative(h, grid, scheme)
    rho = d2[ncurv:]
    rho += h
    if not rho.min() > 0.0:
        raise StepRejected("support profile lost convexity in a stage")
    dh = -_speed(law, 1.0 / rho)
    return np.concatenate((dk, dh)) if ncurv else dh


def _cfl_base(c_cfl, grid, scheme):
    return c_cfl * grid.dtheta ** 2 / (2.0 * _SCHEME_RADIUS_FACTOR[scheme])


def _cfl_dt(y, ncurv, rho, law, cfl_base):
    """Parabolic CFL bound cfl_base / max(k^2 Phi'(k)), min over the rows.

    ``rho`` stacks h'' + h of the support rows, None when there are none.
    """
    ks = list(y[:ncurv])
    if rho is not None:
        ks.extend(1.0 / rho)
    dt = math.inf
    for k in ks:
        bound = cfl_base / (k * k * law.phi_prime(k)).max()  # numpy gives inf on 0, no raise
        if not 0.0 < bound < math.inf:
            raise SpeedLawDomainError(f"{law.label}: no finite CFL step at k_max = "
                                      f"{k.max():.3e}", abscissa=float(k.max()))
        dt = min(dt, float(bound))
    return dt


def _rk4(y, ncurv, dt, grid, law, scheme):
    """One RK4 step of every row; returns (y, rho) or raises StepRejected.

    A step is rejected when any stage, or the result, produces k <= 0 in the
    curvature row or h'' + h <= 0 in a support row.  ``rho`` stacks the
    result's h'' + h of the support rows (one second_derivative call), or is
    None when there are none.
    """
    half = 0.5 * dt
    k1 = _rhs(y, ncurv, grid, law, scheme)
    k2 = _rhs(y + half * k1, ncurv, grid, law, scheme)
    k3 = _rhs(y + half * k2, ncurv, grid, law, scheme)
    k4 = _rhs(y + dt * k3, ncurv, grid, law, scheme)
    # y + (dt/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order
    new = 2.0 * k2
    new += k1
    k3 *= 2.0
    new += k3
    new += k4
    new *= dt / 6.0
    new += y
    if ncurv and not new[:ncurv].min() > 0.0:
        raise StepRejected("curvature lost positivity over a full step")
    h = new[ncurv:]
    if not len(h):
        return new, None
    rho = geometry.second_derivative(h, grid, scheme)
    rho += h
    if not rho.min() > 0.0:
        raise StepRejected("support profile lost convexity over a full step")
    return new, rho


def _march(y, ncurv, rho, grid, law, c_cfl, scheme):
    """Advance the rows of one flow with shared RK4 steps, yielding each accepted one.

    Every step takes the CFL bound over all rows and halves it on rejection.
    Yields (t, dt, y, rho) per accepted step; returns, ending the
    iteration, once halving pushes dt below 1e-14 of the elapsed time (or
    of the first dt), which callers report as convexity loss.
    """
    cfl_base = _cfl_base(c_cfl, grid, scheme)
    clock = _Clock()
    first_dt = None
    while True:
        dt = _cfl_dt(y, ncurv, rho, law, cfl_base)
        if first_dt is None:
            first_dt = dt
        dt_floor = 1e-14 * max(clock.t, first_dt)
        while True:
            try:
                y, rho = _rk4(y, ncurv, dt, grid, law, scheme)
                break
            except StepRejected:
                dt *= 0.5
                if dt < dt_floor:
                    return
        clock.advance(dt)
        yield clock.t, dt, y, rho


def _stack(profile):
    """One profile as a one-row stack and its count of curvature rows."""
    if isinstance(profile, CurvatureProfile):
        return profile.k[None], 1
    if isinstance(profile, SupportProfile):
        return profile.h[None], 0
    raise TypeError(f"cannot step a {type(profile)}")


def rhs_curvature(kp, law, scheme="fourier"):
    """dk/dt = k^2 (Phi'' + Phi) on the grid; raises StepRejected unless k > 0."""
    return _rhs(kp.k[None], 1, kp.grid, law, scheme)[0]


def rhs_support(sp, law, scheme="fourier"):
    """dh/dt = -Phi(k), k = (h'' + h)^-1; raises StepRejected unless h'' + h > 0."""
    return _rhs(sp.h[None], 0, sp.grid, law, scheme)[0]


def stable_dt(profile, law, c_cfl, scheme="fourier"):
    """Parabolic CFL bound c_cfl * dtheta^2 / (2 max(k^2 Phi'(k)) * d_scheme)."""
    y, ncurv = _stack(profile)
    rho = None if ncurv else geometry.curvature_radius(profile, scheme)[None]
    return _cfl_dt(y, ncurv, rho, law, _cfl_base(c_cfl, profile.grid, scheme))


def step(state, law, dt, scheme="fourier"):
    """One classical RK4 step; raises StepRejected instead of mutating anything.

    A step is rejected when any stage, or the result, produces k <= 0
    (curvature form) or h'' + h <= 0 (support form).
    """
    y, ncurv = _stack(state)
    new, _ = _rk4(y, ncurv, dt, state.grid, law, scheme)
    return type(state)(state.grid, new[0], state.t + dt)


# ---------------------------------------------------------------------------
# running to the area floor
# ---------------------------------------------------------------------------

def _support_area_from_k(k, grid):
    """Area of the closed curve with curvature k, without leaving Fourier space.

    With h the spectral solution of h'' + h = 1/k (kernel modes dropped) and
    the solve self-adjoint, A = (1/2) oint h (h''+h) dtheta reduces to a
    weighted sum of |rho_hat|^2 over the Helmholtz symbol.
    """
    n = grid.n
    fh = np.fft.rfft(1.0 / k)
    fh[1] = 0.0
    helm = geometry._fourier_tables(n)[3]
    power = (fh.real * fh.real + fh.imag * fh.imag) / helm
    total = power[0] + 2.0 * float(np.sum(power[1:-1])) + power[-1]
    return 0.5 * grid.dtheta * total / n


def _area_of_support_arrays(h, grid, rho):
    return 0.5 * float(h @ rho) * grid.dtheta


class _Clock:
    """Compensated (Kahan) accumulation of the run time."""

    def __init__(self):
        self.t = 0.0
        self._c = 0.0

    def advance(self, dt):
        y = dt - self._c
        s = self.t + y
        self._c = (s - self.t) - y
        self.t = s


def run(config):
    """Advance the flow until a stop criterion fires and return the trajectory.

    Snapshots (with full geometry summaries) are recorded every
    ``snapshot_every`` accepted steps and at the final state.  Stop reasons,
    in tie-break order: area-floor, curvature-cap, step-limit.  Loss of
    convexity ends the run with reason "convexity-loss", and a snapshot too
    distorted to summarize with "degenerate", rather than raising; the
    snapshots taken so far are kept either way.
    With formulation="both" the two forms advance with shared time steps and
    their sup-norm curvature disagreement is recorded per snapshot.
    """
    law = config.law
    grid = config.initial.grid
    scheme = config.spatial_scheme

    # initial data in the forms this run evolves: the curvature row first
    kp0 = config.initial_curvature
    k_max0 = float(np.max(kp0.k))
    k_min0 = float(np.min(kp0.k))
    k_cap = config.curvature_cap
    ncurv = int(config.formulation != "support")
    rows = [kp0.k] if ncurv else []
    if config.formulation != "curvature":
        sp0 = (config.initial if isinstance(config.initial, SupportProfile)
               else geometry.support_from_curvature(kp0))
        rows.append(sp0.h)

    # validate the law on the curvature range this run can visit
    hyp = check_hypotheses(law, k_min0 / 2.0, k_cap, n_probes=64)
    probes = np.geomspace(k_min0 / 2.0, k_cap, 64)
    if np.min(law.phi_prime(probes)) <= 0.0:
        raise HypothesisViolationError(
            f"{law.label}: Phi'(k) <= 0 on the working range; the flow is not "
            "parabolic and cannot be integrated")
    roundness = hyp.all_ok

    snapshots = []
    disagreement = [] if config.formulation == "both" else None

    def take_snapshot(t, y, rho):
        # rho holds the support row's h'' + h as the stepper core computed it
        k = y[0] if ncurv else None
        h = y[ncurv] if rho is not None else None
        kp = CurvatureProfile(grid, k if k is not None else 1.0 / rho[0], t)
        sp = SupportProfile(grid, h, t) if h is not None else None
        # a curvature row is summarized with the support solved from it, also
        # when h evolves beside it; Snapshot.support keeps the evolved h
        solved = geometry.support_from_curvature(kp) if k is not None else sp
        summary = geometry.summarize(kp, solved)
        snapshots.append(Snapshot(t=t, curvature=kp, support=solved if sp is None else sp,
                                  summary=summary))
        if disagreement is not None:
            disagreement.append(float(np.max(np.abs(k - 1.0 / rho[0]))))

    def snapshot_failure(t, y, rho):
        """Take a snapshot; returns the stop reason its geometry failed with, if any."""
        try:
            take_snapshot(t, y, rho)
        except (ConvexityLossError, NotClosedError):
            return STOP_CONVEXITY_LOSS
        except DegenerateProfileError:
            return STOP_DEGENERATE
        return None

    y = np.array(rows)
    h = y[ncurv:]
    rho = geometry.second_derivative(h, grid, scheme) + h if len(h) else None
    take_snapshot(0.0, y, rho)
    area0 = snapshots[0].summary.area
    area_floor = config.area_floor * area0
    traj = Trajectory(snapshots=snapshots, stop_reason=STOP_STEP_LIMIT,
                      config=config, hypothesis_report=hyp,
                      roundness_expected=roundness,
                      form_disagreement=disagreement)

    t = 0.0
    steps = 0
    dt_min, dt_max = math.inf, 0.0
    snapshot_stop = False
    for t, dt, y, rho in _march(y, ncurv, rho, grid, law, config.c_cfl, scheme):
        steps += 1
        dt_min = min(dt_min, dt)
        dt_max = max(dt_max, dt)

        # stop checks read the curvature form when both evolve (tie: area wins)
        if ncurv:
            k_now = float(y[0].max())
            # Blaschke's rolling theorem gives A >= pi / k_max^2, so the exact
            # area is needed only once that bound fails to clear the floor by 2x
            below = (math.pi / (k_now * k_now) <= 2.0 * area_floor
                     and _support_area_from_k(y[0], grid) <= area_floor)
        else:
            below = _area_of_support_arrays(y[0], grid, rho[0]) <= area_floor
            k_now = float(1.0 / rho[0].min())
        stop = None
        if below:
            stop = STOP_AREA_FLOOR
        elif k_now >= k_cap:
            stop = STOP_CURVATURE_CAP
        elif steps >= config.max_steps:
            stop = STOP_STEP_LIMIT
        elif steps % config.snapshot_every == 0:
            stop = snapshot_failure(t, y, rho)
            snapshot_stop = stop is not None
        if stop is not None:
            traj.stop_reason = stop
            break
    else:
        traj.stop_reason = STOP_CONVEXITY_LOSS  # halving pushed dt below its floor

    traj.step_count = steps
    traj.dt_min = dt_min if steps else 0.0
    traj.dt_max = dt_max
    if snapshots[-1].t < t and not snapshot_stop:
        snapshot_failure(t, y, rho)  # on failure the last good snapshot stays last

    last = snapshots[-1].summary
    if last.k_max >= 10.0 * k_max0:
        traj.omega_estimate = estimate_blowup(traj)
    return traj


# ---------------------------------------------------------------------------
# blow-up bracketing and containment
# ---------------------------------------------------------------------------

def estimate_blowup(traj):
    """Bracket the blow-up time from the final snapshot, under the run's law.

    omega - t <= tail(k_max(t)) and omega - t >= tail(k_min(t)), with
    tail(k) = int_k^inf dx/(G(x) x^3); the bracket collapses for circles.

    The raw bounds are rigorous for the exact flow but the recorded state
    carries numerical error, so the bracket is widened by an allowance for
    the integrator's accumulated bias, O((lambda dt)^4) per unit of
    log-curvature growth with lambda the smooth-mode linearization rate,
    plus a 1e-11 relative floor for floating-point accumulation in t.
    """
    law = traj.config.law
    last = traj.snapshots[-1]
    k_max0 = traj.snapshots[0].summary.k_max
    if last.summary.k_max < 10.0 * k_max0:
        raise InsufficientDataError(
            f"asymptotic regime not reached: k_max grew only "
            f"{last.summary.k_max / k_max0:.2f}x (need 10x)")
    t_last = last.t
    lo_raw = t_last + law.tail_mass(last.summary.k_max)
    hi_raw = t_last + law.tail_mass(last.summary.k_min)

    k_last = last.summary.k_max
    lam_dt = (traj.config.c_cfl * last.curvature.grid.dtheta ** 2 / 2.0
              * (1.0 + 2.0 * law.phi(k_last) / (k_last * law.phi_prime(k_last))))
    bias = 2.0 * lam_dt ** 4 * math.log(max(k_last / k_max0, math.e)) \
        * (hi_raw - t_last)
    pad = max(1e-11 * max(abs(hi_raw), abs(t_last)), bias)
    lo = max(lo_raw - pad, t_last + 0.5 * (lo_raw - t_last))
    hi = hi_raw + pad
    method = "closed-form" if law.tail_integral is not None else "quadrature"
    return BlowUpEstimate(omega_lo=lo, omega_mid=0.5 * (lo + hi), omega_hi=hi,
                          method=method)


@dataclasses.dataclass
class ContainmentReport:
    """Per-snapshot minimum support gap of a co-evolved outer/inner pair."""

    times: List[float]
    min_gap: List[float]
    ok: List[bool]
    tol_contain: float
    stop_reason: str

    @property
    def all_ok(self):
        return all(self.ok)


def _steiner_centered(sp):
    sx, sy = geometry.steiner_point(sp)
    th = sp.grid.theta
    return SupportProfile(sp.grid, sp.h - sx * np.cos(th) - sy * np.sin(th), sp.t)


def containment_run(outer, inner, config):
    """Co-evolve two support profiles under ``config.law`` and track their gap.

    Both curves are Steiner-centered first; convexity of both and the
    pointwise ordering h_outer >= h_inner at t = 0 (set containment with a
    common origin) are preconditions.  The run ends when either curve
    reaches the configured area floor or curvature cap (the inner one blows
    up first for nested initial data); the containment contract is
    min(h_outer - h_inner) >= -1e-8 * L_outer(0).
    """
    if outer.grid.n != inner.grid.n:
        raise ValueError("outer and inner profiles must share a grid")
    grid = outer.grid
    scheme = config.spatial_scheme
    outer = _steiner_centered(outer)
    inner = _steiner_centered(inner)
    rhos = (geometry.curvature_radius(outer, scheme),
            geometry.curvature_radius(inner, scheme))
    gap0 = outer.h - inner.h
    tol = 1e-8 * geometry.periodic_integral(rhos[0], grid)
    if np.min(gap0) < -tol:
        raise ValueError(
            f"outer profile does not contain inner at t=0 "
            f"(min gap {np.min(gap0):.3e} after Steiner centering)")

    y = np.array([outer.h, inner.h])
    rho = np.array(rhos)
    areas0 = [_area_of_support_arrays(h, grid, r) for h, r in zip(y, rho)]
    times = [0.0]
    gaps = [float(np.min(gap0))]
    march = _march(y, 0, rho, grid, config.law, config.c_cfl, scheme)
    for steps, (t, _, y, rho) in enumerate(march, start=1):
        stop_reason = None
        if any(_area_of_support_arrays(h, grid, r) <= config.area_floor * a0
               for h, r, a0 in zip(y, rho, areas0)):
            stop_reason = STOP_AREA_FLOOR
        elif float(1.0 / rho.min()) >= config.curvature_cap:
            stop_reason = STOP_CURVATURE_CAP
        elif steps >= config.max_steps:
            stop_reason = STOP_STEP_LIMIT
        # the final state is recorded whatever stopped the run
        if steps % config.snapshot_every == 0 or stop_reason is not None:
            times.append(t)
            gaps.append(float(np.min(y[0] - y[1])))
        if stop_reason is not None:
            break
    else:
        stop_reason = STOP_CONVEXITY_LOSS

    ok = [g >= -tol for g in gaps]
    return ContainmentReport(times=times, min_gap=gaps, ok=ok,
                             tol_contain=tol, stop_reason=stop_reason)
