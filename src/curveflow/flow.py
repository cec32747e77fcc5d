"""Time integration of the flow toward blow-up, in curvature and support form.

Curvature form (angle parametrization):  dk/dt = k^2 (Phi(k)_thth + Phi(k))
Support form:                            dh/dt = -Phi((h'' + h)^-1)
with Phi(k) = G(k) * k.

One stepper core integrates both.  It advances a (B, n) stack of rows, at
most one curvature row k first and then support rows h, with shared ETDRK4
steps (Cox & Matthews 2002, in the form of Kassam & Trefethen 2005).  The
diffusion rate k^2 Phi'(k) blows up with the curvature, so the stiff part
L = -S sigma(m), with S = max k^2 Phi'(k) over the rows and sigma the
symbol of -d^2/dtheta^2, is integrated exactly in Fourier space, and
N = rhs - L y is built on the right-hand side ``_rhs``.  A full step has
dt S = ETD_STEP = 0.0015, so the step count does not grow with n; on grids
of n <= 64 the RK4 bound 0.4 dtheta^2 / 2 is the longer step and is taken
instead.  Where k^2 Phi'(k) falls far below S
over much of the curve, the part of the diffusion that L leaves in N is
stiff, and a full step can be inaccurate: every step carries an embedded
error estimate, and a step whose estimate exceeds ETD_TOLERANCE, or that
loses positivity in any row, is rejected and retried at half the dt.  The
rows are stage-synchronous: at every stage the arrays they differentiate,
Phi(k) and h, go through one stacked second_derivative call.  Snapshots
follow the CFL clock, which counts CFL units, dt S / (0.4 dtheta^2 / 2)
per step (one unit is one RK4 step at its stability bound); a step is
clipped to land on each cadence mark.
``run`` passes one row (two for formulation="both"), ``containment_run``
passes its outer and inner support rows.  ``step`` takes one ETDRK4 step of
a profile at a dt of the caller's choosing, ``stable_dt`` gives the length
of one CFL unit, and the ``rhs_*`` functions give the right-hand sides of
one profile.
The equation stiffens as curvature blows up, so runs stop at an area floor
(or a curvature cap) and report a bracket for the blow-up time instead of
trying to cross it.  Blaschke's rolling theorem, A >= pi / k_max^2, gates
the curvature form's area check: the exact Fourier area is computed only
once pi / k_max^2 is down to twice the floor, so the stop step is the same.
"""

from __future__ import annotations

import dataclasses
import functools
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

# A full ETDRK4 step takes dt = ETD_STEP / S with S = max k^2 Phi'(k), or
# one CFL unit, the RK4 step 0.4 dtheta^2 / (2 S), where that is longer
# (n <= 64).
ETD_STEP = 0.0015
# Largest accepted local error estimate of a step, relative to each row's
# largest value.  On the p = 4 ellipse, the stiffest law and curve the
# tests run, 1e-5 lets the evolution identities drift past their 1% bound
# (1.1%), while 1e-6 and 1e-7 give the same 0.75%: the run's figures have
# converged at 1e-6.
ETD_TOLERANCE = 1e-6
_ETD_CONTOUR_POINTS = 32
# The upper half of that circle around 0, for the radii 1 and 2 (rows),
# with e^w and e^(w/2): for real z the lower half holds the complex
# conjugates, so a mean over the circle is the real part of the mean over
# these points.
_CONTOUR = np.outer((1.0, 2.0), np.exp(1j * np.pi * (
    np.arange(_ETD_CONTOUR_POINTS // 2) + 0.5) / (_ETD_CONTOUR_POINTS // 2)))
_CONTOUR_EXP = (np.exp(_CONTOUR), np.exp(0.5 * _CONTOUR))


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Run parameters; the grid comes from the initial profile.

    ``area_floor`` is the fraction of the initial area at which the run
    stops; ``k_cap`` is an absolute curvature cap (default 1e6 times the
    initial maximum), checked against the initial k_max when the config is
    built.  ``snapshot_every`` counts CFL units: a step of dt counts
    dt S / (0.4 dtheta^2 / 2), S = max k^2 Phi'(k), so one unit is one
    RK4 step at its CFL bound.  Steps are clipped to land on its multiples,
    where snapshots are taken, so the snapshot times do not depend on the
    step count.  Building the config also sets ``initial_curvature``, the
    initial profile in curvature form, and ``curvature_cap``, the cap in
    force.
    """

    law: object
    initial: Union[CurvatureProfile, SupportProfile]
    area_floor: float = 1e-3
    k_cap: Optional[float] = None
    max_steps: int = 100_000_000
    snapshot_every: int = 500
    formulation: str = "curvature"

    def __post_init__(self):
        if not (0.0 < self.area_floor < 1.0):
            raise ValueError(f"area_floor must be in (0, 1), got {self.area_floor}")
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"formulation must be one of {FORMULATIONS}")
        if self.max_steps < 1 or self.snapshot_every < 1:
            raise ValueError("max_steps and snapshot_every must be >= 1")
        kp0 = (self.initial if isinstance(self.initial, CurvatureProfile)
               else geometry.k_from_support(self.initial))
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
    """The state at time t; ``flux`` holds the time integrals from 0 to t of
    oint Phi dtheta and oint G dtheta, which L and A lose by the evolution
    identities dL/dt = -oint Phi dtheta and dA/dt = -oint G dtheta."""

    t: float
    curvature: CurvatureProfile
    support: SupportProfile
    summary: geometry.GeometrySummary
    flux: tuple


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
    rejected_count: int = 0
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


def _rhs(y, ncurv, grid, law):
    """Right-hand sides of all rows of the (B, n) stack ``y`` at one stage.

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
        d2 = geometry.second_derivative(np.concatenate((phi, h)) if len(h) else phi, grid)
        dk = k * k
        dk *= d2[:ncurv] + phi
        if not len(h):
            return dk
    else:
        d2 = geometry.second_derivative(h, grid)
    rho = d2[ncurv:]
    rho += h
    if not rho.min() > 0.0:
        raise StepRejected("support profile lost convexity in a stage")
    dh = -_speed(law, 1.0 / rho)
    return np.concatenate((dk, dh)) if ncurv else dh


def _cfl_base(grid):
    """dt * S of one CFL unit: the RK4 stability bound 0.4 dtheta^2 / 2."""
    return 0.4 * grid.dtheta ** 2 / 2.0


def _step_scale(grid):
    """dt * S of a full ETDRK4 step: ETD_STEP, or the RK4 bound if longer.

    The RK4 bound is longer on grids of n <= 64 only.  There the explicit
    part of the step stays within the stability bound an RK4 step obeys,
    every mode has dt S sigma(m) <= 0.4 pi^2 / 2, and the error estimate
    rejects the step where it is not accurate; a run then takes one step
    per CFL unit, as RK4 did.
    """
    return max(ETD_STEP, _cfl_base(grid))


def _stiffness(y, ncurv, rho, law, scale):
    """S = max(k^2 Phi'(k)) over the rows, the diffusion rate that sets the step.

    ``rho`` stacks h'' + h of the support rows, None when there are none.
    Raises SpeedLawDomainError unless ``scale`` / S is a finite positive step.
    """
    ks = list(y[:ncurv])
    if rho is not None:
        ks.extend(1.0 / rho)
    stiffness = 0.0
    for k in ks:
        rate = (k * k * law.phi_prime(k)).max()
        if not 0.0 < scale / rate < math.inf:  # numpy gives inf on 0, no raise
            raise SpeedLawDomainError(f"{law.label}: no finite step at k_max = "
                                      f"{k.max():.3e}", abscissa=float(k.max()))
        stiffness = max(stiffness, float(rate))
    return stiffness


def _phi_functions(z):
    """Q, phi_1, phi_2, phi_3 of the real array ``z`` <= 0, by contour means.

    Q(z) = (e^(z/2) - 1) / z and phi_j(z) = (e^z - sum_(i<j) z^i / i!) / z^j
    are each the mean of their own formula over _ETD_CONTOUR_POINTS points of
    a circle around z (Kassam & Trefethen), which avoids the cancellation of
    the formulas at z itself near z = 0.  The circle has radius 1, or 2 where
    a unit circle would pass within 1/2 of the origin, where the formulas
    cancel in turn.
    """
    wide = (np.abs(z + 1.0) < 0.5).astype(np.intp)  # |z| near 1, as z <= 0
    inv = 1.0 / (z[:, None] + _CONTOUR[wide])
    exp_w, exp_half_w = (table[wide] for table in _CONTOUR_EXP)
    q = np.exp(0.5 * z)[:, None] * exp_half_w
    q -= 1.0
    q *= inv
    phi1 = np.exp(z)[:, None] * exp_w
    phi1 -= 1.0
    phi1 *= inv
    phi2 = (phi1 - 1.0) * inv
    phi3 = (phi2 - 0.5) * inv
    return tuple(np.mean(f, axis=1).real for f in (q, phi1, phi2, phi3))


@functools.lru_cache(maxsize=16)
def _etd_coefficients(n, scale):
    """ETDRK4 tables of a step with dt * S = ``scale`` on an n-point grid.

    With z = dt L = -scale * sigma per bin: e^z, e^(z/2), Q = (e^(z/2) - 1)/z
    and Cox & Matthews' f1, f2, f3 divided by dt, plus scale * sigma (dt times
    the linear part moved into N) and 1 - sigma (the symbol of h'' + h).
    They depend on (n, scale) only; a run reuses the full step's and
    builds one per halving and per step clipped to the snapshot cadence.
    """
    sigma = geometry.second_derivative_symbol(n)
    z = -scale * sigma
    q, phi1, phi2, phi3 = _phi_functions(z)
    tables = (np.exp(z), np.exp(0.5 * z), q,
              phi1 - 3.0 * phi2 + 4.0 * phi3, phi2 - 2.0 * phi3, 4.0 * phi3 - phi2,
              scale * sigma, 1.0 - sigma)
    for table in tables:
        table.setflags(write=False)
    return tables


def _etd(y, y_hat, r_hat, ncurv, dt, coefficients, grid, law):
    """One ETDRK4 step of every row, with its local error estimate.

    ``y_hat`` is rfft(y), ``r_hat`` rfft(_rhs(y)) (None to compute it here)
    and ``coefficients`` the step's _etd_coefficients.  The linear part
    L = -S sigma is integrated exactly; N = rhs - L y is built on _rhs, so a
    stage that leaves the domain of a row is rejected there, as is a result
    with k <= 0 or h'' + h <= 0 in any row.  Returns (y, rho, y_hat, r_hat,
    error) of the result, or raises StepRejected; ``rho`` stacks the result's
    h'' + h of the support rows, or is None when there are none.  ``error`` is the largest over the
    rows of |f3 (N(y_new) - N(c))| relative to the row's largest |y_new|,
    where c is the last stage, at the same time as y_new: swapping N(c) for
    N(y_new) in the last weight gives a third-order step (the embedded pair
    of classical RK4 with its first-same-as-last stage), so ``error`` is
    O(dt^4) where N is smooth and grows with the stiff part that L leaves
    in N.  N(y_new) is the next step's first stage, so the estimate costs
    no extra right-hand side on an accepted step.
    """
    e, e_half, q, f1, f2, f3, linear, helmholtz = coefficients
    n = grid.n

    def transformed_rhs(values):
        return np.fft.rfft(_rhs(values, ncurv, grid, law))

    def nonlinear(stage_hat, stage_r_hat):
        # dt times the transform of N at the stage: dt rhs + scale sigma v
        out = stage_r_hat * dt
        out += linear * stage_hat
        return out

    if r_hat is None:
        r_hat = transformed_rhs(y)
    nv = nonlinear(y_hat, r_hat)
    e_half_v = e_half * y_hat
    a_hat = e_half_v + q * nv
    na = nonlinear(a_hat, transformed_rhs(np.fft.irfft(a_hat, n)))
    b_hat = e_half_v + q * na
    nb = nonlinear(b_hat, transformed_rhs(np.fft.irfft(b_hat, n)))
    c_hat = e_half * a_hat + q * (2.0 * nb - nv)
    nc = nonlinear(c_hat, transformed_rhs(np.fft.irfft(c_hat, n)))
    new_hat = e * y_hat + f1 * nv + f2 * (2.0 * (na + nb)) + f3 * nc
    if len(y) == ncurv:
        new, rho = np.fft.irfft(new_hat, n), None
    else:  # the support rows' h'' + h comes out of the same inverse transform
        out = np.fft.irfft(np.concatenate((new_hat, helmholtz * new_hat[ncurv:])), n)
        new, rho = out[:len(y)], out[len(y):]
    if ncurv and not new[:ncurv].min() > 0.0:
        raise StepRejected("curvature lost positivity over a full step")
    if rho is not None and not rho.min() > 0.0:
        raise StepRejected("support profile lost convexity over a full step")
    new_r_hat = transformed_rhs(new)
    estimate = np.fft.irfft(f3 * (nonlinear(new_hat, new_r_hat) - nc), n)
    error = float((np.abs(estimate).max(axis=1) / np.abs(new).max(axis=1)).max())
    return new, rho, new_hat, new_r_hat, error


def _march(y, ncurv, rho, grid, law, clock):
    """Advance the rows of one flow with shared ETDRK4 steps, yielding each accepted one.

    A full step has dt * S = _step_scale(grid), S the stiffness over all
    rows.  A step is rejected, and retried at half the dt, when a row leaves
    its domain or the step's error estimate exceeds ETD_TOLERANCE; after a
    full-length step whose estimate is below ETD_TOLERANCE / 32 the next
    step is twice as long again, up to the full step.  ``clock`` keeps the
    run time, the CFL clock and the step counters, and a step that would
    pass the clock's next cadence mark is clipped to land on it.  Yields
    (t, y, rho, on_cadence) per accepted step; returns, ending the
    iteration, once halving pushes dt below 1e-14 of the elapsed time (or of
    the first dt), which callers report as convexity loss.
    """
    cfl_base = _cfl_base(grid)
    full = _step_scale(grid)
    y_hat = np.fft.rfft(y)
    r_hat = None
    first_dt = None
    level = 0  # the step is full / 2^level
    while True:
        stiffness = _stiffness(y, ncurv, rho, law, full)
        while True:
            units, on_cadence = clock.plan(full / 2 ** level / cfl_base)
            scale = units * cfl_base
            dt = scale / stiffness
            if first_dt is None:
                first_dt = dt
            try:
                result = _etd(y, y_hat, r_hat, ncurv, dt,
                              _etd_coefficients(grid.n, scale), grid, law)
                if result[-1] <= ETD_TOLERANCE:
                    break
            except StepRejected:
                pass
            clock.rejected += 1
            level += 1
            if 0.5 * dt < 1e-14 * max(clock.t, first_dt):
                return
        y, rho, y_hat, r_hat, error = result
        if level and not on_cadence and error < ETD_TOLERANCE / 32.0:
            level -= 1
        clock.advance(dt, units, on_cadence)
        yield clock.t, y, rho, on_cadence


def _stack(profile):
    """(y, ncurv, rho): one profile as a one-row stack, its count of curvature
    rows, and a support row's h'' + h (raises ConvexityLossError unless > 0)."""
    if isinstance(profile, CurvatureProfile):
        return profile.k[None], 1, None
    if isinstance(profile, SupportProfile):
        return profile.h[None], 0, geometry.curvature_radius(profile)[None]
    raise TypeError(f"cannot step a {type(profile)}")


def rhs_curvature(kp, law):
    """dk/dt = k^2 (Phi'' + Phi) on the grid; raises StepRejected unless k > 0."""
    return _rhs(kp.k[None], 1, kp.grid, law)[0]


def rhs_support(sp, law):
    """dh/dt = -Phi(k), k = (h'' + h)^-1; raises StepRejected unless h'' + h > 0."""
    return _rhs(sp.h[None], 0, sp.grid, law)[0]


def stable_dt(profile, law):
    """The length of one CFL unit, 0.4 dtheta^2 / (2 max(k^2 Phi'(k))).

    That is the classical RK4 stability bound of the profile, and the unit
    in which ``snapshot_every`` counts.
    """
    y, ncurv, rho = _stack(profile)
    cfl_base = _cfl_base(profile.grid)
    return cfl_base / _stiffness(y, ncurv, rho, law, cfl_base)


def step(state, law, dt):
    """One ETDRK4 step of size ``dt``; raises StepRejected instead of mutating anything.

    This is a run's step, with S = max k^2 Phi'(k) of ``state`` and the
    tables of dt S, but without error control: the caller picks dt.  A step
    is rejected when any stage, or the result, produces k <= 0 (curvature
    form) or h'' + h <= 0 (support form); a non-convex support ``state``
    raises ConvexityLossError.
    """
    y, ncurv, rho = _stack(state)
    scale = dt * _stiffness(y, ncurv, rho, law, dt)
    new = _etd(y, np.fft.rfft(y), None, ncurv, dt, _etd_coefficients(state.grid.n, scale),
               state.grid, law)[0]
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
    """The run time t (Kahan-compensated), the CFL clock and the step counters of a march.

    The CFL clock counts CFL units, dt S / cfl_base per step: one unit is one
    RK4 step at the CFL bound 0.4 dtheta^2 / (2 S).  A step that would pass
    the next multiple of ``every`` is clipped to end on it, where a snapshot
    falls; ``since`` counts the units after the last one.  ``steps`` counts
    accepted steps, ``dt_min`` and ``dt_max`` bound their lengths, and
    ``rejected`` counts rejected step attempts.
    """

    def __init__(self, every=math.inf):
        self.every = every
        self.t = 0.0
        self._c = 0.0
        self.since = 0.0
        self.steps = 0
        self.rejected = 0
        self.dt_min = math.inf
        self.dt_max = 0.0

    def plan(self, units):
        """(units, on_cadence) of a step of ``units``, clipped to the next mark."""
        rest = self.every - self.since
        if units < rest * (1.0 - 1e-9):
            return units, False
        return rest, True

    def advance(self, dt, units, on_cadence):
        y = dt - self._c
        s = self.t + y
        self._c = (s - self.t) - y
        self.t = s
        self.since = 0.0 if on_cadence else self.since + units
        self.steps += 1
        self.dt_min = min(self.dt_min, dt)
        self.dt_max = max(self.dt_max, dt)


def _stop_reason(below, k_now, config, clock):
    """area-floor, curvature-cap or step-limit after a step, in that tie-break order."""
    if below:
        return STOP_AREA_FLOOR
    if k_now >= config.curvature_cap:
        return STOP_CURVATURE_CAP
    if clock.steps >= config.max_steps:
        return STOP_STEP_LIMIT
    return None


def run(config):
    """Advance the flow until a stop criterion fires and return the trajectory.

    Snapshots (with full geometry summaries) are recorded every
    ``snapshot_every`` CFL units and at the final state.  Stop reasons,
    in tie-break order: area-floor, curvature-cap, step-limit.  Loss of
    convexity ends the run with reason "convexity-loss", and a snapshot too
    distorted to summarize with "degenerate", rather than raising; the
    snapshots taken so far are kept either way.
    With formulation="both" the two forms advance with shared time steps and
    their sup-norm curvature disagreement is recorded per snapshot.
    """
    law = config.law
    grid = config.initial.grid

    # initial data in the forms this run evolves: the curvature row first
    kp0 = config.initial_curvature
    k_max0 = float(np.max(kp0.k))
    k_min0 = float(np.min(kp0.k))
    ncurv = int(config.formulation != "support")
    rows = [kp0.k] if ncurv else []
    if config.formulation != "curvature":
        sp0 = (config.initial if isinstance(config.initial, SupportProfile)
               else geometry.support_from_curvature(kp0))
        rows.append(sp0.h)

    # validate the law on the curvature range this run can visit
    hyp = check_hypotheses(law, k_min0 / 2.0, config.curvature_cap, n_probes=64)
    probes = np.geomspace(k_min0 / 2.0, config.curvature_cap, 64)
    if np.min(law.phi_prime(probes)) <= 0.0:
        raise HypothesisViolationError(
            f"{law.label}: Phi'(k) <= 0 on the working range; the flow is not "
            "parabolic and cannot be integrated")
    roundness = hyp.all_ok

    snapshots = []
    disagreement = [] if config.formulation == "both" else None
    flux = [0.0, 0.0]  # integrated by the trapezoid rule over the accepted steps

    def flux_rates(y, rho):
        # oint Phi dtheta and oint G dtheta of the curvature row, k = 1/rho in
        # a support-only run
        k = y[0] if ncurv else 1.0 / rho[0]
        g = law.g(k)
        return float(g @ k) * grid.dtheta, float(g.sum()) * grid.dtheta

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
                                  summary=summary, flux=tuple(flux)))
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
    rho = geometry.second_derivative(h, grid) + h if len(h) else None
    take_snapshot(0.0, y, rho)
    area0 = snapshots[0].summary.area
    area_floor = config.area_floor * area0
    traj = Trajectory(snapshots=snapshots, stop_reason=STOP_STEP_LIMIT,
                      config=config, hypothesis_report=hyp,
                      roundness_expected=roundness,
                      form_disagreement=disagreement)

    snapshot_stop = False
    clock = _Clock(config.snapshot_every)
    t_prev, rates = 0.0, flux_rates(y, rho)
    for t, y, rho, on_cadence in _march(y, ncurv, rho, grid, law, clock):
        new_rates = flux_rates(y, rho)
        flux = [f + 0.5 * (t - t_prev) * (a + b) for f, a, b in zip(flux, rates, new_rates)]
        t_prev, rates = t, new_rates
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
        stop = _stop_reason(below, k_now, config, clock)
        if stop is None and on_cadence:
            stop = snapshot_failure(t, y, rho)
            snapshot_stop = stop is not None
        if stop is not None:
            traj.stop_reason = stop
            break
    else:
        traj.stop_reason = STOP_CONVEXITY_LOSS  # halving pushed dt below its floor

    traj.step_count = clock.steps
    traj.rejected_count = clock.rejected
    traj.dt_min = clock.dt_min if clock.steps else 0.0
    traj.dt_max = clock.dt_max
    if snapshots[-1].t < clock.t and not snapshot_stop:
        snapshot_failure(clock.t, y, rho)  # on failure the last good snapshot stays last

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
    plus a 1e-11 relative floor for floating-point accumulation in t.  The
    step is the run's full ETDRK4 step, dt S = _step_scale, the longest any
    of its steps took; on the mean mode, where sigma = 0, ETDRK4 is
    classical RK4, so lambda dt = dt S (1 + 2 Phi / (k Phi')) as for an RK4
    step of that size.
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
    lam_dt = (_step_scale(last.curvature.grid)
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
    common origin) are preconditions, and so is a curvature cap above both
    initial k_max.  The run ends when either curve reaches the configured
    area floor or curvature cap (the inner one blows up first for nested
    initial data); the containment contract is
    min(h_outer - h_inner) >= -1e-8 * L_outer(0).
    """
    if outer.grid.n != inner.grid.n:
        raise ValueError("outer and inner profiles must share a grid")
    grid = outer.grid
    outer = _steiner_centered(outer)
    inner = _steiner_centered(inner)
    rhos = (geometry.curvature_radius(outer), geometry.curvature_radius(inner))
    k_max0 = 1.0 / min(r.min() for r in rhos)
    if not config.curvature_cap > k_max0:
        raise ValueError(f"k_cap {config.curvature_cap} must exceed the larger "
                         f"initial k_max {k_max0}")
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
    clock = _Clock(config.snapshot_every)
    for t, y, rho, on_cadence in _march(y, 0, rho, grid, config.law, clock):
        below = any(_area_of_support_arrays(h, grid, r) <= config.area_floor * a0
                    for h, r, a0 in zip(y, rho, areas0))
        stop_reason = _stop_reason(below, float(1.0 / rho.min()), config, clock)
        # the final state is recorded whatever stopped the run
        if on_cadence or stop_reason is not None:
            times.append(t)
            gaps.append(float(np.min(y[0] - y[1])))
        if stop_reason is not None:
            break
    else:
        stop_reason = STOP_CONVEXITY_LOSS

    ok = [g >= -tol for g in gaps]
    return ContainmentReport(times=times, min_gap=gaps, ok=ok,
                             tol_contain=tol, stop_reason=stop_reason)
