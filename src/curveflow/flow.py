"""Time integration of the flow toward blow-up, in curvature and support form.

Curvature form (angle parametrization):  dk/dt = k^2 (Phi(k)_thth + Phi(k))
Support form:                            dh/dt = -Phi((h'' + h)^-1)
with Phi(k) = G(k) * k.

Runs are stepped in the normalized frame of Berger & Kohn (Comm. Pure Appl.
Math. 41, 1988): with lambda = L / (2 pi) of the first row, the stepper
advances kappa = lambda k, eta = h / lambda, log lambda and t in tau,
dtau = dt G(1/lambda) / lambda^2.  With Phi_l(kappa) = Phi(kappa / lambda)
/ Phi(1 / lambda) and m its mean over the first row's curvature,
    kappa_tau = kappa^2 (Phi_l(kappa)_thth + Phi_l(kappa)) - m kappa
    eta_tau = -Phi_l((eta'' + eta)^-1) + m eta
    (log lambda)_tau = -m,   t_tau = lambda^2 / G(1 / lambda),
so a circle, kappa = 1, is an exact fixed point for every G.  log lambda
takes the rows' stages; t is a Gauss-Legendre quadrature over each step.

One stepper core (``_march``) advances a (B, n) stack of rows, at most one
curvature row first, with shared ETDRK4 steps (Cox & Matthews 2002, as in
Kassam & Trefethen 2005): L = -(S / 2) sigma(m), S the largest
kappa^2 Phi_l' over the rows and sigma the symbol of -d^2/dtheta^2, is
integrated exactly in Fourier space, and N = rhs - L y is built on the
stages of ``_rhs``, each a ``_Stage`` that carries the rows' rates with
their spectrum.  ``_etd`` only steps, from its four stages and the
result's; ``_elapsed`` integrates t and the flux integrals over the step
from the same stages.  A constant-coefficient stabilizer of a variable
diffusion rate a needs only half its largest value (Douglas & Dupont 1971;
Smereka 2003).  N keeps the rate a - S / 2 in sigma, at most S / 2 in size
where L = -S sigma would leave up to S, and that stiffness in N sets the
steps the error estimate accepts.  Where a row's rate is S, N holds as much
as L and its high modes are only just damped; where the rate grows past S
within a step, they grow until the error estimate halves the step.  dtau S
equals dt max k^2 Phi'(k), so a full step is dtau S = ETD_STEP in either
variable on every grid, and the snapshot cadence counts CFL units,
dtau S / (0.4 dtheta^2 / 2).  Every step carries an embedded error estimate
that rejects, halves and re-grows it; steps double without a cap while the
estimate allows, and the cadence, the area floor and the curvature cap
clip them, the last two to land just past the mark.  Every transform goes
through geometry.rfft / irfft, numpy's FFT kernels without numpy's Python
wrapper: a curvature-form step makes 17.  ``run`` and ``containment_run``
hand their rows to ``_drive``, which builds, clocks and stops the march by
one stop test, gated by Blaschke's A >= pi / k_max^2.  ``step`` takes one
physical ETDRK4 step, of the same stages at lambda = 1 and m = 0, at a dt
of the caller's choosing, ``stable_dt`` gives one CFL unit, and the
``rhs_*`` functions give the physical right-hand sides.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import List, NamedTuple, Optional, Union

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
from .speed_law import check_hypotheses, gauss_legendre

STOP_AREA_FLOOR = "area-floor"
STOP_CURVATURE_CAP = "curvature-cap"
STOP_STEP_LIMIT = "step-limit"
STOP_CONVEXITY_LOSS = "convexity-loss"
STOP_DEGENERATE = "degenerate"
STOP_ANALYTIC = "analytic"  # used by exact reference trajectories only
# the stop reasons that end a run as a runtime failure (exit 3)
FAILED_STOPS = (STOP_CONVEXITY_LOSS, STOP_DEGENERATE)

FORMULATIONS = ("curvature", "support", "both")

ASYMPTOTIC_GROWTH = 10.0  # k_max / k_max(0) where the blow-up laws are judged

# A full ETDRK4 step takes dtau = ETD_STEP / S with S the largest
# kappa^2 Phi_l'(kappa), on every grid.
ETD_STEP = 0.0015
# A step whose error estimate is below ETD_GROW is followed by one twice as
# long, with no cap.  Growth stops where the estimate reaches it, so the
# unclipped steps of the non-round n = 256 ellipse at p = 1 carry local
# errors of 1.5e-10 to 3.4e-9 (5th to 95th percentile).  Growing up to the
# 3e-8 at which shortened steps re-double lets the two forms of the n = 512
# ellipse drift 2.2e-5 apart, past criterion 10's 1e-5, while 1e-10 keeps
# them 1.4e-7 apart.
ETD_GROW = 1e-10
# Largest accepted local error estimate of a step, relative to each row's
# largest value.  On the p = 4 2:1 ellipse at n = 128, the stiffest law and
# curve the tests run, 1e-5, 1e-6 and 1e-7 miss its time-converged omega by
# 3.5e-4, 2.8e-5 and 5.9e-7 in 3,340, 6,612 and 14,911 steps, and at n = 256
# its evolution identities hold to 0.52%, 0.020% and 0.00063% against their
# 1% bound.
ETD_TOLERANCE = 1e-6
_ETD_CONTOUR_POINTS = 32
# The upper half of that circle around 0, for the radii 1 and 2 (rows),
# with e^w and e^(w/2): for real z the lower half holds the complex
# conjugates, so a mean over the circle is the real part of the mean over
# these points.
_CONTOUR = np.outer((1.0, 2.0), np.exp(1j * np.pi * (
    np.arange(_ETD_CONTOUR_POINTS // 2) + 0.5) / (_ETD_CONTOUR_POINTS // 2)))
_CONTOUR_EXP = (np.exp(_CONTOUR), np.exp(0.5 * _CONTOUR))
# A step lands its first floor row's predicted area this far below the floor,
# and its predicted k_max this far past the curvature cap.
_FLOOR_LANDING = 1.0 - 1e-6
_CAP_LANDING = 1.0 + 1e-7
# A step's t quadrature has converged when its 8-point and two-panel
# 8-point sums agree to this relative tolerance.
_T_QUADRATURE_RTOL = 1e-12


def _t_quadrature():
    """(hermite, rules, lagrange) of the integrals over one step.

    ``hermite`` holds, at the 8 Gauss-Legendre nodes of [0, 1] and then at
    the 16 of its two halves, the cubic Hermite basis of log lambda past its
    start: its columns multiply dtau (log lambda)' at the start, the step's
    change of log lambda and dtau (log lambda)' at the end.  The rows of
    ``rules`` weigh the 24 nodes by the one-panel rule and by the two-panel
    rule, and those of ``lagrange`` by the two-panel rule times each of the
    quadratic Lagrange basis polynomials through 0, 1/2 and 1 (rows, so
    that each use is a matrix-vector product: a matrix product would load
    BLAS's gemm code, a quarter of a megabyte resident).
    """
    nodes, weights = gauss_legendre(8)
    s = np.concatenate((nodes, 0.5 * nodes, 0.5 + 0.5 * nodes))
    hermite = np.column_stack((s * (1.0 - s) ** 2, s * s * (3.0 - 2.0 * s), s * s * (s - 1.0)))
    zeros = np.zeros_like(weights)
    one_panel = np.concatenate((weights, zeros, zeros))
    two_panel = np.concatenate((zeros, 0.5 * weights, 0.5 * weights))
    rules = np.array([one_panel, two_panel])
    lagrange = np.array([two_panel * (2.0 * s - 1.0) * (s - 1.0), two_panel * 4.0 * s * (1.0 - s),
                         two_panel * s * (2.0 * s - 1.0)])
    for table in (hermite, rules, lagrange):
        table.setflags(write=False)
    return hermite, rules, lagrange


_T_HERMITE, _T_RULES, _T_LAGRANGE = _t_quadrature()


@dataclasses.dataclass(frozen=True)
class FlowConfig:
    """Run parameters; the grid comes from the initial profile.

    ``area_floor`` is the fraction of the initial area at which the run
    stops; ``k_cap`` is a finite absolute curvature cap (default 1e6 times
    the initial maximum), checked against the initial k_max when the config
    is built.  The step that reaches either is clipped to land just past
    it: a run stops within a relative 1e-6 of its cap wherever the log-rate
    of k_max holds steady over that step, as on a circle.
    ``snapshot_every`` counts CFL units: a step of dt counts
    dt S / (0.4 dtheta^2 / 2), S = max k^2 Phi'(k) (in the frame the run
    steps in, dtau times its own S, the same number), so one unit is one
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
        if self.snapshot_every > sys.float_info.max:  # the CFL clock is a float
            raise ValueError(f"snapshot_every must not exceed {sys.float_info.max!r}")
        kp0 = (self.initial if isinstance(self.initial, CurvatureProfile)
               else geometry.k_from_support(self.initial))
        k_max0 = float(np.max(kp0.k))
        k_cap = self.k_cap if self.k_cap is not None else 1e6 * k_max0
        if not math.isfinite(k_cap):  # the law is probed up to the cap
            raise ValueError(f"k_cap must be finite, got {k_cap}")
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
    """Ordered snapshots of one run plus its metadata.

    ``dt_min`` and ``dt_max`` bound the accepted steps' lengths in the
    physical time, and ``dt_s_max`` is the longest step's dtau S, equal to
    its dt max k^2 Phi'(k) and ETD_STEP for a full step; it is 0.0 where no
    step was taken (an exact trajectory of oracle.circle_trajectory).
    """

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
    dt_s_max: float = 0.0
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

class _Stage(NamedTuple):
    """A _rhs result: the rows' rates ``dy`` and their ``spectrum``, rfft(dy);
    ``m``, the mean of Phi_l over the first row (0 for the physical
    equations); ``unit``, G(1/lambda); and ``blocks``, the (G, k, kappa) of
    the curvature rows and of the support rows, k the physical curvature."""

    dy: np.ndarray
    spectrum: np.ndarray
    m: float
    unit: float
    blocks: list


def _rhs(y, ncurv, grid, law, ell=None):
    """The _Stage of all rows of the (B, n) stack ``y``.

    The first ``ncurv`` rows (0 or 1) hold curvature, the rest support
    functions.  With ``ell`` = log lambda they are the frame's kappa and eta,
    and the right-hand sides are their tau rates (see the module docstring);
    with ``ell`` None they are the physical k and h, and the right-hand sides
    their t rates: the same equations with lambda = 1, G(1/lambda) taken as
    1 and m = 0.  The arrays the rows differentiate, Phi_l(kappa) and eta,
    go through one stacked second_derivative call, and each form makes one
    law.g call; the frame makes one more, at 1/lambda.  Raises StepRejected
    when a stage leaves the domain of any row, or when G(1/lambda) is not a
    positive finite number.
    """
    kappa, h = y[:ncurv], y[ncurv:]
    frame = ell is not None
    inv, unit = 1.0, 1.0
    if frame:
        inv = math.exp(-ell)
        unit = float(law.g(inv))
        if not 0.0 < unit < math.inf:
            raise StepRejected(f"G(1/lambda) = {unit!r} in a stage")
    blocks = []
    if ncurv:
        # positivity guard is NaN-safe; law.g needs no further validation here
        if not kappa.min() > 0.0:
            raise StepRejected("curvature lost positivity in a stage")
        k = kappa * inv
        g = law.g(k)
        blocks.append((g, k, kappa))
        phi = g * kappa
        phi *= 1.0 / unit
        d2 = geometry.second_derivative(np.concatenate((phi, h)) if len(h) else phi, grid)
        first = phi
    else:
        d2 = geometry.second_derivative(h, grid)
    if len(h):
        rho = d2[ncurv:]
        rho += h
        if not rho.min() > 0.0:
            raise StepRejected("support profile lost convexity in a stage")
        kappa_h = 1.0 / rho
        k_h = kappa_h * inv
        g_h = law.g(k_h)  # one call serves all rows
        blocks.append((g_h, k_h, kappa_h))
        phi_h = g_h * kappa_h
        phi_h *= 1.0 / unit
        if not ncurv:
            first = phi_h
    m = float(np.add.reduce(first[0])) / grid.n if frame else 0.0
    rows = []
    if ncurv:  # kappa (kappa (Phi_l'' + Phi_l) - m)
        dk = d2[:ncurv]
        dk += phi
        dk *= kappa
        dk -= m
        dk *= kappa
        rows.append(dk)
    if len(h):  # m eta - Phi_l
        dh = m * h
        dh -= phi_h
        rows.append(dh)
    dy = rows[0] if len(rows) == 1 else np.concatenate(rows)
    return _Stage(dy, geometry.rfft(dy), m, unit, blocks)


def _cfl_base(grid):
    """dt * S of one CFL unit: the RK4 stability bound 0.4 dtheta^2 / 2."""
    return 0.4 * grid.dtheta ** 2 / 2.0


def _stiffness(stage, lam, law, scale):
    """S = max kappa^2 Phi_l'(kappa) over the rows of the _Stage ``stage``.

    That is max kappa^2 Phi'(k) / G(1/lambda) with k = kappa / lambda, from
    the G the right-hand side formed; with lam = 1 and the physical
    equations' unit 1 it is the physical max k^2 Phi'(k).  Raises
    SpeedLawDomainError unless ``scale`` over the physical rate
    max k^2 Phi'(k) = S G(1/lambda) / lambda^2, and over S, is a finite
    positive step: the physical time must stay representable.
    """
    rate = 0.0
    for g, k, kappa in stage.blocks:
        # Phi' = G' k + G as law.phi_prime forms it, without its k > 0
        # check: _rhs has already refused k <= 0
        rate = max(rate, float((kappa * kappa * (law.g_prime(k) * k + g)).max()))
    stiffness, physical = rate / stage.unit, rate / (lam * lam)
    if not (physical > 0.0 and 0.0 < scale / physical < math.inf
            and stiffness > 0.0 and scale / stiffness < math.inf):
        k_max = max(float(k.max()) for _, k, _ in stage.blocks)
        raise SpeedLawDomainError(f"{law.label}: no finite step at k_max = {k_max:.3e}",
                                  abscissa=k_max)
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

    With z = dt L = -(scale / 2) sigma per bin: e^z, e^(z/2),
    Q = (e^(z/2) - 1)/z and Cox & Matthews' f1, f2, f3 divided by dt, plus
    (scale / 2) sigma (dt times the linear part moved into N).
    They depend on (n, scale) only; a run reuses the full step's and
    builds one per step length and per step clipped to the snapshot cadence
    or the area floor.
    """
    linear = 0.5 * scale * geometry.second_derivative_symbol(n)
    z = -linear
    q, phi1, phi2, phi3 = _phi_functions(z)
    # a decay factor below 1e-20 moves no row by a rounding unit: it is
    # flushed to 0, so that the long steps of a round curve do not fill
    # the spectra with subnormal numbers, on which arithmetic is slow
    e, e_half = (np.where(f < 1e-20, 0.0, f) for f in (np.exp(z), np.exp(0.5 * z)))
    tables = (e, e_half, q,
              phi1 - 3.0 * phi2 + 4.0 * phi3, phi2 - 2.0 * phi3, 4.0 * phi3 - phi2,
              linear)
    # stored complex: numpy casts a real factor of a complex array to complex
    # on every product, and the cast table gives the same bits
    tables = tuple(table.astype(complex) for table in tables)
    for table in tables:
        table.setflags(write=False)
    return tables


def _etd(y_hat, start, ncurv, dt, coefficients, grid, law, ell=None):
    """One ETDRK4 step of every row, with its local error estimate.

    ``y_hat`` is rfft(y), ``start`` the _Stage of y, ``coefficients`` the
    step's _etd_coefficients, and ``ell`` log lambda in the frame (None for
    a physical step of length dt).  The linear part L = -(S / 2) sigma is
    integrated exactly; N = rhs - L y is built on _rhs, so a stage that
    leaves the domain of a row raises StepRejected there.  The result is
    judged the same way, once: its stage ``end``, the next step's first,
    refuses k <= 0 or h'' + h <= 0 in any row.  log lambda takes the same
    formulas at sigma = 0, classical RK4, from each stage's m.  Returns
    (y, y_hat, end, error, ell, stages) of the result, ``stages`` the
    step's four, start, a, b and c, from which _elapsed integrates.
    ``error`` is the largest over the rows of |f3 (N(y_new) - N(c))|
    relative to the row's largest |y_new|, where c is the last stage, at the
    same time as y_new: swapping N(c) for N(y_new) in the last weight gives
    a third-order step (the embedded pair of classical RK4 with its
    first-same-as-last stage), so ``error`` is O(dt^4) where N is smooth and
    grows with the stiff part that L leaves in N; in the frame log lambda's
    own such estimate, which is also its relative error in lambda, counts as
    one more row.  N(y_new) is the next step's first stage, so the estimate
    costs no extra right-hand side on an accepted step.  Each stage's dt N is
    dt times its ``spectrum`` plus (scale / 2) sigma v, v the spectrum of
    its rows; the sums are formed in place, in the order of the ETDRK4
    formulas.
    """
    e, e_half, q, f1, f2, f3, linear = coefficients
    n = grid.n
    irfft = geometry.irfft
    frame = ell is not None
    half = 0.5 * dt
    nv = start.spectrum * dt
    nv += linear * y_hat
    e_half_v = e_half * y_hat
    a_hat = q * nv
    a_hat += e_half_v
    a = _rhs(irfft(a_hat, n), ncurv, grid, law, ell - half * start.m if frame else None)
    na = a.spectrum * dt
    na += linear * a_hat
    b_hat = q * na
    b_hat += e_half_v
    b = _rhs(irfft(b_hat, n), ncurv, grid, law, ell - half * a.m if frame else None)
    nb = b.spectrum * dt
    nb += linear * b_hat
    c_hat = 2.0 * nb
    c_hat -= nv
    c_hat *= q
    c_hat += e_half * a_hat
    c = _rhs(irfft(c_hat, n), ncurv, grid, law, ell - dt * b.m if frame else None)
    nc = c.spectrum * dt
    nc += linear * c_hat
    new_hat = e * y_hat
    new_hat += f1 * nv
    stage_sum = na + nb
    stage_sum *= 2.0
    stage_sum *= f2
    new_hat += stage_sum
    new_hat += f3 * nc
    new = irfft(new_hat, n)
    if frame:
        ell -= dt / 6.0 * (start.m + 2.0 * (a.m + b.m) + c.m)
    end = _rhs(new, ncurv, grid, law, ell)
    estimate = end.spectrum * dt
    estimate += linear * new_hat
    estimate -= nc
    estimate *= f3
    estimate = irfft(estimate, n)
    error = float((np.abs(estimate).max(axis=1) / np.abs(new).max(axis=1)).max())
    if frame:
        error = max(error, abs(dt * (c.m - end.m)) / 6.0)
    return new, new_hat, end, error, ell, (start, a, b, c)


def _elapsed(ell, ell_new, stages, end, dtau, law, grid):
    """(dt, flux) over a step of _etd in the frame: the run time, the
    integral of t_tau = lambda^2 / G(1/lambda), and the flux integrals of
    oint Phi dtheta and oint G dtheta.

    log lambda over the step is the cubic Hermite of its values ``ell`` and
    ``ell_new`` and its rates -m at the first of ``stages`` and at ``end``,
    exact where it is linear, as on a circle.  The integrals are summed by
    8-point Gauss-Legendre on two halves of the step, in one law.g call with
    the one-panel rule's nodes; raises StepRejected unless the two rules
    agree on dt to _T_QUADRATURE_RTOL.  The fluxes' rates are lambda and
    lambda^2 times shape factors of the first row, 2 pi m and the sum of the
    G a stage formed over G(1/lambda) (2 pi each on a circle, and for a
    power law set by the shape alone), taken quadratic through their values
    at the step's start, middle and end as the RK4 weights take them from
    the four stages: where lambda stays put that is the RK4 weights' rule,
    and on a circle, where the factors are constant, it is exact however
    long the step.
    """
    start, a, b, c = stages
    lam = np.exp(_T_HERMITE @ np.array((-dtau * start.m, ell_new - ell, -dtau * end.m)))
    lam *= math.exp(ell)
    square = lam * lam
    coarse, fine = (_T_RULES @ (square / law.g(1.0 / lam))).tolist()
    if not abs(coarse - fine) <= _T_QUADRATURE_RTOL * fine:
        raise StepRejected("the t quadrature has not converged")
    g = [grid.dtheta * float(np.add.reduce(s.blocks[0][0][0])) / s.unit for s in stages]
    shapes = ((2.0 * math.pi * start.m, math.pi * (a.m + b.m), 2.0 * math.pi * c.m),
              (g[0], 0.5 * (g[1] + g[2]), g[3]))
    flux = []
    for rate, (first, middle, last) in zip((lam, square), shapes):
        u_first, u_middle, u_last = (_T_LAGRANGE @ rate).tolist()
        flux.append(dtau * (u_first * first + u_middle * middle + u_last * last))
    return dtau * fine, tuple(flux)


class _State:
    """An accepted state of a march, in the frame: ``y`` holds kappa and eta,
    ``kappa`` the curvature of each row of the _Stage ``stage`` of y, ``lam``
    is lambda and ``t`` the physical time; ``flux`` holds the flux integrals
    of the first row up to t.  For each of the first ``n_floors`` rows, those
    with stop marks, ``k_max`` lists the physical largest curvature,
    ``k_rate`` the rate in tau at which log k_max can grow and ``loss`` the
    rate oint G dtheta t_tau at which the area falls; ``area(i)`` is the
    physical area of row i, computed once per state and only when asked for.

    Where k is largest, Phi(k)_thth <= 0, so k_max grows at most at the
    rate k_max^2 Phi(k_max) in t, as on a circle; in tau, log k_max grows
    at most at kappa_max^2 G(k_max) / G(1/lambda), which is 1 on a circle."""

    __slots__ = ("t", "lam", "y", "kappa", "flux", "on_cadence", "k_max", "k_rate", "loss",
                 "_grid", "_areas")

    def __init__(self, t, lam, y, stage, flux, on_cadence, grid, n_floors):
        unit = stage.unit
        self.t, self.lam, self.y, self.flux = t, lam, y, flux
        self.kappa = [row for _, _, kappa in stage.blocks for row in kappa]
        self.on_cadence, self._grid = on_cadence, grid
        g_rows = [row for g, _, _ in stage.blocks for row in g]
        self.k_max, self.k_rate, self.loss = [], [], []
        for kappa, g in zip(self.kappa[:n_floors], g_rows):
            peak = int(kappa.argmax())
            self.k_max.append(float(kappa[peak]) / lam)
            self.k_rate.append(float(kappa[peak]) ** 2 * float(g[peak]) / unit)
            self.loss.append(grid.dtheta * float(np.add.reduce(g)) * lam ** 2 / unit)
        self._areas = {}

    def area(self, i):
        if i not in self._areas:
            self._areas[i] = self.lam * self.lam * geometry.area_from_curvature(self.kappa[i],
                                                                              self._grid)
        return self._areas[i]

    def curvature(self, i):
        """The physical curvature of row i, a new array."""
        return self.kappa[i] / self.lam

    def support(self, i):
        """The physical support function of support row i, a new array."""
        return self.y[i] * self.lam


def _floor_step(state, floors, cap, horizon):
    """The tau step after which the first row to cross a stop mark is
    predicted to land just past it, at _FLOOR_LANDING times its area floor
    or at _CAP_LANDING times the curvature cap ``cap``, or inf where no row
    can reach either within the tau step ``horizon``.

    A row's k_max is predicted as k_max exp(dtau k_rate), exact on a
    circle, and a row whose prediction stays below the cap over
    ``horizon`` costs one comparison.  Its area A is predicted as
    A exp(-dtau loss / A).  Blaschke's bound A >= pi / k_max^2 bounds that
    from below without A, and only a row whose bound may fall to twice its
    floor within ``horizon`` pays for its area.
    """
    best = math.inf
    for i, floor in enumerate(floors):
        k_max, loss = state.k_max[i], state.loss[i]
        to_cap = math.log(cap / k_max)
        if horizon * state.k_rate[i] >= to_cap:
            best = min(best, (to_cap + math.log(_CAP_LANDING)) / state.k_rate[i])
        bound = math.pi / (k_max * k_max)
        if bound * math.exp(-horizon * loss / bound) > 2.0 * floor:
            continue
        area = state.area(i)
        best = min(best, math.log(area / (_FLOOR_LANDING * floor)) * area / loss)
    return best


def _march(y, ncurv, k, grid, law, clock, floors, cap=math.inf):
    """Advance the rows of one flow with shared ETDRK4 steps in the frame,
    yielding each accepted state (_State).

    ``y`` holds the physical rows and ``k`` their curvatures; lambda starts
    as L / (2 pi) of the first row.  A full step has dtau * S = ETD_STEP,
    S the stiffness over all rows.  A step is rejected, and retried at
    half the length, when it raises StepRejected, which it
    does for three reasons: a stage, the result's own included, leaves a
    row's domain (_rhs), the step's error estimate exceeds ETD_TOLERANCE, or
    its t quadrature has not converged (_elapsed).  After a shortened step
    whose estimate is below ETD_TOLERANCE / 32 the next step is twice as
    long again, up to the full step, and a step of full length or longer
    whose estimate is below ETD_GROW is followed by one twice as long, with
    no cap.  ``clock`` keeps the run time, the CFL clock and the step
    counters.  Each attempt is planned once: it is clipped to land on the
    clock's next cadence mark if it would pass it, and just past a stop
    mark of the first rows, an area floor (``floors``, one per row) or the
    curvature cap ``cap`` (inf for none), if it would take a row past it
    (_floor_step); a row that test skips for a halved attempt cannot reach
    either mark within it.  A clipped step leaves the length of the next
    one as it was.  Returns, ending the iteration, once halving
    pushes dtau below 1e-14 of the elapsed tau (or of the first dtau), or
    when the initial state is outside the domain; _drive reports either as
    convexity loss.
    """
    cfl_base = _cfl_base(grid)
    lam = float(np.mean(1.0 / k[0]))  # L / (2 pi) of the first row
    ell = math.log(lam)
    y = np.concatenate((y[:ncurv] * lam, y[ncurv:] * (1.0 / lam)))
    y_hat = geometry.rfft(y)
    try:
        start = _rhs(y, ncurv, grid, law, ell)
    except StepRejected:
        return
    state = _State(0.0, lam, y, start, (0.0, 0.0), True, grid, len(floors))
    tau, first = 0.0, None
    level = 0  # the step is ETD_STEP / 2^level
    while True:
        stiffness = _stiffness(start, lam, law, ETD_STEP)
        while True:
            units, on_cadence = clock.plan(ETD_STEP / 2 ** level / cfl_base)
            landing = _floor_step(state, floors, cap,
                                  units * cfl_base / stiffness) * stiffness / cfl_base
            clipped = on_cadence or landing < units
            if landing < units:
                units, on_cadence = landing, False
            scale = units * cfl_base
            dtau = scale / stiffness
            if first is None:
                first = dtau
            try:
                new, new_hat, end, error, ell_new, stages = _etd(
                    y_hat, start, ncurv, dtau, _etd_coefficients(grid.n, scale), grid, law, ell)
                if not error <= ETD_TOLERANCE:
                    raise StepRejected("the error estimate exceeds ETD_TOLERANCE")
                dt, flux = _elapsed(ell, ell_new, stages, end, dtau, law, grid)
                break
            except StepRejected:
                clock.rejected += 1
                level += 1
                if 0.5 * dtau < 1e-14 * max(tau, first):
                    return
        y, y_hat, start, ell = new, new_hat, end, ell_new
        lam = math.exp(ell)
        if not clipped and error < (ETD_TOLERANCE / 32.0 if level > 0 else ETD_GROW):
            level -= 1
        tau += dtau
        clock.advance(dt, units, on_cadence)
        state = _State(clock.t, lam, y, start, (state.flux[0] + flux[0], state.flux[1] + flux[1]),
                       on_cadence, grid, len(floors))
        yield state


def _stack(profile):
    """(y, ncurv): one profile as a one-row stack and its count of curvature
    rows; a support profile raises ConvexityLossError unless h'' + h > 0."""
    if isinstance(profile, CurvatureProfile):
        return profile.k[None], 1
    if isinstance(profile, SupportProfile):
        geometry.curvature_radius(profile)  # the convexity check
        return profile.h[None], 0
    raise TypeError(f"cannot step a {type(profile)}")


def rhs_curvature(kp, law):
    """dk/dt = k^2 (Phi'' + Phi) on the grid; raises StepRejected unless k > 0."""
    return _rhs(kp.k[None], 1, kp.grid, law).dy[0]


def rhs_support(sp, law):
    """dh/dt = -Phi(k), k = (h'' + h)^-1; raises StepRejected unless h'' + h > 0."""
    return _rhs(sp.h[None], 0, sp.grid, law).dy[0]


def stable_dt(profile, law):
    """The length of one CFL unit, 0.4 dtheta^2 / (2 max(k^2 Phi'(k))).

    That is the classical RK4 stability bound of the profile, and the unit
    in which ``snapshot_every`` counts.
    """
    y, ncurv = _stack(profile)
    cfl_base = _cfl_base(profile.grid)
    return cfl_base / _stiffness(_rhs(y, ncurv, profile.grid, law), 1.0, law, cfl_base)


def step(state, law, dt):
    """One ETDRK4 step of size ``dt``; raises StepRejected instead of mutating anything.

    This is a physical step, the run's right-hand side with lambda frozen
    at 1 and m = 0, with S = max k^2 Phi'(k) of ``state`` and the tables of
    dt S, but without error control: the caller picks dt.  A step is
    rejected when any stage, or the result, produces k <= 0 (curvature
    form) or h'' + h <= 0 (support form); a non-convex support ``state``
    raises ConvexityLossError, and a dt that is not positive and finite
    ValueError.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    y, ncurv = _stack(state)
    start = _rhs(y, ncurv, state.grid, law)
    scale = dt * _stiffness(start, 1.0, law, dt)
    new = _etd(geometry.rfft(y), start, ncurv, dt, _etd_coefficients(state.grid.n, scale),
               state.grid, law)[0]
    return type(state)(state.grid, new[0], state.t + dt)


# ---------------------------------------------------------------------------
# running to the area floor
# ---------------------------------------------------------------------------

def _support_form(profile):
    """``profile`` in support form: a curvature profile is solved for its h."""
    if isinstance(profile, CurvatureProfile):
        return geometry.support_from_curvature(profile)
    return profile


def _check_law(law, k_lo, k_hi):
    """Probe ``law`` on [k_lo, k_hi] before the first step of ``run`` or
    ``containment_run``; returns the HypothesisReport of ``check_hypotheses``
    on its ``speed_law.PROBES`` probes.

    Both go through here once, so they refuse a law by one rule:
    ``check_hypotheses`` raises SpeedLawDomainError where G is not finite or
    G or Phi' underflows.  A report whose smallest Phi' is <= 0 then raises
    HypothesisViolationError, since the flow is not parabolic there; a NaN
    Phi' (an overflow) is _stiffness's to judge.
    """
    report = check_hypotheses(law, k_lo, k_hi)
    if report.min_phi_prime <= 0.0:
        raise HypothesisViolationError(
            f"{law.label}: Phi'(k) <= 0 on the working range; the flow is not "
            "parabolic and cannot be integrated")
    return report


class _Clock:
    """The run time t (Kahan-compensated), the CFL clock and the step counters of a march.

    _drive makes one per march.  The CFL clock counts CFL units, dtau S /
    cfl_base per step, one RK4 step at the CFL bound 0.4 dtheta^2 / (2 S)
    each.  A step that would pass the next multiple of ``every`` is clipped
    to end on it, where a snapshot falls; ``since`` counts the units after
    the last one.  ``steps`` counts accepted steps, ``dt_min`` and ``dt_max``
    bound their lengths in t, ``units_max`` is the longest in CFL units (its
    dtau S over cfl_base), and ``rejected`` counts rejected step attempts.
    """

    def __init__(self, every):
        self.every = every
        self.t = 0.0
        self._c = 0.0
        self.since = 0.0
        self.steps = 0
        self.rejected = 0
        self.dt_min = math.inf
        self.dt_max = 0.0
        self.units_max = 0.0

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
        self.units_max = max(self.units_max, units)


def _stop_reason(state, floors, config, clock):
    """area-floor, curvature-cap or step-limit after a step, in that tie-break order.

    The area floor and the curvature cap are judged on the first
    len(floors) rows of ``state``, row i against the area floors[i].
    Blaschke's rolling theorem gives A >= pi / k_max^2, so a row's exact
    Fourier area is computed only once that bound fails to clear its floor
    by 2x.
    """
    k_maxes = state.k_max
    for i, (k_max, floor) in enumerate(zip(k_maxes, floors)):
        if math.pi / (k_max * k_max) <= 2.0 * floor and state.area(i) <= floor:
            return STOP_AREA_FLOOR
    if max(k_maxes) >= config.curvature_cap:
        return STOP_CURVATURE_CAP
    if clock.steps >= config.max_steps:
        return STOP_STEP_LIMIT
    return None


def _drive(y, k, config, n_floors, record):
    """Build, clock and run the _march of the physical rows ``y`` (any curvature
    row first), of curvatures ``k``, under ``config`` until a stop test fires.

    Returns (stop_reason, clock), the march's _Clock.  Each of the first
    ``n_floors`` rows has an area floor, ``area_floor`` times its initial
    area, and the curvature cap; the march lands on both.  ``record(state)``
    keeps the state on every cadence mark and at the stop, and returns the
    stop reason its failure sets (None if it keeps it); a failure ends the
    run.  When the march ends, the last accepted
    state is recorded and the reason is convexity-loss.
    """
    grid = config.initial.grid
    floors = [config.area_floor * geometry.area_from_curvature(row, grid) for row in k[:n_floors]]
    clock = _Clock(config.snapshot_every)
    state = None  # the caller records the initial state
    for state in _march(y, int(config.formulation != "support"), k, grid, config.law, clock,
                        floors, config.curvature_cap):
        stop = _stop_reason(state, floors, config, clock)
        if state.on_cadence or stop is not None:
            stop = record(state) or stop
        if stop is not None:
            return stop, clock
    stop = None if state is None or state.on_cadence else record(state)
    return stop or STOP_CONVEXITY_LOSS, clock


def run(config):
    """Advance the flow until a stop criterion fires and return the trajectory.

    Snapshots (with full geometry summaries) are recorded every
    ``snapshot_every`` CFL units and at the final state.  Stop reasons,
    in tie-break order: area-floor, curvature-cap, step-limit, judged on
    the first row (the curvature form when both evolve).  Loss of
    convexity ends the run with reason "convexity-loss", and a snapshot too
    distorted to summarize with "degenerate" (also at the stop), rather
    than raising; the snapshots taken so far are kept either way.
    With formulation="both" the two forms advance with shared time steps and
    their sup-norm curvature disagreement is recorded per snapshot.
    """
    grid = config.initial.grid

    # initial data in the forms this run evolves: the curvature row first
    kp0 = config.initial_curvature
    k_min0 = float(np.min(kp0.k))
    ncurv = int(config.formulation != "support")
    rows = [kp0.k] if ncurv else []
    if config.formulation != "curvature":
        rows.append(_support_form(config.initial).h)

    # validate the law on the curvature range this run can visit
    hyp = _check_law(config.law, k_min0 / 2.0, config.curvature_cap)

    snapshots = []
    disagreement = [] if config.formulation == "both" else None

    def take_snapshot(t, k, h, flux):
        """Summarize the physical state, curvature rows ``k`` and support
        row ``h`` (None when no support row evolves), and append its
        Snapshot, which keeps its own rows: the arrays passed in hold no
        other rows (a view of a step's array would keep that whole array
        alive)."""
        kp = CurvatureProfile(grid, k[0], t)
        sp = SupportProfile(grid, h, t) if h is not None else None
        # a curvature row is summarized with the support solved from it, also
        # when h evolves beside it; Snapshot.support keeps the evolved h
        solved = geometry.support_from_curvature(kp) if ncurv else sp
        # the radii solves start from the previous snapshot's optimal bases
        start = snapshots[-1].summary.radii_bases if snapshots else None
        summary = geometry.summarize(kp, solved, start)
        snapshots.append(Snapshot(t=t, curvature=kp, support=solved if sp is None else sp,
                                  summary=summary, flux=flux))
        if disagreement is not None:
            disagreement.append(float(np.max(np.abs(k[0] - k[1]))))

    def record(state):
        try:
            take_snapshot(state.t, [state.curvature(i) for i in range(len(state.kappa))],
                          state.support(-1) if len(state.y) > ncurv else None, state.flux)
        except (ConvexityLossError, NotClosedError):
            return STOP_CONVEXITY_LOSS
        except DegenerateProfileError:
            return STOP_DEGENERATE
        return None

    y = np.array(rows)
    h = y[ncurv:]  # a support row's curvature is 1 / (h'' + h)
    k = [*y[:ncurv], *(1.0 / (geometry.second_derivative(h, grid) + h) if len(h) else ())]
    take_snapshot(0.0, [row.copy() for row in k], h[-1].copy() if len(h) else None, (0.0, 0.0))
    stop_reason, clock = _drive(y, k, config, 1, record)
    traj = Trajectory(snapshots=snapshots, stop_reason=stop_reason, config=config,
                      hypothesis_report=hyp, roundness_expected=hyp.all_ok,
                      step_count=clock.steps, rejected_count=clock.rejected,
                      dt_min=clock.dt_min if clock.steps else 0.0, dt_max=clock.dt_max,
                      dt_s_max=clock.units_max * _cfl_base(grid),
                      form_disagreement=disagreement)
    if snapshots[-1].summary.k_max >= ASYMPTOTIC_GROWTH * snapshots[0].summary.k_max:
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
    carries numerical error, so the bracket is widened by a 1e-11 relative
    floor for floating-point accumulation in t.  The run steps in the
    normalized frame, where a circle is a fixed point and t comes from a
    quadrature exact for it.  The error of a non-round phase and the
    spatial error are not allowed for (ROADMAP item 7).
    """
    law = traj.config.law
    last = traj.snapshots[-1]
    k_max0 = traj.snapshots[0].summary.k_max
    if last.summary.k_max < ASYMPTOTIC_GROWTH * k_max0:
        raise InsufficientDataError(
            f"asymptotic regime not reached: k_max grew only "
            f"{last.summary.k_max / k_max0:.2f}x (need {ASYMPTOTIC_GROWTH:g}x)")
    t_last = last.t
    lo_raw = t_last + law.tail_mass(last.summary.k_max)
    hi_raw = t_last + law.tail_mass(last.summary.k_min)
    pad = 1e-11 * max(abs(hi_raw), abs(t_last))
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


def containment_run(config, inner):
    """Co-evolve the outer curve ``config.initial`` and ``inner`` and track their gap.

    Either curve may be in either form; both evolve in support form, and
    another ``config.formulation`` than "support" raises ValueError.  Both
    are Steiner-centered first; convexity of both and the pointwise ordering
    h_outer >= h_inner at t = 0 (set containment with a common origin) are
    preconditions, and so is a curvature cap above both initial k_max.  The
    law is probed on [k_min(0) / 2, cap] by ``run``'s gate (``_check_law``)
    before any step, so the pair refuses what ``run`` refuses.  The run ends
    when either curve reaches the area floor or curvature cap (the inner one
    blows up first for nested initial data); the containment contract is
    min(h_outer - h_inner) >= -1e-8 * L_outer(0).  The gap is recorded as
    ``run`` records snapshots (see ``_drive``).
    """
    if config.formulation != "support":
        raise ValueError("containment evolves support profiles; formulation "
                         f"{config.formulation!r} is not 'support'")
    outer, inner = (geometry.steiner_centered(_support_form(p)) for p in (config.initial, inner))
    if outer.grid.n != inner.grid.n:
        raise ValueError("outer and inner profiles must share a grid")
    grid = outer.grid
    rhos = (geometry.curvature_radius(outer), geometry.curvature_radius(inner))
    k_max0 = 1.0 / min(r.min() for r in rhos)
    if not config.curvature_cap > k_max0:
        raise ValueError(f"k_cap {config.curvature_cap} must exceed the larger "
                         f"initial k_max {k_max0}")
    _check_law(config.law, 0.5 / max(r.max() for r in rhos), config.curvature_cap)
    gap0 = outer.h - inner.h
    tol = 1e-8 * geometry.periodic_integral(rhos[0], grid)
    if np.min(gap0) < -tol:
        raise ValueError(
            f"outer profile does not contain inner at t=0 "
            f"(min gap {np.min(gap0):.3e} after Steiner centering)")

    times, gaps = [0.0], [float(np.min(gap0))]

    def record(state):
        times.append(state.t)
        gaps.append(float(np.min(state.y[0] - state.y[1])) * state.lam)

    stop_reason, _ = _drive(np.array([outer.h, inner.h]), [1.0 / rho for rho in rhos], config,
                            2, record)
    ok = [g >= -tol for g in gaps]
    return ContainmentReport(times=times, min_gap=gaps, ok=ok,
                             tol_contain=tol, stop_reason=stop_reason)
