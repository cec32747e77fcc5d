"""Convex-curve representations on a periodic angle grid, and their observables.

A strictly convex closed curve is stored either as its curvature k(theta) or
its support function h(theta) sampled on a uniform grid over [0, 2*pi).  The
parameter theta is the direction of the *outward normal*: h(theta) is the
support in direction u(theta) = (cos theta, sin theta), the boundary point
with that normal has curvature k(theta), and the (counterclockwise) tangent
there is (-sin theta, cos theta).  The two representations are linked by
k = (h'' + h)^-1 on the same grid.

All types are immutable values; every operation is a pure function, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import (
    ConvexityLossError,
    DegenerateProfileError,
    NotClosedError,
)

TWO_PI = 2.0 * math.pi

# Profiles with k_max/k_min beyond this are treated as numerically non-convex.
DEGENERATE_CURVATURE_RATIO = 1e8

# Solvability gate for support recovery: first-harmonic content of 1/k must
# be below this fraction of the length, else the curve does not close.
CLOSURE_GATE = 1e-6


# ---------------------------------------------------------------------------
# grid and periodic calculus
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class AngleGrid:
    """Uniform periodic grid theta_j = 2*pi*j/n, with n a power of two, n >= 32."""

    n: int
    theta: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n)
        if n < 32 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 32, got {n}")
        object.__setattr__(self, "n", n)
        theta = np.arange(n) * (TWO_PI / n)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def dtheta(self):
        return TWO_PI / self.n


def periodic_integral(values, grid):
    """Full-period trapezoid quadrature (exact rectangle rule on a uniform grid)."""
    return float(np.sum(values)) * grid.dtheta


@functools.lru_cache(maxsize=32)
def _fourier_tables(n):
    # rfft bin m holds the e^{i m theta} coefficient, m = 0..n/2
    m = np.arange(n // 2 + 1, dtype=float)
    d2 = -(m * m)
    d1 = 1j * m
    d1[-1] = 0.0  # odd Nyquist derivative vanishes at the nodes
    helmholtz = 1.0 - m * m  # symbol of d^2/dtheta^2 + 1
    helmholtz[1] = 1.0       # kernel mode handled by the callers
    for arr in (m, d2, d1, helmholtz):
        arr.setflags(write=False)
    return m, d2, d1, helmholtz


@functools.cache
def _kernels():
    """numpy's pocketfft gufuncs, imported at the first transform.

    numpy itself imports numpy.fft on first use.  Importing it with this
    package would load it, 0.1-0.3 MB resident, also into processes that
    never transform, such as ``check-law``.
    """
    from numpy.fft import _pocketfft_umath
    return _pocketfft_umath


def rfft(values):
    """The rfft of each row of the float or integer array ``values``, of even length.

    Bit for bit ``numpy.fft.rfft(values)``: the pocketfft kernel that
    function calls, without its Python wrapper, which costs more than the
    transform itself on the grids a run uses.  Every AngleGrid size is
    even, so only the even-length kernel is needed.
    """
    shape = values.shape
    out = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), complex)
    return _kernels().rfft_n_even(values, 1.0, out=out)


def irfft(spectrum, n):
    """The n-point inverse of ``rfft``, row by row.

    Bit for bit ``numpy.fft.irfft(spectrum, n)``: the same kernel, with the
    same 1/n scale.
    """
    return _kernels().irfft(spectrum, 1.0 / n, out=np.empty(spectrum.shape[:-1] + (n,)))


def second_derivative(values, grid):
    """Periodic second derivative in theta, of each row of a stack along the last axis.

    Spectral: one ``rfft``, a multiply by the symbol -m^2 (see
    ``second_derivative_symbol``) and one ``irfft``.  Every stage of a step
    calls it once for all rows of the flow, so it makes two of the step's
    transforms per stage.
    """
    spectrum = rfft(values)
    spectrum *= _fourier_tables(grid.n)[1]
    return irfft(spectrum, grid.n)


def second_derivative_symbol(n):
    """sigma(m) = m^2 on the rfft bins m = 0..n/2.

    ``second_derivative`` maps e^{i m theta} to -sigma(m) e^{i m theta}, and
    h'' + h has the symbol 1 - sigma(m).
    """
    return -_fourier_tables(n)[1]


def first_derivative(values, grid):
    """Periodic first derivative in theta."""
    return irfft(rfft(values) * _fourier_tables(grid.n)[2], grid.n)


def periodic_antiderivative(values, grid):
    """Antiderivative F with F(theta_0) = 0, via the Fourier series.

    The mean of ``values`` contributes a linear-in-theta part, so F is not
    periodic unless the mean vanishes; for closure-respecting integrands the
    linear part carries exactly the closure defect.
    """
    n = grid.n
    fh = rfft(values)
    mean = fh[0].real / n
    m = _fourier_tables(n)[0]
    div = np.zeros_like(fh)
    div[1:-1] = fh[1:-1] / (1j * m[1:-1])
    # Nyquist antiderivative samples to zero on the grid, div[-1] stays 0
    periodic = irfft(div, n)
    return mean * grid.theta + (periodic - periodic[0])


# ---------------------------------------------------------------------------
# curve representations
# ---------------------------------------------------------------------------

def _freeze(arr, n, name):
    out = np.ascontiguousarray(arr, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite values")
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True)
class CurvatureProfile:
    """Curvature samples k(theta_j) > 0 of a strictly convex curve at time t."""

    grid: AngleGrid
    k: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        k = _freeze(self.k, self.grid.n, "k")
        if np.min(k) <= 0.0:
            raise ValueError(f"curvature must stay positive, min is {np.min(k)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t", float(self.t))


@dataclasses.dataclass(frozen=True)
class SupportProfile:
    """Support-function samples h(theta_j) at time t.

    Convexity (h'' + h > 0) is required by the operations that invert the
    profile; it is checked there rather than at construction.
    """

    grid: AngleGrid
    h: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h", _freeze(self.h, self.grid.n, "h"))
        object.__setattr__(self, "t", float(self.t))


@dataclasses.dataclass(frozen=True)
class PlaneCurve:
    """Reconstructed boundary points, one per grid node, winding once ccw."""

    grid: AngleGrid
    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        if pts.shape != (self.grid.n, 2):
            raise ValueError(f"points must have shape ({self.grid.n}, 2)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclasses.dataclass(frozen=True)
class GeometrySummary:
    """Scalar observables of one snapshot.

    A summary from ``summarize`` also carries ``radii_bases``, the optimal
    bases of its radii solves.  That is an attribute, not a field: it is
    not an observable, so it stays out of comparison, ``astuple`` and
    ``asdict``.
    """

    length: float
    area: float
    r_in: float
    r_out: float
    k_min: float
    k_max: float
    closure_residual_norm: float
    iso_ratio: float
    bonnesen_gap: float
    gage_deficit: float
    hausdorff_to_disk: float


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def closure_residual(kp):
    """(oint cos/k dtheta, oint sin/k dtheta); both vanish iff the curve closes."""
    rho = 1.0 / kp.k
    th = kp.grid.theta
    c = periodic_integral(np.cos(th) * rho, kp.grid)
    s = periodic_integral(np.sin(th) * rho, kp.grid)
    return c, s


def length_of(kp):
    """Curve length oint dtheta / k."""
    return periodic_integral(1.0 / kp.k, kp.grid)


def reconstruct(kp):
    """Integrate the unit tangent / k to recover boundary points from theta = 0.

    The tangent at parameter theta is (-sin theta, cos theta), so the points
    follow the Fourier antiderivative of that direction times the curvature
    radius; the first point sits at the origin and the last returns to it up
    to the closure residual.
    """
    rho = 1.0 / kp.k
    th = kp.grid.theta
    x = periodic_antiderivative(-np.sin(th) * rho, kp.grid)
    y = periodic_antiderivative(np.cos(th) * rho, kp.grid)
    return PlaneCurve(kp.grid, np.column_stack([x, y]))


def area_of(curve):
    """Enclosed area via the line integral (1/2) oint (x dy - y dx).

    Derivatives and quadrature are spectral, so the result converges at the
    rate of the underlying profile; requires a closed curve.
    """
    x = curve.points[:, 0]
    y = curve.points[:, 1]
    xp = first_derivative(x, curve.grid)
    yp = first_derivative(y, curve.grid)
    return 0.5 * periodic_integral(x * yp - y * xp, curve.grid)


def area_from_support(sp):
    """Enclosed area (1/2) oint h (h'' + h) dtheta."""
    rho = second_derivative(sp.h, sp.grid) + sp.h
    return 0.5 * periodic_integral(sp.h * rho, sp.grid)


def _radius_spectrum(k):
    """rfft of the curvature radius 1/k, the right-hand side of the support
    solve h'' + h = 1/k, with its cos/sin kernel modes dropped: this pins the
    Steiner point of the solution at the origin."""
    fh = rfft(1.0 / k)
    fh[1] = 0.0
    return fh


def area_from_curvature(k, grid):
    """Area of the closed curve with curvature samples ``k``, in Fourier space:
    with h solved as in ``support_from_curvature`` (whose closure and overflow
    checks it skips), A = (1/2) oint h (h'' + h) dtheta is a sum of
    |rho_hat|^2 over the Helmholtz symbol, the solve being self-adjoint."""
    fh = _radius_spectrum(k)
    power = (fh.real * fh.real + fh.imag * fh.imag) / _fourier_tables(grid.n)[3]
    total = power[0] + 2.0 * float(np.sum(power[1:-1])) + power[-1]
    return float(0.5 * grid.dtheta * total / grid.n)


def support_from_curvature(kp):
    """Solve h'' + h = 1/k in Fourier space.

    The cos/sin kernel modes are set to zero, which pins the Steiner point of
    the result at the origin; any other closed solution differs by a rigid
    translation.  Rejects profiles whose closure residual exceeds
    ``CLOSURE_GATE`` times the length, since projecting away a large first
    harmonic would silently translate a curve that does not exist.  A curve
    whose length or support overflows raises DegenerateProfileError.
    """
    with np.errstate(over="ignore"):  # a length beyond float range is judged below
        c, s = closure_residual(kp)
        length = length_of(kp)
    if not math.isfinite(length):
        raise DegenerateProfileError("the curve length overflowed: curve too large")
    residual = math.hypot(c, s)
    if residual > CLOSURE_GATE * length:
        raise NotClosedError(
            f"closure residual {residual:.3e} exceeds {CLOSURE_GATE:g} * L = "
            f"{CLOSURE_GATE * length:.3e}; profile is not a closed curve",
            residual=residual)
    h = irfft(_radius_spectrum(kp.k) / _fourier_tables(kp.grid.n)[3], kp.grid.n)
    if not np.all(np.isfinite(h)):
        raise DegenerateProfileError("the support solve overflowed: curve too large")
    return SupportProfile(kp.grid, h, kp.t)


def curvature_radius(sp):
    """h'' + h, the curvature radius; raises naming the first non-convex node."""
    return _checked_radius(sp, second_derivative(sp.h, sp.grid) + sp.h)


def _checked_radius(sp, rho):
    if np.min(rho) <= 0.0:
        j = int(np.argmax(rho <= 0.0))
        raise ConvexityLossError(
            f"h'' + h = {rho[j]:.3e} <= 0 at node {j} (theta = {sp.grid.theta[j]:.6f})",
            node=j, theta=float(sp.grid.theta[j]))
    return rho


def k_from_support(sp, scheme="fourier"):
    """Pointwise reciprocal of h'' + h on the grid."""
    # ``scheme`` stays only while perfbench/worker.py passes one (ROADMAP item 1)
    if scheme != "fourier":
        raise ValueError(f"unknown derivative scheme {scheme!r}")
    return CurvatureProfile(sp.grid, 1.0 / curvature_radius(sp), sp.t)


def _degenerate_guard(rho):
    ratio = float(np.max(rho) / np.min(rho))
    if ratio > DEGENERATE_CURVATURE_RATIO:
        raise DegenerateProfileError(
            f"curvature contrast {ratio:.3e} exceeds {DEGENERATE_CURVATURE_RATIO:g}; "
            "profile treated as numerically non-convex")


# ---------------------------------------------------------------------------
# radii, Hausdorff distance, normalization
# ---------------------------------------------------------------------------

def radii(sp):
    """(r_in, r_out): largest inscribed and smallest circumscribed circle radii.

    A disk of center c and radius r sits inside the body iff
    c . u(theta) + r <= h(theta) for all theta, and contains it iff
    h(theta) - c . u(theta) <= r; both centre problems are linear programs
    over the sampled directions.  The outer one is ``_min_max_support`` and
    the inner one is the same problem for -h, with the centre mirrored.  Both
    are solved exactly at a vertex, so the values are translation-equivariant
    to rounding error.
    """
    _degenerate_guard(curvature_radius(sp))
    return _radii(sp)[:2]


def _radii(sp, start=None):
    """(r_in, r_out, bases): the radii, and the optimal bases of the r_out and
    r_in solves, which start from the bases ``start`` when it is given."""
    th = sp.grid.theta
    cos, sin = np.cos(th), np.sin(th)
    out_start, in_start = start or (None, None)
    r_out, _, out_basis = _min_max_support(sp.h, cos, sin, out_start)
    neg_r_in, _, in_basis = _min_max_support(-sp.h, cos, sin, in_start)
    return -neg_r_in, r_out, (out_basis, in_basis)


def _min_max_support(h, cos, sin, start=None):
    """(r, c, basis): min over centres c of max_j (h_j - c . u_j), a minimizing
    c, and the optimal basis.

    This is the linear program  min r  s.t.  c . u_j + r >= h_j  in the three
    unknowns (c_x, c_y, r), solved by the dual simplex.  A basis is three
    constraints whose directions hold the origin in their convex hull, which
    is dual feasibility: multipliers lambda >= 0 with sum lambda_i u_i = 0
    and sum lambda_i = 1.  Its vertex meets the three as equalities.  Each
    pivot enters the most violated constraint e and drops the basis row with
    the smallest lambda_i / alpha_i over alpha_i > 0, where
    sum alpha_i (u_i, 1) = (u_e, 1); that keeps lambda >= 0 and never lowers
    r.  The vertex is optimal once no constraint is violated by more than
    1e-13 max|h|.  The solve starts from the nodes 0, n/3 and 2n/3, or from
    ``start``, the optimal basis of another profile on the same grid: dual
    feasibility depends on the directions u_j only, not on h, so any
    optimal basis is a valid start, and a nearby profile's needs few
    pivots.  Smooth profiles need a handful of pivots; a solve that has not
    converged after n raises DegenerateProfileError.
    """
    n = h.shape[0]
    tol = 1e-13 * float(np.max(np.abs(h)))
    basis = list(start) if start is not None else [0, n // 3, 2 * n // 3]
    for _ in range(n):
        # the inverse of the matrix with rows a_i = (cos_i, sin_i, 1) has the
        # columns (a_{i+1} x a_{i+2}) / det; their third entries are
        # det * lambda_i, which sum to det
        rows = [(float(cos[j]), float(sin[j])) for j in basis]
        cols = []
        for i in range(3):
            (c1, s1), (c2, s2) = rows[(i + 1) % 3], rows[(i + 2) % 3]
            cols.append((s1 - s2, c2 - c1, c1 * s2 - s1 * c2))
        det = cols[0][2] + cols[1][2] + cols[2][2]
        cx, cy, r = (sum(float(h[j]) * col[k] for j, col in zip(basis, cols)) / det
                     for k in range(3))
        violation = h - (cx * cos + cy * sin + r)
        e = int(np.argmax(violation))
        if violation[e] <= tol:
            return r, (cx, cy), tuple(basis)
        ce, se = float(cos[e]), float(sin[e])
        leave, best = None, math.inf
        for i, col in enumerate(cols):
            alpha = (col[0] * ce + col[1] * se + col[2]) / det
            if alpha > 0.0:
                ratio = max(col[2] / det, 0.0) / alpha
                if ratio < best:
                    leave, best = i, ratio
        # the entering constraint's alphas sum to 1, so one is positive
        basis[leave] = e
    raise DegenerateProfileError(
        "radii solver did not converge; profile treated as numerically degenerate")


def steiner_point(sp):
    """(1/pi) oint h(theta) u(theta) dtheta, the translation-natural centre."""
    th = sp.grid.theta
    sx = periodic_integral(sp.h * np.cos(th), sp.grid) / math.pi
    sy = periodic_integral(sp.h * np.sin(th), sp.grid) / math.pi
    return sx, sy


def steiner_centered(sp):
    """``sp`` translated so that its Steiner point is the origin."""
    sx, sy = steiner_point(sp)
    th = sp.grid.theta
    return SupportProfile(sp.grid, sp.h - sx * np.cos(th) - sy * np.sin(th), sp.t)


def hausdorff_to_unit_disk(sp):
    """Hausdorff distance to the unit disk after recentering at the Steiner point.

    For convex bodies the Hausdorff metric equals the sup norm of the support
    difference, and the unit disk centred at the Steiner point has support
    s . u + 1.
    """
    _degenerate_guard(curvature_radius(sp))
    return _hausdorff_to_unit_disk(sp)


def _hausdorff_to_unit_disk(sp):
    return float(np.max(np.abs(steiner_centered(sp).h - 1.0)))


def normalize(sp, area):
    """Rescale by sqrt(pi/area) so the enclosed area becomes pi."""
    if not area > 0.0:
        raise ValueError(f"area must be positive, got {area}")
    return SupportProfile(sp.grid, sp.h * math.sqrt(math.pi / area), sp.t)


# ---------------------------------------------------------------------------
# snapshot summaries
# ---------------------------------------------------------------------------

def summarize(kp, sp, start=None):
    """All scalar observables of one snapshot, from its two forms.

    ``kp`` and ``sp`` are the same curve in curvature and support form; the
    caller derives one from the other.  The curvature observables (length,
    closure, k range, total curvature) read ``kp``.  The Fourier h'' + h of
    ``sp`` is computed once and serves the area, the convexity and contrast
    guard, the radii and the Hausdorff distance.  The two radii solves
    start from ``start``, the ``radii_bases`` of an earlier summary on the
    same grid, or else from the nodes 0, n/3 and 2n/3; the result's
    ``radii_bases`` holds their optimal bases.  A run passes each snapshot
    its predecessor's, which cuts the pivots about eightfold; the radii
    may then differ from a cold start's in the last bits.
    """
    rho = second_derivative(sp.h, sp.grid) + sp.h
    with np.errstate(over="ignore"):  # an overflow is judged degenerate below
        length = length_of(kp)
        area = 0.5 * periodic_integral(sp.h * rho, sp.grid)
    if not (0.0 < length < math.inf and 0.0 < area < math.inf):
        raise DegenerateProfileError(f"length {length} or area {area} not finite and positive")
    c, s = closure_residual(kp)
    _degenerate_guard(_checked_radius(sp, rho))
    r_in, r_out, bases = _radii(sp, start)
    k_min = float(np.min(kp.k))
    k_max = float(np.max(kp.k))
    iso = length * length / area
    bonnesen = iso - 4.0 * math.pi - math.pi ** 2 * (r_out - r_in) ** 2 / area
    total_curvature = periodic_integral(kp.k, kp.grid)  # equals oint k^2 ds
    gage = 1.0 - (math.pi * length / area) / total_curvature
    hdf = _hausdorff_to_unit_disk(normalize(sp, area))
    summary = GeometrySummary(
        length=length, area=area, r_in=r_in, r_out=r_out,
        k_min=k_min, k_max=k_max,
        closure_residual_norm=math.hypot(c, s),
        iso_ratio=iso, bonnesen_gap=bonnesen, gage_deficit=gage,
        hausdorff_to_disk=hdf)
    object.__setattr__(summary, "radii_bases", bases)
    return summary
