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


def _fourier_modes(n):
    return _fourier_tables(n)[0]


def second_derivative(values, grid, scheme="fourier"):
    """Periodic second derivative in theta, of each row of a stack along the last axis."""
    n = grid.n
    if scheme == "fourier":
        spectrum = np.fft.rfft(values)
        spectrum *= _fourier_tables(n)[1]
        return np.fft.irfft(spectrum, n=n)
    if scheme == "fd4":
        f = np.asarray(values, dtype=float)
        out = (-np.roll(f, -2, axis=-1) + 16.0 * np.roll(f, -1, axis=-1) - 30.0 * f
               + 16.0 * np.roll(f, 1, axis=-1) - np.roll(f, 2, axis=-1))
        return out / (12.0 * grid.dtheta ** 2)
    raise ValueError(f"unknown derivative scheme {scheme!r}")


def second_derivative_symbol(n, scheme="fourier"):
    """sigma(m) >= 0 on the rfft bins m = 0..n/2: ``second_derivative`` maps e^{i m theta} to -sigma(m) e^{i m theta}.

    m^2 for the Fourier scheme; for fd4, the five-point stencil above
    applied to e^{i m theta}, (30 - 32 cos(m dtheta) + 2 cos(2 m dtheta)) /
    (12 dtheta^2).  h'' + h has the symbol 1 - sigma(m).
    """
    if scheme == "fourier":
        return -_fourier_tables(n)[1]
    if scheme == "fd4":
        dtheta = 2.0 * math.pi / n
        m_dtheta = _fourier_modes(n) * dtheta
        return (30.0 - 32.0 * np.cos(m_dtheta) + 2.0 * np.cos(2.0 * m_dtheta)) \
            / (12.0 * dtheta * dtheta)
    raise ValueError(f"unknown derivative scheme {scheme!r}")


def first_derivative(values, grid, scheme="fourier"):
    """Periodic first derivative in theta."""
    n = grid.n
    if scheme == "fourier":
        return np.fft.irfft(np.fft.rfft(values) * _fourier_tables(n)[2], n=n)
    if scheme == "fd4":
        f = np.asarray(values, dtype=float)
        return (-np.roll(f, -2) + 8.0 * np.roll(f, -1)
                - 8.0 * np.roll(f, 1) + np.roll(f, 2)) / (12.0 * grid.dtheta)
    raise ValueError(f"unknown derivative scheme {scheme!r}")


def periodic_antiderivative(values, grid):
    """Antiderivative F with F(theta_0) = 0, via the Fourier series.

    The mean of ``values`` contributes a linear-in-theta part, so F is not
    periodic unless the mean vanishes; for closure-respecting integrands the
    linear part carries exactly the closure defect.
    """
    n = grid.n
    fh = np.fft.rfft(values)
    mean = fh[0].real / n
    m = _fourier_modes(n)
    div = np.zeros_like(fh)
    div[1:-1] = fh[1:-1] / (1j * m[1:-1])
    # Nyquist antiderivative samples to zero on the grid, div[-1] stays 0
    periodic = np.fft.irfft(div, n=n)
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
    """Scalar observables of one snapshot."""

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


def support_from_curvature(kp):
    """Solve h'' + h = 1/k in Fourier space.

    The cos/sin kernel modes are set to zero, which pins the Steiner point of
    the result at the origin; any other closed solution differs by a rigid
    translation.  Rejects profiles whose closure residual exceeds
    ``CLOSURE_GATE`` times the length, since projecting away a large first
    harmonic would silently translate a curve that does not exist.
    """
    c, s = closure_residual(kp)
    residual = math.hypot(c, s)
    length = length_of(kp)
    if residual > CLOSURE_GATE * length:
        raise NotClosedError(
            f"closure residual {residual:.3e} exceeds {CLOSURE_GATE:g} * L = "
            f"{CLOSURE_GATE * length:.3e}; profile is not a closed curve",
            residual=residual)
    fh = np.fft.rfft(1.0 / kp.k)
    fh[1] = 0.0  # kernel mode: Steiner point pinned at the origin
    h = np.fft.irfft(fh / _fourier_tables(kp.grid.n)[3], n=kp.grid.n)
    if not np.all(np.isfinite(h)):
        raise DegenerateProfileError("the support solve overflowed: curve too large")
    return SupportProfile(kp.grid, h, kp.t)


def curvature_radius(sp, scheme="fourier"):
    """h'' + h, the curvature radius; raises naming the first non-convex node."""
    return _checked_radius(sp, second_derivative(sp.h, sp.grid, scheme) + sp.h)


def _checked_radius(sp, rho):
    if np.min(rho) <= 0.0:
        j = int(np.argmax(rho <= 0.0))
        raise ConvexityLossError(
            f"h'' + h = {rho[j]:.3e} <= 0 at node {j} (theta = {sp.grid.theta[j]:.6f})",
            node=j, theta=float(sp.grid.theta[j]))
    return rho


def k_from_support(sp, scheme="fourier"):
    """Pointwise reciprocal of h'' + h on the grid."""
    return CurvatureProfile(sp.grid, 1.0 / curvature_radius(sp, scheme), sp.t)


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
    return _radii(sp)


def _radii(sp):
    th = sp.grid.theta
    cos, sin = np.cos(th), np.sin(th)
    r_out, _ = _min_max_support(sp.h, cos, sin)
    neg_r_in, _ = _min_max_support(-sp.h, cos, sin)
    return -neg_r_in, r_out


def _min_max_support(h, cos, sin):
    """(r, c): min over centres c of max_j (h_j - c . u_j), and a minimizing c.

    This is the linear program  min r  s.t.  c . u_j + r >= h_j  in the three
    unknowns (c_x, c_y, r), solved by the dual simplex.  A basis is three
    constraints whose directions hold the origin in their convex hull, which
    is dual feasibility: multipliers lambda >= 0 with sum lambda_i u_i = 0
    and sum lambda_i = 1.  Its vertex meets the three as equalities.  Each
    pivot enters the most violated constraint e and drops the basis row with
    the smallest lambda_i / alpha_i over alpha_i > 0, where
    sum alpha_i (u_i, 1) = (u_e, 1); that keeps lambda >= 0 and never lowers
    r.  The vertex is optimal once no constraint is violated by more than
    1e-13 max|h|.  Smooth profiles need a handful of pivots; a solve that
    has not converged after n raises DegenerateProfileError.
    """
    n = h.shape[0]
    tol = 1e-13 * float(np.max(np.abs(h)))
    basis = [0, n // 3, 2 * n // 3]
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
            return r, (cx, cy)
        ce, se = float(cos[e]), float(sin[e])
        leave, best = None, math.inf
        for i, col in enumerate(cols):
            alpha = (col[0] * ce + col[1] * se + col[2]) / det
            if alpha > 0.0:
                ratio = max(col[2] / det, 0.0) / alpha
                if ratio < best:
                    leave, best = i, ratio
        if leave is None:
            break
        basis[leave] = e
    raise DegenerateProfileError(
        "radii solver did not converge; profile treated as numerically degenerate")


def steiner_point(sp):
    """(1/pi) oint h(theta) u(theta) dtheta, the translation-natural centre."""
    th = sp.grid.theta
    sx = periodic_integral(sp.h * np.cos(th), sp.grid) / math.pi
    sy = periodic_integral(sp.h * np.sin(th), sp.grid) / math.pi
    return sx, sy


def hausdorff_to_unit_disk(sp):
    """Hausdorff distance to the unit disk after recentering at the Steiner point.

    For convex bodies the Hausdorff metric equals the sup norm of the support
    difference, and the unit disk centred at the Steiner point has support
    s . u + 1.
    """
    _degenerate_guard(curvature_radius(sp))
    return _hausdorff_to_unit_disk(sp)


def _hausdorff_to_unit_disk(sp):
    th = sp.grid.theta
    sx, sy = steiner_point(sp)
    centered = sp.h - sx * np.cos(th) - sy * np.sin(th)
    return float(np.max(np.abs(centered - 1.0)))


def normalize(sp, area):
    """Rescale by sqrt(pi/area) so the enclosed area becomes pi."""
    if not area > 0.0:
        raise ValueError(f"area must be positive, got {area}")
    return SupportProfile(sp.grid, sp.h * math.sqrt(math.pi / area), sp.t)


# ---------------------------------------------------------------------------
# snapshot summaries
# ---------------------------------------------------------------------------

def summarize(kp, sp):
    """All scalar observables of one snapshot, from its two forms.

    ``kp`` and ``sp`` are the same curve in curvature and support form; the
    caller derives one from the other.  The curvature observables (length,
    closure, k range, total curvature) read ``kp``.  The Fourier h'' + h of
    ``sp`` is computed once and serves the area, the convexity and contrast
    guard, the radii and the Hausdorff distance.
    """
    rho = second_derivative(sp.h, sp.grid) + sp.h
    with np.errstate(over="ignore"):  # an overflow is judged degenerate below
        length = length_of(kp)
        area = 0.5 * periodic_integral(sp.h * rho, sp.grid)
    if not (0.0 < length < math.inf and 0.0 < area < math.inf):
        raise DegenerateProfileError(f"length {length} or area {area} not finite and positive")
    c, s = closure_residual(kp)
    _degenerate_guard(_checked_radius(sp, rho))
    r_in, r_out = _radii(sp)
    k_min = float(np.min(kp.k))
    k_max = float(np.max(kp.k))
    iso = length * length / area
    bonnesen = iso - 4.0 * math.pi - math.pi ** 2 * (r_out - r_in) ** 2 / area
    total_curvature = periodic_integral(kp.k, kp.grid)  # equals oint k^2 ds
    gage = 1.0 - (math.pi * length / area) / total_curvature
    hdf = _hausdorff_to_unit_disk(normalize(sp, area))
    return GeometrySummary(
        length=length, area=area, r_in=r_in, r_out=r_out,
        k_min=k_min, k_max=k_max,
        closure_residual_norm=math.hypot(c, s),
        iso_ratio=iso, bonnesen_gap=bonnesen, gage_deficit=gage,
        hausdorff_to_disk=hdf)
