"""Exact and brute-force reference solutions for tests and acceptance checks.

Everything here favors obviousness over speed: the polygon routines are
quadratic-cost grid searches over dense point sets, capped at 8192 vertices,
and exist only to cross-check the geometry module through an independent
route.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import flow, geometry
from .geometry import AngleGrid, CurvatureProfile, SupportProfile
from .speed_law import power_law

MAX_POLYGON_POINTS = 8192


@dataclasses.dataclass(frozen=True)
class CircleSolution:
    """Exact circle under the power law: dR/dt = -R^(-p)."""

    r0: float
    p: float

    def __post_init__(self):
        if not (self.r0 > 0.0 and self.p > 0.0):
            raise ValueError("need r0 > 0 and p > 0")

    @property
    def omega(self):
        return self.r0 ** (self.p + 1.0) / (self.p + 1.0)

    def radius(self, t):
        if not 0.0 <= t < self.omega:
            raise ValueError(f"t={t} outside [0, omega={self.omega})")
        return (self.r0 ** (self.p + 1.0) - (self.p + 1.0) * t) ** (1.0 / (self.p + 1.0))


@dataclasses.dataclass(frozen=True)
class AffineEllipseSolution:
    """Exact axis-aligned ellipse with semi-axes a, b under the affine flow p = 1/3.

    For the ellipse k = h^3 / (a^2 b^2), so h_t = -k^(1/3) = -h / (ab)^(2/3):
    the ellipse shrinks homothetically, h = lambda h0 and k = k0 / lambda,
    with lambda^(4/3) = 1 - (4/3) (ab)^(-2/3) t (Sapiro & Tannenbaum 1994).
    """

    a: float
    b: float

    @property
    def omega(self):
        return 0.75 * (self.a * self.b) ** (2.0 / 3.0)

    def scale(self, t):
        """lambda(t), the factor by which the ellipse has shrunk at time t."""
        if not 0.0 <= t < self.omega:
            raise ValueError(f"t={t} outside [0, omega={self.omega})")
        return (1.0 - t / self.omega) ** 0.75

    def curvature(self, grid, t):
        """The exact curvature profile at time t."""
        return CurvatureProfile(grid, ellipse_profile(self.a, self.b, grid).k / self.scale(t), t)


def affine_ellipse_solution(a, b):
    """The exact p = 1/3 solution from the ellipse of semi-axes a >= b > 0."""
    if not a >= b > 0.0:
        raise ValueError(f"need a >= b > 0, got a={a}, b={b}")
    return AffineEllipseSolution(float(a), float(b))


def circle_state(sol, t):
    """(R, k, L, A) of the exact circle at time t."""
    r = sol.radius(t)
    return r, 1.0 / r, 2.0 * math.pi * r, math.pi * r * r


def circle_profile(radius, grid, t=0.0):
    """Constant-curvature profile k = 1/R."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    return CurvatureProfile(grid, np.full(grid.n, 1.0 / radius), t)


def ellipse_profile(a, b, grid):
    """Curvature of the axis-aligned ellipse as a function of the normal angle.

    k(theta) = (a^2 cos^2 + b^2 sin^2)^(3/2) / (a^2 b^2), the reciprocal of
    h'' + h for the support function h = sqrt(a^2 cos^2 + b^2 sin^2); extrema
    are k_max = a/b^2 at theta = 0 and k_min = b/a^2 at theta = pi/2.
    """
    if not a >= b > 0.0:
        raise ValueError(f"need a >= b > 0, got a={a}, b={b}")
    th = grid.theta
    k = (a * a * np.cos(th) ** 2 + b * b * np.sin(th) ** 2) ** 1.5 / (a * a * b * b)
    return CurvatureProfile(grid, k)


def ellipse_support(a, b, grid):
    """Closed-form support profile of the same ellipse."""
    if not a >= b > 0.0:
        raise ValueError(f"need a >= b > 0, got a={a}, b={b}")
    th = grid.theta
    return SupportProfile(grid, np.sqrt(a * a * np.cos(th) ** 2 + b * b * np.sin(th) ** 2))


def circle_trajectory(r0, p, times, n=256):
    """Analytically generated circle trajectory (no time stepping involved).

    Useful as an exact fixture for the diagnostics: every monitor must sit at
    its equality case on it.  The fluxes are exact too: L and A lose
    2 pi (R0 - R) and pi (R0^2 - R^2) by time t.
    """
    sol = CircleSolution(r0, p)
    grid = AngleGrid(n)
    snaps = []
    for t in times:
        r = sol.radius(t)
        kp = CurvatureProfile(grid, np.full(grid.n, 1.0 / r), t)
        sp = SupportProfile(grid, np.full(grid.n, r), t)
        snaps.append(flow.Snapshot(t=float(t), curvature=kp, support=sp,
                                   summary=geometry.summarize(kp, sp),
                                   flux=(2.0 * math.pi * (r0 - r), math.pi * (r0 * r0 - r * r))))
    config = flow.FlowConfig(law=power_law(p), initial=snaps[0].curvature)
    omega = sol.omega
    traj = flow.Trajectory(
        snapshots=snaps, stop_reason=flow.STOP_ANALYTIC, config=config,
        hypothesis_report=None, roundness_expected=(p >= 1.0),
        omega_estimate=flow.BlowUpEstimate(omega, omega, omega, "closed-form"))
    return traj


# ---------------------------------------------------------------------------
# polygon brute force
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PolygonSummary:
    length: float
    area: float
    r_in: float
    r_out: float
    hausdorff_to_disk: float


def _refine_center(points, objective, levels=12, grid_size=13):
    """Minimize objective(centers) by a shrinking dense center grid."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    center = 0.5 * (lo + hi)
    span = 0.5 * float(np.max(hi - lo)) + 1e-9
    best_c, best_v = center, math.inf
    for _ in range(levels):
        xs = np.linspace(center[0] - span, center[0] + span, grid_size)
        ys = np.linspace(center[1] - span, center[1] + span, grid_size)
        cx, cy = np.meshgrid(xs, ys)
        cand = np.column_stack([cx.ravel(), cy.ravel()])
        vals = objective(cand)
        j = int(np.argmin(vals))
        if vals[j] < best_v:
            best_v, best_c = float(vals[j]), cand[j]
        center = cand[j]
        span /= 3.0
    return best_c, best_v


def _dists(centers, points):
    # (n_centers, n_points) pairwise distances
    diff = centers[:, None, :] - points[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def _inside(centers, points):
    # ccw convex polygon: inside iff left of (or on) every edge
    edges = np.roll(points, -1, axis=0) - points
    rel = centers[:, None, :] - points[None, :, :]
    cross = edges[None, :, 0] * rel[..., 1] - edges[None, :, 1] * rel[..., 0]
    return np.all(cross >= 0.0, axis=1)


def polygon_brute_force(points, circle_samples=2048, disk_center=None):
    """(L, A, r_in, r_out, Hausdorff to the unit disk) of a dense convex polygon.

    Perimeter and shoelace area are exact for the polygon; the radii come
    from a dense center-grid maximin/minimax over vertex distances, and the
    Hausdorff distance from a two-sided point-set distance against a dense
    unit circle, either at the given ``disk_center`` or at the best center a
    grid search finds; requires >= 64 vertices, counterclockwise and convex.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 64:
        raise ValueError("need an (n, 2) array of at least 64 vertices")
    if len(pts) > MAX_POLYGON_POINTS:
        raise ValueError(f"brute force capped at {MAX_POLYGON_POINTS} points")
    edges = np.roll(pts, -1, axis=0) - pts
    cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
        - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
    scale = float(np.max(np.sum(edges * edges, axis=1)))
    if np.any(cross < -1e-9 * scale):
        raise ValueError("polygon is not convex")
    area = 0.5 * float(np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                              - np.roll(pts[:, 0], -1) * pts[:, 1]))
    if area <= 0.0:
        raise ValueError("polygon must wind counterclockwise")
    length = float(np.sum(np.hypot(edges[:, 0], edges[:, 1])))

    def inradius_objective(c):
        # the maximin needs interior centers: outside, the min vertex
        # distance grows with the offset and the search would diverge
        val = -_dists(c, pts).min(axis=1)
        return np.where(_inside(c, pts), val, np.inf)

    _, neg_r_in = _refine_center(pts, inradius_objective)
    _, r_out = _refine_center(pts, lambda c: _dists(c, pts).max(axis=1))

    # Hausdorff to the unit disk: pick the center by the cheap polygon-to-
    # circle direction (unless pinned), then evaluate the two-sided
    # point-set distance there.
    if disk_center is not None:
        best_c = np.asarray(disk_center, dtype=float)
    else:
        best_c, _ = _refine_center(
            pts, lambda c: np.abs(_dists(c, pts) - 1.0).max(axis=1))
    poly_to_circle = float(np.max(np.abs(_dists(best_c[None, :], pts) - 1.0)))
    phi = np.linspace(0.0, 2.0 * math.pi, circle_samples, endpoint=False)
    circle = best_c + np.column_stack([np.cos(phi), np.sin(phi)])
    circle_to_poly = 0.0
    for block in np.array_split(circle, max(1, circle_samples // 256)):
        circle_to_poly = max(circle_to_poly, float(_dists(block, pts).min(axis=1).max()))
    hausdorff = max(poly_to_circle, circle_to_poly)

    return PolygonSummary(length=length, area=area, r_in=float(-neg_r_in),
                          r_out=float(r_out), hausdorff_to_disk=hausdorff)
