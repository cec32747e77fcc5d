import math

import numpy as np
import pytest

from curveflow import geometry, oracle
from curveflow.geometry import AngleGrid
from curveflow.oracle import CircleSolution, circle_state, ellipse_profile, polygon_brute_force


def test_circle_state_values():
    r, k, length, area = circle_state(CircleSolution(1.0, 1.0), 0.375)
    assert r == pytest.approx(0.5) and k == pytest.approx(2.0)
    assert length == pytest.approx(math.pi) and area == pytest.approx(math.pi / 4.0)
    assert CircleSolution(1.0, 1.0).omega == pytest.approx(0.5)
    assert CircleSolution(1.0, 1.0 / 3.0).omega == pytest.approx(0.75)
    assert CircleSolution(2.0, 3.0).omega == pytest.approx(4.0)


def test_affine_ellipse_solution_values():
    sol = oracle.affine_ellipse_solution(2.0, 1.0)
    assert sol.omega == pytest.approx(0.75 * 2.0 ** (2.0 / 3.0), rel=1e-15)
    assert sol.omega == pytest.approx(1.190551, rel=1e-6)
    g = AngleGrid(64)
    assert np.array_equal(sol.curvature(g, 0.0).k, ellipse_profile(2.0, 1.0, g).k)
    # lambda^(4/3) = 1 - (4/3) (ab)^(-2/3) t
    t = 0.5
    assert sol.scale(t) ** (4.0 / 3.0) == pytest.approx(
        1.0 - (4.0 / 3.0) * 2.0 ** (-2.0 / 3.0) * t, rel=1e-14)
    # the p = 1/3 circle is the a = b case
    assert oracle.affine_ellipse_solution(1.0, 1.0).omega == CircleSolution(1.0, 1.0 / 3.0).omega
    with pytest.raises(ValueError):
        sol.scale(sol.omega)
    with pytest.raises(ValueError):
        oracle.affine_ellipse_solution(1.0, 2.0)


def test_circle_state_rejects_late_times():
    sol = CircleSolution(1.0, 1.0)
    with pytest.raises(ValueError):
        circle_state(sol, 0.5)
    with pytest.raises(ValueError):
        circle_state(sol, -0.1)


def test_circle_state_satisfies_area_identity():
    # dA/dt = -oint G(k) dtheta = -2 pi G(1/R) for circles
    for p in (1.0, 2.0):
        sol = CircleSolution(1.0, p)
        t, dt = 0.2, 1e-6
        a_plus = circle_state(sol, t + dt)[3]
        a_minus = circle_state(sol, t - dt)[3]
        r = sol.radius(t)
        expected = -2.0 * math.pi * (1.0 / r) ** (p - 1.0)
        assert (a_plus - a_minus) / (2.0 * dt) == pytest.approx(expected, rel=1e-7)


def test_ellipse_profile_basics():
    g = AngleGrid(512)
    assert np.allclose(ellipse_profile(2.0, 2.0, g).k, 0.5)
    kp = ellipse_profile(2.0, 1.0, g)
    assert np.min(kp.k) == pytest.approx(0.25)
    assert np.max(kp.k) == pytest.approx(2.0)
    c, s = geometry.closure_residual(kp)
    assert math.hypot(c, s) < 1e-10
    with pytest.raises(ValueError):
        oracle.ellipse_support(1.0, 2.0, g)  # the semi-axes out of order


def test_ellipse_profile_reconstructs_the_ellipse():
    g = AngleGrid(512)
    pts = geometry.reconstruct(ellipse_profile(2.0, 1.0, g)).points
    cx = 0.5 * (pts[:, 0].max() + pts[:, 0].min())
    cy = 0.5 * (pts[:, 1].max() + pts[:, 1].min())
    residual = ((pts[:, 0] - cx) / 2.0) ** 2 + (pts[:, 1] - cy) ** 2 - 1.0
    assert np.max(np.abs(residual)) < 1e-10


def test_reconstruct_consistent_with_support_convention():
    # support read off the reconstructed points against the same profile
    g = AngleGrid(256)
    kp = ellipse_profile(2.0, 1.0, g)
    pts = geometry.reconstruct(kp).points
    h_rec = pts[:, 0] * np.cos(g.theta) + pts[:, 1] * np.sin(g.theta)
    rho = geometry.second_derivative(h_rec, g) + h_rec
    assert np.max(np.abs(1.0 / rho - kp.k)) < 1e-9


def test_circle_trajectory_is_exact():
    traj = oracle.circle_trajectory(1.0, 1.0, [0.0, 0.2, 0.4], n=64)
    assert [s.t for s in traj.snapshots] == [0.0, 0.2, 0.4]
    s = traj.snapshots[1].summary
    assert s.k_min == pytest.approx(1.0 / math.sqrt(0.6), rel=1e-14)
    assert traj.omega_estimate.omega_lo == traj.omega_estimate.omega_hi == 0.5


# ---------------------------------------------------------------------------
# polygon brute force
# ---------------------------------------------------------------------------

def regular_polygon(n, radius=1.0, center=(0.0, 0.0)):
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(phi),
                            center[1] + radius * np.sin(phi)])


def test_brute_force_regular_polygon():
    summary = polygon_brute_force(regular_polygon(4096))
    assert summary.length == pytest.approx(2.0 * math.pi, abs=1e-5 * 2 * math.pi)
    assert summary.area == pytest.approx(math.pi, abs=1e-5 * math.pi)
    assert summary.r_in == pytest.approx(1.0, abs=1e-3)
    assert summary.r_out == pytest.approx(1.0, abs=1e-3)
    assert summary.hausdorff_to_disk < 1e-3


def test_brute_force_ellipse_radii():
    g = AngleGrid(4096)
    pts = geometry.reconstruct(ellipse_profile(2.0, 1.0, g)).points
    summary = polygon_brute_force(pts)
    assert summary.r_in == pytest.approx(1.0, abs=1e-3)
    assert summary.r_out == pytest.approx(2.0, abs=1e-3)


def test_brute_force_hausdorff_concentric_circle():
    summary = polygon_brute_force(regular_polygon(2048, radius=2.0, center=(0.7, -0.4)))
    assert summary.hausdorff_to_disk == pytest.approx(1.0, abs=1e-3)


def test_brute_force_rejects_bad_input():
    with pytest.raises(ValueError):
        polygon_brute_force(regular_polygon(32))  # too few vertices
    with pytest.raises(ValueError):
        polygon_brute_force(regular_polygon(9000))  # above the cap
    pts = regular_polygon(128)
    pts[5] *= 3.0  # spike makes it non-convex
    with pytest.raises(ValueError):
        polygon_brute_force(pts)
    with pytest.raises(ValueError):
        polygon_brute_force(regular_polygon(128)[::-1])  # clockwise
    # collinear points pass the convexity test but enclose no area
    segment = np.column_stack([np.arange(64.0), np.zeros(64)])
    with pytest.raises(ValueError, match="counterclockwise"):
        polygon_brute_force(segment)
