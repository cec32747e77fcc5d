import math

import numpy as np
import pytest
from scipy.integrate import quad

from curveflow import geometry, oracle
from curveflow.errors import ConvexityLossError, DegenerateProfileError, NotClosedError
from curveflow.geometry import (
    AngleGrid,
    CurvatureProfile,
    SupportProfile,
    area_from_support,
    area_of,
    closure_residual,
    hausdorff_to_unit_disk,
    k_from_support,
    length_of,
    normalize,
    periodic_integral,
    radii,
    reconstruct,
    summarize,
    support_from_curvature,
)

from conftest import random_convex_support

TWO_PI = 2.0 * math.pi


def ellipse_arclength(a, b):
    val, _ = quad(lambda u: np.hypot(a * np.sin(u), b * np.cos(u)), 0.0, TWO_PI,
                  limit=200)
    return val


# ---------------------------------------------------------------------------
# grid and calculus
# ---------------------------------------------------------------------------

def test_grid_validation():
    for bad in (16, 31, 100, 96):
        with pytest.raises(ValueError):
            AngleGrid(bad)
    g = AngleGrid(32)
    assert g.dtheta == pytest.approx(TWO_PI / 32)
    assert g.theta[0] == 0.0


@pytest.mark.parametrize("scheme,rtol", [("fourier", 1e-12), ("fd4", 1e-5)])
def test_second_derivative_on_harmonics(scheme, rtol):
    g = AngleGrid(256)
    f = np.cos(3.0 * g.theta)
    d2 = geometry.second_derivative(f, g, scheme)
    assert np.allclose(d2, -9.0 * f, atol=rtol * 9.0)


@pytest.mark.parametrize("scheme", ["fourier", "fd4"])
def test_stacked_second_derivative_matches_rows(scheme):
    # the stepper differentiates all rows of a flow in one call and reduces
    # them row by row; both must match one-row work bit for bit
    rng = np.random.default_rng(7)
    for n in (32, 64, 128, 256, 512, 1024):
        g = AngleGrid(n)
        for rows in range(1, 7):
            stack = 1.0 + rng.random((rows, n))
            d2 = geometry.second_derivative(stack, g, scheme)
            for row, out in zip(stack, d2):
                assert np.array_equal(out, geometry.second_derivative(row.copy(), g, scheme))
                assert out.min() == np.min(out.copy()) and out.sum() == np.sum(out.copy())


@pytest.mark.parametrize("scheme", ["fourier", "fd4"])
def test_second_derivative_symbol_is_the_schemes(scheme):
    # the exponential stepper integrates -sigma(m) exactly; it must be the
    # operator second_derivative applies, mode by mode
    for n in (32, 64, 256):
        g = AngleGrid(n)
        sigma = geometry.second_derivative_symbol(n, scheme)
        assert sigma.shape == (n // 2 + 1,) and sigma.min() >= 0.0
        for m in range(n // 2 + 1):
            wave = np.cos(m * g.theta)
            d2 = geometry.second_derivative(wave, g, scheme)
            assert np.max(np.abs(d2 + sigma[m] * wave)) <= 1e-10 * max(1.0, sigma[m])


def test_fd4_orders():
    # fourth-order convergence of the fallback stencils
    errs1, errs2 = [], []
    for n in (64, 128, 256):
        g = AngleGrid(n)
        f = np.exp(np.sin(g.theta))
        d1 = geometry.first_derivative(f, g, "fd4")
        d2 = geometry.second_derivative(f, g, "fd4")
        exact1 = np.cos(g.theta) * f
        exact2 = (np.cos(g.theta) ** 2 - np.sin(g.theta)) * f
        errs1.append(np.max(np.abs(d1 - exact1)))
        errs2.append(np.max(np.abs(d2 - exact2)))
    assert errs1[0] / errs1[2] > 200  # 4th order gives 256x per 4x refinement
    assert errs2[0] / errs2[2] > 200


# ---------------------------------------------------------------------------
# reconstruction and closure
# ---------------------------------------------------------------------------

def test_reconstruct_unit_circle():
    g = AngleGrid(256)
    curve = reconstruct(CurvatureProfile(g, np.ones(g.n)))
    pts = curve.points
    assert np.allclose(pts[0], [0.0, 0.0], atol=1e-15)
    center = pts.mean(axis=0)
    radii_seen = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    assert np.max(np.abs(radii_seen - 1.0)) < 1e-12


def test_reconstruct_ellipse_perimeter():
    g = AngleGrid(1024)
    curve = reconstruct(oracle.ellipse_profile(2.0, 1.0, g))
    seg = np.roll(curve.points, -1, axis=0) - curve.points
    perimeter = np.sum(np.hypot(seg[:, 0], seg[:, 1]))
    assert perimeter == pytest.approx(ellipse_arclength(2.0, 1.0), abs=1e-4)


def test_reconstruct_scaled_circle_area():
    g = AngleGrid(256)
    for R in (0.5, 3.0):
        curve = reconstruct(CurvatureProfile(g, np.full(g.n, 1.0 / R)))
        assert area_of(curve) == pytest.approx(math.pi * R * R, rel=1e-10)


def test_closure_residual_cases():
    g = AngleGrid(512)
    c, s = closure_residual(CurvatureProfile(g, np.ones(g.n)))
    assert abs(c) < 1e-13 and abs(s) < 1e-13
    c, s = closure_residual(oracle.ellipse_profile(2.0, 1.0, g))
    assert abs(c) < 1e-10 and abs(s) < 1e-10
    # independent quadrature oracle for the non-closing profile 1/(2 + cos)
    expected, _ = quad(lambda t: np.cos(t) * (2.0 + np.cos(t)), 0.0, TWO_PI)
    kp = CurvatureProfile(g, 1.0 / (2.0 + np.cos(g.theta)))
    c, s = closure_residual(kp)
    assert c == pytest.approx(expected, rel=1e-12) and expected == pytest.approx(math.pi)
    assert abs(s) < 1e-12


def test_lengths_and_areas():
    g = AngleGrid(256)
    for R in (1.0, 2.5):
        kp = CurvatureProfile(g, np.full(g.n, 1.0 / R))
        assert length_of(kp) == pytest.approx(TWO_PI * R, rel=1e-15)
    sp = SupportProfile(g, np.ones(g.n))
    assert area_from_support(sp) == pytest.approx(math.pi, abs=1e-12)
    g512 = AngleGrid(512)
    sp_e = support_from_curvature(oracle.ellipse_profile(2.0, 1.0, g512))
    assert area_from_support(sp_e) == pytest.approx(2.0 * math.pi, abs=1e-8)


# ---------------------------------------------------------------------------
# support <-> curvature
# ---------------------------------------------------------------------------

def test_support_from_curvature_circles():
    g = AngleGrid(256)
    for R in (1.0, 4.0):
        sp = support_from_curvature(CurvatureProfile(g, np.full(g.n, 1.0 / R)))
        assert np.allclose(sp.h, R, atol=1e-13 * R)


def test_support_from_curvature_ellipse_closed_form():
    g = AngleGrid(512)
    sp = support_from_curvature(oracle.ellipse_profile(2.0, 1.0, g))
    assert sp.h[0] == pytest.approx(2.0, abs=1e-6)
    assert sp.h[g.n // 4] == pytest.approx(1.0, abs=1e-6)
    exact = np.sqrt(4.0 * np.cos(g.theta) ** 2 + np.sin(g.theta) ** 2)
    assert np.max(np.abs(sp.h - exact)) < 1e-10


def test_support_from_curvature_rejects_open_profile():
    g = AngleGrid(256)
    kp = CurvatureProfile(g, 1.0 / (2.0 + np.cos(g.theta)))
    with pytest.raises(NotClosedError):
        support_from_curvature(kp)


def test_k_from_support_cases():
    g = AngleGrid(256)
    assert np.allclose(k_from_support(SupportProfile(g, np.full(g.n, 2.0))).k, 0.5)
    sp = SupportProfile(g, 1.0 + 0.1 * np.cos(3.0 * g.theta))
    expected = 1.0 / (1.0 - 0.8 * np.cos(3.0 * g.theta))
    assert np.max(np.abs(k_from_support(sp).k - expected)) < 1e-10


def test_k_from_support_names_violating_node():
    g = AngleGrid(256)
    sp = SupportProfile(g, 1.0 + 0.9 * np.cos(2.0 * g.theta))  # h''+h = 1-2.7cos2t
    with pytest.raises(ConvexityLossError) as err:
        k_from_support(sp)
    assert err.value.node == 0
    assert err.value.theta == 0.0


def test_round_trip_support_curvature():
    g = AngleGrid(512)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    back = k_from_support(support_from_curvature(kp))
    assert np.max(np.abs(back.k - kp.k)) < 1e-9


# ---------------------------------------------------------------------------
# radii, Hausdorff, normalization
# ---------------------------------------------------------------------------

def test_radii_cases():
    g = AngleGrid(256)
    for R in (1.0, 3.0):
        r_in, r_out = radii(SupportProfile(g, np.full(g.n, R)))
        assert r_in == pytest.approx(R, abs=1e-9) and r_out == pytest.approx(R, abs=1e-9)
    r_in, r_out = radii(oracle.ellipse_support(2.0, 1.0, AngleGrid(512)))
    assert r_in == pytest.approx(1.0, abs=1e-6)
    assert r_out == pytest.approx(2.0, abs=1e-6)
    translated = SupportProfile(g, 1.0 + 0.3 * np.cos(g.theta))
    r_in, r_out = radii(translated)
    assert r_in == pytest.approx(1.0, abs=1e-9) and r_out == pytest.approx(1.0, abs=1e-9)


def test_radii_match_linprog_and_meet_every_constraint(profile_corpus):
    # scipy's LP solver is an independent oracle for the vertex solve
    from scipy.optimize import linprog

    for sp in profile_corpus:
        th = sp.grid.theta
        cos, sin = np.cos(th), np.sin(th)
        a_ub = np.column_stack([cos, sin, np.ones_like(cos)])
        free = [(None, None)] * 3
        inner = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=sp.h, bounds=free,
                        method="highs-ds")
        outer = linprog(c=[0.0, 0.0, 1.0], A_ub=-a_ub, b_ub=-sp.h, bounds=free,
                        method="highs-ds")
        r_in, r_out = radii(sp)
        assert r_in == pytest.approx(-inner.fun, abs=1e-7)
        assert r_out == pytest.approx(outer.fun, abs=1e-7)

        # r_out's centre and the mirrored r_in centre are feasible to rounding
        tol = 1e-12 * np.max(np.abs(sp.h))
        for h, value in ((sp.h, r_out), (-sp.h, -r_in)):
            r, (cx, cy) = geometry._min_max_support(h, cos, sin)
            assert r == value
            assert np.max(h - (cx * cos + cy * sin)) <= r + tol


def test_hausdorff_cases():
    g = AngleGrid(256)
    assert hausdorff_to_unit_disk(SupportProfile(g, np.ones(g.n))) < 1e-14
    assert hausdorff_to_unit_disk(SupportProfile(g, np.full(g.n, 2.0))) == pytest.approx(1.0)
    shifted = SupportProfile(g, 1.0 + 0.3 * np.cos(g.theta))
    assert hausdorff_to_unit_disk(shifted) < 1e-13


def test_normalize():
    g = AngleGrid(256)
    sp = normalize(SupportProfile(g, np.full(g.n, 2.0)), 4.0 * math.pi)
    assert np.allclose(sp.h, 1.0)
    e = support_from_curvature(oracle.ellipse_profile(2.0, 1.0, AngleGrid(512)))
    ne = normalize(e, area_from_support(e))
    assert area_from_support(ne) == pytest.approx(math.pi, abs=1e-8)
    again = normalize(ne, area_from_support(ne))
    assert np.max(np.abs(again.h - ne.h)) < 1e-12


def test_degenerate_profile_rejected():
    g = AngleGrid(256)
    amp = (1.0 - 5e-10) / 15.0  # h''+h touches 5e-10 at the minimum
    sp = SupportProfile(g, 1.0 + amp * np.cos(4.0 * g.theta))
    with pytest.raises(DegenerateProfileError):
        radii(sp)
    with pytest.raises(DegenerateProfileError):
        hausdorff_to_unit_disk(sp)


# ---------------------------------------------------------------------------
# cross-representation consistency and inequalities
# ---------------------------------------------------------------------------

def test_area_routes_converge_spectrally():
    # profile with content near the n=64 Nyquist band so the error is visible
    errs = []
    for n in (64, 128, 256, 512):
        g = AngleGrid(n)
        h = 1.0 + 0.1 * np.cos(2.0 * g.theta) + (0.2 / 399.0) * np.cos(20.0 * g.theta)
        sp = SupportProfile(g, h)
        a_support = area_from_support(sp)
        a_shoelace = area_of(reconstruct(k_from_support(sp)))
        errs.append(abs(a_shoelace - a_support))
    # at least 4th-order decay until the floor
    assert errs[1] < errs[0] / 16.0 or errs[1] < 1e-12
    assert errs[2] < errs[1] / 16.0 or errs[2] < 1e-12
    assert errs[3] < 1e-10


def test_isoperimetric_and_bonnesen_on_corpus(profile_corpus):
    for sp in profile_corpus:
        s = summarize(k_from_support(sp), sp)
        assert s.iso_ratio >= 4.0 * math.pi - 1e-9
        assert s.bonnesen_gap >= -1e-7 * s.iso_ratio
        # summary invariants
        assert s.area > 0.0 and s.length > 0.0
        assert s.r_in <= s.r_out + 1e-9 * s.r_out
        assert s.k_min <= s.k_max


def test_total_curvature_inequality_on_corpus(profile_corpus):
    # oint k dtheta >= pi L / A for convex curves
    for sp in profile_corpus:
        kp = k_from_support(sp)
        total = periodic_integral(kp.k, kp.grid)
        length = length_of(kp)
        area = area_from_support(sp)
        assert total >= math.pi * length / area - 1e-7 * total


def test_weighted_mean_inequality_discrete():
    # (sum xi F(xi)) / (sum F(xi)) >= mean(xi) for non-decreasing F
    rng = np.random.default_rng(5)
    for _ in range(100):
        xi = rng.uniform(0.05, 4.0, size=rng.integers(8, 200))
        for f in (lambda x: x, lambda x: x * x, np.exp):
            w = f(xi)
            assert np.sum(xi * w) / np.sum(w) >= np.mean(xi) - 1e-12


def test_translation_invariance(grid256):
    rng = np.random.default_rng(99)
    th = grid256.theta
    for _ in range(10):
        sp = random_convex_support(grid256, rng)
        c = rng.uniform(-0.5, 0.5, size=2)
        moved = SupportProfile(grid256, sp.h + c[0] * np.cos(th) + c[1] * np.sin(th))
        r1, o1 = radii(sp)
        r2, o2 = radii(moved)
        assert abs(r1 - r2) < 1e-10 and abs(o1 - o2) < 1e-10
        assert abs(length_of(k_from_support(sp)) - length_of(k_from_support(moved))) < 1e-10
        assert abs(area_from_support(sp) - area_from_support(moved)) < 1e-10
        assert abs(hausdorff_to_unit_disk(sp) - hausdorff_to_unit_disk(moved)) < 1e-10


def test_steiner_point_recovers_shift(grid256):
    sp = SupportProfile(grid256, 1.0 + 0.3 * np.cos(grid256.theta))
    sx, sy = geometry.steiner_point(sp)
    assert sx == pytest.approx(0.3, abs=1e-12) and sy == pytest.approx(0.0, abs=1e-12)
