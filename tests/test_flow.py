import dataclasses
import json
import math

import numpy as np
import pytest

from curveflow import cli, flow, geometry, oracle
from curveflow.errors import (
    ConvexityLossError,
    HypothesisViolationError,
    InsufficientDataError,
    SpeedLawDomainError,
    StepRejected,
)
from curveflow.flow import (
    FlowConfig,
    containment_run,
    estimate_blowup,
    rhs_curvature,
    rhs_support,
    run,
    stable_dt,
    step,
)
from curveflow.geometry import AngleGrid, CurvatureProfile, SupportProfile
from curveflow.speed_law import PROBES, check_hypotheses, power_law


def circle_kp(radius, n=128, t=0.0):
    g = AngleGrid(n)
    return CurvatureProfile(g, np.full(g.n, 1.0 / radius), t)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_curvature_circle():
    for p, radius in ((1.0, 2.0), (2.0, 0.5), (3.0, 1.5)):
        kp = circle_kp(radius)
        rhs = rhs_curvature(kp, power_law(p))
        assert np.allclose(rhs, radius ** (-p - 2.0), rtol=1e-13)


def test_rhs_curvature_single_harmonic():
    g = AngleGrid(256)
    k = 1.0 + 0.01 * np.cos(g.theta)
    rhs = rhs_curvature(CurvatureProfile(g, k), power_law(1))
    expected = k * k * (-0.01 * np.cos(g.theta) + k)
    assert np.max(np.abs(rhs - expected)) < 1e-12


def test_rhs_support_circle():
    g = AngleGrid(128)
    for p, radius in ((1.0, 2.0), (2.0, 0.5)):
        sp = SupportProfile(g, np.full(g.n, radius))
        rhs = rhs_support(sp, power_law(p))
        assert np.allclose(rhs, -radius ** (-p), rtol=1e-13)


def test_rhs_support_matches_definition_on_ellipse():
    g = AngleGrid(256)
    sp = oracle.ellipse_support(2.0, 1.0, g)
    law = power_law(2)
    expected = -law.phi(geometry.k_from_support(sp).k)
    assert np.max(np.abs(rhs_support(sp, law) - expected)) < 1e-12


def test_rhs_rejects_a_stage_that_is_not_convex():
    g = AngleGrid(64)
    h = 1.0 + 0.5 * np.cos(2.0 * g.theta)  # h'' + h = 1 - 1.5 cos(2 theta)
    for ell in (None, 0.0):  # the physical and the frame equations
        with pytest.raises(StepRejected, match="lost convexity in a stage"):
            flow._rhs(h[None], 0, g, power_law(1), ell)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_circle_matches_exact_solution():
    kp = circle_kp(1.0, n=64)
    dt = 1e-4
    new = step(kp, power_law(1), dt)
    exact = 1.0 / math.sqrt(1.0 - 2.0 * dt)
    assert np.max(np.abs(new.k - exact)) < 1e-13  # RK4: O(dt^5) per step
    assert new.t == pytest.approx(dt)
    # forward Euler would sit ~1e-8 away; make sure we discriminate
    euler = 1.0 + dt * 1.0
    assert abs(exact - euler) > 1e-9


def test_step_on_a_support_circle():
    # h = R with R^2 = 1 - 2t under p = 1
    g = AngleGrid(64)
    dt = 1e-4
    new = step(SupportProfile(g, np.ones(g.n)), power_law(1), dt)
    assert np.max(np.abs(new.h - math.sqrt(1.0 - 2.0 * dt))) < 1e-13
    # h'' + h = 1 - 1.5 cos(4 theta) changes sign: refused before any stage
    with pytest.raises(ConvexityLossError):
        step(SupportProfile(g, 1.0 + 0.1 * np.cos(4.0 * g.theta)), power_law(1), dt)
    # only a profile can be stepped
    with pytest.raises(TypeError):
        step(np.ones(g.n), power_law(1), dt)


def test_step_rejects_oversized_dt_without_mutation():
    g = AngleGrid(64)
    k = 1.0 + 0.9 * np.cos(16.0 * g.theta)  # stiff high-mode profile
    kp = CurvatureProfile(g, k)
    law = power_law(1)
    dt = 2500.0 * stable_dt(kp, law)
    with pytest.raises(StepRejected):
        step(kp, law, dt)
    assert np.array_equal(kp.k, k)
    # the stable dt itself is accepted
    accepted = step(kp, law, stable_dt(kp, law))
    assert np.min(accepted.k) > 0.0


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_step_refuses_a_dt_that_is_not_positive_and_finite(monkeypatch, dt):
    # the caller's dt is at fault, not the law: refused before any stage
    monkeypatch.setattr(flow, "_rhs", None)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        step(circle_kp(1.0, n=32), power_law(1), dt)


def _first_stage(y, ncurv, grid, law, ell=None):
    """The first stage _etd takes at ``y``: (rfft(dy), *rest) of _rhs(y)."""
    start = flow._rhs(y, ncurv, grid, law, ell)
    return (np.fft.rfft(start[0]),) + start[1:]


@pytest.mark.parametrize("ncurv, message", [
    (1, "curvature lost positivity in a stage"),
    (0, "support profile lost convexity in a stage")])
def test_etd_rejects_a_result_that_leaves_the_domain(monkeypatch, ncurv, message):
    # constant rows of 0.1 with rate 0 at the step's start (the first call)
    # and its first two stages, which stay at 0.1, and -6 at the last, which
    # takes the result to 0.1 - 1: the result's own _rhs, the fifth call,
    # refuses it
    g = AngleGrid(32)
    y = np.full((1, g.n), 0.1)
    rhs, calls = flow._rhs, []

    def last_stage_falls(rows, *args):
        calls.append(None)
        dy, *rest = rhs(rows, *args)  # the domain gate runs on every stage
        return (np.full_like(dy, -6.0 if len(calls) == 4 else 0.0), *rest)

    monkeypatch.setattr(flow, "_rhs", last_stage_falls)
    for ell in (None, 0.0):  # a physical step and a step in the frame
        calls.clear()
        start = _first_stage(y, ncurv, g, power_law(1), ell)
        with pytest.raises(StepRejected, match=message):
            flow._etd(y, np.fft.rfft(y), start, ncurv, 1.0, flow._etd_coefficients(g.n, 1.0),
                      g, power_law(1), ell)
        assert len(calls) == 5


def test_step_preserves_closure():
    g = AngleGrid(256)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    law = power_law(1)
    c0, s0 = geometry.closure_residual(kp)
    new = step(kp, law, stable_dt(kp, law))
    c1, s1 = geometry.closure_residual(new)
    drift = math.hypot(c1 - c0, s1 - s0)
    assert drift <= 1e-12 * geometry.length_of(kp)


def test_stable_dt_scalings():
    law = power_law(1)
    dt_n = stable_dt(circle_kp(1.0, n=128), law)
    dt_2n = stable_dt(circle_kp(1.0, n=256), law)
    assert dt_n / dt_2n == pytest.approx(4.0, rel=1e-12)
    # doubling curvature quarters the step for p = 1
    assert stable_dt(circle_kp(0.5, n=128), law) == pytest.approx(dt_n / 4.0)
    # p = 3 at k = 2: diffusion coefficient k^2 Phi' = 4 * 12 = 48
    dt_p3 = stable_dt(circle_kp(0.5, n=128), power_law(3))
    assert dt_n / dt_p3 == pytest.approx(48.0, rel=1e-12)
    # support and curvature forms see the same bound
    g = AngleGrid(128)
    sp = SupportProfile(g, np.ones(g.n))
    assert stable_dt(sp, law) == pytest.approx(stable_dt(circle_kp(1.0, n=128), law))


# ---------------------------------------------------------------------------
# the stacked stepper core
# ---------------------------------------------------------------------------

def _support_pair(g):
    sp = geometry.support_from_curvature(oracle.ellipse_profile(2.0, 1.0, g))
    # h'' + h grows by 0.5 - 0.08 cos(3 theta) > 0, so the second curve is convex too
    other = SupportProfile(g, sp.h + 0.5 + 0.01 * np.cos(3.0 * g.theta))
    return sp, other


def test_stacked_stage_matches_per_row_rhs():
    g = AngleGrid(128)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    sp, other = _support_pair(g)
    law = power_law(2)
    # the per-row definitions, one second derivative per row
    phi = law.g(kp.k) * kp.k
    by_def_k = kp.k * kp.k * (geometry.second_derivative(phi, g) + phi)
    rho = geometry.second_derivative(sp.h, g) + sp.h
    by_def_h = -(law.g(1.0 / rho) * (1.0 / rho))

    pair = flow._rhs(np.array([kp.k, sp.h]), 1, g, law)[0]
    assert np.array_equal(pair[0], rhs_curvature(kp, law))
    assert np.array_equal(pair[0], by_def_k)
    assert np.array_equal(pair[1], rhs_support(sp, law))
    assert np.array_equal(pair[1], by_def_h)

    two = flow._rhs(np.array([sp.h, other.h]), 0, g, law)[0]
    assert np.array_equal(two[0], rhs_support(sp, law))
    assert np.array_equal(two[1], rhs_support(other, law))

    # in the frame, rows stack the same way: the support row of the pair
    # equals the lone one, and both forms share m, the first row's
    frame_pair = flow._rhs(np.array([kp.k, sp.h]), 1, g, law, 0.0)
    frame_k = flow._rhs(kp.k[None], 1, g, law, 0.0)
    assert np.array_equal(frame_pair[0][0], frame_k[0][0])
    assert frame_pair[1] == frame_k[1]


@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
def test_frame_rhs_is_the_rescaled_physical_rhs(p):
    # with k = kappa / lambda, h = lambda eta and dtau = dt G(1/lambda) / lambda^2:
    # kappa_tau = lambda^3 / G(1/lambda) k_t - m kappa and
    # eta_tau = lambda / G(1/lambda) h_t + m eta, with m the mean of Phi_l(kappa)
    g = AngleGrid(128)
    law = power_law(p)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    sp = geometry.support_from_curvature(kp)
    lam = 0.37
    unit = law.g(1.0 / lam)
    dy, m, frame_unit, _ = flow._rhs(np.array([lam * kp.k, sp.h / lam]), 1, g, law,
                                     math.log(lam))
    assert frame_unit == pytest.approx(unit, rel=1e-15)
    assert m == pytest.approx(float(np.mean(law.phi(kp.k))) * lam / unit, rel=1e-13)
    physical = flow._rhs(np.array([kp.k, sp.h]), 1, g, law)[0]
    scale = np.max(np.abs(dy), axis=1)
    assert np.max(np.abs(dy[0] - (lam ** 3 / unit * physical[0] - m * lam * kp.k))) \
        <= 1e-12 * scale[0]
    assert np.max(np.abs(dy[1] - (lam / unit * physical[1] + m * sp.h / lam))) \
        <= 1e-12 * scale[1]
    # a circle, kappa = 1, is a fixed point whatever lambda is
    circle = flow._rhs(np.ones((1, g.n)), 1, g, law, math.log(lam))
    assert circle[1] == pytest.approx(1.0, rel=1e-15)
    assert np.max(np.abs(circle[0])) <= 1e-14


@pytest.mark.parametrize("unit", [0.0, math.inf])
def test_frame_rhs_rejects_a_stage_without_a_finite_positive_g_at_one_over_lambda(unit):
    # G is 1 on the rows, finite and positive, but ``unit`` at the scalar
    # 1/lambda: no time scale dtau / dt, whichever forms the stack holds
    g = AngleGrid(32)
    law = dataclasses.replace(power_law(1),
                              g=lambda x: unit if np.ndim(x) == 0 else np.ones(np.shape(x)))
    kp = circle_kp(2.0, n=32)
    sp = geometry.support_from_curvature(kp)
    for y, ncurv in ((kp.k[None] * 2.0, 1), (sp.h[None] / 2.0, 0),
                     (np.array([kp.k * 2.0, sp.h / 2.0]), 1)):
        with pytest.raises(StepRejected, match=r"G\(1/lambda\) = "):
            flow._rhs(y, ncurv, g, law, math.log(2.0))


def test_stacked_step_matches_per_row_steps():
    g = AngleGrid(128)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    sp, other = _support_pair(g)
    law = power_law(1)
    stack = np.array([kp.k, sp.h, other.h])
    # a run's full step of the stack, S taken over all three rows
    scale = flow._step_scale(g)
    dt = scale / flow._stiffness(flow._rhs(stack, 1, g, law), 1.0, law, scale)
    coefficients = flow._etd_coefficients(g.n, scale)

    def etd(rows, ncurv):
        return flow._etd(rows, np.fft.rfft(rows), _first_stage(rows, ncurv, g, law), ncurv, dt,
                         coefficients, g, law)

    y = etd(stack, 1)[0]
    assert np.array_equal(y[0], etd(kp.k[None], 1)[0][0])
    for row, prof in zip(y[1:], (sp, other)):
        assert np.array_equal(row, etd(prof.h[None], 0)[0][0])


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
def test_etd_contour_means_match_series_and_closed_forms(n):
    g = AngleGrid(n)
    full = flow._step_scale(g)
    for level in range(3):  # the full step and two halvings
        scale = full / 2 ** level
        z = -scale * geometry.second_derivative_symbol(n)
        contour = flow._phi_functions(z)
        small, large = np.abs(z) < 1e-3, np.abs(z) > 1.0
        assert small.any() and (n <= 64 or large.any())
        zs, zl = z[small], z[large]
        # phi_j(z) = sum_i z^i / (i + j)!, and Q(z) = phi_1(z / 2) / 2
        series = [sum(zs ** i / math.factorial(i + j) for i in range(8)) for j in (1, 2, 3)]
        series.insert(0, 0.5 * sum((0.5 * zs) ** i / math.factorial(i + 1) for i in range(8)))
        em1 = np.expm1(zl)
        closed = (np.expm1(0.5 * zl) / zl, em1 / zl, (em1 - zl) / zl ** 2,
                  (em1 - zl - 0.5 * zl ** 2) / zl ** 3)
        for phi, by_series, by_closed in zip(contour, series, closed):
            assert np.max(np.abs(phi[small] / by_series - 1.0)) <= 1e-13
            if large.any():
                assert np.max(np.abs(phi[large] / by_closed - 1.0)) <= 1e-13
        # the mean mode has z = 0, where ETDRK4 is classical RK4
        e, e_half, q, f1, f2, f3, _ = flow._etd_coefficients(n, scale)
        assert e[0] == e_half[0] == 1.0
        assert q[0] == pytest.approx(0.5, rel=1e-15)
        for f in (f1, f2, f3):
            assert f[0] == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_linear_part_is_half_the_stiffness():
    # L = -(S / 2) sigma: a constant-coefficient stabilizer needs only half
    # the largest diffusion rate, and the rest of it stays in N
    n, scale = 128, flow.ETD_STEP
    sigma = geometry.second_derivative_symbol(n)
    e, _, _, _, _, _, linear = flow._etd_coefficients(n, scale)
    assert np.array_equal(linear.real, 0.5 * scale * sigma)
    decay = np.exp(-0.5 * scale * sigma)
    assert np.array_equal(e.real, np.where(decay < 1e-20, 0.0, decay))
    # the p = 4 ellipse, where kappa^2 Phi_l' spans the most, takes 11,039
    # steps at L = -S sigma; L = -(S / 4) sigma is unstable, with 2,323
    # rejections in 17,162 steps
    g = AngleGrid(128)
    traj = run(FlowConfig(law=power_law(4), initial=oracle.ellipse_profile(2.0, 1.0, g),
                          area_floor=1e-3, snapshot_every=1000))
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    assert traj.step_count < 8000 and traj.rejected_count <= 10


def _etd_to(y, ncurv, grid, law, eps, t_end):
    """Physical ETDRK4 steps with dt S = eps from t = 0, the last one clipped
    to land on t_end."""
    y_hat = np.fft.rfft(y)
    start = _first_stage(y, ncurv, grid, law)
    t = 0.0
    while t < t_end:
        stiffness = flow._stiffness(start, 1.0, law, eps)
        dt, scale = eps / stiffness, eps
        if t + dt >= t_end:
            dt = t_end - t
            scale = dt * stiffness
        coefficients = flow._etd_coefficients(grid.n, scale)
        y, y_hat, start, _, _, _ = flow._etd(y, y_hat, start, ncurv, dt, coefficients,
                                             grid, law)
        t = t_end if t + dt >= t_end else t + dt
    return y[0]


def test_etd_error_estimate_is_fourth_order():
    # the estimate is the gap to a third-order step: O(dt^4), 16x per halving
    g = AngleGrid(128)
    law = power_law(1)
    y = oracle.ellipse_profile(2.0, 1.0, g).k[None]
    start = _first_stage(y, 1, g, law)
    stiffness = flow._stiffness(start, 1.0, law, 1.0)
    errors = []
    for level in range(4):
        scale = flow.ETD_STEP / 2 ** level
        coefficients = flow._etd_coefficients(g.n, scale)
        errors.append(flow._etd(y, np.fft.rfft(y), start, 1, scale / stiffness,
                                coefficients, g, law)[3])
    assert errors[0] < flow.ETD_TOLERANCE  # the full step is accepted here
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 17.0


@pytest.mark.parametrize("p, formulation, t_end, min_slope, max_slope", [
    (1, "curvature", 0.5, 3.7, 4.3), (1, "support", 0.5, 3.7, 4.3),
    (2, "curvature", 0.3, 3.3, math.inf)])
def test_etd_convergence_order(p, formulation, t_end, min_slope, max_slope):
    # modelled on criterion 2: the run's eps, then eps/2 and eps/4, to a fixed t
    g = AngleGrid(128)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    y0 = kp.k[None] if formulation == "curvature" else \
        geometry.support_from_curvature(kp).h[None]
    ncurv = int(formulation == "curvature")
    eps = flow.ETD_STEP
    finals = [_etd_to(y0, ncurv, g, power_law(p), eps / 2 ** i, t_end) for i in range(3)]
    coarse = np.max(np.abs(finals[0] - finals[1]))
    fine = np.max(np.abs(finals[1] - finals[2]))
    slope = math.log2(coarse / fine)
    assert min_slope <= slope <= max_slope


def _frame_to(k, grid, law, eps, tau_end):
    """ETDRK4 steps in the frame with dtau S = eps from the curvature ``k``,
    the last one clipped to land on tau_end; returns kappa there and the
    run time t that the steps' quadratures sum."""
    ell = math.log(float(np.mean(1.0 / k)))
    y = math.exp(ell) * k[None]
    y_hat = np.fft.rfft(y)
    start = _first_stage(y, 1, grid, law, ell)
    tau = t = 0.0
    while tau < tau_end:
        stiffness = flow._stiffness(start, math.exp(ell), law, eps)
        dtau, scale = eps / stiffness, eps
        if tau + dtau >= tau_end:
            dtau = tau_end - tau
            scale = dtau * stiffness
        coefficients = flow._etd_coefficients(grid.n, scale)
        y, y_hat, end, _, ell_new, shape = flow._etd(y, y_hat, start, 1, dtau, coefficients,
                                                     grid, law, ell)
        t += flow._elapsed(ell, ell_new, start[1], end[1], dtau, law, shape)[0]
        ell, start = ell_new, end
        tau = tau_end if tau + dtau >= tau_end else tau + dtau
    return y[0], t


@pytest.mark.parametrize("p", [0.5, 1])
def test_frame_convergence_order(p):
    # as test_etd_convergence_order, in the frame: the run's eps, then eps/2
    # and eps/4, to a fixed tau, where kappa and the run time t both
    # converge at fourth order
    g = AngleGrid(128)
    k = oracle.ellipse_profile(2.0, 1.0, g).k
    eps = flow.ETD_STEP
    finals = [_frame_to(k, g, power_law(p), eps / 2 ** i, 1.5) for i in range(3)]
    for values in ([kappa for kappa, _ in finals], [t for _, t in finals]):
        coarse = np.max(np.abs(values[0] - values[1]))
        fine = np.max(np.abs(values[1] - values[2]))
        assert 3.7 <= math.log2(coarse / fine) <= 4.3


def _record_steps(monkeypatch):
    """(t, units, on_cadence) after every accepted step of the runs that follow."""
    ticks = []
    advance = flow._Clock.advance

    def recording(clock, dt, units, on_cadence):
        advance(clock, dt, units, on_cadence)
        ticks.append((clock.t, units, on_cadence))

    monkeypatch.setattr(flow._Clock, "advance", recording)
    return ticks


@pytest.mark.parametrize("n", [64, 128])
def test_snapshots_land_on_the_cfl_clock(monkeypatch, n):
    ticks = _record_steps(monkeypatch)
    g = AngleGrid(n)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=0.2, snapshot_every=50)
    traj = run(config)
    interior = traj.times()[1:-1]
    assert len(interior) >= 5
    # the interior snapshots are the steps that ended on a cadence mark ...
    assert interior == [t for t, _, on_cadence in ticks if on_cadence]
    # ... after exactly 50 CFL units each, the last step clipped to land there
    spans, units_since = [], 0.0
    for _, units, on_cadence in ticks:
        units_since += units
        if on_cadence:
            spans.append(units_since)
            units_since = 0.0
    assert spans == pytest.approx([50.0] * len(interior), rel=1e-12, abs=0.0)
    assert units_since < 50.0
    if n == 64:  # a full step is one CFL unit here, as an RK4 step is; no
        # step is rejected, and where this ellipse's estimates drop below
        # ETD_GROW steps double, so every step that neither a cadence mark
        # nor the area floor (the last step) clipped is 2^j full steps
        assert traj.rejected_count == 0
        assert all(units >= 1.0 and math.log2(units).is_integer()
                   for _, units, on_cadence in ticks[:-1] if not on_cadence)
    else:  # fewer than half the steps an RK4 run takes on the same clock
        assert len(ticks) < 0.5 * 50.0 * (len(interior) + 1)


def test_round_tail_steps_double_past_the_full_step(monkeypatch):
    # a circle is a fixed point of the frame: its estimates stay at
    # rounding, so its steps double from the full step, with no cap, until
    # the cadence (500 CFL units) clips them
    ticks = _record_steps(monkeypatch)
    g = AngleGrid(128)
    traj = run(FlowConfig(law=power_law(2), initial=circle_kp(1.0, n=128), area_floor=1e-3))
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    assert traj.step_count == len(ticks) <= 40  # 4,611 at a fixed full step
    scales = [units * flow._cfl_base(g) for _, units, _ in ticks]
    assert scales[:5] == pytest.approx([flow.ETD_STEP * 2 ** i for i in range(5)], rel=1e-12)
    cadence = 500 * flow._cfl_base(g)
    assert max(scales) == pytest.approx(cadence, rel=1e-12)
    assert sum(s > 0.99 * cadence for s in scales) > 0.5 * len(scales)
    assert traj.dt_s_max == max(scales)


def test_uncapped_circle_steps_to_the_floor(monkeypatch):
    # without a cadence only the area floor bounds a step: the circle's
    # steps double from the full step to the floor, exact to rounding
    ticks = _record_steps(monkeypatch)
    traj = run(FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=128),
                          snapshot_every=10 ** 9))
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    assert traj.step_count == len(ticks) <= 20
    longest = max(units for _, units, _ in ticks) * flow._cfl_base(AngleGrid(128))
    assert longest >= 512 * flow.ETD_STEP * (1.0 - 1e-12)
    # R(t)^2 = 1 - 2t
    err = max(float(np.max(np.abs(s.curvature.k * math.sqrt(1.0 - 2.0 * s.t) - 1.0)))
              for s in traj.snapshots)
    assert err < 1e-12
    est = traj.omega_estimate
    assert est.omega_lo <= 0.5 <= est.omega_hi


def _march_with_estimates(monkeypatch, estimates, every):
    """(units in full steps, on_cadence) of the accepted steps of a p = 1
    circle at n = 128 whose error estimates are ``estimates``, in order."""
    etd = flow._etd

    def scripted(*args):
        result = etd(*args)
        return (*result[:3], estimates.pop(0), *result[4:])

    monkeypatch.setattr(flow, "_etd", scripted)
    ticks = _record_steps(monkeypatch)
    g = AngleGrid(128)
    full = flow.ETD_STEP / flow._cfl_base(g)
    kp = circle_kp(1.0, n=128)
    clock = flow._Clock(every * full)
    for _ in flow._march(kp.k[None], 1, kp.k[None], g, power_law(1), clock, []):
        if not estimates:
            break
    return [(round(units / full, 9), on_cadence) for _, units, on_cadence in ticks]


def test_step_grows_only_while_its_estimate_is_below_etd_grow(monkeypatch):
    grow = flow.ETD_GROW
    # the raw estimate of each step decides: below ETD_GROW the next step is
    # twice as long, with no cap, and otherwise it keeps its length
    estimates = [0.0, 16.0 * grow, grow, 0.99 * grow, 1e3 * grow, 0.0, 0.0, 0.0]
    assert _march_with_estimates(monkeypatch, estimates, math.inf) == [
        (1.0, False), (2.0, False), (2.0, False), (2.0, False), (4.0, False),
        (4.0, False), (8.0, False), (16.0, False)]


def test_step_clipped_to_a_cadence_mark_keeps_its_level(monkeypatch):
    # marks every 4.5 full steps: the step of 4 that would pass 4.5 is
    # clipped, and its estimate, below ETD_GROW, does not double the next
    # one; nor does the step of 8 clipped at 9, or those clipped after it
    estimates = [0.0] * 7
    assert _march_with_estimates(monkeypatch, estimates, 4.5) == [
        (1.0, False), (2.0, False), (1.5, True), (4.0, False), (0.5, True),
        (4.5, True), (4.5, True)]


def test_shortened_step_redoubles_up_to_the_full_step(monkeypatch):
    # a rejected step halves; the shortened steps double again while their
    # estimates are below ETD_TOLERANCE / 32, and from the full step on
    # while they are below ETD_GROW
    tol = flow.ETD_TOLERANCE
    estimates = [2.0 * tol, tol / 16.0, tol / 64.0, tol / 64.0, 0.0, 0.0]
    assert _march_with_estimates(monkeypatch, estimates, math.inf) == [
        (0.5, False), (0.5, False), (1.0, False), (1.0, False), (2.0, False)]


def test_full_step_grows_on_coarse_grids(monkeypatch):
    # on n <= 64 the full step is the RK4 stability bound, one CFL unit;
    # the circle's steps double from it while the estimate allows, as they
    # double from ETD_STEP on n >= 128, and stay exact to rounding
    ticks = _record_steps(monkeypatch)
    for n in (32, 64):
        ticks.clear()
        traj = run(FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=n)))
        assert flow._step_scale(AngleGrid(n)) == flow._cfl_base(AngleGrid(n))
        assert traj.stop_reason == flow.STOP_AREA_FLOOR
        assert traj.step_count == len(ticks) <= 20
        assert [units for _, units, _ in ticks[:4]] == [1.0, 2.0, 4.0, 8.0]
        # R(t)^2 = 1 - 2t
        err = max(float(np.max(np.abs(s.curvature.k * math.sqrt(1.0 - 2.0 * s.t) - 1.0)))
                  for s in traj.snapshots)
        assert err < 1e-12
        est = traj.omega_estimate
        assert est.omega_lo <= 0.5 <= est.omega_hi


def test_rejected_steps_are_counted(monkeypatch, tmp_path):
    rhs = flow._rhs
    calls = []

    def reject_once(*args):
        calls.append(None)
        if len(calls) == 2:  # the second stage of the first step
            raise StepRejected("forced")
        return rhs(*args)

    monkeypatch.setattr(flow, "_rhs", reject_once)
    assert cli.execute_run(cli.RunSpec(curve="circle:1", n=64, area_floor=0.5),
                           tmp_path) == 0
    steps = json.loads((tmp_path / "summary.json").read_text())["steps"]
    assert steps["rejected"] == 1


def test_a_t_quadrature_that_has_not_converged_rejects_the_step(monkeypatch):
    # a tolerance no pair of sums meets, on the first step's quadrature only:
    # that step is rejected and retried at half its length, and the run
    # goes on to its floor
    elapsed, rtol, calls = flow._elapsed, flow._T_QUADRATURE_RTOL, []

    def unconverged_once(*args):
        calls.append(None)
        monkeypatch.setattr(flow, "_T_QUADRATURE_RTOL", -1.0 if len(calls) == 1 else rtol)
        return elapsed(*args)

    monkeypatch.setattr(flow, "_elapsed", unconverged_once)
    ticks = _record_steps(monkeypatch)
    g = AngleGrid(128)
    traj = run(FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=128)))
    assert traj.rejected_count == 1
    assert ticks[0][1] * flow._cfl_base(g) == pytest.approx(flow.ETD_STEP / 2.0, rel=1e-12)
    assert traj.stop_reason == flow.STOP_AREA_FLOOR


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024])
def test_spectral_area_obeys_the_blaschke_bound(n):
    # run skips the exact area check while pi / k_max^2 > 2 * floor, relying
    # on Blaschke's rolling theorem A >= pi / k_max^2 for the spectral area
    from conftest import random_convex_support
    g = AngleGrid(n)
    rng = np.random.default_rng(n)
    ks = [oracle.ellipse_profile(a, 1.0, g).k for a in (1.0, 1.01, 1.5, 2.0, 4.0, 8.0, 16.0)]
    ks += [np.full(n, 1.0 / r) for r in (0.3, 1.0, 7.0)]
    for _ in range(30):
        sp = random_convex_support(g, rng, rel=rng.uniform(0.02, 0.18))
        ks.append(1.0 / geometry.curvature_radius(sp))
    for k in ks:
        # equality holds for circles, up to roundoff
        bound = math.pi / float(np.max(k)) ** 2
        assert geometry.area_from_curvature(k, g) >= (1.0 - 1e-12) * bound


@pytest.mark.parametrize("p", [1, 2])
def test_area_gate_keeps_the_stop_step(p):
    g = AngleGrid(64)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    law = power_law(p)
    config = FlowConfig(law=law, initial=kp, area_floor=1e-3, snapshot_every=10 ** 6)
    traj = run(config)
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    # reference: the exact area on every step
    floor = config.area_floor * geometry.area_from_curvature(kp.k, g)
    steps = 0
    clock = flow._Clock(config.snapshot_every)
    for state in flow._march(kp.k[None], 1, kp.k[None], g, law, clock, [floor]):
        steps += 1
        if state.lam ** 2 * geometry.area_from_curvature(state.kappa[0], g) <= floor:
            break
    assert traj.step_count == steps
    assert traj.last.t == state.t
    # the last step lands just past the floor
    assert (1.0 - 1e-5) * floor <= traj.last.summary.area <= floor


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_circle_stops_near_exact_time():
    config = FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=64),
                        area_floor=1e-2)
    traj = run(config)
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    # A = 0.01 pi at R = 0.1, i.e. t = (1 - R^2)/2 = 0.495
    assert traj.last.t == pytest.approx(0.495, abs=1e-3)
    assert traj.step_count > 0 and traj.dt_min <= traj.dt_max


def test_run_ellipse_kmin_nondecreasing():
    g = AngleGrid(128)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=1e-2, snapshot_every=200)
    traj = run(config)
    kmins = [s.k_min for s in traj.summaries()]
    for a, b in zip(kmins, kmins[1:]):
        assert b >= a - 1e-10 * a
    # snapshot times strictly increase, and the discrete closure drift stays
    # far below the 1e-6 L budget the support solve needs
    times = traj.times()
    assert all(b > a for a, b in zip(times, times[1:]))
    for s in traj.summaries():
        assert s.closure_residual_norm <= 1e-6 * s.length / math.sqrt(2.0)


def test_stable_dt_formula_value():
    # k = 1, p = 1: diffusion coefficient 1, Fourier radius factor 1
    kp = circle_kp(1.0, n=256)
    dt = stable_dt(kp, power_law(1))
    assert dt == pytest.approx(0.4 * kp.grid.dtheta ** 2 / 2.0, rel=1e-15)


@pytest.mark.parametrize("n", [32, 64, 128, 4096])
def test_full_step_is_the_longer_of_etd_step_and_one_cfl_unit(n):
    g = AngleGrid(n)
    unit = 0.4 * g.dtheta ** 2 / 2.0
    assert flow._cfl_base(g) == unit
    assert flow._step_scale(g) == (unit if n <= 64 else 0.0015)


def test_run_circle_affine_exponent():
    config = FlowConfig(law=power_law(1.0 / 3.0), initial=circle_kp(1.0, n=64))
    traj = run(config)
    est = traj.omega_estimate
    assert traj.last.t < 0.75
    assert est.omega_lo <= 0.75 <= est.omega_hi
    assert not traj.roundness_expected  # (H1) fails for p < 1


@pytest.mark.parametrize("formulation", ["curvature", "support"])
def test_run_affine_ellipse_matches_the_homothetic_solution(formulation):
    # the only exact reference that is not a circle: on a circle Phi(k)'' = 0,
    # so a wrong second derivative would go unseen
    g = AngleGrid(128)
    sol = oracle.affine_ellipse_solution(2.0, 1.0)
    initial = (oracle.ellipse_profile(2.0, 1.0, g) if formulation == "curvature"
               else oracle.ellipse_support(2.0, 1.0, g))
    traj = run(FlowConfig(law=power_law(1.0 / 3.0), initial=initial, area_floor=1e-2,
                          snapshot_every=250, formulation=formulation))
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    err = max(float(np.max(np.abs(s.curvature.k / sol.curvature(g, s.t).k - 1.0)))
              for s in traj.snapshots)
    assert err < 1e-6  # the bound of acceptance criterion 1
    est = traj.omega_estimate
    assert est.omega_lo <= sol.omega <= est.omega_hi


def test_run_curvature_cap_stop():
    config = FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=64),
                        area_floor=1e-6, k_cap=5.0)
    traj = run(config)
    assert traj.stop_reason == flow.STOP_CURVATURE_CAP
    assert traj.last.summary.k_max >= 5.0


def test_run_step_limit_stop():
    config = FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=64),
                        max_steps=10, snapshot_every=5)
    traj = run(config)
    assert traj.stop_reason == flow.STOP_STEP_LIMIT
    assert traj.step_count == 10


@pytest.mark.parametrize("driver", ["curvature", "support", "both", "containment"])
def test_drivers_match_numpy_transforms_bit_for_bit(monkeypatch, driver):
    # geometry.rfft/irfft skip numpy.fft's wrapper; every run and containment
    # result must equal the one made through numpy.fft itself
    g = AngleGrid(64)
    initial = oracle.ellipse_profile(2.0, 1.0, g)
    inner = SupportProfile(g, np.full(g.n, 0.5))

    def drive():
        if driver == "containment":
            config = FlowConfig(law=power_law(2), initial=initial, area_floor=0.3,
                                snapshot_every=20, formulation="support")
            report = containment_run(config, inner)
            return [report.times, report.min_gap, [report.stop_reason]]
        config = FlowConfig(law=power_law(2), initial=initial, area_floor=0.3,
                            snapshot_every=20, formulation=driver)
        traj = run(config)
        states = [[s.t, *s.flux, *dataclasses.astuple(s.summary)] for s in traj.snapshots]
        rows = [np.concatenate((s.curvature.k, s.support.h)) for s in traj.snapshots]
        return [np.array(states), np.array(rows), [traj.stop_reason, traj.step_count]]

    direct = drive()
    monkeypatch.setattr(geometry, "rfft", np.fft.rfft)
    monkeypatch.setattr(geometry, "irfft", np.fft.irfft)
    through_numpy = drive()
    assert len(direct[0]) > 2
    for ours, theirs in zip(direct, through_numpy):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("driver", ["curvature", "support", "both", "containment"])
def test_run_convexity_loss_is_a_stop_not_a_crash(monkeypatch, driver):
    # the parabolic smoothing makes genuine convexity loss unreachable from
    # valid data, so exhaust the rejection/halving path directly
    def always_reject(*args):
        raise StepRejected("forced")

    rhs = flow._rhs
    monkeypatch.setattr(flow, "_rhs", always_reject)
    g = AngleGrid(64)
    sp = SupportProfile(g, np.ones(g.n))
    if driver == "containment":
        config = FlowConfig(law=power_law(1), initial=sp, formulation="support")
        report = containment_run(config, sp)
        assert report.stop_reason == flow.STOP_CONVEXITY_LOSS
        assert report.times == [0.0]
        # rejected only after some steps were accepted, far from a cadence
        # mark: the last accepted state is recorded
        calls = []

        def reject_later(*args):
            calls.append(None)
            if len(calls) > 30:
                raise StepRejected("forced")
            return rhs(*args)

        monkeypatch.setattr(flow, "_rhs", reject_later)
        report = containment_run(config, sp)
        assert report.stop_reason == flow.STOP_CONVEXITY_LOSS
        assert report.times[-1] > 0.0
        return
    config = FlowConfig(law=power_law(1), initial=sp, formulation=driver)
    traj = run(config)
    assert traj.stop_reason == flow.STOP_CONVEXITY_LOSS
    assert traj.snapshots  # last good state is recorded
    assert traj.step_count == 0


@pytest.mark.parametrize("formulation, solves", [
    ("curvature", "per-snapshot"), ("support", "initial"), ("both", "per-snapshot")])
def test_snapshots_solve_the_support_once(monkeypatch, formulation, solves):
    calls = []
    solve = geometry.support_from_curvature

    def counted(kp):
        calls.append(kp.t)
        return solve(kp)

    monkeypatch.setattr(geometry, "support_from_curvature", counted)
    g = AngleGrid(64)
    traj = run(FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                          area_floor=0.2, snapshot_every=100, formulation=formulation))
    assert len(traj.snapshots) > 2
    # one solve for the initial profile when a support row evolves, then one
    # per curvature-form snapshot
    expected = ((formulation != "curvature")
                + (len(traj.snapshots) if solves == "per-snapshot" else 0))
    assert len(calls) == expected


@pytest.mark.parametrize("formulation", ["curvature", "support", "both"])
def test_snapshots_hold_only_their_own_rows(formulation):
    # a row kept as a view of the step's (B, n) transform output would keep
    # the rows the snapshot does not use alive with it
    g = AngleGrid(64)
    traj = run(FlowConfig(law=power_law(2), initial=oracle.ellipse_profile(2.0, 1.0, g),
                          area_floor=0.3, snapshot_every=20, formulation=formulation))
    assert len(traj.snapshots) > 3
    for snap in traj.snapshots:
        for row in (snap.curvature.k, snap.support.h):
            assert row.shape == (g.n,)
            assert row.base is None or row.base.size == g.n


def test_run_rejects_bad_config():
    kp = circle_kp(1.0, n=64)
    with pytest.raises(ValueError):
        FlowConfig(law=power_law(1), initial=kp, area_floor=1.0)
    with pytest.raises(ValueError):
        FlowConfig(law=power_law(1), initial=kp, formulation="spectral")
    with pytest.raises(ValueError):  # k_cap below k_max(0) = 1 fails when built
        FlowConfig(law=power_law(1), initial=kp, k_cap=0.5)
    for cap in (np.inf, np.nan):  # the law is probed up to the cap
        with pytest.raises(ValueError):
            FlowConfig(law=power_law(1), initial=kp, k_cap=cap)


def test_run_rejects_nonparabolic_law():
    from curveflow.speed_law import SpeedLaw
    # G = x^-2 makes Phi = 1/x, Phi' < 0: backward heat equation
    law = SpeedLaw(g=lambda x: x ** -2.0, g_prime=lambda x: -2.0 * x ** -3.0,
                   g_double_prime=lambda x: 6.0 * x ** -4.0, label="inverse-square")
    with pytest.raises(HypothesisViolationError):
        run(FlowConfig(law=law, initial=circle_kp(1.0, n=64)))


def test_run_support_and_both_formulations():
    g = AngleGrid(128)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    law = power_law(1)
    traj_b = run(FlowConfig(law=law, initial=kp, formulation="both",
                            area_floor=5e-2, snapshot_every=500))
    assert traj_b.form_disagreement is not None
    assert max(traj_b.form_disagreement) < 1e-7
    traj_s = run(FlowConfig(law=law, initial=kp, formulation="support",
                            area_floor=5e-2, snapshot_every=500))
    assert traj_s.stop_reason == flow.STOP_AREA_FLOOR
    # the two single-form runs land at comparable times
    assert traj_s.last.t == pytest.approx(traj_b.last.t, rel=1e-3)


# ---------------------------------------------------------------------------
# blow-up estimate and containment
# ---------------------------------------------------------------------------

def test_tail_mass_circle_identity():
    # int_k^inf dx/x^3 = 1/(2k^2) = R^2/2; at t = 0.4, R^2 = 0.2
    law = power_law(1)
    k = 1.0 / math.sqrt(0.2)
    assert law.tail_mass(k) == pytest.approx(0.1, rel=1e-14)


def test_estimate_blowup_requires_asymptotic_regime():
    traj = oracle.circle_trajectory(1.0, 1.0, [0.0, 0.4], n=64)
    with pytest.raises(InsufficientDataError):
        estimate_blowup(traj)


def test_estimate_blowup_circle_bracket():
    times = [0.0, 0.2, 0.4, 0.4955]  # k grows past 10x at the end
    traj = oracle.circle_trajectory(1.0, 1.0, times, n=64)
    est = estimate_blowup(traj)
    assert est.omega_lo <= 0.5 <= est.omega_hi
    assert est.omega_hi - est.omega_lo < 1e-9
    assert est.method == "closed-form"
    assert traj.last.t < est.omega_lo <= est.omega_mid <= est.omega_hi


@pytest.mark.parametrize("n", [64, 128])
def test_estimate_blowup_of_an_exact_trajectory_pads_only_for_rounding(n):
    # an exact trajectory's raw bracket collapses onto omega = 3/4; it is
    # widened by the 1e-11 relative rounding floor alone, on any grid
    traj = oracle.circle_trajectory(1.0, 1.0 / 3.0, [0.0, 0.736], n=n)
    est = estimate_blowup(traj)
    assert est.omega_lo == pytest.approx(0.75 - 0.75e-11, rel=1e-15)
    assert est.omega_hi == pytest.approx(0.75 + 0.75e-11, rel=1e-15)


def test_blowup_bracket_does_not_read_the_longest_step(tmp_path):
    # the run's circle steps end clipped to the cadence, 500 CFL units, far
    # past the full step: the bracket needs no allowance for them, its
    # width is the rounding floor's, and it holds the exact omega
    spec = cli.RunSpec(law="power:1", curve="circle:1", n=128, area_floor=5e-3)
    assert cli.execute_run(spec, tmp_path) == 0
    steps = json.loads((tmp_path / "summary.json").read_text())["steps"]
    g = AngleGrid(128)
    assert steps["dt_s_max"] == pytest.approx(500 * flow._cfl_base(g), rel=1e-12)
    traj = run(FlowConfig(law=power_law(1), initial=circle_kp(1.0, n=128), area_floor=5e-3))
    assert traj.dt_s_max == steps["dt_s_max"]
    est = traj.omega_estimate
    assert estimate_blowup(dataclasses.replace(traj, dt_s_max=0.0)) == est
    assert est.omega_hi - est.omega_lo == pytest.approx(1e-11, rel=1e-3)
    assert est.omega_lo <= 0.5 <= est.omega_hi


def test_containment_concentric_circles():
    g = AngleGrid(128)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    law = power_law(1)
    config = FlowConfig(law=law, initial=outer, area_floor=1e-2,
                        snapshot_every=200, formulation="support")
    report = containment_run(config, inner)
    assert report.all_ok
    assert report.stop_reason == flow.STOP_AREA_FLOOR
    for t, gap in zip(report.times, report.min_gap):
        exact = math.sqrt(4.0 - 2.0 * t) - math.sqrt(1.0 - 2.0 * t)
        assert gap == pytest.approx(exact, abs=1e-6)
    # the gap grows until the inner circle disappears
    assert report.min_gap[-1] > report.min_gap[0]


def test_containment_curvature_cap_stop():
    g = AngleGrid(64)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    config = FlowConfig(law=power_law(1), initial=outer, k_cap=1.5, snapshot_every=200,
                        formulation="support")
    report = containment_run(config, inner)
    assert report.stop_reason == flow.STOP_CURVATURE_CAP
    # the inner radius sqrt(1 - 2t) reaches 1/1.5; the stop records its gap
    t_cap = (1.0 - 1.0 / 1.5 ** 2) / 2.0
    assert report.times[-1] == pytest.approx(t_cap, abs=1e-3)
    exact = math.sqrt(4.0 - 2.0 * report.times[-1]) - math.sqrt(1.0 - 2.0 * report.times[-1])
    assert report.min_gap[-1] == pytest.approx(exact, abs=1e-6)


def test_containment_step_limit_stop(monkeypatch):
    g = AngleGrid(64)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    config = FlowConfig(law=power_law(1), initial=outer, max_steps=10, snapshot_every=5,
                        formulation="support")
    ticks = _record_steps(monkeypatch)
    report = containment_run(config, inner)
    assert report.stop_reason == flow.STOP_STEP_LIMIT
    assert len(ticks) == 10 and ticks[-1][2]
    # t = 0 and every step that lands on a cadence mark, the last one included
    assert report.times == [0.0] + [t for t, _, on_cadence in ticks if on_cadence]
    assert report.all_ok


def test_containment_step_limit_off_cadence_records_the_final_gap(monkeypatch):
    g = AngleGrid(64)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    ticks = _record_steps(monkeypatch)
    report = containment_run(FlowConfig(law=power_law(1), initial=outer, max_steps=10,
                                        snapshot_every=20, formulation="support"), inner)
    assert report.stop_reason == flow.STOP_STEP_LIMIT
    assert len(ticks) == 10 and not ticks[-1][2]
    # t = 0 and the steps on a cadence mark, then the final state at step 10
    marks = [t for t, _, on_cadence in ticks if on_cadence]
    assert marks and report.times == [0.0, *marks, ticks[-1][0]]
    # each gap is the exact one of its state, sqrt(4 - 2t) - sqrt(1 - 2t)
    exact = [math.sqrt(4.0 - 2.0 * t) - math.sqrt(1.0 - 2.0 * t) for t in report.times]
    assert report.min_gap == pytest.approx(exact, abs=1e-9)


def test_containment_identical_curves():
    g = AngleGrid(128)
    sp = geometry.support_from_curvature(oracle.ellipse_profile(1.5, 1.0, g))
    law = power_law(1)
    config = FlowConfig(law=law, initial=sp, area_floor=5e-2, snapshot_every=200,
                        formulation="support")
    report = containment_run(config, sp)
    assert report.all_ok
    assert max(abs(v) for v in report.min_gap) < 1e-12


def test_containment_requires_nesting():
    g = AngleGrid(128)
    outer = SupportProfile(g, np.full(g.n, 1.0))
    inner = SupportProfile(g, np.full(g.n, 2.0))
    config = FlowConfig(law=power_law(1), initial=outer, formulation="support")
    with pytest.raises(ValueError):
        containment_run(config, inner)
    # nor can a pair on two grids be compared
    with pytest.raises(ValueError, match="share a grid"):
        containment_run(config, SupportProfile(AngleGrid(64), np.full(64, 0.5)))


def test_containment_underflowing_law_is_a_domain_error():
    # G = k^2 underflows to 0 on circles this large; the law is parabolic,
    # so HypothesisViolationError would misname the failure
    g = AngleGrid(32)
    outer = SupportProfile(g, np.full(g.n, 2e200))
    inner = SupportProfile(g, np.full(g.n, 1e200))
    config = FlowConfig(law=power_law(3), initial=outer, formulation="support")
    with pytest.raises(SpeedLawDomainError) as err:
        containment_run(config, inner)
    assert err.value.abscissa == pytest.approx(0.25e-200)  # k_min(0) / 2


def test_containment_takes_its_outer_curve_from_the_config():
    g = AngleGrid(64)
    outer = SupportProfile(g, np.full(g.n, 1.0))
    inner = SupportProfile(g, np.full(g.n, 0.5))
    report = containment_run(FlowConfig(law=power_law(1), initial=outer, area_floor=1e-2,
                                        snapshot_every=200, formulation="support"), inner)
    assert report.stop_reason == flow.STOP_AREA_FLOOR
    for t, gap in zip(report.times, report.min_gap):
        exact = math.sqrt(1.0 - 2.0 * t) - math.sqrt(0.25 - 2.0 * t)
        assert gap == pytest.approx(exact, abs=1e-6)


def test_containment_takes_either_form():
    g = AngleGrid(64)
    outer, inner = oracle.ellipse_profile(2.0, 1.5, g), oracle.circle_profile(1.0, g)
    solved = [geometry.support_from_curvature(p) for p in (outer, inner)]
    settings = dict(law=power_law(1), area_floor=0.1, snapshot_every=50, formulation="support")
    report = containment_run(FlowConfig(initial=outer, **settings), inner)
    assert len(report.times) > 2 and report.all_ok
    assert report == containment_run(FlowConfig(initial=solved[0], **settings), solved[1])


@pytest.mark.parametrize("formulation", ["curvature", "both"])
def test_containment_evolves_support_form_only(formulation):
    sp = SupportProfile(AngleGrid(64), np.ones(64))
    with pytest.raises(ValueError, match="support"):
        containment_run(FlowConfig(law=power_law(1), initial=sp, formulation=formulation), sp)


def test_containment_rejects_nonparabolic_law_before_any_step(monkeypatch):
    from curveflow.speed_law import SpeedLaw
    law = SpeedLaw(g=lambda x: x ** -2.0, g_prime=lambda x: -2.0 * x ** -3.0,
                   g_double_prime=lambda x: 6.0 * x ** -4.0, label="inverse-square")

    def no_step(*args):
        raise AssertionError("stepped a non-parabolic law")

    monkeypatch.setattr(flow, "_march", no_step)
    g = AngleGrid(64)
    config = FlowConfig(law=law, initial=SupportProfile(g, np.full(g.n, 2.0)),
                        formulation="support")
    with pytest.raises(HypothesisViolationError):
        containment_run(config, SupportProfile(g, np.ones(g.n)))


def test_the_gate_leaves_a_nan_phi_prime_to_the_stepper():
    # a NaN Phi', as an overflow gives, is no Phi' <= 0: the gate reports it
    # and does not refuse the law
    law = power_law(1)
    nan_above = dataclasses.replace(
        law, g_prime=lambda x: np.where(x > 1e3, math.nan, law.g_prime(x)))
    assert math.isnan(flow._check_law(nan_above, 0.5, 2e6).min_phi_prime)


def test_run_and_containment_refuse_a_law_at_one_gate(monkeypatch):
    # G = k^19 overflows on the upper probes of [k_min(0) / 2, 1e6 k_max(0)]
    # = [5e11, 1e18]: run and containment_run probe the law once each,
    # through one gate, and refuse it at the same abscissa
    gate, ranges = flow._check_law, []

    def counted(law, k_lo, k_hi):
        ranges.append((k_lo, k_hi))
        return gate(law, k_lo, k_hi)

    monkeypatch.setattr(flow, "_check_law", counted)
    g = AngleGrid(32)
    outer, inner = (SupportProfile(g, np.full(g.n, r)) for r in (1e-12, 0.5e-12))
    config = FlowConfig(law=power_law(20), initial=outer, area_floor=0.1)
    with pytest.raises(SpeedLawDomainError) as ran:
        run(config)
    with pytest.raises(SpeedLawDomainError) as paired:
        containment_run(dataclasses.replace(config, formulation="support"), inner)
    assert ran.value.abscissa == paired.value.abscissa
    assert str(ran.value) == str(paired.value)
    assert len(ranges) == 2 and ranges[0] == pytest.approx(ranges[1], rel=1e-15)


def test_the_gate_and_check_hypotheses_evaluate_g_on_one_probe_set():
    # run's gate judges a law by the report check-law prints: one law.g
    # call, on the speed_law.PROBES points of the range
    law, seen = power_law(2), []

    def recorded_g(x):
        seen.append(np.array(x, copy=True))
        return law.g(x)

    watched = dataclasses.replace(law, g=recorded_g)
    flow._check_law(watched, 0.5, 2e6)
    gate = seen[:]
    seen.clear()
    check_hypotheses(watched, 0.5, 2e6)
    assert len(gate) == len(seen) == 1 and seen[0].shape == (PROBES,)
    assert np.array_equal(gate[0], seen[0])
