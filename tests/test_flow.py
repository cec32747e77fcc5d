import json
import math

import numpy as np
import pytest

from curveflow import cli, flow, geometry, oracle
from curveflow.errors import (
    ConvexityLossError,
    HypothesisViolationError,
    InsufficientDataError,
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
from curveflow.speed_law import power_law


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


# one case, keeping the test ids of the suite's former two spatial schemes
@pytest.mark.parametrize("scheme", ["fourier"])
def test_stacked_stage_matches_per_row_rhs(scheme):
    g = AngleGrid(128)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    sp, other = _support_pair(g)
    law = power_law(2)
    # the per-row definitions, one second derivative per row
    phi = law.g(kp.k) * kp.k
    by_def_k = kp.k * kp.k * (geometry.second_derivative(phi, g) + phi)
    rho = geometry.second_derivative(sp.h, g) + sp.h
    by_def_h = -(law.g(1.0 / rho) * (1.0 / rho))

    pair = flow._rhs(np.array([kp.k, sp.h]), 1, g, law)
    assert np.array_equal(pair[0], rhs_curvature(kp, law))
    assert np.array_equal(pair[0], by_def_k)
    assert np.array_equal(pair[1], rhs_support(sp, law))
    assert np.array_equal(pair[1], by_def_h)

    two = flow._rhs(np.array([sp.h, other.h]), 0, g, law)
    assert np.array_equal(two[0], rhs_support(sp, law))
    assert np.array_equal(two[1], rhs_support(other, law))


# one case, keeping the test ids of the suite's former two spatial schemes
@pytest.mark.parametrize("scheme", ["fourier"])
def test_stacked_step_matches_per_row_steps(scheme):
    g = AngleGrid(128)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    sp, other = _support_pair(g)
    law = power_law(1)
    stack = np.array([kp.k, sp.h, other.h])
    # a run's full step of the stack, S taken over all three rows
    scale = flow._step_scale(g)
    dt = scale / flow._stiffness(stack, 1, geometry.second_derivative(stack[1:], g) + stack[1:],
                                 law, scale)
    coefficients = flow._etd_coefficients(g.n, scale)

    def etd(rows, ncurv):
        return flow._etd(rows, np.fft.rfft(rows), None, ncurv, dt, coefficients, g, law)

    y, rho = etd(stack, 1)[:2]
    assert np.array_equal(y[0], etd(kp.k[None], 1)[0][0])
    for row, row_rho, prof in zip(y[1:], rho, (sp, other)):
        alone, alone_rho = etd(prof.h[None], 0)[:2]
        assert np.array_equal(row, alone[0]) and np.array_equal(row_rho, alone_rho[0])
    # rho is h'' + h of the result, from the step's own spectrum: it matches a
    # second derivative of the result to the rounding that m^2 amplifies
    d2 = geometry.second_derivative(y[1:], g)
    assert np.max(np.abs(rho - (d2 + y[1:]))) <= 1e-11 * rho.max()


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
        e, e_half, q, f1, f2, f3, _, _ = flow._etd_coefficients(n, scale)
        assert e[0] == e_half[0] == 1.0
        assert q[0] == pytest.approx(0.5, rel=1e-15)
        for f in (f1, f2, f3):
            assert f[0] == pytest.approx(1.0 / 6.0, rel=1e-14)


def _etd_to(y, ncurv, grid, law, eps, t_end):
    """ETDRK4 steps with dt S = eps from t = 0, the last one clipped to land on t_end."""
    h = y[ncurv:]
    rho = geometry.second_derivative(h, grid) + h if len(h) else None
    y_hat = np.fft.rfft(y)
    r_hat = np.fft.rfft(flow._rhs(y, ncurv, grid, law))
    t = 0.0
    while t < t_end:
        stiffness = flow._stiffness(y, ncurv, rho, law, eps)
        dt, scale = eps / stiffness, eps
        if t + dt >= t_end:
            dt = t_end - t
            scale = dt * stiffness
        coefficients = flow._etd_coefficients(grid.n, scale)
        y, rho, y_hat, r_hat, _ = flow._etd(y, y_hat, r_hat, ncurv, dt, coefficients,
                                            grid, law)
        t = t_end if t + dt >= t_end else t + dt
    return y[0]


def test_etd_error_estimate_is_fourth_order():
    # the estimate is the gap to a third-order step: O(dt^4), 16x per halving
    g = AngleGrid(128)
    law = power_law(1)
    y = oracle.ellipse_profile(2.0, 1.0, g).k[None]
    stiffness = flow._stiffness(y, 1, None, law, 1.0)
    errors = []
    for level in range(4):
        scale = flow.ETD_STEP / 2 ** level
        coefficients = flow._etd_coefficients(g.n, scale)
        errors.append(flow._etd(y, np.fft.rfft(y), None, 1, scale / stiffness,
                                coefficients, g, law)[-1])
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


@pytest.mark.parametrize("n", [64, 128])
def test_snapshots_land_on_the_cfl_clock(monkeypatch, n):
    ticks = []
    advance = flow._Clock.advance

    def recording(clock, dt, units, on_cadence):
        advance(clock, dt, units, on_cadence)
        ticks.append((clock.t, units, on_cadence))

    monkeypatch.setattr(flow._Clock, "advance", recording)
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
    if n == 64:  # a full step is one CFL unit here, as an RK4 step is
        assert all(units == 1.0 for _, units, _ in ticks)
    else:  # fewer than half the steps an RK4 run takes on the same clock
        assert len(ticks) < 0.5 * 50.0 * (len(interior) + 1)


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
        assert flow._support_area_from_k(k, g) >= (1.0 - 1e-12) * bound


@pytest.mark.parametrize("p", [1, 2])
def test_area_gate_keeps_the_stop_step(p):
    g = AngleGrid(64)
    kp = oracle.ellipse_profile(2.0, 1.0, g)
    law = power_law(p)
    config = FlowConfig(law=law, initial=kp, area_floor=1e-3, snapshot_every=10 ** 6)
    traj = run(config)
    assert traj.stop_reason == flow.STOP_AREA_FLOOR
    # reference: the exact area on every step
    floor = config.area_floor * traj.snapshots[0].summary.area
    steps = 0
    clock = flow._Clock(config.snapshot_every)
    for t, y, _, _ in flow._march(kp.k[None], 1, None, g, law, clock):
        steps += 1
        if flow._support_area_from_k(y[0], g) <= floor:
            break
    assert traj.step_count == steps
    assert traj.last.t == t


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
def test_run_convexity_loss_is_a_stop_not_a_crash(monkeypatch, driver):
    # the parabolic smoothing makes genuine convexity loss unreachable from
    # valid data, so exhaust the rejection/halving path directly
    def always_reject(y, ncurv, grid, law):
        raise StepRejected("forced")

    monkeypatch.setattr(flow, "_rhs", always_reject)
    g = AngleGrid(64)
    sp = SupportProfile(g, np.ones(g.n))
    if driver == "containment":
        config = FlowConfig(law=power_law(1), initial=sp)
        report = containment_run(sp, sp, config)
        assert report.stop_reason == flow.STOP_CONVEXITY_LOSS
        assert report.times == [0.0]
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


def test_run_rejects_bad_config():
    kp = circle_kp(1.0, n=64)
    with pytest.raises(ValueError):
        FlowConfig(law=power_law(1), initial=kp, area_floor=1.0)
    with pytest.raises(ValueError):
        FlowConfig(law=power_law(1), initial=kp, formulation="spectral")
    with pytest.raises(ValueError):  # k_cap below k_max(0) = 1 fails when built
        FlowConfig(law=power_law(1), initial=kp, k_cap=0.5)


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


def test_containment_concentric_circles():
    g = AngleGrid(128)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    law = power_law(1)
    config = FlowConfig(law=law, initial=outer, area_floor=1e-2,
                        snapshot_every=200)
    report = containment_run(outer, inner, config)
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
    config = FlowConfig(law=power_law(1), initial=outer, k_cap=1.5, snapshot_every=200)
    report = containment_run(outer, inner, config)
    assert report.stop_reason == flow.STOP_CURVATURE_CAP
    # the inner radius sqrt(1 - 2t) reaches 1/1.5; the stop records its gap
    t_cap = (1.0 - 1.0 / 1.5 ** 2) / 2.0
    assert report.times[-1] == pytest.approx(t_cap, abs=1e-3)
    exact = math.sqrt(4.0 - 2.0 * report.times[-1]) - math.sqrt(1.0 - 2.0 * report.times[-1])
    assert report.min_gap[-1] == pytest.approx(exact, abs=1e-6)


def test_containment_step_limit_stop():
    g = AngleGrid(64)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    config = FlowConfig(law=power_law(1), initial=outer, max_steps=10, snapshot_every=5)
    report = containment_run(outer, inner, config)
    assert report.stop_reason == flow.STOP_STEP_LIMIT
    assert len(report.times) == 3  # t = 0 and steps 5 and 10
    assert report.all_ok


def test_containment_step_limit_off_cadence_records_the_final_gap():
    g = AngleGrid(64)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    every = containment_run(outer, inner, FlowConfig(law=power_law(1), initial=outer,
                                                     max_steps=10, snapshot_every=1))
    report = containment_run(outer, inner, FlowConfig(law=power_law(1), initial=outer,
                                                      max_steps=10, snapshot_every=4))
    assert report.stop_reason == every.stop_reason == flow.STOP_STEP_LIMIT
    assert len(every.times) == 11
    # steps 0, 4 and 8 on the cadence, then the final state at step 10
    assert report.times == [every.times[i] for i in (0, 4, 8, 10)]
    assert report.min_gap == [every.min_gap[i] for i in (0, 4, 8, 10)]


def test_containment_identical_curves():
    g = AngleGrid(128)
    sp = geometry.support_from_curvature(oracle.ellipse_profile(1.5, 1.0, g))
    law = power_law(1)
    config = FlowConfig(law=law, initial=sp, area_floor=5e-2, snapshot_every=200)
    report = containment_run(sp, sp, config)
    assert report.all_ok
    assert max(abs(v) for v in report.min_gap) < 1e-12


def test_containment_requires_nesting():
    g = AngleGrid(128)
    outer = SupportProfile(g, np.full(g.n, 1.0))
    inner = SupportProfile(g, np.full(g.n, 2.0))
    config = FlowConfig(law=power_law(1), initial=outer)
    with pytest.raises(ValueError):
        containment_run(outer, inner, config)
