import math

import numpy as np
import pytest

from curveflow import diagnostics, flow, oracle
from curveflow.diagnostics import (
    format_monitor_table,
    monitor_blowup_integral,
    monitor_bonnesen,
    monitor_evolution_identities,
    monitor_gage,
    monitor_gradient_estimate,
    monitor_iso_ratio,
    monitor_ratio_asymptotics,
    run_all_monitors,
)
from curveflow.errors import InsufficientDataError
from curveflow.flow import FlowConfig, run
from curveflow.geometry import AngleGrid
from curveflow.speed_law import power_law

from conftest import scaled_rhs


@pytest.fixture(scope="module")
def exact_circle():
    # geometric spacing toward omega = 0.5; final area ratio 0.002
    steps = 0.5 * np.geomspace(1.0, 0.002, 50)
    times = 0.5 - steps
    return oracle.circle_trajectory(1.0, 1.0, times, n=128)


@pytest.fixture(scope="module")
def ellipse_run():
    # deep enough that k_max grows 10x (blow-up bracket available)
    g = AngleGrid(128)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=1e-3, snapshot_every=150)
    return run(config)


@pytest.fixture(scope="module")
def exact_circle_p2():
    # p = 2 blows up at omega = R0^3 / 3; spacing refines toward it
    omega = 1.0 / 3.0
    times = omega - omega * np.geomspace(1.0, 1e-4, 200)
    return oracle.circle_trajectory(1.0, 2.0, times, n=128)


@pytest.mark.parametrize("circle", ["exact_circle", "exact_circle_p2"], ids=["p1", "p2"])
def test_every_monitor_passes_on_exact_circle(request, circle):
    # the monitors read the law from the trajectory's config, so a p = 2
    # circle is judged under p = 2 (under p = 1 two monitors would fail)
    reports = run_all_monitors(request.getfixturevalue(circle))
    assert len(reports) == 7
    for r in reports:
        assert r.status == "pass", f"{r.name}: {r.note}"
        assert r.worst_margin >= -1e-10


def test_monitors_are_deterministic(exact_circle):
    first = run_all_monitors(exact_circle)
    second = run_all_monitors(exact_circle)
    assert first == second


def test_iso_ratio_needs_two_snapshots(exact_circle):
    single = oracle.circle_trajectory(1.0, 1.0, [0.1], n=64)
    with pytest.raises(InsufficientDataError):
        monitor_iso_ratio(single)
    report = monitor_iso_ratio(exact_circle)
    assert report.passed and abs(report.values[0] - 4.0 * math.pi) < 1e-10


def test_iso_ratio_flags_increase():
    import dataclasses
    traj = oracle.circle_trajectory(1.0, 1.0, [0.0, 0.1, 0.2], n=64)
    # circle ratios are constant; forge a 1% bump at the middle snapshot
    mid = traj.snapshots[1]
    bumped = dataclasses.replace(mid, summary=dataclasses.replace(
        mid.summary, iso_ratio=mid.summary.iso_ratio * 1.01))
    traj.snapshots[1] = bumped
    report = monitor_iso_ratio(traj)
    assert report.status == "fail"
    assert report.first_violation_time is not None


def test_a_nan_margin_is_a_violation():
    # two margins judge the last two of three times; NaN >= -tol is false
    report = diagnostics._conclusive("probe", [0.0, 0.1, 0.2], [1.0, 1.0, 1.0],
                                     [0.5, math.nan], 1e-8)
    assert report.status == "fail"
    assert report.first_violation_time == 0.2


def test_conclusive_reports_pair_times_with_values(ellipse_run):
    reports = [r for r in run_all_monitors(ellipse_run) if r.status != "inconclusive"]
    assert len(reports) == 7
    for r in reports:
        assert len(r.times) == len(r.values), r.name


def test_ellipse_run_monitors(ellipse_run):
    iso = monitor_iso_ratio(ellipse_run)
    assert iso.passed
    assert ellipse_run.summaries()[0].iso_ratio > ellipse_run.summaries()[-1].iso_ratio
    assert monitor_bonnesen(ellipse_run).passed
    gage = monitor_gage(ellipse_run)
    assert gage.passed
    assert gage.extras["final"] < 1e-2
    grad = monitor_gradient_estimate(ellipse_run)
    assert grad.passed
    evo = monitor_evolution_identities(ellipse_run)
    assert evo.passed, f"worst mismatch {evo.extras['worst_mismatch']}"


def test_ratio_asymptotics_on_deep_run(ellipse_run):
    report = monitor_ratio_asymptotics(ellipse_run)
    assert report.status == "pass"
    assert report.values[0] == pytest.approx(0.125, abs=1e-3)  # 0.25 / 2 initially
    assert report.values[-1] >= 0.95
    assert report.extras["max_abs_k_rin_minus_1"][-1] < 0.05


def test_ratio_asymptotics_reports_how_fast_the_curve_turns_round():
    # mode 2 of 1 - k_min/k_max decays as k_max^(1 - 3p) under G = k^(p-1):
    # slope -5 at p = 2, reported beside its prediction and not judged
    g = AngleGrid(128)
    traj = run(FlowConfig(law=power_law(2), initial=oracle.ellipse_profile(2.0, 1.0, g),
                          area_floor=1e-3, snapshot_every=200))
    report = monitor_ratio_asymptotics(traj)
    assert report.status == "pass"
    assert report.extras["turn_round_slope_predicted"] == pytest.approx(-5.0, rel=1e-12)
    assert abs(report.extras["turn_round_slope"] + 5.0) < 0.01
    # a shallow run has no snapshot in the linear regime to fit
    shallow = run(FlowConfig(law=power_law(2), initial=oracle.ellipse_profile(2.0, 1.0, g),
                             area_floor=0.5, snapshot_every=200))
    assert monitor_ratio_asymptotics(shallow).extras["turn_round_slope"] is None


def test_blowup_integral_on_deep_ellipse(ellipse_run):
    report = monitor_blowup_integral(ellipse_run)
    assert report.status == "pass"
    assert report.values[-1] <= 0.05


def test_ratio_asymptotics_inconclusive_when_shallow():
    g = AngleGrid(64)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=0.5, snapshot_every=100)
    traj = run(config)
    report = monitor_ratio_asymptotics(traj)
    assert report.status == "inconclusive"
    blow = monitor_blowup_integral(traj)
    assert blow.status == "inconclusive"  # no omega bracket that early


def test_blowup_integral_on_exact_circle(exact_circle):
    report = monitor_blowup_integral(exact_circle)
    assert report.status == "pass"
    assert max(report.values) < 1e-10  # rho is identically 1 for circles
    lo_ranges = report.extras["rho_ranges"]["lo"]
    assert lo_ranges, "rho reported at the bracket endpoints"


def test_blowup_integral_inconclusive_when_the_bracket_is_wide():
    import dataclasses
    omega = 0.5
    traj = oracle.circle_trajectory(1.0, 1.0, omega - 0.5 * np.geomspace(1.0, 0.002, 20), n=64)
    # widened to 20% of the time left after the last snapshot
    half = 0.1 * (omega - traj.last.t)
    traj.omega_estimate = dataclasses.replace(traj.omega_estimate, omega_lo=omega - half,
                                              omega_hi=omega + half)
    report = monitor_blowup_integral(traj)
    assert report.status == "inconclusive"
    assert "exceeds 10% of the remaining time" in report.note


def test_affine_ellipse_is_out_of_hypothesis():
    # p = 1/3 shrinks ellipses self-similarly: ratios stay near 0.125
    g = AngleGrid(128)
    config = FlowConfig(law=power_law(1.0 / 3.0),
                        initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=5e-3, snapshot_every=300)
    traj = run(config)
    assert not traj.roundness_expected
    report = monitor_ratio_asymptotics(traj)
    assert report.status == "inconclusive"
    assert "not asserted" in report.note
    assert report.values[-1] < 0.2  # the shape really did stay elliptical
    iso = monitor_iso_ratio(traj)
    assert iso.status == "pass"  # L^2/A constant for self-similar shrinking


def test_evolution_identities_need_two_snapshots():
    with pytest.raises(InsufficientDataError):
        monitor_evolution_identities(oracle.circle_trajectory(1.0, 1.0, [0.0], n=64))
    # one interval of the exact circle is judged, against its exact fluxes
    report = monitor_evolution_identities(oracle.circle_trajectory(1.0, 1.0, [0.0, 0.2], n=64))
    assert report.passed
    assert report.times == [0.2]
    assert report.extras["worst_mismatch"] < 1e-12


@pytest.mark.parametrize("formulation", ["curvature", "support"])
def test_evolution_identities_catch_a_scaled_rhs(monkeypatch, formulation):
    # the fluxes are integrated from the law, the state from the stepper's
    # right-hand side: a 2% error in the latter must show
    g = AngleGrid(64)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=0.5, formulation=formulation)
    report = monitor_evolution_identities(run(config))
    assert report.passed
    assert report.extras["worst_mismatch"] < 1e-5

    rhs = flow._rhs
    monkeypatch.setattr(flow, "_rhs", lambda *args: scaled_rhs(1.02, rhs(*args)))
    report = monitor_evolution_identities(run(config))
    assert report.status == "fail"
    assert report.extras["worst_mismatch"] > 0.01


def test_run_all_monitors_swallows_insufficient_data():
    traj = oracle.circle_trajectory(1.0, 1.0, [0.1], n=64)
    reports = run_all_monitors(traj)
    assert len(reports) == 7
    statuses = {r.name: r.status for r in reports}
    assert statuses["iso-ratio-monotone"] == "inconclusive"
    assert statuses["evolution-identities"] == "inconclusive"


def test_gradient_monitor_reports_rather_than_aborts():
    # marginally resolved eccentric run: the monitor must return a report
    g = AngleGrid(32)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(1.8, 1.0, g),
                        area_floor=0.2, snapshot_every=50)
    traj = run(config)
    report = monitor_gradient_estimate(traj)
    assert report.status in ("pass", "fail")


def test_format_monitor_table(exact_circle):
    reports = run_all_monitors(exact_circle)
    table = format_monitor_table(reports)
    lines = table.splitlines()
    assert lines[0].startswith("monitor")
    assert len(lines) == len(reports) + 1
    assert all("pass" in line for line in lines[1:])
