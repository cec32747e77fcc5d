"""Acceptance suite: one test per criterion, one printed verdict line each.

The expensive trajectories are shared module fixtures; run with `pytest -s`
to see the verdict lines as they happen.  The n=1024 resolution-stability
run (criterion 4) takes a few minutes on one core.
"""

import math

import numpy as np
import pytest

from curveflow import geometry, oracle
from curveflow.diagnostics import (
    monitor_evolution_identities,
    monitor_gradient_estimate,
    monitor_iso_ratio,
)
from curveflow.flow import FlowConfig, containment_run, run, step
from curveflow.geometry import AngleGrid, CurvatureProfile, SupportProfile
from curveflow.oracle import polygon_brute_force
from curveflow.speed_law import power_law

from conftest import random_convex_support

CIRCLE_PS = (1.0, 1.0 / 3.0, 2.0, 3.0)


def verdict(num, ok, detail):
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared trajectories (the "shipped" example runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def circle_runs():
    out = {}
    for p in CIRCLE_PS:
        g = AngleGrid(256)
        config = FlowConfig(law=power_law(p), initial=oracle.circle_profile(1.0, g),
                            area_floor=1e-3, snapshot_every=250)
        out[p] = run(config)
    return out


@pytest.fixture(scope="module")
def ellipse512():
    g = AngleGrid(512)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=1e-3, snapshot_every=1000)
    return run(config)


@pytest.fixture(scope="module")
def ellipse1024():
    g = AngleGrid(1024)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=1e-3, snapshot_every=4000)
    return run(config)


@pytest.fixture(scope="module")
def ellipse_affine():
    # p = 1/3 boundary-case demonstration: out of hypothesis, self-similar
    g = AngleGrid(256)
    config = FlowConfig(law=power_law(1.0 / 3.0),
                        initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=1e-2, snapshot_every=250)
    return run(config)


@pytest.fixture(scope="module")
def both512():
    g = AngleGrid(512)
    config = FlowConfig(law=power_law(1), initial=oracle.ellipse_profile(2.0, 1.0, g),
                        area_floor=1e-2, snapshot_every=1000, formulation="both")
    return run(config)


def shipped_runs(circle_runs, ellipse512, ellipse_affine, both512):
    runs = [(f"circle p={p:g}", traj) for p, traj in circle_runs.items()]
    runs.append(("ellipse p=1 n=512", ellipse512))
    runs.append(("ellipse p=1/3 n=256", ellipse_affine))
    runs.append(("ellipse both-forms n=512", both512))
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_exact_circles(circle_runs):
    worst_err, worst_width = 0.0, 0.0
    for p, traj in circle_runs.items():
        omega = 1.0 / (p + 1.0)
        for snap in traj.snapshots:
            radius = (1.0 - (p + 1.0) * snap.t) ** (1.0 / (p + 1.0))
            rel = np.max(np.abs(snap.curvature.k * radius - 1.0))
            worst_err = max(worst_err, float(rel))
        est = traj.omega_estimate
        assert est is not None
        assert est.omega_lo <= omega <= est.omega_hi, f"p={p}: bracket misses omega"
        worst_width = max(worst_width, est.omega_hi - est.omega_lo)
    ok = worst_err < 1e-6 and worst_width < 1e-6
    verdict(1, ok, f"sup rel k error {worst_err:.2e} (<1e-6), "
                   f"bracket width {worst_width:.2e} (<1e-6), omega covered for all p")


def test_criterion_2_convergence_order():
    g = AngleGrid(256)
    law = power_law(1)
    horizon = 0.375
    dts, errs = [], []
    for m in (32, 64, 128, 256):
        dt = horizon / m
        state = CurvatureProfile(g, np.ones(g.n))
        for _ in range(m):
            state = step(state, law, dt)
        k_exact = 1.0 / math.sqrt(1.0 - 2.0 * horizon)
        errs.append(abs(float(np.max(state.k)) - k_exact) / k_exact)
        dts.append(dt)
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = abs(slope - 4.0) <= 0.3
    verdict(2, ok, f"log-log error slope {slope:.3f} (4.0 +/- 0.3)")


def test_criterion_3_roundness_ratios(ellipse512):
    s = ellipse512.last.summary
    k_ratio = s.k_min / s.k_max
    r_ratio = s.r_in / s.r_out
    # roundness also collapses the omega bracket far below 2% of its size
    est = ellipse512.omega_estimate
    bracket_ok = est.omega_hi - est.omega_lo < 0.02 * est.omega_mid
    ok = k_ratio >= 0.95 and r_ratio >= 0.95 and bracket_ok
    verdict(3, ok, f"k_min/k_max = {k_ratio:.4f}, r_in/r_out = {r_ratio:.4f} (>= 0.95)")


def _blowup_rescaling_deviation(traj):
    est = traj.omega_estimate
    snap = traj.last
    return float(np.max(np.abs(
        snap.curvature.k * np.sqrt(2.0 * (est.omega_mid - snap.t)) - 1.0)))


def test_criterion_4_curvature_rescaling(ellipse512, ellipse1024):
    dev512 = _blowup_rescaling_deviation(ellipse512)
    dev1024 = _blowup_rescaling_deviation(ellipse1024)
    ok = dev512 <= 0.05 and abs(dev512 - dev1024) <= 0.01
    verdict(4, ok, f"max|k sqrt(2(omega-t)) - 1| = {dev512:.4f} (<= 0.05), "
                   f"n=1024 gives {dev1024:.4f} (stable within 0.01)")


def test_criterion_5_iso_ratio_monotone(circle_runs, ellipse512, ellipse_affine,
                                        both512):
    all_pass = True
    details = []
    for name, traj in shipped_runs(circle_runs, ellipse512, ellipse_affine, both512):
        report = monitor_iso_ratio(traj)
        all_pass &= report.status == "pass"
        details.append(f"{name}: {report.status}")
    final_iso = ellipse512.last.summary.iso_ratio
    limit_ok = abs(final_iso - 4.0 * math.pi) <= 0.01 * 4.0 * math.pi
    ok = all_pass and limit_ok
    verdict(5, ok, f"monotone on {len(details)} runs; ellipse final L^2/A = "
                   f"{final_iso:.6f} vs 4pi = {4 * math.pi:.6f} (within 1%)")


def test_criterion_6_inequality_property_suite(profile_corpus):
    violations = 0
    for sp in profile_corpus:
        s = geometry.summarize(geometry.k_from_support(sp), sp)
        if s.bonnesen_gap < -1e-7 * s.iso_ratio:
            violations += 1
        kp = geometry.k_from_support(sp)
        total = geometry.periodic_integral(kp.k, kp.grid)
        if total < math.pi * s.length / s.area - 1e-7 * total:
            violations += 1
    rng = np.random.default_rng(11)
    for _ in range(100):
        xi = rng.uniform(0.05, 4.0, size=64)
        for f in (lambda x: x, lambda x: x * x, np.exp):
            w = f(xi)
            if np.sum(xi * w) / np.sum(w) < np.mean(xi) - 1e-12:
                violations += 1
    ok = violations == 0
    verdict(6, ok, f"{violations} violations of Bonnesen / total-curvature / "
                   "weighted-mean inequalities over the randomized corpus")


def test_criterion_7_gradient_estimate(circle_runs, ellipse512, ellipse_affine,
                                       both512):
    failures = []
    for name, traj in shipped_runs(circle_runs, ellipse512, ellipse_affine, both512):
        report = monitor_gradient_estimate(traj)
        if report.status != "pass":
            failures.append(f"{name}: {report.status}")
    ok = not failures
    verdict(7, ok, "gradient-estimate monitor passes on all shipped runs"
            if ok else f"failures: {failures}")


def test_criterion_8_containment(circle_runs):
    g = AngleGrid(256)
    law = power_law(1)
    outer = SupportProfile(g, np.full(g.n, 2.0))
    inner = SupportProfile(g, np.full(g.n, 1.0))
    config = FlowConfig(law=law, initial=outer, area_floor=1e-3, snapshot_every=250,
                        formulation="support")
    report = containment_run(config, inner)
    worst_dev = max(
        abs(gap - (math.sqrt(4.0 - 2.0 * t) - math.sqrt(1.0 - 2.0 * t)))
        for t, gap in zip(report.times, report.min_gap))

    inner_e = geometry.support_from_curvature(oracle.ellipse_profile(1.5, 1.0, g))
    report_e = containment_run(config, inner_e)
    ok = worst_dev <= 1e-5 and report.all_ok and report_e.all_ok
    verdict(8, ok, f"concentric gap matches exact to {worst_dev:.2e} (<=1e-5); "
                   f"circle-over-ellipse min gap {min(report_e.min_gap):.2e} "
                   f">= -{report_e.tol_contain:.2e}")


def test_criterion_9_roundness_hausdorff(ellipse512):
    series = [s.hausdorff_to_disk for s in ellipse512.summaries()]
    ok = series[-1] < 0.02
    verdict(9, ok, f"normalized Hausdorff distance at the floor = {series[-1]:.2e} "
                   f"(< 0.02), started at {series[0]:.3f}")


def test_criterion_10_cross_formulation(both512):
    worst = max(both512.form_disagreement)
    ok = worst <= 1e-5
    verdict(10, ok, f"curvature vs support form sup|dk| = {worst:.2e} (<= 1e-5) "
                    "down to 1% of the initial area")


def test_criterion_11_geometry_vs_brute_force():
    rng = np.random.default_rng(2718)
    g = AngleGrid(4096)
    bodies = [("circle", CurvatureProfile(g, np.ones(g.n))),
              ("ellipse", oracle.ellipse_profile(2.0, 1.0, g))]
    for i in range(3):
        sp = random_convex_support(g, rng, rel=0.10)
        bodies.append((f"random-{i}", geometry.k_from_support(sp)))

    worst = 0.0
    for name, kp in bodies:
        s = geometry.summarize(kp, geometry.support_from_curvature(kp))
        scale = math.sqrt(math.pi / s.area)
        pts = geometry.reconstruct(kp).points * scale
        # the geometry route reports the distance in the Steiner frame, so
        # pin the disk at the polygon's own Steiner point (direct discrete
        # integral over the vertex samples)
        u = np.column_stack([np.cos(kp.grid.theta), np.sin(kp.grid.theta)])
        steiner = (kp.grid.dtheta / math.pi) * (u.T @ (np.sum(pts * u, axis=1)))
        brute = polygon_brute_force(pts, disk_center=steiner)
        rels = [abs(brute.length / (scale * s.length) - 1.0),
                abs(brute.area / math.pi - 1.0),
                abs(brute.r_in / (scale * s.r_in) - 1.0),
                abs(brute.r_out / (scale * s.r_out) - 1.0),
                abs(brute.hausdorff_to_disk - s.hausdorff_to_disk)
                / max(1.0, s.hausdorff_to_disk)]
        worst = max(worst, max(rels))
    ok = worst <= 1e-3
    verdict(11, ok, f"L, A, r_in, r_out, Hausdorff agree with brute force to "
                    f"{worst:.2e} (<= 1e-3) on {len(bodies)} bodies")


def test_criterion_12_evolution_identities(circle_runs, ellipse512, ellipse_affine,
                                           both512):
    failures, worst = [], 0.0
    for name, traj in shipped_runs(circle_runs, ellipse512, ellipse_affine, both512):
        report = monitor_evolution_identities(traj)
        if report.status != "pass":
            failures.append(f"{name}: {report.status} ({report.note})")
        else:
            worst = max(worst, report.extras["worst_mismatch"])
    ok = not failures and worst <= 0.01
    verdict(12, ok, f"dL/dt and dA/dt identities within {worst:.2e} on all "
                    "shipped runs" if ok else f"failures: {failures}")
