import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveflow
from curveflow.errors import SpeedLawDomainError
from curveflow.speed_law import (
    SpeedLaw,
    check_hypotheses,
    check_representable,
    parse_law,
    power_law,
)

BUILTIN_PS = (1.0 / 3.0, 1.0, 2.0, 3.0)


def test_power_law_values():
    assert power_law(1).g(5.0) == 1.0
    assert power_law(1.0 / 3.0).g(8.0) == pytest.approx(0.25, rel=1e-14)
    assert power_law(2).tail_integral(1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_p1_speed_is_ones_of_the_input_shape():
    # G = x^0, x^1, x^2 for p = 1, 2, 3 is exactly ones, x and x * x, as
    # float64 in the input's shape
    for x in (2.5, [1.0, 3.0], np.arange(1.0, 5.0), np.arange(1.0, 7.0).reshape(2, 3) * 7.3):
        xs = np.asarray(x, dtype=float)
        for p, exact in ((1, np.ones_like(xs)), (2, xs), (3, xs * xs)):
            out = power_law(p).g(x)
            assert out.dtype == np.float64 and np.shape(out) == np.shape(x)
            assert out.tobytes() == exact.tobytes()


def test_zero_coefficient_derivatives_are_exactly_zero():
    # G' = 0 x^-1, G'' = 0 x^-2 at p = 1 and G'' = 0 x^-1 at p = 2: the powers
    # overflow at the small probes, and 0 * inf would be NaN
    x = np.array([1e-320, 1e-300, 1e-170, 1.0, 1e300])
    with np.errstate(all="raise"):
        for derivative in (power_law(1).g_prime, power_law(1).g_double_prime,
                           power_law(2).g_double_prime):
            out = derivative(x)
            assert out.shape == x.shape and np.all(out == 0.0)
            assert not np.any(np.signbit(out))
        assert np.all(power_law(1).phi_double_prime(x) == 0.0)
    assert power_law(1).g_prime(2.5).ndim == 0


def test_power_law_rejects_nonpositive_exponent():
    for p in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            power_law(p)


def test_phi_closed_forms():
    law = power_law(1)
    assert law.phi(2.0) == pytest.approx(2.0)
    assert law.phi_prime(2.0) == pytest.approx(1.0)
    assert law.phi_double_prime(2.0) == pytest.approx(0.0, abs=1e-14)
    law3 = power_law(3)
    assert law3.phi(2.0) == pytest.approx(8.0)
    assert law3.phi_prime(2.0) == pytest.approx(12.0)
    assert law3.phi_double_prime(2.0) == pytest.approx(12.0)


def test_phi_rejects_nonpositive_curvature():
    law = power_law(2)
    for bad in (0.0, -1.0):
        with pytest.raises(SpeedLawDomainError):
            law.phi(bad)
    with pytest.raises(SpeedLawDomainError):
        law.phi(np.array([1.0, -2.0]))
    # so is a curvature at which the speed G k is not finite
    inf_above_2 = SpeedLaw(g=lambda x: np.where(x > 2.0, np.inf, 1.0), g_prime=np.zeros_like,
                           g_double_prime=np.zeros_like, label="inf above 2")
    with pytest.raises(SpeedLawDomainError) as err:
        inf_above_2.phi(np.array([1.0, 3.0]))
    assert err.value.abscissa == 3.0


@pytest.mark.parametrize("p", BUILTIN_PS)
def test_phi_derivatives_match_finite_differences(p):
    # centered differences of phi as the independent oracle
    law = power_law(p)
    rng = np.random.default_rng(7)
    ks = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=100))
    for k in ks:
        h1 = 1e-6 * k
        fd1 = (law.phi(k + h1) - law.phi(k - h1)) / (2.0 * h1)
        assert fd1 == pytest.approx(law.phi_prime(k), rel=1e-6)
        h2 = 1e-4 * k
        fd2 = (law.phi(k + h2) - 2.0 * law.phi(k) + law.phi(k - h2)) / (h2 * h2)
        scale = max(abs(law.phi_double_prime(k)), law.phi(k) / (k * k))
        assert abs(fd2 - law.phi_double_prime(k)) <= 1e-5 * scale


@pytest.mark.parametrize("p", (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 6.0))
def test_tail_integral_against_quadrature(p):
    # relative accuracy also where the tail is tiny: at p = 6, k = 20 it is 1.1e-10
    closed = power_law(p)
    free = dataclasses.replace(closed, tail_integral=None)
    for k in (1e-3, 0.5, 1.0, 3.0, 20.0, 1e3):
        assert free.tail_mass(k) == pytest.approx(closed.tail_mass(k), rel=1e-8)


def test_tail_quadrature_runs_without_scipy():
    # a fresh interpreter in which any import of scipy fails
    src = str(Path(curveflow.__file__).resolve().parents[1])
    code = """if True:
        import dataclasses, sys
        sys.modules["scipy"] = None
        from curveflow import flow, oracle
        from curveflow.speed_law import power_law
        closed = power_law(2)
        free = dataclasses.replace(closed, tail_integral=None)
        assert abs(free.tail_mass(3.0) / closed.tail_mass(3.0) - 1.0) < 1e-8
        traj = oracle.circle_trajectory(1.0, 2.0, [0.0, 0.3333], n=64)
        traj.config = dataclasses.replace(traj.config, law=free)
        est = flow.estimate_blowup(traj)
        assert est.omega_lo <= 1.0 / 3.0 <= est.omega_hi
        print(est.method)
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "quadrature"


def test_tail_mass_that_does_not_converge_raises():
    # G = 1/x^2 gives int dx / x: the remainder bound never falls
    law = SpeedLaw(g=lambda x: 1.0 / (x * x), g_prime=lambda x: -2.0 / x ** 3,
                   g_double_prime=lambda x: 6.0 / x ** 4, label="inverse-square")
    with pytest.raises(SpeedLawDomainError) as err:
        law.tail_mass(2.0)
    assert err.value.abscissa == 2.0
    # the mass above k = 0 is infinite for every law
    with pytest.raises(SpeedLawDomainError) as err:
        power_law(2).tail_mass(0.0)
    assert err.value.abscissa == 0.0


def test_gx2_convexity_identity_matches_second_differences():
    # (G x^2)'' computed through Phi must agree with direct differencing
    for p in BUILTIN_PS:
        law = power_law(p)
        xs = np.geomspace(0.2, 50.0, 17)
        via_phi = law.phi_double_prime(xs) * xs + 2.0 * law.phi_prime(xs)
        h = 1e-4 * xs
        gx2 = lambda x: law.g(x) * x * x
        fd = (gx2(xs + h) - 2.0 * gx2(xs) + gx2(xs - h)) / (h * h)
        assert np.allclose(via_phi, fd, rtol=1e-5, atol=1e-10)


def test_check_hypotheses_power_laws():
    rep1 = check_hypotheses(power_law(1), 0.1, 100.0, 64)
    assert rep1.all_ok and rep1.witness_c0 == pytest.approx(0.0, abs=1e-12)
    rep3 = check_hypotheses(power_law(3), 0.1, 100.0, 64)
    assert rep3.all_ok and rep3.witness_c0 == pytest.approx(2.0, rel=1e-12)


def test_check_hypotheses_flags_decreasing_g():
    law = SpeedLaw(g=lambda x: np.exp(-x), g_prime=lambda x: -np.exp(-x),
                   g_double_prime=lambda x: np.exp(-x), label="exp(-x)")
    rep = check_hypotheses(law, 1.0, 10.0, 32)
    assert not rep.h1_ok
    assert rep.worst_violation > 0.0
    assert rep.witness_x is not None


def test_check_hypotheses_affine_law_fails_h1():
    rep = check_hypotheses(power_law(1.0 / 3.0), 0.1, 100.0, 64)
    assert not rep.h1_ok
    assert rep.h2_convexity_ok  # x^(4/3) is convex


def test_check_hypotheses_validates_arguments():
    with pytest.raises(ValueError):
        check_hypotheses(power_law(1), -1.0, 10.0)
    with pytest.raises(ValueError):
        check_hypotheses(power_law(1), 1.0, 0.5)
    with pytest.raises(ValueError):  # probes up to inf would be NaN
        check_hypotheses(power_law(1), 1.0, np.inf)
    with pytest.raises(ValueError):
        check_hypotheses(power_law(1), 0.1, 10.0, n_probes=8)


def test_check_hypotheses_range_whose_product_overflows():
    # 1e200 * 1e260 overflows; the upper half of the probes must still be found
    rep = check_hypotheses(power_law(1), 1e200, 1e260, 64)
    assert rep.all_ok and rep.witness_c0 == pytest.approx(0.0, abs=1e-12)
    # G' x / G = 1e308 x overflows on the upper half of [1, 100]: no finite C0
    steep = SpeedLaw(g=np.ones_like, g_prime=lambda x: np.full_like(x, 1e308),
                     g_double_prime=np.zeros_like, label="steep")
    rep = check_hypotheses(steep, 1.0, 100.0, 64)
    assert rep.h1_ok and not rep.h2_growth_ok
    assert rep.witness_c0 == math.inf and rep.worst_violation == math.inf
    xs = np.geomspace(1.0, 100.0, 64)
    assert rep.witness_x == xs[xs >= 10.0][0]


def test_check_hypotheses_underflow_is_a_domain_error():
    # G = x^2 and Phi' = 3 x^2 are positive, but their floats are 0 below 1e-162
    with pytest.raises(SpeedLawDomainError) as err:
        check_hypotheses(power_law(3), 1e-300, 1e-170, 64)
    assert err.value.abscissa == 1e-300
    # a subnormal Phi' is underflow too; an exact Phi' = 0 beside a normal G
    # is a cancellation G'x = -G, left to the hypotheses
    xs, ones = np.array([1.0, 2.0]), np.ones(2)
    with pytest.raises(SpeedLawDomainError) as err:
        check_representable(power_law(1), xs, ones, np.array([1.0, 1e-310]))
    assert err.value.abscissa == 2.0
    check_representable(power_law(1), xs, ones, np.array([1.0, 0.0]))


def test_check_hypotheses_evaluates_each_law_callable_once():
    law, calls = power_law(3), []

    def counted(name):
        def evaluate(x):
            calls.append(name)
            return getattr(law, name)(x)
        return evaluate

    names = ("g", "g_prime", "g_double_prime")
    counted_law = dataclasses.replace(law, **{name: counted(name) for name in names})
    assert check_hypotheses(counted_law, 0.1, 100.0) == check_hypotheses(law, 0.1, 100.0)
    assert sorted(calls) == sorted(names)


def test_check_hypotheses_nonfinite_probe_carries_abscissa():
    law = SpeedLaw(g=lambda x: np.sqrt(50.0 - x), g_prime=lambda x: x * 0.0,
                   g_double_prime=lambda x: x * 0.0, label="broken")
    with np.errstate(invalid="ignore"):
        with pytest.raises(SpeedLawDomainError) as err:
            check_hypotheses(law, 1.0, 100.0, 32)
    assert err.value.abscissa is not None and err.value.abscissa > 50.0


def test_parse_law_round_trip():
    law = parse_law("power:0.5")
    assert law.g(4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        parse_law("mystery:1")
