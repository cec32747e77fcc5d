"""Flow speed laws and numeric validation of their structural hypotheses.

The flow moves a convex curve with normal speed G(k)*k, where k > 0 is the
inward curvature and G is positive and non-decreasing on (0, inf).  The
theory additionally wants G(x)*x^2 convex and G'(x)*x <= C0*G(x) for large x;
``check_hypotheses`` probes both conditions numerically on the curvature
range a run will actually visit.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Callable, Optional

import numpy as np

from .errors import SpeedLawDomainError


@dataclasses.dataclass(frozen=True)
class SpeedLaw:
    """A speed factor G with derivatives, immutable and safe to share.

    ``g``, ``g_prime``, ``g_double_prime`` evaluate G, G', G'' elementwise on
    positive floats or arrays.  ``tail_integral``, when provided, is the
    closed form of  int_k^inf dx / (G(x) x^3)  used for blow-up bracketing;
    otherwise ``tail_mass`` sums it with Gauss-Legendre panels in log x.
    """

    g: Callable
    g_prime: Callable
    g_double_prime: Callable
    label: str
    tail_integral: Optional[Callable] = None

    def _check_domain(self, k):
        k = np.asarray(k, dtype=float)
        if (k <= 0.0).any():
            bad = float(np.min(k))
            raise SpeedLawDomainError(
                f"curvature must be positive, got {bad}", abscissa=bad)
        return k

    def phi(self, k):
        """Phi(k) = G(k)*k, the normal speed."""
        k = self._check_domain(k)
        out = self.g(k) * k
        if not np.all(np.isfinite(out)):
            bad = float(np.asarray(k).flat[int(np.argmax(~np.isfinite(np.atleast_1d(out))))])
            raise SpeedLawDomainError(f"G(k)*k non-finite at k={bad}", abscissa=bad)
        return out if out.ndim else float(out)

    def phi_prime(self, k):
        """Phi'(k) = G'(k)*k + G(k)."""
        k = self._check_domain(k)
        out = self.g_prime(k) * k + self.g(k)
        return out if out.ndim else float(out)

    def phi_double_prime(self, k):
        """Phi''(k) = G''(k)*k + 2*G'(k)."""
        k = self._check_domain(k)
        out = self.g_double_prime(k) * k + 2.0 * self.g_prime(k)
        return out if out.ndim else float(out)

    def tail_mass(self, k):
        """int_k^inf dx / (G(x) x^3), the time-to-blow-up mass above curvature k.

        Uses the closed form when the law carries one.  Otherwise x = k e^s
        turns the integral into  k^-2 int_0^inf e^(-2s) / G(k e^s) ds,  which
        is summed over panels of width ln 8 in s, 20-point Gauss-Legendre on
        each.  The sum stops after the panel ending at X = k 8^(j+1) once the
        remainder bound  1/(2 G(X) X^2)  (valid since G is non-decreasing)
        is at most 1e-10 of it, and raises SpeedLawDomainError if 120 panels
        do not get there.
        """
        k = float(k)
        if k <= 0.0:
            raise SpeedLawDomainError("tail integral needs k > 0", abscissa=k)
        if self.tail_integral is not None:
            return float(self.tail_integral(k))
        growth, weights = _tail_panel()
        total = 0.0
        lo = k
        for _ in range(_TAIL_PANELS):
            # dx / x = ds, so on the panel from lo to 8 lo the integrand in s
            # is e^(-2s) / (k^2 G) = 1 / (G(x) x^2)
            x = lo * growth
            total += float(weights @ (1.0 / (self.g(x) * x * x)))
            lo *= 8.0
            if 1.0 / (2.0 * self.g(lo) * lo * lo) <= _TAIL_RTOL * total:
                return total
        raise SpeedLawDomainError(
            f"tail integral did not converge for {self.label} at k={k}", abscissa=k)


_TAIL_RTOL = 1e-10  # the remainder bound that ends the tail sum, relative to the sum
_TAIL_PANELS = 120  # panels of width ln 8 in s, so X stops short of k 8^120


def gauss_legendre(points):
    """Nodes and weights of the Gauss-Legendre rule on [0, 1].

    Newton's iteration on the Legendre three-term recurrence, from the
    usual cos(pi (i - 1/4) / (points + 1/2)) guesses, converges in a few
    steps; it is elementwise numpy, where the eigensolver of Golub & Welsch
    would load LAPACK, a megabyte resident in every run.
    """
    x = np.cos(np.pi * (np.arange(1, points + 1) - 0.25) / (points + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for j in range(2, points + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = points * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)


@functools.cache
def _tail_panel():
    """e^s at the 20 Gauss-Legendre nodes s of [0, ln 8], and their weights."""
    nodes, weights = gauss_legendre(20)
    width = np.log(8.0)
    return np.exp(width * nodes), width * weights


@dataclasses.dataclass(frozen=True)
class HypothesisReport:
    """Outcome of probing (H1)/(H2) on a finite curvature range.

    ``witness_c0`` is the minimal constant with G'(x)*x <= C0*G(x) over the
    upper half of the probe range (clamped at zero), and ``min_phi_prime``
    the smallest Phi' over the probes (NaN where a probe's Phi' is).  When a
    flag is false, ``worst_violation`` > 0 and ``witness_x`` records an
    offending abscissa.
    """

    h1_ok: bool
    h2_convexity_ok: bool
    h2_growth_ok: bool
    witness_c0: float
    x_lo: float
    x_hi: float
    worst_violation: float
    min_phi_prime: float
    witness_x: Optional[float] = None

    @property
    def all_ok(self):
        return self.h1_ok and self.h2_convexity_ok and self.h2_growth_ok


def _monomial(c, e):
    """x -> c x^e; exactly 0 when c = 0, where x^e may overflow and 0 * inf
    would be NaN."""
    if c == 0.0:
        return lambda x: np.zeros(np.shape(x))
    return lambda x: c * np.power(x, e)


def power_law(p):
    """Speed law G(x) = x^(p-1), i.e. normal speed k^p.

    p = 1 is the classical curve shortening flow, p = 1/3 the affine flow
    (note G is then decreasing, so (H1) fails and the roundness theory does
    not apply).  Rejects p unless 0 < p < inf.  A derivative whose
    coefficient is 0 (G' and G'' at p = 1, G'' at p = 2) is zeros, with no
    power evaluated.
    """
    p = float(p)
    if not 0.0 < p < np.inf:
        raise ValueError(f"power law exponent must be positive and finite, got {p}")
    return SpeedLaw(
        g=lambda x: np.power(x, p - 1.0),
        g_prime=_monomial(p - 1.0, p - 2.0),
        g_double_prime=_monomial((p - 1.0) * (p - 2.0), p - 3.0),
        label=f"power p={p:g}",
        tail_integral=lambda k: np.power(k, -(p + 1.0)) / (p + 1.0),
    )


def parse_law(name):
    """Build a built-in law from its CLI name, currently "power:<p>"."""
    kind, _, arg = str(name).partition(":")
    if kind != "power" or not arg:
        raise ValueError(f"unknown speed law {name!r}; expected 'power:<p>'")
    return power_law(float(arg))


def check_representable(law, xs, g, phi_prime):
    """Raise SpeedLawDomainError at the first probe x where G or Phi' underflows.

    ``g`` and ``phi_prime`` are the law's values at the probes.  At x > 0 a
    G that is 0 or subnormal, or a subnormal Phi', is float underflow, not a
    property of the law, and must not be judged as a failed hypothesis.  An
    exact Phi' = 0 beside a normal G is the cancellation G'x = -G, which the
    law does have (G = e^-x at x = 1).  G' is exempt: it is exactly 0 for
    p = 1.
    """
    tiny = sys.float_info.min  # the smallest normal float
    bad = (np.abs(g) < tiny) | ((phi_prime != 0.0) & (np.abs(phi_prime) < tiny))
    if np.any(bad):
        x = float(xs[bad][0])
        raise SpeedLawDomainError(
            f"{law.label}: G or Phi' underflows at x={x!r}; the law cannot be "
            "evaluated there in floating point", abscissa=x)


# the log-spaced probes on which check-law, run and containment judge a law
PROBES = 64


# ``n_probes`` is passed by perfbench/worker.py until ROADMAP item 1 changes the
# benchmark; every caller in the package uses the default
def check_hypotheses(law, x_lo, x_hi, n_probes=PROBES):
    """Probe (H1) and (H2) on ``n_probes`` log-spaced points of [x_lo, x_hi].

    (H1): G > 0 and G' >= 0 at every probe.
    (H2) convexity: (G(x) x^2)'' >= -1e-10 * max|G x^2|, evaluated through
    the identity (G x^2)'' = Phi''(x) x + 2 Phi'(x).
    (H2) growth: reports the minimal feasible C0 = max G'x/G over the upper
    half of the probe range; the analytic condition only constrains
    "sufficiently large x", so the constant is surfaced rather than judged
    against a threshold.
    A probe where G or Phi' underflows raises SpeedLawDomainError, as does a
    non-finite G (see ``check_representable``).
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not (0.0 < x_lo < x_hi < np.inf):
        raise ValueError(f"need 0 < x_lo < x_hi < inf, got [{x_lo}, {x_hi}]")
    n_probes = int(n_probes)
    if n_probes < 16:
        raise ValueError(f"need at least 16 probes, got {n_probes}")

    xs = np.geomspace(x_lo, x_hi, n_probes)
    # far from x = 1 the probes may overflow: non-finite values are judged
    # below rather than warned about.  Each law callable is evaluated once;
    # Phi' and Phi'' are SpeedLaw.phi_prime's and phi_double_prime's expressions
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(law.g(xs), dtype=float)
        gp = np.asarray(law.g_prime(xs), dtype=float)
        phi_prime = gp * xs + g
        gxx2_ddot = (law.g_double_prime(xs) * xs + 2.0 * gp) * xs + 2.0 * phi_prime
        gxx2 = g * xs * xs
    if not np.all(np.isfinite(g)):
        bad = float(xs[~np.isfinite(g)][0])
        raise SpeedLawDomainError(f"G non-finite at probe x={bad}", abscissa=bad)
    check_representable(law, xs, g, phi_prime)

    worst = 0.0
    witness = None

    h1_viol = np.maximum(np.maximum(-g, 0.0), np.maximum(-gp, 0.0))
    h1_ok = bool(np.all(g > 0.0) and np.all(gp >= 0.0))
    if not h1_ok:
        j = int(np.argmax(h1_viol))
        worst, witness = float(h1_viol[j]), float(xs[j])

    # (G x^2)'' via Phi; tolerance absorbs roundoff in the probe values
    conv_tol = 1e-10 * float(np.max(np.abs(gxx2)))
    conv_viol = np.maximum(-(gxx2_ddot + conv_tol), 0.0)
    h2_convexity_ok = bool(np.all(conv_viol == 0.0))
    if not h2_convexity_ok:
        j = int(np.argmax(conv_viol))
        if conv_viol[j] > worst:
            worst, witness = float(conv_viol[j]), float(xs[j])

    upper = xs >= np.sqrt(x_lo) * np.sqrt(x_hi)  # x_lo * x_hi may overflow
    with np.errstate(over="ignore"):  # a steep G' over a small G may overflow
        ratio = gp[upper] * xs[upper] / g[upper]
    h2_growth_ok = bool(np.all(np.isfinite(ratio)))
    witness_c0 = float(max(0.0, np.max(ratio))) if h2_growth_ok else float("inf")
    if not h2_growth_ok:
        j = int(np.argmax(~np.isfinite(ratio)))
        worst = max(worst, float("inf"))
        witness = float(xs[upper][j])

    return HypothesisReport(
        h1_ok=h1_ok,
        h2_convexity_ok=h2_convexity_ok,
        h2_growth_ok=h2_growth_ok,
        witness_c0=witness_c0,
        x_lo=x_lo,
        x_hi=x_hi,
        worst_violation=worst,
        min_phi_prime=float(np.min(phi_prime)),
        witness_x=witness,
    )
