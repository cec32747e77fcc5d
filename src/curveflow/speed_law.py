"""Flow speed laws and numeric validation of their structural hypotheses.

The flow moves a convex curve with normal speed G(k)*k, where k > 0 is the
inward curvature and G is positive and non-decreasing on (0, inf).  The
theory additionally wants G(x)*x^2 convex and G'(x)*x <= C0*G(x) for large x;
``check_hypotheses`` probes both conditions numerically on the curvature
range a run will actually visit.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .errors import SpeedLawDomainError


@dataclasses.dataclass(frozen=True)
class SpeedLaw:
    """A speed factor G with derivatives, immutable and safe to share.

    ``g``, ``g_prime``, ``g_double_prime`` evaluate G, G', G'' elementwise on
    positive floats or arrays.  ``tail_integral``, when provided, is the
    closed form of  int_k^inf dx / (G(x) x^3)  used for blow-up bracketing;
    otherwise the integral is done by adaptive quadrature.
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

    def tail_mass(self, k, rtol=1e-10):
        """int_k^inf dx / (G(x) x^3), the time-to-blow-up mass above curvature k.

        Uses the closed form when the law carries one.  The quadrature route
        extends the cutoff X geometrically until the remainder bound
        1/(2 G(X) X^2)  (valid since G is non-decreasing) drops below
        ``rtol`` of the accumulated integral.
        """
        k = float(k)
        if k <= 0.0:
            raise SpeedLawDomainError("tail integral needs k > 0", abscissa=k)
        if self.tail_integral is not None:
            return float(self.tail_integral(k))
        # scipy is imported here, not at the top, so that runs of laws with a
        # closed-form tail (every built-in one) never load it
        from scipy.integrate import quad

        total = 0.0
        lo = k
        hi = 8.0 * k
        for _ in range(120):
            part, _ = quad(lambda x: 1.0 / (self.g(x) * x ** 3), lo, hi, limit=200)
            total += part
            bound = 1.0 / (2.0 * self.g(hi) * hi * hi)
            if bound <= rtol * total:
                return total
            lo, hi = hi, 8.0 * hi
        raise SpeedLawDomainError(
            f"tail integral did not converge for {self.label} at k={k}", abscissa=k)


@dataclasses.dataclass(frozen=True)
class HypothesisReport:
    """Outcome of probing (H1)/(H2) on a finite curvature range.

    ``witness_c0`` is the minimal constant with G'(x)*x <= C0*G(x) over the
    upper half of the probe range (clamped at zero).  When a flag is false,
    ``worst_violation`` > 0 and ``witness_x`` records an offending abscissa.
    """

    h1_ok: bool
    h2_convexity_ok: bool
    h2_growth_ok: bool
    witness_c0: float
    x_lo: float
    x_hi: float
    worst_violation: float
    witness_x: Optional[float] = None

    @property
    def all_ok(self):
        return self.h1_ok and self.h2_convexity_ok and self.h2_growth_ok


def _pow(x, e):
    # np.power with a float exponent dominates the integrator's arithmetic
    # cost, so the small integer exponents get dedicated paths
    if e == 0.0:
        return np.ones(np.shape(x))
    if e == 1.0:
        return np.asarray(x, dtype=float) + 0.0
    if e == 2.0:
        x = np.asarray(x, dtype=float)
        return x * x
    if e == -1.0:
        return 1.0 / np.asarray(x, dtype=float)
    return np.power(x, e)


def power_law(p):
    """Speed law G(x) = x^(p-1), i.e. normal speed k^p.

    p = 1 is the classical curve shortening flow, p = 1/3 the affine flow
    (note G is then decreasing, so (H1) fails and the roundness theory does
    not apply).  Rejects p <= 0.
    """
    p = float(p)
    if not p > 0.0:
        raise ValueError(f"power law exponent must be positive, got {p}")
    return SpeedLaw(
        g=lambda x: _pow(x, p - 1.0),
        g_prime=lambda x: (p - 1.0) * _pow(x, p - 2.0),
        g_double_prime=lambda x: (p - 1.0) * (p - 2.0) * _pow(x, p - 3.0),
        label=f"power p={p:g}",
        tail_integral=lambda k: _pow(k, -(p + 1.0)) / (p + 1.0),
    )


def parse_law(name):
    """Build a built-in law from its CLI name, currently "power:<p>"."""
    kind, _, arg = str(name).partition(":")
    if kind != "power" or not arg:
        raise ValueError(f"unknown speed law {name!r}; expected 'power:<p>'")
    return power_law(float(arg))


def check_hypotheses(law, x_lo, x_hi, n_probes=64):
    """Probe (H1) and (H2) on a log-spaced grid over [x_lo, x_hi].

    (H1): G > 0 and G' >= 0 at every probe.
    (H2) convexity: (G(x) x^2)'' >= -1e-10 * max|G x^2|, evaluated through
    the identity (G x^2)'' = Phi''(x) x + 2 Phi'(x).
    (H2) growth: reports the minimal feasible C0 = max G'x/G over the upper
    half of the probe range; the analytic condition only constrains
    "sufficiently large x", so the constant is surfaced rather than judged
    against a threshold.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not (0.0 < x_lo < x_hi):
        raise ValueError(f"need 0 < x_lo < x_hi, got [{x_lo}, {x_hi}]")
    n_probes = int(n_probes)
    if n_probes < 16:
        raise ValueError(f"need at least 16 probes, got {n_probes}")

    xs = np.geomspace(x_lo, x_hi, n_probes)
    # far from x = 1 the probes may overflow: non-finite values are judged
    # below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(law.g(xs), dtype=float)
        gp = np.asarray(law.g_prime(xs), dtype=float)
        gxx2_ddot = law.phi_double_prime(xs) * xs + 2.0 * law.phi_prime(xs)
        gxx2 = g * xs * xs
    if not np.all(np.isfinite(g)):
        bad = float(xs[~np.isfinite(g)][0])
        raise SpeedLawDomainError(f"G non-finite at probe x={bad}", abscissa=bad)

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

    upper = xs >= np.sqrt(x_lo * x_hi)
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
        witness_x=witness,
    )
