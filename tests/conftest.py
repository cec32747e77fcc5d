import numpy as np
import pytest

from curveflow.geometry import AngleGrid, SupportProfile


def random_convex_support(grid, rng, rel=0.15, modes=(2, 3, 4, 5, 6)):
    """h = 1 + small random low-order Fourier noise, guaranteed h'' + h > 0.

    Per-mode amplitude stays below rel/(m^2-1), so the curvature radius
    1 + sum a_m (1 - m^2) cos(...) keeps a margin of at least 1 - len(modes)*rel.
    """
    h = np.ones(grid.n)
    for m in modes:
        amp = rng.uniform(0.0, rel / (m * m - 1.0))
        h += amp * np.cos(m * grid.theta + rng.uniform(0.0, 2.0 * np.pi))
    return SupportProfile(grid, h)


@pytest.fixture(scope="session")
def grid256():
    return AngleGrid(256)


@pytest.fixture(scope="session")
def profile_corpus(grid256):
    """100 randomized smooth convex profiles (seeded)."""
    rng = np.random.default_rng(20240817)
    return [random_convex_support(grid256, rng) for _ in range(100)]


def scaled_rhs(factor, result):
    """A ``flow._rhs`` result whose state rates, the rows' dy and log
    lambda's -m, are ``factor`` times too fast: the law's G and G(1/lambda),
    from which the flux integrals are taken, are left as they are."""
    dy, m, unit, blocks = result
    return factor * dy, factor * m, unit, blocks
