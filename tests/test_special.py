import numpy as np
import pytest
from scipy import special as sp

from glmixer.special import lgam, ndtri


def ported(f, xs):
    return np.array([f(v) for v in xs.tolist()])


def test_ndtri_equals_scipy_on_rank_grids():
    # the Blom scores (r - 0.375) / (S + 0.25) that split R-hat assigns
    grid = np.concatenate([(np.arange(1.0, s + 1.0) - 0.375) / (s + 0.25)
                           for s in [*range(4, 2001), 20000]])
    np.testing.assert_array_equal(ported(ndtri, grid), sp.ndtri(grid))


def test_ndtri_equals_scipy_on_uniforms_and_tails():
    rng = np.random.default_rng(0)
    ys = np.concatenate([rng.random(100_000), 10.0 ** -rng.uniform(0, 300, 2000),
                         1.0 - 10.0 ** -rng.uniform(0, 16, 2000), [0.0, 0.5, 1.0, 5e-324]])
    np.testing.assert_array_equal(ported(ndtri, ys), sp.ndtri(ys))


@pytest.mark.parametrize("y", [-0.1, 1.5, float("nan")])
def test_ndtri_rejects_outside_unit_interval(y):
    with pytest.raises(ValueError):
        ndtri(y)


def test_lgam_equals_scipy_gammaln():
    rng = np.random.default_rng(1)
    xs = np.concatenate([np.arange(0.5, 1001.0, 0.5), rng.uniform(0.0, 2000.0, 200_000),
                         10.0 ** rng.uniform(-300, 306, 2000), [13.0, 1e8, 2e8, np.inf]])
    np.testing.assert_array_equal(ported(lgam, xs), sp.gammaln(xs))


@pytest.mark.parametrize("x", [0.0, -1.5, float("nan")])
def test_lgam_rejects_non_positive(x):
    with pytest.raises(ValueError):
        lgam(x)
