import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glmixer.errors import NumericalError, ValidationError
from glmixer.kernels import (RngStream, draw_categorical, draw_categorical_log,
                             draw_gamma, draw_gig, draw_mvn_from_precision,
                             draw_normal)

from oracles import (categorical_by_searchsorted, ecdf_sup_distance, gamma_pdf,
                     gig_half_mean, gig_pdf)


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class TestRngStream:
    def test_reproducible(self):
        a = rng(42, 3).random(10)
        b = rng(42, 3).random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        assert not np.array_equal(rng(42, 0).random(10), rng(42, 1).random(10))


class TestGamma:
    def test_mean(self):
        x = draw_gamma(rng(1), 3.0, 2.0, size=10 ** 6)
        assert abs(x.mean() - 1.5) < 0.01

    def test_tiny_shape_no_collapse(self):
        logx = draw_gamma(rng(2), 1e-10, 1e-10, size=10 ** 5, log=True)
        assert np.all(np.isfinite(logx))
        x = draw_gamma(rng(2), 1e-10, 1e-10, size=10 ** 5)
        assert np.all(x > 0) and not np.any(np.isnan(x))

    def test_cdf_small_shape(self):
        x = draw_gamma(rng(3), 0.5, 1.0, size=10 ** 5)
        assert ecdf_sup_distance(x, gamma_pdf(0.5, 1.0)) < 0.01

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            draw_gamma(rng(), 0.0, 1.0)
        with pytest.raises(ValidationError):
            draw_gamma(rng(), 1.0, -1.0)

    def test_scalar_type(self):
        assert isinstance(draw_gamma(rng(), 2.0, 2.0), float)


class TestNormal:
    def test_degenerate_sd_zero(self):
        assert draw_normal(rng(), 7.0, 0.0) == 7.0

    def test_moments(self):
        x = draw_normal(rng(4), 0.0, 1.0, size=10 ** 6)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.01

    def test_skewness(self):
        x = draw_normal(rng(5), 0.0, 1.0, size=10 ** 6)
        skew = np.mean(((x - x.mean()) / x.std()) ** 3)
        assert abs(skew) < 0.01

    def test_negative_sd(self):
        with pytest.raises(ValidationError):
            draw_normal(rng(), 0.0, -1.0)


class TestMvnFromPrecision:
    def test_identity(self):
        g = rng(6)
        draws = np.array([draw_mvn_from_precision(g, np.zeros(2), np.eye(2))
                          for _ in range(10 ** 5)])
        assert np.allclose(draws.mean(axis=0), 0.0, atol=0.02)
        assert np.allclose(draws.var(axis=0), 1.0, atol=0.01 + 0.02)

    def test_diagonal_closed_form(self):
        g = rng(7)
        P = np.diag([4.0, 1.0])
        b = np.array([8.0, 3.0])
        draws = np.array([draw_mvn_from_precision(g, b, P) for _ in range(10 ** 5)])
        assert np.allclose(draws.mean(axis=0), [2.0, 3.0], atol=0.02)
        assert np.allclose(draws.var(axis=0), [0.25, 1.0], atol=0.02)

    def test_correlated_vs_dense_inverse(self):
        g = rng(8)
        P = np.array([[2.0, 0.8], [0.8, 1.5]])
        cov_oracle = np.linalg.inv(P)  # independent dense inverse
        draws = np.array([draw_mvn_from_precision(g, np.zeros(2), P)
                          for _ in range(10 ** 5)])
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - cov_oracle)) < 0.02

    def test_not_pd_after_jitter(self):
        with pytest.raises(NumericalError):
            draw_mvn_from_precision(rng(), np.zeros(2), -np.eye(2))


class TestGig:
    def test_mean_half(self):
        x = draw_gig(rng(9), -0.5, 2.0, 8.0, size=10 ** 6)
        assert abs(x.mean() - gig_half_mean(2.0, 8.0)) < 0.02

    def test_mean_half_symmetric(self):
        x = draw_gig(rng(10), -0.5, 2.0, 2.0, size=10 ** 6)
        assert abs(x.mean() - 1.0) < 0.01

    def test_cdf_half(self):
        x = draw_gig(rng(11), -0.5, 2.0, 0.5, size=10 ** 5)
        assert ecdf_sup_distance(x, gig_pdf(-0.5, 2.0, 0.5)) < 0.01

    def test_cdf_general_p(self):
        # exercises the scalar rejection branch
        x = draw_gig(rng(12), 1.3, 1.5, 2.5, size=2 * 10 ** 4)
        assert ecdf_sup_distance(x, gig_pdf(1.3, 1.5, 2.5)) < 0.015

    def test_cdf_positive_half(self):
        x = draw_gig(rng(13), 0.5, 3.0, 1.0, size=10 ** 5)
        assert ecdf_sup_distance(x, gig_pdf(0.5, 3.0, 1.0)) < 0.01

    def test_gamma_limit_b_zero(self):
        x = draw_gig(rng(14), 2.0, 3.0, 1e-40, size=10 ** 5)
        assert ecdf_sup_distance(x, gamma_pdf(2.0, 1.5)) < 0.01

    def test_invgamma_limit_a_zero(self):
        x = draw_gig(rng(15), -0.5, 1e-40, 2.0, size=10 ** 5)
        # 1/x ~ Gamma(1/2, 1) when a -> 0
        assert ecdf_sup_distance(1.0 / x, gamma_pdf(0.5, 1.0)) < 0.01

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            draw_gig(rng(), -0.5, -1.0, 1.0)
        with pytest.raises(ValidationError):
            draw_gig(rng(), -0.5, 1e-40, 1e-40)


class TestCategorical:
    def test_point_mass(self):
        g = rng(16)
        assert all(draw_categorical(g, [1.0, 0.0, 0.0]) == 0 for _ in range(100))

    def test_symmetric(self):
        g = rng(17)
        draws = np.array([draw_categorical(g, [1.0, 1.0]) for _ in range(10 ** 5)])
        assert abs(np.mean(draws == 0) - 0.5) < 0.005

    def test_proportions(self):
        g = rng(18)
        draws = np.array([draw_categorical(g, [1.0, 2.0, 7.0]) for _ in range(10 ** 5)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, [0.1, 0.2, 0.7], atol=0.01)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            draw_categorical(rng(), [0.0, 0.0])
        with pytest.raises(ValidationError):
            draw_categorical(rng(), [1.0, np.nan])

    def test_log_space_matches(self):
        g = rng(19)
        logw = np.log([1.0, 2.0, 7.0]) - 700.0  # would underflow naively
        draws = np.array([draw_categorical_log(g, logw) for _ in range(10 ** 5)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, [0.1, 0.2, 0.7], atol=0.01)

    def test_rejects_rows_without_finite_weight(self):
        with pytest.raises(ValidationError):
            draw_categorical_log(rng(), [-np.inf, -np.inf])
        with pytest.raises(ValidationError):
            draw_categorical_log(rng(), [[0.0, 1.0, 2.0], [-np.inf, -np.inf, -np.inf]])


# Few distinct values, so rows carry ties and zero-weight (-inf) entries.
LOG_WEIGHT_ROWS = st.integers(1, 6).flatmap(lambda cols: arrays(
    np.float64, st.tuples(st.integers(1, 8), st.just(cols)),
    elements=st.one_of(st.sampled_from([-np.inf, 0.0, -1.0, 2.0, -745.0]),
                       st.floats(-50.0, 50.0))))


class FixedUniform:
    """Stands in for a Generator whose uniforms all equal `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


class TestCategoricalLogMatchesSearchsorted:
    @settings(max_examples=300, deadline=None)
    @given(lw=LOG_WEIGHT_ROWS, seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_oracle(self, lw, seed):
        lw[~np.isfinite(lw).any(axis=1), 0] = 0.0
        got = draw_categorical_log(rng(seed), lw)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, categorical_by_searchsorted(rng(seed), lw))

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
    def test_uniform_on_cdf_entries(self, u):
        # CDFs [0, 1, 1, 2] and [1, 2, 3, 4]: u * total lands exactly on
        # entries, where counting entries <= u and side="right" must agree
        lw = np.array([[-np.inf, 0.0, -np.inf, 0.0], [0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(draw_categorical_log(FixedUniform(u), lw),
                                      categorical_by_searchsorted(FixedUniform(u), lw))

    def test_one_dimensional_matches_first_row(self):
        lw = np.array([0.3, -np.inf, 1.2, 1.2])
        for seed in range(50):
            got = draw_categorical_log(rng(seed), lw)
            assert isinstance(got, int)
            assert got == categorical_by_searchsorted(rng(seed), lw[None, :])[0]
