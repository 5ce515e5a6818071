import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import glmixer
from glmixer import gibbs, inference, simulate
from glmixer.design import ModelSpec, build_matrices
from glmixer.errors import NumericalError, ValidationError
from glmixer.gibbs import ERROR_PRIORS, REFFECT_PRIORS, PriorConfig, run_chain
from glmixer.kernels import (RngStream, draw_categorical_log, draw_gamma, draw_gig,
                             draw_local_prior, draw_mvn_from_precision,
                             draw_mvn_whitened, draw_standard)

from oracles import (categorical_by_searchsorted, ecdf_sup_distance, gamma_pdf,
                     gig_half_mean, gig_neg_half_by_masks, gig_pdf)


def rng(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class TestRngStream:
    def test_reproducible(self):
        a = rng(42, 3).random(10)
        b = rng(42, 3).random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        assert not np.array_equal(rng(42, 0).random(10), rng(42, 1).random(10))

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would raise ValueError, which the CLI does not map
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            RngStream(-1)


class TestGamma:
    def test_mean(self):
        x = draw_gamma(rng(1), 3.0, 2.0, size=10 ** 6)
        assert abs(x.mean() - 1.5) < 0.01

    def test_cdf_small_shape(self):
        x = draw_gamma(rng(3), 0.5, 1.0, size=10 ** 5)
        assert ecdf_sup_distance(x, gamma_pdf(0.5, 1.0)) < 0.01

    @pytest.mark.filterwarnings("error")  # a bad rate is the error, not a warning
    @pytest.mark.parametrize("form", ["scalar", "array"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("param", ["shape", "rate"])
    def test_rejects_bad_params(self, param, bad, form):
        value = bad if form == "scalar" else np.array([1.0, bad, 2.0])
        kw = {"shape": 1.5, "rate": 2.0, param: value}
        with pytest.raises(ValidationError):
            draw_gamma(rng(), kw["shape"], kw["rate"])

    def test_scalar_type(self):
        assert isinstance(draw_gamma(rng(), 2.0, 2.0), float)


class TestDrawStandard:
    @pytest.mark.parametrize("sizes", [(20, 20, 20, 20, 20), (20, 7, 12, 20, 3),
                                       (20, 7, 12, 9, 3)])
    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_two_calls_equal_the_steps_calls(self, error_prior, reffect_prior, sizes):
        # a sweep's rate-free variates as the steps drew them one call at a
        # time (u, beta, tau, phi, lambda, rho, omega, varrho), against the
        # sweep's calls per chain on its runs of equal shapes; the last sizes
        # differ for every unit, so lambda is one array-shape call
        panel, truth = simulate.simulate_panel(simulate.SimConfig(m=5, n_i=20, seed=2))
        design = build_matrices(panel, ModelSpec.from_dict(truth["spec"]))
        design = dataclasses.replace(design, sizes=np.asarray(sizes))
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior,
                             a_tau=0.7, a_phi=1.3)
        m, p, n = design.m, design.p, sum(sizes)
        rows = []
        for k in range(3):
            ref = rng(31, k)
            normals = [ref.standard_normal(m), ref.standard_normal(p)]
            gammas = [[ref.standard_gamma(0.5 * n + 0.7)], [ref.standard_gamma(0.5 * m + 1.3)]]
            if error_prior == "half-cauchy":
                gammas += [ref.standard_gamma(0.5 * np.asarray(sizes) + 1.0),
                           ref.standard_gamma(2.0, size=m)]
            if reffect_prior == "horseshoe":
                gammas += [ref.standard_gamma(1.0, size=m), ref.standard_gamma(1.0, size=m)]
            rows.append((np.concatenate(normals), np.concatenate(gammas), ref.random()))
        shapes, _ = gibbs._sweep_layout(design, priors)
        gens = [rng(31, k) for k in range(3)]
        zn, zg = draw_standard(gens, m + p, shapes)
        for k, (want_n, want_g, after) in enumerate(rows):
            assert zn[k].tobytes() == want_n.tobytes()
            assert zg[k].tobytes() == want_g.tobytes()
            assert gens[k].random() == after  # each stream left where the steps left it

    def test_scaled_gammas_name_lowest_bad_chain(self):
        z = np.ones((4, 3))
        rate = np.full((4, 3), 2.0)
        rate[3, 0] = np.nan
        rate[1, 2] = -1.0
        with pytest.raises(ValidationError, match=r"rate=array\(\[ 2\.,  2\., -1\.\]\)") as exc:
            draw_gamma(None, 1.0, rate, z=z)
        assert exc.value.row == 1
        np.testing.assert_array_equal(draw_gamma(None, 1.0, 4.0, z=z), np.full((4, 3), 0.25))


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


class TestMvnWhitened:
    P = np.array([[2.0, 0.8, 0.1], [0.8, 1.5, -0.3], [0.1, -0.3, 0.7]])
    b = np.array([1.0, -2.0, 0.5])

    @pytest.mark.parametrize("factor", ["cholesky", "eigh"])
    def test_matches_precision_moments(self, factor):
        if factor == "cholesky":
            W = np.linalg.inv(np.linalg.cholesky(self.P))
        else:
            evals, evecs = np.linalg.eigh(self.P)
            W = (evecs / np.sqrt(evals)).T
        cov = np.linalg.inv(self.P)  # independent dense inverse
        np.testing.assert_allclose(W.T @ W, cov, atol=1e-13)
        g = rng(12)
        n = 10 ** 5
        draws = np.array([draw_mvn_whitened(g, self.b, W) for _ in range(n)])
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - cov @ self.b) < 4.0 * se)
        assert np.max(np.abs(np.cov(draws.T) - cov)) < 0.02

    def test_precision_draw_is_cholesky_whitened_draw(self):
        W = np.linalg.inv(np.linalg.cholesky(self.P))
        np.testing.assert_array_equal(draw_mvn_from_precision(rng(13), self.b, self.P),
                                      draw_mvn_whitened(rng(13), self.b, W))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_w(self, bad):
        W = np.eye(3)
        W[1, 2] = bad
        with pytest.raises(NumericalError):
            draw_mvn_whitened(rng(), self.b, W)


class TestGig:
    def test_mean_half(self):
        x = draw_gig(rng(9), np.full(10 ** 6, 2.0), 8.0)
        assert abs(x.mean() - gig_half_mean(2.0, 8.0)) < 0.02

    def test_mean_half_symmetric(self):
        x = draw_gig(rng(10), np.full(10 ** 6, 2.0), 2.0)
        assert abs(x.mean() - 1.0) < 0.01

    def test_cdf_half(self):
        x = draw_gig(rng(11), np.full(10 ** 5, 2.0), 0.5)
        assert ecdf_sup_distance(x, gig_pdf(-0.5, 2.0, 0.5)) < 0.01

    def test_invgamma_limit_a_zero(self):
        x = draw_gig(rng(15), np.full(10 ** 5, 1e-40), 2.0)
        # 1/x ~ Gamma(1/2, 1) when a -> 0
        assert ecdf_sup_distance(1.0 / x, gamma_pdf(0.5, 1.0)) < 0.01

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            draw_gig(rng(), np.array([-1.0]), 1.0)
        for b in (1e-40, 0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                draw_gig(rng(), np.array([1e-40, 1.0]), b)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                draw_gig(rng(), np.array([1.0, bad]), 2.0)

    def test_vector_a_matches_former_sampler_draw(self):
        # the Laplace omega step: one draw per entry of a, with entries
        # below GIG_TINY taking the inverse-Gamma limit
        levels = np.array([2.0, 0.0, 0.5, 1e-40, 8.0])
        a = np.tile(levels, 40_000)
        x = draw_gig(rng(20), a, 2.0)
        np.testing.assert_array_equal(x, gig_neg_half_by_masks(rng(20), a, 2.0))
        for level in (2.0, 0.5, 8.0):
            assert ecdf_sup_distance(x[a == level], gig_pdf(-0.5, level, 2.0)) < 0.015
        # 1/x ~ Gamma(1/2, b/2) as a -> 0
        assert ecdf_sup_distance(1.0 / x[a < 1e-30], gamma_pdf(0.5, 1.0)) < 0.015


class TestCategorical:
    def test_log_space_matches(self):
        g = rng(19)
        logw = np.log([1.0, 2.0, 7.0]) - 700.0  # would underflow naively
        draws = np.array([draw_categorical_log(g, logw.copy()) for _ in range(10 ** 5)])
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
        got = draw_categorical_log(rng(seed), lw.copy())
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, categorical_by_searchsorted(rng(seed), lw))

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
    def test_uniform_on_cdf_entries(self, u):
        # CDFs [0, 1, 1, 2] and [1, 2, 3, 4]: u * total lands exactly on
        # entries, where counting entries <= u and side="right" must agree
        lw = np.array([[-np.inf, 0.0, -np.inf, 0.0], [0.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(draw_categorical_log(FixedUniform(u), lw.copy()),
                                      categorical_by_searchsorted(FixedUniform(u), lw))

    @settings(max_examples=100, deadline=None)
    @given(lw=LOG_WEIGHT_ROWS, chains=st.sampled_from([1, 2, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chain_axis_matches_per_chain_oracle(self, lw, chains, seed):
        # chain c's rows are lw rolled by c, drawn on its own Generator
        lw[~np.isfinite(lw).any(axis=1), 0] = 0.0
        stacked = np.stack([np.roll(lw, c, axis=0) for c in range(chains)])
        got = draw_categorical_log([rng(seed, c) for c in range(chains)], stacked.copy())
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.stack(
            [categorical_by_searchsorted(rng(seed, c), stacked[c]) for c in range(chains)]))

    @pytest.mark.parametrize("chains,rows", [(1, 300), (4, 40), (4, 300)])
    def test_wide_rows_match_per_chain_oracle(self, chains, rows):
        # the CDF is built in the weights' own memory, whatever their layout
        lw = rng(5).standard_normal((chains, rows, 30)) * 4.0
        lw[:, ::7, 3] = -np.inf
        want = np.stack([categorical_by_searchsorted(rng(8, c), lw[c]) for c in range(chains)])
        for weights in (lw.copy(), np.moveaxis(np.moveaxis(lw, -1, 0).copy(), 0, -1),
                        np.asfortranarray(lw)):
            got = draw_categorical_log([rng(8, c) for c in range(chains)], weights)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chains", [1, 2, 4])
    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75])
    def test_chain_axis_uniform_on_cdf_entries(self, chains, u):
        lw = np.array([[-np.inf, 0.0, -np.inf, 0.0], [0.0, 0.0, 0.0, 0.0]])
        values = [(u + 0.25 * c) % 1.0 for c in range(chains)]
        got = draw_categorical_log([FixedUniform(v) for v in values], np.stack([lw] * chains))
        np.testing.assert_array_equal(got, np.stack(
            [categorical_by_searchsorted(FixedUniform(v), lw) for v in values]))

    def test_chain_axis_names_lowest_bad_chain(self):
        lw = np.zeros((4, 3, 5))
        lw[3, 0, :] = -np.inf
        lw[2, 1, 3] = np.nan
        with pytest.raises(ValidationError, match="finite entry in every row") as exc:
            draw_categorical_log([rng(0, c) for c in range(4)], lw)
        assert exc.value.row == 2

    def test_one_dimensional_matches_first_row(self):
        lw = np.array([0.3, -np.inf, 1.2, 1.2])
        for seed in range(50):
            got = draw_categorical_log(rng(seed), lw.copy())
            assert isinstance(got, int)
            assert got == categorical_by_searchsorted(rng(seed), lw[None, :])[0]


class TestLocalPrior:
    @pytest.mark.parametrize("family,pdf", [
        ("horseshoe", lambda w: w ** -0.5 / (1.0 + w)),          # Beta-prime(1/2, 1/2)
        ("laplace", lambda w: w ** -2.0 * np.exp(-1.0 / w)),     # 1 / Exp(1)
        ("student-t", gamma_pdf(2.5, 2.5)),                      # Gamma(nu/2, nu/2), nu = 5
    ])
    def test_matches_prior_density(self, family, pdf):
        x = draw_local_prior(rng(22), family, 10 ** 5, nu=5.0)
        assert ecdf_sup_distance(x, lambda w: pdf(w) if w > 0 else 0.0) < 0.01

    def test_gamma_family_is_ones_and_unknown_rejected(self):
        np.testing.assert_array_equal(draw_local_prior(rng(), "gamma", 4), np.ones(4))
        with pytest.raises(ValidationError):
            draw_local_prior(rng(), "cauchy", 4)

    @pytest.mark.parametrize("family", ["gamma", "student-t", "horseshoe", "laplace"])
    def test_simulate_and_predict_draw_through_it(self, family, monkeypatch):
        calls = []

        def spy(rng_, fam, size, nu=None):
            calls.append((fam, size, nu))
            return draw_local_prior(rng_, fam, size, nu=nu)

        monkeypatch.setattr(simulate, "draw_local_prior", spy)
        monkeypatch.setattr(inference, "draw_local_prior", spy)
        cfg = simulate.SimConfig(m=4, n_i=10, seed=3, reffect_prior=family)
        panel, truth = simulate.simulate_panel(cfg)
        assert calls == [(family, 4, 5.0)]
        replay = draw_local_prior(RngStream(3, simulate.SIM_STREAM).generator(), family, 4,
                                  nu=5.0)
        np.testing.assert_array_equal(truth["omega"], replay)

        calls.clear()
        spec = ModelSpec.from_dict(truth["spec"])
        priors = PriorConfig(reffect_prior=family)
        traces = [run_chain(panel, spec, priors, n_iter=30, burn_in=10, thin=1, seed=5,
                            stream_id=k)
                  for k in range(2)]
        inference.predict_new_unit(traces, build_matrices(panel, spec).X[:3], [3])
        assert [(fam, size) for fam, size, _ in calls] == [(family, 20)] * 2
        for *_, nu in calls:
            if family == "student-t":
                assert nu.shape == (20,) and set(nu) <= set(priors.nu_support)
            else:
                assert nu is None


# Generator methods that draw Gamma, GIG (inverse Gaussian) or local-prior
# variates; only the kernel layer may call them, so the oracle tests of
# that layer pin every such draw the program makes.
KERNEL_ONLY_DRAWS = {"standard_gamma", "wald", "exponential", "beta"}


def kernel_only_draw_calls(source: str) -> list:
    """(line, method) of every call of a KERNEL_ONLY_DRAWS method."""
    return [(node.lineno, node.func.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in KERNEL_ONLY_DRAWS]


def test_only_kernels_call_gamma_gig_and_local_prior_draws():
    assert kernel_only_draw_calls("x = rng.wald(1.0, 2.0)\ny = g.beta(0.5, 0.5)") == [
        (1, "wald"), (2, "beta")]
    package = Path(glmixer.__file__).parent
    offenders = {path.name: calls for path in sorted(package.glob("*.py"))
                 if path.name != "kernels.py"
                 and (calls := kernel_only_draw_calls(path.read_text(encoding="utf-8")))}
    assert offenders == {}
    assert kernel_only_draw_calls((package / "kernels.py").read_text(encoding="utf-8"))
