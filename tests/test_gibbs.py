import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from glmixer import gibbs
from glmixer.design import ModelSpec, build_matrices
from glmixer.errors import NumericalError, ValidationError
from glmixer.gibbs import (ERROR_PRIORS, NU_WEIGHTS, REFFECT_PRIORS, PriorConfig,
                           beta_conditional, initialize_state, lambda_conditional,
                           nu_log_prior, nu_log_weights,
                           omega_conditional_horseshoe,
                           omega_conditional_student_t, phi_conditional,
                           rss_closed_form, run_chain, step_beta,
                           step_lambda_halfcauchy, sweep, tau_conditional,
                           u_conditional)
from glmixer.kernels import draw_categorical_log, draw_mvn_from_precision
from glmixer.simulate import SimConfig, simulate_panel

from oracles import group_aggregates_by_masks, replace_design, rss_by_group


lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def small_panel(seed=0, m=4, n_i=10):
    panel, _ = simulate_panel(SimConfig(m=m, n_i=n_i, seed=seed))
    return panel


def make_state(design, rng=None, priors=None):
    """A one-chain (1, .) state with random values."""
    rng = rng or np.random.default_rng(1234)
    priors = priors or PriorConfig()
    state = initialize_state(design, priors)
    m = design.m
    state.beta = rng.normal(size=(1, design.p))
    state.u = rng.normal(size=(1, m))
    state.tau = rng.uniform(0.5, 5.0, size=1)
    state.phi = rng.uniform(0.5, 5.0, size=1)
    state.omega = rng.uniform(0.2, 3.0, size=(1, m))
    state.lam = rng.uniform(0.2, 3.0, size=(1, m))
    state.rho = rng.uniform(0.2, 3.0, size=(1, m))
    state.varrho = rng.uniform(0.2, 3.0, size=(1, m))
    state.rss = rss_by_group(state, design)
    return state


def chain_fields(state):
    """The one chain of a (1, .) state, each field without the chain axis:
    the plain numbers and vectors the brute-force oracles read."""
    return gibbs.ChainState(**{f.name: getattr(state, f.name)[0]
                               for f in dataclasses.fields(state)})


def one_chain(state, c):
    """Chain c of a lockstep state, as a (1, .) state."""
    return gibbs.ChainState(**{f.name: getattr(state, f.name)[c:c + 1]
                               for f in dataclasses.fields(state)})


def repeated(state, k):
    """A (1, .) state repeated to k chains, as `run_chains` does."""
    return gibbs.ChainState(**{f.name: np.repeat(getattr(state, f.name), k, axis=0)
                               for f in dataclasses.fields(state)})


def with_y(design, y):
    """The design with response y and every per-group sum recomputed."""
    sums = group_aggregates_by_masks(design.X, y, design.group_idx, design.m)
    return replace_design(
        design, y=y, **dict(zip(("xbar", "ybar", "XtX_g", "Xty_g", "yty_g"), sums)))


def nan_on_call(real, call, name, rows=None):
    """`real`, but its `call`-th call first sets state.<name> to NaN, in the
    given chain rows of a lockstep state or everywhere."""
    calls = []

    def hooked(state, *args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            value = np.array(getattr(state, name), dtype=np.float64)
            value[rows if rows is not None else ...] = math.nan
            setattr(state, name, value)
        return real(state, *args, **kwargs)
    return hooked


@pytest.fixture(scope="module")
def design():
    return build_matrices(small_panel(), ModelSpec(variant=1, year_offset=2009.5))


class TestPriorConfig:
    def test_round_trip(self):
        pc = PriorConfig(error_prior="gamma", reffect_prior="student-t",
                         a_tau=0.5, k_nu=3.0, nu_support=(2, 5, 9))
        assert PriorConfig.from_dict(pc.to_dict()) == pc

    def test_display_names_switch(self):
        pc = PriorConfig(error_prior="gamma", reffect_prior="horseshoe")
        assert pc.tau_name == "zeta_eps" and pc.phi_name == "phi"
        pc = PriorConfig(error_prior="half-cauchy", reffect_prior="gamma")
        assert pc.tau_name == "tau" and pc.phi_name == "zeta_u"

    @pytest.mark.parametrize("kw", [
        {"error_prior": "cauchy"}, {"reffect_prior": "ridge"},
        {"a_tau": 0.0}, {"b_phi": -1.0}, {"nu_support": ()},
        {"nu_support": (0, 1)}, {"nu_weight": "cubed"},
        {"beta_prior_precision": -1.0},
    ])
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValidationError):
            PriorConfig(**kw)

    def test_defaults_vague(self):
        pc = PriorConfig()
        assert pc.a_tau == pc.b_tau == pc.a_phi == pc.b_phi == 1e-10
        assert pc.k_nu == 2.84
        assert pc.nu_support == tuple(range(1, 31))


class TestUConditional:
    def test_shrinkage_arithmetic(self, design):
        # with lam*tau = 1 and omega*phi/n_i = 0.5 the factor is 2/3
        state = make_state(design)
        state.lam = np.ones((1, design.m))
        state.tau = np.ones(1)
        state.omega = np.ones((1, design.m))
        state.phi = np.full(1, 0.5 * design.sizes.astype(float)[0])
        mean, var, gamma = (x[0] for x in u_conditional(state, design))
        np.testing.assert_allclose(gamma, 2.0 / 3.0, atol=1e-14)
        resid = design.ybar - design.xbar @ state.beta[0]
        np.testing.assert_allclose(mean, (2.0 / 3.0) * resid, atol=1e-14)
        np.testing.assert_allclose(var, (2.0 / 3.0) / design.sizes, atol=1e-14)

    def test_brute_force(self, design):
        state = make_state(design, np.random.default_rng(5))
        mean, var, gamma = (x[0] for x in u_conditional(state, design))
        state = chain_fields(state)
        for g in range(design.m):
            n_g = design.sizes[g]
            prec_like = n_g * state.lam[g] * state.tau
            prec_prior = state.omega[g] * state.phi
            sel = design.group_idx == g
            r = design.y[sel] - design.X[sel] @ state.beta
            expect_mean = prec_like * r.mean() / (prec_like + prec_prior)
            expect_var = 1.0 / (prec_like + prec_prior)
            assert mean[g] == pytest.approx(expect_mean, abs=1e-12)
            assert var[g] == pytest.approx(expect_var, abs=1e-12)
            assert 0.0 < gamma[g] < 1.0

    def test_infinite_phi_kills_u(self, design):
        state = make_state(design)
        state.phi = np.full(1, 1e18)
        mean, var, gamma = u_conditional(state, design)
        assert np.all(np.abs(mean) < 1e-9) and np.all(var < 1e-15)
        assert np.all(gamma < 1e-9)


class TestBetaConditional:
    def test_ols_when_homoskedastic_no_reffect(self, design):
        state = make_state(design)
        state.lam = np.ones((1, design.m))
        state.u = np.zeros((1, design.m))
        rhs, P = (x[0] for x in beta_conditional(state, design))
        post_mean = np.linalg.solve(P, rhs)
        ols, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        np.testing.assert_allclose(post_mean, ols, atol=1e-8)
        np.testing.assert_allclose(P, state.tau * design.X.T @ design.X, atol=1e-10)

    def test_tau_scales_precision_not_mean(self, design):
        state = make_state(design)
        state.tau = np.ones(1)
        rhs1, P1 = (x[0] for x in beta_conditional(state, design))
        state.tau = np.full(1, 7.0)
        rhs7, P7 = (x[0] for x in beta_conditional(state, design))
        np.testing.assert_allclose(P7, 7.0 * P1, rtol=1e-13)
        np.testing.assert_allclose(np.linalg.solve(P7, rhs7),
                                   np.linalg.solve(P1, rhs1), atol=1e-10)

    def test_brute_force_weighted_regression(self, design):
        # the conditional mean is the WLS fit of y - u to X with weights lam_i
        state = make_state(design, np.random.default_rng(9))
        rhs, P = (x[0] for x in beta_conditional(state, design))
        state = chain_fields(state)
        w = state.lam[design.group_idx]
        z = design.y - state.u[design.group_idx]
        XtWX = design.X.T @ (w[:, None] * design.X)
        XtWz = design.X.T @ (w * z)
        np.testing.assert_allclose(P, state.tau * XtWX, atol=1e-10)
        np.testing.assert_allclose(rhs, state.tau * XtWz, atol=1e-10)
        np.testing.assert_allclose(np.linalg.solve(P, rhs),
                                   np.linalg.solve(XtWX, XtWz), atol=1e-10)

    def test_prior_precision_added(self, design):
        state = make_state(design)
        _, P0 = beta_conditional(state, design, 0.0)
        _, P1 = beta_conditional(state, design, 2.5)
        np.testing.assert_allclose((P1 - P0)[0], 2.5 * np.eye(design.p), atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 2.5])
    def test_gamma_error_draw_matches_conditional(self, design, kappa):
        # the eigendecomposition draw at fixed (u, tau) against the moments
        # of beta_conditional's N(P^-1 b, P^-1): L'(beta - mean) ~ N(0, I)
        priors = PriorConfig(error_prior="gamma", beta_prior_precision=kappa)
        state = make_state(design, np.random.default_rng(43))
        state.lam = np.ones((1, design.m))
        rhs, P = (x[0] for x in beta_conditional(state, design, kappa))
        mean = np.linalg.solve(P, rhs)
        L = np.linalg.cholesky(P)
        rng = np.random.default_rng(47)
        n = 20_000
        z = np.empty((n, design.p))
        for k in range(n):
            step_beta(state, design, priors, rng)
            z[k] = L.T @ (state.beta[0] - mean)
        assert np.max(np.abs(z.mean(axis=0))) < 4.0 / math.sqrt(n)
        assert np.max(np.abs(np.cov(z.T) - np.eye(design.p))) < 0.04


class TestScaleConditionals:
    def test_tau_brute_force(self, design):
        priors = PriorConfig(a_tau=0.75, b_tau=1.25)
        state = make_state(design, np.random.default_rng(11))
        shape, (rate,) = tau_conditional(state, design, priors)
        state = chain_fields(state)
        r = design.y - design.X @ state.beta - state.u[design.group_idx]
        expect_rate = 1.25 + 0.5 * sum(
            state.lam[g] * float(r[design.group_idx == g] @ r[design.group_idx == g])
            for g in range(design.m))
        assert shape == pytest.approx(0.5 * design.n + 0.75, abs=1e-12)
        assert rate == pytest.approx(expect_rate, abs=1e-10)

    def test_phi_brute_force(self, design):
        priors = PriorConfig(a_phi=0.3, b_phi=0.9)
        state = make_state(design, np.random.default_rng(13))
        shape, (rate,) = phi_conditional(state, design, priors)
        state = chain_fields(state)
        assert shape == pytest.approx(0.5 * design.m + 0.3, abs=1e-12)
        assert rate == pytest.approx(
            0.9 + 0.5 * sum(state.omega[g] * state.u[g] ** 2 for g in range(design.m)),
            abs=1e-12)

    @pytest.mark.parametrize("error_prior, reffect_prior",
                             [("gamma", "gamma"), ("half-cauchy", "horseshoe")])
    def test_both_priors_read_one_pair(self, design, error_prior, reffect_prior):
        # the common-Gamma zeta and the Global-Local precision take the same Gamma prior
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior,
                             a_tau=2.0, b_tau=3.0, a_phi=4.0, b_phi=5.0)
        state = make_state(design)
        state.lam, state.omega = np.ones((1, design.m)), np.ones((1, design.m))
        shape_t, (rate_t,) = tau_conditional(state, design, priors)
        shape_p, (rate_p,) = phi_conditional(state, design, priors)
        assert shape_t == 0.5 * design.n + 2.0 and shape_p == 0.5 * design.m + 4.0
        assert rate_t == pytest.approx(3.0 + 0.5 * state.rss.sum(), abs=1e-12)
        assert rate_p == pytest.approx(5.0 + 0.5 * float(state.u[0] @ state.u[0]), abs=1e-12)

    def test_lambda_brute_force(self, design):
        state = make_state(design, np.random.default_rng(17))
        shape, rate = lambda_conditional(state, design)
        rss = rss_by_group(state, design)
        np.testing.assert_allclose(shape, 0.5 * design.sizes + 1.0, atol=0)
        np.testing.assert_allclose(rate, 0.5 * state.tau * rss + state.rho, atol=1e-12)

    def test_rss_matches_direct_sum(self, design):
        # the drawn state on the simulated panel, then data refitted to it:
        # near-boundary, completeness about 1 - 1e-6, so y'y is ~200 n_i
        # while RSS is ~0.01 n_i; large-tau, residual sd 1e-3 (tau = 1e6)
        for mean_logit, noise_sd in ((None, None), (14.0, 0.1), (2.0, 1e-3)):
            state = make_state(design, np.random.default_rng(19))
            beta, u = state.beta[0], state.u[0]
            data = design
            if mean_logit is not None:
                fit = design.X @ beta + u[design.group_idx]
                beta[0] += mean_logit - fit.mean()
                noise = noise_sd * np.random.default_rng(23).standard_normal(design.n)
                data = with_y(design, fit + (mean_logit - fit.mean()) + noise)
            (rss,) = rss_closed_form(state.beta, state.u, data)
            direct = np.zeros(data.m)
            for j in range(data.n):
                g = data.group_idx[j]
                e = data.y[j] - data.X[j] @ beta - u[g]
                direct[g] += e * e
            np.testing.assert_allclose(rss, direct, atol=1e-10)

    def test_rss_clipped_at_zero(self, design):
        # exact fits: every residual is 0, and the unclipped closed form
        # cancels to about -1e-12 for roughly half of the groups
        for seed in range(5):
            state = make_state(design, np.random.default_rng(seed))
            exact = with_y(design, design.X @ state.beta[0] + state.u[0, design.group_idx])
            rss = rss_closed_form(state.beta, state.u, exact)
            assert np.all(rss >= 0.0) and np.all(rss < 1e-10)


class TestOmegaConditionals:
    def test_horseshoe_form(self):
        shape, rate = omega_conditional_horseshoe(np.array([2.0, 0.0]), np.array([3.0, 1.0]))
        assert shape == 1.0
        np.testing.assert_allclose(rate, [4.0, 1.0])

    def test_student_t_form(self):
        shape, rate = omega_conditional_student_t(np.array([2.0]), np.array([5.0]))
        np.testing.assert_allclose(shape, [3.0])
        np.testing.assert_allclose(rate, [3.5])

    def test_student_t_prior_recovered_at_u_zero(self):
        # with u = 0 the conditional must fall back to the Gamma(nu/2, nu/2) prior
        shape, rate = omega_conditional_student_t(0.0, np.array([7.0]))
        np.testing.assert_allclose(shape, [4.0])
        np.testing.assert_allclose(rate, [3.5])


class TestNuPrior:
    def test_log_weights_match_t_density(self):
        priors = PriorConfig(reffect_prior="student-t")
        u = np.array([-1.3, 0.2, 2.5])
        phi = 2.0
        (lw,) = nu_log_weights(u[None], np.array([phi]), priors)
        scale = math.sqrt(1.0 / phi)
        for i, ui in enumerate(u):
            for j, df in enumerate(priors.nu_support):
                expect = (nu_log_prior(priors)[j]
                          + stats.t.logpdf(ui, df=df, scale=scale))
                assert lw[i, j] == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("priors", [
        PriorConfig(reffect_prior="student-t", nu_weight=w) for w in NU_WEIGHTS
    ] + [PriorConfig(reffect_prior="student-t", nu_support=(2, 4, 9), k_nu=1.5)])
    def test_log_weights_equal_direct_formula_exactly(self, priors):
        # log w = c - log s - h log(nu + q) = -h log([g nu, g] [1; q]) with
        # q = phi u^2, h = (nu + 1)/2, g = exp((log s - c) / h) and c the log
        # prior, log normalizer and h log nu, the product as one matmul
        u = np.array([-40.0, -3.1, -1.3, 0.0, 0.2, 2.5, 1e-8])
        df = np.asarray(priors.nu_support, dtype=np.float64)
        h = (df + 1.0) / 2.0
        log_norm = lgamma(h) - lgamma(df / 2.0) - 0.5 * np.log(df * math.pi)
        c = nu_log_prior(priors) + log_norm + h * np.log(df)
        for phi in (1e-4, 0.5, 2.0, 350.0):
            g = np.exp((-0.5 * np.log(phi) - c) / h)
            q = u * u * phi
            table = np.stack([g * df, g], axis=1) @ np.stack([np.ones_like(q), q])
            np.testing.assert_array_equal(nu_log_weights(u[None], np.array([phi]), priors)[0],
                                          (np.log(table) * -h[:, None]).T)

    def test_t_normalizer_matches_scipy_gammaln(self):
        priors = PriorConfig(reffect_prior="student-t")  # nu = 1, ..., 30
        df = np.asarray(priors.nu_support, dtype=np.float64)
        nu_one, h, c = priors._nu_t_terms
        np.testing.assert_array_equal(nu_one, np.stack([df, np.ones_like(df)], axis=1))
        np.testing.assert_array_equal(h, (df + 1.0) / 2.0)
        want = (gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * math.pi)
                + nu_log_prior(priors) + h * np.log(df))
        np.testing.assert_allclose(c, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("priors", [
        PriorConfig(reffect_prior="student-t"),
        PriorConfig(reffect_prior="student-t", nu_weight="prose", nu_support=(2, 4, 9))])
    def test_chain_rows_equal_one_chain_weights(self, priors):
        # also when built in a table buffer that held other values, as the
        # sweep's per-fit table does
        g = np.random.default_rng(3)
        u = g.standard_normal((4, 25)) * np.array([[1e-3], [1.0], [10.0], [1e3]])
        phi = np.array([0.5, 4.0, 1e-3, 7e5])
        table = np.full((len(priors.nu_support), 4, 25), math.nan)
        for out in (None, table):
            batched = nu_log_weights(u, phi, priors, out=out)
            assert batched.shape == (4, 25, len(priors.nu_support))
            for c in range(4):
                assert (batched[c].tobytes()
                        == nu_log_weights(u[c:c + 1], phi[c:c + 1], priors).tobytes())
        assert np.shares_memory(batched, table)

    @pytest.mark.parametrize("phi", [1e-4, 7e5])
    def test_extreme_effects_draw_in_range_with_the_t_density_odds(self, phi):
        # |u| sqrt(phi) from 0 to 1e100 (q = phi u^2 up to 1e200): the
        # normalized weights are the scipy t density times the prior, and
        # the chain-axis draw on the sweep's table buffer gives indices in range
        priors = PriorConfig(reffect_prior="student-t")
        support = np.asarray(priors.nu_support)
        z = np.array([0.0, 1e-8, 0.3, 4.0, 1e3, 1e8, 1e30, 1e100])
        u = np.stack([z, -z, z[::-1], -z[::-1]]) / math.sqrt(phi)
        table = np.empty((len(support),) + u.shape)
        lw = nu_log_weights(u, np.full(4, phi), priors, out=table)
        oracle = (nu_log_prior(priors)
                  + stats.t.logpdf(u[..., None], df=support, scale=math.sqrt(1.0 / phi)))
        p_got, p_want = (np.exp(w - w.max(axis=-1, keepdims=True)) for w in (lw, oracle))
        np.testing.assert_allclose(p_got / p_got.sum(axis=-1, keepdims=True),
                                   p_want / p_want.sum(axis=-1, keepdims=True),
                                   rtol=1e-9, atol=1e-12)
        idx = draw_categorical_log([np.random.default_rng(c) for c in range(4)], lw)
        assert idx.shape == u.shape and idx.min() >= 0 and idx.max() < len(support)

    def test_nan_effect_names_the_lowest_bad_chain(self):
        priors = PriorConfig(reffect_prior="student-t")
        u = np.random.default_rng(2).standard_normal((4, 6))
        u[3, 2] = u[1, 5] = math.nan
        table = np.empty((len(priors.nu_support), 4, 6))
        with pytest.raises(ValidationError, match="log weights") as exc:
            draw_categorical_log([np.random.default_rng(c) for c in range(4)],
                                 nu_log_weights(u, np.full(4, 2.0), priors, out=table))
        assert exc.value.row == 1

    def test_algorithm3_prior_median_and_tail(self):
        w = np.exp(nu_log_prior(PriorConfig()))
        w /= w.sum()
        cdf = np.cumsum(w)
        support = PriorConfig().nu_support
        median = support[int(np.searchsorted(cdf, 0.5))]
        assert median == 5
        assert cdf[support.index(2)] == pytest.approx(0.2452, abs=0.02)

    def test_prose_variant_is_flatter(self):
        w3 = np.exp(nu_log_prior(PriorConfig()))
        w1 = np.exp(nu_log_prior(PriorConfig(nu_weight="prose")))
        w3 /= w3.sum()
        w1 /= w1.sum()
        # the cubed denominator concentrates mass at small nu
        assert w3[:5].sum() > w1[:5].sum()


class TestLockstep:
    @pytest.mark.parametrize("fixed", [None, {"tau": 3.0}, {"phi": 2.0},
                                       {"tau": 3.0, "phi": 2.0}])
    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_each_chain_is_its_one_chain_run(self, design, error_prior, reffect_prior, fixed,
                                             monkeypatch):
        # blocks of a few sweeps, so the run crosses several block boundaries
        monkeypatch.setattr(gibbs, "SWEEP_BLOCK_BYTES", 1024)
        spec = ModelSpec(variant=1, year_offset=2009.5)
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        assert 1 < gibbs._sweep_layout(design, priors, fixed or ()).block < 12
        kw = dict(n_iter=25, burn_in=5, thin=2, seed=9, fixed=fixed)
        lockstep = gibbs.run_chains(design, spec, priors, chains=4, **kw)
        for k, trace in enumerate(lockstep):
            alone = run_chain(design, spec, priors, stream_id=k, **kw)
            assert trace.chain_id == k
            assert trace.draws.keys() == alone.draws.keys()
            for key, value in alone.draws.items():
                assert trace.draws[key].dtype == value.dtype
                assert trace.draws[key].tobytes() == value.tobytes(), (k, key)

    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_first_draws_do_not_depend_on_n_iter(self, design, error_prior, reffect_prior):
        # a run that ends inside a block keeps the first draws of a longer run
        spec = ModelSpec(variant=1, year_offset=2009.5)
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        block = gibbs._sweep_layout(design, priors).block
        kw = dict(burn_in=0, thin=1, seed=4, chains=2)
        short = gibbs.run_chains(design, spec, priors, n_iter=block + 3, **kw)
        long = gibbs.run_chains(design, spec, priors, n_iter=2 * block + 7, **kw)
        for a, b in zip(short, long):
            for key, value in a.draws.items():
                assert value.tobytes() == b.draws[key][:block + 3].tobytes(), key

    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_sweep_alone_draws_as_its_steps_alone(self, design, error_prior, reffect_prior):
        # a sweep called without a block of draws has the bits of its steps
        # called one by one, each drawing from the Generator in turn
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        swept, stepped = initialize_state(design, priors), initialize_state(design, priors)
        g_swept, g_stepped = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(3):
            sweep(swept, design, priors, g_swept)
            gibbs.step_u(stepped, design, g_stepped)
            gibbs.step_beta(stepped, design, priors, g_stepped)
            gibbs.step_global_scales(stepped, design, priors, g_stepped)
            if error_prior == "half-cauchy":
                gibbs.step_lambda_halfcauchy(stepped, design, g_stepped)
            if reffect_prior != "gamma":
                gibbs.step_omega(stepped, priors, g_stepped)
        for f in dataclasses.fields(swept):
            assert (np.asarray(getattr(swept, f.name)).tobytes()
                    == np.asarray(getattr(stepped, f.name)).tobytes()), f.name
        assert g_swept.random() == g_stepped.random()

    def test_one_chain_sweep_is_a_lockstep_row(self, design):
        # the step timer in bench/pipeline.py sweeps the (1, .) state of
        # `initialize_state` with a bare Generator
        priors = PriorConfig(reffect_prior="student-t")
        single = initialize_state(design, priors)
        rngs = [np.random.default_rng(s) for s in (5, 6)]
        batch = repeated(single, 2)
        one_rng = np.random.default_rng(6)
        for _ in range(3):
            sweep(single, design, priors, one_rng)
            sweep(batch, design, priors, rngs)
        for f in dataclasses.fields(single):
            np.testing.assert_array_equal(getattr(batch, f.name)[1], getattr(single, f.name)[0])

    def test_step_timer_kernel_calls_are_lockstep_rows(self, design):
        # bench/pipeline.py times the beta and nu kernels on a (1, .) state
        # with a bare Generator; each call draws row c of the call on the
        # lockstep state with one Generator (or one normal row) per chain
        priors = PriorConfig(reffect_prior="student-t", beta_prior_precision=0.5)
        batch = repeated(initialize_state(design, priors), 3)
        for _ in range(2):  # three different chains
            sweep(batch, design, priors, [np.random.default_rng(s) for s in (5, 6, 7)])
        seeds = (11, 12, 13)
        z = np.stack([np.random.default_rng(s).standard_normal(design.p) for s in seeds])
        betas = draw_mvn_from_precision(
            None, *beta_conditional(batch, design, priors.beta_prior_precision), z)
        nus = draw_categorical_log([np.random.default_rng(s) for s in seeds],
                                   nu_log_weights(batch.u, batch.phi, priors))
        for c, s in enumerate(seeds):
            one = one_chain(batch, c)
            beta = draw_mvn_from_precision(
                np.random.default_rng(s),
                *beta_conditional(one, design, priors.beta_prior_precision))
            assert beta.tobytes() == betas[c:c + 1].tobytes(), c
            nu = draw_categorical_log(np.random.default_rng(s),
                                      nu_log_weights(one.u, one.phi, priors))
            assert nu.tobytes() == nus[c:c + 1].tobytes(), c

    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_chain_axis_design_rows_are_one_chain_sweeps(self, design, error_prior,
                                                         reffect_prior):
        # the Geweke harness sweeps chains that each redraw their own y, so
        # ybar, Xty_g and yty_g carry the chain axis: row c must be the
        # one-chain sweep of chain c on its own design
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        g = np.random.default_rng(3)
        names = ("ybar", "Xty_g", "yty_g")
        own = []
        for _ in range(3):
            y_design = with_y(design, design.y + g.standard_normal(design.n))
            own.append(replace_design(design, **{k: getattr(y_design, k) for k in names}))
        stacked = replace_design(
            design, **{k: np.stack([getattr(d, k) for d in own]) for k in names})
        singles = [initialize_state(d, priors) for d in own]
        batch = gibbs.ChainState(**{f.name: np.concatenate([getattr(s, f.name) for s in singles])
                                    for f in dataclasses.fields(gibbs.ChainState)})
        for _ in range(3):
            sweep(batch, stacked, priors, [np.random.default_rng(s) for s in (5, 6, 7)])
        for c, (d, single) in enumerate(zip(own, singles)):
            for _ in range(3):
                sweep(single, d, priors, np.random.default_rng(5 + c))
            for f in dataclasses.fields(single):
                assert (getattr(batch, f.name)[c].tobytes()
                        == np.asarray(getattr(single, f.name)).tobytes()), (c, f.name)

    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_helpers_return_the_shapes_run_chains_scales_by(self, design, error_prior,
                                                            reffect_prior, monkeypatch):
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        drawn = []
        real = gibbs.draw_standard
        monkeypatch.setattr(gibbs, "draw_standard", lambda rngs, n, runs, sweeps:
                            drawn.append(runs) or real(rngs, n, runs, sweeps))
        gibbs.run_chains(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                         n_iter=2, burn_in=1, thin=1, chains=2)
        at = gibbs._sweep_layout(design, priors).at

        def scaled_by(name):  # the shape of the run that holds the draw `name`
            return drawn[0][at[name][0]][0]

        state = make_state(design)
        helpers = {"tau": tau_conditional(state, design, priors),
                   "phi": phi_conditional(state, design, priors)}
        if error_prior == "half-cauchy":
            helpers["lam"] = lambda_conditional(state, design)
        if reffect_prior == "horseshoe":
            helpers["omega"] = omega_conditional_horseshoe(np.ones(design.m), state.varrho)
        assert set(helpers) <= set(at)
        for name, (shape, _) in helpers.items():
            assert scaled_by(name) == shape, name


class TestChainMechanics:
    def test_deterministic(self, design):
        kw = dict(spec=ModelSpec(variant=1, year_offset=2009.5),
                  priors=PriorConfig(), n_iter=60, burn_in=20, thin=2, seed=42)
        t1 = run_chain(design, **kw)
        t2 = run_chain(design, **kw)
        for k in t1.draws:
            np.testing.assert_array_equal(t1.draws[k], t2.draws[k])

    def test_streams_differ(self, design):
        kw = dict(spec=ModelSpec(variant=1, year_offset=2009.5),
                  priors=PriorConfig(), n_iter=60, burn_in=20, thin=2, seed=42)
        t1 = run_chain(design, stream_id=0, **kw)
        t2 = run_chain(design, stream_id=1, **kw)
        assert not np.array_equal(t1.draws["beta"], t2.draws["beta"])

    def test_kept_count_and_iterations(self, design):
        tr = run_chain(design, ModelSpec(variant=1, year_offset=2009.5), PriorConfig(),
                       n_iter=100, burn_in=50, thin=5, seed=0)
        assert tr.kept == 10

    def test_bad_schedule_rejected(self, design):
        spec = ModelSpec(variant=1, year_offset=2009.5)
        with pytest.raises(ValidationError):
            run_chain(design, spec, PriorConfig(), n_iter=10, burn_in=10)
        with pytest.raises(ValidationError):
            run_chain(design, spec, PriorConfig(), n_iter=10, burn_in=2, thin=0)

    def test_fixed_phi_pinned(self, design):
        tr = run_chain(design, ModelSpec(variant=1, year_offset=2009.5), PriorConfig(),
                       n_iter=40, burn_in=10, thin=1, seed=3, fixed={"phi": 123.0})
        assert np.all(tr.draws["phi"] == 123.0)

    @pytest.mark.parametrize("reffect_prior", ["horseshoe", "laplace", "student-t"])
    def test_mid_chain_failure_names_chain_and_iteration(self, design, reffect_prior,
                                                         monkeypatch):
        # phi turns NaN after iteration 7's scales step, so that sweep's omega
        # block meets a NaN Gamma rate, GIG coefficient or nu weight row; the
        # sweep's check names the scales step, which left phi bad
        message = {"horseshoe": "Gamma shape and rate", "laplace": "GIG",
                   "student-t": "log weights"}[reffect_prior]
        calls = []
        real = gibbs.step_global_scales

        def failing(state, *args, **kwargs):
            real(state, *args, **kwargs)
            calls.append(None)
            if len(calls) == 7:
                state.phi = np.full(len(state.phi), math.nan)

        monkeypatch.setattr(gibbs, "step_global_scales", failing)
        with pytest.raises(NumericalError,
                           match=rf"^chain 2, iteration 7, step scales: phi draw nan .*{message}"):
            run_chain(design, ModelSpec(variant=1, year_offset=2009.5),
                      PriorConfig(reffect_prior=reffect_prior), n_iter=40, burn_in=10,
                      seed=3, stream_id=2)

    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_nan_precision_stops_the_beta_step(self, design, error_prior, monkeypatch):
        # tau turns NaN after iteration 4's u step, so that sweep's beta
        # step meets a NaN precision, under either error prior's draw: the
        # whitening matrix of the eigendecomposition, or the precision
        # matrix the Half-Cauchy draw factors
        message = {"gamma": "whitening", "half-cauchy": "precision"}[error_prior]
        calls = []
        real = gibbs.step_u

        def failing(state, *args):
            real(state, *args)
            calls.append(None)
            if len(calls) == 4:
                state.tau = np.full(len(state.tau), math.nan)

        monkeypatch.setattr(gibbs, "step_u", failing)
        with pytest.raises(NumericalError,
                           match=rf"^chain 1, iteration 4, step beta: {message} matrix is not finite"):
            run_chain(design, ModelSpec(variant=1, year_offset=2009.5),
                      PriorConfig(error_prior=error_prior), n_iter=20, burn_in=5,
                      seed=3, stream_id=1)

    @pytest.mark.parametrize("priors,hook,name,step,message", [
        (PriorConfig(error_prior="gamma"), "u_conditional", "tau", "u", "whitening"),
        (PriorConfig(), "u_conditional", "tau", "u", "precision matrix is not finite"),
        (PriorConfig(), "tau_conditional", "lam", "scales", "Gamma shape and rate"),
        (PriorConfig(), "lambda_conditional", "phi", "scales", "Gamma shape and rate"),
        (PriorConfig(reffect_prior="laplace"), "lambda_conditional", "phi", "scales", "GIG"),
        (PriorConfig(reffect_prior="student-t"), "lambda_conditional", "phi", "scales",
         "log weights")])
    def test_lockstep_failure_names_the_lowest_bad_chain(self, design, priors, hook, name,
                                                         step, message, monkeypatch):
        # chains 3 and 1 of four turn NaN in iteration 5 at the hook; the
        # first step that leaves a bad field (u from a NaN tau, else the
        # scales step's tau or phi) is named with chain 1, and the message
        # also holds the later step's own error where one raised
        monkeypatch.setattr(gibbs, hook, nan_on_call(getattr(gibbs, hook), 5, name,
                                                     rows=[3, 1]))
        with pytest.raises(NumericalError,
                           match=rf"^chain 1, iteration 5, step {step}: .*{message}"):
            gibbs.run_chains(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                             n_iter=20, burn_in=5, seed=3, chains=4)

    @pytest.mark.parametrize("error_prior,reffect_prior,step,field", [
        (e, r, step, field) for e in ERROR_PRIORS for r in REFFECT_PRIORS
        for step, field in (("u", "u"), ("beta", "beta"), ("scales", "tau"), ("scales", "phi"),
                            ("lambda", "lam"), ("lambda", "rho"), ("omega", "omega"),
                            ("omega", "varrho"))
        if (step != "lambda" or e == "half-cauchy") and (step != "omega" or r != "gamma")
        and (field != "varrho" or r == "horseshoe")])
    def test_nan_in_a_steps_output_names_that_step(self, design, error_prior, reffect_prior,
                                                   step, field, monkeypatch):
        # the sweep checks its draws once, at its end; a NaN that a step
        # leaves in chains 3 and 1 in iteration 5 is reported as that step's,
        # with chain 1, whatever the later steps then do with it
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        assert (step, field) in {(s, f) for s, names, _ in
                                 gibbs._sweep_layout(design, priors).checked for f in names}
        name = {"u": "step_u", "beta": "step_beta", "scales": "step_global_scales",
                "lambda": "step_lambda_halfcauchy", "omega": "step_omega"}[step]
        real = getattr(gibbs, name)
        calls = []

        def hooked(state, *args, **kwargs):
            real(state, *args, **kwargs)
            calls.append(None)
            if len(calls) == 5:
                value = np.array(getattr(state, field))
                value[[3, 1]] = math.nan
                setattr(state, field, value)

        monkeypatch.setattr(gibbs, name, hooked)
        with pytest.raises(NumericalError,
                           match=rf"^chain 1, iteration 5, step {step}: {field} draw nan is "
                                 rf"not finite"):
            gibbs.run_chains(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                             n_iter=20, burn_in=5, seed=3, chains=4)

    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_nan_in_the_student_t_omega_buffer_names_the_omega_step(self, design, error_prior,
                                                                    monkeypatch):
        real = gibbs.standard_gamma_rows
        calls = []

        def hooked(rngs, shape):
            out = real(rngs, shape)
            calls.append(None)
            if len(calls) == 6:
                out[[2, 3], 1] = math.nan
            return out

        monkeypatch.setattr(gibbs, "standard_gamma_rows", hooked)
        with pytest.raises(NumericalError,
                           match=r"^chain 2, iteration 6, step omega: omega draw nan is not "
                                 r"finite and > 0: Gamma shape and rate must be finite"):
            gibbs.run_chains(design, ModelSpec(variant=1, year_offset=2009.5),
                             PriorConfig(error_prior=error_prior, reffect_prior="student-t"),
                             n_iter=20, burn_in=5, seed=3, chains=4)

    @pytest.mark.parametrize("fixed,match", [
        ({"phi": -1.0}, "fixed phi must be finite and > 0"),
        ({"tau": 0.0}, "fixed tau"), ({"tau": float("inf")}, "fixed tau"),
        ({"phi": float("nan")}, "fixed phi"), ({"phi": "2"}, "fixed phi"),
        ({"beta": 1.0}, "pins only tau and phi"), ({"omega": 2.0}, "pins only tau and phi")])
    def test_fixed_validated_before_sampling(self, design, fixed, match, monkeypatch):
        # gamma/gamma never reads phi in a draw, so a bad pin used to run to the end
        monkeypatch.setattr(gibbs, "sweep", lambda *a, **k: pytest.fail("sampled"))
        priors = PriorConfig(error_prior="gamma", reffect_prior="gamma")
        with pytest.raises(ValidationError, match=match):
            run_chain(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                      n_iter=40, burn_in=10, seed=3, fixed=fixed)

    @pytest.mark.parametrize("error_prior", ["half-cauchy", "gamma"])
    def test_rss_computed_once_per_sweep(self, design, error_prior, monkeypatch):
        priors = PriorConfig(error_prior=error_prior)
        state = initialize_state(design, priors)
        rng = np.random.default_rng(5)
        seen = []
        real = gibbs.rss_closed_form
        monkeypatch.setattr(gibbs, "rss_closed_form",
                            lambda beta, u, d: seen.append(beta.copy()) or real(beta, u, d))
        sweep(state, design, priors, rng)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], state.beta)  # after the beta step
        np.testing.assert_allclose(state.rss, rss_by_group(state, design), atol=1e-10)

    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_sweep_reads_no_data_rows(self, design, error_prior, reffect_prior):
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior,
                             beta_prior_precision=0.5)
        rows_gone = replace_design(design, X=None, y=None, group_idx=None)
        states = []
        for d in (design, rows_gone):
            state = initialize_state(design, priors)
            rng = np.random.default_rng(31)
            for _ in range(3):
                sweep(state, d, priors, rng)
            states.append(state)
        for field in dataclasses.fields(states[0]):
            np.testing.assert_array_equal(getattr(states[0], field.name),
                                          getattr(states[1], field.name))

    def test_balanced_lambda_draw_equals_per_unit_array_draw(self, design):
        # the per-fit scalar shape gives the doubles, and leaves the
        # generator where, the (m,) array of equal shapes did
        state = make_state(design, np.random.default_rng(37))
        assert isinstance(design.lambda_shape, float)
        rate = 0.5 * state.tau * state.rss + state.rho
        ref = np.random.default_rng(41)
        want = ref.standard_gamma(0.5 * design.sizes + 1.0) / rate
        rng = np.random.default_rng(41)
        state.lam = np.full(design.m, np.nan)
        step_lambda_halfcauchy(state, design, rng)
        np.testing.assert_array_equal(state.lam, want)
        want_rho = ref.standard_gamma(2.0, size=design.m) / (want + 1.0)
        np.testing.assert_array_equal(state.rho, want_rho)
        assert rng.random() == ref.random()

    def test_gamma_priors_keep_locals_at_one(self, design):
        # the common-Gamma sweep never draws lambda or omega: the state
        # holds them at 1, and a trace does not record them
        priors = PriorConfig(error_prior="gamma", reffect_prior="gamma",
                             a_tau=1.0, b_tau=1.0, a_phi=1.0, b_phi=1.0)
        state = initialize_state(design, priors)
        tau0, phi0 = state.tau, state.phi
        rng = np.random.default_rng(4)
        for _ in range(30):
            sweep(state, design, priors, rng)
        assert np.all(state.lam == 1.0) and np.all(state.omega == 1.0)
        assert state.tau != tau0 and state.phi != phi0
        tr = run_chain(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                       n_iter=40, burn_in=10, thin=1, seed=4)
        assert list(tr.draws) == ["beta", "u", "tau", "phi"]

    @pytest.mark.parametrize("reffect_prior", REFFECT_PRIORS)
    @pytest.mark.parametrize("error_prior", ERROR_PRIORS)
    def test_recorded_keys_are_the_drawn_quantities(self, design, error_prior, reffect_prior):
        priors = PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior)
        want = ["beta", "u", "tau", "phi"]
        want += ["omega"] if reffect_prior != "gamma" else []
        want += ["lambda"] if error_prior == "half-cauchy" else []
        want += ["nu"] if reffect_prior == "student-t" else []
        assert list(priors.recorded) == want
        tr = run_chain(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                       n_iter=12, burn_in=2, thin=5, seed=4)
        assert list(tr.draws) == want and tr.kept == 2
        assert all(tr.draws[key].shape[1:] == (design.m,) for key in want[4:])

    def test_no_kept_draw_refused_before_sampling(self, design, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(gibbs, "sweep", no_sweep)
        with pytest.raises(ValidationError, match="needs at least one kept draw"):
            run_chain(design, ModelSpec(variant=1, year_offset=2009.5), PriorConfig(),
                      n_iter=3000, burn_in=10, thin=5000, seed=4)

    def test_nu_recorded_only_for_student_t(self, design):
        spec = ModelSpec(variant=1, year_offset=2009.5)
        tr_t = run_chain(design, spec, PriorConfig(reffect_prior="student-t"),
                         n_iter=30, burn_in=10, thin=1, seed=5)
        tr_hs = run_chain(design, spec, PriorConfig(reffect_prior="horseshoe"),
                          n_iter=30, burn_in=10, thin=1, seed=5)
        assert "nu" in tr_t.draws and "nu" not in tr_hs.draws
        assert set(np.unique(tr_t.draws["nu"])) <= set(PriorConfig().nu_support)

    def test_first_sweep_shared_prefix_across_reffect_priors(self, design):
        # u, beta, tau, phi and the lambda block come before the omega
        # block, so with identical seeds the first sweep agrees up to there
        spec = ModelSpec(variant=1, year_offset=2009.5)
        draws = {}
        for prior in ("horseshoe", "laplace", "student-t"):
            rng = np.random.default_rng(77)
            priors = PriorConfig(reffect_prior=prior)
            state = initialize_state(design, priors)
            sweep(state, design, priors, rng)
            draws[prior] = (state.beta.copy(), state.u.copy(), state.tau, state.phi,
                            state.lam.copy())
        for prior in ("laplace", "student-t"):
            for a, b in zip(draws["horseshoe"], draws[prior]):
                np.testing.assert_array_equal(a, b)

    def test_posterior_recovers_truth_roughly(self):
        cfg = SimConfig(m=12, n_i=16, seed=21, tau=30.0, phi=5.0)
        panel, truth = simulate_panel(cfg)
        spec = ModelSpec.from_dict(truth["spec"])
        tr = run_chain(panel, spec, PriorConfig(), n_iter=1500, burn_in=500,
                       thin=1, seed=8)
        beta_hat = tr.draws["beta"].mean(axis=0)
        resid = np.asarray(truth["beta"]) - beta_hat
        sd = tr.draws["beta"].std(axis=0)
        assert np.all(np.abs(resid) < 6.0 * sd + 0.05)

    def test_initialize_state_finite(self, design):
        state = initialize_state(design, PriorConfig())
        assert np.all(np.isfinite(state.beta)) and np.all(np.isfinite(state.u))
        for v in (state.omega, state.lam, state.rho, state.varrho):
            assert np.all(np.isfinite(v)) and np.all(v > 0)
        assert 1e-6 <= state.tau <= 1e6 and 1e-6 <= state.phi <= 1e6
        np.testing.assert_array_equal(state.rss, rss_by_group(state, design))
