import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from glmixer.design import ModelSpec, build_matrices
from glmixer.errors import ValidationError
from glmixer.gibbs import (NU_WEIGHTS, PriorConfig, beta_conditional,
                           initialize_state, lambda_conditional,
                           nu_log_prior, nu_log_weights,
                           omega_conditional_horseshoe,
                           omega_conditional_student_t, phi_conditional,
                           rss_by_group, run_chain, sweep, tau_conditional,
                           u_conditional)
from glmixer.simulate import SimConfig, simulate_panel


def small_panel(seed=0, m=4, n_i=10):
    panel, _ = simulate_panel(SimConfig(m=m, n_i=n_i, seed=seed))
    return panel


def make_state(design, rng=None, priors=None):
    rng = rng or np.random.default_rng(1234)
    priors = priors or PriorConfig()
    state = initialize_state(design, priors)
    m = design.m
    state.beta = rng.normal(size=design.p)
    state.u = rng.normal(size=m)
    state.tau = rng.uniform(0.5, 5.0)
    state.phi = rng.uniform(0.5, 5.0)
    state.omega = rng.uniform(0.2, 3.0, size=m)
    state.lam = rng.uniform(0.2, 3.0, size=m)
    state.rho = rng.uniform(0.2, 3.0, size=m)
    state.varrho = rng.uniform(0.2, 3.0, size=m)
    return state


@pytest.fixture(scope="module")
def design():
    return build_matrices(small_panel(), ModelSpec(variant=1, year_offset=2009.5))


class TestPriorConfig:
    def test_round_trip(self):
        pc = PriorConfig(error_prior="gamma", reffect_prior="student-t",
                         a_tau=0.5, k_nu=3.0, nu_support=(2, 5, 9))
        assert PriorConfig.from_dict(pc.to_dict()) == pc

    def test_hyper_switching(self):
        pc = PriorConfig(error_prior="gamma", reffect_prior="horseshoe",
                         a_zeta_eps=2.0, b_zeta_eps=3.0, a_phi=4.0, b_phi=5.0)
        assert pc.tau_hyper == (2.0, 3.0) and pc.tau_name == "zeta_eps"
        assert pc.phi_hyper == (4.0, 5.0) and pc.phi_name == "phi"

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
        state.lam = np.ones(design.m)
        state.tau = 1.0
        state.omega = np.ones(design.m)
        state.phi = 0.5 * design.sizes.astype(float)[0]
        mean, var, gamma = u_conditional(state, design)
        np.testing.assert_allclose(gamma, 2.0 / 3.0, atol=1e-14)
        resid = design.ybar - design.xbar @ state.beta
        np.testing.assert_allclose(mean, (2.0 / 3.0) * resid, atol=1e-14)
        np.testing.assert_allclose(var, (2.0 / 3.0) / design.sizes, atol=1e-14)

    def test_brute_force(self, design):
        state = make_state(design, np.random.default_rng(5))
        mean, var, gamma = u_conditional(state, design)
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
        state.phi = 1e18
        mean, var, gamma = u_conditional(state, design)
        assert np.all(np.abs(mean) < 1e-9) and np.all(var < 1e-15)
        assert np.all(gamma < 1e-9)


class TestBetaConditional:
    def test_ols_when_homoskedastic_no_reffect(self, design):
        state = make_state(design)
        state.lam = np.ones(design.m)
        state.u = np.zeros(design.m)
        rhs, P = beta_conditional(state, design)
        post_mean = np.linalg.solve(P, rhs)
        ols, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        np.testing.assert_allclose(post_mean, ols, atol=1e-8)
        np.testing.assert_allclose(P, state.tau * design.X.T @ design.X, atol=1e-10)

    def test_tau_scales_precision_not_mean(self, design):
        state = make_state(design)
        state.tau = 1.0
        rhs1, P1 = beta_conditional(state, design)
        state.tau = 7.0
        rhs7, P7 = beta_conditional(state, design)
        np.testing.assert_allclose(P7, 7.0 * P1, rtol=1e-13)
        np.testing.assert_allclose(np.linalg.solve(P7, rhs7),
                                   np.linalg.solve(P1, rhs1), atol=1e-10)

    def test_brute_force_weighted_regression(self, design):
        # the conditional mean is the WLS fit of y - u to X with weights lam_i
        state = make_state(design, np.random.default_rng(9))
        rhs, P = beta_conditional(state, design)
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
        np.testing.assert_allclose(P1 - P0, 2.5 * np.eye(design.p), atol=1e-12)


class TestScaleConditionals:
    def test_tau_brute_force(self, design):
        priors = PriorConfig(a_tau=0.75, b_tau=1.25)
        state = make_state(design, np.random.default_rng(11))
        shape, rate = tau_conditional(state, design, priors)
        r = design.y - design.X @ state.beta - state.u[design.group_idx]
        expect_rate = 1.25 + 0.5 * sum(
            state.lam[g] * float(r[design.group_idx == g] @ r[design.group_idx == g])
            for g in range(design.m))
        assert shape == pytest.approx(0.5 * design.n + 0.75, abs=1e-12)
        assert rate == pytest.approx(expect_rate, abs=1e-10)

    def test_phi_brute_force(self, design):
        priors = PriorConfig(a_phi=0.3, b_phi=0.9)
        state = make_state(design, np.random.default_rng(13))
        shape, rate = phi_conditional(state, priors)
        assert shape == pytest.approx(0.5 * design.m + 0.3, abs=1e-12)
        assert rate == pytest.approx(
            0.9 + 0.5 * sum(state.omega[g] * state.u[g] ** 2 for g in range(design.m)),
            abs=1e-12)

    def test_gamma_settings_use_zeta_hyperparameters(self, design):
        priors = PriorConfig(error_prior="gamma", reffect_prior="gamma",
                             a_zeta_eps=2.0, b_zeta_eps=3.0, a_zeta_u=4.0, b_zeta_u=5.0)
        state = make_state(design)
        shape_t, rate_t = tau_conditional(state, design, priors)
        shape_p, rate_p = phi_conditional(state, priors)
        assert shape_t == pytest.approx(0.5 * design.n + 2.0)
        assert shape_p == pytest.approx(0.5 * design.m + 4.0)
        assert rate_t > 3.0 and rate_p > 5.0

    def test_lambda_brute_force(self, design):
        state = make_state(design, np.random.default_rng(17))
        shape, rate = lambda_conditional(state, design)
        rss = rss_by_group(state, design)
        np.testing.assert_allclose(shape, 0.5 * design.sizes + 1.0, atol=0)
        np.testing.assert_allclose(rate, 0.5 * state.tau * rss + state.rho, atol=1e-12)

    def test_rss_matches_direct_sum(self, design):
        state = make_state(design, np.random.default_rng(19))
        rss = rss_by_group(state, design)
        direct = np.zeros(design.m)
        for j in range(design.n):
            g = design.group_idx[j]
            e = design.y[j] - design.X[j] @ state.beta - state.u[g]
            direct[g] += e * e
        np.testing.assert_allclose(rss, direct, atol=1e-10)


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
        lw = nu_log_weights(u, phi, priors)
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
        u = np.array([-40.0, -3.1, -1.3, 0.0, 0.2, 2.5, 1e-8])
        df = np.asarray(priors.nu_support, dtype=np.float64)[None, :]
        for phi in (1e-4, 0.5, 2.0, 350.0):
            scale = math.sqrt(1.0 / phi)
            z = u[:, None] / scale
            log_t = (gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0)
                     - 0.5 * np.log(df * math.pi) - np.log(scale)
                     - (df + 1.0) / 2.0 * np.log1p(z * z / df))
            np.testing.assert_array_equal(nu_log_weights(u, phi, priors),
                                          nu_log_prior(priors)[None, :] + log_t)

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

    def test_gamma_priors_keep_locals_at_one(self, design):
        priors = PriorConfig(error_prior="gamma", reffect_prior="gamma",
                             a_zeta_eps=1.0, b_zeta_eps=1.0, a_zeta_u=1.0, b_zeta_u=1.0)
        tr = run_chain(design, ModelSpec(variant=1, year_offset=2009.5), priors,
                       n_iter=40, burn_in=10, thin=1, seed=4)
        assert np.all(tr.draws["lambda"] == 1.0)
        assert np.all(tr.draws["omega"] == 1.0)

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
        state.check()
        assert 1e-6 <= state.tau <= 1e6 and 1e-6 <= state.phi <= 1e6

    def test_state_check_catches_bad_values(self, design):
        state = initialize_state(design, PriorConfig())
        state.tau = float("nan")
        with pytest.raises(ValidationError):
            state.check()
        state.tau = 1.0
        state.omega = np.array([1.0] * (design.m - 1) + [-2.0])
        with pytest.raises(ValidationError):
            state.check()
