import math
import tracemalloc

import numpy as np
import pytest

from glmixer.data import inv_logit
from glmixer.design import ModelSpec, design_rows
from glmixer.errors import SpecMismatchError, ValidationError
from glmixer import inference
from glmixer.gibbs import PriorConfig, Trace, run_chain
from glmixer.inference import (effective_sample_size,
                               fitted_completeness, predict_new_unit,
                               shrinkage_factors, split_rhat, summarize,
                               theorem2_curve)
from glmixer.simulate import SimConfig, simulate_panel

from oracles import inv_logit_masked, summarize_per_parameter

SPEC = ModelSpec(variant=1, year_offset=2009.5)


def make_trace(draws, chain_id=0, priors=None, spec=SPEC,
               unit_ids=("A", "B"), sizes=(10, 10)):
    k = draws["beta"].shape[0]
    return Trace(draws=draws, seed=0, chain_id=chain_id, n_iter=2 * k,
                 burn_in=k, thin=1, priors=priors or PriorConfig(), spec=spec,
                 unit_ids=unit_ids, sizes=sizes)


def scalar_draws(values, m=2, p=2):
    """Trace draws where every parameter is constant except tau = values."""
    k = len(values)
    return {
        "beta": np.zeros((k, p)),
        "u": np.zeros((k, m)),
        "tau": np.asarray(values, dtype=np.float64),
        "phi": np.ones(k),
        "omega": np.ones((k, m)),
        "lambda": np.ones((k, m)),
    }


class TestEss:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 2000))
        ess = effective_sample_size(x)
        assert 0.5 * 8000 < ess <= 8000 * math.log10(8010)

    def test_ar1_much_smaller(self):
        rng = np.random.default_rng(1)
        k = 4000
        x = np.empty((2, k))
        for c in range(2):
            e = rng.standard_normal(k)
            x[c, 0] = e[0]
            for t in range(1, k):
                x[c, t] = 0.95 * x[c, t - 1] + e[t]
        ess = effective_sample_size(x)
        # AR(1) with rho=0.95 has tau ~ (1+rho)/(1-rho) = 39
        assert ess < 0.1 * 2 * k
        assert ess == pytest.approx(2 * k / 39.0, rel=0.6)

    def test_constant_chain(self):
        assert effective_sample_size(np.full((2, 100), 3.0)) == 200.0

    def test_short_chain_passthrough(self):
        assert effective_sample_size(np.array([[1.0, 2.0, 3.0]])) == 3.0


class TestSplitRhat:
    def test_well_mixed_near_one(self):
        rng = np.random.default_rng(2)
        assert split_rhat(rng.standard_normal((4, 1000))) < 1.01

    def test_separated_means_large(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 500))
        x[1] += 5.0
        assert split_rhat(x) > 1.5

    def test_constant_one(self):
        assert split_rhat(np.full((2, 100), 7.0)) == 1.0

    def test_trending_chain_detected(self):
        # a single drifting chain fails the split comparison
        assert split_rhat(np.linspace(0, 1, 1000)[None, :]) > 1.1

    def test_rank_scores_match_scipy_ndtri(self):
        from scipy.special import ndtri

        # S = 4, 6, ..., 2000 split draws of one chain, and the default fit's 20 000
        for c, k in [*((1, k) for k in range(4, 2001, 2)), (4, 5000)]:
            s = c * 2 * (k // 2)
            want = ndtri((np.arange(1.0, s + 1.0) - 0.375) / (s + 0.25))
            np.testing.assert_allclose(inference._rank_normal_scores(c, k), want,
                                       rtol=1e-14, atol=0)


class TestSummarize:
    def test_quantile_rule_1_to_100(self):
        tr = make_trace(scalar_draws(np.arange(1.0, 101.0)))
        row = summarize([tr]).lookup("tau")
        assert row.mean == pytest.approx(50.5)
        assert row.q50 == pytest.approx(50.5)
        # numpy linear interpolation: 1 + 0.025 * 99
        assert row.q2_5 == pytest.approx(3.475)
        assert row.q97_5 == pytest.approx(97.525)

    def test_constant_draws(self):
        tr = make_trace(scalar_draws(np.full(50, 2.5)))
        row = summarize([tr]).lookup("tau")
        assert row.mean == 2.5 and row.sd == 0.0
        assert row.rhat == 1.0

    def test_renaming_under_gamma_priors(self):
        priors = PriorConfig(error_prior="gamma", reffect_prior="gamma",
                             a_tau=1.0, b_tau=1.0, a_phi=1.0, b_phi=1.0)
        tr = make_trace(scalar_draws(np.arange(10.0)), priors=priors)
        summary = summarize([tr])
        summary.lookup("zeta_eps")
        summary.lookup("zeta_u")
        with pytest.raises(KeyError):
            summary.lookup("tau")

    def test_pooling_two_chains(self):
        t1 = make_trace(scalar_draws(np.full(20, 1.0)), chain_id=0)
        t2 = make_trace(scalar_draws(np.full(20, 3.0)), chain_id=1)
        row = summarize([t1, t2]).lookup("tau")
        assert row.mean == pytest.approx(2.0)
        assert row.rhat > 1.5

    def test_unequal_lengths_rejected(self):
        t1 = make_trace(scalar_draws(np.zeros(10)))
        t2 = make_trace(scalar_draws(np.zeros(12)))
        with pytest.raises(ValidationError):
            summarize([t1, t2])

    def test_vector_params_indexed(self):
        tr = make_trace(scalar_draws(np.zeros(10), m=3, p=2),
                        unit_ids=("A", "B", "C"), sizes=(5, 5, 5))
        summary = summarize([tr])
        for j in range(3):
            assert summary.lookup("u", j).mean == 0.0
        with pytest.raises(KeyError):
            summary.lookup("u", 3)


def assert_matches_per_parameter_oracle(traces):
    got = summarize(traces).rows
    want = summarize_per_parameter(traces)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.param, g.index, g.mean, g.sd, g.q2_5, g.q50, g.q97_5, g.rhat) == (
            w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[8])
        assert g.ess == pytest.approx(w[7], rel=1e-12, abs=0.0)


@pytest.fixture(scope="module")
def student_t_traces():
    """Three chains of a Student-t fit, so the integer nu draws are included."""
    panel, truth = simulate_panel(SimConfig(m=5, n_i=10, seed=31, reffect_prior="student-t"))
    spec = ModelSpec.from_dict(truth["spec"])
    priors = PriorConfig(reffect_prior="student-t")
    return [run_chain(panel, spec, priors, n_iter=240, burn_in=40, thin=1, seed=5,
                      stream_id=k) for k in range(3)]


# workspace budgets for the three chains of 200 kept draws of `student_t_traces`:
# the default (every key in one block), two parameters per block, so the
# five-unit keys end in a short block, and one parameter per block
BLOCKS = [inference.BLOCK_WORKSPACE_BYTES, 2 * inference._ess_workspace_bytes(3, 200), 1]


class TestBatchedSummaryMatchesPerParameterOracle:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_fit_with_integer_nu(self, student_t_traces, block, monkeypatch):
        monkeypatch.setattr(inference, "BLOCK_WORKSPACE_BYTES", block)
        assert "nu" in student_t_traces[0].draws
        assert_matches_per_parameter_oracle(student_t_traces)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_rows_match_the_one_dimensional_calls(self, student_t_traces, block, monkeypatch):
        # mean, sd, quantiles and R-hat have the bits of the 1-D calls on
        # the parameter's (C, K) draws; the batched FFT moves ESS in the
        # last bits only
        monkeypatch.setattr(inference, "BLOCK_WORKSPACE_BYTES", block)
        rows = summarize(student_t_traces).rows
        want = []
        for key in student_t_traces[0].draws:
            stacked = np.stack([t.draws[key].reshape(t.kept, -1) for t in student_t_traces])
            for j in range(stacked.shape[2]):
                chains = stacked[:, :, j].astype(np.float64)
                pooled = chains.ravel()
                want.append((key, j, chains, pooled.mean(), pooled.std(ddof=1),
                             *np.quantile(pooled, [0.025, 0.5, 0.975], method="linear")))
        assert len(rows) == len(want)
        for row, (key, j, chains, *stats) in zip(rows, want):
            assert (row.param, row.index) == (key, j)
            assert [row.mean, row.sd, row.q2_5, row.q50, row.q97_5, row.rhat] == [
                *stats, split_rhat(chains)]
            assert row.ess == pytest.approx(effective_sample_size(chains), rel=1e-14, abs=0.0)

    def test_one_chain(self, student_t_traces):
        assert_matches_per_parameter_oracle(student_t_traces[:1])

    @pytest.mark.parametrize("kept", [1, 2, 3, 4, 5])
    def test_short_traces(self, student_t_traces, kept):
        short = [make_trace({k: v[:kept] for k, v in t.draws.items()}, chain_id=t.chain_id,
                            priors=t.priors, spec=t.spec, unit_ids=t.unit_ids,
                            sizes=t.sizes) for t in student_t_traces]
        assert_matches_per_parameter_oracle(short)
        assert_matches_per_parameter_oracle(short[:1])

    def test_constant_draws(self):
        traces = [make_trace(scalar_draws(np.full(50, 2.5)), chain_id=c) for c in range(2)]
        assert_matches_per_parameter_oracle(traces)

    def test_no_kept_draws_rejected(self):
        with pytest.raises(ValidationError):
            summarize([make_trace(scalar_draws(np.zeros(0)))])


def test_summarize_keeps_its_workspace_budget():
    # the long-trace benchmark's shape: 4 chains of 700 draws, 7 + 30 + 2
    # parameters, about 4 per block; the whole 30-unit key at once would
    # take over 6 MiB of FFT workspace
    rng = np.random.default_rng(0)
    draws = [{"beta": rng.standard_normal((700, 7)), "u": rng.standard_normal((700, 30)),
              "tau": rng.gamma(2.0, size=700), "phi": rng.gamma(2.0, size=700)}
             for _ in range(4)]
    priors = PriorConfig(error_prior="gamma", reffect_prior="gamma")
    traces = [make_trace(d, chain_id=c, priors=priors) for c, d in enumerate(draws)]
    assert 4 * inference._ess_workspace_bytes(4, 700) <= inference.BLOCK_WORKSPACE_BYTES
    tracemalloc.start()
    try:
        rows = summarize(traces).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 39
    assert peak < 1.5 * inference.BLOCK_WORKSPACE_BYTES


class TestLinearQuantiles:
    # every band and summary quantile comes from _linear_quantiles: these
    # cases tie it to numpy's linear rule, bit for bit
    def test_equals_numpy_linear_rule(self):
        rng = np.random.default_rng(15)
        for case in range(1500):
            n, w = int(rng.integers(1, 301)), int(rng.integers(1, 5))
            x = rng.standard_normal((n, w)) * 10.0 ** rng.integers(-3, 4)
            if case % 3 == 0:  # ties
                x = np.round(x, 1)
            if case % 4 == 0:
                x[rng.random((n, w)) < 0.05] = np.inf
                x[rng.random((n, w)) < 0.05] = -np.inf
            if case % 5 == 0:  # NaN in some columns
                x[rng.random((n, w)) < 0.03] = np.nan
            qs = (0.025, 0.5, 0.975) if case % 2 else tuple(rng.random(3)) + (0.0, 1.0)
            x0 = x.copy()
            with np.errstate(invalid="ignore"):
                want = np.quantile(x, qs, axis=0, method="linear")
                got = inference._linear_quantiles(x, qs)
            np.testing.assert_array_equal(got, want, err_msg=f"case {case}, n = {n}")
            # the draws keep their order (one column is the case where x.T
            # is contiguous), so means taken after the bands keep their bits
            np.testing.assert_array_equal(x, x0)

    def test_edge_columns(self):
        # one draw, a lone infinity, an all-NaN column and a NaN among
        # infinities, side by side
        x = np.array([[1.5, np.inf, np.nan, -np.inf],
                      [0.5, 2.0, np.nan, np.nan],
                      [-1.0, 3.0, np.nan, np.inf]])
        for rows in (x[:1], x):
            with np.errstate(invalid="ignore"):
                want = np.quantile(rows, (0.025, 0.5, 0.975), axis=0, method="linear")
                got = inference._linear_quantiles(rows, (0.025, 0.5, 0.975))
            np.testing.assert_array_equal(got, want)


class TestInverseLogit:
    def test_equals_masked_two_branch_formula(self):
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308,
                            np.inf, -np.inf, np.nan, -np.nan])
        theta = np.concatenate([special, np.random.default_rng(16).standard_normal(9_996) * 5])
        for t in (theta, theta.reshape(12, 834), theta.reshape(834, 12).T):
            got = inference._inv_logit_arr(t)
            np.testing.assert_array_equal(got, inv_logit_masked(t))
            assert np.array_equal(np.signbit(got), np.signbit(inv_logit_masked(t)))


@pytest.fixture(scope="module")
def fit():
    panel, truth = simulate_panel(SimConfig(m=6, n_i=12, seed=30))
    spec = ModelSpec.from_dict(truth["spec"])
    traces = [run_chain(panel, spec, PriorConfig(), n_iter=300, burn_in=100,
                        thin=2, seed=9, stream_id=c) for c in range(2)]
    return panel, spec, traces


class TestFittedCompleteness:
    def test_brute_force_replay(self, fit):
        panel, spec, traces = fit
        fc = fitted_completeness(traces, panel, spec)
        X, _, sizes = design_rows(panel, spec)
        group_idx = np.repeat(np.arange(len(sizes)), sizes)
        beta = np.concatenate([t.draws["beta"] for t in traces])
        u = np.concatenate([t.draws["u"] for t in traces])
        k = beta.shape[0]
        for j in [0, 17, len(X) - 1]:
            vals = np.array([inv_logit(float(beta[d] @ X[j] + u[d, group_idx[j]]))
                             for d in range(k)])
            assert fc.mean[j] == pytest.approx(vals.mean(), abs=1e-12)
            assert fc.q2_5[j] == pytest.approx(np.quantile(vals, 0.025), abs=1e-12)
            fixed = np.array([inv_logit(float(beta[d] @ X[j])) for d in range(k)])
            assert fc.mean_minus_u[j] == pytest.approx(fixed.mean(), abs=1e-12)

    def test_interval_order_and_range(self, fit):
        panel, spec, traces = fit
        fc = fitted_completeness(traces, panel, spec)
        assert np.all(fc.q2_5 <= fc.mean) and np.all(fc.mean <= fc.q97_5)
        assert np.all((fc.mean > 0) & (fc.mean < 1))

    def test_spec_mismatch(self, fit):
        panel, spec, traces = fit
        with pytest.raises(SpecMismatchError):
            fitted_completeness(traces, panel, ModelSpec(variant=2, sex=spec.sex,
                                                         year_offset=spec.year_offset))


class TestPredictNewUnit:
    def test_zero_beta_gives_half(self):
        tr = make_trace(scalar_draws(np.ones(40)))
        res = predict_new_unit([tr], np.ones((3, 2)), [3], mode="fixed_only")
        np.testing.assert_allclose(res.mean, 0.5, atol=1e-15)
        np.testing.assert_allclose(res.q2_5, 0.5, atol=1e-15)

    def test_fixed_only_matches_manual(self, fit):
        panel, spec, traces = fit
        rows = np.ones((1, spec.p))
        res = predict_new_unit(traces, rows, [1], mode="fixed_only")
        beta = np.concatenate([t.draws["beta"] for t in traces])
        vals = 1.0 / (1.0 + np.exp(-(beta @ rows[0])))
        assert res.mean[0] == pytest.approx(vals.mean(), abs=1e-12)

    def test_integrate_widens_intervals(self, fit):
        panel, spec, traces = fit
        rows = np.ones((1, spec.p))
        fo = predict_new_unit(traces, rows, [1], mode="fixed_only")
        ir = predict_new_unit(traces, rows, [1], mode="integrate_reffect")
        assert (ir.q97_5[0] - ir.q2_5[0]) >= (fo.q97_5[0] - fo.q2_5[0])

    def test_huge_phi_collapses_to_fixed_only(self):
        draws = scalar_draws(np.ones(200))
        rng = np.random.default_rng(4)
        draws["beta"] = rng.normal(size=(200, 2))
        draws["phi"] = np.full(200, 1e16)
        tr = make_trace(draws)
        fo = predict_new_unit([tr], np.ones((1, 2)), [1], mode="fixed_only")
        ir = predict_new_unit([tr], np.ones((1, 2)), [1], mode="integrate_reffect")
        assert ir.mean[0] == pytest.approx(fo.mean[0], abs=1e-6)

    def test_deterministic(self, fit):
        panel, spec, traces = fit
        rows = np.ones((2, spec.p))
        a = predict_new_unit(traces, rows, [2])
        b = predict_new_unit(traces, rows, [2])
        np.testing.assert_array_equal(a.mean, b.mean)

    def test_bad_mode_and_shape(self, fit):
        panel, spec, traces = fit
        with pytest.raises(ValidationError):
            predict_new_unit(traces, np.ones((1, spec.p)), [1], mode="marginal")
        with pytest.raises(SpecMismatchError):
            predict_new_unit(traces, np.ones((1, spec.p + 1)), [1])
        for sizes in ([], [2], [1, 1], [0, 3], [4, -1]):
            with pytest.raises(ValidationError, match="partition"):
                predict_new_unit(traces, np.ones((3, spec.p)), sizes)

    @pytest.mark.parametrize("mode", ["integrate_reffect", "fixed_only"])
    def test_panel_equals_unit_by_unit(self, fit, mode):
        # one call over the whole design gives, unit by unit, the bits of
        # predicting each unit as a single group
        panel, spec, traces = fit
        X, _, sizes = design_rows(panel, spec)
        whole = predict_new_unit(traces, X, sizes, mode=mode)
        assert whole.mode == mode and whole.mean.shape == (len(X),)
        lo = 0
        for size in sizes:
            alone = predict_new_unit(traces, X[lo:lo + size], [size], mode=mode)
            for field in ("mean", "q2_5", "q97_5"):
                np.testing.assert_array_equal(getattr(whole, field)[lo:lo + size],
                                              getattr(alone, field))
            lo += size

    @pytest.mark.parametrize("mode", ["integrate_reffect", "fixed_only"])
    @pytest.mark.parametrize("block", ["below_one_unit", "a_few_units", "above_panel"])
    def test_blocks_equal_per_unit_reference(self, fit, monkeypatch, mode, block):
        # an unbalanced panel of 1-, 2- and 12-row units gives, whatever
        # the block size, the bits of the per-unit computation
        panel, spec, traces = fit
        X = design_rows(panel, spec)[0]
        sizes = [1, 2, 12, 1, 12, 2, 1, 41]
        k = sum(t.kept for t in traces)
        budget = {"below_one_unit": 1, "a_few_units": 13 * k, "above_panel": 2 * k * len(X)}
        monkeypatch.setattr(inference, "PREDICT_BLOCK_VALUES", budget[block])
        got = predict_new_unit(traces, X, sizes, mode=mode)
        shifts = [inference._new_unit_effects(t)[:, None] if mode == "integrate_reffect"
                  else 0.0 for t in traces]
        want, lo = np.empty((3, len(X))), 0
        for size in sizes:
            theta = np.concatenate([t.draws["beta"] @ X[lo:lo + size].T + shift
                                    for t, shift in zip(traces, shifts)])
            want[:, lo:lo + size] = inference._completeness_bands(theta)
            lo += size
        for field, ref in zip(("mean", "q2_5", "q97_5"), want):
            np.testing.assert_array_equal(getattr(got, field), ref)

    def test_new_unit_effects_shared_across_units(self, fit):
        # the same row in two units gets the same draws, so the same bands
        panel, spec, traces = fit
        row = design_rows(panel, spec)[0][:1]
        res = predict_new_unit(traces, np.vstack([row] * 4), [2, 2])
        for field in ("mean", "q2_5", "q97_5"):
            assert len(set(getattr(res, field))) == 1

    def test_prediction_stream_opened_once_per_chain(self, fit, monkeypatch):
        panel, spec, traces = fit
        X, _, sizes = design_rows(panel, spec)
        opened = []
        generator = inference.RngStream.generator
        monkeypatch.setattr(inference.RngStream, "generator",
                            lambda self: opened.append(self.stream_id) or generator(self))
        predict_new_unit(traces, X, sizes)
        assert len(sizes) > 1
        assert opened == [inference.PREDICT_STREAM_BASE + t.chain_id for t in traces]


class TestShrinkageAndDeviances:
    def test_shrinkage_arithmetic(self):
        draws = scalar_draws(np.full(1, 2.0))
        draws["lambda"] = np.array([[1.0, 3.0]])
        draws["omega"] = np.array([[4.0, 0.5]])
        draws["phi"] = np.array([5.0])
        tr = make_trace(draws, sizes=(10, 4))
        g, mean = shrinkage_factors([tr])
        expect = [2.0 / (2.0 + 20.0 / 10), 6.0 / (6.0 + 2.5 / 4)]
        np.testing.assert_allclose(g[0], expect, atol=1e-14)
        np.testing.assert_allclose(mean, expect, atol=1e-14)

    def test_shrinkage_in_unit_interval(self, fit):
        panel, spec, traces = fit
        g, mean = shrinkage_factors(traces)
        assert np.all((g > 0) & (g < 1))
        assert g.shape == (sum(t.kept for t in traces), panel.m)


class TestTheorem2Curve:
    def test_probabilities_valid(self):
        phi_grid = np.logspace(0, 3, 6)
        for prior in ("horseshoe", "laplace", "student-t"):
            curve = theorem2_curve(prior, 0.5, n_i=10, resid_mean=0.0,
                                   resid_ss=0.5, phi_grid=phi_grid)
            assert np.all((curve >= 0) & (curve <= 1))

    def test_monotone_decreasing_in_phi(self):
        phi_grid = np.logspace(0, 4, 8)
        curve = theorem2_curve("horseshoe", 0.5, n_i=10, resid_mean=0.0,
                               resid_ss=0.5, phi_grid=phi_grid)
        assert np.all(np.diff(curve) < 0)

    def test_signal_slows_concentration(self):
        # a strong group signal keeps gamma large for bigger phi
        phi_grid = np.array([100.0])
        null = theorem2_curve("horseshoe", 0.5, n_i=10, resid_mean=0.0,
                              resid_ss=0.1, phi_grid=phi_grid)
        signal = theorem2_curve("horseshoe", 0.5, n_i=10, resid_mean=1.0,
                                resid_ss=10.5, phi_grid=phi_grid)
        assert signal[0] > null[0]

    def test_argument_validation(self):
        with pytest.raises(ValidationError):
            theorem2_curve("horseshoe", 1.5, n_i=5, resid_mean=0.0,
                           phi_grid=[1.0])
        with pytest.raises(ValidationError):
            theorem2_curve("ridge", 0.5, n_i=5, resid_mean=0.0, phi_grid=[1.0])

    @pytest.mark.parametrize("resid", [dict(resid_mean=1e200), dict(resid_mean=1e155),
                                       dict(resid_mean=math.nan),
                                       dict(resid_mean=-math.inf),
                                       dict(resid_mean=0.0, resid_ss=math.inf)])
    def test_non_finite_residual_rejected(self, resid):
        with pytest.raises(ValidationError, match="resid_"):
            theorem2_curve("horseshoe", 0.5, n_i=5, phi_grid=[1.0], **resid)
