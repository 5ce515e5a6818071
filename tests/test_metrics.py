import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from glmixer.errors import ValidationError
from glmixer.metrics import (BAND_EDGES, BAND_LABELS, band_of, mae_rmse,
                             metric_report, r_square, stratified,
                             subnational_report)

frac = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
pairs = st.lists(st.tuples(frac, frac), min_size=1, max_size=40)


def split(data):
    pred = np.array([p for p, _ in data])
    obs = np.array([o for _, o in data])
    return pred, obs


class TestMaeRmse:
    def test_worked_example(self):
        mae, rmse = mae_rmse([0.8, 0.5, 0.9], [0.7, 0.8, 0.9])
        assert mae == pytest.approx(0.4 / 3, abs=1e-15)
        assert rmse == pytest.approx(math.sqrt(0.1 / 3), abs=1e-15)

    def test_perfect(self):
        assert mae_rmse([0.3, 0.6], [0.3, 0.6]) == (0.0, 0.0)

    def test_rmse_dominates_mae(self):
        mae, rmse = mae_rmse([0.1, 0.9], [0.5, 0.5])
        assert rmse >= mae

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mae_rmse([0.1], [0.1, 0.2])

    @pytest.mark.parametrize("bad", [
        np.full((2, 3), 0.5), np.full((3, 1), 0.5), [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
        [[0.1, 0.2], [0.3]], [0.1, "high", 0.3], [0.1, None, 0.3], 0.5,
    ], ids=["array-2x3", "array-3x1", "list-of-lists", "ragged", "text", "none", "scalar"])
    def test_not_a_vector(self, bad):
        with pytest.raises(ValidationError, match="vector of numbers"):
            mae_rmse(bad, [0.1, 0.2, 0.3])
        with pytest.raises(ValidationError, match="vector of numbers"):
            mae_rmse([0.1, 0.2, 0.3], bad)

    @given(pairs)
    def test_brute_force(self, data):
        pred, obs = split(data)
        mae, rmse = mae_rmse(pred, obs)
        bf_mae = sum(abs(p - o) for p, o in data) / len(data)
        bf_rmse = math.sqrt(sum((p - o) ** 2 for p, o in data) / len(data))
        assert mae == pytest.approx(bf_mae, abs=1e-14)
        assert rmse == pytest.approx(bf_rmse, abs=1e-14)


class TestRSquare:
    def test_perfect_fit(self):
        assert r_square([0.2, 0.5, 0.9], [0.2, 0.5, 0.9]) == pytest.approx(1.0)

    def test_mean_predictor_zero(self):
        obs = [0.2, 0.4, 0.6]
        assert r_square(obs, [0.4, 0.4, 0.4]) == pytest.approx(0.0, abs=1e-14)

    def test_can_go_negative(self):
        assert r_square([0.2, 0.4], [0.9, 0.1]) < 0.0

    def test_constant_observed_rejected(self):
        with pytest.raises(ValidationError):
            r_square([0.5, 0.5], [0.4, 0.6])

    def test_constant_observed_with_inexact_mean_rejected(self):
        # three 0.1s average to 0.10000000000000002, so the sum of squared
        # deviations is 2e-33, not 0
        assert math.fsum([0.1] * 3) / 3 != 0.1
        with pytest.raises(ValidationError, match="zero variance"):
            r_square([0.1] * 3, [0.5] * 3)

    def test_squared_deviations_underflowing_rejected(self):
        with pytest.raises(ValidationError, match="zero variance"):
            r_square([1e-200, 2e-200], [0.5, 0.5])

    @given(st.lists(st.tuples(frac, frac), min_size=3, max_size=40))
    # SS_tot just above the cut-off: R^2 is about -1.39e10, where a float
    # oracle's own rounding exceeds abs=1e-10
    @example(data=[(0.5, 0.9999989999999999), (0.5, 0.99999), (0.5, 0.99999)])
    def test_brute_force(self, data):
        # the exact rational R^2 of the floats given, rounded once; rel
        # covers huge |R^2| only, where abs=1e-10 is less than one ulp
        pred, obs = split(data)
        exact = [(Fraction(p), Fraction(o)) for p, o in data]
        cbar = sum(o for _, o in exact) / len(exact)
        ss_tot = sum((o - cbar) ** 2 for _, o in exact)
        if ss_tot < 1e-12:
            return
        expect = float(1 - sum((o - p) ** 2 for p, o in exact) / ss_tot)
        assert r_square(obs, pred) == pytest.approx(expect, rel=1e-12, abs=1e-10)


class TestBands:
    @pytest.mark.parametrize("c,k", [
        (0.01, 0), (0.299999, 0),
        (0.30, 1), (0.45, 1), (0.599999, 1),
        (0.60, 2), (0.799999, 2),
        (0.80, 3), (0.899999, 3),
        (0.90, 4), (0.95, 4), (1.0, 4),
    ])
    def test_edges(self, c, k):
        assert band_of(c) == k

    @pytest.mark.parametrize("c", [0.0, -0.1, 1.0001])
    def test_domain(self, c):
        with pytest.raises(ValidationError):
            band_of(c)

    def test_labels_align(self):
        assert len(BAND_LABELS) == len(BAND_EDGES) - 1

    def test_stratified_partitions(self):
        rng = np.random.default_rng(7)
        obs = rng.uniform(0.01, 1.0, size=200)
        pred = np.clip(obs + rng.normal(0, 0.05, size=200), 1e-6, 1.0)
        out = stratified(pred, obs)
        assert sum(v[2] for v in out.values()) == 200

    def test_stratified_empty_band(self):
        out = stratified([0.95, 0.92], [0.95, 0.92])
        assert out["(0,30%)"][2] == 0
        assert math.isnan(out["(0,30%)"][0])

    @given(pairs)
    def test_stratified_brute_force(self, data):
        pred, obs = split(data)
        out = stratified(pred, obs)
        for k, label in enumerate(BAND_LABELS):
            members = [(p, o) for p, o in data if band_of(o) == k]
            assert out[label][2] == len(members)
            if members:
                bf_mae = sum(abs(p - o) for p, o in members) / len(members)
                assert out[label][0] == pytest.approx(bf_mae, abs=1e-14)


class TestSubnational:
    def test_worked_example(self):
        mae, mse, count = subnational_report([0.500, 0.700, 0.520], [0.625, 0.750, 0.800])
        assert count == 1  # only the 0.05 deviation
        assert mae == pytest.approx((0.125 + 0.05 + 0.28) / 3, abs=1e-15)
        assert mse == pytest.approx((0.125 ** 2 + 0.05 ** 2 + 0.28 ** 2) / 3, abs=1e-15)

    def test_threshold_is_strict(self):
        # an error exactly at the threshold does not count (0.125 is exact in binary)
        _, _, count = subnational_report([0.500], [0.625], threshold=0.125)
        assert count == 0

    @given(pairs)
    def test_count_brute_force(self, data):
        pred, obs = split(data)
        _, _, count = subnational_report(pred, obs)
        assert count == sum(1 for p, o in data if abs(p - o) < 0.10)


class TestMetricReport:
    def test_consistent_with_parts(self):
        rng = np.random.default_rng(3)
        obs = rng.uniform(0.05, 1.0, size=50)
        pred = np.clip(obs + rng.normal(0, 0.08, size=50), 1e-6, 1.0)
        fixed = np.clip(obs + rng.normal(0, 0.12, size=50), 1e-6, 1.0)
        rep = metric_report(pred, obs, fixed_only_pred=fixed)
        assert (rep.mae, rep.rmse) == mae_rmse(pred, obs)
        assert rep.r_square == r_square(obs, fixed)
        assert rep.n_small_dev == subnational_report(pred, obs)[2]
        d = rep.to_dict()
        assert set(d["stratified"]) == set(BAND_LABELS)
