import math

import numpy as np
import pytest

from glmixer.data import build_panel
from glmixer.design import ModelSpec, build_matrices, design_rows
from glmixer.errors import ValidationError

from oracles import group_aggregates_by_masks


def obs(uid="U1", year=2000, c=0.5, reg_cdr=5.0, pct65=0.1, u5mr=0.05, c5q0=0.8):
    """One panel row, in CSV column order."""
    return (uid, year, "both", c, reg_cdr, pct65, u5mr, c5q0)


def panel_of(rows):
    return build_panel(*zip(*rows))


def row_by_hand(row, spec):
    """The design row of one panel row, entry by entry."""
    _, year, _, _, reg_cdr, pct65, u5mr, c5q0 = row
    x = [1.0, reg_cdr, reg_cdr ** 2, pct65 ** 2, math.log(u5mr)]
    return np.asarray(x + ([c5q0] if spec.variant == 1 else []) + [year - spec.year_offset])


def build_row(row, spec):
    """`design_rows` of a one-row panel."""
    return design_rows(panel_of([row]), spec)[0][0]


def varied_obs(rng, **kw):
    """An observation with random covariates, so that a panel of them fits."""
    return obs(reg_cdr=rng.uniform(2, 12), pct65=rng.uniform(0.01, 0.2),
               u5mr=rng.uniform(0.005, 0.15), c5q0=rng.uniform(0.4, 1.0), **kw)


def random_panel(rng, m=3, n_i=10):
    out = []
    for i in range(m):
        for t in range(n_i):
            out.append(obs(
                uid=f"U{i}", year=2000 + t, c=rng.uniform(0.2, 0.95),
                reg_cdr=rng.uniform(2, 12), pct65=rng.uniform(0.01, 0.2),
                u5mr=rng.uniform(0.005, 0.15), c5q0=rng.uniform(0.4, 1.0),
            ))
    return panel_of(out)


class TestModelSpec:
    def test_dimensions(self):
        assert ModelSpec(variant=1).p == 7
        assert ModelSpec(variant=2).p == 6

    def test_column_names(self):
        assert ModelSpec(variant=1).column_names() == [
            "const", "reg_cdr", "reg_cdr_sq", "pct65_sq", "ln_u5mr", "c5q0", "year"]
        assert "c5q0" not in ModelSpec(variant=2).column_names()

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            ModelSpec(variant=3)

    def test_round_trip(self):
        spec = ModelSpec(variant=2, sex="female", year_offset=1995.5)
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestBuildRow:
    def test_model1_values(self):
        o = obs(year=2003, reg_cdr=6.0, pct65=0.1, u5mr=0.05, c5q0=0.8)
        row = build_row(o, ModelSpec(variant=1, year_offset=2000.0))
        expected = [1.0, 6.0, 36.0, 0.01, math.log(0.05), 0.8, 3.0]
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)

    def test_model2_drops_c5q0(self):
        o = obs(year=2003, reg_cdr=6.0, pct65=0.1, u5mr=0.05, c5q0=0.8)
        row = build_row(o, ModelSpec(variant=2, year_offset=2000.0))
        expected = [1.0, 6.0, 36.0, 0.01, math.log(0.05), 3.0]
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)

    def test_model1_requires_c5q0(self):
        with pytest.raises(ValidationError, match="c5q0"):
            build_row(obs(c5q0=None), ModelSpec(variant=1))

    def test_model2_tolerates_missing_c5q0(self):
        build_row(obs(c5q0=None), ModelSpec(variant=2))


class TestBuildMatrices:
    def test_shapes_and_bookkeeping(self):
        panel = random_panel(np.random.default_rng(0), m=4, n_i=9)
        d = build_matrices(panel, ModelSpec(variant=1, year_offset=2004.0))
        assert d.X.shape == (36, 7)
        assert d.m == 4 and d.n == 36 and d.p == 7
        assert tuple(d.sizes) == (9, 9, 9, 9)
        np.testing.assert_array_equal(d.group_idx, np.repeat(np.arange(4), 9))

    def test_group_aggregates_match_slices(self):
        panel = random_panel(np.random.default_rng(1), m=3, n_i=10)
        d = build_matrices(panel, ModelSpec(variant=2, year_offset=2004.5))
        for g in range(3):
            sel = d.group_idx == g
            np.testing.assert_allclose(d.xbar[g], d.X[sel].mean(axis=0), atol=1e-14)
            np.testing.assert_allclose(d.ybar[g], d.y[sel].mean(), atol=1e-14)
            np.testing.assert_allclose(d.XtX_g[g], d.X[sel].T @ d.X[sel], atol=1e-12)
            np.testing.assert_allclose(d.Xty_g[g], d.X[sel].T @ d.y[sel], atol=1e-12)
            np.testing.assert_allclose(d.yty_g[g], d.y[sel] @ d.y[sel], atol=1e-12)

    def test_group_aggregates_equal_masked_oracle(self):
        # unequal group sizes, so a slice off by one row would show
        rng = np.random.default_rng(2)
        panel = panel_of([
            obs(uid=f"U{i}", year=2000 + t, c=rng.uniform(0.2, 0.95),
                reg_cdr=rng.uniform(2, 12), pct65=rng.uniform(0.01, 0.2),
                u5mr=rng.uniform(0.005, 0.15), c5q0=rng.uniform(0.4, 1.0))
            for i, n_i in enumerate((9, 12, 8, 15, 10)) for t in range(n_i)])
        d = build_matrices(panel, ModelSpec(variant=1, year_offset=2005.0))
        want = group_aggregates_by_masks(d.X, d.y, d.group_idx, d.m)
        for got, ref in zip((d.xbar, d.ybar, d.XtX_g, d.Xty_g, d.yty_g), want):
            np.testing.assert_array_equal(got, ref)

    def test_per_fit_constants(self):
        panel = random_panel(np.random.default_rng(3), m=3, n_i=10)
        d = build_matrices(panel, ModelSpec(variant=1, year_offset=2004.5))
        evals, evecs = d.xtx_eigh
        np.testing.assert_allclose((evecs * evals) @ evecs.T, d.X.T @ d.X,
                                   rtol=1e-12, atol=1e-9)
        assert np.all(np.diff(evals) >= 0.0) and evals[0] > 0.0
        assert d.xtx_eigh is d.xtx_eigh  # computed once per design
        assert d.lambda_shape == 6.0 and isinstance(d.lambda_shape, float)

    def test_lambda_shape_unbalanced(self):
        rng = np.random.default_rng(4)
        panel = panel_of([varied_obs(rng, uid=f"U{i}", year=2000 + t)
                          for i, n_i in enumerate((9, 12)) for t in range(n_i)])
        d = build_matrices(panel, ModelSpec(variant=1, year_offset=2005.0))
        np.testing.assert_array_equal(d.lambda_shape, [5.5, 7.0])

    def test_y_is_logit_completeness(self):
        rng = np.random.default_rng(5)
        panel = panel_of([varied_obs(rng, year=2000 + t, c=0.8) for t in range(10)])
        d = build_matrices(panel, ModelSpec(variant=1, year_offset=2004.5))
        np.testing.assert_allclose(d.y, math.log(4.0), rtol=1e-15)

    def test_small_group_rejected_for_fit(self):
        panel = panel_of([obs(year=2000 + t) for t in range(5)])
        with pytest.raises(ValidationError, match="n_i > p"):
            build_matrices(panel, ModelSpec(variant=1))

    def test_singular_design_rejected(self):
        # constant covariates make reg_cdr and reg_cdr^2 collinear with const
        panel = panel_of([obs(year=2000, uid=f"U{i}", c=0.5 + 0.01 * i)
                          for i in range(10)])
        # single year per unit but n_i=1 <= p fails first; build a constant panel instead
        panel = panel_of([obs(uid="A", year=2000 + t) for t in range(10)])
        with pytest.raises(ValidationError, match="singular"):
            build_matrices(panel, ModelSpec(variant=1, year_offset=2004.5))

    def test_overflowing_cross_product_rejected_before_eigh(self, monkeypatch):
        # finite rows whose squares overflow: X'X is checked before it is decomposed
        monkeypatch.setattr(np.linalg, "eigh", None)
        for offset, panel in ((1e308, random_panel(np.random.default_rng(7))),
                              (0.0, panel_of([obs(year=2000 + t, reg_cdr=1e154)
                                              for t in range(10)]))):
            with pytest.raises(ValidationError, match="X'X is not finite"):
                build_matrices(panel, ModelSpec(variant=1, year_offset=offset))

    def test_singular_check_decomposes_once(self, monkeypatch):
        # the check reads the eigendecomposition the gamma-error beta step reuses
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        monkeypatch.setattr(np.linalg, "svd", None)
        d = build_matrices(random_panel(np.random.default_rng(6), m=3, n_i=10),
                           ModelSpec(variant=1, year_offset=2004.5))
        assert d.xtx_eigh is d.xtx_eigh and len(calls) == 1


class TestDesignRows:
    def test_overflowing_row_names_its_observation(self):
        # reg_cdr^2 overflows a Python float: a ValidationError, not OverflowError
        panel = panel_of([obs(year=2000 + t) for t in range(3)]
                         + [obs(uid="U2", year=2001, reg_cdr=1e160)])
        with pytest.raises(ValidationError, match=r"\(U2, 2001, both\) is not finite"):
            design_rows(panel, ModelSpec(variant=1))

    def test_small_group_ok_for_prediction(self):
        panel = panel_of([obs(year=2000 + t) for t in range(2)])
        X, unit_ids, sizes = design_rows(panel, ModelSpec(variant=1))
        assert X.shape == (2, 7) and unit_ids == ("U1",)
        np.testing.assert_array_equal(sizes, [2])

    def test_singular_and_unbalanced_rows_built(self):
        # no fit-time checks: constant covariates and units of 1 and 3 rows
        panel = panel_of([obs(uid=f"U{i}", year=2000 + t) for i, n_i in enumerate((1, 3))
                          for t in range(n_i)])
        spec = ModelSpec(variant=2, year_offset=2001.0)
        X, unit_ids, sizes = design_rows(panel, spec)
        assert unit_ids == ("U0", "U1") and sizes.dtype == np.intp
        np.testing.assert_array_equal(sizes, [1, 3])
        np.testing.assert_array_equal(X, np.vstack([row_by_hand(r, spec)
                                                    for r in zip(*panel.columns())]))

    @pytest.mark.parametrize("variant", [1, 2])
    def test_rows_equal_rows_built_one_at_a_time(self, variant):
        # column-wise entries keep the bits of Python-float rows: x ** 2,
        # math.log and year - offset per entry
        panel = random_panel(np.random.default_rng(8), m=5, n_i=7)
        spec = ModelSpec(variant=variant, year_offset=2003.25)
        X, _, _ = design_rows(panel, spec)
        assert X.flags.c_contiguous
        np.testing.assert_array_equal(X, np.vstack([row_by_hand(r, spec)
                                                    for r in zip(*panel.columns())]))

    @pytest.mark.parametrize("variant", [1, 2])
    def test_build_matrices_reads_these_rows(self, variant):
        panel = random_panel(np.random.default_rng(6), m=4, n_i=9)
        spec = ModelSpec(variant=variant, year_offset=2004.0)
        X, unit_ids, sizes = design_rows(panel, spec)
        d = build_matrices(panel, spec)
        np.testing.assert_array_equal(d.X, X)
        assert d.unit_ids == unit_ids
        np.testing.assert_array_equal(d.sizes, sizes)
        np.testing.assert_array_equal(d.group_idx, np.repeat(np.arange(4), 9))
