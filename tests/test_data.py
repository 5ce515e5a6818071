import math

import pytest
from hypothesis import given, strategies as st

from glmixer.data import (Observation, build_panel, inv_logit, load_panel,
                          logit, merge_c5q0)
from glmixer.errors import ValidationError


def obs(uid="U1", year=2000, sex="both", c=0.5, reg_cdr=5.0, pct65=0.1,
        u5mr=0.05, c5q0=0.8):
    return Observation(uid, year, sex, c, reg_cdr, pct65, u5mr, c5q0)


class TestLogit:
    def test_symmetry_point(self):
        assert logit(0.5) == 0.0

    def test_ln9(self):
        assert logit(0.9) == pytest.approx(2.197224577, abs=1e-9)

    @pytest.mark.parametrize("x", [-5.0, 0.0, 3.0])
    def test_inverse_pair(self, x):
        assert logit(inv_logit(x)) == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, c):
        with pytest.raises(ValidationError):
            logit(c)


class TestInvLogit:
    def test_zero(self):
        assert inv_logit(0.0) == 0.5

    def test_ln9_inverse(self):
        assert inv_logit(2.197224577) == pytest.approx(0.9, abs=1e-9)

    def test_saturation_no_overflow(self):
        assert inv_logit(50.0) == pytest.approx(1.0, abs=1e-15)
        assert inv_logit(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert math.isfinite(inv_logit(800.0))
        assert math.isfinite(inv_logit(-800.0))

    @given(st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
    def test_round_trip(self, c):
        assert abs(inv_logit(logit(c)) - c) < 1e-12


def write_csv(path, rows, header="unit_id,year,sex,completeness,reg_cdr,pct65,u5mr,c5q0"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


GOOD_ROWS = [
    "A,2000,both,0.8,5,0.1,0.05,0.9",
    "A,2001,both,0.82,5.1,0.1,0.049,0.91",
    "B,2000,both,0.5,3,0.05,0.1,0.7",
    "C,2000,both,0.9,8,0.15,0.02,0.95",
]


class TestLoadPanel:
    def test_happy_path(self, tmp_path):
        panel = load_panel(write_csv(tmp_path / "p.csv", GOOD_ROWS))
        assert panel.m == 3
        assert panel.unit_ids == ("A", "B", "C")
        assert panel.n_i == (2, 1, 1)

    def test_reject_boundary(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["D,2000,both,1.0,5,0.1,0.05,0.9"])
        with pytest.raises(ValidationError, match="row 6"):
            load_panel(p, clamp_policy="reject")

    def test_clamp_boundary(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["D,2000,both,1.0,5,0.1,0.05,0.9"])
        panel = load_panel(p, clamp_policy="clamp", clamp_eps=1e-4)
        d_obs = [o for o in panel.observations() if o.unit_id == "D"][0]
        assert d_obs.completeness == 0.9999

    def test_clamp_band(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["D,2000,both,0.000001,5,0.1,0.05,0.9"])
        panel = load_panel(p, clamp_eps=1e-4)
        d_obs = [o for o in panel.observations() if o.unit_id == "D"][0]
        assert d_obs.completeness == 1e-4

    def test_percent_header(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["A,2000,both,80,5,0.1,0.05,0.9"],
                      header="unit_id,year,sex,completeness_pct,reg_cdr,pct65,u5mr,c5q0")
        panel = load_panel(p)
        assert next(panel.observations()).completeness == pytest.approx(0.8)

    def test_duplicate_key(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + [GOOD_ROWS[0]])
        with pytest.raises(ValidationError, match="duplicate"):
            load_panel(p)

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS, header="a,b,c")
        with pytest.raises(ValidationError, match="header"):
            load_panel(p)

    def test_parse_error_cites_row(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["E,20xx,both,0.5,5,0.1,0.05,0.9"])
        with pytest.raises(ValidationError, match="row 6"):
            load_panel(p)

    def test_empty_c5q0_allowed(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["A,2000,both,0.8,5,0.1,0.05,"])
        assert next(load_panel(p).observations()).c5q0 is None

    def test_deterministic(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS)
        assert load_panel(p) == load_panel(p)

    def test_rows_sorted(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", list(reversed(GOOD_ROWS)))
        panel = load_panel(p)
        periods = [o.period for o in dict(panel.groups)["A"]]
        assert periods == sorted(periods)


class TestObservationValidation:
    def test_c5q0_above_cap(self):
        with pytest.raises(ValidationError):
            obs(c5q0=1.6).validate()

    def test_c5q0_above_one_warns(self, caplog):
        with caplog.at_level("WARNING"):
            obs(c5q0=1.2).validate()
        assert "c5q0" in caplog.text

    def test_negative_reg_cdr(self):
        with pytest.raises(ValidationError):
            obs(reg_cdr=-1.0).validate()

    @pytest.mark.parametrize("field", ["reg_cdr", "pct65", "u5mr", "c5q0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_covariate(self, field, value):
        with pytest.raises(ValidationError, match=field):
            obs(**{field: value}).validate()


class TestMergeC5q0:
    def test_direct_copy(self):
        sexed = build_panel([obs(sex="female", c5q0=0.5)])
        both = build_panel([obs(sex="both", c5q0=0.8)])
        merged = merge_c5q0(sexed, both)
        assert next(merged.observations()).c5q0 == 0.8

    def test_missing_key(self):
        sexed = build_panel([obs(uid="U2", sex="female")])
        both = build_panel([obs(uid="U1", sex="both")])
        with pytest.raises(ValidationError, match=r"U2"):
            merge_c5q0(sexed, both)

    def test_idempotent_on_identical(self):
        both = build_panel([obs(sex="both", c5q0=0.8), obs(year=2001, c5q0=0.7)])
        assert merge_c5q0(both, both) == both

    def test_other_fields_untouched(self):
        sexed = build_panel([obs(sex="male", c=0.77, reg_cdr=4.25, c5q0=0.5)])
        both = build_panel([obs(sex="both", c5q0=0.9)])
        out = next(merge_c5q0(sexed, both).observations())
        src = next(sexed.observations())
        for f in ("unit_id", "period", "sex", "completeness", "reg_cdr", "pct65", "u5mr_true"):
            assert getattr(out, f) == getattr(src, f)
