import csv
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from glmixer.data import CSV_COLUMNS, build_panel, inv_logit, load_panel, logit
from glmixer.errors import ValidationError

from oracles import load_panel_by_rows


def row(uid="U1", year=2000, sex="both", c=0.5, reg_cdr=5.0, pct65=0.1, u5mr=0.05, c5q0=0.8):
    return (uid, year, sex, c, reg_cdr, pct65, u5mr, c5q0)


def panel_of(rows):
    return build_panel(*zip(*rows))


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
PCT_HEADER = "unit_id,year,sex,completeness_pct,reg_cdr,pct65,u5mr,c5q0"


class TestLoadPanel:
    def test_happy_path(self, tmp_path):
        panel = load_panel(write_csv(tmp_path / "p.csv", GOOD_ROWS))
        assert panel.m == 3 and panel.n == 4
        assert panel.unit_ids == ("A", "B", "C")
        assert panel.sizes == (2, 1, 1)

    def test_columns_in_csv_order(self, tmp_path):
        panel = load_panel(write_csv(tmp_path / "p.csv", GOOD_ROWS))
        assert panel._fields[:8] == CSV_COLUMNS
        assert panel.unit_id == ["A", "A", "B", "C"] and panel.year == [2000, 2001, 2000, 2000]
        assert panel.completeness == [0.8, 0.82, 0.5, 0.9]
        assert panel.c5q0 == [0.9, 0.91, 0.7, 0.95]

    def test_reject_boundary(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["D,2000,both,1.0,5,0.1,0.05,0.9"])
        with pytest.raises(ValidationError, match="row 6"):
            load_panel(p, clamp_policy="reject")

    def test_clamp_boundary(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["D,2000,both,1.0,5,0.1,0.05,0.9"])
        with pytest.warns(UserWarning, match="row 6: completeness 1 clamped to 0.9999"):
            panel = load_panel(p, clamp_policy="clamp")
        assert panel.completeness[panel.unit_id.index("D")] == 0.9999

    def test_clamp_band(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + ["D,2000,both,0.000001,5,0.1,0.05,0.9"])
        with pytest.warns(UserWarning, match="row 6: completeness 1e-06 clamped to 0.0001"):
            panel = load_panel(p)
        assert panel.completeness[panel.unit_id.index("D")] == 1e-4

    def test_percent_header(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["A,2000,both,80,5,0.1,0.05,0.9"], header=PCT_HEADER)
        assert load_panel(p).completeness[0] == pytest.approx(0.8)

    @pytest.mark.parametrize("header", ["unit_id,year,sex,completeness,reg_cdr,pct65,u5mr,c5q0",
                                        PCT_HEADER])
    @pytest.mark.parametrize("policy", ["clamp", "reject"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " -Infinity"])
    def test_non_finite_completeness_names_its_row(self, tmp_path, header, policy, cell):
        # a clamp would turn inf into 0.9999 and keep nan: the cell is a
        # parse error of its row, raised before any clamp warning
        rows = GOOD_ROWS + [f"D,2000,both,{cell},5,0.1,0.05,0.9", "E,2000,both,0,5,0.1,0.05,0.9"]
        if header == PCT_HEADER:
            rows = [r.replace(",0.8,", ",80,").replace(",0.82,", ",82,") for r in rows]
        p = write_csv(tmp_path / "p.csv", rows, header=header)
        value = float(cell)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"p.csv: row 6: completeness {value} "
                                                      "is not finite"):
                load_panel(p, clamp_policy=policy)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as Excel saves "CSV UTF-8"
        p = tmp_path / "p.csv"
        p.write_bytes(b"\xef\xbb\xbf" + write_csv(tmp_path / "q.csv", GOOD_ROWS).read_bytes())
        assert load_panel(p) == load_panel(tmp_path / "q.csv")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("lines", [1, 2000])
    def test_undecodable_byte_named_at_its_file_offset(self, tmp_path, bom, lines):
        # counted from the file's first byte, byte-order mark included, and
        # past the first 8 KiB as well as within it
        data = bom + (",".join(CSV_COLUMNS) + "\n").encode() + b"A,2000,both,0.5,5,0.1,0.05,\n" * lines
        p = tmp_path / "p.csv"
        p.write_bytes(data + b"\xff\n")
        with pytest.raises(ValidationError, match=rf"not UTF-8 text \(invalid start byte at "
                                                  rf"byte {len(data)}\)"):
            load_panel(p)

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

    def test_first_bad_row_in_file_order(self, tmp_path):
        # a later unparsable year does not hide an earlier unparsable rate,
        # and the clamps of the rows before the first bad row still warn
        p = write_csv(tmp_path / "p.csv", ["D,2000,both,1.0,5,0.1,0.05,0.9"] + GOOD_ROWS
                      + ["E,2001,both,0.5,x,0.1,0.05,0.9", "F,20xx,both,0.5,5,0.1,0.05,0.9"])
        with pytest.warns(UserWarning, match="row 2: completeness 1 clamped"):
            with pytest.raises(ValidationError, match="row 7: could not convert string to float"):
                load_panel(p)

    def test_year_beyond_float_range_cites_row(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + [f"E,{10 ** 400},both,0.5,5,0.1,0.05,0.9"])
        with pytest.raises(ValidationError, match="row 6"):
            load_panel(p)

    def test_oversized_field_is_validation_error(self, tmp_path):
        # one field over csv's default limit of 131072 characters
        row = '"' + "x" * 200_000 + '",2000,both,0.5,5,0.1,0.05,0.9'
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS + [row])
        with pytest.raises(ValidationError, match="p.csv: field larger than field limit") as info:
            load_panel(p)
        assert isinstance(info.value.__context__, csv.Error)

    def test_empty_c5q0_allowed(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["A,2000,both,0.8,5,0.1,0.05,"])
        assert load_panel(p).c5q0 == [None]

    def test_deterministic(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", GOOD_ROWS)
        assert load_panel(p) == load_panel(p)

    def test_rows_sorted(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", list(reversed(GOOD_ROWS)))
        panel = load_panel(p)
        assert panel.unit_id == ["A", "A", "B", "C"] and panel.year[:2] == [2000, 2001]


class TestBuildPanel:
    def test_c5q0_above_cap(self):
        with pytest.raises(ValidationError, match=r"c5q0 must lie in \(0, 1.5\], got 1.6"):
            panel_of([row(c5q0=1.6)])

    def test_c5q0_above_one_warns(self):
        with pytest.warns(UserWarning, match=r"c5q0 = 1.2000 > 1 for \(U1, 2000, both\)"):
            panel_of([row(c5q0=1.2)])

    def test_negative_reg_cdr(self):
        with pytest.raises(ValidationError):
            panel_of([row(reg_cdr=-1.0)])

    @pytest.mark.parametrize("field", ["reg_cdr", "pct65", "u5mr", "c5q0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_covariate(self, field, value):
        with pytest.raises(ValidationError, match=field):
            panel_of([row(year=1999), row(**{field: value})])

    def test_first_invalid_row_in_given_order(self):
        # the checks run row by row: the first row's bad pct65 is named
        # before the second row's bad sex, which an earlier check tests
        rows = [row(year=2001, c5q0=1.1), row(year=2002, pct65=2.0), row(year=2000, sex="x")]
        with pytest.warns(UserWarning, match="c5q0 = 1.1000"):
            with pytest.raises(ValidationError, match="pct65 must lie in"):
                panel_of(rows)

    def test_sorted_into_groups(self):
        panel = panel_of([row(uid="B", year=2001), row(uid="A", year=2001, sex="male"),
                          row(uid="B", year=2000), row(uid="A", year=2001, sex="female")])
        assert panel.unit_ids == ("A", "B") and panel.sizes == (2, 2)
        assert list(zip(panel.unit_id, panel.year, panel.sex)) == [
            ("A", 2001, "female"), ("A", 2001, "male"), ("B", 2000, "both"), ("B", 2001, "both")]

    def test_duplicate_key(self):
        with pytest.raises(ValidationError, match=r"duplicate observation key \('U1', 2000"):
            panel_of([row(), row(c=0.7)])


# Generated panel CSVs: shuffled rows, mostly valid (with whitespace,
# quoted unit ids, clamped completeness and c5q0 above 1), some of them
# blank, short or with one bad cell
VALID_ROW = st.tuples(
    st.sampled_from(["A", "B", " C", "Bogotá, D.C.", 'say "x"', ""]),
    st.one_of(st.integers(1990, 1999).map(str), st.just(" 2000 ")),
    st.sampled_from(["both", "female", "male", " male"]),
    st.one_of(st.floats(1e-9, 1.0).map(repr), st.floats(0.0, 100.0).map(repr),
              st.sampled_from(["", "0.00005", "0.99995", "1"])),
    st.floats(0.0, 20.0).map(repr), st.floats(0.0, 1.0).map(repr),
    st.floats(1e-6, 0.3).map(repr),
    st.one_of(st.just(""), st.floats(0.01, 1.0).map(repr), st.floats(1.0, 1.5).map(repr)),
).map(list)
BAD_CELLS = st.sampled_from(["", "abc", "nan", "inf", "-inf", "-1", "0", "1.6", "1e400",
                             str(10 ** 400), "20xx", "2_001", " 0.3 ", "x"])


@st.composite
def panel_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["valid"] * 16 + ["bad cell"] * 3 + ["blank", "short"]))
        if kind == "blank":
            rows.append(draw(st.sampled_from([[], [" "] + [""] * 7])))
        elif kind == "short":
            rows.append(["A", "2000"])
        else:
            rows.append(draw(VALID_ROW))
            if kind == "bad cell":
                rows[-1][draw(st.integers(0, 7))] = draw(BAD_CELLS)
    return draw(st.permutations(rows))


def _outcome(load, path, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path, **kwargs)
        except ValidationError as exc:
            result = f"ValidationError: {exc}"
    return result, [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                  HealthCheck.function_scoped_fixture])
@given(rows=panel_rows(), percent=st.booleans(), policy=st.sampled_from(["clamp", "reject"]),
       allow_missing=st.booleans())
def test_load_panel_matches_row_by_row_reference(tmp_path, rows, percent, policy, allow_missing):
    path = tmp_path / "p.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PCT_HEADER.split(",") if percent else CSV_COLUMNS)
        w.writerows(rows)
    kwargs = dict(clamp_policy=policy, allow_missing_completeness=allow_missing)
    got, got_warnings = _outcome(load_panel, path, **kwargs)
    want, want_warnings = _outcome(load_panel_by_rows, path, **kwargs)
    if not isinstance(want, str):
        columns, unit_ids, sizes = want
        want = ([list(col) for col in got.columns()] == columns and got.unit_ids == unit_ids
                and got.sizes == sizes) and got
    assert got == want
    assert got_warnings == want_warnings
