"""Panel data ingestion and the logit/completeness scale transforms.

A panel is held as columns (`PanelDataset`): one list per CSV column, its
rows grouped by unit (country or department) and sorted by unit, year and
sex. `load_panel` parses and checks each column as a whole; only when a
check fails does it scan the rows one at a time, to name the first bad
one. Completeness lives on the (0,1) fraction scale internally; the CSV
loader converts percent input when the header declares it.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import namedtuple
from itertools import groupby

from .errors import ValidationError

SEXES = ("both", "female", "male")

CSV_COLUMNS = ("unit_id", "year", "sex", "completeness", "reg_cdr", "pct65", "u5mr", "c5q0")

DEFAULT_CLAMP_EPS = 1e-4

# Checks of each row of a panel, in the order they are applied: (column,
# test of a value, message formatted with the value and the row's key).
ROW_CHECKS = (
    ("sex", SEXES.__contains__, f"sex must be one of {SEXES}, got {{0!r}}"),
    ("completeness", lambda v: 0.0 < v < 1.0,
     "completeness must lie strictly in (0,1), got {0!r} for ({1}, {2}, {3})"),
    ("reg_cdr", lambda v: 0.0 <= v < math.inf, "reg_cdr must be finite and >= 0, got {0!r}"),
    ("pct65", lambda v: 0.0 <= v <= 1.0, "pct65 must lie in [0,1], got {0!r}"),
    ("u5mr", lambda v: 0.0 < v < math.inf, "u5mr_true must be finite and > 0, got {0!r}"),
    ("c5q0", lambda v: v is None or 0.0 < v <= 1.5,
     "c5q0 must lie in (0, 1.5], got {0!r} for ({1}, {2}, {3})"),
)


def logit(c: float) -> float:
    """ln(c / (1 - c)); defined only on the open interval (0, 1)."""
    if not (0.0 < c < 1.0):
        raise ValidationError(f"logit requires 0 < c < 1, got {c!r}")
    return math.log(c / (1.0 - c))


def inv_logit(theta: float) -> float:
    """e^theta / (1 + e^theta), stable for large |theta|."""
    if theta >= 0.0:
        return 1.0 / (1.0 + math.exp(-theta))
    e = math.exp(theta)
    return e / (1.0 + e)


class PanelDataset(namedtuple("PanelDataset", CSV_COLUMNS + ("unit_ids", "sizes"))):
    """A panel as columns: one list per CSV column (`year` of ints, `c5q0`
    None where blank), rows sorted by unit_id, year and sex, so each unit's
    rows are contiguous; `unit_ids` names the units in that order and
    `sizes` counts their rows. `build_panel` makes one from columns."""

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.unit_ids)

    @property
    def n(self) -> int:
        return len(self.unit_id)

    def columns(self) -> tuple:
        """The eight CSV columns, in CSV order."""
        return self[:len(CSV_COLUMNS)]


def _warn_c5q0(c5q0, unit_id, year, sex) -> None:
    warnings.warn(f"c5q0 = {c5q0:.4f} > 1 for ({unit_id}, {year}, {sex}); registered "
                  "under-five deaths exceed the true estimate")


def _column_within(ok, column) -> bool:
    """Whether `ok`, the test of an interval, passes each value of `column`
    but None: its least and greatest do, and none is NaN."""
    values = [v for v in column if v is not None]
    return not values or (ok(min(values)) and ok(max(values)) and not math.isnan(sum(values)))


def _raise_first_invalid_row(columns) -> None:
    """Check the rows in order and raise the first failed check; warn of
    each c5q0 above 1 on the way, as a valid panel's rows do."""
    seen = set()
    for row in zip(*columns):
        named, key = dict(zip(CSV_COLUMNS, row)), row[:3]
        for name, ok, message in ROW_CHECKS:
            if not ok(named[name]):
                raise ValidationError(message.format(named[name], *key))
        if named["c5q0"] is not None and named["c5q0"] > 1.0:
            _warn_c5q0(named["c5q0"], *key)
        if key in seen:
            raise ValidationError(f"duplicate observation key {key}")
        seen.add(key)


def build_panel(unit_id, year, sex, completeness, reg_cdr, pct65, u5mr, c5q0) -> PanelDataset:
    """Check and sort a panel given as its eight columns, equal-length
    sequences in CSV order with rows in any order; rows as tuples give
    `build_panel(*zip(*rows))`. A failed check raises for the first row
    that fails it; each c5q0 above 1 warns, in the given order."""
    columns = [list(col) for col in (unit_id, year, sex, completeness, reg_cdr, pct65, u5mr, c5q0)]
    keys = list(zip(*columns[:3]))
    if len(set(keys)) != len(keys) or not set(columns[2]) <= set(SEXES) or not all(
            _column_within(ok, columns[CSV_COLUMNS.index(name)]) for name, ok, _ in ROW_CHECKS[1:]):
        _raise_first_invalid_row(columns)
    for key, v in zip(keys, columns[7]):
        if v is not None and v > 1.0:
            _warn_c5q0(v, *key)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    columns = [[col[r] for r in order] for col in columns]
    groups = [(uid, len(list(rows))) for uid, rows in groupby(columns[0])]
    return PanelDataset(*columns, unit_ids=tuple(uid for uid, _ in groups),
                        sizes=tuple(size for _, size in groups))


def read_csv_rows(path) -> list:
    """The records of a UTF-8 CSV file (`csv_rows`)."""
    with open(path, "rb") as fh:
        return csv_rows(fh.read(), path)


def csv_rows(data: bytes, path) -> list:
    """The records of the bytes of a UTF-8 CSV file, header included, with
    a leading byte-order mark dropped; bytes not UTF-8 or not CSV are a
    ValidationError naming `path` (and a bad byte's offset)."""
    try:
        text = data.decode("utf-8")
        return list(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _in_clamp_band(c: float) -> bool:
    return DEFAULT_CLAMP_EPS <= c <= 1.0 - DEFAULT_CLAMP_EPS


def _parse_records(records, row_nos, percent, clamp_policy, allow_missing) -> list:
    """The eight columns of CSV data records, each parsed and checked as a
    whole, in the order of a row's fields: a fault raises ValueError or
    OverflowError. Each completeness is then clamped, with a warning naming
    its row number, or under 'reject' checked to lie in (0, 1)."""
    short = next((row for row in records if len(row) != len(CSV_COLUMNS)), None)
    if short is not None:
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(short)}")
    unit_id, year, sex, comp, reg_cdr, pct65, u5mr, c5q0 = zip(*records)
    year = list(map(int, year))
    float(min(year)), float(max(year))  # a year beyond float range overflows here, not in the design
    missing = [allow_missing and not c.strip() for c in comp]
    comp = [0.5 if miss else float(c) for c, miss in zip(comp, missing)]
    if not all(map(math.isfinite, comp)):
        raise ValueError(f"completeness {next(c for c in comp if not math.isfinite(c))} "
                         "is not finite")
    reg_cdr, pct65, u5mr = (list(map(float, col)) for col in (reg_cdr, pct65, u5mr))
    c5q0 = [float(v) if v.strip() else None for v in c5q0]
    if percent:
        comp = [c if miss else c / 100.0 for c, miss in zip(comp, missing)]
    if clamp_policy == "reject":
        bad = next((r for r, c in enumerate(comp) if not 0.0 < c < 1.0), None)
        if bad is not None:
            raise ValidationError(f"row {row_nos[bad]}: completeness {comp[bad]} outside the "
                                  "open interval (0, 1) under the 'reject' policy")
    elif not all(map(_in_clamp_band, comp)):
        for r, c in enumerate(comp):
            if not _in_clamp_band(c):
                comp[r] = min(max(c, DEFAULT_CLAMP_EPS), 1.0 - DEFAULT_CLAMP_EPS)
                warnings.warn(f"row {row_nos[r]}: completeness {c:.6g} clamped to {comp[r]:.6g}")
    return [[s.strip() for s in unit_id], year, [s.strip() for s in sex], comp,
            reg_cdr, pct65, u5mr, c5q0]


def load_panel(path, clamp_policy: str = "clamp",
               allow_missing_completeness: bool = False) -> PanelDataset:
    """Load a panel CSV.

    Header must be ``unit_id,year,sex,completeness,reg_cdr,pct65,u5mr,c5q0``;
    the variant header ``completeness_pct`` declares percent-scale input,
    converted to fractions at load. Blank records are skipped and c5q0 may
    be empty. With ``allow_missing_completeness`` (prediction inputs, where
    the response is optional) a blank completeness is stored as 0.5 and
    never used. The columns are parsed and checked as a whole; only on a
    fault are the records parsed one at a time, to name the first bad row.
    """
    if clamp_policy not in ("clamp", "reject"):
        raise ValidationError(f"unknown clamp policy {clamp_policy!r}")
    rows = read_csv_rows(path)
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    percent = "completeness_pct" in header
    expect = [name + "_pct" if percent and name == "completeness" else name for name in CSV_COLUMNS]
    if header != expect:
        raise ValidationError(f"{path}: bad header {header!r}; expected {expect!r}")
    numbered = [(row_no, row) for row_no, row in enumerate(rows[1:], start=2)
                if "".join(row).strip()]
    if not numbered:
        raise ValidationError(f"{path}: no data rows")
    row_nos, records = zip(*numbered)
    settings = (percent, clamp_policy, allow_missing_completeness)
    try:
        columns = _parse_records(records, row_nos, *settings)
    except (ValueError, OverflowError):
        # the rows before the first bad one warn of their clamps, as they would load
        for row_no, row in numbered:
            try:
                _parse_records([row], [row_no], *settings)
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"{path}: row {row_no}: {exc}") from None
    return build_panel(*columns)


def write_panel_csv(panel: PanelDataset, path) -> None:
    """The panel as a CSV file `load_panel` reads back, floats in repr
    (shortest round-trip) and c5q0 blank where there is none."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        w.writerows([uid, year, sex, *(repr(float(v)) for v in floats),
                     "" if c5q0 is None else repr(float(c5q0))]
                    for uid, year, sex, *floats, c5q0 in zip(*panel.columns()))
