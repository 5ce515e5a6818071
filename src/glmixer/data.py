"""Panel data ingestion and the logit/completeness scale transforms.

Observations are grouped by unit (country or department). Completeness
lives on the (0,1) fraction scale internally; the CSV loader converts
percent input when the header declares it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError

SEXES = ("both", "female", "male")

CSV_COLUMNS = ("unit_id", "year", "sex", "completeness", "reg_cdr", "pct65", "u5mr", "c5q0")

DEFAULT_CLAMP_EPS = 1e-4


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


@dataclass(frozen=True)
class Observation:
    unit_id: str
    period: int
    sex: str
    completeness: float
    reg_cdr: float
    pct65: float
    u5mr_true: float
    c5q0: Optional[float] = None

    def validate(self) -> None:
        if self.sex not in SEXES:
            raise ValidationError(f"sex must be one of {SEXES}, got {self.sex!r}")
        if not (0.0 < self.completeness < 1.0):
            raise ValidationError(
                f"completeness must lie strictly in (0,1), got {self.completeness!r} "
                f"for ({self.unit_id}, {self.period}, {self.sex})"
            )
        if not (0.0 <= self.reg_cdr < math.inf):
            raise ValidationError(f"reg_cdr must be finite and >= 0, got {self.reg_cdr!r}")
        if not (0.0 <= self.pct65 <= 1.0):
            raise ValidationError(f"pct65 must lie in [0,1], got {self.pct65!r}")
        if not (0.0 < self.u5mr_true < math.inf):
            raise ValidationError(f"u5mr_true must be finite and > 0, got {self.u5mr_true!r}")
        if self.c5q0 is not None:
            if not (0.0 < self.c5q0 <= 1.5):
                raise ValidationError(
                    f"c5q0 must lie in (0, 1.5], got {self.c5q0!r} "
                    f"for ({self.unit_id}, {self.period}, {self.sex})"
                )
            if self.c5q0 > 1.0:
                warnings.warn(
                    f"c5q0 = {self.c5q0:.4f} > 1 for ({self.unit_id}, {self.period}, "
                    f"{self.sex}); registered under-five deaths exceed the true estimate")


@dataclass(frozen=True)
class PanelDataset:
    """Ordered groups of observations, keyed by unit_id."""

    groups: tuple  # tuple of (unit_id, tuple of Observation)

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def n_i(self) -> tuple:
        return tuple(len(obs) for _, obs in self.groups)

    @property
    def unit_ids(self) -> tuple:
        return tuple(uid for uid, _ in self.groups)

    def observations(self):
        for _, obs_list in self.groups:
            yield from obs_list

    @property
    def n(self) -> int:
        return sum(self.n_i)


def build_panel(observations) -> PanelDataset:
    """Group, sort, and validate a flat observation list."""
    seen = set()
    by_unit: dict = {}
    for obs in observations:
        obs.validate()
        key = (obs.unit_id, obs.period, obs.sex)
        if key in seen:
            raise ValidationError(f"duplicate observation key {key}")
        seen.add(key)
        by_unit.setdefault(obs.unit_id, []).append(obs)
    groups = tuple(
        (uid, tuple(sorted(by_unit[uid], key=lambda o: (o.period, o.sex))))
        for uid in sorted(by_unit)
    )
    return PanelDataset(groups=groups)


def read_csv_rows(path) -> list:
    """The records of a UTF-8 CSV file, header included; a file that is
    not UTF-8 or that csv cannot parse is a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _clamp_completeness(c: float, policy: str, row_no: int) -> float:
    if policy == "reject":
        if not (0.0 < c < 1.0):
            raise ValidationError(
                f"row {row_no}: completeness {c} outside the open interval (0, 1) "
                "under the 'reject' policy"
            )
        return c
    if DEFAULT_CLAMP_EPS <= c <= 1.0 - DEFAULT_CLAMP_EPS:
        return c
    clamped = min(max(c, DEFAULT_CLAMP_EPS), 1.0 - DEFAULT_CLAMP_EPS)
    warnings.warn(f"row {row_no}: completeness {c:.6g} clamped to {clamped:.6g}")
    return clamped


def load_panel(path, clamp_policy: str = "clamp",
               allow_missing_completeness: bool = False) -> PanelDataset:
    """Load a panel CSV.

    Header must be ``unit_id,year,sex,completeness,reg_cdr,pct65,u5mr,c5q0``;
    the variant header ``completeness_pct`` declares percent-scale input,
    converted to fractions at load. c5q0 may be empty. With
    ``allow_missing_completeness`` (prediction inputs, where the response
    is optional) a blank completeness is stored as 0.5 and never used.
    """
    if clamp_policy not in ("clamp", "reject"):
        raise ValidationError(f"unknown clamp policy {clamp_policy!r}")
    observations = []
    rows = read_csv_rows(path)
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    percent = False
    expect = list(CSV_COLUMNS)
    if "completeness_pct" in header:
        percent = True
        expect[expect.index("completeness")] = "completeness_pct"
    if header != expect:
        raise ValidationError(
            f"{path}: bad header {header!r}; expected {expect!r}"
        )
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValidationError(
                f"{path}: row {row_no}: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
            )
        try:
            unit_id = row[0].strip()
            period = int(row[1])
            float(period)  # a year beyond float range overflows here, not in the design
            sex = row[2].strip()
            missing_completeness = row[3].strip() == "" and allow_missing_completeness
            completeness = 0.5 if missing_completeness else float(row[3])
            reg_cdr = float(row[4])
            pct65 = float(row[5])
            u5mr = float(row[6])
            c5q0 = float(row[7]) if row[7].strip() != "" else None
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: row {row_no}: {exc}") from None
        if not missing_completeness:
            if percent:
                completeness /= 100.0
            completeness = _clamp_completeness(completeness, clamp_policy, row_no)
        observations.append(
            Observation(unit_id, period, sex, completeness, reg_cdr, pct65, u5mr, c5q0)
        )
    if not observations:
        raise ValidationError(f"{path}: no data rows")
    return build_panel(observations)
