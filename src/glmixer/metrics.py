"""Fit-quality metrics on the completeness (fraction) scale.

MAE / RMSE over observations, the fixed-effect R-square, the
completeness-band stratification, and the subnational unit-level report.
Plain Python over at most ~10^4 rows: sums are `math.fsum`, so a
`metrics` process loads no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

from .errors import ValidationError

# Band edges in fraction units; half-open below, closed at 1.0, so exact
# 0.30 / 0.60 / 0.80 / 0.90 land in the upper band.
BAND_EDGES = (0.0, 0.30, 0.60, 0.80, 0.90, 1.0)
BAND_LABELS = ("(0,30%)", "[30%,60%)", "[60%,80%)", "[80%,90%)", "[90%,100%]")

SUBNATIONAL_THRESHOLD = 0.10


def _vector(values, name) -> list:
    """`values` as a list of floats; anything but a flat sequence of
    numbers is a ValidationError."""
    if isinstance(values, (str, bytes)) or getattr(values, "ndim", 1) != 1:
        raise ValidationError(f"{name} must be a vector of numbers")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a vector of numbers") from None


def _paired(predicted, observed, min_len=1):
    pred = _vector(predicted, "predicted")
    obs = _vector(observed, "observed")
    if len(pred) != len(obs):
        raise ValidationError(
            f"predicted and observed must be equal-length vectors, got {len(pred)} vs {len(obs)}")
    if len(pred) < min_len:
        raise ValidationError(f"need at least {min_len} observations, got {len(pred)}")
    return pred, obs


def _sum_sq(values) -> float:
    return math.fsum(v * v for v in values)


def _mae_rmse(err) -> tuple:
    n = len(err)
    return math.fsum(map(abs, err)) / n, math.sqrt(_sum_sq(err) / n)


def mae_rmse(predicted, observed):
    """(MAE, RMSE) = (mean |error|, sqrt(mean squared error))."""
    pred, obs = _paired(predicted, observed)
    return _mae_rmse([p - o for p, o in zip(pred, obs)])


def r_square(observed, fixed_only_pred):
    """1 - SS_res / SS_tot against the fixed-effect-only predictions."""
    obs, pred = _paired(observed, fixed_only_pred, min_len=2)
    cbar = math.fsum(obs) / len(obs)
    ss_tot = _sum_sq(o - cbar for o in obs)
    # equal values decide "constant", not ss_tot alone: the mean of equal
    # values can be off by an ulp, which leaves ss_tot tiny but positive
    if min(obs) == max(obs) or ss_tot == 0.0:
        raise ValidationError("observed vector has zero variance; R-square undefined")
    ss_res = _sum_sq(o - p for o, p in zip(obs, pred))
    return 1.0 - ss_res / ss_tot


def band_of(c: float) -> int:
    """Band index for an observed completeness in (0, 1]."""
    if not (0.0 < c <= 1.0):
        raise ValidationError(f"observed completeness must lie in (0,1], got {c}")
    return bisect_right(BAND_EDGES[1:-1], c)


def stratified(predicted, observed):
    """Per-band (MAE_k, RMSE_k, n_k) keyed by band label; every
    observation falls in exactly one band."""
    pred, obs = _paired(predicted, observed)
    inner_edges = BAND_EDGES[1:-1]
    errors = [[] for _ in BAND_LABELS]
    for p, o in zip(pred, obs):
        errors[bisect_right(inner_edges, o)].append(p - o)
    return {label: (*_mae_rmse(err), len(err)) if err else (math.nan, math.nan, 0)
            for label, err in zip(BAND_LABELS, errors)}


def subnational_report(predicted, observed, threshold: float = SUBNATIONAL_THRESHOLD):
    """Unit-level (MAE, MSE, count of units with |error| strictly below
    the threshold); MSE is squared, not rooted."""
    pred, obs = _paired(predicted, observed)
    err = [p - o for p, o in zip(pred, obs)]
    mae = math.fsum(map(abs, err)) / len(err)
    mse = _sum_sq(err) / len(err)
    count = sum(1 for e in err if abs(e) < threshold)
    return mae, mse, count


class MetricReport(namedtuple("MetricReport",
                              "mae rmse r_square stratified n_small_dev mse_units")):
    """The report of `metric_report`; `stratified` maps band label -> (mae, rmse, n)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "stratified": {k: {"mae": v[0], "rmse": v[1], "n": v[2]}
                                                 for k, v in self.stratified.items()}}


def metric_report(predicted, observed, fixed_only_pred=None) -> MetricReport:
    mae, rmse = mae_rmse(predicted, observed)
    fixed = predicted if fixed_only_pred is None else fixed_only_pred
    r2 = r_square(observed, fixed)
    strat = stratified(predicted, observed)
    mae_u, mse_u, count = subnational_report(predicted, observed)
    return MetricReport(mae=mae, rmse=rmse, r_square=r2, stratified=strat,
                        n_small_dev=count, mse_units=mse_u)
