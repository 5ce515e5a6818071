"""Fit-quality metrics on the completeness (fraction) scale.

MAE / RMSE over observations, the fixed-effect R-square, the
completeness-band stratification, and the subnational unit-level report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Band edges in fraction units; half-open below, closed at 1.0, so exact
# 0.30 / 0.60 / 0.80 / 0.90 land in the upper band.
BAND_EDGES = (0.0, 0.30, 0.60, 0.80, 0.90, 1.0)
BAND_LABELS = ("(0,30%)", "[30%,60%)", "[60%,80%)", "[80%,90%)", "[90%,100%]")

SUBNATIONAL_THRESHOLD = 0.10


def _paired(predicted, observed, min_len=1):
    pred = np.asarray(predicted, dtype=np.float64)
    obs = np.asarray(observed, dtype=np.float64)
    if pred.shape != obs.shape or pred.ndim != 1:
        raise ValidationError(
            f"predicted and observed must be equal-length vectors, got {pred.shape} vs {obs.shape}")
    if pred.size < min_len:
        raise ValidationError(f"need at least {min_len} observations, got {pred.size}")
    return pred, obs


def mae_rmse(predicted, observed):
    """(MAE, RMSE) = (mean |error|, sqrt(mean squared error))."""
    pred, obs = _paired(predicted, observed)
    err = pred - obs
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err * err)))


def r_square(observed, fixed_only_pred):
    """1 - SS_res / SS_tot against the fixed-effect-only predictions."""
    obs, pred = _paired(observed, fixed_only_pred, min_len=2)
    cbar = obs.mean()
    ss_tot = float(np.sum((obs - cbar) ** 2))
    if ss_tot == 0.0:
        raise ValidationError("observed vector has zero variance; R-square undefined")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def band_of(c: float) -> int:
    """Band index for an observed completeness in (0, 1]."""
    if not (0.0 < c <= 1.0):
        raise ValidationError(f"observed completeness must lie in (0,1], got {c}")
    return int(np.searchsorted(BAND_EDGES[1:-1], c, side="right"))


def stratified(predicted, observed):
    """Per-band (MAE_k, RMSE_k, n_k) keyed by band label; every
    observation falls in exactly one band."""
    pred, obs = _paired(predicted, observed)
    idx = np.searchsorted(BAND_EDGES[1:-1], obs, side="right")
    out = {}
    for k, label in enumerate(BAND_LABELS):
        sel = idx == k
        n_k = int(sel.sum())
        if n_k == 0:
            out[label] = (float("nan"), float("nan"), 0)
        else:
            m, r = mae_rmse(pred[sel], obs[sel])
            out[label] = (m, r, n_k)
    return out


def subnational_report(predicted, observed, threshold: float = SUBNATIONAL_THRESHOLD):
    """Unit-level (MAE, MSE, count of units with |error| strictly below
    the threshold); MSE is squared, not rooted."""
    pred, obs = _paired(predicted, observed)
    err = pred - obs
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err * err))
    count = int(np.sum(np.abs(err) < threshold))
    return mae, mse, count


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    r_square: float
    stratified: dict          # label -> (mae, rmse, n)
    n_small_dev: int
    mse_units: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "mae": self.mae,
            "rmse": self.rmse,
            "r_square": self.r_square,
            "stratified": {k: {"mae": v[0], "rmse": v[1], "n": v[2]}
                           for k, v in self.stratified.items()},
            "n_small_dev": self.n_small_dev,
            "mse_units": self.mse_units,
        }


def metric_report(predicted, observed, fixed_only_pred=None) -> MetricReport:
    mae, rmse = mae_rmse(predicted, observed)
    fixed = predicted if fixed_only_pred is None else fixed_only_pred
    r2 = r_square(observed, fixed)
    strat = stratified(predicted, observed)
    mae_u, mse_u, count = subnational_report(predicted, observed)
    return MetricReport(mae=mae, rmse=rmse, r_square=r2, stratified=strat,
                        n_small_dev=count, mse_units=mse_u)
