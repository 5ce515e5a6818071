"""Posterior predictive completeness for new units, and the inverse logit
and the empirical quantiles it shares with the summaries.

Predictions need only the beta and phi draws and the design rows; they
are evaluated over blocks of whole units of bounded size, and each unit
gets the bits of predicting it alone. Every quantile comes from one sort
of the draws per block (`_linear_quantiles`) and has the bits of numpy's
inclusive linear rule, `numpy.quantile(..., method="linear")`, so
credible intervals are bit-reproducible without numpy's selection, which
is slower and loads `numpy.ma`. `predict` loads this module without the
sampler or the summaries.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple

import numpy as np

from .errors import SpecMismatchError, ValidationError
from .kernels import RngStream, draw_local_prior
from .records import nu_log_prior

PREDICT_STREAM_BASE = 10 ** 6
# Draws x design rows evaluated at once by predict_new_unit: about 128 KB
# per work array, so its memory stays flat in the number of units.
PREDICT_BLOCK_VALUES = 1 << 14


def _inv_logit_arr(theta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-theta)) for theta >= 0 and e / (1 + e), e = exp(theta),
    otherwise, so no exp overflows; NaN stays NaN, with its sign."""
    e = np.exp(np.minimum(theta, -theta))  # exp(-|theta|); minimum keeps a NaN's sign
    d = 1.0 + e
    return np.divide(1.0, d, out=e / d, where=theta >= 0)


def _linear_quantiles(x: np.ndarray, qs) -> np.ndarray:
    """(len(qs), ...) quantiles over axis 0 of the draws x, with the bits
    of `numpy.quantile(x, qs, axis=0, method="linear")`, from one sort of
    a copy in which each column's draws are contiguous: virtual index
    (n - 1) q, neighbours clipped to the last draw, numpy's two-sided
    lerp, and NaN wherever a column holds a NaN (it sorts last). Only
    -0.0 and 0.0 among tied draws may come out in the other sign, since a
    sort and numpy's selection may order them apart."""
    s = x.T.copy()  # always a copy: x keeps its order for the means
    s.sort()
    s = s.T
    n = s.shape[0]
    out = np.empty((len(qs), *s.shape[1:]))
    for row, q in zip(out, qs):
        v = (n - 1) * q
        i = math.floor(v) if v < n - 1 else -1  # numpy's gamma counts from index -1
        a, b = s[i], s[i + 1 if i >= 0 else -1]
        g = v - i
        diff = b - a
        if g >= 0.5:
            np.subtract(b, diff * (1 - g), out=row)
        else:
            np.add(a, diff * g, out=row)
    nan = np.isnan(s[-1])
    if nan.any():
        np.copyto(out, s[-1], where=nan)
    return out


class PredictionResult(namedtuple("PredictionResult", "mode mean q2_5 q97_5")):
    """Posterior predictive completeness per design row: the mode, and the
    (n,) mean and 2.5 % and 97.5 % quantiles."""

    __slots__ = ()


def _new_unit_effects(trace) -> np.ndarray:
    """One new-unit effect u* ~ N(0, 1/(omega* phi)) per kept draw, with
    omega* (and nu* under Student-t) from the local prior, drawn from the
    chain's prediction stream."""
    rng = RngStream(trace.seed, PREDICT_STREAM_BASE + trace.chain_id).generator()
    priors, k = trace.priors, trace.kept
    nu = None
    if priors.reffect_prior == "student-t":  # nu* from its discrete prior
        logw = nu_log_prior(priors)
        w = np.exp(logw - logw.max())
        nu = np.asarray(priors.nu_support, dtype=np.float64)[
            rng.choice(len(w), size=k, p=w / w.sum())]
    omega = draw_local_prior(rng, priors.reffect_prior, k, nu=nu)
    return rng.standard_normal(k) / np.sqrt(omega * trace.draws["phi"])


def predict_new_unit(traces, rows: np.ndarray, sizes,
                     mode: str = "integrate_reffect") -> PredictionResult:
    """Posterior predictive completeness for the design rows of new units,
    `sizes[i]` consecutive rows per unit; a single new unit is one group.

    fixed_only uses x'beta per draw; integrate_reffect adds a new-unit
    random effect u* per posterior draw, shared across rows and units.
    Each chain draws its u* once, from its prediction stream (stream_id
    = 1e6 + chain_id) so fits stay reproducible.

    The rows are evaluated in blocks of whole units of at most
    PREDICT_BLOCK_VALUES draws x rows (or one unit, if larger). Each unit
    keeps its own x'beta product and its own mean over the draws, since
    the bits of both depend on the width of the array; the inverse logit
    runs once per block, and the block's draws are sorted once, column
    by column, for the 2.5 % and 97.5 % quantiles (`_linear_quantiles`).
    So each unit gets the bits of predicting it alone.
    """
    if mode not in ("fixed_only", "integrate_reffect"):
        raise ValidationError(f"unknown prediction mode {mode!r}")
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    p = traces[0].draws["beta"].shape[1]
    if rows.shape[1] != p:
        raise SpecMismatchError(f"design rows have {rows.shape[1]} columns, fit expects {p}")
    ends = np.cumsum(sizes)
    if len(ends) == 0 or np.any(np.asarray(sizes) < 1) or ends[-1] != rows.shape[0]:
        raise ValidationError(f"unit sizes do not partition the {rows.shape[0]} design rows")
    shifts = [_new_unit_effects(t)[:, None] if mode == "integrate_reffect" else 0.0
              for t in traces]
    k = sum(t.kept for t in traces)
    ends = ends.tolist()
    starts = [0, *ends[:-1]]
    bands = np.empty((3, ends[-1]))
    first = 0
    while first < len(ends):
        lo = starts[first]
        last = max(first + 1, bisect.bisect_right(ends, lo + PREDICT_BLOCK_VALUES // k))
        hi = ends[last - 1]
        units = list(zip(starts[first:last], ends[first:last]))
        theta = np.concatenate([                                   # (K, hi - lo)
            np.concatenate([t.draws["beta"] @ rows[a:b].T for a, b in units], axis=1) + shift
            for t, shift in zip(traces, shifts)])
        delta = _inv_logit_arr(theta)
        bands[1:, lo:hi] = _linear_quantiles(delta, (0.025, 0.975))
        for a, b in units:
            bands[0, a:b] = delta[:, a - lo:b - lo].mean(axis=0)
        first = last
    return PredictionResult(mode, *bands)
