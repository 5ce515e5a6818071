"""Seeded random variate kernels for the Gibbs sweeps.

Every distribution the engine needs gets its own entry point so tests can
pin each one against an independent oracle. All draws flow through a
numpy Generator owned by exactly one chain; `RngStream` fixes the
(seed, stream_id) -> sequence mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Below this, a GIG coefficient is treated as zero and the closed-form
# Gamma / inverse-Gamma limit is used instead.
GIG_TINY = 1e-30

# Underflow floor so gamma draws with microscopic shapes stay positive in
# linear space; log-scale draws are exact.
GAMMA_FLOOR = 5e-324

MVN_JITTER_REL = 1e-10


@dataclass(frozen=True)
class RngStream:
    """One reproducible stream per chain: same (seed, stream_id), same draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _check_positive(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


def draw_gamma(rng, shape, rate, size=None, log=False):
    """Gamma(shape, rate) draws, density ~ x^(shape-1) exp(-rate x).

    Shapes below 1 use the boost-to-shape+1 power transform computed in
    log space, so shapes as small as 1e-10 neither NaN nor lose the
    log-scale information; with ``log=True`` the log of the draw is
    returned (always finite). Linear-scale draws are floored at the
    smallest positive float.
    """
    _check_positive("shape", shape)
    _check_positive("rate", rate)
    scalar = size is None and np.ndim(shape) == 0 and np.ndim(rate) == 0
    out_shape = np.broadcast_shapes(
        np.shape(shape), np.shape(rate), () if size is None else (size,))
    shape_a = np.broadcast_to(np.asarray(shape, dtype=np.float64), out_shape).ravel()
    rate_a = np.broadcast_to(np.asarray(rate, dtype=np.float64), out_shape).ravel()
    if scalar:
        shape_a, rate_a = np.atleast_1d(shape_a), np.atleast_1d(rate_a)
    out = np.empty(shape_a.shape)
    small = shape_a < 1.0
    if np.any(~small):
        out[~small] = np.log(rng.standard_gamma(shape_a[~small])) - np.log(rate_a[~small])
    if np.any(small):
        a = shape_a[small]
        g = rng.standard_gamma(a + 1.0, size=a.shape)
        # log(1 - U) is finite for U in [0, 1)
        logu = np.log1p(-rng.random(size=a.shape))
        out[small] = np.log(g) + logu / a - np.log(rate_a[small])
    out = out.reshape(out_shape) if not scalar else out
    if log:
        return float(out[0]) if scalar else out
    lin = np.maximum(np.exp(out), GAMMA_FLOOR)
    return float(lin[0]) if scalar else lin


def draw_normal(rng, mean, sd, size=None):
    """Normal(mean, sd^2); sd may be 0 (degenerate point mass at the mean)."""
    sd_a = np.asarray(sd, dtype=np.float64)
    if not np.all(np.isfinite(sd_a)) or np.any(sd_a < 0.0):
        raise ValidationError(f"sd must be finite and >= 0, got {sd!r}")
    out = np.asarray(mean, dtype=np.float64) + sd_a * rng.standard_normal(
        size if size is not None else np.broadcast_shapes(np.shape(mean), np.shape(sd)))
    if size is None and np.ndim(mean) == 0 and np.ndim(sd) == 0:
        return float(out)
    return out


def draw_mvn_from_precision(rng, b, P):
    """Draw from N(P^-1 b, P^-1) via one Cholesky factorization.

    On factorization failure, jitter 1e-10 * trace(P)/p is added to the
    diagonal and the factorization retried once.
    """
    b = np.asarray(b, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    p = b.shape[0]
    if P.shape != (p, p):
        raise ValidationError(f"precision matrix shape {P.shape} incompatible with b of length {p}")
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        jitter = MVN_JITTER_REL * np.trace(P) / p
        try:
            L = np.linalg.cholesky(P + jitter * np.eye(p))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"precision matrix not positive definite even after jitter {jitter:g}"
            ) from exc
    # mean solves P mu = b; draw = mu + L^-T z
    w = np.linalg.solve(L, b)
    mu = np.linalg.solve(L.T, w)
    z = rng.standard_normal(p)
    return mu + np.linalg.solve(L.T, z)


def _gig_psi(x, alpha, lam):
    return -alpha * (math.cosh(x) - 1.0) - lam * (math.exp(x) - x - 1.0)


def _gig_dpsi(x, alpha, lam):
    return -alpha * math.sinh(x) - lam * (math.exp(x) - 1.0)


def _gig_devroye(rng, lam, omega):
    """One draw from the two-parameter gig(lam >= 0, omega > 0),
    density ~ z^(lam-1) exp(-omega (z + 1/z) / 2), via Devroye's
    log-concave rejection scheme."""
    alpha = math.sqrt(omega * omega + lam * lam) - lam

    x = -_gig_psi(1.0, alpha, lam)
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = 1.0 if alpha == 0.0 and lam == 0.0 else math.sqrt(2.0 / (alpha + lam))
    else:
        t = 1.0 if alpha == 0.0 and lam == 0.0 else math.log(4.0 / (alpha + 2.0 * lam))

    x = -_gig_psi(-1.0, alpha, lam)
    if 0.5 <= x <= 2.0:
        s = 1.0
    elif x > 2.0:
        s = 1.0 if alpha == 0.0 and lam == 0.0 else math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam))
    else:
        if alpha == 0.0 and lam == 0.0:
            s = 1.0
        elif alpha == 0.0:
            s = 1.0 / lam
        else:
            cand = math.log(1.0 + 1.0 / alpha + math.sqrt(1.0 / alpha ** 2 + 2.0 / alpha))
            s = cand if lam == 0.0 else min(1.0 / lam, cand)

    eta = -_gig_psi(t, alpha, lam)
    zeta = -_gig_dpsi(t, alpha, lam)
    theta = -_gig_psi(-s, alpha, lam)
    xi = _gig_dpsi(-s, alpha, lam)
    pp = 1.0 / xi
    r = 1.0 / zeta
    td = t - r * eta
    sd = s - pp * theta
    q = td + sd

    while True:
        u = rng.random()
        v = rng.random()
        w = rng.random()
        uc = u * (pp + q + r)
        if uc < q:
            x = -sd + q * v
        elif uc < q + r:
            x = td - r * math.log(v)
        else:
            x = -sd + pp * math.log(v)
        if -sd <= x <= td:
            bound = 1.0
        elif x > td:
            bound = math.exp(-eta - zeta * (x - t))
        else:
            bound = math.exp(-theta + xi * (x + s))
        if w * bound <= math.exp(_gig_psi(x, alpha, lam)):
            break
    return math.exp(x) * (lam / omega + math.sqrt(1.0 + (lam / omega) ** 2))


def draw_gig(rng, p, a, b, size=None):
    """GIG(p, a, b) draws, density ~ x^(p-1) exp(-(a x + b / x) / 2).

    Limits: b below GIG_TINY with p > 0 falls back to Gamma(p, a/2);
    a below GIG_TINY with p < 0 falls back to the inverse-Gamma limit
    1 / Gamma(-p, b/2). |p| = 1/2 uses the exact inverse-Gaussian
    representation (vectorized); other p use a scalar rejection sampler.
    """
    if not (np.isfinite(p) and np.isfinite(a) and np.isfinite(b)):
        raise ValidationError(f"GIG parameters must be finite, got p={p}, a={a}, b={b}")
    if a < 0.0 or b < 0.0 or (a <= 0.0 and b <= 0.0):
        raise ValidationError(f"GIG requires a, b > 0 (one may underflow), got a={a}, b={b}")
    scalar = size is None
    n = 1 if scalar else int(size)

    if b < GIG_TINY:
        if p > 0:
            out = draw_gamma(rng, p, a / 2.0, size=n)
        else:
            raise ValidationError(f"GIG with b ~ 0 requires p > 0, got p={p}")
    elif a < GIG_TINY:
        if p < 0:
            out = 1.0 / np.asarray(draw_gamma(rng, -p, b / 2.0, size=n))
        else:
            raise ValidationError(f"GIG with a ~ 0 requires p < 0, got p={p}")
    elif p == -0.5:
        out = rng.wald(math.sqrt(b / a), b, size=n)
    elif p == 0.5:
        out = 1.0 / rng.wald(math.sqrt(a / b), a, size=n)
    else:
        lam, omega, swap = p, math.sqrt(a * b), False
        if lam < 0:
            lam, swap = -lam, True
        scale = math.sqrt(b / a)
        vals = np.empty(n)
        for i in range(n):
            z = _gig_devroye(rng, lam, omega)
            if swap:
                z = 1.0 / z
            vals[i] = scale * z
        out = vals
    out = np.asarray(out, dtype=np.float64)
    return float(out[0]) if scalar else out


def draw_categorical(rng, weights):
    """Index k with probability weights[k] / sum(weights)."""
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or w.sum() <= 0.0:
        raise ValidationError(f"weights must be finite, >= 0, with positive sum; got {weights!r}")
    cdf = np.cumsum(w)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def draw_categorical_log(rng, log_weights, axis=-1):
    """Categorical draw from unnormalized log weights; vectorized over rows.

    Log weights are shifted by their row maximum before exponentiation so
    extreme t-densities cannot underflow every entry at once. One uniform
    per row; the index is the count of CDF entries <= u, which on the
    nondecreasing CDF is searchsorted(cdf, u, side="right").
    """
    lw = np.moveaxis(np.asarray(log_weights, dtype=np.float64), axis, -1)
    top = lw.max(axis=-1, keepdims=True)  # NaN if the row holds a NaN
    if not np.all(np.isfinite(top)):
        raise ValidationError("log weights must be < inf and not NaN, with a finite "
                              "entry in every row")
    cdf = np.cumsum(np.exp(lw - top), axis=-1)
    u = rng.random(size=cdf.shape[:-1]) * cdf[..., -1]
    idx = np.count_nonzero(cdf <= u[..., None], axis=-1)
    return int(idx) if lw.ndim == 1 else idx
