"""Seeded random variate kernels for the Gibbs sweeps and forward draws.

Every distribution the engine needs gets its own entry point so tests can
pin each one against an independent oracle; the sampler, `simulate` and
`predict` draw their Gamma, GIG and local-prior variates only here, so
those tests pin the code that runs. The only GIG the program draws is
Laplace's GIG(-1/2, phi u_i^2, 2), so `draw_gig` draws only GIG(-1/2).
All draws flow through a numpy Generator owned by exactly one chain;
`RngStream` fixes the (seed, stream_id) -> sequence mapping.

For chains in lockstep, `draw_standard` (a sweep's normals and rate-free
Gammas) and `draw_categorical_log` (the Student-t nu draw) take all chains
in one call; inside, each chain still draws from its own Generator,
including the nu uniforms. Laplace's Wald draws (`draw_gig`) and
Student-t's omega Gammas (`draw_gamma` with a Generator) are called chain
by chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Below this, a GIG(-1/2) coefficient a_i is treated as zero and the
# closed-form inverse-Gamma limit is used instead; b must reach it.
GIG_TINY = 1e-30

MVN_JITTER_REL = 1e-10


@dataclass(frozen=True)
class RngStream:
    """One reproducible stream per chain: same (seed, stream_id), same draws."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _finite_positive(x, allow_zero=False) -> bool:
    """Whether every entry of x is finite and > 0 (>= 0 with `allow_zero`).
    One comparison for a float, one min and one max reduction for an
    array: the sampler checks every draw, so this stays cheap."""
    if isinstance(x, (float, int)):
        lo = hi = x
    else:
        lo, hi = np.minimum.reduce(x, axis=None), np.maximum.reduce(x, axis=None)
    return (lo >= 0.0 if allow_zero else lo > 0.0) and hi < math.inf  # False on NaN


def draw_gamma(rng, shape, rate, size=None, z=None):
    """Gamma(shape, rate) draws, density ~ x^(shape-1) exp(-rate x), as
    ``rng.standard_gamma(shape, size) / rate``, or as z / rate for standard
    Gamma(shape) draws z already made (see `draw_standard`).

    Shape and rate broadcast; a float comes back for scalar parameters
    without `size`. A non-positive or non-finite shape or rate raises
    ValidationError. The check is on the draws: every such parameter
    gives a draw that is 0, negative, infinite or NaN, or makes numpy
    raise, while valid shapes (>= 0.5 in this package) do not underflow.
    The error names the shape and rate of the first bad row (the lowest
    chain, for draws with a leading chain axis) and has that row as `row`.
    """
    try:
        if z is None:
            try:
                z = rng.standard_gamma(shape, size)
            except ValueError:  # numpy on a shape < 0
                z = np.full(np.broadcast_shapes(np.shape(shape), np.shape(rate)), math.nan)
            # a caller's rate may be 0, which the check below reports; a
            # sweep's rates (its z) are > 0 by construction, so only this
            # path pays for the error state
            with np.errstate(divide="ignore", invalid="ignore"):
                out = z / rate
        else:
            out = z / rate
    except ZeroDivisionError:  # a float rate of 0
        out = math.nan
    if not _finite_positive(out):
        rows = np.atleast_1d(out)
        ok = ((rows > 0.0) & (rows < math.inf)).reshape(len(rows), -1).all(axis=1)
        row = int(np.argmin(ok))
        shape, rate = (np.broadcast_to(x, rows.shape)[row] for x in (shape, rate))
        err = ValidationError(
            f"Gamma shape and rate must be finite and > 0, got shape={shape!r}, rate={rate!r}")
        err.row = row
        raise err
    return out


def draw_standard(rngs, n_normal, gamma_runs):
    """The rate-free variates of C chains, on each chain's Generator in
    turn: row c holds rngs[c]'s `n_normal` N(0, 1) draws, one call, and
    its standard Gamma draws, one call per run (shape, slice) of
    `gamma_runs`, with a float shape for the whole slice or one shape per
    entry. A Generator yields the same doubles in the same order in one
    call as in several, so a sweep draws them up front and scales them
    afterwards (`draw_gamma`'s z). A float shape avoids numpy's
    array-shape path, which adds some microseconds per call at any length."""
    zn = np.empty((len(rngs), n_normal))
    zg = np.empty((len(rngs), gamma_runs[-1][1].stop if gamma_runs else 0))
    for c, g in enumerate(rngs):
        g.standard_normal(out=zn[c])
        row = zg[c]
        for shape, where in gamma_runs:
            g.standard_gamma(shape, out=row[where])
    return zn, zg


def matvec(A, x):
    """A x for x (k,) or for each row of x (C, k), as stacked (k, 1)
    matmuls: each row gets the bits of the one-chain ``A @ x_row``, which
    an einsum or a (C, k) @ (k, n) product does not promise."""
    return A @ x if x.ndim == 1 else np.matmul(A, x[..., None])[..., 0]


def vecmat(x, A):
    """x A for x (k,) or for each row of x (C, k); bitwise ``x_row @ A``
    (see `matvec`)."""
    return x @ A if x.ndim == 1 else np.matmul(x[..., None, :], A)[..., 0, :]


def draw_mvn_whitened(rng, b, W, z=None):
    """W'(W b + z) for standard normal z (rng's unless given): for any W with
    W'W = P^-1 a draw from N(P^-1 b, P^-1), at the cost of two mat-vecs;
    b, W and z may carry a leading chain axis. A non-finite W (from a
    precision that is not positive definite, or NaN) raises NumericalError;
    its `row` is the lowest such chain."""
    if not np.isfinite(W).all():
        err = NumericalError("whitening matrix is not finite: the precision "
                             "matrix is not positive definite")
        err.row = int(np.argmin(np.isfinite(W).all(axis=(-2, -1)))) if W.ndim > 2 else 0
        raise err
    return vecmat(matvec(W, b) + (rng.standard_normal(W.shape[-1]) if z is None else z), W)


def whitening_from_precision(P, row=0):
    """W = L^-1 from the Cholesky factorization P = L L', so W'W = P^-1; P
    may carry a leading chain axis. A matrix that fails to factor gets
    jitter 1e-10 * trace(P)/p on its diagonal and one retry; a second
    failure raises NumericalError with that chain as its `row`."""
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        if P.ndim > 2:
            return np.stack([whitening_from_precision(Pc, c) for c, Pc in enumerate(P)])
        jitter = MVN_JITTER_REL * np.trace(P) / P.shape[0]
        try:
            L = np.linalg.cholesky(P + jitter * np.eye(P.shape[0]))
        except np.linalg.LinAlgError as exc:
            err = NumericalError(
                f"precision matrix not positive definite even after jitter {jitter:g}")
            err.row = row
            raise err from exc
    return np.linalg.inv(L)


def draw_mvn_from_precision(rng, b, P):
    """Draw from N(P^-1 b, P^-1) as `draw_mvn_whitened` with the W of
    `whitening_from_precision`."""
    b = np.asarray(b, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    p = b.shape[0]
    if P.shape != (p, p):
        raise ValidationError(f"precision matrix shape {P.shape} incompatible with b of length {p}")
    return draw_mvn_whitened(rng, b, whitening_from_precision(P))


def draw_gig(rng, a, b):
    """GIG(-1/2, a_i, b) draws, density ~ x^(-3/2) exp(-(a_i x + b / x) / 2),
    one per entry of the array `a`: the Laplace omega conditional. First
    the inverse-Gaussian (Wald) draws of the entries a_i >= GIG_TINY, then
    the a -> 0 limit 1 / Gamma(1/2, b/2) for the rest. A negative or
    non-finite a_i, or a b that is not finite and >= GIG_TINY, raises
    ValidationError.
    """
    if not (_finite_positive(a, allow_zero=True) and GIG_TINY <= b < math.inf):
        raise ValidationError(f"GIG(-1/2) needs finite a >= 0 and finite b >= {GIG_TINY:g}, "
                              f"got a={a!r}, b={b}")
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    tiny = a < GIG_TINY
    if not tiny.all():
        out[~tiny] = rng.wald(np.sqrt(b / a[~tiny]), b)
    if tiny.any():
        out[tiny] = 1.0 / draw_gamma(rng, 0.5, b / 2.0, size=int(tiny.sum()))
    return out


def draw_categorical_log(rng, log_weights):
    """Categorical draw from unnormalized log weights along the last axis;
    vectorized over rows.

    Log weights are shifted by their row maximum before exponentiation so
    extreme t-densities cannot underflow every entry at once. The CDF is
    built support-major, by sequential adds along the support, which give
    the bits of `np.cumsum`. One uniform per row; the index is the count
    of CDF entries <= u, which on the nondecreasing CDF is
    searchsorted(cdf, u, side="right").

    rng may also be a list of one Generator per chain, for log weights
    with a leading chain axis: each chain's uniforms are one
    ``random(size=...)`` call on its own Generator, in chain order, so a
    chain gets the bits of its one-chain call. A row without a finite
    maximum raises ValidationError whose `row` is the lowest such chain.

    A float64 array `log_weights` is overwritten: the CDF is built in its
    memory (pass a copy to keep the weights). At m=300 and four chains the
    weights take 288 KB; a second array that size, allocated and freed
    every sweep, makes the allocator hand pages back to the system and
    fault them in again each time.
    """
    lw = np.moveaxis(np.asarray(log_weights, dtype=np.float64), -1, 0)
    top = lw.max(axis=0)  # NaN if the row holds a NaN
    finite = np.isfinite(top)
    chains = isinstance(rng, (list, tuple))
    if not finite.all():
        err = ValidationError("log weights must be < inf and not NaN, with a finite "
                              "entry in every row")
        err.row = int(np.argmin(finite.reshape(len(finite), -1).all(axis=1))) if chains else 0
        raise err
    cdf = np.subtract(lw, top, out=lw)
    np.exp(cdf, out=cdf)
    rows = cdf if cdf.ndim > 1 else cdf[:, None]
    for prev, cur in zip(rows, rows[1:]):
        np.add(prev, cur, out=cur)
    if chains:
        u = np.stack([g.random(size=cdf.shape[2:]) for g in rng])
    else:
        u = rng.random(size=cdf.shape[1:])
    idx = np.count_nonzero(cdf <= u * cdf[-1], axis=0)
    return int(idx) if lw.ndim == 1 else idx


def draw_local_prior(rng, family, size, nu=None):
    """`size` local random-effect precisions omega from the prior of
    `family`: horseshoe Beta-prime(1/2, 1/2), laplace 1 / Exp(1),
    student-t Gamma(nu/2, nu/2) for the given nu (a scalar, or one value
    per draw), and ones under the common gamma prior."""
    if family == "gamma":
        return np.ones(size)
    if family == "horseshoe":
        x = rng.beta(0.5, 0.5, size=size)
        return x / (1.0 - x)
    if family == "laplace":
        return 1.0 / rng.exponential(1.0, size=size)
    if family == "student-t":
        return draw_gamma(rng, nu / 2.0, nu / 2.0, size=size)
    raise ValidationError(f"unknown random-effect family {family!r}")
