"""Seeded random variate kernels for the Gibbs sweeps and forward draws.

Every distribution the engine needs gets its own entry point so tests can
pin each one against an independent oracle; the sampler, `simulate` and
`predict` draw their Gamma, GIG and local-prior variates only here, so
those tests pin the code that runs. The only GIG the program draws is
Laplace's GIG(-1/2, phi u_i^2, 2), so `draw_gig` draws only GIG(-1/2).
All draws flow through a numpy Generator owned by exactly one chain;
`RngStream` fixes the (seed, stream_id) -> sequence mapping.

For chains in lockstep, `draw_standard` (the normals and rate-free Gammas
of one sweep, or of a block of sweeps) and `draw_categorical_log` (the
Student-t nu draw) take all chains in one call, and `standard_gamma_rows`
draws Student-t's omega Gammas into one buffer; inside, each chain still
draws from its own Generator, including the nu uniforms. Laplace's Wald
draws (`draw_gig`) are called chain by chain. A bare Generator is the
one-chain list [rng] (`generators`). `draw_mvn_from_precision`,
the beta draw under Half-Cauchy errors, takes a stack of precision
matrices and draws P^-1 (b + L z) from one Cholesky factor and one solve.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import NumericalError, ValidationError

# Below this, a GIG(-1/2) coefficient a_i is treated as zero and the
# closed-form inverse-Gamma limit is used instead; b must reach it.
GIG_TINY = 1e-30

MVN_JITTER_REL = 1e-10


class RngStream(namedtuple("RngStream", "seed stream_id", defaults=(0,))):
    """One reproducible stream per chain: same (seed, stream_id), same draws."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        return self

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def allocate(shape, dtype=np.float64) -> np.ndarray:
    """np.empty(shape, dtype), or ValidationError when numpy refuses the
    size: more bytes than it can allocate, or a count beyond its index
    range."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot hold an array of shape {shape}: "
                              f"{type(exc).__name__}: {exc}") from None


def _finite_positive(x, allow_zero=False) -> bool:
    """Whether every entry of x is finite and > 0 (>= 0 with `allow_zero`).
    One comparison for a float, one min and one max reduction for an
    array: the sampler checks every draw, so this stays cheap."""
    if isinstance(x, (float, int)):
        lo = hi = x
    else:
        lo, hi = np.minimum.reduce(x, axis=None), np.maximum.reduce(x, axis=None)
    return (lo >= 0.0 if allow_zero else lo > 0.0) and hi < math.inf  # False on NaN


def draw_gamma(rng, shape, rate, size=None):
    """Gamma(shape, rate) draws, density ~ x^(shape-1) exp(-rate x), as
    ``rng.standard_gamma(shape, size) / rate``. A sweep scales the standard
    draws of `draw_standard` by their rates itself and checks the new state
    once at its end.

    Shape and rate broadcast; a float comes back for scalar parameters
    without `size`. A non-positive or non-finite shape or rate raises
    ValidationError. The check is on the draws: every such parameter
    gives a draw that is 0, negative, infinite or NaN, or makes numpy
    raise, while valid shapes (>= 0.5 in this package) do not underflow.
    The error names the shape and rate of the first bad row and has that
    row as `row`.
    """
    try:
        try:
            z = rng.standard_gamma(shape, size)
        except ValueError:  # numpy on a shape < 0
            z = np.full(np.broadcast_shapes(np.shape(shape), np.shape(rate)), math.nan)
        # a rate of 0 is reported by the check below, not as a warning
        with np.errstate(divide="ignore", invalid="ignore"):
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


def draw_standard(rngs, n_normal, gamma_runs, sweeps=1):
    """The rate-free variates of `sweeps` sweeps of C chains, on each
    chain's Generator in turn: one call of `sweeps` x `n_normal` N(0, 1)
    draws, then one standard Gamma call per run (shape, count) of
    `gamma_runs`, in run order, of `sweeps` x `count` draws with a float
    shape for the whole run or one shape per entry. Returns the normals as
    (C, sweeps, n_normal) and the Gammas as one (C, sweeps, count) array
    per run: numpy fills only contiguous output, so a block is laid out
    run by run, and each sweep reads its rows.

    A Generator yields the same doubles in the same order in one call as
    in several, so with sweeps=1 these are the doubles the steps of one
    sweep would draw in turn, and a sweep draws them up front and scales
    them afterwards. Drawing a block of sweeps at once moves the later
    sweeps' draws ahead of the per-sweep draws (nu uniforms, omega Gammas,
    Wald draws) of the earlier ones: other bits, but the same
    distribution, since every double is still used once. A float shape
    avoids numpy's array-shape path, which adds some microseconds per
    call at any length."""
    zn = np.empty((len(rngs), sweeps, n_normal))
    zg = tuple(np.empty((len(rngs), sweeps, count)) for _, count in gamma_runs)
    for c, g in enumerate(rngs):
        g.standard_normal(out=zn[c])
        for (shape, _), z in zip(gamma_runs, zg):
            g.standard_gamma(shape, out=z[c])
    return zn, zg


def generators(rng) -> list:
    """One Generator per chain: a bare Generator is the one-chain list [rng]."""
    return [rng] if isinstance(rng, np.random.Generator) else rng


def standard_gamma_rows(rng, shape):
    """Standard Gamma(shape) draws with one shape per entry, for one
    Generator per chain (`generators`) and shapes (C, k): row c from
    rngs[c] in one call, all into one (C, k) buffer. Each row has the
    bits of ``rngs[c].standard_gamma(shape[c])``."""
    out = np.empty(np.shape(shape))
    for g, s, row in zip(generators(rng), shape, out, strict=True):
        g.standard_gamma(s, out=row)
    return out


def matvec(A, x):
    """A x for each row of x (C, k), A (n, k) or one (n, k) per chain, as
    stacked (k, 1) matmuls: row c gets the bits of the one-chain call on
    row c, which an einsum or a (C, k) @ (k, n) product does not promise."""
    return np.matmul(A, x[..., None])[..., 0]


def vecmat(x, A):
    """x A for each row of x (C, k), as stacked (1, k) matmuls (see `matvec`)."""
    return np.matmul(x[..., None, :], A)[..., 0, :]


def draw_mvn_whitened(rng, b, W, z=None):
    """W'(W b + z) for standard normal z (rng's unless given): for any W with
    W'W = P^-1 a draw from N(P^-1 b, P^-1), at the cost of two mat-vecs;
    b, W and z may carry a leading chain axis. A non-finite W (from a
    precision that is not positive definite, or NaN) raises NumericalError;
    its `row` is the lowest such chain."""
    if not np.isfinite(W).all():
        err = NumericalError("whitening matrix is not finite: the precision "
                             "matrix is not positive definite")
        err.row = int(np.argmin(np.isfinite(W).all(axis=(-2, -1))))
        raise err
    return vecmat(matvec(W, b) + (rng.standard_normal(W.shape[-1]) if z is None else z), W)


def _cholesky(P):
    """The lower Cholesky factor L of each precision matrix of P, and the
    matrices factored: a matrix that fails to factor gets jitter
    1e-10 * trace(P_c)/p on its diagonal and one retry. A second failure
    raises NumericalError whose `row` is that chain (the lowest such)."""
    try:
        return np.linalg.cholesky(P), P
    except np.linalg.LinAlgError:
        pass
    stack = P.reshape((-1,) + P.shape[-2:]).copy()
    factors = np.empty_like(stack)
    for c, Pc in enumerate(stack):
        try:
            factors[c] = np.linalg.cholesky(Pc)
        except np.linalg.LinAlgError:
            jitter = MVN_JITTER_REL * np.trace(Pc) / len(Pc)
            Pc += jitter * np.eye(len(Pc))
            try:
                factors[c] = np.linalg.cholesky(Pc)
            except np.linalg.LinAlgError as exc:
                err = NumericalError(
                    f"precision matrix not positive definite even after jitter {jitter:g}")
                err.row = c
                raise err from exc
    return factors.reshape(P.shape), stack.reshape(P.shape)


def draw_mvn_from_precision(rng, b, P, z=None):
    """A draw from N(P^-1 b, P^-1) as P^-1 (b + L z), with P = L L' and z
    standard normal (rng's unless given): its covariance is P^-1 L L' P^-1
    = P^-1. One Cholesky factorization (`_cholesky`, with its jitter
    retry) and one `solve`. b (p,) and P (p, p) may carry a leading chain
    axis, and each chain gets the bits of its one-chain call. A P that is
    not finite raises NumericalError; its `row` is the lowest such chain."""
    b = np.asarray(b, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if b.ndim == 0 or P.shape != b.shape + b.shape[-1:]:
        raise ValidationError(f"precision matrix shape {P.shape} incompatible with b of "
                              f"shape {b.shape}")
    if not np.isfinite(P).all():
        err = NumericalError("precision matrix is not finite")
        err.row = int(np.argmin(np.isfinite(P).all(axis=(-2, -1))))
        raise err
    L, P = _cholesky(P)
    noise = rng.standard_normal(b.shape[-1]) if z is None else z
    return np.linalg.solve(P, (b + matvec(L, noise))[..., None])[..., 0]


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
    """Categorical draws from unnormalized log weights (C, ..., |support|)
    along the last axis, for one Generator per chain (`generators`).

    Log weights are shifted by their row maximum before exponentiation so
    extreme t-densities cannot underflow every entry at once. The CDF is
    built support-major, by sequential adds along the support, which give
    the bits of `np.cumsum`. One uniform per row; the index is the count
    of CDF entries <= u, which on the nondecreasing CDF is
    searchsorted(cdf, u, side="right").

    Each chain's uniforms are one ``random(size=...)`` call on its own
    Generator, in chain order, so a chain gets the bits of its one-chain
    call. A row without a finite maximum raises ValidationError whose
    `row` is the lowest such chain.

    A float64 array `log_weights` is overwritten: the CDF is built in its
    memory (pass a copy to keep the weights). At m=300 and four chains the
    weights take 288 KB; a second array that size, allocated and freed
    every sweep, makes the allocator hand pages back to the system and
    fault them in again each time.
    """
    lw = np.asarray(log_weights, dtype=np.float64)
    lw = lw.transpose(lw.ndim - 1, *range(lw.ndim - 1))  # the support first
    top = lw.max(axis=0)  # NaN if the row holds a NaN
    finite = np.isfinite(top)
    if not finite.all():
        err = ValidationError("log weights must be < inf and not NaN, with a finite "
                              "entry in every row")
        err.row = int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))
        raise err
    cdf = np.subtract(lw, top, out=lw)
    np.exp(cdf, out=cdf)
    for prev, cur in zip(cdf, cdf[1:]):
        np.add(prev, cur, out=cur)
    u = np.stack([g.random(size=cdf.shape[2:]) for g in generators(rng)])
    # the count as a sum of the comparison's bytes, in the smallest
    # integer type that holds the support's length
    below = (cdf <= u * cdf[-1]).view(np.uint8)
    return np.add.reduce(below, axis=0, dtype=np.min_scalar_type(len(cdf))).astype(np.intp)


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
