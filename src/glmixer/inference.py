"""Posterior summaries, fitted completeness, shrinkage diagnostics, and
the quadrature checker for the shrinkage-factor concentration rates.

All operations are pure over immutable traces. Every empirical quantile
comes from `prediction._linear_quantiles`, with the bits of numpy's
inclusive linear rule. Split R-hat's normal scores are Wichura's AS241
quantile, vectorized with the operations of the standard library's
`NormalDist().inv_cdf`, so summaries load neither scipy nor `statistics`
(which loads `decimal` and `fractions`). Predictions for new units are
in `prediction`, which `predict` loads without this module; its names
are re-exported here.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .data import PanelDataset
from .design import ModelSpec, design_rows
from .errors import NumericalError, SpecMismatchError, ValidationError
from .prediction import (PredictionResult, _inv_logit_arr, _linear_quantiles,  # noqa: F401
                         predict_new_unit)

QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
# The rate curve integrates over log omega clamped to +/-LOG_OMEGA_CLAMP,
# on a window QUAD_WINDOW log units beyond the cut and the prior's bulk.
LOG_OMEGA_CLAMP = 600.0
QUAD_WINDOW = 200.0

# ---------------------------------------------------------------------------
# summaries

@dataclass(frozen=True)
class SummaryRow:
    param: str
    index: int
    mean: float
    sd: float
    q2_5: float
    q50: float
    q97_5: float
    ess: float
    rhat: float


@dataclass(frozen=True)
class PosteriorSummary:
    rows: tuple

    def lookup(self, param: str, index: int = 0) -> SummaryRow:
        for row in self.rows:
            if row.param == param and row.index == index:
                return row
        raise KeyError((param, index))


# Parameters are summarized in blocks whose ESS workspace (see
# `_ess_workspace_bytes`) stays within about this many bytes, or of one
# parameter where that alone is larger, whatever the trace length and
# parameter count.
BLOCK_WORKSPACE_BYTES = 1 << 20


def _ess_nfft(k: int) -> int:
    """The FFT length of K draws' autocovariances: the power of two above
    2K - 1, so the circular products hold every lag without wrapping."""
    return 1 << (2 * k - 1).bit_length()


def _ess_workspace_bytes(c: int, k: int) -> int:
    """The bytes `_block_ess` allocates per parameter of C chains of K
    draws: the centred copy (C K doubles), the rfft spectrum and its
    product with the conjugate (C (nfft/2 + 1) complex values each) and
    the irfft output (C nfft doubles)."""
    nfft = _ess_nfft(k)
    return 8 * c * (k + 2 * (nfft + 2) + nfft)


def _block_ess(x: np.ndarray) -> np.ndarray:
    """ESS of each parameter of a C-contiguous (D, C, K) block, pooling
    chains with Geyer's initial monotone sequence. The autocovariances
    come from one FFT along the last axis, and the truncation runs on all
    parameters at once: the running minimum of the pair sums along each
    row, then each row's sum up to its first negative pair, taken for all
    rows of one truncation length at a time, so that every sum has the
    bits of numpy's sum of that prefix alone."""
    d, c, k = x.shape
    if k < 4:
        return np.full(d, float(c * k))
    nfft = _ess_nfft(k)
    f = np.fft.rfft(x - x.mean(axis=-1, keepdims=True), nfft, axis=-1)
    acov = np.fft.irfft(f * np.conjugate(f), nfft, axis=-1)[..., :k] / k  # biased
    chain_var = acov[..., 0] * k / (k - 1.0)
    mean_var = chain_var.mean(axis=-1)
    var_plus = mean_var * (k - 1.0) / k
    if c > 1:
        var_plus += x.mean(axis=-1).var(axis=-1, ddof=1)
    degenerate = var_plus == 0.0
    denom = np.where(degenerate, 1.0, var_plus)
    rho = 1.0 - (mean_var[:, None] - acov.mean(axis=1)) / denom[:, None]
    # Geyer: accumulate consecutive pairs (rho[t] + rho[t+1], t = 1, 3, ...)
    # while positive, then enforce monotone decrease of the pair sums
    n_pairs = (k - 1) // 2
    pairs = rho[:, 1:2 * n_pairs:2] + rho[:, 2:2 * n_pairs + 1:2]
    negative = pairs < 0.0
    cut = np.where(negative.any(axis=1), negative.argmax(axis=1), n_pairs)
    mono = np.minimum.accumulate(pairs[:, :cut.max(initial=0)], axis=1)
    total = np.zeros(d)
    for length in set(cut.tolist()) - {0}:
        rows = np.flatnonzero(cut == length)
        total[rows] = mono[rows, :length].sum(axis=1)
    n = c * k
    floor, cap = 1.0 / math.log10(n + 10), n * math.log10(n + 10)
    tau_hat = np.maximum(-1.0 + 2.0 * rho[:, 0] + 2.0 * total, floor)
    return np.where(degenerate, float(n), np.minimum(n / tau_hat, cap))


# Wichura's AS241 (PPND16) rational approximations of the normal quantile
# as in CPython's statistics.NormalDist.inv_cdf, (numerator, denominator)
# coefficients from the highest power down: the central one for
# |p - 1/2| <= 0.425, else with r = sqrt(-log(min(p, 1 - p))) the near one
# for r <= 5 and the far one beyond
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(coefs, x):
    """The polynomial with `coefs` (highest power first) at x, as nested
    multiply-adds in the order the standard library's code runs them."""
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _normal_quantiles(p: np.ndarray) -> np.ndarray:
    """Phi^-1(p) for p in (0, 1) by AS241, with the operations of the
    standard library's NormalDist().inv_cdf, vectorized."""
    q = p - 0.5
    out = np.empty(p.shape)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    out[central] = _horner(_AS241_CENTRAL[0], r) * qc / _horner(_AS241_CENTRAL[1], r)
    qt = q[~central]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, p[~central], 1.0 - p[~central])))
    near = r <= 5.0
    r = np.where(near, r - 1.6, r - 5.0)
    x = (np.where(near, _horner(_AS241_NEAR[0], r), _horner(_AS241_FAR[0], r))
         / np.where(near, _horner(_AS241_NEAR[1], r), _horner(_AS241_FAR[1], r)))
    out[~central] = np.where(qt < 0.0, -x, x)
    return out


def _rank_normal_scores(c: int, k: int) -> np.ndarray:
    """The normal scores Phi^-1((r - 0.375) / (S + 0.25)) of the ranks
    r = 1..S of the S = C * 2 * (K // 2) split draws of C chains of K
    kept draws."""
    s = c * 2 * (k // 2)
    return _normal_quantiles((np.arange(1.0, s + 1.0) - 0.375) / (s + 0.25))


def _block_rhat(x: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Rank-normalized split R-hat of each parameter of a C-contiguous
    (D, C, K) block; 1.0 for constant draws. `scores` is
    `_rank_normal_scores(C, K)`."""
    d, _, k = x.shape
    if k < 4:
        return np.ones(d)
    half = k // 2
    split = np.concatenate([x[:, :, :half], x[:, :, half:2 * half]], axis=1)
    flat = split.reshape(d, -1)
    # a stable sort gives every draw its own rank, so each row's ranks are
    # a permutation of 1..S and its scores a permutation of `scores`. A
    # row of distinct draws has one sorted order, which the default sort
    # finds several times faster; rows with ties (or NaN) are sorted again
    # stably, so tied draws keep their order
    order = np.argsort(flat, axis=1)
    s = np.take_along_axis(flat, order, axis=1)
    tied = (s[:, 1:] == s[:, :-1]).any(axis=1) | np.isnan(s[:, -1])
    del s
    if tied.any():
        order[tied] = np.argsort(flat[tied], axis=1, kind="stable")
    z = np.empty(flat.shape)
    np.put_along_axis(z, order, scores[None, :], axis=1)
    z = z.reshape(split.shape)
    k2 = split.shape[2]
    w = z.var(axis=-1, ddof=1).mean(axis=-1)
    b = k2 * z.mean(axis=-1).var(axis=-1, ddof=1)
    constant = (flat == flat[:, :1]).all(axis=1) | (w == 0.0)
    w = np.where(constant, 1.0, w)
    var_plus = (k2 - 1.0) / k2 * w + b / k2
    return np.where(constant, 1.0, np.sqrt(var_plus / w))


def _as_block(chains: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_2d(chains), dtype=np.float64)[None]


def effective_sample_size(chains: np.ndarray) -> float:
    """ESS across chains (C, K) using Geyer's initial monotone sequence."""
    return float(_block_ess(_as_block(chains))[0])


def split_rhat(chains: np.ndarray) -> float:
    """Rank-normalized split R-hat; 1.0 for constant draws."""
    x = _as_block(chains)
    return float(_block_rhat(x, _rank_normal_scores(*x.shape[1:]))[0])


def summarize(traces) -> PosteriorSummary:
    """Pooled means, sds, quantiles plus per-parameter ESS and split R-hat
    of every recorded draw key (a trace holds only what the sampler draws).

    Each draw key is summarized as C-contiguous (D, C, K) blocks of
    parameters x chains x kept draws, as many parameters per block as keep
    the ESS workspace within BLOCK_WORKSPACE_BYTES. Every reduction runs
    along the last axis, so the mean, sd, quantiles and R-hat of each row
    have the bits of the 1-D call on that parameter's draws. The ESS may
    differ from `effective_sample_size` in the last bits: the batched FFT
    rounds by the number of rows it transforms at once.
    """
    if not traces:
        raise ValidationError("summarize needs at least one trace")
    kept = {t.kept for t in traces}
    if len(kept) != 1:
        raise ValidationError(f"traces have unequal kept-draw counts: {sorted(kept)}")
    c, k = len(traces), kept.pop()
    if k == 0:
        raise ValidationError("summarize needs at least one kept draw")
    priors = traces[0].priors
    names = {"tau": priors.tau_name, "phi": priors.phi_name}
    step = max(1, BLOCK_WORKSPACE_BYTES // _ess_workspace_bytes(c, k))
    scores = _rank_normal_scores(c, k)
    rows = []
    for key in traces[0].draws:
        name = names.get(key, key)
        dim = np.atleast_2d(traces[0].draws[key].T).shape[0]
        for lo in range(0, dim, step):
            x = np.empty((min(step, dim - lo), c, k))
            for ci, t in enumerate(traces):
                x[:, ci, :] = np.atleast_2d(t.draws[key].T)[lo:lo + step]
            pooled = x.reshape(x.shape[0], c * k)
            mean = pooled.mean(axis=-1)
            sd = pooled.std(axis=-1, ddof=1) if c * k > 1 else np.zeros(x.shape[0])
            q = _linear_quantiles(pooled.T, (0.025, 0.5, 0.975))
            for j, vals in enumerate(zip(mean.tolist(), sd.tolist(), *q.tolist(),
                                         _block_ess(x).tolist(), _block_rhat(x, scores).tolist())):
                rows.append(SummaryRow(name, lo + j, *vals))
    return PosteriorSummary(rows=tuple(rows))


# ---------------------------------------------------------------------------
# fitted completeness

def _completeness_bands(theta: np.ndarray):
    """(mean, 2.5 % quantile, 97.5 % quantile) over the draws (axis 0) of
    the completeness inv_logit(theta); the quantiles come from one sort of
    each column's draws (`_linear_quantiles`)."""
    delta = _inv_logit_arr(theta)
    q = _linear_quantiles(delta, (0.025, 0.975))
    return delta.mean(axis=0), q[0], q[1]


@dataclass(frozen=True)
class FittedCompleteness:
    """Per-observation posterior summaries of completeness, with and
    without the unit random effect."""
    mean: np.ndarray        # (n,) posterior mean of inv_logit(x'b + u)
    q2_5: np.ndarray
    q97_5: np.ndarray
    mean_minus_u: np.ndarray  # (n,) fixed-effect-only stream for R-square


def fitted_completeness(traces, panel: PanelDataset, spec: ModelSpec) -> FittedCompleteness:
    for t in traces:
        if t.spec != spec:
            raise SpecMismatchError(f"trace was fitted with spec {t.spec}, data built with {spec}")
    X, unit_ids, sizes = design_rows(panel, spec)
    if traces[0].unit_ids != unit_ids:
        raise SpecMismatchError("panel unit ids differ from the fitted ones")
    beta = np.concatenate([t.draws["beta"] for t in traces])   # (K, p)
    u = np.concatenate([t.draws["u"] for t in traces])         # (K, m)
    theta_fixed = beta @ X.T                                   # (K, n)
    return FittedCompleteness(
        *_completeness_bands(theta_fixed + np.repeat(u, sizes, axis=1)),
        mean_minus_u=_inv_logit_arr(theta_fixed).mean(axis=0),
    )


# ---------------------------------------------------------------------------
# shrinkage factors

def shrinkage_factors(traces, sizes=None):
    """Per-group shrinkage factor draws gamma_i = lam_i tau / (lam_i tau
    + omega_i phi / n_i); returns (draws (K, m), means (m,)). A local
    scale the trace does not hold (lambda under gamma errors, omega under
    the gamma random-effect prior) is 1, as in the sampler."""
    if sizes is None:
        sizes = traces[0].sizes
    n_i = np.asarray(sizes, dtype=np.float64)
    parts = []
    for t in traces:
        lt = t.draws.get("lambda", 1.0) * t.draws["tau"][:, None]
        of = t.draws.get("omega", 1.0) * t.draws["phi"][:, None]
        parts.append(lt / (lt + of / n_i))
    draws = np.concatenate(parts)
    return draws, draws.mean(axis=0)


# ---------------------------------------------------------------------------
# concentration-rate curves for the shrinkage factor

def _log_prior_omega(prior: str, w: np.ndarray, nu: float = 5.0) -> np.ndarray:
    if prior == "horseshoe":
        return -0.5 * np.log(w) - np.log1p(w)
    if prior == "laplace":
        return -2.0 * np.log(w) - 1.0 / w
    if prior == "student-t":
        return (nu / 2.0 - 1.0) * np.log(w) - nu * w / 2.0
    raise ValidationError(f"unsupported local prior {prior!r} for the rate checker")


def _marginal_loglik(obs_var: float, reff_prec: float, n_i: int,
                     resid_mean: float, resid_ss: float) -> float:
    """Log density (up to a constant) of an n_i-vector of residuals under
    covariance obs_var I + J / reff_prec (compound symmetry). No
    intermediate overflows while (n_i resid_mean)^2 is finite."""
    a, q = obs_var, reff_prec
    logdet = (n_i - 1.0) * math.log(a) + math.log(a + n_i / q)
    quad_form = resid_ss / a - (n_i * resid_mean) ** 2 / (a * (a * q + n_i))
    return -0.5 * (logdet + quad_form)


def _tail_prob(log_f, log_cut: float) -> float:
    """P(X < cut) for the density exp(log_f(log x)) dx, by quadrature on
    the log axis with peak normalization."""
    # imported here so that loading the CLI does not pay for scipy.integrate
    from scipy.integrate import IntegrationWarning, quad

    # finite window around the cut and the prior's bulk near log x = 0:
    # the local priors all decay at least exponentially on the log axis,
    # so QUAD_WINDOW log units beyond either lose nothing at double
    # precision. Each side is normalized by its own peak so deep-tail
    # probabilities stay accurate in log space.
    lo = min(log_cut, 10.0) - QUAD_WINDOW
    hi = max(log_cut, 10.0) + QUAD_WINDOW

    def piece(a, b):
        grid = np.linspace(a, b, 400)
        exponents = np.array([log_f(t) + t for t in grid])
        mscale = exponents.max()
        if not np.isfinite(mscale):
            raise NumericalError("rate-curve integrand is non-finite on the scan grid")

        def g(t):
            return math.exp(min(log_f(t) + t - mscale, 0.0))

        with warnings.catch_warnings():  # a quadrature that does not converge warns
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val, _ = quad(g, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                              limit=300, points=grid[np.argsort(exponents)[-4:]])
            except IntegrationWarning as exc:
                raise NumericalError(str(exc).split("\n")[0]) from None
        if val <= 0.0:
            return -np.inf
        return math.log(val) + mscale

    log_num = piece(lo, log_cut)
    log_den_tail = piece(log_cut, hi)
    log_den = np.logaddexp(log_num, log_den_tail)
    if not np.isfinite(log_den):
        raise NumericalError("rate-curve denominator quadrature failed")
    return float(min(max(math.exp(log_num - log_den), 0.0), 1.0))


def theorem2_curve(prior: str, eps: float, *, n_i: int, resid_mean: float, phi_grid,
                   resid_ss: float = None, lam_tau: float = 1.0, nu: float = 5.0) -> np.ndarray:
    """Concentration curve of the shrinkage factor: P(gamma > eps | .) as a
    function of phi on `phi_grid`, integrating the local effect scale omega
    against the group marginal likelihood (errors fixed at precision
    lam_tau). The residual's squared group sum (n_i resid_mean)^2 must be
    finite, and phi within e^(+/-400) of c = n_i lam_tau (1 - eps) / eps,
    where the quadrature window stays in the clamped log-omega range; as
    phi falls toward that bound the curve rises toward its limit 1.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"eps must lie in (0,1), got {eps}")
    if n_i < 1:
        raise ValidationError(f"n_i must be >= 1, got {n_i}")
    if not 0.0 < lam_tau < math.inf:
        raise ValidationError(f"lam_tau must be finite and > 0, got {lam_tau!r}")
    if not abs(n_i * resid_mean) < math.sqrt(sys.float_info.max):  # also rejects NaN
        raise ValidationError(f"resid_mean must be finite with (n_i resid_mean)^2 finite, "
                              f"got resid_mean = {resid_mean!r}, n_i = {n_i}")
    if resid_ss is None:
        resid_ss = n_i * resid_mean ** 2
    if not math.isfinite(resid_ss):
        raise ValidationError(f"resid_ss must be finite, got {resid_ss!r}")
    # gamma > eps  <=>  omega < c / phi, c = n_i lam_tau (1 - eps) / eps;
    # the integration window around each cut log(c / phi) must stay
    # inside the clamp of log omega
    log_c = math.log(n_i) + math.log(lam_tau) + math.log((1.0 - eps) / eps)
    reach = LOG_OMEGA_CLAMP - QUAD_WINDOW
    phi_grid = np.asarray(phi_grid, dtype=np.float64)
    cuts = [log_c - math.log(phi) if phi > 0.0 else math.inf for phi in phi_grid.tolist()]
    if not all(abs(cut) <= reach for cut in cuts):  # also rejects NaN
        lo, hi = (log_c - reach) / math.log(10.0), (log_c + reach) / math.log(10.0)
        raise ValidationError(
            f"phi must lie in [10^{lo:.6g}, 10^{hi:.6g}] for n_i = {n_i}, "
            f"lam_tau = {lam_tau!r} and eps = {eps!r}, where |log(c / phi)| <= {reach:g}; "
            f"got phi from {float(phi_grid.min())!r} to {float(phi_grid.max())!r}")
    out = []
    for phi, cut in zip(phi_grid, cuts):
        def log_f(t, phi=phi):
            # the clamp keeps exp() finite; the grid check above keeps the
            # integration window inside it
            w = math.exp(min(max(t, -LOG_OMEGA_CLAMP), LOG_OMEGA_CLAMP))
            ll = _marginal_loglik(1.0 / lam_tau, w * phi, n_i, resid_mean, resid_ss)
            return ll + float(_log_prior_omega(prior, np.asarray(w), nu))
        try:
            out.append(_tail_prob(log_f, cut))
        except NumericalError as exc:
            raise NumericalError(f"quadrature failed at phi = {phi:g}: {exc}") from exc
    return np.asarray(out)
