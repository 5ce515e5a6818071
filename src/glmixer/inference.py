"""Posterior summaries, predictions, shrinkage diagnostics, and the
quadrature checker for the shrinkage-factor concentration rates.

All operations are pure over immutable traces. Every empirical
quantile comes from one sort of the draws per block (`_linear_quantiles`)
and has the bits of numpy's inclusive linear rule, `numpy.quantile(...,
method="linear")`, so credible intervals are bit-reproducible without
numpy's selection, which is slower and loads `numpy.ma`. Split R-hat's
normal scores come from the standard library's `statistics.NormalDist`,
so summaries load no scipy. Predictions for new units need only the beta
and phi draws and the design rows; they are evaluated over blocks of
whole units of bounded size, and each unit gets the bits of predicting
it alone.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import PanelDataset
from .design import ModelSpec, design_rows
from .errors import NumericalError, SpecMismatchError, ValidationError
from .gibbs import nu_log_prior
from .kernels import RngStream, draw_local_prior

QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
# The rate curve integrates over log omega clamped to +/-LOG_OMEGA_CLAMP,
# on a window QUAD_WINDOW log units beyond the cut and the prior's bulk.
LOG_OMEGA_CLAMP = 600.0
QUAD_WINDOW = 200.0

PREDICT_STREAM_BASE = 10 ** 6
# Draws x design rows evaluated at once by predict_new_unit: about 128 KB
# per work array, so its memory stays flat in the number of units.
PREDICT_BLOCK_VALUES = 1 << 14


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
    come from one FFT along the last axis; only the pair truncation loops
    over parameters."""
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
    n = c * k
    floor, cap = 1.0 / math.log10(n + 10), n * math.log10(n + 10)
    out = np.empty(d)
    for j in range(d):
        if degenerate[j]:
            out[j] = n
            continue
        mono = np.minimum.accumulate(pairs[j, :cut[j]])
        tau_hat = max(-1.0 + 2.0 * rho[j, 0] + 2.0 * float(np.sum(mono)), floor)
        out[j] = min(n / tau_hat, cap)
    return out


def _rank_normal_scores(c: int, k: int) -> np.ndarray:
    """The normal scores Phi^-1((r - 0.375) / (S + 0.25)) of the ranks
    r = 1..S of the S = C * 2 * (K // 2) split draws of C chains of K
    kept draws."""
    # imported here so that `predict`, which loads this module, does not load statistics
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    s = c * 2 * (k // 2)
    return np.array([inv_cdf((r - 0.375) / (s + 0.25)) for r in range(1, s + 1)])


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
# fitted and predictive completeness

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


@dataclass(frozen=True)
class PredictionResult:
    """Posterior predictive completeness per design row."""
    mode: str
    mean: np.ndarray    # (n,)
    q2_5: np.ndarray
    q97_5: np.ndarray


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
    from scipy.integrate import quad

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

        val, _ = quad(g, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                      limit=300, points=grid[np.argsort(exponents)[-4:]])
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
