"""Independent oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the package's sampling code paths:
CDFs come from quadrature over the target density, moments from closed
forms, and per-draw replays from hand-rolled loops. The per-row and
per-parameter loops below are the references the vectorized kernels and
the batched summaries are checked against.
"""

import math
from statistics import NormalDist

import numpy as np
from scipy.integrate import quad


def quadrature_cdf(pdf, xs, lower=0.0, upper=np.inf):
    """CDF values at xs for an unnormalized density by adaptive quadrature."""
    xs = np.asarray(xs, dtype=np.float64)
    total, _ = quad(pdf, lower, upper, limit=200)
    out = np.empty(xs.shape)
    prev_x, acc = lower, 0.0
    for i, x in enumerate(np.sort(xs)):
        part, _ = quad(pdf, prev_x, x, limit=200)
        acc += part
        out[i] = acc / total
        prev_x = x
    order = np.argsort(np.argsort(xs, kind="stable"), kind="stable")
    return out[np.argsort(xs, kind="stable")][order]


def ecdf_sup_distance(draws, pdf, lower=0.0, upper=np.inf, grid_size=41):
    """Sup distance between the empirical CDF of draws and the quadrature
    CDF of the (unnormalized) density, on an interior quantile grid."""
    draws = np.sort(np.asarray(draws))
    qs = np.linspace(0.02, 0.98, grid_size)
    grid = np.quantile(draws, qs)
    cdf = quadrature_cdf(pdf, grid, lower=lower, upper=upper)
    emp = np.searchsorted(draws, grid, side="right") / draws.size
    return float(np.max(np.abs(emp - cdf)))


def gamma_pdf(shape, rate):
    def pdf(x):
        if x <= 0:
            return 0.0
        return math.exp((shape - 1.0) * math.log(x) - rate * x)
    return pdf


def gig_pdf(p, a, b):
    def pdf(x):
        if x <= 0:
            return 0.0
        return math.exp((p - 1.0) * math.log(x) - 0.5 * (a * x + b / x))
    return pdf


def horseshoe_omega_pdf(w):
    """w^(-1/2) (1 + w)^(-1): Beta-prime(1/2, 1/2), the horseshoe's local
    precision prior, unnormalized."""
    return 1.0 / (math.sqrt(w) * (1.0 + w)) if w > 0 else 0.0


def laplace_omega_pdf(w):
    """w^(-2) e^(-1/w): 1 / Exp(1), the Laplace local precision prior,
    unnormalized."""
    return math.exp(-2.0 * math.log(w) - 1.0 / w) if w > 0 else 0.0


def gig_half_mean(a, b):
    """Mean of GIG(-1/2, a, b): sqrt(b/a) (Bessel K_{1/2} = K_{-1/2})."""
    return math.sqrt(b / a)


def gig_neg_half_by_masks(rng, a, b):
    """GIG(-1/2, a_i, b) with one draw per entry of a, as the sampler drew
    it before it called the kernel: rng.wald for entries a_i >= 1e-30,
    then the inverse-Gamma limit 1 / Gamma(1/2, b/2) for the rest."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    tiny = a < 1e-30
    if np.any(~tiny):
        out[~tiny] = rng.wald(np.sqrt(b / a[~tiny]), b)
    if np.any(tiny):
        out[tiny] = 1.0 / (rng.standard_gamma(0.5, size=int(tiny.sum())) / (0.5 * b))
    return out


def group_aggregates_by_masks(X, y, group_idx, m):
    """(xbar, ybar, XtX_g, Xty_g, yty_g) of each group, selecting its rows
    with a boolean mask over all n rows, as the design builder did before
    it sliced contiguous row blocks."""
    p = X.shape[1]
    xbar, ybar = np.zeros((m, p)), np.zeros(m)
    XtX_g, Xty_g, yty_g = np.zeros((m, p, p)), np.zeros((m, p)), np.zeros(m)
    for g in range(m):
        sel = group_idx == g
        Xg, yg = X[sel], y[sel]
        xbar[g] = Xg.mean(axis=0)
        ybar[g] = yg.mean()
        XtX_g[g] = Xg.T @ Xg
        Xty_g[g] = Xg.T @ yg
        yty_g[g] = yg @ yg
    return xbar, ybar, XtX_g, Xty_g, yty_g


def rss_by_group(state, design):
    """Per-group residual sums of squares at state.beta and state.u as the
    direct sum over all n data rows: the reference for the sampler's
    closed form in the per-group sums."""
    r = design.y - design.X @ state.beta - state.u[design.group_idx]
    return np.bincount(design.group_idx, weights=r * r, minlength=design.m)


def quantiles_from_pdf(pdf, probs, lower=0.0, upper=np.inf):
    """Quantiles of an unnormalized density by bisection on the quadrature CDF."""
    total, _ = quad(pdf, lower, upper, limit=200)

    def cdf(x):
        v, _ = quad(pdf, lower, x, limit=200)
        return v / total

    out = []
    for p in probs:
        lo, hi = (lower if np.isfinite(lower) else 0.0) + 1e-12, 1.0
        while cdf(hi) < p:
            hi *= 4.0
            if hi > 1e12:
                break
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.asarray(out)


def categorical_by_searchsorted(rng, log_weights):
    """Per-row replay of a categorical draw from log weights: the same
    row-max shift, CDF and one uniform per row as the kernel, then one
    searchsorted call per row."""
    lw = np.asarray(log_weights, dtype=np.float64)
    cdf = np.cumsum(np.exp(lw - lw.max(axis=-1, keepdims=True)), axis=-1)
    u = rng.random(size=cdf.shape[:-1]) * cdf[..., -1]
    idx = np.empty(cdf.shape[:-1], dtype=np.intp)
    for i in np.ndindex(*cdf.shape[:-1]):
        idx[i] = np.searchsorted(cdf[i], u[i], side="right")
    return idx


def _autocovariance(x):
    n = len(x)
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    return np.fft.irfft(f * np.conjugate(f), nfft)[:n].real / n


def ess_one_parameter(chains):
    """Geyer initial-monotone ESS of one parameter's (C, K) draws, one
    chain and one pair at a time."""
    c, k = chains.shape
    if k < 4:
        return float(c * k)
    acov = np.stack([_autocovariance(ch) for ch in chains])
    chain_var = acov[:, 0] * k / (k - 1.0)
    mean_var = chain_var.mean()
    var_plus = mean_var * (k - 1.0) / k
    if c > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return float(c * k)
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    pair_sums = []
    t = 1
    while t + 1 < k:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        pair_sums.append(pair)
        t += 2
    mono = np.minimum.accumulate(pair_sums) if pair_sums else np.zeros(0)
    tau_hat = -1.0 + 2.0 * rho[0] + 2.0 * float(np.sum(mono))
    tau_hat = max(tau_hat, 1.0 / math.log10(c * k + 10))
    return float(min(c * k / tau_hat, c * k * math.log10(c * k + 10)))


def rhat_one_parameter(chains):
    """Rank-normalized split R-hat of one parameter's (C, K) draws."""
    c, k = chains.shape
    if k < 4:
        return 1.0
    half = k // 2
    split = np.concatenate([chains[:, :half], chains[:, half:2 * half]], axis=0)
    if np.all(split == split.ravel()[0]):
        return 1.0
    flat = split.ravel()
    ranks = np.argsort(np.argsort(flat, kind="stable"), kind="stable") + 1.0
    inv_cdf = NormalDist().inv_cdf
    z = np.array([inv_cdf(q) for q in ((ranks - 0.375) / (flat.size + 0.25)).tolist()])
    z = z.reshape(split.shape)
    k2 = z.shape[1]
    w = z.var(axis=1, ddof=1).mean()
    b = k2 * z.mean(axis=1).var(ddof=1)
    if w == 0.0:
        return 1.0
    return float(math.sqrt(((k2 - 1.0) / k2 * w + b / k2) / w))


def inv_logit_masked(theta):
    """inv_logit by two boolean-masked branches: 1 / (1 + exp(-t)) where
    t >= 0 and e / (1 + e), e = exp(t), elsewhere (NaN included)."""
    out = np.empty_like(theta)
    pos = theta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-theta[pos]))
    e = np.exp(theta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def summarize_per_parameter(traces):
    """(param, index, mean, sd, q2.5, q50, q97.5, ess, rhat) rows, one
    parameter at a time."""
    priors = traces[0].priors
    names = {"tau": priors.tau_name, "phi": priors.phi_name}
    rows = []
    for key in traces[0].draws:
        stacked = np.stack([np.atleast_2d(t.draws[key].T).T.astype(np.float64)
                            for t in traces])  # (C, K, dim)
        for j in range(stacked.shape[2]):
            chains = stacked[:, :, j]
            pooled = chains.ravel()
            q = np.quantile(pooled, [0.025, 0.5, 0.975], method="linear")
            sd = float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0
            rows.append((names.get(key, key), j, float(pooled.mean()), sd,
                         float(q[0]), float(q[1]), float(q[2]),
                         ess_one_parameter(chains), rhat_one_parameter(chains)))
    return rows
