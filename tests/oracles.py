"""Independent oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the package's sampling code paths:
CDFs come from quadrature over the target density, moments from closed
forms, and per-draw replays from hand-rolled loops. The per-row and
per-parameter loops below are the references the vectorized kernels and
the batched summaries are checked against.
"""

import inspect
import math
import warnings
from statistics import NormalDist

import numpy as np
from scipy.integrate import quad

from glmixer import inference
from glmixer.data import CSV_COLUMNS, DEFAULT_CLAMP_EPS, SEXES, inv_logit, read_csv_rows
from glmixer.design import GroupedDesign
from glmixer.errors import ValidationError
from glmixer.kernels import RngStream, draw_local_prior
from glmixer.simulate import SIM_NU, SIM_STREAM


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


def replace_design(design, **changes):
    """A new GroupedDesign with the constructor's fields of `design` but
    `changes`, and none of its per-design constants computed yet."""
    fields = inspect.signature(GroupedDesign).parameters
    return GroupedDesign(**{**{name: getattr(design, name) for name in fields}, **changes})


def rss_by_group(state, design):
    """Per-group residual sums of squares at state.beta and state.u, one row
    per chain of the (C, .) state, as the direct sum over all n data rows:
    the reference for the sampler's closed form in the per-group sums."""
    rows = []
    for beta, u in zip(state.beta, state.u):
        r = design.y - design.X @ beta - u[design.group_idx]
        rows.append(np.bincount(design.group_idx, weights=r * r, minlength=design.m))
    return np.stack(rows)


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


def block_ess_by_parameter(x):
    """`inference._block_ess` with Geyer's truncation run one parameter at
    a time: the same autocovariances, then each row's pair sums up to its
    first negative pair, their running minimum and its sum."""
    d, c, k = x.shape
    if k < 4:
        return np.full(d, float(c * k))
    nfft = inference._ess_nfft(k)
    f = np.fft.rfft(x - x.mean(axis=-1, keepdims=True), nfft, axis=-1)
    acov = np.fft.irfft(f * np.conjugate(f), nfft, axis=-1)[..., :k] / k
    mean_var = (acov[..., 0] * k / (k - 1.0)).mean(axis=-1)
    var_plus = mean_var * (k - 1.0) / k
    if c > 1:
        var_plus += x.mean(axis=-1).var(axis=-1, ddof=1)
    degenerate = var_plus == 0.0
    denom = np.where(degenerate, 1.0, var_plus)
    rho = 1.0 - (mean_var[:, None] - acov.mean(axis=1)) / denom[:, None]
    n_pairs = (k - 1) // 2
    pairs = rho[:, 1:2 * n_pairs:2] + rho[:, 2:2 * n_pairs + 1:2]
    n = c * k
    out = np.empty(d)
    for j in range(d):
        if degenerate[j]:
            out[j] = n
            continue
        negative = np.flatnonzero(pairs[j] < 0.0)
        cut = negative[0] if len(negative) else n_pairs
        mono = np.minimum.accumulate(pairs[j, :cut])
        tau_hat = max(-1.0 + 2.0 * rho[j, 0] + 2.0 * float(np.sum(mono)),
                      1.0 / math.log10(n + 10))
        out[j] = min(n / tau_hat, n * math.log10(n + 10))
    return out


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


def load_panel_by_rows(path, clamp_policy="clamp", allow_missing_completeness=False):
    """The panel CSV loader as it was before panels were held as columns:
    one record and one check at a time, then each observation validated
    and grouped. Its errors and warnings, and their order, are the
    reference for the columnar `load_panel`; a completeness that is not
    finite is a parse error of its row. Returns (columns in group order,
    unit ids, sizes)."""
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
        raise ValidationError(f"{path}: bad header {header!r}; expected {expect!r}")
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValidationError(
                f"{path}: row {row_no}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        try:
            unit_id = row[0].strip()
            period = int(row[1])
            float(period)
            sex = row[2].strip()
            missing = row[3].strip() == "" and allow_missing_completeness
            completeness = 0.5 if missing else float(row[3])
            if not math.isfinite(completeness):
                raise ValueError(f"completeness {completeness} is not finite")
            reg_cdr, pct65, u5mr = float(row[4]), float(row[5]), float(row[6])
            c5q0 = float(row[7]) if row[7].strip() != "" else None
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: row {row_no}: {exc}") from None
        if not missing:
            if percent:
                completeness /= 100.0
            if clamp_policy == "reject":
                if not (0.0 < completeness < 1.0):
                    raise ValidationError(
                        f"row {row_no}: completeness {completeness} outside the open "
                        "interval (0, 1) under the 'reject' policy")
            elif not DEFAULT_CLAMP_EPS <= completeness <= 1.0 - DEFAULT_CLAMP_EPS:
                clamped = min(max(completeness, DEFAULT_CLAMP_EPS), 1.0 - DEFAULT_CLAMP_EPS)
                warnings.warn(f"row {row_no}: completeness {completeness:.6g} "
                              f"clamped to {clamped:.6g}")
                completeness = clamped
        observations.append((unit_id, period, sex, completeness, reg_cdr, pct65, u5mr, c5q0))
    if not observations:
        raise ValidationError(f"{path}: no data rows")
    seen, by_unit = set(), {}
    for obs in observations:
        uid, period, sex, completeness, reg_cdr, pct65, u5mr, c5q0 = obs
        key = (uid, period, sex)
        if sex not in SEXES:
            raise ValidationError(f"sex must be one of {SEXES}, got {sex!r}")
        if not (0.0 < completeness < 1.0):
            raise ValidationError(f"completeness must lie strictly in (0,1), got "
                                  f"{completeness!r} for ({uid}, {period}, {sex})")
        if not (0.0 <= reg_cdr < math.inf):
            raise ValidationError(f"reg_cdr must be finite and >= 0, got {reg_cdr!r}")
        if not (0.0 <= pct65 <= 1.0):
            raise ValidationError(f"pct65 must lie in [0,1], got {pct65!r}")
        if not (0.0 < u5mr < math.inf):
            raise ValidationError(f"u5mr_true must be finite and > 0, got {u5mr!r}")
        if c5q0 is not None:
            if not (0.0 < c5q0 <= 1.5):
                raise ValidationError(
                    f"c5q0 must lie in (0, 1.5], got {c5q0!r} for ({uid}, {period}, {sex})")
            if c5q0 > 1.0:
                warnings.warn(f"c5q0 = {c5q0:.4f} > 1 for ({uid}, {period}, {sex}); "
                              "registered under-five deaths exceed the true estimate")
        if key in seen:
            raise ValidationError(f"duplicate observation key {key}")
        seen.add(key)
        by_unit.setdefault(uid, []).append(obs)
    grouped = [obs for uid in sorted(by_unit)
               for obs in sorted(by_unit[uid], key=lambda o: (o[1], o[2]))]
    sizes = tuple(len(by_unit[uid]) for uid in sorted(by_unit))
    return [list(col) for col in zip(*grouped)], tuple(sorted(by_unit)), sizes


def simulate_panel_by_rows(config):
    """The simulator as it was before panels were held as columns: the
    same draws, one row at a time, each row's x'beta the dot product of
    that row alone. Returns (rows as CSV-order tuples in draw order, u)."""
    rng = RngStream(config.seed, SIM_STREAM).generator()
    offset = config.first_year + (config.n_i - 1) / 2.0
    beta = config.resolved_beta()
    omega = draw_local_prior(rng, config.reffect_prior, config.m, nu=SIM_NU)
    u = rng.standard_normal(config.m) / np.sqrt(omega * config.phi)
    rows = []
    for i in range(config.m):
        reg_cdr = rng.uniform(2.0, 12.0, size=config.n_i)
        pct65 = rng.uniform(0.01, 0.20, size=config.n_i)
        u5mr = rng.uniform(0.005, 0.15, size=config.n_i)
        c5q0 = rng.uniform(0.3, 1.0, size=config.n_i)
        eps = rng.standard_normal(config.n_i) / np.sqrt(config.tau)
        for j in range(config.n_i):
            r, p, q = float(reg_cdr[j]), float(pct65[j]), float(u5mr[j])
            c = float(c5q0[j]) if config.variant == 1 else None
            year = config.first_year + j
            x = [1.0, r, r ** 2, p ** 2, math.log(q)] + ([c] if c is not None else [])
            theta = float(np.asarray(x + [year - offset]) @ beta) + float(u[i]) + float(eps[j])
            rows.append((f"U{i:03d}", year, config.sex,
                         min(max(inv_logit(theta), 1e-6), 1.0 - 1e-6), r, p, q, c))
    return rows, u
