"""Output checkers for the glmixer benchmark.

Every check recomputes what a stage wrote from the benchmark's own code,
or tests a property the method must have, and raises CheckError on a
mismatch. The only program code used here is ``glmixer.artifacts.load_fit``
(so the checks follow the fit artifact through any change of its file
format) and ``PriorConfig.from_dict`` for the manifest's prior settings;
every number compared is computed here with plain numpy/scipy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.special import expit, ndtri
from scipy.stats import rankdata

# Tolerance for values the program and this module compute from the same
# inputs by different code: they may differ only by rounding.
EXACT_RTOL = 1e-12

# Posterior means of beta must lie within this many posterior SDs of the
# beta that generated the panel, and pooled OLS on the simulated panel
# within this many of its exact sampling SDs.
RECOVERY_SDS = 5.0
OLS_SDS = 6.0
# Predictive means: failure probability per row of the Bernstein bound,
# standard errors allowed for the benchmark's own estimate, and the least
# number of u* draws behind that estimate.
PREDICT_FAILURE = 1e-9
PREDICT_SES = 6.0
PREDICT_DRAWS = 8000

# The metric report's completeness bands: half-open below, closed at 1.
BAND_EDGES = (0.0, 0.30, 0.60, 0.80, 0.90, 1.0)
BAND_LABELS = ("(0,30%)", "[30%,60%)", "[60%,80%)", "[80%,90%)", "[90%,100%]")
SMALL_DEV = 0.10


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def read_rows(path) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def design_row(year: float, reg_cdr: float, pct65: float, u5mr: float,
               c5q0: float, year_offset: float) -> list:
    """Model 1 covariates: intercept, RegCDR, RegCDR^2, pct65^2, ln(5q0),
    C5q0, centred year."""
    return [1.0, reg_cdr, reg_cdr * reg_cdr, pct65 * pct65, math.log(u5mr),
            c5q0, year - year_offset]


def panel_design(rows) -> tuple:
    """(unit ids in order, {unit: (r, p) design}, {unit: observed completeness})
    for panel CSV rows, each unit's rows ordered by year and keyed by
    position in that order, as prediction rows are."""
    by_unit: dict = {}
    for r in rows:
        by_unit.setdefault(r["unit_id"], []).append(r)
    offset = math.fsum(float(r["year"]) for r in rows) / len(rows)
    units = sorted(by_unit)
    X, obs = {}, {}
    for uid in units:
        recs = sorted(by_unit[uid], key=lambda r: int(r["year"]))
        X[uid] = np.array([design_row(float(r["year"]), float(r["reg_cdr"]),
                                      float(r["pct65"]), float(r["u5mr"]),
                                      float(r["c5q0"]), offset) for r in recs])
        obs[uid] = [float(r["completeness"]) for r in recs]
    return units, X, obs


def dir_hashes(root) -> dict:
    """sha256 of every file below root, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# simulate

def check_simulate(sim_dir, *, m: int, n_i: int, beta, tau: float, phi: float) -> None:
    """Panel shape and ranges, truth.json beta, and pooled-OLS recovery of
    beta within OLS_SDS exact sampling SDs under the simulator's model
    (iid effects with precision phi, errors with precision tau)."""
    rows = read_rows(os.path.join(sim_dir, "panel.csv"))
    _require(len(rows) == m * n_i, f"simulate: {len(rows)} rows, expected {m * n_i}")
    units, X, obs = panel_design(rows)
    _require(len(units) == m, f"simulate: {len(units)} units, expected {m}")
    for r in rows:
        c, cdr, p65, u5, c5 = (float(r[k]) for k in
                               ("completeness", "reg_cdr", "pct65", "u5mr", "c5q0"))
        _require(all(math.isfinite(v) for v in (c, cdr, p65, u5, c5)),
                 f"simulate: non-finite value in {r}")
        _require(0.0 < c < 1.0 and cdr >= 0.0 and 0.0 <= p65 <= 1.0 and u5 > 0.0
                 and 0.0 < c5 <= 1.5, f"simulate: value out of range in {r}")
    for uid in units:
        _require(len(obs[uid]) == n_i, f"simulate: unit {uid} has {len(obs[uid])} rows")
    with open(os.path.join(sim_dir, "truth.json"), "r", encoding="utf-8") as fh:
        truth = json.load(fh)
    _require([float(b) for b in truth["beta"]] == [float(b) for b in beta],
             f"simulate: truth.json beta {truth['beta']} != requested {list(beta)}")

    Xs = np.vstack([X[u] for u in units])
    y = np.array([math.log(c / (1.0 - c)) for u in units for c in obs[u]])
    xtx_inv = np.linalg.inv(Xs.T @ Xs)
    beta_hat = xtx_inv @ (Xs.T @ y)
    # Cov(y) = I / tau + (1 / phi) * (one block of ones per unit)
    sums = np.array([X[u].sum(axis=0) for u in units])
    meat = Xs.T @ Xs / tau + sums.T @ sums / phi
    sd = np.sqrt(np.diag(xtx_inv @ meat @ xtx_inv))
    err = np.abs(beta_hat - np.asarray(beta, dtype=float))
    _require(bool(np.all(err <= OLS_SDS * sd)),
             f"simulate: pooled OLS {beta_hat.tolist()} misses beta {list(beta)} "
             f"by more than {OLS_SDS} SDs {sd.tolist()}")


# ---------------------------------------------------------------------------
# fit

def load_draws(fit_dir):
    """(traces, manifest, priors) through the program's artifact reader."""
    from glmixer.artifacts import load_fit
    from glmixer.gibbs import PriorConfig

    traces, manifest = load_fit(fit_dir)
    return traces, manifest, PriorConfig.from_dict(manifest["priors"])


def scalar_chains(traces, priors) -> dict:
    """{(summary param name, index): (C, K) float array} for every scalar."""
    names = {"tau": priors.tau_name, "phi": priors.phi_name}
    out = {}
    for key in traces[0].draws:
        stacked = np.stack([np.asarray(t.draws[key], dtype=np.float64).reshape(t.kept, -1)
                            for t in traces])
        for j in range(stacked.shape[2]):
            out[(names.get(key, key), j)] = stacked[:, :, j]
    return out


def linear_quantile(sorted_x: np.ndarray, q: float) -> float:
    """Inclusive linear-interpolation quantile of sorted data."""
    h = (len(sorted_x) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_x) - 1)
    return float(sorted_x[lo] + (h - lo) * (sorted_x[hi] - sorted_x[lo]))


def rank_normalized_split_rhat(chains: np.ndarray) -> float:
    """Rank-normalized split R-hat (Vehtari, Gelman, Simpson, Carpenter &
    Buerkner 2021, bulk form): split each chain into halves, replace the
    draws by normal scores of their pooled ranks (Blom offsets 3/8), and
    take the classic potential scale reduction of the scores."""
    c, k = chains.shape
    half = k // 2
    split = np.vstack([chains[:, :half], chains[:, k - half:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    n = split.shape[1]
    within = float(np.mean(np.var(z, axis=1, ddof=1)))
    between = n * float(np.var(np.mean(z, axis=1), ddof=1))
    if within == 0.0:
        return 1.0
    return math.sqrt(((n - 1) / n * within + between / n) / within)


def read_summary(fit_dir) -> dict:
    return {(r["param"], int(r["index"])): r
            for r in read_rows(os.path.join(fit_dir, "summary.csv"))}


def check_fit(fit_dir, beta_true, draws=None) -> None:
    """summary.csv against the draws: means and 2.5/50/97.5% quantiles
    recomputed to EXACT_RTOL, ESS in (0, CK log10(CK + 10)], beta R-hat
    equal to rank_normalized_split_rhat; and beta recovery within
    RECOVERY_SDS posterior SDs."""
    traces, _, priors = draws or load_draws(fit_dir)
    summary = read_summary(fit_dir)
    chains = scalar_chains(traces, priors)
    _require(set(summary) == set(chains),
             f"fit: summary params {sorted(set(summary) ^ set(chains))} do not match the draws")
    c, k = next(iter(chains.values())).shape
    ess_max = c * k * math.log10(c * k + 10)
    for key, ch in chains.items():
        row = summary[key]
        pooled = np.sort(ch.ravel())
        mine = {"mean": math.fsum(pooled) / pooled.size,
                "q2.5": linear_quantile(pooled, 0.025),
                "q50": linear_quantile(pooled, 0.5),
                "q97.5": linear_quantile(pooled, 0.975)}
        for col, value in mine.items():
            _require(_close(float(row[col]), value),
                     f"fit: {key} {col} = {row[col]}, recomputed {value!r}")
        ess = float(row["ess"])
        _require(0.0 < ess <= ess_max * (1 + EXACT_RTOL),
                 f"fit: {key} ess {ess} outside (0, {ess_max}]")
    p = len(beta_true)
    for j in range(p):
        row = summary[("beta", j)]
        rhat = rank_normalized_split_rhat(chains[("beta", j)])
        _require(_close(float(row["rhat"]), rhat, 1e-9),
                 f"fit: beta[{j}] rhat {row['rhat']}, recomputed {rhat!r}")
        mean, sd = float(row["mean"]), float(row["sd"])
        _require(abs(mean - beta_true[j]) <= RECOVERY_SDS * sd,
                 f"fit: beta[{j}] posterior mean {mean} is more than "
                 f"{RECOVERY_SDS} SDs ({sd}) from the true {beta_true[j]}")


# ---------------------------------------------------------------------------
# predict

def draw_local_precision(rng, priors, size: int) -> np.ndarray:
    """omega* from the configured local prior of the random effects."""
    family = priors.reffect_prior
    if family == "horseshoe":        # omega^(-1/2) ~ half-Cauchy(0, 1)
        return 1.0 / np.square(rng.standard_cauchy(size))
    if family == "laplace":          # omega = 1 / Exp(1)
        return 1.0 / rng.exponential(1.0, size)
    if family == "student-t":        # nu ~ l / (l + k)^3 (or l / (l + k)), omega ~ Ga(nu/2, nu/2)
        support = np.asarray(priors.nu_support, dtype=np.float64)
        power = 3.0 if priors.nu_weight == "algorithm3" else 1.0
        w = support / (support + priors.k_nu) ** power
        nu = rng.choice(support, size=size, p=w / w.sum())
        return rng.gamma(nu / 2.0, 2.0 / nu)
    return np.ones(size)


def read_predictions(pred_dir) -> dict:
    out = {}
    for r in read_rows(os.path.join(pred_dir, "predictions.csv")):
        key = (r["unit_id"], int(r["row"]))
        _require(key not in out, f"predict: duplicate row {key}")
        out[key] = r
    return out


def check_predict(pred_dir, panel_rows, *, seed: int, draws) -> None:
    """Every panel row predicted once, 0 < q2.5 <= mean <= q97.5 < 1, and
    each mean within a Bernstein bound of this module's own estimate of
    E[inv_logit(x'beta + u*)], u* ~ N(0, 1/(omega* phi)), from the loaded
    beta and phi draws.

    The program averages S terms g_s = inv_logit(x'beta_s + u*_s), one
    fresh u* per posterior draw s. Given the draws the terms are
    independent and lie in (0, 1), so whatever the tails of u* (the
    horseshoe and Student-t priors give Cauchy-like ones),
    P(|mean - E| >= t) <= 2 exp(-(S t)^2 / 2 / (sum_s Var(g_s) + S t / 3));
    the tolerance is the t at which that bound is PREDICT_FAILURE, plus
    PREDICT_SES standard errors of this module's own estimate, which
    averages R draws of u* per posterior draw.
    """
    traces, _, priors = draws
    preds = read_predictions(pred_dir)
    units, X, _ = panel_design(panel_rows)
    expected = {(u, j) for u in units for j in range(len(X[u]))}
    _require(set(preds) == expected,
             f"predict: rows {sorted(set(preds) ^ expected)[:5]} missing or unexpected")
    beta = np.concatenate([t.draws["beta"] for t in traces])
    phi = np.concatenate([t.draws["phi"] for t in traces])
    s = phi.size
    r = max(4, math.ceil(PREDICT_DRAWS / s))
    log_term = math.log(2.0 / PREDICT_FAILURE)
    rng = np.random.default_rng([seed, 7])
    for uid in units:
        omega = draw_local_precision(rng, priors, r * s).reshape(r, s)
        u_star = rng.standard_normal((r, s)) / np.sqrt(omega * phi)
        g = expit((beta @ X[uid].T)[None, :, :] + u_star[:, :, None])    # (r, s, rows)
        estimate = g.mean(axis=(0, 1))
        var_g = g.var(axis=0, ddof=1).mean(axis=0)                       # mean_s Var(g_s)
        a = log_term / (3.0 * s)
        tol = (a + np.sqrt(a * a + 2.0 * log_term * var_g / s)
               + PREDICT_SES * np.sqrt(var_g / (s * r)))
        for j in range(len(estimate)):
            row = preds[(uid, j)]
            lo, mean, hi = float(row["q2.5"]), float(row["mean"]), float(row["q97.5"])
            _require(row["mode"] == "integrate_reffect", f"predict: {uid}[{j}] mode {row['mode']}")
            _require(0.0 < lo <= mean <= hi < 1.0,
                     f"predict: {uid}[{j}] interval ({lo}, {mean}, {hi}) out of order")
            _require(abs(mean - estimate[j]) <= tol[j],
                     f"predict: {uid}[{j}] mean {mean} vs independent estimate "
                     f"{estimate[j]} (tolerance {tol[j]})")


# ---------------------------------------------------------------------------
# diagnose

def check_diagnose(diag_dir, fit_dir) -> None:
    """One row per scalar parameter of the fit, every ess and rhat finite."""
    rows = read_rows(os.path.join(diag_dir, "diagnostics.csv"))
    keys = [(r["param"], int(r["index"])) for r in rows]
    params = set(read_summary(fit_dir))
    _require(len(keys) == len(set(keys)) and set(keys) == params,
             f"diagnose: {len(keys)} rows for {len(params)} scalar parameters")
    for r in rows:
        ess, rhat = float(r["ess"]), float(r["rhat"])
        _require(math.isfinite(ess) and ess > 0 and math.isfinite(rhat),
                 f"diagnose: non-finite row {r}")


# ---------------------------------------------------------------------------
# metrics

def band(c: float) -> int:
    for k in range(len(BAND_LABELS) - 1):
        if BAND_EDGES[k] <= c < BAND_EDGES[k + 1]:
            return k
    return len(BAND_LABELS) - 1


def brute_force_metrics(preds: dict, panel_rows) -> dict:
    """Metric report recomputed by loops over (unit_id, row)-keyed pairs."""
    units, _, observed = panel_design(panel_rows)
    pairs = [(float(preds[(u, j)]["mean"]), c)
             for u in units for j, c in enumerate(observed[u])]
    n = len(pairs)
    err = [p - o for p, o in pairs]
    obar = math.fsum(o for _, o in pairs) / n
    ss_tot = math.fsum((o - obar) ** 2 for _, o in pairs)
    out = {
        "mae": math.fsum(abs(e) for e in err) / n,
        "rmse": math.sqrt(math.fsum(e * e for e in err) / n),
        "r_square": 1.0 - math.fsum(e * e for e in err) / ss_tot,
        "n_small_dev": sum(1 for e in err if abs(e) < SMALL_DEV),
        "mse_units": math.fsum(e * e for e in err) / n,
        "stratified": {},
    }
    for k, label in enumerate(BAND_LABELS):
        sel = [e for e, (_, o) in zip(err, pairs) if band(o) == k]
        if sel:
            out["stratified"][label] = {
                "mae": math.fsum(abs(e) for e in sel) / len(sel),
                "rmse": math.sqrt(math.fsum(e * e for e in sel) / len(sel)),
                "n": len(sel)}
        else:
            out["stratified"][label] = {"mae": float("nan"), "rmse": float("nan"), "n": 0}
    return out


def check_metrics(met_dir, pred_dir, panel_rows) -> None:
    """metrics.json equal to the keyed brute-force recomputation."""
    with open(os.path.join(met_dir, "metrics.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    mine = brute_force_metrics(read_predictions(pred_dir), panel_rows)
    for name in ("mae", "rmse", "r_square", "mse_units"):
        _require(_close(float(report[name]), mine[name]),
                 f"metrics: {name} = {report[name]}, recomputed {mine[name]!r}")
    _require(report["n_small_dev"] == mine["n_small_dev"],
             f"metrics: n_small_dev {report['n_small_dev']} != {mine['n_small_dev']}")
    _require(set(report["stratified"]) == set(BAND_LABELS),
             f"metrics: bands {sorted(report['stratified'])}")
    for label, want in mine["stratified"].items():
        got = report["stratified"][label]
        _require(got["n"] == want["n"] and _close(float(got["mae"]), want["mae"])
                 and _close(float(got["rmse"]), want["rmse"]),
                 f"metrics: band {label} {got}, recomputed {want}")
