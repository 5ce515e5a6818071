"""Getting-it-right machinery: compare forward joint draws of (theta, y)
against the successive-conditional chain (redraw y from the model, then
one Gibbs sweep). If the sweeps leave the posterior invariant the two
samplers share every moment; z-scores on a battery of statistics flag
discrepancies.
"""

import numpy as np

from glmixer.design import GroupedDesign
from glmixer.gibbs import ChainState, PriorConfig, nu_log_prior, sweep
from glmixer.inference import effective_sample_size

M, N_I, P = 3, 4, 2
BETA_PREC = 0.01  # beta ~ N(0, 10^2 I)


def geweke_priors(error_prior, reffect_prior):
    return PriorConfig(
        error_prior=error_prior, reffect_prior=reffect_prior,
        a_phi=2.0, b_phi=2.0, a_tau=2.0, b_tau=2.0,
        a_zeta_eps=2.0, b_zeta_eps=2.0, a_zeta_u=2.0, b_zeta_u=2.0,
        beta_prior_precision=BETA_PREC,
    )


def fixed_design_x(rng):
    X = np.column_stack([np.ones(M * N_I), rng.uniform(-1.0, 1.0, size=M * N_I)])
    gidx = np.repeat(np.arange(M), N_I)
    return X, gidx


def make_design(X, y, gidx):
    sizes = np.bincount(gidx)
    m = sizes.size
    xbar = np.zeros((m, P))
    ybar = np.zeros(m)
    XtX_g = np.zeros((m, P, P))
    Xty_g = np.zeros((m, P))
    yty_g = np.zeros(m)
    for g in range(m):
        sel = gidx == g
        xbar[g] = X[sel].mean(axis=0)
        ybar[g] = y[sel].mean()
        XtX_g[g] = X[sel].T @ X[sel]
        Xty_g[g] = X[sel].T @ y[sel]
        yty_g[g] = y[sel] @ y[sel]
    return GroupedDesign(X=X, y=y, group_idx=gidx, sizes=sizes,
                         unit_ids=tuple(f"G{g}" for g in range(m)),
                         xbar=xbar, ybar=ybar, XtX_g=XtX_g, Xty_g=Xty_g, yty_g=yty_g)


def draw_prior_state(rng, priors):
    """One forward draw of all model parameters from their priors."""
    beta = rng.standard_normal(P) / np.sqrt(BETA_PREC)
    a_t, b_t = priors.tau_hyper
    a_p, b_p = priors.phi_hyper
    tau = rng.standard_gamma(a_t) / b_t
    phi = rng.standard_gamma(a_p) / b_p
    lam = np.ones(M)
    rho = np.ones(M)
    if priors.error_prior == "half-cauchy":
        v = rng.uniform(size=M)
        lam = v / (1.0 - v)                       # density (1 + lam)^-2
        rho = rng.standard_gamma(2.0, size=M) / (lam + 1.0)
    omega = np.ones(M)
    varrho = np.ones(M)
    nu = np.full(M, 5, dtype=np.intp)
    if priors.reffect_prior == "horseshoe":
        x = rng.beta(0.5, 0.5, size=M)
        omega = x / (1.0 - x)                     # Beta-prime(1/2, 1/2)
        varrho = rng.standard_gamma(1.0, size=M) / (omega + 1.0)
    elif priors.reffect_prior == "laplace":
        omega = 1.0 / rng.exponential(1.0, size=M)
    elif priors.reffect_prior == "student-t":
        logw = nu_log_prior(priors)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        nu = np.asarray(priors.nu_support, dtype=np.intp)[
            rng.choice(len(w), size=M, p=w)]
        nv = nu.astype(np.float64)
        omega = rng.standard_gamma(nv / 2.0) / (nv / 2.0)
    u = rng.standard_normal(M) / np.sqrt(omega * phi)
    # no data yet: the beta step computes rss before anything reads it
    return ChainState(beta=beta, u=u, tau=tau, phi=phi, omega=omega,
                      lam=lam, rho=rho, varrho=varrho, nu=nu, rss=np.full(M, np.nan))


def draw_data(rng, state, X, gidx):
    theta = X @ state.beta + state.u[gidx]
    sd = 1.0 / np.sqrt(state.lam[gidx] * state.tau)
    return theta + sd * rng.standard_normal(X.shape[0])


def statistics(state, y, priors):
    """Battery of joint-distribution statistics; identical for both samplers."""
    stats = [
        state.beta[0], state.beta[1],
        np.log(state.tau), np.log(state.phi),
        state.u.mean(), float(state.u @ state.u),
        y.mean(), float(y @ y) / y.size,
    ]
    if priors.error_prior == "half-cauchy":
        stats.append(np.log(state.lam).mean())
        stats.append(state.rho.mean())
    if priors.reffect_prior in ("horseshoe", "laplace", "student-t"):
        stats.append(np.log(state.omega).mean())
    if priors.reffect_prior == "horseshoe":
        stats.append(state.varrho.mean())
    if priors.reffect_prior == "student-t":
        stats.append(state.nu.mean())
    return np.asarray(stats, dtype=np.float64)


def forward_sample(rng, priors, X, gidx, n):
    """Vectorized iid draws from the joint (parameters, data)."""
    beta = rng.standard_normal((n, P)) / np.sqrt(BETA_PREC)
    a_t, b_t = priors.tau_hyper
    a_p, b_p = priors.phi_hyper
    tau = rng.standard_gamma(a_t, size=n) / b_t
    phi = rng.standard_gamma(a_p, size=n) / b_p
    lam = np.ones((n, M))
    rho = np.ones((n, M))
    if priors.error_prior == "half-cauchy":
        v = rng.uniform(size=(n, M))
        lam = v / (1.0 - v)
        rho = rng.standard_gamma(2.0, size=(n, M)) / (lam + 1.0)
    omega = np.ones((n, M))
    varrho = np.ones((n, M))
    nu = np.full((n, M), 5.0)
    if priors.reffect_prior == "horseshoe":
        x = rng.beta(0.5, 0.5, size=(n, M))
        omega = x / (1.0 - x)
        varrho = rng.standard_gamma(1.0, size=(n, M)) / (omega + 1.0)
    elif priors.reffect_prior == "laplace":
        omega = 1.0 / rng.exponential(1.0, size=(n, M))
    elif priors.reffect_prior == "student-t":
        logw = nu_log_prior(priors)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        nu = np.asarray(priors.nu_support, dtype=np.float64)[
            rng.choice(len(w), size=(n, M), p=w)]
        omega = rng.standard_gamma(nu / 2.0) / (nu / 2.0)
    u = rng.standard_normal((n, M)) / np.sqrt(omega * phi[:, None])
    theta = beta @ X.T + u[:, gidx]
    sd = 1.0 / np.sqrt(lam[:, gidx] * tau[:, None])
    y = theta + sd * rng.standard_normal((n, X.shape[0]))
    cols = [beta[:, 0], beta[:, 1], np.log(tau), np.log(phi),
            u.mean(axis=1), np.einsum("ij,ij->i", u, u),
            y.mean(axis=1), np.einsum("ij,ij->i", y, y) / y.shape[1]]
    if priors.error_prior == "half-cauchy":
        cols.append(np.log(lam).mean(axis=1))
        cols.append(rho.mean(axis=1))
    if priors.reffect_prior in ("horseshoe", "laplace", "student-t"):
        cols.append(np.log(omega).mean(axis=1))
    if priors.reffect_prior == "horseshoe":
        cols.append(varrho.mean(axis=1))
    if priors.reffect_prior == "student-t":
        cols.append(nu.mean(axis=1))
    return np.column_stack(cols)


def _set_y(design, y):
    """Refresh the y-dependent aggregates of a frozen GroupedDesign in place."""
    yg = y.reshape(M, N_I)
    object.__setattr__(design, "y", y)
    object.__setattr__(design, "ybar", yg.mean(axis=1))
    object.__setattr__(design, "Xty_g",
                       np.einsum("gij,gi->gj", design.X.reshape(M, N_I, P), yg))
    object.__setattr__(design, "yty_g", (yg * yg).sum(axis=1))


def successive_sample(rng, priors, X, gidx, n):
    state = draw_prior_state(rng, priors)
    design = make_design(X, np.zeros(X.shape[0]), gidx)
    out = None
    for t in range(n):
        y = draw_data(rng, state, X, gidx)
        _set_y(design, y)
        sweep(state, design, priors, rng)
        s = statistics(state, y, priors)
        if out is None:
            out = np.empty((n, s.size))
        out[t] = s
    return out


def geweke_zscores(error_prior, reffect_prior, n=100_000, seed=0):
    priors = geweke_priors(error_prior, reffect_prior)
    rng = np.random.default_rng(seed)
    X, gidx = fixed_design_x(rng)
    fwd = forward_sample(rng, priors, X, gidx, n)
    suc = successive_sample(rng, priors, X, gidx, n)
    z = np.empty(fwd.shape[1])
    for j in range(fwd.shape[1]):
        f, s = fwd[:, j], suc[:, j]
        ess = effective_sample_size(s[None, :])
        se2 = f.var(ddof=1) / f.size + s.var(ddof=1) / ess
        z[j] = (f.mean() - s.mean()) / np.sqrt(se2)
    return z
