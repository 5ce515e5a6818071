"""Getting-it-right machinery (Geweke 2004): compare forward joint draws
of (theta, y) against successive-conditional chains (redraw y from the
model, then one Gibbs sweep). If the sweeps leave the posterior invariant
the two samplers share every moment; z-scores on a battery of statistics
flag discrepancies.

The successive-conditional side is CHAINS independent chains swept in
lockstep by `gibbs.sweep` on a (CHAINS, .) ChainState, with one
Generator per chain: the path `fit` runs. Each chain starts from its own
prior draw and redraws its own y, so the design's y aggregates (`ybar`,
`Xty_g`, `yty_g`) carry the chain axis too. Every draw of the model here
is over a leading axis: n forward draws, or one per chain.
"""

import numpy as np

from glmixer.design import GroupedDesign
from glmixer.gibbs import ChainState, PriorConfig, nu_log_prior, sweep
from glmixer.inference import effective_sample_size
from glmixer.kernels import RngStream

M, N_I, P = 3, 4, 2
BETA_PREC = 0.01  # beta ~ N(0, 10^2 I)
CHAINS = 16


def geweke_priors(error_prior, reffect_prior):
    return PriorConfig(
        error_prior=error_prior, reffect_prior=reffect_prior,
        a_phi=2.0, b_phi=2.0, a_tau=2.0, b_tau=2.0,
        beta_prior_precision=BETA_PREC,
    )


def fixed_design(rng):
    """M groups of N_I rows of an intercept and a uniform covariate; the
    y aggregates are left to `set_y`."""
    X = np.column_stack([np.ones(M * N_I), rng.uniform(-1.0, 1.0, size=M * N_I)])
    Xg = X.reshape(M, N_I, P)
    return GroupedDesign(X=X, y=None, group_idx=np.repeat(np.arange(M), N_I),
                         sizes=np.full(M, N_I), unit_ids=tuple(f"G{g}" for g in range(M)),
                         xbar=Xg.mean(axis=1), ybar=None,
                         XtX_g=np.einsum("gij,gik->gjk", Xg, Xg), Xty_g=None, yty_g=None)


def set_y(design, y):
    """Set the y aggregates of the frozen design in place, one row per
    row of y (C, M N_I), and drop the cached tables that hold y sums
    (`beta_sums`, `rss_sums`), so the next sweep builds them from these;
    its other cached per-fit constants do not read y."""
    yg = y.reshape(-1, M, N_I)
    object.__setattr__(design, "ybar", yg.mean(axis=2))
    object.__setattr__(design, "Xty_g",
                       np.einsum("gij,cgi->cgj", design.X.reshape(M, N_I, P), yg))
    object.__setattr__(design, "yty_g", np.einsum("cgi,cgi->cg", yg, yg))
    for name in ("beta_sums", "rss_sums"):
        design.__dict__.pop(name, None)


def draw_prior(rng, priors, n):
    """n independent draws of all model parameters from their priors, as a
    ChainState with a leading axis of n."""
    beta = rng.standard_normal((n, P)) / np.sqrt(BETA_PREC)
    tau = rng.standard_gamma(priors.a_tau, size=n) / priors.b_tau
    phi = rng.standard_gamma(priors.a_phi, size=n) / priors.b_phi
    lam, rho = np.ones((n, M)), np.ones((n, M))
    if priors.error_prior == "half-cauchy":
        v = rng.uniform(size=(n, M))
        lam = v / (1.0 - v)                       # density (1 + lam)^-2
        rho = rng.standard_gamma(2.0, size=(n, M)) / (lam + 1.0)
    omega, varrho = np.ones((n, M)), np.ones((n, M))
    nu = np.full((n, M), 5, dtype=np.intp)
    if priors.reffect_prior == "horseshoe":
        x = rng.beta(0.5, 0.5, size=(n, M))
        omega = x / (1.0 - x)                     # Beta-prime(1/2, 1/2)
        varrho = rng.standard_gamma(1.0, size=(n, M)) / (omega + 1.0)
    elif priors.reffect_prior == "laplace":
        omega = 1.0 / rng.exponential(1.0, size=(n, M))
    elif priors.reffect_prior == "student-t":
        logw = nu_log_prior(priors)
        w = np.exp(logw - logw.max())
        nu = np.asarray(priors.nu_support, dtype=np.intp)[
            rng.choice(w.size, size=(n, M), p=w / w.sum())]
        omega = rng.standard_gamma(nu / 2.0) / (nu / 2.0)
    u = rng.standard_normal((n, M)) / np.sqrt(omega * phi[:, None])
    # no data yet: the beta step computes rss before anything reads it
    return ChainState(beta=beta, u=u, tau=tau, phi=phi, omega=omega, lam=lam, rho=rho,
                      varrho=varrho, nu=nu, rss=np.full((n, M), np.nan))


def draw_data(rng, state, X, gidx):
    """One y (M N_I,) from the model per row of the state: (n, M N_I)."""
    theta = state.beta @ X.T + state.u[:, gidx]
    sd = 1.0 / np.sqrt(state.lam[:, gidx] * state.tau[:, None])
    return theta + sd * rng.standard_normal(theta.shape)


def statistics(state, y, priors):
    """Battery of joint-distribution statistics, one row per row of the
    state; identical for both samplers. The squared norms enter as logs:
    under phi ~ Gamma(2, 2), E[phi^-2] is infinite, so u'u and y'y have
    infinite variance and their z-scores would not be standard normal."""
    cols = [state.beta[:, 0], state.beta[:, 1], np.log(state.tau), np.log(state.phi),
            state.u.mean(axis=1), np.log(np.einsum("ij,ij->i", state.u, state.u)),
            y.mean(axis=1), np.log(np.einsum("ij,ij->i", y, y) / y.shape[1])]
    if priors.error_prior == "half-cauchy":
        cols += [np.log(state.lam).mean(axis=1), state.rho.mean(axis=1)]
    if priors.reffect_prior != "gamma":
        cols.append(np.log(state.omega).mean(axis=1))
    if priors.reffect_prior == "horseshoe":
        cols.append(state.varrho.mean(axis=1))
    if priors.reffect_prior == "student-t":
        cols.append(state.nu.mean(axis=1))
    return np.column_stack(cols)


def geweke_zscores(error_prior, reffect_prior, n=100_000, seed=0):
    """z-scores of the battery's means: n forward draws against CHAINS
    chains of n // CHAINS successive draws, whose standard error uses the
    ESS pooled over the chains."""
    priors = geweke_priors(error_prior, reffect_prior)
    rng = np.random.default_rng(seed)
    design = fixed_design(rng)
    X, gidx = design.X, design.group_idx
    state = draw_prior(rng, priors, n)
    fwd = statistics(state, draw_data(rng, state, X, gidx), priors)
    state = draw_prior(rng, priors, CHAINS)
    rngs = [RngStream(seed, c).generator() for c in range(CHAINS)]
    suc = np.empty((CHAINS, n // CHAINS, fwd.shape[1]))
    for t in range(n // CHAINS):
        y = draw_data(rng, state, X, gidx)
        set_y(design, y)
        sweep(state, design, priors, rngs)
        suc[:, t] = statistics(state, y, priors)
    z = np.empty(fwd.shape[1])
    for j in range(fwd.shape[1]):
        f, s = fwd[:, j], suc[:, :, j]
        se2 = f.var(ddof=1) / f.size + s.var(ddof=1) / effective_sample_size(s)
        z[j] = (f.mean() - s.mean()) / np.sqrt(se2)
    return z
