"""Gibbs sweeps for the hierarchical mixed model with Global-Local priors.

Model: y_ij = x_ij' beta + u_i + e_ij, e_ij ~ N(0, 1/(lambda_i tau)),
u_i ~ N(0, 1/(omega_i phi)), flat prior on beta, Gamma priors on the
global precisions, and the configured local priors on lambda_i / omega_i.
The "gamma" settings collapse the local scales to 1 and make the global
precision the common zeta of the comparison model; it keeps its Gamma
prior, (a_tau, b_tau) or (a_phi, b_phi), and takes the display name
zeta_eps or zeta_u.

Full conditionals are derived from the joint posterior. Where the source
material's printed steps disagree with that derivation (the beta
covariance factor, the tau/phi Gamma shapes, and the Student-t omega
rate), the derived forms are used: they are the ones with the model as
stationary distribution, which the getting-it-right tests verify.

A sweep reads only the design's per-group sufficient statistics and its
per-fit constants (see `GroupedDesign`), never the n data rows: the beta
conditional and the residual sums of squares are closed forms in them.

`sweep` has one draw path: one Generator per chain, and each step run
once on (C, .) arrays (a lone chain may drop the axis). Each chain's
normals and rate-free Gammas are drawn up front from its own Generator,
in the order the steps read them; the steps scale them by their rates,
and each Gamma shape is defined once, in `gamma_shape`. The Student-t nu
categorical is one call for all chains; Laplace's Wald draws and
Student-t's uniforms and omega Gammas are drawn chain by chain. Chain k
of `run_chains` draws from RngStream(seed, k) alone, so its draws do not
depend on how many chains run. Called alone, a step draws from its rng.
The nu prior's log-Gamma normalizer is the standard library's
`math.lgamma`, so a fit loads no scipy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .defaults import DEFAULT_BURN_IN, DEFAULT_CHAINS, DEFAULT_N_ITER, DEFAULT_THIN
from .design import GroupedDesign, ModelSpec, build_matrices
from .errors import GlmixerError, NumericalError, ValidationError
from .kernels import (RngStream, draw_categorical_log, draw_gamma, draw_gig,
                      draw_mvn_whitened, draw_standard, matvec, vecmat,
                      whitening_from_precision)

ERROR_PRIORS = ("gamma", "half-cauchy")
REFFECT_PRIORS = ("gamma", "student-t", "horseshoe", "laplace")
NU_WEIGHTS = ("algorithm3", "prose")

INIT_SCALE_MIN = 1e-6
INIT_SCALE_MAX = 1e6


@dataclass(frozen=True)
class PriorConfig:
    error_prior: str = "half-cauchy"
    reffect_prior: str = "horseshoe"
    a_phi: float = 1e-10
    b_phi: float = 1e-10
    a_tau: float = 1e-10
    b_tau: float = 1e-10
    k_nu: float = 2.84
    nu_support: tuple = tuple(range(1, 31))
    nu_weight: str = "algorithm3"
    # 0 = the flat improper prior; positive values give beta a proper
    # N(0, 1/precision I) prior (needed by forward simulation in tests).
    beta_prior_precision: float = 0.0

    def __post_init__(self):
        if self.error_prior not in ERROR_PRIORS:
            raise ValidationError(f"error_prior must be one of {ERROR_PRIORS}")
        if self.reffect_prior not in REFFECT_PRIORS:
            raise ValidationError(f"reffect_prior must be one of {REFFECT_PRIORS}")
        if self.nu_weight not in NU_WEIGHTS:
            raise ValidationError(f"nu_weight must be one of {NU_WEIGHTS}")
        for name in ("a_phi", "b_phi", "a_tau", "b_tau", "k_nu"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")
        if not self.nu_support or any(
                (not isinstance(v, (int, np.integer))) or v <= 0 for v in self.nu_support):
            raise ValidationError("nu_support must be a non-empty tuple of positive integers")
        if self.beta_prior_precision < 0:
            raise ValidationError("beta_prior_precision must be >= 0")

    @property
    def tau_name(self) -> str:
        return "zeta_eps" if self.error_prior == "gamma" else "tau"

    @property
    def phi_name(self) -> str:
        return "zeta_u" if self.reffect_prior == "gamma" else "phi"

    @property
    def recorded(self) -> dict:
        """Trace key -> ChainState attribute of each quantity the sampler
        draws, in the order of a chain file's columns: omega only under a
        local random-effect prior, lambda only under Half-Cauchy errors,
        nu only under Student-t. The common-Gamma settings hold omega and
        lambda at 1 and never draw them, so they are not recorded."""
        keys = {"beta": "beta", "u": "u", "tau": "tau", "phi": "phi"}
        if self.reffect_prior != "gamma":
            keys["omega"] = "omega"
        if self.error_prior == "half-cauchy":
            keys["lambda"] = "lam"
        if self.reffect_prior == "student-t":
            keys["nu"] = "nu"
        return keys

    @functools.cached_property
    def _nu_t_terms(self):
        """Support-only terms of the nu_i conditional as (|support|, 1)
        columns, computed once per config: log prior, log Student-t
        normalizer, (nu + 1) / 2 and nu."""
        df = np.asarray(self.nu_support, dtype=np.float64)
        gammaln = np.vectorize(math.lgamma, otypes=[np.float64])
        terms = (nu_log_prior(self),
                 gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * math.pi),
                 (df + 1.0) / 2.0, df)
        terms = tuple(a[:, None] for a in terms)
        for a in terms:
            a.setflags(write=False)
        return terms

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "error_prior", "reffect_prior", "a_phi", "b_phi", "a_tau", "b_tau", "k_nu",
            "nu_weight", "beta_prior_precision")}
        d["nu_support"] = list(self.nu_support)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PriorConfig":
        d = dict(d)
        d["nu_support"] = tuple(int(v) for v in d["nu_support"])
        return cls(**d)


@dataclass
class ChainState:
    """One chain's state; C chains in lockstep add a leading axis to each field."""

    beta: np.ndarray       # (p,)
    u: np.ndarray          # (m,)
    tau: float             # global error precision (zeta_eps under common Gamma)
    phi: float             # global random-effect precision (zeta_u under common Gamma)
    omega: np.ndarray      # (m,) local effect precisions, 1 under common Gamma
    lam: np.ndarray        # (m,) local error precisions, 1 under common Gamma
    rho: np.ndarray        # (m,) Half-Cauchy auxiliaries for lam
    varrho: np.ndarray     # (m,) Horseshoe auxiliaries for omega
    nu: np.ndarray         # (m,) int, Student-t degrees of freedom
    rss: np.ndarray        # (m,) per-unit residual sums of squares at beta and u,
                           # refreshed by the beta step for the tau and lambda steps


@dataclass(frozen=True)
class Trace:
    """Kept draws from one chain plus run metadata."""

    draws: dict                  # name -> array, leading dim = kept count
    seed: int
    chain_id: int
    n_iter: int
    burn_in: int
    thin: int
    priors: PriorConfig
    spec: ModelSpec
    unit_ids: tuple
    sizes: tuple

    @property
    def kept(self) -> int:
        return self.draws["beta"].shape[0]


# ---------------------------------------------------------------------------
# conditional-parameter helpers (pure, unit-testable) and the draw steps, for
# one chain or C in lockstep (see ChainState), each chain with its own bits


def _col(x, axes=1):
    """A per-chain scalar: one chain's number, or (C,) with `axes` axes added."""
    return x.reshape(x.shape + (1,) * axes) if isinstance(x, np.ndarray) else x


def u_conditional(state: ChainState, design: GroupedDesign):
    """Per-group (mean, variance, gamma) of the u_i full conditional.

    gamma_i = lam_i tau / (lam_i tau + omega_i phi / n_i); the mean is
    gamma_i times the group mean residual and the variance is
    gamma_i / (n_i lam_i tau).
    """
    n_i = design.sizes
    lt = state.lam * _col(state.tau)
    of = state.omega * _col(state.phi)
    gamma = lt / (lt + of / n_i)
    resid = design.ybar - matvec(design.xbar, state.beta)
    return gamma * resid, gamma / (n_i * lt), gamma


def step_u(state: ChainState, design: GroupedDesign, rng, z=None) -> None:
    """u from its conditional; the normals are z["u"] (see `sweep`) or rng's."""
    mean, var, _ = u_conditional(state, design)
    state.u = mean + np.sqrt(var) * (rng.standard_normal(design.m) if z is None else z["u"])


def _beta_rhs(state: ChainState, design: GroupedDesign) -> np.ndarray:
    """b = tau sum_i lam_i (X_i'y_i - u_i n_i xbar_i), from the per-group sums."""
    lam = state.lam
    return _col(state.tau) * (vecmat(lam, design.Xty_g)
                              - vecmat(lam * state.u * design.sizes, design.xbar))


def beta_conditional(state: ChainState, design: GroupedDesign, prior_precision: float = 0.0):
    """Precision matrix P and right-hand side b of the beta conditional
    N(P^-1 b, P^-1), with P = tau sum_i lam_i X_i'X_i (+ prior precision),
    as one mat-vec over the flattened XtX_g."""
    m, p = design.m, design.p
    XtX = vecmat(state.lam, design.XtX_g.reshape(m, p * p))
    P = _col(state.tau, 2) * XtX.reshape(XtX.shape[:-1] + (p, p))
    if prior_precision > 0.0:
        P = P + prior_precision * np.eye(p)
    return _beta_rhs(state, design), P


def step_beta(state: ChainState, design: GroupedDesign, priors: PriorConfig, rng,
              z=None) -> None:
    """Draw beta, then refresh state.rss: u was drawn just before and the
    later steps of a sweep change neither, so one RSS serves tau and lambda.

    Under gamma errors lam = 1, so P = tau X'X + kappa I = V diag(tau Lambda
    + kappa) V' with the design's once-per-fit eigendecomposition X'X =
    V Lambda V', and W = (V / sqrt(tau Lambda + kappa))' whitens it without
    a factorization. Otherwise P is factored each sweep.
    """
    noise = None if z is None else z["beta"]
    if priors.error_prior == "gamma":
        evals, evecs = design.xtx_eigh
        scale = np.sqrt(_col(state.tau) * evals + priors.beta_prior_precision)
        W = np.swapaxes(evecs / scale[..., None, :], -1, -2)
        state.beta = draw_mvn_whitened(rng, _beta_rhs(state, design), W, noise)
    else:
        rhs, P = beta_conditional(state, design, priors.beta_prior_precision)
        state.beta = draw_mvn_whitened(rng, rhs, whitening_from_precision(P), noise)
    state.rss = rss_closed_form(state.beta, state.u, design)


def rss_closed_form(beta: np.ndarray, u: np.ndarray, design: GroupedDesign) -> np.ndarray:
    """Per-group residual sums of squares sum_j (y_ij - x_ij'beta - u_i)^2
    from the per-group sums:

        y'y - 2 beta'X'y + beta'X'X beta + n u (u - 2 (ybar - xbar'beta)),

    with beta'X'X beta as one mat-vec of the flattened XtX_g against
    beta beta'. Clipped at 0, because cancellation can leave a tiny
    negative value where every residual is near zero."""
    m, p = design.m, design.p
    outer = (beta[..., :, None] * beta[..., None, :]).reshape(beta.shape[:-1] + (p * p,))
    rss = (design.yty_g - 2.0 * matvec(design.Xty_g, beta)
           + matvec(design.XtX_g.reshape(m, p * p), outer))
    rss += design.sizes * u * (u - 2.0 * (design.ybar - matvec(design.xbar, beta)))
    return np.maximum(rss, 0.0, out=rss)


_CONSTANT_SHAPES = {"rho": 2.0, "omega": 1.0, "varrho": 1.0}  # omega, varrho: horseshoe


def gamma_shape(name: str, design: GroupedDesign = None, priors: PriorConfig = None):
    """The shape of the Gamma conditional drawn as `name`, a per-fit constant, defined
    only here and in `_CONSTANT_SHAPES`: the helpers, steps and `_sweep_layout` read it."""
    if name == "tau":
        return 0.5 * design.n + priors.a_tau  # n/2 + a
    if name == "phi":
        return 0.5 * design.m + priors.a_phi  # m/2 + a
    if name == "lam":
        return design.lambda_shape  # n_i/2 + 1
    return _CONSTANT_SHAPES[name]


def tau_conditional(state: ChainState, design: GroupedDesign, priors: PriorConfig):
    """(shape, rate) of the error global precision:
    Gamma(n/2 + a_tau, (1/2) sum_i lam_i RSS_i + b_tau), with RSS from state.rss;
    the sum is a (1 x m) (m x 1) product, per chain."""
    rate = 0.5 * vecmat(state.lam, state.rss[..., None])[..., 0] + priors.b_tau
    return gamma_shape("tau", design, priors), rate


def phi_conditional(state: ChainState, design: GroupedDesign, priors: PriorConfig):
    """(shape, rate) of the effect global precision:
    Gamma(m/2 + a_phi, (1/2) sum_i omega_i u_i^2 + b_phi)."""
    u2 = (state.u * state.u)[..., None]
    rate = 0.5 * vecmat(state.omega, u2)[..., 0] + priors.b_phi
    return gamma_shape("phi", design, priors), rate


def _gamma(rng, z, name, shape, rate, size=None):
    """Gamma(shape, rate) draws from the sweep's standard draws z[name], or rng's."""
    return draw_gamma(rng, shape, rate, size, None if z is None else z[name])


def step_global_scales(state: ChainState, design: GroupedDesign, priors: PriorConfig,
                       rng, fixed=(), z=None) -> None:
    if "tau" not in fixed:
        state.tau = _gamma(rng, z, "tau", *tau_conditional(state, design, priors))
    if "phi" not in fixed:
        state.phi = _gamma(rng, z, "phi", *phi_conditional(state, design, priors))


def lambda_conditional(state: ChainState, design: GroupedDesign):
    """(shape, rate) of lam_i ~ Gamma(n_i/2 + 1, (tau/2) RSS_i + rho_i),
    with RSS from state.rss. The shape is the design's per-fit constant:
    one float for a balanced panel, else one entry per unit."""
    return gamma_shape("lam", design), 0.5 * _col(state.tau) * state.rss + state.rho


def step_lambda_halfcauchy(state: ChainState, design: GroupedDesign, rng, z=None) -> None:
    """Auxiliary two-Gamma update with stationary prior (1 + lam)^-2."""
    shape, rate = lambda_conditional(state, design)
    state.lam = _gamma(rng, z, "lam", shape, rate, size=design.m)
    state.rho = _gamma(rng, z, "rho", gamma_shape("rho"), state.lam + 1.0, size=design.m)


def nu_log_prior(priors: PriorConfig) -> np.ndarray:
    """Unnormalized log prior over the discrete nu support.

    'algorithm3' is the gamma-gamma form l / (l + k)^3; 'prose' is the
    lighter l / (l + k)."""
    l = np.asarray(priors.nu_support, dtype=np.float64)
    if priors.nu_weight == "algorithm3":
        return np.log(l) - 3.0 * np.log(l + priors.k_nu)
    return np.log(l) - np.log(l + priors.k_nu)


def nu_log_weights(u: np.ndarray, phi, priors: PriorConfig) -> np.ndarray:
    """(m, |support|) log weights of one chain's nu_i conditional, or
    (C, m, |support|) for C chains' u (C, m) and phi (C,): log prior plus
    the log Student-t density of u_i at scale sqrt(1/phi).

    Built support-major with in-place ops, so every operation runs along
    the units (and chains), and returned as the view with the support last."""
    terms = priors._nu_t_terms
    if u.ndim > 1:
        terms = [t[..., None] for t in terms]
    log_prior, log_norm, half_df1, df = terms
    scale = np.sqrt(1.0 / phi)
    z = u / _col(scale)
    w = z * z / df
    np.log1p(w, out=w)
    w *= half_df1
    np.subtract(log_norm - _col(np.log(scale)), w, out=w)
    w += log_prior
    return w.transpose(*range(1, w.ndim), 0)


def omega_conditional_horseshoe(phiu2, varrho):
    """(shape, rate) of the Horseshoe omega conditional Gamma(1, phi u^2 / 2 + varrho)."""
    return gamma_shape("omega"), 0.5 * np.asarray(phiu2) + varrho


def omega_conditional_student_t(phiu2, nu):
    """(shape, rate) of the Student-t omega conditional
    Gamma(nu/2 + 1/2, phi u^2 / 2 + nu/2)."""
    return 0.5 * np.asarray(nu) + 0.5, 0.5 * np.asarray(phiu2) + 0.5 * np.asarray(nu)


def _each_chain(rng, draw, *args):
    """draw(g, *rows) stacked over each chain's Generator g and rows of args
    (a failing chain is the error's `row`); draw(rng, *args) for one chain."""
    if isinstance(rng, np.random.Generator):
        return draw(rng, *args)
    out = []
    for c, g in enumerate(rng):
        try:
            out.append(draw(g, *(a[c] for a in args)))
        except (GlmixerError, ArithmeticError, ValueError) as exc:
            exc.row = c
            raise
    return np.stack(out)


def step_omega(state: ChainState, priors: PriorConfig, rng, z=None) -> None:
    """Local random-effect precisions by family.

    Horseshoe: omega ~ Gamma(1, phi u^2/2 + varrho), varrho ~ Gamma(1, omega+1).
    Laplace: omega ~ GIG(-1/2, phi u^2, 2).
    Student-t: nu_i from its collapsed conditional (before omega, so the
    pair is a valid blocked draw), then omega ~ Gamma(nu/2 + 1/2,
    phi u^2/2 + nu/2). These draw from each chain's own Generator, not
    from the sweep's up-front standard draws. The nu categorical is one
    call for all chains, with one uniform call per chain; Laplace's Wald
    draws and Student-t's omega Gammas run chain by chain.
    """
    m = state.u.shape[-1]
    phiu2 = _col(state.phi) * state.u * state.u
    if priors.reffect_prior == "horseshoe":
        shape, rate = omega_conditional_horseshoe(phiu2, state.varrho)
        state.omega = _gamma(rng, z, "omega", shape, rate, size=m)
        state.varrho = _gamma(rng, z, "varrho", gamma_shape("varrho"), state.omega + 1.0, size=m)
    elif priors.reffect_prior == "laplace":
        state.omega = _each_chain(rng, lambda g, a: draw_gig(g, a, 2.0), phiu2)
    elif priors.reffect_prior == "student-t":
        idx = draw_categorical_log(rng, nu_log_weights(state.u, state.phi, priors))
        state.nu = np.asarray(priors.nu_support)[idx]
        shape, rate = omega_conditional_student_t(phiu2, state.nu.astype(np.float64))
        state.omega = _each_chain(rng, draw_gamma, shape, rate)
    # common Gamma: omega stays 1 and phi is the common zeta_u


def _sweep_layout(design: GroupedDesign, priors: PriorConfig, fixed=()):
    """A sweep's standard Gamma draws in draw order as runs (shape, slice)
    of one `gamma_shape`: a float, or one shape per unit for lambda on an
    unbalanced panel; equal float runs are merged. Also {name: index or
    slice} of each draw."""
    names = [name for name in ("tau", "phi") if name not in fixed]
    if priors.error_prior == "half-cauchy":
        names += ["lam", "rho"]
    if priors.reffect_prior == "horseshoe":
        names += ["omega", "varrho"]
    runs, at, end = [], {}, 0
    for name in names:
        shape = gamma_shape(name, design, priors)
        scalar = name in ("tau", "phi")
        count = 1 if scalar else design.m
        at[name] = end if scalar else slice(end, end + count)
        last = runs[-1][0] if runs else None
        if isinstance(shape, float) and isinstance(last, float) and last == shape:
            runs[-1] = (shape, slice(runs[-1][1].start, end + count))
        else:
            runs.append((shape, slice(end, end + count)))
        end += count
    return tuple(runs), at


def sweep(state: ChainState, design: GroupedDesign, priors: PriorConfig, rngs,
          fixed=(), layout=None) -> None:
    """One full Gibbs cycle in the fixed order u, beta, global scales (less
    the `fixed` ones), lambda/rho (Half-Cauchy errors only), omega block.

    rngs holds one Generator per chain of `state`; a lone Generator is
    taken as the one-chain list [rng]. Each chain's normals and rate-free
    standard Gammas come first, one normal call and one Gamma call per
    run of equal shapes on its Generator (`layout`: `_sweep_layout`'s);
    they are the doubles the steps would draw from it in turn, and the
    steps scale them. A state without the chain axis is one chain.
    A failed draw's error gets the `step` it failed in and the failing
    chain's `row`.
    """
    if isinstance(rngs, np.random.Generator):
        rngs = [rngs]
    step = "u"
    try:
        runs, at = layout or _sweep_layout(design, priors, fixed)
        zn, zg = draw_standard(rngs, design.m + design.p, runs)
        if state.u.ndim == 1:  # a lone chain, held without the chain axis
            (rngs,), zn, zg = rngs, zn[0], zg[0]
        z = {"u": zn[..., :design.m], "beta": zn[..., design.m:],
             **{name: zg[..., where] for name, where in at.items()}}
        step_u(state, design, rngs, z)
        step = "beta"
        step_beta(state, design, priors, rngs, z)
        step = "scales"
        step_global_scales(state, design, priors, rngs, fixed, z)
        if priors.error_prior == "half-cauchy":
            step = "lambda"
            step_lambda_halfcauchy(state, design, rngs, z)
        if priors.reffect_prior != "gamma":
            step = "omega"
            step_omega(state, priors, rngs, z)
    except (GlmixerError, ArithmeticError, ValueError) as exc:
        exc.step = step
        if state.u.ndim == 1:
            exc.row = 0
        raise


def initialize_state(design: GroupedDesign, priors: PriorConfig, rng=None) -> ChainState:
    """OLS-anchored start: beta from least squares (zero on failure),
    u from group mean residuals, precisions from inverse residual
    variances clamped to [1e-6, 1e6], all auxiliaries at 1, nu at 5."""
    m, p = design.m, design.p
    try:
        beta, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        if not np.all(np.isfinite(beta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        beta = np.zeros(p)
    r = design.y - design.X @ beta
    u = np.bincount(design.group_idx, weights=r, minlength=m) / design.sizes
    resid = r - u[design.group_idx]
    var_e = float(resid @ resid) / max(design.n, 1)
    var_u = float(u @ u) / max(m, 1)
    tau = float(np.clip(1.0 / var_e if var_e > 0 else np.inf, INIT_SCALE_MIN, INIT_SCALE_MAX))
    phi = float(np.clip(1.0 / var_u if var_u > 0 else np.inf, INIT_SCALE_MIN, INIT_SCALE_MAX))
    nu_init = 5 if 5 in priors.nu_support else int(priors.nu_support[0])
    return ChainState(
        beta=beta, u=u, tau=tau, phi=phi,
        omega=np.ones(m), lam=np.ones(m),
        rho=np.ones(m), varrho=np.ones(m),
        nu=np.full(m, nu_init, dtype=np.intp),
        rss=np.bincount(design.group_idx, weights=resid * resid, minlength=m),
    )


def run_chain(panel_or_design, spec: ModelSpec, priors: PriorConfig,
              n_iter: int = DEFAULT_N_ITER, burn_in: int = DEFAULT_BURN_IN,
              thin: int = DEFAULT_THIN, seed: int = 0, stream_id: int = 0,
              fixed: Optional[dict] = None) -> Trace:
    """`run_chains` on the one stream RngStream(seed, stream_id)."""
    return run_chains(panel_or_design, spec, priors, n_iter=n_iter, burn_in=burn_in,
                      thin=thin, seed=seed, chains=(stream_id,), fixed=fixed)[0]


def run_chains(panel_or_design, spec: ModelSpec, priors: PriorConfig, *,
               n_iter: int = DEFAULT_N_ITER, burn_in: int = DEFAULT_BURN_IN,
               thin: int = DEFAULT_THIN, seed: int = 0, chains=DEFAULT_CHAINS,
               fixed: Optional[dict] = None) -> list:
    """The Traces of `chains` chains on streams 0, 1, ... (or on the stream
    ids given), sampled in lockstep in this process. Chain k draws from
    RngStream(seed, k) alone, so its Trace does not depend on the others.
    A Trace holds the keys of `priors.recorded`, the quantities the
    sampler draws, and at least one kept draw: a run that would keep none
    is refused before any sweep.

    `fixed` pins the global precisions tau and/or phi (e.g. {"phi": 100.0})
    for diagnostics and oracle tests; pinned values must be finite and
    > 0, are set before sampling and never redrawn. A failed draw (every
    kernel checks its parameters) raises NumericalError naming the lowest
    failing chain, the iteration and the step.
    """
    if not (n_iter > burn_in >= 0):
        raise ValidationError(f"need n_iter > burn_in >= 0, got {n_iter}, {burn_in}")
    if thin < 1:
        raise ValidationError(f"thin must be >= 1, got {thin}")
    kept = (n_iter - burn_in) // thin
    if kept < 1:
        raise ValidationError(f"(n_iter - burn_in) // thin = ({n_iter} - {burn_in}) // {thin} "
                              f"= 0: a fit needs at least one kept draw")
    fixed = dict(fixed or {})
    for name, value in fixed.items():
        if name not in ("tau", "phi"):
            raise ValidationError(f"fixed= pins only tau and phi, got {name!r}")
        if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
            raise ValidationError(f"fixed {name} must be finite and > 0, got {value!r}")
    if isinstance(panel_or_design, GroupedDesign):
        design = panel_or_design
    else:
        design = build_matrices(panel_or_design, spec)
    stream_ids = range(chains) if isinstance(chains, numbers.Integral) else tuple(chains)
    n_chains = len(stream_ids)
    rngs = [RngStream(seed=seed, stream_id=k).generator() for k in stream_ids]
    start = initialize_state(design, priors)
    # a lone chain is held without the chain axis, which its sweep runs faster on
    state = start if n_chains == 1 else ChainState(**{
        f.name: np.repeat(np.asarray(getattr(start, f.name))[None], n_chains, axis=0)
        for f in fields(ChainState)})
    for name, value in fixed.items():
        setattr(state, name, float(value) if n_chains == 1 else np.full(n_chains, float(value)))
    layout = _sweep_layout(design, priors, fixed)
    recorded = priors.recorded
    draws = {key: np.empty((n_chains, kept, *np.shape(getattr(start, attr))),
                           dtype=np.intp if key == "nu" else np.float64)
             for key, attr in recorded.items()}
    k = 0
    for t in range(1, n_iter + 1):
        try:
            sweep(state, design, priors, rngs, fixed, layout)
        except (GlmixerError, ArithmeticError, ValueError) as exc:
            # the kernels' own checks, or math and numpy meeting a bad state
            raise NumericalError(f"chain {stream_ids[getattr(exc, 'row', 0)]}, iteration {t}, "
                                 f"step {exc.step}: {exc}") from exc
        if t > burn_in and (t - burn_in) % thin == 0:
            for key, attr in recorded.items():
                draws[key][:, k] = getattr(state, attr)
            k += 1
    return [Trace(draws={key: d[c] for key, d in draws.items()}, seed=seed, chain_id=chain,
                  n_iter=n_iter, burn_in=burn_in, thin=thin, priors=priors, spec=spec,
                  unit_ids=design.unit_ids, sizes=tuple(int(s) for s in design.sizes))
            for c, chain in enumerate(stream_ids)]
