"""Gibbs sweeps for the hierarchical mixed model with Global-Local priors.

Model: y_ij = x_ij' beta + u_i + e_ij, e_ij ~ N(0, 1/(lambda_i tau)),
u_i ~ N(0, 1/(omega_i phi)), flat prior on beta, Gamma priors on the
global precisions, and the configured local priors on lambda_i / omega_i.
The "gamma" settings collapse the local scales to 1 and make the global
precision the common zeta of the comparison model.

Full conditionals are derived from the joint posterior. Where the source
material's printed steps disagree with that derivation (the beta
covariance factor, the tau/phi Gamma shapes, and the Student-t omega
rate), the derived forms are used: they are the ones with the model as
stationary distribution, which the getting-it-right tests verify.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .design import GroupedDesign, ModelSpec, build_matrices
from .errors import ValidationError
from .kernels import GIG_TINY, RngStream, draw_categorical_log, draw_mvn_from_precision

ERROR_PRIORS = ("gamma", "half-cauchy")
REFFECT_PRIORS = ("gamma", "student-t", "horseshoe", "laplace")
NU_WEIGHTS = ("algorithm3", "prose")

INIT_SCALE_MIN = 1e-6
INIT_SCALE_MAX = 1e6

DEFAULT_N_ITER = 20000
DEFAULT_BURN_IN = 10000
DEFAULT_THIN = 2
DEFAULT_CHAINS = 4


@dataclass(frozen=True)
class PriorConfig:
    error_prior: str = "half-cauchy"
    reffect_prior: str = "horseshoe"
    a_phi: float = 1e-10
    b_phi: float = 1e-10
    a_tau: float = 1e-10
    b_tau: float = 1e-10
    a_zeta_eps: float = 1e-10
    b_zeta_eps: float = 1e-10
    a_zeta_u: float = 1e-10
    b_zeta_u: float = 1e-10
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
        for name in ("a_phi", "b_phi", "a_tau", "b_tau", "a_zeta_eps",
                     "b_zeta_eps", "a_zeta_u", "b_zeta_u", "k_nu"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")
        if not self.nu_support or any(
                (not isinstance(v, (int, np.integer))) or v <= 0 for v in self.nu_support):
            raise ValidationError("nu_support must be a non-empty tuple of positive integers")
        if self.beta_prior_precision < 0:
            raise ValidationError("beta_prior_precision must be >= 0")

    # Effective Gamma hyperparameters for the error / effect global
    # precision under the active configuration.
    @property
    def tau_hyper(self):
        if self.error_prior == "gamma":
            return self.a_zeta_eps, self.b_zeta_eps
        return self.a_tau, self.b_tau

    @property
    def phi_hyper(self):
        if self.reffect_prior == "gamma":
            return self.a_zeta_u, self.b_zeta_u
        return self.a_phi, self.b_phi

    @property
    def tau_name(self) -> str:
        return "zeta_eps" if self.error_prior == "gamma" else "tau"

    @property
    def phi_name(self) -> str:
        return "zeta_u" if self.reffect_prior == "gamma" else "phi"

    @functools.cached_property
    def _nu_t_terms(self):
        """Support-only terms of the nu_i conditional as (|support|, 1)
        columns, computed once per config: log prior, log Student-t
        normalizer, (nu + 1) / 2 and nu."""
        df = np.asarray(self.nu_support, dtype=np.float64)
        terms = (nu_log_prior(self),
                 gammaln((df + 1.0) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * math.pi),
                 (df + 1.0) / 2.0, df)
        terms = tuple(a[:, None] for a in terms)
        for a in terms:
            a.setflags(write=False)
        return terms

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "error_prior", "reffect_prior", "a_phi", "b_phi", "a_tau", "b_tau",
            "a_zeta_eps", "b_zeta_eps", "a_zeta_u", "b_zeta_u", "k_nu",
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
    beta: np.ndarray       # (p,)
    u: np.ndarray          # (m,)
    tau: float             # global error precision (zeta_eps under common Gamma)
    phi: float             # global random-effect precision (zeta_u under common Gamma)
    omega: np.ndarray      # (m,) local effect precisions, 1 under common Gamma
    lam: np.ndarray        # (m,) local error precisions, 1 under common Gamma
    rho: np.ndarray        # (m,) Half-Cauchy auxiliaries for lam
    varrho: np.ndarray     # (m,) Horseshoe auxiliaries for omega
    nu: np.ndarray         # (m,) int, Student-t degrees of freedom

    def check(self) -> None:
        for name in ("tau", "phi"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValidationError(f"state.{name} = {v!r} is not finite and positive")
        for name in ("omega", "lam", "rho", "varrho"):
            v = getattr(self, name)
            if not np.all(np.isfinite(v)) or np.any(v <= 0):
                raise ValidationError(f"state.{name} contains non-positive or non-finite entries")
        if not np.all(np.isfinite(self.beta)) or not np.all(np.isfinite(self.u)):
            raise ValidationError("state.beta / state.u contain non-finite entries")


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
# conditional-parameter helpers (pure, unit-testable) and the draw steps


def u_conditional(state: ChainState, design: GroupedDesign):
    """Per-group (mean, variance, gamma) of the u_i full conditional.

    gamma_i = lam_i tau / (lam_i tau + omega_i phi / n_i); the mean is
    gamma_i times the group mean residual and the variance is
    gamma_i / (n_i lam_i tau).
    """
    n_i = design.sizes
    lt = state.lam * state.tau
    of = state.omega * state.phi
    gamma = lt / (lt + of / n_i)
    resid = design.ybar - design.xbar @ state.beta
    return gamma * resid, gamma / (n_i * lt), gamma


def step_u(state: ChainState, design: GroupedDesign, rng) -> None:
    mean, var, _ = u_conditional(state, design)
    state.u = mean + np.sqrt(var) * rng.standard_normal(design.m)


def beta_conditional(state: ChainState, design: GroupedDesign, prior_precision: float = 0.0):
    """Precision matrix P and right-hand side b of the beta conditional
    N(P^-1 b, P^-1), with P = tau sum_ij lam_i x x' (+ prior precision)."""
    lam = state.lam
    P = state.tau * np.einsum("i,ijk->jk", lam, design.XtX_g)
    rhs = state.tau * (
        lam[:, None] * (design.Xty_g - state.u[:, None] * design.sizes[:, None] * design.xbar)
    ).sum(axis=0)
    if prior_precision > 0.0:
        P = P + prior_precision * np.eye(design.p)
    return rhs, P


def step_beta(state: ChainState, design: GroupedDesign, priors: PriorConfig, rng) -> None:
    rhs, P = beta_conditional(state, design, priors.beta_prior_precision)
    state.beta = draw_mvn_from_precision(rng, rhs, P)


def rss_by_group(state: ChainState, design: GroupedDesign) -> np.ndarray:
    r = design.y - design.X @ state.beta - state.u[design.group_idx]
    return np.bincount(design.group_idx, weights=r * r, minlength=design.m)


def tau_conditional(state: ChainState, design: GroupedDesign, priors: PriorConfig):
    """(shape, rate) of the error global precision:
    Gamma(n/2 + a, (1/2) sum_i lam_i RSS_i + b)."""
    a, b = priors.tau_hyper
    rate = 0.5 * float(state.lam @ rss_by_group(state, design)) + b
    return 0.5 * design.n + a, rate


def phi_conditional(state: ChainState, priors: PriorConfig):
    """(shape, rate) of the effect global precision:
    Gamma(m/2 + a, (1/2) sum_i omega_i u_i^2 + b)."""
    a, b = priors.phi_hyper
    rate = 0.5 * float(state.omega @ (state.u * state.u)) + b
    return 0.5 * state.u.shape[0] + a, rate


def step_global_scales(state: ChainState, design: GroupedDesign, priors: PriorConfig,
                       rng, fixed=()) -> None:
    if "tau" not in fixed:
        shape, rate = tau_conditional(state, design, priors)
        state.tau = rng.standard_gamma(shape) / rate
    if "phi" not in fixed:
        shape, rate = phi_conditional(state, priors)
        state.phi = rng.standard_gamma(shape) / rate


def lambda_conditional(state: ChainState, design: GroupedDesign):
    """(shape, rate) vectors of lam_i ~ Gamma(n_i/2 + 1, (tau/2) RSS_i + rho_i)."""
    rss = rss_by_group(state, design)
    return 0.5 * design.sizes + 1.0, 0.5 * state.tau * rss + state.rho


def step_lambda_halfcauchy(state: ChainState, design: GroupedDesign, rng) -> None:
    """Auxiliary two-Gamma update with stationary prior (1 + lam)^-2."""
    shape, rate = lambda_conditional(state, design)
    state.lam = rng.standard_gamma(shape) / rate
    state.rho = rng.standard_gamma(2.0, size=design.m) / (state.lam + 1.0)


def nu_log_prior(priors: PriorConfig) -> np.ndarray:
    """Unnormalized log prior over the discrete nu support.

    'algorithm3' is the gamma-gamma form l / (l + k)^3; 'prose' is the
    lighter l / (l + k)."""
    l = np.asarray(priors.nu_support, dtype=np.float64)
    if priors.nu_weight == "algorithm3":
        return np.log(l) - 3.0 * np.log(l + priors.k_nu)
    return np.log(l) - np.log(l + priors.k_nu)


def nu_log_weights(u: np.ndarray, phi: float, priors: PriorConfig) -> np.ndarray:
    """(m, |support|) log weights of the nu_i conditional: log prior plus
    the log Student-t density of u_i at scale sqrt(1/phi).

    Computed support-major, so every operation runs along the m units, and
    returned as the transposed view."""
    log_prior, log_norm, half_df1, df = priors._nu_t_terms
    scale = math.sqrt(1.0 / phi)
    z = u / scale
    return (log_prior + ((log_norm - np.log(scale)) - half_df1 * np.log1p(z * z / df))).T


def _draw_gig_neg_half(rng, a_vec, b):
    """Vectorized GIG(-1/2, a_i, b) via the inverse-Gaussian identity;
    a_i ~ 0 (random effect shrunk to zero) uses the inverse-Gamma limit."""
    a_vec = np.asarray(a_vec, dtype=np.float64)
    out = np.empty(a_vec.shape)
    tiny = a_vec < GIG_TINY
    if np.any(~tiny):
        out[~tiny] = rng.wald(np.sqrt(b / a_vec[~tiny]), b)
    if np.any(tiny):
        out[tiny] = 1.0 / (rng.standard_gamma(0.5, size=int(tiny.sum())) / (0.5 * b))
    return out


def omega_conditional_horseshoe(phiu2, varrho):
    """(shape, rate) of the Horseshoe omega conditional Gamma(1, phi u^2 / 2 + varrho)."""
    return 1.0, 0.5 * np.asarray(phiu2) + varrho


def omega_conditional_student_t(phiu2, nu):
    """(shape, rate) of the Student-t omega conditional
    Gamma(nu/2 + 1/2, phi u^2 / 2 + nu/2)."""
    return 0.5 * np.asarray(nu) + 0.5, 0.5 * np.asarray(phiu2) + 0.5 * np.asarray(nu)


def step_omega(state: ChainState, priors: PriorConfig, rng) -> None:
    """Local random-effect precisions by family.

    Horseshoe: omega ~ Gamma(1, phi u^2/2 + varrho), varrho ~ Gamma(1, omega+1).
    Laplace: omega ~ GIG(-1/2, phi u^2, 2).
    Student-t: nu_i from its collapsed conditional (before omega, so the
    pair is a valid blocked draw), then omega ~ Gamma(nu/2 + 1/2,
    phi u^2/2 + nu/2).
    """
    m = state.u.shape[0]
    phiu2 = state.phi * state.u * state.u
    if priors.reffect_prior == "horseshoe":
        shape, rate = omega_conditional_horseshoe(phiu2, state.varrho)
        state.omega = rng.standard_gamma(shape, size=m) / rate
        state.varrho = rng.standard_gamma(1.0, size=m) / (state.omega + 1.0)
    elif priors.reffect_prior == "laplace":
        state.omega = _draw_gig_neg_half(rng, phiu2, 2.0)
    elif priors.reffect_prior == "student-t":
        idx = draw_categorical_log(rng, nu_log_weights(state.u, state.phi, priors))
        support = np.asarray(priors.nu_support)
        state.nu = support[idx]
        shape, rate = omega_conditional_student_t(phiu2, state.nu.astype(np.float64))
        state.omega = rng.standard_gamma(shape) / rate
    # common Gamma: omega stays 1 and phi is the common zeta_u


def sweep(state: ChainState, design: GroupedDesign, priors: PriorConfig, rng,
          fixed=()) -> None:
    """One full Gibbs cycle in the fixed order u, beta, global scales,
    lambda/rho (Half-Cauchy errors only), omega block."""
    step_u(state, design, rng)
    step_beta(state, design, priors, rng)
    step_global_scales(state, design, priors, rng, fixed=fixed)
    if priors.error_prior == "half-cauchy":
        step_lambda_halfcauchy(state, design, rng)
    if priors.reffect_prior != "gamma":
        step_omega(state, priors, rng)


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
    )


def run_chain(panel_or_design, spec: ModelSpec, priors: PriorConfig,
              n_iter: int = DEFAULT_N_ITER, burn_in: int = DEFAULT_BURN_IN,
              thin: int = DEFAULT_THIN, seed: int = 0, stream_id: int = 0,
              fixed: Optional[dict] = None, check_every: int = 0) -> Trace:
    """Run one chain and return its Trace.

    `fixed` pins state entries (e.g. {"phi": 100.0}) for diagnostics and
    oracle tests; pinned entries are set before sampling and never
    redrawn. Deterministic given (seed, stream_id).
    """
    if not (n_iter > burn_in >= 0):
        raise ValidationError(f"need n_iter > burn_in >= 0, got {n_iter}, {burn_in}")
    if thin < 1:
        raise ValidationError(f"thin must be >= 1, got {thin}")
    if isinstance(panel_or_design, GroupedDesign):
        design = panel_or_design
    else:
        design = build_matrices(panel_or_design, spec)
    rng = RngStream(seed=seed, stream_id=stream_id).generator()
    state = initialize_state(design, priors, rng)
    fixed = dict(fixed or {})
    fixed_names = tuple(fixed)
    for name, value in fixed.items():
        setattr(state, name, value)
    kept = (n_iter - burn_in) // thin
    m, p = design.m, design.p
    draws = {
        "beta": np.empty((kept, p)),
        "u": np.empty((kept, m)),
        "tau": np.empty(kept),
        "phi": np.empty(kept),
        "omega": np.empty((kept, m)),
        "lambda": np.empty((kept, m)),
    }
    if priors.reffect_prior == "student-t":
        draws["nu"] = np.empty((kept, m), dtype=np.intp)
    k = 0
    for t in range(1, n_iter + 1):
        try:
            sweep(state, design, priors, rng, fixed=fixed_names)
            if check_every and t % check_every == 0:
                state.check()
        except Exception as exc:
            raise type(exc)(f"iteration {t}: {exc}") from exc
        if t > burn_in and (t - burn_in) % thin == 0:
            draws["beta"][k] = state.beta
            draws["u"][k] = state.u
            draws["tau"][k] = state.tau
            draws["phi"][k] = state.phi
            draws["omega"][k] = state.omega
            draws["lambda"][k] = state.lam
            if "nu" in draws:
                draws["nu"][k] = state.nu
            k += 1
    return Trace(
        draws=draws, seed=seed, chain_id=stream_id, n_iter=n_iter,
        burn_in=burn_in, thin=thin, priors=priors, spec=spec,
        unit_ids=design.unit_ids, sizes=tuple(int(s) for s in design.sizes),
    )
