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
conditional and the residual sums of squares are closed forms in them,
one stacked product each. Under both error priors beta is drawn as
P^-1 (b + L z) with P = L L' (`kernels.draw_mvn_from_precision`).

`sweep` has one draw path: one Generator per chain, and each step run
once on (C, .) arrays; one chain is the case C = 1. Each chain's
normals and rate-free Gammas are drawn ahead from its own Generator, in
the order the steps read them; the steps scale them by their rates, and
each Gamma shape is defined once, in `gamma_shape`. `run_chains` draws
them a block of sweeps at a time (one normal call and one call per run of
equal Gamma shapes per chain and block, `SWEEP_BLOCK_BYTES`), where a
sweep called alone draws one sweep's worth, with the bits the steps would
draw in turn. The block moved a fit's chain bits relative to drawing
sweep by sweep, since a block's later normals and Gammas now come before
the per-sweep draws of its earlier sweeps: the Student-t nu uniforms and
omega Gammas, one buffer for all chains, and Laplace's Wald draws, chain
by chain. Chain k of `run_chains` draws from RngStream(seed, k) alone, so
its draws do not depend on how many chains run. The sweep checks its
draws once, at its end. Called alone, a step draws chain c's variates
from Generator c of its rng (a bare Generator is one chain); a Generator
count other than the state's chain count is a ValidationError.
The records a fit writes and the nu prior are in `records`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .defaults import DEFAULT_BURN_IN, DEFAULT_CHAINS, DEFAULT_N_ITER, DEFAULT_THIN
from .design import GroupedDesign, ModelSpec, build_matrices
from .errors import GlmixerError, NumericalError, ValidationError
from .kernels import (RngStream, allocate, draw_categorical_log, draw_gamma, draw_gig,
                      draw_mvn_from_precision, draw_standard, generators, matvec,
                      standard_gamma_rows, vecmat)
# re-exported: `predict` loads the records without the sampler
from .records import (ERROR_PRIORS, NU_WEIGHTS, REFFECT_PRIORS, PriorConfig,  # noqa: F401
                      Trace, nu_log_prior)

INIT_SCALE_MIN = 1e-6
INIT_SCALE_MAX = 1e6

# Each chain of `run_chains` draws its standard variates a block of sweeps
# at a time, as many sweeps as fit in this many bytes (at least one).
SWEEP_BLOCK_BYTES = 32 * 1024


@dataclass
class ChainState:
    """The state of C chains in lockstep: each field leads with the chain
    axis, also for one chain (C = 1)."""

    beta: np.ndarray       # (C, p)
    u: np.ndarray          # (C, m)
    tau: np.ndarray        # (C,) global error precision (zeta_eps under common Gamma)
    phi: np.ndarray        # (C,) global random-effect precision (zeta_u under common Gamma)
    omega: np.ndarray      # (C, m) local effect precisions, 1 under common Gamma
    lam: np.ndarray        # (C, m) local error precisions, 1 under common Gamma
    rho: np.ndarray        # (C, m) Half-Cauchy auxiliaries for lam
    varrho: np.ndarray     # (C, m) Horseshoe auxiliaries for omega
    nu: np.ndarray         # (C, m) int, Student-t degrees of freedom
    rss: np.ndarray        # (C, m) per-unit residual sums of squares at beta and u,
                           # refreshed by the beta step for the tau and lambda steps


# ---------------------------------------------------------------------------
# conditional-parameter helpers (pure, unit-testable) and the draw steps, for
# C chains in lockstep (see ChainState), each chain with its own bits


def u_conditional(state: ChainState, design: GroupedDesign):
    """Per-group (mean, variance, gamma) of the u_i full conditional.

    gamma_i = lam_i tau / (lam_i tau + omega_i phi / n_i); the mean is
    gamma_i times the group mean residual and the variance is
    gamma_i / (n_i lam_i tau).
    """
    n_i = design.sizes
    lt = state.lam * state.tau[:, None]
    of = state.omega * state.phi[:, None]
    gamma = lt / (lt + of / n_i)
    resid = design.ybar - matvec(design.xbar, state.beta)
    return gamma * resid, gamma / (n_i * lt), gamma


def _rngs(rng, chains: int) -> list:
    """One Generator per chain (`generators`): a count other than `chains`
    is a ValidationError, so a step called alone never shares draws."""
    rngs = generators(rng)
    if len(rngs) != chains:
        raise ValidationError(f"{len(rngs)} Generator(s) for {chains} chain(s)")
    return rngs


def _normals(rng, chains: int, k: int) -> np.ndarray:
    """(chains, k) standard normals, row c from chain c's Generator (`_rngs`)."""
    return np.stack([g.standard_normal(k) for g in _rngs(rng, chains)])


def step_u(state: ChainState, design: GroupedDesign, rng, z=None) -> None:
    """u from its conditional; the normals are z["u"] (see `sweep`) or `_normals`."""
    mean, var, _ = u_conditional(state, design)
    state.u = mean + np.sqrt(var) * (_normals(rng, len(mean), design.m) if z is None else z["u"])


def beta_conditional(state: ChainState, design: GroupedDesign, prior_precision: float = 0.0):
    """Right-hand side b and precision matrix P of the beta conditional
    N(P^-1 b, P^-1): b = tau sum_i lam_i (X_i'y_i - u_i n_i xbar_i) and
    P = tau sum_i lam_i X_i'X_i (+ prior precision), from one stacked
    product of the weights [lam; lam u] with the design's `beta_sums`."""
    p = design.p
    weights = np.empty(state.u.shape[:-1] + (2, design.m))
    weights[..., 0, :] = state.lam
    np.multiply(state.lam, state.u, out=weights[..., 1, :])
    sums = np.matmul(weights, design.beta_sums)
    P = state.tau[:, None, None] * sums[..., 0, 2 * p:].reshape(sums.shape[:-2] + (p, p))
    if prior_precision > 0.0:
        P = P + prior_precision * np.eye(p)
    return state.tau[:, None] * (sums[..., 0, :p] - sums[..., 1, p:2 * p]), P


def step_beta(state: ChainState, design: GroupedDesign, priors: PriorConfig, rng,
              z=None) -> None:
    """Draw beta as P^-1 (b + L z) with P = L L' factored each sweep
    (`draw_mvn_from_precision`), under both error priors, then refresh
    state.rss: u was drawn just before and the later steps of a sweep
    change neither, so one RSS serves tau and lambda."""
    noise = _normals(rng, len(state.u), design.p) if z is None else z["beta"]
    state.beta = draw_mvn_from_precision(
        rng, *beta_conditional(state, design, priors.beta_prior_precision), noise)
    state.rss = rss_closed_form(state.beta, state.u, design)


def rss_closed_form(beta: np.ndarray, u: np.ndarray, design: GroupedDesign) -> np.ndarray:
    """Per-group residual sums of squares sum_j (y_ij - x_ij'beta - u_i)^2
    from the per-group sums:

        y'y - 2 beta'X'y + beta'X'X beta + n u (u - 2 (ybar - xbar'beta)),

    where the first three terms and xbar'beta are one stacked product of
    the design's `rss_sums` [y'y, X'y, vec X'X, xbar] with the coefficient
    columns [1, -2 beta, vec(beta beta'), 0] and [0, 0, 0, beta]. Clipped
    at 0, because cancellation can leave a tiny negative value where every
    residual is near zero."""
    p = design.p
    chain = beta.shape[:-1]
    coef = np.zeros(chain + (1 + 2 * p + p * p, 2))
    coef[..., 0, 0] = 1.0
    coef[..., 1:1 + p, 0] = -2.0 * beta
    coef[..., 1 + p:1 + p + p * p, 0] = (beta[..., :, None] * beta[..., None, :]).reshape(
        chain + (p * p,))
    coef[..., 1 + p + p * p:, 1] = beta
    sums = np.matmul(design.rss_sums, coef)  # (..., m, 2)
    rss = sums[..., 0] + design.sizes * u * (u - 2.0 * (design.ybar - sums[..., 1]))
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
    """Gamma(shape, rate) draws: the sweep's standard draws z[name] / rate,
    which the sweep checks at its end, or, row c of rate, the checked
    `draw_gamma` of chain c's Generator."""
    if z is None:
        return _each_chain(rng, lambda g, r: draw_gamma(g, shape, r, size), rate)
    return z[name] / rate


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
    return gamma_shape("lam", design), 0.5 * state.tau[:, None] * state.rss + state.rho


def step_lambda_halfcauchy(state: ChainState, design: GroupedDesign, rng, z=None) -> None:
    """Auxiliary two-Gamma update with stationary prior (1 + lam)^-2."""
    shape, rate = lambda_conditional(state, design)
    state.lam = _gamma(rng, z, "lam", shape, rate, size=design.m)
    state.rho = _gamma(rng, z, "rho", gamma_shape("rho"), state.lam + 1.0, size=design.m)


def nu_log_weights(u: np.ndarray, phi, priors: PriorConfig, out=None) -> np.ndarray:
    """(C, m, |support|) log weights of the nu_i conditionals of C chains'
    u (C, m) and phi (C,): log prior plus the log Student-t density of u_i
    at scale s = sqrt(1/phi). With q_i = phi u_i^2, h_j = (nu_j + 1)/2 and
    c_j the log prior, log normalizer and h_j log nu_j of support point
    nu_j (`records._nu_t_terms`, once per config),

        log w_ij = c_j - log s - h_j log(nu_j + q_i)
                 = -h_j log(g_j nu_j + g_j q_i),  g_j = exp((log s - c_j) / h_j),

    so a chain's table is one (|support| x 2)(2 x m) product of [g nu, g]
    with [1; q], then one log and one multiply. It is built support-major,
    in `out` ((|support|, C, m)) when given, so every operation runs along
    the units and chains, and returned as the view with the support last."""
    nu_one, half_df1, const = priors._nu_t_terms
    g = np.exp(((-0.5 * np.log(phi))[:, None] - const) / half_df1)
    ones_q = np.empty((len(u), 2, u.shape[1]))
    ones_q[:, 0] = 1.0
    np.multiply(u * u, phi[:, None], out=ones_q[:, 1])
    if out is None:
        out = np.empty(half_df1.shape + u.shape)
    np.matmul(g[..., None] * nu_one, ones_q, out=out.swapaxes(0, 1))
    np.log(out, out=out)
    np.multiply(out, -half_df1[:, None, None], out=out)
    return out.transpose(1, 2, 0)


def omega_conditional_horseshoe(phiu2, varrho):
    """(shape, rate) of the Horseshoe omega conditional Gamma(1, phi u^2 / 2 + varrho)."""
    return gamma_shape("omega"), 0.5 * np.asarray(phiu2) + varrho


def omega_conditional_student_t(phiu2, nu):
    """(shape, rate) of the Student-t omega conditional
    Gamma(nu/2 + 1/2, phi u^2 / 2 + nu/2)."""
    return 0.5 * np.asarray(nu) + 0.5, 0.5 * np.asarray(phiu2) + 0.5 * np.asarray(nu)


def _each_chain(rng, draw, *args):
    """draw(g, *rows) stacked over each chain's Generator g (`_rngs`)
    and rows of args; a failing chain is the error's `row`."""
    out = []
    for c, (g, *rows) in enumerate(zip(_rngs(rng, len(args[0])), *args, strict=True)):
        try:
            out.append(draw(g, *rows))
        except (GlmixerError, ArithmeticError, ValueError) as exc:
            exc.row = c
            raise
    return np.stack(out)


def step_omega(state: ChainState, priors: PriorConfig, rng, z=None, nu_table=None) -> None:
    """Local random-effect precisions by family.

    Horseshoe: omega ~ Gamma(1, phi u^2/2 + varrho), varrho ~ Gamma(1, omega+1).
    Laplace: omega ~ GIG(-1/2, phi u^2, 2).
    Student-t: nu_i from its collapsed conditional (before omega, so the
    pair is a valid blocked draw), then omega ~ Gamma(nu/2 + 1/2,
    phi u^2/2 + nu/2). These draw from each chain's own Generator, not
    from the sweep's up-front standard draws. The nu categorical is one
    call for all chains, with one uniform call per chain, on log weights
    built in `nu_table` (a sweep's is `SweepLayout.nu_table`), and the omega
    Gammas are one call per chain into one buffer, divided by their rates
    at once (no per-draw check: `sweep` checks omega at its end); Laplace's
    Wald draws run chain by chain.
    """
    m = state.u.shape[-1]
    phiu2 = state.phi[:, None] * state.u * state.u
    if priors.reffect_prior == "horseshoe":
        shape, rate = omega_conditional_horseshoe(phiu2, state.varrho)
        state.omega = _gamma(rng, z, "omega", shape, rate, size=m)
        state.varrho = _gamma(rng, z, "varrho", gamma_shape("varrho"), state.omega + 1.0, size=m)
    elif priors.reffect_prior == "laplace":
        state.omega = _each_chain(rng, lambda g, a: draw_gig(g, a, 2.0), phiu2)
    elif priors.reffect_prior == "student-t":
        rng = _rngs(rng, len(state.u))
        idx = draw_categorical_log(rng, nu_log_weights(state.u, state.phi, priors, nu_table))
        state.nu = np.asarray(priors.nu_support)[idx]
        shape, rate = omega_conditional_student_t(phiu2, state.nu.astype(np.float64))
        state.omega = standard_gamma_rows(rng, shape) / rate
    # common Gamma: omega stays 1 and phi is the common zeta_u


class SweepLayout(NamedTuple):
    """What a sweep's standard draws, its nu step and its end check need,
    fixed per fit."""

    runs: tuple     # (shape, count) of each run of equal Gamma shapes, in draw order
    at: dict        # draw name -> (run index, index or slice within the run)
    checked: tuple  # (step, field names, what their draws need) in step order
    fields: Callable  # state -> (u, beta, then the fields that must be > 0)
    block: int      # sweeps per block of `run_chains`'s standard draws
    nu_table: Optional[np.ndarray]  # Student-t: the nu log weights' buffer, refilled each sweep


def _sweep_layout(design: GroupedDesign, priors: PriorConfig, fixed=(),
                  chains: int = 1) -> SweepLayout:
    """A sweep's standard Gamma draws in draw order as runs of one
    `gamma_shape`: a float, or one shape per unit for lambda on an
    unbalanced panel; equal float runs are merged. Also the fields each
    step draws, which the sweep checks at its end: u and beta finite, the
    others finite and > 0; the "needs" of a field name what its draw's
    parameters must be, for the error message. The block is as many
    sweeps as fit in SWEEP_BLOCK_BYTES per chain, so it depends on the
    design's shape and the priors, never on the chains or the run length.
    Under Student-t the nu step's (|support|, chains, m) table is
    allocated here, once per fit."""
    names = [name for name in ("tau", "phi") if name not in fixed]
    if priors.error_prior == "half-cauchy":
        names += ["lam", "rho"]
    if priors.reffect_prior == "horseshoe":
        names += ["omega", "varrho"]
    runs, at = [], {}
    for name in names:
        shape = gamma_shape(name, design, priors)
        scalar = name in ("tau", "phi")
        count = 1 if scalar else design.m
        last = runs[-1][0] if runs else None
        if isinstance(shape, float) and isinstance(last, float) and last == shape:
            start = runs[-1][1]
            runs[-1] = (shape, start + count)
        else:
            start = 0
            runs.append((shape, count))
        at[name] = (len(runs) - 1, start if scalar else slice(start, start + count))

    gamma = "Gamma shape and rate must be finite and > 0"
    checked = [("u", ("u",), None), ("beta", ("beta",), None)]
    scales = tuple(name for name in ("tau", "phi") if name not in fixed)
    if scales:
        checked.append(("scales", scales, gamma))
    if priors.error_prior == "half-cauchy":
        checked.append(("lambda", ("lam", "rho"), gamma))
    if priors.reffect_prior == "horseshoe":
        checked.append(("omega", ("omega", "varrho"), gamma))
    elif priors.reffect_prior == "laplace":
        checked.append(("omega", ("omega",), "GIG(-1/2) coefficients must be finite"))
    elif priors.reffect_prior == "student-t":
        checked.append(("omega", ("omega",), gamma))
    per_sweep = design.m + design.p + sum(count for _, count in runs)
    positive = [name for _, drawn, needs in checked if needs for name in drawn]
    nu_table = None
    if priors.reffect_prior == "student-t":
        nu_table = np.empty((len(priors.nu_support), chains, design.m))
    return SweepLayout(tuple(runs), at, tuple(checked), attrgetter("u", "beta", *positive),
                       max(1, SWEEP_BLOCK_BYTES // (8 * per_sweep)), nu_table)


def _standard_draws(rngs, design: GroupedDesign, layout: SweepLayout, sweeps: int) -> list:
    """One block of `sweeps` sweeps' standard draws for the chains of rngs
    (`draw_standard`), as one dict of views {draw name: (C, .) array} per
    sweep."""
    zn, zg = draw_standard(rngs, design.m + design.p, layout.runs, sweeps)
    block = {"u": zn[..., :design.m], "beta": zn[..., design.m:],
             **{name: zg[r][..., where] for name, (r, where) in layout.at.items()}}
    return [{name: v[:, b] for name, v in block.items()} for b in range(sweeps)]


def _drawn_ok(state: ChainState, layout: SweepLayout) -> bool:
    """Whether every field the sweep drew is finite, and > 0 except u and
    beta, for all chains at once: one concatenation, whose sum is finite
    only if every entry is, and the minimum of the fields that must be > 0
    (NaN if one is NaN)."""
    v = np.concatenate([x.ravel() for x in layout.fields(state)])
    positive = v[state.u.size + state.beta.size:]  # empty if nothing else is drawn
    return (np.minimum.reduce(positive, initial=math.inf) > 0.0
            and math.isfinite(np.add.reduce(v)))


def _first_bad_step(state: ChainState, layout: SweepLayout, upto=None, then=""):
    """The first step before step `upto` (or of the whole sweep) that left
    a drawn field not finite (or not > 0), as a NumericalError whose
    `step` is that step and whose `row` is its lowest bad chain, with
    `then` appended to its message; None if there is none."""
    chains = len(state.u)
    for step, names, needs in layout.checked:
        if step == upto:
            return None
        bad = []  # (row, name, value) at the lowest bad chain of each field
        for name in names:
            x = getattr(state, name).reshape(chains, -1)
            ok = np.isfinite(x) if needs is None else (x > 0.0) & (x < math.inf)
            if not ok.all():
                row = int(np.argmin(ok.all(axis=1)))
                bad.append((row, name, float(x[row, np.argmin(ok[row])])))
        if bad:
            row, name, value = min(bad, key=lambda b: b[0])
            err = NumericalError(f"{name} draw {value!r} is not finite"
                                 + ("" if needs is None else f" and > 0: {needs}") + then)
            err.step, err.row = step, row
            return err
    return None


def sweep(state: ChainState, design: GroupedDesign, priors: PriorConfig, rngs,
          fixed=(), layout=None, z=None) -> None:
    """One full Gibbs cycle in the fixed order u, beta, global scales (less
    the `fixed` ones), lambda/rho (Half-Cauchy errors only), omega block.

    rngs holds one Generator per chain of `state`; a bare Generator is
    taken as the one-chain list [rng] (`_rngs`). The steps scale the
    standard draws z, one sweep's views of `_standard_draws` (layout:
    `_sweep_layout`'s); without z the sweep draws them first, one normal
    call and one Gamma call per run of equal shapes on each chain's
    Generator: the doubles the steps would draw from it in turn.

    The Gamma draws are not checked one by one: at its end the sweep
    checks that every field it drew is finite (and > 0 but u and beta).
    On a failure, or when a step raises, the fields are scanned in step
    order, and the error's `step` is the first step that left a bad field
    (else the step that raised) and its `row` that step's lowest bad chain.
    """
    rngs = _rngs(rngs, len(state.u))
    layout = layout or _sweep_layout(design, priors, fixed, len(state.u))
    if z is None:
        (z,) = _standard_draws(rngs, design, layout, 1)
    step = "u"
    try:
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
            step_omega(state, priors, rngs, z, layout.nu_table)
    except (GlmixerError, ArithmeticError, ValueError) as exc:
        err = _first_bad_step(state, layout, step, f" (step {step} then failed: {exc})")
        if err is None:
            exc.step = step
            raise
        raise err from exc
    if not _drawn_ok(state, layout):
        err = _first_bad_step(state, layout)
        if err is not None:  # else only the sum overflowed
            raise err


def initialize_state(design: GroupedDesign, priors: PriorConfig, rng=None) -> ChainState:
    """One chain's start, a (1, .) state (`run_chains` repeats it to C
    chains): beta from least squares (zero on failure), u from group mean
    residuals, precisions from inverse residual variances clamped to
    [1e-6, 1e6], all auxiliaries at 1, nu at 5."""
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
    tau = np.clip([1.0 / var_e if var_e > 0 else np.inf], INIT_SCALE_MIN, INIT_SCALE_MAX)
    phi = np.clip([1.0 / var_u if var_u > 0 else np.inf], INIT_SCALE_MIN, INIT_SCALE_MAX)
    nu_init = 5 if 5 in priors.nu_support else int(priors.nu_support[0])
    return ChainState(
        beta=beta[None], u=u[None], tau=tau, phi=phi,
        omega=np.ones((1, m)), lam=np.ones((1, m)),
        rho=np.ones((1, m)), varrho=np.ones((1, m)),
        nu=np.full((1, m), nu_init, dtype=np.intp),
        rss=np.bincount(design.group_idx, weights=resid * resid, minlength=m)[None],
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
               fixed: Optional[dict] = None, sink: Optional[Callable] = None) -> list:
    """The Traces of `chains` chains on streams 0, 1, ... (or on the stream
    ids given), sampled in lockstep in this process. Chain k draws from
    RngStream(seed, k) alone, so its Trace does not depend on the others.
    A Trace holds the keys of `priors.recorded`, the quantities the
    sampler draws, and at least one kept draw: a run that would keep none
    is refused before any sweep.

    Each chain draws its normals and rate-free Gammas a block of
    `SweepLayout.block` sweeps at a time (`_standard_draws`), and always a
    whole block, so its first N sweeps depend neither on `n_iter` nor on
    the other chains. `sink` (`fit`'s `chainfiles.ChainWriter`) gets each
    block's kept rows, a (chains, rows, width) float64 array in the chain
    file's column order.

    `fixed` pins the global precisions tau and/or phi (e.g. {"phi": 100.0})
    for diagnostics and oracle tests; pinned values must be finite and
    > 0, are set before sampling and never redrawn. A failed sweep (see
    `sweep`) raises NumericalError naming the lowest failing chain, the
    iteration and the step.
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
    if isinstance(chains, numbers.Integral):
        stream_ids, n_chains = range(chains), int(chains)
    else:
        stream_ids = tuple(chains)
        n_chains = len(stream_ids)
    start = initialize_state(design, priors)
    recorded = priors.recorded
    # the draws come first, so a run size numpy refuses stops the fit
    # before any Generator is made
    draws = {key: allocate((n_chains, kept, *getattr(start, attr).shape[1:]),
                           np.intp if key == "nu" else np.float64)
             for key, attr in recorded.items()}
    rngs = [RngStream(seed=seed, stream_id=k).generator() for k in stream_ids]
    state = ChainState(**{f.name: np.repeat(getattr(start, f.name), n_chains, axis=0)
                          for f in fields(ChainState)})
    for name, value in fixed.items():
        setattr(state, name, np.full(n_chains, float(value)))
    layout = _sweep_layout(design, priors, fixed, n_chains)
    k = sent = 0
    for t in range(1, n_iter + 1):
        b = (t - 1) % layout.block
        if b == 0:
            block = _standard_draws(rngs, design, layout, layout.block)
        try:
            sweep(state, design, priors, rngs, fixed, layout, block[b])
        except (GlmixerError, ArithmeticError, ValueError) as exc:
            # the kernels' own checks, or math and numpy meeting a bad state
            raise NumericalError(f"chain {stream_ids[getattr(exc, 'row', 0)]}, iteration {t}, "
                                 f"step {exc.step}: {exc}") from exc
        if t > burn_in and (t - burn_in) % thin == 0:
            for key, attr in recorded.items():
                draws[key][:, k] = getattr(state, attr)
            k += 1
        if sink is not None and k > sent and (b == layout.block - 1 or t == n_iter):
            sink(np.concatenate([d[:, sent:k].reshape(n_chains, k - sent, -1)
                                 for d in draws.values()], axis=2, dtype=np.float64))
            sent = k
    return [Trace(draws={key: d[c] for key, d in draws.items()}, seed=seed, chain_id=chain,
                  n_iter=n_iter, burn_in=burn_in, thin=thin, priors=priors, spec=spec,
                  unit_ids=design.unit_ids, sizes=tuple(int(s) for s in design.sizes))
            for c, chain in enumerate(stream_ids)]
