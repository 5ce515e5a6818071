"""Synthetic panel generation from the forward model.

Covariates are drawn from fixed plausible ranges, the logit response
from x'beta + u + e with the configured scale structure, and the stored
completeness is the inverse logit. Enables desk-scale validation in
place of the non-redistributable source data. The panel is built as
columns, and each row's x'beta is a stacked matmul with the bits of
`row @ beta`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .data import CSV_COLUMNS, build_panel, inv_logit
from .design import ModelSpec, covariate_rows
from .errors import ValidationError
from .kernels import RngStream, allocate, draw_local_prior

SIM_STREAM = 999_000  # dedicated stream so fits can reuse chain streams 0..C-1
SIM_NU = 5.0  # degrees of freedom of the Student-t local prior

# Coefficients roughly shaped like the fitted global models, scaled so
# logits stay in a well-conditioned range for the default covariates.
DEFAULT_TRUE_BETA_M1 = (0.5, 0.15, -0.008, -3.0, -0.45, 0.9, 0.02)
DEFAULT_TRUE_BETA_M2 = (0.5, 0.15, -0.008, -3.0, -0.45, 0.02)


class SimConfig(namedtuple("SimConfig", (
        "m", "n_i", "variant", "sex", "beta", "tau", "phi", "reffect_prior", "first_year",
        "seed"), defaults=(30, 20, 1, "both", None, 25.0, 4.0, "gamma", 2000, 0))):
    """A synthetic panel's settings: tau is the error precision lambda_i tau
    with lambda_i = 1, phi the effect precision omega_i phi with omega_i =
    1, and reffect_prior the local omega family for heterogeneity."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in (("m", self.m), ("n_i", self.n_i)):
            if value < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        for name, value in (("tau", self.tau), ("phi", self.phi)):
            if not 0.0 < value < math.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
        if self.beta is not None and not np.isfinite(self.beta).all():
            raise ValidationError(f"true beta must be finite, got {self.beta!r}")
        return self

    def resolved_beta(self) -> np.ndarray:
        if self.beta is not None:
            b = np.asarray(self.beta, dtype=np.float64)
        else:
            b = np.asarray(DEFAULT_TRUE_BETA_M1 if self.variant == 1
                           else DEFAULT_TRUE_BETA_M2)
        expected = 7 if self.variant == 1 else 6
        if b.shape != (expected,):
            raise ValidationError(f"true beta must have length {expected}, got {b.shape}")
        return b


def simulate_panel(config: SimConfig):
    """Generate (panel, truth dict). Deterministic in config.seed. The
    (m, n_i) errors are allocated first, so a size numpy refuses is a
    ValidationError before anything is drawn."""
    eps = allocate((config.m, config.n_i))
    rng = RngStream(config.seed, SIM_STREAM).generator()
    spec = ModelSpec(variant=config.variant, sex=config.sex,
                     year_offset=config.first_year + (config.n_i - 1) / 2.0)
    beta = config.resolved_beta()
    omega = draw_local_prior(rng, config.reffect_prior, config.m, nu=SIM_NU)
    u = rng.standard_normal(config.m) / np.sqrt(omega * config.phi)
    n = config.m * config.n_i
    columns = {name: [] for name in CSV_COLUMNS}
    columns["sex"] = [config.sex] * n
    for i in range(config.m):
        for name, lo, hi in (("reg_cdr", 2.0, 12.0), ("pct65", 0.01, 0.20),
                             ("u5mr", 0.005, 0.15), ("c5q0", 0.3, 1.0)):
            columns[name] += rng.uniform(lo, hi, size=config.n_i).tolist()
        eps[i] = rng.standard_normal(config.n_i) / np.sqrt(config.tau)
        columns["unit_id"] += [f"U{i:03d}"] * config.n_i
        columns["year"] += range(config.first_year, config.first_year + config.n_i)
    if config.variant != 1:
        columns["c5q0"] = [None] * n
    X = covariate_rows(spec, *(columns[name]
                               for name in ("year", "reg_cdr", "pct65", "u5mr", "c5q0")))
    theta = (np.matmul(X[:, None, :], beta[:, None])[:, 0, 0]
             + np.repeat(u, config.n_i) + eps.ravel())
    columns["completeness"] = [min(max(inv_logit(t), 1e-6), 1.0 - 1e-6) for t in theta.tolist()]
    panel = build_panel(*(columns[name] for name in CSV_COLUMNS))
    truth = {
        "beta": beta.tolist(),
        "u": u.tolist(),
        "omega": omega.tolist(),
        "tau": config.tau,
        "phi": config.phi,
        "spec": spec.to_dict(),
        "seed": config.seed,
        "m": config.m,
        "n_i": config.n_i,
        "reffect_prior": config.reffect_prior,
    }
    return panel, truth
