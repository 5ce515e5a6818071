"""The records a fit artifact holds: the prior settings (`PriorConfig`)
and one chain's kept draws with their run metadata (`Trace`), as
immutable named tuples, and the discrete nu prior both the sampler and
`predict` read. `artifacts.load_fit` and `predict` load these without
the sampler. The nu prior's log-Gamma normalizer is the standard
library's `math.lgamma`, so a fit loads no scipy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .errors import ValidationError

ERROR_PRIORS = ("gamma", "half-cauchy")
REFFECT_PRIORS = ("gamma", "student-t", "horseshoe", "laplace")
NU_WEIGHTS = ("algorithm3", "prose")


class PriorConfig(namedtuple("PriorConfig", (
        "error_prior", "reffect_prior", "a_phi", "b_phi", "a_tau", "b_tau", "k_nu",
        "nu_support", "nu_weight", "beta_prior_precision"), defaults=(
        "half-cauchy", "horseshoe", 1e-10, 1e-10, 1e-10, 1e-10, 2.84,
        tuple(range(1, 31)), "algorithm3", 0.0))):
    """The error and random-effect priors and their settings, checked when
    made. A beta_prior_precision of 0 is the flat improper prior; positive
    values give beta a proper N(0, 1/precision I) prior (needed by forward
    simulation in tests)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        if not (isinstance(self.nu_support, tuple) and self.nu_support) or any(
                (not isinstance(v, (int, np.integer))) or v <= 0 for v in self.nu_support):
            raise ValidationError("nu_support must be a non-empty tuple of positive integers")
        if self.beta_prior_precision < 0:
            raise ValidationError("beta_prior_precision must be >= 0")
        return self

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

    @property
    def _nu_t_terms(self):
        """The terms of `gibbs.nu_log_weights`, once per config (`_nu_t_terms`)."""
        return _nu_t_terms(self)

    def to_dict(self) -> dict:
        d = self._asdict()
        d["nu_support"] = list(self.nu_support)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PriorConfig":
        d = dict(d)
        d["nu_support"] = tuple(int(v) for v in d["nu_support"])
        return cls(**d)


@functools.cache
def _nu_t_terms(priors: PriorConfig):
    """Support-only terms of the nu_i conditional, combined once per
    distinct config: the (|support|, 2) columns [nu, 1], and h = (nu + 1)/2
    and c = log prior + log Student-t normalizer + h log nu as read-only
    (|support|,) arrays."""
    df = np.asarray(priors.nu_support, dtype=np.float64)
    gammaln = np.vectorize(math.lgamma, otypes=[np.float64])
    half_df1 = (df + 1.0) / 2.0
    log_norm = gammaln(half_df1) - gammaln(df / 2.0) - 0.5 * np.log(df * math.pi)
    terms = (np.stack([df, np.ones_like(df)], axis=1), half_df1,
             nu_log_prior(priors) + log_norm + half_df1 * np.log(df))
    for a in terms:
        a.setflags(write=False)
    return terms


def nu_log_prior(priors: PriorConfig) -> np.ndarray:
    """Unnormalized log prior over the discrete nu support.

    'algorithm3' is the gamma-gamma form l / (l + k)^3; 'prose' is the
    lighter l / (l + k)."""
    l = np.asarray(priors.nu_support, dtype=np.float64)
    if priors.nu_weight == "algorithm3":
        return np.log(l) - 3.0 * np.log(l + priors.k_nu)
    return np.log(l) - np.log(l + priors.k_nu)


class Trace(namedtuple("Trace", "draws seed chain_id n_iter burn_in thin priors spec "
                                "unit_ids sizes")):
    """Kept draws from one chain plus run metadata: `draws` maps each
    recorded key to an array whose leading axis is the kept draws."""

    __slots__ = ()

    @property
    def kept(self) -> int:
        return self.draws["beta"].shape[0]
