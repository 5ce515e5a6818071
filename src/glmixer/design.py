"""Design rows for Model 1 / Model 2 and the grouped design matrices.

Row order is (intercept, RegCDR, RegCDR^2, pct65^2, ln(5q0), [C5q0 if
Model 1], year - offset). The fraction over 65 enters only through its
square. Year centering conditions the cross-product matrix; the offset is
persisted in fit artifacts so predictions reuse the fit-time rows exactly.
`design_rows` builds a panel's rows; `build_matrices` adds the responses
and the per-group statistics a fit samples from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import PanelDataset, Observation, logit
from .errors import ValidationError

MODEL1 = 1
MODEL2 = 2

RCOND_MIN = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    variant: int = MODEL1
    sex: str = "both"
    year_offset: float = 0.0

    def __post_init__(self):
        if self.variant not in (MODEL1, MODEL2):
            raise ValidationError(f"model variant must be 1 or 2, got {self.variant!r}")
        if not math.isfinite(self.year_offset):
            raise ValidationError("year_offset must be finite")

    @property
    def p(self) -> int:
        return 7 if self.variant == MODEL1 else 6

    def column_names(self):
        names = ["const", "reg_cdr", "reg_cdr_sq", "pct65_sq", "ln_u5mr"]
        if self.variant == MODEL1:
            names.append("c5q0")
        names.append("year")
        return names

    def to_dict(self) -> dict:
        return {"variant": self.variant, "sex": self.sex, "year_offset": self.year_offset}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(variant=d["variant"], sex=d["sex"], year_offset=d["year_offset"])


def build_row(obs: Observation, spec: ModelSpec) -> np.ndarray:
    """Covariate vector for one observation, in the fixed column order;
    an entry beyond float range is inf (`design_rows` rejects it)."""
    if spec.variant == MODEL1 and obs.c5q0 is None:
        raise ValidationError(
            f"Model 1 needs c5q0 but ({obs.unit_id}, {obs.period}, {obs.sex}) has none"
        )
    try:
        reg_cdr_sq = obs.reg_cdr ** 2
    except OverflowError:
        reg_cdr_sq = math.inf
    base = [1.0, obs.reg_cdr, reg_cdr_sq, obs.pct65 ** 2, math.log(obs.u5mr_true)]
    if spec.variant == MODEL1:
        base.append(obs.c5q0)
    base.append(obs.period - spec.year_offset)
    return np.asarray(base, dtype=np.float64)


def design_rows(panel: PanelDataset, spec: ModelSpec):
    """(X, unit_ids, sizes) of a panel: its design rows (n, p) in group
    order, each group's rows contiguous; the unit ids; and the rows per
    unit (m,). Fitting, fitted values and prediction all build their
    rows here. A row with a non-finite entry is a ValidationError that
    names its observation."""
    observations = list(panel.observations())
    X = np.vstack([build_row(obs, spec) for obs in observations])
    if not np.isfinite(X).all():
        obs = observations[int(np.isfinite(X).all(axis=1).argmin())]
        raise ValidationError(
            f"design row of ({obs.unit_id}, {obs.period}, {obs.sex}) is not finite: "
            f"reg_cdr^2 or year - year_offset is beyond float range")
    return X, panel.unit_ids, np.asarray(panel.n_i, dtype=np.intp)


@dataclass(frozen=True)
class GroupedDesign:
    """Stacked design with per-group sufficient statistics for the sampler.

    A Gibbs sweep reads only the per-group statistics (`sizes`, `xbar`,
    `ybar`, `XtX_g`, `Xty_g`, `yty_g`) and the per-design constants
    below, never the n rows `X`, `y`, `group_idx`. The constants are
    computed on first use and kept, so they cost once per fit; they
    depend on the covariates and sizes only, not on y.
    """

    X: np.ndarray          # (n, p)
    y: np.ndarray          # (n,) logit completeness
    group_idx: np.ndarray  # (n,) int, row -> group
    sizes: np.ndarray      # (m,) int
    unit_ids: tuple
    xbar: np.ndarray       # (m, p) per-group covariate means
    ybar: np.ndarray       # (m,)
    XtX_g: np.ndarray      # (m, p, p)
    Xty_g: np.ndarray      # (m, p)
    yty_g: np.ndarray      # (m,) per-group sums of y^2

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def p(self) -> int:
        return self.XtX_g.shape[-1]

    @functools.cached_property
    def n(self) -> int:
        return int(self.sizes.sum())

    @functools.cached_property
    def xtx_eigh(self):
        """(eigenvalues in ascending order, eigenvectors as columns) of
        the pooled X'X = sum_g XtX_g."""
        return np.linalg.eigh(self.XtX_g.sum(axis=0))

    @functools.cached_property
    def lambda_shape(self):
        """n_i/2 + 1, the shape of each lambda_i conditional: one float
        when every n_i is equal (a balanced panel), else an (m,) array."""
        shape = 0.5 * self.sizes + 1.0
        return float(shape[0]) if np.all(shape == shape[0]) else shape


def build_matrices(panel: PanelDataset, spec: ModelSpec) -> GroupedDesign:
    """`design_rows` plus responses y = logit(completeness) and the
    per-group statistics a sweep reads.

    Fitting requires n_i > p for every group and a finite, numerically
    nonsingular pooled cross-product matrix: the smallest eigenvalue of
    its cached eigendecomposition `xtx_eigh` must be positive, and the
    reciprocal condition lambda_min / lambda_max at least RCOND_MIN.
    """
    X, unit_ids, sizes = design_rows(panel, spec)
    p = spec.p
    bad = [uid for uid, n_i in zip(unit_ids, sizes.tolist()) if n_i <= p]
    if bad:
        raise ValidationError(
            f"fitting requires n_i > p = {p} observations per group; violated by {bad}"
        )
    y = np.asarray([logit(obs.completeness) for obs in panel.observations()])
    m = len(sizes)
    xbar = np.zeros((m, p))
    ybar = np.zeros(m)
    XtX_g = np.zeros((m, p, p))
    Xty_g = np.zeros((m, p))
    yty_g = np.zeros(m)
    # each group's rows are contiguous, in group order; an overflow is
    # reported as a pooled X'X that is not finite
    hi = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for g, n_g in enumerate(sizes.tolist()):
            lo, hi = hi, hi + n_g
            Xg, yg = X[lo:hi], y[lo:hi]
            xbar[g] = Xg.mean(axis=0)
            ybar[g] = yg.mean()
            XtX_g[g] = Xg.T @ Xg
            Xty_g[g] = Xg.T @ yg
            yty_g[g] = yg @ yg
        pooled_finite = np.isfinite(XtX_g.sum(axis=0)).all()
    if not pooled_finite:
        raise ValidationError(
            "pooled cross-product matrix X'X is not finite: a covariate or "
            "year - year_offset is too large in magnitude")
    design = GroupedDesign(
        X=X, y=y, group_idx=np.repeat(np.arange(m, dtype=np.intp), sizes), sizes=sizes,
        unit_ids=unit_ids,
        xbar=xbar, ybar=ybar, XtX_g=XtX_g, Xty_g=Xty_g, yty_g=yty_g,
    )
    evals = design.xtx_eigh[0]  # ascending
    if not evals[0] > 0.0:
        raise ValidationError(
            f"pooled cross-product matrix is numerically singular: not positive "
            f"definite (smallest eigenvalue {evals[0]:.3g})")
    rcond = evals[0] / evals[-1]
    if rcond < RCOND_MIN:
        raise ValidationError(
            f"pooled cross-product matrix is numerically singular "
            f"(reciprocal condition {rcond:.3g} < {RCOND_MIN:g})"
        )
    return design
