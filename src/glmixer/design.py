"""Design rows for Model 1 / Model 2 and the grouped design matrices.

Row order is (intercept, RegCDR, RegCDR^2, pct65^2, ln(5q0), [C5q0 if
Model 1], year - offset). The fraction over 65 enters only through its
square. Year centering conditions the cross-product matrix; the offset is
persisted in fit artifacts so predictions reuse the fit-time rows exactly.
`covariate_rows` fills rows from covariate columns, one column at a time,
with the bits a row of Python floats gives; `design_rows` builds and
checks a panel's rows; `build_matrices` adds the responses and the
per-group statistics a fit samples from.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .data import PanelDataset, logit
from .errors import ValidationError

MODEL1 = 1
MODEL2 = 2

RCOND_MIN = 1e-12


class ModelSpec(namedtuple("ModelSpec", "variant sex year_offset",
                           defaults=(MODEL1, "both", 0.0))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in (MODEL1, MODEL2):
            raise ValidationError(f"model variant must be 1 or 2, got {self.variant!r}")
        if not math.isfinite(self.year_offset):
            raise ValidationError("year_offset must be finite")
        return self

    @property
    def p(self) -> int:
        return 7 if self.variant == MODEL1 else 6

    def column_names(self):
        return (["const", "reg_cdr", "reg_cdr_sq", "pct65_sq", "ln_u5mr"]
                + (["c5q0"] if self.variant == MODEL1 else []) + ["year"])

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(variant=d["variant"], sex=d["sex"], year_offset=d["year_offset"])


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def covariate_rows(spec: ModelSpec, year, reg_cdr, pct65, u5mr, c5q0) -> np.ndarray:
    """Design rows (n, p) of covariate columns, filled one column at a time
    with the bits a row of Python floats gives; c5q0 is read only under
    Model 1, and an entry beyond float range is inf."""
    columns = [[1.0] * len(year), reg_cdr, list(map(_square, reg_cdr)),
               [v ** 2 for v in pct65], list(map(math.log, u5mr))]
    if spec.variant == MODEL1:
        columns.append(c5q0)
    columns.append([y - spec.year_offset for y in year])
    return np.array(columns, dtype=np.float64).T.copy()


def design_rows(panel: PanelDataset, spec: ModelSpec):
    """(X, unit_ids, sizes) of a panel: its design rows (n, p) in group
    order, each group's rows contiguous; the unit ids; and the rows per
    unit (m,). Fitting, fitted values and prediction all build their
    rows here. A row with a non-finite entry is a ValidationError that
    names its observation."""
    keys = list(zip(panel.unit_id, panel.year, panel.sex))
    if spec.variant == MODEL1 and None in panel.c5q0:
        uid, year, sex = keys[panel.c5q0.index(None)]
        raise ValidationError(f"Model 1 needs c5q0 but ({uid}, {year}, {sex}) has none")
    X = covariate_rows(spec, panel.year, panel.reg_cdr, panel.pct65, panel.u5mr, panel.c5q0)
    if not np.isfinite(X).all():
        uid, year, sex = keys[int(np.isfinite(X).all(axis=1).argmin())]
        raise ValidationError(
            f"design row of ({uid}, {year}, {sex}) is not finite: "
            f"reg_cdr^2 or year - year_offset is beyond float range")
    return X, panel.unit_ids, np.asarray(panel.sizes, dtype=np.intp)


def _side_by_side(*parts) -> np.ndarray:
    """The (..., m, k_j) arrays `parts` joined along their last axis,
    broadcast over their leading axes."""
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in parts))
    return np.concatenate([np.broadcast_to(a, lead + a.shape[-1:]) for a in parts], axis=-1)


class GroupedDesign:
    """Stacked design with per-group sufficient statistics for the sampler.

    A Gibbs sweep reads only the per-group statistics (`sizes`, `xbar`,
    `ybar`, `XtX_g`, `Xty_g`, `yty_g`) and the per-design constants
    below, never the n rows `X`, `y`, `group_idx`. The constants are
    computed on first use and kept, so they cost once per fit.
    `xtx_eigh` and `lambda_shape` depend on the covariates and sizes
    only; `beta_sums` and `rss_sums` also hold the y sums, which may
    carry a leading chain axis.
    """

    def __init__(self, X, y, group_idx, sizes, unit_ids, xbar, ybar, XtX_g, Xty_g, yty_g):
        self.X = X                  # (n, p)
        self.y = y                  # (n,) logit completeness
        self.group_idx = group_idx  # (n,) int, row -> group
        self.sizes = sizes          # (m,) int
        self.unit_ids = unit_ids    # tuple
        self.xbar = xbar            # (m, p) per-group covariate means
        self.ybar = ybar            # (m,)
        self.XtX_g = XtX_g          # (m, p, p)
        self.Xty_g = Xty_g          # (m, p)
        self.yty_g = yty_g          # (m,) per-group sums of y^2

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
    def beta_sums(self) -> np.ndarray:
        """(m, 2p + p^2) rows [X_i'y_i, n_i xbar_i, vec X_i'X_i]: the sums
        of the beta conditional, for one product with per-group weights."""
        return _side_by_side(self.Xty_g, self.sizes[:, None] * self.xbar,
                             self.XtX_g.reshape(self.XtX_g.shape[:-2] + (-1,)))

    @functools.cached_property
    def rss_sums(self) -> np.ndarray:
        """(m, 1 + 2p + p^2) rows [y_i'y_i, X_i'y_i, vec X_i'X_i, xbar_i]:
        the sums of the residual sums of squares, for one product with
        per-chain coefficients."""
        return _side_by_side(self.yty_g[..., None], self.Xty_g,
                             self.XtX_g.reshape(self.XtX_g.shape[:-2] + (-1,)), self.xbar)

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
    y = np.asarray(list(map(logit, panel.completeness)))
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
