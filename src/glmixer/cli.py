"""Batch front end: simulate, fit, predict, diagnose, metrics, check-theory.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O.
All randomness flows from one --seed: chain k uses stream_id k and
prediction sampling uses stream_id 1e6 + k. `fit` samples its chains in
lockstep in one process, so chain k's draws do not depend on --chains.
A helper process writes the chain files while the chains sample
(`chainfiles`). Partially written output directories are removed on failure.

Importing this module loads no package module but `errors` and
`defaults`: each command imports what it runs. So only simulate, fit,
predict and check-theory load numpy; only fit loads the sampler
(`gibbs`), and only fit and check-theory the summaries (`inference`);
`metrics` adds only `data` and `metrics`, and `--help` and argument
errors add nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import sys
from itertools import compress

from .defaults import DEFAULT_BURN_IN, DEFAULT_CHAINS, DEFAULT_N_ITER, DEFAULT_THIN
from .errors import GlmixerError, NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _filter_sex(panel, sex: str):
    """The panel's rows of `sex`; the panel itself when that is all of
    them, since a loaded panel is already grouped and sorted."""
    from .data import build_panel

    keep = [s == sex for s in panel.sex]
    if not any(keep):
        raise ValidationError(f"no observations with sex = {sex!r}")
    return panel if all(keep) else build_panel(*(compress(col, keep) for col in panel.columns()))


def run_chains(*args, **kwargs) -> list:
    """`gibbs.run_chains`, imported on first call."""
    from .gibbs import run_chains
    return run_chains(*args, **kwargs)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> None:
    from .data import write_panel_csv
    from .simulate import SimConfig, simulate_panel

    config = SimConfig(m=args.m, n_i=args.n_obs, variant=args.model, sex=args.sex,
                       beta=tuple(args.beta) if args.beta else None,
                       tau=args.tau, phi=args.phi,
                       reffect_prior=args.reffect_family, seed=args.seed)
    panel, truth = simulate_panel(config)
    os.makedirs(args.out, exist_ok=True)
    write_panel_csv(panel, os.path.join(args.out, "panel.csv"))
    with open(os.path.join(args.out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_counts(args) -> None:
    for flag, value, minimum in (("--chains", args.chains, 1), ("--iters", args.iters, 1),
                                 ("--thin", args.thin, 1), ("--burn-in", args.burn_in, 0)):
        if value < minimum:
            raise ValidationError(f"{flag} must be >= {minimum}, got {value}")


def cmd_fit(args) -> None:
    from . import artifacts
    from .chainfiles import ChainWriter

    _check_counts(args)
    # the helper starts while numpy loads, and writes as the chains sample
    with ChainWriter(args.out, args.chains, artifacts.CHAIN_CSV) as chain_files:
        import numpy as np

        from .data import load_panel
        from .design import ModelSpec, build_matrices
        from .gibbs import PriorConfig

        panel = load_panel(args.input, clamp_policy=args.clamp_policy)
        panel = _filter_sex(panel, args.sex)
        offset = args.year_offset if args.year_offset is not None else float(np.mean(panel.year))
        spec = ModelSpec(variant=args.model, sex=args.sex, year_offset=offset)
        priors = PriorConfig(error_prior=args.error_prior, reffect_prior=args.local_prior,
                             nu_weight=args.nu_weight)
        design = build_matrices(panel, spec)
        chain_files.begin(artifacts.trace_layout(priors, spec, design.m)[1])
        traces = run_chains(design, spec, priors, n_iter=args.iters,
                            burn_in=args.burn_in, thin=args.thin, seed=args.seed,
                            chains=args.chains, sink=chain_files)
        from .inference import summarize  # loaded while the helper catches up

        summary = summarize(traces)
        artifacts.write_fit(args.out, traces, summary, seed=args.seed,
                            clamp_policy=args.clamp_policy, chain_files=chain_files)


def cmd_predict(args) -> None:
    from . import artifacts
    from .data import load_panel
    from .design import ModelSpec, design_rows
    from .prediction import predict_new_unit

    # predictions read beta and phi only; every chain file is still checked
    traces, manifest = artifacts.load_fit(args.artifact, keys=("beta", "phi"))
    spec = ModelSpec.from_dict(manifest["spec"])
    panel = _filter_sex(load_panel(args.input, allow_missing_completeness=True), spec.sex)
    X, _, sizes = design_rows(panel, spec)
    mode = "fixed_only" if args.mode == "fixed-only" else "integrate_reffect"
    prediction = predict_new_unit(traces, X, sizes, mode=mode)
    os.makedirs(args.out, exist_ok=True)
    artifacts.write_predictions_csv(prediction, panel,
                                    os.path.join(args.out, artifacts.PREDICTIONS_NAME))


def cmd_diagnose(args) -> None:
    from . import artifacts

    # summary.csv already holds the fit's ESS and R-hat for every scalar
    rows = artifacts.load_summary_rows(args.artifact)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "diagnostics.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["param", "index", "ess", "rhat"])
        w.writerows([row["param"], row["index"], row["ess"], row["rhat"]] for row in rows)


def _read_predictions(path) -> dict:
    """{(unit_id, year, sex): mean} of a predictions CSV; of a column named
    twice, the last is read."""
    from .data import read_csv_rows

    records = read_csv_rows(path)
    header = records[0] if records else []
    missing = {"unit_id", "year", "sex", "mean"} - set(header)
    if missing:
        raise ValidationError(f"{path}: header lacks {sorted(missing)}")
    ui, yi, si, mi = map({name: j for j, name in enumerate(header)}.get,
                         ("unit_id", "year", "sex", "mean"))
    by_key = {}
    for line_no, fields in enumerate(records[1:], start=2):
        if not fields:
            continue
        if len(fields) != len(header):
            raise ValidationError(
                f"{path}: line {line_no}: {len(fields)} fields, header has {len(header)}")
        try:
            key, mean = (fields[ui], int(fields[yi]), fields[si]), float(fields[mi])
        except ValueError:
            raise ValidationError(
                f"{path}: line {line_no}: year {fields[yi]!r} is not an integer "
                f"or mean {fields[mi]!r} is not a number") from None
        if not math.isfinite(mean):
            raise ValidationError(f"{path}: line {line_no}: mean {mean!r} is not finite")
        if key in by_key:
            raise ValidationError(f"{path}: duplicate prediction for {key}")
        by_key[key] = mean
    if not by_key:
        raise ValidationError(f"{path}: no prediction rows")
    return by_key


def cmd_metrics(args) -> None:
    from .data import load_panel
    from .metrics import metric_report

    by_key = _read_predictions(args.predictions)
    # the observations of the sexes predicted (a one-sex fit predicts only
    # its sex), joined on (unit_id, year, sex)
    sexes = {sex for _, _, sex in by_key}
    panel = load_panel(args.observed)
    observed = [(key, c) for key, c in zip(zip(panel.unit_id, panel.year, panel.sex),
                                           panel.completeness) if key[2] in sexes]
    missing = [key for key, _ in observed if key not in by_key]
    extra = by_key.keys() - {key for key, _ in observed}
    if missing or extra:
        raise ValidationError(
            f"predictions and observations differ on (unit_id, year, sex): {len(missing)} "
            f"observations have no prediction, {len(extra)} predictions match no observation")
    predicted = [by_key[key] for key, _ in observed]
    obs = [c for _, c in observed]
    report = metric_report(predicted, obs)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "metrics.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["metric", "band", "value"])
        w.writerows([name, "", repr(getattr(report, name))]
                    for name in ("mae", "rmse", "r_square", "n_small_dev"))
        w.writerows([name, label, repr(value)] for label, values in report.stratified.items()
                    for name, value in zip(("mae", "rmse", "n"), values))


def cmd_check_theory(args) -> None:
    import numpy as np

    from .inference import theorem2_curve
    from .kernels import allocate

    if args.grid_points < 3:  # the tail slope needs at least two points
        raise ValidationError(f"--grid-points must be >= 3, got {args.grid_points}")
    lo, hi, top = args.log10_min, args.log10_max, math.log10(sys.float_info.max)
    if not -top < lo < hi < top:  # also rejects NaN
        raise ValidationError(f"need -{top:.6g} < --log10-min < --log10-max < {top:.6g}, so that "
                              f"the phi grid is finite and > 0; got {lo!r} and {hi!r}")
    grid = allocate(args.grid_points)  # a size numpy refuses exits 2 here
    grid[:] = np.logspace(lo, hi, args.grid_points)
    curve = theorem2_curve(args.prior, args.eps, n_i=args.n_obs,
                           resid_mean=args.resid, lam_tau=args.lam_tau,
                           phi_grid=grid)
    monotone = bool(np.all(np.diff(curve) <= 1e-8))
    checks = {"prior": args.prior, "eps": args.eps, "monotone_decreasing": monotone}
    tail = curve > 0
    log_curve = np.log(np.maximum(curve, 1e-300))
    k = args.grid_points // 2
    if args.prior == "horseshoe":
        # fit log P ~ slope * log phi on the grid tail
        slope = np.polyfit(np.log(grid[k:]), log_curve[k:], 1)[0]
        checks["tail_loglog_slope"] = float(slope)
        checks["slope_pass"] = bool(abs(slope + 0.5) <= 0.05)
    elif args.prior == "laplace":
        c1 = (1.0 - args.eps) / args.eps * args.n_obs * args.lam_tau
        slope = np.polyfit(grid[k:], log_curve[k:], 1)[0]
        checks["exp_decay_slope"] = float(slope)
        checks["expected_minus_inv_c1"] = -1.0 / c1
        checks["slope_pass"] = bool(slope < 0 and abs(-slope - 1.0 / c1) <= 0.2 / c1)
    checks["pass"] = monotone and checks.get("slope_pass", True) and bool(tail.any())
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "theory_curve.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["phi", "prob_gamma_gt_eps"])
        for g, p in zip(grid, curve):
            w.writerow([repr(float(g)), repr(float(p))])
    with open(os.path.join(args.out, "theory_checks.json"), "w", encoding="utf-8") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmixer",
        description="Hierarchical mixed models with Global-Local shrinkage "
                    "priors for death-registration completeness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic panel + truth manifest")
    p.add_argument("--m", type=int, default=30, help="number of units")
    p.add_argument("--n-obs", type=int, default=20, help="observations per unit")
    p.add_argument("--model", type=int, choices=(1, 2), default=1)
    p.add_argument("--sex", choices=("both", "female", "male"), default="both")
    p.add_argument("--beta", type=float, nargs="*", default=None,
                   help="true coefficients (default: built-in)")
    p.add_argument("--tau", type=float, default=25.0, help="true error precision")
    p.add_argument("--phi", type=float, default=4.0, help="true effect precision")
    p.add_argument("--reffect-family",
                   choices=("gamma", "student-t", "horseshoe", "laplace"),
                   default="gamma", help="local scale family for the true effects")
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model with Gibbs sampling")
    p.add_argument("--input", required=True, help="panel CSV")
    p.add_argument("--model", type=int, choices=(1, 2), default=1)
    p.add_argument("--sex", choices=("both", "female", "male"), default="both")
    p.add_argument("--error-prior", choices=("gamma", "half-cauchy"),
                   default="half-cauchy")
    p.add_argument("--local-prior",
                   choices=("gamma", "student-t", "horseshoe", "laplace"),
                   default="horseshoe")
    p.add_argument("--iters", type=int, default=DEFAULT_N_ITER)
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--thin", type=int, default=DEFAULT_THIN)
    p.add_argument("--chains", type=int, default=DEFAULT_CHAINS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clamp-policy", choices=("clamp", "reject"), default="clamp")
    p.add_argument("--nu-weight", choices=("algorithm3", "prose"), default="algorithm3")
    p.add_argument("--year-offset", type=float, default=None,
                   help="year centering offset (default: mean fit-data year)")
    add_out(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior predictive completeness for new units")
    p.add_argument("--artifact", required=True, help="fit artifact directory")
    p.add_argument("--input", required=True,
                   help="covariate CSV in the fit-time schema (completeness may be blank)")
    p.add_argument("--mode", choices=("fixed-only", "integrate"), default="integrate")
    add_out(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("diagnose", help="ESS / R-hat tables for a fit artifact")
    p.add_argument("--artifact", required=True)
    add_out(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("metrics", help="MAE/RMSE/R-square report from predictions")
    p.add_argument("--predictions", required=True, help="predictions CSV")
    p.add_argument("--observed", required=True, help="observed panel CSV")
    add_out(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("check-theory", help="shrinkage-factor concentration rate checks")
    p.add_argument("--prior", choices=("horseshoe", "laplace", "student-t"),
                   default="horseshoe")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--n-obs", type=int, default=10)
    p.add_argument("--resid", type=float, default=1.0, help="group mean residual")
    p.add_argument("--lam-tau", type=float, default=1.0, help="fixed error precision")
    p.add_argument("--log10-min", type=float, default=1.0)
    p.add_argument("--log10-max", type=float, default=6.0)
    p.add_argument("--grid-points", type=int, default=12)
    add_out(p)
    p.set_defaults(func=cmd_check_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    pre_existing = out is not None and os.path.isdir(out)
    try:
        args.func(args)
        return EXIT_OK
    except NumericalError as exc:
        code = EXIT_NUMERICAL
        print(f"numerical error: {exc}", file=sys.stderr)
    except OSError as exc:
        code = EXIT_IO
        print(f"i/o error: {exc}", file=sys.stderr)
    except GlmixerError as exc:
        code = EXIT_VALIDATION
        print(f"error: {exc}", file=sys.stderr)
    if out is not None and not pre_existing and os.path.isdir(out):
        shutil.rmtree(out, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
