"""Batch front end: simulate, fit, predict, diagnose, metrics, check-theory.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O.
All randomness flows from one --seed: chain k uses stream_id k and
prediction sampling uses stream_id 1e6 + k. GLMIXER_THREADS caps the
number of concurrent chain workers. Partially written output
directories are removed on failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import shutil
import sys

import numpy as np

from . import artifacts
from .data import load_panel, build_panel, PanelDataset
from .design import ModelSpec, build_matrices, build_row
from .errors import GlmixerError, NumericalError, ValidationError
from .gibbs import (DEFAULT_BURN_IN, DEFAULT_CHAINS, DEFAULT_N_ITER,
                    DEFAULT_THIN, PriorConfig, run_chain)
from .inference import predict_new_unit, summarize, theorem2_curve
from .metrics import metric_report
from .simulate import SimConfig, simulate_panel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _worker_count(requested: int) -> int:
    cap = os.environ.get("GLMIXER_THREADS")
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            raise ValidationError(f"GLMIXER_THREADS must be an integer, got {cap!r}")
        if cap < 1:
            raise ValidationError("GLMIXER_THREADS must be >= 1")
        return min(requested, cap)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(requested, cpus)


def _chain_job(args):
    design, spec, priors, n_iter, burn_in, thin, seed, stream_id = args
    return run_chain(design, spec, priors, n_iter=n_iter, burn_in=burn_in,
                     thin=thin, seed=seed, stream_id=stream_id)


def run_chains(design, spec, priors, *, n_iter, burn_in, thin, seed, chains):
    jobs = [(design, spec, priors, n_iter, burn_in, thin, seed, k)
            for k in range(chains)]
    workers = _worker_count(chains)
    if workers <= 1 or chains <= 1:
        return [_chain_job(j) for j in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chain_job, jobs))


def _filter_sex(panel: PanelDataset, sex: str) -> PanelDataset:
    obs = [o for o in panel.observations() if o.sex == sex]
    if not obs:
        raise ValidationError(f"no observations with sex = {sex!r}")
    return build_panel(obs)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> None:
    config = SimConfig(m=args.m, n_i=args.n_obs, variant=args.model, sex=args.sex,
                       beta=tuple(args.beta) if args.beta else None,
                       tau=args.tau, phi=args.phi,
                       reffect_prior=args.reffect_family, seed=args.seed)
    panel, truth = simulate_panel(config)
    os.makedirs(args.out, exist_ok=True)
    artifacts.write_panel_csv(panel, os.path.join(args.out, "panel.csv"))
    with open(os.path.join(args.out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _priors_from_args(args) -> PriorConfig:
    return PriorConfig(error_prior=args.error_prior,
                       reffect_prior=args.local_prior,
                       nu_weight=args.nu_weight)


def _check_counts(args) -> None:
    for flag, value, minimum in (("--chains", args.chains, 1), ("--iters", args.iters, 1),
                                 ("--thin", args.thin, 1), ("--burn-in", args.burn_in, 0)):
        if value < minimum:
            raise ValidationError(f"{flag} must be >= {minimum}, got {value}")


def cmd_fit(args) -> None:
    _check_counts(args)
    panel = load_panel(args.input, clamp_policy=args.clamp_policy)
    panel = _filter_sex(panel, args.sex)
    years = [o.period for o in panel.observations()]
    offset = args.year_offset if args.year_offset is not None else float(np.mean(years))
    spec = ModelSpec(variant=args.model, sex=args.sex, year_offset=offset)
    priors = _priors_from_args(args)
    design = build_matrices(panel, spec)
    traces = run_chains(design, spec, priors, n_iter=args.iters,
                        burn_in=args.burn_in, thin=args.thin, seed=args.seed,
                        chains=args.chains)
    summary = summarize(traces)
    os.makedirs(args.out, exist_ok=True)
    artifacts.write_fit(args.out, traces, summary, seed=args.seed,
                        clamp_policy=args.clamp_policy)


def cmd_predict(args) -> None:
    traces, manifest = artifacts.load_fit(args.artifact)
    spec = ModelSpec.from_dict(manifest["spec"])
    panel = load_panel(args.input, allow_missing_completeness=True)
    mode = "fixed_only" if args.mode == "fixed-only" else "integrate_reffect"
    results = []
    for uid, obs_list in panel.groups:
        rows = np.vstack([build_row(o, spec) for o in obs_list])
        results.append(predict_new_unit(traces, rows, mode=mode, unit_id=uid))
    os.makedirs(args.out, exist_ok=True)
    artifacts.write_predictions_csv(results, os.path.join(args.out, artifacts.PREDICTIONS_NAME))


def cmd_diagnose(args) -> None:
    # summary.csv already holds the fit's ESS and R-hat for every scalar
    rows = artifacts.load_summary_rows(args.artifact)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "diagnostics.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["param", "index", "ess", "rhat"])
        for row in rows:
            w.writerow([row["param"], row["index"], row["ess"], row["rhat"]])


def _read_predictions(path):
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"unit_id", "row", "mean"} - set(reader.fieldnames or ())
        if missing:
            raise ValidationError(f"{path}: header lacks {sorted(missing)}")
        for line_no, rec in enumerate(reader, start=2):
            try:
                row, mean = int(rec["row"]), float(rec["mean"])
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{path}: line {line_no}: row {rec['row']!r} is not an integer "
                    f"or mean {rec['mean']!r} is not a number") from None
            if not math.isfinite(mean):
                raise ValidationError(f"{path}: line {line_no}: mean {mean!r} is not finite")
            rows.append((rec["unit_id"], row, mean))
    if not rows:
        raise ValidationError(f"{path}: no prediction rows")
    return rows


def cmd_metrics(args) -> None:
    preds = _read_predictions(args.predictions)
    panel = load_panel(args.observed)
    # join on (unit_id, row): row is the position within the unit, as
    # predict writes it for a panel grouped and sorted the same way
    by_key = {}
    for uid, row, mean in preds:
        if (uid, row) in by_key:
            raise ValidationError(f"duplicate prediction for unit {uid!r} row {row}")
        by_key[(uid, row)] = mean
    observed_keys = [(uid, j) for uid, obs_list in panel.groups for j in range(len(obs_list))]
    missing = [key for key in observed_keys if key not in by_key]
    extra = by_key.keys() - set(observed_keys)
    if missing or extra:
        raise ValidationError(
            f"predictions and observations differ on (unit_id, row): {len(missing)} "
            f"observations have no prediction, {len(extra)} predictions match no observation")
    predicted = np.asarray([by_key[key] for key in observed_keys])
    obs = np.asarray([o.completeness for o in panel.observations()])
    report = metric_report(predicted, obs, paper_literal=args.paper_literal)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "metrics.csv"), "w",
              encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["metric", "band", "value"])
        w.writerow(["mae", "", repr(report.mae)])
        w.writerow(["rmse", "", repr(report.rmse)])
        w.writerow(["r_square", "", repr(report.r_square)])
        w.writerow(["n_small_dev", "", report.n_small_dev])
        for label, (mae_k, rmse_k, n_k) in report.stratified.items():
            w.writerow(["mae", label, repr(mae_k)])
            w.writerow(["rmse", label, repr(rmse_k)])
            w.writerow(["n", label, n_k])


def cmd_check_theory(args) -> None:
    grid = np.logspace(args.log10_min, args.log10_max, args.grid_points)
    curve = theorem2_curve(args.prior, args.eps, n_i=args.n_obs,
                           resid_mean=args.resid, lam_tau=args.lam_tau,
                           phi_grid=grid)
    monotone = bool(np.all(np.diff(curve) <= 1e-8))
    checks = {"prior": args.prior, "eps": args.eps, "monotone_decreasing": monotone}
    tail = curve > 0
    log_curve = np.log(np.maximum(curve, 1e-300))
    if args.prior == "horseshoe":
        # fit log P ~ slope * log phi on the grid tail
        k = args.grid_points // 2
        slope = np.polyfit(np.log(grid[k:]), log_curve[k:], 1)[0]
        checks["tail_loglog_slope"] = float(slope)
        checks["slope_pass"] = bool(abs(slope + 0.5) <= 0.05)
    elif args.prior == "laplace":
        c1 = (1.0 - args.eps) / args.eps * args.n_obs * args.lam_tau
        k = args.grid_points // 2
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
    p.add_argument("--paper-literal", action="store_true",
                   help="evaluate the literal printed R-square variant")
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
    except (ValidationError,) as exc:
        code = EXIT_VALIDATION
        print(f"error: {exc}", file=sys.stderr)
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
