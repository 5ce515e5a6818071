"""Workloads, inputs and the two kinds of run the benchmark makes.

An untraced run times each CLI stage as a fresh ``python -m glmixer.cli``
process; a traced run repeats the pipeline in-process with spans around
the calls into each glmixer module. Both check every output (checks.py).
"""

import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, instrument
from spawn import PROBE_REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# The generating model of every workload's panel (Model 1 column order);
# the intercept puts completeness across all five metric bands.
TRUE_BETA = (-1.5, 0.15, -0.008, -3.0, -0.45, 0.9, 0.02)
TRUE_TAU = 25.0
TRUE_PHI = 4.0
FIRST_YEAR = 2000

MIN_SETUPS = 3
MIN_ROUNDS = 3
STAGES = ("simulate", "fit", "predict", "diagnose", "metrics")
PANEL_HEADER = ("unit_id", "year", "sex", "completeness", "reg_cdr", "pct65", "u5mr", "c5q0")

# The chains are far shorter than a default fit (20000 iterations) so that
# one run holds several rounds of the whole pipeline: on a shared machine
# a single stage time varies by a tenth or more between invocations, and
# the medians need the samples. Each workload keeps its bottleneck.
WORKLOADS = {
    # the ROADMAP reference shape at 1/20 of the default 20000 iterations
    "reference": dict(m=30, n_i=20, error_prior="half-cauchy", local_prior="horseshoe",
                      iters=1000, burn_in=500, thin=2, chains=4),
    # sampler-bound: the Student-t omega/nu step dominates each sweep,
    # and 300 units load the per-unit predict loop and row handling
    "wide-student-t": dict(m=300, n_i=10, error_prior="half-cauchy", local_prior="student-t",
                           iters=200, burn_in=40, thin=8, chains=4),
    # artifact-bound: the cheapest sweep, thin 1, long traces to write,
    # read twice and summarize
    "long-trace": dict(m=30, n_i=20, error_prior="gamma", local_prior="gamma",
                       iters=800, burn_in=100, thin=1, chains=4),
}

E2E_UNITS = {"setup_s": "s", **{f"{s}_s": "s" for s in STAGES},
             "fit_peak_mb": "MB", "predict_peak_mb": "MB"}

# Spans around the module functions the CLI calls, with the counts taken there.
TRACE_TARGETS = (
    ("glmixer.data", "load_panel", "data.load_panel",
     ("data.rows", lambda a, k, r: r.n)),
    ("glmixer.design", "build_matrices", "design.build_matrices", None),
    ("glmixer.simulate", "simulate_panel", "simulate.simulate_panel", None),
    ("glmixer.cli", "run_chains", "cli.run_chains", None),
    ("glmixer.inference", "summarize", "inference.summarize",
     ("inference.params", lambda a, k, r: len(r.rows))),
    ("glmixer.inference", "predict_new_unit", "inference.predict_new_unit",
     ("inference.prediction_rows", lambda a, k, r: len(r.mean))),
    ("glmixer.artifacts", "write_fit", "artifacts.write_fit",
     ("artifacts.values", lambda a, k, r: sum(
         np.size(v) for t in (a[1] if len(a) > 1 else k["traces"]) for v in t.draws.values()))),
    ("glmixer.artifacts", "load_fit", "artifacts.load_fit", None),
    ("glmixer.artifacts", "write_panel_csv", "artifacts.write_panel_csv", None),
    ("glmixer.artifacts", "write_predictions_csv", "artifacts.write_predictions_csv", None),
    ("glmixer.metrics", "metric_report", "metrics.metric_report", None),
)

STEP_CYCLES = 300
KERNEL_REPS = 1000
WARM_SWEEPS = 200


def workers_for(wl) -> int:
    return min(wl["chains"], len(os.sched_getaffinity(0)))


def write_panel(path: Path, name: str, wl, seed: int) -> list:
    """Write the workload's panel CSV from the benchmark's own generator and
    return its rows as the strings written."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    m, n_i = wl["m"], wl["n_i"]
    offset = FIRST_YEAR + (n_i - 1) / 2.0
    u = rng.standard_normal(m) / math.sqrt(TRUE_PHI)
    rows = []
    for i in range(m):
        cdr = rng.uniform(2.0, 12.0, n_i)
        p65 = rng.uniform(0.01, 0.20, n_i)
        u5 = rng.uniform(0.005, 0.15, n_i)
        c5 = rng.uniform(0.3, 1.0, n_i)
        eps = rng.standard_normal(n_i) / math.sqrt(TRUE_TAU)
        for j in range(n_i):
            x = checks.design_row(FIRST_YEAR + j, float(cdr[j]), float(p65[j]),
                                  float(u5[j]), float(c5[j]), offset)
            theta = math.fsum(b * v for b, v in zip(TRUE_BETA, x)) + u[i] + eps[j]
            values = (f"B{i:04d}", str(FIRST_YEAR + j), "both",
                      repr(float(1.0 / (1.0 + math.exp(-theta)))),
                      repr(float(cdr[j])), repr(float(p65[j])), repr(float(u5[j])),
                      repr(float(c5[j])))
            rows.append(dict(zip(PANEL_HEADER, values)))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(PANEL_HEADER) + "\n")
        for r in rows:
            fh.write(",".join(r[h] for h in PANEL_HEADER) + "\n")
    return rows


def stage_args(stage: str, wl, seed: int, panel: Path, out: Path) -> list:
    if stage == "simulate":
        return ["simulate", "--m", str(wl["m"]), "--n-obs", str(wl["n_i"]),
                "--seed", str(seed), "--tau", repr(TRUE_TAU), "--phi", repr(TRUE_PHI),
                "--beta", *map(repr, TRUE_BETA), "--out", str(out / "sim")]
    if stage == "fit":
        return ["fit", "--input", str(panel), "--error-prior", wl["error_prior"],
                "--local-prior", wl["local_prior"], "--iters", str(wl["iters"]),
                "--burn-in", str(wl["burn_in"]), "--thin", str(wl["thin"]),
                "--chains", str(wl["chains"]), "--seed", str(seed), "--out", str(out / "fit")]
    if stage == "predict":
        return ["predict", "--artifact", str(out / "fit"), "--input", str(panel),
                "--mode", "integrate", "--out", str(out / "pred")]
    if stage == "diagnose":
        return ["diagnose", "--artifact", str(out / "fit"), "--out", str(out / "diag")]
    return ["metrics", "--predictions", str(out / "pred" / "predictions.csv"),
            "--observed", str(panel), "--out", str(out / "met")]


def child_env() -> dict:
    # The timed CLI runs sample their chains serially. With one pool worker
    # per vCPU the fit's wall time follows the slower vCPU, and on a shared
    # host that one changes from minute to minute: 2-worker fit_s on
    # `reference` moved by a quarter between consecutive runs while the
    # one-process stages held steady. The traced run keeps the pool and
    # reports its efficiency.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["GLMIXER_THREADS"] = "1"
    return env


def run_checks(out: Path, wl, seed: int, panel_rows: list) -> dict:
    """{check name: None if it passed, else the reason}."""
    results = {}

    def attempt(name, fn):
        try:
            fn()
            results[name] = None
        except Exception as exc:  # a crashing checker fails its check
            results[name] = f"{type(exc).__name__}: {exc}"

    draws = None

    def fit():
        nonlocal draws
        draws = checks.load_draws(out / "fit")
        checks.check_fit(out / "fit", TRUE_BETA, draws)

    attempt("simulate", lambda: checks.check_simulate(
        out / "sim", m=wl["m"], n_i=wl["n_i"], beta=TRUE_BETA, tau=TRUE_TAU, phi=TRUE_PHI))
    attempt("fit", fit)
    attempt("predict", lambda: checks.check_predict(out / "pred", panel_rows, seed=seed,
                                                    draws=draws))
    attempt("diagnose", lambda: checks.check_diagnose(out / "diag", out / "fit"))
    attempt("metrics", lambda: checks.check_metrics(out / "met", out / "pred", panel_rows))
    return results


def output_hashes(out: Path) -> dict:
    return {d: checks.dir_hashes(out / d) for d in ("sim", "fit", "pred", "diag", "met")}


def machine_facts() -> dict:
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def normalized(samples) -> float:
    """Median over (wall seconds, probe seconds) samples of the wall time
    rescaled to the probe's reference speed. The machine's speed drifts by
    a quarter between minutes (bench/README.md); the probe, a fixed loop
    timed around each command, slows with it and involves no glmixer code."""
    return statistics.median(secs * PROBE_REFERENCE_S / probe for secs, probe in samples)


def run_untraced(name: str, wl, seed: int, seconds: float, wdir: Path, launcher) -> dict:
    """MIN_SETUPS cold imports, then whole rounds of the five CLI stages
    while the next round fits in the run time (at least MIN_ROUNDS), then
    more cold imports while one fits. Rounds interleave the stages, so a
    slow spell of the machine touches every stage metric alike; each
    round after the first is compared byte for byte with the first."""
    env = child_env()
    panel = wdir / "in" / "panel.csv"
    panel_rows = write_panel(panel, name, wl, seed)
    log = wdir / "cli.log"
    importer = [sys.executable, "-c", "import glmixer.cli"]
    launcher.run(importer, env, ROOT, log)  # writes bytecode caches; users do not pay it per call

    start = time.perf_counter()
    setup = []  # (wall seconds, probe seconds)

    def cold_import():
        secs, _, code, probe = launcher.run(importer, env, ROOT, log)
        if code != 0:
            raise SystemExit(f"import glmixer.cli failed with exit code {code}; see {log}")
        setup.append((secs, probe))

    for _ in range(MIN_SETUPS):
        cold_import()
    rounds, failed_stages = [], 0
    rounds_start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start
            + (time.perf_counter() - rounds_start) / len(rounds) <= seconds):
        out = wdir / f"round{len(rounds)}"
        rec = {"seconds": {}, "probe": {}, "peak_mb": {}}
        for stage in STAGES:
            secs, peak, code, probe = launcher.run(
                [sys.executable, "-m", "glmixer.cli", *stage_args(stage, wl, seed, panel, out)],
                env, ROOT, log)
            rec["seconds"][stage], rec["probe"][stage], rec["peak_mb"][stage] = secs, probe, peak
            failed_stages += code != 0
        rec["hashes"] = output_hashes(out)
        rounds.append(rec)
    while time.perf_counter() - start + statistics.fmean(s for s, _ in setup) <= seconds:
        cold_import()

    check_results = run_checks(wdir / "round0", wl, seed, panel_rows)
    for k, rec in enumerate(rounds[1:], start=1):
        check_results[f"identical_round{k}"] = (
            None if rec["hashes"] == rounds[0]["hashes"] else "artifacts differ from round 0")
    samples = {"setup": setup,
               **{s: [(r["seconds"][s], r["probe"][s]) for r in rounds] for s in STAGES}}
    metrics = {**{f"{s}_s": normalized(v) for s, v in samples.items()},
               "fit_peak_mb": statistics.median(r["peak_mb"]["fit"] for r in rounds),
               "predict_peak_mb": statistics.median(r["peak_mb"]["predict"] for r in rounds)}
    raw = {f"{s}_s": statistics.median(secs for secs, _ in v) for s, v in samples.items()}
    return {"metrics": {k: (v, E2E_UNITS[k]) for k, v in metrics.items()},
            "attempted": len(STAGES) * len(rounds) + len(check_results),
            "failed_stages": failed_stages, "checks": check_results,
            "record": {"raw_median_s": raw, "setup": setup, "rounds": rounds}}


def time_steps(design, priors, seed: int) -> dict:
    """Mean us per call of each public Gibbs step, called in the sweep's
    order on a state warmed up by gibbs.sweep, and of the two kernels at
    this workload's shapes. Steps the workload's sweep does not run read 0."""
    from glmixer import gibbs, kernels

    rng = kernels.RngStream(seed, 0).generator()
    state = gibbs.initialize_state(design, priors, rng)
    for _ in range(WARM_SWEEPS):
        gibbs.sweep(state, design, priors, rng)
    steps = [("step_u", lambda: gibbs.step_u(state, design, rng)),
             ("step_beta", lambda: gibbs.step_beta(state, design, priors, rng)),
             ("step_global_scales", lambda: gibbs.step_global_scales(state, design, priors, rng))]
    if priors.error_prior == "half-cauchy":
        steps.append(("step_lambda", lambda: gibbs.step_lambda_halfcauchy(state, design, rng)))
    if priors.reffect_prior != "gamma":
        steps.append(("step_omega", lambda: gibbs.step_omega(state, priors, rng)))
    total = {n: 0.0 for n in ("step_u", "step_beta", "step_global_scales",
                              "step_lambda", "step_omega")}
    for _ in range(STEP_CYCLES):
        for n, call in steps:
            t0 = time.perf_counter()
            call()
            total[n] += time.perf_counter() - t0
    out = {f"gibbs.{n}_us": 1e6 * t / STEP_CYCLES for n, t in total.items()}

    rhs, prec = gibbs.beta_conditional(state, design, priors.beta_prior_precision)
    log_w = gibbs.nu_log_weights(state.u, state.phi, priors)
    for n, call in (("draw_mvn_from_precision",
                     lambda: kernels.draw_mvn_from_precision(rng, rhs, prec)),
                    ("draw_categorical_log", lambda: kernels.draw_categorical_log(rng, log_w))):
        t0 = time.perf_counter()
        for _ in range(KERNEL_REPS):
            call()
        out[f"kernels.{n}_us"] = 1e6 * (time.perf_counter() - t0) / KERNEL_REPS
    return out


def run_traced(name: str, wl, seed: int, wdir: Path) -> dict:
    """The pipeline in-process, plain, traced and plain again; the chains
    run serially; and the step and kernel timings."""
    from glmixer import cli, gibbs
    from glmixer.data import load_panel
    from glmixer.design import ModelSpec, build_matrices

    os.environ["GLMIXER_THREADS"] = str(workers_for(wl))
    panel = wdir / "in" / "panel.csv"
    panel_rows = write_panel(panel, name, wl, seed)
    failed_stages = 0

    def run_stages(out: Path, tracer=None) -> float:
        nonlocal failed_stages
        start = time.perf_counter()
        for stage in STAGES:
            args = stage_args(stage, wl, seed, panel, out)
            if tracer is None:
                code = cli.main(args)
            else:
                with tracer.span(f"cli.{stage}"):
                    code = cli.main(args)
            failed_stages += code != 0
        return time.perf_counter() - start

    # plain runs on both sides of the traced one, so that first-call costs
    # do not count as tracing overhead
    plain_s = [run_stages(wdir / "plain0")]
    tracer = Tracer()
    with instrument(tracer, TRACE_TARGETS):
        traced_s = run_stages(wdir / "traced", tracer)
    plain_s.append(run_stages(wdir / "plain1"))

    spec = ModelSpec(variant=1, sex="both",
                     year_offset=statistics.fmean(int(r["year"]) for r in panel_rows))
    priors = gibbs.PriorConfig(error_prior=wl["error_prior"], reffect_prior=wl["local_prior"])
    design = build_matrices(load_panel(panel), spec)
    for k in range(wl["chains"]):
        with tracer.span("gibbs.run_chain"):
            gibbs.run_chain(design, spec, priors, n_iter=wl["iters"], burn_in=wl["burn_in"],
                            thin=wl["thin"], seed=seed, stream_id=k)
    steps = time_steps(design, priors, seed)
    tracer.write(wdir / "spans.json")

    # a layer the program no longer calls reports nothing rather than 0
    by_name = tracer.self_by_name()
    self_s = lambda n: by_name[n][1] if n in by_name else None
    count = tracer.counts.get
    chains_s, run_chains_s = self_s("gibbs.run_chain"), self_s("cli.run_chains")
    sweeps = wl["chains"] * wl["iters"]
    fit_bytes = sum(p.stat().st_size for p in (wdir / "traced" / "fit").iterdir())
    layer = {
        "cli.run_chains_s": (run_chains_s, "s"),
        "cli.pool_efficiency": (chains_s / (workers_for(wl) * run_chains_s)
                                if run_chains_s else None, "ratio"),
        "data.load_panel_s": (self_s("data.load_panel"), "s"),
        "data.rows": (count("data.rows"), "count"),
        "design.build_matrices_s": (self_s("design.build_matrices"), "s"),
        "simulate.simulate_panel_s": (self_s("simulate.simulate_panel"), "s"),
        "gibbs.run_chain_s": (chains_s / wl["chains"], "s"),
        "gibbs.sweeps": (sweeps, "count"),
        "gibbs.sweep_us": (1e6 * chains_s / sweeps, "us"),
        **{k: (v, "us") for k, v in steps.items()},
        "inference.summarize_s": (self_s("inference.summarize"), "s"),
        "inference.params": (count("inference.params"), "count"),
        "inference.predict_new_unit_s": (self_s("inference.predict_new_unit"), "s"),
        "inference.prediction_rows": (count("inference.prediction_rows"), "count"),
        "artifacts.write_fit_s": (self_s("artifacts.write_fit"), "s"),
        "artifacts.load_fit_s": (self_s("artifacts.load_fit"), "s"),
        "artifacts.fit_bytes": (fit_bytes, "bytes"),
        "artifacts.values": (count("artifacts.values"), "count"),
        "metrics.metric_report_s": (self_s("metrics.metric_report"), "s"),
        "trace.overhead_s": (traced_s - statistics.fmean(plain_s), "s"),
    }
    layer = {k: v for k, v in layer.items() if v[0] is not None}
    check_results = run_checks(wdir / "traced", wl, seed, panel_rows)
    hashes = output_hashes(wdir / "traced")
    for k in range(len(plain_s)):
        check_results[f"identical_plain{k}"] = (
            None if output_hashes(wdir / f"plain{k}") == hashes
            else "artifacts differ from the traced run's")
    return {"metrics": layer, "attempted": 3 * len(STAGES) + len(check_results),
            "failed_stages": failed_stages, "checks": check_results,
            "record": {"plain_s": plain_s, "traced_s": traced_s,
                       "self_s": {n: {"calls": c, "self_s": s} for n, (c, s) in by_name.items()},
                       "hashes": hashes}}


def run_workload(name: str, seed: int, seconds: int, trace: bool, launcher) -> dict:
    wl = WORKLOADS[name]
    wdir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    res = (run_traced(name, wl, seed, wdir) if trace
           else run_untraced(name, wl, seed, seconds, wdir, launcher))
    failed_checks = [n for n, why in res["checks"].items() if why is not None]
    result = {"correct": not failed_checks,
              "attempted": res["attempted"],
              "failed": res["failed_stages"] + len(failed_checks),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    record = {"workload": name, "make_up": wl, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_facts(), "checks": res["checks"],
              **res["record"], "result": result}
    with open(wdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for sub in wdir.iterdir():  # keep the record, spans and logs; drop the artifacts
        if sub.is_dir():
            shutil.rmtree(sub)
    for n in failed_checks:
        print(f"{name}: check {n} failed: {res['checks'][n]}", file=sys.stderr)
    return result
