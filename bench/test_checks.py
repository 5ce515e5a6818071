"""Each output checker accepts the program's outputs and rejects a
deliberately corrupted copy of them.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py
"""

import csv
import json
import os
import shutil
import sys

import pytest

import checks
import pipeline

sys.path.insert(0, str(pipeline.SRC))

SEED = 5
# Small, but with enough kept draws (2 x 1000) that a prediction moved to
# its interval's edge is far outside the Monte Carlo tolerance.
WL = dict(m=8, n_i=10, error_prior="half-cauchy", local_prior="horseshoe",
          iters=2400, burn_in=400, thin=2, chains=2)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    from glmixer import cli

    root = tmp_path_factory.mktemp("bench")
    panel = root / "in" / "panel.csv"
    rows = pipeline.write_panel(panel, "reference", WL, SEED)
    saved = os.environ.get("GLMIXER_THREADS")
    os.environ["GLMIXER_THREADS"] = "1"
    try:
        for stage in pipeline.STAGES:
            assert cli.main(pipeline.stage_args(stage, WL, SEED, panel, root / "out")) == 0
    finally:
        if saved is None:
            del os.environ["GLMIXER_THREADS"]
        else:
            os.environ["GLMIXER_THREADS"] = saved
    return root / "out", rows


@pytest.fixture
def out(outputs, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    copy = tmp_path / "out"
    shutil.copytree(outputs[0], copy)
    return copy


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, header, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def test_clean_outputs_pass(outputs):
    out, rows = outputs
    assert pipeline.run_checks(out, WL, SEED, rows) == {
        name: None for name in ("simulate", "fit", "predict", "diagnose", "metrics")}


def test_simulate_rejects_wrong_truth_beta(out):
    path = out / "sim" / "truth.json"
    truth = json.loads(path.read_text())
    truth["beta"][3] += 0.5
    path.write_text(json.dumps(truth))
    with pytest.raises(checks.CheckError, match="truth.json beta"):
        checks.check_simulate(out / "sim", m=WL["m"], n_i=WL["n_i"], beta=pipeline.TRUE_BETA,
                              tau=pipeline.TRUE_TAU, phi=pipeline.TRUE_PHI)


def test_simulate_rejects_negated_logits(out):
    def negate(rows):
        for r in rows:
            r["completeness"] = repr(1.0 - float(r["completeness"]))

    rewrite_csv(out / "sim" / "panel.csv", negate)
    with pytest.raises(checks.CheckError, match="pooled OLS"):
        checks.check_simulate(out / "sim", m=WL["m"], n_i=WL["n_i"], beta=pipeline.TRUE_BETA,
                              tau=pipeline.TRUE_TAU, phi=pipeline.TRUE_PHI)


def test_fit_rejects_summary_quantile(out):
    def nudge(rows):
        rows[2]["q97.5"] = repr(float(rows[2]["q97.5"]) * (1 + 1e-9))

    rewrite_csv(out / "fit" / "summary.csv", nudge)
    with pytest.raises(checks.CheckError, match="q97.5"):
        checks.check_fit(out / "fit", pipeline.TRUE_BETA)


def test_fit_rejects_rhat(out):
    def nudge(rows):
        beta1 = next(r for r in rows if r["param"] == "beta" and r["index"] == "1")
        beta1["rhat"] = repr(float(beta1["rhat"]) + 1e-6)

    rewrite_csv(out / "fit" / "summary.csv", nudge)
    with pytest.raises(checks.CheckError, match=r"beta\[1\] rhat"):
        checks.check_fit(out / "fit", pipeline.TRUE_BETA)


def test_rhat_matches_textbook_formula_on_split_chains():
    import numpy as np
    from scipy.stats import norm

    rng = np.random.default_rng(0)
    chains = rng.standard_normal((3, 40)) + np.array([[0.0], [0.5], [1.5]])
    split = np.vstack([chains[:, :20], chains[:, 20:]])
    order = split.ravel().argsort().argsort() + 1.0
    z = norm.ppf((order - 0.375) / (split.size + 0.25)).reshape(split.shape)
    w = z.var(axis=1, ddof=1).mean()
    b = 20 * z.mean(axis=1).var(ddof=1)
    want = np.sqrt((19 / 20 * w + b / 20) / w)
    assert checks.rank_normalized_split_rhat(chains) == pytest.approx(want, rel=1e-12)
    assert want > 1.1


def test_predict_rejects_mean_at_interval_edge(outputs, out):
    def edge(rows):
        rows[0]["mean"] = rows[0]["q97.5"]

    rewrite_csv(out / "pred" / "predictions.csv", edge)
    with pytest.raises(checks.CheckError, match="independent estimate"):
        checks.check_predict(out / "pred", outputs[1], seed=SEED,
                             draws=checks.load_draws(out / "fit"))


def test_diagnose_rejects_missing_parameter(out):
    rewrite_csv(out / "diag" / "diagnostics.csv", lambda rows: rows.pop())
    with pytest.raises(checks.CheckError, match="diagnose"):
        checks.check_diagnose(out / "diag", out / "fit")


def test_metrics_rejects_predictions_swapped_between_units(outputs, out):
    def swap(rows):
        a, b = rows[0]["unit_id"], rows[-1]["unit_id"]
        for r in rows:
            r["unit_id"] = {a: b, b: a}.get(r["unit_id"], r["unit_id"])

    rewrite_csv(out / "pred" / "predictions.csv", swap)
    with pytest.raises(checks.CheckError, match="metrics"):
        checks.check_metrics(out / "met", out / "pred", outputs[1])


def test_hashes_see_one_changed_byte(out):
    before = pipeline.output_hashes(out)
    path = out / "fit" / "summary.csv"
    path.write_bytes(path.read_bytes().replace(b"beta", b"Beta", 1))
    assert pipeline.output_hashes(out)["fit"] != before["fit"]
