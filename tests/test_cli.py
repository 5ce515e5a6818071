import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import glmixer
from glmixer.artifacts import load_fit
from glmixer.cli import _worker_count, main
from glmixer.inference import summarize

FIT_ARGS = ["--iters", "80", "--burn-in", "20", "--thin", "2",
            "--chains", "2", "--seed", "7"]


@pytest.fixture(autouse=True)
def serial(monkeypatch):
    monkeypatch.setenv("GLMIXER_THREADS", "1")


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--m", "4", "--n-obs", "10", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = main(["fit", "--input", str(sim_dir / "panel.csv"),
                 "--out", str(out)] + FIT_ARGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pred_csv(sim_dir, fit_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pred")
    assert main(["predict", "--artifact", str(fit_dir),
                 "--input", str(sim_dir / "panel.csv"), "--out", str(out)]) == 0
    return out / "predictions.csv"


# Manifest fields for which every different JSON value drawn below is a
# detectable mismatch. Fields that only label the run (seed, version,
# clamp_policy, the prior hyperparameters, run lengths giving the same kept
# count) are not covered by any digest, so they are not edited here.
CHECKED_FIELDS = ("format", "chains", "kept", "sha256", "priors", "spec", "unit_ids", "sizes")
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 100),
                        st.floats(allow_nan=False), st.text(max_size=5),
                        st.lists(st.integers(0, 3), max_size=3))


def corrupt_artifact(art, data):
    """Change a fit artifact so that it no longer matches its manifest:
    truncate, flip a bit in or reorder a chain file's bytes, or edit a
    checked field of the manifest."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "reorder", "manifest-text",
                                      "manifest-drop", "manifest-value", "manifest-nested"]))
    if kind in ("truncate", "flip", "reorder"):
        path = art / data.draw(st.sampled_from(["chain_0.csv", "chain_1.csv"]))
        raw = path.read_bytes()
        if kind == "truncate":
            new = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            i = data.draw(st.integers(0, len(raw) - 1))
            new = raw[:i] + bytes([raw[i] ^ (1 << data.draw(st.integers(0, 7)))]) + raw[i + 1:]
        else:  # swap two adjacent segments
            i, j, k = sorted(data.draw(st.lists(st.integers(0, len(raw)), min_size=3,
                                                max_size=3)))
            new = raw[:i] + raw[j:k] + raw[i:j] + raw[k:]
            assume(new != raw)
        path.write_bytes(new)
        return
    path = art / "manifest.json"
    text = path.read_text()
    if kind == "manifest-text":  # any proper prefix of the object
        path.write_text(text[:data.draw(st.integers(0, text.rindex("}") - 1))])
        return
    manifest = json.loads(text)
    if kind == "manifest-drop":
        del manifest[data.draw(st.sampled_from(CHECKED_FIELDS + ("seed", "n_iter", "burn_in",
                                                                  "thin")))]
    elif kind == "manifest-value":
        key = data.draw(st.sampled_from(CHECKED_FIELDS))
        value = data.draw(JSON_VALUES)
        assume(value != manifest[key])
        manifest[key] = value
    else:
        section, key, value = data.draw(st.sampled_from([
            ("sha256", "chain_0.csv", "0" * 64), ("sha256", "chain_1.csv", None),
            ("spec", "variant", 2), ("spec", "variant", 3), ("spec", "year_offset", "x"),
            ("priors", "reffect_prior", "gamma"), ("priors", "reffect_prior", "student-t"),
            ("priors", "error_prior", "gamma"), ("priors", "nu_support", [])]))
        manifest[section][key] = value
    path.write_text(json.dumps(manifest))


class TestSimulate:
    def test_outputs(self, sim_dir):
        assert (sim_dir / "panel.csv").exists()
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["m"] == 4 and len(truth["u"]) == 4

    def test_deterministic(self, sim_dir, tmp_path):
        assert main(["simulate", "--m", "4", "--n-obs", "10", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "panel.csv").read_bytes() == (sim_dir / "panel.csv").read_bytes()

    def test_seed_changes_output(self, sim_dir, tmp_path):
        main(["simulate", "--m", "4", "--n-obs", "10", "--seed", "4",
              "--out", str(tmp_path)])
        assert (tmp_path / "panel.csv").read_bytes() != (sim_dir / "panel.csv").read_bytes()


class TestFit:
    def test_artifact_files(self, fit_dir):
        assert (fit_dir / "manifest.json").exists()
        assert (fit_dir / "summary.csv").exists()
        assert (fit_dir / "chain_0.csv").exists() and (fit_dir / "chain_1.csv").exists()
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert manifest["chains"] == 2 and manifest["seed"] == 7
        assert manifest["priors"]["reffect_prior"] == "horseshoe"

    def test_deterministic(self, sim_dir, fit_dir, tmp_path):
        assert main(["fit", "--input", str(sim_dir / "panel.csv"),
                     "--out", str(tmp_path)] + FIT_ARGS) == 0
        for name in ("manifest.json", "summary.csv", "chain_0.csv", "chain_1.csv"):
            assert (tmp_path / name).read_bytes() == (fit_dir / name).read_bytes()

    def test_missing_c5q0_model1_exits_2(self, tmp_path):
        csv_path = tmp_path / "panel.csv"
        header = "unit_id,year,sex,completeness,reg_cdr,pct65,u5mr,c5q0"
        rows = [f"A,{2000 + t},both,0.8,5,0.1,0.05," for t in range(10)]
        csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(csv_path), "--model", "1",
                     "--out", str(out)] + FIT_ARGS) == 2
        assert not out.exists()  # partial output removed

    def test_missing_input_exits_4(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "fit")] + FIT_ARGS) == 4

    def test_bad_threads_env_exits_2(self, sim_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("GLMIXER_THREADS", "zero")
        assert main(["fit", "--input", str(sim_dir / "panel.csv"),
                     "--out", str(tmp_path / "fit")] + FIT_ARGS) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--chains", "0"), ("--iters", "0"), ("--thin", "0"), ("--burn-in", "-1")])
    def test_bad_counts_exit_2(self, sim_dir, tmp_path, capsys, flag, value):
        args = FIT_ARGS[:]
        args[args.index(flag) + 1] = value
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sim_dir / "panel.csv"),
                     "--out", str(out)] + args) == 2
        assert f"{flag} must be >=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_covariate_exits_2(self, sim_dir, tmp_path, value):
        lines = (sim_dir / "panel.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        assert lines[0].split(",")[4] == "reg_cdr"
        fields[4] = value
        bad = tmp_path / "panel.csv"
        bad.write_text("".join(lines[:3]) + ",".join(fields) + "".join(lines[4:]))
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(bad), "--out", str(out)] + FIT_ARGS) == 2
        assert not out.exists()

    def test_process_pool_matches_serial(self, sim_dir, tmp_path, monkeypatch):
        args = ["--iters", "30", "--burn-in", "10", "--thin", "1", "--chains", "2",
                "--seed", "11"]
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("GLMIXER_THREADS", threads)
            out = tmp_path / f"fit{threads}"
            assert main(["fit", "--input", str(sim_dir / "panel.csv"),
                         "--out", str(out)] + args) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(trees[0]) == ["chain_0.csv", "chain_1.csv", "manifest.json", "summary.csv"]
        assert trees[0] == trees[1]


class TestPredictAndMetrics:
    def test_pipeline(self, sim_dir, fit_dir, tmp_path):
        pred_out = tmp_path / "pred"
        assert main(["predict", "--artifact", str(fit_dir),
                     "--input", str(sim_dir / "panel.csv"),
                     "--out", str(pred_out)]) == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "unit_id,row,mode,mean,q2.5,q97.5"
        assert len(lines) == 1 + 40  # 4 units x 10 rows
        met_out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(pred_out / "predictions.csv"),
                     "--observed", str(sim_dir / "panel.csv"),
                     "--out", str(met_out)]) == 0
        report = json.loads((met_out / "metrics.json").read_text())
        assert 0.0 <= report["mae"] <= 1.0
        assert set(report["stratified"]) == {
            "(0,30%)", "[30%,60%)", "[60%,80%)", "[80%,90%)", "[90%,100%]"}

    def test_predict_deterministic(self, sim_dir, fit_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["predict", "--artifact", str(fit_dir),
                         "--input", str(sim_dir / "panel.csv"),
                         "--out", str(out)]) == 0
            outs.append((out / "predictions.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_fixed_only_mode(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "pred"
        assert main(["predict", "--artifact", str(fit_dir),
                     "--input", str(sim_dir / "panel.csv"),
                     "--mode", "fixed-only", "--out", str(out)]) == 0
        assert ",fixed_only," in (out / "predictions.csv").read_text()

    def test_predict_missing_artifact_exits_2(self, sim_dir, tmp_path):
        assert main(["predict", "--artifact", str(tmp_path / "none"),
                     "--input", str(sim_dir / "panel.csv"),
                     "--out", str(tmp_path / "pred")]) == 2

    def test_metrics_length_mismatch_exits_2(self, sim_dir, fit_dir, tmp_path):
        pred_out = tmp_path / "pred"
        main(["predict", "--artifact", str(fit_dir),
              "--input", str(sim_dir / "panel.csv"), "--out", str(pred_out)])
        short = tmp_path / "short.csv"
        panel_lines = (sim_dir / "panel.csv").read_text().splitlines()
        short.write_text("\n".join(panel_lines[:5]) + "\n")
        assert main(["metrics", "--predictions", str(pred_out / "predictions.csv"),
                     "--observed", str(short),
                     "--out", str(tmp_path / "met")]) == 2

    def test_metrics_renamed_units_exit_2(self, sim_dir, pred_csv, tmp_path):
        renamed = tmp_path / "renamed.csv"
        lines = (sim_dir / "panel.csv").read_text().splitlines(keepends=True)
        assert all(line.startswith("U00") for line in lines[1:])
        renamed.write_text(lines[0] + "".join("Z00" + line[3:] for line in lines[1:]))
        assert main(["metrics", "--predictions", str(pred_csv),
                     "--observed", str(renamed), "--out", str(tmp_path / "met")]) == 2

    def test_metrics_duplicate_prediction_exits_2(self, sim_dir, pred_csv, tmp_path):
        lines = pred_csv.read_text().splitlines(keepends=True)
        dup = tmp_path / "dup.csv"
        # the last row replaced by a copy of the one before it
        dup.write_text("".join(lines[:-1]) + lines[-2])
        assert main(["metrics", "--predictions", str(dup),
                     "--observed", str(sim_dir / "panel.csv"),
                     "--out", str(tmp_path / "met")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("mean", "avg", 1),
        lambda text: text.replace("unit_id,row", "unit,row", 1),
        lambda text: text.replace("\nU001,0,", "\nU001,x,", 1),
        lambda text: text.replace("\nU001,0,", "\nU001,0.5,", 1),
        lambda text: text.replace(",integrate_reffect,", ",integrate_reffect,high,", 1),
        lambda text: text.replace(",integrate_reffect,", ",integrate_reffect,nan,", 1),
        lambda text: text + "U001,11\n",
    ], ids=["header-mean", "header-unit_id", "row-not-int", "row-float", "mean-not-float",
            "mean-nan", "short-row"])
    def test_metrics_malformed_predictions_exit_2(self, sim_dir, pred_csv, tmp_path, edit):
        text = pred_csv.read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(bad),
                     "--observed", str(sim_dir / "panel.csv"), "--out", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_predict_on_corrupted_artifact_exits_2_or_4(self, sim_dir, fit_dir, data):
        with tempfile.TemporaryDirectory() as tmp:
            art = Path(tmp) / "fit"
            shutil.copytree(fit_dir, art)
            corrupt_artifact(art, data)
            code = main(["predict", "--artifact", str(art),
                         "--input", str(sim_dir / "panel.csv"),
                         "--out", str(Path(tmp) / "pred")])
            assert code in (2, 4)
            assert not (Path(tmp) / "pred").exists()

    def test_metrics_join_ignores_prediction_order(self, sim_dir, pred_csv, tmp_path):
        lines = pred_csv.read_text().splitlines(keepends=True)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(lines[0] + "".join(reversed(lines[1:])))
        reports = []
        for name, preds in (("a", pred_csv), ("b", shuffled)):
            assert main(["metrics", "--predictions", str(preds),
                         "--observed", str(sim_dir / "panel.csv"),
                         "--out", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "metrics.csv").read_bytes())
        assert reports[0] == reports[1]


class TestWorkerCount:
    def test_sized_from_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("GLMIXER_THREADS")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _worker_count(4) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("GLMIXER_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _worker_count(4) == 3

    def test_env_cap_wins(self, monkeypatch):
        monkeypatch.setenv("GLMIXER_THREADS", "2")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert _worker_count(4) == 2


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = str(Path(glmixer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, glmixer.cli; sys.exit(int('scipy.integrate' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


class TestDiagnose:
    def test_outputs(self, fit_dir, tmp_path):
        assert main(["diagnose", "--artifact", str(fit_dir),
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "param,index,ess,rhat"
        assert any(line.startswith("beta,0,") for line in lines)

    def test_copies_summary_of_a_fresh_summarize(self, fit_dir, tmp_path):
        # what diagnose wrote when it reran summarize on the loaded chains
        rows = summarize(load_fit(fit_dir)[0]).rows
        expected = "param,index,ess,rhat\n" + "".join(
            f"{r.param},{r.index},{r.ess!r},{r.rhat!r}\n" for r in rows)
        assert main(["diagnose", "--artifact", str(fit_dir), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "diagnostics.csv").read_bytes() == expected.encode()

    def test_edited_summary_exits_2(self, fit_dir, tmp_path):
        art = tmp_path / "fit"
        shutil.copytree(fit_dir, art)
        summary = art / "summary.csv"
        summary.write_text(summary.read_text().replace("beta,0,", "beta,9,", 1))
        out = tmp_path / "diag"
        assert main(["diagnose", "--artifact", str(art), "--out", str(out)]) == 2
        assert not out.exists()


class TestCheckTheory:
    def test_horseshoe_pass(self, tmp_path):
        assert main(["check-theory", "--prior", "horseshoe", "--eps", "0.5",
                     "--n-obs", "10", "--resid", "0.0",
                     "--log10-min", "2", "--log10-max", "6",
                     "--grid-points", "10", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "theory_checks.json").read_text())
        assert checks["pass"] is True
        assert abs(checks["tail_loglog_slope"] + 0.5) <= 0.05
        curve_lines = (tmp_path / "theory_curve.csv").read_text().splitlines()
        assert len(curve_lines) == 11

    def test_laplace_pass(self, tmp_path):
        assert main(["check-theory", "--prior", "laplace", "--eps", "0.5",
                     "--n-obs", "10", "--resid", "0.0",
                     "--log10-min", "1", "--log10-max", "2.5",
                     "--grid-points", "10", "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "theory_checks.json").read_text())
        assert checks["pass"] is True

    def test_bad_eps_exits_2(self, tmp_path):
        out = tmp_path / "th"
        assert main(["check-theory", "--eps", "1.5", "--out", str(out)]) == 2
        assert not out.exists()
