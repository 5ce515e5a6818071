import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import glmixer
from glmixer import cli, gibbs, prediction, simulate
from glmixer.artifacts import MANIFEST_DIGEST, load_fit, manifest_digest
from glmixer.cli import main
from glmixer.data import build_panel, load_panel
from glmixer.inference import summarize

FIT_ARGS = ["--iters", "80", "--burn-in", "20", "--thin", "2",
            "--chains", "2", "--seed", "7"]


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


def mutate_panel(raw, data):
    """A panel CSV's bytes with one edit drawn by `data`: bytes inserted, a
    field replaced by any text, the file truncated, a field over csv's size
    limit, or a data line repeated."""
    kind = data.draw(st.sampled_from(["insert", "field", "truncate", "huge", "duplicate"]))
    if kind == "insert":
        i = data.draw(st.integers(0, len(raw)))
        return raw[:i] + data.draw(st.binary(min_size=1, max_size=20)) + raw[i:]
    if kind == "field":
        rows = [line.split(b",") for line in raw.split(b"\n")]
        r = data.draw(st.integers(0, len(rows) - 2))
        c = data.draw(st.integers(0, len(rows[r]) - 1))
        rows[r][c] = data.draw(st.text(max_size=12)).encode("utf-8", "surrogatepass")
        return b"\n".join(b",".join(row) for row in rows)
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if kind == "huge":
        return huge_field_text(raw.decode(), data.draw(st.integers(131_073, 300_000))).encode()
    lines = raw.splitlines(keepends=True)
    return raw + lines[data.draw(st.integers(1, len(lines) - 1))]


# Manifest fields for which every different JSON value drawn below is a
# detectable mismatch even when the manifest's own digest is updated to
# match. Fields that only label the run (seed, version, clamp_policy, the
# prior hyperparameters, run lengths giving the same kept count) are
# covered by that digest alone, so only the unsigned edits change them.
CHECKED_FIELDS = ("format", "chains", "kept", "sha256", "priors", "spec", "unit_ids", "sizes")
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 100),
                        st.floats(allow_nan=False), st.text(max_size=5),
                        st.lists(st.integers(0, 3), max_size=3))


def corrupt_artifact(art, data):
    """Change a fit artifact so that it no longer matches its manifest:
    truncate, flip a bit in or reorder a chain file's bytes, edit any field
    of the manifest, or edit a checked field and update the manifest's own
    digest to match."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "reorder", "manifest-text",
                                      "manifest-drop", "manifest-value", "manifest-nested",
                                      "manifest-unsigned"]))
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
    if kind == "manifest-unsigned":
        key = data.draw(st.sampled_from(sorted(set(manifest) - {MANIFEST_DIGEST})))
        value = data.draw(JSON_VALUES)
        assume(value != manifest[key])
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        return
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
    manifest[MANIFEST_DIGEST] = manifest_digest(manifest)
    path.write_text(json.dumps(manifest))


def huge_field_text(text, size=200_000):
    """CSV text whose first data row starts with one quoted field of
    `size` characters, over csv's default field limit of 131072."""
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, '"' + "x" * size + '"' + first[first.index(","):], rest])


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

    @pytest.mark.parametrize("bad", [["--m", "-2"], ["--m", "0"], ["--n-obs", "0"],
                                     ["--tau", "0"], ["--phi", "nan"], ["--seed", "-3"]])
    def test_bad_config_exits_2(self, tmp_path, capsys, bad):
        out = tmp_path / "sim"
        assert main(["simulate", *bad, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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

    def test_undecodable_panel_exits_2(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "panel.csv"
        bad.write_bytes((sim_dir / "panel.csv").read_bytes() + b"\xff")
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(bad), "--out", str(out)] + FIT_ARGS) == 2
        assert "not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_csv_field_exits_2(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "panel.csv"
        bad.write_text(huge_field_text((sim_dir / "panel.csv").read_text()))
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(bad), "--out", str(out)] + FIT_ARGS) == 2
        assert "field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_panel_exits_2_or_4(self, sim_dir, data):
        # three rows per unit: too few to fit even when the edit leaves a
        # well-formed panel, so every input here must be refused
        lines = (sim_dir / "panel.csv").read_bytes().splitlines(keepends=True)
        raw = b"".join([lines[0]] + [line for line in lines[1:]
                                     if line.split(b",")[1] in (b"2000", b"2001", b"2002")])
        raw = mutate_panel(raw, data)
        with tempfile.TemporaryDirectory() as tmp:
            panel, out = Path(tmp) / "panel.csv", Path(tmp) / "fit"
            panel.write_bytes(raw)
            assert main(["fit", "--input", str(panel), "--out", str(out)] + FIT_ARGS) in (2, 4)
            assert not out.exists()

    def test_missing_input_exits_4(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "fit")] + FIT_ARGS) == 4

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

    def test_year_beyond_float_range_exits_2(self, sim_dir, fit_dir, tmp_path, capsys):
        lines = (sim_dir / "panel.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        assert lines[0].split(",")[1] == "year"
        fields[1] = str(10 ** 400)
        bad = tmp_path / "panel.csv"
        bad.write_text("".join(lines[:3]) + ",".join(fields) + "".join(lines[4:]))
        for argv in (["fit", "--input", str(bad)] + FIT_ARGS,
                     ["predict", "--artifact", str(fit_dir), "--input", str(bad)]):
            out = tmp_path / argv[0]
            assert main(argv + ["--out", str(out)]) == 2
            assert "row 4: int too large to convert to float" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_seed_exits_2(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sim_dir / "panel.csv"), "--seed", "-1",
                     "--burn-in", "0", "--iters", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_overflowing_reg_cdr_exits_2(self, sim_dir, fit_dir, tmp_path, capsys):
        # reg_cdr^2 is beyond float range: the row is named, in fit and in predict
        lines = (sim_dir / "panel.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        assert lines[0].split(",")[4] == "reg_cdr"
        fields[4] = "1e160"
        bad = tmp_path / "panel.csv"
        bad.write_text("".join(lines[:3]) + ",".join(fields) + "".join(lines[4:]))
        key = f"({fields[0]}, {fields[1]}, {fields[2]})"
        for argv in (["fit", "--input", str(bad)] + FIT_ARGS,
                     ["predict", "--artifact", str(fit_dir), "--input", str(bad)]):
            out = tmp_path / argv[0]
            assert main(argv + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: design row of {key} is not finite")
            assert not out.exists()

    @pytest.mark.filterwarnings("error")  # the overflow is reported once, as the error
    def test_overflowing_year_offset_exits_2(self, sim_dir, tmp_path, capsys):
        # finite rows whose cross products overflow: refused before X'X is decomposed
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sim_dir / "panel.csv"), "--year-offset", "1e308",
                     "--out", str(out)] + FIT_ARGS) == 2
        assert capsys.readouterr().err.startswith(
            "error: pooled cross-product matrix X'X is not finite")
        assert not out.exists()

    def test_non_positive_definite_design_exits_2(self, sim_dir, tmp_path, capsys):
        # a year of 10**23 leaves X'X finite, but its smallest eigenvalue
        # comes out negative: that is no reciprocal condition to report
        lines = (sim_dir / "panel.csv").read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        assert lines[0].split(",")[1] == "year"
        fields[1] = str(10 ** 23)
        bad = tmp_path / "panel.csv"
        bad.write_text("".join(lines[:3]) + ",".join(fields) + "".join(lines[4:]))
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(bad), "--out", str(out)] + FIT_ARGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: pooled cross-product matrix is numerically singular: "
                              "not positive definite (smallest eigenvalue -")
        assert "reciprocal condition" not in err
        assert not out.exists()

    def test_no_kept_draw_exits_2_before_sampling(self, sim_dir, tmp_path, capsys,
                                                  monkeypatch):
        from glmixer import gibbs

        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(gibbs, "sweep", no_sweep)
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(sim_dir / "panel.csv"), "--iters", "3000",
                     "--burn-in", "10", "--thin", "5000", "--out", str(out)]) == 2
        assert "needs at least one kept draw" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_file_does_not_depend_on_chain_count(self, sim_dir, tmp_path):
        # chains run in lockstep, each on its own stream: chain 0 of a
        # four-chain fit is the one-chain fit's chain, byte for byte
        args = ["--iters", "30", "--burn-in", "10", "--thin", "1", "--seed", "11"]
        trees = []
        for chains in ("1", "4"):
            out = tmp_path / f"fit{chains}"
            assert main(["fit", "--input", str(sim_dir / "panel.csv"), "--chains", chains,
                         "--out", str(out)] + args) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(trees[1]) == ["chain_0.csv", "chain_1.csv", "chain_2.csv",
                                    "chain_3.csv", "manifest.json", "summary.csv"]
        assert trees[0]["chain_0.csv"] == trees[1]["chain_0.csv"]


class TestPredictAndMetrics:
    def test_pipeline(self, sim_dir, fit_dir, tmp_path):
        pred_out = tmp_path / "pred"
        assert main(["predict", "--artifact", str(fit_dir),
                     "--input", str(sim_dir / "panel.csv"),
                     "--out", str(pred_out)]) == 0
        lines = (pred_out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "unit_id,row,year,sex,mode,mean,q2.5,q97.5"
        assert len(lines) == 1 + 40  # 4 units x 10 rows
        met_out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(pred_out / "predictions.csv"),
                     "--observed", str(sim_dir / "panel.csv"),
                     "--out", str(met_out)]) == 0
        report = json.loads((met_out / "metrics.json").read_text())
        assert 0.0 <= report["mae"] <= 1.0
        assert set(report["stratified"]) == {
            "(0,30%)", "[30%,60%)", "[60%,80%)", "[80%,90%)", "[90%,100%]"}

    def test_predict_keeps_only_the_fits_sex(self, tmp_path):
        # a female fit predicts a female + male panel: only the 40 female
        # rows are predicted, with the bytes of the female panel alone
        panels = {}
        for sex, seed in (("female", "3"), ("male", "4")):
            assert main(["simulate", "--m", "4", "--n-obs", "10", "--sex", sex,
                         "--seed", seed, "--out", str(tmp_path / sex)]) == 0
            panels[sex] = (tmp_path / sex / "panel.csv").read_text().splitlines()
        both = tmp_path / "both.csv"
        both.write_text("\n".join(panels["female"] + panels["male"][1:]) + "\n")
        fit = tmp_path / "fit"
        assert main(["fit", "--input", str(both), "--sex", "female",
                     "--out", str(fit)] + FIT_ARGS) == 0
        for name, panel in (("pred_both", both), ("pred_female", tmp_path / "female" / "panel.csv")):
            assert main(["predict", "--artifact", str(fit), "--input", str(panel),
                         "--out", str(tmp_path / name)]) == 0
        pred = (tmp_path / "pred_both" / "predictions.csv").read_bytes()
        assert len(pred.decode().splitlines()) == 1 + 40
        assert pred == (tmp_path / "pred_female" / "predictions.csv").read_bytes()
        assert main(["predict", "--artifact", str(fit), "--input",
                     str(tmp_path / "male" / "panel.csv"), "--out", str(tmp_path / "pm")]) == 2

    def test_metrics_scores_a_one_sex_fit_on_a_mixed_panel(self, tmp_path):
        # a female fit predicted on a 4x10 female + 4x10 male panel scores
        # against that panel: only its female rows are observed
        for sex, seed in (("female", "3"), ("male", "4")):
            assert main(["simulate", "--m", "4", "--n-obs", "10", "--sex", sex,
                         "--seed", seed, "--out", str(tmp_path / sex)]) == 0
        panels = {sex: (tmp_path / sex / "panel.csv").read_text().splitlines()
                  for sex in ("female", "male")}
        both = tmp_path / "both.csv"
        both.write_text("\n".join(panels["female"] + panels["male"][1:]) + "\n")
        fit, pred = tmp_path / "fit", tmp_path / "pred" / "predictions.csv"
        assert main(["fit", "--input", str(both), "--sex", "female",
                     "--out", str(fit)] + FIT_ARGS) == 0
        assert main(["predict", "--artifact", str(fit), "--input", str(both),
                     "--out", str(pred.parent)]) == 0
        for name, panel in (("met_both", both), ("met_female", tmp_path / "female" / "panel.csv")):
            assert main(["metrics", "--predictions", str(pred), "--observed", str(panel),
                         "--out", str(tmp_path / name)]) == 0
        for name in ("metrics.json", "metrics.csv"):
            assert ((tmp_path / "met_both" / name).read_bytes()
                    == (tmp_path / "met_female" / name).read_bytes())
        # the male rows alone hold no predicted key
        assert main(["metrics", "--predictions", str(pred), "--observed",
                     str(tmp_path / "male" / "panel.csv"), "--out", str(tmp_path / "m")]) == 2

    def test_unfiltered_panel_not_rebuilt(self, sim_dir, fit_dir, pred_csv, tmp_path,
                                          monkeypatch):
        # with no observation dropped, fit and predict use the loaded panel
        # as it is, and their outputs keep the bytes of a rebuilt panel's
        panel = load_panel(sim_dir / "panel.csv")
        assert cli._filter_sex(panel, "both") is panel
        monkeypatch.setattr(cli, "_filter_sex", lambda p, sex: build_panel(*p.columns()))
        assert main(["fit", "--input", str(sim_dir / "panel.csv"),
                     "--out", str(tmp_path / "fit")] + FIT_ARGS) == 0
        assert main(["predict", "--artifact", str(tmp_path / "fit"), "--input",
                     str(sim_dir / "panel.csv"), "--out", str(tmp_path / "pred")]) == 0
        for name in os.listdir(fit_dir):
            assert (tmp_path / "fit" / name).read_bytes() == (fit_dir / name).read_bytes()
        assert (tmp_path / "pred" / "predictions.csv").read_bytes() == pred_csv.read_bytes()

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

    def test_predict_is_one_call_with_one_stream_per_chain(self, sim_dir, fit_dir, tmp_path,
                                                           monkeypatch):
        calls, opened = [], []
        predict = prediction.predict_new_unit
        monkeypatch.setattr(prediction, "predict_new_unit",
                            lambda *a, **k: calls.append(list(a[2])) or predict(*a, **k))
        generator = prediction.RngStream.generator
        monkeypatch.setattr(prediction.RngStream, "generator",
                            lambda self: opened.append(self.stream_id) or generator(self))
        assert main(["predict", "--artifact", str(fit_dir),
                     "--input", str(sim_dir / "panel.csv"),
                     "--out", str(tmp_path / "pred")]) == 0
        assert calls == [[10, 10, 10, 10]]
        assert opened == [prediction.PREDICT_STREAM_BASE, prediction.PREDICT_STREAM_BASE + 1]

    @pytest.mark.parametrize("section,key,value", [
        (None, "seed", 8), ("priors", "b_phi", 1.0), ("priors", "reffect_prior", "laplace")])
    def test_edited_manifest_exits_2(self, sim_dir, fit_dir, tmp_path, section, key, value):
        # each edit keeps the chain layout: only the manifest's digest sees it
        art = tmp_path / "fit"
        shutil.copytree(fit_dir, art)
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["priors"]["reffect_prior"] == "horseshoe"
        (manifest[section] if section else manifest)[key] = value
        (art / "manifest.json").write_text(json.dumps(manifest))
        for stage, args in (("predict", ["--input", str(sim_dir / "panel.csv")]),
                            ("diagnose", [])):
            out = tmp_path / stage
            assert main([stage, "--artifact", str(art), *args, "--out", str(out)]) == 2
            assert not out.exists()

    def test_format_2_manifest_exits_2(self, sim_dir, fit_dir, tmp_path, capsys):
        # a manifest as format 2 wrote it, with its zeta prior pairs and a valid digest
        art = tmp_path / "fit"
        shutil.copytree(fit_dir, art)
        manifest = json.loads((art / "manifest.json").read_text())
        manifest["format"] = 2
        manifest["priors"].update(a_zeta_eps=1e-10, b_zeta_eps=1e-10,
                                  a_zeta_u=1e-10, b_zeta_u=1e-10)
        manifest[MANIFEST_DIGEST] = manifest_digest(manifest)
        (art / "manifest.json").write_text(json.dumps(manifest))
        for stage, args in (("predict", ["--input", str(sim_dir / "panel.csv")]),
                            ("diagnose", [])):
            out = tmp_path / stage
            assert main([stage, "--artifact", str(art), *args, "--out", str(out)]) == 2
            assert "artifact format 2, expected 4" in capsys.readouterr().err
            assert not out.exists()

    def test_format_3_manifest_exits_2(self, sim_dir, fit_dir, tmp_path, capsys):
        # format 3 wrote omega and lambda columns for every prior pair; its
        # artifacts must be refit, even where the columns would match
        art = tmp_path / "fit"
        shutil.copytree(fit_dir, art)
        manifest = json.loads((art / "manifest.json").read_text())
        manifest["format"] = 3
        manifest[MANIFEST_DIGEST] = manifest_digest(manifest)
        (art / "manifest.json").write_text(json.dumps(manifest))
        for stage, args in (("predict", ["--input", str(sim_dir / "panel.csv")]),
                            ("diagnose", [])):
            out = tmp_path / stage
            assert main([stage, "--artifact", str(art), *args, "--out", str(out)]) == 2
            assert "artifact format 3, expected 4" in capsys.readouterr().err
            assert not out.exists()

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

    def test_metrics_constant_completeness_exits_2(self, sim_dir, pred_csv, tmp_path, capsys):
        # the first three rows, each observed at 0.1: R-square is undefined,
        # although the mean of three 0.1s is not exactly 0.1
        lines = (sim_dir / "panel.csv").read_text().splitlines(keepends=True)
        constant = tmp_path / "constant.csv"
        rows = [line.split(",") for line in lines[1:4]]
        constant.write_text(lines[0] + "".join(",".join(r[:3] + ["0.1"] + r[4:]) for r in rows))
        preds = tmp_path / "preds.csv"
        preds.write_text("".join(pred_csv.read_text().splitlines(keepends=True)[:4]))
        out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(preds),
                     "--observed", str(constant), "--out", str(out)]) == 2
        assert "zero variance" in capsys.readouterr().err
        assert not out.exists()

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
        lambda text: text.replace(",year,sex,", ",period,sex,", 1),
        lambda text: text.replace("\nU001,0,2000,", "\nU001,0,x,", 1),
        lambda text: text.replace("\nU001,0,2000,", "\nU001,0,2000.5,", 1),
        lambda text: text.replace("\nU001,0,2000,both,", "\nU001,0,2000,female,", 1),
        lambda text: text.replace(",integrate_reffect,", ",integrate_reffect,high,", 1),
        lambda text: text.replace(",integrate_reffect,", ",integrate_reffect,nan,", 1),
        lambda text: text + "U001,11\n",
    ], ids=["header-mean", "header-unit_id", "header-year", "year-not-int", "year-float",
            "sex-edited", "mean-not-float", "mean-nan", "short-row"])
    def test_metrics_malformed_predictions_exit_2(self, sim_dir, pred_csv, tmp_path, edit):
        text = pred_csv.read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(bad),
                     "--observed", str(sim_dir / "panel.csv"), "--out", str(out)]) == 2
        assert not out.exists()

    def test_metrics_oversized_csv_field_exits_2(self, sim_dir, pred_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(huge_field_text(pred_csv.read_text()))
        out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(bad),
                     "--observed", str(sim_dir / "panel.csv"), "--out", str(out)]) == 2
        assert "field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_undecodable_predictions_exit_2(self, sim_dir, pred_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(pred_csv.read_bytes() + b"\xff")
        out = tmp_path / "met"
        assert main(["metrics", "--predictions", str(bad),
                     "--observed", str(sim_dir / "panel.csv"), "--out", str(out)]) == 2
        assert "not UTF-8" in capsys.readouterr().err
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

    def test_byte_order_mark_inputs(self, sim_dir, fit_dir, pred_csv, tmp_path):
        # a panel and predictions saved with a UTF-8 byte-order mark, as
        # Excel writes them, give the bytes of the plain files
        bom = tmp_path / "bom"
        bom.mkdir()
        for name, src in (("panel.csv", sim_dir / "panel.csv"), ("predictions.csv", pred_csv)):
            (bom / name).write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        assert main(["fit", "--input", str(bom / "panel.csv"), "--out", str(tmp_path / "fit")]
                    + FIT_ARGS) == 0
        for name in os.listdir(fit_dir):
            assert (tmp_path / "fit" / name).read_bytes() == (fit_dir / name).read_bytes()
        assert main(["predict", "--artifact", str(fit_dir), "--input", str(bom / "panel.csv"),
                     "--out", str(tmp_path / "pred")]) == 0
        assert (tmp_path / "pred" / "predictions.csv").read_bytes() == pred_csv.read_bytes()
        for name, preds, observed in (("plain", pred_csv, sim_dir / "panel.csv"),
                                      ("bom_panel", pred_csv, bom / "panel.csv"),
                                      ("bom_both", bom / "predictions.csv", bom / "panel.csv")):
            assert main(["metrics", "--predictions", str(preds), "--observed", str(observed),
                         "--out", str(tmp_path / name)]) == 0
        for name in ("bom_panel", "bom_both"):
            assert ((tmp_path / name / "metrics.json").read_bytes()
                    == (tmp_path / "plain" / "metrics.json").read_bytes())

    def test_unit_id_with_comma_and_quote_round_trips(self, sim_dir, fit_dir, pred_csv,
                                                      tmp_path):
        # 'Bogotá, D.C. "x"' sorts where U000 did, so the fit and every
        # number keep their bits; the id is quoted in predictions.csv and
        # metrics joins on it
        uid = 'Bogotá, D.C. "x"'
        with open(sim_dir / "panel.csv", encoding="utf-8", newline="") as fh:
            rows = [[uid if cell == "U000" else cell for cell in row] for row in csv.reader(fh)]
        panel = tmp_path / "panel.csv"
        with open(panel, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        fit, pred = tmp_path / "fit", tmp_path / "pred" / "predictions.csv"
        assert main(["fit", "--input", str(panel), "--out", str(fit)] + FIT_ARGS) == 0
        assert json.loads((fit / "manifest.json").read_text())["unit_ids"][0] == uid
        assert main(["predict", "--artifact", str(fit), "--input", str(panel),
                     "--out", str(pred.parent)]) == 0
        text = pred.read_text(encoding="utf-8")
        assert text.count('"Bogotá, D.C. ""x""",') == 10
        assert text.replace('"Bogotá, D.C. ""x""",', "U000,") == pred_csv.read_text()
        for name, preds, observed in (("ours", pred, panel),
                                      ("plain", pred_csv, sim_dir / "panel.csv")):
            assert main(["metrics", "--predictions", str(preds), "--observed", str(observed),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "ours" / "metrics.csv").read_bytes()
                == (tmp_path / "plain" / "metrics.csv").read_bytes())

    def test_non_finite_completeness_exits_2_naming_its_row(self, sim_dir, pred_csv, tmp_path,
                                                            capsys):
        lines = (sim_dir / "panel.csv").read_text().splitlines()
        fields = lines[3].split(",")
        fields[3] = "nan"
        lines[3] = ",".join(fields)
        panel = tmp_path / "panel.csv"
        panel.write_text("\n".join(lines) + "\n")
        for args in (["fit", "--input", str(panel)] + FIT_ARGS,
                     ["metrics", "--predictions", str(pred_csv), "--observed", str(panel)]):
            assert main(args + ["--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {panel}: row 4: completeness nan is not finite\n"
            assert not (tmp_path / "out").exists()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_predict_and_metrics_on_mutated_panel_exit_cleanly(self, sim_dir, fit_dir,
                                                               pred_csv, data):
        # an edited panel is predicted and scored or refused, never a traceback
        raw = mutate_panel((sim_dir / "panel.csv").read_bytes(), data)
        with tempfile.TemporaryDirectory() as tmp:
            panel = Path(tmp) / "panel.csv"
            panel.write_bytes(raw)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["predict", "--artifact", str(fit_dir), "--input", str(panel),
                             "--out", str(Path(tmp) / "pred")]) in (0, 2, 3, 4)
                assert main(["metrics", "--predictions", str(pred_csv), "--observed", str(panel),
                             "--out", str(Path(tmp) / "met")]) in (0, 2, 3, 4)


def _loaded_after(code, package):
    """Exit code of a fresh interpreter that runs `code` and then exits 1
    if `package` or any of its submodules is loaded, 0 otherwise."""
    src = str(Path(glmixer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code += (f"; sys.exit(int(any(m == {package!r} or m.startswith({package + '.'!r})"
             f" for m in sys.modules)))")
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode


def test_cli_import_loads_no_numpy():
    assert _loaded_after("import sys, glmixer.cli", "numpy") == 0


def test_cli_import_loads_no_other_package_module():
    # each command imports the modules it runs
    for module in ("glmixer.data", "glmixer.artifacts", "glmixer.metrics"):
        assert _loaded_after("import sys, glmixer.cli", module) == 0


def test_cli_import_loads_no_logging():
    # the panel loader's warnings go through warnings, loaded at startup
    assert _loaded_after("import sys, glmixer.cli", "logging") == 0


def test_diagnose_loads_no_numpy(fit_dir, tmp_path):
    # diagnose copies summary.csv's ESS and R-hat: no numpy-backed module runs
    args = ["diagnose", "--artifact", str(fit_dir), "--out", str(tmp_path / "diag")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "numpy") == 0
    assert (tmp_path / "diag" / "diagnostics.csv").exists()


def test_metrics_loads_no_numpy(sim_dir, pred_csv, tmp_path):
    # the report is plain-Python sums over the joined rows
    args = ["metrics", "--predictions", str(pred_csv), "--observed", str(sim_dir / "panel.csv"),
            "--out", str(tmp_path / "met")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "numpy") == 0
    assert (tmp_path / "met" / "metrics.json").exists()


@pytest.mark.parametrize("module", ["dataclasses", "hashlib", "glmixer.artifacts"])
def test_metrics_loads_only_what_it_runs(sim_dir, pred_csv, tmp_path, module):
    # the report reads no fit artifact and builds no dataclass
    args = ["metrics", "--predictions", str(pred_csv), "--observed", str(sim_dir / "panel.csv"),
            "--out", str(tmp_path / "met")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", module) == 0


@pytest.mark.parametrize("module", ["dataclasses", "glmixer.gibbs", "glmixer.inference", "scipy"])
def test_predict_loads_only_what_it_runs(fit_dir, sim_dir, tmp_path, module):
    # predictions read the artifact records and the prediction module: no
    # sampler, no summaries, no dataclass
    args = ["predict", "--artifact", str(fit_dir), "--input", str(sim_dir / "panel.csv"),
            "--out", str(tmp_path / "pred")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", module) == 0


@pytest.mark.parametrize("module", ["dataclasses", "glmixer.artifacts", "glmixer.gibbs",
                                    "glmixer.inference"])
def test_simulate_loads_only_what_it_runs(tmp_path, module):
    # the panel writer is in data: no fit-artifact code, no dataclass
    args = ["simulate", "--m", "3", "--n-obs", "4", "--out", str(tmp_path / "sim")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", module) == 0


def test_diagnose_loads_no_dataclasses(fit_dir, tmp_path):
    args = ["diagnose", "--artifact", str(fit_dir), "--out", str(tmp_path / "diag")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "dataclasses") == 0
    assert (tmp_path / "diag" / "diagnostics.csv").exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all: only check-theory (scipy.integrate) imports
    # it, inside the function that uses it
    assert _loaded_after("import sys, glmixer.cli", "scipy") == 0


def test_student_t_fit_loads_no_scipy(sim_dir, tmp_path):
    # summarize's normal scores (AS241 in numpy) and the Student-t nu
    # normalizer (math.lgamma) need no scipy.special
    args = ["fit", "--input", str(sim_dir / "panel.csv"), "--out", str(tmp_path / "fit"),
            "--local-prior", "student-t"] + FIT_ARGS
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "scipy") == 0
    assert (tmp_path / "fit" / "summary.csv").exists()


def test_predict_loads_no_scipy(fit_dir, sim_dir, tmp_path):
    args = ["predict", "--artifact", str(fit_dir), "--input", str(sim_dir / "panel.csv"),
            "--out", str(tmp_path / "pred")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "scipy") == 0
    assert (tmp_path / "pred" / "predictions.csv").exists()


@pytest.mark.parametrize("module", ["statistics", "decimal"])
def test_fit_loads_no_statistics(sim_dir, tmp_path, module):
    # summarize's normal scores are computed in numpy: statistics would
    # also load decimal and fractions
    args = ["fit", "--input", str(sim_dir / "panel.csv"), "--out", str(tmp_path / "fit")] + FIT_ARGS
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", module) == 0
    assert (tmp_path / "fit" / "summary.csv").exists()


def test_predict_loads_no_statistics(fit_dir, sim_dir, tmp_path):
    args = ["predict", "--artifact", str(fit_dir), "--input", str(sim_dir / "panel.csv"),
            "--out", str(tmp_path / "pred")]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "statistics") == 0
    assert (tmp_path / "pred" / "predictions.csv").exists()


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_fit_and_predict_load_no_numpy_ma(sim_dir, fit_dir, tmp_path, command):
    # quantiles come from sorted draws; numpy's quantile would load numpy.ma
    if command == "fit":
        args = ["fit", "--input", str(sim_dir / "panel.csv")] + FIT_ARGS
    else:
        args = ["predict", "--artifact", str(fit_dir), "--input", str(sim_dir / "panel.csv")]
    args += ["--out", str(tmp_path / command)]
    assert _loaded_after(
        f"import sys, glmixer.cli; assert glmixer.cli.main({args!r}) == 0", "numpy.ma") == 0
    assert (tmp_path / command).is_dir()


def _cli_process(args):
    """(exit code, stderr) of `python -m glmixer.cli` run on `args` in a
    fresh interpreter, the way the `glmixer` command runs."""
    src = str(Path(glmixer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "glmixer.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


class TestProcessPath:
    def test_stages_write_the_in_process_bytes(self, tmp_path):
        def stages(root):
            sim, fit, pred = root / "sim", root / "fit", root / "pred"
            return [
                ["simulate", "--m", "4", "--n-obs", "10", "--seed", "3", "--out", sim],
                ["fit", "--input", sim / "panel.csv", "--iters", "200", "--burn-in", "50",
                 "--thin", "1", "--chains", "2", "--seed", "7", "--out", fit],
                ["predict", "--artifact", fit, "--input", sim / "panel.csv", "--out", pred],
                ["diagnose", "--artifact", fit, "--out", root / "diag"],
                ["metrics", "--predictions", pred / "predictions.csv",
                 "--observed", sim / "panel.csv", "--out", root / "met"]]

        for args in stages(tmp_path / "process"):
            assert _cli_process(args) == (0, "")
        for args in stages(tmp_path / "main"):
            assert main([str(a) for a in args]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        written = files(tmp_path / "process")
        assert len(written) == 10  # panel, truth, 4 fit files, predictions, diagnostics, 2 metrics
        assert written == files(tmp_path / "main")

    def test_validation_error_exits_2(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code, err = _cli_process(["fit", "--input", sim_dir / "panel.csv", *FIT_ARGS,
                                  "--chains", "0", "--out", out])
        assert code == 2 and err == "error: --chains must be >= 1, got 0\n"
        assert not out.exists()

    def test_missing_input_exits_4(self, tmp_path):
        out = tmp_path / "fit"
        code, err = _cli_process(["fit", "--input", tmp_path / "absent.csv", *FIT_ARGS,
                                  "--out", out])
        assert code == 4 and err.startswith("i/o error: ") and "Traceback" not in err
        assert not out.exists()

    def test_main_leaves_the_collector_as_found(self, sim_dir, tmp_path):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main(["fit", "--input", str(sim_dir / "panel.csv"), *FIT_ARGS,
                     "--out", str(tmp_path / "fit")]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_run_exits_with_mains_code_after_freezing(self, monkeypatch):
        # the process ends next, so its shutdown collections skip what is left
        monkeypatch.setattr(cli, "main", lambda: 3)
        assert gc.get_freeze_count() == 0
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == 3 and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


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

    def test_huge_residual_integrates(self, tmp_path):
        # (n_i resid)^2 = 1e302 is finite; so is every term of the integrand
        assert main(["check-theory", "--resid", "1e150", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "theory_curve.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == pytest.approx([1.0] * 12, abs=1e-12)

    def test_tiny_phi_grid_exits_2_naming_the_usable_range(self, tmp_path, capsys):
        # c / phi overflows at phi = 1e-308; beyond |log(c / phi)| = 400
        # the quadrature window leaves the clamped log-omega range
        out = tmp_path / "th"
        assert main(["check-theory", "--log10-min", "-308", "--log10-max", "-300",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "[10^-172.718, 10^174.718]" in err
        assert not out.exists()

    @pytest.mark.parametrize("prior", ["horseshoe", "laplace", "student-t"])
    def test_curve_rises_to_one_as_phi_falls(self, tmp_path, prior):
        # down to the lower end of the usable range the curve approaches its
        # phi -> 0 limit 1: at most the horseshoe's slow 1/log(c / phi) gap
        assert main(["check-theory", "--prior", prior, "--log10-min", "-172.7",
                     "--log10-max", "0", "--grid-points", "8", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "theory_curve.csv").read_text().splitlines()[1:]
        curve = [float(r.split(",")[1]) for r in rows]
        assert all(a >= b for a, b in zip(curve, curve[1:]))
        assert 1.0 - curve[0] <= 2e-4 and curve[-1] < curve[0]

    def test_unconverged_quadrature_exits_3(self, tmp_path, capsys):
        # at n_i = 10^15 scipy's quad does not reach its tolerance: that is a
        # numerical error, not a curve of 1.0 marked "pass": false
        out = tmp_path / "th"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check-theory", "--n-obs", str(10 ** 15), "--out", str(out)]) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("numerical error: quadrature failed at phi = ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("n_obs", [1, 10, 100, 10000])
    @pytest.mark.parametrize("prior", ["horseshoe", "laplace", "student-t"])
    def test_default_grid_raises_no_warning(self, tmp_path, prior, n_obs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check-theory", "--prior", prior, "--n-obs", str(n_obs),
                         "--out", str(tmp_path)]) == 0
        assert [str(w.message) for w in caught] == []

    def test_bad_eps_exits_2(self, tmp_path):
        out = tmp_path / "th"
        assert main(["check-theory", "--eps", "1.5", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad", [["--grid-points", "0"], ["--grid-points", "-1"],
                                     ["--grid-points", "1"], ["--grid-points", "2"],
                                     ["--n-obs", "0"], ["--n-obs", "-3"],
                                     ["--lam-tau", "0"], ["--lam-tau", "-1"],
                                     ["--lam-tau", "nan"], ["--resid", "1e200"],
                                     ["--resid", "nan"], ["--resid", "inf"],
                                     ["--resid", "1e155"], ["--log10-max", "400"],
                                     ["--log10-max", "inf"], ["--log10-min", "nan"],
                                     ["--log10-min", "-400"],
                                     ["--log10-min", "5", "--log10-max", "1"],
                                     ["--log10-min", "3", "--log10-max", "3"]])
    def test_bad_input_exits_2(self, tmp_path, capsys, bad):
        out = tmp_path / "th"
        assert main(["check-theory", *bad, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# Huge counts are chosen so that numpy refuses them at once on any host:
# 10**15 doubles need more address space than a 64-bit process has, and
# 10**20 is beyond numpy's index range.
HUGE = (str(10 ** 15), str(10 ** 20))
NUMBERS = ("nan", "inf", "-inf", "1e400", "-5", *HUGE)
NUMERIC_FLAGS = {
    "simulate": ("--m", "--n-obs", "--tau", "--phi", "--seed", "--beta"),
    "fit": ("--iters", "--burn-in", "--thin", "--chains", "--seed", "--year-offset"),
    "check-theory": ("--eps", "--n-obs", "--resid", "--lam-tau", "--log10-min", "--log10-max",
                     "--grid-points"),
}
# the run sizes that allocate (m x n_i errors, kept draws, the phi grid)
SIZES = {("simulate", "--m"), ("simulate", "--n-obs"), ("fit", "--iters"), ("fit", "--chains"),
         ("check-theory", "--grid-points")}


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command, flags in NUMERIC_FLAGS.items() for flag in flags
    for value in NUMBERS])
def test_numeric_flags_exit_cleanly(sim_dir, tmp_path, capsys, monkeypatch, command, flag,
                                    value):
    # every number a numeric flag may be given exits 0, 2, 3 or 4 with no
    # traceback; argparse refuses a non-integer count with exit 2
    args = {"simulate": ["--m", "4", "--n-obs", "10"],
            "fit": ["--input", str(sim_dir / "panel.csv"), *FIT_ARGS],
            "check-theory": []}[command]
    args = args[:args.index(flag)] + args[args.index(flag) + 2:] if flag in args else args
    huge_size = (command, flag) in SIZES and value in HUGE
    if huge_size:
        # refused before any work: no chain or simulation stream is made
        def no_stream(*a, **k):
            raise AssertionError("an RngStream was made for a size numpy refuses")
        monkeypatch.setattr(gibbs, "RngStream", no_stream)
        monkeypatch.setattr(simulate, "RngStream", no_stream)
    try:
        with warnings.catch_warnings():  # quadrature warnings at extreme check-theory inputs
            warnings.simplefilter("ignore")
            code = main([command, *args, flag, value, "--out", str(tmp_path / "out")])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    if huge_size:
        assert code == 2 and "cannot hold an array of shape" in err
