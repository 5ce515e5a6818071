import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glmixer import artifacts
from glmixer.design import ModelSpec, build_matrices
from glmixer.errors import ValidationError
from glmixer.gibbs import PriorConfig, Trace, run_chain
from glmixer.inference import summarize
from glmixer.simulate import SimConfig, simulate_panel

SPEC = ModelSpec(variant=1, year_offset=2009.5)


@pytest.fixture(scope="module")
def design():
    panel, _ = simulate_panel(SimConfig(m=4, n_i=10, seed=0))
    return build_matrices(panel, SPEC)


def chains(design, priors, n=2):
    return [run_chain(design, SPEC, priors, n_iter=40, burn_in=10, thin=3, seed=5,
                      stream_id=k) for k in range(n)]


def assert_same_traces(loaded, traces):
    assert len(loaded) == len(traces)
    for got, want in zip(loaded, traces):
        assert list(got.draws) == list(want.draws)
        for key, arr in want.draws.items():
            assert got.draws[key].dtype == arr.dtype and got.draws[key].shape == arr.shape
            np.testing.assert_array_equal(got.draws[key], arr)
        for field in ("seed", "chain_id", "n_iter", "burn_in", "thin", "priors", "spec",
                      "unit_ids", "sizes"):
            assert getattr(got, field) == getattr(want, field)


@pytest.fixture
def fit_dir(design, tmp_path):
    traces = chains(design, PriorConfig(reffect_prior="student-t"))
    artifacts.write_fit(tmp_path, traces, summarize(traces), seed=5)
    return tmp_path


def edit_manifest(fit_dir, edit, sign=True):
    """Apply `edit` to the manifest; with `sign`, update its own digest to
    match, as a writer of that content would, so the checks behind the
    digest are reached."""
    path = fit_dir / artifacts.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    edit(manifest)
    if sign:
        manifest[artifacts.MANIFEST_DIGEST] = artifacts.manifest_digest(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("error_prior,reffect_prior", [
    ("half-cauchy", "horseshoe"), ("gamma", "gamma"), ("gamma", "student-t"),
    ("half-cauchy", "laplace")])
def test_round_trip_is_exact(design, tmp_path, error_prior, reffect_prior):
    traces = chains(design, PriorConfig(error_prior=error_prior, reffect_prior=reffect_prior))
    artifacts.write_fit(tmp_path, traces, summarize(traces), seed=5)
    loaded, manifest = artifacts.load_fit(tmp_path)
    assert_same_traces(loaded, traces)
    assert manifest["kept"] == traces[0].kept == 10


@pytest.mark.parametrize("reffect_prior", ["gamma", "horseshoe", "laplace", "student-t"])
def test_keyed_load_equals_full_load(design, tmp_path, reffect_prior):
    traces = chains(design, PriorConfig(reffect_prior=reffect_prior))
    artifacts.write_fit(tmp_path, traces, summarize(traces), seed=5)
    full, manifest = artifacts.load_fit(tmp_path)
    for keys in (("beta", "phi"), ("phi",), ("lambda",), ("nu", "u")):
        part, part_manifest = artifacts.load_fit(tmp_path, keys=keys)
        assert part_manifest == manifest
        for got, want in zip(part, full):
            assert list(got.draws) == [key for key in want.draws if key in keys]
            for key, arr in got.draws.items():
                assert arr.dtype == want.draws[key].dtype
                np.testing.assert_array_equal(arr, want.draws[key])
            for field in ("seed", "chain_id", "n_iter", "burn_in", "thin", "priors", "spec",
                          "unit_ids", "sizes"):
                assert getattr(got, field) == getattr(want, field)


def test_wide_layout_and_manifest(fit_dir):
    lines = (fit_dir / "chain_0.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:8] == [f"beta[{j}]" for j in range(7)] + ["u[0]"]
    assert header[10:13] == ["u[3]", "tau[0]", "phi[0]"]
    assert header[-1] == "nu[3]" and len(header) == 7 + 4 * 4 + 2
    assert len(lines) == 1 + 10
    assert all(len(line.split(",")) == len(header) for line in lines[1:])
    assert lines[1].split(",")[-1].endswith(".0")  # nu as repr(float)
    manifest = json.loads((fit_dir / artifacts.MANIFEST_NAME).read_text())
    assert manifest["format"] == artifacts.FORMAT and manifest["kept"] == 10
    assert manifest["sha256"] == {
        name: hashlib.sha256((fit_dir / name).read_bytes()).hexdigest()
        for name in ("chain_0.csv", "chain_1.csv", "summary.csv")}


def test_gamma_priors_use_display_names(design, tmp_path):
    traces = chains(design, PriorConfig(error_prior="gamma", reffect_prior="gamma"), n=1)
    artifacts.write_fit(tmp_path, traces, summarize(traces), seed=5)
    header = (tmp_path / "chain_0.csv").read_text().splitlines()[0].split(",")
    assert "zeta_eps[0]" in header and "zeta_u[0]" in header
    assert "tau[0]" not in header and "phi[0]" not in header


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # summaries of huge values overflow
@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4 + 2 * 2 + 2 + 2 * 2),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_float_round_trips(tmp_path_factory, values):
    m, kept = 2, values.shape[0]
    spec = ModelSpec(variant=2)
    priors = PriorConfig(reffect_prior="laplace")
    cut = np.cumsum([6, m, 1, 1, m])
    beta, u, tau, phi, omega, lam = np.split(values, cut, axis=1)
    trace = Trace(draws={"beta": beta.copy(), "u": u.copy(), "tau": tau[:, 0].copy(),
                         "phi": phi[:, 0].copy(), "omega": omega.copy(), "lambda": lam.copy()},
                  seed=1, chain_id=0, n_iter=kept, burn_in=0, thin=1, priors=priors,
                  spec=spec, unit_ids=("A", "B"), sizes=(3, 3))
    out = tmp_path_factory.mktemp("fit")
    artifacts.write_fit(out, [trace], summarize([trace]), seed=1)
    loaded, _ = artifacts.load_fit(out)
    assert_same_traces(loaded, [trace])


def test_load_fit_does_not_read_summary(fit_dir):
    (fit_dir / "summary.csv").write_text("edited\n")
    artifacts.load_fit(fit_dir)
    with pytest.raises(ValidationError, match="sha256"):
        artifacts.load_summary_rows(fit_dir)


@pytest.mark.parametrize("edit,match", [
    (lambda m: m.update(format=1), "format"),
    (lambda m: m.update(format=2), "artifact format 2, expected 3"),
    (lambda m: m.pop("kept"), "missing key 'kept'"),
    (lambda m: m.update(kept=9), "kept 9"),
    (lambda m: m.update(chains=1), "sha256 must list"),
    (lambda m: m["sha256"].update({"chain_1.csv": "0" * 64}), "chain_1.csv: sha256"),
    (lambda m: m["unit_ids"].append("Z"), "unit_ids and sizes"),
    (lambda m: (m["unit_ids"].append("Z"), m["sizes"].append(10)), "header"),
    (lambda m: m["priors"].update(reffect_prior="horseshoe"), "header"),
    (lambda m: m["spec"].update(year_offset="x"), "bad value"),
    (lambda m: m.update(seed="7"), "seed"),
])
def test_manifest_mismatch_rejected(fit_dir, edit, match):
    edit_manifest(fit_dir, edit)
    with pytest.raises(ValidationError, match=match):
        artifacts.load_fit(fit_dir)


@pytest.mark.parametrize("reffect_prior,edit", [
    ("student-t", lambda m: m.update(seed=m["seed"] + 1)),
    ("student-t", lambda m: m["priors"].update(a_phi=2.0)),
    ("horseshoe", lambda m: m["priors"].update(reffect_prior="laplace")),
    ("laplace", lambda m: m["priors"].update(reffect_prior="horseshoe")),
])
def test_manifest_edit_breaks_its_digest(design, tmp_path, reffect_prior, edit):
    # each edit keeps the chain layout, so only the manifest's own digest sees it
    traces = chains(design, PriorConfig(reffect_prior=reffect_prior))
    artifacts.write_fit(tmp_path, traces, summarize(traces), seed=5)
    edit_manifest(tmp_path, edit, sign=False)
    for load in (artifacts.load_fit, artifacts.load_summary_rows):
        with pytest.raises(ValidationError, match="does not match its manifest_sha256"):
            load(tmp_path)
    edit_manifest(tmp_path, lambda m: None)
    artifacts.load_fit(tmp_path)


def test_manifest_digest_covers_every_other_field(fit_dir):
    manifest = json.loads((fit_dir / artifacts.MANIFEST_NAME).read_text())
    content = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    assert manifest["manifest_sha256"] == hashlib.sha256(
        json.dumps(content, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    edit_manifest(fit_dir, lambda m: m.pop("manifest_sha256"), sign=False)
    with pytest.raises(ValidationError, match="manifest_sha256"):
        artifacts.load_fit(fit_dir)


def test_corrupt_manifest_rejected(fit_dir):
    path = fit_dir / artifacts.MANIFEST_NAME
    path.write_text(path.read_text()[:-20])
    with pytest.raises(ValidationError, match="not a JSON manifest"):
        artifacts.load_fit(fit_dir)


def test_truncated_chain_rejected(fit_dir):
    path = fit_dir / "chain_1.csv"
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ValidationError, match="chain_1.csv: sha256"):
        artifacts.load_fit(fit_dir)


def test_rows_checked_against_kept(fit_dir):
    # a chain file one row short whose digest is updated to match: only
    # the row count against `kept` can catch it
    path = fit_dir / "chain_0.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    edit_manifest(fit_dir, lambda m: m["sha256"].update(
        {"chain_0.csv": hashlib.sha256(path.read_bytes()).hexdigest()}))
    with pytest.raises(ValidationError, match="9 x 25 values, manifest says 10 x 25"):
        artifacts.load_fit(fit_dir)


def resign_chain(fit_dir, name, edit):
    """Apply `edit` to the lines of a chain file and sign its new bytes
    into the manifest, so only the row and field checks can see it."""
    path = fit_dir / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))
    edit_manifest(fit_dir, lambda m: m["sha256"].update(
        {name: hashlib.sha256(path.read_bytes()).hexdigest()}))


@pytest.mark.parametrize("keys", [None, ("beta", "phi")])
@pytest.mark.parametrize("edit,match", [
    # one more field on one row: the separator count
    (lambda ls: ls[:3] + [ls[3].replace("\n", ",1.0\n")] + ls[4:], "10 x 25.1 values"),
    # one field moved from one row to another: the parse of the last column
    (lambda ls: ls[:3] + [ls[3].replace("\n", ",1.0\n"), ls[4].rsplit(",", 1)[0] + "\n"]
     + ls[5:], "invalid column index 24"),
    # two rows joined less one field, and a blank line: the parsed row count
    (lambda ls: ls[:3] + [ls[3].rstrip("\n") + "," + ls[4].rsplit(",", 1)[0] + "\n", "\n"]
     + ls[5:], "9 rows of values, manifest says 10"),
    # the last row without its newline
    (lambda ls: ls[:-1] + [ls[-1].rstrip("\n")], "does not end with a newline"),
])
def test_resigned_chain_with_wrong_fields_rejected(fit_dir, keys, edit, match):
    resign_chain(fit_dir, "chain_1.csv", edit)
    with pytest.raises(ValidationError, match=match):
        artifacts.load_fit(fit_dir, keys=keys)
