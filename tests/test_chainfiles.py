"""`fit`'s chain files come from a helper process (`glmixer.chainfiles`):
the same bytes as the in-process writer, and no file or process left
behind on any way a fit can end."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from glmixer import artifacts, chainfiles, cli, data, gibbs
from glmixer.chainfiles import ChainWriter
from glmixer.cli import main
from glmixer.data import load_panel
from glmixer.design import ModelSpec, build_matrices
from glmixer.gibbs import ERROR_PRIORS, REFFECT_PRIORS, PriorConfig, run_chains
from glmixer.inference import summarize

# every wait on a process in these tests is bounded
TIMEOUT = 60


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    """A balanced panel, and an unbalanced one made from it by dropping
    the last rows of two units."""
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--m", "4", "--n-obs", "10", "--seed", "3", "--out", str(out)]) == 0
    header, *rows = (out / "panel.csv").read_text().splitlines(keepends=True)
    # each unit has a row per year from 2000; two keep only their first 9 and 8
    short = {rows[0].split(",")[0]: 9, rows[-1].split(",")[0]: 8}
    keep = [row for row in rows
            if int(row.split(",")[1]) - 2000 < short.get(row.split(",")[0], 10)]
    (out / "unbalanced.csv").write_text(header + "".join(keep))
    return out


@pytest.fixture
def helpers(monkeypatch):
    """The Popen of every helper a fit starts."""
    made = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return made


def fit_args(panel, out, error_prior="half-cauchy", local_prior="horseshoe", chains=2,
             iters=60, burn_in=10, thin=1):
    return ["fit", "--input", str(panel), "--out", str(out), "--error-prior", error_prior,
            "--local-prior", local_prior, "--chains", str(chains), "--iters", str(iters),
            "--burn-in", str(burn_in), "--thin", str(thin), "--seed", "7"]


def in_process_fit(panel, out, error_prior, local_prior, chains, iters, burn_in, thin):
    """The fit `fit_args` asks for, written by `write_fit` from the traces."""
    panel = load_panel(panel)
    spec = ModelSpec(variant=1, sex="both", year_offset=float(np.mean(panel.year)))
    priors = PriorConfig(error_prior=error_prior, reffect_prior=local_prior)
    traces = run_chains(build_matrices(panel, spec), spec, priors, n_iter=iters,
                        burn_in=burn_in, thin=thin, seed=7, chains=chains)
    artifacts.write_fit(out, traces, summarize(traces), seed=7)


def tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def chain_and_part_files(path: Path) -> list:
    return sorted(p.name for p in path.iterdir() if p.name.startswith("chain_"))


@pytest.mark.parametrize("chains", [1, 4])
@pytest.mark.parametrize("error_prior,local_prior",
                         [(e, r) for e in ERROR_PRIORS for r in REFFECT_PRIORS])
def test_cli_fit_matches_in_process_write(panels, tmp_path, helpers, error_prior, local_prior,
                                          chains):
    kw = dict(error_prior=error_prior, local_prior=local_prior, chains=chains, iters=60,
              burn_in=10, thin=2)
    assert main(fit_args(panels / "panel.csv", tmp_path / "cli", **kw)) == 0
    in_process_fit(panels / "panel.csv", tmp_path / "lib", **kw)
    got = tree(tmp_path / "cli")
    assert sorted(got) == sorted([*(f"chain_{k}.csv" for k in range(chains)),
                                  "manifest.json", "summary.csv"])
    assert got == tree(tmp_path / "lib")
    assert [p.returncode for p in helpers] == [0]


@pytest.mark.parametrize("panel,error_prior,local_prior", [
    ("unbalanced.csv", "half-cauchy", "horseshoe"),
    ("panel.csv", "gamma", "student-t"),
])
def test_partial_last_frame_matches_in_process_write(panels, tmp_path, monkeypatch, panel,
                                                      error_prior, local_prior):
    # thin 1 and no burn-in keep every sweep, so a frame holds a whole
    # sampler block of rows, but the last holds fewer
    priors = PriorConfig(error_prior=error_prior, reffect_prior=local_prior)
    loaded = load_panel(panels / panel)
    design = build_matrices(loaded, ModelSpec(variant=1, year_offset=float(np.mean(loaded.year))))
    block = gibbs._sweep_layout(design, priors).block
    iters = 2 * block + 7
    if panel == "unbalanced.csv":
        assert len(set(design.sizes.tolist())) > 1
    frames = []
    real = ChainWriter.__call__

    def counted(self, rows):
        frames.append(rows.shape[1])
        real(self, rows)

    monkeypatch.setattr(ChainWriter, "__call__", counted)
    kw = dict(error_prior=error_prior, local_prior=local_prior, chains=3, iters=iters,
              burn_in=0, thin=1)
    assert main(fit_args(panels / panel, tmp_path / "cli", **kw)) == 0
    assert frames == [block, block, 7]
    in_process_fit(panels / panel, tmp_path / "lib", **kw)
    assert tree(tmp_path / "cli") == tree(tmp_path / "lib")


@pytest.mark.parametrize("fcntl", ["no module", "no F_SETPIPE_SZ", "refused"])
def test_fit_without_a_larger_pipe(panels, tmp_path, helpers, monkeypatch, fcntl):
    # the pipe is enlarged where the platform allows it, and left as it is elsewhere
    import fcntl as module

    if fcntl == "no module":
        monkeypatch.setitem(sys.modules, "fcntl", None)
    elif fcntl == "no F_SETPIPE_SZ":
        monkeypatch.delattr(module, "F_SETPIPE_SZ")
    else:
        def refused(*args):
            raise PermissionError("pipe size")
        monkeypatch.setattr(module, "fcntl", refused)
    assert main(fit_args(panels / "panel.csv", tmp_path / "cli", thin=2)) == 0
    in_process_fit(panels / "panel.csv", tmp_path / "lib", "half-cauchy", "horseshoe", chains=2,
                   iters=60, burn_in=10, thin=2)
    assert tree(tmp_path / "cli") == tree(tmp_path / "lib")
    assert [p.returncode for p in helpers] == [0]


def test_helper_loads_only_the_standard_library(panels, tmp_path, helpers):
    assert main(fit_args(panels / "panel.csv", tmp_path / "fit")) == 0
    argv = helpers[0].args
    assert argv[:4] == [sys.executable, "-I", "-S", chainfiles.__file__]
    proc = subprocess.run([*argv[:3], "-X", "importtime", argv[3], str(tmp_path), "1",
                           "c{}.csv"],
                          input=b"a\n" + frame(np.ones((1, 1, 1))) + chainfiles.FRAME.pack(0),
                          capture_output=True, timeout=TIMEOUT)
    assert proc.returncode == 0
    loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()]
    assert "hashlib" in loaded
    assert [m for m in loaded if m == "site" or m.startswith(("numpy", "glmixer"))] == []


def test_mid_chain_numerical_error_exits_3_and_stops_the_helper(panels, tmp_path, helpers,
                                                                monkeypatch, capsys):
    # phi turns NaN after the scales step of a sweep past the first
    # sampler block, so the helper has opened its part files by then
    calls = []
    real = gibbs.step_global_scales

    def failing(state, *args, **kwargs):
        real(state, *args, **kwargs)
        calls.append(None)
        if len(calls) == 200:
            state.phi = state.phi * math.nan

    monkeypatch.setattr(gibbs, "step_global_scales", failing)
    frames = []
    real_call = ChainWriter.__call__

    def counted(self, rows):
        frames.append(rows.shape[1])
        real_call(self, rows)

    monkeypatch.setattr(ChainWriter, "__call__", counted)
    for out in (tmp_path / "new", tmp_path / "existing"):
        calls.clear()
        frames.clear()
        if out.name == "existing":
            out.mkdir()
        assert main(fit_args(panels / "panel.csv", out, iters=400, burn_in=0, chains=2)) == 3
        assert "numerical error: chain" in capsys.readouterr().err
        assert frames  # the failure came after the helper had rows
        assert helpers[-1].returncode is not None
        if out.name == "new":
            assert not out.exists()
        else:
            assert chain_and_part_files(out) == []


@pytest.mark.parametrize("when", ["mid-stream", "before the end frame"])
def test_killed_helper_exits_4_without_chain_files(panels, tmp_path, helpers, monkeypatch,
                                                   capsys, when):
    def kill(writer):
        writer.proc.kill()
        writer.proc.wait(timeout=TIMEOUT)

    if when == "mid-stream":
        real = ChainWriter.__call__
        sent = []

        def killing(self, rows):
            if sent:
                kill(self)
            sent.append(None)
            real(self, rows)

        monkeypatch.setattr(ChainWriter, "__call__", killing)
    else:
        real = ChainWriter.digests

        def killing(self):
            kill(self)
            return real(self)

        monkeypatch.setattr(ChainWriter, "digests", killing)
    out = tmp_path / "existing"
    out.mkdir()
    assert main(fit_args(panels / "panel.csv", out, iters=400, burn_in=0)) == 4
    assert "i/o error: the chain file writer" in capsys.readouterr().err
    assert helpers[-1].returncode == -signal.SIGKILL
    assert list(out.iterdir()) == []
    assert main(fit_args(panels / "panel.csv", tmp_path / "new", iters=400, burn_in=0)) == 4
    assert not (tmp_path / "new").exists()


def test_helper_io_error_exits_4(panels, tmp_path, helpers, capfd):
    # a directory where chain_0.csv goes makes the helper's rename fail
    out = tmp_path / "fit"
    (out / "chain_0.csv").mkdir(parents=True)
    assert main(fit_args(panels / "panel.csv", out)) == 4
    err = capfd.readouterr().err
    assert "i/o error: " in err and "exited with code 4" in err
    assert [p.returncode for p in helpers] == [4]
    assert chain_and_part_files(out) == ["chain_0.csv"]
    assert (out / "chain_0.csv").is_dir()


def test_keyboard_interrupt_stops_the_helper(panels, tmp_path, helpers, monkeypatch):
    real = cli.run_chains

    def interrupted(*args, sink, **kwargs):
        def interrupting(rows):
            sink(rows)
            raise KeyboardInterrupt

        return real(*args, sink=interrupting, **kwargs)

    monkeypatch.setattr(cli, "run_chains", interrupted)
    out = tmp_path / "fit"
    with pytest.raises(KeyboardInterrupt):
        main(fit_args(panels / "panel.csv", out))
    assert helpers[-1].returncode is not None
    assert not out.exists()
    out.mkdir()
    with pytest.raises(KeyboardInterrupt):
        main(fit_args(panels / "panel.csv", out))
    assert list(out.iterdir()) == []


def helper(outdir, chains):
    return subprocess.Popen([sys.executable, "-I", "-S", chainfiles.__file__, str(outdir),
                             str(chains), "chain_{}.csv"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def frame(rows):
    return chainfiles.FRAME.pack(rows.shape[1]) + np.ascontiguousarray(rows).tobytes()


def test_stream_without_end_frame_leaves_no_file(tmp_path):
    proc = helper(tmp_path, 2)
    out, _ = proc.communicate(b"a[0],b[0]\n" + frame(np.ones((2, 3, 2))), timeout=TIMEOUT)
    assert proc.returncode == 1 and out == b""
    assert list(tmp_path.iterdir()) == []


def test_stream_without_end_frame_removes_the_directory_it_made(tmp_path):
    proc = helper(tmp_path / "fit", 2)
    out, _ = proc.communicate(b"a\n" + frame(np.ones((2, 3, 1))), timeout=TIMEOUT)
    assert proc.returncode == 1 and out == b""
    assert list(tmp_path.iterdir()) == []


def test_helper_writes_the_format_rows_bytes(tmp_path):
    rows = np.random.default_rng(0).standard_normal((2, 5, 3)) * 10.0 ** np.arange(-2, 3)[:, None]
    proc = helper(tmp_path, 2)
    out, _ = proc.communicate(b"x,y,z\n" + frame(rows[:, :4]) + frame(rows[:, 4:])
                              + chainfiles.FRAME.pack(0), timeout=TIMEOUT)
    assert proc.returncode == 0
    for k in range(2):
        text = b"x,y,z\n" + chainfiles.format_rows(rows[k].tolist())
        assert (tmp_path / f"chain_{k}.csv").read_bytes() == text
        assert out.split()[k].decode() == hashlib.sha256(text).hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain_0.csv", "chain_1.csv"]


def test_helper_of_a_killed_fit_removes_its_part_files(tmp_path):
    # the fit dies at once; its helper sees the end of its stdin
    src = str(Path(chainfiles.__file__).resolve().parents[1])
    code = (f"import sys, numpy as np; sys.path.insert(0, {src!r})\n"
            "from glmixer.chainfiles import ChainWriter\n"
            f"w = ChainWriter({str(tmp_path)!r}, 2, 'chain_{{}}.csv')\n"
            "w.begin('a,b'); w(np.zeros((2, 3, 2)))\n"
            "print(w.proc.pid, flush=True); sys.stdin.read()\n")
    fit = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, text=True)
    try:
        pid = int(fit.stdout.readline())
        deadline = time.monotonic() + TIMEOUT
        while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain_0.csv.part",
                                                               "chain_1.csv.part"]
    finally:
        fit.kill()
        fit.wait(timeout=TIMEOUT)
        fit.stdin.close()
        fit.stdout.close()

    def running():
        try:  # an exited helper no one has reaped yet is a zombie
            return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    while running() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running()
    assert list(tmp_path.iterdir()) == []


def test_summary_is_read_once_and_parsed_from_the_verified_bytes(panels, tmp_path,
                                                                 monkeypatch):
    out = tmp_path / "fit"
    assert main(fit_args(panels / "panel.csv", out)) == 0
    expected = (out / "summary.csv").read_text().splitlines()[1:]

    def no_second_read(path):
        raise AssertionError("summary.csv parsed from a second read")

    monkeypatch.setattr(data, "read_csv_rows", no_second_read)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    rows = artifacts.load_summary_rows(out)
    monkeypatch.undo()
    assert opened.count(str(out / "summary.csv")) == 1
    assert [",".join(row.values()) for row in rows] == expected


@pytest.mark.parametrize("content,match", [
    (lambda text: "\ufeff" + text, None),
    (lambda text: text.replace("beta", "b\udce9ta"), "not UTF-8 text"),
    (lambda text: text.replace("beta,0", 'beta,"0', 1), "summary.csv"),
])
def test_summary_bytes_decoded_and_parsed(panels, tmp_path, content, match):
    out = tmp_path / "fit"
    assert main(fit_args(panels / "panel.csv", out)) == 0
    path = out / "summary.csv"
    before = path.read_text()
    raw = content(before).encode("utf-8", "surrogateescape")
    path.write_bytes(raw)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["sha256"]["summary.csv"] = hashlib.sha256(raw).hexdigest()
    manifest[artifacts.MANIFEST_DIGEST] = artifacts.manifest_digest(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    if match is None:
        rows = artifacts.load_summary_rows(out)
        assert [",".join(r.values()) for r in rows] == before.splitlines()[1:]
    else:
        with pytest.raises(data.ValidationError, match=match) as info:
            artifacts.load_summary_rows(out)
        assert str(path) in str(info.value)
