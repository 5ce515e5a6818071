"""Flat, diff-able fit artifacts: per-chain trace CSVs (one row per kept
draw), summary and prediction CSVs, and a JSON manifest, written last, that
records the artifact format, the kept count and the sha256 of every chain
file and of the summary, and a sha256 of its own other fields; readers
check the manifest and the files they read against it.

A chain file has one column per scalar the sampler draws, of the draw
keys `PriorConfig.recorded`: a 30-unit Model 1 fit writes 99 under
Half-Cauchy/Horseshoe and 39 under gamma/gamma, which draws no omega or
lambda.

`load_fit` reads each chain file once: the sha256, the header and the
row and field counts all come from those bytes, so every file is checked
in full. `load_fit(keys=...)` then parses only the columns of the named
draw keys; `predict` asks for beta and phi, 8 of the 99 columns of the
default 30-unit Model 1 fit.

Floats are written with repr (shortest round-trip) so identical runs
produce byte-identical files; no timestamps anywhere.

Importing this module loads no numpy: only the trace-file writer and
`load_fit` import numpy, the sampler's types and the design, so the
manifest, digest, summary and prediction-CSV paths run without them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from typing import TYPE_CHECKING

from . import __version__
from .data import PanelDataset, read_csv_rows
from .errors import ValidationError

if TYPE_CHECKING:
    from .design import ModelSpec
    from .gibbs import PriorConfig, Trace
    from .inference import PosteriorSummary

MANIFEST_NAME = "manifest.json"
SUMMARY_NAME = "summary.csv"
PREDICTIONS_NAME = "predictions.csv"
SUMMARY_COLUMNS = ("param", "index", "mean", "sd", "q2.5", "q50", "q97.5", "ess", "rhat")

# Version of the fit artifact layout, recorded in and checked against the
# manifest: 2 is the wide chain CSV (one row per kept draw); 3 records one
# Gamma prior pair per global precision (no a_zeta_* / b_zeta_* settings);
# 4 writes only the drawn columns (no omega or lambda under the
# common-Gamma settings). Older artifacts are refused and must be refit.
FORMAT = 4
# Manifest field holding the sha256 of the manifest's other fields.
MANIFEST_DIGEST = "manifest_sha256"
# Kept draws formatted per write call of a chain file.
TRACE_CHUNK_ROWS = 64


def _fmt(x) -> str:
    return repr(float(x))


def write_panel_csv(panel: PanelDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["unit_id", "year", "sex", "completeness", "reg_cdr",
                    "pct65", "u5mr", "c5q0"])
        for obs in panel.observations():
            w.writerow([
                obs.unit_id, obs.period, obs.sex, _fmt(obs.completeness),
                _fmt(obs.reg_cdr), _fmt(obs.pct65), _fmt(obs.u5mr_true),
                "" if obs.c5q0 is None else _fmt(obs.c5q0),
            ])


def chain_csv_name(chain_id: int) -> str:
    return f"chain_{chain_id}.csv"


def _trace_layout(priors: PriorConfig, spec: ModelSpec, m: int):
    """(columns, header) of a chain file: columns lists (draw key, width)
    of the keys `priors.recorded`, in the order run_chains fills
    Trace.draws: beta p columns, tau and phi one each, the per-unit keys m;
    the header names every scalar, tau and phi by their display names."""
    widths = {"beta": spec.p, "tau": 1, "phi": 1}
    columns = [(key, widths.get(key, m)) for key in priors.recorded]
    names = {"tau": priors.tau_name, "phi": priors.phi_name}
    header = ",".join(f"{names.get(key, key)}[{j}]"
                      for key, width in columns for j in range(width))
    return columns, header


def _write_hashed(path, chunks) -> str:
    """Write the byte chunks to `path`; the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def write_trace_csv(trace: Trace, columns, header: str, path) -> str:
    """One header row, then one row of repr floats per kept draw, built
    TRACE_CHUNK_ROWS rows at a time; returns the file's sha256."""
    import numpy as np

    def chunks():
        yield header.encode() + b"\n"
        for lo in range(0, trace.kept, TRACE_CHUNK_ROWS):
            hi = min(lo + TRACE_CHUNK_ROWS, trace.kept)
            block = np.concatenate([trace.draws[key][lo:hi].reshape(hi - lo, width)
                                    for key, width in columns], axis=1, dtype=np.float64)
            yield "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()

    return _write_hashed(path, chunks())


def manifest_digest(manifest: dict) -> str:
    """sha256 of the manifest's canonical JSON, every field but this digest."""
    content = {k: v for k, v in manifest.items() if k != MANIFEST_DIGEST}
    return hashlib.sha256(json.dumps(content, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def write_summary_csv(summary: PosteriorSummary, path) -> str:
    """summary.csv; returns its sha256."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SUMMARY_COLUMNS)
    for row in summary.rows:
        w.writerow([row.param, row.index, _fmt(row.mean), _fmt(row.sd),
                    _fmt(row.q2_5), _fmt(row.q50), _fmt(row.q97_5),
                    _fmt(row.ess), _fmt(row.rhat)])
    return _write_hashed(path, [buf.getvalue().encode()])


def write_predictions_csv(prediction, panel: PanelDataset, path) -> None:
    """One line per observation of `panel`, in its order: the unit, the
    row's position within the unit, the observation's key (year, sex) and
    the prediction."""
    keys = [(uid, j, obs.period, obs.sex)
            for uid, obs_list in panel.groups for j, obs in enumerate(obs_list)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["unit_id", "row", "year", "sex", "mode", "mean", "q2.5", "q97.5"])
        w.writerows([*key, prediction.mode, repr(mean), repr(lo), repr(hi)]
                    for key, mean, lo, hi in zip(keys, prediction.mean.tolist(),
                                                 prediction.q2_5.tolist(),
                                                 prediction.q97_5.tolist()))


def write_fit(outdir, traces, summary: PosteriorSummary, *, seed: int,
              clamp_policy: str = "clamp") -> None:
    """Chain files and summary first, then the manifest with their digests."""
    os.makedirs(outdir, exist_ok=True)
    t0 = traces[0]
    columns, header = _trace_layout(t0.priors, t0.spec, len(t0.unit_ids))
    digests = {chain_csv_name(trace.chain_id):
               write_trace_csv(trace, columns, header,
                               os.path.join(outdir, chain_csv_name(trace.chain_id)))
               for trace in traces}
    digests[SUMMARY_NAME] = write_summary_csv(summary, os.path.join(outdir, SUMMARY_NAME))
    manifest = {
        "software": "glmixer",
        "version": __version__,
        "format": FORMAT,
        "seed": seed,
        "chains": len(traces),
        "n_iter": t0.n_iter,
        "burn_in": t0.burn_in,
        "thin": t0.thin,
        "kept": t0.kept,
        "priors": t0.priors.to_dict(),
        "spec": t0.spec.to_dict(),
        "unit_ids": list(t0.unit_ids),
        "sizes": [int(s) for s in t0.sizes],
        "clamp_policy": clamp_policy,
        "sha256": digests,
    }
    manifest[MANIFEST_DIGEST] = manifest_digest(manifest)
    with open(os.path.join(outdir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_int(manifest: dict, key: str, minimum: int) -> int:
    value = manifest[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"manifest {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _read_manifest(outdir) -> dict:
    """The parsed manifest, with its format, chain count and the digest
    table (one entry per chain file and the summary) checked."""
    path = os.path.join(outdir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ValidationError(f"no {MANIFEST_NAME} in {outdir}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"{path}: not a JSON object")
    if manifest.get(MANIFEST_DIGEST) != manifest_digest(manifest):
        raise ValidationError(f"{path}: content does not match its {MANIFEST_DIGEST}")
    try:
        if manifest["format"] != FORMAT:
            raise ValidationError(
                f"{path}: artifact format {manifest['format']!r}, expected {FORMAT}")
        chains = _manifest_int(manifest, "chains", 1)
        digests = manifest["sha256"]
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from None
    expected = {chain_csv_name(k) for k in range(chains)} | {SUMMARY_NAME}
    if not isinstance(digests, dict) or set(digests) != expected:
        raise ValidationError(f"{path}: sha256 must list exactly {sorted(expected)}")
    return manifest


def _verified_bytes(outdir, manifest: dict, name: str):
    """(path, bytes) of an artifact file whose sha256 matches the manifest's."""
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        raise ValidationError(f"missing artifact file {path}")
    with open(path, "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != manifest["sha256"][name]:
        raise ValidationError(f"{path}: sha256 does not match {MANIFEST_NAME}")
    return path, data


def _chain_values(path, data: bytes, header: str, kept: int, width: int, usecols):
    """The `usecols` columns (sorted, ending with the last) of a chain
    file's bytes `data`, after checking its header and that it holds
    `kept` rows of `width` fields.

    The counts come from the bytes: `kept` newline-ended rows after the
    header and `kept * (width - 1)` field separators in them. The parse
    reads the last column, so it fails on a row of fewer than `width`
    fields; with the separator total that leaves every row exactly
    `width` fields.
    """
    import numpy as np

    head = (header + "\n").encode()
    if not data.startswith(head):
        raise ValidationError(f"{path}: header does not match {MANIFEST_NAME}")
    if not data.endswith(b"\n"):
        raise ValidationError(f"{path}: the last row does not end with a newline")
    chars = np.frombuffer(data, dtype=np.uint8, offset=len(head))
    rows = int(np.count_nonzero(chars == ord("\n")))
    seps = int(np.count_nonzero(chars == ord(",")))
    if rows != kept or seps != rows * (width - 1):
        fields = seps / rows + 1 if rows else 0  # per row, on average
        raise ValidationError(f"{path}: {rows} x {fields:g} values, "
                              f"manifest says {kept} x {width}")
    try:
        values = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, skiprows=1,
                            usecols=usecols, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if values.shape[0] != kept:  # blank lines, which loadtxt skips
        raise ValidationError(f"{path}: {values.shape[0]} rows of values, manifest says {kept}")
    return values


def load_fit(outdir, keys=None):
    """Rebuild (traces, manifest) from a fit artifact directory.

    `keys` names the draw keys to load (default all); only their columns
    are parsed. Every chain file is checked against the manifest in full
    either way: its sha256, header, row count and fields per row.
    """
    import numpy as np

    from .design import ModelSpec
    from .gibbs import PriorConfig, Trace

    manifest = _read_manifest(outdir)
    where = os.path.join(outdir, MANIFEST_NAME)
    try:
        priors = PriorConfig.from_dict(manifest["priors"])
        spec = ModelSpec.from_dict(manifest["spec"])
        unit_ids, sizes = manifest["unit_ids"], manifest["sizes"]
        run = {key: _manifest_int(manifest, key, minimum) for key, minimum in (
            ("seed", 0), ("n_iter", 1), ("burn_in", 0), ("thin", 1), ("kept", 1))}
    except KeyError as exc:
        raise ValidationError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: bad value: {exc}") from None
    if not (isinstance(unit_ids, list) and isinstance(sizes, list)
            and len(sizes) == len(unit_ids) and all(isinstance(u, str) for u in unit_ids)):
        raise ValidationError(f"{where}: unit_ids and sizes must be lists of equal length")
    kept = run.pop("kept")
    if kept != (run["n_iter"] - run["burn_in"]) // run["thin"]:
        raise ValidationError(f"{where}: kept {kept} does not follow from n_iter, burn_in, thin")
    columns, header = _trace_layout(priors, spec, len(unit_ids))
    # the loaded keys in the file's order, their columns and the last one
    loaded, usecols, width = [], [], 0
    for key, w in columns:
        if keys is None or key in keys:
            loaded.append((key, w))
            usecols.extend(range(width, width + w))
        width += w
    if usecols[-1:] != [width - 1]:
        usecols.append(width - 1)
    traces = []
    for k in range(manifest["chains"]):
        path, data = _verified_bytes(outdir, manifest, chain_csv_name(k))
        values = _chain_values(path, data, header, kept, width, usecols)
        del data  # one chain file's bytes in memory at a time
        draws, lo = {}, 0
        for key, w in loaded:
            block = values[:, lo:lo + w]
            lo += w
            if key in ("tau", "phi"):
                draws[key] = block[:, 0].copy()
            elif key == "nu":
                draws[key] = block.astype(np.intp)
            else:
                draws[key] = np.ascontiguousarray(block)
        traces.append(Trace(draws=draws, chain_id=k, priors=priors, spec=spec,
                            unit_ids=tuple(unit_ids), sizes=tuple(sizes), **run))
    return traces, manifest


def load_summary_rows(outdir) -> list:
    """summary.csv's data rows as dicts of the written field strings, after
    checking the file against the manifest's digest."""
    path, _ = _verified_bytes(outdir, _read_manifest(outdir), SUMMARY_NAME)
    rows = read_csv_rows(path)
    if not rows or tuple(rows[0]) != SUMMARY_COLUMNS or any(
            len(row) != len(SUMMARY_COLUMNS) for row in rows[1:]):
        raise ValidationError(f"{path}: not a summary table")
    return [dict(zip(SUMMARY_COLUMNS, row)) for row in rows[1:]]
