"""Flat, diff-able fit artifacts: per-chain trace CSVs (one row per kept
draw), summary and prediction CSVs, and a JSON manifest, written last, that
records the artifact format, the kept count and the sha256 of every chain
file and of the summary, and a sha256 of its own other fields; readers
check the manifest and the files they read against it.

Floats are written with repr (shortest round-trip) so identical runs
produce byte-identical files; no timestamps anywhere.

Importing this module loads no numpy: only the trace-file writer and
`load_fit` import numpy, the sampler's types and the design, so the
manifest, digest, summary and prediction-CSV paths run without them.
"""

from __future__ import annotations

import csv
import hashlib
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
# manifest: 2 is the wide chain CSV (one row per kept draw).
FORMAT = 2
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
    in the order run_chain fills Trace.draws, tau and phi one column each;
    the header names every scalar, tau and phi by their display names."""
    columns = [("beta", spec.p), ("u", m), ("tau", 1), ("phi", 1),
               ("omega", m), ("lambda", m)]
    if priors.reffect_prior == "student-t":
        columns.append(("nu", m))
    names = {"tau": priors.tau_name, "phi": priors.phi_name}
    header = ",".join(f"{names.get(key, key)}[{j}]"
                      for key, width in columns for j in range(width))
    return columns, header


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_trace_csv(trace: Trace, columns, header: str, path) -> None:
    """One header row, then one row of repr floats per kept draw, built
    TRACE_CHUNK_ROWS rows at a time."""
    import numpy as np

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, trace.kept, TRACE_CHUNK_ROWS):
            hi = min(lo + TRACE_CHUNK_ROWS, trace.kept)
            block = np.concatenate([trace.draws[key][lo:hi].reshape(hi - lo, width)
                                    for key, width in columns], axis=1, dtype=np.float64)
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))


def manifest_digest(manifest: dict) -> str:
    """sha256 of the manifest's canonical JSON, every field but this digest."""
    content = {k: v for k, v in manifest.items() if k != MANIFEST_DIGEST}
    return hashlib.sha256(json.dumps(content, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def write_summary_csv(summary: PosteriorSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SUMMARY_COLUMNS)
        for row in summary.rows:
            w.writerow([row.param, row.index, _fmt(row.mean), _fmt(row.sd),
                        _fmt(row.q2_5), _fmt(row.q50), _fmt(row.q97_5),
                        _fmt(row.ess), _fmt(row.rhat)])


def write_predictions_csv(prediction, unit_ids, sizes, path) -> None:
    """One line per design row: the unit, the row's position within the
    unit (`sizes[i]` consecutive rows per unit) and the prediction."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["unit_id", "row", "mode", "mean", "q2.5", "q97.5"])
        i = 0
        for uid, size in zip(unit_ids, sizes):
            for j in range(size):
                w.writerow([uid, j, prediction.mode, _fmt(prediction.mean[i]),
                            _fmt(prediction.q2_5[i]), _fmt(prediction.q97_5[i])])
                i += 1


def write_fit(outdir, traces, summary: PosteriorSummary, *, seed: int,
              clamp_policy: str = "clamp") -> None:
    """Chain files and summary first, then the manifest with their digests."""
    os.makedirs(outdir, exist_ok=True)
    t0 = traces[0]
    columns, header = _trace_layout(t0.priors, t0.spec, len(t0.unit_ids))
    names = [chain_csv_name(trace.chain_id) for trace in traces]
    for trace, name in zip(traces, names):
        write_trace_csv(trace, columns, header, os.path.join(outdir, name))
    write_summary_csv(summary, os.path.join(outdir, SUMMARY_NAME))
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
        "sha256": {name: _sha256(os.path.join(outdir, name)) for name in names + [SUMMARY_NAME]},
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


def _verified_path(outdir, manifest: dict, name: str) -> str:
    """Path of an artifact file whose sha256 matches the manifest's."""
    path = os.path.join(outdir, name)
    if not os.path.exists(path):
        raise ValidationError(f"missing artifact file {path}")
    if _sha256(path) != manifest["sha256"][name]:
        raise ValidationError(f"{path}: sha256 does not match {MANIFEST_NAME}")
    return path


def load_fit(outdir):
    """Rebuild (traces, manifest) from a fit artifact directory, checking
    every chain file against the manifest: digest, header, row count."""
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
    width = sum(w for _, w in columns)
    traces = []
    for k in range(manifest["chains"]):
        path = _verified_path(outdir, manifest, chain_csv_name(k))
        with open(path, "rb") as fh:
            if fh.readline() != header.encode() + b"\n":
                raise ValidationError(f"{path}: header does not match {MANIFEST_NAME}")
        try:
            body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if body.shape != (kept, width):
            raise ValidationError(f"{path}: {body.shape[0]} x {body.shape[1]} values, "
                                  f"manifest says {kept} x {width}")
        draws, lo = {}, 0
        for key, w in columns:
            block = body[:, lo:lo + w]
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
    path = _verified_path(outdir, _read_manifest(outdir), SUMMARY_NAME)
    rows = read_csv_rows(path)
    if not rows or tuple(rows[0]) != SUMMARY_COLUMNS or any(
            len(row) != len(SUMMARY_COLUMNS) for row in rows[1:]):
        raise ValidationError(f"{path}: not a summary table")
    return [dict(zip(SUMMARY_COLUMNS, row)) for row in rows[1:]]
