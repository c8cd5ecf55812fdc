"""Correctness checks on the files and output lines of the CLI commands.

Values are compared with a tolerance, not a digest: |got - want| <=
ABS_TOL + REL_TOL * |want|. That admits last-bit changes (for example a
different but equivalent smoothing filter) and rejects anything larger.
Byte identity is required only between two runs of the same code in one
benchmark run.

Three kinds of value checks:

* recomputation: sampled dataset rows, sampled stream rows and the evaluate
  report are recomputed in this process through the public library API
  (``window_features``, ``target_for_window``, ``infer``,
  ``summarize_predictions``) from the command's own input files;
* stored reference: the validation block of the report and the sampled
  rows must match the values stored in reference.json for the workload's
  session seed (a seed with no stored values fails the check);
* counts: the scan, window, sample and emission counts printed by the
  commands must equal the workload's expected counts.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from rainlidar import io as rio
from rainlidar.features import CropBox, window_features
from rainlidar.moe import infer, summarize_predictions
from rainlidar.pipeline import SPLIT_TRAIN, SPLIT_VALIDATION, preprocess, target_for_window

REL_TOL = 1e-6
ABS_TOL = 1e-9

# Sampled rows: first, quartiles and last.
ROW_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

COUNT_PATTERNS = {
    "synth": re.compile(
        r"synth: (?P<scans>\d+) scans over .*; (?P<measurements>\d+) disdrometer"
    ),
    "featurize": re.compile(
        r"featurize: (?P<windows>\d+) windows -> (?P<samples>\d+) samples "
        r"\((?P<validation>\d+) validation\); skipped (?P<skipped_no_target>\d+) "
        r"without target, (?P<skipped_few_scans>\d+) with too few scans"
    ),
    "predict": re.compile(r"predict: (?P<emissions>\d+) emissions \((?P<skipped>\d+) skipped\)"),
}


def parse_counts(command: str, stdout: str) -> dict:
    """Counts printed by a command ({} for commands that print none)."""
    pattern = COUNT_PATTERNS.get(command)
    if pattern is None:
        return {}
    match = pattern.search(stdout)
    if match is None:
        raise ValueError(f"{command}: no count line in output {stdout[:200]!r}")
    return {k: int(v) for k, v in match.groupdict().items()}


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def compare(label: str, got, want, failures: list) -> None:
    """Append a failure message for every value of ``got`` that differs from ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            failures.append(f"{label}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}")
            return
        for key in want:
            compare(f"{label}.{key}", got[key], want[key], failures)
    elif isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            failures.append(f"{label}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(f"{label}[{i}]", g, w, failures)
    elif want is None or got is None:
        if got is not want:
            failures.append(f"{label}: {got!r} != {want!r}")
    elif abs(float(got) - float(want)) > ABS_TOL + REL_TOL * abs(float(want)):
        failures.append(f"{label}: {got!r} != {want!r}")


def sampled_rows(n: int) -> list:
    return sorted({round(f * (n - 1)) for f in ROW_FRACTIONS}) if n else []


def _between(scans: list, times: np.ndarray, t0: float, t1: float) -> list:
    """Scans with t0 <= timestamp < t1, sliced as ``rainlidar predict`` does."""
    i0, i1 = np.searchsorted(times, [t0, t1], side="left")
    return scans[i0:i1]


def _csv_rows(path, skip: int) -> list:
    with open(path) as handle:
        lines = handle.read().splitlines()
    return [line.split(",") for line in lines[skip:] if line]


def dataset_rows(dataset_path) -> dict:
    """Sampled dataset rows as {index: [8 features..., target]}."""
    dataset = rio.read_dataset(dataset_path)
    return {
        str(i): [float(v) for v in dataset.samples[i].features] + [dataset.samples[i].target]
        for i in sampled_rows(len(dataset.samples))
    }


def stream_rows(stream_path) -> dict:
    """Sampled predict rows as {index: [time, estimate, error probability, resp...]}."""
    rows = _csv_rows(stream_path, skip=1)
    return {str(i): [float(v) for v in rows[i]] for i in sampled_rows(len(rows))}


def validation_report(report_path) -> dict:
    with open(report_path) as handle:
        return json.load(handle)[SPLIT_VALIDATION]


def recompute_dataset_rows(scans: list, rain_path, dataset_path) -> dict:
    """Recompute sampled dataset rows from ``scans`` (``rio.read_scans`` of the scan file)."""
    dataset = rio.read_dataset(dataset_path)
    cfg = dataset.config
    truth = preprocess(
        rio.read_disdrometer(rain_path),
        window=cfg["savgol_window"],
        order=cfg["savgol_order"],
        n_cut=cfg["trim"],
    )
    box = CropBox(cfg["box_half_extent"])
    times = np.array([scan.timestamp for scan in scans])
    out = {}
    for i in sampled_rows(len(dataset.samples)):
        start, end = dataset.samples[i].window
        vector = window_features(_between(scans, times, start, end), box)
        out[str(i)] = [float(v) for v in vector] + [target_for_window(truth, (start, end))]
    return out


def recompute_stream_rows(scans: list, model_path, stream_path) -> dict:
    """Recompute sampled predict rows with the model's window and default band."""
    model = rio.load_model(model_path)
    cfg = model.metadata.get("dataset_config", {})
    box = CropBox(cfg.get("box_half_extent", 10.0))
    buffer_s = cfg.get("duration", 10.0)
    times = np.array([scan.timestamp for scan in scans])
    out = {}
    for key, row in stream_rows(stream_path).items():
        emit = row[0]
        pred = infer(model, window_features(_between(scans, times, emit - buffer_s, emit), box))
        out[key] = [emit, pred.point_estimate, pred.error_probability] + [
            float(p) for p in pred.responsibilities
        ]
    return out


def recompute_report(model_path, dataset_path) -> dict:
    """The evaluate report rebuilt from per-sample ``infer`` calls."""
    model = rio.load_model(model_path)
    dataset = rio.read_dataset(dataset_path)
    pairs = [(infer(model, s.features), float(s.target)) for s in dataset.samples]
    reports = {"overall": summarize_predictions(pairs)}
    for tag in (SPLIT_TRAIN, SPLIT_VALIDATION):
        tagged = [p for p, t in zip(pairs, dataset.split_tags) if t == tag]
        if tagged:
            reports[tag] = summarize_predictions(tagged)
    return {tag: rep.as_dict() for tag, rep in reports.items()}


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)

