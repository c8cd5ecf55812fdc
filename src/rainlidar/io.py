"""File formats and persistence.

Four formats, all plain text, all written atomically (temp file in the
target directory, then rename):

Scan records (one scan per line, space separated)::

    frame_id timestamp x y z intensity [x y z intensity ...]

Disdrometer tracks: CSV with mandatory header
``timestamp_s,rate_mm_h,segment_id``.

Datasets: CSV prefixed by two comment lines (format version, assembly
config as JSON), one row per window sample with the 8 features, target,
window bounds, split tag and provenance.

Models: a versioned JSON document holding the tree spec, per-node
posteriors (mean vectors, covariance matrices as row-major nested lists,
noise precision), standardization statistics and training metadata.

Floats are rendered with ``repr`` (shortest round-trip), so write/read
cycles reproduce values bit-exactly and identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .features import FEATURE_NAMES, FeatureStats, Scan, WindowSample
from .moe import MODEL_FORMAT_VERSION, MoEModel, TreeSpec
from .pipeline import Dataset, RainSeries
from .vblearn import BasisConfig, ExpertPosterior, GatePosterior

DATASET_FORMAT_VERSION = 1

_DATASET_MAGIC = "# rainlidar-dataset v"
_DATASET_CONFIG = "# config "
_DATASET_SEGMENTS = "# segments "

DISDRO_HEADER = ["timestamp_s", "rate_mm_h", "segment_id"]


def atomic_write_text(path, text: str) -> None:
    """Write text through a temp file + rename so partial files never appear."""
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_scans(path, scans) -> None:
    lines = []
    for scan in scans:
        values = np.column_stack((scan.xyz, scan.intensity)).ravel().tolist()
        lines.append(
            " ".join([str(int(scan.frame_id)), repr(float(scan.timestamp)), *map(repr, values)])
        )
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_scans(path) -> list:
    scans = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 2 or (len(tokens) - 2) % 4 != 0:
                raise FileFormatError(
                    f"{path}:{lineno}: expected 'frame_id timestamp' plus "
                    f"(x, y, z, intensity) quadruples, got {len(tokens)} fields"
                )
            try:
                frame_id = int(tokens[0])
                timestamp = float(tokens[1])
                values = np.array([float(v) for v in tokens[2:]], dtype=float)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            quads = values.reshape(-1, 4)
            scans.append(
                Scan(xyz=quads[:, :3], intensity=quads[:, 3], timestamp=timestamp, frame_id=frame_id)
            )
    return scans


def write_disdrometer(path, series: RainSeries) -> None:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DISDRO_HEADER)
    for t, r, s in zip(series.timestamps, series.rates, series.segment_ids):
        writer.writerow([repr(float(t)), repr(float(r)), int(s)])
    atomic_write_text(path, buf.getvalue())


def read_disdrometer(path) -> RainSeries:
    with open(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty disdrometer file (header required)")
        if [h.strip() for h in header] != DISDRO_HEADER:
            raise FileFormatError(
                f"{path}: expected header {','.join(DISDRO_HEADER)}, got {','.join(header)}"
            )
        t, r, s = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FileFormatError(f"{path}:{lineno}: expected 3 columns")
            try:
                t.append(float(row[0]))
                r.append(float(row[1]))
                s.append(int(row[2]))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return RainSeries(np.array(t), np.array(r), np.array(s, dtype=int))


_DATASET_COLUMNS = list(FEATURE_NAMES) + [
    "target",
    "window_start",
    "window_end",
    "split",
    "provenance",
]


def write_dataset(path, dataset: Dataset) -> None:
    buf = _io.StringIO()
    buf.write(f"{_DATASET_MAGIC}{DATASET_FORMAT_VERSION}\n")
    buf.write(_DATASET_CONFIG + json.dumps(dataset.config, sort_keys=True) + "\n")
    buf.write(_DATASET_SEGMENTS + json.dumps(dataset.segment_spans) + "\n")
    writer = csv.writer(buf)
    writer.writerow(_DATASET_COLUMNS)
    for sample, tag in zip(dataset.samples, dataset.split_tags):
        row = [repr(float(v)) for v in sample.features]
        row += [
            repr(float(sample.target)),
            repr(float(sample.window[0])),
            repr(float(sample.window[1])),
            tag,
            sample.provenance,
        ]
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def read_dataset(path) -> Dataset:
    with open(path) as handle:
        magic = handle.readline().strip()
        if not magic.startswith(_DATASET_MAGIC):
            raise FileFormatError(f"{path}: missing dataset format header")
        version = magic[len(_DATASET_MAGIC):]
        if version != str(DATASET_FORMAT_VERSION):
            raise FileFormatError(f"{path}: unsupported dataset version {version}")
        config_line = handle.readline()
        segments_line = handle.readline()
        if not config_line.startswith(_DATASET_CONFIG) or not segments_line.startswith(_DATASET_SEGMENTS):
            raise FileFormatError(f"{path}: missing config/segments header lines")
        try:
            config = json.loads(config_line[len(_DATASET_CONFIG):])
            spans = [tuple(s) for s in json.loads(segments_line[len(_DATASET_SEGMENTS):])]
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: malformed header JSON: {exc}") from exc
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: missing column header")
        if header != _DATASET_COLUMNS:
            raise FileFormatError(f"{path}: unexpected dataset columns")
        samples, tags = [], []
        n_feat = len(FEATURE_NAMES)
        for lineno, row in enumerate(reader, start=5):
            if not row:
                continue
            if len(row) != len(_DATASET_COLUMNS):
                raise FileFormatError(f"{path}:{lineno}: expected {len(_DATASET_COLUMNS)} columns")
            try:
                features = np.array([float(v) for v in row[:n_feat]])
                target = float(row[n_feat])
                start = float(row[n_feat + 1])
                end = float(row[n_feat + 2])
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            samples.append(
                WindowSample(features=features, target=target, window=(start, end), provenance=row[n_feat + 4])
            )
            tags.append(row[n_feat + 3])
    return Dataset(samples=samples, split_tags=tags, config=config, segment_spans=spans)


def _basis_to_doc(basis: BasisConfig) -> dict:
    return {"kind": basis.kind, "degree": basis.degree}


def _basis_from_doc(doc: dict) -> BasisConfig:
    return BasisConfig(kind=doc["kind"], degree=doc["degree"])


def save_model(path, model: MoEModel) -> None:
    doc = {
        "format": "rainlidar-model",
        "version": MODEL_FORMAT_VERSION,
        "spec": {
            "depth": model.spec.depth,
            "thresholds": [float(h) for h in model.spec.thresholds],
            "expert_ranges": [[float(lo), float(hi)] for lo, hi in model.spec.expert_ranges],
        },
        "gates": [
            {
                "basis": _basis_to_doc(g.basis),
                "mean": g.mean.tolist(),
                "covariance": g.covariance.tolist(),
                "xi": g.xi.tolist(),
                "warnings": list(g.warnings),
            }
            for g in model.gates
        ],
        "experts": [
            {
                "basis": _basis_to_doc(e.basis),
                "mean": e.mean.tolist(),
                "covariance": e.covariance.tolist(),
                "noise_precision": float(e.noise_precision),
            }
            for e in model.experts
        ],
        "standardization": {
            "mean": model.standardization.mean.tolist(),
            "scale": model.standardization.scale.tolist(),
        },
        "metadata": model.metadata,
    }
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_model(path) -> MoEModel:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: malformed model JSON: {exc}") from exc
    if doc.get("format") != "rainlidar-model":
        raise FileFormatError(f"{path}: not a rainlidar model file")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        spec = TreeSpec(
            depth=doc["spec"]["depth"],
            thresholds=tuple(doc["spec"]["thresholds"]),
            expert_ranges=tuple(tuple(r) for r in doc["spec"]["expert_ranges"]),
        )
        gates = tuple(
            GatePosterior(
                mean=np.array(g["mean"]),
                covariance=np.array(g["covariance"]),
                xi=np.array(g["xi"]),
                basis=_basis_from_doc(g["basis"]),
                warnings=tuple(g.get("warnings", ())),
            )
            for g in doc["gates"]
        )
        experts = tuple(
            ExpertPosterior(
                mean=np.array(e["mean"]),
                covariance=np.array(e["covariance"]),
                noise_precision=e["noise_precision"],
                basis=_basis_from_doc(e["basis"]),
            )
            for e in doc["experts"]
        )
        stats = FeatureStats(
            mean=np.array(doc["standardization"]["mean"]),
            scale=np.array(doc["standardization"]["scale"]),
        )
        metadata = doc.get("metadata", {})
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: incomplete model document: {exc}") from exc
    return MoEModel(spec=spec, gates=gates, experts=experts, standardization=stats, metadata=metadata)
