"""File formats and persistence.

Four formats, all plain text, all written atomically (temp file in the
target directory, then rename):

Scan records (one scan per line, space separated)::

    frame_id timestamp x y z intensity [x y z intensity ...]

are written from any iterable of scans and read as
:class:`~rainlidar.features.ScanTable` blocks of whole lines, both a block
of lines at a time, so neither holds more than a block of text;
:func:`read_scans` joins the blocks into one table, every point in one
buffer. :func:`rainlidar.synth.write_session_scans` writes a synthetic
session's scans, with a second process where two CPUs are available; it
formats each block with :func:`_scan_block_text`, as :func:`write_scans`
does, so this module alone owns the line layout and both give the same
bytes for the same scans. A block of single-spaced ASCII lines with
finite values is parsed by one C-level ``np.fromstring`` pass; any other
block goes line by line through ``int`` and ``float``, which decide what a
malformed file is: its first bad line is reported as ``path:line:``.

Disdrometer tracks: CSV with mandatory header
``timestamp_s,rate_mm_h,segment_id``.

Datasets: CSV prefixed by two comment lines (format version, assembly
config as JSON), one row per window sample with the 8 features, target,
window bounds, split tag and provenance.

Models: a versioned JSON document holding the tree spec, per-node
posteriors (mean vectors, covariance matrices as row-major nested lists,
noise precision), standardization statistics and training metadata.
Version 2 keeps only what loading reads. A version 1 file also holds each
gate's ``xi`` and warnings and two metadata copies; the reader ignores
those keys, so both versions load through it.

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
import warnings as _warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .features import (
    FEATURE_NAMES,
    FeatureStats,
    ScanTable,
    WindowSample,
    _check_points,
    _id_array,
)
from .moe import MoEModel, TreeSpec
from .pipeline import Dataset, RainSeries
from .vblearn import BasisConfig, ExpertPosterior, GatePosterior

DATASET_FORMAT_VERSION = 1
MODEL_FORMAT_VERSION = 2

_DATASET_MAGIC = "# rainlidar-dataset v"
_DATASET_CONFIG = "# config "
_DATASET_SEGMENTS = "# segments "

DISDRO_HEADER = ["timestamp_s", "rate_mm_h", "segment_id"]


@contextmanager
def atomic_open(path):
    """A text handle on a temp file in ``path``'s directory, renamed to ``path``
    when the block ends; if the block raises, the temp file is removed and
    an existing ``path`` is left as it was."""
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text through a temp file + rename so partial files never appear."""
    with atomic_open(path) as handle:
        handle.write(text)


# Scan files are read, and written, this many bytes at a time; a read
# block is cut back to a line end. A 512 KiB block holds about 7,000
# points; larger blocks parse and write no faster and hold more.
SCAN_BLOCK_BYTES = 1 << 19

# The most bytes one value takes in a scan line: the longest float repr
# (-2.2250738585072014e-308) and its separator.
_MAX_VALUE_BYTES = 25


def _scan_block_text(frame_ids, timestamps, counts, points: np.ndarray) -> str:
    """The lines of a block of scans, each ended by a newline.

    Scan i has the int ``frame_ids[i]``, the float ``timestamps[i]`` and
    the next ``counts[i]`` rows of the (N, 4) ``points`` (x, y, z,
    intensity); a line is the id, the timestamp and the point values in
    row order, the floats rendered by ``repr``.
    """
    values = points.ravel().tolist()
    lines, at = [], 0
    for frame_id, timestamp, count in zip(frame_ids, timestamps, counts):
        stop = at + 4 * count
        lines.append(" ".join([str(frame_id), repr(timestamp), *map(repr, values[at:stop])]))
        at = stop
    lines.append("")
    return "\n".join(lines)


def write_scans(path, scans) -> int:
    """Write an iterable of :class:`Scan` (a list, a table, a generator) to a
    scan file, atomically; return the number of scans written.

    The scans are taken a block at a time, as many as SCAN_BLOCK_BYTES
    holds at the longest value, then formatted and written, so at most
    one block of scans and its lines are held at once.
    """
    scans = iter(scans)
    n_scans = 0
    with atomic_open(path) as handle:
        while True:
            block, budget = [], SCAN_BLOCK_BYTES
            for scan in scans:
                block.append(scan)
                budget -= (2 + 4 * scan.n_points) * _MAX_VALUE_BYTES
                if budget <= 0:
                    break
            if not block:
                return n_scans
            points = np.concatenate([np.column_stack((scan.xyz, scan.intensity)) for scan in block])
            handle.write(
                _scan_block_text(
                    [int(scan.frame_id) for scan in block],
                    [float(scan.timestamp) for scan in block],
                    [scan.n_points for scan in block],
                    points,
                )
            )
            n_scans += len(block)


def read_scan_blocks(path):
    """Yield a scan file as :class:`ScanTable` blocks of whole lines, in file order.

    The file is read SCAN_BLOCK_BYTES at a time, each block cut back to a
    line end, so no more than a block of text and its scans are held at
    once; a block without scans (only blank lines) yields nothing. Each
    block is checked as :func:`read_scans` describes: the first bad line of
    the file raises when its block is reached, after the blocks ahead of it
    have been yielded.
    """
    lines_before = 0
    with open(path, "rb") as handle:
        rest, more = b"", True
        while more:
            chunk = handle.read(SCAN_BLOCK_BYTES)
            more = bool(chunk)
            cut = chunk.rfind(b"\n") + 1 if more else 0
            if more and cut == 0:
                rest += chunk
                continue
            # One copy: the lines that end in this chunk, after the rest of the last.
            data = b"".join((rest, memoryview(chunk)[:cut])) if more else rest
            rest = chunk[cut:]
            del chunk
            if not data:
                continue
            ids, times, n_points, quads, n_lines = _parse_block(data) or _parse_lines(
                data, path, lines_before
            )
            # The text is not held while the consumer works on its scans.
            del data
            lines_before += n_lines
            if ids:
                offsets = np.zeros(len(ids) + 1, dtype=np.intp)
                np.cumsum(n_points, out=offsets[1:])
                yield ScanTable._trusted(_id_array(ids), times, offsets, quads[:, :3], quads[:, 3])


def read_scans(path) -> ScanTable:
    """Read a scan file into a :class:`ScanTable`: the blocks of
    :func:`read_scan_blocks`, joined.

    Blank lines are skipped. A line with a field count other than 2 + 4k, a
    token that ``int`` (frame id) or ``float`` rejects, raises
    FileFormatError with ``path:line:``; a non-finite point value or a
    negative intensity raises InvalidInputError. The first bad line of the
    file decides which.
    """
    # Seeded so that the offsets start at 0 and an empty file gives an empty table.
    frame_ids, timestamps, counts = [np.empty(0, dtype=np.int64)], [np.empty(0)], [[0]]
    filled = 0
    # Every value takes at least 2 bytes, so a point at least 8: one buffer
    # this large holds every point, and the pages that no point reaches are
    # never touched.
    points = np.empty((os.stat(path).st_size // 8 + 1, 4))
    for block in read_scan_blocks(path):
        n = block.xyz.shape[0]
        if filled + n > len(points):  # the file grew while read
            points.resize((2 * (filled + n), 4), refcheck=False)
        points[filled : filled + n, :3] = block.xyz
        points[filled : filled + n, 3] = block.intensity
        filled += n
        frame_ids.append(block.frame_ids)
        timestamps.append(block.timestamps)
        counts.append(np.diff(block.offsets))
    # In place: realloc returns the untouched tail without a copy of the rest.
    points.resize((filled, 4), refcheck=False)
    return ScanTable._trusted(
        _id_array(np.concatenate(frame_ids)),
        np.concatenate(timestamps),
        np.cumsum(np.concatenate(counts)),
        points[:, :3],
        points[:, 3],
    )


def _parse_block(data: bytes):
    """The scans of a block of whole lines by one ``np.fromstring`` pass.

    Returns ``(frame_ids, timestamps, point_counts, (P, 4) points, lines)``
    with the points validated, or None unless the result provably equals
    :func:`_parse_lines`. The block must be ASCII (no locale then makes
    a byte a blank) with ``' '`` and ``'\\n'`` as its only whitespace, and
    the parse must succeed. Each line then
    holds at most (spaces + 1) values, exactly that many only when it is
    single-spaced and not blank, so a value count equal to the sum of
    (spaces + 1) over the lines proves every line's count. Each line must
    also have 2 + 4k fields and a frame id that ``int`` accepts, and every
    value must be finite (``np.fromstring`` takes spellings of NaN that
    ``float`` rejects).
    """
    if not data.isascii() or any(byte in data for byte in b"\r\t\x0b\x0c"):
        return None
    try:
        with _warnings.catch_warnings():
            # numpy releases that warn on unparsed text instead of raising
            _warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(data, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    starts, fields = [], []
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start)
        stop = len(data) if stop < 0 else stop
        starts.append(start)
        fields.append(data.count(b" ", start, stop) + 1)
        start = stop + 1
    fields = np.array(fields)
    if fields.sum() != values.size or np.any((fields - 2) % 4) or not np.isfinite(values).all():
        return None
    try:
        frame_ids = [int(data[a : data.index(b" ", a)]) for a in starts]
    except ValueError:
        return None
    heads = np.cumsum(fields) - fields
    is_point = np.ones(values.size, dtype=bool)
    is_point[heads] = False
    is_point[heads + 1] = False
    points = values[is_point].reshape(-1, 4)
    _check_points(points[:, :3], points[:, 3])
    return frame_ids, values[heads + 1], (fields - 2) // 4, points, len(starts)


def _parse_lines(data: bytes, path, lines_before: int):
    """The scans of a block of whole lines, parsed and validated line by line.

    Lines are decoded and split as a text-mode file of their own would be;
    ``lines_before`` is the number of file lines ahead of the block.
    Returns what :func:`_parse_block` returns.
    """
    frame_ids, timestamps, counts, quads = [], [], [], []
    n_lines = 0
    for n_lines, line in enumerate(_io.TextIOWrapper(_io.BytesIO(data)), start=1):
        lineno = lines_before + n_lines
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
        points = values.reshape(-1, 4)
        _check_points(points[:, :3], points[:, 3])
        frame_ids.append(frame_id)
        timestamps.append(timestamp)
        counts.append(points.shape[0])
        quads.append(points)
    return (
        frame_ids,
        np.array(timestamps, dtype=float),
        np.array(counts, dtype=np.intp),
        np.concatenate(quads) if quads else np.empty((0, 4)),
        n_lines,
    )


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
    version = doc.get("version")
    # type(): True == 1 and 2.0 == 2, but neither is a version that was written.
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise FileFormatError(f"{path}: unsupported model version {version}")
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
                basis=_basis_from_doc(g["basis"]),
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
        if version == 1:
            # v1 copies of the version and of n_samples; a saved model is v2.
            metadata = {
                k: v for k, v in metadata.items() if k not in ("format_version", "n_train_samples")
            }
    except (KeyError, TypeError, AttributeError) as exc:
        raise FileFormatError(f"{path}: incomplete model document: {exc}") from exc
    return MoEModel(spec=spec, gates=gates, experts=experts, standardization=stats, metadata=metadata)
