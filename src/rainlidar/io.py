"""File formats and persistence.

Four formats, all plain text, all written atomically (temp file in the
target directory, then rename):

Scan records (one scan per line, space separated)::

    frame_id timestamp x y z intensity [x y z intensity ...]

are written and read as :class:`~rainlidar.features.ScanTable` blocks
of whole lines, a block of lines at a time, so neither holds more than a
block of text. :func:`write_scans` gathers any iterable of scans into
blocks, and :func:`rainlidar.synth.write_session_scans` draws a synthetic
session's scans as blocks; both format each block with
:func:`_scan_block_text`, so this module alone owns the line layout and
both give the same bytes for the same scans. :func:`read_scans` joins the
reader's blocks with :meth:`ScanTable.concat`, so it holds the blocks and
their join at once, about twice the points. A block of single-spaced
ASCII lines with finite values is parsed by one C-level ``np.fromstring``
pass; any other block goes line by line through ``int`` and ``float``,
which decide what a malformed file is: its first bad line is reported as
``path:line:``.

The session writer and the reader of a regular file make their blocks,
text or parsed scans, on two processes where two CPUs may run this one,
through :func:`_made_blocks`, whose docstring describes the claims and
what happens when the worker fails; the output does not depend on the
worker.

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
import pickle
import select
import signal
import stat
import struct
import tempfile
import warnings as _warnings
from collections import deque
from contextlib import contextmanager, suppress
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidInputError
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
    an existing ``path`` is left as it was. The file gets the mode that
    ``open(path, "w")`` gives a new file, 0o666 less the umask."""
    path = Path(path)
    directory = path.parent if str(path.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name + ".", suffix=".tmp")
    try:
        # mkstemp makes the file owner-only; the umask is read by setting it.
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
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


def _scan_block_text(block: ScanTable) -> str:
    """The lines of a :class:`ScanTable` of scans, each ended by a newline.

    A line is the scan's frame id, its timestamp and its points' x, y, z
    and intensity in row order, the floats rendered by ``repr``.
    """
    values = np.column_stack((block.xyz, block.intensity)).ravel().tolist()
    bounds = (4 * block.offsets).tolist()
    lines = [
        " ".join([str(frame_id), repr(timestamp), *map(repr, values[a:b])])
        for frame_id, timestamp, a, b in zip(
            block.frame_ids.tolist(), block.timestamps.tolist(), bounds, bounds[1:]
        )
    ]
    lines.append("")
    return "\n".join(lines)


def write_scans(path, scans) -> int:
    """Write an iterable of :class:`Scan` (a list, a table, a generator) to a
    scan file, atomically; return the number of scans written.

    The scans are taken a block at a time, as many as SCAN_BLOCK_BYTES
    holds at the longest value, then joined into one :class:`ScanTable`,
    formatted and written, so at most one block of scans and its lines
    are held at once.
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
            handle.write(_scan_block_text(ScanTable.from_scans(block)))
            n_scans += len(block)


def read_scan_blocks(path):
    """Yield a scan file as :class:`ScanTable` blocks of whole lines, in file order.

    The file is read SCAN_BLOCK_BYTES at a time, each block cut back to a
    line end, so no more than a block of text and its scans are held at
    once, and the scans of the next block where it was parsed ahead; a
    block without scans (only blank lines) yields nothing. Each block is
    checked as :func:`read_scans` describes: the first bad line of the
    file raises when its block is reached, after the blocks ahead of it
    have been yielded.

    A regular file of more than one block is parsed through
    :func:`_made_blocks`, whose worker opens the file again and cuts the
    same blocks; both processes parse with :func:`_parse_claimed`. This
    process parses a block again, line by line, unless it has a clean parse
    of the block of the same offset and length, so every error is raised
    here, as with one process.
    """
    lines_before = 0
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        several = stat.S_ISREG(info.st_mode) and info.st_size > SCAN_BLOCK_BYTES
        worker_jobs = _reopened_jobs(path, info) if several else None
        for job, made in _made_blocks(_file_jobs(handle), _parse_claimed, worker_jobs):
            # The worker read the file again, which may have changed since.
            if job and made and made[:2] != (job[0], len(job[1])):
                made = None
            ids, times, n_points, quads, n_lines = (
                made[2] if made else _parse_lines(job[1], path, lines_before)
            )
            # The text is not held while the consumer works on its scans.
            del job, made
            lines_before += n_lines
            if len(ids):
                offsets = np.zeros(len(ids) + 1, dtype=np.intp)
                np.cumsum(n_points, out=offsets[1:])
                yield ScanTable._trusted(
                    _id_array(ids), times, offsets, quads[:, :3], quads[:, 3]
                )


def _next_lines(handle, rest: bytes):
    """The next block of whole lines of a binary ``handle``, and the rest.

    ``rest`` is the part of a line that the last block left over. Reads
    SCAN_BLOCK_BYTES at a time to the first read with a line end, and cuts
    the block back to its last one; at the end of the file the block is
    the rest, and then empty.
    """
    while chunk := handle.read(SCAN_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            # One copy: the lines that end in this chunk, after the rest of the last.
            return b"".join((rest, memoryview(chunk)[:cut])), chunk[cut:]
        rest += chunk
    return rest, b""


def _file_jobs(handle):
    """The blocks of :func:`_next_lines` of a binary ``handle`` as
    ``(offset, data)`` jobs, in file order; the iterator holds none."""
    rest, offset = b"", 0

    def next_job():
        nonlocal rest, offset
        data, rest = _next_lines(handle, rest)
        offset += len(data)
        return (offset - len(data), data) if data else None

    return iter(next_job, None)


def _reopened_jobs(path, info):
    """In the worker: the jobs of :func:`_file_jobs` of the file that
    ``path`` names, opened again; none when ``path`` no longer names the
    file of stat result ``info``."""
    with open(path, "rb") as handle:
        if os.path.samestat(info, os.fstat(handle.fileno())):
            yield from _file_jobs(handle)


def _parse_claimed(job):
    """The make of :func:`read_scan_blocks`: the offset of an ``(offset,
    data)`` job, its length and what :func:`_parse_block` gives, or None
    where that gives None or raises."""
    offset, data = job
    with suppress(InvalidInputError):  # raised by the reader when it gets there
        if parsed := _parse_block(data):
            return offset, len(data), parsed
    return None


# The worker's pipe holds about two pickled blocks of synth text (100 frames
# at 10 Hz: 0.37 MB median, 0.68 MB at most on the default session) or four
# of parsed read scans (about 0.23 MB each), so the worker can run ahead
# while this process works on its blocks; a default pipe holds 64 KiB, and
# 1 MiB is the most that Linux lets an unprivileged process ask by default.
_PIPE_BYTES = 1 << 20

# The claim token: the next unclaimed job, and how many jobs the worker
# has finished.
_TOKEN = struct.Struct("qq")


def _made_blocks(jobs, make, worker_jobs):
    """Yield ``(job, make(job))`` for each job of ``jobs``, in order, each
    block made by this process or by a forked worker.

    ``worker_jobs`` are the same jobs as the worker finds them: only the
    worker iterates them, after the fork. Without them, where this process
    may run on one CPU only, or where it cannot fork, this process makes
    every block. Otherwise the jobs are numbered from 0, and whichever
    process is free claims the next unclaimed one, through a one-message
    token pipe (:class:`_Token`) made before the fork. When this process
    reaches a job that the worker is still making, it claims and makes the
    job after it meanwhile, then waits for the worker's block. It holds that
    one block made ahead, and its job only where ``make`` gave None; the
    pair of a block made ahead is ``(None, block)`` otherwise. No pair is
    held here once it has been yielded.

    The worker writes each block to a pipe widened to _PIPE_BYTES as one
    pickle (protocol 5, which writes an array's buffer as raw bytes), so it
    can go on to its next job before this process takes the last block.
    ``pickle.load`` is safe here: the pipe is made before the fork and only
    the worker writes to it. An exception that the worker's ``make`` raises
    is raised here, as itself, in its job's turn. A worker that ends early,
    that ends while it holds the token, or whose pipe breaks leaves its job
    and every later one to this process, so the pairs are those of one
    process. The worker ignores SIGINT and closes this process's end of the
    pipe, so its writes and its claims fail once this process has gone; it
    is killed and joined on every path out: the end of the jobs, an error
    or the generator's close. Python 3.12 and later may warn
    (DeprecationWarning) that the process forks while it has other threads:
    OpenBLAS's pool, which numpy may start at import unless
    OPENBLAS_NUM_THREADS=1. The workers only parse, draw and format scans;
    the warning is left as it is, not filtered.
    """
    jobs = iter(jobs)
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
    if worker_jobs is not None and two_cpus and hasattr(os, "fork"):
        import fcntl

        token = _Token()
        read_fd, write_fd = os.pipe()
        # Linux only; elsewhere the pipe keeps its size and the worker waits more.
        with suppress(AttributeError, OSError):
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                _send_blocks(worker_jobs, make, token, write_fd)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        pipe, ready, k, received = open(read_fd, "rb"), deque(), 0, 0
        try:
            for job in jobs:
                numbers = token.take(pipe.fileno())  # None once the worker has gone with it
                gone = numbers is None
                if not gone and numbers[0] == k:  # unclaimed: this process makes job k
                    token.put(k + 1, numbers[1])
                    ready.append((job, make(job)))
                elif not gone:
                    # The worker finishes its jobs in claim order, so it is
                    # making job k unless it has finished more than were received.
                    next_job, finished = numbers
                    making = finished == received
                    token.put(next_job + making, finished)
                    for ahead in islice(jobs, 1 if making else 0):  # job k + 1
                        made = make(ahead)
                        ready.append((ahead if made is None else None, made))
                        k += 1
                        del ahead, made
                    try:
                        ok, block = pickle.load(pipe)
                    except (OSError, EOFError, pickle.UnpicklingError):
                        gone = True  # the worker ended between or inside blocks
                    else:
                        received += 1
                        if not ok:
                            raise block
                        ready.appendleft((job, block))
                        del block
                if gone:  # job k and the rest are made here
                    ready.appendleft((job, make(job)))
                del job
                while ready:
                    yield ready.popleft()
                if gone:
                    break
                k += 1
        finally:
            pipe.close()
            token.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # map holds no pair once it has been yielded, as a loop variable would.
    yield from map(lambda job: (job, make(job)), jobs)


class _Token:
    """The claim token of :func:`_made_blocks`: a pipe that holds one
    message, the next unclaimed job and how many jobs the worker has
    finished. A process holds the token from reading the message to
    writing the next one, while the other waits for it."""

    def __init__(self):
        self.read_fd, self.write_fd = os.pipe()
        # Both processes read it: one that finds it gone waits in poll.
        os.set_blocking(self.read_fd, False)
        self.put(0, 0)

    def take(self, hangup_fd):
        """The token's two numbers, or None once the other process has gone
        without it: ``hangup_fd`` is this process's end of the block pipe,
        which reports a hang-up or error when the other end is closed."""
        poller = select.poll()
        poller.register(self.read_fd, select.POLLIN)
        poller.register(hangup_fd, 0)
        gone = False
        while True:
            with suppress(BlockingIOError):
                return _TOKEN.unpack(os.read(self.read_fd, _TOKEN.size))
            if gone:  # and the token was not left behind
                return None
            gone = any(fd == hangup_fd for fd, _ in poller.poll())

    def put(self, next_job: int, finished: int) -> None:
        os.write(self.write_fd, _TOKEN.pack(next_job, finished))

    def claim(self, hangup_fd, finished: int) -> int:
        """In the worker: mark ``finished`` (0 or 1) more jobs finished, and
        claim the next unclaimed job."""
        token = self.take(hangup_fd)
        if token is None:
            raise BrokenPipeError("the parent of the block worker has gone")
        self.put(token[0] + 1, token[1] + finished)
        return token[0]

    def close(self) -> None:
        os.close(self.read_fd)
        os.close(self.write_fd)


def _send_blocks(jobs, make, token, write_fd) -> None:
    """The worker of :func:`_made_blocks`: for each of ``jobs`` that it
    claims, write ``(True, make(job))`` to the pipe ``write_fd`` as one
    pickle, or ``(False, error)`` for the error that ``make`` raised, and
    then stop."""
    # An interrupt reaches the parent too, which kills the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with open(write_fd, "wb") as pipe:
        mine, k = token.claim(write_fd, 0), 0
        for job in jobs:
            if k == mine:
                try:
                    item = True, make(job)
                except Exception as exc:
                    item = False, exc
                pickle.dump(item, pipe, protocol=5)
                pipe.flush()
                if not item[0]:
                    return
                mine = token.claim(write_fd, 1)
            k += 1


def read_scans(path) -> ScanTable:
    """Read a scan file into a :class:`ScanTable`: the blocks of
    :func:`read_scan_blocks`, joined by :meth:`ScanTable.concat`.

    Blank lines are skipped. A line with a field count other than 2 + 4k, a
    token that ``int`` (frame id) or ``float`` rejects, raises
    FileFormatError with ``path:line:``; a non-finite point value or a
    negative intensity raises InvalidInputError. The first bad line of the
    file decides which.
    """
    return ScanTable.concat(read_scan_blocks(path))


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

    def finite(values) -> np.ndarray:
        """Model numbers as a float array; strings and JSON's NaN and Infinity are rejected."""
        try:
            array = np.array(values, dtype=float)
        except ValueError as exc:
            raise FileFormatError(f"{path}: non-number in the model parameters") from exc
        if not np.isfinite(array).all():
            raise FileFormatError(f"{path}: non-finite number in the model parameters")
        return array

    try:
        spec = TreeSpec(
            depth=doc["spec"]["depth"],
            thresholds=tuple(finite(doc["spec"]["thresholds"]).tolist()),
            expert_ranges=tuple(map(tuple, finite(doc["spec"]["expert_ranges"]).tolist())),
        )
        gates = tuple(
            GatePosterior(
                mean=finite(g["mean"]),
                covariance=finite(g["covariance"]),
                basis=_basis_from_doc(g["basis"]),
            )
            for g in doc["gates"]
        )
        experts = tuple(
            ExpertPosterior(
                mean=finite(e["mean"]),
                covariance=finite(e["covariance"]),
                noise_precision=float(finite(e["noise_precision"])),
                basis=_basis_from_doc(e["basis"]),
            )
            for e in doc["experts"]
        )
        stats = FeatureStats(
            mean=finite(doc["standardization"]["mean"]),
            scale=finite(doc["standardization"]["scale"]),
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
