"""Point cloud statistics: crop filtering, MST clustering measure, and
windowed 8-dimensional feature vectors.

A stream of scans is held as a :class:`ScanTable`: flat point arrays cut
into scans by offsets, read as a sequence of :class:`Scan` views. A scan is
reduced to four per-scan statistics (point count, mean intensity,
mean radial distance, normalized MST length), one row of a per-scan table
with NaN where a statistic is undefined; a window of scans is a slice of
that table, reduced to the mean and population standard deviation of each
column, giving the feature vector

    [count_mean, count_std, intensity_mean, intensity_std,
     radial_mean, radial_std, mst_mean, mst_std].

The normalized MST length is the total MST edge length divided by the mean
MST length of the same number of uniformly distributed points in the same
crop box: about 1 for uniform scatter, below 1 for clustered points, above 1
for points spread out more evenly than uniform (e.g. regular returns pushed
towards the box boundary).
"""

from __future__ import annotations

import operator
import warnings as _warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

FEATURE_NAMES = (
    "count_mean",
    "count_std",
    "intensity_mean",
    "intensity_std",
    "radial_mean",
    "radial_std",
    "mst_mean",
    "mst_std",
)

# Seed stream tag for the uniform MST reference draws.
_REFERENCE_STREAM = 0x4D5354
DEFAULT_REFERENCE_REPS = 16

# MST distance formula switch and the entry budget of one lockstep chunk
# (2 MB of float64 distances); see _mst_lengths.
_GRAM_MIN_POINTS = 64
_CHUNK_ELEMENTS = 1 << 18

# The point budget of one scan_feature_rows batch. A batch's copies and
# MST buffers take about 5 MB at 2^15 points; 2^16 fills about 5% faster
# (denser lockstep chunks) but holds twice that.
_FILL_BATCH_POINTS = 1 << 15

_reference_cache: dict[tuple[int, int], float] = {}


@dataclass(frozen=True)
class Scan:
    """One lidar revolution reduced to noise points.

    ``xyz`` is (n, 3) in meters relative to the sensor origin; ``intensity``
    is (n,) non-negative. Scans may be empty.
    """

    xyz: np.ndarray
    intensity: np.ndarray
    timestamp: float = 0.0
    frame_id: int = 0

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        intensity = np.asarray(self.intensity, dtype=float).reshape(-1)
        _check_points(xyz, intensity)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", intensity)

    @property
    def n_points(self) -> int:
        return self.xyz.shape[0]


def _check_points(xyz: np.ndarray, intensity: np.ndarray) -> None:
    """Raise InvalidInputError unless (n, 3) ``xyz`` and (n,) ``intensity``
    hold finite coordinates and finite, non-negative intensities."""
    if xyz.shape[0] != intensity.shape[0]:
        raise InvalidInputError("xyz and intensity lengths differ")
    if xyz.size and not np.isfinite(xyz).all():
        raise InvalidInputError("point coordinates must be finite")
    if intensity.size and ((intensity < 0).any() or not np.isfinite(intensity).all()):
        raise InvalidInputError("intensities must be finite and non-negative")


def _id_array(frame_ids) -> np.ndarray:
    """Frame ids as a 1-d int array (object dtype for ids beyond int64)."""
    ids = np.asarray(frame_ids).reshape(-1)
    return ids if ids.size else np.empty(0, dtype=np.int64)


class ScanTable(Sequence):
    """A stream of scans in columnar form, read as a sequence of :class:`Scan`.

    Scan ``i`` has ``frame_ids[i]``, ``timestamps[i]`` and the points
    ``offsets[i]:offsets[i + 1]`` of the flat (N, 3) ``xyz`` and (N,)
    ``intensity`` arrays. The points are validated once, over the flat
    arrays, as :class:`Scan` validates its own. An int index gives a
    :class:`Scan` view of one scan and a slice a table view of a run of
    scans; neither copies points. A slice with a step, like
    :meth:`take`, gathers a copy.
    """

    __slots__ = ("frame_ids", "timestamps", "offsets", "xyz", "intensity")

    def __init__(self, frame_ids, timestamps, offsets, xyz, intensity):
        frame_ids = _id_array(frame_ids)
        timestamps = np.asarray(timestamps, dtype=float).reshape(-1)
        offsets = np.asarray(offsets, dtype=np.intp).reshape(-1)
        xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
        intensity = np.asarray(intensity, dtype=float).reshape(-1)
        if not offsets.size == timestamps.size + 1 == frame_ids.size + 1:
            raise InvalidInputError("one frame id, timestamp and offset per scan required")
        if offsets[0] != 0 or offsets[-1] != xyz.shape[0] or np.any(np.diff(offsets) < 0):
            raise InvalidInputError("offsets must rise from 0 to the point count")
        _check_points(xyz, intensity)
        self._set(frame_ids, timestamps, offsets, xyz, intensity)

    def _set(self, frame_ids, timestamps, offsets, xyz, intensity):
        self.frame_ids, self.timestamps, self.offsets = frame_ids, timestamps, offsets
        self.xyz, self.intensity = xyz, intensity

    @classmethod
    def _trusted(cls, *columns) -> ScanTable:
        """A table of columns already in shape and validated."""
        table = cls.__new__(cls)
        table._set(*columns)
        return table

    @classmethod
    def from_scans(cls, scans) -> ScanTable:
        """The table of a sequence of :class:`Scan` (a table is returned as it is)."""
        if isinstance(scans, ScanTable):
            return scans
        scans = list(scans)
        offsets = np.zeros(len(scans) + 1, dtype=np.intp)
        np.cumsum(np.array([s.n_points for s in scans], dtype=np.intp), out=offsets[1:])
        return cls(
            [int(s.frame_id) for s in scans],
            [s.timestamp for s in scans],
            offsets,
            np.concatenate([s.xyz for s in scans]) if scans else np.empty((0, 3)),
            np.concatenate([s.intensity for s in scans]) if scans else np.empty(0),
        )

    @classmethod
    def concat(cls, tables) -> ScanTable:
        """One table of the scans of a sequence of tables, in order (points copied)."""
        tables = list(tables) or [cls.from_scans([])]
        offsets = np.zeros(sum(len(t) for t in tables) + 1, dtype=np.intp)
        np.cumsum(np.concatenate([np.diff(t.offsets) for t in tables]), out=offsets[1:])
        return cls._trusted(
            _id_array(np.concatenate([t.frame_ids for t in tables])),
            np.concatenate([t.timestamps for t in tables]),
            offsets,
            np.concatenate([t.xyz for t in tables]),
            np.concatenate([t.intensity for t in tables]),
        )

    def __len__(self) -> int:
        return self.timestamps.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                return self.take(range(start, stop, step))
            stop = max(start, stop)
            a, b = self.offsets[start], self.offsets[stop]
            return ScanTable._trusted(
                self.frame_ids[start:stop],
                self.timestamps[start:stop],
                self.offsets[start : stop + 1] - a,
                self.xyz[a:b],
                self.intensity[a:b],
            )
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("scan index out of range")
        a, b = self.offsets[i], self.offsets[i + 1]
        return Scan(
            self.xyz[a:b], self.intensity[a:b], float(self.timestamps[i]), int(self.frame_ids[i])
        )

    def take(self, indices) -> ScanTable:
        """A new table of the scans at ``indices``, in that order (points copied)."""
        rows = np.arange(len(self))[np.asarray(indices, dtype=np.intp)]
        starts = self.offsets[rows]
        counts = self.offsets[rows + 1] - starts
        offsets = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        points = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts)
        return ScanTable._trusted(
            self.frame_ids[rows],
            self.timestamps[rows],
            offsets,
            self.xyz[points],
            self.intensity[points],
        )


@dataclass(frozen=True)
class CropBox:
    """Axis-aligned cube centered on the sensor; ``half_extent`` per axis."""

    half_extent: float

    def __post_init__(self):
        if not (np.isfinite(self.half_extent) and self.half_extent > 0):
            raise InvalidInputError("crop box half extent must be finite and positive")


@dataclass(frozen=True)
class ScanFeatures:
    """Per-scan statistics; None marks a feature undefined for the scan."""

    n_points: int
    mean_intensity: float | None
    mean_radial: float | None
    norm_mst: float | None


@dataclass(frozen=True)
class WindowSample:
    """One training sample: 8 window statistics and the mean rainfall target."""

    features: np.ndarray
    target: float
    window: tuple[float, float]
    provenance: str = ""

    def __post_init__(self):
        vec = np.asarray(self.features, dtype=float).reshape(-1)
        if vec.size != len(FEATURE_NAMES):
            raise InvalidInputError(f"feature vector must have length {len(FEATURE_NAMES)}")
        if not np.all(np.isfinite(vec)):
            raise InvalidInputError("feature vector must be finite")
        if np.any(vec[1::2] < 0):
            raise InvalidInputError("standard deviation features must be non-negative")
        if not self.target >= 0:
            raise InvalidInputError("target rainfall rate must be non-negative")
        start, end = self.window
        if not start < end:
            raise InvalidInputError("window start must precede end")
        object.__setattr__(self, "features", vec)
        object.__setattr__(self, "window", (float(start), float(end)))


def crop(scan: Scan, box: CropBox) -> Scan:
    """Keep points with |x|, |y|, |z| <= half_extent; order preserved.

    A scan with no point outside the box is returned as it is.
    """
    if scan.n_points == 0:
        return scan
    keep = (np.abs(scan.xyz) <= box.half_extent).all(axis=1)
    if keep.all():
        return scan
    return Scan(scan.xyz[keep], scan.intensity[keep], scan.timestamp, scan.frame_id)


def mst_length(points) -> float:
    """Total Euclidean edge length of a minimum spanning tree.

    Prim's algorithm over the dense pairwise distances: O(n^2) time and
    memory, run by the batch kernel :func:`_mst_lengths` on this one set.
    Edge weights are accumulated in sorted order, so the value is invariant
    under point permutations down to the last bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InvalidInputError("MST needs at least 2 points")
    return float(_mst_lengths([pts])[0])


def _mst_lengths(point_sets) -> np.ndarray:
    """MST lengths of many (n_i, d) point sets, each n_i >= 2, in one batch.

    Each set's squared pairwise distances use one of two formulas: sets of
    _GRAM_MIN_POINTS or more points the BLAS Gram identity, smaller sets the
    differences, squared and added coordinate by coordinate (the same bits
    as ``((a - b)**2).sum(-1)``); the two differ only in the last float bits.
    The sets are sorted by size and cut into chunks whose (B, m, m) stack of
    distance matrices, padded to the chunk's largest set m, holds at most
    _CHUNK_ELEMENTS entries, so memory stays bounded whatever the batch.

    Prim's steps run in lockstep over a chunk. Selection uses squared
    distances only through comparisons (sqrt is monotone), the padded
    columns are +inf so they are never chosen before a real point, and
    ``argmin`` takes the first index on ties, so each set gets the edges
    that a Prim loop over that set alone would pick. Each set's length is
    the sum of the roots of its n_i - 1 edges in sorted order.
    """
    sizes = [p.shape[0] for p in point_sets]
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    lengths = np.empty(len(sizes))
    start = 0
    while start < len(order):
        stop = start + 1
        while stop < len(order) and (stop + 1 - start) * sizes[order[stop]] ** 2 <= _CHUNK_ELEMENTS:
            stop += 1
        chunk = order[start:stop]
        lengths[chunk] = _prim_chunk([point_sets[i] for i in chunk])
        start = stop
    return lengths


def _prim_chunk(point_sets) -> list:
    """:func:`_mst_lengths` of sets sorted by increasing size, in lockstep."""
    n = np.array([p.shape[0] for p in point_sets])
    b_count, m = n.size, int(n[-1])
    pts = np.zeros((b_count, m, point_sets[0].shape[1]))
    for b, p in enumerate(point_sets):
        pts[b, : n[b]] = p
    # Sets are sorted, so the ones below the Gram switch come first.
    small = int(np.searchsorted(n, _GRAM_MIN_POINTS))
    dist = np.empty((b_count, m, m))
    near = dist[:small]
    np.subtract(pts[:small, :, None, 0], pts[:small, None, :, 0], out=near)
    near *= near
    # The other coordinates' squares go through a buffer of a few sets at a
    # time, an eighth of the chunk or less.
    step = max(small // 8, 1)
    diff = np.empty((min(step, small), m, m))
    for a in range(0, small, step):
        b = min(a + step, small)
        for c in range(1, pts.shape[2]):
            np.subtract(pts[a:b, :, None, c], pts[a:b, None, :, c], out=diff[: b - a])
            diff[: b - a] *= diff[: b - a]
            near[a:b] += diff[: b - a]
    del diff
    for b in range(small, b_count):
        p = point_sets[b]
        sq_norms = (p**2).sum(axis=1)
        gram = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (p @ p.T)
        np.clip(gram, 0.0, None, out=gram)
        dist[b] = np.inf
        dist[b, : n[b], : n[b]] = gram
    np.copyto(dist, np.inf, where=(np.arange(m) >= n[:, None])[:, None, :])
    # best_sq is updated in place; done is 0 for unvisited points and inf
    # for visited ones, so the maximum keeps visited entries at inf.
    rows = np.arange(b_count)
    done = np.zeros((b_count, m))
    done[:, 0] = np.inf
    best_sq = dist[:, 0].copy()
    best_sq[:, 0] = np.inf
    edges = np.empty((b_count, m - 1))
    for i in range(m - 1):
        j = best_sq.argmin(axis=1)
        edges[:, i] = best_sq[rows, j]
        done[rows, j] = np.inf
        np.minimum(best_sq, dist[rows, j], out=best_sq)
        np.maximum(best_sq, done, out=best_sq)
    # A set's steps after its own n - 1 edges find only inf, which the sort
    # moves behind its real edges.
    np.sqrt(edges, out=edges)
    edges.sort(axis=1)
    return [edges[b, :k].sum() for b, k in enumerate((n - 1).tolist())]


def uniform_mst_reference(n: int, box: CropBox, reps: int = DEFAULT_REFERENCE_REPS) -> float:
    """Mean MST length of ``n`` uniform points in the box (Monte-Carlo).

    MST length scales linearly with the box side, so the unit-cube value is
    computed once per (n, reps) from a fixed seed stream, cached, and
    rescaled. Repeated calls are deterministic regardless of call order.
    """
    n = int(n)
    if n < 2:
        raise InvalidInputError("reference needs at least 2 points")
    if reps < 1:
        raise InvalidInputError("reps must be positive")
    key = (n, int(reps))
    unit = _reference_cache.get(key)
    if unit is None:
        # The 0 is part of the stream key: the pinned reference values depend on it.
        rng = np.random.default_rng([_REFERENCE_STREAM, 0, n, int(reps)])
        unit = float(np.mean(_mst_lengths(rng.random((int(reps), n, 3)))))
        _reference_cache[key] = unit
    return unit * 2.0 * box.half_extent


def normalized_mst(points, box: CropBox, reps: int = DEFAULT_REFERENCE_REPS) -> float:
    """MST length divided by the uniform reference for the same point count."""
    pts = np.asarray(points, dtype=float)
    return mst_length(pts) / uniform_mst_reference(pts.shape[0], box, reps=reps)


def scan_features(scan: Scan, box: CropBox) -> ScanFeatures:
    """Crop, then compute count, mean intensity, mean radial distance, MST ratio.

    Features that need points are None on empty scans; the MST ratio needs
    at least two points.
    """
    cropped = crop(scan, box)
    n = cropped.n_points
    if n == 0:
        return ScanFeatures(0, None, None, None)
    return ScanFeatures(
        n,
        float(cropped.intensity.mean()),
        float(np.linalg.norm(cropped.xyz, axis=1).mean()),
        normalized_mst(cropped.xyz, box) if n >= 2 else None,
    )


def scan_feature_rows(scans, box: CropBox, indices=None, out=None) -> np.ndarray:
    """Per-scan feature table: count, mean intensity, mean radial, MST ratio.

    Row ``i`` holds the :func:`scan_features` of scan ``i`` of ``scans`` (a
    :class:`ScanTable`, or a sequence of :class:`Scan` taken through
    :meth:`ScanTable.from_scans`), with NaN where a feature is undefined,
    bit for bit. Only the rows in ``indices`` (default: all) are computed;
    the other rows of ``out`` (default: a new all-NaN table) are left as
    they are.

    The rows are filled in batches of consecutive rows of about
    _FILL_BATCH_POINTS points, so memory stays bounded whatever the
    number of scans. A batch's points are cropped by one mask over the
    flat arrays, which keeps their order, so each scan's cropped points are
    one slice of the cropped flat arrays; each mean is a ``.mean()`` of such
    a slice, the same bits as over the scan's own crop. The MSTs of a
    batch's scans run in one :func:`_mst_lengths` call, exact for each set
    whatever else is in the call.
    """
    table = ScanTable.from_scans(scans)
    if out is None:
        out = np.full((len(table), 4), np.nan)
    rows = np.arange(len(table)) if indices is None else np.asarray(indices, dtype=np.intp).reshape(-1)
    # A row goes to batch b when the points of the rows ahead of it number
    # from b to b + 1 times the budget.
    counts = np.diff(table.offsets)[rows]
    ahead = np.cumsum(counts) - counts
    for batch in np.split(rows, np.flatnonzero(np.diff(ahead // _FILL_BATCH_POINTS)) + 1):
        _fill_rows(table.take(batch), box, batch, out)
    return out


def _fill_rows(table: ScanTable, box: CropBox, rows: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out[rows]`` with the feature rows of the scans of ``table``."""
    keep = (np.abs(table.xyz) <= box.half_extent).all(axis=1)
    # kept[i]:kept[i + 1] is scan i's slice of the cropped flat arrays.
    kept = np.zeros(keep.size + 1, dtype=np.intp)
    np.cumsum(keep, out=kept[1:])
    kept = kept[table.offsets]
    xyz, intensity = table.xyz[keep], table.intensity[keep]
    del table  # the batch's copy of its points is not held through the MSTs
    radial = np.linalg.norm(xyz, axis=1)
    out[rows] = np.nan
    out[rows, 0] = np.diff(kept)
    mst_rows, mst_points = [], []
    for i, a, b in zip(rows.tolist(), kept[:-1].tolist(), kept[1:].tolist()):
        if b > a:
            out[i, 1] = intensity[a:b].mean()
            out[i, 2] = radial[a:b].mean()
        if b - a >= 2:
            mst_rows.append(i)
            mst_points.append(xyz[a:b])
    if mst_rows:
        reference = [uniform_mst_reference(p.shape[0], box) for p in mst_points]
        out[mst_rows, 3] = _mst_lengths(mst_points) / np.array(reference)


def reduce_window(rows) -> np.ndarray:
    """Mean and population std of each column of a window's per-scan rows.

    NaN entries (features undefined for a scan) are excluded from that
    feature's statistics; if a feature is undefined in every scan its mean
    and std are substituted with 0 and a warning is emitted.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] < 2:
        raise InvalidInputError("window statistics need at least 2 scans")
    out = np.empty(8)
    for c, name in enumerate(("count", "intensity", "radial", "mst")):
        column = rows[:, c]
        present = column[~np.isnan(column)]
        if present.size == 0:
            _warnings.warn(
                f"feature {name!r} undefined in all {rows.shape[0]} scans of a window; "
                "substituting 0",
                stacklevel=2,
            )
            mean = std = 0.0
        else:
            mean = float(present.mean())
            std = float(present.std())
        out[2 * c] = mean
        out[2 * c + 1] = std
    return out


def window_features(scans, box: CropBox) -> np.ndarray:
    """Mean and population std of each per-scan feature across a window.

    The per-scan table of :func:`scan_feature_rows` reduced by
    :func:`reduce_window`.
    """
    return reduce_window(scan_feature_rows(scans, box))


@dataclass(frozen=True)
class FeatureStats:
    """Per-dimension standardization statistics (z-score transform)."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        scale = np.asarray(self.scale, dtype=float).reshape(-1)
        if mean.shape != scale.shape:
            raise InvalidInputError("mean and scale lengths differ")
        if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
            raise InvalidInputError("scale entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)


def standardize_fit(samples) -> FeatureStats:
    """Fit per-dimension z-score statistics; zero-variance dimensions get scale 1."""
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidInputError("standardization needs at least 2 samples")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    flat = scale <= 0
    if np.any(flat):
        names = [FEATURE_NAMES[i] if i < len(FEATURE_NAMES) else str(i) for i in np.flatnonzero(flat)]
        _warnings.warn(f"zero-variance dimensions {names}; scale set to 1", stacklevel=2)
        scale = np.where(flat, 1.0, scale)
    return FeatureStats(mean=mean, scale=scale)


def standardize_apply(stats: FeatureStats, values) -> np.ndarray:
    """Apply the z-score transform to a vector or sample matrix."""
    return (np.asarray(values, dtype=float) - stats.mean) / stats.scale


def standardize_invert(stats: FeatureStats, values) -> np.ndarray:
    """Invert :func:`standardize_apply`."""
    return np.asarray(values, dtype=float) * stats.scale + stats.mean
