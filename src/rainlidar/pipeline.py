"""Ground-truth preprocessing and dataset assembly.

Disdrometer tracks are smoothed with a Savitzky-Golay filter, then the
first and last measurements of every experiment segment are cut to drop
the unstable transitions between rate adjustments. Scan streams are sliced
into fixed-duration windows, each reduced to one feature vector and the
mean of the interpolated ground truth over the window. A central slice of
every segment is held out as validation data.

``featurize`` (:func:`make_windows`) and ``predict`` share one windowing
path over a :class:`ScanTable`: each scan of a used window is featurized
once into a per-scan table, and every window's vector is reduced from its
slice of that table.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError
from .features import CropBox, ScanTable, WindowSample, reduce_window, scan_feature_rows

DEFAULT_SAVGOL_WINDOW = 9
DEFAULT_SAVGOL_ORDER = 2
DEFAULT_TRIM = 10
DEFAULT_VALIDATION_SPAN = 20.0

# Window edges are moved this much early, so that bounds computed as
# t0 + k * 0.1 select the same scans as the exact k / 10.
EDGE_TOLERANCE = 1e-9

SPLIT_TRAIN = "train"
SPLIT_VALIDATION = "validation"


@dataclass(frozen=True)
class RainSeries:
    """Disdrometer rainfall track: timestamps (s), rates (mm/h), segment ids."""

    timestamps: np.ndarray
    rates: np.ndarray
    segment_ids: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float).reshape(-1)
        r = np.asarray(self.rates, dtype=float).reshape(-1)
        s = np.asarray(self.segment_ids, dtype=int).reshape(-1)
        if not (t.size == r.size == s.size):
            raise InvalidInputError("series arrays must have equal length")
        if t.size and np.any(np.diff(t) <= 0):
            raise InvalidInputError("timestamps must be strictly increasing")
        if r.size and (np.any(r < 0) or not np.all(np.isfinite(r))):
            raise InvalidInputError("rates must be finite and non-negative")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "segment_ids", s)

    def __len__(self) -> int:
        return self.timestamps.size


def iter_segments(series: RainSeries):
    """Yield (segment_id, slice) for contiguous runs of equal segment id."""
    ids = series.segment_ids
    n = ids.size
    start = 0
    while start < n:
        stop = start
        while stop < n and ids[stop] == ids[start]:
            stop += 1
        yield int(ids[start]), slice(start, stop)
        start = stop


def segment_spans(series: RainSeries) -> list:
    """(segment_id, first timestamp, last timestamp) per segment."""
    return [
        (sid, float(series.timestamps[sl][0]), float(series.timestamps[sl][-1]))
        for sid, sl in iter_segments(series)
    ]


def savgol(series, window: int = DEFAULT_SAVGOL_WINDOW, order: int = DEFAULT_SAVGOL_ORDER):
    """Savitzky-Golay smoothing of a 1-d series, by numpy least squares.

    Each output value is the center of the least-squares polynomial fit of
    the surrounding window; at the edges the first/last full-window
    polynomial is evaluated at the edge offsets (no shortening), as
    ``scipy.signal.savgol_filter(mode="interp")`` does (Savitzky & Golay
    1964; Schafer 2011). Row i of the projection ``V @ pinv(V)``, with V the
    Vandermonde matrix at offsets -h..h, maps a window to its fitted value
    at offset i - h.
    """
    y = np.asarray(series, dtype=float)
    if window < 1 or window % 2 == 0:
        raise InvalidInputError("window must be a positive odd integer")
    if order >= window:
        raise InvalidInputError("polynomial order must be < window")
    if y.ndim != 1 or y.size < window:
        raise InvalidInputError("series must be 1-d and at least window long")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("series contains non-finite values")
    h = window // 2
    vander = np.vander(np.arange(-h, h + 1, dtype=float), order + 1, increasing=True)
    projection = vander @ np.linalg.pinv(vander)
    out = np.empty_like(y)
    out[h : y.size - h] = sliding_window_view(y, window) @ projection[h]
    out[:h] = projection[:h] @ y[:window]
    out[y.size - h :] = projection[h + 1 :] @ y[-window:]
    return out


def trim_segments(series: RainSeries, n_cut: int = DEFAULT_TRIM) -> RainSeries:
    """Drop the first and last ``n_cut`` measurements of every segment.

    Segments too short to survive (length <= 2 * n_cut) are dropped entirely
    with a warning.
    """
    if n_cut < 0:
        raise InvalidInputError("n_cut must be non-negative")
    keep = []
    for sid, sl in iter_segments(series):
        length = sl.stop - sl.start
        if length <= 2 * n_cut:
            _warnings.warn(
                f"segment {sid} has {length} measurements (<= {2 * n_cut}); dropped",
                stacklevel=2,
            )
            continue
        keep.append(slice(sl.start + n_cut, sl.stop - n_cut))
    if not keep:
        return RainSeries(np.empty(0), np.empty(0), np.empty(0, dtype=int))
    idx = np.concatenate([np.arange(s.start, s.stop) for s in keep])
    return RainSeries(series.timestamps[idx], series.rates[idx], series.segment_ids[idx])


def preprocess(
    series: RainSeries,
    window: int = DEFAULT_SAVGOL_WINDOW,
    order: int = DEFAULT_SAVGOL_ORDER,
    n_cut: int = DEFAULT_TRIM,
) -> RainSeries:
    """Filter rates per segment, then trim segment boundaries.

    Filtering runs per segment so smoothing never mixes rainfall regimes;
    with the default parameters the trim removes every point a whole-series
    filter would have computed differently. Overshoot below zero is clipped.
    """
    filtered = series.rates.copy()
    for sid, sl in iter_segments(series):
        seg = series.rates[sl]
        if seg.size >= window:
            filtered[sl] = savgol(seg, window=window, order=order)
        else:
            _warnings.warn(
                f"segment {sid} shorter than filter window ({seg.size} < {window}); "
                "left unfiltered",
                stacklevel=2,
            )
    filtered = np.clip(filtered, 0.0, None)
    smoothed = RainSeries(series.timestamps, filtered, series.segment_ids)
    return trim_segments(smoothed, n_cut=n_cut)


def target_for_window(series: RainSeries, window) -> float | None:
    """Mean of the piecewise-linear interpolant over [start, end].

    Computed in closed form per linear piece. Returns None when the window
    is not fully covered by a single segment (no-target signal).
    """
    start, end = float(window[0]), float(window[1])
    if not start < end:
        raise InvalidInputError("window start must precede end")
    for _, sl in iter_segments(series):
        t = series.timestamps[sl]
        if t.size and t[0] <= start and end <= t[-1]:
            r = series.rates[sl]
            inside = t[(t > start) & (t < end)]
            xs = np.concatenate(([start], inside, [end]))
            ys = np.interp(xs, t, r)
            return float(np.trapezoid(ys, xs) / (end - start))
    return None


@dataclass
class WindowingResult:
    """Windowing output plus skip counters for reporting."""

    samples: list
    n_windows: int = 0
    n_skipped_no_target: int = 0
    n_skipped_few_scans: int = 0


def make_windows(
    scans,
    duration: float,
    box: CropBox,
    series: RainSeries,
    stride: float | None = None,
    session_id: str = "",
    allow_overlap: bool = False,
) -> WindowingResult:
    """Slice a time-ordered scan stream into feature/target window samples.

    ``scans`` is a :class:`ScanTable` or a sequence of :class:`Scan`.
    Windows are [start, start + duration) with start = t0 + k * stride
    (default: stride = duration, i.e. non-overlapping). Windows without a
    ground-truth target or with fewer than two scans are skipped and counted.
    Feature vectors are reduced from a per-scan feature table shared by the
    windows (see :func:`_slide_windows`), so overlapping windows featurize
    each scan once and scans of skipped windows are never featurized.
    """
    if duration <= 0:
        raise InvalidInputError("duration must be positive")
    stride = duration if stride is None else float(stride)
    if stride <= 0:
        raise InvalidInputError("stride must be positive")
    if stride < duration and not allow_overlap:
        raise InvalidInputError(
            "stride < duration produces overlapping windows; pass allow_overlap=True"
        )
    scans = ScanTable.from_scans(scans)
    if not scans:
        return WindowingResult(samples=[])
    gaps = np.diff(scans.timestamps)
    slack = float(np.median(gaps)) if gaps.size else 0.0
    result, windows = _slide_windows(
        scans, box, duration, stride, limit=float(scans.timestamps[-1]) + slack, series=series
    )
    result.samples = [
        WindowSample(features=vector, target=target, window=(start, end), provenance=session_id)
        for start, end, target, vector in windows
    ]
    return result


def _slide_windows(
    scans,
    box: CropBox,
    duration: float,
    period: float,
    limit: float,
    series: RainSeries | None = None,
    end_anchored: bool = False,
):
    """The one windowing path, shared by :func:`make_windows` and ``rainlidar predict``.

    ``scans`` is a non-empty :class:`ScanTable` or sequence of
    :class:`Scan`. With t0 the first scan time, window k starts at
    t0 + k * period and lasts ``duration``; ``end_anchored`` windows
    instead end at t0 + duration + k * period. Windows end no later
    than ``limit``; a window holds the scans with start <= timestamp < end,
    both edges moved EDGE_TOLERANCE early. Windows with fewer than two scans
    are skipped, and with ``series`` so are windows without a target.

    Returns ``(counts, windows)``: a :class:`WindowingResult` with the window
    and skip counts, and a generator of ``(start, end, target, vector)`` for
    the kept windows in time order (target None without ``series``). When
    the first vector is asked for, the scans of the kept windows, and no
    others, are featurized once each into a per-scan table by one
    :func:`scan_feature_rows` batch; every vector is reduced from its
    window's slice of that table.
    """
    scans = ScanTable.from_scans(scans)
    times = scans.timestamps
    if np.any(np.diff(times) < 0):
        raise InvalidInputError("scans must be time-ordered")
    t0 = float(times[0])
    last = limit + 1e-9
    # One index past the last window that can fit; the mask below trims it.
    k = np.arange(max(int((last - t0 - duration) // period) + 2, 0))
    if end_anchored:
        ends = (t0 + duration) + k * period
        starts = ends - duration
    else:
        starts = t0 + k * period
        ends = starts + duration
    inside = ends <= last
    starts, ends = starts[inside], ends[inside]
    lo = np.searchsorted(times, starts - EDGE_TOLERANCE)
    hi = np.searchsorted(times, ends - EDGE_TOLERANCE)
    counts = WindowingResult(samples=[], n_windows=len(starts))
    kept = []
    for start, end, i0, i1 in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        if i1 - i0 < 2:
            counts.n_skipped_few_scans += 1
            continue
        target = None if series is None else target_for_window(series, (start, end))
        if series is not None and target is None:
            counts.n_skipped_no_target += 1
            continue
        kept.append((start, end, target, i0, i1))

    def vectors():
        used = np.zeros(len(scans), dtype=bool)
        for _, _, _, i0, i1 in kept:
            used[i0:i1] = True
        rows = scan_feature_rows(scans, box, np.flatnonzero(used))
        for start, end, target, i0, i1 in kept:
            yield start, end, target, reduce_window(rows[i0:i1])

    return counts, vectors()


@dataclass
class Dataset:
    """Window samples with split tags and the assembly configuration."""

    samples: list
    split_tags: list
    config: dict = field(default_factory=dict)
    segment_spans: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.samples) != len(self.split_tags):
            raise InvalidInputError("one split tag per sample required")
        bad = {t for t in self.split_tags} - {SPLIT_TRAIN, SPLIT_VALIDATION}
        if bad:
            raise InvalidInputError(f"unknown split tags: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, tag: str) -> list:
        return [s for s, t in zip(self.samples, self.split_tags) if t == tag]


def assemble_dataset(windowing: WindowingResult, series: RainSeries, config: dict) -> Dataset:
    """Wrap windowing output as an all-train dataset (split applied separately)."""
    return Dataset(
        samples=list(windowing.samples),
        split_tags=[SPLIT_TRAIN] * len(windowing.samples),
        config=dict(config),
        segment_spans=segment_spans(series),
    )


def split_validation(dataset: Dataset, per_segment_val_span: float = DEFAULT_VALIDATION_SPAN) -> Dataset:
    """Tag windows intersecting the central span of each segment as validation.

    Segments shorter than three times the span keep all their samples as
    training data (with a warning).
    """
    if per_segment_val_span <= 0:
        raise InvalidInputError("validation span must be positive")
    tags = [SPLIT_TRAIN] * len(dataset.samples)
    for sid, lo, hi in dataset.segment_spans:
        if hi - lo < 3 * per_segment_val_span:
            _warnings.warn(
                f"segment {sid} spans {hi - lo:.1f}s (< 3x validation span); "
                "all samples kept as train",
                stacklevel=2,
            )
            continue
        mid = 0.5 * (lo + hi)
        v_lo = mid - 0.5 * per_segment_val_span
        v_hi = mid + 0.5 * per_segment_val_span
        for i, sample in enumerate(dataset.samples):
            w_start, w_end = sample.window
            if max(w_start, v_lo) < min(w_end, v_hi):
                tags[i] = SPLIT_VALIDATION
    return Dataset(
        samples=list(dataset.samples),
        split_tags=tags,
        config=dict(dataset.config),
        segment_spans=list(dataset.segment_spans),
    )


def measurement_volatility(series: RainSeries) -> float:
    """Mean absolute change between consecutive measurements within segments.

    Reported as the noise floor for instantaneous rate modeling given the
    instrument's temporal resolution.
    """
    diffs = []
    for _, sl in iter_segments(series):
        r = series.rates[sl]
        if r.size >= 2:
            diffs.append(np.abs(np.diff(r)))
    if not diffs:
        raise InvalidInputError("volatility needs at least 2 measurements in a segment")
    return float(np.concatenate(diffs).mean())
