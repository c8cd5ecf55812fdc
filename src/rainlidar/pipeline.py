"""Ground-truth preprocessing and dataset assembly.

Disdrometer tracks are smoothed with a Savitzky-Golay filter, then the
first and last measurements of every experiment segment are cut to drop
the unstable transitions between rate adjustments. Scan streams are sliced
into fixed-duration windows, each reduced to one feature vector and the
mean of the interpolated ground truth over the window. A central slice of
every segment is held out as validation data.

``featurize`` (:func:`make_windows`) and ``predict``
(:class:`StreamingPredictor`) share one windowing path, a
:class:`WindowStream` that takes scans a block at a time: each scan of a
used window is featurized once into per-scan rows, every window's vector is
reduced from its scans' rows, and the scans no open window can hold are
let go, so memory does not grow with the recording.
"""

from __future__ import annotations

import math
import warnings as _warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError
from .features import (
    CropBox,
    ScanTable,
    WindowSample,
    reduce_window,
    scan_feature_rows,
)
from .moe import MoEModel, infer_batch

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


def _check_savgol(window: int, order: int) -> None:
    if window < 1 or window % 2 == 0:
        raise InvalidInputError("window must be a positive odd integer")
    if not 0 <= order < window:
        raise InvalidInputError(f"polynomial order must be in [0, window), got {order}")


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
    _check_savgol(window, order)
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
    The filter options are checked even when no segment is long enough to use them.
    """
    _check_savgol(window, order)
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
    """Windowing output plus scan, window and skip counters for reporting."""

    samples: list
    n_windows: int = 0
    n_skipped_no_target: int = 0
    n_skipped_few_scans: int = 0
    n_scans: int = 0


class WindowStream:
    """The one windowing path, shared by :func:`make_windows` and
    :class:`StreamingPredictor` (``rainlidar featurize`` and ``predict``).

    Scans arrive in time order through :meth:`push`, a :class:`ScanTable`
    (or a sequence of :class:`Scan`) at a time, and :meth:`close` ends the
    stream. With t0 the first scan time, window k starts at
    t0 + k * period and lasts ``duration``; ``end_anchored`` windows
    instead end at t0 + duration + k * period. A window holds the scans
    with start <= timestamp < end, both edges moved EDGE_TOLERANCE early.
    Windows end no later than the last scan time, plus, unless
    ``end_anchored``, the median gap between scans, so the windows that may
    end after the last scan are decided at close. Windows with fewer than
    two scans are skipped, and with ``series`` so are windows without a
    target; ``counts`` counts scans, windows and skips.

    push and close return ``(start, end, target, vector)`` for the kept
    windows that they decide, in time order (target None without
    ``series``). A window is decided, featurized and returned by the first
    push whose last scan is at or past its end (less EDGE_TOLERANCE), or
    else by close. The scans of kept windows, and no others, are
    featurized once each, by one :func:`scan_feature_rows` call per push,
    which bounds its memory by taking the scans a batch at a time.

    The stream holds the scans that an undecided window can hold, their
    per-scan rows and (unless ``end_anchored``) every timestamp, at 8
    bytes a scan. ``peak_scans`` and ``peak_points`` are the most scans and
    points held at once; ``t0`` and ``last`` are the first and last scan
    times pushed, None before the first.

    A scan earlier than the one before it, or with a non-finite timestamp,
    is recorded, after which push ignores its scans and close raises
    InvalidInputError: a reader can go on to the end of its file, whose
    malformed lines take precedence.
    """

    def __init__(
        self,
        box: CropBox,
        duration: float,
        period: float,
        series: RainSeries | None = None,
        end_anchored: bool = False,
    ):
        if not (0 < duration < math.inf and 0 < period < math.inf):
            raise InvalidInputError("window duration and period must be finite and positive")
        self.box, self.duration, self.period = box, float(duration), float(period)
        self.series, self.end_anchored = series, end_anchored
        self.counts = WindowingResult(samples=[])
        self.peak_scans = self.peak_points = 0
        self.t0 = self.last = None
        self._times = []  # every timestamp, for the median gap (not end_anchored)
        self._open = ScanTable.from_scans([])  # the scans an undecided window can hold
        # Rows of the first open scans, to the end of the last kept window; a
        # row that no kept window holds stays NaN.
        self._rows = np.empty((0, 4))
        self._k = 0  # the first undecided window
        self._unordered = False

    def push(self, scans) -> list:
        """Add the next scans; return the kept windows that they decide."""
        table = ScanTable.from_scans(scans)
        if self._unordered or not table:
            return []
        times = table.timestamps
        # Written so that a NaN fails it: every comparison with NaN is False.
        ordered = np.isfinite(times).all() and (np.diff(times) >= 0).all()
        if not (ordered and (self.last is None or times[0] >= self.last)):
            self._unordered = True
            return []
        if self.t0 is None:
            self.t0 = float(times[0])
        self.last = float(times[-1])
        self.counts.n_scans += len(table)
        if not self.end_anchored:
            self._times.append(times)
        self._open = ScanTable.concat([self._open, table])
        self.peak_scans = max(self.peak_scans, len(self._open))
        self.peak_points = max(self.peak_points, int(self._open.offsets[-1]))
        return self._decide(self.last, final=False)

    def close(self) -> list:
        """End the stream: decide the last windows and return the kept ones."""
        if self._unordered:
            raise InvalidInputError("scans must be time-ordered, with finite timestamps")
        if self.t0 is None:
            return []
        limit = self.last
        if not self.end_anchored:
            gaps = np.diff(np.concatenate(self._times))
            limit += float(np.median(gaps)) if gaps.size else 0.0
        return self._decide(limit, final=True)

    def _bounds(self, k: int):
        if self.end_anchored:
            end = (self.t0 + self.duration) + k * self.period
            return end - self.duration, end
        start = self.t0 + k * self.period
        return start, start + self.duration

    def _first_window_past(self, t: float, last: float, n_windows: int) -> int:
        """The first window after the first undecided one that can hold a
        scan at time ``t``, or that ends after ``last``; n_windows if none
        before it. A binary search, as window ends rise with the index."""
        lo, hi = self._k + 1, n_windows
        while lo < hi:
            mid = (lo + hi) // 2
            end = self._bounds(mid)[1]
            if end - EDGE_TOLERANCE > t or not end <= last:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _decide(self, limit: float, final: bool) -> list:
        """Decide the windows that end by ``limit`` and hold no scan to come;
        return the kept ones with their vectors.

        Before close, ``limit`` is the last scan time, at most the final
        limit, so a window decided early is one that the final limit keeps.
        The kept windows' scans that have no row yet are filled by one
        :func:`scan_feature_rows` call, before the scans that no undecided
        window holds are let go.
        """
        kept, new = [], []
        filled = self._rows.shape[0]
        last = limit + 1e-9
        # One index past the last window that can fit; the end test trims it.
        n_windows = max(int((last - self.t0 - self.duration) // self.period) + 2, 0)
        times = self._open.timestamps
        while self._k < n_windows:
            start, end = self._bounds(self._k)
            if not end <= last:
                break
            lo, hi = np.searchsorted(times, [start - EDGE_TOLERANCE, end - EDGE_TOLERANCE]).tolist()
            if hi == times.size and not final:
                break  # the next scans may fall in the window
            if hi - lo < 2:
                # So does every window up to the first that can hold scan hi.
                after = float(times[hi]) if hi < times.size else math.inf
                skipped = self._first_window_past(after, last, n_windows) - self._k
                self._k += skipped
                self.counts.n_windows += skipped
                self.counts.n_skipped_few_scans += skipped
                continue
            self._k += 1
            self.counts.n_windows += 1
            target = None if self.series is None else target_for_window(self.series, (start, end))
            if self.series is not None and target is None:
                self.counts.n_skipped_no_target += 1
                continue
            kept.append((start, end, target, lo, hi))
            # Windows come in time order, so the scans before ``filled``
            # that this one holds are an earlier kept window's, with rows.
            new += range(max(lo, filled), hi)
            filled = max(filled, hi)
        if new:
            blank = np.full((filled - self._rows.shape[0], 4), np.nan)
            self._rows = np.concatenate([self._rows, blank])
            scan_feature_rows(self._open, self.box, new, self._rows)
        out = [
            (start, end, target, reduce_window(self._rows[lo:hi]))
            for start, end, target, lo, hi in kept
        ]
        # No undecided window holds a scan before the next one's start.
        drop = int(np.searchsorted(times, self._bounds(self._k)[0] - EDGE_TOLERANCE))
        self._open, self._rows = self._open[drop:], self._rows[drop:]
        return out


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

    ``scans`` is a :class:`ScanTable`, a sequence of :class:`Scan`, or an
    iterable of ScanTable blocks that follow one another in time, such as
    :func:`rainlidar.io.read_scan_blocks` yields. Windows are
    [start, start + duration) with start = t0 + k * stride (default:
    stride = duration, i.e. non-overlapping). Windows without a
    ground-truth target or with fewer than two scans are skipped and
    counted. The blocks are pushed through one :class:`WindowStream`, so
    overlapping windows featurize each scan once and scans of skipped
    windows are never featurized.
    """
    stride = duration if stride is None else stride
    stream = WindowStream(box, duration, stride, series=series)
    if stride < duration and not allow_overlap:
        raise InvalidInputError(
            "stride < duration produces overlapping windows; pass allow_overlap=True"
        )
    blocks = [scans] if isinstance(scans, Sequence) else scans
    windows = [w for block in blocks for w in stream.push(block)] + stream.close()
    result = stream.counts
    result.samples = [
        WindowSample(features=vector, target=target, window=(start, end), provenance=session_id)
        for start, end, target, vector in windows
    ]
    return result


class StreamingPredictor:
    """Rainfall predictions over a live scan stream, as ``rainlidar predict`` emits them.

    Emission k is at t0 + buffer + k * period, from the scans of the
    ``buffer`` seconds before it: the end-anchored windows of a
    :class:`WindowStream` (``windows``), with its memory bound. push and
    close return ``(time, MixturePrediction)`` for the emissions that they
    decide, in time order: an emission is returned by the first push whose
    last scan reaches its time. Each call runs one :func:`infer_batch`, with
    ``margin_fraction`` and ``error_floor``, over the windows that it decides,
    and pairs each window end with its row of the batch. A row does not
    depend on its batch, so the predictions equal those of one batch over
    the whole stream.
    """

    def __init__(
        self,
        model: MoEModel,
        box: CropBox,
        buffer: float,
        period: float,
        margin_fraction: float = 0.05,
        error_floor: float = 0.0,
    ):
        self.model = model
        self.margin_fraction, self.error_floor = margin_fraction, error_floor
        self.windows = WindowStream(box, buffer, period, end_anchored=True)

    def push(self, scans) -> list:
        """Add the next scans (see :meth:`WindowStream.push`)."""
        return self._infer(self.windows.push(scans))

    def close(self) -> list:
        """End the stream (see :meth:`WindowStream.close`)."""
        return self._infer(self.windows.close())

    def _infer(self, windows: list) -> list:
        if not windows:  # most small pushes decide none
            return []
        preds = infer_batch(
            self.model, [v for *_, v in windows], self.margin_fraction, self.error_floor
        )
        return [(end, pred) for (_, end, _, _), pred in zip(windows, preds)]


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
    if not per_segment_val_span > 0:
        raise InvalidInputError(f"validation span must be positive, got {per_segment_val_span}")
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
