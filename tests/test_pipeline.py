"""Tests for ground-truth preprocessing, windowing, and dataset splitting."""

import warnings

import numpy as np
import pytest

from rainlidar import features, pipeline
from rainlidar import io as rio
from rainlidar.errors import InvalidInputError
from rainlidar.features import (
    CropBox,
    Scan,
    ScanTable,
    reduce_window,
    scan_feature_rows,
    window_features,
)
from rainlidar.pipeline import (
    EDGE_TOLERANCE,
    Dataset,
    RainSeries,
    WindowStream,
    assemble_dataset,
    make_windows,
    measurement_volatility,
    preprocess,
    savgol,
    segment_spans,
    split_validation,
    target_for_window,
    trim_segments,
)


def series_of(rates, dt=10.0, segment_ids=None):
    rates = np.asarray(rates, float)
    t = np.arange(rates.size) * dt
    if segment_ids is None:
        segment_ids = np.zeros(rates.size, int)
    return RainSeries(t, rates, np.asarray(segment_ids, int))


def scan_at(t, seed=0, n=5):
    rng = np.random.default_rng([seed, int(t * 1000)])
    return Scan(
        xyz=rng.uniform(-5, 5, (n, 3)),
        intensity=rng.random(n),
        timestamp=float(t),
        frame_id=int(round(t * 10)),
    )


class TestRainSeries:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            RainSeries(np.arange(3.0), np.arange(2.0), np.zeros(3, int))

    def test_non_increasing_timestamps(self):
        with pytest.raises(InvalidInputError):
            RainSeries(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2, int))

    def test_negative_rates(self):
        with pytest.raises(InvalidInputError):
            RainSeries(np.arange(2.0), np.array([1.0, -0.1]), np.zeros(2, int))


class TestSavgol:
    def test_constant_unchanged(self):
        y = np.full(20, 7.5)
        np.testing.assert_allclose(savgol(y), y, atol=1e-12)

    def test_quadratic_reproduced(self):
        t = np.arange(30.0)
        y = 0.3 * t**2 - 2.0 * t + 5.0
        np.testing.assert_allclose(savgol(y, window=9, order=2), y, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=40), rng.normal(size=40)
        a, b = 2.5, -1.3
        lhs = savgol(a * u + b * v)
        rhs = a * savgol(u) + b * savgol(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_interior_weights_match_normal_equations(self):
        # Window 5, order 2: the interior filter weights equal the center
        # row of the least-squares projection A (A^T A)^-1 A^T with
        # A = [1, t, t^2] at t = -2..2.
        window, order = 5, 2
        t = np.arange(window) - window // 2
        A = np.vander(t, order + 1, increasing=True)
        projection = A @ np.linalg.solve(A.T @ A, A.T)
        center_weights = projection[window // 2]
        n = 15
        # keep k 2 positions clear of the edge-fit region on both sides
        for k in range(window - 1, n - window + 1):
            impulse = np.zeros(n)
            impulse[k] = 1.0
            response = savgol(impulse, window=window, order=order)
            # impulse response around k mirrors the (symmetric) weight row
            np.testing.assert_allclose(
                response[k - 2 : k + 3], center_weights[::-1], atol=1e-9
            )

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            savgol(np.arange(20.0), window=8)
        with pytest.raises(InvalidInputError):
            savgol(np.arange(20.0), window=5, order=5)
        with pytest.raises(InvalidInputError):
            savgol(np.arange(5.0), window=9)


class TestSavgolOracle:
    """The numpy filter against scipy's ``savgol_filter(mode="interp")``."""

    @pytest.mark.parametrize(
        "window, order", [(1, 0), (3, 1), (5, 2), (7, 3), (9, 0), (9, 2), (11, 4)]
    )
    def test_matches_scipy_interp(self, window, order):
        from scipy.signal import savgol_filter

        rng = np.random.default_rng(100 * window + order)
        for n in (window, window + 1, 40, 150):
            y = rng.uniform(0.0, 50.0, n)
            np.testing.assert_allclose(
                savgol(y, window=window, order=order),
                savgol_filter(y, window_length=window, polyorder=order, mode="interp"),
                rtol=1e-12,
                atol=0,
            )


class TestTrimSegments:
    def test_basic_trim(self):
        series = series_of(np.arange(30.0))
        trimmed = trim_segments(series, n_cut=10)
        assert len(trimmed) == 10
        np.testing.assert_array_equal(trimmed.rates, np.arange(10.0, 20.0))

    def test_short_segment_dropped_with_warning(self):
        series = series_of(np.arange(20.0))
        with pytest.warns(UserWarning, match="dropped"):
            trimmed = trim_segments(series, n_cut=10)
        assert len(trimmed) == 0

    def test_multi_segment_independent(self):
        rates = np.concatenate([np.full(30, 10.0), np.full(25, 40.0)])
        ids = np.concatenate([np.zeros(30, int), np.ones(25, int)])
        trimmed = trim_segments(series_of(rates, segment_ids=ids), n_cut=10)
        assert len(trimmed) == 10 + 5
        assert set(trimmed.segment_ids) == {0, 1}

    def test_preprocess_filters_then_trims(self):
        rng = np.random.default_rng(3)
        rates = np.clip(30.0 + rng.normal(0, 1.5, 40), 0, None)
        series = series_of(rates)
        out = preprocess(series, window=9, order=2, n_cut=10)
        manual = savgol(rates, 9, 2)[10:-10]
        np.testing.assert_allclose(out.rates, np.clip(manual, 0, None), atol=1e-12)
        assert len(out) == 20


class TestTargetForWindow:
    def test_constant_series(self):
        series = series_of(np.full(30, 30.0))
        assert target_for_window(series, (50.0, 60.0)) == pytest.approx(30.0)

    def test_linear_mean(self):
        series = RainSeries(np.array([0.0, 100.0]), np.array([10.0, 20.0]), np.zeros(2, int))
        assert target_for_window(series, (0.0, 100.0)) == pytest.approx(15.0)

    def test_matches_dense_average(self):
        rng = np.random.default_rng(8)
        series = series_of(rng.uniform(0, 50, 40))
        window = (37.0, 94.0)
        dense = np.linspace(window[0], window[1], 10_001)
        values = np.interp(dense, series.timestamps, series.rates)
        expected = np.trapezoid(values, dense) / (window[1] - window[0])
        assert target_for_window(series, window) == pytest.approx(expected, abs=1e-6)

    def test_outside_coverage_returns_none(self):
        series = series_of(np.full(10, 5.0))
        assert target_for_window(series, (85.0, 95.0)) is None
        assert target_for_window(series, (-10.0, 0.5)) is None

    def test_straddling_segments_returns_none(self):
        ids = np.concatenate([np.zeros(5, int), np.ones(5, int)])
        series = series_of(np.full(10, 5.0), segment_ids=ids)
        # window spans the boundary between t=40 (seg 0) and t=50 (seg 1)
        assert target_for_window(series, (35.0, 55.0)) is None

    def test_monotone_in_series(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(0, 30, 25)
        higher = base + rng.uniform(0.1, 5.0, 25)
        window = (30.0, 180.0)
        t_low = target_for_window(series_of(base), window)
        t_high = target_for_window(series_of(higher), window)
        assert t_high > t_low


class TestMakeWindows:
    def test_count_bound_300s(self):
        scans = [scan_at(t) for t in np.arange(0.0, 300.0, 0.1)]
        series = series_of(np.full(40, 20.0))  # covers 0..390 s
        result = make_windows(scans, 10.0, CropBox(10.0), series)
        assert result.n_windows == 30
        assert len(result.samples) == 30

    def test_hundred_frames_per_window(self):
        scans = [scan_at(t) for t in np.arange(0.0, 30.0, 0.1)]
        times = np.array([s.timestamp for s in scans])
        series = series_of(np.full(10, 20.0))
        result = make_windows(scans, 10.0, CropBox(10.0), series)
        for sample in result.samples:
            start, end = sample.window
            i0, i1 = np.searchsorted(times, [start, end], side="left")
            assert i1 - i0 == 100

    def test_windows_disjoint_at_default_stride(self):
        scans = [scan_at(t) for t in np.arange(0.0, 100.0, 0.1)]
        series = series_of(np.full(15, 20.0))
        result = make_windows(scans, 10.0, CropBox(10.0), series)
        intervals = [s.window for s in result.samples]
        for (a0, a1), (b0, b1) in zip(intervals[:-1], intervals[1:]):
            assert a1 <= b0

    def test_overlap_requires_flag(self):
        scans = [scan_at(t) for t in np.arange(0.0, 50.0, 0.1)]
        series = series_of(np.full(10, 20.0))
        with pytest.raises(InvalidInputError, match="allow_overlap"):
            make_windows(scans, 10.0, CropBox(10.0), series, stride=5.0)
        result = make_windows(
            scans, 10.0, CropBox(10.0), series, stride=5.0, allow_overlap=True
        )
        assert len(result.samples) > 5

    def test_skips_counted(self):
        scans = [scan_at(t) for t in np.arange(0.0, 100.0, 0.1)]
        # series only covers 0..50 s
        series = series_of(np.full(6, 20.0))
        result = make_windows(scans, 10.0, CropBox(10.0), series)
        assert result.n_windows == 10
        assert result.n_skipped_no_target == 5
        assert len(result.samples) + result.n_skipped_no_target == 10

    def test_unordered_scans_rejected(self):
        scans = [scan_at(1.0), scan_at(0.5)]
        with pytest.raises(InvalidInputError):
            make_windows(scans, 10.0, CropBox(10.0), series_of(np.full(5, 1.0)))

    def test_empty_scans(self):
        result = make_windows([], 10.0, CropBox(10.0), series_of(np.full(5, 1.0)))
        assert result.samples == [] and result.n_windows == 0


def random_session(seed):
    """Irregular 10 Hz-ish session with runs of empty and of 1-point scans."""
    rng = np.random.default_rng([70, seed])
    times = np.cumsum(rng.uniform(0.05, 0.15, 160))
    kinds = rng.choice(["empty", "single", "many"], size=times.size, p=[0.15, 0.15, 0.7])
    kinds[40:55] = "empty"  # windows where intensity, radial and MST are undefined
    kinds[90:105] = "single"  # windows where only the MST is undefined
    scans = []
    for i, (t, kind) in enumerate(zip(times, kinds)):
        n = {"empty": 0, "single": 1}.get(kind, int(rng.integers(2, 15)))
        scans.append(Scan(rng.uniform(-6, 6, (n, 3)), rng.random(n), float(t), i))
    return scans


def slice_of(scans, start, end):
    times = np.array([s.timestamp for s in scans])
    i0, i1 = np.searchsorted(times, [start - EDGE_TOLERANCE, end - EDGE_TOLERANCE])
    return scans[i0:i1]


def counting_crops(monkeypatch):
    """Record the frame id of every scan the per-scan table fill featurizes."""
    seen = []
    real = pipeline.scan_feature_rows

    def counting(scans, box, indices=None, out=None):
        seen.extend(ScanTable.from_scans(scans).frame_ids[indices].tolist())
        return real(scans, box, indices, out)

    monkeypatch.setattr(pipeline, "scan_feature_rows", counting)
    return seen


def recorded_undefined(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught if "undefined in all" in str(w.message)]


class TestSharedTable:
    """The per-scan table path against featurizing every window on its own."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("stride", [0.35, 1.0])
    def test_make_windows_equals_per_window_features_bitwise(self, seed, stride):
        scans = random_session(seed)
        box = CropBox(5.0)
        # two segments with a gap, so some windows have no target
        series = RainSeries([0.0, 6.0, 9.0, 30.0], [3.0, 5.0, 8.0, 2.0], [0, 0, 1, 1])
        result, table_warnings = recorded_undefined(
            lambda: make_windows(scans, 1.0, box, series, stride=stride, allow_overlap=True)
        )
        assert result.samples and result.n_skipped_no_target > 0
        direct_warnings = []
        for sample in result.samples:
            vector, caught = recorded_undefined(
                lambda: window_features(slice_of(scans, *sample.window), box)
            )
            direct_warnings += caught
            assert np.array_equal(sample.features, vector)
        assert any("'mst'" in w for w in table_warnings)
        assert any("'intensity'" in w for w in table_warnings)
        assert table_warnings == direct_warnings

    @pytest.mark.parametrize("seed", range(4))
    def test_emissions_equal_per_window_features_bitwise(self, seed):
        scans = random_session(seed)
        box = CropBox(5.0)
        stream = WindowStream(box, 1.5, 0.4, end_anchored=True)
        windows, table_warnings = recorded_undefined(lambda: stream.push(scans) + stream.close())
        counts = stream.counts
        assert len(windows) + counts.n_skipped_few_scans == counts.n_windows
        direct_warnings = []
        for start, end, target, vector in windows:
            assert target is None and end - start == pytest.approx(1.5)
            expected, caught = recorded_undefined(
                lambda: window_features(slice_of(scans, start, end), box)
            )
            direct_warnings += caught
            assert np.array_equal(vector, expected)
        assert table_warnings == direct_warnings


def slide_windows_oracle(scans, box, duration, period, limit, series=None, end_anchored=False):
    """The whole-table windowing path that WindowStream replaced, verbatim
    but for its name and its vectors, which it returns as a list."""
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
    counts = pipeline.WindowingResult(samples=[], n_windows=len(starts))
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

    return counts, list(vectors())


def pushed_in_blocks(stream, scans, cuts):
    """What ``stream`` returns for ``scans`` pushed as the blocks between ``cuts``, then closed."""
    table = ScanTable.from_scans(scans)
    bounds = [0, *sorted(cuts), len(table)]
    out = [w for a, b in zip(bounds[:-1], bounds[1:]) for w in stream.push(table[a:b])]
    return out + stream.close()


def assert_same_windows(got, want):
    assert [w[:3] for w in got] == [w[:3] for w in want]
    assert all(a[3].tobytes() == b[3].tobytes() for a, b in zip(got, want))


class TestWindowStream:
    """Scans pushed block by block against the whole-table path it replaced."""

    SERIES = RainSeries([0.0, 6.0, 9.0, 30.0], [3.0, 5.0, 8.0, 2.0], [0, 0, 1, 1])

    @pytest.mark.parametrize("seed", range(6))
    # scan_feature_rows's batch budget: a push's fill split into one-scan
    # batches, into a few batches, and whole
    @pytest.mark.parametrize("budget", [1, 40, 1 << 15])
    @pytest.mark.parametrize(
        "duration, period, end_anchored",
        [(1.0, 0.35, False), (1.0, 1.0, False), (0.7, 1.6, False), (1.5, 0.4, True), (0.5, 2.5, True)],
    )
    def test_blocks_equal_whole_table_oracle(
        self, monkeypatch, seed, budget, duration, period, end_anchored
    ):
        monkeypatch.setattr(features, "_FILL_BATCH_POINTS", budget)
        scans = random_session(seed)
        rng = np.random.default_rng([71, seed])
        # blocks of one scan, empty blocks and long ones
        cuts = rng.integers(0, len(scans) + 1, size=int(rng.integers(1, 40))).tolist()
        box = CropBox(5.0)
        series = None if end_anchored else self.SERIES
        times = np.array([s.timestamp for s in scans])
        gaps = np.median(np.diff(times))
        limit = times[-1] if end_anchored else float(times[-1]) + float(gaps)
        (counts, want), want_warnings = recorded_undefined(
            lambda: slide_windows_oracle(scans, box, duration, period, limit, series, end_anchored)
        )
        stream = WindowStream(box, duration, period, series=series, end_anchored=end_anchored)
        got, got_warnings = recorded_undefined(lambda: pushed_in_blocks(stream, scans, cuts))
        assert want
        assert_same_windows(got, want)
        assert got_warnings == want_warnings  # "undefined in all", in the same order
        assert stream.counts.n_windows == counts.n_windows
        assert stream.counts.n_skipped_few_scans == counts.n_skipped_few_scans
        assert stream.counts.n_skipped_no_target == counts.n_skipped_no_target
        assert stream.counts.n_scans == len(scans)

    @pytest.mark.parametrize("end_anchored", [False, True])
    def test_each_kept_scan_filled_once_in_order(self, monkeypatch, end_anchored):
        # so that scan_feature_rows splits a push's fill into batches
        monkeypatch.setattr(features, "_FILL_BATCH_POINTS", 30)
        scans = [scan_at(t) for t in np.arange(0, 300) / 10]
        seen = counting_crops(monkeypatch)
        stream = WindowStream(
            CropBox(10.0), 2.0, 0.5, series=series_of(np.full(3, 5.0)), end_anchored=end_anchored
        )
        windows = pushed_in_blocks(stream, scans, range(7, 300, 7))
        held = {
            i for start, end, _, _ in windows for i, s in enumerate(scans)
            if start - EDGE_TOLERANCE <= s.timestamp < end - EDGE_TOLERANCE
        }
        assert seen == sorted(held)

    @pytest.mark.parametrize("end_anchored", [False, True])
    def test_held_scans_do_not_grow_with_the_file(self, tmp_path, monkeypatch, end_anchored):
        # Lines of one length (six-digit frame ids, timestamps 1000.0 to
        # 9999.9), so the file's blocks and the windows repeat in step.
        monkeypatch.setattr(rio, "SCAN_BLOCK_BYTES", 1000)
        # so that scan_feature_rows splits a push's fill into batches
        monkeypatch.setattr(features, "_FILL_BATCH_POINTS", 200)
        points = np.array([[1.25, -2.5, 3.75], [0.5, 0.25, -1.5], [2.0, 2.0, -3.0]])
        peaks = []
        for n in (1500, 3000):
            path = tmp_path / f"scans{n}.txt"
            rio.write_scans(
                path, (Scan(points, np.ones(3), (10000 + k) / 10, 100000 + k) for k in range(n))
            )
            stream = WindowStream(
                CropBox(10.0), 2.0, 0.5,
                series=RainSeries(np.arange(990.0, 1400.0), np.full(410, 5.0), np.zeros(410, int)),
                end_anchored=end_anchored,
            )
            windows = [w for block in rio.read_scan_blocks(path) for w in stream.push(block)]
            windows += stream.close()
            assert len(windows) == stream.counts.n_windows > n / 5 - 5
            peaks.append((stream.peak_scans, stream.peak_points))
        assert peaks[0] == peaks[1]
        assert peaks[0][0] < 150

    def test_order_violation_raised_at_close(self):
        scans = [scan_at(t) for t in np.arange(0, 100) / 10]
        stream = WindowStream(CropBox(10.0), 1.0, 1.0)
        stream.push(scans[50:])
        decided = stream.counts.n_windows
        assert decided > 0
        # an earlier scan is recorded; the scans after it are ignored
        assert stream.push(scans[:50]) == []
        assert stream.push(scans[50:]) == []
        assert stream.counts.n_windows == decided
        with pytest.raises(InvalidInputError, match="time-ordered"):
            stream.close()

    def test_empty_stream(self):
        stream = WindowStream(CropBox(10.0), 1.0, 1.0)
        assert stream.push([]) == [] and stream.close() == []
        assert stream.counts.n_windows == stream.counts.n_scans == 0

    @pytest.mark.parametrize(
        "duration, period",
        [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
         (np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)],
    )
    def test_non_positive_duration_or_period_rejected(self, duration, period):
        with pytest.raises(InvalidInputError, match="finite and positive"):
            WindowStream(CropBox(10.0), duration, period)


class TestWindowStarts:
    """Window k is t0 + k * stride, sliced with a tolerance: no accumulated drift."""

    @staticmethod
    def tagged_scans(n):
        # 10 Hz, two points per scan, every intensity equal to the scan index
        return [
            Scan(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.full(2, float(i)), i / 10, i)
            for i in range(n)
        ]

    def test_tenth_second_stride_windows_hold_ten_scans(self):
        scans = self.tagged_scans(100)
        series = RainSeries([0.0, 20.0], [5.0, 5.0], [0, 0])
        result = make_windows(scans, 1.0, CropBox(10.0), series, stride=0.1, allow_overlap=True)
        assert result.n_windows == len(result.samples) == 91
        # window k holds scans k..k+9 exactly: mean index k + 4.5
        assert [s.features[2] for s in result.samples] == [k + 4.5 for k in range(91)]
        np.testing.assert_allclose(
            [s.window[0] for s in result.samples], np.arange(91) / 10, rtol=0, atol=1e-12
        )

    def test_starts_carry_no_accumulated_rounding(self):
        # 1 Hz scans, 2 s windows every 0.1 s: a running sum of 0.1 would be
        # 1.6e-10 off by the 10,000th window
        pair = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        scans = [Scan(pair, np.ones(2), float(t), t) for t in range(1001)]
        series = RainSeries([0.0, 1001.0], [5.0, 5.0], [0, 0])
        result = make_windows(scans, 2.0, CropBox(10.0), series, stride=0.1, allow_overlap=True)
        starts = np.array([s.window[0] for s in result.samples])
        assert starts.size == 9991
        np.testing.assert_allclose(starts, np.arange(9991) / 10, rtol=0, atol=1e-12)

    def test_tenth_second_emissions_hold_ten_scans(self):
        scans = self.tagged_scans(100)
        stream = WindowStream(CropBox(10.0), 1.0, 0.1, end_anchored=True)
        windows = stream.push(scans) + stream.close()
        counts = stream.counts
        assert counts.n_windows == len(windows) == 90
        assert [w[3][2] for w in windows] == [k + 4.5 for k in range(90)]
        np.testing.assert_allclose(
            [w[1] for w in windows], 1.0 + np.arange(90) / 10, rtol=0, atol=1e-12
        )


class TestFeaturizeCallCount:
    def test_only_scans_of_targeted_windows(self, monkeypatch):
        scans = [scan_at(t) for t in np.arange(0, 300) / 10]
        # the series covers 0..5 s of the 30 s session
        series = RainSeries([0.0, 5.0], [5.0, 5.0], [0, 0])
        seen = counting_crops(monkeypatch)
        result = make_windows(scans, 1.0, CropBox(10.0), series)
        assert len(result.samples) == 5
        assert result.n_skipped_no_target == 25
        assert seen == list(range(50))

    def test_overlapping_windows_featurize_each_scan_once(self, monkeypatch):
        scans = [scan_at(t) for t in np.arange(0, 200) / 10]
        series = series_of(np.full(3, 5.0))
        seen = counting_crops(monkeypatch)
        result = make_windows(
            scans, 10.0, CropBox(10.0), series, stride=1.0, allow_overlap=True
        )
        assert len(result.samples) == 11
        assert seen == list(range(200))


class TestSplitValidation:
    def _dataset(self, n_segments=1, segment_seconds=300.0):
        scans = []
        rates, ids = [], []
        for seg in range(n_segments):
            offset = seg * segment_seconds
            scans.extend(scan_at(offset + t, seed=seg) for t in np.arange(0.0, segment_seconds, 0.1))
            n_meas = int(segment_seconds / 10)
            rates.extend([20.0 + seg] * n_meas)
            ids.extend([seg] * n_meas)
        t = np.arange(len(rates)) * 10.0
        series = RainSeries(t, np.array(rates), np.array(ids, int))
        result = make_windows(scans, 10.0, CropBox(10.0), series)
        return assemble_dataset(result, series, {"duration": 10.0})

    def test_central_span_tagged(self):
        dataset = split_validation(self._dataset(), per_segment_val_span=20.0)
        # segment timestamps span [0, 290]; central span is [135, 155]
        for sample, tag in zip(dataset.samples, dataset.split_tags):
            start, end = sample.window
            overlaps = max(start, 135.0) < min(end, 155.0)
            assert (tag == "validation") == overlaps
        # central span (135, 155) intersects [130,140), [140,150), [150,160)
        assert dataset.split_tags.count("validation") == 3

    def test_two_segments_each_contribute(self):
        dataset = split_validation(self._dataset(n_segments=2), per_segment_val_span=20.0)
        val_windows = [
            s.window for s, t in zip(dataset.samples, dataset.split_tags) if t == "validation"
        ]
        assert any(w[0] < 300.0 for w in val_windows)
        assert any(w[0] >= 300.0 for w in val_windows)

    def test_exactly_one_tag_per_sample(self):
        dataset = split_validation(self._dataset(n_segments=2))
        assert len(dataset.split_tags) == len(dataset.samples)
        assert set(dataset.split_tags) <= {"train", "validation"}

    def test_short_segment_all_train(self):
        dataset = self._dataset(segment_seconds=50.0)
        with pytest.warns(UserWarning, match="kept as train"):
            out = split_validation(dataset, per_segment_val_span=20.0)
        assert set(out.split_tags) == {"train"}

    def test_bad_tag_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(samples=[], split_tags=["test"], config={})
        with pytest.raises(InvalidInputError):
            d = self._dataset()
            Dataset(samples=d.samples, split_tags=["train"], config={})


class TestMeasurementVolatility:
    def test_constant_zero(self):
        assert measurement_volatility(series_of(np.full(10, 25.0))) == 0.0

    def test_simple_case(self):
        assert measurement_volatility(series_of([10.0, 20.0, 10.0])) == pytest.approx(10.0)

    def test_segment_boundaries_excluded(self):
        ids = np.array([0, 0, 1, 1], int)
        series = series_of([10.0, 10.0, 50.0, 50.0], segment_ids=ids)
        assert measurement_volatility(series) == 0.0

    def test_matches_hand_rolled(self):
        rng = np.random.default_rng(2)
        rates = rng.uniform(0, 40, 30)
        expected = np.abs(np.diff(rates)).mean()
        assert measurement_volatility(series_of(rates)) == pytest.approx(expected)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            measurement_volatility(series_of([5.0]))


class TestSegmentSpans:
    def test_spans(self):
        ids = np.concatenate([np.zeros(3, int), np.ones(4, int)])
        series = series_of(np.full(7, 5.0), segment_ids=ids)
        assert segment_spans(series) == [(0, 0.0, 20.0), (1, 30.0, 60.0)]
