"""Tests for the synthetic rain-noise generator."""

import numpy as np
import pytest

from rainlidar import synth
from rainlidar.errors import InvalidInputError
from rainlidar.features import CropBox, Scan, ScanTable, normalized_mst, scan_features
from rainlidar.moe import build_tree_spec, evaluate, train
from rainlidar.pipeline import assemble_dataset, make_windows, preprocess, split_validation
from rainlidar.synth import (
    DisturbanceParams,
    NoiseRegimeParams,
    RainProfile,
    RegimeParams,
    SegmentSpec,
    SensorSpec,
    default_profile,
    default_regime_params,
    disdrometer_series,
    generate_session,
    profile_rate,
    segment_index,
)

BOX = CropBox(10.0)


def drawn_scan(
    rate,
    noise,
    box,
    seed,
    timestamp=0.0,
    frame_id=0,
    count_scale=1.0,
    intensity_scale=1.0,
    extra_cluster=0.0,
):
    """The :class:`Scan` of the points that :func:`synth._draw_points` draws
    for one frame, with its overlay scales defaulting to no burst."""
    points = synth._draw_points(rate, noise, box, seed, count_scale, intensity_scale, extra_cluster)
    return Scan(xyz=points[:, :3], intensity=points[:, 3], timestamp=timestamp, frame_id=frame_id)


def single_regime(cluster_fraction, count=120.0, cluster_scale=0.25):
    return NoiseRegimeParams(
        regimes=(
            RegimeParams(
                rate_range=(0.0, 100.0),
                count_coeffs=(count, 0.0, 0.0),
                intensity_scale=1.0,
                intensity_decay=0.0,
                radial_pull=(0.0, 0.0),
                cluster_fraction=(cluster_fraction, cluster_fraction),
                cluster_scale=cluster_scale,
            ),
        )
    )


class TestProfile:
    def test_default_profile_duration(self):
        profile = default_profile()
        assert profile.total_duration == 1500.0
        assert len(profile.segments) == 4

    def test_profile_rate_ramps(self):
        profile = RainProfile(
            segments=(SegmentSpec(100.0, 10.0, 20.0), SegmentSpec(100.0, 30.0, 40.0))
        )
        assert profile_rate(profile, 0.0) == 0.0  # ramp starts from dry
        assert profile_rate(profile, 10.0) == pytest.approx(5.0)
        assert profile_rate(profile, 50.0) == 10.0
        assert profile_rate(profile, 100.0) == pytest.approx(10.0)  # ramp from 10
        assert profile_rate(profile, 120.0) == pytest.approx(20.0)
        assert profile_rate(profile, 180.0) == 30.0

    def test_segment_index(self):
        profile = default_profile()
        assert segment_index(profile, 0.0) == 0
        assert segment_index(profile, 375.0) == 1
        assert segment_index(profile, 1499.9) == 3
        assert segment_index(profile, 5000.0) == 3

    def test_invalid_segments(self):
        with pytest.raises(InvalidInputError):
            SegmentSpec(0.0, 10.0)
        with pytest.raises(InvalidInputError):
            SegmentSpec(10.0, -1.0)
        with pytest.raises(InvalidInputError):
            SegmentSpec(10.0, 5.0, ramp=20.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        for values in ((bad, 5.0), (10.0, bad), (10.0, 5.0, bad)):
            with pytest.raises(InvalidInputError, match="finite"):
                SegmentSpec(*values)
        with pytest.raises(InvalidInputError, match="finite"):
            SensorSpec(frame_rate=bad)
        with pytest.raises(InvalidInputError, match="finite"):
            SensorSpec(disdrometer_rate=bad)


class TestRegimeParams:
    def test_default_regimes_tile_from_zero(self):
        params = default_regime_params()
        assert params.regimes[0].rate_range[0] == 0.0
        assert params.r_max == 80.0
        for a, b in zip(params.regimes[:-1], params.regimes[1:]):
            assert a.rate_range[1] == b.rate_range[0]

    def test_count_curve_continuous_at_breakpoints(self):
        params = default_regime_params()
        for a, b in zip(params.regimes[:-1], params.regimes[1:]):
            boundary = a.rate_range[1]
            assert a.expected_count(boundary) == pytest.approx(
                b.expected_count(boundary), rel=1e-9
            )

    # Every sensor's table must pass this and the count test above. The
    # default table rounds its intensity scales to 3 digits, so its intensity
    # curve jumps by up to 4.8e-4 (relative) at an edge; pull and cluster
    # fraction meet exactly.
    @pytest.mark.parametrize(
        "statistic, rel",
        [
            ("radial_pull_at", None),
            ("cluster_fraction_at", None),
            ("expected_intensity", 1e-3),
        ],
    )
    def test_statistic_continuous_at_breakpoints(self, statistic, rel):
        params = default_regime_params()
        for a, b in zip(params.regimes[:-1], params.regimes[1:]):
            boundary = a.rate_range[1]
            left = getattr(a, statistic)(boundary)
            right = getattr(b, statistic)(boundary)
            assert left == (right if rel is None else pytest.approx(right, rel=rel))

    def test_count_curve_non_monotone(self):
        params = default_regime_params()
        rates = np.linspace(0.0, 79.0, 300)
        counts = np.array([params.regime_for(r).expected_count(r) for r in rates])
        diffs = np.diff(counts)
        assert np.any(diffs > 0) and np.any(diffs < 0)

    def test_gap_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseRegimeParams(
                regimes=(
                    RegimeParams((0.0, 10.0), (5, 0, 0), 1.0, 0.0, (0, 0), (0, 0), 0.3),
                    RegimeParams((15.0, 20.0), (5, 0, 0), 1.0, 0.0, (0, 0), (0, 0), 0.3),
                )
            )


class TestGenerateScan:
    def test_dry_baseline(self):
        params = default_regime_params()
        counts, intensities = [], []
        for seed in range(200):
            scan = drawn_scan(0.0, params, BOX, seed=seed)
            counts.append(scan.n_points)
            if scan.n_points:
                intensities.append(scan.intensity.mean())
        # Poisson(5): mean of 200 draws within 3 standard errors
        assert abs(np.mean(counts) - 5.0) <= 3.0 * np.sqrt(5.0 / 200)
        # intensity at maximum scale (Gamma mean 1.0)
        assert np.mean(intensities) == pytest.approx(1.0, abs=0.1)

    def test_count_matches_curve_3sigma(self):
        params = default_regime_params()
        rate = 30.0
        lam = params.regime_for(rate).expected_count(rate)
        counts = [drawn_scan(rate, params, BOX, seed=[1, i]).n_points for i in range(100)]
        assert abs(np.mean(counts) - lam) <= 3.0 * np.sqrt(lam / 100)

    def test_clustering_lowers_mst_ratio(self):
        low, high = [], []
        for seed in range(50):
            for frac, out in ((0.0, low), (0.8, high)):
                scan = drawn_scan(20.0, single_regime(frac), BOX, seed=[seed, int(frac * 10)])
                if scan.n_points >= 2:
                    out.append(normalized_mst(scan.xyz, BOX))
        assert np.mean(high) < np.mean(low)

    def test_regime_separability(self):
        # Adjacent regimes must be statistically distinguishable from scan
        # statistics alone, otherwise the gating tree cannot learn.
        params = default_regime_params()
        reps = 150
        stats = {}
        for rate in (7.0, 15.0, 30.0, 50.0):
            rows = []
            for i in range(reps):
                feats = scan_features(drawn_scan(rate, params, BOX, seed=[3, int(rate), i]), BOX)
                rows.append(
                    [feats.n_points, feats.mean_intensity or 0.0, feats.mean_radial or 0.0, feats.norm_mst or 0.0]
                )
            rows = np.array(rows)
            stats[rate] = (rows.mean(axis=0), rows.std(axis=0))
        rates = sorted(stats)
        for a, b in zip(rates[:-1], rates[1:]):
            mu_a, sd_a = stats[a]
            mu_b, sd_b = stats[b]
            welch_t = np.abs(mu_a - mu_b) / np.sqrt(sd_a**2 / reps + sd_b**2 / reps)
            assert welch_t.max() > 5.0, f"regimes at {a} and {b} mm/h are not separable"

    def test_deterministic(self):
        params = default_regime_params()
        a = drawn_scan(25.0, params, BOX, seed=42)
        b = drawn_scan(25.0, params, BOX, seed=42)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_points_inside_box(self):
        params = default_regime_params()
        for seed in range(10):
            scan = drawn_scan(60.0, params, BOX, seed=seed)
            assert np.all(np.abs(scan.xyz) <= BOX.half_extent)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            drawn_scan(-1.0, default_regime_params(), BOX, seed=0)


def per_frame_scans(profile, seed, disturbance):
    """The scans of a session (default box and fluctuation) made one frame
    at a time by :func:`drawn_scan`, with the arguments that the session
    gives each frame."""
    frames = synth._SessionFrames(profile, BOX, seed, 0.12, disturbance)
    for j in range(len(frames.times)):
        rate, noise, box, seed, *overlay = frames._draw_args(j)
        yield drawn_scan(rate, noise, box, seed, frames.times[j], j, *overlay)


class TestSessionOptions:
    """Options that the noise model cannot honour are rejected before any scan is drawn."""

    PROFILE = RainProfile((SegmentSpec(30.0, 20.0, 5.0),), SensorSpec(frame_rate=1.0))

    @staticmethod
    def wide_table(r_max):
        """A one-regime table that tiles [0, r_max)."""
        return NoiseRegimeParams(
            (RegimeParams((0.0, r_max), (20.0, 0.1, 0.0), 1.0, 0.0, (0.0, 0.1), (0.1, 0.3), 0.3),)
        )

    @pytest.mark.parametrize("rate", [300.0, 1e300])
    def test_rate_above_the_regime_table_is_rejected(self, rate):
        # The profile itself is refused, so no session entry point can take it.
        with pytest.raises(InvalidInputError, match=r"r_max of 80\.0 mm/h"):
            RainProfile((SegmentSpec(60.0, 7.0, 5.0), SegmentSpec(60.0, rate, 5.0)))

    def test_a_wider_table_takes_rates_up_to_its_own_r_max(self):
        wide = SensorSpec(frame_rate=1.0, noise=self.wide_table(400.0))
        profile = RainProfile((SegmentSpec(5.0, 400.0, 2.0),), wide)
        scans, _ = generate_session(profile, seed=2)
        assert len(scans) == 5 and scans[-1].n_points > 0
        with pytest.raises(InvalidInputError, match="r_max"):
            RainProfile(profile.segments, SensorSpec(frame_rate=1.0))
        with pytest.raises(InvalidInputError, match=r"400\.5 mm/h .* r_max of 400\.0 mm/h"):
            RainProfile((SegmentSpec(5.0, 400.5, 2.0),), wide)

    @pytest.mark.parametrize(
        "segment, sensor, count",
        [
            (SegmentSpec(1e300, 7.0), SensorSpec(), r"1e\+301 frames"),
            (SegmentSpec(1500.0, 7.0), SensorSpec(disdrometer_rate=1e300), r"1\.5e\+303 measurements"),
            (SegmentSpec(1500.0, 7.0), SensorSpec(frame_rate=1e308), "inf frames"),
            # 2**60 frames of 8 bytes: one byte past the largest intp
            (SegmentSpec(2.0**60, 7.0), SensorSpec(frame_rate=1.0), r"1\.15292e\+18 frames"),
        ],
        ids=["duration", "disdrometer-rate", "infinite", "bound"],
    )
    def test_counts_too_large_for_an_array_are_rejected(self, segment, sensor, count):
        with pytest.raises(InvalidInputError, match=count):
            RainProfile((segment,), sensor)

    def test_the_largest_count_below_the_array_bound_is_accepted(self):
        # the float below 2**60; numpy would try to allocate it, not refuse it
        profile = RainProfile((SegmentSpec(2.0**60 - 128, 7.0),), SensorSpec(frame_rate=1.0))
        assert profile.total_duration * profile.sensor.frame_rate * 8 < np.iinfo(np.intp).max

    @pytest.mark.parametrize("sigma", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_non_negative(self, monkeypatch, sigma):
        def drawn(*args):
            raise AssertionError("a scan was drawn")

        monkeypatch.setattr(synth._SessionFrames, "block", drawn)
        with pytest.raises(InvalidInputError, match="noise sigma"):
            disdrometer_series(self.PROFILE, noise_sigma=sigma)
        with pytest.raises(InvalidInputError, match="noise sigma"):
            generate_session(self.PROFILE, noise_sigma=sigma)

    @pytest.mark.parametrize("fluctuation", [-0.1, 1.000001, 5.0, float("nan"), float("inf")])
    def test_fluctuation_must_lie_in_the_unit_interval(self, tmp_path, fluctuation):
        with pytest.raises(InvalidInputError, match=r"fluctuation must be in \[0, 1\]"):
            disdrometer_series(self.PROFILE, fluctuation=fluctuation)
        for start in (
            lambda: generate_session(self.PROFILE, fluctuation=fluctuation),
            lambda: synth.write_session_scans(tmp_path / "scans.txt", self.PROFILE, fluctuation=fluctuation),
        ):
            with pytest.raises(InvalidInputError, match="fluctuation"):
                start()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fluctuation", [0.0, 1.0])
    def test_the_ends_of_the_interval_are_accepted(self, fluctuation):
        scans, series = generate_session(self.PROFILE, seed=1, fluctuation=fluctuation, noise_sigma=0.0)
        assert len(scans) == 30 and len(series) == 3
        assert np.all(series.rates >= 0)


class TestGenerateSession:
    def test_plateau_tracking(self):
        profile = RainProfile(
            segments=(
                SegmentSpec(200.0, 15.0, 10.0),
                SegmentSpec(200.0, 30.0, 10.0),
                SegmentSpec(200.0, 50.0, 10.0),
            )
        )
        _, series = generate_session(profile, seed=4, disturbance=None)
        for seg, target in zip(range(3), (15.0, 30.0, 50.0)):
            mask = series.segment_ids == seg
            # skip the ramp-in measurement(s)
            plateau = series.rates[mask][2:]
            assert np.mean(plateau) == pytest.approx(target, rel=0.15)

    def test_frame_count(self):
        profile = RainProfile(segments=(SegmentSpec(60.0, 10.0),))
        scans, series = generate_session(profile, seed=0)
        assert len(scans) == 600
        assert len(series) == 6
        assert scans[0].timestamp == 0.0
        assert scans[-1].timestamp == pytest.approx(59.9)

    def test_default_session_is_25_minutes_at_10hz(self):
        scans, series = generate_session(default_profile(), seed=1)
        assert len(scans) == 15_000
        assert len(series) == 150

    def test_same_seed_identical(self):
        profile = RainProfile(segments=(SegmentSpec(30.0, 20.0),))
        scans_a, series_a = generate_session(profile, seed=9)
        scans_b, series_b = generate_session(profile, seed=9)
        np.testing.assert_array_equal(series_a.rates, series_b.rates)
        for a, b in zip(scans_a, scans_b):
            np.testing.assert_array_equal(a.xyz, b.xyz)
            np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_different_seeds_differ(self):
        profile = RainProfile(segments=(SegmentSpec(30.0, 20.0),))
        scans_a, _ = generate_session(profile, seed=1)
        scans_b, _ = generate_session(profile, seed=2)
        assert any(a.n_points != b.n_points for a, b in zip(scans_a, scans_b))

    def test_bias_factor(self):
        profile = RainProfile(segments=(SegmentSpec(300.0, 30.0, 0.0),))
        _, plain = generate_session(profile, seed=3, disturbance=None, bias=1.0)
        _, biased = generate_session(profile, seed=3, disturbance=None, bias=1.3)
        np.testing.assert_allclose(biased.rates, 1.3 * plain.rates, rtol=1e-12)

    @pytest.mark.parametrize("frame_rate", [10.0, 1.0])
    @pytest.mark.parametrize("bursts", [True, False], ids=["bursts", "calm"])
    def test_blocks_equal_a_scan_per_frame(self, frame_rate, bursts):
        # 237 frames: two whole blocks and a short one
        seconds = 23.7 if frame_rate == 10.0 else 237.0
        profile = RainProfile((SegmentSpec(seconds, 25.0, 5.0),), SensorSpec(frame_rate=frame_rate))
        dist = (
            DisturbanceParams(rate_per_minute=4.0, duration_range=(seconds / 20, seconds / 10))
            if bursts
            else None
        )
        frames = synth._SessionFrames(profile, BOX, 6, 0.12, dist)
        assert len(frames.times) == 237 and 237 % synth.SESSION_BLOCK_FRAMES
        covered = [any(b.start <= t < b.start + b.duration for b in frames.bursts) for t in frames.times]
        assert (0 < sum(covered) < 237) == bursts
        want = list(per_frame_scans(profile, 6, dist))
        scans, _ = generate_session(profile, seed=6, disturbance=dist)
        assert isinstance(scans, ScanTable)
        got = list(scans)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a.frame_id) is type(b.frame_id) is int and a.frame_id == b.frame_id
            assert a.timestamp.hex() == b.timestamp.hex()
            assert a.xyz.tobytes() == b.xyz.tobytes()
            assert a.intensity.tobytes() == b.intensity.tobytes()

    def test_disturbance_determinism(self):
        profile = RainProfile(segments=(SegmentSpec(120.0, 30.0),))
        dist = DisturbanceParams(rate_per_minute=2.0)
        scans_a, _ = generate_session(profile, seed=5, disturbance=dist)
        scans_b, _ = generate_session(profile, seed=5, disturbance=dist)
        for a, b in zip(scans_a, scans_b):
            np.testing.assert_array_equal(a.xyz, b.xyz)


class TestLearnability:
    def test_default_session_learnable(self):
        # Regression gate for the generator/learner pair: a depth-2 model
        # trained on a default session's training split must reach held-out
        # RMSE under 3x the disdrometer noise scale (sigma times the mean
        # rate).
        scans, series = generate_session(default_profile(), seed=5)
        filtered = preprocess(series)
        result = make_windows(scans, 10.0, BOX, filtered, session_id="learnability")
        dataset = split_validation(assemble_dataset(result, filtered, {}), 20.0)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        model = train(dataset.subset("train"), spec, seed=0)
        heldout = evaluate(model, dataset.subset("validation"))
        noise_scale = 0.05 * np.mean([s.target for s in dataset.samples])
        assert heldout.rmse_all < 3.0 * noise_scale


class TestScanFeatureRecomputation:
    def test_synthetic_scan_features_match_independent_route(self):
        # Features of a generated scan recomputed by hand, with the MST
        # length cross-checked against scipy's independent implementation.
        from scipy.sparse.csgraph import minimum_spanning_tree

        from rainlidar.features import uniform_mst_reference

        scan = drawn_scan(30.0, default_regime_params(), BOX, seed=3)
        feats = scan_features(scan, BOX)
        keep = np.all(np.abs(scan.xyz) <= BOX.half_extent, axis=1)
        kept = scan.xyz[keep]
        assert feats.n_points == int(keep.sum()) >= 2
        assert feats.mean_intensity == pytest.approx(float(scan.intensity[keep].mean()))
        assert feats.mean_radial == pytest.approx(
            float(np.sqrt((kept**2).sum(axis=1)).mean())
        )
        dist = np.sqrt(((kept[:, None, :] - kept[None, :, :]) ** 2).sum(-1))
        scipy_mst = float(minimum_spanning_tree(dist).sum())
        expected = scipy_mst / uniform_mst_reference(len(kept), BOX)
        assert feats.norm_mst == pytest.approx(expected, rel=1e-9)


@pytest.fixture(scope="module")
def session_model():
    scans, series = generate_session(default_profile(), seed=7)
    filtered = preprocess(series)
    result = make_windows(scans, 10.0, BOX, filtered, session_id="seed7")
    dataset = split_validation(assemble_dataset(result, filtered, {}), 20.0)
    spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
    model = train(dataset.subset("train"), spec, seed=0)
    return dataset, model


class TestSeedSevenSession:
    def test_gates_classify_heldout_exceedance(self, session_model):
        from rainlidar.features import standardize_apply
        from rainlidar.vblearn import design_matrix, gate_probabilities

        dataset, model = session_model
        validation = dataset.subset("validation")
        X = np.stack([standardize_apply(model.standardization, s.features) for s in validation])
        targets = np.array([s.target for s in validation])
        predicted_above = gate_probabilities(model.gates, design_matrix(X)) > 0.5
        actually_above = targets[:, None] > np.asarray(model.spec.thresholds)[None, :]
        assert predicted_above.size > 0
        assert np.mean(predicted_above == actually_above) > 0.9

    def test_uncertainty_filtering_improves_rmse(self, session_model):
        from rainlidar.moe import predict_batch, summarize_predictions

        dataset, model = session_model
        report = summarize_predictions([predict_batch(model, dataset.samples)])
        filtered = report.filtered[0]
        assert filtered.threshold == 0.25
        assert filtered.rmse is not None
        assert filtered.rmse <= report.rmse_all
