"""Tests for tree construction, two-step training, and mixture inference."""

import numpy as np
import pytest
from scipy.special import logit, ndtr

from rainlidar.errors import InvalidInputError, TrainingError
from rainlidar.features import FeatureStats, WindowSample
from rainlidar.moe import (
    MixturePrediction,
    MoEModel,
    TrainConfig,
    _band_error_probability,
    _ndtr,
    build_tree_spec,
    evaluate,
    infer,
    mixture_cdf,
    mixture_density,
    quantile_thresholds,
    summarize_predictions,
    train,
)
from rainlidar.vblearn import ExpertPosterior, GatePosterior, design_matrix, expert_predictions

N_FEATURES = 8


def make_samples(targets, seed=0, feature_fn=None):
    """Window samples with informative features: target leaks into dims 0-3."""
    rng = np.random.default_rng(seed)
    samples = []
    for i, y in enumerate(targets):
        if feature_fn is None:
            base = np.array([y, np.sqrt(y + 1.0), 50.0 / (y + 5.0), np.log1p(y)])
            vec = np.concatenate([base, rng.normal(size=4)])
            vec = np.abs(vec) + 0.001  # keep std features non-negative
        else:
            vec = feature_fn(y, rng)
        samples.append(
            WindowSample(features=vec, target=float(y), window=(10.0 * i, 10.0 * i + 10.0))
        )
    return samples


def make_prediction(resp, means, variances):
    """Mixture with the default band: +/- 5% of the point estimate, no floor."""
    resp = np.asarray(resp, float)
    means = np.asarray(means, float)
    variances = np.asarray(variances, float)
    point = float(resp @ means)
    return MixturePrediction(
        responsibilities=resp,
        means=means,
        variances=variances,
        point_estimate=point,
        error_probability=float(
            _band_error_probability(resp, means, variances, point, 0.05 * abs(point))
        ),
    )


def quadrature_grid():
    return np.arange(-200.0, 500.0 + 1e-9, 0.01)


class TestBuildTreeSpec:
    def test_depth_one_single_threshold(self):
        spec = build_tree_spec(1, (0.0, 80.0), [20.0])
        assert spec.thresholds == (20.0,)
        assert spec.expert_ranges == ((0.0, 20.0), (20.0, 80.0))

    def test_depth_two_heap_order(self):
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        assert spec.thresholds == (20.0, 10.0, 40.0)
        assert spec.expert_ranges == (
            (0.0, 10.0),
            (10.0, 20.0),
            (20.0, 40.0),
            (40.0, 80.0),
        )

    def test_depth_three_higher_range(self):
        thresholds = [112.7, 47.0, 197.0, 21.2, 77.5, 152.5, 246.2]
        spec = build_tree_spec(3, (0.0, 450.0), thresholds)
        assert spec.n_experts == 8
        assert spec.expert_ranges[0] == (0.0, 21.2)
        assert spec.expert_ranges[-1] == (246.2, 450.0)

    def test_depth_four_log_spaced(self):
        thresholds = [20, 10, 40, 5, 15, 30, 60, 2.5, 7.5, 12.5, 17.5, 25, 35, 50, 70]
        spec = build_tree_spec(4, (0.0, 80.0), thresholds)
        assert spec.n_experts == 16

    def test_out_of_order_rejected_with_pair(self):
        with pytest.raises(InvalidInputError, match="20.0 >= 10.0"):
            build_tree_spec(2, (0.0, 80.0), [10.0, 20.0, 40.0])

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidInputError, match="3 thresholds"):
            build_tree_spec(2, (0.0, 80.0), [20.0])

    def test_depth_zero(self):
        spec = build_tree_spec(0, (0.0, 80.0))
        assert spec.thresholds == ()
        assert spec.expert_ranges == ((0.0, 80.0),)

    @pytest.mark.parametrize("depth", [1, 2, 6])
    def test_thresholds_required_beyond_depth_zero(self, depth):
        with pytest.raises(InvalidInputError, match="quantile_thresholds"):
            build_tree_spec(depth, (0.0, 80.0))

    def test_depth_bounds(self):
        with pytest.raises(InvalidInputError):
            build_tree_spec(7, (0.0, 80.0))


class TestQuantileThresholds:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_every_expert_gets_its_share(self, depth):
        rng = np.random.default_rng(depth)
        targets = rng.gamma(2.0, 8.0, 70)
        heap = quantile_thresholds(targets, depth)
        spec = build_tree_spec(depth, (0.0, 80.0), heap)
        in_range = targets[targets < 80.0]
        counts = [np.count_nonzero((in_range >= a) & (in_range < b)) for a, b in spec.expert_ranges]
        assert sum(counts) == in_range.size
        assert min(counts) >= in_range.size // 2**depth >= 2

    def test_midway_between_order_statistics_in_heap_order(self):
        targets = np.arange(1.0, 9.0)  # 8 targets, 2 per expert at depth 2
        assert quantile_thresholds(targets[::-1], 2) == [4.5, 2.5, 6.5]

    def test_targets_outside_range_ignored(self):
        targets = [1.0, 2.0, 3.0, 4.0, 90.0, 95.0, 99.0]
        assert quantile_thresholds(targets, 1, (0.0, 80.0)) == [2.5]

    def test_too_few_targets(self):
        with pytest.raises(TrainingError, match="depth-2 .* 7 distinct"):
            quantile_thresholds(np.arange(7.0), 2)

    def test_targets_above_the_range_name_y_max(self):
        targets = [5.0, 6.0, 7.0, *np.arange(100.0, 351.0, 10.0)]
        above = r"smaller --depth; 26 more lie at or above 80\.0: raise --y-max$"
        with pytest.raises(TrainingError, match=r"3 distinct .*" + above):
            quantile_thresholds(targets, 2)
        with pytest.raises(TrainingError) as caught:
            quantile_thresholds(np.arange(7.0), 2)
        assert "--y-max" not in str(caught.value)

    def test_ties_at_a_cut(self):
        # 30 zeros put every cut at 0: the lowest range [0, 0) is empty.
        targets = np.concatenate([np.zeros(30), [5.0, 6.0]])
        with pytest.raises(TrainingError, match="depth-1 .* 3 distinct"):
            quantile_thresholds(targets, 1)

    def test_invalid_depth_or_range(self):
        with pytest.raises(InvalidInputError):
            quantile_thresholds(np.arange(500.0), 7)
        with pytest.raises(InvalidInputError):
            quantile_thresholds(np.arange(500.0), 2, (0.0, -5.0))


class TestTrain:
    def test_depth_zero_single_expert(self):
        samples = make_samples(np.linspace(1.0, 70.0, 24))
        model = train(samples, build_tree_spec(0, (0.0, 80.0)), seed=0)
        assert len(model.gates) == 0 and len(model.experts) == 1
        pred = infer(model, samples[3].features)
        assert pred.n_components == 1
        assert pred.responsibilities[0] == 1.0

    def test_depth_zero_matches_expert_predictions_exactly(self):
        samples = make_samples(np.linspace(1.0, 70.0, 24))
        model = train(samples, build_tree_spec(0, (0.0, 80.0)), seed=0)
        x = samples[5].features
        from rainlidar.features import standardize_apply

        phi = design_matrix(standardize_apply(model.standardization, x)[None, :])
        means, variances = expert_predictions(model.experts, phi)
        pred = infer(model, x)
        assert pred.means[0] == means[0, 0]
        assert pred.variances[0] == variances[0, 0]
        assert pred.point_estimate == means[0, 0]

    def test_routing_of_mid_range_sample(self):
        # Sample with y=15 trains z1 (label 0), z2 (label 1), expert e2,
        # and no other node.
        targets = [2.0, 5.0, 15.0, 12.0, 18.0, 25.0, 30.0, 55.0, 60.0]
        samples = make_samples(targets)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        config = TrainConfig(record_assignments=True)
        model = train(samples, spec, config=config, seed=0)
        idx = 2  # the y=15 sample
        asg = model.metadata["assignments"]
        assert idx in asg["z1"]
        assert idx in asg["z2"]
        assert idx not in asg["z3"]
        assert idx in asg["e2"]
        assert idx not in asg["e1"] and idx not in asg["e3"] and idx not in asg["e4"]
        # label rule: y > threshold
        assert 15.0 < spec.thresholds[0] and 15.0 > spec.thresholds[1]

    def test_gate_subtree_pruning(self):
        # z2's training set is exactly the samples below the root threshold.
        targets = [2.0, 5.0, 15.0, 12.0, 18.0, 25.0, 30.0, 55.0, 60.0]
        samples = make_samples(targets)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        model = train(samples, spec, config=TrainConfig(record_assignments=True), seed=0)
        expected = sorted(i for i, y in enumerate(targets) if y < 20.0)
        assert model.metadata["assignments"]["z2"] == expected

    def test_empty_expert_range_raises(self):
        samples = make_samples([2.0, 5.0, 15.0, 18.0, 55.0, 60.0])  # nothing in [20, 40)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        with pytest.raises(TrainingError, match=r"\[20.0, 40.0\)"):
            train(samples, spec, seed=0)

    def test_single_class_gate_warning(self):
        # Targets exactly at the threshold belong to the upper expert range
        # but carry label 0 (not strictly above), so the gate sees one class.
        samples = make_samples([10.0, 12.0, 20.0, 20.0])
        spec = build_tree_spec(1, (0.0, 80.0), [20.0])
        model = train(samples, spec, seed=0)
        assert any("single-class" in w for w in model.metadata["warnings"])

    def test_iteration_cap_warnings_name_the_node(self):
        samples = make_samples(np.linspace(1.0, 70.0, 30), seed=2)
        spec = build_tree_spec(1, (0.0, 80.0), [20.0])
        # The gate needs 208 iterations on these samples.
        converged = train(samples, spec, config=TrainConfig(max_iters=400), seed=0)
        assert converged.metadata["warnings"] == []
        capped = train(samples, spec, config=TrainConfig(max_iters=2), seed=0)
        cap = "not converged: stopped at the 2-iteration cap (tol 1e-06)"
        assert capped.metadata["warnings"] == [
            f"gate z1 (threshold 20.0): {cap}",
            f"expert e1 (range [0.0, 20.0)): {cap}",
            f"expert e2 (range [20.0, 80.0)): {cap}",
        ]
        assert [e.warnings for e in capped.experts] == [(cap,), (cap,)]

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_config_rejects_iteration_cap_below_one(self, max_iters):
        with pytest.raises(InvalidInputError, match="max_iters must be at least 1"):
            TrainConfig(max_iters=max_iters)

    def test_class_balance_exact_parity(self):
        targets = [5.0] * 10 + [30.0] * 3
        samples = make_samples(targets)
        spec = build_tree_spec(1, (0.0, 80.0), [20.0])
        model = train(samples, spec, seed=1)
        counts = model.metadata["node_counts"]["z1"]
        assert counts["n_samples"] == 13
        assert counts["n_balanced"] == 20  # 10 + 10 after duplication

    def test_determinism(self):
        samples = make_samples(np.linspace(1.0, 70.0, 30), seed=2)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        a = train(samples, spec, seed=11)
        b = train(samples, spec, seed=11)
        for ga, gb in zip(a.gates, b.gates):
            np.testing.assert_array_equal(ga.mean, gb.mean)
            np.testing.assert_array_equal(ga.covariance, gb.covariance)
        for ea, eb in zip(a.experts, b.experts):
            np.testing.assert_array_equal(ea.mean, eb.mean)
            np.testing.assert_array_equal(ea.covariance, eb.covariance)
            assert ea.noise_precision == eb.noise_precision

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train([], build_tree_spec(0, (0.0, 80.0)), seed=0)

    def test_negative_targets_rejected(self):
        s = make_samples([5.0, 10.0])
        object.__setattr__(s[0], "target", -1.0)
        with pytest.raises(InvalidInputError):
            train(s, build_tree_spec(0, (0.0, 80.0)), seed=0)


def manual_model(depth, gate_probs, expert_means, variance=1.0):
    """Model whose gates emit fixed probabilities and experts fixed means.

    At x = 0 expert m predicts variance[m] (or the scalar ``variance``)
    plus 1e-12.
    """
    spec = build_tree_spec(
        depth, (0.0, 80.0), quantile_thresholds(np.linspace(1.0, 79.0, 2 ** (depth + 1)), depth)
    )
    d = N_FEATURES + 1
    gates = []
    for p in gate_probs:
        mean = np.zeros(d)
        mean[0] = logit(p)
        gates.append(
            GatePosterior(mean=mean, covariance=1e-9 * np.eye(d))
        )
    experts = []
    for m, v in zip(expert_means, np.broadcast_to(variance, len(expert_means))):
        mean = np.zeros(d)
        mean[0] = m
        experts.append(
            ExpertPosterior(mean=mean, covariance=1e-12 * np.eye(d), noise_precision=1.0 / v)
        )
    stats = FeatureStats(mean=np.zeros(N_FEATURES), scale=np.ones(N_FEATURES))
    return MoEModel(spec=spec, gates=tuple(gates), experts=tuple(experts), standardization=stats)


class TestInfer:
    def test_uniform_gates_give_quarter_each(self):
        model = manual_model(2, [0.5, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0])
        pred = infer(model, np.zeros(N_FEATURES))
        np.testing.assert_allclose(pred.responsibilities, 0.25, atol=1e-9)

    def test_probability_propagation_example(self):
        # P(e3) = P(z1=True) * P(z3=False) = 0.9 * 0.8
        model = manual_model(2, [0.9, 0.5, 0.2], [1.0, 2.0, 3.0, 4.0])
        pred = infer(model, np.zeros(N_FEATURES))
        assert pred.responsibilities[2] == pytest.approx(0.72, abs=1e-6)

    def test_depth_zero_identity(self):
        model = manual_model(0, [], [12.5])
        pred = infer(model, np.zeros(N_FEATURES))
        assert pred.responsibilities[0] == 1.0
        assert pred.point_estimate == pytest.approx(12.5, abs=1e-9)

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(77)
        for depth in (1, 2, 3):
            for _ in range(20):
                probs = rng.random(2**depth - 1)
                means = rng.uniform(0, 80, 2**depth)
                model = manual_model(depth, probs, means)
                pred = infer(model, rng.normal(size=N_FEATURES))
                assert abs(pred.responsibilities.sum() - 1.0) <= 1e-9

    def test_dimension_mismatch_names_both(self):
        model = manual_model(0, [], [1.0])
        with pytest.raises(InvalidInputError, match="dimension 5 .* 8"):
            infer(model, np.zeros(5))

    def test_non_finite_rejected(self):
        model = manual_model(0, [], [1.0])
        with pytest.raises(InvalidInputError):
            infer(model, np.full(N_FEATURES, np.nan))


class TestMixtureDensity:
    def test_single_component_peak(self):
        pred = make_prediction([1.0], [10.0], [4.0])
        assert mixture_density(pred, 10.0) == pytest.approx(1.0 / (2.0 * np.sqrt(2 * np.pi)))

    def test_two_component_symmetric(self):
        pred = make_prediction([0.5, 0.5], [0.0, 10.0], [1.0, 1.0])
        expected = np.exp(-0.5 * 25.0) / np.sqrt(2 * np.pi)
        assert mixture_density(pred, 5.0) == pytest.approx(expected, rel=1e-9)
        assert mixture_density(pred, 5.0) == pytest.approx(1.4867e-6, rel=1e-3)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(123)
        grid = quadrature_grid()
        for _ in range(20):
            m = int(rng.integers(1, 6))
            resp = rng.dirichlet(np.ones(m))
            means = rng.uniform(0, 100, m)
            variances = rng.uniform(0.5, 100.0, m)
            pred = make_prediction(resp, means, variances)
            total = np.trapezoid(mixture_density(pred, grid), grid)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_cdf_matches_density_integral(self):
        pred = make_prediction([0.3, 0.7], [5.0, 20.0], [2.0, 9.0])
        grid = np.arange(-100.0, 15.0 + 1e-9, 0.005)
        integral = np.trapezoid(mixture_density(pred, grid), grid)
        assert mixture_cdf(pred, 15.0) == pytest.approx(integral, abs=1e-6)


class TestNdtrOracle:
    """The normal CDF against ``scipy.special.ndtr``."""

    def test_both_branches_around_the_switch(self):
        # |a| < 1 takes erf, the rest erfc; a = +-1 itself takes erfc.
        a = np.concatenate([
            np.linspace(-1.01, -0.99, 2_001),
            np.linspace(0.99, 1.01, 2_001),
            [-1.0, 1.0, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), 0.0, -0.0],
        ])
        np.testing.assert_allclose(_ndtr(a), ndtr(a), rtol=1e-14, atol=0)

    def test_normal_draws_and_moderate_tails(self):
        a = np.concatenate([
            np.random.default_rng(7).normal(size=50_000),
            np.linspace(-10.0, 10.0, 20_001),
        ])
        np.testing.assert_allclose(_ndtr(a), ndtr(a), rtol=1e-14, atol=0)

    def test_far_tails(self):
        # Out to a = -37.5, where the lower tail is still a normal float.
        # scipy's erfc takes exp(-x^2) from a rounded x^2, an error that
        # grows as x^2 eps (5.7e-14 relative at a = -37.5), so the bound
        # grows the same way beyond its floor of 1e-14.
        a = np.linspace(-37.5, 38.0, 30_001)
        got, want = _ndtr(a), ndtr(a)
        x2 = 0.5 * a * a
        rtol = np.maximum(1e-14, x2 * np.finfo(float).eps)
        assert np.all(np.abs(got - want) <= rtol * want)
        assert _ndtr(38.0) == 1.0

    def test_subnormal_tail_stays_tiny_and_ordered(self):
        # Below a = -37.7 scipy underflows to 0; math.erfc keeps subnormals.
        a = np.linspace(-38.0, -37.5, 51)
        got = _ndtr(a)
        assert np.all(got >= 0.0) and np.all(got < 1e-307)
        assert np.all(np.diff(got) > 0)

    def test_shapes_preserved(self):
        a = np.random.default_rng(3).normal(0.0, 3.0, (4, 5, 2))
        got = _ndtr(a)
        assert got.shape == (4, 5, 2)
        np.testing.assert_allclose(got, ndtr(a), rtol=1e-14, atol=0)
        scalar = _ndtr(0.3)
        assert scalar.shape == () and float(scalar) == pytest.approx(float(ndtr(0.3)), rel=1e-14)
        assert _ndtr(np.empty((0, 3))).shape == (0, 3)

    def test_mixture_cdf_equals_scipy_sum(self):
        pred = make_prediction([0.2, 0.5, 0.3], [5.0, 20.0, 40.0], [2.0, 9.0, 30.0])
        y = np.linspace(-20.0, 80.0, 400).reshape(20, 20)
        want = ndtr((y[..., None] - pred.means) / np.sqrt(pred.variances)) @ pred.responsibilities
        got = mixture_cdf(pred, y)
        assert got.shape == (20, 20)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-300)
        assert isinstance(mixture_cdf(pred, 15.0), float)


def predict_at_zero(depth, gate_probs, means, variances, margin=0.05, floor=0.0):
    """Prediction of a :func:`manual_model` at x = 0."""
    model = manual_model(depth, gate_probs, means, variances)
    return infer(model, np.zeros(N_FEATURES), margin, floor)


class TestPointEstimate:
    def test_single(self):
        assert predict_at_zero(0, [], [12.5], 1.0).point_estimate == 12.5

    def test_two_equal(self):
        assert predict_at_zero(1, [0.5], [10.0, 20.0], 1.0).point_estimate == 15.0

    def test_matches_quadrature_mean(self):
        rng = np.random.default_rng(9)
        grid = quadrature_grid()
        for _ in range(10):
            depth = int(rng.integers(0, 3))
            m = 2**depth
            pred = predict_at_zero(
                depth, rng.uniform(0.05, 0.95, m - 1), rng.uniform(0, 80, m), rng.uniform(1.0, 50.0, m)
            )
            density = mixture_density(pred, grid)
            mean = np.trapezoid(grid * density, grid)
            assert pred.point_estimate == pytest.approx(mean, abs=1e-3)


class TestErrorProbability:
    def test_vanishing_variance_vanishing_error(self):
        values = [
            predict_at_zero(0, [], [40.0], v).error_probability for v in (25.0, 1.0, 0.01, 1e-6)
        ]
        assert values[-1] < 1e-9
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_standard_normal_case(self):
        # mean = point = 100, sd 5, band +/-5: 1 - (Phi(1) - Phi(-1))
        expected = 1.0 - (ndtr(1.0) - ndtr(-1.0))
        assert float(_band_error_probability([1.0], [100.0], [25.0], 100.0, 5.0)) == pytest.approx(
            expected, abs=1e-12
        )
        pred = predict_at_zero(0, [], [100.0], 25.0)
        assert pred.error_probability == pytest.approx(expected, abs=1e-12)
        assert pred.error_probability == pytest.approx(0.3173, abs=1e-4)

    def test_matches_band_quadrature(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            pred = make_prediction(
                rng.dirichlet(np.ones(3)),
                rng.uniform(10, 80, 3),
                rng.uniform(0.5, 30.0, 3),
            )
            center = pred.point_estimate
            half = 0.05 * abs(center)
            grid = np.linspace(center - half, center + half, 20001)
            inside = np.trapezoid(mixture_density(pred, grid), grid)
            assert pred.error_probability == pytest.approx(1.0 - inside, abs=1e-4)

    def test_monotone_in_shrinking_variance(self):
        # All means pinned at the point estimate; scaling variances down
        # can only shrink the mass outside the band.
        rng = np.random.default_rng(56)
        gate_probs = rng.uniform(0.05, 0.95, 3)
        variances = rng.uniform(1.0, 20.0, 4)
        values = [
            predict_at_zero(2, gate_probs, np.full(4, 30.0), variances * scale).error_probability
            for scale in (1.0, 0.5, 0.2, 0.05, 0.01)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_point_estimate_with_zero_floor(self):
        assert predict_at_zero(0, [], [0.0], 1.0, 0.05, 0.0).error_probability == 1.0

    def test_absolute_floor_mode(self):
        pred = predict_at_zero(0, [], [0.0], 1.0, 0.05, floor=2.0)
        expected = 1.0 - (ndtr(2.0) - ndtr(-2.0))
        assert pred.error_probability == pytest.approx(expected)

    def test_batched_band_matches_rows(self):
        rng = np.random.default_rng(57)
        resp = rng.dirichlet(np.ones(4), 6)
        means = rng.uniform(5, 60, (6, 4))
        variances = rng.uniform(0.5, 30.0, (6, 4))
        centers = np.einsum("nm,nm->n", resp, means)
        halves = np.maximum(0.05 * centers, 1.0)
        batched = _band_error_probability(resp, means, variances, centers, halves)
        assert batched.shape == (6,)
        for i in range(6):
            row = _band_error_probability(resp[i], means[i], variances[i], centers[i], halves[i])
            assert float(row) == pytest.approx(batched[i], abs=1e-15)


class TestFilterAndMetrics:
    def test_threshold_one_keeps_all(self):
        preds = [(make_prediction([1.0], [50.0], [1.0]), 50.0) for _ in range(5)]
        (kept,) = summarize_predictions(preds, thresholds=(1.0,)).filtered
        assert kept.n_retained == 5 and kept.retention == 1.0

    def test_all_uncertain_drops_all(self):
        pred = make_prediction([1.0], [10.0], [400.0])
        assert pred.error_probability > 0.25
        (kept,) = summarize_predictions([(pred, 10.0)] * 4, thresholds=(0.25,)).filtered
        assert kept.n_retained == 0 and kept.retention == 0.0 and kept.rmse is None

    def test_empty_input(self):
        with pytest.raises(InvalidInputError, match="no predictions to summarize"):
            summarize_predictions([], thresholds=(0.5,))

    def test_bad_threshold(self):
        pairs = [(make_prediction([1.0], [50.0], [1.0]), 50.0)]
        for threshold in (0.0, -0.1, 1.5, np.nan):
            with pytest.raises(InvalidInputError, match=r"threshold must be in \(0, 1\]"):
                summarize_predictions(pairs, thresholds=(threshold,))

    def test_perfect_predictor_stub(self):
        pairs = [(make_prediction([1.0], [y], [1e-12]), y) for y in (5.0, 20.0, 60.0)]
        report = summarize_predictions(pairs, thresholds=(0.25, 0.10))
        assert report.rmse_all == 0.0
        assert report.filtered[0].retention == 1.0
        assert report.filtered[1].retention == 1.0
        assert report.mean_error_probability < 1e-9

    def test_constant_predictor_rmse(self):
        pairs = [
            (make_prediction([1.0], [10.0], [1.0]), 9.0),
            (make_prediction([1.0], [10.0], [1.0]), 11.0),
        ]
        report = summarize_predictions(pairs, thresholds=(1.0,))
        assert report.rmse_all == pytest.approx(1.0)

    def test_report_dict_keys(self):
        pairs = [(make_prediction([1.0], [50.0], [1.0]), 50.0)]
        doc = summarize_predictions(pairs).as_dict()
        for key in ("rmse_all", "mean_error_probability", "rmse_at_25", "retention_25",
                    "rmse_at_10", "retention_10"):
            assert key in doc

    @pytest.mark.parametrize("thresholds", [(0.1, 0.104), (0.25, 0.1, 0.249), (0.5, 0.5)])
    def test_thresholds_sharing_a_report_key_rejected(self, thresholds):
        # Each threshold is reported under its whole percent, so two that round
        # alike would write one set of keys for two thresholds.
        pairs = [(make_prediction([1.0], [50.0], [1.0]), 50.0)]
        with pytest.raises(InvalidInputError, match="share the report key suffix"):
            summarize_predictions(pairs, thresholds=thresholds)


class TestEvaluate:
    def test_end_to_end_small(self):
        rng = np.random.default_rng(4)
        targets = np.concatenate([
            rng.uniform(1, 9, 8), rng.uniform(11, 19, 8),
            rng.uniform(21, 39, 8), rng.uniform(41, 70, 8),
        ])
        samples = make_samples(targets, seed=4)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        model = train(samples, spec, seed=0)
        report = evaluate(model, samples)
        assert report.n_samples == 32
        assert report.rmse_all >= 0.0
        assert 0.0 <= report.mean_error_probability <= 1.0

    def test_empty_rejected(self):
        model = manual_model(0, [], [1.0])
        with pytest.raises(InvalidInputError):
            evaluate(model, [])


class TestConcurrency:
    def test_concurrent_inference_is_deterministic(self):
        # Trained models are immutable; infer must be pure under threads.
        from concurrent.futures import ThreadPoolExecutor

        samples = make_samples(np.linspace(1.0, 70.0, 30), seed=8)
        spec = build_tree_spec(2, (0.0, 80.0), [20.0, 10.0, 40.0])
        model = train(samples, spec, seed=0)
        inputs = [s.features for s in samples] * 4
        expected = [infer(model, x).point_estimate for x in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda x: infer(model, x).point_estimate, inputs))
        assert got == expected


class TestErrorProbabilityValidation:
    def test_negative_margin_rejected(self):
        model = manual_model(0, [], [10.0])
        with pytest.raises(InvalidInputError, match="non-negative"):
            infer(model, np.zeros(N_FEATURES), margin_fraction=-0.1)
        with pytest.raises(InvalidInputError, match="non-negative"):
            infer(model, np.zeros(N_FEATURES), error_floor=-1.0)
