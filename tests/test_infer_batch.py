"""The batched inference path against the per-sample path it replaced."""

import math
import warnings

import numpy as np
import pytest

from rainlidar.errors import InvalidInputError
from rainlidar.features import FeatureStats, standardize_apply
from rainlidar.moe import (
    MixturePrediction,
    MoEModel,
    TrainConfig,
    _ndtr,
    _responsibilities,
    build_tree_spec,
    infer,
    infer_batch,
    mixture_cdf,
    mixture_density,
    predict_batch,
    quantile_thresholds,
    summarize_predictions,
    train,
)
from rainlidar.vblearn import BasisConfig, GatePosterior, _expit
from tests.test_moe import N_FEATURES, make_samples, manual_model

# ---------------------------------------------------------------------------
# Oracle: the per-sample inference code as it was before the batched path,
# kept verbatim apart from names.


def _oracle_apply_basis(x, config):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("expected a non-empty 1-d feature vector")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("feature vector contains non-finite values")
    deg = config.effective_degree
    if deg == 1:
        return np.concatenate(([1.0], x))
    powers = x[:, None] ** np.arange(1, deg + 1)  # feature-major blocks
    return np.concatenate(([1.0], powers.ravel()))


def _oracle_kappa(sigma2_a):
    if sigma2_a < 0:
        raise InvalidInputError("activation variance must be non-negative")
    return 1.0 / np.sqrt(1.0 + np.pi * sigma2_a / 8.0)


def _oracle_predict_gate(posterior, x):
    phi = _oracle_apply_basis(x, posterior.basis)
    activation = float(posterior.mean @ phi)
    activation_var = float(phi @ posterior.covariance @ phi)
    return float(_expit(_oracle_kappa(activation_var) * activation))


def _oracle_predict_expert(posterior, x):
    phi = _oracle_apply_basis(x, posterior.basis)
    mean = float(posterior.mean @ phi)
    variance = 1.0 / posterior.noise_precision + float(phi @ posterior.covariance @ phi)
    return mean, variance


def _oracle_responsibilities(gate_probs, depth):
    n_experts = 2**depth
    resp = np.ones(n_experts)
    for m in range(n_experts):
        node = 1
        for level in range(depth):
            go_right = (m >> (depth - 1 - level)) & 1
            p = gate_probs[node - 1]
            resp[m] *= p if go_right else (1.0 - p)
            node = 2 * node + go_right
    return resp


def _oracle_band_error_probability(resp, means, variances, center, half_width):
    sd = np.sqrt(variances)
    upper = float(resp @ _ndtr((center + half_width - means) / sd))
    lower = float(resp @ _ndtr((center - half_width - means) / sd))
    return float(min(max(1.0 - (upper - lower), 0.0), 1.0))


def oracle_infer(model, x, margin_fraction=0.05, error_floor=0.0):
    x = np.asarray(x, dtype=float).reshape(-1)
    xs = standardize_apply(model.standardization, x)
    gate_probs = np.array([_oracle_predict_gate(g, xs) for g in model.gates])
    resp = _oracle_responsibilities(gate_probs, model.spec.depth)
    predictions = [_oracle_predict_expert(e, xs) for e in model.experts]
    means = np.array([p[0] for p in predictions])
    variances = np.array([p[1] for p in predictions])
    point = float(resp @ means)
    half_width = max(margin_fraction * abs(point), error_floor)
    error_prob = _oracle_band_error_probability(resp, means, variances, point, half_width)
    return MixturePrediction(
        responsibilities=resp,
        means=means,
        variances=variances,
        point_estimate=point,
        error_probability=error_prob,
    )


# ---------------------------------------------------------------------------


def noisy_features(y, rng):
    """Features that track the target only loosely, so no expert interpolates."""
    base = np.array([y, np.sqrt(y + 1.0), 50.0 / (y + 5.0), np.log1p(y)])
    return np.abs(np.concatenate([base * rng.lognormal(0.0, 0.2, 4), rng.normal(size=4)]))


def trained_model(depth, basis=BasisConfig()):
    targets = np.linspace(1.0, 75.0, 64)
    samples = make_samples(targets, seed=depth, feature_fn=noisy_features)
    spec = build_tree_spec(depth, (0.0, 80.0), quantile_thresholds(targets, depth))
    model = train(samples, spec, TrainConfig(basis=basis), seed=0)
    return model, np.array([s.features for s in samples])


def depth6_model():
    rng = np.random.default_rng(60)
    model = manual_model(6, rng.uniform(0.02, 0.98, 63), rng.uniform(0.0, 80.0, 64))
    return model, rng.normal(size=(40, N_FEATURES))


MODELS = {
    **{f"trained-depth{d}": (lambda d=d: trained_model(d)) for d in range(4)},
    "trained-depth2-poly2": lambda: trained_model(2, BasisConfig("polynomial", 2)),
    "manual-depth6": depth6_model,
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model_and_rows(request):
    return MODELS[request.param]()


class TestAgainstPerSampleOracle:
    @pytest.mark.parametrize("margin, floor", [(0.05, 0.0), (0.1, 2.0)])
    def test_batch_matches_oracle(self, model_and_rows, margin, floor):
        model, X = model_and_rows
        for got, x in zip(infer_batch(model, X, margin, floor), X):
            want = oracle_infer(model, x, margin, floor)
            np.testing.assert_allclose(got.means, want.means, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.variances, want.variances, rtol=1e-12, atol=0)
            np.testing.assert_allclose(got.responsibilities, want.responsibilities, rtol=0, atol=1e-12)
            assert got.point_estimate == pytest.approx(want.point_estimate, rel=1e-12, abs=0)
            assert got.error_probability == pytest.approx(want.error_probability, rel=0, abs=1e-12)

    def test_responsibilities_bit_identical(self):
        rng = np.random.default_rng(3)
        for depth in range(7):
            probs = rng.random((5, 2**depth - 1))
            batched = _responsibilities(probs, depth)
            assert batched.shape == (5, 2**depth)
            for row, p in zip(batched, probs):
                want = _oracle_responsibilities(p, depth)
                np.testing.assert_array_equal(row, want)
                np.testing.assert_array_equal(_responsibilities(p, depth), want)


class TestRowIndependence:
    def test_single_rows_equal_batch_rows_exactly(self, model_and_rows):
        model, X = model_and_rows
        order = np.random.default_rng(1).permutation(len(X))
        full = infer_batch(model, X[order])
        pairs = [(full[j], i) for j, i in enumerate(order)]
        for size in (1, 2):
            for start in range(0, len(order) - size + 1, size):
                rows = order[start : start + size]
                pairs += zip(infer_batch(model, X[rows]), rows)
        for got, i in pairs:
            want = infer(model, X[i])
            assert got.point_estimate == want.point_estimate
            assert got.error_probability == want.error_probability
            np.testing.assert_array_equal(got.responsibilities, want.responsibilities)
            np.testing.assert_array_equal(got.means, want.means)
            np.testing.assert_array_equal(got.variances, want.variances)

    def test_predict_batch_is_one_batch(self):
        model, _ = trained_model(2)
        samples = make_samples(np.linspace(2.0, 70.0, 9), seed=5)
        preds, targets = predict_batch(model, samples)
        want = infer_batch(model, [s.features for s in samples])
        assert targets.tolist() == [s.target for s in samples]
        np.testing.assert_array_equal(preds.point_estimate, want.point_estimate)
        preds, targets = predict_batch(model, [])
        assert len(preds) == 0 and targets.shape == (0,)


class TestInputs:
    def test_empty_batch(self):
        model = manual_model(2, [0.5, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0])
        for X in (np.empty((0, N_FEATURES)), []):
            batch = infer_batch(model, X)
            assert len(batch) == 0 and list(batch) == []
            assert batch.responsibilities.shape == batch.means.shape == (0, 4)

    def test_dimension_mismatch_names_both(self):
        model = manual_model(0, [], [1.0])
        with pytest.raises(InvalidInputError, match="feature dimension 5 does not match model dimension 8"):
            infer_batch(model, np.zeros((3, 5)))

    def test_non_finite_row_rejected(self):
        model = manual_model(0, [], [1.0])
        X = np.zeros((4, N_FEATURES))
        X[2, 3] = np.inf
        with pytest.raises(InvalidInputError, match="feature vector contains non-finite values"):
            infer_batch(model, X)

    @pytest.mark.parametrize(
        "margin, floor",
        [(np.nan, 0.0), (np.inf, 0.0), (-0.1, 0.0), (0.05, np.nan), (0.05, np.inf), (0.05, -1.0)],
    )
    def test_margin_and_floor_must_be_finite_and_non_negative(self, margin, floor):
        model = manual_model(0, [], [1.0])
        with pytest.raises(
            InvalidInputError, match="margin fraction and floor must be finite and non-negative"
        ):
            infer_batch(model, np.zeros((2, N_FEATURES)), margin, floor)

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("responsibilities", [np.nan, 0.5], "distribution"),
            ("responsibilities", [np.nan, np.nan], "distribution"),
            ("variances", [np.nan, 1.0], "variances must be positive"),
        ],
    )
    def test_nan_component_rejected(self, field, values, message):
        args = {"responsibilities": [0.5, 0.5], "means": [1.0, 2.0], "variances": [1.0, 1.0],
                "point_estimate": 1.5, "error_probability": 0.5, field: values}
        with pytest.raises(InvalidInputError, match=message):
            MixturePrediction(**args)

    def test_not_a_matrix(self):
        model = manual_model(0, [], [1.0])
        with pytest.raises(InvalidInputError, match="2-d"):
            infer_batch(model, np.zeros(N_FEATURES))

    def test_extreme_activations_saturate_without_warning(self):
        # Gate activation +-1000 * kappa: exp(1000) overflows in the sigmoid.
        d = N_FEATURES + 1
        mean = np.zeros(d)
        mean[1] = 1.0
        base = manual_model(1, [0.5], [10.0, 50.0])
        gate = GatePosterior(mean=mean, covariance=1e-9 * np.eye(d))
        model = MoEModel(
            spec=base.spec,
            gates=(gate,),
            experts=base.experts,
            standardization=FeatureStats(mean=np.zeros(N_FEATURES), scale=np.ones(N_FEATURES)),
        )
        X = np.zeros((2, N_FEATURES))
        X[:, 0] = [-1000.0, 1000.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = infer_batch(model, X)
        np.testing.assert_array_equal(low.responsibilities, [1.0, 0.0])
        np.testing.assert_array_equal(high.responsibilities, [0.0, 1.0])
        assert math.isclose(low.point_estimate, 10.0) and math.isclose(high.point_estimate, 50.0)


class TestBatch:
    """One :class:`MixturePrediction` holds the whole batch and is checked once."""

    def test_rows_and_masks_agree_with_infer(self, model_and_rows):
        model, X = model_and_rows
        batch = infer_batch(model, X)
        mask = batch.point_estimate > np.median(batch.point_estimate)
        for sub, rows in ((batch, np.arange(len(X))), (batch[mask], np.flatnonzero(mask)),
                          (batch[1::3], np.arange(len(X))[1::3])):
            assert len(sub) == len(rows)
            for j, i in enumerate(rows.tolist()):
                got, want = sub[j], infer(model, X[i])
                assert type(got.point_estimate) is float and type(got.error_probability) is float
                assert repr(got.point_estimate) == repr(want.point_estimate)
                assert repr(got.error_probability) == repr(want.error_probability)
                for name in ("responsibilities", "means", "variances"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert repr(batch[-1].point_estimate) == repr(infer(model, X[-1]).point_estimate)
        with pytest.raises(IndexError):
            batch[len(X)]

    def test_one_prediction_is_not_a_batch(self):
        pred = infer(manual_model(1, [0.5], [1.0, 2.0]), np.zeros(N_FEATURES))
        with pytest.raises(TypeError):
            len(pred)
        with pytest.raises(TypeError):
            pred[0]

    def test_batch_summary_equals_row_summary(self, model_and_rows):
        model, X = model_and_rows
        batch = infer_batch(model, X)
        targets = np.random.default_rng(2).uniform(0.0, 80.0, len(X))
        thresholds = (0.9, 0.5, 0.25, 0.10)
        got = summarize_predictions([(batch, targets)], thresholds)
        want = summarize_predictions(list(zip(batch, targets.tolist())), thresholds)
        assert got == want
        assert got.as_dict() == want.as_dict()
        # split into sub-batches, as evaluate's train and validation reports are
        half = np.arange(len(X)) % 2 == 0
        parts = [(batch[half], targets[half]), (batch[~half], targets[~half])]
        merged = summarize_predictions(parts, thresholds).as_dict()
        assert merged["n_samples"] == len(X)
        assert [merged[f"n_retained_{t}"] for t in (90, 50, 25, 10)] == [
            got.as_dict()[f"n_retained_{t}"] for t in (90, 50, 25, 10)
        ]

    @pytest.mark.parametrize("n_targets", [0, 5, 7])
    def test_target_count_must_match(self, n_targets):
        model, X = trained_model(1)
        batch = infer_batch(model, X[:6])
        with pytest.raises(InvalidInputError, match="does not match prediction shape"):
            summarize_predictions([(batch, np.ones(n_targets))])

    def test_scalar_target_is_not_broadcast(self):
        model, X = trained_model(1)
        with pytest.raises(InvalidInputError, match="does not match prediction shape"):
            summarize_predictions([(infer_batch(model, X[:6]), 10.0)])
        with pytest.raises(InvalidInputError, match="does not match prediction shape"):
            summarize_predictions([(infer(model, X[0]), [10.0])])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("responsibilities", np.nan, "distribution"),
            ("responsibilities", -0.25, "distribution"),
            ("variances", 0.0, "variances must be positive"),
            ("variances", -1.0, "variances must be positive"),
            ("variances", np.nan, "variances must be positive"),
            ("error_probability", 1.5, r"error probability must be in \[0, 1\]"),
            ("error_probability", np.nan, r"error probability must be in \[0, 1\]"),
        ],
    )
    def test_bad_middle_row_rejected(self, field, value, message):
        model, X = trained_model(2)
        good = infer_batch(model, X[:5])
        arrays = {name: np.array(getattr(good, name)) for name in (
            "responsibilities", "means", "variances", "point_estimate", "error_probability"
        )}
        MixturePrediction(**arrays)  # the copy itself is valid
        if arrays[field].ndim == 2:
            arrays[field][2, 1] = value
        else:
            arrays[field][2] = value
        with pytest.raises(InvalidInputError, match=message):
            MixturePrediction(**arrays)

    def test_one_estimate_per_row(self):
        model, X = trained_model(2)
        good = infer_batch(model, X[:5])
        with pytest.raises(InvalidInputError, match="one per row"):
            MixturePrediction(
                good.responsibilities, good.means, good.variances,
                good.point_estimate[:4], good.error_probability[:4],
            )

    def test_mixture_functions_take_one_y_per_row(self, model_and_rows):
        model, X = model_and_rows
        batch = infer_batch(model, X)
        y = np.linspace(0.0, 80.0, len(X))
        cdf, density = mixture_cdf(batch, y), mixture_density(batch, y)
        assert cdf.shape == density.shape == (len(X),)
        for i in range(len(X)):
            assert cdf[i] == pytest.approx(mixture_cdf(batch[i], y[i]), rel=1e-14, abs=1e-300)
            assert density[i] == pytest.approx(mixture_density(batch[i], y[i]), rel=1e-14, abs=1e-300)
