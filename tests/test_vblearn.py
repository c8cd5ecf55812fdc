"""Unit and oracle tests for the variational node models."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import digamma, expit, gammaln

from rainlidar.errors import InvalidInputError, NumericalError
from rainlidar.vblearn import (
    _CONDITION_LIMIT,
    BasisConfig,
    ExpertPosterior,
    GatePosterior,
    _digamma,
    _expit,
    _solve_precision,
    design_matrix,
    expert_predictions,
    fit_vb_linear,
    fit_vb_logistic,
    gate_probabilities,
    kappa,
    lambda_jj,
)
from tests.test_infer_batch import _oracle_apply_basis


def bound_is_monotone(trace, slack=1e-8):
    trace = np.asarray(trace)
    return bool(np.all(np.diff(trace) >= -slack * np.maximum(1.0, np.abs(trace[:-1]))))


def gate_probability_at(posterior, x):
    """P(z = True | x) of one gate at one raw input, through the batched kernel."""
    Phi = design_matrix(np.atleast_2d(x), posterior.basis)
    return float(gate_probabilities((posterior,), Phi)[0, 0])


def expert_prediction_at(posterior, x):
    """(mean, variance) of one expert at one raw input, through the batched kernel."""
    Phi = design_matrix(np.atleast_2d(x), posterior.basis)
    means, variances = expert_predictions((posterior,), Phi)
    return float(means[0, 0]), float(variances[0, 0])


def spd_matrix(evals, seed=0):
    """Q diag(evals) Q^T for a seeded random orthogonal Q."""
    evals = np.asarray(evals, dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(evals.size, evals.size)))
    a = (q * evals) @ q.T
    return 0.5 * (a + a.T)


class TestBasis:
    def test_linear_with_bias(self):
        np.testing.assert_array_equal(design_matrix([[2.0]]), [[1.0, 2.0]])

    def test_zero_vector(self):
        np.testing.assert_array_equal(design_matrix([[0.0, 0.0]]), [[1.0, 0.0, 0.0]])

    def test_polynomial_degree_2(self):
        cfg = BasisConfig(kind="polynomial", degree=2)
        np.testing.assert_array_equal(design_matrix([[2.0]], cfg), [[1.0, 2.0, 4.0]])

    def test_output_dim(self):
        cfg = BasisConfig(kind="polynomial", degree=3)
        assert cfg.output_dim(8) == 25
        assert design_matrix(np.ones((1, 8)), cfg).shape == (1, 25)

    def test_design_matrix_matches_apply_basis(self):
        # Each row equals the per-sample expansion (the oracle) and the
        # expansion of that row alone.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        for cfg in (BasisConfig(), BasisConfig(kind="polynomial", degree=3)):
            M = design_matrix(X, cfg)
            for i in range(7):
                np.testing.assert_array_equal(M[i], _oracle_apply_basis(X[i], cfg))
                np.testing.assert_array_equal(M[i], design_matrix(X[i : i + 1], cfg)[0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            design_matrix([[np.nan]])

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInputError):
            BasisConfig(kind="fourier")
        with pytest.raises(InvalidInputError):
            BasisConfig(kind="polynomial", degree=0)


class TestLambdaJJ:
    def test_limit_at_zero(self):
        assert lambda_jj(0.0) == pytest.approx(0.125)

    def test_asymptotic_decay(self):
        # sigmoid(100) saturates to 1.0 in float64, so the exact value sits
        # at the bound itself; check the bound plus strict decay.
        assert lambda_jj(100.0) <= 0.0025
        assert lambda_jj(30.0) < lambda_jj(20.0) < lambda_jj(10.0) < 0.025

    def test_direct_evaluation(self):
        # sigmoid(2) = 0.880797..., lambda = (sigmoid(2) - 0.5) / 4
        assert lambda_jj(2.0) == pytest.approx((expit(2.0) - 0.5) / 4.0, rel=1e-12)
        assert lambda_jj(2.0) == pytest.approx(0.0951987, abs=1e-6)

    def test_range(self):
        xs = np.linspace(0, 50, 1001)
        vals = lambda_jj(xs)
        assert np.all(vals > 0) and np.all(vals <= 0.125)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            lambda_jj(-0.1)


class TestKappa:
    def test_kappa_zero_is_one(self):
        assert kappa(0.0) == 1.0

    def test_monotone_decreasing(self):
        vals = [kappa(s) for s in np.linspace(0, 20, 200)]
        assert np.all(np.diff(vals) < 0)

    def test_array_equals_scalars(self):
        s2 = np.linspace(0, 20, 60).reshape(3, 20)
        got = kappa(s2)
        assert got.shape == (3, 20)
        np.testing.assert_array_equal(got, [[kappa(v) for v in row] for row in s2.tolist()])

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            kappa(-1e-3)
        with pytest.raises(InvalidInputError):
            kappa(np.array([[0.5, 1.0], [2.0, -1e-3]]))


def digamma_grid():
    """(0, 100] with every shift count of the recurrence, plus the a0 + D/2
    values at which the expert bound evaluates digamma (a0 = 1e-2, D = 1..33)."""
    return np.unique(np.concatenate([
        np.linspace(0.0, 100.0, 20_001)[1:],
        np.geomspace(1e-6, 1.0, 601),
        np.arange(1, 101, dtype=float),
        1e-2 + np.arange(1, 34) / 2.0,
    ]))


class TestSpecialFunctionOracles:
    """The sigmoid, digamma and log-gamma against ``scipy.special``."""

    def test_expit_scalar_is_bit_identical(self):
        xs = np.concatenate([
            np.random.default_rng(0).normal(0.0, 15.0, 20_000),
            np.linspace(-745.0, 40.0, 5_001),
            [0.0, -0.0, 1e-300, -1e-300, 36.7, 709.0, -709.0, -709.8],
        ])
        for x in xs.tolist():
            got = _expit(x)
            assert type(got) is float
            assert got == float(expit(x)), x

    def test_expit_array_within_two_ulp(self):
        # numpy's SIMD exp may differ from the C library's exp in the last bit.
        xs = np.concatenate([
            np.random.default_rng(1).normal(0.0, 10.0, 100_000),
            np.linspace(-800.0, 800.0, 16_001),
        ])
        got = _expit(xs)
        want = expit(xs)
        assert got.shape == xs.shape
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_expit_underflows_to_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _expit(-1000.0) == 0.0
            assert _expit(np.float64(-1000.0)) == 0.0
            assert _expit(1000.0) == 1.0
            np.testing.assert_array_equal(_expit(np.array([-1000.0, -710.0, 1000.0])), [0.0, 0.0, 1.0])

    def test_digamma_absolute_error(self):
        xs = digamma_grid()
        got = np.array([_digamma(x) for x in xs.tolist()])
        want = digamma(xs)
        # Absolute from 0.5 up, where |psi| <= 4.6. Below, psi(x) ~ -1/x
        # grows without bound, and the rounding of -1/x with it (3.4e-13
        # absolute at x = 1.2e-3), so the bound there is relative.
        big = xs >= 0.5
        assert np.max(np.abs(got - want)[big]) <= 1e-14
        assert np.all(np.abs(got - want)[~big] <= 1e-14 * np.abs(want[~big]))

    def test_lgamma_matches_gammaln(self):
        xs = digamma_grid()
        got = np.array([math.lgamma(x) for x in xs.tolist()])
        np.testing.assert_allclose(got, gammaln(xs), rtol=1e-14, atol=1e-14)


class TestSolvePrecision:
    """The one eigendecomposition behind each fit iteration."""

    @pytest.mark.parametrize(
        "cond, rejected", [(1.01e12, True), (0.99e12, False)], ids=["1.01e12", "0.99e12"]
    )
    def test_condition_limit(self, cond, rejected):
        # Same side of the 1e12 limit as the 2-norm condition number of an SVD.
        for d, seed in ((2, 0), (5, 1), (9, 2)):
            prec = spd_matrix(np.geomspace(1.0, cond, d), seed)
            assert (np.linalg.cond(prec) > _CONDITION_LIMIT) == rejected
            if rejected:
                with pytest.raises(NumericalError, match="gate precision matrix is ill-conditioned"):
                    _solve_precision(prec, "gate")
            else:
                cov, _ = _solve_precision(prec, "gate")
                assert np.all(np.isfinite(cov))

    @pytest.mark.parametrize(
        "prec",
        [
            np.ones((3, 3)),
            np.zeros((2, 2)),
            spd_matrix([0.0, 1.0, 2.0, 3.0]),
            np.diag([1.0, -1.0, 2.0]),
            spd_matrix([-1e-3, 1.0, 5.0], seed=4),
            np.full((2, 2), np.nan),
        ],
        ids=["ones", "zeros", "rank-3", "diag-indefinite", "indefinite", "nan"],
    )
    def test_singular_or_indefinite_rejected(self, prec):
        with pytest.raises(NumericalError, match="expert precision matrix"):
            _solve_precision(prec, "expert")

    def test_matches_inv_and_slogdet_oracle(self):
        rng = np.random.default_rng(13)
        for k in range(200):
            d = int(rng.integers(2, 13))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            evals = scale * np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 6.0), d)
            prec = spd_matrix(evals, seed=k)
            cov, logdet_cov = _solve_precision(prec, "gate")
            inv = np.linalg.inv(prec)
            assert np.max(np.abs(cov - inv)) <= 1e-9 * np.max(np.abs(inv)), k
            np.testing.assert_array_equal(cov, cov.T)
            sign, logdet_prec = np.linalg.slogdet(prec)
            assert sign == 1.0
            assert abs(logdet_cov + logdet_prec) <= 1e-9, k


class TestFitVBLogistic:
    @pytest.mark.parametrize("prior", [np.inf, np.nan, 0.0, -1.0])
    def test_prior_precision_must_be_finite_and_positive(self, prior):
        # an infinite prior made eigh fail to converge (LinAlgError)
        Phi, t = design_matrix(np.arange(4.0)[:, None]), np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError, match="prior precision must be finite and positive"):
            fit_vb_logistic(Phi, t, prior_precision=prior)

    def test_symmetric_data_kills_bias(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        t = (x > 0).astype(float)
        post = fit_vb_logistic(design_matrix(x[:, None]), t)
        assert abs(post.mean[0]) < 0.1 * abs(post.mean[1])
        assert post.mean[1] > 0

    def test_grid_integration_oracle(self):
        # 2 points, phi = [1, x]: exact posterior mean by dense quadrature
        # over [-10, 10]^2 must match the variational mean within 0.15.
        Phi = np.array([[1.0, -1.0], [1.0, 1.0]])
        t = np.array([0.0, 1.0])
        post = fit_vb_logistic(Phi, t, prior_precision=1.0)

        grid = np.arange(-10.0, 10.0 + 1e-9, 0.01)
        w0, w1 = np.meshgrid(grid, grid, indexing="ij")
        log_post = -0.5 * (w0**2 + w1**2)
        log_post += np.log(expit(-(w0 - w1)))  # x=-1, t=0
        log_post += np.log(expit(w0 + w1))  # x=+1, t=1
        density = np.exp(log_post - log_post.max())
        z = density.sum()
        exact = np.array([(w0 * density).sum() / z, (w1 * density).sum() / z])
        np.testing.assert_allclose(post.mean, exact, atol=0.15)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_vb_logistic(np.empty((0, 2)), np.empty(0))

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_vb_logistic(np.ones((2, 1)), np.array([0.0, 0.5]))

    def test_single_class_flags_warning(self):
        post = fit_vb_logistic(design_matrix(np.arange(4.0)[:, None]), np.zeros(4))
        assert post.warnings and "single-class" in post.warnings[0]

    def test_bound_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        t = (X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.normal(size=40) > 0).astype(float)
        post = fit_vb_logistic(design_matrix(X), t, tol=0.0, max_iters=60)
        assert len(post.bound_trace) >= 10
        assert bound_is_monotone(post.bound_trace)

    def test_iteration_cap_warns(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        t = (X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.normal(size=40) > 0).astype(float)
        capped = fit_vb_logistic(design_matrix(X), t, max_iters=3)
        assert len(capped.bound_trace) == 3
        assert capped.warnings == ("not converged: stopped at the 3-iteration cap (tol 1e-06)",)
        converged = fit_vb_logistic(design_matrix(X), t)
        assert len(converged.bound_trace) < 200
        assert converged.warnings == ()

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_no_iteration_cap_below_one(self, max_iters):
        t = np.array([0.0, 1.0, 1.0, 0.0])
        with pytest.raises(InvalidInputError, match="max_iters must be at least 1"):
            fit_vb_logistic(design_matrix(np.arange(4.0)[:, None]), t, max_iters=max_iters)

    def test_single_class_warning_comes_before_the_cap_warning(self):
        post = fit_vb_logistic(design_matrix(np.arange(4.0)[:, None]), np.ones(4), max_iters=1)
        assert len(post.warnings) == 2
        assert "single-class" in post.warnings[0] and "cap" in post.warnings[1]

    def test_posterior_invariants(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        t = (X[:, 0] > 0).astype(float)
        post = fit_vb_logistic(design_matrix(X), t)
        eigvals = np.linalg.eigvalsh(post.covariance)
        assert eigvals.min() > 1e-10


class TestPredictGate:
    def test_zero_mean_gives_half(self):
        post = GatePosterior(mean=np.zeros(3), covariance=np.eye(3))
        assert gate_probability_at(post, [0.7, -1.3]) == 0.5

    def test_zero_variance_limit_is_plain_sigmoid(self):
        mean = np.array([0.4, 1.1])
        post = GatePosterior(mean=mean, covariance=1e-9 * np.eye(2))
        x = np.array([2.0])
        expected = expit(mean @ design_matrix(x[None, :])[0])
        assert gate_probability_at(post, x) == pytest.approx(expected, abs=1e-6)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = rng.integers(2, 5)
            A = rng.normal(size=(d, d))
            post = GatePosterior(
                mean=rng.normal(scale=2, size=d),
                covariance=A @ A.T + 0.1 * np.eye(d),
            )
            p = gate_probability_at(post, rng.normal(size=d - 1))
            assert 0.0 < p < 1.0

    def test_monte_carlo_oracle(self):
        # Moderate-variance case: the variance-moderated sigmoid must match
        # averaging the sigmoid over posterior weight draws within 0.02.
        rng = np.random.default_rng(11)
        mean = np.array([0.3, 0.8, -0.5])
        A = rng.normal(size=(3, 3))
        cov = A @ A.T / 3.0 + 0.05 * np.eye(3)
        post = GatePosterior(mean=mean, covariance=cov)
        x = np.array([0.5, -0.2])
        draws = rng.multivariate_normal(mean, cov, size=100_000)
        mc = expit(draws @ design_matrix(x[None, :])[0]).mean()
        assert gate_probability_at(post, x) == pytest.approx(mc, abs=0.02)

    def test_complement_sums_to_one(self):
        post = GatePosterior(mean=np.array([1.0, 2.0]), covariance=np.eye(2))
        p = gate_probability_at(post, [0.3])
        assert p + (1.0 - p) == 1.0


class TestFitVBLinear:
    @pytest.mark.parametrize("name", ["a0", "b0", "beta_init"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
    def test_hyperparameters_must_be_finite_and_positive(self, name, value):
        Phi = design_matrix(np.arange(4.0)[:, None])
        with pytest.raises(InvalidInputError, match="hyperparameters must be finite and positive"):
            fit_vb_linear(Phi, np.arange(4.0), **{name: value})

    def test_matches_ridge_oracle(self):
        # Effective regularization of the variational solution is
        # E[alpha]/beta; the closed-form ridge fit with that penalty must
        # agree with the posterior mean.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        Phi = design_matrix(x[:, None])
        y = 2.0 * x
        post = fit_vb_linear(Phi, y)
        # recover E[alpha] from the fitted posterior: Sigma_N^-1 = E[a] I + beta Phi'Phi
        prec = np.linalg.inv(post.covariance)
        e_alpha = (prec - post.noise_precision * Phi.T @ Phi)[0, 0]
        ridge = np.linalg.solve(
            (e_alpha / post.noise_precision) * np.eye(2) + Phi.T @ Phi, Phi.T @ y
        )
        np.testing.assert_allclose(post.mean, ridge, atol=0.05)
        np.testing.assert_allclose(post.mean, [0.0, 2.0], atol=0.05)

    def test_zero_targets_give_zero_mean(self):
        Phi = design_matrix(np.arange(5.0)[:, None])
        post = fit_vb_linear(Phi, np.zeros(5))
        assert np.linalg.norm(post.mean) < 1e-6

    def test_noise_precision_recovery(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 5, 200)
        y = x + rng.normal(0, 0.5, 200)
        post = fit_vb_linear(design_matrix(x[:, None]), y)
        assert 0.125 <= 1.0 / post.noise_precision <= 0.5

    def test_bound_monotone(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = X @ np.array([1.0, -1.0]) + rng.normal(0, 0.4, 30)
        post = fit_vb_linear(design_matrix(X), y, tol=0.0, max_iters=80)
        assert len(post.bound_trace) >= 5
        assert bound_is_monotone(post.bound_trace)

    def test_iteration_cap_warns(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 2))
        y = X @ np.array([1.0, -1.0]) + rng.normal(0, 0.4, 30)
        capped = fit_vb_linear(design_matrix(X), y, max_iters=2)
        assert len(capped.bound_trace) == 2
        assert capped.warnings == ("not converged: stopped at the 2-iteration cap (tol 1e-06)",)
        converged = fit_vb_linear(design_matrix(X), y)
        assert len(converged.bound_trace) < 200
        assert converged.warnings == ()

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_no_iteration_cap_below_one(self, max_iters):
        with pytest.raises(InvalidInputError, match="max_iters must be at least 1"):
            fit_vb_linear(design_matrix(np.arange(4.0)[:, None]), np.arange(4.0), max_iters=max_iters)

    def test_empty_and_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_vb_linear(np.empty((0, 2)), np.empty(0))
        with pytest.raises(InvalidInputError):
            fit_vb_linear(np.ones((2, 2)), np.array([1.0, np.inf]))


class TestPredictExpert:
    def test_variance_decomposition_exact(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + 0.2 * np.eye(3)
        post = ExpertPosterior(
            mean=rng.normal(size=3), covariance=cov, noise_precision=4.0
        )
        x = rng.normal(size=2)
        phi = design_matrix(x[None, :])[0]
        mean, variance = expert_prediction_at(post, x)
        assert mean == pytest.approx(float(post.mean @ phi), abs=1e-12)
        direct = 0.25 + float(phi @ cov @ phi)
        assert variance == pytest.approx(direct, abs=1e-12)
        assert variance - 1.0 / post.noise_precision >= 0.0

    def test_tiny_covariance_variance_tends_to_noise(self):
        post = ExpertPosterior(
            mean=np.array([1.0, 2.0]), covariance=1e-14 * np.eye(2), noise_precision=2.0
        )
        _, variance = expert_prediction_at(post, [3.0])
        assert variance == pytest.approx(0.5, rel=1e-10)

    def test_quadratic_form_scaling(self):
        # With no weight on the bias row/column, doubling the input scales
        # the covariance contribution by 4.
        cov = np.diag([1e-12, 2.0])
        post = ExpertPosterior(mean=np.zeros(2), covariance=cov, noise_precision=1.0)
        v1 = expert_prediction_at(post, [1.0])[1] - 1.0
        v2 = expert_prediction_at(post, [2.0])[1] - 1.0
        assert v2 == pytest.approx(4.0 * v1, rel=1e-9)

    def test_extrapolation_grows_variance(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        post = fit_vb_linear(design_matrix(x[:, None]), 2.0 * x)
        far_mean, far_variance = expert_prediction_at(post, [10.0])
        _, near_variance = expert_prediction_at(post, [2.5])
        assert far_mean == pytest.approx(20.0, abs=0.2)
        assert far_variance > near_variance

    def test_dimension_mismatch_names_dims(self):
        post = ExpertPosterior(mean=np.zeros(3), covariance=np.eye(3), noise_precision=1.0)
        with pytest.raises(InvalidInputError, match="dimension 4 .* 3"):
            expert_prediction_at(post, [1.0, 2.0, 3.0])


class TestMonteCarloAgreementSweep:
    def test_twenty_random_posteriors(self):
        # Known quality of the variance moderation: within 0.02 absolute of
        # Monte-Carlo posterior averaging for activation variances <= 4.
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            mean = rng.normal(scale=1.5, size=d)
            A = rng.normal(size=(d, d))
            cov = A @ A.T
            x = rng.normal(size=d - 1)
            phi = np.concatenate(([1.0], x))
            s2 = float(phi @ cov @ phi)
            if s2 > 4.0:
                cov *= 4.0 / s2
            cov += 1e-6 * np.eye(d)
            post = GatePosterior(mean=mean, covariance=cov)
            draws = rng.multivariate_normal(mean, cov, size=100_000)
            mc = expit(draws @ phi).mean()
            assert gate_probability_at(post, x) == pytest.approx(mc, abs=0.02)
