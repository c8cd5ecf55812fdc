"""Variational Bayesian node models: logistic gates and linear experts.

Gate nodes are binary classifiers fitted with the Jaakkola-Jordan local
variational bound; expert nodes are linear regressors fitted by mean-field
variational inference with a Gamma hyperprior on the weight precision and a
point-optimized noise precision. Both produce multivariate Gaussian weight
posteriors, so their predictive distributions are closed form:

    gate:   p(z=True | x) = sigmoid(kappa(s2) * mu_N^T phi(x)),
            kappa(s2) = (1 + pi * s2 / 8)^(-1/2),  s2 = phi^T Sigma_N phi
    expert: y | x ~ Normal(mu_N^T phi(x), beta^-1 + phi^T Sigma_N phi)

where phi is the basis expansion configured by :class:`BasisConfig`.
The three special functions these fits need (the logistic sigmoid, digamma
and log-gamma) are computed here with numpy and :mod:`math`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError

# Minimum eigenvalue for a gate covariance to count as positive definite.
SPD_EIGENVALUE_TOL = 1e-10

# Condition number above which precision matrices are rejected.
_CONDITION_LIMIT = 1e12

# Ceiling for the optimized noise precision; keeps covariances invertible
# when an expert interpolates its samples exactly (predictive variance
# floor of 1e-12).
BETA_MAX = 1e12

# Digamma: the recurrence shifts x up to this value, where the asymptotic
# series below has first omitted term 1 / (12 x^14) < 1e-15.
_DIGAMMA_SHIFT = 10.0

# B_2k / (2k) for k = 1..6: psi(x) ~ ln x - 1/(2x) - sum_k c_k x^(-2k).
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)


def _expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), computed as scipy's ``expit``.

    A float gives a float, an array an array; either is 0.0 where exp(-x)
    overflows, with no warning.
    """
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-x))
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) of a float x > 0.

    psi(x) = psi(x + 1) - 1/x moves x to at least _DIGAMMA_SHIFT, where the
    asymptotic series takes over.
    """
    shift = 0.0
    while x < _DIGAMMA_SHIFT:
        shift -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = series * z + c
    return shift + math.log(x) - 0.5 / x - series * z


@dataclass(frozen=True)
class BasisConfig:
    """Feature map applied to raw inputs before any node fit.

    "linear-with-bias" prepends a constant 1 to the features. "polynomial"
    additionally appends per-feature powers up to ``degree`` (no cross
    terms). Output dimension is ``1 + n_features * degree`` with degree
    treated as 1 for the linear kind.
    """

    kind: str = "linear-with-bias"
    degree: int = 1

    def __post_init__(self):
        if self.kind not in ("linear-with-bias", "polynomial"):
            raise InvalidInputError(f"unknown basis kind: {self.kind!r}")
        if int(self.degree) < 1:
            raise InvalidInputError("basis degree must be >= 1")
        object.__setattr__(self, "degree", int(self.degree))

    @property
    def effective_degree(self) -> int:
        return self.degree if self.kind == "polynomial" else 1

    def output_dim(self, n_features: int) -> int:
        return 1 + n_features * self.effective_degree


def design_matrix(X, config: BasisConfig = BasisConfig()) -> np.ndarray:
    """Basis expansion of each row: [1, x_1^1..x_1^deg, x_2^1..x_2^deg, ...], shape (N, D)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise InvalidInputError("expected a 2-d sample matrix")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("feature vector contains non-finite values")
    deg = config.effective_degree
    n = X.shape[0]
    if deg == 1:
        return np.hstack([np.ones((n, 1)), X])
    blocks = [np.ones((n, 1))]
    for f in range(X.shape[1]):
        blocks.append(X[:, f : f + 1] ** np.arange(1, deg + 1))
    return np.hstack(blocks)


def lambda_jj(xi):
    """Jaakkola-Jordan curvature coefficient (sigmoid(xi) - 1/2) / (2 xi).

    Defined by its limit 1/8 at xi = 0; decreases towards 0 as xi grows.
    Accepts scalars or arrays of non-negative values.
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInputError("xi must be finite and non-negative")
    out = np.full(arr.shape, 0.125)
    big = arr > 1e-6
    out[big] = (_expit(arr[big]) - 0.5) / (2.0 * arr[big])
    return float(out[0]) if np.ndim(xi) == 0 else out


def kappa(sigma2_a):
    """Variance moderation factor (1 + pi * sigma2 / 8)^(-1/2).

    Equals 1 at zero variance and decreases monotonically, shrinking the
    gate activation towards 0 (probability towards 1/2) as the posterior
    gets more uncertain along phi(x). Accepts scalars or arrays of
    non-negative values.
    """
    sigma2_a = np.asarray(sigma2_a, dtype=float)
    if np.any(sigma2_a < 0):
        raise InvalidInputError("activation variance must be non-negative")
    return 1.0 / np.sqrt(1.0 + np.pi * sigma2_a / 8.0)


def _check_spd(cov: np.ndarray, what: str, tol: float = SPD_EIGENVALUE_TOL) -> None:
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidInputError(f"{what} covariance must be square")
    if not np.allclose(cov, cov.T, rtol=1e-7, atol=1e-10):
        raise InvalidInputError(f"{what} covariance must be symmetric")
    smallest = float(np.linalg.eigvalsh(cov)[0])
    if smallest <= tol:
        raise InvalidInputError(
            f"{what} covariance not positive definite "
            f"(min eigenvalue {smallest:.3e})"
        )


@dataclass(frozen=True)
class GatePosterior:
    """Gaussian weight posterior of a binary threshold classifier.

    ``mean``, ``covariance`` and ``basis`` are all that prediction uses and
    all that a model file keeps of a gate. ``warnings`` flag a degenerate fit
    or one stopped at the iteration cap, and ``bound_trace`` is the
    variational lower bound per iteration; both are diagnostics of the fit
    and are not saved.
    """

    mean: np.ndarray
    covariance: np.ndarray
    basis: BasisConfig = BasisConfig()
    warnings: tuple = ()
    bound_trace: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        if self.mean.ndim != 1:
            raise InvalidInputError("posterior mean must be a vector")
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise InvalidInputError("posterior covariance shape mismatch")
        _check_spd(self.covariance, "gate")


@dataclass(frozen=True)
class ExpertPosterior:
    """Gaussian weight posterior plus noise precision of a regression node.

    As for :class:`GatePosterior`, ``warnings`` and ``bound_trace`` are
    diagnostics of the fit and are not saved.
    """

    mean: np.ndarray
    covariance: np.ndarray
    noise_precision: float
    basis: BasisConfig = BasisConfig()
    warnings: tuple = ()
    bound_trace: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float))
        if self.mean.ndim != 1:
            raise InvalidInputError("posterior mean must be a vector")
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise InvalidInputError("posterior covariance shape mismatch")
        # Experts may legitimately collapse towards interpolation (huge beta,
        # tiny covariance), so only strict positivity is required here.
        _check_spd(self.covariance, "expert", tol=0.0)
        if not self.noise_precision > 0:
            raise InvalidInputError("noise precision must be positive")


def _solve_precision(prec: np.ndarray, what: str) -> tuple:
    """Covariance and its log-determinant from a symmetric precision matrix.

    One eigendecomposition prec = V diag(lam) V^T gives the positive
    definiteness check, the 2-norm condition number lam_max / lam_min (what
    ``np.linalg.cond`` computes for an SPD matrix), the covariance
    V diag(1 / lam) V^T and ln|Sigma| = -sum ln lam.
    """
    evals, vecs = np.linalg.eigh(prec)
    cond = float(evals[-1]) / float(evals[0]) if evals[0] > 0 else math.inf
    if not cond <= _CONDITION_LIMIT:
        raise NumericalError(
            f"{what} precision matrix is ill-conditioned "
            f"(condition number {cond:.3e}); check feature scaling"
        )
    cov = (vecs / evals) @ vecs.T
    return 0.5 * (cov + cov.T), -float(np.sum(np.log(evals)))


def _converged(bound: float, prev_bound: float, tol: float) -> bool:
    """Relative change of the lower bound within ``tol``, from the second iteration on."""
    return bool(np.isfinite(prev_bound)) and abs(bound - prev_bound) <= tol * max(
        1.0, abs(prev_bound)
    )


def _check_max_iters(max_iters: int) -> None:
    """A fit makes at least one iteration: its result is the posterior of one."""
    if max_iters < 1:
        raise InvalidInputError(f"max_iters must be at least 1, got {max_iters}")


def _cap_warning(max_iters: int, tol: float) -> str:
    return f"not converged: stopped at the {max_iters}-iteration cap (tol {tol:g})"


def fit_vb_logistic(
    designs,
    labels,
    prior_precision: float = 1.0,
    max_iters: int = 200,
    tol: float = 1e-6,
    basis: BasisConfig = BasisConfig(),
) -> GatePosterior:
    """Fit q(w) = Normal(mu_N, Sigma_N) to binary data by the local bound.

    Parameters
    ----------
    designs : (N, D) array
        Basis-expanded input rows.
    labels : (N,) array
        Binary targets in {0, 1}.
    prior_precision : float
        Precision of the zero-mean isotropic Gaussian weight prior.
    max_iters, tol : int, float
        Iteration cap and relative lower-bound change for convergence.

    The update alternates the Gaussian refit for fixed xi with the closed
    form xi update; the variational lower bound is non-decreasing across
    iterations. Single-class inputs are fitted anyway but flagged in the
    result's ``warnings``, as is a fit that stops at ``max_iters``.
    """
    Phi = np.asarray(designs, dtype=float)
    t = np.asarray(labels, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] == 0:
        raise InvalidInputError("need at least one training row")
    if t.shape != (Phi.shape[0],):
        raise InvalidInputError("labels must be one per design row")
    if not (np.all(np.isfinite(Phi)) and np.all(np.isfinite(t))):
        raise InvalidInputError("non-finite training values")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise InvalidInputError("labels must be binary 0/1")
    if not (np.isfinite(prior_precision) and prior_precision > 0):
        raise InvalidInputError(f"prior precision must be finite and positive, got {prior_precision}")
    _check_max_iters(max_iters)

    flags = ()
    if np.unique(t).size < 2:
        flags = (f"degenerate gate: single-class labels (all {int(t[0])})",)

    n, d = Phi.shape
    eye = np.eye(d)
    xi = np.ones(n)
    prev_bound = -np.inf
    trace = []
    mu = np.zeros(d)
    cov = eye / prior_precision
    for _ in range(max_iters):
        lam = lambda_jj(xi)
        prec = prior_precision * eye + 2.0 * (Phi.T * lam) @ Phi
        cov, logdet_cov = _solve_precision(prec, "gate")
        mu = cov @ (Phi.T @ (t - 0.5))
        # Bound for the current xi with its optimal Gaussian (prior mean 0):
        # 0.5 ln|Sigma_N| + (D/2) ln alpha + 0.5 mu^T Sigma_N^-1 mu
        #   + sum_n [ln sigmoid(xi) - xi/2 + lambda(xi) xi^2]
        bound = (
            0.5 * logdet_cov
            + 0.5 * d * np.log(prior_precision)
            + 0.5 * float(mu @ prec @ mu)
            + float(np.sum(np.log(_expit(xi)) - 0.5 * xi + lam * xi**2))
        )
        trace.append(bound)
        if _converged(bound, prev_bound, tol):
            break
        prev_bound = bound
        second_moment = cov + np.outer(mu, mu)
        xi = np.sqrt(np.maximum(np.einsum("nd,nd->n", Phi @ second_moment, Phi), 0.0))
    else:
        flags += (_cap_warning(max_iters, tol),)
    return GatePosterior(
        mean=mu,
        covariance=cov,
        basis=basis,
        warnings=flags,
        bound_trace=tuple(trace),
    )


def _activations(posteriors, Phi: np.ndarray) -> tuple:
    """mu_k^T phi_n and phi_n^T Sigma_k phi_n for design rows n and nodes k, each (N, K).

    einsum, unlike BLAS ``@``, sums each row alone: a row's bits do not depend on the batch.
    """
    d = Phi.shape[1]
    for posterior in posteriors:
        if posterior.mean.size != d:
            raise InvalidInputError(
                f"design dimension {d} does not match "
                f"posterior dimension {posterior.mean.size}"
            )
    means = np.array([p.mean for p in posteriors]).reshape(-1, d)
    covs = np.array([p.covariance for p in posteriors]).reshape(-1, d, d)
    return (
        np.einsum("nd,kd->nk", Phi, means),
        np.einsum("nd,kde,ne->nk", Phi, covs, Phi),
    )


def gate_probabilities(gates, Phi) -> np.ndarray:
    """P(z_g = True | phi_n) for design rows Phi (N, D) and gates g, shape (N, G)."""
    activation, activation_var = _activations(gates, Phi)
    return _expit(kappa(activation_var) * activation)


def expert_predictions(experts, Phi) -> tuple:
    """Predictive means and variances of experts m for design rows Phi (N, D), each (N, M)."""
    means, quad = _activations(experts, Phi)
    noise = 1.0 / np.array([e.noise_precision for e in experts], dtype=float)
    return means, noise + quad


def _linear_elbo(n, d, sq_err, expected_w2, logdet_cov, beta, a0, b0, a_n, b_n):
    """Expert lower bound from the fit's moments: sq_err = sum_n E[(y_n - w^T phi_n)^2]
    (residuals plus quadratic terms), expected_w2 = E[w^T w], logdet_cov = ln|Sigma_N|."""
    loglik = 0.5 * n * (np.log(beta) - np.log(2 * np.pi)) - 0.5 * beta * sq_err
    entropy_w = 0.5 * d * (1 + np.log(2 * np.pi)) + 0.5 * logdet_cov
    e_alpha = a_n / b_n
    e_ln_alpha = _digamma(a_n) - np.log(b_n)
    prior_w = -0.5 * d * np.log(2 * np.pi) + 0.5 * d * e_ln_alpha - 0.5 * e_alpha * expected_w2
    prior_alpha = a0 * np.log(b0) - math.lgamma(a0) + (a0 - 1) * e_ln_alpha - b0 * e_alpha
    entropy_alpha = a_n - np.log(b_n) + math.lgamma(a_n) + (1 - a_n) * _digamma(a_n)
    return loglik + prior_w + prior_alpha + entropy_w + entropy_alpha


def fit_vb_linear(
    designs,
    targets,
    a0: float = 1e-2,
    b0: float = 1e-4,
    beta_init: float = 1.0,
    max_iters: int = 200,
    tol: float = 1e-6,
    basis: BasisConfig = BasisConfig(),
) -> ExpertPosterior:
    """Fit a Bayesian linear regressor by mean-field variational inference.

    q(w) is Gaussian, q(alpha) is Gamma(a0 + D/2, b0 + E[w^T w]/2), and the
    noise precision beta is re-estimated each iteration by its fixed point

        beta^-1 = (1/N) sum_n [(y_n - mu_N^T phi_n)^2 + phi_n^T Sigma_N phi_n]

    which maximizes the bound for the current q(w). A fit that stops at
    ``max_iters`` is flagged in the result's ``warnings``.
    """
    Phi = np.asarray(designs, dtype=float)
    y = np.asarray(targets, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] == 0:
        raise InvalidInputError("need at least one training row")
    if y.shape != (Phi.shape[0],):
        raise InvalidInputError("targets must be one per design row")
    if not (np.all(np.isfinite(Phi)) and np.all(np.isfinite(y))):
        raise InvalidInputError("non-finite training values")
    if not all(np.isfinite(v) and v > 0 for v in (a0, b0, beta_init)):
        raise InvalidInputError("prior hyperparameters must be finite and positive")
    _check_max_iters(max_iters)

    n, d = Phi.shape
    eye = np.eye(d)
    gram = Phi.T @ Phi
    proj = Phi.T @ y
    beta = float(beta_init)
    a_n = a0 + 0.5 * d
    e_alpha = a0 / b0
    prev_bound = -np.inf
    trace = []
    flags = ()
    for _ in range(max_iters):
        prec = e_alpha * eye + beta * gram
        cov, logdet_cov = _solve_precision(prec, "expert")
        mu = beta * (cov @ proj)
        expected_w2 = float(mu @ mu + np.trace(cov))
        b_n = b0 + 0.5 * expected_w2
        e_alpha = a_n / b_n
        resid2 = float(((y - Phi @ mu) ** 2).sum())
        quad = float(np.einsum("nd,nd->n", Phi @ cov, Phi).sum())
        beta = min(n / (resid2 + quad), BETA_MAX)
        bound = _linear_elbo(n, d, resid2 + quad, expected_w2, logdet_cov, beta, a0, b0, a_n, b_n)
        trace.append(bound)
        if _converged(bound, prev_bound, tol):
            break
        prev_bound = bound
    else:
        flags = (_cap_warning(max_iters, tol),)
    return ExpertPosterior(
        mean=mu,
        covariance=cov,
        noise_precision=beta,
        basis=basis,
        warnings=flags,
        bound_trace=tuple(trace),
    )
