"""Hierarchical mixture of experts over rainfall-rate ranges.

The gating tree is a full binary tree stored in heap order (root first,
then level by level). Every gate holds a rainfall threshold; gate True
means "target above the threshold" and selects the right branch. The
in-order sequence of gate thresholds gives the interior boundaries of the
expert ranges, so the lowest-level thresholds coincide with the borders
between adjacent experts.

Training is two-step: each gate is fitted on the samples whose target lies
inside its subtree's range (pruning), with minority-class duplication to
exact class balance; each expert is fitted only on its own range's samples.
Inference propagates gate probabilities root-to-leaf into responsibilities
and mixes the expert Gaussians into one predictive distribution.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field, fields

import numpy as np

from .errors import InvalidInputError, TrainingError
from .features import FeatureStats, standardize_apply, standardize_fit
from .vblearn import (
    BasisConfig,
    _check_max_iters,
    design_matrix,
    expert_predictions,
    fit_vb_linear,
    fit_vb_logistic,
    gate_probabilities,
)

BRANCH_CONVENTION = "gate True = target above threshold = right branch"

# 1/sqrt(2), the argument scale and the erf/erfc switch of _ndtr_scalar.
_SQRT1_2 = math.sqrt(0.5)

# Seed stream tag for per-gate class balancing draws.
_BALANCE_STREAM = 0xBA1A

MAX_DEPTH = 6


@dataclass(frozen=True)
class TreeSpec:
    """Tree shape: heap-ordered gate thresholds over a target range [lo, hi) mm/h.

    ``thresholds[k-1]`` is the threshold of gate node k (1-based heap
    index, root = 1); there are 2**depth - 1 of them. The depth and the
    ``expert_ranges`` follow from them: the in-order thresholds are the
    interior boundaries of the half-open ranges, left to right, which
    partition ``y_range``.
    """

    thresholds: tuple
    y_range: tuple
    depth: int = field(init=False)
    expert_ranges: tuple = field(init=False)

    def __post_init__(self):
        thresholds = tuple(float(h) for h in self.thresholds)
        depth = (len(thresholds) + 1).bit_length() - 1
        if 2**depth - 1 != len(thresholds):
            raise InvalidInputError(f"threshold count {len(thresholds)} is not 2**depth - 1")
        lo, hi = float(self.y_range[0]), float(self.y_range[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo < hi):
            raise InvalidInputError("y range must satisfy 0 <= lo < hi")
        _check_depth(depth)
        boundaries = [lo, *_inorder(thresholds), hi]
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            if not a < b:
                raise InvalidInputError(f"thresholds must increase in-order, got {a} >= {b}")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "y_range", (lo, hi))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "expert_ranges", tuple(zip(boundaries[:-1], boundaries[1:])))

    @property
    def n_gates(self) -> int:
        return len(self.thresholds)

    @property
    def n_experts(self) -> int:
        return len(self.expert_ranges)


def _check_depth(depth: int) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth must be in [0, {MAX_DEPTH}]")


def _inorder(heap) -> list:
    """In-order traversal of a heap-ordered full binary tree."""
    n = len(heap)
    out = []

    def rec(k: int) -> None:
        if k > n:
            return
        rec(2 * k)
        out.append(heap[k - 1])
        rec(2 * k + 1)

    rec(1)
    return out


def _subtree_leaves(depth: int, node: int) -> tuple:
    """Half-open leaf index range covered by heap node ``node``."""
    level = node.bit_length() - 1
    width = 1 << (depth - level)
    first = (node - (1 << level)) * width
    return first, first + width


def build_tree_spec(depth: int, y_range=(0.0, 80.0), thresholds=None) -> TreeSpec:
    """The :class:`TreeSpec` of ``thresholds`` over [lo, hi) mm/h, checked to have ``depth``.

    ``thresholds`` are heap-ordered (root first) and must be strictly
    increasing in in-order traversal; :func:`quantile_thresholds` derives
    them from training targets. Only depth 0 may omit them.
    """
    _check_depth(depth)
    spec = TreeSpec(tuple(thresholds or ()), y_range)
    if spec.depth != depth:
        raise InvalidInputError(
            f"depth {depth} requires {2**depth - 1} thresholds, got {spec.n_gates}; "
            "quantile_thresholds derives them from training targets"
        )
    return spec


def quantile_thresholds(targets, depth: int, y_range=(0.0, 80.0)) -> list:
    """Heap-ordered gate thresholds at the k / 2**depth quantiles of the targets.

    Only targets inside [lo, hi) count. With n of them sorted, threshold k
    (in order) lies midway between order statistics m - 1 and m, where
    m = k * n // 2**depth, so every expert range holds at least
    n // 2**depth >= 2 targets. Raises TrainingError when the targets cannot
    give every expert range 2 of them (too few, or too many ties).
    """
    lo, hi = TreeSpec((), y_range).y_range  # as the spec checks it
    _check_depth(depth)
    y = np.asarray(targets, dtype=float).reshape(-1)
    n_above = int(np.count_nonzero(y >= hi))
    y = np.sort(y[(y >= lo) & (y < hi)])
    n, n_experts = y.size, 2**depth
    enough = n >= 2 * n_experts
    if enough:
        cuts = [
            float(0.5 * (y[m - 1] + y[m]))
            for m in (k * n // n_experts for k in range(1, n_experts))
        ]
        # Ties at a cut can still leave a range with fewer than 2 targets.
        enough = np.diff(np.searchsorted(y, [lo, *cuts, hi])).min() >= 2
    if not enough:
        above = f"; {n_above} more lie at or above {hi}: raise --y-max" if n_above else ""
        raise TrainingError(
            f"cannot derive depth-{depth} thresholds from {np.unique(y).size} distinct "
            f"training targets in [{lo}, {hi}): each of the {n_experts} expert ranges "
            f"needs at least 2; pass --thresholds or a smaller --depth{above}"
        )
    heap = [0.0] * len(cuts)
    for node, cut in zip(_inorder(range(len(cuts))), cuts):
        heap[node] = cut
    return heap


@dataclass(frozen=True)
class MoEModel:
    """Trained mixture of experts: gates, experts, input standardization, and
    the feature basis of every node."""

    spec: TreeSpec
    gates: tuple
    experts: tuple
    standardization: FeatureStats
    basis: BasisConfig = BasisConfig()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.gates) != self.spec.n_gates:
            raise InvalidInputError("gate count must be 2**depth - 1")
        if len(self.experts) != self.spec.n_experts:
            raise InvalidInputError("expert count must be 2**depth")
        dim = self.basis.output_dim(self.n_features)
        names = [f"gate z{k}" for k in range(1, len(self.gates) + 1)]
        names += [f"expert e{m}" for m in range(1, len(self.experts) + 1)]
        for name, node in zip(names, (*self.gates, *self.experts)):
            if node.mean.size != dim:
                raise InvalidInputError(
                    f"{name} has dimension {node.mean.size}, but the {self.basis.kind} basis "
                    f"of {self.n_features} features has dimension {dim}"
                )

    @property
    def n_features(self) -> int:
        return self.standardization.mean.size


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by all node fits.

    The gate prior is deliberately weak (precision 0.03): features are
    z-scored over the whole dataset, which compresses class margins to
    order 1, and a unit-precision prior then caps gate confidence at levels
    that leak responsibility into neighboring experts.
    """

    basis: BasisConfig = BasisConfig()
    gate_prior_precision: float = 0.03
    expert_a0: float = 1e-2
    expert_b0: float = 1e-4
    expert_beta_init: float = 1.0
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        _check_max_iters(self.max_iters)

    def snapshot(self) -> dict:
        return {
            "basis_kind": self.basis.kind,
            "basis_degree": self.basis.degree,
            "gate_prior_precision": self.gate_prior_precision,
            "expert_a0": self.expert_a0,
            "expert_b0": self.expert_b0,
            "expert_beta_init": self.expert_beta_init,
            "max_iters": self.max_iters,
            "tol": self.tol,
        }


def _balance_classes(indices: np.ndarray, labels: np.ndarray, rng) -> tuple:
    """Duplicate minority-class rows (with replacement) to exact parity."""
    ones = int(labels.sum())
    zeros = labels.size - ones
    if ones == 0 or zeros == 0 or ones == zeros:
        return indices, labels
    minority = 1.0 if ones < zeros else 0.0
    pool = np.flatnonzero(labels == minority)
    extra = rng.choice(pool, size=abs(ones - zeros), replace=True)
    return (
        np.concatenate([indices, indices[extra]]),
        np.concatenate([labels, labels[extra]]),
    )


def train(samples, spec: TreeSpec, config: TrainConfig | None = None, seed: int = 0) -> MoEModel:
    """Two-step training: gates on subtree-pruned samples, experts per range.

    Standardization statistics come from the full sample set and are applied
    before every node fit. Gate labels are 1 when the target exceeds the
    node threshold; the minority class is duplicated by seeded sampling with
    replacement until class counts match. Samples with targets outside the
    modeled range are excluded from node fits and counted in the metadata.
    """
    config = config or TrainConfig()
    samples = list(samples)
    if not samples:
        raise InvalidInputError("training dataset is empty")
    X = np.stack([np.asarray(s.features, dtype=float) for s in samples])
    y = np.array([float(s.target) for s in samples])
    if np.any(y < 0):
        raise InvalidInputError("targets must be non-negative")

    lo, hi = spec.y_range
    in_range = (y >= lo) & (y < hi)
    n_outside = int(np.count_nonzero(~in_range))

    # Validate expert coverage before fitting anything.
    expert_index_sets = []
    for rlo, rhi in spec.expert_ranges:
        idx = np.flatnonzero((y >= rlo) & (y < rhi))
        if idx.size < 2:
            raise TrainingError(
                f"expert range [{rlo}, {rhi}) has {idx.size} training samples; "
                "need at least 2"
            )
        expert_index_sets.append(idx)

    stats = standardize_fit(X)
    Phi = design_matrix(standardize_apply(stats, X), config.basis)

    flags: list = []
    node_counts: dict = {}

    gates = []
    for k in range(1, spec.n_gates + 1):
        threshold = spec.thresholds[k - 1]
        leaf_lo, leaf_hi = _subtree_leaves(spec.depth, k)
        range_lo = spec.expert_ranges[leaf_lo][0]
        range_hi = spec.expert_ranges[leaf_hi - 1][1]
        idx = np.flatnonzero(in_range & (y >= range_lo) & (y < range_hi))
        labels = (y[idx] > threshold).astype(float)
        rng = np.random.default_rng([_BALANCE_STREAM, int(seed), k])
        fit_idx, fit_labels = _balance_classes(idx, labels, rng)
        posterior = fit_vb_logistic(
            Phi[fit_idx],
            fit_labels,
            prior_precision=config.gate_prior_precision,
            max_iters=config.max_iters,
            tol=config.tol,
        )
        for w in posterior.warnings:
            flags.append(f"gate z{k} (threshold {threshold}): {w}")
        node_counts[f"z{k}"] = {
            "threshold": threshold,
            "n_samples": int(idx.size),
            "n_balanced": int(fit_idx.size),
        }
        gates.append(posterior)

    experts = []
    for m, ((rlo, rhi), idx) in enumerate(zip(spec.expert_ranges, expert_index_sets), start=1):
        posterior = fit_vb_linear(
            Phi[idx],
            y[idx],
            a0=config.expert_a0,
            b0=config.expert_b0,
            beta_init=config.expert_beta_init,
            max_iters=config.max_iters,
            tol=config.tol,
        )
        for w in posterior.warnings:
            flags.append(f"expert e{m} (range [{rlo}, {rhi})): {w}")
        node_counts[f"e{m}"] = {"range": (rlo, rhi), "n_samples": int(idx.size)}
        experts.append(posterior)

    if n_outside:
        flags.append(
            f"{n_outside} samples with targets outside [{lo}, {hi}) "
            "excluded from node training"
        )
    metadata = {
        "branch_convention": BRANCH_CONVENTION,
        "seed": int(seed),
        "n_samples": len(samples),
        "config": config.snapshot(),
        "node_counts": node_counts,
        "warnings": flags,
    }
    return MoEModel(
        spec=spec,
        gates=tuple(gates),
        experts=tuple(experts),
        standardization=stats,
        basis=config.basis,
        metadata=metadata,
    )


@dataclass(frozen=True)
class MixturePrediction:
    """Mixture-of-Gaussians predictive distributions for one input or a batch of N.

    ``responsibilities[..., m]`` is the probability mass routed to expert m;
    ``means``/``variances`` are the expert Gaussians, each (M,) or (N, M);
    ``point_estimate`` is the mixture mean and ``error_probability`` the mass
    outside the +/- margin band around it, each a float or (N,). A batch has
    ``len`` N; ``batch[i]`` is row i as one prediction, and a slice, index
    list or boolean mask gives a sub-batch.
    """

    responsibilities: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    point_estimate: float | np.ndarray
    error_probability: float | np.ndarray
    _: KW_ONLY
    # Set by __getitem__ alone: a row or sub-batch of a checked batch is not checked again.
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        resp, means, variances, points, error_probs = (
            np.asarray(getattr(self, f.name), dtype=float) for f in fields(self)
        )
        if points.ndim == 0:  # one input: (M,) components
            resp, means, variances = resp.reshape(-1), means.reshape(-1), variances.reshape(-1)
        if not _checked:
            self._check(resp, means, variances, points, error_probs)
        if points.ndim == 0:
            points, error_probs = float(points), float(error_probs)
        for f, value in zip(fields(self), (resp, means, variances, points, error_probs)):
            object.__setattr__(self, f.name, value)

    @staticmethod
    def _check(resp, means, variances, points, error_probs) -> None:
        if not (resp.shape == means.shape == variances.shape and resp.ndim and resp.shape[-1] >= 1):
            raise InvalidInputError("component arrays must have equal nonzero length")
        if not resp.shape[:-1] == points.shape == error_probs.shape:
            raise InvalidInputError("point estimates and error probabilities must be one per row")
        # Written so that a NaN fails each test.
        if not ((np.abs(resp.sum(axis=-1) - 1.0) <= 1e-9).all() and (resp >= 0).all()):
            raise InvalidInputError("responsibilities must be a distribution (sum 1)")
        if not (variances > 0).all():
            raise InvalidInputError("component variances must be positive")
        if not ((error_probs >= 0.0) & (error_probs <= 1.0)).all():
            raise InvalidInputError("error probability must be in [0, 1]")

    @property
    def n_components(self) -> int:
        return self.responsibilities.shape[-1]

    def __len__(self) -> int:
        return len(self.point_estimate)

    def __getitem__(self, index) -> MixturePrediction:
        return MixturePrediction(*(getattr(self, f.name)[index] for f in fields(self)), _checked=True)


def _responsibilities(gate_probs, depth: int) -> np.ndarray:
    """Root-to-leaf products of (G,) or (N, G) heap-ordered gate probabilities; True goes right.

    Each leaf's product is taken root first, level by level.
    """
    probs = np.asarray(gate_probs, dtype=float)
    resp = np.ones(probs.shape[:-1] + (1,))
    for level in range(depth):
        p = probs[..., 2**level - 1 : 2 ** (level + 1) - 1]
        # Leaf prefix i splits into children 2i (gate False) and 2i + 1 (True).
        resp = np.stack([resp * (1.0 - p), resp * p], -1).reshape(*probs.shape[:-1], 2 << level)
    return resp


def _ndtr_scalar(a: float) -> float:
    """Standard normal CDF, computed as scipy's ``ndtr``.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), otherwise
    0.5 erfc(|x|), mirrored to 1 - 0.5 erfc(x) for x > 0, so neither tail
    loses its digits to cancellation.
    """
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _ndtr(a) -> np.ndarray:
    """:func:`_ndtr_scalar` of each element of ``a``, in an array of its shape."""
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(_ndtr_scalar, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _band_error_probability(resp, means, variances, center, half_width):
    """Mixture mass outside center +/- half_width, per row of (M,) or (N, M) components."""
    center = np.asarray(center, dtype=float)[..., None]
    half_width = np.asarray(half_width, dtype=float)[..., None]
    sd = np.sqrt(variances)
    upper = np.einsum("...m,...m->...", resp, _ndtr((center + half_width - means) / sd))
    lower = np.einsum("...m,...m->...", resp, _ndtr((center - half_width - means) / sd))
    return np.clip(1.0 - (upper - lower), 0.0, 1.0)


def infer_batch(
    model: MoEModel,
    X,
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> MixturePrediction:
    """Predictive mixtures for raw (unstandardized) feature rows X (N, n_features).

    Returns one :class:`MixturePrediction` batch of N rows, checked once;
    ``batch[i]`` is what :func:`infer` gives for row i, and an empty input
    gives an empty batch. ``margin_fraction`` sets the +/- band of the error
    probability relative to the point estimate; ``error_floor`` optionally
    enforces a minimum absolute band half-width (0 disables it), so with the
    default floor a zero point estimate has error probability 1. Each row's
    result is bit-identical whatever batch it is in.
    """
    if not all(math.isfinite(v) and v >= 0 for v in (margin_fraction, error_floor)):
        raise InvalidInputError(
            "margin fraction and floor must be finite and non-negative, "
            f"got {margin_fraction} and {error_floor}"
        )
    X = np.asarray(X, dtype=float)
    if X.shape[:1] == (0,):
        X = X.reshape(0, model.n_features)
    if X.ndim != 2:
        raise InvalidInputError("expected a 2-d feature matrix, one row per sample")
    if X.shape[1] != model.n_features:
        raise InvalidInputError(
            f"feature dimension {X.shape[1]} does not match model dimension {model.n_features}"
        )
    if not len(X):
        n_experts = len(model.experts)
        return MixturePrediction(*(np.empty((0, n_experts)) for _ in range(3)), np.empty(0), np.empty(0))
    Phi = design_matrix(standardize_apply(model.standardization, X), model.basis)
    resp = _responsibilities(gate_probabilities(model.gates, Phi), model.spec.depth)
    means, variances = expert_predictions(model.experts, Phi)
    points = np.einsum("nm,nm->n", resp, means)
    half_widths = np.maximum(margin_fraction * np.abs(points), error_floor)
    error_probs = _band_error_probability(resp, means, variances, points, half_widths)
    return MixturePrediction(resp, means, variances, points, error_probs)


def infer(
    model: MoEModel,
    x,
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> MixturePrediction:
    """Predictive mixture for one raw feature vector: the one-row :func:`infer_batch`."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return infer_batch(model, x, margin_fraction, error_floor)[0]


def mixture_density(pred: MixturePrediction, y):
    """Mixture probability density sum_m P_m Normal(y | mu_m, var_m); a batch takes one y a row."""
    z = (np.asarray(y, dtype=float)[..., None] - pred.means) / np.sqrt(pred.variances)
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi * pred.variances)
    out = np.einsum("...m,...m->...", pdf, pred.responsibilities)
    return float(out) if out.ndim == 0 else out


def mixture_cdf(pred: MixturePrediction, y):
    """Mixture distribution function sum_m P_m Phi((y - mu_m) / sd_m); y as for the density."""
    z = (np.asarray(y, dtype=float)[..., None] - pred.means) / np.sqrt(pred.variances)
    out = np.einsum("...m,...m->...", _ndtr(z), pred.responsibilities)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FilteredMetrics:
    threshold: float
    rmse: float | None
    retention: float
    n_retained: int

    @property
    def tag(self) -> str:
        """Report key suffix: the threshold in whole percent."""
        return f"{int(round(self.threshold * 100))}"


@dataclass(frozen=True)
class EvaluationReport:
    n_samples: int
    rmse_all: float
    mean_error_probability: float
    filtered: tuple

    def as_dict(self) -> dict:
        out = {
            "n_samples": self.n_samples,
            "rmse_all": self.rmse_all,
            "mean_error_probability": self.mean_error_probability,
        }
        for f in self.filtered:
            out[f"rmse_at_{f.tag}"] = f.rmse
            out[f"retention_{f.tag}"] = f.retention
            out[f"n_retained_{f.tag}"] = f.n_retained
        return out


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(errors**2)))


def summarize_predictions(pairs, thresholds=(0.25, 0.10)) -> EvaluationReport:
    """Accuracy and retention metrics over the rows of (prediction, target) pairs.

    A pair is one prediction and its float target, or a batch and an array
    of as many targets. A threshold in (0, 1] retains the rows whose error
    probability is below it; each is reported under its whole percent.
    """
    points, targets, error_probs = [], [], []
    for pred, target in pairs:
        if np.shape(target) != np.shape(pred.point_estimate):
            raise InvalidInputError(
                f"target shape {np.shape(target)} does not match prediction shape "
                f"{np.shape(pred.point_estimate)}"
            )
        points.append(np.ravel(pred.point_estimate))
        targets.append(np.ravel(target))
        error_probs.append(np.ravel(pred.error_probability))
    if not sum(map(len, points)):
        raise InvalidInputError("no predictions to summarize")
    errors = np.concatenate(points) - np.concatenate(targets)
    eps = np.concatenate(error_probs)
    filtered = {}
    for threshold in thresholds:
        if not 0.0 < threshold <= 1.0:
            raise InvalidInputError("threshold must be in (0, 1]")
        kept = eps < threshold
        n = int(kept.sum())
        f = FilteredMetrics(float(threshold), _rmse(errors[kept]) if n else None, n / eps.size, n)
        other = filtered.setdefault(f.tag, f)
        if other is not f:
            raise InvalidInputError(
                f"error-probability thresholds {other.threshold} and {f.threshold} "
                f"share the report key suffix {f.tag}"
            )
    return EvaluationReport(
        n_samples=eps.size,
        rmse_all=_rmse(errors),
        mean_error_probability=float(eps.mean()),
        filtered=tuple(filtered.values()),
    )


def predict_batch(
    model: MoEModel,
    samples,
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> tuple:
    """One :func:`infer_batch` over window samples: the batch and a float array of its targets."""
    samples = list(samples)
    predictions = infer_batch(
        model, [s.features for s in samples], margin_fraction, error_floor
    )
    return predictions, np.array([float(s.target) for s in samples])


def evaluate(
    model: MoEModel,
    samples,
    thresholds=(0.25, 0.10),
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> EvaluationReport:
    """Evaluate the model over window samples at the given filter thresholds."""
    samples = list(samples)
    if not samples:
        raise InvalidInputError("evaluation dataset is empty")
    batch = predict_batch(model, samples, margin_fraction, error_floor)
    return summarize_predictions([batch], thresholds)
