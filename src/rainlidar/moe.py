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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, TrainingError
from .features import FeatureStats, standardize_apply, standardize_fit
from .vblearn import (
    BasisConfig,
    design_matrix,
    fit_vb_linear,
    fit_vb_logistic,
    predict_expert,
    predict_gate,
)

MODEL_FORMAT_VERSION = 1
BRANCH_CONVENTION = "gate True = target above threshold = right branch"

# 1/sqrt(2), the argument scale and the erf/erfc switch of _ndtr_scalar.
_SQRT1_2 = math.sqrt(0.5)

# Seed stream tag for per-gate class balancing draws.
_BALANCE_STREAM = 0xBA1A

MAX_DEPTH = 6


@dataclass(frozen=True)
class TreeSpec:
    """Tree shape: depth, heap-ordered gate thresholds, expert ranges.

    ``thresholds[k-1]`` is the threshold of gate node k (1-based heap
    index, root = 1). ``expert_ranges`` are half-open [lo, hi) intervals in
    mm/h, left to right, partitioning the modeled target range.
    """

    depth: int
    thresholds: tuple
    expert_ranges: tuple

    def __post_init__(self):
        if not 0 <= self.depth <= MAX_DEPTH:
            raise InvalidInputError(f"depth must be in [0, {MAX_DEPTH}]")
        n_gates = 2**self.depth - 1
        if len(self.thresholds) != n_gates:
            raise InvalidInputError(
                f"depth {self.depth} requires {n_gates} thresholds, "
                f"got {len(self.thresholds)}"
            )
        if len(self.expert_ranges) != 2**self.depth:
            raise InvalidInputError("expert range count must be 2**depth")
        boundaries = [self.expert_ranges[0][0]]
        for lo, hi in self.expert_ranges:
            if lo != boundaries[-1]:
                raise InvalidInputError("expert ranges must be contiguous")
            if not lo < hi:
                raise InvalidInputError(f"empty expert range [{lo}, {hi})")
            boundaries.append(hi)
        if boundaries[0] < 0:
            raise InvalidInputError("expert ranges must start at or above 0")
        interior = _inorder(self.thresholds)
        if interior != list(boundaries[1:-1]):
            raise InvalidInputError(
                "gate thresholds (in-order) must equal expert range boundaries"
            )

    @property
    def n_gates(self) -> int:
        return len(self.thresholds)

    @property
    def n_experts(self) -> int:
        return len(self.expert_ranges)

    @property
    def y_range(self) -> tuple:
        return (self.expert_ranges[0][0], self.expert_ranges[-1][1])


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
    """Build a tree specification for the given depth over [lo, hi) mm/h.

    Explicit ``thresholds`` are heap-ordered (root first) and must be
    strictly increasing in in-order traversal. When omitted, thresholds are
    generated by recursive geometric midpoint splitting of
    [max(lo, 1), hi), i.e. logarithmic spacing.
    """
    lo, hi = float(y_range[0]), float(y_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo < hi):
        raise InvalidInputError("y range must satisfy 0 <= lo < hi")
    if not 0 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth must be in [0, {MAX_DEPTH}]")
    n_gates = 2**depth - 1
    if thresholds is None:
        heap = [0.0] * n_gates

        def split(node: int, a: float, b: float) -> None:
            mid = float(np.sqrt(a * b))
            heap[node - 1] = mid
            if 2 * node <= n_gates:
                split(2 * node, a, mid)
                split(2 * node + 1, mid, b)

        if depth > 0:
            split(1, max(lo, 1.0), hi)
        thresholds = heap
    else:
        thresholds = [float(h) for h in thresholds]
        if len(thresholds) != n_gates:
            raise InvalidInputError(
                f"depth {depth} requires {n_gates} thresholds, got {len(thresholds)}"
            )
    boundaries = [lo, *_inorder(thresholds), hi]
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if not a < b:
            raise InvalidInputError(
                f"thresholds not strictly increasing in-order: {a} >= {b}"
            )
    ranges = tuple(zip(boundaries[:-1], boundaries[1:]))
    return TreeSpec(depth=depth, thresholds=tuple(thresholds), expert_ranges=ranges)


def quantile_thresholds(targets, depth: int, y_range=(0.0, 80.0)) -> list:
    """Heap-ordered gate thresholds at the k / 2**depth quantiles of the targets.

    Only targets inside [lo, hi) count. With n of them sorted, threshold k
    (in order) lies midway between order statistics m - 1 and m, where
    m = k * n // 2**depth, so every expert range holds at least
    n // 2**depth >= 2 targets. Raises TrainingError when the targets cannot
    give every expert range 2 of them (too few, or too many ties).
    """
    lo, hi = float(y_range[0]), float(y_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and 0 <= lo < hi):
        raise InvalidInputError("y range must satisfy 0 <= lo < hi")
    if not 0 <= depth <= MAX_DEPTH:
        raise InvalidInputError(f"depth must be in [0, {MAX_DEPTH}]")
    y = np.asarray(targets, dtype=float).reshape(-1)
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
        raise TrainingError(
            f"cannot derive depth-{depth} thresholds from {np.unique(y).size} distinct "
            f"training targets in [{lo}, {hi}): each of the {n_experts} expert ranges "
            "needs at least 2; pass --thresholds or a smaller --depth"
        )
    heap = [0.0] * len(cuts)
    for node, cut in zip(_inorder(range(len(cuts))), cuts):
        heap[node] = cut
    return heap


@dataclass(frozen=True)
class MoEModel:
    """Trained mixture of experts: gates, experts, and input standardization."""

    spec: TreeSpec
    gates: tuple
    experts: tuple
    standardization: FeatureStats
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.gates) != self.spec.n_gates:
            raise InvalidInputError("gate count must be 2**depth - 1")
        if len(self.experts) != self.spec.n_experts:
            raise InvalidInputError("expert count must be 2**depth")

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
    record_assignments: bool = False

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
    assignments: dict = {}

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
            basis=config.basis,
        )
        for w in posterior.warnings:
            flags.append(f"gate z{k} (threshold {threshold}): {w}")
        node_counts[f"z{k}"] = {
            "threshold": threshold,
            "n_samples": int(idx.size),
            "n_balanced": int(fit_idx.size),
        }
        if config.record_assignments:
            assignments[f"z{k}"] = sorted(int(i) for i in idx)
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
            basis=config.basis,
        )
        node_counts[f"e{m}"] = {"range": (rlo, rhi), "n_samples": int(idx.size)}
        if config.record_assignments:
            assignments[f"e{m}"] = sorted(int(i) for i in idx)
        experts.append(posterior)

    if n_outside:
        flags.append(
            f"{n_outside} samples with targets outside [{lo}, {hi}) "
            "excluded from node training"
        )
    metadata = {
        "format_version": MODEL_FORMAT_VERSION,
        "branch_convention": BRANCH_CONVENTION,
        "seed": int(seed),
        "n_samples": len(samples),
        "config": config.snapshot(),
        "node_counts": node_counts,
        "warnings": flags,
    }
    if config.record_assignments:
        metadata["assignments"] = assignments
    return MoEModel(
        spec=spec,
        gates=tuple(gates),
        experts=tuple(experts),
        standardization=stats,
        metadata=metadata,
    )


@dataclass(frozen=True)
class MixturePrediction:
    """Mixture-of-Gaussians predictive distribution for one input.

    ``responsibilities[m]`` is the probability mass routed to expert m;
    ``means``/``variances`` are the expert Gaussians; ``point_estimate`` is
    the mixture mean; ``error_probability`` is the mass outside the +/-
    margin band around the point estimate.
    """

    responsibilities: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    point_estimate: float
    error_probability: float

    def __post_init__(self):
        resp = np.asarray(self.responsibilities, dtype=float).reshape(-1)
        means = np.asarray(self.means, dtype=float).reshape(-1)
        variances = np.asarray(self.variances, dtype=float).reshape(-1)
        if not (resp.size == means.size == variances.size >= 1):
            raise InvalidInputError("component arrays must have equal nonzero length")
        if abs(resp.sum() - 1.0) > 1e-9 or np.any(resp < 0):
            raise InvalidInputError("responsibilities must be a distribution (sum 1)")
        if np.any(variances <= 0):
            raise InvalidInputError("component variances must be positive")
        if not 0.0 <= self.error_probability <= 1.0:
            raise InvalidInputError("error probability must be in [0, 1]")
        object.__setattr__(self, "responsibilities", resp)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def n_components(self) -> int:
        return self.responsibilities.size


def _responsibilities(gate_probs: np.ndarray, depth: int) -> np.ndarray:
    """Root-to-leaf products of gate probabilities; True goes right."""
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


def _band_error_probability(resp, means, variances, center, half_width) -> float:
    sd = np.sqrt(variances)
    upper = float(resp @ _ndtr((center + half_width - means) / sd))
    lower = float(resp @ _ndtr((center - half_width - means) / sd))
    return float(min(max(1.0 - (upper - lower), 0.0), 1.0))


def infer(
    model: MoEModel,
    x,
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> MixturePrediction:
    """Predictive mixture for one raw (unstandardized) feature vector.

    ``margin_fraction`` sets the +/- band of the error probability relative
    to the point estimate; ``error_floor`` optionally enforces a minimum
    absolute band half-width (0 disables it).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.n_features:
        raise InvalidInputError(
            f"feature dimension {x.size} does not match model dimension {model.n_features}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("feature vector contains non-finite values")
    xs = standardize_apply(model.standardization, x)
    gate_probs = np.array([predict_gate(g, xs) for g in model.gates])
    resp = _responsibilities(gate_probs, model.spec.depth)
    predictions = [predict_expert(e, xs) for e in model.experts]
    means = np.array([p.mean for p in predictions])
    variances = np.array([p.variance for p in predictions])
    point = float(resp @ means)
    half_width = max(margin_fraction * abs(point), error_floor)
    error_prob = _band_error_probability(resp, means, variances, point, half_width)
    return MixturePrediction(
        responsibilities=resp,
        means=means,
        variances=variances,
        point_estimate=point,
        error_probability=error_prob,
    )


def mixture_density(pred: MixturePrediction, y):
    """Mixture probability density sum_m P_m Normal(y | mu_m, var_m)."""
    y_arr = np.asarray(y, dtype=float)
    z = (y_arr[..., None] - pred.means) / np.sqrt(pred.variances)
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi * pred.variances)
    out = pdf @ pred.responsibilities
    return float(out) if np.ndim(y) == 0 else out


def mixture_cdf(pred: MixturePrediction, y):
    """Mixture cumulative distribution sum_m P_m Phi((y - mu_m) / sd_m)."""
    y_arr = np.asarray(y, dtype=float)
    z = (y_arr[..., None] - pred.means) / np.sqrt(pred.variances)
    out = _ndtr(z) @ pred.responsibilities
    return float(out) if np.ndim(y) == 0 else out


def point_estimate(pred: MixturePrediction) -> float:
    """Mixture mean sum_m P_m mu_m."""
    return float(pred.responsibilities @ pred.means)


def error_probability(
    pred: MixturePrediction,
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> float:
    """Probability that the target falls outside +/- margin of the point estimate.

    The band half-width is max(margin_fraction * |point|, error_floor); with
    the default floor of 0 a zero point estimate yields probability 1.
    """
    if margin_fraction < 0 or error_floor < 0:
        raise InvalidInputError("margin fraction and floor must be non-negative")
    center = pred.point_estimate
    half_width = max(margin_fraction * abs(center), error_floor)
    return _band_error_probability(
        pred.responsibilities, pred.means, pred.variances, center, half_width
    )


def filter_by_uncertainty(predictions, threshold: float) -> tuple:
    """Keep (prediction, target) pairs with error probability below threshold.

    Returns (retained pairs, retention fraction); retention is None for
    empty input.
    """
    if not 0.0 < threshold <= 1.0:
        raise InvalidInputError("threshold must be in (0, 1]")
    pairs = list(predictions)
    if not pairs:
        return [], None
    kept = [(p, t) for p, t in pairs if p.error_probability < threshold]
    return kept, len(kept) / len(pairs)


@dataclass(frozen=True)
class FilteredMetrics:
    threshold: float
    rmse: float | None
    retention: float
    n_retained: int


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
            tag = f"{int(round(f.threshold * 100))}"
            out[f"rmse_at_{tag}"] = f.rmse
            out[f"retention_{tag}"] = f.retention
            out[f"n_retained_{tag}"] = f.n_retained
        return out


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(errors**2)))


def summarize_predictions(pairs, thresholds=(0.25, 0.10)) -> EvaluationReport:
    """Accuracy and retention metrics from (prediction, target) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidInputError("no predictions to summarize")
    errors = np.array([p.point_estimate - t for p, t in pairs])
    eps = np.array([p.error_probability for p, t in pairs])
    filtered = []
    for threshold in thresholds:
        kept, retention = filter_by_uncertainty(pairs, threshold)
        rmse = _rmse(np.array([p.point_estimate - t for p, t in kept])) if kept else None
        filtered.append(
            FilteredMetrics(
                threshold=float(threshold),
                rmse=rmse,
                retention=float(retention),
                n_retained=len(kept),
            )
        )
    return EvaluationReport(
        n_samples=len(pairs),
        rmse_all=_rmse(errors),
        mean_error_probability=float(eps.mean()),
        filtered=tuple(filtered),
    )


def predict_batch(
    model: MoEModel,
    samples,
    margin_fraction: float = 0.05,
    error_floor: float = 0.0,
) -> list:
    """Run :func:`infer` over window samples, returning (prediction, target) pairs."""
    return [
        (infer(model, s.features, margin_fraction, error_floor), float(s.target))
        for s in samples
    ]


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
    pairs = predict_batch(model, samples, margin_fraction, error_floor)
    return summarize_predictions(pairs, thresholds)
