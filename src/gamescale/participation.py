"""Participation dynamics on finite feature/label grids.

A population reports its data truthfully unless the deployed classifier uses
protected features, in which case a fraction alpha of the observed
distribution is replaced by uniform noise. Bayes-optimal classifiers over the
full feature space versus a protected-feature-free restriction give the two
equilibria; above an explicit alpha threshold the restricted class wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class AssumptionViolatedError(RuntimeError):
    """The restricted Bayes loss is not below 1/n, so the threshold result
    does not apply."""


@dataclass(eq=False)
class DiscreteDistribution:
    """Joint distribution over feature cells (mixed-radix) and labels."""

    feature_sizes: tuple[int, ...]
    probs: np.ndarray  # shape (prod(feature_sizes), n_labels)

    def __post_init__(self):
        self.feature_sizes = tuple(int(s) for s in self.feature_sizes)
        self.probs = np.asarray(self.probs, dtype=float)
        n_cells = int(np.prod(self.feature_sizes))
        if self.probs.ndim != 2 or self.probs.shape[0] != n_cells:
            raise ValueError("probs must have shape (n_cells, n_labels)")
        if not np.all(self.probs >= 0):  # fails on NaN, as the sum check does
            raise ValueError("probabilities must be nonnegative")
        if not abs(float(self.probs.sum()) - 1.0) <= 1e-12:
            raise ValueError("probabilities must sum to 1")

    @property
    def n_cells(self) -> int:
        return self.probs.shape[0]

    @property
    def n_labels(self) -> int:
        return self.probs.shape[1]


def uniform_distribution(feature_sizes: tuple[int, ...], n_labels: int) -> DiscreteDistribution:
    n_cells = int(np.prod(feature_sizes))
    return DiscreteDistribution(
        feature_sizes, np.full((n_cells, n_labels), 1.0 / (n_cells * n_labels))
    )


def mix(noise: DiscreteDistribution, base: DiscreteDistribution, alpha: float) -> DiscreteDistribution:
    """alpha * noise + (1 - alpha) * base."""
    return DiscreteDistribution(base.feature_sizes, alpha * noise.probs + (1.0 - alpha) * base.probs)


@dataclass(eq=False)
class FeatureMap:
    """Projection that keeps a subset of coordinates and zeroes the rest.

    Idempotent on its image: cells whose dropped coordinates are already at
    value 0 are fixed points.
    """

    feature_sizes: tuple[int, ...]
    retained: tuple[int, ...]

    def __post_init__(self):
        self.feature_sizes = tuple(int(s) for s in self.feature_sizes)
        self.retained = tuple(sorted(set(self.retained)))
        if any(i < 0 or i >= len(self.feature_sizes) for i in self.retained):
            raise ValueError("retained coordinate out of range")
        n_cells = int(np.prod(self.feature_sizes))
        coords = np.unravel_index(np.arange(n_cells), self.feature_sizes)
        kept = [c if i in self.retained else np.zeros_like(c) for i, c in enumerate(coords)]
        self.representative = np.ravel_multi_index(kept, self.feature_sizes)  # full cell of phi(x)
        retained_sizes = [self.feature_sizes[i] for i in self.retained]
        # over no retained axes ravel_multi_index gives one scalar: every cell maps to 0
        restricted = np.ravel_multi_index([coords[i] for i in self.retained], retained_sizes)
        self.restricted_index = np.broadcast_to(restricted, (n_cells,))
        self.n_restricted = int(np.prod(retained_sizes))

    def pool(self, probs: np.ndarray) -> np.ndarray:
        """(restricted cell x label) table: rows of probs summed over cells
        that share their retained coordinates."""
        pooled = np.zeros((self.n_restricted, probs.shape[1]))
        np.add.at(pooled, self.restricted_index, probs)
        return pooled


def _argmax_rows(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Row argmax; exact ties fall to the secondary table, then smallest index."""
    tied = primary >= primary.max(axis=1, keepdims=True) - 1e-15
    keyed = np.where(tied, secondary, -np.inf)
    return np.argmax(keyed, axis=1)


def bayes_classifier(
    dist: DiscreteDistribution, feature_map: Optional[FeatureMap] = None
) -> np.ndarray:
    """Label of every full feature cell: the per-cell argmax of the label
    conditional; ties go to the smallest label.

    With a feature map, cells are pooled by their retained coordinates before
    taking the argmax, which is the Bayes rule of the restricted class; its
    labels are constant across the dropped coordinates.
    """
    if feature_map is None:
        return np.argmax(dist.probs, axis=1)
    return np.argmax(feature_map.pool(dist.probs), axis=1)[feature_map.restricted_index]


def zero_one_loss(labels: np.ndarray, dist: DiscreteDistribution) -> float:
    hit = dist.probs[np.arange(dist.n_cells), labels]
    return 1.0 - float(hit.sum())


def uses_protected_features(
    labels: np.ndarray, base: DiscreteDistribution, phi_star: FeatureMap
) -> bool:
    """True when g(x) differs from g(phi*(x)) on a cell of positive base mass."""
    differs = labels != labels[phi_star.representative]
    return bool(np.any(differs & (base.probs.sum(axis=1) > 0.0)))


def env_response(
    labels: np.ndarray,
    base: DiscreteDistribution,
    phi_star: FeatureMap,
    alpha: float,
) -> DiscreteDistribution:
    """Uniform-noise trigger: mix in alpha of uniform iff the classifier uses
    protected features; otherwise the truthful base distribution."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if uses_protected_features(labels, base, phi_star):
        return mix(uniform_distribution(base.feature_sizes, base.n_labels), base, alpha)
    return base


def is_cellwise_optimal(
    labels: np.ndarray,
    dist: DiscreteDistribution,
    feature_map: Optional[FeatureMap] = None,
) -> bool:
    """No single-cell relabeling (within the class) lowers the zero-one loss."""
    if feature_map is None:
        best = dist.probs.max(axis=1)
        chosen = dist.probs[np.arange(dist.n_cells), labels]
        return bool(np.all(chosen >= best - 1e-15))
    pooled = feature_map.pool(dist.probs)
    per_restricted = np.zeros(feature_map.n_restricted, dtype=int)
    per_restricted[feature_map.restricted_index] = labels
    chosen = pooled[np.arange(feature_map.n_restricted), per_restricted]
    return bool(np.all(chosen >= pooled.max(axis=1) - 1e-15))


@dataclass(eq=False)
class EquilibriumOutcome:
    loss: float
    certified: bool


def equilibrium_pair(
    model_class: str,
    base: DiscreteDistribution,
    phi_star: FeatureMap,
    alpha: float,
) -> EquilibriumOutcome:
    """Equilibrium (classifier, distribution) for one model class.

    Restricted class: Bayes on the base distribution, which never triggers
    the noise. Full class: Bayes on the alpha-mixed distribution, with exact
    ties resolved toward the base-distribution argmax (the alpha -> 1 limit;
    the uniform component adds a constant per label, so ties only matter at
    alpha = 1). The outcome is certified when the classifier is cellwise
    optimal for the distribution and the population's response is that
    distribution; a full Bayes classifier that happens not to use protected
    features breaks the fixed point and is reported, not hidden.
    """
    if model_class == "restricted":
        labels = bayes_classifier(base, phi_star)
        dist = base
        optimal = is_cellwise_optimal(labels, dist, phi_star)
    elif model_class == "full":
        dist = mix(uniform_distribution(base.feature_sizes, base.n_labels), base, alpha)
        labels = _argmax_rows(dist.probs, base.probs)
        optimal = is_cellwise_optimal(labels, dist)
    else:
        raise ValueError(f"unknown model class {model_class!r}")
    fixed_point = np.array_equal(env_response(labels, base, phi_star, alpha).probs, dist.probs)
    return EquilibriumOutcome(loss=zero_one_loss(labels, dist), certified=optimal and fixed_point)


def alpha_threshold(base: DiscreteDistribution, phi_star: FeatureMap) -> float:
    """n times the restricted Bayes loss, for n = base.n_labels; above it the
    restriction wins.

    Requires the restricted Bayes classifier to beat random guessing
    (misclassification below 1/n)."""
    n_labels = base.n_labels
    restricted_loss = zero_one_loss(bayes_classifier(base, phi_star), base)
    if restricted_loss >= 1.0 / n_labels:
        raise AssumptionViolatedError(
            f"restricted Bayes loss {restricted_loss:.4f} is not below 1/{n_labels}"
        )
    return n_labels * restricted_loss


def default_instance() -> tuple[DiscreteDistribution, FeatureMap]:
    """Three binary features (the last protected), four labels.

    Uniform mass over feature cells. Three retained-feature cells carry a
    0.91-confident label; the fourth splits on the protected bit (0.95 toward
    label 3 when the bit is 0, 0.61 toward label 0 when it is 1), so the full
    Bayes rule reads the protected bit while the restricted rule cannot.
    Restricted Bayes loss: (3 * 0.09 + 0.33) / 4 = 0.15.
    """
    feature_sizes = (2, 2, 2)
    n_labels = 4
    phi = FeatureMap(feature_sizes, retained=(0, 1))
    probs = np.zeros((8, n_labels))
    for cell in range(8):
        x0, x1, t = cell // 4, (cell // 2) % 2, cell % 2
        r = 2 * x0 + x1
        cond = np.zeros(n_labels)
        if r < 3:
            cond[r] = 0.91
            cond[(r + 1) % n_labels] = 0.09
        elif t == 0:
            cond[3] = 0.95
            cond[0] = 0.05
        else:
            cond[0] = 0.61
            cond[3] = 0.39
        probs[cell] = cond / 8.0
    return DiscreteDistribution(feature_sizes, probs), phi
