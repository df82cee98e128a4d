"""Adaptive per-class confidence thresholds for pseudo-labeling.

A running, momentum-smoothed mean of each class's correct-prediction
probability, a plain (8,) array mean_prob that starts at the neutral 0.5
per class (fresh_class_stats), feeds a threshold that warms up over
epochs:

    T[c] = beta * mean_prob[c] / (1 + gamma^(-epoch))

At epoch 0 the divisor is 2 (half-strength thresholds); it decays toward 1,
so T[c] rises toward beta * mean_prob[c].  Unlabeled samples whose weak-view
max probability strictly exceeds the threshold of their argmax class become
pseudo-labeled; the rest are routed to the consistency loss instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import N_EXPRESSION_CLASSES
from .errors import ConfigError, DataError, check_finite


@dataclass(frozen=True)
class ThresholdConfig:
    beta: float = 0.95
    gamma: float = math.e
    momentum: float = 0.9

    def __post_init__(self):
        check_finite(self, "gamma")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must lie in (0, 1], got {self.beta}")
        if self.gamma <= 1.0:
            raise ConfigError(f"gamma must be > 1, got {self.gamma}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


def fresh_class_stats() -> np.ndarray:
    """The neutral start of mean_prob: 0.5 for every class.  Each update is
    a convex combination of values in [0, 1], so mean_prob stays in it."""
    return np.full(N_EXPRESSION_CLASSES, 0.5)


def update_class_stats(
    mean_prob: np.ndarray,
    weak_probs: np.ndarray,
    gold_labels: np.ndarray,
    mask: np.ndarray,
    momentum: float = 0.9,
) -> np.ndarray:
    """Fold the masked-in (expression-labeled) rows of one batch into the
    per-class statistics; gold_labels may hold the sentinel elsewhere.

    For class c, collect the class-c probability of samples whose gold label
    is c and whose argmax prediction is also c; if any exist, the batch mean
    of those probabilities enters the momentum update:

        mean_prob[c] <- momentum * mean_prob[c] + (1 - momentum) * batch_mean

    Classes with no correct prediction this batch are untouched; the
    mean_prob passed in is never written.  The hit rows are sorted by class
    with a stable sort, so each class's probabilities lie in one contiguous
    run in row order, and each batch mean sums that run with np.add.reduce:
    the pairwise sum a masked selection of the same values gets.
    np.add.reduceat adds each run in sequence instead, which rounds
    differently for many runs of three or more values.
    """
    weak_probs = np.asarray(weak_probs)
    gold_labels = np.asarray(gold_labels)
    valid = gold_labels[mask]
    if not valid.size:
        return mean_prob
    if (
        np.minimum.reduce(valid) < 0
        or np.maximum.reduce(valid) >= N_EXPRESSION_CLASSES
    ):
        raise DataError(f"gold labels outside [0, {N_EXPRESSION_CLASSES})")
    hit_rows = ((weak_probs.argmax(axis=1) == gold_labels) & mask).nonzero()[0]
    hit_rows = hit_rows[gold_labels[hit_rows].argsort(kind="stable")]
    hit_labels = gold_labels[hit_rows]
    hit_probs = weak_probs[hit_rows, hit_labels]
    ends = np.bincount(hit_labels, minlength=N_EXPRESSION_CLASSES).cumsum().tolist()
    mean_prob = mean_prob.copy()
    start = 0
    for c, end in enumerate(ends):
        if end > start:
            batch_mean = float(np.add.reduce(hit_probs[start:end]) / (end - start))
            mean_prob[c] = momentum * mean_prob[c] + (1.0 - momentum) * batch_mean
        start = end
    return mean_prob


@dataclass(frozen=True, eq=False)
class ConfidencePartition:
    """Split of an unlabeled batch: pseudo-labeled rows vs the rest."""

    confident: np.ndarray      # bool per input row
    pseudo_labels: np.ndarray  # argmax class per input row (valid everywhere)


def adaptive_thresholds(
    mean_prob: np.ndarray, epoch: int, config: ThresholdConfig
) -> np.ndarray:
    """T[c] = beta * mean_prob[c] / (1 + gamma^(-epoch)); epoch counts from 0."""
    if epoch < 0:
        raise DataError(f"epoch must be >= 0, got {epoch}")
    divisor = 1.0 + config.gamma ** (-float(epoch))
    return config.beta * mean_prob / divisor


def partition_confident(
    weak_probs: np.ndarray, thresholds: np.ndarray
) -> ConfidencePartition:
    """Confident iff max prob strictly exceeds its class threshold.

    Argmax ties break toward the lowest class index (numpy convention).
    """
    weak_probs = np.asarray(weak_probs)
    if weak_probs.ndim != 2 or weak_probs.shape[1] != N_EXPRESSION_CLASSES:
        raise DataError(f"expected (n, {N_EXPRESSION_CLASSES}) probabilities")
    pseudo = weak_probs.argmax(axis=1)
    top = weak_probs[np.arange(len(pseudo)), pseudo]
    confident = top > np.asarray(thresholds)[pseudo]
    return ConfidencePartition(confident=confident, pseudo_labels=pseudo)
