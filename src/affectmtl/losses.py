"""Loss terms for the three tasks and their weighted combination.

Supervised pieces: class-weighted cross entropy (expressions), positive-
weighted binary cross entropy (action units), and a concordance loss on
valence/arousal.  Semi-supervised pieces: unweighted cross entropy against
pseudo labels and a symmetric KL between weak- and strong-view expression
distributions.  Every loss has a *_grad twin returning the same value plus
exact gradients with respect to its prediction inputs; the twins drive the
hand-written backward pass and are finite-difference checked in the tests.

Absent-term convention used throughout: a loss over an empty selection is 0
with zero gradient, so a batch with nothing valid for some task simply
drops that term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

PROB_FLOOR = 1e-8


class TrainMode(str, enum.Enum):
    """Which expression-loss terms are active."""

    SUPERVISED = "mfar"              # supervised multi-task only
    SEMI = "ss-mfar"                 # + pseudo-label CE + consistency KL
    SEMI_NO_KL = "ss-mfar-no-kl"     # + pseudo-label CE, consistency off


@dataclass(frozen=True)
class LossWeights:
    """Coefficients on the three expression-loss terms."""

    sup: float = 0.5
    unsup: float = 1.0
    cons: float = 0.1

    def __post_init__(self):
        if min(self.sup, self.unsup, self.cons) < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    l_exp_sup: float
    l_exp_unsup: float
    l_exp_cons: float
    l_au: float
    l_va: float
    l_exp: float
    total: float


@dataclass(frozen=True)
class CccTerms:
    s_xy: float
    s_x2: float
    s_y2: float
    mean_x: float
    mean_y: float
    rho: float


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(f"class label outside [0, {n_classes}): {labels}")


def weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
) -> float:
    """Mean over rows of class_weights[label] * (-log softmax(logits)[label])."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    _check_labels(labels, logits.shape[-1])
    logp = _log_softmax(logits)
    picked = logp[np.arange(len(labels)), labels]
    return float(np.mean(-np.asarray(class_weights)[labels] * picked))


def weighted_cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
) -> tuple[float, np.ndarray]:
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0, np.zeros_like(logits)
    _check_labels(labels, logits.shape[-1])
    logp = _log_softmax(logits)
    rows = np.arange(len(labels))
    weights = np.asarray(class_weights)[labels]
    value = float(np.mean(-weights * logp[rows, labels]))
    probs = np.exp(logp)
    d_logits = probs * weights[:, None]
    d_logits[rows, labels] -= weights
    return value, d_logits / len(labels)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def weighted_bce(
    logits: np.ndarray,
    labels: np.ndarray,
    pos_weights: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Per-unit binary cross entropy, positives scaled by pos_weights.

    Mean over (masked-in sample, unit) pairs, computed in the softplus form
    so extreme logits stay finite.
    """
    value, _ = weighted_bce_grad(logits, labels, pos_weights, mask)
    return value


def weighted_bce_grad(
    logits: np.ndarray,
    labels: np.ndarray,
    pos_weights: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    n, n_units = logits.shape
    if mask is None:
        mask = np.ones(n, dtype=bool)
    n_in = int(np.count_nonzero(mask))
    if n_in == 0:
        return 0.0, np.zeros_like(logits)
    y = np.asarray(labels, dtype=np.float64)
    w = np.asarray(pos_weights, dtype=np.float64)
    # -[w*y*log s(z) + (1-y)*log(1-s(z))] = w*y*softplus(-z) + (1-y)*softplus(z)
    per_elem = w * y * _softplus(-logits) + (1.0 - y) * _softplus(logits)
    per_elem = per_elem * mask[:, None]
    denom = n_in * n_units
    value = float(per_elem.sum() / denom)
    sig = 1.0 / (1.0 + np.exp(-np.abs(logits)))
    sig = np.where(logits >= 0, sig, 1.0 - sig)
    d_logits = (-w * y * (1.0 - sig) + (1.0 - y) * sig) * mask[:, None] / denom
    return value, d_logits


def ccc(x: np.ndarray, y: np.ndarray) -> CccTerms:
    """Concordance correlation with population (1/n) moments.

    rho = 2*cov / (var_x + var_y + (mean_x - mean_y)^2); a zero denominator
    (both inputs constant with equal values) yields rho = 0 by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"concordance needs equal-length vectors, got {x.shape}, {y.shape}")
    if len(x) < 2:
        raise DataError(f"concordance needs at least 2 points, got {len(x)}")
    mean_x, mean_y = float(x.mean()), float(y.mean())
    dx, dy = x - mean_x, y - mean_y
    s_xy = float(np.mean(dx * dy))
    s_x2 = float(np.mean(dx * dx))
    s_y2 = float(np.mean(dy * dy))
    denom = s_x2 + s_y2 + (mean_x - mean_y) ** 2
    rho = 0.0 if denom == 0.0 else 2.0 * s_xy / denom
    return CccTerms(s_xy=s_xy, s_x2=s_x2, s_y2=s_y2, mean_x=mean_x, mean_y=mean_y, rho=rho)


def _ccc_rho_grad(pred: np.ndarray, gold: np.ndarray) -> tuple[float, np.ndarray]:
    """rho and its gradient with respect to pred."""
    terms = ccc(pred, gold)
    n = len(pred)
    denom = terms.s_x2 + terms.s_y2 + (terms.mean_x - terms.mean_y) ** 2
    if denom == 0.0:
        return 0.0, np.zeros_like(pred, dtype=np.float64)
    d_pred = pred - terms.mean_x
    d_gold = gold - terms.mean_y
    mean_diff = terms.mean_x - terms.mean_y
    grad = (2.0 / (n * denom)) * (d_gold - terms.rho * (d_pred + mean_diff))
    return terms.rho, grad


def ccc_loss(pred_va: np.ndarray, gold_va: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean of (1 - rho) over valence and arousal on the masked-in rows.

    Fewer than two valid rows make both coefficients undefined; the term is
    then absent (0).
    """
    value, _ = ccc_loss_grad(pred_va, gold_va, mask)
    return value


def ccc_loss_grad(
    pred_va: np.ndarray, gold_va: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    n = pred_va.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    idx = np.flatnonzero(mask)
    d_pred = np.zeros_like(pred_va, dtype=np.float64)
    if len(idx) < 2:
        return 0.0, d_pred
    total = 0.0
    for dim in range(2):
        rho, grad = _ccc_rho_grad(pred_va[idx, dim], gold_va[idx, dim])
        total += 1.0 - rho
        d_pred[idx, dim] = -grad / 2.0
    return total / 2.0, d_pred


def _floor_normalize(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Clamp below at PROB_FLOOR and renormalize; returns (p', active, sum)."""
    floored = np.maximum(p, PROB_FLOOR)
    total = float(floored.sum())
    return floored / total, p > PROB_FLOOR, total


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p||q) + KL(q||p) after flooring both at 1e-8 and renormalizing."""
    pn, _, _ = _floor_normalize(np.asarray(p, dtype=np.float64))
    qn, _, _ = _floor_normalize(np.asarray(q, dtype=np.float64))
    log_ratio = np.log(pn) - np.log(qn)
    return float(np.sum(pn * log_ratio) - np.sum(qn * log_ratio))


def symmetric_kl_grad(p: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    pn, p_active, p_sum = _floor_normalize(np.asarray(p, dtype=np.float64))
    qn, q_active, q_sum = _floor_normalize(np.asarray(q, dtype=np.float64))
    log_ratio = np.log(pn) - np.log(qn)
    value = float(np.sum(pn * log_ratio) - np.sum(qn * log_ratio))
    # d/dp' of [sum p' log(p'/q') + sum q' log(q'/p')]
    g_p = log_ratio + 1.0 - qn / pn
    g_q = -log_ratio + 1.0 - pn / qn
    # Through renormalization x' = max(x, floor) / sum: entries at the floor
    # are locally constant in x.
    d_p = p_active * (g_p - float(np.sum(g_p * pn))) / p_sum
    d_q = q_active * (g_q - float(np.sum(g_q * qn))) / q_sum
    return value, d_p, d_q


def unsupervised_ce(
    strong_logits: np.ndarray, pseudo_labels: np.ndarray, mask: np.ndarray
) -> float:
    """Unweighted mean CE of strong-view logits against pseudo labels."""
    value, _ = unsupervised_ce_grad(strong_logits, pseudo_labels, mask)
    return value


def unsupervised_ce_grad(
    strong_logits: np.ndarray, pseudo_labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    idx = np.flatnonzero(mask)
    d_logits = np.zeros_like(strong_logits)
    if len(idx) == 0:
        return 0.0, d_logits
    ones = np.ones(strong_logits.shape[-1])
    value, d_sub = weighted_cross_entropy_grad(
        strong_logits[idx], np.asarray(pseudo_labels)[idx], ones
    )
    d_logits[idx] = d_sub
    return value, d_logits


def consistency_loss(
    weak_probs: np.ndarray, strong_probs: np.ndarray, mask: np.ndarray
) -> float:
    """Mean symmetric KL between the two view distributions, masked rows only."""
    value, _, _ = consistency_loss_grad(weak_probs, strong_probs, mask)
    return value


def consistency_loss_grad(
    weak_probs: np.ndarray, strong_probs: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """consistency_loss with its gradients; each masked row matches symmetric_kl_grad."""
    idx = np.flatnonzero(mask)
    d_weak = np.zeros_like(weak_probs)
    d_strong = np.zeros_like(strong_probs)
    if len(idx) == 0:
        return 0.0, d_weak, d_strong
    p = np.asarray(weak_probs[idx], dtype=np.float64)
    q = np.asarray(strong_probs[idx], dtype=np.float64)
    p_floored = np.maximum(p, PROB_FLOOR)
    q_floored = np.maximum(q, PROB_FLOOR)
    p_sum = p_floored.sum(axis=1, keepdims=True)
    q_sum = q_floored.sum(axis=1, keepdims=True)
    pn = p_floored / p_sum
    qn = q_floored / q_sum
    log_ratio = np.log(pn) - np.log(qn)
    values = np.sum(pn * log_ratio, axis=1) - np.sum(qn * log_ratio, axis=1)
    g_p = log_ratio + 1.0 - qn / pn
    g_q = -log_ratio + 1.0 - pn / qn
    d_p = (p > PROB_FLOOR) * (g_p - np.sum(g_p * pn, axis=1, keepdims=True)) / p_sum
    d_q = (q > PROB_FLOOR) * (g_q - np.sum(g_q * qn, axis=1, keepdims=True)) / q_sum
    # Added one row at a time, in row order, as the per-row definition does.
    total = 0.0
    for value in values.tolist():
        total += value
    d_weak[idx] = d_p / len(idx)
    d_strong[idx] = d_q / len(idx)
    return total / len(idx), d_weak, d_strong


def overall_loss(
    l_exp_sup: float,
    l_exp_unsup: float,
    l_exp_cons: float,
    l_au: float,
    l_va: float,
    weights: LossWeights,
    mode: TrainMode,
) -> LossBreakdown:
    """Combine the five terms according to the training mode.

    Supervised mode keeps only the supervised CE (coefficient 1) and zeroes
    the semi-supervised terms; the no-KL variant drops just the consistency
    term; the full mode applies all three coefficients.
    """
    mode = TrainMode(mode)
    if mode is TrainMode.SUPERVISED:
        l_exp_unsup = 0.0
        l_exp_cons = 0.0
        l_exp = l_exp_sup
    elif mode is TrainMode.SEMI_NO_KL:
        l_exp_cons = 0.0
        l_exp = weights.sup * l_exp_sup + weights.unsup * l_exp_unsup
    else:
        l_exp = (
            weights.sup * l_exp_sup
            + weights.unsup * l_exp_unsup
            + weights.cons * l_exp_cons
        )
    total = l_exp + l_au + l_va
    return LossBreakdown(
        l_exp_sup=l_exp_sup,
        l_exp_unsup=l_exp_unsup,
        l_exp_cons=l_exp_cons,
        l_au=l_au,
        l_va=l_va,
        l_exp=l_exp,
        total=total,
    )


def effective_lambdas(weights: LossWeights, mode: TrainMode) -> tuple[float, float, float]:
    """Coefficients actually applied to (sup, unsup, cons) under the mode."""
    mode = TrainMode(mode)
    if mode is TrainMode.SUPERVISED:
        return 1.0, 0.0, 0.0
    if mode is TrainMode.SEMI_NO_KL:
        return weights.sup, weights.unsup, 0.0
    return weights.sup, weights.unsup, weights.cons
