"""Loss terms for the three tasks and their weighted combination.

Supervised pieces: class-weighted cross entropy (expressions), positive-
weighted binary cross entropy (action units), and a concordance loss on
valence/arousal, built on the two-column concordance that the validation
score shares.  Semi-supervised pieces: unweighted cross entropy against
pseudo labels and a symmetric KL between weak- and strong-view expression
distributions.  Each term is one *_grad function that returns the loss
value together with its exact gradients with respect to the prediction
inputs; these drive the hand-written backward pass.  The tests check each
value against an independent oracle and each gradient by finite
differences.

Mask convention used throughout: every term takes whole-batch columns, a
task's sentinel labels included, and a required boolean row mask.  It reads
labels and predictions on the masked-in rows only and returns gradients
over the whole batch that are +0.0 on every masked-out row.  A term over an
empty selection (for the concordance, fewer than two rows) is 0 with zero
gradient, so a batch with nothing valid for some task simply drops that
term.  Each value has the bits of the same call on the masked-in rows
alone, except the action-unit BCE: its sum runs over the batch-shaped array
with each masked-out pair as 0.0, so its rounding follows the batch layout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data_model import N_EXPRESSION_CLASSES
from .errors import ConfigError, DataError, check_finite

PROB_FLOOR = 1e-8

# The pseudo-label cross entropy's class weights: one read-only vector.
_UNIT_WEIGHTS = np.ones(N_EXPRESSION_CLASSES)
_UNIT_WEIGHTS.flags.writeable = False


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
        check_finite(self, "sup", "unsup", "cons")
        if min(self.sup, self.unsup, self.cons) < 0:
            raise ConfigError("loss weights must be non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    """A batch's loss terms; the field names are the run log's loss keys."""

    l_exp_sup: float
    l_exp_unsup: float
    l_exp_cons: float
    l_au: float
    l_va: float
    l_exp: float
    l_total: float


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if labels.size and (
        np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= n_classes
    ):
        raise DataError(f"class label outside [0, {n_classes}): {labels}")


def weighted_cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray, class_weights: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean over masked-in rows of class_weights[label] * (-log softmax(logits)[label])."""
    idx = mask.nonzero()[0]
    d_logits = np.zeros(logits.shape)
    if len(idx) == 0:
        return 0.0, d_logits
    labels = np.asarray(labels)[idx]
    _check_labels(labels, logits.shape[-1])
    logp = _log_softmax(logits[idx])
    rows = np.arange(len(idx))
    weights = np.asarray(class_weights)[labels]
    value = float(np.add.reduce(-weights * logp[rows, labels]) / len(idx))
    d_sub = np.exp(logp) * weights[:, None]
    d_sub[rows, labels] -= weights
    d_logits[idx] = d_sub / len(idx)
    return value, d_logits


def weighted_bce_grad(
    logits: np.ndarray, labels: np.ndarray, pos_weights: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Per-unit binary cross entropy, positives scaled by pos_weights.

    Mean over (masked-in sample, unit) pairs, computed in the softplus form
    so extreme logits stay finite.
    """
    idx = mask.nonzero()[0]
    d_logits = np.zeros(logits.shape)
    if len(idx) == 0:
        return 0.0, d_logits
    z = logits[idx]
    y = np.asarray(labels)[idx].astype(np.float64)
    w = np.asarray(pos_weights, dtype=np.float64)
    denom = len(idx) * logits.shape[1]
    # -[w*y*log s(z) + (1-y)*log(1-s(z))] = w*y*softplus(-z) + (1-y)*softplus(z),
    # softplus(z) = max(z, 0) + log1p(exp(-|z|)); both softplus terms and the
    # sigmoid share exp(-|z|), and the gradient's -w*y is -(w*y) exactly.
    # Summed over the batch-shaped array with masked-out pairs as 0.0.
    wy = w * y
    not_y = 1.0 - y
    exp_neg = np.exp(-np.abs(z))
    log_term = np.log1p(exp_neg)
    per_elem = np.zeros(logits.shape)
    per_elem[idx] = (
        wy * (np.maximum(-z, 0.0) + log_term) + not_y * (np.maximum(z, 0.0) + log_term)
    )
    value = float(np.add.reduce(per_elem, axis=None) / denom)
    sig = 1.0 / (1.0 + exp_neg)
    sig = np.where(z >= 0, sig, 1.0 - sig)
    d_logits[idx] = (-wy * (1.0 - sig) + not_y * sig) / denom
    return value, d_logits


def concordance(
    pred_va: np.ndarray, gold_va: np.ndarray
) -> tuple[list[float], list[float], np.ndarray, list[float]]:
    """Concordance of the valence and of the arousal columns of two (k, 2)
    arrays, k >= 2.

    rho = 2*cov / (var_pred + var_gold + (mean_pred - mean_gold)^2) with
    population (1/k) moments; a zero denominator yields rho = 0.  Returns
    rho, the denominators and the mean differences per dimension, and the
    (4, k) deviations from the means: predicted valence and arousal, then
    gold.  Each row reduction over the C-contiguous (4, k) array sums in
    NumPy's pairwise order, as over one vector, so each rho has the bits of
    the one-dimension formula.
    """
    cols = np.ascontiguousarray(
        np.concatenate((pred_va, gold_va), axis=1).T, dtype=np.float64
    )
    k = cols.shape[1]
    means = np.add.reduce(cols, axis=1) / k
    dev = cols - means[:, None]
    # Rows: s_pg of valence and arousal, then s_pp, then s_gg.
    moments = (
        np.add.reduce(dev[[0, 1, 0, 1, 2, 3]] * dev[[2, 3, 0, 1, 2, 3]], axis=1) / k
    ).tolist()
    means = means.tolist()
    diff = [means[0] - means[2], means[1] - means[3]]
    # Python floats: ** 2 here is libm's pow, not NumPy's square.
    denom = [moments[2 + dim] + moments[4 + dim] + diff[dim] ** 2 for dim in range(2)]
    rho = [0.0 if d == 0.0 else 2.0 * m / d for m, d in zip(moments, denom)]
    return rho, denom, dev, diff


def ccc_loss_grad(
    pred_va: np.ndarray, gold_va: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean of (1 - rho) over valence and arousal on the masked-in rows.

    Fewer than two valid rows make both coefficients undefined; the term is
    then absent (0).  A dimension whose rho has a zero denominator gets rho
    0 and zero gradient; one whose denominator is so small that the gradient
    scale 2 / (k * denom) overflows keeps its rho and gets zero gradient.
    """
    idx = mask.nonzero()[0]
    d_pred = np.zeros(pred_va.shape)
    k = len(idx)
    if k < 2:
        return 0.0, d_pred
    rho, denom, dev, diff = concordance(pred_va[idx], gold_va[idx])
    scale = [0.0, 0.0]
    dead = []
    for dim in range(2):
        if denom[dim] == 0.0:
            dead.append(dim)
            continue
        dim_scale = 2.0 / (k * denom[dim])
        if math.isinf(dim_scale):  # a subnormal denom: rho stands, the gradient is 0
            dead.append(dim)
        else:
            scale[dim] = dim_scale
    grad = np.array(scale)[:, None] * (
        dev[2:] - np.array(rho)[:, None] * (dev[:2] + np.array(diff)[:, None])
    )
    if dead:
        grad[dead] = 0.0
    d_pred[idx] = (-grad / 2.0).T
    return ((1.0 - rho[0]) + (1.0 - rho[1])) / 2.0, d_pred


def unsupervised_ce_grad(
    strong_logits: np.ndarray, pseudo_labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Unweighted mean CE of (n, 8) strong-view logits against pseudo labels."""
    return weighted_cross_entropy_grad(strong_logits, pseudo_labels, _UNIT_WEIGHTS, mask)


def consistency_loss_grad(
    weak_probs: np.ndarray, strong_probs: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean symmetric KL between the two view distributions, masked rows only.

    Per row, KL(p||q) + KL(q||p) after flooring both at PROB_FLOOR and
    renormalizing; an entry at or below the floor is locally constant, so its
    gradient is 0.
    """
    idx = mask.nonzero()[0]
    d_weak = np.zeros(weak_probs.shape)
    d_strong = np.zeros(strong_probs.shape)
    if len(idx) == 0:
        return 0.0, d_weak, d_strong
    p = np.asarray(weak_probs[idx], dtype=np.float64)
    q = np.asarray(strong_probs[idx], dtype=np.float64)
    p_floored = np.maximum(p, PROB_FLOOR)
    q_floored = np.maximum(q, PROB_FLOOR)
    p_sum = np.add.reduce(p_floored, axis=1, keepdims=True)
    q_sum = np.add.reduce(q_floored, axis=1, keepdims=True)
    pn = p_floored / p_sum
    qn = q_floored / q_sum
    log_ratio = np.log(pn) - np.log(qn)
    values = np.add.reduce(pn * log_ratio, axis=1) - np.add.reduce(qn * log_ratio, axis=1)
    g_p = log_ratio + 1.0 - qn / pn
    g_q = -log_ratio + 1.0 - pn / qn
    d_p = (p > PROB_FLOOR) * (g_p - np.add.reduce(g_p * pn, axis=1, keepdims=True)) / p_sum
    d_q = (q > PROB_FLOOR) * (g_q - np.add.reduce(g_q * qn, axis=1, keepdims=True)) / q_sum
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
    """Combine the five terms with the coefficients effective_lambdas gives.

    Terms are reported as given: batch_loss_and_grads never computes a term
    the mode drops, so it passes 0 for it.
    """
    lam_sup, lam_unsup, lam_cons = effective_lambdas(weights, mode)
    l_exp = lam_sup * l_exp_sup + lam_unsup * l_exp_unsup + lam_cons * l_exp_cons
    return LossBreakdown(
        l_exp_sup=l_exp_sup,
        l_exp_unsup=l_exp_unsup,
        l_exp_cons=l_exp_cons,
        l_au=l_au,
        l_va=l_va,
        l_exp=l_exp,
        l_total=l_exp + l_au + l_va,
    )


def effective_lambdas(weights: LossWeights, mode: TrainMode) -> tuple[float, float, float]:
    """Coefficients actually applied to (sup, unsup, cons) under the mode."""
    if mode is TrainMode.SUPERVISED:
        return 1.0, 0.0, 0.0
    if mode is TrainMode.SEMI_NO_KL:
        return weights.sup, weights.unsup, 0.0
    return weights.sup, weights.unsup, weights.cons
