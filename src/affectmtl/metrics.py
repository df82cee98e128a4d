"""Validation scoring: concordance for valence/arousal, macro F1 elsewhere.

The combined score sums three parts: mean concordance over the two affect
dimensions, macro F1 over the 8 expression classes, and macro F1 over the
12 action units.  Both F1 scores come from one per-column binary F1: the
expression classes as the columns of one-hot labels, the action units as
thresholded probabilities.  The concordance is losses.concordance, the
routine the training loss uses.  Scorers take whole-set label columns, a
task's sentinel labels included, with that task's validity mask, and read
labels only on the masked-in rows; so a sample is excluded only from the
tasks it lacks labels for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import N_EXPRESSION_CLASSES
from .errors import DataError
from .losses import concordance


def column_f1(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Binary F1 of each column of two (n, k) boolean arrays.

    2PR/(P+R), with any zero denominator collapsing that quantity to 0.
    """
    tp = np.count_nonzero(pred & truth, axis=0)
    fp = np.count_nonzero(pred & ~truth, axis=0)
    fn = np.count_nonzero(~pred & truth, axis=0)
    k = pred.shape[1]
    precision = np.divide(tp, tp + fp, out=np.zeros(k), where=tp + fp > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(k), where=tp + fn > 0)
    both = precision + recall
    return np.divide(2.0 * precision * recall, both, out=np.zeros(k), where=both > 0)


def macro_f1(
    pred: np.ndarray, gold: np.ndarray, n_classes: int
) -> tuple[float, np.ndarray]:
    """Unweighted mean F1 over all classes, absent classes scoring 0."""
    pred = np.asarray(pred)
    gold = np.asarray(gold)
    if pred.shape != gold.shape:
        raise DataError(f"label shape mismatch: {pred.shape} vs {gold.shape}")
    if pred.size and not (
        0 <= pred.min() and pred.max() < n_classes and 0 <= gold.min() and gold.max() < n_classes
    ):
        raise DataError(f"labels outside [0, {n_classes})")
    classes = np.arange(n_classes)
    per_class = column_f1(pred.reshape(-1, 1) == classes, gold.reshape(-1, 1) == classes)
    return float(per_class.mean()), per_class


def au_macro_f1(
    probs: np.ndarray, gold: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Binary F1 per unit (threshold 0.5, ties positive) over the masked-in
    rows, averaged over units."""
    idx = np.flatnonzero(mask)
    probs = np.asarray(probs, dtype=np.float64)[idx]
    per_unit = column_f1(probs >= 0.5, np.asarray(gold)[idx] == 1)
    return float(per_unit.mean()), per_unit


@dataclass(frozen=True)
class MtlScore:
    p_va: float
    p_exp: float
    p_au: float
    p_mtl: float
    ccc_valence: float
    ccc_arousal: float
    exp_f1: tuple[float, ...]
    au_f1: tuple[float, ...]
    va_degenerate: bool


def mtl_score(
    pred_va: np.ndarray,
    gold_va: np.ndarray,
    va_mask: np.ndarray,
    pred_exp: np.ndarray,
    gold_exp: np.ndarray,
    exp_mask: np.ndarray,
    au_probs: np.ndarray,
    gold_au: np.ndarray,
    au_mask: np.ndarray,
) -> MtlScore:
    """Combined three-task score over one evaluation set.

    Fewer than two valence/arousal-valid samples leave both concordances
    undefined; that part scores 0 and the record is flagged degenerate.
    """
    va_idx = np.flatnonzero(va_mask)
    if len(va_idx) >= 2:
        ccc_v, ccc_a = concordance(pred_va[va_idx], gold_va[va_idx])[0]
        p_va = (ccc_v + ccc_a) / 2.0
        degenerate = False
    else:
        ccc_v = ccc_a = p_va = 0.0
        degenerate = True
    exp_idx = np.flatnonzero(exp_mask)
    p_exp, exp_f1 = macro_f1(
        np.asarray(pred_exp)[exp_idx], np.asarray(gold_exp)[exp_idx], N_EXPRESSION_CLASSES
    )
    p_au, au_f1 = au_macro_f1(au_probs, gold_au, au_mask)
    return MtlScore(
        p_va=p_va,
        p_exp=p_exp,
        p_au=p_au,
        p_mtl=p_va + p_exp + p_au,
        ccc_valence=ccc_v,
        ccc_arousal=ccc_a,
        exp_f1=tuple(float(v) for v in exp_f1),
        au_f1=tuple(float(v) for v in au_f1),
        va_degenerate=degenerate,
    )
