"""Every masked term reads its masked-in rows only.

Callers pass whole-batch columns: a masked-out row holds the task's
sentinel label (-1, or -5.0 for valence/arousal), and here a NaN
prediction too.  Each term's value must have the bytes of the same call on
the masked-in rows alone, and each masked-out gradient row must be +0.0.
The action-unit BCE sums over the batch-shaped array, so its value is
pinned to the call whose masked-out rows hold label 0 instead (the
sanitised labels the trainer used to build) and is only close to the
subset call's.  Warnings are errors, so no sentinel or NaN enters any
arithmetic.
"""

import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectmtl.data_model import LABEL_SENTINEL, VA_SENTINEL
from affectmtl.losses import (
    ccc_loss_grad,
    consistency_loss_grad,
    unsupervised_ce_grad,
    weighted_bce_grad,
    weighted_cross_entropy_grad,
)
from affectmtl.metrics import mtl_score
from affectmtl.pseudo_label import update_class_stats

MASKS = st.lists(st.booleans(), max_size=12).map(lambda bits: np.array(bits, dtype=bool))
SEEDS = st.integers(0, 2**32 - 1)
EXAMPLES = (
    np.zeros(0, dtype=bool),
    np.zeros(3, dtype=bool),
    np.array([False, True, False]),
    np.array([True, False, True, True]),
)


def examples(test):
    for mask in EXAMPLES:
        test = example(mask=mask, seed=0)(test)
    return test


def hide(values, mask, fill):
    """A copy of values whose masked-out rows hold fill."""
    out = np.array(values, dtype=np.result_type(values, fill))
    out[~mask] = fill
    return out


def every(n):
    return np.ones(n, dtype=bool)


def float_bytes(*values) -> bytes:
    return np.hstack([np.ravel(v) for v in values]).astype(np.float64).tobytes()


def assert_rows(full, subset, mask):
    """Masked-in rows equal the subset call's; masked-out rows are +0.0."""
    assert full.shape[0] == len(mask)
    assert full[mask].tobytes() == subset.tobytes()
    assert full[~mask].tobytes() == np.zeros_like(full[~mask]).tobytes()


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


mask_settings = settings(max_examples=80, deadline=None)


@mask_settings
@given(mask=MASKS, seed=SEEDS)
@examples
def test_weighted_cross_entropy(mask, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)
    logits = rng.normal(scale=3.0, size=(n, 8))
    labels = rng.integers(0, 8, n)
    weights = rng.uniform(0.5, 3.0, 8)
    value, grad = weighted_cross_entropy_grad(
        hide(logits, mask, np.nan), hide(labels, mask, LABEL_SENTINEL), weights, mask
    )
    sub_value, sub_grad = weighted_cross_entropy_grad(
        logits[mask], labels[mask], weights, every(mask.sum())
    )
    assert float_bytes(value) == float_bytes(sub_value)
    assert_rows(grad, sub_grad, mask)


@mask_settings
@given(mask=MASKS, seed=SEEDS)
@examples
def test_unsupervised_cross_entropy(mask, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)
    logits = rng.normal(scale=3.0, size=(n, 8))
    pseudo = rng.integers(0, 8, n)
    value, grad = unsupervised_ce_grad(
        hide(logits, mask, np.nan), hide(pseudo, mask, LABEL_SENTINEL), mask
    )
    sub_value, sub_grad = unsupervised_ce_grad(logits[mask], pseudo[mask], every(mask.sum()))
    assert float_bytes(value) == float_bytes(sub_value)
    assert_rows(grad, sub_grad, mask)


@mask_settings
@given(mask=MASKS, seed=SEEDS)
@examples
def test_weighted_bce(mask, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)
    logits = rng.normal(scale=3.0, size=(n, 12))
    labels = rng.integers(0, 2, (n, 12))
    weights = rng.uniform(0.5, 4.0, 12)
    value, grad = weighted_bce_grad(
        hide(logits, mask, np.nan), hide(labels, mask, LABEL_SENTINEL), weights, mask
    )
    sanitised = weighted_bce_grad(logits, hide(labels, mask, 0), weights, mask)[0]
    sub_value, sub_grad = weighted_bce_grad(
        logits[mask], labels[mask], weights, every(mask.sum())
    )
    assert float_bytes(value) == float_bytes(sanitised)
    assert value == pytest.approx(sub_value, rel=1e-13, abs=0.0)
    assert_rows(grad, sub_grad, mask)


@mask_settings
@given(mask=MASKS, seed=SEEDS)
@examples
def test_concordance_loss(mask, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)
    pred = rng.uniform(-1.0, 1.0, (n, 2))
    gold = rng.uniform(-1.0, 1.0, (n, 2))
    value, grad = ccc_loss_grad(
        hide(pred, mask, np.nan), hide(gold, mask, VA_SENTINEL), mask
    )
    sub_value, sub_grad = ccc_loss_grad(pred[mask], gold[mask], every(mask.sum()))
    assert float_bytes(value) == float_bytes(sub_value)
    assert_rows(grad, sub_grad, mask)


@mask_settings
@given(mask=MASKS, seed=SEEDS)
@examples
def test_consistency(mask, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)
    weak, strong = (rng.dirichlet(np.full(8, 0.5), size=n) for _ in range(2))
    value, d_weak, d_strong = consistency_loss_grad(
        hide(weak, mask, np.nan), hide(strong, mask, np.nan), mask
    )
    sub_value, sub_weak, sub_strong = consistency_loss_grad(
        weak[mask], strong[mask], every(mask.sum())
    )
    assert float_bytes(value) == float_bytes(sub_value)
    assert_rows(d_weak, sub_weak, mask)
    assert_rows(d_strong, sub_strong, mask)


@mask_settings
@given(mask=MASKS, seed=SEEDS)
@examples
def test_class_stats(mask, seed):
    rng = np.random.default_rng(seed)
    n = len(mask)
    # Peaked rows, so that many predictions are correct and count.
    probs = rng.dirichlet(np.full(8, 0.3), size=n)
    gold = np.argmax(probs, axis=1)
    gold[rng.random(n) < 0.3] = rng.integers(0, 8)
    mean_prob = rng.uniform(0.0, 1.0, 8)
    full = update_class_stats(
        mean_prob,
        hide(probs, mask, np.nan),
        hide(gold, mask, LABEL_SENTINEL),
        mask,
        momentum=0.7,
    )
    subset = update_class_stats(
        mean_prob, probs[mask], gold[mask], every(mask.sum()), momentum=0.7
    )
    assert full.tobytes() == subset.tobytes()


@mask_settings
@given(masks=st.tuples(MASKS, SEEDS, SEEDS), seed=SEEDS)
@example(masks=(np.zeros(4, dtype=bool), 0, 0), seed=0)
@example(masks=(np.array([True, True, False, True]), 1, 2), seed=3)
def test_mtl_score(masks, seed):
    va_mask, exp_seed, au_seed = masks
    n = len(va_mask)
    exp_mask = np.random.default_rng(exp_seed).random(n) < 0.6
    au_mask = np.random.default_rng(au_seed).random(n) < 0.6
    rng = np.random.default_rng(seed)
    pred_va = rng.uniform(-1.0, 1.0, (n, 2))
    gold_va = rng.uniform(-1.0, 1.0, (n, 2))
    pred_exp = rng.integers(0, 8, n)
    gold_exp = rng.integers(0, 8, n)
    au_probs = rng.uniform(0.0, 1.0, (n, 12))
    gold_au = rng.integers(0, 2, (n, 12))
    full = mtl_score(
        hide(pred_va, va_mask, np.nan),
        hide(gold_va, va_mask, VA_SENTINEL),
        va_mask,
        pred_exp,
        hide(gold_exp, exp_mask, LABEL_SENTINEL),
        exp_mask,
        hide(au_probs, au_mask, np.nan),
        hide(gold_au, au_mask, LABEL_SENTINEL),
        au_mask,
    )
    # Each task's arrays may have their own row count.
    subset = mtl_score(
        pred_va[va_mask],
        gold_va[va_mask],
        every(va_mask.sum()),
        pred_exp[exp_mask],
        gold_exp[exp_mask],
        every(exp_mask.sum()),
        au_probs[au_mask],
        gold_au[au_mask],
        every(au_mask.sum()),
    )
    assert float_bytes(*astuple(full)) == float_bytes(*astuple(subset))
