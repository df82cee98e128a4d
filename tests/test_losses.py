import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectmtl.errors import DataError
from affectmtl.losses import (
    PROB_FLOOR,
    LossWeights,
    TrainMode,
    ccc_loss_grad,
    consistency_loss_grad,
    effective_lambdas,
    overall_loss,
    unsupervised_ce_grad,
    weighted_bce_grad,
    weighted_cross_entropy_grad,
)
import oracles
from conftest import finite_va
from oracles import ccc, symmetric_kl, symmetric_kl_grad, weighted_cross_entropy

ONES8 = np.ones(8)
ONES12 = np.ones(12)


def every(n):
    """A mask that keeps all n rows."""
    return np.ones(n, dtype=bool)


def fd_check(value_fn, x, analytic, h=1e-6, atol=1e-6):
    """Central finite differences against an analytic gradient array."""
    flat_an = analytic.ravel()
    xf = x.ravel()
    for k in range(x.size):
        plus = xf.copy()
        plus[k] += h
        minus = xf.copy()
        minus[k] -= h
        fd = (value_fn(plus.reshape(x.shape)) - value_fn(minus.reshape(x.shape))) / (2 * h)
        assert flat_an[k] == pytest.approx(fd, rel=1e-5, abs=atol), f"component {k}"


class TestWeightedCrossEntropy:
    def test_uniform_logits_unit_weight(self):
        logits = np.zeros((3, 8))
        labels = np.array([0, 4, 7])
        assert weighted_cross_entropy(logits, labels, ONES8) == pytest.approx(
            math.log(8), abs=1e-9
        )

    def test_confident_correct_is_zero(self):
        logits = np.zeros((1, 8))
        logits[0, 2] = 60.0
        assert weighted_cross_entropy(logits, np.array([2]), ONES8) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_half_probability_weight_two(self):
        probs = np.full(8, 0.5 / 7)
        probs[3] = 0.5
        logits = np.log(probs)[None, :]
        weights = ONES8.copy()
        weights[3] = 2.0
        value = weighted_cross_entropy(logits, np.array([3]), weights)
        assert value == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_empty_batch(self):
        value, grad = weighted_cross_entropy_grad(
            np.zeros((0, 8)), np.array([], int), ONES8, every(0)
        )
        assert value == 0.0 and grad.shape == (0, 8)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            weighted_cross_entropy_grad(np.zeros((1, 8)), np.array([8]), ONES8, every(1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unit_weights_match_plain_ce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(5, 8))
        labels = rng.integers(0, 8, 5)
        # Independent scalar recomputation, sample by sample.
        expected = 0.0
        for i in range(5):
            z = logits[i]
            expected += -(z[labels[i]] - math.log(np.exp(z - z.max()).sum()) - z.max())
        expected /= 5
        assert weighted_cross_entropy(logits, labels, ONES8) == pytest.approx(
            expected, abs=1e-12
        )

    def test_per_sample_weighted_oracle(self, rng):
        logits = rng.normal(size=(4, 8))
        labels = np.array([1, 6, 0, 3])
        weights = rng.uniform(0.5, 3.0, 8)
        expected = np.mean(
            [
                -weights[y] * np.log(np.exp(z - z.max())[y] / np.exp(z - z.max()).sum())
                for z, y in zip(logits, labels)
            ]
        )
        assert weighted_cross_entropy(logits, labels, weights) == pytest.approx(
            expected, abs=1e-12
        )

    def test_grad_twin_matches_fd(self, rng):
        logits = rng.normal(size=(3, 8))
        labels = np.array([0, 5, 5])
        weights = rng.uniform(0.5, 2.0, 8)
        value, grad = weighted_cross_entropy_grad(logits, labels, weights, every(3))
        assert value == weighted_cross_entropy(logits, labels, weights)
        fd_check(lambda z: weighted_cross_entropy(z, labels, weights), logits, grad)


class TestWeightedBce:
    def test_confident_correct_is_zero(self):
        logits = np.full((1, 12), 60.0)
        labels = np.ones((1, 12), int)
        assert weighted_bce_grad(logits, labels, ONES12, every(1))[0] == pytest.approx(
            0.0, abs=1e-6
        )

    def test_half_probability_positive_weight_three(self):
        logits = np.zeros((1, 12))
        labels = np.ones((1, 12), int)
        weights = np.full(12, 3.0)
        assert weighted_bce_grad(logits, labels, weights, every(1))[0] == pytest.approx(
            3 * math.log(2), abs=1e-9
        )

    def test_half_probability_negative_ignores_weight(self):
        logits = np.zeros((1, 12))
        labels = np.zeros((1, 12), int)
        weights = np.full(12, 7.0)
        assert weighted_bce_grad(logits, labels, weights, every(1))[0] == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_empty_mask(self):
        value, grad = weighted_bce_grad(
            np.ones((2, 12)), np.ones((2, 12), int), ONES12, np.zeros(2, bool)
        )
        assert value == 0.0 and np.all(grad == 0.0)

    def test_mask_equals_subset_exactly(self, rng):
        logits = rng.normal(size=(5, 12))
        labels = rng.integers(0, 2, (5, 12))
        weights = rng.uniform(0.5, 4.0, 12)
        mask = np.array([True, False, True, True, False])
        masked = weighted_bce_grad(logits, labels, weights, mask)[0]
        subset = weighted_bce_grad(logits[mask], labels[mask], weights, every(3))[0]
        assert masked == pytest.approx(subset, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0] * 12, [-1000.0] * 12])
        labels = np.array([[0] * 12, [1] * 12])
        value = weighted_bce_grad(logits, labels, ONES12, every(2))[0]
        assert np.isfinite(value) and value > 100

    def test_per_pair_scalar_oracle(self, rng):
        logits = rng.normal(size=(3, 12))
        labels = rng.integers(0, 2, (3, 12))
        weights = rng.uniform(0.5, 3.0, 12)
        total = 0.0
        for i in range(3):
            for u in range(12):
                s = 1 / (1 + math.exp(-logits[i, u]))
                if labels[i, u] == 1:
                    total += -weights[u] * math.log(s)
                else:
                    total += -math.log(1 - s)
        assert weighted_bce_grad(logits, labels, weights, every(3))[0] == pytest.approx(
            total / 36, abs=1e-12
        )

    def test_grad_twin_matches_fd(self, rng):
        logits = rng.normal(size=(3, 12))
        labels = rng.integers(0, 2, (3, 12))
        weights = rng.uniform(0.5, 3.0, 12)
        mask = np.array([True, False, True])
        _, grad = weighted_bce_grad(logits, labels, weights, mask)
        fd_check(lambda z: weighted_bce_grad(z, labels, weights, mask)[0], logits, grad)


class TestCcc:
    def test_perfect_concordance(self):
        assert ccc(np.array([1.0, -1.0]), np.array([1.0, -1.0])).rho == 1.0

    def test_zero_variance_different_means(self):
        assert ccc(np.array([0.0, 0.0]), np.array([1.0, 1.0])).rho == 0.0

    def test_three_point_hand_value(self):
        terms = ccc(np.array([0.2, 0.4, 0.6]), np.array([0.1, 0.5, 0.9]))
        assert terms.rho == pytest.approx(0.744186046511628, abs=1e-9)

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            ccc(np.array([1.0]), np.array([1.0]))

    def test_degenerate_equal_constants(self):
        assert ccc(np.array([0.3, 0.3]), np.array([0.3, 0.3])).rho == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_self_concordance_and_symmetry_and_bound(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert ccc(x, x).rho == pytest.approx(1.0, abs=1e-12)
        assert ccc(x, y).rho == pytest.approx(ccc(y, x).rho, abs=1e-12)
        assert abs(ccc(x, y).rho) <= 1.0 + 1e-12


class TestCccLoss:
    def test_perfect_predictions_zero(self):
        va = np.array([[0.1, -0.5], [0.8, 0.2], [-0.3, 0.9]])
        assert ccc_loss_grad(va, va.copy(), every(3))[0] == pytest.approx(0.0, abs=1e-12)

    def test_composition_hand_value(self):
        pred = np.array([[0.2, 1.0], [0.4, -1.0], [0.6, 0.0]])
        gold = np.array([[0.1, 1.0], [0.5, -1.0], [0.9, 0.0]])
        # valence rho = 0.7442, arousal rho = 1 -> mean(0.2558, 0)
        assert ccc_loss_grad(pred, gold, every(3))[0] == pytest.approx(0.12790697674, abs=1e-6)

    def test_empty_and_single_masks_are_absent(self):
        pred = np.array([[0.2, 0.3], [0.1, 0.4]])
        gold = np.array([[0.0, 0.1], [0.9, 0.2]])
        assert ccc_loss_grad(pred, gold, np.zeros(2, bool))[0] == 0.0
        assert ccc_loss_grad(pred, gold, np.array([True, False]))[0] == 0.0

    def test_in_zero_two_interval(self, rng):
        pred = rng.uniform(-1, 1, (10, 2))
        gold = rng.uniform(-1, 1, (10, 2))
        value = ccc_loss_grad(pred, gold, every(10))[0]
        assert 0.0 <= value <= 2.0

    def test_grad_twin_matches_fd(self, rng):
        pred = rng.uniform(-0.9, 0.9, (5, 2))
        gold = rng.uniform(-0.9, 0.9, (5, 2))
        mask = np.array([True, True, False, True, True])
        _, grad = ccc_loss_grad(pred, gold, mask)
        assert np.all(grad[~mask] == 0.0)
        fd_check(lambda p: ccc_loss_grad(p, gold, mask)[0], pred, grad, atol=1e-5)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(finite_va, finite_va), min_size=n, max_size=n),
                st.lists(st.tuples(finite_va, finite_va), min_size=n, max_size=n),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        ),
        st.sampled_from(["free", "constant pred", "constant both", "equal"]),
    )
    @example(([(0.5, 0.1), (-0.25, 0.3)], [(0.1, 0.1), (0.2, 0.9)], [True, True]), "free")
    @example(([(0.3, 0.3), (0.3, -0.2)], [(0.3, 0.5), (0.3, 0.5)], [True, True]), "free")
    # Subnormal valence denominators: the gradient scale overflows, and
    # the value still reads ccc's rho (1 for the correlated columns).
    @example(([(0.0, 0.1), (1e-160, 0.5)], [(0.0, 0.2), (0.0, 0.4)], [True, True]), "free")
    @example(([(0.0, 0.1), (1e-160, 0.5)], [(0.0, 0.2), (1e-160, 0.4)], [True, True]), "free")
    def test_matches_per_dimension_reference_bitwise(self, case, shape):
        """One pass over both dimensions gives the bits of one ccc per
        dimension, for k = 0, 1, 2 and more rows and zero or subnormal
        denominators; the value is the mean of 1 - ccc's rho, and every
        gradient is finite."""
        pred, gold, mask = (np.array(part, dtype=np.float64) for part in case)
        pred, gold, mask = pred.reshape(-1, 2), gold.reshape(-1, 2), mask.astype(bool)
        if shape in ("constant pred", "constant both") and len(pred):
            pred[:] = pred[0]
        if shape == "constant both" and len(pred):
            gold[:] = pred[0]
        if shape == "equal":
            gold = pred.copy()
        value, grad = ccc_loss_grad(pred, gold, mask)
        ref_value, ref_grad = oracles.ccc_loss_grad(pred, gold, mask)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.all(np.isfinite(grad))
        if mask.sum() >= 2:
            rhos = [ccc(pred[mask, dim], gold[mask, dim]).rho for dim in range(2)]
            assert value == ((1.0 - rhos[0]) + (1.0 - rhos[1])) / 2.0


class TestSymmetricKl:
    def test_equal_distributions_zero(self):
        p = np.array([0.25, 0.25, 0.5])
        assert symmetric_kl(p, p.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_two_class_hand_value(self):
        value = symmetric_kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        expected = (
            0.5 * math.log(2) + 0.5 * math.log(2 / 3)
            + 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        )
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.27465307, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_symmetric_and_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        assert symmetric_kl(p, q) == symmetric_kl(q, p)
        assert symmetric_kl(p, q) >= 0.0

    def test_floor_keeps_zero_entries_finite(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert np.isfinite(symmetric_kl(p, q))

    def test_grad_twin_matches_fd(self, rng):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        value, d_p, d_q = symmetric_kl_grad(p, q)
        assert value == symmetric_kl(p, q)
        fd_check(lambda a: symmetric_kl(a, q), p, d_p, atol=1e-5)
        fd_check(lambda b: symmetric_kl(p, b), q, d_q, atol=1e-5)


class TestUnsupervisedCe:
    def test_empty_confident_set(self):
        value = unsupervised_ce_grad(np.ones((3, 8)), np.zeros(3, int), np.zeros(3, bool))[0]
        assert value == 0.0

    def test_perfect_strong_prediction(self):
        logits = np.zeros((1, 8))
        logits[0, 6] = 60.0
        assert unsupervised_ce_grad(logits, np.array([6]), np.array([True]))[0] == pytest.approx(
            0.0, abs=1e-6
        )

    def test_uniform_logits(self):
        value = unsupervised_ce_grad(np.zeros((2, 8)), np.array([1, 5]), np.ones(2, bool))[0]
        assert value == pytest.approx(math.log(8), abs=1e-9)

    def test_unweighted_regardless_of_label(self, rng):
        logits = rng.normal(size=(4, 8))
        labels = rng.integers(0, 8, 4)
        mask = np.array([True, True, False, True])
        value, grad = unsupervised_ce_grad(logits, labels, mask)
        expected = weighted_cross_entropy(logits[mask], labels[mask], ONES8)
        assert value == pytest.approx(expected, abs=1e-12)
        assert np.all(grad[~mask] == 0.0)
        fd_check(lambda z: unsupervised_ce_grad(z, labels, mask)[0], logits, grad)


class TestConsistency:
    def test_identical_views_zero(self, rng):
        probs = rng.dirichlet(np.ones(8), size=3)
        assert consistency_loss_grad(probs, probs.copy(), np.ones(3, bool))[0] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_embedded_two_class_pair(self):
        eps = 1e-9
        weak = np.full((1, 8), eps)
        strong = np.full((1, 8), eps)
        weak[0, :2] = (0.5, 0.5)
        strong[0, :2] = (0.25, 0.75)
        value = consistency_loss_grad(weak, strong, np.ones(1, bool))[0]
        assert value == pytest.approx(0.27465307, abs=1e-5)

    def test_empty_mask(self):
        value, d_w, d_s = consistency_loss_grad(
            np.ones((2, 8)) / 8, np.ones((2, 8)) / 8, np.zeros(2, bool)
        )
        assert value == 0.0 and np.all(d_w == 0.0) and np.all(d_s == 0.0)

    def test_grad_twin_matches_fd(self, rng):
        weak = rng.dirichlet(np.ones(8), size=3)
        strong = rng.dirichlet(np.ones(8), size=3)
        mask = np.array([True, False, True])
        _, d_w, d_s = consistency_loss_grad(weak, strong, mask)
        fd_check(lambda a: consistency_loss_grad(a, strong, mask)[0], weak, d_w, atol=1e-5)
        fd_check(lambda b: consistency_loss_grad(weak, b, mask)[0], strong, d_s, atol=1e-5)


def _consistency_rows(weak, strong, mask):
    """consistency_loss_grad by its definition: the oracle symmetric_kl_grad
    per masked row."""
    idx = np.flatnonzero(mask)
    d_weak = np.zeros_like(weak)
    d_strong = np.zeros_like(strong)
    if len(idx) == 0:
        return 0.0, d_weak, d_strong
    total = 0.0
    for i in idx:
        value, d_p, d_q = symmetric_kl_grad(weak[i], strong[i])
        total += value
        d_weak[i] = d_p / len(idx)
        d_strong[i] = d_q / len(idx)
    return total / len(idx), d_weak, d_strong


FLOOR_VALUES = (0.0, PROB_FLOOR / 2, PROB_FLOOR, 2 * PROB_FLOOR)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    mask_bits=st.integers(0, 2**24 - 1),
    floored=st.lists(
        st.tuples(
            st.integers(0, 1), st.integers(0, 23), st.integers(0, 7),
            st.sampled_from(FLOOR_VALUES),
        ),
        max_size=8,
    ),
)
@example(seed=0, n=1, mask_bits=1, floored=[(0, 0, 3, PROB_FLOOR), (1, 0, 5, 0.0)])
@example(seed=1, n=4, mask_bits=0, floored=[])
@example(seed=2, n=24, mask_bits=2**24 - 1, floored=[])
def test_consistency_matches_per_row_reference_bitwise(seed, n, mask_bits, floored):
    rng = np.random.default_rng(seed)
    views = [rng.dirichlet(np.full(8, 0.5), size=n) for _ in range(2)]
    for view, row, col, value in floored:
        views[view][row % n, col] = value
    mask = (mask_bits >> np.arange(n)) & 1 == 1
    value, d_w, d_s = consistency_loss_grad(views[0], views[1], mask)
    ref_value, ref_w, ref_s = _consistency_rows(views[0], views[1], mask)
    assert value == ref_value
    assert d_w.tobytes() == ref_w.tobytes()
    assert d_s.tobytes() == ref_s.tobytes()


class TestOverallLoss:
    def test_semi_hand_value(self):
        bd = overall_loss(1, 1, 1, 1, 1, LossWeights(), TrainMode.SEMI)
        assert bd.l_exp == pytest.approx(1.6, abs=1e-12)
        assert bd.total == pytest.approx(3.6, abs=1e-12)

    def test_supervised_ignores_ss_terms(self):
        bd = overall_loss(1, 1, 1, 1, 1, LossWeights(), TrainMode.SUPERVISED)
        assert bd.l_exp == 1.0 and bd.total == 3.0

    def test_no_kl_drops_consistency(self):
        bd = overall_loss(1, 1, 1, 1, 1, LossWeights(), TrainMode.SEMI_NO_KL)
        assert bd.l_exp == pytest.approx(1.5, abs=1e-12)

    def test_all_zero(self):
        bd = overall_loss(0, 0, 0, 0, 0, LossWeights(), TrainMode.SEMI)
        assert bd.total == 0.0

    def test_breakdown_composition(self):
        w = LossWeights(sup=0.3, unsup=0.7, cons=0.2)
        bd = overall_loss(2.0, 3.0, 5.0, 1.0, 0.5, w, TrainMode.SEMI)
        assert bd.l_exp == pytest.approx(0.3 * 2 + 0.7 * 3 + 0.2 * 5, abs=1e-12)
        assert bd.total == pytest.approx(bd.l_exp + bd.l_au + bd.l_va, abs=1e-12)

    def test_effective_lambdas(self):
        w = LossWeights()
        assert effective_lambdas(w, TrainMode.SUPERVISED) == (1.0, 0.0, 0.0)
        assert effective_lambdas(w, TrainMode.SEMI_NO_KL) == (0.5, 1.0, 0.0)
        assert effective_lambdas(w, TrainMode.SEMI) == (0.5, 1.0, 0.1)

    def test_negative_weights_rejected(self):
        with pytest.raises(DataError):
            LossWeights(sup=-0.1)

    def test_mode_values(self):
        assert TrainMode("mfar") is TrainMode.SUPERVISED
        assert TrainMode("ss-mfar") is TrainMode.SEMI
        assert TrainMode("ss-mfar-no-kl") is TrainMode.SEMI_NO_KL
