import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl.errors import DataError
from affectmtl.losses import ccc_loss_grad
from affectmtl.metrics import au_macro_f1, macro_f1, mtl_score


def brute_force_f1(pred, gold, cls):
    """Set-based recount, independent of the vectorized production path."""
    pred_set = {i for i, p in enumerate(pred) if p == cls}
    gold_set = {i for i, g in enumerate(gold) if g == cls}
    tp = len(pred_set & gold_set)
    fp = len(pred_set - gold_set)
    fn = len(gold_set - pred_set)
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


class TestMacroF1:
    def test_two_class_hand_case(self):
        pred = np.array([0, 0, 1, 0])
        gold = np.array([0, 0, 1, 1])
        mean, per_class = macro_f1(pred, gold, 2)
        assert per_class[0] == pytest.approx(0.8, abs=1e-12)
        assert per_class[1] == pytest.approx(2 / 3, abs=1e-12)
        assert mean == pytest.approx((0.8 + 2 / 3) / 2, abs=1e-12)

    def test_symmetric_mistake_pair(self):
        mean, per_class = macro_f1(np.array([0, 1, 1]), np.array([0, 1, 0]), 2)
        assert per_class[0] == pytest.approx(2 / 3, abs=1e-12)
        assert per_class[1] == pytest.approx(2 / 3, abs=1e-12)
        assert mean == pytest.approx(2 / 3, abs=1e-12)

    def test_absent_classes_drag_mean_down(self):
        pred = gold = np.array([0, 1])
        mean, per_class = macro_f1(pred, gold, 8)
        assert per_class[0] == per_class[1] == 1.0
        assert np.all(per_class[2:] == 0.0)
        assert mean == pytest.approx(0.25, abs=1e-12)
        # Class 2 has only false positives, class 0 only a false negative.
        _, per_class = macro_f1(np.array([2, 1]), np.array([0, 1]), 8)
        assert per_class[0] == per_class[2] == 0.0 and per_class[1] == 1.0

    def test_perfect_all_classes(self):
        labels = np.arange(8)
        mean, _ = macro_f1(labels, labels.copy(), 8)
        assert mean == 1.0

    def test_empty_input(self):
        mean, per_class = macro_f1(np.array([], int), np.array([], int), 8)
        assert mean == 0.0
        assert np.all(per_class == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            macro_f1(np.array([0, 1]), np.array([0]), 8)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            macro_f1(np.array([8]), np.array([0]), 8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 200))
    def test_matches_brute_force_recount(self, seed, n):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 8, n)
        gold = rng.integers(0, 8, n)
        mean, per_class = macro_f1(pred, gold, 8)
        expected = [brute_force_f1(pred, gold, c) for c in range(8)]
        assert np.allclose(per_class, expected, atol=0)
        assert mean == pytest.approx(np.mean(expected), abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 8, 40)
        gold = rng.integers(0, 8, 40)
        perm = rng.permutation(40)
        assert macro_f1(pred, gold, 8)[0] == macro_f1(pred[perm], gold[perm], 8)[0]


class TestAuMacroF1:
    def test_single_unit_hand_case(self):
        probs = np.zeros((3, 12))
        gold = np.zeros((3, 12), int)
        probs[:, 0] = [0.6, 0.4, 0.7]
        gold[:, 0] = [1, 0, 0]
        # Units 1-4: perfect; no predictions and no gold (0/0/0); only false
        # positives; tp=2, fp=1, fn=0, so P = 2/3, R = 1 and F1 = 0.8.
        probs[:, 1], gold[:, 1] = [0.9, 0.9, 0.1], [1, 1, 0]
        probs[:, 3], gold[:, 3] = [0.9, 0.9, 0.9], [0, 0, 0]
        probs[:, 4], gold[:, 4] = [0.9, 0.9, 0.9], [1, 1, 0]
        _, per_unit = au_macro_f1(probs, gold, np.ones(3, bool))
        assert per_unit[0] == pytest.approx(2 / 3, abs=1e-12)
        assert per_unit[1] == 1.0
        assert per_unit[2] == 0.0
        assert per_unit[3] == 0.0
        assert per_unit[4] == pytest.approx(0.8)

    def test_half_probability_counts_positive(self):
        probs = np.full((2, 12), 0.5)
        gold = np.ones((2, 12), int)
        mean, per_unit = au_macro_f1(probs, gold, np.ones(2, bool))
        assert mean == 1.0

    def test_mask_drops_rows(self):
        probs = np.zeros((3, 12))
        probs[2] = 1.0
        gold = np.ones((3, 12), int)
        # Keeping only rows 0/1 leaves no predicted positives at all.
        with_mask = au_macro_f1(probs, gold, np.array([True, True, False]))[0]
        assert with_mask == 0.0
        # Row 2 alone is a clean true positive for every unit: P=1, R=1/3.
        without = au_macro_f1(probs, gold, np.ones(3, bool))[0]
        assert without == pytest.approx(0.5, abs=1e-12)

    def test_perfect_units(self):
        gold = np.random.default_rng(3).integers(0, 2, (10, 12))
        probs = gold.astype(float)
        mean, per_unit = au_macro_f1(probs, gold, np.ones(10, bool))
        assert mean == 1.0 and np.all(per_unit == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_brute_force_per_unit(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0, 1, (30, 12))
        gold = rng.integers(0, 2, (30, 12))
        _, per_unit = au_macro_f1(probs, gold, np.ones(30, bool))
        for u in range(12):
            pred_u = (probs[:, u] >= 0.5).astype(int)
            assert per_unit[u] == pytest.approx(
                brute_force_f1(pred_u, gold[:, u], 1), abs=0
            )


class TestMtlScore:
    def random_inputs(self, rng, n=40):
        return dict(
            pred_va=rng.uniform(-1, 1, (n, 2)),
            gold_va=rng.uniform(-1, 1, (n, 2)),
            va_mask=rng.random(n) < 0.7,
            pred_exp=rng.integers(0, 8, n),
            gold_exp=rng.integers(0, 8, n),
            exp_mask=rng.random(n) < 0.7,
            au_probs=rng.uniform(0, 1, (n, 12)),
            gold_au=rng.integers(0, 2, (n, 12)),
            au_mask=rng.random(n) < 0.7,
        )

    def test_combined_is_sum_of_parts(self, rng):
        score = mtl_score(**self.random_inputs(rng))
        assert score.p_mtl == pytest.approx(
            score.p_va + score.p_exp + score.p_au, abs=1e-12
        )

    def test_component_sum_example(self):
        assert 0.235 + 0.493 + 0.391 == pytest.approx(1.119, abs=1e-12)

    def test_va_score_complements_training_loss(self, rng):
        inputs = self.random_inputs(rng)
        score = mtl_score(**inputs)
        loss = ccc_loss_grad(inputs["pred_va"], inputs["gold_va"], inputs["va_mask"])[0]
        assert score.p_va == pytest.approx(1.0 - loss, abs=1e-12)

    def test_va_mean_of_dimensions(self, rng):
        score = mtl_score(**self.random_inputs(rng))
        assert score.p_va == pytest.approx(
            (score.ccc_valence + score.ccc_arousal) / 2, abs=1e-12
        )

    def test_fewer_than_two_va_samples_degenerate(self, rng):
        inputs = self.random_inputs(rng)
        inputs["va_mask"] = np.zeros(40, bool)
        inputs["va_mask"][3] = True
        score = mtl_score(**inputs)
        assert score.va_degenerate
        assert score.p_va == 0.0
        assert score.ccc_valence == 0.0 and score.ccc_arousal == 0.0

    def test_masks_select_rows(self, rng):
        inputs = self.random_inputs(rng)
        full = mtl_score(**inputs)
        # Recompute on physically filtered copies; must agree.
        m_exp = inputs["exp_mask"]
        manual_exp, _ = macro_f1(inputs["pred_exp"][m_exp], inputs["gold_exp"][m_exp], 8)
        assert full.p_exp == manual_exp
        m_au = inputs["au_mask"]
        manual_au, _ = au_macro_f1(
            inputs["au_probs"][m_au], inputs["gold_au"][m_au], np.ones(m_au.sum(), bool)
        )
        assert full.p_au == manual_au

    def test_perfect_predictions_score_three(self, rng):
        n = 30
        gold_va = rng.uniform(-1, 1, (n, 2))
        gold_exp = np.arange(n) % 8
        gold_au = rng.integers(0, 2, (n, 12))
        score = mtl_score(
            pred_va=gold_va.copy(),
            gold_va=gold_va,
            va_mask=np.ones(n, bool),
            pred_exp=gold_exp.copy(),
            gold_exp=gold_exp,
            exp_mask=np.ones(n, bool),
            au_probs=gold_au.astype(float),
            gold_au=gold_au,
            au_mask=np.ones(n, bool),
        )
        assert score.p_mtl == pytest.approx(3.0, abs=1e-12)

    def test_per_class_tuples_exposed(self, rng):
        score = mtl_score(**self.random_inputs(rng))
        assert len(score.exp_f1) == 8
        assert len(score.au_f1) == 12
