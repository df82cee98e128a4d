import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from affectmtl.data_model import LABEL_SENTINEL
from affectmtl.errors import ConfigError, DataError
from affectmtl.pseudo_label import (
    ThresholdConfig,
    adaptive_thresholds,
    fresh_class_stats,
    partition_confident,
    update_class_stats,
)


def one_hot_probs(rows):
    """Build a probability matrix with the given (argmax, top_prob) per row."""
    out = np.zeros((len(rows), 8))
    for i, (cls, top) in enumerate(rows):
        out[i] = (1.0 - top) / 7.0
        out[i, cls] = top
    return out


def every(n):
    """A mask that keeps all n rows."""
    return np.ones(n, dtype=bool)


class TestClassStats:
    def test_fresh_state(self):
        stats = fresh_class_stats()
        assert np.all(stats == 0.5)

    def test_single_correct_sample_momentum(self):
        stats = fresh_class_stats()
        probs = one_hot_probs([(2, 0.9)])
        updated = update_class_stats(stats, probs, np.array([2]), every(1), momentum=0.9)
        assert updated[2] == pytest.approx(0.54, abs=1e-12)

    def test_second_batch_compounds(self):
        stats = fresh_class_stats()
        stats = update_class_stats(stats, one_hot_probs([(2, 0.9)]), np.array([2]), every(1))
        stats = update_class_stats(stats, one_hot_probs([(2, 0.8)]), np.array([2]), every(1))
        assert stats[2] == pytest.approx(0.9 * 0.54 + 0.1 * 0.8, abs=1e-12)

    def test_batch_mean_before_momentum(self):
        stats = fresh_class_stats()
        probs = one_hot_probs([(5, 0.6), (5, 1.0)])
        updated = update_class_stats(stats, probs, np.array([5, 5]), every(2))
        assert updated[5] == pytest.approx(0.9 * 0.5 + 0.1 * 0.8, abs=1e-12)

    def test_incorrect_predictions_do_not_count(self):
        stats = fresh_class_stats()
        # Gold is class 1 but the argmax is class 0: no class sees a hit.
        probs = one_hot_probs([(0, 0.9)])
        updated = update_class_stats(stats, probs, np.array([1]), every(1))
        assert np.all(updated == 0.5)

    def test_classes_update_in_isolation(self):
        stats = fresh_class_stats()
        probs = one_hot_probs([(3, 0.7)])
        updated = update_class_stats(stats, probs, np.array([3]), every(1))
        others = [c for c in range(8) if c != 3]
        assert np.all(updated[others] == 0.5)
        assert updated[3] == pytest.approx(0.9 * 0.5 + 0.1 * 0.7, abs=1e-12)

    def test_input_accumulator_not_mutated(self):
        stats = fresh_class_stats()
        update_class_stats(stats, one_hot_probs([(0, 0.99)]), np.array([0]), every(1))
        assert np.all(stats == 0.5)

    def test_empty_batch_is_identity(self):
        stats = fresh_class_stats()
        updated = update_class_stats(stats, np.zeros((0, 8)), np.array([], int), every(0))
        assert np.all(updated == stats)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            update_class_stats(
                fresh_class_stats(), one_hot_probs([(0, 0.9)]), np.array([8]), every(1)
            )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 6))
    def test_mean_prob_stays_in_unit_interval(self, seed, n_batches):
        rng = np.random.default_rng(seed)
        stats = fresh_class_stats()
        for _ in range(n_batches):
            n = int(rng.integers(1, 9))
            probs = rng.dirichlet(np.ones(8), size=n)
            gold = rng.integers(0, 8, n)
            stats = update_class_stats(stats, probs, gold, every(n))
        assert np.all(stats >= 0.0)
        assert np.all(stats <= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 7),
        st.integers(9, 40),
        st.integers(0, 60),
        st.floats(0.0, 0.99),
    )
    def test_matches_per_class_mask_reference(self, seed, hit_class, hits, others, momentum):
        """Bit for bit the per-class masked selections of the reference, on
        batches where hit_class has at least 9 hits (more than the 8 terms
        NumPy's pairwise sum adds in one run), spread among other rows in a
        random order, with masked-out rows holding the sentinel."""
        rng = np.random.default_rng(seed)
        n = hits + others
        probs = rng.dirichlet(np.ones(8), size=n)
        gold = rng.integers(0, 8, n)
        gold[:hits] = hit_class
        probs[:hits, hit_class] += 1.0
        probs[:hits] /= probs[:hits].sum(axis=1, keepdims=True)
        mask = rng.random(n) < 0.8
        mask[:hits] = True
        gold[~mask] = LABEL_SENTINEL
        order = rng.permutation(n)
        probs, gold, mask = probs[order], gold[order], mask[order]
        stats = rng.random(8)
        got = update_class_stats(stats, probs, gold, mask, momentum=momentum)
        want = oracles.update_class_stats(stats, probs, gold, mask, momentum=momentum)
        assert got.tobytes() == want.tobytes()
        assert got[hit_class] != stats[hit_class]


class TestAdaptiveThresholds:
    CONFIG = ThresholdConfig()

    def stats_of(self, value):
        return np.full(8, value)

    def test_epoch_zero_halves(self):
        t = adaptive_thresholds(self.stats_of(0.8), 0, self.CONFIG)
        assert np.all(np.abs(t - 0.38) < 1e-9)

    def test_large_epoch_limit(self):
        t = adaptive_thresholds(self.stats_of(0.8), 200, self.CONFIG)
        assert np.all(np.abs(t - 0.95 * 0.8) < 1e-9)

    def test_zero_mean_prob_gives_zero(self):
        t = adaptive_thresholds(self.stats_of(0.0), 5, self.CONFIG)
        assert np.all(t == 0.0)

    def test_strictly_increasing_in_epoch(self):
        stats = self.stats_of(0.6)
        values = [adaptive_thresholds(stats, e, self.CONFIG)[0] for e in range(12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(1e-6, 1.0),
        st.integers(0, 500),
        st.floats(0.05, 1.0),
        st.floats(1.0001, 50.0),
    )
    def test_bounded_below_asymptote(self, mean_prob, epoch, beta, gamma):
        config = ThresholdConfig(beta=beta, gamma=gamma)
        stats = self.stats_of(mean_prob)
        t = adaptive_thresholds(stats, epoch, config)
        assert np.all(t < beta * mean_prob + 1e-15)
        assert np.all(t >= 0.0)

    def test_negative_epoch_rejected(self):
        with pytest.raises(DataError):
            adaptive_thresholds(self.stats_of(0.5), -1, self.CONFIG)

    def test_epoch_one_exact_formula(self):
        t = adaptive_thresholds(self.stats_of(0.8), 1, self.CONFIG)
        expected = 0.95 * 0.8 / (1.0 + math.exp(-1.0))
        assert t[0] == pytest.approx(expected, abs=1e-12)


class TestPartition:
    def test_strict_inequality_at_boundary(self):
        thresholds = np.full(8, 0.5)
        probs = one_hot_probs([(0, 0.5)])  # exactly at the threshold
        part = partition_confident(probs, thresholds)
        assert not part.confident[0]
        assert part.pseudo_labels[0] == 0

    def test_above_threshold_is_confident(self):
        thresholds = np.full(8, 0.5)
        part = partition_confident(one_hot_probs([(4, 0.500001)]), thresholds)
        assert part.confident[0]
        assert part.pseudo_labels[0] == 4

    def test_per_class_thresholds_route_by_argmax(self):
        thresholds = np.zeros(8)
        thresholds[1] = 0.99
        probs = one_hot_probs([(1, 0.9), (2, 0.9)])
        part = partition_confident(probs, thresholds)
        assert not part.confident[0]  # class 1's threshold blocks it
        assert part.confident[1]

    def test_argmax_tie_breaks_low(self):
        probs = np.full((1, 8), 1.0 / 8.0)
        part = partition_confident(probs, np.zeros(8))
        assert part.pseudo_labels[0] == 0
        assert part.confident[0]  # 0.125 > 0

    def test_labels_cover_every_row(self):
        probs = np.random.default_rng(7).dirichlet(np.ones(8), size=20)
        part = partition_confident(probs, np.full(8, 0.4))
        assert part.pseudo_labels.shape == (20,)
        assert np.all((part.pseudo_labels >= 0) & (part.pseudo_labels < 8))
        assert np.array_equal(part.pseudo_labels, np.argmax(probs, axis=1))

    def test_empty_input(self):
        part = partition_confident(np.zeros((0, 8)), np.zeros(8))
        assert part.confident.shape == (0,)

    def test_wrong_width_rejected(self):
        with pytest.raises(DataError):
            partition_confident(np.zeros((2, 7)), np.zeros(8))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_lower_thresholds_admit_supersets(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(8), size=10)
        t_high = rng.uniform(0.0, 0.95, 8)
        t_low = t_high * rng.uniform(0.0, 1.0, 8)
        high = partition_confident(probs, t_high)
        low = partition_confident(probs, t_low)
        assert np.all(low.confident | ~high.confident)


class TestThresholdConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 1.2},
            {"beta": -0.5},
            {"gamma": 1.0},
            {"gamma": 0.5},
            {"momentum": 1.0},
            {"momentum": -0.1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ThresholdConfig(**kwargs)

    def test_defaults(self):
        config = ThresholdConfig()
        assert config.beta == 0.95
        assert config.gamma == math.e
        assert config.momentum == 0.9
