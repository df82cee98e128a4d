import os
import sys
import tracemalloc

import numpy as np
import pytest

import affectmtl.trainer
from affectmtl.augmentation import (
    STRONG_DRAWS,
    STRONG_VIEW,
    WEAK_DRAWS,
    WEAK_VIEW,
    augment_views,
    view_uniforms,
)
from affectmtl.config import RunConfig, SynthFileConfig
from affectmtl.data_model import (
    LABEL_SENTINEL,
    VA_SENTINEL,
    LabelArrays,
    SynthConfig,
    au_positive_weights,
    dataset_stats,
    expression_class_weights,
    generate_synthetic,
    load_images,
    load_manifest,
    write_dataset,
)
from affectmtl.errors import DataError, DivergenceError
from affectmtl.losses import LossWeights, TrainMode
from affectmtl.network import (
    BACKBONE_FIELDS,
    PARAM_FIELDS,
    ModelConfig,
    backward,
    forward_with_cache,
    init_params,
    softmax,
)
from affectmtl.pgm import level_pixels
from affectmtl.pseudo_label import fresh_class_stats, partition_confident
from affectmtl.trainer import (
    ADAM_BLOCK,
    AUGMENT_GROUP_ROWS,
    LABEL_FIELDS,
    LOG_FIELDS,
    AdamState,
    TrainState,
    adam_init,
    adam_step,
    batch_loss_and_grads,
    evaluate_packed,
    format_epoch_log,
    make_epoch_schedule,
    pack_dataset,
    parse_epoch_log,
    run_training,
    slice_targets,
    train_step,
    wants_strong,
)
from conftest import keyed_views, make_dataset, map_fields, traced_peak
from oracles import LEVEL_PIXELS


def small_packed(count=24, size=8, seed=0, exp_mask=0.4, va_mask=0.2, au_mask=0.2):
    config = SynthConfig(
        count=count,
        image_size=size,
        exp_mask_rate=exp_mask,
        va_mask_rate=va_mask,
        au_mask_rate=au_mask,
    )
    dataset, images = generate_synthetic(config, seed)
    return pack_dataset(dataset, images)


def fully_labeled_packed(count=24, size=8, seed=0):
    return small_packed(count, size, seed, exp_mask=0.0, va_mask=0.0, au_mask=0.0)


def pack_images(images):
    """pack_dataset of images under rows whose every label is missing."""
    row = (VA_SENTINEL, VA_SENTINEL, LABEL_SENTINEL, (LABEL_SENTINEL,) * 12)
    return pack_dataset(make_dataset([row] * len(images)), images)


ALL_LEVELS = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)


def params_equal(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in PARAM_FIELDS
    )


def params_close(a, b, atol):
    return all(
        np.allclose(getattr(a, f), getattr(b, f), atol=atol, rtol=0)
        for f in PARAM_FIELDS
    )


class TestPackDataset:
    def test_arrays_mirror_annotations(self):
        packed = small_packed(count=50, seed=3)
        assert len(packed) == 50
        assert packed.levels.shape == (50, 8, 8)
        # Sentinels and validity flags must agree everywhere.
        assert np.array_equal(packed.exp_valid, packed.gold_exp != -1)
        assert np.array_equal(packed.va_valid, packed.gold_va[:, 0] != -5.0)
        assert np.array_equal(
            packed.au_valid, ~np.any(packed.gold_au == -1, axis=1)
        )
        # Joint missing: valence and arousal together, AUs all-or-nothing.
        assert np.array_equal(
            packed.gold_va[:, 0] == -5.0, packed.gold_va[:, 1] == -5.0
        )
        au_missing = packed.gold_au == -1
        assert np.all(au_missing.all(axis=1) | (~au_missing).all(axis=1))

    def test_every_level_round_trips(self):
        packed = pack_images(ALL_LEVELS)
        assert packed.levels.dtype == np.uint8
        assert packed.levels.ravel().tolist() == list(range(256))
        # Level k reads as k / 255 in Python's own float division.
        expected = np.array([k / 255 for k in range(256)])
        assert level_pixels(packed.levels).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "levels",
        [
            np.zeros((4, 64), np.uint8),
            np.zeros((2, 4, 4)),
            np.zeros((2, 4, 4), np.int64),
            np.zeros((2, 1, 4, 4), np.uint8),
        ],
        ids=["(4, 64) uint8", "float64", "int64", "4-d uint8"],
    )
    def test_rejects_other_than_uint8_levels(self, levels):
        with pytest.raises(DataError, match=r"expected a uint8 \(n, h, w\) array of levels"):
            pack_images(levels)

    def test_default_train_split_holds_a_byte_per_pixel(self):
        # 2,000 16x16 images: 512,000 bytes of levels, where float64
        # pixels took 4,096,000.
        dataset, levels = generate_synthetic(SynthFileConfig().train_config(), 0, prefix="train")
        packed = pack_dataset(dataset, levels)
        assert packed.levels is levels and levels.nbytes == 512_000
        assert level_pixels(packed.levels).tobytes() == LEVEL_PIXELS[levels].tobytes()

    def test_load_path_allocates_the_levels_only(self, tmp_path):
        """Loading and packing the default train split from disk holds its
        pixels as the levels read, with no float copy on the way."""
        dataset, levels = generate_synthetic(SynthFileConfig().train_config(), 0, prefix="train")
        write_dataset(tmp_path, "train.csv", dataset, levels)
        loaded = load_manifest(tmp_path / "train.csv")
        packed = []
        peak = traced_peak(lambda: packed.append(pack_dataset(loaded, load_images(loaded, tmp_path))))
        assert packed[0].levels.tobytes() == levels.tobytes()
        assert peak <= 1.25 * levels.nbytes == 640_000

    def test_image_count_mismatch(self):
        packed = small_packed(count=5)
        with pytest.raises(DataError):
            pack_dataset(make_dataset([]), packed.levels)

    def test_slice_targets_views(self):
        packed = small_packed(count=20, seed=1)
        idx = np.array([3, 0, 7])
        targets = slice_targets(packed, idx)
        assert np.array_equal(targets.gold_exp, packed.gold_exp[idx])
        assert np.array_equal(targets.any_valid,
                              (packed.exp_valid | packed.au_valid | packed.va_valid)[idx])
        # A slice gives views of the table it slices, as each step gets.
        window = slice_targets(targets, slice(1, 3))
        for name in LABEL_FIELDS:
            assert np.shares_memory(getattr(window, name), getattr(targets, name))
            assert np.array_equal(getattr(window, name), getattr(targets, name)[1:3])


class TestSchedule:
    def test_reweight_is_a_permutation(self):
        packed = small_packed(count=30, seed=2)
        rng = np.random.default_rng(0)
        schedule = make_epoch_schedule(packed, "reweight", rng, np.ones(8))
        assert sorted(schedule) == list(range(30))

    def test_resample_preserves_length_and_keeps_unlabeled_once(self):
        packed = small_packed(count=40, seed=5)
        rng = np.random.default_rng(0)
        w_exp = expression_class_weights(dataset_stats(packed))
        schedule = make_epoch_schedule(packed, "resample", rng, w_exp)
        assert len(schedule) == 40
        unlabeled = np.flatnonzero(~packed.exp_valid)
        for i in unlabeled:
            assert np.count_nonzero(schedule == i) == 1

    def test_resample_equalizes_class_shares(self):
        # 700 samples of class 0 vs 100 of class 1; weights push the rare
        # class to an even share of the labeled draws.
        config = SynthConfig(
            count=800,
            image_size=8,
            class_priors=(0.875, 0.125, 0, 0, 0, 0, 0, 0),
            exp_mask_rate=0.0,
            va_mask_rate=0.0,
            au_mask_rate=0.0,
        )
        dataset, images = generate_synthetic(config, 9)
        packed = pack_dataset(dataset, images)
        w_exp = expression_class_weights(dataset_stats(packed))
        rng = np.random.default_rng(123)
        counts = np.zeros(8)
        draws = 0
        for _ in range(125):
            schedule = make_epoch_schedule(packed, "resample", rng, w_exp)
            counts += np.bincount(packed.gold_exp[schedule], minlength=8)
            draws += len(schedule)
        share = counts / draws
        present = np.array(dataset_stats(packed).exp_class_counts) > 0
        assert np.all(np.abs(share[present] - 0.5) < 0.02)

    def test_empty_dataset_rejected(self):
        packed_empty = pack_dataset(make_dataset([]), np.zeros((0, 8, 8), np.uint8))
        with pytest.raises(DataError):
            make_epoch_schedule(packed_empty, "reweight", np.random.default_rng(0), np.ones(8))


class TestBatchLossAndGrads:
    def setup_method(self):
        self.packed = small_packed(count=12, size=6, seed=7)
        self.mc = ModelConfig(image_height=6, image_width=6, hidden_width=4)
        self.params = init_params(self.mc, 0)
        stats = dataset_stats(self.packed)
        self.w_exp = expression_class_weights(stats)
        self.w_au = au_positive_weights(stats)

    def test_all_invalid_sample_contributes_nothing(self):
        # Compare a batch with an extra all-invalid sample against the batch
        # without it: identical losses, gradients within 1e-12.
        packed = self.packed
        idx_valid = np.flatnonzero(
            packed.exp_valid & packed.au_valid & packed.va_valid
        )[:4]
        # Build one all-invalid row by hand.
        images = level_pixels(packed.levels[idx_valid])
        extra = np.concatenate([images, level_pixels(packed.levels[[0]])])
        targets_small = slice_targets(packed, idx_valid)
        targets_big = LabelArrays(
            gold_exp=np.concatenate([targets_small.gold_exp, [-1]]),
            gold_au=np.concatenate([targets_small.gold_au, -np.ones((1, 12), int)]),
            gold_va=np.concatenate([targets_small.gold_va, [[-5.0, -5.0]]]),
            exp_valid=np.concatenate([targets_small.exp_valid, [False]]),
            au_valid=np.concatenate([targets_small.au_valid, [False]]),
            va_valid=np.concatenate([targets_small.va_valid, [False]]),
        )
        kwargs = dict(
            w_exp=self.w_exp, w_au=self.w_au,
            weights=LossWeights(), mode=TrainMode.SEMI,
            ss_rows=np.array([], int), confident=np.array([], bool),
            pseudo_labels=np.array([], int),
        )
        loss_small, grads_small = batch_loss_and_grads(
            self.params, images, targets_small, **kwargs
        )
        loss_big, grads_big = batch_loss_and_grads(
            self.params, extra, targets_big, **kwargs
        )
        assert loss_big.total == pytest.approx(loss_small.total, abs=1e-12)
        for f in PARAM_FIELDS:
            assert np.allclose(
                getattr(grads_big, f), getattr(grads_small, f), atol=1e-12, rtol=0
            ), f

    def test_supervised_mode_ignores_partition(self):
        idx = np.arange(6)
        targets = slice_targets(self.packed, idx)
        images = level_pixels(self.packed.levels[idx])
        loss, _ = batch_loss_and_grads(
            self.params, images, targets, self.w_exp, self.w_au,
            LossWeights(), TrainMode.SUPERVISED,
        )
        assert loss.l_exp_unsup == 0.0
        assert loss.l_exp_cons == 0.0
        assert loss.l_exp == loss.l_exp_sup

    def test_no_kl_mode_zeroes_consistency(self):
        idx = np.arange(12)
        targets = slice_targets(self.packed, idx)
        ss_rows = np.flatnonzero(~targets.exp_valid & targets.any_valid)
        if not len(ss_rows):
            pytest.skip("seed produced no unlabeled rows")
        images = level_pixels(self.packed.levels[idx])
        loss, _ = batch_loss_and_grads(
            self.params, images, targets, self.w_exp, self.w_au,
            LossWeights(), TrainMode.SEMI_NO_KL,
            strong_images=images[ss_rows],
            ss_rows=ss_rows,
            confident=np.ones(len(ss_rows), bool),
            pseudo_labels=np.zeros(len(ss_rows), int),
        )
        assert loss.l_exp_cons == 0.0
        assert loss.l_exp_unsup > 0.0

    def test_strong_gradients_added_bitwise(self, monkeypatch):
        """The result is the weak-view and strong-view backward passes,
        each taken as returned, summed elementwise."""
        returned = []

        def recording_backward(*args, **kwargs):
            grads = backward(*args, **kwargs)
            returned.append(grads.flat.copy())
            return grads

        monkeypatch.setattr(affectmtl.trainer, "backward", recording_backward)
        idx = np.arange(12)
        targets = slice_targets(self.packed, idx)
        ss_rows = np.flatnonzero(~targets.exp_valid & targets.any_valid)
        assert len(ss_rows) >= 2
        rng = np.random.default_rng(3)
        _, grads = batch_loss_and_grads(
            self.params, level_pixels(self.packed.levels[idx]), targets, self.w_exp, self.w_au,
            LossWeights(), TrainMode.SEMI,
            strong_images=rng.random((len(ss_rows), 6, 6)),
            ss_rows=ss_rows,
            confident=np.arange(len(ss_rows)) % 2 == 0,
            pseudo_labels=np.arange(len(ss_rows)) % 8,
        )
        assert len(returned) == 2
        assert not np.array_equal(returned[1], np.zeros_like(returned[1]))
        assert grads.flat.tobytes() == (returned[0] + returned[1]).tobytes()

    def test_probe_probabilities_give_the_same_bits(self):
        """Without cache_w and probs_w (as the finite-difference checks call
        it) the function gives the loss and gradient bytes of a call with
        the probe's cache and softmax (as a training step calls it); the
        consistency term is active (some rows are not confident)."""
        idx = np.arange(12)
        targets = slice_targets(self.packed, idx)
        weak = level_pixels(self.packed.levels[idx])
        ss_rows = np.flatnonzero(~targets.exp_valid & targets.any_valid)
        assert len(ss_rows) >= 3
        kwargs = dict(
            strong_images=np.random.default_rng(3).random((len(ss_rows), 6, 6)),
            ss_rows=ss_rows,
            confident=np.arange(len(ss_rows)) % 2 == 1,
            pseudo_labels=np.arange(len(ss_rows)) % 8,
        )
        args = (self.params, weak, targets, self.w_exp, self.w_au, LossWeights(), TrainMode.SEMI)
        alone, alone_grads = batch_loss_and_grads(*args, **kwargs)
        cache = forward_with_cache(self.params, weak)
        probs = softmax(cache.exp_logits)
        probed, probed_grads = batch_loss_and_grads(
            *args, **kwargs, cache_w=cache, probs_w=probs
        )
        assert repr(probed) == repr(alone)
        assert alone.l_exp_cons > 0.0
        assert probed_grads.flat.tobytes() == alone_grads.flat.tobytes()


class TestAdam:
    def setup_method(self):
        self.mc = ModelConfig(image_height=4, image_width=4, hidden_width=3)
        self.params = init_params(self.mc, 0)
        self.lr = (0.01, 0.01)  # lr_base, lr_heads

    def test_zero_gradient_keeps_params(self):
        state = adam_init(self.params)
        new_params, new_state = adam_step(
            self.params, map_fields(np.zeros_like, self.params), state, *self.lr
        )
        assert params_equal(new_params, self.params)
        assert new_state.t == 1

    def test_constant_gradient_unit_steps(self):
        # With a constant gradient the bias-corrected step size approaches
        # the learning rate per step, regardless of the gradient scale.
        params = self.params
        state = adam_init(params)
        for _ in range(1000):
            grads = map_fields(lambda p: np.full_like(p, 3.7), params)
            params, state = adam_step(params, grads, state, *self.lr)
        drop = self.params.w1[0, 0] - params.w1[0, 0]
        assert drop == pytest.approx(1000 * 0.01, rel=0.01)

    def test_first_step_magnitude(self):
        state = adam_init(self.params)
        grads = map_fields(lambda p: np.full_like(p, 2.0), self.params)
        new_params, _ = adam_step(self.params, grads, state, *self.lr)
        # First bias-corrected step is lr * g/(|g| + eps') ~= lr.
        step = self.params.w1 - new_params.w1
        assert np.all(np.abs(step - 0.01) < 1e-6)

    def test_learning_rate_ratio_exact(self):
        # Defaults: backbone 0.001, heads exactly ten times that.  With a
        # constant gradient the first step moves every entry by about its
        # rate, so each field shows which of the two rates it got.
        config = RunConfig()
        assert (config.lr_base, config.lr_heads) == (0.001, 0.01)
        assert config.lr_heads / config.lr_base == pytest.approx(10.0)
        grads = map_fields(lambda p: np.full_like(p, 2.0), self.params)
        new_params, _ = adam_step(
            self.params, grads, adam_init(self.params), config.lr_base, config.lr_heads
        )
        for f in PARAM_FIELDS:
            rate = config.lr_base if f in ("w1", "b1", "w2", "b2") else config.lr_heads
            step = getattr(self.params, f) - getattr(new_params, f)
            assert np.all(np.abs(step - rate) < 1e-6), f

    def test_matches_per_field_reference_bitwise(self):
        self._check_per_field_reference(lr_base=0.001, lr_heads=0.01)

    def test_matches_per_field_reference_bitwise_equal_rates(self):
        self._check_per_field_reference(lr_base=0.001, lr_heads=0.001)

    @pytest.mark.parametrize(
        "block", [131_584, 1 << 20, 1000], ids=["edge", "one block", "small blocks"]
    )
    def test_backbone_boundary_anywhere_in_the_blocks(self, block, monkeypatch):
        """The rates switch at the backbone boundary wherever it falls: on a
        block edge, inside the one block of the whole buffer, or inside the
        132nd of many small blocks (the default ADAM_BLOCK puts it 512
        entries into the fifth block)."""
        monkeypatch.setattr(affectmtl.trainer, "ADAM_BLOCK", block)
        self._check_per_field_reference(lr_base=0.001, lr_heads=0.01)

    def _check_per_field_reference(self, lr_base, lr_heads):
        # Width 256 on 16x16 images: 268,822 entries, of which 131,584 =
        # 4 * 2**15 + 512 are the backbone's.
        params = init_params(ModelConfig(16, 16, hidden_width=256), 0)
        backbone_size = sum(getattr(params, f).size for f in BACKBONE_FIELDS)
        assert backbone_size == 4 * ADAM_BLOCK + 512
        rates = {
            f: lr_base if f in ("w1", "b1", "w2", "b2") else lr_heads
            for f in PARAM_FIELDS
        }
        rng = np.random.default_rng(5)
        ref = {f: getattr(params, f).copy() for f in PARAM_FIELDS}
        ref_m = {f: np.zeros_like(a) for f, a in ref.items()}
        ref_v = {f: np.zeros_like(a) for f, a in ref.items()}
        state = adam_init(params)
        for t in range(1, 4):
            grads = map_fields(lambda p: rng.normal(0.0, 0.1, p.shape), params)
            consumed = map_fields(np.copy, grads)
            params, state = adam_step(params, grads, state, lr_base, lr_heads)
            corr1, corr2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for f in PARAM_FIELDS:
                g = getattr(consumed, f)
                ref_m[f] = 0.9 * ref_m[f] + (1 - 0.9) * g
                ref_v[f] = 0.999 * ref_v[f] + (1 - 0.999) * g * g
                ref[f] = ref[f] - rates[f] * (ref_m[f] / corr1) / (
                    np.sqrt(ref_v[f] / corr2) + 1e-8
                )
        assert state.t == 3
        for f in PARAM_FIELDS:
            assert getattr(params, f).tobytes() == ref[f].tobytes()
        for flat, ref_moment in ((state.m, ref_m), (state.v, ref_v)):
            expected = np.concatenate([ref_moment[f].ravel() for f in PARAM_FIELDS])
            assert flat.tobytes() == expected.tobytes()

    def test_inputs_unchanged_and_result_fresh(self):
        """params is never written and the result shares no memory with it
        or the moments: the new parameters are written over grads.flat."""
        grads = map_fields(lambda p: np.full_like(p, 0.5), self.params)
        grads_flat = grads.flat
        params_bytes = self.params.flat.tobytes()
        new_params, state = adam_step(self.params, grads, adam_init(self.params), *self.lr)
        assert self.params.flat.tobytes() == params_bytes
        for other in (self.params.flat, state.m, state.v):
            assert not np.shares_memory(new_params.flat, other)
        assert new_params.flat is grads_flat
        for name in PARAM_FIELDS:
            assert np.shares_memory(getattr(new_params, name), grads_flat)

    def test_step_allocates_only_block_scratch(self):
        """One width-256 step allocates its block scratch and no parameter-
        sized buffer.  Measured: 263,080 bytes (scratch 262,144); a step
        that wrote a fresh buffer allocated 2,416,016 (params 2,150,576)."""
        params = init_params(ModelConfig(16, 16, hidden_width=256), 0)
        assert params.flat.size > ADAM_BLOCK
        grads = map_fields(lambda p: np.full_like(p, 0.5), params)
        state = adam_init(params)
        peak = traced_peak(lambda: adam_step(params, grads, state, *self.lr))
        assert peak <= ADAM_BLOCK * 8 + 0.01 * params.flat.nbytes, peak


def wide_semi_step():
    """(step, parameter bytes): step() runs a width-256 semi-supervised step
    over 64 rows from the state one such step left."""
    packed = small_packed(count=64, size=16, seed=0)
    config = RunConfig(hidden_width=256)
    params = init_params(ModelConfig(16, 16, 256), 0)
    state = TrainState(params, adam_init(params), fresh_class_stats())
    stats = dataset_stats(packed)
    w_exp = expression_class_weights(stats)
    w_au = au_positive_weights(stats)
    batch = np.arange(64)
    want = wants_strong(packed, config.mode)
    assert np.count_nonzero(want) > 0
    views = keyed_views(packed.levels, batch, config.seed, 0, config.augment, want)
    args = (slice_targets(packed, batch), want, *views, config, w_exp, w_au, 0)
    state, _, _ = train_step(state, *args)
    return (lambda: train_step(state, *args)), params.flat.nbytes


def test_semi_supervised_step_peak_allocation():
    """A semi-supervised step at width 256 allocates at most 3.5 parameter
    buffers' worth at its peak.  The peak holds the weak and strong gradients
    and the forward caches; one more parameter-sized temporary exceeds it."""
    step, nbytes = wide_semi_step()
    peak = traced_peak(step)
    assert peak <= 3.5 * nbytes, peak / nbytes


def test_step_frees_its_forward_state_before_adam(monkeypatch):
    """When a width-256 semi-supervised step enters adam_step, it holds at
    most 1.1 parameter buffers more than before the step: the gradients Adam
    consumes.  Measured: 1.002; keeping the float weak views, the probe's
    forward cache and its probabilities alive into Adam, 1.380."""
    step, nbytes = wide_semi_step()
    at_adam = []

    def recording(*args):
        at_adam.append(tracemalloc.get_traced_memory()[0])
        return adam_step(*args)

    monkeypatch.setattr(affectmtl.trainer, "adam_step", recording)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
    finally:
        tracemalloc.stop()
    (held,) = [size - before for size in at_adam]
    assert held <= 1.1 * nbytes, held / nbytes


@pytest.mark.parametrize("mode, bound", [(TrainMode.SEMI, 50), (TrainMode.SUPERVISED, 20)])
def test_step_numpy_python_calls(mode, bound):
    """One group of width-64 steps, its augment_views call over
    AUGMENT_GROUP_ROWS rows and its two 64-row steps, enters NumPy's Python
    layer (its wrapper functions, dispatchers and _methods) at most `bound`
    times: per-step code calls ufunc reductions and array methods directly.
    Measured with NumPy 2.4.6: 20 and 10 frames for the group, where one
    step that augmented its own batch took 14 and 5; calling np.sum,
    np.mean, np.flatnonzero, np.zeros_like, .sum() and the like, and
    forwarding the strong views through all three heads, took 224 and 125
    for one step.  The counts depend on how a NumPy version splits work
    between Python and C, so a failure after a NumPy upgrade need not be a
    regression here."""
    packed = small_packed(count=AUGMENT_GROUP_ROWS, size=16, seed=0)
    config = RunConfig(mode=mode)
    assert AUGMENT_GROUP_ROWS == 2 * config.batch_size
    params = init_params(ModelConfig(16, 16, config.hidden_width), 0)
    state = TrainState(params, adam_init(params), fresh_class_stats())
    stats = dataset_stats(packed)
    w_exp = expression_class_weights(stats)
    w_au = au_positive_weights(stats)
    group = np.arange(AUGMENT_GROUP_ROWS)
    targets = slice_targets(packed, group)
    want = wants_strong(packed, mode)
    assert (np.count_nonzero(want) > 0) == (mode is not TrainMode.SUPERVISED)
    half = config.batch_size
    strong_half = np.count_nonzero(want[:half])

    def group_steps(state):
        weak, strong = keyed_views(packed.levels, group, config.seed, 1, config.augment, want)
        for batch, weak_rows, strong_rows in (
            (slice(0, half), weak[:half], strong[:strong_half]),
            (slice(half, None), weak[half:], strong[strong_half:]),
        ):
            state, _, _ = train_step(
                state, slice_targets(targets, batch), want[batch], weak_rows, strong_rows,
                config, w_exp, w_au, 1,
            )
        return state

    state = group_steps(state)  # fills the crop-map cache
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            frames += 1

    sys.setprofile(count)
    try:
        group_steps(state)
    finally:
        sys.setprofile(None)
    assert 0 < frames <= bound, frames


@pytest.mark.parametrize(
    "mode, bound", [(TrainMode.SUPERVISED, 6.0), (TrainMode.SEMI, 6.6)]
)
def test_run_peak_allocation(mode, bound):
    """A 2-epoch width-256 run on 128 rows, one batch per epoch, allocates
    at most `bound` parameter buffers' worth at its peak: params, moments,
    gradients and the step's forward caches.  Measured (mfar, ss-mfar):
    5.81 and 6.34; holding the initial parameters for the whole run gave
    6.81 and 7.34, caching each forward pass's three pre-activations 6.18
    and 6.83, and both 7.38 and 7.96."""
    train = small_packed(count=128, size=16, seed=0)
    val = small_packed(count=128, size=16, seed=1)
    config = RunConfig(epochs=2, batch_size=128, hidden_width=256, mode=mode)
    nbytes = init_params(ModelConfig(16, 16, 256), 0).flat.nbytes
    peak = traced_peak(lambda: run_training(train, val, config))
    assert peak <= bound * nbytes, peak / nbytes


def test_augment_group_peak_allocation():
    """One group's augment_views call, AUGMENT_GROUP_ROWS rows of 16x16
    with the default benchmark's share of strong rows, allocates at most
    1 MB at its peak.  Measured: 778,112 bytes at 128 rows (44 strong),
    1,659,190 at 256 rows (91 strong)."""
    packed = small_packed(count=AUGMENT_GROUP_ROWS, size=16, seed=0)
    config = RunConfig()
    group = np.arange(AUGMENT_GROUP_ROWS)
    want = wants_strong(packed, config.mode)
    draws = (
        view_uniforms(config.seed, 0, group, WEAK_VIEW, WEAK_DRAWS),
        view_uniforms(config.seed, 0, group[want], STRONG_VIEW, STRONG_DRAWS),
    )
    views = lambda: augment_views(packed.levels, *draws, config.augment, want_strong=want)
    views()
    peak = traced_peak(views)
    assert peak <= 1_000_000, peak


def test_evaluate_packed_peak_allocation():
    """Scoring a 500-row split at width 256 allocates at most 1.25 parameter
    buffers' worth at its peak, where a (500, 256) activation is 0.48 of
    one: the validation pass holds two activations at a time.  Measured:
    1.02; scoring through forward_with_cache, whose cache keeps five
    activations alive, measured 2.50."""
    val = small_packed(count=500, size=16, seed=1)
    params = init_params(ModelConfig(16, 16, 256), 0)
    evaluate_packed(params, val)
    peak = traced_peak(lambda: evaluate_packed(params, val))
    assert peak <= 1.25 * params.flat.nbytes, peak / params.flat.nbytes


class TestRunTraining:
    def config(self, **kwargs):
        defaults = dict(epochs=2, batch_size=8, hidden_width=8, seed=0)
        defaults.update(kwargs)
        return RunConfig(**defaults)

    def test_deterministic_across_runs(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        a = run_training(train, val, self.config())
        b = run_training(train, val, self.config())
        assert params_equal(a.final_params, b.final_params)
        assert format_epoch_log(a.reports) == format_epoch_log(b.reports)

    def test_seed_changes_trajectory(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        a = run_training(train, val, self.config(seed=0))
        b = run_training(train, val, self.config(seed=1))
        assert not params_equal(a.final_params, b.final_params)

    def test_supervised_matches_semi_on_fully_labeled_data(self):
        # With no unlabeled samples the semi-supervised branch never fires;
        # at equal supervised coefficient the trajectories must be identical.
        train = fully_labeled_packed(count=24, seed=2)
        val = fully_labeled_packed(count=10, seed=3)
        sup = run_training(
            train, val, self.config(mode=TrainMode.SUPERVISED)
        )
        semi = run_training(
            train, val,
            self.config(mode=TrainMode.SEMI,
                        loss_weights=LossWeights(sup=1.0)),
        )
        assert params_equal(sup.final_params, semi.final_params)
        for r_sup, r_semi in zip(sup.reports, semi.reports):
            assert r_sup["l_total"] == r_semi["l_total"]
            assert r_semi["l_exp_unsup"] == 0.0
            assert r_semi["l_exp_cons"] == 0.0

    @pytest.mark.parametrize("imbalance", ["reweight", "resample"])
    def test_whole_dataset_views_match_per_batch_views(self, imbalance):
        # The trainer augments a group of scheduled batches at a time; a
        # sample's views must not depend on which group or batch it landed
        # in.  50 rows in batches of 8 leave a ragged last batch, and groups
        # of 1, 2 and 3 batches a ragged last group.
        train = small_packed(count=50, seed=0)
        config = self.config(imbalance=imbalance)
        w_exp = expression_class_weights(dataset_stats(train))
        want = ~train.exp_valid
        for epoch in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, epoch)))
            schedule = make_epoch_schedule(train, imbalance, rng, w_exp)

            def split_views(rows):
                return [
                    keyed_views(
                        train.levels[part], part, config.seed, epoch,
                        config.augment, want[part],
                    )
                    for part in np.split(schedule, range(rows, len(schedule), rows))
                ]

            (whole,) = split_views(len(schedule))
            for group_batches in (1, 2, 3):
                pieces = split_views(group_batches * config.batch_size)
                weak = np.concatenate([views[0] for views in pieces])
                assert level_pixels(weak).tobytes() == level_pixels(whole[0]).tobytes()
                strong = np.concatenate([views[1] for views in pieces])
                assert strong.tobytes() == whole[1].tobytes()

    @pytest.mark.parametrize("group_rows", [8, 16, 20, 24, 128])
    @pytest.mark.parametrize("imbalance", ["reweight", "resample"])
    def test_steps_get_their_batch_views_from_groups(self, imbalance, group_rows, monkeypatch):
        """Every step gets the labels, strong-row marks and views that its
        batch alone would give, in groups of 1, 2, 2, 3 and all 7 batches of
        8 rows (50 rows leave a ragged last batch); one augment_views call
        per group."""
        calls, schedules, steps = [], [], []

        def augmenting(levels, *args, **kwargs):
            calls.append(len(levels))
            return augment_views(levels, *args, **kwargs)

        def scheduling(*args):
            schedules.append(make_epoch_schedule(*args))
            return schedules[-1]

        def stepping(state, targets, want_strong, weak, strong, *args):
            steps.append((targets, want_strong, weak, strong))
            return train_step(state, targets, want_strong, weak, strong, *args)

        monkeypatch.setattr(affectmtl.trainer, "AUGMENT_GROUP_ROWS", group_rows)
        monkeypatch.setattr(affectmtl.trainer, "augment_views", augmenting)
        monkeypatch.setattr(affectmtl.trainer, "make_epoch_schedule", scheduling)
        monkeypatch.setattr(affectmtl.trainer, "train_step", stepping)
        train = small_packed(count=50, seed=0)
        config = self.config(imbalance=imbalance, epochs=1)
        run_training(train, small_packed(count=10, seed=1), config)
        batches_per_group = max(1, group_rows // config.batch_size)
        group = batches_per_group * config.batch_size
        assert calls == [min(group, 50 - start) for start in range(0, 50, group)]
        assert [len(want_strong) for _, want_strong, _, _ in steps] == [8] * 6 + [2]
        (schedule,) = schedules
        want = wants_strong(train, config.mode)
        for start, (targets, want_strong, weak, strong) in zip(range(0, 50, 8), steps):
            batch = schedule[start : start + 8]
            alone = slice_targets(train, batch)
            for name in LABEL_FIELDS:
                assert getattr(targets, name).tobytes() == getattr(alone, name).tobytes()
            assert want_strong.tobytes() == want[batch].tobytes()
            views = keyed_views(
                train.levels[batch], batch, config.seed, 0, config.augment, want[batch]
            )
            assert weak.tobytes() == views[0].tobytes()
            assert strong.tobytes() == views[1].tobytes()

    @pytest.mark.parametrize("mode", list(TrainMode))
    def test_one_epoch_draws_two_tables(self, mode, monkeypatch):
        """Each epoch draws its weak and its strong table once; every step
        reads its rows from them."""
        calls = []

        def counting(seed, epoch, sample_indices, view, count):
            calls.append((epoch, view, len(sample_indices)))
            return view_uniforms(seed, epoch, sample_indices, view, count)

        monkeypatch.setattr(affectmtl.trainer, "view_uniforms", counting)
        train = small_packed(count=40, seed=0)
        val = small_packed(count=10, seed=1)
        run_training(train, val, self.config(mode=mode, epochs=1))
        strong = np.count_nonzero(wants_strong(train, mode))
        assert calls == [(0, WEAK_VIEW, 40), (0, STRONG_VIEW, strong)]

    def test_zero_epochs(self):
        train = small_packed(count=12, seed=0)
        val = small_packed(count=8, seed=1)
        result = run_training(train, val, self.config(epochs=0))
        assert result.best_epoch == -1
        assert result.reports == ()
        fresh = init_params(result.model_config, 0)
        assert params_equal(result.final_params, fresh)

    def test_empty_training_set_rejected(self):
        empty = pack_dataset(make_dataset([]), np.zeros((0, 8, 8), np.uint8))
        val = small_packed(count=8, seed=1)
        with pytest.raises(DataError):
            run_training(empty, val, self.config())

    def test_best_epoch_tracks_val_score(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        result = run_training(train, val, self.config(epochs=3))
        scores = [r["val_p_mtl"] for r in result.reports]
        assert result.best_epoch == int(np.argmax(scores))

    def test_best_params_reproduce_logged_best_score(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        result = run_training(train, val, self.config(epochs=3))
        assert result.best_epoch < len(result.reports) - 1
        assert not params_equal(result.best_params, result.final_params)
        best = result.reports[result.best_epoch]["val_p_mtl"]
        assert evaluate_packed(result.best_params, val).p_mtl == best

    def test_divergence_carries_epoch_and_batch(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        config = self.config(lr_base=1e200, lr_heads=1e200, epochs=5)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            DivergenceError
        ) as excinfo:
            run_training(train, val, config)
        exc = excinfo.value
        assert exc.epoch is not None and exc.batch is not None
        assert f"epoch {exc.epoch}" in str(exc)
        assert f"batch {exc.batch}" in str(exc)

    def test_validation_divergence_carries_epoch(self):
        # One step at a rate of 1e300 leaves finite parameters whose
        # features overflow on the validation split.
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        config = self.config(batch_size=24, lr_base=1e300, lr_heads=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError
        ) as excinfo:
            run_training(train, val, config)
        exc = excinfo.value
        assert exc.epoch == 0 and exc.batch is None
        assert "validation" in str(exc) and "epoch 0" in str(exc)

    def test_validation_image_size_checked_before_training(self, monkeypatch):
        steps = []

        def stepping(*args):
            steps.append(args)
            return train_step(*args)

        monkeypatch.setattr(affectmtl.trainer, "train_step", stepping)
        train = small_packed(count=24, size=16, seed=0)
        val = small_packed(count=10, size=8, seed=1)
        with pytest.raises(
            DataError, match=r"^validation images are \(8, 8\) but training images are \(16, 16\)$"
        ):
            run_training(train, val, self.config())
        assert steps == []

    def test_empty_validation_set_rejected(self):
        train = small_packed(count=24, seed=0)
        empty = pack_dataset(make_dataset([]), np.zeros((0, 0, 0), np.uint8))
        with pytest.raises(DataError, match="validation set is empty"):
            run_training(train, empty, self.config())

    def test_confident_fraction_bounds(self):
        train = small_packed(count=30, seed=4)
        val = small_packed(count=10, seed=5)
        result = run_training(train, val, self.config(epochs=2))
        for report in result.reports:
            assert 0.0 <= report["confident_fraction"] <= 1.0

    @pytest.mark.parametrize(
        "mode, imbalance",
        [(mode, "reweight") for mode in TrainMode] + [(TrainMode.SEMI, "resample")],
    )
    def test_epoch_summary_matches_the_steps_partitions(self, mode, imbalance, monkeypatch):
        """Each report's thresholds are those its epoch's last step
        partitioned with, and its confident fraction is the epoch's confident
        rows over its partitioned rows (0.0 with none).  It compares values
        with values, so it holds on any numeric platform.  50 rows in
        batches of 8 leave a short last batch."""
        calls = []

        def recording(weak_probs, thresholds):
            part = partition_confident(weak_probs, thresholds)
            calls.append(
                (tuple(np.asarray(thresholds).tolist()), len(weak_probs),
                 int(np.count_nonzero(part.confident)))
            )
            return part

        monkeypatch.setattr(affectmtl.trainer, "partition_confident", recording)
        train = small_packed(count=50, seed=0)
        val = small_packed(count=10, seed=1)
        result = run_training(train, val, self.config(mode=mode, imbalance=imbalance))
        steps = -(-50 // 8)
        assert len(calls) == 2 * steps
        for epoch, report in enumerate(result.reports):
            epoch_calls = calls[epoch * steps : (epoch + 1) * steps]
            rows = sum(n for _, n, _ in epoch_calls)
            confident = sum(c for _, _, c in epoch_calls)
            assert tuple(report["thresholds"]) == epoch_calls[-1][0]
            assert report["confident_fraction"] == (confident / rows if rows else 0.0)
            assert (rows > 0) == (mode is not TrainMode.SUPERVISED)

    def test_resample_mode_runs(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        result = run_training(train, val, self.config(imbalance="resample"))
        assert len(result.reports) == 2

    def test_evaluate_packed_scores_in_range(self):
        packed = small_packed(count=20, seed=6)
        params = init_params(
            ModelConfig(image_height=8, image_width=8, hidden_width=8), 0
        )
        score = evaluate_packed(params, packed)
        assert -1.0 <= score.p_va <= 1.0
        assert 0.0 <= score.p_exp <= 1.0
        assert 0.0 <= score.p_au <= 1.0


class TestEpochLog:
    def make_reports(self):
        train = small_packed(count=16, seed=0)
        val = small_packed(count=8, seed=1)
        config = RunConfig(epochs=2, batch_size=8, hidden_width=4, seed=0)
        return run_training(train, val, config).reports

    def test_round_trip(self):
        reports = self.make_reports()
        assert parse_epoch_log(format_epoch_log(reports)) == list(reports)

    @pytest.mark.parametrize("mode", list(TrainMode))
    def test_loss_fields_are_the_steps_means(self, mode, monkeypatch):
        """Each record's loss fields are its epoch's LossBreakdown terms,
        by name, summed in step order and divided by the step count.  It
        compares values with values, so it holds on any numeric platform.
        50 rows in batches of 8 leave a short last batch."""
        breakdowns = []

        def recording(*args):
            state, breakdown, part = train_step(*args)
            breakdowns.append(breakdown)
            return state, breakdown, part

        monkeypatch.setattr(affectmtl.trainer, "train_step", recording)
        train = small_packed(count=50, seed=0)
        val = small_packed(count=10, seed=1)
        config = RunConfig(epochs=2, batch_size=8, hidden_width=4, seed=0, mode=mode)
        result = run_training(train, val, config)
        names = {
            "l_exp_sup": "l_exp_sup", "l_exp_unsup": "l_exp_unsup",
            "l_exp_cons": "l_exp_cons", "l_au": "l_au", "l_va": "l_va",
            "l_exp": "l_exp", "l_total": "total",
        }
        steps = -(-50 // 8)
        assert len(breakdowns) == 2 * steps
        records = parse_epoch_log(format_epoch_log(result.reports))
        for epoch, record in enumerate(records):
            sums = np.zeros(len(names))
            for breakdown in breakdowns[epoch * steps : (epoch + 1) * steps]:
                sums += [getattr(breakdown, name) for name in names.values()]
            for key, mean in zip(names, sums / steps):
                assert record[key] == mean, key

    def test_field_order_matches_contract(self):
        reports = self.make_reports()
        first = format_epoch_log(reports).splitlines()[0]
        import json

        assert tuple(json.loads(first).keys()) == LOG_FIELDS

    def test_thresholds_are_eight_floats(self):
        records = parse_epoch_log(format_epoch_log(self.make_reports()))
        for record in records:
            assert len(record["thresholds"]) == 8

    def test_corrupt_line_is_named(self):
        with pytest.raises(DataError, match="line 2"):
            parse_epoch_log("\nnot json\n")

    def test_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing"):
            parse_epoch_log('{"epoch": 0}\n')

    def test_blank_lines_skipped(self):
        assert parse_epoch_log("\n\n") == []
