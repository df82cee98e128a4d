from dataclasses import replace

import numpy as np
import pytest

from affectmtl.augmentation import augment_views
from affectmtl.config import RunConfig
from affectmtl.data_model import (
    SynthConfig,
    au_positive_weights,
    expression_class_weights,
    generate_synthetic,
)
from affectmtl.errors import DataError, DivergenceError
from affectmtl.losses import LossWeights, TrainMode
from affectmtl.network import (
    BACKBONE_FIELDS,
    PARAM_FIELDS,
    ModelConfig,
    init_params,
    map_params,
    zeros_like_params,
)
from affectmtl.trainer import (
    ADAM_BLOCK,
    LOG_FIELDS,
    AdamState,
    adam_init,
    adam_step,
    batch_loss_and_grads,
    epoch_record,
    evaluate_packed,
    format_epoch_log,
    lr_map,
    make_epoch_schedule,
    pack_dataset,
    parse_epoch_log,
    run_training,
    slice_targets,
)


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
        assert packed.images.shape == (50, 8, 8)
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

    def test_image_count_mismatch(self):
        packed = small_packed(count=5)
        from affectmtl.data_model import Dataset

        with pytest.raises(DataError):
            pack_dataset(Dataset(samples=()), packed.images)

    def test_slice_targets_views(self):
        packed = small_packed(count=20, seed=1)
        idx = np.array([3, 0, 7])
        targets = slice_targets(packed, idx)
        assert np.array_equal(targets.gold_exp, packed.gold_exp[idx])
        assert np.array_equal(targets.any_valid,
                              (packed.exp_valid | packed.au_valid | packed.va_valid)[idx])


class TestSchedule:
    def test_reweight_is_a_permutation(self):
        packed = small_packed(count=30, seed=2)
        rng = np.random.default_rng(0)
        schedule = make_epoch_schedule(packed, "reweight", rng, np.ones(8))
        assert sorted(schedule) == list(range(30))

    def test_resample_preserves_length_and_keeps_unlabeled_once(self):
        packed = small_packed(count=40, seed=5)
        rng = np.random.default_rng(0)
        w_exp = expression_class_weights(packed.stats)
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
        w_exp = expression_class_weights(packed.stats)
        rng = np.random.default_rng(123)
        counts = np.zeros(8)
        draws = 0
        for _ in range(125):
            schedule = make_epoch_schedule(packed, "resample", rng, w_exp)
            counts += np.bincount(packed.gold_exp[schedule], minlength=8)
            draws += len(schedule)
        share = counts / draws
        present = np.array(packed.stats.exp_class_counts) > 0
        assert np.all(np.abs(share[present] - 0.5) < 0.02)

    def test_empty_dataset_rejected(self):
        from affectmtl.data_model import Dataset, dataset_stats

        packed_empty = pack_dataset(
            Dataset(samples=()), np.zeros((0, 8, 8))
        )
        with pytest.raises(DataError):
            make_epoch_schedule(packed_empty, "reweight", np.random.default_rng(0), np.ones(8))


class TestBatchLossAndGrads:
    def setup_method(self):
        self.packed = small_packed(count=12, size=6, seed=7)
        self.mc = ModelConfig(image_height=6, image_width=6, hidden_width=4)
        self.params = init_params(self.mc, 0)
        self.w_exp = expression_class_weights(self.packed.stats)
        self.w_au = au_positive_weights(self.packed.stats)

    def test_all_invalid_sample_contributes_nothing(self):
        # Compare a batch with an extra all-invalid sample against the batch
        # without it: identical losses, gradients within 1e-12.
        packed = self.packed
        idx_valid = np.flatnonzero(
            packed.exp_valid & packed.au_valid & packed.va_valid
        )[:4]
        # Build one all-invalid row by hand.
        images = packed.images[idx_valid]
        extra = np.concatenate([images, packed.images[:1]])
        targets_small = slice_targets(packed, idx_valid)
        from affectmtl.trainer import BatchTargets

        targets_big = BatchTargets(
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
        images = self.packed.images[idx]
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
        images = self.packed.images[idx]
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


class TestAdam:
    def setup_method(self):
        self.mc = ModelConfig(image_height=4, image_width=4, hidden_width=3)
        self.params = init_params(self.mc, 0)
        self.lr = {name: 0.01 for name in PARAM_FIELDS}

    def test_zero_gradient_keeps_params(self):
        state = adam_init(self.params)
        new_params, new_state = adam_step(
            self.params, zeros_like_params(self.params), state, self.lr
        )
        assert params_equal(new_params, self.params)
        assert new_state.t == 1

    def test_constant_gradient_unit_steps(self):
        # With a constant gradient the bias-corrected step size approaches
        # the learning rate per step, regardless of the gradient scale.
        params = self.params
        state = adam_init(params)
        grads = map_params(lambda _, p: np.full_like(p, 3.7), params)
        for _ in range(1000):
            params, state = adam_step(params, grads, state, self.lr)
        drop = self.params.w1[0, 0] - params.w1[0, 0]
        assert drop == pytest.approx(1000 * 0.01, rel=0.01)

    def test_learning_rate_ratio_exact(self):
        config = RunConfig()
        rates = lr_map(config)
        assert rates["w1"] == rates["b1"] == rates["w2"] == rates["b2"] == 0.001
        head_fields = [f for f in PARAM_FIELDS if f not in ("w1", "b1", "w2", "b2")]
        for f in head_fields:
            assert rates[f] == 0.01
            assert rates[f] / rates["w1"] == pytest.approx(10.0)

    def test_first_step_magnitude(self):
        from affectmtl.network import map_params

        state = adam_init(self.params)
        grads = map_params(lambda _, p: np.full_like(p, 2.0), self.params)
        new_params, _ = adam_step(self.params, grads, state, self.lr)
        # First bias-corrected step is lr * g/(|g| + eps') ~= lr.
        step = self.params.w1 - new_params.w1
        assert np.all(np.abs(step - 0.01) < 1e-6)

    def test_matches_per_field_reference_bitwise(self):
        # Width 256 on 16x16 images: both rate runs span several blocks and
        # end on a partial one.
        params = init_params(ModelConfig(16, 16, hidden_width=256), 0)
        backbone_size = sum(getattr(params, f).size for f in BACKBONE_FIELDS)
        assert backbone_size > ADAM_BLOCK and backbone_size % ADAM_BLOCK
        assert (params.flat.size - backbone_size) % ADAM_BLOCK
        rates = lr_map(RunConfig(lr_base=0.001, lr_heads=0.01))
        rng = np.random.default_rng(5)
        ref = {f: getattr(params, f).copy() for f in PARAM_FIELDS}
        ref_m = {f: np.zeros_like(a) for f, a in ref.items()}
        ref_v = {f: np.zeros_like(a) for f, a in ref.items()}
        state = adam_init(params)
        for t in range(1, 4):
            grads = map_params(lambda _, p: rng.normal(0.0, 0.1, p.shape), params)
            params, state = adam_step(params, grads, state, rates)
            corr1, corr2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for f in PARAM_FIELDS:
                g = getattr(grads, f)
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
        grads = map_params(lambda _, p: np.full_like(p, 0.5), self.params)
        params_bytes, grads_bytes = self.params.flat.tobytes(), grads.flat.tobytes()
        new_params, state = adam_step(self.params, grads, adam_init(self.params), self.lr)
        assert self.params.flat.tobytes() == params_bytes
        assert grads.flat.tobytes() == grads_bytes
        for other in (self.params.flat, grads.flat, state.m, state.v):
            assert not np.shares_memory(new_params.flat, other)


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
            assert r_sup.losses.total == r_semi.losses.total
            assert r_semi.losses.l_exp_unsup == 0.0
            assert r_semi.losses.l_exp_cons == 0.0

    @pytest.mark.parametrize("imbalance", ["reweight", "resample"])
    def test_whole_dataset_views_match_per_batch_views(self, imbalance):
        # The trainer augments one scheduled batch at a time; a sample's
        # views must not depend on which batch it landed in.
        train = small_packed(count=50, seed=0)
        config = self.config(imbalance=imbalance)
        w_exp = expression_class_weights(train.stats)
        want = ~train.exp_valid
        for epoch in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, epoch)))
            schedule = make_epoch_schedule(train, imbalance, rng, w_exp)
            whole = augment_views(
                train.images[schedule], schedule, config.seed, epoch,
                config.augment, want[schedule],
            )
            batches = [
                augment_views(
                    train.images[batch], batch, config.seed, epoch,
                    config.augment, want[batch],
                )
                for batch in np.split(
                    schedule, range(config.batch_size, len(schedule), config.batch_size)
                )
            ]
            for part in (0, 1):
                joined = np.concatenate([views[part] for views in batches])
                assert joined.tobytes() == whole[part].tobytes()

    def test_zero_epochs(self):
        train = small_packed(count=12, seed=0)
        val = small_packed(count=8, seed=1)
        result = run_training(train, val, self.config(epochs=0))
        assert result.best_epoch == -1
        assert result.reports == ()
        fresh = init_params(result.model_config, 0)
        assert params_equal(result.final_params, fresh)

    def test_empty_training_set_rejected(self):
        from affectmtl.data_model import Dataset

        empty = pack_dataset(Dataset(samples=()), np.zeros((0, 8, 8)))
        val = small_packed(count=8, seed=1)
        with pytest.raises(DataError):
            run_training(empty, val, self.config())

    def test_best_epoch_tracks_val_score(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        result = run_training(train, val, self.config(epochs=3))
        scores = [r.val_score.p_mtl for r in result.reports]
        assert result.best_epoch == int(np.argmax(scores))

    def test_best_params_reproduce_logged_best_score(self):
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        result = run_training(train, val, self.config(epochs=3))
        assert result.best_epoch < len(result.reports) - 1
        assert not params_equal(result.best_params, result.final_params)
        best = result.reports[result.best_epoch].val_score.p_mtl
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
        train = small_packed(count=24, seed=0)
        val = small_packed(count=10, seed=1)
        poisoned = replace(val, images=np.full_like(val.images, np.nan))
        with pytest.raises(DivergenceError) as excinfo:
            run_training(train, poisoned, self.config(epochs=2))
        exc = excinfo.value
        assert exc.epoch == 0 and exc.batch is None
        assert "validation" in str(exc) and "epoch 0" in str(exc)

    def test_empty_validation_set_rejected(self):
        from affectmtl.data_model import Dataset

        train = small_packed(count=24, seed=0)
        empty = pack_dataset(Dataset(samples=()), np.zeros((0, 0, 0)))
        with pytest.raises(DataError, match="validation set is empty"):
            run_training(train, empty, self.config())

    def test_confident_fraction_bounds(self):
        train = small_packed(count=30, seed=4)
        val = small_packed(count=10, seed=5)
        result = run_training(train, val, self.config(epochs=2))
        for report in result.reports:
            assert 0.0 <= report.confident_fraction <= 1.0

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
        text = format_epoch_log(reports)
        records = parse_epoch_log(text)
        assert len(records) == len(reports)
        for record, report in zip(records, reports):
            assert record == epoch_record(report)

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
