import os
import tracemalloc

import numpy as np
import pytest
from dataclasses import astuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectmtl.data_model import (
    LABEL_SENTINEL,
    MANIFEST_COLUMNS,
    N_ACTION_UNITS,
    N_EXPRESSION_CLASSES,
    VA_SENTINEL,
    AnnotationSet,
    Dataset,
    DatasetStats,
    Sample,
    SynthConfig,
    au_positive_weights,
    dataset_stats,
    expression_class_weights,
    generate_synthetic,
    label_arrays,
    load_images,
    load_manifest,
    parse_manifest,
    serialize_manifest,
    write_dataset,
)
from affectmtl.config import SynthFileConfig
from affectmtl.errors import ConfigError, DataError

import oracles
from conftest import datasets

AU_NONE = tuple([LABEL_SENTINEL] * N_ACTION_UNITS)
AU_ZEROS = tuple([0] * N_ACTION_UNITS)


def ann(valence=0.1, arousal=-0.2, expression=3, units=AU_ZEROS):
    return AnnotationSet(valence, arousal, expression, units)


class TestAnnotationInvariants:
    def test_joint_va_missing_enforced(self):
        with pytest.raises(DataError):
            AnnotationSet(VA_SENTINEL, 0.5, 1, AU_ZEROS)
        with pytest.raises(DataError):
            AnnotationSet(0.5, VA_SENTINEL, 1, AU_ZEROS)

    def test_va_range(self):
        with pytest.raises(DataError):
            ann(valence=1.5)
        with pytest.raises(DataError):
            ann(arousal=-1.0001)
        ann(valence=1.0, arousal=-1.0)

    def test_expression_range(self):
        with pytest.raises(DataError):
            ann(expression=8)
        with pytest.raises(DataError):
            ann(expression=-2)
        ann(expression=LABEL_SENTINEL)

    def test_au_all_or_none(self):
        partial = (LABEL_SENTINEL,) + tuple([0] * 11)
        with pytest.raises(DataError):
            ann(units=partial)
        ann(units=AU_NONE)

    def test_au_values(self):
        with pytest.raises(DataError):
            ann(units=(2,) + tuple([0] * 11))
        with pytest.raises(DataError):
            ann(units=tuple([0] * 11))  # wrong arity

    @pytest.mark.parametrize(
        "expression", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None]
    )
    def test_non_integer_expression_rejected(self, expression):
        with pytest.raises(DataError, match="expression and action units must be integers"):
            ann(expression=expression)

    @pytest.mark.parametrize(
        "unit", [1.0, 0.0, -1.0, 0.5, True, False, np.float64(1.0), np.bool_(False), "1"]
    )
    def test_non_integer_action_unit_rejected(self, unit):
        with pytest.raises(DataError, match="expression and action units must be integers"):
            ann(units=AU_ZEROS[:5] + (unit,) + AU_ZEROS[6:])

    def test_validity_flags(self):
        nothing = AnnotationSet(VA_SENTINEL, VA_SENTINEL, LABEL_SENTINEL, AU_NONE)
        labels = label_arrays(Dataset((Sample("a", ann()), Sample("b", nothing))))
        assert labels.va_valid.tolist() == [True, False]
        assert labels.exp_valid.tolist() == [True, False]
        assert labels.au_valid.tolist() == [True, False]
        assert labels.any_valid.tolist() == [True, False]


class TestManifest:
    def test_header_roundtrip(self):
        assert MANIFEST_COLUMNS[0] == "image"
        assert len(MANIFEST_COLUMNS) == 16

    @settings(max_examples=50, deadline=None)
    @given(datasets())
    def test_round_trip_exact(self, dataset):
        again = parse_manifest(serialize_manifest(dataset))
        assert again == dataset

    @settings(max_examples=50, deadline=None)
    @given(datasets(), st.sampled_from([np.int8, np.int16, np.int32, np.int64, int]))
    def test_numpy_integer_labels_round_trip(self, dataset, int_type):
        """Labels given as NumPy integers are accepted and survive the manifest."""
        converted = Dataset(tuple(
            Sample(s.image_ref, AnnotationSet(
                s.annotations.valence,
                s.annotations.arousal,
                int_type(s.annotations.expression),
                tuple(int_type(u) for u in s.annotations.action_units),
            ))
            for s in dataset
        ))
        again = parse_manifest(serialize_manifest(converted))
        assert again == converted
        assert serialize_manifest(again) == serialize_manifest(converted)

    def test_bad_header(self):
        with pytest.raises(DataError, match="row 1"):
            parse_manifest("image,valence\n")

    def test_wrong_column_count_names_row(self):
        text = serialize_manifest(
            Dataset((Sample("a.pgm", ann()),))
        ) + "b.pgm,0.1,0.2\n"
        with pytest.raises(DataError, match="row 3"):
            parse_manifest(text)

    def test_duplicate_path_rejected(self):
        sample = Sample("a.pgm", ann())
        text = serialize_manifest(Dataset((sample,)))
        text += text.splitlines()[1] + "\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_manifest(text)

    def test_non_integer_label_names_row(self):
        header = ",".join(MANIFEST_COLUMNS)
        row = "a.pgm,0.1,0.2,x," + ",".join(["0"] * 12)
        with pytest.raises(DataError, match="row 2"):
            parse_manifest(header + "\n" + row + "\n")

    def test_integer_fields_parse_as_stripped_ints(self):
        """Padding the fields with whitespace, including the "\x1f" that
        int refuses and str.strip removes, keeps each label's value."""
        header = ",".join(MANIFEST_COLUMNS)
        row = "a.pgm,0.1,0.2, 3\x1f," + ",".join(["\t1 "] + ["\x1f0"] * 11)
        labels = parse_manifest(header + "\n" + row + "\n")[0].annotations
        assert labels.expression == 3
        assert labels.action_units == (1,) + (0,) * 11
        assert all(type(unit) is int for unit in labels.action_units)

    @pytest.mark.parametrize("column", [3, 4, 15])
    def test_non_integer_label_message_names_first_bad_field(self, column):
        header = ",".join(MANIFEST_COLUMNS)
        fields = ["a.pgm", "0.1", "0.2"] + ["0"] * 13
        fields[column] = " 1.0 "
        fields[column + 1:] = ["y"] * (15 - column)
        with pytest.raises(DataError, match=r"^row 2: not an integer: '1\.0'$"):
            parse_manifest(header + "\n" + ",".join(fields) + "\n")

    def test_annotation_violation_names_row(self):
        header = ",".join(MANIFEST_COLUMNS)
        row = "a.pgm,-5,0.2,1," + ",".join(["0"] * 12)
        with pytest.raises(DataError, match="row 2"):
            parse_manifest(header + "\n" + row + "\n")

    def test_empty_dataset_round_trip(self):
        assert parse_manifest(serialize_manifest(Dataset(()))) == Dataset(())


class TestStatsAndWeights:
    def make_dataset(self):
        rows = [
            ann(expression=0),
            ann(expression=0),
            ann(expression=1),
            ann(expression=2, units=AU_NONE),
            AnnotationSet(VA_SENTINEL, VA_SENTINEL, LABEL_SENTINEL, AU_ZEROS),
        ]
        return Dataset(
            tuple(Sample(f"s{i}.pgm", a) for i, a in enumerate(rows))
        )

    def test_counts(self):
        stats = dataset_stats(label_arrays(self.make_dataset()))
        assert stats.total == 5
        assert stats.exp_valid_count == 4 and stats.exp_invalid_count == 1
        assert stats.exp_class_counts[:3] == (2, 1, 1)
        assert stats.va_valid_count == 4
        assert stats.au_valid_count == 4

    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_stats_and_labels_match_per_sample_reference(self, dataset):
        n = len(dataset)
        exp_counts = [0] * N_EXPRESSION_CLASSES
        au_pos = [0] * N_ACTION_UNITS
        au_neg = [0] * N_ACTION_UNITS
        exp_valid, au_valid, va_valid = [], [], []
        for sample in dataset:
            a = sample.annotations
            exp_valid.append(a.expression != LABEL_SENTINEL)
            au_valid.append(LABEL_SENTINEL not in a.action_units)
            va_valid.append(a.valence != VA_SENTINEL)
            if exp_valid[-1]:
                exp_counts[a.expression] += 1
            if au_valid[-1]:
                for u, unit in enumerate(a.action_units):
                    if unit == 1:
                        au_pos[u] += 1
                    else:
                        au_neg[u] += 1

        labels = label_arrays(dataset)
        anns = [s.annotations for s in dataset]
        assert labels.gold_exp.dtype == np.int64 and labels.gold_exp.shape == (n,)
        assert labels.gold_au.dtype == np.int64 and labels.gold_au.shape == (n, 12)
        assert labels.gold_va.dtype == np.float64 and labels.gold_va.shape == (n, 2)
        assert labels.gold_exp.tolist() == [a.expression for a in anns]
        assert labels.gold_au.tolist() == [list(a.action_units) for a in anns]
        assert labels.gold_va.tolist() == [[a.valence, a.arousal] for a in anns]
        assert labels.exp_valid.tolist() == exp_valid
        assert labels.au_valid.tolist() == au_valid
        assert labels.va_valid.tolist() == va_valid
        assert labels.any_valid.tolist() == [
            e or u or v for e, u, v in zip(exp_valid, au_valid, va_valid)
        ]

        stats = dataset_stats(labels)
        assert stats == DatasetStats(
            total=n,
            exp_valid_count=sum(exp_valid),
            exp_invalid_count=n - sum(exp_valid),
            exp_class_counts=tuple(exp_counts),
            au_valid_count=sum(au_valid),
            au_invalid_count=n - sum(au_valid),
            au_pos_counts=tuple(au_pos),
            au_neg_counts=tuple(au_neg),
            va_valid_count=sum(va_valid),
            va_invalid_count=n - sum(va_valid),
        )
        flat = [x for v in astuple(stats) for x in (v if isinstance(v, tuple) else (v,))]
        assert all(type(x) is int for x in flat)

    def test_expression_weights_inverse_frequency(self):
        stats = dataset_stats(label_arrays(self.make_dataset()))
        weights = expression_class_weights(stats)
        assert weights[0] == 4 / 2
        assert weights[1] == 4.0 and weights[2] == 4.0
        # Classes that never occur carry an inert zero weight.
        assert all(weights[c] == 0.0 for c in range(3, 8))

    def test_au_weights_neg_over_pos(self):
        rows = [
            ann(units=(1,) + tuple([0] * 11)),
            ann(units=(1,) + tuple([0] * 11)),
            ann(units=(0,) + tuple([0] * 11)),
        ]
        ds = Dataset(tuple(Sample(f"s{i}", a) for i, a in enumerate(rows)))
        weights = au_positive_weights(dataset_stats(label_arrays(ds)))
        assert weights[0] == pytest.approx(1 / 2)
        # Units with no positives fall back to the neutral weight.
        assert all(weights[u] == 1.0 for u in range(1, 12))


class TestSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(count=30, image_size=8)
        ds1, imgs1 = generate_synthetic(cfg, 9)
        ds2, imgs2 = generate_synthetic(cfg, 9)
        assert ds1 == ds2
        assert np.array_equal(imgs1, imgs2)

    def test_seed_changes_output(self):
        cfg = SynthConfig(count=30, image_size=8)
        _, imgs1 = generate_synthetic(cfg, 9)
        _, imgs2 = generate_synthetic(cfg, 10)
        assert not np.array_equal(imgs1, imgs2)

    def test_images_quantized_and_in_range(self):
        _, images = generate_synthetic(SynthConfig(count=20, image_size=8), 0)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.array_equal(images, np.rint(images * 255.0) / 255.0)

    def test_masking_rates_roughly_hold(self):
        cfg = SynthConfig(count=1500, image_size=4, exp_mask_rate=0.4,
                          va_mask_rate=0.2, au_mask_rate=0.2)
        dataset, _ = generate_synthetic(cfg, 5)
        stats = dataset_stats(label_arrays(dataset))
        assert abs(stats.exp_invalid_count / 1500 - 0.4) < 0.05
        assert abs(stats.va_invalid_count / 1500 - 0.2) < 0.05
        assert abs(stats.au_invalid_count / 1500 - 0.2) < 0.05

    def test_mask_rate_one_gives_header_only_validity(self):
        cfg = SynthConfig(count=10, image_size=4, exp_mask_rate=1.0)
        dataset, _ = generate_synthetic(cfg, 0)
        assert all(s.annotations.expression == LABEL_SENTINEL for s in dataset)

    def test_va_lies_on_class_circle(self):
        cfg = SynthConfig(count=200, image_size=4, va_mask_rate=0.0, va_noise=0.0,
                          exp_mask_rate=0.0)
        dataset, _ = generate_synthetic(cfg, 3)
        for sample in dataset:
            a = sample.annotations
            radius = np.hypot(a.valence, a.arousal)
            assert radius == pytest.approx(0.7, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(count=-1)
        with pytest.raises(ConfigError):
            SynthConfig(exp_mask_rate=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(image_size=2)
        with pytest.raises(ConfigError):
            SynthConfig(class_priors=(1.0,) * 7)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("class_priors", (1e308,) * 8),  # each finite, the sum is not
            ("class_priors", (float("nan"),) + (1.0,) * 7),
            ("class_priors", (float("inf"),) + (1.0,) * 7),
            ("class_priors", (0.0,) * 8),
            ("pixel_noise", float("nan")),
            ("pixel_noise", float("inf")),
            ("va_noise", float("nan")),
            ("va_noise", float("inf")),
            ("template_contrast", float("nan")),
            ("template_contrast", float("inf")),
            ("exp_mask_rate", float("nan")),
            ("au_flip_prob", float("inf")),
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SynthConfig(**{field: value})

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(
            SynthConfig,
            count=st.integers(0, 30),
            image_size=st.integers(4, 8),
            # Unnormalised, with zeros: classes that are never drawn.
            class_priors=st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e6)),
                min_size=N_EXPRESSION_CLASSES,
                max_size=N_EXPRESSION_CLASSES,
            ).filter(lambda priors: sum(priors) > 0).map(tuple),
            exp_mask_rate=st.floats(0.0, 1.0),
            va_mask_rate=st.floats(0.0, 1.0),
            au_mask_rate=st.floats(0.0, 1.0),
            pixel_noise=st.floats(0.0, 2.0),
            va_noise=st.floats(0.0, 2.0),
            template_contrast=st.floats(0.0, 1.0),
            au_flip_prob=st.floats(0.0, 1.0),
        ),
        st.integers(min_value=0, max_value=2**63),
    )
    # Seed 0's first draw, u = 0.6369616873214543, equals the cdf's steps
    # after class 0 exactly: choice's side="right" search skips the
    # zero-prior classes 1-6 and picks class 7.
    @example(
        SynthConfig(
            count=1,
            image_size=4,
            class_priors=(0.6369616873214543,) + (0.0,) * 6 + (1 - 0.6369616873214543,),
            exp_mask_rate=0.0,
        ),
        0,
    )
    def test_matches_per_sample_choice_reference(self, config, seed):
        """generate_synthetic searches each class in the cdf that
        Generator.choice(8, p=priors / priors.sum()) builds instead of
        calling it, and derives everything else in whole-array passes; the
        per-sample loop that calls choice gives the same bits."""
        dataset, images = generate_synthetic(config, seed)
        ref_dataset, ref_images = oracles.generate_synthetic(config, seed)
        assert serialize_manifest(dataset) == serialize_manifest(ref_dataset)
        assert images.shape == ref_images.shape
        assert images.tobytes() == ref_images.tobytes()

    def test_transient_memory_bounded(self):
        """At the default train size, the peak of what generate_synthetic
        allocates, less what it returns, stays under an eighth of the
        image bytes: the draws fill preallocated arrays, and the records
        are built row by row rather than from one list of every row."""
        tracemalloc.start()
        try:
            dataset, images = generate_synthetic(SynthFileConfig().train_config(), 0)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset) == 2000
        assert peak - retained <= images.nbytes / 8


class TestDiskRoundTrip:
    def test_write_then_load_identical(self, tmp_path):
        cfg = SynthConfig(count=12, image_size=8)
        dataset, images = generate_synthetic(cfg, 2, prefix="train")
        write_dataset(tmp_path, "train.csv", dataset, images)
        loaded = load_manifest(tmp_path / "train.csv")
        assert loaded == dataset
        assert np.array_equal(load_images(loaded, tmp_path), images)

    def test_write_makes_each_image_directory_once(self, tmp_path, monkeypatch):
        cfg = SynthConfig(count=6, image_size=4)
        dataset, images = generate_synthetic(cfg, 0)
        dataset = Dataset(tuple(
            Sample(f"{'ab'[i % 2]}/{s.image_ref}", s.annotations) for i, s in enumerate(dataset)
        ))
        for parent in "ab":  # so os.makedirs does not recurse into itself
            (tmp_path / parent).mkdir()
        made = []
        real = os.makedirs
        monkeypatch.setattr(os, "makedirs", lambda path, **kw: made.append(path) or real(path, **kw))
        write_dataset(tmp_path, "m.csv", dataset, images)
        assert sorted(map(str, made)) == [
            str(tmp_path), str(tmp_path / "a" / "images"), str(tmp_path / "b" / "images")
        ]
        assert np.array_equal(load_images(load_manifest(tmp_path / "m.csv"), tmp_path), images)

    def test_load_images_mixed_sizes_rejected(self, tmp_path):
        ds1, imgs1 = generate_synthetic(SynthConfig(count=1, image_size=8), 0, prefix="a")
        ds2, imgs2 = generate_synthetic(SynthConfig(count=1, image_size=4), 0, prefix="b")
        write_dataset(tmp_path, "a.csv", ds1, imgs1)
        write_dataset(tmp_path, "b.csv", ds2, imgs2)
        merged = Dataset(ds1.samples + ds2.samples)
        with pytest.raises(DataError, match=r"disagree on dimensions: \[\(4, 4\), \(8, 8\)\]"):
            load_images(merged, tmp_path)


def test_dataset_rejects_duplicate_ids():
    sample = Sample("a", ann())
    with pytest.raises(DataError):
        Dataset((sample, sample))
