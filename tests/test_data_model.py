import dataclasses
import os
import tracemalloc
from types import SimpleNamespace

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
    Dataset,
    DatasetStats,
    SynthConfig,
    au_positive_weights,
    dataset_stats,
    expression_class_weights,
    generate_synthetic,
    load_images,
    load_manifest,
    parse_manifest,
    serialize_manifest,
    write_dataset,
)
from affectmtl import data_model, pgm
from affectmtl.config import SynthFileConfig
from affectmtl.errors import ConfigError, DataError

import oracles
from conftest import columns, datasets, label_rows, make_dataset

AU_NONE = tuple([LABEL_SENTINEL] * N_ACTION_UNITS)
AU_ZEROS = tuple([0] * N_ACTION_UNITS)
HEADER = ",".join(MANIFEST_COLUMNS)


def row(valence=0.1, arousal=-0.2, expression=3, units=AU_ZEROS):
    return valence, arousal, expression, units


def one_row(**labels) -> Dataset:
    return make_dataset([row(**labels)])


def label_columns(**replaced) -> dict:
    """Keyword arguments of a valid one-row Dataset, some of them replaced."""
    return {
        "gold_exp": np.array([3]),
        "gold_au": np.zeros((1, N_ACTION_UNITS), dtype=np.int64),
        "gold_va": np.array([[0.1, -0.2]]),
        "image_refs": ("a.pgm",),
        **replaced,
    }


def concat(*parts: Dataset) -> Dataset:
    """The datasets' rows one after another."""
    return Dataset(
        gold_exp=np.concatenate([d.gold_exp for d in parts]),
        gold_au=np.concatenate([d.gold_au for d in parts]),
        gold_va=np.concatenate([d.gold_va for d in parts]),
        image_refs=sum((d.image_refs for d in parts), ()),
    )


class TestAnnotationInvariants:
    def test_joint_va_missing_enforced(self):
        message = r"^sample 0: valence and arousal must be missing jointly$"
        with pytest.raises(DataError, match=message):
            one_row(valence=VA_SENTINEL, arousal=0.5)
        with pytest.raises(DataError, match=message):
            one_row(valence=0.5, arousal=VA_SENTINEL)

    def test_va_range(self):
        with pytest.raises(DataError, match=r"^sample 0: valence/arousal outside \[-1, 1\]: \(1\.5, -0\.2\)$"):
            one_row(valence=1.5)
        with pytest.raises(DataError, match=r"outside \[-1, 1\]: \(0\.1, -1\.0001\)$"):
            one_row(arousal=-1.0001)
        with pytest.raises(DataError, match=r"outside \[-1, 1\]: \(nan, -0\.2\)$"):
            one_row(valence=float("nan"))
        one_row(valence=1.0, arousal=-1.0)

    def test_expression_range(self):
        with pytest.raises(DataError, match=r"^sample 0: expression label out of range: 8$"):
            one_row(expression=8)
        with pytest.raises(DataError, match=r"out of range: -2$"):
            one_row(expression=-2)
        one_row(expression=LABEL_SENTINEL)

    def test_au_all_or_none(self):
        partial = (LABEL_SENTINEL,) + tuple([0] * 11)
        with pytest.raises(DataError, match=r"^sample 0: action units must be missing jointly$"):
            one_row(units=partial)
        one_row(units=AU_NONE)

    def test_au_values(self):
        with pytest.raises(DataError, match=r"^sample 0: action unit values must be 0/1/-1$"):
            one_row(units=(2,) + tuple([0] * 11))
        with pytest.raises(DataError, match=r"gold_au must have shape \(1, 12\)"):
            Dataset(**label_columns(gold_au=np.zeros((1, 11), dtype=np.int64)))  # wrong arity

    def test_first_bad_row_and_first_failing_check_reported(self):
        """Rows are checked in order and each reports its first failing
        check, as building one record per row did."""
        dataset_rows = [
            row(),
            row(expression=9, units=(2,) + AU_ZEROS[1:]),
            row(valence=VA_SENTINEL, expression=9),
        ]
        with pytest.raises(DataError, match=r"^sample 1: expression label out of range: 9$"):
            make_dataset(dataset_rows)
        with pytest.raises(DataError, match=r"^sample 0: valence and arousal must be missing"):
            make_dataset(dataset_rows[::-1])

    @pytest.mark.parametrize(
        "expression", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None]
    )
    def test_non_integer_expression_rejected(self, expression):
        with pytest.raises(DataError, match=r"^gold_exp must be an array of integers, got "):
            Dataset(**label_columns(gold_exp=np.array([expression])))

    @pytest.mark.parametrize(
        "unit", [1.0, 0.0, -1.0, 0.5, True, False, np.float64(1.0), np.bool_(False), "1"]
    )
    def test_non_integer_action_unit_rejected(self, unit):
        """A column holds one type: a column of this unit's type is refused."""
        with pytest.raises(DataError, match=r"^gold_au must be an array of integers, got "):
            Dataset(**label_columns(gold_au=np.full((1, N_ACTION_UNITS), unit)))

    def test_columns_must_be_arrays_that_fit(self):
        with pytest.raises(DataError, match=r"^gold_exp must be an array of integers, got list$"):
            Dataset(**label_columns(gold_exp=[3]))
        with pytest.raises(DataError, match=r"^gold_exp must be an array of integers, got uint64$"):
            Dataset(**label_columns(gold_exp=np.array([3], dtype=np.uint64)))
        with pytest.raises(DataError, match=r"^gold_va must be an array of floats, got int64$"):
            Dataset(**label_columns(gold_va=np.array([[0, 0]])))
        with pytest.raises(DataError, match=r"^gold_exp must have shape \(1,\) for 1 image paths"):
            Dataset(**label_columns(gold_exp=np.array([3, 3])))
        narrow = Dataset(**label_columns(
            gold_exp=np.array([3], dtype=np.int8),
            gold_au=np.zeros((1, N_ACTION_UNITS), dtype=np.uint32),
            gold_va=np.array([[0.1, -0.2]], dtype=np.float32),
        ))
        assert (narrow.gold_exp.dtype, narrow.gold_au.dtype, narrow.gold_va.dtype) == (
            np.int64, np.int64, np.float64
        )

    def test_validity_flags(self):
        nothing = row(VA_SENTINEL, VA_SENTINEL, LABEL_SENTINEL, AU_NONE)
        labels = make_dataset([row(), nothing])
        assert labels.va_valid.tolist() == [True, False]
        assert labels.exp_valid.tolist() == [True, False]
        assert labels.au_valid.tolist() == [True, False]
        assert labels.any_valid.tolist() == [True, False]


# Field values a corrupted manifest row may carry, by the fields they replace.
BAD_VA = ["nan", "1.5", "-1.0001", "inf", "1e400", "-5", "abc", "", " 0.5 "]
BAD_INT = ["2", "8", "-2", "-1", "99999999999999999999", "-99999999999999999999",
           "1.0", "x", "", "\t1 "]


@st.composite
def corrupted_manifests(draw):
    """Manifest text whose rows are valid, or carry up to three corruptions
    each: bad valence/arousal, expression or unit values, non-numbers,
    a wrong column count, and empty, NUL-holding or repeated paths."""
    lines = [HEADER]
    for i in range(draw(st.integers(0, 6))):
        va, expression, units = draw(st.sampled_from([
            (["0.25", "-0.5"], "3", ["0"] * 12),
            (["-5", "-5"], "-1", ["-1"] * 12),
            (["1.0", "-1.0"], "7", ["1", "0"] * 6),
        ]))
        fields = [f"images/x_{i}.pgm", *va, expression, *units]
        kinds = draw(st.lists(
            st.sampled_from(["va", "va", "int", "int", "path", "columns", None, None]),
            max_size=3,
        ))
        for kind in kinds:
            if kind == "va":
                fields[draw(st.integers(1, 2))] = draw(st.sampled_from(BAD_VA))
            elif kind == "int":
                fields[draw(st.integers(3, 15))] = draw(st.sampled_from(BAD_INT))
            elif kind == "path":
                fields[0] = draw(st.sampled_from(
                    [" ", "a\0b"] + [f"images/x_{j}.pgm" for j in range(i)]
                ))
        if "columns" in kinds:
            fields = draw(st.sampled_from([fields[:-1], fields + ["0"], fields[:3]]))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


class TestManifest:
    def test_header_roundtrip(self):
        assert MANIFEST_COLUMNS[0] == "image"
        assert len(MANIFEST_COLUMNS) == 16

    @settings(max_examples=50, deadline=None)
    @given(datasets())
    def test_round_trip_exact(self, dataset):
        again = parse_manifest(serialize_manifest(dataset))
        assert columns(again) == columns(dataset)

    @settings(max_examples=50, deadline=None)
    @given(datasets(), st.sampled_from([np.int8, np.int16, np.int32, np.int64, int]))
    def test_numpy_integer_labels_round_trip(self, dataset, int_type):
        """Label columns of any NumPy integer type are accepted, stored as
        int64, and survive the manifest."""
        converted = dataclasses.replace(
            dataset,
            gold_exp=dataset.gold_exp.astype(int_type),
            gold_au=dataset.gold_au.astype(int_type),
        )
        assert columns(converted) == columns(dataset)
        again = parse_manifest(serialize_manifest(converted))
        assert columns(again) == columns(converted)
        assert serialize_manifest(again) == serialize_manifest(converted)

    @settings(max_examples=300, deadline=None)
    @given(corrupted_manifests())
    @example(HEADER + "\na.pgm,2,0,3" + ",0" * 12 + "\nb.pgm,0,0,x" + ",0" * 12 + "\n")
    @example(HEADER + "\na.pgm,0,0,3" + ",0" * 12 + "\nb.pgm,0,0,3" + ",0" * 11 + "\n")
    @example(HEADER + "\na.pgm,0,0,3" + ",0" * 11 + ",2\na.pgm,0,0,3" + ",0" * 12 + "\n")
    def test_parse_matches_record_oracle(self, text):
        """The columns, or the DataError message, of the record parser that
        checks each row before reading the next: an earlier bad row wins
        over a later parse error, and a row reports its first failure."""
        try:
            records = oracles.parse_manifest(text)
        except DataError as exc:
            with pytest.raises(DataError) as excinfo:
                parse_manifest(text)
            assert str(excinfo.value) == str(exc)
        else:
            assert columns(parse_manifest(text)) == oracles.record_columns(records)

    def test_label_beyond_int64_keeps_its_value(self):
        big = "99999999999999999999"
        text = HEADER + "\na.pgm,0,0,3" + ",0" * 12 + f"\nb.pgm,0,0,{big}" + ",0" * 12 + "\n"
        with pytest.raises(DataError, match=rf"^row 3: expression label out of range: {big}$"):
            parse_manifest(text)

    def test_bad_header(self):
        with pytest.raises(DataError, match="row 1"):
            parse_manifest("image,valence\n")

    def test_wrong_column_count_names_row(self):
        text = serialize_manifest(make_dataset([row()], ("a.pgm",))) + "b.pgm,0.1,0.2\n"
        with pytest.raises(DataError, match=r"^row 3: expected 16 columns, got 3$"):
            parse_manifest(text)

    def test_duplicate_path_rejected(self):
        text = serialize_manifest(make_dataset([row()], ("a.pgm",)))
        text += text.splitlines()[1] + "\n"
        with pytest.raises(DataError, match=r"^row 3: duplicate image path 'a\.pgm'$"):
            parse_manifest(text)

    def test_non_integer_label_names_row(self):
        text = HEADER + "\na.pgm,0.1,0.2,x," + ",".join(["0"] * 12) + "\n"
        with pytest.raises(DataError, match=r"^row 2: not an integer: 'x'$"):
            parse_manifest(text)

    def test_integer_fields_parse_as_stripped_ints(self):
        """Padding the fields with whitespace, including the "\x1f" that
        int refuses and str.strip removes, keeps each label's value."""
        text = HEADER + "\na.pgm,0.1,0.2, 3\x1f," + ",".join(["\t1 "] + ["\x1f0"] * 11) + "\n"
        dataset = parse_manifest(text)
        assert dataset.gold_exp.tolist() == [3]
        assert dataset.gold_au.tolist() == [[1] + [0] * 11]
        assert dataset.gold_exp.dtype == np.int64 and dataset.gold_au.dtype == np.int64

    @pytest.mark.parametrize("column", [3, 4, 15])
    def test_non_integer_label_message_names_first_bad_field(self, column):
        fields = ["a.pgm", "0.1", "0.2"] + ["0"] * 13
        fields[column] = " 1.0 "
        fields[column + 1:] = ["y"] * (15 - column)
        with pytest.raises(DataError, match=r"^row 2: not an integer: '1\.0'$"):
            parse_manifest(HEADER + "\n" + ",".join(fields) + "\n")

    def test_annotation_violation_names_row(self):
        text = HEADER + "\na.pgm,-5,0.2,1," + ",".join(["0"] * 12) + "\n"
        with pytest.raises(DataError, match=r"^row 2: valence and arousal must be missing jointly$"):
            parse_manifest(text)

    def test_empty_dataset_round_trip(self):
        empty = make_dataset([])
        assert len(empty) == 0
        assert columns(parse_manifest(serialize_manifest(empty))) == columns(empty)


class TestStatsAndWeights:
    def make_dataset(self):
        return make_dataset([
            row(expression=0),
            row(expression=0),
            row(expression=1),
            row(expression=2, units=AU_NONE),
            row(VA_SENTINEL, VA_SENTINEL, LABEL_SENTINEL, AU_ZEROS),
        ])

    def test_counts(self):
        stats = dataset_stats(self.make_dataset())
        assert stats.total == 5
        assert stats.exp_valid_count == 4 and stats.exp_invalid_count == 1
        assert stats.exp_class_counts[:3] == (2, 1, 1)
        assert stats.va_valid_count == 4
        assert stats.au_valid_count == 4

    @settings(max_examples=100, deadline=None)
    @given(st.lists(label_rows(), max_size=8))
    def test_stats_and_labels_match_per_sample_reference(self, rows):
        n = len(rows)
        exp_counts = [0] * N_EXPRESSION_CLASSES
        au_pos = [0] * N_ACTION_UNITS
        au_neg = [0] * N_ACTION_UNITS
        exp_valid, au_valid, va_valid = [], [], []
        for valence, _, expression, units in rows:
            exp_valid.append(expression != LABEL_SENTINEL)
            au_valid.append(LABEL_SENTINEL not in units)
            va_valid.append(valence != VA_SENTINEL)
            if exp_valid[-1]:
                exp_counts[expression] += 1
            if au_valid[-1]:
                for u, unit in enumerate(units):
                    if unit == 1:
                        au_pos[u] += 1
                    else:
                        au_neg[u] += 1

        labels = make_dataset(rows)
        assert labels.gold_exp.dtype == np.int64 and labels.gold_exp.shape == (n,)
        assert labels.gold_au.dtype == np.int64 and labels.gold_au.shape == (n, 12)
        assert labels.gold_va.dtype == np.float64 and labels.gold_va.shape == (n, 2)
        assert labels.gold_exp.tolist() == [r[2] for r in rows]
        assert labels.gold_au.tolist() == [list(r[3]) for r in rows]
        assert labels.gold_va.tolist() == [[r[0], r[1]] for r in rows]
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
        stats = dataset_stats(self.make_dataset())
        weights = expression_class_weights(stats)
        assert weights[0] == 4 / 2
        assert weights[1] == 4.0 and weights[2] == 4.0
        # Classes that never occur carry an inert zero weight.
        assert all(weights[c] == 0.0 for c in range(3, 8))

    def test_au_weights_neg_over_pos(self):
        ds = make_dataset([
            row(units=(1,) + tuple([0] * 11)),
            row(units=(1,) + tuple([0] * 11)),
            row(units=(0,) + tuple([0] * 11)),
        ])
        weights = au_positive_weights(dataset_stats(ds))
        assert weights[0] == pytest.approx(1 / 2)
        # Units with no positives fall back to the neutral weight.
        assert all(weights[u] == 1.0 for u in range(1, 12))


class TestSynthetic:
    def test_deterministic(self):
        cfg = SynthConfig(count=30, image_size=8)
        ds1, imgs1 = generate_synthetic(cfg, 9)
        ds2, imgs2 = generate_synthetic(cfg, 9)
        assert columns(ds1) == columns(ds2)
        assert np.array_equal(imgs1, imgs2)

    def test_seed_changes_output(self):
        cfg = SynthConfig(count=30, image_size=8)
        _, imgs1 = generate_synthetic(cfg, 9)
        _, imgs2 = generate_synthetic(cfg, 10)
        assert not np.array_equal(imgs1, imgs2)

    def test_images_quantized_and_in_range(self):
        """The images are 8-bit levels, the noise clipped to both ends of
        the range rather than wrapped around it."""
        _, images = generate_synthetic(SynthConfig(count=20, image_size=8), 0)
        assert images.dtype == np.uint8 and images.shape == (20, 8, 8)
        assert images.min() == 0 and images.max() == 255

    def test_masking_rates_roughly_hold(self):
        cfg = SynthConfig(count=1500, image_size=4, exp_mask_rate=0.4,
                          va_mask_rate=0.2, au_mask_rate=0.2)
        dataset, _ = generate_synthetic(cfg, 5)
        stats = dataset_stats(dataset)
        assert abs(stats.exp_invalid_count / 1500 - 0.4) < 0.05
        assert abs(stats.va_invalid_count / 1500 - 0.2) < 0.05
        assert abs(stats.au_invalid_count / 1500 - 0.2) < 0.05

    def test_mask_rate_one_gives_header_only_validity(self):
        cfg = SynthConfig(count=10, image_size=4, exp_mask_rate=1.0)
        dataset, _ = generate_synthetic(cfg, 0)
        assert dataset.gold_exp.tolist() == [LABEL_SENTINEL] * 10

    def test_va_lies_on_class_circle(self):
        cfg = SynthConfig(count=200, image_size=4, va_mask_rate=0.0, va_noise=0.0,
                          exp_mask_rate=0.0)
        dataset, _ = generate_synthetic(cfg, 3)
        radius = np.hypot(dataset.gold_va[:, 0], dataset.gold_va[:, 1])
        assert len(radius) == 200
        assert np.allclose(radius, 0.7, rtol=0, atol=1e-9)

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
    # No samples; one sample, whose unit draws end the draw table with no
    # class draw after them; noise scales of zero, which normal still draws
    # for and which scale the negative draws to -0.0.
    @example(SynthConfig(count=0), 3)
    @example(SynthConfig(count=1, image_size=4), 5)
    @example(SynthConfig(count=20, image_size=4, pixel_noise=0.0, va_noise=0.0), 7)
    def test_matches_per_sample_choice_reference(self, config, seed):
        """generate_synthetic searches each class in the cdf that
        Generator.choice(8, p=priors / priors.sum()) builds instead of
        calling it, draws unscaled noise and 16 doubles per call in place,
        and derives everything else in whole-array passes; the per-sample
        loop that calls choice and normal gives the same bits, and records
        that hold the same columns and serialize to the same text."""
        dataset, images = generate_synthetic(config, seed)
        records, ref_images = oracles.generate_synthetic(config, seed)
        assert columns(dataset) == oracles.record_columns(records)
        assert serialize_manifest(dataset) == oracles.serialize_manifest(records)
        assert images.dtype == np.uint8 and images.shape == ref_images.shape
        assert oracles.LEVEL_PIXELS[images].tobytes() == ref_images.tobytes()

    def test_transient_memory_bounded(self):
        """At the default train size, the peak of what generate_synthetic
        allocates, less what it returns, stays under the bytes of the
        levels it returns: the draws fill preallocated arrays, the float
        pixels live one block of rows at a time, and the label columns are
        built from the draws in whole-array passes."""
        tracemalloc.start()
        try:
            dataset, levels = generate_synthetic(SynthFileConfig().train_config(), 0)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset) == 2000
        assert peak - retained <= levels.nbytes == 512_000


class TestDiskRoundTrip:
    def test_write_then_load_identical(self, tmp_path):
        cfg = SynthConfig(count=12, image_size=8)
        dataset, images = generate_synthetic(cfg, 2, prefix="train")
        write_dataset(tmp_path, "train.csv", dataset, images)
        loaded = load_manifest(tmp_path / "train.csv")
        assert columns(loaded) == columns(dataset)
        assert np.array_equal(load_images(loaded, tmp_path), images)

    def test_write_makes_each_image_directory_once(self, tmp_path, monkeypatch):
        cfg = SynthConfig(count=6, image_size=4)
        dataset, images = generate_synthetic(cfg, 0)
        dataset = dataclasses.replace(dataset, image_refs=tuple(
            f"{'ab'[i % 2]}/{ref}" for i, ref in enumerate(dataset.image_refs)
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
        merged = concat(ds1, ds2)
        with pytest.raises(DataError, match=r"disagree on dimensions: \[\(4, 4\), \(8, 8\)\]"):
            load_images(merged, tmp_path)

    def test_split_with_one_header_parses_it_once(self, tmp_path, monkeypatch):
        """Every file is read through data_model.read_pgm, the name the
        benchmark's tracer binds, and only the first runs the header regex."""
        dataset, images = generate_synthetic(SynthConfig(count=50, image_size=8), 0)
        write_dataset(tmp_path, "m.csv", dataset, images)
        loaded = load_manifest(tmp_path / "m.csv")
        reads, matches = [], []
        read, header = data_model.read_pgm, pgm._HEADER
        monkeypatch.setattr(data_model, "read_pgm", lambda path: reads.append(path) or read(path))
        monkeypatch.setattr(pgm, "_HEADER", SimpleNamespace(
            match=lambda data: matches.append(data) or header.match(data)
        ))
        monkeypatch.setattr(pgm, "_last_header", None)
        assert np.array_equal(load_images(loaded, tmp_path), images)
        assert len(reads) == 50 and len(matches) == 1


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(DataError, match=r"^duplicate image path: a$"):
        make_dataset([row(), row(), row()], ("a", "b", "a"))
