import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl.augmentation import AugConfig
from affectmtl.config import (
    RunConfig,
    SynthFileConfig,
    config_hash,
    dump_run_config,
    parse_kv,
    parse_run_config,
    parse_synth_config,
    text_hash,
)
from affectmtl.data_model import SynthConfig, SynthKnobs
from affectmtl.errors import ConfigError
from affectmtl.losses import LossWeights, TrainMode
from affectmtl.pseudo_label import ThresholdConfig


class TestParseKv:
    def test_basic_pairs(self):
        assert parse_kv("a=1\nb = two ") == {"a": "1", "b": "two"}

    def test_comments_and_blanks(self):
        text = "# full comment\n\nepochs=3  # trailing\n   \n"
        assert parse_kv(text) == {"epochs": "3"}

    def test_duplicate_key_line_numbered(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_kv("a=1\n\na=2\n")

    def test_missing_equals_line_numbered(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv("a=1\nbroken line\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv("=5\n")

    def test_value_may_contain_equals(self):
        assert parse_kv("a=x=y\n") == {"a": "x=y"}


# (config class, field) for every float field and every tuple-of-float
# prior of the config dataclasses, and the parser and key prefix of each
# class's fields in a config file.
FILE_KEYS = {
    RunConfig: (parse_run_config, ""),
    LossWeights: (parse_run_config, "lambda_"),
    ThresholdConfig: (parse_run_config, "threshold_"),
    AugConfig: (parse_run_config, ""),
    SynthConfig: (parse_synth_config, ""),
    SynthFileConfig: (parse_synth_config, ""),
}
FLOAT_FIELDS = [
    (kind, f.name)
    for kind in FILE_KEYS
    for f in fields(kind)
    if isinstance(f.default, (float, tuple))
]


class TestRunConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_run_config("") == RunConfig()

    def test_round_trip_defaults(self):
        config = RunConfig()
        assert parse_run_config(dump_run_config(config)) == config

    def test_round_trip_custom(self):
        config = RunConfig(
            epochs=7,
            batch_size=16,
            lr_base=0.0025,
            lr_heads=0.04,
            mode=TrainMode.SUPERVISED,
            imbalance="resample",
            seed=11,
            hidden_width=32,
        )
        assert parse_run_config(dump_run_config(config)) == config

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 100),
        st.integers(1, 256),
        st.sampled_from(list(TrainMode)),
        st.sampled_from(["reweight", "resample"]),
        st.floats(1e-5, 1.0),
    )
    def test_round_trip_property(self, epochs, batch, mode, imbalance, lr):
        config = RunConfig(
            epochs=epochs, batch_size=batch, mode=mode, imbalance=imbalance, lr_base=lr
        )
        assert parse_run_config(dump_run_config(config)) == config

    def test_dump_has_fixed_line_order(self):
        lines = dump_run_config(RunConfig()).splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == [
            "epochs", "batch_size", "lr_base", "lr_heads", "mode", "imbalance",
            "seed", "hidden_width", "lambda_sup", "lambda_unsup", "lambda_cons",
            "threshold_beta", "threshold_gamma", "threshold_momentum",
            "crop_padding", "flip_prob", "strong_ops_per_image",
            "brightness_delta", "contrast_low", "contrast_high",
            "rotation_max_deg", "cutout_max_frac",
        ]

    def test_mode_case_insensitive(self):
        assert parse_run_config("mode=SS-MFAR\n").mode is TrainMode.SEMI
        assert parse_run_config("mode=MfAr\n").mode is TrainMode.SUPERVISED
        assert parse_run_config("mode=ss-mfar-no-kl\n").mode is TrainMode.SEMI_NO_KL

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_run_config("mode=fixmatch\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_run_config("learning_rate=0.1\n")

    def test_nested_keys_reach_sub_configs(self):
        config = parse_run_config(
            "lambda_cons=0.25\nthreshold_beta=0.9\ncrop_padding=3\n"
        )
        assert config.loss_weights.cons == 0.25
        assert config.thresholds.beta == 0.9
        assert config.augment.crop_padding == 3

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_run_config("epochs=three\n")

    @pytest.mark.parametrize(
        "text",
        [
            "epochs=-1\n",
            "batch_size=0\n",
            "lr_base=0\n",
            "lr_heads=-0.5\n",
            "imbalance=oversample\n",
            "hidden_width=0\n",
            "lambda_sup=-1\n",
            "threshold_gamma=1.0\n",
            "flip_prob=1.5\n",
            "seed=-1\n",
            "rotation_max_deg=inf\n",
            "lr_base=nan\n",
            "lambda_cons=nan\n",
        ],
    )
    def test_invalid_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_run_config(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind, field", FLOAT_FIELDS)
    def test_built_config_rejects_non_finite(self, kind, field, value):
        """Every float field and every prior, built in Python or parsed from
        a file, refuses NaN and +-inf with a ConfigError naming the field
        (a prior's field is its key).  The parser checks no value itself,
        so a float field its dataclass leaves unchecked fails here."""
        default = getattr(kind(), field)
        bad = (value, *default[1:]) if isinstance(default, tuple) else value
        with pytest.raises(ConfigError, match=rf"^{field} "):
            kind(**{field: bad})
        parse, prefix = FILE_KEYS[kind]
        text = ",".join(map(repr, bad)) if isinstance(bad, tuple) else repr(bad)
        with pytest.raises(ConfigError, match=rf"^{field} "):
            parse(f"{prefix}{field}={text}\n")

    def test_mode_is_taken_by_value(self):
        for mode in TrainMode:
            assert RunConfig(mode=mode.value) == RunConfig(mode=mode)
            assert RunConfig(mode=mode.value).mode is mode
            assert parse_run_config(f"mode={mode.value.upper()}\n").mode is mode

    def test_unknown_mode_names_the_field_and_the_modes(self):
        message = "mode must be one of ('mfar', 'ss-mfar', 'ss-mfar-no-kl'), got 'fixmatch'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(mode="fixmatch")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_run_config("mode=fixmatch\n")

    def test_hash_stable_and_sensitive(self):
        a = config_hash(RunConfig())
        assert a == config_hash(RunConfig())
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")
        assert a != config_hash(RunConfig(seed=1))

    def test_one_function_hashes_config_text(self):
        """config_hash is text_hash of the dump, and text_hash is the
        package's one sha256 call."""
        config = RunConfig(seed=3)
        assert config_hash(config) == text_hash(dump_run_config(config))
        package = Path(__file__).parents[1] / "src" / "affectmtl"
        calls = {
            path.name: path.read_text(encoding="utf-8").count("sha256(")
            for path in package.glob("*.py")
        }
        assert {name: n for name, n in calls.items() if n} == {"config.py": 1}


def construct_synth_config(text: str) -> SynthFileConfig:
    """SynthFileConfig built directly from key=value text: each value goes
    through float or int alone, without the parser's finiteness check."""
    defaults = {f.name: f.default for f in fields(SynthFileConfig)}
    kwargs = {}
    for key, value in parse_kv(text).items():
        default = defaults[key]
        if isinstance(default, tuple):
            kwargs[key] = tuple(float(part) for part in value.split(","))
        else:
            kwargs[key] = type(default)(value)
    return SynthFileConfig(**kwargs)


# The error tests below hold for the parser and for direct construction.
SYNTH_BUILDERS = (parse_synth_config, construct_synth_config)


class TestSynthFileConfig:
    def test_shared_knobs_are_declared_once(self):
        """The file config declares only what a file adds; the knobs both
        configs take are SynthKnobs' fields, the same declarations."""
        knobs = fields(SynthKnobs)
        own = [f.name for f in fields(SynthFileConfig) if f not in knobs]
        assert own == ["train_count", "val_count", "class_priors", "val_class_priors"]
        for config in (SynthConfig, SynthFileConfig):
            assert all(a is b for a, b in zip(fields(config), knobs))
        assert len(knobs) == 8

    def test_split_configs_are_built_from_its_fields(self):
        default = SynthFileConfig()
        assert default.train_config() == SynthConfig(
            count=default.train_count, class_priors=default.class_priors
        )
        knobs = dict(
            image_size=8, exp_mask_rate=0.1, va_mask_rate=0.3, au_mask_rate=0.4,
            pixel_noise=0.2, va_noise=0.01, template_contrast=0.5, au_flip_prob=0.0,
        )
        priors = (0.5,) + (1.0,) * 7
        config = SynthFileConfig(train_count=30, val_count=10, class_priors=priors, **knobs)
        assert config.train_config() == SynthConfig(count=30, class_priors=priors, **knobs)
        assert config.val_config() == SynthConfig(
            count=10, class_priors=config.val_class_priors, **knobs
        )

    def test_defaults(self):
        config = parse_synth_config("")
        assert config == SynthFileConfig()
        assert config.train_count == 2000
        assert config.val_count == 500
        assert config.image_size == 16
        # Train split is long-tailed by default, val split is balanced.
        assert config.class_priors[0] == max(config.class_priors)
        assert config.class_priors[0] > 2 * config.class_priors[-1]
        assert math.isclose(sum(config.class_priors), 1.0)
        assert all(p == config.val_class_priors[0] for p in config.val_class_priors)

    def test_overrides(self):
        config = parse_synth_config(
            "train_count=100\nval_count=20\nimage_size=8\npixel_noise=0.1\n"
        )
        assert (config.train_count, config.val_count) == (100, 20)
        assert config.image_size == 8
        assert config.pixel_noise == 0.1

    def test_class_priors_list(self):
        config = parse_synth_config("class_priors=0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1\n")
        assert config.class_priors[0] == 0.3
        assert math.isclose(sum(config.class_priors), 1.0)

    def test_val_class_priors_list(self):
        config = parse_synth_config("val_class_priors=0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1\n")
        assert config.val_class_priors[0] == 0.3
        assert config.class_priors == SynthFileConfig().class_priors

    def test_class_priors_wrong_length(self):
        for build in SYNTH_BUILDERS:
            with pytest.raises(ConfigError, match="^class_priors "):
                build("class_priors=0.5,0.5\n")

    def test_val_class_priors_wrong_length(self):
        for build in SYNTH_BUILDERS:
            with pytest.raises(ConfigError, match="^val_class_priors "):
                build("val_class_priors=1,0,0\n")

    @pytest.mark.parametrize("key", ["class_priors", "val_class_priors"])
    @pytest.mark.parametrize("values", [["1e308"] * 8, ["-1"] + ["1"] * 7, ["0"] * 8])
    def test_bad_priors_error_names_their_key(self, key, values):
        for build in SYNTH_BUILDERS:
            with pytest.raises(
                ConfigError, match=rf"^{key} must be non-negative with a finite sum"
            ):
                build(f"{key}={','.join(values)}\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_synth_config("num_train=5\n")

    def test_invalid_rate_propagates(self):
        for build in SYNTH_BUILDERS:
            with pytest.raises(ConfigError, match="^exp_mask_rate must lie in"):
                build("exp_mask_rate=1.5\n")

    @pytest.mark.parametrize(
        "text",
        [
            "image_size=3\n",
            "pixel_noise=nan\n",
            "va_noise=inf\n",
            "pixel_noise=-0.0\n",
            "au_flip_prob=-inf\n",
            "class_priors=nan,0.1,0.1,0.1,0.1,0.1,0.1,0.1\n",
            "val_class_priors=1,1,1,1,1,1,1,inf\n",
        ],
    )
    def test_invalid_values_rejected(self, text):
        for build in SYNTH_BUILDERS:
            with pytest.raises(ConfigError):
                build(text)

    def test_negative_count(self):
        for build in SYNTH_BUILDERS:
            for key in ("train_count", "val_count"):
                with pytest.raises(ConfigError, match="^counts must be >= 0$"):
                    build(f"{key}=-5\n")

    def test_split_construction(self):
        config = parse_synth_config("train_count=40\nimage_size=8\n")
        train = config.train_config()
        val = config.val_config()
        assert train.count == 40
        assert train.image_size == 8
        assert train.class_priors == config.class_priors
        assert val.count == config.val_count
        assert val.class_priors == config.val_class_priors


def _readme_block(title: str) -> dict[str, str]:
    """key=value pairs of the code block under a README heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(rf"### {title}.*?```\n(.*?)```", readme, re.S).group(1)
    return parse_kv("\n".join(block.split()))


def test_readme_config_blocks_match_defaults():
    run = _readme_block("Training config keys")
    assert run == parse_kv(dump_run_config(RunConfig()))
    synth = _readme_block("Generator config keys")
    assert list(synth) == list(vars(SynthFileConfig()))
    assert parse_synth_config("\n".join(f"{k}={v}" for k, v in synth.items())) == SynthFileConfig()


def test_readme_python_api_block_runs(capsys):
    """The README's Python API example trains the default benchmark run and
    prints the best epoch's four validation scores."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(value)) for value in printed)
