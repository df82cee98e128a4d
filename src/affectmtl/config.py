"""Run configuration: plain-text key=value files and their round trip.

One `key=value` pair per line; blank lines and `#` comments are ignored.
Unknown or duplicate keys are rejected so a typo cannot silently fall back
to a default.  The keys are the config dataclasses' fields in declaration
order, and each value parses as the type of its field's default.
dump_run_config materializes every default with repr floats, and
parse(dump(config)) == config holds exactly; the sha256 of that dump
identifies the configuration inside checkpoints.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, fields, replace

from .augmentation import AugConfig
from .data_model import UNIFORM_PRIORS, SynthConfig, check_class_priors
from .errors import ConfigError, check_finite
from .losses import LossWeights, TrainMode
from .pseudo_label import ThresholdConfig

IMBALANCE_MODES = ("reweight", "resample")


@dataclass(frozen=True)
class RunConfig:
    epochs: int = 30
    batch_size: int = 64
    lr_base: float = 0.001
    lr_heads: float = 0.01
    mode: TrainMode = TrainMode.SEMI
    imbalance: str = "reweight"
    seed: int = 0
    hidden_width: int = 64
    loss_weights: LossWeights = LossWeights()
    thresholds: ThresholdConfig = ThresholdConfig()
    augment: AugConfig = AugConfig()

    def __post_init__(self):
        check_finite(self, "lr_base", "lr_heads")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_base <= 0 or self.lr_heads <= 0:
            raise ConfigError("learning rates must be positive")
        if self.imbalance not in IMBALANCE_MODES:
            raise ConfigError(
                f"imbalance must be one of {IMBALANCE_MODES}, got {self.imbalance!r}"
            )
        if self.hidden_width < 1:
            raise ConfigError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def parse_kv(text: str) -> dict[str, str]:
    """Split key=value lines; reject malformed lines and duplicate keys."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(key: str, value: str, default):
    """Parse value as the type of the field's default: an enum or str
    (both lower-cased), a tuple of floats, an int, or a finite float."""
    kind = type(default)
    if isinstance(default, enum.Enum):
        try:
            return kind(value.lower())
        except ValueError:
            raise ConfigError(
                f"key {key!r}: {value!r} is not one of {[m.value for m in kind]}"
            ) from None
    if kind is str:
        return value.lower()
    if kind is tuple:
        parts = value.split(",")
        if len(parts) != len(default):
            raise ConfigError(f"{key} needs {len(default)} comma-separated values")
        return tuple(_convert(key, p.strip(), default[0]) for p in parts)
    try:
        parsed = kind(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(parsed):
        raise ConfigError(f"key {key!r}: {value!r} is not a finite number")
    return parsed


# Key prefix of each nested config's fields in a run config file.
_SECTIONS = {"loss_weights": "lambda_", "thresholds": "threshold_", "augment": ""}


def _keys(config):
    """(key, section, field name, value) per key of config, in dump order.

    section is None for config's own fields.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in _SECTIONS:
            for sub in fields(value):
                key = _SECTIONS[f.name] + sub.name
                yield key, f.name, sub.name, getattr(value, sub.name)
        else:
            yield f.name, None, f.name, value


def _parse(text: str, defaults):
    """defaults with the keys of text replaced; a nested section is
    rebuilt only when text has a key of it."""
    known = {key: (section, name, value) for key, section, name, value in _keys(defaults)}
    updates: dict = {}
    for key, value in parse_kv(text).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, default = known[key]
        updates.setdefault(section, {})[name] = _convert(key, value, default)
    top = updates.pop(None, {})
    for section, changes in updates.items():
        top[section] = replace(getattr(defaults, section), **changes)
    return replace(defaults, **top)


def parse_run_config(text: str) -> RunConfig:
    return _parse(text, RunConfig())


def dump_run_config(config: RunConfig) -> str:
    """Every key, defaults included, in field order; floats via repr."""
    return "".join(
        f"{key}={value.value if isinstance(value, enum.Enum) else value}\n"
        for key, _, _, value in _keys(config)
    )


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(dump_run_config(config).encode("utf-8")).hexdigest()


# Default benchmark: a long-tailed training set (rare classes get few
# labeled examples once masking is applied) evaluated on a balanced
# validation set, the usual protocol for imbalance-aware methods.
LONG_TAIL_PRIORS = (0.30, 0.22, 0.15, 0.10, 0.07, 0.06, 0.05, 0.05)


@dataclass(frozen=True)
class SynthFileConfig:
    """Knobs of the `synth` command: one train set and one val set."""

    train_count: int = 2000
    val_count: int = 500
    image_size: int = 16
    exp_mask_rate: float = 0.4
    va_mask_rate: float = 0.2
    au_mask_rate: float = 0.2
    pixel_noise: float = 0.35
    va_noise: float = 0.05
    template_contrast: float = 0.3
    au_flip_prob: float = 0.05
    class_priors: tuple[float, ...] = LONG_TAIL_PRIORS
    val_class_priors: tuple[float, ...] = UNIFORM_PRIORS

    def __post_init__(self):
        if self.train_count < 0 or self.val_count < 0:
            raise ConfigError("counts must be >= 0")
        # Range checks are the per-split SynthConfig's, which names both
        # splits' priors class_priors, so the val split's are first checked
        # by their key.
        self.train_config()
        check_class_priors("val_class_priors", self.val_class_priors)
        self.val_config()

    def _split_config(self, count: int, priors: tuple[float, ...]) -> SynthConfig:
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(SynthConfig)
            if f.name not in ("count", "class_priors")
        }
        return SynthConfig(count=count, class_priors=priors, **shared)

    def train_config(self) -> SynthConfig:
        return self._split_config(self.train_count, self.class_priors)

    def val_config(self) -> SynthConfig:
        return self._split_config(self.val_count, self.val_class_priors)


def parse_synth_config(text: str) -> SynthFileConfig:
    return _parse(text, SynthFileConfig())
