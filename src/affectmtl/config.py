"""Run configuration: plain-text key=value files and their round trip.

One `key=value` pair per line; blank lines and `#` comments are ignored.
Unknown or duplicate keys are rejected so a typo cannot silently fall back
to a default.  The keys are the config dataclasses' fields in declaration
order; each value parses as the type of its field's default, and only the
dataclasses check it, so a file and a Python call pass the same checks.
dump_run_config materializes every default with repr floats, and
parse(dump(config)) == config holds exactly; the sha256 of that dump
identifies the configuration inside checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .augmentation import AugConfig
from .data_model import UNIFORM_PRIORS, SynthConfig, SynthKnobs, check_class_priors
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
        choices = {"mode": tuple(m.value for m in TrainMode), "imbalance": IMBALANCE_MODES}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        object.__setattr__(self, "mode", TrainMode(self.mode))
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
    """Parse value as the type of the field's default: a str (lower-cased;
    TrainMode's members are strs), a tuple of floats, an int or a float."""
    if isinstance(default, str):
        return value.lower()
    kind = type(default)
    if kind is tuple:
        parts = value.split(",")
        if len(parts) != len(default):
            raise ConfigError(f"{key} needs {len(default)} comma-separated values")
        return tuple(_convert(key, p.strip(), default[0]) for p in parts)
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind.__name__}") from None


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
        f"{key}={value.value if isinstance(value, TrainMode) else value}\n"
        for key, _, _, value in _keys(config)
    )


def text_hash(text: str) -> str:
    """The hex sha256 of config text: a checkpoint's config hash."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(config: RunConfig) -> str:
    return text_hash(dump_run_config(config))


# Default benchmark: a long-tailed training set (rare classes get few
# labeled examples once masking is applied) evaluated on a balanced
# validation set, the usual protocol for imbalance-aware methods.
LONG_TAIL_PRIORS = (0.30, 0.22, 0.15, 0.10, 0.07, 0.06, 0.05, 0.05)


@dataclass(frozen=True)
class SynthFileConfig(SynthKnobs):
    """Knobs of the `synth` command: the shared knobs, and each split's count and priors."""

    train_count: int = 2000
    val_count: int = 500
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
        knobs = {f.name: getattr(self, f.name) for f in fields(SynthKnobs)}
        return SynthConfig(count=count, class_priors=priors, **knobs)

    def train_config(self) -> SynthConfig:
        return self._split_config(self.train_count, self.class_priors)

    def val_config(self) -> SynthConfig:
        return self._split_config(self.val_count, self.val_class_priors)


def parse_synth_config(text: str) -> SynthFileConfig:
    return _parse(text, SynthFileConfig())
