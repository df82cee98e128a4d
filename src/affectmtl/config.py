"""Run configuration: plain-text key=value files and their round trip.

One `key=value` pair per line; blank lines and `#` comments are ignored.
Unknown or duplicate keys are rejected so a typo cannot silently fall back
to a default.  dump_run_config materializes every default with repr floats,
and parse(dump(config)) == config holds exactly; the sha256 of that dump
identifies the configuration inside checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .augmentation import AugConfig
from .data_model import N_EXPRESSION_CLASSES, UNIFORM_PRIORS, SynthConfig
from .errors import ConfigError
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


def _convert(key: str, value: str, kind):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind.__name__}") from None
    raise ConfigError(f"key {key!r}: unsupported type")


_TOP_KEYS = {
    "epochs": int,
    "batch_size": int,
    "lr_base": float,
    "lr_heads": float,
    "seed": int,
    "hidden_width": int,
}
_WEIGHT_KEYS = {"lambda_sup": "sup", "lambda_unsup": "unsup", "lambda_cons": "cons"}
_THRESHOLD_KEYS = {
    "threshold_beta": "beta",
    "threshold_gamma": "gamma",
    "threshold_momentum": "momentum",
}
_AUG_KEYS = {
    "crop_padding": int,
    "flip_prob": float,
    "strong_ops_per_image": int,
    "brightness_delta": float,
    "contrast_low": float,
    "contrast_high": float,
    "rotation_max_deg": float,
    "cutout_max_frac": float,
}


def parse_run_config(text: str) -> RunConfig:
    pairs = parse_kv(text)
    config = RunConfig()
    weights = config.loss_weights
    thresholds = config.thresholds
    augment = config.augment
    top: dict = {}
    for key, value in pairs.items():
        if key in _TOP_KEYS:
            top[key] = _convert(key, value, _TOP_KEYS[key])
        elif key == "mode":
            try:
                top["mode"] = TrainMode(value.strip().lower())
            except ValueError:
                raise ConfigError(
                    f"key 'mode': {value!r} is not one of "
                    f"{[m.value for m in TrainMode]}"
                ) from None
        elif key == "imbalance":
            top["imbalance"] = value.strip().lower()
        elif key in _WEIGHT_KEYS:
            weights = replace(
                weights, **{_WEIGHT_KEYS[key]: _convert(key, value, float)}
            )
        elif key in _THRESHOLD_KEYS:
            thresholds = replace(
                thresholds, **{_THRESHOLD_KEYS[key]: _convert(key, value, float)}
            )
        elif key in _AUG_KEYS:
            augment = replace(augment, **{key: _convert(key, value, _AUG_KEYS[key])})
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return replace(
        config, loss_weights=weights, thresholds=thresholds, augment=augment, **top
    )


def dump_run_config(config: RunConfig) -> str:
    """Every key, defaults included, in a fixed order; floats via repr."""
    w, t, a = config.loss_weights, config.thresholds, config.augment
    lines = [
        f"epochs={config.epochs}",
        f"batch_size={config.batch_size}",
        f"lr_base={config.lr_base!r}",
        f"lr_heads={config.lr_heads!r}",
        f"mode={config.mode.value}",
        f"imbalance={config.imbalance}",
        f"seed={config.seed}",
        f"hidden_width={config.hidden_width}",
        f"lambda_sup={w.sup!r}",
        f"lambda_unsup={w.unsup!r}",
        f"lambda_cons={w.cons!r}",
        f"threshold_beta={t.beta!r}",
        f"threshold_gamma={t.gamma!r}",
        f"threshold_momentum={t.momentum!r}",
        f"crop_padding={a.crop_padding}",
        f"flip_prob={a.flip_prob!r}",
        f"strong_ops_per_image={a.strong_ops_per_image}",
        f"brightness_delta={a.brightness_delta!r}",
        f"contrast_low={a.contrast_low!r}",
        f"contrast_high={a.contrast_high!r}",
        f"rotation_max_deg={a.rotation_max_deg!r}",
        f"cutout_max_frac={a.cutout_max_frac!r}",
    ]
    return "\n".join(lines) + "\n"


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

    def _split_config(self, count: int, priors: tuple[float, ...]) -> SynthConfig:
        return SynthConfig(
            count=count,
            image_size=self.image_size,
            class_priors=priors,
            exp_mask_rate=self.exp_mask_rate,
            va_mask_rate=self.va_mask_rate,
            au_mask_rate=self.au_mask_rate,
            pixel_noise=self.pixel_noise,
            va_noise=self.va_noise,
            template_contrast=self.template_contrast,
            au_flip_prob=self.au_flip_prob,
        )

    def train_config(self) -> SynthConfig:
        return self._split_config(self.train_count, self.class_priors)

    def val_config(self) -> SynthConfig:
        return self._split_config(self.val_count, self.val_class_priors)


_SYNTH_INT_KEYS = ("train_count", "val_count", "image_size")
_SYNTH_FLOAT_KEYS = (
    "exp_mask_rate",
    "va_mask_rate",
    "au_mask_rate",
    "pixel_noise",
    "va_noise",
    "template_contrast",
    "au_flip_prob",
)


def parse_synth_config(text: str) -> SynthFileConfig:
    pairs = parse_kv(text)
    updates: dict = {}
    for key, value in pairs.items():
        if key in _SYNTH_INT_KEYS:
            updates[key] = _convert(key, value, int)
        elif key in _SYNTH_FLOAT_KEYS:
            updates[key] = _convert(key, value, float)
        elif key in ("class_priors", "val_class_priors"):
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != N_EXPRESSION_CLASSES:
                raise ConfigError(
                    f"{key} needs {N_EXPRESSION_CLASSES} comma-separated values"
                )
            updates[key] = tuple(_convert(key, p, float) for p in parts)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    config = SynthFileConfig(**updates)
    if config.train_count < 0 or config.val_count < 0:
        raise ConfigError("counts must be >= 0")
    # Delegate range checks to the per-split construction.
    config.train_config()
    config.val_config()
    return config
