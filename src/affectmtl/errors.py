"""Shared exception types, mapped to CLI exit codes in cli.py."""

import math


class DataError(ValueError):
    """Malformed manifest, annotation, checkpoint, or on-disk input."""


class ConfigError(DataError):
    """Invalid configuration value or unknown configuration key."""


def check_finite(config, *names: str) -> None:
    """ConfigError naming the first of config's fields names that is NaN or
    infinite."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or forward output."""
