"""Samples with possibly-missing multi-task labels.

A sample carries up to three annotations: a valence/arousal pair in [-1, 1],
an expression class in {0..7}, and twelve binary action units.  Missing
annotations are marked with sentinels (-5 for valence/arousal, -1 for
expression and action units) and always jointly: valence and arousal are
missing together, and either all twelve action units are present or none is.

This module parses/serializes the manifest CSV, computes per-task validity,
dataset statistics and imbalance weights, and synthesizes seeded desk-scale
datasets that stand in for real affect imagery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .pgm import read_pgm, write_pgm

N_EXPRESSION_CLASSES = 8
N_ACTION_UNITS = 12
AU_NUMBERS = (1, 2, 4, 6, 7, 10, 12, 15, 23, 24, 25, 26)
VA_SENTINEL = -5.0
LABEL_SENTINEL = -1

EXPRESSION_NAMES = (
    "anger", "disgust", "fear", "happiness", "sadness", "surprise", "neutral", "other",
)

MANIFEST_COLUMNS = ("image", "valence", "arousal", "expression") + tuple(
    f"au{n}" for n in AU_NUMBERS
)


@dataclass(frozen=True)
class AnnotationSet:
    """Labels of one sample; sentinel values mark a task as unannotated."""

    valence: float
    arousal: float
    expression: int
    action_units: tuple[int, ...]

    def __post_init__(self):
        if (self.valence == VA_SENTINEL) != (self.arousal == VA_SENTINEL):
            raise DataError("valence and arousal must be missing jointly")
        if self.valence != VA_SENTINEL:
            if not (-1.0 <= self.valence <= 1.0 and -1.0 <= self.arousal <= 1.0):
                raise DataError(
                    f"valence/arousal outside [-1, 1]: ({self.valence}, {self.arousal})"
                )
        if self.expression != LABEL_SENTINEL and not (
            0 <= self.expression < N_EXPRESSION_CLASSES
        ):
            raise DataError(f"expression label out of range: {self.expression}")
        if len(self.action_units) != N_ACTION_UNITS:
            raise DataError(
                f"expected {N_ACTION_UNITS} action units, got {len(self.action_units)}"
            )
        missing = [unit == LABEL_SENTINEL for unit in self.action_units]
        if any(missing) and not all(missing):
            raise DataError("action units must be missing jointly")
        if not all(unit in (0, 1, LABEL_SENTINEL) for unit in self.action_units):
            raise DataError(f"action unit values must be 0/1/{LABEL_SENTINEL}")


@dataclass(frozen=True)
class Sample:
    id: str
    image_ref: str
    annotations: AnnotationSet


@dataclass(frozen=True)
class TaskValidity:
    va_valid: bool
    exp_valid: bool
    au_valid: bool

    @property
    def any_valid(self) -> bool:
        return self.va_valid or self.exp_valid or self.au_valid


def validity(sample) -> TaskValidity:
    """Per-task validity flags for a Sample or a bare AnnotationSet."""
    ann = getattr(sample, "annotations", sample)
    return TaskValidity(
        va_valid=ann.valence != VA_SENTINEL,
        exp_valid=ann.expression != LABEL_SENTINEL,
        au_valid=LABEL_SENTINEL not in ann.action_units,
    )


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of samples with unique ids."""

    samples: tuple[Sample, ...]

    def __post_init__(self):
        seen = set()
        for sample in self.samples:
            if sample.id in seen:
                raise DataError(f"duplicate sample id: {sample.id}")
            seen.add(sample.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, index) -> Sample:
        return self.samples[index]


def parse_manifest(text: str) -> Dataset:
    """Parse manifest CSV text into a Dataset.

    The format is a fixed 16-column CSV with a mandatory header row; see
    MANIFEST_COLUMNS.  Malformed rows raise DataError naming the 1-based
    line number (the header is line 1).
    """
    lines = text.splitlines()
    if not lines:
        raise DataError("row 1: missing header")
    expected_header = ",".join(MANIFEST_COLUMNS)
    if lines[0].strip() != expected_header:
        raise DataError(f"row 1: bad header, expected {expected_header!r}")
    samples = []
    seen_ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(MANIFEST_COLUMNS):
            raise DataError(
                f"row {lineno}: expected {len(MANIFEST_COLUMNS)} columns, got {len(fields)}"
            )
        image_ref = fields[0].strip()
        if not image_ref:
            raise DataError(f"row {lineno}: empty image path")
        if image_ref in seen_ids:
            raise DataError(f"row {lineno}: duplicate image path {image_ref!r}")
        seen_ids.add(image_ref)
        try:
            valence = float(fields[1])
            arousal = float(fields[2])
            expression = _parse_int(fields[3])
            units = tuple(_parse_int(f) for f in fields[4:])
            annotations = AnnotationSet(valence, arousal, expression, units)
        except (ValueError, DataError) as exc:
            raise DataError(f"row {lineno}: {exc}") from None
        samples.append(Sample(id=image_ref, image_ref=image_ref, annotations=annotations))
    return Dataset(tuple(samples))


def _parse_int(field: str) -> int:
    field = field.strip()
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"not an integer: {field!r}") from None


def serialize_manifest(dataset: Dataset) -> str:
    """Inverse of parse_manifest; floats are written with repr so that the
    round trip is value-exact."""
    lines = [",".join(MANIFEST_COLUMNS)]
    for sample in dataset:
        ann = sample.annotations
        fields = [
            sample.image_ref,
            repr(float(ann.valence)),
            repr(float(ann.arousal)),
            str(ann.expression),
        ] + [str(unit) for unit in ann.action_units]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DatasetStats:
    """Per-task annotation counts for a dataset."""

    total: int
    exp_valid_count: int
    exp_invalid_count: int
    exp_class_counts: tuple[int, ...]
    au_valid_count: int
    au_invalid_count: int
    au_pos_counts: tuple[int, ...]
    au_neg_counts: tuple[int, ...]
    va_valid_count: int
    va_invalid_count: int


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """Single-pass counts of valid annotations per task, class, and unit."""
    exp_counts = [0] * N_EXPRESSION_CLASSES
    au_pos = [0] * N_ACTION_UNITS
    au_neg = [0] * N_ACTION_UNITS
    exp_valid = au_valid = va_valid = 0
    for sample in dataset:
        flags = validity(sample)
        ann = sample.annotations
        if flags.exp_valid:
            exp_valid += 1
            exp_counts[ann.expression] += 1
        if flags.au_valid:
            au_valid += 1
            for i, unit in enumerate(ann.action_units):
                if unit == 1:
                    au_pos[i] += 1
                else:
                    au_neg[i] += 1
        if flags.va_valid:
            va_valid += 1
    total = len(dataset)
    return DatasetStats(
        total=total,
        exp_valid_count=exp_valid,
        exp_invalid_count=total - exp_valid,
        exp_class_counts=tuple(exp_counts),
        au_valid_count=au_valid,
        au_invalid_count=total - au_valid,
        au_pos_counts=tuple(au_pos),
        au_neg_counts=tuple(au_neg),
        va_valid_count=va_valid,
        va_invalid_count=total - va_valid,
    )


def expression_class_weights(stats: DatasetStats) -> np.ndarray:
    """Inverse-frequency rescaling weight per expression class.

    W[c] = (valid expression count) / (count of class c).  Classes that never
    occur get weight 0; they cannot appear in the supervised loss, so the
    value is inert.
    """
    counts = np.asarray(stats.exp_class_counts, dtype=np.float64)
    weights = np.zeros(N_EXPRESSION_CLASSES)
    np.divide(float(stats.exp_valid_count), counts, out=weights, where=counts > 0)
    return weights


def au_positive_weights(stats: DatasetStats) -> np.ndarray:
    """Per-unit positive-class weight: negatives / positives.

    Units with no positive sample get the neutral weight 1.0; the positive
    term never fires for them.
    """
    pos = np.asarray(stats.au_pos_counts, dtype=np.float64)
    neg = np.asarray(stats.au_neg_counts, dtype=np.float64)
    weights = np.ones(N_ACTION_UNITS)
    np.divide(neg, pos, out=weights, where=pos > 0)
    return weights


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

UNIFORM_PRIORS = tuple([1.0 / N_EXPRESSION_CLASSES] * N_EXPRESSION_CLASSES)

# Class-conditioned action-unit activation pattern (fixed across seeds).
_AU_PATTERN = (
    np.random.default_rng(20220804).random((N_EXPRESSION_CLASSES, N_ACTION_UNITS)) < 0.5
)

# Fixed injective class -> (valence, arousal) map: points on a circle.
_VA_RADIUS = 0.7
_VA_CENTERS = np.stack(
    [
        _VA_RADIUS * np.cos(2.0 * np.pi * (np.arange(N_EXPRESSION_CLASSES) + 0.5) / N_EXPRESSION_CLASSES),
        _VA_RADIUS * np.sin(2.0 * np.pi * (np.arange(N_EXPRESSION_CLASSES) + 0.5) / N_EXPRESSION_CLASSES),
    ],
    axis=1,
)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic dataset (one manifest's worth of samples)."""

    count: int = 2000
    image_size: int = 16
    class_priors: tuple[float, ...] = UNIFORM_PRIORS
    exp_mask_rate: float = 0.4
    va_mask_rate: float = 0.2
    au_mask_rate: float = 0.2
    pixel_noise: float = 0.35
    va_noise: float = 0.05
    template_contrast: float = 0.3
    au_flip_prob: float = 0.05

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        if len(self.class_priors) != N_EXPRESSION_CLASSES:
            raise ConfigError("class_priors must have 8 entries")
        if any(p < 0 for p in self.class_priors) or sum(self.class_priors) <= 0:
            raise ConfigError("class_priors must be non-negative and sum to > 0")
        for name in ("exp_mask_rate", "va_mask_rate", "au_mask_rate", "au_flip_prob"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
        for name in ("pixel_noise", "va_noise", "template_contrast"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def class_template(label: int, size: int, contrast: float) -> np.ndarray:
    """Mean image for one class: an oriented sinusoidal grating around 0.5."""
    coords = np.arange(size, dtype=np.float64) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    angle = np.pi * label / N_EXPRESSION_CLASSES
    freq = 1.0 + (label % 4)
    phase = 2.0 * np.pi * label / N_EXPRESSION_CLASSES
    wave = np.sin(2.0 * np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy) + phase)
    return 0.5 + contrast * wave


def generate_synthetic(
    config: SynthConfig, seed: int, prefix: str = "sample"
) -> tuple[Dataset, np.ndarray]:
    """Generate a seeded synthetic dataset.

    Returns the Dataset plus its images as a (count, size, size) array in
    [0, 1].  Images are quantized to 8-bit levels so the in-memory pixels
    equal what a written PGM reads back.  Masking replaces labels with
    sentinels at the configured rates, always jointly for valence/arousal
    and for the action units.
    """
    rng = np.random.default_rng(seed)
    size = config.image_size
    priors = np.asarray(config.class_priors, dtype=np.float64)
    priors = priors / priors.sum()
    templates = [
        class_template(c, size, config.template_contrast)
        for c in range(N_EXPRESSION_CLASSES)
    ]
    samples = []
    images = np.empty((config.count, size, size))
    for i in range(config.count):
        label = int(rng.choice(N_EXPRESSION_CLASSES, p=priors))
        raw = templates[label] + rng.normal(0.0, config.pixel_noise, (size, size))
        images[i] = np.rint(np.clip(raw, 0.0, 1.0) * 255.0) / 255.0
        va = np.clip(
            _VA_CENTERS[label] + rng.normal(0.0, config.va_noise, 2), -1.0, 1.0
        )
        flips = rng.random(N_ACTION_UNITS) < config.au_flip_prob
        units = np.where(flips, ~_AU_PATTERN[label], _AU_PATTERN[label]).astype(int)
        masked_exp = rng.random() < config.exp_mask_rate
        masked_va = rng.random() < config.va_mask_rate
        masked_au = rng.random() < config.au_mask_rate
        annotations = AnnotationSet(
            valence=VA_SENTINEL if masked_va else float(va[0]),
            arousal=VA_SENTINEL if masked_va else float(va[1]),
            expression=LABEL_SENTINEL if masked_exp else label,
            action_units=tuple([LABEL_SENTINEL] * N_ACTION_UNITS)
            if masked_au
            else tuple(int(u) for u in units),
        )
        ref = f"images/{prefix}_{i:05d}.pgm"
        samples.append(Sample(id=ref, image_ref=ref, annotations=annotations))
    return Dataset(tuple(samples)), images


def write_dataset(root, manifest_name: str, dataset: Dataset, images: np.ndarray) -> None:
    """Write manifest + one PGM per sample under root."""
    os.makedirs(root, exist_ok=True)
    for sample, image in zip(dataset, images):
        path = os.path.join(root, sample.image_ref)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_pgm(path, image)
    with open(os.path.join(root, manifest_name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_manifest(dataset))


def load_manifest(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def load_images(dataset: Dataset, root) -> np.ndarray:
    """Stack every sample's PGM into one (n, h, w) array in [0, 1]."""
    if len(dataset) == 0:
        return np.zeros((0, 0, 0))
    images = [read_pgm(os.path.join(root, s.image_ref)) for s in dataset]
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise DataError(f"images disagree on dimensions: {sorted(shapes)}")
    return np.stack(images)


def format_stats(stats: DatasetStats) -> str:
    """Human-readable multi-line statistics summary."""
    lines = [
        f"samples: {stats.total}",
        f"expression valid/invalid: {stats.exp_valid_count}/{stats.exp_invalid_count}",
        "expression class counts: "
        + ", ".join(
            f"{name}={count}"
            for name, count in zip(EXPRESSION_NAMES, stats.exp_class_counts)
        ),
        f"valence-arousal valid/invalid: {stats.va_valid_count}/{stats.va_invalid_count}",
        f"action-unit valid/invalid: {stats.au_valid_count}/{stats.au_invalid_count}",
        "action-unit positives: "
        + ", ".join(
            f"au{n}={p}" for n, p in zip(AU_NUMBERS, stats.au_pos_counts)
        ),
    ]
    return "\n".join(lines)

