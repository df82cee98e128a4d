"""Samples with possibly-missing multi-task labels.

A sample carries up to three annotations: a valence/arousal pair in [-1, 1],
an expression class in {0..7}, and twelve binary action units.  Missing
annotations are marked with sentinels (-5 for valence/arousal, -1 for
expression and action units) and always jointly: valence and arousal are
missing together, and either all twelve action units are present or none is.

This module is the only place that reads sentinels: label_arrays decodes a
dataset's annotations into one table of label arrays and per-task validity
masks, which dataset statistics, training batches and scoring all use.  It
also parses/serializes the manifest CSV, derives imbalance weights, and
synthesizes seeded desk-scale datasets that stand in for real affect imagery.
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


def _is_integer_type(kind: type) -> bool:
    """Python and NumPy integer types; bool, although an int subclass, is not one."""
    return kind is not bool and issubclass(kind, (int, np.integer))


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
        # Checked once per distinct type: this runs for every sample loaded.
        if not all(map(_is_integer_type, {type(self.expression), *map(type, self.action_units)})):
            raise DataError(
                "expression and action units must be integers, got "
                f"{self.expression!r} and {self.action_units!r}"
            )
        if self.expression != LABEL_SENTINEL and not (
            0 <= self.expression < N_EXPRESSION_CLASSES
        ):
            raise DataError(f"expression label out of range: {self.expression}")
        if len(self.action_units) != N_ACTION_UNITS:
            raise DataError(
                f"expected {N_ACTION_UNITS} action units, got {len(self.action_units)}"
            )
        values = set(self.action_units)
        if LABEL_SENTINEL in values and values != {LABEL_SENTINEL}:
            raise DataError("action units must be missing jointly")
        if not values <= {0, 1, LABEL_SENTINEL}:
            raise DataError(f"action unit values must be 0/1/{LABEL_SENTINEL}")


@dataclass(frozen=True)
class Sample:
    image_ref: str
    annotations: AnnotationSet


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of samples with unique image paths."""

    samples: tuple[Sample, ...]

    def __post_init__(self):
        seen = set()
        for sample in self.samples:
            if sample.image_ref in seen:
                raise DataError(f"duplicate image path: {sample.image_ref}")
            seen.add(sample.image_ref)

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
        if "\0" in image_ref:
            raise DataError(f"row {lineno}: NUL byte in image path")
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
        samples.append(Sample(image_ref, annotations))
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


@dataclass(frozen=True, eq=False)
class LabelArrays:
    """A dataset's labels as arrays, sentinels decoded into validity masks."""

    gold_exp: np.ndarray    # (n,) int64, LABEL_SENTINEL where unlabeled
    gold_au: np.ndarray     # (n, 12) int64, LABEL_SENTINEL where unlabeled
    gold_va: np.ndarray     # (n, 2) float64, VA_SENTINEL where unlabeled
    exp_valid: np.ndarray   # (n,) bool, one mask per task
    au_valid: np.ndarray
    va_valid: np.ndarray

    @property
    def any_valid(self) -> np.ndarray:
        return self.exp_valid | self.au_valid | self.va_valid


def label_arrays(dataset: Dataset) -> LabelArrays:
    """Decode every sample's annotations in one pass."""
    width = 3 + N_ACTION_UNITS
    rows = np.fromiter(
        (
            value
            for a in (s.annotations for s in dataset)
            for value in (a.expression, a.valence, a.arousal, *a.action_units)
        ),
        dtype=np.float64,
        count=len(dataset) * width,
    ).reshape(len(dataset), width)
    gold_exp = rows[:, 0].astype(np.int64)
    gold_va = rows[:, 1:3].copy()
    gold_au = rows[:, 3:].astype(np.int64)
    return LabelArrays(
        gold_exp=gold_exp,
        gold_au=gold_au,
        gold_va=gold_va,
        exp_valid=gold_exp != LABEL_SENTINEL,
        # AnnotationSet keeps the units missing jointly, so one column decides.
        au_valid=gold_au[:, 0] != LABEL_SENTINEL,
        va_valid=gold_va[:, 0] != VA_SENTINEL,
    )


def dataset_stats(labels: LabelArrays) -> DatasetStats:
    """Counts of valid annotations per task, class, and unit."""
    total = len(labels.gold_exp)
    exp_valid = int(np.count_nonzero(labels.exp_valid))
    au_valid = int(np.count_nonzero(labels.au_valid))
    va_valid = int(np.count_nonzero(labels.va_valid))
    exp_counts = np.bincount(
        labels.gold_exp[labels.exp_valid], minlength=N_EXPRESSION_CLASSES
    )
    au_pos = np.count_nonzero(labels.gold_au[labels.au_valid] == 1, axis=0)
    return DatasetStats(
        total=total,
        exp_valid_count=exp_valid,
        exp_invalid_count=total - exp_valid,
        exp_class_counts=tuple(exp_counts.tolist()),
        au_valid_count=au_valid,
        au_invalid_count=total - au_valid,
        au_pos_counts=tuple(au_pos.tolist()),
        au_neg_counts=tuple((au_valid - au_pos).tolist()),
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

# Images per gathered block of class templates in generate_synthetic.
_CHUNK_ROWS = 64


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
        # generate_synthetic normalizes by this same sum; NaN fails ">= 0".
        priors = np.asarray(self.class_priors, dtype=np.float64)
        with np.errstate(over="ignore"):
            total = priors.sum()
        if not (np.all(priors >= 0) and 0 < total < np.inf):
            raise ConfigError(
                "class_priors must be non-negative with a finite sum > 0, "
                f"got {self.class_priors}"
            )
        for name in ("exp_mask_rate", "va_mask_rate", "au_mask_rate", "au_flip_prob"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
        for name in ("pixel_noise", "va_noise", "template_contrast"):
            value = getattr(self, name)
            # signbit also rejects -0.0, which numpy refuses as a noise scale.
            if np.signbit(value) or not np.isfinite(value):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


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

    The random draws are the contract: a seed gives the same dataset, bit
    for bit, for as long as they stay as they are.  Each sample takes, in
    this order, from np.random.default_rng(seed):

    1. rng.random(): the class, found with searchsorted(..., side="right")
       in the cdf that Generator.choice(8, p=p) builds, with
       p = priors / priors.sum(): p.cumsum() divided by its last entry;
    2. rng.normal(0.0, pixel_noise, (size, size)): the pixel noise;
    3. rng.normal(0.0, va_noise, 2): the valence/arousal noise;
    4. rng.random(15): twelve action-unit flip draws, then the expression,
       valence/arousal and action-unit mask draws, in that order.

    Only the draws run per sample; templates, clipping, quantization, flips
    and masks are whole-array passes over them afterwards.
    """
    rng = np.random.default_rng(seed)
    n, size = config.count, config.image_size
    p = np.asarray(config.class_priors, dtype=np.float64)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    class_draws = np.empty(n)
    images = np.empty((n, size, size))
    va = np.empty((n, 2))
    unit_draws = np.empty((n, N_ACTION_UNITS + 3))
    random, normal = rng.random, rng.normal
    for i in range(n):
        class_draws[i] = random()
        images[i] = normal(0.0, config.pixel_noise, (size, size))
        va[i] = normal(0.0, config.va_noise, 2)
        unit_draws[i] = random(N_ACTION_UNITS + 3)
    labels = cdf.searchsorted(class_draws, side="right")
    flips = unit_draws[:, :N_ACTION_UNITS] < config.au_flip_prob
    rates = (config.exp_mask_rate, config.va_mask_rate, config.au_mask_rate)
    masked_exp, masked_va, masked_au = (unit_draws[:, N_ACTION_UNITS:] < rates).T
    del unit_draws  # the largest transient: freed before the image passes

    templates = np.stack([
        class_template(c, size, config.template_contrast)
        for c in range(N_EXPRESSION_CLASSES)
    ])
    # Chunks bound the gathered templates' transient to _CHUNK_ROWS images.
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        images[rows] += templates[labels[rows]]
    np.clip(images, 0.0, 1.0, out=images)
    images *= 255.0
    np.rint(images, out=images)
    images /= 255.0

    va += _VA_CENTERS[labels]
    np.clip(va, -1.0, 1.0, out=va)
    va[masked_va] = VA_SENTINEL
    expression = np.where(masked_exp, LABEL_SENTINEL, labels)
    units = (_AU_PATTERN[labels] ^ flips).astype(np.int8)
    units[masked_au] = LABEL_SENTINEL

    # Per-row tolist() gives Python floats and ints without a whole-array
    # list of n rows alive at once.
    samples = []
    for i in range(n):
        valence, arousal = va[i].tolist()
        annotations = AnnotationSet(
            valence, arousal, int(expression[i]), tuple(units[i].tolist())
        )
        samples.append(Sample(f"images/{prefix}_{i:05d}.pgm", annotations))
    return Dataset(tuple(samples)), images


def write_dataset(root, manifest_name: str, dataset: Dataset, images: np.ndarray) -> None:
    """Write manifest + one PGM per sample under root, overwriting existing
    files in place (see write_pgm); not atomic."""
    os.makedirs(root, exist_ok=True)
    made = set()
    for sample, image in zip(dataset, images):
        path = os.path.join(root, sample.image_ref)
        directory = os.path.dirname(path)
        if directory not in made:
            os.makedirs(directory, exist_ok=True)
            made.add(directory)
        write_pgm(path, image)
    with open(os.path.join(root, manifest_name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_manifest(dataset))


def read_text(path) -> str:
    """The UTF-8 text of a file; other bytes raise DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_manifest(path) -> Dataset:
    text = read_text(path)
    try:
        return parse_manifest(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_images(dataset: Dataset, root) -> np.ndarray:
    """Stack every sample's PGM into one (n, h, w) array in [0, 1].

    Each image is copied into the array as soon as it is read, so that no
    list of n small arrays outlives the loop: it fragments the heap, and
    peak RSS creeps up over repeated loads in one process.
    """
    if len(dataset) == 0:
        return np.zeros((0, 0, 0))
    images = None
    shapes = set()
    for i, sample in enumerate(dataset):
        image = read_pgm(os.path.join(root, sample.image_ref))
        if images is None:
            images = np.empty((len(dataset),) + image.shape)
        shapes.add(image.shape)
        if len(shapes) == 1:
            images[i] = image
    if len(shapes) != 1:
        raise DataError(f"images disagree on dimensions: {sorted(shapes)}")
    return images


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

