"""Datasets of samples with possibly-missing multi-task labels.

A sample carries up to three annotations: a valence/arousal pair in [-1, 1],
an expression class in {0..7}, and twelve binary action units.  Missing
annotations are marked with sentinels (-5 for valence/arousal, -1 for
expression and action units) and always jointly: valence and arousal are
missing together, and either all twelve action units are present or none is.

A Dataset is one columnar table: the image paths plus the label arrays of
LabelArrays, which dataset statistics, training batches and scoring all
read.  Only this module reads sentinels: building a Dataset checks their
invariants in whole-array passes and decodes them into per-task validity
masks.  This module also parses/serializes the manifest CSV, derives
imbalance weights, and synthesizes seeded desk-scale datasets that stand
in for real affect imagery.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
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


@dataclass(frozen=True, eq=False)
class Dataset(LabelArrays):
    """An ordered table of samples: unique image paths and their labels.

    Built from the three label columns, which may be arrays of any integer
    (gold_exp, gold_au) or float (gold_va) type that casts safely to int64
    or float64 and are stored as such; the validity masks are derived.
    A column of another type or shape, a row that breaks a label invariant
    (see _first_label_error) or a repeated image path raises DataError.
    """

    exp_valid: np.ndarray = field(init=False)
    au_valid: np.ndarray = field(init=False)
    va_valid: np.ndarray = field(init=False)
    image_refs: tuple[str, ...]

    def __post_init__(self):
        refs = tuple(self.image_refs)
        n = len(refs)
        for name, what, kinds, dtype, shape in (
            ("gold_exp", "integers", "iu", np.int64, (n,)),
            ("gold_au", "integers", "iu", np.int64, (n, N_ACTION_UNITS)),
            ("gold_va", "floats", "f", np.float64, (n, 2)),
        ):
            column = getattr(self, name)
            # Bool is not an integer type here, and uint64 does not fit int64.
            if not (isinstance(column, np.ndarray) and column.dtype.kind in kinds
                    and np.can_cast(column.dtype, dtype)):
                given = getattr(column, "dtype", type(column).__name__)
                raise DataError(f"{name} must be an array of {what}, got {given}")
            if column.shape != shape:
                raise DataError(
                    f"{name} must have shape {shape} for {n} image paths, got {column.shape}"
                )
            object.__setattr__(self, name, column.astype(dtype, copy=False))
        error = _first_label_error(self.gold_exp, self.gold_au, self.gold_va)
        if error is not None:
            raise DataError(f"sample {error[0]}: {error[1]}")
        if len(set(refs)) != n:
            seen = set()  # the first path that repeats an earlier one:
            repeat = next(ref for ref in refs if ref in seen or seen.add(ref))
            raise DataError(f"duplicate image path: {repeat}")
        object.__setattr__(self, "image_refs", refs)
        object.__setattr__(self, "exp_valid", self.gold_exp != LABEL_SENTINEL)
        # The units are missing jointly, so one column decides.
        object.__setattr__(self, "au_valid", self.gold_au[:, 0] != LABEL_SENTINEL)
        object.__setattr__(self, "va_valid", self.gold_va[:, 0] != VA_SENTINEL)

    def __len__(self) -> int:
        return len(self.image_refs)


def _first_label_error(gold_exp, gold_au, gold_va) -> tuple[int, str] | None:
    """(index, message) of the first row that breaks a label invariant, or None.

    A row reports the first check it fails, in this order: valence and
    arousal missing jointly; both in [-1, 1] when present (NaN is not); the
    expression a class or the sentinel; the units missing jointly; each
    unit 0, 1 or the sentinel.  Object arrays of Python ints work too.
    """
    va_missing = gold_va[:, 0] == VA_SENTINEL
    au_missing = gold_au == LABEL_SENTINEL
    bad = np.stack([
        va_missing != (gold_va[:, 1] == VA_SENTINEL),
        ~va_missing & ~((-1.0 <= gold_va) & (gold_va <= 1.0)).all(axis=1),
        (gold_exp != LABEL_SENTINEL)
        & ((gold_exp < 0) | (gold_exp >= N_EXPRESSION_CLASSES)),
        au_missing.any(axis=1) & ~au_missing.all(axis=1),
        ~(au_missing | (gold_au == 0) | (gold_au == 1)).all(axis=1),
    ])
    rows = bad.any(axis=0)
    if not rows.any():
        return None
    i = int(rows.argmax())
    valence, arousal = gold_va[i].tolist()
    messages = (
        "valence and arousal must be missing jointly",
        f"valence/arousal outside [-1, 1]: ({valence}, {arousal})",
        f"expression label out of range: {gold_exp[i]}",
        "action units must be missing jointly",
        f"action unit values must be 0/1/{LABEL_SENTINEL}",
    )
    return i, messages[int(bad[:, i].argmax())]


def parse_manifest(text: str) -> Dataset:
    """Parse manifest CSV text into a Dataset.

    The format is a fixed 16-column CSV with a mandatory header row; see
    MANIFEST_COLUMNS.  The first bad row raises DataError naming its
    1-based line number (the header is line 1): each row's fields parse
    with float and int, and the labels of the rows parsed are checked
    together afterwards, so a bad label wins over a later parse failure.
    """
    lines = text.splitlines()
    if not lines:
        raise DataError("row 1: missing header")
    expected_header = ",".join(MANIFEST_COLUMNS)
    if lines[0].strip() != expected_header:
        raise DataError(f"row 1: bad header, expected {expected_header!r}")
    refs = {}  # the paths in order, and the set of paths seen
    va, ints = [], []  # ints holds each row's expression, then its units
    failure = None
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            image_ref, valence, arousal, labels = _parse_row(line, refs)
        except ValueError as exc:  # DataError included
            failure = f"row {lineno}: {exc}"
            break
        refs[image_ref] = None
        va += valence, arousal
        ints += labels
    try:
        table = np.array(ints, dtype=np.int64).reshape(-1, 1 + N_ACTION_UNITS)
    except OverflowError:
        # A label beyond int64 fails a check below, which keeps its value.
        table = np.array(ints, dtype=object).reshape(-1, 1 + N_ACTION_UNITS)
    gold_exp, gold_au = table[:, 0].copy(), table[:, 1:].copy()
    gold_va = np.array(va, dtype=np.float64).reshape(-1, 2)
    error = _first_label_error(gold_exp, gold_au, gold_va)
    if error is not None:
        raise DataError(f"row {error[0] + 2}: {error[1]}")
    if failure is not None:
        raise DataError(failure)
    return Dataset(gold_exp=gold_exp, gold_au=gold_au, gold_va=gold_va, image_refs=tuple(refs))


def _parse_row(line: str, seen) -> tuple[str, float, float, list[int]]:
    """A row's new image path (not in seen), valence, arousal and labels."""
    fields = line.split(",")
    if len(fields) != len(MANIFEST_COLUMNS):
        raise DataError(f"expected {len(MANIFEST_COLUMNS)} columns, got {len(fields)}")
    image_ref = fields[0].strip()
    if not image_ref:
        raise DataError("empty image path")
    if "\0" in image_ref:
        raise DataError("NUL byte in image path")
    if image_ref in seen:
        raise DataError(f"duplicate image path {image_ref!r}")
    valence, arousal = float(fields[1]), float(fields[2])
    try:
        labels = list(map(int, fields[3:]))
    except ValueError:
        # A bad field, which _parse_int names, or one that int() takes only
        # once stripped: it keeps ASCII \x1c-\x1f, which str.strip removes.
        labels = list(map(_parse_int, fields[3:]))
    return image_ref, valence, arousal, labels


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
    for image_ref, (valence, arousal), expression, units in zip(
        dataset.image_refs,
        dataset.gold_va.tolist(),
        dataset.gold_exp.tolist(),
        dataset.gold_au.tolist(),
    ):
        lines.append(
            ",".join([image_ref, repr(valence), repr(arousal), str(expression), *map(str, units)])
        )
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


def dataset_stats(labels: LabelArrays) -> DatasetStats:
    """Counts of valid annotations per task, class, and unit."""
    total = len(labels.gold_exp)
    exp_valid = int(np.count_nonzero(labels.exp_valid))
    au_valid = int(np.count_nonzero(labels.au_valid))
    va_valid = int(np.count_nonzero(labels.va_valid))
    exp_counts = np.bincount(
        labels.gold_exp[labels.exp_valid], minlength=N_EXPRESSION_CLASSES
    )
    # Masked, not copied: an n x 12 int64 copy of the valid rows would be
    # the largest transient of packing a split.
    au_pos = np.count_nonzero((labels.gold_au == 1) & labels.au_valid[:, None], axis=0)
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

# Images per block of float noise in generate_synthetic.
_CHUNK_ROWS = 64


@dataclass(frozen=True)
class SynthKnobs:
    """The knobs SynthConfig and config.SynthFileConfig share, and their checks."""

    image_size: int = 16
    exp_mask_rate: float = 0.4
    va_mask_rate: float = 0.2
    au_mask_rate: float = 0.2
    pixel_noise: float = 0.35
    va_noise: float = 0.05
    template_contrast: float = 0.3
    au_flip_prob: float = 0.05

    def __post_init__(self):
        if self.image_size < 4:
            raise ConfigError(f"image_size must be >= 4, got {self.image_size}")
        for name in ("exp_mask_rate", "va_mask_rate", "au_mask_rate", "au_flip_prob"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {rate}")
        for name in ("pixel_noise", "va_noise", "template_contrast"):
            value = getattr(self, name)
            # signbit also rejects -0.0, which numpy refuses as a noise scale.
            if np.signbit(value) or not np.isfinite(value):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class SynthConfig(SynthKnobs):
    """Knobs for one synthetic dataset (one manifest's worth of samples)."""

    count: int = 2000
    class_priors: tuple[float, ...] = UNIFORM_PRIORS

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        super().__post_init__()
        check_class_priors("class_priors", self.class_priors)


def check_class_priors(key: str, priors: tuple[float, ...]) -> None:
    """ConfigError naming key unless priors are 8 weights >= 0, sum finite and > 0."""
    if len(priors) != N_EXPRESSION_CLASSES:
        raise ConfigError(f"{key} must have 8 entries")
    weights = np.asarray(priors, dtype=np.float64)
    with np.errstate(over="ignore"):
        total = weights.sum()
    # generate_synthetic normalizes by this same sum; NaN fails ">= 0".
    if not (np.all(weights >= 0) and 0 < total < np.inf):
        raise ConfigError(f"{key} must be non-negative with a finite sum > 0, got {priors}")


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

    Returns the Dataset plus its images as a (count, size, size) uint8
    array of 8-bit levels, the bytes a written PGM holds: each pixel is
    clipped to [0, 1], scaled by 255 and rounded to its level.  Masking
    replaces labels with sentinels at the configured rates, always jointly
    for valence/arousal and for the action units.

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

    Only the draws run per sample.  The images are built a block of
    _CHUNK_ROWS samples at a time, as soon as the loop has drawn the
    block, so the float noise never outlives its block; valence/arousal,
    flips and masks are whole-array passes over the draws afterwards.

    The loop makes these draws with three calls per sample that fill
    preallocated arrays in place, and they take the same stream:
    normal(0.0, scale) is 0.0 + scale * z, element by element, for the
    standard normals z that standard_normal draws, so the noise is drawn
    unscaled and scaled afterwards; and draw 4 of one sample and draw 1 of
    the next are consecutive doubles, so one random(out=...) call takes
    both.  Row i of the draw table holds sample i's class draw, then its
    fifteen others, so a block's classes are known once its last sample's
    draws are.  normal's + 0.0 only turns a -0.0 into 0.0, so no pass
    repeats it: the next thing added to the noise is a class template
    (0.5 + contrast * wave) or a valence/arousal centre, neither is ever
    -0.0, and adding any other value to -0.0 or to 0.0 gives the same sum.
    """
    rng = np.random.default_rng(seed)
    n, size = config.count, config.image_size
    p = np.asarray(config.class_priors, dtype=np.float64)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    templates = np.stack([
        class_template(c, size, config.template_contrast)
        for c in range(N_EXPRESSION_CLASSES)
    ])
    stride = 1 + N_ACTION_UNITS + 3
    draws = np.empty((n, stride))
    labels = np.empty(n, dtype=np.intp)
    images = np.empty((n, size, size), dtype=np.uint8)
    noise = np.empty((min(n, _CHUNK_ROWS), size, size))
    va = np.empty((n, 2))
    flat = draws.reshape(-1)
    random, standard_normal = rng.random, rng.standard_normal
    if n:
        flat[0] = random()
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        rows, block = slice(start, stop), noise[: stop - start]
        for i in range(start, stop):
            standard_normal(out=block[i - start])
            standard_normal(out=va[i])
            # Sample i's fifteen draws and sample i + 1's class draw; the
            # last sample's slice ends with the table, after its fifteen.
            random(out=flat[i * stride + 1:(i + 1) * stride + 1])
        labels[rows] = cdf.searchsorted(draws[rows, 0], side="right")
        block *= config.pixel_noise
        block += templates[labels[rows]]
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        np.rint(block, out=block)
        np.copyto(images[rows], block, casting="unsafe")  # exact: each is a level
    va *= config.va_noise
    flips = draws[:, 1:1 + N_ACTION_UNITS] < config.au_flip_prob
    rates = (config.exp_mask_rate, config.va_mask_rate, config.au_mask_rate)
    masked_exp, masked_va, masked_au = (draws[:, 1 + N_ACTION_UNITS:] < rates).T
    del draws, flat, noise  # the largest transients: freed before the label passes

    va += _VA_CENTERS[labels]
    np.clip(va, -1.0, 1.0, out=va)
    va[masked_va] = VA_SENTINEL
    expression = np.where(masked_exp, LABEL_SENTINEL, labels)
    units = (_AU_PATTERN[labels] ^ flips).astype(np.int64)
    units[masked_au] = LABEL_SENTINEL
    refs = tuple(f"images/{prefix}_{i:05d}.pgm" for i in range(n))
    return Dataset(gold_exp=expression, gold_au=units, gold_va=va, image_refs=refs), images


def write_dataset(root, manifest_name: str, dataset: Dataset, images: np.ndarray) -> None:
    """Write manifest + one PGM per sample under root, from images' (n, h, w)
    uint8 levels.

    The images overwrite existing files in place (see write_pgm), so a
    failed write can leave a mix of old and new images.  The manifest is
    what makes the split whole: any old one is removed before the first
    image is written, and the new one is written last, atomically.  A
    split whose write did not finish therefore has no manifest, and
    loading it fails.
    """
    os.makedirs(root, exist_ok=True)
    manifest_path = os.path.join(root, manifest_name)
    try:
        os.remove(manifest_path)
    except FileNotFoundError:
        pass
    made = set()
    for image_ref, image in zip(dataset.image_refs, images):
        path = os.path.join(root, image_ref)
        directory = os.path.dirname(path)
        if directory not in made:
            os.makedirs(directory, exist_ok=True)
            made.add(directory)
        write_pgm(path, image)
    with atomic_open(manifest_path, encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_manifest(dataset))


def read_text(path, parse):
    """parse applied to the UTF-8 text of the file at path.  Bytes that are
    not UTF-8 raise DataError, and each DataError that parse raises comes
    back as the same class; both messages start with "<path>: "."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse(text)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_manifest(path) -> Dataset:
    return read_text(path, parse_manifest)


def load_images(dataset: Dataset, root) -> np.ndarray:
    """Stack every sample's PGM into one (n, h, w) uint8 array of levels.

    Each image is copied into the array as soon as it is read, so that no
    list of n small arrays outlives the loop: it fragments the heap, and
    peak RSS creeps up over repeated loads in one process.  The first image
    whose size differs from the first image's raises DataError naming both.
    """
    if len(dataset) == 0:
        return np.zeros((0, 0, 0), dtype=np.uint8)
    root = os.fspath(root)
    images = None
    for i, image_ref in enumerate(dataset.image_refs):
        path = os.path.join(root, image_ref)
        image = read_pgm(path)
        if images is None:
            images = np.empty((len(dataset),) + image.shape, dtype=np.uint8)
        elif image.shape != images.shape[1:]:
            first = os.path.join(root, dataset.image_refs[0])
            raise DataError(f"{path}: image is {image.shape} but {first} is {images.shape[1:]}")
        images[i] = image
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

