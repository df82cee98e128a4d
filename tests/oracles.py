"""Independent value oracles for the loss and PGM tests.

Plain per-definition forms of the cross entropy and the symmetric KL.  The
package computes these terms only inside its *_grad functions; the tests
compare those values against these oracles, check the gradients by finite
differences of the oracles, and hold criterion 2's hand values.  The
concordance loss has a per-dimension reference built on the package's
ccc, which the package's two-dimension pass must match bit for bit.
read_pgm is a byte-at-a-time header tokenizer that the package's
regex-based reader must match in every array and every error message;
write_pgm quantizes with np.clip and writes through a FileIO opened in
place, and the package's descriptor-level writer must leave the same bytes.
The record layer the package's columnar Dataset replaced stays here as
the reference for it: one AnnotationSet record per sample, which checks
its labels' invariants when built, a parser that builds one per manifest
row and stops at the first bad row, the serializer that writes records,
and record_columns, which decodes records into columns and masks one
value at a time.  generate_synthetic is the per-sample loop, with
Generator.choice for the class, that builds those records; the package's
whole-array passes must match it bit for bit.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from affectmtl.data_model import (
    _AU_PATTERN,
    _VA_CENTERS,
    LABEL_SENTINEL,
    MANIFEST_COLUMNS,
    N_ACTION_UNITS,
    N_EXPRESSION_CLASSES,
    VA_SENTINEL,
    SynthConfig,
    class_template,
)
from affectmtl.errors import DataError
from affectmtl.losses import PROB_FLOOR, ccc


def weighted_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, class_weights: np.ndarray
) -> float:
    """Mean over rows of class_weights[label] * (-log softmax(logits)[label])."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = logp[np.arange(len(labels)), labels]
    return float(np.mean(-np.asarray(class_weights)[labels] * picked))


def _floor_normalize(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Clamp below at PROB_FLOOR and renormalize; returns (p', active, sum)."""
    floored = np.maximum(p, PROB_FLOOR)
    total = float(floored.sum())
    return floored / total, p > PROB_FLOOR, total


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p||q) + KL(q||p) after flooring both at 1e-8 and renormalizing."""
    pn, _, _ = _floor_normalize(np.asarray(p, dtype=np.float64))
    qn, _, _ = _floor_normalize(np.asarray(q, dtype=np.float64))
    log_ratio = np.log(pn) - np.log(qn)
    return float(np.sum(pn * log_ratio) - np.sum(qn * log_ratio))


def symmetric_kl_grad(p: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """symmetric_kl with its gradients with respect to p and q."""
    pn, p_active, p_sum = _floor_normalize(np.asarray(p, dtype=np.float64))
    qn, q_active, q_sum = _floor_normalize(np.asarray(q, dtype=np.float64))
    log_ratio = np.log(pn) - np.log(qn)
    value = float(np.sum(pn * log_ratio) - np.sum(qn * log_ratio))
    # d/dp' of [sum p' log(p'/q') + sum q' log(q'/p')]
    g_p = log_ratio + 1.0 - qn / pn
    g_q = -log_ratio + 1.0 - pn / qn
    # Through renormalization x' = max(x, floor) / sum: entries at the floor
    # are locally constant in x.
    d_p = p_active * (g_p - float(np.sum(g_p * pn))) / p_sum
    d_q = q_active * (g_q - float(np.sum(g_q * qn))) / q_sum
    return value, d_p, d_q


def _ccc_rho_grad(pred: np.ndarray, gold: np.ndarray) -> tuple[float, np.ndarray]:
    """rho and its gradient with respect to pred, one dimension at a time."""
    terms = ccc(pred, gold)
    n = len(pred)
    denom = terms.s_x2 + terms.s_y2 + (terms.mean_x - terms.mean_y) ** 2
    if denom == 0.0:
        return 0.0, np.zeros_like(pred, dtype=np.float64)
    scale = 2.0 / (n * denom)
    # A subnormal denominator overflows the scale: rho stands, the gradient is 0.
    if math.isinf(scale):
        return terms.rho, np.zeros_like(pred, dtype=np.float64)
    d_pred = pred - terms.mean_x
    d_gold = gold - terms.mean_y
    mean_diff = terms.mean_x - terms.mean_y
    grad = scale * (d_gold - terms.rho * (d_pred + mean_diff))
    return terms.rho, grad


def ccc_loss_grad(
    pred_va: np.ndarray, gold_va: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean of (1 - rho) over valence and arousal, each through ccc."""
    if mask is None:
        mask = np.ones(pred_va.shape[0], dtype=bool)
    idx = np.flatnonzero(mask)
    d_pred = np.zeros_like(pred_va, dtype=np.float64)
    if len(idx) < 2:
        return 0.0, d_pred
    total = 0.0
    for dim in range(2):
        rho, grad = _ccc_rho_grad(pred_va[idx, dim], gold_va[idx, dim])
        total += 1.0 - rho
        d_pred[idx, dim] = -grad / 2.0
    return total / 2.0, d_pred


_PGM_WHITESPACE = b" \t\r\n"


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float array in [0, 1], one header byte at a time."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _pgm_token(data, 0, path)
    if magic != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _pgm_token(data, pos, path)
        try:
            fields.append(int(tok))
        except ValueError:
            raise DataError(f"{path}: bad {name} field {tok!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte separates the header from the payload
    payload = data[pos:]
    if len(payload) != width * height:
        raise DataError(
            f"{path}: expected {width * height} bytes of pixel data, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return pixels.astype(np.float64) / 255.0


def _open_in_place(path, flags):
    """open()'s own flags and mode, without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d float image as a binary PGM through a FileIO, overwriting
    in place and cutting the file only if it was longer."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DataError(f"expected a 2-d image, got shape {image.shape}")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    data = memoryview(b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes())
    size = len(data)
    with open(path, "wb", buffering=0, opener=_open_in_place) as fh:
        while data:
            data = data[fh.write(data):]
        if os.fstat(fh.fileno()).st_size > size:
            fh.truncate(size)


def _pgm_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    """The next header field at or after pos, skipping whitespace and
    comments ("#" to the end of the line), and the position after it."""
    while pos < len(data):
        char = data[pos]
        if char in _PGM_WHITESPACE:
            pos += 1
        elif char == ord("#"):
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in _PGM_WHITESPACE:
        pos += 1
    if start == pos:
        raise DataError(f"{path}: unexpected end of PGM header")
    return data[start:pos], pos


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


def parse_manifest(text: str) -> tuple[Sample, ...]:
    """One record per row, each row parsed and checked before the next."""
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
    return tuple(samples)


def _parse_int(field: str) -> int:
    field = field.strip()
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"not an integer: {field!r}") from None


def serialize_manifest(samples) -> str:
    lines = [",".join(MANIFEST_COLUMNS)]
    for sample in samples:
        ann = sample.annotations
        fields = [
            sample.image_ref,
            repr(float(ann.valence)),
            repr(float(ann.arousal)),
            str(ann.expression),
        ] + [str(unit) for unit in ann.action_units]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def record_columns(samples) -> dict:
    """The records' paths, and each label column and mask as (dtype name,
    nested list), decoded one value at a time; conftest.columns gives a
    Dataset's in the same form."""
    anns = [s.annotations for s in samples]
    return {
        "image_refs": tuple(s.image_ref for s in samples),
        "gold_exp": ("int64", [int(a.expression) for a in anns]),
        "gold_au": ("int64", [[int(u) for u in a.action_units] for a in anns]),
        "gold_va": ("float64", [[float(a.valence), float(a.arousal)] for a in anns]),
        "exp_valid": ("bool", [a.expression != LABEL_SENTINEL for a in anns]),
        "au_valid": ("bool", [LABEL_SENTINEL not in a.action_units for a in anns]),
        "va_valid": ("bool", [a.valence != VA_SENTINEL for a in anns]),
    }


def generate_synthetic(config: SynthConfig, seed: int, prefix: str = "sample"):
    """One sample at a time: draw, then build its image and its record."""
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
        samples.append(Sample(f"images/{prefix}_{i:05d}.pgm", annotations))
    return tuple(samples), images
