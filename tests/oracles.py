"""Independent value oracles for the loss and PGM tests.

Plain per-definition forms of the cross entropy and the symmetric KL.  The
package computes these terms only inside its *_grad functions; the tests
compare those values against these oracles, check the gradients by finite
differences of the oracles, and hold criterion 2's hand values.  ccc is
the concordance of one dimension, and the concordance loss has a
per-dimension reference built on it, which the package's two-column
concordance must match bit for bit.
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
forward_with_cache and backward are the model pass that keeps every
pre-activation in its cache and takes each rectifier's mask from it; the
package's pass, which keeps post-activations only, must return the same
outputs and gradients bit for bit.
view_uniforms hashes each draw in Python ints with _splitmix_int, the
reference for the package's hash over uint64 arrays.  rotate_bilinear
allocates a fresh array at every step, the reference for the package's
rotation, which writes its passes into arrays it already holds.
weak_view and strong_view build one image's views at a time: np.pad,
crop and flip, then that image's ops in its own order with scalar
parameters and its own cutout box, rotation through rotate_bilinear on
that image alone.  The package's batch views must match them bit for bit.
LEVEL_PIXELS is the table of the 256 levels' pixels, k / 255.0, that the
package's level_pixels must match.  update_class_stats selects each class's
hits with its own mask, the reference for the package's one sort of the
hit rows by class.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from affectmtl.augmentation import (
    _GOLDEN,
    _MIX1,
    _MIX2,
    _U64_MASK,
    BRIGHTNESS,
    BRIGHTNESS_DRAW,
    CONTRAST,
    CONTRAST_DRAW,
    CROP_LEFT,
    CROP_TOP,
    CUTOUT_DRAWS,
    FLIP,
    OP_ORDER,
    ROTATION,
    ROTATION_DRAW,
    STRONG_OP_NAMES,
)
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
from affectmtl.errors import DataError, DivergenceError
from affectmtl.losses import PROB_FLOOR
from affectmtl.network import (
    _AU_FIELDS,
    _EXP_FIELDS,
    _VA_FIELDS,
    FEATURE_NORM_EPS,
    Params,
)


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


@dataclass(frozen=True)
class CccTerms:
    s_xy: float
    s_x2: float
    s_y2: float
    mean_x: float
    mean_y: float
    rho: float


def ccc(x: np.ndarray, y: np.ndarray) -> CccTerms:
    """Concordance correlation with population (1/n) moments.

    rho = 2*cov / (var_x + var_y + (mean_x - mean_y)^2); a zero denominator
    (both inputs constant with equal values) yields rho = 0 by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"concordance needs equal-length vectors, got {x.shape}, {y.shape}")
    if len(x) < 2:
        raise DataError(f"concordance needs at least 2 points, got {len(x)}")
    mean_x, mean_y = float(x.mean()), float(y.mean())
    dx, dy = x - mean_x, y - mean_y
    s_xy = float(np.mean(dx * dy))
    s_x2 = float(np.mean(dx * dx))
    s_y2 = float(np.mean(dy * dy))
    denom = s_x2 + s_y2 + (mean_x - mean_y) ** 2
    rho = 0.0 if denom == 0.0 else 2.0 * s_xy / denom
    return CccTerms(s_xy=s_xy, s_x2=s_x2, s_y2=s_y2, mean_x=mean_x, mean_y=mean_y, rho=rho)


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
    pred_va: np.ndarray, gold_va: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean of (1 - rho) over valence and arousal, each through ccc."""
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


# LEVEL_PIXELS[k] is level k's pixel value, k / 255.0; read-only.  The
# package's level_pixels must read every level as this table does.
LEVEL_PIXELS = np.arange(256) / 255.0
LEVEL_PIXELS.flags.writeable = False

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


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """Every intermediate of the forward pass, pre-activations included."""

    x: np.ndarray
    a1: np.ndarray
    h1: np.ndarray
    z2: np.ndarray
    norm: np.ndarray
    features: np.ndarray
    a_exp: np.ndarray
    h_exp: np.ndarray
    exp_logits: np.ndarray
    au_logits: np.ndarray
    a_va: np.ndarray
    h_va: np.ndarray
    va: np.ndarray


def forward_with_cache(params: Params, images: np.ndarray) -> ForwardCache:
    """The model on a (n, h, w) image batch, one fresh array per step."""
    n = images.shape[0]
    x = images.reshape(n, -1)
    if x.shape[1] != params.w1.shape[0]:
        raise DataError(
            f"image size {x.shape[1]} does not match model input {params.w1.shape[0]}"
        )
    a1 = x @ params.w1 + params.b1
    h1 = np.maximum(a1, 0.0)
    z2 = h1 @ params.w2 + params.b2
    norm = np.sqrt(np.sum(z2 * z2, axis=1) + FEATURE_NORM_EPS)
    features = z2 / norm[:, None]

    a_exp = features @ params.w_exp1 + params.b_exp1
    h_exp = np.maximum(a_exp, 0.0)
    exp_logits = h_exp @ params.w_exp2 + params.b_exp2

    au_logits = features @ params.w_au + params.b_au

    a_va = features @ params.w_va1 + params.b_va1
    h_va = np.maximum(a_va, 0.0)
    va = np.tanh(h_va @ params.w_va2 + params.b_va2)

    for name, arr in (
        ("features", features),
        ("expression logits", exp_logits),
        ("action-unit logits", au_logits),
        ("valence-arousal output", va),
    ):
        if not np.isfinite(arr).all():
            raise DivergenceError(f"non-finite {name} in forward pass")
    return ForwardCache(
        x=x, a1=a1, h1=h1, z2=z2, norm=norm, features=features,
        a_exp=a_exp, h_exp=h_exp, exp_logits=exp_logits,
        au_logits=au_logits, a_va=a_va, h_va=h_va, va=va,
    )


def backward(
    params: Params,
    cache: ForwardCache,
    d_exp_logits: np.ndarray | None = None,
    d_au_logits: np.ndarray | None = None,
    d_va: np.ndarray | None = None,
) -> Params:
    """Gradients given the head-output gradients; each rectifier's mask is
    its pre-activation > 0."""
    grads = Params.wrap(np.empty_like(params.flat), params)
    for upstream, head_fields in (
        (d_exp_logits, _EXP_FIELDS), (d_au_logits, _AU_FIELDS), (d_va, _VA_FIELDS)
    ):
        if upstream is None:
            for name in head_fields:
                getattr(grads, name).fill(0.0)
    d_features = np.zeros_like(cache.features)

    if d_exp_logits is not None:
        np.matmul(cache.h_exp.T, d_exp_logits, out=grads.w_exp2)
        d_exp_logits.sum(axis=0, out=grads.b_exp2)
        d_h_exp = d_exp_logits @ params.w_exp2.T
        d_a_exp = d_h_exp * (cache.a_exp > 0)
        np.matmul(cache.features.T, d_a_exp, out=grads.w_exp1)
        d_a_exp.sum(axis=0, out=grads.b_exp1)
        d_features += d_a_exp @ params.w_exp1.T

    if d_au_logits is not None:
        np.matmul(cache.features.T, d_au_logits, out=grads.w_au)
        d_au_logits.sum(axis=0, out=grads.b_au)
        d_features += d_au_logits @ params.w_au.T

    if d_va is not None:
        d_va_pre = d_va * (1.0 - cache.va * cache.va)
        np.matmul(cache.h_va.T, d_va_pre, out=grads.w_va2)
        d_va_pre.sum(axis=0, out=grads.b_va2)
        d_h_va = d_va_pre @ params.w_va2.T
        d_a_va = d_h_va * (cache.a_va > 0)
        np.matmul(cache.features.T, d_a_va, out=grads.w_va1)
        d_a_va.sum(axis=0, out=grads.b_va1)
        d_features += d_a_va @ params.w_va1.T

    inv_norm = 1.0 / cache.norm
    dot = np.sum(d_features * cache.z2, axis=1)
    d_z2 = d_features * inv_norm[:, None] - cache.z2 * (dot * inv_norm**3)[:, None]

    np.matmul(cache.h1.T, d_z2, out=grads.w2)
    d_z2.sum(axis=0, out=grads.b2)
    d_h1 = d_z2 @ params.w2.T
    d_a1 = d_h1 * (cache.a1 > 0)
    np.matmul(cache.x.T, d_a1, out=grads.w1)
    d_a1.sum(axis=0, out=grads.b1)
    return grads


def _splitmix_int(z: int) -> int:
    """One splitmix64 step on a Python int in [0, 2**64)."""
    z = (z + _GOLDEN) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _U64_MASK
    return z ^ (z >> 31)


def view_uniforms(seed: int, epoch: int, sample_indices, view: int, count: int) -> np.ndarray:
    """The package's view_uniforms, one draw at a time in Python ints."""
    prefix = _splitmix_int(_splitmix_int(seed & _U64_MASK) ^ (epoch & _U64_MASK))
    rows = []
    for index in sample_indices:
        key = _splitmix_int(_splitmix_int(prefix ^ (int(index) & _U64_MASK)) ^ view)
        rows.append([(_splitmix_int(key ^ d) >> 11) * 2.0**-53 for d in range(count)])
    return np.array(rows, dtype=np.float64).reshape(len(rows), count)


def rotate_bilinear(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """The package's rotate_bilinear as it was before its passes wrote into
    arrays it already holds: every coordinate, weight and blend step makes a
    fresh array.  The in-place form must return the same bytes."""
    n, height, width = images.shape
    theta = [math.radians(float(d)) for d in degrees]
    cos_t = np.array([math.cos(t) for t in theta]).reshape(-1, 1, 1)
    sin_t = np.array([math.sin(t) for t in theta]).reshape(-1, 1, 1)
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    dy = (np.arange(height, dtype=np.float64) - cy)[None, :, None]
    dx = (np.arange(width, dtype=np.float64) - cx)[None, None, :]
    src_y = cos_t * dy + sin_t * dx + cy
    src_x = -sin_t * dy + cos_t * dx + cx
    y0 = np.floor(src_y)
    x0 = np.floor(src_x)
    wy = src_y - y0
    wx = src_x - x0
    top = np.minimum(np.maximum(y0, -2.0), float(height)).astype(np.int64)
    left = np.minimum(np.maximum(x0, -2.0), float(width)).astype(np.int64)
    stride = width + 4
    bordered = np.zeros((n, height + 4, stride))
    bordered[:, 2:-2, 2:-2] = images
    bordered = bordered.reshape(-1)
    origin = (np.arange(n) * (height + 4) + 2) * stride + 2
    corner = top * stride + left + origin[:, None, None]
    wx_left = 1 - wx
    upper = wx_left * bordered[corner] + wx * bordered[1:][corner]
    lower = wx_left * bordered[stride:][corner] + wx * bordered[stride + 1 :][corner]
    return (1 - wy) * upper + wy * lower


def _below(u: float, count: int) -> int:
    """An integer uniform on 0..count-1 from one uniform u."""
    return min(int(u * count), count - 1)


def weak_view(image: np.ndarray, draw: np.ndarray, config) -> np.ndarray:
    """np.pad the image, crop it back to size at the drawn offsets, and flip
    it left to right if drawn."""
    height, width = image.shape
    pad = config.crop_padding
    top = _below(draw[CROP_TOP], 2 * pad + 1)
    left = _below(draw[CROP_LEFT], 2 * pad + 1)
    crop = np.pad(image, pad, mode="reflect")[top : top + height, left : left + width]
    return crop[:, ::-1] if draw[FLIP] < config.flip_prob else crop


def strong_view(image: np.ndarray, draw: np.ndarray, config) -> np.ndarray:
    """The weak view, then the first strong_ops_per_image ops in the order
    of their draws, then a clip to [0, 1]."""
    height, width = image.shape
    view = np.array(weak_view(image, draw, config), dtype=np.float64)
    ops = sorted(range(len(STRONG_OP_NAMES)), key=lambda op: draw[OP_ORDER.start + op])
    for op in ops[: config.strong_ops_per_image]:
        if op == BRIGHTNESS:
            view = view + config.brightness_delta * (2.0 * draw[BRIGHTNESS_DRAW] - 1.0)
        elif op == CONTRAST:
            span = config.contrast_high - config.contrast_low
            view = 0.5 + (config.contrast_low + span * draw[CONTRAST_DRAW]) * (view - 0.5)
        elif op == ROTATION:
            angle = config.rotation_max_deg * (2.0 * draw[ROTATION_DRAW] - 1.0)
            view = rotate_bilinear(view[None], [angle])[0]
        else:
            u_height, u_width, u_top, u_left = draw[CUTOUT_DRAWS]
            side = math.sqrt(config.cutout_max_frac)
            cap_h, cap_w = int(height * side), int(width * side)
            cut_h = min(1 + _below(u_height, max(1, cap_h)), cap_h)
            cut_w = min(1 + _below(u_width, max(1, cap_w)), cap_w)
            top = _below(u_top, height - cut_h + 1)
            left = _below(u_left, width - cut_w + 1)
            view[top : top + cut_h, left : left + cut_w] = 0.0
    return np.clip(view, 0.0, 1.0)


def update_class_stats(mean_prob, weak_probs, gold_labels, mask, momentum=0.9):
    """The per-class statistics update as one masked selection per class:
    the hits of class c are the masked-in rows whose gold label and argmax
    are both c, and their batch mean is the sum of that selection."""
    idx = mask.nonzero()[0]
    if len(idx) == 0:
        return mean_prob
    gold_labels = np.asarray(gold_labels)[idx]
    weak_probs = np.asarray(weak_probs)[idx]
    if gold_labels.min() < 0 or gold_labels.max() >= N_EXPRESSION_CLASSES:
        raise DataError(f"gold labels outside [0, {N_EXPRESSION_CLASSES})")
    correct = weak_probs.argmax(axis=1) == gold_labels
    mean_prob = mean_prob.copy()
    for c in range(N_EXPRESSION_CLASSES):
        hits = correct & (gold_labels == c)
        if hits.any():
            hit_probs = weak_probs[hits, c]
            batch_mean = float(np.add.reduce(hit_probs) / len(hit_probs))
            mean_prob[c] = momentum * mean_prob[c] + (1.0 - momentum) * batch_mean
    return mean_prob
