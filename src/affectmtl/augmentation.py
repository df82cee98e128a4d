"""Weak and strong image views, built for a whole batch in array code.

The weak view is pad-crop-flip; the strong view runs the same pipeline and
then applies distinct distortions drawn from a fixed menu in random order.
Every random draw is a counter-based hash of (seed, epoch, sample index,
view, draw number), the idea behind Philox (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) written with a splitmix64 finalizer.
A sample's views therefore depend only on its own key and pixels: they are
byte-identical however the samples are batched or ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

STRONG_OP_NAMES = ("brightness", "contrast", "rotation", "cutout")
BRIGHTNESS, CONTRAST, ROTATION, CUTOUT = range(len(STRONG_OP_NAMES))

WEAK_VIEW, STRONG_VIEW = 0, 1

# Draw slots of one view.  The weak view reads the first three; the strong
# view reads all of them, each op from its own slots whether picked or not.
CROP_TOP, CROP_LEFT, FLIP = 0, 1, 2
OP_ORDER = slice(3, 3 + len(STRONG_OP_NAMES))
BRIGHTNESS_DRAW, CONTRAST_DRAW, ROTATION_DRAW = 7, 8, 9
CUTOUT_DRAWS = slice(10, 14)  # height, width, top, left
WEAK_DRAWS, STRONG_DRAWS = 3, 14

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class AugConfig:
    crop_padding: int = 2
    flip_prob: float = 0.5
    strong_ops_per_image: int = 2
    brightness_delta: float = 0.3
    contrast_low: float = 0.6
    contrast_high: float = 1.4
    rotation_max_deg: float = 15.0
    cutout_max_frac: float = 0.25

    def __post_init__(self):
        if self.crop_padding < 0:
            raise ConfigError("crop_padding must be >= 0")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ConfigError("flip_prob must lie in [0, 1]")
        if not 1 <= self.strong_ops_per_image <= len(STRONG_OP_NAMES):
            raise ConfigError(
                f"strong_ops_per_image must lie in [1, {len(STRONG_OP_NAMES)}]"
            )
        if self.brightness_delta < 0:
            raise ConfigError("brightness_delta must be >= 0")
        if not 0.0 < self.contrast_low <= self.contrast_high:
            raise ConfigError("contrast range must satisfy 0 < low <= high")
        if self.rotation_max_deg < 0:
            raise ConfigError("rotation_max_deg must be >= 0")
        if not 0.0 <= self.cutout_max_frac <= 1.0:
            raise ConfigError("cutout_max_frac must lie in [0, 1]")


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64 step on a uint64 array; array ops wrap without warnings."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _splitmix_int(z: int) -> int:
    """The same splitmix64 step on a Python int in [0, 2**64)."""
    z = (z + _GOLDEN) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _U64_MASK
    return z ^ (z >> 31)


def view_uniforms(seed: int, epoch: int, sample_indices, view: int, count: int) -> np.ndarray:
    """(n, count) uniforms in [0, 1), one row per sample index.

    Draw d of a row hashes (seed, epoch, sample index, view, d); its top 53
    bits give a double with every value k / 2**53 equally likely.  The
    (seed, epoch) prefix is shared by every row and hashed in Python ints.
    """
    prefix = _splitmix_int(_splitmix_int(int(seed) & _U64_MASK) ^ (int(epoch) & _U64_MASK))
    key = _splitmix(
        np.uint64(prefix) ^ np.asarray(sample_indices, dtype=np.int64).astype(np.uint64)
    )
    key = _splitmix(key ^ np.uint64(view))
    bits = _splitmix(key[:, None] ^ np.arange(count, dtype=np.uint64))
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _below(u: np.ndarray, count) -> np.ndarray:
    """Integers uniform on 0..count-1 from uniforms u (count may vary by row)."""
    return np.minimum((u * count).astype(np.int64), np.asarray(count) - 1)


def reflect_map(size: int, pad: int) -> np.ndarray:
    """np.pad(np.arange(size), pad, mode="reflect"), without np.pad's overhead.

    Reflection that does not repeat the edge has period 2 * (size - 1), so
    any pad, even one wider than size, folds onto 0..size-1; a size-1 axis
    maps everything to 0.
    """
    index = np.arange(-pad, size + pad)
    if size == 1:
        return np.zeros_like(index)
    period = 2 * (size - 1)
    index %= period
    return np.minimum(index, period - index)


def weak_views(images: np.ndarray, draws: np.ndarray, config: AugConfig) -> np.ndarray:
    """Reflect-pad, crop back to size at each row's offsets, flip some rows.

    One gather serves the whole batch: the reflect padding is a map from
    padded to source coordinates, each row reads its own crop window
    through it, and the flip is folded into the column index.
    """
    n, height, width = images.shape
    pad = config.crop_padding
    row_map = reflect_map(height, pad)
    col_map = reflect_map(width, pad)
    top = _below(draws[:, CROP_TOP], 2 * pad + 1)
    left = _below(draws[:, CROP_LEFT], 2 * pad + 1)
    flip = draws[:, FLIP] < config.flip_prob
    cols = np.where(flip[:, None], np.arange(width - 1, -1, -1), np.arange(width))
    rows = np.arange(n)[:, None] * height + row_map[top[:, None] + np.arange(height)]
    index = rows[:, :, None] * width + col_map[left[:, None] + cols][:, None, :]
    return images.reshape(-1)[index]


def strong_op_order(draws: np.ndarray, config: AugConfig) -> np.ndarray:
    """(n, strong_ops_per_image) distinct op indices per row, in apply order.

    The argsort of independent uniforms is a uniformly random permutation;
    its first k entries are k distinct ops in random order.
    """
    return np.argsort(draws[:, OP_ORDER], axis=1, kind="stable")[
        :, : config.strong_ops_per_image
    ]


def strong_views(images: np.ndarray, draws: np.ndarray, config: AugConfig) -> np.ndarray:
    """Weak pipeline plus distinct distortions, clipped back to [0, 1].

    Op slot j applies, for each op, that op to the rows that picked it in
    slot j, so every row sees its ops in its own order.
    """
    out = weak_views(images, draws, config)
    order = strong_op_order(draws, config)
    delta = config.brightness_delta * (2.0 * draws[:, BRIGHTNESS_DRAW] - 1.0)
    factor = config.contrast_low + (config.contrast_high - config.contrast_low) * draws[
        :, CONTRAST_DRAW
    ]
    angle = config.rotation_max_deg * (2.0 * draws[:, ROTATION_DRAW] - 1.0)
    for slot in range(order.shape[1]):
        for op in range(len(STRONG_OP_NAMES)):
            rows = np.flatnonzero(order[:, slot] == op)
            if not len(rows):
                continue
            if op == BRIGHTNESS:
                out[rows] = out[rows] + delta[rows, None, None]
            elif op == CONTRAST:
                out[rows] = 0.5 + factor[rows, None, None] * (out[rows] - 0.5)
            elif op == ROTATION:
                out[rows] = rotate_bilinear(out[rows], angle[rows])
            else:
                out[rows] = cutout(out[rows], draws[rows, CUTOUT_DRAWS], config.cutout_max_frac)
    return np.clip(out, 0.0, 1.0)


def rotate_bilinear(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each image about its center by its angle; bilinear, fill 0.

    Source coordinates are computed for the whole (n, h, w) batch.  The
    batch gets a one-pixel zero border, so clipping a corner's index onto
    the border reads the fill; each of the four corners is one gather.
    """
    n, height, width = images.shape
    # libm per angle: a vectorised sin/cos may round differently in SIMD
    # lanes and loop tails, and a row's view must not depend on its batch.
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
    # Corner rows and columns in the bordered batch, out-of-range ones on the border.
    # np.minimum(np.maximum(...)) equals np.clip on integers and is cheaper.
    y_top = np.minimum(np.maximum(y0.astype(np.int64) + 1, 0), height + 1)
    y_bottom = np.minimum(np.maximum(y0.astype(np.int64) + 2, 0), height + 1)
    x_left = np.minimum(np.maximum(x0.astype(np.int64) + 1, 0), width + 1)
    x_right = np.minimum(np.maximum(x0.astype(np.int64) + 2, 0), width + 1)
    bordered = np.zeros((n, height + 2, width + 2))
    bordered[:, 1:-1, 1:-1] = images
    bordered = bordered.reshape(-1)
    base = np.arange(n).reshape(-1, 1, 1) * (height + 2)
    row_top = (base + y_top) * (width + 2)
    row_bottom = (base + y_bottom) * (width + 2)
    upper = (1 - wx) * bordered[row_top + x_left] + wx * bordered[row_top + x_right]
    lower = (1 - wx) * bordered[row_bottom + x_left] + wx * bordered[row_bottom + x_right]
    return (1 - wy) * upper + wy * lower


def cutout(images: np.ndarray, draws: np.ndarray, max_frac: float) -> np.ndarray:
    """Zero one box per image covering at most max_frac of its area.

    draws is (n, 4): box height, width, top and left, as uniforms.
    """
    _, height, width = images.shape
    # Capping each side at sqrt(max_frac) of its dimension bounds the area.
    side = math.sqrt(max_frac)
    cut_h = 1 + _below(draws[:, 0], max(1, int(height * side)))
    cut_w = 1 + _below(draws[:, 1], max(1, int(width * side)))
    top = _below(draws[:, 2], height - cut_h + 1)
    left = _below(draws[:, 3], width - cut_w + 1)
    ys = np.arange(height)[None, :, None]
    xs = np.arange(width)[None, None, :]
    box = (
        (ys >= top[:, None, None])
        & (ys < (top + cut_h)[:, None, None])
        & (xs >= left[:, None, None])
        & (xs < (left + cut_w)[:, None, None])
    )
    return np.where(box, 0.0, images)


def augment_views(
    batch_images: np.ndarray,
    sample_indices,
    seed: int,
    epoch: int,
    config: AugConfig,
    want_strong=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weak view for every row, strong view where want_strong marks it.

    batch_images is (n, h, w); sample_indices gives each row's position in
    the dataset, which keys its draws.  Rows without a requested strong
    view are left at exactly zero in the returned strong array.
    """
    sample_indices = np.asarray(sample_indices)
    weak = weak_views(
        batch_images,
        view_uniforms(seed, epoch, sample_indices, WEAK_VIEW, WEAK_DRAWS),
        config,
    )
    strong = np.zeros_like(batch_images)
    if want_strong is not None:
        rows = np.flatnonzero(want_strong)
        if len(rows):
            strong[rows] = strong_views(
                batch_images[rows],
                view_uniforms(seed, epoch, sample_indices[rows], STRONG_VIEW, STRONG_DRAWS),
                config,
            )
    return weak, strong
