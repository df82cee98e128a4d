"""Weak and strong image views, built for a whole batch in array code.

The weak view is pad-crop-flip; the strong view runs the same pipeline and
then applies distinct distortions drawn from a fixed menu in random order.
Every random draw is a counter-based hash of (seed, epoch, sample index,
view, draw number), the idea behind Philox (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) written with a splitmix64 finalizer.
A sample's views therefore depend only on its own key and pixels: they are
byte-identical however the samples are batched or ordered.

The draws come in as arrays, one view_uniforms row per image, so a caller
can draw a whole epoch's rows in one call and hand each call its slice.
The weak view is one gather through crop maps cached per (height, width,
padding), with the flip folded into the column maps; it moves pixels
without changing them, so augment_views gathers the 8-bit levels and
leaves their float pixels to the reader.  Every strong op acts
on one row alone, so the strong view runs op slot by op slot: in each slot
every op, rotation included, runs once on the rows that picked it there,
and each row still sees its own ops in its own order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_finite
from .pgm import level_pixels

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
        check_finite(
            self, "brightness_delta", "contrast_low", "contrast_high", "rotation_max_deg"
        )
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
    """splitmix64 step on a uint64 array; array ops wrap without warnings.

    After the first add it works in place on one scratch array, so an
    epoch-wide draw table holds two table-sized arrays at a time; that
    keeps a run's peak memory where per-batch draws left it.
    """
    z = z + np.uint64(_GOLDEN)
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def view_uniforms(seed: int, epoch: int, sample_indices, view: int, count: int) -> np.ndarray:
    """(n, count) uniforms in [0, 1), one row per sample index.

    Draw d of a row hashes (seed, epoch, sample index, view, d); its top 53
    bits give a double with every value k / 2**53 equally likely.  The
    (seed, epoch) prefix is shared by every row and hashed on a one-element
    array, seed and epoch taken modulo 2**64.
    """
    prefix = _splitmix(np.array([int(seed) & _U64_MASK], dtype=np.uint64))
    prefix = _splitmix(prefix ^ np.uint64(int(epoch) & _U64_MASK))
    key = _splitmix(prefix ^ np.asarray(sample_indices, dtype=np.int64).astype(np.uint64))
    key = _splitmix(key ^ np.uint64(view))
    bits = _splitmix(key[:, None] ^ np.arange(count, dtype=np.uint64))
    bits >>= np.uint64(11)
    uniforms = bits.astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def _below(u: np.ndarray, count) -> np.ndarray:
    """Integers uniform on 0..count-1 from uniforms u (count may vary by row)."""
    return np.minimum((u * count).astype(np.int64), np.asarray(count) - 1)


@functools.lru_cache(maxsize=8)
def _crop_maps(height: int, width: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat-index maps of every crop offset: rows[t] and cols[flip, l].

    rows[t] is the source row of each output row at crop offset t, times
    width; cols[0, l] is the source column of each output column at offset
    l, and cols[1, l] the same read right to left.  Both are read-only and
    hold (2 * pad + 1) * (height + 2 * width) integers.  The reflection
    does not repeat the edge, and a pad wider than the image folds back
    and forth across it.
    """
    offsets = np.arange(2 * pad + 1)[:, None]
    row_map = np.pad(np.arange(height), pad, mode="reflect")
    rows = row_map[offsets + np.arange(height)] * width
    col_map = np.pad(np.arange(width), pad, mode="reflect")
    cols = np.stack(
        [col_map[offsets + np.arange(width)], col_map[offsets + np.arange(width - 1, -1, -1)]]
    )
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def weak_views(images: np.ndarray, draws: np.ndarray, config: AugConfig) -> np.ndarray:
    """Reflect-pad, crop back to size at each row's offsets, flip some rows.

    One gather serves the whole batch: the reflect padding is a map from
    padded to source coordinates, each row reads its own crop window
    through it, and the flip is folded into the column maps.  The gather
    copies images of any dtype as they are, 8-bit levels included.
    """
    n, height, width = images.shape
    pad = config.crop_padding
    rows, cols = _crop_maps(height, width, pad)
    top = _below(draws[:, CROP_TOP], 2 * pad + 1)
    left = _below(draws[:, CROP_LEFT], 2 * pad + 1)
    flip = (draws[:, FLIP] < config.flip_prob).view(np.int8)
    starts = np.arange(0, n * height * width, height * width)[:, None]
    index = (rows[top] + starts)[:, :, None] + cols[flip, left][:, None, :]
    return images.reshape(-1)[index]


def strong_op_order(draws: np.ndarray, config: AugConfig) -> np.ndarray:
    """(n, strong_ops_per_image) distinct op indices per row, in apply order.

    The argsort of independent uniforms is a uniformly random permutation;
    its first k entries are k distinct ops in random order.
    """
    return draws[:, OP_ORDER].argsort(axis=1, kind="stable")[:, : config.strong_ops_per_image]


def strong_views(images: np.ndarray, draws: np.ndarray, config: AugConfig) -> np.ndarray:
    """Weak pipeline plus distinct distortions, clipped back to [0, 1].

    Each row's brightness shift, contrast factor, rotation angle and cutout
    box are computed once.  Then, op slot by op slot, each op runs on the
    rows that picked it in that slot, rotation included: one rotate_bilinear
    call per slot that has rotating rows.
    """
    out = weak_views(images, draws, config)
    _, height, width = images.shape
    delta = config.brightness_delta * (2.0 * draws[:, BRIGHTNESS_DRAW] - 1.0)
    span = config.contrast_high - config.contrast_low
    factor = config.contrast_low + span * draws[:, CONTRAST_DRAW]
    angle = config.rotation_max_deg * (2.0 * draws[:, ROTATION_DRAW] - 1.0)
    box = cutout_boxes(draws[:, CUTOUT_DRAWS], height, width, config.cutout_max_frac)
    for slot in strong_op_order(draws, config).T:
        for op in range(len(STRONG_OP_NAMES)):
            rows = (slot == op).nonzero()[0]
            if not len(rows):
                continue
            if op == BRIGHTNESS:
                out[rows] = out[rows] + delta[rows, None, None]
            elif op == CONTRAST:
                out[rows] = 0.5 + factor[rows, None, None] * (out[rows] - 0.5)
            elif op == ROTATION:
                out[rows] = rotate_bilinear(out[rows], angle[rows])
            else:
                out[rows] = np.where(box[rows], 0.0, out[rows])
    return np.clip(out, 0.0, 1.0, out=out)


def rotate_bilinear(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each image about its center by its angle; bilinear, fill 0.

    Source coordinates are computed for the whole (n, h, w) batch.  The
    batch gets a two-pixel zero border, so clipping a corner's index onto
    the border reads the fill; each of the four corners is one gather.
    Each coordinate, weight and blend pass writes into an array the
    function already holds.
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
    # wy and wx start as the source coordinates and end as their fractions.
    wy = np.add(cos_t * dy, sin_t * dx)
    np.add(wy, cy, out=wy)
    wx = np.add(-sin_t * dy, cos_t * dx)
    np.add(wx, cx, out=wx)
    y0 = np.floor(wy)
    x0 = np.floor(wx)
    np.subtract(wy, y0, out=wy)
    np.subtract(wx, x0, out=wx)
    # A corner row clipped to [-2, height] keeps itself and the row below
    # inside a two-pixel border, and an out-of-range one lands on the border.
    # Clipping the whole-number floats and then converting is the cheapest
    # form (np.clip, and integer clips, cost more per call).
    np.maximum(y0, -2.0, out=y0)
    np.minimum(y0, float(height), out=y0)
    np.maximum(x0, -2.0, out=x0)
    np.minimum(x0, float(width), out=x0)
    stride = width + 4
    corner = y0.astype(np.int64)
    np.multiply(corner, stride, out=corner)
    np.add(corner, x0.astype(np.int64), out=corner)
    bordered = np.zeros((n, height + 4, stride))
    bordered[:, 2:-2, 2:-2] = images
    bordered = bordered.reshape(-1)
    # Flat index of each image's pixel (0, 0); shifted views of the bordered
    # batch read the right, lower and lower-right neighbours.
    origin = (np.arange(n) * (height + 4) + 2) * stride + 2
    np.add(corner, origin[:, None, None], out=corner)
    upper_right = bordered[1:][corner]
    lower_right = bordered[stride + 1 :][corner]
    np.multiply(wx, upper_right, out=upper_right)
    np.multiply(wx, lower_right, out=lower_right)
    np.subtract(1.0, wx, out=wx)
    upper = bordered[corner]
    lower = bordered[stride:][corner]
    np.multiply(wx, upper, out=upper)
    np.add(upper, upper_right, out=upper)
    np.multiply(wx, lower, out=lower)
    np.add(lower, lower_right, out=lower)
    np.multiply(wy, lower, out=lower)
    np.subtract(1.0, wy, out=wy)
    np.multiply(wy, upper, out=upper)
    return np.add(upper, lower, out=upper)


def cutout_boxes(draws: np.ndarray, height: int, width: int, max_frac: float) -> np.ndarray:
    """(n, height, width) masks of one box per row covering at most max_frac
    of the area; the cutout op zeroes the pixels under its row's box.

    draws is (n, 4): box height, width, top and left, as uniforms.
    """
    # Capping each side at sqrt(max_frac) of its dimension bounds the area;
    # a cap below one pixel gives an empty box.
    side = math.sqrt(max_frac)
    cap_h, cap_w = int(height * side), int(width * side)
    cut_h = np.minimum(1 + _below(draws[:, 0], max(1, cap_h)), cap_h)
    cut_w = np.minimum(1 + _below(draws[:, 1], max(1, cap_w)), cap_w)
    top = _below(draws[:, 2], height - cut_h + 1)
    left = _below(draws[:, 3], width - cut_w + 1)
    ys = np.arange(height)
    xs = np.arange(width)
    in_rows = (ys >= top[:, None]) & (ys < (top + cut_h)[:, None])
    in_cols = (xs >= left[:, None]) & (xs < (left + cut_w)[:, None])
    return in_rows[:, :, None] & in_cols[:, None, :]


def augment_views(
    batch_images: np.ndarray,
    weak_draws: np.ndarray,
    strong_draws: np.ndarray,
    config: AugConfig,
    *,
    want_strong: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weak view of every row, strong view of the rows want_strong marks.

    batch_images is a (n, h, w) uint8 array of 8-bit levels, one batch or
    a group of batches; perfbench's tracer reads a keyword call by this
    name.  weak_draws holds each row's view_uniforms row (WEAK_VIEW,
    WEAK_DRAWS); strong_draws holds one (STRONG_VIEW, STRONG_DRAWS) row per
    marked row, in row order.
    Crop and flip only move pixels, so the (n, h, w) weak views come back
    as levels: level_pixels of them is the weak view of the float pixels.
    The (k, h, w) strong views of the k marked rows are float pixels, built
    from level_pixels of those rows only.
    """
    if batch_images.dtype != np.uint8:
        raise ValueError(f"expected uint8 levels, got {batch_images.dtype}")
    rows = np.asarray(want_strong).nonzero()[0]
    if len(strong_draws) != len(rows):
        raise ValueError(f"{len(strong_draws)} strong draw rows for {len(rows)} strong views")
    weak = weak_views(batch_images, weak_draws, config)
    if not len(rows):
        return weak, np.empty((0,) + batch_images.shape[1:])
    return weak, strong_views(level_pixels(batch_images[rows]), strong_draws, config)
