"""8-bit binary (P5) PGM reading and writing, and the 8-bit pixel grid.

Images are exchanged with the rest of the package as float arrays in [0, 1];
quantization to 255 levels happens here.  Level k of 0..255 is the pixel
k / 255.0, LEVEL_PIXELS[k]: level_pixels and read_pgm return those values,
and pixel_levels takes float pixels back to their levels, refusing any
pixel that is not exactly one of them.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import DataError

# Header fields are separated by runs of whitespace and comments.  A comment
# starts with "#" where a field could start and always runs to the end of
# its line (the possessive *+ never gives its text back to be read as a
# field); "#" inside a field is part of it, but no field starts with one.
_SEPARATOR = rb"(?:[ \t\r\n]|#[^\r\n]*+)*"
_FIELD = rb"([^ \t\r\n#][^ \t\r\n]*)"
# Magic, width, height and maxval; each group is None when the header ends
# before that field.
_HEADER = re.compile(rb"(?:%s%s(?:%s%s(?:%s%s(?:%s%s)?)?)?)?" % ((_SEPARATOR, _FIELD) * 4))

# LEVEL_PIXELS[k] is level k's pixel value, k / 255.0; read-only.
LEVEL_PIXELS = np.arange(256) / 255.0
LEVEL_PIXELS.flags.writeable = False


def level_pixels(levels: np.ndarray) -> np.ndarray:
    """The float pixels in [0, 1] of an array of uint8 levels, read from
    LEVEL_PIXELS."""
    # take, not LEVEL_PIXELS[levels]: indexing with a uint8 array casts each
    # index through a buffer, which took 2.5 times as long for a 64-row 16x16
    # batch (50 against 20 us) and for a 500-row split (380 against 135 us).
    return LEVEL_PIXELS.take(levels)


# Pixels per pixel_levels chunk: a chunk and its scratch copy (256 KB each)
# stay in a 2 MB L2 cache between passes.
_LEVEL_CHUNK = 1 << 15


def pixel_levels(images) -> np.ndarray:
    """The uint8 levels of float pixels that are each exactly k / 255.0.

    The exact inverse of level_pixels: level_pixels(pixel_levels(x)) has
    the bytes of x.  A pixel that is not bit for bit one of the 256
    levels raises DataError naming it.  (k / 255.0) * 255.0 == k for every
    level, so the scaled pixel cast to uint8 finds k.  The pixels rebuilt
    as k / 255.0, the table's own division, are then compared with the
    input as int64 bit patterns: a product check alone accepts -0.0, and
    251/255 + 1 ulp, whose product is exactly 251.0.  An off-grid pixel
    (NaN and out-of-range ones included) may cast to any level, since no
    level rebuilds it.  The pass runs in chunks, so its scratch stays small.
    """
    images = np.ascontiguousarray(images, dtype=np.float64)
    flat = images.reshape(-1)
    levels = np.empty(flat.size, dtype=np.uint8)
    scratch = np.empty(min(_LEVEL_CHUNK, flat.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _LEVEL_CHUNK):
            pixels = flat[lo : lo + _LEVEL_CHUNK]
            chunk = levels[lo : lo + _LEVEL_CHUNK]
            rebuilt = scratch[: pixels.size]
            np.multiply(pixels, 255.0, out=rebuilt)
            np.copyto(chunk, rebuilt, casting="unsafe")
            np.divide(chunk, 255.0, out=rebuilt)
            if not np.array_equal(rebuilt.view(np.int64), pixels.view(np.int64)):
                first = lo + np.flatnonzero(rebuilt.view(np.int64) != pixels.view(np.int64))[0]
                index = tuple(int(i) for i in np.unravel_index(first, images.shape))
                raise DataError(
                    f"pixel {index} is {flat[first]!r}, not an 8-bit level k / 255"
                )
    return levels.reshape(images.shape)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d float image in [0, 1] as a binary PGM with maxval 255.

    An existing file is overwritten in place and cut to length only if it
    was longer, not truncated first: on a filesystem mounted with online
    discard, O_TRUNC frees the old block on every rewrite, which costs far
    more than the write.  The rewrite is therefore not atomic.  The bytes
    go through a raw descriptor opened with open(path, "wb")'s flags less
    O_TRUNC, and its mode, so a target that open() refuses raises the same
    OSError.  An image with an empty dimension raises DataError before the
    path is touched: no reader accepts the file it would make.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DataError(f"expected a 2-d image, got shape {image.shape}")
    if image.size == 0:
        raise DataError(f"expected a non-empty image, got shape {image.shape}")
    # np.clip(np.rint(image * 255.0), 0, 255) for every float, NaN included,
    # without clip's per-call cost.
    levels = image * 255.0
    np.rint(levels, out=levels)
    np.minimum(levels, 255.0, out=levels)
    np.maximum(levels, 0.0, out=levels)
    height, width = levels.shape
    data = memoryview(b"P5\n%d %d\n255\n" % (width, height) + levels.astype(np.uint8).tobytes())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        while data:  # a write may take fewer bytes than it is given
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:  # 0 for a device or FIFO
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float array in [0, 1]: byte k reads as
    LEVEL_PIXELS[k]."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    header = _HEADER.match(data)
    magic = header[1]
    if magic is None:
        raise DataError(f"{path}: unexpected end of PGM header")
    if magic != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for group, name in enumerate(("width", "height", "maxval"), start=2):
        token = header[group]
        if token is None:
            raise DataError(f"{path}: unexpected end of PGM header")
        try:
            fields.append(int(token))
        except ValueError:
            raise DataError(f"{path}: bad {name} field {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, got {maxval}")
    offset = header.end() + 1  # single whitespace byte separates the header from the payload
    size = max(len(data) - offset, 0)
    if size != width * height:
        raise DataError(f"{path}: expected {width * height} bytes of pixel data, got {size}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=size, offset=offset)
    return level_pixels(pixels.reshape(height, width))
