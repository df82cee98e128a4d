"""8-bit binary (P5) PGM reading and writing.

Images are exchanged with the rest of the package as float arrays in [0, 1];
quantization to 255 levels happens here.
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


def _open_in_place(path, flags):
    """open()'s own flags and mode, without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d float image in [0, 1] as a binary PGM with maxval 255.

    An existing file is overwritten in place and cut to length only if it
    was longer, not truncated first: on a filesystem mounted with online
    discard, O_TRUNC frees the old block on every rewrite, which costs far
    more than the write.  The rewrite is therefore not atomic.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DataError(f"expected a 2-d image, got shape {image.shape}")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    data = memoryview(b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes())
    size = len(data)
    with open(path, "wb", buffering=0, opener=_open_in_place) as fh:
        while data:  # an unbuffered write may take fewer bytes than it is given
            data = data[fh.write(data):]
        if os.fstat(fh.fileno()).st_size > size:  # 0 for a device or FIFO
            fh.truncate(size)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float array in [0, 1]."""
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
    return pixels.reshape(height, width).astype(np.float64) / 255.0
