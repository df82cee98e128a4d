"""8-bit binary (P5) PGM reading and writing, and the 8-bit pixel grid.

Images are exchanged with the rest of the package as uint8 arrays of
levels, the bytes of the file: read_pgm returns them and write_pgm writes
them as they are.  Level k of 0..255 is the pixel k / 255.0, and
level_pixels gives the float pixels of an array of levels where the model
reads them.
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


def level_pixels(levels: np.ndarray) -> np.ndarray:
    """The float pixels in [0, 1] of an array of uint8 levels: k / 255.0
    for level k, as float64."""
    # One division: the cast to float64 is exact, and the division rounds as
    # k / 255.0 does.  A table read allocates an 8-byte index per pixel
    # first, whether with take (2.05 MB for a 500-row split whose pixels are
    # 1.02 MB) or by indexing, which also casts each uint8 index through a
    # buffer.
    return np.divide(levels, 255.0, dtype=np.float64)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d uint8 array of levels as a binary PGM with maxval 255.

    An existing file is overwritten in place and cut to length only if it
    was longer, not truncated first: on a filesystem mounted with online
    discard, O_TRUNC frees the old block on every rewrite, which costs far
    more than the write.  The rewrite is therefore not atomic.  The bytes
    go through a raw descriptor opened with open(path, "wb")'s flags less
    O_TRUNC, and its mode, so a target that open() refuses raises the same
    OSError.  An array of another dtype or rank, or with an empty
    dimension, raises DataError before the path is touched: no reader
    accepts the file an empty image would make.
    """
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 2:
        raise DataError(
            f"expected a 2-d uint8 image, got {image.dtype} of shape {image.shape}"
        )
    if image.size == 0:
        raise DataError(f"expected a non-empty image, got shape {image.shape}")
    height, width = image.shape
    data = memoryview(b"P5\n%d %d\n255\n" % (width, height) + image.tobytes())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        while data:  # a write may take fewer bytes than it is given
            data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:  # 0 for a device or FIFO
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


# Raw reads ask for at most this many bytes at a time: a split's files are a
# few hundred bytes, each read in one call, and the buffer a read allocates
# stays small.
_READ_SIZE = 1 << 16

# The last header parsed: its bytes, up to and including the whitespace
# byte before the pixels, and its height and width.  A split shares one
# header, and a file that starts with exactly those bytes and holds
# exactly height * width bytes after them parses to the same fields and
# offset, so only a file that does not runs the header regex.
_last_header = None


def _read_file(path) -> bytes:
    """The bytes of a file, read through a raw descriptor to EOF.  An error
    names the path as open(path, "rb") does, a directory's EISDIR from the
    first read included."""
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)
    return b"".join(chunks)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a read-only (height, width) uint8 array of
    levels over the file's pixel bytes."""
    global _last_header
    data = _read_file(path)
    last = _last_header
    if last is not None:
        prefix, height, width = last
        if len(data) == len(prefix) + height * width and data.startswith(prefix):
            return np.frombuffer(data, dtype=np.uint8, offset=len(prefix)).reshape(height, width)
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
    _last_header = (data[:offset], height, width)
    levels = np.frombuffer(data, dtype=np.uint8, count=size, offset=offset)
    return levels.reshape(height, width)
