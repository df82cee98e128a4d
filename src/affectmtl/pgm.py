"""8-bit binary (P5) PGM reading and writing.

Images are exchanged with the rest of the package as float arrays in [0, 1];
quantization to 255 levels happens here.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

_WHITESPACE = b" \t\r\n"


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-d float image in [0, 1] as a binary PGM with maxval 255."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DataError(f"expected a 2-d image, got shape {image.shape}")
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _token(data, 0, path)
    if magic != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _token(data, pos, path)
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


def _token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    while pos < len(data):
        char = data[pos]
        if char in _WHITESPACE:
            pos += 1
        elif char == ord("#"):
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise DataError(f"{path}: unexpected end of PGM header")
    return data[start:pos], pos
