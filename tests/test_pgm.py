import numpy as np
import pytest

from affectmtl.errors import DataError
from affectmtl.pgm import read_pgm, write_pgm


def test_round_trip_quantized(tmp_path, rng):
    image = np.rint(rng.random((5, 7)) * 255.0) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.shape == (5, 7)
    assert np.array_equal(back, image)


def test_write_quantizes_to_8bit(tmp_path, rng):
    image = rng.random((4, 4))
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    assert np.array_equal(read_pgm(path), np.rint(image * 255.0) / 255.0)


def test_header_comments_tolerated(tmp_path):
    raw = b"P5\n# a comment\n2 2\n# more\n255\n" + bytes([0, 128, 255, 64])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    image = read_pgm(path)
    assert image.shape == (2, 2)
    assert image[0, 0] == 0.0 and image[1, 1] == 64 / 255


@pytest.mark.parametrize(
    "raw",
    [
        b"P2\n2 2\n255\n" + bytes(4),          # wrong magic
        b"P5\n2 2\n16\n" + bytes(4),           # unsupported maxval
        b"P5\n2 2\n255\n" + bytes(3),          # truncated pixels
        b"P5\n2 2\n255\n" + bytes(5),          # bytes after the pixels
        b"P5\n2\n255\n" + bytes(4),            # missing dimension
        b"P5\n0 2\n255\n",                     # zero dimension
    ],
)
def test_malformed_rejected(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(DataError):
        read_pgm(path)


def test_write_rejects_bad_shape(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
