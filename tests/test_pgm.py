import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from affectmtl.errors import DataError
from affectmtl.pgm import LEVEL_PIXELS, read_pgm, write_pgm


def test_round_trip_quantized(tmp_path, rng):
    image = np.rint(rng.random((5, 7)) * 255.0) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.shape == (5, 7)
    assert np.array_equal(back, image)


def test_level_table_is_what_read_returns(tmp_path):
    assert not LEVEL_PIXELS.flags.writeable
    assert [float(x).hex() for x in LEVEL_PIXELS] == [(k / 255).hex() for k in range(256)]
    path = tmp_path / "levels.pgm"
    path.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
    assert read_pgm(path).tobytes() == LEVEL_PIXELS.tobytes()


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_write_rejects_empty_image_before_opening(tmp_path, shape):
    """No reader accepts a PGM with a zero dimension, so none is written:
    a new path is not created and an existing file keeps its bytes."""
    new, kept = tmp_path / "new.pgm", tmp_path / "kept.pgm"
    kept.write_bytes(b"kept")
    for path in (new, kept):
        with pytest.raises(DataError, match=r"expected a non-empty image, got shape \(\d, \d\)"):
            write_pgm(path, np.zeros(shape))
    assert not new.exists()
    assert kept.read_bytes() == b"kept"


# Each pixel: any float, an exact half-step between two levels (rint rounds
# it to even), or one of the values where clipping and casting differ most.
PIXELS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-3, 258).map(lambda k: (k + 0.5) / 255.0)
    | st.sampled_from([-0.0, 0.0, 1.0, -1e-300, 1e300, float("nan"), float("inf"), -float("inf")])
)


@pytest.fixture(scope="module")
def pgm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6), elements=PIXELS),
    st.sampled_from(["new path", "over a longer file"]),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN casts, inf products
def test_writer_matches_clip_and_fileio_reference(pgm_dir, image, target):
    """The descriptor-level writer and its rint/minimum/maximum quantization
    leave the bytes that np.clip and a FileIO opened in place leave, for
    every float; a rewrite keeps the file's inode."""
    got, want = pgm_dir / "got.pgm", pgm_dir / "want.pgm"
    for path in (got, want):
        path.unlink(missing_ok=True)
        if target != "new path":
            path.write_bytes(bytes(range(256)) * 2)  # longer than any file written here
    inode = got.stat().st_ino if got.exists() else None
    write_pgm(got, image)
    oracles.write_pgm(want, image)
    assert got.read_bytes() == want.read_bytes()
    if inode is not None:
        assert got.stat().st_ino == inode


def _outcome(reader, path):
    """The array a reader returns, as shape, dtype and bytes, or its DataError message."""
    try:
        image = reader(path)
    except DataError as exc:
        return "error", str(exc)
    return image.shape, image.dtype, image.tobytes()


HEADER_SEPARATORS = st.lists(
    st.sampled_from(
        [b" ", b"\t", b"\r", b"\n", b"  \n\t", b"#", b"#c", b"# a note\n", b"#x 7\r", b"\x0b"]
    ),
    max_size=3,
).map(b"".join)
HEADER_FIELDS = st.sampled_from(
    [b"P5", b"P2", b"P55", b"255", b"256", b"0", b"-3", b"3", b"+3", b"3_0", b"_3", b"3_",
     b"+_3", b"0003", b"x", b"3#c", b"3.0", b"\x0c3", b"2#", b"99999999999"]
)


@st.composite
def pgm_bytes(draw):
    """A "P5 w h 255" file whose fields may be swapped or dropped, with runs
    of whitespace and comments between them and a short or long payload."""
    def mostly(value, other):
        return draw(st.sampled_from([value, value, value, None])) or draw(other)

    def separator():
        return mostly(b"\n", HEADER_SEPARATORS)

    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    fields = [mostly(field, HEADER_FIELDS) for field in (b"P5", b"%d" % width, b"%d" % height, b"255")]
    kept = mostly(4, st.integers(0, 3))
    header = b"".join(separator() + field for field in fields[:kept])
    size = max(width * height + draw(st.sampled_from([0, 0, -1, 1, 2])), 0)
    return header + separator() + draw(st.binary(min_size=size, max_size=size))


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm") / "header.pgm"


@settings(max_examples=400, deadline=None)
@given(
    pgm_bytes()
    | st.lists(st.sampled_from(list(b"P5 \t\r\n#0123+_-x\x0b")), max_size=24).map(
        lambda tail: b"P5" + bytes(tail)
    )
)
# A comment right after the last field, and after the magic: the header
# ends there, so the error is the end of the header, not a field "c".
@example(b"P5 16 16 #c")
@example(b"P5 #c")
@example(b"P5\n3 2\n255 #\n" + bytes(6))
@example(b"P5 3 2 255")
def test_reader_matches_token_reference(pgm_path, raw):
    """The one-regex header parser returns the arrays and DataError messages
    of the byte-at-a-time tokenizer it replaced."""
    pgm_path.write_bytes(raw)
    assert _outcome(read_pgm, pgm_path) == _outcome(oracles.read_pgm, pgm_path)


@pytest.mark.parametrize("first, second", [((8, 6), (4, 3)), ((4, 3), (8, 6))])
def test_rewrite_in_place_leaves_exactly_the_new_bytes(tmp_path, rng, first, second):
    """Over a longer and over a shorter file: same inode, the bytes a fresh
    file gets, and those are the P5 header and the quantized pixels."""
    path = tmp_path / "img.pgm"
    write_pgm(path, rng.random(first))
    inode = path.stat().st_ino
    image = rng.random(second)
    write_pgm(path, image)
    fresh = tmp_path / "fresh.pgm"
    write_pgm(fresh, image)
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    assert path.read_bytes() == fresh.read_bytes() == (
        b"P5\n%d %d\n255\n" % (second[1], second[0]) + pixels.tobytes()
    )
    assert path.stat().st_ino == inode


def test_write_to_a_device_as_open_does():
    """A target with no length to cut, such as a character device, takes
    the bytes as open(path, "wb") gives them to it."""
    write_pgm(os.devnull, np.zeros((2, 2)))


def test_write_to_a_fifo_as_open_does(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    write_pgm(fifo, np.zeros((2, 2)))
    reader.join(timeout=30)
    assert received == [b"P5\n2 2\n255\n" + bytes(4)]


def test_new_file_mode_matches_open(tmp_path):
    previous = os.umask(0o027)
    try:
        write_pgm(tmp_path / "new.pgm", np.zeros((2, 2)))
        with open(tmp_path / "opened.pgm", "wb"):
            pass
    finally:
        os.umask(previous)
    assert (tmp_path / "new.pgm").stat().st_mode == (tmp_path / "opened.pgm").stat().st_mode
    assert stat.S_IMODE((tmp_path / "new.pgm").stat().st_mode) == 0o640


@pytest.mark.parametrize("target", ["directory", "below a file"])
@pytest.mark.parametrize("as_str", [False, True])
def test_unwritable_target_raises_as_open_does(tmp_path, target, as_str):
    (tmp_path / "directory").mkdir()
    (tmp_path / "file").write_bytes(b"kept")
    path = tmp_path / "directory" if target == "directory" else tmp_path / "file" / "x.pgm"
    path = str(path) if as_str else path
    with pytest.raises(OSError) as expected:
        open(path, "wb")
    with pytest.raises(OSError) as got:
        write_pgm(path, np.zeros((2, 2)))
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert str(path) in str(got.value)
    assert (tmp_path / "file").read_bytes() == b"kept"
