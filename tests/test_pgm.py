import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import oracles
from affectmtl import pgm
from affectmtl.errors import DataError
from affectmtl.pgm import level_pixels, read_pgm, write_pgm
from conftest import traced_peak


def test_round_trip_quantized(tmp_path, rng):
    image = rng.integers(0, 256, (5, 7), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert back.dtype == np.uint8 and back.shape == (5, 7)
    assert np.array_equal(back, image)


def test_level_table_is_what_read_returns(tmp_path):
    assert not oracles.LEVEL_PIXELS.flags.writeable
    assert [float(x).hex() for x in oracles.LEVEL_PIXELS] == [(k / 255).hex() for k in range(256)]
    path = tmp_path / "levels.pgm"
    path.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
    assert read_pgm(path).tobytes() == bytes(range(256))
    assert level_pixels(read_pgm(path)).tobytes() == oracles.LEVEL_PIXELS.tobytes()


def test_every_level_reads_as_k_over_255():
    """Each of the 256 levels reads as Python's k / 255.0, bit for bit."""
    pixels = level_pixels(np.arange(256, dtype=np.uint8))
    assert pixels.dtype == np.float64
    assert [float(x).hex() for x in pixels] == [(k / 255.0).hex() for k in range(256)]


def test_level_pixels_allocates_its_output_only():
    """The float pixels of a 500-row 16x16 split, 1,024,000 bytes, and the
    cast's buffer are all that level_pixels allocates.  Measured:
    1,090,888; a take from the level table allocated 2,048,192, an 8-byte
    index per pixel first."""
    levels = np.random.default_rng(0).integers(0, 256, (500, 16, 16), dtype=np.uint8)
    level_pixels(levels)
    peak = traced_peak(lambda: level_pixels(levels))
    assert peak <= 1.1 * levels.size * 8, peak


def test_write_quantizes_to_8bit(tmp_path, rng):
    """A pixel is one byte of the file, its level as given, which the
    float reference reader reads as oracles.LEVEL_PIXELS[level]."""
    image = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    assert path.read_bytes() == b"P5\n6 4\n255\n" + image.tobytes()
    assert oracles.read_pgm(path).tobytes() == oracles.LEVEL_PIXELS[image].tobytes()


def test_header_comments_tolerated(tmp_path):
    raw = b"P5\n# a comment\n2 2\n# more\n255\n" + bytes([0, 128, 255, 64])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    image = read_pgm(path)
    assert image.shape == (2, 2)
    assert image.tolist() == [[0, 128], [255, 64]]


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
    for shape in [(2, 2, 2), (4,), ()]:
        with pytest.raises(DataError, match=r"expected a 2-d uint8 image, got uint8 of shape"):
            write_pgm(tmp_path / "x.pgm", np.zeros(shape, dtype=np.uint8))
    assert not (tmp_path / "x.pgm").exists()


# The first three keep the ids they had when they were the only cases.
@pytest.mark.parametrize(
    "image, message",
    [
        (np.zeros((0, 3), np.uint8), r"a non-empty image, got shape \(0, 3\)"),
        (np.zeros((3, 0), np.uint8), r"a non-empty image, got shape \(3, 0\)"),
        (np.zeros((0, 0), np.uint8), r"a non-empty image, got shape \(0, 0\)"),
        (np.zeros((2, 2)), r"a 2-d uint8 image, got float64 of shape \(2, 2\)"),
        (np.zeros((2, 2), np.int64), r"a 2-d uint8 image, got int64 of shape \(2, 2\)"),
        (np.zeros((2, 2), bool), r"a 2-d uint8 image, got bool of shape \(2, 2\)"),
        (np.zeros((1, 2, 2)), r"a 2-d uint8 image, got float64 of shape \(1, 2, 2\)"),
        ([[0, 1], [2, 3]], r"a 2-d uint8 image, got int64 of shape \(2, 2\)"),
    ],
    ids=["shape0", "shape1", "shape2", "float64", "int64", "bool", "float64 3-d", "list"],
)
def test_write_rejects_empty_image_before_opening(tmp_path, image, message):
    """No reader accepts a PGM with a zero dimension, and the writer takes
    2-d uint8 levels only, so no other array is written: a new path is not
    created and an existing file keeps its bytes."""
    new, kept = tmp_path / "new.pgm", tmp_path / "kept.pgm"
    kept.write_bytes(b"kept")
    for path in (new, kept):
        with pytest.raises(DataError, match="^expected " + message + "$"):
            write_pgm(path, image)
    assert not new.exists()
    assert kept.read_bytes() == b"kept"


@pytest.fixture(scope="module")
def pgm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=6)),
    st.sampled_from(["new path", "over a longer file"]),
)
def test_writer_matches_clip_and_fileio_reference(pgm_dir, levels, target):
    """The descriptor-level writer leaves the bytes that the FileIO
    reference, opened in place, leaves for the levels' pixels; a rewrite
    keeps the file's inode."""
    got, want = pgm_dir / "got.pgm", pgm_dir / "want.pgm"
    for path in (got, want):
        path.unlink(missing_ok=True)
        if target != "new path":
            path.write_bytes(bytes(range(256)) * 2)  # longer than any file written here
    inode = got.stat().st_ino if got.exists() else None
    write_pgm(got, levels)
    oracles.write_pgm(want, oracles.LEVEL_PIXELS[levels])
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


def _level_pixels_read(path):
    """read_pgm's levels as the float pixels the reference reader returns."""
    levels = read_pgm(path)
    assert levels.dtype == np.uint8
    return oracles.LEVEL_PIXELS[levels]


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
    """The one-regex header parser returns the levels of the arrays, and
    the DataError messages, of the byte-at-a-time tokenizer it replaced."""
    pgm_path.write_bytes(raw)
    assert _outcome(_level_pixels_read, pgm_path) == _outcome(oracles.read_pgm, pgm_path)


@st.composite
def pgm_sequences(draw):
    """Two or three files, each a fresh pgm_bytes() or the first bytes of an
    earlier file with another tail, so that files often share a header and
    differ in the length or the bytes that follow it."""
    files = [draw(pgm_bytes())]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            files.append(draw(pgm_bytes()))
        else:
            earlier = draw(st.sampled_from(files))
            files.append(earlier[: draw(st.integers(0, len(earlier)))] + draw(st.binary(max_size=20)))
    return files


SHARED = b"P5\n3 2\n255\n"


@settings(max_examples=300, deadline=None)
@given(pgm_sequences())
@example([SHARED + bytes(6), SHARED + bytes(5)])
@example([SHARED + bytes(6), SHARED + bytes(7)])
@example([SHARED + bytes(6), SHARED + b"#c\n" + bytes(3)])  # the comment is pixels
@example([SHARED + bytes(6), SHARED + b"#c\n" + bytes(6)])
@example([SHARED + bytes(6), b"P5\n3 2\n256\n" + bytes(6)])
@example([SHARED + bytes(6), b"P5 2 2 255 " + bytes(4), SHARED + bytes(range(6))])
def test_reader_in_sequence_matches_a_fresh_parse(pgm_dir, files):
    """Each file of a sequence reads as the token reader reads it alone,
    whatever header the file before it left cached."""
    pgm._last_header = None  # so that a failing example replays on its own
    for i, raw in enumerate(files):
        path = pgm_dir / f"seq{i}.pgm"
        path.write_bytes(raw)
        assert _outcome(_level_pixels_read, path) == _outcome(oracles.read_pgm, path)


@pytest.mark.parametrize("target", ["directory", "missing"])
@pytest.mark.parametrize("as_str", [False, True])
def test_unreadable_path_raises_as_open_does(tmp_path, target, as_str):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    path = str(path) if as_str else path
    with pytest.raises(OSError) as expected:
        open(path, "rb")
    with pytest.raises(OSError) as got:
        read_pgm(path)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert str(path) in str(got.value)


@pytest.mark.parametrize("first, second", [((8, 6), (4, 3)), ((4, 3), (8, 6))])
def test_rewrite_in_place_leaves_exactly_the_new_bytes(tmp_path, rng, first, second):
    """Over a longer and over a shorter file: same inode, the bytes a fresh
    file gets, and those are the P5 header and the levels."""
    path = tmp_path / "img.pgm"
    write_pgm(path, rng.integers(0, 256, first, dtype=np.uint8))
    inode = path.stat().st_ino
    image = rng.integers(0, 256, second, dtype=np.uint8)
    write_pgm(path, image)
    fresh = tmp_path / "fresh.pgm"
    write_pgm(fresh, image)
    assert path.read_bytes() == fresh.read_bytes() == (
        b"P5\n%d %d\n255\n" % (second[1], second[0]) + image.tobytes()
    )
    assert path.stat().st_ino == inode


def test_write_to_a_device_as_open_does():
    """A target with no length to cut, such as a character device, takes
    the bytes as open(path, "wb") gives them to it."""
    write_pgm(os.devnull, np.zeros((2, 2), np.uint8))


def test_write_to_a_fifo_as_open_does(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_pgm(fifo, np.zeros((2, 2), np.uint8))
    except BaseException:
        # The reader waits in open() for a writer; a read-write open is one
        # and never blocks, so the reader reads an empty pipe and the
        # failure is reported instead of hanging the run.
        os.close(os.open(fifo, os.O_RDWR | os.O_NONBLOCK))
        raise
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [b"P5\n2 2\n255\n" + bytes(4)]


def test_new_file_mode_matches_open(tmp_path):
    previous = os.umask(0o027)
    try:
        write_pgm(tmp_path / "new.pgm", np.zeros((2, 2), np.uint8))
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
        write_pgm(path, np.zeros((2, 2), np.uint8))
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert str(path) in str(got.value)
    assert (tmp_path / "file").read_bytes() == b"kept"
