"""Fuzz the CLI: a corrupt input ends in an exit code, never a traceback.

Each test corrupts one kind of input a command reads (run and synth config
text, manifest rows, PGM headers, checkpoint arrays, epoch-log records) on
a 30/10-sample data set of 8x8 images, runs `main`, and asserts that it
returns 0, 1, 2 or 3 with no traceback on stderr.  Keys that size the work
(counts, image size, epochs, widths, padding) only take small values, so no
example allocates much or runs long.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectmtl.cli import main
from affectmtl.config import RunConfig, SynthFileConfig, dump_run_config, parse_kv
from affectmtl.losses import TrainMode

BASE_SYNTH = {"train_count": "30", "val_count": "10", "image_size": "8"}
BASE_RUN = {"epochs": "1", "batch_size": "16", "hidden_width": "4"}

# The only values a key that sizes the work may take, besides JUNK.
BOUNDED = {
    "train_count": ["-1", "0", "1", "30"],
    "val_count": ["-1", "0", "1", "10"],
    "image_size": ["0", "3", "4", "8", "16"],
    "epochs": ["-1", "0", "1"],
    "batch_size": ["-1", "0", "1", "16", "64"],
    "hidden_width": ["-1", "0", "1", "4"],
    "crop_padding": ["-1", "0", "1", "4", "12"],
    "strong_ops_per_image": ["-1", "0", "1", "4", "5"],
}
CHOICES = {
    "mode": [m.value.upper() for m in TrainMode],
    "imbalance": ["reweight", "resample"],
}
# Values no int parse accepts, so they are safe for every key.
JUNK = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "1e400", "-0.0", "0x10", "1.5", "1,2", "=", "\0", "é"]
)
FUZZ = settings(max_examples=25, deadline=None, derandomize=True)


def run_main(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A synthesized data set and a one-epoch run on it."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.cfg").write_text("".join(f"{k}={v}\n" for k, v in BASE_SYNTH.items()))
    assert run_main("synth", "--out", root / "data", "--config", root / "synth.cfg") == 0
    (root / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in BASE_RUN.items()))
    assert run_main("train", "--data", root / "data", "--config", root / "run.cfg",
                    "--out", root / "run") == 0
    return root


def value_for(key):
    if key in BOUNDED:
        return st.sampled_from(BOUNDED[key]) | JUNK
    if key in CHOICES:
        return st.sampled_from(CHOICES[key]) | JUNK
    return (
        st.floats(0.0, 1.0).map(repr)
        | st.floats().map(repr)
        | st.integers(-(2**70), 2**70).map(str)
        | JUNK
        | st.text(max_size=4)
    )


@st.composite
def config_files(draw, keys, base):
    """A config file as bytes: base values, some keys redrawn, maybe a junk tail."""
    values = dict(base)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        values[key] = draw(value_for(key))
    text = "".join(f"{k}={v}\n" for k, v in values.items()).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        text += draw(st.binary(max_size=6) | JUNK.map(str.encode))
    return text


RUN_KEYS = list(parse_kv(dump_run_config(RunConfig())))
SYNTH_KEYS = list(vars(SynthFileConfig()))


@FUZZ
@given(text=config_files(RUN_KEYS, BASE_RUN))
@example(text=b"epochs=1\nhidden_width=4\nseed=-1\n")
@example(text=b"epochs=1\nhidden_width=4\nrotation_max_deg=inf\n")
@example(text=b"epochs=1\nhidden_width=4\n\xff\n")
def test_train_config(base, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(text)
        run_main("train", "--data", base / "data", "--config", cfg, "--out", Path(tmp) / "out")


@FUZZ
@given(text=config_files(SYNTH_KEYS, BASE_SYNTH), seed=st.integers(-3, 2**70))
@example(text=b"train_count=30\nval_count=10\nimage_size=8\n", seed=-1)
def test_synth_config(text, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "synth.cfg"
        cfg.write_bytes(text)
        run_main("synth", "--out", Path(tmp) / "d", "--config", cfg, "--seed", seed)


FIELD_VALUES = JUNK | st.floats().map(repr) | st.integers(-9, 9).map(str) | st.text(max_size=5)


@FUZZ
@given(
    split=st.sampled_from(["train.csv", "val.csv"]),
    edits=st.lists(
        st.tuples(st.integers(0, 40), st.integers(-1, 16), FIELD_VALUES), min_size=1, max_size=3
    ),
    command=st.sampled_from(["train", "evaluate", "stats"]),
)
@example(split="val.csv", edits=[(1, 0, "images/a\0.pgm")], command="evaluate")
@example(split="val.csv", edits=[(1, 1, "\udcff")], command="evaluate")
def test_manifest_rows(base, split, edits, command):
    """Edit (row, column, value): column -1 deletes the row, 16 appends a field."""
    rows = [line.split(",") for line in (base / "data" / split).read_text().splitlines()]
    for row, column, value in edits:
        row %= len(rows)
        if column == -1:
            del rows[row]
            if not rows:
                break
        elif column == len(rows[row]):
            rows[row].append(value)
        else:
            rows[row][min(column, len(rows[row]) - 1)] = value
    text = "\n".join(",".join(r) for r in rows) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        (data / "images").symlink_to(base / "data" / "images")
        for name in ("train.csv", "val.csv"):
            (data / name).write_bytes((base / "data" / name).read_bytes())
        (data / split).write_bytes(text.encode("utf-8", "surrogateescape"))
        run_command(base, data, command)


def run_command(base, data, command):
    if command == "train":
        run_main("train", "--data", data, "--config", base / "run.cfg", "--out", data / "out")
    elif command == "evaluate":
        run_main("evaluate", "--data", data, "--checkpoint", base / "run" / "checkpoint.npz")
    else:
        run_main("stats", "--manifest", data / "val.csv")


HEADER_TOKENS = st.sampled_from(
    [b"P5", b"P2", b"", b"8", b"7", b"9", b"0", b"-8", b"64", b"8.0", b"255", b"65535",
     b"x", b"99999999999"]
)


@FUZZ
@given(
    edits=st.lists(st.tuples(st.integers(0, 4), st.none() | HEADER_TOKENS), max_size=2),
    separator=st.sampled_from([b"\n", b" ", b"\t", b"\n# note\n", b"", b"#"]),
    payload=st.sampled_from([0, 63, 64, 65]) | st.integers(0, 70),
    command=st.sampled_from(["train", "evaluate"]),
)
def test_pgm_header(base, edits, separator, payload, command):
    """The first validation image replaced by a PGM whose header "P5 8 8 255"
    takes edits (token index, token): None deletes the token, index 4 appends."""
    tokens = [b"P5", b"8", b"8", b"255"]
    for index, token in edits:
        index = min(index, len(tokens))
        if token is None:
            del tokens[index : index + 1]
        elif index == len(tokens):
            tokens.append(token)
        else:
            tokens[index] = token
    pgm = separator.join(tokens) + b"\n" + bytes(range(payload))
    header_row, row, *rest = (base / "data" / "val.csv").read_text().splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        (data / "images").symlink_to(base / "data" / "images")
        (data / "train.csv").write_bytes((base / "data" / "train.csv").read_bytes())
        (data / "mut.pgm").write_bytes(pgm)
        rows = [header_row, "mut.pgm," + row.split(",", 1)[1], *rest]
        (data / "val.csv").write_text("\n".join(rows) + "\n")
        run_command(base, data, command)


ARRAY_EDITS = {
    "str": lambda a: a.astype(str),
    "complex": lambda a: a + 1j,
    "bool": lambda a: a.astype(bool),
    "int": lambda a: a.astype(np.int64),
    "float": lambda a: a + 0.5,
    "nan": lambda a: np.full(a.shape, np.nan),
    "vector": lambda a: np.array([1, 1]),
    "scalar": lambda a: np.float64(1.0),
    "column": lambda a: a[..., None],
    "empty": lambda a: np.zeros(0),
    "object": lambda a: np.array([None], dtype=object),
    "huge int": lambda a: np.uint64(2**63 + 1),
    "negative": lambda a: -np.abs(a.astype(np.int64)) - 1,
}


@FUZZ
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["version", "image_height", "image_width", "hidden_width",
                             "config_hash", "param_w1", "param_b_va2", "extra"]),
            st.sampled_from([None, *ARRAY_EDITS]),
        ),
        max_size=3,
    ),
    cut=st.none() | st.integers(0, 4000),
    flip=st.none() | st.tuples(st.integers(0, 4000), st.integers(1, 255)),
)
@example(edits=[], cut=200, flip=None)
@example(edits=[("param_w1", "str")], cut=None, flip=None)
@example(edits=[("version", "vector")], cut=None, flip=None)
def test_checkpoint_arrays(base, edits, cut, flip):
    """Edit (key, transform): None deletes the key; then truncate or flip a byte.

    A transform applies to the key's array if that is numeric, else to zeros.
    """
    with np.load(base / "run" / "checkpoint.npz") as data:
        arrays = dict(data)
    for key, edit in edits:
        if edit is None:
            arrays.pop(key, None)
            continue
        old = arrays.get(key, np.zeros(3))
        arrays[key] = ARRAY_EDITS[edit](old if old.dtype.kind in "biuf" else np.zeros(3))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    blob = bytearray(buffer.getvalue()[:cut])
    if flip is not None and blob:
        blob[flip[0] % len(blob)] ^= flip[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.npz"
        path.write_bytes(bytes(blob))
        run_main("evaluate", "--data", base / "data", "--checkpoint", path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-(10**400), 10**400)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=9) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=10,
)


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["epoch", "l_va", "thresholds",
                                                      "val_p_mtl", "extra"]),
                  st.none() | JSON_VALUES),
        max_size=3,
    ),
    junk=st.none() | st.binary(max_size=6),
)
@example(edits=[(0, "l_va", "high")], junk=None)
@example(edits=[(0, "thresholds", 0.5)], junk=None)
@example(edits=[(0, "val_p_mtl", 10**400)], junk=None)
def test_log_records(base, edits, junk):
    """Edit (record, field, value): None deletes the field; junk adds a raw line."""
    records = [json.loads(line) for line in (base / "run" / "log.jsonl").read_text().splitlines()]
    for index, field, value in edits:
        record = records[index % len(records)]
        if value is None:
            record.pop(field, None)
        else:
            record[field] = value
    text = "".join(json.dumps(r) + "\n" for r in records).encode()
    if junk is not None:
        text += junk + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        log.write_bytes(text)
        run_main("curves", "--log", log, "--out", Path(tmp) / "curves.csv")
