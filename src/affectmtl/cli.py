"""Command-line driver: synthesize data, train, evaluate, export curves.

Exit codes: 0 success, 1 usage error, 2 bad data or configuration (a
size too large to allocate included), 3 training divergence.  `train`
and `curves` write each output to a temporary file and rename it into
place, so a failed command leaves no partial file at an output path.
`train` removes an existing checkpoint.npz before its first write and
writes it last, so the checkpoint marks a finished run: a run directory
without one holds none, and `evaluate` exits 2 naming the missing file.
`synth` overwrites existing images in place (see pgm.write_pgm, which
avoids O_TRUNC because freeing each old block costs more than the
write), so a failed run can leave a mix of old and new images.  Only
each split's manifest is atomic: it is removed before the split's first
image is written and renamed into place after its last, so a split that
a failed run left unfinished has no manifest and `train` exits 2.
`evaluate` exits 2 on a checkpoint whose stored config hash is not the
hash of the config_resolved.txt beside it; a checkpoint with no such file
beside it is scored as it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .atomic import atomic_open
from .config import (
    config_hash,
    dump_run_config,
    parse_run_config,
    parse_synth_config,
    text_hash,
)
from .data_model import (
    N_EXPRESSION_CLASSES,
    dataset_stats,
    format_stats,
    generate_synthetic,
    load_images,
    load_manifest,
    read_text,
    write_dataset,
)
from .errors import ConfigError, DataError, DivergenceError
from .network import load_checkpoint, save_checkpoint
from .trainer import (
    LOG_FIELDS,
    evaluate_packed,
    format_epoch_log,
    pack_dataset,
    parse_epoch_log,
    run_training,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _workers() -> int:
    """Threads `train` uses: always 1.

    Kept only because the benchmark's tracer (perfbench/spans.py) binds this
    name and reports it as cli.workers; delete it together with that binding.
    """
    return 1


def _load_split(data_dir, manifest_name):
    dataset = load_manifest(os.path.join(data_dir, manifest_name))
    images = load_images(dataset, data_dir)
    return pack_dataset(dataset, images)


def cmd_synth(args) -> int:
    config = read_text(args.config, parse_synth_config) if args.config else parse_synth_config("")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    train_ds, train_images = generate_synthetic(config.train_config(), args.seed, prefix="train")
    val_ds, val_images = generate_synthetic(config.val_config(), args.seed + 1, prefix="val")
    write_dataset(args.out, "train.csv", train_ds, train_images)
    write_dataset(args.out, "val.csv", val_ds, val_images)
    print("train:")
    print(format_stats(dataset_stats(train_ds)))
    print("val:")
    print(format_stats(dataset_stats(val_ds)))
    return 0


def cmd_stats(args) -> int:
    dataset = load_manifest(args.manifest)
    print(format_stats(dataset_stats(dataset)))
    return 0


def cmd_train(args) -> int:
    run_config = read_text(args.config, parse_run_config) if args.config else parse_run_config("")
    train_packed = _load_split(args.data, "train.csv")
    val_packed = _load_split(args.data, "val.csv")
    result = run_training(train_packed, val_packed, run_config, workers=_workers())
    os.makedirs(args.out, exist_ok=True)
    checkpoint = os.path.join(args.out, "checkpoint.npz")
    if os.path.lexists(checkpoint):
        os.remove(checkpoint)
    for name, text in (
        ("log.jsonl", format_epoch_log(result.reports)),
        ("config_resolved.txt", dump_run_config(run_config)),
    ):
        with atomic_open(os.path.join(args.out, name), encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    save_checkpoint(checkpoint, result.best_params, result.model_config, config_hash(run_config))
    if result.reports:
        best = result.reports[result.best_epoch]["val_p_mtl"]
        print(f"best_epoch={result.best_epoch} val_p_mtl={best!r}")
    else:
        print("best_epoch=-1 val_p_mtl=nan")
    return 0


def cmd_evaluate(args) -> int:
    params, model_config, stored_hash = load_checkpoint(args.checkpoint)
    # The checkpoint stores the text_hash of the config train wrote beside it.
    resolved = os.path.join(os.path.dirname(args.checkpoint), "config_resolved.txt")
    if os.path.exists(resolved):
        resolved_hash = read_text(resolved, text_hash)
        if resolved_hash != stored_hash:
            raise DataError(
                f"{args.checkpoint}: config hash {stored_hash} differs from {resolved_hash}, "
                f"the hash of {resolved}"
            )
    packed = _load_split(args.data, args.manifest)
    if len(packed) == 0:
        raise DataError(f"manifest {args.manifest} has no samples")
    if packed.levels.shape[1:] != (model_config.image_height, model_config.image_width):
        raise DataError(
            f"images are {packed.levels.shape[1:]} but the checkpoint expects "
            f"({model_config.image_height}, {model_config.image_width})"
        )
    score = evaluate_packed(params, packed)
    print(json.dumps(dataclasses.asdict(score)))
    return 0


# LOG_FIELDS with the thresholds list expanded to one column per class.
CURVE_COLUMNS = [
    column
    for name in LOG_FIELDS
    for column in (
        [f"T{c}" for c in range(N_EXPRESSION_CLASSES)] if name == "thresholds" else [name]
    )
]


def _curve_row(record: dict) -> list[str]:
    """One CSV row of a record parse_epoch_log checked, thresholds expanded."""
    row = []
    for name in LOG_FIELDS:
        values = record[name] if name == "thresholds" else [record[name]]
        row.extend(str(v) if name == "epoch" else repr(float(v)) for v in values)
    return row


def cmd_curves(args) -> int:
    records = read_text(args.log, parse_epoch_log)
    lines = [",".join(CURVE_COLUMNS), *(",".join(_curve_row(r)) for r in records)]
    with atomic_open(args.out, encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affectmtl", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser("synth", help="generate a synthetic train/val pair")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="key=value generator config")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("stats", help="print annotation statistics of a manifest")
    p.add_argument("--manifest", required=True, help="manifest CSV path")
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("train", help="train on a data directory")
    p.add_argument("--data", required=True, help="directory with train.csv/val.csv")
    p.add_argument("--config", default=None, help="key=value run config")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("evaluate", help="score a checkpoint on a manifest")
    p.add_argument("--data", required=True, help="directory with the manifest")
    p.add_argument("--checkpoint", required=True, help="checkpoint .npz path")
    p.add_argument("--manifest", default="val.csv", help="manifest name (default val.csv)")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("curves", help="flatten an epoch log into CSV")
    p.add_argument("--log", required=True, help="epoch log path (one JSON object per line)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        print("affectmtl: error: a command is required", file=sys.stderr)
        return 1
    try:
        # A diverging run overflows; its one report is the exit-3 message
        # below, not NumPy's floating-point warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except DivergenceError as exc:
        print(f"affectmtl: divergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # DataError and NumPy's "array is too big" are ValueErrors.  NumPy's
        # MemoryError names the allocation; a bare one is empty.
        print(f"affectmtl: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
