#!/usr/bin/env python3
"""Train one model on the default synthetic benchmark and report its scores.

The benchmark is what `affectmtl synth` produces out of the box: 2000
training and 500 validation faces at 16x16, a long-tailed training class
distribution with 40% of expression labels masked out (20% for the other
two tasks), and a balanced validation split.  Run:

    python3 scripts/run_benchmark.py --mode ss-mfar --seed 0
"""

import argparse
import sys
import time

from affectmtl.config import RunConfig, SynthFileConfig, TrainMode
from affectmtl.data_model import generate_synthetic
from affectmtl.trainer import pack_dataset, run_training


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        default="ss-mfar",
        choices=[m.value for m in TrainMode],
        help="training mode (default: ss-mfar)",
    )
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--epochs", type=int, default=30, help="training epochs")
    parser.add_argument(
        "--data-seed", type=int, default=0, help="seed for the synthetic data"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    synth = SynthFileConfig()
    print(
        f"generating benchmark data: {synth.train_count} train / "
        f"{synth.val_count} val, {synth.image_size}x{synth.image_size}"
    )
    train_ds, train_images = generate_synthetic(
        synth.train_config(), seed=args.data_seed, prefix="train"
    )
    val_ds, val_images = generate_synthetic(
        synth.val_config(), seed=args.data_seed + 1, prefix="val"
    )
    train = pack_dataset(train_ds, train_images)
    val = pack_dataset(val_ds, val_images)

    config = RunConfig(mode=TrainMode(args.mode), seed=args.seed, epochs=args.epochs)
    print(f"training {args.mode}, seed {args.seed}, {args.epochs} epochs")
    started = time.perf_counter()
    result = run_training(train, val, config)
    elapsed = time.perf_counter() - started

    print(f"{'epoch':>5} {'total':>8} {'conf%':>6} {'p_exp':>7} {'p_va':>7} {'p_au':>7} {'p_mtl':>7}")
    for report in result.reports:
        s = report.val_score
        print(
            f"{report.epoch:>5} {report.losses.total:>8.4f} "
            f"{100 * report.confident_fraction:>5.1f}% "
            f"{s.p_exp:>7.4f} {s.p_va:>7.4f} {s.p_au:>7.4f} {s.p_mtl:>7.4f}"
        )
    best = result.reports[result.best_epoch].val_score
    print(
        f"\nbest epoch {result.best_epoch}: p_exp={best.p_exp:.4f} "
        f"p_va={best.p_va:.4f} p_au={best.p_au:.4f} p_mtl={best.p_mtl:.4f} "
        f"({elapsed:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
