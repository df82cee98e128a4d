#!/usr/bin/env python3
"""Compare the three training modes over several seeds on the benchmark.

Trains ss-mfar (full semi-supervised), mfar (supervised on the labeled
subset only), and ss-mfar-no-kl (pseudo-labels without the consistency
term) on identical data with paired seeds, then prints the per-seed
validation expression macro-F1 and the directional summary.  Run:

    python3 scripts/run_ablation.py --seeds 5
"""

import argparse
import sys
import time

from affectmtl.config import RunConfig, SynthFileConfig, TrainMode
from affectmtl.data_model import generate_synthetic
from affectmtl.trainer import pack_dataset, run_training

MODES = (TrainMode.SEMI, TrainMode.SUPERVISED, TrainMode.SEMI_NO_KL)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (from 0)")
    parser.add_argument("--epochs", type=int, default=30, help="training epochs")
    parser.add_argument(
        "--data-seed", type=int, default=0, help="seed for the synthetic data"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    synth = SynthFileConfig()
    train_ds, train_images = generate_synthetic(
        synth.train_config(), seed=args.data_seed, prefix="train"
    )
    val_ds, val_images = generate_synthetic(
        synth.val_config(), seed=args.data_seed + 1, prefix="val"
    )
    train = pack_dataset(train_ds, train_images)
    val = pack_dataset(val_ds, val_images)

    scores: dict[tuple[TrainMode, int], float] = {}
    started = time.perf_counter()
    for mode in MODES:
        for seed in range(args.seeds):
            config = RunConfig(mode=mode, seed=seed, epochs=args.epochs)
            result = run_training(train, val, config)
            best = result.reports[result.best_epoch].val_score
            scores[(mode, seed)] = best.p_exp
            print(f"{mode.value:13s} seed {seed}: expression macro-F1 {best.p_exp:.4f}")
    elapsed = time.perf_counter() - started

    print(f"\n{'seed':>4} {'ss-mfar':>9} {'mfar':>9} {'no-kl':>9} {'ss-sup':>8}")
    for seed in range(args.seeds):
        semi = scores[(TrainMode.SEMI, seed)]
        sup = scores[(TrainMode.SUPERVISED, seed)]
        nokl = scores[(TrainMode.SEMI_NO_KL, seed)]
        print(f"{seed:>4} {semi:>9.4f} {sup:>9.4f} {nokl:>9.4f} {semi - sup:>+8.4f}")

    semi_all = [scores[(TrainMode.SEMI, s)] for s in range(args.seeds)]
    sup_all = [scores[(TrainMode.SUPERVISED, s)] for s in range(args.seeds)]
    nokl_all = [scores[(TrainMode.SEMI_NO_KL, s)] for s in range(args.seeds)]
    strict = sum(a > b for a, b in zip(semi_all, sup_all))
    vs_nokl = sum(a >= b for a, b in zip(semi_all, nokl_all))
    print(
        f"\nsemi-supervised strictly beats supervised in {strict}/{args.seeds} seeds; "
        f"matches or beats the no-consistency variant in {vs_nokl}/{args.seeds} "
        f"({elapsed:.0f}s total)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
