"""Time the training loop of two source trees against each other in one process.

Each tree's src/affectmtl is imported under its own package name, so the
two live side by side.  Their run_training calls alternate, and the order
within a pair flips every pair, so a drift in machine speed lands on both
sides alike.  Each side trains on data it generated and packed itself from
the same synth config; the two epoch logs must be byte-equal, or the
script stops.  It prints each side's median and minimum seconds, side A's
quartiles, the pairs that side B won and the median of B's time over A's.
It also says whether B meets the rule for claiming a gain: B faster in at
least nine tenths of the pairs, ties counting for neither, and B's median
below A's by more than A's interquartile range.  The run trains on
default-size `synth` data in the mode and at the hidden width given
(`ss-mfar` at 64 unless --mode and --hidden-width say otherwise).

    python3 scripts/ab_train.py PARENT_TREE CHANGED_TREE --pairs 30 --epochs 3
    python3 scripts/ab_train.py PARENT_TREE CHANGED_TREE --mode mfar --hidden-width 256
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SYNTH_SIZES = {"train_count": 2000, "val_count": 500, "image_size": 16}


def load_tree(root, name: str):
    """Import root/src/affectmtl as the package `name`."""
    package_dir = Path(root).resolve() / "src" / "affectmtl"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def trainer_run(package, args):
    """A function that runs one timed training on package; it returns
    (seconds, epoch log)."""
    part = lambda module: importlib.import_module(f"{package.__name__}.{module}")
    trainer, data_model, config = part("trainer"), part("data_model"), part("config")
    synth = config.SynthFileConfig(**SYNTH_SIZES)
    train = trainer.pack_dataset(*data_model.generate_synthetic(synth.train_config(), 0))
    val = trainer.pack_dataset(*data_model.generate_synthetic(synth.val_config(), 1))
    run_config = config.RunConfig(
        mode=part("losses").TrainMode(args.mode),
        seed=0,
        epochs=args.epochs,
        hidden_width=args.hidden_width,
    )

    def run():
        started = time.perf_counter()
        result = trainer.run_training(train, val, run_config)
        return time.perf_counter() - started, trainer.format_epoch_log(result.reports)

    return run


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--mode", choices=("ss-mfar", "ss-mfar-no-kl", "mfar"), default="ss-mfar")
    parser.add_argument("--hidden-width", type=int, default=64)
    args = parser.parse_args(argv)
    runs = {
        side: trainer_run(load_tree(tree, f"affectmtl_ab_{side.lower()}"), args)
        for side, tree in (("A", args.tree_a), ("B", args.tree_b))
    }
    times = {"A": [], "B": []}
    first_log = None
    for pair in range(args.pairs):
        for side in ("A", "B") if pair % 2 == 0 else ("B", "A"):
            seconds, log = runs[side]()
            first_log = log if first_log is None else first_log
            if log != first_log:
                raise SystemExit(f"pair {pair}: side {side}'s epoch log differs")
            times[side].append(seconds)
    summary = {
        side: {"median_s": statistics.median(t), "min_s": min(t)} for side, t in times.items()
    }
    summary["A"]["quartiles_s"] = [float(q) for q in np.percentile(times["A"], [25, 75])]
    summary["b_wins"] = sum(b < a for a, b in zip(times["A"], times["B"]))
    summary["median_ratio"] = statistics.median(b / a for a, b in zip(times["A"], times["B"]))
    lower, upper = summary["A"]["quartiles_s"]
    summary["claim_met"] = (
        10 * summary["b_wins"] >= 9 * args.pairs
        and summary["A"]["median_s"] - summary["B"]["median_s"] > upper - lower
    )
    for side in ("A", "B"):
        print(f"{side}: median {summary[side]['median_s']:.4f} s, min {summary[side]['min_s']:.4f} s")
    print(f"A quartiles {lower:.4f} s, {upper:.4f} s")
    print(
        f"B faster in {summary['b_wins']} of {args.pairs} pairs; "
        f"median B/A time ratio {summary['median_ratio']:.4f}"
    )
    print(f"gain claim met: {'yes' if summary['claim_met'] else 'no'}")
    return summary


if __name__ == "__main__":
    main()
