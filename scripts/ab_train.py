"""Time the training loop of two source trees against each other in one process.

Each tree's src/affectmtl is imported under its own package name, so the
two live side by side.  Their run_training calls alternate, and the order
within a pair flips every pair, so a drift in machine speed lands on both
sides alike.  Each side trains on data it generated and packed itself from
the same synth config; the two epoch logs must be byte-equal, or the
script stops.  It prints each side's median and minimum seconds, the pairs
that side B won and the median of B's time over A's.  The run is `ss-mfar`
on default-size `synth` data at the default hidden width.

    python3 scripts/ab_train.py PARENT_TREE CHANGED_TREE --pairs 30 --epochs 3
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SYNTH_SIZES = {"train_count": 2000, "val_count": 500, "image_size": 16}
HIDDEN_WIDTH = 64


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
        mode=part("losses").TrainMode.SEMI, seed=0, epochs=args.epochs, hidden_width=HIDDEN_WIDTH
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
    summary["b_wins"] = sum(b < a for a, b in zip(times["A"], times["B"]))
    summary["median_ratio"] = statistics.median(b / a for a, b in zip(times["A"], times["B"]))
    for side in ("A", "B"):
        print(f"{side}: median {summary[side]['median_s']:.4f} s, min {summary[side]['min_s']:.4f} s")
    print(
        f"B faster in {summary['b_wins']} of {args.pairs} pairs; "
        f"median B/A time ratio {summary['median_ratio']:.4f}"
    )
    return summary


if __name__ == "__main__":
    main()
