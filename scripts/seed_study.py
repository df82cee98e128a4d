"""The paper's ablation margins over many seeds, not criterion 8's five.

For seeds 0..N-1 the script trains ss-mfar, mfar and ss-mfar-no-kl on the
default benchmark data (the train split from data seed 0, the validation
split from data seed 1, as the acceptance suite's criteria 7 and 8 do)
and reads each run's best-epoch val_p_exp from its log record.  For each
baseline it prints every seed's margin of ss-mfar over it, the strict
win count, the count below criterion 8's -0.02 bound, the mean and the
median, and a paired bootstrap 95% interval of the mean margin
(BOOTSTRAP_RESAMPLES resamples of whole seeds, generator seed
BOOTSTRAP_SEED).  It ends with one JSON line of every number.  20 seeds
take about 90 s on a 2-vCPU machine.

    PYTHONPATH=src python3 scripts/seed_study.py [--seeds 20]
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from affectmtl.config import RunConfig, SynthFileConfig
from affectmtl.data_model import generate_synthetic
from affectmtl.losses import TrainMode
from affectmtl.trainer import pack_dataset, run_training

# Empty: the default generator and run configs.  The smoke test shrinks them.
SYNTH_OVERRIDES: dict = {}
RUN_OVERRIDES: dict = {}
BASELINES = (TrainMode.SUPERVISED, TrainMode.SEMI_NO_KL)
BOUND = -0.02
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def best_p_exp(seeds: int) -> dict[str, list[float]]:
    """Per mode, each seed's val_p_exp at its best epoch."""
    synth = SynthFileConfig(**SYNTH_OVERRIDES)
    train = pack_dataset(*generate_synthetic(synth.train_config(), seed=0, prefix="train"))
    val = pack_dataset(*generate_synthetic(synth.val_config(), seed=1, prefix="val"))
    scores = {}
    for mode in (TrainMode.SEMI, *BASELINES):
        scores[mode.value] = []
        for seed in range(seeds):
            result = run_training(train, val, RunConfig(mode=mode, seed=seed, **RUN_OVERRIDES))
            scores[mode.value].append(result.reports[result.best_epoch]["val_p_exp"])
    return scores


def bootstrap_interval(margins: np.ndarray) -> list[float]:
    """The 2.5% and 97.5% quantiles of the mean margin over resampled seeds."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(margins), (BOOTSTRAP_RESAMPLES, len(margins)))
    return np.quantile(margins[picks].mean(axis=1), [0.025, 0.975]).tolist()


def summarize(semi: list[float], baseline: list[float]) -> dict:
    margins = np.subtract(semi, baseline)
    return {
        "margins": margins.tolist(),
        "strict_wins": int(np.count_nonzero(margins > 0.0)),
        "below_bound": int(np.count_nonzero(margins < BOUND)),
        "mean": float(margins.mean()),
        "median": float(np.median(margins)),
        "ci95": bootstrap_interval(margins),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds 0..N-1 (default 20)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    scores = best_p_exp(args.seeds)
    semi = scores[TrainMode.SEMI.value]
    result = {"seeds": args.seeds, "p_exp": scores}
    for baseline in BASELINES:
        summary = summarize(semi, scores[baseline.value])
        result[f"vs_{baseline.value}"] = summary
        print(f"ss-mfar over {baseline.value}, val_p_exp margin per seed:")
        for seed, margin in enumerate(summary["margins"]):
            print(f"  seed {seed:2d}: {margin:+.3f}")
        low, high = summary["ci95"]
        print(
            f"  strict wins {summary['strict_wins']}/{args.seeds}, "
            f"below {BOUND} {summary['below_bound']}/{args.seeds}, "
            f"mean {summary['mean']:+.3f}, median {summary['median']:+.3f}, "
            f"bootstrap 95% interval of the mean [{low:+.3f}, {high:+.3f}]"
        )
    for mode, values in scores.items():
        print(f"mean val_p_exp {mode}: {np.mean(values):.3f}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
