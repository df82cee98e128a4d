"""Split a training step's cost into a fixed part and a per-row part.

For each mode and batch size, the script times run_training on
default-size `synth` data at HIDDEN_WIDTH for EPOCHS epochs, best of
REPEATS runs, and prints milliseconds per step: the run's wall time,
validation included, over its number of steps.  Per mode it then prints
the intercept and the per-row slope of the line through the two batch
sizes of FIT_BATCHES, and it ends with one JSON line of every number.

    PYTHONPATH=src python3 scripts/step_cost.py
"""

from __future__ import annotations

import json
import time

from affectmtl.config import RunConfig, SynthFileConfig
from affectmtl.data_model import generate_synthetic
from affectmtl.losses import TrainMode
from affectmtl.trainer import pack_dataset, run_training

SYNTH_SIZES = {"train_count": 2000, "val_count": 500, "image_size": 16}
HIDDEN_WIDTH = 64
MODES = (TrainMode.SEMI, TrainMode.SUPERVISED)
BATCH_SIZES = (8, 16, 64, 256)
FIT_BATCHES = (8, 64)
EPOCHS = 5
REPEATS = 3


def step_ms(train, val, config: RunConfig) -> float:
    """Best of REPEATS run_training wall times, in ms per step."""
    steps = config.epochs * -(-len(train) // config.batch_size)
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run_training(train, val, config)
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best / steps


def sweep() -> dict:
    """Per mode: ms per step at each batch size, and the line through
    FIT_BATCHES as an intercept in ms and a slope in µs per row."""
    synth = SynthFileConfig(**SYNTH_SIZES)
    train = pack_dataset(*generate_synthetic(synth.train_config(), 0))
    val = pack_dataset(*generate_synthetic(synth.val_config(), 1))
    result = {}
    for mode in MODES:
        ms = {
            batch: step_ms(
                train,
                val,
                RunConfig(
                    epochs=EPOCHS, batch_size=batch, mode=mode, seed=0, hidden_width=HIDDEN_WIDTH
                ),
            )
            for batch in BATCH_SIZES
        }
        low, high = FIT_BATCHES
        slope = (ms[high] - ms[low]) / (high - low)
        result[mode.value] = {
            "ms_per_step": ms,
            "intercept_ms": ms[low] - slope * low,
            "per_row_us": 1000.0 * slope,
        }
    return result


def main() -> dict:
    result = sweep()
    for mode, numbers in result.items():
        for batch, ms in numbers["ms_per_step"].items():
            print(f"{mode} batch {batch}: {ms:.3f} ms per step")
        print(
            f"{mode}: {numbers['intercept_ms']:.3f} ms + {numbers['per_row_us']:.2f} µs per row"
            f" (line through batch {FIT_BATCHES[0]} and {FIT_BATCHES[1]})"
        )
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
