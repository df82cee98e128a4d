"""Smoke test of scripts/step_cost.py at toy size."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def step_cost():
    spec = importlib.util.spec_from_file_location("step_cost", ROOT / "scripts" / "step_cost.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_sweep(step_cost, monkeypatch, capsys):
    monkeypatch.setattr(step_cost, "SYNTH_SIZES", {"train_count": 24, "val_count": 8, "image_size": 8})
    monkeypatch.setattr(step_cost, "HIDDEN_WIDTH", 8)
    monkeypatch.setattr(step_cost, "BATCH_SIZES", (4, 6, 8))
    monkeypatch.setattr(step_cost, "FIT_BATCHES", (4, 8))
    monkeypatch.setattr(step_cost, "EPOCHS", 1)
    monkeypatch.setattr(step_cost, "REPEATS", 2)
    result = step_cost.main()
    assert list(result) == ["ss-mfar", "mfar"]
    for numbers in result.values():
        ms = numbers["ms_per_step"]
        assert list(ms) == [4, 6, 8] and all(value > 0 for value in ms.values())
        slope = (ms[8] - ms[4]) / 4
        assert numbers["per_row_us"] == pytest.approx(1000 * slope)
        assert numbers["intercept_ms"] == pytest.approx(ms[4] - 4 * slope)
    lines = capsys.readouterr().out.splitlines()
    assert "ss-mfar batch 4: " in lines[0] and lines[0].endswith(" ms per step")
    assert "(line through batch 4 and 8)" in lines[3]
    assert json.loads(lines[-1])["mfar"]["ms_per_step"].keys() == {"4", "6", "8"}


def test_steps_count_the_ragged_last_batch(step_cost, monkeypatch):
    """A 1 s run of 2 epochs over 24 rows in batches of 5 (5 steps an
    epoch) takes 100 ms per step."""
    clock = iter([0.0, 1.0])
    monkeypatch.setattr(step_cost, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(step_cost, "run_training", lambda *args: None)
    monkeypatch.setattr(step_cost, "REPEATS", 1)
    config = step_cost.RunConfig(epochs=2, batch_size=5)
    assert step_cost.step_ms(range(24), None, config) == 100.0
