"""Smoke test of scripts/seed_study.py at toy size."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def seed_study():
    spec = importlib.util.spec_from_file_location("seed_study", ROOT / "scripts" / "seed_study.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_study(seed_study, monkeypatch, capsys):
    monkeypatch.setattr(
        seed_study, "SYNTH_OVERRIDES", {"train_count": 24, "val_count": 8, "image_size": 8}
    )
    monkeypatch.setattr(
        seed_study, "RUN_OVERRIDES", {"epochs": 2, "batch_size": 8, "hidden_width": 4}
    )
    monkeypatch.setattr(seed_study, "BOOTSTRAP_RESAMPLES", 200)
    result = seed_study.main(["--seeds", "3"])
    scores = result["p_exp"]
    assert list(scores) == ["ss-mfar", "mfar", "ss-mfar-no-kl"]
    assert all(len(values) == 3 for values in scores.values())
    for baseline in ("mfar", "ss-mfar-no-kl"):
        summary = result[f"vs_{baseline}"]
        margins = [a - b for a, b in zip(scores["ss-mfar"], scores[baseline])]
        assert summary["margins"] == margins
        assert summary["strict_wins"] == sum(m > 0.0 for m in margins)
        assert summary["below_bound"] == sum(m < -0.02 for m in margins)
        assert summary["mean"] == pytest.approx(np.mean(margins))
        assert summary["median"] == pytest.approx(np.median(margins))
        low, high = summary["ci95"]
        assert min(margins) <= low <= high <= max(margins)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ss-mfar over mfar, val_p_exp margin per seed:"
    assert json.loads(lines[-1]) == result


def test_bootstrap_interval_is_seeded(seed_study):
    margins = np.array([0.03, -0.01, 0.0, 0.02, -0.04])
    first = seed_study.bootstrap_interval(margins)
    assert seed_study.bootstrap_interval(margins) == first
    assert seed_study.bootstrap_interval(np.full(4, 0.25)) == [0.25, 0.25]


def test_seed_count_must_be_positive(seed_study):
    with pytest.raises(SystemExit) as excinfo:
        seed_study.main(["--seeds", "0"])
    assert excinfo.value.code == 2
