"""Smoke test of scripts/ab_train.py at toy size: the repository timed
against itself, and the script's checks on fake runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab_train():
    spec = importlib.util.spec_from_file_location("ab_train", ROOT / "scripts" / "ab_train.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_against_itself(ab_train, monkeypatch, capsys):
    monkeypatch.setattr(ab_train, "SYNTH_SIZES", {"train_count": 40, "val_count": 16, "image_size": 8})
    monkeypatch.setattr(ab_train, "HIDDEN_WIDTH", 8)
    summary = ab_train.main([str(ROOT), str(ROOT), "--pairs", "2", "--epochs", "1"])
    assert 0 <= summary["b_wins"] <= 2 and summary["median_ratio"] > 0
    assert summary["A"]["min_s"] <= summary["A"]["median_s"]
    out = capsys.readouterr().out
    assert "A: median" in out and "B: median" in out and "of 2 pairs" in out
    # Each side is its own package, apart from the installed one.
    import affectmtl
    import affectmtl_ab_a
    import affectmtl_ab_b

    assert len({affectmtl.trainer, affectmtl_ab_a.trainer, affectmtl_ab_b.trainer}) == 3


def fake_runs(logs, seconds):
    """trainer_run stand-in: side A gets the first log and time, B the second."""
    sides = iter(zip(logs, seconds))

    def trainer_run(package, args):
        log, time_s = next(sides)
        return lambda: (time_s, log)

    return trainer_run


def test_counts_wins_and_ratio(ab_train, monkeypatch, capsys):
    monkeypatch.setattr(ab_train, "trainer_run", fake_runs(["log", "log"], [2.0, 1.5]))
    summary = ab_train.main([str(ROOT), str(ROOT), "--pairs", "3"])
    assert summary["b_wins"] == 3 and summary["median_ratio"] == 0.75
    assert "B faster in 3 of 3 pairs; median B/A time ratio 0.7500" in capsys.readouterr().out


def test_differing_logs_stop_the_comparison(ab_train, monkeypatch):
    monkeypatch.setattr(ab_train, "trainer_run", fake_runs(["log", "other"], [1.0, 1.0]))
    with pytest.raises(SystemExit, match="epoch log differs"):
        ab_train.main([str(ROOT), str(ROOT), "--pairs", "1"])
