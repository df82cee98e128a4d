"""Smoke test of scripts/ab_train.py at toy size: the repository timed
against itself, and the script's checks on fake runs."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

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
    summary = ab_train.main(
        [str(ROOT), str(ROOT), "--pairs", "2", "--epochs", "1", "--hidden-width", "8"]
    )
    assert 0 <= summary["b_wins"] <= 2 and summary["median_ratio"] > 0
    assert summary["A"]["min_s"] <= summary["A"]["median_s"]
    out = capsys.readouterr().out
    assert "A: median" in out and "B: median" in out and "of 2 pairs" in out
    # Each side is its own package, apart from the installed one.
    import affectmtl
    import affectmtl_ab_a
    import affectmtl_ab_b

    assert len({affectmtl.trainer, affectmtl_ab_a.trainer, affectmtl_ab_b.trainer}) == 3


def test_mode_and_width_default_to_ss_mfar_at_64(ab_train, monkeypatch):
    seen = []

    def trainer_run(package, args):
        seen.append((args.mode, args.hidden_width))
        return lambda: (1.0, "log")

    monkeypatch.setattr(ab_train, "trainer_run", trainer_run)
    ab_train.main([str(ROOT), str(ROOT), "--pairs", "1"])
    ab_train.main([str(ROOT), str(ROOT), "--pairs", "1", "--mode", "mfar", "--hidden-width", "256"])
    assert seen == [("ss-mfar", 64)] * 2 + [("mfar", 256)] * 2


@pytest.mark.parametrize("mode", ["mfar", "ss-mfar-no-kl"])
def test_mode_and_width_reach_the_run(ab_train, monkeypatch, mode):
    """A side trains in the mode and at the width its flags give."""
    monkeypatch.setattr(ab_train, "SYNTH_SIZES", {"train_count": 40, "val_count": 16, "image_size": 8})
    package = ab_train.load_tree(ROOT, "affectmtl_ab_" + mode.replace("-", "_"))
    trainer = package.trainer
    run_training = trainer.run_training
    runs = []

    def recording(train, val, config):
        result = run_training(train, val, config)
        runs.append((config.mode.value, result.model_config.hidden_width))
        return result

    monkeypatch.setattr(trainer, "run_training", recording)
    args = SimpleNamespace(epochs=1, mode=mode, hidden_width=6)
    ab_train.trainer_run(package, args)()
    assert runs == [(mode, 6)]


def fake_runs(logs, seconds):
    """trainer_run stand-in: side A gets the first log and list of times, B
    the second; each run returns its side's next time."""
    sides = iter(zip(logs, seconds))

    def trainer_run(package, args):
        log, times = next(sides)
        times = iter(times)
        return lambda: (next(times), log)

    return trainer_run


def test_counts_wins_and_ratio(ab_train, monkeypatch, capsys):
    monkeypatch.setattr(ab_train, "trainer_run", fake_runs(["log", "log"], [[2.0] * 3, [1.5] * 3]))
    summary = ab_train.main([str(ROOT), str(ROOT), "--pairs", "3"])
    assert summary["b_wins"] == 3 and summary["median_ratio"] == 0.75
    assert "B faster in 3 of 3 pairs; median B/A time ratio 0.7500" in capsys.readouterr().out


A_SECONDS = [1.0 + 0.02 * i for i in range(10)]  # median 1.09, quartiles 1.045 and 1.135


@pytest.mark.parametrize(
    "b_seconds, wins, met",
    [
        ([a - 0.2 for a in A_SECONDS[:9]] + [A_SECONDS[9] + 0.1], 9, True),
        ([a - 0.2 for a in A_SECONDS[:8]] + [a + 0.1 for a in A_SECONDS[8:]], 8, False),
        ([a - 0.01 for a in A_SECONDS], 10, False),  # median gap 0.01 inside A's IQR
    ],
)
def test_gain_claim_rule(ab_train, monkeypatch, capsys, b_seconds, wins, met):
    monkeypatch.setattr(ab_train, "trainer_run", fake_runs(["log", "log"], [A_SECONDS, b_seconds]))
    summary = ab_train.main([str(ROOT), str(ROOT), "--pairs", "10"])
    assert summary["A"]["quartiles_s"] == pytest.approx([1.045, 1.135])
    assert summary["b_wins"] == wins and summary["claim_met"] is met
    out = capsys.readouterr().out
    assert "A quartiles 1.0450 s, 1.1350 s" in out
    assert f"B faster in {wins} of 10 pairs" in out
    assert f"gain claim met: {'yes' if met else 'no'}" in out


def test_differing_logs_stop_the_comparison(ab_train, monkeypatch):
    monkeypatch.setattr(ab_train, "trainer_run", fake_runs(["log", "other"], [[1.0], [1.0]]))
    with pytest.raises(SystemExit, match="epoch log differs"):
        ab_train.main([str(ROOT), str(ROOT), "--pairs", "1"])
