import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import affectmtl
from affectmtl.cli import CURVE_COLUMNS, main
from affectmtl.config import parse_run_config
from affectmtl.data_model import load_manifest
from affectmtl.network import PARAM_FIELDS, load_checkpoint
from affectmtl.trainer import parse_epoch_log

SMALL_SYNTH = "train_count=60\nval_count=24\nimage_size=8\n"
SMALL_RUN = "epochs=2\nbatch_size=16\nhidden_width=8\n"


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = root / "synth.cfg"
    cfg.write_text(SMALL_SYNTH)
    assert run_cli("synth", "--out", root / "d", "--config", cfg, "--seed", "0") == 0
    return root / "d"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    root = tmp_path_factory.mktemp("run")
    cfg = root / "run.cfg"
    cfg.write_text(SMALL_RUN)
    out = root / "out"
    assert run_cli("train", "--data", data_dir, "--config", cfg, "--out", out) == 0
    return out


def _file_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class TestSynth:
    def test_writes_both_splits(self, data_dir):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "val.csv").exists()
        train = load_manifest(data_dir / "train.csv")
        val = load_manifest(data_dir / "val.csv")
        assert len(train) == 60
        assert len(val) == 24

    def test_prints_stats_for_both_splits(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=10\nval_count=5\nimage_size=8\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "train:" in out and "val:" in out
        assert "samples: 10" in out and "samples: 5" in out
        assert "expression class counts:" in out

    def test_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=30\nval_count=10\nimage_size=8\n")
        for d in ("a", "b"):
            assert run_cli("synth", "--out", tmp_path / d, "--config", cfg, "--seed", "5") == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "val.csv").read_bytes() == (b / "val.csv").read_bytes()
        sample = "images/train_00000.pgm"
        assert (a / sample).read_bytes() == (b / sample).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=30\nval_count=10\nimage_size=8\n")
        run_cli("synth", "--out", tmp_path / "a", "--config", cfg, "--seed", "0")
        run_cli("synth", "--out", tmp_path / "b", "--config", cfg, "--seed", "1")
        assert (tmp_path / "a/train.csv").read_bytes() != (tmp_path / "b/train.csv").read_bytes()

    def test_zero_count_header_only(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=0\nval_count=0\nimage_size=8\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 0
        lines = (tmp_path / "d/train.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("image,valence,arousal,expression,au1")

    def test_default_masking_rates(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=2000\nval_count=0\nimage_size=8\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 0
        dataset = load_manifest(tmp_path / "d/train.csv")
        assert len(dataset) == 2000
        exp_missing = np.count_nonzero(dataset.gold_exp == -1) / 2000
        va_missing = np.count_nonzero(dataset.gold_va[:, 0] == -5.0) / 2000
        au_missing = np.count_nonzero(dataset.gold_au[:, 0] == -1) / 2000
        assert abs(exp_missing - 0.4) < 0.03
        assert abs(va_missing - 0.2) < 0.03
        assert abs(au_missing - 0.2) < 0.03

    @pytest.mark.parametrize("key", ["class_priors", "val_class_priors"])
    def test_bad_priors_error_names_their_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(f"{key}=" + ",".join(["1e308"] * 8) + "\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"affectmtl: error: {key} must be non-negative with a finite sum > 0, got "
        )
        assert not (tmp_path / "d").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("bogus_key=1\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 2

    def test_rerun_matches_fresh_directory(self, tmp_path):
        """A second synth into the same directory, with smaller images,
        rewrites every file in place to the bytes a fresh directory gets."""
        big = tmp_path / "big.cfg"
        big.write_text("train_count=30\nval_count=10\n")
        small = tmp_path / "small.cfg"
        small.write_text("train_count=30\nval_count=10\nimage_size=8\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affectmtl.__file__)))

        def synth(out, cfg):
            subprocess.run(
                [sys.executable, "-m", "affectmtl.cli", "synth", "--out", out, "--config", cfg],
                env=env, check=True, capture_output=True, timeout=120,
            )

        synth(tmp_path / "again", big)
        synth(tmp_path / "again", small)
        synth(tmp_path / "fresh", small)

        again, fresh = _file_bytes(tmp_path / "again"), _file_bytes(tmp_path / "fresh")
        assert len(fresh) == 2 + 40
        assert again == fresh

    def test_unwritable_image_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=3\nval_count=2\nimage_size=8\n")
        blocked = tmp_path / "d" / "images" / "train_00001.pgm"
        blocked.mkdir(parents=True)
        _exits_2_naming(["synth", "--out", tmp_path / "d", "--config", cfg], blocked, capsys)

    def test_size_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        """Petabytes of images fail at once, with one line and no traceback."""
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("image_size=1000000\n")
        capsys.readouterr()
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("affectmtl: error: Unable to allocate")
        assert not (tmp_path / "d").exists()


# Runs `affectmtl synth` with pgm writes counted: the process ends with
# os._exit(9), as a kill would end it, when write_pgm is called after
# sys.argv[1] images have been written.
_KILLING_SYNTH = """
import os, sys
import affectmtl.data_model as data_model
from affectmtl.cli import main

limit, written, real = int(sys.argv[1]), 0, data_model.write_pgm

def write_pgm(path, image):
    global written
    if written == limit:
        os._exit(9)
    real(path, image)
    written += 1

data_model.write_pgm = write_pgm
sys.exit(main(sys.argv[2:]))
"""


class TestKilledSynth:
    """A synth killed while it rewrites a dataset leaves one that train
    refuses, or, when no image write was cut short, one complete synth."""

    TRAIN, VAL = 100, 40

    @pytest.fixture(scope="class")
    def synths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("killed")
        cfg = root / "synth.cfg"
        cfg.write_text(f"train_count={self.TRAIN}\nval_count={self.VAL}\nimage_size=8\n")
        for seed in (0, 5):
            assert run_cli("synth", "--out", root / f"seed{seed}", "--config", cfg,
                           "--seed", seed) == 0
        return root, cfg

    @pytest.mark.parametrize("written", [0, 1, 60, 99, 100, 101, 120, 139, 140, 10**6])
    def test_train_refuses_or_reads_a_whole_synth(self, synths, written, tmp_path, capsys):
        root, cfg = synths
        data = tmp_path / "data"
        shutil.copytree(root / "seed0", data)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affectmtl.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _KILLING_SYNTH, str(written), "synth", "--out", str(data),
             "--config", str(cfg), "--seed", "5"],
            env=env, capture_output=True, timeout=120,
        )
        killed = written < self.TRAIN + self.VAL
        assert proc.returncode == (9 if killed else 0), proc.stderr
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("epochs=1\nbatch_size=16\nhidden_width=4\n")
        capsys.readouterr()
        code = run_cli("train", "--data", data, "--config", run_cfg, "--out", tmp_path / "out")
        err = capsys.readouterr().err.splitlines()
        if killed:
            missing = data / ("train.csv" if written < self.TRAIN else "val.csv")
            assert code == 2
            assert len(err) == 1 and str(missing) in err[0], err
            assert not missing.exists()
        else:
            assert code == 0 and err == []
            assert _file_bytes(data) == _file_bytes(root / "seed5")


class TestStats:
    def test_prints_summary(self, data_dir, capsys):
        assert run_cli("stats", "--manifest", data_dir / "train.csv") == 0
        out = capsys.readouterr().out
        assert "samples: 60" in out
        assert "expression valid/invalid:" in out
        assert "action-unit positives:" in out

    def test_missing_manifest_exits_2(self, tmp_path):
        assert run_cli("stats", "--manifest", tmp_path / "nope.csv") == 2


class TestTrain:
    def test_writes_artefacts(self, run_dir):
        assert (run_dir / "log.jsonl").exists()
        assert (run_dir / "config_resolved.txt").exists()
        assert (run_dir / "checkpoint.npz").exists()

    def test_log_has_one_record_per_epoch(self, run_dir):
        records = parse_epoch_log((run_dir / "log.jsonl").read_text())
        assert [r["epoch"] for r in records] == [0, 1]

    def test_resolved_config_round_trips(self, run_dir):
        text = (run_dir / "config_resolved.txt").read_text()
        config = parse_run_config(text)
        assert config.epochs == 2
        assert config.batch_size == 16
        assert config.hidden_width == 8

    def test_checkpoint_loads(self, run_dir):
        params, model_config, _ = load_checkpoint(run_dir / "checkpoint.npz")
        assert model_config.image_height == 8
        assert model_config.hidden_width == 8
        assert params.w1.shape == (64, 8)

    def test_prints_best_line(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nbatch_size=16\nhidden_width=4\n")
        assert run_cli("train", "--data", data_dir, "--config", cfg,
                       "--out", tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert out.startswith("best_epoch=0 val_p_mtl=")
        float(out.split("val_p_mtl=")[1])  # parses as a number

    def test_supervised_mode_logs_zero_ss_terms(self, tmp_path):
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text(
            "train_count=30\nval_count=10\nimage_size=8\n"
            "exp_mask_rate=0.0\nva_mask_rate=0.0\nau_mask_rate=0.0\n"
        )
        run_cli("synth", "--out", tmp_path / "d", "--config", synth_cfg)
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text("epochs=2\nbatch_size=16\nhidden_width=4\nmode=mfar\n")
        assert run_cli("train", "--data", tmp_path / "d", "--config", run_cfg,
                       "--out", tmp_path / "out") == 0
        for record in parse_epoch_log((tmp_path / "out/log.jsonl").read_text()):
            assert record["l_exp_unsup"] == 0.0
            assert record["l_exp_cons"] == 0.0
            assert record["l_exp"] == record["l_exp_sup"]

    def test_empty_validation_split_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=30\nval_count=0\nimage_size=8\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 0
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(SMALL_RUN)
        capsys.readouterr()
        assert run_cli("train", "--data", tmp_path / "d", "--config", run_cfg,
                       "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "validation set is empty" in err
        assert "Traceback" not in err

    def test_failed_checkpoint_write_leaves_no_partial_file(
        self, data_dir, tmp_path, monkeypatch
    ):
        import affectmtl.network as network

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(network.np, "savez", torn_savez)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert run_cli("train", "--data", data_dir, "--config", cfg, "--out", out) == 2
        assert not (out / "checkpoint.npz").exists()
        assert sorted(p.name for p in out.iterdir()) == ["config_resolved.txt", "log.jsonl"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "epochs=3\nbatch_size=16\nhidden_width=4\nlr_base=1e200\nlr_heads=1e200\n"
        )
        assert run_cli("train", "--data", data_dir, "--config", cfg,
                       "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "divergence" in err
        assert "epoch" in err and "batch" in err

    def test_divergence_stderr_is_one_line(self, data_dir, tmp_path):
        """In a fresh interpreter that shows every warning once, a diverging
        run's stderr is its exit-3 message alone: no NumPy warnings."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "epochs=3\nbatch_size=16\nhidden_width=4\nlr_base=1e300\nlr_heads=1e300\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(affectmtl.__file__)),
            PYTHONWARNINGS="default",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "affectmtl.cli", "train", "--data", str(data_dir),
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("affectmtl: divergence: "), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_width_too_large_to_allocate_exits_2(self, data_dir, tmp_path, capsys):
        """A first layer of petabytes fails at once, with one line and no
        traceback, before any output is written."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nhidden_width=10000000000000\n")
        capsys.readouterr()
        assert run_cli("train", "--data", data_dir, "--config", cfg,
                       "--out", tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("affectmtl: error: Unable to allocate")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key",
        [("train", "hidden_width"), ("train", "crop_padding"),
         ("synth", "train_count"), ("synth", "val_count")],
    )
    def test_size_past_numpys_largest_array_exits_2(
        self, data_dir, tmp_path, capsys, command, key
    ):
        """NumPy refuses such a size with a ValueError before it allocates
        anything; the CLI reports it in one line, with no traceback, and
        writes nothing."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"epochs=1\n{key}=1000000000000000000\n" if command == "train"
                       else f"{key}=1000000000000000000\n")
        data = ("--data", data_dir) if command == "train" else ()
        capsys.readouterr()
        assert run_cli(command, *data, "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("affectmtl: error: "), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_data_dir_exits_2(self, tmp_path):
        assert run_cli("train", "--data", tmp_path / "nope", "--out", tmp_path / "out") == 2


class TestEvaluate:
    def test_prints_score_record(self, data_dir, run_dir, capsys):
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", run_dir / "checkpoint.npz") == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {
            "p_va", "p_exp", "p_au", "p_mtl", "ccc_valence", "ccc_arousal",
            "exp_f1", "au_f1", "va_degenerate",
        }
        assert record["p_mtl"] == pytest.approx(
            record["p_va"] + record["p_exp"] + record["p_au"], abs=1e-12
        )
        assert len(record["exp_f1"]) == 8
        assert len(record["au_f1"]) == 12
        assert record["va_degenerate"] is False

    def test_deterministic_output(self, data_dir, run_dir, capsys):
        run_cli("evaluate", "--data", data_dir, "--checkpoint", run_dir / "checkpoint.npz")
        first = capsys.readouterr().out
        run_cli("evaluate", "--data", data_dir, "--checkpoint", run_dir / "checkpoint.npz")
        assert capsys.readouterr().out == first

    def test_alternate_manifest(self, data_dir, run_dir, capsys):
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", run_dir / "checkpoint.npz",
                       "--manifest", "train.csv") == 0
        record = json.loads(capsys.readouterr().out)
        assert record["p_mtl"] == pytest.approx(
            record["p_va"] + record["p_exp"] + record["p_au"], abs=1e-12
        )

    def test_untrained_checkpoint_scores_near_chance(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=0\nhidden_width=8\n")
        assert run_cli("train", "--data", data_dir, "--config", cfg,
                       "--out", tmp_path / "out") == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", tmp_path / "out/checkpoint.npz") == 0
        record = json.loads(capsys.readouterr().out)
        # Untrained heads cannot meaningfully rank 8 classes: macro F1 far
        # below a trained model, concordance near zero.
        assert record["p_exp"] < 0.5
        assert abs(record["p_va"]) < 0.5

    def test_config_hash_mismatch_exits_2(self, data_dir, run_dir, tmp_path, capsys):
        """A checkpoint beside a config_resolved.txt of another run config
        is refused with one line that names both hashes."""
        out = tmp_path / "out"
        shutil.copytree(run_dir, out)
        _, _, stored = load_checkpoint(out / "checkpoint.npz")
        text = (out / "config_resolved.txt").read_text(encoding="utf-8")
        edited = text.replace("seed=0\n", "seed=1\n")
        assert edited != text
        (out / "config_resolved.txt").write_text(edited, encoding="utf-8", newline="\n")
        other = hashlib.sha256(edited.encode("utf-8")).hexdigest()
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", out / "checkpoint.npz") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert stored in captured.err and other in captured.err

    def test_checkpoint_without_resolved_config_is_scored(self, data_dir, run_dir, tmp_path,
                                                          capsys):
        shutil.copy(run_dir / "checkpoint.npz", tmp_path / "checkpoint.npz")
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", run_dir / "checkpoint.npz") == 0
        beside = capsys.readouterr().out
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", tmp_path / "checkpoint.npz") == 0
        assert capsys.readouterr().out == beside

    def test_image_size_mismatch_exits_2(self, run_dir, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=5\nval_count=5\nimage_size=12\n")
        run_cli("synth", "--out", tmp_path / "d12", "--config", cfg)
        assert run_cli("evaluate", "--data", tmp_path / "d12",
                       "--checkpoint", run_dir / "checkpoint.npz") == 2

    def test_empty_manifest_exits_2(self, run_dir, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("train_count=5\nval_count=0\nimage_size=8\n")
        assert run_cli("synth", "--out", tmp_path / "d", "--config", cfg) == 0
        capsys.readouterr()
        assert run_cli("evaluate", "--data", tmp_path / "d",
                       "--checkpoint", run_dir / "checkpoint.npz") == 2
        err = capsys.readouterr().err
        assert "manifest val.csv has no samples" in err
        assert "expects" not in err and "Traceback" not in err

    def test_manifest_naming_a_directory_exits_2_naming_it(self, data_dir, run_dir, tmp_path, capsys):
        header, first, *rest = (data_dir / "val.csv").read_text().splitlines()
        manifest = tmp_path / "dir.csv"
        manifest.write_text("\n".join([header, "images" + first[first.index(","):], *rest]) + "\n")
        assert run_cli("evaluate", "--data", data_dir, "--manifest", manifest,
                       "--checkpoint", run_dir / "checkpoint.npz") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"affectmtl: error: [Errno 21] Is a directory: '{data_dir / 'images'}'\n"
        )

    def test_missing_checkpoint_exits_2(self, data_dir, tmp_path):
        assert run_cli("evaluate", "--data", data_dir,
                       "--checkpoint", tmp_path / "nope.npz") == 2


class TestCurves:
    def test_header_and_row_count(self, run_dir, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli("curves", "--log", run_dir / "log.jsonl", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CURVE_COLUMNS)
        assert len(lines) == 1 + 2  # header + one row per epoch

    def test_rows_carry_epoch_and_thresholds(self, run_dir, tmp_path):
        out = tmp_path / "curves.csv"
        run_cli("curves", "--log", run_dir / "log.jsonl", "--out", out)
        header, *rows = out.read_text().splitlines()
        cols = header.split(",")
        t_lo, t_hi = cols.index("T0"), cols.index("T7")
        for i, row in enumerate(rows):
            cells = row.split(",")
            assert cells[0] == str(i)
            for t in cells[t_lo : t_hi + 1]:
                assert 0.0 <= float(t) < 0.95

    def test_empty_log_gives_header_only(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text("")
        out = tmp_path / "curves.csv"
        assert run_cli("curves", "--log", log, "--out", out) == 0
        assert out.read_text().splitlines() == [",".join(CURVE_COLUMNS)]

    def test_corrupt_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("garbage\n")
        assert run_cli("curves", "--log", log, "--out", tmp_path / "c.csv") == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_log_exits_2(self, tmp_path):
        assert run_cli("curves", "--log", tmp_path / "nope.jsonl",
                       "--out", tmp_path / "c.csv") == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "command is required" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert main(["stats"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out



def _exits_2_naming(argv, named, capsys):
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert str(named) in err
    assert "Traceback" not in err


class TestCorruptInputs:
    """Each bad input exits 2 with a message that names it, no traceback."""

    @pytest.mark.parametrize(
        "case", ["truncated", "string params", "complex params", "non-scalar version"]
    )
    def test_checkpoint(self, case, data_dir, run_dir, tmp_path, capsys):
        good = run_dir / "checkpoint.npz"
        bad = tmp_path / "bad.npz"
        if case == "truncated":
            bad.write_bytes(good.read_bytes()[:200])
        else:
            with np.load(good) as data:
                arrays = dict(data)
            w1 = arrays["param_w1"]
            arrays.update({
                "string params": {"param_w1": w1.astype(str)},
                "complex params": {"param_w1": w1 + 1j},
                "non-scalar version": {"version": np.array([1, 1])},
            }[case])
            with open(bad, "wb") as fh:
                np.savez(fh, **arrays)
        _exits_2_naming(["evaluate", "--data", data_dir, "--checkpoint", bad], bad, capsys)

    @pytest.mark.parametrize("case", ["non-UTF-8", "NUL in image path"])
    def test_manifest(self, case, data_dir, run_dir, tmp_path, capsys):
        header, row, *_ = (data_dir / "val.csv").read_text().splitlines()
        if case == "non-UTF-8":
            row += "\xff"
        else:
            row = "images/a\0.pgm," + row.split(",", 1)[1]
        (tmp_path / "val.csv").write_bytes(f"{header}\n{row}\n".encode("latin-1"))
        (tmp_path / "images").symlink_to(data_dir / "images")
        argv = ["evaluate", "--data", tmp_path, "--checkpoint", run_dir / "checkpoint.npz"]
        _exits_2_naming(argv, tmp_path / "val.csv", capsys)

    def test_image_with_trailing_bytes(self, data_dir, run_dir, tmp_path, capsys):
        header, row, *_ = (data_dir / "val.csv").read_text().splitlines()
        image = row.split(",", 1)[0]
        (tmp_path / image).parent.mkdir(parents=True)
        (tmp_path / image).write_bytes((data_dir / image).read_bytes() + b"junk")
        (tmp_path / "val.csv").write_text(f"{header}\n{row}\n")
        argv = ["evaluate", "--data", tmp_path, "--checkpoint", run_dir / "checkpoint.npz"]
        named = f"{tmp_path / image}: expected 64 bytes of pixel data, got 68"
        _exits_2_naming(argv, named, capsys)

    @pytest.mark.parametrize(
        "changes",
        [
            {"l_va": "high"},
            {"thresholds": 0.5},
            {"val_p_au": 10**400},
            {"epoch": "0,1"},
            {"epoch": True},
            {"l_total": False},
            {"thresholds": [True] + [0.5] * 7},
            {"l_va": "1.5"},
        ],
        ids=[
            "non-numeric",
            "thresholds not a list",
            "overflowing number",
            "epoch not an int",
            "boolean epoch",
            "boolean loss",
            "boolean threshold",
            "numeric string",
        ],
    )
    def test_log_record(self, changes, run_dir, tmp_path, capsys):
        first = json.loads((run_dir / "log.jsonl").read_text().splitlines()[0])
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps({**first, **changes}) + "\n")
        _exits_2_naming(["curves", "--log", log, "--out", tmp_path / "c.csv"], log, capsys)

    @pytest.mark.parametrize(
        "text, named",
        [
            (b"\xfe\n", "run.cfg"),
            (b"seed=-1\n", "seed"),
            (b"rotation_max_deg=inf\n", "rotation_max_deg"),
        ],
    )
    def test_run_config(self, text, named, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(SMALL_RUN.encode() + text)
        argv = ["train", "--data", data_dir, "--config", cfg, "--out", tmp_path / "out"]
        _exits_2_naming(argv, named, capsys)

    def test_synth_priors_with_an_infinite_sum(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("class_priors=" + ",".join(["1e308"] * 8) + "\n")
        _exits_2_naming(["synth", "--out", tmp_path / "d", "--config", cfg], "class_priors", capsys)
        assert not (tmp_path / "d").exists()

    def test_negative_synth_seed(self, tmp_path, capsys):
        _exits_2_naming(["synth", "--out", tmp_path / "d", "--seed", "-1"], "--seed", capsys)
