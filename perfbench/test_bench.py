"""Smoke test of the benchmark itself, at toy size.

Every workload runs on a few hundred 8x8 samples for two epochs, traced
and untraced; the test asserts that every metric BENCHMARK.json names is
emitted and that the output check passes.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import types

import pytest

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RATIONALE = json.loads((run.ROOT / "perfbench" / "rationale.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def package():
    return run.load_package()


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_toy_workload_emits_every_metric(name, trace, tmp_path):
    line = run.measure(run.toy(run.WORKLOADS[name]), 0, 0.5, trace, out_dir=tmp_path)

    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    (result_file,) = (tmp_path / "results").glob("*.json")
    record = json.loads(result_file.read_text(encoding="utf-8"))
    assert record["error_rate"] == 0.0 and record["log_sha256"]
    assert {"logical_cpus", "affinity", "numpy", "blas", "tmp_dir_filesystem"} <= set(
        record["machine"]
    )
    if trace:
        assert record["absent_bindings"] == []
        # A traced run repeats a fixed number of times.
        assert line["attempted"] == run.traced_reps(run.WORKLOADS[name], 0.5, True) == 1
        values = {k: v["value"] for k, v in line["metrics"].items()}
        # The tracer is consistent: self times partition the windows.
        layer_self = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert layer_self == pytest.approx(values["trace.train_s"], rel=1e-9)
        assert values["trainer.steps"] > 0 and values["augmentation.rows"] > 0
    # The timed pieces cover the whole training window.
    for timed in record["runs"]:
        assert sum(s for s, _ in timed["train_pieces"]) == pytest.approx(timed["wall_s"])
        if not trace and name != "cli-roundtrip":
            assert len(timed["train_pieces"]) == run.TOY["epochs"] + 1
    # The wrappers are gone once the run ends.
    from affectmtl import trainer
    from affectmtl.augmentation import augment_views

    assert trainer.augment_views is augment_views


@pytest.mark.parametrize("name", ["sup-wide", "cli-roundtrip"])
def test_runs_on_one_commit_must_log_the_same_bytes(name, tmp_path):
    workload = run.toy(run.WORKLOADS[name])
    assert run.measure(workload, 1, 0.1, False, out_dir=tmp_path)["correct"]
    assert run.measure(workload, 2, 0.1, True, out_dir=tmp_path)["correct"]
    files = sorted((tmp_path / "results").glob("*.json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in files]
    assert len({r["log_sha256"] for r in records}) == 1
    # The traced run is set against the untraced one before it.
    untraced, traced = sorted(records, key=lambda r: r["trace"])
    check = traced["overhead_check"]
    assert check["untraced_train_s"] == untraced["result"]["metrics"]["train_s"]["value"]
    assert check["difference_s"] == check["traced_train_s"] - check["untraced_train_s"]
    assert isinstance(check["within_overhead"], bool)

    # A different earlier log on the same code fails every later run.
    records[0]["log_sha256"] = "0" * 64
    files[0].write_text(json.dumps(records[0]), encoding="utf-8")
    line = run.measure(workload, 3, 0.1, False, out_dir=tmp_path)
    assert not line["correct"] and line["failed"] == line["attempted"]


def test_determinism_check_flags_a_different_log(tmp_path):
    key = {"workload": "w", "code_id": "c", "spec": {}}
    (tmp_path / "w-1.json").write_text(json.dumps({"key": key, "log_sha256": "a"}))
    runs = [run.Run(log_sha256="a"), run.Run(log_sha256="b")]
    run.check_determinism(runs, tmp_path, key)
    assert runs[0].problems == [] and len(runs[1].problems) == 1


def _log(**overrides):
    record = {k: 0.5 for k in run.LOSS_FIELDS}
    record.update(epoch=0, val_p_exp=0.9, val_p_va=0.9, val_p_au=0.9, val_p_mtl=2.7)
    record.update(overrides)
    return json.dumps(record) + "\n"


def test_output_check_rejects_bad_logs():
    floors = run.CRITERION_7_FLOORS
    assert run.check_log(_log(), 1, floors)[1] == []
    assert run.check_log(_log(l_total=float("nan")), 1, floors)[1]
    assert run.check_log(_log(val_p_va=0.79), 1, floors)[1]
    assert run.check_log(_log(), 2, floors)[1]
    assert run.check_log("", 1, floors)[1]


def test_missing_binding_is_reported_absent():
    tracer = spans.Tracer()
    assert not tracer.wrap(types.ModuleType("fake"), "add_grads", "network.add_grads")
    assert tracer.absent == ["fake.add_grads"]
    metrics, _ = spans.layer_metrics(tracer, "trainer.run_training")
    assert metrics["network.add_grads_ms.n"] == (0, "count")


def test_percentile_tail_has_ten_samples_beyond():
    stats = spans.percentiles(list(range(1000)))
    assert stats["tail_pct"] == 99 and stats["n"] == 1000
    assert spans.percentiles([1.0] * 20)["tail_pct"] == 50


def test_rationale_covers_workloads_and_metrics():
    assert set(RATIONALE["workloads"]) == set(run.WORKLOADS) == {
        w["name"] for w in BENCHMARK["workloads"]
    }
    names = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for effect in RATIONALE["layer_effects"]:
        assert effect["workload"] in run.WORKLOADS
        assert effect["moves"] in names
        assert f"{effect['layer_metric']}.p50" in names or effect["layer_metric"] in names


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "semi-default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
