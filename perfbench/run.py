#!/usr/bin/env python3
"""affectmtl training benchmark: end-to-end timings or per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload semi-default --seed 0 --seconds 35 --trace 0

The package is imported from `src/` of that checkout and nowhere else.  A
run repeats its workload while another repetition fits in `--seconds` (at
least once), checks every repetition's outputs, writes a result file under
`.perfbench_out/results/`, and prints one JSON line last: end-to-end
metrics with `--trace 0`, per-layer metrics from spans with `--trace 1`.

End-to-end times are seconds at a reference machine speed: each timed
piece (an epoch, a set-up, a CLI command) is rescaled by a fixed probe
timed just before and after it (see speed.py), because the load of other
tenants changes a shared machine's speed for minutes at a time.  The
unscaled seconds and the probes are kept in the result file.  A traced
run probes around each training window only, outside every span, and
repeats its workload a fixed number of times, so that its counts do not
depend on the machine's speed.

Every workload trains on the fixed synthetic benchmark data (data seeds 0
and 1, training seed 0): the determinism record requires every run of a
workload on one commit to produce the same epoch log, and the benchmark
data is never re-seeded.  `--seed` is recorded with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import spans
import speed
from machine import machine_record

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Criterion 7 of the acceptance suite: floors on the best epoch's scores.
CRITERION_7_FLOORS = (("p_exp", 0.80), ("p_va", 0.80), ("p_au", 0.70))
# In-process set-ups per run; setup_s is their median.
SETUP_REPS = 10
LOSS_FIELDS = ("l_exp_sup", "l_exp_unsup", "l_exp_cons", "l_au", "l_va", "l_exp", "l_total")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "train": in-process run_training; "cli": affectmtl commands
    mode: str = "ss-mfar"
    hidden_width: int = 64
    epochs: int = 30
    synth: tuple = ()              # SynthFileConfig overrides as (key, value) pairs
    floors: tuple = CRITERION_7_FLOORS
    rep_s: float = 16.0            # a repetition's usual wall seconds; fixes traced runs' count


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("semi-default", "train"),
        Workload("sup-wide", "train", mode="mfar", hidden_width=256, rep_s=18.0),
        Workload("cli-roundtrip", "cli", epochs=3, floors=(), rep_s=3.5),
    )
}

# A few hundred 8x8 samples for two epochs: exercises every code path in
# seconds.  Criterion 7's floors are defined on the full benchmark only.
TOY = {
    "synth": (("train_count", 240), ("val_count", 80), ("image_size", 8)),
    "epochs": 2,
    "floors": (),
}


def toy(workload: Workload) -> Workload:
    return replace(workload, **TOY)


@dataclass
class Run:
    """One repetition of a workload and what its output check found.

    wall_s is the run_training call (probes excluded) or the `affectmtl
    train` command.  train_pieces are (seconds, probe seconds) pairs that
    add up to wall_s: one per epoch plus the rest of run_training after the
    last validation where the epochs are visible, else one for the whole.
    """

    wall_s: float | None = None
    train_pieces: list = field(default_factory=list)
    samples: int = 0
    setup_piece: tuple | None = None
    log_sha256: str | None = None
    best: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def load_package():
    """Import affectmtl from this checkout's src/, or fail."""
    src = ROOT / "src"
    if not (src / "affectmtl" / "__init__.py").is_file():
        raise FileNotFoundError(f"no affectmtl package under {src}")
    sys.path.insert(0, str(src))
    import affectmtl

    if Path(affectmtl.__file__).resolve().parent != src / "affectmtl":
        raise ImportError(f"affectmtl imported from {affectmtl.__file__}, not {src}")
    return affectmtl


def code_id() -> str:
    """sha256 over the package sources: results are compared per code_id."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "affectmtl").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_log(text: str, epochs: int, floors) -> tuple[dict, list[str]]:
    """Best-epoch scores of an epoch log and the output-check failures.

    Every epoch must be present with finite losses; the best epoch (the
    first maximum of val_p_mtl, as the trainer picks it) must meet floors.
    """
    problems = []
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if len(records) != epochs:
        problems.append(f"log has {len(records)} epochs, expected {epochs}")
    for record in records:
        bad = [k for k in LOSS_FIELDS if not math.isfinite(float(record[k]))]
        if bad:
            problems.append(f"epoch {record['epoch']}: non-finite {bad}")
    if not records:
        return {}, problems + ["empty log"]
    top = max(records, key=lambda r: r["val_p_mtl"])
    best = {"epoch": top["epoch"]}
    best.update({k: top[f"val_{k}"] for k in ("p_exp", "p_va", "p_au", "p_mtl")})
    for key, floor in floors:
        if not best[key] >= floor:
            problems.append(f"best {key} {best[key]!r} < {floor}")
    return best, problems


def train_seconds(run: Run) -> float:
    """One repetition's training seconds at the reference machine speed.

    Each piece is rescaled by the probes around it; every second of the
    window is counted, set-up inside run_training and work after the last
    epoch included.
    """
    return sum(map(speed.rescaled, run.train_pieces))


class EpochClock:
    """Times each epoch and probes the machine between epochs.

    run_training validates once per epoch, so the return of evaluate_packed
    ends an epoch; the probe runs there, outside every epoch's time.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.marks: list[tuple[float, float, float]] = []  # (end, probe, resume)
        self._original = getattr(trainer, "evaluate_packed", None)

    def __enter__(self):
        original = self._original
        if original is not None:
            def marked(*args, **kwargs):
                result = original(*args, **kwargs)
                ended = time.perf_counter()
                probe_s = speed.probe()
                self.marks.append((ended, probe_s, time.perf_counter()))
                return result

            self.trainer.evaluate_packed = marked
        self.first_probe = speed.probe()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ended = time.perf_counter()
        self.wall_s = self.ended - self.started - sum(
            resume - end for end, _, resume in self.marks
        )
        self.last_probe = speed.probe()
        if self._original is not None:
            self.trainer.evaluate_packed = self._original

    def pieces(self, epochs: int) -> list[tuple[float, float]]:
        """(seconds, probe seconds) pieces that add up to wall_s."""
        if len(self.marks) != epochs:
            return [(self.wall_s, (self.first_probe + self.last_probe) / 2)]
        starts = [self.started] + [resume for _, _, resume in self.marks]
        ends = [end for end, _, _ in self.marks] + [self.ended]
        probes = [self.first_probe] + [probe_s for _, probe_s, _ in self.marks]
        probes.append(self.last_probe)
        return [
            (end - start, (probes[e] + probes[e + 1]) / 2)
            for e, (start, end) in enumerate(zip(starts, ends))
        ]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def repeat(seconds: float, once, times: int | None = None) -> list:
    """Call once() `times` times, or else at least once and again while
    another call fits in `seconds`."""
    if times is not None:
        return [once() for _ in range(times)]
    results = []
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        if now - began + (now - started) > seconds:
            return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_reps(workload: Workload, seconds: float, trace: bool) -> int | None:
    """A traced run's fixed repetition count: as many as fit in `seconds`
    at the workload's usual rep_s.  An untraced run repeats while time is left."""
    return max(1, int(seconds // workload.rep_s)) if trace else None


def run_in_process(workload: Workload, seconds: float, trace: bool, rss: dict):
    """run_training on data generated and packed in this process.

    Returns the repetitions and the set-ups' (seconds, probe seconds), and
    puts the peak RSS after the first set-ups and after training in rss;
    the set-ups after training do not count toward peak_rss_mb.
    A traced run times no epochs: its probes would land inside the spans.
    """
    from affectmtl import data_model, trainer
    from affectmtl.config import RunConfig, SynthFileConfig
    from affectmtl.losses import TrainMode

    synth = SynthFileConfig(**dict(workload.synth))
    setup = []

    def set_up():
        train_ds, train_images = data_model.generate_synthetic(
            synth.train_config(), 0, prefix="train"
        )
        val_ds, val_images = data_model.generate_synthetic(synth.val_config(), 1, prefix="val")
        return trainer.pack_dataset(train_ds, train_images), trainer.pack_dataset(
            val_ds, val_images
        )

    config = RunConfig(
        mode=TrainMode(workload.mode),
        seed=0,
        epochs=workload.epochs,
        hidden_width=workload.hidden_width,
    )

    def once() -> Run:
        run = Run(samples=workload.epochs * len(train))
        try:
            if trace:
                result, piece = speed.timed(
                    lambda: trainer.run_training(train, val, config, workers=1)
                )
                run.wall_s, run.train_pieces = piece[0], [piece]
            else:
                with EpochClock(trainer) as clock:
                    result = trainer.run_training(train, val, config, workers=1)
                run.wall_s = clock.wall_s
                run.train_pieces = clock.pieces(workload.epochs)
            log = trainer.format_epoch_log(result.reports)
            run.log_sha256 = sha256_text(log)
            run.best, run.problems = check_log(log, workload.epochs, workload.floors)
            # The kept parameters must reproduce the best epoch's score.
            rescored = trainer.evaluate_packed(result.best_params, val).p_mtl
            if run.best and rescored != run.best["p_mtl"]:
                run.problems.append(f"best params score {rescored!r}, log {run.best['p_mtl']!r}")
        except Exception as exc:  # a failing repetition is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            run.problems.append(f"raised {exc!r}")
        return run

    # Half the set-ups before training and half after, so that the median
    # spans the run rather than one moment of the machine's load.  No
    # set-up runs while an earlier data set is alive, so the peak RSS is
    # that of one data set, as in a real run.
    for _ in range(SETUP_REPS // 2):
        train = val = None
        (train, val), piece = speed.timed(set_up)
        setup.append(piece)
    rss["after_setup"] = peak_rss_mb()
    runs = repeat(seconds, once, traced_reps(workload, seconds, trace))
    rss["after_training"] = peak_rss_mb()
    train = val = None
    for _ in range(SETUP_REPS - SETUP_REPS // 2):
        setup.append(speed.timed(set_up)[1])
    return runs, setup


def _cli_command(cli, span, name: str, argv: list[str]) -> tuple[int, float, str]:
    """Run one `affectmtl` command in-process; returns (code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with span(f"cli.{name}"), redirect_stdout(out), redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, elapsed, out.getvalue()


CLI_OUTPUTS = (
    "data/train.csv", "data/val.csv",
    "run/log.jsonl", "run/checkpoint.npz", "run/config_resolved.txt", "run/curves.csv",
)


def cli_cycle(cli, span, workload: Workload, tmp: Path) -> Run:
    """synth, train, evaluate and curves in directory tmp."""
    from affectmtl.config import SynthFileConfig

    data, out = tmp / "data", tmp / "run"
    run = Run(samples=workload.epochs * SynthFileConfig(**dict(workload.synth)).train_count)
    synth_argv = ["synth", "--out", str(data)]
    if workload.synth:
        (tmp / "synth.cfg").write_text("".join(f"{k}={v}\n" for k, v in workload.synth))
        synth_argv += ["--config", str(tmp / "synth.cfg")]
    (tmp / "train.cfg").write_text(f"epochs={workload.epochs}\n")

    probes = [speed.probe()]
    code, synth_s, _ = _cli_command(cli, span, "synth", synth_argv)
    probes.append(speed.probe())
    codes = {"synth": code}
    codes["train"], run.wall_s, _ = _cli_command(
        cli, span, "train",
        ["train", "--data", str(data), "--config", str(tmp / "train.cfg"), "--out", str(out)],
    )
    probes.append(speed.probe())
    run.setup_piece = (synth_s, (probes[0] + probes[1]) / 2)
    run.train_pieces = [(run.wall_s, (probes[1] + probes[2]) / 2)]
    codes["evaluate"], _, scored = _cli_command(
        cli, span, "evaluate",
        ["evaluate", "--data", str(data), "--checkpoint", str(out / "checkpoint.npz")],
    )
    codes["curves"], _, _ = _cli_command(
        cli, span, "curves",
        ["curves", "--log", str(out / "log.jsonl"), "--out", str(out / "curves.csv")],
    )
    failed = {name: code for name, code in codes.items() if code != 0}
    if failed:
        run.problems.append(f"non-zero exit codes {failed}")
        return run

    log = (out / "log.jsonl").read_text(encoding="utf-8")
    run.log_sha256 = sha256_text(log)
    run.best, run.problems = check_log(log, workload.epochs, workload.floors)
    p_mtl = json.loads(scored)["p_mtl"]
    if run.best and p_mtl != run.best["p_mtl"]:
        run.problems.append(f"evaluate p_mtl {p_mtl!r} != log best {run.best['p_mtl']!r}")
    rows = (out / "curves.csv").read_text(encoding="utf-8").splitlines()
    if len(rows) != workload.epochs + 1:
        run.problems.append(f"curves has {len(rows)} lines, expected {workload.epochs + 1}")
    return run


def run_cli(workload: Workload, seconds: float, trace: bool, tmp_root: Path, span):
    """Repeat the CLI round trip; setup_s is each cycle's `synth` command.

    Cycle k of every run writes into the same directory, so `synth`
    rewrites existing files and the disk used stays bounded.  Deleting is
    not an option: on a filesystem mounted with online discard, files
    created in the minute after a large delete are written up to ten
    times slower, so each run would pay for the one before it.
    """
    from affectmtl import cli

    # As shipped: the CLI picks its own augmentation thread count.
    os.environ.pop("SSMTL_THREADS", None)
    cycles = 0

    def once() -> Run:
        nonlocal cycles
        tmp = tmp_root / workload.name / f"cycle-{cycles}"
        cycles += 1
        try:
            # Outputs a cycle checks must come from this cycle.
            for stale in CLI_OUTPUTS:
                (tmp / stale).unlink(missing_ok=True)
            (tmp / "data").mkdir(parents=True, exist_ok=True)
            return cli_cycle(cli, span, workload, tmp)
        except Exception as exc:  # a failing cycle is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return Run(problems=[f"raised {exc!r}"])

    runs = repeat(seconds, once, traced_reps(workload, seconds, trace))
    return runs, [r.setup_piece for r in runs if r.setup_piece is not None]


def check_determinism(runs: list[Run], results_dir: Path, key: dict) -> None:
    """Every run of one workload on one code_id must log the same bytes.

    The reference is the earliest result file with the same key, else this
    process's first hashed run.
    """
    reference = None
    for path in sorted(results_dir.glob(f"{key['workload']}-*.json")):
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if previous.get("key") == key and previous.get("log_sha256"):
            reference = previous["log_sha256"]
            break
    for run in runs:
        if run.log_sha256 is None:
            continue
        if reference is None:
            reference = run.log_sha256
        elif run.log_sha256 != reference:
            run.problems.append(f"epoch log sha256 {run.log_sha256} != {reference}")


def untraced_train_s(results_dir: Path, key: dict) -> float | None:
    """Median train_s of the earlier untraced result files with this key."""
    values = []
    for path in results_dir.glob(f"{key['workload']}-*-trace0.json"):
        try:
            previous = json.loads(path.read_text(encoding="utf-8"))
            if previous.get("key") == key and previous["result"]["correct"]:
                values.append(previous["result"]["metrics"]["train_s"]["value"])
        except (OSError, ValueError, KeyError):
            continue
    return statistics.median(values) if values else None


def overhead_check(metrics: dict, results_dir: Path, key: dict) -> dict:
    """The traced train_s against the untraced one, and the difference
    against the measured cost of the wrappers inside the window."""
    traced = metrics["trace.train_s"][0]
    overhead = metrics["trace.overhead_s"][0]
    untraced = untraced_train_s(results_dir, key)
    check = {"traced_train_s": traced, "untraced_train_s": untraced, "overhead_s": overhead}
    if untraced is not None:
        check["difference_s"] = traced - untraced
        check["within_overhead"] = abs(traced - untraced) <= overhead
    return check


def end_to_end(runs: list[Run], setup: list, peak_mb: float) -> dict:
    timed = [r for r in runs if r.train_pieces]
    return {
        "setup_s": (statistics.median(map(speed.rescaled, setup)), "s"),
        "train_s": (statistics.median(train_seconds(r) for r in timed), "s"),
        "samples_per_s": (statistics.median(r.samples / train_seconds(r) for r in timed), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT
) -> dict:
    """Run one workload and return the result line; writes the result file."""
    tmp_root = out_dir / "tmp"
    results_dir = out_dir / "results"
    for d in (tmp_root, results_dir):
        d.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    rss: dict = {}
    if tracer:
        tracer.install()
    try:
        if workload.kind == "cli":
            runs, setup = run_cli(workload, seconds, trace, tmp_root, span)
        else:
            runs, setup = run_in_process(workload, seconds, trace, rss)
    finally:
        if tracer:
            tracer.uninstall()
    rss.setdefault("after_training", peak_rss_mb())

    # Round-tripped through JSON so that it compares equal to a stored key.
    key = json.loads(json.dumps(
        {"workload": workload.name, "code_id": code_id(), "spec": asdict(workload)}
    ))
    check_determinism(runs, results_dir, key)
    if not any(r.wall_s is not None for r in runs) or not setup:
        raise RuntimeError(f"{workload.name}: no repetition completed")
    details = {}
    if tracer:
        # Each window's probes rescale its spans, as they do train_s.
        scales = [speed.REFERENCE_S / r.train_pieces[0][1] for r in runs if r.train_pieces]
        metrics, details = spans.layer_metrics(
            tracer, "cli.train" if workload.kind == "cli" else "trainer.run_training", scales
        )
    else:
        metrics = end_to_end(runs, setup, rss["after_training"])
    failed = sum(1 for r in runs if r.problems)
    line = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    stem = f"{workload.name}-{time.time_ns()}-seed{seed}-trace{int(trace)}"
    record = {
        "key": key,
        "seed": seed,
        "trace": bool(trace),
        "seconds": seconds,
        "error_rate": failed / len(runs),
        "log_sha256": next((r.log_sha256 for r in runs if r.log_sha256), None),
        "runs": [asdict(r) for r in runs],
        "setup_pieces": setup,
        "reference_probe_s": speed.REFERENCE_S,
        "result": line,
        "tail_percentiles": details,
        "peak_rss_mb_at": {**rss, "end": peak_rss_mb()},
        "absent_bindings": tracer.absent if tracer else [],
        "machine": machine_record(tmp_root),
    }
    if tracer:
        spans_path = out_dir / "spans" / f"{stem}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, count) in enumerate(tracer.spans):
                fh.write(json.dumps([index, name, start, end, parent, count]) + "\n")
        record["spans_file"] = str(spans_path.relative_to(out_dir))
        record["overhead_check"] = overhead_check(metrics, results_dir, key)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return line


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    line = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
