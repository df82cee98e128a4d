"""Spans around calls into affectmtl, recorded from outside the package.

A Tracer replaces module attributes with timing wrappers.  It wraps the
binding the caller resolves: trainer.py imports its helpers with
`from .x import y`, so `affectmtl.trainer.augment_views` is wrapped, not
`affectmtl.augmentation.augment_views`.  Each span records its name,
start, end, parent and an optional count taken at the boundary.  Spans
stay in memory until the run ends.

A binding that no longer exists is listed in `Tracer.absent` and its
metrics read zero; the benchmark must keep measuring across refactors
that delete or reshape a helper.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, COUNT = range(5)


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape else 0


def _augment_counts(args, kwargs, result):
    rows = _rows(args[0] if args else kwargs.get("batch_images"))
    want = kwargs.get("want_strong", args[5] if len(args) > 5 else None)
    strong = int(np.count_nonzero(want)) if want is not None else 0
    return rows, strong


def _forward_rows(args, kwargs, result):
    return _rows(args[1] if len(args) > 1 else kwargs.get("images"))


def _partition_counts(args, kwargs, result):
    unlabeled = _rows(args[0] if args else kwargs.get("probs"))
    confident = getattr(result, "confident", None)
    return unlabeled, int(np.count_nonzero(confident)) if confident is not None else 0


def _written_bytes(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs.get("image")))


def _read_bytes(args, kwargs, result):
    return int(np.size(result))


def _returned(args, kwargs, result):
    return int(result)


# (module, attribute, span name, count taken at the boundary).  Several
# bindings of one function get one span name, so a layer reads the same
# whether the trainer or the CLI called it.
BINDINGS = (
    ("affectmtl.trainer", "run_training", "trainer.run_training", None),
    ("affectmtl.cli", "run_training", "trainer.run_training", None),
    ("affectmtl.trainer", "train_step", "trainer.train_step", None),
    ("affectmtl.trainer", "batch_loss_and_grads", "trainer.batch_loss_and_grads", None),
    ("affectmtl.trainer", "adam_step", "trainer.adam_step", None),
    ("affectmtl.trainer", "evaluate_packed", "trainer.evaluate_packed", None),
    ("affectmtl.cli", "evaluate_packed", "trainer.evaluate_packed", None),
    ("affectmtl.trainer", "make_epoch_schedule", "trainer.make_epoch_schedule", None),
    ("affectmtl.trainer", "pack_dataset", "trainer.pack_dataset", None),
    ("affectmtl.cli", "pack_dataset", "trainer.pack_dataset", None),
    ("affectmtl.trainer", "format_epoch_log", "trainer.format_epoch_log", None),
    ("affectmtl.cli", "format_epoch_log", "trainer.format_epoch_log", None),
    ("affectmtl.trainer", "augment_views", "augmentation.augment_views", _augment_counts),
    ("affectmtl.trainer", "forward_with_cache", "network.forward", _forward_rows),
    ("affectmtl.trainer", "backward", "network.backward", None),
    ("affectmtl.trainer", "add_grads", "network.add_grads", None),
    ("affectmtl.cli", "save_checkpoint", "network.save_checkpoint", None),
    ("affectmtl.cli", "load_checkpoint", "network.load_checkpoint", None),
    ("affectmtl.trainer", "weighted_cross_entropy_grad", "losses.supervised", None),
    ("affectmtl.trainer", "weighted_bce_grad", "losses.supervised", None),
    ("affectmtl.trainer", "ccc_loss_grad", "losses.supervised", None),
    ("affectmtl.trainer", "unsupervised_ce_grad", "losses.unsup_ce", None),
    ("affectmtl.trainer", "consistency_loss_grad", "losses.consistency", None),
    ("affectmtl.trainer", "update_class_stats", "pseudo_label.step", None),
    ("affectmtl.trainer", "adaptive_thresholds", "pseudo_label.step", None),
    ("affectmtl.trainer", "partition_confident", "pseudo_label.step", _partition_counts),
    ("affectmtl.trainer", "mtl_score", "metrics.mtl_score", None),
    ("affectmtl.data_model", "generate_synthetic", "data_model.generate_synthetic", None),
    ("affectmtl.cli", "generate_synthetic", "data_model.generate_synthetic", None),
    ("affectmtl.cli", "write_dataset", "data_model.write_dataset", None),
    ("affectmtl.cli", "load_manifest", "data_model.load_manifest", None),
    ("affectmtl.cli", "load_images", "data_model.load_images", None),
    ("affectmtl.data_model", "write_pgm", "pgm.write_pgm", _written_bytes),
    ("affectmtl.data_model", "read_pgm", "pgm.read_pgm", _read_bytes),
    ("affectmtl.cli", "_workers", "cli.workers", _returned),
)

# The layers in the order the per-layer report lists them.
LAYERS = (
    "cli", "trainer", "augmentation", "network", "losses",
    "pseudo_label", "metrics", "data_model", "pgm",
)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _open(self, name):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        return record

    @contextmanager
    def span(self, name):
        """A span around code the benchmark itself runs, such as a CLI command."""
        record = self._open(name)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> bool:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return False
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                try:
                    record[COUNT] = count(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, fn))
        return True

    def install(self) -> None:
        for module_name, attr, name, count in BINDINGS:
            self.wrap(importlib.import_module(module_name), attr, name, count)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured seconds one wrapped call adds over a direct call."""

    probe = types.SimpleNamespace(noop=lambda: None)
    direct = probe.noop
    started = time.perf_counter()
    for _ in range(calls):
        direct()
    plain = time.perf_counter() - started
    Tracer().wrap(probe, "noop", "probe")
    traced = probe.noop
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - started
    return max(wrapped - plain, 0.0) / calls


def percentiles(values) -> dict:
    """Median, tail percentile and sample count.

    The tail is the highest whole percentile with at least ten samples
    beyond it; with twenty samples or fewer no percentile above the
    median qualifies, and the tail reads as the median.
    """
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "ptail": 0.0, "tail_pct": 50, "n": 0}
    tail_pct = max(50, int(np.floor(100.0 - 1000.0 / n)))
    p50, ptail = np.percentile(np.asarray(values, dtype=np.float64), [50, tail_pct])
    return {"p50": float(p50), "ptail": float(ptail), "tail_pct": tail_pct, "n": n}


class SpanIndex:
    """Parent/child relations of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.step = [-1] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, record in enumerate(spans):
            self.by_name.setdefault(record[NAME], []).append(i)
            parent = record[PARENT]
            if parent >= 0:
                self.child_time[parent] += record[END] - record[START]
            if record[NAME] == "trainer.train_step":
                self.step[i] = i
            elif parent >= 0:
                self.step[i] = self.step[parent]

    def duration(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def named(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def per_step(self, name: str) -> list[float]:
        """Summed duration of the `name` spans inside each training step."""
        sums: dict[int, float] = {}
        for i in self.named(name):
            if self.step[i] >= 0:
                sums[self.step[i]] = sums.get(self.step[i], 0.0) + self.duration(i)
        return list(sums.values())

    def inside(self, window: int) -> range:
        """Indices of the spans nested in span `window`, itself included."""
        # One thread opens spans in stack order, so a subtree is a
        # contiguous run of indices.
        within = {window}
        end = window + 1
        while end < len(self.spans) and self.spans[end][PARENT] in within:
            within.add(end)
            end += 1
        return range(window, end)


MS, US = 1e3, 1e6
_UNITS = {MS: "ms", US: "us"}

# (metric, span name, sample, scale).  A sample is one call's duration,
# one train_step's self time, or the summed calls inside one train_step.
TIMINGS = (
    ("trainer.train_step_ms", "trainer.train_step", "call", MS),
    ("trainer.self_ms", "trainer.train_step", "self", MS),
    ("trainer.batch_loss_and_grads_ms", "trainer.batch_loss_and_grads", "call", MS),
    ("trainer.adam_step_ms", "trainer.adam_step", "call", MS),
    ("trainer.evaluate_packed_ms", "trainer.evaluate_packed", "call", MS),
    ("trainer.make_epoch_schedule_ms", "trainer.make_epoch_schedule", "call", MS),
    ("trainer.pack_dataset_ms", "trainer.pack_dataset", "call", MS),
    ("trainer.format_epoch_log_ms", "trainer.format_epoch_log", "call", MS),
    ("augmentation.augment_views_ms", "augmentation.augment_views", "call", MS),
    ("network.forward_ms", "network.forward", "call", MS),
    ("network.backward_ms", "network.backward", "call", MS),
    ("network.add_grads_ms", "network.add_grads", "call", MS),
    ("network.save_checkpoint_ms", "network.save_checkpoint", "call", MS),
    ("network.load_checkpoint_ms", "network.load_checkpoint", "call", MS),
    ("losses.supervised_ms", "losses.supervised", "step", MS),
    ("losses.unsup_ce_ms", "losses.unsup_ce", "step", MS),
    ("losses.consistency_ms", "losses.consistency", "step", MS),
    ("pseudo_label.ms", "pseudo_label.step", "step", MS),
    ("metrics.mtl_score_ms", "metrics.mtl_score", "call", MS),
    ("data_model.generate_synthetic_ms", "data_model.generate_synthetic", "call", MS),
    ("data_model.write_dataset_ms", "data_model.write_dataset", "call", MS),
    ("data_model.load_manifest_ms", "data_model.load_manifest", "call", MS),
    ("data_model.load_images_ms", "data_model.load_images", "call", MS),
    ("pgm.write_pgm_us", "pgm.write_pgm", "call", US),
    ("pgm.read_pgm_us", "pgm.read_pgm", "call", US),
    ("cli.synth_ms", "cli.synth", "call", MS),
    ("cli.train_ms", "cli.train", "call", MS),
    ("cli.evaluate_ms", "cli.evaluate", "call", MS),
    ("cli.curves_ms", "cli.curves", "call", MS),
)


def _samples(index: SpanIndex, name: str, sample: str) -> list[float]:
    if sample == "step":
        return index.per_step(name)
    measure = index.self_time if sample == "self" else index.duration
    return [measure(i) for i in index.named(name)]


def _counts(index: SpanIndex, name: str, slot: int | None = None) -> list:
    counts = [index.spans[i][COUNT] for i in index.named(name)]
    counts = [c for c in counts if c is not None]
    return [c[slot] for c in counts] if slot is not None else counts


def layer_metrics(tracer: Tracer, window: str, scales=()) -> tuple[dict, dict]:
    """Per-layer metrics and their details from one process's spans.

    `window` names the span whose duration is the workload's train_s; the
    run counts and the self-time shares are taken per window.  `scales`
    holds one factor per window that brings its seconds to the reference
    machine speed; trace.train_s and the self times are rescaled by it,
    the per-call timings are not.  Returns ({metric: (value, unit)},
    {metric: tail percentile used}).
    """
    index = SpanIndex(tracer.spans)
    metrics: dict[str, tuple] = {}
    tails: dict[str, int] = {}
    for metric, name, sample, scale in TIMINGS:
        stats = percentiles([v * scale for v in _samples(index, name, sample)])
        metrics[f"{metric}.p50"] = (stats["p50"], _UNITS[scale])
        metrics[f"{metric}.ptail"] = (stats["ptail"], _UNITS[scale])
        metrics[f"{metric}.n"] = (stats["n"], "count")
        tails[f"{metric}.ptail"] = stats["tail_pct"]

    windows = index.named(window)
    runs = max(1, len(windows))
    scales = list(scales)
    if len(scales) != len(windows):
        # A repetition that raised inside its window left no probes.
        scales = [float(np.median(scales)) if scales else 1.0] * len(windows)
    steps = index.named("trainer.train_step")
    in_steps = [i for i in index.named("network.forward") if index.step[i] >= 0]
    backward_in_steps = [i for i in index.named("network.backward") if index.step[i] >= 0]
    per_step = max(1, len(steps))
    unlabeled = sum(_counts(index, "pseudo_label.step", 0))
    confident = sum(_counts(index, "pseudo_label.step", 1))
    workers = _counts(index, "cli.workers")
    counts = {
        "trainer.steps": (len(steps) / runs, "count"),
        "augmentation.rows": (sum(_counts(index, "augmentation.augment_views", 0)) / runs, "rows"),
        "augmentation.strong_rows": (
            sum(_counts(index, "augmentation.augment_views", 1)) / runs, "rows"
        ),
        "network.forward_calls_per_step": (len(in_steps) / per_step, "count"),
        "network.forward_rows_per_step": (
            sum(index.spans[i][COUNT] or 0 for i in in_steps) / per_step, "rows"
        ),
        "network.backward_calls_per_step": (len(backward_in_steps) / per_step, "count"),
        "pseudo_label.confident_ratio": (confident / unlabeled if unlabeled else 0.0, "ratio"),
        "pgm.files_written": (len(index.named("pgm.write_pgm")) / runs, "count"),
        "pgm.files_read": (len(index.named("pgm.read_pgm")) / runs, "count"),
        "pgm.bytes_written": (sum(_counts(index, "pgm.write_pgm")) / runs, "bytes_computed"),
        "pgm.bytes_read": (sum(_counts(index, "pgm.read_pgm")) / runs, "bytes_computed"),
        "cli.workers": (workers[-1] if workers else 0, "threads"),
    }
    metrics.update(counts)

    self_s = dict.fromkeys(LAYERS, 0.0)
    overhead_s = 0.0
    cost_s = wrapper_cost_s()
    for w, scale in zip(windows, scales):
        members = index.inside(w)
        overhead_s += len(members) * cost_s * scale
        for i in members:
            layer = index.spans[i][NAME].split(".", 1)[0]
            self_s[layer] += index.self_time(i) * scale
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / runs, "s")
    train_s = sum(index.duration(w) * scale for w, scale in zip(windows, scales))
    metrics["trace.train_s"] = (train_s / runs, "s")
    metrics["trace.overhead_s"] = (overhead_s / runs, "s")
    return metrics, tails
