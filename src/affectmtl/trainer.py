"""Training loop: scheduling, loss assembly over masked batches, Adam.

The packed dataset holds its pixels as the 8-bit levels that the PGM
files and the synthetic generator give (pgm's grid, k / 255.0 for k in
0..255), an eighth of their float64 size.  Float pixels exist only where
they are read, built by pgm.level_pixels: each step's weak views, each
group's strong views (inside augment_views) and each validation pass's
split.

Each step forwards the weak views of the whole batch, takes supervised
losses over the per-task valid subsets, refreshes the per-class confidence
statistics (TrainState.mean_prob, one (8,) array) and the thresholds, and
(in the semi-supervised modes) forwards the strong views of
expression-unlabeled samples through the expression head only, the one
head their losses read: confident ones get a pseudo-label cross entropy,
the rest a weak/strong symmetric KL, which reuses the weak probabilities
the thresholds were probed with.  Gradients flow through both forward
passes; the backbone and the heads update with separate Adam learning
rates.

Each epoch draws its augmentation randomness once: one table of weak-view
draws over the schedule and one of strong-view draws over the scheduled
samples that get a strong view, both keyed by sample index (so a sample
resampled twice in an epoch gets the same views twice).  The views are
built once per group of scheduled batches, AUGMENT_GROUP_ROWS rows at
most, from the group's 8-bit levels and its slices of the two tables:
weak views as levels, strong views as float pixels of the rows that use
them only.  A view depends on its key and pixels alone, so grouping moves
no bit.  Each group's label table is gathered once too, beside the
epoch's marks of the rows that get a strong view.  Each step takes basic
slices (views) of the group's labels and views and of the marks, and
turns its weak levels into float pixels; no step augments anything or
gathers labels.

Adam runs over the flat parameter buffer (see network.Params): its moments
are flat arrays updated in place, block by block.  The backbone fields come
first in the buffer, so the step applies lr_base to the slice before the
backbone size and lr_heads to the rest.  Each step writes its new
parameters over the gradient buffer it has consumed and never writes the
old parameters, so a kept best-epoch Params never changes.  A step frees
its float weak views, forward caches and probabilities before Adam
starts: at Adam a run holds five parameter-sized buffers (params, best,
m, v, and the gradients that become the new params).  Validation scores
the heads of network.predict, which keeps no forward cache.

The loss terms, the class statistics and the validation score take whole
label columns, sentinels included, with each task's validity mask; the
mask decisions live in losses, pseudo_label and metrics, not here.
Samples invalid for every task are skipped by every term, supervised and
semi-supervised alike, so they contribute exactly zero gradient.

Determinism contract: given a seed, the epoch schedule, every augmented
view, every loss, and the final parameters are identical across runs on
one numeric platform: one NumPy build, one OpenBLAS core kernel and one
SIMD dispatch of float64 exp, tanh and log.  Another kernel or dispatch
(OPENBLAS_CORETYPE=Haswell, or NPY_DISABLE_CPU_FEATURES=X86_V4 on an
AVX-512 machine) rounds differently in the last bits and changes them.
The number of BLAS threads (OPENBLAS_NUM_THREADS) is not part of the
platform: one thread gives the bits of the default thread count.
The golden digests in tests/test_golden.py were recorded with AVX-512
kernels; the portable gate is the acceptance suite's criteria 7 and 8,
which pass under the Haswell kernel too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .augmentation import (
    STRONG_DRAWS,
    STRONG_VIEW,
    WEAK_DRAWS,
    WEAK_VIEW,
    augment_views,
    view_uniforms,
)
from .config import RunConfig
from .data_model import (
    N_EXPRESSION_CLASSES,
    Dataset,
    LabelArrays,
    au_positive_weights,
    dataset_stats,
    expression_class_weights,
)
from .errors import DataError, DivergenceError
from .losses import (
    LossBreakdown,
    LossWeights,
    TrainMode,
    ccc_loss_grad,
    consistency_loss_grad,
    effective_lambdas,
    overall_loss,
    unsupervised_ce_grad,
    weighted_bce_grad,
    weighted_cross_entropy_grad,
)
from .metrics import MtlScore, mtl_score
from .network import (
    BACKBONE_FIELDS,
    ForwardCache,
    ModelConfig,
    Params,
    add_grads,
    backward,
    forward_with_cache,
    init_params,
    predict,
    sigmoid,
    softmax,
    softmax_backward,
)
from .pgm import level_pixels
from .pseudo_label import (
    ConfidencePartition,
    adaptive_thresholds,
    fresh_class_stats,
    partition_confident,
    update_class_stats,
)


@dataclass(frozen=True, eq=False)
class PackedDataset(LabelArrays):
    """Dataset flattened to arrays for the training loop: its label table
    and its pixels as 8-bit levels.

    levels holds pixel k / 255.0 as k; pgm.level_pixels builds the float
    pixels of the rows a reader takes.
    """

    levels: np.ndarray      # (n, h, w) uint8

    def __len__(self) -> int:
        return self.levels.shape[0]


# LabelArrays' field names, in declaration order.
LABEL_FIELDS = tuple(f.name for f in fields(LabelArrays))

# Rows per augment_views call: the views of this many scheduled rows, two
# batches at the default batch size of 64, are built in one call, so the
# strong views' fixed cost (about 0.2 ms a call) is paid once per group.
# A larger group holds a larger weak gather index (8 bytes a pixel).  A
# 10-epoch ss-mfar run on the default benchmark (fresh process, one BLAS
# thread) peaked at 41.5, 41.7, 42.2 and 42.6 MB RSS with groups of 64,
# 128, 192 and 384 rows, and took 27 minor page faults a step at 384 rows
# against 14-15 at the others.
AUGMENT_GROUP_ROWS = 128


def pack_dataset(dataset: Dataset, levels: np.ndarray) -> PackedDataset:
    """The dataset's labels with its images, a (n, h, w) uint8 array of
    8-bit levels, stored as given.  An array of another dtype or rank, or
    of another length, raises DataError."""
    levels = np.asarray(levels)
    if levels.dtype != np.uint8 or levels.ndim != 3:
        raise DataError(
            f"expected a uint8 (n, h, w) array of levels, got {levels.dtype} "
            f"of shape {levels.shape}"
        )
    n = len(dataset)
    if levels.shape[0] != n:
        raise DataError(f"{n} samples but {levels.shape[0]} images")
    labels = {name: getattr(dataset, name) for name in LABEL_FIELDS}
    return PackedDataset(**labels, levels=levels)


def slice_targets(labels: LabelArrays, indices) -> LabelArrays:
    """The label table of the samples at indices, in that order: copies for
    an index array, views of labels for a slice."""
    return LabelArrays(**{name: getattr(labels, name)[indices] for name in LABEL_FIELDS})


def make_epoch_schedule(
    packed: PackedDataset, imbalance: str, rng, w_exp: np.ndarray
) -> np.ndarray:
    """Sample order for one epoch, length == dataset size.

    reweight: one uniform shuffle of everything (weights act in the loss).
    resample: labeled indices drawn with replacement proportionally to
    their class weight (count preserved), unlabeled shuffled, then the two
    pools are mixed by a final uniform shuffle.
    """
    n = len(packed)
    if n == 0:
        raise DataError("cannot schedule an empty dataset")
    if imbalance == "reweight":
        return rng.permutation(n)
    labeled = np.flatnonzero(packed.exp_valid)
    unlabeled = np.flatnonzero(~packed.exp_valid)
    parts = []
    if len(labeled):
        # Every labelled class c weighs valid / count[c] >= 1, so the sum is > 0.
        probs = w_exp[packed.gold_exp[labeled]].astype(np.float64)
        probs = probs / probs.sum()
        parts.append(rng.choice(labeled, size=len(labeled), replace=True, p=probs))
    if len(unlabeled):
        parts.append(rng.permutation(unlabeled))
    return rng.permutation(np.concatenate(parts))


def batch_loss_and_grads(
    params: Params,
    cache_w: ForwardCache,
    probs_w: np.ndarray,
    targets: LabelArrays,
    w_exp: np.ndarray,
    w_au: np.ndarray,
    weights: LossWeights,
    mode: TrainMode,
    strong_images: np.ndarray,
    ss_rows: np.ndarray,
    part: ConfidencePartition,
) -> tuple[LossBreakdown, Params]:
    """Loss value and exact parameter gradients for one batch.

    cache_w is forward_with_cache(params, weak views of the batch) and
    probs_w is softmax(cache_w.exp_logits): the probe train_step runs to
    refresh the thresholds, reused here; the consistency term reads its
    ss_rows.  The confidence partition part of the strong rows ss_rows
    (relative to the batch) is an input, not recomputed here, so the loss
    is a plain differentiable function of params once cache_w and probs_w
    are built from them; strong_images carries one image per ss_row.
    Supervised terms average over each task's valid subset; a task with
    nothing valid contributes 0.  The strong views are forwarded through
    the expression head only.
    """
    lam_sup, lam_unsup, lam_cons = effective_lambdas(weights, mode)

    l_sup, d_sup = weighted_cross_entropy_grad(
        cache_w.exp_logits, targets.gold_exp, w_exp, targets.exp_valid
    )
    d_exp_w = lam_sup * d_sup
    l_au, d_au = weighted_bce_grad(cache_w.au_logits, targets.gold_au, w_au, targets.au_valid)
    l_va, d_va = ccc_loss_grad(cache_w.va, targets.gold_va, targets.va_valid)

    l_unsup = 0.0
    l_cons = 0.0
    cache_s = None
    if mode is not TrainMode.SUPERVISED and len(ss_rows):
        cache_s = forward_with_cache(params, strong_images, expression_only=True)
        l_unsup, d_unsup = unsupervised_ce_grad(
            cache_s.exp_logits, part.pseudo_labels, part.confident
        )
        d_exp_s = lam_unsup * d_unsup
        if lam_cons > 0.0:
            probs_ss = probs_w[ss_rows]
            probs_s = softmax(cache_s.exp_logits)
            l_cons, d_probs_w, d_probs_s = consistency_loss_grad(
                probs_ss, probs_s, ~part.confident
            )
            d_exp_w[ss_rows] += lam_cons * softmax_backward(probs_ss, d_probs_w)
            d_exp_s += lam_cons * softmax_backward(probs_s, d_probs_s)

    breakdown = overall_loss(l_sup, l_unsup, l_cons, l_au, l_va, weights, mode)
    grads = backward(params, cache_w, d_exp_w, d_au, d_va)
    if cache_s is not None:
        grads = add_grads(grads, backward(params, cache_s, d_exp_s, None, None))
    return breakdown, grads


# Elements per Adam block.  Adam makes about a dozen passes over each
# block; a block of each array it touches (256 KB) stays in a 2 MB L2
# cache between passes, where a flat array at width 256 (268,822 elements,
# 2.1 MB) does not.  On a 2-vCPU Xeon a width-256 step took 3.2 ms in
# blocks of 2^15, 3.6 ms at 2^13 and 3.8 ms as whole-array passes.
ADAM_BLOCK = 1 << 15

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class AdamState:
    """First and second moments, flat and laid out like Params.flat."""

    m: np.ndarray
    v: np.ndarray
    t: int


def adam_init(params: Params) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), t=0)


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr_base: float,
    lr_heads: float,
) -> tuple[Params, AdamState]:
    """Bias-corrected Adam with ADAM_BETA1, ADAM_BETA2 and ADAM_EPS:
    lr_base on the backbone, lr_heads on the heads.

    The moments of state are updated in place and the new parameters are
    written over grads.flat, so the state and gradients passed in are
    consumed: use only the returned ones afterwards.  params is never
    written, so callers may keep earlier Params.  Each formula keeps the
    operation order of the elementwise textbook form, block by block over
    the flat buffer; within a block every read of g comes before the first
    write to it.
    """
    t = state.t + 1
    corr1 = 1.0 - ADAM_BETA1**t
    corr2 = 1.0 - ADAM_BETA2**t
    flat = grads.flat
    scratch = np.empty(min(ADAM_BLOCK, flat.size))
    split = sum(getattr(params, name).size for name in BACKBONE_FIELDS)
    for lo in range(0, flat.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, flat.size)
        g = flat[lo:hi]
        m = state.m[lo:hi]
        v = state.v[lo:hi]
        s = scratch[: hi - lo]
        # m' = beta1*m + (1-beta1)*g
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1 - ADAM_BETA1, out=s)
        np.add(m, s, out=m)
        # v' = beta2*v + ((1-beta2)*g)*g
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, 1 - ADAM_BETA2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        # p' = p - (lr*(m'/c1)) / (sqrt(v'/c2) + eps), written over g; lr is
        # lr_base before the backbone boundary and lr_heads from it on.
        np.divide(v, corr2, out=s)
        np.sqrt(s, out=s)
        np.add(s, ADAM_EPS, out=s)
        np.divide(m, corr1, out=g)
        if lo < split < hi:
            np.multiply(g[: split - lo], lr_base, out=g[: split - lo])
            np.multiply(g[split - lo :], lr_heads, out=g[split - lo :])
        else:
            np.multiply(g, lr_base if hi <= split else lr_heads, out=g)
        np.divide(g, s, out=g)
        np.subtract(params.flat[lo:hi], g, out=g)
    return grads, AdamState(m=state.m, v=state.v, t=t)


@dataclass(frozen=True, eq=False)
class TrainState:
    params: Params
    adam: AdamState
    mean_prob: np.ndarray  # pseudo_label's per-class statistics


def wants_strong(labels: LabelArrays, mode: TrainMode) -> np.ndarray:
    """Rows that get a strong view: expression-unlabeled rows valid for some
    task, in the semi-supervised modes; none in supervised mode."""
    if mode is TrainMode.SUPERVISED:
        return np.zeros(len(labels.exp_valid), dtype=bool)
    return (~labels.exp_valid) & labels.any_valid


def train_step(
    state: TrainState,
    targets: LabelArrays,
    want_strong: np.ndarray,
    weak_levels: np.ndarray,
    strong_images: np.ndarray,
    config: RunConfig,
    w_exp: np.ndarray,
    w_au: np.ndarray,
    epoch: int,
) -> tuple[TrainState, LossBreakdown, ConfidencePartition]:
    """One optimization step over one scheduled batch: forward the weak
    views, refresh the class statistics and thresholds, partition the
    strong rows, take the loss and its gradients, then step Adam.

    Returns the new state, the batch's loss terms and the partition of its
    strong rows (one entry per strong row, in batch order).  run_training
    builds each epoch's log fields from these and its schedule: the
    confident count sums the partitions, and the thresholds are recomputed
    once from the state the epoch ends with.

    targets is the batch's label table and want_strong marks its rows that
    get a strong view (wants_strong of its labels).  weak_levels and
    strong_images are the batch's rows of augment_views's output: the weak
    view of every sample as 8-bit levels, and the float strong view of each
    sample that want_strong marks, in batch order.  A DivergenceError names
    no epoch or batch; run_training adds them.
    """
    ss_rows = want_strong.nonzero()[0]
    if len(strong_images) != len(ss_rows):
        raise ValueError(f"{len(strong_images)} strong views for {len(ss_rows)} strong rows")
    weak = level_pixels(weak_levels)

    cache_probe = forward_with_cache(state.params, weak)
    probs_w = softmax(cache_probe.exp_logits)
    mean_prob = update_class_stats(
        state.mean_prob,
        probs_w,
        targets.gold_exp,
        targets.exp_valid,
        momentum=config.thresholds.momentum,
    )
    thresholds = adaptive_thresholds(mean_prob, epoch, config.thresholds)

    part = partition_confident(probs_w[ss_rows], thresholds)
    breakdown, grads = batch_loss_and_grads(
        state.params,
        cache_probe,
        probs_w,
        targets,
        w_exp,
        w_au,
        config.loss_weights,
        config.mode,
        strong_images,
        ss_rows,
        part,
    )
    # Adam runs beside the parameter-sized buffers only: drop the float weak
    # views, the probe's forward cache and its probabilities first.
    del weak, cache_probe, probs_w
    if not np.isfinite(breakdown.l_total):
        raise DivergenceError(f"non-finite loss {breakdown.l_total}")
    params, adam = adam_step(
        state.params, grads, state.adam, config.lr_base, config.lr_heads
    )
    return TrainState(params=params, adam=adam, mean_prob=mean_prob), breakdown, part


def evaluate_packed(params: Params, packed: PackedDataset) -> MtlScore:
    """Score a parameter set on unaugmented images.  Their float pixels
    are a temporary that predict frees after its first layer."""
    exp_logits, au_logits, va = predict(params, level_pixels(packed.levels))
    return mtl_score(
        pred_va=va,
        gold_va=packed.gold_va,
        va_mask=packed.va_valid,
        pred_exp=exp_logits.argmax(axis=1),
        gold_exp=packed.gold_exp,
        exp_mask=packed.exp_valid,
        au_probs=sigmoid(au_logits),
        gold_au=packed.gold_au,
        au_mask=packed.au_valid,
    )


# The keys of an epoch's log record, in the run log's order: the loss keys are
# LossBreakdown's fields (term means over the steps), the val_ keys MtlScore's.
LOSS_FIELDS = tuple(f.name for f in fields(LossBreakdown))
SCORE_FIELDS = ("p_va", "p_exp", "p_au", "p_mtl")
LOG_FIELDS = (
    "epoch",
    *LOSS_FIELDS,
    "confident_fraction", "thresholds",
    *(f"val_{name}" for name in SCORE_FIELDS),
)


@dataclass(frozen=True, eq=False)
class TrainResult:
    final_params: Params
    best_params: Params
    best_epoch: int
    reports: tuple[dict, ...]  # one log record per epoch, keyed by LOG_FIELDS
    model_config: ModelConfig


def run_training(
    train_packed: PackedDataset,
    val_packed: PackedDataset,
    config: RunConfig,
    workers: int = 1,
) -> TrainResult:
    """Full training run; returns the best-validation-score parameters.

    Deterministic given config.seed.  Each epoch's report is its run-log
    record: the mean loss terms over its steps, its confident fraction,
    the thresholds it ended with and its validation scores.  The best
    epoch maximizes val_p_mtl; ties keep the earliest epoch.  Divergence
    aborts with epoch/batch context.  workers is accepted and ignored; it
    is kept because the benchmark harness, perfbench/run.py, passes
    workers=1.
    """
    if len(train_packed) == 0:
        raise DataError("training set is empty")
    if len(val_packed) == 0:
        raise DataError("validation set is empty")
    height, width = train_packed.levels.shape[1:]
    if val_packed.levels.shape[1:] != (height, width):
        raise DataError(
            f"validation images are {val_packed.levels.shape[1:]} but training images "
            f"are {(height, width)}"
        )
    model_config = ModelConfig(
        image_height=height, image_width=width, hidden_width=config.hidden_width
    )
    params = init_params(model_config, config.seed)
    state = TrainState(params=params, adam=adam_init(params), mean_prob=fresh_class_stats())
    # Only state and best_params hold the initial parameters, so they are
    # freed once a trained epoch is kept as best.
    del params
    stats = dataset_stats(train_packed)
    w_exp = expression_class_weights(stats)
    w_au = au_positive_weights(stats)

    best_params = state.params
    best_epoch = -1
    best_score = -np.inf
    reports = []
    strong_rows = wants_strong(train_packed, config.mode)
    group_rows = max(1, AUGMENT_GROUP_ROWS // config.batch_size) * config.batch_size
    for epoch in range(config.epochs):
        schedule_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(config.seed, epoch))
        )
        schedule = make_epoch_schedule(
            train_packed, config.imbalance, schedule_rng, w_exp
        )
        # The epoch's draw tables, keyed by sample index: row i of weak_table
        # belongs to schedule[i]; strong_table holds the strong rows in
        # schedule order, and strong_start[i] counts those before position i.
        # The labels and views of one group of whole batches are gathered
        # and built at a time; labels, views and draws are sliced by
        # position, the strong ones by strong_start.
        scheduled_strong = strong_rows[schedule]
        weak_table = view_uniforms(config.seed, epoch, schedule, WEAK_VIEW, WEAK_DRAWS)
        strong_table = view_uniforms(
            config.seed, epoch, schedule[scheduled_strong], STRONG_VIEW, STRONG_DRAWS
        )
        strong_start = np.concatenate(([0], np.cumsum(scheduled_strong)))
        sums = np.zeros(len(LOSS_FIELDS))
        confident = 0
        starts = range(0, len(schedule), config.batch_size)
        for batch_number, start in enumerate(starts):
            stop = min(start + config.batch_size, len(schedule))
            if start % group_rows == 0:
                group, group_stop = start, min(start + group_rows, len(schedule))
                group_targets = slice_targets(train_packed, schedule[group:group_stop])
                strong_base = strong_start[group]
                weak_group, strong_group = augment_views(
                    train_packed.levels[schedule[group:group_stop]],
                    weak_table[group:group_stop],
                    strong_table[strong_base : strong_start[group_stop]],
                    config.augment,
                    want_strong=scheduled_strong[group:group_stop],
                )
            try:
                state, breakdown, part = train_step(
                    state,
                    slice_targets(group_targets, slice(start - group, stop - group)),
                    scheduled_strong[start:stop],
                    weak_group[start - group : stop - group],
                    strong_group[strong_start[start] - strong_base : strong_start[stop] - strong_base],
                    config,
                    w_exp,
                    w_au,
                    epoch,
                )
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} (epoch {epoch}, batch {batch_number})") from None
            sums += [getattr(breakdown, name) for name in LOSS_FIELDS]
            confident += int(np.count_nonzero(part.confident))
        unlabeled = int(strong_start[-1])
        # The thresholds of the epoch's last step: the same function of the
        # same mean_prob.
        thresholds = adaptive_thresholds(state.mean_prob, epoch, config.thresholds)
        try:
            val_score = evaluate_packed(state.params, val_packed)
        except DivergenceError as exc:
            raise DivergenceError(f"validation: {exc} (epoch {epoch})") from None
        reports.append(dict(zip(LOG_FIELDS, (
            epoch,
            *(sums / len(starts)).tolist(),
            confident / unlabeled if unlabeled else 0.0,
            thresholds.tolist(),
            *(getattr(val_score, name) for name in SCORE_FIELDS),
        ), strict=True)))
        if val_score.p_mtl > best_score:
            best_score = val_score.p_mtl
            best_params = state.params
            best_epoch = epoch
    return TrainResult(
        final_params=state.params,
        best_params=best_params,
        best_epoch=best_epoch,
        reports=tuple(reports),
        model_config=model_config,
    )


def format_epoch_log(reports) -> str:
    """One JSON object per line, key order fixed by LOG_FIELDS."""
    return "".join(json.dumps(r) + "\n" for r in reports)


def _check_log_value(name: str, value) -> None:
    """DataError unless value has its LOG_FIELDS kind: epoch an int, thresholds
    a list of N_EXPRESSION_CLASSES numbers, any other an int or float, never a
    bool; OverflowError for an int that float() refuses."""
    if name == "thresholds" and (type(value) is not list or len(value) != N_EXPRESSION_CLASSES):
        raise DataError(f"expected a list of {N_EXPRESSION_CLASSES} numbers")
    kinds = (int,) if name == "epoch" else (int, float)
    for item in value if name == "thresholds" else [value]:
        if type(item) not in kinds:
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise DataError(f"expected {expected}, got {type(item).__name__}")
        float(item)


def parse_epoch_log(text: str) -> list[dict]:
    """A run log's records, one JSON object per non-blank line, each holding
    every LOG_FIELDS key with a value of its kind, their epochs 0, 1, 2, ...
    in order, else DataError("log line n: ...")."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)  # ValueError also for an integer too long to convert
            if not isinstance(record, dict):
                raise DataError("expected a JSON object")
            missing = [f for f in LOG_FIELDS if f not in record]
            if missing:
                raise DataError(f"missing fields {missing}")
            for name in LOG_FIELDS:
                try:
                    _check_log_value(name, record[name])
                except (ValueError, OverflowError) as exc:
                    raise DataError(f"{name}: {exc}") from None
            if record["epoch"] != len(records):
                raise DataError(f"epoch: expected {len(records)}, got {record['epoch']}")
        except ValueError as exc:  # DataError included
            raise DataError(f"log line {lineno}: {exc}") from None
        records.append(record)
    return records
