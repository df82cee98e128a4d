"""Training loop: scheduling, loss assembly over masked batches, Adam.

Each step forwards the weak views of the whole batch, takes supervised
losses over the per-task valid subsets, refreshes the per-class confidence
statistics and thresholds, and (in the semi-supervised modes) forwards the
strong views of expression-unlabeled samples: confident ones get a
pseudo-label cross entropy, the rest a weak/strong symmetric KL.  Gradients
flow through both forward passes; the backbone and the heads update with
separate Adam learning rates.

Adam runs over the flat parameter buffer (see network.Params): its moments
are flat arrays updated in place, block by block, with one scalar rate per
run of adjacent fields (backbone, then heads); each step returns its
parameters in a fresh buffer, so a kept best-epoch Params never changes.

Samples invalid for every task are skipped by every term, supervised and
semi-supervised alike, so they contribute exactly zero gradient.

Determinism contract: given a seed, the epoch schedule, every augmented
view, every loss, and the final parameters are identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .augmentation import augment_views
from .config import RunConfig
from .data_model import (
    LABEL_SENTINEL,
    VA_SENTINEL,
    Dataset,
    DatasetStats,
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
    PARAM_FIELDS,
    Params,
    add_grads,
    backward,
    forward_with_cache,
    init_params,
    sigmoid,
    softmax,
    softmax_backward,
)
from .pseudo_label import (
    ClassStatAccumulator,
    adaptive_thresholds,
    partition_confident,
    update_class_stats,
)


@dataclass(frozen=True, eq=False)
class PackedDataset:
    """Dataset flattened to arrays for the training loop."""

    images: np.ndarray      # (n, h, w) in [0, 1]
    gold_exp: np.ndarray    # (n,) with -1 where unlabeled
    gold_au: np.ndarray     # (n, 12) with -1 where unlabeled
    gold_va: np.ndarray     # (n, 2) with -5 where unlabeled
    exp_valid: np.ndarray
    au_valid: np.ndarray
    va_valid: np.ndarray
    stats: DatasetStats

    def __len__(self) -> int:
        return self.images.shape[0]


def pack_dataset(dataset: Dataset, images: np.ndarray) -> PackedDataset:
    n = len(dataset)
    if images.shape[0] != n:
        raise DataError(f"{n} samples but {images.shape[0]} images")
    gold_exp = np.full(n, LABEL_SENTINEL, dtype=np.int64)
    gold_au = np.full((n, 12), LABEL_SENTINEL, dtype=np.int64)
    gold_va = np.full((n, 2), VA_SENTINEL, dtype=np.float64)
    for i, sample in enumerate(dataset):
        ann = sample.annotations
        gold_exp[i] = ann.expression
        gold_au[i] = ann.action_units
        gold_va[i] = (ann.valence, ann.arousal)
    return PackedDataset(
        images=images,
        gold_exp=gold_exp,
        gold_au=gold_au,
        gold_va=gold_va,
        exp_valid=gold_exp != LABEL_SENTINEL,
        au_valid=~np.any(gold_au == LABEL_SENTINEL, axis=1),
        va_valid=gold_va[:, 0] != VA_SENTINEL,
        stats=dataset_stats(dataset),
    )


@dataclass(frozen=True, eq=False)
class BatchTargets:
    gold_exp: np.ndarray
    gold_au: np.ndarray
    gold_va: np.ndarray
    exp_valid: np.ndarray
    au_valid: np.ndarray
    va_valid: np.ndarray

    @property
    def any_valid(self) -> np.ndarray:
        return self.exp_valid | self.au_valid | self.va_valid


def slice_targets(packed: PackedDataset, indices: np.ndarray) -> BatchTargets:
    return BatchTargets(
        gold_exp=packed.gold_exp[indices],
        gold_au=packed.gold_au[indices],
        gold_va=packed.gold_va[indices],
        exp_valid=packed.exp_valid[indices],
        au_valid=packed.au_valid[indices],
        va_valid=packed.va_valid[indices],
    )


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
        probs = w_exp[packed.gold_exp[labeled]].astype(np.float64)
        total = probs.sum()
        if total <= 0:
            probs = np.full(len(labeled), 1.0 / len(labeled))
        else:
            probs = probs / total
        parts.append(rng.choice(labeled, size=len(labeled), replace=True, p=probs))
    if len(unlabeled):
        parts.append(rng.permutation(unlabeled))
    return rng.permutation(np.concatenate(parts))


def batch_loss_and_grads(
    params: Params,
    weak_images: np.ndarray,
    targets: BatchTargets,
    w_exp: np.ndarray,
    w_au: np.ndarray,
    weights: LossWeights,
    mode: TrainMode,
    strong_images: np.ndarray | None = None,
    ss_rows: np.ndarray | None = None,
    confident: np.ndarray | None = None,
    pseudo_labels: np.ndarray | None = None,
    cache_w: ForwardCache | None = None,
) -> tuple[LossBreakdown, Params]:
    """Loss value and exact parameter gradients for one batch.

    The confidence partition (ss_rows / confident / pseudo_labels, all
    relative to the batch) is an input, not recomputed here, so the
    function is a plain differentiable map from params to the total loss;
    strong_images carries one image per ss_row.  Supervised terms average
    over each task's valid subset; a task with nothing valid contributes 0.
    cache_w, when given, must be forward_with_cache(params, weak_images);
    passing it saves the weak forward pass a caller has already run.
    """
    lam_sup, lam_unsup, lam_cons = effective_lambdas(weights, mode)
    if cache_w is None:
        cache_w = forward_with_cache(params, weak_images)

    exp_idx = np.flatnonzero(targets.exp_valid)
    l_sup = 0.0
    d_exp_w = np.zeros_like(cache_w.exp_logits)
    if len(exp_idx):
        l_sup, d_sub = weighted_cross_entropy_grad(
            cache_w.exp_logits[exp_idx], targets.gold_exp[exp_idx], w_exp
        )
        d_exp_w[exp_idx] = lam_sup * d_sub

    gold_au = np.where(targets.au_valid[:, None], targets.gold_au, 0)
    l_au, d_au = weighted_bce_grad(
        cache_w.au_logits, gold_au, w_au, targets.au_valid
    )

    l_va, d_va = ccc_loss_grad(cache_w.va, targets.gold_va, targets.va_valid)

    l_unsup = 0.0
    l_cons = 0.0
    cache_s = None
    d_exp_s = None
    if mode is not TrainMode.SUPERVISED and ss_rows is not None and len(ss_rows):
        cache_s = forward_with_cache(params, strong_images)
        l_unsup, d_unsup = unsupervised_ce_grad(
            cache_s.exp_logits, pseudo_labels, confident
        )
        d_exp_s = lam_unsup * d_unsup
        if lam_cons > 0.0:
            probs_w = softmax(cache_w.exp_logits[ss_rows])
            probs_s = softmax(cache_s.exp_logits)
            l_cons, d_probs_w, d_probs_s = consistency_loss_grad(
                probs_w, probs_s, ~confident
            )
            d_exp_w[ss_rows] += lam_cons * softmax_backward(probs_w, d_probs_w)
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


@dataclass(frozen=True, eq=False)
class AdamState:
    """First and second moments, flat and laid out like Params.flat."""

    m: np.ndarray
    v: np.ndarray
    t: int


def adam_init(params: Params) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), t=0)


def _rate_runs(params: Params, lr_by_field: dict[str, float]):
    """(start, stop, rate) over maximal runs of adjacent fields sharing a rate."""
    runs = []
    start = 0
    for name in PARAM_FIELDS:
        stop = start + getattr(params, name).size
        rate = lr_by_field[name]
        if runs and runs[-1][2] == rate:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, rate])
        start = stop
    return runs


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr_by_field: dict[str, float],
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[Params, AdamState]:
    """Bias-corrected Adam with a per-parameter-group learning rate.

    The moments of state are updated in place, so the state passed in is
    consumed: use only the returned one afterwards.  params and grads are
    never written; the new parameters live in a fresh buffer, so callers
    may keep earlier Params.  Each formula keeps the operation order of
    the elementwise textbook form, block by block over the flat buffer.
    """
    t = state.t + 1
    corr1 = 1.0 - beta1**t
    corr2 = 1.0 - beta2**t
    new = np.empty_like(params.flat)
    scratch = np.empty(min(ADAM_BLOCK, new.size))
    for start, stop, lr in _rate_runs(params, lr_by_field):
        for lo in range(start, stop, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, stop)
            g = grads.flat[lo:hi]
            m = state.m[lo:hi]
            v = state.v[lo:hi]
            s = scratch[: hi - lo]
            out = new[lo:hi]
            # m' = beta1*m + (1-beta1)*g
            np.multiply(m, beta1, out=m)
            np.multiply(g, 1 - beta1, out=s)
            np.add(m, s, out=m)
            # v' = beta2*v + ((1-beta2)*g)*g
            np.multiply(v, beta2, out=v)
            np.multiply(g, 1 - beta2, out=s)
            np.multiply(s, g, out=s)
            np.add(v, s, out=v)
            # p' = p - (lr*(m'/c1)) / (sqrt(v'/c2) + eps)
            np.divide(v, corr2, out=s)
            np.sqrt(s, out=s)
            np.add(s, eps, out=s)
            np.divide(m, corr1, out=out)
            np.multiply(out, lr, out=out)
            np.divide(out, s, out=out)
            np.subtract(params.flat[lo:hi], out, out=out)
    return Params.wrap(new, params), AdamState(m=state.m, v=state.v, t=t)


def lr_map(config: RunConfig) -> dict[str, float]:
    """Backbone fields at the base rate, every head at the head rate."""
    return {
        name: config.lr_base if name in BACKBONE_FIELDS else config.lr_heads
        for name in PARAM_FIELDS
    }


@dataclass(frozen=True, eq=False)
class TrainState:
    params: Params
    adam: AdamState
    stats_acc: ClassStatAccumulator


@dataclass(frozen=True)
class StepInfo:
    n_unlabeled: int
    n_confident: int
    thresholds: tuple[float, ...]


def train_step(
    state: TrainState,
    packed: PackedDataset,
    batch_indices: np.ndarray,
    config: RunConfig,
    w_exp: np.ndarray,
    w_au: np.ndarray,
    epoch: int,
    batch_number: int,
) -> tuple[TrainState, LossBreakdown, StepInfo]:
    """One optimization step over one scheduled batch."""
    targets = slice_targets(packed, batch_indices)
    ss_mask = (
        (~targets.exp_valid) & targets.any_valid
        if config.mode is not TrainMode.SUPERVISED
        else np.zeros(len(batch_indices), dtype=bool)
    )
    batch_images = packed.images[batch_indices]
    try:
        weak, strong = augment_views(
            batch_images,
            batch_indices,
            config.seed,
            epoch,
            config.augment,
            want_strong=ss_mask,
        )

        cache_probe = forward_with_cache(state.params, weak)
        probs_w = softmax(cache_probe.exp_logits)
        exp_idx = np.flatnonzero(targets.exp_valid)
        acc = update_class_stats(
            state.stats_acc,
            probs_w[exp_idx],
            targets.gold_exp[exp_idx],
            momentum=config.thresholds.momentum,
        )
        thresholds = adaptive_thresholds(acc, epoch, config.thresholds)

        ss_rows = np.flatnonzero(ss_mask)
        part = partition_confident(probs_w[ss_rows], thresholds)
        breakdown, grads = batch_loss_and_grads(
            state.params,
            weak,
            targets,
            w_exp,
            w_au,
            config.loss_weights,
            config.mode,
            strong_images=strong[ss_rows],
            ss_rows=ss_rows,
            confident=part.confident,
            pseudo_labels=part.pseudo_labels,
            cache_w=cache_probe,
        )
    except DivergenceError as exc:
        if exc.epoch is not None:
            raise
        raise DivergenceError(exc.args[0], epoch=epoch, batch=batch_number) from None
    if not np.isfinite(breakdown.total):
        raise DivergenceError(
            f"non-finite loss {breakdown.total}", epoch=epoch, batch=batch_number
        )
    params, adam = adam_step(state.params, grads, state.adam, lr_map(config))
    info = StepInfo(
        n_unlabeled=int(len(ss_rows)),
        n_confident=int(np.count_nonzero(part.confident)),
        thresholds=tuple(float(t) for t in thresholds),
    )
    return TrainState(params=params, adam=adam, stats_acc=acc), breakdown, info


def evaluate_packed(params: Params, packed: PackedDataset) -> MtlScore:
    """Score a parameter set on unaugmented images."""
    cache = forward_with_cache(params, packed.images)
    pred_exp = np.argmax(cache.exp_logits, axis=1)
    au_probs = sigmoid(cache.au_logits)
    return mtl_score(
        pred_va=cache.va,
        gold_va=packed.gold_va,
        va_mask=packed.va_valid,
        pred_exp=pred_exp,
        gold_exp=np.where(packed.exp_valid, packed.gold_exp, 0),
        exp_mask=packed.exp_valid,
        au_probs=au_probs,
        gold_au=np.where(packed.au_valid[:, None], packed.gold_au, 0),
        au_mask=packed.au_valid,
    )


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    losses: LossBreakdown
    confident_fraction: float
    thresholds: tuple[float, ...]
    val_score: MtlScore


@dataclass(frozen=True, eq=False)
class TrainResult:
    final_params: Params
    best_params: Params
    best_epoch: int
    reports: tuple[EpochReport, ...]
    model_config: ModelConfig


def run_training(
    train_packed: PackedDataset,
    val_packed: PackedDataset,
    config: RunConfig,
    workers: int = 1,
) -> TrainResult:
    """Full training run; returns the best-validation-score parameters.

    Deterministic given config.seed.  The best epoch maximizes the combined
    validation score; ties keep the earliest epoch.  Divergence aborts with
    epoch/batch context.  workers is accepted and ignored; it is kept
    because the benchmark harness, perfbench/run.py, passes workers=1.
    """
    if len(train_packed) == 0:
        raise DataError("training set is empty")
    if len(val_packed) == 0:
        raise DataError("validation set is empty")
    height, width = train_packed.images.shape[1:]
    model_config = ModelConfig(
        image_height=height, image_width=width, hidden_width=config.hidden_width
    )
    params = init_params(model_config, config.seed)
    state = TrainState(
        params=params, adam=adam_init(params), stats_acc=ClassStatAccumulator.fresh()
    )
    w_exp = expression_class_weights(train_packed.stats)
    w_au = au_positive_weights(train_packed.stats)

    best_params = params
    best_epoch = -1
    best_score = -np.inf
    reports: list[EpochReport] = []
    for epoch in range(config.epochs):
        schedule_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(config.seed, epoch))
        )
        schedule = make_epoch_schedule(
            train_packed, config.imbalance, schedule_rng, w_exp
        )
        sums = np.zeros(7)
        n_batches = 0
        unlabeled_total = 0
        confident_total = 0
        thresholds = tuple([0.0] * 8)
        for batch_number, start in enumerate(range(0, len(schedule), config.batch_size)):
            batch = schedule[start : start + config.batch_size]
            state, breakdown, info = train_step(
                state, train_packed, batch, config, w_exp, w_au, epoch, batch_number
            )
            sums += (
                breakdown.l_exp_sup, breakdown.l_exp_unsup, breakdown.l_exp_cons,
                breakdown.l_au, breakdown.l_va, breakdown.l_exp, breakdown.total,
            )
            n_batches += 1
            unlabeled_total += info.n_unlabeled
            confident_total += info.n_confident
            thresholds = info.thresholds
        means = sums / n_batches
        try:
            val_score = evaluate_packed(state.params, val_packed)
        except DivergenceError as exc:
            raise DivergenceError(f"validation: {exc.args[0]}", epoch=epoch) from None
        report = EpochReport(
            epoch=epoch,
            losses=LossBreakdown(*means),
            confident_fraction=(
                confident_total / unlabeled_total if unlabeled_total else 0.0
            ),
            thresholds=thresholds,
            val_score=val_score,
        )
        reports.append(report)
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


LOG_FIELDS = (
    "epoch",
    "l_exp_sup", "l_exp_unsup", "l_exp_cons", "l_au", "l_va", "l_exp", "l_total",
    "confident_fraction", "thresholds",
    "val_p_va", "val_p_exp", "val_p_au", "val_p_mtl",
)


def epoch_record(report: EpochReport) -> dict:
    """EpochReport as the flat dict written to the run log."""
    return {
        "epoch": report.epoch,
        "l_exp_sup": report.losses.l_exp_sup,
        "l_exp_unsup": report.losses.l_exp_unsup,
        "l_exp_cons": report.losses.l_exp_cons,
        "l_au": report.losses.l_au,
        "l_va": report.losses.l_va,
        "l_exp": report.losses.l_exp,
        "l_total": report.losses.total,
        "confident_fraction": report.confident_fraction,
        "thresholds": list(report.thresholds),
        "val_p_va": report.val_score.p_va,
        "val_p_exp": report.val_score.p_exp,
        "val_p_au": report.val_score.p_au,
        "val_p_mtl": report.val_score.p_mtl,
    }


def format_epoch_log(reports) -> str:
    """One JSON object per line, key order fixed by LOG_FIELDS."""
    return "".join(json.dumps(epoch_record(r)) + "\n" for r in reports)


def parse_epoch_log(text: str) -> list[dict]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"log line {lineno}: {exc}") from None
        missing = [f for f in LOG_FIELDS if f not in record]
        if missing:
            raise DataError(f"log line {lineno}: missing fields {missing}")
        records.append(record)
    return records
