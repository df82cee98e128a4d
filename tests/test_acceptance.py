"""Release acceptance gate.

Each test checks one numbered release criterion end to end and prints a
single ``[acceptance] criterion N: PASS/FAIL`` line on the real stdout
(bypassing pytest capture), so a full run always shows the gate status.
Criteria 7 and 8 train on the default synthetic benchmark (long-tailed
train split, balanced validation split) exactly as the command line
produces it.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from affectmtl.config import RunConfig, SynthFileConfig, TrainMode
from affectmtl.data_model import (
    LabelArrays,
    SynthConfig,
    dataset_stats,
    expression_class_weights,
    generate_synthetic,
)
from affectmtl.losses import (
    LossWeights,
    ccc_loss_grad,
    concordance,
    consistency_loss_grad,
    overall_loss,
    unsupervised_ce_grad,
    weighted_bce_grad,
    weighted_cross_entropy_grad,
)
from affectmtl.metrics import macro_f1, mtl_score
from affectmtl.network import (
    PARAM_FIELDS,
    ModelConfig,
    forward_with_cache,
    init_params,
    softmax,
)
from affectmtl.pseudo_label import (
    ThresholdConfig,
    adaptive_thresholds,
    partition_confident,
)
from affectmtl.trainer import (
    batch_loss_and_grads,
    format_epoch_log,
    make_epoch_schedule,
    pack_dataset,
    run_training,
)
from conftest import keyed_views, map_fields
from oracles import symmetric_kl

LN2 = math.log(2.0)
LN8 = math.log(8.0)


def ccc(x, y) -> float:
    """The package's concordance of one pair of vectors."""
    return concordance(np.column_stack([x, x]), np.column_stack([y, y]))[0][0]


def _verdict(capsys, num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num} {name}: {status}{extra}", flush=True)
    assert not failures, f"criterion {num} {name}: " + "; ".join(str(f) for f in failures)


def _make_targets(gold_exp, gold_au, gold_va) -> LabelArrays:
    gold_exp = np.asarray(gold_exp, dtype=np.int64)
    gold_au = np.asarray(gold_au, dtype=np.int64)
    gold_va = np.asarray(gold_va, dtype=np.float64)
    return LabelArrays(
        gold_exp=gold_exp,
        gold_au=gold_au,
        gold_va=gold_va,
        exp_valid=gold_exp != -1,
        au_valid=gold_au[:, 0] != -1,
        va_valid=gold_va[:, 0] != -5.0,
    )


def _random_row(rng, exp_valid: bool, au_valid: bool, va_valid: bool):
    exp = int(rng.integers(0, 8)) if exp_valid else -1
    au = rng.integers(0, 2, 12) if au_valid else np.full(12, -1)
    va = rng.uniform(-1.0, 1.0, 2) if va_valid else np.array([-5.0, -5.0])
    return exp, au, va


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients of the full training objective match
# central finite differences on every parameter of a tiny model.
# ---------------------------------------------------------------------------


def test_criterion_1_gradients(capsys):
    failures = []
    mc = ModelConfig(image_height=6, image_width=6, hidden_width=4)
    weights = LossWeights()
    step = 1e-5
    max_rel = 0.0
    n_checked = 0
    n_confident = 0
    n_nonconfident = 0
    # row 2 cycles through validity patterns so the suite hits every branch,
    # including rows that are invalid for every task.
    extra_patterns = [
        (False, False, False),
        (True, False, False),
        (False, False, True),
        (True, True, False),
    ]
    t0 = time.perf_counter()
    for draw in range(20):
        rng = np.random.default_rng(4000 + draw)
        params = init_params(mc, seed=draw)
        params = map_fields(lambda a: a + rng.normal(0.0, 0.05, a.shape), params)
        weak = rng.uniform(0.0, 1.0, (3, 6, 6))
        rows = [
            _random_row(rng, True, True, True),
            _random_row(rng, False, True, True),
            _random_row(rng, *extra_patterns[draw % 4]),
        ]
        targets = _make_targets(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
        )
        w_exp = rng.uniform(0.5, 3.0, 8)
        w_au = rng.uniform(0.5, 3.0, 12)
        ss_rows = np.flatnonzero(~targets.exp_valid & targets.any_valid)
        strong = rng.uniform(0.0, 1.0, (len(ss_rows), 6, 6))
        probs_w = softmax(forward_with_cache(params, weak).exp_logits[ss_rows])
        thresholds = rng.uniform(0.05, 0.25, 8)
        part = partition_confident(probs_w, thresholds)
        n_confident += int(np.sum(part.confident))
        n_nonconfident += int(np.sum(~part.confident))

        def total_at(p):
            breakdown, _ = batch_loss_and_grads(
                p,
                weak,
                targets,
                w_exp,
                w_au,
                weights,
                TrainMode.SEMI,
                strong_images=strong,
                ss_rows=ss_rows,
                confident=part.confident,
                pseudo_labels=part.pseudo_labels,
            )
            return breakdown.total

        _, grads = batch_loss_and_grads(
            params,
            weak,
            targets,
            w_exp,
            w_au,
            weights,
            TrainMode.SEMI,
            strong_images=strong,
            ss_rows=ss_rows,
            confident=part.confident,
            pseudo_labels=part.pseudo_labels,
        )
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            analytic = getattr(grads, name).ravel()
            for i in range(arr.size):
                plus = arr.copy()
                plus.ravel()[i] += step
                minus = arr.copy()
                minus.ravel()[i] -= step
                fd = (
                    total_at(replace(params, **{name: plus}))
                    - total_at(replace(params, **{name: minus}))
                ) / (2.0 * step)
                rel = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
                max_rel = max(max_rel, rel)
                n_checked += 1
                if rel > 1e-4:
                    failures.append(
                        f"draw {draw} {name}[{i}]: analytic {analytic[i]:.8g} "
                        f"vs fd {fd:.8g} (rel {rel:.2e})"
                    )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    if n_confident == 0 or n_nonconfident == 0:
        failures.append(
            f"partition coverage too weak: {n_confident} confident, "
            f"{n_nonconfident} non-confident rows over the suite"
        )
    _verdict(
        capsys,
        1,
        "gradient suite",
        failures,
        f"max rel err {max_rel:.2e} over {n_checked} params, 20 draws, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: every hand-evaluated loss example reproduces to <= 1e-6.
# ---------------------------------------------------------------------------


def test_criterion_2_loss_values(capsys):
    eps_dims = np.full(6, 1e-8)
    p2 = np.array([0.5, 0.5])
    q2 = np.array([0.25, 0.75])
    skl_expected = float(np.sum(p2 * np.log(p2 / q2)) + np.sum(q2 * np.log(q2 / p2)))
    pw8 = np.concatenate([(1.0 - eps_dims.sum()) * p2, eps_dims])[None, :]
    ps8 = np.concatenate([(1.0 - eps_dims.sum()) * q2, eps_dims])[None, :]
    confident_logits = np.full((1, 8), 0.0)
    confident_logits[0, 2] = 60.0

    three_x = np.array([0.2, 0.4, 0.6])
    three_y = np.array([0.1, 0.5, 0.9])
    perfect_va = np.array([[0.1, -0.3], [0.5, 0.2], [-0.8, 0.9]])
    mixed_pred = np.column_stack([three_x, three_y])
    mixed_gold = np.column_stack([three_y, three_y])

    cases = [
        (
            "weighted CE uniform -> ln 8",
            weighted_cross_entropy_grad(
                np.zeros((2, 8)), np.array([0, 3]), np.ones(8), np.ones(2, dtype=bool)
            )[0],
            LN8,
        ),
        (
            "weighted CE confident -> 0",
            weighted_cross_entropy_grad(
                confident_logits, np.array([2]), np.ones(8), np.ones(1, dtype=bool)
            )[0],
            0.0,
        ),
        (
            "weighted CE half prob, class weight 2 -> 2 ln 2",
            weighted_cross_entropy_grad(
                np.zeros((1, 2)), np.array([0]), np.array([2.0, 1.0]), np.ones(1, dtype=bool)
            )[0],
            2.0 * LN2,
        ),
        (
            "BCE sigmoid ~1, positive -> 0",
            weighted_bce_grad(
                np.array([[40.0]]), np.array([[1]]), np.array([1.0]), np.ones(1, dtype=bool)
            )[0],
            0.0,
        ),
        (
            "BCE sigmoid 0.5, positive, weight 3 -> 3 ln 2",
            weighted_bce_grad(
                np.array([[0.0]]), np.array([[1]]), np.array([3.0]), np.ones(1, dtype=bool)
            )[0],
            3.0 * LN2,
        ),
        (
            "BCE sigmoid 0.5, negative, weight ignored -> ln 2",
            weighted_bce_grad(
                np.array([[0.0]]), np.array([[0]]), np.array([7.0]), np.ones(1, dtype=bool)
            )[0],
            LN2,
        ),
        ("concordance perfect -> 1", ccc(np.array([1.0, -1.0]), np.array([1.0, -1.0])), 1.0),
        (
            "concordance zero variance -> 0",
            ccc(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
            0.0,
        ),
        ("concordance 3-point -> 32/43", ccc(three_x, three_y), 32.0 / 43.0),
        (
            "concordance loss perfect -> 0",
            ccc_loss_grad(perfect_va, perfect_va, np.ones(3, dtype=bool))[0],
            0.0,
        ),
        (
            "concordance loss mixed dims -> 11/86",
            ccc_loss_grad(mixed_pred, mixed_gold, np.ones(3, dtype=bool))[0],
            11.0 / 86.0,
        ),
        (
            "concordance loss empty mask -> 0",
            ccc_loss_grad(perfect_va, perfect_va, np.zeros(3, dtype=bool))[0],
            0.0,
        ),
        ("symmetric KL equal -> 0", symmetric_kl(q2, q2), 0.0),
        ("symmetric KL two-point pair", symmetric_kl(p2, q2), skl_expected),
        (
            "pseudo-label CE empty mask -> 0",
            unsupervised_ce_grad(np.zeros((1, 8)), np.array([0]), np.zeros(1, dtype=bool))[0],
            0.0,
        ),
        (
            "pseudo-label CE confident match -> 0",
            unsupervised_ce_grad(confident_logits, np.array([2]), np.ones(1, dtype=bool))[0],
            0.0,
        ),
        (
            "pseudo-label CE uniform -> ln 8",
            unsupervised_ce_grad(np.zeros((1, 8)), np.array([5]), np.ones(1, dtype=bool))[0],
            LN8,
        ),
        (
            "consistency identical views -> 0",
            consistency_loss_grad(pw8, pw8, np.ones(1, dtype=bool))[0],
            0.0,
        ),
        (
            "consistency embedded two-point pair",
            consistency_loss_grad(pw8, ps8, np.ones(1, dtype=bool))[0],
            skl_expected,
        ),
        (
            "consistency empty mask -> 0",
            consistency_loss_grad(pw8, ps8, np.zeros(1, dtype=bool))[0],
            0.0,
        ),
    ]
    unit = overall_loss(1.0, 1.0, 1.0, 1.0, 1.0, LossWeights(), TrainMode.SEMI)
    cases.append(("combined semi, unit terms: expression part", unit.l_exp, 1.6))
    cases.append(("combined semi, unit terms: total", unit.total, 3.6))
    sup = overall_loss(1.0, 1.0, 1.0, 1.0, 1.0, LossWeights(), TrainMode.SUPERVISED)
    cases.append(("combined supervised, unit terms: expression part", sup.l_exp, 1.0))
    cases.append(("combined supervised, unit terms: total", sup.total, 3.0))
    zero = overall_loss(0.0, 0.0, 0.0, 0.0, 0.0, LossWeights(), TrainMode.SEMI)
    cases.append(("combined all-zero terms -> 0", zero.total, 0.0))

    failures = []
    worst = 0.0
    for label, actual, expected in cases:
        diff = abs(actual - expected)
        worst = max(worst, diff)
        if diff > 1e-6:
            failures.append(f"{label}: got {actual!r}, want {expected!r} (diff {diff:.2e})")
    _verdict(capsys, 2, "loss unit values", failures, f"{len(cases)} cases, worst diff {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: metrics match independently coded oracles.
# ---------------------------------------------------------------------------


def _loop_macro_f1(pred, gold, n_classes: int) -> tuple[float, list]:
    """Confusion counts from explicit per-item loops (no vectorized masks),
    then the standard 2PR/(P+R) arithmetic so equality can be exact."""
    scores = []
    for c in range(n_classes):
        tp = fp = fn = 0
        for p, g in zip(pred.tolist(), gold.tolist()):
            if p == c and g == c:
                tp += 1
            elif p == c:
                fp += 1
            elif g == c:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(
            2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return float(np.mean(np.asarray(scores))), scores


def _direct_ccc(x, y) -> float:
    mx, my = float(np.mean(x)), float(np.mean(y))
    var_x = float(np.var(x))
    var_y = float(np.var(y))
    cov = float(np.mean(x * y)) - mx * my
    denom = var_x + var_y + (mx - my) ** 2
    return 0.0 if denom == 0.0 else 2.0 * cov / denom


def test_criterion_3_metric_oracles(capsys):
    failures = []
    rng = np.random.default_rng(3)
    worst_f1 = 0.0
    for k in range(1000):
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, 8, n)
        gold = rng.integers(0, 8, n)
        mean, per_class = macro_f1(pred, gold, 8)
        oracle, oracle_per_class = _loop_macro_f1(pred, gold, 8)
        diff = abs(mean - oracle)
        worst_f1 = max(worst_f1, diff)
        if diff != 0.0:
            failures.append(f"macro-F1 instance {k}: {mean!r} vs oracle {oracle!r}")
        if list(per_class) != oracle_per_class:
            failures.append(f"macro-F1 instance {k}: per-class scores differ")

    worst_ccc = 0.0
    for k in range(100):
        n = int(rng.integers(2, 200))
        x = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, n)
        diff = abs(ccc(x, y) - _direct_ccc(x, y))
        worst_ccc = max(worst_ccc, diff)
        if diff > 1e-10:
            failures.append(f"ccc pair {k}: diff {diff:.2e} > 1e-10")

    if 0.235 + 0.493 + 0.391 != 1.119:
        failures.append("component sum 0.235+0.493+0.391 != 1.119")
    pred_va = rng.uniform(-1, 1, (40, 2))
    gold_va = rng.uniform(-1, 1, (40, 2))
    score = mtl_score(
        pred_va,
        gold_va,
        np.ones(40, dtype=bool),
        rng.integers(0, 8, 40),
        rng.integers(0, 8, 40),
        np.ones(40, dtype=bool),
        rng.uniform(0, 1, (40, 12)),
        rng.integers(0, 2, (40, 12)),
        np.ones(40, dtype=bool),
    )
    if score.p_mtl != score.p_va + score.p_exp + score.p_au:
        failures.append("combined score is not the exact sum of its parts")
    _verdict(
        capsys,
        3,
        "metric oracles",
        failures,
        f"macro-F1 worst diff {worst_f1:.1e} (1000 instances), "
        f"ccc worst diff {worst_ccc:.1e} (100 pairs)",
    )


# ---------------------------------------------------------------------------
# criterion 4: adaptive threshold values, monotonicity, bound, and the
# strict-inequality partition boundary.
# ---------------------------------------------------------------------------


def test_criterion_4_threshold_rules(capsys):
    failures = []
    cfg = ThresholdConfig()
    t0 = adaptive_thresholds(np.full(8, 0.8), 0, cfg)
    if abs(t0[0] - 0.38) > 1e-9:
        failures.append(f"epoch-0 value {t0[0]!r} differs from 0.38 by > 1e-9")

    rng = np.random.default_rng(44)
    mean_prob = rng.uniform(0.0, 1.0, 8)
    series = [adaptive_thresholds(mean_prob, e, cfg) for e in range(60)]
    for e in range(59):
        if np.any(series[e + 1] < series[e]):
            failures.append(f"thresholds decreased between epochs {e} and {e + 1}")
            break
    for e, values in enumerate(series):
        if np.any(values > cfg.beta):
            failures.append(f"epoch {e} threshold exceeds beta {cfg.beta}")
            break
        if np.any(values > cfg.beta * mean_prob + 1e-15):
            failures.append(f"epoch {e} threshold exceeds beta * mean_prob")
            break

    # Boundary: a max probability exactly at its class threshold is not
    # confident (strict inequality); nudging it above flips the row.
    t = float(t0[0])
    at_boundary = np.full(8, (1.0 - t) / 7.0)
    at_boundary[0] = t
    above = np.full(8, (1.0 - t - 1e-9) / 7.0)
    above[0] = t + 1e-9
    part = partition_confident(np.stack([at_boundary, above]), t0)
    if part.confident[0]:
        failures.append("probability equal to the threshold counted as confident")
    if not part.confident[1]:
        failures.append("probability above the threshold not counted as confident")
    if part.pseudo_labels[1] != 0:
        failures.append(f"wrong pseudo label {part.pseudo_labels[1]} for the confident row")
    _verdict(capsys, 4, "threshold rules", failures, f"epoch-0 value {t0[0]:.12f}")


# ---------------------------------------------------------------------------
# criterion 5: samples invalid for every task contribute exactly zero loss
# and zero gradient; removing them changes nothing beyond 1e-12.
# ---------------------------------------------------------------------------


def test_criterion_5_masking(capsys):
    failures = []
    rng = np.random.default_rng(55)
    mc = ModelConfig(image_height=6, image_width=6, hidden_width=4)
    params = init_params(mc, seed=9)
    params = map_fields(lambda a: a + rng.normal(0.0, 0.05, a.shape), params)
    weights = LossWeights()
    w_exp = rng.uniform(0.5, 3.0, 8)
    w_au = rng.uniform(0.5, 3.0, 12)
    thresholds = np.full(8, 0.15)

    patterns = [
        (True, True, True),
        (False, False, False),
        (True, False, False),
        (False, False, False),
        (False, True, True),
        (True, False, True),
    ]
    rows = [_random_row(rng, *p) for p in patterns]
    targets = _make_targets(
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
    )
    images = rng.uniform(0.0, 1.0, (6, 6, 6))
    keep = np.flatnonzero(targets.any_valid)
    sub_targets = _make_targets(
        targets.gold_exp[keep], targets.gold_au[keep], targets.gold_va[keep]
    )
    sub_images = images[keep]

    def run(imgs, tgt):
        ss_rows = np.flatnonzero(~tgt.exp_valid & tgt.any_valid)
        strong = imgs[ss_rows] * 0.9 + 0.05
        probs = softmax(forward_with_cache(params, imgs).exp_logits[ss_rows])
        part = partition_confident(probs, thresholds)
        return batch_loss_and_grads(
            params,
            imgs,
            tgt,
            w_exp,
            w_au,
            weights,
            TrainMode.SEMI,
            strong_images=strong,
            ss_rows=ss_rows,
            confident=part.confident,
            pseudo_labels=part.pseudo_labels,
        )

    full_losses, full_grads = run(images, targets)
    sub_losses, sub_grads = run(sub_images, sub_targets)
    for field in (
        "l_exp_sup",
        "l_exp_unsup",
        "l_exp_cons",
        "l_au",
        "l_va",
        "l_exp",
        "total",
    ):
        diff = abs(getattr(full_losses, field) - getattr(sub_losses, field))
        if diff > 1e-12:
            failures.append(f"loss field {field} batch-vs-subset diff {diff:.2e}")
    worst_grad = 0.0
    for name in PARAM_FIELDS:
        diff = float(
            np.max(np.abs(getattr(full_grads, name) - getattr(sub_grads, name)))
        )
        worst_grad = max(worst_grad, diff)
        if diff > 1e-12:
            failures.append(f"gradient field {name} batch-vs-subset diff {diff:.2e}")

    dead_rows = [_random_row(rng, False, False, False) for _ in range(3)]
    dead = _make_targets(
        [r[0] for r in dead_rows], [r[1] for r in dead_rows], [r[2] for r in dead_rows]
    )
    dead_losses, dead_grads = run(rng.uniform(0.0, 1.0, (3, 6, 6)), dead)
    if dead_losses.total != 0.0:
        failures.append(f"all-invalid batch produced loss {dead_losses.total!r}")
    for name in PARAM_FIELDS:
        if np.any(getattr(dead_grads, name) != 0.0):
            failures.append(f"all-invalid batch produced nonzero gradient in {name}")
            break
    _verdict(capsys, 5, "masking semantics", failures, f"worst grad diff {worst_grad:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: full 20-epoch runs with the same seed produce bit-identical
# epoch logs, and a sample's augmented views do not depend on the batch it
# is drawn in: augmenting a whole epoch in one call equals concatenating
# the per-batch calls in schedule order.
# ---------------------------------------------------------------------------


def test_criterion_6_determinism(capsys):
    failures = []
    train_ds, train_images = generate_synthetic(
        SynthConfig(
            count=400,
            image_size=8,
            exp_mask_rate=0.4,
            va_mask_rate=0.2,
            au_mask_rate=0.2,
        ),
        seed=0,
        prefix="train",
    )
    val_ds, val_images = generate_synthetic(
        SynthConfig(count=120, image_size=8), seed=1, prefix="val"
    )
    train = pack_dataset(train_ds, train_images)
    val = pack_dataset(val_ds, val_images)
    config = RunConfig(epochs=20, seed=5)
    logs = [format_epoch_log(run_training(train, val, config).reports) for _ in range(2)]
    if logs[0] != logs[1]:
        failures.append("repeat run with identical settings changed the log")
    n_lines = logs[0].count("\n")
    if n_lines != 20:
        failures.append(f"expected 20 log lines, got {n_lines}")

    w_exp = expression_class_weights(dataset_stats(train))
    want = (~train.exp_valid) & (train.exp_valid | train.au_valid | train.va_valid)
    for epoch in (0, config.epochs - 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, epoch)))
        schedule = make_epoch_schedule(train, config.imbalance, rng, w_exp)
        whole = keyed_views(
            train.levels[schedule], schedule, config.seed, epoch, config.augment, want[schedule]
        )
        batches = [
            keyed_views(
                train.levels[batch], batch, config.seed, epoch, config.augment, want[batch]
            )
            for batch in np.split(
                schedule, range(config.batch_size, len(schedule), config.batch_size)
            )
        ]
        for part, name in ((0, "weak"), (1, "strong")):
            joined = np.concatenate([views[part] for views in batches])
            if joined.tobytes() != whole[part].tobytes():
                failures.append(f"epoch {epoch}: per-batch {name} views differ from one call")
    _verdict(
        capsys, 6, "determinism", failures,
        f"{n_lines} epochs x 2 runs, logs byte-identical; views batch-invariant",
    )


# ---------------------------------------------------------------------------
# criteria 7 and 8 share one set of benchmark training runs: the default
# synthetic benchmark (2000 train / 500 val, 16x16, long-tailed train
# split, balanced validation), three training modes, seeds 0-4.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_runs():
    t0 = time.perf_counter()
    sfc = SynthFileConfig()
    train_ds, train_images = generate_synthetic(sfc.train_config(), seed=0, prefix="train")
    val_ds, val_images = generate_synthetic(sfc.val_config(), seed=1, prefix="val")
    train = pack_dataset(train_ds, train_images)
    val = pack_dataset(val_ds, val_images)
    prep_seconds = time.perf_counter() - t0

    runs = {}
    for mode in (TrainMode.SEMI, TrainMode.SUPERVISED, TrainMode.SEMI_NO_KL):
        for seed in range(5):
            t0 = time.perf_counter()
            result = run_training(train, val, RunConfig(mode=mode, seed=seed))
            seconds = time.perf_counter() - t0
            score = result.reports[result.best_epoch].val_score
            runs[(mode, seed)] = (score, seconds)
    return {"runs": runs, "prep_seconds": prep_seconds}


def test_criterion_7_benchmark(bench_runs, capsys):
    failures = []
    score, seconds = bench_runs["runs"][(TrainMode.SEMI, 0)]
    total_seconds = seconds + bench_runs["prep_seconds"]
    if total_seconds >= 300.0:
        failures.append(f"runtime {total_seconds:.0f}s >= 300s")
    if score.p_exp < 0.80:
        failures.append(f"expression macro-F1 {score.p_exp:.4f} < 0.80")
    if score.p_va < 0.80:
        failures.append(f"valence/arousal score {score.p_va:.4f} < 0.80")
    if score.p_au < 0.70:
        failures.append(f"action-unit macro-F1 {score.p_au:.4f} < 0.70")
    _verdict(
        capsys,
        7,
        "desk benchmark",
        failures,
        f"p_exp={score.p_exp:.4f} p_va={score.p_va:.4f} p_au={score.p_au:.4f}, "
        f"{total_seconds:.0f}s incl. data",
    )


def test_criterion_8_ablations(bench_runs, capsys):
    failures = []
    runs = bench_runs["runs"]
    semi = [runs[(TrainMode.SEMI, s)][0].p_exp for s in range(5)]
    sup = [runs[(TrainMode.SUPERVISED, s)][0].p_exp for s in range(5)]
    no_kl = [runs[(TrainMode.SEMI_NO_KL, s)][0].p_exp for s in range(5)]

    margins = [a - b for a, b in zip(semi, sup)]
    for seed, margin in enumerate(margins):
        if margin < -0.02:
            failures.append(
                f"seed {seed}: semi {semi[seed]:.4f} trails supervised "
                f"{sup[seed]:.4f} by more than 0.02"
            )
    strict_wins = sum(a > b for a, b in zip(semi, sup))
    if strict_wins < 3:
        failures.append(f"semi strictly beats supervised in only {strict_wins}/5 seeds")
    kl_wins = sum(a >= b for a, b in zip(semi, no_kl))
    if kl_wins < 3:
        failures.append(f"semi >= no-consistency variant in only {kl_wins}/5 seeds")
    _verdict(
        capsys,
        8,
        "ablation directions",
        failures,
        f"margins vs supervised {['%+.3f' % m for m in margins]}, "
        f"strict wins {strict_wins}/5, vs no-consistency {kl_wins}/5",
    )
