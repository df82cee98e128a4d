import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl.augmentation import (
    STRONG_DRAWS,
    STRONG_OP_NAMES,
    STRONG_VIEW,
    WEAK_DRAWS,
    WEAK_VIEW,
    AugConfig,
    augment_views,
    cutout,
    rotate_bilinear,
    strong_op_order,
    strong_views,
    view_uniforms,
    weak_views,
)
from affectmtl.errors import ConfigError


def images(rng, n=6, size=8):
    return rng.random((n, size, size))


def weak_draws(n, seed=0, epoch=0):
    return view_uniforms(seed, epoch, np.arange(n), WEAK_VIEW, WEAK_DRAWS)


def strong_draws(n, seed=0, epoch=0):
    return view_uniforms(seed, epoch, np.arange(n), STRONG_VIEW, STRONG_DRAWS)


def rotate_one(image, degrees):
    """Per-image loop reference for rotate_bilinear."""
    height, width = image.shape
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    out = np.zeros_like(image)
    for y in range(height):
        for x in range(width):
            sy = cos_t * (y - cy) + sin_t * (x - cx) + cy
            sx = -sin_t * (y - cy) + cos_t * (x - cx) + cx
            y0, x0 = math.floor(sy), math.floor(sx)
            for yy, xx, weight in (
                (y0, x0, (1 - (sy - y0)) * (1 - (sx - x0))),
                (y0, x0 + 1, (1 - (sy - y0)) * (sx - x0)),
                (y0 + 1, x0, (sy - y0) * (1 - (sx - x0))),
                (y0 + 1, x0 + 1, (sy - y0) * (sx - x0)),
            ):
                if 0 <= yy < height and 0 <= xx < width:
                    out[y, x] += weight * image[yy, xx]
    return out


def test_weak_deterministic_per_stream(rng):
    imgs = images(rng)
    cfg = AugConfig()
    out1, _ = augment_views(imgs, np.arange(6), 5, 2, cfg)
    out2, _ = augment_views(imgs, np.arange(6), 5, 2, cfg)
    assert np.array_equal(out1, out2)


def test_weak_preserves_shape_and_range(rng):
    imgs = images(rng, n=20, size=16)
    out = weak_views(imgs, weak_draws(20), AugConfig())
    assert out.shape == imgs.shape and out.dtype == imgs.dtype
    assert out.min() >= 0.0 and out.max() <= 1.0
    # A crop of the reflect-padded image only ever shows the image's own pixels.
    for row in range(20):
        assert set(out[row].ravel()) <= set(imgs[row].ravel())


def test_flip_prob_extremes(rng):
    imgs = images(rng)
    no_flip = AugConfig(crop_padding=0, flip_prob=0.0)
    always = AugConfig(crop_padding=0, flip_prob=1.0)
    assert np.array_equal(weak_views(imgs, weak_draws(6), no_flip), imgs)
    assert np.array_equal(weak_views(imgs, weak_draws(6), always), imgs[:, :, ::-1])


def test_zero_padding_crop_is_identity(rng):
    imgs = images(rng)
    cfg = AugConfig(crop_padding=0, flip_prob=0.0)
    for seed in range(5):
        assert np.array_equal(weak_views(imgs, weak_draws(6, seed=seed), cfg), imgs)


def test_strong_stays_in_range(rng):
    imgs = images(rng, n=200, size=16)
    for k in range(1, len(STRONG_OP_NAMES) + 1):
        cfg = AugConfig(strong_ops_per_image=k)
        out = strong_views(imgs, strong_draws(200), cfg)
        assert out.shape == imgs.shape and out.dtype == imgs.dtype
        assert out.min() >= 0.0 and out.max() <= 1.0
        order = strong_op_order(strong_draws(200), cfg)
        assert order.shape == (200, k)
        assert all(len(set(row)) == k for row in order.tolist())


def test_strong_differs_from_weak(rng):
    imgs = images(rng, size=16)
    weak, strong = augment_views(imgs, np.arange(6), 0, 0, AugConfig(), np.ones(6, bool))
    for row in range(6):
        assert not np.array_equal(weak[row], strong[row])


def test_rotate_zero_degrees_identity(rng):
    imgs = images(rng)
    assert np.array_equal(rotate_bilinear(imgs, np.zeros(6)), imgs)


def test_rotate_fills_outside_with_zero():
    out = rotate_bilinear(np.ones((2, 9, 9)), np.array([45.0, -45.0]))
    assert np.all(out[:, 0, 0] == 0.0) and np.all(out[:, -1, -1] == 0.0)
    assert out[:, 4, 4] == pytest.approx(1.0)


def test_rotate_bounded_by_input_hull(rng):
    imgs = images(rng, size=12)
    out = rotate_bilinear(imgs, np.linspace(-15.0, 15.0, 6))
    assert out.min() >= 0.0
    assert np.all(out.max(axis=(1, 2)) <= imgs.max(axis=(1, 2)) + 1e-12)


def test_rotate_matches_per_image_reference(rng):
    imgs = images(rng, n=5, size=7)
    degrees = np.array([-15.0, -4.5, 0.0, 13.0, 90.0])
    out = rotate_bilinear(imgs, degrees)
    for row in range(5):
        assert np.allclose(out[row], rotate_one(imgs[row], degrees[row]), rtol=0, atol=1e-12)


def test_cutout_area_capped():
    draws = view_uniforms(0, 0, np.arange(2000), STRONG_VIEW, 4)
    out = cutout(np.ones((2000, 16, 16)), draws, 0.25)
    removed = np.count_nonzero(out == 0.0, axis=(1, 2))
    assert removed.min() >= 1 and removed.max() <= 64  # 25% of 256
    assert removed.max() == 64  # the largest box, 8x8, does occur


def test_view_rngs_weak_strong_independent():
    weak = view_uniforms(0, 0, np.arange(5000), WEAK_VIEW, WEAK_DRAWS)
    strong = view_uniforms(0, 0, np.arange(5000), STRONG_VIEW, WEAK_DRAWS)
    assert not np.any(weak == strong)
    for d in range(WEAK_DRAWS):
        assert abs(np.corrcoef(weak[:, d], strong[:, d])[0, 1]) < 0.05


def test_view_rngs_keyed_by_triple():
    a = view_uniforms(1, 2, [3], WEAK_VIEW, 4)
    b = view_uniforms(1, 2, [3], WEAK_VIEW, 4)
    c = view_uniforms(1, 2, [4], WEAK_VIEW, 4)
    d = view_uniforms(2, 2, [3], WEAK_VIEW, 4)
    assert np.array_equal(a, b)
    assert not np.any(a == c) and not np.any(a == d)


def test_uniforms_lie_in_unit_interval_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = view_uniforms(2**63 + 12345, 2**40, np.arange(50_000), STRONG_VIEW, STRONG_DRAWS)
    assert u.shape == (50_000, STRONG_DRAWS)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


def test_augment_views_order_independent(rng):
    """A sample's views depend on its dataset index, not its batch slot."""
    imgs = images(rng, n=4)
    indices = np.array([10, 11, 12, 13])
    cfg = AugConfig()
    weak, strong = augment_views(imgs, indices, 0, 0, cfg, np.ones(4, bool))
    perm = np.array([2, 0, 3, 1])
    weak_p, strong_p = augment_views(imgs[perm], indices[perm], 0, 0, cfg, np.ones(4, bool))
    assert np.array_equal(weak_p, weak[perm])
    assert np.array_equal(strong_p, strong[perm])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(st.integers(1, n), max_size=4),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.integers(0, 3000), min_size=n, max_size=n),
        )
    ),
    st.integers(0, 2**32),
    st.integers(0, 50),
)
def test_augment_views_batch_split_invariant(case, seed, epoch):
    """Views are byte-identical under any split and permutation of the batch."""
    perm, cuts, want, indices = case
    n = len(perm)
    imgs = np.random.default_rng(seed % 1000).random((n, 8, 8))
    indices, want, perm = np.array(indices), np.array(want), np.array(perm)
    cfg = AugConfig()
    weak, strong = augment_views(imgs, indices, seed, epoch, cfg, want)
    bounds = [0] + sorted(cuts) + [n]
    pieces = [
        augment_views(imgs[perm[a:b]], indices[perm[a:b]], seed, epoch, cfg, want[perm[a:b]])
        for a, b in zip(bounds, bounds[1:])
    ]
    assert np.concatenate([p[0] for p in pieces]).tobytes() == weak[perm].tobytes()
    assert np.concatenate([p[1] for p in pieces]).tobytes() == strong[perm].tobytes()


def test_augment_views_skips_unwanted_strong(rng):
    imgs = images(rng, n=3)
    want = np.array([True, False, True])
    _, strong = augment_views(imgs, np.arange(3), 0, 0, AugConfig(), want)
    assert np.all(strong[1] == 0.0)
    assert np.any(strong[0] != 0.0)
    _, none = augment_views(imgs, np.arange(3), 0, 0, AugConfig())
    assert np.all(none == 0.0)


def test_draw_distributions():
    """Over many keys: every crop offset, every ordered op pair, flip rate."""
    n, size, pad, flip_prob = 20_000, 8, 2, 0.3
    coords = np.arange(size)[:, None] * 100.0 + np.arange(size)[None, :]
    cfg = AugConfig(crop_padding=pad, flip_prob=flip_prob)
    out = weak_views(np.broadcast_to(coords, (n, size, size)), weak_draws(n, seed=7), cfg)

    row_map = np.pad(np.arange(size), pad, mode="reflect")
    windows = np.stack([row_map[t : t + size] for t in range(2 * pad + 1)])
    seen_rows = out[:, :, 0] // 100
    match = np.all(seen_rows[:, None, :] == windows[None], axis=2)
    assert np.all(match.sum(axis=1) == 1)
    tops = np.argmax(match, axis=1)
    counts = np.bincount(tops, minlength=2 * pad + 1)
    assert len(counts) == 2 * pad + 1 and counts.min() > 0.8 * n / (2 * pad + 1)

    flipped = out[:, 0, size // 2] > out[:, 0, size // 2 + 1]
    assert abs(flipped.mean() - flip_prob) < 0.02

    order = strong_op_order(strong_draws(n, seed=7), AugConfig())
    assert order.shape == (n, 2) and np.all(order[:, 0] != order[:, 1])
    pairs = np.bincount(order[:, 0] * len(STRONG_OP_NAMES) + order[:, 1], minlength=16)
    nonzero = np.flatnonzero(pairs)
    assert len(nonzero) == 12
    assert pairs[nonzero].min() > 0.8 * n / 12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 100), st.integers(0, 10_000))
def test_epoch_changes_streams(seed, epoch, index):
    base = view_uniforms(seed, epoch, [index], WEAK_VIEW, WEAK_DRAWS)
    next_epoch = view_uniforms(seed, epoch + 1, [index], WEAK_VIEW, WEAK_DRAWS)
    next_index = view_uniforms(seed, epoch, [index + 1], WEAK_VIEW, WEAK_DRAWS)
    assert not np.array_equal(base, next_epoch)
    assert not np.array_equal(base, next_index)


def test_config_validation():
    with pytest.raises(ConfigError):
        AugConfig(crop_padding=-1)
    with pytest.raises(ConfigError):
        AugConfig(flip_prob=1.5)
    with pytest.raises(ConfigError):
        AugConfig(strong_ops_per_image=0)
    with pytest.raises(ConfigError):
        AugConfig(contrast_low=0.0)
    with pytest.raises(ConfigError):
        AugConfig(cutout_max_frac=2.0)
