import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectmtl import augmentation
from affectmtl.augmentation import (
    CUTOUT,
    CUTOUT_DRAWS,
    ROTATION,
    ROTATION_DRAW,
    STRONG_DRAWS,
    STRONG_OP_NAMES,
    STRONG_VIEW,
    WEAK_DRAWS,
    WEAK_VIEW,
    AugConfig,
    augment_views,
    cutout_boxes,
    rotate_bilinear,
    strong_op_order,
    strong_views,
    view_uniforms,
    weak_views,
)
from affectmtl.errors import ConfigError
from affectmtl.pgm import level_pixels
import oracles
from conftest import keyed_views as views


def images(rng, n=6, size=8):
    return rng.random((n, size, size))


def levels(rng, n=6, size=8):
    return rng.integers(0, 256, (n, size, size), dtype=np.uint8)


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
    imgs = levels(rng)
    cfg = AugConfig()
    out1, _ = views(imgs, np.arange(6), 5, 2, cfg, np.zeros(6, bool))
    out2, _ = views(imgs, np.arange(6), 5, 2, cfg, np.zeros(6, bool))
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
    imgs = levels(rng, size=16)
    weak, strong = views(imgs, np.arange(6), 0, 0, AugConfig(), np.ones(6, bool))
    for row in range(6):
        assert not np.array_equal(level_pixels(weak[row]), strong[row])


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
    removed = np.count_nonzero(cutout_boxes(draws, 16, 16, 0.25), axis=(1, 2))
    assert removed.min() >= 1 and removed.max() <= 64  # 25% of 256
    assert removed.max() == 64  # the largest box, 8x8, does occur


@pytest.mark.parametrize("height, width", [(16, 16), (4, 30), (30, 4)])
@pytest.mark.parametrize("max_frac", [0.0, 0.001, 0.01])
def test_cutout_cap_below_one_pixel_is_empty(height, width, max_frac):
    """A side whose cap falls below one pixel gives an empty box, and a
    strong view that picks only cutout then zeroes nothing."""
    side = math.sqrt(max_frac)
    draws = view_uniforms(0, 0, np.arange(500), STRONG_VIEW, STRONG_DRAWS)
    boxes = cutout_boxes(draws[:, CUTOUT_DRAWS], height, width, max_frac)
    if min(int(height * side), int(width * side)) == 0:
        assert not boxes.any()
    else:
        assert np.all(boxes.any(axis=(1, 2)))
    imgs = np.random.default_rng(5).uniform(0.1, 1.0, (500, height, width))
    cfg = AugConfig(strong_ops_per_image=1, cutout_max_frac=max_frac)
    got = strong_views(imgs, draws, cfg)
    expected = np.stack([oracles.strong_view(i, d, cfg) for i, d in zip(imgs, draws)])
    assert got.tobytes() == expected.tobytes()
    cut = strong_op_order(draws, cfg)[:, 0] == CUTOUT
    zeroed = np.count_nonzero(got[cut] == 0.0, axis=(1, 2))
    assert cut.any() and np.array_equal(zeroed, boxes[cut].sum(axis=(1, 2)))


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


# view_uniforms output for a few keys, as the integers k of k / 2**53.
# Every augmented view, and so every seeded run's log, depends on these
# bits: a rewrite of the hash must reproduce them.
FROZEN_UNIFORMS = (
    ((0, 0, [0, 1, 1999], WEAK_VIEW, 3), [
        [4246087670787066, 5834484120467236, 175450147269942],
        [2143862671120412, 8129623159541848, 132913160624284],
        [7120766377011375, 3071356411473962, 8689914601492996],
    ]),
    ((2**64 - 1, 2**40, [7], STRONG_VIEW, 4), [
        [3334887575400656, 7659429765167926, 5247626030224385, 7769380629187390],
    ]),
    ((2**64 - 1, 2**40, [3], WEAK_VIEW, 3), [
        [7023216116073536, 4689200984360643, 840785070921941],
    ]),
    ((123456789, 29, [0, 2**40], STRONG_VIEW, 2), [
        [6093034003630613, 7000791747461251],
        [1635854664032460, 6689813442847606],
    ]),
)


@pytest.mark.parametrize("key, expected", FROZEN_UNIFORMS)
def test_view_uniforms_frozen(key, expected):
    u = view_uniforms(*key)
    assert u.tobytes() == (np.array(expected, dtype=np.float64) * 2.0**-53).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**70 - 1),
    epoch=st.integers(0, 2**70 - 1),
    indices=st.lists(st.integers(0, 2**63 - 1), max_size=3),
    view=st.sampled_from([WEAK_VIEW, STRONG_VIEW]),
)
@example(seed=2**64 - 1, epoch=2**64 - 1, indices=[0], view=WEAK_VIEW)
@example(seed=2**64, epoch=2**64 + 5, indices=[2**63 - 1], view=STRONG_VIEW)
def test_view_uniforms_match_python_int_reference(seed, epoch, indices, view):
    """The (seed, epoch) prefix, hashed on a one-element uint64 array with
    seed and epoch taken modulo 2**64, gives the bits of the Python-int
    hash, and no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = view_uniforms(seed, epoch, indices, view, 4)
    assert u.tobytes() == oracles.view_uniforms(seed, epoch, indices, view, 4).tobytes()


def test_weak_views_match_per_image_np_pad_reference():
    """Every height and width from 1 to 12, square or not, and every pad up
    to three times the longer side, where the reflection folds back and
    forth across the image: the bytes of np.pad, crop and flip."""
    rng = np.random.default_rng(11)
    for height in range(1, 13):
        for width in range(1, 13):
            imgs = rng.random((4, height, width))
            for pad in range(3 * max(height, width) + 1):
                cfg = AugConfig(crop_padding=pad)
                key = (pad, height * 13 + width, np.arange(4))
                draws = view_uniforms(*key, WEAK_VIEW, WEAK_DRAWS)
                expected = np.stack([oracles.weak_view(i, d, cfg) for i, d in zip(imgs, draws)])
                got = weak_views(imgs, draws, cfg)
                assert got.tobytes() == expected.tobytes(), (height, width, pad)


@pytest.mark.parametrize("pad", [0, 2, 20], ids=["pad 0", "pad 2", "pad wider than the image"])
def test_weak_views_of_a_group_match_per_image_reference(pad):
    """A 128-row group of 16x16 levels, the size run_training gathers, gets
    the per-image np.pad views byte for byte: crop offsets up to 2 * pad
    read the table of distinct crops modulo the reflection's period."""
    rng = np.random.default_rng(pad)
    imgs = rng.integers(0, 256, (128, 16, 16), dtype=np.uint8)
    cfg = AugConfig(crop_padding=pad)
    draws = view_uniforms(pad, 0, np.arange(128), WEAK_VIEW, WEAK_DRAWS)
    expected = np.stack([oracles.weak_view(i, d, cfg) for i, d in zip(imgs, draws)])
    assert weak_views(imgs, draws, cfg).tobytes() == expected.tobytes()


def test_augment_views_order_independent(rng):
    """A sample's views depend on its dataset index, not its batch slot."""
    imgs = levels(rng, n=4)
    indices = np.array([10, 11, 12, 13])
    cfg = AugConfig()
    weak, strong = views(imgs, indices, 0, 0, cfg, np.ones(4, bool))
    perm = np.array([2, 0, 3, 1])
    weak_p, strong_p = views(imgs[perm], indices[perm], 0, 0, cfg, np.ones(4, bool))
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
    imgs = levels(np.random.default_rng(seed % 1000), n)
    indices, want, perm = np.array(indices), np.array(want), np.array(perm)
    cfg = AugConfig()
    weak, strong = views(imgs, indices, seed, epoch, cfg, want)
    bounds = [0] + sorted(cuts) + [n]
    pieces = [
        views(imgs[perm[a:b]], indices[perm[a:b]], seed, epoch, cfg, want[perm[a:b]])
        for a, b in zip(bounds, bounds[1:])
    ]
    # strong holds the marked rows in batch order; row r's is strong_row[r].
    strong_row = np.cumsum(want) - 1
    assert np.concatenate([p[0] for p in pieces]).tobytes() == weak[perm].tobytes()
    assert (
        np.concatenate([p[1] for p in pieces]).tobytes()
        == strong[strong_row[perm][want[perm]]].tobytes()
    )


def test_augment_views_skips_unwanted_strong(rng):
    """Strong views are built, and returned, for the marked rows only."""
    imgs = levels(rng, n=3)
    want = np.array([True, False, True])
    _, strong = views(imgs, np.arange(3), 0, 0, AugConfig(), want)
    _, alone = views(imgs[[0, 2]], [0, 2], 0, 0, AugConfig(), np.ones(2, bool))
    assert strong.shape == (2, 8, 8)
    assert strong.tobytes() == alone.tobytes()
    _, none = views(imgs, np.arange(3), 0, 0, AugConfig(), np.zeros(3, bool))
    assert none.shape == (0, 8, 8)
    # One strong draw row per marked row, or the call is refused.
    with pytest.raises(ValueError):
        augment_views(imgs, weak_draws(3), strong_draws(3), AugConfig(), want_strong=want)
    # Float pixels are not levels.
    with pytest.raises(ValueError, match="uint8"):
        augment_views(level_pixels(imgs), weak_draws(3), strong_draws(2), AugConfig(),
                      want_strong=want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 6), st.integers(0, 2**32))
def test_weak_views_of_levels_read_as_weak_views_of_pixels(height, width, pad, seed):
    """Crop and flip only move pixels: the float pixels of the weak views of
    levels are the weak views of the levels' float pixels, byte for byte."""
    rng = np.random.default_rng(seed % 1000)
    imgs = rng.integers(0, 256, (5, height, width), dtype=np.uint8)
    draws = view_uniforms(seed, 0, np.arange(5), WEAK_VIEW, WEAK_DRAWS)
    cfg = AugConfig(crop_padding=pad)
    gathered = weak_views(imgs, draws, cfg)
    assert gathered.dtype == np.uint8
    assert level_pixels(gathered).tobytes() == weak_views(level_pixels(imgs), draws, cfg).tobytes()


def test_augment_views_strong_rows_read_float_pixels(rng):
    """The strong views are strong_views of the marked rows' float pixels."""
    imgs = levels(rng, n=7)
    want = np.array([True, False, True, True, False, False, True])
    weak, strong = views(imgs, np.arange(7), 3, 1, AugConfig(), want)
    draws = view_uniforms(3, 1, np.arange(7)[want], STRONG_VIEW, STRONG_DRAWS)
    expected = strong_views(level_pixels(imgs[want]), draws, AugConfig())
    assert strong.tobytes() == expected.tobytes()
    assert weak.dtype == np.uint8 and strong.dtype == np.float64


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32))
def test_rotate_bilinear_matches_allocating_reference(n, height, width, seed):
    """Writing each pass into an array already held keeps every byte of the
    allocating form, at angles 0 and +-rotation_max_deg too."""
    rng = np.random.default_rng(seed)
    imgs = rng.random((n, height, width))
    limit = AugConfig().rotation_max_deg
    degrees = rng.uniform(-limit, limit, n)
    degrees[rng.random(n) < 0.2] = 0.0
    degrees[rng.random(n) < 0.1] = limit
    degrees[rng.random(n) < 0.1] = -limit
    got = rotate_bilinear(imgs, degrees)
    assert got.tobytes() == oracles.rotate_bilinear(imgs, degrees).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, len(STRONG_OP_NAMES)),
    st.integers(3, 12),
    st.integers(0, 3),
    st.integers(0, 2**32),
    st.integers(0, 50),
)
def test_strong_views_match_per_image_reference(n, ops, size, pad, seed, epoch):
    """Running the batch op slot by op slot gives the bits of building each
    image's strong view alone, its ops in its own order."""
    imgs = np.random.default_rng(seed % 1000).random((n, size, size))
    cfg = AugConfig(crop_padding=pad, strong_ops_per_image=ops)
    draws = strong_draws(n, seed=seed, epoch=epoch)
    expected = np.stack([oracles.strong_view(i, d, cfg) for i, d in zip(imgs, draws)])
    assert strong_views(imgs, draws, cfg).tobytes() == expected.tobytes()


def test_strong_views_rotate_slot_by_slot(rng, monkeypatch):
    """Each rotate_bilinear call turns the rows that picked rotation in one
    slot, in row order: one call per slot that has such rows."""
    calls = []

    def recording(images, degrees):
        calls.append(degrees.tolist())
        return rotate_bilinear(images, degrees)

    monkeypatch.setattr(augmentation, "rotate_bilinear", recording)
    imgs = images(rng, n=200)
    for k in range(1, len(STRONG_OP_NAMES) + 1):
        cfg = AugConfig(strong_ops_per_image=k)
        draws = strong_draws(200, seed=k)
        order = strong_op_order(draws, cfg)
        # Rows that never rotate in slot 0 leave that slot without a call.
        for keep in (np.ones(200, bool), order[:, 0] != ROTATION):
            angle = cfg.rotation_max_deg * (2.0 * draws[keep, ROTATION_DRAW] - 1.0)
            expected = [
                angle[picked].tolist() for picked in (order[keep] == ROTATION).T if picked.any()
            ]
            assert len(expected) == k - (not keep.all())
            calls.clear()
            strong_views(imgs[keep], draws[keep], cfg)
            assert calls == expected
            assert all(len(call) > 1 for call in calls)


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
