import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectmtl.errors import ConfigError, DataError, DivergenceError
from affectmtl.network import (
    BACKBONE_FIELDS,
    FEATURE_NORM_EPS,
    PARAM_FIELDS,
    ModelConfig,
    Params,
    add_grads,
    backward,
    forward_with_cache,
    init_params,
    init_shapes,
    load_checkpoint,
    predict,
    save_checkpoint,
    sigmoid,
    softmax,
    softmax_backward,
)

import oracles
from conftest import map_fields

MC = ModelConfig(6, 6, hidden_width=4)


def test_init_deterministic():
    a = init_params(MC, 7)
    b = init_params(MC, 7)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_init_zero_biases_and_bounds():
    params = init_params(MC, 0)
    shapes = init_shapes(MC)
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        assert arr.shape == shapes[name]
        if name.startswith("b"):
            assert np.all(arr == 0.0)
        else:
            fan_in = arr.shape[0]
            assert np.all(np.abs(arr) <= 1.0 / np.sqrt(fan_in))


def test_zero_hidden_width_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(6, 6, hidden_width=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_feature_norm_is_one(seed, n):
    params = init_params(MC, seed)
    images = np.random.default_rng(seed).random((n, 6, 6))
    cache = forward_with_cache(params, images)
    norms = np.linalg.norm(cache.features, axis=1)
    # The epsilon under the root pulls the norm below 1 exactly when the
    # pre-normalization vector is tiny; outside that degenerate regime the
    # unit-norm contract holds tightly.
    assert np.all(norms <= 1.0 + 1e-12)
    regular = np.linalg.norm(cache.z2, axis=1) >= 0.1
    assert np.all(np.abs(norms[regular] - 1.0) <= 1e-6)


def test_va_strictly_inside_unit_interval(rng):
    params = init_params(MC, 1)
    cache = forward_with_cache(params, rng.random((8, 6, 6)))
    assert np.all(cache.va > -1.0) and np.all(cache.va < 1.0)


def test_zero_image_zero_bias_finite():
    params = init_params(MC, 0)
    cache = forward_with_cache(params, np.zeros((1, 6, 6)))
    # Pre-norm vector is 0; the epsilon under the root keeps output finite.
    assert np.all(np.isfinite(cache.features))
    assert np.linalg.norm(cache.z2[0]) == 0.0
    assert FEATURE_NORM_EPS > 0


def test_forward_shape_mismatch():
    params = init_params(MC, 0)
    with pytest.raises(DataError):
        forward_with_cache(params, np.zeros((1, 5, 5)))


@pytest.mark.parametrize("run", [forward_with_cache, predict])
def test_integer_images_rejected(run):
    # 8-bit levels must be scaled to [0, 1] before they reach the model.
    params = init_params(MC, 0)
    with pytest.raises(DataError, match="dtype uint8"):
        run(params, np.full((2, 6, 6), 255, dtype=np.uint8))


def test_non_finite_forward_raises_divergence():
    params = init_params(MC, 0)
    broken = replace(params, w1=np.full_like(params.w1, np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        forward_with_cache(broken, np.ones((1, 6, 6)))


class TestSoftmax:
    def test_uniform(self):
        probs = softmax(np.zeros((1, 8)))
        assert np.allclose(probs, 1 / 8)

    def test_large_logit_no_overflow(self):
        logits = np.zeros((1, 8))
        logits[0, 0] = 1000.0
        probs = softmax(logits)
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_two_class_hand_value(self):
        probs = softmax(np.log(np.array([[1.0, 3.0]])))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-12)

    def test_backward_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 8))
        upstream = rng.normal(size=(3, 8))
        probs = softmax(logits)
        analytic = softmax_backward(probs, upstream)
        h = 1e-6
        for i in range(3):
            for j in range(8):
                plus = logits.copy()
                plus[i, j] += h
                minus = logits.copy()
                minus[i, j] -= h
                fd = np.sum(upstream * (softmax(plus) - softmax(minus))) / (2 * h)
                assert analytic[i, j] == pytest.approx(fd, abs=1e-6)


def test_sigmoid_stable_extremes():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        params = init_params(MC, 2)
        cache = forward_with_cache(params, rng.random((3, 6, 6)))
        grads = backward(
            params,
            cache,
            np.zeros_like(cache.exp_logits),
            np.zeros_like(cache.au_logits),
            np.zeros_like(cache.va),
        )
        for name in PARAM_FIELDS:
            assert np.all(getattr(grads, name) == 0.0)

    def test_none_upstream_keeps_head_grads_zero(self, rng):
        params = init_params(MC, 2)
        cache = forward_with_cache(params, rng.random((3, 6, 6)))
        grads = backward(params, cache, d_exp_logits=rng.normal(size=(3, 8)))
        assert np.all(grads.w_au == 0.0) and np.all(grads.w_va1 == 0.0)
        assert np.any(grads.w_exp1 != 0.0) and np.any(grads.w1 != 0.0)

    def test_strong_only_backward_zeroes_au_and_va_fields(self, rng):
        """The strong pass sends only an expression gradient.  The result
        buffer is not zero-filled, so freed non-zero buffers of its size are
        handed out first; the AU and VA fields must still read exactly 0."""
        params = init_params(MC, 4)
        cache = forward_with_cache(params, rng.random((5, 6, 6)))
        au_va = ("w_au", "b_au", "w_va1", "b_va1", "w_va2", "b_va2")
        for _ in range(20):
            junk = np.full_like(params.flat, np.nan)
            del junk
            grads = backward(params, cache, rng.normal(size=(5, 8)), None, None)
            for name in au_va:
                assert np.all(getattr(grads, name) == 0.0), name
            assert np.all(np.isfinite(grads.flat))
            assert np.any(grads.w_exp1 != 0.0) and np.any(grads.w1 != 0.0)

    def test_duplicated_sample_doubles_contribution(self, rng):
        params = init_params(MC, 3)
        img = rng.random((1, 6, 6))
        upstream = rng.normal(size=(1, 8))
        single = backward(
            params, forward_with_cache(params, img), d_exp_logits=upstream
        )
        doubled = backward(
            params,
            forward_with_cache(params, np.concatenate([img, img])),
            d_exp_logits=np.concatenate([upstream, upstream]),
        )
        for name in PARAM_FIELDS:
            assert np.allclose(
                getattr(doubled, name), 2.0 * getattr(single, name), atol=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    heads=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    pin=st.none() | st.floats(),
)
@example(seed=0, n=3, heads=(True, True, True), pin=0.0)
@example(seed=0, n=3, heads=(True, True, True), pin=-0.0)
def test_forward_backward_match_reference(seed, n, heads, pin):
    """The pass that caches post-activations only returns the reference's
    outputs and gradients byte for byte, for any set of heads.  With pin
    set, the first unit of every rectifier layer has that pre-activation in
    both caches (and max(pin, 0) after the rectifier), so each mask is
    tested at +0.0, -0.0, NaN and the infinities too."""
    params = init_params(MC, seed)
    rng = np.random.default_rng(seed)
    images = rng.random((n, 6, 6))
    lean = forward_with_cache(params, images)
    ref = oracles.forward_with_cache(params, images)
    for f in fields(lean):
        assert getattr(lean, f.name).tobytes() == getattr(ref, f.name).tobytes(), f.name
    if pin is not None:
        for pre, post in (("a1", "h1"), ("a_exp", "h_exp"), ("a_va", "h_va")):
            getattr(ref, pre)[:, 0] = pin
            getattr(ref, post)[:, 0] = np.maximum(pin, 0.0)
            getattr(lean, post)[:, 0] = np.maximum(pin, 0.0)
    upstream = [
        rng.normal(size=shape) if on else None
        for on, shape in zip(heads, ((n, 8), (n, 12), (n, 2)))
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        got = backward(params, lean, *upstream)
        want = oracles.backward(params, ref, *upstream)
    assert got.flat.tobytes() == want.flat.tobytes()


def _outputs_or_message(fn, params, images):
    try:
        with np.errstate(all="ignore"):
            return fn(params, images)
    except DivergenceError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    width=st.integers(1, 9),
    poison=st.none() | st.tuples(st.sampled_from(("images",) + PARAM_FIELDS), st.floats()),
)
@example(seed=0, n=2, width=4, poison=("images", np.nan))
@example(seed=0, n=2, width=4, poison=("b_exp2", np.inf))
@example(seed=0, n=2, width=4, poison=("b_au", -np.inf))
@example(seed=0, n=2, width=4, poison=("b_va2", np.nan))
def test_predict_matches_forward_heads(seed, n, width, poison):
    """predict returns forward_with_cache's three head outputs byte for
    byte.  With poison set, one pixel or one parameter entry takes that
    value; where forward_with_cache then raises DivergenceError, predict
    raises it with the same message."""
    params = init_params(ModelConfig(6, 6, hidden_width=width), seed)
    images = np.random.default_rng(seed).random((n, 6, 6))
    if poison is not None:
        name, value = poison
        (images if name == "images" else getattr(params, name)).flat[0] = value
    cache = _outputs_or_message(forward_with_cache, params, images)
    heads = _outputs_or_message(predict, params, images)
    if isinstance(cache, str):
        assert heads == cache
    else:
        want = (cache.exp_logits, cache.au_logits, cache.va)
        assert [(a.shape, a.tobytes()) for a in heads] == [
            (a.shape, a.tobytes()) for a in want
        ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    width=st.integers(1, 9),
    poison=st.none() | st.tuples(st.sampled_from(("images",) + PARAM_FIELDS), st.floats()),
)
@example(seed=0, n=2, width=4, poison=("b_au", np.inf))
@example(seed=0, n=2, width=4, poison=("b_va2", np.nan))
@example(seed=0, n=2, width=4, poison=("b_exp2", -np.inf))
@example(seed=0, n=2, width=4, poison=("images", np.nan))
def test_expression_only_cache_matches_full_cache(seed, n, width, poison):
    """An expression-only pass caches the full pass's backbone and
    expression arrays byte for byte, leaves the action-unit and
    valence/arousal fields None, and gives the same bytes of gradient from
    an expression-only upstream.  It checks the features and the expression
    logits only: a poisoned action-unit or valence/arousal head raises in
    the full pass alone, and any other divergence raises the same message."""
    params = init_params(ModelConfig(6, 6, hidden_width=width), seed)
    clean = replace(params)
    rng = np.random.default_rng(seed)
    images = rng.random((n, 6, 6))
    if poison is not None:
        name, value = poison
        (images if name == "images" else getattr(params, name)).flat[0] = value
    full = _outputs_or_message(forward_with_cache, params, images)
    lean = _outputs_or_message(
        lambda p, x: forward_with_cache(p, x, expression_only=True), params, images
    )
    if isinstance(lean, str):
        assert full == lean
        return
    assert (lean.au_logits, lean.h_va, lean.va) == (None, None, None)
    if isinstance(full, str):
        # Only a head the expression-only pass skips diverged; the clean
        # parameters differ from the poisoned ones in that head alone.
        assert poison[0].endswith(("_au", "_va1", "_va2")), full
        full = forward_with_cache(clean, images)
    for name in ("x", "h1", "z2", "norm", "features", "h_exp", "exp_logits"):
        assert getattr(lean, name).tobytes() == getattr(full, name).tobytes(), name
    upstream = rng.normal(size=(n, 8))
    with np.errstate(invalid="ignore", over="ignore"):
        got = backward(params, lean, upstream, None, None)
        want = backward(params, full, upstream, None, None)
    assert got.flat.tobytes() == want.flat.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 79),
    scale=st.sampled_from((1e-3, 1.0, 10.0, 300.0)),
    picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=80),
)
@example(seed=0, n=1, scale=1.0, picks=[0.0])
@example(seed=0, n=64, scale=1.0, picks=[])
def test_softmax_of_row_subset_is_subset_of_softmax(seed, n, scale, picks):
    """softmax works row by row, so the rows of softmax(x) are the bytes of
    softmax(x[rows]) for any rows, repeated or reordered: the consistency
    term may slice its rows out of the probabilities the thresholds were
    probed with."""
    logits = np.random.default_rng(seed).normal(size=(n, 8)) * scale
    rows = (np.array(picks) * n).astype(np.int64)
    assert softmax(logits)[rows].tobytes() == softmax(logits[rows]).tobytes()


def test_map_params_and_zeros():
    params = init_params(MC, 5)
    expected = params.flat.tobytes()
    assert add_grads(params, map_fields(np.zeros_like, params)).flat.tobytes() == expected
    scaled = map_fields(lambda a: 2 * a, params)
    assert np.array_equal(scaled.w1, 2 * params.w1)
    assert not np.shares_memory(scaled.flat, params.flat)


def test_add_grads_writes_into_first_argument(rng):
    a = map_fields(lambda p: rng.normal(size=p.shape), init_params(MC, 0))
    b = map_fields(lambda p: rng.normal(size=p.shape), init_params(MC, 1))
    expected = a.flat + b.flat
    b_bytes = b.flat.tobytes()
    total = add_grads(a, b)
    assert total is a
    assert a.flat.tobytes() == expected.tobytes()
    assert b.flat.tobytes() == b_bytes


class TestFlatParams:
    def test_fields_are_views_of_flat_in_field_order(self):
        params = init_params(MC, 0)
        assert params.flat.dtype == np.float64 and params.flat.ndim == 1
        offset = 0
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            assert np.shares_memory(arr, params.flat)
            assert arr.ctypes.data == params.flat.ctypes.data + offset * 8
            offset += arr.size
        assert offset == params.flat.size

    def test_backbone_fields_lead_the_buffer(self):
        """The backbone boundary is PARAM_FIELDS' leading slice, so Adam's
        split at the backbone size is the heads' first offset."""
        assert BACKBONE_FIELDS == PARAM_FIELDS[: len(BACKBONE_FIELDS)] == ("w1", "b1", "w2", "b2")
        params = init_params(MC, 0)
        backbone = sum(getattr(params, name).size for name in BACKBONE_FIELDS)
        head = getattr(params, PARAM_FIELDS[len(BACKBONE_FIELDS)])
        assert head.ctypes.data == params.flat.ctypes.data + backbone * 8

    def test_constructor_and_replace_build_fresh_buffers(self):
        params = init_params(MC, 0)
        w1 = np.ones_like(params.w1)
        changed = replace(params, w1=w1)
        assert not np.shares_memory(changed.flat, params.flat)
        assert not np.shares_memory(changed.w1, w1)
        assert np.array_equal(changed.w1, w1)
        for name in PARAM_FIELDS[1:]:
            assert np.array_equal(getattr(changed, name), getattr(params, name))
        rebuilt = Params(**{name: getattr(params, name) for name in PARAM_FIELDS})
        assert not np.shares_memory(rebuilt.flat, params.flat)

    def test_gradients_share_one_buffer(self, rng):
        params = init_params(MC, 2)
        cache = forward_with_cache(params, rng.random((3, 6, 6)))
        grads = backward(params, cache, d_exp_logits=rng.normal(size=(3, 8)))
        for name in PARAM_FIELDS:
            assert np.shares_memory(getattr(grads, name), grads.flat)
        assert not np.shares_memory(grads.flat, params.flat)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(MC, 11)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, MC, "abc123")
        loaded, config, digest = load_checkpoint(path)
        assert config == MC and digest == "abc123"
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_wrong_version(self, tmp_path):
        params = init_params(MC, 0)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, MC, "h")
        with np.load(path) as data:
            arrays = dict(data)
        arrays["version"] = np.int64(99)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    def test_non_finite_rejected(self, tmp_path):
        params = init_params(MC, 0)
        broken = replace(params, w2=np.full_like(params.w2, np.nan))
        path = tmp_path / "model.npz"
        save_checkpoint(path, broken, MC, "h")
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import affectmtl.network as network

        path = tmp_path / "model.npz"
        save_checkpoint(path, init_params(MC, 1), MC, "old")
        before = path.read_bytes()

        def torn_savez(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(network.np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_params(MC, 2), MC, "new")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
