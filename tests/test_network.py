import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
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
    map_params,
    save_checkpoint,
    sigmoid,
    softmax,
    softmax_backward,
    zeros_like_params,
)

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


def test_map_params_and_zeros(rng):
    params = init_params(MC, 5)
    zeros = zeros_like_params(params)
    total = add_grads(params, zeros)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(total, name), getattr(params, name))
    scaled = map_params(lambda _, a: 2 * a, params)
    assert np.array_equal(scaled.w1, 2 * params.w1)


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
