"""Shared-backbone model with three task heads and exact hand gradients.

Flattened pixels feed a two-layer perceptron; its output is L2-normalized
(with an epsilon under the square root) and fanned out to three heads:

* expression: hidden rectifier layer, then linear to 8 logits,
* action units: one linear layer producing 12 independent logits,
* valence/arousal: hidden rectifier layer, linear to 2, tanh.

forward_with_cache keeps every intermediate needed by backward, which
implements reverse mode by hand, including the normalization and tanh
Jacobians.  Gradients are exact (finite-difference verified in the tests),
not approximated.

Parameters live in one flat float64 buffer, Params.flat, laid out in
PARAM_FIELDS order (backbone first); each named field is a reshaped view
of its slice.  backward writes every gradient into views of one zeroed
buffer, so summing gradients or stepping the optimizer is whole-buffer
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError, DivergenceError

FEATURE_NORM_EPS = 1e-8
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    image_height: int
    image_width: int
    hidden_width: int = 64

    def __post_init__(self):
        if self.image_height < 1 or self.image_width < 1:
            raise ConfigError("image dimensions must be positive")
        if self.hidden_width < 1:
            raise ConfigError("hidden_width must be positive")

    @property
    def input_dim(self) -> int:
        return self.image_height * self.image_width


@dataclass(frozen=True, eq=False)
class Params:
    """The 14 parameter arrays, each a view into the flat buffer `flat`.

    The constructor (and so dataclasses.replace) copies the given arrays
    into a fresh buffer; Params.wrap views an existing buffer without
    copying.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_exp1: np.ndarray
    b_exp1: np.ndarray
    w_exp2: np.ndarray
    b_exp2: np.ndarray
    w_au: np.ndarray
    b_au: np.ndarray
    w_va1: np.ndarray
    b_va1: np.ndarray
    w_va2: np.ndarray
    b_va2: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=np.float64) for name in PARAM_FIELDS]
        flat = np.concatenate([a.ravel() for a in arrays])
        self._bind(flat, [a.shape for a in arrays])

    def _bind(self, flat: np.ndarray, shapes) -> None:
        object.__setattr__(self, "flat", flat)
        offset = 0
        for name, shape in zip(PARAM_FIELDS, shapes):
            end = offset + math.prod(shape)
            object.__setattr__(self, name, flat[offset:end].reshape(shape))
            offset = end

    @classmethod
    def wrap(cls, flat: np.ndarray, like: Params) -> Params:
        """Params viewing flat (not copied), with the field shapes of like."""
        params = cls.__new__(cls)
        params._bind(flat, [getattr(like, name).shape for name in PARAM_FIELDS])
        return params


PARAM_FIELDS = tuple(f.name for f in fields(Params) if f.init)
BACKBONE_FIELDS = ("w1", "b1", "w2", "b2")


def map_params(fn, *param_sets) -> Params:
    """Apply fn elementwise over corresponding arrays of the given Params."""
    return Params(
        **{
            name: fn(name, *[getattr(ps, name) for ps in param_sets])
            for name in PARAM_FIELDS
        }
    )


def zeros_like_params(params: Params) -> Params:
    return Params.wrap(np.zeros_like(params.flat), params)


def init_params(config: ModelConfig, seed: int) -> Params:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    h = config.hidden_width
    d = config.input_dim

    def weight(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, (fan_in, fan_out))

    return Params(
        w1=weight(d, h),
        b1=np.zeros(h),
        w2=weight(h, h),
        b2=np.zeros(h),
        w_exp1=weight(h, h),
        b_exp1=np.zeros(h),
        w_exp2=weight(h, 8),
        b_exp2=np.zeros(8),
        w_au=weight(h, 12),
        b_au=np.zeros(12),
        w_va1=weight(h, h),
        b_va1=np.zeros(h),
        w_va2=weight(h, 2),
        b_va2=np.zeros(2),
    )


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """Everything backward needs, plus the head outputs."""

    x: np.ndarray
    a1: np.ndarray
    h1: np.ndarray
    z2: np.ndarray
    norm: np.ndarray
    features: np.ndarray
    a_exp: np.ndarray
    h_exp: np.ndarray
    exp_logits: np.ndarray
    au_logits: np.ndarray
    a_va: np.ndarray
    h_va: np.ndarray
    va: np.ndarray


def forward_with_cache(params: Params, images: np.ndarray) -> ForwardCache:
    """Run the model on a (n, h, w) image batch.

    Raises DivergenceError if any head output (or the shared features) is
    not finite, which is how exploding updates surface.
    """
    n = images.shape[0]
    x = images.reshape(n, -1)
    if x.shape[1] != params.w1.shape[0]:
        raise DataError(
            f"image size {x.shape[1]} does not match model input {params.w1.shape[0]}"
        )
    a1 = x @ params.w1 + params.b1
    h1 = np.maximum(a1, 0.0)
    z2 = h1 @ params.w2 + params.b2
    norm = np.sqrt(np.sum(z2 * z2, axis=1) + FEATURE_NORM_EPS)
    features = z2 / norm[:, None]

    a_exp = features @ params.w_exp1 + params.b_exp1
    h_exp = np.maximum(a_exp, 0.0)
    exp_logits = h_exp @ params.w_exp2 + params.b_exp2

    au_logits = features @ params.w_au + params.b_au

    a_va = features @ params.w_va1 + params.b_va1
    h_va = np.maximum(a_va, 0.0)
    va = np.tanh(h_va @ params.w_va2 + params.b_va2)

    for name, arr in (
        ("features", features),
        ("expression logits", exp_logits),
        ("action-unit logits", au_logits),
        ("valence-arousal output", va),
    ):
        if not np.all(np.isfinite(arr)):
            raise DivergenceError(f"non-finite {name} in forward pass")
    return ForwardCache(
        x=x, a1=a1, h1=h1, z2=z2, norm=norm, features=features,
        a_exp=a_exp, h_exp=h_exp, exp_logits=exp_logits,
        au_logits=au_logits, a_va=a_va, h_va=h_va, va=va,
    )


def backward(
    params: Params,
    cache: ForwardCache,
    d_exp_logits: np.ndarray | None = None,
    d_au_logits: np.ndarray | None = None,
    d_va: np.ndarray | None = None,
) -> Params:
    """Exact gradients of a scalar loss given its head-output gradients.

    Any head whose upstream gradient is None contributes nothing.  d_va is
    the gradient at the tanh output.  The result views one fresh buffer.
    """
    grads = zeros_like_params(params)
    d_features = np.zeros_like(cache.features)

    if d_exp_logits is not None:
        np.matmul(cache.h_exp.T, d_exp_logits, out=grads.w_exp2)
        d_exp_logits.sum(axis=0, out=grads.b_exp2)
        d_h_exp = d_exp_logits @ params.w_exp2.T
        d_a_exp = d_h_exp * (cache.a_exp > 0)
        np.matmul(cache.features.T, d_a_exp, out=grads.w_exp1)
        d_a_exp.sum(axis=0, out=grads.b_exp1)
        d_features += d_a_exp @ params.w_exp1.T

    if d_au_logits is not None:
        np.matmul(cache.features.T, d_au_logits, out=grads.w_au)
        d_au_logits.sum(axis=0, out=grads.b_au)
        d_features += d_au_logits @ params.w_au.T

    if d_va is not None:
        d_va_pre = d_va * (1.0 - cache.va * cache.va)
        np.matmul(cache.h_va.T, d_va_pre, out=grads.w_va2)
        d_va_pre.sum(axis=0, out=grads.b_va2)
        d_h_va = d_va_pre @ params.w_va2.T
        d_a_va = d_h_va * (cache.a_va > 0)
        np.matmul(cache.features.T, d_a_va, out=grads.w_va1)
        d_a_va.sum(axis=0, out=grads.b_va1)
        d_features += d_a_va @ params.w_va1.T

    # Through f = z / norm(z): dz = g/norm - z * (g . z) / norm^3.
    inv_norm = 1.0 / cache.norm
    dot = np.sum(d_features * cache.z2, axis=1)
    d_z2 = d_features * inv_norm[:, None] - cache.z2 * (dot * inv_norm**3)[:, None]

    np.matmul(cache.h1.T, d_z2, out=grads.w2)
    d_z2.sum(axis=0, out=grads.b2)
    d_h1 = d_z2 @ params.w2.T
    d_a1 = d_h1 * (cache.a1 > 0)
    np.matmul(cache.x.T, d_a1, out=grads.w1)
    d_a1.sum(axis=0, out=grads.b1)
    return grads


def add_grads(a: Params, b: Params) -> Params:
    return Params.wrap(a.flat + b.flat, a)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Gradient at the logits given the gradient at softmax(logits)."""
    inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
    return probs * (d_probs - inner)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function."""
    out = np.empty_like(logits, dtype=np.float64)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    expz = np.exp(logits[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def save_checkpoint(path, params: Params, config: ModelConfig, config_hash: str) -> None:
    """Versioned npz with every parameter array, model shape, config hash.

    Written to a temporary file and renamed onto path, never half-written.
    """
    arrays = {f"param_{name}": getattr(params, name) for name in PARAM_FIELDS}
    with atomic_open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(CHECKPOINT_VERSION),
            image_height=np.int64(config.image_height),
            image_width=np.int64(config.image_width),
            hidden_width=np.int64(config.hidden_width),
            config_hash=np.str_(config_hash),
            **arrays,
        )


def load_checkpoint(path) -> tuple[Params, ModelConfig, str]:
    try:
        with np.load(path) as data:
            if "version" not in data:
                raise DataError("checkpoint missing version field")
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise DataError(
                    f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
                )
            config = ModelConfig(
                image_height=int(data["image_height"]),
                image_width=int(data["image_width"]),
                hidden_width=int(data["hidden_width"]),
            )
            missing = [n for n in PARAM_FIELDS if f"param_{n}" not in data]
            if missing:
                raise DataError(f"checkpoint missing parameters: {missing}")
            arrays = {n: data[f"param_{n}"] for n in PARAM_FIELDS}
            config_hash = str(data["config_hash"])
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise DataError(f"checkpoint parameter {name} has non-finite values")
    expected = init_shapes(config)
    for name, arr in arrays.items():
        if arr.shape != expected[name]:
            raise DataError(
                f"checkpoint parameter {name} has shape "
                f"{arr.shape}, expected {expected[name]}"
            )
    return Params(**arrays), config, config_hash


def init_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, d = config.hidden_width, config.input_dim
    return {
        "w1": (d, h), "b1": (h,), "w2": (h, h), "b2": (h,),
        "w_exp1": (h, h), "b_exp1": (h,), "w_exp2": (h, 8), "b_exp2": (8,),
        "w_au": (h, 12), "b_au": (12,),
        "w_va1": (h, h), "b_va1": (h,), "w_va2": (h, 2), "b_va2": (2,),
    }
