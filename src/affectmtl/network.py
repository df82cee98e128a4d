"""Shared-backbone model with three task heads and exact hand gradients.

Flattened pixels feed a two-layer perceptron; its output is L2-normalized
(with an epsilon under the square root) and fanned out to three heads:

* expression: hidden rectifier layer, then linear to 8 logits,
* action units: one linear layer producing 12 independent logits,
* valence/arousal: hidden rectifier layer, linear to 2, tanh.

forward_with_cache keeps every intermediate needed by backward, which
implements reverse mode by hand, including the normalization and tanh
Jacobians.  With expression_only it stops after the expression logits,
which is all the strong-view pass of the semi-supervised loss reads.
Gradients are exact (finite-difference verified in the tests), not
approximated.  Each layer adds its bias and applies its activation in
place on the matmul result, and the cache holds post-activations only:
backward takes a rectifier's mask from h = max(a, 0) as h > 0, which
equals a > 0 for every float, NaN and -0.0 included.  predict runs the
same operations for scoring, keeps only the head outputs, and frees each
hidden activation after its last reader.  Sums and maxima call the ufunc
reductions (np.add.reduce, np.maximum.reduce) that np.sum and .max()
forward to: the same loops, without a Python wrapper per call.

Parameters live in one flat float64 buffer, Params.flat, laid out in
PARAM_FIELDS order (backbone first); each named field is a reshaped view
of its slice.  backward writes every gradient into views of one fresh
buffer, so summing gradients or stepping the optimizer is whole-buffer
arithmetic.
"""

from __future__ import annotations

import zipfile
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .atomic import atomic_open
from .data_model import N_ACTION_UNITS, N_EXPRESSION_CLASSES
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
        layout = []
        offset = 0
        for name, array in zip(PARAM_FIELDS, arrays):
            layout.append((name, slice(offset, offset + array.size), array.shape))
            offset += array.size
        self._bind(np.concatenate([a.ravel() for a in arrays]), tuple(layout))

    def _bind(self, flat: np.ndarray, layout) -> None:
        """View flat through layout, one (name, slice of flat, shape) per
        field; the layout is kept so that wrap can reuse it."""
        # The instance dict, written directly: the class is frozen.
        attrs = vars(self)
        attrs["flat"] = flat
        attrs["_layout"] = layout
        for name, span, shape in layout:
            attrs[name] = flat[span].reshape(shape)

    @classmethod
    def wrap(cls, flat: np.ndarray, like: Params) -> Params:
        """Params viewing flat (not copied), with the field shapes of like."""
        params = cls.__new__(cls)
        params._bind(flat, like._layout)
        return params


PARAM_FIELDS = tuple(f.name for f in fields(Params) if f.init)
BACKBONE_FIELDS = ("w1", "b1", "w2", "b2")
_EXP_FIELDS = ("w_exp1", "b_exp1", "w_exp2", "b_exp2")
_AU_FIELDS = ("w_au", "b_au")
_VA_FIELDS = ("w_va1", "b_va1", "w_va2", "b_va2")


def init_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    h, d = config.hidden_width, config.input_dim
    return {
        "w1": (d, h), "b1": (h,), "w2": (h, h), "b2": (h,),
        "w_exp1": (h, h), "b_exp1": (h,),
        "w_exp2": (h, N_EXPRESSION_CLASSES), "b_exp2": (N_EXPRESSION_CLASSES,),
        "w_au": (h, N_ACTION_UNITS), "b_au": (N_ACTION_UNITS,),
        "w_va1": (h, h), "b_va1": (h,), "w_va2": (h, 2), "b_va2": (2,),
    }


def init_params(config: ModelConfig, seed: int) -> Params:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    Weights are drawn in init_shapes order; reordering it changes the
    initialisation of every seed.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in init_shapes(config).items():
        if name.startswith("w"):
            bound = 1.0 / np.sqrt(shape[0])
            arrays[name] = rng.uniform(-bound, bound, shape)
        else:
            arrays[name] = np.zeros(shape)
    return Params(**arrays)


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """Everything backward needs, plus the head outputs.  The action-unit
    and valence/arousal fields are None in an expression-only cache."""

    x: np.ndarray
    h1: np.ndarray
    z2: np.ndarray
    norm: np.ndarray
    features: np.ndarray
    h_exp: np.ndarray
    exp_logits: np.ndarray
    au_logits: np.ndarray | None
    h_va: np.ndarray | None
    va: np.ndarray | None


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, with the bias added in place on the matmul result."""
    out = x @ w
    out += b
    return out


def _relu(a: np.ndarray) -> np.ndarray:
    """max(a, 0), written over a."""
    return np.maximum(a, 0.0, out=a)


def _inputs(params: Params, images: np.ndarray) -> np.ndarray:
    """The (n, h, w) image batch as (n, h*w) rows, checked against w1.

    The pixels must be floats in [0, 1]: an integer array (8-bit levels,
    say) raises DataError rather than reach the model as 0..255 values.
    """
    if images.dtype.kind != "f":
        raise DataError(f"expected floating-point images, got dtype {images.dtype}")
    n = images.shape[0]
    x = images.reshape(n, -1)
    if x.shape[1] != params.w1.shape[0]:
        raise DataError(
            f"image size {x.shape[1]} does not match model input {params.w1.shape[0]}"
        )
    return x


def _check_finite(features, exp_logits, au_logits=None, va=None) -> None:
    """Raise DivergenceError naming the first of these that is not finite;
    a head passed as None is not checked."""
    for name, arr in (
        ("features", features),
        ("expression logits", exp_logits),
        ("action-unit logits", au_logits),
        ("valence-arousal output", va),
    ):
        if arr is not None and not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise DivergenceError(f"non-finite {name} in forward pass")


def forward_with_cache(
    params: Params, images: np.ndarray, expression_only: bool = False
) -> ForwardCache:
    """Run the model on a (n, h, w) image batch.

    Raises DivergenceError if any head output (or the shared features) is
    not finite, which is how exploding updates surface.  With
    expression_only the pass stops after the expression logits: the
    action-unit and valence/arousal fields of the cache are None, and only
    the features and the expression logits are checked.
    """
    x = _inputs(params, images)
    h1 = _relu(_affine(x, params.w1, params.b1))
    z2 = _affine(h1, params.w2, params.b2)
    norm = np.sqrt(np.add.reduce(z2 * z2, axis=1) + FEATURE_NORM_EPS)
    features = z2 / norm[:, None]

    h_exp = _relu(_affine(features, params.w_exp1, params.b_exp1))
    exp_logits = _affine(h_exp, params.w_exp2, params.b_exp2)
    if expression_only:
        _check_finite(features, exp_logits)
        return ForwardCache(
            x=x, h1=h1, z2=z2, norm=norm, features=features, h_exp=h_exp,
            exp_logits=exp_logits, au_logits=None, h_va=None, va=None,
        )

    au_logits = _affine(features, params.w_au, params.b_au)

    h_va = _relu(_affine(features, params.w_va1, params.b_va1))
    va = _affine(h_va, params.w_va2, params.b_va2)
    np.tanh(va, out=va)

    _check_finite(features, exp_logits, au_logits, va)
    return ForwardCache(
        x=x, h1=h1, z2=z2, norm=norm, features=features, h_exp=h_exp,
        exp_logits=exp_logits, au_logits=au_logits, h_va=h_va, va=va,
    )


def predict(
    params: Params, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """forward_with_cache's expression logits, action-unit logits and
    valence/arousal, bit for bit and with the same checks, without a cache.

    The operations and their order are forward_with_cache's, but each
    hidden activation is freed after its last reader and the features are
    normalised in place over z2, so a pass holds at most two
    (n, hidden_width) arrays at a time where the cache holds five.  The
    images are released after the first layer: a caller that passes a
    temporary, such as a float copy of 8-bit pixels, does not hold it
    through the rest of the pass.
    """
    hidden = _relu(_affine(_inputs(params, images), params.w1, params.b1))
    del images  # freed here if the caller passed its only reference
    features = _affine(hidden, params.w2, params.b2)
    del hidden
    features /= np.sqrt(np.add.reduce(features * features, axis=1) + FEATURE_NORM_EPS)[:, None]
    exp_logits = _affine(
        _relu(_affine(features, params.w_exp1, params.b_exp1)), params.w_exp2, params.b_exp2
    )
    au_logits = _affine(features, params.w_au, params.b_au)
    va = _affine(
        _relu(_affine(features, params.w_va1, params.b_va1)), params.w_va2, params.b_va2
    )
    np.tanh(va, out=va)
    _check_finite(features, exp_logits, au_logits, va)
    return exp_logits, au_logits, va


def backward(
    params: Params,
    cache: ForwardCache,
    d_exp_logits: np.ndarray | None = None,
    d_au_logits: np.ndarray | None = None,
    d_va: np.ndarray | None = None,
) -> Params:
    """Exact gradients of a scalar loss given its head-output gradients.

    Any head whose upstream gradient is None contributes nothing, so an
    expression-only cache serves a backward whose d_au_logits and d_va are
    None.  d_va is the gradient at the tanh output.  The result views one
    fresh buffer; each field is written once, and only the fields of absent
    heads are zero-filled.
    """
    grads = Params.wrap(np.empty(params.flat.shape), params)
    for upstream, head_fields in (
        (d_exp_logits, _EXP_FIELDS), (d_au_logits, _AU_FIELDS), (d_va, _VA_FIELDS)
    ):
        if upstream is None:
            for name in head_fields:
                getattr(grads, name).fill(0.0)
    d_features = np.zeros(cache.features.shape)

    if d_exp_logits is not None:
        np.matmul(cache.h_exp.T, d_exp_logits, out=grads.w_exp2)
        np.add.reduce(d_exp_logits, axis=0, out=grads.b_exp2)
        d_h_exp = d_exp_logits @ params.w_exp2.T
        d_a_exp = d_h_exp * (cache.h_exp > 0)
        np.matmul(cache.features.T, d_a_exp, out=grads.w_exp1)
        np.add.reduce(d_a_exp, axis=0, out=grads.b_exp1)
        d_features += d_a_exp @ params.w_exp1.T

    if d_au_logits is not None:
        np.matmul(cache.features.T, d_au_logits, out=grads.w_au)
        np.add.reduce(d_au_logits, axis=0, out=grads.b_au)
        d_features += d_au_logits @ params.w_au.T

    if d_va is not None:
        d_va_pre = d_va * (1.0 - cache.va * cache.va)
        np.matmul(cache.h_va.T, d_va_pre, out=grads.w_va2)
        np.add.reduce(d_va_pre, axis=0, out=grads.b_va2)
        d_h_va = d_va_pre @ params.w_va2.T
        d_a_va = d_h_va * (cache.h_va > 0)
        np.matmul(cache.features.T, d_a_va, out=grads.w_va1)
        np.add.reduce(d_a_va, axis=0, out=grads.b_va1)
        d_features += d_a_va @ params.w_va1.T

    # Through f = z / norm(z): dz = g/norm - z * (g . z) / norm^3.
    inv_norm = 1.0 / cache.norm
    dot = np.add.reduce(d_features * cache.z2, axis=1)
    d_z2 = d_features * inv_norm[:, None] - cache.z2 * (dot * inv_norm**3)[:, None]

    np.matmul(cache.h1.T, d_z2, out=grads.w2)
    np.add.reduce(d_z2, axis=0, out=grads.b2)
    d_h1 = d_z2 @ params.w2.T
    d_a1 = d_h1 * (cache.h1 > 0)
    np.matmul(cache.x.T, d_a1, out=grads.w1)
    np.add.reduce(d_a1, axis=0, out=grads.b1)
    return grads


def add_grads(a: Params, b: Params) -> Params:
    """Add b into a in place and return a; a's buffer is overwritten, b is
    not written.  The sum is elementwise a.flat + b.flat, bit for bit."""
    np.add(a.flat, b.flat, out=a.flat)
    return a


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.add.reduce(exps, axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Gradient at the logits given the gradient at softmax(logits)."""
    inner = np.add.reduce(d_probs * probs, axis=-1, keepdims=True)
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
            **{f.name: np.int64(getattr(config, f.name)) for f in fields(ModelConfig)},
            config_hash=np.str_(config_hash),
            **arrays,
        )


def _int_field(data, key: str) -> int:
    value = data[key]
    if value.shape != () or value.dtype.kind not in "iu":
        raise DataError(f"field {key} is not an integer scalar")
    return int(value)


def load_checkpoint(path) -> tuple[Params, ModelConfig, str]:
    """Parameters, model shape and config hash saved by save_checkpoint.

    A file that is not such a checkpoint raises DataError naming path.
    """
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataError("not an npz archive")
        with data:
            if "version" not in data:
                raise DataError("missing version field")
            version = _int_field(data, "version")
            if version != CHECKPOINT_VERSION:
                raise DataError(
                    f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
                )
            config = ModelConfig(*(_int_field(data, f.name) for f in fields(ModelConfig)))
            missing = [n for n in PARAM_FIELDS if f"param_{n}" not in data]
            if missing:
                raise DataError(f"missing parameters: {missing}")
            arrays = {n: data[f"param_{n}"] for n in PARAM_FIELDS}
            config_hash = str(data["config_hash"])
        expected = init_shapes(config)
        for name, arr in arrays.items():
            if arr.dtype.kind not in "biuf":
                raise DataError(f"parameter {name} is not real-valued (dtype {arr.dtype})")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"parameter {name} has non-finite values")
            if arr.shape != expected[name]:
                raise DataError(
                    f"parameter {name} has shape {arr.shape}, expected {expected[name]}"
                )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    return Params(**arrays), config, config_hash
