"""Shared fixtures and hypothesis strategies."""

import tracemalloc
from dataclasses import fields

import hypothesis.strategies as st
import numpy as np
import pytest

from affectmtl.augmentation import (
    STRONG_DRAWS,
    STRONG_VIEW,
    WEAK_DRAWS,
    WEAK_VIEW,
    augment_views,
    view_uniforms,
)
from affectmtl.data_model import (
    LABEL_SENTINEL,
    N_ACTION_UNITS,
    VA_SENTINEL,
    Dataset,
    LabelArrays,
)
from affectmtl.network import PARAM_FIELDS, Params

finite_va = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def label_rows(draw):
    """Any (valence, arousal, expression, units) row satisfying the
    joint-missing invariants."""
    if draw(st.booleans()):
        valence, arousal = draw(finite_va), draw(finite_va)
    else:
        valence = arousal = VA_SENTINEL
    expression = draw(st.integers(min_value=-1, max_value=7))
    if draw(st.booleans()):
        units = tuple(draw(st.lists(st.integers(0, 1), min_size=12, max_size=12)))
    else:
        units = tuple([LABEL_SENTINEL] * N_ACTION_UNITS)
    return valence, arousal, expression, units


def make_dataset(rows, image_refs=None) -> Dataset:
    """A Dataset of (valence, arousal, expression, units) rows; the paths
    default to images/x_00000.pgm, images/x_00001.pgm, ..."""
    rows = list(rows)
    if image_refs is None:
        image_refs = tuple(f"images/x_{i:05d}.pgm" for i in range(len(rows)))
    return Dataset(
        gold_exp=np.array([row[2] for row in rows], dtype=np.int64),
        gold_au=np.array([row[3] for row in rows], dtype=np.int64).reshape(-1, N_ACTION_UNITS),
        gold_va=np.array([row[:2] for row in rows], dtype=np.float64).reshape(-1, 2),
        image_refs=image_refs,
    )


@st.composite
def datasets(draw, min_size=0, max_size=8):
    return make_dataset(draw(st.lists(label_rows(), min_size=min_size, max_size=max_size)))


def columns(dataset: Dataset) -> dict:
    """The dataset's paths, and each label column and mask as (dtype name,
    nested list): equal for two datasets that hold the same table."""
    return {
        "image_refs": dataset.image_refs,
        **{
            f.name: (getattr(dataset, f.name).dtype.name, getattr(dataset, f.name).tolist())
            for f in fields(LabelArrays)
        },
    }


def map_fields(fn, params: Params) -> Params:
    """Params whose every field is fn(that field), built in PARAM_FIELDS order."""
    return Params(**{name: fn(getattr(params, name)) for name in PARAM_FIELDS})


def keyed_views(levels, indices, seed, epoch, config, want):
    """augment_views of uint8 levels with each row's draws keyed by its
    sample index in indices, as run_training keys them; want marks the
    strong rows."""
    indices, want = np.asarray(indices), np.asarray(want, dtype=bool)
    return augment_views(
        levels,
        view_uniforms(seed, epoch, indices, WEAK_VIEW, WEAK_DRAWS),
        view_uniforms(seed, epoch, indices[want], STRONG_VIEW, STRONG_DRAWS),
        config,
        want_strong=want,
    )


def traced_peak(fn) -> int:
    """Bytes fn allocates at its peak, over what was allocated before it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
