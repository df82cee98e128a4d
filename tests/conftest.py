"""Shared fixtures and hypothesis strategies."""

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
    AnnotationSet,
    Dataset,
    Sample,
)
from affectmtl.network import PARAM_FIELDS, Params

finite_va = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def annotation_sets(draw):
    """Any AnnotationSet satisfying the joint-missing invariants."""
    if draw(st.booleans()):
        valence, arousal = draw(finite_va), draw(finite_va)
    else:
        valence = arousal = VA_SENTINEL
    expression = draw(st.integers(min_value=-1, max_value=7))
    if draw(st.booleans()):
        units = tuple(draw(st.lists(st.integers(0, 1), min_size=12, max_size=12)))
    else:
        units = tuple([LABEL_SENTINEL] * N_ACTION_UNITS)
    return AnnotationSet(valence, arousal, expression, units)


@st.composite
def datasets(draw, min_size=0, max_size=8):
    anns = draw(st.lists(annotation_sets(), min_size=min_size, max_size=max_size))
    samples = tuple(
        Sample(f"images/x_{i:05d}.pgm", a)
        for i, a in enumerate(anns)
    )
    return Dataset(samples)


def map_fields(fn, params: Params) -> Params:
    """Params whose every field is fn(that field), built in PARAM_FIELDS order."""
    return Params(**{name: fn(getattr(params, name)) for name in PARAM_FIELDS})


def keyed_views(images, indices, seed, epoch, config, want):
    """augment_views with each row's draws keyed by its sample index in
    indices, as run_training keys them; want marks the strong rows."""
    indices, want = np.asarray(indices), np.asarray(want, dtype=bool)
    return augment_views(
        images,
        view_uniforms(seed, epoch, indices, WEAK_VIEW, WEAK_DRAWS),
        view_uniforms(seed, epoch, indices[want], STRONG_VIEW, STRONG_DRAWS),
        config,
        want_strong=want,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
