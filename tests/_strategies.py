"""Hypothesis strategies shared across the suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from pcl.core import STAR, PartialConcept, PartialConceptClass, labeled_sample, total_class


@st.composite
def classes(draw, min_n=1, max_n=5, max_size=12, alphabet=(0, 1, 2)):
    n = draw(st.integers(min_n, max_n))
    rows = draw(
        st.lists(
            st.tuples(*([st.sampled_from(alphabet)] * n)),
            min_size=1,
            max_size=max_size,
        )
    )
    return PartialConceptClass(n, tuple(PartialConcept(r) for r in rows))


@st.composite
def classes_with_blank_columns(draw):
    """Classes on up to 5 points with up to two columns overwritten by STAR."""
    cls = draw(classes(max_n=5, max_size=10))
    n = cls.domain_size
    blank = draw(st.sets(st.integers(0, n - 1), max_size=2))
    if not blank:
        return cls
    rows = (tuple(STAR if x in blank else v for x, v in enumerate(h.labels)) for h in cls)
    return PartialConceptClass(n, tuple(PartialConcept(r) for r in rows))


@st.composite
def classes_with_samples(draw, max_n=5, max_size=10, max_len=6):
    cls = draw(classes(max_n=max_n, max_size=max_size))
    m = draw(st.integers(0, max_len))
    pairs = tuple(
        (draw(st.integers(0, cls.domain_size - 1)), draw(st.sampled_from((0, 1))))
        for _ in range(m)
    )
    return cls, pairs


@st.composite
def games(draw):
    """A total base of 1 to 16 concepts on 2 to 8 points and a sample of 1 to
    10 pairs, for the weak-learning game."""
    n = draw(st.integers(2, 8))
    bit = st.sampled_from((0, 1))
    # sizes drawn first, so that large games, where Bland's ties decide
    # which optimal mixture comes out, are as common as small ones
    h, m = draw(st.integers(1, 16)), draw(st.integers(1, 10))
    rows = draw(st.lists(st.tuples(*([bit] * n)), min_size=h, max_size=h))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), bit), min_size=m, max_size=m))
    return total_class(n, rows), labeled_sample(pairs)


@st.composite
def point_clouds(draw):
    """Up to 7 points of a small lattice in R^1..R^3, so duplicates are common;
    half of the clouds lie on one line."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    coords = st.tuples(*([st.integers(-3, 3)] * dim))
    if draw(st.booleans()):
        base = np.array(draw(coords))
        step = np.array(draw(coords))
        ts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        pts = [base + t * step for t in ts]
    else:
        pts = draw(st.lists(coords, min_size=n, max_size=n))
    return draw(st.sampled_from((1.0, 0.1, 2.5))) * np.array(pts, dtype=float)
