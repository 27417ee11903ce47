"""The benchmark's reference oracle agrees with the test suite's definitions.

``bench/reference.py`` alone decides whether a benchmark run is correct, so
each of its measures and witness checks is compared here with
``tests/_oracles.py`` on classes of at most 5 points, among them classes
with all-STAR columns and classes of one concept.
"""

import importlib.util
from collections import namedtuple
from itertools import combinations
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcl.core import concept_class

from _oracles import (
    graph_by_definition,
    ld_by_definition,
    natarajan_by_definition,
    realizable_by_definition,
    shattered_sets_by_definition,
    strength_by_definition,
    support_vc_by_definition,
    td_by_definition,
    td_search_by_labels,
    vc_by_definition,
)
from _strategies import classes, classes_with_blank_columns

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
_spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

ORACLES = {
    "vc": vc_by_definition,
    "ld": ld_by_definition,
    "td": td_by_definition,
    "strength": strength_by_definition,
    "natarajan": natarajan_by_definition,
    "graph": graph_by_definition,
    "support-vc": support_vc_by_definition,
}

small_classes = st.one_of(classes_with_blank_columns(), classes(max_n=5, max_size=1))
Node = namedtuple("Node", "point zero one")


def test_every_reference_measure_has_an_oracle():
    assert ORACLES.keys() == reference.REFERENCE.keys()


@settings(max_examples=30, deadline=None)
@given(small_classes)
@example(concept_class(3, ["0*1", "1*0", "1*1"]))  # an all-STAR column
@example(concept_class(4, ["01*0"]))  # one concept
@example(concept_class(3, ["***"]))  # one concept, defined nowhere
def test_measures_match_the_oracles(cls):
    rows = reference.rows_of(cls)
    for name, oracle in ORACLES.items():
        assert reference.REFERENCE[name](rows, cls.domain_size) == oracle(cls), name


@settings(max_examples=40, deadline=None)
@given(small_classes)
def test_vc_witness_check_is_the_shattering_definition(cls):
    rows = reference.rows_of(cls)
    shattered = set(shattered_sets_by_definition(cls))
    for k in range(cls.domain_size + 1):
        for pts in combinations(range(cls.domain_size), k):
            for value in {k, vc_by_definition(cls)}:
                expected = value == k and pts in shattered
                assert reference.vc_witness_ok(rows, value, pts) == expected


def _staircase(pts, hs) -> bool:
    """h_i(x_j) = 1 exactly when i <= j, the definition ``td_by_definition`` tries."""
    return all(
        hs[i][pts[j]] == (1 if i <= j else 0)
        for i in range(len(hs))
        for j in range(len(pts))
    )


@settings(max_examples=40, deadline=None)
@given(small_classes, st.data())
def test_td_witness_check_is_the_staircase_definition(cls, data):
    rows = reference.rows_of(cls)
    d = td_by_definition(cls)
    value, witness = td_search_by_labels(cls)
    assert value == d and reference.td_witness_ok(rows, d, witness)
    assert not reference.td_witness_ok(rows, d + 1, witness)
    # a drawn chain of concepts of the class on distinct points
    k = data.draw(st.integers(1, cls.domain_size), label="length")
    pts = tuple(data.draw(st.permutations(range(cls.domain_size)))[:k])
    hs = tuple(data.draw(st.sampled_from(cls.concepts)) for _ in pts)
    assert reference.td_witness_ok(rows, k, (pts, hs)) == _staircase(pts, hs)
    assert reference.td_witness_ok(rows, k, (pts, hs[::-1])) == _staircase(pts, hs[::-1])
    assert _staircase(pts, hs) <= (k <= d)


def _trees(cls, depth, prefix=()):
    """Every complete mistake tree of ``depth`` whose internal points are
    unseen on their path."""
    if depth == 0:
        yield None
        return
    for x in range(cls.domain_size):
        if x in prefix:
            continue
        for zero in _trees(cls, depth - 1, prefix + (x,)):
            for one in _trees(cls, depth - 1, prefix + (x,)):
                yield Node(x, zero, one)


def _branches_realized(cls, node, path=()) -> bool:
    if node is None:
        return realizable_by_definition(cls, path)
    return _branches_realized(cls, node.zero, path + ((node.point, 0),)) and (
        _branches_realized(cls, node.one, path + ((node.point, 1),))
    )


@settings(max_examples=40, deadline=None)
@given(classes(max_n=3, max_size=6))
def test_ld_tree_check_is_the_mistake_tree_definition(cls):
    rows = reference.rows_of(cls)
    ld = ld_by_definition(cls)
    accepted = {0} if reference.ld_tree_ok(rows, 0, None) else set()
    for depth in (1, 2):
        for tree in _trees(cls, depth):
            ok = reference.ld_tree_ok(rows, depth, tree)
            assert ok == _branches_realized(cls, tree)
            if ok:
                accepted.add(depth)
            # a tree of another depth is refused
            assert not reference.ld_tree_ok(rows, depth + 1, tree)
    assert max(accepted) == min(ld, 2)

