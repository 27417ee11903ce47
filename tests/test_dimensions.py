import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcl import dimensions
from pcl.core import (
    STAR,
    ContractViolation,
    PartialConcept,
    PartialConceptClass,
    concept_class,
    total_class,
)
from pcl.dimensions import (
    DimensionReport,
    dual_vc_dimension,
    first_largest,
    graph_dimension,
    is_shattered,
    littlestone_dimension,
    measure_report,
    multiclass_dimensions,
    natarajan_dimension,
    sauer_bound,
    shattered_weight,
    shattering_strength,
    subclass_strength,
    threshold_dimension,
    vc_dimension,
)
from pcl.disambiguation import _scaled_weights, _suffix_numerator
from pcl.experiments import generate_random_class
from pcl.learners import OneInclusionGraph
from pcl.online import Soa

from _oracles import (
    _soa_label_by_definition,
    graph_by_definition,
    graph_by_splits,
    ld_by_definition,
    natarajan_by_definition,
    natarajan_by_splits,
    restrict,
    shattered_sets_by_definition,
    strength_by_definition,
    support_vc_by_definition,
    td_by_definition,
    td_search_by_labels,
    vc_by_definition,
)
from _strategies import classes, classes_with_blank_columns


def zero_star_cube(n):
    return concept_class(n, ["".join(bits) for bits in product("0*", repeat=n)])


def full_cube(n):
    return concept_class(n, ["".join(bits) for bits in product("01", repeat=n)])


def total_thresholds(n):
    # 1[x >= i] over n points, i = 0..n: n+1 concepts.
    return concept_class(
        n, ["".join("1" if x >= i else "0" for x in range(n)) for i in range(n + 1)]
    )


def k4_star_class():
    return concept_class(3, ["0**", "10*", "110", "111"])


class TestVcDimension:
    def test_zero_star_cube_has_vc_zero(self):
        assert vc_dimension(zero_star_cube(3)) == 0
        assert len(zero_star_cube(3)) == 8

    def test_full_cube(self):
        assert vc_dimension(full_cube(3)) == 3

    def test_two_constant_concepts(self):
        assert vc_dimension(concept_class(3, ["000", "111"])) == 1

    def test_witness_is_shattered(self):
        d, pts = vc_dimension(full_cube(3), witness=True)
        assert d == 3 and is_shattered(full_cube(3), pts)

    @settings(max_examples=80)
    @given(classes(max_n=4, max_size=10))
    def test_matches_definition_oracle(self, cls):
        assert cls.vc == vc_dimension(cls) == vc_by_definition(cls)


@st.composite
def level_cases(draw):
    """A class (some columns possibly all STAR), a subclass mask and a point."""
    cls = draw(classes_with_blank_columns())
    mask = draw(st.integers(0, cls.packed.full))
    return cls, mask, draw(st.integers(-1, cls.domain_size - 1))


class TestShatteredLevels:
    """Every measure on the depth-first walk against full subset scans."""

    @settings(max_examples=80, deadline=None)
    @given(level_cases())
    @example((concept_class(3, ["0*1"]), 1, -1))
    @example((concept_class(4, ["0*11", "1*00", "1*10", "0*01"]), 0b1011, 0))
    @example((concept_class(3, ["01*", "110", "101"]), 0, -1))  # the empty subclass
    @example((concept_class(3, ["010", "101", "111", "000"]), 0b1111, 2))  # empty suffix
    @example((concept_class(3, ["***"]), 1, -1))  # one all-STAR concept
    @example((concept_class(2, ["10", "1*", "*1", "**"]), 0b1111, -1))  # graph 2 via STAR
    @example((concept_class(2, ["0*", "10", "1*", "*0"]), 0b1111, -1))  # graph 2, N 1, VC 1
    def test_matches_definition(self, case):
        cls, mask, x = case
        assert natarajan_dimension(cls) == natarajan_by_definition(cls)
        assert graph_dimension(cls) == graph_by_definition(cls)
        assert measure_report(cls, "support-vc").value == support_vc_by_definition(cls)
        sets = shattered_sets_by_definition(cls)
        d = len(sets[-1])
        first_largest = next(pts for pts in sets if len(pts) == d)
        assert vc_dimension(cls, witness=True) == (d, first_largest)

        kept = tuple(h for i, h in enumerate(cls.concepts) if mask >> i & 1)
        sub = []
        if kept:
            sub = shattered_sets_by_definition(PartialConceptClass(cls.domain_size, kept))
        assert cls.vc == d
        assert subclass_strength(cls, mask) == len(sub)
        scaled, denominator = _scaled_weights(cls)
        numerator = _suffix_numerator(cls.packed.label_masks, scaled, mask, x)
        assert Fraction(numerator, denominator) == sum(
            (Fraction(1, (pts[-1] + 1) ** (d + 1)) for pts in sub if pts and pts[0] > x),
            Fraction(0),
        )

        # the one-inclusion graph's VC on the suffix: concepts defined there
        n = cls.domain_size
        pts = tuple(range(x + 1, n))
        defined = tuple(
            PartialConcept(tuple(h[p] if p in pts else STAR for p in range(n)))
            for h in cls
            if all(h[p] != STAR for p in pts)
        )
        if defined:
            graph = OneInclusionGraph(cls, pts)
            assert graph.vc == vc_by_definition(PartialConceptClass(n, defined))

    @settings(max_examples=80, deadline=None)
    @given(level_cases())
    # (0, 2) and (1, 2) are as large as (0, 1) and come after it in the walk
    @example((concept_class(4, ["0000", "0110", "1010", "1100"]), 0b1111, -1))
    @example((concept_class(3, ["01*", "110", "101"]), 0, -1))  # the empty subclass
    def test_walk_yields_the_sets_in_lexicographic_order(self, case):
        # With weight B**x the fold spells, as base-B digits, the number of
        # shattered sets whose largest point is x: at most 2**x < B of them.
        # The search returns the lexicographically first largest set.
        cls, mask, _ = case
        kept = tuple(h for i, h in enumerate(cls.concepts) if mask >> i & 1)
        sub = []
        if kept:
            sub = shattered_sets_by_definition(PartialConceptClass(cls.domain_size, kept))
        nonempty = sorted(pts for pts in sub if pts)
        n, sides = cls.domain_size, cls.packed.label_masks
        base = 2**n + 1
        total = shattered_weight(sides, mask, [base**x for x in range(n)])
        digits = [total // base**x % base for x in range(n)]
        assert digits == [sum(1 for p in nonempty if p[-1] == x) for x in range(n)]
        d = max(map(len, nonempty), default=0)
        assert first_largest([sides], mask) == next((p for p in nonempty if len(p) == d), ())

    @settings(max_examples=60, deadline=None)
    @given(level_cases())
    # VC 3 at n = 12: the scaled weights, 27720^4 / (p + 1)^4, pass 2^53
    @example(
        (concept_class(12, ["0" * 9 + "".join(b) for b in product("01", repeat=3)]), 0xFF, -1)
    )
    @example((concept_class(3, ["01*", "110", "101"]), 0, -1))  # the empty subclass
    def test_stop_bound(self, case):
        # With a stop the fold is exact while its sum is at most the stop,
        # and past the stop otherwise.
        cls, mask, _ = case
        kept = tuple(h for i, h in enumerate(cls.concepts) if mask >> i & 1)
        sub = []
        if kept:
            sub = shattered_sets_by_definition(PartialConceptClass(cls.domain_size, kept))
        sides = cls.packed.label_masks
        for weight in ([1] * cls.domain_size, _scaled_weights(cls)[0]):
            fold = sum(weight[pts[-1]] for pts in sub if pts)
            assert shattered_weight(sides, mask, weight) == fold
            for stop in {-1, 0, fold // 2, fold - 1, fold, fold + 1}:
                got = shattered_weight(sides, mask, weight, stop)
                if fold <= stop:
                    assert got == fold
                else:
                    assert got > stop

    def test_multiclass_peak_memory_stays_small(self):
        # The walk holds the cell lists of one set per depth: graph and
        # Natarajan here peak near 0.01 MiB traced, where holding whole
        # levels of sets with their cell lists peaked at 5.5 and 0.9 MiB.
        cls = generate_random_class(12, 80, 0.5, 7)
        cls.packed  # built before tracing starts
        tracemalloc.start()
        try:
            values = graph_dimension(cls), natarajan_dimension(cls)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == (5, 3)
        assert peak < 2**20

    @settings(max_examples=40, deadline=None)
    @given(classes(min_n=6, max_n=8, max_size=32))
    def test_multiclass_matches_splits(self, cls):
        # past the reach of the *_by_definition scans: every set re-split
        assert natarajan_dimension(cls) == natarajan_by_splits(cls)
        assert graph_dimension(cls) == graph_by_splits(cls)


@st.composite
def ld_queries(draw):
    """A class on up to 6 points with up to 16 concepts, and the version
    spaces of the prefixes of a labeled sequence, in a drawn order."""
    cls = draw(classes(max_n=6, max_size=16))
    point = st.integers(0, cls.domain_size - 1)
    pairs = draw(st.lists(st.tuples(point, st.sampled_from((0, 1))), max_size=5))
    masks = [mask := cls.packed.full]
    for x, y in pairs:
        masks.append(mask := mask & cls.packed.label_masks[x][y])
    return cls, draw(st.permutations(masks))


class TestLittlestoneDimension:
    def test_zero_star_cube(self):
        assert littlestone_dimension(zero_star_cube(3)) == 0

    def test_full_cube(self):
        assert littlestone_dimension(full_cube(3)) == 3

    def test_total_thresholds_on_five_points(self):
        # The recursion halves the threshold family at each step: LD = 2.
        assert littlestone_dimension(total_thresholds(4)) == 2

    @settings(max_examples=80)
    @given(classes(max_n=4, max_size=10))
    def test_matches_definition_oracle(self, cls):
        assert littlestone_dimension(cls) == ld_by_definition(cls)

    @settings(max_examples=60, deadline=None)
    @given(ld_queries())
    def test_restrictions_in_any_order_match_definition(self, case):
        # each query may meet memo entries that earlier cut searches left
        cls, masks = case
        solver, soa = cls.ld_solver, Soa(cls)
        for mask in masks:
            kept = tuple(h for i, h in enumerate(cls.concepts) if mask >> i & 1)
            if not kept:
                assert solver.ld(mask) == -1
                continue
            sub = PartialConceptClass(cls.domain_size, kept)
            assert solver.ld(mask) == ld_by_definition(sub)
            for x in range(cls.domain_size):
                assert soa(mask, x) == _soa_label_by_definition(sub, x)

    @settings(max_examples=80)
    @given(classes(max_n=5, max_size=12))
    def test_vc_at_most_ld(self, cls):
        assert vc_dimension(cls) <= littlestone_dimension(cls)


class TestThresholdDimension:
    def test_total_thresholds_realize_full_staircase(self):
        assert threshold_dimension(total_thresholds(4)) == 4

    def test_no_ones_no_thresholds(self):
        assert threshold_dimension(zero_star_cube(3)) == 0

    def test_biclique_class_at_most_two(self):
        value = threshold_dimension(k4_star_class())
        assert value <= 2
        assert value == td_by_definition(k4_star_class())

    def test_witness_is_a_staircase(self):
        report = measure_report(total_thresholds(4), "td", witness=True)
        assert report.value == 4
        assert report.verify(total_thresholds(4))
        # a staircase of four points does not witness td 3
        assert not DimensionReport("td", 3, report.witness).verify(total_thresholds(4))

    @settings(max_examples=50)
    @given(classes(max_n=4, max_size=8))
    def test_matches_definition_oracle(self, cls):
        assert threshold_dimension(cls) == td_by_definition(cls)

    @settings(max_examples=80, deadline=None)
    @given(classes(max_n=7, max_size=14))
    @example(total_thresholds(5))
    # dims shapes, where a concept's child points often repeat a sibling's
    # and a node's live concepts often cannot carry a longer chain
    @example(generate_random_class(12, 40, 0.25, 0))
    @example(generate_random_class(12, 40, 0.25, 3))
    @example(generate_random_class(14, 48, 0.15, 1))
    @example(generate_random_class(14, 48, 0.15, 7))
    def test_witness_matches_the_label_search(self, cls):
        # the mask search visits points and concepts in the same ascending
        # order, so it must find the very same first staircase
        assert threshold_dimension(cls, witness=True) == td_search_by_labels(cls)
        assert measure_report(cls, "td", witness=True).verify(cls)

    @settings(max_examples=50)
    @given(classes(max_n=4, max_size=10))
    def test_ld_at_least_log_td(self, cls):
        td = threshold_dimension(cls)
        if td > 0:
            assert littlestone_dimension(cls) >= math.floor(math.log2(td))


class TestShatteringStrength:
    def test_full_square(self):
        assert shattering_strength(full_cube(2)) == 4

    def test_zero_star_square_counts_only_empty(self):
        assert shattering_strength(zero_star_cube(2)) == 1

    def test_two_constants(self):
        assert shattering_strength(concept_class(3, ["000", "111"])) == 4

    @settings(max_examples=60)
    @given(classes(max_n=4, max_size=10))
    def test_matches_definition_oracle(self, cls):
        assert shattering_strength(cls) == strength_by_definition(cls)

    @settings(max_examples=60)
    @given(classes(max_n=5, max_size=10))
    def test_sauer_style_ceiling(self, cls):
        assert shattering_strength(cls) <= sauer_bound(
            cls.domain_size, vc_dimension(cls)
        )

    @settings(max_examples=40)
    @given(classes(max_n=4, max_size=8))
    def test_restriction_halving(self, cls):
        s = shattering_strength(cls)
        for x in range(cls.domain_size):
            r0 = restrict(cls, x, 0)
            r1 = restrict(cls, x, 1)
            s0 = shattering_strength(r0) if r0 else 0
            s1 = shattering_strength(r1) if r1 else 0
            assert s >= s0 + s1


class TestMulticlassDimensions:
    def test_full_square_totals(self):
        mc = multiclass_dimensions(full_cube(2))
        assert mc.natarajan == 2
        assert mc.support_vc == 0

    def test_disjoint_supports(self):
        # Values {0, *} at each point are distinguishable in the 3-label view,
        # so the Natarajan dimension here exceeds the binary VC dimension.
        mc = multiclass_dimensions(concept_class(2, ["0*", "*0"]))
        assert vc_dimension(concept_class(2, ["0*", "*0"])) == 0
        assert mc.support_vc == 1
        assert mc.natarajan == 1

    @settings(max_examples=40)
    @given(classes(max_n=4, max_size=8))
    def test_natarajan_bounded_by_vc_plus_support(self, cls):
        mc = multiclass_dimensions(cls)
        assert vc_dimension(cls) <= mc.natarajan <= mc.graph
        assert mc.natarajan <= vc_dimension(cls) + mc.support_vc


class TestDualVcDimension:
    def test_constant_singleton(self):
        assert dual_vc_dimension(total_class(2, ["00"])) == 0

    def test_nonconstant_singleton(self):
        # The one dual point (the concept) sees both labels across x.
        assert dual_vc_dimension(total_class(2, ["01"])) == 1

    def test_full_square(self):
        assert dual_vc_dimension(full_cube(2)) == 1

    def test_three_singleton_indicators(self):
        cls = total_class(3, ["100", "010", "001"])
        assert dual_vc_dimension(cls) == 1

    def test_partial_input_rejected(self):
        with pytest.raises(ContractViolation):
            dual_vc_dimension(concept_class(2, ["0*"]))

    def test_dual_bound_check_raises(self, monkeypatch):
        # Dual VC 5 against primal VC 0 breaks Assouad's d* < 2^(d+1) = 2.
        values = iter([5, 0])
        monkeypatch.setattr(dimensions, "vc_dimension", lambda cls: next(values))
        with pytest.raises(AssertionError, match="reaches 2"):
            dual_vc_dimension(full_cube(2))

    def test_dual_bound_check_raises_at_the_bound(self, monkeypatch):
        # d* = 2^(d+1) itself: Assouad's lemma makes the bound strict
        values = iter([2, 0])
        monkeypatch.setattr(dimensions, "vc_dimension", lambda cls: next(values))
        with pytest.raises(AssertionError, match="reaches 2"):
            dual_vc_dimension(full_cube(2))

    @settings(max_examples=30)
    @given(classes(max_n=4, max_size=8, alphabet=(0, 1)))
    def test_dual_bound(self, cls):
        d = vc_dimension(cls)
        assert dual_vc_dimension(cls) < 2 ** (d + 1)


class TestReports:
    def test_vc_report_verifies(self):
        cls = full_cube(2)
        report = measure_report(cls, "vc", witness=True)
        assert report.value == 2
        assert report.verify(cls)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            measure_report(full_cube(2), "banana")

    def test_report_without_witness_is_not_verified(self):
        cls = zero_star_cube(2)
        assert DimensionReport("strength", 1).verify(cls) is None
        assert DimensionReport("vc", 0).verify(cls) is None
        assert DimensionReport("ld", 1).verify(cls) is None

    def test_ld_report_checks_its_tree(self):
        cls = full_cube(2)
        report = measure_report(cls, "ld", witness=True)
        assert report.value == 2
        assert report.verify(cls)
        assert not DimensionReport("ld", 1, report.witness).verify(cls)
        no_11 = concept_class(2, ["00", "01", "10"])
        assert not DimensionReport("ld", 2, report.witness).verify(no_11)
        assert measure_report(zero_star_cube(2), "ld", witness=True).verify(zero_star_cube(2))
