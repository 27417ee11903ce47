import gc
import hashlib
import math
import weakref
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings

from pcl import dimensions, disambiguation
from pcl.core import (
    STAR,
    ContractViolation,
    PartialConcept,
    concept,
    concept_class,
    total_class,
)
from pcl.dimensions import (
    littlestone_dimension,
    sauer_bound,
    shattering_strength,
    threshold_dimension,
    vc_dimension,
)
from pcl.disambiguation import (
    BicliqueInstance,
    MAX_BICLIQUE_VERTICES,
    _scaled_weights,
    _suffix_numerator,
    biclique_class,
    certify_coloring_lower_bound,
    compression_to_disambiguation,
    majority_compose,
    majority_table,
    star_partition_instance,
    strong_violation,
    support_indicator_disambiguation,
    vc_majority_disambiguate,
    weak_violation,
    weighted_disambiguate,
)
from pcl.experiments import generate_random_class

from _oracles import compression_totals_by_definition, sequential_by_definition
from _strategies import classes


def zero_star_cube(n):
    return concept_class(n, ["".join(bits) for bits in product("0*", repeat=n)])


class TestMajorityDisambiguation:
    def test_zero_star_square_collapses_to_zero(self):
        res = vc_majority_disambiguate(zero_star_cube(2))
        assert res.totals == total_class(2, ["00"])
        assert all(res.update_count(h) == 0 for h in zero_star_cube(2))

    def test_two_constants_survive(self):
        cls = concept_class(3, ["000", "111"])
        res = vc_majority_disambiguate(cls)
        assert res.totals == total_class(3, ["000", "111"])
        assert all(res.update_count(h) <= 2 for h in cls)

    def test_strong_and_update_bound(self):
        cls = concept_class(3, ["0**", "10*", "110", "111"])
        res = vc_majority_disambiguate(cls)
        assert strong_violation(cls, res.totals) is None
        bound = math.log2(shattering_strength(cls))
        assert all(res.update_count(h) <= bound for h in cls)

    @settings(max_examples=40, deadline=None)
    @given(classes(max_n=5, max_size=10))
    def test_random_classes(self, cls):
        res = vc_majority_disambiguate(cls)
        assert strong_violation(cls, res.totals) is None
        s = shattering_strength(cls)
        d = vc_dimension(cls)
        n = cls.domain_size
        for h in cls:
            assert res.update_count(h) <= math.log2(s)
            # extensions agree on the support
            bar = res.extension_of[h]
            assert all(bar[x] == h[x] for x in h.support())
        size_cap = sauer_bound(n, int(1 + d * math.log2(n)) if n > 1 else 1)
        assert len(res.totals) <= size_cap


class TestWeightedDisambiguation:
    def test_vc_zero_class(self):
        res = weighted_disambiguate(zero_star_cube(3))
        assert res.totals == total_class(3, ["000"])
        assert all(res.update_count(h) == 0 for h in zero_star_cube(3))

    def test_single_total_concept_needs_no_updates(self):
        # A lone all-ones concept must not be dragged off its own labels.
        cls = concept_class(8, ["1" * 8])
        res = weighted_disambiguate(cls)
        assert res.update_count(cls.concepts[0]) == 0

    def test_padded_pair_recovers_both_totals(self):
        cls = concept_class(3, ["0**", "1**"])
        res = weighted_disambiguate(cls)
        for h in cls:
            bar = res.extension_of[h]
            assert bar[0] == h[0]
        assert len(res.totals) == 2

    @settings(max_examples=40, deadline=None)
    @given(classes(max_n=6, max_size=10))
    def test_prefix_update_bound(self, cls):
        d = vc_dimension(cls)
        res = weighted_disambiguate(cls)
        assert strong_violation(cls, res.totals) is None
        for h in cls:
            for m in range(1, cls.domain_size + 1):
                bound = (d + 1) * math.log2(m) + 2
                assert res.prefix_update_count(h, m) <= bound

    @settings(max_examples=25, deadline=None)
    @given(classes(max_n=5, max_size=10))
    def test_weight_halves_at_every_update(self, cls):
        res = weighted_disambiguate(cls)
        scaled, _ = _scaled_weights(cls)  # numerators over one denominator
        sides = cls.packed.label_masks
        for h in cls:
            mask = cls.packed.full
            update_at = set(res.update_positions[h])
            for x in range(cls.domain_size):
                if x in update_at:
                    before = _suffix_numerator(sides, scaled, mask, x - 1)
                    mask &= sides[x][h[x]]
                    after = _suffix_numerator(sides, scaled, mask, x)
                    assert 2 * after <= before


@settings(max_examples=60, deadline=None)
@given(classes(max_n=5, max_size=10))
def test_both_votes_match_the_definition(cls):
    for vote, procedure in (
        ("majority", vc_majority_disambiguate),
        ("weighted", weighted_disambiguate),
    ):
        res = procedure(cls)
        extensions, updates = sequential_by_definition(cls, vote)
        assert {h: bar.labels for h, bar in res.extension_of.items()} == extensions
        assert res.update_positions == updates


# sha256 of one dims-shaped class's td and vc witnesses, strength and both
# votes' update positions, taken before the count fold and the staircase cuts
_DIMS_CLASS_DIGEST = "dd7fcf5dde6c939679f862d77275231892dbe4c95775cedb4ac263035b68be42"


def test_dims_class_outputs_are_pinned():
    cls = generate_random_class(14, 48, 0.15, 1)
    td, (pts, hs) = threshold_dimension(cls, witness=True)
    record = (
        (td, pts, tuple(h.labels for h in hs)),
        vc_dimension(cls, witness=True),
        shattering_strength(cls),
        tuple(vc_majority_disambiguate(cls).update_positions[h] for h in cls.concepts),
        tuple(weighted_disambiguate(cls).update_positions[h] for h in cls.concepts),
    )
    assert hashlib.sha256(repr(record).encode()).hexdigest() == _DIMS_CLASS_DIGEST


@settings(max_examples=60, deadline=None)
@given(classes(max_n=5, max_size=10))
@example(generate_random_class(14, 48, 0.15, 1))
def test_each_subclass_and_point_is_voted_on_once(cls):
    """The walk asks one vote per distinct (subclass, point) that some
    concept's consistent subclass, replayed from its update positions, meets
    with both restrictions nonempty, and no other."""
    sides = cls.packed.label_masks
    for procedure in (vc_majority_disambiguate, weighted_disambiguate):
        asked = []
        real = disambiguation._vote

        def spy(potential, m0, m1, x):
            asked.append((m0, m1, x))
            return real(potential, m0, m1, x)

        with mock.patch.object(disambiguation, "_vote", spy):
            res = procedure(cls)
        met = set()
        for h in cls.concepts:
            mask = cls.packed.full
            for x in range(cls.domain_size):
                if sides[x][0] & mask and sides[x][1] & mask:
                    met.add((mask, x))
                if x in res.update_positions[h]:
                    mask &= sides[x][h[x]]
        assert Counter(asked) == Counter(
            (sides[x][0] & mask, sides[x][1] & mask, x) for mask, x in met
        )


def test_potential_memos_die_with_the_call():
    """Neither procedure keeps any state past its call: with collection off,
    the class is freed as soon as its last reference goes, results still
    held."""
    cls = concept_class(5, ["01*10", "1*001", "00110", "*1*11", "10*0*", "0110*"])
    alive = weakref.ref(cls)
    gc.disable()
    try:
        results = [vc_majority_disambiguate(cls), weighted_disambiguate(cls)]
        del cls
        assert alive() is None
    finally:
        gc.enable()
    assert all(res.totals for res in results)


def test_majority_reuses_the_class_vc_set_and_strength(monkeypatch):
    """After a `pcl dim`-style vc and strength query, the majority vote runs
    no VC search and no strength fold on the whole class; on a fresh class
    it runs one of each."""
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))  # (choices or sides, mask, ..)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(dimensions, "first_largest")
    spy(dimensions, "shattered_weight")
    spy(disambiguation, "shattered_weight")
    rows = ["01*10", "1*001", "00110", "*1*11", "10*0*", "0110*"]
    for queried in (False, True):
        cls = concept_class(5, rows)
        if queried:
            dimensions.measure_report(cls, "vc", witness=True)
            dimensions.measure_report(cls, "strength")
        calls.clear()
        vc_majority_disambiguate(cls)
        on_full = sorted(name for name, mask in calls if mask == cls.packed.full)
        assert len(calls) > len(on_full)  # the spy sees the votes' own folds
        assert on_full == ([] if queried else ["first_largest", "shattered_weight"])


class TestBiclique:
    def test_k4_star_concepts(self):
        cls = biclique_class(star_partition_instance(4))
        assert cls == concept_class(3, ["0**", "10*", "110", "111"])

    def test_k4_vc_and_pair_patterns(self):
        cls = biclique_class(star_partition_instance(4))
        assert vc_dimension(cls) == 1
        n = cls.domain_size
        for i in range(n):
            for j in range(i + 1, n):
                assert len(cls.binary_patterns((i, j))) <= 2

    def test_partition_validation_catches_double_cover(self):
        with pytest.raises(ValueError, match="more than one biclique"):
            BicliqueInstance(
                3,
                edges=((0, 1), (0, 2), (1, 2)),
                partition=(((0,), (1, 2)), ((1,), (2, 0))),
            )

    def test_partition_validation_catches_missing_edge(self):
        with pytest.raises(ValueError, match="not covered"):
            BicliqueInstance(3, edges=((0, 1), (1, 2)), partition=(((0,), (1,)),))

    @pytest.mark.parametrize("side", [(7,), (-1,), (3,)])
    def test_partition_validation_catches_vertex_out_of_range(self, side):
        # the second biclique faces an empty side, so it covers no edge
        with pytest.raises(ValueError, match=f"biclique 1 names vertex {side[0]} out of range"):
            BicliqueInstance(3, edges=((0, 1),), partition=(((0,), (1,)), (side, ())))

    @pytest.mark.parametrize("edge", [(3, 0), (0, 3)])
    def test_edge_endpoint_at_the_vertex_count_refused(self, edge):
        # an edge is stored low end first; the partition would name vertex 3
        # under another message if the edge got through
        with pytest.raises(ValueError, match=r"edge \(0, 3\) out of vertex range"):
            BicliqueInstance(3, edges=(edge,), partition=(((0,), (3,)),))

    @pytest.mark.parametrize(
        "edges, partition, named",
        [
            (((0, 1), (1, 0)), (((0,), (1,)),), "duplicate edges in graph"),
            (((1, 1),), (((1,), (1,)),), "self-loop at vertex 1"),
            (((0, 1),), (((0,), (0, 1)),), "biclique 0 has overlapping sides"),
        ],
        ids=["duplicate-edge", "self-loop", "overlapping-sides"],
    )
    def test_graph_fault_named(self, edges, partition, named):
        with pytest.raises(ValueError, match=named):
            BicliqueInstance(3, edges=edges, partition=partition)

    def test_over_the_vertex_limit_refused(self):
        with pytest.raises(ValueError, match="vertices = 301 exceeds the limit of 300"):
            BicliqueInstance(MAX_BICLIQUE_VERTICES + 1, edges=(), partition=())
        with pytest.raises(ValueError, match="m = 301 exceeds the limit of 300"):
            star_partition_instance(MAX_BICLIQUE_VERTICES + 1)

    def test_single_edge_coloring(self):
        inst = BicliqueInstance(2, edges=((0, 1),), partition=(((0,), (1,)),))
        cls = biclique_class(inst)
        res = vc_majority_disambiguate(cls)
        cert = certify_coloring_lower_bound(inst, res)
        assert cert.is_proper and cert.colors_used == 2

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_complete_graph_forces_m_colors(self, m):
        inst = star_partition_instance(m)
        cls = biclique_class(inst)
        for builder in (
            vc_majority_disambiguate,
            weighted_disambiguate,
            support_indicator_disambiguation,
        ):
            res = builder(cls)
            cert = certify_coloring_lower_bound(inst, res)
            assert cert.is_proper, f"{builder.__name__} gave an improper coloring"
            assert cert.colors_used >= m

    def test_certificate_needs_an_extension_for_every_vertex(self):
        inst = star_partition_instance(4)
        cls = biclique_class(inst)
        with pytest.raises(ContractViolation, match="per-concept extensions"):
            certify_coloring_lower_bound(inst, compression_to_disambiguation(cls))
        res = vc_majority_disambiguate(cls)
        first = disambiguation.vertex_concepts(inst)[0]
        del res.extension_of[first]
        with pytest.raises(ContractViolation, match="concept of vertex 0"):
            certify_coloring_lower_bound(inst, res)

    def test_any_graph_with_an_edge_has_vc_one(self):
        # single-edge bicliques are always a valid partition; the class of a
        # path on three vertices still pins VC at exactly 1
        path = BicliqueInstance(
            3,
            edges=((0, 1), (1, 2)),
            partition=(((0,), (1,)), ((1,), (2,))),
        )
        cls = biclique_class(path)
        assert vc_dimension(cls) == 1
        for i in range(cls.domain_size):
            for j in range(i + 1, cls.domain_size):
                assert len(cls.binary_patterns((i, j))) <= 2

    def test_weak_check_on_k4_forced_totals(self):
        cls = biclique_class(star_partition_instance(4))
        totals = total_class(3, ["000", "100", "110", "111"])
        assert weak_violation(cls, totals, 3) is None


class TestIsDisambiguation:
    """Totals disambiguate a class when the strong or weak checker finds no violation."""

    def test_strong_self(self):
        cls = concept_class(3, ["000", "111"])
        assert strong_violation(cls, total_class(3, ["000", "111"])) is None

    def test_missing_extension_detected(self):
        cls = concept_class(2, ["0*", "*1"])
        totals = total_class(2, ["00"])
        assert strong_violation(cls, totals) == concept("*1")

    def test_weak_violation_reports_pattern(self):
        cls = concept_class(2, ["01", "10"])
        totals = total_class(2, ["01"])
        # the smallest missed subset comes first: point 0 labeled 1
        bad = weak_violation(cls, totals, 2)
        assert bad == ((0,), (1,))

    def test_long_checks_are_exhaustive(self):
        cls = concept_class(8, ["0" * 8, "1" * 8])
        assert weak_violation(cls, total_class(8, ["0" * 8, "1" * 8]), 8) is None
        # one-hot totals are all-zero on every set of at most 7 points, not on all 8
        one_hot = total_class(8, ["0" * i + "1" + "0" * (7 - i) for i in range(8)])
        zeros = concept_class(8, ["0" * 8])
        assert weak_violation(zeros, one_hot, 7) is None
        assert weak_violation(zeros, one_hot, 8) == (tuple(range(8)), (0,) * 8)


class TestCompressionDisambiguation:
    def test_singleton_trivial_scheme(self):
        cls = concept_class(2, ["01"])
        res = compression_to_disambiguation(cls)
        assert res.info["scheme_size"] == 0
        assert res.totals == total_class(2, ["01"])

    def test_two_constants_size_one_scheme(self):
        cls = concept_class(3, ["000", "111"])
        res = compression_to_disambiguation(cls)
        assert res.info["scheme_size"] == littlestone_dimension(cls) == 1
        assert concept("000") in res.totals.concepts
        assert concept("111") in res.totals.concepts
        # enumerated kept sets: the empty set and the 2n single pairs
        assert res.info["candidates"] == 1 + 2 * 3
        assert len(res.totals) <= res.info["candidates"]
        assert weak_violation(cls, res.totals, 3) is None

    @settings(max_examples=40, deadline=None)
    @given(classes(max_n=4, max_size=8))
    def test_kept_set_scheme_always_weakly_disambiguates(self, cls):
        if littlestone_dimension(cls) > 2:
            return  # keep the enumeration tiny
        res = compression_to_disambiguation(cls)
        assert weak_violation(cls, res.totals, cls.domain_size) is None
        # kept sets rebuild exactly what every kept sequence does
        assert {h.labels for h in res.totals} == compression_totals_by_definition(cls)

    def test_invalid_scheme_is_reported(self, monkeypatch):
        cls = concept_class(2, ["01", "10"])
        monkeypatch.setattr(
            disambiguation, "ld_reconstruct", lambda cls, comp: PartialConcept((0, 1))
        )
        with pytest.raises(ContractViolation, match="not valid"):
            compression_to_disambiguation(cls)


class TestSupportIndicator:
    def test_total_class_is_unchanged(self):
        cls = concept_class(2, ["01", "10"])
        res = support_indicator_disambiguation(cls)
        assert res.totals == total_class(2, ["01", "10"])

    def test_star_maps_to_zero(self):
        cls = concept_class(2, ["1*", "*1"])
        res = support_indicator_disambiguation(cls)
        assert res.totals == total_class(2, ["10", "01"])

    def test_zero_star_cube_collapses(self):
        res = support_indicator_disambiguation(zero_star_cube(3))
        assert res.totals == total_class(3, ["000"])
        assert res.info["vc"] == 0

    def test_graph_bound_check_raises(self, monkeypatch):
        # Indicator VC 1 against a graph dimension forced to 0 breaks VC <= graph.
        monkeypatch.setattr(dimensions, "graph_dimension", lambda cls: 0)
        with pytest.raises(AssertionError, match="exceeds graph dimension"):
            support_indicator_disambiguation(concept_class(2, ["1*", "*1"]))

    @settings(max_examples=40, deadline=None)
    @given(classes(max_n=4, max_size=8))
    def test_vc_bounded_by_graph_dimension(self, cls):
        res = support_indicator_disambiguation(cls)
        assert res.info["vc"] <= res.info["graph_dimension"]


IDENTITY = {(v,): v for v in (0, 1, STAR)}


class TestMajorityCompose:
    def test_identity(self):
        cls = concept_class(2, ["01", "1*"])
        assert majority_compose([cls], IDENTITY) == cls

    def test_indicator_matches_support_disambiguation(self):
        cls = concept_class(2, ["1*", "*1"])
        composed = majority_compose([cls], {(0,): 0, (1,): 1, (STAR,): 0})
        totals = support_indicator_disambiguation(cls).totals
        assert composed.concepts == totals.concepts

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closure_failure(self, n):
        h1 = concept_class(n, ["".join(bits) for bits in product("0*", repeat=n)])
        h2 = concept_class(n, ["".join(bits) for bits in product("1*", repeat=n)])
        assert vc_dimension(h1) == 0 and vc_dimension(h2) == 0
        composed = majority_compose([h1, h2], majority_table(2))
        assert vc_dimension(composed) == n

    def test_two_argument_table_matches_case_rule(self):
        table = majority_table(2)
        star = 2
        assert table[(1, star)] == 1 and table[(star, 1)] == 1
        assert table[(0, star)] == 0 and table[(star, 0)] == 0
        assert table[(0, 1)] == star and table[(star, star)] == star

    def test_no_class_or_mixed_domains_rejected(self):
        with pytest.raises(ValueError, match="at least one class"):
            majority_compose([], IDENTITY)
        mixed = [concept_class(2, ["01"]), concept_class(3, ["011"])]
        with pytest.raises(ValueError, match="share a domain size"):
            majority_compose(mixed, majority_table(2))

    def test_arity_mismatch_rejected(self):
        cls = concept_class(2, ["01"])
        with pytest.raises(ValueError):
            majority_compose([cls, cls], IDENTITY)
