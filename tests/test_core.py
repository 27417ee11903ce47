import hashlib
from fractions import Fraction
from itertools import product
from random import Random, SystemRandom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcl.core import (
    STAR,
    ContractViolation,
    LabeledSample,
    PartialConcept,
    PartialConceptClass,
    approximation_error,
    concept,
    concept_class,
    finite_distribution,
    is_realizable,
    labeled_sample,
    max_realizable_subsequence,
    min_mistakes,
    pattern_code,
    pattern_labels,
    total_class,
    uniform_on,
)
from pcl.dimensions import is_shattered
from pcl.geometry import weak_learning_game
from pcl.learners import agnostic_learn
from pcl.online import AgnosticOnlineLearner, Soa, play_sequence

from _oracles import (
    approximation_error_by_product,
    max_realizable_by_enumeration,
    min_mistakes_by_definition,
    patterns_on,
    realizable_by_definition,
    restrict,
    splits,
)
from _strategies import classes, classes_with_blank_columns, classes_with_samples


def k4_star_class():
    # Complete-graph-on-4 construction with the star edge partition:
    # one concept per vertex over 3 coordinates.
    return concept_class(3, ["0**", "10*", "110", "111"])


class TestConstruction:
    def test_parse_round_trip(self):
        h = concept("01*")
        assert str(h) == "01*"
        assert h.support() == (0, 1)
        assert not h.is_total()

    def test_bad_character_rejected(self):
        with pytest.raises(ValueError):
            concept("01x")

    def test_dedup_and_order_canonical(self):
        a = concept_class(2, ["0*", "00", "0*"])
        b = concept_class(2, ["00", "0*"])
        assert a == b
        assert len(a) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concept_class(3, ["01"])

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            PartialConceptClass(2, ())

    def test_distribution_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            finite_distribution({(0, 0): Fraction(1, 2)})

    def test_negative_atom_point_rejected(self):
        with pytest.raises(ValueError, match="nonnegative index, got -1"):
            finite_distribution({(-1, 0): 1})

    def test_uniform_on_nothing_rejected(self):
        with pytest.raises(ValueError, match=r"nonempty support, got \[\]"):
            uniform_on([])

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: PartialConceptClass(0, (concept(""),)), "domain_size must be positive"),
            (lambda: finite_distribution({(0, 0): 1, (1, 1): 0}), "weight must be positive"),
            (lambda: PartialConcept((0, 3)), "label must be 0, 1 or STAR, got 3"),
            (lambda: total_class(2, ["01", "0*"]), r"total class contains a partial concept: 0\*"),
            (lambda: finite_distribution({(0, 2): 1}), "atom label must be 0 or 1, got 2"),
            (lambda: uniform_on([(1, 0), (1, 0)]), r"duplicate atom \(1, 0\)"),
            (
                lambda: approximation_error(concept_class(1, ["0"]), uniform_on([(0, 0)]), 0),
                "n must be at least 1",
            ),
        ],
        ids=[
            "domain-size-0", "atom-weight-0", "concept-label-3", "partial-in-total",
            "atom-label-2", "duplicate-atom", "approximation-n-0",
        ],
    )
    def test_edge_value_rejected(self, build, named):
        with pytest.raises(ValueError, match=named):
            build()

    @pytest.mark.parametrize(
        "build, entries, named",
        [
            (labeled_sample, [(0, 1), (0.5, 1), (1, 1.9)], r"\(0\.5, 1\)"),
            (labeled_sample, [(0, 1), (1, 1.9)], r"\(1, 1\.9\)"),
            (finite_distribution, {(0.7, 1): 1}, r"\(0\.7, 1\)"),
            (finite_distribution, {(0, 1.0): 1}, r"\(0, 1\.0\)"),
            (uniform_on, [(2.9, 0)], r"\(2\.9, 0\)"),
            (uniform_on, [("1", 0)], r"\('1', 0\)"),
        ],
    )
    def test_non_integer_entry_rejected_by_name(self, build, entries, named):
        with pytest.raises(ValueError, match=named):
            build(entries)

    def test_numpy_integer_entries_accepted(self):
        x, y = np.int64(1), np.uint8(0)
        assert labeled_sample([(x, y)]).pairs == ((1, 0),)
        assert type(labeled_sample([(x, y)]).pairs[0][0]) is int
        assert uniform_on([(x, y)]).support_pairs() == ((1, 0),)
        assert finite_distribution({(x, y): 1}).support_pairs() == ((1, 0),)

    @pytest.mark.parametrize(
        "tail, message",
        [
            (((3, 2),), "label must be 0 or 1, got 2"),
            (((-4, 1),), "nonnegative index, got -4"),
            (((-4, 1), (3, 2), (-4, 1)), "got -4"),
            (((3, 2), (-4, 1)), "got 2"),
        ],
    )
    def test_first_bad_pair_of_a_long_sample_reported(self, tail, message):
        with pytest.raises(ValueError, match=message):
            LabeledSample(((0, 1), (1, 0)) * 2500 + tail)


class TestRealizability:
    def test_realizable_by_total_concept(self):
        cls = concept_class(2, ["0*", "*0", "00"])
        assert is_realizable(cls, labeled_sample([(0, 0), (1, 0)]))

    def test_no_concept_labels_point_one(self):
        cls = concept_class(2, ["0*", "*0", "00"])
        assert not is_realizable(cls, labeled_sample([(0, 1)]))

    def test_biclique_class_cross_pair(self):
        # No concept has label 0 at coordinate 0 and label 1 at coordinate 1.
        assert not is_realizable(k4_star_class(), labeled_sample([(0, 0), (1, 1)]))

    def test_out_of_range_point_is_domain_error(self):
        cls = concept_class(2, ["00"])
        with pytest.raises(ValueError):
            is_realizable(cls, labeled_sample([(2, 0)]))

    @pytest.mark.parametrize(
        "call, point",
        [
            (lambda c: play_sequence(c, Soa(c), [(-1, 1)]), -1),
            (lambda c: play_sequence(c, Soa(c), [(5, 1)]), 5),
            (lambda c: AgnosticOnlineLearner(c, 2).run([(-1, 1), (0, 0)]), -1),
            (lambda c: min_mistakes(c, [(-1, 1)]), -1),
            (lambda c: approximation_error(c, uniform_on([(7, 1)]), 1), 7),
            (
                lambda c: weak_learning_game(
                    total_class(2, ["01", "10"]), labeled_sample([(5, 1)])
                ),
                5,
            ),
        ],
        ids=["soa-negative", "soa-past-domain", "agnostic", "min-mistakes",
             "approximation", "weak-game"],
    )
    def test_point_outside_domain_named(self, call, point):
        cls = concept_class(3, ["001", "110", "01*"])
        with pytest.raises(ValueError, match=f"point index {point} out of range"):
            call(cls)

    @settings(max_examples=60)
    @given(classes_with_samples())
    def test_realizability_is_monotone(self, cls_pairs):
        cls, pairs = cls_pairs
        sample = labeled_sample(pairs)
        if is_realizable(cls, sample):
            for drop in range(len(sample)):
                sub = labeled_sample(p for i, p in enumerate(pairs) if i != drop)
                assert is_realizable(cls, sub)


class TestEmpiricalError:
    """A single concept's mistakes, as the fewest of its one-concept class."""

    def test_zero_on_agreeing_concept(self):
        s = labeled_sample([(0, 0), (1, 0), (2, 0)])
        assert min_mistakes(concept_class(3, ["000"]), s) == 0

    def test_all_star_always_errs(self):
        s = labeled_sample([(0, 0), (1, 1), (2, 0), (1, 0)])
        assert min_mistakes(concept_class(3, ["***"]), s) == 4

    def test_mixed_counts_star_as_mistake(self):
        s = labeled_sample([(0, 0), (1, 0), (2, 1)])
        assert min_mistakes(concept_class(3, ["01*"]), s) == 2

    def test_empty_sample_rejected(self):
        # the agnostic learner is where an error rate over the sample is formed
        with pytest.raises(ContractViolation, match="non-empty sample"):
            agnostic_learn(concept_class(1, ["0"]), labeled_sample([]))

    @settings(max_examples=60)
    @given(classes_with_samples())
    def test_zero_error_iff_singleton_realizable(self, cls_pairs):
        cls, pairs = cls_pairs
        sample = labeled_sample(pairs)
        for h in cls.concepts:
            singleton = PartialConceptClass(cls.domain_size, (h,))
            assert (min_mistakes(singleton, sample) == 0) == is_realizable(
                singleton, sample
            )


@st.composite
def packed_cases(draw):
    """A class (some columns possibly all STAR), a point tuple and a sample."""
    cls = draw(classes_with_blank_columns())
    n = cls.domain_size
    points = tuple(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((0, 1))), max_size=6)
    )
    if pairs and draw(st.booleans()):
        x, y = draw(st.sampled_from(pairs))
        pairs.append((x, y) if draw(st.booleans()) else (x, 1 - y))
    return cls, points, pairs


@st.composite
def split_cases(draw):
    """A class (some columns possibly all STAR), a subclass mask, a point tuple
    and two distinct labels per point."""
    cls = draw(classes_with_blank_columns())
    n = cls.domain_size
    mask = draw(st.integers(0, cls.packed.full))
    points = tuple(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    labels = st.sampled_from([(a, b) for a in (0, 1, STAR) for b in (0, 1, STAR) if a != b])
    return cls, mask, points, [draw(labels) for _ in range(n)]


class TestPackedClass:
    """The bitmask kernel against the literal pattern enumeration."""

    @settings(max_examples=150)
    @given(split_cases())
    @example((concept_class(2, ["0*", "*1"]), 0b11, (0, 1), [(0, STAR), (STAR, 1)]))
    @example((concept_class(2, ["0*", "*1"]), 0, (), [(0, 1), (0, 1)]))
    def test_split_kernel_matches_brute_force(self, case):
        # the oracles' split walk, which the Natarajan and graph references run
        cls, mask, points, labels = case
        packed = cls.packed
        kept = [h for i, h in enumerate(cls.concepts) if mask >> i & 1]

        def every_cell(on_side):
            # some kept concept h with on_side(h, x, bit) at every point, per bits
            return bool(kept) and all(
                any(all(on_side(h, x, b) for x, b in zip(points, bits)) for h in kept)
                for bits in product((0, 1), repeat=len(points))
            )

        by_label = [(*m, star) for m, star in zip(packed.label_masks, packed.star_masks)]
        label_sides = [(by_label[x][a], by_label[x][b]) for x, (a, b) in enumerate(labels)]
        assert splits(label_sides, mask, points) == every_cell(
            lambda h, x, b: h[x] == labels[x][b]
        )
        support_sides = [(star, packed.full & ~star) for star in packed.star_masks]
        assert splits(support_sides, mask, points) == every_cell(
            lambda h, x, b: (h[x] != STAR) == b
        )

    @settings(max_examples=150)
    @given(packed_cases())
    @example((concept_class(3, ["0*1"]), (0, 2), [(0, 0), (2, 1), (0, 0)]))
    @example((concept_class(3, ["0*1", "1*0", "1*1"]), (0, 1), [(2, 1), (2, 0)]))
    @example((concept_class(2, ["0*", "11"]), (), []))
    def test_kernel_matches_brute_force(self, case):
        cls, points, pairs = case
        pats = patterns_on(cls, points)
        assert cls.binary_patterns(points) == pats
        # the codes decode to the patterns, and in ascending order to sorted ones
        codes = sorted(cls.pattern_codes(points))
        decoded = [pattern_labels(code, len(points)) for code in codes]
        assert decoded == sorted(pats)
        assert [pattern_code(p) for p in decoded] == codes
        assert is_shattered(cls, points) == (len(pats) == 2 ** len(points))

        labels = dict(pairs)
        consistent = all(labels[x] == y for x, y in pairs)
        pts = sorted(labels)
        expected = consistent and tuple(labels[x] for x in pts) in patterns_on(cls, pts)
        assert is_realizable(cls, labeled_sample(pairs)) == expected

        packed = cls.packed
        mask = packed.mask_of(pairs)
        kept = [h for h in cls.concepts if all(h[x] == y for x, y in pairs)]
        assert [h for i, h in enumerate(cls.concepts) if mask >> i & 1] == kept
        shattered = bool(kept) and len(
            patterns_on(PartialConceptClass(cls.domain_size, tuple(kept)), points)
        ) == 2 ** len(points)
        assert splits(packed.label_masks, mask, points) == shattered


class TestRestrict:
    """The restriction oracle the halving tests build on."""

    def test_total_restriction(self):
        cls = concept_class(3, ["000", "111"])
        assert restrict(cls, 0, 1) == concept_class(3, ["111"])

    def test_empty_restriction_is_none(self):
        cls = concept_class(2, ["0*", "*0"])
        assert restrict(cls, 0, 1) is None

    def test_star_is_excluded_from_both_sides(self):
        cls = concept_class(3, ["01*", "0*1", "*11"])
        assert restrict(cls, 1, 1) == concept_class(3, ["01*", "*11"])

    @settings(max_examples=60)
    @given(classes(), st.integers(0, 4))
    def test_restrictions_partition_the_class(self, cls, x):
        x = x % cls.domain_size
        r0 = restrict(cls, x, 0)
        r1 = restrict(cls, x, 1)
        side0 = set(r0.concepts) if r0 else set()
        side1 = set(r1.concepts) if r1 else set()
        stars = {h for h in cls.concepts if h[x] == STAR}
        assert side0 | side1 | stars == set(cls.concepts)
        assert not side0 & side1
        assert not (side0 | side1) & stars


def support_realizable(cls, dist) -> bool:
    return is_realizable(cls, labeled_sample(dist.support_pairs()))


class TestDistributions:
    """A finite-support distribution is realizable when its support is."""

    def test_realizable_support(self):
        cls = concept_class(2, ["00"])
        assert support_realizable(cls, uniform_on([(0, 0), (1, 0)]))

    def test_contradictory_labels_never_realizable(self):
        cls = concept_class(2, ["00", "11", "**"])
        assert not support_realizable(cls, uniform_on([(0, 0), (0, 1)]))

    def test_erm_failure_style_support(self):
        # Concepts defined (as 0) on exactly half the domain; the uniform
        # distribution over one support is realizable by that concept.
        cls = concept_class(4, ["00**", "0*0*", "**00"])
        assert support_realizable(cls, uniform_on([(0, 0), (1, 0)]))


# atoms with raw weights up to 10**15 apart, so that some atoms are tiny
_weighted_atoms = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from((0, 1)), st.integers(1, 10**15)),
    min_size=1,
    max_size=6,
    unique_by=lambda atom: atom[:2],
)


def _from_raw_weights(atoms):
    total = sum(r for _, _, r in atoms)
    return finite_distribution({(x, y): Fraction(r, total) for x, y, r in atoms})


class TestSampleStream:
    """``FiniteDistribution.draw`` and ``sample`` are ``rng.choices``, draw for draw."""

    @settings(max_examples=120, deadline=None)
    @given(_weighted_atoms, st.integers(0, 2000), st.integers(0, 2**64))
    @example([(0, 0, 1)], 0, 0)
    @example([(0, 0, 1), (1, 1, 10**15)], 1, 5)
    @example([(2, 1, 1), (0, 0, 10**15), (1, 1, 1)], 2000, 7)
    @example([(x, x % 2, 1 + x % 3) for x in range(300)], 2000, 11)  # indices past 255
    @example([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4)], 64 * 937, 13)  # a pac block
    def test_matches_choices(self, atoms, n, seed):
        dist = _from_raw_weights(atoms)
        mine, indexed, theirs = Random(seed), Random(seed), Random(seed)
        picks = dist.draw(indexed, n)
        assert picks.shape == (n,)
        support = dist.support_pairs()
        weights = [float(w) for _, w in dist.atoms]
        drawn = dist.sample(mine, n).pairs
        assert drawn == tuple(theirs.choices(support, weights=weights, k=n))
        assert drawn == tuple(support[i] for i in picks)
        assert mine.random() == indexed.random() == theirs.random()

    @settings(max_examples=60, deadline=None)
    @given(
        _weighted_atoms, st.integers(0, 300), st.integers(0, 300), st.integers(0, 2**64)
    )
    @example([(0, 0, 1), (1, 1, 3)], 0, 5, 3)
    @example([(0, 0, 1), (1, 1, 3)], 312, 5, 3)  # b starts at state position 624
    def test_consecutive_draws_continue_one_stream(self, atoms, a, b, seed):
        # pac-realizable draws its blocks of trials one after another from
        # one generator per distribution
        dist = _from_raw_weights(atoms)
        mine, theirs = Random(seed), Random(seed)
        picks = np.concatenate([dist.draw(mine, a), dist.draw(mine, b)])
        weights = [float(w) for _, w in dist.atoms]
        assert picks.tolist() == theirs.choices(range(len(atoms)), weights=weights, k=a + b)
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("above", [0, 1])
    def test_draw_on_an_atom_boundary(self, seed, above):
        # The first atom's weight is the first random() value itself, or one
        # step of 2**-53 above it, so that draw falls on or just below its edge.
        w = Fraction(Random(seed).random()) + Fraction(above, 2**53)
        dist = finite_distribution({(0, 0): w, (1, 1): 1 - w})
        drawn = dist.sample(Random(seed), 1).pairs
        weights = [float(w), float(1 - w)]
        assert drawn == tuple(Random(seed).choices([(0, 0), (1, 1)], weights=weights))
        assert drawn == (((0, 0),) if above else ((1, 1),))

    def test_negative_size_rejected(self):
        with pytest.raises(ContractViolation, match="got -1"):
            uniform_on([(0, 0)]).sample(Random(0), -1)


# sha256 of the index bytes of a suite-shaped block (64 trials of 937 draws)
_PAC_BLOCK_DIGEST = "7cb3998264ae6f6fbf242252b82b53d3483fb3c4b0780d178dbf5c1f20caeaf6"


class TestDrawContract:
    def test_pac_block_stream_is_pinned(self):
        # no report digest sees the pac-draw stream; this literal does
        dist = finite_distribution({(0, 0): "1/10", (1, 1): "1/5", (2, 0): "3/10", (3, 1): "2/5"})
        picks = dist.draw(Random(20240817), 64 * 937)
        assert picks.dtype == np.uint8
        assert hashlib.sha256(picks.tobytes()).hexdigest() == _PAC_BLOCK_DIGEST

    def test_stateless_generator_rejected(self):
        with pytest.raises(ContractViolation, match="SystemRandom"):
            uniform_on([(0, 0), (1, 1)]).draw(SystemRandom(), 3)


class TestMaxRealizableSubsequence:
    def test_realizable_sample_keeps_everything(self):
        cls = concept_class(2, ["01"])
        s = labeled_sample([(0, 0), (1, 1), (0, 0)])
        assert max_realizable_subsequence(cls, s) == (0, 1, 2)

    def test_frozen_example(self):
        cls = concept_class(2, ["00"])
        s = labeled_sample([(0, 0), (1, 1), (1, 0)])
        assert max_realizable_subsequence(cls, s) == (0, 2)

    def test_all_star_class_keeps_nothing(self):
        cls = concept_class(2, ["**"])
        s = labeled_sample([(0, 0), (1, 1)])
        assert max_realizable_subsequence(cls, s) == ()

    @settings(max_examples=60)
    @given(classes_with_samples(max_n=4, max_size=6, max_len=5))
    def test_matches_enumeration_oracle(self, cls_pairs):
        # the oracle breaks ties its own way, so only the size must agree
        cls, pairs = cls_pairs
        sample = labeled_sample(pairs)
        got = max_realizable_subsequence(cls, sample)
        assert len(got) == len(max_realizable_by_enumeration(cls, sample))
        assert realizable_by_definition(cls, sample.subsample(got))

    def test_tie_goes_to_the_first_concept_in_class_order(self):
        # "00" keeps index 1 and "11" keeps index 0; "00" comes first
        cls = concept_class(2, ["11", "00"])
        s = labeled_sample([(0, 1), (1, 0)])
        assert max_realizable_subsequence(cls, s) == (1,)


@st.composite
def star_heavy_sequences(draw):
    """A class on up to 5 points whose labels are STAR half the time, and up
    to 24 pairs on its points, the empty sequence among them."""
    cls = draw(classes(max_n=5, max_size=12, alphabet=(0, 1, STAR, STAR)))
    point = st.integers(0, cls.domain_size - 1)
    return cls, draw(st.lists(st.tuples(point, st.sampled_from((0, 1))), max_size=24))


class TestMinMistakes:
    @settings(max_examples=150)
    @given(star_heavy_sequences())
    @example((concept_class(2, ["**", "0*"]), []))
    @example((concept_class(1, ["*"]), [(0, 0), (0, 1), (0, 1)]))
    @example((concept_class(1, ["0", "1"]), [(0, 1)] * 5 + [(0, 0)] * 7))
    def test_matches_definition(self, case):
        cls, pairs = case
        assert min_mistakes(cls, pairs) == min_mistakes_by_definition(cls, pairs)


class TestApproximationError:
    def test_realizable_distribution_has_zero_error(self):
        cls = concept_class(2, ["00"])
        dist = uniform_on([(0, 0), (1, 0)])
        for n in (1, 2, 3):
            assert approximation_error(cls, dist, n) == 0

    def test_exact_value_single_point_noise(self):
        cls = concept_class(1, ["0"])
        dist = uniform_on([(0, 0), (0, 1)])
        assert approximation_error(cls, dist, 1) == Fraction(1, 2)
        assert approximation_error(cls, dist, 2) == Fraction(1, 2)

    def test_exact_matches_product_oracle(self):
        cls = concept_class(2, ["0*", "*1", "11"])
        dist = finite_distribution(
            {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 3), (0, 1): Fraction(1, 6)}
        )
        for n in (1, 2, 3):
            assert approximation_error(cls, dist, n) == (
                approximation_error_by_product(cls, dist, n)
            )

    def test_monotone_in_n(self):
        cls = concept_class(2, ["0*", "*0"])
        dist = uniform_on([(0, 0), (0, 1), (1, 0)])
        values = [approximation_error(cls, dist, n) for n in (1, 2, 3)]
        assert values[0] <= values[1] <= values[2]
