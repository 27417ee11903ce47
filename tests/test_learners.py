import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcl import learners
from pcl.core import (
    STAR,
    ContractViolation,
    PartialConcept,
    PartialConceptClass,
    concept_class,
    labeled_sample,
    uniform_on,
)
from pcl.dimensions import littlestone_dimension, vc_dimension
from pcl.learners import (
    CompressionFormatError,
    CompressionOutput,
    OneInclusionCache,
    OneInclusionGraph,
    agnostic_learn,
    alpha_boost_compress,
    boosting_round_cap,
    boosting_round_size,
    ld_compress,
    loo_error,
    materialize_transductive,
    one_inclusion_predict,
    pac_learn_realizable,
    pac_schedule,
    reconstruct,
)
from pcl.online import Soa

from _oracles import (
    loo_by_definition,
    one_inclusion_by_definition,
    pac_by_definition,
    vc_by_definition,
)
from _strategies import classes, classes_with_blank_columns
import random


@st.composite
def realizable_with_repeats(draw):
    """A class and a sample with repeated points from one concept's support,
    so every domain point is either a training point or a fresh test point."""
    cls = draw(classes_with_blank_columns())
    h = draw(st.sampled_from(cls.concepts))
    xs = draw(st.lists(st.integers(0, cls.domain_size - 1), max_size=7))
    return cls, labeled_sample((x, h[x]) for x in xs if h[x] != STAR)


def realizable_samples(cls, max_len):
    """All realizable samples over distinct points, up to max_len points."""
    n = cls.domain_size
    for k in range(1, min(max_len, n) + 1):
        for pts in combinations(range(n), k):
            for pattern in sorted(cls.binary_patterns(pts)):
                yield labeled_sample(zip(pts, pattern))


class TestOneInclusion:
    def test_single_consistent_pattern(self):
        cls = concept_class(3, ["000", "111"])
        train = labeled_sample([(0, 1), (1, 1)])
        assert one_inclusion_predict(cls, train, 2) == 1

    def test_singleton_class(self):
        cls = concept_class(3, ["010"])
        assert one_inclusion_predict(cls, labeled_sample([(0, 0)]), 1) == 1

    def test_unrealizable_train_rejected(self):
        cls = concept_class(2, ["00"])
        with pytest.raises(ContractViolation):
            one_inclusion_predict(cls, labeled_sample([(0, 1)]), 1)

    def test_repeated_test_point_follows_train_label(self):
        cls = concept_class(2, ["01", "10", "00"])
        train = labeled_sample([(0, 0), (0, 0), (1, 1)])
        assert one_inclusion_predict(cls, train, 0) == 0

    @settings(max_examples=150, deadline=None)
    @given(realizable_with_repeats())
    def test_predictor_matches_definition(self, case):
        cls, train = case
        n = cls.domain_size
        preds = tuple(one_inclusion_predict(cls, train, x) for x in range(n))
        assert preds == tuple(
            one_inclusion_by_definition(cls, train.pairs, x) for x in range(n)
        )
        assert materialize_transductive(cls, train).labels == preds
        for outside in (-1, n):
            with pytest.raises(ValueError, match=f"test point {outside} "):
                one_inclusion_predict(cls, train, outside)

    @settings(max_examples=150, deadline=None)
    @given(realizable_with_repeats())
    # repeated points whose edges point away from the labeling: one mistake
    # each time, where the same pairs without repeats give more
    @example((concept_class(3, ["011", "101", "110", "000"]),
              labeled_sample([(0, 0), (0, 0), (0, 0), (1, 0)])))
    @example((concept_class(4, ["0110", "1011", "1100", "0001", "01*1"]),
              labeled_sample([(1, 0), (0, 0), (3, 1), (0, 0)])))
    def test_loo_matches_definition(self, case):
        cls, sample = case
        assume(sample)
        assert loo_error(cls, sample) == loo_by_definition(cls, sample)

    def test_loo_rejects_an_empty_sample(self):
        cls = concept_class(2, ["01", "10"])
        with pytest.raises(ContractViolation, match="non-empty"):
            loo_error(cls, labeled_sample([]))

    def test_loo_rejects_an_unrealizable_sample(self):
        # every two of the three pairs are realizable, all three are not
        cls = concept_class(3, ["00*", "0*0", "*00"])
        with pytest.raises(ContractViolation, match="realizable"):
            loo_error(cls, labeled_sample([(0, 0), (1, 0), (2, 0)]))

    def test_loo_reads_one_graph_and_builds_no_predictor(self, monkeypatch):
        calls = {"is_realizable": 0, "graph": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            learners, "is_realizable", counted("is_realizable", learners.is_realizable)
        )
        monkeypatch.setattr(
            OneInclusionCache, "graph", counted("graph", OneInclusionCache.graph)
        )
        monkeypatch.setattr(OneInclusionCache, "hypothesis", None)
        cls = concept_class(4, ["0110", "1011", "1100", "0001", "01*1"])
        sample = labeled_sample([(0, 0), (1, 1), (0, 0), (3, 0), (2, 1)])
        for _ in range(2):
            loo_error(cls, sample)
        assert calls == {"is_realizable": 2, "graph": 2}

    def test_order_independence(self):
        cls = concept_class(3, ["011", "101", "110", "000"])
        pairs = [(0, 0), (1, 0), (2, 0)]
        preds = {
            one_inclusion_predict(cls, labeled_sample(p), 2)
            for p in permutations(pairs)
        }
        assert len(preds) == 1

    def test_permutation_average_equals_leave_one_out(self):
        # the n!-term average groups into n leave-one-out terms because the
        # predictor is order-independent
        cls = concept_class(4, ["0110", "1011", "1100", "0001", "01*1"])
        for sample in realizable_samples(cls, 4):
            n = len(sample)
            total = 0
            for perm in permutations(range(n)):
                train = labeled_sample(sample.pairs[i] for i in perm[:-1])
                x, y = sample.pairs[perm[-1]]
                total += one_inclusion_predict(cls, train, x) != y
            assert Fraction(total, math.factorial(n)) == loo_error(cls, sample)

    def test_permutation_average_with_repeated_points(self):
        cls = concept_class(3, ["011", "101", "110", "000"])
        sample = labeled_sample([(0, 0), (1, 1), (0, 0), (2, 1)])
        n = len(sample)
        total = 0
        for perm in permutations(range(n)):
            train = labeled_sample(sample.pairs[i] for i in perm[:-1])
            x, y = sample.pairs[perm[-1]]
            total += one_inclusion_predict(cls, train, x) != y
        avg = Fraction(total, math.factorial(n))
        assert avg == loo_error(cls, sample)
        assert avg <= Fraction(vc_dimension(cls), n)

    @settings(max_examples=25, deadline=None)
    @given(classes(min_n=2, max_n=4, max_size=10))
    def test_loo_bound_on_random_classes(self, cls):
        d = vc_dimension(cls)
        for sample in realizable_samples(cls, 4):
            assert loo_error(cls, sample) <= Fraction(d, len(sample))

    @settings(max_examples=30, deadline=None)
    @given(classes(min_n=2, max_n=5, max_size=12))
    def test_orientation_out_degree_within_vc(self, cls):
        for pts in combinations(range(cls.domain_size), min(3, cls.domain_size)):
            if not cls.binary_patterns(pts):
                continue
            graph = cls.one_inclusion.graph(cls, pts)
            assert max(map(len, graph.out)) <= graph.vc
            assert graph.vc <= vc_dimension(cls)

    def test_vc_counts_only_concepts_defined_on_the_points(self):
        # "0*1" and "1*1" shatter {0}, but only "110" is defined on both points
        cls = concept_class(3, ["0*1", "110", "1*1", "1**", "*10", "*11", "***"])
        assert cls.vc == 1
        assert OneInclusionGraph(cls, (0, 1)).vc == 0

    @settings(max_examples=60, deadline=None)
    @given(classes_with_blank_columns())
    def test_vc_is_that_of_the_patterns(self, cls):
        n = cls.domain_size
        for k in range(1, n + 1):
            for pts in combinations(range(n), k):
                pats = cls.binary_patterns(pts)
                if pats:
                    patterns = PartialConceptClass(k, tuple(map(PartialConcept, pats)))
                    assert OneInclusionGraph(cls, pts).vc == vc_by_definition(patterns)


@st.composite
def pac_rows(draw):
    """A class of 2 to 8 concepts, each defined somewhere, eps, delta < 1 (two
    or three batches) and 1 to 3 sample rows for the PAC wrapper.

    The first two batches of a row repeat points of two different concepts'
    supports and any later batch those of any concept, so batches fit
    different hypotheses; validation pairs and the ignored tail come from a
    few atoms or from all of them, so scores often tie.
    """
    n = draw(st.integers(2, 4))
    label = st.sampled_from((0, 1, STAR))
    defined = st.tuples(*[label] * n).filter(lambda r: set(r) != {STAR})
    labels = draw(st.lists(defined, min_size=2, max_size=8, unique=True))
    cls = PartialConceptClass(n, tuple(map(PartialConcept, labels)))
    hs = cls.concepts
    eps = draw(st.sampled_from((0.6, 0.9)))
    delta = draw(st.sampled_from((0.25, 0.5)))
    s = pac_schedule(cls.vc, eps, delta)
    anything = st.tuples(st.integers(0, n - 1), st.sampled_from((0, 1)))
    size = s.validation_size + draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        first = draw(st.integers(0, len(hs) - 1))
        second = (first + draw(st.integers(1, len(hs) - 1))) % len(hs)
        k = s.batches - 2
        later = draw(st.lists(st.sampled_from(hs), min_size=k, max_size=k))
        pairs = []
        for h in [hs[first], hs[second], *later]:
            seen = st.sampled_from([(x, h[x]) for x in h.support()])
            pairs += draw(st.lists(seen, min_size=s.batch_size, max_size=s.batch_size))
        few = draw(st.lists(anything, min_size=1, max_size=2 * n, unique=True))
        pairs += draw(st.lists(st.sampled_from(few), min_size=size, max_size=size))
        rows.append(pairs)
    return cls, eps, delta, rows


def one_batch_rows():
    """Delta 1.0: one batch, which wins whatever the validation says."""
    cls = concept_class(3, ["01*", "110", "0*1"])
    s = pac_schedule(cls.vc, 0.9, 1.0)
    return cls, 0.9, 1.0, [[(0, 0)] * s.batch_size + [(2, 1)] * s.validation_size]


def wide_rows():
    """33 points, so 66 atoms: the two batches see only atom 64 or only atom
    65, and each row's validation pairs favour one of them."""
    cls = concept_class(33, ["0" * 33, "1" * 33, "0" * 32 + "1"])
    s = pac_schedule(cls.vc, 0.9, 0.5)
    zero, one = [(32, 0)] * s.batch_size, [(32, 1)] * s.batch_size
    rows = [
        zero + one + [(32, 1)] * s.validation_size,
        one + zero + [(32, 0)] * s.validation_size,
    ]
    return cls, 0.9, 0.5, rows


class TestPacWrapper:
    def test_schedule_example(self):
        s = pac_schedule(1, 0.5, 0.25)
        assert s.batches == 3
        assert s.batch_size == 8
        assert s.validation_size == math.ceil(64 * math.log(24))

    def test_delta_one_gives_single_batch(self):
        assert pac_schedule(1, 0.5, 1.0).batches == 1

    def test_short_sample_reports_required_size(self):
        cls = concept_class(2, ["00", "11"])
        with pytest.raises(ContractViolation, match="m ="):
            pac_learn_realizable(cls, labeled_sample([(0, 0)]), 0.5, 0.5)

    def test_monte_carlo_failure_rate(self):
        cls = concept_class(3, ["000", "111"])
        dist = uniform_on([(0, 1), (1, 1), (2, 1)])
        eps, delta = 0.5, 0.25
        schedule = pac_schedule(vc_dimension(cls), eps, delta)
        rng = random.Random(7)
        failures = 0
        trials = 300
        for _ in range(trials):
            sample = dist.sample(rng, schedule.total)
            hyp = pac_learn_realizable(cls, sample, eps, delta)
            err = sum(w for (x, y), w in dist.atoms if hyp.labels[x] != y)
            failures += err > eps
        assert failures / trials <= delta + 3 * math.sqrt(delta / trials)

    @settings(max_examples=40, deadline=None)
    @given(pac_rows())
    @example(one_batch_rows())
    @example(wide_rows())
    def test_matches_the_batch_by_batch_wrapper(self, case):
        cls, eps, delta, rows = case
        n = cls.domain_size
        atoms = [(x, y) for x in range(n) for y in (0, 1)]
        picks = np.array([[atoms.index(p) for p in pairs] for pairs in rows])
        block = learners.batch_and_validate(cls, atoms, picks, eps, delta, cls.one_inclusion)
        expected = [pac_by_definition(cls, pairs, eps, delta) for pairs in rows]
        assert [hyp.labels for hyp in block] == expected
        for pairs, labels in zip(rows, expected):
            assert pac_learn_realizable(cls, labeled_sample(pairs), eps, delta).labels == labels

    def test_validation_keeps_the_first_best_batch(self):
        cls = concept_class(3, ["000", "001", "010", "100"])
        s = pac_schedule(cls.vc, 0.9, 0.5)
        a, b = [(0, 0)] * s.batch_size, [(1, 0)] * s.batch_size  # fit 011 and 001
        tie = [(0, 0)] * s.validation_size  # both fits agree with it
        only_b = [(1, 0)] * s.validation_size

        def fit(pairs):
            return pac_learn_realizable(cls, labeled_sample(pairs), 0.9, 0.5).labels

        assert fit(a + b + tie) == (0, 1, 1)
        assert fit(b + a + tie) == (0, 0, 1)
        assert fit(a + b + only_b) == (0, 0, 1)

    def test_stacked_ties_go_to_each_rows_first_best_batch(self):
        cls = concept_class(3, ["000", "001", "010", "100"])
        s = pac_schedule(cls.vc, 0.9, 0.25)
        assert s.batches == 3
        atoms = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
        # the batch seeing only atom i fits 011, 001, 010, 000 and 001
        rows = [
            ((0, 1, 2), 0, (0, 1, 1)),  # all agree at x0: batch 0
            ((1, 0, 2), 2, (0, 1, 1)),  # 011 and 010 tie: batch 1
            ((1, 2, 0), 2, (0, 1, 0)),  # 010 and 011 tie: batch 1
            ((3, 1, 0), 4, (0, 0, 1)),  # 001 and 011 tie: batch 1
            ((1, 3, 0), 2, (0, 1, 1)),  # only 011 is right: batch 2
        ]
        picks = np.array(
            [np.repeat([*fits, valid], [s.batch_size] * 3 + [s.validation_size])
             for fits, valid, _ in rows]
        )
        block = learners.batch_and_validate(cls, atoms, picks, 0.9, 0.25, cls.one_inclusion)
        for row, hyp, (_, _, labels) in zip(picks, block, rows):
            pairs = [atoms[i] for i in row]
            assert hyp.labels == labels == pac_by_definition(cls, pairs, 0.9, 0.25)

    @pytest.mark.parametrize(
        "at, pick",
        [(3, 2), (20, 7), (149, -1)],
        ids=["batch-pick-past-the-atoms", "validation-pick-past-the-atoms", "negative-pick"],
    )
    def test_pick_outside_the_atoms(self, at, pick):
        # 2 batches of 8 and 134 validation points; a pick of 2 would count
        # as atom 0 of the next batch
        cls = concept_class(3, ["000", "001", "010", "100"])
        picks = np.zeros((1, pac_schedule(cls.vc, 0.5, 0.5).total), dtype=np.intp)
        picks[0, at] = pick
        with pytest.raises(ContractViolation, match=rf"pick {pick} .*there are 2 atoms"):
            learners.batch_and_validate(
                cls, [(0, 0), (1, 0)], picks, 0.5, 0.5, OneInclusionCache()
            )

    @pytest.mark.parametrize("atoms", [[], [(0, 1)]], ids=["no-atoms", "one-atom"])
    def test_zero_trials_give_no_hypotheses(self, atoms):
        cls = concept_class(2, ["01", "10"])
        picks = np.zeros((0, pac_schedule(cls.vc, 0.9, 0.5).total), dtype=np.intp)
        assert learners.batch_and_validate(cls, atoms, picks, 0.9, 0.5, cls.one_inclusion) == []

    def test_validation_point_outside_the_domain(self):
        cls = concept_class(3, ["001", "110"])
        sample = labeled_sample([(0, 0)] * 16 + [(7, 1)] * 134)
        with pytest.raises(ValueError, match="point index 7 out of range"):
            pac_learn_realizable(cls, sample, 0.5, 0.5)

    def test_second_fit_on_the_same_atoms_builds_nothing(self, monkeypatch):
        built = []

        class CountingGraph(OneInclusionGraph):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        class CountingConcept(PartialConcept):
            def __post_init__(self):
                built.append(self.labels)
                super().__post_init__()

        monkeypatch.setattr(learners, "OneInclusionGraph", CountingGraph)
        monkeypatch.setattr(learners, "PartialConcept", CountingConcept)
        # training on x0 = x1 = 0 leaves x2 open, so the fit reads a graph
        cls = concept_class(3, ["000", "001", "010", "100"])
        s = pac_schedule(cls.vc, 0.5, 0.5)
        m = s.total
        first = pac_learn_realizable(cls, labeled_sample([(0, 0), (1, 0)] * (m // 2)), 0.5, 0.5)
        assert built
        built.clear()
        again = labeled_sample([(1, 0)] * 3 + [(0, 0), (1, 0)] * (m // 2))
        assert pac_learn_realizable(cls, again, 0.5, 0.5) is first
        assert built == []

    def test_shared_cache_keeps_classes_apart(self):
        # a store serves one class and refuses another; a fresh store per
        # class, as the benchmark passes to every fit, still works
        first, other = concept_class(3, ["000", "111"]), concept_class(3, ["001", "110"])
        cache = OneInclusionCache()
        train = frozenset({(0, 0)})
        assert cache.hypothesis(first, train).labels == (0, 0, 0)
        assert cache.hypothesis(concept_class(3, ["111", "000"]), train).labels == (0, 0, 0)
        for call in (lambda: cache.hypothesis(other, train), lambda: cache.graph(other, (1,))):
            with pytest.raises(ContractViolation, match="only its first class"):
                call()
        assert OneInclusionCache().hypothesis(other, train).labels == (0, 0, 1)
        sample = labeled_sample([(0, 0)] * 150)
        for cls in (first, other):
            hyp = pac_learn_realizable(cls, sample, 0.5, 0.5, cache=OneInclusionCache())
            assert hyp.labels[0] == 0

    def test_unrealizable_batch_is_not_stored(self):
        cls = concept_class(2, ["00", "11"])
        sample = labeled_sample([(0, 0), (1, 1)] * 75)
        cache = OneInclusionCache()
        for _ in range(2):
            with pytest.raises(ContractViolation, match="not realizable"):
                pac_learn_realizable(cls, sample, 0.5, 0.5, cache=cache)
            assert cache._hypotheses == {}


class TestAlphaBoost:
    def test_consistent_on_simple_sample(self):
        cls = concept_class(3, ["000", "111", "0*1"])
        sample = labeled_sample([(0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1), (0, 1), (1, 1)])
        hyp, comp = alpha_boost_compress(cls, sample)
        assert hyp.sample_error(sample) == 0
        k = boosting_round_size(vc_dimension(cls))
        assert comp.size <= k * boosting_round_cap(len(sample)) + len(comp.bits)

    def test_single_point_sample(self):
        cls = concept_class(2, ["01", "10"])
        sample = labeled_sample([(0, 0)])
        hyp, comp = alpha_boost_compress(cls, sample)
        assert hyp.labels[0] == 0
        k = boosting_round_size(vc_dimension(cls))
        assert len(comp.subsample) == k  # one round
        assert comp.bits == (1,)

    def test_unrealizable_sample_rejected(self):
        cls = concept_class(2, ["00"])
        with pytest.raises(ContractViolation):
            alpha_boost_compress(cls, labeled_sample([(0, 1)]))

    @settings(max_examples=15, deadline=None)
    @given(classes(min_n=2, max_n=4, max_size=8))
    def test_round_trip_on_all_short_samples(self, cls):
        for sample in realizable_samples(cls, 3):
            hyp, comp = alpha_boost_compress(cls, sample)
            rebuilt = reconstruct(cls, comp)
            assert rebuilt == hyp
            assert rebuilt.sample_error(sample) == 0

    def test_reconstruct_reuses_the_boosting_graphs(self, monkeypatch):
        built = []

        class CountingGraph(OneInclusionGraph):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(learners, "OneInclusionGraph", CountingGraph)
        # training on x0 = x1 = 0 leaves x2 open, so prediction there reads a graph
        cls = concept_class(3, ["000", "001", "010", "100"])
        sample = labeled_sample([(0, 0), (1, 0)])
        _, comp = alpha_boost_compress(cls, sample)
        assert built
        built.clear()
        reconstruct(cls, comp)
        assert built == []

    def test_weights_rescale_only_above_1e250(self):
        # the one pair is missed in round 1 only; its weight is then exactly
        # step, and round 2 sees it rescaled to 1 only when step > 1e250
        for step, seen in ((1e250, 1e250), (2e250, 1.0)):
            weights = []

            def weak(w, t):
                weights.append(list(w))
                return [int(t > 1)]

            learners.boost_to_consistency(1, [(0, 1)], weak, step, cap=3)
            assert weights[1] == [seen]

    def test_weak_draw_at_exactly_a_third_is_accepted(self, monkeypatch):
        # every hypothesis misses one of three equal pairs: error exactly 1/3
        cls = concept_class(3, ["000", "111"])
        pairs = [(0, 0), (1, 0), (2, 1)]
        monkeypatch.setattr(
            learners, "materialize_transductive", lambda cls, train: PartialConcept((0, 0, 0))
        )
        rng, replay = random.Random(5), random.Random(5)
        _, train = learners._weak_hypothesis(cls, pairs, [1.0] * 3, 2, rng)
        assert train == labeled_sample(replay.choices(pairs, weights=[1.0] * 3, k=2))
        assert rng.getstate() == replay.getstate()  # the first draw was taken
        monkeypatch.setattr(learners, "WEAK_DRAWS", 0)  # the exhaustive search alone
        _, train = learners._weak_hypothesis(cls, pairs, [1.0] * 3, 2, rng)
        assert train == labeled_sample([(0, 0), (0, 0)])

    def test_round_trip_every_realizable_five_point_sample(self):
        cls = concept_class(5, ["00000", "11111", "01*10", "1*0*1", "00110"])
        count = 0
        for sample in realizable_samples(cls, 5):
            _, comp = alpha_boost_compress(cls, sample)
            assert reconstruct(cls, comp).sample_error(sample) == 0
            count += 1
        assert count >= 90  # the sweep must actually cover the sample space


class TestReconstruct:
    def test_majority_ties_go_to_zero(self):
        assert learners.majority_vote((0, 1, 2), 2) == PartialConcept((0, 0, 1))

    def test_two_rounds_that_disagree_rebuild_zero(self):
        # round 0 trains on x0 = 0 and predicts 00, round 1 on x0 = 1 and
        # predicts 11: one vote each way at both points
        cls = concept_class(2, ["00", "11"])
        k = boosting_round_size(cls.vc)
        comp = CompressionOutput(((0, 0),) * k + ((0, 1),) * k, (1, 0))
        assert reconstruct(cls, comp) == PartialConcept((0, 0))

    def test_empty_payload_for_singleton_class(self):
        cls = concept_class(3, ["010"])
        comp = ld_compress(cls, labeled_sample([(0, 0), (1, 1)]))
        assert comp.subsample == ()
        assert reconstruct(cls, comp) == PartialConcept((0, 1, 0))

    def test_corrupted_bits_raise_parse_error(self):
        cls = concept_class(2, ["01", "10"])
        sample = labeled_sample([(0, 0), (1, 1)])
        _, comp = alpha_boost_compress(cls, sample)
        bad = CompressionOutput(comp.subsample, comp.bits + (1,))
        with pytest.raises(CompressionFormatError):
            reconstruct(cls, bad)

    def test_non_binary_bits_rejected(self):
        cls = concept_class(2, ["01"])
        with pytest.raises(CompressionFormatError):
            reconstruct(cls, CompressionOutput(((0, 0),), (2,)))

    @pytest.mark.parametrize("bits", [(), (1,)], ids=["kept-set", "boosting"])
    @pytest.mark.parametrize("x, y", [(-1, 1), (3, 0)], ids=["negative", "past-domain"])
    def test_payload_point_outside_the_domain_rejected(self, bits, x, y):
        cls = concept_class(3, ["001", "110"])
        with pytest.raises(CompressionFormatError, match=rf"entry \({x}, {y}\)"):
            reconstruct(cls, CompressionOutput(((x, y),), bits))


class TestLdCompress:
    def test_two_constants_all_ones(self):
        cls = concept_class(3, ["000", "111"])
        sample = labeled_sample([(0, 1), (1, 1), (2, 1)])
        comp = ld_compress(cls, sample)
        assert comp.subsample == ((0, 1),)
        assert comp.size == 1 == littlestone_dimension(cls)

    def test_sample_already_predicted_keeps_nothing(self):
        cls = concept_class(2, ["00", "11"])
        sample = labeled_sample([(0, 0), (1, 0)])
        assert ld_compress(cls, sample).subsample == ()

    @settings(max_examples=25, deadline=None)
    @given(classes(min_n=2, max_n=4, max_size=10))
    def test_size_bounded_by_ld_and_round_trips(self, cls):
        ld = littlestone_dimension(cls)
        for sample in realizable_samples(cls, 4):
            comp = ld_compress(cls, sample)
            assert comp.size <= ld
            assert reconstruct(cls, comp).sample_error(sample) == 0

    def test_wrong_soa_fails_instead_of_looping(self, monkeypatch):
        def smaller_ld(soa, mask, x):  # the label whose subclass has the smaller LD
            m0, m1 = (m & mask for m in soa.packed.label_masks[x])
            ld0 = soa.solver.ld(m0) if m0 else -1
            ld1 = soa.solver.ld(m1) if m1 else -1
            return 0 if ld0 < ld1 else 1

        monkeypatch.setattr(Soa, "__call__", smaller_ld)
        cls = concept_class(3, ["000", "111"])
        sample = labeled_sample([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(AssertionError, match="Littlestone dimension"):
            ld_compress(cls, sample)


class TestAgnosticLearn:
    def test_realizable_sample_fits_exactly(self):
        cls = concept_class(2, ["01"])
        sample = labeled_sample([(0, 0), (1, 1), (0, 0)])
        hyp, report = agnostic_learn(cls, sample)
        assert report.hypothesis_error == 0
        assert report.class_error == 0

    def test_matches_class_optimum_under_noise(self):
        cls = concept_class(2, ["00"])
        sample = labeled_sample([(0, 0), (1, 1), (1, 0)])
        hyp, report = agnostic_learn(cls, sample)
        assert hyp == PartialConcept((0, 0))
        assert report.hypothesis_error == Fraction(1, 3) == report.class_error

    def test_fit_check_raises(self, monkeypatch):
        # a boosted fit that misses both kept pairs, where the class errs on none
        misfit = PartialConcept((1, 0))
        monkeypatch.setattr(learners, "alpha_boost_compress", lambda *a, **kw: (misfit, None))
        cls = concept_class(2, ["01"])
        with pytest.raises(AssertionError, match="err at most where the class does"):
            agnostic_learn(cls, labeled_sample([(0, 0), (1, 1)]))

    def test_delta_one_accepted(self):
        cls = concept_class(2, ["01"])
        hyp, report = agnostic_learn(cls, labeled_sample([(0, 0), (1, 1)]), delta=1.0)
        assert hyp == PartialConcept((0, 1)) and report.hypothesis_error == 0

    def test_nothing_realizable_returns_zeros(self):
        cls = concept_class(2, ["**"])
        sample = labeled_sample([(0, 1), (1, 1)])
        hyp, report = agnostic_learn(cls, sample)
        assert hyp == PartialConcept((0, 0))
        assert report.kept == 0

    @settings(max_examples=20, deadline=None)
    @given(classes(min_n=2, max_n=4, max_size=8))
    def test_never_worse_than_class(self, cls):
        rng = random.Random(3)
        pairs = [
            (rng.randrange(cls.domain_size), rng.randint(0, 1)) for _ in range(8)
        ]
        hyp, report = agnostic_learn(cls, labeled_sample(pairs))
        assert report.hypothesis_error <= report.class_error <= report.bound

    def test_monte_carlo_generalization_under_noise(self):
        # noisy source: the learner's population error should stay within the
        # deviation bound of the class's expected best fit (generous slack)
        cls = concept_class(2, ["00", "11"])
        dist = uniform_on([(0, 0), (1, 0), (0, 1)])  # label noise at point 0
        m, delta = 60, 0.1
        rng = random.Random(17)
        trials = 200
        err_sum = Fraction(0)
        fit_sum = Fraction(0)
        bound_gap = None
        for _ in range(trials):
            sample = dist.sample(rng, m)
            hyp, report = agnostic_learn(cls, sample, delta=delta, seed=1)
            err_sum += sum(
                w for (x, y), w in dist.atoms if hyp.labels[x] != y
            )
            fit_sum += report.class_error
            bound_gap = report.bound - float(report.class_error)
        mean_err = err_sum / trials
        mean_fit = fit_sum / trials
        sigma = math.sqrt(0.25 / trials)
        assert float(mean_err) <= float(mean_fit) + bound_gap + 3 * sigma
