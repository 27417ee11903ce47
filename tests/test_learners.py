import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
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
from pcl.experiments import ExperimentConfig, run_experiment
from pcl.learners import (
    CompressionFormatError,
    CompressionOutput,
    Hypothesis,
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

from _oracles import one_inclusion_by_definition, pac_by_definition, vc_by_definition
from _strategies import classes, classes_with_blank_columns
import random


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
    @given(classes_with_blank_columns(), st.data())
    def test_predictor_matches_definition(self, cls, data):
        # training points repeat and are drawn from one concept's support, so
        # every domain point is either a training point or a fresh test point
        n = cls.domain_size
        h = data.draw(st.sampled_from(cls.concepts))
        xs = data.draw(st.lists(st.integers(0, n - 1), max_size=7))
        train = labeled_sample((x, h[x]) for x in xs if h[x] != STAR)
        preds = tuple(one_inclusion_predict(cls, train, x) for x in range(n))
        assert preds == tuple(
            one_inclusion_by_definition(cls, train.pairs, x) for x in range(n)
        )
        assert materialize_transductive(cls, train).labels == preds
        for outside in (-1, n):
            with pytest.raises(ValueError, match=f"test point {outside} "):
                one_inclusion_predict(cls, train, outside)

    def test_loo_cross_check_raises(self, monkeypatch):
        monkeypatch.setattr(learners, "loo_error", lambda *args: Fraction(-1))
        cfg = ExperimentConfig("one-inclusion-loo", seed=0, params={"classes": 1})
        with pytest.raises(AssertionError, match="literal leave-one-out"):
            run_experiment(cfg)

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

    @settings(max_examples=60, deadline=None)
    @given(classes(min_n=2, max_n=4, max_size=8), st.data())
    def test_matches_the_batch_by_batch_wrapper(self, cls, data):
        # batches repeat points of one concept's support; validation pairs
        # and the ignored tail may carry any label, so scores vary and tie
        n = cls.domain_size
        h = data.draw(st.sampled_from([h for h in cls.concepts if h.support()] or [None]))
        if h is None:
            return
        eps = data.draw(st.sampled_from((0.6, 0.9)))
        delta = data.draw(st.sampled_from((0.5, 1.0)))
        s = pac_schedule(cls.vc, eps, delta)
        seen = st.sampled_from([(x, h[x]) for x in h.support()])
        anything = st.tuples(st.integers(0, n - 1), st.sampled_from((0, 1)))
        pairs = []
        for _ in range(s.batches):
            pairs += data.draw(st.lists(seen, min_size=s.batch_size, max_size=s.batch_size))
        size = s.validation_size
        pairs += data.draw(st.lists(anything, min_size=size, max_size=size + 3))
        hyp = pac_learn_realizable(cls, labeled_sample(pairs), eps, delta)
        assert hyp.labels == pac_by_definition(cls, pairs, eps, delta)

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

        class CountingHypothesis(Hypothesis):
            def __post_init__(self):
                built.append(self.labels)
                super().__post_init__()

        monkeypatch.setattr(learners, "OneInclusionGraph", CountingGraph)
        monkeypatch.setattr(learners, "Hypothesis", CountingHypothesis)
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

    def test_round_trip_every_realizable_five_point_sample(self):
        cls = concept_class(5, ["00000", "11111", "01*10", "1*0*1", "00110"])
        count = 0
        for sample in realizable_samples(cls, 5):
            _, comp = alpha_boost_compress(cls, sample)
            assert reconstruct(cls, comp).sample_error(sample) == 0
            count += 1
        assert count >= 90  # the sweep must actually cover the sample space


class TestReconstruct:
    def test_empty_payload_for_singleton_class(self):
        cls = concept_class(3, ["010"])
        comp = ld_compress(cls, labeled_sample([(0, 0), (1, 1)]))
        assert comp.subsample == ()
        assert reconstruct(cls, comp) == Hypothesis((0, 1, 0))

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
        assert hyp == Hypothesis((0, 0))
        assert report.hypothesis_error == Fraction(1, 3) == report.class_error

    def test_fit_check_raises(self, monkeypatch):
        monkeypatch.setattr(learners, "best_empirical_error", lambda *args: Fraction(-1))
        cls = concept_class(2, ["01"])
        with pytest.raises(AssertionError, match="err at most where the class does"):
            agnostic_learn(cls, labeled_sample([(0, 0), (1, 1)]))

    def test_nothing_realizable_returns_zeros(self):
        cls = concept_class(2, ["**"])
        sample = labeled_sample([(0, 1), (1, 1)])
        hyp, report = agnostic_learn(cls, sample)
        assert hyp == Hypothesis((0, 0))
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
