import math
import random
import statistics
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcl import dimensions
from pcl.core import STAR, ContractViolation, concept_class, min_mistakes
from pcl.dimensions import littlestone_dimension, measure_report, verify_tree
from pcl.experiments import _ftl_mistakes
from pcl.online import (
    MAX_EXPERTS,
    AgnosticOnlineLearner,
    Soa,
    experts_aggregate,
    littlestone_tree,
    play_sequence,
    tree_adversary,
)

from _oracles import follow_the_leader_mistakes, tree_game_by_enumeration
from _strategies import classes, classes_with_samples


def full_cube(n):
    return concept_class(n, ["".join(b) for b in product("01", repeat=n)])


def constant_learner(bit):
    return lambda mask, x: bit


class TestSoa:
    def test_tie_breaks_to_zero(self):
        cls = concept_class(3, ["000", "111"])
        assert Soa(cls)(cls.packed.full, 0) == 0

    def test_follows_the_surviving_concept(self):
        cls = concept_class(3, ["000", "111"])
        assert Soa(cls)(cls.packed.mask_of([(0, 1)]), 1) == 1

    @settings(max_examples=40, deadline=None)
    @given(classes(max_n=5, max_size=12))
    def test_mistakes_bounded_by_ld(self, cls):
        ld = littlestone_dimension(cls)
        rng = random.Random(5)
        soa = Soa(cls)
        for h in list(cls.concepts)[:4]:
            supp = h.support()
            if not supp:
                continue
            seq = [(x, h[x]) for x in rng.choices(supp, k=2 * cls.domain_size)]
            assert play_sequence(cls, soa, seq).mistakes <= ld

    def test_exhaustive_realizable_sequences(self):
        cls = concept_class(3, ["01*", "*10", "110"])
        ld = littlestone_dimension(cls)
        soa = Soa(cls)
        for h in cls:
            supp = h.support()
            for pts in product(supp, repeat=3):
                seq = [(x, h[x]) for x in pts]
                assert play_sequence(cls, soa, seq).mistakes <= ld


class TestPlaySequence:
    @settings(max_examples=80, deadline=None)
    @given(classes_with_samples(max_len=8), st.integers(-1, 11))
    @example((concept_class(2, ["0*", "11"]), ((1, 0), (0, 0))), -1)
    @example((concept_class(2, ["0*", "11"]), ((0, 0), (1, 1))), 1)
    def test_best_in_class_is_min_mistakes(self, drawn, target):
        # target -1 keeps the drawn labels; otherwise the sequence takes the
        # labels of concept target (mod |H|) on its defined points
        cls, pairs = drawn
        if target >= 0:
            h = cls.concepts[target % len(cls.concepts)]
            pairs = tuple((x, h[x]) for x, _ in pairs if h[x] != STAR)
        transcript = play_sequence(cls, Soa(cls), pairs)
        assert transcript.best_in_class == min_mistakes(cls, pairs)
        assert target < 0 or transcript.best_in_class == 0

    def test_out_of_domain_point_raises_before_any_round(self):
        cls = concept_class(2, ["01", "10"])
        asked = []

        def spy(mask, x):
            asked.append(x)
            return 0

        with pytest.raises(ValueError, match="point index 2"):
            play_sequence(cls, spy, [(0, 0), (1, 1), (2, 0)])
        assert asked == []


class TestEmptySubclass:
    """The empty subclass has LD -1, below every nonempty one, so SOA and the
    tree builder need no emptiness branch of their own."""

    def test_solver_gives_minus_one(self):
        assert concept_class(1, ["1"]).ld_solver.ld(0) == -1

    def test_soa_never_predicts_a_label_no_concept_takes(self):
        cls = concept_class(1, ["1"])
        assert Soa(cls)(cls.packed.full, 0) == 1

    def test_tree_skips_a_point_with_an_empty_side(self):
        cls = concept_class(2, ["00", "01"])
        tree = littlestone_tree(cls, 1)
        assert tree.point == 1 and verify_tree(cls, tree)


class TestLittlestoneTree:
    def test_full_cube_tree(self):
        tree = littlestone_tree(full_cube(3), 3)
        assert {len(path) for path in tree.paths()} == {3}
        assert verify_tree(full_cube(3), tree)

    def test_two_constants_single_node(self):
        tree = littlestone_tree(concept_class(3, ["000", "111"]), 1)
        assert tree.zero is None and tree.one is None

    def test_depth_zero_is_empty(self):
        assert littlestone_tree(concept_class(2, ["00"]), 0) is None

    def test_too_deep_rejected(self):
        with pytest.raises(ContractViolation):
            littlestone_tree(concept_class(2, ["00"]), 1)

    @settings(max_examples=40, deadline=None)
    @given(classes(max_n=5, max_size=12))
    def test_extracted_trees_verify(self, cls):
        d = littlestone_dimension(cls)
        assert verify_tree(cls, littlestone_tree(cls, d))

    def test_ld_readers_share_one_memo(self, monkeypatch):
        built = []

        class CountingSolver(dimensions.LdSolver):
            def __init__(self, cls):
                built.append(cls)
                super().__init__(cls)

        monkeypatch.setattr(dimensions, "LdSolver", CountingSolver)
        cls = full_cube(3)
        report = measure_report(cls, "ld", witness=True)
        assert littlestone_tree(cls, report.value) == report.witness
        play_sequence(cls, Soa(cls), [(0, 1), (1, 0)])
        AgnosticOnlineLearner(cls, T=2).run([(0, 1), (2, 0)])
        assert len(built) == 1


class TestMistakeAdversary:
    """The tree adversary at T = d: one fair coin per tree level."""

    def test_exact_half_per_round_for_constant_learner(self):
        cls = concept_class(2, ["01", "10"])
        adv = tree_adversary(cls, 1, 1)
        half = Fraction(1, 2)
        assert tree_game_by_enumeration(cls, adv, constant_learner(0)) == (half, half)
        assert adv.expected_regret() == half

    def test_depth_zero_empty_game(self):
        cls = concept_class(2, ["00"])
        adv = tree_adversary(cls, 0, 0)
        assert adv.generate(random.Random(0)) == []
        assert tree_game_by_enumeration(cls, adv, constant_learner(0)) == (0, 0)
        assert adv.expected_regret() == 0

    def test_exact_half_d_for_soa_on_cube(self):
        cls = full_cube(3)
        adv = tree_adversary(cls, 3, 3)
        # fair-coin labels make every deterministic learner miss half the time
        three_halves = Fraction(3, 2)
        assert tree_game_by_enumeration(cls, adv, Soa(cls)) == (three_halves, three_halves)
        assert adv.expected_regret() == Fraction(3, 2)

    def test_monte_carlo_matches_exact(self):
        cls = full_cube(3)
        adv = tree_adversary(cls, 3, 3)
        rng = random.Random(11)
        soa = Soa(cls)
        mean = sum(
            play_sequence(cls, soa, adv.generate(rng)).mistakes for _ in range(600)
        ) / 600
        assert abs(mean - 1.5) <= 3 * math.sqrt(0.75 / 600) + 0.05

    @settings(max_examples=60, deadline=None)
    @given(
        classes(max_n=5, max_size=12),
        st.integers(0, 4),
        st.functions(like=lambda mask, x: 0, returns=st.integers(0, 1), pure=True),
        st.integers(0, 2**32 - 1),
    )
    # the root's two children ask different points (1 and 2)
    @example(concept_class(3, ["00*", "01*", "1*0", "1*1"]), 2, lambda mask, x: 0, 0)
    @example(full_cube(4), 4, lambda mask, x: mask & 1, 1)
    def test_any_learner_errs_half_the_depth_on_a_coin_branch(
        self, cls, d, learner, seed
    ):
        d = min(d, littlestone_dimension(cls))
        adv = tree_adversary(cls, d, d)
        assert tree_game_by_enumeration(cls, adv, learner)[0] == Fraction(d, 2)
        coins = random.Random(seed)
        branch, node = [], adv.tree
        for _ in range(d):
            y = coins.getrandbits(1)
            branch.append((node.point, y))
            node = node.one if y else node.zero
        assert adv.generate(random.Random(seed)) == branch


class TestAdversaryLaw:
    """Fair-coin labels give every deterministic learner T/2 expected mistakes
    and the same expected regret, the adversary's closed form."""

    def test_block_of_three(self):
        # E|B - 3/2| for B ~ Bin(3, 1/2): (1 * 3/2 + 3 * 1/2 + 3 * 1/2 + 1 * 3/2) / 8
        adv = tree_adversary(concept_class(1, ["0", "1"]), 1, 3)
        assert adv.expected_regret() == Fraction(3, 4)

    @settings(max_examples=40, deadline=None)
    @given(
        classes(max_n=5),
        st.integers(0, 4),
        st.integers(0, 6),
        st.functions(like=lambda mask, x: 0, returns=st.integers(0, 1), pure=True),
    )
    @example(concept_class(1, ["0", "1"]), 1, 6, lambda mask, x: mask & 1)
    @example(full_cube(3), 3, 5, lambda mask, x: x & 1)  # blocks of 2, 2 and 4
    def test_enumeration_meets_the_closed_form(self, cls, d, extra, learner):
        d = min(d, littlestone_dimension(cls))
        T = d + extra if d else 0
        adv = tree_adversary(cls, d, T)
        law = (Fraction(T, 2), adv.expected_regret())
        for player in (Soa(cls), constant_learner(0), constant_learner(1), learner):
            assert tree_game_by_enumeration(cls, adv, player) == law


class TestExperts:
    def test_single_expert_zero_regret(self):
        res = experts_aggregate([[0.3], [0.7]], [0, 1])
        assert res.regret == pytest.approx(0.0)
        assert res.mixtures[0] == pytest.approx(0.3)

    def test_two_experts_one_round(self):
        res = experts_aggregate([[0.0, 1.0]], [1.0])
        assert res.total_loss == pytest.approx(0.5)
        assert res.best_expert_loss == 0.0
        assert res.regret <= math.sqrt(0.5 * math.log(2))

    def test_bound_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            T = int(rng.integers(1, 65))
            N = int(rng.integers(1, 17))
            preds = rng.random((T, N))
            ys = rng.random(T)
            res = experts_aggregate(preds, ys)
            assert res.regret <= res.regret_bound + 1e-9

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            experts_aggregate([[1.5]], [0.0])
        with pytest.raises(ValueError):
            experts_aggregate([[0.5]], [0.0, 1.0])


class TestAgnosticOnline:
    def test_expert_count_and_bound_tiny(self):
        cls = concept_class(1, ["0", "1"])
        learner = AgnosticOnlineLearner(cls, T=1)
        assert learner.ld == 1
        assert learner.n_experts == 2
        assert learner.regret_bound() == pytest.approx(math.sqrt(0.5 * math.log(2)))

    def test_budget_error(self):
        cls = full_cube(3)  # LD 3: sum of C(100, i) for i <= 3 experts
        assert sum(math.comb(100, i) for i in range(4)) > MAX_EXPERTS
        with pytest.raises(ValueError, match="budget"):
            AgnosticOnlineLearner(cls, T=100)

    def test_regret_bound_on_fixed_sequences(self):
        cls = concept_class(3, ["000", "111", "01*"])
        T = 8
        learner = AgnosticOnlineLearner(cls, T=T)
        rng = random.Random(9)
        for _ in range(12):
            seq = [(rng.randrange(3), rng.randint(0, 1)) for _ in range(T)]
            res = learner.run(seq)
            assert res.expected_mistakes <= res.best_in_class + res.regret_bound + 1e-9

    def test_realizable_sequence_mistakes_small(self):
        cls = concept_class(3, ["000", "111"])
        T = 8
        learner = AgnosticOnlineLearner(cls, T=T)
        seq = [(x % 3, 1) for x in range(T)]
        res = learner.run(seq)
        ld = littlestone_dimension(cls)
        assert res.expected_mistakes <= ld + res.regret_bound + 1e-9


class TestRegretAdversary:
    def test_single_round(self):
        cls = concept_class(1, ["0", "1"])
        adv = tree_adversary(cls, 1, 1)
        seq = adv.generate(random.Random(0))
        assert len(seq) == 1

    def test_block_structure(self):
        cls = full_cube(2)
        adv = tree_adversary(cls, 2, 7)
        assert adv.block_bounds() == [(0, 3), (3, 7)]
        seq = adv.generate(random.Random(1))
        xs = [x for x, _ in seq]
        assert len(set(xs[:3])) == 1 and len(set(xs[3:])) == 1

    def test_even_block_with_equal_counts_goes_to_zero(self):
        # the root's two children ask different points (1 and 2)
        cls = concept_class(3, ["00*", "01*", "1*0", "1*1"])
        adv = tree_adversary(cls, 2, 4)
        zero, one = adv.tree.zero.point, adv.tree.one.point
        assert zero != one
        assert [x for x, _ in adv.sequence([0, 1, 1, 1])][2:] == [zero, zero]
        assert [x for x, _ in adv.sequence([1, 1, 0, 0])][2:] == [one, one]

    def test_horizon_shorter_than_depth_rejected(self):
        with pytest.raises(ContractViolation):
            tree_adversary(full_cube(2), 2, 1)

    def test_mean_regret_against_baselines(self):
        cls = concept_class(1, ["0", "1"])
        adv = tree_adversary(cls, 1, 100)
        law = float(adv.expected_regret())
        rng = random.Random(2)
        zero = constant_learner(0)
        for mistakes in (
            lambda seq: play_sequence(cls, zero, seq).mistakes,
            follow_the_leader_mistakes,
        ):
            regrets = []
            for _ in range(400):
                seq = adv.generate(rng)
                regrets.append(mistakes(seq) - min_mistakes(cls, seq))
            sigma = statistics.stdev(regrets) / math.sqrt(len(regrets))
            assert abs(statistics.fmean(regrets) - law) <= 3 * sigma

    def test_best_in_class_block_deficit(self):
        # within one block the best concept tracks the majority label:
        # expected mistakes <= k/2 - sqrt(k/8)
        cls = concept_class(1, ["0", "1"])
        k = 64
        adv = tree_adversary(cls, 1, k)
        rng = random.Random(3)
        trials = 800
        total = 0
        for _ in range(trials):
            seq = adv.generate(rng)
            total += min_mistakes(cls, seq)
        mean = total / trials
        assert mean <= k / 2 - math.sqrt(k / 8) + 3 * math.sqrt(k / trials)


class TestFollowTheLeaderCount:
    """The agnostic-online suite counts FTL mistakes on a whole label matrix at once."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda T: st.lists(
                st.lists(st.integers(0, 1), min_size=T, max_size=T), min_size=1, max_size=6
            )
        )
    )
    @example([[1] * 300, [0, 1] * 150, [1] * 200 + [0] * 100])  # counts past 255
    def test_rows_match_definition(self, rows):
        # uint8 rows, as the suite unpacks its coins
        want = [follow_the_leader_mistakes([(0, y) for y in row]) for row in rows]
        assert _ftl_mistakes(np.array(rows, dtype=np.uint8)).tolist() == want
