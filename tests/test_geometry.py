import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings

from pcl import geometry
from pcl.core import ContractViolation, labeled_sample, total_class
from pcl.geometry import (
    boosting_disambiguate_sample,
    certify_orthonormal_labelings,
    erm_failure_simulate,
    greedy_packing,
    hull_distance,
    is_gamma_separated,
    min_enclosing_ball,
    min_norm_point,
    orthonormal_points,
    perceptron_run,
    separability_report,
    unit_grid,
    voronoi_disambiguate,
    weak_learning_game,
)

from _oracles import (
    brute_force_max_packing,
    enclosing_ball_by_definition,
    game_by_fraction_tableau,
    greedy_packing_by_loops,
    min_norm_point_by_definition,
)
from _strategies import games, point_clouds


class TestMinEnclosingBall:
    def test_two_points(self):
        c, r = min_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(c, [1.0, 0.0]) and r == pytest.approx(1.0)

    def test_single_point(self):
        c, r = min_enclosing_ball(np.array([[3.0, 4.0]]))
        assert r == pytest.approx(0.0)

    def test_no_point_rejected(self):
        with pytest.raises(ValueError, match="need at least one point"):
            min_enclosing_ball(np.zeros((0, 2)))

    def test_square(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        _, r = min_enclosing_ball(pts)
        assert r == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_random_points_contained_and_tight(self):
        rng = np.random.default_rng(1)
        clouds = [rng.normal(size=(20, dim)) for dim in (2, 3, 5, 9)]
        clouds.append(np.random.default_rng(2).normal(size=(400, 2)))
        for pts in clouds:
            c, r = min_enclosing_ball(pts)
            dists = np.linalg.norm(pts - c, axis=1)
            assert dists.max() <= r + 1e-8
            # at least one point sits on the boundary
            assert dists.max() >= r - 1e-6

    @settings(max_examples=200, deadline=None)
    @given(point_clouds())
    # the last point enters in the affine hull of a full corral: r is 1.25
    @example(np.array([[0, 2], [0, 0], [1, 0], [2, 1]], dtype=float))
    # at this scale rounding leaves the gap above its tolerance while the
    # point of least slope is already in the corral, which ends the run
    @example(100.0 * np.array(
        [[-1, 4, 1], [-8, 1, -1], [-6, -6, 1], [-7, 3, -4], [-8, 8, -6],
         [-6, -4, -8], [-3, 2, -3], [7, -3, 8], [-2, -2, 7]], dtype=float,
    ))
    def test_matches_definition(self, pts):
        c, r = min_enclosing_ball(pts)
        ref_c, ref_r = enclosing_ball_by_definition(pts)
        scale = 1.0 + float(np.abs(pts).max())
        assert r == pytest.approx(ref_r, abs=1e-9 * scale)
        assert np.allclose(c, ref_c, atol=1e-7 * scale)

    def test_unconverged_corral_raises(self, monkeypatch):
        # two steps leave this cloud's ball at radius 4.316 against 2.973;
        # an exhausted step budget is an error, not an answer
        pts = np.random.default_rng(0).normal(size=(30, 5)) + 2
        monkeypatch.setattr(geometry, "WOLFE_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="WOLFE_MAX_ITER = 2"):
            min_enclosing_ball(pts)


class TestHullDistance:
    def test_separated_segments(self):
        gap, z = hull_distance(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        assert gap == pytest.approx(2.0)
        assert np.allclose(z, [2.0, 0.0])

    def test_intersecting_hulls(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0]])
        b = np.array([[1.0, -1.0], [1.0, 1.0]])
        gap, _ = hull_distance(a, b)
        assert gap == pytest.approx(0.0, abs=1e-6)

    def test_empty_side_is_infinite(self):
        gap, z = hull_distance(np.zeros((0, 2)), np.array([[1.0, 1.0]]))
        assert gap == math.inf and z is None

    def test_min_norm_point_matches_projection(self):
        # the line through (1,1) and (3,-1) is closest to the origin at (1,1),
        # which is also in the hull, so that endpoint is the answer
        pts = np.array([[1.0, 1.0], [3.0, -1.0]])
        z = min_norm_point(pts)
        assert np.allclose(z, [1.0, 1.0], atol=1e-9)

    def test_min_norm_point_interior_segment(self):
        # symmetric segment: the projection (0, 1) lies strictly inside
        pts = np.array([[-1.0, 1.0], [1.0, 1.0]])
        z = min_norm_point(pts)
        assert np.allclose(z, [0.0, 1.0], atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(point_clouds())
    def test_min_norm_point_matches_definition(self, pts):
        z = min_norm_point(pts)
        scale = 1.0 + float(np.abs(pts).max())
        assert np.allclose(z, min_norm_point_by_definition(pts), atol=1e-7 * scale)

    def test_min_norm_point_optimality_certificate(self):
        # z is optimal iff no vertex improves the supporting hyperplane:
        # min_p z.p >= z.z (within roundoff)
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = int(rng.integers(2, 25))
            d = int(rng.integers(1, 7))
            pts = rng.normal(size=(m, d)) + rng.normal(size=d)
            z = min_norm_point(pts)
            scale = max(1.0, float(np.abs(pts).max()) ** 2)
            assert float((pts @ z).min()) >= float(z @ z) - 1e-8 * scale

    def test_meb_optimality_certificate(self):
        # optimal center lies in the hull of the points touching the sphere
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = int(rng.integers(2, 20))
            d = int(rng.integers(1, 6))
            pts = rng.normal(size=(m, d)) * 2.0
            c, r = min_enclosing_ball(pts)
            dists = np.linalg.norm(pts - c, axis=1)
            support = pts[dists >= r - 1e-6 * max(1.0, r)]
            gap = np.linalg.norm(min_norm_point(support - c))
            assert gap <= 1e-6 * max(1.0, r)


class TestSeparability:
    PAIR = np.array([[1.0, 0.0], [-1.0, 0.0]])

    def test_unit_margin_pair(self):
        assert separability_report(self.PAIR, [1, 0], 1.0, 1.0).separable

    def test_slightly_larger_gamma_fails(self):
        report = separability_report(self.PAIR, [1, 0], 1.0, 1.01)
        assert not report.separable

    def test_single_label_always_separable_within_ball(self):
        report = separability_report(np.array([[0.2, 0.1]]), [1], 1.0, 0.5)
        assert report.separable and report.hull_gap == math.inf

    def test_ball_violation_detected(self):
        points = np.array([[5.0, 0.0], [-5.0, 0.0]])
        assert not separability_report(points, [1, 0], 1.0, 1.0).separable

    @pytest.mark.parametrize(
        "points, labels, radius, gamma, named",
        [
            ([[math.nan, 0.0], [-1.0, 0.0]], [1, 0], 1.0, 1.0, "finite"),
            ([[1.0, 0.0], [-1.0, 0.0]], [1, 2], 1.0, 1.0, "bits"),
            ([[1.0, 0.0], [-1.0, 0.0]], [1, 0.5], 1.0, 1.0, "bits"),
            ([[1.0, 0.0], [-1.0, 0.0]], [1], 1.0, 1.0, "number of points"),
            ([[1.0, 0.0], [-1.0, 0.0]], [1, 0], 0.0, 1.0, "radius"),
            ([[1.0, 0.0], [-1.0, 0.0]], [1, 0], 1.0, math.inf, "gamma"),
            ([1.0, -1.0], [1, 0], 1.0, 1.0, "(n, D)"),
        ],
    )
    def test_bad_arguments_rejected(self, points, labels, radius, gamma, named):
        with pytest.raises(ContractViolation, match=re.escape(named)):
            separability_report(np.array(points), labels, radius, gamma)


class TestPerceptron:
    def test_simple_pair_cycled(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]] * 10)
        labels = np.array([1, 0] * 10)
        report = perceptron_run(pts, labels)
        assert report.mistakes <= 5
        assert report.mistakes <= report.bound_used

    def test_one_point_with_both_labels_has_no_bound(self):
        # the hulls of the two labels meet, at a gap of exactly 0
        report = perceptron_run(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1, 0]))
        assert report.bound_used == math.inf and not report.converged

    def test_warm_start_makes_no_new_mistakes(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([1, 0])
        first = perceptron_run(np.vstack([pts] * 5), np.tile(labels, 5))
        assert first.converged
        # once the learner is consistent, a longer stream adds no mistakes
        again = perceptron_run(np.vstack([pts] * 10), np.tile(labels, 10))
        assert again.converged and again.mistakes == first.mistakes

    def test_mistakes_bounded_on_shuffled_orthonormal_streams(self):
        pts = orthonormal_points(2.0, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            labels = rng.integers(0, 2, size=len(pts))
            if labels.min() == labels.max():
                continue
            order = rng.permutation(len(pts))
            stream = np.vstack([pts[order]] * 30)
            ys = np.tile(labels[order], 30)
            report = perceptron_run(stream, ys)
            assert report.mistakes <= report.bound_used


class TestOrthonormalInstance:
    def test_point_counts(self):
        assert len(orthonormal_points(1.0, 1.0)) == 1
        assert len(orthonormal_points(2.0, 1.0)) == 4

    def test_family_members_are_separable_datasets(self):
        pts = orthonormal_points(1.0, 1.0)
        labelings = list(product((0, 1), repeat=len(pts)))
        assert len(labelings) == 2
        assert all(separability_report(pts, y, 1.0, 1.0).separable for y in labelings)

    @pytest.mark.parametrize("radius,gamma", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
    def test_shared_ball_verdict_matches_per_dataset_report(self, radius, gamma):
        certs = certify_orthonormal_labelings(radius, gamma)
        pts = orthonormal_points(radius, gamma)
        labelings = list(product((0, 1), repeat=len(pts)))
        assert len(certs) == len(labelings)  # one verdict per labeling, in order
        for cert, labels in zip(certs, labelings):
            report = separability_report(pts, labels, radius, gamma)
            # the witness holds at these (R, gamma): the verdict is the checker's
            assert cert == report.separable
            # the axis family's closed form: p ones and q zeros are
            # R sqrt(1/p + 1/q) apart, so the balanced R = 2 labelings read 4 gamma^2
            p = sum(labels)
            q = len(labels) - p
            if p == 0 or q == 0:
                assert report.hull_gap == math.inf
            else:
                closed = radius**2 * (1 / p + 1 / q)
                assert report.hull_gap**2 == pytest.approx(closed, rel=0, abs=1e-9)

    def test_balanced_axis_labelings_fail_a_larger_gamma(self):
        # at R = 2 and gamma = 1 a balanced labeling has a hull gap of exactly 2
        pts = orthonormal_points(2.0, 1.0)
        labelings = list(product((0, 1), repeat=len(pts)))
        verdicts = [separability_report(pts, y, 2.0, 1.001).separable for y in labelings]
        assert verdicts.count(False) == 6 and verdicts.count(True) == 10
        assert all(ok == (sum(y) != 2) for ok, y in zip(verdicts, labelings))

    @pytest.mark.parametrize("radius,gamma", [(1.0, 1.0), (2.0, 1.0)])
    def test_all_labelings_certified_both_ways(self, radius, gamma):
        certs = certify_orthonormal_labelings(radius, gamma)
        assert certs == [True] * 2 ** len(orthonormal_points(radius, gamma))


def _grid_game_value_oracle(base, sample, step=16):
    """Adversary value over the grid of distributions with denominators `step`.

    Lower-bounds the exact value; for small samples the grid includes the
    optimal distribution because the LP optimum is rational with a small
    denominator.
    """
    pairs = sorted(set(sample.pairs))
    k = len(pairs)
    best = Fraction(0)
    for comp in product(range(step + 1), repeat=k - 1):
        if sum(comp) > step:
            continue
        weights = list(comp) + [step - sum(comp)]
        dist = [Fraction(w, step) for w in weights]
        value = min(
            sum(d for (x, y), d in zip(pairs, dist) if h[x] != y)
            for h in base.concepts
        )
        best = max(best, value)
    return best


class TestWeakLearningGame:
    def test_consistent_base_is_fully_realizable(self):
        base = total_class(2, ["01", "10"])
        sample = labeled_sample([(0, 0), (1, 1)])
        # gamma-realizable at gamma = 1: the value is at most (1 - 1) / 2
        assert weak_learning_game(base, sample).value == 0

    def test_single_hypothesis_with_one_error(self):
        # mass on the erring point drives the single hypothesis to error 1
        base = total_class(2, ["00"])
        sample = labeled_sample([(0, 0), (1, 1)])
        game = weak_learning_game(base, sample)
        assert game.value == 1
        assert game.value > (1 - Fraction(1, 100)) / 2

    def test_opposite_pair_on_one_point(self):
        base = total_class(1, ["0", "1"])
        assert weak_learning_game(base, labeled_sample([(0, 1)])).value <= 0

    def test_empty_sample_rejected(self):
        with pytest.raises(ContractViolation, match="nonempty sample"):
            weak_learning_game(total_class(1, ["0"]), labeled_sample([]))

    @pytest.mark.parametrize(
        "A, named",
        [([[0]], "unbounded game LP"), ([[0.5, 0.25]], "fails its dual certificate")],
        ids=["zero-payoff", "fractional-payoffs"],
    )
    def test_exact_tableau_refuses_a_matrix_off_its_premise(self, A, named):
        # the game shifts every payoff to a positive integer; without that
        # shift the LP is unbounded, and without integers the fraction-free
        # pivots go wrong, which the dual certificate catches
        with pytest.raises(ArithmeticError, match=named):
            geometry._exact_simplex_max(A)

    def test_matched_pennies_value_half(self):
        base = total_class(2, ["01", "10"])
        sample = labeled_sample([(0, 0), (1, 0)])
        game = weak_learning_game(base, sample)
        assert game.value == Fraction(1, 2)
        assert game.value > (1 - Fraction(1, 1000)) / 2

    def test_matches_grid_oracle_on_small_samples(self):
        rng = random.Random(2)
        for _ in range(12):
            n = rng.randint(2, 3)
            rows = {
                "".join(rng.choice("01") for _ in range(n)) for _ in range(3)
            }
            base = total_class(n, sorted(rows))
            pts = rng.sample(range(n), min(n, rng.randint(2, 3)))
            sample = labeled_sample([(x, rng.randint(0, 1)) for x in pts])
            exact = weak_learning_game(base, sample).value
            oracle = _grid_game_value_oracle(base, sample)
            assert oracle <= exact
            assert exact - oracle <= Fraction(1, 8)

    def test_mixture_certifies_value(self):
        base = total_class(2, ["01", "10", "11"])
        sample = labeled_sample([(0, 1), (1, 0)])
        game = weak_learning_game(base, sample)
        worst = max(
            sum(q * col[i] for q, col in zip(game.mixture, game.columns))
            for i in range(2)
        )
        assert worst == game.value

    @settings(max_examples=200, deadline=None)
    @given(games())
    @example((total_class(2, ["01", "10"]), labeled_sample([(0, 0), (1, 0)])))
    @example((total_class(2, ["01", "10"]), labeled_sample([(0, 0), (1, 1)])))
    @example((total_class(3, ["000", "011", "101"]), labeled_sample([(2, 1)])))
    @example((total_class(4, ["0100", "0101", "0110", "0111"]), labeled_sample([(0, 0), (1, 0)])))
    @example(
        (
            total_class(3, ["000", "011", "101", "110"]),
            labeled_sample([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]),
        )
    )
    def test_matches_the_fraction_tableau(self, game):
        # matched pennies, an error-free column, a single pair, a base whose
        # concepts all make one column, and the even-parity base, whose
        # optimal mixtures are many, so Bland's ties pick the one returned
        base, sample = game
        got = weak_learning_game(base, sample)
        assert (got.value, got.mixture, got.columns) == game_by_fraction_tableau(base, sample)

    def test_matches_float_lp_solver(self):
        # independent route: solve max_p min_b error with a float LP
        from scipy.optimize import linprog

        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 4)
            rows = {"".join(rng.choice("01") for _ in range(n)) for _ in range(4)}
            base = total_class(n, sorted(rows))
            pts = rng.sample(range(n), rng.randint(2, n))
            sample = labeled_sample([(x, rng.randint(0, 1)) for x in pts])
            exact = weak_learning_game(base, sample).value

            pairs = sorted(set(sample.pairs))
            cols = sorted(
                {tuple(1 if h[x] != y else 0 for x, y in pairs) for h in base.concepts}
            )
            k = len(pairs)
            # variables: p_1..p_k, v;  maximize v  s.t.  v <= p . err_col
            a_ub = [[-col[i] for i in range(k)] + [1.0] for col in cols]
            res = linprog(
                c=[0.0] * k + [-1.0],
                A_ub=a_ub,
                b_ub=[0.0] * len(cols),
                A_eq=[[1.0] * k + [0.0]],
                b_eq=[1.0],
                bounds=[(0, None)] * k + [(None, None)],
            )
            assert res.status == 0
            assert abs(-res.fun - float(exact)) < 1e-7


class TestBoostingDisambiguation:
    def test_gamma_one_single_hypothesis(self):
        base = total_class(2, ["01", "10"])
        sample = labeled_sample([(0, 0), (1, 1)])
        hyp, report = boosting_disambiguate_sample(base, sample, 1)
        assert report.rounds == 1
        assert hyp.sample_error(sample) == 0

    def test_majority_of_stumps_fits_xor_like_sample(self):
        # single coordinates cannot fit this labeling, a majority can
        base = total_class(3, ["110", "011", "101"])
        sample = labeled_sample([(0, 1), (1, 1), (2, 1)])
        value = weak_learning_game(base, sample).value
        gamma = 1 - 2 * value
        assert gamma == Fraction(1, 3)
        hyp, report = boosting_disambiguate_sample(base, sample, gamma)
        assert hyp.sample_error(sample) == 0
        assert report.rounds <= report.cap

    @pytest.mark.parametrize(
        "pairs, gamma, named",
        [
            ([(0, 0)], 0, r"gamma must lie in \(0, 1\]"),
            ([(0, 0)], Fraction(3, 2), r"gamma must lie in \(0, 1\]"),
            ([], 1, "need a nonempty sample"),
        ],
        ids=["gamma-0", "gamma-3/2", "empty-sample"],
    )
    def test_bad_arguments_rejected(self, pairs, gamma, named):
        base = total_class(2, ["00"])
        with pytest.raises(ContractViolation, match=named):
            boosting_disambiguate_sample(base, labeled_sample(pairs), gamma)

    def test_overstated_gamma_rejected(self):
        base = total_class(2, ["00"])
        sample = labeled_sample([(0, 0), (1, 1)])
        with pytest.raises(ContractViolation):
            boosting_disambiguate_sample(base, sample, Fraction(1, 2))


class TestPackingAndVoronoi:
    def test_interval_points(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        packing = greedy_packing(pts, 1.0)
        assert packing.chosen == (0, 1, 2)
        assert packing.min_pairwise == pytest.approx(0.5)

    def test_single_point(self):
        packing = greedy_packing(np.array([[0.3, 0.4]]), 0.5)
        assert packing.chosen == (0,)
        assert packing.cells == (0,)

    def test_cells_have_small_diameter(self):
        rng = np.random.default_rng(5)
        pts = rng.random((40, 2))
        gamma = 0.3
        packing = greedy_packing(pts, gamma)
        for c in set(packing.cells):
            members = pts[[i for i, ci in enumerate(packing.cells) if ci == c]]
            for a, b in combinations(range(len(members)), 2):
                assert np.linalg.norm(members[a] - members[b]) < gamma

    def test_voronoi_matches_separated_labelings_on_grid(self):
        side = np.linspace(0.0, 1.0, 5)
        grid = np.array([[x, y] for x in side for y in side])
        gamma = 0.6
        packing = greedy_packing(grid, gamma)
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            size = rng.randint(1, 4)
            idx = rng.sample(range(len(grid)), size)
            labeled = [(i, rng.randint(0, 1)) for i in idx]
            if not is_gamma_separated(grid, labeled, gamma):
                continue
            out = voronoi_disambiguate(packing, labeled)
            assert all(out[i] == y for i, y in labeled)
            checked += 1
        assert checked > 50

    def test_inconsistent_labeling_rejected(self):
        pts = np.array([[0.0], [0.1]])
        with pytest.raises(ContractViolation, match="gamma=1.0"):
            voronoi_disambiguate(greedy_packing(pts, 1.0), [(0, 0), (1, 1)])

    def test_greedy_matches_brute_force_on_small_grids(self):
        side = np.linspace(0.0, 1.0, 3)
        grid = np.array([[x, y] for x in side for y in side])
        for gamma in (0.6, 1.0, 1.4):
            greedy = len(greedy_packing(grid, gamma).chosen)
            brute = brute_force_max_packing(grid, gamma / 2)
            assert greedy == brute


    @pytest.mark.parametrize("side", [5, 10, 20, 30])
    def test_matches_the_pairwise_loops(self, side):
        # same centres, cells and least distance, to the last bit
        grid = unit_grid(side)
        for gamma in (0.25, 0.3, 0.5, 0.6, 1.0, 1.5):
            assert greedy_packing(grid, gamma) == greedy_packing_by_loops(grid, gamma)


class TestProperFailure:
    def test_improper_zero(self):
        res = erm_failure_simulate(8, 2, trials=50, seed=1)
        assert res.improper_mean_error == 0

    def test_substantial_proper_error(self):
        res = erm_failure_simulate(20, 5, trials=500, seed=2)
        assert res.proper_mean_error >= Fraction(1, 5)

    def test_full_support_observed_can_reach_zero(self):
        res = erm_failure_simulate(4, 64, trials=30, seed=3)
        assert res.proper_mean_error == 0

    def test_odd_domain_rejected(self):
        with pytest.raises(ContractViolation):
            erm_failure_simulate(7, 2, trials=10, seed=0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_or_negative_domain_rejected(self, n):
        with pytest.raises(ContractViolation, match=f"domain size n .* got {n}"):
            erm_failure_simulate(n, 2, trials=10, seed=0)
