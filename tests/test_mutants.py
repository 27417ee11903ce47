"""Mutants the suites must kill: every check must be able to fail.

Each row patches one definition in ``src/`` with a defect and names the
suite, its seed and parameters, and the records that must fail under the
patch.  The same run without the patch must pass every record, so the kill
is the mutant's doing.

``EQUIVALENT`` lists the comparisons whose swap to their strict or
non-strict twin changes no answer, each with the reason.
"""

import __future__
import ast
import contextlib
import inspect
import sys
import textwrap
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable
from unittest import mock

import numpy as np
import pytest

from pcl import geometry
from pcl.core import STAR, pattern_code
from pcl.dimensions import measure_report
from pcl.experiments import ExperimentConfig, generate_random_class, run_experiment
from pcl.learners import CompressionOutput, OneInclusionGraph
from pcl.online import TreeAdversary

_repair = OneInclusionGraph._repair_orientation
_orthonormal_points = geometry.orthonormal_points


def _drop_reversed_edges(graph: OneInclusionGraph) -> None:
    """The repair, then every edge it reversed deleted instead of kept.

    Out-degrees only fall, so each one stays within the VC and every LOO
    value can only shrink: the LOO bounds cannot see this defect.
    """
    before = {v: set(heads) for v, heads in graph.out.items()}
    _repair(graph)
    graph.out = {v: [w for w in heads if w in before[v]] for v, heads in graph.out.items()}


def _law_with_k_half(adv: TreeAdversary) -> Fraction:
    """The block adversary's law with k = L // 2 in place of L // 2 + 1."""
    total = Fraction(0)
    for start, end in adv.block_bounds():
        L = end - start
        total += Fraction(L // 2 * comb(L, L // 2), 2**L)
    return total


def _star_agrees(cls, pairs) -> tuple[int, ...]:
    """A largest agreement set in which a STAR agrees with either label."""
    sets = (
        tuple(i for i, (x, y) in enumerate(pairs) if h[x] in (y, STAR))
        for h in cls.concepts
    )
    return max(sets, key=len, default=())


def _one_point_too_many(radius: float, gamma: float) -> np.ndarray:
    """The axis family with one axis point more than floor(R^2 / gamma^2)."""
    return radius * np.eye(len(_orthonormal_points(radius, gamma)) + 1)


def _loo_charging_repeats(cls, sample) -> Fraction:
    """The exact LOO error with every entry of a point charged, not only the
    entries whose point occurs once."""
    labels = dict(sample.pairs)
    points = tuple(sorted(labels))
    graph = cls.one_inclusion.graph(cls, points)
    v = pattern_code(labels[x] for x in points)
    counts = Counter(x for x, _ in sample)
    charged = sum(counts[points[-(h ^ v).bit_length()]] for h in graph.out[v])
    return Fraction(charged, len(sample))


def _keep_every_pair(cls, sample) -> CompressionOutput:
    """A kept-set payload of the whole sample: it rebuilds a consistent total,
    but its size is the number of distinct pairs, not at most LD."""
    return CompressionOutput(tuple(dict.fromkeys(sample.pairs)), ())


def _hidden_labeled_one(rng, n: int) -> dict[int, int]:
    """The hidden half-support concept labeled 1 on its support, not 0."""
    return dict.fromkeys(sorted(rng.sample(range(n), n // 2)), 1)


@dataclass(frozen=True)
class Mutant:
    target: str  # the patched definition
    defect: Callable
    suite: str
    seed: int
    params: dict
    killers: frozenset[str]  # the records that must fail, and no others


MUTANTS = {
    # one-point graphs never need a repair, so max_len = 1 cannot kill it;
    # class 0 at seed 0 needs one from max_len = 2 on (at the acceptance
    # seed 20240817 the first class that does is class 3, and the mutant
    # breaks 155 of the acceptance run's 2 292 graphs)
    "repair-drops-reversed-edges": Mutant(
        "pcl.learners.OneInclusionGraph._repair_orientation",
        _drop_reversed_edges,
        "one-inclusion-loo",
        seed=0,
        params={"classes": 1, "max_len": 2},
        killers=frozenset({"orientation-edges"}),
    ),
    # k C(L, k) is the same at k = L // 2 and L // 2 + 1 for even L, so the
    # acceptance horizon adversary_T = 100 (one block of 100) cannot see this;
    # at adversary_T = 1 the law reads 0 against the bound 1/4
    "adversary-law-k-half": Mutant(
        "pcl.online.TreeAdversary.expected_regret",
        _law_with_k_half,
        "agnostic-online-regret",
        seed=0,
        params={"T": 2, "adversary_T": 1, "adversary_trials": 2},
        killers=frozenset({"adversary-law"}),
    ),
    # the best concept then misses fewer pairs, so the regret measured
    # against it grows; only class 1 ("01*", "*10", "110") is both starred
    # and tight enough to break its bound, from T = 4 on (class 3 from T = 12)
    "agreement-counts-star": Mutant(
        "pcl.core.max_realizable_subsequence",
        _star_agrees,
        "agnostic-online-regret",
        seed=0,
        params={"T": 4, "adversary_T": 1, "adversary_trials": 2},
        killers=frozenset({"upper-class-1"}),
    ),
    # a STAR then agrees, so pairs 1, 3 and 4 read 0, 0, 0 at n = 1, 2, 3
    # where their exact errors rise strictly from n = 1 to 2 (pairs 0 and 2
    # have no STAR); the suite reads no seed or parameter
    "agreement-counts-star-approximation": Mutant(
        "pcl.core.max_realizable_subsequence",
        _star_agrees,
        "approximation-monotonicity",
        seed=0,
        params={},
        killers=frozenset({"pair-1", "pair-3", "pair-4"}),
    ),
    # the witness (gamma/R) s then has norm sqrt(m + 1) gamma/R > 1, so every
    # labeling of all three families fails; the perceptron streams measure
    # their own bound and still pass
    "axis-family-one-point-too-many": Mutant(
        "pcl.geometry.orthonormal_points",
        _one_point_too_many,
        "geometry",
        seed=0,
        params={"streams": 1},
        killers=frozenset({"orthonormal-R1", "orthonormal-R2", "orthonormal-R3"}),
    ),
    # a repeated point costs each of its entries, so two entries of a point
    # whose edge leaves the labeling cost 2/2 against VC/2; the per-class
    # records read out-degrees, not this function
    "loo-charges-repeated-points": Mutant(
        "pcl.learners.loo_error",
        _loo_charging_repeats,
        "one-inclusion-loo",
        seed=0,
        params={"classes": 1, "max_len": 1},
        killers=frozenset({"multiset-sequences"}),
    ),
    # every kept set is then the whole sample, which outgrows LD
    "ld-compress-keeps-every-pair": Mutant(
        "pcl.learners.ld_compress",
        _keep_every_pair,
        "compression-bounds",
        seed=0,
        params={"samples": 2, "max_m": 8},
        killers=frozenset({"all-samples"}),
    ),
    # the all-zeros predictor then errs on every example; the proper learner's
    # zero-labeled guesses err everywhere too, which its bound >= 1/5 admits
    "erm-hidden-concept-labeled-one": Mutant(
        "pcl.geometry._hidden_concept",
        _hidden_labeled_one,
        "erm-failure",
        seed=0,
        params={},
        killers=frozenset({"improper-learner"}),
    ),
}


def _failing(mutant: Mutant) -> set[str]:
    cfg = ExperimentConfig(mutant.suite, seed=mutant.seed, params=dict(mutant.params))
    return {c.name for c in run_experiment(cfg).checks if not c.passed}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed_by_its_records_only(name):
    mutant = MUTANTS[name]
    assert _failing(mutant) == set()
    with mock.patch(mutant.target, mutant.defect):
        assert _failing(mutant) == mutant.killers


# Comparisons that may be swapped to their strict or non-strict twin with no
# answer moving, keyed by module, the __qualname__ of the function holding
# them and their source.  A search cut's swap changes only the work: the
# figures are traced calls or lines of the swapped function on six classes
# drawn as the dims workload draws them (n = 8, 12 and 14 at seeds 101 and
# 4242), with the one-inclusion graphs of the n = 8 ones and of twelve
# one-inclusion-loo classes.
EQUIVALENT = {
    ("pcl.dimensions", "first_largest", "x < n"): (
        "at x = n the size cut reads len(pts) > len(best), which never holds: "
        "best takes pts as soon as pts outgrows it; the work is the same"
    ),
    ("pcl.dimensions", "first_largest", "len(pts) + n - x > len(best)"): (
        "a set that can at most tie is entered too, but best changes only on a "
        "larger set: 248 798 -> 375 710 lines"
    ),
    ("pcl.dimensions", "LdSolver.ld", "m0.bit_count() > m1.bit_count()"): (
        "a tie only changes which restriction is tried first; 1 + min of both "
        "LDs is symmetric, and the min is below best when either is: "
        "3 007 -> 3 045 ld calls"
    ),
    (
        "pcl.dimensions",
        "threshold_dimension.<locals>.extend",
        "depth + (points_avail & ones_at[r]).bit_count() > best",
    ): (
        "a node that can at most tie is entered too, but best and its chain "
        "change only on a longer staircase: 106 007 -> 211 195 lines"
    ),
    (
        "pcl.dimensions",
        "threshold_dimension.<locals>.extend",
        "depth + 1 + min(nxt_pts.bit_count(), nxt_rows.bit_count()) > best",
    ): (
        "a child that can at most tie is entered too, but best and its chain "
        "change only on a longer staircase: 1 869 -> 3 809 extend calls"
    ),
    ("pcl.learners", "OneInclusionGraph.__init__", "j > i"): (
        "j = i never holds: the neighbour code j differs from i at one point's bit; "
        "the work is the same"
    ),
    ("pcl.learners", "OneInclusionGraph._repair_orientation", "guard <= 0"): (
        "the guard never reaches 0: each reversal lowers the out-degree surplus "
        "by one, and the guard starts above twice the edge count; the work is "
        "the same"
    ),
}

_SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _swapped(module: str, qualname: str, source: str):
    """The top-level definition holding the comparison, with the comparison
    swapped, compiled in its module's namespace; and the object it sits on."""
    top, *inner = qualname.split(".<locals>.")
    *path, name = top.split(".")
    owner = sys.modules[module]
    for attr in path:
        owner = getattr(owner, attr)
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(owner, name))))
    scope = tree.body[0]
    for local in inner:
        scope = next(
            node for node in ast.walk(scope)
            if isinstance(node, ast.FunctionDef) and node.name == local
        )
    hits = [
        node for node in ast.walk(scope)
        if isinstance(node, ast.Compare) and ast.unparse(node) == source
    ]
    assert len(hits) == 1, f"{len(hits)} comparisons {source!r} in {qualname}"
    hits[0].ops[0] = _SWAP[type(hits[0].ops[0])]()
    namespace = dict(vars(sys.modules[module]))
    flags = __future__.annotations.compiler_flag
    exec(compile(tree, f"<swapped {qualname}>", "exec", flags=flags), namespace)
    return owner, name, namespace[name]


def _answers() -> list:
    """Values, witnesses and one-inclusion orientations on fresh classes."""
    out = []
    for n, size, star, seed in ((8, 32, 0.25, 3), (10, 40, 0.25, 7), (6, 20, 0.3, 1)):
        cls = generate_random_class(n, size, star, seed)
        for measure in ("vc", "ld", "td"):
            report = measure_report(cls, measure, witness=True)
            out.append((report.value, report.witness))
        for pts in combinations(range(n), 3):
            if cls.binary_patterns(pts):
                out.append(list(OneInclusionGraph(cls, pts).out.items()))
    return out


@pytest.mark.parametrize("site", sorted(EQUIVALENT), ids=lambda site: site[2])
def test_equivalent_swap_moves_no_answer(site):
    answers = _answers()
    owner, name, swapped = _swapped(*site)
    original = getattr(owner, name)
    # a module that imported the definition by name sees the swap too
    holders = [owner] + [
        module for key, module in sys.modules.items()
        if key.startswith("pcl.") and module is not owner and vars(module).get(name) is original
    ]
    with contextlib.ExitStack() as stack:
        for holder in holders:
            stack.enter_context(mock.patch.object(holder, name, swapped))
        assert _answers() == answers
