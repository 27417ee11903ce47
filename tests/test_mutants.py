"""Mutants the suites must kill: every check must be able to fail.

Each row patches one definition in ``src/`` with a defect and names the
suite, its seed and parameters, and the records that must fail under the
patch.  The same run without the patch must pass every record, so the kill
is the mutant's doing.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable
from unittest import mock

import numpy as np
import pytest

from pcl import geometry
from pcl.core import STAR
from pcl.experiments import ExperimentConfig, run_experiment
from pcl.learners import OneInclusionGraph
from pcl.online import TreeAdversary

_repair = OneInclusionGraph._repair_orientation
_orthonormal_points = geometry.orthonormal_points


def _drop_reversed_edges(graph: OneInclusionGraph) -> None:
    """The repair, then every edge it reversed deleted instead of kept.

    Out-degrees only fall, so each one stays within the VC and every LOO
    value can only shrink: the LOO bounds cannot see this defect.
    """
    before = [set(out) for out in graph.out]
    _repair(graph)
    graph.out = [[w for w in out if w in old] for out, old in zip(graph.out, before)]


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
