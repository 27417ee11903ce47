"""Every documented scale limit accepts its own value and refuses one more.

A limit L is tried at L and at L + 1.  Where an input of size L is cheap it
is built at the real limit; otherwise the limit is patched to the exact size
of a small input, and to one less.
"""

import math
import random

import pytest

from pcl import disambiguation, learners
from pcl.core import ContractViolation, concept_class
from pcl.disambiguation import (
    MAX_BICLIQUE_VERTICES,
    BicliqueInstance,
    compression_to_disambiguation,
    majority_compose,
    majority_table,
)
from pcl.learners import WeakLearnerNotFound, boosting_round_size
from pcl.online import MAX_ADVERSARY_T, MAX_EXPERTS, AgnosticOnlineLearner, tree_adversary

BIT = concept_class(1, ["0", "1"])  # LD 1


def adversary_horizon(monkeypatch, over):
    tree_adversary(BIT, 1, MAX_ADVERSARY_T + over)


def experts(monkeypatch, over):
    # LD 1 over T rounds: C(T, 0) + C(T, 1) = T + 1 experts
    AgnosticOnlineLearner(BIT, T=MAX_EXPERTS - 1 + over)


def biclique_vertices(monkeypatch, over):
    BicliqueInstance(MAX_BICLIQUE_VERTICES + over, edges=(), partition=())


def enumeration(monkeypatch, over):
    # LD 1 on 2 points: C(4, 0) + C(4, 1) = 5 kept sets
    monkeypatch.setattr(disambiguation, "ENUMERATION_BUDGET", 5 - over)
    compression_to_disambiguation(concept_class(2, ["00", "11"]))


def verification(monkeypatch, over):
    # 2 points: C(2, 1) + C(2, 2) = 3 point sets of at most VERIFY_LEN points
    monkeypatch.setattr(disambiguation, "VERIFY_BUDGET", 3 - over)
    compression_to_disambiguation(concept_class(2, ["00", "11"]))


def composition(monkeypatch, over):
    # 2 x 3 concept tuples
    monkeypatch.setattr(disambiguation, "COMPOSE_BUDGET", 6 - over)
    h1 = concept_class(2, ["00", "0*"])
    h2 = concept_class(2, ["11", "1*", "**"])
    majority_compose([h1, h2], majority_table(2))


def exhaustive_search(monkeypatch, over):
    # no random draw, so the search goes straight to the C(2 + k - 1, k)
    # k-multisets of the two distinct pairs
    cls = concept_class(2, ["00", "01", "10", "11"])
    k = boosting_round_size(cls.vc)
    monkeypatch.setattr(learners, "WEAK_DRAWS", 0)
    monkeypatch.setattr(learners, "EXHAUSTIVE_CAP", math.comb(2 + k - 1, k) - over)
    pairs = [(0, 0), (1, 1)]
    learners._weak_hypothesis(cls, pairs, [1.0, 1.0], k, random.Random(0))


@pytest.mark.parametrize(
    "case,error,named",
    [
        pytest.param(case, error, named, id=case.__name__)
        for case, error, named in [
            (adversary_horizon, ContractViolation, "limit of"),
            (experts, ValueError, "budget of"),
            (biclique_vertices, ValueError, "limit of"),
            (enumeration, ValueError, "exceeds the budget"),
            (verification, ValueError, "on 3 point sets exceeds the budget"),
            (composition, ValueError, "exceeds the budget"),
            (exhaustive_search, WeakLearnerNotFound, "exceed the cap"),
        ]
    ],
)
def test_limit_accepts_its_value_and_refuses_one_more(monkeypatch, case, error, named):
    case(monkeypatch, over=False)
    with pytest.raises(error, match=named):
        case(monkeypatch, over=True)
