"""Online learning: SOA, experts aggregation, one tree adversary for both lower bounds.

Learners are callables ``(mask, x) -> bit`` where ``mask`` is the concept
bitmask of the version space: the members of the class that agree with every
(point, label) pair revealed so far.  Predictions are always bits; a learner
is never allowed to output the undefined label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import ContractViolation, PartialConceptClass, check_points, min_mistakes
from .dimensions import LittlestoneTree, littlestone_dimension, littlestone_tree

Learner = Callable[[int, int], int]


class Round(NamedTuple):
    x: int
    prediction: int
    y: int
    mistake: bool


@dataclass
class OnlineTranscript:
    rounds: tuple[Round, ...]
    mistakes: int
    best_in_class: int

    @property
    def regret(self) -> int:
        return self.mistakes - self.best_in_class


def play_sequence(
    cls: PartialConceptClass,
    learner: Learner,
    sequence: Sequence[tuple[int, int]],
) -> OnlineTranscript:
    check_points(cls, sequence)  # every point, before any is played
    label_masks = cls.packed.label_masks
    mask = cls.packed.full
    rounds = []
    mistakes = 0
    for x, y in sequence:
        p = learner(mask, x)
        if p not in (0, 1):
            raise ValueError("online predictions must be bits")
        bad = p != y
        mistakes += bad
        rounds.append(Round(x, p, y, bad))
        mask &= label_masks[x][y]
    # a concept left in the version space realizes the whole sequence
    best = 0 if mask else min_mistakes(cls, sequence)
    return OnlineTranscript(tuple(rounds), mistakes, best)


class Soa:
    """Standard optimal algorithm: predict the label whose restriction keeps LD larger.

    Ties break toward 0.  An empty restriction has LD -1, so a label that no
    concept of the version space takes loses to one that some concept takes.
    The LD recursion cache is the class's own, shared with every other LD
    reader of the class, so repeated play over the same class stays cheap.
    """

    def __init__(self, cls: PartialConceptClass):
        self.packed = cls.packed
        self.solver = cls.ld_solver

    def __call__(self, mask: int, x: int) -> int:
        m0, m1 = self.packed.label_masks[x]
        return 0 if self.solver.ld(mask & m0) >= self.solver.ld(mask & m1) else 1


@dataclass
class ExpertsResult:
    mixtures: np.ndarray
    total_loss: float
    best_expert_loss: float
    regret: float
    regret_bound: float


def experts_aggregate(
    expert_predictions: Sequence[Sequence[float]], outcomes: Sequence[float]
) -> ExpertsResult:
    """Exponential-weights aggregation with absolute loss.

    ``expert_predictions`` is T x N (row t = all expert values for round t),
    entries and outcomes in [0, 1].  The guarantee checked downstream is
    cumulative mixture loss <= best expert loss + sqrt((T/2) ln N).
    """
    preds = np.asarray(expert_predictions, dtype=float)
    ys = np.asarray(outcomes, dtype=float)
    if preds.ndim != 2:
        raise ValueError("expert predictions must be a T x N matrix")
    T, N = preds.shape
    if ys.shape != (T,):
        raise ValueError("outcomes length must match the number of rounds")
    if N < 1 or T < 1:
        raise ValueError("need at least one expert and one round")
    if (preds < 0).any() or (preds > 1).any() or (ys < 0).any() or (ys > 1).any():
        raise ValueError("predictions and outcomes must lie in [0, 1]")
    eta = math.sqrt((8.0 / T) * math.log(N))
    cum_losses = np.zeros(N)
    mixtures = np.zeros(T)
    total = 0.0
    for t in range(T):
        weights = np.exp(-eta * (cum_losses - cum_losses.min()))
        mixtures[t] = float(weights @ preds[t] / weights.sum())
        total += float(abs(mixtures[t] - ys[t]))
        cum_losses += np.abs(preds[t] - ys[t])
    best = float(cum_losses.min())
    bound = math.sqrt((T / 2.0) * math.log(N))
    return ExpertsResult(mixtures, total, best, total - best, bound)


@dataclass
class AgnosticRunResult:
    expected_mistakes: float
    best_in_class: int
    regret_bound: float

    @property
    def expected_regret(self) -> float:
        return self.expected_mistakes - self.best_in_class


MAX_EXPERTS = 100_000  # most SOA variants one agnostic learner may run
MAX_ADVERSARY_T = 100_000  # longest tree-adversary horizon; its law grows with T


class AgnosticOnlineLearner:
    """Exponential weights over SOA variants indexed by mistake-round subsets.

    For each subset J of rounds (|J| <= LD) there is an expert that runs SOA
    but flips its prediction exactly on the rounds in J, feeding itself the
    flipped labels as corrections.  One of these experts tracks the best
    concept in the class, so the experts bound turns into a regret bound.
    """

    def __init__(self, cls: PartialConceptClass, T: int):
        if T < 1:
            raise ContractViolation(f"the horizon T must be at least 1, got {T}")
        self.cls = cls
        self.T = T
        self.ld = littlestone_dimension(cls)
        self.n_experts = sum(comb(T, i) for i in range(self.ld + 1))
        if self.n_experts > MAX_EXPERTS:
            raise ValueError(
                f"{self.n_experts} experts exceed the budget of {MAX_EXPERTS}"
            )
        # expert i flips round t when t is in its subset: flips[t] lists them
        self.flips: list[list[int]] = [[] for _ in range(T)]
        subsets = (J for k in range(self.ld + 1) for J in combinations(range(T), k))
        for i, J in enumerate(subsets):
            for t in J:
                self.flips[t].append(i)

    def regret_bound(self) -> float:
        return math.sqrt((self.T / 2.0) * math.log(self.n_experts))

    def run(self, sequence: Sequence[tuple[int, int]]) -> AgnosticRunResult:
        if len(sequence) != self.T:
            raise ValueError(f"sequence length {len(sequence)} != T = {self.T}")
        best = min_mistakes(self.cls, sequence)  # checks every point first
        soa = Soa(self.cls)
        packed = self.cls.packed
        masks = [packed.full] * self.n_experts
        rows = []
        for t, (x, _) in enumerate(sequence):
            row = [soa(m, x) for m in masks]
            for i in self.flips[t]:  # expert i takes round t as a mistake and learns from it
                row[i] = p = 1 - row[i]
                masks[i] &= packed.label_masks[x][p]
            rows.append(row)
        res = experts_aggregate(rows, [y for _, y in sequence])
        return AgnosticRunResult(res.total_loss, best, res.regret_bound)


@dataclass
class TreeAdversary:
    """Oblivious fair-coin labels at the points of a depth-d mistake tree.

    The T rounds form d blocks; every round of block i asks the point of the
    tree node reached by the majority labels of the blocks before it (ties to
    0).  Each label is a fair coin drawn after the prediction, so every
    learner expects T/2 mistakes.  Each block asks one point and its majority
    branch is realizable, so the best concept errs min(B, L - B) times in a
    block of length L with B ones.  Every deterministic learner therefore has
    the same expected regret, the sum over blocks of E|B - L/2| with
    B ~ Bin(L, 1/2) (``expected_regret``): d/2 at T = d, where each block is
    one round, and Omega(sqrt(dT)) at larger T.  d = T = 0 is the empty game.
    """

    d: int
    T: int
    tree: Optional[LittlestoneTree]

    def block_bounds(self) -> list[tuple[int, int]]:
        k = self.T // max(self.d, 1)
        starts = [k * i for i in range(self.d)]
        return list(zip(starts, starts[1:] + [self.T]))

    def sequence(self, ys: Sequence[int]) -> list[tuple[int, int]]:
        """The rounds that the label string ``ys`` of length T makes."""
        xs: list[int] = []
        node = self.tree
        for start, end in self.block_bounds():
            xs.extend([node.point] * (end - start))
            block = ys[start:end]
            majority = 1 if 2 * sum(block) > len(block) else 0
            node = node.zero if majority == 0 else node.one
        return list(zip(xs, ys))

    def generate(self, rng: random.Random) -> list[tuple[int, int]]:
        return self.sequence([rng.getrandbits(1) for _ in range(self.T)])

    def expected_regret(self) -> Fraction:
        """Every deterministic learner's expected regret: the sum over blocks
        of E|B - L/2| = k C(L, k) / 2^L, k = floor(L/2) + 1 (de Moivre)."""
        total = Fraction(0)
        for start, end in self.block_bounds():
            L = end - start
            k = L // 2 + 1
            total += Fraction(k * comb(L, k), 2**L)
        return total


def tree_adversary(cls: PartialConceptClass, d: int, T: int) -> TreeAdversary:
    if d < 1 and T > 0:
        raise ContractViolation(f"the tree depth d must be at least 1, got {d}")
    if T < d:
        raise ContractViolation(
            f"the horizon T must be at least the tree depth d = {d}, got {T}"
        )
    if T > MAX_ADVERSARY_T:
        raise ContractViolation(
            f"the horizon T = {T} exceeds the limit of {MAX_ADVERSARY_T}"
        )
    return TreeAdversary(d, T, littlestone_tree(cls, d))
