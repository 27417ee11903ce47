"""Batch learners: one-inclusion prediction, the PAC wrapper, boosting
compression, and the agnostic reduction.

The one-inclusion predictor is transductive: it never materializes a global
hypothesis by itself.  Where a total hypothesis is needed it is evaluated
pointwise over the finite domain, once per set of distinct training pairs:
the hypothesis table sits beside the graphs in the class's
``one_inclusion`` store.  The PAC wrapper works on atom indices, so a
batch costs a count of the atoms it saw and one table lookup.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, compress
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ContractViolation,
    LabeledSample,
    PartialConceptClass,
    best_empirical_error,
    check_points,
    is_realizable,
    labeled_sample,
    max_realizable_subsequence,
    splits,
)
from .dimensions import littlestone_dimension, shattered_levels
from .online import Soa


class CompressionFormatError(ValueError):
    """Raised when a compression payload cannot be parsed back."""


class WeakLearnerNotFound(RuntimeError):
    """Exhaustive search found no sufficiently accurate weak hypothesis.

    This should be impossible for realizable inputs and indicates a bug.
    """


class BoostingCapExceeded(RuntimeError):
    """The boosting round cap was hit before the majority became consistent."""


@dataclass(frozen=True)
class Hypothesis:
    """A total predictor materialized over the finite domain."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (0, 1) for v in self.labels):
            raise ValueError("hypothesis labels must be bits")

    def __call__(self, x: int) -> int:
        return self.labels[x]

    @classmethod
    def majority(cls, hyps: Sequence["Hypothesis"]) -> "Hypothesis":
        n = len(hyps[0].labels)
        labels = []
        for x in range(n):
            ones = sum(h.labels[x] for h in hyps)
            labels.append(1 if 2 * ones > len(hyps) else 0)
        return cls(tuple(labels))

    def sample_error(self, sample: LabeledSample) -> Fraction:
        mistakes = sum(1 for x, y in sample if self.labels[x] != y)
        return Fraction(mistakes, len(sample))


@dataclass(frozen=True)
class CompressionOutput:
    """A subsample plus side-information bits; size is the sum of both lengths."""

    subsample: tuple[tuple[int, int], ...]
    bits: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.subsample) + len(self.bits)


# ---------------------------------------------------------------------------
# one-inclusion prediction


class OneInclusionGraph:
    """Realizable total patterns on a point set, with a low-out-degree orientation.

    Vertices are the 0/1 patterns the class realizes on ``points``; edges join
    patterns differing in one coordinate; ``vc`` is the VC dimension of the
    patterns.  The orientation is repaired by reversing a directed path from
    any vertex above the out-degree target to one below it; such a path
    always exists because every induced subgraph of a one-inclusion graph of
    a VC-d class has edge density at most d.
    """

    def __init__(self, cls: PartialConceptClass, points: tuple[int, ...]):
        self.points = points
        pats = sorted(cls.binary_patterns(points))
        if not pats:
            raise ContractViolation(
                f"no realizable total pattern on points {points}"
            )
        self.patterns = pats
        self.index = {p: i for i, p in enumerate(pats)}
        # the patterns' VC: concepts defined on all of points, over subsets of them
        sides = [cls.packed.label_masks[x] for x in points]
        defined = cls.packed.full
        for m0, m1 in sides:
            defined &= m0 | m1
        self.vc = len(shattered_levels(len(points), partial(splits, sides, defined)))
        self.out: list[list[int]] = [[] for _ in pats]
        for i, p in enumerate(pats):
            for c in range(len(points)):
                q = p[:c] + (1 - p[c],) + p[c + 1 :]
                j = self.index.get(q)
                if j is not None and j > i:  # initial orientation: toward the larger id
                    self.out[i].append(j)
        self._repair_orientation()

    def _repair_orientation(self) -> None:
        d = self.vc
        guard = 2 * sum(len(o) for o in self.out) + len(self.patterns) + 4
        while True:
            over = next(
                (v for v in range(len(self.patterns)) if len(self.out[v]) > d), None
            )
            if over is None:
                return
            guard -= 1
            if guard <= 0:
                raise AssertionError("orientation repair failed to terminate")
            # BFS along oriented edges for a vertex with spare out-capacity
            parent = {over: None}
            queue = [over]
            target = None
            while queue and target is None:
                u = queue.pop(0)
                for w in self.out[u]:
                    if w not in parent:
                        parent[w] = u
                        if len(self.out[w]) < d:
                            target = w
                            break
                        queue.append(w)
            if target is None:
                raise AssertionError(
                    "no reversible path found; edge density exceeded the VC bound"
                )
            node = target
            while parent[node] is not None:
                prev = parent[node]
                self.out[prev].remove(node)
                self.out[node].append(prev)
                node = prev

    def out_degree(self, pattern: tuple[int, ...]) -> int:
        return len(self.out[self.index[pattern]])

    def oriented_toward(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Head pattern of the edge {a, b}."""
        return b if self.index[b] in self.out[self.index[a]] else a


class OneInclusionCache:
    """Memoizes the one-inclusion graphs of one class keyed by point set, and
    the hypotheses they give keyed by set of distinct training pairs.

    The store serves the first class it is asked about and refuses any other.
    Each class keeps one as ``PartialConceptClass.one_inclusion``.
    """

    def __init__(self) -> None:
        # the served class's concepts; holding the class would make a cycle,
        # since each class owns its store
        self._concepts: Optional[tuple] = None
        self._graphs: dict[tuple[int, ...], OneInclusionGraph] = {}
        self._hypotheses: dict[frozenset, Hypothesis] = {}

    def _serve(self, cls: PartialConceptClass) -> None:
        if self._concepts is None:
            self._concepts = cls.concepts
        elif cls.concepts != self._concepts:
            raise ContractViolation("a one-inclusion store serves only its first class")

    def graph(self, cls: PartialConceptClass, points: tuple[int, ...]) -> OneInclusionGraph:
        self._serve(cls)
        g = self._graphs.get(points)
        if g is None:
            g = OneInclusionGraph(cls, points)
            self._graphs[points] = g
        return g

    def hypothesis(
        self, cls: PartialConceptClass, pairs: frozenset[tuple[int, int]]
    ) -> Hypothesis:
        """The one-inclusion predictor trained on ``pairs``, at every domain point.

        The predictor reads only the distinct training pairs, so each set is
        fitted once; a set that fails its checks raises and is not stored.
        """
        self._serve(cls)
        h = self._hypotheses.get(pairs)
        if h is None:
            predict = _predictor(cls, LabeledSample(tuple(pairs)), self)
            h = Hypothesis(tuple(map(predict, range(cls.domain_size))))
            self._hypotheses[pairs] = h
        return h


def _predictor(
    cls: PartialConceptClass, train: LabeledSample, graphs: OneInclusionCache
) -> Callable[[int], int]:
    """The one-inclusion predictor trained on ``train``, as a function of the test point.

    Only two patterns on train + {test} can agree with the training labels:
    those labels completed with 0 or with 1 at the test point.  When one is
    realizable its label is the prediction; when both are, the edge between
    them points at it.  When neither is, the prediction defaults to 0; the
    leave-one-out guarantee concerns realizable samples only, where this
    cannot happen.
    """
    if not is_realizable(cls, train):
        raise ContractViolation("training sample is not realizable by the class")
    constraints = dict(train.pairs)
    # a realizable sample labels each point one way, so its distinct pairs
    # give the same mask as every entry
    mask = cls.packed.mask_of(constraints.items())
    label_masks = cls.packed.label_masks

    def predict(test: int) -> int:
        if not 0 <= test < cls.domain_size:
            raise ValueError(
                f"test point {test} out of range for domain of size {cls.domain_size}"
            )
        if test in constraints:
            return constraints[test]
        m0, m1 = label_masks[test]
        if not mask & m0 or not mask & m1:
            return 1 if mask & m1 else 0
        points = tuple(sorted({*constraints, test}))
        a = tuple(constraints.get(x, 0) for x in points)
        b = tuple(constraints.get(x, 1) for x in points)
        return graphs.graph(cls, points).oriented_toward(a, b)[points.index(test)]

    return predict


def one_inclusion_predict(
    cls: PartialConceptClass, train: LabeledSample, test: int
) -> int:
    """Predict the test label from the oriented one-inclusion graph."""
    return _predictor(cls, train, cls.one_inclusion)(test)


def materialize_transductive(
    cls: PartialConceptClass, train: LabeledSample
) -> Hypothesis:
    """Evaluate the one-inclusion predictor at every domain point."""
    return cls.one_inclusion.hypothesis(cls, frozenset(train.pairs))


def loo_error(cls: PartialConceptClass, sample: LabeledSample) -> Fraction:
    """Exact permutation-averaged leave-one-out error of the predictor.

    The predictor ignores the order of its training sequence, so averaging
    over all |S|! permutations reduces to leaving each entry out once.
    """
    n = len(sample)
    mistakes = 0
    for i, (x, y) in enumerate(sample):
        rest = labeled_sample(p for j, p in enumerate(sample) if j != i)
        if one_inclusion_predict(cls, rest, x) != y:
            mistakes += 1
    return Fraction(mistakes, n)


# ---------------------------------------------------------------------------
# realizable PAC wrapper


@dataclass(frozen=True)
class PacSchedule:
    batches: int
    batch_size: int
    validation_size: int

    @property
    def total(self) -> int:
        return self.batches * self.batch_size + self.validation_size


def pac_schedule(vc: int, eps: float, delta: float) -> PacSchedule:
    """Batch-and-validate sizes for target accuracy eps and confidence delta."""
    if not 0 < eps < 1 or not 0 < delta <= 1:
        raise ContractViolation("need 0 < eps < 1 and 0 < delta <= 1")
    d = max(vc, 1)
    k = math.ceil(math.log2(2.0 / delta))
    n = math.floor(4.0 * d / eps)
    t = math.ceil((32.0 / eps) * math.log(2.0 * k / delta))
    return PacSchedule(batches=k, batch_size=n, validation_size=t)


def batch_and_validate(
    cls: PartialConceptClass,
    atoms: Sequence[tuple[int, int]],
    picks: np.ndarray,
    eps: float,
    delta: float,
    graphs: OneInclusionCache,
) -> Hypothesis:
    """Train one-inclusion on disjoint batches of the sample ``atoms[picks]``
    and keep the validation winner, the first batch on ties.

    A batch's hypothesis depends only on the atoms it saw, so it comes from
    the hypothesis table of ``graphs``.
    """
    schedule = pac_schedule(cls.vc, eps, delta)
    if len(picks) < schedule.total:
        raise ContractViolation(
            f"sample of size {len(picks)} is too short; "
            f"the wrapper needs m = {schedule.total} "
            f"({schedule.batches} batches of {schedule.batch_size} "
            f"plus {schedule.validation_size} validation points)"
        )
    check_points(cls, atoms)
    k, a = schedule.batches, len(atoms)
    rows = np.repeat(np.arange(k + 1), [schedule.batch_size] * k + [schedule.validation_size])
    counts = np.bincount(rows * a + picks[: schedule.total], minlength=(k + 1) * a)
    counts = counts.reshape(k + 1, a)
    # a batch's score is its seen-set's, so the first minimum over the
    # distinct sets in batch order is the first batch's
    seen = dict.fromkeys(frozenset(compress(atoms, row)) for row in counts[:k].tolist())
    hyps = [graphs.hypothesis(cls, pairs) for pairs in seen]
    wrong = np.array([[h.labels[x] != y for x, y in atoms] for h in hyps])
    return hyps[int((wrong @ counts[k]).argmin())]


def pac_learn_realizable(
    cls: PartialConceptClass,
    sample: LabeledSample,
    eps: float,
    delta: float,
    cache: Optional[OneInclusionCache] = None,
) -> Hypothesis:
    """``batch_and_validate`` on the sample's distinct pairs, numbered by
    first appearance, with ``cache`` in place of the class's own store."""
    index = {pair: i for i, pair in enumerate(dict.fromkeys(sample.pairs))}
    picks = np.fromiter(map(index.__getitem__, sample.pairs), np.intp, len(sample))
    return batch_and_validate(
        cls, tuple(index), picks, eps, delta, cache or cls.one_inclusion
    )


# ---------------------------------------------------------------------------
# boosting-based compression


WEAK_DRAWS = 256  # random k-point draws per round before the exhaustive search
EXHAUSTIVE_CAP = 200_000  # most k-multisets the exhaustive search may try


def boosting_round_cap(m: int) -> int:
    return math.ceil(72.0 * math.log(m + 2))


def boosting_round_size(vc: int) -> int:
    """Training points per weak hypothesis for a class of VC dimension ``vc``."""
    return 3 * max(vc, 1)


def boost_to_consistency(
    domain_size: int,
    pairs: Sequence[tuple[int, int]],
    weak: Callable[[list[float], int], Sequence[int]],
    step: float,
    cap: int,
) -> Optional[tuple[Hypothesis, int]]:
    """Multiplicative weights until the majority vote fits every pair.

    ``weak(weights, t)`` returns round t's labels of the whole domain for the
    current pair weights; each pair it mislabels then has its weight
    multiplied by ``step``.  Returns the majority and the number of rounds,
    or None when ``cap`` rounds pass without a consistent majority.
    """
    weights = [1.0] * len(pairs)
    ones_votes = [0] * domain_size
    for t in range(1, cap + 1):
        labels = weak(weights, t)
        for x in range(domain_size):
            ones_votes[x] += labels[x]
        if all((1 if 2 * ones_votes[x] > t else 0) == y for x, y in pairs):
            return Hypothesis(tuple(1 if 2 * v > t else 0 for v in ones_votes)), t
        for i, (x, y) in enumerate(pairs):
            if labels[x] != y:
                weights[i] *= step
        top = max(weights)
        if top > 1e250:  # keep the float weights in range on long runs
            weights = [w / top for w in weights]
    return None


def _weak_hypothesis(
    cls: PartialConceptClass,
    pairs: Sequence[tuple[int, int]],
    weights: Sequence[float],
    k: int,
    rng: random.Random,
) -> tuple[Hypothesis, LabeledSample]:
    """A k-point-trained hypothesis with weighted error at most 1/3.

    Random draws from the current distribution almost always work (the
    expected error is below 1/3); exhaustive search over k-multisets of the
    distinct pairs is the fallback.
    """
    total = sum(weights)

    def weighted_error(h: Hypothesis) -> float:
        return (
            sum(w for (x, y), w in zip(pairs, weights) if h.labels[x] != y) / total
        )

    for _ in range(WEAK_DRAWS):
        drawn = rng.choices(pairs, weights=weights, k=k)
        train = labeled_sample(drawn)
        h = materialize_transductive(cls, train)
        if weighted_error(h) <= 1.0 / 3.0:
            return h, train
    distinct = sorted(set(pairs))
    n_candidates = math.comb(len(distinct) + k - 1, k)
    if n_candidates > EXHAUSTIVE_CAP:
        raise WeakLearnerNotFound(
            f"random search failed and {n_candidates} candidates exceed the cap"
        )
    for combo in combinations_with_replacement(distinct, k):
        train = labeled_sample(combo)
        h = materialize_transductive(cls, train)
        if weighted_error(h) <= 1.0 / 3.0:
            return h, train
    raise WeakLearnerNotFound(
        "no k-point training multiset reaches weighted error 1/3; "
        "this contradicts the expected-error guarantee and indicates a bug"
    )


def alpha_boost_compress(
    cls: PartialConceptClass,
    sample: LabeledSample,
    seed: int = 0,
) -> tuple[Hypothesis, CompressionOutput]:
    """Boost the one-inclusion weak learner until the majority fits the sample.

    Mistake weights double each round (multiplicative step e^eta = 2 against
    weak error 1/3), which forces consistency well inside the round cap.  The
    compression payload is the concatenated round subsamples; the bits encode
    the round count so the grouping is recoverable.
    """
    if not sample:
        raise ContractViolation("boosting requires a non-empty sample")
    if not is_realizable(cls, sample):
        raise ContractViolation("boosting requires a realizable sample")
    rng = random.Random(seed)
    pairs = sample.pairs
    k = boosting_round_size(cls.vc)
    trains: list[LabeledSample] = []

    def weak(weights: list[float], t: int) -> tuple[int, ...]:
        h, train = _weak_hypothesis(cls, pairs, weights, k, rng)
        trains.append(train)
        return h.labels

    cap = boosting_round_cap(len(pairs))
    fit = boost_to_consistency(cls.domain_size, pairs, weak, 2.0, cap)
    if fit is None:
        raise BoostingCapExceeded(
            f"majority still inconsistent after {cap} rounds on {len(pairs)} points"
        )
    majority, T = fit
    subsample = tuple(p for train in trains for p in train.pairs)
    bits = tuple(int(b) for b in format(T, "b"))
    return majority, CompressionOutput(subsample, bits)


def ld_compress(cls: PartialConceptClass, sample: LabeledSample) -> CompressionOutput:
    """Keep exactly the sample points on which SOA trained on the kept set errs.

    Every kept point is an SOA mistake on a realizable sequence, so the kept
    set never exceeds the Littlestone dimension; a round past it means SOA
    is wrong.
    """
    if not is_realizable(cls, sample):
        raise ContractViolation("compression requires a realizable sample")
    soa = Soa(cls)
    label_masks = cls.packed.label_masks
    mask = cls.packed.full  # the concepts consistent with the kept set
    kept: list[tuple[int, int]] = []
    for _ in range(littlestone_dimension(cls) + 1):
        bad = next(((x, y) for x, y in sample if soa(mask, x) != y), None)
        if bad is None:
            return CompressionOutput(tuple(kept), ())
        kept.append(bad)
        mask &= label_masks[bad[0]][bad[1]]
    raise AssertionError("SOA made more mistakes than the Littlestone dimension")


def _check_payload(cls: PartialConceptClass, comp: CompressionOutput) -> None:
    for entry in comp.subsample:
        x, y = entry
        if not 0 <= x < cls.domain_size or y not in (0, 1):
            raise CompressionFormatError(
                f"payload entry {entry} is not a (point, bit) pair "
                f"of the domain of size {cls.domain_size}"
            )


def ld_reconstruct(cls: PartialConceptClass, comp: CompressionOutput) -> Hypothesis:
    if comp.bits:
        raise CompressionFormatError("kept-set payloads carry no side bits")
    _check_payload(cls, comp)
    soa = Soa(cls)
    mask = cls.packed.mask_of(comp.subsample)
    if mask == 0:
        raise CompressionFormatError("kept set is not realizable by the class")
    return Hypothesis(tuple(soa(mask, x) for x in range(cls.domain_size)))


def reconstruct(cls: PartialConceptClass, comp: CompressionOutput) -> Hypothesis:
    """Rebuild the hypothesis from a compression payload.

    Empty bits mean a kept-set payload (SOA reconstruction); otherwise the
    bits are the binary round count of a boosting payload.
    """
    if not comp.bits:
        return ld_reconstruct(cls, comp)
    if any(b not in (0, 1) for b in comp.bits):
        raise CompressionFormatError(f"bits must be binary, got {comp.bits}")
    _check_payload(cls, comp)
    T = int("".join(str(b) for b in comp.bits), 2)
    if T <= 0:
        raise CompressionFormatError("round count must be positive")
    k = boosting_round_size(cls.vc)
    if len(comp.subsample) != T * k:
        raise CompressionFormatError(
            f"subsample length {len(comp.subsample)} does not split into "
            f"{T} rounds of {k} points"
        )
    hyps = []
    for t in range(T):
        train = labeled_sample(comp.subsample[t * k : (t + 1) * k])
        if not is_realizable(cls, train):
            raise CompressionFormatError(f"round {t} subsample is not realizable")
        hyps.append(materialize_transductive(cls, train))
    return Hypothesis.majority(hyps)


# ---------------------------------------------------------------------------
# agnostic learning


BOUND_CONSTANT = 4.0  # leading constant of the agnostic deviation bound


def _log(x: float) -> float:
    """max(ln x, 1): keeps the bound expressions monotone near small arguments."""
    return max(math.log(x), 1.0)


@dataclass
class AgnosticReport:
    hypothesis_error: Fraction
    class_error: Fraction
    kept: int
    bound: float


def agnostic_bound(vc: int, m: int, delta: float, empirical: float) -> float:
    """Empirical error plus the compression-style deviation term."""
    rate = (vc * _log(m) ** 2 + _log(1.0 / delta)) / m
    c = BOUND_CONSTANT
    return empirical + c * math.sqrt(empirical * rate) + c * rate


def agnostic_learn(
    cls: PartialConceptClass,
    sample: LabeledSample,
    delta: float = 0.05,
    seed: int = 0,
) -> tuple[Hypothesis, AgnosticReport]:
    """Fit the largest realizable subsequence, then boost it to consistency."""
    if not 0 < delta <= 1:
        raise ContractViolation(f"need 0 < delta <= 1, got delta = {delta}")
    if not sample:
        raise ContractViolation("agnostic learning requires a non-empty sample")
    kept = max_realizable_subsequence(cls, sample)
    if not kept:
        hyp = Hypothesis(tuple([0] * cls.domain_size))
    else:
        hyp, _ = alpha_boost_compress(cls, sample.subsample(kept), seed=seed)
    err = hyp.sample_error(sample)
    class_err = best_empirical_error(cls, sample)
    if err > class_err:
        raise AssertionError("the boosted fit must err at most where the class does")
    report = AgnosticReport(
        hypothesis_error=err,
        class_error=class_err,
        kept=len(kept),
        bound=agnostic_bound(cls.vc, len(sample), delta, float(class_err)),
    )
    return hyp, report
