"""Batch learners: one-inclusion prediction, the PAC wrapper, boosting
compression, and the agnostic reduction.

The one-inclusion predictor is transductive: it never materializes a global
hypothesis by itself.  It is evaluated over the finite domain in one place,
once per set of distinct training pairs: the hypothesis table beside the
graphs in the class's ``one_inclusion`` store.  The leave-one-out error reads
one oriented graph and needs no predictor.  The PAC wrapper scores a block of
trials in one pass over their rows of atom indices: one count of the atoms
each batch saw, one table lookup per distinct seen set, and one validation
score per batch.

Every hypothesis is a total ``core.PartialConcept`` (no STAR); boosting and
its reconstruction share one majority rule, ``majority_vote``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, compress
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    ContractViolation,
    LabeledSample,
    PartialConcept,
    PartialConceptClass,
    check_points,
    is_realizable,
    labeled_sample,
    max_realizable_subsequence,
)
from .dimensions import first_largest, littlestone_dimension
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
    a VC-d class has edge density at most d (the ``one-inclusion-loo`` suite
    checks this lemma on every graph it builds).
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
        self.vc = len(first_largest([sides], defined))
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
        self._hypotheses: dict[frozenset, PartialConcept] = {}

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
    ) -> PartialConcept:
        """The one-inclusion predictor trained on ``pairs``, at every domain point.

        Only two patterns on the training points plus a test point can agree
        with the training labels: those labels completed with 0 or with 1 at
        the test point.  When one is realizable its label is the prediction;
        when both are, the edge between them points at it.  The predictor
        reads only the distinct training pairs, so each set is fitted once; a
        set that is not realizable raises and is not stored.
        """
        self._serve(cls)
        h = self._hypotheses.get(pairs)
        if h is None:
            if not is_realizable(cls, LabeledSample(tuple(pairs))):
                raise ContractViolation("training sample is not realizable by the class")
            # a realizable sample labels each point one way
            constraints = dict(pairs)
            mask = cls.packed.mask_of(pairs)
            labels = []
            for test, (m0, m1) in enumerate(cls.packed.label_masks):
                if test in constraints:
                    labels.append(constraints[test])
                elif not mask & m0 or not mask & m1:
                    labels.append(1 if mask & m1 else 0)
                else:
                    points = tuple(sorted({*constraints, test}))
                    a = tuple(constraints.get(x, 0) for x in points)
                    b = tuple(constraints.get(x, 1) for x in points)
                    head = self.graph(cls, points).oriented_toward(a, b)
                    labels.append(head[points.index(test)])
            h = PartialConcept(tuple(labels))
            self._hypotheses[pairs] = h
        return h


def one_inclusion_predict(
    cls: PartialConceptClass, train: LabeledSample, test: int
) -> int:
    """Predict the test label from the oriented one-inclusion graph."""
    h = materialize_transductive(cls, train)
    if not 0 <= test < cls.domain_size:
        raise ValueError(
            f"test point {test} out of range for domain of size {cls.domain_size}"
        )
    return h.labels[test]


def materialize_transductive(
    cls: PartialConceptClass, train: LabeledSample
) -> PartialConcept:
    """Evaluate the one-inclusion predictor at every domain point."""
    return cls.one_inclusion.hypothesis(cls, frozenset(train.pairs))


def loo_error(cls: PartialConceptClass, sample: LabeledSample) -> Fraction:
    """Exact permutation-averaged leave-one-out error of the predictor.

    The predictor ignores the order of its training sequence, so averaging
    over all |S|! permutations reduces to leaving each entry out once.  An
    entry whose point occurs again in S costs nothing: the rest still labels
    it.  Without an entry whose point x occurs once, the rest can complete
    only to S's labeling v on S's distinct points or to v flipped at x, so
    the predictor errs at x exactly when the edge there is an out-edge of v.
    Realizability is checked once and one graph is read.
    """
    if not sample:
        raise ContractViolation("leave-one-out needs a non-empty sample")
    if not is_realizable(cls, sample):
        raise ContractViolation("leave-one-out needs a realizable sample")
    counts = Counter(x for x, _ in sample)
    labels = dict(sample.pairs)
    points = tuple(sorted(labels))
    graph = cls.one_inclusion.graph(cls, points)
    v = tuple(labels[x] for x in points)
    # each head differs from v at one point, the one the predictor gets wrong
    heads = (graph.patterns[w] for w in graph.out[graph.index[v]])
    once = (counts[x] == 1 for h in heads for x, a, b in zip(points, v, h) if a != b)
    return Fraction(sum(once), len(sample))


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
    if not 0 < eps < 1:
        raise ContractViolation(f"need 0 < eps < 1, got eps = {eps}")
    if not 0 < delta <= 1:
        raise ContractViolation(f"need 0 < delta <= 1, got delta = {delta}")
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
) -> list[PartialConcept]:
    """For each row of ``picks``, a ``(trials, m)`` array of atom indices:
    train one-inclusion on disjoint batches of the sample ``atoms[row]`` and
    keep the validation winner, the first batch on ties.

    A batch's hypothesis depends only on the atoms it saw, so each distinct
    seen set of the block is looked up once in the hypothesis table of
    ``graphs``.
    """
    schedule = pac_schedule(cls.vc, eps, delta)
    picks = np.asarray(picks)
    if picks.ndim != 2:
        raise ContractViolation(f"picks must be a (trials, m) array, got {picks.shape}")
    trials, m = picks.shape
    if m < schedule.total:
        raise ContractViolation(
            f"sample of size {m} is too short; "
            f"the wrapper needs m = {schedule.total} "
            f"({schedule.batches} batches of {schedule.batch_size} "
            f"plus {schedule.validation_size} validation points)"
        )
    check_points(cls, atoms)
    k, a = schedule.batches, len(atoms)
    bad = (picks < 0) | (picks >= a)
    if bad.any():
        raise ContractViolation(
            f"pick {picks[bad][0]} is not an atom index; there are {a} atoms"
        )
    # counts[r, i, j]: atom j's picks in row r's batch i < k, or in its
    # validation points for i = k
    starts = np.arange(k + 1) * schedule.batch_size
    counts = np.zeros((trials, k + 1, a), np.intp)
    for j in range(a):
        counts[:, :, j] = np.add.reduceat(picks[:, : schedule.total] == j, starts, axis=1)
    # each batch's seen set as one byte string, numbered in sorted order
    seen = (counts[:, :k] > 0).reshape(trials * k, a)
    keys = seen.view(np.dtype((np.void, a))).ravel()
    _, first, batch_set = np.unique(keys, return_index=True, return_inverse=True)
    batch_set = batch_set.reshape(trials, k)
    hyps = [
        graphs.hypothesis(cls, frozenset(compress(atoms, s)))
        for s in seen[first].tolist()
    ]
    wrong = np.array([[h.labels[x] != y for x, y in atoms] for h in hyps]).reshape(len(hyps), a)
    # argmin keeps the first minimum: the first batch on ties
    scores = np.take_along_axis(counts[:, k] @ wrong.T, batch_set, axis=1)
    winners = np.take_along_axis(batch_set, scores.argmin(axis=1)[:, None], axis=1)
    return [hyps[i] for i in winners.ravel().tolist()]


def pac_learn_realizable(
    cls: PartialConceptClass,
    sample: LabeledSample,
    eps: float,
    delta: float,
    cache: Optional[OneInclusionCache] = None,
) -> PartialConcept:
    """``batch_and_validate`` on one row: the sample's distinct pairs,
    numbered by first appearance, with ``cache`` in place of the class's own
    store."""
    index = {pair: i for i, pair in enumerate(dict.fromkeys(sample.pairs))}
    picks = np.fromiter(map(index.__getitem__, sample.pairs), np.intp, len(sample))
    return batch_and_validate(
        cls, tuple(index), picks[None], eps, delta, cache or cls.one_inclusion
    )[0]


# ---------------------------------------------------------------------------
# boosting-based compression


WEAK_DRAWS = 256  # random k-point draws per round before the exhaustive search
EXHAUSTIVE_CAP = 200_000  # most k-multisets the exhaustive search may try


def boosting_round_cap(m: int) -> int:
    return math.ceil(72.0 * math.log(m + 2))


def boosting_round_size(vc: int) -> int:
    """Training points per weak hypothesis for a class of VC dimension ``vc``."""
    return 3 * max(vc, 1)


def majority_vote(ones: Iterable[int], voters: int) -> PartialConcept:
    """1 where more than half of ``voters`` vote 1 (``ones`` counts them per
    point), else 0: ties go to 0.  A payload rebuilds the fit's own majority."""
    return PartialConcept(tuple(1 if 2 * v > voters else 0 for v in ones))


def boost_to_consistency(
    domain_size: int,
    pairs: Sequence[tuple[int, int]],
    weak: Callable[[list[float], int], Sequence[int]],
    step: float,
    cap: int,
) -> tuple[PartialConcept, int]:
    """Multiplicative weights until the majority vote fits every pair.

    ``weak(weights, t)`` returns round t's labels of the whole domain for the
    current pair weights; each pair it mislabels then has its weight
    multiplied by ``step``.  Returns the ``majority_vote`` of the rounds and
    their number; raises ``BoostingCapExceeded`` when ``cap`` rounds pass
    without a consistent majority.
    """
    weights = [1.0] * len(pairs)
    ones = [0] * domain_size
    for t in range(1, cap + 1):
        labels = weak(weights, t)
        for x in range(domain_size):
            ones[x] += labels[x]
        majority = majority_vote(ones, t)
        if all(majority.labels[x] == y for x, y in pairs):
            return majority, t
        for i, (x, y) in enumerate(pairs):
            if labels[x] != y:
                weights[i] *= step
        top = max(weights)
        if top > 1e250:  # keep the float weights in range on long runs
            weights = [w / top for w in weights]
    raise BoostingCapExceeded(
        f"no consistent majority within {cap} rounds on {len(pairs)} points"
    )


def _weak_hypothesis(
    cls: PartialConceptClass,
    pairs: Sequence[tuple[int, int]],
    weights: Sequence[float],
    k: int,
    rng: random.Random,
) -> tuple[PartialConcept, LabeledSample]:
    """A k-point-trained hypothesis with weighted error at most 1/3.

    Random draws from the current distribution almost always work (the
    expected error is below 1/3); exhaustive search over k-multisets of the
    distinct pairs is the fallback.
    """
    total = sum(weights)

    def weighted_error(h: PartialConcept) -> float:
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
) -> tuple[PartialConcept, CompressionOutput]:
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
    majority, T = boost_to_consistency(cls.domain_size, pairs, weak, 2.0, cap)
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


def ld_reconstruct(cls: PartialConceptClass, comp: CompressionOutput) -> PartialConcept:
    if comp.bits:
        raise CompressionFormatError("kept-set payloads carry no side bits")
    _check_payload(cls, comp)
    soa = Soa(cls)
    mask = cls.packed.mask_of(comp.subsample)
    if mask == 0:
        raise CompressionFormatError("kept set is not realizable by the class")
    return PartialConcept(tuple(soa(mask, x) for x in range(cls.domain_size)))


def reconstruct(cls: PartialConceptClass, comp: CompressionOutput) -> PartialConcept:
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
        hyps.append(materialize_transductive(cls, train).labels)
    return majority_vote(map(sum, zip(*hyps)), T)


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
) -> tuple[PartialConcept, AgnosticReport]:
    """Fit the largest realizable subsequence, then boost it to consistency."""
    if not 0 < delta <= 1:
        raise ContractViolation(f"need 0 < delta <= 1, got delta = {delta}")
    if not sample:
        raise ContractViolation("agnostic learning requires a non-empty sample")
    kept = max_realizable_subsequence(cls, sample)
    if not kept:
        hyp = PartialConcept((0,) * cls.domain_size)
    else:
        hyp, _ = alpha_boost_compress(cls, sample.subsample(kept), seed=seed)
    err = hyp.sample_error(sample)
    class_err = Fraction(len(sample) - len(kept), len(sample))
    if err > class_err:
        raise AssertionError("the boosted fit must err at most where the class does")
    report = AgnosticReport(
        hypothesis_error=err,
        class_error=class_err,
        kept=len(kept),
        bound=agnostic_bound(cls.vc, len(sample), delta, float(class_err)),
    )
    return hyp, report
