"""Ternary concepts over a finite domain, labeled samples, rational distributions.

Domain points are always the indices ``0 .. n-1``.  A concept assigns each
point one of three labels: 0, 1, or ``STAR``.  ``STAR`` means the concept is
undefined at that point, and any comparison against a 0/1 observation there
counts as a mistake.  All probability and error accounting in this module is
exact (``fractions.Fraction``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from math import factorial
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

ZERO, ONE, STAR = 0, 1, 2

_LABEL_CHARS = {ZERO: "0", ONE: "1", STAR: "*"}
_CHAR_LABELS = {"0": ZERO, "1": ONE, "*": STAR}


class ContractViolation(ValueError):
    """An operation was called outside its stated precondition."""


@dataclass(frozen=True, order=True)
class PartialConcept:
    """A ternary labeling of ``{0, ..., n-1}``; STAR marks undefined points."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.labels:
            if v not in (ZERO, ONE, STAR):
                raise ValueError(f"label must be 0, 1 or STAR, got {v!r}")

    @classmethod
    def parse(cls, text: str) -> "PartialConcept":
        try:
            return cls(tuple(_CHAR_LABELS[ch] for ch in text))
        except KeyError as exc:
            raise ValueError(
                f"bad concept character {exc.args[0]!r} in {text!r} (expected 0, 1 or *)"
            ) from None

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, x: int) -> int:
        return self.labels[x]

    def support(self) -> tuple[int, ...]:
        return tuple(x for x, v in enumerate(self.labels) if v != STAR)

    def is_total(self) -> bool:
        return STAR not in self.labels

    def sample_error(self, sample: "LabeledSample") -> Fraction:
        """The share of pairs mislabeled; a STAR mislabels every pair."""
        mistakes = sum(1 for x, y in sample if self.labels[x] != y)
        return Fraction(mistakes, len(sample))

    def __str__(self) -> str:
        return "".join(_LABEL_CHARS[v] for v in self.labels)


def concept(spec: Union[str, Sequence[int], PartialConcept]) -> PartialConcept:
    """Coerce a string like ``"01*"`` or a label sequence into a concept."""
    if isinstance(spec, PartialConcept):
        return spec
    if isinstance(spec, str):
        return PartialConcept.parse(spec)
    return PartialConcept(tuple(spec))


@dataclass(frozen=True)
class PartialConceptClass:
    """A finite, duplicate-free set of concepts over a shared domain.

    Concepts are deduplicated and stored in a canonical sorted order at
    construction, so equal classes compare equal regardless of input order.
    """

    domain_size: int
    concepts: tuple[PartialConcept, ...]

    def __post_init__(self) -> None:
        if self.domain_size <= 0:
            raise ValueError("domain_size must be positive")
        deduped = tuple(sorted(set(self.concepts)))
        if not deduped:
            raise ValueError("a concept class must contain at least one concept")
        for h in deduped:
            if len(h) != self.domain_size:
                raise ValueError(
                    f"concept {h} has length {len(h)}, expected {self.domain_size}"
                )
        object.__setattr__(self, "concepts", deduped)

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[PartialConcept]:
        return iter(self.concepts)

    def __contains__(self, h: PartialConcept) -> bool:
        return h in self.concepts

    def binary_patterns(self, points: Sequence[int]) -> set[tuple[int, ...]]:
        """All-0/1 restrictions realized on ``points`` (concepts with a STAR there drop out)."""
        packed = self.packed
        live = [(0, packed.full)]  # (pattern bits, concepts realizing them)
        for i, x in enumerate(points):
            m0, m1 = packed.label_masks[x]
            live = [
                (code | y << i, m & my)
                for code, m in live
                for y, my in ((ZERO, m0), (ONE, m1))
                if m & my
            ]
        k = len(points)
        return {tuple(code >> i & 1 for i in range(k)) for code, _ in live}

    @cached_property
    def packed(self) -> "PackedClass":
        """The class as concept bitmasks, built on first use."""
        return PackedClass(self)

    @cached_property
    def vc_set(self) -> tuple[int, ...]:
        """The lexicographically first largest shattered set, found on first use."""
        from .dimensions import first_largest  # dimensions builds on this module

        return first_largest([self.packed.label_masks], self.packed.full)

    @cached_property
    def vc(self) -> int:
        """The VC dimension, computed on first use."""
        from .dimensions import vc_dimension  # dimensions builds on this module

        return vc_dimension(self)

    @cached_property
    def strength(self) -> int:
        """The number of shattered subsets, the empty set included, counted on
        first use."""
        from .dimensions import subclass_strength  # dimensions builds on this module

        return subclass_strength(self, self.packed.full)

    @cached_property
    def graph(self) -> int:
        """The graph dimension of the three-label view, computed on first use."""
        from .dimensions import graph_dimension  # dimensions builds on this module

        return graph_dimension(self)

    @cached_property
    def ld_solver(self) -> "LdSolver":
        """The Littlestone-dimension solver, whose memo every LD reader shares."""
        from .dimensions import LdSolver  # dimensions builds on this module

        return LdSolver(self)

    @cached_property
    def one_inclusion(self) -> "OneInclusionCache":
        """The store of this class's one-inclusion graphs, one per point set."""
        from .learners import OneInclusionCache  # learners builds on this module

        return OneInclusionCache()


class PackedClass:
    """A class encoded as concept bitmasks: bit i stands for ``concepts[i]``.

    ``label_masks[x][y]`` is the set of concepts with label y at point x, so
    restricting a subclass ``mask`` to ``h(x) = y`` is a single AND, and
    ``full`` is the whole class.  A concept with STAR at x is in neither mask
    but in ``star_masks[x]``.
    """

    __slots__ = ("full", "label_masks", "star_masks")

    def __init__(self, cls: PartialConceptClass):
        self.full = (1 << len(cls.concepts)) - 1
        self.label_masks = [[0, 0] for _ in range(cls.domain_size)]
        for i, h in enumerate(cls.concepts):
            for x, v in enumerate(h.labels):
                if v != STAR:
                    self.label_masks[x][v] |= 1 << i
        self.star_masks = [self.full & ~(m0 | m1) for m0, m1 in self.label_masks]

    def mask_of(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Concepts labeling every (point, bit) pair as observed."""
        mask = self.full
        for x, y in pairs:
            mask &= self.label_masks[x][y]
        return mask


@dataclass(frozen=True)
class TotalConceptClass(PartialConceptClass):
    """A concept class in which every label is 0 or 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for h in self.concepts:
            if not h.is_total():
                raise ValueError(f"total class contains a partial concept: {h}")


def concept_class(
    domain_size: int, items: Iterable[Union[str, Sequence[int], PartialConcept]]
) -> PartialConceptClass:
    return PartialConceptClass(domain_size, tuple(concept(it) for it in items))


def total_class(
    domain_size: int, items: Iterable[Union[str, Sequence[int], PartialConcept]]
) -> TotalConceptClass:
    return TotalConceptClass(domain_size, tuple(concept(it) for it in items))


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sequence of (point, bit) pairs; repeats are allowed."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # each distinct pair once, in order of first appearance, so the
        # first bad entry of the sequence is the one reported
        for x, y in dict.fromkeys(self.pairs):
            if y not in (ZERO, ONE):
                raise ValueError(f"sample label must be 0 or 1, got {y!r}")
            if x < 0:
                raise ValueError(f"sample point must be a nonnegative index, got {x!r}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self.pairs[i]

    def subsample(self, indices: Sequence[int]) -> "LabeledSample":
        return LabeledSample(tuple(self.pairs[i] for i in indices))


def _index_pair(x: object, y: object) -> tuple[int, int]:
    """A (point, label) entry as Python ints.  Numpy integers pass; a float or
    any other non-integer is rejected by name rather than truncated."""
    try:
        return index(x), index(y)
    except TypeError:
        raise ValueError(f"entry {(x, y)!r} must be a pair of integers") from None


def labeled_sample(pairs: Iterable[Sequence[int]]) -> LabeledSample:
    return LabeledSample(tuple(_index_pair(x, y) for x, y in pairs))


@dataclass(frozen=True)
class FiniteDistribution:
    """A rational-weighted distribution over (point, bit) pairs."""

    atoms: tuple[tuple[tuple[int, int], Fraction], ...]

    def __post_init__(self) -> None:
        seen = set()
        total = Fraction(0)
        for (x, y), w in self.atoms:
            if y not in (ZERO, ONE):
                raise ValueError(f"atom label must be 0 or 1, got {y!r}")
            if x < 0:
                raise ValueError(f"atom point must be a nonnegative index, got {x!r}")
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w}")
            if (x, y) in seen:
                raise ValueError(f"duplicate atom {(x, y)}")
            seen.add((x, y))
            total += w
        if total != 1:
            raise ValueError(f"atom weights must sum to 1 exactly, got {total}")
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms)))

    def support_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(pair for pair, _ in self.atoms)

    @cached_property
    def _cum_weights(self) -> np.ndarray:
        """The running totals of the float weights, summed in the order
        ``rng.choices`` sums them."""
        return np.array(list(accumulate(float(w) for _, w in self.atoms)))

    @cached_property
    def _twister(self):
        """A numpy MT19937 to run a generator's state in, built once (about
        130 us); ``numpy.random`` is imported on the first draw."""
        from numpy.random import RandomState
        return RandomState(0)

    def draw(self, rng: random.Random, n: int) -> np.ndarray:
        """The atom indices of n independent draws from ``rng``, as a 1-D array
        of the smallest unsigned type that holds them.

        The indices, and the state ``rng`` is left in, are exactly those of
        ``rng.choices(range(len(atoms)), weights=[float(w), ...], k=n)``, so a
        draw of a and then of b indices is one draw of a + b.  ``rng``'s
        Mersenne Twister state is copied into a numpy ``RandomState``, whose
        ``random_sample`` runs the same MT19937 in C and makes each value as
        ``random()`` does, ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over the
        next two 32-bit words a and b; the advanced state is written back.  A
        draw is the first atom whose running weight exceeds ``random() *
        total``, the last at most.
        """
        if n < 0:
            raise ContractViolation(f"sample size must be nonnegative, got {n}")
        try:
            version, key, gauss = rng.getstate()
        except NotImplementedError:
            raise ContractViolation(f"cannot draw from {type(rng).__name__}: it has no state") from None
        cum, twister = self._cum_weights, self._twister
        twister.set_state(("MT19937", key[:-1], key[-1]))
        u = twister.random_sample(n)
        _, words, pos = twister.get_state()[:3]
        rng.setstate((version, (*words.tolist(), pos), gauss))
        u *= cum[-1]
        # the count of running weights at most u * total, short of the last,
        # one comparison pass per weight: a class has few atoms per point
        index = np.zeros(n, np.min_scalar_type(len(cum) - 1))
        for c in cum[:-1]:
            index += c <= u
        return index

    def sample(self, rng: random.Random, n: int) -> LabeledSample:
        """The pairs of ``draw(rng, n)``: ``rng.choices`` over the atom pairs."""
        pairs = self.support_pairs()
        return LabeledSample(tuple(pairs[i] for i in self.draw(rng, n).tolist()))


def finite_distribution(atoms: Mapping[tuple[int, int], object]) -> FiniteDistribution:
    """Build a distribution from ``{(x, y): weight}``."""
    return FiniteDistribution(
        tuple((_index_pair(x, y), Fraction(w)) for (x, y), w in atoms.items())
    )


def uniform_on(pairs: Iterable[Sequence[int]]) -> FiniteDistribution:
    pairs = [_index_pair(x, y) for x, y in pairs]
    if not pairs:
        raise ValueError("a uniform distribution needs a nonempty support, got []")
    w = Fraction(1, len(pairs))
    return FiniteDistribution(tuple(((x, y), w) for x, y in pairs))


def check_points(cls: PartialConceptClass, pairs: Iterable[tuple[int, int]]) -> None:
    """Raise ``ValueError`` naming the first pair's point outside the domain."""
    for x, _ in pairs:
        if not 0 <= x < cls.domain_size:
            raise ValueError(
                f"point index {x} out of range for domain of size {cls.domain_size}"
            )


def is_realizable(cls: PartialConceptClass, sample: LabeledSample) -> bool:
    """True iff some concept is defined on all sample points with the observed bits."""
    check_points(cls, sample)
    return cls.packed.mask_of(sample) != 0


def max_realizable_subsequence(
    cls: PartialConceptClass, pairs: Sequence[tuple[int, int]]
) -> tuple[int, ...]:
    """Indices of a largest subsequence whose induced subsample is realizable.

    A subsequence is realizable iff a single concept agrees with all of its
    entries, so the maximum is attained by some concept's full agreement set.
    Scanning those sets is exact in O(|H| * |S|); of equally large sets the
    first in class order is returned.
    """
    check_points(cls, pairs)
    best: tuple[int, ...] = ()
    for h in cls.concepts:
        agree = tuple(i for i, (x, y) in enumerate(pairs) if h[x] == y)
        if len(agree) > len(best):
            best = agree
    return best


def min_mistakes(cls: PartialConceptClass, pairs: Sequence[tuple[int, int]]) -> int:
    """Fewest disagreements of any single concept with the pair sequence: the
    pairs outside the largest agreement set."""
    return len(pairs) - len(max_realizable_subsequence(cls, pairs))


def approximation_error(
    cls: PartialConceptClass, dist: FiniteDistribution, n: int
) -> Fraction:
    """The expected best empirical error of size-n samples, computed exactly.

    Enumerates all size-n multisets of atoms with their multinomial weights,
    which is feasible for small n and small support.
    """
    if n < 1:
        raise ContractViolation("n must be at least 1")
    total = Fraction(0)
    for combo in combinations_with_replacement(dist.atoms, n):
        weight = Fraction(factorial(n))
        counts: dict[tuple[int, int], int] = {}
        for pair, _ in combo:
            counts[pair] = counts.get(pair, 0) + 1
        for c in counts.values():
            weight /= factorial(c)
        for _, w in combo:
            weight *= w
        pairs = [pair for pair, _ in combo]
        total += weight * Fraction(min_mistakes(cls, pairs), n)
    return total
