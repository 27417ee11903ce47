"""Exact combinatorial complexity measures of partial concept classes.

Everything here is enumeration-based and exact; the intended scale is desk
size (domains up to ~14 points, classes up to a few dozen concepts).

Every shattering notion splits the class into nonempty cells of concepts, one
pair of disjoint sides (A, B) per point, depth-first with each set carrying
its cells, so memory is bounded by depth: one largest-set search
(``first_largest``) and one recursive count fold (``shattered_weight``), which
builds no set.  Given an int stop bound the fold returns as soon as its sum
passes it, since a disambiguation vote needs only the order of two counts.
A class keeps its VC set and strength (``PartialConceptClass.vc_set`` and
``.strength``) once found.  VC, strength and support VC have one pair per
point; Natarajan and graph choose among three, and a set carries one cell
list per choice that still leaves every cell nonempty.  The empty subclass
has LD -1, below every nonempty one, so no LD reader needs an emptiness
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .core import (
    ONE,
    ZERO,
    ContractViolation,
    PartialConcept,
    PartialConceptClass,
    TotalConceptClass,
    is_realizable,
    labeled_sample,
)


def is_shattered(cls: PartialConceptClass, points: Sequence[int]) -> bool:
    """A point set is shattered when every binary pattern on it is realized."""
    return len(cls.binary_patterns(points)) == 2 ** len(points)


def first_largest(choices, mask: int) -> tuple[int, ...]:
    """The lexicographically first largest point set at which a choice among
    ``choices`` (sides sequences, one disjoint pair (A, B) per point) splits
    the subclass ``mask`` into nonempty cells, found depth-first: a set
    carries one cell list per choice that leaves no cell empty, and is skipped
    when it cannot outgrow the largest found even with every later point.
    """
    n = len(choices[0])
    pts: list[int] = []
    path = []  # path[k]: the cell lists the set pts[:k] carries
    # a cell of one concept never splits, so a list holding one is dropped
    carried = [[mask]] if mask & (mask - 1) else []
    best, x = (), 0
    while True:
        if x < n and carried and len(pts) + n - x > len(best):
            out = []
            found = False
            for sides in choices:
                a_side, b_side = sides[x]
                for cells in carried:
                    split = []
                    deep = True
                    for m in cells:
                        a = m & a_side
                        if not a:
                            break
                        b = m & b_side
                        if not b:
                            break
                        split.append(a)
                        split.append(b)
                        deep = deep and a & (a - 1) and b & (b - 1)
                    else:
                        found = True
                        if deep:
                            out.append(split)
            if found:
                pts.append(x)
                path.append(carried)
                carried = out
                if len(pts) > len(best):
                    best = tuple(pts)
            x += 1
        elif pts:
            x = pts.pop() + 1
            carried = path.pop()
        else:
            return best


def shattered_weight(sides, mask: int, weight, stop: Optional[int] = None) -> int:
    """Sum of ``weight[max S]`` over the nonempty point sets S that the
    subclass ``mask`` shatters, where ``sides[x]`` is point x's pair (A, B).

    With an int ``stop`` the fold returns as soon as its running sum passes
    ``stop``: a result at most ``stop`` is exact, and a larger one only says
    that the sum exceeds ``stop``."""
    if not mask & (mask - 1):
        return 0
    if stop is None:  # 2^n sets of weight at most sum(weight): never passed
        stop = sum(weight) << len(weight)
    return _weight_after(sides, [mask], 0, weight, stop)


def _weight_after(sides, cells, start, weight, stop):
    """``shattered_weight`` over the extensions of a set's ``cells`` by points
    >= start, returning once the sum passes ``stop``."""
    total = 0
    for x in range(start, len(sides)):
        a_side, b_side = sides[x]
        split = []
        deep = True
        for m in cells:
            a = m & a_side
            if not a:
                break
            b = m & b_side
            if not b:
                break
            split.append(a)
            split.append(b)
            deep = deep and a & (a - 1) and b & (b - 1)
        else:
            total += weight[x]
            if deep:  # a one-concept cell never splits, so depth <= log2 |mask|
                total += _weight_after(sides, split, x + 1, weight, stop - total)
            if total > stop:
                return total
    return total


def vc_dimension(cls: PartialConceptClass, witness: bool = False):
    """Largest shattered subset size.

    With ``witness=True`` returns ``(value, points)``, where ``points`` is the
    lexicographically first shattered set of that size.
    """
    pts = cls.vc_set
    return (len(pts), pts) if witness else len(pts)


def subclass_strength(cls: PartialConceptClass, mask: int) -> int:
    """Number of subsets the subclass ``mask`` shatters, counting the empty
    set; 0 for the empty subclass."""
    if not mask:
        return 0
    return 1 + shattered_weight(cls.packed.label_masks, mask, [1] * cls.domain_size)


def shattering_strength(cls: PartialConceptClass) -> int:
    """Number of shattered subsets of the domain, counting the empty set."""
    return cls.strength


class LdSolver:
    """Littlestone-dimension recursion over subclasses encoded as concept bitmasks.

    Subclasses are masks of the class's ``packed`` encoding, so restriction
    is a single AND.  Values are exact and memoized per solver instance; each
    class builds one, ``PartialConceptClass.ld_solver``, which every reader
    shares.
    """

    def __init__(self, cls: PartialConceptClass):
        self.packed = cls.packed
        self._memo: dict[int, int] = {0: -1}

    def ld(self, mask: int) -> int:
        """LD of the subclass given by ``mask``; -1 for the empty subclass."""
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        # branch and bound: a depth-d tree needs 2^d concepts, and a point
        # raises best only when both restrictions reach it, so the smaller
        # restriction is tried first and cut below best
        top = mask.bit_count().bit_length() - 1
        best = 0
        for m0, m1 in self.packed.label_masks:
            if best == top:
                break
            m0 &= mask
            m1 &= mask
            if m0.bit_count() > m1.bit_count():
                m0, m1 = m1, m0
            if m0.bit_count() < 1 << best or (v := self.ld(m0)) < best:
                continue
            best = max(best, 1 + min(v, self.ld(m1)))
        self._memo[mask] = best
        return best


def littlestone_dimension(cls: PartialConceptClass) -> int:
    return cls.ld_solver.ld(cls.packed.full)


@dataclass(frozen=True)
class LittlestoneTree:
    """A complete binary mistake tree; children are None exactly at the leaves."""

    point: int
    zero: Optional["LittlestoneTree"]
    one: Optional["LittlestoneTree"]

    def paths(self):
        """Yield every root-to-leaf path as a tuple of (point, branch-bit) pairs."""
        if self.zero is None:
            yield ((self.point, 0),)
            yield ((self.point, 1),)
            return
        for tail in self.zero.paths():
            yield ((self.point, 0),) + tail
        for tail in self.one.paths():
            yield ((self.point, 1),) + tail


def littlestone_tree(cls: PartialConceptClass, d: int) -> Optional[LittlestoneTree]:
    """Extract a depth-d witness tree from the LD recursion (None when d = 0)."""
    packed = cls.packed
    solver = cls.ld_solver
    full = packed.full
    if not 0 <= d <= solver.ld(full):
        raise ContractViolation(
            f"the tree depth d must be between 0 and the Littlestone dimension "
            f"{solver.ld(full)}, got {d}"
        )

    def build(mask: int, depth: int) -> Optional[LittlestoneTree]:
        if depth == 0:
            return None
        for x in range(cls.domain_size):
            m0, m1 = packed.label_masks[x]
            m0 &= mask
            m1 &= mask
            if solver.ld(m0) >= depth - 1 and solver.ld(m1) >= depth - 1:
                return LittlestoneTree(x, build(m0, depth - 1), build(m1, depth - 1))
        raise AssertionError("recursion promised a deeper tree than it can build")

    tree = build(full, d)
    del build  # build's cell refers to build: a cycle the collector would free
    return tree


def verify_tree(cls: PartialConceptClass, tree: Optional[LittlestoneTree]) -> bool:
    if tree is None:
        return True
    return all(is_realizable(cls, labeled_sample(path)) for path in tree.paths())


def _bits(m: int):
    """The set bits of ``m``, in ascending order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def threshold_dimension(cls: PartialConceptClass, witness: bool = False):
    """Longest staircase: points x_1..x_d and concepts h_1..h_d with h_i(x_j)=1[i<=j].

    Depth-first search on masks of live points and concepts, in ascending
    order.  Choosing the next (x, h) with h(x)=1 restricts future concepts to
    those labeling all chosen points 0, and future points to those labeled 1
    by all chosen concepts.  Three cuts keep the first longest staircase:
    (1) a child is entered only if its depth plus its fewer live points or
    concepts beats the best; (2) under one x, a concept whose child points
    equal an earlier sibling's is skipped, as its subtree is the same; (3) a
    node stops unless its depth plus the most live points one live concept
    labels 1 beats the best, as the next chain concept is 1 at all of them.
    """
    label_masks = cls.packed.label_masks
    ones_at = [0] * len(cls.concepts)  # ones_at[r]: the points where concept r is 1
    for x, (_, m1) in enumerate(label_masks):
        for r in _bits(m1):
            ones_at[r] |= 1 << x
    best = 0
    best_chain: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

    def extend(points_avail, rows_avail, chain_pts, chain_rows):
        nonlocal best, best_chain
        depth = len(chain_pts)
        for r in _bits(rows_avail):  # cut 3
            if depth + (points_avail & ones_at[r]).bit_count() > best:
                break
        else:
            return
        for x in _bits(points_avail):
            m0, m1 = label_masks[x]
            nxt_rows = rows_avail & m0
            others = points_avail & ~(1 << x)
            firsts = {}  # cut 2: the first concept per distinct child point set
            for r in _bits(rows_avail & m1):
                firsts.setdefault(others & ones_at[r], r)
            for nxt_pts, r in firsts.items():
                if depth + 1 > best:
                    best = depth + 1
                    best_chain = (chain_pts + (x,), chain_rows + (r,))
                if depth + 1 + min(nxt_pts.bit_count(), nxt_rows.bit_count()) > best:
                    extend(nxt_pts, nxt_rows, chain_pts + (x,), chain_rows + (r,))

    extend((1 << cls.domain_size) - 1, cls.packed.full, (), ())
    del extend  # extend's cell refers to extend: a cycle the collector would free
    if witness:
        pts, row_ids = best_chain
        return best, (pts, tuple(cls.concepts[i] for i in row_ids))
    return best


@dataclass(frozen=True)
class MulticlassDimensions:
    natarajan: int
    graph: int
    support_vc: int


def natarajan_dimension(cls: PartialConceptClass) -> int:
    """N-shattering picks two labels at each point (STAR counts as a label) and
    needs every selection between them realized: one side per label."""
    m0, m1 = zip(*cls.packed.label_masks)
    star = cls.packed.star_masks
    choices = [list(zip(a, b)) for a, b in ((m0, m1), (m0, star), (m1, star))]
    return len(first_largest(choices, cls.packed.full))


def graph_dimension(cls: PartialConceptClass) -> int:
    """G-shattering splits by agreement with a ternary reference pattern: the
    concepts with the reference label at a point against all the others."""
    full = cls.packed.full
    masks = (*zip(*cls.packed.label_masks), cls.packed.star_masks)
    return len(first_largest([[(m, full & ~m) for m in ms] for ms in masks], full))


def support_vc_dimension(cls: PartialConceptClass) -> int:
    """VC dimension of the supports' indicator class: x maps to 1 iff h is defined."""
    full = cls.packed.full
    sides = [(star, full & ~star) for star in cls.packed.star_masks]
    return len(first_largest([sides], full))


def multiclass_dimensions(cls: PartialConceptClass) -> MulticlassDimensions:
    """Natarajan and graph dimensions of the three-label view, plus support VC."""
    return MulticlassDimensions(
        natarajan=natarajan_dimension(cls),
        graph=cls.graph,
        support_vc=support_vc_dimension(cls),
    )


def dual_vc_dimension(cls: PartialConceptClass) -> int:
    """VC dimension of the transposed class; defined for total classes only."""
    for h in cls.concepts:
        if not h.is_total():
            raise ContractViolation("dual VC dimension requires a total class")
    n = cls.domain_size
    transposed = {tuple(h[x] for h in cls.concepts) for x in range(n)}
    dual = TotalConceptClass(len(cls.concepts), tuple(PartialConcept(r) for r in transposed))
    d_star = vc_dimension(dual)
    d = cls.vc
    if d_star >= 2 ** (d + 1):  # Assouad: d* < 2^(d+1)
        raise AssertionError(f"dual dimension {d_star} reaches 2^(d+1) for d={d}")
    return d_star


# Each measure's value; vc, td and ld can also carry a witness.  The lambdas
# look each function up when called, so a wrapper set on the module sees it.
_VALUES = {
    "vc": lambda cls: cls.vc,
    "ld": lambda cls: littlestone_dimension(cls),
    "td": lambda cls: threshold_dimension(cls),
    "strength": lambda cls: shattering_strength(cls),
    "natarajan": lambda cls: natarajan_dimension(cls),
    "graph": lambda cls: cls.graph,
    "support-vc": lambda cls: support_vc_dimension(cls),
    "dual": lambda cls: dual_vc_dimension(cls),
}
MEASURES = tuple(_VALUES)


@dataclass
class DimensionReport:
    """A computed measure together with an optionally re-checkable witness."""

    measure: str
    value: int
    witness: Optional[object] = None

    def verify(self, cls: PartialConceptClass) -> Optional[bool]:
        """Re-check the witness against the class; None when there is none to check.

        The LD witness is a mistake tree; the empty tree (None) witnesses LD 0.
        """
        if self.measure == "vc" and self.witness is not None:
            pts = tuple(self.witness)
            return len(pts) == self.value and is_shattered(cls, pts)
        if self.measure == "td" and self.witness is not None:
            pts, hs = self.witness
            if len(pts) != self.value or len(hs) != self.value:
                return False
            return all(
                hs[i][pts[j]] == (ONE if i <= j else ZERO)
                for i in range(self.value)
                for j in range(self.value)
            )
        if self.measure == "ld" and (self.witness is not None or self.value == 0):
            tree = self.witness
            depths = {len(path) for path in tree.paths()} if tree else {0}
            return depths == {self.value} and verify_tree(cls, tree)
        return None


def measure_report(
    cls: PartialConceptClass, measure: str, witness: bool = False
) -> DimensionReport:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    if witness and measure == "vc":
        return DimensionReport("vc", *vc_dimension(cls, witness=True))
    if witness and measure == "td":
        return DimensionReport("td", *threshold_dimension(cls, witness=True))
    value = _VALUES[measure](cls)
    if witness and measure == "ld":
        return DimensionReport("ld", value, littlestone_tree(cls, value))
    return DimensionReport(measure, value)


def sauer_bound(n: int, d: int) -> int:
    """Sum of binomials C(n, 0..d): the ceiling for strength-style counts."""
    return sum(comb(n, i) for i in range(0, min(d, n) + 1))
