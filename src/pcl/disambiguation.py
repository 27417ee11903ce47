"""Total classes that disambiguate partial ones, and the biclique lower bound.

Two sequential disambiguation procedures are implemented.  Both write a total
extension of a given concept point by point, following one vote over the
maintained consistent subclass (``_run_sequential``) and updating that
subclass only when the concept forces the losing label.  The vote compares a
potential of the subclass's two restrictions:

* the strength vote uses the number of shattered subsets of the whole
  domain, giving at most ``log2 s(H)`` updates per concept;
* the weighted vote uses a sum of ``1 / max(S)^(d+1)`` over shattered
  subsets of the remaining suffix, summed as one integer over the common
  denominator ``lcm(1..n)^(d+1)``, giving at most ``(d+1) log2(m) + 2``
  updates within every prefix of length m.

Both potentials are ``dimensions.shattered_weight`` folds, so votes compare
integer numerators, in the fractions' order, ties to 0.  Each update at least
halves the relevant potential, which is what the update bounds certify.  Only
the order of the two potentials matters: a vote counts the restriction with
fewer concepts exactly and the other only until it passes that count.
Concepts that agree so far share their subclass and hence their votes, so one
pass over the points walks them as groups and asks each vote once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb, lcm
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    ONE,
    STAR,
    ZERO,
    ContractViolation,
    PartialConcept,
    PartialConceptClass,
    TotalConceptClass,
)
from .dimensions import _bits, littlestone_dimension, shattered_weight
from .learners import CompressionOutput, ld_reconstruct


@dataclass
class Disambiguation:
    """Result of a disambiguation procedure.

    ``extension_of`` maps each input concept to its total extension when the
    procedure is strong (per-concept); it is ``None`` for set-level (weak)
    constructions.  ``update_positions`` records, per concept, the domain
    points where the sequential procedures were forced off the majority.
    """

    totals: TotalConceptClass
    algorithm: str
    extension_of: Optional[dict[PartialConcept, PartialConcept]] = None
    update_positions: Optional[dict[PartialConcept, tuple[int, ...]]] = None
    info: dict = field(default_factory=dict)

    def update_count(self, h: PartialConcept) -> int:
        return len(self.update_positions[h])

    def prefix_update_count(self, h: PartialConcept, m: int) -> int:
        """Updates among the first m domain points (points 0..m-1)."""
        return sum(1 for x in self.update_positions[h] if x < m)


def _scaled_weights(cls: PartialConceptClass) -> tuple[list[int], int]:
    """Point p's weight 1/(p+1)^(d+1), d = VC(H), as an integer over the
    common denominator lcm(1..n)^(d+1); and that denominator."""
    n, exponent = cls.domain_size, cls.vc + 1
    lcm_n = lcm(*range(1, n + 1))
    return [(lcm_n // (p + 1)) ** exponent for p in range(n)], lcm_n**exponent


def _suffix_numerator(
    sides, scaled: list[int], mask: int, x: int, stop: Optional[int] = None
) -> int:
    """The weighted vote's potential of the subclass ``mask`` after point x,
    over the denominator of ``_scaled_weights``: the sum of 1/max(S)^(d+1)
    over nonempty subsets S of {x+1, ..} that it shatters, points counted
    from 1, where ``sides`` are the label masks and ``scaled`` the weights;
    counted only until it passes ``stop``, as in ``shattered_weight``."""
    return shattered_weight(sides[x + 1 :], mask, scaled[x + 1 :], stop)


Potential = Callable[[int, int, Optional[int]], int]


def _vote(potential: Potential, m0: int, m1: int, x: int) -> int:
    """0 when ``potential(m0, x)`` is at least ``potential(m1, x)``, else 1.
    The restriction with fewer concepts is counted exactly, and the other
    only until its count passes the first."""
    if m0.bit_count() <= m1.bit_count():
        w0 = potential(m0, x, None)
        return ZERO if w0 >= potential(m1, x, w0) else ONE
    w1 = potential(m1, x, None)
    return ONE if w1 > potential(m0, x, w1) else ZERO


def _run_sequential(
    cls: PartialConceptClass, potential: Potential, algorithm: str
) -> Disambiguation:
    """Extend every concept point by point, narrowing its consistent subclass
    only where it forces the label that lost the vote.

    At x the vote compares ``potential(m, x, stop)`` of the subclass's two
    restrictions, ties to 0; a label no concept of the subclass takes loses
    outright, or concepts with nothing shattered left would be forced into
    updates.  The pass carries groups (members, subclass, labels as bits,
    update points) and splits off the members forced to the losing label,
    whose subclass then excludes the members that stayed: no two groups share
    a subclass, so each (subclass, point) is voted on once."""
    packed = cls.packed
    groups = [(packed.full, packed.full, 0, ())]
    for x in range(cls.domain_size):
        sides = packed.label_masks[x]
        split = []
        for members, mask, code, upd in groups:
            m0, m1 = sides[ZERO] & mask, sides[ONE] & mask
            y = _vote(potential, m0, m1, x) if m0 and m1 else (ONE if m1 else ZERO)
            lost = 1 - y
            forced = members & sides[lost]
            if forced:
                split.append((forced, mask & sides[lost], code | lost << x, upd + (x,)))
            if members != forced:
                split.append((members ^ forced, mask, code | y << x, upd))
        groups = split
    n, concepts = cls.domain_size, cls.concepts
    extension, updates = [None] * len(concepts), [None] * len(concepts)
    for members, _, code, upd in groups:
        total = PartialConcept(tuple(code >> x & 1 for x in range(n)))
        for i in _bits(members):
            extension[i], updates[i] = total, upd
    return Disambiguation(
        totals=TotalConceptClass(n, tuple(set(extension))),
        algorithm=algorithm,
        extension_of=dict(zip(concepts, extension)),
        update_positions=dict(zip(concepts, updates)),
        info={"vc": cls.vc},
    )


def vc_majority_disambiguate(cls: PartialConceptClass) -> Disambiguation:
    """Strength-vote sequential disambiguation; u(h) <= log2 s(H) per concept.

    Both restrictions of a vote are nonempty, so the vote compares their
    strengths less the empty set's 1."""
    sides, ones = cls.packed.label_masks, [1] * cls.domain_size
    res = _run_sequential(
        cls, lambda mask, x, stop: shattered_weight(sides, mask, ones, stop), "majority"
    )
    res.info["strength"] = cls.strength
    return res


def weighted_disambiguate(cls: PartialConceptClass) -> Disambiguation:
    """Weighted-vote variant with the per-prefix update guarantee."""
    sides = cls.packed.label_masks
    scaled, _ = _scaled_weights(cls)  # once per call: votes compare numerators
    return _run_sequential(
        cls,
        lambda mask, x, stop: _suffix_numerator(sides, scaled, mask, x, stop),
        "weighted",
    )


def strong_violation(
    cls: PartialConceptClass, totals: TotalConceptClass
) -> Optional[PartialConcept]:
    """A concept with no agreeing total extension, or None."""
    for h in cls.concepts:
        if not totals.packed.mask_of((x, h[x]) for x in h.support()):
            return h
    return None


def weak_violation(cls: PartialConceptClass, totals: TotalConceptClass, max_len: int):
    """A realizable (points, pattern) pair the totals miss, or None.

    Checks every set of at most ``max_len`` distinct points, smallest first.
    """
    n = cls.domain_size
    for k in range(1, min(max_len, n) + 1):
        for pts in combinations(range(n), k):
            missing = cls.binary_patterns(pts) - totals.binary_patterns(pts)
            if missing:
                return pts, sorted(missing)[0]
    return None


ENUMERATION_BUDGET = 200_000  # most kept sets the compression is rebuilt from
VERIFY_LEN = 3  # longest point sets on which the rebuilt totals are checked
VERIFY_BUDGET = 100_000  # most such sets; n = 84 has 98 854, n = 85 has 102 425


def compression_to_disambiguation(cls: PartialConceptClass) -> Disambiguation:
    """Totals rebuilt by SOA from every realizable kept set of at most LD pairs.

    The kept-set compression (``learners.ld_compress``) keeps at most
    k = LD(H) pairs, and its reconstruction reads only the mask of the kept
    pairs, which order and repeats do not change; so sets of at most k
    distinct pairs give every total it can rebuild.  The result is then
    verified to weakly disambiguate the class on every set of at most
    ``VERIFY_LEN`` points, and a violation is reported as evidence that the
    compression was not valid for the class.  A domain with more than
    ``VERIFY_BUDGET`` such sets, or more than ``ENUMERATION_BUDGET`` kept
    sets, is refused before any work.
    """
    n = cls.domain_size
    point_sets = sum(comb(n, j) for j in range(1, VERIFY_LEN + 1))
    if point_sets > VERIFY_BUDGET:
        raise ValueError(f"verification on {point_sets} point sets exceeds the budget")
    k = littlestone_dimension(cls)
    pair_pool = [(x, y) for x in range(n) for y in (ZERO, ONE)]
    total_candidates = sum(comb(2 * n, j) for j in range(k + 1))
    if total_candidates > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration of {total_candidates} candidates exceeds the budget"
        )
    seen: set[PartialConcept] = set()
    for j in range(k + 1):
        for pairs in combinations(pair_pool, j):
            if cls.packed.mask_of(pairs):
                seen.add(ld_reconstruct(cls, CompressionOutput(pairs, ())))
    totals = TotalConceptClass(cls.domain_size, tuple(seen))
    bad = weak_violation(cls, totals, VERIFY_LEN)
    if bad is not None:
        pts, pattern = bad
        raise ContractViolation(
            "reconstruction enumeration misses the realizable sample "
            f"{list(zip(pts, pattern))}; the compression is not valid "
            "for this class"
        )
    return Disambiguation(
        totals=totals,
        algorithm="compression",
        info={
            "scheme_size": k,
            "candidates": total_candidates,
            "verified_len": VERIFY_LEN,
        },
    )


# most vertices of a biclique instance: K_300 takes about 0.8 s and 55 MiB in
# `construct biclique` and 1 s in `biclique-lower-bound`, K_400 1.5 s there
MAX_BICLIQUE_VERTICES = 300


def check_vertex_count(count: int, name: str) -> None:
    """Refuse ``count`` vertices over the limit, naming where they came from."""
    if count > MAX_BICLIQUE_VERTICES:
        raise ValueError(
            f"{name} = {count} exceeds the limit of {MAX_BICLIQUE_VERTICES} vertices"
        )


@dataclass(frozen=True)
class BicliqueInstance:
    """A graph plus a partition of its edges into complete bipartite pieces."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    partition: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n_vertices, "vertices")
        object.__setattr__(
            self,
            "edges",
            tuple(tuple(sorted(e)) for e in self.edges),
        )
        object.__setattr__(
            self,
            "partition",
            tuple(
                (tuple(sorted(left)), tuple(sorted(right)))
                for left, right in self.partition
            ),
        )
        edge_set = set(self.edges)
        if len(edge_set) != len(self.edges):
            raise ValueError("duplicate edges in graph")
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of vertex range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
        covered: set[tuple[int, int]] = set()
        for idx, (left, right) in enumerate(self.partition):
            for v in left + right:
                if not 0 <= v < self.n_vertices:
                    raise ValueError(f"biclique {idx} names vertex {v} out of range")
            if set(left) & set(right):
                raise ValueError(f"biclique {idx} has overlapping sides")
            for u in left:
                for v in right:
                    e = tuple(sorted((u, v)))
                    if e not in edge_set:
                        raise ValueError(
                            f"biclique {idx} covers non-edge {e}"
                        )
                    if e in covered:
                        raise ValueError(
                            f"edge {e} covered by more than one biclique"
                        )
                    covered.add(e)
        missing = edge_set - covered
        if missing:
            raise ValueError(f"edges not covered by any biclique: {sorted(missing)}")


def star_partition_instance(m: int) -> BicliqueInstance:
    """K_m with the star partition: biclique i is ({i}, {i+1, .., m-1})."""
    if m < 2:
        raise ValueError(f"the vertex count m must be at least 2, got {m}")
    check_vertex_count(m, "the vertex count m")
    edges = tuple((u, v) for u in range(m) for v in range(u + 1, m))
    partition = tuple(
        ((i,), tuple(range(i + 1, m))) for i in range(m - 1)
    )
    return BicliqueInstance(m, edges, partition)


def vertex_concepts(instance: BicliqueInstance) -> tuple[PartialConcept, ...]:
    """Each vertex's concept, in one pass over the partition: biclique j puts
    0 at coordinate j of its left side's rows, 1 at its right side's, and
    leaves STAR elsewhere."""
    rows = [[STAR] * len(instance.partition) for _ in range(instance.n_vertices)]
    for j, (left, right) in enumerate(instance.partition):
        for side, label in ((left, ZERO), (right, ONE)):
            for v in side:
                rows[v][j] = label
    return tuple(PartialConcept(tuple(row)) for row in rows)


def biclique_class(instance: BicliqueInstance) -> PartialConceptClass:
    """One concept per vertex over one coordinate per biclique."""
    return PartialConceptClass(len(instance.partition), vertex_concepts(instance))


@dataclass
class ColoringCertificate:
    is_proper: bool
    colors_used: int


def certify_coloring_lower_bound(
    instance: BicliqueInstance, disamb: Disambiguation
) -> ColoringCertificate:
    """Color each vertex by its concept's total extension and check properness.

    A proper coloring here shows that the disambiguation needs at least the
    chromatic number of the graph many distinct totals.
    """
    if disamb.extension_of is None:
        raise ContractViolation(
            "certification needs a strong disambiguation with per-concept extensions"
        )
    colors = []
    for v, c in enumerate(vertex_concepts(instance)):
        try:
            colors.append(disamb.extension_of[c])
        except KeyError:
            raise ContractViolation(
                f"disambiguation does not cover the concept of vertex {v}"
            ) from None
    proper = all(colors[u] != colors[v] for u, v in instance.edges)
    return ColoringCertificate(proper, len(set(colors)))


def support_indicator_disambiguation(cls: PartialConceptClass) -> Disambiguation:
    """Map STAR to 0 pointwise; simple but its VC is tied to the support structure."""
    extension = {
        h: PartialConcept(tuple(ONE if v == ONE else ZERO for v in h.labels))
        for h in cls.concepts
    }
    totals = TotalConceptClass(cls.domain_size, tuple(set(extension.values())))
    bar_vc = totals.vc
    graph_dim = cls.graph
    if bar_vc > graph_dim:
        raise AssertionError(
            f"indicator disambiguation VC {bar_vc} exceeds graph dimension {graph_dim}"
        )
    return Disambiguation(
        totals=totals,
        algorithm="support",
        extension_of=extension,
        update_positions={h: () for h in cls.concepts},
        info={"vc": bar_vc, "graph_dimension": graph_dim},
    )


TruthTable = Mapping[tuple[int, ...], int]


def majority_table(k: int) -> dict[tuple[int, ...], int]:
    """Majority of the defined values; STAR on ties or when nothing is defined.

    For k = 2 this is exactly the two-argument majority used in the closure
    failure construction.
    """
    table = {}
    for combo in product((ZERO, ONE, STAR), repeat=k):
        ones = sum(1 for v in combo if v == ONE)
        zeros = sum(1 for v in combo if v == ZERO)
        if ones > zeros:
            table[combo] = ONE
        elif zeros > ones:
            table[combo] = ZERO
        else:
            table[combo] = STAR
    return table


COMPOSE_BUDGET = 2_000_000  # most concept tuples a composition may enumerate


def majority_compose(
    classes: Sequence[PartialConceptClass], table: TruthTable
) -> PartialConceptClass:
    """Pointwise composition { x -> U(h_1(x), .., h_k(x)) } over all tuples."""
    if not classes:
        raise ValueError("need at least one class")
    n = classes[0].domain_size
    if any(c.domain_size != n for c in classes):
        raise ValueError("all classes must share a domain size")
    k = len(classes)
    for combo in product((ZERO, ONE, STAR), repeat=k):
        if combo not in table:
            raise ValueError(f"truth table is missing entry {combo}")
    count = 1
    for c in classes:
        count *= len(c)
    if count > COMPOSE_BUDGET:
        raise ValueError(f"composition over {count} tuples exceeds the budget")
    composed: set[PartialConcept] = set()
    for hs in product(*(c.concepts for c in classes)):
        labels = tuple(table[tuple(h[x] for h in hs)] for x in range(n))
        composed.add(PartialConcept(labels))
    return PartialConceptClass(n, tuple(composed))
