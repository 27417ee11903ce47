"""Brute-force reference implementations used to pin expected values.

Everything here follows the definitions literally (full enumeration, no
pruning, no memoization) so that the optimized package code is checked
against an independent path.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from pcl.core import STAR, LabeledSample, PartialConcept, PartialConceptClass, pattern_code
from pcl.geometry import PackingResult
from pcl.learners import OneInclusionGraph, pac_schedule


def patterns_on(cls: PartialConceptClass, pts) -> set[tuple[int, ...]]:
    out = set()
    for h in cls.concepts:
        pat = tuple(h[x] for x in pts)
        if STAR not in pat:
            out.add(pat)
    return out


def restrict(cls: PartialConceptClass, x: int, y: int):
    """The subclass with h(x) = y exactly, or None when no concept qualifies."""
    kept = tuple(h for h in cls.concepts if h[x] == y)
    return PartialConceptClass(cls.domain_size, kept) if kept else None


def realizable_by_definition(cls: PartialConceptClass, pairs) -> bool:
    """Some concept agrees with every (point, bit) pair."""
    return any(all(h[x] == y for x, y in pairs) for h in cls.concepts)


def shattered_sets_by_definition(cls: PartialConceptClass) -> list[tuple[int, ...]]:
    """Check every subset of every size against the shattering definition.

    Returns the shattered ones, the empty set included, by size and then
    lexicographically.
    """
    n = cls.domain_size
    return [
        pts
        for k in range(n + 1)
        for pts in combinations(range(n), k)
        if len(patterns_on(cls, pts)) == 2 ** k
    ]


def vc_by_definition(cls: PartialConceptClass) -> int:
    """The largest shattered size.  Every subset of a shattered set is
    shattered, so the search stops at the first size with none."""
    n = cls.domain_size
    d = 0
    while d < n and any(
        len(patterns_on(cls, pts)) == 2 ** (d + 1)
        for pts in combinations(range(n), d + 1)
    ):
        d += 1
    return d


def strength_by_definition(cls: PartialConceptClass) -> int:
    return len(shattered_sets_by_definition(cls))


def support_vc_by_definition(cls: PartialConceptClass) -> int:
    """VC of the indicator class of the supports: x maps to 1 iff h is defined at x."""
    rows = {tuple(int(v != STAR) for v in h.labels) for h in cls.concepts}
    indicators = tuple(PartialConcept(r) for r in rows)
    return vc_by_definition(PartialConceptClass(cls.domain_size, indicators))


def one_inclusion_by_definition(cls: PartialConceptClass, train, test: int) -> int:
    """The one-inclusion prediction read off the patterns on train + {test}.

    The realized patterns that agree with every training pair are the
    completions of the training labels; with two of them the prediction is
    the head of the edge joining them in a fresh one-inclusion graph.
    """
    labels = dict(train)
    points = tuple(sorted({*labels, test}))
    completions = sorted(
        pat
        for pat in patterns_on(cls, points)
        if all(pat[points.index(x)] == y for x, y in labels.items())
    )
    t = points.index(test)
    if not completions:
        return 0
    if len(completions) == 1:
        return completions[0][t]
    a, b = completions
    out = OneInclusionGraph(cls, points).out
    return (b if pattern_code(b) in out[pattern_code(a)] else a)[t]


def loo_by_definition(cls: PartialConceptClass, sample) -> Fraction:
    """The leave-one-out error read literally: each entry left out once and
    predicted by ``one_inclusion_by_definition`` from the rest."""
    pairs = list(sample)
    mistakes = sum(
        one_inclusion_by_definition(cls, pairs[:i] + pairs[i + 1 :], x) != y
        for i, (x, y) in enumerate(pairs)
    )
    return Fraction(mistakes, len(pairs))


def _ternary_patterns(cls: PartialConceptClass, pts) -> set[tuple[int, ...]]:
    return {tuple(h[x] for x in pts) for h in cls.concepts}


# the (f0(x), f1(x)) choices at one point when f0 and f1 differ there
_DIFFERING = [(a, b) for a in (0, 1, STAR) for b in (0, 1, STAR) if a != b]


def natarajan_by_definition(cls: PartialConceptClass) -> int:
    """Largest S with f0, f1: S -> {0, 1, *} differing everywhere such that every
    selection between them, point by point, is the restriction of some concept."""
    n = cls.domain_size
    best = 0
    for k in range(1, n + 1):
        for pts in combinations(range(n), k):
            pats = _ternary_patterns(cls, pts)
            for f in product(_DIFFERING, repeat=k):
                if all(
                    tuple(f[i][bits[i]] for i in range(k)) in pats
                    for bits in product((0, 1), repeat=k)
                ):
                    best = k
                    break
    return best


def graph_by_definition(cls: PartialConceptClass) -> int:
    """Largest S with f: S -> {0, 1, *} such that every T within S is exactly
    the set where some concept agrees with f."""
    n = cls.domain_size
    best = 0
    for k in range(1, n + 1):
        for pts in combinations(range(n), k):
            pats = _ternary_patterns(cls, pts)
            for f in product((0, 1, STAR), repeat=k):
                agreements = {tuple(p[i] == f[i] for i in range(k)) for p in pats}
                if len(agreements) == 2 ** k:
                    best = max(best, k)
    return best


def _largest_by_levels(n: int, holds) -> int:
    """Size of the largest point set satisfying the downward-closed ``holds``,
    growing level k+1 from level k and testing each set from scratch."""
    level, d = [()], 0
    while level := [
        pts + (x,) for pts in level for x in range(pts[-1] + 1 if pts else 0, n)
        if holds(pts + (x,))
    ]:
        d += 1
    return d


def splits(sides, mask: int, points) -> bool:
    """Whether splitting ``mask`` by ``sides[x] = (A, B)`` at each of ``points``
    leaves all 2^|points| cells nonempty: shattering when the sides are the
    0 and 1 label masks, a three-label notion otherwise."""
    cells = [mask]
    for x in points:
        if not all(cells):
            return False
        a_side, b_side = sides[x]
        cells = [half for m in cells for half in (m & a_side, m & b_side)]
    return all(cells)


def _natarajan_shatters(cls: PartialConceptClass, pts) -> bool:
    # one split of the whole class per choice of two labels at each point
    packed = cls.packed
    options = []
    for x in pts:
        (m0, m1), star = packed.label_masks[x], packed.star_masks[x]
        options.append([(a, b) for a, b in ((m0, m1), (m0, star), (m1, star)) if a and b])
    return any(splits(sides, packed.full, range(len(pts))) for sides in product(*options))


def _graph_shatters(cls: PartialConceptClass, pts) -> bool:
    # one split of the whole class per reference pattern the class realizes
    # on pts: the all-agree cell needs a concept equal to the reference
    packed = cls.packed
    agree = [  # agree[i][v]: (label v at pts[i], any other label), STAR last
        [(m, packed.full & ~m) for m in (*packed.label_masks[x], packed.star_masks[x])]
        for x in pts
    ]
    return any(
        splits([agree[i][v] for i, v in enumerate(ref)], packed.full, range(len(pts)))
        for ref in _ternary_patterns(cls, pts)
    )


def natarajan_by_splits(cls: PartialConceptClass) -> int:
    """The Natarajan dimension, re-splitting the class for every point set and
    every choice of label pairs."""
    return _largest_by_levels(cls.domain_size, lambda pts: _natarajan_shatters(cls, pts))


def graph_by_splits(cls: PartialConceptClass) -> int:
    """The graph dimension, re-splitting the class for every point set and
    every realized reference pattern."""
    return _largest_by_levels(cls.domain_size, lambda pts: _graph_shatters(cls, pts))


def _tree_exists(rows: list[tuple[int, ...]], n: int, d: int) -> bool:
    """Is there a depth-d mistake tree with all root-to-leaf paths realizable?"""
    if d == 0:
        return bool(rows)
    for x in range(n):
        r0 = [r for r in rows if r[x] == 0]
        r1 = [r for r in rows if r[x] == 1]
        if r0 and r1 and _tree_exists(r0, n, d - 1) and _tree_exists(r1, n, d - 1):
            return True
    return False


def ld_by_definition(cls: PartialConceptClass) -> int:
    rows = [h.labels for h in cls.concepts]
    n = cls.domain_size
    d = 0
    while _tree_exists(rows, n, d + 1):
        d += 1
    return d


def _soa_label_by_definition(cls: PartialConceptClass, x: int) -> int:
    """The label whose restriction at x has the larger LD (an empty one counts
    -1), ties to 0."""
    ld0, ld1 = (
        ld_by_definition(sub) if (sub := restrict(cls, x, y)) else -1 for y in (0, 1)
    )
    return 0 if ld0 >= ld1 else 1


def sequential_by_definition(cls: PartialConceptClass, vote: str):
    """The sequential disambiguation of each concept, label lists throughout:
    ``(extension_of, update_positions)`` with extensions as label tuples.

    At point x the maintained subclass votes between its restrictions to 0
    and 1 by a potential in Fractions, ties to 0; a label no concept of the
    subclass takes loses outright.  The ``"majority"`` potential counts the
    shattered sets, the empty one included; the ``"weighted"`` one sums
    1/(max S + 1)^(d+1) over the nonempty shattered S above x, d = VC(H).
    Where the concept forces the losing label, that label is written, the
    subclass is restricted to it and x is an update.
    """
    n, d = cls.domain_size, vc_by_definition(cls)

    def potential(concepts, x):
        sets = shattered_sets_by_definition(PartialConceptClass(n, concepts))
        if vote == "majority":
            return Fraction(len(sets))
        return sum(
            (Fraction(1, (pts[-1] + 1) ** (d + 1)) for pts in sets if pts and pts[0] > x),
            Fraction(0),
        )

    extensions, updates = {}, {}
    for h in cls.concepts:
        sub = cls.concepts
        out, upd = [], []
        for x in range(n):
            zeros = tuple(g for g in sub if g[x] == 0)
            ones = tuple(g for g in sub if g[x] == 1)
            if zeros and ones:
                y = 0 if potential(zeros, x) >= potential(ones, x) else 1
            else:
                y = 1 if ones else 0
            if h[x] != STAR and h[x] != y:
                y = h[x]
                sub = ones if y == 1 else zeros
                upd.append(x)
            out.append(y)
        extensions[h] = tuple(out)
        updates[h] = tuple(upd)
    return extensions, updates


def compression_totals_by_definition(cls: PartialConceptClass) -> set[tuple[int, ...]]:
    """SOA's rebuild from every realizable *sequence* of at most LD pairs.

    The class is restricted to each sequence pair by pair, and SOA then
    labels every point of the domain by definition.
    """
    n = cls.domain_size
    pool = [(x, y) for x in range(n) for y in (0, 1)]
    totals = set()
    for j in range(ld_by_definition(cls) + 1):
        for seq in product(pool, repeat=j):
            if not realizable_by_definition(cls, seq):
                continue
            sub = cls
            for x, y in seq:
                sub = restrict(sub, x, y)
            totals.add(tuple(_soa_label_by_definition(sub, x) for x in range(n)))
    return totals


def td_by_definition(cls: PartialConceptClass) -> int:
    """Try every ordered point tuple and concept tuple against the staircase."""
    n = cls.domain_size
    m = len(cls.concepts)
    best = 0
    for d in range(1, min(n, m) + 1):
        found = False
        for pts in product(range(n), repeat=d):
            if len(set(pts)) != d:
                continue
            for hs in product(range(m), repeat=d):
                if len(set(hs)) != d:
                    continue
                if all(
                    cls.concepts[hs[i]][pts[j]] == (1 if i <= j else 0)
                    for i in range(d)
                    for j in range(d)
                ):
                    found = True
                    break
            if found:
                break
        if found:
            best = d
        else:
            break
    return best


def td_search_by_labels(cls: PartialConceptClass):
    """The staircase depth-first search on label lists: ``(value, witness)``.

    Points and concepts are tried in ascending order, and the global best
    prunes a branch that cannot beat it, so the first longest staircase found
    is the one ``threshold_dimension`` must return.
    """
    rows = [h.labels for h in cls.concepts]
    best = 0
    best_chain = ((), ())

    def extend(points_avail, rows_avail, chain_pts, chain_rows):
        nonlocal best, best_chain
        depth = len(chain_pts)
        if depth + min(len(points_avail), len(rows_avail)) <= best:
            return
        for x in points_avail:
            for r in rows_avail:
                if rows[r][x] == 1:
                    if depth + 1 > best:
                        best = depth + 1
                        best_chain = (chain_pts + (x,), chain_rows + (r,))
                    nxt_rows = [r2 for r2 in rows_avail if rows[r2][x] == 0]
                    nxt_pts = [p for p in points_avail if p != x and rows[r][p] == 1]
                    extend(nxt_pts, nxt_rows, chain_pts + (x,), chain_rows + (r,))

    extend(list(range(cls.domain_size)), list(range(len(rows))), (), ())
    pts, row_ids = best_chain
    return best, (pts, tuple(cls.concepts[i] for i in row_ids))


def pac_by_definition(cls: PartialConceptClass, pairs, eps: float, delta: float):
    """The batch-and-validate wrapper batch by batch, on the pair sequence.

    Each batch's predictor is evaluated by definition at every domain point,
    scored by its mistakes over the validation pairs, and the first batch
    with the fewest mistakes wins.  Returns the winner's labels.
    """
    s = pac_schedule(vc_by_definition(cls), eps, delta)
    hyps = []
    for b in range(s.batches):
        batch = pairs[b * s.batch_size : (b + 1) * s.batch_size]
        hyps.append(
            tuple(one_inclusion_by_definition(cls, batch, x) for x in range(cls.domain_size))
        )
    lo = s.batches * s.batch_size
    validation = Counter(pairs[lo : lo + s.validation_size])
    scores = [sum(c for (x, y), c in validation.items() if h[x] != y) for h in hyps]
    return hyps[scores.index(min(scores))]


def max_realizable_by_enumeration(cls, sample: LabeledSample) -> tuple[int, ...]:
    """Scan all index subsets, largest first, lexicographic tie-break."""
    m = len(sample)
    for k in range(m, -1, -1):
        candidates = [
            idx
            for idx in combinations(range(m), k)
            if realizable_by_definition(cls, sample.subsample(idx))
        ]
        if candidates:
            return min(candidates)
    return ()


def approximation_error_by_product(cls, dist, n: int) -> Fraction:
    """Plain product-space enumeration (not multiset-grouped)."""
    total = Fraction(0)
    for combo in product(dist.atoms, repeat=n):
        weight = Fraction(1)
        for _, w in combo:
            weight *= w
        pairs = [pair for pair, _ in combo]
        best = min(
            sum(1 for x, y in pairs if h[x] != y) for h in cls.concepts
        )
        total += weight * Fraction(best, n)
    return total


def enclosing_ball_by_definition(points) -> tuple[np.ndarray, float]:
    """The smallest circumball, over subsets of at most D + 1 points, that
    contains every point.

    A subset's circumcenter is the point of its affine hull equidistant from
    its members, found with ``lstsq``; subsets with no such point (collinear
    triples, say) are skipped.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    scale = 1.0 + float(np.abs(pts).max())
    best = None
    for k in range(1, min(n, dim + 1) + 1):
        for subset in combinations(range(n), k):
            p0 = pts[subset[0]]
            A = pts[list(subset[1:])] - p0
            mu = np.linalg.lstsq(A @ A.T, 0.5 * (A * A).sum(axis=1), rcond=None)[0]
            center = p0 + A.T @ mu
            dists = np.linalg.norm(pts[list(subset)] - center, axis=1)
            if dists.max() - dists.min() > 1e-9 * scale:
                continue
            r = float(dists.max())
            if np.linalg.norm(pts - center, axis=1).max() <= r + 1e-9 * scale:
                if best is None or r < best[1]:
                    best = (center, r)
    return best


def min_norm_point_by_definition(points) -> np.ndarray:
    """The least-norm point, over subsets of at most D + 1 points, of the
    subset's affine hull, kept when its affine weights are non-negative.

    The affine hull's min-norm point is p0 + A^T mu with A the rows minus p0
    and mu from the projection of -p0 onto their span (``lstsq``); by
    Caratheodory one of the subsets holds the min-norm point of the hull.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    scale = 1.0 + float(np.abs(pts).max())
    best = None
    for k in range(1, min(n, dim + 1) + 1):
        for subset in combinations(range(n), k):
            p0 = pts[subset[0]]
            A = pts[list(subset[1:])] - p0
            mu = np.linalg.lstsq(A @ A.T, -A @ p0, rcond=None)[0]
            if mu.min(initial=0.0) < -1e-9 or mu.sum() > 1 + 1e-9:
                continue
            z = p0 + A.T @ mu
            if np.abs(A @ z).max(initial=0.0) > 1e-9 * scale**2:
                continue  # not the projection: lstsq found no exact solution
            if best is None or z @ z < best @ best:
                best = z
    return best


def game_by_fraction_tableau(base, sample: LabeledSample):
    """Value, mixture and columns of the weak-learning game, from Bland's rule
    on a ``Fraction`` tableau of max sum(y) s.t. (errors + 1) y <= 1, y >= 0.

    Every pivot divides the pivot row by its pivot and eliminates the entering
    column from the other rows and the cost row.  Bland's rule: the first
    column of negative cost enters; the least ratio leaves, ties to the
    smaller basis index.
    """
    pairs = sorted(set(sample.pairs))
    columns = sorted({tuple(int(h[x] != y) for x, y in pairs) for h in base.concepts})
    m, n = len(pairs), len(columns)
    tab = [
        [Fraction(col[i] + 1) for col in columns]
        + [Fraction(int(i == k)) for k in range(m)]
        + [Fraction(1)]
        for i in range(m)
    ]
    cost = [Fraction(-1)] * n + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if (
                    leave is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [v - f * w for v, w in zip(cost, tab[leave])]
        basis[leave] = enter
    y = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            y[b] = tab[i][-1]
    total = sum(y)
    return 1 / total - 1, tuple(v / total for v in y), tuple(columns)


def brute_force_max_packing(points, radius: float) -> int:
    """Largest subset with pairwise distances >= radius (exhaustive, small inputs)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    ok = [[np.linalg.norm(pts[i] - pts[j]) >= radius for j in range(n)] for i in range(n)]
    best = 0

    def grow(start: int, members: list[int]) -> None:
        nonlocal best
        best = max(best, len(members))
        for i in range(start, n):
            if all(ok[i][j] for j in members):
                grow(i + 1, members + [i])

    grow(0, [])
    return best


def greedy_packing_by_loops(points, gamma: float) -> PackingResult:
    """First-fit packing pair by pair: a point becomes a centre when it is at
    least gamma/2 from every earlier centre; cells go to the first nearest
    centre, and the least pairwise centre distance is taken over all pairs."""
    pts = np.asarray(points, dtype=float)
    radius = gamma / 2.0
    chosen: list[int] = []
    for i in range(len(pts)):
        if all(np.linalg.norm(pts[i] - pts[j]) >= radius for j in chosen):
            chosen.append(i)
    centers = pts[chosen]
    cells = tuple(int(np.argmin(np.linalg.norm(centers - p, axis=1))) for p in pts)
    min_pair = min(
        (
            float(np.linalg.norm(pts[a] - pts[b]))
            for k, a in enumerate(chosen)
            for b in chosen[k + 1 :]
        ),
        default=math.inf,
    )
    return PackingResult(tuple(chosen), min_pair, cells, radius)


def min_mistakes_by_definition(cls: PartialConceptClass, pairs) -> int:
    """Fewest pairs that one concept labels otherwise; a STAR mislabels every pair."""
    return min(sum(h.labels[x] != y for x, y in pairs) for h in cls.concepts)


def follow_the_leader_mistakes(sequence) -> int:
    """Mistakes of predicting, each round, the majority label seen so far at
    the queried point (ties -> 0)."""
    mistakes = 0
    for t, (x, y) in enumerate(sequence):
        seen = [b for p, b in sequence[:t] if p == x]
        mistakes += (1 if 2 * sum(seen) > len(seen) else 0) != y
    return mistakes


def tree_game_by_enumeration(cls, adv, learner) -> tuple[Fraction, Fraction]:
    """A deterministic learner's mean mistakes and mean regret against the
    tree adversary ``adv`` built on ``cls``, over all 2^T label strings, each
    played round by round: the d blocks of T // d rounds (the last takes the
    rest) each ask the point of the node that the earlier blocks' majorities
    (ties to 0) reach, and the learner sees the version space as a concept
    bitmask."""
    d, T = adv.d, adv.T
    k = T // max(d, 1)
    ends = [k * (i + 1) for i in range(d - 1)] + [T] if d else []
    mistakes = regret = 0
    for ys in product((0, 1), repeat=T):
        pairs, node, start = [], adv.tree, 0
        for end in ends:
            block = ys[start:end]
            pairs += [(node.point, y) for y in block]
            node = node.one if 2 * sum(block) > len(block) else node.zero
            start = end
        alive, made = list(range(len(cls))), 0
        for x, y in pairs:
            made += learner(sum(1 << i for i in alive), x) != y
            alive = [i for i in alive if cls.concepts[i][x] == y]
        mistakes += made
        regret += made - min_mistakes_by_definition(cls, pairs)
    return Fraction(mistakes, 2**T), Fraction(regret, 2**T)
