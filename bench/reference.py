"""Reference computations the benchmark checks pcl's outputs against.

Everything here is written from the definitions in the source paper and
shares no code with ``pcl`` or with the test suite's oracles.  A class is
given as its rows: tuples over {0, 1, STAR} with STAR = 2, as ``pcl`` encodes
them.  The combinatorial references are brute force and meant for the
smallest classes of a workload; the geometric ones are optimality
certificates solved with ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

STAR = 2


def rows_of(cls) -> list[tuple[int, ...]]:
    return [tuple(h.labels) for h in cls.concepts]


# ---------------------------------------------------------------------------
# dimensions of a partial class


def shattered(rows, pts) -> bool:
    patterns = {tuple(r[x] for x in pts) for r in rows}
    return all(p in patterns for p in product((0, 1), repeat=len(pts)))


def _largest(n, predicate) -> int:
    """Largest k with some k-subset satisfying a downward-closed predicate."""
    best = 0
    for k in range(1, n + 1):
        if not any(predicate(pts) for pts in combinations(range(n), k)):
            break
        best = k
    return best


def vc(rows, n) -> int:
    return _largest(n, lambda pts: shattered(rows, pts))


def strength(rows, n) -> int:
    """Number of shattered subsets of the domain, the empty set included."""
    return sum(
        shattered(rows, pts) for k in range(n + 1) for pts in combinations(range(n), k)
    )


def ld(rows, n) -> int:
    """Littlestone dimension: depth of the deepest complete mistake tree."""

    @lru_cache(maxsize=None)
    def depth(members: frozenset) -> int:
        best = 0
        for x in range(n):
            zero = frozenset(i for i in members if rows[i][x] == 0)
            one = frozenset(i for i in members if rows[i][x] == 1)
            if zero and one:
                best = max(best, 1 + min(depth(zero), depth(one)))
        return best

    return depth(frozenset(range(len(rows))))


def td(rows, n) -> int:
    """Threshold dimension: longest chain x_1..x_d, h_1..h_d with h_i(x_j) = [i <= j]."""
    best = 0

    def grow(pts, hs):
        nonlocal best
        best = max(best, len(pts))
        for x in range(n):
            if x in pts or any(rows[h][x] != 1 for h in hs):
                continue
            for h in range(len(rows)):
                if h not in hs and rows[h][x] == 1 and all(rows[h][p] == 0 for p in pts):
                    grow(pts + (x,), hs + (h,))

    grow((), ())
    return best


def natarajan(rows, n) -> int:
    """Natarajan dimension of the three-label view (STAR is a third label)."""

    def n_shattered(pts):
        # f0 and f1 differ at every point; which of the two labels is called
        # f0 does not matter, so each point takes one of three label pairs
        patterns = {tuple(r[x] for x in pts) for r in rows}
        for pairs in product(((0, 1), (0, STAR), (1, STAR)), repeat=len(pts)):
            if all(
                tuple(pair[b] for pair, b in zip(pairs, bits)) in patterns
                for bits in product((0, 1), repeat=len(pts))
            ):
                return True
        return False

    return _largest(n, n_shattered)


def graph(rows, n) -> int:
    """Graph dimension of the three-label view: shattering by agreement with a reference."""

    def g_shattered(pts):
        for ref in product((0, 1, STAR), repeat=len(pts)):
            agreements = {tuple(r[x] == ref[i] for i, x in enumerate(pts)) for r in rows}
            if len(agreements) == 2 ** len(pts):
                return True
        return False

    return _largest(n, g_shattered)


def support_vc(rows, n) -> int:
    indicators = list({tuple(int(v != STAR) for v in r) for r in rows})
    return vc(indicators, n)


REFERENCE = {
    "vc": vc,
    "ld": ld,
    "td": td,
    "strength": strength,
    "natarajan": natarajan,
    "graph": graph,
    "support-vc": support_vc,
}


# ---------------------------------------------------------------------------
# witnesses


def vc_witness_ok(rows, value, pts) -> bool:
    return len(pts) == value and len(set(pts)) == value and shattered(rows, pts)


def td_witness_ok(rows, value, witness) -> bool:
    pts, hs = witness
    if len(pts) != value or len(hs) != value:
        return False
    members = set(rows)
    return all(tuple(h.labels) in members for h in hs) and all(
        hs[i][pts[j]] == (1 if i <= j else 0) for i in range(value) for j in range(value)
    )


def ld_tree_ok(rows, value, tree) -> bool:
    """A complete mistake tree of depth ``value`` whose every branch is realized."""

    def walk(node, path, depth):
        if depth == value:
            return node is None and any(all(r[x] == y for x, y in path) for r in rows)
        if node is None:
            return False
        return walk(node.zero, path + ((node.point, 0),), depth + 1) and walk(
            node.one, path + ((node.point, 1),), depth + 1
        )

    return walk(tree, (), 0)


def extends(h_labels, total_labels) -> bool:
    return all(v == STAR or v == t for v, t in zip(h_labels, total_labels))


# ---------------------------------------------------------------------------
# geometric certificates


def _in_hull(points: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """Is ``target`` within ``tol`` (l1) of conv(points)?  Solved as an LP."""
    from scipy.optimize import linprog  # imported late: not part of pcl's set-up

    k, d = points.shape
    # variables: lambda (k), slack+ (d), slack- (d); minimise total slack
    cost = np.concatenate([np.zeros(k), np.ones(2 * d)])
    a_eq = np.zeros((d + 1, k + 2 * d))
    a_eq[:d, :k] = points.T
    a_eq[:d, k : k + d] = np.eye(d)
    a_eq[:d, k + d :] = -np.eye(d)
    a_eq[d, :k] = 1.0
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0 and res.fun <= tol


def ball_certified(points: np.ndarray, center: np.ndarray, radius: float) -> bool:
    """Encloses every point, and the centre lies in the hull of the points on the sphere.

    The second condition is the optimality condition of the smallest
    enclosing ball: otherwise moving the centre toward the hull shrinks it.
    """
    scale = max(1.0, radius)
    dist = np.linalg.norm(points - center, axis=1)
    if (dist > radius + 1e-9 * scale).any():
        return False
    on_sphere = points[dist >= radius - 1e-7 * scale]
    return len(on_sphere) > 0 and _in_hull(on_sphere, center, 1e-6 * scale)


def hull_distance_certified(a, b, distance: float, z) -> bool:
    """z is in conv(A - B), |z| is the distance, and Wolfe's condition holds.

    Wolfe's condition, min over differences d of d.z >= |z|^2 - tol, makes z
    the minimum-norm point of the hull of the differences.
    """
    diffs = (a[:, None, :] - b[None, :, :]).reshape(-1, a.shape[1])
    scale = max(1.0, float(np.abs(diffs).max()) ** 2)
    zz = float(z @ z)
    return (
        abs(math.sqrt(zz) - distance) <= 1e-9 * max(1.0, distance)
        and float((diffs @ z).min()) >= zz - 1e-7 * scale
        and _in_hull(diffs, z, 1e-6 * math.sqrt(scale))
    )


def game_certified(errors: list[list[int]], value: Fraction, mixture, tol=1e-9) -> bool:
    """Checks the exact value of the error game against an LP solve.

    ``errors[i][j]`` is 1 when column hypothesis j errs on sample pair i.
    The value is max over distributions p on pairs of min over columns of the
    p-weighted error; the returned mixture over columns must reach it on
    every pair, exactly.
    """
    from scipy.optimize import linprog

    rows, cols = len(errors), len(errors[0])
    # variables p (rows) and v; maximise v s.t. v <= sum_i p_i e_ij for all j
    cost = np.concatenate([np.zeros(rows), [-1.0]])
    a_ub = np.zeros((cols, rows + 1))
    for j in range(cols):
        for i in range(rows):
            a_ub[j, i] = -errors[i][j]
        a_ub[j, rows] = 1.0
    a_eq = np.concatenate([np.ones(rows), [0.0]])[None, :]
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(cols), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * rows + [(None, None)], method="highs",
    )
    if res.status != 0 or abs(-res.fun - float(value)) > tol:
        return False
    if len(mixture) != cols or sum(mixture) != 1 or min(mixture) < 0:
        return False
    return all(
        sum(q * errors[i][j] for j, q in enumerate(mixture)) <= value for i in range(rows)
    )
