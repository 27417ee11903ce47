"""Margin geometry, empirical weak-learnability games, and packing rules.

Numeric conventions: hull-distance and enclosing-ball computations share one
Wolfe corral kernel and converge to roughly 1e-12; separability decisions are
made at a 1e-6 tolerance.  The weak-learnability game is solved exactly by
integer (fraction-free) pivoting; only the answer is rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from typing import Optional, Sequence

import numpy as np

from .core import (
    ContractViolation,
    LabeledSample,
    PartialConcept,
    TotalConceptClass,
    check_points,
)
from .learners import boost_to_consistency

DECISION_TOL = 1e-6
CONVERGE_TOL = 1e-12
WOLFE_MAX_ITER = 10_000  # Wolfe's method is finite; this only guards a stall
PERCEPTRON_UPDATE_CAP = 10**6
PERCEPTRON_PASSES = 4  # passes over a stream before the run stops unconverged
MAX_ORTHONORMAL_POINTS = 12  # largest axis family whose 2^m labelings are enumerated
MAX_GRID_SIDE = 30  # 900 points; greedy_packing makes one array pass per centre


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ContractViolation(f"{name} must be positive and finite, got {value}")


# ---------------------------------------------------------------------------
# enclosing ball and hull gap: one QP over the simplex (Wolfe's corral method)


def _wolfe_corral(pts: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x = sum_i l_i p_i at the least |x|^2 - sum_i l_i d_i over the simplex.

    Wolfe's (1976) corral method.  With d = 0, x is the min-norm point of the
    hull of the rows; with d_i = |p_i|^2 the problem is the dual of the
    smallest enclosing ball and x is its centre.  The row of least slope
    p_j.x - d_j/2 enters until none beats the corral's slope by more than a
    relative tolerance.  Each corral stays affinely independent, so its KKT
    matrix [[P P^T, 1], [1^T, 0]] is solved without a fallback: a row entering
    in the corral's affine hull is swapped in along e_j - alpha, which keeps x,
    for the first corral row whose weight reaches 0.
    """
    half = d / 2
    tilted = d.any()
    norms = np.einsum("ij,ij->i", pts, pts)
    start = int(np.argmin(norms - d))
    corral = [start]
    lam = np.array([1.0])
    x = pts[start].copy()
    scale = max(1.0, norms.max())

    def kkt(top: np.ndarray) -> np.ndarray:
        """Affine weights w (sum 1) solving P P^T w + nu 1 = top on the corral."""
        P = pts[corral]
        k = len(corral)
        M = np.ones((k + 1, k + 1))
        M[:k, :k] = P @ P.T
        M[k, k] = 0.0
        rhs = np.ones(k + 1)
        rhs[:k] = top
        return np.linalg.solve(M, rhs)[:k]

    for _ in range(WOLFE_MAX_ITER):
        slopes = pts @ x - half
        j = int(np.argmin(slopes))
        if x @ x - lam @ half[corral] - slopes[j] <= CONVERGE_TOL * scale:
            break
        if j in corral:
            break
        # with d = 0 a row in the corral's affine hull has the corral's slope
        # and never enters, so only a tilted problem (a ball) looks for one
        if tilted:
            alpha = kkt(pts[corral] @ pts[j])
            off = alpha @ pts[corral] - pts[j]
        if tilted and off @ off <= CONVERGE_TOL * scale:
            ratios = np.divide(lam, alpha, out=np.full_like(lam, np.inf), where=alpha > 0)
            i = int(np.argmin(ratios))
            lam = lam - ratios[i] * alpha
            lam[i] = ratios[i]
            corral[i] = j
        else:
            corral.append(j)
            lam = np.append(lam, 0.0)
        while True:
            mu = kkt(half[corral])
            if (mu > 1e-14).all():
                lam = mu
                break
            mask = mu <= 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    (lam - mu) > 1e-15, lam / np.maximum(lam - mu, 1e-300), np.inf
                )
            theta = min(1.0, float(ratios[mask].min()))
            lam = (1 - theta) * lam + theta * mu
            keep = lam > 1e-14
            if keep.all():
                keep[int(np.argmin(lam))] = False
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
        x = lam @ pts[corral]
    return x


def min_enclosing_ball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest ball containing the points.

    The centre is the corral's x for d_i = |p_i|^2, on the points shifted so
    that the first sits at 0; the radius is the farthest point's distance.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("need at least one point")
    q = pts - pts[0]
    x = _wolfe_corral(q, np.einsum("ij,ij->i", q, q))
    return pts[0] + x, float(np.linalg.norm(q - x, axis=1).max())


def min_norm_point(points: np.ndarray) -> np.ndarray:
    """Point of minimum norm in the convex hull of the rows (Wolfe, 1976)."""
    pts = np.asarray(points, dtype=float)
    return _wolfe_corral(pts, np.zeros(len(pts)))


def hull_distance(
    side_a: np.ndarray, side_b: np.ndarray
) -> tuple[float, Optional[np.ndarray]]:
    """Distance between conv(A) and conv(B) plus the separating difference vector.

    Returns ``(inf, None)`` when either side is empty.  The second component
    is the min-norm point of the Minkowski difference: its norm is the
    distance and its direction separates the hulls with margin distance/2 on
    each side of the midplane.
    """
    A = np.asarray(side_a, dtype=float)
    B = np.asarray(side_b, dtype=float)
    if A.size == 0 or B.size == 0:
        return math.inf, None
    diffs = (A[:, None, :] - B[None, :, :]).reshape(-1, A.shape[1])
    z = min_norm_point(diffs)
    return float(np.linalg.norm(z)), z


@dataclass
class SeparabilityReport:
    hull_gap: float
    separable: bool


def _separability(
    points: np.ndarray, labels: np.ndarray, radius: float, gamma: float, r: float
) -> SeparabilityReport:
    """Whether labeled ``points`` with enclosing-ball radius ``r`` are
    (radius, gamma)-separable: r <= R and a hull gap of at least 2 gamma."""
    gap, _ = hull_distance(points[labels == 1], points[labels == 0])
    ball_ok = r <= radius + DECISION_TOL
    gap_ok = gap >= 2 * gamma - DECISION_TOL
    return SeparabilityReport(gap, ball_ok and gap_ok)


def separability_report(
    points: np.ndarray, labels: Sequence[int], radius: float, gamma: float
) -> SeparabilityReport:
    """Ball-radius and hull-gap checks of labeled points in R^D against (R, gamma)."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ContractViolation("points must form an (n, D) array with D >= 1")
    if not np.isfinite(points).all():
        raise ContractViolation("points must be finite")
    if labels.shape != (points.shape[0],):
        raise ContractViolation("labels must match the number of points")
    if not np.isin(labels, (0, 1)).all():  # before the cast, which truncates 0.5 to 0
        raise ContractViolation("labels must be bits")
    labels = labels.astype(int)
    _require_positive("radius", radius)
    _require_positive("gamma", gamma)
    return _separability(points, labels, radius, gamma, min_enclosing_ball(points)[1])


# ---------------------------------------------------------------------------
# perceptron with a self-measured margin certificate


@dataclass
class PerceptronReport:
    mistakes: int
    converged: bool
    bound_used: float


def _lifted_separator(points: np.ndarray, labels: np.ndarray) -> Optional[np.ndarray]:
    """(w, b) with y-signed margins positive, from the hull gap; None if none found."""
    ones = points[labels == 1]
    zeros = points[labels == 0]
    if len(ones) == 0 or len(zeros) == 0:
        u = np.zeros(points.shape[1] + 1)
        u[-1] = 1.0 if (labels == 1).all() else -1.0
        return u
    gap, z = hull_distance(ones, zeros)
    if not math.isfinite(gap) or gap <= 0:
        return None
    hi0 = float((zeros @ z).max())
    lo1 = float((ones @ z).min())
    b = -0.5 * (hi0 + lo1)
    return np.concatenate([z, [b]])


def perceptron_run(points: np.ndarray, labels: np.ndarray) -> PerceptronReport:
    """Classic perceptron on the lifted representation (unit bias coordinate).

    Labels map 0 -> -1.  Runs up to ``PERCEPTRON_PASSES`` over the sequence,
    early stopping after a clean pass.  The reported bound is the classical
    mistake bound evaluated with an explicitly constructed separator, so the
    inequality mistakes <= bound is checkable from the report alone.
    """
    pts = np.asarray(points, dtype=float)
    ys = np.where(np.asarray(labels, dtype=int) == 1, 1.0, -1.0)
    lifted = np.hstack([pts, np.ones((len(pts), 1))])
    w = np.zeros(lifted.shape[1])
    mistakes = 0
    converged = False
    for _ in range(PERCEPTRON_PASSES):
        clean = True
        for x, y in zip(lifted, ys):
            if y * (w @ x) <= 0:
                w = w + y * x
                mistakes += 1
                clean = False
                if mistakes >= PERCEPTRON_UPDATE_CAP:
                    break
        if mistakes >= PERCEPTRON_UPDATE_CAP:
            break
        if clean:
            converged = True
            break
    lifted_radius = float(np.sqrt((lifted * lifted).sum(axis=1).max()))
    u = _lifted_separator(pts, np.asarray(labels, dtype=int))
    margin = 0.0 if u is None else float((ys * (lifted @ u)).min())
    if margin <= 0:
        bound = math.inf
    else:
        bound = (lifted_radius * float(np.linalg.norm(u)) / margin) ** 2
    return PerceptronReport(mistakes, converged, bound)


# ---------------------------------------------------------------------------
# orthonormal shattering instance


def orthonormal_points(radius: float, gamma: float) -> np.ndarray:
    """The scaled standard basis family: floor(R^2 / gamma^2) axis points."""
    _require_positive("radius", radius)
    _require_positive("gamma", gamma)
    try:
        m = math.floor(radius**2 / gamma**2)
    except (OverflowError, ZeroDivisionError):
        m = math.inf
    if m < 1:
        raise ContractViolation("need radius^2 / gamma^2 >= 1")
    if m > MAX_ORTHONORMAL_POINTS:
        raise ContractViolation(
            f"m = {m} axis points exceed the cap of {MAX_ORTHONORMAL_POINTS}"
        )
    return radius * np.eye(m)


def certify_orthonormal_labelings(radius: float, gamma: float) -> list[bool]:
    """Certify every bipartition of the axis family as (R, gamma)-separable.

    The explicit witness of signs s is (gamma/R) s in basis coordinates: its
    norm and its margins s_i <p_i, w> = gamma do not depend on s, so it is
    checked once for the family.  Each labeling's verdict is that check AND
    the generic ball-plus-hull-gap checker's, in the order of
    ``product((0, 1), repeat=m)``.
    """
    pts = orthonormal_points(radius, gamma)
    w = np.full(len(pts), gamma / radius)
    witness_ok = bool(
        np.linalg.norm(w) <= 1 + 1e-9 and np.allclose(pts @ w, gamma, atol=1e-9)
    )
    _, r = min_enclosing_ball(pts)  # every labeling has these points
    generic = [
        _separability(pts, np.array(bits), radius, gamma, r).separable
        for bits in product((0, 1), repeat=len(pts))
    ]
    return [witness_ok and ok for ok in generic]


# ---------------------------------------------------------------------------
# empirical weak learnability (the zero-sum game) and boosting to consistency


def _exact_simplex_max(A: list[list[int]]) -> tuple[Fraction, list[Fraction]]:
    """max sum(y) subject to A y <= 1, y >= 0, for a positive integer matrix A.

    Bland's rule, solved exactly by integer (fraction-free) pivoting; only the
    answer is rational.  Row m of the tableau is the cost row, and every row
    holds d times its rational value, d being the previous pivot (1 at the
    start).  A pivot p keeps its row and maps each other row t to
    (p t - t_e t_pivot) // d, exact by Sylvester's identity (Edmonds 1967;
    Bareiss 1968).  The final cost row holds d times the dual u; a feasible y
    and u of equal sum prove each other optimal, which is checked in integers.
    """
    m, n = len(A), len(A[0])
    tab = [row + [0] * m + [1] for row in A]
    for i in range(m):
        tab[i][n + i] = 1
    tab.append([-1] * n + [0] * (m + 1))
    basis = list(range(n, n + m))
    d = 1
    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            break
        if enter in basis:  # its cost is 0 in a consistent tableau
            raise ArithmeticError("a basic column entered; the cost row is stale")
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / t_ie against rhs_leave / t_leave,e, cross-multiplied
                ratio = tab[i][-1] * tab[leave][enter]
                best = tab[leave][-1] * tab[i][enter]
                if ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("unbounded game LP; the payoff shift is broken")
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i in range(m + 1):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(p * v - f * w) // d for v, w in zip(tab[i], pivot_row)]
        d = p
        basis[leave] = enter
    y = [0] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            y[bvar] = tab[i][-1]
    u = tab[m][n : n + m]
    if (
        min(y + u) < 0
        or any(sum(a * v for a, v in zip(row, y)) > d for row in A)
        or any(sum(a * v for a, v in zip(col, u)) < d for col in zip(*A))
        or sum(y) != sum(u)
    ):
        raise ArithmeticError("the game LP's optimum fails its dual certificate")
    return Fraction(sum(y), d), [Fraction(v, d) for v in y]


@dataclass
class WeakGameValue:
    """Value of the distribution-vs-hypothesis error game over a sample."""

    value: Fraction
    mixture: tuple[Fraction, ...]
    columns: tuple[tuple[int, ...], ...]


def weak_learning_game(
    base: TotalConceptClass, sample: LabeledSample
) -> WeakGameValue:
    """Exact minimax error of the base class against distributions on the sample.

    Rows are the distinct sample pairs, columns the distinct base behaviors on
    them; the value is max over distributions of the best single hypothesis's
    error, equal by duality to the best mixture's worst-case error.
    """
    if len(sample) == 0:
        raise ContractViolation("the game needs a nonempty sample")
    check_points(base, sample)
    pairs = sorted(set(sample.pairs))
    columns = sorted(
        {tuple(1 if h[x] != y else 0 for x, y in pairs) for h in base.concepts}
    )
    # shift errors by +1 to make every payoff positive, solve the column LP;
    # its certified optimum is positive, as A^T u >= 1 needs u != 0
    A = [[col[i] + 1 for col in columns] for i in range(len(pairs))]
    total, y = _exact_simplex_max(A)
    value = 1 / total - 1
    mixture = tuple(yi / total for yi in y)
    return WeakGameValue(value, mixture, tuple(columns))


@dataclass
class MajorityFitReport:
    rounds: int
    cap: int


def boosting_disambiguate_sample(
    base: TotalConceptClass, sample: LabeledSample, gamma
) -> tuple[PartialConcept, MajorityFitReport]:
    """Majority of base hypotheses consistent with a weakly-learnable sample.

    Each round reweights the sample and takes the base hypothesis of least
    weighted error, which gamma-realizability keeps at or below (1-gamma)/2.
    The multiplicative step is tuned to that edge, so consistency arrives
    within O(log(m)/gamma^2) rounds.
    """
    g = float(gamma)
    if not 0 < g <= 1:
        raise ContractViolation("gamma must lie in (0, 1]")
    pairs = sample.pairs
    m = len(pairs)
    if m == 0:
        raise ContractViolation("need a nonempty sample")
    step = 3.0 if g >= 1 else (1 + g) / (1 - g)
    cap = math.ceil((16.0 / g**2) * math.log(m + 2))
    threshold = (1.0 - g) / 2.0
    rows = [h.labels for h in base.concepts]
    errs_per_row = [[row[x] != y for x, y in pairs] for row in rows]

    def weak(weights: list[float], t: int) -> tuple[int, ...]:
        total_w = sum(weights)
        errs = [sum(compress(weights, bad)) / total_w for bad in errs_per_row]
        best_err = min(errs)
        if best_err > threshold + 1e-9:
            raise ContractViolation(
                f"round {t}: best weighted error {best_err:.4f} exceeds "
                f"(1-gamma)/2; the sample is not gamma-realizable at gamma={g}"
            )
        return rows[errs.index(best_err)]  # the first least error

    hyp, rounds = boost_to_consistency(base.domain_size, pairs, weak, step, cap)
    return hyp, MajorityFitReport(rounds, cap)


# ---------------------------------------------------------------------------
# greedy packing, Voronoi labeling


@dataclass
class PackingResult:
    chosen: tuple[int, ...]
    min_pairwise: float
    cells: tuple[int, ...]
    radius: float


def unit_grid(side: int, name: str = "the grid side") -> np.ndarray:
    """The side x side grid on [0, 1]^2 as a (side^2, 2) array, row by row."""
    if not 1 <= side <= MAX_GRID_SIDE:
        raise ContractViolation(f"{name} must lie in 1..{MAX_GRID_SIDE}, got {side}")
    axis = np.linspace(0.0, 1.0, side)
    return np.array([[x, y] for x in axis for y in axis])


def greedy_packing(points: np.ndarray, gamma: float) -> PackingResult:
    """First-fit maximal (gamma/2)-packing plus nearest-center cell assignment.

    Chosen points are pairwise at least gamma/2 apart and every point lies
    strictly within gamma/2 of some chosen one, so each cell has diameter
    below gamma.  Cell ties go to the earlier chosen center.
    """
    _require_positive("gamma", gamma)
    pts = np.asarray(points, dtype=float)
    radius = gamma / 2.0
    chosen: list[int] = []
    near = np.full(len(pts), math.inf)  # each point's distance to its nearest centre
    min_pair = math.inf  # the least distance from a centre to an earlier one
    for i in range(len(pts)):
        if near[i] >= radius:
            chosen.append(i)
            min_pair = min(min_pair, float(near[i]))
            diff = pts - pts[i]
            # one dot product per row: the very sums np.linalg.norm takes of a vector
            near = np.minimum(near, np.sqrt((diff[:, None] @ diff[:, :, None]).ravel()))
    # argmin takes the first minimum: cell ties go to the earlier centre
    cells = tuple(int(np.linalg.norm(pts[chosen] - p, axis=1).argmin()) for p in pts)
    return PackingResult(tuple(chosen), min_pair, cells, radius)


def is_gamma_separated(
    points: np.ndarray, labeled: Sequence[tuple[int, int]], gamma: float
) -> bool:
    pts = np.asarray(points, dtype=float)
    for i, (a, ya) in enumerate(labeled):
        for b, yb in labeled[i + 1 :]:
            if ya != yb and np.linalg.norm(pts[a] - pts[b]) < gamma:
                return False
    return True


def voronoi_disambiguate(
    packing: PackingResult, labeled: Sequence[tuple[int, int]]
) -> tuple[int, ...]:
    """Extend a gamma-separated partial labeling to all points via packing cells.

    Every cell has diameter below gamma, so the labeled data inside one cell
    must agree; the cell takes that label, or 0 when it holds no labeled data.
    Returns each point's label, the label of its cell.
    """
    cell_labels = [0] * len(packing.chosen)
    cell_seen: dict[int, int] = {}
    for idx, y in labeled:
        c = packing.cells[idx]
        if c in cell_seen and cell_seen[c] != y:
            raise ContractViolation(
                f"cell {c} holds both labels; the labeling is not "
                f"gamma-separated at gamma={2 * packing.radius}"
            )
        cell_seen[c] = y
        cell_labels[c] = y
    return tuple(cell_labels[c] for c in packing.cells)


# ---------------------------------------------------------------------------
# proper-learner failure simulation


@dataclass
class ProperFailureResult:
    proper_mean_error: Fraction
    improper_mean_error: Fraction


def erm_failure_simulate(n: int, m: int, trials: int, seed: int) -> ProperFailureResult:
    """Half-support concepts: proper learners must guess the hidden support.

    The hidden concept labels a random size-n/2 subset with zeros and is
    undefined elsewhere; examples are uniform over its support.  A proper
    learner answers with some consistent half-support concept (random
    completion); the trivial all-zeros predictor is improper and never errs.
    """
    if n < 2 or n % 2 != 0:
        raise ContractViolation(
            f"the domain size n must be even and at least 2, got {n}"
        )
    if m < 0:
        raise ContractViolation(f"the sample size m must be at least 0, got {m}")
    if trials < 1:
        raise ContractViolation(f"trials must be at least 1, got {trials}")
    half = n // 2
    rng = random.Random(seed)
    total = Fraction(0)
    for _ in range(trials):
        support = set(rng.sample(range(n), half))
        observed = set(rng.choices(sorted(support), k=m))
        free = sorted(set(range(n)) - observed)
        completion = set(rng.sample(free, half - len(observed)))
        guess = observed | completion
        missed = len(support - guess)
        total += Fraction(missed, half)
    return ProperFailureResult(
        proper_mean_error=total / trials,
        improper_mean_error=Fraction(0),
    )
