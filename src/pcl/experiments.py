"""Seeded experiment suites that exercise every checkable bound at desk scale.

Each suite produces a ``Report``: a list of per-check records plus summary
counts.  Reports are pure functions of (inputs, seed); all randomness flows
through ``random.Random`` generators split deterministically per suite unit
(class, matrix or distribution).

A record prints a statement, the operands of its verdict (``measured``,
``relation``, ``bound`` and ``tolerance``) and ``passed``, which is ``verdict``
of those printed operands.  A relation (``<=``, ``>=``, ``>`` or ``==``) is
widened by an absolute tolerance: 1e-9 for floating-point sums, and three
sample sigmas for Monte-Carlo means, whose z-score the record keeps.  A
compound record holds one relation and one bound per key of its ``measured``
dict; a tally is the compound whose case count must be > 0 and whose bad
count must be == 0.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product
from typing import Callable, Optional, Sequence

import numpy as np

from . import core, dimensions, disambiguation, geometry, learners, online
from .core import (
    PartialConcept,
    PartialConceptClass,
    labeled_sample,
    uniform_on,
)
from .serialize import json_value

SCHEMA_VERSION = 2


def _digest(seed: int, *path) -> int:
    text = f"{seed}|" + "/".join(str(p) for p in path)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def split_rng(seed: int, *path) -> random.Random:
    return random.Random(_digest(seed, *path))


_RELATIONS = {
    "<=": lambda m, b, tol: m <= b + tol,
    ">=": lambda m, b, tol: m >= b - tol,
    ">": lambda m, b, tol: m > b - tol,
    "==": lambda m, b, tol: abs(m - b) <= tol,
}


def verdict(measured, relation, bound, tolerance) -> bool:
    """Whether ``measured relation bound`` holds, widened by ``tolerance``;
    for a compound record, whether it holds at every key of ``measured``."""
    if isinstance(measured, dict):
        if not measured.keys() == relation.keys() == bound.keys():
            raise ValueError("a compound record needs one relation and bound per key")
        return all(
            verdict(measured[k], relation[k], bound[k], tolerance) for k in measured
        )
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    # Fractions print as strings
    m, b, tol = (Fraction(v) if isinstance(v, str) else v for v in (measured, bound, tolerance))
    return bool(_RELATIONS[relation](m, b, tol))


@dataclass(frozen=True)
class CheckRecord:
    name: str
    statement: str
    measured: object
    relation: object
    bound: object
    tolerance: object = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The record as a report prints it, with ``verdict`` of the printed
        operands as ``passed``."""
        out = {k: json_value(v) for k, v in vars(self).items()}
        out["passed"] = verdict(out["measured"], out["relation"], out["bound"], out["tolerance"])
        return out

    @property
    def passed(self) -> bool:
        return self.to_dict()["passed"]


def _compound(name: str, statement: str, rows: dict, extra=None) -> CheckRecord:
    """A compound record from one (measured, relation, bound) row per key."""
    measured, relation, bound = ({k: row[i] for k, row in rows.items()} for i in range(3))
    return CheckRecord(name, statement, measured, relation, bound, extra=extra or {})


def _tally(
    name: str, statement: str, cases: tuple[str, int], bad: tuple[str, int], extra=None
) -> CheckRecord:
    """An aggregate record: some cases ran, and none was bad."""
    (cases_key, n), (bad_key, k) = cases, bad
    rows = {cases_key: (n, ">", 0), bad_key: (k, "==", 0)}
    return _compound(name, statement, rows, extra)


@dataclass
class ExperimentConfig:
    """Inputs of one suite run; identical configs produce identical reports."""

    experiment: str
    seed: int = 0
    trials: Optional[int] = None
    params: dict = field(default_factory=dict)


@dataclass
class Report:
    experiment: str
    seed: int
    checks: list[CheckRecord]
    params: dict = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def n_passed(self) -> int:
        return len(self.checks) - self.n_failed

    def to_dict(self) -> dict:
        checks = [c.to_dict() for c in self.checks]
        failed = sum(not c["passed"] for c in checks)
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            "params": {k: json_value(v) for k, v in sorted(self.params.items())},
            "checks": checks,
            "summary": {"passed": len(checks) - failed, "failed": failed},
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["experiment", "check", "statement", "measured", "bound", "passed"])
        for c in map(CheckRecord.to_dict, self.checks):
            fields = (c["name"], c["statement"], c["measured"], c["bound"])
            writer.writerow([self.experiment, *fields, int(c["passed"])])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# random class generation


def generate_random_class(
    n: int, size: int, star_prob: float, seed: int
) -> PartialConceptClass:
    """Deduplicated i.i.d. ternary concepts, resampled until ``size`` is reached.

    Deterministic per seed.  When the target size is unreachable within the
    attempt budget (tiny label space, or star_prob = 1 collapsing everything
    to the all-undefined concept) the class is returned smaller, with a
    warning flagging the shortfall.
    """
    if n < 1 or n > 24:
        raise ValueError("domain size must be between 1 and 24")
    if size < 1 or size > 2**n:
        raise ValueError(f"size must be between 1 and 2^{n}")
    rng = random.Random(seed)
    concepts: set[PartialConcept] = set()
    attempts = 0
    cap = 200 + 60 * size
    while len(concepts) < size and attempts < cap:
        attempts += 1
        labels = tuple(
            core.STAR if rng.random() < star_prob else rng.getrandbits(1)
            for _ in range(n)
        )
        concepts.add(PartialConcept(labels))
    if len(concepts) < size:
        warnings.warn(
            f"only {len(concepts)} distinct concepts reachable "
            f"(requested {size}, star_prob={star_prob})",
            stacklevel=2,
        )
    return PartialConceptClass(n, tuple(concepts))


def _draw_class(
    rng: random.Random, max_n: int, max_size: int, stars: tuple[float, ...]
) -> PartialConceptClass:
    """A class on 2..max_n points of 2..max_size concepts, with a star
    probability from ``stars``; n, size, star and seed are drawn in that order."""
    n = rng.randint(2, max_n)
    size = rng.randint(2, min(max_size, 2**n))
    return generate_random_class(n, size, rng.choice(stars), rng.randrange(2**31))


def _draw_class_until(
    rng: random.Random, max_n: int, max_size: int,
    accept: Callable[[PartialConceptClass], bool], what: str,
) -> PartialConceptClass:
    """The first of at most 1000 ``_draw_class`` draws that ``accept`` takes."""
    for _ in range(1000):
        cls = _draw_class(rng, max_n, max_size, (0.2, 0.35, 0.5, 0.65))
        if accept(cls):
            return cls
    raise RuntimeError(f"no class with {what} found in 1000 draws")


def _support_sequence(
    h: PartialConcept, rng: random.Random, length: int
) -> list[tuple[int, int]]:
    """``length`` points drawn from the support of ``h``, with its labels."""
    supp = h.support()
    return [(x, h[x]) for x in rng.choices(supp, k=length)] if supp else []


def _defined_concepts(cls: PartialConceptClass) -> list[PartialConcept]:
    """The concepts of ``cls`` defined somewhere, in class order."""
    return [h for h in cls.concepts if h.support()]


def _random_realizable_sequence(
    candidates: Sequence[PartialConcept], rng: random.Random, length: int
) -> list[tuple[int, int]]:
    """``_support_sequence`` of a concept drawn from ``candidates``, or no
    pairs if there are none."""
    return _support_sequence(rng.choice(candidates), rng, length) if candidates else []


# ---------------------------------------------------------------------------
# suites


def suite_soa_mistake_bound(cfg: ExperimentConfig) -> Report:
    n_classes = cfg.params["classes"]
    checks = []
    for i in range(n_classes):
        rng = split_rng(cfg.seed, "soa", i)
        cls = _draw_class(rng, 8, 32, (0.0, 0.25, 0.5))
        soa = online.Soa(cls)
        packed = cls.packed
        ld = soa.solver.ld(packed.full)
        tree = online.littlestone_tree(cls, ld)
        candidates = _defined_concepts(cls)
        worst = 0
        for j in range(cfg.params["sequences"]):
            if j % 2 == 0 or ld == 0:
                seq = _random_realizable_sequence(candidates, rng, 2 * cls.domain_size)
            else:
                # adversarial: walk the mistake tree against the learner itself,
                # then continue with a consistent tail
                seq = []
                node = tree
                mask = packed.full
                for _ in range(ld):
                    x = node.point
                    y = 1 - soa(mask, x)
                    seq.append((x, y))
                    mask &= packed.label_masks[x][y]
                    node = node.zero if y == 0 else node.one
                survivor = cls.concepts[(mask & -mask).bit_length() - 1]
                seq += _support_sequence(survivor, rng, cls.domain_size)
            if not seq:
                continue
            worst = max(worst, online.play_sequence(cls, soa, seq).mistakes)
        checks.append(
            CheckRecord(
                f"class-{i}", "online mistakes <= LD(H) on realizable sequences",
                worst, "<=", ld,
            )
        )
    return Report(cfg.experiment, cfg.seed, checks, {"classes": n_classes})


LOO_MULTISET_CLASSES = 10  # classes whose short sequences with repeats are all swept


def suite_one_inclusion_loo(cfg: ExperimentConfig) -> Report:
    n_classes = cfg.params["classes"]
    checks = []
    graphs = bad_graphs = 0
    multiset_samples = 0
    multiset_violations = 0
    for i in range(n_classes):
        cls = _draw_class(split_rng(cfg.seed, "loo", i), 6, 32, (0.0, 0.3, 0.5))
        d = cls.vc
        worst_excess = Fraction(-1)
        for k in range(1, min(cfg.params["max_len"], cls.domain_size) + 1):
            for pts in combinations(range(cls.domain_size), k):
                if not cls.binary_patterns(pts):
                    continue
                graph = cls.one_inclusion.graph(cls, pts)
                # the permutation-averaged leave-one-out error of the
                # distinct-point sample labeled by v is out_deg(v) / k;
                # duplicated points only shrink it (their rounds are free)
                out_degrees = list(map(len, graph.out))
                worst_excess = max(worst_excess, Fraction(max(out_degrees) - d, k))
                # edges counted from the patterns alone: along coordinate c,
                # the patterns that differ only at c share one projection
                pats = graph.patterns
                edges = sum(
                    len(pats) - len({p[:c] + p[c + 1 :] for p in pats}) for c in range(k)
                )
                graphs += 1
                bad_graphs += (
                    edges != sum(out_degrees) or edges > graph.vc * len(pats)
                )
        checks.append(
            CheckRecord(
                f"class-{i}", "permutation-averaged LOO error <= VC(H)/n, exact",
                worst_excess, "<=", Fraction(0), extra={"vc": d},
            )
        )
        if i < LOO_MULTISET_CLASSES:
            # sequences with repeated points: sweep all <=4-point multisets
            # and every realizable labeling of their supports
            for size in range(2, min(4, cls.domain_size + 1) + 1):
                for pts in combinations_with_replacement(
                    range(cls.domain_size), size
                ):
                    support = tuple(sorted(set(pts)))
                    for pattern in sorted(cls.binary_patterns(support)):
                        lookup = dict(zip(support, pattern))
                        sample = labeled_sample((x, lookup[x]) for x in pts)
                        loo = learners.loo_error(cls, sample)
                        multiset_samples += 1
                        if loo > Fraction(d, size):
                            multiset_violations += 1
    checks.append(
        _tally(
            "orientation-edges",
            "every one-inclusion edge is oriented once, and |E| <= VC * |V|",
            ("graphs", graphs), ("violations", bad_graphs),
        )
    )
    checks.append(
        _tally(
            "multiset-sequences",
            "LOO bound also holds on every short sequence with repeats",
            ("samples", multiset_samples), ("violations", multiset_violations),
        )
    )
    return Report(cfg.experiment, cfg.seed, checks, {"classes": n_classes})


def suite_experts_regret(cfg: ExperimentConfig) -> Report:
    n_matrices = cfg.params["matrices"]
    checks = []
    for i in range(n_matrices):
        rng = split_rng(cfg.seed, "experts", i)
        T = rng.randint(1, 64)
        N = rng.randint(1, 16)
        preds = np.array([[rng.random() for _ in range(N)] for _ in range(T)])
        ys = np.array([rng.random() for _ in range(T)])
        res = online.experts_aggregate(preds, ys)
        checks.append(
            CheckRecord(
                f"matrix-{i}", "mixture loss - best expert loss <= sqrt((T/2) ln N)",
                res.regret, "<=", res.regret_bound, extra={"T": T, "N": N},
            )
        )
    return Report(cfg.experiment, cfg.seed, checks, {"matrices": n_matrices})


AGNOSTIC_SEQUENCES = 20  # per upper-side class; every second one is adversarial
MAX_ADVERSARY_LABELS = 10**7  # adversary_trials * adversary_T; a coin takes a byte


def suite_agnostic_online_regret(cfg: ExperimentConfig) -> Report:
    checks = []
    # the lower side's coins and its law's horizon are bounded before any work
    trials = cfg.params["adversary_trials"]
    T_adv = cfg.params["adversary_T"]
    if trials * T_adv > MAX_ADVERSARY_LABELS:
        raise ValueError(
            f"{cfg.experiment}: adversary_trials * adversary_T = {trials} * {T_adv} "
            f"labels exceed the limit of {MAX_ADVERSARY_LABELS}"
        )
    law_adversary = online.tree_adversary(core.concept_class(1, ["0", "1"]), 1, T_adv)
    # (a) upper side: the subset-expert construction on small classes
    class_specs = [
        core.concept_class(3, ["000", "111"]),
        core.concept_class(3, ["01*", "*10", "110"]),
        core.concept_class(2, ["00", "01", "10", "11"]),
        core.concept_class(4, ["00**", "01**", "10**", "11**"]),
    ]
    T = cfg.params["T"]
    for ci, cls in enumerate(class_specs):
        learner = online.AgnosticOnlineLearner(cls, T=T)
        ld = learner.ld
        if ld > 2:
            raise AssertionError("upper-side classes are meant to stay at LD <= 2")
        rng = split_rng(cfg.seed, "ao-seq", ci)
        worst = -math.inf
        bound = learner.regret_bound() + ld
        adv = online.tree_adversary(cls, max(ld, 1), T)
        for j in range(AGNOSTIC_SEQUENCES):
            if j % 2 == 0:
                seq = [
                    (rng.randrange(cls.domain_size), rng.randint(0, 1))
                    for _ in range(T)
                ]
            else:
                seq = adv.generate(rng)
            res = learner.run(seq)
            worst = max(worst, res.expected_regret)
        checks.append(
            CheckRecord(
                f"upper-class-{ci}",
                "expected regret <= sqrt((T/2) ln N) + LD (mixture accounting)",
                worst, "<=", bound, tolerance=1e-9,
                extra={"T": T, "experts": learner.n_experts, "ld": ld},
            )
        )
    # (b) lower side: the block adversary forces (1/4) sqrt(dT) regret
    # one fair coin per label: the bits of one getrandbits call, lowest first
    coins = split_rng(cfg.seed, "ao-adversary").getrandbits(trials * T_adv)
    raw = np.frombuffer(coins.to_bytes(trials * T_adv // 8 + 1, "little"), np.uint8)
    ys = np.unpackbits(raw, count=trials * T_adv, bitorder="little")
    ys = ys.reshape(trials, T_adv)
    ones = ys.sum(axis=1, dtype=np.int64)
    best = np.minimum(ones, T_adv - ones)
    target = 0.25 * math.sqrt(T_adv)
    for name, mistakes in (
        ("constant-zero", ones),
        (
            "follow-the-leader",
            _ftl_mistakes(ys),
        ),
    ):
        regrets = mistakes - best
        mean = float(regrets.mean())
        sigma = float(regrets.std(ddof=1) / math.sqrt(trials))
        checks.append(
            CheckRecord(
                f"adversary-vs-{name}",
                "mean regret of the block adversary >= (1/4) sqrt(dT) - 3 sigma",
                mean, ">=", target, tolerance=3 * sigma,
                extra={"sigma": sigma, "z": (mean - target) / sigma if sigma else 0.0},
            )
        )
    # the same adversary's exact law at d = 1, compared in squares: no tolerance
    law = law_adversary.expected_regret()
    checks.append(
        CheckRecord(
            "adversary-law",
            "exact expected regret of the block adversary >= (1/4) sqrt(dT), "
            "in squares: regret^2 >= dT/16",
            law**2, ">=", Fraction(T_adv, 16),
            extra={"d": 1, "T": T_adv, "regret": float(law)},
        )
    )
    return Report(cfg.experiment, cfg.seed, checks, {"trials": trials})


def _ftl_mistakes(ys: np.ndarray) -> np.ndarray:
    """Follow-the-leader's mistakes on each row of a 0/1 label matrix, in one
    pass over its columns: it predicts 1 when more than half the earlier
    labels of the row were 1."""
    trials, T = ys.shape
    ones = np.zeros(trials, np.int64)
    mistakes = np.zeros(trials, np.int64)
    for t in range(T):
        y = ys[:, t]
        mistakes += (2 * ones > t) != y
        ones += y
    return mistakes


def suite_disambiguation_bounds(cfg: ExperimentConfig) -> Report:
    n_classes = cfg.params["classes"]
    checks = []
    for i in range(n_classes):
        rng = split_rng(cfg.seed, "disamb", i)
        cls = _draw_class_until(rng, 12, 16, lambda c: c.vc <= 3, "VC <= 3")
        n = cls.domain_size
        d = cls.vc
        res = disambiguation.vc_majority_disambiguate(cls)
        wres = disambiguation.weighted_disambiguate(cls)
        majority_strong = disambiguation.strong_violation(cls, res.totals) is None
        weighted_strong = disambiguation.strong_violation(cls, wres.totals) is None
        worst_slack = min(
            (d + 1) * math.log2(m) + 2 - wres.prefix_update_count(h, m)
            for h in cls
            for m in range(1, n + 1)
        )
        size_cap = dimensions.sauer_bound(n, int(1 + d * math.log2(n)) if n > 1 else 1)
        checks.append(
            _compound(
                f"class-{i}",
                "majority: updates <= log2 s(H), strong, size capped; "
                "weighted: strong, prefix updates <= (d+1) log2(m) + 2",
                {
                    "max_updates": (
                        max(res.update_count(h) for h in cls), "<=",
                        math.log2(res.info["strength"]),
                    ),
                    "totals": (len(res.totals), "<=", size_cap),
                    "majority_strong": (majority_strong, "==", True),
                    "weighted_strong": (weighted_strong, "==", True),
                    "min_weighted_slack": (worst_slack, ">=", 0),
                },
                {"n": n, "vc": d, "weighted_updates": sum(map(wres.update_count, cls))},
            )
        )
    return Report(cfg.experiment, cfg.seed, checks, {"classes": n_classes})


def suite_biclique_lower_bound(cfg: ExperimentConfig) -> Report:
    sizes = cfg.params["sizes"]
    for m in sizes:  # every size, before any instance is built
        disambiguation.check_vertex_count(m, f"{cfg.experiment}: a 'sizes' entry")
    checks = []
    for m in sizes:
        inst = disambiguation.star_partition_instance(m)
        cls = disambiguation.biclique_class(inst)
        pair_ok = all(
            len(cls.binary_patterns((a, b))) <= 2
            for a in range(cls.domain_size)
            for b in range(a + 1, cls.domain_size)
        )
        checks.append(
            _compound(
                f"K{m}-structure",
                "VC = 1 and every coordinate pair realizes <= 2 patterns",
                {"vc": (cls.vc, "==", 1), "pairs_ok": (pair_ok, "==", True)},
            )
        )
        for builder, label in (
            (disambiguation.vc_majority_disambiguate, "majority"),
            (disambiguation.weighted_disambiguate, "weighted"),
            (disambiguation.support_indicator_disambiguation, "support"),
        ):
            res = builder(cls)
            cert = disambiguation.certify_coloring_lower_bound(inst, res)
            checks.append(
                _compound(
                    f"K{m}-{label}",
                    "strong disambiguation colors the graph with >= chi colors",
                    {
                        "colors": (cert.colors_used, ">=", m),
                        "proper": (cert.is_proper, "==", True),
                    },
                )
            )
    return Report(cfg.experiment, cfg.seed, checks, {"sizes": list(sizes)})


def suite_compression_bounds(cfg: ExperimentConfig) -> Report:
    n_samples = cfg.params["samples"]
    failures = []
    max_size = 0
    max_rounds = 0
    max_ld_size = 0
    for i in range(n_samples):
        rng = split_rng(cfg.seed, "compress", i)
        cls = _draw_class_until(rng, 8, 16, lambda c: c.vc <= 3, "VC <= 3")
        m = rng.randint(1, cfg.params["max_m"])
        seq = _random_realizable_sequence(_defined_concepts(cls), rng, m)
        if not seq:
            continue
        sample = labeled_sample(seq)
        k = learners.boosting_round_size(cls.vc)
        seed = rng.randrange(2**31)
        hyp, comp = learners.alpha_boost_compress(cls, sample, seed=seed)
        consistent = hyp.sample_error(sample) == 0
        size_bound = k * learners.boosting_round_cap(len(sample)) + len(comp.bits)
        rebuilt = learners.reconstruct(cls, comp)
        round_trip = rebuilt == hyp
        ld = dimensions.littlestone_dimension(cls)
        ld_comp = learners.ld_compress(cls, sample)
        ld_fits = ld_comp.size <= ld
        max_size = max(max_size, comp.size)
        max_rounds = max(max_rounds, len(comp.subsample) // k)
        max_ld_size = max(max_ld_size, ld_comp.size)
        if not (consistent and round_trip and comp.size <= size_bound and ld_fits):
            failures.append(i)
    # aggregate record (per-sample records would flood the report)
    checks = [
        _tally(
            "all-samples",
            "every boosted compression is consistent, round-trips, and is "
            "size-bounded; every kept set fits under LD",
            ("samples", n_samples), ("failures", len(failures)),
            extra={
                "failing_indices": failures[:10],
                "max_size": max_size,
                "max_rounds": max_rounds,
                "max_kept_set": max_ld_size,
            },
        )
    ]
    return Report(cfg.experiment, cfg.seed, checks, {"samples": n_samples})


# Trials drawn and fitted per call.  Blocks of 64 to 256 trials run within
# about 10 % of each other, blocks of 16 about 1.8x slower; the draws and
# counts of a block of 64 peak near 0.7 MiB, those of one block of all 2000
# trials near 20 MiB (tracemalloc, acceptance parameters).
_PAC_BLOCK = 64


def suite_pac_realizable(cfg: ExperimentConfig) -> Report:
    eps = cfg.params["eps"]
    delta = cfg.params["delta"]
    trials = cfg.params["trials"]
    checks = []
    for i in range(cfg.params["distributions"]):
        rng = split_rng(cfg.seed, "pac", i)
        cls = _draw_class_until(
            rng, 6, 12,
            lambda c: 1 <= c.vc <= 2 and any(len(h.support()) >= 2 for h in c),
            "VC 1 or 2 and a concept defined on two points",
        )
        target = rng.choice([h for h in cls.concepts if len(h.support()) >= 2])
        supp = target.support()
        weights = [rng.randint(1, 4) for _ in supp]
        total = sum(weights)
        dist = core.finite_distribution(
            {(x, target[x]): Fraction(w, total) for x, w in zip(supp, weights)}
        )
        schedule = learners.pac_schedule(cls.vc, eps, delta)
        atoms = dist.support_pairs()
        errors: dict[PartialConcept, Fraction] = {}  # exact error of each winner
        failures = 0
        draws = split_rng(cfg.seed, "pac-draw", i)
        for lo in range(0, trials, _PAC_BLOCK):
            block = min(_PAC_BLOCK, trials - lo)
            picks = dist.draw(draws, block * schedule.total).reshape(block, schedule.total)
            for hyp in learners.batch_and_validate(
                cls, atoms, picks, eps, delta, cls.one_inclusion
            ):
                err = errors.get(hyp)
                if err is None:
                    err = errors[hyp] = sum(w for (x, y), w in dist.atoms if hyp.labels[x] != y)
                failures += err > eps
        rate = failures / trials
        sigma = math.sqrt(max(rate * (1 - rate), delta * (1 - delta)) / trials)
        checks.append(
            CheckRecord(
                f"distribution-{i}",
                "failure rate at the prescribed sample size <= delta + 3 sigma",
                rate, "<=", delta, tolerance=3 * sigma,
                extra={
                    "m": schedule.total,
                    "sigma": sigma,
                    "z": (rate - delta) / sigma if sigma else 0.0,
                    "vc": cls.vc,
                },
            )
        )
    return Report(cfg.experiment, cfg.seed, checks, {"trials": trials})


def suite_erm_failure(cfg: ExperimentConfig) -> Report:
    n = cfg.params["n"]
    m = cfg.params["m"]
    trials = cfg.params["trials"]
    res = geometry.erm_failure_simulate(n, m, trials, seed=_digest(cfg.seed, "erm"))
    checks = [
        CheckRecord(
            "proper-learner", "mean error of consistent half-support guesses >= 0.2",
            res.proper_mean_error, ">=", Fraction(1, 5),
        ),
        CheckRecord(
            "improper-learner", "the all-zeros predictor never errs",
            res.improper_mean_error, "==", Fraction(0),
        ),
    ]
    return Report(cfg.experiment, cfg.seed, checks, {"n": n, "m": m, "trials": trials})


def suite_geometry(cfg: ExperimentConfig) -> Report:
    checks = []
    for radius, gamma in ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0)):
        certs = geometry.certify_orthonormal_labelings(radius, gamma)
        checks.append(
            _tally(
                f"orthonormal-R{radius:g}",
                "every bipartition certified separable by witness and checker",
                ("labelings", len(certs)), ("failures", certs.count(False)),
            )
        )
    # Voronoi rule on the 5x5 grid, gamma = 0.6: singletons, pairs, the
    # labelings of five packed points, then random ones, kept if separated
    grid = geometry.unit_grid(5)
    gamma = 0.6
    packing = geometry.greedy_packing(grid, gamma)
    points = range(len(grid))
    packing_pts = [0, 4, 12, 20, 24]  # corners and center: pairwise >= 0.6
    rng = split_rng(cfg.seed, "geometry-voronoi")
    candidates = chain(
        ([(i, y)] for i in points for y in (0, 1)),
        (
            [(i, yi), (j, yj)]
            for i, j in combinations(points, 2)
            for yi, yj in product((0, 1), repeat=2)
        ),
        (list(zip(packing_pts, bits)) for bits in product((0, 1), repeat=5)),
        (
            [(i, rng.randint(0, 1)) for i in rng.sample(points, rng.randint(3, 6))]
            for _ in range(300)
        ),
    )
    separated = [c for c in candidates if geometry.is_gamma_separated(grid, c, gamma)]
    mismatches = 0
    for labeled in separated:
        out = geometry.voronoi_disambiguate(packing, labeled)
        mismatches += any(out[i] != y for i, y in labeled)
    checks.append(
        _tally(
            "voronoi-grid",
            "separated labelings are matched on support by the cell rule",
            ("labelings", len(separated)), ("mismatches", mismatches),
        )
    )
    # perceptron streams
    streams = cfg.params["streams"]
    pts = geometry.orthonormal_points(2.0, 1.0)
    rng = split_rng(cfg.seed, "geometry-perceptron")
    over_bound = mistakes = 0
    bound_sum = 0.0
    for _ in range(streams):
        labels = np.array([rng.getrandbits(1) for _ in pts])
        order = rng.sample(range(len(pts)), len(pts))
        stream = np.vstack([pts[order]] * 25)
        ys = np.tile(labels[order], 25)
        report = geometry.perceptron_run(stream, ys)
        over_bound += report.mistakes > report.bound_used
        mistakes += report.mistakes
        bound_sum += report.bound_used
    checks.append(
        _tally(
            "perceptron-streams",
            "mistakes <= the self-measured lifted bound on shuffled streams",
            ("streams", streams), ("violations", over_bound),
            extra={"mistakes_sum": mistakes, "bound_sum": bound_sum},
        )
    )
    return Report(cfg.experiment, cfg.seed, checks, {"streams": streams})


def suite_approximation_monotonicity(cfg: ExperimentConfig) -> Report:
    # each pair with its relations from n - 1 to n = 2, 3: strict where the
    # pair's exact errors rise (1/2, 1/2, 1/2; 1/3, 4/9, 13/27; 0, 1/4, 1/4;
    # 0, 2/9, 2/9; 0, 3/16, 3/16)
    pairs = [
        (core.concept_class(1, ["0"]), uniform_on([(0, 0), (0, 1)]), (">=", ">=")),
        (
            core.concept_class(2, ["0*", "*0"]),
            uniform_on([(0, 0), (0, 1), (1, 0)]),
            (">", ">"),
        ),
        (core.concept_class(2, ["00", "11"]), uniform_on([(0, 0), (1, 1)]), (">", ">=")),
        (
            disambiguation.biclique_class(disambiguation.star_partition_instance(4)),
            uniform_on([(0, 0), (1, 1), (2, 0)]),
            (">", ">="),
        ),
        (
            core.concept_class(3, ["01*", "*10", "1*1"]),
            core.finite_distribution(
                {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 4), (2, 1): Fraction(1, 4)}
            ),
            (">", ">="),
        ),
    ]
    checks = []
    for i, (cls, dist, rises) in enumerate(pairs):
        e1, e2, e3 = (core.approximation_error(cls, dist, n) for n in (1, 2, 3))
        checks.append(
            _compound(
                f"pair-{i}",
                "exact expected best-fit error does not fall from n - 1 to n, "
                "and rises where the pair's law does",
                {"n=2": (e2, rises[0], e1), "n=3": (e3, rises[1], e2)},
            )
        )
    return Report(cfg.experiment, cfg.seed, checks, {"pairs": len(pairs)})


def suite_multiclass_inequalities(cfg: ExperimentConfig) -> Report:
    n_classes = cfg.params["classes"]
    checks = []
    violations = 0
    sums = dict.fromkeys(("natarajan_sum", "graph_sum", "support_vc_sum"), 0)
    for i in range(n_classes):
        cls = _draw_class(split_rng(cfg.seed, "multiclass", i), 8, 20, (0.2, 0.4, 0.6))
        mc = dimensions.multiclass_dimensions(cls)
        res = disambiguation.support_indicator_disambiguation(cls)
        ok = mc.natarajan <= cls.vc + mc.support_vc and res.info["vc"] <= mc.graph
        violations += not ok
        sums["natarajan_sum"] += mc.natarajan
        sums["graph_sum"] += mc.graph
        sums["support_vc_sum"] += mc.support_vc
    checks.append(
        _tally(
            "random-classes",
            "Natarajan <= VC + support-VC and indicator-disambiguation VC <= "
            "graph dimension",
            ("classes", n_classes), ("violations", violations), extra=sums,
        )
    )
    for n in (2, 3, 4):
        h1 = core.concept_class(
            n, ["".join(b) for b in product("0*", repeat=n)]
        )
        h2 = core.concept_class(
            n, ["".join(b) for b in product("1*", repeat=n)]
        )
        composed = disambiguation.majority_compose(
            [h1, h2], disambiguation.majority_table(2)
        )
        checks.append(
            CheckRecord(
                f"closure-failure-{n}",
                "two VC-0 factors compose to a fully shattering class",
                composed.vc, "==", n,
            )
        )
    return Report(cfg.experiment, cfg.seed, checks, {"classes": n_classes})


@dataclass(frozen=True)
class Suite:
    """A suite's run function, the default of every parameter it reads, the
    parameter ``--trials`` sets (if any) and each parameter's least value (if
    it has one)."""

    run: Callable[[ExperimentConfig], Report]
    defaults: dict
    trials: Optional[str] = None
    least: dict = field(default_factory=dict)


SUITES: dict[str, Suite] = {
    "soa-mistake-bound": Suite(
        suite_soa_mistake_bound, {"classes": 200, "sequences": 20},
        least={"classes": 1, "sequences": 1},
    ),
    "one-inclusion-loo": Suite(
        suite_one_inclusion_loo, {"classes": 100, "max_len": 5},
        least={"classes": 1, "max_len": 1},
    ),
    "experts-regret": Suite(
        suite_experts_regret, {"matrices": 100}, least={"matrices": 1}
    ),
    "agnostic-online-regret": Suite(
        suite_agnostic_online_regret,
        {"T": 12, "adversary_trials": 10_000, "adversary_T": 100},
        trials="adversary_trials",
        # a sample sigma takes two trials; the tree adversary needs T at
        # least the upper classes' LD, which reaches 2
        least={"T": 2, "adversary_trials": 2, "adversary_T": 1},
    ),
    "disambiguation-bounds": Suite(
        suite_disambiguation_bounds, {"classes": 100}, least={"classes": 1}
    ),
    "biclique-lower-bound": Suite(
        suite_biclique_lower_bound, {"sizes": (4, 6, 8)}, least={"sizes": 2}
    ),
    "compression-bounds": Suite(
        suite_compression_bounds, {"samples": 500, "max_m": 64},
        trials="samples", least={"samples": 1, "max_m": 1},
    ),
    "pac-realizable": Suite(
        suite_pac_realizable,
        {"eps": 0.2, "delta": 0.1, "trials": 2000, "distributions": 10},
        trials="trials", least={"trials": 1, "distributions": 1},
    ),
    "erm-failure": Suite(
        suite_erm_failure, {"n": 20, "m": 5, "trials": 1000},
        trials="trials", least={"m": 0, "trials": 1},
    ),
    "geometry": Suite(suite_geometry, {"streams": 100}, least={"streams": 1}),
    "approximation-monotonicity": Suite(suite_approximation_monotonicity, {}),
    "multiclass-inequalities": Suite(
        suite_multiclass_inequalities, {"classes": 100}, least={"classes": 1}
    ),
}


def _fits(value, default) -> bool:
    """Whether ``value`` may stand for ``default``: the same type, except that an
    int may stand for a float and a list for a tuple of values that fit."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            _fits(v, default[0]) for v in value
        )
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one suite with ``cfg.params`` over its defaults and ``cfg.trials``
    over the parameter ``--trials`` sets.

    An unknown parameter (``--trials`` for a suite without trials), a value
    whose type does not fit the default, an empty tuple, or a value below its
    least value (any entry, for a tuple) raises ``ValueError`` naming the key
    before any work starts.
    """
    if cfg.experiment not in SUITES:
        raise ValueError(
            f"unknown experiment {cfg.experiment!r}; "
            f"known: {', '.join(sorted(SUITES))}"
        )
    suite = SUITES[cfg.experiment]
    defaults = suite.defaults
    params = dict(cfg.params)
    # a suite without trials knows no parameter "--trials"
    trial_key = suite.trials or "--trials"
    if cfg.trials is not None:
        params[trial_key] = cfg.trials
    for key, value in params.items():
        if key not in defaults:
            known = ", ".join(sorted(defaults)) or "none"
            raise ValueError(
                f"{cfg.experiment}: unknown parameter {key!r}; known: {known}"
            )
        default = defaults[key]
        if not _fits(value, default):
            raise ValueError(
                f"{cfg.experiment}: parameter {key!r} must be "
                f"{type(default).__name__} like its default {default!r}, got {value!r}"
            )
        if isinstance(default, tuple) and not value:
            raise ValueError(f"{cfg.experiment}: parameter {key!r} must not be empty")
    params = {**defaults, **params}
    for key, least in suite.least.items():
        value = params[key]
        tupled = isinstance(defaults[key], tuple)
        for entry in value if tupled else [value]:
            if entry < least:
                via = ", which --trials sets," if key == trial_key else ""
                got = f"{entry} in {list(value)}" if tupled else entry
                raise ValueError(
                    f"{cfg.experiment}: parameter {key!r}{via} must be "
                    f"at least {least}, got {got}"
                )
    return suite.run(replace(cfg, params=params))


# ---------------------------------------------------------------------------
# scaling tables


def _compression_row(m: int, seed: int) -> list:
    rng = split_rng(seed, "scale-compress", m)
    cls = _draw_class_until(rng, 6, 20, lambda c: c.vc <= 3, "VC <= 3")
    k = learners.boosting_round_size(cls.vc)
    sample = labeled_sample(_random_realizable_sequence(_defined_concepts(cls), rng, m))
    _, comp = learners.alpha_boost_compress(cls, sample, seed=rng.randrange(2**31))
    return [m, comp.size, k * learners.boosting_round_cap(m) + len(comp.bits)]


def _disambiguation_row(n: int, seed: int) -> list:
    rng = split_rng(seed, "scale-disamb", n)
    for _ in range(200):  # random VC-1 classes are rare at larger n
        cls = generate_random_class(
            n, min(2 * n, 2**n), rng.choice([0.5, 0.65, 0.8]), rng.randrange(2**31)
        )
        if cls.vc == 1:
            break
    else:
        # star-partition classes are VC-1 at every size
        cls = disambiguation.biclique_class(disambiguation.star_partition_instance(n + 1))
    res = disambiguation.vc_majority_disambiguate(cls)
    return [n, len(res.totals), dimensions.sauer_bound(n, int(1 + math.log2(n)))]


# Each scaling table: its header, the function giving the row of one grid
# point, the default grid and the largest grid point it takes.
SCALING_TABLES: dict[
    str, tuple[list[str], Callable[[int, int], list], list[int], int]
] = {
    # a row holds m labeled points: 10^5 take about 0.1 s and 45 MiB
    "compression-size": (
        ["m", "measured_size", "envelope"], _compression_row, [8, 16, 32, 64], 100_000
    ),
    # generate_random_class draws classes on at most 24 points
    "disambiguation-size": (
        ["n", "measured_totals", "envelope"], _disambiguation_row, [4, 6, 8, 10], 24
    ),
}


def emit_scaling_table(
    experiment: str, grid: list[int], seed: int
) -> tuple[list[str], list[list]]:
    """Rows of (grid point, measured metric, theoretical envelope).

    ``compression-size`` sweeps the sample size m; ``disambiguation-size``
    sweeps the domain size n for VC-1 classes.
    """
    if experiment not in SCALING_TABLES:
        raise ValueError(f"unknown scaling experiment {experiment!r}")
    header, row, _, _ = SCALING_TABLES[experiment]
    return list(header), [row(value, seed) for value in grid]
