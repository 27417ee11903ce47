"""The benchmark's workloads: seeded inputs, the pcl calls timed, and their checks.

A workload builds one round at a time.  A round is a fixed list of
operations, each one call (or a call and its round trip) into pcl's public
functions, and a list of checks run on the operations' outputs after the
timed calls.  The same seed and round index give the same inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import reference as ref
from pcl import core, dimensions, disambiguation, experiments, geometry, learners, online
from pcl.serialize import dump_json


@dataclass
class Round:
    """Operations are (name, call) pairs; each check reads the outputs by name.

    A check returns a list of failure messages.  It is skipped when an
    operation it reads failed, since that failure is already counted.
    """

    ops: list[tuple[str, Callable[[], object]]] = field(default_factory=list)
    checks: list[tuple[tuple[str, ...], Callable[..., list[str]]]] = field(
        default_factory=list
    )

    def op(self, name: str, call: Callable[[], object]) -> str:
        self.ops.append((name, call))
        return name

    def check(self, names: tuple[str, ...], fn: Callable[..., list[str]]) -> None:
        self.checks.append((names, fn))


def _rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{round_index}")


# ---------------------------------------------------------------------------
# suites: the 12 acceptance suites at the parameters of tests/test_acceptance.py

# (suite, trials, params, number of checks the parameters imply)
SUITES = [
    ("soa-mistake-bound", None, {"classes": 200, "sequences": 20}, 200),
    ("one-inclusion-loo", None, {"classes": 100, "max_len": 5}, 102),
    ("experts-regret", None, {"matrices": 100}, 100),
    (
        "agnostic-online-regret",
        None,
        {"T": 12, "adversary_T": 100, "adversary_trials": 10_000},
        7,
    ),
    ("disambiguation-bounds", None, {"classes": 100}, 100),
    ("biclique-lower-bound", None, {"sizes": (4, 6, 8)}, 12),
    ("compression-bounds", None, {"samples": 500, "max_m": 64}, 1),
    ("pac-realizable", 2000, {"distributions": 10, "eps": 0.2, "delta": 0.1}, 10),
    ("erm-failure", 1000, {"n": 20, "m": 5}, 2),
    ("geometry", None, {"streams": 100}, 5),
    ("approximation-monotonicity", None, {}, 5),
    ("multiclass-inequalities", None, {"classes": 100}, 4),
]


def report_digest(report) -> str:
    """sha256 of the bytes ``pcl experiment`` prints for the report."""
    text = dump_json(report.to_dict(), None) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class Suites:
    trace_rounds = 1  # rounds a traced run traces

    def __init__(self, seed: int):
        self.seed = seed
        self.digests: dict[str, str] = {}

    def round(self, index: int) -> Round:
        rnd = Round()
        for name, trials, params, n_checks in SUITES:
            cfg = experiments.ExperimentConfig(
                name, seed=self.seed, trials=trials, params=dict(params)
            )
            rnd.op(name, lambda cfg=cfg: experiments.run_experiment(cfg))
            rnd.check((name,), self._checker(name, n_checks))
        return rnd

    def _checker(self, name: str, n_checks: int):
        def check(report) -> list[str]:
            self.digests[name] = report_digest(report)
            bad = [c.name for c in report.checks if not c.passed]
            errors = [f"{name}: failed checks {bad[:5]}"] if bad else []
            if len(report.checks) != n_checks:
                errors.append(f"{name}: {len(report.checks)} checks, expected {n_checks}")
            return errors

        return check


# ---------------------------------------------------------------------------
# dims: one fresh class per size, every measure the way `pcl dim` computes it

# (domain size n, |H|, star probability, VC).  A class is redrawn until its VC
# is the one given: VC sets the depth of every enumeration, so fixing it keeps
# the cost of a class steady from seed to seed.  The n = 14 class has VC 4,
# the case where the shatter oracle's caches take the most memory.
DIMS_CLASSES = ((8, 32, 0.25, 3), (12, 40, 0.25, 3), (14, 48, 0.15, 4))
EXACT = ("vc", "ld", "td", "strength")
MULTICLASS = ("natarajan", "graph", "support-vc")
MULTICLASS_MAX_N = 8  # one graph computation takes ~8 s at n = 12


def _class_with_vc(rng: random.Random, n: int, size: int, star: float, vc: int):
    while True:
        cls = experiments.generate_random_class(n, size, star, rng.randrange(2**31))
        if ref.vc(ref.rows_of(cls), n) == vc:
            return cls


class Dims:
    trace_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> Round:
        rng = _rng(self.seed, "dims", index)
        rnd = Round()
        for n, size, star, vc in DIMS_CLASSES:
            cls = _class_with_vc(rng, n, size, star, vc)
            measures = EXACT + (MULTICLASS if n <= MULTICLASS_MAX_N else ())
            names = tuple(
                rnd.op(f"{m} n={n}", self._query(cls, m)) for m in measures
            )
            majority = rnd.op(
                f"majority n={n}",
                lambda cls=cls: disambiguation.vc_majority_disambiguate(cls),
            )
            weighted = rnd.op(
                f"weighted n={n}", lambda cls=cls: disambiguation.weighted_disambiguate(cls)
            )
            smallest = n == DIMS_CLASSES[0][0]
            rnd.check(names, self._measure_checker(cls, measures, smallest))
            rnd.check((names[0], names[3], majority, weighted), self._disamb_checker(cls))
        return rnd

    @staticmethod
    def _query(cls, measure):
        def call():
            report = dimensions.measure_report(cls, measure, witness=True)
            if measure == "ld":  # `pcl dim --measure ld --witness` also emits the tree
                return report, online.littlestone_tree(cls, report.value)
            return report, None

        return call

    @staticmethod
    def _measure_checker(cls, measures, smallest):
        rows, n = ref.rows_of(cls), cls.domain_size

        def check(*outputs) -> list[str]:
            got = {m: out[0].value for m, out in zip(measures, outputs)}
            witness = {m: out[0].witness for m, out in zip(measures, outputs)}
            tree = outputs[measures.index("ld")][1]
            errors = []
            if smallest:
                for m in measures:
                    want = ref.REFERENCE[m](rows, n)
                    if got[m] != want:
                        errors.append(f"{m} n={n}: {got[m]}, reference {want}")
            if not ref.vc_witness_ok(rows, got["vc"], witness["vc"]):
                errors.append(f"vc n={n}: witness {witness['vc']} fails")
            if not ref.td_witness_ok(rows, got["td"], witness["td"]):
                errors.append(f"td n={n}: staircase fails")
            if not ref.ld_tree_ok(rows, got["ld"], tree):
                errors.append(f"ld n={n}: mistake tree fails")
            vc, ld, s = got["vc"], got["ld"], got["strength"]
            if not vc <= ld <= math.log2(len(rows)):
                errors.append(f"n={n}: VC {vc} <= LD {ld} <= log2 |H| fails")
            if not 2**vc <= s <= sauer(n, vc):
                errors.append(f"n={n}: 2^VC <= strength {s} <= Sauer fails")
            if "graph" in got:
                nat, gr, svc = got["natarajan"], got["graph"], got["support-vc"]
                if not vc <= nat <= gr or nat > vc + svc:
                    errors.append(f"n={n}: VC {vc}, Natarajan {nat}, graph {gr}, support {svc}")
            return errors

        return check

    @staticmethod
    def _disamb_checker(cls):
        n = cls.domain_size

        def check(vc_out, strength_out, majority, weighted) -> list[str]:
            d, s = vc_out[0].value, strength_out[0].value
            errors = []
            for label, res in (("majority", majority), ("weighted", weighted)):
                totals = {tuple(t.labels) for t in res.totals}
                for h in cls.concepts:
                    bar = tuple(res.extension_of[h].labels)
                    if bar not in totals or ref.STAR in bar or not ref.extends(h.labels, bar):
                        errors.append(f"{label} n={n}: {h} is not extended")
                        break
            if max(majority.update_count(h) for h in cls) > math.log2(s):
                errors.append(f"majority n={n}: updates exceed log2 s(H)")
            for h in cls:
                if any(
                    weighted.prefix_update_count(h, m) > (d + 1) * math.log2(m) + 2
                    for m in range(1, n + 1)
                ):
                    errors.append(f"weighted n={n}: prefix updates exceed (d+1) log2 m + 2")
                    break
            return errors

        return check


def sauer(n: int, d: int) -> int:
    return sum(math.comb(n, i) for i in range(d + 1))


# ---------------------------------------------------------------------------
# learn: learners, online play and geometry on inputs that are each used once

LEARN_SLOTS = 7  # operations of each kind per round; clouds in R^2 .. R^8
LEARN_NS = (8, 10, 12)
PAC_EPS, PAC_DELTA = 0.3, 0.1
COMPRESS_M = 48
LOO_M = 12
SOA_T = 400
BALL_POINTS = 24
HULL_POINTS = 30  # per side
GAME_POINTS, GAME_BASE = 8, 12


def _learn_class(rng: random.Random, n: int):
    """A fresh class with 1 <= VC <= 3, a target in it and its support."""
    while True:
        cls = experiments.generate_random_class(
            n, rng.randint(8, 24), rng.choice((0.2, 0.35, 0.5)), rng.randrange(2**31)
        )
        rows = ref.rows_of(cls)
        carriers = [h for h in cls.concepts if len(h.support()) >= 2]
        if carriers and 1 <= ref.vc(rows, n) <= 3:
            target = rng.choice(carriers)
            return cls, target, target.support()


def _draw(rng: random.Random, target, support, m: int):
    return core.labeled_sample((x, target[x]) for x in rng.choices(support, k=m))


def _consistent(labels, pairs) -> bool:
    return all(labels[x] == y for x, y in pairs)


class Learn:
    trace_rounds = 10

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> Round:
        rng = _rng(self.seed, "learn", index)
        nprng = np.random.default_rng(rng.randrange(2**63))
        rnd = Round()
        for i in range(LEARN_SLOTS):
            n = LEARN_NS[i % len(LEARN_NS)]
            self._pac(rnd, rng, n, i)
            self._compress(rnd, rng, n, i)
            self._ld_compress(rnd, rng, n, i)
            self._loo(rnd, rng, n, i)
            self._soa(rnd, rng, n, i)
            dim = 2 + i
            self._ball(rnd, nprng, dim, i)
            self._hull(rnd, nprng, dim, i)
            self._game(rnd, rng, i)
        return rnd

    @staticmethod
    def _pac(rnd, rng, n, i):
        cls, target, support = _learn_class(rng, n)
        weights = [rng.randint(1, 4) for _ in support]
        dist = core.finite_distribution(
            {(x, target[x]): Fraction(w, sum(weights)) for x, w in zip(support, weights)}
        )
        schedule = learners.pac_schedule(ref.vc(ref.rows_of(cls), n), PAC_EPS, PAC_DELTA)
        sample = dist.sample(rng, schedule.total)
        name = rnd.op(
            f"pac {i}",
            lambda: learners.pac_learn_realizable(
                cls, sample, PAC_EPS, PAC_DELTA, cache=learners.OneInclusionCache()
            ),
        )

        def check(hyp):
            size = schedule.batch_size
            batches = [
                sample.pairs[b * size : (b + 1) * size] for b in range(schedule.batches)
            ]
            if any(_consistent(hyp.labels, batch) for batch in batches):
                return []
            return [f"pac {i}: hypothesis fits none of its batches"]

        rnd.check((name,), check)

    @staticmethod
    def _compress(rnd, rng, n, i):
        cls, target, support = _learn_class(rng, n)
        sample = _draw(rng, target, support, COMPRESS_M)
        seed = rng.randrange(2**31)

        def call():
            hyp, comp = learners.alpha_boost_compress(cls, sample, seed)
            return hyp, comp, learners.reconstruct(cls, comp)

        def check(out):
            hyp, comp, rebuilt = out
            errors = []
            if not _consistent(hyp.labels, sample.pairs):
                errors.append(f"boost {i}: majority does not fit its sample")
            if rebuilt != hyp:
                errors.append(f"boost {i}: reconstruct does not rebuild the majority")
            if not set(comp.subsample) <= set(sample.pairs):
                errors.append(f"boost {i}: payload holds points outside the sample")
            return errors

        rnd.check((rnd.op(f"boost {i}", call),), check)

    @staticmethod
    def _ld_compress(rnd, rng, n, i):
        cls, target, support = _learn_class(rng, n)
        sample = _draw(rng, target, support, COMPRESS_M)

        def call():
            comp = learners.ld_compress(cls, sample)
            return comp, learners.reconstruct(cls, comp)

        def check(out):
            comp, rebuilt = out
            errors = []
            if comp.size > ref.ld(ref.rows_of(cls), n):
                errors.append(f"ld-compress {i}: kept set exceeds LD")
            if not set(comp.subsample) <= set(sample.pairs):
                errors.append(f"ld-compress {i}: kept points outside the sample")
            if not _consistent(rebuilt.labels, sample.pairs):
                errors.append(f"ld-compress {i}: reconstruction does not fit the sample")
            return errors

        rnd.check((rnd.op(f"ld-compress {i}", call),), check)

    @staticmethod
    def _loo(rnd, rng, n, i):
        cls, target, support = _learn_class(rng, n)
        sample = _draw(rng, target, support, LOO_M)
        name = rnd.op(f"loo {i}", lambda: learners.loo_error(cls, sample))

        def check(err):
            bound = Fraction(ref.vc(ref.rows_of(cls), n), len(sample))
            return [] if err <= bound else [f"loo {i}: {err} > VC/|S| = {bound}"]

        rnd.check((name,), check)

    @staticmethod
    def _soa(rnd, rng, n, i):
        cls, target, support = _learn_class(rng, n)
        seq = [(x, target[x]) for x in rng.choices(support, k=SOA_T)]
        name = rnd.op(f"soa {i}", lambda: online.play_sequence(cls, online.Soa(cls), seq))

        def check(transcript):
            ld = ref.ld(ref.rows_of(cls), n)
            errors = []
            if len(transcript.rounds) != len(seq):
                errors.append(f"soa {i}: {len(transcript.rounds)} rounds played")
            if transcript.mistakes > ld:
                errors.append(f"soa {i}: {transcript.mistakes} mistakes > LD {ld}")
            return errors

        rnd.check((name,), check)

    @staticmethod
    def _ball(rnd, nprng, dim, i):
        points = nprng.normal(size=(BALL_POINTS, dim))
        name = rnd.op(f"ball {i}", lambda: geometry.min_enclosing_ball(points))

        def check(out):
            center, radius = out
            if ref.ball_certified(points, np.asarray(center), radius):
                return []
            return [f"ball {i}: no optimality certificate"]

        rnd.check((name,), check)

    @staticmethod
    def _hull(rnd, nprng, dim, i):
        shift = nprng.normal(size=dim)
        a = nprng.normal(size=(HULL_POINTS, dim)) + 3.0 * shift / np.linalg.norm(shift)
        b = nprng.normal(size=(HULL_POINTS, dim))
        name = rnd.op(f"hull {i}", lambda: geometry.hull_distance(a, b))

        def check(out):
            distance, z = out
            if z is not None and ref.hull_distance_certified(a, b, distance, np.asarray(z)):
                return []
            return [f"hull {i}: Wolfe certificate fails"]

        rnd.check((name,), check)

    @staticmethod
    def _game(rnd, rng, i):
        base = core.total_class(
            GAME_POINTS,
            ["".join(rng.choice("01") for _ in range(GAME_POINTS)) for _ in range(GAME_BASE)],
        )
        sample = core.labeled_sample((x, rng.getrandbits(1)) for x in range(GAME_POINTS))
        name = rnd.op(f"game {i}", lambda: geometry.weak_learning_game(base, sample))

        def check(game):
            pairs = sorted(set(sample.pairs))
            columns = {tuple(int(h[x] != y) for x, y in pairs) for h in base.concepts}
            if set(game.columns) != columns:
                return [f"game {i}: columns are not the base's error patterns"]
            errors = [[col[r] for col in game.columns] for r in range(len(pairs))]
            if ref.game_certified(errors, game.value, game.mixture):
                return []
            return [f"game {i}: value {game.value} fails the LP certificate"]

        rnd.check((name,), check)


WORKLOADS = {"suites": Suites, "dims": Dims, "learn": Learn}
