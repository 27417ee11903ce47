import hashlib
import json
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from pcl import core, experiments, online
from pcl.experiments import (
    SUITES,
    CheckRecord,
    ExperimentConfig,
    Suite,
    _tally,
    run_experiment,
    verdict,
)
from pcl.serialize import dump_json

from _oracles import approximation_error_by_product

README = Path(__file__).resolve().parents[1] / "README.md"


class TestCheck:
    """``verdict``, which decides every record from its printed operands."""

    @pytest.mark.parametrize(
        "rel,at_edge,beyond",
        [("<=", 5, 6), (">=", 1, 0), (">", 2, 1), ("==", 5, 6)],
    )
    def test_tolerance_edge(self, rel, at_edge, beyond):
        # bound 3 with tolerance 2: the edge is 3 + 2 for <= and ==, 3 - 2 for
        # >=, and just above 3 - 2 for >
        assert verdict(at_edge, rel, 3, 2)
        assert not verdict(beyond, rel, 3, 2)

    @pytest.mark.parametrize("rel", ["<=", ">=", "=="])
    def test_exact_bound_passes(self, rel):
        assert verdict(Fraction(1, 5), rel, Fraction(1, 5), 0)

    def test_zero_tolerance_is_strict(self):
        assert not verdict(Fraction(1, 5), "<=", Fraction(1, 6), 0)
        assert not verdict(Fraction(1, 6), ">=", Fraction(1, 5), 0)
        assert not verdict(Fraction(1, 5), ">", Fraction(1, 5), 0)
        assert not verdict(4, "==", 3, 0)
        assert not verdict(False, "==", True, 0)

    def test_printed_fractions_are_read_exactly(self):
        # the two read equal as floats; as Fractions 1/3 is the larger
        assert not verdict("1/3", "<=", "3333333333333333/10000000000000000", 0)
        assert verdict("1/3", ">", "3333333333333333/10000000000000000", 0)
        assert verdict("25/4", ">=", "25/4", "0")

    def test_compound_holds_at_every_key(self):
        relation = {"cases": ">", "bad": "=="}
        bound = {"cases": 0, "bad": 0}
        assert verdict({"cases": 3, "bad": 0}, relation, bound, 0)
        assert not verdict({"cases": 3, "bad": 1}, relation, bound, 0)
        assert not verdict({"cases": 0, "bad": 0}, relation, bound, 0)

    def test_compound_needs_a_relation_and_bound_per_key(self):
        with pytest.raises(ValueError, match="per key"):
            verdict({"cases": 3, "bad": 0}, {"bad": "=="}, {"bad": 0}, 0)
        with pytest.raises(ValueError, match="per key"):
            verdict({"bad": 0}, {"bad": "=="}, {"bad": 0, "cases": 0}, 0)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            verdict(1, "<", 2, 0)

    def test_record_shows_what_it_judged(self):
        record = CheckRecord("c", "s", 2.5, ">=", 2.0, 0.1, extra={"z": 1.0})
        assert record.to_dict() == {
            "name": "c", "statement": "s", "measured": 2.5, "relation": ">=",
            "bound": 2.0, "tolerance": 0.1, "passed": True, "extra": {"z": 1.0},
        }
        assert record.passed is True
        assert CheckRecord("c", "s", 1, "<=", 1).tolerance == 0
        assert CheckRecord("c", "s", 1, "<=", 1).extra == {}
        exact = CheckRecord("c", "s", Fraction(1, 3), "<=", Fraction(1, 2))
        assert exact.to_dict()["measured"] == "1/3" and exact.passed


class TestTally:
    def test_no_bad_case_passes(self):
        record = _tally("t", "s", ("samples", 3), ("violations", 0))
        assert record.passed
        assert record.measured == {"samples": 3, "violations": 0}
        assert record.relation == {"samples": ">", "violations": "=="}
        assert record.bound == {"samples": 0, "violations": 0}

    def test_one_bad_case_fails(self):
        assert not _tally("t", "s", ("samples", 3), ("violations", 1)).passed

    def test_zero_cases_fail(self):
        assert not _tally("t", "s", ("samples", 0), ("violations", 0)).passed


ACCEPTANCE_SEED = 20240817


def _least(name: str) -> dict:
    """The suite's least parameters; a tuple parameter as a one-entry list."""
    suite = SUITES[name]
    return {
        key: [least] if isinstance(suite.defaults[key], tuple) else least
        for key, least in suite.least.items()
    }


class TestPrintedVerdicts:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_record_is_the_verdict_of_its_printed_fields(self, name):
        report = run_experiment(ExperimentConfig(name, params=_least(name)))
        printed = json.loads(dump_json(report.to_dict(), None))
        assert printed["schema"] == 2
        # every parameter the suite ran with, defaults included
        resolved = {**SUITES[name].defaults, **_least(name)}
        assert printed["params"] == json.loads(json.dumps(resolved))
        assert len(printed["checks"]) == len(report.checks) > 0
        for record, check in zip(printed["checks"], report.checks):
            operands = (record[k] for k in ("measured", "relation", "bound", "tolerance"))
            assert verdict(*operands) is record["passed"] is check.passed, check.name

    def test_pair_relations_follow_the_enumerated_law(self, monkeypatch):
        # each pair-<i> declares a strict rise exactly where the oracle's
        # product-space enumeration of its exact errors rises
        errors = []

        def by_product(cls, dist, n):
            errors.append(approximation_error_by_product(cls, dist, n))
            return errors[-1]

        monkeypatch.setattr(core, "approximation_error", by_product)
        report = run_experiment(ExperimentConfig("approximation-monotonicity"))
        for i, check in enumerate(report.checks):
            e1, e2, e3 = errors[3 * i : 3 * i + 3]
            assert check.relation == {
                "n=2": ">" if e2 > e1 else ">=", "n=3": ">" if e3 > e2 else ">="
            }, check.name
            assert check.passed, check.name


# Each suite's parameters in the stream probe: its least values at
# ACCEPTANCE_SEED, except pac-realizable, whose printed VCs first tell a
# shifted "pac" stream apart at 6 distributions (a failure count of 0 and
# the VC are all its records print of a distribution).  The least values are
# read in the test, so a bad declaration fails only its own suite's tests.
PROBE_PARAMS = {"pac-realizable": {"trials": 1, "distributions": 6}}

# Streams whose shift cannot move any report byte, and why.
BLIND = {
    "pac-draw": "its records print a failure count that is 0 under any draw; "
    "tests/test_core.py::TestDrawContract pins the stream itself",
}


def _probe(name: str, shift=None) -> tuple[set[str], str]:
    """The streams a suite run draws, and its report digest with the seed
    of stream ``shift`` moved by 1."""
    streams = set()
    digest = experiments._digest

    def shifted(seed, stream, *path):
        streams.add(stream)
        return digest(seed + (stream == shift), stream, *path)

    with mock.patch.object(experiments, "_digest", shifted):
        params = PROBE_PARAMS[name] if name in PROBE_PARAMS else _least(name)
        cfg = ExperimentConfig(name, seed=ACCEPTANCE_SEED, params=params)
        text = dump_json(run_experiment(cfg).to_dict(), None)
    return streams, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_stream_moves_the_report_digest(name):
    streams, digest = _probe(name)
    blind = {stream for stream in streams if _probe(name, stream)[1] == digest}
    assert blind == streams & BLIND.keys()


class TestParams:
    @pytest.mark.parametrize(
        "params,named",
        [
            ({"clases": 3}, "'clases'"),
            ({"classes": "abc"}, "'classes'"),
            ({"classes": 2.5}, "'classes'"),
            ({"classes": True}, "'classes'"),
        ],
    )
    def test_bad_param_rejected_before_any_work(self, monkeypatch, params, named):
        def never(seed, classes=200):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(experiments.SUITES, "soa-mistake-bound", Suite(never))
        with pytest.raises(ValueError, match=named):
            run_experiment(ExperimentConfig("soa-mistake-bound", params=params))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment 'nonsense'; known: "):
            run_experiment(ExperimentConfig("nonsense"))

    def test_trials_value_given_twice_rejected_before_any_work(self, monkeypatch):
        def never(seed, classes=200):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(
            experiments.SUITES, "soa-mistake-bound", Suite(never, trials="classes")
        )
        cfg = ExperimentConfig("soa-mistake-bound", trials=3, params={"classes": 5})
        with pytest.raises(ValueError, match="'classes' is given twice"):
            run_experiment(cfg)

    def test_merged_over_defaults(self, monkeypatch):
        seen = []

        def suite(seed, eps=0.2, trials=2000):
            seen.append({"eps": eps, "trials": trials})
            return [CheckRecord("c", "s", 0, "==", 0)]

        monkeypatch.setitem(experiments.SUITES, "pac-realizable", Suite(suite))
        report = run_experiment(ExperimentConfig("pac-realizable", params={"eps": 1}))
        assert seen == [{"eps": 1, "trials": 2000}] == [report.params]

    def test_list_stands_for_tuple(self):
        report = run_experiment(
            ExperimentConfig("biclique-lower-bound", params={"sizes": [4]})
        )
        assert report.params == {"sizes": [4]} and all(c.passed for c in report.checks)
        with pytest.raises(ValueError, match="'sizes'"):
            run_experiment(
                ExperimentConfig("biclique-lower-bound", params={"sizes": [4, 5.5]})
            )


def test_class_search_gives_up_after_1000_draws():
    with pytest.raises(RuntimeError, match="no class with nothing found in 1000 draws"):
        experiments._draw_class_until(random.Random(0), 2, 2, lambda cls: False, "nothing")


def test_upper_side_class_above_ld_two_refused(monkeypatch):
    # the suite's four upper-side classes have LD at most 2; a learner that
    # reads a deeper one stops the suite instead of checking it
    class Deeper(online.AgnosticOnlineLearner):
        def __init__(self, cls, T):
            super().__init__(cls, T)
            self.ld = 3

    monkeypatch.setattr(online, "AgnosticOnlineLearner", Deeper)
    params = {"T": 2, "adversary_T": 1, "adversary_trials": 2}
    with pytest.raises(AssertionError, match="LD <= 2"):
        run_experiment(ExperimentConfig("agnostic-online-regret", params=params))


class TestPacBlocks:
    def test_peak_memory_stays_small(self):
        # The trials are drawn and fitted in blocks.  Blocks of 64 trials peak
        # at about 1.2 MiB; one block of all 2000 trials at about 34 MiB.
        tracemalloc.start()
        try:
            report = run_experiment(
                ExperimentConfig(
                    "pac-realizable", seed=7, params={"trials": 2000, "distributions": 2}
                )
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.checks) == 2
        assert peak < 8 * 2**20


class TestAdversaryBlock:
    def test_peak_memory_stays_small(self):
        # The coin matrix stays one byte per label and follow-the-leader is
        # counted column by column: about 1.7 MiB at acceptance parameters,
        # where int64 copies of the whole matrix peaked at 32 MiB.
        tracemalloc.start()
        try:
            report = run_experiment(
                ExperimentConfig(
                    "agnostic-online-regret",
                    seed=20240817,
                    params={"T": 12, "adversary_T": 100, "adversary_trials": 10_000},
                )
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in report.checks)
        assert peak <= 4 * 2**20


class TestReadme:
    """README's least-value table and ``--trials`` sentence follow the suite records."""

    def test_least_value_table(self):
        table = README.read_text().split("These parameters have a least value")[1]
        rows = re.findall(r"^\| `([\w-]+)` \| (`.*`) \| (\d+)", table, re.M)
        documented = {
            (suite, key, int(least))
            for suite, keys, least in rows
            for key in re.findall(r"`(\w+)`", keys)
        }
        declared = {
            (name, key, least)
            for name, suite in experiments.SUITES.items()
            for key, least in suite.least.items()
        }
        assert documented == declared

    def test_trials_sentence(self):
        text = " ".join(README.read_text().split())
        sentence = re.search(r"`--trials K` sets one parameter: (.*?);", text).group(1)
        documented = set(re.findall(r"`(\w+)` of `([\w-]+)`", sentence))
        declared = {
            (suite.trials, name)
            for name, suite in experiments.SUITES.items()
            if suite.trials
        }
        assert documented == declared
