import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from pcl import experiments
from pcl.experiments import ExperimentConfig, Suite, _check, _tally, run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


class TestCheck:
    @pytest.mark.parametrize(
        "rel,at_edge,beyond",
        [("<=", 5, 6), (">=", 1, 0)],
    )
    def test_tolerance_edge(self, rel, at_edge, beyond):
        # bound 3 with tol 2: the edge is 3 + 2 for <= and 3 - 2 for >=
        assert _check("c", "s", at_edge, rel, 3, tol=2).passed
        assert not _check("c", "s", beyond, rel, 3, tol=2).passed

    @pytest.mark.parametrize("rel", ["<=", ">=", "=="])
    def test_exact_bound_passes(self, rel):
        assert _check("c", "s", Fraction(1, 5), rel, Fraction(1, 5)).passed

    def test_zero_tolerance_is_strict(self):
        assert not _check("c", "s", Fraction(1, 5), "<=", Fraction(1, 6)).passed
        assert not _check("c", "s", Fraction(1, 6), ">=", Fraction(1, 5)).passed
        assert not _check("c", "s", 4, "==", 3).passed

    def test_record_shows_what_it_judged(self):
        record = _check("c", "s", 2.5, ">=", 2.0, tol=0.1, extra={"z": 1.0})
        assert (record.measured, record.bound, record.extra) == (2.5, 2.0, {"z": 1.0})
        assert record.passed is True
        assert _check("c", "s", 1, "<=", 1).extra == {}

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="relation"):
            _check("c", "s", 1, "<", 2)


class TestTally:
    def test_no_bad_case_passes(self):
        record = _tally("t", "s", ("samples", 3), ("violations", 0))
        assert record.passed
        assert record.measured == {"samples": 3, "violations": 0}
        assert record.bound == {"violations": 0}

    def test_one_bad_case_fails(self):
        assert not _tally("t", "s", ("samples", 3), ("violations", 1)).passed

    def test_zero_cases_fail(self):
        assert not _tally("t", "s", ("samples", 0), ("violations", 0)).passed


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
        def never(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(
            experiments.SUITES, "soa-mistake-bound", Suite(never, {"classes": 200})
        )
        with pytest.raises(ValueError, match=named):
            run_experiment(ExperimentConfig("soa-mistake-bound", params=params))

    def test_merged_over_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setitem(
            experiments.SUITES,
            "pac-realizable",
            Suite(lambda cfg: seen.append(cfg.params), {"eps": 0.2, "trials": 2000}),
        )
        run_experiment(ExperimentConfig("pac-realizable", params={"eps": 1}))
        assert seen == [{"eps": 1, "trials": 2000}]

    def test_list_stands_for_tuple(self):
        report = run_experiment(
            ExperimentConfig("biclique-lower-bound", params={"sizes": [4]})
        )
        assert report.params == {"sizes": [4]} and report.n_failed == 0
        with pytest.raises(ValueError, match="'sizes'"):
            run_experiment(
                ExperimentConfig("biclique-lower-bound", params={"sizes": [4, 5.5]})
            )


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
        assert report.n_failed == 0
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
