"""Acceptance suite: every criterion runs at full scale with its time budget.

Each test executes one named experiment suite exactly as the CLI would, at
the suite's declared defaults, asserts that no check failed and that the
report has the check count the benchmark's suite table expects, and prints a
single pass/fail line (visible with ``pytest -s`` or in the captured output
of a failing run).
"""

import functools
import hashlib
import importlib.util
import sys
import time
from pathlib import Path

from pcl.core import concept_class
from pcl.experiments import SUITES, ExperimentConfig, run_experiment
from pcl.online import tree_adversary
from pcl.serialize import dump_json

ACCEPTANCE_SEED = 20240817

BENCH = Path(__file__).resolve().parents[1] / "bench"

# sha256 of the bytes ``pcl experiment <name>`` prints for each suite at
# ACCEPTANCE_SEED with its default parameters.  A change that alters any report
# byte for this seed fails here, so speed-ups and refactors show they keep
# the reports as they were.
REPORT_SHA256 = {
    "soa-mistake-bound": (
        "da5e767b8875262eb7f9ec1b72ce22ec"
        "1558114ade2ce6d2e47177a2143c723c"
    ),
    "one-inclusion-loo": (
        "d7d3ea1ea3a20813d895f5106eb643c0"
        "7ab418c7d4d219693e6e9548e178abd8"
    ),
    "experts-regret": (
        "88e5f3297ed4a5fb3972e36d55706178"
        "27dee2bca7674436d0035192721ded1c"
    ),
    "agnostic-online-regret": (
        "e2cf36a48e18417de8ef202d7f177439"
        "006347d9dec9a00070e5d3aa94621b9f"
    ),
    "disambiguation-bounds": (
        "b34880e3de0e9ad8f1c332a75a906358"
        "4d7a2f9ae9ca7bef02d370da30cb21e7"
    ),
    "biclique-lower-bound": (
        "0a1f98d24db5d043876532e0a947c165"
        "70cb66e8524b695309c7eaca8860b2bf"
    ),
    "compression-bounds": (
        "d537b8aca7e995e9edbd5acdebc0a262"
        "3b0491b2d72880f7ccb057f4303c28ff"
    ),
    "pac-realizable": (
        "3cde92dfeba2248dac98eba266ed127a"
        "f2b688be0ad47ea4d1f8e144325cc3ea"
    ),
    "erm-failure": (
        "88c5bf9b62bf0821148ca858c67c3f5b"
        "e64ff13e4115420555679b82df2a202b"
    ),
    "geometry": (
        "7aff7f05bcebf08176ec4156b1a73874"
        "0d260e64aebdef7702f9f59e5f0dfa56"
    ),
    "approximation-monotonicity": (
        "ec163386bd8dc8becdc588b957e2061f"
        "465fbdf91f6ae6980c4b322585697a6a"
    ),
    "multiclass-inequalities": (
        "a3012745864f902ce2a2f7197b3b8011"
        "72f43a8f010078fa24598f47933cc921"
    ),
}


@functools.cache
def bench_suites() -> dict:
    """The benchmark's suite table: name -> (trials, params, check count)."""
    sys.path.insert(0, str(BENCH))  # for the table module's ``import reference``
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", BENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(BENCH))
    return {name: tuple(row) for name, *row in workloads.SUITES}


def test_bench_runs_every_suite_at_its_defaults():
    table = bench_suites()
    assert sorted(table) == sorted(SUITES)
    for name, (trials, params, _) in table.items():
        declared = dict(params)
        if trials is not None:
            declared[SUITES[name].trials] = trials
        assert declared == SUITES[name].defaults, name


def _run(name, budget_s, label):
    start = time.time()
    report = run_experiment(ExperimentConfig(name, seed=ACCEPTANCE_SEED))
    elapsed = time.time() - start
    ok = report.n_failed == 0 and elapsed < budget_s
    print(
        f"[{'PASS' if ok else 'FAIL'}] {label}: "
        f"{report.n_passed}/{len(report.checks)} checks, {elapsed:.1f}s "
        f"(budget {budget_s}s)"
    )
    failing = [c for c in report.checks if not c.passed]
    assert not failing, f"failing checks: {[c.name for c in failing]}"
    assert elapsed < budget_s, f"suite took {elapsed:.1f}s, budget {budget_s}s"
    *_, n_checks = bench_suites()[name]
    assert len(report.checks) == n_checks
    text = dump_json(report.to_dict(), None) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
    return report


def test_criterion_01_soa_mistake_bound():
    _run(
        "soa-mistake-bound",
        30,
        "criterion 1 (SOA mistakes <= LD on 200 classes x 20 sequences)",
    )


def test_criterion_02_one_inclusion_loo():
    report = _run(
        "one-inclusion-loo",
        120,
        "criterion 2 (exact permutation-averaged LOO <= VC/n, 100 classes)",
    )
    edges = next(c for c in report.checks if c.name == "orientation-edges")
    assert edges.passed and edges.measured["graphs"] > 0


def test_criterion_03_experts_regret():
    _run(
        "experts-regret",
        5,
        "criterion 3 (experts regret <= sqrt((T/2) ln N), 100 matrices)",
    )


def test_criterion_04_agnostic_online_regret():
    report = _run(
        "agnostic-online-regret",
        120,
        "criterion 4 (subset-expert regret bound; block adversary >= 2.5)",
    )
    names = {c.name for c in report.checks}
    assert {"adversary-vs-constant-zero", "adversary-vs-follow-the-leader"} <= names
    assert "adversary-law" in names


def test_criterion_04_sampled_means_meet_the_exact_law():
    # the suite's sampled records are one-sided, so that no benchmark seed can
    # fail them; at this fixed seed both means must also lie within 3 sigma
    # of the adversary's exact law
    suite = SUITES["agnostic-online-regret"]
    adv = tree_adversary(concept_class(1, ["0", "1"]), 1, suite.defaults["adversary_T"])
    law = float(adv.expected_regret())
    report = run_experiment(
        ExperimentConfig("agnostic-online-regret", seed=ACCEPTANCE_SEED)
    )
    for record in report.checks:
        if record.name.startswith("adversary-vs-"):
            assert abs(record.measured - law) <= 3 * record.extra["sigma"], record.name


def test_criterion_05_disambiguation_bounds():
    _run(
        "disambiguation-bounds",
        60,
        "criterion 5 (majority update/size bounds; weighted prefix bound)",
    )


def test_criterion_06_biclique_lower_bound():
    _run(
        "biclique-lower-bound",
        10,
        "criterion 6 (complete-graph star partitions force >= m colors)",
    )


def test_criterion_07_compression():
    _run(
        "compression-bounds",
        120,
        "criterion 7 (boosted compression consistent + size bounds, 500 samples)",
    )


def test_criterion_08_pac_realizable():
    _run(
        "pac-realizable",
        180,
        "criterion 8 (wrapper failure rate <= delta + 3 sigma at prescribed m)",
    )


def test_criterion_09_erm_failure():
    _run(
        "erm-failure",
        5,
        "criterion 9 (proper learners err >= 0.2 while all-zeros never errs)",
    )


def test_criterion_10_geometry():
    _run(
        "geometry",
        60,
        "criterion 10 (orthonormal labelings, Voronoi matching, perceptron bound)",
    )


def test_criterion_11_approximation_monotonicity():
    _run(
        "approximation-monotonicity",
        10,
        "criterion 11 (exact best-fit error non-decreasing, strict where the law rises)",
    )


def test_criterion_12_multiclass_inequalities():
    _run(
        "multiclass-inequalities",
        60,
        "criterion 12 (multiclass dimension inequalities; closure failure)",
    )
