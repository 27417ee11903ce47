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
        "cf8f43bcc6a011e46796053fa046fad4"
        "d36acf7881ea5437e2e848f4b75c31e9"
    ),
    "one-inclusion-loo": (
        "892e7c3751dcbd900428c1c665376e34"
        "a37660e0e43c2ee01110f59fbbfd425d"
    ),
    "experts-regret": (
        "8c1c2a2289d79857f7c8f23d1dd5981b"
        "a2dcca006fabe567a4d043fb93459190"
    ),
    "agnostic-online-regret": (
        "c2a297bb1df6037f48804117ed52df17"
        "9f14837306b77478404bfa4b04d14e0d"
    ),
    "disambiguation-bounds": (
        "9a22e5917565dd63ae3c30eeb0c4ba54"
        "553fecd801d786b891fbd13a3840081b"
    ),
    "biclique-lower-bound": (
        "8caf27873e706fde0e8aff3eef412ccd"
        "6339f6975e55e960f02bd7c1d405eba6"
    ),
    "compression-bounds": (
        "1d00e64f7ee845771c13356240b25830"
        "dff542974ac4d48010c889717a78748f"
    ),
    "pac-realizable": (
        "31d820756c4018842c6e6b883712d85e"
        "5a48403a33681848f209e86bc4b15813"
    ),
    "erm-failure": (
        "a73b00c4fc6282b6e644d78ca9b886f6"
        "fd488967b8bec0af6057214fa8ae41ea"
    ),
    "geometry": (
        "d8a01e2852d4e6b2e5370be2535b55f5"
        "a00c0e0788992c3e8c9d4dc09dc04e10"
    ),
    "approximation-monotonicity": (
        "c8a97c29458f174d565bdd6a132f01c3"
        "5c31cbe62d8db771a679924cf0a4aa80"
    ),
    "multiclass-inequalities": (
        "9156cffdfbfb95111598389fe2f38778"
        "eea6f28dcedb208af24f46847befff10"
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
        "criterion 11 (exact best-fit error non-decreasing in n)",
    )


def test_criterion_12_multiclass_inequalities():
    _run(
        "multiclass-inequalities",
        60,
        "criterion 12 (multiclass dimension inequalities; closure failure)",
    )
