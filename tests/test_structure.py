"""Structural guards on the package: its source, read with the AST, and
what its calls leave behind."""

import ast
import gc
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcl.dimensions import MEASURES, measure_report
from pcl.disambiguation import vc_majority_disambiguate, weighted_disambiguate
from pcl.experiments import SUITES, generate_random_class

SRC = Path(__file__).resolve().parents[1] / "src" / "pcl"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement of a pcl module names, as a dotted path.

    ``from . import x`` names both ``pcl`` and ``pcl.x``, since x may be a
    submodule or a name.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "pcl" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "dimensions.py", "online.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    """Theorem checks raise AssertionError themselves, so ``python -O`` keeps them."""
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert statements in {path.name} at lines {lines}"


_MEMOS = {"cache", "lru_cache"}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _memo_lines(node: ast.AST) -> list[int]:
    """Lines naming ``functools.cache`` or ``lru_cache`` outside every function
    body: a decorator, or a module or class statement."""
    lines = []
    if isinstance(node, ast.Name) and node.id in _MEMOS:
        lines.append(node.lineno)
    elif isinstance(node, ast.Attribute) and node.attr in _MEMOS:
        if isinstance(node.value, ast.Name) and node.value.id == "functools":
            lines.append(node.lineno)
    for name, value in ast.iter_fields(node):
        if name == "body" and isinstance(node, _FUNCTIONS):
            continue  # a memo made per call dies with the call
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                lines.extend(_memo_lines(child))
    return lines


def test_no_module_level_memo():
    """A process-wide memo keyed by a class would keep every class alive."""
    for path in MODULES:
        lines = _memo_lines(_tree(path))
        assert lines == [], f"module-level memo in {path.name} at lines {lines}"
    # the guard sees decorators and module statements, and passes per-call memos
    assert _memo_lines(ast.parse("@functools.lru_cache\ndef f(cls): pass")) == [1]
    assert _memo_lines(ast.parse("class A:\n    @cache\n    def f(self): pass")) == [2]
    assert _memo_lines(ast.parse("g = cache(f)")) == [1]
    assert _memo_lines(ast.parse("def f(cls):\n    return cache(partial(g, cls))")) == []


def _lstsq_lines(tree: ast.AST) -> list[int]:
    """Lines naming ``lstsq``: a call through ``np.linalg`` or an imported name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "lstsq":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "lstsq":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            lines.extend(node.lineno for alias in node.names if alias.name == "lstsq")
    return sorted(lines)


def test_no_lstsq():
    """The geometry kernel keeps its corrals affinely independent and solves
    each KKT system exactly; ``lstsq`` would hide a degenerate corral, and its
    first call maps about 1 MiB."""
    for path in MODULES:
        lines = _lstsq_lines(_tree(path))
        assert lines == [], f"lstsq in {path.name} at lines {lines}"
    # the guard sees attribute calls and imported names, and passes other solves
    assert _lstsq_lines(ast.parse("x = np.linalg.lstsq(M, b, rcond=None)[0]")) == [1]
    assert _lstsq_lines(ast.parse("from numpy.linalg import lstsq\nx = lstsq(M, b)")) == [1, 2]
    assert _lstsq_lines(ast.parse("x = np.linalg.solve(M, b)")) == []


_NUMPY_STREAMS = {"default_rng", "Generator"}


def _numpy_stream_lines(tree: ast.AST) -> list[int]:
    """Lines naming a numpy random stream: ``np.random``, ``default_rng`` or
    ``Generator``, as an attribute, a name or an import.  The one import let
    through is exactly ``from numpy.random import RandomState``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            via_numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            if node.attr in _NUMPY_STREAMS or (via_numpy and node.attr == "random"):
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in _NUMPY_STREAMS:
            lines.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            names = [(alias.name, alias.asname) for alias in node.names]
            if node.module == "numpy.random" and names == [("RandomState", None)]:
                continue
            if (node.module or "").startswith("numpy.random") or any(
                alias.name in _NUMPY_STREAMS for alias in node.names
            ):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_numpy_random_streams():
    """Every suite draws from ``random.Random``, whose streams Python keeps
    across versions; numpy promises no stream of its ``Generator``s across
    versions, so a report drawn from one could change with numpy.

    The only numpy twister allowed is ``RandomState``, which
    ``FiniteDistribution.draw`` runs on a ``random.Random``'s own state: NEP 19
    freezes its stream, and ``test_core.TestSampleStream`` pins it draw for
    draw against ``rng.choices``."""
    for path in MODULES:
        lines = _numpy_stream_lines(_tree(path))
        assert lines == [], f"numpy random stream in {path.name} at lines {lines}"
    # the guard sees attributes, names and imports, and passes random.Random
    assert _numpy_stream_lines(ast.parse("g = np.random.default_rng(0)")) == [1]
    assert _numpy_stream_lines(ast.parse("x = numpy.random.rand(3)")) == [1]
    assert _numpy_stream_lines(
        ast.parse("from numpy.random import default_rng\ng = default_rng(0)")
    ) == [1, 2]
    assert _numpy_stream_lines(ast.parse("import numpy.random")) == [1]
    assert _numpy_stream_lines(ast.parse("def f(g: Generator): pass")) == [1]
    assert _numpy_stream_lines(ast.parse("u = random.Random(0).random() + rng.random()")) == []
    # RandomState imported alone passes; beside a stream it is still flagged
    assert _numpy_stream_lines(
        ast.parse("from numpy.random import RandomState\nt = RandomState(0)")
    ) == []
    assert _numpy_stream_lines(
        ast.parse("from numpy.random import RandomState, default_rng")
    ) == [1]


def test_measuring_leaves_numpy_random_unloaded():
    """``numpy.random`` (over 1 MiB of peak RSS) is imported on the first
    ``FiniteDistribution.draw``; importing the CLI and measuring a dimension
    make no draw, so they leave it out."""
    code = (
        "import sys\n"
        "import pcl, pcl.cli\n"
        "from random import Random\n"
        "from pcl import core, dimensions\n"
        "dimensions.measure_report(core.concept_class(3, ['01*', '110', '0*1']), 'ld')\n"
        "print('numpy.random' in sys.modules)\n"
        "core.uniform_on([(0, 1)]).draw(Random(0), 1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


def test_measuring_leaves_no_reference_cycle():
    """Every measure, with its witness, and both votes free what they build by
    reference counting alone: a self-recursive inner function left alive is a
    cycle that the collector must find, on every call."""
    cls = generate_random_class(10, 24, 0.0, 0)  # total, so "dual" applies
    gc.collect()
    gc.disable()
    try:
        for measure in MEASURES:
            measure_report(cls, measure, witness=True)
            assert gc.collect() == 0, measure
        for vote in (vc_majority_disambiguate, weighted_disambiguate):
            vote(cls)
            assert gc.collect() == 0, vote.__name__
    finally:
        gc.enable()


def _targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _labels_classes(tree: ast.AST) -> list[str]:
    """Classes with a ``labels`` field: a ``labels`` statement in the class
    body, or an assignment to ``self.labels`` in one of its methods."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = {t.id for stmt in cls.body for t in _targets(stmt) if isinstance(t, ast.Name)}
        names.update(
            t.attr
            for node in ast.walk(cls)
            for t in _targets(node)
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        )
        if "labels" in names:
            found.append(cls.name)
    return found


def test_one_labeling_type():
    """A hypothesis is a total ``core.PartialConcept``; a second labeling
    type would need conversions, and a majority rule of its own."""
    for path in MODULES:
        if path.name != "core.py":
            found = _labels_classes(_tree(path))
            assert found == [], f"{path.name} defines a labeling type: {found}"
    assert _labels_classes(_tree(SRC / "core.py")) == ["PartialConcept"]
    # the guard sees fields and attributes, and passes method locals and other names
    assert _labels_classes(ast.parse("class H:\n    labels: tuple[int, ...]")) == ["H"]
    assert _labels_classes(
        ast.parse("class H:\n    def __init__(self, v):\n        self.labels = v")
    ) == ["H"]
    assert _labels_classes(
        ast.parse("class H:\n    def f(self):\n        labels = []\n        return labels")
    ) == []
    assert _labels_classes(ast.parse("class P:\n    label_masks: list")) == []


def _layer_imports(imported: set[str], layer: str) -> set[str]:
    return {m for m in imported if m == f"pcl.{layer}" or m.startswith(f"pcl.{layer}.")}


def test_dimensions_imports_nothing_from_online():
    imported = _imported_modules(_tree(SRC / "dimensions.py"))
    assert not _layer_imports(imported, "online")
    # the guard sees the module's real imports
    assert "pcl.core" in imported


def test_geometry_imports_nothing_from_dimensions():
    """The margin verdicts stand on core and learners alone."""
    imported = _imported_modules(_tree(SRC / "geometry.py"))
    assert not _layer_imports(imported, "dimensions")
    assert "pcl.core" in imported and "pcl.learners" in imported


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_parameter_is_declared_in_its_signature(name):
    """Every parameter after the seed has its default in the run function's
    signature, and every least key and the ``--trials`` key name one of them:
    a mistyped key would reach ``run_experiment`` as a ``KeyError``."""
    suite = SUITES[name]
    seed, *params = inspect.signature(suite.run).parameters.values()
    assert seed.name == "seed"
    assert [p.name for p in params if p.default is p.empty] == []
    keys = {*suite.least, *([suite.trials] if suite.trials else [])}
    assert keys <= {p.name for p in params}
