"""Line reach: the statements of ``src/pcl`` that tier-1 never runs.

Run from anywhere as ``python tests/_reach.py``; it takes no flags.  It runs
tier-1 in this process under a ``sys.settrace`` hook that follows only the
frames whose file lies under ``src/pcl``.  Then it prints each statement inside
a function body that never ran and that ``LISTED`` does not name, each
``LISTED`` entry that names no such statement, and its own run time.  It
exits 1 if it printed a statement or an entry, or if tier-1 failed.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import ast
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pcl"

# Statements that no tier-1 input reaches and that stay, keyed by module, the
# __qualname__ of the function holding them and the first line of their
# unparsed source, each with the reason it stays.
LISTED: dict[tuple[str, str, str], str] = {
    ("pcl.geometry", "_wolfe_corral", "keep[int(np.argmin(lam))] = False"): (
        "a rounding net: the step sets the blocking weight to "
        "(1 - theta) lam_i + theta mu_i, which is 0 in exact arithmetic and "
        "sums two terms of size at most 1, so rounding leaves it near 1e-16, "
        "far below the 1e-14 cut; 100 000 seeded balls and hull gaps never "
        "reached it.  It keeps the inner loop finite should a weight ever "
        "round above the cut"
    ),
    (
        "pcl.geometry",
        "_exact_simplex_max",
        "raise ArithmeticError('a basic column entered; the cost row is stale')",
    ): (
        "no matrix reaches it: the slack columns start basic at cost 0, and a "
        "pivot maps a basic column's cost to (p 0 - f 0) // d = 0 and the "
        "entering column's to (p c - c p) // d = 0.  It guards an edit of the "
        "pivot"
    ),
    (
        "pcl.learners",
        "OneInclusionGraph._repair_orientation",
        "raise AssertionError('orientation repair failed to terminate')",
    ): (
        "no graph reaches it: each reversal lowers the out-degree surplus by "
        "one, and the guard starts above twice the edge count (the guard's "
        "entry in EQUIVALENT, tests/test_mutants.py).  It turns a broken "
        "repair into an error instead of an endless loop"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _header(node: ast.stmt) -> str:
    return ast.unparse(node).splitlines()[0]


def _lines(node: ast.stmt) -> range:
    """The lines whose line events mean that the statement ran: a compound
    statement's header, from its first decorator, or a simple statement whole."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    bodies = [getattr(node, field, None) for field in ("body", "handlers")]
    starts = [block[0].lineno for block in bodies if isinstance(block, list) and block]
    last = min(starts) - 1 if starts else node.end_lineno
    return range(first, max(first, last) + 1)


def statements(path: Path) -> list[tuple[str, int, str, range]]:
    """Every statement inside a function body of the module at ``path``, as
    (qualname, line, source header, lines that mark it run).  Docstrings and
    ``nonlocal``/``global`` statements are left out: no line event marks them.
    """
    found = []

    def visit(body: list[ast.stmt], scope: str, in_function: bool) -> None:
        for node in body:
            if in_function and not isinstance(node, (ast.Nonlocal, ast.Global)):
                found.append((scope, node.lineno, _header(node), _lines(node)))
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                inner = f"{scope}.<locals>.{node.name}" if in_function else (
                    f"{scope}.{node.name}" if scope else node.name
                )
                block = node.body
                if isinstance(node, _FUNCTIONS) and ast.get_docstring(node) is not None:
                    block = block[1:]
                visit(block, inner, isinstance(node, _FUNCTIONS))
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope, in_function)
            for sub in getattr(node, "handlers", []) + getattr(node, "cases", []):
                visit(sub.body, scope, in_function)

    visit(ast.parse(path.read_text(), filename=str(path)).body, "", False)
    return found


def run_tier1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines of each ``src/pcl`` file that ran."""
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def follow(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    os.chdir(ROOT)
    sys.settrace(follow)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    start = time.perf_counter()
    code, ran = run_tier1()
    unreached = []
    stale = set(LISTED)
    for path in sorted(SRC.glob("*.py")):
        module = f"pcl.{path.stem}" if path.stem != "__init__" else "pcl"
        lines = ran.get(str(path), set())
        for qualname, line, text, marks in statements(path):
            key = (module, qualname, text)
            if not lines.isdisjoint(marks):
                continue
            if key in LISTED:
                stale.discard(key)
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{line}  {qualname}  {text}")
    # a listed statement that ran, or that is gone, needs its entry removed
    unreached += [f"listed but not unreached: {key}" for key in sorted(stale)]
    for item in unreached:
        print(item)
    print(f"{len(unreached)} unreached statements; tier-1 exit {code}; "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if unreached or code else 0


if __name__ == "__main__":
    sys.exit(main())
