"""The package never imports scipy or dataclasses, and an import of either
anywhere in the package fails here.

Every command runs on numpy alone; only the tests use scipy, for their k-d
tree and BFGS oracles.  Records are plain classes: ``@dataclass`` generates
and ``exec``s its methods at import, about 0.5 ms per class, which every
command's start-up would pay."""

from __future__ import annotations

import ast
import pathlib

import styluskit

PACKAGE = pathlib.Path(styluskit.__file__).parent
ALLOWED: set[tuple[str, str | None]] = set()
BANNED = {"scipy", "dataclasses"}


def _is_banned(name: str | None) -> bool:
    return name is not None and name.split(".")[0] in BANNED


def banned_imports(source: str) -> list[tuple[str | None, int]]:
    """``(innermost enclosing function or None, line)`` of each import of a
    :data:`BANNED` package (scipy, dataclasses), by statement or by
    ``importlib.import_module`` / ``__import__``."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            names: list[str | None] = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            elif isinstance(child, ast.Call) and child.args:
                callee = child.func
                callee_name = getattr(callee, "attr", getattr(callee, "id", None))
                first = child.args[0]
                if callee_name in ("import_module", "__import__") and isinstance(
                    first, ast.Constant
                ):
                    names = [str(first.value)]
            if any(_is_banned(name) for name in names):
                found.append((function, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_scipy_is_imported_only_by_the_orientation_solver():
    stray = [
        f"{path.name}:{line} (in {function or 'module scope'})"
        for path in sorted(PACKAGE.rglob("*.py"))
        for function, line in banned_imports(path.read_text(encoding="utf-8"))
        if (path.name, function) not in ALLOWED
    ]
    assert stray == []


def test_guard_sees_every_form_of_import():
    source = """
import scipy
from scipy.spatial import cKDTree
import numpy, scipy.optimize as opt
from . import scipy_free

def solve():
    from scipy.optimize import minimize
    importlib.import_module("scipy.spatial")
    __import__("scipy")

    def inner():
        import scipy.linalg

import dataclasses
from dataclasses import dataclass, field
importlib.import_module("dataclasses")
"""
    assert banned_imports(source) == [
        (None, 2),
        (None, 3),
        (None, 4),
        ("solve", 8),
        ("solve", 9),
        ("solve", 10),
        ("inner", 13),
        (None, 15),
        (None, 16),
        (None, 17),
    ]
