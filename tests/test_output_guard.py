"""``jsonio`` alone formats the numbers a command writes, and no module
reaches into another's private names.

Every float in a JSON document or a CSV row is printed by one rule in
``jsonio`` (``%.17g``, NaN as ``null`` in JSON and ``nan`` in CSV), so a
second spelling elsewhere could drift from it.  This ``ast`` scan fails on
a package module other than ``jsonio`` holding a ``.17g`` format in a
string constant (``"%.17g"``, ``format(x, ".17g")``, ``"{:.17g}"``).  A
docstring may name the rule, and an f-string's format spec is left alone:
those build error messages, as ``synth._check_size`` does.  The scan also
fails on any module that imports a private name of another package module
(``from .ingest import _lines``) or reads one through a module it imported
(``ingest._lines``).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import styluskit

PACKAGE = pathlib.Path(styluskit.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _docstrings(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def float_formats(source: str) -> list[int]:
    """Lines of ``source`` holding a ``.17g`` format outside a docstring
    and an f-string's format spec."""
    tree = ast.parse(source)
    skipped = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            skipped.update(id(n) for n in ast.walk(node.format_spec))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ".17g" in node.value and id(node) not in skipped
    )


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str, module: str) -> list[tuple[str, int]]:
    """``(name, line)`` of each private name of another package module that
    ``source``, the text of ``module``, imports or reads as an attribute."""
    tree = ast.parse(source)
    aliases = {}  # local name -> package module bound to it
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] != "styluskit":
            continue
        source_module = parts[-1] if parts[-1] not in ("", "styluskit") else None
        for alias in node.names:
            if source_module is None:  # from . import ingest
                aliases[alias.asname or alias.name] = alias.name
            elif source_module != module and _private(alias.name):
                found.append((alias.name, node.lineno))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and aliases.get(node.value.id, module) != module and _private(node.attr)
        ):
            found.append((node.attr, node.lineno))
    return sorted(found, key=lambda item: (item[1], item[0]))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "jsonio"])
def test_only_jsonio_formats_output_floats(module):
    assert float_formats((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert private_imports(source, module) == []


def test_guard_sees_every_float_format():
    source = '''
"""Floats print as ``%.17g``."""
ROW = "%.17g,%.17g"

def row(x, count):
    """``format(x, ".17g")``."""
    shown = f"{count:.17g}"
    return format(x, ".17g") + "{:.17g}".format(x) + f"{x}" + ROW
'''
    assert float_formats(source) == [3, 8, 8]


def test_guard_sees_every_private_import():
    source = '''
from .ingest import _lines, load_trace
from styluskit.jsonio import _FLOAT as F
from .evaluation import _median
from . import ingest, jsonio as j
from styluskit import synth
from os import _exit

def f(stream):
    self._set()
    synth.__name__
    return ingest._read_block(stream), j._FLOAT, synth._check_size, ingest.load_trace
'''
    assert private_imports(source, "evaluation") == [
        ("_lines", 2), ("_FLOAT", 3), ("_FLOAT", 12), ("_check_size", 12), ("_read_block", 12)
    ]
