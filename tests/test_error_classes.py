"""Every concrete error class in ``styluskit.errors`` is raised (or, for a
warning, warned) somewhere under ``src/styluskit``.

A class left behind when the code that raised it is cut would still read
as part of the exit-code contract, so the suite fails on it.  The check is
an ``ast`` scan of the package's sources: the name after ``raise`` and the
names passed to a ``warn`` call.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from styluskit import errors

PACKAGE = pathlib.Path(errors.__file__).parent


def concrete_classes() -> list[str]:
    """Public classes of ``errors.py`` that no class there derives from."""
    tree = ast.parse(pathlib.Path(errors.__file__).read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for c in classes for base in c.bases if isinstance(base, ast.Name)}
    return sorted(c.name for c in classes if c.name not in bases and not c.name.startswith("_"))


def _name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def raised_names() -> set:
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                found.add(_name(node.exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "warn":
                found.update(_name(arg) for arg in [*node.args, *(k.value for k in node.keywords)])
    return found


CONCRETE = concrete_classes()
RAISED = raised_names()


def test_scan_sees_the_leaves_only():
    assert {"FormatError", "ZeroVector", "DegenerateAxesWarning"} <= set(CONCRETE)
    assert not {"StylusKitError", "InputError", "DegenerateDataError"} & set(CONCRETE)


@pytest.mark.parametrize("name", CONCRETE)
def test_is_raised_somewhere(name):
    assert name in RAISED, f"errors.{name} is defined but nothing under src/styluskit raises it"
