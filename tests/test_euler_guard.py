"""Euler angles stay at the edges of the package.

The tip calibration carries the solver's quaternion unchanged from the
solve to the calibration file.  Yaw-pitch-roll angles are singular at
pitch +-90 degrees, so a round trip through them on that path loses
precision there.  ``EulerAngles`` and ``euler_to_rotation`` remain in
``geometry``, which defines them, and in ``synth.synth_config_from_doc``,
which reads ``simulate``'s ``true_rotation_ypr_deg``; ``rotation_to_euler`` is a
test oracle in ``tests/oracles.py``.  A reference to any of the three
anywhere else in the package fails here.  The export table in
``__init__.py`` names the first two as strings, which is not a reference.
"""

from __future__ import annotations

import ast
import pathlib

import styluskit

PACKAGE = pathlib.Path(styluskit.__file__).parent
EULER_NAMES = {"EulerAngles", "euler_to_rotation", "rotation_to_euler"}
ALLOWED_FILES = {"geometry.py"}
ALLOWED_FUNCTIONS = {("synth.py", "synth_config_from_doc")}


def euler_references(source: str) -> list[tuple[str | None, int]]:
    """``(innermost enclosing function or None, line)`` of each reference to
    an Euler name: a name, an attribute or an imported alias."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            names: list[str | None] = []
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.alias):
                names = [child.name.split(".")[-1], child.asname]
            if EULER_NAMES.intersection(names):
                found.append((function, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_euler_angles_only_at_the_edges():
    stray = [
        f"{path.name}:{line} (in {function or 'module scope'})"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in ALLOWED_FILES
        for function, line in euler_references(path.read_text(encoding="utf-8"))
        if (path.name, function) not in ALLOWED_FUNCTIONS
    ]
    assert stray == []


def test_the_edges_still_use_them():
    synth = euler_references((PACKAGE / "synth.py").read_text(encoding="utf-8"))
    assert {function for function, _ in synth} == {"synth_config_from_doc"}


def test_guard_sees_every_form_of_reference():
    source = """
from .geometry import EulerAngles
from .geometry import euler_to_rotation as e2r
import styluskit.geometry.rotation_to_euler
NAMES = ("EulerAngles", "rotation_to_euler")

def solve(q):
    angles = geometry.rotation_to_euler(q)

    def inner():
        return EulerAngles(0.0, 0.0, 0.0)
"""
    assert euler_references(source) == [
        (None, 2),
        (None, 3),
        (None, 4),
        ("solve", 8),
        ("inner", 11),
    ]
