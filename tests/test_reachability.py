"""Every public top-level function and class in ``src/styluskit`` is
reached: package code outside its own body refers to it, or
``styluskit._EXPORTS`` exports it.

Code that only tests call belongs with the tests (``tests/oracles.py``),
so the suite fails on a public name that nothing in the package uses.  The
check is an ``ast`` scan of the package's sources: a reference is a name,
an attribute or an imported alias, so a name that appears only in a
docstring or a comment does not count.
"""

from __future__ import annotations

import ast
import pathlib

import styluskit

PACKAGE = pathlib.Path(styluskit.__file__).parent
# No command calls these two writers.  Acceptance criterion 8 re-saves a
# calibration through ``save_calibration`` in its body, and ``save_frame``
# is the matching writer of a drawing frame.
ALLOWED = {"save_calibration", "save_frame"}


def _referenced(node: ast.AST) -> set:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.update({child.name.split(".")[-1], child.asname})
    return names


def unreached(sources: dict, exported: set) -> list[str]:
    """``module:name`` of each public top-level ``def`` or ``class`` in
    ``sources`` (file name to source text) that is not in ``exported`` and
    that no code outside its own body refers to."""
    defined = []
    referenced_by: dict = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("_"):
                    defined.append((module, owner))
            referenced_by.setdefault((module, owner), set()).update(_referenced(node))
    return sorted(
        f"{module}:{name}"
        for module, name in defined
        if name not in exported
        and not any(
            name in names for owner, names in referenced_by.items() if owner != (module, name)
        )
    )


def package_unreached() -> list[str]:
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    return unreached(sources, set(styluskit._EXPORTS))


def test_every_public_name_is_reached():
    stray = [entry for entry in package_unreached() if entry.split(":")[1] not in ALLOWED]
    assert stray == []


def test_the_allowed_names_still_need_it():
    assert {entry.split(":")[1] for entry in package_unreached()} == ALLOWED


def test_scan_sees_every_form_of_reference():
    sources = {
        "a.py": '''
"""Mentions docstring_only."""
from .b import imported as renamed
import styluskit.b.imported_module

LIMIT = at_module_scope()


def at_module_scope():
    return renamed


def recursive(n):
    """Calls docstring_only."""
    return recursive(n - 1)


def orphan():
    pass


def _private():
    pass


class Used:
    pass


def caller(obj):
    return Used(), obj.by_attribute()


def exported():
    pass
''',
        "b.py": '''
def imported():
    pass


def imported_module():
    pass


def by_attribute():
    pass


def docstring_only():
    pass
''',
    }
    assert unreached(sources, {"exported"}) == [
        "a.py:caller",
        "a.py:orphan",
        "a.py:recursive",
        "b.py:docstring_only",
    ]
