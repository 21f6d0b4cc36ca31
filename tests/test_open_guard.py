"""Every file the package opens is closed by a ``with`` block.

The command-line process ends with ``os._exit`` (``cli.entrypoint``), which
skips the interpreter's teardown, so a file left to its finalizer would
never be flushed.  This ``ast`` scan fails on any ``open(...)`` or
``open_output(...)`` call in ``src/styluskit`` that is not a ``with`` item.
The one exception is ``jsonio.open_output`` itself, which returns the
``open(...)`` that its callers put in their ``with``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import styluskit

PACKAGE = pathlib.Path(styluskit.__file__).parent
OPENERS = {"open", "open_output"}


def _opener(call: ast.Call) -> str | None:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name if name in OPENERS else None


def unmanaged_opens(source: str, factory: str | None = None) -> list[tuple[str, int]]:
    """``(name, line)`` of each open call in ``source`` that is not a
    ``with`` item, leaving out a ``return open(...)`` directly in the
    function named ``factory``."""
    tree = ast.parse(source)
    managed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            managed.update(id(item.context_expr) for item in node.items)
        elif isinstance(node, ast.FunctionDef) and node.name == factory:
            managed.update(id(s.value) for s in node.body if isinstance(s, ast.Return))
    found = [
        (name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (name := _opener(node)) and id(node) not in managed
    ]
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_open_is_a_with_item(module):
    factory = "open_output" if module == "jsonio.py" else None
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unmanaged_opens(source, factory) == []


def test_jsonio_open_output_returns_its_open():
    source = (PACKAGE / "jsonio.py").read_text(encoding="utf-8")
    assert [name for name, _ in unmanaged_opens(source)] == ["open"]


def test_guard_sees_every_form_of_opening():
    source = """
def open_output(path):
    return open(path, "w")

def writer(path, other):
    with open(path) as f, jsonio.open_output(other) as g:
        pass
    log = open(path, "a")
    out = open_output(other)
    return io.open(path), open_output(path).write("x")

def reader(path):
    return open(path)
"""
    assert unmanaged_opens(source, "open_output") == [
        ("open", 8),
        ("open_output", 9),
        ("open", 10),
        ("open_output", 10),
        ("open", 13),
    ]
    assert unmanaged_opens(source) == [
        ("open", 3),
        ("open", 8),
        ("open_output", 9),
        ("open", 10),
        ("open_output", 10),
        ("open", 13),
    ]
