"""``cli`` reads no input file itself.

Each document format is read by the module that owns its record:
``ingest`` reads the recordings, the pen events, the hole manifest, the
position file and the path, waypoint and calibration documents,
``framing`` the frame and ``synth`` the simulate configs.  A command
handler calls one of their loaders, so a library user and an in-library
test reach every reader the command line uses.  This ``ast`` scan fails on
a ``cli.py`` that opens a file for reading, refers to a JSON reader
(``read_json`` or a typed number reader) or to a private ``ingest`` name.
"""

from __future__ import annotations

import ast
import pathlib

import styluskit

PACKAGE = pathlib.Path(styluskit.__file__).parent
JSON_READERS = {"read_json", "json_float", "json_floats", "json_int"}


def _opens_for_reading(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open") and not (
        isinstance(func, ast.Attribute) and func.attr == "open"
    ):
        return False
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # the default mode reads, and an unknown one may
    return "+" in mode.value or not any(c in mode.value for c in "wax")


def _is_ingest(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "ingest") or (
        isinstance(node, ast.Attribute) and node.attr == "ingest"
    )


def input_reads(source: str) -> list[tuple[str, int]]:
    """``(what, line)`` of each place in ``source`` that reads input
    itself: an ``open`` for reading, a JSON reader, a private ``ingest`` name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _opens_for_reading(node):
            found.append(("open", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            private = (node.module or "").split(".")[-1] == "ingest"
            for alias in node.names:
                if alias.name in JSON_READERS or (private and alias.name.startswith("_")):
                    found.append((alias.name, node.lineno))
        elif isinstance(node, ast.Attribute):
            if node.attr in JSON_READERS or (
                _is_ingest(node.value) and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                found.append((node.attr, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_cli_reads_no_input_itself():
    assert input_reads((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_guard_sees_every_form_of_reading():
    source = """
from .jsonio import dumps_canonical, read_json
from .ingest import _lines
NAMES = ("read_json", "json_float")

def handler(args):
    from styluskit.jsonio import json_floats as floats
    with open(args.path, encoding="utf-8") as f:
        head = next(ingest._lines(f))
    with open(args.path, "rb") as f, open(args.out, "w") as g, io.open(args.log, mode="a"):
        pass
    doc = jsonio.json_int(args.count, "count")
    return styluskit.ingest._read_block, ingest.__name__, os.open(args.path, flags)
"""
    assert input_reads(source) == [
        ("read_json", 2),
        ("_lines", 3),
        ("json_floats", 7),
        ("open", 8),
        ("_lines", 9),
        ("open", 10),
        ("json_int", 12),
        ("_read_block", 13),
        ("open", 13),
    ]
