"""Deterministic text for every number a command writes, and the one file path.

All files the toolkit writes go through these helpers so that identical
data always produces identical bytes: dict keys keep insertion order, and
every float, JSON or CSV, is printed with 17 significant digits (lossless
for IEEE 754 doubles), NaN as ``null`` in JSON and ``nan`` in CSV.  A
±inf would print as ``inf``, so every command passes what it writes
through :func:`refuse_inf` before opening the output.

Every output file is opened by :func:`open_output` (UTF-8, ``\\n``
endings) and every JSON file read by :func:`read_json`, which raises
:class:`~styluskit.errors.FormatError` naming the file when its text is
not UTF-8, not valid JSON or an integer too long to read (``OSError``
when it cannot be read).  Only a JSON number passes :func:`json_float`,
:func:`json_floats` or :func:`json_int`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import FormatError, NonFiniteOutput

_FLOAT = "%.17g"  # the one float rule; NaN of either sign prints as nan, null in JSON
_WRITE_BLOCK = 1024


def format_float(x: float) -> str:
    text = _FLOAT % float(x)
    return "null" if text == "nan" else text


def _format_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, np.integer, np.floating))


def refuse_inf(doc) -> None:
    """Raise :class:`NonFiniteOutput` naming the key path of the first ±inf
    in ``doc``, which the writers would print as ``inf``: no JSON reader
    accepts it, and the pose parser drops its row.  Every command checks
    what it writes here before it opens the output."""
    _refuse_inf(doc, "")


def _refuse_inf(obj, where: str) -> None:
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf" and not np.isinf(obj).any():
            return  # one pass over a whole column; the walk below names an infinity
        obj = obj.tolist()
    if isinstance(obj, dict):
        for key, value in obj.items():
            _refuse_inf(value, f"{where}.{key}" if where else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _refuse_inf(value, f"{where}[{i}]")
    elif isinstance(obj, (float, np.floating)) and math.isinf(obj):
        raise NonFiniteOutput(f"cannot write {where or 'the document'}: {obj} is not finite")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Serialize ``obj`` to canonical JSON text (no trailing newline); a
    ±inf prints as ``inf`` (see :func:`refuse_inf`)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if _is_scalar(obj):
        return _format_scalar(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = [x.tolist() if isinstance(x, np.ndarray) else x for x in obj]
        if all(type(x) is float for x in seq):
            # One format for the whole list, the bytes of format_float on each.
            text = ", ".join([_FLOAT] * len(seq)) % tuple(seq)
            return "[" + text.replace("nan", "null") + "]"
        # Python ints and bools in one join each, the bytes of _format_scalar;
        # numpy scalars and mixed lists take the per-scalar path below.
        if all(type(x) is int for x in seq):
            return "[" + ", ".join(map(str, seq)) + "]"
        if all(type(x) is bool for x in seq):
            return "[" + ", ".join(["true" if x else "false" for x in seq]) + "]"
        if all(_is_scalar(x) for x in seq):
            return "[" + ", ".join(_format_scalar(x) for x in seq) + "]"
        items = [f"{inner}{dumps_canonical(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(stream, header: str | None, columns, lead: str = "") -> None:
    """Write ``header`` (unless None), then one CSV line per row of the
    stacked ``columns``, each line starting with the text ``lead``.

    A block of rows at a time is stacked and printed by one ``%`` format of
    ``%.17g`` fields, so no copy of the whole recording is held: the bytes
    of :func:`format_float` on each float, but ``nan`` for NaN and ``inf``
    for ±inf (see :func:`refuse_inf`), and the digits of ``str(int)`` on
    integers below 2**53.
    """
    if header is not None:
        stream.write(header + "\n")
    lead = lead.replace("%", "%%")
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = np.column_stack([c[start : start + _WRITE_BLOCK] for c in columns])
        line = lead + ",".join([_FLOAT] * block.shape[1]) + "\n"
        stream.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def open_output(path):
    """Open ``path`` for writing text: UTF-8, newlines written as ``\\n``."""
    return open(path, "w", encoding="utf-8", newline="")


def write_text(path, text: str) -> None:
    """Write ``text`` and a final newline to ``path``."""
    with open_output(path) as f:
        f.write(text)
        f.write("\n")


def write_json(path, obj) -> None:
    write_text(path, dumps_canonical(obj))


def read_json(path):
    """Load the JSON document in the UTF-8 file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise FormatError(f"{path}: unreadable JSON number ({exc})") from None


def json_float(value, name: str) -> float:
    """A number field of a JSON document (``NaN`` too) as a float; ``ValueError``
    naming the field for a string, bool or null, or an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None


def json_floats(value, name: str) -> np.ndarray:
    """A list of numbers at any depth as a float array of its shape, each
    scalar read by :func:`json_float`; a ragged list raises ``ValueError``."""
    for item in np.array(value, dtype=object).flat:
        if not isinstance(item, list):  # a ragged list: the float array raises
            json_float(item, name)
    return np.array(value, dtype=float)


def json_int(value, name: str) -> int:
    """An integer field of a JSON document: a number with an integral
    value, so ``3`` and ``3.0`` both read as 3.  Raises ``ValueError``
    naming the field for anything else, ``2.7``, ``true`` and ``"3"``
    included, where ``int()`` would truncate or convert them."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)  # numpy integers too, as in-library ``IdealPath`` indices
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
