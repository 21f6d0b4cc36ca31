"""The single CSV reader against the parsers it replaced.

The pose and demonstration parsers each used to carry their own
header scan and row loop.  Those loops are kept below, verbatim, as
oracles: on any soup of lines the reader must give the same array bytes,
or raise the same exception type with the same message and ``.line``,
and warn with the same text, attributed to the same caller.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import warnings
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit import ingest
from styluskit.errors import FormatError, NonMonotonicTime, ZeroVector
from styluskit.geometry import (
    MAX_QUAT_NORM2,
    Pose,
    quat_normalize,
    quat_normalize_rows,
)
from styluskit.ingest import (
    DEMO_CSV_HEADER,
    POSE_CSV_HEADER,
    DemonstrationTrace,
    PoseRecording,
    parse_demo_csv,
    parse_pen_events,
    parse_pose_csv,
)

# ------------------------------------------------------------------ oracles


def _lines(stream: Iterable[str]):
    for number, raw in enumerate(stream, start=1):
        yield number, raw.rstrip("\r\n")


def _parse_float(text: str, line: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"cannot parse {what} from {text!r}", line) from None


def _json_number(value) -> float:
    """A JSON-lines field: a JSON number, never a string, a bool or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value} is too large for a float") from None


def _chain_first(first, rest):
    yield first
    yield from rest


def oracle_parse_pose_csv(stream: Iterable[str], frame_id: str = "world") -> PoseRecording:
    it = _lines(stream)
    header = None
    for number, text in it:
        if text.strip():
            header = (number, text.strip())
            break
    if header is None:
        raise FormatError("empty input")

    jsonl = header[1].startswith("{")
    if not jsonl and header[1] != POSE_CSV_HEADER:
        raise FormatError(
            f"expected header {POSE_CSV_HEADER!r}, got {header[1]!r}", header[0]
        )

    times: list[float] = []
    poses: list[Pose] = []
    dropped = 0
    rows = it if not jsonl else _chain_first(header, it)
    for number, text in rows:
        if not text.strip():
            continue
        if jsonl:
            try:
                doc = json.loads(text)
                values = [_json_number(doc[k]) for k in ("t", "x", "y", "z", "qx", "qy", "qz", "qw")]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise FormatError("bad JSON-lines pose record", number) from None
        else:
            fields = text.split(",")
            if len(fields) != 8:
                raise FormatError(f"expected 8 fields, got {len(fields)}", number)
            values = [_parse_float(fields[i], number, POSE_CSV_HEADER.split(",")[i]) for i in range(8)]
        if not all(np.isfinite(values)):
            dropped += 1
            continue
        t = values[0]
        if times and t <= times[-1]:
            raise NonMonotonicTime(
                f"timestamp {t!r} does not increase past {times[-1]!r}", number
            )
        times.append(t)
        poses.append(Pose(np.array(values[4:8]), np.array(values[1:4])))

    if dropped:
        warnings.warn(f"dropped {dropped} pose rows with non-finite values", stacklevel=2)
    if not poses:
        raise FormatError("no valid data rows")
    return PoseRecording(
        frame_id,
        t=times,
        q=[pose.rotation for pose in poses],
        p=[pose.translation for pose in poses],
    )


def oracle_parse_demo_csv(stream: Iterable[str], source: str = "stylus") -> DemonstrationTrace:
    it = _lines(stream)
    header = None
    for number, text in it:
        if text.strip():
            header = (number, text.strip())
            break
    if header is None:
        raise FormatError("empty input")
    if header[1] != DEMO_CSV_HEADER:
        raise FormatError(f"expected header {DEMO_CSV_HEADER!r}, got {header[1]!r}", header[0])

    times: list[float] = []
    positions: list[list[float]] = []
    forces: list[float] = []
    dropped = 0
    for number, text in it:
        if not text.strip():
            continue
        fields = text.split(",")
        if len(fields) != 5:
            raise FormatError(f"expected 5 fields, got {len(fields)}", number)
        values = [_parse_float(fields[i], number, DEMO_CSV_HEADER.split(",")[i]) for i in range(5)]
        if not all(np.isfinite(values)):
            dropped += 1
            continue
        if times and values[0] <= times[-1]:
            raise NonMonotonicTime(
                f"timestamp {values[0]!r} does not increase past {times[-1]!r}", number
            )
        times.append(values[0])
        positions.append(values[1:4])
        forces.append(values[4])
    if dropped:
        warnings.warn(f"dropped {dropped} trace rows with non-finite values", stacklevel=2)
    if not times:
        raise FormatError("no valid data rows")
    return DemonstrationTrace(times, positions, np.array(forces), source)


# The row reader the bulk parse sits in front of, as it stood: one float
# list per row, the pose quaternion checks in the parser's own loop.


def oracle_read_rows(stream: Iterable[str], header: str, kind: str, jsonl: bool = False):
    names = header.split(",")
    lines = _lines(stream)
    for number, text in lines:
        first = text.strip()
        if first:
            break
    else:
        raise FormatError("empty input")
    jsonl = jsonl and first.startswith("{")
    if jsonl:
        lines = itertools.chain([(number, first)], lines)
    elif first != header:
        raise FormatError(f"expected header {header!r}, got {first!r}", number)

    last = None
    dropped = 0
    for number, text in lines:
        if not text.strip():
            continue
        if jsonl:
            try:
                doc = json.loads(text)
                values = [_json_number(doc[k]) for k in names]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise FormatError(f"bad JSON-lines {kind} record", number) from None
        else:
            fields = text.split(",")
            if len(fields) != len(names):
                raise FormatError(f"expected {len(names)} fields, got {len(fields)}", number)
            values = [_parse_float(f, number, name) for f, name in zip(fields, names)]
        if not all(map(math.isfinite, values)):
            dropped += 1
            continue
        t = values[0]
        if last is not None and t <= last:
            raise NonMonotonicTime(f"timestamp {t!r} does not increase past {last!r}", number)
        last = t
        yield values
    if dropped:
        warnings.warn(f"dropped {dropped} {kind} rows with non-finite values", stacklevel=3)
    if last is None:
        raise FormatError("no valid data rows")


def oracle_rows_parse_pose_csv(stream: Iterable[str], frame_id: str = "world") -> PoseRecording:
    rows = []
    for v in oracle_read_rows(stream, POSE_CSV_HEADER, "pose", jsonl=True):
        norm2 = v[4] * v[4] + v[5] * v[5] + v[6] * v[6] + v[7] * v[7]
        if norm2 < 1e-20:
            quat_normalize(v[4:8])
        elif norm2 > MAX_QUAT_NORM2:
            raise FormatError(f"quaternion {tuple(v[4:8])} is too large to normalize")
        rows.append(v)
    data = np.array(rows)
    return PoseRecording(
        frame_id,
        t=data[:, 0].copy(),
        q=quat_normalize_rows(data[:, 4:8]),
        p=data[:, 1:4].copy(),
    )


def oracle_rows_parse_demo_csv(
    stream: Iterable[str], source: str = "stylus"
) -> DemonstrationTrace:
    rows = np.array(list(oracle_read_rows(stream, DEMO_CSV_HEADER, "trace")))
    return DemonstrationTrace(rows[:, 0], rows[:, 1:4], rows[:, 4], source)


# ------------------------------------------------------------------ comparison


def _bytes(*arrays) -> list:
    return [(a.shape, a.dtype.str, np.ascontiguousarray(a).tobytes()) for a in arrays]


def describe(result):
    """Everything a caller can see of a parsed recording, as comparable values."""
    if isinstance(result, PoseRecording):
        return ("pose", result.frame_id, _bytes(result.t, result.q, result.p))
    return ("trace", result.source, _bytes(result.times, result.positions, result.forces))


def outcome(parse, lines):
    """Result or exception of ``parse(lines)``, plus every warning with the
    place it points at."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = describe(parse(lines))
        except Exception as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


# ------------------------------------------------------------------ line soups

_NOISE = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "abc", "", " 0.5 ", "0x1", "1_0", "Infinity", "-0.0", "0"]
)
_VALUES = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([0.5, -0.25, 1.0, 0.0])
)
_BLANKS = st.sampled_from(["", "  ", "\t"])


@st.composite
def _time(draw, state):
    """Mostly increasing timestamps, sometimes repeated or decreasing."""
    step = draw(st.sampled_from([0.01] * 16 + [0.0, -0.01, -1.0]))
    state[0] += step
    return round(state[0], 6)


@st.composite
def _csv_line(draw, names, state):
    values = [repr(draw(_time(state)))] + [repr(draw(_VALUES)) for _ in names[1:]]
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(_NOISE)
    count = draw(st.sampled_from([len(values)] * 16 + [len(values) - 1, len(values) + 1]))
    return ",".join((values + ["1"])[:count])


@st.composite
def _json_line(draw, names, state):
    doc = {k: draw(_VALUES) for k in names}
    doc["t"] = draw(_time(state))
    mutation = draw(st.integers(0, 19))
    if mutation == 0:
        del doc[draw(st.sampled_from(names))]
    elif mutation == 1:
        doc[draw(st.sampled_from(names))] = draw(
            st.sampled_from([None, "abc", "2.5", "nan", [1.0], True, float("nan"), float("inf")])
        )
    elif mutation == 2:
        return draw(st.sampled_from(["{bad", "[1, 2]", "3", '"s"', "{}", "null"]))
    return json.dumps(doc)


@st.composite
def soups(draw, header: str, jsonl: bool = False):
    """A list of lines: blank lines, a header (or not), rows with wrong
    field counts, unparseable or non-finite fields, repeated and
    decreasing timestamps, JSON-lines records with missing keys, and
    ``\\n`` or ``\\r\\n`` endings."""
    names = header.split(",")
    state = [0.0]
    body = []
    if draw(st.integers(0, 2 if jsonl else 14)) == 0:
        row = _json_line(names, state)
    else:
        bad_headers = [f" {header} ", header.upper(), "t,x", "#" + header]
        body.append(draw(st.sampled_from([header] * 12 + bad_headers)))
        row = _csv_line(names, state)
    for _ in range(draw(st.integers(0, 10))):
        choice = draw(st.integers(0, 19))
        if choice == 0:
            body.append(draw(_BLANKS))
        elif choice == 1:
            body.append(draw(_json_line(names, state) if not jsonl else _csv_line(names, state)))
        else:
            body.append(draw(row))
    lines = draw(st.lists(_BLANKS, max_size=2)) + body
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    out = [line + ending for line in lines]
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n")
    return out


class TestReaderMatchesOracles:
    @settings(max_examples=400, deadline=None)
    @given(lines=soups(POSE_CSV_HEADER, jsonl=True))
    def test_pose(self, lines):
        assert outcome(parse_pose_csv, lines) == outcome(oracle_parse_pose_csv, lines)

    @settings(max_examples=300, deadline=None)
    @given(lines=soups(DEMO_CSV_HEADER))
    def test_demo(self, lines):
        assert outcome(parse_demo_csv, lines) == outcome(oracle_parse_demo_csv, lines)

    @pytest.mark.parametrize(
        "parse, oracle, header",
        [
            (parse_pose_csv, oracle_parse_pose_csv, POSE_CSV_HEADER),
            (parse_demo_csv, oracle_parse_demo_csv, DEMO_CSV_HEADER),
        ],
    )
    def test_fixed_cases(self, parse, oracle, header):
        width = len(header.split(","))
        row = ",".join(["0"] + ["1"] * (width - 1))
        cases = [
            [],
            ["\n", "  \r\n"],
            [header + "\n"],
            ["\r\n", header + "\r\n", row.replace("0", "0.5", 1) + "\r\n"],
            [header + "\n", row.replace("1", "nan") + "\n"],
            [header + "\n", row + "\n", row.replace("1", "inf") + "\n", row + "\n"],
            [header + "\n", row + "\n", "\n", "0.1," + row + "\n"],
        ]
        for lines in cases:
            assert outcome(parse, lines) == outcome(oracle, lines), lines


def test_pose_zero_quaternion_raises_before_a_later_bad_row():
    """Records are built as rows are read, so a degenerate pose raises at
    its own row, ahead of a format error further down."""
    lines = [
        POSE_CSV_HEADER + "\n",
        "0.0,0,0,0,0,0,0,0\n",
        "0.1,x,0,0,0,0,0,1\n",
    ]
    assert outcome(parse_pose_csv, lines) == outcome(oracle_parse_pose_csv, lines)
    assert outcome(parse_pose_csv, lines)[0][0].__name__ == "ZeroVector"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_pose_csv, POSE_CSV_HEADER + "\n0.0,0,0,0,0,0,0,1\n"),
        (parse_demo_csv, DEMO_CSV_HEADER + "\n0.0,0,0,0,1\n"),
        (parse_pen_events, "EVT 0.1 BTN 1\n"),
    ],
)
def test_non_utf8_text_is_a_format_error(parse, text):
    raw = text.encode("utf-8") + b"0.\xff\n"
    with pytest.raises(FormatError, match="not UTF-8") as excinfo:
        parse(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    assert excinfo.value.line is not None


_JSON_POSE = '{{"t": {t}, "x": 0, "y": 0, "z": 0, "qx": {qx}, "qy": 0, "qz": 0, "qw": {qw}}}\n'


@pytest.mark.parametrize(
    "lines, raises",
    [
        # The zero quaternion follows a dropped row: it raises at its own
        # row, before the dropped-rows warning is due.
        ([POSE_CSV_HEADER + "\n", "0.0,0,0,0,0,0,0,1\n", "0.1,nan,0,0,0,0,0,1\n",
          "0.2,0,0,0,0,0,0,0\n", "0.3,0,0,0,0,0,0,1\n"], True),
        ([POSE_CSV_HEADER + "\n", "0.0,0,0,0,0,0,0,1\n", "0.1,0,0,0,1e-13,0,0,-1e-13\n",
          "0.2,x,0,0,0,0,0,1\n"], True),
        # Tiny but above quat_normalize's threshold: normalized, no error.
        ([POSE_CSV_HEADER + "\n", "0.0,0,0,0,1e-11,0,0,-1e-11\n", "0.1,inf,0,0,0,0,0,1\n"], False),
        ([_JSON_POSE.format(t=0.0, qx=0, qw=0)], True),
        ([_JSON_POSE.format(t=0.0, qx=0, qw=1), _JSON_POSE.format(t=0.1, qx=0, qw=0), "{\n"], True),
        ([_JSON_POSE.format(t=0.0, qx=-2, qw=-1), _JSON_POSE.format(t=0.1, qx=1e-11, qw=0)], False),
    ],
)
def test_pose_zero_quaternion_cases(lines, raises):
    """Rows are stacked after reading, yet a zero quaternion still raises
    :class:`ZeroVector` at its own row, in CSV and JSON-lines alike."""
    result, caught = outcome(parse_pose_csv, lines)
    assert (result, caught) == outcome(oracle_parse_pose_csv, lines)
    if raises:
        assert result[0] is ZeroVector and caught == []
    else:
        assert result[0] == "pose"


# ------------------------------------------------------------ valid files

# One anomaly at most per file; each sends the bulk parse back to the row
# loop, or (blank lines, ``\r\n``) must be read as the row loop reads them.
_ANOMALIES = ["field", "count", "non-finite", "time", "quaternion", "blank", "crlf"]
_BAD_FIELDS = ["abc", "1_0", "١", "", "0x1", "1\x1c", "\x1f2", " 0.5 ", "1 2", "nan(1)"]
_NON_FINITE = ["nan", "-nan", "inf", "-inf", "Infinity", "1e400"]
_ODD_QUATERNIONS = [
    "0,0,0,0",  # ZeroVector
    "1e-13,0,0,1e-13",  # squared norm below 1e-24: ZeroVector
    "1e-11,0,0,-1e-11",  # below 1e-20 but normalizable
    "1e151,0,0,1",  # squared norm above MAX_QUAT_NORM2
    "0,0,1.1e150,0",
    "-1e155,0,0,-1e155",
]


@st.composite
def valid_files(draw, header: str, anomalies=(None, *_ANOMALIES)):
    """A file the bulk parse reads as it is: increasing timestamps at 100
    to 240 Hz, finite values written with 17 significant digits or 6
    decimals, unit quaternions in pose rows; then at most one anomaly."""
    names = header.split(",")
    fmt = draw(st.sampled_from(["%.17g", "%.6f"]))
    n = draw(st.integers(1, 12))
    t0 = draw(st.floats(0.0, 100.0))
    step = draw(st.sampled_from([0.01, 1 / 120, 1 / 240]))
    rows = []
    for i in range(n):
        values = [t0 + i * step] + [draw(st.floats(-2.0, 2.0)) for _ in names[1:]]
        if header == POSE_CSV_HEADER:
            q = np.array(values[4:8])
            norm = math.sqrt(q @ q)
            values[4:8] = [0.0, 0.0, 0.0, 1.0] if norm < 1e-3 else (q / norm).tolist()
        rows.append([fmt % v for v in values])

    anomaly = draw(st.sampled_from(anomalies))
    i = draw(st.integers(0, n - 1))
    if anomaly == "field":
        rows[i][draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
    elif anomaly == "count":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    elif anomaly == "non-finite":
        rows[i][draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(_NON_FINITE))
    elif anomaly == "time" and n > 1:
        i = max(i, 1)
        rows[i][0] = draw(st.sampled_from([rows[i - 1][0], fmt % (t0 - 1.0)]))
    elif anomaly == "quaternion" and header == POSE_CSV_HEADER:
        rows[i][4:8] = draw(st.sampled_from(_ODD_QUATERNIONS)).split(",")
    lines = [header] + [",".join(r) for r in rows]
    if anomaly == "blank":
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))), draw(_BLANKS))
    ending = "\r\n" if anomaly == "crlf" else "\n"
    return [line + ending for line in lines]


class TestValidFilesMatchOracles:
    @settings(max_examples=150, deadline=None)
    @given(lines=valid_files(POSE_CSV_HEADER))
    def test_pose(self, lines):
        assert outcome(parse_pose_csv, lines) == outcome(oracle_rows_parse_pose_csv, lines)

    @settings(max_examples=100, deadline=None)
    @given(lines=valid_files(DEMO_CSV_HEADER))
    def test_demo(self, lines):
        assert outcome(parse_demo_csv, lines) == outcome(oracle_rows_parse_demo_csv, lines)


_ROW_ORACLES = [
    (parse_pose_csv, oracle_rows_parse_pose_csv, POSE_CSV_HEADER),
    (parse_demo_csv, oracle_rows_parse_demo_csv, DEMO_CSV_HEADER),
]


def _no_row_loop(*args, **kwargs):
    raise AssertionError("the row loop ran on a clean file")


@pytest.mark.parametrize("parse, oracle, header", _ROW_ORACLES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_clean_files_take_the_bulk_parse(parse, oracle, header, data):
    """With the row loop made to fail, a clean file (17 digits or 6
    decimals, blank lines or ``\\r\\n`` endings) still parses, to the
    oracle's bytes: a silent fall back would fail here."""
    lines = data.draw(valid_files(header, anomalies=(None, "crlf")))
    if data.draw(st.booleans()):
        lines.insert(data.draw(st.integers(1, len(lines))), "\n")
    expected = outcome(oracle, lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_rows", _no_row_loop)
        assert outcome(parse, lines) == expected


def _pose_file(rows: int) -> str:
    return POSE_CSV_HEADER + "\n" + "".join(f"{i * 0.01!r},0,0,0,0,0,0,1\n" for i in range(rows))


@pytest.mark.parametrize("bad_row, raises", [(3, "cannot parse"), (None, "not UTF-8")])
def test_undecodable_text_after_the_first_chunk(bad_row, raises):
    """Text is decoded a chunk at a time, so the body is read past a bad
    row before the bad bytes are met; the bad row is still reported
    first, and otherwise the UTF-8 error with its line."""
    lines = _pose_file(2000).splitlines(True)
    if bad_row is not None:
        lines[bad_row] = "0.02,x,0,0,0,0,0,1\n"
    raw = "".join(lines).encode("utf-8") + b"9.\xff,0,0,0,0,0,0,1\n"
    with pytest.raises(FormatError, match="not UTF-8") as decoding:
        list(ingest._lines(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")))
    assert decoding.value.line > 100
    with pytest.raises(FormatError, match=raises) as excinfo:
        parse_pose_csv(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    assert excinfo.value.line == (bad_row + 1 if bad_row is not None else decoding.value.line)


@pytest.mark.parametrize("parse, oracle, header", _ROW_ORACLES)
@pytest.mark.parametrize("joined", ["\n", "\r", "\x1c"])
def test_one_list_item_holding_two_rows(parse, oracle, header, joined):
    """A list item with a line break or a separator character inside is
    one row to the row loop, however ``loadtxt`` would split it."""
    width = len(header.split(","))
    row = ",".join(["0"] + ["1"] * (width - 1))
    lines = [header + "\n", row + joined + row.replace("0", "0.5", 1) + "\n"]
    result = outcome(parse, lines)
    assert result == outcome(oracle, lines)
    assert result[0][0] is FormatError


@pytest.mark.parametrize("parse, oracle, header", _ROW_ORACLES)
@pytest.mark.parametrize("body", [[], ["\n"], ["\n", "\r\n"], ["  \n"]])
def test_bodies_without_rows_warn_of_nothing(parse, oracle, header, body):
    """A body with no rows never reaches ``loadtxt``, whose empty-input
    warning would otherwise escape; with warnings as errors the error is
    still the row loop's."""
    lines = [header + "\n", *body]
    expected = outcome(oracle, lines)
    assert expected[1] == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected[0][0]) as excinfo:
            parse(lines)
    assert (type(excinfo.value), str(excinfo.value), getattr(excinfo.value, "line", None)) == expected[0]


@pytest.mark.parametrize("char", ["\x1c", "\x1f"])
def test_separator_character_past_the_first_lines(char):
    """The scan for characters ``loadtxt`` strips covers the whole body,
    not only its first lines."""
    lines = _pose_file(6000).splitlines(True)
    lines[5000] = lines[5000].replace(",0,", "," + char + "0,", 1)
    result = outcome(parse_pose_csv, lines)
    assert result == outcome(oracle_rows_parse_pose_csv, lines)
    assert (result[0][0], result[0][2]) == (FormatError, 5001)
