"""The single CSV reader against the three parsers it replaced.

The pose, force and demonstration parsers each used to carry their own
header scan and row loop.  Those loops are kept below, verbatim, as
oracles: on any soup of lines the reader must give the same array bytes,
or raise the same exception type with the same message and ``.line``,
and warn with the same text, attributed to the same caller.
"""

from __future__ import annotations

import io
import json
import warnings
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit.errors import FormatError, NonMonotonicTime, ZeroVector
from styluskit.geometry import Pose, TipPoseRecord
from styluskit.ingest import (
    DEMO_CSV_HEADER,
    FORCE_CSV_HEADER,
    POSE_CSV_HEADER,
    DemonstrationTrace,
    ForceRecording,
    PoseRecording,
    TimedPose,
    parse_demo_csv,
    parse_force_csv,
    parse_pen_events,
    parse_pose_csv,
)

_IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


# ------------------------------------------------------------------ oracles


def _lines(stream: Iterable[str]):
    for number, raw in enumerate(stream, start=1):
        yield number, raw.rstrip("\r\n")


def _parse_float(text: str, line: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"cannot parse {what} from {text!r}", line) from None


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

    samples: list[TimedPose] = []
    dropped = 0
    rows = it if not jsonl else _chain_first(header, it)
    for number, text in rows:
        if not text.strip():
            continue
        if jsonl:
            try:
                doc = json.loads(text)
                values = [float(doc[k]) for k in ("t", "x", "y", "z", "qx", "qy", "qz", "qw")]
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
        if samples and t <= samples[-1].t:
            raise NonMonotonicTime(
                f"timestamp {t!r} does not increase past {samples[-1].t!r}", number
            )
        samples.append(TimedPose(t, Pose(np.array(values[4:8]), np.array(values[1:4]))))

    if dropped:
        warnings.warn(f"dropped {dropped} pose rows with non-finite values", stacklevel=2)
    if not samples:
        raise FormatError("no valid data rows")
    return PoseRecording(frame_id=frame_id, samples=samples)


def oracle_parse_force_csv(stream: Iterable[str]) -> ForceRecording:
    it = _lines(stream)
    header = None
    for number, text in it:
        if text.strip():
            header = (number, text.strip())
            break
    if header is None:
        raise FormatError("empty input")
    if header[1] != FORCE_CSV_HEADER:
        raise FormatError(f"expected header {FORCE_CSV_HEADER!r}, got {header[1]!r}", header[0])

    ts: list[float] = []
    fz: list[float] = []
    dropped = 0
    for number, text in it:
        if not text.strip():
            continue
        fields = text.split(",")
        if len(fields) != 2:
            raise FormatError(f"expected 2 fields, got {len(fields)}", number)
        t = _parse_float(fields[0], number, "t")
        f = _parse_float(fields[1], number, "Fz")
        if not (np.isfinite(t) and np.isfinite(f)):
            dropped += 1
            continue
        if ts and t <= ts[-1]:
            raise NonMonotonicTime(f"timestamp {t!r} does not increase past {ts[-1]!r}", number)
        ts.append(t)
        fz.append(f)
    if dropped:
        warnings.warn(f"dropped {dropped} force rows with non-finite values", stacklevel=2)
    if not ts:
        raise FormatError("no valid data rows")
    return ForceRecording(np.array(ts), np.array(fz))


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

    points: list[TipPoseRecord] = []
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
        if points and values[0] <= points[-1].t:
            raise NonMonotonicTime(
                f"timestamp {values[0]!r} does not increase past {points[-1].t!r}", number
            )
        points.append(TipPoseRecord(values[0], np.array(values[1:4]), _IDENTITY_QUAT))
        forces.append(values[4])
    if dropped:
        warnings.warn(f"dropped {dropped} trace rows with non-finite values", stacklevel=2)
    if not points:
        raise FormatError("no valid data rows")
    return DemonstrationTrace(points=points, forces=np.array(forces), source=source)


# ------------------------------------------------------------------ comparison


def _bytes(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def describe(result):
    """Everything a caller can see of a parsed recording, as comparable values."""
    if isinstance(result, PoseRecording):
        samples = result.samples
        return (
            "pose",
            result.frame_id,
            [type(s.t) for s in samples],
            _bytes([s.t for s in samples]),
            _bytes([s.pose.rotation for s in samples]),
            _bytes([s.pose.translation for s in samples]),
        )
    if isinstance(result, ForceRecording):
        return (
            "force",
            result.t.tobytes(),
            result.fz.tobytes(),
            result.t.flags.c_contiguous and result.fz.flags.c_contiguous,
        )
    points = result.points
    return (
        "trace",
        result.source,
        [type(p.t) for p in points],
        _bytes([p.t for p in points]),
        _bytes([p.position for p in points]),
        _bytes([p.orientation for p in points]),
        result.forces.tobytes(),
        result.force_extrapolated,
    )


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
    @given(lines=soups(FORCE_CSV_HEADER))
    def test_force(self, lines):
        assert outcome(parse_force_csv, lines) == outcome(oracle_parse_force_csv, lines)

    @settings(max_examples=300, deadline=None)
    @given(lines=soups(DEMO_CSV_HEADER))
    def test_demo(self, lines):
        assert outcome(parse_demo_csv, lines) == outcome(oracle_parse_demo_csv, lines)

    @pytest.mark.parametrize(
        "parse, oracle, header",
        [
            (parse_pose_csv, oracle_parse_pose_csv, POSE_CSV_HEADER),
            (parse_force_csv, oracle_parse_force_csv, FORCE_CSV_HEADER),
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
        (parse_force_csv, FORCE_CSV_HEADER + "\n0.0,1\n"),
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
