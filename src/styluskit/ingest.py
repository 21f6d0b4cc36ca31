"""Recording parsers, stream pairing, and waypoint snapshots.

File formats (UTF-8, ``\\n`` line endings, ``.`` decimal separator):

- pose CSV: header ``t,x,y,z,qx,qy,qz,qw``; a JSON-lines variant with the
  same field names is accepted transparently.
- force CSV: header ``t,Fz``.
- demonstration CSV: header ``t,x,y,z,Fz`` (tip position paired with the
  contact force; orientation is identity).
- pen events, one per line: ``EVT <t> BTN 1`` (press), ``EVT <t> BTN 0``
  (release), ``EVT <t> PWR 1`` (power-on).  Unknown lines are skipped and
  counted.

One reader serves the three CSV formats: the header is the first
non-blank line, blank lines are skipped, and rows with a non-finite value
are dropped with one warning.  A bad header, field count, field or
JSON-lines record, text that is not UTF-8 (pen events too) and a stream
without rows raise :class:`~styluskit.errors.FormatError`, a timestamp
that does not increase :class:`~styluskit.errors.NonMonotonicTime`.

Recordings are columnar.  A parser reads its rows as float lists, stacks
them into one array and slices out the columns: a :class:`PoseRecording`
holds ``t`` (N,), ``q`` (N, 4) and ``p`` (N, 3), a
:class:`DemonstrationTrace` a :class:`~styluskit.geometry.TipTrack` of
``t``, ``position`` and ``orientation`` plus ``forces`` (N,).  Quaternions
are canonicalised all at once by
:func:`~styluskit.geometry.quat_normalize_rows`, bit for bit what
:class:`~styluskit.geometry.Pose` gives per row.  The per-sample objects
(``samples``, ``points``) are views built when read;
:func:`apply_calibration`, :func:`snapshot_waypoints`, :func:`pair_force`
and the writers work on the arrays, and a snapshot builds records only for
the captured presses.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    EventOutsideRecording,
    FormatError,
    NonMonotonicTime,
    NoOverlap,
)
from .geometry import (
    Pose,
    TipPoseRecord,
    TipTrack,
    compose_rows,
    quat_normalize,
    quat_normalize_rows,
)
from .jsonio import read_json, write_json

POSE_CSV_HEADER = "t,x,y,z,qx,qy,qz,qw"
FORCE_CSV_HEADER = "t,Fz"
DEMO_CSV_HEADER = "t,x,y,z,Fz"

_IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])
_WRITE_BLOCK = 1024


class TimedPose(NamedTuple):
    t: float
    pose: Pose


class PoseRecording:
    """Timestamped fiducial-centroid poses measured from one origin frame.

    Stored as arrays: ``t`` (N,) strictly increasing seconds, ``q`` (N, 4)
    canonical unit quaternions (as :func:`~styluskit.geometry.quat_normalize_rows`
    returns them) and ``p`` (N, 3) translations.  Build it from the arrays
    (``PoseRecording(frame_id, t=..., q=..., p=...)``) or from a list of
    :class:`TimedPose` (``samples=``).  ``samples`` is that list, or a
    list built on first use; it is a view to read, not to edit.
    """

    def __init__(
        self, frame_id: str, samples: list[TimedPose] | None = None, *, t=None, q=None, p=None
    ):
        self.frame_id = frame_id
        self._samples = samples
        if samples is not None:
            t = [s.t for s in samples]
            q = np.array([s.pose.rotation for s in samples]).reshape(-1, 4)
            p = np.array([s.pose.translation for s in samples]).reshape(-1, 3)
        self.t = np.asarray(t, dtype=float).reshape(-1)
        self.q = np.asarray(q, dtype=float).reshape(-1, 4)
        self.p = np.asarray(p, dtype=float).reshape(-1, 3)
        if not self.t.size:
            raise ValueError("pose recording must not be empty")
        if not self.t.size == self.q.shape[0] == self.p.shape[0]:
            raise ValueError("pose recording needs one rotation and one translation per time")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("pose recording timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.t.size

    @property
    def samples(self) -> list[TimedPose]:
        if self._samples is None:
            self._samples = [
                TimedPose(t, Pose(q, p)) for t, q, p in zip(self.t.tolist(), self.q, self.p)
            ]
        return self._samples

    @property
    def times(self) -> np.ndarray:
        return self.t


@dataclass
class ForceRecording:
    """A single-axis contact-force time series (newtons)."""

    t: np.ndarray
    fz: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.fz = np.asarray(self.fz, dtype=float)
        if self.t.shape != self.fz.shape or self.t.ndim != 1:
            raise ValueError("force samples need matching 1-d t and Fz arrays")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("force timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.t.size


class PenEventKind(enum.Enum):
    BUTTON_PRESS = "press"
    BUTTON_RELEASE = "release"
    POWER_ON = "power_on"


class PenEvent(NamedTuple):
    t: float
    kind: PenEventKind


@dataclass
class DemonstrationTrace:
    """Tip trajectory with optional per-point contact forces.

    ``points`` may be given as a list of records; it is kept as a
    :class:`~styluskit.geometry.TipTrack`, whose ``t``, ``position`` and
    ``orientation`` arrays are what ``times`` and ``positions`` return.
    ``force_extrapolated`` flags points whose force value came from
    clamping outside the force recording span.
    """

    points: TipTrack
    forces: np.ndarray | None = None
    source: str = "stylus"
    force_extrapolated: np.ndarray | None = None

    def __post_init__(self):
        self.points = TipTrack.from_records(self.points)
        if np.any(np.diff(self.points.t) <= 0.0):
            raise ValueError("trace timestamps must be strictly increasing")
        if self.forces is not None:
            self.forces = np.asarray(self.forces, dtype=float)
            if self.forces.shape != (len(self.points),):
                raise ValueError("need exactly one force value per trace point")
        if self.source not in ("stylus", "robot"):
            raise ValueError(f"unknown trace source {self.source!r}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def times(self) -> np.ndarray:
        return self.points.t

    @property
    def positions(self) -> np.ndarray:
        return self.points.position


@dataclass
class WaypointList:
    """Tip poses captured with the snapshot button, in capture order."""

    waypoints: list[TipPoseRecord] = field(default_factory=list)

    def __post_init__(self):
        ts = [w.t for w in self.waypoints]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("waypoints must be ordered by capture time")

    def __len__(self) -> int:
        return len(self.waypoints)


def _lines(stream: Iterable[str]):
    number = 0
    try:
        for number, raw in enumerate(stream, start=1):
            yield number, raw.rstrip("\r\n")
    except UnicodeDecodeError as exc:
        # Text is decoded in chunks, so the bad byte may lie further on.
        raise FormatError(
            f"text at or after this line is not UTF-8 ({exc.reason})", number + 1
        ) from None


def _parse_float(text: str, line: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"cannot parse {what} from {text!r}", line) from None


def _read_rows(stream: Iterable[str], header: str, kind: str, jsonl: bool = False):
    """Yield the rows of a ``header`` CSV stream as float lists, as read.

    With ``jsonl``, a first line starting with ``{`` begins JSON-lines
    records keyed by the header's field names.  Iterate from the caller's
    own frame (``for`` or ``list()``): the warning points one frame above.
    """
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
                values = [float(doc[k]) for k in names]
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


def parse_pose_csv(stream: Iterable[str], frame_id: str = "world") -> PoseRecording:
    """Parse a pose CSV (or JSON-lines) stream into a :class:`PoseRecording`.

    A (near-)zero quaternion raises :class:`~styluskit.errors.ZeroVector`
    at its own row, ahead of any later error and of the dropped-rows
    warning: a row whose squared norm is below 1e-20, far above the 1e-24
    at which :func:`~styluskit.geometry.quat_normalize` raises, goes
    through it as it is read.
    """
    rows = []
    for v in _read_rows(stream, POSE_CSV_HEADER, "pose", jsonl=True):
        if v[4] * v[4] + v[5] * v[5] + v[6] * v[6] + v[7] * v[7] < 1e-20:
            quat_normalize(v[4:8])
        rows.append(v)
    data = np.array(rows)
    return PoseRecording(
        frame_id,
        t=data[:, 0].copy(),
        q=quat_normalize_rows(data[:, 4:8]),
        p=data[:, 1:4].copy(),
    )


def parse_force_csv(stream: Iterable[str]) -> ForceRecording:
    """Parse a ``t,Fz`` CSV stream into a :class:`ForceRecording`."""
    rows = np.array(list(_read_rows(stream, FORCE_CSV_HEADER, "force")))
    return ForceRecording(rows[:, 0].copy(), rows[:, 1].copy())


def parse_demo_csv(stream: Iterable[str], source: str = "stylus") -> DemonstrationTrace:
    """Parse a ``t,x,y,z,Fz`` CSV stream into a :class:`DemonstrationTrace`."""
    rows = np.array(list(_read_rows(stream, DEMO_CSV_HEADER, "trace")))
    track = TipTrack(
        rows[:, 0].copy(), rows[:, 1:4].copy(), np.tile(_IDENTITY_QUAT, (rows.shape[0], 1))
    )
    return DemonstrationTrace(points=track, forces=rows[:, 4].copy(), source=source)


def _write_rows(stream, header: str, columns) -> None:
    """Write ``header``, then one CSV line per row of the stacked ``columns``.

    Rows are stacked and turned into Python floats a block at a time, so
    no copy of the whole recording is held.  Each block is one ``%``
    format of ``%.17g`` fields: the bytes of :func:`~styluskit.jsonio.csv_row`
    on float rows (``nan`` for either sign of NaN, ``inf``, ``-0``).
    """
    stream.write(header + "\n")
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = np.column_stack([c[start : start + _WRITE_BLOCK] for c in columns])
        line = ",".join(["%.17g"] * block.shape[1]) + "\n"
        stream.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_pose_csv(rec: PoseRecording, stream) -> None:
    _write_rows(stream, POSE_CSV_HEADER, [rec.t, rec.p, rec.q])


def write_force_csv(rec: ForceRecording, stream) -> None:
    _write_rows(stream, FORCE_CSV_HEADER, [rec.t, rec.fz])


def write_demo_csv(trace: DemonstrationTrace, stream) -> None:
    if trace.forces is None:
        raise ValueError("demonstration CSV requires per-point forces")
    _write_rows(stream, DEMO_CSV_HEADER, [trace.times, trace.positions, trace.forces])


def parse_pen_events(stream: Iterable[str]) -> tuple[list[PenEvent], int]:
    """Parse the pen-event line protocol.

    Returns the events plus the number of skipped (unknown or garbage)
    lines.  Only a malformed timestamp on an ``EVT`` line is fatal.
    """
    events: list[PenEvent] = []
    skipped = 0
    for number, text in _lines(stream):
        text = text.strip()
        if not text:
            continue
        tokens = text.split()
        if tokens[0] != "EVT" or len(tokens) < 3:
            skipped += 1
            continue
        t = _parse_float(tokens[1], number, "event timestamp")
        subtype = tokens[2]
        arg = tokens[3] if len(tokens) > 3 else None
        if subtype == "BTN" and arg == "1":
            kind = PenEventKind.BUTTON_PRESS
        elif subtype == "BTN" and arg == "0":
            kind = PenEventKind.BUTTON_RELEASE
        elif subtype == "PWR" and arg == "1":
            kind = PenEventKind.POWER_ON
        else:
            skipped += 1
            continue
        if events and t < events[-1].t:
            raise NonMonotonicTime(f"event timestamp {t!r} decreases", number)
        events.append(PenEvent(t, kind))
    return events, skipped


def apply_calibration(rec: PoseRecording, calib) -> TipTrack:
    """Map fiducial poses to tip poses through the tip calibration.

    ``calib`` may be a :class:`~styluskit.calib.TipCalibration` or a bare
    :class:`~styluskit.geometry.Pose`.  All poses are composed with it as
    one array expression (:func:`~styluskit.geometry.compose_rows`), bit
    for bit what :func:`~styluskit.geometry.compose` gives per record.
    Raises ``ValueError`` when a tip pose is not finite.
    """
    transform = calib.transform if hasattr(calib, "transform") else calib
    rotations, positions = compose_rows(
        rec.q, rec.p, transform.rotation, transform.translation
    )
    return TipTrack(rec.t, positions, rotations)


def snapshot_waypoints(
    tips: Sequence[TipPoseRecord],
    events: list[PenEvent],
    guard: float = 0.1,
) -> WaypointList:
    """Capture the tip record nearest each button press (ties go earlier).

    ``tips`` is a :class:`~styluskit.geometry.TipTrack` or a list of
    records; only the captured ones are read as records.  Presses more
    than ``guard`` seconds outside the recording span raise
    :class:`EventOutsideRecording`.
    """
    if not tips:
        raise ValueError("snapshot requires a non-empty tip recording")
    times = TipTrack.from_records(tips).t
    captured: list[TipPoseRecord] = []
    for event in events:
        if event.kind is not PenEventKind.BUTTON_PRESS:
            continue
        if event.t < times[0] - guard or event.t > times[-1] + guard:
            raise EventOutsideRecording(
                f"button press at t={event.t!r} is outside the recording span "
                f"[{times[0]!r}, {times[-1]!r}] by more than {guard!r} s"
            )
        i = int(np.searchsorted(times, event.t))
        if i <= 0:
            pick = 0
        elif i >= times.size:
            pick = times.size - 1
        else:
            left = event.t - times[i - 1]
            right = times[i] - event.t
            pick = i - 1 if left <= right else i
        captured.append(tips[pick])
    return WaypointList(waypoints=captured)


def pair_force(
    tips: Sequence[TipPoseRecord],
    force: ForceRecording,
    source: str = "stylus",
) -> DemonstrationTrace:
    """Pair tip records (a track or a list) with contact forces
    interpolated at their timestamps.

    Tip points outside the force span receive the nearest endpoint value
    and are flagged in ``force_extrapolated``.  Disjoint time ranges raise
    :class:`NoOverlap`.
    """
    if not tips:
        raise ValueError("cannot pair forces with an empty trace")
    track = TipTrack.from_records(tips)
    times = track.t
    if times[-1] < force.t[0] or times[0] > force.t[-1]:
        raise NoOverlap(
            f"trace span [{times[0]!r}, {times[-1]!r}] and force span "
            f"[{force.t[0]!r}, {force.t[-1]!r}] do not overlap"
        )
    values = np.interp(times, force.t, force.fz)
    flagged = (times < force.t[0]) | (times > force.t[-1])
    return DemonstrationTrace(
        points=track, forces=values, source=source, force_extrapolated=flagged
    )


def waypoint_list_to_doc(wl: WaypointList) -> dict:
    return {
        "waypoints": [
            {
                "t": w.t,
                "position": w.position.tolist(),
                "orientation_quat": w.orientation.tolist(),
            }
            for w in wl.waypoints
        ]
    }


def waypoint_list_from_doc(doc: dict) -> WaypointList:
    try:
        waypoints = [
            TipPoseRecord(
                float(w["t"]),
                np.asarray(w["position"], dtype=float),
                np.asarray(w["orientation_quat"], dtype=float),
            )
            for w in doc["waypoints"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad waypoint list document: {exc}") from None
    return WaypointList(waypoints=waypoints)


def save_waypoint_list(wl: WaypointList, path) -> None:
    write_json(path, waypoint_list_to_doc(wl))


def load_waypoint_list(path) -> WaypointList:
    return waypoint_list_from_doc(read_json(path))
