"""Recording parsers, waypoint snapshots, and the loaders of the commands' input files.

File formats (UTF-8, ``\\n`` line endings, ``.`` decimal separator):

- pose CSV: header ``t,x,y,z,qx,qy,qz,qw``; a JSON-lines variant with the
  same field names is accepted transparently.
- demonstration CSV: header ``t,x,y,z,Fz`` (tip position paired with the
  contact force; orientation is identity).
- pen events, one per line: ``EVT <t> BTN 1`` (press), ``EVT <t> BTN 0``
  (release), ``EVT <t> PWR 1`` (power-on).  Unknown lines are skipped and
  counted.
- JSON: the hole manifest, the position file of ``calibrate-position``,
  the waypoint list, the ideal path (:class:`IdealPath`) and the
  calibration (:class:`TipCalibration`); the last two are defined here so
  that ``simulate`` and ``snapshot`` load neither ``evaluation`` nor ``calib``.

The commands read each of these files by its ``load_*`` function here;
only the frame (``framing``) and the simulate configs (``synth``) are
read elsewhere.

One reader serves both CSV formats: the header is the first non-blank
line, blank lines are skipped, and rows with a non-finite value are
dropped with one warning.  A bad header, field count, field or
JSON-lines record, text that is not UTF-8 (pen events too) and a stream
without rows raise :class:`~styluskit.errors.FormatError`, a timestamp
that does not increase :class:`~styluskit.errors.NonMonotonicTime`.
The body of a CSV file is parsed by one ``np.loadtxt`` call, and read
again one row at a time only when that fails or a row would be dropped or
raise (a zero quaternion aside), so the errors, their lines and order and
the warning are those of reading row by row, as for JSON-lines records.

Recordings are columnar: a parser reads its rows into one array and slices
out the columns of a :class:`PoseRecording`, :class:`DemonstrationTrace`
or :class:`WaypointList` (each class says which), with every quaternion
canonicalised at once by :func:`~styluskit.geometry.quat_normalize_rows`,
bit for bit what :class:`~styluskit.geometry.Pose` gives per row.  The
functions below and the writers work on those arrays, with no object per sample.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import os
import warnings
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import (
    EventOutsideRecording,
    FormatError,
    NonMonotonicTime,
)
from .geometry import (
    MAX_QUAT_NORM2,
    HoleRecording,
    OrientationDataset,
    Pose,
    PoseRows,
    TipTrack,
    compose_rows,
    quat_normalize,
    quat_normalize_rows,
    vec3,
)
from .jsonio import json_float, json_floats, json_int, read_json, refuse_inf, write_csv, write_json

POSE_CSV_HEADER = "t,x,y,z,qx,qy,qz,qw"
DEMO_CSV_HEADER = "t,x,y,z,Fz"

_IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


class PoseRecording(PoseRows):
    """Timestamped fiducial-centroid poses measured from one origin frame:
    the rows of :class:`~styluskit.geometry.PoseRows` plus ``t`` (N,),
    strictly increasing seconds (``PoseRecording(frame_id, t=, q=, p=)``).
    """

    def __init__(self, frame_id: str, *, t, q, p):
        super().__init__(q=q, p=p)
        self.frame_id = frame_id
        self.t = np.asarray(t, dtype=float).reshape(-1)
        if self.t.size != len(self):
            raise ValueError("pose recording needs one rotation and one translation per time")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("pose recording timestamps must be strictly increasing")


class ForceRecording:
    """A single-axis contact-force time series (newtons)."""

    def __init__(self, t: np.ndarray, fz: np.ndarray):
        self.t = np.asarray(t, dtype=float)
        self.fz = np.asarray(fz, dtype=float)
        if self.t.shape != self.fz.shape or self.t.ndim != 1:
            raise ValueError("force samples need matching 1-d t and Fz arrays")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
            increasing = np.all(np.diff(self.t) > 0.0)
        if not increasing:
            raise ValueError("force timestamps must be strictly increasing")
        if not np.isfinite(self.t).all():  # increasing, so only an end can be ±inf
            raise ValueError("force timestamps must be finite")

    def __len__(self) -> int:
        return self.t.size


class PenEventKind(enum.Enum):
    BUTTON_PRESS = "press"
    BUTTON_RELEASE = "release"
    POWER_ON = "power_on"


class PenEvent(NamedTuple):
    t: float
    kind: PenEventKind


class DemonstrationTrace:
    """Tip trajectory with optional per-point contact forces.

    ``points`` is a :class:`~styluskit.geometry.TipTrack`, whose ``t`` and
    ``position`` arrays are what ``times`` and ``positions`` return.
    """

    def __init__(self, points: TipTrack, forces: np.ndarray | None = None, source: str = "stylus"):
        if np.any(np.diff(points.t) <= 0.0):
            raise ValueError("trace timestamps must be strictly increasing")
        if forces is not None:
            forces = np.asarray(forces, dtype=float)
            if forces.shape != (len(points),):
                raise ValueError("need exactly one force value per trace point")
        if source not in ("stylus", "robot"):
            raise ValueError(f"unknown trace source {source!r}")
        self.points = points
        self.forces = forces
        self.source = source

    def __len__(self) -> int:
        return len(self.points)

    @property
    def times(self) -> np.ndarray:
        return self.points.t

    @property
    def positions(self) -> np.ndarray:
        return self.points.position


class WaypointList:
    """Tip poses captured with the snapshot button, in capture order, as a
    :class:`~styluskit.geometry.TipTrack`."""

    def __init__(self, waypoints: TipTrack):
        if np.any(np.diff(waypoints.t) < 0.0):
            raise ValueError("waypoints must be ordered by capture time")
        self.waypoints = waypoints

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


def _quat_norm2(q: list) -> float:
    """A file quaternion's squared norm in Python floats (``inf`` on overflow, no
    warning); ``ValueError`` if NaN or above ``MAX_QUAT_NORM2``, which no file reaches."""
    norm2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]
    if not norm2 <= MAX_QUAT_NORM2:
        raise ValueError(f"quaternion {q} is not finite or too large to normalize")
    return norm2


def quat_from_json(value, name: str = "quaternion") -> np.ndarray:
    """The quaternion field ``name`` of a JSON document as a float (4,) array, not
    normalized: ``ValueError`` for a non-number, a wrong shape or a norm
    :func:`_quat_norm2` rejects.  A zero one passes, for ``quat_normalize``."""
    a = json_floats(value, name)
    if a.shape != (4,):
        raise ValueError(f"expected a quaternion (qx,qy,qz,qw), got shape {a.shape}")
    _quat_norm2(a.tolist())
    return a


def _then_raise(items, error: Exception):
    yield from items
    raise error


def _read_block(
    stream: Iterable[str], header: str, kind: str, jsonl: bool = False, quat: slice | None = None
) -> np.ndarray:
    """The rows of a ``header`` CSV stream, as read, in one ``(N, fields)`` array.

    With ``jsonl``, a first line starting with ``{`` begins JSON-lines
    records keyed by the header's field names, read by :func:`_parse_rows`.
    A CSV body is parsed by one ``np.loadtxt`` call (:func:`_bulk`), and
    only when that parse or one of its checks fails does :func:`_parse_rows`
    read the same numbered lines again, one row at a time, so every error
    and the dropped-rows warning are those of reading row by row.  ``quat``
    names the quaternion's columns of a pose row.  Call it from the
    parser: the warning points one frame above it.
    """
    names = header.split(",")
    lines = _lines(stream)
    for number, text in lines:
        first = text.strip()
        if first:
            break
    else:
        raise FormatError("empty input")
    if jsonl and first.startswith("{"):
        return _parse_rows(itertools.chain([(number, first)], lines), names, kind, True, quat)
    if first != header:
        raise FormatError(f"expected header {header!r}, got {first!r}", number)

    body: list[str] = []
    try:
        for _, text in lines:
            body.append(text)
    except FormatError as exc:
        # Text that is not UTF-8: the rows read before it come first.
        numbered = _then_raise(enumerate(body, number + 1), exc)
        return _parse_rows(numbered, names, kind, False, quat)
    block = _bulk(body, len(names), quat)
    if block is None:
        block = _parse_rows(enumerate(body, number + 1), names, kind, False, quat)
    return block


# ``loadtxt`` strips these around a field as whitespace; ``float`` rejects them.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _bulk(body: list[str], width: int, quat: slice | None) -> np.ndarray | None:
    """``body`` parsed by one ``np.loadtxt`` call, or None unless the
    result is what the row loop would return without an error or warning,
    a zero quaternion's error aside, which ``quat_normalize_rows`` raises.

    ``loadtxt`` reads fields with the same conversion as ``float``, so
    their bits agree.  It rejects some fields ``float`` accepts (``1_0``,
    non-ASCII digits), whitespace-only lines and lines holding a line
    break, which the row loop then reads; it skips empty lines as the row
    loop does.  It takes ``body`` as a list of lines, so the text is never
    copied whole.
    """
    count = len(body) - body.count("")
    if count == 0:
        return None
    for start in range(0, len(body), 4096):
        # A few thousand lines at a time: one string of the whole body would
        # cost its size again, and once freed it leaves glibc placing later
        # arrays of up to that size on the heap, which raises the peak RSS.
        text = "".join(body[start : start + 4096])
        if any(c in text for c in _LOADTXT_ONLY_SPACE):
            return None
    try:
        block = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if block.shape != (count, width) or not np.isfinite(block).all():
        return None
    t = block[:, 0]
    if not (t[1:] > t[:-1]).all():
        return None
    if quat is not None:
        qx, qy, qz, qw = block[:, quat].T
        with np.errstate(over="ignore"):
            norm2 = qx * qx + qy * qy + qz * qz + qw * qw
        if not (norm2 <= MAX_QUAT_NORM2).all():
            return None
    return block


def _parse_rows(lines, names: list[str], kind: str, jsonl: bool, quat: slice | None) -> np.ndarray:
    """The body rows of numbered ``lines``, read one at a time, stacked.

    Each error is raised at its own row, in reading order: a bad field or
    JSON-lines record, a wrong field count, a timestamp that does not
    increase and, with ``quat``, a pose row's (near-)zero or too large
    quaternion.  Rows with a non-finite value are dropped with one warning,
    which points at the caller of the parser that called
    :func:`_read_block`.
    """
    rows = []
    last = None
    dropped = 0
    for number, text in lines:
        if not text.strip():
            continue
        if jsonl:
            try:
                doc = json.loads(text)
                values = [json_float(doc[k], k) for k in names]
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
        if quat is not None:
            q = values[quat]
            try:
                norm2 = _quat_norm2(q)
            except ValueError:
                raise FormatError(f"quaternion {tuple(q)} is too large to normalize") from None
            if norm2 < 1e-20:
                quat_normalize(q)
        rows.append(values)
    if dropped:
        warnings.warn(f"dropped {dropped} {kind} rows with non-finite values", stacklevel=4)
    if last is None:
        raise FormatError("no valid data rows")
    return np.array(rows)


def parse_pose_csv(stream: Iterable[str], frame_id: str = "world") -> PoseRecording:
    """Parse a pose CSV (or JSON-lines) stream into a :class:`PoseRecording`.

    A (near-)zero quaternion raises :class:`~styluskit.errors.ZeroVector`
    at its own row, ahead of any later error and of the dropped-rows
    warning: the row loop normalizes each row whose squared norm is below
    1e-20 as it is read.  A row whose squared norm :func:`quat_from_json`
    would reject too (:func:`_quat_norm2`) raises :class:`FormatError`
    there in the same way, as an input error rather than one to rescale.
    """
    data = _read_block(stream, POSE_CSV_HEADER, "pose", jsonl=True, quat=slice(4, 8))
    return PoseRecording(
        frame_id,
        t=data[:, 0].copy(),
        q=quat_normalize_rows(data[:, 4:8]),
        p=data[:, 1:4].copy(),
    )


def parse_demo_csv(stream: Iterable[str], source: str = "stylus") -> DemonstrationTrace:
    """Parse a ``t,x,y,z,Fz`` CSV stream into a :class:`DemonstrationTrace`."""
    rows = _read_block(stream, DEMO_CSV_HEADER, "trace")
    track = TipTrack(
        rows[:, 0].copy(), rows[:, 1:4].copy(), np.tile(_IDENTITY_QUAT, (rows.shape[0], 1))
    )
    return DemonstrationTrace(points=track, forces=rows[:, 4].copy(), source=source)


def load_pose_csv(path) -> PoseRecording:
    """The pose CSV (or JSON-lines) file at ``path``, read by :func:`parse_pose_csv`."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_pose_csv(f)


def load_trace(path) -> DemonstrationTrace:
    """The demonstration or pose CSV at ``path``, told apart by its first non-blank line."""
    with open(path, "r", encoding="utf-8") as f:
        head = []
        for _, text in _lines(f):
            head.append(text)
            if text.strip():
                break
        lines = itertools.chain(head, f)
        if head and head[-1].strip() == DEMO_CSV_HEADER:
            return parse_demo_csv(lines)
        recording = parse_pose_csv(lines)
        return DemonstrationTrace(TipTrack(recording.t, recording.p, recording.q))


def _write_finite_csv(stream, header: str, columns) -> None:
    """Write ``columns`` under ``header`` once :func:`refuse_inf` finds no
    ±inf in any CSV column, whose row the parser would drop."""
    flat = [c for block in columns for c in np.reshape(block, (len(block), -1)).T]
    refuse_inf(dict(zip(header.split(","), flat)))
    write_csv(stream, header, columns)


def write_pose_csv(rec: PoseRecording, stream) -> None:
    """Write ``rec`` as a pose CSV; a ±inf raises, naming its column and row."""
    _write_finite_csv(stream, POSE_CSV_HEADER, [rec.t, rec.p, rec.q])


def write_demo_csv(trace: DemonstrationTrace, stream) -> None:
    """Write ``trace`` as a demonstration CSV; a ±inf raises as in :func:`write_pose_csv`."""
    if trace.forces is None:
        raise ValueError("demonstration CSV requires per-point forces")
    _write_finite_csv(stream, DEMO_CSV_HEADER, [trace.times, trace.positions, trace.forces])


def parse_pen_events(stream: Iterable[str]) -> tuple[list[PenEvent], int]:
    """Parse the pen-event line protocol.

    Returns the events plus the number of skipped (unknown or garbage)
    lines.  Only a malformed or non-finite timestamp on an ``EVT`` line is
    fatal.
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
        if not math.isfinite(t):
            raise FormatError(f"event timestamp {tokens[1]!r} is not finite", number)
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


def load_pen_events(path) -> tuple[list[PenEvent], int]:
    """The pen-event file at ``path``, read by :func:`parse_pen_events`."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_pen_events(f)


def apply_calibration(rec: PoseRecording, calib) -> TipTrack:
    """Map fiducial poses to tip poses through the tip calibration.

    ``calib`` may be a :class:`TipCalibration` or a bare
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
    tips: TipTrack,
    events: list[PenEvent],
    guard: float = 0.1,
) -> WaypointList:
    """Capture the tip pose nearest each button press (ties go earlier).

    All presses are found with one ``searchsorted`` and the waypoints are
    the track's rows at them.  A press more than ``guard`` seconds outside
    the recording span raises :class:`EventOutsideRecording`, naming the
    first such press.
    """
    if not tips:
        raise ValueError("snapshot requires a non-empty tip recording")
    times = tips.t
    presses = [e.t for e in events if e.kind is PenEventKind.BUTTON_PRESS]
    at = np.array(presses, dtype=float)
    outside = (at < times[0] - guard) | (at > times[-1] + guard)
    if outside.any():
        raise EventOutsideRecording(
            f"button press at t={presses[int(np.argmax(outside))]!r} is outside the recording "
            f"span [{float(times[0])!r}, {float(times[-1])!r}] by more than {guard!r} s"
        )
    i = np.searchsorted(times, at)
    left, right = np.maximum(i - 1, 0), np.minimum(i, times.size - 1)
    pick = np.where(at - times[left] <= times[right] - at, left, right)
    return WaypointList(waypoints=tips[pick])


def waypoint_list_to_doc(wl: WaypointList) -> dict:
    track = wl.waypoints
    return {
        "waypoints": [
            {"t": t, "position": p, "orientation_quat": q}
            for t, p, q in zip(
                track.t.tolist(), track.position.tolist(), track.orientation.tolist()
            )
        ]
    }


def waypoint_list_from_doc(doc: dict) -> WaypointList:
    """The waypoint list of a JSON document.

    The first faulty waypoint in document order decides the error: a bad
    quaternion or position is an input error (:class:`FormatError`), a zero
    quaternion degenerate data (:class:`~styluskit.errors.ZeroVector`).
    """
    try:
        rows = [
            (
                json_float(w["t"], "t"),
                json_floats(w["position"], "position"),
                json_floats(w["orientation_quat"], "orientation_quat"),
            )
            for w in doc["waypoints"]
        ]
        if not all(np.isfinite(np.r_[t, p.ravel(), q.ravel()]).all() for t, p, q in rows):
            raise ValueError("waypoint times, positions and quaternions must be finite")
        quats, positions = [], []
        for _, p, q in rows:
            positions.append(vec3(p))
            quats.append(quat_normalize(quat_from_json(q)))
        return WaypointList(TipTrack([t for t, _, _ in rows], positions, quats))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad waypoint list document: {exc}") from None


def load_waypoint_list(path) -> WaypointList:
    return waypoint_list_from_doc(read_json(path))


class IdealPath:
    """2D waypoints plus the index sequence in which they are visited."""

    def __init__(self, waypoints: np.ndarray, visiting_sequence: tuple[int, ...]):
        waypoints = np.asarray(waypoints, dtype=float).reshape(-1, 2)
        if not np.isfinite(waypoints).all():
            raise ValueError("waypoints must be finite")
        visiting_sequence = tuple(json_int(i, "visiting_sequence") for i in visiting_sequence)
        if len(visiting_sequence) < 2:
            raise ValueError("visiting sequence needs at least 2 entries")
        for i in visiting_sequence:
            if not 0 <= i < waypoints.shape[0]:
                raise ValueError(f"visiting sequence index {i} out of range")
        with np.errstate(over="ignore"):  # points 1e308 apart are distinct
            for a, b in zip(visiting_sequence, visiting_sequence[1:]):
                if np.allclose(waypoints[a], waypoints[b]):
                    raise ValueError("consecutive sequence points must be distinct")
        self.waypoints = waypoints
        self.visiting_sequence = visiting_sequence

    @property
    def segment_count(self) -> int:
        return len(self.visiting_sequence) - 1

    def segment(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        a = self.waypoints[self.visiting_sequence[k]]
        b = self.waypoints[self.visiting_sequence[k + 1]]
        return a, b


def path_to_doc(path: IdealPath) -> dict:
    return {
        "waypoints": path.waypoints.tolist(),
        "visiting_sequence": list(path.visiting_sequence),
    }


def path_from_doc(doc: dict) -> IdealPath:
    try:
        return IdealPath(
            waypoints=json_floats(doc["waypoints"], "waypoints"),
            visiting_sequence=doc["visiting_sequence"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad ideal path document: {exc}") from None


def load_path(path) -> IdealPath:
    return path_from_doc(read_json(path))


class TipCalibration:
    """The fiducial-to-tip transform with calibration diagnostics."""

    def __init__(
        self,
        transform: Pose,
        position_residual_rms: float,
        orientation_residual_rms: float,
        filtered_outliers: int,
    ):
        if position_residual_rms < 0.0 or orientation_residual_rms < 0.0:
            raise ValueError("residuals must be non-negative")
        if filtered_outliers < 0:
            raise ValueError("filtered_outliers must be non-negative")
        self.transform = transform
        self.position_residual_rms = position_residual_rms
        self.orientation_residual_rms = orientation_residual_rms
        self.filtered_outliers = filtered_outliers


def calibration_to_doc(calib: TipCalibration) -> dict:
    return {
        "translation": calib.transform.translation.tolist(),
        "rotation_quat": calib.transform.rotation.tolist(),
        "position_residual_rms": calib.position_residual_rms,
        "orientation_residual_rms": calib.orientation_residual_rms,
        "filtered_outliers": calib.filtered_outliers,
    }


def calibration_from_doc(doc: dict) -> TipCalibration:
    try:
        translation = json_floats(doc["translation"], "translation")
        return TipCalibration(
            Pose(quat_from_json(doc["rotation_quat"], "rotation_quat"), translation),
            *[json_float(doc[k], k) for k in ("position_residual_rms", "orientation_residual_rms")],
            json_int(doc["filtered_outliers"], "filtered_outliers"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad calibration document: {exc}") from None


def save_calibration(calib: TipCalibration, path) -> None:
    write_json(path, calibration_to_doc(calib))


def load_calibration(path) -> TipCalibration:
    return calibration_from_doc(read_json(path))


def manifest_to_doc(dataset: OrientationDataset, recordings: list[str]) -> dict:
    """The hole manifest of ``dataset``, whose holes were written to ``recordings``."""
    axes = [hole.reference_axis.tolist() for hole in dataset.holes]
    return {"holes": [{"reference_axis": a, "recording": r} for a, r in zip(axes, recordings)]}


def load_manifest(path) -> OrientationDataset:
    """The hole manifest at ``path``, whose recording paths are relative to it."""
    manifest = read_json(path)
    try:
        entries = list(manifest["holes"])
    except (KeyError, TypeError):
        raise FormatError(f"{path}: manifest needs a 'holes' list") from None
    base = os.path.dirname(os.path.abspath(path))
    holes = []
    for i, entry in enumerate(entries):
        try:
            axis = entry["reference_axis"]
            recording_path = str(entry["recording"])
        except (KeyError, TypeError):
            raise FormatError(f"{path}: each hole needs 'reference_axis' and 'recording'") from None
        recording = load_pose_csv(os.path.join(base, recording_path))
        try:
            axis = json_floats(axis, "reference_axis")
            holes.append(HoleRecording(axis, q=recording.q, p=recording.p))
        except ValueError as exc:
            raise FormatError(f"{path}: hole {i}: {exc}") from None
    try:
        return OrientationDataset(holes=holes)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def position_to_doc(result, config: dict) -> dict:
    """The position file of ``calibrate-position``: the ``config`` it ran
    with, then ``result``, a :class:`~styluskit.calib.PositionCalibration`."""
    return {
        "config": config,
        "translation": result.tip_offset.tolist(),
        "pivot": result.pivot.tolist(),
        "position_residual_rms": result.residual_rms,
        "filtered_outliers": result.removed_outliers,
    }


def load_position(path) -> tuple[np.ndarray, float, int]:
    """The translation, residual and count (0 if absent) ``calibrate-position`` wrote."""
    doc = read_json(path)
    try:
        translation = vec3(json_floats(doc["translation"], "translation"))
        rms = json_float(doc["position_residual_rms"], "position_residual_rms")
        removed = json_int(doc.get("filtered_outliers", 0), "filtered_outliers")
        if not (np.isfinite(translation).all() and 0.0 <= rms < math.inf):
            raise ValueError("translation must be finite, position_residual_rms finite and >= 0")
        if removed < 0:
            raise ValueError("filtered_outliers must not be negative")
    except (KeyError, TypeError):
        raise FormatError(f"{path}: expected the JSON written by calibrate-position") from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return translation, rms, removed
