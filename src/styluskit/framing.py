"""Drawing frames probed from three points, and collision boxes from four.

A drawing frame makes demonstrations independent of the measuring system:
x runs from the second probed point toward the first, z is normal to the
probed plane, y completes the right-handed frame, and the origin sits on
the second point.  Hand-probed points are never exactly orthogonal, so x
is kept exact and y is re-orthogonalized.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    ColinearPoints,
    DegenerateHeight,
    FormatError,
)
from .geometry import (
    Pose,
    TipPoseRecord,
    TipTrack,
    angle_between,
    compose_rows,
    invert,
    quat_from_json,
    quat_from_matrix,
    vec3,
)
from .jsonio import read_json, write_json

_MIN_SEPARATION = 1e-4
_MIN_ANGLE = math.radians(1.0)


@dataclass
class DrawingFrame:
    """A local task frame expressed in the measuring origin."""

    label: str
    transform: Pose
    probe_points: np.ndarray

    def __post_init__(self):
        self.probe_points = np.asarray(self.probe_points, dtype=float).reshape(3, 3)


@dataclass
class CollisionBox:
    """An oriented box: pose of its center plus full side lengths."""

    frame: Pose
    extents: np.ndarray

    def __post_init__(self):
        self.extents = vec3(self.extents)
        if np.any(self.extents <= 0.0):
            raise ValueError("box extents must be strictly positive")


@dataclass
class Workspace:
    boxes: list[CollisionBox]


def _frame_axes(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """Columns x, y, z of the frame rotation; raises on degenerate probes."""
    for a, b, name in ((p1, p2, "P1-P2"), (p1, p3, "P1-P3"), (p2, p3, "P2-P3")):
        if np.linalg.norm(a - b) < _MIN_SEPARATION:
            raise CoincidentPoints(f"probe points {name} are closer than {_MIN_SEPARATION} m")
    angle = angle_between(p1 - p2, p3 - p2)
    if angle < _MIN_ANGLE or angle > math.pi - _MIN_ANGLE:
        raise ColinearPoints("probe points are colinear within 1 degree")
    x = (p1 - p2) / np.linalg.norm(p1 - p2)
    toward_y = (p3 - p2) / np.linalg.norm(p3 - p2)
    z = np.cross(x, toward_y)
    z = z / np.linalg.norm(z)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def identify_frame(p1, p2, p3, label: str = "frame") -> DrawingFrame:
    """Build a drawing frame from three probed points (x point, origin, y point)."""
    p1, p2, p3 = vec3(p1), vec3(p2), vec3(p3)
    axes = _frame_axes(p1, p2, p3)
    transform = Pose(quat_from_matrix(axes), p2)
    return DrawingFrame(label=label, transform=transform, probe_points=np.array([p1, p2, p3]))


def to_frame(frame: DrawingFrame, points: Sequence[TipPoseRecord]) -> TipTrack:
    """Express tip records (a track or a list) in the drawing frame,
    timestamps preserved.

    Every record is mapped through the inverse frame transform as one array
    expression (:func:`~styluskit.geometry.compose_rows`), bit for bit what
    :func:`~styluskit.geometry.compose` gives per record.  Raises
    ``ValueError`` when a record or its result is not finite.
    """
    track = TipTrack.from_records(points)
    inverse = invert(frame.transform)
    rotations, positions = compose_rows(
        inverse.rotation, inverse.translation, track.orientation, track.position
    )
    return TipTrack(track.t, positions, rotations)


def box_from_points(p1, p2, p3, p4) -> CollisionBox:
    """Capture an oriented box from four probed points.

    p1..p3 define the base frame exactly as :func:`identify_frame`; the
    x extent is |p1-p2|, the y extent the projection of p3-p2 on y, and
    the z extent the projection of p4-p2 on the plane normal.
    """
    p1, p2, p3, p4 = vec3(p1), vec3(p2), vec3(p3), vec3(p4)
    axes = _frame_axes(p1, p2, p3)
    x, y, z = axes.T
    ex = float(np.linalg.norm(p1 - p2))
    ey = float((p3 - p2) @ y)
    ez = float((p4 - p2) @ z)
    if abs(ez) < _MIN_SEPARATION:
        raise DegenerateHeight(
            f"fourth point lies within {_MIN_SEPARATION} m of the base plane"
        )
    center = p2 + 0.5 * (ex * x + ey * y + ez * z)
    return CollisionBox(
        frame=Pose(quat_from_matrix(axes), center),
        extents=np.array([ex, abs(ey), abs(ez)]),
    )


def frame_to_doc(frame: DrawingFrame) -> dict:
    return {
        "label": frame.label,
        "translation": frame.transform.translation.tolist(),
        "rotation_quat": frame.transform.rotation.tolist(),
        "probe_points": frame.probe_points.tolist(),
    }


def frame_from_doc(doc: dict) -> DrawingFrame:
    try:
        return DrawingFrame(
            label=str(doc["label"]),
            transform=Pose(quat_from_json(doc["rotation_quat"]), doc["translation"]),
            probe_points=doc["probe_points"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad drawing frame document: {exc}") from None


def save_frame(frame: DrawingFrame, path) -> None:
    write_json(path, frame_to_doc(frame))


def load_frame(path) -> DrawingFrame:
    return frame_from_doc(read_json(path))


def workspace_to_doc(ws: Workspace) -> list:
    return [
        {
            "center": box.frame.translation.tolist(),
            "rotation_quat": box.frame.rotation.tolist(),
            "extents": box.extents.tolist(),
        }
        for box in ws.boxes
    ]


def workspace_from_doc(doc: list) -> Workspace:
    try:
        boxes = [
            CollisionBox(
                frame=Pose(quat_from_json(item["rotation_quat"]), item["center"]),
                extents=item["extents"],
            )
            for item in doc
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad workspace document: {exc}") from None
    return Workspace(boxes=boxes)


def save_workspace(ws: Workspace, path) -> None:
    write_json(path, workspace_to_doc(ws))


def load_workspace(path) -> Workspace:
    return workspace_from_doc(read_json(path))
