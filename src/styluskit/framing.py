"""Drawing frames probed from three points.

A drawing frame makes demonstrations independent of the measuring system:
x runs from the second probed point toward the first, z is normal to the
probed plane, y completes the right-handed frame, and the origin sits on
the second point.  Hand-probed points are never exactly orthogonal, so x
is kept exact and y is re-orthogonalized.  :func:`to_frame` maps a trace's
``(N, 3)`` tip positions into a frame as one array expression.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoincidentPoints, ColinearPoints, FormatError, NonFinitePose
from .geometry import Pose, angle_between, invert, quat_from_matrix, quat_rotate, vec3
from .ingest import quat_from_json
from .jsonio import json_floats, read_json, write_json

_MIN_SEPARATION = 1e-4
_MIN_ANGLE = math.radians(1.0)


class DrawingFrame:
    """A local task frame expressed in the measuring origin."""

    def __init__(self, label: str, transform: Pose, probe_points: np.ndarray):
        probe_points = np.asarray(probe_points, dtype=float).reshape(3, 3)
        if not np.isfinite(probe_points).all():
            raise ValueError("probe points must be finite")
        self.label = label
        self.transform = transform
        self.probe_points = probe_points


def identify_frame(p1, p2, p3, label: str = "frame") -> DrawingFrame:
    """Build a drawing frame from three probed points (x point, origin, y point).

    Raises on coincident or colinear probes.  Points so far apart that the
    axes overflow give a non-finite frame, which :class:`Pose` reports as
    :class:`~styluskit.errors.NonFinitePose`; numpy's warnings on the way
    are silenced.
    """
    p1, p2, p3 = vec3(p1), vec3(p2), vec3(p3)
    with np.errstate(over="ignore", invalid="ignore"):
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
        transform = Pose(quat_from_matrix(np.column_stack([x, y, z])), p2)
    return DrawingFrame(label=label, transform=transform, probe_points=np.array([p1, p2, p3]))


def to_frame(frame: DrawingFrame, positions) -> np.ndarray:
    """The ``(N, 3)`` tip positions expressed in the drawing frame.

    Every row is mapped through the inverse frame transform as one array
    expression, bit for bit the translations
    :func:`~styluskit.geometry.compose_rows` gives.  Raises
    :class:`~styluskit.errors.NonFinitePose` (a ``ValueError``) when a row
    or its result is not finite.
    """
    inverse = invert(frame.transform)
    with np.errstate(over="ignore", invalid="ignore"):
        local = quat_rotate(inverse.rotation, positions) + inverse.translation
    if not np.isfinite(local).all():
        raise NonFinitePose("pose has non-finite components")
    return local


def frame_to_doc(frame: DrawingFrame) -> dict:
    return {
        "label": frame.label,
        "translation": frame.transform.translation.tolist(),
        "rotation_quat": frame.transform.rotation.tolist(),
        "probe_points": frame.probe_points.tolist(),
    }


def frame_from_doc(doc: dict) -> DrawingFrame:
    try:
        translation = json_floats(doc["translation"], "translation")
        return DrawingFrame(
            label=str(doc["label"]),
            transform=Pose(quat_from_json(doc["rotation_quat"], "rotation_quat"), translation),
            probe_points=json_floats(doc["probe_points"], "probe_points"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad drawing frame document: {exc}") from None


def save_frame(frame: DrawingFrame, path) -> None:
    write_json(path, frame_to_doc(frame))


def load_frame(path) -> DrawingFrame:
    return frame_from_doc(read_json(path))
