"""Tip calibration and demonstration evaluation for tracked styluses.

A motion-capture system reports the pose of the fiducial body on top of a
stylus; this package recovers the fiducial-to-tip transform (pivot-based
position calibration plus approach-axis orientation calibration), turns
recordings into tip-space demonstrations and button-snapshot waypoints,
expresses them in drawing frames probed from three points, and scores
them against ideal waypoint paths.  A seeded synthetic generator provides
ground truth for end-to-end verification.
"""

from .errors import StylusKitError
from .geometry import (
    EulerAngles,
    Pose,
    TipPoseRecord,
    TipTrack,
    angle_between,
    compose,
    euler_to_rotation,
    invert,
    rotation_to_euler,
    transform_point,
)
from .calib import (
    FilterParams,
    OrientationDataset,
    PositionDataset,
    TipCalibration,
    calibrate_orientation,
    calibrate_position,
)
from .framing import CollisionBox, DrawingFrame, Workspace, box_from_points, identify_frame, to_frame
from .ingest import (
    DemonstrationTrace,
    ForceRecording,
    PenEvent,
    PoseRecording,
    WaypointList,
)
from .evaluation import EvaluationReport, IdealPath, evaluate_demonstrations

__version__ = "0.1.0"

__all__ = [
    "CollisionBox",
    "DemonstrationTrace",
    "DrawingFrame",
    "EulerAngles",
    "EvaluationReport",
    "FilterParams",
    "ForceRecording",
    "IdealPath",
    "OrientationDataset",
    "PenEvent",
    "Pose",
    "PoseRecording",
    "PositionDataset",
    "StylusKitError",
    "TipCalibration",
    "TipPoseRecord",
    "TipTrack",
    "WaypointList",
    "Workspace",
    "angle_between",
    "box_from_points",
    "calibrate_orientation",
    "calibrate_position",
    "compose",
    "euler_to_rotation",
    "evaluate_demonstrations",
    "identify_frame",
    "invert",
    "rotation_to_euler",
    "to_frame",
    "transform_point",
    "__version__",
]
