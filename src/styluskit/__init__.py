"""Tip calibration and demonstration evaluation for tracked styluses.

A motion-capture system reports the pose of the fiducial body on top of a
stylus; this package recovers the fiducial-to-tip transform (pivot-based
position calibration plus approach-axis orientation calibration), turns
recordings into tip-space demonstrations and button-snapshot waypoints,
expresses them in drawing frames probed from three points, and scores
them against ideal waypoint paths.  A seeded synthetic generator provides
ground truth for end-to-end verification.

The names below are re-exported lazily (PEP 562): ``import styluskit``
loads no submodule and no numpy, and ``styluskit.X`` imports the one
module that defines ``X`` on first use.  Each access reads the defining
module's attribute, so the two never disagree.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ["StylusKitError"],
        "geometry": [
            "EulerAngles",
            "OrientationDataset",
            "Pose",
            "PositionDataset",
            "TipTrack",
            "angle_between",
            "compose",
            "euler_to_rotation",
            "invert",
            "transform_point",
        ],
        "calib": [
            "FilterParams",
            "calibrate_orientation",
            "calibrate_position",
        ],
        "framing": ["DrawingFrame", "identify_frame", "to_frame"],
        "ingest": [
            "DemonstrationTrace",
            "ForceRecording",
            "IdealPath",
            "PenEvent",
            "PoseRecording",
            "TipCalibration",
            "WaypointList",
        ],
        "evaluation": ["EvaluationReport", "evaluate_demonstrations"],
    }.items()
    for name in names
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
