"""Exception hierarchy shared by all modules.

Two bases matter for the CLI exit-code contract: ``InputError`` maps to
exit code 2 (malformed or insufficient input), ``DegenerateDataError``
maps to exit code 3 (geometrically or numerically degenerate data).
"""

from __future__ import annotations


class StylusKitError(Exception):
    """Base class for every error raised by this package."""


class InputError(StylusKitError):
    """Malformed or insufficient input data."""


class DegenerateDataError(StylusKitError):
    """Input is well-formed but geometrically/numerically degenerate."""


class _AtLine:
    """Keeps the input ``line`` an error was found on (or None) and
    prefixes the message with ``line N: ``."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FormatError(_AtLine, InputError):
    """A stream violates its declared format (bad header, row, or field)."""


class NonMonotonicTime(_AtLine, InputError):
    """Timestamps are not increasing where the format requires it."""


class EmptyInput(InputError):
    """An operation received no usable samples."""


class TooShort(InputError):
    """A signal has too few samples for the requested analysis."""


class NonFinitePose(InputError, ValueError):
    """A pose, given or computed from the input, has a non-finite component:
    the input holds one, or transforming or solving with it overflowed."""


class NonFiniteOutput(InputError, ValueError):
    """A number to be written is infinite, which the output's readers reject:
    JSON has no infinity, and the CSV parsers drop its row."""


class ZeroVector(DegenerateDataError):
    """A direction was requested from a (near-)zero vector."""


class AllOutliers(DegenerateDataError):
    """Density filtering found no cluster large enough to keep."""


class DegenerateRotations(DegenerateDataError):
    """Pose set lacks the rotation diversity needed to observe the tip."""


class NoConvergence(DegenerateDataError):
    """The measured tip axes cancel out, so the axis solve has no target."""


class ColinearPoints(DegenerateDataError):
    """Probed points are colinear and span no plane."""


class CoincidentPoints(DegenerateDataError):
    """Probed points are too close together to define directions."""


class EventOutsideRecording(DegenerateDataError):
    """A button event falls outside the pose recording span."""


class WaypointNotReached(DegenerateDataError):
    """A trace never comes within the gate distance of a waypoint."""

    def __init__(self, message: str, waypoint_index: int | None = None):
        self.waypoint_index = waypoint_index
        super().__init__(message)


class SegmentUncovered(DegenerateDataError):
    """Too many resampling targets on a segment found no crossing."""


class DegenerateAxesWarning(UserWarning):
    """Reference axes are (near-)parallel; roll about them is unobservable."""
