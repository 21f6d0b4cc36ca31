"""``snapshot_waypoints`` against the per-press loop it replaced, kept here
as an oracle.  Picks and bytes must agree, errors by type and message."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit.errors import EventOutsideRecording
from styluskit.geometry import TipTrack, quat_normalize_rows
from styluskit.ingest import PenEvent, PenEventKind, WaypointList, snapshot_waypoints


def oracle_snapshot_waypoints(tips, events, guard=0.1):
    if not tips:
        raise ValueError("snapshot requires a non-empty tip recording")
    times = tips.t
    captured: list[int] = []
    for event in events:
        if event.kind is not PenEventKind.BUTTON_PRESS:
            continue
        if event.t < times[0] - guard or event.t > times[-1] + guard:
            raise EventOutsideRecording(
                f"button press at t={event.t!r} is outside the recording span "
                f"[{float(times[0])!r}, {float(times[-1])!r}] by more than {guard!r} s"
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
        captured.append(pick)
    return WaypointList(waypoints=tips[np.array(captured, dtype=int)])


def outcome(fn, *args):
    """The bits of the captured rows, or the error's type and message."""
    try:
        wl = fn(*args)
    except (ValueError, EventOutsideRecording) as exc:
        return type(exc), str(exc)
    track = wl.waypoints
    return [(a.shape, a.tobytes()) for a in (track.t, track.position, track.orientation)]


def track_of(times: list[float], seed: int) -> TipTrack:
    rng = np.random.default_rng(seed)
    n = len(times)
    return TipTrack(times, rng.normal(size=(n, 3)), quat_normalize_rows(rng.normal(size=(n, 4))))


@st.composite
def times_lists(draw) -> list[float]:
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        # Multiples of a power of two: midpoints and distances are exact.
        step = 2.0 ** draw(st.integers(-8, 0))
        start = draw(st.integers(-100, 100)) * step
        gaps = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
        return (start + step * np.r_[0, np.cumsum(gaps, dtype=float)]).tolist()
    gaps = draw(st.lists(st.floats(1e-6, 1.0), min_size=n - 1, max_size=n - 1))
    start = draw(st.floats(-1e3, 1e3))
    times = start + np.r_[0.0, np.cumsum(gaps)]
    return np.unique(times).tolist()


@st.composite
def press_time(draw, times: list[float], guard: float) -> float:
    k = draw(st.integers(0, len(times) - 1))
    where = draw(st.sampled_from(["on", "mid", "inside", "before", "after", "edge"]))
    if where == "on":
        return times[k]
    if where == "mid" and k + 1 < len(times):
        return (times[k] + times[k + 1]) / 2.0
    if where == "inside":
        return draw(st.floats(times[0], times[-1]))
    beyond = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])) * guard
    beyond += draw(st.sampled_from([0.0, 1e-9, 0.25]))
    if where == "edge":
        return times[0] - guard if draw(st.booleans()) else times[-1] + guard
    return times[0] - beyond if where == "before" else times[-1] + beyond


@st.composite
def cases(draw):
    times = draw(times_lists())
    guard = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3]))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(list(PenEventKind)))
        t = draw(press_time(times, guard))
        events.append(PenEvent(t, kind))
    if draw(st.booleans()):
        events.sort(key=lambda e: e.t)
    return times, events, guard


@settings(max_examples=400, deadline=None)
@given(case=cases(), seed=st.integers(0, 3))
def test_matches_per_press_loop(case, seed):
    times, events, guard = case
    track = track_of(times, seed)
    assert outcome(snapshot_waypoints, track, events, guard) == outcome(
        oracle_snapshot_waypoints, track, events, guard
    )


def test_first_offending_press_in_event_order_is_named():
    track = track_of([0.0, 0.1, 0.2], seed=0)
    events = [
        PenEvent(0.05, PenEventKind.BUTTON_PRESS),
        PenEvent(9.0, PenEventKind.BUTTON_RELEASE),
        PenEvent(5.0, PenEventKind.BUTTON_PRESS),
        PenEvent(-5.0, PenEventKind.BUTTON_PRESS),
    ]
    got = outcome(snapshot_waypoints, track, events)
    assert got == outcome(oracle_snapshot_waypoints, track, events)
    assert got[0] is EventOutsideRecording and "t=5.0 " in got[1]


def test_waypoints_are_rows_of_the_track():
    track = track_of([0.0, 0.1, 0.2, 0.3], seed=1)
    presses = [PenEvent(t, PenEventKind.BUTTON_PRESS) for t in (0.04, 0.05, 0.29)]
    waypoints = snapshot_waypoints(track, presses).waypoints
    assert isinstance(waypoints, TipTrack)
    assert waypoints.t.tolist() == [0.0, 0.0, 0.3]
    assert waypoints.position.tobytes() == track.position[[0, 0, 3]].tobytes()
