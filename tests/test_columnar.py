"""Columnar recordings and tip tracks against their per-sample views.

The data types hold arrays; lists of poses and records are views built on
access.  Whatever form a value is built from, the arrays, the views and
every function's result must carry the same bits.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from styluskit.calib import HoleRecording, PositionDataset, calibrate_position
from styluskit.evaluation import IdealPath, segment_trace
from styluskit.framing import DrawingFrame, to_frame
from styluskit.geometry import (
    Pose,
    TipPoseRecord,
    TipTrack,
    quat_from_axis_angle,
    quat_normalize_rows,
)
from styluskit.ingest import (
    DemonstrationTrace,
    ForceRecording,
    PenEvent,
    PenEventKind,
    PoseRecording,
    TimedPose,
    WaypointList,
    apply_calibration,
    pair_force,
    parse_pose_csv,
    snapshot_waypoints,
    write_pose_csv,
)


def random_poses(n: int, seed: int = 1) -> list[Pose]:
    rng = np.random.default_rng(seed)
    return [
        Pose(quat_from_axis_angle(rng.normal(size=3), rng.uniform(-2.0, 2.0)), rng.normal(size=3))
        for _ in range(n)
    ]


def records(n: int = 6) -> list[TipPoseRecord]:
    return [
        TipPoseRecord(0.1 * i, pose.translation, pose.rotation)
        for i, pose in enumerate(random_poses(n))
    ]


def bits(items) -> list:
    return [(type(r.t), r.t, r.position.tobytes(), r.orientation.tobytes()) for r in items]


ROW_CONTAINERS = ["PositionDataset", "HoleRecording", "PoseRecording", "WaypointList"]


def built_both_ways(kind: str, n: int = 5):
    """A ``kind`` built from a list of poses (or samples, or records) and one
    built from rows normalized all at once, and the name of its list view."""
    rng = np.random.default_rng(4)
    raw_q, p = rng.normal(size=(n, 4)), rng.normal(size=(n, 3))
    q, t = quat_normalize_rows(raw_q), np.arange(n) / 100.0
    poses = [Pose(a, b) for a, b in zip(raw_q, p)]
    if kind == "PositionDataset":
        return PositionDataset(poses), PositionDataset(q=q, p=p), "poses"
    if kind == "HoleRecording":
        axis = [0.0, 0.0, 1.0]
        return HoleRecording(axis, poses), HoleRecording(axis, q=q, p=p), "poses"
    if kind == "PoseRecording":
        samples = [TimedPose(s, pose) for s, pose in zip(t.tolist(), poses)]
        return PoseRecording("world", samples), PoseRecording("world", t=t, q=q, p=p), "samples"
    recs = [TipPoseRecord(s, pose.translation, pose.rotation) for s, pose in zip(t.tolist(), poses)]
    return WaypointList(recs), WaypointList(TipTrack(t, p, q)), "waypoints"


def data(container) -> list:
    """The arrays that are a container's data."""
    if isinstance(container, WaypointList):
        track = container.waypoints
        return [track.t, track.position, track.orientation]
    return [getattr(container, name) for name in ("t", "q", "p") if hasattr(container, name)]


def view_bits(items) -> list:
    """The bits of each pose, sample or record of a list view."""
    out = []
    for item in items:
        t, pose = item if isinstance(item, TimedPose) else (getattr(item, "t", None), item)
        if isinstance(pose, TipPoseRecord):
            pose = pose.pose()
        out.append((t, pose.rotation.tobytes(), pose.translation.tobytes()))
    return out


class TestTipTrack:
    def test_items_are_the_records_it_was_built_from(self):
        recs = records()
        track = TipTrack.from_records(recs)
        assert len(track) == len(recs)
        assert bits(track) == bits(recs)
        assert bits([track[i] for i in range(len(recs))]) == bits(recs)
        assert bits([track[-1]]) == bits(recs[-1:])
        assert type(track[0].t) is float

    def test_slice_is_a_track_over_the_same_memory(self):
        track = TipTrack.from_records(records())
        piece = track[2:5]
        assert isinstance(piece, TipTrack) and len(piece) == 3
        assert np.shares_memory(piece.position, track.position)
        assert bits(piece) == bits(list(track)[2:5])

    def test_arrays_are_read_only(self):
        track = TipTrack.from_records(records())
        with pytest.raises(ValueError):
            track.position[0, 0] = 1.0

    def test_equality(self):
        recs = records()
        track = TipTrack.from_records(recs)
        assert track == recs
        assert track == TipTrack(track.t, track.position, track.orientation)
        assert track != recs[:-1]
        assert TipTrack.from_records([]) == []
        assert track != "track"

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TipTrack([0.0, 1.0], np.zeros((2, 3)), np.zeros((1, 4)))

    def test_to_frame_takes_a_list_or_a_track(self):
        frame = DrawingFrame("f", random_poses(1, seed=7)[0], np.eye(3))
        recs = records()
        local = to_frame(frame, recs)
        assert isinstance(local, TipTrack)
        assert bits(local) == bits(to_frame(frame, TipTrack.from_records(recs)))

    def test_pair_force_and_snapshot_take_a_list_or_a_track(self):
        recs = records()
        track = TipTrack.from_records(recs)
        force = ForceRecording(np.array([0.0, 0.2, 0.4]), np.array([1.0, 2.0, 3.0]))
        from_list, from_track = pair_force(recs, force), pair_force(track, force)
        assert bits(from_list.points) == bits(from_track.points)
        assert from_list.forces.tobytes() == from_track.forces.tobytes()
        presses = [PenEvent(t, PenEventKind.BUTTON_PRESS) for t in (0.04, 0.26, 0.5)]
        assert bits(snapshot_waypoints(recs, presses).waypoints) == bits(
            snapshot_waypoints(track, presses).waypoints
        )


class TestPoseRecording:
    def test_arrays_and_samples_agree(self):
        poses = random_poses(5)
        samples = [TimedPose(0.01 * i, pose) for i, pose in enumerate(poses)]
        from_list = PoseRecording("world", samples)
        from_arrays = PoseRecording("world", t=from_list.t, q=from_list.q, p=from_list.p)
        assert len(from_arrays) == 5 and from_list.samples is samples
        for a, b in zip(from_arrays.samples, samples):
            assert type(a.t) is float and a.t == b.t
            assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
            assert a.pose.translation.tobytes() == b.pose.translation.tobytes()
        assert bits(apply_calibration(from_list, poses[0])) == bits(
            apply_calibration(from_arrays, poses[0])
        )

    def test_written_bytes_do_not_depend_on_the_form(self):
        poses = random_poses(5)
        from_list = PoseRecording("world", [TimedPose(i / 100.0, p) for i, p in enumerate(poses)])
        from_arrays = PoseRecording("world", t=np.arange(5) / 100.0, q=from_list.q, p=from_list.p)
        texts = []
        for rec in (from_list, from_arrays):
            out = io.StringIO()
            write_pose_csv(rec, out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        assert parse_pose_csv(io.StringIO(texts[0])).q.tobytes() == from_list.q.tobytes()

    @pytest.mark.parametrize("t", [[], [0.0, 0.0], [1.0, 0.5]])
    def test_rejects_empty_or_unordered_times(self, t):
        n = len(t)
        with pytest.raises(ValueError):
            PoseRecording(
                "world", t=t, q=np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)), p=np.zeros((n, 3))
            )


class TestCalibrationDatasets:
    def test_rows_and_list_give_the_same_solve(self):
        poses = random_poses(60, seed=3)
        from_list = PositionDataset(poses)
        from_rows = PositionDataset(q=from_list.q, p=from_list.p)
        a = calibrate_position(from_list, None, min_rotation=math.radians(5.0))
        b = calibrate_position(from_rows, None, min_rotation=math.radians(5.0))
        assert a.tip_offset.tobytes() == b.tip_offset.tobytes()
        assert [p.rotation.tobytes() for p in from_rows.poses] == [
            p.rotation.tobytes() for p in poses
        ]

    @pytest.mark.parametrize("kind", ROW_CONTAINERS)
    def test_list_and_rows_hold_the_same_bytes(self, kind):
        from_list, from_rows, view = built_both_ways(kind)
        assert len(from_list) == len(from_rows) == 5
        assert [(a.shape, a.tobytes()) for a in data(from_list)] == [
            (a.shape, a.tobytes()) for a in data(from_rows)
        ]
        assert view_bits(getattr(from_list, view)) == view_bits(getattr(from_rows, view))

    @pytest.mark.parametrize("kind", ROW_CONTAINERS)
    @pytest.mark.parametrize("form", [0, 1], ids=["from_list", "from_rows"])
    def test_reading_the_view_leaves_the_rows(self, kind, form):
        built = built_both_ways(kind)
        container, view = built[form], built[2]
        before = data(container)
        items = getattr(container, view)
        assert len(list(items)) == len(container)
        assert all(a is b for a, b in zip(data(container), before, strict=True))
        if view != "waypoints":
            assert isinstance(items, (list, tuple)) and getattr(container, view) is items

    def test_hole_axis_is_normalized(self):
        hole = HoleRecording([0.0, 0.0, 2.0], q=[[0.0, 0.0, 0.0, 1.0]], p=[[0.0, 0.0, 0.0]])
        assert len(hole) == 1 and hole.reference_axis.tolist() == [0.0, 0.0, 1.0]

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError):
            PositionDataset(q=np.zeros((0, 4)), p=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            HoleRecording([0.0, 0.0, 1.0], q=np.zeros((0, 4)), p=np.zeros((0, 3)))


class TestDemonstrationTrace:
    def test_list_and_track_build_the_same_trace(self):
        recs = records()
        trace = DemonstrationTrace(points=recs, forces=np.arange(6.0))
        assert isinstance(trace.points, TipTrack) and len(trace) == 6
        assert trace.times.tolist() == [r.t for r in recs]
        same = DemonstrationTrace(points=TipTrack.from_records(recs), forces=np.arange(6.0))
        assert trace.points == same.points

    def test_segments_are_tracks(self):
        xy = [[0.01 * i, 0.0] for i in range(11)] + [[0.1, 0.01 * i] for i in range(1, 11)]
        points = [
            TipPoseRecord(0.01 * i, [x, y, 0.0], [0.0, 0.0, 0.0, 1.0])
            for i, (x, y) in enumerate(xy)
        ]
        path = IdealPath(np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]]), (0, 1, 2))
        pieces = segment_trace(DemonstrationTrace(points=points), path)
        assert [len(p) for p in pieces] == [11, 11]
        assert all(isinstance(p.points, TipTrack) for p in pieces)
        assert bits(pieces[1].points) == bits(points[10:])
