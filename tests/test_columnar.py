"""Columnar recordings and tip tracks.

The data types hold arrays and are built from rows only.  Rows normalized
one :class:`Pose` at a time and rows normalized all at once must carry the
same bits, and so must the ``poses`` view built from them and every
function's result.
"""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_geometry_rows import near_unit_quats, sign_rule_quats, six_decimal_quats, unit_quats

from styluskit.calib import calibrate_position
from styluskit.errors import NonFinitePose
from styluskit.evaluation import segment_trace
from styluskit.geometry import (
    HoleRecording,
    Pose,
    PoseRows,
    PositionDataset,
    TipTrack,
    quat_from_axis_angle,
    quat_normalize_rows,
)
from styluskit.ingest import (
    DemonstrationTrace,
    IdealPath,
    PoseRecording,
    WaypointList,
    parse_pose_csv,
    write_pose_csv,
)


def random_poses(n: int, seed: int = 1) -> list[Pose]:
    rng = np.random.default_rng(seed)
    return [
        Pose(quat_from_axis_angle(rng.normal(size=3), rng.uniform(-2.0, 2.0)), rng.normal(size=3))
        for _ in range(n)
    ]


def random_track(n: int = 6) -> TipTrack:
    poses = random_poses(n)
    return TipTrack(
        [0.1 * i for i in range(n)],
        [pose.translation for pose in poses],
        [pose.rotation for pose in poses],
    )


def bits(track: TipTrack) -> list:
    return [(a.shape, a.tobytes()) for a in (track.t, track.position, track.orientation)]


ROW_CONTAINERS = ["PositionDataset", "HoleRecording", "PoseRecording", "WaypointList"]


def built_both_ways(kind: str, n: int = 5):
    """A ``kind`` built from the stacked rows of a list of poses, each
    normalized alone, and one built from rows normalized all at once, and
    the name of its view."""
    rng = np.random.default_rng(4)
    raw_q, p = rng.normal(size=(n, 4)), rng.normal(size=(n, 3))
    q, t = quat_normalize_rows(raw_q), np.arange(n) / 100.0
    poses = [Pose(a, b) for a, b in zip(raw_q, p)]
    stacked_q = [pose.rotation for pose in poses]
    stacked_p = [pose.translation for pose in poses]
    if kind == "PositionDataset":
        return PositionDataset(q=stacked_q, p=stacked_p), PositionDataset(q=q, p=p), "poses"
    if kind == "HoleRecording":
        axis = [0.0, 0.0, 1.0]
        return (
            HoleRecording(axis, q=stacked_q, p=stacked_p),
            HoleRecording(axis, q=q, p=p),
            "poses",
        )
    if kind == "PoseRecording":
        return (
            PoseRecording("world", t=t, q=stacked_q, p=stacked_p),
            PoseRecording("world", t=t, q=q, p=p),
            "poses",
        )
    return WaypointList(TipTrack(t, stacked_p, stacked_q)), WaypointList(TipTrack(t, p, q)), "waypoints"


def data(container) -> list:
    """The arrays that are a container's data."""
    if isinstance(container, WaypointList):
        track = container.waypoints
        return [track.t, track.position, track.orientation]
    return [getattr(container, name) for name in ("t", "q", "p") if hasattr(container, name)]


def view_bits(view) -> list:
    """The bits of each pose of a ``poses`` view, or of a track's rows."""
    if isinstance(view, TipTrack):
        return bits(view)
    return [(pose.rotation.tobytes(), pose.translation.tobytes()) for pose in view]


class TestTipTrack:
    def test_items_are_the_records_it_was_built_from(self):
        track = random_track()
        assert len(track) == 6
        for i in range(6):
            row = track[i]
            assert isinstance(row, TipTrack) and len(row) == 1
            expected = TipTrack(track.t[i : i + 1], track.position[i], track.orientation[i])
            assert bits(row) == bits(expected)
        assert bits(track[-1]) == bits(track[5:])

    def test_slice_is_a_track_over_the_same_memory(self):
        track = random_track()
        piece = track[2:5]
        assert isinstance(piece, TipTrack) and len(piece) == 3
        assert np.shares_memory(piece.position, track.position)
        assert bits(piece) == bits(track[np.arange(2, 5)])

    def test_arrays_are_read_only(self):
        track = random_track()
        with pytest.raises(ValueError):
            track.position[0, 0] = 1.0

    def test_equality(self):
        track = random_track()
        assert track == TipTrack(track.t, track.position, track.orientation)
        assert track != track[:-1]
        assert track[:0] == TipTrack([], np.zeros((0, 3)), np.zeros((0, 4)))
        assert track != "track"

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TipTrack([0.0, 1.0], np.zeros((2, 3)), np.zeros((1, 4)))


class TestPoseRecording:
    def test_written_bytes_do_not_depend_on_the_form(self):
        rng = np.random.default_rng(6)
        raw_q, p = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
        t = np.arange(5) / 100.0
        poses = [Pose(a, b) for a, b in zip(raw_q, p)]
        from_poses = PoseRecording(
            "world", t=t, q=[x.rotation for x in poses], p=[x.translation for x in poses]
        )
        from_rows = PoseRecording("world", t=t, q=quat_normalize_rows(raw_q), p=p)
        texts = []
        for rec in (from_poses, from_rows):
            out = io.StringIO()
            write_pose_csv(rec, out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        assert parse_pose_csv(io.StringIO(texts[0])).q.tobytes() == from_poses.q.tobytes()

    @pytest.mark.parametrize("t", [[], [0.0, 0.0], [1.0, 0.5]])
    def test_rejects_empty_or_unordered_times(self, t):
        n = len(t)
        with pytest.raises(ValueError):
            PoseRecording(
                "world", t=t, q=np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)), p=np.zeros((n, 3))
            )


class TestCalibrationDatasets:
    def test_rows_and_list_give_the_same_solve(self):
        # The rows of 60 poses, each normalized alone, and the same rows
        # normalized all at once.
        poses = random_poses(60, seed=3)
        from_list = PositionDataset(
            q=[x.rotation for x in poses], p=[x.translation for x in poses]
        )
        from_rows = PositionDataset(q=quat_normalize_rows(from_list.q), p=from_list.p)
        a = calibrate_position(from_list, None, min_rotation=math.radians(5.0))
        b = calibrate_position(from_rows, None, min_rotation=math.radians(5.0))
        assert a.tip_offset.tobytes() == b.tip_offset.tobytes()
        assert [p.rotation.tobytes() for p in from_rows.poses] == [
            p.rotation.tobytes() for p in poses
        ]

    @given(
        st.lists(
            st.one_of(unit_quats(), sign_rule_quats(), near_unit_quats(), six_decimal_quats()),
            min_size=1, max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_poses_hold_the_canonical_rows_as_they_are(self, raw, random):
        q = quat_normalize_rows(np.array(raw))
        p = np.array([[random.uniform(-2.0, 2.0) for _ in range(3)] for _ in raw])
        poses = PositionDataset(q=q, p=p).poses
        rows = [(a.tobytes(), b.tobytes()) for a, b in zip(q, p)]
        assert [(x.rotation.tobytes(), x.translation.tobytes()) for x in poses] == rows
        assert [Pose(a, b).rotation.tobytes() for a, b in zip(q, p)] == [a for a, _ in rows]
        assert not any(x.rotation.flags.writeable or x.translation.flags.writeable for x in poses)
        q[:], p[:] = 0.0, 0.0
        assert [(x.rotation.tobytes(), x.translation.tobytes()) for x in poses] == rows

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", ["q", "p"])
    def test_poses_of_non_finite_rows_raise(self, bad, column):
        rows = {"q": np.tile([0.0, 0.0, 0.0, 1.0], (3, 1)), "p": np.zeros((3, 3))}
        rows[column][1, 0] = bad
        with pytest.raises(NonFinitePose):
            PositionDataset(**rows).poses  # noqa: B018

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

    @pytest.mark.parametrize(
        "build",
        [PoseRows, PositionDataset, lambda poses: HoleRecording([0.0, 0.0, 1.0], poses),
         lambda poses: PoseRecording("world", poses)],
        ids=["PoseRows", "PositionDataset", "HoleRecording", "PoseRecording"],
    )
    def test_a_list_of_poses_is_refused(self, build):
        # Rows (q=, p=) are the only way to build a dataset.
        with pytest.raises(TypeError):
            build(random_poses(3))

    def test_hole_axis_is_normalized(self):
        hole = HoleRecording([0.0, 0.0, 2.0], q=[[0.0, 0.0, 0.0, 1.0]], p=[[0.0, 0.0, 0.0]])
        assert len(hole) == 1 and hole.reference_axis.tolist() == [0.0, 0.0, 1.0]

    def test_rejects_empty_rows(self):
        with pytest.raises(ValueError):
            PositionDataset(q=np.zeros((0, 4)), p=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            HoleRecording([0.0, 0.0, 1.0], q=np.zeros((0, 4)), p=np.zeros((0, 3)))


class TestDemonstrationTrace:
    def test_segments_are_tracks(self):
        xy = [[0.01 * i, 0.0] for i in range(11)] + [[0.1, 0.01 * i] for i in range(1, 11)]
        n = len(xy)
        points = TipTrack(
            [0.01 * i for i in range(n)],
            [[x, y, 0.0] for x, y in xy],
            np.tile([0.0, 0.0, 0.0, 1.0], (n, 1)),
        )
        path = IdealPath(np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]]), (0, 1, 2))
        pieces = segment_trace(DemonstrationTrace(points=points), path)
        assert [len(p) for p in pieces] == [11, 11]
        assert all(isinstance(p.points, TipTrack) for p in pieces)
        assert bits(pieces[1].points) == bits(points[10:])
