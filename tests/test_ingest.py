from __future__ import annotations

import io
import json

import numpy as np
import pytest

from styluskit.errors import (
    EventOutsideRecording,
    FormatError,
    NonMonotonicTime,
)
from styluskit.geometry import (
    Pose,
    TipTrack,
    quat_from_axis_angle,
    quat_normalize,
    quat_normalize_rows,
)
from styluskit.ingest import (
    DemonstrationTrace,
    PenEventKind,
    PoseRecording,
    WaypointList,
    apply_calibration,
    parse_demo_csv,
    parse_pen_events,
    parse_pose_csv,
    snapshot_waypoints,
    waypoint_list_from_doc,
    waypoint_list_to_doc,
    write_demo_csv,
    write_pose_csv,
)

IDENTITY_Q = np.array([0.0, 0.0, 0.0, 1.0])


def tips_at(times, positions=None):
    if positions is None:
        positions = np.zeros((len(times), 3))
    return TipTrack(times, positions, np.tile(IDENTITY_Q, (len(times), 1)))


def recording_of(times, poses) -> PoseRecording:
    return PoseRecording(
        "world", t=times, q=[p.rotation for p in poses], p=[p.translation for p in poses]
    )


class TestParsePoseCsv:
    def test_single_identity_row(self):
        rec = parse_pose_csv(io.StringIO("t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n"))
        assert len(rec) == 1
        assert rec.t[0] == 0.0
        assert np.allclose(rec.p[0], 0.0)
        assert np.allclose(rec.q[0], [0, 0, 0, 1])

    def test_empty_body_raises(self):
        with pytest.raises(FormatError):
            parse_pose_csv(io.StringIO("t,x,y,z,qx,qy,qz,qw\n"))

    def test_empty_stream_raises(self):
        with pytest.raises(FormatError):
            parse_pose_csv(io.StringIO(""))

    def test_bad_header_raises(self):
        with pytest.raises(FormatError):
            parse_pose_csv(io.StringIO("time,x,y,z\n0,0,0,0\n"))

    def test_equal_timestamps_raise_with_line(self):
        text = "t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n0.0,1,0,0,0,0,0,1\n"
        with pytest.raises(NonMonotonicTime) as excinfo:
            parse_pose_csv(io.StringIO(text))
        assert excinfo.value.line == 3

    def test_bad_row_reports_line(self):
        text = "t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n0.1,a,0,0,0,0,0,1\n"
        with pytest.raises(FormatError) as excinfo:
            parse_pose_csv(io.StringIO(text))
        assert excinfo.value.line == 3

    def test_non_finite_rows_dropped_with_warning(self):
        text = "t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n0.1,nan,0,0,0,0,0,1\n0.2,1,0,0,0,0,0,1\n"
        with pytest.warns(UserWarning, match="non-finite"):
            rec = parse_pose_csv(io.StringIO(text))
        assert len(rec) == 2

    def test_jsonl_variant(self):
        text = '{"t": 0.0, "x": 1, "y": 2, "z": 3, "qx": 0, "qy": 0, "qz": 0, "qw": 1}\n'
        rec = parse_pose_csv(io.StringIO(text))
        assert np.allclose(rec.p[0], [1, 2, 3])

    def test_quaternions_normalized(self):
        rec = parse_pose_csv(io.StringIO("t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,2\n"))
        assert abs(np.linalg.norm(rec.q[0]) - 1.0) < 1e-12

    def test_round_trip_is_fixed_point(self):
        rng = np.random.default_rng(11)
        rows = ["t,x,y,z,qx,qy,qz,qw"]
        for i in range(10):
            q = rng.normal(size=4)
            rows.append(
                f"{i * 0.01},{rng.uniform()},{rng.uniform()},{rng.uniform()},"
                f"{q[0]},{q[1]},{q[2]},{q[3]}"
            )
        rec1 = parse_pose_csv(io.StringIO("\n".join(rows) + "\n"))
        out1 = io.StringIO()
        write_pose_csv(rec1, out1)
        rec2 = parse_pose_csv(io.StringIO(out1.getvalue()))
        out2 = io.StringIO()
        write_pose_csv(rec2, out2)
        assert out1.getvalue() == out2.getvalue()


class TestParseDemoCsv:
    def test_round_trip(self):
        text = "t,x,y,z,Fz\n0.0,0.1,0.2,0,1.5\n0.1,0.2,0.2,0,1.6\n"
        trace = parse_demo_csv(io.StringIO(text))
        assert trace.forces is not None and trace.forces[1] == 1.6
        out = io.StringIO()
        write_demo_csv(trace, out)
        trace2 = parse_demo_csv(io.StringIO(out.getvalue()))
        out2 = io.StringIO()
        write_demo_csv(trace2, out2)
        assert out.getvalue() == out2.getvalue()


class TestParsePenEvents:
    def test_press_release_power(self):
        text = "EVT 0.5 PWR 1\nEVT 1.250 BTN 1\nEVT 1.300 BTN 0\n"
        events, skipped = parse_pen_events(io.StringIO(text))
        assert skipped == 0
        assert [e.kind for e in events] == [
            PenEventKind.POWER_ON,
            PenEventKind.BUTTON_PRESS,
            PenEventKind.BUTTON_RELEASE,
        ]
        assert events[1].t == 1.25

    def test_garbage_line_skipped_with_count(self):
        text = "EVT 1.0 BTN 1\nhello world\nEVT 2.0 BTN 0\n"
        events, skipped = parse_pen_events(io.StringIO(text))
        assert len(events) == 2
        assert skipped == 1

    def test_unknown_subtype_skipped(self):
        events, skipped = parse_pen_events(io.StringIO("EVT 1.0 LED 1\nEVT 2.0 BTN 1\n"))
        assert len(events) == 1
        assert skipped == 1

    def test_malformed_timestamp_raises(self):
        with pytest.raises(FormatError):
            parse_pen_events(io.StringIO("EVT abc BTN 1\n"))

    def test_decreasing_timestamps_raise(self):
        with pytest.raises(NonMonotonicTime):
            parse_pen_events(io.StringIO("EVT 2.0 BTN 1\nEVT 1.0 BTN 0\n"))


class TestApplyCalibration:
    def test_identity_calibration_is_identity(self):
        rng = np.random.default_rng(12)
        times = [i * 0.1 for i in range(5)]
        poses = [
            Pose(quat_from_axis_angle(rng.normal(size=3), rng.uniform(-1, 1)), rng.normal(size=3))
            for _ in times
        ]
        tips = apply_calibration(recording_of(times, poses), Pose.identity())
        for i, (t, pose) in enumerate(zip(times, poses)):
            assert tips.t[i] == t
            assert np.allclose(tips.position[i], pose.translation, atol=1e-12)
            assert np.allclose(tips.orientation[i], pose.rotation, atol=1e-12)

    def test_pure_tip_offset(self):
        rec = recording_of([0.0], [Pose(IDENTITY_Q, np.array([1.0, 1.0, 1.0]))])
        offset = Pose(IDENTITY_Q, np.array([0.0, 0.0, -0.1]))
        tips = apply_calibration(rec, offset)
        assert np.allclose(tips.position[0], [1.0, 1.0, 0.9], atol=1e-12)

    def test_rotating_fiducial_about_fixed_tip(self):
        # all tip positions coincide when the true calibration is applied
        from styluskit.synth import SynthConfig, gen_position_dataset

        true = Pose(quat_from_axis_angle([1, 0, 0], 0.2), np.array([0.01, -0.02, -0.12]))
        cfg = SynthConfig(true_calibration=true, pivot_point=np.array([0.4, 0.1, 0.0]), sample_count=50, seed=5)
        dataset, truth = gen_position_dataset(cfg)
        rec = recording_of([i * 0.01 for i in range(len(dataset))], dataset.poses)
        tips = apply_calibration(rec, true)
        assert np.max(np.linalg.norm(tips.position - truth.pivot_point, axis=1)) < 1e-9


class TestSnapshotWaypoints:
    def test_exact_match(self):
        tips = tips_at([0.0, 0.1, 0.2])
        from styluskit.ingest import PenEvent

        wl = snapshot_waypoints(tips, [PenEvent(0.1, PenEventKind.BUTTON_PRESS)])
        assert len(wl) == 1
        assert wl.waypoints.t[0] == 0.1

    def test_no_events_gives_empty_list(self):
        wl = snapshot_waypoints(tips_at([0.0, 0.1]), [])
        assert len(wl) == 0

    def test_midway_tie_picks_earlier(self):
        from styluskit.ingest import PenEvent

        tips = tips_at([0.0, 0.25, 0.5, 0.75])
        wl = snapshot_waypoints(tips, [PenEvent(0.375, PenEventKind.BUTTON_PRESS)])
        assert wl.waypoints.t[0] == 0.25

    def test_release_ignored(self):
        from styluskit.ingest import PenEvent

        wl = snapshot_waypoints(
            tips_at([0.0, 0.1]), [PenEvent(0.05, PenEventKind.BUTTON_RELEASE)]
        )
        assert len(wl) == 0

    def test_press_outside_guard_raises(self):
        from styluskit.ingest import PenEvent

        with pytest.raises(EventOutsideRecording):
            snapshot_waypoints(
                tips_at([1.0, 1.1]), [PenEvent(0.5, PenEventKind.BUTTON_PRESS)]
            )

    def test_press_within_guard_snaps_to_endpoint(self):
        from styluskit.ingest import PenEvent

        wl = snapshot_waypoints(
            tips_at([1.0, 1.1]), [PenEvent(0.95, PenEventKind.BUTTON_PRESS)]
        )
        assert wl.waypoints.t[0] == 1.0

    def test_count_matches_presses_inside_span(self):
        from styluskit.ingest import PenEvent

        tips = tips_at([i * 0.01 for i in range(101)])
        presses = [PenEvent(t, PenEventKind.BUTTON_PRESS) for t in (0.1, 0.5, 0.9)]
        assert len(snapshot_waypoints(tips, presses)) == 3


class TestTraceInvariants:
    def test_force_count_must_match(self):
        with pytest.raises(ValueError):
            DemonstrationTrace(points=tips_at([0.0, 0.1]), forces=np.array([1.0]))

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            DemonstrationTrace(points=tips_at([0.0]), source="wand")


class TestNonFiniteEventTimestamps:
    def test_rejected_on_any_event_line(self):
        # A timestamp that cannot be used is fatal even where the event
        # itself would be skipped, as a malformed one is.
        with pytest.raises(FormatError, match="line 1"):
            parse_pen_events(io.StringIO("EVT nan XYZ 1\n"))


class TestWaypointDocuments:
    def test_round_trip_keeps_the_bits(self):
        from styluskit.jsonio import dumps_canonical

        rng = np.random.default_rng(21)
        track = TipTrack(
            np.sort(rng.uniform(0.0, 9.0, 7)),
            rng.normal(size=(7, 3)),
            quat_normalize_rows(rng.normal(size=(7, 4))),
        )
        text = dumps_canonical(waypoint_list_to_doc(WaypointList(track)))
        back = waypoint_list_from_doc(json.loads(text)).waypoints
        for name in ("t", "position", "orientation"):
            a, b = getattr(back, name), getattr(track, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert dumps_canonical(waypoint_list_to_doc(WaypointList(back))) == text

    def test_quaternions_normalize_as_row_by_row(self):
        # Hand-written documents hold off-unit quaternions (6 decimals,
        # a scaled identity, qw < 0); each row gets quat_normalize's bits.
        rng = np.random.default_rng(22)
        quats = [np.round(quat_normalize(q), 6).tolist() for q in rng.normal(size=(5, 4))]
        quats += [[0.0, 0.0, 0.0, 2.0], [0.1, -0.2, 0.3, -0.9], [0.0, 0.0, -1.0, 0.0]]
        doc = {
            "waypoints": [
                {"t": float(i), "position": [0.0, 0.0, float(i)], "orientation_quat": q}
                for i, q in enumerate(quats)
            ]
        }
        got = waypoint_list_from_doc(doc).waypoints.orientation
        assert got.tobytes() == np.array([quat_normalize(q) for q in quats]).tobytes()

    def test_empty_list(self):
        assert len(waypoint_list_from_doc({"waypoints": []})) == 0


def test_ideal_path_takes_numpy_integer_indices():
    """In-library, a visiting sequence of numpy integers reads as Python ints,
    as it did before the indices went through ``jsonio.json_int``."""
    from styluskit.ingest import IdealPath

    path = IdealPath([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]], np.arange(3))
    assert path.visiting_sequence == (0, 1, 2)
    assert all(type(i) is int for i in path.visiting_sequence)
