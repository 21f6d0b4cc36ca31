from __future__ import annotations

import io
import json
import warnings

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
from styluskit.cli import main
from styluskit.ingest import (
    DemonstrationTrace,
    ForceRecording,
    PenEventKind,
    PoseRecording,
    WaypointList,
    apply_calibration,
    load_manifest,
    load_pen_events,
    load_pose_csv,
    load_position,
    load_trace,
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


class TestForceTimestamps:
    @pytest.mark.parametrize(
        "t",
        [[0.0, 0.01, np.nan, 0.03], [np.nan, 0.01, 0.02, 0.03], [0.0, 0.01, 0.02, np.nan],
         [0.0, 0.01, np.inf, np.inf], [-np.inf, -np.inf, 0.02, 0.03],
         [0.0, np.inf, 0.02, 0.03], [0.0, 0.01, -np.inf, 0.03], [0.0, 0.01, 0.01, 0.03]],
    )
    def test_not_strictly_increasing_rejected(self, t):
        # A NaN difference (NaN, or inf - inf) compares False both ways.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly increasing"):
                ForceRecording(t, np.ones(4))


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


POSE_ROWS = "t,x,y,z,qx,qy,qz,qw\n0,0,0,0,0,0,0,1\n0.1,0,0,0.5,0,0,0,1\n"
HOLE = {"reference_axis": [0, 0, 1], "recording": "hole.csv"}
POSITION = {"translation": [0, 0, -0.12], "position_residual_rms": 0.0}


class TestFileLoaders:
    """Each loader a command calls raises the ``FormatError`` whose text
    the command prints, read here in-library and through the CLI."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "hole.csv").write_text(POSE_ROWS)
        manifest, position = tmp_path / "manifest.json", tmp_path / "position.json"
        manifest.write_text(json.dumps({"holes": [HOLE]}))
        position.write_text(json.dumps(POSITION))
        return manifest, position

    @staticmethod
    def raised(load, path) -> FormatError:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning ahead of the error
            with pytest.raises(FormatError) as excinfo:
                load(path)
        return excinfo.value

    @staticmethod
    def printed(capsys, *argv) -> str:
        assert main([str(a) for a in argv]) == 2
        return capsys.readouterr().err

    def test_valid_files(self, files, tmp_path, monkeypatch):
        manifest, position = files
        monkeypatch.chdir(tmp_path.parent)  # recordings resolve against the manifest
        dataset = load_manifest(manifest)
        assert [h.reference_axis.tolist() for h in dataset.holes] == [[0.0, 0.0, 1.0]]
        assert dataset.holes[0].p.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]
        translation, rms, removed = load_position(position)
        assert (translation.tolist(), rms, removed) == ([0.0, 0.0, -0.12], 0.0, 0)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"holes": 3}, "manifest needs a 'holes' list"),
            ({"holes": [{"recording": "hole.csv"}]},
             "each hole needs 'reference_axis' and 'recording'"),
            ({"holes": []}, "orientation dataset must not be empty"),
            ({"holes": [{**HOLE, "reference_axis": [1, 0]}]},
             "hole 0: expected a 3-vector, got shape (2,)"),
            ({"holes": [{**HOLE, "reference_axis": [0, 0, "1"]}]},
             'hole 0: reference_axis must be a number, got "1"'),
            ({"holes": [{**HOLE, "reference_axis": [0, 0, 1e308]}]},
             "hole 0: hole reference axis must be finite and nonzero"),
        ],
    )
    def test_bad_manifest(self, files, capsys, doc, message):
        manifest, position = files
        manifest.write_text(json.dumps(doc))
        exc = self.raised(load_manifest, manifest)
        assert str(exc) == f"{manifest}: {message}"
        argv = ["calibrate-orientation", manifest, "--position", position]
        assert self.printed(capsys, *argv) == f"error: {exc}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"position_residual_rms": 0.0}, "expected the JSON written by calibrate-position"),
            ({**POSITION, "translation": [0, 0]}, "expected a 3-vector, got shape (2,)"),
            ({**POSITION, "position_residual_rms": "0"},
             'position_residual_rms must be a number, got "0"'),
            ({**POSITION, "position_residual_rms": -1.0},
             "translation must be finite, position_residual_rms finite and >= 0"),
            ({**POSITION, "filtered_outliers": 2.5},
             "filtered_outliers must be an integer, got 2.5"),
            ({**POSITION, "filtered_outliers": -1}, "filtered_outliers must not be negative"),
        ],
    )
    def test_bad_position_file(self, files, capsys, doc, message):
        manifest, position = files
        position.write_text(json.dumps(doc))
        exc = self.raised(load_position, position)
        assert str(exc) == f"{position}: {message}"
        argv = ["calibrate-orientation", manifest, "--position", position]
        assert self.printed(capsys, *argv) == f"error: {exc}\n"

    def test_bad_pose_csv(self, tmp_path, capsys):
        path = tmp_path / "poses.csv"
        path.write_bytes(POSE_ROWS.encode() + b"0.2,0,0,0,0,0,0,\xff\n")
        exc = self.raised(load_pose_csv, path)
        # Text is decoded in chunks: the error names the first line of the bad one.
        assert str(exc) == "line 1: text at or after this line is not UTF-8 (invalid start byte)"
        assert self.printed(capsys, "calibrate-position", path) == f"error: {exc}\n"

    def test_bad_pen_events(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_bytes(b"EVT 0.10 BTN 1\nEVT x BTN 1\n")
        assert str(self.raised(load_pen_events, path)) == (
            "line 2: cannot parse event timestamp from 'x'"
        )
        path.write_text("EVT 0.10 BTN 1\nhello\n")
        events, skipped = load_pen_events(path)
        assert ([e.kind for e in events], skipped) == ([PenEventKind.BUTTON_PRESS], 1)

    def test_trace_is_told_apart_by_its_first_line(self, tmp_path):
        demo, poses = tmp_path / "demo.csv", tmp_path / "poses.csv"
        demo.write_text("\n\nt,x,y,z,Fz\n0,0,0,0,1.5\n0.1,0.1,0,0,2.5\n")
        poses.write_text(POSE_ROWS)
        assert load_trace(demo).forces.tolist() == [1.5, 2.5]
        trace = load_trace(poses)
        assert trace.forces is None
        assert trace.positions.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]
        demo.write_bytes(b"\n\xfft,x,y,z,Fz\n")
        assert str(self.raised(load_trace, demo)) == (
            "line 1: text at or after this line is not UTF-8 (invalid start byte)"
        )
