from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import styluskit
from styluskit.cli import main
from styluskit.geometry import (
    Pose,
    angle_between,
    quat_rotate,
)
from styluskit.jsonio import write_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_position(tmp_path, capsys, **overrides):
    cfg = {
        "kind": "position",
        "seed": 11,
        "sample_count": 400,
        "rotation_span_deg": 120.0,
        "true_translation": [0.01, -0.02, -0.12],
        "true_rotation_ypr_deg": [0.0, 0.0, 0.0],
        "pivot_point": [0.4, 0.1, 0.02],
        "position_noise_std": 0.0,
        "orientation_noise_std_deg": 0.0,
        "outlier_rate": 0.0,
        "outlier_magnitude": 0.08,
    }
    cfg.update(overrides)
    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / "position_config.json"
    write_json(config_path, cfg)
    out_dir = tmp_path / "position_data"
    code, out, err = run(capsys, "simulate", str(config_path), "--out-dir", str(out_dir))
    assert code == 0, err
    return out_dir, cfg


def simulate_orientation(tmp_path, capsys, **overrides):
    cfg = {
        "kind": "orientation",
        "seed": 12,
        "true_translation": [0.01, -0.02, -0.12],
        "true_rotation_ypr_deg": [0.0, 3.0, 8.0],
        "orientation_noise_std_deg": 0.0,
        "hole_axes": [[0.0, 0.0, 1.0], [0.0, 0.70710678118654746, 0.70710678118654757]],
        "poses_per_hole": 60,
    }
    cfg.update(overrides)
    config_path = tmp_path / "orientation_config.json"
    write_json(config_path, cfg)
    out_dir = tmp_path / "orientation_data"
    code, out, err = run(capsys, "simulate", str(config_path), "--out-dir", str(out_dir))
    assert code == 0, err
    return out_dir, cfg


class TestCalibratePosition:
    def test_noise_free_residual_tiny(self, tmp_path, capsys):
        data_dir, _ = simulate_position(tmp_path, capsys)
        out_file = tmp_path / "position.json"
        code, out, err = run(
            capsys,
            "calibrate-position",
            str(data_dir / "poses.csv"),
            "-o",
            str(out_file),
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["position_residual_rms"] < 1e-9
        assert np.allclose(doc["translation"], [0.01, -0.02, -0.12], atol=1e-9)
        assert json.loads(out_file.read_text()) == doc

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "calibrate-position", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error" in err

    def test_single_pose_exit_3(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n")
        code, _, err = run(capsys, "calibrate-position", str(csv))
        assert code == 3

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("t,x\n0,0\n")
        code, _, _ = run(capsys, "calibrate-position", str(csv))
        assert code == 2

    def test_byte_deterministic(self, tmp_path, capsys):
        data_dir, _ = simulate_position(tmp_path, capsys)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "calibrate-position", str(data_dir / "poses.csv"), "-o", str(first))
        run(capsys, "calibrate-position", str(data_dir / "poses.csv"), "-o", str(second))
        assert first.read_bytes() == second.read_bytes()


class TestCalibrateOrientation:
    def _position_file(self, tmp_path, capsys, data_dir):
        out_file = tmp_path / "position.json"
        code, _, err = run(
            capsys, "calibrate-position", str(data_dir / "poses.csv"), "-o", str(out_file)
        )
        assert code == 0, err
        return out_file

    def test_two_hole_manifest(self, tmp_path, capsys):
        position_dir, _ = simulate_position(tmp_path, capsys)
        position_file = self._position_file(tmp_path, capsys, position_dir)
        orientation_dir, cfg = simulate_orientation(tmp_path, capsys)
        calib_file = tmp_path / "calibration.json"
        code, out, err = run(
            capsys,
            "calibrate-orientation",
            str(orientation_dir / "manifest.json"),
            "--position",
            str(position_file),
            "-o",
            str(calib_file),
        )
        assert code == 0, err
        doc = json.loads(calib_file.read_text())
        truth = json.loads((orientation_dir / "truth.json").read_text())
        got_axis = quat_rotate(np.asarray(doc["rotation_quat"]), [0.0, 0.0, 1.0])
        true_axis = quat_rotate(np.asarray(truth["rotation_quat"]), [0.0, 0.0, 1.0])
        assert angle_between(got_axis, true_axis) < 1e-6
        assert doc["orientation_residual_rms"] < 1e-9

    def test_parallel_axes_warn_exit_0(self, tmp_path, capsys):
        position_dir, _ = simulate_position(tmp_path, capsys)
        position_file = self._position_file(tmp_path, capsys, position_dir)
        orientation_dir, _ = simulate_orientation(
            tmp_path, capsys, hole_axes=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        )
        code, out, err = run(
            capsys,
            "calibrate-orientation",
            str(orientation_dir / "manifest.json"),
            "--position",
            str(position_file),
        )
        assert code == 0
        assert "warning" in err

    def test_malformed_manifest_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"not_holes": []}')
        position = tmp_path / "position.json"
        write_json(position, {"translation": [0, 0, 0], "position_residual_rms": 0.0})
        code, _, _ = run(
            capsys, "calibrate-orientation", str(manifest), "--position", str(position)
        )
        assert code == 2


class TestIdentifyFrame:
    def _waypoints_file(self, tmp_path, points):
        doc = {
            "waypoints": [
                {"t": float(i), "position": list(map(float, p)), "orientation_quat": [0, 0, 0, 1]}
                for i, p in enumerate(points)
            ]
        }
        path = tmp_path / "waypoints.json"
        write_json(path, doc)
        return path

    def test_canonical_triangle(self, tmp_path, capsys):
        wp = self._waypoints_file(tmp_path, [[1, 0, 0], [0, 0, 0], [0, 1, 0]])
        code, out, err = run(capsys, "identify-frame", str(wp))
        assert code == 0, err
        doc = json.loads(out)
        assert np.allclose(doc["rotation_quat"], [0, 0, 0, 1], atol=1e-12)
        assert np.allclose(doc["translation"], [0, 0, 0])

    def test_colinear_exit_3(self, tmp_path, capsys):
        wp = self._waypoints_file(tmp_path, [[1, 0, 0], [0, 0, 0], [0.5, 0, 0]])
        code, _, _ = run(capsys, "identify-frame", str(wp))
        assert code == 3

    def test_too_few_waypoints_exit_2(self, tmp_path, capsys):
        wp = self._waypoints_file(tmp_path, [[1, 0, 0], [0, 0, 0]])
        code, _, _ = run(capsys, "identify-frame", str(wp))
        assert code == 2

    def test_moved_triangle_equivariant(self, tmp_path, capsys):
        from styluskit.geometry import quat_from_axis_angle, transform_point

        g = Pose(quat_from_axis_angle([0.2, 0.5, 0.8], 0.9), np.array([0.3, -0.1, 0.5]))
        points = [
            transform_point(g, p)
            for p in (np.array([1.0, 0, 0]), np.zeros(3), np.array([0.0, 1.0, 0]))
        ]
        wp = self._waypoints_file(tmp_path, points)
        code, out, _ = run(capsys, "identify-frame", str(wp))
        assert code == 0
        doc = json.loads(out)
        from styluskit.geometry import quat_angle

        assert quat_angle(np.asarray(doc["rotation_quat"]), g.rotation) < 1e-9
        assert np.allclose(doc["translation"], g.translation, atol=1e-9)


def simulate_demo(tmp_path, capsys, name="demo", **overrides):
    cfg = {
        "kind": "demonstration",
        "seed": 21,
        "path": {
            "waypoints": [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]],
            "visiting_sequence": [0, 1, 2],
        },
        "lateral_noise_std": 0.0,
        "speed": 0.05,
        "sample_rate": 200.0,
        "force_profile": {"kind": "sine", "frequency_hz": 5.0, "amplitude": 1.0, "offset": 2.0},
    }
    cfg.update(overrides)
    config_path = tmp_path / f"{name}_config.json"
    write_json(config_path, cfg)
    out_dir = tmp_path / name
    code, out, err = run(capsys, "simulate", str(config_path), "--out-dir", str(out_dir))
    assert code == 0, err
    return out_dir


IDENTITY_FRAME = {
    "label": "board",
    "translation": [0.0, 0.0, 0.0],
    "rotation_quat": [0.0, 0.0, 0.0, 1.0],
    "probe_points": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
}


class TestEvaluate:
    def test_perfect_trace_fraction_one(self, tmp_path, capsys):
        demo_dir = simulate_demo(tmp_path, capsys)
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        report_dir = tmp_path / "report"
        code, out, err = run(
            capsys,
            "evaluate",
            str(demo_dir / "trace.csv"),
            "--frame",
            str(frame_path),
            "--path",
            str(demo_dir / "path.json"),
            "--out-dir",
            str(report_dir),
        )
        assert code == 0, err
        summary = json.loads(out)
        assert summary["epsilon_fraction"] == 1.0
        report = json.loads((report_dir / "report.json").read_text())
        assert report["epsilon_fraction"] == 1.0
        assert (report_dir / "segments.csv").exists()
        assert (report_dir / "histogram.csv").exists()
        assert (report_dir / "spectrum_000.csv").exists()
        header = (report_dir / "segments.csv").read_text().splitlines()[0]
        assert header == "segment,idx,mean,std,env_min,env_max"

    def test_missing_waypoint_exit_3(self, tmp_path, capsys):
        demo_dir = simulate_demo(tmp_path, capsys)
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        bad_path = tmp_path / "bad_path.json"
        write_json(
            bad_path,
            {
                "waypoints": [[0.0, 0.0], [0.05, 0.05], [0.1, 0.1]],
                "visiting_sequence": [0, 1, 2],
            },
        )
        code, _, err = run(
            capsys,
            "evaluate",
            str(demo_dir / "trace.csv"),
            "--frame",
            str(frame_path),
            "--path",
            str(bad_path),
        )
        assert code == 3
        assert "waypoint" in err

    def test_byte_deterministic_reports(self, tmp_path, capsys):
        demo_dir = simulate_demo(tmp_path, capsys, lateral_noise_std=0.001)
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        dirs = []
        for name in ("r1", "r2"):
            report_dir = tmp_path / name
            code, _, err = run(
                capsys,
                "evaluate",
                str(demo_dir / "trace.csv"),
                "--frame",
                str(frame_path),
                "--path",
                str(demo_dir / "path.json"),
                "--out-dir",
                str(report_dir),
            )
            assert code == 0, err
            dirs.append(report_dir)
        for name in ("report.json", "segments.csv", "histogram.csv", "spectrum_000.csv"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name


class TestSimulate:
    def test_same_seed_identical_files(self, tmp_path, capsys):
        dir_a, _ = simulate_position(tmp_path / "a", capsys)
        dir_b, _ = simulate_position(tmp_path / "b", capsys)
        assert (dir_a / "poses.csv").read_bytes() == (dir_b / "poses.csv").read_bytes()
        assert (dir_a / "truth.json").read_bytes() == (dir_b / "truth.json").read_bytes()

    def test_outliers_recorded_in_truth(self, tmp_path, capsys):
        data_dir, _ = simulate_position(
            tmp_path, capsys, sample_count=1000, outlier_rate=0.1
        )
        truth = json.loads((data_dir / "truth.json").read_text())
        assert truth["outlier_count"] == 100
        assert len(truth["outlier_indices"]) == 100

    def test_generated_files_ingest_cleanly(self, tmp_path, capsys):
        from styluskit.ingest import parse_demo_csv, parse_pose_csv

        position_dir, _ = simulate_position(tmp_path, capsys, position_noise_std=0.0002)
        with open(position_dir / "poses.csv", "r", encoding="utf-8") as f:
            rec = parse_pose_csv(f)
        assert len(rec.samples) == 400

        demo_dir = simulate_demo(tmp_path, capsys, lateral_noise_std=0.0005)
        with open(demo_dir / "trace.csv", "r", encoding="utf-8") as f:
            trace = parse_demo_csv(f)
        assert trace.forces is not None

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        write_json(config_path, {"kind": "mystery"})
        code, _, _ = run(capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out"))
        assert code == 2


class TestSnapshot:
    def _setup(self, tmp_path, capsys, events_text):
        data_dir, _ = simulate_position(tmp_path, capsys, sample_count=101)
        calib_path = tmp_path / "calibration.json"
        write_json(
            calib_path,
            {
                "translation": [0.01, -0.02, -0.12],
                "rotation_quat": [0.0, 0.0, 0.0, 1.0],
                "position_residual_rms": 0.0,
                "orientation_residual_rms": 0.0,
                "filtered_outliers": 0,
            },
        )
        events_path = tmp_path / "events.txt"
        events_path.write_text(events_text)
        return data_dir / "poses.csv", events_path, calib_path

    def test_three_presses_three_waypoints(self, tmp_path, capsys):
        pose_csv, events, calib_path = self._setup(
            tmp_path,
            capsys,
            "EVT 0.10 BTN 1\nEVT 0.15 BTN 0\nEVT 0.50 BTN 1\nEVT 0.90 BTN 1\n",
        )
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["waypoints"]) == 3
        # tip offset applied: waypoint is fiducial pose composed with calibration
        assert doc["waypoints"][0]["t"] == pytest.approx(0.10)

    def test_no_presses_empty_list_exit_0(self, tmp_path, capsys):
        pose_csv, events, calib_path = self._setup(tmp_path, capsys, "EVT 0.15 BTN 0\n")
        code, out, _ = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        assert code == 0
        assert json.loads(out)["waypoints"] == []

    def test_press_outside_span_exit_3(self, tmp_path, capsys):
        pose_csv, events, calib_path = self._setup(tmp_path, capsys, "EVT 99.0 BTN 1\n")
        code, _, _ = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        assert code == 3


class TestHelp:
    @pytest.mark.parametrize(
        "command,expected_default",
        [
            ("calibrate-position", "0.005"),
            ("calibrate-orientation", "200"),
            ("identify-frame", "frame"),
            ("evaluate", "0.003"),
            ("snapshot", "0.1"),
        ],
    )
    def test_help_documents_defaults(self, capsys, command, expected_default):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert expected_default in out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["calibrate-position", "x.csv", "--bogus"])
        assert excinfo.value.code != 0


class TestFilterFlagErrors:
    @staticmethod
    def assert_one_line_error(code, out, err, flag):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--radius", "0"), ("--radius", "-1"), ("--radius", "nan"), ("--radius", "inf"),
         ("--min-neighbors", "0"), ("--min-neighbors", "-3")],
    )
    def test_calibrate_position_bad_filter_flag_exit_2(self, tmp_path, capsys, flag, value):
        data_dir, _ = simulate_position(tmp_path, capsys)
        code, out, err = run(capsys, "calibrate-position", str(data_dir / "poses.csv"), flag, value)
        self.assert_one_line_error(code, out, err, flag)

    @pytest.mark.parametrize(
        "flag, value",
        [("--axis-radius", "0"), ("--axis-radius", "-1"), ("--axis-radius", "nan"),
         ("--axis-min-neighbors", "0")],
    )
    def test_calibrate_orientation_bad_filter_flag_exit_2(self, tmp_path, capsys, flag, value):
        position_dir, _ = simulate_position(tmp_path, capsys)
        position_file = tmp_path / "position.json"
        code, _, err = run(
            capsys, "calibrate-position", str(position_dir / "poses.csv"), "-o", str(position_file)
        )
        assert code == 0, err
        orientation_dir, _ = simulate_orientation(tmp_path, capsys)
        code, out, err = run(
            capsys,
            "calibrate-orientation",
            str(orientation_dir / "manifest.json"),
            "--position",
            str(position_file),
            flag,
            value,
        )
        self.assert_one_line_error(code, out, err, flag)


class TestEvaluateUnevenForceTiming:
    def test_unbounded_fft_grid_exit_2(self, tmp_path, capsys):
        demo_dir = simulate_demo(tmp_path, capsys)
        trace = demo_dir / "trace.csv"
        header, *rows = trace.read_text().splitlines()
        # Nanosecond spacing, then one sample a million seconds later: a
        # uniform grid at the median spacing would need 1e15 points.
        fields = [row.split(",") for row in rows]
        for i, row in enumerate(fields):
            row[0] = repr(1e6 if i == len(fields) - 1 else i * 1e-9)
        trace.write_text("\n".join([header] + [",".join(row) for row in fields]) + "\n")
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        code, out, err = run(
            capsys,
            "evaluate",
            str(trace),
            "--frame",
            str(frame_path),
            "--path",
            str(demo_dir / "path.json"),
        )
        assert code == 2, err
        assert err.startswith("error: ") and "per sample" in err


class TestValueFlagErrors:
    """Bad numeric flags exit 2 with one ``error:`` line naming the flag.
    The input files do not exist: the flags must be checked first."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "1"), ("--n", "0"), ("--n", "-5"),
         ("--epsilon", "0"), ("--epsilon", "-1"), ("--epsilon", "nan"), ("--epsilon", "inf"),
         ("--bin-width", "0"), ("--bin-width", "-0.001"), ("--bin-width", "nan"),
         ("--gate", "0"), ("--gate", "-1"), ("--gate", "nan"),
         ("--threshold-ratio", "-1"), ("--threshold-ratio", "nan"), ("--threshold-ratio", "inf")],
    )
    def test_evaluate_bad_flag_exit_2(self, tmp_path, capsys, flag, value):
        code, out, err = run(
            capsys,
            "evaluate",
            str(tmp_path / "missing_trace.csv"),
            "--frame",
            str(tmp_path / "missing_frame.json"),
            "--path",
            str(tmp_path / "missing_path.json"),
            flag,
            value,
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, flag)

    @pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "inf"])
    def test_snapshot_bad_guard_exit_2(self, tmp_path, capsys, value):
        code, out, err = run(
            capsys,
            "snapshot",
            str(tmp_path / "missing_poses.csv"),
            str(tmp_path / "missing_events.txt"),
            "--calibration",
            str(tmp_path / "missing_calibration.json"),
            "--guard",
            value,
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "--guard")

    def test_snapshot_zero_guard_accepted(self, tmp_path, capsys):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "EVT 0.10 BTN 1\n")
        code, _, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path),
            "--guard", "0",
        )
        assert code == 0, err


class TestWarnings:
    def test_snapshot_dropped_row_is_one_warning_line(self, tmp_path, capsys):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "EVT 0.10 BTN 1\n")
        header, *rows = pose_csv.read_text().splitlines()
        fields = rows[50].split(",")
        fields[1] = "nan"
        rows[50] = ",".join(fields)
        pose_csv.write_text("\n".join([header, *rows]) + "\n")
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        assert code == 0, err
        assert len(json.loads(out)["waypoints"]) == 1
        assert err == "warning: dropped 1 pose rows with non-finite values\n"


class TestStartup:
    """Only the calibration solvers need scipy; every other command starts
    without paying for its import."""

    @staticmethod
    def run_python(*args):
        src = os.path.dirname(os.path.dirname(os.path.abspath(styluskit.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )

    def test_import_loads_no_scipy(self):
        proc = self.run_python(
            "-c",
            "import sys, styluskit, styluskit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_help_exits_0(self):
        proc = self.run_python("-m", "styluskit.cli", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "calibrate-position" in proc.stdout

    def test_calibrate_position_loads_no_scipy(self, tmp_path, capsys):
        # The outlier filter runs on the grid alone; only the orientation
        # solve may load scipy.
        data_dir, _ = simulate_position(
            tmp_path, capsys, outlier_rate=0.05, position_noise_std=1e-4
        )
        proc = self.run_python(
            "-c",
            "import sys; from styluskit import cli; "
            f"code = cli.main(['calibrate-position', {str(data_dir / 'poses.csv')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        doc = json.loads("\n".join(proc.stdout.splitlines()[:-1]))
        assert doc["filtered_outliers"] > 0


class TestMalformedInputFiles:
    """A file that is not valid JSON, or not UTF-8 text, is the user's
    mistake: exit 2 with one ``error:`` line, never a traceback."""

    @staticmethod
    def evaluate_files(tmp_path, capsys):
        demo_dir = simulate_demo(tmp_path, capsys)
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        return demo_dir / "trace.csv", frame_path, demo_dir / "path.json"

    def test_identify_frame_bad_json(self, tmp_path, capsys):
        waypoints = tmp_path / "waypoints.json"
        waypoints.write_text('{"waypoints": [\n')
        code, out, err = run(capsys, "identify-frame", str(waypoints))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"{waypoints}: invalid JSON")

    def test_evaluate_bad_frame_json(self, tmp_path, capsys):
        trace, _, path = self.evaluate_files(tmp_path, capsys)
        frame = tmp_path / "bad_frame.json"
        frame.write_text("{label: board}\n")
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"{frame}: invalid JSON")

    def test_evaluate_bad_path_json(self, tmp_path, capsys):
        trace, frame, _ = self.evaluate_files(tmp_path, capsys)
        path = tmp_path / "bad_path.json"
        path.write_text("")
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"{path}: invalid JSON")

    def test_snapshot_bad_calibration_json(self, tmp_path, capsys):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "EVT 0.10 BTN 1\n")
        calib_path.write_text('{"translation": [0.01, -0.02, -0.12],}\n')
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"{calib_path}: invalid JSON")

    def test_non_utf8_pose_csv(self, tmp_path, capsys):
        data_dir, _ = simulate_position(tmp_path, capsys)
        pose_csv = data_dir / "poses.csv"
        pose_csv.write_bytes(pose_csv.read_bytes().replace(b"\n0.", b"\n\xb0.", 1))
        code, out, err = run(capsys, "calibrate-position", str(pose_csv))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "not UTF-8")

    def test_non_utf8_demo_csv(self, tmp_path, capsys):
        trace, frame, path = self.evaluate_files(tmp_path, capsys)
        trace.write_bytes(trace.read_bytes() + b"9.5,0.1,0.1,0,\xff\n")
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "not UTF-8")

    def test_non_utf8_events_file(self, tmp_path, capsys):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "")
        events.write_bytes(b"EVT 0.10 BTN 1\nEVT \xe9 BTN 1\n")
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "not UTF-8")


class TestTraceSniffing:
    def test_demo_csv_after_blank_line_is_read_as_demo(self, tmp_path, capsys):
        trace, frame, path = TestMalformedInputFiles.evaluate_files(tmp_path, capsys)
        code, expected, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        assert code == 0, err
        padded = tmp_path / "padded.csv"
        padded.write_bytes(b"\n" + trace.read_bytes())
        code, out, err = run(
            capsys, "evaluate", str(padded), "--frame", str(frame), "--path", str(path)
        )
        assert code == 0, err
        got, want = json.loads(out), json.loads(expected)
        del got["config"], want["config"]
        assert got == want


class TestCalibrationFlagErrors:
    """Bad angle flags exit 2 naming the flag; the files do not exist, so
    the flags must be checked before any is read."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_calibrate_position_bad_min_rotation(self, tmp_path, capsys, value):
        code, out, err = run(
            capsys, "calibrate-position", str(tmp_path / "missing.csv"),
            f"--min-rotation-deg={value}",
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "--min-rotation-deg")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_calibrate_orientation_bad_initial_roll(self, tmp_path, capsys, value):
        code, out, err = run(
            capsys, "calibrate-orientation", str(tmp_path / "missing_manifest.json"),
            "--position", str(tmp_path / "missing_position.json"),
            f"--initial-roll-deg={value}",
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "--initial-roll-deg")


class TestMaxIterationsFlag:
    """A budget below one iteration is a bad flag, not data that failed to
    converge; the files do not exist, so it is checked before any is read."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_calibrate_orientation_max_iterations_below_one(self, tmp_path, capsys, value):
        code, out, err = run(
            capsys, "calibrate-orientation", str(tmp_path / "missing_manifest.json"),
            "--position", str(tmp_path / "missing_position.json"),
            f"--max-iterations={value}",
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "--max-iterations")


ORIENTATION_CONFIG = {
    "kind": "orientation",
    "seed": 12,
    "true_translation": [0.0, 0.0, -0.12],
    "hole_axes": [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]],
    "poses_per_hole": 20,
}

DEMO_CONFIG = {
    "kind": "demonstration",
    "path": {"waypoints": [[0.0, 0.0], [0.1, 0.0]], "visiting_sequence": [0, 1]},
}


class TestSimulateConfigErrors:
    """A config of the wrong shape exits 2 with one error line, never 1
    with a traceback."""

    @staticmethod
    def simulate(tmp_path, capsys, doc):
        config_path = tmp_path / "config.json"
        write_json(config_path, doc)
        out_dir = str(tmp_path / "out")
        code, out, err = run(capsys, "simulate", str(config_path), "--out-dir", out_dir)
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("doc", [[1, 2], "position", 3, None])
    def test_config_not_an_object(self, tmp_path, capsys, doc):
        assert "JSON object" in self.simulate(tmp_path, capsys, doc)

    @pytest.mark.parametrize("profile", [[1, 2], "sine"])
    def test_force_profile_not_an_object(self, tmp_path, capsys, profile):
        err = self.simulate(tmp_path, capsys, {**DEMO_CONFIG, "force_profile": profile})
        assert "force_profile" in err

    @pytest.mark.parametrize(
        "overrides",
        [{"poses_per_hole": "many"}, {"poses_per_hole": 0}, {"hole_axes": [[1.0, 2.0]]},
         {"hole_axes": "z"}, {"hole_axes": [[0.0, 0.0, 0.0]]}],
    )
    def test_bad_orientation_fields(self, tmp_path, capsys, overrides):
        self.simulate(tmp_path, capsys, {**ORIENTATION_CONFIG, **overrides})

    @pytest.mark.parametrize(
        "overrides",
        [{"speed": "fast"}, {"speed": 0.0}, {"sample_rate": -1.0}, {"lateral_noise_std": -1.0},
         {"seed": [1]}, {"force_profile": {"kind": "sine", "amplitude": "big"}}],
    )
    def test_bad_demonstration_fields(self, tmp_path, capsys, overrides):
        self.simulate(tmp_path, capsys, {**DEMO_CONFIG, **overrides})

    @staticmethod
    def simulate_text(tmp_path, capsys, doc):
        """Like ``simulate``, with NaN and Infinity written as JSON allows them."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out"))
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"position_noise_std": math.nan}, "position_noise_std"),
            ({"position_noise_std": math.inf}, "position_noise_std"),
            ({"orientation_noise_std_deg": math.nan}, "orientation_noise_std"),
            ({"outlier_rate": 0.1, "outlier_magnitude": math.nan}, "outlier_magnitude"),
            ({"pivot_point": [0.0, math.inf, 0.0]}, "pivot_point"),
            ({"rotation_span_deg": math.nan}, "rotation_span"),
            ({"position_noise_std": 1e308}, "not finite"),
            ({"seed": -1}, "bad synthesis config"),
        ],
    )
    def test_non_finite_position_fields(self, tmp_path, capsys, overrides, field):
        doc = {"kind": "position", "sample_count": 50, **overrides}
        assert field in self.simulate_text(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "overrides",
        [{"position_noise_std": math.nan}, {"orientation_noise_std_deg": math.inf},
         {"position_noise_std": 1e308}],
    )
    def test_non_finite_orientation_fields(self, tmp_path, capsys, overrides):
        self.simulate_text(tmp_path, capsys, {**ORIENTATION_CONFIG, **overrides})

    @pytest.mark.parametrize(
        "overrides",
        [{"sample_rate": math.inf}, {"speed": math.nan}, {"lateral_noise_std": math.inf},
         {"speed": 1e-300, "sample_rate": 1e100}],
    )
    def test_non_finite_demonstration_fields(self, tmp_path, capsys, overrides):
        self.simulate_text(tmp_path, capsys, {**DEMO_CONFIG, **overrides})

    @pytest.mark.parametrize("over", [1, 10**13])
    def test_sizes_above_the_cap(self, tmp_path, capsys, over):
        # Each is refused before anything of that size is allocated.
        from styluskit.synth import MAX_SYNTH_SAMPLES

        docs = [
            {"kind": "position", "sample_count": MAX_SYNTH_SAMPLES + over},
            {**ORIENTATION_CONFIG, "poses_per_hole": MAX_SYNTH_SAMPLES + over},
            {**ORIENTATION_CONFIG, "poses_per_hole": (MAX_SYNTH_SAMPLES + over) // 2 + 1},
            {**DEMO_CONFIG, "speed": 0.1, "sample_rate": (MAX_SYNTH_SAMPLES + over) * 1.0},
        ]
        for doc in docs:
            err = self.simulate_text(tmp_path, capsys, doc)
            assert f"at most {MAX_SYNTH_SAMPLES}" in err

    def test_valid_orientation_config_still_runs(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_json(config_path, ORIENTATION_CONFIG)
        code, _, err = run(capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out"))
        assert code == 0, err


class TestNoPerSampleObjects:
    """snapshot and evaluate work on whole arrays.  The only poses and
    records they build are the captured waypoints and the transforms they
    load: the calibration, the frame and its inverse for each trace."""

    @staticmethod
    def count_constructions(monkeypatch) -> dict:
        from styluskit.geometry import TipPoseRecord
        from styluskit.ingest import TimedPose

        counts = {"n": 0}

        def counting(original):
            def wrapper(*args, **kwargs):
                counts["n"] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Pose, "__post_init__", counting(Pose.__post_init__))
        monkeypatch.setattr(TipPoseRecord, "__post_init__", counting(TipPoseRecord.__post_init__))
        monkeypatch.setattr(TimedPose, "__new__", staticmethod(counting(TimedPose.__new__)))
        return counts

    def test_snapshot_and_evaluate(self, tmp_path, capsys, monkeypatch):
        data_dir, _ = simulate_position(tmp_path, capsys, sample_count=2500)
        calib_path = tmp_path / "calibration.json"
        write_json(
            calib_path,
            {
                "translation": [0.01, -0.02, -0.12],
                "rotation_quat": [0.0, 0.0, 0.0, 1.0],
                "position_residual_rms": 0.0,
                "orientation_residual_rms": 0.0,
                "filtered_outliers": 0,
            },
        )
        events_path = tmp_path / "events.txt"
        events_path.write_text("EVT 1.0 BTN 1\nEVT 5.5 BTN 1\nEVT 20.0 BTN 1\nEVT 24.0 BTN 1\n")
        waypoints = 4

        demo_dir = simulate_demo(tmp_path, capsys, sample_rate=1000.0)
        demo = np.loadtxt(demo_dir / "trace.csv", delimiter=",", skiprows=1)
        pose_trace = tmp_path / "pose_trace.csv"
        rows = np.column_stack([demo[:, :4], np.zeros((len(demo), 3)), np.ones(len(demo))])
        np.savetxt(pose_trace, rows, delimiter=",", header="t,x,y,z,qx,qy,qz,qw", comments="")
        assert len(demo) >= 2000
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)

        counts = self.count_constructions(monkeypatch)
        code, out, err = run(
            capsys, "snapshot", str(data_dir / "poses.csv"), str(events_path),
            "--calibration", str(calib_path),
        )
        assert code == 0, err
        assert len(json.loads(out)["waypoints"]) == waypoints
        assert counts["n"] <= waypoints + 1

        counts["n"] = 0
        traces = [str(demo_dir / "trace.csv"), str(pose_trace)]
        code, out, err = run(
            capsys, "evaluate", *traces, "--frame", str(frame_path),
            "--path", str(demo_dir / "path.json"),
        )
        assert code == 0, err
        assert json.loads(out)["epsilon_fraction"] == 1.0
        assert counts["n"] <= 1 + len(traces)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "position", "sample_count": 2000, "position_noise_std": 1e-4,
             "orientation_noise_std_deg": 0.1, "outlier_rate": 0.05},
            {**ORIENTATION_CONFIG, "poses_per_hole": 1000, "position_noise_std": 1e-4,
             "orientation_noise_std_deg": 0.1},
        ],
        ids=["position", "orientation"],
    )
    def test_simulate(self, tmp_path, capsys, monkeypatch, doc):
        # The only Pose built is the configured true calibration.
        config_path = tmp_path / "config.json"
        write_json(config_path, doc)
        counts = self.count_constructions(monkeypatch)
        code, _, err = run(capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out"))
        assert code == 0, err
        assert counts["n"] <= 2


class TestOrientationInputErrors:
    """A bad hole axis or a bad position translation is the user's mistake:
    exit 2 with one ``error:`` line, never 1 with a traceback."""

    @staticmethod
    def files(tmp_path, capsys):
        position_dir, _ = simulate_position(tmp_path, capsys)
        position_file = tmp_path / "position.json"
        code, _, err = run(
            capsys, "calibrate-position", str(position_dir / "poses.csv"), "-o", str(position_file)
        )
        assert code == 0, err
        orientation_dir, _ = simulate_orientation(
            tmp_path,
            capsys,
            hole_axes=[[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.6, 0.0, 0.8]],
        )
        return orientation_dir / "manifest.json", position_file

    @pytest.mark.parametrize("axis", [[1, 0], [0, 0, 0], [0, 0, "nan"]])
    def test_bad_reference_axis_exit_2(self, tmp_path, capsys, axis):
        manifest, position = self.files(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        doc["holes"][1]["reference_axis"] = axis
        write_json(manifest, doc)
        code, out, err = run(
            capsys, "calibrate-orientation", str(manifest), "--position", str(position)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "hole 1")

    @pytest.mark.parametrize(
        "field, value",
        [("translation", [0.01, -0.02]), ("translation", [math.nan, 0.0, -0.12]),
         ("position_residual_rms", math.inf)],
    )
    def test_bad_position_file_exit_2(self, tmp_path, capsys, field, value):
        manifest, position = self.files(tmp_path, capsys)
        doc = json.loads(position.read_text())
        doc[field] = value
        position.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "calibrate-orientation", str(manifest), "--position", str(position)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, str(position))


class TestEvaluateBounds:
    """Flag values that would need an unbounded allocation exit 2."""

    def evaluate(self, tmp_path, capsys, *flags):
        demo_dir = simulate_demo(tmp_path, capsys, lateral_noise_std=0.001)
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        return run(
            capsys,
            "evaluate",
            str(demo_dir / "trace.csv"),
            "--frame",
            str(frame_path),
            "--path",
            str(demo_dir / "path.json"),
            *flags,
        )

    @pytest.mark.parametrize("value", ["1e-12", "1e-300", "5e-324"])
    def test_tiny_bin_width_exit_2(self, tmp_path, capsys, value):
        code, out, err = self.evaluate(tmp_path, capsys, "--bin-width", value)
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "bins")

    def test_too_many_targets_exit_2_before_reading(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            "evaluate",
            str(tmp_path / "missing_trace.csv"),
            "--frame",
            str(tmp_path / "missing_frame.json"),
            "--path",
            str(tmp_path / "missing_path.json"),
            "--n",
            "10000000000",
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "--n")

    def test_largest_bounds_accepted(self, tmp_path, capsys):
        code, out, err = self.evaluate(
            tmp_path, capsys, "--n", "100000", "--bin-width", "1e-7"
        )
        assert code == 0, err
