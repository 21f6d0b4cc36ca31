from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        from oracles import quat_angle

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
        assert len(rec) == 400

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
            ("calibrate-orientation", "0.02"),
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
         ("--radius", "1e-200"), ("--min-neighbors", "0"), ("--min-neighbors", "-3")],
    )
    def test_calibrate_position_bad_filter_flag_exit_2(self, tmp_path, capsys, flag, value):
        data_dir, _ = simulate_position(tmp_path, capsys)
        code, out, err = run(capsys, "calibrate-position", str(data_dir / "poses.csv"), flag, value)
        self.assert_one_line_error(code, out, err, flag)

    @pytest.mark.parametrize(
        "flag, value", [("--radius", "0"), ("--radius", "inf"), ("--min-neighbors", "-5")]
    )
    def test_no_filter_checks_filter_flags_before_reading(self, tmp_path, capsys, flag, value):
        # The position file echoes both flags, so --no-filter checks them too,
        # and before any file is read: the pose CSV named here does not exist.
        output = tmp_path / "pos.json"
        code, out, err = run(capsys, "calibrate-position", str(tmp_path / "missing.csv"),
                             "--no-filter", flag, value, "-o", str(output))
        self.assert_one_line_error(code, out, err, flag)
        assert not output.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--axis-radius", "0"), ("--axis-radius", "-1"), ("--axis-radius", "nan"),
         ("--axis-radius", "1e-200"), ("--axis-min-neighbors", "0")],
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
    """No command loads scipy: the outlier filter runs on the grid and the
    axis solve is closed-form, both on numpy alone."""

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

    def test_calibrate_orientation_loads_no_scipy(self, tmp_path, capsys):
        manifest, position = TestOrientationInputErrors.files(tmp_path, capsys)
        proc = self.run_python(
            "-c",
            "import sys; from styluskit import cli; "
            f"code = cli.main(['calibrate-orientation', {str(manifest)!r}, "
            f"'--position', {str(position)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        doc = json.loads("\n".join(proc.stdout.splitlines()[:-1]))
        assert doc["orientation_residual_rms"] < 1e-9


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

    def test_non_utf8_path_json(self, tmp_path, capsys):
        trace, frame, _ = self.evaluate_files(tmp_path, capsys)
        path = tmp_path / "latin1_path.json"
        path.write_bytes(b'{"waypoints": "\xff"}\n')
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"{path}: not UTF-8 text")


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
            ({"sample_count": math.inf}, "bad synthesis config"),
            ({"seed": math.inf}, "bad synthesis config"),
            ({"sample_count": 10**400}, "sample_count"),
        ],
    )
    def test_non_finite_position_fields(self, tmp_path, capsys, overrides, field):
        doc = {"kind": "position", "sample_count": 50, **overrides}
        assert field in self.simulate_text(tmp_path, capsys, doc)

    @pytest.mark.parametrize(
        "overrides",
        [{"position_noise_std": math.nan}, {"orientation_noise_std_deg": math.inf},
         {"position_noise_std": 1e308}, {"poses_per_hole": math.inf},
         {"poses_per_hole": 10**400}, {"hole_axes": [[1e308, 0.6, 0.8]]}],
    )
    def test_non_finite_orientation_fields(self, tmp_path, capsys, overrides):
        self.simulate_text(tmp_path, capsys, {**ORIENTATION_CONFIG, **overrides})

    @pytest.mark.parametrize(
        "overrides",
        [{"sample_rate": math.inf}, {"speed": math.nan}, {"lateral_noise_std": math.inf},
         {"speed": 1e-300, "sample_rate": 1e100}, {"seed": math.inf},
         {"lateral_noise_std": 1e308}, {"force_profile": {"kind": "sine", "frequency_hz": 1e308}},
         {"sample_rate": 5e-324}],
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
    """snapshot and evaluate work on whole arrays.  The only poses they
    build are the transforms they load: the calibration, the frame and its
    inverse for each trace."""

    @staticmethod
    def count_constructions(monkeypatch) -> dict:
        counts = {"n": 0}

        def counting(original):
            def wrapper(*args, **kwargs):
                counts["n"] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Pose, "__init__", counting(Pose.__init__))
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
        assert counts["n"] <= 1

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

    @pytest.mark.parametrize("axis", [[1, 0], [0, 0, 0], [0, 0, "nan"], [0, 0, 1e308]])
    def test_bad_reference_axis_exit_2(self, tmp_path, capsys, axis):
        manifest, position = self.files(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        doc["holes"][1]["reference_axis"] = axis
        write_json(manifest, doc)
        code, out, err = run(
            capsys, "calibrate-orientation", str(manifest), "--position", str(position)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "hole 1")

    def test_no_holes_exit_2(self, tmp_path, capsys):
        manifest, position = tmp_path / "manifest.json", tmp_path / "position.json"
        write_json(manifest, {"holes": []})
        write_json(position, {"translation": [0, 0, 0], "position_residual_rms": 0.0})
        code, out, err = run(
            capsys, "calibrate-orientation", str(manifest), "--position", str(position)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, str(manifest))

    @pytest.mark.parametrize(
        "field, value",
        [("translation", [0.01, -0.02]), ("translation", [math.nan, 0.0, -0.12]),
         ("position_residual_rms", math.inf), ("filtered_outliers", math.inf),
         ("filtered_outliers", -1)],
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


def test_opposite_holes_recorded_with_the_same_poses_exit_3(tmp_path, capsys):
    # Reference axes +z and -z over one recording: the measured axes cancel
    # out, so no alignment target is left (NoConvergence).
    orientation_dir, _ = simulate_orientation(tmp_path, capsys)
    manifest = orientation_dir / "manifest.json"
    write_json(manifest, {"holes": [
        {"reference_axis": [0, 0, 1], "recording": "hole_00.csv"},
        {"reference_axis": [0, 0, -1], "recording": "hole_00.csv"},
    ]})
    position = tmp_path / "position.json"
    write_json(position, {"translation": [0.01, -0.02, -0.12], "position_residual_rms": 0.0})
    code, out, err = run(
        capsys, "calibrate-orientation", str(manifest), "--position", str(position)
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "measured axes cancel out" in err and "Traceback" not in err


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


class TestEvaluateStatisticsOverflow:
    """Two traces 1e200 m off the line on opposite sides: the spread of their
    errors overflows.  No numpy warning reaches the user."""

    def evaluate(self, tmp_path, capsys, *flags):
        traces = []
        for name, y in (("a.csv", 1e200), ("b.csv", -1e200)):
            rows = [f"{i * 0.01!r},{i * 0.0025!r},{y if 10 <= i <= 30 else 0.0!r},0.0,1.0"
                    for i in range(41)]
            (tmp_path / name).write_text("t,x,y,z,Fz\n" + "\n".join(rows) + "\n")
            traces.append(str(tmp_path / name))
        write_json(tmp_path / "frame.json", IDENTITY_FRAME)
        write_json(tmp_path / "path.json", {"waypoints": [[0.0, 0.0], [0.1, 0.0]],
                                            "visiting_sequence": [0, 1]})
        return run(capsys, "evaluate", *traces, "--frame", str(tmp_path / "frame.json"),
                   "--path", str(tmp_path / "path.json"), "--in-frame", "--bin-width", "1e300",
                   *flags)

    def test_report_with_an_infinite_spread_is_refused(self, tmp_path, capsys):
        code, out, err = self.evaluate(tmp_path, capsys, "--out-dir", str(tmp_path / "report"))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "segments[0].std[23]")
        assert not (tmp_path / "report").exists()

    def test_summary_without_report_has_no_warning(self, tmp_path, capsys):
        code, out, err = self.evaluate(tmp_path, capsys)
        assert code == 0 and err == ""
        json.loads(out, parse_constant=lambda c: pytest.fail(f"stdout holds {c}"))


class TestNonFinitePressTime:
    """A press time that is not finite is an input error (exit 2), never a
    silent capture of the last pose (NaN) or a degenerate-data exit."""

    @pytest.mark.parametrize("stamp", ["nan", "inf", "1e400"])
    def test_exit_2_one_error_line(self, tmp_path, capsys, stamp):
        pose_csv, events, calib_path = TestSnapshot()._setup(
            tmp_path, capsys, f"EVT 0.10 BTN 1\nEVT {stamp} BTN 1\n"
        )
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: line 2: event timestamp '{stamp}' is not finite"]

    def test_span_message_names_plain_floats(self, tmp_path, capsys):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "EVT 99.0 BTN 1\n")
        code, _, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        assert code == 3
        assert "outside the recording span [0.0, " in err
        assert "np.float64" not in err


class TestDemonstrationStartup:
    def test_simulate_demonstration_loads_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call; the demonstration
        # generator sorts and compares neighbours itself.
        config_path = tmp_path / "demo_config.json"
        write_json(config_path, {**DEMO_CONFIG, "seed": 5})
        proc = TestStartup.run_python(
            "-c",
            "import sys; from styluskit import cli; "
            f"code = cli.main(['simulate', {str(config_path)!r}, "
            f"'--out-dir', {str(tmp_path / 'out')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


class TestBadWaypointDocuments:
    """A waypoint list or an ideal path that cannot describe real points is
    an input error: exit 2 with one ``error:`` line, never a traceback, a
    NaN distance or a silently truncated index."""

    @pytest.mark.parametrize(
        "field, values",
        [
            ("t", [2.0, 1.0, 3.0]),
            ("t", [0.0, math.nan, 2.0]),
            ("position", [[1, 0, 0], [math.nan, 0, 0], [0, 1, 0]]),
            ("orientation_quat", [[0, 0, 0, 1], [0, 0, 0, math.inf], [0, 0, 0, 1]]),
        ],
    )
    def test_identify_frame_exit_2(self, tmp_path, capsys, field, values):
        doc = {
            "waypoints": [
                {"t": float(i), "position": p, "orientation_quat": [0, 0, 0, 1]}
                for i, p in enumerate([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
            ]
        }
        for waypoint, value in zip(doc["waypoints"], values):
            waypoint[field] = value
        path = tmp_path / "waypoints.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
        code, out, err = run(capsys, "identify-frame", str(path))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "bad waypoint list document")

    @pytest.mark.parametrize(
        "faults, expected_code, text",
        [
            ([(1, "position", [1.0, 0.0]), (2, "orientation_quat", [0, 0, 0, 0])], 2,
             "bad waypoint list document: expected a 3-vector"),
            ([(0, "orientation_quat", [0, 0, 0, 0]), (1, "position", [1.0, 0.0])], 3,
             "zero norm"),
            ([(0, "orientation_quat", [0, 0, 0, 0]), (2, "orientation_quat", [0, 0, 1])], 3,
             "zero norm"),
            ([(1, "orientation_quat", [0, 0, 1]), (2, "orientation_quat", [0, 0, 0, 0])], 2,
             "bad waypoint list document: expected a quaternion"),
            ([(1, "orientation_quat", [0, 0, 0, 0]), (1, "position", [1.0, 0.0])], 2,
             "bad waypoint list document: expected a 3-vector"),
        ],
    )
    def test_first_faulty_waypoint_decides_the_error(
        self, tmp_path, capsys, faults, expected_code, text
    ):
        doc = {
            "waypoints": [
                {"t": float(i), "position": p, "orientation_quat": [0, 0, 0, 1]}
                for i, p in enumerate([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
            ]
        }
        for index, field, value in faults:
            doc["waypoints"][index][field] = value
        path = tmp_path / "waypoints.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "identify-frame", str(path))
        assert (code, out) == (expected_code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert text in err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_evaluate_frame_with_non_finite_probe_points_exit_2(self, tmp_path, capsys, bad):
        trace, frame, path = TestMalformedInputFiles.evaluate_files(tmp_path, capsys)
        probes = [[0.1, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.1, 0.0]]
        frame.write_text(json.dumps({**IDENTITY_FRAME, "probe_points": probes}))
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(
            code, out, err, "bad drawing frame document: probe points must be finite"
        )

    L_WAYPOINTS = [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]]
    BAD_PATHS = [
        {"waypoints": [[0.0, 0.0], [math.nan, 0.0], [0.1, 0.1]], "visiting_sequence": [0, 1, 2]},
        {"waypoints": L_WAYPOINTS, "visiting_sequence": [0, 1.5, 2]},
        {"waypoints": L_WAYPOINTS, "visiting_sequence": [0, 1, math.inf]},
        {"waypoints": L_WAYPOINTS, "visiting_sequence": [0, 1, 10**400]},  # no float holds it
    ]

    @pytest.mark.parametrize("bad", BAD_PATHS)
    def test_evaluate_exit_2(self, tmp_path, capsys, bad):
        trace, frame, _ = TestMalformedInputFiles.evaluate_files(tmp_path, capsys)
        path = tmp_path / "bad_path.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "bad ideal path document")

    @pytest.mark.parametrize("bad", BAD_PATHS)
    def test_simulate_exit_2(self, tmp_path, capsys, bad):
        config_path = tmp_path / "demo_config.json"
        config_path.write_text(json.dumps({**DEMO_CONFIG, "path": bad}))
        code, out, err = run(
            capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out")
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "bad ideal path document")

    def test_integral_float_indices_still_work(self, tmp_path, capsys):
        trace, frame, path = TestMalformedInputFiles.evaluate_files(tmp_path, capsys)
        code, expected, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        assert code == 0, err
        doc = json.loads(path.read_text())
        doc["visiting_sequence"] = [float(i) for i in doc["visiting_sequence"]]
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        assert code == 0, err
        assert out == expected


class TestJsonCounts:
    """A count or a seed read from JSON is a number with an integral value.
    ``2.7``, ``true`` and ``"3"`` exit 2 with one error line naming the
    field instead of being truncated or converted by ``int()``; ``3.0``
    reads as ``3``."""

    BAD = [2.7, True, "3"]
    SIMULATE_FIELDS = [
        pytest.param({"kind": "position", "sample_count": 40}, field, id=f"position-{field}")
        for field in ("sample_count", "seed")
    ] + [
        pytest.param(ORIENTATION_CONFIG, "poses_per_hole", id="orientation-poses_per_hole"),
        pytest.param(ORIENTATION_CONFIG, "seed", id="orientation-seed"),
        pytest.param(DEMO_CONFIG, "seed", id="demonstration-seed"),
    ]

    @staticmethod
    def simulate(tmp_path, capsys, doc, name):
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / name
        code, out, err = run(capsys, "simulate", str(config_path), "--out-dir", str(out_dir))
        return code, out, err, out_dir

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("base, field", SIMULATE_FIELDS)
    def test_simulate_config_exit_2(self, tmp_path, capsys, base, field, value):
        code, out, err, _ = self.simulate(tmp_path, capsys, {**base, field: value}, "bad")
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"{field} must be an integer")

    def test_integer_beyond_the_digit_limit_exit_2(self, tmp_path, capsys):
        # Python refuses to convert an integer literal of more than 4300
        # digits, inside json.load; the file is named, with no traceback.
        config_path = tmp_path / "long.json"
        config_path.write_text('{"kind": "position", "sample_count": ' + "1" * 5000 + "}")
        code, out, err = run(
            capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out")
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, str(config_path))

    @pytest.mark.parametrize("base, field", SIMULATE_FIELDS)
    def test_simulate_integral_float_reads_as_int(self, tmp_path, capsys, base, field):
        written = []
        for name, value in (("int", 3), ("float", 3.0)):
            code, _, err, out_dir = self.simulate(tmp_path, capsys, {**base, field: value}, name)
            assert code == 0, err
            # truth.json echoes the config as written, so it is left out.
            files = sorted(p for p in out_dir.iterdir() if p.name != "truth.json")
            written.append({p.name: p.read_bytes() for p in files})
        assert written[0] == written[1]

    @pytest.mark.parametrize("value", [*BAD, 3.0])
    def test_calibrate_orientation_position_file(self, tmp_path, capsys, value):
        manifest, position = TestOrientationInputErrors.files(tmp_path, capsys)
        doc = json.loads(position.read_text())
        removed = doc["filtered_outliers"]
        doc["filtered_outliers"] = value
        position.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "calibrate-orientation", str(manifest), "--position", str(position)
        )
        if value == 3.0:
            assert code == 0, err
            assert json.loads(out)["filtered_outliers"] == removed + 3
        else:
            TestFilterFlagErrors.assert_one_line_error(
                code, out, err, f"{position}: filtered_outliers must be an integer"
            )

    @pytest.mark.parametrize("value", [*BAD, 3.0])
    def test_snapshot_calibration_file(self, tmp_path, capsys, value):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "EVT 0.10 BTN 1\n")
        doc = json.loads(calib_path.read_text())
        doc["filtered_outliers"] = value
        calib_path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        if value == 3.0:
            assert code == 0, err
        else:
            TestFilterFlagErrors.assert_one_line_error(
                code, out, err, "filtered_outliers must be an integer"
            )

    # Each entry that is not a JSON integer stands where ``int()`` would
    # have read it as a valid index, so the path is otherwise sound.
    SEQUENCES = [pytest.param([0, True, 2], id="true"), pytest.param(["0", 1, 2], id="string")]

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_evaluate_path_visiting_sequence(self, tmp_path, capsys, sequence):
        demo_dir = simulate_demo(tmp_path, capsys)
        frame_path = tmp_path / "frame.json"
        write_json(frame_path, IDENTITY_FRAME)
        doc = json.loads((demo_dir / "path.json").read_text())
        doc["visiting_sequence"] = sequence
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys,
            "evaluate",
            str(demo_dir / "trace.csv"),
            "--frame",
            str(frame_path),
            "--path",
            str(path),
        )
        TestFilterFlagErrors.assert_one_line_error(
            code, out, err, "visiting_sequence must be an integer"
        )

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_simulate_demonstration_visiting_sequence(self, tmp_path, capsys, sequence):
        path = {"waypoints": [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]], "visiting_sequence": sequence}
        code, out, err, _ = self.simulate(tmp_path, capsys, {**DEMO_CONFIG, "path": path}, "bad")
        TestFilterFlagErrors.assert_one_line_error(
            code, out, err, "visiting_sequence must be an integer"
        )


class TestJsonNumbers:
    """Every number field of a JSON input takes a JSON number only.  A
    string, a bool or null in its place exits 2 with one error line naming
    the field; ``float()`` used to read ``"0.1"`` and ``true`` as numbers
    and exit 0.  Each edited value below is one the command would run on
    as a number, so only its JSON type is wrong."""

    @staticmethod
    def command(d, doc: str, path) -> list[str]:
        """The command that reads ``path`` in place of ``d / doc``."""
        trace, tip = d / "demo" / "trace.csv", d / "tip.json"
        argv = {
            "calibration.json": ["snapshot", d / "pos" / "poses.csv", d / "events.txt",
                                 "--calibration", path],
            "tip.json": ["calibrate-orientation", d / "manifest.json", "--position", path],
            "manifest.json": ["calibrate-orientation", path, "--position", tip],
            "frame.json": ["evaluate", trace, "--frame", path, "--path", d / "path.json"],
            "path.json": ["evaluate", trace, "--frame", d / "frame.json", "--path", path],
            "waypoints.json": ["identify-frame", path],
        }.get(doc, ["simulate", path, "--out-dir", path.parent / f"{path.stem}_out"])
        return [str(a) for a in argv]

    # (document, where the value sits in it, the field its error names)
    FIELDS = [
        ("calibration.json", ["translation", 0], "translation"),
        ("calibration.json", ["rotation_quat", 3], "rotation_quat"),
        ("calibration.json", ["position_residual_rms"], "position_residual_rms"),
        ("calibration.json", ["orientation_residual_rms"], "orientation_residual_rms"),
        ("tip.json", ["translation", 0], "translation"),
        ("tip.json", ["position_residual_rms"], "position_residual_rms"),
        ("manifest.json", ["holes", 0, "reference_axis", 2], "hole 0: reference_axis"),
        ("frame.json", ["translation", 2], "translation"),
        ("frame.json", ["rotation_quat", 3], "rotation_quat"),
        ("frame.json", ["probe_points", 0, 0], "probe_points"),
        ("path.json", ["waypoints", 2, 0], "waypoints"),
        ("waypoints.json", ["waypoints", 1, "t"], "t must be"),
        ("waypoints.json", ["waypoints", 0, "position", 2], "position"),
        ("waypoints.json", ["waypoints", 1, "orientation_quat", 3], "orientation_quat"),
        ("sim_position.json", ["true_translation", 0], "true_translation"),
        ("sim_position.json", ["true_rotation_ypr_deg", 0], "true_rotation_ypr_deg"),
        ("sim_position.json", ["pivot_point", 0], "pivot_point"),
        ("sim_position.json", ["rotation_span_deg"], "rotation_span_deg"),
        ("sim_position.json", ["position_noise_std"], "position_noise_std"),
        ("sim_position.json", ["orientation_noise_std_deg"], "orientation_noise_std_deg"),
        ("sim_position.json", ["outlier_rate"], "outlier_rate"),
        ("sim_position.json", ["outlier_magnitude"], "outlier_magnitude"),
        ("sim_orientation.json", ["true_translation", 2], "true_translation"),
        ("sim_orientation.json", ["true_rotation_ypr_deg", 1], "true_rotation_ypr_deg"),
        ("sim_orientation.json", ["hole_axes", 1, 0], "hole_axes"),
        ("sim_orientation.json", ["position_noise_std"], "position_noise_std"),
        ("sim_sine.json", ["lateral_noise_std"], "lateral_noise_std"),
        ("sim_sine.json", ["speed"], "speed"),
        ("sim_sine.json", ["sample_rate"], "sample_rate"),
        ("sim_sine.json", ["path", "waypoints", 2, 1], "waypoints"),
        ("sim_sine.json", ["force_profile", "frequency_hz"], "frequency_hz"),
        ("sim_sine.json", ["force_profile", "amplitude"], "amplitude"),
        ("sim_sine.json", ["force_profile", "offset"], "offset"),
        ("sim_constant.json", ["force_profile", "value"], "value"),
    ]
    CASES = [
        pytest.param(doc, keys, name, value, id=f"{doc[:-5]}-{'.'.join(map(str, keys))}-{value}")
        for doc, keys, name in FIELDS
        for value in ("0.1", True, None)
        # An outlier rate of 1 is out of range whatever its JSON type.
        if (keys, value) != (["outlier_rate"], True)
    ]

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """One valid document of each kind, and the files the commands read."""
        d = tmp_path_factory.mktemp("json_numbers")

        def simulate(name, doc):
            write_json(d / name, doc)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", str(d / name), "--out-dir", str(d / name[:-5])]) == 0

        path = {"waypoints": [[0.0, 0.0], [0.1, 0.0], [0.5, 0.5]], "visiting_sequence": [0, 1]}
        simulate("sim_position.json", {
            "kind": "position", "seed": 3, "sample_count": 200,
            "true_translation": [0.0, 0.0, -0.12], "true_rotation_ypr_deg": [0.0, 0.0, 0.0],
            "pivot_point": [0.0, 0.0, 0.0], "rotation_span_deg": 120.0,
            "position_noise_std": 0.0, "orientation_noise_std_deg": 0.0,
            "outlier_rate": 0.0, "outlier_magnitude": 0.1,
        })
        simulate("sim_orientation.json", {
            **ORIENTATION_CONFIG, "true_rotation_ypr_deg": [0.0, 0.0, 0.0],
            "position_noise_std": 0.0,
        })
        simulate("sim_sine.json", {
            "kind": "demonstration", "seed": 5, "path": path, "lateral_noise_std": 0.0,
            "speed": 0.05, "sample_rate": 200.0,
            "force_profile": {"kind": "sine", "frequency_hz": 5.0, "amplitude": 1.0, "offset": 2.0},
        })
        simulate("sim_constant.json", {**DEMO_CONFIG, "force_profile": {"value": 2.0}})
        (d / "pos").symlink_to(d / "sim_position")
        (d / "demo").symlink_to(d / "sim_sine")
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["calibrate-position", d / "pos" / "poses.csv", "-o", d / "tip.json"]
            assert main([str(a) for a in argv]) == 0
        manifest = json.loads((d / "sim_orientation" / "manifest.json").read_text())
        for hole in manifest["holes"]:
            hole["recording"] = str(d / "sim_orientation" / hole["recording"])
        write_json(d / "manifest.json", manifest)
        write_json(d / "calibration.json", {
            "translation": [0.0, 0.0, -0.12], "rotation_quat": [0.0, 0.0, 0.0, 1.0],
            "position_residual_rms": 0.0, "orientation_residual_rms": 0.0, "filtered_outliers": 0,
        })
        (d / "events.txt").write_text("EVT 0.10 BTN 1\n")
        write_json(d / "frame.json", IDENTITY_FRAME)
        write_json(d / "path.json", path)
        write_json(d / "waypoints.json", {"waypoints": [
            {"t": t, "position": p, "orientation_quat": [0.0, 0.0, 0.0, 1.0]}
            for t, p in zip([0.0, 0.5, 2.0], IDENTITY_FRAME["probe_points"])
        ]})
        return d

    @pytest.mark.parametrize("doc, keys, name, value", CASES)
    def test_non_number_exit_2(self, inputs, tmp_path, capsys, doc, keys, name, value):
        edited = json.loads((inputs / doc).read_text())
        target = edited
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        bad = tmp_path / doc
        bad.write_text(json.dumps(edited))
        code, out, err = run(capsys, *self.command(inputs, doc, bad))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, name)

    @pytest.mark.parametrize("doc", ["calibration.json", "tip.json", "manifest.json", "frame.json",
                                     "path.json", "waypoints.json", "sim_position.json"])
    def test_the_documents_are_valid(self, inputs, capsys, doc):
        code, _, err = run(capsys, *self.command(inputs, doc, inputs / doc))
        assert code == 0, err

    # North star 3: no JSON input exits 1.  Each example replaces or deletes
    # one or two fields of a valid document, anywhere in it, with values
    # from a fixed pool that holds no large valid size, so each command
    # stays small.
    MUTANTS = [None, True, False, "", "0.1", [], {}, [[0.0, [1.0]], []], 0, -1, 10**30,
               10**400, 2**63, 1e308, -1e308, math.nan, math.inf, -math.inf]

    @staticmethod
    def key_paths(node, prefix=()):
        """The key path of every value below ``node``."""
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return
        for key, value in items:
            yield prefix + (key,)
            yield from TestJsonNumbers.key_paths(value, prefix + (key,))

    @settings(max_examples=200, deadline=None)
    @given(
        doc=st.sampled_from(["calibration.json", "tip.json", "manifest.json", "frame.json",
                             "path.json", "waypoints.json", "sim_position.json",
                             "sim_orientation.json", "sim_sine.json"]),
        data=st.data(),
    )
    def test_no_edited_document_exits_1(self, inputs, doc, data):
        edited = json.loads((inputs / doc).read_text())
        for _ in range(data.draw(st.integers(1, 2))):
            paths = list(self.key_paths(edited))
            if not paths:  # the first edit deleted the only field
                break
            *keys, last = data.draw(st.sampled_from(paths))
            target = edited
            for key in keys:
                target = target[key]
            if data.draw(st.booleans()):
                del target[last]
            else:
                target[last] = copy.deepcopy(data.draw(st.sampled_from(self.MUTANTS)))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            bad = pathlib.Path(tmp) / doc
            bad.write_text(json.dumps(edited))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(self.command(inputs, doc, bad))
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("value", ['"1"', "true"])
    def test_json_lines_pose_row(self, value):
        from styluskit.errors import FormatError
        from styluskit.ingest import parse_pose_csv

        rows = [
            '{"t": 0.0, "x": 0, "y": 0, "z": 0, "qx": 0, "qy": 0, "qz": 0, "qw": 1}',
            f'{{"t": {value}, "x": 0, "y": 0, "z": 0, "qx": 0, "qy": 0, "qz": 0, "qw": 1}}',
        ]
        with pytest.raises(FormatError, match="bad JSON-lines pose record") as excinfo:
            parse_pose_csv(io.StringIO("\n".join(rows) + "\n"))
        assert excinfo.value.line == 2

    # Finite in, finite out (ROADMAP item 4): extreme numbers in every JSON
    # field and CSV column above either exit 0 with no warning and outputs
    # that every reader takes, or exit 2 or 3 with one error line.
    CSV_EXTREMES = [1e308, -1e308, 5e-324, -0.0, 1e-320]
    CSV_COLUMNS = [
        (command, column)
        for command, header in [("calibrate-position", "t,x,y,z,qx,qy,qz,qw"),
                                ("snapshot", "t,x,y,z,qx,qy,qz,qw"), ("evaluate", "t,x,y,z,Fz")]
        for column in header.split(",")
    ]

    @staticmethod
    def assert_finite_outcome(code, out, err, tmp_path, skip=()):
        """The sweep's rule: exit 2 or 3 with exactly one ``error:`` line, or
        exit 0 with no ``warning:`` line, stdout and every JSON file under
        ``tmp_path`` (but ``skip``) free of non-finite constants and every
        CSV number finite, but the NaN of a target no trace reached."""
        lines = err.splitlines()
        if code != 0:
            assert code in (2, 3) and len(lines) == 1 and lines[0].startswith("error: "), err
            return
        assert not [line for line in lines if line.startswith("warning:")], err

        def reject(constant):
            raise AssertionError(f"non-finite JSON constant {constant}")

        json.loads(out, parse_constant=reject)
        for path in sorted(set(tmp_path.rglob("*.*")) - set(skip)):
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=reject)
            elif path.suffix == ".csv":
                for row in path.read_text().splitlines()[1:]:
                    numbers = row.split(",")[1:] if path.name == "segments.csv" else row.split(",")
                    values = np.array(numbers, dtype=float)
                    finite = np.isfinite(values) | (np.isnan(values) & (path.name == "segments.csv"))
                    assert finite.all(), (path.name, row)

    @pytest.mark.parametrize(
        "doc, keys, value",
        [pytest.param(doc, keys, value, id=f"{doc[:-5]}-{'.'.join(map(str, keys))}-{value}")
         for doc, keys, _ in FIELDS
         for value in (1e308, -1e308, 5e-324, -0.0, 10**400, math.inf, -math.inf, math.nan)],
    )
    def test_extreme_json_number(self, inputs, tmp_path, capsys, doc, keys, value):
        edited = json.loads((inputs / doc).read_text())
        target = edited
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        bad = tmp_path / doc
        bad.write_text(json.dumps(edited))
        code, out, err = run(capsys, *self.command(inputs, doc, bad))
        self.assert_finite_outcome(code, out, err, tmp_path, skip=[bad])

    @pytest.mark.parametrize("command, column", CSV_COLUMNS)
    @pytest.mark.parametrize("row", ["first", "middle", "last"])
    @pytest.mark.parametrize("value", CSV_EXTREMES)
    def test_extreme_csv_number(self, inputs, tmp_path, capsys, command, column, row, value):
        source = inputs / ("demo/trace.csv" if command == "evaluate" else "pos/poses.csv")
        header, *rows = source.read_text().splitlines()
        index = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[row]
        fields = rows[index].split(",")
        fields[header.split(",").index(column)] = repr(value)
        rows[index] = ",".join(fields)
        edited = tmp_path / "in" / source.name
        edited.parent.mkdir()
        edited.write_text("\n".join([header, *rows]) + "\n")
        out_dir = tmp_path / "out"
        argv = {
            "calibrate-position": ["calibrate-position", edited, "-o", out_dir / "tip.json"],
            "snapshot": ["snapshot", edited, inputs / "events.txt", "--calibration",
                         inputs / "calibration.json", "-o", out_dir / "waypoints.json"],
            "evaluate": ["evaluate", edited, "--frame", inputs / "frame.json", "--path",
                         inputs / "path.json", "--out-dir", out_dir],
        }[command]
        out_dir.mkdir()
        code, out, err = run(capsys, *[str(a) for a in argv])
        self.assert_finite_outcome(code, out, err, out_dir)

    ECHOES = [
        ("sim_sine.json", ["note"], math.inf),
        ("sim_sine.json", ["note"], -math.inf),
        ("sim_position.json", ["poses_per_hole"], math.inf),
    ]

    @pytest.mark.parametrize("doc, keys, value", ECHOES, ids=["inf", "-inf", "unused"])
    def test_config_echo_of_an_infinity_exit_2(self, inputs, tmp_path, capsys, doc, keys, value):
        # simulate echoes its config into truth.json, which JSON readers
        # rejected with the infinity in it; now nothing is written.
        edited = json.loads((inputs / doc).read_text())
        edited[keys[0]] = value
        bad = tmp_path / doc
        bad.write_text(json.dumps(edited))
        code, out, err = run(capsys, *self.command(inputs, doc, bad))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, f"config.{keys[0]}")
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [bad]

    def test_config_echo_of_nan_writes_null(self, inputs, tmp_path, capsys):
        edited = {**json.loads((inputs / "sim_sine.json").read_text()), "note": math.nan}
        bad = tmp_path / "sim_sine.json"
        bad.write_text(json.dumps(edited))
        code, out, err = run(capsys, *self.command(inputs, "sim_sine.json", bad))
        self.assert_finite_outcome(code, out, err, tmp_path, skip=[bad])
        assert code == 0
        truth = json.loads((tmp_path / "sim_sine_out" / "truth.json").read_text())
        assert truth["config"]["note"] is None

    @pytest.mark.parametrize("value", [-1e-4, -1e308])
    def test_negative_position_residual_rms_exit_2(self, inputs, tmp_path, capsys, value):
        doc = json.loads((inputs / "tip.json").read_text())
        doc["position_residual_rms"] = value
        bad = tmp_path / "tip.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, *self.command(inputs, "tip.json", bad))
        TestFilterFlagErrors.assert_one_line_error(code, out, err, "position_residual_rms")


class TestRepeatedPathPointAndNegativeOutlierCount:
    """Two documents the loaders reject on a value rather than a shape."""

    REPEATED = {"waypoints": [[0.0, 0.0], [0.1, 0.0], [0.1, 0.0]], "visiting_sequence": [0, 1, 2]}
    DISTINCT = "bad ideal path document: consecutive sequence points must be distinct"

    def test_evaluate_path_with_equal_consecutive_points_exit_2(self, tmp_path, capsys):
        trace, frame, _ = TestMalformedInputFiles.evaluate_files(tmp_path, capsys)
        path = tmp_path / "repeated_path.json"
        write_json(path, self.REPEATED)
        code, out, err = run(
            capsys, "evaluate", str(trace), "--frame", str(frame), "--path", str(path)
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, self.DISTINCT)

    def test_simulate_path_with_equal_consecutive_points_exit_2(self, tmp_path, capsys):
        config_path = tmp_path / "demo_config.json"
        write_json(config_path, {**DEMO_CONFIG, "path": self.REPEATED})
        code, out, err = run(
            capsys, "simulate", str(config_path), "--out-dir", str(tmp_path / "out")
        )
        TestFilterFlagErrors.assert_one_line_error(code, out, err, self.DISTINCT)
        assert not list((tmp_path / "out").rglob("*"))

    def test_snapshot_negative_filtered_outliers_exit_2(self, tmp_path, capsys):
        pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, "EVT 0.10 BTN 1\n")
        doc = json.loads(calib_path.read_text())
        write_json(calib_path, {**doc, "filtered_outliers": -1})
        code, out, err = run(
            capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
        )
        TestFilterFlagErrors.assert_one_line_error(
            code, out, err, "bad calibration document: filtered_outliers must be non-negative"
        )


def test_snapshot_skips_unknown_event_lines_and_ignores_blank_ones(tmp_path, capsys):
    events_text = "\nEVT 0.10 BTN 1\n   \n\t\nEVT 0.5 FOO 1\n\nEVT 0.90 BTN 1\n  \n"
    pose_csv, events, calib_path = TestSnapshot()._setup(tmp_path, capsys, events_text)
    code, out, err = run(
        capsys, "snapshot", str(pose_csv), str(events), "--calibration", str(calib_path)
    )
    assert code == 0
    assert err == "warning: skipped 1 unrecognized event lines\n"
    assert [w["t"] for w in json.loads(out)["waypoints"]] == pytest.approx([0.10, 0.90])
