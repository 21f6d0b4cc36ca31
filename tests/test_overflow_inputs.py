"""Finite inputs whose arithmetic overflows are input errors.

A pose row whose quaternion's squared norm overflows would normalize to
zeros, a demonstration point far enough from the ideal line has no finite
line parameter, and a tip or frame pose can overflow when it is computed.
All are the user's data: the library raises, and the CLI exits 2 with one
``error:`` line, never a traceback, a numpy warning or a silent zero.
"""

from __future__ import annotations

import io
import json
import math
import warnings

import numpy as np
import pytest

from styluskit.cli import main
from styluskit.errors import FormatError, InputError, NonFinitePose
from styluskit.ingest import parse_pose_csv

IDENTITY_FRAME = {
    "label": "board",
    "translation": [0.0, 0.0, 0.0],
    "rotation_quat": [0.0, 0.0, 0.0, 1.0],
    "probe_points": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
}
LINE_PATH = {"waypoints": [[0.0, 0.0], [0.1, 0.0]], "visiting_sequence": [0, 1]}


def pose_lines(quat_row: str, later: str = "") -> list[str]:
    rows = ["t,x,y,z,qx,qy,qz,qw"]
    rows += [f"{i * 0.01},{i * 0.01},0.0,0.0,0,0,0,1" for i in range(11)]
    rows[5] = f"0.04,0.04,0.0,0.0,{quat_row}"
    if later:
        rows.append(later)
    return [r + "\n" for r in rows]


@pytest.mark.parametrize("quat_row", ["1e200,0,0,1", "0,0,1.1e150,0", "-1e155,0,0,-1e155"])
def test_parser_rejects_an_overflowing_quaternion_at_its_row(quat_row):
    # The later row would be dropped with a warning, and the one after
    # that is malformed: the quaternion's row is reported first.
    lines = pose_lines(quat_row, later="0.5,nan,0,0,0,0,0,1\n0.6,bad,0,0,0,0,0,1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="too large to normalize"):
            parse_pose_csv(io.StringIO("".join(lines)))


def test_parser_keeps_a_large_finite_quaternion():
    rec = parse_pose_csv(io.StringIO("".join(pose_lines("1e140,0,0,1e140"))))
    assert np.allclose(rec.q[4], [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)])


def run_evaluate(tmp_path, capsys, trace_text: str, *flags):
    trace = tmp_path / "trace.csv"
    trace.write_text(trace_text)
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(IDENTITY_FRAME))
    path = tmp_path / "path.json"
    path.write_text(json.dumps(LINE_PATH))
    code = main(["evaluate", str(trace), "--frame", str(frame), "--path", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, out, err, text):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert text in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [(), ("--in-frame",)])
def test_evaluate_pose_trace_with_overflowing_quaternion_exit_2(tmp_path, capsys, flags):
    text = "".join(pose_lines("1e200,0,0,1"))
    code, out, err = run_evaluate(tmp_path, capsys, text, *flags)
    assert_one_line_error(code, out, err, "too large to normalize")


@pytest.mark.parametrize("x", ["1e308", "-1e308"])
def test_evaluate_point_with_overflowing_line_offset_exit_2(tmp_path, capsys, x):
    rows = ["t,x,y,z,Fz"] + [f"{i * 0.01},{i * 0.01},0.0,0.0,1.0" for i in range(11)]
    rows[5] = f"0.04,{x},0.0,0.0,1.0"
    code, out, err = run_evaluate(tmp_path, capsys, "\n".join(rows) + "\n", "--in-frame")
    assert_one_line_error(code, out, err, "non-finite line offset")


def force_trace(t=lambda i: repr(i * 0.00025), fz=lambda i: "1.0") -> str:
    """401 samples along ``LINE_PATH``, 4 kHz unless ``t`` says otherwise."""
    rows = [f"{t(i)},{i * 0.00025},0.0,0.0,{fz(i)}\n" for i in range(401)]
    return "t,x,y,z,Fz\n" + "".join(rows)


@pytest.mark.parametrize(
    "trace, text",
    [
        # The median spacing is 5e-324 s, so the sample rate is inf.
        (force_trace(t=lambda i: repr(i * 5e-324)), "force spectrum is not finite"),
        # The transform of one force of 1e308 overflows.
        (force_trace(fz=lambda i: "1e308" if i == 200 else "1.0"), "force spectrum is not finite"),
        # The span over the median spacing overflows.
        (force_trace(t=lambda i: "1e308" if i == 400 else repr(i * 0.00025)),
         "force samples are too unevenly timed"),
    ],
    ids=["subnormal-steps", "huge-force", "huge-last-time"],
)
def test_evaluate_with_non_finite_force_spectrum_exit_2(tmp_path, capsys, trace, text):
    code, out, err = run_evaluate(tmp_path, capsys, trace, "--in-frame")
    assert_one_line_error(code, out, err, text)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def far_pose_csv(tmp_path):
    path = tmp_path / "far.csv"
    rows = [f"{i * 0.01},1e308,0.0,0.0,0,0,0,1" for i in range(11)]
    path.write_text("t,x,y,z,qx,qy,qz,qw\n" + "\n".join(rows) + "\n")
    return path


def test_non_finite_pose_is_an_input_error_and_a_value_error():
    assert issubclass(NonFinitePose, InputError) and issubclass(NonFinitePose, ValueError)


def test_snapshot_with_overflowing_tip_pose_exit_2(tmp_path, capsys):
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps({
        "translation": [1e308, 0.0, 0.0],
        "rotation_quat": [0.0, 0.0, 0.0, 1.0],
        "position_residual_rms": 0.0,
        "orientation_residual_rms": 0.0,
        "filtered_outliers": 0,
    }))
    events = tmp_path / "events.txt"
    events.write_text("EVT 0.05 BTN 1\n")
    code, out, err = run_cli(
        capsys, "snapshot", far_pose_csv(tmp_path), events, "--calibration", calibration
    )
    assert_one_line_error(code, out, err, "pose has non-finite components")


def test_evaluate_with_overflowing_frame_pose_exit_2(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({**IDENTITY_FRAME, "translation": [-1e308, 0.0, 0.0]}))
    path = tmp_path / "path.json"
    path.write_text(json.dumps(LINE_PATH))
    code, out, err = run_cli(
        capsys, "evaluate", far_pose_csv(tmp_path), "--frame", frame, "--path", path
    )
    assert_one_line_error(code, out, err, "pose has non-finite components")


@pytest.mark.parametrize(
    "points",
    [
        [[1e200, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1e200, 0.0]],
        [[1.7e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0], [0.0, 1.7e308, 0.0]],
    ],
)
def test_identify_frame_with_overflowing_axes_exit_2(tmp_path, capsys, points):
    waypoints = tmp_path / "waypoints.json"
    waypoints.write_text(json.dumps({
        "waypoints": [
            {"t": float(i), "position": p, "orientation_quat": [0, 0, 0, 1]}
            for i, p in enumerate(points)
        ]
    }))
    code, out, err = run_cli(capsys, "identify-frame", waypoints)
    assert_one_line_error(code, out, err, "pose has non-finite components")


@pytest.mark.parametrize("flags", [(), ("--no-filter",)])
@pytest.mark.parametrize("magnitude", [1e154, 1e200, 1e250, 1e308])
def test_calibrate_position_with_overflowing_residuals_exit_2(tmp_path, capsys, flags, magnitude):
    # Finite rows whose pivot residuals overflow: one error line, before
    # the filter would print numpy's overflow warnings or blame the data.
    rng = np.random.default_rng(7)
    q = rng.normal(size=(200, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    x = rng.choice([-magnitude, magnitude], size=200).tolist()
    rows = [
        ",".join(map(repr, [i * 0.01, x[i], 0.0, 0.0, *q[i].tolist()])) for i in range(200)
    ]
    path = tmp_path / "far_pivot.csv"
    path.write_text("t,x,y,z,qx,qy,qz,qw\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "calibrate-position", path, *flags)
    assert_one_line_error(code, out, err, "pivot residuals overflow")
