"""Quaternions read from JSON documents: one decoder for every loader.

A quaternion whose squared norm overflows would normalize to zeros, so a
calibration, frame or waypoint-list document holding one is an
input error (exit 2, one ``error:`` line, no numpy warning).  A zero
quaternion stays degenerate data (exit 3).
"""

from __future__ import annotations

import json
import warnings

import pytest

from styluskit.cli import main
from styluskit.errors import FormatError, ZeroVector
from styluskit.framing import frame_from_doc
from styluskit.geometry import MAX_QUAT_NORM2
from styluskit.ingest import calibration_from_doc, quat_from_json, waypoint_list_from_doc

OVERFLOWING = [1e200, 0.0, 0.0, 1.0]
CALIBRATION = {
    "translation": [0.0, 0.0, -0.1],
    "rotation_quat": [0.0, 0.0, 0.0, 1.0],
    "position_residual_rms": 0.0,
    "orientation_residual_rms": 0.0,
    "filtered_outliers": 0,
}
FRAME = {
    "label": "board",
    "translation": [0.0, 0.0, 0.0],
    "rotation_quat": [0.0, 0.0, 0.0, 1.0],
    "probe_points": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
}
PATH = {"waypoints": [[0.0, 0.0], [0.1, 0.0]], "visiting_sequence": [0, 1]}


def waypoints(quat) -> dict:
    points = ([0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0])
    return {
        "waypoints": [
            {"t": 0.1 * i, "position": p, "orientation_quat": quat if i == 1 else [0, 0, 0, 1]}
            for i, p in enumerate(points)
        ]
    }


def with_quat(doc: dict, key: str, quat) -> dict:
    return {**doc, key: quat}


LOADERS = {
    "calibration": lambda q: calibration_from_doc(with_quat(CALIBRATION, "rotation_quat", q)),
    "frame": lambda q: frame_from_doc(with_quat(FRAME, "rotation_quat", q)),
    "waypoints": lambda q: waypoint_list_from_doc(waypoints(q)),
}


class TestDecoder:
    @pytest.mark.parametrize(
        "value", [OVERFLOWING, [0.0, 0.0, -1.1e150, 0.0], [1e155, 1e155, 0.0, 0.0]]
    )
    def test_rejects_a_squared_norm_that_overflows(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large to normalize"):
                quat_from_json(value)

    @pytest.mark.parametrize("value", [[float("nan"), 0, 0, 1], [0, 0, float("inf"), 1]])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="not finite"):
            quat_from_json(value)

    @pytest.mark.parametrize("value", [[0, 0, 1], [[0, 0, 0, 1]], 1.0])
    def test_rejects_a_wrong_shape(self, value):
        with pytest.raises(ValueError, match="expected a quaternion"):
            quat_from_json(value)

    def test_keeps_the_largest_allowed_and_zero(self):
        edge = [MAX_QUAT_NORM2**0.5, 0.0, 0.0, 0.0]
        assert quat_from_json(edge).tolist() == edge
        assert quat_from_json([0, 0, 0, 0]).tolist() == [0.0] * 4


@pytest.mark.parametrize("loader", LOADERS)
def test_loader_maps_overflow_to_format_error(loader):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="too large to normalize"):
            LOADERS[loader](OVERFLOWING)


@pytest.mark.parametrize("loader", LOADERS)
def test_loader_still_raises_zero_vector_for_a_zero_quaternion(loader):
    with pytest.raises(ZeroVector):
        LOADERS[loader]([0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("loader", LOADERS)
def test_loader_keeps_a_large_finite_quaternion(loader):
    LOADERS[loader]([1e140, 0.0, 0.0, 1e140])


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pose_csv(tmp_path):
    path = tmp_path / "rec.csv"
    rows = [f"{i * 0.01},{i * 0.01},0,0,0,0,0,1" for i in range(11)]
    path.write_text("t,x,y,z,qx,qy,qz,qw\n" + "\n".join(rows) + "\n")
    return path


def snapshot(tmp_path, capsys, quat):
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps(with_quat(CALIBRATION, "rotation_quat", quat)))
    events = tmp_path / "events.txt"
    events.write_text("EVT 0.05 BTN 1\n")
    return run(capsys, "snapshot", pose_csv(tmp_path), events, "--calibration", calibration)


def evaluate(tmp_path, capsys, quat):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(with_quat(FRAME, "rotation_quat", quat)))
    path = tmp_path / "path.json"
    path.write_text(json.dumps(PATH))
    return run(capsys, "evaluate", pose_csv(tmp_path), "--frame", frame, "--path", path)


def identify_frame(tmp_path, capsys, quat):
    wp = tmp_path / "wp.json"
    wp.write_text(json.dumps(waypoints(quat)))
    return run(capsys, "identify-frame", wp)


COMMANDS = {"snapshot": snapshot, "evaluate": evaluate, "identify-frame": identify_frame}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_overflowing_json_quaternion_exit_2(tmp_path, capsys, command):
    code, out, err = COMMANDS[command](tmp_path, capsys, OVERFLOWING)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large to normalize" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_zero_json_quaternion_exit_3(tmp_path, capsys, command):
    code, _, err = COMMANDS[command](tmp_path, capsys, [0.0, 0.0, 0.0, 0.0])
    assert code == 3 and "zero norm" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_identity_quaternion_exit_0(tmp_path, capsys, command):
    code, _, err = COMMANDS[command](tmp_path, capsys, [0.0, 0.0, 0.0, 1.0])
    assert code == 0, err
