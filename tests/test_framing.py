from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import quat_angle, quat_to_matrix

from styluskit.errors import CoincidentPoints, ColinearPoints
from styluskit.framing import (
    frame_from_doc,
    frame_to_doc,
    identify_frame,
    load_frame,
    save_frame,
    to_frame,
)
from styluskit.geometry import (
    Pose,
    compose,
    quat_from_axis_angle,
    transform_point,
)

IDENTITY_Q = np.array([0.0, 0.0, 0.0, 1.0])


def random_rigid(rng: np.random.Generator) -> Pose:
    return Pose(
        quat_from_axis_angle(rng.normal(size=3), rng.uniform(-math.pi, math.pi)),
        rng.uniform(-1.0, 1.0, 3),
    )


class TestIdentifyFrame:
    def test_canonical_triangle_is_identity(self):
        frame = identify_frame([1, 0, 0], [0, 0, 0], [0, 1, 0])
        assert np.allclose(frame.transform.rotation, IDENTITY_Q, atol=1e-12)
        assert np.allclose(frame.transform.translation, 0.0)

    def test_origin_is_second_point(self):
        frame = identify_frame([1.5, 0.2, 0.1], [0.5, 0.2, 0.1], [0.5, 1.2, 0.1])
        assert np.allclose(frame.transform.translation, [0.5, 0.2, 0.1])

    def test_equivariance_under_rigid_motion(self):
        rng = np.random.default_rng(30)
        p1, p2, p3 = np.array([1.0, 0, 0]), np.zeros(3), np.array([0.3, 0.9, 0.0])
        base = identify_frame(p1, p2, p3)
        for _ in range(100):
            g = random_rigid(rng)
            moved = identify_frame(
                transform_point(g, p1), transform_point(g, p2), transform_point(g, p3)
            )
            expected = compose(g, base.transform)
            assert quat_angle(moved.transform.rotation, expected.rotation) < 1e-9
            assert np.linalg.norm(moved.transform.translation - expected.translation) < 1e-9

    def test_colinear_raises(self):
        with pytest.raises(ColinearPoints):
            identify_frame([1, 0, 0], [0, 0, 0], [0.5, 0, 0])

    def test_coincident_raises(self):
        with pytest.raises(CoincidentPoints):
            identify_frame([1, 0, 0], [0, 0, 0], [1e-6, 0, 0])

    def test_nonorthogonal_probes_keep_x_exact(self):
        frame = identify_frame([1, 0, 0], [0, 0, 0], [0.5, 1.0, 0.0])
        m = quat_to_matrix(frame.transform.rotation)
        assert np.allclose(m[:, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


class TestToFrame:
    def test_origin_maps_to_zero(self):
        frame = identify_frame([1.5, 0.2, 0.1], [0.5, 0.2, 0.1], [0.5, 1.2, 0.1])
        local = to_frame(frame, np.array([[0.5, 0.2, 0.1]]))
        assert local.shape == (1, 3)
        assert np.allclose(local[0], 0.0, atol=1e-12)

    def test_identity_frame_is_noop(self):
        frame = identify_frame([1, 0, 0], [0, 0, 0], [0, 1, 0])
        local = to_frame(frame, np.array([[0.2, 0.4, 0.6]]))
        assert np.allclose(local[0], [0.2, 0.4, 0.6], atol=1e-12)

    def test_round_trip_through_frame(self):
        rng = np.random.default_rng(31)
        frame = identify_frame([0.9, 0.1, 0.3], [0.1, 0.2, 0.3], [0.2, 0.9, 0.35])
        positions = rng.uniform(-1, 1, (10, 3))
        local = to_frame(frame, positions)
        for i in range(10):
            back = transform_point(frame.transform, local[i])
            assert np.linalg.norm(back - positions[i]) < 1e-9

    def test_probe_points_land_canonically(self):
        p1, p2, p3 = np.array([0.9, 0.1, 0.3]), np.array([0.1, 0.2, 0.3]), np.array([0.2, 0.9, 0.35])
        frame = identify_frame(p1, p2, p3)
        x_local, origin_local, y_local = to_frame(frame, np.array([p1, p2, p3]))
        assert np.allclose(origin_local, 0.0, atol=1e-9)
        assert abs(x_local[1]) < 1e-9 and abs(x_local[2]) < 1e-9 and x_local[0] > 0
        assert y_local[1] > 0 and abs(y_local[2]) < 1e-9


class TestSerialization:
    def test_frame_json_round_trip(self, tmp_path):
        frame = identify_frame([0.9, 0.1, 0.3], [0.1, 0.2, 0.3], [0.2, 0.9, 0.35], label="board")
        path = tmp_path / "frame.json"
        save_frame(frame, path)
        first = path.read_text()
        loaded = load_frame(path)
        assert loaded.label == "board"
        assert np.array_equal(loaded.transform.rotation, frame.transform.rotation)
        save_frame(loaded, path)
        assert path.read_text() == first

    def test_frame_doc_fields(self):
        frame = identify_frame([1, 0, 0], [0, 0, 0], [0, 1, 0], label="f")
        doc = frame_to_doc(frame)
        assert set(doc) == {"label", "translation", "rotation_quat", "probe_points"}
        assert frame_from_doc(doc).label == "f"
