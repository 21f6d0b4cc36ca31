from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import quat_angle, quat_to_matrix, rotation_to_euler

from styluskit.errors import ZeroVector
from styluskit.geometry import (
    EulerAngles,
    Pose,
    angle_between,
    compose,
    euler_to_rotation,
    invert,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_normalize,
    rotation_between,
    transform_point,
)


def random_pose(rng: np.random.Generator) -> Pose:
    axis = rng.normal(size=3)
    angle = rng.uniform(-math.pi, math.pi)
    return Pose(quat_from_axis_angle(axis, angle), rng.uniform(-1.0, 1.0, 3))


def homogeneous(pose: Pose) -> np.ndarray:
    """The 4x4 matrix of ``pose``: rotate, then translate."""
    m = np.eye(4)
    m[:3, :3] = quat_to_matrix(pose.rotation)
    m[:3, 3] = pose.translation
    return m


def poses_equal(a: Pose, b: Pose, tol: float = 1e-9) -> bool:
    return (
        quat_angle(a.rotation, b.rotation) < tol
        and np.linalg.norm(a.translation - b.translation) < tol
    )


@st.composite
def pose_strategy(draw):
    finite = st.floats(-1.0, 1.0, allow_nan=False)
    axis = np.array([draw(finite), draw(finite), draw(finite)])
    if np.linalg.norm(axis) < 1e-6:
        axis = np.array([1.0, 0.0, 0.0])
    angle = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    translation = np.array([draw(finite), draw(finite), draw(finite)])
    return Pose(quat_from_axis_angle(axis, angle), translation)


class TestPose:
    def test_quaternion_normalized_on_construction(self):
        p = Pose(np.array([0.0, 0.0, 0.0, 2.0]), np.zeros(3))
        assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-9

    def test_canonical_sign(self):
        p = Pose(np.array([0.1, 0.2, 0.3, -0.9]), np.zeros(3))
        assert p.rotation[3] >= 0.0

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_pose(rng)
            assert poses_equal(compose(p, invert(p)), Pose.identity())

    def test_arrays_are_frozen(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            p.translation[0] = 1.0


class TestCompose:
    def test_identity_left(self):
        rng = np.random.default_rng(2)
        p = random_pose(rng)
        assert poses_equal(compose(Pose.identity(), p), p)

    def test_compose_with_invert_is_identity(self):
        rng = np.random.default_rng(3)
        p = random_pose(rng)
        assert poses_equal(compose(p, invert(p)), Pose.identity())

    def test_matches_homogeneous_matrix_product(self):
        # independent oracle: 4x4 matrix multiplication
        a = Pose(quat_from_axis_angle([0, 0, 1], math.pi / 2), np.array([1.0, 0.0, 0.0]))
        b = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        expected = homogeneous(a) @ homogeneous(b)
        got = homogeneous(compose(a, b))
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(compose(a, b).translation, [0.0, 0.0, 0.0], atol=1e-12)

    def test_random_composition_against_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            assert np.allclose(homogeneous(compose(a, b)), homogeneous(a) @ homogeneous(b), atol=1e-12)


class TestInvert:
    def test_identity(self):
        assert poses_equal(invert(Pose.identity()), Pose.identity())

    def test_pure_translation(self):
        p = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(invert(p).translation, [-1.0, -2.0, -3.0])

    def test_matches_matrix_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_pose(rng)
            assert np.allclose(homogeneous(invert(p)), np.linalg.inv(homogeneous(p)), atol=1e-12)


class TestTransformPoint:
    def test_identity(self):
        assert np.allclose(transform_point(Pose.identity(), [1, 2, 3]), [1, 2, 3])

    def test_translation_only(self):
        p = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(transform_point(p, [0, 0, 0]), [0, 0, 1])

    def test_rotation_matches_matrix(self):
        p = Pose(quat_from_axis_angle([0, 0, 1], math.pi / 2), np.zeros(3))
        assert np.allclose(transform_point(p, [1, 0, 0]), [0, 1, 0], atol=1e-12)


class TestEuler:
    def test_zero_angles_is_identity(self):
        q = euler_to_rotation(EulerAngles(0.0, 0.0, 0.0))
        assert np.allclose(q, [0, 0, 0, 1])

    def test_pure_yaw(self):
        q = euler_to_rotation(EulerAngles(math.pi / 2, 0.0, 0.0))
        expected = quat_from_axis_angle([0, 0, 1], math.pi / 2)
        assert quat_angle(q, expected) < 1e-12

    def test_matches_sequential_matrix_product(self):
        # independent oracle: elemental rotation matrices multiplied Rz @ Ry @ Rx
        yaw, pitch, roll = 0.3, -0.2, 0.1

        def rz(a):
            return np.array(
                [[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]]
            )

        def ry(a):
            return np.array(
                [[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]]
            )

        def rx(a):
            return np.array(
                [[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]]
            )

        expected = rz(yaw) @ ry(pitch) @ rx(roll)
        got = quat_to_matrix(euler_to_rotation(EulerAngles(yaw, pitch, roll)))
        assert np.allclose(got, expected, atol=1e-12)

    def test_round_trip_preserves_rotation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            angles = EulerAngles(
                yaw=rng.uniform(-math.pi, math.pi),
                pitch=rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05),
                roll=rng.uniform(-math.pi, math.pi),
            )
            q = euler_to_rotation(angles)
            back = euler_to_rotation(rotation_to_euler(q))
            assert quat_angle(q, back) < 1e-9


class TestAngleBetween:
    def test_parallel(self):
        assert angle_between([1, 0, 0], [1, 0, 0]) == 0.0

    def test_orthogonal(self):
        assert abs(angle_between([1, 0, 0], [0, 1, 0]) - math.pi / 2) < 1e-15

    def test_near_antiparallel_is_stable(self):
        # arbitrary-precision reference via mpmath
        import mpmath

        mpmath.mp.dps = 50
        eps = 1e-9
        expected = float(mpmath.atan2(mpmath.mpf(eps), mpmath.mpf(-1)))
        got = angle_between([1.0, 0.0, 0.0], [-1.0, eps, 0.0])
        assert abs(got - expected) < 1e-15
        assert got == pytest.approx(math.pi, abs=2e-9)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            angle_between([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            a = angle_between(u, v)
            assert angle_between(v, u) == pytest.approx(a, abs=1e-12)
            assert angle_between(3.7 * u, 0.002 * v) == pytest.approx(a, abs=1e-9)


class TestQuaternionHelpers:
    def test_rotation_matrix_orthonormal_det_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = quat_normalize(rng.normal(size=4))
            m = quat_to_matrix(q)
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = quat_normalize(rng.normal(size=4))
            assert quat_angle(q, quat_from_matrix(quat_to_matrix(q))) < 1e-9

    def test_rotation_between_aligns(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            q = rotation_between(u, v)
            got = quat_to_matrix(q) @ (u / np.linalg.norm(u))
            assert np.allclose(got, v / np.linalg.norm(v), atol=1e-9)

    def test_normalize_is_bit_stable(self):
        q = quat_normalize(np.array([0.3, -0.4, 0.5, 0.7]))
        again = quat_normalize(q)
        assert np.array_equal(q, again)


@settings(max_examples=100, deadline=None)
@given(pose_strategy(), pose_strategy(), pose_strategy())
def test_composition_associative(a, b, c):
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert quat_angle(left.rotation, right.rotation) < 1e-9
    assert np.linalg.norm(left.translation - right.translation) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    pose_strategy(),
    pose_strategy(),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
)
def test_transform_compose_homomorphism(a, b, point):
    p = np.array(point)
    direct = transform_point(compose(a, b), p)
    chained = transform_point(a, transform_point(b, p))
    assert np.linalg.norm(direct - chained) < 1e-9
