"""The closed-form axis solve of ``calib.calibrate_orientation`` against the
iterative solver it replaced.

The minimizer of ``sum (1 - a . m_j)`` over unit axes ``a`` is
``s / |s|``, ``s = sum m_j`` (the von Mises-Fisher mean direction).  The
BFGS descent over Euler angles below, with its three re-anchored charts,
is the solver the package used before; it is kept here verbatim as a
test-only oracle, so scipy is needed by the tests alone.  The properties
run on synthetic hole recordings (1-4 holes, up to 300 poses each, 0-1
degree of axis noise, any initial roll) without the outlier filter, so
every measurement counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles import orientation_objective, rotation_to_euler

from styluskit.calib import calibrate_orientation
from styluskit.cli import main
from styluskit.errors import DegenerateAxesWarning, NoConvergence
from styluskit.geometry import (
    EulerAngles,
    HoleRecording,
    OrientationDataset,
    Pose,
    angle_between,
    euler_to_rotation,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_multiply,
    quat_rotate,
    quat_to_matrix,
    quats_to_matrices,
    rotation_between,
)
from styluskit.ingest import PoseRecording, parse_pose_csv, write_pose_csv
from styluskit.jsonio import read_json, write_json
from styluskit.synth import SynthConfig, gen_orientation_dataset

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "perfbench"))
import workloads  # noqa: E402

EZ = np.array([0.0, 0.0, 1.0])
TIP_OFFSET = np.array([0.0, 0.0, -0.12])


# ------------------------------------------------- the former BFGS solver


def _tip_axis(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    return np.array([cy * sp * cr + sy * sr, sy * sp * cr - cy * sr, cp * cr])


def _tip_axis_jacobian(yaw: float, pitch: float, roll: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    d_yaw = np.array([-sy * sp * cr + cy * sr, cy * sp * cr + sy * sr, 0.0])
    d_pitch = np.array([cy * cp * cr, sy * cp * cr, -sp * cr])
    d_roll = np.array([-cy * sp * sr + sy * cr, -sy * sp * sr - cy * cr, -cp * sr])
    return np.column_stack([d_yaw, d_pitch, d_roll])


def _euler_of_matrix(m: np.ndarray) -> EulerAngles:
    return rotation_to_euler(quat_from_matrix(m))


def _descend_alignment(
    s: np.ndarray, count: int, seed: np.ndarray, max_iterations: int
) -> np.ndarray:
    """Minimize ``count - s . (R e_z)`` over Euler angles of R.

    ``seed`` is the starting rotation matrix.  The Euler chart is
    re-anchored with a fixed 90-degree rotation when iterates approach the
    pitch singularity.
    """
    from scipy.optimize import minimize

    anchors = [
        np.eye(3),
        quat_to_matrix(quat_from_axis_angle([1.0, 0.0, 0.0], math.pi / 2.0)),
        quat_to_matrix(quat_from_axis_angle([0.0, 1.0, 0.0], math.pi / 2.0)),
    ]
    band = math.pi / 2.0 - 0.01
    gradient_tol = 1e-9 * max(1.0, float(count))
    last_error = None
    for anchor in anchors:
        left_seed = anchor.T @ seed
        angles0 = _euler_of_matrix(left_seed)
        if abs(angles0.pitch) > band:
            continue
        s_local = anchor.T @ s

        def objective(x, s_local=s_local):
            value = float(count) - float(s_local @ _tip_axis(*x))
            grad = -(_tip_axis_jacobian(*x).T @ s_local)
            return value, grad

        result = minimize(
            objective,
            x0=np.array([angles0.yaw, angles0.pitch, angles0.roll]),
            jac=True,
            method="BFGS",
            options={"maxiter": max_iterations, "gtol": gradient_tol},
        )
        gradient_norm = float(np.linalg.norm(result.jac))
        pitch_ok = abs(float(result.x[1])) <= band
        if (result.success or gradient_norm <= gradient_tol) and pitch_ok:
            left = quat_to_matrix(
                euler_to_rotation(EulerAngles(*[float(v) for v in result.x]))
            )
            return anchor @ left
        last_error = f"gradient norm {gradient_norm:.3e} after {result.nit} iterations"
    raise NoConvergence(
        f"axis alignment did not converge within {max_iterations} iterations"
        + (f" ({last_error})" if last_error else "")
    )


def bfgs_axis(ds: OrientationDataset, initial_roll: float):
    """The former solve's tip axis, seeded as it was seeded (hole 1's mean
    measurement, spun by ``initial_roll``), or None where it does not
    converge."""
    measured = [measured_axes(hole) for hole in ds.holes]
    m = np.concatenate(measured)
    seed = quat_multiply(
        rotation_between(EZ, measured[0].mean(axis=0)), quat_from_axis_angle(EZ, initial_roll)
    )
    try:
        solution = _descend_alignment(m.sum(axis=0), m.shape[0], quat_to_matrix(seed), 200)
    except NoConvergence:
        return None
    return solution @ EZ


# ------------------------------------------------------------- datasets


def measured_axes(hole: HoleRecording) -> np.ndarray:
    """The tip axis in the fiducial frame as each pose sees it, ``R_j^T z``."""
    return np.einsum("nij,i->nj", quats_to_matrices(hole.q), hole.reference_axis)


@st.composite
def datasets(draw):
    """``(dataset, true tip rotation, initial roll)`` from a seeded draw of
    the geometry: a random tip rotation and random hole axes."""
    holes = draw(st.integers(1, 4))
    per_hole = draw(st.integers(1, 300))
    noise = math.radians(draw(st.floats(0.0, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    roll = draw(st.floats(-10.0, 10.0, allow_nan=False))
    rng = np.random.default_rng(seed)
    true_q = quat_from_axis_angle(rng.normal(size=3), rng.uniform(0.0, math.pi))
    cfg = SynthConfig(
        true_calibration=Pose(true_q, TIP_OFFSET),
        pivot_point=np.zeros(3),
        orientation_noise_std=noise,
        seed=seed,
    )
    ds, _ = gen_orientation_dataset(cfg, rng.normal(size=(holes, 3)), per_hole)
    return ds, true_q, roll


def solve(ds: OrientationDataset, initial_roll: float):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAxesWarning)
        return calibrate_orientation(ds, TIP_OFFSET, axis_filter=None, initial_roll=initial_roll)


def result_axis(result) -> np.ndarray:
    return quat_rotate(result.rotation, EZ)


def resultant(ds: OrientationDataset) -> tuple[np.ndarray, int]:
    m = np.concatenate([measured_axes(hole) for hole in ds.holes])
    return m.sum(axis=0), m.shape[0]


PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------- properties


@PROPERTY
@given(datasets())
def test_axis_is_the_normalized_resultant(case):
    ds, _, roll = case
    s, _ = resultant(ds)
    assert angle_between(result_axis(solve(ds, roll)), s) <= 1e-12


@PROPERTY
@given(datasets())
def test_axis_matches_bfgs_where_it_converges(case):
    ds, _, roll = case
    reference = bfgs_axis(ds, roll)
    assume(reference is not None)
    assert angle_between(result_axis(solve(ds, roll)), reference) <= 1e-8


@PROPERTY
@given(datasets(), st.integers(0, 2**32 - 1))
def test_cost_no_higher_than_bfgs_or_random_axes(case, seed):
    ds, _, roll = case
    s, count = resultant(ds)
    candidates = list(np.random.default_rng(seed).normal(size=(20, 3)))
    candidates = [v / np.linalg.norm(v) for v in candidates]
    reference = bfgs_axis(ds, roll)
    if reference is not None:
        candidates.append(reference)
    cost = float(count - s @ result_axis(solve(ds, roll)))
    assert all(cost <= float(count - s @ a) + 1e-12 * count for a in candidates)


@PROPERTY
@given(datasets())
def test_objective_no_higher_than_at_the_truth(case):
    ds, true_q, roll = case
    count = sum(len(hole) for hole in ds.holes)
    at_result = orientation_objective(ds, solve(ds, roll).rotation)
    at_truth = orientation_objective(ds, true_q)
    assert at_result <= at_truth + 1e-12 * count


# ----------------------------------------------------------- fixed cases


@pytest.mark.parametrize("seed", [12, 309])
def test_benchmark_calibrate_inputs_solve(tmp_path, monkeypatch, capsys, seed):
    # The former solver stopped short of its gradient tolerance on these
    # inputs and exited 3; the closed form has no such failure.
    plan = workloads.make_plan("calibrate", seed, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    for command in plan.commands:
        code = main(command.argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        assert command.check(str(tmp_path), out) == []


def test_cancelling_first_hole_solves():
    # Hole 1's two measurements are opposite, so its mean vanishes; the
    # pooled resultant of the sound holes still fixes the axis.
    true_q = quat_from_axis_angle([0.3, -0.2, 0.9], 0.4)
    cfg = SynthConfig(true_calibration=Pose(true_q, TIP_OFFSET), pivot_point=np.zeros(3), seed=5)
    sound, _ = gen_orientation_dataset(cfg, [[0.0, 0.6, 0.8], [0.6, 0.0, 0.8]], 40)
    flip = quat_from_axis_angle([1.0, 0.0, 0.0], math.pi)
    cancelling = HoleRecording(EZ, q=np.array([[0.0, 0.0, 0.0, 1.0], flip]), p=np.zeros((2, 3)))
    ds = OrientationDataset([cancelling, *sound.holes])
    assert np.linalg.norm(measured_axes(cancelling).sum(axis=0)) < 1e-12
    result = calibrate_orientation(ds, TIP_OFFSET)
    assert angle_between(result_axis(result), quat_rotate(true_q, EZ)) < 1e-9


# ------------------------------------------------- near pitch +-90 degrees
#
# A tip axis in the xy-plane is pitch +-90 degrees in yaw-pitch-roll, where
# the angles are singular.  The solve's quaternion goes to the calibration
# file as it is, so the axis stays exact there too.

NEAR_HORIZONTAL = math.sin(1e-3)  # |s_z| / |s| within 1e-3 rad of the xy-plane


@st.composite
def near_horizontal_cases(draw):
    """``(dataset, initial roll in degrees)`` whose resultant is drawn
    within 1e-3 rad of the xy-plane, at any azimuth, tip spin and roll."""
    azimuth = draw(st.floats(-math.pi, math.pi))
    elevation = draw(st.floats(-0.9e-3, 0.9e-3))
    spin = draw(st.floats(-math.pi, math.pi))
    holes = draw(st.integers(1, 3))
    per_hole = draw(st.integers(1, 60))
    noise = draw(st.floats(0.0, 1e-4))
    seed = draw(st.integers(0, 2**32 - 1))
    roll_deg = draw(st.floats(-720.0, 720.0))
    axis = [math.cos(elevation) * math.cos(azimuth), math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation)]
    true_q = quat_multiply(rotation_between(EZ, axis), quat_from_axis_angle(EZ, spin))
    cfg = SynthConfig(
        true_calibration=Pose(true_q, TIP_OFFSET),
        pivot_point=np.zeros(3),
        orientation_noise_std=noise,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    ds, _ = gen_orientation_dataset(cfg, rng.normal(size=(holes, 3)), per_hole)
    return ds, roll_deg


def near_horizontal_resultant(ds: OrientationDataset) -> np.ndarray:
    s, _ = resultant(ds)
    assume(abs(s[2]) <= NEAR_HORIZONTAL * np.linalg.norm(s))
    return s


def write_inputs(directory: str, ds: OrientationDataset) -> tuple[str, str]:
    """The hole recordings, manifest and position file ``calibrate-orientation`` reads."""
    manifest = {"holes": []}
    for i, hole in enumerate(ds.holes):
        name = f"hole_{i}.csv"
        recording = PoseRecording("world", t=np.arange(len(hole)) / 100.0, q=hole.q, p=hole.p)
        with open(os.path.join(directory, name), "w", encoding="utf-8", newline="") as f:
            write_pose_csv(recording, f)
        manifest["holes"].append({"reference_axis": hole.reference_axis.tolist(), "recording": name})
    manifest_path = os.path.join(directory, "manifest.json")
    position_path = os.path.join(directory, "position.json")
    write_json(manifest_path, manifest)
    write_json(position_path, {"translation": TIP_OFFSET.tolist(), "position_residual_rms": 0.0})
    return manifest_path, position_path


def read_inputs(manifest_path: str) -> OrientationDataset:
    """The dataset as ``calibrate-orientation`` builds it from the files."""
    holes = []
    for entry in read_json(manifest_path)["holes"]:
        path = os.path.join(os.path.dirname(manifest_path), entry["recording"])
        with open(path, encoding="utf-8") as f:
            recording = parse_pose_csv(f)
        holes.append(HoleRecording(entry["reference_axis"], q=recording.q, p=recording.p))
    return OrientationDataset(holes)


def written_rotation(ds: OrientationDataset, roll_deg: float) -> tuple[list, OrientationDataset]:
    """``rotation_quat`` as ``calibrate-orientation`` writes it for ``ds``,
    and the dataset it read."""
    with tempfile.TemporaryDirectory() as directory:
        manifest, position = write_inputs(directory, ds)
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("ignore", DegenerateAxesWarning)
            code = main(["calibrate-orientation", manifest, "--position", position,
                         f"--initial-roll-deg={roll_deg!r}"])
        assert code == 0
        return json.loads(out.getvalue())["rotation_quat"], read_inputs(manifest)


@PROPERTY
@given(near_horizontal_cases())
def test_axis_is_exact_near_pitch_90(case):
    ds, roll_deg = case
    s = near_horizontal_resultant(ds)
    rotation = solve(ds, math.radians(roll_deg)).rotation
    assert angle_between(quat_rotate(rotation, EZ), s) <= 2e-15


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_horizontal_cases())
def test_written_axis_is_exact_near_pitch_90(case):
    ds, roll_deg = case
    written, read = written_rotation(ds, roll_deg)
    s = near_horizontal_resultant(read)
    assert angle_between(quat_rotate(written, EZ), s) <= 2e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_written_quaternion_is_the_solvers(seed):
    rng = np.random.default_rng(seed)
    azimuth, elevation = rng.uniform(-math.pi, math.pi), rng.uniform(-1e-3, 1e-3)
    axis = [math.cos(elevation) * math.cos(azimuth), math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation)]
    cfg = SynthConfig(
        true_calibration=Pose(rotation_between(EZ, axis), TIP_OFFSET),
        pivot_point=np.zeros(3),
        orientation_noise_std=math.radians(0.05),
        seed=seed,
    )
    ds, _ = gen_orientation_dataset(cfg, rng.normal(size=(3, 3)), 40)
    roll_deg = float(rng.uniform(-180.0, 180.0))
    written, read = written_rotation(ds, roll_deg)
    result = calibrate_orientation(read, TIP_OFFSET, initial_roll=math.radians(roll_deg))
    assert written == result.rotation.tolist()
