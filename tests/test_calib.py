from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import candidate_tip_points, orientation_objective, pairwise_objective
from scipy.optimize import minimize

from styluskit import calib
from styluskit.calib import (
    FilterParams,
    assemble_calibration,
    calibrate_orientation,
    calibrate_position,
    filter_outliers,
)
from styluskit.errors import (
    AllOutliers,
    DegenerateAxesWarning,
    DegenerateRotations,
)
from styluskit.geometry import (
    EulerAngles,
    HoleRecording,
    Pose,
    PositionDataset,
    angle_between,
    compose,
    euler_to_rotation,
    quat_from_axis_angle,
    quat_rotate,
    transform_point,
)
from styluskit.ingest import (
    calibration_from_doc,
    calibration_to_doc,
    load_calibration,
    save_calibration,
)
from styluskit.synth import SynthConfig, gen_orientation_dataset, gen_position_dataset

EZ = np.array([0.0, 0.0, 1.0])
TRUE_OFFSET = np.array([0.0, 0.0, -0.12])
PIVOT = np.array([0.4, 0.1, 0.02])


def clean_position_dataset(n=200, seed=0, noise=0.0, rate=0.0, magnitude=0.1):
    cfg = SynthConfig(
        true_calibration=Pose(np.array([0.0, 0.0, 0.0, 1.0]), TRUE_OFFSET),
        pivot_point=PIVOT,
        sample_count=n,
        rotation_span=math.radians(120.0),
        position_noise_std=noise,
        orientation_noise_std=0.0,
        outlier_rate=rate,
        outlier_magnitude=magnitude,
        seed=seed,
    )
    return gen_position_dataset(cfg)


class TestCandidateTipPoints:
    def test_zero_offset_returns_translations(self):
        ds, _ = clean_position_dataset(10, seed=1)
        tips = candidate_tip_points(ds, np.zeros(3))
        assert np.allclose(tips, ds.p)

    def test_single_identity_pose(self):
        ds = PositionDataset([Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))])
        tips = candidate_tip_points(ds, [1.0, 2.0, 3.0])
        assert np.allclose(tips, [[1.0, 2.0, 3.0]])

    def test_true_offset_lands_on_pivot(self):
        ds, truth = clean_position_dataset(100, seed=2)
        tips = candidate_tip_points(ds, truth.tip_offset)
        assert np.max(np.linalg.norm(tips - truth.pivot_point, axis=1)) < 1e-12


class TestFilterOutliers:
    def test_identical_points_all_kept(self):
        points = np.zeros((20, 3))
        kept, removed = filter_outliers(points, FilterParams())
        assert kept.size == 20 and removed == 0

    def test_ball_plus_far_points(self):
        rng = np.random.default_rng(3)
        ball = rng.normal(scale=0.0005, size=(100, 3))
        far_center = np.array([0.1, 0.0, 0.0])
        far = far_center + rng.normal(scale=0.0005, size=(5, 3))
        points = np.vstack([ball, far])
        kept, removed = filter_outliers(points, FilterParams())
        assert removed == 5
        assert set(kept.tolist()) == set(range(100))

    def test_all_distant_points_raise(self):
        points = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(AllOutliers):
            filter_outliers(points, FilterParams(min_neighbors=10))

    def test_idempotent_on_kept_set(self):
        rng = np.random.default_rng(4)
        ball = rng.normal(scale=0.0005, size=(60, 3))
        far = np.array([[0.5, 0, 0], [0.5, 0.001, 0], [-0.3, 0.2, 0.1]])
        points = np.vstack([ball, far])
        kept, _ = filter_outliers(points, FilterParams())
        again, removed = filter_outliers(points[kept], FilterParams())
        assert removed == 0
        assert again.size == kept.size

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(scale=0.001, size=(50, 3))
        a = filter_outliers(points, FilterParams(min_neighbors=5))
        b = filter_outliers(points, FilterParams(min_neighbors=5))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestCalibratePosition:
    def test_noise_free_recovery(self):
        ds, truth = clean_position_dataset(200, seed=6)
        result = calibrate_position(ds)
        assert np.linalg.norm(result.tip_offset - truth.tip_offset) < 1e-9
        assert np.linalg.norm(result.pivot - truth.pivot_point) < 1e-9
        assert result.residual_rms < 1e-9
        assert result.removed_outliers == 0

    def test_single_orientation_raises(self):
        pose = quat_from_axis_angle([0, 1, 0], 0.4)
        ds = PositionDataset(
            [Pose(pose, np.array([0.1 * i, 0.0, 0.0])) for i in range(10)]
        )
        with pytest.raises(DegenerateRotations):
            calibrate_position(ds)

    def test_single_pose_raises(self):
        ds = PositionDataset([Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))])
        with pytest.raises(DegenerateRotations):
            calibrate_position(ds)

    def test_low_diversity_raises(self):
        rng = np.random.default_rng(7)
        poses = [
            Pose(quat_from_axis_angle(rng.normal(size=3), rng.uniform(-0.05, 0.05)), rng.normal(size=3))
            for _ in range(20)
        ]
        with pytest.raises(DegenerateRotations):
            calibrate_position(PositionDataset(poses))

    def test_submillimeter_with_noise(self):
        # recovery stays below 1 mm at 0.2 mm translation noise
        ds, truth = clean_position_dataset(500, seed=8, noise=0.0002)
        result = calibrate_position(ds)
        assert np.linalg.norm(result.tip_offset - truth.tip_offset) < 1e-3

    def test_frame_invariance(self):
        ds, truth = clean_position_dataset(100, seed=9, noise=1e-5)
        g = Pose(
            quat_from_axis_angle([0.3, -0.5, 0.8], 1.1), np.array([0.5, -0.2, 0.9])
        )
        moved = PositionDataset([compose(g, p) for p in ds.poses])
        base = calibrate_position(ds)
        shifted = calibrate_position(moved)
        assert np.linalg.norm(base.tip_offset - shifted.tip_offset) < 1e-9
        assert np.linalg.norm(shifted.pivot - transform_point(g, base.pivot)) < 1e-9

    def test_outliers_filtered(self):
        ds, truth = clean_position_dataset(300, seed=10, noise=0.0002, rate=0.1, magnitude=0.08)
        filtered = calibrate_position(ds)
        unfiltered = calibrate_position(ds, params=None)
        err_filtered = np.linalg.norm(filtered.tip_offset - truth.tip_offset)
        err_unfiltered = np.linalg.norm(unfiltered.tip_offset - truth.tip_offset)
        assert filtered.removed_outliers == truth.outlier_indices.size
        assert err_filtered < err_unfiltered


class TestPairwiseObjective:
    def test_single_pose_is_zero(self):
        ds = PositionDataset([Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))])
        assert pairwise_objective(ds, [0.0, 0.0, 0.0]) == 0.0

    def test_two_poses_one_meter_apart(self):
        ds = PositionDataset(
            [
                Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3)),
                Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])),
            ]
        )
        assert pairwise_objective(ds, np.zeros(3)) == pytest.approx(2.0, abs=1e-12)

    def test_cap_enforced(self):
        ds, _ = clean_position_dataset(10, seed=11)
        with pytest.raises(ValueError):
            pairwise_objective(ds, np.zeros(3), cap=5)

    def test_least_squares_minimizer_is_pairwise_optimal(self):
        # oracle equivalence on noise-free data: direct local descent on the
        # exact pairwise sum finds nothing better than the LLS solution
        ds, truth = clean_position_dataset(50, seed=12)
        n = len(ds)
        result = calibrate_position(ds, params=None)
        at_solution = pairwise_objective(ds, result.tip_offset)
        rng = np.random.default_rng(13)
        best = math.inf
        for _ in range(10):
            start = truth.tip_offset + rng.uniform(-0.05, 0.05, 3)
            opt = minimize(
                lambda p: pairwise_objective(ds, p),
                x0=start,
                method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
            )
            best = min(best, float(opt.fun))
        assert at_solution <= best + 1e-9 * n * n


def orientation_dataset(true_rotation, axes=None, noise=0.0, poses_per_hole=40, seed=0):
    if axes is None:
        axes = [[0.0, 0.0, 1.0], [0.0, math.sin(math.pi / 4), math.cos(math.pi / 4)]]
    cfg = SynthConfig(
        true_calibration=Pose(true_rotation, TRUE_OFFSET),
        pivot_point=PIVOT,
        orientation_noise_std=noise,
        seed=seed,
    )
    return gen_orientation_dataset(cfg, axes, poses_per_hole)


class TestCalibrateOrientation:
    def test_identity_when_axes_already_aligned(self):
        ds, _ = orientation_dataset(np.array([0.0, 0.0, 0.0, 1.0]), seed=14)
        result = calibrate_orientation(ds, TRUE_OFFSET)
        recovered = quat_rotate(result.rotation, EZ)
        assert angle_between(recovered, EZ) < 1e-9
        assert result.residual_rms < 1e-9

    def test_recovers_ten_degree_tilt(self):
        true_q = quat_from_axis_angle([1.0, 0.0, 0.0], math.radians(10.0))
        ds, truth = orientation_dataset(true_q, seed=15)
        result = calibrate_orientation(ds, TRUE_OFFSET)
        recovered_axis = quat_rotate(result.rotation, EZ)
        true_axis = quat_rotate(truth.rotation, EZ)
        assert angle_between(recovered_axis, true_axis) < 1e-6

    def test_axis_error_below_one_degree_with_noise(self):
        true_q = quat_from_axis_angle([0.2, -0.3, 0.9], 0.15)
        ds, truth = orientation_dataset(true_q, noise=math.radians(0.2), poses_per_hole=100, seed=16)
        result = calibrate_orientation(ds, TRUE_OFFSET)
        recovered_axis = quat_rotate(result.rotation, EZ)
        true_axis = quat_rotate(truth.rotation, EZ)
        assert angle_between(recovered_axis, true_axis) < math.radians(1.0)

    def test_recovered_axis_invariant_to_initial_roll(self):
        true_q = quat_from_axis_angle([0.1, 0.7, 0.7], 0.3)
        ds, _ = orientation_dataset(true_q, noise=math.radians(0.1), seed=17)
        a = calibrate_orientation(ds, TRUE_OFFSET, initial_roll=0.0)
        b = calibrate_orientation(ds, TRUE_OFFSET, initial_roll=2.0)
        axis_a = quat_rotate(a.rotation, EZ)
        axis_b = quat_rotate(b.rotation, EZ)
        assert angle_between(axis_a, axis_b) < 1e-6

    def test_objective_at_solution_beats_truth(self):
        true_q = quat_from_axis_angle([0.5, 0.5, 0.7], 0.25)
        ds, truth = orientation_dataset(true_q, seed=18)
        result = calibrate_orientation(ds, TRUE_OFFSET)
        at_solution = orientation_objective(ds, result.rotation)
        at_truth = orientation_objective(ds, truth.rotation)
        assert at_solution <= at_truth + 1e-12

    def test_parallel_axes_warn_but_solve(self):
        ds, truth = orientation_dataset(
            quat_from_axis_angle([1, 0, 0], 0.1),
            axes=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
            seed=19,
        )
        with pytest.warns(DegenerateAxesWarning):
            result = calibrate_orientation(ds, TRUE_OFFSET)
        recovered_axis = quat_rotate(result.rotation, EZ)
        true_axis = quat_rotate(truth.rotation, EZ)
        assert angle_between(recovered_axis, true_axis) < 1e-6

    def test_single_hole_recovers_axis(self):
        ds, truth = orientation_dataset(
            quat_from_axis_angle([0, 1, 0], math.radians(5.0)),
            axes=[[0.0, 0.0, 1.0]],
            seed=20,
        )
        with pytest.warns(DegenerateAxesWarning):
            result = calibrate_orientation(ds, TRUE_OFFSET)
        recovered_axis = quat_rotate(result.rotation, EZ)
        true_axis = quat_rotate(truth.rotation, EZ)
        assert angle_between(recovered_axis, true_axis) < 1e-6

    def test_corrupted_poses_filtered(self):
        true_q = quat_from_axis_angle([1, 0, 0], 0.2)
        ds, truth = orientation_dataset(true_q, noise=math.radians(0.05), seed=21)
        rng = np.random.default_rng(22)
        for i, hole in enumerate(ds.holes):
            bad = [
                Pose(
                    quat_from_axis_angle(rng.normal(size=3), rng.uniform(0.5, 2.0)),
                    rng.normal(size=3),
                )
                for _ in range(3)
            ]
            ds.holes[i] = HoleRecording(hole.reference_axis, [*hole.poses, *bad])
        result = calibrate_orientation(ds, TRUE_OFFSET)
        assert result.removed_outliers >= 6
        recovered_axis = quat_rotate(result.rotation, EZ)
        true_axis = quat_rotate(truth.rotation, EZ)
        assert angle_between(recovered_axis, true_axis) < math.radians(0.5)

    def test_near_vertical_pitch_reanchors(self):
        # true tip axis close to the Euler pitch singularity
        true_q = quat_from_axis_angle([0.0, 1.0, 0.0], math.pi / 2 - 1e-4)
        ds, truth = orientation_dataset(
            true_q, axes=[[1.0, 0.0, 0.0], [math.cos(0.3), 0.0, math.sin(0.3)]], seed=24
        )
        result = calibrate_orientation(ds, TRUE_OFFSET)
        recovered_axis = quat_rotate(result.rotation, EZ)
        true_axis = quat_rotate(truth.rotation, EZ)
        assert angle_between(recovered_axis, true_axis) < 1e-6


GOLDEN_CALIBRATION = (
    '{\n'
    '  "translation": [0.01, -0.02, -0.12],\n'
    '  "rotation_quat": [0.10092060108179469, -0.019853396828187694, '
    '0.052206398569814925, 0.99332540834312777],\n'
    '  "position_residual_rms": 0.00014999999999999999,\n'
    '  "orientation_residual_rms": 0.0025000000000000001,\n'
    '  "filtered_outliers": 7\n'
    '}\n'
)


class TestAssembleAndSerialize:
    def test_zero_is_identity(self):
        calib = assemble_calibration(
            np.zeros(3), euler_to_rotation(EulerAngles(0, 0, 0)), 0.0, 0.0, 0
        )
        assert np.allclose(calib.transform.rotation, [0, 0, 0, 1])
        assert np.allclose(calib.transform.translation, 0.0)

    def test_pure_translation(self):
        calib = assemble_calibration(
            [0.0, 0.0, -0.1], euler_to_rotation(EulerAngles(0, 0, 0)), 0.0, 0.0, 0
        )
        assert np.allclose(calib.transform.translation, [0, 0, -0.1])

    def test_golden_file_round_trip(self, tmp_path):
        calib = assemble_calibration(
            [0.01, -0.02, -0.12], euler_to_rotation(EulerAngles(0.1, -0.05, 0.2)), 1.5e-4, 2.5e-3, 7
        )
        path = tmp_path / "calibration.json"
        save_calibration(calib, path)
        assert path.read_text() == GOLDEN_CALIBRATION
        loaded = load_calibration(path)
        assert np.array_equal(loaded.transform.rotation, calib.transform.rotation)
        assert np.array_equal(loaded.transform.translation, calib.transform.translation)
        assert loaded.position_residual_rms == calib.position_residual_rms
        assert loaded.orientation_residual_rms == calib.orientation_residual_rms
        assert loaded.filtered_outliers == calib.filtered_outliers
        save_calibration(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == GOLDEN_CALIBRATION

    def test_doc_round_trip(self):
        calib = assemble_calibration(
            [1e-3, 2e-3, -0.5], euler_to_rotation(EulerAngles(0.7, 0.2, -0.4)), 0.1, 0.2, 3
        )
        doc = calibration_to_doc(calib)
        assert list(doc.keys()) == [
            "translation",
            "rotation_quat",
            "position_residual_rms",
            "orientation_residual_rms",
            "filtered_outliers",
        ]
        back = calibration_from_doc(doc)
        assert np.array_equal(back.transform.rotation, calib.transform.rotation)


class TestHoleReferenceAxis:
    @pytest.mark.parametrize(
        "axis", [[0.0, 0.0, math.nan], [math.inf, 0.0, 1.0], [0.0, 0.0, 0.0]]
    )
    def test_non_finite_or_zero_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="finite and nonzero"):
            HoleRecording(axis, q=[[0.0, 0.0, 0.0, 1.0]], p=[[0.0, 0.0, 0.0]])


class TestPairwiseObjectiveBlocks:
    def test_matches_double_loop_in_any_block_size(self, monkeypatch):
        ds, truth = clean_position_dataset(60, seed=14, noise=1e-3)
        tips = candidate_tip_points(ds, truth.tip_offset)
        loop = sum(float(np.linalg.norm(a - b)) for a in tips for b in tips)
        for chunk in (1, 7 * 60, 1 << 20):
            monkeypatch.setattr(calib, "_PAIR_CHUNK", chunk)
            assert pairwise_objective(ds, truth.tip_offset) == pytest.approx(loop, rel=1e-12)
