from __future__ import annotations

import io
import json
import math
import warnings

import numpy as np
import pytest
from oracles import candidate_tip_points

from styluskit.calib import calibrate_orientation, calibrate_position
from styluskit.evaluation import evaluate_demonstrations, force_spectrum
from styluskit.geometry import (
    Pose,
    angle_between,
    quat_from_axis_angle,
    quat_rotate,
)
from styluskit.ingest import (
    ForceRecording,
    IdealPath,
    PoseRecording,
    parse_demo_csv,
    parse_pose_csv,
    write_demo_csv,
    write_pose_csv,
)
from styluskit.cli import main
from styluskit.errors import FormatError, InputError
from styluskit.synth import (
    ConstantForce,
    SineForce,
    SynthConfig,
    demonstration_from_doc,
    gen_demonstration,
    gen_orientation_dataset,
    gen_position_dataset,
    load_config,
    orientation_config_from_doc,
    synth_config_from_doc,
)

EZ = np.array([0.0, 0.0, 1.0])


def config(**overrides):
    defaults = dict(
        true_calibration=Pose(
            quat_from_axis_angle([1.0, 0.5, 0.2], 0.3), np.array([0.01, -0.02, -0.12])
        ),
        pivot_point=np.array([0.4, 0.1, 0.02]),
        sample_count=200,
        seed=7,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestPositionGenerator:
    def test_noise_free_tips_on_pivot(self):
        ds, truth = gen_position_dataset(config())
        tips = candidate_tip_points(ds, truth.tip_offset)
        assert np.max(np.linalg.norm(tips - truth.pivot_point, axis=1)) < 1e-12

    def test_outlier_count_deterministic(self):
        ds, truth = gen_position_dataset(config(sample_count=1000, outlier_rate=0.1))
        assert truth.outlier_indices.size == 100

    def test_same_seed_bit_identical(self):
        ds1, _ = gen_position_dataset(config())
        ds2, _ = gen_position_dataset(config())
        for a, b in zip(ds1.poses, ds2.poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_different_seed_differs(self):
        ds1, _ = gen_position_dataset(config(seed=1))
        ds2, _ = gen_position_dataset(config(seed=2))
        assert not np.array_equal(ds1.poses[0].translation, ds2.poses[0].translation)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            config(outlier_rate=0.6)


class TestOrientationGenerator:
    def test_identity_rotation_measures_references(self):
        cfg = config(true_calibration=Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, -0.12])))
        axes = [[0.0, 0.0, 1.0], [0.0, math.sin(0.7), math.cos(0.7)]]
        ds, _ = gen_orientation_dataset(cfg, axes, poses_per_hole=10)
        for hole in ds.holes:
            for pose in hole.poses:
                measured = quat_rotate(pose.rotation, EZ)
                assert angle_between(measured, hole.reference_axis) < 1e-9

    def test_closure_recovers_small_tilt(self):
        true_q = quat_from_axis_angle([0.0, 1.0, 0.0], math.radians(5.0))
        cfg = config(true_calibration=Pose(true_q, np.array([0.0, 0.0, -0.12])))
        ds, truth = gen_orientation_dataset(
            cfg, [[0.0, 0.0, 1.0], [0.0, math.sin(0.8), math.cos(0.8)]], poses_per_hole=40
        )
        result = calibrate_orientation(ds, np.zeros(3))
        recovered = quat_rotate(result.rotation, EZ)
        assert angle_between(recovered, quat_rotate(truth.rotation, EZ)) < 1e-6

    def test_generator_solver_closure_with_tiny_noise(self):
        true_q = quat_from_axis_angle([0.3, -0.2, 0.9], 0.4)
        cfg = config(
            true_calibration=Pose(true_q, np.array([0.005, 0.01, -0.1])),
            position_noise_std=1e-7,
            orientation_noise_std=1e-7,
            sample_count=400,
        )
        position_ds, position_truth = gen_position_dataset(cfg)
        position = calibrate_position(position_ds)
        assert np.linalg.norm(position.tip_offset - position_truth.tip_offset) < 1e-6

        orientation_ds, orientation_truth = gen_orientation_dataset(
            cfg, [[0.0, 0.0, 1.0], [math.sin(0.6), 0.0, math.cos(0.6)]], poses_per_hole=60
        )
        orientation = calibrate_orientation(orientation_ds, position.tip_offset)
        recovered = quat_rotate(orientation.rotation, EZ)
        true_axis = quat_rotate(orientation_truth.rotation, EZ)
        assert angle_between(recovered, true_axis) < 1e-6


SQUARE = IdealPath(
    waypoints=[[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1]],
    visiting_sequence=(0, 1, 2, 3, 0),
)


class TestDemonstrationGenerator:
    def test_zero_noise_zero_errors(self):
        trace = gen_demonstration(SQUARE, lateral_noise_std=0.0, speed=0.05, sample_rate=100.0)
        report = evaluate_demonstrations([trace], SQUARE, n=50)
        assert report.epsilon_fraction == 1.0
        for sampled in report.per_trace[0]:
            assert not sampled.missing.any()
            assert np.allclose(sampled.signed_error, 0.0, atol=1e-9)

    def test_same_seed_bit_identical(self):
        a = gen_demonstration(SQUARE, lateral_noise_std=0.001, seed=5)
        b = gen_demonstration(SQUARE, lateral_noise_std=0.001, seed=5)
        assert np.array_equal(a.positions, b.positions)

    def test_gaussian_tail_matches_epsilon_fraction(self):
        # independent oracle: P(|X| <= 3 sigma) = erf(3 / sqrt(2))
        sigma = 0.001
        traces = [
            gen_demonstration(SQUARE, lateral_noise_std=sigma, speed=0.05, sample_rate=400.0, seed=s)
            for s in range(7)
        ]
        report = evaluate_demonstrations(traces, SQUARE, n=400, epsilon=3 * sigma)
        pooled = np.concatenate(
            [seg.signed_error for sampled in report.per_trace for seg in sampled]
        )
        assert pooled[np.isfinite(pooled)].size >= 10_000
        expected = math.erf(3.0 / math.sqrt(2.0))
        assert abs(report.epsilon_fraction - expected) <= 0.01

    def test_sine_force_profile_recovered_by_spectrum(self):
        trace = gen_demonstration(
            SQUARE,
            speed=0.05,
            sample_rate=100.0,
            force_profile=SineForce(frequency_hz=2.0, amplitude=0.8, offset=1.2),
        )
        recording = ForceRecording(trace.times, trace.forces)
        spectrum = force_spectrum(recording)
        peak = int(np.argmax(spectrum.amplitudes[1:])) + 1
        assert spectrum.frequencies[peak] == pytest.approx(2.0, abs=spectrum.bin_width)

    def test_constant_force(self):
        trace = gen_demonstration(SQUARE, force_profile=ConstantForce(2.5))
        assert np.allclose(trace.forces, 2.5)

    def test_waypoints_are_sampled_exactly(self):
        trace = gen_demonstration(SQUARE, lateral_noise_std=0.0, speed=0.07, sample_rate=93.0)
        positions = trace.positions[:, :2]
        for waypoint in SQUARE.waypoints:
            distances = np.linalg.norm(positions - np.asarray(waypoint), axis=1)
            assert distances.min() < 1e-12


class TestCsvRoundTrip:
    def test_position_dataset_round_trips_through_pose_csv(self):
        ds, _ = gen_position_dataset(config(sample_count=20, position_noise_std=1e-4))
        recording = PoseRecording("world", t=np.arange(len(ds)) / 100.0, q=ds.q, p=ds.p)
        out = io.StringIO()
        write_pose_csv(recording, out)
        back = parse_pose_csv(io.StringIO(out.getvalue()))
        assert np.array_equal(recording.t, back.t)
        assert np.array_equal(recording.p, back.p)
        assert np.array_equal(recording.q, back.q)

    def test_demonstration_round_trips_through_demo_csv(self):
        trace = gen_demonstration(SQUARE, lateral_noise_std=0.0005, seed=9)
        out = io.StringIO()
        write_demo_csv(trace, out)
        back = parse_demo_csv(io.StringIO(out.getvalue()))
        assert np.array_equal(back.positions, trace.positions)
        assert np.array_equal(back.forces, trace.forces)
        out2 = io.StringIO()
        write_demo_csv(back, out2)
        assert out.getvalue() == out2.getvalue()


def no_warning_raises(error, call, *args, **kwargs):
    """The error ``call`` raises, with any warning ahead of it failing the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as excinfo:
            call(*args, **kwargs)
    return excinfo.value


class TestNonFiniteSamples:
    """Config values that overflow are refused before any sample is
    written, with no numpy warning ahead of the error."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"lateral_noise_std": 1e308}, {"force_profile": SineForce(1e308, 1.0)},
         {"sample_rate": 5e-324}, {"speed": 1e-310, "sample_rate": 1e-316},
         {"force_profile": ConstantForce(math.inf)}],
    )
    def test_demonstration(self, kwargs):
        exc = no_warning_raises(ValueError, gen_demonstration, SQUARE, **kwargs)
        assert "generated samples are not finite" in str(exc)

    @pytest.mark.parametrize(
        "waypoints",
        [[[0.0, 0.0], [1e308, 0.0]], [[0.0, 0.0], [0.0, -1e308]], [[-1e308, 0.0], [1e308, 0.0]]],
    )
    def test_demonstration_path_whose_length_overflows(self, waypoints):
        exc = no_warning_raises(
            InputError, lambda: gen_demonstration(IdealPath(waypoints, (0, 1)))
        )
        assert str(exc).startswith("inf demonstration samples (path length x rate / speed)")

    def test_hole_axis_whose_norm_overflows(self):
        exc = no_warning_raises(ValueError, gen_orientation_dataset, config(), [[1e308, 0.6, 0.8]])
        assert str(exc) == "hole axes must be finite and nonzero"

    def test_counts_beyond_the_float_range_are_named(self):
        exc = no_warning_raises(InputError, config, sample_count=10**400)
        assert str(exc) == f"{10**400} samples (sample_count): at most 1000000"
        exc = no_warning_raises(InputError, gen_orientation_dataset, config(), [EZ, EZ], 10**400)
        assert "(holes x poses_per_hole): at most 1000000" in str(exc)


PATH_DOC = {"waypoints": [[0.0, 0.0], [0.1, 0.0]], "visiting_sequence": [0, 1]}


class TestConfigReaders:
    """Each simulate config reader raises the ``FormatError`` whose text
    ``simulate`` prints, read here in-library and through the CLI."""

    CASES = [
        (synth_config_from_doc, {"kind": "position", "position_noise_std": "0"},
         'bad synthesis config: position_noise_std must be a number, got "0"'),
        (synth_config_from_doc, {"kind": "position", "true_rotation_ypr_deg": [0, 0]},
         "bad synthesis config: expected a 3-vector, got shape (2,)"),
        (synth_config_from_doc, {"kind": "position", "sample_count": 0},
         "bad synthesis config: sample_count must be positive"),
        (synth_config_from_doc, {"kind": "position", "pivot_point": [0, math.inf, 0]},
         "bad synthesis config: pivot_point must be finite"),
        (orientation_config_from_doc, {"kind": "orientation"},
         "orientation config needs 'hole_axes'"),
        (orientation_config_from_doc, {"kind": "orientation", "hole_axes": [[0, 0, 1]],
                                       "poses_per_hole": 2.5},
         "bad synthesis config: poses_per_hole must be an integer, got 2.5"),
        (orientation_config_from_doc, {"kind": "orientation", "hole_axes": "z"},
         'bad synthesis config: hole_axes must be a number, got "z"'),
        (demonstration_from_doc, {"kind": "demonstration"},
         "demonstration config needs 'path'"),
        (demonstration_from_doc, {"kind": "demonstration", "path": {"waypoints": []}},
         "bad ideal path document: 'visiting_sequence'"),
        (demonstration_from_doc, {"kind": "demonstration", "path": PATH_DOC, "speed": True},
         "bad demonstration config: speed must be a number, got true"),
        (demonstration_from_doc, {"kind": "demonstration", "path": PATH_DOC, "force_profile": [1]},
         "force_profile must be a JSON object"),
        (demonstration_from_doc, {"kind": "demonstration", "path": PATH_DOC,
                                  "force_profile": {"kind": "saw"}},
         "unknown force profile kind 'saw'"),
        (demonstration_from_doc, {"kind": "demonstration", "path": PATH_DOC,
                                  "force_profile": {"kind": "sine", "amplitude": "big"}},
         'bad demonstration config: amplitude must be a number, got "big"'),
        (demonstration_from_doc, {"kind": "demonstration", "path": PATH_DOC, "seed": -1.5},
         "bad demonstration config: seed must be an integer, got -1.5"),
    ]

    @pytest.mark.parametrize(
        "reader, doc, message", CASES, ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(CASES)]
    )
    def test_bad_config(self, tmp_path, capsys, reader, doc, message):
        exc = no_warning_raises(FormatError, reader, doc)
        assert str(exc) == message
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["simulate", str(config_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("doc", [[1, 2], "position", None])
    def test_config_not_an_object(self, tmp_path, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        exc = no_warning_raises(FormatError, load_config, config_path)
        assert str(exc) == f"{config_path}: synthesis config must be a JSON object"

    def test_defaults(self):
        cfg = synth_config_from_doc({})
        assert (cfg.sample_count, cfg.seed, cfg.rotation_span) == (200, 0, math.radians(120.0))
        assert cfg.true_calibration.translation.tolist() == [0.0, 0.0, 0.0]
        _, axes, poses_per_hole = orientation_config_from_doc({"hole_axes": [[0, 0, 1]]})
        assert (axes.tolist(), poses_per_hole) == ([[0.0, 0.0, 1.0]], 50)
        path, params = demonstration_from_doc({"path": PATH_DOC})
        assert path.visiting_sequence == (0, 1)
        assert params.pop("force_profile").value == 1.0
        assert params == {"lateral_noise_std": 0.0, "speed": 0.05, "sample_rate": 200.0, "seed": 0}
