"""The row-wise synth generators and row writer against the per-sample code
they replaced.

``gen_position_dataset``, ``gen_orientation_dataset`` and
``gen_demonstration`` used to build one quaternion and one ``Pose`` per
sample (and, for demonstrations, one grid-by-corner distance matrix); the
pose CSV writer formatted each value through ``csv_row``.  Those versions
are kept below, verbatim apart from their names, as oracles: every array,
outlier index and written byte must be the same, and a zero rotation axis
must raise at the same row.  The last class runs ``simulate`` itself and
compares its files with the oracles on this machine, so no digest is
pinned to one BLAS or libm.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_row

from styluskit import cli
from styluskit.errors import ZeroVector
from styluskit.geometry import (
    HoleRecording,
    OrientationDataset,
    Pose,
    PositionDataset,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    rotation_between,
    vec3,
)
from styluskit.ingest import POSE_CSV_HEADER, IdealPath
from styluskit.jsonio import write_csv as _write_rows
from styluskit.jsonio import write_json
from styluskit.synth import (
    OrientationGroundTruth,
    PositionGroundTruth,
    SynthConfig,
    gen_demonstration,
    gen_orientation_dataset,
    gen_position_dataset,
    synth_config_from_doc,
)

_EZ = np.array([0.0, 0.0, 1.0])
_UNIT_TOL = 1e-12


# ------------------------------------------------------------------ oracles


def _quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    a = vec3(axis)
    n = np.linalg.norm(a)
    if n < _UNIT_TOL:
        raise ZeroVector("rotation axis has (near-)zero norm")
    a = a / n
    h = 0.5 * angle
    return quat_normalize(np.append(a * math.sin(h), math.cos(h)))


def _random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _gen_position_dataset(cfg: SynthConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.sample_count
    p = cfg.true_calibration.translation

    axes = _random_units(rng, n)
    angles = rng.uniform(-cfg.rotation_span / 2.0, cfg.rotation_span / 2.0, n)
    quats = [_quat_from_axis_angle(axes[i], float(angles[i])) for i in range(n)]
    translations = np.array([cfg.pivot_point - quat_rotate(q, p) for q in quats])

    if cfg.position_noise_std > 0.0:
        translations = translations + rng.normal(0.0, cfg.position_noise_std, (n, 3))
    if cfg.orientation_noise_std > 0.0:
        noise_axes = _random_units(rng, n)
        noise_angles = rng.normal(0.0, cfg.orientation_noise_std, n)
        quats = [
            quat_multiply(_quat_from_axis_angle(noise_axes[i], float(noise_angles[i])), quats[i])
            for i in range(n)
        ]

    outlier_count = int(round(cfg.outlier_rate * n))
    if outlier_count:
        indices = np.sort(rng.choice(n, size=outlier_count, replace=False))
        directions = _random_units(rng, outlier_count)
        translations[indices] += cfg.outlier_magnitude * directions
    else:
        indices = np.array([], dtype=int)

    poses = [Pose(quats[i], translations[i]) for i in range(n)]
    truth = PositionGroundTruth(
        tip_offset=p.copy(), pivot_point=cfg.pivot_point.copy(), outlier_indices=indices
    )
    return PositionDataset(poses=poses), truth


def _gen_orientation_dataset(cfg: SynthConfig, hole_axes, poses_per_hole: int = 50):
    axes = np.asarray(hole_axes, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(axes, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms >= 1e-12)):
        raise ValueError("hole axes must be finite and nonzero")
    axes = axes / norms
    if poses_per_hole < 1:
        raise ValueError("poses_per_hole must be positive")
    rng = np.random.default_rng(cfg.seed)
    tip_rotation = cfg.true_calibration.rotation
    tip_rotation_inv = quat_conjugate(tip_rotation)
    p = cfg.true_calibration.translation

    holes = []
    for hole_index, axis in enumerate(axes):
        align = rotation_between(_EZ, axis)
        hole_position = np.array([0.1 * hole_index, 0.0, 0.0])
        spins = rng.uniform(0.0, 2.0 * math.pi, poses_per_hole)
        poses = []
        for spin in spins:
            tip_frame = quat_multiply(align, _quat_from_axis_angle(_EZ, float(spin)))
            body = quat_multiply(tip_frame, tip_rotation_inv)
            translation = hole_position - quat_rotate(body, p)
            if cfg.orientation_noise_std > 0.0:
                noise_axis = _random_units(rng, 1)[0]
                noise_angle = float(rng.normal(0.0, cfg.orientation_noise_std))
                body = quat_multiply(_quat_from_axis_angle(noise_axis, noise_angle), body)
            if cfg.position_noise_std > 0.0:
                translation = translation + rng.normal(0.0, cfg.position_noise_std, 3)
            poses.append(Pose(body, translation))
        holes.append(HoleRecording(reference_axis=axis, poses=poses))

    truth = OrientationGroundTruth(rotation=tip_rotation.copy(), hole_axes=axes)
    return OrientationDataset(holes=holes), truth


def _demonstration_arcs(path: IdealPath, speed: float, sample_rate: float) -> np.ndarray:
    """The sample arc lengths of ``gen_demonstration``, with the corner
    test on the full grid-by-corner matrix."""
    vertices = path.waypoints[list(path.visiting_sequence)]
    lengths = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    total = float(cumulative[-1])
    step = speed / sample_rate
    grid = np.arange(int(math.floor(total / step + 1e-9)) + 1) * step
    tol = 1e-9 * max(1.0, total)
    near_corner = np.min(np.abs(grid[:, None] - cumulative[None, :]), axis=1) < tol
    arcs = np.unique(np.concatenate([grid[~near_corner], cumulative]))
    return np.clip(arcs, 0.0, total)


def _write_rows_per_value(stream, header: str, columns) -> None:
    stream.write(header + "\n")
    for start in range(0, len(columns[0]), 1024):
        block = np.column_stack([c[start : start + 1024] for c in columns])
        stream.writelines(csv_row(row) + "\n" for row in block.tolist())


# --------------------------------------------------------------- strategies

TRUE_CALIBRATION = Pose(
    _quat_from_axis_angle([1.0, 0.5, 0.2], 0.3), np.array([0.01, -0.02, -0.12])
)


def synth_config(seed, n, position_noise, orientation_noise, outlier_rate, span_deg=120.0):
    return SynthConfig(
        true_calibration=TRUE_CALIBRATION,
        pivot_point=np.array([0.4, 0.1, 0.02]),
        sample_count=n,
        rotation_span=math.radians(span_deg),
        position_noise_std=1e-4 if position_noise else 0.0,
        orientation_noise_std=math.radians(0.1) if orientation_noise else 0.0,
        outlier_rate=outlier_rate,
        outlier_magnitude=0.08,
        seed=seed,
    )


seeds = st.integers(0, 2**32 - 1)
outlier_rates = st.one_of(st.just(0.0), st.floats(0.0, 0.45))
hole_axes = st.lists(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3),
    min_size=1,
    max_size=4,
)


def same_rows(dataset, oracle):
    assert dataset.q.tobytes() == oracle.q.tobytes()
    assert dataset.p.tobytes() == oracle.p.tobytes()


# ---------------------------------------------------------------- the tests


class TestAxisAngleRows:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=st.integers(1, 3000), scale=st.sampled_from([1.0, 1e-6, 3e5]))
    def test_rows_match_scalar_calls(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(n, 3)) * scale
        angles = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, n)
        expected = np.array([_quat_from_axis_angle(a, float(h)) for a, h in zip(axes, angles)])
        assert quat_from_axis_angle(axes, angles).tobytes() == expected.tobytes()

    def test_unit_rows_match_scalar_calls(self):
        # Unit rows, as the generators draw them: the norm must be the
        # same dot product, not einsum or a sum of squares.
        rng = np.random.default_rng(20240)
        axes = _random_units(rng, 20000)
        angles = rng.uniform(-math.pi, math.pi, 20000)
        expected = np.array([_quat_from_axis_angle(a, float(h)) for a, h in zip(axes, angles)])
        assert quat_from_axis_angle(axes, angles).tobytes() == expected.tobytes()

    def test_strided_rows_match_scalar_calls_on_copies(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(500, 7))
        axes, angles = block[:, 2:5], block[:, 6]
        expected = np.array(
            [_quat_from_axis_angle(a.copy(), float(h)) for a, h in zip(axes, angles)]
        )
        assert quat_from_axis_angle(axes, angles).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [0, 3, 9])
    @pytest.mark.parametrize("zero", [0.0, 1e-13])
    def test_zero_axis_raises_at_its_row(self, bad, zero):
        rng = np.random.default_rng(bad)
        axes = rng.normal(size=(10, 3))
        axes[bad] = zero
        axes[min(bad + 1, 9)] = 0.0  # a later zero row must not be the one named
        angles = np.linspace(0.0, 1.0, 10)
        for row, (axis, angle) in enumerate(zip(axes, angles)):
            try:
                _quat_from_axis_angle(axis, float(angle))
            except ZeroVector:
                break
        assert row == bad
        with pytest.raises(ZeroVector, match=rf"\(row {bad}\)"):
            quat_from_axis_angle(axes, angles)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_pass_through_like_the_scalar_call(self):
        axes = np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]])
        angles = np.array([0.3, 0.2, np.nan])
        expected = np.array([_quat_from_axis_angle(a, float(h)) for a, h in zip(axes, angles)])
        assert quat_from_axis_angle(axes, angles).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("axes, angles", [(np.ones((3, 2)), np.ones(3)), (np.ones((3, 3)), np.ones(2))])
    def test_shape_mismatch_rejected(self, axes, angles):
        with pytest.raises(ValueError):
            quat_from_axis_angle(axes, angles)


class TestPositionGeneratorOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=seeds,
        n=st.integers(1, 3000),
        position_noise=st.booleans(),
        orientation_noise=st.booleans(),
        outlier_rate=outlier_rates,
        span_deg=st.sampled_from([120.0, 1.0, 720.0]),
    )
    def test_same_rows_and_outliers(
        self, seed, n, position_noise, orientation_noise, outlier_rate, span_deg
    ):
        cfg = synth_config(seed, n, position_noise, orientation_noise, outlier_rate, span_deg)
        dataset, truth = gen_position_dataset(cfg)
        oracle, oracle_truth = _gen_position_dataset(cfg)
        same_rows(dataset, oracle)
        assert truth.outlier_indices.tobytes() == oracle_truth.outlier_indices.tobytes()
        assert truth.tip_offset.tobytes() == oracle_truth.tip_offset.tobytes()
        assert truth.pivot_point.tobytes() == oracle_truth.pivot_point.tobytes()


class TestOrientationGeneratorOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=seeds,
        poses_per_hole=st.integers(1, 600),
        axes=hole_axes,
        position_noise=st.booleans(),
        orientation_noise=st.booleans(),
    )
    def test_same_rows_per_hole(self, seed, poses_per_hole, axes, position_noise, orientation_noise):
        cfg = synth_config(seed, 10, position_noise, orientation_noise, 0.0)
        dataset, truth = gen_orientation_dataset(cfg, axes, poses_per_hole)
        oracle, oracle_truth = _gen_orientation_dataset(cfg, axes, poses_per_hole)
        assert len(dataset.holes) == len(oracle.holes)
        for hole, expected in zip(dataset.holes, oracle.holes):
            same_rows(hole, expected)
            assert hole.reference_axis.tobytes() == expected.reference_axis.tobytes()
        assert truth.hole_axes.tobytes() == oracle_truth.hole_axes.tobytes()
        assert truth.rotation.tobytes() == oracle_truth.rotation.tobytes()

    @pytest.mark.parametrize("position_noise", [False, True])
    @pytest.mark.parametrize("orientation_noise", [False, True])
    def test_noise_combinations(self, position_noise, orientation_noise):
        cfg = synth_config(4321, 10, position_noise, orientation_noise, 0.0)
        axes = [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.0, 0.0, -1.0]]
        dataset, _ = gen_orientation_dataset(cfg, axes, 1333)
        oracle, _ = _gen_orientation_dataset(cfg, axes, 1333)
        for hole, expected in zip(dataset.holes, oracle.holes):
            same_rows(hole, expected)


class TestDemonstrationArcsOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), min_size=2, max_size=6
        ).filter(lambda ps: all(math.dist(a, b) > 1e-6 for a, b in zip(ps, ps[1:]))),
        speed=st.floats(0.01, 0.2),
        sample_rate=st.floats(20.0, 500.0),
    )
    def test_same_samples(self, points, speed, sample_rate):
        path = IdealPath(waypoints=points, visiting_sequence=tuple(range(len(points))))
        trace = gen_demonstration(path, speed=speed, sample_rate=sample_rate)
        arcs = _demonstration_arcs(path, speed, sample_rate)
        assert trace.times.tobytes() == (arcs / speed).tobytes()

    STAIRS = IdealPath(
        waypoints=[[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.2, 0.1]], visiting_sequence=(0, 1, 2, 3)
    )
    # Rates at which some grid point of STAIRS lands within the tolerance
    # just above a corner (and some just below): both must be dropped.
    ABOVE_A_CORNER = [75.0, 150.0, 201.0]

    @pytest.mark.parametrize("sample_rate", [100.0, *ABOVE_A_CORNER])
    def test_grid_points_beside_the_corners(self, sample_rate):
        trace = gen_demonstration(self.STAIRS, speed=0.05, sample_rate=sample_rate)
        arcs = _demonstration_arcs(self.STAIRS, 0.05, sample_rate)
        assert trace.times.tobytes() == (arcs / 0.05).tobytes()

    @pytest.mark.parametrize("sample_rate", ABOVE_A_CORNER)
    def test_a_grid_point_lands_just_above_a_corner(self, sample_rate):
        vertices = self.STAIRS.waypoints[list(self.STAIRS.visiting_sequence)]
        lengths = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
        cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
        step = 0.05 / sample_rate
        grid = np.arange(int(math.floor(cumulative[-1] / step + 1e-9)) + 1) * step
        gap = grid[:, None] - cumulative[None, :]
        assert ((gap > 0.0) & (gap < 1e-9)).any()


SPECIAL = [
    math.nan, -math.nan, np.copysign(math.nan, -1.0), math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e-308, -1e-308,
    1.7976931348623157e308, 3.0, -42.0, 2.0**53, 2.0**53 + 2.0, 0.1, 1.0 / 3.0,
]


class TestRowWriter:
    @staticmethod
    def both(columns, header=POSE_CSV_HEADER):
        new, old = io.StringIO(), io.StringIO()
        _write_rows(new, header, columns)
        _write_rows_per_value(old, header, columns)
        return new.getvalue(), old.getvalue()

    def test_special_values(self):
        values = np.array(SPECIAL)
        rng = np.random.default_rng(1)
        columns = [rng.permutation(values) for _ in range(8)]
        new, old = self.both(columns)
        assert new == old
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308", "3"} <= set(
            new.replace("\n", ",").split(",")
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(0, 2600),
        width=st.integers(1, 8),
        values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64),
    )
    def test_any_floats(self, rows, width, values):
        pool = np.array(values)
        columns = [np.resize(np.roll(pool, k), rows) for k in range(width)]
        new, old = self.both(columns, ",".join(f"c{k}" for k in range(width)))
        assert new == old

    def test_mixed_column_widths(self):
        rng = np.random.default_rng(2)
        n = 3000
        columns = [np.arange(n) / 100.0, rng.normal(size=(n, 3)), rng.normal(size=(n, 4))]
        new, old = self.both(columns)
        assert new == old


class TestSimulateBytes:
    """``simulate`` writes the bytes of the per-sample generators and the
    per-value writer, computed here on the same machine."""

    @staticmethod
    def simulate(tmp_path, doc):
        config = tmp_path / "config.json"
        write_json(config, doc)
        out = tmp_path / "out"
        assert cli.main(["simulate", str(config), "--out-dir", str(out)]) == 0
        return out

    @staticmethod
    def expected_pose_csv(dataset) -> bytes:
        stream = io.StringIO()
        _write_rows_per_value(
            stream, POSE_CSV_HEADER, [np.arange(len(dataset)) / 100.0, dataset.p, dataset.q]
        )
        return stream.getvalue().encode("utf-8")

    BASE = {
        "seed": 4321,
        "true_translation": [0.01, -0.02, -0.12],
        "true_rotation_ypr_deg": [10.0, -4.0, 7.0],
        "position_noise_std": 1e-4,
        "orientation_noise_std_deg": 0.2,
    }

    def test_position(self, tmp_path, capsys):
        doc = {
            **self.BASE,
            "kind": "position",
            "sample_count": 1500,
            "pivot_point": [0.4, 0.1, 0.02],
            "outlier_rate": 0.05,
            "outlier_magnitude": 0.1,
        }
        out = self.simulate(tmp_path, doc)
        oracle, truth = _gen_position_dataset(synth_config_from_doc(doc))
        assert (out / "poses.csv").read_bytes() == self.expected_pose_csv(oracle)
        written = json.loads((out / "truth.json").read_text())
        assert written["outlier_indices"] == truth.outlier_indices.tolist()
        assert written["outlier_count"] == 75

    def test_orientation(self, tmp_path, capsys):
        doc = {
            **self.BASE,
            "kind": "orientation",
            "hole_axes": [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.3, -0.2, 0.9]],
            "poses_per_hole": 400,
        }
        out = self.simulate(tmp_path, doc)
        oracle, _ = _gen_orientation_dataset(synth_config_from_doc(doc), doc["hole_axes"], 400)
        for i, hole in enumerate(oracle.holes):
            assert (out / f"hole_{i:02d}.csv").read_bytes() == self.expected_pose_csv(hole)
