"""Seeded synthetic data with known ground truth.

These generators are the verification oracle for the calibration solvers
and the evaluation metrics: position datasets whose true tip lands
exactly on a chosen pivot, orientation datasets whose true tip axis
matches each hole axis, and demonstrations that traverse an ideal path at
constant speed with configurable lateral noise and force profile.

All randomness comes from ``numpy.random.default_rng`` (the PCG64 bit
generator), so a given seed reproduces byte-identical datasets on every
platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calib import HoleRecording, OrientationDataset, PositionDataset
from .geometry import (
    Pose,
    TipTrack,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_rotate,
    rotation_between,
)
from .ingest import DemonstrationTrace
from .evaluation import IdealPath

_EZ = np.array([0.0, 0.0, 1.0])
_IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for dataset generation; same seed, same dataset."""

    true_calibration: Pose
    pivot_point: np.ndarray
    sample_count: int = 200
    rotation_span: float = math.radians(120.0)
    position_noise_std: float = 0.0
    orientation_noise_std: float = 0.0
    outlier_rate: float = 0.0
    outlier_magnitude: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "pivot_point", np.asarray(self.pivot_point, dtype=float).reshape(3)
        )
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        for name in ("position_noise_std", "orientation_noise_std", "outlier_magnitude"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.outlier_rate < 0.5:
            raise ValueError("outlier_rate must be in [0, 0.5)")


@dataclass
class PositionGroundTruth:
    tip_offset: np.ndarray
    pivot_point: np.ndarray
    outlier_indices: np.ndarray


@dataclass
class OrientationGroundTruth:
    rotation: np.ndarray
    hole_axes: np.ndarray


@dataclass(frozen=True)
class ConstantForce:
    value: float

    def sample(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.value)


@dataclass(frozen=True)
class SineForce:
    frequency_hz: float
    amplitude: float
    offset: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.offset + self.amplitude * np.sin(2.0 * math.pi * self.frequency_hz * t)


def _random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def gen_position_dataset(cfg: SynthConfig) -> tuple[PositionDataset, PositionGroundTruth]:
    """Simulate a pivot recording: tip fixed, fiducial body rotating.

    Fiducial poses are built so the true tip lands exactly on the pivot,
    then translation/rotation noise is applied and a deterministic count
    ``round(outlier_rate * N)`` of samples is displaced by
    ``outlier_magnitude`` in random directions.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.sample_count
    p = cfg.true_calibration.translation

    axes = _random_units(rng, n)
    angles = rng.uniform(-cfg.rotation_span / 2.0, cfg.rotation_span / 2.0, n)
    quats = [quat_from_axis_angle(axes[i], float(angles[i])) for i in range(n)]
    translations = np.array([cfg.pivot_point - quat_rotate(q, p) for q in quats])

    if cfg.position_noise_std > 0.0:
        translations = translations + rng.normal(0.0, cfg.position_noise_std, (n, 3))
    if cfg.orientation_noise_std > 0.0:
        noise_axes = _random_units(rng, n)
        noise_angles = rng.normal(0.0, cfg.orientation_noise_std, n)
        quats = [
            quat_multiply(quat_from_axis_angle(noise_axes[i], float(noise_angles[i])), quats[i])
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


def gen_orientation_dataset(
    cfg: SynthConfig,
    hole_axes,
    poses_per_hole: int = 50,
) -> tuple[OrientationDataset, OrientationGroundTruth]:
    """Simulate hole recordings: tip axis on the hole axis, body spinning.

    Hole positions are spaced along world x so the generated files are
    physically consistent; only the rotations matter to the solver.
    """
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
            tip_frame = quat_multiply(align, quat_from_axis_angle(_EZ, float(spin)))
            body = quat_multiply(tip_frame, tip_rotation_inv)
            translation = hole_position - quat_rotate(body, p)
            if cfg.orientation_noise_std > 0.0:
                noise_axis = _random_units(rng, 1)[0]
                noise_angle = float(rng.normal(0.0, cfg.orientation_noise_std))
                body = quat_multiply(quat_from_axis_angle(noise_axis, noise_angle), body)
            if cfg.position_noise_std > 0.0:
                translation = translation + rng.normal(0.0, cfg.position_noise_std, 3)
            poses.append(Pose(body, translation))
        holes.append(HoleRecording(reference_axis=axis, poses=poses))

    truth = OrientationGroundTruth(rotation=tip_rotation.copy(), hole_axes=axes)
    return OrientationDataset(holes=holes), truth


def gen_demonstration(
    path: IdealPath,
    lateral_noise_std: float = 0.0,
    speed: float = 0.05,
    sample_rate: float = 200.0,
    force_profile: ConstantForce | SineForce = ConstantForce(1.0),
    seed: int = 0,
) -> DemonstrationTrace:
    """Traverse the ideal path at constant speed with lateral Gaussian noise.

    Samples fall on the uniform-rate grid plus the exact waypoint arc
    lengths, so a zero-noise demonstration contains every corner and
    evaluates to zero error.
    """
    if speed <= 0.0 or sample_rate <= 0.0:
        raise ValueError("speed and sample_rate must be positive")
    if lateral_noise_std < 0.0:
        raise ValueError("lateral_noise_std must be non-negative")
    rng = np.random.default_rng(seed)

    vertices = path.waypoints[list(path.visiting_sequence)]
    deltas = np.diff(vertices, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    total = float(cumulative[-1])

    step = speed / sample_rate
    grid = np.arange(int(math.floor(total / step + 1e-9)) + 1) * step
    # keep corner arc lengths exactly; drop grid points that collide with them
    tol = 1e-9 * max(1.0, total)
    near_corner = np.min(np.abs(grid[:, None] - cumulative[None, :]), axis=1) < tol
    arcs = np.unique(np.concatenate([grid[~near_corner], cumulative]))
    arcs = np.clip(arcs, 0.0, total)

    segment_of = np.clip(np.searchsorted(cumulative, arcs, side="right") - 1, 0, len(lengths) - 1)
    local = (arcs - cumulative[segment_of]) / lengths[segment_of]
    xy = vertices[segment_of] + local[:, None] * deltas[segment_of]

    units = deltas / lengths[:, None]
    normals = np.column_stack([-units[:, 1], units[:, 0]])
    noise = rng.normal(size=arcs.size) * lateral_noise_std
    xy = xy + noise[:, None] * normals[segment_of]

    times = arcs / speed
    forces = force_profile.sample(times)
    track = TipTrack(
        times, np.column_stack([xy, np.zeros(arcs.size)]), np.tile(_IDENTITY_QUAT, (arcs.size, 1))
    )
    return DemonstrationTrace(points=track, forces=forces, source="stylus")
