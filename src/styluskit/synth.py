"""Seeded synthetic data with known ground truth.

These generators are the verification oracle for the calibration solvers
and the evaluation metrics: position datasets whose true tip lands
exactly on a chosen pivot, orientation datasets whose true tip axis
matches each hole axis, and demonstrations that traverse an ideal path at
constant speed with configurable lateral noise and force profile.

All randomness comes from ``numpy.random.default_rng`` (the PCG64 bit
generator), so a given seed reproduces byte-identical datasets on every
platform.

The generators work on rows, never on one object per sample: rotations
come from the row forms of :func:`~styluskit.geometry.quat_from_axis_angle`,
:func:`~styluskit.geometry.quat_multiply` and
:func:`~styluskit.geometry.quat_rotate`, each row with the bits of the
one-sample call, and are canonicalised by
:func:`~styluskit.geometry.quat_normalize_rows` as a ``Pose`` would.  The
random stream is read in the order of a loop over samples, so a seed
gives the bytes it gave a per-sample generator: the orientation generator
draws each hole's per-pose noise as one block of standard normals, one
row per pose, scaled by column (``rng.normal(0, s)`` is ``0 + s * z`` on
the same stream).

Sizes are capped at :data:`MAX_SYNTH_SAMPLES` per dataset or
demonstration, and every config value must be finite; both raise before
anything is allocated.  A generated sample that is not finite raises too.
The ``simulate`` configs are read here, beside the records they build, by
:func:`load_config` and the ``*_from_doc`` readers.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import FormatError, InputError
from .geometry import (
    Frozen,
    HoleRecording,
    OrientationDataset,
    Pose,
    PositionDataset,
    TipTrack,
    quat_conjugate,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize_rows,
    quat_rotate,
    rotation_between,
    vec3,
)
from .ingest import DemonstrationTrace, IdealPath, path_from_doc
from .jsonio import json_float, json_floats, json_int, read_json

_EZ = np.array([0.0, 0.0, 1.0])
_IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])

# Most samples one generated dataset may hold (a position dataset, all the
# holes of an orientation dataset, or a demonstration): about an hour of
# tracking at 240 Hz.  Larger requests raise InputError before allocating.
MAX_SYNTH_SAMPLES = 1_000_000


def _check_size(count, what: str) -> None:
    if not count <= MAX_SYNTH_SAMPLES:
        # An int keeps its digits: a JSON count may lie beyond the float range.
        shown = count if isinstance(count, int) else f"{count:.17g}"
        raise InputError(f"{shown} {what}: at most {MAX_SYNTH_SAMPLES}")


class SynthConfig(Frozen):
    """Knobs for dataset generation; same seed, same dataset."""

    def __init__(
        self,
        true_calibration: Pose,
        pivot_point: np.ndarray,
        sample_count: int = 200,
        rotation_span: float = math.radians(120.0),
        position_noise_std: float = 0.0,
        orientation_noise_std: float = 0.0,
        outlier_rate: float = 0.0,
        outlier_magnitude: float = 0.1,
        seed: int = 0,
    ):
        self._set(
            true_calibration=true_calibration,
            pivot_point=np.asarray(pivot_point, dtype=float).reshape(3),
            sample_count=sample_count,
            rotation_span=rotation_span,
            position_noise_std=position_noise_std,
            orientation_noise_std=orientation_noise_std,
            outlier_rate=outlier_rate,
            outlier_magnitude=outlier_magnitude,
            seed=seed,
        )
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        _check_size(self.sample_count, "samples (sample_count)")
        if not np.all(np.isfinite(self.pivot_point)):
            raise ValueError("pivot_point must be finite")
        if not math.isfinite(self.rotation_span):
            raise ValueError("rotation_span must be finite")
        for name in ("position_noise_std", "orientation_noise_std", "outlier_magnitude"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not 0.0 <= self.outlier_rate < 0.5:
            raise ValueError("outlier_rate must be in [0, 0.5)")


class PositionGroundTruth:
    def __init__(
        self, tip_offset: np.ndarray, pivot_point: np.ndarray, outlier_indices: np.ndarray
    ):
        self.tip_offset = tip_offset
        self.pivot_point = pivot_point
        self.outlier_indices = outlier_indices


class OrientationGroundTruth:
    def __init__(self, rotation: np.ndarray, hole_axes: np.ndarray):
        self.rotation = rotation
        self.hole_axes = hole_axes


class ConstantForce(Frozen):
    def __init__(self, value: float):
        self._set(value=value)

    def sample(self, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), self.value)


class SineForce(Frozen):
    def __init__(self, frequency_hz: float, amplitude: float, offset: float = 0.0):
        self._set(frequency_hz=frequency_hz, amplitude=amplitude, offset=offset)

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.offset + self.amplitude * np.sin(2.0 * math.pi * self.frequency_hz * t)


class config_errors(contextlib.AbstractContextManager):
    """A ``ValueError`` in the block becomes ``FormatError("bad {kind} config: ...")``."""

    def __init__(self, kind: str):
        self.kind = kind

    def __exit__(self, exc_type, exc, traceback) -> None:
        if isinstance(exc, ValueError):
            raise FormatError(f"bad {self.kind} config: {exc}") from None


def _config_floats(doc: dict, **defaults: float) -> dict:
    """The config's number fields named in ``defaults``, read by ``json_float`` or defaulted."""
    return {name: json_float(doc.get(name, value), name) for name, value in defaults.items()}


def load_config(path) -> dict:
    """The synthesis config at ``path``: a JSON object whose ``kind`` names its generator."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: synthesis config must be a JSON object")
    return doc


def synth_config_from_doc(doc: dict) -> SynthConfig:
    """The :class:`SynthConfig` of a position or orientation config, the one
    reader of yaw-pitch-roll angles (``true_rotation_ypr_deg``)."""
    from .geometry import EulerAngles, euler_to_rotation  # here only: tests/test_euler_guard.py

    with config_errors("synthesis"):
        degrees = _config_floats(doc, rotation_span_deg=120.0, orientation_noise_std_deg=0.0)
        translation = json_floats(doc.get("true_translation", [0.0] * 3), "true_translation")
        ypr = json_floats(doc.get("true_rotation_ypr_deg", [0.0] * 3), "true_rotation_ypr_deg")
        rotation = euler_to_rotation(EulerAngles(*map(math.radians, vec3(ypr).tolist())))
        return SynthConfig(
            true_calibration=Pose(rotation, translation),
            pivot_point=json_floats(doc.get("pivot_point", [0.0] * 3), "pivot_point"),
            sample_count=json_int(doc.get("sample_count", 200), "sample_count"),
            rotation_span=math.radians(degrees["rotation_span_deg"]),
            orientation_noise_std=math.radians(degrees["orientation_noise_std_deg"]),
            seed=json_int(doc.get("seed", 0), "seed"),
            **_config_floats(doc, position_noise_std=0.0, outlier_rate=0.0, outlier_magnitude=0.1),
        )


def orientation_config_from_doc(doc: dict) -> tuple[SynthConfig, np.ndarray, int]:
    """An orientation config's arguments of :func:`gen_orientation_dataset`."""
    cfg = synth_config_from_doc(doc)
    axes = doc.get("hole_axes")
    if not axes:
        raise FormatError("orientation config needs 'hole_axes'")
    with config_errors("synthesis"):
        poses_per_hole = json_int(doc.get("poses_per_hole", 50), "poses_per_hole")
        return cfg, json_floats(axes, "hole_axes"), poses_per_hole


def _force_profile_from_doc(doc) -> ConstantForce | SineForce:
    if not isinstance(doc, dict):
        raise FormatError("force_profile must be a JSON object")
    kind = doc.get("kind", "constant")
    if kind == "constant":
        return ConstantForce(**_config_floats(doc, value=1.0))
    if kind == "sine":
        return SineForce(**_config_floats(doc, frequency_hz=1.0, amplitude=1.0, offset=0.0))
    raise FormatError(f"unknown force profile kind {kind!r}")


def demonstration_from_doc(doc: dict) -> tuple[IdealPath, dict]:
    """A demonstration config's path and the other arguments of :func:`gen_demonstration`."""
    if "path" not in doc:
        raise FormatError("demonstration config needs 'path'")
    path = path_from_doc(doc["path"])
    with config_errors("demonstration"):
        return path, {
            **_config_floats(doc, lateral_noise_std=0.0, speed=0.05, sample_rate=200.0),
            "force_profile": _force_profile_from_doc(doc.get("force_profile", {})),
            "seed": json_int(doc.get("seed", 0), "seed"),
        }


def _random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _pose_rows(quats: np.ndarray, translations: np.ndarray):
    """The rows as :class:`Pose` holds them: canonical quaternions, and
    ``ValueError`` if any value is not finite (a finite config can still
    overflow, say a noise scale near the largest double)."""
    quats = quat_normalize_rows(quats)
    if not (np.isfinite(quats).all() and np.isfinite(translations).all()):
        raise ValueError("generated poses are not finite: a noise or outlier scale is too large")
    return quats, translations


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
    quats = quat_from_axis_angle(axes, angles)
    translations = cfg.pivot_point - quat_rotate(quats, p)

    if cfg.position_noise_std > 0.0:
        translations = translations + rng.normal(0.0, cfg.position_noise_std, (n, 3))
    if cfg.orientation_noise_std > 0.0:
        noise_axes = _random_units(rng, n)
        noise_angles = rng.normal(0.0, cfg.orientation_noise_std, n)
        quats = quat_multiply(quat_from_axis_angle(noise_axes, noise_angles), quats)

    outlier_count = int(round(cfg.outlier_rate * n))
    if outlier_count:
        indices = np.sort(rng.choice(n, size=outlier_count, replace=False))
        directions = _random_units(rng, outlier_count)
        translations[indices] += cfg.outlier_magnitude * directions
    else:
        indices = np.array([], dtype=int)

    truth = PositionGroundTruth(
        tip_offset=p.copy(), pivot_point=cfg.pivot_point.copy(), outlier_indices=indices
    )
    q, t = _pose_rows(quats, translations)
    return PositionDataset(q=q, p=t), truth


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
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norms = np.linalg.norm(axes, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms >= 1e-12)):
        raise ValueError("hole axes must be finite and nonzero")
    axes = axes / norms
    if poses_per_hole < 1:
        raise ValueError("poses_per_hole must be positive")
    _check_size(axes.shape[0] * poses_per_hole, "orientation poses (holes x poses_per_hole)")
    rng = np.random.default_rng(cfg.seed)
    tip_rotation = cfg.true_calibration.rotation
    tip_rotation_inv = quat_conjugate(tip_rotation)
    p = cfg.true_calibration.translation
    spin_axes = np.tile(_EZ, (poses_per_hole, 1))
    rotate_noise = cfg.orientation_noise_std > 0.0
    shift_noise = cfg.position_noise_std > 0.0
    # A pose's draws, in stream order: its rotation noise (3 axis normals,
    # 1 angle normal at scale s), then its position noise (3 normals at
    # scale s).  rng.normal(0, s) is 0 + s * z from the same stream, so one
    # block of standard normals per hole, a row per pose and scaled by
    # column, holds the values of one rng.normal call per draw.
    scales = ([1.0, 1.0, 1.0, cfg.orientation_noise_std] if rotate_noise else []) + (
        [cfg.position_noise_std] * 3 if shift_noise else []
    )

    holes = []
    for hole_index, axis in enumerate(axes):
        align = rotation_between(_EZ, axis)
        hole_position = np.array([0.1 * hole_index, 0.0, 0.0])
        spins = rng.uniform(0.0, 2.0 * math.pi, poses_per_hole)
        with np.errstate(over="ignore"):  # an overflow is reported below
            noise = 0.0 + rng.standard_normal((poses_per_hole, len(scales))) * scales
        tip_frame = quat_multiply(align, quat_from_axis_angle(spin_axes, spins))
        body = quat_multiply(tip_frame, tip_rotation_inv)
        translation = hole_position - quat_rotate(body, p)
        if rotate_noise:
            noise_axes = noise[:, :3] / np.linalg.norm(noise[:, :3], axis=1, keepdims=True)
            body = quat_multiply(quat_from_axis_angle(noise_axes, noise[:, 3]), body)
        if shift_noise:
            translation = translation + noise[:, -3:]
        q, t = _pose_rows(body, translation)
        holes.append(HoleRecording(reference_axis=axis, q=q, p=t))

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
    evaluates to zero error.  A sample that overflows raises ``ValueError``.
    """
    if not (0.0 < speed < math.inf and 0.0 < sample_rate < math.inf):
        raise ValueError("speed and sample_rate must be positive and finite")
    if not 0.0 <= lateral_noise_std < math.inf:
        raise ValueError("lateral_noise_std must be non-negative and finite")
    rng = np.random.default_rng(seed)

    vertices = path.waypoints[list(path.visiting_sequence)]
    with np.errstate(over="ignore"):  # an overflowing length is refused by _check_size
        deltas = np.diff(vertices, axis=0)
        lengths = np.linalg.norm(deltas, axis=1)
        cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    total = float(cumulative[-1])

    step = speed / sample_rate
    if step <= 0.0:
        raise ValueError("speed / sample_rate underflows to zero")
    _check_size(total / step + len(cumulative), "demonstration samples (path length x rate / speed)")
    with np.errstate(invalid="ignore"):  # a step that overflowed gives NaN, refused below
        grid = np.arange(int(math.floor(total / step + 1e-9)) + 1) * step
    # keep corner arc lengths exactly; drop grid points that collide with them
    # (the nearest corner of a grid point is one of the two around it)
    tol = 1e-9 * max(1.0, total)
    right = np.clip(np.searchsorted(cumulative, grid), 1, len(cumulative) - 1)
    gap = np.minimum(np.abs(grid - cumulative[right - 1]), np.abs(grid - cumulative[right]))
    near_corner = gap < tol
    # Sorted distinct values as np.unique gives them, without the numpy.ma
    # import that np.unique pays for on its first call in a process
    arcs = np.sort(np.concatenate([grid[~near_corner], cumulative]))
    arcs = arcs[np.r_[True, arcs[1:] != arcs[:-1]]]
    arcs = np.clip(arcs, 0.0, total)

    segment_of = np.clip(np.searchsorted(cumulative, arcs, side="right") - 1, 0, len(lengths) - 1)
    local = (arcs - cumulative[segment_of]) / lengths[segment_of]
    xy = vertices[segment_of] + local[:, None] * deltas[segment_of]

    units = deltas / lengths[:, None]
    normals = np.column_stack([-units[:, 1], units[:, 0]])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples are refused below
        noise = rng.normal(size=arcs.size) * lateral_noise_std
        xy = xy + noise[:, None] * normals[segment_of]
        times = arcs / speed
        forces = force_profile.sample(times)
    if not (np.isfinite(xy).all() and np.isfinite(times).all() and np.isfinite(forces).all()):
        raise ValueError("generated samples are not finite: a noise, rate or force is out of range")
    track = TipTrack(
        times, np.column_stack([xy, np.zeros(arcs.size)]), np.tile(_IDENTITY_QUAT, (arcs.size, 1))
    )
    return DemonstrationTrace(points=track, forces=forces, source="stylus")
