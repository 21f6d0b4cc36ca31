"""Analytic oracles that the tests check the package against.

None of these is on a command's path.  Each is a direct, per-value or
O(N^2) form of what the package computes another way:

- :func:`pairwise_objective` sums the distances between all pairs of tip
  points ``R_i p + t_i`` (:func:`candidate_tip_points`).  It has the same
  noise-free minimizer as the linear pivot solve of
  :func:`styluskit.calib.calibrate_position`.
- :func:`oracle_solve_pivot` solves the stacked 3N x 6 pivot system
  ``[R_i | -I] (p, c) = -t_i`` by ``np.linalg.lstsq``, the solve that
  :func:`styluskit.calib._solve_pivot` reduces to three sums.
- :func:`orientation_objective` is the alignment cost
  ``sum (1 - cos theta)`` that :func:`styluskit.calib.calibrate_orientation`
  minimizes in closed form.
- :func:`quat_angle` measures the angle between two rotations, and
  :func:`rotation_to_euler` inverts
  :func:`styluskit.geometry.euler_to_rotation`.
- :func:`csv_row` formats one CSV line a value at a time, the bytes that
  the block writer ``jsonio.write_csv`` must give.
- :func:`oracle_quat_normalize` canonicalises one quaternion with Python
  scalars, the bytes, first error and warnings that
  :func:`styluskit.geometry.quat_normalize_rows` must give row by row.
- :func:`quat_to_matrix` is the rotation matrix of one quaternion, the
  one-row case of :func:`styluskit.geometry.quats_to_matrices`.
"""

from __future__ import annotations

import math

import numpy as np

from styluskit.calib import _EZ, _PAIR_CHUNK, _sq_norm
from styluskit.errors import ZeroVector
from styluskit.geometry import (
    _UNIT_TOL,
    MAX_QUAT_NORM2,
    EulerAngles,
    OrientationDataset,
    PositionDataset,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quats_to_matrices,
    vec3,
)
from styluskit.jsonio import format_float


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of one unit quaternion: ``quats_to_matrices`` on one row."""
    return quats_to_matrices(np.reshape(q, (1, 4)))[0]


def candidate_tip_points(ds: PositionDataset, p) -> np.ndarray:
    """World tip positions ``R_i p + t_i`` implied by a candidate offset."""
    p = vec3(p)
    return quats_to_matrices(ds.q) @ p + ds.p


def pairwise_objective(ds: PositionDataset, p, cap: int = 2000) -> float:
    """Sum over all ordered pairs of ``||(R_i p + t_i) - (R_j p + t_j)||``.

    O(N^2) time, summed a block of rows at a time in O(N) memory; refuses
    datasets larger than ``cap``.  Kept as an independent oracle for
    :func:`calibrate_position`.
    """
    if len(ds) > cap:
        raise ValueError(f"pairwise objective is O(N^2); dataset exceeds cap {cap}")
    tips = candidate_tip_points(ds, p)
    rows = max(1, _PAIR_CHUNK // tips.shape[0])
    return sum(
        float(np.sqrt(_sq_norm(tips[s:s + rows, None, :] - tips)).sum())
        for s in range(0, tips.shape[0], rows)
    )


def oracle_solve_pivot(rotations: np.ndarray, translations: np.ndarray):
    """Tip offset and pivot of the stacked least-squares pivot system, with
    no rank test."""
    n = rotations.shape[0]
    a = np.zeros((3 * n, 6))
    a[:, :3] = rotations.reshape(-1, 3)
    a[:, 3:] = -np.tile(np.eye(3), (n, 1))
    solution = np.linalg.lstsq(a, -translations.reshape(-1), rcond=None)[0]
    return solution[:3], solution[3:]


def orientation_objective(ds: OrientationDataset, rotation) -> float:
    """The alignment cost ``sum (1 - cos theta)`` at a candidate rotation
    (a unit quaternion)."""
    tip_axis = quat_rotate(rotation, _EZ)
    total = 0.0
    for hole in ds.holes:
        rotations = quats_to_matrices(hole.q)
        world_axes = rotations @ tip_axis
        total += float(np.sum(1.0 - world_axes @ hole.reference_axis))
    return total


def quat_angle(a, b) -> float:
    """Angle of the relative rotation between two unit quaternions.

    Stable near zero: uses atan2 on the relative quaternion instead of
    acos on the dot product.
    """
    r = quat_multiply(a, quat_conjugate(b))
    return 2.0 * math.atan2(float(np.linalg.norm(r[:3])), abs(float(r[3])))


def rotation_to_euler(q) -> EulerAngles:
    """Euler angles (yaw-pitch-roll) of a unit quaternion.

    At the pitch singularity (|pitch| = pi/2) the split between yaw and
    roll is not unique; roll is set to zero there.
    """
    r = quat_to_matrix(quat_normalize(q))
    sp = -r[2, 0]
    sp = min(1.0, max(-1.0, sp))
    cp = math.sqrt(max(0.0, 1.0 - sp * sp))
    pitch = math.atan2(sp, cp)
    if cp > 1e-9:
        roll = math.atan2(r[2, 1], r[2, 2])
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        roll = 0.0
        yaw = math.atan2(-r[0, 1], r[1, 1])
    return EulerAngles(yaw=yaw, pitch=pitch, roll=roll)


def oracle_quat_normalize(q) -> np.ndarray:
    """Return the unit quaternion equal to ``q`` with canonical sign.

    Normalization is skipped when the norm is already 1 within 1e-12 so
    that re-normalizing a canonical quaternion is bit-stable.  The norm is
    taken on a contiguous copy: ``a @ a`` rounds differently on a strided
    row, and the skip must not depend on memory layout.  A quaternion
    whose largest component squared exceeds ``MAX_QUAT_NORM2`` is first
    divided by that component's magnitude, because ``a @ a`` could
    overflow to ``inf`` and turn it into zeros; every quaternion the file
    readers accept takes the path without that division.
    """
    a = np.array(q, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a quaternion (qx,qy,qz,qw), got shape {a.shape}")
    big = max(map(abs, a.tolist()))
    if big * big > MAX_QUAT_NORM2:
        a /= big
    n = math.sqrt(float(a @ a))
    if n < _UNIT_TOL:
        raise ZeroVector("quaternion has (near-)zero norm")
    if abs(n - 1.0) > _UNIT_TOL:
        a /= n
    if a[3] < 0.0 or (a[3] == 0.0 and _leading_component(a) < 0.0):
        a = -a
    return a


def _leading_component(q: np.ndarray) -> float:
    for x in q[:3]:
        if x != 0.0:
            return float(x)
    return 1.0


def csv_row(values) -> str:
    """One CSV line (no newline) from strings, integers and floats.

    The package writes no CSV through it: ``jsonio.write_csv`` formats
    whole blocks of rows.  It stays as the per-value oracle those bytes
    are tested against (``nan`` for NaN, 17 significant digits otherwise).
    """
    parts = []
    for v in values:
        if isinstance(v, str):
            parts.append(v)
        elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            parts.append(str(int(v)))
        elif math.isnan(float(v)):
            parts.append("nan")
        else:
            parts.append(format_float(v))
    return ",".join(parts)
