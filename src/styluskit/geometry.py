"""Rigid-body math shared by every other module.

Conventions, used consistently across the package:

- Quaternions are Hamilton, stored ``(qx, qy, qz, qw)``, unit norm, with a
  canonical sign (``qw >= 0``) so that equal rotations compare equal
  componentwise.
- Euler angles are intrinsic yaw(Z) - pitch(Y) - roll(X).
- Distances in meters, angles in radians.  Degrees appear only at the CLI.
- Leading axis: :func:`quat_multiply` and :func:`quat_rotate` take one
  quaternion ``(4,)`` / vector ``(3,)`` or rows ``(N, 4)`` / ``(N, 3)``,
  and broadcast one against rows; :func:`quat_from_axis_angle` takes axis
  rows ``(N, 3)`` with angles ``(N,)``.  Each row of a result has the same
  bits as the call on that row alone; :func:`quat_normalize_rows` and
  :func:`compose_rows` keep the same promise for :func:`quat_normalize`
  and :func:`compose`.
- Columnar tracks: a :class:`TipTrack` holds N tip poses as three arrays,
  ``t`` (N,), ``position`` (N, 3) and ``orientation`` (N, 4), rows in time
  order.  It is a sequence of :class:`TipPoseRecord`, but no record exists
  until one is indexed: whole-track work reads the arrays.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector

_UNIT_TOL = 1e-12


def vec3(v) -> np.ndarray:
    """Coerce ``v`` to a float 3-vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def quat_normalize(q) -> np.ndarray:
    """Return the unit quaternion equal to ``q`` with canonical sign.

    Normalization is skipped when the norm is already 1 within 1e-12 so
    that re-normalizing a canonical quaternion is bit-stable.  The norm is
    taken on a contiguous copy: ``a @ a`` rounds differently on a strided
    row, and the skip must not depend on memory layout.
    """
    a = np.array(q, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a quaternion (qx,qy,qz,qw), got shape {a.shape}")
    n = math.sqrt(float(a @ a))
    if n < _UNIT_TOL:
        raise ZeroVector("quaternion has (near-)zero norm")
    if abs(n - 1.0) > _UNIT_TOL:
        a /= n
    if a[3] < 0.0 or (a[3] == 0.0 and _leading_component(a) < 0.0):
        a = -a
    return a


def quat_normalize_rows(quats) -> np.ndarray:
    """Row-wise :func:`quat_normalize` of an ``(N, 4)`` array, bit for bit.

    A row whose norm is within 0.5e-12 of 1 only gets the canonical sign,
    all rows at once.  Its norm here (``einsum``) and in
    :func:`quat_normalize` (``a @ a``) differ by a few ulp, so
    :func:`quat_normalize` would also skip the division.  Every other row
    (off unit, zero or non-finite) goes through :func:`quat_normalize`
    itself, in row order, so the first (near-)zero row raises
    :class:`ZeroVector`.  The input is left untouched.
    """
    q = np.array(quats, dtype=float, order="C")
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"expected (N, 4) quaternion rows, got shape {q.shape}")
    unit = np.abs(np.sqrt(np.einsum("ij,ij->i", q, q)) - 1.0) <= 0.5 * _UNIT_TOL
    x, y, z, w = q.T
    lead = np.where(x != 0.0, x, np.where(y != 0.0, y, np.where(z != 0.0, z, 1.0)))
    flip = unit & ((w < 0.0) | ((w == 0.0) & (lead < 0.0)))
    q[flip] = -q[flip]
    for i in np.flatnonzero(~unit):
        q[i] = quat_normalize(q[i])
    return q


def _leading_component(q: np.ndarray) -> float:
    for x in q[:3]:
        if x != 0.0:
            return float(x)
    return 1.0


def _components(x) -> list:
    """Components of one quaternion or vector as Python floats (exact,
    and cheaper to combine than numpy scalars), or of rows as columns."""
    a = np.asarray(x, dtype=float)
    return a.tolist() if a.ndim == 1 else list(a.T)


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product a * b (apply b first, then a), row-wise over a leading axis."""
    ax, ay, az, aw = _components(a)
    bx, by, bz, bw = _components(b)
    return np.array(
        [
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            aw * bw - ax * bx - ay * by - az * bz,
        ]
    ).T


def quat_conjugate(q) -> np.ndarray:
    qx, qy, qz, qw = q
    return np.array([-qx, -qy, -qz, qw])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate 3-vector ``v`` by quaternion ``q``, row-wise over a leading axis.

    Computes ``v + w t + u x t`` with ``t = 2 u x v``, where ``u`` is the
    vector part and ``w`` the scalar part of ``q``.  The cross products are
    written out in ``np.cross``'s own operation order, so the result has
    the same bits as the ``np.cross`` form at a fraction of its cost.
    """
    ux, uy, uz, w = _components(q)
    vx, vy, vz = _components(v)
    tx = 2.0 * (uy * vz - uz * vy)
    ty = 2.0 * (uz * vx - ux * vz)
    tz = 2.0 * (ux * vy - uy * vx)
    return np.array(
        [
            vx + w * tx + (uy * tz - uz * ty),
            vy + w * ty + (uz * tx - ux * tz),
            vz + w * tz + (ux * ty - uy * tx),
        ]
    ).T


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def quats_to_matrices(quats: np.ndarray) -> np.ndarray:
    """Vectorized ``quat_to_matrix`` for an (N, 4) array."""
    q = np.asarray(quats, dtype=float)
    x, y, z, w = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((q.shape[0], 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - z * w)
    m[:, 0, 2] = 2 * (x * z + y * w)
    m[:, 1, 0] = 2 * (x * y + z * w)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - x * w)
    m[:, 2, 0] = 2 * (x * z - y * w)
    m[:, 2, 1] = 2 * (y * z + x * w)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def quat_from_matrix(m) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method)."""
    r = np.asarray(m, dtype=float)
    t = r[0, 0] + r[1, 1] + r[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (r[2, 1] - r[1, 2]) / s
        y = (r[0, 2] - r[2, 0]) / s
        z = (r[1, 0] - r[0, 1]) / s
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        w = (r[2, 1] - r[1, 2]) / s
        x = 0.25 * s
        y = (r[0, 1] + r[1, 0]) / s
        z = (r[0, 2] + r[2, 0]) / s
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        w = (r[0, 2] - r[2, 0]) / s
        x = (r[0, 1] + r[1, 0]) / s
        y = 0.25 * s
        z = (r[1, 2] + r[2, 1]) / s
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        w = (r[1, 0] - r[0, 1]) / s
        x = (r[0, 2] + r[2, 0]) / s
        y = (r[1, 2] + r[2, 1]) / s
        z = 0.25 * s
    return quat_normalize([x, y, z, w])


def quat_from_axis_angle(axis, angle) -> np.ndarray:
    """Unit quaternion of the rotation by ``angle`` about ``axis``.

    Leading axis: ``axis`` rows (N, 3) with ``angle`` (N,) give (N, 4)
    rows, each with the bits of the call on that row alone.  The one-axis
    call takes its norm with ``np.linalg.norm``, a BLAS dot product whose
    rounding ``einsum`` and ``(v * v).sum(1)`` do not reproduce, so the
    rows take theirs from the same ``r @ r`` on each contiguous row; sine
    and cosine come from :mod:`math` for the same reason.  The first
    (near-)zero axis row raises :class:`ZeroVector`, naming the row.
    """
    a = np.asarray(axis, dtype=float)
    if a.ndim == 1:
        a = vec3(axis)
        n = np.linalg.norm(a)
        if n < _UNIT_TOL:
            raise ZeroVector("rotation axis has (near-)zero norm")
        a = a / n
        h = 0.5 * angle
        return quat_normalize(np.append(a * math.sin(h), math.cos(h)))
    a = np.array(a, order="C")
    h = 0.5 * np.asarray(angle, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3 or h.shape != a.shape[:1]:
        raise ValueError(
            f"expected axis rows (N, 3) and angles (N,), got {a.shape} and {h.shape}"
        )
    n = np.sqrt([r @ r for r in a])
    zero = n < _UNIT_TOL
    if zero.any():
        row = int(np.argmax(zero))
        raise ZeroVector(f"rotation axis has (near-)zero norm (row {row})")
    half = h.tolist()
    q = np.empty((a.shape[0], 4))
    q[:, :3] = a / n[:, None] * np.array([math.sin(x) for x in half])[:, None]
    q[:, 3] = [math.cos(x) for x in half]
    return quat_normalize_rows(q)


def quat_angle(a, b) -> float:
    """Angle of the relative rotation between two unit quaternions.

    Stable near zero: uses atan2 on the relative quaternion instead of
    acos on the dot product.
    """
    r = quat_multiply(a, quat_conjugate(b))
    return 2.0 * math.atan2(float(np.linalg.norm(r[:3])), abs(float(r[3])))


def rotation_between(u, v) -> np.ndarray:
    """Minimal rotation (quaternion) taking direction ``u`` onto ``v``."""
    a = vec3(u)
    b = vec3(v)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < _UNIT_TOL or nb < _UNIT_TOL:
        raise ZeroVector("cannot align a (near-)zero vector")
    a = a / na
    b = b / nb
    c = np.cross(a, b)
    d = float(a @ b)
    s = float(np.linalg.norm(c))
    if s < _UNIT_TOL:
        if d > 0.0:
            return np.array([0.0, 0.0, 0.0, 1.0])
        # antiparallel: rotate pi about any axis orthogonal to a
        helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = np.cross(a, helper)
        return quat_from_axis_angle(axis, math.pi)
    return quat_from_axis_angle(c, math.atan2(s, d))


@dataclass(frozen=True, eq=False)
class Pose:
    """A rigid transform: rotate by ``rotation``, then add ``translation``.

    The quaternion is normalized (canonical sign) on construction and both
    arrays are frozen, so instances are safe to share across threads.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = quat_normalize(self.rotation)
        t = vec3(self.translation).copy()
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(t)):
            raise ValueError("pose has non-finite components")
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "Pose":
        m = np.asarray(m, dtype=float)
        return cls(quat_from_matrix(m[:3, :3]), m[:3, 3])

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation_matrix()
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class EulerAngles:
    """Intrinsic yaw(Z)-pitch(Y)-roll(X) angles in radians."""

    yaw: float
    pitch: float
    roll: float


@dataclass(frozen=True, eq=False)
class TipPoseRecord:
    """One timestamped tip pose: ``t`` seconds, position meters, unit quaternion."""

    t: float
    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        p = vec3(self.position).copy()
        q = quat_normalize(self.orientation)
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", q)

    def pose(self) -> Pose:
        return Pose(self.orientation, self.position)


def _frozen(values, shape: tuple) -> np.ndarray:
    """A read-only float view of ``values`` in ``shape`` (copied only if
    ``values`` is not already a float array)."""
    view = np.asarray(values, dtype=float).reshape(shape)
    view.setflags(write=False)
    return view


class TipTrack(Sequence):
    """Timestamped tip poses as arrays, read as a sequence of :class:`TipPoseRecord`.

    ``t`` is (N,) seconds, ``position`` (N, 3) meters and ``orientation``
    (N, 4) canonical unit quaternions, as :func:`compose_rows` and
    :func:`quat_normalize_rows` return them.  The arrays are read-only
    views of what the track was built from.  Indexing (and so iterating)
    builds one record per item read; a slice is a track over the same
    memory.  A track equals another track, or a list of records, holding
    the same values.
    """

    __slots__ = ("t", "position", "orientation")
    __hash__ = None

    def __init__(self, t, position, orientation):
        self.t = _frozen(t, (-1,))
        self.position = _frozen(position, (-1, 3))
        self.orientation = _frozen(orientation, (-1, 4))
        if not self.t.size == self.position.shape[0] == self.orientation.shape[0]:
            raise ValueError("a tip track needs one position and one orientation per time")

    @classmethod
    def from_records(cls, records) -> "TipTrack":
        """The track of a sequence of records (a track is returned as it is)."""
        if isinstance(records, TipTrack):
            return records
        records = list(records)
        return cls(
            [r.t for r in records],
            np.array([r.position for r in records]).reshape(-1, 3),
            np.array([r.orientation for r in records]).reshape(-1, 4),
        )

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TipTrack(self.t[index], self.position[index], self.orientation[index])
        return TipPoseRecord(float(self.t[index]), self.position[index], self.orientation[index])

    def __eq__(self, other):
        if isinstance(other, (list, tuple)) and all(isinstance(r, TipPoseRecord) for r in other):
            other = TipTrack.from_records(other)
        if not isinstance(other, TipTrack):
            return NotImplemented
        return (
            np.array_equal(self.t, other.t)
            and np.array_equal(self.position, other.position)
            and np.array_equal(self.orientation, other.orientation)
        )


def compose(a: Pose, b: Pose) -> Pose:
    """Transform product a * b: applying the result equals applying b, then a."""
    return Pose(
        quat_multiply(a.rotation, b.rotation),
        quat_rotate(a.rotation, b.translation) + a.translation,
    )


def compose_rows(qa, ta, qb, tb) -> tuple[np.ndarray, np.ndarray]:
    """:func:`compose` over rows: rotations and translations of ``a_i * b_i``.

    ``a`` is given by its rotation ``qa`` and translation ``ta``, ``b`` by
    ``qb`` and ``tb``; either side may be rows or one transform broadcast
    against the other's rows.  Each row has the bits of :func:`compose` on
    that row, and the first row that :class:`Pose` would reject raises the
    same error: :class:`ZeroVector` for a zero rotation, ``ValueError`` for
    a non-finite one or a non-finite translation.
    """
    q = quat_multiply(qa, qb)
    t = quat_rotate(qa, tb) + ta
    finite = np.isfinite(q).all(axis=1) & np.isfinite(t).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        # A zero rotation up to that row raises first, as in a per-row loop.
        quat_normalize_rows(q[: first + 1])
        raise ValueError("pose has non-finite components")
    return quat_normalize_rows(q), t


def invert(t: Pose) -> Pose:
    qc = quat_conjugate(t.rotation)
    return Pose(qc, -quat_rotate(qc, t.translation))


def transform_point(t: Pose, p) -> np.ndarray:
    return quat_rotate(t.rotation, vec3(p)) + t.translation


def euler_to_rotation(angles: EulerAngles) -> np.ndarray:
    """Quaternion of the intrinsic Z-Y-X (yaw-pitch-roll) rotation."""
    qz = quat_from_axis_angle([0.0, 0.0, 1.0], angles.yaw)
    qy = quat_from_axis_angle([0.0, 1.0, 0.0], angles.pitch)
    qx = quat_from_axis_angle([1.0, 0.0, 0.0], angles.roll)
    return quat_multiply(quat_multiply(qz, qy), qx)


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


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors (atan2 of cross/dot)."""
    a = vec3(u)
    b = vec3(v)
    if np.linalg.norm(a) < _UNIT_TOL or np.linalg.norm(b) < _UNIT_TOL:
        raise ZeroVector("angle_between requires nonzero vectors")
    cross = np.linalg.norm(np.cross(a, b))
    dot = float(a @ b)
    return math.atan2(cross, dot)
