"""Rigid-body math shared by every other module.

Conventions, used consistently across the package:

- Quaternions are Hamilton, stored ``(qx, qy, qz, qw)``, unit norm, with a
  canonical sign (``qw >= 0``) so that equal rotations compare equal
  componentwise.
- Euler angles are intrinsic yaw(Z) - pitch(Y) - roll(X).  They are used
  only at the edges: ``simulate``'s ``true_rotation_ypr_deg`` and the public
  API.  Rotations computed inside the package stay quaternions.
- Distances in meters, angles in radians.  Degrees appear only at the CLI.
- Leading axis: :func:`quat_multiply` and :func:`quat_rotate` take one
  quaternion ``(4,)`` / vector ``(3,)`` or rows ``(N, 4)`` / ``(N, 3)``,
  and broadcast one against rows; :func:`quat_from_axis_angle` takes axis
  rows ``(N, 3)`` with angles ``(N,)``.  Each row of a result has the same
  bits as the call on that row alone; :func:`compose_rows` keeps the same
  promise for :func:`compose`.  :func:`quat_normalize_rows` is the one
  quaternion canonicaliser, and :func:`quat_normalize` its one-row case.
- Rows are the data: :class:`PoseRows` holds N poses as ``q`` (N, 4) and
  ``p`` (N, 3), a :class:`TipTrack` N tip poses as ``t`` (N,), ``position``
  (N, 3) and ``orientation`` (N, 4).  Every :class:`PoseRows` is built from
  its rows; its ``poses`` is the one per-sample view, built when read.
  :func:`quats_to_matrices` is the one matrix form of rotations.  The
  calibration inputs are rows too: a :class:`PositionDataset` and each
  :class:`HoleRecording` of an :class:`OrientationDataset` are
  :class:`PoseRows`.  They live here, not in ``calib``, so that
  ``simulate`` can build them without loading the solvers.
- Records are plain classes.  The frozen ones (:class:`Pose`,
  :class:`EulerAngles` and the configs of other modules) derive from
  :class:`Frozen`, so assigning an attribute raises ``AttributeError``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinitePose, ZeroVector

_UNIT_TOL = 1e-12
MAX_QUAT_NORM2 = 1e300  # largest squared norm of a quaternion read from a file


def vec3(v) -> np.ndarray:
    """Coerce ``v`` to a float 3-vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def median_rows(x: np.ndarray) -> np.ndarray:
    """``np.median(x, axis=0)`` of a non-empty array, bit for bit, without
    the ``numpy.ma`` import that its NaN check pays for on its first call in
    a process.  Like ``np.median``, it partitions, takes the ``mean`` of the
    middle one or two values (so ``-0.0`` comes out as ``0.0``), and gives
    NaN where a column holds a NaN, which the partition puts last."""
    n = x.shape[0]
    part = np.partition(x, [(n - 1) // 2, n // 2, n - 1], axis=0)
    return np.where(np.isnan(part[-1]), np.nan, part[(n - 1) // 2 : n // 2 + 1].mean(axis=0))


def quat_normalize(q) -> np.ndarray:
    """Return the unit quaternion equal to ``q`` with canonical sign:
    :func:`quat_normalize_rows` on the one row ``q``."""
    a = np.asarray(q, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected a quaternion (qx,qy,qz,qw), got shape {a.shape}")
    return quat_normalize_rows(a.reshape(1, 4))[0]


def quat_normalize_rows(quats) -> np.ndarray:
    """The unit quaternions equal to the rows of an ``(N, 4)`` array, with
    canonical sign, in whole-array steps; each row gets the bits it would
    get alone, and the input is left untouched.  The squared norms are one
    ``np.vecdot`` on the contiguous copy: the float64 dot kernel of ``r @ r``,
    blind to memory layout.  A row whose largest component squared (NaN when
    the first is NaN, as Python's ``max`` takes it) exceeds ``MAX_QUAT_NORM2``
    is first divided by that magnitude, since its squared norm could overflow;
    no file reader passes such a row.  The first row whose norm is below
    1e-12 raises :class:`ZeroVector`, after the rows before it were rescaled,
    with the warnings of a loop over the rows.  A norm within 1e-12 of 1 is
    not divided, so re-normalizing a canonical quaternion is bit-stable.
    """
    q = np.array(quats, dtype=float, order="C")
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"expected (N, 4) quaternion rows, got shape {q.shape}")
    with np.errstate(over="ignore"):  # silent, as ``r @ r`` is: rescaled below, or NaN
        norm2 = np.vecdot(q, q)
        n = np.sqrt(norm2)
        zero = n < _UNIT_TOL
        stop = int(np.argmax(zero)) if zero.any() else len(q)
        huge = np.flatnonzero(~(norm2[:stop] <= MAX_QUAT_NORM2))
        if huge.size:
            a = np.abs(q[huge])
            big = np.fmax.reduce(a, axis=1)
            rescale = ~np.isnan(a[:, 0]) & (big * big > MAX_QUAT_NORM2)
            huge = huge[rescale]
            q[huge] /= big[rescale, None]
            n[huge] = np.sqrt(np.vecdot(q[huge], q[huge]))
    if stop < len(q):
        raise ZeroVector("quaternion has (near-)zero norm")
    np.divide(q, n[:, None], out=q, where=(np.abs(n - 1.0) > _UNIT_TOL)[:, None])
    x, y, z, w = q.T
    lead = np.where(x != 0.0, x, np.where(y != 0.0, y, np.where(z != 0.0, z, 1.0)))
    flip = (w < 0.0) | ((w == 0.0) & (lead < 0.0))
    np.negative(q, out=q, where=flip[:, None])
    return q


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


def quats_to_matrices(quats: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 3, 3) of an (N, 4) array of unit quaternions."""
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
    rows; one axis (3,) with one angle is the same formula on one row.
    The row norms are one ``np.vecdot`` call on the contiguous copy, which
    runs the float64 dot kernel that ``r @ r`` runs on each row, so every
    row has the bits of the one-row call; the sines and cosines come from
    :mod:`math`.  ``einsum``, ``(v * v).sum(1)`` and numpy's ``sin`` round
    differently, and the bytes ``simulate`` writes depend on these.  The
    first (near-)zero axis row raises :class:`ZeroVector`, naming the row.
    """
    a = np.asarray(axis, dtype=float)
    if a.ndim == 1:
        return quat_from_axis_angle(vec3(a)[None], [angle])[0]
    a = np.array(a, order="C")
    h = 0.5 * np.asarray(angle, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3 or h.shape != a.shape[:1]:
        raise ValueError(
            f"expected axis rows (N, 3) and angles (N,), got {a.shape} and {h.shape}"
        )
    n = np.sqrt(np.vecdot(a, a))
    zero = n < _UNIT_TOL
    if zero.any():
        row = int(np.argmax(zero))
        raise ZeroVector(f"rotation axis has (near-)zero norm (row {row})")
    half = h.tolist()
    q = np.empty((a.shape[0], 4))
    q[:, :3] = a / n[:, None] * np.array([math.sin(x) for x in half])[:, None]
    q[:, 3] = [math.cos(x) for x in half]
    return quat_normalize_rows(q)


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


class Frozen:
    """Base of the records whose attributes cannot be assigned or deleted
    (``AttributeError``) once ``__init__`` has set them through
    :meth:`_set`."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Pose(Frozen):
    """A rigid transform: rotate by ``rotation``, then add ``translation``.

    The quaternion is normalized (canonical sign) on construction and both
    arrays are frozen, so instances are safe to share across threads.
    """

    def __init__(self, rotation: np.ndarray, translation: np.ndarray):
        q = quat_normalize(rotation)
        t = vec3(translation).copy()
        if not np.all(np.isfinite(q)) or not np.all(np.isfinite(t)):
            raise NonFinitePose("pose has non-finite components")
        q.setflags(write=False)
        t.setflags(write=False)
        self._set(rotation=q, translation=t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(3))

    @classmethod
    def _of_row(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """A pose holding a canonical, finite, read-only row as it is."""
        pose = object.__new__(cls)
        pose._set(rotation=rotation, translation=translation)
        return pose


class PoseRows:
    """One or more poses as rows: ``q`` (N, 4) canonical unit quaternions
    and ``p`` (N, 3) translations, as :func:`quat_normalize_rows` and the
    parsers give them.  The rows are the data, and the only way to build
    one (``q=``, ``p=``).

    ``poses`` is a tuple of :class:`Pose` built from the rows on first
    read, each holding its row of a read-only copy of ``q`` and ``p`` (the
    rows are canonical already, so they are not normalized again).  It is
    a view; reading it leaves ``q`` and ``p`` as they are.  Nothing in the
    package reads it; the benchmark's tracer (``perfbench/tracer.py``)
    counts generated samples through it.
    """

    def __init__(self, *, q, p):
        self._poses = None
        self.q = np.asarray(q, dtype=float).reshape(-1, 4)
        self.p = np.asarray(p, dtype=float).reshape(-1, 3)
        if self.q.shape[0] != self.p.shape[0]:
            raise ValueError("need one translation per rotation")
        if not len(self):
            raise ValueError(f"{type(self).__name__} must not be empty")

    @property
    def poses(self) -> tuple[Pose, ...]:
        if self._poses is None:
            q, p = self.q.copy(), self.p.copy()
            if not (np.isfinite(q).all() and np.isfinite(p).all()):
                raise NonFinitePose("pose has non-finite components")
            q.setflags(write=False)
            p.setflags(write=False)
            self._poses = tuple(map(Pose._of_row, q, p))
        return self._poses

    def __len__(self) -> int:
        return self.q.shape[0]


class PositionDataset(PoseRows):
    """Fiducial poses recorded while the tip pivots on one fixed point,
    as the rows of :class:`PoseRows`."""


class HoleRecording(PoseRows):
    """Fiducial poses recorded while the stylus spins in one hole, as the
    rows of :class:`PoseRows`, plus the hole's unit ``reference_axis``.
    """

    def __init__(self, reference_axis, *, q, p):
        super().__init__(q=q, p=p)
        axis = vec3(reference_axis)
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            n = np.linalg.norm(axis)
        if not (math.isfinite(n) and n >= 1e-12):
            raise ValueError("hole reference axis must be finite and nonzero")
        self.reference_axis = axis / n


class OrientationDataset:
    """Per-hole recordings against known world-frame reference axes."""

    def __init__(self, holes: list[HoleRecording]):
        if not holes:
            raise ValueError("orientation dataset must not be empty")
        self.holes = holes


class EulerAngles(Frozen):
    """Intrinsic yaw(Z)-pitch(Y)-roll(X) angles in radians."""

    def __init__(self, yaw: float, pitch: float, roll: float):
        self._set(yaw=yaw, pitch=pitch, roll=roll)


def _frozen(values, shape: tuple) -> np.ndarray:
    """A read-only float view of ``values`` in ``shape`` (copied only if
    ``values`` is not already a float array)."""
    view = np.asarray(values, dtype=float).reshape(shape)
    view.setflags(write=False)
    return view


class TipTrack:
    """Timestamped tip poses as rows: ``t`` (N,) seconds, ``position``
    (N, 3) meters and ``orientation`` (N, 4) canonical unit quaternions,
    as :func:`compose_rows` and :func:`quat_normalize_rows` return them.

    The arrays are read-only views of what the track was built from.
    ``track[index]`` selects rows as numpy does and is again a track: a
    slice over the same memory, a one-row track for an integer, the picked
    rows for an integer array.  Tracks holding the same values are equal.
    """

    __slots__ = ("t", "position", "orientation")
    __hash__ = None

    def __init__(self, t, position, orientation):
        self.t = _frozen(t, (-1,))
        self.position = _frozen(position, (-1, 3))
        self.orientation = _frozen(orientation, (-1, 4))
        if not self.t.size == self.position.shape[0] == self.orientation.shape[0]:
            raise ValueError("a tip track needs one position and one orientation per time")

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, index) -> "TipTrack":
        return TipTrack(self.t[index], self.position[index], self.orientation[index])

    def __eq__(self, other):
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
    same error: :class:`ZeroVector` for a zero rotation,
    :class:`~styluskit.errors.NonFinitePose` for a non-finite one or a
    non-finite translation.  Rows that overflow are reported that way, so
    numpy's overflow warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = quat_multiply(qa, qb)
        t = quat_rotate(qa, tb) + ta
        finite = np.isfinite(q).all(axis=1) & np.isfinite(t).all(axis=1)
        if not finite.all():
            first = int(np.argmin(finite))
            # A zero rotation up to that row raises first, as in a per-row loop.
            quat_normalize_rows(q[: first + 1])
            raise NonFinitePose("pose has non-finite components")
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


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors (atan2 of cross/dot)."""
    a = vec3(u)
    b = vec3(v)
    if np.linalg.norm(a) < _UNIT_TOL or np.linalg.norm(b) < _UNIT_TOL:
        raise ZeroVector("angle_between requires nonzero vectors")
    cross = np.linalg.norm(np.cross(a, b))
    dot = float(a @ b)
    return math.atan2(cross, dot)
