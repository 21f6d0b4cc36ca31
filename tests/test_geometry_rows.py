"""Row-wise quaternion kernels and whole-array transforms against the
per-record code they replaced, kept here as oracles.  Results must agree
bit for bit (``tobytes``), errors by type and message."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit.errors import ZeroVector
from styluskit.framing import DrawingFrame, to_frame
from styluskit.geometry import (
    Pose,
    TipTrack,
    compose_rows,
    invert,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_normalize_rows,
    quat_rotate,
)
from styluskit.ingest import PoseRecording, apply_calibration

ULP = np.finfo(float).eps


# ------------------------------------------------------------------ oracles


def oracle_quat_multiply(a, b) -> np.ndarray:
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    return np.array(
        [
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            aw * bw - ax * bx - ay * by - az * bz,
        ]
    )


def oracle_quat_rotate(q, v) -> np.ndarray:
    u = np.asarray(q[:3], dtype=float)
    w = float(q[3])
    v = np.asarray(v, dtype=float)
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def oracle_compose(a: Pose, b: Pose) -> Pose:
    return Pose(
        oracle_quat_multiply(a.rotation, b.rotation),
        oracle_quat_rotate(a.rotation, b.translation) + a.translation,
    )


def oracle_invert(t: Pose) -> Pose:
    qc = quat_conjugate(t.rotation)
    return Pose(qc, -oracle_quat_rotate(qc, t.translation))


def track_of(times, poses: list[Pose]) -> TipTrack:
    return TipTrack(
        times,
        np.reshape([p.translation for p in poses], (-1, 3)),
        np.reshape([p.rotation for p in poses], (-1, 4)),
    )


def oracle_apply_calibration(rec: PoseRecording, calib) -> TipTrack:
    transform = calib.transform if hasattr(calib, "transform") else calib
    tips = []
    for q, p in zip(rec.q, rec.p):
        tips.append(oracle_compose(Pose(q, p), transform))
    return track_of(rec.t, tips)


def oracle_to_frame(frame: DrawingFrame, positions: np.ndarray) -> np.ndarray:
    inverse = oracle_invert(frame.transform)
    identity = np.array([0.0, 0.0, 0.0, 1.0])
    local = [oracle_compose(inverse, Pose(identity, p)).translation for p in positions]
    return np.reshape(local, (-1, 3))


# --------------------------------------------------------------- strategies

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=3, max_size=3).map(np.array)
# Not unit: kernels take any quaternion.
quats = st.lists(finite, min_size=4, max_size=4).map(np.array)


@st.composite
def unit_quats(draw):
    q = draw(quats)
    n = float(np.linalg.norm(q))
    return np.array([0.0, 0.0, 0.0, 1.0]) if n < 1e-3 else q / n


@st.composite
def sign_rule_quats(draw):
    """qw = +-0 with zero leading components, so the sign rule decides."""
    q = np.zeros(4)
    q[3] = draw(st.sampled_from([0.0, -0.0]))
    first = draw(st.integers(0, 2))
    for i in range(first, 3):
        q[i] = draw(st.sampled_from([0.0, -0.0, 0.5, -0.5, -1.0, 1.0]))
    if not np.any(q[:3]):
        q[2] = draw(st.sampled_from([0.6, -0.6]))
    return q


@st.composite
def near_unit_quats(draw):
    """Norms within a few ulp of 1 +- 1e-12 and 1 +- 0.5e-12."""
    q = draw(unit_quats())
    offset = draw(st.sampled_from([0.0, 0.5e-12, -0.5e-12, 1e-12, -1e-12]))
    return q * (1.0 + offset + draw(st.integers(-8, 8)) * ULP)


any_quat = st.one_of(quats, unit_quats(), sign_rule_quats(), near_unit_quats())


@st.composite
def six_decimal_quats(draw):
    """Unit quaternions as a tracker exports them, rounded to 6 decimals."""
    return np.round(draw(unit_quats()), 6)


odd_quats = st.one_of(
    st.lists(st.floats(), min_size=4, max_size=4).map(np.array),
    st.sampled_from(
        [[0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, -1e-13], [1e-11, 0.0, 0.0, -1e-11],
         [1e200, 0.0, 0.0, 1.0], [0.0, -1.1e155, 0.0, 0.0], [math.inf, 0.0, 0.0, -1.0],
         [0.0, 0.0, math.nan, -1.0], [5e-324, 0.0, 0.0, -5e-324],
         # Squared norm finite but the largest component squared above
         # 1e300: rescaled first, which rounds otherwise than r / |r|.
         [1.3020117523436276e151, 1.9589930613224998e150, -8.744766979838217e150,
          1.4813338984325945e151]]
    ).map(np.array),
)
row_counts = st.integers(1, 8)


def rows_of(element, n):
    return st.lists(element, min_size=n, max_size=n).map(np.array)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """Result or ``(exception type, message)`` of ``fn(*args)``; overflow
    is expected here, so numpy's warnings about it are silenced."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args)
    except (ValueError, ZeroVector) as exc:
        return type(exc), str(exc)


def track_bits(track) -> list:
    if isinstance(track, tuple):
        return track
    return [(a.shape, a.tobytes()) for a in (track.t, track.position, track.orientation)]


# ------------------------------------------------------------------ kernels


class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(a=any_quat, b=any_quat, v=vectors)
    def test_scalar_calls_match_oracle(self, a, b, v):
        assert same_bits(quat_multiply(a, b), oracle_quat_multiply(a, b))
        assert same_bits(quat_rotate(a, v), oracle_quat_rotate(a, v))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=row_counts)
    def test_rows_match_oracle_per_row(self, data, n):
        qa = data.draw(rows_of(any_quat, n))
        qb = data.draw(rows_of(any_quat, n))
        v = data.draw(rows_of(vectors, n))
        assert same_bits(
            quat_multiply(qa, qb),
            np.array([oracle_quat_multiply(a, b) for a, b in zip(qa, qb)]),
        )
        assert same_bits(
            quat_rotate(qa, v), np.array([oracle_quat_rotate(q, x) for q, x in zip(qa, v)])
        )

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=row_counts)
    def test_one_side_broadcasts_against_rows(self, data, n):
        q = data.draw(any_quat)
        rows = data.draw(rows_of(any_quat, n))
        v = data.draw(vectors)
        vrows = data.draw(rows_of(vectors, n))
        assert same_bits(
            quat_multiply(q, rows), np.array([oracle_quat_multiply(q, r) for r in rows])
        )
        assert same_bits(
            quat_multiply(rows, q), np.array([oracle_quat_multiply(r, q) for r in rows])
        )
        assert same_bits(
            quat_rotate(q, vrows), np.array([oracle_quat_rotate(q, x) for x in vrows])
        )
        assert same_bits(
            quat_rotate(rows, v), np.array([oracle_quat_rotate(r, v) for r in rows])
        )


class TestNormalizeRows:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=row_counts)
    def test_matches_quat_normalize_bit_for_bit(self, data, n):
        nonzero = rows_of(any_quat, n).filter(lambda a: np.all(np.linalg.norm(a, axis=1) > 1e-6))
        q = data.draw(nonzero)
        assert same_bits(quat_normalize_rows(q), np.array([quat_normalize(r) for r in q]))

    def test_fixed_edge_rows(self):
        # qw = +-0 rows, where the sign rule decides, then norms a few ulp
        # around 1 +- 1e-12 and 1 +- 0.5e-12.
        signs = [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, -0.6, 0.8, -0.0],
            [-0.0, 0.6, -0.8, 0.0],
            [-1.0, 0.0, 0.0, -0.0],
        ]
        base = np.array([0.1, -0.2, 0.3, 0.9]) / math.sqrt(0.95)
        scales = [1.0 + s * 1e-12 + k * ULP for s in (-1.0, -0.5, 0.5, 1.0) for k in range(-6, 7)]
        q = np.array(signs + [base * s for s in scales])
        assert same_bits(quat_normalize_rows(q), np.array([quat_normalize(r) for r in q]))

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, -1e-13]])
    def test_zero_norm_raises(self, bad):
        q = np.array([[0.0, 0.0, 0.0, 1.0], bad, [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ZeroVector):
            quat_normalize(np.array(bad))
        with pytest.raises(ZeroVector):
            quat_normalize_rows(q)

    @pytest.mark.parametrize(
        "big, unit",
        [
            ([1e200, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1e-200]),
            ([1e200, 0.0, 0.0, 1e200], [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)]),
            ([0.0, 0.0, -1.1e155, 0.0], [0.0, 0.0, 1.0, 0.0]),
            ([-1.7e308, 1.7e308, 1.7e308, -1.7e308], [0.5, -0.5, -0.5, 0.5]),
            ([1e-300, 3e160, 0.0, 4e160], [0.0, 0.6, 0.0, 0.8]),
        ],
    )
    def test_overflowing_norm_gives_the_unit_quaternion(self, big, unit):
        # The squared norm of each overflows; it used to divide to zeros.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [
                quat_normalize(big),
                quat_normalize_rows(np.array([[0.0, 0.0, 0.0, 1.0], big]))[1],
                Pose(big, np.zeros(3)).rotation,
            ]
        for q in results:
            assert np.allclose(q, unit, rtol=1e-15, atol=0.0)
            assert math.isclose(q @ q, 1.0, rel_tol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.one_of(six_decimal_quats(), any_quat, odd_quats), max_size=8))
    def test_any_rows_match_the_per_row_kernel(self, rows):
        """Off-unit rows (6-decimal exports), zero, tiny, too large and
        non-finite rows among unit ones: the bytes, or the first error,
        and the warnings of :func:`quat_normalize` row by row."""
        q = np.array(rows, dtype=float).reshape(-1, 4)

        def per_row(q):
            return np.array([quat_normalize(r) for r in q]).reshape(-1, 4)

        def seen(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = fn(q).tobytes()
                except ZeroVector as exc:
                    result = (ZeroVector, str(exc))
            return result, sorted({(w.category.__name__, str(w.message)) for w in caught})

        assert seen(quat_normalize_rows) == seen(per_row)

    def test_input_untouched(self):
        q = np.array([[0.0, 0.0, 0.0, -2.0]])
        quat_normalize_rows(q)
        assert q.tolist() == [[0.0, 0.0, 0.0, -2.0]]

    def test_rejects_non_rows(self):
        with pytest.raises(ValueError):
            quat_normalize_rows(np.zeros(4))


# -------------------------------------------------------- whole-array transforms

@st.composite
def poses(draw):
    return Pose(draw(any_quat.filter(lambda q: np.linalg.norm(q) > 1e-6)), draw(vectors))


def recording_of(rows: list[Pose] | list[tuple]) -> PoseRecording:
    """A recording at 100 Hz of poses, or of ``(q, p)`` rows kept as given
    (a zero rotation among them too)."""
    q, p = zip(*((r.rotation, r.translation) if isinstance(r, Pose) else r for r in rows))
    return PoseRecording("world", t=0.01 * np.arange(len(rows)), q=q, p=p)


@st.composite
def recordings(draw, bad_rows=False):
    rows = []
    for _ in range(draw(row_counts)):
        pose = draw(poses())
        kind = draw(st.sampled_from(["ok", "ok", "zero", "huge"])) if bad_rows else "ok"
        if kind == "zero":
            rows.append((np.zeros(4), np.zeros(3)))
        elif kind == "huge":
            rows.append((pose.rotation, np.array([1.7e308, -1.7e308, 1.7e308])))
        else:
            rows.append(pose)
    return recording_of(rows)


class TestApplyCalibration:
    @settings(max_examples=60, deadline=None)
    @given(rec=recordings(), calib=poses())
    def test_matches_per_record_loop(self, rec, calib):
        assert track_bits(apply_calibration(rec, calib)) == track_bits(
            oracle_apply_calibration(rec, calib)
        )

    @settings(max_examples=60, deadline=None)
    @given(rec=recordings(bad_rows=True), calib=poses(), far=st.booleans())
    def test_first_bad_row_raises_like_loop(self, rec, calib, far):
        if far:
            # Tip offsets this long overflow on the rows placed far away.
            calib = Pose(calib.rotation, np.full(3, 9e307))
        assert track_bits(outcome(apply_calibration, rec, calib)) == track_bits(
            outcome(oracle_apply_calibration, rec, calib)
        )

    def test_rotations_at_the_skip_threshold(self):
        # Pose keeps a norm within 1e-12 of 1 as it is, so these products
        # straddle quat_normalize's skip test, whose ``a @ a`` rounds
        # differently on strided rows.
        rng = np.random.default_rng(5)
        base = rng.normal(size=(100, 4))
        base /= np.linalg.norm(base, axis=1)[:, None]
        scales = [1.0 + s * 1e-12 + k * ULP for s in (-1.0, 1.0) for k in range(-8, 9)]
        rows = [q * scale for q in base for scale in scales]
        rec = recording_of([Pose(q, np.zeros(3)) for q in rows])
        calib = Pose.identity()
        assert track_bits(apply_calibration(rec, calib)) == track_bits(
            oracle_apply_calibration(rec, calib)
        )

    def test_zero_norm_raises_zero_vector(self):
        rec = recording_of([Pose.identity(), (np.zeros(4), np.zeros(3))])
        with pytest.raises(ZeroVector):
            oracle_apply_calibration(rec, Pose.identity())
        with pytest.raises(ZeroVector):
            apply_calibration(rec, Pose.identity())

    def test_non_finite_result_raises_value_error(self):
        far = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.7e308, 0.0, 0.0]))
        rec = recording_of([Pose.identity(), far])
        calib = Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.7e308, 0.0, 0.0]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            oracle_apply_calibration(rec, calib)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            apply_calibration(rec, calib)


def positions_of(rec: PoseRecording, nan_row: int | None = None) -> np.ndarray:
    """The recording's positions, with a NaN one at ``nan_row``."""
    position = rec.p.copy()
    if nan_row is not None and nan_row < len(rec):
        position[nan_row] = [math.nan, 0.0, 0.0]
    return position


def array_bits(result) -> tuple:
    return result if isinstance(result, tuple) else (result.shape, result.tobytes())


class TestToFrame:
    @settings(max_examples=60, deadline=None)
    @given(rec=recordings(), transform=poses())
    def test_matches_per_record_loop(self, rec, transform):
        frame = DrawingFrame("f", transform, np.eye(3))
        positions = positions_of(rec)
        local = to_frame(frame, positions)
        assert array_bits(local) == array_bits(oracle_to_frame(frame, positions))
        inverse = invert(transform)
        _, translations = compose_rows(inverse.rotation, inverse.translation, rec.q, positions)
        assert array_bits(local) == array_bits(translations)

    @settings(max_examples=60, deadline=None)
    @given(rec=recordings(bad_rows=True), transform=poses(), nan_row=st.integers(0, 8))
    def test_first_bad_row_raises_like_loop(self, rec, transform, nan_row):
        frame = DrawingFrame("f", transform, np.eye(3))
        positions = positions_of(rec, nan_row)
        assert array_bits(outcome(to_frame, frame, positions)) == array_bits(
            outcome(oracle_to_frame, frame, positions)
        )

    def test_empty(self):
        empty = np.zeros((0, 3))
        local = to_frame(DrawingFrame("f", Pose.identity(), np.eye(3)), empty)
        assert array_bits(local) == array_bits(empty)


def test_strided_row_normalizes_like_its_copy():
    # ``a @ a`` rounds differently on a strided row (here a row of a
    # transposed array), so near 1 +- 1e-12 the skip test would depend on
    # memory layout if quat_normalize took the norm in place.
    rng = np.random.default_rng(5)
    base = rng.normal(size=(50, 4))
    base /= np.linalg.norm(base, axis=1)[:, None]
    scales = [1.0 + s * 1e-12 + k * ULP for s in (-1.0, 1.0) for k in range(-8, 9)]
    rows = np.array([q * scale for q in base for scale in scales])
    strided = np.ascontiguousarray(rows.T).T
    assert not strided[0].flags.c_contiguous
    for row, copy in zip(strided, rows):
        assert same_bits(quat_normalize(row), quat_normalize(copy))
    assert same_bits(quat_normalize_rows(strided), np.array([quat_normalize(r) for r in strided]))
