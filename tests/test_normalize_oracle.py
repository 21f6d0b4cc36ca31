"""The one quaternion canonicaliser, :func:`quat_normalize_rows`, and its
one-row case :func:`quat_normalize`, against the per-row scalar kernel
they replaced (``oracles.oracle_quat_normalize``): the same bytes, the
same first error and the same warnings."""

from __future__ import annotations

import io
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_quat_normalize
from test_geometry_rows import ULP, any_quat, odd_quats, six_decimal_quats, unit_quats

from styluskit import geometry, ingest
from styluskit.errors import ZeroVector
from styluskit.geometry import quat_normalize, quat_normalize_rows
from styluskit.ingest import parse_pose_csv


def seen(fn, q):
    """Bytes or ``(ZeroVector, message)`` of ``fn(q)``, and the set of
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(q).tobytes()
        except ZeroVector as exc:
            result = (ZeroVector, str(exc))
    return result, sorted({(w.category.__name__, str(w.message)) for w in caught})


def oracle_rows(q):
    return np.array([oracle_quat_normalize(r) for r in q]).reshape(-1, 4)


def assert_matches_oracle(q):
    assert seen(quat_normalize_rows, q) == seen(oracle_rows, q)
    for row in q:
        assert seen(quat_normalize, row) == seen(oracle_quat_normalize, row)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(six_decimal_quats(), any_quat, odd_quats), max_size=8))
def test_rows_match_the_scalar_oracle(rows):
    """Unit, 6-decimal, zero, tiny, too large and non-finite rows."""
    assert_matches_oracle(np.array(rows, dtype=float).reshape(-1, 4))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    offset=st.sampled_from([1e-12, -1e-12, 0.5e-12, -0.5e-12]),
)
def test_strided_rows_near_the_skip_tolerance(data, n, offset):
    """Norms within a few ulp of 1 +- 1e-12, read from a strided view, where
    the division is skipped or not on the last bit of the norm."""
    q = np.array(data.draw(st.lists(unit_quats(), min_size=n, max_size=n)))
    ulps = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)))
    block = np.zeros((n, 9))
    block[:, 1::2] = q * (1.0 + offset + ulps * ULP)[:, None]
    strided = block[:, 1::2]
    assert not strided.flags.c_contiguous
    assert_matches_oracle(strided)


def test_six_decimal_rows_take_no_per_row_call(monkeypatch):
    """A tracker's 6-decimal quaternions, off unit by about 1e-6 each,
    are canonicalised as arrays: with the one-row function broken, 2,000
    of them still give the oracle's bytes, in-library and through the
    pose CSV parser."""

    def broken(q):
        raise AssertionError("quat_normalize called")

    rng = np.random.default_rng(6)
    q = rng.normal(size=(2000, 4))
    q = np.round(q / np.linalg.norm(q, axis=1)[:, None], 6)
    expected = oracle_rows(q).tobytes()
    text = "t,x,y,z,qx,qy,qz,qw\n" + "".join(
        f"{i * 0.01:.2f},0.1,0.2,0.3,{qx:.6f},{qy:.6f},{qz:.6f},{qw:.6f}\n"
        for i, (qx, qy, qz, qw) in enumerate(q.tolist())
    )
    monkeypatch.setattr(geometry, "quat_normalize", broken)
    monkeypatch.setattr(ingest, "quat_normalize", broken)
    assert quat_normalize_rows(q).tobytes() == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = parse_pose_csv(io.StringIO(text))
    assert rec.q.tobytes() == expected
    assert rec.t.tolist() == [float(f"{i * 0.01:.2f}") for i in range(2000)]
    assert (rec.p == [0.1, 0.2, 0.3]).all()

