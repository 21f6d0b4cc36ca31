"""``evaluation.resample_segment`` against the double loop it replaced.

The closed form takes each target's first crossing from running extrema
of the line parameter.  The loop below, over trace steps and the targets
each step spans, is the code the package used before; it is kept here as a
test-only oracle, less the per-target ideal points, demonstrated points and
forces that no command wrote.  The properties compare the bytes of
every output array on paths that move monotonically, go back and forth,
land exactly on targets or within the 1e-9 widening of one, stand still
(zero-length steps) and start beyond either end of the line.
"""

from __future__ import annotations

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit import evaluation
from styluskit.errors import InputError, SegmentUncovered
from styluskit.evaluation import SampledSegment, resample_segment
from styluskit.geometry import TipTrack
from styluskit.ingest import DemonstrationTrace

# u is exact on the first line (x itself) and rounded on the second.
LINES = [
    (np.array([0.0, 0.0]), np.array([1.0, 0.0])),
    (np.array([0.1, -0.2]), np.array([0.4, 0.3])),
]


# ------------------------------------------------- the former double loop


def resample_segment_loop(
    sub: DemonstrationTrace,
    line: tuple[np.ndarray, np.ndarray],
    n: int,
    label: str = "A",
    max_missing_fraction: float = 0.2,
) -> SampledSegment:
    a, b = np.asarray(line[0], dtype=float), np.asarray(line[1], dtype=float)
    direction = b - a
    length = float(np.linalg.norm(direction))
    unit = direction / length
    normal = np.array([-unit[1], unit[0]])

    positions = sub.positions
    xy = positions[:, :2]
    u = (xy - a) @ unit / length
    lateral = (xy - a) @ normal
    z = positions[:, 2]

    targets = np.linspace(0.0, 1.0, n)
    seg_index = np.full(n, -1, dtype=int)
    seg_alpha = np.zeros(n)
    scale = n - 1
    for k in range(u.size - 1):
        u0, u1 = u[k], u[k + 1]
        lo, hi = (u0, u1) if u0 <= u1 else (u1, u0)
        i0 = max(0, math.ceil(lo * scale - 1e-9))
        i1 = min(n - 1, math.floor(hi * scale + 1e-9))
        for i in range(i0, i1 + 1):
            if seg_index[i] != -1:
                continue
            denom = u1 - u0
            alpha = 0.5 if denom == 0.0 else (targets[i] - u0) / denom
            seg_index[i] = k
            seg_alpha[i] = min(1.0, max(0.0, alpha))

    missing = seg_index < 0
    if float(missing.mean()) > max_missing_fraction:
        raise SegmentUncovered(
            f"segment {label}: {int(missing.sum())} of {n} targets never crossed"
        )

    signed = np.full(n, np.nan)
    z_offset = np.full(n, np.nan)
    hit = ~missing
    k_idx = seg_index[hit]
    alpha = seg_alpha[hit]
    signed[hit] = lateral[k_idx] + alpha * (lateral[k_idx + 1] - lateral[k_idx])
    z_offset[hit] = z[k_idx] + alpha * (z[k_idx + 1] - z[k_idx])

    return SampledSegment(
        segment_label=label,
        signed_error=signed,
        z_offset=z_offset,
        missing=missing,
    )


# ------------------------------------------------------------- helpers


def trace_on_line(line, u, lateral, z, forces=None) -> DemonstrationTrace:
    a, b = line
    direction = b - a
    normal = np.array([-direction[1], direction[0]]) / np.linalg.norm(direction)
    xy = a + np.asarray(u)[:, None] * direction + np.asarray(lateral)[:, None] * normal
    positions = np.column_stack([xy, z])
    t = np.arange(len(u)) * 0.01
    track = TipTrack(t, positions, np.tile([0.0, 0.0, 0.0, 1.0], (len(u), 1)))
    return DemonstrationTrace(points=track, forces=forces)


def assert_same_bytes(new: SampledSegment, old: SampledSegment) -> None:
    for name in ("signed_error", "z_offset", "missing"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# Offsets, in target units, around an exact target: on it, inside the
# 1e-9 widening and just outside it.
NUDGES = [0.0, 0.0, 1e-9, -1e-9, 0.999e-9, -0.999e-9, 1.001e-9, -1.001e-9, 2e-9, -2e-9]


@st.composite
def line_parameters(draw):
    """(n, u): a target count and a path's line parameters."""
    n = draw(st.integers(2, 500))
    exact = st.tuples(st.integers(-3, n + 2), st.sampled_from(NUDGES), st.booleans()).map(
        lambda c: (c[0] + c[1]) / (n - 1) if c[2] else float(np.linspace(0.0, 1.0, n)[c[0] % n])
    )
    free = st.floats(-0.5, 1.5, allow_nan=False, allow_infinity=False)
    u = draw(st.lists(st.one_of(exact, free), min_size=2, max_size=80))
    shape = draw(st.sampled_from(["back and forth", "monotone", "reversed", "repeats"]))
    if shape == "monotone":
        u = sorted(u)
    elif shape == "reversed":
        u = sorted(u, reverse=True)
    elif shape == "repeats":
        u = [x for x in u for _ in range(draw(st.integers(1, 3)))]
    return n, np.array(u)


def with_signed_zeros(rng, values: np.ndarray) -> np.ndarray:
    """``values`` with about a third set to 0.0 or -0.0: an alpha of -0.0
    where the loop has 0.0 shows only as the sign of such a zero."""
    pick = rng.integers(0, 6, size=values.size)
    return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, values))


@settings(max_examples=400, deadline=None)
@given(
    case=line_parameters(),
    line=st.sampled_from(LINES),
    with_forces=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_the_double_loop(case, line, with_forces, seed):
    n, u = case
    rng = np.random.default_rng(seed)
    lateral = with_signed_zeros(rng, rng.normal(scale=0.002, size=u.size))
    z = with_signed_zeros(rng, rng.normal(scale=0.001, size=u.size))
    forces = with_signed_zeros(rng, rng.uniform(0.0, 5.0, size=u.size)) if with_forces else None
    trace = trace_on_line(line, u, lateral, z, forces)
    old = resample_segment_loop(trace, line, n, max_missing_fraction=1.0)
    with mock.patch.object(evaluation, "MAX_MISSING_FRACTION", 1.0):
        new = resample_segment(trace.positions, line, n)
    assert_same_bytes(new, old)


@settings(max_examples=150, deadline=None)
@given(case=line_parameters())
def test_coverage_check_matches_the_double_loop(case):
    n, u = case
    trace = trace_on_line(LINES[0], u, np.zeros(u.size), np.zeros(u.size))
    try:
        old = resample_segment_loop(trace, LINES[0], n, label="C")
    except SegmentUncovered as exc:
        with pytest.raises(SegmentUncovered) as caught:
            resample_segment(trace.positions, LINES[0], n, label="C")
        assert str(caught.value) == str(exc)
    else:
        assert_same_bytes(resample_segment(trace.positions, LINES[0], n, label="C"), old)


def growing_zigzag(points: int) -> np.ndarray:
    """u swings about 0.5 with an amplitude that grows to 0.55, so the
    targets are first crossed at steps spread over the whole trace and
    most steps span most of the targets."""
    k = np.arange(points)
    return 0.5 + np.where(k % 2 == 0, 1.0, -1.0) * 0.55 * (k + 1) / points


def test_growing_zigzag_matches_the_double_loop():
    u = growing_zigzag(200)
    rng = np.random.default_rng(5)
    trace = trace_on_line(LINES[1], u, rng.normal(scale=0.002, size=u.size), np.zeros(u.size))
    old = resample_segment_loop(trace, LINES[1], 2000)
    assert_same_bytes(resample_segment(trace.positions, LINES[1], 2000), old)


def test_zigzag_at_scale_is_fast():
    # 2,000 points and 20,000 targets: about 4 s through the double loop (2 vCPU).
    u = growing_zigzag(2000)
    rng = np.random.default_rng(6)
    trace = trace_on_line(LINES[1], u, rng.normal(scale=0.002, size=u.size), np.zeros(u.size))
    start = time.perf_counter()
    seg = resample_segment(trace.positions, LINES[1], 20_000)
    assert time.perf_counter() - start < 1.0
    assert not seg.missing.any()


def trace_through(x: float, y: float) -> DemonstrationTrace:
    """Eleven points along y = 0 from x = 0 to 0.1, the fifth moved to (x, y)."""
    positions = np.zeros((11, 3))
    positions[:, 0] = np.linspace(0.0, 0.1, 11)
    positions[4, :2] = x, y
    track = TipTrack(np.arange(11) * 0.01, positions, np.tile([0.0, 0.0, 0.0, 1.0], (11, 1)))
    return DemonstrationTrace(points=track)


TENTH = (np.array([0.0, 0.0]), np.array([0.1, 0.0]))


@pytest.mark.parametrize(
    "x, y",
    [(1e308, 0.0), (-1e308, 0.0), (math.inf, 0.0), (math.nan, 0.0), (0.04, math.inf), (0.04, -1e308 * 10)],
)
def test_non_finite_line_offset_raises_input_error(x, y):
    # 1e308 is finite, but its line parameter on a 0.1 m line is not.
    with pytest.raises(InputError, match="non-finite line offset"):
        resample_segment(trace_through(x, y).positions, TENTH, 10)
