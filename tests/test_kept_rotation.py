"""A pivot result comes from rows that rotate enough, or the command exits 3.

A recording that rests on the divot for most of its rows, with a few gross
translation glitches, can seed the pivot solve from every row: the far
rows pull the seed, and the density filter then keeps only the still rows.
Those rows pass the solve's rank test, which reads the shape of the
system, not the size of the turns.  ``calibrate_position`` checks the kept
rows against ``min_rotation`` too, so such a recording exits 3 instead of
giving a tip millimetres off with exit 0.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit.calib import calibrate_position
from styluskit.cli import main
from styluskit.errors import DegenerateDataError
from styluskit.geometry import PositionDataset, quat_from_axis_angle, quats_to_matrices
from styluskit.ingest import PoseRecording, write_pose_csv

OFFSET = np.array([0.01, -0.02, -0.12])
PIVOT = np.array([0.4, 0.1, 0.02])
ROWS = 2000


def mostly_still(seed: int, still: float, far: list[tuple[int, float]]):
    """``ROWS`` pivot rows with 0.1 mm of noise: a share ``still`` of them
    turned at most 0.3 degrees from identity, the rest up to 60 degrees,
    then each ``(row, x)`` of ``far`` moved to that ``x``."""
    rng = np.random.default_rng(seed)
    n_still = round(still * ROWS)
    limit = np.r_[np.full(n_still, 0.3), np.full(ROWS - n_still, 60.0)]
    angles = rng.uniform(-1.0, 1.0, ROWS) * np.radians(limit)
    q = quat_from_axis_angle(rng.normal(size=(ROWS, 3)), angles)
    p = PIVOT - quats_to_matrices(q) @ OFFSET + rng.normal(scale=1e-4, size=(ROWS, 3))
    for row, x in far:
        p[row, 0] = x
    return q, p


def far_rows(seed: int, count: int, x: float) -> list[tuple[int, float]]:
    rows = np.random.default_rng([seed, 1]).choice(ROWS, size=count, replace=False)
    return [(int(row), x) for row in rows]


def calibrate_file(tmp_path, q, p, capsys):
    poses = tmp_path / "poses.csv"
    with open(poses, "w") as stream:
        write_pose_csv(PoseRecording("tracker", t=np.arange(ROWS) * 0.01, q=q, p=p), stream)
    code = main(["calibrate-position", str(poses)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "seed, still, count, x",
    [(0, 0.95, 1, 1e5), (2, 0.95, 1, 1e5), (0, 0.95, 1, 1e3), (1, 0.95, 1, 1e3),
     (3, 0.8, 5, 1e5), (1, 0.9, 1, 1e5)],
)
def test_kept_rows_that_rotate_too_little_exit_3(tmp_path, capsys, seed, still, count, x):
    # Each of these exited 0 with a tip 0.77 mm to 4.8 m off.
    q, p = mostly_still(seed, still, far_rows(seed, count, x))
    code, out, err = calibrate_file(tmp_path, q, p, capsys)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert "poses kept by the outlier filter rotate less than" in lines[0]
    assert "(30.0 deg)" in lines[0]


@pytest.mark.parametrize("still, count", [(0.95, 0), (0.9, 0), (0.6, 1), (0.6, 0)])
def test_recordings_that_turn_enough_keep_their_tip(tmp_path, capsys, still, count):
    q, p = mostly_still(1, still, far_rows(1, count, 1e5))
    code, out, _ = calibrate_file(tmp_path, q, p, capsys)
    assert code == 0
    doc = json.loads(out)
    assert np.linalg.norm(np.subtract(doc["translation"], OFFSET)) < 5e-5
    assert doc["filtered_outliers"] == count


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    still=st.floats(0.0, 0.95),
    far=st.lists(st.tuples(st.integers(0, ROWS - 1), st.floats(1.0, 6.0)), max_size=10),
)
def test_a_tip_within_1_mm_or_exit_3(seed, still, far):
    q, p = mostly_still(seed, still, [(row, 10.0**exponent) for row, exponent in far])
    try:
        result = calibrate_position(PositionDataset(q=q, p=p))
    except DegenerateDataError:  # exit 3
        return
    assert np.linalg.norm(result.tip_offset - OFFSET) < 1e-3
    assert result.removed_outliers >= len({row for row, _ in far})
    assert math.isfinite(result.residual_rms)
