"""A pivot result comes from rows that rotate enough, or the command exits 3.

A recording that rests on the divot for most of its rows, with a few gross
translation glitches, once seeded the pivot solve from every row: the far
rows pulled the seed, and the density filter then kept only the still rows.
The seed now comes from the rows nearest the median translation, the
shortest prefix of them that rotates enough and fixes the tip, so such a
recording calibrates.  The solve's rank test reads the shape of the system,
not the size of the turns, so ``calibrate_position`` still checks the rows
the filter keeps against ``min_rotation``: a recording whose turning rows
share no pivot keeps only its still rows and exits 3.  When a few turning
rows land in the still rows' cluster by chance, they pass that check and
the tip comes out 1-2 cm off; the last test marks that defect.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit import calib
from styluskit.calib import calibrate_position
from styluskit.cli import main
from styluskit.errors import DegenerateDataError
from styluskit.geometry import PositionDataset, quat_from_axis_angle, quats_to_matrices
from styluskit.ingest import PoseRecording, write_pose_csv

OFFSET = np.array([0.01, -0.02, -0.12])
PIVOT = np.array([0.4, 0.1, 0.02])
ROWS = 2000


def mostly_still(seed: int, still: float, far: list[tuple[int, float]], turn_noise: float = 0.0):
    """``ROWS`` pivot rows with 0.1 mm of noise: a share ``still`` of them
    turned at most 0.3 degrees from identity, the rest up to 60 degrees
    with ``turn_noise`` metres more noise on their translations, then each
    ``(row, x)`` of ``far`` moved to that ``x``."""
    rng = np.random.default_rng(seed)
    n_still = round(still * ROWS)
    limit = np.r_[np.full(n_still, 0.3), np.full(ROWS - n_still, 60.0)]
    angles = rng.uniform(-1.0, 1.0, ROWS) * np.radians(limit)
    q = quat_from_axis_angle(rng.normal(size=(ROWS, 3)), angles)
    p = PIVOT - quats_to_matrices(q) @ OFFSET + rng.normal(scale=1e-4, size=(ROWS, 3))
    if turn_noise:
        noise = np.random.default_rng([seed, 2]).normal(scale=turn_noise, size=(ROWS - n_still, 3))
        p[n_still:] += noise
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


REPRODUCTIONS = [
    (0, 0.95, 1, 1e5), (2, 0.95, 1, 1e5), (0, 0.95, 1, 1e3), (1, 0.95, 1, 1e3),
    (3, 0.8, 5, 1e5), (1, 0.9, 1, 1e5),
]


@pytest.mark.parametrize(
    "seed, still, count, x",
    REPRODUCTIONS + [(3, 0.95, 1, 1e5), (3, 0.9, 1, 1e5), (0, 0.8, 5, 1e5), (5, 0.8, 5, 1e5)],
)
def test_mostly_still_recordings_with_far_rows_calibrate(tmp_path, capsys, seed, still, count, x):
    # The first six exited 0 with a tip 0.77 mm to 4.8 m off, then exit 3
    # once the kept rows were checked; the last four exited 3 with "no point
    # has enough neighbors to seed a cluster".
    q, p = mostly_still(seed, still, far_rows(seed, count, x))
    code, out, err = calibrate_file(tmp_path, q, p, capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert np.linalg.norm(np.subtract(doc["translation"], OFFSET)) < 5e-5
    assert doc["filtered_outliers"] == count


@pytest.mark.parametrize("seed, still, count, x", REPRODUCTIONS)
def test_kept_rows_that_rotate_too_little_exit_3(tmp_path, capsys, seed, still, count, x):
    # The turning rows share no pivot (5 cm of translation noise), so the
    # filter keeps only the still rows.
    q, p = mostly_still(seed, still, far_rows(seed, count, x), turn_noise=0.05)
    code, out, err = calibrate_file(tmp_path, q, p, capsys)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert "poses kept by the outlier filter rotate less than" in lines[0]
    assert "(30.0 deg)" in lines[0]


@pytest.mark.parametrize("still", [0.8, 0.95])
@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("x", [1e1, 1e3, 1e5])
def test_the_reproduction_grid_calibrates(still, count, x):
    for seed in range(5):
        q, p = mostly_still(seed, still, far_rows(seed, count, x))
        result = calibrate_position(PositionDataset(q=q, p=p))
        assert np.linalg.norm(result.tip_offset - OFFSET) < 5e-5
        assert result.removed_outliers == count


def test_a_seed_turning_about_one_axis_moves_to_the_next_prefix(monkeypatch):
    # 60 % of the rows turn 20 to 60 degrees about the tip offset, so they
    # share one translation, the nearest to the median, and pass the
    # rotation gate, but leave the tip unobservable along that axis.  The
    # rest turn as far about axes normal to it, at least 4 cm away, so the
    # 75 % prefix adds some of them.
    rng = np.random.default_rng(4)
    spin = round(0.6 * ROWS)
    axes = np.r_[np.tile(OFFSET, (spin, 1)), np.cross(rng.normal(size=(ROWS - spin, 3)), OFFSET)]
    q = quat_from_axis_angle(axes, np.radians(rng.uniform(20.0, 60.0, ROWS)))
    p = PIVOT - quats_to_matrices(q) @ OFFSET + rng.normal(scale=1e-4, size=(ROWS, 3))
    solves = []
    solve = calib._solve_pivot

    def spy(rotations, translations):
        solves.append(rotations.shape[0])
        return solve(rotations, translations)

    monkeypatch.setattr(calib, "_solve_pivot", spy)
    offset, _, seeded = calib._first_pass(q, quats_to_matrices(q), p, calib.DEFAULT_MIN_ROTATION)
    assert solves == [ROWS // 2, 3 * ROWS // 4]
    assert seeded
    assert np.linalg.norm(offset - OFFSET) < 5e-5
    result = calibrate_position(PositionDataset(q=q, p=p))
    assert np.linalg.norm(result.tip_offset - OFFSET) < 5e-5
    assert result.removed_outliers == 0


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


@pytest.mark.xfail(
    strict=True,
    reason="known defect: chance turning rows in the still rows' cluster pass the "
    "kept-rows check, and the command exits 0 with a tip 16-17 mm off",
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_turning_rows_that_share_no_pivot_give_a_tip_within_1_mm_or_exit_3(seed):
    # 1 cm of noise on the turning rows: the filter keeps the still rows and
    # the few turning rows whose tip points land in their cluster.
    q, p = mostly_still(seed, 0.9, [], turn_noise=0.01)
    try:
        result = calibrate_position(PositionDataset(q=q, p=p))
    except DegenerateDataError:  # exit 3
        return
    assert np.linalg.norm(result.tip_offset - OFFSET) < 1e-3
