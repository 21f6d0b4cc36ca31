"""The pivot solve of ``calib.calibrate_position`` and the rows it starts from.

The closed form of ``calib._solve_pivot`` is checked against the stacked
3N x 6 least-squares solve it replaced, kept as
``oracles.oracle_solve_pivot``.  It solves the normal equations reduced to
the tip offset, so it squares the condition number of the stacked system;
the property runs on draws whose reduced system is well conditioned
(eigenvalue ratio at least 1e-3), where both must agree to 1e-9 relative.
Its rank test is pinned on rotations about nearly one axis.

Rows far from the median translation are kept out of the first solve, and
the density filter drops them: the result is the clean recording's, bit
for bit.  They are only kept out of the first solve: a recording that rests
still for most of its rows, so that every row that turns lies far from the
median, still calibrates.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import oracle_solve_pivot

from styluskit.calib import (
    DEFAULT_MIN_ROTATION,
    FilterParams,
    _first_pass,
    _solve_pivot,
    calibrate_position,
)
from styluskit.cli import main
from styluskit.errors import DegenerateRotations
from styluskit.geometry import Pose, PositionDataset, quat_from_matrix, quats_to_matrices
from styluskit.ingest import PoseRecording, write_pose_csv
from styluskit.synth import SynthConfig, gen_position_dataset


def axis_angle_rotations(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotation matrices about the rows of ``axes`` (any length) by ``angles``."""
    unit = axes / np.linalg.norm(axes, axis=1)[:, None]
    q = np.column_stack([unit * np.sin(angles / 2)[:, None], np.cos(angles / 2)])
    return quats_to_matrices(q)


def reduced_conditioning(rotations: np.ndarray) -> float:
    """Smallest over largest eigenvalue of ``M = N I - S^T S / N``."""
    n = rotations.shape[0]
    s = rotations.sum(axis=0)
    eig = np.linalg.eigvalsh(n * np.eye(3) - s.T @ s / n)
    return float(eig[0] / eig[-1])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 80),
    seed=st.integers(0, 2**32 - 1),
    span=st.floats(0.3, math.pi),
    noise=st.sampled_from([0.0, 1e-4, 1e-2]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_closed_form_matches_stacked_least_squares(n, seed, span, noise, scale):
    rng = np.random.default_rng(seed)
    rotations = axis_angle_rotations(rng.normal(size=(n, 3)), rng.uniform(-span, span, n))
    assume(reduced_conditioning(rotations) >= 1e-3)
    offset = rng.normal(scale=0.1 * scale, size=3)
    pivot = rng.normal(scale=scale, size=3)
    translations = pivot - rotations @ offset + rng.normal(scale=noise * scale, size=(n, 3))

    got_offset, got_pivot = _solve_pivot(rotations, translations)
    want_offset, want_pivot = oracle_solve_pivot(rotations, translations)
    size = max(np.linalg.norm(np.r_[want_offset, want_pivot]), np.abs(translations).max())
    assert np.linalg.norm(np.r_[got_offset - want_offset, got_pivot - want_pivot]) <= 1e-9 * size


# ------------------------------------------ rotations about nearly one axis

WOBBLE_OFFSET = np.array([0.01, -0.02, -0.12])
WOBBLE_PIVOT = np.array([0.4, 0.1, 0.02])


def wobble_set(w: float, n: int = 200, seed: int = 0):
    """Noise-free pivot poses turned up to 60 degrees about axes within ``w``
    rad of z.  The eigenvalue ratio of ``M`` is about ``w**2``."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    axes = np.column_stack([w * np.cos(phi), w * np.sin(phi), np.ones(n)])
    rotations = axis_angle_rotations(axes, rng.uniform(-math.pi / 3, math.pi / 3, n))
    return rotations, WOBBLE_PIVOT - rotations @ WOBBLE_OFFSET


@pytest.mark.parametrize("w", [0.0, 1e-7])
def test_rotations_about_one_axis_are_degenerate(w):
    with pytest.raises(DegenerateRotations, match="rank-deficient"):
        _solve_pivot(*wobble_set(w))


def test_rotations_about_axes_a_milliradian_apart_solve():
    offset, pivot = _solve_pivot(*wobble_set(1e-3))
    assert np.linalg.norm(offset - WOBBLE_OFFSET) < 1e-9
    assert np.linalg.norm(pivot - WOBBLE_PIVOT) < 1e-9


# ------------------------------------------------- far rows and the first pass


def pivot_recording(n=300, seed=0, noise=1e-4, rate=0.05):
    cfg = SynthConfig(
        true_calibration=Pose(np.array([0.0, 0.0, 0.0, 1.0]), WOBBLE_OFFSET),
        pivot_point=WOBBLE_PIVOT,
        sample_count=n,
        rotation_span=math.radians(120.0),
        position_noise_std=noise,
        orientation_noise_std=0.0,
        outlier_rate=rate,
        outlier_magnitude=0.1,
        seed=seed,
    )
    return gen_position_dataset(cfg)[0]


CLEAN = pivot_recording()
CLEAN_RESULT = calibrate_position(CLEAN)


@settings(max_examples=50, deadline=None)
@given(
    far=st.lists(
        st.tuples(
            st.integers(0, len(CLEAN)),
            st.floats(2.0, 6.0),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_far_rows_leave_the_clean_result(far):
    # 1-10 rows at 1e2-1e6 m, anywhere in the recording, leave every
    # number of the clean recording's result as it was.
    q, p = CLEAN.q, CLEAN.p
    for at, exponent, seed in sorted(far, reverse=True):
        rng = np.random.default_rng(seed)
        row_q = rng.normal(size=4)
        row_p = rng.normal(size=3)
        q = np.insert(q, at, row_q / np.linalg.norm(row_q), axis=0)
        p = np.insert(p, at, 10.0**exponent * row_p / np.linalg.norm(row_p), axis=0)
    result = calibrate_position(PositionDataset(q=q, p=p))
    assert result.tip_offset.tobytes() == CLEAN_RESULT.tip_offset.tobytes()
    assert result.pivot.tobytes() == CLEAN_RESULT.pivot.tobytes()
    assert repr(result.residual_rms) == repr(CLEAN_RESULT.residual_rms)
    assert result.removed_outliers == CLEAN_RESULT.removed_outliers + len(far)


def test_equal_translations_keep_every_row():
    # A zero tip offset without noise: every translation is the pivot, the
    # median distance is 0, and every row is near.
    rotations = axis_angle_rotations(np.eye(3)[np.arange(30) % 3], np.linspace(-1.0, 1.0, 30))
    q = np.array([quat_from_matrix(r) for r in rotations])
    ds = PositionDataset(q=q, p=np.tile(WOBBLE_PIVOT, (30, 1)))
    result = calibrate_position(ds, FilterParams(min_neighbors=3))
    assert result.removed_outliers == 0
    assert np.linalg.norm(result.pivot - WOBBLE_PIVOT) < 1e-12
    assert np.linalg.norm(result.tip_offset) < 1e-12


def test_one_far_row_in_a_pivot_file_is_dropped(tmp_path, capsys):
    # One row moved 100 km out made the density filter find no cluster
    # (exit 3) when the first solve saw it.
    config = tmp_path / "position.json"
    config.write_text(json.dumps({
        "kind": "position", "seed": 11, "sample_count": 2000, "position_noise_std": 1e-4,
        "outlier_rate": 0.05, "outlier_magnitude": 0.1,
    }))
    assert main(["simulate", str(config), "--out-dir", str(tmp_path / "sim")]) == 0
    lines = (tmp_path / "sim" / "poses.csv").read_text().splitlines()
    fields = lines[501].split(",")
    fields[1] = "100000.0"
    lines[501] = ",".join(fields)
    far = tmp_path / "far.csv"
    far.write_text("\n".join(lines) + "\n")
    truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
    capsys.readouterr()

    assert main(["calibrate-position", str(far)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.linalg.norm(np.subtract(doc["translation"], truth["tip_offset"])) < 1e-3
    assert doc["filtered_outliers"] > truth["outlier_count"]


@pytest.mark.parametrize("across", [False, True])
def test_a_mostly_still_recording_calibrates(tmp_path, capsys, across):
    # 60 % of the rows rest on the divot, 40 % pivot up to 60 degrees, with
    # 0.1 mm of noise: the median distance is noise-sized, so every row
    # turned more than about 1.4 degrees about an axis across the shaft lies
    # over 20 MADs out.  Turned about such axes only, the near rows span too
    # little rotation to seed the solve; turned about any axis, they seed it
    # a millimetre off.  Either way every row agrees on the tip.
    rng = np.random.default_rng(3)
    n_still, n_turn = 600, 400
    axes = rng.normal(size=(n_still + n_turn, 3))
    if across:
        axes = np.cross(axes, WOBBLE_OFFSET)
    angles = np.r_[np.zeros(n_still), rng.uniform(-1.0, 1.0, n_turn) * math.radians(60.0)]
    rotations = axis_angle_rotations(axes, angles)
    p = WOBBLE_PIVOT - rotations @ WOBBLE_OFFSET + rng.normal(scale=1e-4, size=(len(angles), 3))
    q = np.array([quat_from_matrix(r) for r in rotations])
    poses = tmp_path / "still.csv"
    with open(poses, "w") as stream:
        write_pose_csv(PoseRecording("tracker", t=np.arange(len(angles)) * 0.01, q=q, p=p), stream)

    assert main(["calibrate-position", str(poses)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["filtered_outliers"] == 0
    assert np.linalg.norm(np.subtract(doc["translation"], WOBBLE_OFFSET)) < 1e-4


@pytest.mark.parametrize("n", [400, 2000])
@pytest.mark.parametrize("near", ["still", "about the shaft"])
def test_no_proper_prefix_seeds_so_every_row_does(n, near):
    # The rows nearest the median translation either rest still (too little
    # rotation) or turn about the shaft only (the tip is unobservable along
    # it); only the two farthest rows turn across it.  No prefix short of
    # every row seeds the first pass, so every row does: at 400 rows the
    # 99.9 % prefix is every row, at 2000 the last prefix is two rows short.
    rng = np.random.default_rng(n)
    shaft = np.tile(WOBBLE_OFFSET, (n - 2, 1))
    spin = 0.0 if near == "still" else rng.uniform(-1.0, 1.0, n - 2)
    angles = np.r_[spin * np.ones(n - 2), math.radians(40.0), math.radians(-40.0)]
    rotations = axis_angle_rotations(np.r_[shaft, np.eye(3)[:2]], angles)
    q = np.array([quat_from_matrix(r) for r in rotations])
    rotations = quats_to_matrices(q)
    p = WOBBLE_PIVOT - rotations @ WOBBLE_OFFSET + rng.normal(scale=1e-5, size=(n, 3))

    assert _first_pass(q, rotations, p, DEFAULT_MIN_ROTATION)[2] is False
    result = calibrate_position(PositionDataset(q=q, p=p))
    want_offset, want_pivot = oracle_solve_pivot(rotations, p)
    size = max(np.linalg.norm(np.r_[want_offset, want_pivot]), np.abs(p).max())
    assert result.removed_outliers == 0
    assert np.linalg.norm(np.r_[result.tip_offset - want_offset, result.pivot - want_pivot]) <= (
        1e-9 * size
    )
    assert np.linalg.norm(result.tip_offset - WOBBLE_OFFSET) < 1e-4
