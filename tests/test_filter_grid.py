"""The grid outlier filter and the rotation gate against the list-based
DBSCAN filter and the N x N gate they replaced, kept here as oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from styluskit import calib
from styluskit.calib import (
    AXIS_FILTER_DEFAULT,
    FilterParams,
    PositionDataset,
    calibrate_position,
    filter_outliers,
)
from styluskit.errors import AllOutliers, DegenerateRotations
from styluskit.geometry import Pose, quat_from_axis_angle, quats_to_matrices
from styluskit.synth import SynthConfig, gen_orientation_dataset, gen_position_dataset


def oracle_filter_outliers(points, params: FilterParams) -> tuple[np.ndarray, int]:
    """List-based DBSCAN: O(N^2) time and memory on dense clouds."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("filter_outliers expects a non-empty (N, d) array")
    n = pts.shape[0]
    tree = cKDTree(pts)
    neighbor_lists = tree.query_ball_point(pts, params.neighborhood_radius)
    core = np.array([len(nb) >= params.min_neighbors for nb in neighbor_lists])

    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for start in range(n):
        if labels[start] != -1 or not core[start]:
            continue
        labels[start] = cluster
        stack = [start]
        while stack:
            j = stack.pop()
            for k in neighbor_lists[j]:
                if labels[k] == -1:
                    labels[k] = cluster
                    if core[k]:
                        stack.append(k)
        cluster += 1

    if cluster == 0:
        raise AllOutliers("no point has enough neighbors to seed a cluster")
    sizes = np.bincount(labels[labels >= 0], minlength=cluster)
    best = int(np.argmax(sizes))
    if sizes[best] < params.min_neighbors:
        raise AllOutliers(
            f"largest cluster has {sizes[best]} points, fewer than min_neighbors"
        )
    kept = np.flatnonzero(labels == best)
    return kept, n - kept.size


def oracle_rotation_diversity(q: np.ndarray) -> float:
    """Largest pairwise rotation angle, from the full N x N dot matrix."""
    dots = np.abs(q @ q.T)
    np.clip(dots, -1.0, 1.0, out=dots)
    return 2.0 * math.acos(float(dots.min()))


def outcome(fn, points, params):
    try:
        kept, removed = fn(points, params)
    except AllOutliers:
        return "AllOutliers"
    return kept.tolist(), removed


def assert_matches_oracle(points, params):
    assert outcome(filter_outliers, points, params) == outcome(
        oracle_filter_outliers, points, params
    )


PARAMS = [
    FilterParams(),
    AXIS_FILTER_DEFAULT,
    FilterParams(neighborhood_radius=0.005, min_neighbors=3),
    FilterParams(neighborhood_radius=0.01, min_neighbors=25),
    FilterParams(neighborhood_radius=0.02, min_neighbors=1),
]


def make_cloud(rng, n, d, layout, r):
    """Synthetic points of one of four layouts, scaled to the radius ``r``."""
    if layout == "clusters":
        k = int(rng.integers(1, 6))
        centers = rng.uniform(-6 * r, 6 * r, size=(k, d))
        spread = r * rng.uniform(0.05, 2.0, size=(k, 1))
        which = rng.integers(0, k, size=n)
        return centers[which] + spread[which] * rng.normal(size=(n, d))
    if layout == "sparse":
        return rng.uniform(-30 * r, 30 * r, size=(n, d))
    if layout == "lattice":
        # Coordinates on a lattice of r/5 (or r/4): many pairs sit at
        # exactly r apart, such as 3-4-5 triangles.
        step = r / float(rng.choice([4, 5]))
        return np.round(rng.normal(scale=5.0, size=(n, d))) * step
    ball = rng.normal(scale=r / 3, size=(n, d))
    ball[: max(1, n // 20)] += rng.uniform(-1, 1, size=(max(1, n // 20), d)) * 10 * r
    return ball


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2000),
    d=st.sampled_from([1, 2, 3]),
    layout=st.sampled_from(["clusters", "sparse", "lattice", "ball"]),
    params=st.sampled_from(PARAMS),
)
def test_grid_filter_matches_oracle(seed, n, d, layout, params):
    rng = np.random.default_rng(seed)
    assert_matches_oracle(make_cloud(rng, n, d, layout, params.neighborhood_radius), params)


@pytest.mark.parametrize("layout", ["clusters", "sparse", "lattice", "ball"])
def test_grid_filter_matches_oracle_small_sweep(layout):
    rng = np.random.default_rng(["clusters", "sparse", "lattice", "ball"].index(layout))
    for case in range(150):
        params = PARAMS[case % len(PARAMS)]
        d = 1 + case % 3
        n = int(rng.integers(1, 300))
        points = make_cloud(rng, n, d, layout, params.neighborhood_radius)
        assert_matches_oracle(points, params)


def test_lattice_has_exact_radius_ties():
    # The lattice layout must really put pairs at exactly r (as cKDTree
    # computes it), or the tie cases above test nothing.
    rng = np.random.default_rng(0)
    params = FilterParams()
    points = make_cloud(rng, 300, 3, "lattice", params.neighborhood_radius)
    tree = cKDTree(points)
    exact = tree.query_ball_point(points, params.neighborhood_radius, return_length=True)
    inside = tree.query_ball_point(
        points, np.nextafter(params.neighborhood_radius, 0.0), return_length=True
    )
    assert np.sum(exact - inside) > 0
    assert_matches_oracle(points, params)


@pytest.mark.parametrize(
    "radius, scale",
    [
        (0.005, 1e12),  # extent / cell side beyond 2**45: the grid coarsens
        (0.005, 1e17),  # uncoarsened cell indices would overflow int64
        (1e-200, 1e-190),  # radius squared underflows to zero
        (1e150, 1e140),  # radius squared near the top of the float range
        (1e-9, 1.0),
    ],
)
def test_extreme_radius_and_extent(radius, scale):
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for min_neighbors in (1, 3, 10):
            params = FilterParams(radius, min_neighbors)
            points = np.vstack(
                [
                    rng.normal(scale=scale, size=(40, d)),
                    np.zeros((12, d)),
                    np.round(rng.normal(scale=3, size=(40, d))) * radius / 5,
                ]
            )
            assert_matches_oracle(points, params)


def test_existing_fixtures_match_oracle():
    cfg = SynthConfig(
        true_calibration=Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, -0.12])),
        pivot_point=np.array([0.4, 0.1, 0.02]),
        sample_count=1500,
        rotation_span=math.radians(120.0),
        position_noise_std=1e-4,
        orientation_noise_std=math.radians(0.5),
        outlier_rate=0.05,
        outlier_magnitude=0.08,
        seed=501,
    )
    ds, truth = gen_position_dataset(cfg)
    assert_matches_oracle(calib.candidate_tip_points(ds, truth.tip_offset), FilterParams())
    hole_ds, _ = gen_orientation_dataset(cfg, [[0, 0, 1], [0, 0.6, 0.8], [0.6, 0, 0.8]], 500)
    for hole in hole_ds.holes:
        rotations = quats_to_matrices(np.array([p.rotation for p in hole.poses]))
        axes = np.einsum("nji,j->ni", rotations, hole.reference_axis)
        assert_matches_oracle(axes, AXIS_FILTER_DEFAULT)


def test_errors_match_oracle():
    with pytest.raises(ValueError):
        filter_outliers(np.zeros((0, 3)), FilterParams())
    with pytest.raises(ValueError):
        filter_outliers(np.zeros(5), FilterParams())
    far = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    with pytest.raises(AllOutliers, match="no point has enough neighbors"):
        filter_outliers(far, FilterParams(min_neighbors=2))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e160])
def test_filter_params_reject_bad_radius(radius):
    with pytest.raises(ValueError, match="positive with a finite square"):
        FilterParams(neighborhood_radius=radius)


def rotations_about(axis_angles_deg):
    """Unit quaternions for rotations by ``angle`` about the horizontal axis
    at azimuth ``phi``, from ``(phi, angle)`` pairs in degrees."""
    return np.array(
        [
            quat_from_axis_angle(
                [math.cos(math.radians(phi)), math.sin(math.radians(phi)), 0.0],
                math.radians(angle),
            )
            for phi, angle in axis_angles_deg
        ]
    )


class TestRotationGate:
    THRESHOLD = math.radians(30.0)

    def check(self, q, expected):
        assert (oracle_rotation_diversity(q) >= self.THRESHOLD) is expected
        assert calib._rotation_spread_reaches(q, self.THRESHOLD) is expected

    def test_fast_pass(self, monkeypatch):
        # Pose 0 is the identity and another pose is 60 degrees from it.
        monkeypatch.setattr(calib, "_GATE_CHUNK", None)  # the full scan must not run
        self.check(rotations_about([(0, 0), (0, 10), (90, 60)]), True)

    def test_fast_fail(self, monkeypatch):
        # Every pose is within 10 degrees of pose 0, so no pair is over 20 apart.
        monkeypatch.setattr(calib, "_GATE_CHUNK", None)
        self.check(rotations_about([(0, 0), (0, 10), (180, 10), (90, 5)]), False)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_band_pass_needs_full_scan(self, monkeypatch, chunk):
        # 20 degrees each way from pose 0: 40 apart, though pose 0 sees 20.
        monkeypatch.setattr(calib, "_GATE_CHUNK", chunk)
        self.check(rotations_about([(0, 0), (0, 20), (90, 5), (180, 20)]), True)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_band_fail_needs_full_scan(self, monkeypatch, chunk):
        # Pose 0 sees 20 degrees, but all other poses lie on one side.
        monkeypatch.setattr(calib, "_GATE_CHUNK", chunk)
        self.check(rotations_about([(0, 0), (0, 20), (10, 18), (0, 12)]), False)

    def test_random_sets_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            spread = rng.uniform(0.0, 0.6)
            q = rng.normal(size=(n, 4)) * spread + np.array([0.0, 0.0, 0.0, 1.0])
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            threshold = rng.uniform(0.0, 1.5)
            assert calib._rotation_spread_reaches(q, threshold) == (
                oracle_rotation_diversity(q) >= threshold
            )

    def test_calibrate_position_rejects_low_diversity(self):
        poses = [Pose(q, np.zeros(3)) for q in rotations_about([(0, 0), (0, 10), (180, 10)])]
        with pytest.raises(DegenerateRotations, match="30.0 deg"):
            calibrate_position(PositionDataset(poses))


def test_calibrate_position_memory_stays_bounded():
    cfg = SynthConfig(
        true_calibration=Pose(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.01, -0.02, -0.12])),
        pivot_point=np.array([0.4, 0.1, 0.02]),
        sample_count=20000,
        rotation_span=math.radians(120.0),
        position_noise_std=1e-4,
        orientation_noise_std=0.0,
        outlier_rate=0.05,
        outlier_magnitude=0.08,
        seed=3,
    )
    ds, truth = gen_position_dataset(cfg)
    tracemalloc.start()
    try:
        result = calibrate_position(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The N x N gate alone needed 3.2 GB here.
    assert peak < 100 * 2**20
    assert np.linalg.norm(result.tip_offset - truth.tip_offset) < 1e-3
    assert result.removed_outliers > 0
