"""The grid outlier filter and the rotation gate against the list-based
DBSCAN filter and the N x N gate they replaced, and against the k-d tree
grid filter that preceded the numpy radius queries, kept here as oracles."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import candidate_tip_points
from scipy.spatial import cKDTree

from styluskit import calib
from styluskit.calib import (
    AXIS_FILTER_DEFAULT,
    FilterParams,
    _grid_reach,
    _sq_norm,
    calibrate_position,
    filter_outliers,
)
from styluskit.errors import AllOutliers, DegenerateRotations
from styluskit.geometry import Pose, PositionDataset, quat_from_axis_angle, quats_to_matrices
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


# The k-d tree filter that the numpy grid queries replaced, kept verbatim
# as a second oracle: the same grid DBSCAN, with its radius queries,
# box pairs and closest-pair tests answered by ``cKDTree``, and its grid
# capped at 2**45 cells per axis.


def _grid_cells(pts: np.ndarray, radius: float) -> np.ndarray:
    """Integer cell coordinates on a grid of side about ``radius / sqrt(d)``.

    The side is shrunk by a relative 1e-9 so a full cell fits within
    ``radius`` after rounding.  It is widened where the extent would need
    more than 2**45 cells per axis, which keeps float cell coordinates
    within 1/64 cell of exact.  Radii below 2**-500 are raised to it: their
    squares underflow, so the neighbor test reaches further than the radius
    itself.
    """
    lo = pts.min(axis=0)
    side = max(
        max(radius, 2.0**-500) / math.sqrt(pts.shape[1]) * (1.0 - 1e-9),
        float(np.max(pts.max(axis=0) - lo)) / 2.0**45,
    )
    if math.isinf(side):  # the extent overflows: one cell for everything
        return np.zeros(pts.shape, dtype=np.int64)
    return np.floor((pts - lo) / side).astype(np.int64)


def _neighbor_pairs(tree: cKDTree, idx: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` arrays listing every point ``j`` within ``r`` of each ``i`` in ``idx``."""
    if idx.size == 0:
        return idx, idx
    near = tree.query_ball_point(tree.data[idx], r)
    return (
        np.repeat(idx, [len(nb) for nb in near]),
        np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp),
    )


def _box_pairs(box_pts, box_starts, box_cells, r2):
    """Pairs ``(a, b)`` of boxes (runs of ``box_pts`` in grid cells
    ``box_cells``) that may hold points within ``sqrt(r2)`` of each other.

    Returns the pairs whose bounding boxes fit within the radius end to end
    (surely joined), then those that need a closest-pair test.  Pairs whose
    boxes are farther apart, or whose cells are beyond the grid reach, are
    dropped.  Box corners bound every point difference after rounding, so
    both tests are exact.
    """
    from scipy.spatial import cKDTree

    if box_starts.size == 0:
        none = np.zeros(0, dtype=np.intp)
        return none, none, none, none
    lo = np.minimum.reduceat(box_pts, box_starts)
    hi = np.maximum.reduceat(box_pts, box_starts)
    pairs = cKDTree(box_cells.astype(float)).query_pairs(
        _grid_reach(box_cells.shape[1]), p=np.inf, output_type="ndarray"
    )
    a, b = pairs[:, 0], pairs[:, 1]
    gap = np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
    joined = _sq_norm(np.maximum(hi[b] - lo[a], hi[a] - lo[b])) <= r2
    unsure = ~joined & (_sq_norm(gap) <= r2)
    return a[joined], b[joined], a[unsure], b[unsure]


def _connect_units(units, linked_a, linked_b, a, b, box_pts, box_starts, box_sizes, r2):
    """Component root of each of ``units`` units, by union-find.

    Units ``linked_a[k]`` and ``linked_b[k]`` are known to be connected.
    Boxes ``a[k]`` and ``b[k]`` (units numbered by box) connect when their
    closest pair of points is within ``sqrt(r2)``; the test is skipped for
    pairs already connected.  Small pairs compare every point pair;
    otherwise a k-d tree of the larger box finds each point's nearest
    neighbor in it.
    """
    from scipy.spatial import cKDTree

    parent = list(range(units))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(linked_a.tolist(), linked_b.tolist()):
        parent[find(x)] = find(y)
    trees: dict[int, cKDTree] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        root_x, root_y = find(x), find(y)
        if root_x == root_y:
            continue
        if box_sizes[x] > box_sizes[y]:
            x, y = y, x
        px = box_pts[box_starts[x]:box_starts[x] + box_sizes[x]]
        py = box_pts[box_starts[y]:box_starts[y] + box_sizes[y]]
        if px.shape[0] * py.shape[0] <= 256:
            closest = _sq_norm(px[:, None, :] - py[None, :, :]).min()
        else:
            if y not in trees:
                trees[y] = cKDTree(py)
            closest = _sq_norm(px - py[trees[y].query(px, k=1)[1]]).min()
        if closest <= r2:
            parent[root_x] = root_y
    return np.array([find(u) for u in range(units)])


def kdtree_filter_outliers(points, params: FilterParams) -> tuple[np.ndarray, int]:
    """Keep the largest density cluster of ``points`` (exact DBSCAN).

    A point is core when at least ``min_neighbors`` points, itself
    included, lie within ``neighborhood_radius`` ``r`` (distance ``<= r``,
    as ``cKDTree`` counts it).  Core points within ``r`` of each other share
    a cluster.  A non-core point within ``r`` of core points joins the
    adjacent cluster whose lowest core index is smallest; the others are
    noise.  Clusters rank by lowest core index, and the first of the
    largest is kept.

    Grid DBSCAN (Gunawan 2013; Gan & Tao, SIGMOD 2015; Schubert et al., ACM
    TODS 2017) computes this in near-linear time.  Points go into cells of
    side about ``r / sqrt(d)``.  A cell whose bounding box fits within
    ``r`` is a clique: its core points are connected, and if it holds
    ``min_neighbors`` points they are all core without being counted.  Only
    the other points get an exact neighbor count.  Clique cells up to
    ``floor(sqrt(d)) + 1`` cells apart merge when their core bounding boxes
    are within ``r`` end to end, stay apart when the boxes are more than
    ``r`` apart, and otherwise merge when their closest pair of core points
    is within ``r``.  Core points of the other cells, which occur only for
    extreme extents or radii, link through their neighbor lists.
    Non-core points have fewer than ``min_neighbors`` neighbors, so their
    neighbor lists stay short.

    Returns ``(kept_indices, removed_count)``; kept indices stay in input
    order, so the result is deterministic.  Raises :class:`AllOutliers`
    when no point has enough neighbors to seed a cluster.
    """
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("filter_outliers expects a non-empty (N, d) array")
    n = pts.shape[0]
    r = params.neighborhood_radius
    r2 = r * r
    tree = cKDTree(pts)

    # Cells, with the points of each cell contiguous in ``by_cell``.
    grid = _grid_cells(pts, r)
    by_cell = np.lexsort(grid.T[::-1])
    new_cell = np.r_[True, np.any(grid[by_cell[1:]] != grid[by_cell[:-1]], axis=1)]
    cells = grid[by_cell[new_cell]]
    cell_of = np.empty(n, dtype=np.intp)
    cell_of[by_cell] = np.cumsum(new_cell) - 1
    starts = np.flatnonzero(new_cell)
    grouped = pts[by_cell]
    clique = (
        _sq_norm(np.maximum.reduceat(grouped, starts) - np.minimum.reduceat(grouped, starts))
        <= r2
    )

    core = (clique & (np.diff(np.r_[starts, n]) >= params.min_neighbors))[cell_of]
    counted = np.flatnonzero(~core)
    core[counted] = (
        tree.query_ball_point(pts[counted], r, return_length=True) >= params.min_neighbors
    )
    if not core.any():
        raise AllOutliers("no point has enough neighbors to seed a cluster")

    # Units to connect: the core points of one clique cell (a "box"), or a
    # single core point of any other cell.  ``boxed`` lists boxes in turn.
    in_box = core & clique[cell_of]
    boxed = by_cell[in_box[by_cell]]
    box_starts = np.flatnonzero(np.diff(cell_of[boxed], prepend=-1))
    box_sizes = np.diff(np.r_[box_starts, boxed.size])
    box_pts = pts[boxed]
    unit = np.full(n, -1)
    unit[boxed] = np.repeat(np.arange(box_starts.size), box_sizes)
    loose = np.flatnonzero(core & ~in_box)
    unit[loose] = box_starts.size + np.arange(loose.size)
    units = box_starts.size + loose.size

    owner, other = _neighbor_pairs(tree, loose, r)
    linked = core[other]
    joined_a, joined_b, a, b = _box_pairs(
        box_pts, box_starts, cells[cell_of[boxed[box_starts]]], r2
    )
    comp = _connect_units(
        units,
        np.concatenate([unit[owner[linked]], joined_a]),
        np.concatenate([unit[other[linked]], joined_b]),
        a,
        b,
        box_pts,
        box_starts,
        box_sizes,
        r2,
    )

    # Number clusters by lowest core index, as a scan in index order would.
    core_idx = np.flatnonzero(core)
    _, first, cluster_of = np.unique(comp[unit[core_idx]], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    labels = np.full(n, -1)
    labels[core_idx] = rank[cluster_of.reshape(-1)]

    border = np.flatnonzero(~core)
    owner, other = _neighbor_pairs(tree, border, r)
    touching = core[other]
    best = np.full(n, first.size)
    np.minimum.at(best, owner[touching], labels[other[touching]])
    labels[border] = np.where(best[border] < first.size, best[border], -1)

    kept = np.flatnonzero(labels == int(np.argmax(np.bincount(labels[labels >= 0]))))
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
        (2**-511, 1e-150),  # the smallest radius accepted
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
    assert_matches_oracle(candidate_tip_points(ds, truth.tip_offset), FilterParams())
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


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e160, 1e-200])
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
        q = rotations_about([(0, 0), (0, 10), (180, 10)])
        with pytest.raises(DegenerateRotations, match="30.0 deg"):
            calibrate_position(PositionDataset(q=q, p=np.zeros((3, 3))))


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


def assert_matches_kdtree(points, params):
    assert outcome(filter_outliers, points, params) == outcome(
        kdtree_filter_outliers, points, params
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2000),
    d=st.sampled_from([1, 2, 3]),
    layout=st.sampled_from(["clusters", "sparse", "lattice", "ball"]),
    params=st.sampled_from(PARAMS),
)
def test_grid_filter_matches_kdtree_oracle(seed, n, d, layout, params):
    rng = np.random.default_rng(seed)
    points = make_cloud(rng, n, d, layout, params.neighborhood_radius)
    assert_matches_kdtree(points, params)


@pytest.mark.parametrize(
    "radius, scale",
    [
        (0.005, 1e4),  # beyond 2**20 cells per axis: the grid coarsens
        (0.005, 1e12),
        (0.005, 1e17),
        (2**-511, 1e-150),  # the smallest radius accepted
        (1e150, 1e140),  # radius squared near the top of the float range
        (1e-9, 1.0),
    ],
)
def test_extreme_radius_and_extent_match_kdtree_oracle(radius, scale):
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
            assert_matches_kdtree(points, params)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_axes_beyond_the_key_match_kdtree_oracle(d):
    # Only three cell coordinates go into the key; the others are checked
    # point by point.
    rng = np.random.default_rng(d)
    for case in range(40):
        params = PARAMS[case % len(PARAMS)]
        layout = ["clusters", "sparse", "lattice", "ball"][case % 4]
        points = make_cloud(rng, int(rng.integers(1, 300)), d, layout, params.neighborhood_radius)
        assert_matches_kdtree(points, params)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 1500),
    d=st.sampled_from([1, 2, 3, 4]),
    layout=st.sampled_from(["clusters", "sparse", "lattice", "ball"]),
    radius=st.sampled_from([0.005, 0.02, 1e-9]),
)
def test_stencil_neighbors_match_kdtree(seed, n, d, layout, radius):
    rng = np.random.default_rng(seed)
    points = make_cloud(rng, n, d, layout, radius)
    idx = rng.permutation(n)[: max(1, n // 2)]
    grid = calib._Grid(points, radius)
    tree = cKDTree(points)

    counts, owner, _ = grid.neighbors(idx, 0)
    expected = tree.query_ball_point(points[idx], radius, return_length=True)
    assert counts.tolist() == expected.tolist()
    assert owner.size == 0

    _, owner, other = grid.neighbors(idx, n + 1)
    lists = tree.query_ball_point(points[idx], radius)
    expected = [(int(i), j) for i, near in zip(idx, lists) for j in near]
    assert sorted(zip(owner.tolist(), other.tolist())) == sorted(expected)


def test_stencil_counts_exact_radius_ties():
    rng = np.random.default_rng(0)
    radius = 0.005
    points = make_cloud(rng, 300, 3, "lattice", radius)
    tree = cKDTree(points)
    exact = tree.query_ball_point(points, radius, return_length=True)
    inside = tree.query_ball_point(points, np.nextafter(radius, 0.0), return_length=True)
    assert np.sum(exact - inside) > 0
    idx = np.arange(points.shape[0])
    counts, _, _ = calib._Grid(points, radius).neighbors(idx, 0)
    assert counts.tolist() == exact.tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_raise(bad):
    points = np.zeros((20, 3))
    points[7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        filter_outliers(points, FilterParams())
