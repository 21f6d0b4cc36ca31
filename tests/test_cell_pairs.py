"""The grid's one cell-pair walk, ``_Grid.cell_pairs``, against a brute-force
check of every pair of occupied cells, and the neighbor queries built on
it against every pair of points, in any block size and with any number of
keyed axes.  Every cell of the grid must fit within the radius, whatever
the extent of the points."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_filter_grid import kdtree_filter_outliers, make_cloud, oracle_filter_outliers, outcome

from styluskit import calib
from styluskit.calib import FilterParams, _sq_norm, filter_outliers

LAYOUTS = ["clusters", "sparse", "lattice", "ball"]


def brute_cell_pairs(points, grid, cells):
    """``{(k, b): full}`` over every query cell ``cells[k]`` and every
    occupied cell ``b`` whose boxes, taken from the points themselves, are
    at most ``r`` apart; ``full`` when they are within ``r`` corner to
    corner."""
    occupied = grid.size.size
    lo = np.array([points[grid.cell_of == c].min(axis=0) for c in range(occupied)])
    hi = np.array([points[grid.cell_of == c].max(axis=0) for c in range(occupied)])
    qlo, qhi = lo[cells][:, None, :], hi[cells][:, None, :]
    gap = np.maximum(np.maximum(lo[None] - qhi, qlo - hi[None]), 0.0)
    span = np.maximum(hi[None] - qlo, qhi - lo[None])
    near = _sq_norm(gap) <= grid.r2
    full = _sq_norm(span) <= grid.r2
    return {(int(k), int(b)): bool(full[k, b]) for k, b in zip(*np.nonzero(near))}


def walked_cell_pairs(grid, cells, weights):
    """``{(k, b): full}`` from :meth:`_Grid.cell_pairs`, checking that each
    block holds every pair of a run of consecutive ``k``, ascending, and
    that no pair comes twice."""
    pairs = {}
    next_k = 0
    for k, b, full in grid.cell_pairs(cells, weights):
        assert k.size and np.all(np.diff(k) >= 0)
        assert k[0] == next_k
        next_k = int(k[-1]) + 1
        for key in zip(k.tolist(), b.tolist(), full.tolist()):
            assert key[:2] not in pairs
            pairs[key[:2]] = key[2]
    assert next_k == cells.size
    return pairs


def assert_cells_within_r(grid):
    """Every cell's bounding box is within ``r`` corner to corner, so each
    cell is a clique."""
    d = grid.pts.shape[1]
    assert np.all(_sq_norm((grid.box[d:] - grid.box[:d]).T) <= grid.r2)


def check_cell_pairs(points, radius, rng):
    grid = calib._Grid(points, radius)
    occupied = grid.size.size
    subset = np.sort(rng.permutation(occupied)[: int(rng.integers(1, occupied + 1))])
    for cells in (np.arange(occupied), subset):
        weights = rng.integers(1, 50, cells.size)
        assert walked_cell_pairs(grid, cells, weights) == brute_cell_pairs(points, grid, cells)


def check_neighbors(points, radius, rng):
    n = points.shape[0]
    grid = calib._Grid(points, radius)
    idx = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    within = np.array([_sq_norm(points[i] - points) <= grid.r2 for i in idx])
    counts, owner, _ = grid.neighbors(idx, 0)
    assert counts.tolist() == within.sum(axis=1).tolist()
    assert owner.size == 0

    min_count = int(rng.integers(1, 12))
    counts, owner, other = grid.neighbors(idx, min_count)
    assert counts.tolist() == within.sum(axis=1).tolist()
    wanted = counts < min_count
    expected = [
        (int(i), int(j))
        for i, row in zip(idx[wanted], within[wanted])
        for j in np.flatnonzero(row)
    ]
    assert sorted(zip(owner.tolist(), other.tolist())) == sorted(expected)


CLOUDS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    d=st.integers(1, 4),
    layout=st.sampled_from(LAYOUTS),
    radius=st.sampled_from([0.005, 0.02]),
)


@pytest.mark.parametrize("chunk", [calib._PAIR_CHUNK, 7])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**CLOUDS)
def test_cell_pairs_match_brute_force(chunk, seed, n, d, layout, radius):
    rng = np.random.default_rng(seed)
    points = make_cloud(rng, n, d, layout, radius)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calib, "_PAIR_CHUNK", chunk)
        check_cell_pairs(points, radius, rng)


@pytest.mark.parametrize("chunk", [calib._PAIR_CHUNK, 7])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**CLOUDS)
def test_neighbors_match_brute_force(chunk, seed, n, d, layout, radius):
    rng = np.random.default_rng(seed)
    points = make_cloud(rng, n, d, layout, radius)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calib, "_PAIR_CHUNK", chunk)
        check_neighbors(points, radius, rng)


@pytest.mark.parametrize("chunk", [calib._PAIR_CHUNK, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_extent_beyond_grid_cap(monkeypatch, chunk, d):
    # 1e4 over a cell side of about 0.005 / sqrt(d) is past 2**20 cells per
    # axis; the grid splits at the gaps and its cells stay cliques.
    monkeypatch.setattr(calib, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(d)
    radius = 0.005
    points = np.vstack(
        [
            rng.normal(scale=1e4, size=(40, d)),
            np.zeros((12, d)),
            np.round(rng.normal(scale=3, size=(40, d))) * radius / 5,
        ]
    )
    grid = calib._Grid(points, radius)
    assert_cells_within_r(grid)
    check_cell_pairs(points, radius, rng)
    check_neighbors(points, radius, rng)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**CLOUDS, far=st.integers(0, 3), exponent=st.integers(4, 17))
def test_every_cell_fits_within_r(seed, n, d, layout, radius, far, exponent):
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [
            make_cloud(rng, n, d, layout, radius),
            rng.normal(scale=10.0**exponent, size=(far, d)),
        ]
    )
    assert_cells_within_r(calib._Grid(points, radius))


@pytest.mark.parametrize("axes", [1, 2])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**CLOUDS)
def test_fewer_key_axes_match_brute_force(axes, seed, n, d, layout, radius):
    # A key bound just above the radix product of the first ``axes`` axes
    # leaves the other axes to the sort.
    rng = np.random.default_rng(seed)
    points = make_cloud(rng, n, d, layout, radius)
    reach = calib._grid_reach(d)
    cells = calib._grid_cells(points, radius * radius, reach)
    radix = [int(top) + 2 * reach + 1 for top in cells.max(axis=0)]
    bits = math.ceil(math.log2(math.prod(radix[:axes]))) if axes > 1 else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calib, "_KEY_BITS", bits)
        grid = calib._Grid(points, radius)
        assert grid.rows.size == (2 * reach + 1) ** (min(axes, d) - 1)
        check_cell_pairs(points, radius, rng)
        check_neighbors(points, radius, rng)


def far_point_cloud(n):
    """``n`` points of 3 mm spread and one point 100 km away."""
    rng = np.random.default_rng(n)
    return np.vstack([rng.normal(scale=0.003, size=(n, 3)), [[1e5, 0.0, 0.0]]])


def test_far_point_keeps_the_filter_small():
    # A grid widened to span the far point had no clique cell left, and
    # compared every pair of points: 486 MB at this size.
    points = far_point_cloud(4000)
    params = FilterParams()
    tracemalloc.start()
    try:
        kept, removed = filter_outliers(points, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert (kept.tolist(), removed) == outcome(kdtree_filter_outliers, points, params)
    assert removed >= 1


@pytest.mark.parametrize("params", [FilterParams(), FilterParams(0.002, 3)])
def test_far_point_matches_both_oracles(params):
    points = far_point_cloud(500)
    expected = outcome(oracle_filter_outliers, points, params)
    assert outcome(filter_outliers, points, params) == expected
    assert outcome(kdtree_filter_outliers, points, params) == expected
