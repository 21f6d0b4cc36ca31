"""Two-step tip calibration for a tracked stylus.

Step one (position): with the tip pivoting on a fixed point, the tip
offset ``p`` and the contact point ``c`` jointly minimize
``sum_i ||R_i p + t_i - c||^2``: with ``S = sum R_i`` and ``t`` the mean
translation, ``M p = sum R_i^T (t - t_i)`` for ``M = N I - S^T S / N`` and
``c = t + S p / N`` (Yaniv, SPIE 9415, 2015).  The stacked least-squares
solve and the pairwise tip-distance sum are oracles in ``tests/oracles.py``.
The first solve takes the shortest prefix of the rows, ordered by distance
from the median translation, that rotates enough and fixes the tip, so far
rows cannot pull it, even when the stylus rests still for most of a recording.

Step two (orientation): with the stylus rotating in holes of known world
inclination, the rotation of the tip frame is chosen so its z axis (the
approach vector) aligns with every hole's reference axis, by minimizing
``sum (1 - cos theta)`` over all measurements.  Over unit axes this cost
has a closed-form minimum, the normalized sum of the measured axes (the
von Mises-Fisher mean direction; Mardia & Jupp, *Directional Statistics*,
2000), so no iterative solver is needed.  Roll about the tip axis is
unobservable here (the tip is axially symmetric), so it is taken as given
(``initial_roll``); evaluation reads only tip positions and forces.  The
solve's unit quaternion goes unchanged into the calibration file, so the
axis stays exact where yaw-pitch-roll angles are singular (pitch +-90
degrees).

Both steps drop occlusion glitches with density clustering (DBSCAN):
points with too few neighbors inside a radius are discarded, and only the
largest cluster is kept.  :func:`filter_outliers` finds the exact DBSCAN
clusters on a grid whose every cell is a clique, in time and memory
near-linear in the number of points, whatever their extent; its docstring
gives the grid rules and how border points are assigned.  The grid answers
the radius queries too: each occupied cell gets one int64 key, and the
cells around it are found by binary search in the sorted keys.  The
neighbor counts and the cluster merge take their cell pairs from one
method, in two walks: one over the cells of the points that are counted,
one over the cells that hold core points.  The filter needs numpy alone.

Both datasets are :class:`~styluskit.geometry.PoseRows`: the fiducial poses
as rows ``q`` (N, 4) and ``p`` (N, 3), which the solvers read whole.  Their
classes (``PositionDataset``, ``HoleRecording``, ``OrientationDataset``) are
defined in ``geometry``, and the result, :class:`~styluskit.ingest.TipCalibration`,
with its document in ``ingest``, so ``simulate`` and ``snapshot`` never load
this module.

Before solving, the position step checks that the poses rotate enough: some
pair must be at least ``min_rotation`` apart; after the filter, so must
some pair of the rows it keeps.  Rotation angle is a metric,
so by the triangle inequality the largest pairwise angle lies between the
largest angle ``m`` from pose 0 and ``2m``.  The test passes when
``m >= min_rotation`` and fails when ``2m < min_rotation``.  In between, a
centre of the poses bounds it again, and only the rows far enough from that
centre to be in a qualifying pair are scanned, a block of rows at a time in
O(N) memory.  A recording that turns too little is then refused in linear
time; three clusters of poses just over ``min_rotation`` apart still scan
all pairs.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import (
    AllOutliers,
    DegenerateAxesWarning,
    DegenerateRotations,
    NoConvergence,
    NonFinitePose,
)
from .geometry import (
    Frozen,
    OrientationDataset,
    Pose,
    PoseRows,
    median_rows,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quats_to_matrices,
    rotation_between,
    vec3,
)
from .ingest import TipCalibration

DEFAULT_MIN_ROTATION = math.radians(30.0)
_EZ = np.array([0.0, 0.0, 1.0])


class FilterParams(Frozen):
    """Density-clustering outlier filter: a point needs at least
    ``min_neighbors`` points (itself included) within ``neighborhood_radius``
    to seed a cluster; only the largest cluster survives."""

    def __init__(self, neighborhood_radius: float = 0.005, min_neighbors: int = 10):
        radius = neighborhood_radius
        if not (radius > 0.0 and 2.0**-1022 <= radius * radius < math.inf):
            raise ValueError("neighborhood_radius must be positive with a finite square >= 2**-1022")
        if min_neighbors < 1:
            raise ValueError("min_neighbors must be at least 1")
        self._set(neighborhood_radius=neighborhood_radius, min_neighbors=min_neighbors)


AXIS_FILTER_DEFAULT = FilterParams(neighborhood_radius=0.02, min_neighbors=3)


class PositionCalibration:
    def __init__(
        self, tip_offset: np.ndarray, pivot: np.ndarray, residual_rms: float, removed_outliers: int
    ):
        self.tip_offset = tip_offset
        self.pivot = pivot
        self.residual_rms = residual_rms
        self.removed_outliers = removed_outliers


class OrientationCalibration:
    def __init__(self, rotation: np.ndarray, residual_rms: float, removed_outliers: int):
        self.rotation = rotation  # canonical unit quaternion, as Pose stores it
        self.residual_rms = residual_rms
        self.removed_outliers = removed_outliers


def _sq_norm(diff: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis, summed axis by axis in the same
    order and rounding as ``cKDTree``, so ties at exactly ``r`` agree."""
    total = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        total = total + diff[..., k] * diff[..., k]
    return total


_KEY_BITS = 63
_PAIR_CHUNK = 1 << 17


def _grid_cells(pts: np.ndarray, r2: float, reach: int) -> np.ndarray:
    """Integer cell coordinates on a grid of side about ``r / sqrt(d)``, with
    ``r2 = r * r``, on which every cell fits within ``r``.

    Along each axis the sorted coordinates split into runs at each gap
    whose square exceeds ``r2``; rounding is monotone, so no pair across
    such a gap is within ``r`` as :func:`_sq_norm` counts it.  Each point is
    measured from its run's lowest value, and each run starts ``reach + 1``
    cells past the previous run's last cell.  So coordinates stay below
    about ``(reach + 1) N`` per axis, and exact well within 1/64 cell,
    whatever the extent.  The side is shrunk by a relative 1e-6 so a full
    cell fits within ``r`` after that rounding.
    """
    side = math.sqrt(r2) / math.sqrt(pts.shape[1]) * (1.0 - 1e-6)
    cells = np.empty(pts.shape, dtype=np.int64)
    for axis, column in enumerate(pts.T):
        x = np.sort(column)
        gap = np.diff(x)
        first = np.flatnonzero(np.r_[True, gap * gap > r2])
        lo = x[first]
        offset = np.cumsum(np.r_[0, np.floor((x[first[1:] - 1] - lo[:-1]) / side) + reach + 1])
        run = np.searchsorted(lo, column, side="right") - 1
        cells[:, axis] = np.floor((column - lo[run]) / side) + offset[run]
    return cells


def _grid_reach(d: int) -> int:
    """How many cells apart, per axis, two neighbors can land: floor(sqrt(d))
    + 1, with room for the side's 1e-6 shrink and the 1/64-cell rounding."""
    return math.ceil(math.sqrt(d) * (1.0 + 2e-6) + 2.0**-6)


def _cell_keys(grid: np.ndarray, reach: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One int64 key per row of ``grid`` from its first ``k`` cell
    coordinates, the key offsets of the stencil rows, and ``k``: as many
    leading axes, at most three, as keep every key below ``2**_KEY_BITS``.

    The key is mixed-radix, first axis most significant.  Each coordinate
    is shifted by ``reach`` and its radix leaves ``reach`` spare cells past
    the largest, so key order is lexicographic cell order and each cell
    within ``reach`` per axis of an occupied one has a key of its own.
    Along the last keyed axis such cells form runs of ``2 reach + 1``
    consecutive keys, the stencil rows; the offsets lead to their middles.
    """
    radix = [int(top) + 2 * reach + 1 for top in grid.max(axis=0)[:3]]
    k = 1
    while k < len(radix) and math.prod(radix[:k + 1]) <= 2**_KEY_BITS:
        k += 1
    strides = np.array([math.prod(radix[a + 1:k]) for a in range(k)], dtype=np.int64)
    rows = np.zeros(1, dtype=np.int64)
    for stride in strides[:-1]:
        rows = (rows[:, None] + np.arange(-reach, reach + 1) * stride).ravel()
    return (grid[:, :k] + reach) @ strides, rows, k


def _spans(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, i)`` for each ``i`` in ``range(first[k], stop[k])``, in order."""
    lengths = stop - first
    k = np.repeat(np.arange(first.size), lengths)
    return k, np.arange(k.size) + np.repeat(first - np.cumsum(lengths) + lengths, lengths)


def _chunks(weights: np.ndarray):
    """Runs ``(s, e)`` of consecutive items whose ``weights`` add up to about
    ``_PAIR_CHUNK``, one item at least."""
    ends = np.cumsum(weights)
    s = 0
    while s < weights.size:
        e = max(s + 1, int(np.searchsorted(ends, ends[s] - weights[s] + _PAIR_CHUNK, "right")))
        yield s, e
        s = e


def _bounds(pts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Bounding boxes of the runs of ``pts`` from ``starts``, one a column:
    the ``d`` rows of ``lo`` above the ``d`` rows of ``hi``."""
    return np.vstack([np.minimum.reduceat(pts, starts).T, np.maximum.reduceat(pts, starts).T])


def _box_reach(a: np.ndarray, b: np.ndarray, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """Whether boxes ``a`` and ``b`` (columns of :func:`_bounds`) come within
    ``sqrt(r2)`` of each other, and whether they are within it corner to
    corner, squares summed axis by axis as :func:`_sq_norm` does.  Rounding
    is monotone, so box corners bound every point difference as
    :func:`_sq_norm` sees it, and both tests are exact."""
    gap = span = 0.0
    d = a.shape[0] // 2
    for lo_a, hi_a, lo_b, hi_b in zip(a[:d], a[d:], b[:d], b[d:]):
        apart = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
        across = np.maximum(hi_b - lo_a, hi_a - lo_b)
        gap = gap + apart * apart
        span = span + across * across
    return gap <= r2, span <= r2


def _sq_gap(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from points ``p`` to boxes ``lo``..``hi``.  Rounding
    is monotone, so no point of a box is nearer as :func:`_sq_norm` sees it."""
    return _sq_norm(np.maximum(np.maximum(lo - p, p - hi), 0.0))


class _Grid:
    """Points sorted into the cells of :func:`_grid_cells`, for queries within
    the radius ``r``.

    Cell ``c`` holds the points ``order[start[c]:start[c] + size[c]]``
    (coordinates ``columns[:, start[c]:start[c] + size[c]]``) and has the
    bounding box ``box[:, c]`` (:func:`_bounds`).  Every cell fits within
    ``r``, so it is a clique.  Cells are sorted by key (:func:`_cell_keys`),
    then by any further coordinates, so the cells in one stencil row of a
    cell are one slice of ``keys``, found with two binary searches.  Which
    cells can hold neighbors is decided in :meth:`cell_pairs` alone.
    """

    def __init__(self, pts: np.ndarray, radius: float):
        n, d = pts.shape
        self.pts = pts
        self.r2 = radius * radius
        self.reach = _grid_reach(d)
        grid = _grid_cells(pts, self.r2, self.reach)
        key, self.rows, k = _cell_keys(grid, self.reach)
        self.order = np.lexsort(np.vstack([grid[:, k:].T[::-1], key]))
        grid = grid[self.order]
        new = np.r_[True, np.any(grid[1:] != grid[:-1], axis=1)]
        self.start = np.flatnonzero(new)
        self.size = np.diff(np.r_[self.start, n])
        self.keys = key[self.order[new]]
        self.cell_of = np.empty(n, dtype=np.intp)
        self.cell_of[self.order] = np.cumsum(new) - 1
        grouped = pts[self.order]
        self.columns = np.ascontiguousarray(grouped.T)
        self.box = _bounds(grouped, self.start)

    def cell_pairs(self, cells: np.ndarray, weights: np.ndarray):
        """Blocks of ``(k, b, full)``: each cell ``b`` whose box comes within
        ``r`` of the box of cell ``cells[k]``, ``full`` where the two boxes
        are within ``r`` corner to corner (:func:`_box_reach`).

        Each cell's stencil is looked up once.  A block holds every pair of
        a run of consecutive ``k``, ascending, with about ``_PAIR_CHUNK``
        stencil cells, each counted ``weights[k]`` times.
        """
        for s, e in _chunks(weights * (self.rows.size * (2 * self.reach + 1))):
            middle = self.keys[cells[s:e], None] + self.rows
            first = np.searchsorted(self.keys, middle - self.reach)
            stop = np.searchsorted(self.keys, middle + self.reach, side="right")
            q, b = _spans(first.ravel(), stop.ravel())
            k = s + q // self.rows.size
            # Each query box repeats along its candidates, a sequential copy.
            near, full = _box_reach(
                np.repeat(self.box[:, cells[s:e]], (stop - first).sum(axis=1), axis=1),
                self.box[:, b],
                self.r2,
            )
            yield k[near], b[near], full[near]

    def _within(self, q: np.ndarray, c: np.ndarray, p: np.ndarray):
        """Blocks of ``(q[k], j)``: each point ``j`` of cell ``c[k]`` within
        ``r`` of the point ``p[k]``, about ``_PAIR_CHUNK`` candidates at a
        time."""
        sizes = self.size[c]
        for s, e in _chunks(sizes):
            k, j = _spans(self.start[c[s:e]], self.start[c[s:e]] + sizes[s:e])
            diff = np.empty((self.columns.shape[0], j.size))
            for axis, column in enumerate(self.columns):
                np.subtract(column.take(j), np.repeat(p[s:e, axis], sizes[s:e]), out=diff[axis])
            keep = _sq_norm(diff.T) <= self.r2
            yield q[s:e][k[keep]], self.order[j[keep]]

    def neighbors(self, idx: np.ndarray, min_count: int):
        """Neighbor counts of the points ``idx`` (distance ``<= r``, each
        point itself included), and ``(i, j)`` arrays listing every neighbor
        ``j`` of each ``i`` in ``idx`` that has fewer than ``min_count``
        neighbors.

        The points are grouped by cell, and each pair of :meth:`cell_pairs`
        serves every point of its query cell: full pairs count whole, and
        only the others are compared point by point.  Pairs are dropped as
        soon as their ``i`` reaches ``min_count``, so memory stays bounded.
        """
        counts = np.zeros(idx.size, dtype=np.intp)
        none = np.zeros(0, dtype=np.intp)
        owners, others = [none], [none]
        by_cell = np.argsort(self.cell_of[idx], kind="stable")
        cell = self.cell_of[idx[by_cell]]
        first = np.r_[np.flatnonzero(np.diff(cell, prepend=-1)), idx.size]

        def keep(i, j):
            mask = counts[i] < min_count
            return i[mask], j[mask]

        for k, b, full in self.cell_pairs(cell[first[:-1]], np.diff(first)):
            # Each point ``i`` of ``idx`` in a query cell, with its cells ``c``.
            pair, at = _spans(first[k], first[k + 1])
            i, c, full = by_cell[at], b[pair], full[pair]
            np.add.at(counts, i[full], self.size[c[full]])
            pairs = []
            for q, j in self._within(i[~full], c[~full], self.pts[idx[i[~full]]]):
                np.add.at(counts, q, 1)
                pairs.append(keep(q, j))
            q, c = keep(i[full], c[full])
            pairs.extend(self._within(q, c, self.pts[idx[q]]))
            for q, j in pairs:
                q, j = keep(q, j)
                owners.append(idx[q])
                others.append(j)
        return counts, np.concatenate(owners), np.concatenate(others)


def filter_outliers(points, params: FilterParams) -> tuple[np.ndarray, int]:
    """Keep the largest density cluster of ``points`` (exact DBSCAN).

    A point is core when at least ``min_neighbors`` points, itself
    included, lie within ``neighborhood_radius`` ``r``: distance ``<= r``
    as ``cKDTree`` counts it, that is, the squared differences summed axis
    by axis in order (:func:`_sq_norm`) are at most ``r * r``.  Core points
    within ``r`` of each other share a cluster.  A non-core point within
    ``r`` of core points joins the adjacent cluster whose lowest core index
    is smallest; the others are noise.  Clusters rank by lowest core index,
    and the first of the largest is kept.

    Grid DBSCAN (Gunawan 2013; Gan & Tao, SIGMOD 2015; Schubert et al., ACM
    TODS 2017) computes this in near-linear time, with numpy alone, for any
    extent.  Points go into cells of side about ``r / sqrt(d)``
    (:class:`_Grid`), split at gaps wider than ``r`` so far points cannot
    widen them.  Each cell fits within ``r``, so it is a clique: its core
    points are connected, and if it holds ``min_neighbors`` points they are
    all core without being counted.  Only the points of smaller cells get an
    exact neighbor count.  The counts and the merge of cells take their cell
    pairs from one method, :meth:`_Grid.cell_pairs`, in two walks: one in
    :meth:`_Grid.neighbors` over the cells of the counted points, one over
    the cells that hold core points.  In the count, a pair of cells whose
    boxes are within ``r`` corner to corner counts whole, and only the
    points of the other pairs are compared.  Cells merge when their core
    bounding boxes are within ``r`` end to end, stay apart when the boxes
    are more than ``r`` apart, and otherwise merge (by union-find) when
    their closest pair of core points is within ``r``.  Non-core points
    have fewer than ``min_neighbors`` neighbors, so their neighbor lists
    stay short.

    Returns ``(kept_indices, removed_count)``; kept indices stay in input
    order, so the result is deterministic.  Raises ``ValueError`` unless
    ``points`` is a non-empty (N, d) array of finite values, and
    :class:`AllOutliers` when no point has enough neighbors to seed a
    cluster.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("filter_outliers expects a non-empty (N, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("filter_outliers expects finite points")
    n, d = pts.shape
    grid = _Grid(pts, params.neighborhood_radius)
    cell_of, r2 = grid.cell_of, grid.r2

    core = (grid.size >= params.min_neighbors)[cell_of]
    counted = grid.order[~core[grid.order]]  # in cell order, for locality
    counts, owner, other = grid.neighbors(counted, params.min_neighbors)
    core[counted] = counts >= params.min_neighbors
    if not core.any():
        raise AllOutliers("no point has enough neighbors to seed a cluster")
    # Keep the pairs of the listed (non-core) points that reach a core point.
    reaching = core[other]
    owner, other = owner[reaching], other[reaching]

    # The core points of each cell form a box; ``boxed`` lists boxes in turn.
    boxed = grid.order[core[grid.order]]
    box_starts = np.flatnonzero(np.diff(cell_of[boxed], prepend=-1))
    box_sizes = np.diff(np.r_[box_starts, boxed.size])
    box_pts = pts[boxed]
    bounds = _bounds(box_pts, box_starts)
    lo, hi = bounds[:d].T, bounds[d:].T

    # Box pairs in reach, each once, from the cell pairs of the box cells.
    box_cells = cell_of[boxed[box_starts]]
    box_of = np.full(grid.size.size, -1)
    box_of[box_cells] = np.arange(box_cells.size)
    a, b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for k, c, _ in grid.cell_pairs(box_cells, np.ones(box_cells.size, dtype=np.intp)):
        later = box_of[c] > k
        a.append(k[later])
        b.append(box_of[c[later]])
    a, b = np.concatenate(a), np.concatenate(b)
    near, joined = _box_reach(bounds[:, a], bounds[:, b], r2)

    # Union-find over the boxes.  Joined boxes connect first; the other
    # boxes in reach connect when their closest pair of points is within
    # ``r``, tested only while they are apart.  Beyond 256 point pairs, only
    # the points of each box within ``r`` of the other's box are compared, a
    # block of rows at a time, until one is near enough.
    parent = list(range(box_starts.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a[joined].tolist(), b[joined].tolist()):
        parent[find(x)] = find(y)
    for x, y in zip(a[near & ~joined].tolist(), b[near & ~joined].tolist()):
        root_x, root_y = find(x), find(y)
        if root_x == root_y:
            continue
        px = box_pts[box_starts[x]:box_starts[x] + box_sizes[x]]
        py = box_pts[box_starts[y]:box_starts[y] + box_sizes[y]]
        if px.shape[0] * py.shape[0] > 256:
            px, py = px[_sq_gap(px, lo[y], hi[y]) <= r2], py[_sq_gap(py, lo[x], hi[x]) <= r2]
        rows = max(1, _PAIR_CHUNK // max(1, py.shape[0]))
        if py.size and any(
            _sq_norm(px[s:s + rows, None, :] - py).min() <= r2
            for s in range(0, px.shape[0], rows)
        ):
            parent[root_x] = root_y

    # Number clusters by lowest core index, as a scan in index order would.
    core_idx = np.flatnonzero(core)
    roots = np.array([find(u) for u in range(box_starts.size)])[box_of[cell_of[core_idx]]]
    _, first, cluster_of = np.unique(roots, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    labels = np.full(n, -1)
    labels[core_idx] = rank[cluster_of.reshape(-1)]

    border = np.flatnonzero(~core)
    best = np.full(n, first.size)
    np.minimum.at(best, owner, labels[other])
    labels[border] = np.where(best[border] < first.size, best[border], -1)

    kept = np.flatnonzero(labels == int(np.argmax(np.bincount(labels[labels >= 0]))))
    return kept, n - kept.size


_GATE_CHUNK = 1 << 20


def _rotation_spread_reaches(q: np.ndarray, threshold: float) -> bool:
    """Whether some pair of unit quaternions is at least ``threshold`` apart.

    The angle ``2 acos|q_i . q_j|`` is a metric on rotations, so with ``m``
    the largest angle from pose 0 the largest pairwise angle lies in
    ``[m, 2m]``.  When ``threshold`` falls in that band, a centre ``c``
    bounds it again (Badoiu & Clarkson, SODA 2003): ``c`` is the normalized
    sum of the quaternions, each signed to agree with pose 0, and with ``R``
    the largest angle from ``c`` no pair is over ``2R`` apart, while both
    ends of a pair ``threshold`` apart lie at least ``threshold - R`` from
    ``c``.  Only those rows are scanned, the exact minimum of ``|q q^T|``
    over them computed a block of rows at a time, in O(N) memory.  The
    1e-6 rad slack covers ``acos`` rounding near 1.
    """
    dots = q @ q[0]
    spread = 2.0 * math.acos(min(float(np.abs(dots).min()), 1.0))
    if spread >= threshold:
        return True
    if 2.0 * spread + 1e-6 < threshold:
        return False
    centre = np.where(dots < 0.0, -1.0, 1.0) @ q
    centre /= np.linalg.norm(centre)
    from_centre = 2.0 * np.arccos(np.minimum(np.abs(q @ centre), 1.0))
    radius = float(from_centre.max())
    if 2.0 * radius + 1e-6 < threshold:
        return False
    q = q[from_centre >= threshold - radius - 1e-6]
    rows = max(1, _GATE_CHUNK // q.shape[0])
    for start in range(0, q.shape[0], rows):
        dots = np.abs(q[start:start + rows] @ q.T)
        if 2.0 * math.acos(min(float(dots.min()), 1.0)) >= threshold:
            return True
    return False


def _solve_pivot(rotations: np.ndarray, translations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tip offset and pivot from the normal equations reduced to the offset
    (module docstring).  They square the condition number of the stacked
    3N x 6 system, and the eigenvalue ratio of ``M`` is about the square of
    the spread of the rotation axes, so the rank test refuses axes within
    about 1e-5 rad of one axis.  Noise-free, 200 poses turned about axes
    within 1e-5 rad of one axis give a tip 1e-7 to 4e-6 m off, where the
    stacked solve's is 2e-12 m; with 0.1 mm of noise either tip is over
    0.7 m off, and the two differ by under 5e-5 m.
    """
    n = rotations.shape[0]
    s = rotations.sum(axis=0)
    m = n * np.eye(3) - s.T @ s / n
    eig = np.linalg.eigvalsh(m)
    if eig[0] < 1e-10 * eig[-1]:
        raise DegenerateRotations("stacked pivot system is rank-deficient; tip offset is unobservable")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN on overflow: _residual_squares refuses it
        mean = translations.mean(axis=0)
        offset = np.linalg.solve(m, np.einsum("nji,nj->i", rotations, mean - translations))
        return offset, mean + s @ offset / n


def _residual_squares(rotations, translations, offset, pivot) -> np.ndarray:
    """Squared distance of each tip ``R_i p + t_i`` from the pivot.

    Raises :class:`NonFinitePose` when their sum overflows: the rows are
    finite, but too far out for the solve's arithmetic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = rotations @ offset + translations - pivot
        squares = np.sum(residuals * residuals, axis=1)
        if not np.isfinite(np.sum(squares)):
            raise NonFinitePose("pivot residuals overflow: pose translations are too large")
    return squares


_SEED_FRACTIONS = (0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999)


def _first_pass(q, rotations, translations, min_rotation) -> tuple[np.ndarray, np.ndarray, bool]:
    """Tip offset and pivot of the first pass, and whether they come from a
    subset of the rows.  The rows are ordered by the distance of their
    translation from the coordinate-wise median translation, and the seed is
    the shortest prefix, over the fractions ``_SEED_FRACTIONS`` of the rows,
    that rotates at least ``min_rotation`` and fixes the tip (passes the
    rank test of :func:`_solve_pivot`); else every row.  So far rows cannot
    pull the seed, and when the stylus rests still for most of a recording
    the prefix grows past the still rows to the nearest rows that turn.  The
    seed is only a start: the filter keeps each row whose tip point agrees.
    Arithmetic that overflows leaves inf, which sorts last."""
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.linalg.norm(translations - median_rows(translations), axis=1)
    order = np.argsort(dist, kind="stable")
    for fraction in _SEED_FRACTIONS:
        seed = order[:math.ceil(fraction * order.size)]
        if seed.size == order.size:
            break
        if _rotation_spread_reaches(q[seed], min_rotation):
            try:
                return (*_solve_pivot(rotations[seed], translations[seed]), True)
            except DegenerateRotations:
                pass
    return (*_solve_pivot(rotations, translations), False)


def calibrate_position(
    ds: PoseRows,
    params: FilterParams | None = FilterParams(),
    min_rotation: float = DEFAULT_MIN_ROTATION,
) -> PositionCalibration:
    """Recover the tip offset from a pivot recording.

    A first least-squares pass estimates the offset (from the rows nearest
    the median translation, :func:`_first_pass`), occlusion outliers are
    removed by density clustering on the tip points it induces for every
    row, and the solve is repeated on the kept set.  Pass ``params=None``
    to skip both the seed rows and the filter (useful to quantify how much
    the filter helps).  Finite rows whose residuals overflow raise
    :class:`NonFinitePose` after the first pass, before the filter sees
    their tip points.  Raises :class:`DegenerateRotations` when the rows
    the filter keeps rotate less than ``min_rotation``: when the rows that
    turn share no pivot, only the rows where the stylus rested still agree.
    """
    if len(ds) < 3:
        raise DegenerateRotations(f"need at least 3 poses, got {len(ds)}")
    if not _rotation_spread_reaches(ds.q, min_rotation):
        raise DegenerateRotations(
            "largest pairwise rotation is below the required minimum "
            f"({math.degrees(min_rotation):.1f} deg)"
        )
    rotations = quats_to_matrices(ds.q)
    translations = ds.p
    if params is None:
        offset, pivot = _solve_pivot(rotations, translations)
        seeded = False
    else:
        offset, pivot, seeded = _first_pass(ds.q, rotations, translations, min_rotation)
    squares = _residual_squares(rotations, translations, offset, pivot)
    removed = 0
    if params is not None:
        tips = rotations @ offset + translations
        kept, removed = filter_outliers(tips, params)
        if removed and not _rotation_spread_reaches(ds.q[kept], min_rotation):
            raise DegenerateRotations(
                f"the {kept.size} poses kept by the outlier filter rotate less than "
                f"the required minimum ({math.degrees(min_rotation):.1f} deg)"
            )
        if removed or seeded:
            rotations = rotations[kept]
            translations = translations[kept]
            offset, pivot = _solve_pivot(rotations, translations)
            squares = _residual_squares(rotations, translations, offset, pivot)
    rms = float(np.sqrt(np.mean(squares)))
    return PositionCalibration(
        tip_offset=offset, pivot=pivot, residual_rms=rms, removed_outliers=removed
    )


def calibrate_orientation(
    ds: OrientationDataset,
    tip_offset,
    axis_filter: FilterParams | None = AXIS_FILTER_DEFAULT,
    initial_roll: float = 0.0,
) -> OrientationCalibration:
    """Recover the tip-frame rotation that aligns the approach axis.

    Each pose in hole ``i`` measures the tip axis in the fiducial body
    frame as ``m_j = R_j^T z_ref_i``; those measurements are
    outlier-filtered per hole, and over unit vectors ``a`` the cost
    ``sum (1 - a . m_j)`` is smallest at ``a = s / |s|``, ``s = sum m_j``
    (the von Mises-Fisher mean direction).  The result is the minimal
    rotation taking z onto ``s``, spun by ``initial_roll`` about z first,
    so ``initial_roll`` sets the unobservable roll about the recovered
    axis and leaves the axis alone.  ``tip_offset`` is accepted for
    interface symmetry with the assembled calibration and is unused.
    Raises :class:`NoConvergence` when the measured axes cancel out.
    """
    vec3(tip_offset)
    refs = np.array([h.reference_axis for h in ds.holes])
    if len(ds.holes) == 1 or _max_pairwise_angle(refs) < math.radians(1.0):
        warnings.warn(
            "reference axes are parallel within 1 degree; rotation about their "
            "common direction is unobservable",
            DegenerateAxesWarning,
            stacklevel=2,
        )

    measured: list[np.ndarray] = []
    removed = 0
    for hole in ds.holes:
        rotations = quats_to_matrices(hole.q)
        axes = np.einsum("nji,j->ni", rotations, hole.reference_axis)
        if axis_filter is not None and axes.shape[0] >= axis_filter.min_neighbors:
            kept, dropped = filter_outliers(axes, axis_filter)
            axes = axes[kept]
            removed += dropped
        measured.append(axes)

    m = np.concatenate(measured, axis=0)
    s = np.sum(m, axis=0)
    if np.linalg.norm(s) < 1e-9:
        raise NoConvergence("measured axes cancel out; alignment target vanishes")

    rotation = quat_normalize(
        quat_multiply(rotation_between(_EZ, s), quat_from_axis_angle(_EZ, initial_roll))
    )
    tip_axis = quat_rotate(rotation, _EZ)
    residuals = np.arctan2(np.linalg.norm(np.cross(m, tip_axis), axis=1), m @ tip_axis)
    rms = float(np.sqrt(np.mean(np.square(residuals))))
    return OrientationCalibration(rotation=rotation, residual_rms=rms, removed_outliers=removed)


def _max_pairwise_angle(axes: np.ndarray) -> float:
    if axes.shape[0] < 2:
        return 0.0
    dots = np.clip(axes @ axes.T, -1.0, 1.0)
    return float(np.arccos(dots.min()))


def assemble_calibration(
    tip_offset,
    rotation,
    position_residual_rms: float,
    orientation_residual_rms: float,
    filtered_outliers: int,
) -> TipCalibration:
    """Package the two calibration steps into one tip transform."""
    return TipCalibration(
        transform=Pose(rotation, vec3(tip_offset)),
        position_residual_rms=float(position_residual_rms),
        orientation_residual_rms=float(orientation_residual_rms),
        filtered_outliers=int(filtered_outliers),
    )
