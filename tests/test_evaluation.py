from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styluskit.errors import (
    EmptyInput,
    InputError,
    SegmentUncovered,
    TooShort,
    WaypointNotReached,
)
from styluskit.evaluation import (
    FFT_GRID_FACTOR,
    MAX_HISTOGRAM_BINS,
    MAX_TARGETS_PER_SEGMENT,
    aggregate,
    epsilon_histogram,
    evaluate_demonstrations,
    force_spectrum,
    resample_segment,
    segment_trace,
)
from styluskit.geometry import median_rows
from styluskit.ingest import DemonstrationTrace, IdealPath


def trace_from_xy(xy, dt=0.01, z=None):
    xy = np.asarray(xy, dtype=float)
    zs = np.zeros(len(xy)) if z is None else np.asarray(z, dtype=float)
    return DemonstrationTrace([i * dt for i in range(len(xy))], np.column_stack([xy, zs]))


def segment_samples(a, b, params):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a + np.asarray(params)[:, None] * (b - a)


L_PATH = IdealPath(waypoints=[[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]], visiting_sequence=(0, 1, 2))
ONE_SEGMENT = IdealPath(waypoints=[[0.0, 0.0], [0.1, 0.0]], visiting_sequence=(0, 1))


class TestSegmentTrace:
    def test_two_segments_split_at_corner(self):
        u = np.linspace(0.0, 1.0, 11)
        xy = np.vstack(
            [segment_samples([0, 0], [0.1, 0], u), segment_samples([0.1, 0], [0.1, 0.1], u[1:])]
        )
        splits = segment_trace(trace_from_xy(xy).positions, L_PATH)
        assert splits == [0, 10, 20]
        assert np.allclose(xy[splits[1]], [0.1, 0.0])

    def test_single_segment_is_whole_trace(self):
        xy = segment_samples([0, 0], [0.1, 0], np.linspace(0, 1, 20))
        assert segment_trace(trace_from_xy(xy).positions, ONE_SEGMENT) == [0, 19]

    def test_unreached_waypoint_raises(self):
        xy = segment_samples([0, 0], [0.04, 0.0], np.linspace(0, 1, 30))
        with pytest.raises(WaypointNotReached) as excinfo:
            segment_trace(trace_from_xy(xy).positions, L_PATH)
        assert excinfo.value.waypoint_index == 1

    def test_revisited_waypoint_uses_forward_window(self):
        path = IdealPath(
            waypoints=[[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]],
            visiting_sequence=(0, 1, 0, 2),
        )
        u = np.linspace(0.0, 1.0, 11)
        xy = np.vstack(
            [
                segment_samples([0, 0], [0.1, 0], u),
                segment_samples([0.1, 0], [0, 0], u[1:]),
                segment_samples([0, 0], [0, 0.1], u[1:]),
            ]
        )
        splits = segment_trace(trace_from_xy(xy).positions, path)
        # the second split is the *return* to the start, not the departure
        assert splits == [0, 10, 20, 30]
        assert np.allclose(xy[splits[2]], [0.0, 0.0], atol=1e-12)


@st.composite
def walked_paths(draw):
    """(path, positions, gate): a path over two to five waypoints on a
    0.1 m grid and a trace that walks its visiting sequence, one noisy run
    of points per leg.  Each leg ends on its waypoint, moved by less than
    the gate, and no waypoint lies within twice the gate of another, so
    every waypoint is reached."""
    grid = st.tuples(st.integers(0, 10), st.integers(0, 10))
    waypoints = draw(st.lists(grid, min_size=2, max_size=5, unique=True))
    count = len(waypoints)
    sequence = [draw(st.integers(0, count - 1))]
    for _ in range(draw(st.integers(1, 5))):
        sequence.append(draw(st.sampled_from([i for i in range(count) if i != sequence[-1]])))
    gate = draw(st.sampled_from([0.005, 0.01, 0.02]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    waypoints = 0.1 * np.array(waypoints, dtype=float)
    corners = waypoints[sequence]
    legs = [corners[:1]]
    for a, b in zip(corners, corners[1:]):
        u = np.sort(rng.uniform(0.0, 1.0, draw(st.integers(0, 12))))
        legs.append(a + np.r_[u, 1.0][:, None] * (b - a))
    xy = np.vstack(legs)
    xy = xy + rng.uniform(-0.5, 0.5, xy.shape) * draw(st.sampled_from([0.0, 0.5, 1.0])) * gate
    positions = np.column_stack([xy, rng.normal(scale=0.001, size=len(xy))])
    return IdealPath(waypoints, tuple(sequence)), positions, gate


class TestSegmentTraceSplits:
    """Properties of the split rows on traces that walk their path."""

    @settings(max_examples=300, deadline=None)
    @given(case=walked_paths())
    def test_splits_are_the_closest_rows_in_order(self, case):
        path, positions, gate = case
        splits = segment_trace(positions, path, gate=gate)
        assert len(splits) == path.segment_count + 1
        assert splits[0] == 0 and splits[-1] == len(positions) - 1
        assert all(a <= b for a, b in zip(splits, splits[1:]))
        # Each interior split is the closest row of the first in-gate run
        # of rows at or after the split before it.
        for k in range(1, path.segment_count):
            target = path.waypoints[path.visiting_sequence[k]]
            distances = np.linalg.norm(positions[:, :2] - target, axis=1)
            inside = np.flatnonzero(distances <= gate)
            first = int(inside[inside >= splits[k - 1]][0])
            end = first
            while end < len(positions) and distances[end] <= gate:
                end += 1
            assert first <= splits[k] < end
            assert distances[splits[k]] <= gate
            assert distances[splits[k]] == distances[first:end].min()


class TestResampleSegment:
    LINE = (np.array([0.0, 0.0]), np.array([0.1, 0.0]))

    def test_exact_trace_zero_errors(self):
        xy = segment_samples([0, 0], [0.1, 0], np.linspace(0, 1, 50))
        seg = resample_segment(trace_from_xy(xy).positions, self.LINE, n=25)
        assert not seg.missing.any()
        assert np.allclose(seg.signed_error, 0.0, atol=1e-12)
        assert np.allclose(seg.z_offset, 0.0, atol=1e-12)

    def test_constant_left_offset(self):
        u = np.linspace(0, 1, 80)
        xy = segment_samples([0, 0.002], [0.1, 0.002], u)
        seg = resample_segment(trace_from_xy(xy).positions, self.LINE, n=40)
        assert not seg.missing.any()
        assert np.allclose(seg.signed_error, 0.002, atol=1e-9)

    def test_right_offset_is_negative(self):
        u = np.linspace(0, 1, 80)
        xy = segment_samples([0, -0.002], [0.1, -0.002], u)
        seg = resample_segment(trace_from_xy(xy).positions, self.LINE, n=40)
        assert np.allclose(seg.signed_error, -0.002, atol=1e-9)

    def test_sinusoid_amplitude_recovered(self):
        amplitude = 0.01
        u = np.linspace(0.0, 1.0, 20001)
        xy = np.column_stack([0.1 * u, amplitude * np.sin(math.pi * u)])
        seg = resample_segment(trace_from_xy(xy, dt=1e-4).positions, self.LINE, n=1000)
        assert not seg.missing.any()
        assert abs(float(np.max(np.abs(seg.signed_error))) - amplitude) < 1e-6

    def test_signed_error_negates_under_mirror(self):
        rng = np.random.default_rng(40)
        u = np.linspace(0.0, 1.0, 200)
        lateral = rng.normal(scale=0.002, size=u.size)
        base = segment_samples([0, 0], [0.1, 0], u)
        left = base + np.column_stack([np.zeros_like(u), lateral])
        right = base - np.column_stack([np.zeros_like(u), lateral])
        seg_left = resample_segment(trace_from_xy(left).positions, self.LINE, n=100)
        seg_right = resample_segment(trace_from_xy(right).positions, self.LINE, n=100)
        assert np.allclose(seg_left.signed_error, -seg_right.signed_error, atol=1e-12)

    def test_partial_coverage_marks_missing(self):
        u = np.linspace(0.1, 1.0, 100)
        xy = segment_samples([0, 0], [0.1, 0], u)
        seg = resample_segment(trace_from_xy(xy).positions, self.LINE, n=50)
        assert seg.missing.any()
        assert float(seg.missing.mean()) <= 0.2
        assert np.isnan(seg.signed_error[seg.missing]).all()

    def test_heavy_undercoverage_raises(self):
        u = np.linspace(0.0, 0.5, 100)
        xy = segment_samples([0, 0], [0.1, 0], u)
        with pytest.raises(SegmentUncovered):
            resample_segment(trace_from_xy(xy).positions, self.LINE, n=50)

    def test_backtracking_uses_first_crossing(self):
        # forward to u=0.6 at +1 mm, back to u=0.3, forward again at -1 mm
        u = np.concatenate(
            [np.linspace(0, 0.6, 61), np.linspace(0.59, 0.3, 30), np.linspace(0.31, 1.0, 70)]
        )
        lateral = np.where(np.arange(u.size) < 61, 0.001, -0.001)
        xy = segment_samples([0, 0], [0.1, 0], u) + np.column_stack(
            [np.zeros_like(u), lateral]
        )
        seg = resample_segment(trace_from_xy(xy).positions, self.LINE, n=101)
        half = seg.signed_error[: int(0.6 * 100)]
        assert np.allclose(half, 0.001, atol=1e-9)

    def test_z_offset_reported(self):
        u = np.linspace(0, 1, 11)
        xy = segment_samples([0, 0], [0.1, 0], u)
        seg = resample_segment(trace_from_xy(xy, z=np.full(11, 0.004)).positions, self.LINE, n=5)
        assert np.allclose(seg.z_offset, 0.004, atol=1e-12)


class TestAggregate:
    def _seg(self, offset, n=20):
        u = np.linspace(0, 1, 200)
        xy = segment_samples([0, offset], [0.1, offset], u)
        return resample_segment(trace_from_xy(xy).positions, TestResampleSegment.LINE, n=n)

    @staticmethod
    def _aggregate(segs):
        """``aggregate`` of one segment per trace: a (traces, 1, targets) stack."""
        return aggregate(np.array([[seg.signed_error] for seg in segs]), ["A"])

    def test_single_trace(self):
        result = self._aggregate([self._seg(0.001)])
        assert np.allclose(result[0]["mean"], 0.001, atol=1e-9)
        assert np.allclose(result[0]["std"], 0.0, atol=1e-12)
        assert np.allclose(result[0]["env_min"], result[0]["env_max"], atol=1e-12)

    def test_symmetric_offsets(self):
        d = 0.002
        result = self._aggregate([self._seg(d), self._seg(-d)])
        assert np.allclose(result[0]["mean"], 0.0, atol=1e-9)
        assert np.allclose(result[0]["std"], d, atol=1e-9)
        assert np.allclose(result[0]["env_min"], -d, atol=1e-9)
        assert np.allclose(result[0]["env_max"], d, atol=1e-9)

    def test_envelope_attained_and_contains_mean(self):
        rng = np.random.default_rng(41)
        sets = [self._seg(float(rng.uniform(-0.003, 0.003))) for _ in range(5)]
        result = self._aggregate(sets)
        stack = np.stack([s.signed_error for s in sets])
        assert np.allclose(result[0]["env_min"], stack.min(axis=0), atol=1e-12)
        assert np.allclose(result[0]["env_max"], stack.max(axis=0), atol=1e-12)
        assert np.all(result[0]["env_min"] <= result[0]["mean"] + 1e-12)
        assert np.all(result[0]["mean"] <= result[0]["env_max"] + 1e-12)

    def test_gaussian_cohort_std(self):
        rng = np.random.default_rng(42)
        sigma = 0.001
        n = 100
        sets = []
        for _ in range(24):
            u = np.linspace(0, 1, 400)
            lateral = rng.normal(scale=sigma, size=u.size)
            xy = segment_samples([0, 0], [0.1, 0], u) + np.column_stack(
                [np.zeros_like(u), lateral]
            )
            sets.append(resample_segment(trace_from_xy(xy).positions, TestResampleSegment.LINE, n=n))
        result = self._aggregate(sets)
        pooled = np.concatenate([s.signed_error for s in sets])
        assert abs(float(np.std(pooled)) - sigma) / sigma < 0.25
        assert abs(float(np.mean(result[0]["std"])) - sigma) / sigma < 0.25

    def test_missing_excluded(self):
        full = self._seg(0.001, n=50)
        u = np.linspace(0.1, 1.0, 300)
        xy = segment_samples([0, 0.003], [0.1, 0.003], u)
        partial = resample_segment(trace_from_xy(xy).positions, TestResampleSegment.LINE, n=50)
        assert partial.missing[0]
        result = self._aggregate([full, partial])
        assert result[0]["mean"][0] == pytest.approx(0.001, abs=1e-9)
        assert result[0]["mean"][-1] == pytest.approx(0.002, abs=1e-9)


class TestEpsilonHistogram:
    def test_all_zero_errors(self):
        histogram, fraction = epsilon_histogram(np.zeros(100))
        assert fraction == 1.0
        assert histogram["counts"].sum() == 100
        assert histogram["counts"][0] == 100

    def test_uniform_errors_split_at_epsilon(self):
        errors = np.linspace(0.0, 0.006, 1201)
        histogram, fraction = epsilon_histogram(errors, epsilon=0.003, bin_width=0.001)
        assert fraction == pytest.approx(0.5, abs=0.01)
        assert histogram["bin_edges"][-1] == pytest.approx(0.006, abs=1e-12)
        assert histogram["counts"].sum() == 1201

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            epsilon_histogram([])

    def test_nan_only_raises(self):
        with pytest.raises(EmptyInput):
            epsilon_histogram([math.nan, math.nan])

    def test_fraction_monotone_in_epsilon(self):
        rng = np.random.default_rng(43)
        errors = rng.normal(scale=0.002, size=500)
        fractions = [
            epsilon_histogram(errors, epsilon=e)[1]
            for e in (0.0005, 0.001, 0.002, 0.004, 0.008)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))


class TestForceSpectrum:
    def test_constant_force_has_no_peaks(self):
        t = np.arange(100) / 100.0
        result = force_spectrum(t, np.full(100, 2.0))
        assert result.count_above == 0

    def test_bin_aligned_sine(self):
        t = np.arange(1000) / 100.0
        fz = 2.0 + 1.0 * np.sin(2 * math.pi * 5.0 * t)
        result = force_spectrum(t, fz, threshold_ratio=0.05)
        assert result.count_above == 1
        peak_bin = int(np.argmax(result.amplitudes[1:])) + 1
        assert peak_bin * result.bin_width == pytest.approx(5.0, abs=1e-9)
        assert result.amplitudes[peak_bin] == pytest.approx(1.0, abs=1e-9)

    def test_two_sines_count_two(self):
        t = np.arange(1000) / 100.0
        fz = np.sin(2 * math.pi * 3.0 * t) + np.sin(2 * math.pi * 7.0 * t)
        result = force_spectrum(t, fz, threshold_ratio=0.05)
        assert result.count_above == 2

    def test_parseval(self):
        rng = np.random.default_rng(44)
        n = 512
        t = np.arange(n) / 200.0
        fz = rng.normal(size=n)
        result = force_spectrum(t, fz)
        x = fz - fz.mean()
        expected = float(np.sum(x * x))
        weights = np.full(result.amplitudes.size, result.sample_count / 2.0)
        weights[0] = result.sample_count
        if result.sample_count % 2 == 0:
            weights[-1] = result.sample_count
        reconstructed = float(np.sum(result.amplitudes**2 * weights))
        assert reconstructed == pytest.approx(expected, rel=1e-6)

    def test_too_short_raises(self):
        t = np.arange(7) / 100.0
        with pytest.raises(TooShort):
            force_spectrum(t, np.ones(7))

    def test_count_invariant_holds(self):
        rng = np.random.default_rng(45)
        t = np.arange(256) / 100.0
        fz = rng.normal(size=256)
        result = force_spectrum(t, fz)
        assert result.count_above == int(
            np.sum(result.amplitudes[1:] > result.threshold)
        )


class TestEvaluateDemonstrations:
    def test_perfect_synthetic_trace(self):
        from styluskit.synth import gen_demonstration

        trace = gen_demonstration(L_PATH, lateral_noise_std=0.0, speed=0.05, sample_rate=200.0)
        report = evaluate_demonstrations([trace], L_PATH, n=50)
        assert report["epsilon_fraction"] == 1.0
        for agg in report["segments"]:
            assert np.allclose(agg["mean"], 0.0, atol=1e-9)
        assert len(report["spectra"]) == 1

    def test_report_structure(self):
        from styluskit.synth import SineForce, gen_demonstration

        trace = gen_demonstration(
            L_PATH,
            lateral_noise_std=0.0005,
            speed=0.05,
            sample_rate=200.0,
            force_profile=SineForce(2.0, 0.5, offset=1.5),
            seed=3,
        )
        report = evaluate_demonstrations([trace, trace], L_PATH, n=40, config={"n": 40})
        assert list(report) == [
            "config", "segments", "epsilon", "epsilon_fraction", "histogram", "spectra", "traces"
        ]
        assert [agg["label"] for agg in report["segments"]] == ["A", "B"]
        assert [t["index"] for t in report["traces"]] == [0, 1]
        assert report["config"] == {"n": 40}
        assert 0.0 <= report["epsilon_fraction"] <= 1.0


class TestForceSpectrumGridCap:
    def test_long_gap_at_fine_spacing_raises_input_error(self):
        # Eight samples 1 ns apart but spanning 1e6 s would need a 1e15-point grid.
        t = np.r_[np.arange(7) * 1e-9, 1e6]
        with pytest.raises(InputError, match="per sample"):
            force_spectrum(t, np.ones(8))

    def test_grid_up_to_the_cap_is_allowed(self):
        # 100 evenly spaced samples plus one gap: 62 median spacings per sample.
        t = np.r_[np.arange(100) * 0.01, 0.99 + 0.01 * (62 * 101 - 100)]
        result = force_spectrum(t, np.sin(t))
        assert result.sample_count <= FFT_GRID_FACTOR * 101
        with pytest.raises(InputError):
            force_spectrum(np.r_[t[:-1], t[-1] + 3.0], np.sin(t))


class TestMedian:
    """``geometry.median_rows`` against ``np.median``, whose NaN check
    imports ``numpy.ma``: the same bits and the same warnings."""

    VALUES = st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -math.inf]),
        st.floats(0.001, 0.01),
    )

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(VALUES, min_size=1, max_size=60))
    def test_matches_np_median(self, values):
        v = np.array(values)
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            expected = float(np.median(v))
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = float(median_rows(v))
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got.hex() == expected.hex()
        assert [str(w.message) for w in got_warnings] == [
            str(w.message) for w in expected_warnings
        ]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=30))
    def test_matches_np_median_by_column(self, rows):
        v = np.array(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = np.median(v, axis=0)
            got = median_rows(v)
        assert got.shape == (3,)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert got[~np.isnan(got)].tobytes() == expected[~np.isnan(expected)].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 48, 49, 1999, 2000, 2003])
    def test_sample_spacings(self, n):
        spacing = np.diff(np.cumsum(np.random.default_rng(n).uniform(0.004, 0.006, n + 1)))
        assert float(median_rows(spacing)).hex() == float(np.median(spacing)).hex()


class TestAllocationBounds:
    """Bin counts and target counts are bounded, so no flag value can ask
    numpy for an unbounded array."""

    @pytest.mark.parametrize("bin_width", [1e-12, 1e-300, 5e-324])
    def test_too_many_bins_raise(self, bin_width):
        with pytest.raises(InputError, match="bins"):
            epsilon_histogram([0.005], bin_width=bin_width)

    def test_bin_bound_is_inclusive(self):
        histogram, _ = epsilon_histogram([1.0], bin_width=1.0 / MAX_HISTOGRAM_BINS)
        assert histogram["counts"].size == MAX_HISTOGRAM_BINS
        assert histogram["counts"].sum() == 1

    def test_too_many_targets_raise(self):
        xy = np.column_stack([np.linspace(-0.01, 0.11, 13), np.zeros(13)])
        line = TestResampleSegment.LINE
        with pytest.raises(InputError, match="targets"):
            resample_segment(trace_from_xy(xy).positions, line, n=MAX_TARGETS_PER_SEGMENT + 1)
        seg = resample_segment(trace_from_xy(xy).positions, line, n=MAX_TARGETS_PER_SEGMENT)
        assert seg.signed_error.size == MAX_TARGETS_PER_SEGMENT
        assert not seg.missing.any()
