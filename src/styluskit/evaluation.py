"""Quantitative evaluation of demonstrations against an ideal waypoint path.

A demonstration (already expressed in its drawing frame) is split into
segments at the closest approaches to the interior waypoints of the
visiting sequence, each segment is resampled against the ideal line with
a fixed number of uniformly spaced targets, and the signed in-plane
offsets feed the aggregate statistics: mean/std/envelope per sample
index, an epsilon-zone histogram of absolute errors, and a magnitude
spectrum of the contact force.

Signed errors are positive to the left of the travel direction; the
out-of-plane z offset is reported separately.

The stages pass arrays, not trace records: ``segment_trace`` returns the
rows a trace's ``(m, 3)`` positions split at, ``resample_segment`` takes
the rows of one segment and finds first crossings from running extrema of
the line parameter, and the signed errors of every trace are stacked once,
as a ``(traces, segments, targets)`` array that ``aggregate`` and
``epsilon_histogram`` read whole; ``force_spectrum`` takes a trace's
``times`` and ``forces`` arrays.  ``evaluate_demonstrations`` returns
the document of ``report.json`` itself, a dict of its arrays: ``aggregate``
returns its ``segments`` entries and ``epsilon_histogram`` its
``histogram`` entry with the fraction, and ``write_report_files`` writes
that one document and the report CSVs from it, through the block writer of
the recording CSVs (``jsonio.write_csv``).

The ideal path and its JSON document (:class:`~styluskit.ingest.IdealPath`,
``path_to_doc``, ``path_from_doc``, ``load_path``) are defined in ``ingest``
with the other file formats.  The median sample spacing of the force
spectrum is :func:`~styluskit.geometry.median_rows` of the spacings, not
``np.median``, whose NaN check imports ``numpy.ma``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput, InputError, SegmentUncovered, TooShort, WaypointNotReached
from .geometry import median_rows
from .ingest import DemonstrationTrace, IdealPath
from .jsonio import open_output, write_csv, write_json


def segment_label(k: int) -> str:
    return chr(ord("A") + k) if k < 26 else f"S{k}"


class SampledSegment:
    """Per-target offsets of one demonstrated segment from its ideal line.

    Arrays are indexed by the uniform targets on the ideal line; entries
    where the demonstration never crossed the target parameter are marked
    in ``missing`` and hold NaN.
    """

    def __init__(
        self,
        segment_label: str,
        signed_error: np.ndarray,
        z_offset: np.ndarray,
        missing: np.ndarray,
    ):
        self.segment_label = segment_label
        self.signed_error = signed_error
        self.z_offset = z_offset
        self.missing = missing


class SpectrumSummary:
    """One-sided force magnitude spectrum with a peak-count summary.

    Amplitudes are scaled so a pure sine of amplitude A lands A in its
    bin (interior bins carry 2|X|/N; DC and Nyquist carry |X|/N).
    """

    def __init__(
        self,
        sample_rate: float,
        bin_width: float,
        amplitudes: np.ndarray,
        threshold: float,
        count_above: int,
        sample_count: int,
    ):
        self.sample_rate = sample_rate
        self.bin_width = bin_width
        self.amplitudes = amplitudes
        self.threshold = threshold
        self.count_above = count_above
        self.sample_count = sample_count


def segment_trace(positions: np.ndarray, path: IdealPath, gate: float = 0.02) -> list[int]:
    """The rows a drawing-frame trace splits at: 0, its closest approach to
    each interior waypoint, searched in visiting order, and its last row.
    Segment k runs from row ``splits[k]`` to row ``splits[k + 1]``, both
    included.

    The search window moves forward only, so revisited waypoints split at
    the correct pass.  A waypoint whose closest approach inside its window
    exceeds ``gate`` raises :class:`WaypointNotReached`.
    """
    if not len(positions):
        raise ValueError("cannot segment an empty trace")
    xy = positions[:, :2]
    splits = [0]
    sequence = path.visiting_sequence
    for order, waypoint_index in enumerate(sequence[1:-1], start=1):
        start = splits[-1]
        distances = np.linalg.norm(xy[start:] - path.waypoints[waypoint_index], axis=1)
        inside = distances <= gate
        if not inside.any():
            raise WaypointNotReached(
                f"trace never comes within {gate} m of waypoint {waypoint_index} "
                f"(visit {order}); closest approach {distances.min():.4f} m",
                waypoint_index=waypoint_index,
            )
        first = int(np.argmax(inside))
        after = np.flatnonzero(~inside[first:])
        end = first + (int(after[0]) if after.size else inside.size - first)
        splits.append(start + first + int(np.argmin(distances[first:end])))
    splits.append(len(positions) - 1)
    return splits


MAX_TARGETS_PER_SEGMENT = 100_000
MAX_MISSING_FRACTION = 0.2


def resample_segment(
    positions: np.ndarray,
    line: tuple[np.ndarray, np.ndarray],
    n: int,
    label: str = "A",
) -> SampledSegment:
    """The lateral and z offsets of a segment's ``(m, 3)`` rows at ``n``
    uniform targets on the ideal line.

    For each target the demonstrated polyline is linearly interpolated at
    the first crossing of the target's line parameter; targets never
    crossed are marked missing.  More than ``MAX_MISSING_FRACTION`` (a
    fifth) missing raises :class:`SegmentUncovered`.  More than
    ``MAX_TARGETS_PER_SEGMENT`` (100,000) targets, or a point whose line
    parameter or lateral offset is not finite, raises :class:`InputError`.

    Step k, from ``u[k]`` to ``u[k+1]``, crosses target i when
    ``ceil(lo*(n-1) - 1e-9) <= i <= floor(hi*(n-1) + 1e-9)``.  The path is
    continuous, so the first step that does is the first by which it has
    reached i from both sides: the later of the first steps where the
    running maximum of ``u*(n-1) + 1e-9`` reaches i and the running
    minimum of ``u*(n-1) - 1e-9`` falls to i.  ``searchsorted`` on those
    extrema takes O((m + n) log m) time and O(m + n) memory for m points.
    """
    if n < 2:
        raise ValueError("need at least 2 resampling targets")
    if n > MAX_TARGETS_PER_SEGMENT:
        raise InputError(
            f"{n} resampling targets per segment: at most {MAX_TARGETS_PER_SEGMENT}"
        )
    if len(positions) < 2:
        raise ValueError("need at least 2 demonstration points")
    a, b = np.asarray(line[0], dtype=float), np.asarray(line[1], dtype=float)
    direction = b - a
    length = float(np.linalg.norm(direction))
    if length < 1e-12:
        raise ValueError("ideal segment has zero length")
    unit = direction / length
    normal = np.array([-unit[1], unit[0]])

    xy = positions[:, :2]
    scale = n - 1
    with np.errstate(over="ignore", invalid="ignore"):
        u = (xy - a) @ unit / length
        lateral = (xy - a) @ normal
        upper = np.maximum.accumulate(u * scale + 1e-9)[1:]
        lower = np.minimum.accumulate(u * scale - 1e-9)[1:]
    if not (np.isfinite(u).all() and np.isfinite(lateral).all()):
        raise InputError(
            f"segment {label}: a demonstration point is too far from the ideal line "
            "to project (non-finite line offset)"
        )
    z = positions[:, 2]

    targets = np.linspace(0.0, 1.0, n)
    index = np.arange(n, dtype=float)
    step = np.maximum(np.searchsorted(upper, index), np.searchsorted(-lower, -index))
    missing = step >= u.size - 1
    if float(missing.mean()) > MAX_MISSING_FRACTION:
        raise SegmentUncovered(
            f"segment {label}: {int(missing.sum())} of {n} targets never crossed"
        )

    signed = np.full(n, np.nan)
    z_offset = np.full(n, np.nan)
    hit = ~missing
    k_idx = step[hit]
    u0 = u[k_idx]
    denom = u[k_idx + 1] - u0
    alpha = np.divide(targets[hit] - u0, denom, out=np.full(k_idx.size, 0.5), where=denom != 0.0)
    # np.maximum may keep -0.0 on a tie; + 0.0 gives 0.0, as Python's max(0.0, -0.0).
    alpha = np.minimum(1.0, np.maximum(alpha, 0.0)) + 0.0
    signed[hit] = lateral[k_idx] + alpha * (lateral[k_idx + 1] - lateral[k_idx])
    z_offset[hit] = z[k_idx] + alpha * (z[k_idx + 1] - z[k_idx])
    return SampledSegment(label, signed_error=signed, z_offset=z_offset, missing=missing)


def _masked_stats(stack: np.ndarray) -> dict:
    """Statistics over the traces of each target, NaN where none reached it.
    A sum that overflows leaves ±inf, which the writers refuse."""
    mask = ~np.isnan(stack)
    count = mask.sum(axis=0)
    safe = np.maximum(count, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.where(mask, stack, 0.0).sum(axis=0)
        mean = np.where(count > 0, total / safe, np.nan)
        centered = np.where(mask, stack - mean, 0.0)
        var = (centered * centered).sum(axis=0) / safe
        std = np.where(count > 0, np.sqrt(var), np.nan)
        env_min = np.where(count > 0, np.where(mask, stack, np.inf).min(axis=0), np.nan)
        env_max = np.where(count > 0, np.where(mask, stack, -np.inf).max(axis=0), np.nan)
        total_abs = np.where(mask, np.abs(stack), 0.0).sum(axis=0)
        mean_abs = np.where(count > 0, total_abs / safe, np.nan)
    return {"mean": mean, "mean_abs": mean_abs, "std": std, "env_min": env_min, "env_max": env_max}


def aggregate(errors: np.ndarray, labels: list[str]) -> list[dict]:
    """Mean, population std, and envelope per sample index across traces,
    from the ``(traces, segments, targets)`` stack of signed errors: the
    report's ``segments`` entries, one per label, each holding its
    ``label`` and the arrays ``mean``, ``mean_abs``, ``std``, ``env_min``
    and ``env_max``.

    Missing pairs (NaN) are excluded from their index's statistics.
    """
    return [{"label": label, **_masked_stats(errors[:, j])} for j, label in enumerate(labels)]


MAX_HISTOGRAM_BINS = 100_000


def epsilon_histogram(
    all_errors, epsilon: float = 0.003, bin_width: float = 0.001
) -> tuple[dict, float]:
    """Histogram of absolute errors plus the fraction inside the epsilon zone:
    the report's ``histogram`` entry (``bin_edges`` and ``counts``) and its
    ``epsilon_fraction``.

    Bins of ``bin_width`` run from 0 past the largest error.  A width that
    needs more than ``MAX_HISTOGRAM_BINS`` (100,000) bins raises
    :class:`InputError` instead of allocating them.
    """
    if epsilon <= 0.0 or bin_width <= 0.0:
        raise ValueError("epsilon and bin_width must be positive")
    errors = np.asarray(all_errors, dtype=float).ravel()
    errors = np.abs(errors[np.isfinite(errors)])
    if errors.size == 0:
        raise EmptyInput("no finite errors to histogram")
    top = float(errors.max())
    span = top / bin_width - 1e-12
    if span > MAX_HISTOGRAM_BINS:
        raise InputError(
            f"bin width {bin_width:g} needs {span:.3g} bins to reach the largest "
            f"error {top:.3g}, more than {MAX_HISTOGRAM_BINS}"
        )
    bins = max(1, math.ceil(span))
    edges = np.arange(bins + 1) * bin_width
    counts, _ = np.histogram(errors, bins=edges)
    fraction = float(np.mean(errors <= epsilon))
    return {"bin_edges": edges, "counts": counts}, fraction


FFT_GRID_FACTOR = 64


def force_spectrum(t, fz, threshold_ratio: float = 0.05) -> SpectrumSummary:
    """Magnitude spectrum of the contact force ``fz`` (newtons) sampled at
    times ``t`` (seconds), with a peak count.

    ``t`` and ``fz`` must be 1-d arrays of one shape, and ``t`` finite and
    strictly increasing (each a ``ValueError``); fewer than 8 samples then
    raise :class:`TooShort`.  The signal is resampled to a uniform rate
    (the median original rate) by linear interpolation and mean-removed
    before the FFT.  The peak count covers non-DC bins above
    ``threshold_ratio`` times the largest non-DC amplitude.

    The uniform grid may hold at most ``FFT_GRID_FACTOR`` (64) points per
    input sample.  A recording whose median spacing is that much finer than
    its mean spacing (a long gap, or a burst of near-duplicate timestamps)
    raises :class:`InputError` instead of allocating an unbounded grid, as
    does a spectrum whose sample rate, bin width or any amplitude is not finite.
    """
    t, fz = np.asarray(t, dtype=float), np.asarray(fz, dtype=float)
    if t.shape != fz.shape or t.ndim != 1:
        raise ValueError("force samples need matching 1-d t and Fz arrays")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        increasing = np.all(np.diff(t) > 0.0)
    if not increasing:
        raise ValueError("force timestamps must be strictly increasing")
    if not np.isfinite(t).all():  # increasing, so only an end can be ±inf
        raise ValueError("force timestamps must be finite")
    if t.size < 8:
        raise TooShort(f"need at least 8 force samples, got {t.size}")
    with np.errstate(all="ignore"):  # a grid or spectrum that overflows is refused below
        dt = float(median_rows(np.diff(t)))
        steps = (t[-1] - t[0]) / dt + 1e-9
        if not steps < FFT_GRID_FACTOR * t.size:
            raise InputError(
                "force samples are too unevenly timed: a uniform grid at their median "
                f"spacing needs {steps:.3g} points, more than {FFT_GRID_FACTOR} per "
                f"sample ({t.size} samples)"
            )
        count = int(math.floor(steps)) + 1
        grid = t[0] + np.arange(count) * dt
        x = np.interp(grid, t, fz)
        x = x - x.mean()
        spectrum = np.abs(np.fft.rfft(x))
        amplitudes = spectrum * (2.0 / count)
        amplitudes[0] = spectrum[0] / count
        if count % 2 == 0:
            amplitudes[-1] = spectrum[-1] / count
    sample_rate, bin_width = 1.0 / dt, 1.0 / (count * dt)
    if not np.isfinite(np.append(amplitudes, [sample_rate, bin_width])).all():
        raise InputError(
            f"force spectrum is not finite: sample rate {sample_rate:.3g} Hz, bin width "
            f"{bin_width:.3g} Hz (force times or values out of range)"
        )
    peak = float(amplitudes[1:].max()) if amplitudes.size > 1 else 0.0
    threshold = threshold_ratio * peak
    count_above = int(np.sum(amplitudes[1:] > threshold))
    return SpectrumSummary(
        sample_rate=sample_rate,
        bin_width=bin_width,
        amplitudes=amplitudes,
        threshold=threshold,
        count_above=count_above,
        sample_count=count,
    )


def evaluate_demonstrations(
    traces: list[DemonstrationTrace],
    path: IdealPath,
    n: int = 100,
    epsilon: float = 0.003,
    bin_width: float = 0.001,
    threshold_ratio: float = 0.05,
    gate: float = 0.02,
    config: dict | None = None,
) -> dict:
    """Run the full pipeline: segment, resample, aggregate, histogram, FFT.

    Returns the document of ``report.json``, its arrays as they are: the
    writers render them and :func:`~styluskit.jsonio.refuse_inf` checks
    each whole.  Pass it to :func:`~styluskit.jsonio.dumps_canonical`, not
    ``json.dumps``, and compare its arrays with ``np.array_equal``, not
    ``==``."""
    if not traces:
        raise EmptyInput("no traces to evaluate")
    labels = [segment_label(k) for k in range(path.segment_count)]
    per_trace: list[list[SampledSegment]] = []
    for trace in traces:
        positions = trace.positions
        splits = segment_trace(positions, path, gate=gate)
        per_trace.append([
            resample_segment(positions[lo : hi + 1], path.segment(k), n, label=labels[k])
            for k, (lo, hi) in enumerate(zip(splits, splits[1:]))
        ])

    errors = np.array([[seg.signed_error for seg in sampled] for sampled in per_trace])
    segments = aggregate(errors, labels)
    histogram, fraction = epsilon_histogram(errors, epsilon=epsilon, bin_width=bin_width)
    spectra = [
        force_spectrum(trace.times, trace.forces, threshold_ratio=threshold_ratio)
        for trace in traces
        if trace.forces is not None and len(trace) >= 8
    ]
    return {
        "config": dict(config or {}),
        "segments": segments,
        "epsilon": epsilon,
        "epsilon_fraction": fraction,
        "histogram": histogram,
        "spectra": [
            {
                "sample_rate": s.sample_rate,
                "bin_width": s.bin_width,
                "threshold": s.threshold,
                "count_above": s.count_above,
                "sample_count": s.sample_count,
                "amplitudes": s.amplitudes,
            }
            for s in spectra
        ],
        "traces": [
            {
                "index": i,
                "segments": [
                    {
                        "label": seg.segment_label,
                        "signed_error": seg.signed_error,
                        "z_offset": seg.z_offset,
                        "missing": seg.missing,
                    }
                    for seg in sampled
                ],
            }
            for i, sampled in enumerate(per_trace)
        ],
    }


def write_report_files(report: dict, out_dir) -> list[str]:
    """Write the document of :func:`evaluate_demonstrations` as report.json,
    plus the plot-ready CSVs; returns written names."""
    import os

    write_json(os.path.join(out_dir, "report.json"), report)
    written = ["report.json"]

    def _write(name: str, header: str, *blocks) -> None:  # blocks: (leading text, columns)
        with open_output(os.path.join(out_dir, name)) as stream:
            stream.write(header + "\n")
            for lead, columns in blocks:
                write_csv(stream, None, columns, lead)
        written.append(name)

    stats = ("mean", "std", "env_min", "env_max")
    _write("segments.csv", "segment,idx," + ",".join(stats), *[
        (f"{s['label']},", [np.arange(s["mean"].size), *[s[k] for k in stats]])
        for s in report["segments"]
    ])
    edges, counts = report["histogram"]["bin_edges"], report["histogram"]["counts"]
    _write("histogram.csv", "bin_lo,bin_hi,count", ("", [edges[:-1], edges[1:], counts]))
    for i, s in enumerate(report["spectra"]):
        amplitudes = s["amplitudes"]
        frequencies = np.arange(amplitudes.size) * s["bin_width"]
        _write(f"spectrum_{i:03d}.csv", "freq_hz,amplitude", ("", [frequencies, amplitudes]))
    return written
