"""The report CSVs of ``evaluation.write_report_files`` against a per-row
writer.

``write_report_files`` writes ``segments.csv``, ``histogram.csv`` and the
``spectrum_*.csv`` files through the block writer of the recording CSVs
(``jsonio.write_csv``).  It used to format every row through
``jsonio.csv_row``; that writer is kept below as the oracle, and every
report CSV must match its bytes: NaN means at missing targets, -0.0, both
infinities, labels past ``Z`` and tables that cross the writer's
1,024-row blocks.
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_row

from styluskit import cli, jsonio
from styluskit.errors import NonFiniteOutput
from styluskit.evaluation import (
    EpsilonHistogram,
    EvaluationReport,
    SegmentAggregate,
    SpectrumSummary,
    evaluate_demonstrations,
    report_to_doc,
    segment_label,
    write_report_files,
)
from styluskit.framing import load_frame, to_frame
from styluskit.geometry import TipTrack
from styluskit.ingest import DemonstrationTrace, IdealPath, load_path, parse_demo_csv
from styluskit.jsonio import write_csv as _write_rows
from styluskit.jsonio import refuse_inf, write_json, write_text
from styluskit.synth import SineForce, gen_demonstration

SPECIAL = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    1.7976931348623157e308, 2.0**53, 3.0, -42.0, 0.1, 1.0 / 3.0,
]


def write_report_csvs_per_row(report: EvaluationReport, out_dir) -> list[str]:
    """The former CSV half of ``write_report_files``: one ``csv_row`` per row."""
    written = []

    def _write(name: str, text: str) -> None:
        write_text(os.path.join(out_dir, name), text)
        written.append(name)

    lines = ["segment,idx,mean,std,env_min,env_max"]
    for agg in report.aggregates:
        for i in range(agg.mean.size):
            lines.append(
                csv_row(
                    [agg.segment_label, i, agg.mean[i], agg.std[i], agg.env_min[i], agg.env_max[i]]
                )
            )
    _write("segments.csv", "\n".join(lines))

    lines = ["bin_lo,bin_hi,count"]
    hist = report.histogram
    for lo, hi, count in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
        lines.append(csv_row([lo, hi, int(count)]))
    _write("histogram.csv", "\n".join(lines))

    for i, spectrum in enumerate(report.spectra):
        lines = ["freq_hz,amplitude"]
        freqs = spectrum.frequencies
        for f, amp in zip(freqs, spectrum.amplitudes):
            lines.append(csv_row([f, amp]))
        _write(f"spectrum_{i:03d}.csv", "\n".join(lines))

    return written


def assert_csvs_match(report: EvaluationReport, tmp_path, written=None) -> list[str]:
    """Write ``report`` both ways (unless ``written`` names files already in
    ``tmp_path / "new"``) and compare every CSV byte for byte."""
    new, old = tmp_path / "new", tmp_path / "old"
    os.makedirs(new, exist_ok=True)
    os.makedirs(old, exist_ok=True)
    if written is None:
        written = write_report_files(report, new)
    expected = write_report_csvs_per_row(report, old)
    assert written == ["report.json", *expected]
    for name in expected:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    return expected


def make_report(columns_per_segment, edges, counts, amplitudes_per_spectrum) -> EvaluationReport:
    aggregates = [
        SegmentAggregate(segment_label(k), mean, np.abs(mean), std, lo, hi)
        for k, (mean, std, lo, hi) in enumerate(columns_per_segment)
    ]
    histogram = EpsilonHistogram(np.asarray(edges), np.asarray(counts), 0.003, 0.5)
    spectra = [
        SpectrumSummary(100.0, 0.25, np.asarray(amps), 0.1, 1, 2 * len(amps))
        for amps in amplitudes_per_spectrum
    ]
    return EvaluationReport(
        config={},
        segment_labels=[a.segment_label for a in aggregates],
        per_trace=[],
        aggregates=aggregates,
        histogram=histogram,
        spectra=spectra,
    )


def test_special_values_labels_and_block_edges(tmp_path):
    rng = np.random.default_rng(14)
    special = np.array(SPECIAL)
    segments = []
    for k in range(28):  # A..Z, then S26 and S27
        size = 1100 if k == 27 else (1024 if k == 26 else 3 + k)  # across and on a block edge
        columns = [rng.normal(size=size) for _ in range(4)]
        for column in columns:
            column[rng.integers(0, size, size=size // 3)] = rng.choice(special, size=size // 3)
        columns[0][:2] = math.nan  # missing targets at the start
        segments.append(columns)
    edges = np.arange(2051) * 0.001
    counts = rng.integers(0, 2**40, size=2050)
    counts[:3] = [0, 2**53 - 1, 2**53]
    amplitudes = [rng.choice(special, size=1500), np.array([0.0]), rng.normal(size=1025)]
    report = make_report(segments, edges, counts, amplitudes)
    names = assert_csvs_match(report, tmp_path)
    assert names == ["segments.csv", "histogram.csv", "spectrum_000.csv", "spectrum_001.csv",
                     "spectrum_002.csv"]
    text = (tmp_path / "new" / "segments.csv").read_text()
    assert "\nS26,1023," in text and "\nS27,1099," in text and "\nZ,0," in text
    fields = set(text.replace("\n", ",").split(","))
    assert {"nan", "inf", "-inf", "-0"} <= fields


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64),
    sizes=st.lists(st.integers(1, 1500), min_size=1, max_size=4),
    data=st.data(),
)
def test_any_floats(tmp_path_factory, values, sizes, data):
    pool = np.array(values)
    segments = [
        [np.resize(np.roll(pool, k + j), size) for j in range(4)] for k, size in enumerate(sizes)
    ]
    bins = data.draw(st.integers(1, 1500))
    counts = data.draw(st.lists(st.integers(0, 2**53), min_size=bins, max_size=bins))
    report = make_report(
        segments, np.resize(pool, bins + 1), counts, [np.resize(pool, s) for s in sizes]
    )
    assert_csvs_match(report, tmp_path_factory.mktemp("report"))


def test_pipeline_report_with_missing_targets(tmp_path):
    # The trace stops short of the line's end, so its last targets are
    # missing and their means NaN.
    u = np.linspace(0.0, 0.9, 300)
    rng = np.random.default_rng(3)
    positions = np.column_stack([0.1 * u, rng.normal(scale=0.001, size=u.size), np.zeros(u.size)])
    track = TipTrack(u, positions, np.tile([0.0, 0.0, 0.0, 1.0], (u.size, 1)))
    trace = DemonstrationTrace(points=track, forces=np.sin(20 * u) + 2.0)
    path = IdealPath(waypoints=[[0.0, 0.0], [0.1, 0.0]], visiting_sequence=(0, 1))
    report = evaluate_demonstrations([trace, trace], path, n=1500)
    assert np.isnan(report.aggregates[0].mean).any()
    assert_csvs_match(report, tmp_path)


IDENTITY_FRAME = {
    "label": "board",
    "translation": [0.0, 0.0, 0.0],
    "rotation_quat": [0.0, 0.0, 0.0, 1.0],
    "probe_points": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
}


def test_evaluate_command_matches_per_row_writer(tmp_path, capsys):
    waypoints = [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1]]
    traces = []
    for seed in (7, 8):
        config = tmp_path / f"demo_{seed}.json"
        write_json(config, {
            "kind": "demonstration",
            "seed": seed,
            "path": {"waypoints": waypoints, "visiting_sequence": [0, 1, 2, 3]},
            "lateral_noise_std": 0.001,
            "speed": 0.05,
            "sample_rate": 200.0,
            "force_profile": {"kind": "sine", "frequency_hz": 5.0, "amplitude": 1.0, "offset": 2.0},
        })
        out = tmp_path / f"demo_{seed}"
        assert cli.main(["simulate", str(config), "--out-dir", str(out)]) == 0
        traces.append(str(out / "trace.csv"))
    frame_path = tmp_path / "frame.json"
    write_json(frame_path, IDENTITY_FRAME)
    path_file = os.path.join(os.path.dirname(traces[0]), "path.json")
    report_dir = tmp_path / "new"
    capsys.readouterr()
    code = cli.main([
        "evaluate", *traces, "--frame", str(frame_path), "--path", path_file,
        "--n", "1200", "--out-dir", str(report_dir),
    ])
    assert code == 0
    written = json.loads(capsys.readouterr().out)["files"]

    frame = load_frame(str(frame_path))
    demos = []
    for name in sorted(traces):
        with open(name, encoding="utf-8") as f:
            demo = parse_demo_csv(f)
        demos.append(DemonstrationTrace(to_frame(frame, demo.points), demo.forces))
    report = evaluate_demonstrations(demos, load_path(path_file), n=1200)
    assert assert_csvs_match(report, tmp_path, written) == written[1:]
    assert len(written) == 5  # report.json, segments, histogram and one spectrum per trace


def test_leading_text_is_written_as_is():
    # ``%`` in the leading text must not be taken for a format field.
    columns = [np.array([0.5, -0.0, math.nan]), np.arange(3)]
    stream = io.StringIO()
    _write_rows(stream, None, columns, "100%s,")
    expected = "".join(csv_row(["100%s", a, int(b)]) + "\n" for a, b in zip(*columns))
    assert stream.getvalue() == expected


def test_report_doc_names_an_infinite_statistic():
    # evaluate checks report.json's document before it opens any report
    # file: the CSVs hold the same numbers.
    column = np.array([0.5, 1.0, math.inf])
    report = make_report([[column] * 4], np.arange(3) * 0.001, [1, 2], [np.ones(3)])
    with pytest.raises(NonFiniteOutput, match=r"^cannot write segments\[0\]\.mean\[2\]: inf is"):
        refuse_inf(report_to_doc(report))


def test_report_doc_is_checked_an_array_at_a_time(monkeypatch):
    # A session-size report (6 traces x 4 segments) reaches refuse_inf with
    # its arrays whole, one isinf each, not one call per number.
    path = IdealPath([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1]], (0, 1, 2, 3, 0))
    force = SineForce(frequency_hz=5.0, amplitude=1.0, offset=2.0)
    traces = [gen_demonstration(path, 0.001, force_profile=force, seed=s) for s in range(6)]
    report = evaluate_demonstrations(traces, path)
    calls = 0
    walk = jsonio._refuse_inf

    def counted(obj, where):
        nonlocal calls
        calls += 1
        walk(obj, where)

    monkeypatch.setattr(jsonio, "_refuse_inf", counted)
    refuse_inf(report_to_doc(report))
    assert 0 < calls < 300
