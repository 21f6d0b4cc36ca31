"""Tests of the benchmark's own code: span arithmetic, seeded inputs,
output checks and the untraced path."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(name, parent, start, end, close, rss=(0, 0, 0), counters=None):
    return {
        "name": name, "parent": parent, "start": start, "end": end, "close": close,
        "rss_start_kb": rss[0], "rss_end_kb": rss[1], "rss_close_kb": rss[2],
        "counters": counters or {},
    }


def test_self_time_subtracts_children_and_their_counting():
    # root 0..10 holds a (1..4, counted until 4.5) and d (5..6);
    # a holds c (2..3).  Counting time after a child's end is charged to
    # nobody; peak-RSS growth splits the same way.
    spans = [
        _span("m.root", None, 0.0, 10.0, 10.0, rss=(0, 5120, 5120)),
        _span("m.a", 0, 1.0, 4.0, 4.5, rss=(0, 3072, 4096), counters={"rows": 3}),
        _span("m.c", 1, 2.0, 3.0, 3.0, rss=(0, 1024, 1024), counters={"rows": 4}),
        _span("m.d", 0, 5.0, 6.0, 6.0),
        _span("m.c", None, 20.0, 20.5, 20.5),
    ]
    totals = tracer.layer_totals(spans)
    assert totals["m.root"]["self_s"] == pytest.approx(10.0 - 3.5 - 1.0)
    assert totals["m.a"]["self_s"] == pytest.approx(3.0 - 1.0)
    assert totals["m.c"]["self_s"] == pytest.approx(1.0 + 0.5)
    assert totals["m.c"]["calls"] == 2
    assert totals["m.d"]["self_s"] == pytest.approx(1.0)
    assert totals["m.root"]["rss_growth_mb"] == pytest.approx(1.0)
    assert totals["m.a"]["rss_growth_mb"] == pytest.approx(2.0)
    assert totals["m.c"]["counters"] == {"rows": 4}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.5 - 0.5)


def test_layer_value_ratios_and_absent_layers():
    layers = {"calib.filter_outliers": {"calls": 2, "self_s": 1.5, "rss_growth_mb": 0.0,
                                        "counters": {"kept": 90, "points": 100}}}
    assert run.layer_value(layers, "calib.filter_outliers.kept_ratio") == pytest.approx(0.9)
    assert run.layer_value(layers, "calib.filter_outliers.calls") == 2.0
    assert run.layer_value(layers, "framing.to_frame.self_s") == 0.0
    assert run.layer_value(layers, "evaluation.resample_segment.hit_ratio") == 0.0


@pytest.mark.parametrize("workload", sorted(workloads.MAKERS))
def test_same_seed_same_input_digest(tmp_path, workload):
    a = workloads.make_plan(workload, 5, str(tmp_path / "a"))
    b = workloads.make_plan(workload, 5, str(tmp_path / "b"))
    c = workloads.make_plan(workload, 6, str(tmp_path / "c"))
    assert a.inputs_sha256 == b.inputs_sha256
    assert a.inputs_sha256 != c.inputs_sha256
    assert [cmd.argv for cmd in a.commands] == [cmd.argv for cmd in b.commands]


def _fake_cli(doc: dict):
    """A child that writes ``doc`` where calibrate-position writes its result."""
    text = json.dumps(doc)
    script = (
        "import sys; text = sys.argv[1]; print(text); "
        "open('out/position.json', 'w').write(text + '\\n')"
    )
    return lambda args, spans_path: [sys.executable, "-c", script, text]


@pytest.mark.parametrize("shift_m, failed", [(0.0, False), (0.002, True)])
def test_shifted_tip_counts_as_failure(tmp_path, monkeypatch, shift_m, failed):
    plan = workloads.make_plan("calibrate", 3, str(tmp_path))
    plan.commands = plan.commands[:1]
    tip, pivot = plan.truth["tip"], plan.truth["pivot"]
    doc = {
        "translation": (tip + np.array([shift_m, 0.0, 0.0])).tolist(),
        "pivot": pivot.tolist(),
    }
    monkeypatch.setattr(run, "cli_argv", _fake_cli(doc))
    result = run.run_pass(plan, str(tmp_path), run.child_env(run.ROOT), False, 0)
    failures = result["commands"][0]["failures"]
    assert bool(failures) is failed
    if failed:
        assert "tip error 2.0000 mm" in failures[0]


def test_changed_output_between_passes_counts_as_failure():
    passes = [
        {"commands": [{"label": "x", "digest": "aa", "failures": []}]},
        {"commands": [{"label": "x", "digest": "ab", "failures": []}]},
    ]
    run.check_identical(passes)
    assert passes[1]["commands"][0]["failures"]
    assert not passes[0]["commands"][0]["failures"]


def _identify_frame_plan(work: str) -> workloads.Plan:
    waypoints = {"waypoints": [
        {"t": float(i), "position": p, "orientation_quat": [0.0, 0.0, 0.0, 1.0]}
        for i, p in enumerate([[0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.2, 0.0]])
    ]}
    os.makedirs(os.path.join(work, "inputs"))
    workloads.write_json(os.path.join(work, "inputs", "wp.json"), waypoints)
    command = workloads.Command(
        "identify-frame", ["identify-frame", "inputs/wp.json", "-o", "out/frame.json"],
        ["out/frame.json"], lambda work_dir, stdout: [],
    )
    return workloads.Plan(workload="tiny", commands=[command], records=3)


def test_untraced_pass_installs_no_wrappers(tmp_path, monkeypatch):
    launched = []
    real_cli_argv = run.cli_argv

    def recording_cli_argv(args, spans_path):
        argv = real_cli_argv(args, spans_path)
        launched.append(argv)
        return argv

    monkeypatch.setattr(run, "cli_argv", recording_cli_argv)
    plan = _identify_frame_plan(str(tmp_path))
    env = run.child_env(run.ROOT)

    untraced = run.run_pass(plan, str(tmp_path), env, False, 0)
    assert untraced["commands"][0]["exit"] == 0
    assert "layers" not in untraced
    assert launched[0][1:3] == ["-m", "styluskit.cli"]
    assert not any("tracer" in part for part in launched[0])
    assert not os.listdir(tmp_path / "spans")

    traced = run.run_pass(plan, str(tmp_path), env, True, 1)
    assert traced["layers"]["cli.identify-frame"]["calls"] == 1
    assert traced["layers"]["framing.identify_frame"]["calls"] == 1
    assert traced["commands"][0]["digest"] == untraced["commands"][0]["digest"]


def test_install_rebinds_imported_names_and_uninstall_restores():
    from styluskit import cli, jsonio

    original = jsonio.dumps_canonical
    assert cli.dumps_canonical is original
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        assert cli.dumps_canonical is not original
        assert cli.dumps_canonical is jsonio.dumps_canonical
        text = cli.dumps_canonical({"a": [1.0, {"b": [2.0]}]})
    finally:
        tracer.uninstall(undo)
    assert jsonio.dumps_canonical is original and cli.dumps_canonical is original
    assert [s["name"] for s in t.spans] == ["jsonio.dumps_canonical"]
    assert t.spans[0]["counters"] == {"bytes": len(text)}
    assert not any(hasattr(f, "__wrapped__") for _, _, f in
                   ((m, a, getattr(m, a)) for m, a, _ in tracer.spanned_functions()))


def test_benchmark_json_names_resolve():
    spec = run.load_spec(run.ROOT)
    spanned = {name for _, _, name in tracer.spanned_functions()}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name != "trace.overhead_s":
            assert name.rsplit(".", 1)[0] in spanned, name
    fields = {"wall_s", "records_per_s", "peak_rss_mb", "setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} == fields


def test_gated_timings_are_scaled_by_the_speed_probe():
    # A probe four times slower than the reference halves a command's
    # time; one four times faster doubles it.
    ref = run.PROBE_REFERENCE_S
    assert run.scaled(4.0, ref) == pytest.approx(4.0)
    assert run.scaled(4.0, 4 * ref) == pytest.approx(2.0)
    commands = [
        {"label": "a", "wall_s": 3.0, "scaled_wall_s": run.scaled(3.0, 4 * ref)},
        {"label": "b", "wall_s": 1.0, "scaled_wall_s": run.scaled(1.0, ref / 4)},
    ]
    passes = [{
        "traced": False, "commands": commands, "wall_s": 4.0, "peak_rss_mb": 80.0,
        "scaled_wall_s": sum(c["scaled_wall_s"] for c in commands),
    }]
    values = run.end_to_end(passes, [run.scaled(0.9, 4 * ref)], 700)
    assert values["wall_s"] == pytest.approx(3.5)
    assert values["raw_wall_s"] == pytest.approx(4.0)
    assert values["a_s"] == pytest.approx(1.5) and values["b_s"] == pytest.approx(2.0)
    assert values["records_per_s"] == pytest.approx(200.0)
    assert values["setup_s"] == pytest.approx(0.45)
