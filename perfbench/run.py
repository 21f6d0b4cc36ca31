"""Seeded end-to-end benchmark of the styluskit command line.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The workload's inputs are
generated from ``--seed``; then the workload's command sequence (one
*pass*) is run repeatedly for about ``--seconds`` seconds, each command in
a fresh ``python -m styluskit.cli`` child, as a user runs it.  Wall time
and peak RSS come from outside, from ``os.wait4`` on each child.  The
benchmark and its children share one CPU, and a fixed pure-Python loop
(the *speed probe*) is timed on it just before and just after each child;
the timings that are gated are corrected by that probe for the load that
other tenants put on the CPU (see ``scaled``).  Every
command's outputs are checked against the generator's ground truth and
must be byte-identical across passes; a command that exits non-zero or
fails a check counts as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` one untraced pass is
followed by traced passes (``perfbench/tracer.py`` in place of the CLI),
and the line holds the per-layer metrics.  Lines before it list every
metric with its unit; the full record, with the inputs' sha256, is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PER_PASS = 1
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120.0
PROBE_ITERATIONS = 100_000
PROBE_REFERENCE_S = 0.011
PROBE_EXPONENT = 0.5
RATIOS = {"kept_ratio": ("kept", "points"), "hit_ratio": ("hits", "targets")}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Bind this process, and so every child it starts, to the highest CPU
    it may use, so that the speed probe runs where the children run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def speed_probe() -> float:
    """Seconds this CPU takes, right now, for a fixed pure-Python loop.

    On a shared host a CPU's speed steps by up to half from one second to
    the next, with the load its neighbours put on the same core; the probe
    reads that speed without depending on the program under test."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


def scaled(wall_s: float, probe_s: float) -> float:
    """``wall_s`` corrected to a CPU on which the probe takes
    ``PROBE_REFERENCE_S``.

    The probe's tight loop feels a loaded core more than the commands do.
    Over 1,023 command runs of all three workloads on a 2-vCPU shared host,
    log(command time) against log(probe time) had a slope of 0.37-0.47 for
    every command, so the correction uses the square root of the probe's
    slowdown, not the slowdown itself.  On those runs that halved the
    spread of ``wall_s`` between runs; the full slowdown over-corrected."""
    return wall_s * (PROBE_REFERENCE_S / probe_s) ** PROBE_EXPONENT


def child_env(root: str) -> dict:
    """Environment of every child: the checkout's sources first on the path,
    BLAS/OpenMP threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cap = str(blas_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str
    probe_s: float
    """Mean of the speed probes just before and just after the child."""

    @property
    def scaled_wall_s(self) -> float:
        return scaled(self.wall_s, self.probe_s)


def run_child(argv: list, cwd: str, env: dict, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time from just before the spawn to
    the reap, peak RSS and CPU time from its rusage, the speed probe on
    either side."""
    probe_before = speed_probe()
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    probe_s = 0.5 * (probe_before + speed_probe())
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return ChildResult(
        proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
        stdout, stderr, probe_s,
    )


def cli_argv(args: list, spans_path: str | None) -> list:
    if spans_path is None:
        return [sys.executable, "-m", "styluskit.cli", *args]
    return [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--", *args]


def output_digest(work: str, stdout: str, outputs: list) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for rel in outputs:
        path = os.path.join(work, rel)
        if os.path.isdir(path):
            h.update(workloads.tree_sha256(path).encode())
        else:
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_pass(plan, work: str, env: dict, traced: bool, index: int) -> dict:
    """One run of the plan's command sequence in ``work``; outputs go to
    ``work/out``, which is emptied first so every pass writes the same paths."""
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    commands = []
    layers: dict = {}
    counter_errors = 0
    for i, command in enumerate(plan.commands):
        spans_path = os.path.join(spans_dir, f"pass{index}_{i}.json") if traced else None
        child = run_child(cli_argv(command.argv, spans_path), work, env)
        record = {
            "label": command.label,
            "exit": child.code,
            "wall_s": child.wall_s,
            "scaled_wall_s": child.scaled_wall_s,
            "probe_s": child.probe_s,
            "peak_rss_mb": child.peak_rss_mb,
            "cpu_s": child.cpu_s,
            "failures": [],
            "digest": None,
        }
        if child.code != 0:
            record["failures"].append(
                f"{command.label}: exit {child.code}: {child.stderr.strip()[-400:]}"
            )
        else:
            try:
                record["failures"] = command.check(work, child.stdout)
                record["digest"] = output_digest(work, child.stdout, command.outputs)
                if command.measure and not record["failures"]:
                    record["accuracy"] = command.measure(work)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                record["failures"].append(f"{command.label}: unreadable output: {exc!r}")
        if traced and os.path.exists(spans_path):
            with open(spans_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            counter_errors += doc["counter_errors"]
            merge_layers(layers, tracer.layer_totals(doc["spans"]))
        commands.append(record)
    result = {
        "traced": traced,
        "commands": commands,
        "wall_s": sum(c["wall_s"] for c in commands),
        "scaled_wall_s": sum(c["scaled_wall_s"] for c in commands),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in commands),
    }
    if traced:
        result["layers"] = layers
        result["counter_errors"] = counter_errors
    return result


def merge_layers(into: dict, totals: dict) -> None:
    for name, entry in totals.items():
        target = into.setdefault(
            name, {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0, "counters": {}}
        )
        target["calls"] += entry["calls"]
        target["self_s"] += entry["self_s"]
        target["rss_growth_mb"] += entry["rss_growth_mb"]
        for key, value in entry["counters"].items():
            target["counters"][key] = target["counters"].get(key, 0) + value


def layer_value(layers: dict, metric: str) -> float:
    """``<module>.<function>.<field>`` from one pass's span totals; a layer
    that made no calls in the pass reads 0."""
    name, field = metric.rsplit(".", 1)
    entry = layers.get(name)
    if entry is None:
        return 0.0
    if field in ("calls", "self_s", "rss_growth_mb"):
        return float(entry[field])
    if field in RATIOS:
        num, den = (entry["counters"].get(k, 0) for k in RATIOS[field])
        return num / den if den else 0.0
    return float(entry["counters"].get(field, 0))


def check_identical(passes: list) -> None:
    """Every command must write the same bytes in every pass."""
    first = passes[0]["commands"]
    for p in passes[1:]:
        for ref, cmd in zip(first, p["commands"]):
            if ref["digest"] and cmd["digest"] and ref["digest"] != cmd["digest"]:
                cmd["failures"].append(f"{cmd['label']}: output differs from the first pass")


def median(values: list) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list, setup: list, records: int) -> dict:
    """The gated timings are scaled by the speed probe (see ``scaled``); the
    unscaled pass wall time is kept beside them as ``raw_wall_s``."""
    untraced = [p for p in passes if not p["traced"]]
    values = {
        "wall_s": median([p["scaled_wall_s"] for p in untraced]),
        "records_per_s": median([records / p["scaled_wall_s"] for p in untraced]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        "setup_s": median(setup),
        "raw_wall_s": median([p["wall_s"] for p in untraced]),
    }
    labels = dict.fromkeys(c["label"] for c in untraced[0]["commands"])
    for label in labels:
        values[f"{label}_s"] = median(
            [sum(c["scaled_wall_s"] for c in p["commands"] if c["label"] == label)
             for p in untraced]
        )
    for c in untraced[0]["commands"]:
        values.update(c.get("accuracy", {}))
    return values


def per_layer(passes: list, names: list) -> tuple:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = median([p["scaled_wall_s"] for p in traced]) - median(
                [p["scaled_wall_s"] for p in untraced]
            )
        else:
            values[name] = median([layer_value(p["layers"], name) for p in traced])
    every = sorted({n for p in traced for n in p["layers"]})
    fields = ("calls", "self_s", "rss_growth_mb")
    detail = {
        n: {f: median([layer_value(p["layers"], f"{n}.{f}") for p in traced]) for f in fields}
        for n in every
    }
    return values, detail


UNITS = {"per_s": "1/s", "_s": "s", "_mb": "MB", "_mm": "mm", "_deg": "deg"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("ratio", "rate")) else "count"


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, root: str = ROOT) -> dict:
    """Generate inputs, measure set-up, run passes for ``args.seconds``,
    check outputs; return the full result record."""
    spec = load_spec(root)
    cpu = pin_to_one_cpu()
    env = child_env(root)
    work = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = workloads.make_plan(args.workload, args.seed, work)

        # Set-up runs are spread over the window, SETUP_PER_PASS before each
        # pass, so that slow drifts of a shared machine reach both metrics
        # alike.  The first run only fills bytecode caches and is not timed.
        help_argv = cli_argv(["--help"], None)
        setup_children = [run_child(help_argv, work, env)]
        passes = []
        rounds = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            setup_children += [run_child(help_argv, work, env) for _ in range(SETUP_PER_PASS)]
            traced = bool(args.trace) and len(passes) > 0
            passes.append(run_pass(plan, work, env, traced, len(passes)))
            now = time.perf_counter()
            rounds.append(now - round_start)
            if len(passes) >= MIN_PASSES and now - start + median(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
        shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
        shutil.rmtree(os.path.join(work, "spans"), ignore_errors=True)

    check_identical(passes)
    commands = [c for p in passes for c in p["commands"]]
    failures = [msg for c in commands for msg in c["failures"]]
    setup = [c.scaled_wall_s for c in setup_children[1:]]
    attempted = len(commands) + len(setup_children)
    failed = sum(bool(c["failures"]) for c in commands) + sum(c.code != 0 for c in setup_children)
    report = end_to_end(passes, setup, plan.records)
    report["error_rate"] = failed / attempted
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": plan.inputs_sha256,
        "records": plan.records,
        "cpu": cpu,
        "blas_threads": blas_threads(),
        "probe_reference_s": PROBE_REFERENCE_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup_runs_s": setup,
        "setup_runs_raw_s": [c.wall_s for c in setup_children[1:]],
        "report": report,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
    }
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.trace:
        values, detail = per_layer(passes, names)
        result["layers"] = detail
    else:
        values = report
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result["metrics"] = {n: {"value": values[n], "unit": units[n]} for n in names}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "styluskit", "cli.py")):
        print(f"error: no styluskit sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    result = run(args)
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    print(f"# {args.workload} seed={args.seed} passes={len(result['passes'])} "
          f"records={result['records']} cpu={result['cpu']} blas_threads={result['blas_threads']} "
          f"inputs_sha256={result['inputs_sha256']}")
    for key, value in result["report"].items():
        print(f"{args.workload:10s} {key:28s} {value:14.6g} {unit_of(key)}")
    if args.trace:
        for key, entry in result["layers"].items():
            print(f"{args.workload:10s} {key:36s} self {entry['self_s']:10.4f} s "
                  f"calls {entry['calls']:6.0f}  rss +{entry['rss_growth_mb']:8.1f} MB")
    for msg in result["failures"]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
