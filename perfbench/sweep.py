"""One-off scaling sweep; not a gated workload.

    python3 perfbench/sweep.py [--out perfbench/sweep_results.json]

Runs ``calibrate-position`` at 1k/2k/4k/8k pivot poses, and the linear
stages (``snapshot``, ``evaluate``, ``simulate``) at 10k/30k/100k records,
each once untraced (wall time, peak RSS) and once traced (per-layer self
time).  Every child inherits an address-space limit of ``MEMORY_CAP_GB``
so that the quadratic stages fail with ``MemoryError`` instead of
exhausting a shared machine; the largest pose count they can reach under
that cap is extrapolated from the measured peak RSS and recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys

import run
import workloads

SEED = 1
MEMORY_CAP_GB = 4.5
QUADRATIC_SIZES = (1000, 2000, 4000, 8000)
LINEAR_SIZES = (10000, 30000, 100000)
LAYERS = (
    "calib.filter_outliers", "calib.calibrate_position", "ingest.parse_pose_csv",
    "ingest.parse_demo_csv", "ingest.apply_calibration", "framing.to_frame",
    "ingest.write_pose_csv", "synth.gen_position_dataset", "evaluation.resample_segment",
)


def measure(plan, work: str, env: dict) -> tuple:
    """Per command: untraced wall/RSS/exit, traced self time per layer."""
    plain = run.run_pass(plan, work, env, False, 0)
    traced = run.run_pass(plan, work, env, True, 1)
    rows = []
    for command, p, t in zip(plan.commands, plain["commands"], traced["commands"]):
        rows.append({
            "command": command.label,
            "exit": p["exit"],
            "failures": p["failures"],
            "wall_s": p["wall_s"],
            "peak_rss_mb": p["peak_rss_mb"],
        })
    layers = {
        name: {k: traced["layers"][name][k] for k in ("calls", "self_s", "rss_growth_mb")}
        | traced["layers"][name]["counters"]
        for name in LAYERS if name in traced["layers"]
    }
    return rows, layers


def memory_total_mb() -> float:
    with open("/proc/meminfo", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("MemTotal not found")


def cpu_model() -> str:
    with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def quadratic_cap(points: list, limit_mb: float) -> int:
    """Largest N whose peak RSS, fitted as a + b*N^2 through the two
    largest measured sizes, stays under ``limit_mb``."""
    (n1, r1), (n2, r2) = sorted(points)[-2:]
    b = (r2 - r1) / (n2 * n2 - n1 * n1)
    a = r2 - b * n2 * n2
    return int(((limit_mb - a) / b) ** 0.5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(run.HERE, "sweep_results.json"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(run.ROOT, "src", "styluskit", "cli.py")):
        print("error: run from a styluskit checkout", file=sys.stderr)
        return 2
    cap = int(MEMORY_CAP_GB * 2**30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    env = run.child_env(run.ROOT)
    base = os.path.join(run.ROOT, ".perfbench", "sweep")
    results = {
        "machine": {
            "cpu": cpu_model(), "cpus": run.blas_threads(), "memory_mb": memory_total_mb(),
            "python": platform.python_version(), "numpy": run.np.__version__,
        },
        "memory_cap_gb": MEMORY_CAP_GB,
        "calibrate_position": [],
        "linear": [],
    }

    def fresh(name: str) -> str:
        work = os.path.join(base, name)
        shutil.rmtree(work, ignore_errors=True)
        return work

    try:
        for n in QUADRATIC_SIZES:
            work = fresh(f"calibrate-{n}")
            plan = workloads.make_plan("calibrate", SEED, work, pivot_count=n, hole_count=10)
            plan.commands = plan.commands[:1]
            rows, layers = measure(plan, work, env)
            results["calibrate_position"].append({"poses": n, **rows[0], "layers": layers})
            print(json.dumps(results["calibrate_position"][-1]), flush=True)

        for n in LINEAR_SIZES:
            work = fresh(f"session-{n}")
            speed = workloads.DEMO_SPEED * workloads.WAYPOINT_POSES / n
            plan = workloads.make_plan("session", SEED, work, waypoint_count=n,
                                       demo_speed=speed)
            rows, layers = measure(plan, work, env)
            work = fresh(f"simulate-{n}")
            plan = workloads.make_plan("simulate", SEED, work, position_count=n)
            plan.commands = plan.commands[:1]
            sim_rows, sim_layers = measure(plan, work, env)
            results["linear"].append(
                {"records": n, "commands": rows + sim_rows, "layers": layers | sim_layers}
            )
            print(json.dumps(results["linear"][-1]), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    fitted = [(r["poses"], r["peak_rss_mb"]) for r in results["calibrate_position"]
              if r["exit"] == 0]
    if len(fitted) >= 2:
        results["quadratic_cap_poses"] = {
            "memory_cap": quadratic_cap(fitted, MEMORY_CAP_GB * 1024.0),
            "machine_memory": quadratic_cap(fitted, results["machine"]["memory_mb"]),
        }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(json.dumps(results.get("quadratic_cap_poses")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
