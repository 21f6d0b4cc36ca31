"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes to ``.perfbench/results``
(copy them aside between commits).  Records are paired by workload, seed
and trace flag; a pair whose input digests differ was not measured on the
same inputs, and the comparison is refused (exit 3).  For each untraced
workload and end-to-end metric the medians and quartiles of both sides
are printed with the change and the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run


def load(directory: str) -> dict:
    records = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        records[(doc["workload"], doc["seed"], doc["trace"])] = doc
    return records


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    shared = sorted(set(base) & set(new))
    mismatched = [k for k in shared if base[k]["inputs_sha256"] != new[k]["inputs_sha256"]]
    if mismatched:
        for key in mismatched:
            print(f"refused: {key} was run on different inputs", file=sys.stderr)
        return 3
    if not shared:
        print("refused: no workload/seed pairs in common", file=sys.stderr)
        return 3
    spec = run.load_spec(run.ROOT)
    print(f"{'workload':10s} {'metric':16s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s}"
          f" {'change':>8s} {'bound':>6s}")
    for workload in sorted({k[0] for k in shared}):
        keys = [k for k in shared if k[0] == workload and k[2] == 0]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = quartiles([base[k]["metrics"][name]["value"] for k in keys])
            n = quartiles([new[k]["metrics"][name]["value"] for k in keys])
            change = (n[1] - b[1]) / b[1]
            worse = change > metric["bound"] if metric["better"] == "lower" else (
                -change > metric["bound"])
            print(f"{workload:10s} {name:16s} {b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g} "
                  f"{n[0]:10.4g} {n[1]:10.4g} {n[2]:10.4g} {change:+8.2%} {metric['bound']:6.2f}"
                  f"{'  WORSE' if worse else ''}  (n={len(keys)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
