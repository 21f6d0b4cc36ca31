"""Spans around the public functions of each styluskit module.

Run as a script, this is the traced stand-in for ``python -m styluskit.cli``:

    python3 perfbench/tracer.py SPANS.json -- <styluskit arguments>

It imports the package, wraps the public functions of the spanned modules
in place (nothing under ``src/`` changes), calls ``cli.main(argv)``, and
writes the spans it kept in memory to ``SPANS.json`` before exiting with
the command's exit code.

A span records its name, its parent span, and three clock readings:
``start``, ``end`` (the wrapped call returned) and ``close`` (the
wrapper's own counting finished).  A span's self time is ``end - start``
minus ``close - start`` of each child, so the tracer's counting is charged
to no layer.  The same holds for the growth of the process's peak RSS
(``ru_maxrss``), which only rises, so growth over disjoint intervals adds
up and a span's own growth is its total minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

import numpy as np

SPANNED_MODULES = ("cli", "ingest", "calib", "framing", "evaluation", "jsonio", "synth")

# Helpers called once per record: one span per call would swamp the run,
# so their cost stays in the self time of the caller.
PER_RECORD = {"jsonio": {"csv_row", "format_float"}}

# Recursive functions spanned at their outermost call only.
OUTERMOST = {"jsonio.dumps_canonical"}


class Tracer:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.open_names: dict[str, int] = {}
        self.counter_errors = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "start": time.perf_counter(),
                "rss_start_kb": _maxrss_kb(),
            }
        )
        self.stack.append(index)
        self.open_names[name] = self.open_names.get(name, 0) + 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_end_kb"] = _maxrss_kb()

    def close(self, index: int, counters: dict) -> None:
        span = self.spans[index]
        span["counters"] = counters
        span["rss_close_kb"] = _maxrss_kb()
        span["close"] = time.perf_counter()
        self.stack.pop()
        self.open_names[span["name"]] -= 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counter_errors": self.counter_errors}, f)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------------------ counters
# Counters read sizes from arguments and results without relying on one
# record layout: a recording may be a list of samples or a set of arrays.


def _size(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        pass
    for attr in ("samples", "points", "poses", "t", "times"):
        value = getattr(obj, attr, None)
        if value is not None:
            return _size(value)
    raise TypeError(f"cannot size {type(obj).__name__}")


def _arg(fn, args, kwargs, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_filter(fn, args, kwargs, result) -> dict:
    from scipy.spatial import cKDTree

    points = np.asarray(_arg(fn, args, kwargs, "points"), dtype=float)
    radius = _arg(fn, args, kwargs, "params").neighborhood_radius
    within = cKDTree(points).query_ball_point(points, radius, return_length=True)
    return {
        "points": points.shape[0],
        "kept": _size(result[0]),
        "neighbor_pairs": (int(np.sum(within)) - points.shape[0]) // 2,
    }


def _count_resample(fn, args, kwargs, result) -> dict:
    missing = np.asarray(result.missing, dtype=bool)
    return {"hits": int(missing.size - missing.sum()), "targets": int(missing.size)}


def _count_orientation_dataset(fn, args, kwargs, result) -> dict:
    return {"samples": sum(_size(h.poses) for h in result[0].holes)}


COUNTERS = {
    "calib.filter_outliers": _count_filter,
    "ingest.parse_pose_csv": lambda fn, a, k, r: {"rows": _size(r)},
    "ingest.parse_demo_csv": lambda fn, a, k, r: {"rows": _size(r)},
    "ingest.apply_calibration": lambda fn, a, k, r: {"records": _size(r)},
    "framing.to_frame": lambda fn, a, k, r: {"records": _size(r)},
    "evaluation.resample_segment": _count_resample,
    "evaluation.force_spectrum": lambda fn, a, k, r: {"fft_points": int(r.sample_count)},
    "jsonio.dumps_canonical": lambda fn, a, k, r: {"bytes": len(r.encode("utf-8"))},
    "ingest.write_pose_csv": lambda fn, a, k, r: {"rows": _size(_arg(fn, a, k, "rec"))},
    "ingest.write_demo_csv": lambda fn, a, k, r: {"rows": _size(_arg(fn, a, k, "trace"))},
    "synth.gen_position_dataset": lambda fn, a, k, r: {"samples": _size(r[0])},
    "synth.gen_orientation_dataset": _count_orientation_dataset,
    "synth.gen_demonstration": lambda fn, a, k, r: {"samples": _size(r)},
}


# ------------------------------------------------------------------ wrapping


def span_name(module: str, function: str) -> str:
    """``cli._cmd_calibrate_position`` is reported as ``cli.calibrate-position``."""
    if module == "cli" and function.startswith("_cmd_"):
        return "cli." + function[len("_cmd_"):].replace("_", "-")
    return f"{module}.{function}"


def spanned_functions(package: str = "styluskit") -> list:
    """``(module object, attribute, span name)`` for every function to wrap:
    the public functions each spanned module defines, plus the CLI's
    command handlers, minus the per-record helpers."""
    found = []
    for short in SPANNED_MODULES:
        module = importlib.import_module(f"{package}.{short}")
        for attr, value in vars(module).items():
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if attr.startswith("_") and not (short == "cli" and attr.startswith("_cmd_")):
                continue
            if attr in PER_RECORD.get(short, ()):
                continue
            found.append((module, attr, span_name(short, attr)))
    return found


def _wrap(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)
    outermost = name in OUTERMOST

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost and tracer.open_names.get(name):
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(index)
            tracer.close(index, {})
            raise
        tracer.end(index)
        counters = {}
        if count is not None:
            try:
                counters = count(fn, args, kwargs, result)
            except Exception:  # a counter must never change the command's outcome
                tracer.counter_errors += 1
        tracer.close(index, counters)
        return result

    return wrapper


def install(tracer: Tracer, package: str = "styluskit") -> list:
    """Wrap every spanned function in place and return the undo list.

    Modules that imported a function by name (``from .jsonio import
    dumps_canonical``) hold their own reference, so every loaded module
    of the package is searched for the original object and rebound.
    """
    undo = []
    for module, attr, name in spanned_functions(package):
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith(package):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    undo.append((loaded, key, original))
    return undo


def uninstall(undo: list) -> None:
    for module, key, original in reversed(undo):
        setattr(module, key, original)


# ------------------------------------------------------------------ analysis


def layer_totals(spans: list) -> dict:
    """Per span name: calls, self seconds, own peak-RSS growth (MB) and
    summed counters."""
    charged = [0.0] * len(spans)
    charged_kb = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            charged[parent] += span["close"] - span["start"]
            charged_kb[parent] += span["rss_close_kb"] - span["rss_start_kb"]
    totals: dict = {}
    for i, span in enumerate(spans):
        entry = totals.setdefault(
            span["name"], {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0, "counters": {}}
        )
        entry["calls"] += 1
        entry["self_s"] += (span["end"] - span["start"]) - charged[i]
        entry["rss_growth_mb"] += (span["rss_end_kb"] - span["rss_start_kb"] - charged_kb[i]) / 1024.0
        for key, value in span.get("counters", {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    return totals


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <styluskit arguments>", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    from styluskit import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
