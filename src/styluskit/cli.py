"""Command-line front end for the stylus toolkit.

Subcommands: ``calibrate-position``, ``calibrate-orientation``,
``identify-frame``, ``evaluate``, ``simulate``, ``snapshot``.

Exit codes: 0 success, 2 input/format errors, 3 numerical/geometric
degeneracy, 1 unexpected internal error.  Flag values are checked before
any file is read.  An output number that would be ±inf, which no reader
accepts, exits 2 before the output is written, as does a failed write or
final flush.  Each library warning (dropped rows, degenerate axes)
prints as one ``warning: <message>`` line on stderr.  Every output is
deterministic: identical inputs and flags produce byte-identical files,
and no report ever contains wall-clock time.

``main`` returns the exit code, for tests and in-process callers.
``entrypoint``, the ``styluskit`` console script and ``python -m
styluskit.cli``, ends the process without the interpreter's teardown, once
the ``atexit`` handlers have run and stdout and stderr are flushed.

A handler checks its flags, calls a loader of ``ingest``, ``framing`` or
``synth`` per input file, runs the solver or generator, and writes.  At
module scope this file imports the standard library and ``errors`` alone,
so ``--help`` and usage errors never load numpy.  ``dumps_canonical`` and
the other ``jsonio`` writers stay readable as attributes of this module,
forwarded to ``jsonio`` on use.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import sys
import warnings

from .errors import FormatError, InputError, StylusKitError

TYPE_CHECKING = False  # read as True by type checkers; spares importing typing
if TYPE_CHECKING:
    from . import calib

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

_JSONIO_NAMES = ("dumps_canonical", "open_output", "read_json", "write_json", "write_text")


def __getattr__(name: str):
    if name in _JSONIO_NAMES:
        from . import jsonio

        return getattr(jsonio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose help text, when it cannot be written,
    raises the ``OSError`` that argparse would swallow before exiting 0."""

    def print_help(self, file=None):
        # argparse's fallbacks: stderr when stdout was closed at start-up, else nothing.
        file = file or sys.stdout or sys.stderr
        if file is not None:
            file.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="styluskit",
        description="Tip calibration and demonstration evaluation for tracked styluses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "calibrate-position",
        help="recover the tip offset from a pivot recording",
        formatter_class=fmt,
    )
    p.add_argument("pose_csv", help="pose CSV recorded while the tip pivots on a fixed point")
    p.add_argument("--radius", type=float, default=0.005, help="outlier filter neighborhood radius (m)")
    p.add_argument("--min-neighbors", type=int, default=10, help="outlier filter minimum neighbors")
    p.add_argument("--min-rotation-deg", type=float, default=30.0, help="required rotation diversity (deg)")
    p.add_argument("--no-filter", action="store_true", help="skip outlier filtering")
    p.add_argument("-o", "--output", default=None, help="also write the result JSON here")
    p.set_defaults(handler=_cmd_calibrate_position)

    p = sub.add_parser(
        "calibrate-orientation",
        help="recover the tip rotation from hole recordings and write the calibration file",
        formatter_class=fmt,
    )
    p.add_argument("manifest", help="JSON manifest listing each hole's reference axis and recording")
    p.add_argument("--position", required=True, help="output JSON of calibrate-position")
    p.add_argument("--axis-radius", type=float, default=0.02, help="axis outlier filter radius")
    p.add_argument("--axis-min-neighbors", type=int, default=3, help="axis outlier filter minimum neighbors")
    p.add_argument("--initial-roll-deg", type=float, default=0.0, help="roll about the recovered tip axis (deg)")
    p.add_argument("-o", "--output", default=None, help="also write the calibration JSON here")
    p.set_defaults(handler=_cmd_calibrate_orientation)

    p = sub.add_parser(
        "identify-frame",
        help="build a drawing frame from three probed waypoints",
        formatter_class=fmt,
    )
    p.add_argument("waypoints", help="waypoint list JSON holding the x point, origin, and y point")
    p.add_argument("--label", default="frame", help="frame label")
    p.add_argument("-o", "--output", default=None, help="also write the frame JSON here")
    p.set_defaults(handler=_cmd_identify_frame)

    p = sub.add_parser(
        "evaluate",
        help="evaluate demonstration traces against an ideal waypoint path",
        formatter_class=fmt,
    )
    p.add_argument("traces", nargs="+", help="trace files (pose CSV or t,x,y,z,Fz CSV)")
    p.add_argument("--frame", required=True, help="drawing frame JSON")
    p.add_argument("--path", required=True, help="ideal path JSON")
    p.add_argument("--n", type=int, default=100, help="resampling targets per segment")
    p.add_argument("--epsilon", type=float, default=0.003, help="epsilon zone half-width (m)")
    p.add_argument("--bin-width", type=float, default=0.001, help="histogram bin width (m)")
    p.add_argument("--threshold-ratio", type=float, default=0.05, help="spectrum peak threshold ratio")
    p.add_argument("--gate", type=float, default=0.02, help="waypoint reach gate (m)")
    p.add_argument("--in-frame", action="store_true", help="traces are already in the drawing frame")
    p.add_argument("--out-dir", default=None, help="directory for report.json and plot CSVs")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser(
        "simulate",
        help="generate seeded synthetic datasets with ground truth",
        formatter_class=fmt,
    )
    p.add_argument("config", help="synthesis config JSON")
    p.add_argument("--out-dir", required=True, help="directory for the generated files")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "snapshot",
        help="capture waypoints at button presses",
        formatter_class=fmt,
    )
    p.add_argument("pose_csv", help="pose CSV of the fiducial centroid")
    p.add_argument("events", help="pen event file")
    p.add_argument("--calibration", required=True, help="tip calibration JSON")
    p.add_argument("--guard", type=float, default=0.1, help="allowed slack outside the recording span (s)")
    p.add_argument("-o", "--output", default=None, help="also write the waypoint list JSON here")
    p.set_defaults(handler=_cmd_snapshot)

    return parser


def _emit(doc, output: str | None = None) -> None:
    """Print ``doc`` as canonical JSON, and also write it to ``output`` if given;
    an infinity in it raises first (:class:`~styluskit.errors.NonFiniteOutput`)."""
    from .jsonio import dumps_canonical, refuse_inf, write_text

    refuse_inf(doc)
    text = dumps_canonical(doc)
    print(text)
    if output:
        write_text(output, text)


def _filter_params(radius, min_neighbors, radius_flag, count_flag) -> calib.FilterParams:
    from .calib import FilterParams

    try:
        return FilterParams(radius, min_neighbors)
    except ValueError as exc:
        raise InputError(
            f"{radius_flag} {radius} / {count_flag} {min_neighbors}: {exc}"
        ) from None


def _check_flag(flag: str, value: float, positive: bool = True) -> None:
    """Reject a non-finite flag value, or one <= 0 (``positive``) or < 0."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        rule = "positive" if positive else "non-negative"
        raise InputError(f"{flag} {value}: must be finite and {rule}")


def _cmd_calibrate_position(args) -> int:
    from . import calib, ingest

    _check_flag("--min-rotation-deg", args.min_rotation_deg, positive=False)
    # Checked with --no-filter too: the position file echoes both flags.
    params = _filter_params(args.radius, args.min_neighbors, "--radius", "--min-neighbors")
    recording = ingest.load_pose_csv(args.pose_csv)
    result = calib.calibrate_position(
        recording,
        None if args.no_filter else params,
        min_rotation=math.radians(args.min_rotation_deg),
    )
    config = {
        "pose_csv": args.pose_csv,
        "neighborhood_radius": args.radius,
        "min_neighbors": args.min_neighbors,
        "min_rotation_deg": args.min_rotation_deg,
        "filter": not args.no_filter,
    }
    _emit(ingest.position_to_doc(result, config), args.output)
    return EXIT_OK


def _cmd_calibrate_orientation(args) -> int:
    from . import calib, ingest

    axis_filter = _filter_params(
        args.axis_radius, args.axis_min_neighbors, "--axis-radius", "--axis-min-neighbors"
    )
    if not math.isfinite(args.initial_roll_deg):
        raise InputError(f"--initial-roll-deg {args.initial_roll_deg}: must be finite")
    dataset = ingest.load_manifest(args.manifest)
    translation, position_rms, position_removed = ingest.load_position(args.position)
    orientation = calib.calibrate_orientation(
        dataset,
        translation,
        axis_filter=axis_filter,
        initial_roll=math.radians(args.initial_roll_deg),
    )
    calibration = calib.assemble_calibration(
        translation,
        orientation.rotation,
        position_rms,
        orientation.residual_rms,
        position_removed + orientation.removed_outliers,
    )
    _emit(ingest.calibration_to_doc(calibration), args.output)
    return EXIT_OK


def _cmd_identify_frame(args) -> int:
    from . import framing, ingest

    waypoint_list = ingest.load_waypoint_list(args.waypoints)
    if len(waypoint_list) < 3:
        raise FormatError(
            f"{args.waypoints}: need at least 3 waypoints, got {len(waypoint_list)}"
        )
    p1, p2, p3 = waypoint_list.waypoints.position[:3]
    frame = framing.identify_frame(p1, p2, p3, label=args.label)
    _emit(framing.frame_to_doc(frame), args.output)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from . import evaluation, framing, ingest
    from .jsonio import refuse_inf

    most = evaluation.MAX_TARGETS_PER_SEGMENT
    if not 2 <= args.n <= most:
        raise InputError(f"--n {args.n}: need 2 to {most} targets per segment")
    _check_flag("--epsilon", args.epsilon)
    _check_flag("--bin-width", args.bin_width)
    _check_flag("--gate", args.gate)
    _check_flag("--threshold-ratio", args.threshold_ratio, positive=False)
    frame = framing.load_frame(args.frame)
    path = ingest.load_path(args.path)
    traces = []
    for trace_path in sorted(args.traces):
        trace = ingest.load_trace(trace_path)
        if not args.in_frame:
            points = framing.to_frame(frame, trace.points)
            trace = ingest.DemonstrationTrace(points, trace.forces, trace.source)
        traces.append(trace)

    config = {
        "traces": sorted(args.traces),
        "frame": args.frame,
        "path": args.path,
        "n": args.n,
        "epsilon": args.epsilon,
        "bin_width": args.bin_width,
        "threshold_ratio": args.threshold_ratio,
        "gate": args.gate,
        "in_frame": bool(args.in_frame),
    }
    report = evaluation.evaluate_demonstrations(
        traces,
        path,
        n=args.n,
        epsilon=args.epsilon,
        bin_width=args.bin_width,
        threshold_ratio=args.threshold_ratio,
        gate=args.gate,
        config=config,
    )
    written = []
    if args.out_dir:
        # report.json holds every number the CSVs do, bar frequencies below the sample rate.
        refuse_inf(evaluation.report_to_doc(report))
        os.makedirs(args.out_dir, exist_ok=True)
        written = evaluation.write_report_files(report, args.out_dir)
    summary = {
        "config": config,
        "epsilon_fraction": report.epsilon_fraction,
        "segments": report.segment_labels,
        "spectra": [s.count_above for s in report.spectra],
        "files": written,
    }
    _emit(summary)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    import numpy as np

    from . import ingest, synth
    from .jsonio import dumps_canonical, open_output, refuse_inf, write_json, write_text

    doc = synth.load_config(args.config)
    kind = doc.get("kind")
    os.makedirs(args.out_dir, exist_ok=True)
    written: list[str] = []

    def _path(name: str) -> str:
        written.append(name)
        return os.path.join(args.out_dir, name)

    def _write_poses(name: str, rows) -> None:
        """The poses of a synthetic dataset as a pose CSV sampled at 100 Hz."""
        t = np.arange(len(rows)) / 100.0
        with open_output(_path(name)) as f:
            ingest.write_pose_csv(ingest.PoseRecording("world", t=t, q=rows.q, p=rows.p), f)

    def _truth(**fields) -> str:
        """The text of truth.json, rendered before any file is written: the
        config it echoes may hold an infinity, which raises here.  The
        manifest and path documents hold only numbers derived from it."""
        truth = {"config": doc, **fields}
        refuse_inf(truth)
        return dumps_canonical(truth)

    if kind == "position":
        cfg = synth.synth_config_from_doc(doc)
        with synth.config_errors("synthesis"):
            dataset, truth = synth.gen_position_dataset(cfg)
        truth_text = _truth(
            tip_offset=truth.tip_offset.tolist(),
            pivot_point=truth.pivot_point.tolist(),
            outlier_indices=truth.outlier_indices.tolist(),
            outlier_count=int(truth.outlier_indices.size),
        )
        _write_poses("poses.csv", dataset)
    elif kind == "orientation":
        cfg, axes, poses_per_hole = synth.orientation_config_from_doc(doc)
        with synth.config_errors("synthesis"):
            dataset, truth = synth.gen_orientation_dataset(cfg, axes, poses_per_hole)
        truth_text = _truth(
            rotation_quat=truth.rotation.tolist(), hole_axes=truth.hole_axes.tolist()
        )
        names = [f"hole_{i:02d}.csv" for i in range(len(dataset.holes))]
        for name, hole in zip(names, dataset.holes):
            _write_poses(name, hole)
        write_json(_path("manifest.json"), ingest.manifest_to_doc(dataset, names))
    elif kind == "demonstration":
        path, params = synth.demonstration_from_doc(doc)
        with synth.config_errors("demonstration"):
            trace = synth.gen_demonstration(path, **params)
        truth_text = _truth(sample_count=len(trace))
        with open_output(_path("trace.csv")) as f:
            ingest.write_demo_csv(trace, f)
        write_json(_path("path.json"), ingest.path_to_doc(path))
    else:
        raise FormatError(f"unknown simulation kind {kind!r}")
    write_text(_path("truth.json"), truth_text)

    _emit({"out_dir": args.out_dir, "files": written})
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    from . import ingest

    _check_flag("--guard", args.guard, positive=False)
    recording = ingest.load_pose_csv(args.pose_csv)
    calibration = ingest.load_calibration(args.calibration)
    tips = ingest.apply_calibration(recording, calibration)
    events, skipped = ingest.load_pen_events(args.events)
    if skipped:
        print(f"warning: skipped {skipped} unrecognized event lines", file=sys.stderr)
    waypoints = ingest.snapshot_waypoints(tips, events, guard=args.guard)
    _emit(ingest.waypoint_list_to_doc(waypoints), args.output)
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except OSError as exc:  # the help text could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except StylusKitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except Exception:
            import traceback

            traceback.print_exc()
            return EXIT_INTERNAL


def entrypoint() -> None:
    """Run :func:`main` as the ``styluskit`` process and exit with its code.

    Once ``main`` returns, or argparse exits (``--help``, a usage error),
    the ``atexit`` handlers run and stdout and stderr are flushed, in
    CPython's own shutdown order; ``os._exit`` then skips the interpreter's
    teardown.  Every file the package opens is closed by a ``with`` block,
    so none is left to a finalizer.  A failed flush (a full disk, a pipe
    whose reader is gone) is an output error like any other: one ``error:``
    line and exit 2.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's exit, always with an int status
        code = exc.code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start-up
                stream.flush()
    except OSError as exc:
        code = EXIT_INPUT
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr itself is what failed
            pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
