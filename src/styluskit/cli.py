"""Command-line front end for the stylus toolkit.

Subcommands: ``calibrate-position``, ``calibrate-orientation``,
``identify-frame``, ``evaluate``, ``simulate``, ``snapshot``.

Exit codes: 0 success, 2 input/format errors, 3 numerical/geometric
degeneracy, 1 unexpected internal error.  Flag values are checked before
any file is read.  Each library warning (dropped rows, degenerate axes)
prints as one ``warning: <message>`` line on stderr.  Every output is
deterministic: identical inputs and flags produce byte-identical files,
and no report ever contains wall-clock time.

Start-up loads only what a command uses.  At module scope this file
imports the standard library and ``errors`` alone, so ``--help`` and
usage errors never load numpy; each handler imports its own modules when
it runs.  ``dumps_canonical`` and the other ``jsonio`` writers stay
readable as attributes of this module, forwarded to ``jsonio`` on use.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import warnings

from .errors import FormatError, InputError, StylusKitError

TYPE_CHECKING = False  # read as True by type checkers; spares importing typing
if TYPE_CHECKING:
    from . import calib, ingest, synth
    from .geometry import Pose

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _emit(text: str, output: str | None) -> None:
    from .jsonio import write_text

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
    from .geometry import PositionDataset
    from .jsonio import dumps_canonical

    _check_flag("--min-rotation-deg", args.min_rotation_deg, positive=False)
    params = None
    if not args.no_filter:
        params = _filter_params(args.radius, args.min_neighbors, "--radius", "--min-neighbors")
    with open(args.pose_csv, "r", encoding="utf-8") as f:
        recording = ingest.parse_pose_csv(f)
    dataset = PositionDataset(q=recording.q, p=recording.p)
    result = calib.calibrate_position(
        dataset, params, min_rotation=math.radians(args.min_rotation_deg)
    )
    doc = {
        "config": {
            "pose_csv": args.pose_csv,
            "neighborhood_radius": args.radius,
            "min_neighbors": args.min_neighbors,
            "min_rotation_deg": args.min_rotation_deg,
            "filter": not args.no_filter,
        },
        "translation": result.tip_offset.tolist(),
        "pivot": result.pivot.tolist(),
        "position_residual_rms": result.residual_rms,
        "filtered_outliers": result.removed_outliers,
    }
    _emit(dumps_canonical(doc), args.output)
    return EXIT_OK


def _cmd_calibrate_orientation(args) -> int:
    from . import calib, ingest
    from .geometry import HoleRecording, OrientationDataset, vec3
    from .jsonio import dumps_canonical, json_float, json_floats, json_int, read_json

    axis_filter = _filter_params(
        args.axis_radius, args.axis_min_neighbors, "--axis-radius", "--axis-min-neighbors"
    )
    if not math.isfinite(args.initial_roll_deg):
        raise InputError(f"--initial-roll-deg {args.initial_roll_deg}: must be finite")
    manifest = read_json(args.manifest)
    try:
        hole_entries = list(manifest["holes"])
    except (KeyError, TypeError):
        raise FormatError(f"{args.manifest}: manifest needs a 'holes' list") from None
    base = os.path.dirname(os.path.abspath(args.manifest))
    holes = []
    for i, entry in enumerate(hole_entries):
        try:
            axis = entry["reference_axis"]
            recording_path = str(entry["recording"])
        except (KeyError, TypeError):
            raise FormatError(
                f"{args.manifest}: each hole needs 'reference_axis' and 'recording'"
            ) from None
        if not os.path.isabs(recording_path):
            recording_path = os.path.join(base, recording_path)
        with open(recording_path, "r", encoding="utf-8") as f:
            recording = ingest.parse_pose_csv(f)
        try:
            axis = json_floats(axis, "reference_axis")
            holes.append(HoleRecording(axis, q=recording.q, p=recording.p))
        except ValueError as exc:
            raise FormatError(f"{args.manifest}: hole {i}: {exc}") from None
    try:
        dataset = OrientationDataset(holes=holes)
    except ValueError as exc:
        raise FormatError(f"{args.manifest}: {exc}") from None

    position_doc = read_json(args.position)
    try:
        translation = vec3(json_floats(position_doc["translation"], "translation"))
        position_rms = json_float(position_doc["position_residual_rms"], "position_residual_rms")
        position_removed = json_int(position_doc.get("filtered_outliers", 0), "filtered_outliers")
    except (KeyError, TypeError):
        raise FormatError(
            f"{args.position}: expected the JSON written by calibrate-position"
        ) from None
    except ValueError as exc:
        raise FormatError(f"{args.position}: {exc}") from None
    if not (all(map(math.isfinite, translation.tolist())) and 0.0 <= position_rms < math.inf):
        raise FormatError(
            f"{args.position}: translation must be finite, position_residual_rms finite and >= 0"
        )
    if position_removed < 0:
        raise FormatError(f"{args.position}: filtered_outliers must not be negative")

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
    _emit(dumps_canonical(ingest.calibration_to_doc(calibration)), args.output)
    return EXIT_OK


def _cmd_identify_frame(args) -> int:
    from . import framing, ingest
    from .jsonio import dumps_canonical

    waypoint_list = ingest.load_waypoint_list(args.waypoints)
    if len(waypoint_list) < 3:
        raise FormatError(
            f"{args.waypoints}: need at least 3 waypoints, got {len(waypoint_list)}"
        )
    p1, p2, p3 = waypoint_list.waypoints.position[:3]
    frame = framing.identify_frame(p1, p2, p3, label=args.label)
    _emit(dumps_canonical(framing.frame_to_doc(frame)), args.output)
    return EXIT_OK


def _sniff_trace(path: str) -> ingest.DemonstrationTrace:
    """Parse a demo CSV or a pose CSV, told apart by the first non-blank line.

    The head is read through ``ingest._lines`` for its UTF-8 check.
    """
    from . import ingest
    from .geometry import TipTrack

    with open(path, "r", encoding="utf-8") as f:
        head = []
        for _, text in ingest._lines(f):
            head.append(text)
            if text.strip():
                break
        lines = itertools.chain(head, f)
        if head and head[-1].strip() == ingest.DEMO_CSV_HEADER:
            return ingest.parse_demo_csv(lines)
        recording = ingest.parse_pose_csv(lines)
        return ingest.DemonstrationTrace(TipTrack(recording.t, recording.p, recording.q))


def _cmd_evaluate(args) -> int:
    from . import evaluation, framing, ingest
    from .jsonio import dumps_canonical

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
        trace = _sniff_trace(trace_path)
        if not args.in_frame:
            points = framing.to_frame(frame, trace.points)
            trace = ingest.DemonstrationTrace(
                points=points, forces=trace.forces, source=trace.source
            )
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
        os.makedirs(args.out_dir, exist_ok=True)
        written = evaluation.write_report_files(report, args.out_dir)
    summary = {
        "config": config,
        "epsilon_fraction": report.epsilon_fraction,
        "segments": report.segment_labels,
        "spectra": [s.count_above for s in report.spectra],
        "files": written,
    }
    print(dumps_canonical(summary))
    return EXIT_OK


def _config_floats(doc: dict, **defaults: float) -> dict:
    """The config's number fields named in ``defaults``, read by ``json_float`` or defaulted."""
    from .jsonio import json_float

    return {name: json_float(doc.get(name, value), name) for name, value in defaults.items()}


def _pose_from_config(doc: dict) -> Pose:
    from .geometry import EulerAngles, Pose, euler_to_rotation, vec3
    from .jsonio import json_floats

    translation = json_floats(doc.get("true_translation", [0.0] * 3), "true_translation")
    ypr = vec3(json_floats(doc.get("true_rotation_ypr_deg", [0.0] * 3), "true_rotation_ypr_deg"))
    return Pose(euler_to_rotation(EulerAngles(*map(math.radians, ypr.tolist()))), translation)


def _synth_config(doc: dict) -> synth.SynthConfig:
    from . import synth
    from .jsonio import json_floats, json_int

    try:
        degrees = _config_floats(doc, rotation_span_deg=120.0, orientation_noise_std_deg=0.0)
        return synth.SynthConfig(
            true_calibration=_pose_from_config(doc),
            pivot_point=json_floats(doc.get("pivot_point", [0.0] * 3), "pivot_point"),
            sample_count=json_int(doc.get("sample_count", 200), "sample_count"),
            rotation_span=math.radians(degrees["rotation_span_deg"]),
            orientation_noise_std=math.radians(degrees["orientation_noise_std_deg"]),
            seed=json_int(doc.get("seed", 0), "seed"),
            **_config_floats(doc, position_noise_std=0.0, outlier_rate=0.0, outlier_magnitude=0.1),
        )
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"bad synthesis config: {exc}") from None


def _config_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object")
    return value


def _force_profile(doc):
    from . import synth

    kind = _config_object(doc, "force_profile").get("kind", "constant")
    if kind == "constant":
        return synth.ConstantForce(**_config_floats(doc, value=1.0))
    if kind == "sine":
        return synth.SineForce(**_config_floats(doc, frequency_hz=1.0, amplitude=1.0, offset=0.0))
    raise FormatError(f"unknown force profile kind {kind!r}")


def _recording(dataset) -> ingest.PoseRecording:
    """The poses of a synthetic dataset as a recording sampled at 100 Hz."""
    import numpy as np

    from . import ingest

    return ingest.PoseRecording(
        "world", t=np.arange(len(dataset)) / 100.0, q=dataset.q, p=dataset.p
    )


def _cmd_simulate(args) -> int:
    from . import ingest, synth
    from .jsonio import dumps_canonical, json_floats, json_int, open_output, read_json, write_json

    doc = _config_object(read_json(args.config), f"{args.config}: synthesis config")
    kind = doc.get("kind")
    os.makedirs(args.out_dir, exist_ok=True)
    written: list[str] = []

    def _path(name: str) -> str:
        written.append(name)
        return os.path.join(args.out_dir, name)

    if kind == "position":
        cfg = _synth_config(doc)
        try:
            dataset, truth = synth.gen_position_dataset(cfg)
        except ValueError as exc:
            raise FormatError(f"bad synthesis config: {exc}") from None
        with open_output(_path("poses.csv")) as f:
            ingest.write_pose_csv(_recording(dataset), f)
        write_json(
            _path("truth.json"),
            {
                "config": doc,
                "tip_offset": truth.tip_offset.tolist(),
                "pivot_point": truth.pivot_point.tolist(),
                "outlier_indices": truth.outlier_indices.tolist(),
                "outlier_count": int(truth.outlier_indices.size),
            },
        )
    elif kind == "orientation":
        cfg = _synth_config(doc)
        axes = doc.get("hole_axes")
        if not axes:
            raise FormatError("orientation config needs 'hole_axes'")
        try:
            poses_per_hole = json_int(doc.get("poses_per_hole", 50), "poses_per_hole")
            axes = json_floats(axes, "hole_axes")
            dataset, truth = synth.gen_orientation_dataset(cfg, axes, poses_per_hole)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"bad synthesis config: {exc}") from None
        manifest = {"holes": []}
        for i, hole in enumerate(dataset.holes):
            name = f"hole_{i:02d}.csv"
            with open_output(_path(name)) as f:
                ingest.write_pose_csv(_recording(hole), f)
            manifest["holes"].append(
                {"reference_axis": hole.reference_axis.tolist(), "recording": name}
            )
        write_json(_path("manifest.json"), manifest)
        write_json(
            _path("truth.json"),
            {
                "config": doc,
                "rotation_quat": truth.rotation.tolist(),
                "hole_axes": truth.hole_axes.tolist(),
            },
        )
    elif kind == "demonstration":
        try:
            path = ingest.path_from_doc(doc["path"])
        except KeyError:
            raise FormatError("demonstration config needs 'path'") from None
        try:
            trace = synth.gen_demonstration(
                path,
                **_config_floats(doc, lateral_noise_std=0.0, speed=0.05, sample_rate=200.0),
                force_profile=_force_profile(doc.get("force_profile", {})),
                seed=json_int(doc.get("seed", 0), "seed"),
            )
        except ValueError as exc:
            raise FormatError(f"bad demonstration config: {exc}") from None
        with open_output(_path("trace.csv")) as f:
            ingest.write_demo_csv(trace, f)
        ingest.save_path(path, _path("path.json"))
        write_json(
            _path("truth.json"),
            {"config": doc, "sample_count": len(trace)},
        )
    else:
        raise FormatError(f"unknown simulation kind {kind!r}")

    print(dumps_canonical({"out_dir": args.out_dir, "files": written}))
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    from . import ingest
    from .jsonio import dumps_canonical

    _check_flag("--guard", args.guard, positive=False)
    with open(args.pose_csv, "r", encoding="utf-8") as f:
        recording = ingest.parse_pose_csv(f)
    calibration = ingest.load_calibration(args.calibration)
    tips = ingest.apply_calibration(recording, calibration)
    with open(args.events, "r", encoding="utf-8") as f:
        events, skipped = ingest.parse_pen_events(f)
    if skipped:
        print(f"warning: skipped {skipped} unrecognized event lines", file=sys.stderr)
    waypoints = ingest.snapshot_waypoints(tips, events, guard=args.guard)
    _emit(dumps_canonical(ingest.waypoint_list_to_doc(waypoints)), args.output)
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
