"""Seeded inputs, command sequences and output checks for each workload.

Every workload is a fixed sequence of real ``styluskit`` commands run the
way a user runs them.  The inputs come from this module's own generator
(``numpy.random.default_rng`` seeded from the workload seed); the program
under test only ever sees the generated files.  Each command carries a
check that compares its outputs with the generator's ground truth
against tolerances, never against pinned digests, so a later change that
moves trailing digits still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EZ = np.array([0.0, 0.0, 1.0])
POSE_HEADER = "t,x,y,z,qx,qy,qz,qw"
DEMO_HEADER = "t,x,y,z,Fz"

# Sizes follow the calibration baseline and real sessions at 100-240 Hz.
PIVOT_POSES = 4000
HOLES = 3
POSES_PER_HOLE = 1333
WAYPOINT_POSES = 12000
WAYPOINT_VISITS = 8
DEMOS_PER_KIND = 3
DEMO_RATE_HZ = 200.0
SIM_POSITION_POSES = 20000
SIM_DEMOS = 3

POSITION_NOISE_M = 1e-4
OUTLIER_RATE = 0.05
OUTLIER_MAGNITUDE_M = 0.1
ROTATION_SPAN_DEG = 120.0

TIP_TOLERANCE_M = 1e-3
AXIS_TOLERANCE_DEG = 1.0

# Ideal drawing path in frame coordinates: a 16 x 12 cm rectangle visited
# once around.  The same path for every seed keeps the sample count fixed.
PATH_WAYPOINTS = [[0.04, 0.03], [0.20, 0.03], [0.20, 0.15], [0.04, 0.15]]
PATH_SEQUENCE = [0, 1, 2, 3, 0]
DEMO_SPEED = 0.056


# ---------------------------------------------------------------- quaternions
# (qx, qy, qz, qw), Hamilton, batched over the leading axis.


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ax, ay, az, aw = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bx, by, bz, bw = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
            aw * bw - ax * bx - ay * by - az * bz,
        ],
        axis=-1,
    )


def qconj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * np.array([-1.0, -1.0, -1.0, 1.0])


def qrot(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    u, w = q[..., :3], q[..., 3:4]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


def axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([axis * np.sin(half), np.cos(half)], axis=-1)


def align(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimal rotation taking unit ``u`` onto unit ``v`` (not antiparallel)."""
    c = np.cross(u, v)
    s = float(np.linalg.norm(c))
    if s < 1e-12:
        return np.array([0.0, 0.0, 0.0, 1.0])
    return axis_angle(c, math.atan2(s, float(u @ v)))


def canonical(q: np.ndarray) -> np.ndarray:
    return np.where(q[..., 3:4] < 0.0, -q, q)


def quat_angle_deg(a, b) -> float:
    d = abs(float(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return math.degrees(2.0 * math.acos(min(1.0, d)))


def random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------- file output


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_rows(path: str, header: str, rows: np.ndarray) -> int:
    lines = [header]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows.tolist())
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")
    return rows.shape[0]


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def read_rows(path: str, width: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != width:
        raise ValueError(f"{path}: expected {width} columns, got {data.shape[1]}")
    return data


def tree_sha256(root: str) -> str:
    """Digest of every file under ``root``: relative path and bytes, sorted."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode("utf-8") + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- plan types

Check = Callable[[str, str], list]
"""``check(work_dir, stdout) -> list of failure messages``."""


@dataclass
class Command:
    label: str
    argv: list
    outputs: list
    check: Check
    measure: Callable[[str], dict] | None = None
    """``measure(work_dir)``: accuracy metrics read from passing outputs."""


@dataclass
class Plan:
    workload: str
    commands: list
    records: int
    truth: dict = field(default_factory=dict)
    inputs_sha256: str = ""


def _cal_doc(translation, quat) -> dict:
    return {
        "translation": [float(x) for x in translation],
        "rotation_quat": [float(x) for x in quat],
        "position_residual_rms": 0.0,
        "orientation_residual_rms": 0.0,
        "filtered_outliers": 0,
    }


def _random_tip(rng: np.random.Generator) -> np.ndarray:
    return np.array(
        [rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01), rng.uniform(0.12, 0.18)]
    )


def _small_rotation(rng: np.random.Generator, lo_deg: float, hi_deg: float) -> np.ndarray:
    return canonical(
        axis_angle(random_units(rng, 1)[0], math.radians(rng.uniform(lo_deg, hi_deg)))
    )


# ---------------------------------------------------------------- calibrate


def pivot_poses(rng, n, tip, pivot, noise, outlier_rate, span_deg):
    """Fiducial poses of a stylus pivoting with its tip on ``pivot``."""
    half = math.radians(span_deg) / 2.0
    q = canonical(axis_angle(random_units(rng, n), rng.uniform(-half, half, n)))
    t = pivot - qrot(q, tip) + rng.normal(0.0, noise, (n, 3))
    outliers = np.sort(rng.choice(n, size=int(round(outlier_rate * n)), replace=False))
    t[outliers] += OUTLIER_MAGNITUDE_M * random_units(rng, outliers.size)
    return q, t, outliers


def hole_poses(rng, n, axis, hole_position, tip, tip_rotation, noise_deg, outlier_rate):
    """Fiducial poses of a stylus spinning with its tip axis on ``axis``."""
    spins = rng.uniform(0.0, 2.0 * math.pi, n)
    tip_frame = qmul(align(EZ, axis), axis_angle(np.tile(EZ, (n, 1)), spins))
    body = qmul(tip_frame, qconj(tip_rotation))
    jitter = np.radians(rng.normal(0.0, noise_deg, n))
    bad = rng.random(n) < outlier_rate
    jitter[bad] = np.radians(rng.uniform(20.0, 40.0, int(bad.sum())))
    body = canonical(qmul(axis_angle(random_units(rng, n), jitter), body))
    t = hole_position - qrot(body, tip) + rng.normal(0.0, POSITION_NOISE_M, (n, 3))
    return body, t


def _pose_rows(times, q, t) -> np.ndarray:
    return np.column_stack([times, t, q])


def make_calibrate(
    seed: int, work: str, pivot_count: int = PIVOT_POSES, hole_count: int = POSES_PER_HOLE
) -> Plan:
    rng = np.random.default_rng([seed, 1])
    inputs = os.path.join(work, "inputs")
    os.makedirs(os.path.join(inputs, "holes"))
    tip = _random_tip(rng)
    pivot = rng.uniform(-0.2, 0.2, 3)
    q, t, _ = pivot_poses(
        rng, pivot_count, tip, pivot, POSITION_NOISE_M, OUTLIER_RATE, ROTATION_SPAN_DEG
    )
    records = write_rows(
        os.path.join(inputs, "pivot.csv"), POSE_HEADER,
        _pose_rows(np.arange(pivot_count) / 120.0, q, t),
    )

    tip_rotation = _small_rotation(rng, 10.0, 25.0)
    axes = [
        EZ,
        qrot(axis_angle([1.0, 0.0, 0.0], math.radians(rng.uniform(30.0, 40.0))), EZ),
        qrot(axis_angle([0.0, 1.0, 0.0], math.radians(rng.uniform(30.0, 40.0))), EZ),
    ]
    manifest = {"holes": []}
    for i, axis in enumerate(axes[:HOLES]):
        body, bt = hole_poses(
            rng, hole_count, axis, np.array([0.1 * i, 0.0, 0.0]), tip,
            tip_rotation, 0.2, OUTLIER_RATE,
        )
        name = f"hole_{i:02d}.csv"
        records += write_rows(
            os.path.join(inputs, "holes", name), POSE_HEADER,
            _pose_rows(np.arange(hole_count) / 120.0, body, bt),
        )
        manifest["holes"].append({"reference_axis": axis.tolist(), "recording": name})
    write_json(os.path.join(inputs, "holes", "manifest.json"), manifest)

    truth_axis = qrot(tip_rotation, EZ)

    def check_position(work_dir: str, stdout: str) -> list:
        doc = read_json(os.path.join(work_dir, "out", "position.json"))
        if json.loads(stdout) != doc:
            return ["calibrate-position: stdout differs from the -o file"]
        return check_tip(doc, tip, pivot)

    def check_orientation(work_dir: str, stdout: str) -> list:
        doc = read_json(os.path.join(work_dir, "out", "calibration.json"))
        if json.loads(stdout) != doc:
            return ["calibrate-orientation: stdout differs from the -o file"]
        position = read_json(os.path.join(work_dir, "out", "position.json"))
        failures = check_axis(doc, truth_axis)
        if doc["translation"] != position["translation"]:
            failures.append("calibrate-orientation: translation not carried over")
        return failures

    return Plan(
        workload="calibrate",
        commands=[
            Command(
                "calibrate-position",
                ["calibrate-position", "inputs/pivot.csv", "-o", "out/position.json"],
                ["out/position.json"],
                check_position,
                lambda work_dir: {"tip_error_mm": tip_error_mm(
                    read_json(os.path.join(work_dir, "out", "position.json")), tip)},
            ),
            Command(
                "calibrate-orientation",
                ["calibrate-orientation", "inputs/holes/manifest.json",
                 "--position", "out/position.json", "-o", "out/calibration.json"],
                ["out/calibration.json"],
                check_orientation,
                lambda work_dir: {"axis_error_deg": axis_error_deg(
                    read_json(os.path.join(work_dir, "out", "calibration.json")), truth_axis)},
            ),
        ],
        records=records,
        truth={"tip": tip, "pivot": pivot, "axis": truth_axis},
    )


def tip_error_mm(doc: dict, tip) -> float:
    return 1e3 * float(np.linalg.norm(np.asarray(doc["translation"]) - tip))


def axis_error_deg(doc: dict, axis) -> float:
    found = qrot(np.asarray(doc["rotation_quat"], dtype=float), EZ)
    c = float(np.clip(found @ axis / np.linalg.norm(found), -1.0, 1.0))
    return math.degrees(math.acos(c))


def check_tip(doc: dict, tip, pivot) -> list:
    failures = []
    err = tip_error_mm(doc, tip)
    if not err < TIP_TOLERANCE_M * 1e3:
        failures.append(f"calibrate-position: tip error {err:.4f} mm >= 1 mm")
    pivot_err = 1e3 * float(np.linalg.norm(np.asarray(doc["pivot"]) - pivot))
    if not pivot_err < TIP_TOLERANCE_M * 1e3:
        failures.append(f"calibrate-position: pivot error {pivot_err:.4f} mm >= 1 mm")
    return failures


def check_axis(doc: dict, axis) -> list:
    err = axis_error_deg(doc, axis)
    if not err < AXIS_TOLERANCE_DEG:
        return [f"calibrate-orientation: axis error {err:.4f} deg >= 1 deg"]
    return []


# ---------------------------------------------------------------- session


def _frame_rotation(rng) -> np.ndarray:
    yaw = axis_angle(EZ, rng.uniform(0.0, 2.0 * math.pi))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    tilt_axis = np.array([math.cos(phi), math.sin(phi), 0.0])
    return canonical(qmul(axis_angle(tilt_axis, math.radians(rng.uniform(0.0, 20.0))), yaw))


def _smoothstep(s: np.ndarray) -> np.ndarray:
    return s * s * (3.0 - 2.0 * s)


def waypoint_recording(rng, n, frame_q, origin, points_frame, cal_t, cal_q):
    """Fiducial poses of a stylus visiting ``points_frame`` and resting on
    each, plus the press time of each visit."""
    rate = 120.0
    per = n // len(points_frame)
    move = int(per * 0.6)
    positions = np.empty((n, 3))
    presses = []
    prev = points_frame[0] + np.array([0.0, 0.0, 0.05])
    for k, target in enumerate(points_frame):
        lo = k * per
        hi = n if k == len(points_frame) - 1 else lo + per
        s = _smoothstep(np.linspace(0.0, 1.0, move))[:, None]
        lift = 0.03 * np.sin(np.pi * s)
        positions[lo:lo + move] = prev + s * (target - prev) + lift * EZ
        positions[lo + move:hi] = target
        presses.append((lo + move + (hi - lo - move) // 2) / rate)
        prev = target
    times = np.arange(n) / rate
    world = origin + qrot(np.tile(frame_q, (n, 1)), positions)
    wobble = 0.3 + 0.1 * np.sin(0.7 * times)
    tip_q = qmul(frame_q, axis_angle(np.tile(random_units(rng, 1)[0], (n, 1)), wobble))
    body = canonical(qmul(tip_q, qconj(cal_q)))
    t = world - qrot(body, cal_t) + rng.normal(0.0, 0.5 * POSITION_NOISE_M, (n, 3))
    return times, body, t, presses


def event_lines(rng, presses) -> list:
    lines = ["# pen log", "EVT 0.0 PWR 1", "HEARTBEAT 1"]
    for k, t in enumerate(presses):
        lines.append(f"EVT {t:.4f} BTN 1")
        if k % 3 == 1:
            lines.append(f"EVT {t + 0.05:.4f} BTN 7")
            lines.append("garbage")
        lines.append(f"EVT {t + 0.2:.4f} BTN 0")
        if k % 4 == 2:
            lines.append(f"EVT {t + 0.3:.4f} LED {int(rng.integers(0, 4))}")
    lines.append("EVT")
    return lines


def demo_samples(rng, speed, rate, lateral_std):
    """Frame-coordinate samples along the ideal path at constant speed."""
    vertices = np.asarray(PATH_WAYPOINTS)[PATH_SEQUENCE]
    deltas = np.diff(vertices, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
    step = speed / rate
    arcs = np.unique(np.concatenate([np.arange(0.0, cumulative[-1], step), cumulative]))
    seg = np.clip(np.searchsorted(cumulative, arcs, side="right") - 1, 0, len(lengths) - 1)
    local = (arcs - cumulative[seg]) / lengths[seg]
    xy = vertices[seg] + local[:, None] * deltas[seg]
    normals = np.column_stack([-deltas[:, 1], deltas[:, 0]]) / lengths[:, None]
    xy = xy + rng.normal(0.0, lateral_std, arcs.size)[:, None] * normals[seg]
    z = rng.normal(0.0, 0.2 * lateral_std, arcs.size)
    return arcs / speed, np.column_stack([xy, z])


def make_session(
    seed: int, work: str, waypoint_count: int = WAYPOINT_POSES, demo_speed: float = DEMO_SPEED
) -> Plan:
    rng = np.random.default_rng([seed, 2])
    inputs = os.path.join(work, "inputs")
    os.makedirs(os.path.join(inputs, "demos"))
    cal_t = _random_tip(rng)
    cal_q = _small_rotation(rng, 5.0, 20.0)
    write_json(os.path.join(inputs, "calibration.json"), _cal_doc(cal_t, cal_q))

    frame_q = _frame_rotation(rng)
    origin = rng.uniform(-0.3, 0.3, 3)
    probes = np.array([[0.30, 0.0, 0.0], [0.0, 0.0, 0.0], [0.02, 0.25, 0.0]])
    extra = np.column_stack(
        [rng.uniform(0.03, 0.25, WAYPOINT_VISITS - 3), rng.uniform(0.03, 0.2, WAYPOINT_VISITS - 3),
         np.zeros(WAYPOINT_VISITS - 3)]
    )
    points_frame = np.vstack([probes, extra])
    times, body, t, presses = waypoint_recording(
        rng, waypoint_count, frame_q, origin, points_frame, cal_t, cal_q
    )
    records = write_rows(
        os.path.join(inputs, "waypoints.csv"), POSE_HEADER, _pose_rows(times, body, t)
    )
    lines = event_lines(rng, presses)
    with open(os.path.join(inputs, "events.txt"), "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")
    records += len(lines)
    write_json(
        os.path.join(inputs, "path.json"),
        {"waypoints": PATH_WAYPOINTS, "visiting_sequence": PATH_SEQUENCE},
    )

    frequencies = []
    for kind in ("demo", "pose"):
        for i in range(DEMOS_PER_KIND):
            ts, local = demo_samples(rng, demo_speed, DEMO_RATE_HZ, 5e-4)
            world = origin + qrot(np.tile(frame_q, (ts.size, 1)), local)
            path = os.path.join(inputs, "demos", f"{kind}_{i:02d}.csv")
            if kind == "demo":
                f_hz = float(rng.uniform(2.0, 8.0))
                frequencies.append(f_hz)
                force = 4.0 + 1.5 * np.sin(2.0 * math.pi * f_hz * ts)
                records += write_rows(path, DEMO_HEADER, np.column_stack([ts, world, force]))
            else:
                q = np.tile(canonical(qmul(frame_q, _small_rotation(rng, 5.0, 15.0))), (ts.size, 1))
                records += write_rows(path, POSE_HEADER, _pose_rows(ts, q, world))
    probes_world = origin + qrot(np.tile(frame_q, (len(points_frame), 1)), points_frame)
    demo_names = sorted(os.listdir(os.path.join(inputs, "demos")))

    def check_snapshot(work_dir: str, stdout: str) -> list:
        doc = read_json(os.path.join(work_dir, "out", "waypoints.json"))
        if json.loads(stdout) != doc:
            return ["snapshot: stdout differs from the -o file"]
        found = np.array([w["position"] for w in doc["waypoints"]]).reshape(-1, 3)
        if found.shape != probes_world.shape:
            return [f"snapshot: {found.shape[0]} waypoints, expected {probes_world.shape[0]}"]
        err = 1e3 * float(np.max(np.linalg.norm(found - probes_world, axis=1)))
        if not err < TIP_TOLERANCE_M * 1e3:
            return [f"snapshot: waypoint {err:.4f} mm off its probed point"]
        return []

    def check_frame(work_dir: str, stdout: str) -> list:
        doc = read_json(os.path.join(work_dir, "out", "frame.json"))
        failures = []
        err = 1e3 * float(np.linalg.norm(np.asarray(doc["translation"]) - origin))
        if not err < TIP_TOLERANCE_M * 1e3:
            failures.append(f"identify-frame: origin {err:.4f} mm off")
        ang = quat_angle_deg(doc["rotation_quat"], frame_q)
        if not ang < AXIS_TOLERANCE_DEG:
            failures.append(f"identify-frame: rotation {ang:.4f} deg off")
        return failures

    def check_evaluate(work_dir: str, stdout: str) -> list:
        return check_report(work_dir, json.loads(stdout), frequencies, len(demo_names))

    return Plan(
        workload="session",
        commands=[
            Command(
                "snapshot",
                ["snapshot", "inputs/waypoints.csv", "inputs/events.txt",
                 "--calibration", "inputs/calibration.json", "-o", "out/waypoints.json"],
                ["out/waypoints.json"],
                check_snapshot,
            ),
            Command(
                "identify-frame",
                ["identify-frame", "out/waypoints.json", "-o", "out/frame.json"],
                ["out/frame.json"],
                check_frame,
            ),
            Command(
                "evaluate",
                ["evaluate", *[f"inputs/demos/{n}" for n in demo_names],
                 "--frame", "out/frame.json", "--path", "inputs/path.json",
                 "--out-dir", "out/report"],
                ["out/report"],
                check_evaluate,
            ),
        ],
        records=records,
    )


def check_report(work_dir: str, summary: dict, frequencies: list, traces: int) -> list:
    """Every segment present for every trace, the demonstrations land in the
    epsilon zone, and each force spectrum peaks at its forcing frequency."""
    labels = [chr(ord("A") + k) for k in range(len(PATH_SEQUENCE) - 1)]
    failures = []
    if summary["segments"] != labels:
        failures.append(f"evaluate: segments {summary['segments']} != {labels}")
    report = read_json(os.path.join(work_dir, "out", "report", "report.json"))
    if [s["label"] for s in report["segments"]] != labels:
        failures.append("evaluate: report.json segment list incomplete")
    if len(report["traces"]) != traces:
        failures.append(f"evaluate: {len(report['traces'])} traces reported, expected {traces}")
    for trace in report["traces"]:
        if [s["label"] for s in trace["segments"]] != labels:
            failures.append(f"evaluate: trace {trace['index']} lacks a segment")
    if not summary["epsilon_fraction"] >= 0.9:
        failures.append(f"evaluate: epsilon fraction {summary['epsilon_fraction']} < 0.9")
    if len(report["spectra"]) != len(frequencies):
        return failures + [f"evaluate: {len(report['spectra'])} spectra, expected {len(frequencies)}"]
    for i, f_hz in enumerate(frequencies):
        rows = read_rows(os.path.join(work_dir, "out", "report", f"spectrum_{i:03d}.csv"), 2)
        peak = rows[1 + int(np.argmax(rows[1:, 1])), 0]
        bin_width = rows[1, 0] - rows[0, 0]
        if not abs(peak - f_hz) <= 1.5 * bin_width:
            failures.append(f"evaluate: spectrum {i} peaks at {peak:.3f} Hz, forcing {f_hz:.3f} Hz")
    return failures


# ---------------------------------------------------------------- simulate


def make_simulate(seed: int, work: str, position_count: int = SIM_POSITION_POSES) -> Plan:
    rng = np.random.default_rng([seed, 3])
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)

    def ypr() -> list:
        return [float(x) for x in rng.uniform(-20.0, 20.0, 3)]

    configs = {
        "position": {
            "kind": "position",
            "seed": int(rng.integers(0, 2**31)),
            "sample_count": position_count,
            "rotation_span_deg": ROTATION_SPAN_DEG,
            "true_translation": _random_tip(rng).tolist(),
            "true_rotation_ypr_deg": ypr(),
            "pivot_point": rng.uniform(-0.2, 0.2, 3).tolist(),
            "position_noise_std": POSITION_NOISE_M,
            "outlier_rate": OUTLIER_RATE,
            "outlier_magnitude": OUTLIER_MAGNITUDE_M,
        },
        "orientation": {
            "kind": "orientation",
            "seed": int(rng.integers(0, 2**31)),
            "true_translation": _random_tip(rng).tolist(),
            "true_rotation_ypr_deg": ypr(),
            "orientation_noise_std_deg": 0.1,
            "position_noise_std": POSITION_NOISE_M,
            "hole_axes": [
                EZ.tolist(),
                qrot(axis_angle([1.0, 0.0, 0.0], math.radians(35.0)), EZ).tolist(),
                qrot(axis_angle([0.0, 1.0, 0.0], math.radians(35.0)), EZ).tolist(),
            ],
            "poses_per_hole": POSES_PER_HOLE,
        },
    }
    for i in range(SIM_DEMOS):
        configs[f"demo_{i}"] = {
            "kind": "demonstration",
            "seed": int(rng.integers(0, 2**31)),
            "path": {"waypoints": PATH_WAYPOINTS, "visiting_sequence": PATH_SEQUENCE},
            "lateral_noise_std": 5e-4,
            "speed": DEMO_SPEED,
            "sample_rate": DEMO_RATE_HZ,
            "force_profile": {
                "kind": "sine", "frequency_hz": float(rng.uniform(2.0, 8.0)),
                "amplitude": 1.5, "offset": 4.0,
            },
        }
    for name, cfg in configs.items():
        write_json(os.path.join(inputs, f"{name}.json"), cfg)

    demo_rows = demo_samples(np.random.default_rng(0), DEMO_SPEED, DEMO_RATE_HZ, 0.0)[0].size
    records = position_count + HOLES * POSES_PER_HOLE + SIM_DEMOS * demo_rows
    checks = {"position": check_sim_position, "orientation": check_sim_orientation}
    commands = []
    for name, cfg in configs.items():
        out = f"out/{name}"
        check = checks.get(name, check_sim_demo)
        commands.append(
            Command(
                "simulate",
                ["simulate", f"inputs/{name}.json", "--out-dir", out],
                [out],
                lambda work_dir, stdout, cfg=cfg, out=out, check=check: check(
                    os.path.join(work_dir, out), cfg
                ),
            )
        )
    return Plan(workload="simulate", commands=commands, records=records)


def _ypr_quat(ypr_deg) -> np.ndarray:
    yaw, pitch, roll = (math.radians(v) for v in ypr_deg)
    q = qmul(axis_angle(EZ, yaw), axis_angle([0.0, 1.0, 0.0], pitch))
    return qmul(q, axis_angle([1.0, 0.0, 0.0], roll))


def check_sim_position(out: str, cfg: dict) -> list:
    rows = read_rows(os.path.join(out, "poses.csv"), 8)
    truth = read_json(os.path.join(out, "truth.json"))
    n = cfg["sample_count"]
    failures = []
    if rows.shape[0] != n:
        failures.append(f"simulate position: {rows.shape[0]} rows, expected {n}")
    outliers = np.asarray(truth["outlier_indices"], dtype=int)
    if outliers.size != int(round(cfg["outlier_rate"] * n)):
        failures.append("simulate position: wrong outlier count")
    tips = qrot(rows[:, 4:8], np.asarray(cfg["true_translation"])) + rows[:, 1:4]
    dev = np.linalg.norm(tips - np.asarray(cfg["pivot_point"]), axis=1)
    inlier = np.ones(rows.shape[0], dtype=bool)
    inlier[outliers[outliers < rows.shape[0]]] = False
    limit = 8.0 * cfg["position_noise_std"]
    if not float(dev[inlier].max(initial=0.0)) < limit:
        failures.append(f"simulate position: inlier tip {dev[inlier].max():.2e} m off the pivot")
    if not float(dev[~inlier].min(initial=1.0)) > 0.5 * cfg["outlier_magnitude"]:
        failures.append("simulate position: an outlier sits on the pivot")
    return failures


def check_sim_orientation(out: str, cfg: dict) -> list:
    manifest = read_json(os.path.join(out, "manifest.json"))
    tip_axis = qrot(_ypr_quat(cfg["true_rotation_ypr_deg"]), EZ)
    failures = []
    if len(manifest["holes"]) != len(cfg["hole_axes"]):
        return ["simulate orientation: wrong hole count"]
    for hole, axis in zip(manifest["holes"], cfg["hole_axes"]):
        rows = read_rows(os.path.join(out, hole["recording"]), 8)
        if rows.shape[0] != cfg["poses_per_hole"]:
            failures.append(f"simulate orientation: {rows.shape[0]} rows in {hole['recording']}")
        world = qrot(rows[:, 4:8], tip_axis)
        cos = np.clip(world @ np.asarray(axis) / np.linalg.norm(axis), -1.0, 1.0)
        worst = math.degrees(float(np.arccos(cos.min())))
        if not worst < AXIS_TOLERANCE_DEG:
            failures.append(f"simulate orientation: tip axis {worst:.3f} deg off its hole")
    return failures


def check_sim_demo(out: str, cfg: dict) -> list:
    rows = read_rows(os.path.join(out, "trace.csv"), 5)
    truth = read_json(os.path.join(out, "truth.json"))
    force = cfg["force_profile"]
    failures = []
    if rows.shape[0] != truth["sample_count"]:
        failures.append("simulate demonstration: row count differs from truth.json")
    expected = force["offset"] + force["amplitude"] * np.sin(
        2.0 * math.pi * force["frequency_hz"] * rows[:, 0]
    )
    if not float(np.max(np.abs(rows[:, 4] - expected))) < 1e-9:
        failures.append("simulate demonstration: force does not follow the sine profile")
    start = np.asarray(PATH_WAYPOINTS[PATH_SEQUENCE[0]])
    end = np.asarray(PATH_WAYPOINTS[PATH_SEQUENCE[-1]])
    limit = 8.0 * cfg["lateral_noise_std"]
    if not (np.linalg.norm(rows[0, 1:3] - start) < limit and np.linalg.norm(rows[-1, 1:3] - end) < limit):
        failures.append("simulate demonstration: trace does not start and end on the path")
    return failures


MAKERS = {"calibrate": make_calibrate, "session": make_session, "simulate": make_simulate}


def make_plan(workload: str, seed: int, work: str, **sizes) -> Plan:
    """Generate the workload's inputs under ``work/inputs`` and return its plan.

    ``sizes`` override the maker's defaults; only the scaling sweep uses them.
    """
    plan = MAKERS[workload](seed % 2**63, work, **sizes)
    plan.inputs_sha256 = tree_sha256(os.path.join(work, "inputs"))
    return plan
