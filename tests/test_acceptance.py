"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s`` or on failure)."""

from __future__ import annotations

import io
import math
import time

import numpy as np
from oracles import pairwise_objective, quat_angle
from scipy.optimize import minimize

from styluskit.calib import calibrate_orientation, calibrate_position
from styluskit.cli import main
from styluskit.evaluation import (
    IdealPath,
    evaluate_demonstrations,
    force_spectrum,
    resample_segment,
)
from styluskit.framing import identify_frame, to_frame
from styluskit.geometry import (
    Pose,
    TipTrack,
    angle_between,
    compose,
    quat_from_axis_angle,
    quat_rotate,
    transform_point,
)
from styluskit.ingest import (
    DemonstrationTrace,
    ForceRecording,
    calibration_from_doc,
    calibration_to_doc,
    load_calibration,
    parse_pose_csv,
    save_calibration,
    write_pose_csv,
)
from styluskit.jsonio import write_json
from styluskit.synth import (
    SynthConfig,
    gen_demonstration,
    gen_orientation_dataset,
    gen_position_dataset,
)

EZ = np.array([0.0, 0.0, 1.0])
IDENTITY_Q = np.array([0.0, 0.0, 0.0, 1.0])

TRUE_CALIBRATION = Pose(
    quat_from_axis_angle([0.4, -0.2, 0.6], 0.35), np.array([0.01, -0.02, -0.12])
)
PIVOT = np.array([0.4, 0.1, 0.02])
HOLE_AXES = [[0.0, 0.0, 1.0], [0.0, math.sin(math.pi / 4), math.cos(math.pi / 4)]]


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _synth_config(noise_translation, noise_rotation, rate=0.0, seed=101, n=2000):
    return SynthConfig(
        true_calibration=TRUE_CALIBRATION,
        pivot_point=PIVOT,
        sample_count=n,
        rotation_span=math.radians(120.0),
        position_noise_std=noise_translation,
        orientation_noise_std=noise_rotation,
        outlier_rate=rate,
        outlier_magnitude=0.08,
        seed=seed,
    )


def _recover(cfg, poses_per_hole=1000):
    position_ds, position_truth = gen_position_dataset(cfg)
    position = calibrate_position(position_ds)
    orientation_ds, orientation_truth = gen_orientation_dataset(
        cfg, HOLE_AXES, poses_per_hole=poses_per_hole
    )
    orientation = calibrate_orientation(orientation_ds, position.tip_offset)
    translation_error = float(
        np.linalg.norm(position.tip_offset - position_truth.tip_offset)
    )
    recovered_axis = quat_rotate(orientation.rotation, EZ)
    true_axis = quat_rotate(orientation_truth.rotation, EZ)
    axis_error = angle_between(recovered_axis, true_axis)
    return translation_error, axis_error


def test_criterion_1_noisy_calibration_accuracy():
    cfg = _synth_config(0.0002, math.radians(0.2))
    started = time.perf_counter()
    translation_error, axis_error = _recover(cfg)
    elapsed = time.perf_counter() - started
    ok = translation_error < 1e-3 and axis_error < math.radians(1.0) and elapsed < 5.0
    _report(
        1,
        ok,
        f"translation error {translation_error:.2e} m (< 1e-3), axis error "
        f"{math.degrees(axis_error):.4f} deg (< 1), runtime {elapsed:.2f} s (< 5)",
    )


def test_criterion_2_exact_recovery():
    cfg = _synth_config(0.0, 0.0)
    translation_error, axis_error = _recover(cfg)
    ok = translation_error < 1e-6 and axis_error < 1e-6
    _report(
        2,
        ok,
        f"translation error {translation_error:.2e} m (< 1e-6), axis error "
        f"{axis_error:.2e} rad (< 1e-6)",
    )


def test_criterion_3_pairwise_oracle_equivalence():
    cfg = _synth_config(0.0, 0.0, seed=102, n=50)
    ds, truth = gen_position_dataset(cfg)
    n = len(ds)
    solution = calibrate_position(ds, params=None)
    at_solution = pairwise_objective(ds, solution.tip_offset)
    rng = np.random.default_rng(103)
    best = math.inf
    for _ in range(10):
        start = truth.tip_offset + rng.uniform(-0.05, 0.05, 3)
        result = minimize(
            lambda p: pairwise_objective(ds, p),
            x0=start,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 3000},
        )
        best = min(best, float(result.fun))
    tolerance = 1e-9 * n * n
    ok = at_solution <= best + tolerance
    _report(
        3,
        ok,
        f"pairwise objective at least-squares solution {at_solution:.3e}, best of 10 "
        f"descents {best:.3e} (tolerance {tolerance:.1e})",
    )


def test_criterion_4_outlier_robustness():
    noise = 0.0002
    clean_cfg = _synth_config(noise, math.radians(0.2), rate=0.0, seed=104)
    outlier_cfg = _synth_config(noise, math.radians(0.2), rate=0.1, seed=104)

    clean_ds, clean_truth = gen_position_dataset(clean_cfg)
    clean_error = float(
        np.linalg.norm(calibrate_position(clean_ds).tip_offset - clean_truth.tip_offset)
    )

    outlier_ds, outlier_truth = gen_position_dataset(outlier_cfg)
    filtered = calibrate_position(outlier_ds)
    unfiltered = calibrate_position(outlier_ds, params=None)
    filtered_error = float(np.linalg.norm(filtered.tip_offset - outlier_truth.tip_offset))
    unfiltered_error = float(
        np.linalg.norm(unfiltered.tip_offset - outlier_truth.tip_offset)
    )

    displacement_ok = outlier_truth.outlier_indices.size == 200
    ok = (
        displacement_ok
        and filtered_error <= 2.0 * clean_error
        and unfiltered_error > filtered_error
    )
    _report(
        4,
        ok,
        f"clean {clean_error:.2e} m, filtered {filtered_error:.2e} m (<= 2x clean), "
        f"unfiltered {unfiltered_error:.2e} m (strictly worse), outliers removed "
        f"{filtered.removed_outliers}/200",
    )


def test_criterion_5_frame_identification():
    p1, p2, p3 = np.array([1.0, 0.0, 0.0]), np.zeros(3), np.array([0.0, 1.0, 0.0])
    canonical = identify_frame(p1, p2, p3)
    identity_ok = (
        quat_angle(canonical.transform.rotation, IDENTITY_Q) < 1e-9
        and np.linalg.norm(canonical.transform.translation) < 1e-9
    )

    probes = [np.array([0.9, 0.1, 0.3]), np.array([0.1, 0.2, 0.3]), np.array([0.2, 0.9, 0.35])]
    frame = identify_frame(*probes)
    local = to_frame(frame, TipTrack([0.0, 1.0, 2.0], probes, np.tile(IDENTITY_Q, (3, 1))))
    canonical_coords_ok = (
        np.linalg.norm(local.position[1]) < 1e-9
        and abs(local.position[0][1]) < 1e-9
        and abs(local.position[0][2]) < 1e-9
        and local.position[0][0] > 0
        and local.position[2][1] > 0
        and abs(local.position[2][2]) < 1e-9
    )

    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        g = Pose(
            quat_from_axis_angle(rng.normal(size=3), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-1.0, 1.0, 3),
        )
        moved = identify_frame(*(transform_point(g, p) for p in probes))
        expected = compose(g, frame.transform)
        worst = max(
            worst,
            quat_angle(moved.transform.rotation, expected.rotation),
            float(np.linalg.norm(moved.transform.translation - expected.translation)),
        )
    equivariance_ok = worst < 1e-9

    ok = identity_ok and canonical_coords_ok and equivariance_ok
    _report(
        5,
        ok,
        f"identity frame {identity_ok}, canonical probe coordinates {canonical_coords_ok}, "
        f"equivariance worst deviation {worst:.2e} (< 1e-9) over 100 rigid motions",
    )


L_PATH = IdealPath(waypoints=[[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]], visiting_sequence=(0, 1, 2))
SQUARE = IdealPath(
    waypoints=[[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1]],
    visiting_sequence=(0, 1, 2, 3, 0),
)


def test_criterion_6_evaluation_pipeline():
    ideal_trace = gen_demonstration(L_PATH, lateral_noise_std=0.0, speed=0.05, sample_rate=200.0)
    ideal_report = evaluate_demonstrations([ideal_trace], L_PATH, n=100)
    ideal_errors = np.concatenate(
        [seg.signed_error for seg in ideal_report.per_trace[0]]
    )
    ideal_ok = (
        ideal_report.epsilon_fraction == 1.0
        and np.all(np.isfinite(ideal_errors))
        and float(np.max(np.abs(ideal_errors))) < 1e-9
    )

    line = (np.array([0.0, 0.0]), np.array([0.1, 0.0]))
    u = np.linspace(0.0, 1.0, 500)
    offset_xy = np.column_stack([0.1 * u, np.full(u.size, 0.002)])
    offset_points = TipTrack(
        [i * 0.01 for i in range(len(offset_xy))],
        np.column_stack([offset_xy, np.zeros(len(offset_xy))]),
        np.tile(IDENTITY_Q, (len(offset_xy), 1)),
    )
    offset_seg = resample_segment(DemonstrationTrace(points=offset_points).positions, line, n=100)
    offset_ok = (
        not offset_seg.missing.any()
        and float(np.max(np.abs(offset_seg.signed_error - 0.002))) < 1e-6
    )

    sigma = 0.001
    traces = [
        gen_demonstration(SQUARE, lateral_noise_std=sigma, speed=0.05, sample_rate=400.0, seed=s)
        for s in range(7)
    ]
    cohort = evaluate_demonstrations(traces, SQUARE, n=400, epsilon=0.003)
    pooled = np.concatenate(
        [seg.signed_error for sampled in cohort.per_trace for seg in sampled]
    )
    sample_count = int(np.isfinite(pooled).sum())
    gaussian_ok = sample_count >= 10_000 and abs(cohort.epsilon_fraction - 0.997) <= 0.01

    ok = ideal_ok and offset_ok and gaussian_ok
    _report(
        6,
        ok,
        f"ideal trace zero errors {ideal_ok}, 2 mm offset max deviation "
        f"{float(np.max(np.abs(offset_seg.signed_error - 0.002))):.2e} (< 1e-6), "
        f"epsilon fraction {cohort.epsilon_fraction:.4f} over {sample_count} samples "
        f"(0.997 +/- 0.01)",
    )


def test_criterion_7_force_spectrum():
    t = np.arange(1000) / 100.0
    single = force_spectrum(
        ForceRecording(t, 2.0 + np.sin(2 * math.pi * 5.0 * t)), threshold_ratio=0.05
    )
    double = force_spectrum(
        ForceRecording(t, np.sin(2 * math.pi * 3.0 * t) + np.sin(2 * math.pi * 7.0 * t)),
        threshold_ratio=0.05,
    )

    rng = np.random.default_rng(106)
    fz = rng.normal(size=512)
    spectrum = force_spectrum(ForceRecording(np.arange(512) / 200.0, fz))
    x = fz - fz.mean()
    energy = float(np.sum(x * x))
    weights = np.full(spectrum.amplitudes.size, spectrum.sample_count / 2.0)
    weights[0] = spectrum.sample_count
    if spectrum.sample_count % 2 == 0:
        weights[-1] = spectrum.sample_count
    reconstructed = float(np.sum(spectrum.amplitudes**2 * weights))
    parseval_relative = abs(reconstructed - energy) / energy

    ok = single.count_above == 1 and double.count_above == 2 and parseval_relative < 1e-6
    _report(
        7,
        ok,
        f"single sine bins above threshold {single.count_above} (== 1), two sines "
        f"{double.count_above} (== 2), Parseval relative error {parseval_relative:.2e} (< 1e-6)",
    )


def _run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_8_determinism_and_round_trip(tmp_path, capsys):
    position_cfg = {
        "kind": "position",
        "seed": 107,
        "sample_count": 300,
        "rotation_span_deg": 120.0,
        "true_translation": [0.01, -0.02, -0.12],
        "pivot_point": [0.4, 0.1, 0.02],
        "position_noise_std": 0.0002,
        "orientation_noise_std_deg": 0.2,
        "outlier_rate": 0.05,
        "outlier_magnitude": 0.08,
    }
    orientation_cfg = {
        "kind": "orientation",
        "seed": 108,
        "true_translation": [0.01, -0.02, -0.12],
        "true_rotation_ypr_deg": [2.0, -3.0, 5.0],
        "hole_axes": HOLE_AXES,
        "poses_per_hole": 50,
    }
    demo_cfg = {
        "kind": "demonstration",
        "seed": 109,
        "path": {"waypoints": L_PATH.waypoints.tolist(), "visiting_sequence": [0, 1, 2]},
        "lateral_noise_std": 0.0005,
        "speed": 0.05,
        "sample_rate": 200.0,
        "force_profile": {"kind": "sine", "frequency_hz": 5.0, "amplitude": 1.0, "offset": 2.0},
    }
    write_json(tmp_path / "position_cfg.json", position_cfg)
    write_json(tmp_path / "orientation_cfg.json", orientation_cfg)
    write_json(tmp_path / "demo_cfg.json", demo_cfg)
    frame_doc = {
        "label": "board",
        "translation": [0.0, 0.0, 0.0],
        "rotation_quat": [0.0, 0.0, 0.0, 1.0],
        "probe_points": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]],
    }
    write_json(tmp_path / "frame.json", frame_doc)
    waypoints_doc = {
        "waypoints": [
            {"t": 0.0, "position": [1.0, 0.0, 0.0], "orientation_quat": [0, 0, 0, 1]},
            {"t": 1.0, "position": [0.0, 0.0, 0.0], "orientation_quat": [0, 0, 0, 1]},
            {"t": 2.0, "position": [0.0, 1.0, 0.0], "orientation_quat": [0, 0, 0, 1]},
        ]
    }
    write_json(tmp_path / "probe_waypoints.json", waypoints_doc)
    (tmp_path / "events.txt").write_text("EVT 0.5 BTN 1\nEVT 1.0 BTN 1\n")

    def invocations():
        base = tmp_path / "work"
        base.mkdir(exist_ok=True)
        position_json = base / "position.json"
        calibration_json = base / "calibration.json"
        return base, [
            ("simulate-position", ["simulate", str(tmp_path / "position_cfg.json"), "--out-dir", str(base / "pos")]),
            ("simulate-orientation", ["simulate", str(tmp_path / "orientation_cfg.json"), "--out-dir", str(base / "ori")]),
            ("simulate-demo", ["simulate", str(tmp_path / "demo_cfg.json"), "--out-dir", str(base / "demo")]),
            ("calibrate-position", ["calibrate-position", str(base / "pos" / "poses.csv"), "-o", str(position_json)]),
            (
                "calibrate-orientation",
                [
                    "calibrate-orientation",
                    str(base / "ori" / "manifest.json"),
                    "--position",
                    str(position_json),
                    "-o",
                    str(calibration_json),
                ],
            ),
            ("identify-frame", ["identify-frame", str(tmp_path / "probe_waypoints.json"), "-o", str(base / "frame_out.json")]),
            (
                "evaluate",
                [
                    "evaluate",
                    str(base / "demo" / "trace.csv"),
                    "--frame",
                    str(tmp_path / "frame.json"),
                    "--path",
                    str(base / "demo" / "path.json"),
                    "--out-dir",
                    str(base / "report"),
                ],
            ),
            (
                "snapshot",
                [
                    "snapshot",
                    str(base / "pos" / "poses.csv"),
                    str(tmp_path / "events.txt"),
                    "--calibration",
                    str(calibration_json),
                    "-o",
                    str(base / "waypoints_out.json"),
                ],
            ),
        ]

    # identical inputs and flags run twice: stdout and every file byte-equal
    outputs: dict[str, list[str]] = {}
    trees: list[dict[str, bytes]] = []
    base, commands = invocations()
    for _ in range(2):
        for name, argv in commands:
            code, out = _run_cli(capsys, *argv)
            assert code == 0, f"{name} exited {code}"
            outputs.setdefault(name, []).append(out)
        tree = {}
        for file in sorted(base.rglob("*")):
            if file.is_file():
                tree[str(file.relative_to(base))] = file.read_bytes()
        trees.append(tree)

    stdout_deterministic = all(a == b for a, b in outputs.values())
    files_deterministic = trees[0] == trees[1]

    poses_path = base / "pos" / "poses.csv"
    with open(poses_path, "r", encoding="utf-8") as f:
        recording = parse_pose_csv(f)
    rewritten = io.StringIO()
    write_pose_csv(recording, rewritten)
    lossless_ok = rewritten.getvalue() == poses_path.read_text()

    calibration_path = base / "calibration.json"
    loaded = load_calibration(calibration_path)
    save_calibration(loaded, tmp_path / "resaved.json")
    bitexact_ok = (tmp_path / "resaved.json").read_bytes() == calibration_path.read_bytes()
    doc_round = calibration_from_doc(calibration_to_doc(loaded))
    bitexact_ok = bitexact_ok and np.array_equal(
        doc_round.transform.rotation, loaded.transform.rotation
    )

    ok = stdout_deterministic and files_deterministic and lossless_ok and bitexact_ok
    _report(
        8,
        ok,
        f"stdout deterministic {stdout_deterministic}, files deterministic "
        f"{files_deterministic} ({len(trees[0])} files), pose CSV lossless "
        f"{lossless_ok}, calibration JSON bit-exact {bitexact_ok}",
    )
