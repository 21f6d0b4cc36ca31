"""Start-up loads only what a command uses.

``styluskit/__init__`` re-exports its public names lazily, and ``cli``
imports the standard library and ``errors`` alone at module scope; each
command handler imports its own modules.  The subprocess tests read the
modules a fresh ``python -X importtime -m styluskit.cli ...`` imported, so
they see exactly what a user's shell would load.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import styluskit
from styluskit.cli import main
from styluskit.jsonio import write_json

PACKAGE_SRC = os.path.dirname(os.path.dirname(os.path.abspath(styluskit.__file__)))

# ``-m styluskit.cli`` runs cli as ``__main__``, so it is not in these sets.
BARE = {"styluskit", "styluskit.errors"}
CORE = BARE | {"styluskit.geometry", "styluskit.jsonio", "styluskit.ingest"}
CALIBRATE = CORE | {"styluskit.calib"}
IDENTIFY = CORE | {"styluskit.framing"}
EVALUATE = IDENTIFY | {"styluskit.evaluation"}
SIMULATE = CORE | {"styluskit.synth"}


def imported_modules(*args, cwd=None) -> tuple[int, set]:
    """Exit code and the dotted names of the modules a fresh interpreter
    imported while running ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return proc.returncode, names


def package_modules(names: set) -> set:
    return {n for n in names if n.split(".")[0] == "styluskit"}


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["evaluate", "--help"], 0), (["calibrate-position"], 2),
     (["identify-frame", "w.json", "--bogus"], 2)],
)
def test_help_and_usage_errors_load_no_numpy(argv, code):
    exit_code, names = imported_modules("-m", "styluskit.cli", *argv)
    assert exit_code == code
    assert "numpy" not in names
    assert package_modules(names) == BARE


def test_import_styluskit_loads_nothing_else():
    exit_code, names = imported_modules("-c", "import styluskit")
    assert exit_code == 0
    assert "numpy" not in names
    assert package_modules(names) == {"styluskit"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small inputs for every command, made in this process."""
    d = tmp_path_factory.mktemp("startup")

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0

    write_json(d / "position.json", {"kind": "position", "seed": 3, "sample_count": 200})
    run("simulate", d / "position.json", "--out-dir", d / "pos")
    run("calibrate-position", d / "pos" / "poses.csv", "-o", d / "tip.json")
    write_json(
        d / "orientation.json",
        {"kind": "orientation", "seed": 4, "true_translation": [0.0, 0.0, -0.12],
         "hole_axes": [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]], "poses_per_hole": 20},
    )
    run("simulate", d / "orientation.json", "--out-dir", d / "ori")
    write_json(
        d / "calibration.json",
        {"translation": [0.0, 0.0, -0.12], "rotation_quat": [0.0, 0.0, 0.0, 1.0],
         "position_residual_rms": 0.0, "orientation_residual_rms": 0.0, "filtered_outliers": 0},
    )
    (d / "events.txt").write_text("EVT 0.10 BTN 1\nEVT 0.50 BTN 1\nEVT 0.90 BTN 1\n")
    run("snapshot", d / "pos" / "poses.csv", d / "events.txt",
        "--calibration", d / "calibration.json", "-o", d / "waypoints.json")
    write_json(
        d / "frame.json",
        {"label": "board", "translation": [0.0, 0.0, 0.0], "rotation_quat": [0.0, 0.0, 0.0, 1.0],
         "probe_points": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.1, 0.0]]},
    )
    write_json(
        d / "demo.json",
        {"kind": "demonstration", "seed": 5,
         "path": {"waypoints": [[0.0, 0.0], [0.1, 0.0]], "visiting_sequence": [0, 1]}},
    )
    run("simulate", d / "demo.json", "--out-dir", d / "demo")
    return d


EVALUATE_ARGV = ["evaluate", "demo/trace.csv", "--frame", "frame.json", "--path", "demo/path.json"]
COMMANDS = {
    "calibrate-position": (["calibrate-position", "pos/poses.csv"], CALIBRATE),
    "calibrate-orientation": (
        ["calibrate-orientation", "ori/manifest.json", "--position", "tip.json"], CALIBRATE
    ),
    "snapshot": (
        ["snapshot", "pos/poses.csv", "events.txt", "--calibration", "calibration.json"],
        CORE,
    ),
    "identify-frame": (["identify-frame", "waypoints.json"], IDENTIFY),
    "evaluate": (EVALUATE_ARGV, EVALUATE),
    "simulate": (["simulate", "position.json", "--out-dir", "again"], SIMULATE),
    "simulate-orientation": (["simulate", "orientation.json", "--out-dir", "ori2"], SIMULATE),
    "simulate-demonstration": (["simulate", "demo.json", "--out-dir", "demo2"], SIMULATE),
}


@pytest.mark.parametrize("argv, expected", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_loads_only_its_modules(inputs, argv, expected):
    exit_code, names = imported_modules("-m", "styluskit.cli", *argv, cwd=inputs)
    assert exit_code == 0
    assert package_modules(names) == expected


def test_evaluate_loads_no_numpy_ma(inputs):
    """The force spectrum's median spacing is taken without ``np.median``,
    whose NaN check imports ``numpy.ma`` (about 14 ms of start-up)."""
    exit_code, names = imported_modules("-m", "styluskit.cli", *EVALUATE_ARGV, cwd=inputs)
    assert exit_code == 0
    assert "numpy" in names
    assert "numpy.ma" not in names


# ------------------------------------------------------------ lazy namespace

# The names the package exported when it imported every module eagerly,
# less the workspace boxes, the per-sample record, the evaluation report
# record (``evaluate_demonstrations`` returns the report's document) and the
# force record (``force_spectrum`` takes a trace's arrays), which are gone.
EXPORTED = [
    "DemonstrationTrace", "DrawingFrame", "EulerAngles",
    "FilterParams", "IdealPath", "OrientationDataset", "PenEvent", "Pose",
    "PoseRecording", "PositionDataset", "StylusKitError", "TipCalibration",
    "TipTrack", "WaypointList", "angle_between",
    "calibrate_orientation", "calibrate_position", "compose", "euler_to_rotation",
    "evaluate_demonstrations", "identify_frame", "invert", "to_frame",
    "transform_point", "__version__",
]


def test_all_is_unchanged():
    assert styluskit.__all__ == EXPORTED


@pytest.mark.parametrize("name", EXPORTED[:-1])
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(styluskit, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("styluskit.")
    assert getattr(module, name) is value


def test_dir_lists_every_export():
    assert set(styluskit.__all__) <= set(dir(styluskit))


def test_star_import():
    namespace: dict = {}
    exec("from styluskit import *", namespace)
    assert {n: namespace[n] for n in EXPORTED} == {n: getattr(styluskit, n) for n in EXPORTED}


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        styluskit.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from styluskit import no_such_name", {})


def test_cli_forwards_the_jsonio_writers():
    from styluskit import cli, jsonio

    for name in ("dumps_canonical", "open_output", "read_json", "write_json", "write_text"):
        assert getattr(cli, name) is getattr(jsonio, name)
    with pytest.raises(AttributeError, match="'np'"):
        cli.np  # noqa: B018
    assert json.loads(cli.dumps_canonical({"a": 1})) == {"a": 1}


def test_bulk_parse_loads_no_further_module(inputs):
    """The commands' clean inputs are read by the one ``np.loadtxt`` call,
    not the row loop, and that call loads no module that importing
    ``ingest`` did not (no lazy numpy submodule such as ``numpy.ma``)."""
    code = "\n".join([
        "import sys",
        "from styluskit import ingest",
        "def no_row_loop(*args):",
        "    raise AssertionError('the row loop ran')",
        "ingest._parse_rows = no_row_loop",
        "before = set(sys.modules)",
        "with open('pos/poses.csv', encoding='utf-8') as f:",
        "    ingest.parse_pose_csv(f)",
        "with open('demo/trace.csv', encoding='utf-8') as f:",
        "    ingest.parse_demo_csv(f)",
        "print(sorted(set(sys.modules) - before))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=inputs, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
