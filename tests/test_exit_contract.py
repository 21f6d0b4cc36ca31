"""How a ``styluskit`` process ends.

``cli.entrypoint`` runs the ``atexit`` handlers, flushes the standard
streams and ends with ``os._exit``, skipping the interpreter's teardown.
Each case here runs a fresh ``python -m styluskit.cli`` and pins what a
user's shell sees: exit codes, stderr and stdout bytes, also when stdout is
closed, full or a pipe whose reader has gone.  A failed write is an output
error wherever it happens, during the command or at the final flush: one
``error:`` line and exit 2.
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
# A snapshot document larger than any pipe or stdio buffer.
SNAPSHOT_EVENTS = 300
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def child_env(unbuffered: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_python(args, *, stdout=subprocess.PIPE, close_stdout=False, unbuffered=False, cwd=None):
    """Run ``python *args``; ``close_stdout`` starts it with fd 1 closed."""
    return subprocess.run(
        [sys.executable, *args], env=child_env(unbuffered), cwd=cwd, stdout=stdout,
        stderr=subprocess.PIPE, timeout=120,
        preexec_fn=(lambda: os.close(1)) if close_stdout else None,
    )


def run_cli(argv, **kwargs):
    return run_python(["-m", "styluskit.cli", *argv], **kwargs)


def into_closed_pipe(args, unbuffered=False, cwd=None):
    """Run ``python *args`` with stdout a pipe whose reader has closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_python(args, stdout=write_end, unbuffered=unbuffered, cwd=cwd)
    finally:
        os.close(write_end)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small position config, and a snapshot whose stdout is about 70 kB."""
    d = tmp_path_factory.mktemp("exit")
    write_json(d / "position.json", {"kind": "position", "seed": 3, "sample_count": 2000})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", str(d / "position.json"), "--out-dir", str(d / "pos")]) == 0
    write_json(
        d / "calibration.json",
        {"translation": [0.0, 0.0, -0.12], "rotation_quat": [0.0, 0.0, 0.0, 1.0],
         "position_residual_rms": 0.0, "orientation_residual_rms": 0.0, "filtered_outliers": 0},
    )
    (d / "events.txt").write_text(
        "".join(f"EVT {0.05 + 0.06 * i:.2f} BTN 1\n" for i in range(SNAPSHOT_EVENTS))
    )
    (d / "one.csv").write_text("t,x,y,z,qx,qy,qz,qw\n0.0,0,0,0,0,0,0,1\n")
    return d


SIMULATE = ["simulate", "position.json", "--out-dir", "out"]
SNAPSHOT = ["snapshot", "pos/poses.csv", "events.txt", "--calibration", "calibration.json"]


def test_large_stdout_arrives_byte_identical(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(SNAPSHOT) == 0
    expected = out.getvalue().encode()
    assert len(expected) > 65536
    assert len(json.loads(expected)["waypoints"]) == SNAPSHOT_EVENTS
    proc = run_cli(SNAPSHOT, cwd=inputs)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_closed_stdout_exits_0(inputs, tmp_path):
    proc = run_cli(SNAPSHOT, close_stdout=True, cwd=inputs)
    assert (proc.returncode, proc.stderr) == (0, b"")
    simulate = ["simulate", "position.json", "--out-dir", str(tmp_path)]
    proc = run_cli(simulate, close_stdout=True, cwd=inputs)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "poses.csv").read_bytes() == (inputs / "pos" / "poses.csv").read_bytes()


@needs_dev_full
def test_full_disk_during_a_command_exits_2(inputs):
    with open("/dev/full", "w") as full:
        proc = run_cli(SNAPSHOT, stdout=full, cwd=inputs)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


@needs_dev_full
def test_full_disk_at_the_final_flush_exits_2(inputs):
    # A small stdout stays in the buffer until the final flush.
    with open("/dev/full", "w") as full:
        proc = run_cli(SIMULATE, stdout=full, cwd=inputs)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


@needs_dev_full
def test_help_to_a_full_disk_exits_2():
    # argparse exits through SystemExit, which takes the same final flush.
    with open("/dev/full", "w") as full:
        proc = run_cli(["--help"], stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


# Unbuffered, the help text's write fails inside argparse, which would
# swallow the error and exit 0; buffered, the final flush fails.
HELP_ARGV = [["--help"], ["evaluate", "--help"]]
HELP_IDS = ["top", "subcommand"]


@needs_dev_full
@pytest.mark.parametrize(
    "argv, unbuffered",
    [(["--help"], True), (["evaluate", "--help"], False), (["evaluate", "--help"], True)],
    ids=["unbuffered-top", "buffered-subcommand", "unbuffered-subcommand"],
)
def test_any_help_to_a_full_disk_exits_2(argv, unbuffered):
    # The buffered top-level case is test_help_to_a_full_disk_exits_2.
    with open("/dev/full", "w") as full:
        proc = run_cli(argv, stdout=full, unbuffered=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.mark.parametrize("argv", HELP_ARGV, ids=HELP_IDS)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_to_a_closed_pipe_exits_2(argv, unbuffered):
    proc = into_closed_pipe(["-m", "styluskit.cli", *argv], unbuffered=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


def test_buffered_broken_pipe_exits_2(inputs):
    proc = into_closed_pipe(["-m", "styluskit.cli", *SIMULATE], cwd=inputs)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


@pytest.mark.parametrize("argv", [SIMULATE, SNAPSHOT], ids=["simulate", "snapshot"])
def test_unbuffered_broken_pipe_exits_2(inputs, argv):
    proc = into_closed_pipe(["-m", "styluskit.cli", *argv], unbuffered=True, cwd=inputs)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


@pytest.mark.parametrize(
    "argv, code, message",
    [(["calibrate-position", "missing.csv"], 2, "error: [Errno 2] No such file or directory"),
     (["calibrate-position", "one.csv"], 3, "error: need at least 3 poses, got 1")],
    ids=["input", "degenerate"],
)
def test_error_codes_come_through(inputs, argv, code, message):
    proc = run_cli(argv, cwd=inputs)
    assert (proc.returncode, proc.stdout) == (code, b"")
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


@pytest.mark.parametrize(
    "argv, code", [(SIMULATE, 0), (["calibrate-position", "missing.csv"], 2)],
    ids=["success", "error"],
)
def test_atexit_handlers_run_and_their_output_is_flushed(inputs, argv, code):
    program = (
        "import atexit\n"
        "atexit.register(print, 'atexit handler ran')\n"
        "from styluskit.cli import entrypoint\n"
        "entrypoint()\n"
        "print('entrypoint returned')\n"
    )
    proc = run_python(["-c", program, *argv], cwd=inputs)
    assert proc.returncode == code
    assert proc.stdout.decode().splitlines()[-1] == "atexit handler ran"
    assert b"entrypoint returned" not in proc.stdout
