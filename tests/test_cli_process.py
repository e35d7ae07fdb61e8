"""The CLI as a process.  `python -m qforge.cli`, like the qforge script,
enters through cli.run(), which ends the process with os._exit once its
streams flush, without the interpreter's teardown.

Each command row checks the exit code, stdout, stderr and the files the
command writes against the same command run in-process by click's
CliRunner.  Each row with a fault on a standard stream checks the process
against cli.main() run as the process's last call, which ends with the
interpreter's teardown, and against the values that path gives.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qforge
from qforge.cli import cli
from qforge.matrix_io import format_matrix

SRC = str(Path(qforge.__file__).resolve().parents[1])
# an 80-column help text in the process and in CliRunner alike, and buffered standard
# streams, as a terminal user's are: unbuffered ones hold nothing for run() to flush
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": SRC, "COLUMNS": "80"}
RUN = [sys.executable, "-m", "qforge.cli"]
# the command run by cli.main() as the process's last call
MAIN = [sys.executable, "-c", "import sys; sys.argv[0] = 'qforge'\n"
                              "from qforge.cli import main; main()"]
BROKEN_TANGLE = """
import sys
import qforge.qmath

def broken(rho):
    raise ZeroDivisionError("float division by zero")

qforge.qmath.tangle = broken
sys.argv[0] = "qforge"
from qforge.cli import run
run()
"""


def _broken(rho):
    raise ZeroDivisionError("float division by zero")


def _prepare(cwd: Path):
    """The inputs every row may read: two pure matrix files, a scheme-III
    recipe, a scheme-I recipe and a copy of it where two branches share a
    timing tag."""
    cwd.mkdir()
    runner = CliRunner()
    for name, k in (("hh.txt", 0), ("vv.txt", 3)):
        m = np.zeros((4, 4), dtype=complex)
        m[k, k] = 1.0
        (cwd / name).write_text(format_matrix(m), encoding="utf-8")
    for scheme, target, name in (("III", "mems:0.4", "r.json"), ("I", "werner:0.5", "w.json")):
        res = runner.invoke(cli, ["compile", scheme, target, "--out", str(cwd / name)])
        assert res.exit_code == 0
    text = (cwd / "w.json").read_text(encoding="utf-8")
    (cwd / "collide.json").write_text(text.replace('"timing_tag": 2', '"timing_tag": 1'),
                                      encoding="utf-8")


def _files(cwd: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


# (arguments, exit code); each runs in a fresh directory holding _prepare's files
COMMANDS = [
    (["families", "werner", "0.5", "--out", "-"], 0),
    (["compile", "III", "mems:0.4", "--out", "-"], 0),
    (["compile", "III", "mems:0.4", "--out", "out.json"], 0),
    (["simulate", "r.json", "--out", "out.txt"], 0),
    (["metrics", "hh.txt"], 0),
    (["cost", "r.json"], 0),
    (["--help"], 0),
    (["verify", "hh.txt", "vv.txt", "--min-fidelity", "0.5"], 1),
    (["metrics", "missing.txt"], 2),
    (["plane", "mems", "x"], 2),
    ([], 2),
    (["compile", "III", "hh.txt", "--out", "out.json"], 3),
    (["simulate", "collide.json", "--out", "out.txt"], 4),
]


@pytest.mark.parametrize("args, code", COMMANDS, ids=[" ".join(a) or "bare" for a, _ in COMMANDS])
def test_process_matches_in_process_run(tmp_path, monkeypatch, args, code):
    _prepare(tmp_path / "process")
    proc = subprocess.run([*RUN, *args], cwd=tmp_path / "process", env=ENV,
                          capture_output=True, text=True, timeout=120)
    _prepare(tmp_path / "in-process")
    monkeypatch.chdir(tmp_path / "in-process")
    res = CliRunner().invoke(cli, args, prog_name="qforge", env={"COLUMNS": "80"})
    assert proc.returncode == res.exit_code == code
    assert (proc.stdout, proc.stderr) == (res.stdout, res.stderr)
    assert _files(tmp_path / "process") == _files(tmp_path / "in-process")


def test_internal_error_process_matches_in_process_run(tmp_path, monkeypatch):
    _prepare(tmp_path / "process")
    proc = subprocess.run([sys.executable, "-c", BROKEN_TANGLE, "metrics", "hh.txt"],
                          cwd=tmp_path / "process", env=ENV, capture_output=True, text=True,
                          timeout=120)
    _prepare(tmp_path / "in-process")
    monkeypatch.chdir(tmp_path / "in-process")
    monkeypatch.setattr(qforge.qmath, "tangle", _broken)
    res = CliRunner().invoke(cli, ["metrics", "hh.txt"], prog_name="qforge")
    assert proc.returncode == res.exit_code == 5
    assert (proc.stdout, proc.stderr) == (res.stdout, res.stderr)
    assert proc.stderr == "error: internal-error: ZeroDivisionError: float division by zero\n"


def test_large_output_reaches_a_pipe_whole():
    # 200,001 rows, about 12 MB: far beyond a pipe's buffer, so most of it is
    # written while the reader drains the pipe
    proc = subprocess.run([*RUN, "plane", "mems", "200001", "--out", "-"], env=ENV,
                          capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "179236140febe55d1658ed533d49c592787a09649d65bda584b7112d0edb4d40")


def _close_stdout():
    os.close(1)


def _close_stderr():
    os.close(2)


def _stdout_to_dev_full():
    os.dup2(os.open("/dev/full", os.O_WRONLY), 1)


def _stdout_to_a_closed_pipe():
    read, write = os.pipe()
    os.close(read)
    os.dup2(write, 1)


# how the interpreter reports a stdout it cannot flush as it finishes; it then ends in 120
UNFLUSHED = "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
NO_SPACE = "OSError: [Errno 28] No space left on device\n"
BROKEN_PIPE = "BrokenPipeError: [Errno 32] Broken pipe\n"
# (fault, arguments, exit code, stdout, stderr) as cli.main() gives them
STREAM_FAULTS = [
    (_close_stdout, ["families", "werner", "0.5", "--out", "-"], 0, "", ""),
    (_close_stdout, ["metrics", "missing.txt"], 2, "",
     "error: io-error: [Errno 2] No such file or directory: 'missing.txt'\n"),
    (_close_stderr, ["metrics", "missing.txt"], 2, "", ""),
    (_close_stderr, ["metrics", "hh.txt"], 0, "tangle 0\nlinear_entropy 0\npurity 1\n", ""),
    (_stdout_to_dev_full, ["families", "werner", "0.5", "--out", "-"], 120, "",
     "error: io-error: [Errno 28] No space left on device\n" + UNFLUSHED + NO_SPACE),
    (_stdout_to_dev_full, ["--help"], 120, "",
     "error: io-error: [Errno 28] No space left on device\n" + UNFLUSHED + NO_SPACE),
    (_stdout_to_dev_full, ["families", "werner", "0.5", "--out", "w.txt"], 0, "", ""),
    (_stdout_to_a_closed_pipe, ["families", "werner", "0.5", "--out", "-"], 120, "",
     "error: io-error: [Errno 32] Broken pipe\n" + UNFLUSHED + BROKEN_PIPE),
]


@pytest.mark.parametrize("fault, args, code, stdout, stderr", STREAM_FAULTS,
                         ids=[f"{f.__name__[1:]}: {' '.join(a)}" for f, a, *_ in STREAM_FAULTS])
def test_stream_fault_ends_as_main_does(tmp_path, fault, args, code, stdout, stderr):
    _prepare(tmp_path / "cwd")
    ends = [subprocess.run([*launcher, *args], cwd=tmp_path / "cwd", env=ENV,
                           capture_output=True, text=True, timeout=120, preexec_fn=fault)
            for launcher in (RUN, MAIN)]
    assert [(p.returncode, p.stdout, p.stderr) for p in ends] == [(code, stdout, stderr)] * 2


# a caller's own output, left in the streams' buffers, then the command
BUFFERED = ("import sys\n"
            "sys.stdout.write('out'); sys.stderr.write('err')\n"
            "sys.argv[0] = 'qforge'\n"
            "from qforge.cli import {0}\n"
            "{0}()\n")


@pytest.mark.parametrize("fault, code, stdout, stderr", [
    (None, 0, "out", "err"),
    (_stdout_to_dev_full, 120, "", "err" + UNFLUSHED + NO_SPACE),
    (_stdout_to_a_closed_pipe, 120, "", "err" + UNFLUSHED + BROKEN_PIPE),
], ids=["flushed", "dev-full", "closed-pipe"])
def test_buffered_output_ends_as_main_does(tmp_path, fault, code, stdout, stderr):
    ends = [subprocess.run([sys.executable, "-c", BUFFERED.format(entry), "families", "werner",
                            "0.5", "--out", "w.txt"], cwd=tmp_path, env=ENV, capture_output=True,
                           text=True, timeout=120, preexec_fn=fault)
            for entry in ("run", "main")]
    assert [(p.returncode, p.stdout, p.stderr) for p in ends] == [(code, stdout, stderr)] * 2


def test_reader_closing_early_ends_as_main_does():
    # the reader takes one line of about 1.2 MB and closes the pipe; whether the
    # writer then sees a broken pipe depends on the kernel, so only the two ends agree
    ends = []
    for launcher in (RUN, MAIN):
        proc = subprocess.Popen([*launcher, "plane", "mems", "20001", "--out", "-"], env=ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        ends.append((first, proc.stderr.read(), proc.wait(timeout=120)))
        proc.stderr.close()
    assert ends[0] == ends[1]
    assert ends[0][0] == b"param,tangle,linear_entropy\n"


def test_process_ends_without_running_atexit_handlers(tmp_path):
    # run() skips the interpreter's teardown, atexit included; main() keeps it
    code = ("import atexit, sys\n"
            "atexit.register(print, 'atexit ran', file=sys.stderr)\n"
            "sys.argv[0] = 'qforge'\n"
            "from qforge.cli import {}\n"
            "{}()\n")
    ends = [subprocess.run([sys.executable, "-c", code.format(entry, entry), "families",
                            "werner", "0.5", "--out", "w.txt"], cwd=tmp_path, env=ENV,
                           capture_output=True, text=True, timeout=120)
            for entry in ("run", "main")]
    assert [(p.returncode, p.stderr) for p in ends] == [(0, ""), (0, "atexit ran\n")]
    assert (tmp_path / "w.txt").read_text(encoding="utf-8").startswith("# werner(0.5)\n")


# run() with main() replaced by one ending: an int code takes os._exit, which runs no
# atexit handler; anything else takes the interpreter's ending
ENDING = ("import atexit, sys\n"
          "import qforge.cli\n"
          "def main():\n"
          "    {}\n"
          "qforge.cli.main = main\n"
          "atexit.register(print, 'teardown', file=sys.stderr)\n"
          "qforge.cli.run()\n")


@pytest.mark.parametrize("ending, code, stderr", [
    ("return", 0, ""),
    ("sys.exit()", 0, ""),
    ("sys.exit(4)", 4, ""),
    ("sys.exit('bye')", 1, "bye\nteardown\n"),
    ("raise KeyboardInterrupt", -signal.SIGINT, "KeyboardInterrupt\nteardown\n"),
])
def test_run_takes_the_code_main_ends_with(ending, code, stderr):
    proc = subprocess.run([sys.executable, "-c", ENDING.format(ending)], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, "")
    if code < 0:  # the interrupt's traceback, then the teardown
        assert proc.stderr.startswith("Traceback") and proc.stderr.endswith(stderr)
    else:
        assert proc.stderr == stderr


def test_loading_every_layer_registers_no_atexit_handler():
    code = ("import atexit\n"
            "before = atexit._ncallbacks()\n"
            "import click, numpy\n"
            "import qforge\n"
            "for layer in ('cli', 'compilers', 'elements', 'errors', 'families', 'matrix_io',\n"
            "              'qmath', 'recipe_io', 'spectral', 'synth_pure'):\n"
            "    getattr(qforge, layer)\n"
            "print(before, atexit._ncallbacks())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert after == before
