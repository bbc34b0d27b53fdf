"""Run the command line in a child process under a wall-clock guard.

A regressed hang then fails its test with ``subprocess.TimeoutExpired``
instead of stalling the whole run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the command line as the only child of a fresh interpreter, so that
# the children's peak resident set size is the command line's own.
_MEASURE = """\
import json, resource, subprocess, sys
proc = subprocess.run(sys.argv[2:], stdin=subprocess.DEVNULL, capture_output=True,
                      text=True, timeout=float(sys.argv[1]))
json.dump({"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
           "peak_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss},
          sys.stdout)
"""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli_process(*argv: str, stdin_text: str = "",
                    timeout: float = 10.0) -> subprocess.CompletedProcess:
    """``python -m circledeg.cli *argv`` on ``stdin_text``, with the
    package imported from this checkout's ``src``."""
    return subprocess.run([sys.executable, "-m", "circledeg.cli", *argv],
                          input=stdin_text, capture_output=True, text=True,
                          timeout=timeout, env=_env())


def run_cli_closed_stdout(*argv: str, timeout: float = 10.0) -> tuple[int, str]:
    """``python -m circledeg.cli *argv`` on empty stdin with its stdout a
    pipe whose reader has already gone: the exit code and stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "circledeg.cli", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=_env())
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        return proc.wait(timeout), err
    finally:
        proc.kill()
        proc.stderr.close()


def run_cli_measured(*argv: str, timeout: float = 10.0
                     ) -> tuple[subprocess.CompletedProcess, float]:
    """``run_cli_process(*argv)`` on empty stdin, and the child's peak
    resident set size in MB (Linux reports ``ru_maxrss`` in KiB)."""
    cli = [sys.executable, "-m", "circledeg.cli", *argv]
    outer = subprocess.run([sys.executable, "-c", _MEASURE, str(timeout), *cli],
                           capture_output=True, text=True, timeout=timeout + 10,
                           env=_env())
    assert outer.returncode == 0, outer.stderr
    got = json.loads(outer.stdout)
    proc = subprocess.CompletedProcess(cli, got["returncode"], got["stdout"], got["stderr"])
    return proc, got["peak_kib"] / 1024


def run_python_process(source: str, *argv: str, timeout: float = 10.0
                       ) -> subprocess.CompletedProcess:
    """``python -c source *argv`` with the package imported from this
    checkout's ``src``: a fresh interpreter, so ``sys.modules`` holds
    only what the source and the start-up import."""
    return subprocess.run([sys.executable, "-c", source, *argv], capture_output=True,
                          text=True, timeout=timeout, env=_env())
