"""Run the command line in a child process under a wall-clock guard.

A regressed hang then fails its test with ``subprocess.TimeoutExpired``
instead of stalling the whole run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli_process(*argv: str, stdin_text: str = "",
                    timeout: float = 10.0) -> subprocess.CompletedProcess:
    """``python -m circledeg.cli *argv`` on ``stdin_text``, with the
    package imported from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "circledeg.cli", *argv],
                          input=stdin_text, capture_output=True, text=True,
                          timeout=timeout, env=env)
