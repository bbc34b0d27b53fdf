"""Count the work a call does as line events in one module's code.

A bound on line events is deterministic, where a bound on seconds can fail
on a loaded machine.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator


@contextmanager
def line_events(module: ModuleType, limit: int) -> Iterator[list[int]]:
    """Counts the line events in frames running ``module``'s code, its
    comprehensions and generator expressions included, into the one-item
    list it yields.  The first event past ``limit`` raises
    ``AssertionError``, so a regressed loop fails at once instead of
    running on under the tracer.  The tracer in place before is restored."""
    count = [0]
    path = module.__file__

    def local(frame, event, arg):
        if event == "line":
            count[0] += 1
            if count[0] > limit:
                raise AssertionError(f"more than {limit} line events in {module.__name__}")
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        yield count
    finally:
        sys.settrace(previous)


@contextmanager
def calls(module: ModuleType, limit: int) -> Iterator[list[int]]:
    """Counts the calls of functions in ``module``'s code, its closures,
    comprehensions and generator expressions included, into the one-item
    list it yields; a generator counts again each time it resumes.  The
    first call past ``limit`` raises ``AssertionError``.  The profiler in
    place before is restored."""
    count = [0]
    path = module.__file__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            count[0] += 1
            if count[0] > limit:
                raise AssertionError(f"more than {limit} calls in {module.__name__}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield count
    finally:
        sys.setprofile(previous)
