"""Timing samples scaled to a fixed reference speed.

The machines this benchmark runs on are shared: as other tenants load the
cores, the same Python work takes 20-30 % longer in one run than in the
next, and the speed drifts over seconds within a run.  Work of one kind
slows by about the same factor, so each sample is divided by the median
of the reference probes timed around it and multiplied by the probe's
nominal time.  The result reads as wall time on a machine where the probe
takes its nominal time.  Probes run no circledeg code, so a change to the
package moves calibrated times as it moves raw ones; the raw times are
reported beside them.
"""

from __future__ import annotations

import bisect
import functools
import statistics
import time

_REFERENCE_ENTRIES = (3, -5, 7, 11, -13, 17, 19, -23, 29, 31, 37, 41, -43, 47)
_REFERENCE_DOC = {"items": [{"id": i, "tags": ["x", i], "sub": {"k": [i, {"v": str(i)}]}}
                            for i in range(20)]}
_REFERENCE_SCHEMA = {
    "type": "object",
    "properties": {"items": {"type": "array", "items": {
        "type": "object",
        "required": ["id", "tags", "sub"],
        "properties": {
            "id": {"type": "integer"},
            "tags": {"type": "array", "items": {"type": ["string", "integer"]}},
            "sub": {"type": "object", "properties": {"k": {"type": "array"}}},
        },
    }}},
}


@functools.cache
def _reference_validator():
    import jsonschema  # not at module level: set-up children never need it
    return jsonschema.Draft202012Validator(_REFERENCE_SCHEMA)


def reference_work() -> int:
    """Fixed work that slows as the measured work does: a set-based
    subset-sum DP (like the decomposition search) and a jsonschema
    validation of a fixed document (like certificate validation); neither
    runs circledeg code."""
    total = sum(1 for _ in _reference_validator().iter_errors(_REFERENCE_DOC))
    for _ in range(4):
        sums = {0}
        for e in _REFERENCE_ENTRIES:
            sums |= {s + e for s in sums}
        total += len(sums)
    return total


def reference_probe() -> float:
    """Seconds taken by one ``reference_work()`` call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


# nominal probe times, close to their medians on a quiet 2-CPU host
REFERENCE_NOMINAL_S = 0.0013  # reference_work()
FLOOR_NOMINAL_S = 0.045  # a child running ``python -c pass``
WINDOW_S = 0.5


class Stopwatch:
    """Times calls and interleaves reference probes.

    A probe runs before a call when ``interval_s`` has passed since the
    last one (0: before every call) and once more when results are read.
    A call's speed factor is the median of the probes that ended within
    ``WINDOW_S`` of it, the probes just before and just after it included.
    """

    def __init__(self, probe, nominal_s: float, interval_s: float) -> None:
        self._probe = probe
        self._nominal_s = nominal_s
        self._interval_s = interval_s
        self._probes: list[tuple[float, float]] = []  # (end time, seconds)
        self._samples: list[tuple] = []  # (tag, start, end)

    def probe(self) -> None:
        seconds = self._probe()
        self._probes.append((time.perf_counter(), seconds))

    def time(self, tag, fn, *args):
        if not self._probes or \
                time.perf_counter() - self._probes[-1][0] >= self._interval_s:
            self.probe()
        start = time.perf_counter()
        outcome = fn(*args)
        self._samples.append((tag, start, time.perf_counter()))
        return outcome

    def results(self) -> list[tuple]:
        """``(tag, raw_s, calibrated_s)`` per call, in call order."""
        self.probe()
        ends = [end for end, _ in self._probes]
        out = []
        for tag, start, end in self._samples:
            before = bisect.bisect_right(ends, start) - 1
            after = bisect.bisect_left(ends, end)
            lo = min(before, bisect.bisect_left(ends, start - WINDOW_S))
            hi = max(after, bisect.bisect_right(ends, end + WINDOW_S) - 1)
            speed = statistics.median(s for _, s in self._probes[lo:hi + 1])
            raw = end - start
            out.append((tag, raw, raw * self._nominal_s / speed))
        return out
