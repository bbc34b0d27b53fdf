"""circledeg benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload realize-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src`` (it
need not be installed).  Workloads: realize-batch, verify-replay,
cli-cold (see ``workloads.py``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
times are calibrated against reference probes (see ``calibrate.py``) and
the raw wall times are printed on the line before the result.
``--trace 1`` runs the same operation list untraced and traced in
alternation, and reports per-layer self times and work counts per pass of
the list (see ``tracing.py``); for cli-cold the traced operations replay
the request list through ``circledeg.cli.main`` in process, and every
workload adds cold-start probes (``python -c pass`` and
``python -X importtime -c "import circledeg.cli"``).  Spans are written
to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 3
FLOOR_REPS = 5
IMPORT_REPS = 3
PROBE_INTERVAL_S = 0.1
MIN_OPS = 100  # distinct operations, so that p90 has ten beyond it

E2E_UNITS = {"throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_bytes", "bytes"),
                         ("_share", "ratio"), ("_yield", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# set-up: fresh processes that generate the inputs, importing the package
# where generation needs it (verify-replay and cli-cold build certificates)


def floor_stopwatch(children: workloads.Children) -> calibrate.Stopwatch:
    """Calibrates child processes by ``python -c pass`` run before each."""
    return calibrate.Stopwatch(
        lambda: children.run([sys.executable, "-c", "pass"])[3],
        calibrate.FLOOR_NOMINAL_S, 0.0)


def setup(children: workloads.Children, name: str, seed: int) -> tuple[float, float, list]:
    """(calibrated, raw) median set-up seconds and the generated operations."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    watch = floor_stopwatch(children)
    outputs = []
    for _ in range(SETUP_REPS):
        code, out, err, _ = watch.time(None, children.run, argv)
        if code != 0:
            die(f"set-up of {name} failed:\n{err}")
        outputs.append(out)
    if len(set(outputs)) != 1:
        die(f"set-up of {name} is not deterministic for seed {seed}")
    timings = watch.results()
    return (statistics.median(cal for _, _, cal in timings),
            statistics.median(raw for _, raw, _ in timings), json.loads(outputs[0]))


# ---------------------------------------------------------------------------
# measurement


class Gate:
    def __init__(self, workload) -> None:
        self.workload = workload
        self.failures: list[str] = []

    def __call__(self, op, outcome) -> None:
        problem = self.workload.check(op, outcome)
        if problem is not None:
            self.failures.append(problem)


def stopwatch(workload, children) -> calibrate.Stopwatch:
    if workload.spawns_children:
        return floor_stopwatch(children)
    return calibrate.Stopwatch(calibrate.reference_probe, calibrate.REFERENCE_NOMINAL_S,
                               PROBE_INTERVAL_S)


def latency_metrics(per_op: list[list[float]]) -> dict:
    """Throughput over every timing; percentiles over the operations, each
    taken at the median of its repeats in the run, so that the spread of
    the repeats (the machine's) does not widen the distribution."""
    every = [t for times in per_op for t in times]
    each = [statistics.median(times) for times in per_op]
    return {
        "throughput_per_s": len(every) / sum(every),
        "latency_p50_ms": statistics.median(each) * 1e3,
        "latency_p90_ms": p90(each) * 1e3,
    }


def end_to_end(workload, ops, seconds: float, gate: Gate, watch) -> tuple[dict, dict]:
    """Whole passes over ``ops``, at least one, until another pass would
    pass ``seconds``."""
    passes = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            gate(op, watch.time(i, workload.run, op))
        passes += 1
        if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
            break
    raw: list[list[float]] = [[] for _ in ops]
    cal: list[list[float]] = [[] for _ in ops]
    for i, raw_s, cal_s in watch.results():
        raw[i].append(raw_s)
        cal[i].append(cal_s)
    by_kind: dict[str, list[float]] = {}
    for op, times in zip(ops, cal):
        by_kind.setdefault(op["kind"], []).extend(times)
    info = {"samples": len(ops) * passes, "operations": len(ops), "passes": passes,
            "raw": latency_metrics(raw),
            "median_ms_by_kind": {k: statistics.median(v) * 1e3
                                  for k, v in sorted(by_kind.items())}}
    return latency_metrics(cal), info


def cold_probes(children: workloads.Children) -> dict:
    """Interpreter floor and the -X importtime split of ``import circledeg.cli``."""
    floor = [children.run([sys.executable, "-c", "pass"])[3] for _ in range(FLOOR_REPS)]
    splits = []
    for _ in range(IMPORT_REPS):
        code, _, err, _ = children.run(
            [sys.executable, "-X", "importtime", "-c", "import circledeg.cli"])
        if code != 0:
            die(f"import circledeg.cli failed:\n{err}")
        cumulative: dict[str, int] = {}
        for line in err.splitlines():
            fields = line.partition("import time:")[2].split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        splits.append(cumulative)

    def ms(module: str) -> float:
        return statistics.median(s.get(module, 0) for s in splits) / 1e3

    return {
        "cli.interpreter_floor_ms": statistics.median(floor) * 1e3,
        "cli.import_ms": ms("circledeg.cli"),
        "schema.import_ms": ms("circledeg.schema"),
        "schema.jsonschema_import_ms": ms("jsonschema"),
    }


def traced(workload, ops, seconds: float, gate: Gate, watch, children) -> tuple[dict, dict]:
    """Untraced and traced passes in alternation over the same list."""
    tracer = tracing.Tracer()
    passes = 0
    kinds: list[str] = []
    start = time.perf_counter()
    while True:
        for op in ops:
            gate(op, watch.time(False, workload.run, op))
        tracer.install()
        try:
            for op in ops:
                gate(op, watch.time(True, tracer.run_op, len(kinds), workload.run, op))
                kinds.append(op["kind"])
        finally:
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    timings = watch.results()
    traced_s = sum(cal for is_traced, _, cal in timings if is_traced)
    untraced_s = sum(cal for is_traced, _, cal in timings if not is_traced)
    traced_raw_s = sum(raw for is_traced, raw, _ in timings if is_traced)
    metrics = tracing.layer_metrics(tracer, passes, traced_s / traced_raw_s)
    metrics.update(cold_probes(children))
    metrics["cli.exit_mismatches"] = float(getattr(workload, "exit_mismatches", 0))
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload.name}.json")
    return metrics, {"samples": len(timings), "passes": passes,
                     "breakdown": breakdown(tracer, kinds)}


def breakdown(tracer: tracing.Tracer, kinds: list[str]) -> dict:
    """Per operation kind: mean traced op time and the largest self times."""
    out: dict[str, dict] = {}
    for (name, start, end, _, op), own in zip(tracer.spans, tracer.self_durations()):
        entry = out.setdefault(kinds[op], {"ops": 0, "op_ms": 0.0, "self_ms": {}})
        entry["self_ms"][name] = entry["self_ms"].get(name, 0.0) + own * 1e3
        if name == "op":
            entry["ops"] += 1
            entry["op_ms"] += (end - start) * 1e3
    for entry in out.values():
        top = sorted(entry["self_ms"].items(), key=lambda kv: -kv[1])[:5]
        entry["self_ms"] = {k: v / entry["ops"] for k, v in top}
        entry["op_ms"] /= entry["ops"]
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the generated operations as JSON and exit")
    args = parser.parse_args()

    if not (SRC / "circledeg" / "__init__.py").is_file():
        die(f"no package at {SRC / 'circledeg'}; run from a circledeg checkout")
    if not (ROOT / workloads.GOLDEN_DIR).is_dir():
        die(f"no golden files at {ROOT / workloads.GOLDEN_DIR}")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        print(json.dumps(workloads.generate(args.workload, args.seed)))
        return 0

    children = workloads.Children(ROOT, OUT_DIR / f"children-{os.getpid()}")
    try:
        # compile the bytecode in a child, so that neither timings nor this
        # process's peak memory include it; compileall writes it even where
        # PYTHONDONTWRITEBYTECODE is set, and every child reads it
        code, _, err, _ = children.run([sys.executable, "-m", "compileall", "-q",
                                        str(SRC), str(Path(__file__).resolve().parent)])
        if code != 0:
            die(f"compiling the bytecode failed:\n{err}")
        import circledeg
        import circledeg.cli  # noqa: F401  (every module the tracer wraps)
        if Path(circledeg.__file__).resolve().parent != SRC / "circledeg":
            die(f"imported circledeg from {circledeg.__file__}, not from {SRC}")
        setup_s, setup_raw_s, ops = setup(children, args.workload, args.seed)
        if len(ops) < MIN_OPS:
            die(f"{args.workload} has {len(ops)} operations; p90 needs {MIN_OPS}")
        if args.workload == "realize-batch":
            workload = workloads.RealizeBatch()
        elif args.workload == "verify-replay":
            workload = workloads.VerifyReplay()
        elif args.trace:
            workload = workloads.CliReplay(children)
        else:
            workload = workloads.CliCold(children)
        gate = Gate(workload)
        for op in workload.warmup_ops(ops):
            workload.run(op)
        children.peak_rss_mb = 0.0  # from here on: request processes only
        watch = stopwatch(workload, children)
        if args.trace:
            metrics, info = traced(workload, ops, args.seconds, gate, watch, children)
        else:
            metrics, info = end_to_end(workload, ops, args.seconds, gate, watch)
            metrics["setup_s"] = setup_s
            info["raw"]["setup_s"] = setup_raw_s
            if workload.spawns_children:
                metrics["peak_rss_mb"] = children.peak_rss_mb
            else:
                metrics["peak_rss_mb"] = \
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(children.workdir, ignore_errors=True)

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "jsonschema": metadata.version("jsonschema"),
        "search_budget": workloads.SEARCH_BUDGET, "ops_per_pass": len(ops),
    })
    print(json.dumps(info))
    for problem in gate.failures[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    units = E2E_UNITS if not args.trace else {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": info["samples"],
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
