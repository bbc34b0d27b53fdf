"""Spans around circledeg's public entry points, installed from outside.

The benchmark never edits the package.  ``Tracer.install`` replaces each
traced function with a wrapper at every module attribute that holds it,
so ``circledeg.realize.decompose`` and ``circledeg.cli.validate_payload``
(names bound by ``from ... import``) are traced as well as the defining
module's own name.  Per-element hot methods such as
``DegreeSet.contains`` are deliberately left alone: they run millions of
times and a wrapper would dominate what it measures.

A span is ``(name, start, end, parent_index, op_id)``.  Spans are kept in
memory while the run lasts and written out once at the end.  Work
counters are derived from the values crossing the wrapped boundary
(certificates, transcripts, reports, payloads); the time spent deriving
them is recorded as a ``trace.bookkeeping`` span so that it is charged
to the tracer and not to the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs; the span name is "<layer>.<function>" with
# the layer being the module's short name.
FUNCTIONS = (
    ("abelian", "smith_normal_form"),
    ("abelian", "canonicalize_group"),
    ("abelian", "solve_scalar"),
    ("abelian", "unimodular_rational_eigen_check"),
    ("degsets", "decompose"),
    ("degsets", "subsequence_sums"),
    ("degsets", "verify_decomposition"),
    ("bundles", "same_base_pair_degree_set"),
    ("bundles", "expr_from_json"),
    ("bundles", "vertical_degree_set"),
    ("bundles", "fiber_preserving_degree_set"),
    ("bundles", "degree_bound"),
    ("bundles", "finiteness_verdict"),
    ("realize", "build_construction"),
    ("realize", "stabilize"),
    ("realize", "verify_certificate"),
    ("realize", "render_certificate"),
    ("schema", "validate_payload"),
    ("cli", "main"),
)

# (module, class, method) triples; set algebra is per call, not per element.
METHODS = (
    ("degsets", "DegreeSet", "intersect"),
    ("degsets", "DegreeSet", "equals"),
    ("realize", "RealizationCertificate", "to_json"),
    ("realize", "RealizationCertificate", "from_json"),
)

BOOKKEEPING = "trace.bookkeeping"


def _compact_size(obj) -> int:
    return len(json.dumps(obj, separators=(",", ":")))


class Tracer:
    """In-memory span recorder; records only while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    # -- operations

    def run_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under a root span."""
        self._op = op_id
        try:
            return self._call("op", fn, args, {}, None)
        finally:
            self._op = None

    # -- wrapping

    def _call(self, name, fn, args, kwargs, counter):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        result = error = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self.counts, args, result, error)
                self.spans.append((BOOKKEEPING, end, perf_counter(), parent, self._op))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, counter)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every circledeg attribute bound to it."""
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "circledeg" or key.startswith("circledeg.")}
        for layer, func in FUNCTIONS:
            original = getattr(modules["circledeg." + layer], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules["circledeg." + layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            # aliases such as ``__and__ = intersect`` share the function
            for attr, value in list(vars(cls).items()):
                if value is raw:
                    self._restore.append((cls, attr, value))
                    setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis

    def self_durations(self) -> list[float]:
        """Per span: its duration minus the part its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_durations()):
            totals[span[0]] += own
        return dict(totals)

    def op_time(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans
                   if name == "op")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


# -- work counters, derived from what crosses each boundary


def _count_decompose(counts, args, cert, error):
    if error is not None:
        if type(error).__name__ == "ResourceCapError":
            counts["degsets.cap_hits"] += 1
        return
    counts["degsets.sequences"] += len(cert.sequences)
    counts["degsets.sequence_entries"] += sum(len(s) for s in cert.sequences)
    # step 0 is the seed; every later step is one exclusion search
    steps = cert.transcript
    if len(steps) > 1:
        counts["degsets.extraneous"] += len(steps[0].intersection) - len(cert.target)
        counts["degsets.exclusion_searches"] += len(steps) - 1


def _count_verify_decomposition(counts, args, result, error):
    counts["degsets.enumerated_subsets"] += sum(1 << len(s) for s in args[0].sequences)


def _count_subsequence_sums(counts, args, result, error):
    if result is not None:
        counts["degsets.sum_set_elements"] += len(result.finite)


def _count_verify_certificate(counts, args, report, error):
    if report is not None:
        counts["realize.checks_run"] += len(report.checks)
        counts["realize.checks_failed"] += sum(not c.ok for c in report.checks)
    counts["realize.cross_checks"] += len(args[0].cross_checks)


def _count_from_json(counts, args, result, error):
    counts["realize.certificate_bytes"] += _compact_size(args[-1])


def _count_to_json(counts, args, result, error):
    if result is not None:
        counts["realize.certificate_bytes"] += _compact_size(result)


def _count_validate(counts, args, result, error):
    counts["schema.validated_bytes"] += _compact_size(args[1])


COUNTERS = {
    "degsets.decompose": _count_decompose,
    "degsets.verify_decomposition": _count_verify_decomposition,
    "degsets.subsequence_sums": _count_subsequence_sums,
    "realize.verify_certificate": _count_verify_certificate,
    "realize.RealizationCertificate.from_json": _count_from_json,
    "realize.RealizationCertificate.to_json": _count_to_json,
    "schema.validate_payload": _count_validate,
}


def layer_metrics(tracer: Tracer, passes: int, scale: float) -> dict[str, float]:
    """Per-layer self times (s, multiplied by the calibration ``scale``)
    and work counts, each per pass of the workload's operation list."""
    self_s = tracer.self_times()
    counts = tracer.counts

    def t(*names: str) -> float:
        return scale * sum(self_s.get(n, 0.0) for n in names) / passes

    def c(*names: str) -> float:
        return sum(counts.get(n, 0) for n in names) / passes

    abelian_calls = sum(v for k, v in counts.items()
                        if k.startswith("abelian.") and k.endswith(".calls"))
    searches = counts.get("degsets.exclusion_searches", 0)
    op_total = tracer.op_time()
    return {
        "degsets.decompose_s": t("degsets.decompose"),
        "degsets.decompose_calls": c("degsets.decompose.calls"),
        "degsets.cap_hits": c("degsets.cap_hits"),
        "degsets.exclusion_yield":
            counts.get("degsets.extraneous", 0) / searches if searches else 0.0,
        "degsets.sequences": c("degsets.sequences"),
        "degsets.sequence_entries": c("degsets.sequence_entries"),
        "degsets.verify_decomposition_s": t("degsets.verify_decomposition"),
        "degsets.enumerated_subsets": c("degsets.enumerated_subsets"),
        "degsets.subsequence_sums_s": t("degsets.subsequence_sums"),
        "degsets.sum_set_elements": c("degsets.sum_set_elements"),
        "degsets.set_algebra_s": t("degsets.DegreeSet.intersect",
                                   "degsets.DegreeSet.equals"),
        "degsets.set_algebra_calls": c("degsets.DegreeSet.intersect.calls",
                                       "degsets.DegreeSet.equals.calls"),
        "realize.build_self_s": t("realize.build_construction", "realize.stabilize"),
        "realize.verify_self_s": t("realize.verify_certificate"),
        "realize.from_json_s": t("realize.RealizationCertificate.from_json"),
        "realize.to_json_s": t("realize.RealizationCertificate.to_json"),
        "realize.certificate_bytes": c("realize.certificate_bytes"),
        "realize.checks_run": c("realize.checks_run"),
        "realize.checks_failed": c("realize.checks_failed"),
        "realize.cross_checks": c("realize.cross_checks"),
        "schema.validate_s": t("schema.validate_payload"),
        "schema.validate_calls": c("schema.validate_payload.calls"),
        "schema.validated_bytes": c("schema.validated_bytes"),
        "bundles.pair_rule_s": t("bundles.same_base_pair_degree_set"),
        "bundles.pair_rule_calls": c("bundles.same_base_pair_degree_set.calls"),
        "bundles.expr_from_json_s": t("bundles.expr_from_json"),
        "abelian.snf_s": t("abelian.smith_normal_form"),
        "abelian.solve_scalar_s": t("abelian.solve_scalar"),
        "abelian.calls": abelian_calls / passes,
        "cli.main_self_s": t("cli.main"),
        "trace.unattributed_share": self_s.get("op", 0.0) / op_total if op_total else 0.0,
    }
