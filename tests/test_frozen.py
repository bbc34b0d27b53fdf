"""Value semantics of the 25 record classes.

Each class is a slotted ``Frozen`` subclass.  These tests pin, per class,
what ``@dataclass(frozen=True)`` used to give: field order, structural
``==``, ``hash`` of the field tuple, the ``Name(field=value, ...)`` repr,
refused assignment and deletion, and copy and pickle round trips.  They
also pin the constructor: it takes exactly the fields, positionally, and
the records that only store their arguments are built by ``Frozen``'s own.
"""

from __future__ import annotations

import copy
import json
import pickle
from pathlib import Path

import pytest

from circledeg._frozen import Frozen
from circledeg.abelian import FgAbelianGroup, IntegerMatrix
from circledeg.bundles import (
    MapCatalogue,
    MapModel,
    fiber_preserving_degree_set,
    same_base_pair_degree_set,
)
from circledeg.realize import RealizationCertificate, stabilize, verify_certificate

GOLDEN = Path(__file__).parent / "golden" / "realize-013-dim4.json"

# class name -> (fields in constructor order, a valid change of one field)
CLASSES = {
    "IntegerMatrix": (("rows", "cols", "entries"),
                      lambda x: {"entries": tuple(tuple(v + 1 for v in row)
                                                  for row in x.entries)}),
    "FgAbelianGroup": (("rank", "torsion"), lambda x: {"rank": x.rank + 1}),
    "GroupElement": (("group", "free", "torsion"),
                     lambda x: {"free": tuple(v + 1 for v in x.free)}),
    "DegreeSet": (("finite", "progressions", "excludes_zero_in_progressions"),
                  lambda x: {"finite": x.finite + (max(x.finite) + 1,)}),
    "SequenceB": (("entries",), lambda x: {"entries": x.entries + (7,)}),
    "SearchLimits": (("max_len", "max_entry", "budget"), lambda x: {"budget": x.budget + 1}),
    "TranscriptStep": (("sequence", "sums", "intersection"),
                       lambda x: {"sums": x.sums + (99,)}),
    "DecompositionCertificate": (("target", "sequences", "hull_bound", "caps", "transcript"),
                                 lambda x: {"hull_bound": x.hull_bound + 1}),
    "BaseManifold": (("name", "dim", "h2", "named_classes", "flags", "fixes", "volume"),
                     lambda x: {"name": x.name + "-copy"}),
    "CircleBundle": (("base", "euler"), lambda x: {"euler": x.euler.scale(2)}),
    "SphereProduct": (("dim",), lambda x: {"dim": x.dim + 1}),
    "ConnectedSum": (("summands",), lambda x: {"summands": x.summands + x.summands[:1]}),
    "Stabilized": (("inner", "shift"), lambda x: {"shift": x.shift + 1}),
    "SymbolicRepeat": (("factor", "symbol"), lambda x: {"symbol": x.symbol + "'"}),
    "MapModel": (("degree", "action"), lambda x: {"degree": x.degree + 1}),
    "MapCatalogue": (("maps", "complete"), lambda x: {"complete": not x.complete}),
    "MapContribution": (("index", "degree", "image", "solutions", "contribution"),
                        lambda x: {"index": x.index + 1}),
    "FiberPreservingResult": (("degree_set", "exact", "contributions"),
                              lambda x: {"exact": not x.exact}),
    "PairResult": (("degree_set", "exact", "rule"), lambda x: {"rule": x.rule + "-copy"}),
    "PairClaim": (("index", "domain", "target", "claimed", "rule"),
                  lambda x: {"index": x.index + 1}),
    "Combination": (("pad_symbol", "result_domain", "result_target", "rule"),
                    lambda x: {"rule": "other"}),
    "Stabilization": (("shift", "from_dimension", "to_dimension", "rule"),
                      lambda x: {"rule": "other"}),
    "RealizationCertificate": (("target", "dimension", "base", "class_label",
                                "decomposition", "primes", "multipliers", "pairs",
                                "cross_checks", "combination", "final_set",
                                "stabilizations"),
                               lambda x: {"dimension": x.dimension + 1}),
    "Check": (("id", "ok", "detail"), lambda x: {"ok": not x.ok}),
    "VerificationReport": (("valid", "rows", "first_failure"),
                           lambda x: {"valid": not x.valid}),
}

# the records that only store their arguments, built by Frozen.__init__
STORES_ONLY = {"SymbolicRepeat", "MapContribution", "FiberPreservingResult", "PairResult",
               "TranscriptStep", "DecompositionCertificate", "PairClaim", "Combination",
               "Stabilization", "RealizationCertificate", "Check", "VerificationReport"}


def samples() -> dict:
    """The first instance of each class met walking a fresh object graph."""
    cert = RealizationCertificate.from_json(json.loads(GOLDEN.read_text()))
    g = FgAbelianGroup(1)
    catalogue = MapCatalogue((MapModel(3, IntegerMatrix.from_rows([[4]])),), complete=True)
    report = verify_certificate(cert)
    # a report keeps (id, verdict) rows and builds its Check records on read
    roots = [cert, stabilize(cert, 7), report, report.checks, catalogue,
             fiber_preserving_degree_set(catalogue, g.element([2]), g.element([1])),
             same_base_pair_degree_set(2, 6, cert.base)]
    found: dict = {}
    stack = roots[::-1]
    while stack:
        obj = stack.pop()
        if isinstance(obj, tuple):
            stack.extend(reversed(obj))
        elif type(obj).__name__ in CLASSES:
            found.setdefault(type(obj).__name__, obj)
            fields = CLASSES[type(obj).__name__][0]
            stack.extend(getattr(obj, f) for f in reversed(fields))
    return found


SAMPLES = samples()


def test_every_class_is_sampled_and_slotted():
    assert sorted(SAMPLES) == sorted(CLASSES)
    for name, obj in SAMPLES.items():
        assert type(obj).__slots__ == CLASSES[name][0]
        assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_value_semantics(name):
    fields, change = CLASSES[name]
    x, twin = SAMPLES[name], samples()[name]
    values = tuple(getattr(x, f) for f in fields)

    assert twin is not x and twin == x and not twin != x
    changed = x._replace(**change(x))
    assert changed != x and not changed == x
    assert x._replace() == x
    assert x.__eq__(values) is NotImplemented and x != values
    lookalike = type(name, (type(x),), {})(*values)  # same fields, another class
    assert lookalike != x and x != lookalike

    assert hash(x) == hash(values) == hash(twin)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(x) == f"{name}({shown})"

    with pytest.raises(AttributeError):
        setattr(x, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, fields[-1])
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert tuple(getattr(x, f) for f in fields) == values

    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(back) is type(x) and back == x and hash(back) == hash(x)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_constructor_takes_exactly_the_fields(name):
    fields = CLASSES[name][0]
    x = SAMPLES[name]
    values = tuple(getattr(x, f) for f in fields)
    assert type(x)(*values) == x
    with pytest.raises(TypeError):
        type(x)(*values, None)
    with pytest.raises(TypeError, match="unknown"):
        x._replace(unknown=1)
    assert (type(x).__init__ is Frozen.__init__) == (name in STORES_ONLY)
    if name in STORES_ONLY:
        n = len(fields)
        with pytest.raises(TypeError, match=f"^{name} takes {n} fields, got {n - 1}$"):
            type(x)(*values[:-1])


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_equality_with_itself_skips_the_fields(name, monkeypatch):
    x = SAMPLES[name]

    def refuse(obj):
        raise AssertionError("field tuple built")
    monkeypatch.setattr(type(x), "_astuple", staticmethod(refuse))
    assert x == x and not x != x
