"""Compiled schema checks and the walk that words their rejections,
against jsonschema as the oracle.

Every verdict of a compiled check must equal jsonschema's Draft 2020-12
verdict, and every rejection must carry the text jsonschema's best match
gives, on the golden files, the payloads the CLI reads and writes, and
random mutations of valid ones.  jsonschema is a test dependency only:
the package never imports it.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from functools import lru_cache, partial
from pathlib import Path

import jsonschema
import pytest
from cli_process import run_python_process
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from work_count import line_events

import circledeg
from circledeg import cli as cli_module
from circledeg import realize, schema
from circledeg.abelian import FgAbelianGroup, GroupElement, IntegerMatrix, solution_set_json
from circledeg.bundles import BaseManifold, MapCatalogue
from circledeg.cli import main
from circledeg.degsets import (
    BUDGET_CAP,
    MAX_ENTRY_CAP,
    PROGRESSION_CAP,
    SUM_LENGTH_CAP,
    TARGET_MAGNITUDE_CAP,
    DecompositionCertificate,
    DegreeSet,
    SearchLimits,
)
from circledeg.errors import InputError
from circledeg.schema import schema_for, schema_names, validate_payload

GOLDEN = Path(__file__).parent / "golden"
NAMES = schema_names()
# what a mutation puts in place of a node or under a new key
VALUES = [0, 0.0, 1.0, 2.5, True, False, None, "", [], {}]
# what a type-keeping mutation puts in place of a string or an integer
SAME_TYPE = {str: ["", "zz", "1/0", "-3/4", "hyp-odd-4"],
             int: [0, 1, -1, 7, -(10**30), 10**30, 10**3999]}


@lru_cache(maxsize=None)
def reference(name: str) -> jsonschema.Draft202012Validator:
    return jsonschema.Draft202012Validator(schema_for(name))


def reference_error(name: str, obj: object) -> str | None:
    """The rejection text of the jsonschema-only gate, None if valid."""
    best = jsonschema.exceptions.best_match(reference(name).iter_errors(obj))
    if best is None:
        return None
    where = best.json_path if best.json_path != "$" else "payload"
    return f"invalid {name} at {where}: {best.message}"


class _Every(set):
    """A set holding every name: each definition has had its first payload."""

    def __contains__(self, name: object) -> bool:
        return True


class _Nothing(set):
    """A set that stays empty: each payload is its definition's first."""

    def add(self, name: object) -> None:
        pass


@pytest.fixture
def tiers(monkeypatch):
    """The two tiers of compiled checks, each in turn: the closures and the
    checks generated as source.  Each step makes ``validate_payload`` and
    ``shipped`` check every payload with its tier, and gives the function
    that compiles a ``$defs`` table to that tier's look-up."""
    def each():
        for generated in (False, True):
            monkeypatch.setattr(schema, "_validated", _Every() if generated else _Nothing())
            yield (lambda defs: schema._compile(defs).generated) if generated else schema._compile
    return each


def shipped(name: str) -> schema._Check:
    """The check ``validate_payload`` runs next on a payload of ``name``."""
    lookup = schema._shipped()
    return lookup.generated(name) if name in schema._validated else lookup(name)


def assert_agrees(name: str, obj: object) -> None:
    verdict = shipped(name)(obj, 0)
    assert verdict == reference(name).is_valid(obj), (name, obj)
    try:
        validate_payload(name, obj)
    except InputError as exc:
        assert not verdict and str(exc) == reference_error(name, obj)
    else:
        assert verdict


def run_main(argv: list[str], payload: object = None, stdin: str | None = None
             ) -> tuple[int, str]:
    """``main(argv)`` on ``payload`` as JSON, or on the text ``stdin``."""
    if stdin is None:
        stdin = json.dumps(payload) if payload is not None else ""
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


DFP = {
    "domainGroup": {"rank": 1}, "targetGroup": {"rank": 1},
    "a": {"free": [2]}, "b": {"free": [1]},
    "catalogue": {"complete": True,
                  "maps": [{"degree": 3,
                            "action": {"rows": 1, "cols": 1, "entries": [4]}}]},
}
# schema-valid only: ``finite`` itself accepts bare bundles
NESTED_FINITE = {
    "domain": {"sum": [
        {"bundle": {"base": "knot-glue-3", "euler": {"free": [1], "torsion": []}}},
        {"stabilized": {"inner": {"sphereProduct": 2}, "shift": 3}},
        {"repeat": {"factor": {"sphereProduct": 3}, "symbol": "l"}},
    ]},
    "target": {"bundle": {"base": "hyp-odd-4", "euler": {"free": [2]}}},
    "dBaseFinite": True,
}
# (argv, stdin payload) of the requests the CLI tests make
CLI_REQUESTS = [
    (["snf"], {"matrix": {"rows": 2, "cols": 3, "entries": [4, 6, 8, 2, 4, 8]}}),
    (["group"], {"relations": {"rows": 2, "cols": 2, "entries": [2, 0, 0, 3]}}),
    (["solve-k"], {"group": {"rank": 1, "torsion": []},
                   "a": {"free": [2]}, "c": {"free": [6]}}),
    (["sums", "--seq", "1,3"], None),
    (["sums"], {"sequence": [2, -5, 7]}),
    (["decompose", "--set", "0,1,3"], None),
    (["decompose"], {"set": [0, 2, 5], "maxLen": None, "maxEntry": 9, "budget": 10**5}),
    (["dv"], {"group": {"rank": 0, "torsion": [6]},
              "a": {"torsion": [2]}, "b": {"torsion": [4]}}),
    (["dfp"], DFP),
    (["pair", "-m", "2", "-k", "6"], None),
    (["pair", "-m", "-3", "-k", "6", "--preset", "surface"], None),
    (["pair"], {"m": 5, "k": 5, "classLabel": "b"}),
    (["bound", "--domain-volume", "7/2", "--target-volume", "1/3"], None),
    (["bound"], {"domainVolume": "10", "targetVolume": 1.5}),
    (["finite"], {
        "domain": {"bundle": {"base": "knot-glue-3", "euler": {"free": [1]}}},
        "target": {"bundle": {"base": "hyp-odd-4", "euler": {"free": [2]}}},
    }),
    (["realize"], {"set": [0, 2], "dim": 7, "preset": "knot-glue-3",
                   "maxEntry": None, "budget": 10**6}),
    (["selftest"], None),
]


@lru_cache(maxsize=1)
def corpus() -> list:
    """Golden files, and the payloads the CLI tests read and write."""
    objs = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))]
    for argv, payload in CLI_REQUESTS:
        code, out = run_main(argv, payload)
        assert code == 0, argv
        objs += [obj for obj in (payload, json.loads(out)) if obj is not None]
    code, out = run_main(["realize", "--set", "0,1,3"])
    cert = json.loads(out)
    wrapped = {"certificate": cert, "dim": 9}
    objs += [cert, wrapped]
    for argv, payload in ((["verify"], cert), (["stabilize", "--dim", "8"], cert),
                          (["stabilize"], wrapped)):
        code, out = run_main(argv, payload)
        assert code == 0, argv
        objs.append(json.loads(out))
    return objs


def test_every_shipped_definition_compiles():
    for name in NAMES:  # a fresh compiler each time, so nothing is cached
        assert callable(schema._compile(schema._document()["$defs"])(name))


@pytest.mark.parametrize("name", NAMES)
def test_corpus_verdicts_match_jsonschema(name, tiers):
    for _ in tiers():
        for obj in corpus():
            assert_agrees(name, obj)


@lru_cache(maxsize=1)
def valid_seeds() -> list[tuple[str, object]]:
    """Valid payloads to mutate, each with the schema it matches."""
    cert = realize.build_construction([-2, 0, 1, 4], 3)
    seeds = [
        ("realizationCertificate", realize.build_construction([0, 1, 3], 4).to_json()),
        ("realizationCertificate", realize.stabilize(cert, 7).to_json()),
        ("stabilizeInput", {"certificate": cert.to_json(), "dim": 6}),
        ("verificationReport", realize.verify_certificate(cert).to_json()),
        ("decompositionCertificate", cert.decomposition.to_json()),
        ("finiteInput", NESTED_FINITE),
    ]
    seeds += [("solveOutput", {"solutions": solution_set_json(solutions)})
              for solutions in (DegreeSet(), DegreeSet((-3,)), DegreeSet((), ((2, 6),)))]
    seeds += [(f"{argv[0].removesuffix('-k')}Input", payload)
              for argv, payload in CLI_REQUESTS if payload is not None]
    for name, obj in seeds:
        assert reference(name).is_valid(obj), name
    return seeds


def paths(obj, prefix=()):
    """Every path into ``obj``, the root's included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, item in items:
        yield from paths(item, prefix + (key,))


def at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, seeds=valid_seeds):
    """A valid payload of ``seeds()`` with one to three nodes replaced,
    keys dropped or keys added; a replaced string or integer keeps its
    type half the time, so that many draws stay schema-valid."""
    name, obj = draw(st.sampled_from(seeds()))
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        value = copy.deepcopy(draw(st.sampled_from(VALUES)))
        dicts = [p for p in paths(obj) if isinstance(at(obj, p), dict)]
        typed = [p for p in paths(obj) if p and type(at(obj, p)) in SAME_TYPE]
        kind = draw(st.sampled_from(["replace", "drop", "add"] + ["keep type"] * 3))
        if kind == "keep type" and typed:
            path = draw(st.sampled_from(typed))
            at(obj, path[:-1])[path[-1]] = draw(st.sampled_from(SAME_TYPE[type(at(obj, path))]))
        elif kind == "replace":
            path = draw(st.sampled_from(list(paths(obj))))
            if not path:
                obj = value
                continue
            at(obj, path[:-1])[path[-1]] = value
        elif kind == "drop" and any(at(obj, p) for p in dicts):
            node = at(obj, draw(st.sampled_from([p for p in dicts if at(obj, p)])))
            del node[draw(st.sampled_from(sorted(node)))]
        elif dicts:
            node = at(obj, draw(st.sampled_from(dicts)))
            node[draw(st.sampled_from(["extra", "kind", "inner", "free"]))] = value
    return name, obj


# each example runs every tier, which ``tiers`` sets anew
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_mutations_match_jsonschema(tiers, case):
    name, obj = case
    for _ in tiers():
        assert_agrees(name, obj)
        for other in NAMES:
            assert shipped(other)(obj, 0) == reference(other).is_valid(obj), other


# the converter of each definition that has a ``from_json``
PARSERS = {
    "matrix": IntegerMatrix.from_json,
    "group": FgAbelianGroup.from_json,
    # in a group with as many coordinates as the element has
    "element": lambda obj: GroupElement.from_json(
        FgAbelianGroup(len(obj.get("free", ())), (6,) * len(obj.get("torsion", ()))), obj),
    "degreeSet": DegreeSet.from_json,
    "catalogue": MapCatalogue.from_json,
    "baseManifold": BaseManifold.from_json,
    "decompositionCertificate": DecompositionCertificate.from_json,
    "realizationCertificate": realize.RealizationCertificate.from_json,
}


@lru_cache(maxsize=None)
def seeds_for(name: str) -> list[tuple[str, object]]:
    """Every distinct node of the valid seeds that is valid under ``name``."""
    found: list = []
    for _, obj in valid_seeds():
        for path in paths(obj):
            node = at(obj, path)
            if reference(name).is_valid(node) and node not in found:
                found.append(node)
    assert found, name
    return [(name, node) for node in found]


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_valid_payloads_convert(name, data):
    # from_json checks no shape: whatever the schema accepts converts, or
    # a constructor refuses it with an InputError
    _, obj = data.draw(mutated(partial(seeds_for, name)))
    try:
        validate_payload(name, obj)
    except InputError:
        return
    try:
        PARSERS[name](obj)
    except InputError:
        pass


def test_each_request_is_validated_once(monkeypatch, tmp_path):
    validated: list[str] = []

    def counted(lookup):
        def counting(name):
            validated.append(name)
            return lookup(name)
        return counting
    lookup = counted(schema._shipped())
    lookup.generated = counted(schema._shipped().generated)
    monkeypatch.setattr(schema, "_shipped", lambda: lookup)
    code, out = run_main(["realize", "--set", "0,1,3"])
    cert = json.loads(out)
    requests = CLI_REQUESTS + [(["verify"], cert), (["stabilize", "--dim", "8"], cert),
                               (["stabilize"], {"certificate": cert, "dim": 9})]
    for argv, payload in requests:
        validated.clear()
        code, _ = run_main(argv, payload)
        assert code == 0, argv
        assert len(validated) == (argv != ["selftest"]), (argv, validated)
    # a preset file is one more payload, validated once too
    registry = tmp_path / "bases.json"
    registry.write_text(json.dumps({"bases": [cert["base"]]}))
    monkeypatch.setenv("CIRCLEDEG_PRESETS", str(registry))
    validated.clear()
    assert run_main(["pair", "-m", "2", "-k", "6"])[0] == 0
    assert validated == ["pairInput", "presetRegistry"]


# every subschema is typed, so a keyword meets a value of another type only
# through a type list or another branch of a oneOf
NOT_ZERO = {"type": ["integer", "boolean", "string"], "not": {"const": 0}}
INTEGERS = {"type": "array", "items": {"type": "integer"}}
MIN_ONE = {"type": ["string", "number"], "minimum": 1}
SHORT = {"type": ["string", "integer"], "minLength": 1}
MAX_THREE = {"type": ["number", "string", "boolean"], "maximum": 3}
INT_OR_NONNEGATIVE = {"oneOf": [{"type": "integer"},
                                {"type": ["number", "string"], "minimum": 0}]}
DIGITS = {"type": "object", "properties": {"a": {"type": "string"}},
          "additionalProperties": {"type": "integer", "minimum": 0, "maximum": 9}}


@pytest.mark.parametrize("definition, value, valid", [
    # not: {const: 0} flips the const verdict, so 0 == 0.0 matters
    (NOT_ZERO, 0, False),
    (NOT_ZERO, 0.0, False),
    (NOT_ZERO, False, True),
    (NOT_ZERO, "0", True),
    ({"type": "integer", "not": {"const": 0}}, False, False),
    ({"type": "integer"}, 3.0, True),
    ({"type": "integer"}, 3.5, False),
    ({"type": "integer"}, True, False),
    ({"type": "integer"}, float("inf"), False),
    ({"type": "number"}, True, False),
    ({"type": ["integer", "null"]}, None, True),
    ({"type": ["string", "number"]}, [], False),
    ({"const": 1}, True, False),
    ({"const": 1}, 1.0, True),
    ({"const": True}, 1, False),
    ({"const": True}, True, True),
    ({"const": "a"}, ["a"], False),
    ({"enum": ["finite", "unknown"]}, "finite", True),
    ({"enum": [0, "x"]}, False, False),
    ({"enum": [0, "x"]}, 0.0, True),
    # minimum and minLength ignore the values of other types a type list
    # lets through
    (MIN_ONE, "x", True),
    (MIN_ONE, 0.5, False),
    ({"type": ["boolean", "number"], "minimum": 1}, True, True),
    (SHORT, 5, True),
    (SHORT, "", False),
    ({**INTEGERS, "minItems": 1}, [0], True),
    ({**INTEGERS, "minItems": 1}, [], False),
    # an array keyword, in its branch of a oneOf, lets a string through the other
    ({"oneOf": [INTEGERS, {"type": "string"}]}, "abc", True),
    (INTEGERS, [1, 2.0, "3"], False),
    # so does an object keyword with an array
    ({"oneOf": [{"type": "object", "properties": {"a": {"type": "string"}},
                 "required": ["a"], "additionalProperties": False},
                {"type": "array", "items": {"type": "string"}}]}, [], True),
    ({"type": "object", "properties": {"a": {"type": "string"}},
      "additionalProperties": False}, {"a": 1}, False),
    ({"type": "object", "additionalProperties": {"type": "integer"}},
     {"a": 1, "b": 2.0}, True),
    ({"type": "object", "additionalProperties": {"type": "integer"}}, {"a": "1"}, False),
    ({"type": "object", "properties": {"a": {"type": "integer"}},
      "additionalProperties": False}, {"a": 1, "b": 2}, False),
    # oneOf: two matching branches fail like none
    (INT_OR_NONNEGATIVE, 5, False),
    (INT_OR_NONNEGATIVE, -1.5, False),
    (INT_OR_NONNEGATIVE, "a", True),
    (INT_OR_NONNEGATIVE, -1, True),
    # maximum, like minimum, ignores values of other types
    (MAX_THREE, 3, True),
    (MAX_THREE, 3.5, False),
    (MAX_THREE, "x", True),
    (MAX_THREE, True, True),
    # maxItems bounds an array, and its branch of a oneOf lets a string through
    ({"oneOf": [{**INTEGERS, "maxItems": 1}, {"type": "string", "minLength": 2}]},
     "ab", True),
    ({**INTEGERS, "maxItems": 1}, [1], True),
    ({**INTEGERS, "maxItems": 1}, [1, 2], False),
    ({**INTEGERS, "maxItems": 0}, [], True),
    # a leaf additionalProperties, checked in the object's loop
    (DIGITS, {"b": 9}, True),
    (DIGITS, {"a": "s", "b": 0, "c": 10}, False),
    (DIGITS, {"b": -1}, False),
    (DIGITS, {"b": 5.0}, True),
    (DIGITS, {"b": 10.0}, False),
    (DIGITS, {"b": True}, False),
    (DIGITS, {"a": 1}, False),
    # a leaf array's members, checked by one scan when all are plain ints
    ({**INTEGERS, "items": {"type": "integer", "minimum": 2}}, [3, 2, 9], True),
    ({**INTEGERS, "items": {"type": "integer", "minimum": 2}}, [3, 1, 9], False),
    ({**INTEGERS, "items": {"type": "integer", "maximum": 2}}, [3.0, 2], False),
])
def test_edge_cases_match_jsonschema(definition, value, valid, tiers):
    for compiled in tiers():
        assert compiled({"x": definition})("x")(value, 0) is valid
    assert jsonschema.Draft202012Validator(definition).is_valid(value) is valid


@pytest.mark.parametrize("payload", [
    {"m": 0, "k": 6}, {"m": 0.0, "k": 6}, {"m": False, "k": 6},
    {"m": 3.0, "k": 6}, {"m": 2, "k": 6.5}, {"m": 2, "k": 6, "preset": ""},
])
def test_shipped_edge_cases_match_jsonschema(payload):
    assert_agrees("pairInput", payload)


@pytest.mark.parametrize("payload", [
    {"kind": "progression"}, {"kind": "progression", "base": 2},
    {"kind": "progression", "mod": 3}, {"kind": "empty", "base": 0},
    {"kind": "progression", "base": 2, "mod": -1}, {"kind": "singleton", "base": 2},
])
def test_solution_set_kinds_need_their_keys(payload):
    # a progression needs ``base`` and ``mod``; the empty set takes neither
    with pytest.raises(InputError) as err:
        validate_payload("solutionSet", payload)
    assert str(err.value) == reference_error("solutionSet", payload)


class _Int(int):
    """An int that is not exactly an int, which no leaf takes in its loop."""


class _Str(str):
    """A str that is not exactly a str."""


# what a leaf check takes in its loop only when it is exactly an int or a
# str, and values of other types beside them
NEAR_LEAVES = [True, False, 1.0, 1.5, float("inf"), -float("inf"), 2**70, -(2**70),
               _Int(5), "5", _Str("5"), None, [], {}]


def _with(cert: dict, key: str, value: object) -> dict:
    return {**cert, key: value}


@pytest.mark.parametrize("value", NEAR_LEAVES, ids=repr)
def test_leaf_checks_agree_on_values_near_their_type(value, tiers):
    for _ in tiers():
        leaf_checks_agree(value)


def leaf_checks_agree(value: object) -> None:
    cert = golden_certificate()
    # an integer and a string property of an object
    assert_agrees("realizationCertificate", _with(cert, "dimension", value))
    assert_agrees("realizationCertificate", _with(cert, "classLabel", value))
    assert_agrees("group", {"rank": value})
    assert_agrees("caps", {"budget": value, "maxEntry": value})
    # a member of an integer array and of a string array, alone and among
    # members that pass
    for members in ([value], [3, value], [value, 3, 5]):
        assert_agrees("realizationCertificate", _with(cert, "primes", members))
        assert_agrees("realizationCertificate", _with(cert, "multipliers", members))
        assert_agrees("group", {"rank": 0, "torsion": members})
    for members in ([value], ["a", value], [value, "a"]):
        assert_agrees("baseManifold", {"name": "b", "dim": 3, "group": {"rank": 0},
                                       "fixes": members})


@pytest.mark.parametrize("name, place, low, high", [
    ("realizationCertificate", lambda v: _with(golden_certificate(), "dimension", v), 3, None),
    ("realizationCertificate", lambda v: _with(golden_certificate(), "primes", [5, v, 7]),
     2, None),
    ("caps", lambda v: {"maxEntry": v}, 1, 2**53),
    ("caps", lambda v: {"budget": v}, 1, 10**8),
    ("group", lambda v: {"rank": 1, "torsion": [v]}, 2, None),
    ("group", lambda v: {"rank": 1, "torsion": [v, 3, 2**70]}, 2, None),
], ids=["dimension", "primes", "caps.maxEntry", "caps.budget", "torsion", "torsion-among"])
def test_leaf_bounds_agree_at_their_edges(name, place, low, high, tiers):
    edges = [edge for bound, outward in ((low, -1), (high, 1)) if bound is not None
             for edge in ((bound + outward, False), (bound, True), (bound - outward, True))]
    for _ in tiers():
        for value, valid in edges:
            for number in (value, float(value), _Int(value)):
                assert_agrees(name, place(number))
            assert shipped(name)(place(value), 0) is valid


@pytest.mark.parametrize("members", [
    [], [2], [2, 3], [2, True], [True, 2], [2, 2.0], [2.0, 2], [2, 2.5], [2, 1], [1, 2],
    [2, _Int(1)], [2, _Int(3)], [2**70, 2], [2, "2"], [2, None], [2, [2]], [False],
], ids=repr)
def test_integer_arrays_agree_whatever_their_members(members, tiers):
    for _ in tiers():
        assert_agrees("group", {"rank": 0, "torsion": members})
        assert_agrees("element", {"free": members})
        assert_agrees("realizationCertificate", _with(golden_certificate(), "primes", members))


SPHERE = {"sphereProduct": 2}


def test_manifold_expr_one_of_edges():
    bundle = {"bundle": {"base": "x", "euler": {}}}
    for expr in [
        # no tag
        {}, {"x": 1}, {"inner": SPHERE, "shift": 3},
        # two tags, the first one valid or not
        {**bundle, "sphereProduct": 2}, {"sphereProduct": 2, "sum": [SPHERE]},
        {"sum": [SPHERE], "sphereProduct": 2}, {"sphereProduct": 1, "sum": [SPHERE]},
        # a tag and a key that is no tag, before or after it
        {"sphereProduct": 2, "x": 1}, {"x": 1, "sphereProduct": 2},
        {"stabilized": {"inner": SPHERE, "shift": 3}, "shift": 3},
        # not a dict
        None, 2, True, "sum", [], [SPHERE],
        # a tag and a value its branch takes or rejects, the empty sum among them
        {"sum": [bundle]}, {"sum": []}, {"sum": [SPHERE, 3]}, {"sum": [{}]},
        {"sphereProduct": True}, {"stabilized": {"inner": SPHERE, "shift": 2}},
        {"repeat": {"factor": SPHERE, "symbol": ""}},
    ]:
        assert_agrees("manifoldExpr", expr)
        cert = golden_certificate()
        cert["pairs"][0]["domain"] = expr
        assert_agrees("realizationCertificate", cert)


def test_one_of_dispatches_by_tag_only_where_every_branch_has_one():
    lookup = schema._shipped()
    assert lookup("manifoldExpr").__name__ == "by_tag"
    # both branches require ``kind``
    assert lookup("solutionSet").__name__ == "counting"
    # once the stabilized branch also lists ``repeat``, the repeat branch
    # requires no key that only it lists, and a dict with both keys is
    # valid under the stabilized branch alone
    defs = copy.deepcopy(schema._document()["$defs"])
    stabilized, repeat = defs["manifoldExpr"]["oneOf"][3:]
    stabilized["properties"]["repeat"] = repeat["properties"]["repeat"]
    check = schema._compile(defs)("manifoldExpr")
    assert check.__name__ == "counting"
    plain = jsonschema.Draft202012Validator({"$defs": defs, "$ref": "#/$defs/manifoldExpr"})
    inner = {"inner": SPHERE, "shift": 3}
    factor = {"factor": SPHERE, "symbol": "l"}
    for expr in ({"repeat": factor, "stabilized": inner}, {"stabilized": inner, "repeat": factor},
                 {"repeat": factor}, {"stabilized": inner}, {"repeat": inner},
                 {"repeat": factor, "sum": [SPHERE]}, {}):
        assert check(expr, 0) is plain.is_valid(expr), expr
    assert check({"repeat": factor, "stabilized": inner}, 0)
    # a branch open to other keys may take another branch's tag
    open_branch = {"oneOf": [
        {"type": "object", "required": ["a"], "properties": {"a": {"type": "integer"}},
         "additionalProperties": {"type": "integer"}},
        {"type": "object", "required": ["b"], "properties": {"b": {"type": "integer"}},
         "additionalProperties": False}]}
    check = schema._compile({"x": open_branch})("x")
    assert check.__name__ == "counting"
    assert check({"b": 1, "a": 1}, 0)
    assert jsonschema.Draft202012Validator(open_branch).is_valid({"b": 1, "a": 1})


@pytest.mark.parametrize("key", ["b c", "it's", "1x", "a\\b", "x-y", "_u", "ü"])
def test_path_quotes_a_key_that_is_not_an_identifier(key):
    # mutations only add identifier keys, so none reaches the quoted form
    base = {"name": "b", "dim": 3, "group": {"rank": 1},
            "classes": {"ok": {"free": [1]}, key: {"free": ["1"]}}}
    assert_agrees("baseManifold", base)
    assert "['" in reference_error("baseManifold", base)


def test_search_caps_are_bounded_alike_in_every_copy():
    defs = schema._document()["$defs"]
    copies = [{key: defs[name]["properties"][key] for key in ("maxLen", "maxEntry", "budget")}
              for name in ("caps", "decomposeInput", "realizeInput")]
    assert copies[0] == copies[1] == copies[2]
    # the maxima are the ones SearchLimits.resolve keeps its caps within; the
    # default budget stays within its bound, and no longer sequence could
    # have its sums taken
    assert {key: prop["maximum"] for key, prop in copies[0].items()} == {
        "maxLen": SUM_LENGTH_CAP, "maxEntry": MAX_ENTRY_CAP, "budget": BUDGET_CAP}
    assert BUDGET_CAP >= SearchLimits().budget
    # a target's members are bounded so its default maxEntry stays within
    for name in ("decomposeInput", "realizeInput"):
        members = defs[name]["properties"]["set"]["items"]
        assert (members["minimum"], members["maximum"]) == \
            (-TARGET_MAGNITUDE_CAP, TARGET_MAGNITUDE_CAP)
    assert 4 * TARGET_MAGNITUDE_CAP == MAX_ENTRY_CAP


def test_progression_arrays_are_bounded_by_the_cap():
    # every copy of a degree set's progressions holds at most as many as a
    # DegreeSet may, so that an oversized one fails at the schema
    defs = schema._document()["$defs"]
    for name in ("degreeSet", "pairOutput"):
        assert defs[name]["properties"]["progressions"]["maxItems"] == PROGRESSION_CAP
    # each map of a catalogue adds at most one progression to a dfp result
    assert defs["catalogue"]["properties"]["maps"]["maxItems"] == PROGRESSION_CAP
    at_cap = {"finite": [], "progressions": [{"base": 0, "mod": 1}] * PROGRESSION_CAP}
    validate_payload("degreeSet", at_cap)
    at_cap["progressions"].append({"base": 0, "mod": 1})
    with pytest.raises(InputError, match=r"degreeSet at \$\.progressions: "):
        validate_payload("degreeSet", at_cap)


@pytest.mark.parametrize("definition", [
    {"type": "string", "pattern": "^a"},
    {"type": "integer", "exclusiveMaximum": 3},
    {"type": "object", "properties": {"a": {"title": "nested"}},
     "additionalProperties": False},
    {"$ref": "https://example.invalid/other.schema.json"},
    {"$ref": "other.schema.json#/$defs/x"},
    {"$ref": "#/$defs/missing"},
    {"$ref": "#/definitions/x"},
    {"type": "decimal"},
    {"const": [0]},
    {"type": "array", "items": True},
    # a type list that is empty or names a container
    {"type": []},
    {"type": ["array", "null"]},
    {"type": ["object"]},
    # a subschema with none of type, $ref, const, enum and oneOf
    {},
    {"minimum": 1},
    {"not": {"type": "string"}},
    {"type": "integer", "not": {}},
    # object keywords without "type": "object", or an object open to other keys
    {"required": ["a"]},
    {"properties": {"a": {"type": "string"}}, "type": "string"},
    {"type": "object"},
    {"type": "object", "additionalProperties": True},
    {"type": "object", "properties": {"a": {}}, "additionalProperties": False},
    # array keywords without "type": "array", or an array without items
    {"items": {"type": "integer"}},
    {"maxItems": 1, "type": ["string", "null"]},
    {"type": "array"},
    {"type": "array", "maxItems": 2},
])
def test_compile_refuses_what_it_does_not_know(definition, tiers):
    for compiled in tiers():
        with pytest.raises(ValueError):
            compiled({"x": definition})("x")


def subschemas(schema: dict):
    """``schema`` and every subschema below it."""
    yield schema
    below = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    below += [schema[key] for key in ("additionalProperties", "items", "not")
              if isinstance(schema.get(key), dict)]
    for sub in below:
        yield from subschemas(sub)


def test_every_shipped_subschema_compiles_to_a_check():
    # the rejection walk skips a subtree only through its check
    lookup = schema._shipped()
    for name in NAMES:
        lookup(name)
    everything = [sub for definition in schema._document()["$defs"].values()
                  for sub in subschemas(definition)]
    assert lookup.checks.keys() == {id(sub) for sub in everything}


def test_compiling_the_certificate_checks_is_bounded():
    # finding the leaves and the tags costs compile time, which every cold
    # process pays: 3,690 line events in schema when no leaf or tag was
    # looked for (4,355 on Python 3.11)
    defs = schema._document()["$defs"]
    with line_events(schema, 5_000):
        schema._compile(defs)("realizationCertificate")


def test_a_definitions_second_payload_runs_generated_checks(monkeypatch):
    # generating the certificate's checks costs about ten times compiling
    # its closures, which a process validating one payload would pay for
    # nothing
    lookup = schema._compile(schema._document()["$defs"])
    monkeypatch.setattr(schema, "_shipped", lambda: lookup)
    monkeypatch.setattr(schema, "_validated", set())
    cert = golden_certificate()
    low = r"at \$\.dimension: 2 is less than the minimum of 3"
    with pytest.raises(InputError, match=low):  # a rejected payload counts too
        validate_payload("realizationCertificate", {**cert, "dimension": 2})
    validate_payload("pairInput", {"m": 2, "k": 6})
    assert lookup.generated.source == []
    validate_payload("realizationCertificate", cert)
    generated = len(lookup.generated.source)
    assert generated > 0
    with pytest.raises(InputError, match=low):
        validate_payload("realizationCertificate", {**cert, "dimension": 2})
    assert len(lookup.generated.source) == generated
    validate_payload("pairInput", {"m": 2, "k": 6})
    assert len(lookup.generated.source) > generated


def test_generated_source_binds_every_key_bound_and_constant():
    # no text of the document reaches the source: each key, bound and
    # constant is a name bound in its namespace
    generated = schema._compile(schema._document()["$defs"]).generated
    for name in NAMES:
        generated(name)
    literals = {node.value for node in ast.walk(ast.parse("\n".join(generated.source)))
                if isinstance(node, ast.Constant)}
    assert literals <= {True, False, None, 1}, literals


@pytest.mark.parametrize("argv", [["verify"], ["stabilize", "--dim", "7"]])
def test_a_cold_certificate_request_generates_no_source(argv):
    script = ("import os, sys\n"
              "from circledeg import schema\n"
              "from circledeg.cli import main\n"
              "assert main(sys.argv[1:] + ['--out', os.devnull]) == 0\n"
              "assert schema._shipped().generated.source == [], 'source was generated'\n")
    proc = run_python_process(script, *argv, "--in", str(GOLDEN / "realize-013-dim4.json"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("edit", [
    lambda defs: defs["pairInput"].pop("additionalProperties"),
    lambda defs: defs["pairInput"]["properties"]["m"].pop("type"),
    lambda defs: defs["sequence"].pop("items"),
], ids=["open-object", "untyped-property", "array-without-items"])
def test_compile_refuses_an_edit_that_would_weaken_the_document(edit):
    defs = copy.deepcopy(schema._document()["$defs"])
    edit(defs)
    lookup = schema._compile(defs)
    with pytest.raises(ValueError):
        for name in defs:
            lookup(name)


def golden_certificate() -> dict:
    return json.loads((GOLDEN / "realize-013-dim4.json").read_text())


def _drop_primes(cert):
    del cert["primes"]


def _string_dimension(cert):
    cert["dimension"] = str(cert["dimension"])


def _string_multiplier(cert):
    cert["multipliers"][0] = "x"


def _extra_key(cert):
    cert["note"] = "not in the schema"


def _deep_summand(cert):
    # a bundle inside a sum inside a sum: the rejection comes through the
    # context of manifoldExpr's oneOf
    cert["combination"]["resultDomain"]["sum"][1]["sum"][0]["bundle"]["euler"] = "14"


@pytest.mark.parametrize("edit", [_drop_primes, _string_dimension, _string_multiplier,
                                  _extra_key, _deep_summand])
def test_guided_rejection_text_is_the_plain_validators(edit):
    cert = golden_certificate()
    edit(cert)
    with pytest.raises(InputError) as err:
        validate_payload("realizationCertificate", cert)
    assert str(err.value) == reference_error("realizationCertificate", cert)


def test_max_items_rejection_names_the_length_not_the_array():
    # jsonschema's own text is the repr of the whole array; the best match
    # keeps its path and keyword
    cert = golden_certificate()
    cert["pairs"][0]["claimed"] = {"finite": [0], "progressions": [
        {"base": 1, "mod": m} for m in range(2, 2 + PROGRESSION_CAP + 1)]}
    best = schema._best_match(schema._errors(
        schema._document()["$defs"]["realizationCertificate"], cert, ()))
    plain = jsonschema.exceptions.best_match(
        reference("realizationCertificate").iter_errors(cert))
    assert (schema._json_path(best.path), best.keyword) == \
        (plain.json_path, plain.validator) == ("$.pairs[0].claimed.progressions", "maxItems")
    assert plain.message.endswith("}] is too long")
    with pytest.raises(InputError) as err:
        validate_payload("realizationCertificate", cert)
    assert str(err.value) == (
        "invalid realizationCertificate at $.pairs[0].claimed.progressions: "
        f"array of {PROGRESSION_CAP + 1} items is longer than the maximum of {PROGRESSION_CAP}")


def descended_paths(validator, obj) -> list:
    """The ``path`` of every ``descend`` call while ``validator`` lists the
    errors of ``obj``."""
    seen: list = []
    descend = type(validator).descend

    def counting(self, *args, **kwargs):  # jsonschema passes ``path`` by name
        seen.append(kwargs.get("path"))
        return descend(self, *args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(validator), "descend", counting)
        list(validator.iter_errors(obj))
    return seen


def test_guided_rejection_walks_only_rejected_subtrees(monkeypatch):
    cert = golden_certificate()
    cert["dimension"] = "4"
    walked: list = []
    errors = schema._errors

    def counting(sub, value, path):
        walked.append(path)
        return errors(sub, value, path)
    monkeypatch.setattr(schema, "_errors", counting)
    with pytest.raises(InputError, match=r"at \$\.dimension: '4' is not of type"):
        validate_payload("realizationCertificate", cert)
    assert ("dimension",) in walked
    assert not {"pairs", "crossChecks", "decomposition"} & {p[0] for p in walked if p}
    plain = descended_paths(reference("realizationCertificate"), cert)
    assert {"pairs", "crossChecks", "decomposition"} <= set(plain)


@lru_cache(maxsize=1)
def cli_fuzz_seeds() -> list[tuple[tuple[str, ...], object]]:
    """The argv and payload of each request the CLI fuzz test mutates: the
    golden certificate through ``verify`` and ``stabilize``, and each CLI
    request with a payload through its own subcommand."""
    cert = golden_certificate()
    seeds = [(("verify",), cert), (("stabilize", "--dim", "7"), cert)]
    return seeds + [(tuple(argv), payload) for argv, payload in CLI_REQUESTS
                    if payload is not None]


def shifted(obj, by: int):
    """``obj`` with ``by`` added to each integer leaf."""
    if isinstance(obj, dict):
        return {key: shifted(item, by) for key, item in obj.items()}
    if isinstance(obj, list):
        return [shifted(item, by) for item in obj]
    return obj + by if type(obj) is int else obj


@st.composite
def grown(draw, seeds):
    """A mutation of ``seeds()``; half the time one nonempty array in it
    is then grown to 64, 1100 or 3000 items by repeating its items, and
    half of those times the integer leaves of the item at index i are
    shifted by i, so the copies of an item stay distinct."""
    name, obj = draw(mutated(seeds=seeds))
    arrays = [p for p in paths(obj) if p and isinstance(at(obj, p), list) and at(obj, p)]
    if arrays and draw(st.booleans()):
        path = draw(st.sampled_from(arrays))
        items = at(obj, path)
        size = draw(st.sampled_from([64, 1100, 3000]))
        by = draw(st.sampled_from([0, 1]))
        at(obj, path[:-1])[path[-1]] = [shifted(items[i % len(items)], by * i)
                                        for i in range(size)]
    return name, obj


# the arrays ``grown_valid`` grows, and the sizes it grows them to: the
# schema bounds progressions and catalogue maps to 1024 items, and a matrix
# grows less, as ``snf`` builds and prints square transforms as wide as
# the matrix (a 1 x 3000 matrix took ~12 s before ``SNF_SIZE_CAP``; a
# squarer one of 3000 entries is still eliminated in full)
GROWN_SIZES = dict.fromkeys(("finite", "target", "sums", "intersection", "primes",
                             "multipliers", "crossChecks", "sequence", "sequences",
                             "set", "free", "torsion"), (64, 1100, 3000))
GROWN_SIZES |= {"progressions": (64, 1024), "maps": (64, 1024), "entries": (16, 64, 256)}


@st.composite
def grown_valid(draw, seeds):
    """A request of ``seeds()`` with one nonempty array of ``GROWN_SIZES``
    grown by repeating its items, the copy at index i shifted by i so that
    items stay distinct, and the rest of the payload made to agree, so
    that the request passes the schema and reaches the algebra: a grown
    matrix gets rows * cols equal to its entry count, a grown group or
    element gives the group's elements as many coordinates, and a
    catalogue map keeps its action; a group's torsion stays a divisibility
    chain, a sequence's zero entries become 1, and a target set keeps 0."""
    def growable(obj) -> list:
        # coordinates must fit a group the payload gives, and an action
        # the catalogue's groups
        return [p for p in paths(obj) if p and p[-1] in GROWN_SIZES
                and isinstance(at(obj, p), list) and at(obj, p)
                and (p[-1] not in ("free", "torsion") or "group" in obj)
                and "action" not in p]
    argv, obj = draw(st.sampled_from([seed for seed in seeds() if growable(seed[1])]))
    obj = copy.deepcopy(obj)
    path = draw(st.sampled_from(growable(obj)))
    parent, key = at(obj, path[:-1]), path[-1]
    items = parent[key]
    group = obj.get("group")
    chain = group and group.get("torsion") or [2]
    size = draw(st.sampled_from(GROWN_SIZES[key]))
    grown = [shifted(items[i % len(items)], i) for i in range(size)]
    if key == "maps":
        grown = [{**items[i % len(items)], "degree": m["degree"]} for i, m in enumerate(grown)]
    elif key == "entries":
        parent["rows"] = draw(st.sampled_from([d for d in range(1, size + 1) if size % d == 0]))
        parent["cols"] = size // parent["rows"]
    elif key == "set" and 0 not in grown:
        grown.append(0)
    parent[key] = grown
    if group is not None and path[0] in ("group", "a", "b", "c"):
        if key == "free":
            group["rank"] = size
        elif key == "torsion":
            group["torsion"] = sorted(chain * size)[:size]
        for name in {"a", "b", "c"} & obj.keys():
            element = obj[name]
            for part, n in (("free", group["rank"]), ("torsion", len(group.get("torsion", [])))):
                coords = element.get(part) or [0]
                element[part] = [coords[i % len(coords)] + i for i in range(n)]
    for p in paths(obj):
        if p and (p[-1] == "sequence" or len(p) > 1 and p[-2] == "sequences"):
            at(obj, p[:-1])[p[-1]] = [x or 1 for x in at(obj, p)]
    return argv, obj


def _cross_pair_out_of_range() -> tuple[tuple[str, ...], object]:
    cert = golden_certificate()
    cert["crossChecks"][0]["j"] = 7
    return ("stabilize", "--dim", "7"), cert


def digit_limit_requests() -> dict[str, tuple[tuple[str, ...], object]]:
    """Requests whose output, or a verification detail, holds an integer
    past Python's 4300-digit int-to-str limit."""
    cert = golden_certificate()
    cert["decomposition"]["sequences"][0] = [10**4000 + 1, 10**4000 + 1]
    group = {"rank": 0, "torsion": [10**4000]}
    dfp = {"domainGroup": group, "targetGroup": group,
           "a": {"torsion": [1]}, "b": {"torsion": [1]},
           "catalogue": {"complete": True, "maps": [
               {"degree": 10**4000, "action": {"rows": 1, "cols": 1, "entries": [1]}}]}}
    return {"sums": (("sums",), {"sequence": [9 * 10**4299, 9 * 10**4299]}),
            "dfp": (("dfp",), dfp),
            "verify": (("verify",), cert)}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grown(seeds=cli_fuzz_seeds))
@example(_cross_pair_out_of_range())
# seeds past the length cap, which decompose once summed and searched on
@example((("decompose",), {"set": list(range(1401))}))
@example((("realize",), {"set": list(range(3001))}))
@example(digit_limit_requests()["sums"])
@example(digit_limit_requests()["dfp"])
@example(digit_limit_requests()["verify"])
def test_mutated_requests_exit_with_a_documented_code(case):
    # an exception escaping main fails the test on its own; the payload is
    # written outside the timed region, as 3000 integers of 4000 digits
    # take the encoder most of a second
    argv, payload = case
    stdin = json.dumps(payload)
    for fmt in ("json", "text"):
        start = time.perf_counter()
        code, _ = run_main([*argv, "--format", fmt], stdin=stdin)
        assert code in (0, 1, 2, 3), (argv, fmt)
        assert time.perf_counter() - start < 2.0, (argv, fmt)


def request_schema(argv: tuple[str, ...]) -> str:
    """The schema a request's payload must match; ``stabilize`` reads a
    certificate here."""
    spec = next(spec for spec in cli_module._COMMANDS if spec.name == argv[0])
    return spec.schema or "realizationCertificate"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grown_valid(seeds=cli_fuzz_seeds))
def test_grown_valid_requests_reach_the_algebra(case):
    # every payload passes the schema, so that an exit 1 comes from the
    # parse or the algebra; an exception escaping main fails the test
    argv, payload = case
    validate_payload(request_schema(argv), payload)
    stdin = json.dumps(payload)
    start = time.perf_counter()
    code, _ = run_main([*argv, "--format", "json"], stdin=stdin)
    assert code in (0, 1, 2, 3), argv
    assert time.perf_counter() - start < 2.0, argv


def test_unknown_name_raises_key_error():
    with pytest.raises(KeyError, match="no schema named 'nope'"):
        validate_payload("nope", {})


def nested_expr(levels: int, shift: int = 3) -> dict:
    expr: dict = {"sphereProduct": 2}
    for _ in range(levels):
        expr = {"stabilized": {"inner": expr, "shift": shift}}
    return expr


def test_nesting_bound_is_exact(tiers):
    # finiteInput -> domain -> one object and its "stabilized" per level
    levels = (schema.MAX_NESTING - 2) // 2
    deepest = {"domain": nested_expr(levels), "target": {"sphereProduct": 2}}
    assert not schema._nested_deeper_than(deepest, schema.MAX_NESTING)
    assert schema._nested_deeper_than(deepest, schema.MAX_NESTING - 1)
    bad = {"domain": nested_expr(levels, shift=2), "target": {"sphereProduct": 2}}
    deeper = {"domain": {"sum": [nested_expr(levels)]}, "target": {"sphereProduct": 2}}
    for _ in tiers():
        validate_payload("finiteInput", deepest)
        # a rejection at the bound is still worded as jsonschema words it
        assert_agrees("finiteInput", bad)
        with pytest.raises(InputError, match="finiteInput at payload: nested more than"):
            validate_payload("finiteInput", deeper)
    assert not schema._nested_deeper_than(5, 0)
    assert schema._nested_deeper_than([], 0)


def deep_list(levels: int) -> list:
    """A list nested ``levels`` deep, built without recursion."""
    value: list = []
    for _ in range(levels - 1):
        value = [value]
    return value


def gate_error(name: str, obj: object) -> str | None:
    """The rejection text of ``validate_payload``, None if valid."""
    try:
        validate_payload(name, obj)
    except InputError as exc:
        return str(exc)
    return None


def walk_first_error(name: str, obj: object) -> str | None:
    """The rejection text of a gate that walks the payload for its depth
    before any check runs, None if valid."""
    if schema._nested_deeper_than(obj, schema.MAX_NESTING):
        return f"invalid {name} at payload: nested more than {schema.MAX_NESTING} levels deep"
    return reference_error(name, obj)


WRAPS = {
    "stabilized": lambda expr: {"stabilized": {"inner": expr, "shift": 3}},
    "sum": lambda expr: {"sum": [expr]},
    "repeat": lambda expr: {"repeat": {"factor": expr, "symbol": "l"}},
}


def expr_nesting(kind: str, levels: int) -> dict:
    """A manifold expression nesting exactly ``levels`` containers deep:
    two-level wraps of ``kind`` around a sphere product (one level) or,
    for an even count, a bundle (four levels)."""
    leaf, leaf_levels = (({"sphereProduct": 2}, 1) if levels % 2 else
                         ({"bundle": {"base": "hyp-odd-4", "euler": {"free": [1]}}}, 4))
    for _ in range((levels - leaf_levels) // 2):
        leaf = WRAPS[kind](leaf)
    return leaf


def payload_nesting(name: str, kind: str, levels: int) -> dict:
    """A ``name`` payload nesting exactly ``levels`` deep through its
    ``domain`` or its combination's ``resultDomain``."""
    if name == "finiteInput":
        return {"domain": expr_nesting(kind, levels - 1), "target": {"sphereProduct": 2}}
    cert = golden_certificate()
    cert["combination"]["resultDomain"] = expr_nesting(kind, levels - 2)
    return cert


@pytest.mark.parametrize("unknown_key", [False, True])
@pytest.mark.parametrize("levels", range(schema.MAX_NESTING - 2, schema.MAX_NESTING + 3))
@pytest.mark.parametrize("kind", sorted(WRAPS))
@pytest.mark.parametrize("name", ["finiteInput", "realizationCertificate"])
def test_folded_nesting_bound_matches_walking_first(name, kind, levels, unknown_key, tiers):
    obj = payload_nesting(name, kind, levels)
    if unknown_key:
        # first in the object, so the compiled check rejects the key before
        # it reaches the expression, and never looks at the value
        obj = {"unknown": deep_list(levels - 1), **obj}
    assert schema._nested_deeper_than(obj, levels - 1)
    assert not schema._nested_deeper_than(obj, levels)
    outcomes = []
    for _ in tiers():
        assert gate_error(name, obj) == walk_first_error(name, obj)
        assert (gate_error(name, obj) is None) == (levels <= schema.MAX_NESTING
                                                   and not unknown_key)
        try:
            outcomes.append(shipped(name)(obj, 0))
        except schema._TooDeep:
            outcomes.append(schema._TooDeep)
    # each tier stops at the same container
    assert outcomes[0] is outcomes[1]


@pytest.mark.parametrize("name, place", [
    ("finiteInput", lambda obj, deep: obj.update(domain=deep)),
    ("pairInput", lambda obj, deep: obj.update(m=deep)),
    ("realizationCertificate",
     lambda obj, deep: obj["pairs"][0].update(domain={"sum": deep})),
])
def test_very_deep_value_is_refused_by_the_bound(name, place, tiers):
    obj = ({"domain": {"sphereProduct": 2}, "target": {"sphereProduct": 2}}
           if name == "finiteInput" else {"m": 2, "k": 6} if name == "pairInput"
           else golden_certificate())
    place(obj, deep_list(10**5))
    for _ in tiers():
        assert gate_error(name, obj) == walk_first_error(name, obj) == (
            f"invalid {name} at payload: nested more than {schema.MAX_NESTING} levels deep")


def test_accepted_payloads_are_not_walked_for_their_depth(monkeypatch):
    def walk(obj, limit):
        raise AssertionError("an accepted payload was walked for its depth")
    monkeypatch.setattr(schema, "_nested_deeper_than", walk)
    validate_payload("realizationCertificate", golden_certificate())
    validate_payload("pairInput", {"m": 2, "k": 6})
    for name, obj in valid_seeds():
        validate_payload(name, obj)


# lists of lists, to any depth
LISTS = {"type": "array", "items": {"$ref": "#/$defs/lists"}}


@pytest.mark.parametrize("definition, wrap", [
    # each keyword that descends, reaching the lists below it
    ({"type": "object", "additionalProperties": {"$ref": "#/$defs/lists"}},
     lambda v: {"a": v}),
    ({"type": "object", "properties": {"b": {"type": "null"}},
      "additionalProperties": {"$ref": "#/$defs/lists"}}, lambda v: {"a": v}),
    ({"type": "object", "properties": {"a": {"$ref": "#/$defs/lists"}},
      "additionalProperties": False}, lambda v: {"a": v}),
    ({"type": "object", "properties": {"a": {"$ref": "#/$defs/lists"}},
      "required": ["a"], "additionalProperties": False}, lambda v: {"a": v}),
    ({"type": "array", "items": {"$ref": "#/$defs/lists"}}, lambda v: [v]),
    ({"type": "array", "items": {"$ref": "#/$defs/lists"}, "maxItems": 2}, lambda v: [v]),
    ({"type": "array", "items": {"$ref": "#/$defs/lists"}, "minItems": 1}, lambda v: [v]),
    ({"$ref": "#/$defs/lists"}, lambda v: [v]),
    ({"oneOf": [{"type": "null"}, {"$ref": "#/$defs/lists"}]}, lambda v: [v]),
    ({"type": "array", "items": {"$ref": "#/$defs/lists"},
      "not": {"type": "array", "items": {"type": "null"}}}, lambda v: [v]),
    ({"oneOf": [{"type": "array", "items": {"type": "integer"}},
                {"type": "array", "items": {"$ref": "#/$defs/lists"}}]}, lambda v: [v]),
    # a definition that descends into itself
    ({"type": "array", "items": {"$ref": "#/$defs/x"}}, lambda v: [v]),
])
def test_compiled_check_bounds_what_it_accepts_unseen(definition, wrap, tiers):
    # every container of an accepted value is one the check descended into,
    # so the check stops at a container past the bound itself
    defs = {"x": definition, "lists": LISTS}
    plain = jsonschema.Draft202012Validator({"$defs": defs, "$ref": "#/$defs/x"})

    def nesting(levels):
        return wrap(deep_list(levels - 1))
    limit = schema.MAX_NESTING
    assert plain.is_valid(nesting(limit))
    for compiled in tiers():
        check = compiled(defs)("x")
        assert check(nesting(limit), 0) is True
        with pytest.raises(schema._TooDeep):
            check(nesting(limit + 1), 0)
        # the depth passed in counts the containers around the value
        assert check(nesting(limit - 5), 5) is True
        with pytest.raises(schema._TooDeep):
            check(nesting(limit - 4), 5)


# one payload rejected by each kind of keyword, and that keyword
REJECTED = [
    ("pairInput", {"k": 6}, "required"),
    ("pairInput", {"m": "2", "k": 6}, "type"),
    ("pairInput", {"m": 2, "k": 6, "x": 1}, "additionalProperties"),
    ("pairInput", {"m": 0, "k": 6}, "not"),
    ("manifoldExpr", {}, "oneOf"),
    ("baseManifold", {"name": "b", "dim": 1, "group": {"rank": 1}}, "minimum"),
    ("degreeSet", {"finite": [], "progressions": [{"base": 0, "mod": 1}]
                   * (PROGRESSION_CAP + 1)}, "maxItems"),
]


def test_valid_request_never_imports_jsonschema():
    # nor does a rejection, whichever keyword rejects it
    for name, obj, keyword in REJECTED:
        assert jsonschema.exceptions.best_match(
            reference(name).iter_errors(obj)).validator == keyword
    env = dict(os.environ)
    src = str(Path(circledeg.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import json, sys\n"
              "from circledeg.cli import main\n"
              "from circledeg.errors import InputError\n"
              "from circledeg.schema import validate_payload\n"
              "assert main(['pair', '-m', '2', '-k', '6']) == 0\n"
              "for name, obj in json.loads(sys.argv[1]):\n"
              "    try:\n"
              "        validate_payload(name, obj)\n"
              "    except InputError:\n"
              "        continue\n"
              "    raise AssertionError(f'{name} was accepted')\n"
              "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
              "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n")
    rejected = json.dumps([[name, obj] for name, obj, _ in REJECTED])
    proc = subprocess.run([sys.executable, "-c", script, rejected], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"finite": [0, 3]}
    proc = subprocess.run([sys.executable, "-m", "circledeg.cli", "snf"],
                          input='{"matrix": {"rows": 2}}', capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr == ("error: invalid snfInput at $.matrix: "
                           "'cols' is a required property\n")
