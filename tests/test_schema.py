"""Compiled schema checks against jsonschema, the reference they replace.

Every verdict of a compiled check must equal jsonschema's Draft 2020-12
verdict, and every rejection must carry the text jsonschema's best match
gives, on the golden files, the payloads the CLI reads and writes, and
random mutations of valid ones.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from functools import lru_cache, partial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circledeg
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
SAME_TYPE = {str: ["", "zz", "1/0", "-3/4", "hyp-odd-4"], int: [0, 1, -1, 7, -(10**30), 10**30]}


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


def assert_agrees(name: str, obj: object) -> None:
    verdict = schema._shipped()(name)(obj)
    assert verdict == reference(name).is_valid(obj), (name, obj)
    try:
        validate_payload(name, obj)
    except InputError as exc:
        assert not verdict and str(exc) == reference_error(name, obj)
    else:
        assert verdict


def run_main(argv: list[str], payload: object = None) -> tuple[int, str]:
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
def test_corpus_verdicts_match_jsonschema(name):
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


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutations_match_jsonschema(case):
    name, obj = case
    assert_agrees(name, obj)
    for other in NAMES:
        assert schema._shipped()(other)(obj) == reference(other).is_valid(obj), other


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
    checks = schema._shipped()
    validated: list[str] = []

    def counting(name):
        validated.append(name)
        return checks(name)
    monkeypatch.setattr(schema, "_shipped", lambda: counting)
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


@pytest.mark.parametrize("definition, value, valid", [
    # not: {const: 0} flips the const verdict, so 0 == 0.0 matters
    ({"not": {"const": 0}}, 0, False),
    ({"not": {"const": 0}}, 0.0, False),
    ({"not": {"const": 0}}, False, True),
    ({"not": {"const": 0}}, "0", True),
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
    # minimum, minLength and minItems ignore values of other types
    ({"minimum": 1}, "x", True),
    ({"minimum": 1}, 0.5, False),
    ({"minimum": 1}, True, True),
    ({"minLength": 1}, 5, True),
    ({"minLength": 1}, "", False),
    ({"minItems": 1}, {}, True),
    ({"minItems": 1}, [], False),
    ({"items": {"type": "integer"}}, "abc", True),
    ({"items": {"type": "integer"}}, [1, 2.0, "3"], False),
    ({"required": ["a"]}, [], True),
    ({"properties": {"a": {"type": "string"}}}, {"a": 1}, False),
    ({"additionalProperties": {"type": "integer"}}, {"a": 1, "b": 2.0}, True),
    ({"additionalProperties": {"type": "integer"}}, {"a": "1"}, False),
    ({"properties": {"a": {}}, "additionalProperties": False}, {"a": 1, "b": 2}, False),
    # oneOf: two matching branches fail like none
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 5, False),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1.5, False),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, "a", True),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1, True),
    # maximum, like minimum, ignores values of other types
    ({"maximum": 3}, 3, True),
    ({"maximum": 3}, 3.5, False),
    ({"maximum": 3}, "x", True),
    ({"maximum": 3}, True, True),
    # so does maxItems
    ({"maxItems": 1}, "ab", True),
    ({"maxItems": 1}, [1], True),
    ({"maxItems": 1}, [1, 2], False),
    ({"type": "array", "maxItems": 0}, [], True),
])
def test_edge_cases_match_jsonschema(definition, value, valid):
    check = schema._compile({"x": definition})("x")
    assert check(value) is valid
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


def test_manifold_expr_one_of_edges():
    bundle = {"base": "x", "euler": {}}
    assert_agrees("manifoldExpr", {})
    assert_agrees("manifoldExpr", {"bundle": bundle, "sphereProduct": 2})
    assert_agrees("manifoldExpr", {"sum": []})
    assert_agrees("manifoldExpr", {"sum": [{"bundle": bundle}]})


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
    at_cap = {"finite": [], "progressions": [{"base": 0, "mod": 1}] * PROGRESSION_CAP}
    validate_payload("degreeSet", at_cap)
    at_cap["progressions"].append({"base": 0, "mod": 1})
    with pytest.raises(InputError, match=r"degreeSet at \$\.progressions: "):
        validate_payload("degreeSet", at_cap)


@pytest.mark.parametrize("definition", [
    {"type": "string", "pattern": "^a"},
    {"type": "integer", "exclusiveMaximum": 3},
    {"properties": {"a": {"title": "nested"}}},
    {"$ref": "https://example.invalid/other.schema.json"},
    {"$ref": "other.schema.json#/$defs/x"},
    {"$ref": "#/$defs/missing"},
    {"$ref": "#/definitions/x"},
    {"type": "decimal"},
    {"const": [0]},
    {"items": True},
])
def test_compile_refuses_what_it_does_not_know(definition):
    with pytest.raises(ValueError):
        schema._compile({"x": definition})("x")


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
    assert type(schema._validator("realizationCertificate")) is not \
        type(reference("realizationCertificate"))


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


def test_guided_rejection_walks_only_rejected_subtrees():
    cert = golden_certificate()
    cert["dimension"] = "4"
    with pytest.raises(InputError, match=r"at \$\.dimension: '4' is not of type"):
        validate_payload("realizationCertificate", cert)
    guided = descended_paths(schema._validator("realizationCertificate"), cert)
    assert "dimension" in guided
    assert not {"pairs", "crossChecks", "decomposition"} & set(guided)
    plain = descended_paths(reference("realizationCertificate"), cert)
    assert {"pairs", "crossChecks", "decomposition"} <= set(plain)


def test_unknown_name_raises_key_error():
    with pytest.raises(KeyError, match="no schema named 'nope'"):
        validate_payload("nope", {})


def nested_expr(levels: int, shift: int = 3) -> dict:
    expr: dict = {"sphereProduct": 2}
    for _ in range(levels):
        expr = {"stabilized": {"inner": expr, "shift": shift}}
    return expr


def test_nesting_bound_is_exact():
    # finiteInput -> domain -> one object and its "stabilized" per level
    levels = (schema.MAX_NESTING - 2) // 2
    deepest = {"domain": nested_expr(levels), "target": {"sphereProduct": 2}}
    assert not schema._nested_deeper_than(deepest, schema.MAX_NESTING)
    assert schema._nested_deeper_than(deepest, schema.MAX_NESTING - 1)
    validate_payload("finiteInput", deepest)
    # a rejection at the bound is still worded by jsonschema
    bad = {"domain": nested_expr(levels, shift=2), "target": {"sphereProduct": 2}}
    assert_agrees("finiteInput", bad)
    deeper = {"domain": {"sum": [nested_expr(levels)]}, "target": {"sphereProduct": 2}}
    with pytest.raises(InputError, match="finiteInput at payload: nested more than"):
        validate_payload("finiteInput", deeper)
    assert not schema._nested_deeper_than(5, 0)
    assert schema._nested_deeper_than([], 0)


def test_valid_request_never_imports_jsonschema():
    env = dict(os.environ)
    src = str(Path(circledeg.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from circledeg.cli import main\n"
              "assert main(['pair', '-m', '2', '-k', '6']) == 0\n"
              "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
              "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"finite": [0, 3]}
    proc = subprocess.run([sys.executable, "-m", "circledeg.cli", "snf"],
                          input='{"matrix": {"rows": 2}}', capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr == ("error: invalid snfInput at $.matrix: "
                           "'cols' is a required property\n")
