"""``RealizationCertificate.from_json`` against the decoder it replaced.

The former decoder built every expression afresh and converted each
integer in ``from_json`` and again in the constructor; the current one
converts once and builds each distinct bundle of a certificate once.
Both must give equal certificates, or the same ``InputError``.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from test_cli import HOSTILE
from test_realize import tamper_cases
from test_verify_reference import reference_verify_certificate

from circledeg import realize
from circledeg.abelian import FgAbelianGroup, GroupElement
from circledeg.bundles import (
    BaseManifold,
    CircleBundle,
    ConnectedSum,
    SphereProduct,
    Stabilized,
    SymbolicRepeat,
    builtin_registry,
    parse_volume,
)
from circledeg.degsets import (
    DecompositionCertificate,
    DegreeSet,
    SearchLimits,
    SequenceB,
    TranscriptStep,
)
from circledeg.errors import InputError
from circledeg.realize import (
    Combination,
    PairClaim,
    RealizationCertificate,
    Stabilization,
)
from circledeg.schema import MAX_NESTING, validate_payload

GOLDEN = Path(__file__).parent / "golden" / "realize-013-dim4.json"
DIMS = (3, 4, 5, 8)


# ---------------------------------------------------------------------------
# the former decoder


def former_group(obj):
    return FgAbelianGroup(int(obj["rank"]), tuple(int(d) for d in obj.get("torsion", ())))


def former_element(group, obj):
    return GroupElement(group, tuple(int(x) for x in obj.get("free", ())),
                        tuple(int(x) for x in obj.get("torsion", ())))


def former_base(obj):
    group = former_group(obj["group"])
    classes = tuple((name, former_element(group, elem))
                    for name, elem in sorted(obj.get("classes", {}).items()))
    vol = obj.get("volume")
    return BaseManifold(obj["name"], int(obj["dim"]), group, classes,
                        frozenset(obj.get("flags", ())), frozenset(obj.get("fixes", ())),
                        None if vol is None else parse_volume(vol, "volume"))


def former_expr(obj, registry, depth=0):
    if depth >= MAX_NESTING:
        raise InputError(f"manifold expression nested more than {MAX_NESTING} levels deep")
    key, val = next(iter(obj.items()))
    depth += 1
    if key == "bundle":
        name = val.get("base")
        if name not in registry:
            raise InputError(f"unknown base manifold: {name!r}")
        base = registry[name]
        return CircleBundle(base, former_element(base.h2, val["euler"]))
    if key == "sphereProduct":
        return SphereProduct(int(val))
    if key == "sum":
        return ConnectedSum(tuple(former_expr(s, registry, depth) for s in val))
    if key == "stabilized":
        return Stabilized(former_expr(val["inner"], registry, depth), int(val["shift"]))
    if key == "repeat":
        return SymbolicRepeat(former_expr(val["factor"], registry, depth), str(val["symbol"]))
    raise InputError(f"unknown manifold expression kind: {key!r}")


def former_degree_set(obj):
    finite = tuple(int(x) for x in obj["finite"])
    progs = tuple((int(p["base"]), int(p["mod"])) for p in obj.get("progressions", ()))
    return DegreeSet(finite, progs, bool(obj.get("excludesZero", False)))


def former_sequence(obj):
    return SequenceB(tuple(int(x) for x in obj))


def former_decomposition(obj):
    return DecompositionCertificate(
        tuple(int(x) for x in obj["target"]),
        tuple(former_sequence(s) for s in obj["sequences"]),
        int(obj["hullBound"]),
        SearchLimits.from_json(obj["caps"]) if "caps" in obj else None,
        tuple(TranscriptStep(former_sequence(t["sequence"]),
                             tuple(int(x) for x in t["sums"]),
                             tuple(int(x) for x in t["intersection"]))
              for t in obj["transcript"]) if "transcript" in obj else None)


def former_from_json(obj):
    if not isinstance(obj, dict):
        raise InputError("certificate must be a JSON object")
    if obj.get("kind") != "realization-certificate":
        raise InputError("not a realization certificate")
    if obj.get("schemaVersion") != 1:
        raise InputError(f"unsupported schema version: {obj.get('schemaVersion')!r}")
    base = former_base(obj["base"])
    registry = {base.name: base}
    combo = obj["combination"]
    return RealizationCertificate(
        former_degree_set(obj["targetSet"]),
        int(obj["dimension"]),
        base,
        obj["classLabel"],
        former_decomposition(obj["decomposition"]),
        tuple(int(p) for p in obj["primes"]),
        tuple(int(a) for a in obj["multipliers"]),
        tuple(PairClaim(int(p["index"]), former_expr(p["domain"], registry),
                        former_expr(p["target"], registry),
                        former_degree_set(p["claimed"]), p["rule"])
              for p in obj["pairs"]),
        tuple((int(c["i"]), int(c["j"]), int(c["summand"]), int(c["multiplier"]),
               c["verdict"])
              for c in obj["crossChecks"]),
        Combination(combo["l"], former_expr(combo["resultDomain"], registry),
                    former_expr(combo["resultTarget"], registry), combo["rule"]),
        former_degree_set(obj["finalSet"]),
        tuple(Stabilization(int(s["shift"]), int(s["fromDimension"]),
                            int(s["toDimension"]), s.get("rule", "dimension-stabilization"))
              for s in obj.get("stabilizations", ())))


def outcome(decode, obj):
    try:
        return decode(obj)
    except InputError as exc:
        return f"InputError: {exc}"


# ---------------------------------------------------------------------------
# certificates


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def built_certificates() -> list[dict]:
    """The criterion-6 family (every subset of {-4..4} with 0), and draws
    of {0, +-hull} with further members inside the hull, over dimensions
    3, 4, 5 and 8; one in ten is stabilized once more."""
    universe = [x for x in range(-4, 5) if x]
    targets = [(0,) + members for r in range(len(universe) + 1)
               for members in itertools.combinations(universe, r)]
    rng = random.Random(0)
    for hull, sizes in ((5, (1, 2, 3, 4)), (6, (1, 2, 3)), (10, (1, 2))):
        pool = [x for x in range(1 - hull, hull) if x]
        for size in sizes:
            for _ in range(12):
                targets.append((0, rng.choice((hull, -hull)), *rng.sample(pool, size - 1)))
    certs = []
    for i, target in enumerate(targets):
        cert = realize.build_construction(target, DIMS[i % len(DIMS)])
        if i % 10 == 0:
            cert = realize.stabilize(cert, cert.dimension + 3)
        certs.append(cert.to_json())
    return certs


def tampered(cert: dict) -> list[dict]:
    out = []
    for editor, _ in tamper_cases():
        obj = copy.deepcopy(cert)
        editor(obj)
        out.append(obj)
    return out


def hostile() -> list[dict]:
    out = []
    for edit, _ in HOSTILE.values():
        obj = golden()
        edit(obj)
        out.append(obj)
    return out


def _floats(obj):
    # float-valued integers wherever the schema takes an integer
    obj["dimension"] = float(obj["dimension"])
    obj["multipliers"] = [float(a) for a in obj["multipliers"]]
    sequences = obj["decomposition"]["sequences"]
    sequences[0] = [float(x) for x in sequences[0]]
    claimed = obj["pairs"][0]["claimed"]
    claimed["finite"] = [float(x) for x in claimed["finite"]]
    obj["pairs"][0]["domain"]["sum"][0]["bundle"]["euler"]["free"] = [15.0]
    obj["base"]["group"]["rank"] = 1.0
    cross = obj["crossChecks"][0]
    for key in ("i", "j", "summand", "multiplier"):
        cross[key] = float(cross[key])


def _with_torsion(residue):
    def edit(obj):
        # every class and Euler class gains a coordinate in Z/6
        obj["base"]["group"]["torsion"] = [6]
        for elem in obj["base"]["classes"].values():
            elem["torsion"] = [residue]
        for bundle in bundles_in(obj):
            bundle["euler"]["torsion"] = [residue]
    return edit


def _mixed_residues(obj):
    # 1 and 7 are one residue in Z/6: two keys, one bundle
    _with_torsion(1)(obj)
    obj["pairs"][0]["target"]["bundle"]["euler"]["torsion"] = [7]


def _rank_zero(fixes):
    def edit(obj):
        # Z/6 alone: no ``free`` key anywhere; a fixed class must be non-torsion
        obj["base"]["group"] = {"rank": 0, "torsion": [6]}
        obj["base"]["classes"] = {"b": {"torsion": [1]}}
        obj["base"]["fixes"] = fixes
        for bundle in bundles_in(obj):
            bundle["euler"] = {"torsion": [2]}
    return edit


def _unknown_base(obj):
    obj["pairs"][1]["target"]["bundle"]["base"] = "surface"


def _other_kind(obj):
    obj["kind"] = "decomposition-certificate"


def _future_version(obj):
    obj["schemaVersion"] = 2


def _shared_sum(obj):
    # one summand object in two places of the payload
    obj["combination"]["resultTarget"]["sum"][0] = obj["pairs"][0]["domain"]


EDGE_CASES = {
    "float-valued-integers": _floats,
    "residue-out-of-range": _with_torsion(7),
    "residues-one-and-seven": _mixed_residues,
    "rank-zero": _rank_zero([]),
    "rank-zero-fixing-a-torsion-class": _rank_zero(["b"]),
    "unknown-base": _unknown_base,
    "shared-summand-object": _shared_sum,
    # refused by the schema as well as by the decoder
    "other-kind": _other_kind,
    "future-version": _future_version,
}


def bundles_in(obj):
    """Every ``bundle`` value of a certificate payload."""
    if isinstance(obj, dict):
        if "bundle" in obj:
            yield obj["bundle"]
        items = obj.values()
    elif isinstance(obj, list):
        items = obj
    else:
        return
    for item in items:
        yield from bundles_in(item)


def bundle_objects(cert: RealizationCertificate) -> list[CircleBundle]:
    """Every bundle of the pairs and the combination of ``cert``."""
    found = []

    def walk(expr):
        if isinstance(expr, CircleBundle):
            found.append(expr)
        for child in getattr(expr, "summands", ()) + tuple(
                getattr(expr, name) for name in ("inner", "factor") if hasattr(expr, name)):
            walk(child)
    for pair in cert.pairs:
        walk(pair.domain)
        walk(pair.target)
    walk(cert.combination.result_domain)
    walk(cert.combination.result_target)
    return found


# ---------------------------------------------------------------------------
# tests


def test_decoder_matches_the_former_one_on_built_certificates():
    certs = built_certificates()
    for obj in certs + tampered(golden()) + hostile():
        validate_payload("realizationCertificate", obj)
        assert outcome(RealizationCertificate.from_json, obj) == outcome(former_from_json, obj)


def edge_case(name: str) -> dict:
    obj = golden()
    EDGE_CASES[name](obj)
    return obj


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_decoder_matches_the_former_one_on_edge_cases(name):
    obj = edge_case(name)
    if name not in ("other-kind", "future-version"):
        validate_payload("realizationCertificate", obj)
    new, old = (outcome(RealizationCertificate.from_json, obj),
                outcome(former_from_json, obj))
    if isinstance(new, str):  # the former decoder named no field
        new = re.sub(r"^(InputError: )\$\S*: ", r"\1", new)
    assert new == old
    if not isinstance(new, str):
        assert realize.verify_certificate(new) == realize.verify_certificate(old)


def test_edge_cases_decode_or_fail_as_expected():
    def decoded(name):
        return outcome(RealizationCertificate.from_json, edge_case(name))
    cert = decoded("float-valued-integers")
    assert cert == RealizationCertificate.from_json(golden())
    # 0.0 == 0, so only the text shows a float left in a cross-check row
    assert json.dumps(cert.to_json(), sort_keys=True) == json.dumps(golden(), sort_keys=True)
    assert type(cert.dimension) is int and type(cert.multipliers[0]) is int
    assert decoded("residue-out-of-range").pairs[0].target.euler.torsion == (1,)
    mixed = decoded("residues-one-and-seven")
    assert mixed.pairs[0].target == mixed.combination.result_target.summands[0]
    assert decoded("rank-zero").pairs[0].target.euler.free == ()
    assert decoded("rank-zero-fixing-a-torsion-class") == \
        "InputError: $.base: fixed class 'b' must be non-torsion"
    assert decoded("unknown-base") == \
        "InputError: $.pairs[1].target: unknown base manifold: 'surface'"
    assert decoded("other-kind") == "InputError: not a realization certificate"
    assert decoded("future-version") == "InputError: unsupported schema version: 2"


def test_each_distinct_bundle_is_built_once_per_certificate(monkeypatch):
    built = []
    init = CircleBundle.__init__

    def counting(self, base, euler):
        built.append(euler)
        init(self, base, euler)
    monkeypatch.setattr(CircleBundle, "__init__", counting)
    first = RealizationCertificate.from_json(golden())
    found = bundle_objects(first)
    distinct = set(found)
    assert len(found) > len(distinct)  # pairs and the combination repeat them
    assert len(built) == len(distinct) == len({id(b) for b in found})
    # the memo lives for one call: a second one builds its own bundles
    second = RealizationCertificate.from_json(golden())
    assert second == first
    assert len(built) == 2 * len(distinct)
    assert not {id(b) for b in bundle_objects(second)} & {id(b) for b in found}


def test_the_golden_base_decodes_to_the_shipped_preset():
    cert = RealizationCertificate.from_json(golden())
    preset = builtin_registry()["knot-glue-3"]
    assert cert.base is preset
    assert cert == former_from_json(golden())
    assert all(b.base is preset and b.euler.group is preset.h2 for b in bundle_objects(cert))


PRESET_BASE_EDITS = {  # name -> edit of the golden's base payload
    "flags-in-another-order": lambda base: base["flags"].reverse(),
    "no-volume-key": lambda base: base.pop("volume"),
    "preset-name-other-flags": lambda base: base["flags"].remove("d_self_is_01"),
}


@pytest.mark.parametrize("name", sorted(PRESET_BASE_EDITS))
def test_a_base_unlike_a_preset_payload_is_decoded(name):
    obj = golden()
    PRESET_BASE_EDITS[name](obj["base"])
    validate_payload("realizationCertificate", obj)
    cert, former = RealizationCertificate.from_json(obj), former_from_json(obj)
    assert cert == former
    preset = builtin_registry()["knot-glue-3"]
    assert cert.base is not preset
    assert (cert.base == preset) is (name != "preset-name-other-flags")
    assert all(b.base is cert.base for b in bundle_objects(cert))
    report, reference = (realize.verify_certificate(cert),
                         reference_verify_certificate(former))
    assert (report.rows, report.valid, report.first_failure) == \
        (reference.rows, reference.valid, reference.first_failure)
    assert report.first_failure == (
        "base.flags" if name == "preset-name-other-flags" else None)
