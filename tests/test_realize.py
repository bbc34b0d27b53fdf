"""Realization certificates: frozen constructions, verification, tampering."""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from test_bundles import _pair_rule_bases
from work_count import calls, line_events

from circledeg import _frozen, abelian, bundles, degsets, realize, schema
from circledeg.abelian import FgAbelianGroup
from circledeg.bundles import (
    BaseManifold,
    CircleBundle,
    ConnectedSum,
    SphereProduct,
    Stabilized,
    SymbolicRepeat,
    builtin_registry,
    expr_dim,
    expr_from_json,
)
from circledeg.degsets import DegreeSet, SequenceB
from circledeg.errors import HypothesisError, InputError, ResourceCapError
from circledeg.schema import MAX_NESTING, validate_payload
from circledeg.realize import (
    PRIMALITY_BOUND,
    RealizationCertificate,
    _is_prime,
    build_construction,
    choose_primes,
    render_certificate,
    stabilize,
    verify_certificate,
)

GOLDEN = Path(__file__).parent / "golden"


def euler_of(expr):
    assert isinstance(expr, CircleBundle)
    return expr.euler.free[0]


def reverify(cert) -> bool:
    return verify_certificate(cert).valid


def mutate(cert, editor):
    """Round-trip through JSON, apply ``editor`` to the dict, parse back."""
    obj = copy.deepcopy(cert.to_json())
    editor(obj)
    return RealizationCertificate.from_json(obj)


# ---------------------------------------------------------------------------
# prime choice


def test_choose_primes_frozen():
    assert choose_primes([SequenceB((1, 3)), SequenceB((1, 2))]) == (5, 7)
    assert choose_primes([SequenceB((10,))]) == (11,)
    assert choose_primes([SequenceB((1,)), SequenceB((1,)), SequenceB((1,))]) == (2, 3, 5)
    assert choose_primes([SequenceB((-6, 1)), SequenceB((2, 2))]) == (7, 11)
    assert choose_primes([]) == ()


# ---------------------------------------------------------------------------
# frozen worked construction: {0, 1, 3} in dimension 4


def test_build_013_worked_example():
    cert = build_construction({0, 1, 3}, 4)
    assert cert.dimension == 4
    assert cert.base.name == "knot-glue-3"
    assert [s.entries for s in cert.decomposition.sequences] == [(1, 3), (1, 2)]
    assert cert.primes == (5, 7)
    assert cert.multipliers == (15, 14)

    p0, p1 = cert.pairs
    assert euler_of(p0.target) == 15
    assert isinstance(p0.domain, ConnectedSum)
    assert [euler_of(s) for s in p0.domain.summands] == [15, 5]
    assert p0.claimed.as_finite_set() == {0, 1, 3, 4}
    assert p0.rule == "fixed-class-scaling"

    assert euler_of(p1.target) == 14
    assert [euler_of(s) for s in p1.domain.summands] == [14, 7]
    assert p1.claimed.as_finite_set() == {0, 1, 2, 3}

    assert cert.cross_checks == ((0, 1, 0, 15, "pass"), (0, 1, 1, 5, "pass"),
                                 (1, 0, 0, 14, "pass"), (1, 0, 1, 7, "pass"))

    combo = cert.combination
    assert combo.pad_symbol == "l"
    assert combo.rule == "padded-combination"
    assert isinstance(combo.result_domain, ConnectedSum)
    pad = combo.result_domain.summands[-1]
    assert isinstance(pad, SymbolicRepeat) and pad.symbol == "l"
    assert expr_dim(combo.result_domain) == 4
    assert cert.final_set.as_finite_set() == {0, 1, 3}
    assert cert.stabilizations == ()
    assert reverify(cert)


def test_build_zero_only():
    cert = build_construction({0}, 4)
    assert [s.entries for s in cert.decomposition.sequences] == [(2,), (3,)]
    assert cert.primes == (5, 7)
    assert cert.multipliers == (10, 21)
    assert cert.pairs[0].claimed.as_finite_set() == {0, 2}
    assert cert.pairs[1].claimed.as_finite_set() == {0, 3}
    assert cert.final_set.as_finite_set() == {0}
    assert reverify(cert)


def test_build_zero_k_single_sequence():
    # one sequence, no prime: the pair is literally bundle(b) -> bundle(k*b)
    for k in (7, -4, 1):
        cert = build_construction({0, k}, 4)
        assert cert.primes == ()
        assert cert.multipliers == (k,)
        pair = cert.pairs[0]
        assert isinstance(pair.domain, CircleBundle)
        assert euler_of(pair.domain) == 1
        assert euler_of(pair.target) == k
        assert pair.claimed.as_finite_set() == {0, k}
        assert cert.cross_checks == ()
        assert cert.combination.pad_symbol is None
        assert cert.combination.rule == "direct"
        assert cert.combination.result_domain == pair.domain
        assert cert.final_set.as_finite_set() == {0, k}
        assert reverify(cert)


def test_build_dimension_presets():
    assert build_construction({0, 2}, 3).base.name == "surface"
    assert build_construction({0, 2}, 4).base.name == "knot-glue-3"
    assert build_construction({0, 2}, 5).base.name == "hyp-odd-4"
    c3 = build_construction({0, 2}, 3)
    assert c3.pairs[0].rule == "surface-euler-scaling"
    assert reverify(c3)
    assert reverify(build_construction({0, 2}, 5))


def test_build_high_dimension_stabilizes():
    cert = build_construction({0, 1, 3}, 9)
    assert cert.base.name == "surface"
    assert cert.dimension == 9
    assert len(cert.stabilizations) == 1
    st = cert.stabilizations[0]
    assert (st.from_dimension, st.to_dimension, st.shift) == (3, 9, 6)
    assert isinstance(cert.combination.result_domain, Stabilized)
    assert expr_dim(cert.combination.result_domain) == 9
    assert reverify(cert)


def test_build_rejects_bad_dimensions():
    with pytest.raises(InputError):
        build_construction({0, 1}, 2)
    # a 3-dimensional base gives a 4-dimensional construction; 6 is a
    # shift of 2, too small to stabilize
    base = builtin_registry()["knot-glue-3"]
    with pytest.raises(InputError, match="at least 3"):
        build_construction({0, 1}, 6, base=base)
    assert build_construction({0, 1}, 7, base=base).dimension == 7


def test_build_rejects_weak_base():
    h2 = FgAbelianGroup(1)
    weak = BaseManifold("weak", 3, h2, (("b", h2.element([1])),),
                        frozenset({"aspherical", "scf_pi1", "d_self_finite"}))
    with pytest.raises(HypothesisError, match="d_self_is_01"):
        build_construction({0, 1}, 4, base=weak)
    unfixed = BaseManifold("unfixed", 3, h2, (("b", h2.element([1])),),
                           frozenset({"aspherical", "scf_pi1", "d_self_is_01"}))
    with pytest.raises(HypothesisError, match="fixed"):
        build_construction({0, 1}, 4, base=unfixed)


def test_summand_euler_check_agrees_with_group_equality():
    # the check compares each summand's Euler coordinates with those of
    # m*b instead of building m*b; over free rank 2 plus Z/6 its verdict
    # is the group's equality, torsion residues included
    h2 = FgAbelianGroup(2, (6,))
    b = h2.element([1, 2], [5])
    base = BaseManifold("torsion", 3, h2, (("b", b),),
                        frozenset({"aspherical", "scf_pi1", "d_self_is_01"}), frozenset({"b"}))
    cert = build_construction({0, 1, 3}, 4, base=base)
    assert reverify(cert)
    for i, pair in enumerate(cert.pairs):
        summands = pair.domain.summands
        for k, summand in enumerate(summands):
            for free, torsion in (((0, 0), (6,)), ((0, 0), (1,)), ((1, 0), (0,)),
                                  ((0, -1), (0,)), ((0, 0), (-12,))):
                euler = summand.euler + h2.element(free, torsion)
                edited = summands[:k] + (CircleBundle(base, euler),) + summands[k + 1:]
                pairs = list(cert.pairs)
                pairs[i] = pair._replace(domain=ConnectedSum(edited))
                rows = dict(verify_certificate(cert._replace(pairs=tuple(pairs))).rows)
                assert (rows[f"pair[{i}].summand-euler"] is True) == \
                    (euler == summand.euler), (i, k, free, torsion)


def test_target_euler_check_agrees_with_group_equality():
    # the check compares the target's Euler coordinates with those of
    # alpha*b instead of building alpha*b; over Z plus Z/6 its verdict is
    # that of the group's equality
    h2 = FgAbelianGroup(1, (6,))
    b = h2.element([1], [5])
    flags, fixes = frozenset({"aspherical", "scf_pi1", "d_self_is_01"}), frozenset({"b"})
    base = BaseManifold("torsion", 3, h2, (("b", b),), flags, fixes)
    other = BaseManifold("other", 3, h2, (("b", b),), flags, fixes)
    cert = build_construction({0, 1, 3}, 4, base=base)
    assert reverify(cert)
    for i, pair in enumerate(cert.pairs):
        euler = pair.target.euler
        edits = {
            "free+1": CircleBundle(base, euler + h2.element([1], [0])),
            "free-1": CircleBundle(base, euler + h2.element([-1], [0])),
            "torsion+1": CircleBundle(base, euler + h2.element([0], [1])),
            "torsion+6": CircleBundle(base, euler + h2.element([0], [6])),
            "other-base": CircleBundle(other, euler),
            "sphere-product": SphereProduct(4),
        }
        for name, target in edits.items():
            pairs = list(cert.pairs)
            pairs[i] = pair._replace(target=target)
            rows = dict(verify_certificate(cert._replace(pairs=tuple(pairs))).rows)
            want = (isinstance(target, CircleBundle) and target.base == base
                    and target.euler == cert.multipliers[i] * b)
            assert (rows[f"pair[{i}].target-euler"] is True) == want, (i, name)
            assert want == (name == "torsion+6"), (i, name)


def test_build_rejects_bad_targets():
    with pytest.raises(InputError):
        build_construction({1, 2}, 4)  # no zero
    with pytest.raises(InputError):
        build_construction(DegreeSet([0], [(0, 3)], True), 4)
    with pytest.raises(InputError):
        build_construction(set(), 4)


def test_build_deterministic():
    a = build_construction({0, -2, 5}, 4)
    b = build_construction({0, -2, 5}, 4)
    assert a == b
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_builder_takes_the_final_set_from_the_decomposition(monkeypatch):
    # decompose has checked that its sums intersect to the target, so the
    # builder neither intersects the claimed sets again nor compares them
    def refuse(*args):
        raise AssertionError("the builder re-derived the final set")
    universe = [x for x in range(-4, 5) if x]
    targets = [{0} | {x for i, x in enumerate(universe) if mask >> i & 1}
               for mask in range(1 << len(universe))]
    certs = []
    with monkeypatch.context() as m:
        for name in ("intersect", "__and__", "equals"):
            m.setattr(DegreeSet, name, refuse)
        for dim in (3, 4, 5, 8):
            certs += [build_construction(target, dim) for target in targets]
    assert len(certs) == 1024
    for cert in certs:
        assert cert.final_set.to_json() == cert.target.to_json()
        assert reverify(cert), cert.target.render()


# SHA-256 over the canonical JSON of the 256 certificates of
# ``test_builder_reads_each_claim_from_the_decomposition``, one line each
CRITERION6_CERTIFICATES_SHA256 = \
    "a14c95fb41c502534f246a8b4009587010d23a3c95195b5f89bec23c7a1580b0"


def _criterion6_requests():
    """The 256 subsets of {-4, ..., 4} that hold 0, with dimensions cycling
    through 3, 4, 5 and 8."""
    universe = [x for x in range(-4, 5) if x]
    return [({0} | {x for i, x in enumerate(universe) if mask >> i & 1}, (3, 4, 5, 8)[mask % 4])
            for mask in range(1 << len(universe))]


def test_builder_reads_each_claim_from_the_decomposition():
    # a pair's claimed set is the sums decompose recorded for its sequence,
    # and reading it there changes no byte of any certificate
    digest = hashlib.sha256()
    for target, dim in _criterion6_requests():
        cert = build_construction(target, dim)
        for pair, seq in zip(cert.pairs, cert.decomposition.sequences, strict=True):
            assert pair.claimed == degsets.subsequence_sums(seq), (target, pair.index)
        digest.update(json.dumps(cert.to_json(), sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == CRITERION6_CERTIFICATES_SHA256


def test_verifier_work_over_the_criterion6_certificates():
    # the pair rule's base-level hypotheses are decided once per
    # certificate and no Euler class is scaled: 23,090 line events in
    # bundles and 9,594 in abelian when both were done once per pair
    # (10,950 and 768 on Python 3.10 to 3.13)
    certs = [build_construction(target, dim) for target, dim in _criterion6_requests()]
    with line_events(bundles, 13_000):
        reports = [verify_certificate(cert) for cert in certs]
    with line_events(abelian, 1_000):
        reports += [verify_certificate(cert) for cert in certs]
    assert all(report.valid for report in reports)


def test_record_work_over_the_criterion6_targets_of_one_dimension():
    # a bundle's Euler class shares its base's group object, and a verified
    # bundle its certificate's base, so identity settles both comparisons:
    # 3,104 calls into the records' methods when each compared the fields
    # (2,193 when either one did)
    requests = [(target, dim) for target, dim in _criterion6_requests() if dim == 4]
    assert len(requests) == 64
    with calls(_frozen, 1_500):
        reports = [verify_certificate(build_construction(target, dim))
                   for target, dim in requests]
    assert all(report.valid for report in reports)


def test_schema_work_over_the_criterion6_certificates():
    # a leaf property or array member is checked in its container's loop
    # and a manifold expression only against the branch of its tag:
    # 293,369 calls into schema when each leaf, each array member and each
    # oneOf branch was a call (121,242 on Python 3.11)
    payloads = [build_construction(target, dim).to_json()
                for target, dim in _criterion6_requests()]
    schema._shipped()("realizationCertificate")  # compiled before counting
    with calls(schema, 125_000):
        for payload in payloads:
            validate_payload("realizationCertificate", payload)


def test_builder_work_over_the_criterion6_targets():
    # b and the pair rule are read once per certificate, and each pair's
    # (j, alpha_j) list once per pair: 92,385 line events in realize when
    # they were read per pair and per cross record (84,585 on Python 3.11)
    requests = _criterion6_requests()
    with line_events(realize, 88_000):
        certs = [build_construction(target, dim) for target, dim in requests]
    assert len(certs) == 256


def test_certificate_json_round_trip():
    for target, dim in (({0, 1, 3}, 4), ({0, 7}, 4), ({0}, 3), ({0, 1, 3}, 9)):
        cert = build_construction(target, dim)
        back = RealizationCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert back == cert
        assert reverify(back)
    with pytest.raises(InputError, match="not a realization certificate"):
        RealizationCertificate.from_json({"kind": "something-else"})
    with pytest.raises(InputError, match="schema version"):
        RealizationCertificate.from_json(
            {"kind": "realization-certificate", "schemaVersion": 99})


def test_drawn_targets_round_trip_or_name_a_search_cap():
    """(R) beyond the criterion-6 family: 0 plus 1-6 nonzero members drawn
    from +-12 and from +-40, in dimensions 3, 4, 5 and 8.  Each draw
    either caps the search or builds a certificate that verifies after a
    JSON round trip through the schema."""
    rng = random.Random(2311)
    limits = degsets.SearchLimits(budget=300000)
    outcomes = {"built": 0, "budget": 0, "max_len": 0}
    for i in range(128):
        pool = [x for x in range(-40, 41) if x] if i >= 64 else \
            [x for x in range(-12, 13) if x]
        draw = {0, *rng.sample(pool, rng.randint(1, 6))}
        try:
            cert = build_construction(draw, (3, 4, 5, 8)[i % 4], limits=limits)
        except ResourceCapError as err:
            assert err.cap_name in ("budget", "max_len"), (draw, err)
            outcomes[err.cap_name] += 1
            continue
        obj = json.loads(json.dumps(cert.to_json()))
        validate_payload("realizationCertificate", obj)
        assert verify_certificate(RealizationCertificate.from_json(obj)).valid, draw
        assert obj["finalSet"] == obj["targetSet"] == {"finite": sorted(draw)}
        outcomes["built"] += 1
    assert outcomes["built"], outcomes


# ---------------------------------------------------------------------------
# stabilization


def test_stabilize_appends_and_chains():
    cert = build_construction({0, 1, 3}, 4)
    up = stabilize(cert, 8)
    assert up.dimension == 8
    assert [(s.from_dimension, s.to_dimension) for s in up.stabilizations] == [(4, 8)]
    assert reverify(up)
    upper = stabilize(up, 12)
    assert [(s.from_dimension, s.to_dimension) for s in upper.stabilizations] == \
        [(4, 8), (8, 12)]
    assert expr_dim(upper.combination.result_domain) == 12
    assert reverify(upper)
    with pytest.raises(InputError, match="at least 3"):
        stabilize(cert, 6)
    with pytest.raises(InputError, match="at least 3"):
        stabilize(cert, 4)


def test_stabilize_changes_only_dimension_combination_and_records():
    cert = build_construction({0, 1, 3}, 4)
    want = cert.to_json()
    want["dimension"] = 7
    for key in ("resultDomain", "resultTarget"):
        inner = want["combination"][key]
        want["combination"][key] = {"stabilized": {"inner": inner, "shift": 3}}
    want["stabilizations"].append({"shift": 3, "fromDimension": 4, "toDimension": 7,
                                   "rule": "dimension-stabilization"})
    assert stabilize(cert, 7).to_json() == want


@pytest.mark.parametrize("dropped", [("caps",), ("transcript",), ("caps", "transcript")])
def test_absent_decomposition_records_stay_absent(dropped):
    # they were written back as the default caps, a budget the search never
    # ran under, and as an empty transcript
    obj = build_construction({0, 1, 3}, 4).to_json()
    for key in dropped:
        del obj["decomposition"][key]
    validate_payload("realizationCertificate", obj)
    cert = RealizationCertificate.from_json(obj)
    assert reverify(cert)
    assert cert.to_json() == obj
    assert stabilize(cert, 7).to_json()["decomposition"] == obj["decomposition"]
    decomposition = degsets.DecompositionCertificate.from_json(obj["decomposition"])
    assert decomposition.to_json() == obj["decomposition"]


def stabilized_sphere(levels: int) -> dict:
    expr: dict = {"sphereProduct": 2}
    for _ in range(levels):
        expr = {"stabilized": {"inner": expr, "shift": 3}}
    return expr


def test_library_parsers_bound_expression_depth():
    # callers that skip validate_payload get an InputError, not a RecursionError
    reg = builtin_registry()
    deepest = expr_from_json(stabilized_sphere(MAX_NESTING - 1), reg)
    assert expr_dim(deepest) == 2 + 3 * (MAX_NESTING - 1)
    for levels in (MAX_NESTING, 2000):
        with pytest.raises(InputError, match="nested more than 100 levels deep"):
            expr_from_json(stabilized_sphere(levels), reg)
    obj = build_construction({0, 1, 3}, 4).to_json()
    obj["combination"]["resultDomain"] = stabilized_sphere(2000)
    with pytest.raises(InputError, match="nested more than 100 levels deep"):
        RealizationCertificate.from_json(obj)

    cert = build_construction({0, 1, 3}, 4)
    for _ in range(45):
        cert = stabilize(cert, cert.dimension + 3)
    back = RealizationCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back == cert
    assert reverify(back)


# ---------------------------------------------------------------------------
# verification and tampering


def test_verify_reports_ordered_checks():
    cert = build_construction({0, 1, 3}, 4)
    report = verify_certificate(cert)
    assert report.valid and report.first_failure is None
    ids = [c.id for c in report.checks]
    assert ids[0] == "target.form"
    assert ids.index("decomposition.valid") < ids.index("primes.count")
    assert ids.index("primes.size") < ids.index("alpha.product[0]")
    assert ids.index("base.flags") < ids.index("pair[0].rule")
    assert ids.index("pair[1].claimed-vs-enumeration") < ids.index("cross.completeness")
    assert ids.index("cross[1,0,1].nondivisible") < ids.index("combination.shape")
    assert ids.index("combination.dimension") < ids.index("final.intersection")
    assert ids[-1] == "stabilization.chain"
    assert all(c.ok for c in report.checks)


def tamper_cases():
    def prime_too_small(obj):
        obj["primes"][0] = 3  # not larger than the entry 3
        obj["multipliers"][0] = 9

    def prime_duplicate(obj):
        obj["primes"][1] = obj["primes"][0]
        obj["multipliers"][1] = obj["primes"][0] * 2

    def prime_composite(obj):
        obj["primes"][0] = 9
        obj["multipliers"][0] = 27

    def wrong_alpha(obj):
        obj["multipliers"][0] += 1

    def dropped_pair(obj):
        del obj["pairs"][1]

    def wrong_target_euler(obj):
        obj["pairs"][0]["target"]["bundle"]["euler"]["free"] = [99]

    def wrong_summand(obj):
        obj["pairs"][0]["domain"]["sum"][1]["bundle"]["euler"]["free"] = [4]

    def inflated_claim(obj):
        obj["pairs"][0]["claimed"]["finite"] = [0, 1, 2, 3, 4]

    def missing_cross(obj):
        del obj["crossChecks"][2]

    def wrong_cross_multiplier(obj):
        obj["crossChecks"][0]["multiplier"] = 14

    def unpadded_combination(obj):
        del obj["combination"]["resultDomain"]["sum"][-1]
        del obj["combination"]["resultTarget"]["sum"][-1]

    def wrong_final(obj):
        obj["finalSet"]["finite"] = [0, 1, 3, 4]

    def final_not_target(obj):
        obj["targetSet"]["finite"] = [0, 1]
        obj["decomposition"]["target"] = [0, 1]

    def bogus_dimension(obj):
        obj["dimension"] = 11

    return [
        (prime_too_small, "primes.size"),
        (prime_duplicate, "primes.distinct"),
        (prime_composite, "primes.primality"),
        (wrong_alpha, "alpha.product[0]"),
        (dropped_pair, "pair.count"),
        (wrong_target_euler, "pair[0].target-euler"),
        (wrong_summand, "pair[0].summand-euler"),
        (inflated_claim, "pair[0].claimed-vs-enumeration"),
        (missing_cross, "cross.completeness"),
        (wrong_cross_multiplier, "cross[0,1,0].nondivisible"),
        (unpadded_combination, "combination.shape"),
        (wrong_final, "final.intersection"),
        (final_not_target, "decomposition.valid"),
        (bogus_dimension, "combination.dimension"),
    ]


@pytest.mark.parametrize("editor,expected", tamper_cases(),
                         ids=[e.__name__ for e, _ in tamper_cases()])
def test_tampering_is_located(editor, expected):
    cert = build_construction({0, 1, 3}, 4)
    bad = mutate(cert, editor)
    report = verify_certificate(bad)
    assert not report.valid
    assert report.first_failure == expected


def test_tampered_decomposition_sequence():
    cert = build_construction({0, 1, 3}, 4)

    def swap_sequence(obj):
        obj["decomposition"]["sequences"][1] = [1, 5]

    bad = mutate(cert, swap_sequence)
    report = verify_certificate(bad)
    assert not report.valid
    assert report.first_failure == "decomposition.valid"


def test_tampered_stabilization_shift():
    cert = stabilize(build_construction({0, 1, 3}, 4), 8)

    def shrink(obj):
        obj["stabilizations"][0]["shift"] = 2
        obj["stabilizations"][0]["toDimension"] = 6

    bad = mutate(cert, shrink)
    report = verify_certificate(bad)
    assert not report.valid
    # the wrapped expressions still add 4, so the combination dimension is
    # consistent and the record itself is the first thing to fail
    assert report.first_failure == "stabilization[0].shift"
    failing = {c.id for c in report.checks if not c.ok}
    assert "combination.dimension" not in failing
    assert "stabilization.chain" in failing


def test_misnumbered_pair_fails_the_count():
    obj = build_construction({0, 1, 3}, 8).to_json()
    obj["pairs"][0]["index"] = 7
    validate_payload("realizationCertificate", obj)  # the schema admits it
    report = verify_certificate(RealizationCertificate.from_json(obj))
    assert not report.valid
    assert report.first_failure == "pair.count"
    detail = next(c.detail for c in report.checks if c.id == "pair.count")
    assert detail == "pairs are indexed [7, 1], expected [0, 1]"


def test_unknown_stabilization_rule_fails():
    obj = build_construction({0, 1, 3}, 8).to_json()
    obj["stabilizations"][0]["rule"] = "made-up"
    validate_payload("realizationCertificate", obj)  # the schema admits it
    report = verify_certificate(RealizationCertificate.from_json(obj))
    assert not report.valid
    assert report.first_failure == "stabilization[0].rule"
    assert [c.id for c in report.checks if not c.ok] == ["stabilization[0].rule"]


def test_prime_firewall_is_what_blocks_cross_maps():
    # replacing a prime with one that divides the other multiplier must
    # trip the cross checks, not just the prime checks
    cert = build_construction({0, 1, 3}, 4)

    def collude(obj):
        # alpha_0 = 7*3 = 21 shares the prime 7 with alpha_1 = 14
        obj["primes"][0] = 7
        obj["multipliers"][0] = 21

    bad = mutate(cert, collude)
    report = verify_certificate(bad)
    failing = [c.id for c in report.checks if not c.ok]
    assert "primes.distinct" in failing
    # 21/3 = 7 divides 14
    assert "cross[0,1,1].nondivisible" in failing


def test_claims_are_checked_against_enumeration_not_the_sum_dp(monkeypatch):
    cert = build_construction({0, 1, 3}, 4)
    real = degsets._sums_of
    monkeypatch.setattr(degsets, "_sums_of", lambda entries: real(entries) | {99})
    wrong = degsets.subsequence_sums(cert.decomposition.sequences[0])
    bad = cert._replace(pairs=(cert.pairs[0]._replace(claimed=wrong),) + cert.pairs[1:])
    report = verify_certificate(bad)
    failing = [c.id for c in report.checks if not c.ok]
    assert failing[0] == "pair[0].claimed-vs-enumeration"


def test_final_set_is_checked_against_the_claims_when_a_claim_is_wrong():
    # the enumerated sums meet in {0, 1, 3}, the claims in {0, 1, 3, 4}:
    # the final set is compared with the claimed sets' intersection
    obj = build_construction({0, 1, 3}, 4).to_json()
    obj["pairs"][1]["claimed"]["finite"] = [0, 1, 2, 3, 4]
    obj["finalSet"]["finite"] = [0, 1, 3, 4]
    report = verify_certificate(RealizationCertificate.from_json(obj))
    assert [(cid, verdict) for cid, verdict in report.rows if verdict is not True] == [
        ("pair[1].claimed-vs-enumeration",
         "claimed set {0, 1, 2, 3, 4} (5 members) is not the subsequence-sum set of [1, 2]"),
        ("final.equals-target", "final set {0, 1, 3, 4} differs from the target {0, 1, 3}"),
    ]
    assert dict(report.rows)["final.intersection"] is True


@pytest.mark.parametrize("name", ["realize-013-dim4.json", "tampered-cert.json"])
def test_verifier_never_runs_the_sum_dp(monkeypatch, name):
    cert = RealizationCertificate.from_json(json.loads((GOLDEN / name).read_text()))
    want = verify_certificate(cert).to_json()

    def refuse(entries):
        raise AssertionError("the sum DP ran")
    monkeypatch.setattr(degsets, "_sums_of", refuse)
    assert verify_certificate(cert).to_json() == want
    assert want["valid"] == (name == "realize-013-dim4.json")


def _sum_rule_reference(alpha, entries, base, label):
    """The sum-rule check as first written: the pair rule once per entry."""
    try:
        for beta in entries:
            res = bundles.same_base_pair_degree_set(alpha // beta, alpha, base, label)
            if not res.exact:
                return "pair rule only gave an upper bound"
            want = DegreeSet([0, beta])
            if not res.degree_set.equals(want):
                return (f"summand with multiplier {alpha // beta} realizes "
                        f"{res.degree_set.render()}, not {want.render()}")
    except InputError as exc:
        return str(exc)
    return True


def _sum_rule_rows(cert):
    """Each pair's ``sum-rule`` verdict, and the reference's for it."""
    rows = dict(verify_certificate(cert).rows)
    got = [rows[f"pair[{i}].sum-rule"] for i in range(len(cert.pairs))]
    want = [_sum_rule_reference(alpha, seq.entries, cert.base, cert.class_label)
            for alpha, seq in zip(cert.multipliers, cert.decomposition.sequences)]
    return got, want


@pytest.mark.parametrize("base, label", _pair_rule_bases(),
                         ids=lambda x: getattr(x, "name", x))
def test_sum_rule_matches_the_rule_applied_per_entry(base, label):
    # random sequences and multipliers, three pairs to a certificate, so
    # that later pairs reuse the base-level verdict the first one decided
    cert = build_construction({0, 1, 3, 7}, 4)
    assert len(cert.pairs) == 3
    rng = random.Random(base.name + label)
    for _ in range(100):
        seqs, alphas = [], []
        for _ in range(3):
            entries = tuple(rng.choice([-1, 1]) * rng.randint(1, 9)
                            for _ in range(rng.randint(0, 4)))
            seqs.append(SequenceB(entries))
            alphas.append(rng.choice([0, 1, rng.randint(2, 97)]) * math.prod(entries))
        edited = cert._replace(
            base=base, class_label=label, multipliers=tuple(alphas),
            decomposition=cert.decomposition._replace(sequences=tuple(seqs)))
        got, want = _sum_rule_rows(edited)
        assert got == want, (alphas, seqs)


def _torsion_class(cert):
    """The edit that makes the certificate's class a torsion class."""
    h2 = FgAbelianGroup(1, (4,))
    classes = (("a", h2.element([1], [0])), ("b", h2.element([0], [2])))
    return cert._replace(base=BaseManifold(
        "torsion-b", 3, h2, classes,
        frozenset({"aspherical", "scf_pi1", "d_self_is_01"}), frozenset({"a"})))


def _flags(*flags):
    """The edit that declares exactly ``flags`` on the certificate's base."""
    def edit(cert):
        base = cert.base
        return cert._replace(base=BaseManifold(base.name, base.dim, base.h2, base.named_classes,
                                               frozenset(flags), base.fixes))
    return edit


def _zero_multiplier(cert):
    return cert._replace(multipliers=(0,) + cert.multipliers[1:])


SUM_RULE_EDITS = {  # name -> edit
    "unedited": lambda cert: cert,
    "no-scf": _flags("aspherical", "d_self_is_01"),
    "torsion-class": _torsion_class,
    "weak-finite": _flags("aspherical", "scf_pi1", "d_self_finite"),
    "weak": _flags("aspherical", "scf_pi1"),
    "zero-multiplier": _zero_multiplier,
    "missing-class": lambda cert: cert._replace(class_label="c"),
}


@pytest.mark.parametrize("name", SUM_RULE_EDITS)
def test_sum_rule_rows_match_the_reference_on_edited_certificates(name):
    edit = SUM_RULE_EDITS[name]
    for target, dim in (({0, 1, 3, 7}, 4), ({0, -2, 5}, 3), ({0, 1, 3}, 8)):
        cert = edit(build_construction(target, dim))
        got, want = _sum_rule_rows(cert)
        assert got == want, (target, dim)
        assert (got == [True] * len(got)) == (name == "unedited")


def test_pair_rule_hypotheses_are_decided_once_per_certificate(monkeypatch):
    cert = build_construction({0, 1, 3, 7}, 4)
    lengths = [len(s) for s in cert.decomposition.sequences]
    assert len(lengths) >= 3 and sum(lengths) > len(lengths)
    weak = _flags("aspherical", "scf_pi1")(cert)
    wants = [verify_certificate(c).to_json() for c in (cert, weak)]
    base_calls, nonzero_calls = [], []
    real_base, real_nonzero = realize._base_rule_hypotheses, realize._require_nonzero_multipliers

    def counted_base(base, label):
        base_calls.append(base.name)
        return real_base(base, label)

    def counted_nonzero(m, k):
        nonzero_calls.append(k)
        return real_nonzero(m, k)

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier built a pair rule result")
    monkeypatch.setattr(realize, "_base_rule_hypotheses", counted_base)
    monkeypatch.setattr(realize, "_require_nonzero_multipliers", counted_nonzero)
    # the verifier once called the rule through its own imported name
    monkeypatch.setattr(realize, "same_base_pair_degree_set", refuse, raising=False)
    monkeypatch.setattr(bundles, "same_base_pair_degree_set", refuse)
    for c, want in zip((cert, weak), wants):
        assert verify_certificate(c).to_json() == want
    assert wants[0]["valid"]
    # a failed verdict is worded once and shared by every pair
    details = {row.get("detail") for row in wants[1]["checks"]
               if row["id"].endswith(".sum-rule")}
    assert details == {f"base {cert.base.name!r} is missing required flag: d_self_finite"}
    # the multipliers are tested once per pair, the base once per certificate
    assert nonzero_calls == list(cert.multipliers) * 2
    assert base_calls == [cert.base.name] * 2
    # a certificate no pair of which reaches the rule never decides it
    base_calls.clear()
    undivided = cert._replace(multipliers=tuple(a + 1 for a in cert.multipliers))
    assert not verify_certificate(undivided).valid
    assert base_calls == []


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    small = range(200_000)
    assert [n for n in small if _is_prime(n)] == [n for n in small if sympy.isprime(n)]
    rng = random.Random(2017)
    for _ in range(500):
        n = rng.randrange(2**40, 2**80) | 1
        assert _is_prime(n) == sympy.isprime(n), n
        assert _is_prime(sympy.nextprime(n))
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n) and not _is_prime(n), n
    assert _is_prime(sympy.prevprime(PRIMALITY_BOUND))


def test_is_prime_caps_where_its_bases_stop_being_exact():
    # a strong pseudoprime to all 13 bases
    with pytest.raises(ResourceCapError, match="decided only below") as err:
        _is_prime(PRIMALITY_BOUND)
    assert err.value.cap_name == "primality_bound"
    assert _is_prime(PRIMALITY_BOUND - 2) is False  # 17 divides it


def test_caps_inside_the_verifier_become_failed_checks():
    cert = build_construction({0, 1, 3}, 4)
    wide = {"finite": [0], "progressions": [{"base": 1, "mod": 1000003},
                                            {"base": 1, "mod": 999983}]}

    def widen(obj):
        for pair in obj["pairs"]:
            pair["claimed"] = copy.deepcopy(wide)
        obj["finalSet"] = {**wide, "finite": [0, 5]}

    def huge_prime(obj):
        obj["primes"][0] = PRIMALITY_BOUND

    report = verify_certificate(mutate(cert, widen))
    detail = {c.id: c.detail for c in report.checks if not c.ok}
    assert "beyond the cap of" in detail["final.intersection"]
    assert "final.equals-target" in detail
    report = verify_certificate(mutate(cert, huge_prime))
    detail = {c.id: c.detail for c in report.checks if not c.ok}
    assert detail["primes.primality"] == (
        f"primality of {PRIMALITY_BOUND} is decided only below {PRIMALITY_BOUND}")

    def wide_target(obj):
        widen(obj)
        obj["targetSet"] = copy.deepcopy(wide)

    report = verify_certificate(mutate(cert, wide_target))
    detail = {c.id: c.detail for c in report.checks if not c.ok}
    assert detail["final.equals-target"].startswith("comparing degree sets would enumerate ")


def test_a_combination_that_is_no_manifold_fails_its_dimension_check():
    # only a certificate built in Python can hold one: the decoder builds
    # manifold expressions, and expr_dim raises InputError on anything else
    cert = build_construction({0, 1, 3}, 4)
    bad = cert._replace(combination=cert.combination._replace(result_domain="M"))
    detail = {c.id: c.detail for c in verify_certificate(bad).checks if not c.ok}
    assert detail["combination.dimension"] == "not a manifold expression: 'M'"


def test_a_report_builds_no_check_until_its_checks_are_read(monkeypatch):
    built = []

    class Counting(realize.Check):
        def __init__(self, *fields):
            built.append(fields)
            super().__init__(*fields)

    monkeypatch.setattr(realize, "Check", Counting)
    cert = build_construction({0, 1, 3}, 4)
    prime_too_small = tamper_cases()[0][0]
    for c in (cert, mutate(cert, prime_too_small)):
        report = verify_certificate(c)
        assert report.valid == (c is cert)
        assert report.first_failure == (None if c is cert else "primes.size")
        shown = report.to_json()["checks"]
        report.render()
        assert not built
        checks = report.checks
        assert len(built) == len(checks) == len(shown)
        assert [(k.id, k.ok, k.detail) for k in checks] == \
            [(k["id"], k["ok"], k.get("detail", "")) for k in shown]
        built.clear()


def test_render_lists_rules():
    cert = build_construction({0, 1, 3}, 4)
    text = render_certificate(cert)
    assert text.isascii()
    for tag in ("fixed-class-scaling", "connected-sum-domain",
                "cross-nondivisibility", "padded-combination"):
        assert tag in text
    assert "degree set: {0, 1, 3}" in text
    up = render_certificate(stabilize(cert, 8))
    assert "dimension-stabilization" in up

    single = render_certificate(build_construction({0, 5}, 4))
    assert "connected-sum-domain" not in single
    assert "primes" not in single


@pytest.mark.parametrize("j", [2, -1])
def test_render_leaves_out_a_multiplier_out_of_range(j):
    # the text of an unverified certificate: j = -1 would name the last
    # pair's multiplier, j = 2 raised IndexError
    def edit(obj):
        obj["crossChecks"][0]["j"] = j
    text = render_certificate(mutate(build_construction({0, 1, 3}, 4), edit))
    assert f"cross pair 1->{j + 1}, summand 1: 15 does not divide ? " in text
