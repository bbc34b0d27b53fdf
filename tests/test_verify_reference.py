"""Differential tests: the verifier against the one it replaced.

``reference_verify_certificate`` is the verifier as it was before its
checks ran in line: a verdict that can raise goes through a ``check``
runner, and three of them are closures and three lambdas built per call.
The current ``verify_certificate`` must give the same ``rows``, ``valid``
and ``first_failure`` on built certificates, on the tampering cases and on
every schema-valid certificate one leaf edit away from a built one, and
on certificates where each verdict that can raise does.
"""

from __future__ import annotations

import copy
import math
from typing import Callable

import pytest
from test_realize import _criterion6_requests, tamper_cases

from circledeg.bundles import (
    STRONG_BASE_FLAGS,
    CircleBundle,
    ConnectedSum,
    ManifoldExpr,
    SphereProduct,
    SymbolicRepeat,
    _require_nonzero_multipliers,
    exact_pair_rule,
    expr_dim,
)
from circledeg.degsets import VERIFY_LENGTH_CAP, enumerated_sums
from circledeg.errors import InputError, ResourceCapError
from circledeg.realize import (
    _CROSS_LISTING_CAP,
    PRIMALITY_BOUND,
    RealizationCertificate,
    VerificationReport,
    _base_rule,
    _is_prime,
    _outline,
    _strip_stabilization,
    build_construction,
    stabilize,
    verify_certificate,
)
from circledeg.schema import validate_payload

# ---------------------------------------------------------------------------
# the former verifier


def reference_verify_certificate(cert: RealizationCertificate) -> VerificationReport:
    """Re-derive every claim of a realization certificate.

    Records one ``(id, verdict)`` row per claim, in a fixed order, in the
    report's ``rows``; the verdict is True or the failure detail, and
    ``first_failure`` is the id of the earliest failed check.  No
    :class:`Check` record is built unless ``report.checks`` is read.  A
    verdict that can raise :class:`InputError` or a cap goes through a
    runner that turns the error's text into the detail; the rest are
    recorded directly.  Each S_B(i) is re-derived once, by full subset
    enumeration, and serves both the decomposition check and pair i's
    claimed set; the decomposition's transcript is not read.  When every
    pair claims its S_B(i), the final set is compared with the enumerated
    intersection, and otherwise with the claimed sets' intersection.  Pair
    degree sets are re-won from the same-base rule: each pair's multipliers are
    tested for zero, and the rule's hypotheses on the base and the class,
    which no pair changes, are decided once per certificate and their
    verdict shared by every pair's ``sum-rule`` row.  Cross
    non-divisibility and the combination shape are recomputed from the
    stored multipliers.  The Euler class of a target or a summand is
    compared with alpha*b or m*b by its coordinates, and the combined pair
    by its summands, so no multiple of b and no connected sum is built
    unless a failure is worded.  ``cert.cross_checks`` holds
    ``(i, j, summand, multiplier, verdict)`` rows; one pass over them
    decides each row and gathers the completeness data, and the
    ``cross.completeness`` row, which names missing, out-of-range and
    repeated cross checks, still comes before their rows.
    """
    rows: list[tuple[str, bool | str]] = []
    add = rows.append

    def check(cid: str, verdict: Callable[[], bool | str]) -> bool | str:
        """Records check ``cid`` for a verdict that can raise and returns
        the verdict: ``verdict()`` is True when it passes and otherwise the
        failure detail.  An :class:`InputError` or a cap ``verdict`` raises
        fails the check with the error's text."""
        try:
            got = verdict()
        except (InputError, ResourceCapError) as exc:
            got = str(exc)
        add((cid, got))
        return got

    # A verdict that cannot raise is recorded directly as ``cond or
    # detail``, so a detail is formatted only for a failure.
    target = cert.target
    add(("target.form", target.is_finite_set and target.contains(0)
         or "target must be a finite set containing 0"))

    decomp = cert.decomposition
    tgt_sorted = tuple(sorted(target.finite)) if target.is_finite_set else ()
    add(("decomposition.matches-target", decomp.target == tgt_sorted or (
        f"decomposition target {list(decomp.target)} differs from "
        f"certificate target {list(tgt_sorted)}")))

    seqs = decomp.sequences
    r = len(seqs)
    # each S_B(i) is compared with pair i's claim as soon as it is
    # enumerated and then dropped, so only the intersection is kept
    claims: list[bool | str] = []
    meet: frozenset[int] | None = None  # the intersection once enumerated

    def intersection() -> bool | str:
        nonlocal meet
        inter: frozenset[int] | None = None
        for i, sums in enumerate(enumerated_sums(seqs)):
            inter = sums if inter is None else inter & sums
            if i < len(cert.pairs):
                claim = cert.pairs[i].claimed
                claims.append(
                    not claim.progressions and len(claim.finite) == len(sums)
                    and sums.issuperset(claim.finite)
                    or f"claimed set {_outline(claim)} is not the subsequence-sum "
                       f"set of {list(seqs[i].entries)}")
        meet = inter
        return inter == frozenset(decomp.target) or \
            "stored sequences do not intersect to the target"
    valid = check("decomposition.valid", intersection)
    # a cap is raised before the first S_B is enumerated and fails every claim
    claims = claims or [valid] * len(cert.pairs)

    expected_primes = 0 if r == 1 else r
    add(("primes.count", len(cert.primes) == expected_primes or (
        f"expected {expected_primes} primes for {r} sequences, got {len(cert.primes)}")))
    add(("primes.distinct", len(set(cert.primes)) == len(cert.primes) or "primes repeat"))
    check("primes.primality", lambda: all(map(_is_prime, cert.primes)) or (
        f"not prime: {[p for p in cert.primes if not _is_prime(p)]}"))
    hull = max((abs(x) for s in seqs for x in s.entries), default=0)
    add(("primes.size", all(p > hull for p in cert.primes) or (
        f"primes {[p for p in cert.primes if p <= hull]} are not larger than "
        f"the largest entry magnitude {hull}")))

    add(("alpha.count", len(cert.multipliers) == r or (
        f"expected {r} multipliers, got {len(cert.multipliers)}")))
    for i in range(min(r, len(cert.multipliers))):
        expect = math.prod(seqs[i].entries)
        if r > 1 and i < len(cert.primes):
            expect *= cert.primes[i]
        add((f"alpha.product[{i}]", cert.multipliers[i] == expect or (
            f"multiplier {cert.multipliers[i]} is not "
            f"{'prime times ' if r > 1 else ''}the sequence product {expect}")))

    base = cert.base
    add(("base.flags", all(map(base.has, STRONG_BASE_FLAGS)) or (
        f"base lacks flags: {[f for f in STRONG_BASE_FLAGS if not base.has(f)]}")))
    label = cert.class_label
    b = base.named_class(label)
    add(("base.class", b is not None and label in base.fixes or (
        f"class {label!r} must be a named class fixed by degree-one self maps")))
    # b's free coordinates and its (residue, modulus) pairs: a bundle over
    # ``base`` has its Euler class in b's group, so the class is m*b when
    # its coordinates are those of m*b, and m*b is never built
    b_free = b.free if b is not None else ()
    b_torsion = tuple(zip(b.torsion, b.group.torsion)) if b is not None else ()

    def is_multiple(bundle: ManifoldExpr, m: int) -> bool:
        """Whether ``bundle`` is the bundle over ``base`` with Euler class m*b."""
        # a decoded or built certificate shares its base among its bundles
        return (isinstance(bundle, CircleBundle)
                and (bundle.base is base or bundle.base == base)
                and bundle.euler.free == tuple([m * x for x in b_free])
                and (not b_torsion
                     or bundle.euler.torsion == tuple([m * x % d for x, d in b_torsion])))

    # alpha_i / beta for each entry beta of B(i), or None where beta does
    # not divide alpha_i; shared by the summand, sum-rule and cross checks
    summand_multipliers = [
        [alpha // beta if alpha % beta == 0 else None for beta in s.entries]
        for s, alpha in zip(seqs, cert.multipliers)]

    indexes = [p.index for p in cert.pairs]
    add(("pair.count", indexes == list(range(r)) or (
        f"expected {r} pairs, got {len(indexes)}" if len(indexes) != r
        else f"pairs are indexed {indexes}, expected {list(range(r))}")))
    expected_rule = exact_pair_rule(base)
    # the pair rule's hypotheses on the base and the class, decided by the
    # first pair that needs them
    base_rule: bool | str | None = None
    for i, pair in enumerate(cert.pairs):
        pid = f"pair[{i}]"
        add((f"{pid}.rule", pair.rule == expected_rule or (
            f"rule {pair.rule!r} does not match the base (expected {expected_rule!r})")))
        if i >= r or i >= len(cert.multipliers):
            add((f"{pid}.target-euler", "pair has no matching sequence"))
            continue
        alpha = cert.multipliers[i]
        entries = seqs[i].entries
        ms = summand_multipliers[i]
        add((f"{pid}.target-euler", b is not None and is_multiple(pair.target, alpha)
             or f"target must be the bundle with Euler class {alpha}*{label}"))

        summands = pair.domain.summands if isinstance(pair.domain, ConnectedSum) \
            else (pair.domain,)
        div_bad = [beta for beta, m in zip(entries, ms) if m is None]
        add((f"{pid}.summand-divisibility", not div_bad or (
            f"entries {div_bad} do not divide the multiplier {alpha}")))
        add((f"{pid}.summand-euler", (
            b is not None
            and not div_bad
            and len(summands) == len(entries)
            and all(map(is_multiple, summands, ms))
        ) or ("domain summands must be the bundles with Euler classes "
              f"({alpha}/beta)*{label} for beta in {list(entries)}")))
        # every entry beta divides alpha, so the pair rule's {0, alpha/m}
        # is {0, beta} for each summand and only its hypotheses are
        # checked: the multipliers are nonzero, and the base-level verdict
        if div_bad:
            rule: bool | str = "multiplier ratios are not integers"
        elif not entries:
            rule = True
        else:
            try:
                _require_nonzero_multipliers(ms[0], alpha)
            except InputError as exc:
                rule = str(exc)
            else:
                if base_rule is None:
                    base_rule = _base_rule(base, label)
                rule = base_rule
        add((f"{pid}.sum-rule", rule))
        add((f"{pid}.claimed-vs-enumeration", claims[i]))

    # one cross check is expected for each (i, j, summand) with i != j and
    # summand indexing B(i).  One pass decides each record and gathers
    # what completeness needs; its row still comes before the records'.
    lengths = [len(s) for s in seqs]
    multipliers = cert.multipliers
    count = len(multipliers)
    keys: set[tuple[int, int, int]] = set()
    unexpected: set[tuple[int, int, int]] = set()
    duplicated: set[tuple[int, int, int]] = set()
    cross_rows = []
    pair_key = prefix = None  # the rows of one (i, j) share their id's prefix
    for i, j, s_idx, stored_m, stored_verdict in cert.cross_checks:
        key = (i, j, s_idx)
        if key in keys:
            duplicated.add(key)
        keys.add(key)
        if not (0 <= i < r and 0 <= j < r and i != j and 0 <= s_idx < lengths[i]):
            unexpected.add(key)
            verdict: bool | str = "cross check out of range"
        elif i >= count or j >= count:
            verdict = "cross check names a pair without a multiplier"
        else:
            # alpha_i and beta are read only to word a failure
            m = summand_multipliers[i][s_idx]
            if m is None:
                verdict = (f"entry {seqs[i].entries[s_idx]} does not divide "
                           f"multiplier {multipliers[i]}")
            elif stored_m != m:
                verdict = (f"stored multiplier {stored_m} is not "
                           f"{multipliers[i]}/{seqs[i].entries[s_idx]} = {m}")
            elif stored_verdict != "pass":
                verdict = f"verdict {stored_verdict!r} is not 'pass'"
            elif m == 0:
                verdict = (f"summand multiplier {multipliers[i]}/{seqs[i].entries[s_idx]} "
                           "is 0; the pair rule needs it nonzero")
            else:
                alpha_j = multipliers[j]
                verdict = alpha_j % m != 0 or f"summand multiplier {m} divides {alpha_j}"
        if (i, j) != pair_key:
            pair_key, prefix = (i, j), f"cross[{i},{j},"
        cross_rows.append((f"{prefix}{s_idx}].nondivisible", verdict))

    expected = (r - 1) * sum(lengths)
    found = len(keys) - len(unexpected)
    if not unexpected and not duplicated and found == expected:
        complete: bool | str = True
    elif expected <= _CROSS_LISTING_CAP:
        every = {(i, j, s_idx) for i in range(r) for j in range(r) if i != j
                 for s_idx in range(lengths[i])}
        complete = f"missing {sorted(every - keys)}, unexpected {sorted(unexpected)}"
        if duplicated:
            complete += f", duplicated {sorted(duplicated)}"
    else:
        complete = (f"missing {expected - found} of {expected} expected cross "
                    f"checks, unexpected {len(unexpected)}")
        if duplicated:
            complete += f", duplicated {len(duplicated)}"
    add(("cross.completeness", complete))
    rows.extend(cross_rows)

    combo = cert.combination
    n0 = base.dim + 1

    def shape() -> bool | str:
        dom = _strip_stabilization(combo.result_domain)
        cod = _strip_stabilization(combo.result_target)
        if r == 1:
            return (combo.pad_symbol is None
                    and combo.rule == "direct"
                    and len(cert.pairs) == 1
                    and dom == cert.pairs[0].domain
                    and cod == cert.pairs[0].target
                    ) or "single-pair combination must reuse the pair unchanged"
        if (combo.pad_symbol is not None and len(cert.pairs) == r
                and combo.rule == "padded-combination"):
            pad = (SymbolicRepeat(SphereProduct(n0), combo.pad_symbol),)
            domains = tuple(p.domain for p in cert.pairs) + pad
            targets = tuple(p.target for p in cert.pairs) + pad
            dom_ok = isinstance(dom, ConnectedSum) and dom.summands == domains
            if dom_ok and isinstance(cod, ConnectedSum) and cod.summands == targets:
                return True
            # summands that cannot form a connected sum fail with the reason
            # the constructor gives, domains first
            ConnectedSum(domains)
            if dom_ok:
                ConnectedSum(targets)
        return ("combination must connect-sum all pair domains (and targets) "
                f"with a symbolic number of S^{n0 - 1}xS^1 copies")
    check("combination.shape", shape)

    check("combination.dimension", lambda: expr_dim(combo.result_domain) == cert.dimension
          and expr_dim(combo.result_target) == cert.dimension
          or f"combined pair must live in dimension {cert.dimension}")

    def final_intersection() -> bool | str:
        final = cert.final_set
        if meet is not None and len(cert.pairs) == r and all(c is True for c in claims):
            # each pair claims its S_B(i), so the claims meet where the
            # enumeration did
            same = not final.progressions and len(final.finite) == len(meet) \
                and meet.issuperset(final.finite)
        else:
            inter = None
            for pair in cert.pairs:
                inter = pair.claimed if inter is None else inter.intersect(pair.claimed)
            same = inter is not None and final.equals(inter)
        return same or "final set must be the intersection of the pair degree sets"
    check("final.intersection", final_intersection)
    check("final.equals-target", lambda: cert.final_set.equals(target) or (
        f"final set {cert.final_set.render()} differs from the target "
        f"{target.render()}"))

    dim = n0
    chain_ok = True
    for t, st in enumerate(cert.stabilizations):
        shifted = (st.shift >= 3 and st.from_dimension == dim
                   and st.to_dimension == st.from_dimension + st.shift)
        add((f"stabilization[{t}].shift", shifted or (
            f"shift {st.shift} from {st.from_dimension} to {st.to_dimension} "
            f"does not extend dimension {dim} by at least 3")))
        add((f"stabilization[{t}].rule", st.rule == "dimension-stabilization"
             or f"rule {st.rule!r} is not 'dimension-stabilization'"))
        chain_ok = chain_ok and shifted
        dim = st.to_dimension
    add(("stabilization.chain", chain_ok and dim == cert.dimension or (
        f"stabilizations end at dimension {dim}, certificate says {cert.dimension}")))

    first = next((cid for cid, verdict in rows if verdict is not True), None)
    return VerificationReport(first is None, tuple(rows), first)


# ---------------------------------------------------------------------------
# tests


def outcome(verify, cert):
    """What a verifier reports on ``cert``, or the error it raised."""
    try:
        report = verify(cert)
    except Exception as exc:  # noqa: BLE001 - both verifiers must agree on it
        return f"{type(exc).__name__}: {exc}"
    return report.rows, report.valid, report.first_failure


def assert_same_reports(certs):
    for cert in certs:
        assert outcome(verify_certificate, cert) == \
            outcome(reference_verify_certificate, cert), cert.to_json()


def test_verifier_matches_the_former_one_on_criterion6_certificates():
    certs = [build_construction(target, dim) for target, dim in _criterion6_requests()]
    assert {cert.dimension for cert in certs} == {3, 4, 5, 8}
    certs.append(stabilize(build_construction({0, 1, 3}, 4), 9))
    assert_same_reports(certs)


def test_verifier_matches_the_former_one_on_tampered_certificates():
    source = build_construction({0, 1, 3}, 4).to_json()
    certs = []
    for editor, _ in tamper_cases():
        obj = copy.deepcopy(source)
        editor(obj)
        certs.append(RealizationCertificate.from_json(obj))
    assert_same_reports(certs)
    assert not any(verify_certificate(cert).valid for cert in certs)


def raising_cases():
    """Certificates on which each verdict that can raise does."""
    source = build_construction({0, 1, 3}, 4)
    wide = {"finite": [0], "progressions": [{"base": 1, "mod": 1000003},
                                            {"base": 1, "mod": 999983}]}

    def widen(obj):
        for pair in obj["pairs"]:
            pair["claimed"] = copy.deepcopy(wide)
        obj["finalSet"] = {**wide, "finite": [0, 5]}

    def wide_target(obj):
        widen(obj)
        obj["targetSet"] = copy.deepcopy(wide)

    def huge_prime(obj):
        obj["primes"][0] = PRIMALITY_BOUND

    def long_sequence(obj):
        obj["decomposition"]["sequences"][0] = [1] * (VERIFY_LENGTH_CAP + 1)

    def odd_domain(obj):
        obj["pairs"][0]["domain"] = {"sphereProduct": 9}

    def odd_target(obj):
        obj["pairs"][1]["target"] = {"sphereProduct": 9}

    certs = []
    for edit in (widen, wide_target, huge_prime, long_sequence, odd_domain, odd_target):
        obj = source.to_json()
        edit(obj)
        certs.append(RealizationCertificate.from_json(obj))
    # only a certificate built in Python can hold an expression the decoder
    # never builds
    certs.append(source._replace(
        combination=source.combination._replace(result_domain="M")))
    return certs


def test_verifier_matches_the_former_one_where_verdicts_raise():
    certs = raising_cases()
    assert_same_reports(certs)
    # each of the six records an error's text somewhere
    raised = {cid for cert in certs for cid, verdict in verify_certificate(cert).rows
              if isinstance(verdict, str) and any(text in verdict for text in (
                  "cap", "decided only below", "would enumerate",
                  "summands must share a dimension", "not a manifold expression"))}
    assert raised >= {"decomposition.valid", "primes.primality", "combination.shape",
                      "combination.dimension", "final.intersection", "final.equals-target"}


def _edit(value):
    """The one edit made to a JSON leaf of each type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return "1"
    raise AssertionError(f"not a JSON leaf: {value!r}")


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def one_leaf_mutants(obj):
    """Every schema-valid, decodable certificate that differs from ``obj``
    in one leaf, edited by ``_edit``."""
    for path in _leaf_paths(obj):
        mutant = copy.deepcopy(obj)
        node = mutant
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _edit(node[path[-1]])
        try:
            validate_payload("realizationCertificate", mutant)
            yield RealizationCertificate.from_json(mutant)
        except InputError:
            continue


@pytest.mark.parametrize("target,dim", [({0, 1, 3}, 4), ({0, -2, 3}, 3),
                                        ({0, 1, -2, 4}, 5), ({0, 1, 3}, 8)])
def test_verifier_matches_the_former_one_on_one_leaf_mutants(target, dim):
    mutants = list(one_leaf_mutants(build_construction(target, dim).to_json()))
    assert len(mutants) > 50
    assert_same_reports(mutants)
    assert not all(verify_certificate(cert).valid for cert in mutants)
