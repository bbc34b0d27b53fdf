"""Constructions realizing a finite degree set, with checkable certificates.

Given a finite set A containing 0, the builder produces a pair of closed
manifolds M -> N in a requested dimension whose degree set is exactly A,
as a certificate listing every claim with the rule that justifies it:

1. A is written as an intersection of subsequence-sum sets S_B(1), ...,
   S_B(r) (the decomposition certificate).
2. For each sequence B(i) a multiplier alpha_i is formed: the product of
   the entries of B(i) times a dedicated prime p_i chosen larger than
   every entry magnitude.  With a single sequence the prime is dropped
   and alpha_1 is just the product.
3. Over a fixed base with distinguished class b, the target N_i is the
   circle bundle with Euler class alpha_i*b, and the domain M_i is the
   connected sum of the bundles with Euler classes (alpha_i/beta)*b for
   beta in B(i).  Each summand maps onto N_i with degree beta
   (fixed-class-scaling), and collapsing all but a chosen subset of
   summands realizes every subsequence sum, so the degree set of the
   pair is exactly S_B(i) (connected-sum-domain).
4. Cross pairs are dead: the summand multiplier alpha_i/beta carries the
   prime p_i, which does not divide alpha_j, so no summand of M_i admits
   a nonzero-degree map to N_j (cross-nondivisibility).
5. The pairs are combined by connected sum, padded with a symbolic
   number l of copies of S^(n-1) x S^1 so that self-maps of the padding
   absorb nothing new; the degree set of the combined pair is the
   intersection of the S_B(i), which is A (padded-combination).
6. When the requested dimension exceeds the construction dimension by at
   least 3, the result is carried up by a product-with-sphere shift that
   leaves the degree set unchanged (dimension-stabilization).

``verify_certificate`` re-derives every claim from scratch and reports
one named check per claim, in a fixed order, with the first failing
check singled out.  Each claimed set S_B(i) is re-derived by enumerating
all subsets of B(i), never by the sum DP of ``decompose``, whose
transcript the builder reads its claimed sets from.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from ._frozen import Frozen
from .abelian import GroupElement
from .bundles import (
    STRONG_BASE_FLAGS,
    BaseManifold,
    CircleBundle,
    ConnectedSum,
    ManifoldExpr,
    SphereProduct,
    Stabilized,
    SymbolicRepeat,
    _base_rule_hypotheses,
    _require_nonzero_multipliers,
    builtin_registry,
    exact_pair_rule,
    expr_dim,
    expr_from_json,
    expr_to_json,
    render_expr,
)
from .degsets import (
    DecompositionCertificate,
    DegreeSet,
    SearchLimits,
    SequenceB,
    decompose,
    enumerated_sums,
)
from .errors import HypothesisError, InputError, ResourceCapError
from .schema import _json_path

__all__ = [
    "PairClaim",
    "Combination",
    "Stabilization",
    "RealizationCertificate",
    "Check",
    "VerificationReport",
    "choose_primes",
    "build_construction",
    "stabilize",
    "verify_certificate",
    "render_certificate",
    "DEFAULT_BASE_BY_DIMENSION",
    "PRIMALITY_BOUND",
]

DEFAULT_BASE_BY_DIMENSION = {3: "surface", 4: "knot-glue-3", 5: "hyp-odd-4"}

PAD_SYMBOL = "l"

# expected cross checks up to which a failed ``cross.completeness`` lists
# the missing and unexpected ones; above it the detail gives counts
_CROSS_LISTING_CAP = 1 << 12


# Miller–Rabin with the 13 prime bases up to 41 decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017))
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality below ``PRIMALITY_BOUND``; at or above it raises
    :class:`ResourceCapError`.

    >>> [n for n in range(30) if _is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> _is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5 and 7
    False
    """
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor up to 41
        return True
    if n >= PRIMALITY_BOUND:
        raise ResourceCapError(
            "primality_bound", PRIMALITY_BOUND,
            f"primality of {n} is decided only below {PRIMALITY_BOUND}",
        )
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def choose_primes(sequences: Sequence[SequenceB]) -> tuple[int, ...]:
    """One prime per sequence, all distinct, each larger than every entry
    magnitude across all the sequences; smallest such primes, ascending.

    >>> choose_primes([SequenceB((1, 3)), SequenceB((1, 2))])
    (5, 7)
    >>> choose_primes([SequenceB((10,))])
    (11,)
    >>> choose_primes([SequenceB((1,)), SequenceB((1,)), SequenceB((1,))])
    (2, 3, 5)
    """
    hull = max((abs(x) for s in sequences for x in s.entries), default=0)
    out: list[int] = []
    candidate = hull + 1
    while len(out) < len(sequences):
        if _is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# certificate records


class PairClaim(Frozen):
    """One constructed pair M_i -> N_i with its exact degree set."""

    __slots__ = ("index", "domain", "target", "claimed", "rule")

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "domain": expr_to_json(self.domain),
            "target": expr_to_json(self.target),
            "claimed": self.claimed.to_json(),
            "rule": self.rule,
        }


class Combination(Frozen):
    """The assembled pair; ``pad_symbol`` names the free parameter for the
    number of S^(n-1) x S^1 padding copies, None when a single pair is
    used as-is."""

    __slots__ = ("pad_symbol", "result_domain", "result_target", "rule")

    def to_json(self) -> dict:
        return {
            "l": self.pad_symbol,
            "resultDomain": expr_to_json(self.result_domain),
            "resultTarget": expr_to_json(self.result_target),
            "rule": self.rule,
        }


class Stabilization(Frozen):
    __slots__ = ("shift", "from_dimension", "to_dimension", "rule")

    def to_json(self) -> dict:
        return {
            "shift": self.shift,
            "fromDimension": self.from_dimension,
            "toDimension": self.to_dimension,
            "rule": self.rule,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Stabilization":
        """Record from a payload valid under the ``stabilization`` schema."""
        return cls(int(obj["shift"]), int(obj["fromDimension"]),
                   int(obj["toDimension"]), obj.get("rule", "dimension-stabilization"))


class RealizationCertificate(Frozen):
    """A realization certificate.  ``cross_checks`` holds one
    ``(i, j, summand, multiplier, verdict)`` row per firewall claim:
    summand ``summand`` of M_i cannot reach N_j with nonzero degree
    because its multiplier does not divide alpha_j."""

    __slots__ = ("target", "dimension", "base", "class_label", "decomposition", "primes",
                 "multipliers", "pairs", "cross_checks", "combination", "final_set",
                 "stabilizations")

    def to_json(self) -> dict:
        return {
            "schemaVersion": 1,
            "kind": "realization-certificate",
            "targetSet": self.target.to_json(),
            "dimension": self.dimension,
            "base": self.base.to_json(),
            "classLabel": self.class_label,
            "decomposition": self.decomposition.to_json(),
            "primes": list(self.primes),
            "multipliers": list(self.multipliers),
            "pairs": [p.to_json() for p in self.pairs],
            "crossChecks": [{"i": i, "j": j, "summand": s, "multiplier": m, "verdict": v}
                            for i, j, s, m, v in self.cross_checks],
            "combination": self.combination.to_json(),
            "finalSet": self.final_set.to_json(),
            "stabilizations": [s.to_json() for s in self.stabilizations],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RealizationCertificate":
        """Certificate from a payload valid under the
        ``realizationCertificate`` schema; call ``validate_payload`` first
        on JSON from outside.  Another kind of document or schema version
        is refused here too.  The pairs and the combination are decoded
        here, against the certificate's base: each distinct bundle among
        them is built once, and shared wherever it recurs.  Each cross
        check becomes an ``(i, j, summand, multiplier, verdict)`` row.  A
        value the schema admits but a decoder refuses raises an
        :class:`InputError` that names the JSON path of its field, such as
        ``$.pairs[0].target: unknown base manifold: 'nope'``."""
        if not isinstance(obj, dict):
            raise InputError("certificate must be a JSON object")
        if obj.get("kind") != "realization-certificate":
            raise InputError("not a realization certificate")
        if obj.get("schemaVersion") != 1:
            raise InputError(f"unsupported schema version: {obj.get('schemaVersion')!r}")
        at: tuple = ("base",)  # the path of the field being decoded
        try:
            base = BaseManifold.from_json(obj["base"])
            registry = {base.name: base}
            bundles: dict = {}
            at = ("targetSet",)
            target = DegreeSet.from_json(obj["targetSet"])
            at = ("decomposition",)
            decomposition = DecompositionCertificate.from_json(obj["decomposition"])
            pairs = []
            for i, p in enumerate(obj["pairs"]):
                at = ("pairs", i, "domain")
                domain = expr_from_json(p["domain"], registry, bundles)
                at = ("pairs", i, "target")
                pair_target = expr_from_json(p["target"], registry, bundles)
                at = ("pairs", i, "claimed")
                pairs.append(PairClaim(int(p["index"]), domain, pair_target,
                                       DegreeSet.from_json(p["claimed"]), p["rule"]))
            combo = obj["combination"]
            at = ("combination", "resultDomain")
            domain = expr_from_json(combo["resultDomain"], registry, bundles)
            at = ("combination", "resultTarget")
            combination = Combination(combo["l"], domain, expr_from_json(
                combo["resultTarget"], registry, bundles), combo["rule"])
            at = ("finalSet",)
            final_set = DegreeSet.from_json(obj["finalSet"])
        except InputError as exc:
            raise InputError(f"{_json_path(at)}: {exc}") from exc
        return cls(
            target,
            int(obj["dimension"]),
            base,
            obj["classLabel"],
            decomposition,
            tuple(map(int, obj["primes"])),
            tuple(map(int, obj["multipliers"])),
            tuple(pairs),
            tuple((int(c["i"]), int(c["j"]), int(c["summand"]), int(c["multiplier"]),
                   c["verdict"]) for c in obj["crossChecks"]),
            combination,
            final_set,
            tuple(Stabilization.from_json(s) for s in obj.get("stabilizations", ())),
        )


# ---------------------------------------------------------------------------
# building


def _strong_class(base: BaseManifold, class_label: str) -> GroupElement:
    """The class of ``base`` named ``class_label``, whose multiples the
    construction takes as Euler classes; raises :class:`HypothesisError`
    unless the base has every strong flag and fixes the class."""
    for flag in STRONG_BASE_FLAGS:
        if not base.has(flag):
            raise HypothesisError(
                f"base {base.name!r} is missing required flag: {flag}"
            )
    b = base.named_class(class_label)
    if b is None:
        raise HypothesisError(f"base {base.name!r} has no class named {class_label!r}")
    if class_label not in base.fixes:
        raise HypothesisError(
            f"class {class_label!r} must be fixed by degree-one self maps"
        )
    return b


def build_construction(a: Iterable[int] | DegreeSet, dimension: int = 4,
                       base: BaseManifold | None = None, class_label: str = "b",
                       limits: SearchLimits | None = None) -> RealizationCertificate:
    """Certificate for a pair of closed ``dimension``-manifolds whose
    degree set is exactly the finite set ``a`` (which must contain 0).

    Without an explicit base, dimensions 3, 4 and 5 use the presets
    surface, knot-glue-3 and hyp-odd-4; higher dimensions build over the
    surface and stabilize up.  With an explicit base the construction
    dimension is base.dim + 1 and any remaining gap must be at least 3.

    Pair i claims the set S_B(i) that ``decompose`` recorded in its
    transcript, so no sum set is computed twice; the verifier never reads
    the transcript and re-derives each S_B(i) by enumeration.
    """
    if isinstance(a, DegreeSet):
        if not a.is_finite_set:
            raise InputError("target degree set must be finite")
        values = a.as_finite_set()
    else:
        values = frozenset(int(x) for x in a)

    if base is None:
        if dimension < 3:
            raise InputError("no construction below dimension 3")
        registry = builtin_registry()
        direct = dimension if dimension in DEFAULT_BASE_BY_DIMENSION else 3
        base = registry[DEFAULT_BASE_BY_DIMENSION[direct]]
    b = _strong_class(base, class_label)
    n0 = base.dim + 1
    if dimension != n0 and dimension - n0 < 3:
        raise InputError(
            f"cannot reach dimension {dimension} from a {n0}-dimensional "
            "construction: stabilization needs a shift of at least 3"
        )

    decomposition = decompose(values, limits)
    seqs = decomposition.sequences
    r = len(seqs)
    if r == 1:
        primes: tuple[int, ...] = ()
        multipliers = (math.prod(seqs[0].entries),)
    else:
        primes = choose_primes(seqs)
        multipliers = tuple(
            p * math.prod(s.entries) for p, s in zip(primes, seqs)
        )

    # alpha_i / beta for each entry beta of B(i)
    summand_multipliers = [[alpha // beta for beta in s.entries]
                           for s, alpha in zip(seqs, multipliers)]
    # pair i claims S_B(i), which ``decompose`` recorded in its transcript
    rule = exact_pair_rule(base)
    pairs = []
    for i, (step, alpha, ms) in enumerate(
            zip(decomposition.transcript, multipliers, summand_multipliers)):
        summands = tuple(CircleBundle(base, b.scale(m)) for m in ms)
        domain: ManifoldExpr = summands[0] if len(summands) == 1 else ConnectedSum(summands)
        pairs.append(PairClaim(i, domain, CircleBundle(base, b.scale(alpha)),
                               DegreeSet(step.sums), rule))

    crosses = []
    for i, ms in enumerate(summand_multipliers):
        others = [(j, alpha_j) for j, alpha_j in enumerate(multipliers) if j != i]
        for j, alpha_j in others:
            for s_idx, m in enumerate(ms):
                # the construction guarantees it
                assert alpha_j % m != 0, "prime firewall violated"
                crosses.append((i, j, s_idx, m, "pass"))

    if r == 1:
        combination = Combination(None, pairs[0].domain, pairs[0].target, "direct")
    else:
        pad = SymbolicRepeat(SphereProduct(n0), PAD_SYMBOL)
        combination = Combination(
            PAD_SYMBOL,
            ConnectedSum(tuple(p.domain for p in pairs) + (pad,)),
            ConnectedSum(tuple(p.target for p in pairs) + (pad,)),
            "padded-combination",
        )

    # ``decompose`` has checked that the pairs' claimed sets meet in the target
    target = DegreeSet(values)
    cert = RealizationCertificate(
        target, n0, base, class_label, decomposition,
        primes, multipliers, tuple(pairs), tuple(crosses), combination, target, (),
    )
    if dimension > n0:
        cert = stabilize(cert, dimension)
    return cert


def stabilize(cert: RealizationCertificate, dimension: int) -> RealizationCertificate:
    """Carry a certificate up to a higher dimension; the degree set is
    unchanged.  The shift must be at least 3."""
    shift = dimension - cert.dimension
    if shift < 3:
        raise InputError(
            f"stabilization shift must be at least 3, got {shift} "
            f"(from dimension {cert.dimension} to {dimension})"
        )
    combo = cert.combination._replace(
        result_domain=Stabilized(cert.combination.result_domain, shift),
        result_target=Stabilized(cert.combination.result_target, shift),
    )
    record = Stabilization(shift, cert.dimension, dimension, "dimension-stabilization")
    return cert._replace(
        dimension=dimension,
        combination=combo,
        stabilizations=cert.stabilizations + (record,),
    )


# ---------------------------------------------------------------------------
# verification


class Check(Frozen):
    """One check of a report: its id, whether it passed, and the failure
    detail ("" when it passed).  Built only when
    :attr:`VerificationReport.checks` is read."""
    __slots__ = ("id", "ok", "detail")


class VerificationReport(Frozen):
    """The verifier's verdict.  ``rows`` holds one ``(id, verdict)`` pair
    per check, in the order the checks ran: the verdict is ``True`` when
    the check passed and otherwise its failure detail, a non-empty
    string.  ``first_failure`` is the id of the first failed check, or
    ``None`` when ``valid``."""
    __slots__ = ("valid", "rows", "first_failure")

    @property
    def checks(self) -> tuple[Check, ...]:
        """The rows as :class:`Check` records, built on each read."""
        return tuple(Check(cid, verdict is True, "" if verdict is True else verdict)
                     for cid, verdict in self.rows)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "checks": [{"id": cid, "ok": True} if verdict is True
                       else {"id": cid, "ok": False, "detail": verdict}
                       for cid, verdict in self.rows],
            "firstFailure": self.first_failure,
        }

    def render(self) -> str:
        lines = [f"ok   {cid}" if verdict is True else f"FAIL {cid}: {verdict}"
                 for cid, verdict in self.rows]
        lines.append(
            "valid" if self.valid else f"invalid (first failure: {self.first_failure})"
        )
        return "\n".join(lines)


def _base_rule(base: BaseManifold, label: str) -> bool | str:
    """True when the same-base pair rule's hypotheses on ``base`` and the
    class ``label`` give its exact form; otherwise why not, in the rule's
    words.  They do not depend on the multipliers, so the verifier decides
    them once per certificate and shares the verdict among the pairs."""
    try:
        return _base_rule_hypotheses(base, label) or "pair rule only gave an upper bound"
    except InputError as exc:
        return str(exc)


def verify_certificate(cert: RealizationCertificate) -> VerificationReport:
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


def _outline(s: DegreeSet) -> str:
    """``s`` as its first eight finite members and its size: a failure
    detail stays short however large the set is."""
    first = ", ".join(str(x) for x in s.finite[:8])
    more = ", ..." if len(s.finite) > 8 else ""
    size = f"{len(s.finite)} member{'s' * (len(s.finite) != 1)}"
    if s.progressions:
        size += f" and {len(s.progressions)} progression{'s' * (len(s.progressions) != 1)}"
    return f"{{{first}{more}}} ({size})"


def _strip_stabilization(expr: ManifoldExpr) -> ManifoldExpr:
    while isinstance(expr, Stabilized):
        expr = expr.inner
    return expr


# ---------------------------------------------------------------------------
# rendering


def render_certificate(cert: RealizationCertificate) -> str:
    """Plain-text account of the construction, one claim per line, each
    tagged with the rule that justifies it."""
    lines = [
        f"realization of {cert.target.render()} in dimension {cert.dimension}",
        f"base: {cert.base.name} (dimension {cert.base.dim}), class {cert.class_label}",
    ]
    seq_text = "; ".join(
        f"B{i + 1} = ({', '.join(str(x) for x in s.entries)})"
        for i, s in enumerate(cert.decomposition.sequences)
    )
    lines.append(f"decomposition: {seq_text}")
    if cert.primes:
        lines.append("primes: " + ", ".join(str(p) for p in cert.primes))
    lines.append("multipliers: " + ", ".join(str(a) for a in cert.multipliers))
    for p in cert.pairs:
        tags = p.rule if not isinstance(p.domain, ConnectedSum) \
            else f"connected-sum-domain, {p.rule}"
        lines.append(
            f"pair {p.index + 1}: {render_expr(p.domain)} -> {render_expr(p.target)} "
            f"realizes {p.claimed.render()} [{tags}]"
        )
    for i, j, s_idx, m, _ in cert.cross_checks:
        # an unverified certificate may name a pair it does not have
        alpha = cert.multipliers[j] if 0 <= j < len(cert.multipliers) else "?"
        lines.append(f"cross pair {i + 1}->{j + 1}, summand {s_idx + 1}: "
                     f"{m} does not divide {alpha} [cross-nondivisibility]")
    combo = cert.combination
    lines.append(
        f"combined: {render_expr(combo.result_domain)} -> "
        f"{render_expr(combo.result_target)} [{combo.rule}]"
    )
    for st in cert.stabilizations:
        lines.append(
            f"stabilize: dimension {st.from_dimension} -> {st.to_dimension} "
            f"(shift {st.shift}) [{st.rule}]"
        )
    lines.append(f"degree set: {cert.final_set.render()}")
    return "\n".join(lines)
