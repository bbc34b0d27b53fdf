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
check singled out.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from ._frozen import Frozen
from .bundles import (
    STRONG_BASE_FLAGS,
    BaseManifold,
    CircleBundle,
    ConnectedSum,
    ManifoldExpr,
    SphereProduct,
    Stabilized,
    SymbolicRepeat,
    builtin_registry,
    exact_pair_rule,
    expr_dim,
    expr_from_json,
    expr_to_json,
    render_expr,
    same_base_pair_degree_set,
)
from .degsets import (
    DecompositionCertificate,
    DegreeSet,
    SearchLimits,
    SequenceB,
    check_enumeration,
    decompose,
    subsequence_sums,
    verify_decomposition,
)
from .errors import HypothesisError, InputError, ResourceCapError

__all__ = [
    "PairClaim",
    "CrossCheck",
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

    def __init__(self, index: int, domain: ManifoldExpr, target: ManifoldExpr,
                 claimed: DegreeSet, rule: str) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "claimed", claimed)
        object.__setattr__(self, "rule", rule)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "domain": expr_to_json(self.domain),
            "target": expr_to_json(self.target),
            "claimed": self.claimed.to_json(),
            "rule": self.rule,
        }

    @classmethod
    def from_json(cls, obj: dict, registry: Mapping[str, BaseManifold]) -> "PairClaim":
        """Claim from a payload valid under the ``pairClaim`` schema."""
        return cls(
            int(obj["index"]),
            expr_from_json(obj["domain"], registry),
            expr_from_json(obj["target"], registry),
            DegreeSet.from_json(obj["claimed"]),
            obj["rule"],
        )


class CrossCheck(Frozen):
    """Firewall record: summand ``summand`` of M_i cannot reach N_j with
    nonzero degree because its multiplier does not divide alpha_j."""

    __slots__ = ("i", "j", "summand", "multiplier", "verdict")

    def __init__(self, i: int, j: int, summand: int, multiplier: int, verdict: str) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "summand", summand)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "verdict", verdict)

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "summand": self.summand,
            "multiplier": self.multiplier,
            "verdict": self.verdict,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CrossCheck":
        """Record from a payload valid under the ``crossCheck`` schema."""
        return cls(int(obj["i"]), int(obj["j"]), int(obj["summand"]),
                   int(obj["multiplier"]), obj["verdict"])


class Combination(Frozen):
    """The assembled pair; ``pad_symbol`` names the free parameter for the
    number of S^(n-1) x S^1 padding copies, None when a single pair is
    used as-is."""

    __slots__ = ("pad_symbol", "result_domain", "result_target", "rule")

    def __init__(self, pad_symbol: str | None, result_domain: ManifoldExpr,
                 result_target: ManifoldExpr, rule: str) -> None:
        object.__setattr__(self, "pad_symbol", pad_symbol)
        object.__setattr__(self, "result_domain", result_domain)
        object.__setattr__(self, "result_target", result_target)
        object.__setattr__(self, "rule", rule)

    def to_json(self) -> dict:
        return {
            "l": self.pad_symbol,
            "resultDomain": expr_to_json(self.result_domain),
            "resultTarget": expr_to_json(self.result_target),
            "rule": self.rule,
        }

    @classmethod
    def from_json(cls, obj: dict, registry: Mapping[str, BaseManifold]) -> "Combination":
        """Record from a payload valid under the ``combinationRecord`` schema."""
        return cls(
            obj["l"],
            expr_from_json(obj["resultDomain"], registry),
            expr_from_json(obj["resultTarget"], registry),
            obj["rule"],
        )


class Stabilization(Frozen):
    __slots__ = ("shift", "from_dimension", "to_dimension", "rule")

    def __init__(self, shift: int, from_dimension: int, to_dimension: int,
                 rule: str = "dimension-stabilization") -> None:
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "from_dimension", from_dimension)
        object.__setattr__(self, "to_dimension", to_dimension)
        object.__setattr__(self, "rule", rule)

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
    __slots__ = ("target", "dimension", "base", "class_label", "decomposition", "primes",
                 "multipliers", "pairs", "cross_checks", "combination", "final_set",
                 "stabilizations")

    def __init__(self, target: DegreeSet, dimension: int, base: BaseManifold,
                 class_label: str, decomposition: DecompositionCertificate,
                 primes: tuple[int, ...], multipliers: tuple[int, ...],
                 pairs: tuple[PairClaim, ...], cross_checks: tuple[CrossCheck, ...],
                 combination: Combination, final_set: DegreeSet,
                 stabilizations: tuple[Stabilization, ...] = ()) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "class_label", class_label)
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "multipliers", multipliers)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "cross_checks", cross_checks)
        object.__setattr__(self, "combination", combination)
        object.__setattr__(self, "final_set", final_set)
        object.__setattr__(self, "stabilizations", stabilizations)

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
            "crossChecks": [c.to_json() for c in self.cross_checks],
            "combination": self.combination.to_json(),
            "finalSet": self.final_set.to_json(),
            "stabilizations": [s.to_json() for s in self.stabilizations],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RealizationCertificate":
        """Certificate from a payload valid under the
        ``realizationCertificate`` schema; call ``validate_payload`` first
        on JSON from outside.  Another kind of document or schema version
        is refused here too."""
        if not isinstance(obj, dict):
            raise InputError("certificate must be a JSON object")
        if obj.get("kind") != "realization-certificate":
            raise InputError("not a realization certificate")
        if obj.get("schemaVersion") != 1:
            raise InputError(f"unsupported schema version: {obj.get('schemaVersion')!r}")
        base = BaseManifold.from_json(obj["base"])
        registry = {base.name: base}
        return cls(
            DegreeSet.from_json(obj["targetSet"]),
            int(obj["dimension"]),
            base,
            obj["classLabel"],
            DecompositionCertificate.from_json(obj["decomposition"]),
            tuple(int(p) for p in obj["primes"]),
            tuple(int(a) for a in obj["multipliers"]),
            tuple(PairClaim.from_json(p, registry) for p in obj["pairs"]),
            tuple(CrossCheck.from_json(c) for c in obj["crossChecks"]),
            Combination.from_json(obj["combination"], registry),
            DegreeSet.from_json(obj["finalSet"]),
            tuple(Stabilization.from_json(s) for s in obj.get("stabilizations", ())),
        )


# ---------------------------------------------------------------------------
# building


def _require_strong_base(base: BaseManifold, class_label: str) -> None:
    for flag in STRONG_BASE_FLAGS:
        if not base.has(flag):
            raise HypothesisError(
                f"base {base.name!r} is missing required flag: {flag}"
            )
    if class_label not in dict(base.named_classes):
        raise HypothesisError(f"base {base.name!r} has no class named {class_label!r}")
    if class_label not in base.fixes:
        raise HypothesisError(
            f"class {class_label!r} must be fixed by degree-one self maps"
        )


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r != 0:
        raise InputError(f"{b} does not divide {a}")
    return q


def _build_pair(index: int, seq: SequenceB, alpha: int, base: BaseManifold,
                class_label: str) -> PairClaim:
    b = base.cls(class_label)
    summands = tuple(
        CircleBundle(base, _exact_div(alpha, beta) * b) for beta in seq.entries
    )
    domain: ManifoldExpr = summands[0] if len(summands) == 1 else ConnectedSum(summands)
    target = CircleBundle(base, alpha * b)
    return PairClaim(index, domain, target, subsequence_sums(seq), exact_pair_rule(base))


def build_construction(a: Iterable[int] | DegreeSet, dimension: int = 4,
                       base: BaseManifold | None = None, class_label: str = "b",
                       limits: SearchLimits | None = None) -> RealizationCertificate:
    """Certificate for a pair of closed ``dimension``-manifolds whose
    degree set is exactly the finite set ``a`` (which must contain 0).

    Without an explicit base, dimensions 3, 4 and 5 use the presets
    surface, knot-glue-3 and hyp-odd-4; higher dimensions build over the
    surface and stabilize up.  With an explicit base the construction
    dimension is base.dim + 1 and any remaining gap must be at least 3.
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
    _require_strong_base(base, class_label)
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

    pairs = tuple(
        _build_pair(i, s, alpha, base, class_label)
        for i, (s, alpha) in enumerate(zip(seqs, multipliers))
    )

    crosses = []
    for i in range(r):
        for j in range(r):
            if j == i:
                continue
            for s_idx, beta in enumerate(seqs[i].entries):
                m = _exact_div(multipliers[i], beta)
                ok = multipliers[j] % m != 0
                assert ok, "prime firewall violated"  # construction guarantees it
                crosses.append(CrossCheck(i, j, s_idx, m, "pass"))

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

    final = pairs[0].claimed
    for p in pairs[1:]:
        final = final.intersect(p.claimed)
    assert final.equals(DegreeSet.from_finite(values))

    cert = RealizationCertificate(
        DegreeSet.from_finite(values), n0, base, class_label, decomposition,
        primes, multipliers, pairs, tuple(crosses), combination, final,
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
    record = Stabilization(shift, cert.dimension, dimension)
    return cert._replace(
        dimension=dimension,
        combination=combo,
        stabilizations=cert.stabilizations + (record,),
    )


# ---------------------------------------------------------------------------
# verification


class Check(Frozen):
    __slots__ = ("id", "ok", "detail")

    def __init__(self, id: str, ok: bool, detail: str = "") -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)

    def to_json(self) -> dict:
        out: dict = {"id": self.id, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


class VerificationReport(Frozen):
    __slots__ = ("valid", "checks", "first_failure")

    def __init__(self, valid: bool, checks: tuple[Check, ...], first_failure: str | None) -> None:
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "first_failure", first_failure)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "checks": [c.to_json() for c in self.checks],
            "firstFailure": self.first_failure,
        }

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"{mark} {c.id}" + (f": {c.detail}" if c.detail else ""))
        lines.append(
            "valid" if self.valid else f"invalid (first failure: {self.first_failure})"
        )
        return "\n".join(lines)


def _claimed_pair_set(m: int, k: int, base: BaseManifold, label: str) -> DegreeSet | str:
    """Exact degree set of the (m*b, k*b) pair, or a failure reason."""
    try:
        res = same_base_pair_degree_set(m, k, base, label)
    except (HypothesisError, InputError) as exc:
        return str(exc)
    if not res.exact:
        return "pair rule only gave an upper bound"
    return res.degree_set


def _sum_rule(alpha: int, entries: Sequence[int], base: BaseManifold,
              label: str) -> tuple[bool, str]:
    """Whether the summand with multiplier ``alpha // beta`` realizes
    exactly ``{0, beta}`` for every ``beta`` in ``entries``, each of which
    divides ``alpha``; with the first mismatch as detail."""
    for beta in entries:
        got = _claimed_pair_set(alpha // beta, alpha, base, label)
        if isinstance(got, str):
            return False, got
        want = DegreeSet.from_finite([0, beta])
        if not got.equals(want):
            return False, (f"summand with multiplier {alpha // beta} realizes "
                           f"{got.render()}, not {want.render()}")
    return True, ""


def verify_certificate(cert: RealizationCertificate) -> VerificationReport:
    """Re-derive every claim of a realization certificate.

    Emits one named check per claim in a fixed order; ``first_failure``
    is the id of the earliest failed check.  The decomposition is
    re-verified by full subset enumeration, pair degree sets are re-won
    from the same-base rule, cross non-divisibility and the combination
    shape are recomputed from the stored multipliers.
    """
    checks: list[Check] = []

    def check(cid: str, ok: bool, detail: str = "") -> None:
        checks.append(Check(cid, bool(ok), detail if not ok else ""))

    def capped(test: Callable[[], tuple[bool, str]]) -> tuple[bool, str]:
        """``test()``'s verdict and detail, or a failure that names the cap
        ``test`` hit."""
        try:
            return test()
        except ResourceCapError as exc:
            return False, str(exc)

    target = cert.target
    check("target.form", target.is_finite_set and target.contains(0),
          "target must be a finite set containing 0")

    decomp = cert.decomposition
    tgt_sorted = tuple(sorted(target.finite)) if target.is_finite_set else ()
    check("decomposition.matches-target", decomp.target == tgt_sorted,
          f"decomposition target {list(decomp.target)} differs from "
          f"certificate target {list(tgt_sorted)}")
    check("decomposition.valid", *capped(lambda: (
        verify_decomposition(decomp),
        "stored sequences do not intersect to the target")))

    seqs = decomp.sequences
    r = len(seqs)
    expected_primes = 0 if r == 1 else r
    check("primes.count", len(cert.primes) == expected_primes,
          f"expected {expected_primes} primes for {r} sequences, "
          f"got {len(cert.primes)}")
    check("primes.distinct", len(set(cert.primes)) == len(cert.primes),
          "primes repeat")
    def primality() -> tuple[bool, str]:
        composite = [p for p in cert.primes if not _is_prime(p)]
        return not composite, f"not prime: {composite}"
    check("primes.primality", *capped(primality))
    hull = max((abs(x) for s in seqs for x in s.entries), default=0)
    small = [p for p in cert.primes if p <= hull]
    check("primes.size", not small,
          f"primes {small} are not larger than the largest entry magnitude {hull}")

    check("alpha.count", len(cert.multipliers) == r,
          f"expected {r} multipliers, got {len(cert.multipliers)}")
    for i in range(min(r, len(cert.multipliers))):
        expect = math.prod(seqs[i].entries)
        if r > 1 and i < len(cert.primes):
            expect *= cert.primes[i]
        check(f"alpha.product[{i}]", cert.multipliers[i] == expect,
              f"multiplier {cert.multipliers[i]} is not "
              f"{'prime times ' if r > 1 else ''}the sequence product {expect}")

    base = cert.base
    missing = [f for f in STRONG_BASE_FLAGS if not base.has(f)]
    check("base.flags", not missing, f"base lacks flags: {missing}")
    label = cert.class_label
    named = dict(base.named_classes)
    class_ok = label in named and label in base.fixes
    check("base.class", class_ok,
          f"class {label!r} must be a named class fixed by degree-one self maps")
    b = named.get(label)

    # the sum DP of each claimed-vs-enumeration runs under this cap too
    enumerable = capped(lambda: (check_enumeration(seqs) is None, ""))

    check("pair.count", len(cert.pairs) == r,
          f"expected {r} pairs, got {len(cert.pairs)}")
    expected_rule = exact_pair_rule(base)
    for i, pair in enumerate(cert.pairs):
        pid = f"pair[{i}]"
        check(f"{pid}.rule", pair.rule == expected_rule,
              f"rule {pair.rule!r} does not match the base (expected {expected_rule!r})")
        if i >= r or i >= len(cert.multipliers):
            check(f"{pid}.target-euler", False, "pair has no matching sequence")
            continue
        alpha = cert.multipliers[i]
        entries = seqs[i].entries
        tgt_ok = (
            b is not None
            and isinstance(pair.target, CircleBundle)
            and pair.target.base == base
            and pair.target.euler == alpha * b
        )
        check(f"{pid}.target-euler", tgt_ok,
              f"target must be the bundle with Euler class {alpha}*{label}")

        if isinstance(pair.domain, ConnectedSum):
            summands = pair.domain.summands
        else:
            summands = (pair.domain,)
        div_bad = [beta for beta in entries if alpha % beta != 0]
        check(f"{pid}.summand-divisibility", not div_bad,
              f"entries {div_bad} do not divide the multiplier {alpha}")
        sum_ok = (
            b is not None
            and not div_bad
            and len(summands) == len(entries)
            and all(
                isinstance(s, CircleBundle)
                and s.base == base
                and s.euler == (alpha // beta) * b
                for s, beta in zip(summands, entries)
            )
        )
        check(f"{pid}.summand-euler", sum_ok,
              "domain summands must be the bundles with Euler classes "
              f"({alpha}/beta)*{label} for beta in {list(entries)}")

        if div_bad:
            check(f"{pid}.sum-rule", False, "multiplier ratios are not integers")
        else:
            check(f"{pid}.sum-rule", *capped(
                lambda: _sum_rule(alpha, entries, base, label)))

        def claimed_matches() -> tuple[bool, str]:
            if pair.claimed.equals(subsequence_sums(seqs[i])):
                return True, ""
            return False, (f"claimed set {_outline(pair.claimed)} is not the "
                           f"subsequence-sum set of {list(entries)}")
        check(f"{pid}.claimed-vs-enumeration",
              *(capped(claimed_matches) if enumerable[0] else enumerable))

    # one cross check is expected for each (i, j, summand) with i != j and
    # summand indexing B(i); they are counted, not built one by one
    lengths = [len(s) for s in seqs]

    def in_range(i: int, j: int, summand: int) -> bool:
        return 0 <= i < r and 0 <= j < r and i != j and 0 <= summand < lengths[i]

    expected = (r - 1) * sum(lengths)
    got_cross = {(c.i, c.j, c.summand) for c in cert.cross_checks}
    unexpected = {t for t in got_cross if not in_range(*t)}
    found = len(got_cross) - len(unexpected)
    complete = (not unexpected and found == expected
                and len(cert.cross_checks) == len(got_cross))
    if complete:
        detail = ""
    elif expected <= _CROSS_LISTING_CAP:
        every = {(i, j, s_idx) for i in range(r) for j in range(r) if i != j
                 for s_idx in range(lengths[i])}
        detail = (f"missing {sorted(every - got_cross)}, "
                  f"unexpected {sorted(unexpected)}")
    else:
        detail = (f"missing {expected - found} of {expected} expected cross "
                  f"checks, unexpected {len(unexpected)}")
    check("cross.completeness", complete, detail)
    for c in cert.cross_checks:
        cid = f"cross[{c.i},{c.j},{c.summand}]"
        if not in_range(c.i, c.j, c.summand):
            check(f"{cid}.nondivisible", False, "cross check out of range")
            continue
        beta = seqs[c.i].entries[c.summand]
        alpha_i, alpha_j = cert.multipliers[c.i], cert.multipliers[c.j]
        if alpha_i % beta != 0:
            check(f"{cid}.nondivisible", False,
                  f"entry {beta} does not divide multiplier {alpha_i}")
            continue
        m = alpha_i // beta
        if c.multiplier != m:
            detail = f"stored multiplier {c.multiplier} is not {alpha_i}/{beta} = {m}"
        elif c.verdict != "pass":
            detail = f"verdict {c.verdict!r} is not 'pass'"
        else:
            detail = f"summand multiplier {m} divides {alpha_j}"
        ok = c.multiplier == m and c.verdict == "pass" and alpha_j % m != 0
        check(f"{cid}.nondivisible", ok, detail)

    combo = cert.combination
    n0 = base.dim + 1
    if r == 1:
        shape_ok = (
            combo.pad_symbol is None
            and combo.rule == "direct"
            and len(cert.pairs) == 1
            and _strip_stabilization(combo.result_domain) == cert.pairs[0].domain
            and _strip_stabilization(combo.result_target) == cert.pairs[0].target
        )
        shape_detail = "single-pair combination must reuse the pair unchanged"
    else:
        want_pad = (
            SymbolicRepeat(SphereProduct(n0), combo.pad_symbol)
            if combo.pad_symbol is not None else None
        )
        want_domain = want_target = None
        if want_pad is not None and len(cert.pairs) == r:
            want_domain = ConnectedSum(tuple(p.domain for p in cert.pairs) + (want_pad,))
            want_target = ConnectedSum(tuple(p.target for p in cert.pairs) + (want_pad,))
        shape_ok = (
            want_domain is not None
            and combo.rule == "padded-combination"
            and _strip_stabilization(combo.result_domain) == want_domain
            and _strip_stabilization(combo.result_target) == want_target
        )
        shape_detail = (
            "combination must connect-sum all pair domains (and targets) "
            f"with a symbolic number of S^{n0 - 1}xS^1 copies"
        )
    check("combination.shape", shape_ok, shape_detail)
    try:
        dim_ok = (expr_dim(combo.result_domain) == cert.dimension
                  and expr_dim(combo.result_target) == cert.dimension)
    except InputError:
        dim_ok = False
    check("combination.dimension", dim_ok,
          f"combined pair must live in dimension {cert.dimension}")

    def final_intersection() -> tuple[bool, str]:
        inter = None
        for pair in cert.pairs:
            inter = pair.claimed if inter is None else inter.intersect(pair.claimed)
        return (inter is not None and cert.final_set.equals(inter),
                "final set must be the intersection of the pair degree sets")
    check("final.intersection", *capped(final_intersection))
    check("final.equals-target", *capped(lambda: (
        cert.final_set.equals(target),
        f"final set {cert.final_set.render()} differs from the target "
        f"{target.render()}")))

    dim = n0
    chain_ok = True
    for t, st in enumerate(cert.stabilizations):
        ok = st.shift >= 3 and st.from_dimension == dim and \
            st.to_dimension == st.from_dimension + st.shift
        check(f"stabilization[{t}].shift", ok,
              f"shift {st.shift} from {st.from_dimension} to {st.to_dimension} "
              f"does not extend dimension {dim} by at least 3")
        chain_ok = chain_ok and ok
        dim = st.to_dimension
    check("stabilization.chain", chain_ok and dim == cert.dimension,
          f"stabilizations end at dimension {dim}, certificate says {cert.dimension}")

    first = next((c.id for c in checks if not c.ok), None)
    return VerificationReport(first is None, tuple(checks), first)


def _outline(s: DegreeSet, shown: int = 8) -> str:
    """``s`` as its first few finite members and its size: a failure detail
    stays short however large the set is."""
    first = ", ".join(str(x) for x in s.finite[:shown])
    more = ", ..." if len(s.finite) > shown else ""
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
    for c in cert.cross_checks:
        lines.append(
            f"cross pair {c.i + 1}->{c.j + 1}, summand {c.summand + 1}: "
            f"{c.multiplier} does not divide {cert.multipliers[c.j]} "
            f"[cross-nondivisibility]"
        )
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
