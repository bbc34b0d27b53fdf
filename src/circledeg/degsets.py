"""Degree sets, subsequence sums, and decomposition certificates.

A :class:`DegreeSet` denotes a set of integers as a finite part plus a
union of arithmetic progressions; degree sets of the geometric rules are
always of this shape.  The canonical form keeps the parts disjoint from
each other, so structural equality works for all sets produced by this
package, and :meth:`DegreeSet.equals` decides denotational equality
exactly in all cases.

For a finite integer sequence B (nonzero entries, duplicates allowed and
meaningful), S_B is the set of sums of all subsequences, including 0 as
the sum of the empty subsequence.  ``decompose`` writes a finite target
set containing 0 as an intersection of such S_B, and the certificate it
emits can be re-checked from scratch by ``verify_decomposition``.

JSON formats:

* degree set: ``{"finite": [...]}`` plus ``"progressions":
  [{"base": b, "mod": m}, ...]`` when nonempty and ``"excludesZero": true``
  when the progression part excludes 0.
* sequence: plain integer array.
* decomposition certificate: see :class:`DecompositionCertificate.to_json`.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable, Collection, Iterable, Iterator, Sequence

from ._frozen import Frozen
from .errors import InputError, ResourceCapError

__all__ = [
    "DegreeSet",
    "SequenceB",
    "SearchLimits",
    "DecompositionCertificate",
    "subsequence_sums",
    "decompose",
    "verify_decomposition",
    "enumerated_sums",
    "SUM_LENGTH_CAP",
    "SUM_SIZE_CAP",
    "VERIFY_LENGTH_CAP",
    "MAX_ENTRY_CAP",
    "BUDGET_CAP",
    "TARGET_MAGNITUDE_CAP",
    "ENUMERATION_CAP",
    "EQUALS_MODULUS_CAP",
    "SEARCH_SPAN_CAP",
    "PROGRESSION_CAP",
    "COVER_TEST_CAP",
]

SUM_LENGTH_CAP = 40
VERIFY_LENGTH_CAP = 20
# the schema's maxima for the search caps maxEntry and budget (maxLen's is
# SUM_LENGTH_CAP): 2^53 is the largest integer every JSON reader keeps exact,
# 10^8 ten times the default budget
MAX_ENTRY_CAP = 1 << 53
BUDGET_CAP = 10 ** 8
# largest magnitude of a target member, whose default maxEntry (four times
# the largest magnitude) then stays within MAX_ENTRY_CAP
TARGET_MAGNITUDE_CAP = MAX_ENTRY_CAP // 4
# subsets a verifier enumerates at most over all sequences of a certificate:
# sixteen sequences at VERIFY_LENGTH_CAP
ENUMERATION_CAP = 1 << 24
# sums a subsequence-sum set may hold: the 2^20 subsets of a sequence at
# VERIFY_LENGTH_CAP
SUM_SIZE_CAP = 1 << 20
# residues ``DegreeSet.equals`` enumerates at most: whether residue classes
# cover the integers is coNP-hard, its complement being Simultaneous
# Incongruences (Garey–Johnson AN2)
EQUALS_MODULUS_CAP = 1 << 20
# span (largest less least member) of a target the decomposition search
# walks: its masks are bit sets over sums, a few times the span wide, so a
# span of 2^51 would ask for 2^48 bytes, and at 2^20 a mask stays within a
# few MB.  No test, demo or benchmark searches a span above 19, and past
# 2^20 the default maxEntry charges a leaf group some 8 * 2^20 leaves, so
# that even BUDGET_CAP pays for about a dozen groups
SEARCH_SPAN_CAP = 1 << 20
# progressions a degree set may hold: every rule yields at most one per
# piece, no golden, demo, selftest or benchmark set holds more than two, and
# dropping nested progressions tests each against every smaller modulus kept
PROGRESSION_CAP = 1 << 10
# finite members times distinct progression moduli that finding which of
# the members the progressions hold may test: a test is a remainder and a
# set lookup, so 4096 members against 1024 moduli take ~0.4 s
COVER_TEST_CAP = 1 << 22


class DegreeSet(Frozen):
    """Finite integers plus arithmetic progressions, canonicalized.

    ``finite`` is any iterable of integers and ``progressions`` a list or
    tuple of (base, mod) pairs.  ``excludes_zero_in_progressions`` removes
    0 from the progression part only; a 0 in ``finite`` always counts.
    Construction canonicalizes: bases reduced, nested progressions
    dropped, finite members covered by a progression dropped, and the
    excludes-zero flag kept only while it matters (some progression passes
    through 0 and no finite 0 exists).

    >>> DegreeSet([3, 0, 3]).finite
    (0, 3)
    >>> 5 in DegreeSet([], [(2, 3)])
    True
    """

    __slots__ = ("finite", "progressions", "excludes_zero_in_progressions")

    def __init__(self, finite: Iterable[int] = (),
                 progressions: Sequence[tuple[int, int]] = (),
                 excludes_zero_in_progressions: bool = False) -> None:
        if not progressions:
            # a finite set: nothing to drop, and no flag that matters
            object.__setattr__(self, "finite", tuple(sorted(set(map(int, finite)))))
            object.__setattr__(self, "progressions", ())
            object.__setattr__(self, "excludes_zero_in_progressions", False)
            return
        _check_progressions(len(progressions), "a degree set would hold")
        progs = []
        for base, mod in progressions:
            if mod < 1:
                raise InputError("progression modulus must be >= 1")
            progs.append((base % mod, mod))
        # drop progressions contained in another one: a container has a
        # smaller modulus and containment is transitive, so in (mod, base)
        # order each progression is tested against the kept ones only,
        # indexed as modulus -> bases and probed at the moduli dividing its own
        bases_by_mod: dict[int, set[int]] = {}
        for base, mod in sorted(set(progs), key=lambda p: (p[1], p[0])):
            if not any(mod % m == 0 and base % m in bases
                       for m, bases in bases_by_mod.items()):
                bases_by_mod.setdefault(mod, set()).add(base)
        kept = [(base, mod) for mod, bases in bases_by_mod.items() for base in sorted(bases)]
        flag = excludes_zero_in_progressions
        finite = sorted(set(map(int, finite)))
        if flag and (0 in finite or not any(base == 0 for base, _ in kept)):
            flag = False
        # a finite 0 clears the flag above, so no covered member stays
        finite = _uncovered(finite, bases_by_mod)
        object.__setattr__(self, "finite", tuple(finite))
        object.__setattr__(self, "progressions", tuple(kept))
        object.__setattr__(self, "excludes_zero_in_progressions", flag)

    # -- queries

    @property
    def is_empty(self) -> bool:
        return not self.finite and not self.progressions

    @property
    def is_finite_set(self) -> bool:
        return not self.progressions

    def as_finite_set(self) -> frozenset[int]:
        if not self.is_finite_set:
            raise InputError("degree set is infinite")
        return frozenset(self.finite)

    def contains(self, d: int) -> bool:
        return d in self.finite or d in self._covered((d,))

    def _covered(self, xs: Collection[int]) -> set[int]:
        """The members of ``xs`` that the progression part holds; raises
        :class:`ResourceCapError` as :func:`_uncovered` does."""
        bases_by_mod: dict[int, set[int]] = {}
        for base, mod in self.progressions:
            bases_by_mod.setdefault(mod, set()).add(base)
        held = set(xs).difference(_uncovered(xs, bases_by_mod))
        if self.excludes_zero_in_progressions:
            held.discard(0)
        return held

    __contains__ = contains

    def window(self, lo: int, hi: int) -> list[int]:
        """Members within [lo, hi], ascending; usable as a test oracle."""
        out = {x for x in self.finite if lo <= x <= hi}
        for base, mod in self.progressions:
            first = lo + (base - lo) % mod
            out.update(range(first, hi + 1, mod))
        if self.excludes_zero_in_progressions and 0 not in self.finite:
            out.discard(0)
        return sorted(out)

    # -- algebra

    def union(self, other: "DegreeSet") -> "DegreeSet":
        finite = set(self.finite) | set(other.finite)
        if self.contains(0) or other.contains(0):
            finite.add(0)
        return DegreeSet(
            tuple(finite),
            self.progressions + other.progressions,
            self.excludes_zero_in_progressions or other.excludes_zero_in_progressions,
        )

    def intersect(self, other: "DegreeSet") -> "DegreeSet":
        _check_progressions(len(self.progressions) * len(other.progressions),
                            "intersecting would build")
        mine, theirs = set(self.finite), set(other.finite)
        finite = mine & theirs
        if other.progressions:
            finite |= other._covered(mine)
        if self.progressions:
            finite |= self._covered(theirs)
        progs = []
        for b1, m1 in self.progressions:
            for b2, m2 in other.progressions:
                hit = _crt(b1, m1, b2, m2)
                if hit is not None:
                    progs.append(hit)
        return DegreeSet(
            tuple(finite),
            tuple(progs),
            self.excludes_zero_in_progressions or other.excludes_zero_in_progressions,
        )

    __or__ = union
    __and__ = intersect

    def equals(self, other: "DegreeSet") -> bool:
        """Exact denotational equality (structural forms may differ).

        Raises :class:`ResourceCapError` when deciding it would enumerate
        more than ``EQUALS_MODULUS_CAP`` residues, or test more finite
        members against progression moduli than ``COVER_TEST_CAP``.

        >>> DegreeSet([], [(0, 2), (1, 2)]).equals(DegreeSet([], [(0, 1)]))
        True
        """
        if not self.progressions or not other.progressions:
            # a progression stays infinite when excludesZero removes 0,
            # and a finite part is sorted and free of duplicates
            return not self.progressions and not other.progressions \
                and self.finite == other.finite
        if self == other:
            return True
        big = lcm(*(m for _, m in self.progressions + other.progressions))
        if big > EQUALS_MODULUS_CAP:
            raise ResourceCapError(
                "equals_modulus", EQUALS_MODULUS_CAP,
                f"comparing degree sets would enumerate {big} residues (the lcm "
                f"of their moduli), beyond the cap of {EQUALS_MODULUS_CAP}",
            )
        if self._residues(big) != other._residues(big):
            return False
        mine, theirs = set(self.finite), set(other.finite)
        members = mine | theirs | {0}
        return mine | self._covered(members) == theirs | other._covered(members)

    def _residues(self, big: int) -> bytearray:
        """Flags of the residues modulo ``big`` the progressions cover."""
        covered = bytearray(big)
        for base, mod in self.progressions:
            covered[base::mod] = b"\1" * len(range(base, big, mod))
        return covered

    def to_json(self) -> dict:
        out: dict = {"finite": list(self.finite)}
        if self.progressions:
            out["progressions"] = [{"base": b, "mod": m} for b, m in self.progressions]
        if self.excludes_zero_in_progressions:
            out["excludesZero"] = True
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DegreeSet":
        """Degree set from a payload valid under the ``degreeSet`` schema."""
        progs = tuple((int(p["base"]), int(p["mod"])) for p in obj.get("progressions", ()))
        return cls(obj["finite"], progs, bool(obj.get("excludesZero", False)))

    def render(self) -> str:
        """Compact human-readable form, used by the text output mode."""
        parts = []
        if self.finite:
            parts.append("{" + ", ".join(str(x) for x in self.finite) + "}")
        for base, mod in self.progressions:
            tail = " minus {0}" if self.excludes_zero_in_progressions and base == 0 else ""
            parts.append(f"({base} mod {mod}){tail}")
        return " u ".join(parts) if parts else "{}"


def _congruence(a: int, c: int, d: int) -> tuple[int, int] | None:
    """The t with a*t == c (mod d), d >= 1, as (base, mod); None when
    there is none."""
    g = gcd(a, d)
    if c % g != 0:
        return None
    d1 = d // g
    return (c // g * pow(a // g, -1, d1) % d1, d1)


def _crt(b1: int, m1: int, b2: int, m2: int) -> tuple[int, int] | None:
    """Intersect b1 mod m1 with b2 mod m2, solving m1*t == b2 - b1
    (mod m2) by :func:`_congruence`; None when incompatible."""
    hit = _congruence(m1, b2 - b1, m2)
    return None if hit is None else ((b1 + m1 * hit[0]) % (m1 * hit[1]), m1 * hit[1])


def _uncovered(members: Collection[int], bases_by_mod: dict[int, set[int]]) -> list[int]:
    """The ``members`` that no progression holds, in their order; the
    progressions are given as modulus -> bases.  Raises
    :class:`ResourceCapError` when that would test more than
    ``COVER_TEST_CAP`` members against moduli."""
    tests = len(members) * len(bases_by_mod)
    if tests > COVER_TEST_CAP:
        raise ResourceCapError(
            "cover_tests", COVER_TEST_CAP,
            f"testing {len(members)} finite members against {len(bases_by_mod)} "
            f"progression moduli would take {tests} tests, beyond the cap of "
            f"{COVER_TEST_CAP}",
        )
    rest = list(members)
    for mod, bases in bases_by_mod.items():
        rest = [x for x in rest if x % mod not in bases]
    return rest


def _check_progressions(count: int, what: str) -> None:
    """Raises :class:`ResourceCapError` when ``count`` progressions pass
    ``PROGRESSION_CAP``; ``what`` says where they would go."""
    if count > PROGRESSION_CAP:
        raise ResourceCapError(
            "progressions", PROGRESSION_CAP,
            f"{what} {count} progressions, beyond the cap of {PROGRESSION_CAP}",
        )


class SequenceB(Frozen):
    """Finite sequence of nonzero integers; duplicates are meaningful.

    >>> SequenceB((1, 1, -2)).entries
    (1, 1, -2)
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]) -> None:
        ent = tuple(map(int, entries))
        if 0 in ent:
            raise InputError("sequence entries must be nonzero")
        object.__setattr__(self, "entries", ent)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def to_json(self) -> list[int]:
        return list(self.entries)


def _sums_of(entries: Sequence[int]) -> frozenset[int]:
    """Sparse DP over the offset range [sum of negatives, sum of positives].

    Raises :class:`ResourceCapError` past ``SUM_LENGTH_CAP`` entries or
    ``SUM_SIZE_CAP`` sums; a step that could cross the size cap adds its
    sums one at a time, so the set never grows far past it.
    """
    if len(entries) > SUM_LENGTH_CAP:
        raise ResourceCapError(
            "max_len", SUM_LENGTH_CAP,
            f"sequence length {len(entries)} exceeds the cap of {SUM_LENGTH_CAP}",
        )
    sums = {0}
    for done, e in enumerate(entries, 1):
        if 2 * len(sums) <= SUM_SIZE_CAP:
            sums |= {s + e for s in sums}
            continue
        for s in tuple(sums):
            sums.add(s + e)
            if len(sums) > SUM_SIZE_CAP:
                raise ResourceCapError(
                    "sum_size", SUM_SIZE_CAP,
                    f"subsequence sums reached {len(sums)} values after {done} of "
                    f"{len(entries)} entries, beyond the cap of {SUM_SIZE_CAP}",
                )
    return frozenset(sums)


def subsequence_sums(b: SequenceB) -> DegreeSet:
    """S_B as a finite degree set; 0 always belongs (empty subsequence).

    >>> sorted(subsequence_sums(SequenceB((1, 2))).finite)
    [0, 1, 2, 3]
    >>> subsequence_sums(SequenceB(())).finite
    (0,)
    """
    return DegreeSet(_sums_of(b.entries))


# ---------------------------------------------------------------------------
# decomposition search


# JSON key and attribute of each search limit
_CAP_KEYS = (("maxLen", "max_len"), ("maxEntry", "max_entry"), ("budget", "budget"))


class SearchLimits(Frozen):
    """Caps for the decomposition search; None means the derived default.

    Defaults: length |a| + 4 up to ``SUM_LENGTH_CAP``, entry magnitude
    4 * max|a|, and a total candidate budget of 10^7 sequences.
    """

    __slots__ = ("max_len", "max_entry", "budget")

    def __init__(self, max_len: int | None = None, max_entry: int | None = None,
                 budget: int = 10_000_000) -> None:
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "max_entry", max_entry)
        object.__setattr__(self, "budget", budget)

    def to_json(self) -> dict:
        return {key: getattr(self, name) for key, name in _CAP_KEYS}

    @classmethod
    def from_json(cls, obj: dict) -> "SearchLimits":
        """Limits from the ``maxLen``, ``maxEntry`` and ``budget`` keys of a
        payload valid under the ``caps`` schema or a request schema that
        spells them the same way; an absent or null key takes the default."""
        return cls(**{name: int(obj[key]) for key, name in _CAP_KEYS
                      if obj.get(key) is not None})

    def resolve(self, target: frozenset[int]) -> "SearchLimits":
        """The limits a search for ``target`` runs under, with every default
        filled in.  Raises :class:`InputError` for a member of ``target``
        beyond ``TARGET_MAGNITUDE_CAP`` or a cap beyond its schema maximum,
        so the caps a certificate records always validate."""
        hull = max((abs(x) for x in target), default=0)
        if hull > TARGET_MAGNITUDE_CAP:
            raise InputError(f"target member of magnitude {hull} exceeds "
                             f"the cap of {TARGET_MAGNITUDE_CAP}")
        limits = SearchLimits(
            self.max_len if self.max_len is not None
            else min(len(target) + 4, SUM_LENGTH_CAP),
            self.max_entry if self.max_entry is not None else max(4 * hull, 1),
            self.budget,
        )
        if (limits.max_len > SUM_LENGTH_CAP or limits.max_entry > MAX_ENTRY_CAP
                or limits.budget > BUDGET_CAP):
            raise InputError(f"search caps {limits.to_json()} exceed the maxima "
                             f"maxLen {SUM_LENGTH_CAP}, maxEntry {MAX_ENTRY_CAP}, "
                             f"budget {BUDGET_CAP}")
        return limits


class TranscriptStep(Frozen):
    __slots__ = ("sequence", "sums", "intersection")

    def to_json(self) -> dict:
        return {
            "sequence": self.sequence.to_json(),
            "sums": list(self.sums),
            "intersection": list(self.intersection),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TranscriptStep":
        return cls(
            SequenceB(obj["sequence"]),
            tuple(map(int, obj["sums"])),
            tuple(map(int, obj["intersection"])),
        )


class DecompositionCertificate(Frozen):
    """Witness that ``target`` equals the intersection of the S_B(i).

    ``hull_bound`` is the entry-magnitude cap that was in effect; ``caps``
    records all resolved search limits, since they are an engineering
    choice and not part of the mathematical statement.  ``caps`` and
    ``transcript`` are None for a certificate read without them, and are
    then written without them.
    """

    __slots__ = ("target", "sequences", "hull_bound", "caps", "transcript")

    def to_json(self) -> dict:
        out = {
            "schemaVersion": 1,
            "kind": "decomposition-certificate",
            "target": list(self.target),
            "sequences": [s.to_json() for s in self.sequences],
            "hullBound": self.hull_bound,
        }
        if self.caps is not None:
            out["caps"] = self.caps.to_json()
        if self.transcript is not None:
            out["transcript"] = [t.to_json() for t in self.transcript]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DecompositionCertificate":
        """Certificate from a payload valid under the
        ``decompositionCertificate`` schema."""
        return cls(
            tuple(map(int, obj["target"])),
            tuple(map(SequenceB, obj["sequences"])),
            int(obj["hullBound"]),
            SearchLimits.from_json(obj["caps"]) if "caps" in obj else None,
            tuple(map(TranscriptStep.from_json, obj["transcript"]))
            if "transcript" in obj else None,
        )


class _Budget:
    """Leaves the decomposition search may still test.

    ``progress`` ends the cap message, so that a cap hit says how far the
    search got.  ``decompose`` keeps its parts in ``excluding``: the value
    it is excluding, how many extraneous values are excluded and how many
    there are; the text is formatted only when a cap fires.
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self.left = total
        self.excluding: tuple[int, int, int] | None = None

    @property
    def progress(self) -> str:
        if self.excluding is None:
            return ""
        bad, done, count = self.excluding
        return f" while excluding {bad} ({_excluded(done, count)}, budget {self.total})"

    def spend(self, n: int = 1) -> None:
        """Charge ``n`` leaves; raises once the total is overdrawn."""
        self.left -= n
        if self.left < 0:
            raise ResourceCapError(
                "budget", self.total,
                f"decomposition search budget exhausted{self.progress}",
            )


def _excluded(done: int, count: int) -> str:
    return f"{done} of {count} extraneous values excluded"


def _group_candidates(sums: int, diffs: int, pos: int, neg: int,
                      target: Iterable[int]) -> tuple[int, int] | None:
    """The penultimate entries v below a prefix that can start a hit.

    ``sums`` is the prefix's sums mask S (bit x - neg for the sum x, which
    runs from ``neg`` to ``pos``), ``diffs`` its difference mask D = S - S
    (bit d + pos - neg for the difference d) and ``target`` the targets in
    ascending order.  Returns (mask, base): bit v + base of ``mask`` is set
    for every v such that some last entry u completes the target below the
    prefix extended by v.  Returns None when fewer than two targets lie
    outside S, or when no pair of them constrains v.

    Take a, the least target outside S, and any other target b outside S.
    If u completes the target below s = S | (S + v), then a + u and b + u
    lie in s, unless a or b lies in S + v.  So b - a lies in
    s - s = D | (D + v) | (D - v), which is to say that v lies in
    (a - S) | (b - S) | (D + (b - a)) | (D - (b - a)).  When b - a is in D,
    every v meets this.  The mask is the AND of these unions over each b.
    Each term is one shift, because a subset-sum set is a palindrome:
    t - S = S + (t - pos - neg).  Every shift is at least 0, and the mask
    spans only the v that its terms reach, about twice the prefix's span
    plus the target's.
    """
    missing = [t for t in target if not (t >= neg and sums >> (t - neg) & 1)]
    if len(missing) < 2:
        return None
    width = pos - neg
    a = missing[0]
    base = max(pos - a, width + missing[-1] - a)
    at_a = sums << (base - pos + a)
    mask = None
    for b in missing[1:]:
        gap = b - a
        if gap <= width and diffs >> (gap + width) & 1:
            continue
        term = (at_a | sums << (base - pos + b)
                | diffs << (base - width + gap) | diffs << (base - width - gap))
        mask = term if mask is None else mask & term
        if not mask:
            break
    return None if mask is None else (mask, base)


def _exclusion_search(target: frozenset[int], values: Iterable[int],
                      limits: SearchLimits) -> Callable[[int, _Budget], SequenceB | None]:
    """One lazy search walk that excludes each of ``values`` from ``target``.

    Returns ``find(bad, budget)``: the first sequence B in graded
    lexicographic order with target within S_B and ``bad`` outside it, or
    None when no B within ``limits`` has both.  ``budget`` is charged what
    a search for ``bad`` alone would charge: the leaves up to its hit, or
    every leaf when none holds.

    Sequences are enumerated as non-decreasing tuples of symbol indices
    (each multiset once), lengths first, entries ordered by magnitude then
    sign: index i is the entry i // 2 + 1, negated for odd i.  Branches
    whose reachable positive or negative totals cannot cover the target
    hull are pruned without spending budget on leaves; every other leaf
    costs one unit of budget.  A leaf group is a prefix together with all
    its choices of last entry.

    None of this depends on the value excluded, only which leaf hits does,
    so one walk serves every value.  It records the first hit of each
    value still pending (without a hit) and that hit's leaf position
    (leaves charged from the start of the walk through the hit), advances
    only until ``bad`` has a hit or the position passes ``budget.left``,
    and then pauses: the walk is a generator suspended after the last leaf
    group it charged, and the next ``find`` resumes it there.  ``bad`` must
    be one of ``values``; they may be asked for in any order.  For a target
    spanning more than ``SEARCH_SPAN_CAP`` it raises
    :class:`ResourceCapError` before it builds any mask: the first ``find``
    builds them, the mask of ``values`` as wide as their span, which
    subset sums of the target can make many times the target's.

    Each node carries the sums S of its prefix down the recursion as an
    integer bitmask: bit x - neg stands for the sum x, where ``neg``, the
    sum of the prefix's negative entries, is the least element of S.  An
    entry of magnitude m, of either sign, extends the sums to
    S | S << m (a negative entry lowers ``neg`` by m, which shifts the old
    sums up by m).  Beside S goes the prefix's difference mask D = S - S,
    bit d + pos - neg for the difference d, where ``pos`` is the sum of the
    positive entries; the entry extends it to D | D << m | D << 2m.  Below
    a prefix whose S already holds every pending value no leaf can hit, so
    the mask is replaced by None and no longer extended; a mask left
    unextended would be read at a stale offset once ``neg`` moves.

    The last two slots are walked in one loop instead of recursing.  Each
    call first asks :func:`_group_candidates` for the penultimate entries
    v that can start a hit, one AND of shifts of S and D; no last entry
    completes the target in a group outside that mask.  The kept groups
    between two candidates, and every kept group below a prefix whose S
    holds every pending value, are charged as one run in closed form: the
    group with penultimate index idx costs end - idx leaves, and each
    sign's kept indexes step by 2, so a run costs two arithmetic series.
    Only a run whose cost would pass the budget left is charged one group
    at a time, so the walk pauses after the same group as one that tests
    each.  Below a prefix whose S misses fewer than two targets there is no
    mask, and every group is a candidate.  For each candidate the loop
    extends the prefix's mask and applies the hull prune and the
    all-pending-held test inline; ``record_hits`` tests a group that passes
    both, and the group is then charged its end - idx leaves.  A length-1
    walk has one group, below the empty prefix, which ``rec`` tests by the
    same call and charges whole.

    ``record_hits`` tests the group below a prefix whose sums are S.  With
    ``missing`` the targets outside S, last entry w = -u completes a hit
    for ``bad`` outside S iff t + u lies in S for every missing t and
    bad + u does not.  Bit k = u + need_hi - neg of S << (need_hi - t) is
    set iff t + u is in S, so ANDing those shifts gives ``fits``.
    ``missing`` is one mask: ``tmask``, bit t - need_lo for each target t,
    less S shifted to need_lo.  The test ANDs the shifts for its set bits,
    lowest first, and returns as soon as ``fits`` is 0.  Otherwise it goes
    on to the pending values, where clearing from ``fits`` the shift of S
    by need_hi - bad leaves exactly the valid u for ``bad``.  The first
    valid index at or after the group's ``start`` is then the lowest set
    bit above the negative entries' cut-off (index 2m - 1 for w = -m) or
    the highest set bit below the positive entries' cut-off (index 2m - 2
    for w = m), whichever index is smaller.
    """
    ordered = sorted(target)
    need_hi = ordered[-1]
    need_lo = ordered[0]
    span = need_hi - need_lo
    tmask = 0  # bit t - need_lo for each target t, built by the first find
    top = limits.max_entry
    end = 2 * top
    pending: list[int] = []
    low = wanted = 0  # bit v - low of ``wanted`` is set for each pending v
    # first hit of a value: its leaf position and the sequence's entries
    hits: dict[int, tuple[int, tuple[int, ...]]] = {}
    walked = 0  # leaves charged from the start of the walk
    goal = limit = 0  # the value asked for and the budget left when asked

    def set_pending(kept: list[int]) -> None:
        nonlocal pending, low, wanted
        pending = kept
        low = kept[0] if kept else 0
        bits = bytearray((kept[-1] - low) // 8 + 1 if kept else 0)
        for v in kept:  # one bit per value: summing shifted ints is quadratic
            bits[(v - low) >> 3] |= 1 << ((v - low) & 7)
        wanted = int.from_bytes(bits, "little")

    def record_hits(start: int, sums: int, neg: int, picked: list[int]) -> None:
        """Tests the group below ``picked``, not yet charged, and records
        its first hit of each pending value outside ``sums``."""
        # the targets outside the sums, bit t - need_lo for target t; never
        # none of them: a prefix whose sums held the target without a
        # pending value would have been its hit one length earlier
        at_lo = need_lo - neg
        miss = tmask & ~(sums >> at_lo if at_lo >= 0 else sums << -at_lo)
        fits = -1
        while miss:
            bit = miss & -miss
            miss ^= bit
            fits &= sums << (span + 1 - bit.bit_length())
            if not fits:
                return
        zero = need_hi - neg  # the bit of u = 0, never set
        for bad in pending:
            if bad >= neg and sums >> (bad - neg) & 1:
                continue
            shift = need_hi - bad
            valid = fits & ~(sums << shift if shift >= 0 else sums >> -shift)
            best = end
            lo = start // 2 + 1  # least magnitude of a negative entry
            above = valid >> (zero + lo)
            if above:
                best = 2 * (lo + (above & -above).bit_length() - 1) - 1
            lo = (start + 1) // 2 + 1  # least magnitude of a positive entry
            if zero >= lo:
                below = valid & ((2 << (zero - lo)) - 1)
                if below:
                    best = min(best, 2 * (zero - below.bit_length() + 1) - 2)
            if best < end:
                mag = best // 2 + 1
                hits[bad] = (walked + best - start + 1,
                             (*picked, -mag if best & 1 else mag))
        if not hits.keys().isdisjoint(pending):
            set_pending([v for v in pending if v not in hits])

    def run_leaves(start: int, stop: int, first_neg: int, first_pos: int) -> int:
        """Leaves of the kept groups with index in [start, stop), as
        ``last_two_slots`` keeps them: each sign's indexes step by 2, so
        their leaves, end - idx each, sum as an arithmetic series."""
        total = 0
        for first in (first_neg, first_pos):
            lo = first if first >= start else start + ((start ^ first) & 1)
            if lo < stop:
                count = (stop - lo + 1) // 2
                total += count * (end - lo - count + 1)
        return total

    def last_two_slots(start: int, pos: int, neg: int, sums: int | None,
                       diffs: int, picked: list[int]) -> Iterator[None]:
        """Walks the groups below a prefix two entries short of the length;
        yields when the walk pauses."""
        nonlocal walked
        # the hull prune of the group's prefix: a negative entry needs at
        # least magnitude ``neg_from``, a positive one ``pos_from``; the
        # groups kept are those with an odd index from ``first_neg`` on and
        # an even one from ``first_pos`` on
        neg_from = neg - top - need_lo if pos + top >= need_hi else end
        pos_from = need_hi - pos - top if neg - top <= need_lo else end
        first_neg = max(start, 2 * neg_from - 1) | 1
        first_pos = max(start, 2 * pos_from - 2)
        first_pos += first_pos & 1
        # the candidate groups' indexes, ascending, then ``end``
        found = None if sums is None else _group_candidates(sums, diffs, pos, neg, ordered)
        if found is None:
            # no group below a doomed prefix is a candidate, and without a
            # mask every group is
            groups: Iterable[int] = (end,) if sums is None else range(start, end + 1)
        else:
            mask, base = found
            if base > top:  # no entry is below -top
                mask >>= base - top
                base = top
            groups = []
            while mask:
                bit = mask & -mask
                v = bit.bit_length() - 1 - base
                if v > top:
                    break
                mask ^= bit
                idx = 2 * v - 2 if v > 0 else -2 * v - 1  # -1 for v = 0
                if idx >= start:
                    groups.append(idx)
            groups.sort()
            groups.append(end)
        uncharged = start  # the first group not yet charged
        for idx in groups:
            if idx > uncharged:
                # the groups in between hold no hit
                leaves = run_leaves(uncharged, idx, first_neg, first_pos)
                if walked + leaves <= limit:
                    walked += leaves
                else:  # the walk pauses among them, after the first past the limit
                    for skipped in range(uncharged, idx):
                        if skipped >= (first_neg if skipped & 1 else first_pos):
                            walked += end - skipped
                            if walked > limit:
                                yield
            if idx == end:
                return
            uncharged = idx + 1
            if idx < (first_neg if idx & 1 else first_pos):
                continue
            mag = idx // 2 + 1
            n = neg - mag if idx & 1 else neg
            s = sums | sums << mag
            # a group whose prefix holds every pending value is only charged
            if not (low >= n and s >> (low - n) & wanted == wanted):
                picked.append(-mag if idx & 1 else mag)
                record_hits(idx, s, n, picked)
                picked.pop()
            walked += end - idx
            if goal in hits or walked > limit:
                yield

    def rec(start: int, slots: int, pos: int, neg: int, sums: int | None,
            diffs: int, picked: list[int]) -> Iterator[None]:
        """Walks the groups below a prefix; yields when the walk pauses."""
        nonlocal walked
        # prune: even with the largest remaining magnitudes this branch
        # cannot reach the hull
        if pos + slots * top < need_hi or neg - slots * top > need_lo:
            return
        if sums is not None and low >= neg and sums >> (low - neg) & wanted == wanted:
            sums = None
        if slots == 1:  # a length-1 walk: its one group
            if sums is not None:
                record_hits(start, sums, neg, picked)
            walked += end - start
            if goal in hits or walked > limit:
                yield
        elif slots == 2:
            yield from last_two_slots(start, pos, neg, sums, diffs, picked)
        else:
            for idx in range(start, end):
                mag = idx // 2 + 1
                picked.append(-mag if idx & 1 else mag)
                yield from rec(idx, slots - 1,
                               pos if idx & 1 else pos + mag,
                               neg - mag if idx & 1 else neg,
                               None if sums is None else sums | sums << mag,
                               diffs | diffs << mag | diffs << 2 * mag
                               if sums is not None else 0,
                               picked)
                picked.pop()

    def walk() -> Iterator[None]:
        for length in range(1, limits.max_len + 1):
            yield from rec(0, length, 0, 0, 1, 1, [])

    walker = walk()

    def find(bad: int, budget: _Budget) -> SequenceB | None:
        nonlocal goal, limit, tmask
        if span > SEARCH_SPAN_CAP:
            raise ResourceCapError(
                "search_span", SEARCH_SPAN_CAP,
                f"decomposition search over a target span of {span}, beyond "
                f"the cap of {SEARCH_SPAN_CAP}{budget.progress}",
            )
        if bad not in hits:
            goal, limit = bad, budget.left
            if not tmask:  # the first find: build the masks, past the span cap
                # as wide as the target hull, like the masks the walk builds
                tmask = sum(1 << (t - need_lo) for t in target)
                set_pending(sorted(set(values)))
            next(walker, None)
        if bad not in hits:
            budget.spend(walked)
            return None
        at, entries = hits[bad]
        budget.spend(at)
        return SequenceB(entries)

    return find


def decompose(a: Iterable[int], limits: SearchLimits | None = None) -> DecompositionCertificate:
    """Write ``a`` as an intersection of subsequence-sum sets.

    Seeds with the nonzero elements of ``a`` (ascending), then for each
    extraneous value still in the intersection, ascending, adds the first
    sequence in graded lexicographic order whose sums contain ``a`` but not
    that value.  One search walk (:func:`_exclusion_search`) serves all
    the values: it resumes where the previous value's search stopped, and
    each value is charged the leaves its own search from length 1 would
    have tested.  Deterministic: same input, same certificate.

    >>> [s.entries for s in decompose({0, 1, 3}).sequences]
    [(1, 3), (1, 2)]
    >>> [s.entries for s in decompose({0}).sequences]
    [(2,), (3,)]
    """
    target = frozenset(int(x) for x in a)
    if not target:
        raise InputError("target set must be nonempty")
    if 0 not in target:
        raise InputError("target set must contain 0")
    limits = (limits or SearchLimits()).resolve(target)

    if target == {0}:
        # No nonzero elements to seed with; the two smallest coprime
        # magnitudes > 1 intersect to {0}.
        seqs = (SequenceB((2,)), SequenceB((3,)))
    else:
        seqs = (SequenceB(tuple(sorted(x for x in target if x != 0))),)

    budget = _Budget(limits.budget)
    sequences: list[SequenceB] = list(seqs)
    transcript: list[TranscriptStep] = []
    current: frozenset[int] | None = None
    for s in sequences:
        sums = _sums_of(s.entries)
        current = sums if current is None else current & sums
        transcript.append(TranscriptStep(s, tuple(sorted(sums)), tuple(sorted(current))))

    extraneous = sorted(current - target)
    find = _exclusion_search(target, extraneous, limits)
    count = len(extraneous)
    for bad in extraneous:
        if bad not in current:
            continue
        # ``current`` holds the target, so it holds this many extraneous values
        done = count - (len(current) - len(target))
        budget.excluding = (bad, done, count)
        found = find(bad, budget)
        if found is None:
            raise ResourceCapError(
                "max_len", limits.max_len,
                f"no excluding sequence for {bad} within caps "
                f"(max_len={limits.max_len}, max_entry={limits.max_entry}; "
                f"{_excluded(done, count)})",
            )
        sums = _sums_of(found.entries)
        current = current & sums
        sequences.append(found)
        transcript.append(TranscriptStep(found, tuple(sorted(sums)), tuple(sorted(current))))

    if current != target:  # unreachable: each step excludes its value
        raise RuntimeError(f"decomposition intersection {sorted(current)} "
                           f"is not the target {sorted(target)}")
    return DecompositionCertificate(
        tuple(sorted(target)),
        tuple(sequences),
        limits.max_entry,
        limits,
        tuple(transcript),
    )


def enumerated_sums(sequences: Sequence[SequenceB]) -> Iterator[frozenset[int]]:
    """S_B of each of ``sequences`` in turn, each recomputed by walking all
    2^|B| subsets (independent of the sparse DP that builds certificates).

    Before yielding any it raises :class:`ResourceCapError` for a sequence
    longer than ``VERIFY_LENGTH_CAP`` and then for more than
    ``ENUMERATION_CAP`` subsets in all.

    >>> [sorted(s) for s in enumerated_sums([SequenceB((1, 3)), SequenceB((-2,))])]
    [[0, 1, 3, 4], [-2, 0]]
    """
    for s in sequences:
        if len(s) > VERIFY_LENGTH_CAP:
            raise ResourceCapError(
                "max_len", VERIFY_LENGTH_CAP,
                f"verification cap: sequence length {len(s)} exceeds {VERIFY_LENGTH_CAP}",
            )
    total = sum(1 << len(s) for s in sequences)
    if total > ENUMERATION_CAP:
        raise ResourceCapError(
            "enumeration", ENUMERATION_CAP,
            f"verification cap: the sequences have {total} subsets in all, "
            f"beyond the cap of {ENUMERATION_CAP}",
        )
    for s in sequences:
        entries = s.entries
        sums = [0] * (1 << len(entries))
        for mask in range(1, len(sums)):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + entries[low.bit_length() - 1]
        yield frozenset(sums)


def verify_decomposition(cert: DecompositionCertificate) -> bool:
    """Whether the S_B(i) that :func:`enumerated_sums` recomputes intersect
    to the stored target; raises its caps."""
    inter: frozenset[int] | None = None
    for sums in enumerated_sums(cert.sequences):
        inter = sums if inter is None else inter & sums
    return inter == frozenset(cert.target)
