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
from typing import Callable, Iterable, Iterator, Sequence

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
    "check_enumeration",
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
# dropping nested progressions is quadratic in their number
PROGRESSION_CAP = 1 << 10


class DegreeSet(Frozen):
    """Finite integers plus arithmetic progressions, canonicalized.

    ``excludes_zero_in_progressions`` removes 0 from the progression part
    only; a 0 in ``finite`` always counts.  Construction canonicalizes:
    bases reduced, nested progressions dropped, finite members covered by
    a progression dropped, and the excludes-zero flag kept only while it
    matters (some progression passes through 0 and no finite 0 exists).

    >>> DegreeSet.from_finite([3, 0, 3]).finite
    (0, 3)
    >>> 5 in DegreeSet.from_parts([], [(2, 3)])
    True
    """

    __slots__ = ("finite", "progressions", "excludes_zero_in_progressions")

    def __init__(self, finite: tuple[int, ...] = (),
                 progressions: tuple[tuple[int, int], ...] = (),
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
        progs = sorted(set(progs), key=lambda p: (p[1], p[0]))
        # drop progressions contained in another one
        kept: list[tuple[int, int]] = []
        for p in progs:
            if not any(q != p and p[1] % q[1] == 0 and (p[0] - q[0]) % q[1] == 0
                       for q in progs):
                kept.append(p)
        # the containment test above treats equal pairs as distinct objects;
        # dedupe handled by set() already, and mutual containment of distinct
        # pairs cannot happen after base reduction.
        flag = excludes_zero_in_progressions
        finite = sorted(set(int(x) for x in finite))
        if flag and (0 in finite or not any(base == 0 for base, _ in kept)):
            flag = False
        def in_progs(x: int) -> bool:
            return any((x - base) % mod == 0 for base, mod in kept)
        finite = [x for x in finite
                  if not in_progs(x) or (x == 0 and flag)]
        object.__setattr__(self, "finite", tuple(finite))
        object.__setattr__(self, "progressions", tuple(kept))
        object.__setattr__(self, "excludes_zero_in_progressions", flag)

    # -- constructors

    @classmethod
    def empty(cls) -> "DegreeSet":
        return cls()

    @classmethod
    def from_finite(cls, xs: Iterable[int]) -> "DegreeSet":
        return cls(tuple(xs))

    @classmethod
    def from_parts(cls, finite: Iterable[int], progressions: Iterable[tuple[int, int]],
                   excludes_zero: bool = False) -> "DegreeSet":
        return cls(tuple(finite), tuple(progressions), excludes_zero)

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
        return d in self.finite or self._covers(d)

    def _covers(self, d: int) -> bool:
        """Whether the progression part holds ``d``."""
        if d == 0 and self.excludes_zero_in_progressions:
            return False
        return any((d - base) % mod == 0 for base, mod in self.progressions)

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
            finite |= {x for x in mine if other._covers(x)}
        if self.progressions:
            finite |= {x for x in theirs if self._covers(x)}
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
        more than ``EQUALS_MODULUS_CAP`` residues.

        >>> DegreeSet.from_parts([], [(0, 2), (1, 2)]).equals(DegreeSet.from_parts([], [(0, 1)]))
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
        return all((p in mine or self._covers(p)) == (p in theirs or other._covers(p))
                   for p in mine | theirs | {0})

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
        finite = tuple(int(x) for x in obj["finite"])
        progs = tuple((int(p["base"]), int(p["mod"])) for p in obj.get("progressions", ()))
        return cls(finite, progs, bool(obj.get("excludesZero", False)))

    def render(self) -> str:
        """Compact human-readable form, used by the text output mode."""
        parts = []
        if self.finite:
            parts.append("{" + ", ".join(str(x) for x in self.finite) + "}")
        for base, mod in self.progressions:
            tail = " minus {0}" if self.excludes_zero_in_progressions and base == 0 else ""
            parts.append(f"({base} mod {mod}){tail}")
        return " u ".join(parts) if parts else "{}"


def _crt(b1: int, m1: int, b2: int, m2: int) -> tuple[int, int] | None:
    """Intersect b1 mod m1 with b2 mod m2; None when incompatible."""
    g = gcd(m1, m2)
    if (b1 - b2) % g != 0:
        return None
    l = lcm(m1, m2)
    t = ((b2 - b1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 // g > 1 else 0
    return ((b1 + m1 * t) % l, l)


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

    def __init__(self, entries: tuple[int, ...]) -> None:
        ent = tuple(int(x) for x in entries)
        if any(x == 0 for x in ent):
            raise InputError("sequence entries must be nonzero")
        object.__setattr__(self, "entries", ent)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def to_json(self) -> list[int]:
        return list(self.entries)

    @classmethod
    def from_json(cls, obj: Sequence[int]) -> "SequenceB":
        return cls(tuple(int(x) for x in obj))


def _sums_of(entries: Sequence[int]) -> frozenset[int]:
    """Sparse DP over the offset range [sum of negatives, sum of positives].

    Raises :class:`ResourceCapError` as soon as the set holds more than
    ``SUM_SIZE_CAP`` sums.  A step that could cross the cap adds its sums
    one at a time, so the set never grows far past the cap.
    """
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


def subsequence_sums(b: SequenceB, max_len: int = SUM_LENGTH_CAP) -> DegreeSet:
    """S_B as a finite degree set; 0 always belongs (empty subsequence).

    >>> sorted(subsequence_sums(SequenceB((1, 2))).finite)
    [0, 1, 2, 3]
    >>> subsequence_sums(SequenceB(())).finite
    (0,)
    """
    if len(b) > max_len:
        raise ResourceCapError(
            "max_len", max_len,
            f"sequence length {len(b)} exceeds the cap of {max_len}",
        )
    return DegreeSet.from_finite(_sums_of(b.entries))


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

    def __init__(self, sequence: SequenceB, sums: tuple[int, ...],
                 intersection: tuple[int, ...]) -> None:
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "intersection", intersection)

    def to_json(self) -> dict:
        return {
            "sequence": self.sequence.to_json(),
            "sums": list(self.sums),
            "intersection": list(self.intersection),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TranscriptStep":
        return cls(
            SequenceB.from_json(obj["sequence"]),
            tuple(int(x) for x in obj["sums"]),
            tuple(int(x) for x in obj["intersection"]),
        )


class DecompositionCertificate(Frozen):
    """Witness that ``target`` equals the intersection of the S_B(i).

    ``hull_bound`` is the entry-magnitude cap that was in effect; ``caps``
    records all resolved search limits, since they are an engineering
    choice and not part of the mathematical statement.
    """

    __slots__ = ("target", "sequences", "hull_bound", "caps", "transcript")

    def __init__(self, target: tuple[int, ...], sequences: tuple[SequenceB, ...],
                 hull_bound: int, caps: SearchLimits,
                 transcript: tuple[TranscriptStep, ...]) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sequences", sequences)
        object.__setattr__(self, "hull_bound", hull_bound)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "transcript", transcript)

    def to_json(self) -> dict:
        return {
            "schemaVersion": 1,
            "kind": "decomposition-certificate",
            "target": list(self.target),
            "sequences": [s.to_json() for s in self.sequences],
            "hullBound": self.hull_bound,
            "caps": self.caps.to_json(),
            "transcript": [t.to_json() for t in self.transcript],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecompositionCertificate":
        """Certificate from a payload valid under the
        ``decompositionCertificate`` schema."""
        return cls(
            tuple(int(x) for x in obj["target"]),
            tuple(SequenceB.from_json(s) for s in obj["sequences"]),
            int(obj["hullBound"]),
            SearchLimits.from_json(obj.get("caps", {})),
            tuple(TranscriptStep.from_json(t) for t in obj.get("transcript", ())),
        )


class _Budget:
    """Leaves the decomposition search may still test.

    ``progress`` ends the cap message, so that a cap hit says how far the
    search got.
    """

    def __init__(self, total: int) -> None:
        self.total = total
        self.left = total
        self.progress = ""

    def spend(self, n: int = 1) -> None:
        """Charge ``n`` leaves; raises once the total is overdrawn."""
        self.left -= n
        if self.left < 0:
            raise ResourceCapError(
                "budget", self.total,
                f"decomposition search budget exhausted{self.progress}",
            )


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
    and then pauses; the next ``find`` resumes after the last leaf group
    walked, whose prefix is kept as the cursor.  ``bad`` must be one of
    ``values``; they may be asked for in any order.  For a target spanning
    more than ``SEARCH_SPAN_CAP`` it raises :class:`ResourceCapError`
    before it builds any mask.

    Each node carries the sums S of its prefix down the recursion as an
    integer bitmask: bit x - neg stands for the sum x, where ``neg``, the
    sum of the prefix's negative entries, is the least element of S.  An
    entry of magnitude m, of either sign, extends the sums to
    S | S << m (a negative entry lowers ``neg`` by m, which shifts the old
    sums up by m).  Below a prefix whose S already holds every pending
    value no leaf can hit, so the mask is replaced by None and no longer
    extended; a mask left unextended would be read at a stale offset once
    ``neg`` moves.

    The last two slots are walked in one loop instead of recursing.  For
    each penultimate entry the loop extends the prefix's mask, applies the
    hull prune and the all-pending-held test inline, and then tests the
    group below the extended prefix, whose sums are S.  With ``missing``
    the targets outside S, last entry v = -u completes a hit for ``bad``
    outside S iff t + u lies in S for every missing t and bad + u does
    not.  Bit k = u + need_hi - neg of S << (need_hi - t) is set iff t + u
    is in S, so ANDing those shifts gives ``fits``.  ``missing`` is one
    mask: ``tmask``, bit t - need_lo for each target t, less S shifted to
    need_lo.  The loop ANDs the shifts for its set bits, lowest first, and
    stops as soon as ``fits`` is 0.  Most groups end there: they are
    charged their end - idx leaves and the loop goes on, with no call.
    A group with nonzero ``fits`` goes on to its pending values, where
    clearing from ``fits`` the shift of S by need_hi - bad leaves exactly
    the valid u for ``bad``.  The first valid index at or after the
    group's ``start`` is then the lowest set bit above the negative
    entries' cut-off (index 2m - 1 for v = -m) or the highest set bit
    below the positive entries' cut-off (index 2m - 2 for v = m),
    whichever index is smaller.  A length-1 walk has only its last slot,
    whose one group is tested the same way.
    """
    need_hi = max(target)
    need_lo = min(target)
    span = need_hi - need_lo
    tmask = 0  # bit t - need_lo for each target t, built by the first find
    top = limits.max_entry
    end = 2 * top
    pending: list[int] = []
    low = wanted = 0  # bit v - low of ``wanted`` is set for each pending v
    # first hit of a value: its leaf position and the sequence's entries
    hits: dict[int, tuple[int, tuple[int, ...]]] = {}
    walked = 0  # leaves charged from the start of the walk
    length = 1  # of the sequences being walked
    cursor: list[int] = []  # prefix indices of the last group walked
    following = False  # while true, the walk leads down the cursor
    goal = limit = 0  # the value asked for and the budget left when asked

    def set_pending(kept: list[int]) -> None:
        nonlocal pending, low, wanted
        pending = kept
        low = kept[0] if kept else 0
        wanted = sum(1 << (v - low) for v in kept)

    def record_hits(start: int, fits: int, sums: int, neg: int, at: int,
                    picked: list[int]) -> None:
        """Records the first hit in the group below ``picked`` of each
        pending value outside ``sums``; ``fits`` is nonzero."""
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
                hits[bad] = (at + best - start + 1,
                             (*picked, -mag if best & 1 else mag))
        if not hits.keys().isdisjoint(pending):
            set_pending([v for v in pending if v not in hits])

    def last_slot(start: int, sums: int | None, neg: int, picked: list[int]) -> bool:
        """The one group of a length-1 walk; true once the walk pauses."""
        nonlocal walked, following
        if following:  # the cursor's group, walked before the pause
            following = False
            return False
        at = walked
        walked += end - start
        if sums is not None:
            # ``fits`` ANDs at least one shift: a prefix whose sums held
            # the target without a pending value would have been its hit
            # one length earlier
            fits = -1
            for t in target:
                if t < neg or not sums >> (t - neg) & 1:
                    fits &= sums << (need_hi - t)
            if fits:
                record_hits(start, fits, sums, neg, at, picked)
        return goal in hits or walked > limit

    def last_two_slots(start: int, pos: int, neg: int, sums: int | None,
                       picked: list[int]) -> bool:
        """Walks the groups below a prefix two entries short of the length;
        true once the walk pauses."""
        nonlocal walked, following
        if following:  # resume after the cursor's group, walked before the pause
            following = False
            start = cursor[-1] + 1
        # the hull prune of the group's prefix: a negative entry needs at
        # least magnitude ``neg_from``, a positive one ``pos_from``
        neg_from = neg - top - need_lo if pos + top >= need_hi else end
        pos_from = need_hi - pos - top if neg - top <= need_lo else end
        for idx in range(start, end):
            mag = idx // 2 + 1
            if idx & 1:
                if mag < neg_from:
                    continue
                n = neg - mag
            else:
                if mag < pos_from:
                    continue
                n = neg
            s = None if sums is None else sums | sums << mag
            # a group whose prefix holds every pending value is only charged
            if s is not None and not (low >= n and s >> (low - n) & wanted == wanted):
                # the targets outside s, bit t - need_lo for target t; never
                # none of them, as in ``last_slot``
                at_lo = need_lo - n
                miss = tmask & ~(s >> at_lo if at_lo >= 0 else s << -at_lo)
                fits = -1
                while miss:
                    bit = miss & -miss
                    miss ^= bit
                    fits &= s << (span + 1 - bit.bit_length())
                    if not fits:
                        break
                if fits:
                    at = walked
                    walked += end - idx
                    picked.append(-mag if idx & 1 else mag)
                    record_hits(idx, fits, s, n, at, picked)
                    if goal in hits or walked > limit:
                        return True
                    picked.pop()
                    continue
            walked += end - idx
            if walked > limit:
                picked.append(-mag if idx & 1 else mag)
                return True
        return False

    def rec(start: int, slots: int, pos: int, neg: int, sums: int | None,
            picked: list[int]) -> bool:
        """Walks the groups below a prefix; true once the walk pauses."""
        # prune: even with the largest remaining magnitudes this branch
        # cannot reach the hull
        if pos + slots * top < need_hi or neg - slots * top > need_lo:
            return False
        if sums is not None and low >= neg and sums >> (low - neg) & wanted == wanted:
            sums = None
        if slots == 1:
            return last_slot(start, sums, neg, picked)
        if slots == 2:
            return last_two_slots(start, pos, neg, sums, picked)
        for idx in range(cursor[len(picked)] if following else start, end):
            mag = idx // 2 + 1
            picked.append(-mag if idx & 1 else mag)
            if rec(idx, slots - 1,
                   pos if idx & 1 else pos + mag,
                   neg - mag if idx & 1 else neg,
                   None if sums is None else sums | sums << mag,
                   picked):
                return True
            picked.pop()
        return False

    def find(bad: int, budget: _Budget) -> SequenceB | None:
        nonlocal goal, limit, length, cursor, following, tmask
        if span > SEARCH_SPAN_CAP:
            raise ResourceCapError(
                "search_span", SEARCH_SPAN_CAP,
                f"decomposition search over a target span of {span}, beyond "
                f"the cap of {SEARCH_SPAN_CAP}{budget.progress}",
            )
        if bad not in hits:
            goal, limit = bad, budget.left
            # as wide as the target hull, like the masks the walk builds
            tmask = tmask or sum(1 << (t - need_lo) for t in target)
            while length <= limits.max_len:
                picked: list[int] = []
                if rec(0, length, 0, 0, 1, picked):
                    cursor = [2 * abs(e) - 2 + (e < 0) for e in picked]
                    following = True
                    break
                length += 1
        if bad not in hits:
            budget.spend(walked)
            return None
        at, entries = hits[bad]
        budget.spend(at)
        return SequenceB(entries)

    set_pending(sorted(set(values)))
    return find


def _search_excluding(target: frozenset[int], bad: int, limits: SearchLimits,
                      budget: _Budget) -> SequenceB | None:
    """First sequence B in graded lexicographic order with target within S_B
    and ``bad`` outside it: the single walk of :func:`_exclusion_search`
    with ``bad`` as its only pending value."""
    return _exclusion_search(target, (bad,), limits)(bad, budget)


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

    if current is None or not target <= current:
        raise InputError("internal seed does not cover the target")  # unreachable

    extraneous = sorted(current - target)
    find = _exclusion_search(target, extraneous, limits)
    for bad in extraneous:
        if bad not in current:
            continue
        done = len(extraneous) - len(current - target)
        budget.progress = (f" while excluding {bad} ({done} of {len(extraneous)}"
                           f" extraneous values excluded, budget {limits.budget})")
        found = find(bad, budget)
        if found is None:
            raise ResourceCapError(
                "max_len", limits.max_len,
                f"no excluding sequence for {bad} within caps "
                f"(max_len={limits.max_len}, max_entry={limits.max_entry})",
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


def verify_decomposition(cert: DecompositionCertificate,
                         max_len: int = VERIFY_LENGTH_CAP) -> bool:
    """Re-check a decomposition by full subset enumeration.

    Each S_B(i) is recomputed by walking all 2^|B| subsets (independent of
    the sparse DP used to build certificates); true iff the intersection
    equals the stored target.  Before enumerating anything it raises
    :class:`ResourceCapError` for a sequence longer than ``max_len`` and
    then for more than ``ENUMERATION_CAP`` subsets in all.
    """
    for s in cert.sequences:
        if len(s) > max_len:
            raise ResourceCapError(
                "max_len", max_len,
                f"verification cap: sequence length {len(s)} exceeds {max_len}",
            )
    check_enumeration(cert.sequences)
    inter: frozenset[int] | None = None
    for s in cert.sequences:
        n = len(s)
        entries = s.entries
        sums = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + entries[low.bit_length() - 1]
        got = frozenset(sums)
        inter = got if inter is None else inter & got
    if inter is None:
        return False
    return inter == frozenset(cert.target)


def check_enumeration(sequences: Sequence[SequenceB]) -> None:
    """Raises :class:`ResourceCapError` when ``sequences`` have more than
    ``ENUMERATION_CAP`` subsets in all."""
    total = sum(1 << len(s) for s in sequences)
    if total > ENUMERATION_CAP:
        raise ResourceCapError(
            "enumeration", ENUMERATION_CAP,
            f"verification cap: the sequences have {total} subsets in all, "
            f"beyond the cap of {ENUMERATION_CAP}",
        )
