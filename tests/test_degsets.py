"""Degree-set algebra and decomposition tests.

The enumeration oracle below walks all 2^|B| subsets directly; expected
values for the worked examples were frozen from it (and checked by hand)
before the sparse DP existed.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from work_count import line_events

from circledeg import degsets
from circledeg.degsets import (
    DecompositionCertificate,
    DegreeSet,
    SearchLimits,
    _congruence,
    _crt,
    SequenceB,
    decompose,
    subsequence_sums,
    verify_decomposition,
)
from circledeg.errors import InputError, ResourceCapError


def enumerate_sums(entries) -> set[int]:
    """Oracle: subset sums by explicit enumeration of every subset."""
    out = set()
    for size in range(len(entries) + 1):
        for combo in itertools.combinations(range(len(entries)), size):
            out.add(sum(entries[i] for i in combo))
    return out


# ---------------------------------------------------------------------------
# DegreeSet canonical form and algebra


def test_canonical_form_examples():
    s = DegreeSet([0, 3, 5], [(2, 3)])
    # 5 = 2 mod 3 is swallowed by the progression, 0 and 3 are not
    assert s.finite == (0, 3)
    assert s.progressions == ((2, 3),)

    nested = DegreeSet([], [(1, 2), (3, 4)])
    assert nested.progressions == ((1, 2),)

    dup = DegreeSet([4, 4, 1], [])
    assert dup.finite == (1, 4)


def test_excludes_zero_normalization():
    # flag only matters when a progression passes through 0
    vac = DegreeSet([], [(2, 3)], True)
    assert not vac.excludes_zero_in_progressions
    live = DegreeSet([], [(0, 3)], True)
    assert live.excludes_zero_in_progressions
    assert not live.contains(0)
    assert live.contains(3) and live.contains(-3)
    # a finite 0 overrides the exclusion
    patched = DegreeSet([0], [(0, 3)], True)
    assert patched.contains(0)
    assert not patched.excludes_zero_in_progressions


def test_intersect_progressions_crt():
    x = DegreeSet([], [(2, 3)])
    y = DegreeSet([], [(1, 2)])
    got = x.intersect(y)
    assert got.progressions == ((5, 6),)
    none = x.intersect(DegreeSet([], [(0, 3)]))
    assert none.is_empty


def test_congruence_matches_brute_force():
    # the one congruence solver, behind _crt and solve_scalar's torsion
    # coordinates
    for a, c, d in itertools.product(range(-12, 13), range(-12, 13), range(1, 13)):
        want = [t for t in range(2 * d) if (a * t - c) % d == 0]
        hit = _congruence(a, c, d)
        if hit is None:
            assert want == []
        else:
            base, mod = hit
            assert 0 <= base < mod
            assert want == [t for t in range(2 * d) if t % mod == base]


def test_crt_matches_brute_force_intersection():
    # _crt is the one helper behind DegreeSet.intersect, which solve_scalar
    # also meets its congruences with; it solves through _congruence
    for m1, m2 in itertools.product(range(1, 13), repeat=2):
        span = range(2 * m1 * m2)
        for b1, b2 in itertools.product(range(m1), range(m2)):
            want = [x for x in span if x % m1 == b1 and x % m2 == b2]
            hit = _crt(b1, m1, b2, m2)
            if hit is None:
                assert want == []
            else:
                base, mod = hit
                assert 0 <= base < mod
                assert want == [x for x in span if x % mod == base]
            got = DegreeSet([], [(b1, m1)]) & DegreeSet([], [(b2, m2)])
            assert got.window(0, span[-1]) == want


def test_union_mixed_flags_keeps_zero_membership():
    no_zero = DegreeSet([], [(0, 4)], True)
    with_zero = DegreeSet([], [(0, 6)])
    u = no_zero.union(with_zero)
    assert u.contains(0)
    assert u.contains(4) and u.contains(6)
    v = no_zero.union(DegreeSet([9]))
    assert not v.contains(0)
    assert v.contains(9) and v.contains(8)


def test_equals_is_denotational():
    evens_odds = DegreeSet([], [(0, 2), (1, 2)])
    everything = DegreeSet([], [(0, 1)])
    assert evens_odds.equals(everything)
    assert not evens_odds.equals(DegreeSet([], [(0, 2)]))
    assert DegreeSet([1, 2]).equals(DegreeSet([2, 1]))


# coprime moduli whose lcm is far beyond the cap
WIDE = [(1, 1000003), (1, 999983)]


def test_equals_answers_without_enumerating_when_it_can():
    wide = DegreeSet([0], WIDE)
    start = time.perf_counter()
    # a progression is infinite, with or without excludesZero
    assert not wide.equals(DegreeSet([0, 1]))
    assert not DegreeSet([0]).equals(DegreeSet([], [(0, 10**9)], True))
    # structurally equal canonical forms
    assert wide.equals(DegreeSet([0, 1000004], WIDE[::-1]))
    assert time.perf_counter() - start < 1.0


def test_equals_caps_the_residues_it_enumerates():
    wide = DegreeSet([0], WIDE)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=f"enumerate {1000003 * 999983} residues") as err:
        wide.equals(DegreeSet([0, 5], WIDE))
    assert time.perf_counter() - start < 1.0
    assert err.value.cap_name == "equals_modulus"
    assert err.value.cap_value == degsets.EQUALS_MODULUS_CAP
    # at the cap itself the residues are enumerated
    at_cap = DegreeSet([], [(0, 1 << 19), (1 << 19, 1 << 20)])
    assert at_cap.equals(DegreeSet([], [(0, 1 << 19)]))
    assert not at_cap.equals(DegreeSet([], [(0, 1 << 20)]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=4),
    st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 8)), max_size=3),
    st.booleans(),
    st.lists(st.integers(-20, 20), max_size=4),
    st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 8)), max_size=3),
    st.booleans(),
)
def test_equals_matches_window_semantics(f1, p1, z1, f2, p2, z2):
    x = DegreeSet(f1, p1, z1)
    y = DegreeSet(f2, p2, z2)
    # beyond the finite members both sets repeat with the lcm of all moduli
    reach = 20 + math.lcm(*(m for _, m in p1 + p2))
    assert x.equals(y) == (x.window(-reach, reach) == y.window(-reach, reach))
    assert y.equals(x) == x.equals(y)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-20, 20), max_size=5),
    st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 8)), max_size=3),
    st.booleans(),
    st.lists(st.integers(-20, 20), max_size=5),
    st.lists(st.tuples(st.integers(-10, 10), st.integers(1, 8)), max_size=3),
    st.booleans(),
)
def test_algebra_matches_window_semantics(f1, p1, z1, f2, p2, z2):
    x = DegreeSet(f1, p1, z1)
    y = DegreeSet(f2, p2, z2)
    lo, hi = -120, 120
    wx, wy = set(x.window(lo, hi)), set(y.window(lo, hi))
    assert set(x.union(y).window(lo, hi)) == wx | wy
    assert set(x.intersect(y).window(lo, hi)) == wx & wy
    assert x.equals(x)
    assert x.intersect(x).equals(x)
    for probe in (-7, -1, 0, 1, 2, 12):
        assert x.contains(probe) == (probe in wx)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.integers(-50, 50)), max_size=12),
       st.booleans())
def test_finite_construction_matches_sorted_set(xs, excludes_zero):
    s = DegreeSet(tuple(xs), (), excludes_zero)
    assert s.finite == tuple(sorted(set(int(x) for x in xs)))
    assert all(type(x) is int for x in s.finite)
    assert s.progressions == () and s.excludes_zero_in_progressions is False
    assert s == DegreeSet(reversed(xs))
    assert repr(s) == f"DegreeSet(finite={s.finite!r}, progressions=(), " \
        "excludes_zero_in_progressions=False)"


def test_intersect_and_equals_of_large_sets_take_linear_time():
    n = 1 << 16
    evens = DegreeSet(range(0, 2 * n, 2))
    threes = DegreeSet(range(0, 3 * n, 3))
    odd = [(1, 2)]
    start = time.perf_counter()
    assert evens.intersect(threes).finite == tuple(range(0, 2 * n, 6))
    assert evens.equals(DegreeSet(range(2 * n - 2, -1, -2)))
    assert not evens.equals(threes)
    # with progressions, each finite member is probed against both sets
    x = DegreeSet(range(0, 2 * n, 2), odd)
    assert x.equals(DegreeSet(range(0, 2 * n, 2), [(1, 4), (3, 4)]))
    assert not x.equals(DegreeSet(range(2, 2 * n, 2), odd))
    both = x.intersect(threes)
    assert time.perf_counter() - start < 1.0
    lo, hi = -1, 3 * n
    assert both.window(lo, hi) == sorted(set(x.window(lo, hi)) & set(threes.window(lo, hi)))


def test_progression_cap():
    cap = degsets.PROGRESSION_CAP
    # distinct primes: no progression holds another, so all of them stay
    moduli = [m for m in range(2, 9000) if all(m % d for d in range(2, math.isqrt(m) + 1))]
    start = time.perf_counter()
    at_cap = DegreeSet([0, 1], [(1, m) for m in moduli[:cap]])
    assert len(at_cap.progressions) == cap
    with pytest.raises(ResourceCapError) as exc:
        DegreeSet.from_json({"finite": [0], "progressions": [
            {"base": 1, "mod": m} for m in moduli[:cap + 1]]})
    assert exc.value.cap_name == "progressions"
    assert str(exc.value) == \
        f"a degree set would hold {cap + 1} progressions, beyond the cap of {cap}"
    assert time.perf_counter() - start < 2.0


def test_cover_tests_go_by_distinct_modulus_and_are_capped():
    cap = degsets.COVER_TEST_CAP
    n = 1 << 16
    # 1024 progressions of one modulus: the intersection tested each member
    # against every progression, 2^26 tests
    odd = DegreeSet(range(0, 2 * n, 2), [(b, 2048) for b in range(1, 2048, 2)])
    start = time.perf_counter()
    both = odd.intersect(DegreeSet(range(n)))
    assert time.perf_counter() - start < 1.0
    assert both == DegreeSet(range(n))
    assert odd.equals(DegreeSet(range(0, 2 * n, 2), [(1, 2)]))
    # moduli within a factor of 2 of each other and past every member: no
    # progression holds another, and none holds a member
    moduli = range(1 << 17, (1 << 17) + degsets.PROGRESSION_CAP)
    members = cap // len(moduli)
    wide = [(0, m) for m in moduli]
    assert len(DegreeSet(range(1, members + 1), wide).finite) == members
    many = DegreeSet(range(1, members + 2))
    for build in (lambda: DegreeSet(many.finite, wide),
                  lambda: many.intersect(DegreeSet([], wide)),
                  lambda: DegreeSet([], wide).intersect(many)):
        with pytest.raises(ResourceCapError) as exc:
            build()
        assert exc.value.cap_name == "cover_tests"
        assert str(exc.value) == (
            f"testing {members + 1} finite members against {len(moduli)} progression "
            f"moduli would take {(members + 1) * len(moduli)} tests, beyond the cap of {cap}")


def _contains(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Whether progression ``q`` holds every member of ``p``."""
    return p[1] % q[1] == 0 and (p[0] - q[0]) % q[1] == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-40, 40), max_size=6),
    st.lists(st.tuples(st.integers(-30, 30),
                       st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36])),
             min_size=1, max_size=8),
    st.booleans(),
)
def test_canonical_form_matches_brute_force(finite, progressions, excludes_zero):
    s = DegreeSet(finite, progressions, excludes_zero)
    # members: a window past the finite part and a full period of every modulus
    reach = 40 + math.lcm(*(m for _, m in progressions))

    def member(x: int) -> bool:
        if x in finite:
            return True
        if x == 0 and excludes_zero:
            return False
        return any((x - b) % m == 0 for b, m in progressions)
    assert s.window(-reach, reach) == [x for x in range(-reach, reach + 1) if member(x)]
    # form: exactly the progressions no other one given contains, in
    # (mod, base) order, and the finite members none of them covers
    reduced = {(b % m, m) for b, m in progressions}
    kept = [p for p in reduced if not any(q != p and _contains(p, q) for q in reduced)]
    assert s.progressions == tuple(sorted(kept, key=lambda p: (p[1], p[0])))
    covered = {x for x in finite if any((x - b) % m == 0 for b, m in kept)}
    assert s.finite == tuple(sorted(set(finite) - covered))


def test_nested_progression_filter_is_subquadratic():
    # 1024 progressions of one modulus were ~10^6 pair tests, each a line
    # event of the containment test; the filter takes ~14,000 events
    with line_events(degsets, 50_000):
        s = DegreeSet([0], [(b, 1024) for b in range(1024)])
    assert len(s.progressions) == 1024 and s.finite == ()


def test_intersect_checks_the_progression_count_before_any_crt(monkeypatch):
    # odd moduli within a factor of 2 of each other: none holds another
    side = math.isqrt(degsets.PROGRESSION_CAP)
    many = DegreeSet([], [(1, 2 * m + 1) for m in range(side + 1, 2 * side + 2)])
    few = DegreeSet([0], [(0, 2 * m + 1) for m in range(2 * side + 2, 3 * side + 2)])
    assert len(many.progressions) * len(few.progressions) > degsets.PROGRESSION_CAP

    def no_crt(*args):
        raise AssertionError("CRT ran before the cap check")
    monkeypatch.setattr(degsets, "_crt", no_crt)
    for left, right in ((many, few), (few, many)):
        with pytest.raises(ResourceCapError) as exc:
            left.intersect(right)
        assert exc.value.cap_name == "progressions"
        assert str(exc.value) == (f"intersecting would build {side * (side + 1)} "
                                  f"progressions, beyond the cap of {degsets.PROGRESSION_CAP}")
    monkeypatch.undo()
    # at the cap itself the intersection is built
    square = DegreeSet([], [(1, 2 * m + 1) for m in range(side + 1, 2 * side + 1)])
    both = square.intersect(few)
    assert both.window(-50, 50) == sorted(set(square.window(-50, 50)) & set(few.window(-50, 50)))


def test_json_round_trip_compact():
    s = DegreeSet([0], [(0, 5)], False)
    js = s.to_json()
    assert DegreeSet.from_json(js) == s
    plain = DegreeSet([0])
    assert plain.to_json() == {"finite": [0]}


# ---------------------------------------------------------------------------
# subsequence sums


def test_subsequence_sums_frozen_values():
    assert subsequence_sums(SequenceB(())).finite == (0,)
    assert subsequence_sums(SequenceB((1, 2))).finite == (0, 1, 2, 3)
    assert subsequence_sums(SequenceB((7,))).finite == (0, 7)
    assert subsequence_sums(SequenceB((1, 3))).finite == (0, 1, 3, 4)
    assert subsequence_sums(SequenceB((-2, 5))).finite == (-2, 0, 3, 5)


def test_sequence_rejects_zero():
    with pytest.raises(InputError):
        SequenceB((1, 0, 2))


def test_sums_length_cap():
    long = SequenceB(tuple([1] * 41))
    with pytest.raises(ResourceCapError) as err:
        subsequence_sums(long)
    assert err.value.cap_name == "max_len"


def test_sums_size_cap(monkeypatch):
    monkeypatch.setattr(degsets, "SUM_SIZE_CAP", 64)
    doubling = tuple(1 << i for i in range(8))
    assert len(subsequence_sums(SequenceB(doubling[:6])).finite) == 64
    with pytest.raises(ResourceCapError) as err:
        subsequence_sums(SequenceB(doubling))
    assert err.value.cap_name == "sum_size"
    assert err.value.cap_value == 64
    # the step that crosses the cap stops at the first sum past it
    assert str(err.value) == ("subsequence sums reached 65 values after 7 of 8 "
                              "entries, beyond the cap of 64")
    # the seed sequence of a decomposition holds every nonzero target
    with pytest.raises(ResourceCapError) as err:
        decompose({0, *doubling})
    assert err.value.cap_name == "sum_size"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), max_size=10))
def test_sums_match_enumeration(entries):
    got = subsequence_sums(SequenceB(tuple(entries)))
    assert set(got.finite) == enumerate_sums(entries)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4).filter(bool), max_size=10), max_size=3))
def test_enumerated_sums_match_every_combination(sequences):
    # small magnitudes, so that entries repeat and sums collide
    got = list(degsets.enumerated_sums([SequenceB(tuple(s)) for s in sequences]))
    assert got == [{sum(c) for r in range(len(s) + 1) for c in itertools.combinations(s, r)}
                   for s in sequences]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(-8, 8), min_size=1, max_size=6))
def test_elements_are_single_subsequence_sums(vals):
    vals = set(vals) | {0}
    seq = SequenceB(tuple(sorted(x for x in vals if x != 0)))
    sums = set(subsequence_sums(seq).finite)
    assert vals <= sums


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_frozen_examples():
    cert = decompose({0, 1, 3})
    assert [s.entries for s in cert.sequences] == [(1, 3), (1, 2)]
    assert cert.target == (0, 1, 3)
    assert cert.transcript[0].sums == (0, 1, 3, 4)
    assert cert.transcript[-1].intersection == (0, 1, 3)

    for k in (5, -4, 1):
        single = decompose({0, k})
        assert [s.entries for s in single.sequences] == [(k,)]

    zero = decompose({0})
    assert [s.entries for s in zero.sequences] == [(2,), (3,)]


def test_decompose_preconditions():
    with pytest.raises(InputError):
        decompose({1, 2})
    with pytest.raises(InputError):
        decompose(set())


def test_decompose_deterministic():
    a = {0, -2, 5}
    c1, c2 = decompose(a), decompose(a)
    assert c1 == c2
    assert c1.to_json() == c2.to_json()


def test_decompose_sound_on_random_sets():
    rng = random.Random(515)
    for _ in range(40):
        vals = {0} | {rng.randint(-5, 5) for _ in range(rng.randint(0, 6))}
        cert = decompose(vals)
        inter = None
        for s in cert.sequences:
            sums = enumerate_sums(s.entries)
            inter = sums if inter is None else inter & sums
        assert inter == vals
        assert verify_decomposition(cert)


def test_decompose_budget_cap():
    with pytest.raises(ResourceCapError) as err:
        decompose({0, 1, 3}, SearchLimits(budget=1))
    assert err.value.cap_name == "budget"


def test_budget_cap_message_shows_progress():
    # the seed (1, 2, 4) leaves 3, 5, 6, 7 to exclude; the sequence found
    # for 3, (1, 1, 4), also excludes 7, and the budget runs out on 5
    with pytest.raises(ResourceCapError) as err:
        decompose({0, 1, 2, 4}, SearchLimits(budget=1000))
    assert err.value.cap_name == "budget"
    assert err.value.cap_value == 1000
    assert str(err.value) == (
        "decomposition search budget exhausted while excluding 5 "
        "(2 of 4 extraneous values excluded, budget 1000)")


def test_huge_max_entry_is_bounded_by_the_budget():
    for limits, outcome in (
        (SearchLimits(max_entry=10**9, budget=1000), "budget"),
        (SearchLimits(max_entry=10**5, budget=10**6), [(1, 3), (1, 2)]),
    ):
        tracemalloc.start()
        try:
            try:
                got = [s.entries for s in decompose({0, 1, 3}, limits).sequences]
            except ResourceCapError as exc:
                got = exc.cap_name
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == outcome
        assert peak < 1 << 20  # nothing of size max_entry


@pytest.mark.parametrize("target, limits, message", [
    ({0, degsets.TARGET_MAGNITUDE_CAP + 1}, SearchLimits(),
     f"target member of magnitude {2**51 + 1} exceeds the cap of {2**51}"),
    ({0, 1, 3}, SearchLimits(max_len=41),
     "search caps {'maxLen': 41, 'maxEntry': 12, 'budget': 10000000} exceed the "
     f"maxima maxLen 40, maxEntry {2**53}, budget 100000000"),
    ({0, 1, 3}, SearchLimits(max_entry=degsets.MAX_ENTRY_CAP + 1), "search caps "),
    ({0, 1, 3}, SearchLimits(budget=degsets.BUDGET_CAP + 1), "search caps "),
])
def test_decompose_refuses_caps_the_schema_refuses(target, limits, message):
    # a certificate records its resolved caps, so none may pass the schema's
    # maxima; the refusal comes before any search
    with pytest.raises(InputError) as err:
        decompose(target, limits)
    assert str(err.value).startswith(message)


def test_search_span_cap_comes_before_any_mask(monkeypatch):
    # one past the cap is refused before the walk, and with it any mask, is
    # built; at the cap the search runs, and a wide target that needs no
    # search is not refused at all
    built = []
    exclusion_search = degsets._exclusion_search

    def spy(target, values, limits):
        built.append(max(target) - min(target))
        return exclusion_search(target, values, limits)

    monkeypatch.setattr(degsets, "_exclusion_search", spy)
    cap = degsets.SEARCH_SPAN_CAP
    with pytest.raises(ResourceCapError) as exc:
        decompose({0, 1, cap + 1})
    assert exc.value.cap_name == "search_span"
    assert built == []
    assert [s.entries for s in decompose({0, 1, cap}, SearchLimits(max_entry=cap)).sequences] \
        == [(1, cap), (1, cap - 1)]
    assert built == [cap]
    wide = degsets.TARGET_MAGNITUDE_CAP
    assert [s.entries for s in decompose({-wide, 0, wide}).sequences] == [(-wide, wide)]
    assert built == [cap]


def test_find_charges_what_it_walked_and_raises_nothing():
    # the walk only walks: a find with no budget left still walks its first
    # group and reports the leaves, and the caller decides the cap
    target = frozenset({0, 1, 3})
    find = degsets._exclusion_search(target, [2, 4], SearchLimits().resolve(target))
    charged, entries = find(2, 0)
    assert charged > 0 and entries is None
    assert find(4, 10 ** 6) == (27, (1, 2))


def test_default_caps_stay_within_the_schema_at_the_edges():
    edge = degsets.TARGET_MAGNITUDE_CAP
    assert SearchLimits().resolve(frozenset({0, -edge})).max_entry == degsets.MAX_ENTRY_CAP
    assert SearchLimits().resolve(frozenset(range(100))).max_len == degsets.SUM_LENGTH_CAP
    assert SearchLimits().resolve(frozenset(range(36))).max_len == 40
    assert SearchLimits().resolve(frozenset(range(35))).max_len == 39


def test_decompose_checks_its_result_without_assert(monkeypatch):
    # a search that returns a sequence excluding nothing must not yield a
    # certificate, also under ``python -O``
    asked = []

    def exclusion_search(target, values, limits):
        def find(bad, left):
            asked.append(bad)
            return 0, (1, 1, 1, 1)
        return find

    monkeypatch.setattr(degsets, "_exclusion_search", exclusion_search)
    with pytest.raises(RuntimeError, match="is not the target"):
        decompose({0, 1, 3})
    assert asked == [4]


def test_verify_decomposition_rejects_tampering():
    cert = decompose({0, 1, 3})
    assert verify_decomposition(cert)
    # dropping the excluding sequence lets the intersection grow
    dropped = DecompositionCertificate(
        cert.target, cert.sequences[:1], cert.hull_bound, cert.caps, cert.transcript[:1]
    )
    assert not verify_decomposition(dropped)
    # and a wrong target is caught
    wrong = DecompositionCertificate(
        (0, 1), cert.sequences, cert.hull_bound, cert.caps, cert.transcript
    )
    assert not verify_decomposition(wrong)


def test_verify_decomposition_length_cap():
    cert = DecompositionCertificate(
        (0,), (SequenceB(tuple([1] * 21)),), 4, SearchLimits(), ()
    )
    with pytest.raises(ResourceCapError):
        verify_decomposition(cert)


def test_verify_decomposition_enumeration_cap():
    # 16 sequences at the length cap enumerate 2^24 subsets; one more
    # sequence passes the cap, which is checked before enumerating any:
    # the check takes ~100 line events, enumerating one sequence's 2^20
    # subsets some 3 million
    long = SequenceB(tuple(range(1, degsets.VERIFY_LENGTH_CAP + 1)))
    cert = DecompositionCertificate(
        (0,), (long,) * 16 + (SequenceB((1,)),), 4, SearchLimits(), ())
    with pytest.raises(ResourceCapError) as err, line_events(degsets, 1_000):
        verify_decomposition(cert)
    assert err.value.cap_name == "enumeration"
    assert err.value.cap_value == degsets.ENUMERATION_CAP == 1 << 24
    assert str(err.value) == ("verification cap: the sequences have 16777218 "
                              "subsets in all, beyond the cap of 16777216")
    # a sequence over the length cap is named first, wherever it stands
    cert = DecompositionCertificate(
        (0,), (long,) * 17 + (SequenceB((1,) * 21),), 4, SearchLimits(), ())
    with pytest.raises(ResourceCapError) as err:
        verify_decomposition(cert)
    assert err.value.cap_name == "max_len"


def test_certificate_json_round_trip():
    cert = decompose({0, 1, 3})
    js = cert.to_json()
    assert js["kind"] == "decomposition-certificate"
    back = DecompositionCertificate.from_json(js)
    assert back == cert


def test_degsets_is_a_leaf_module():
    # the package's __init__ imports every layer, so the child stands in an
    # empty package for it and imports degsets alone
    script = ("import sys, types\n"
              "pkg = types.ModuleType('circledeg')\n"
              f"pkg.__path__ = [{str(Path(degsets.__file__).parent)!r}]\n"
              "sys.modules['circledeg'] = pkg\n"
              "import circledeg.degsets\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('circledeg.'))\n"
              "assert 'circledeg.abelian' not in loaded, loaded\n"
              "assert 'circledeg.bundles' not in loaded, loaded\n"
              "print(loaded)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['circledeg._frozen', 'circledeg.degsets', 'circledeg.errors']\n"
