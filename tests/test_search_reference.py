"""Differential tests: the decomposition search against a leaf-rebuild reference.

``reference_search_excluding`` is the straightforward search that
``degsets._search_excluding`` replaced: it enumerates the same sequences
in the same order, but rebuilds S_B from scratch at every leaf, charges
the budget one leaf at a time and starts afresh for every excluded value.
Plugged into ``decompose`` in place of the one walk per call
(``degsets._exclusion_search``), one search per value, it must give
byte-identical certificates and identical cap errors; called directly,
the same sequence and the same budget left.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circledeg import degsets
from circledeg.degsets import SearchLimits, SequenceB, decompose
from circledeg.errors import ResourceCapError


def _sums_of(entries) -> frozenset[int]:
    sums = {0}
    for e in entries:
        sums |= {s + e for s in sums}
    return frozenset(sums)


def _symbol(index: int) -> int:
    mag = index // 2 + 1
    return mag if index % 2 == 0 else -mag


def reference_search_excluding(target, bad, limits, budget):
    need_hi = max(target)
    need_lo = min(target)
    symbols = [_symbol(i) for i in range(2 * limits.max_entry)]
    top = limits.max_entry

    def rec(start, slots, pos, neg, picked):
        if slots == 0:
            budget.spend()
            if pos < need_hi or neg > need_lo:
                return None
            sums = _sums_of(picked)
            if bad in sums or not target <= sums:
                return None
            return SequenceB(tuple(picked))
        if pos + slots * top < need_hi or neg - slots * top > need_lo:
            return None
        for idx in range(start, len(symbols)):
            val = symbols[idx]
            picked.append(val)
            hit = rec(idx, slots - 1,
                      pos + val if val > 0 else pos,
                      neg + val if val < 0 else neg,
                      picked)
            if hit is not None:
                return hit
            picked.pop()
        return None

    for length in range(1, limits.max_len + 1):
        hit = rec(0, length, 0, 0, [])
        if hit is not None:
            return hit
    return None


def outcome(target, limits=None):
    """Certificate JSON text, or the cap error's name, value and message."""
    try:
        return json.dumps(decompose(target, limits).to_json(), sort_keys=True)
    except ResourceCapError as exc:
        return ("cap", exc.cap_name, exc.cap_value, str(exc))


def reference_seam(searched_values):
    """A stand-in for ``degsets._exclusion_search`` that runs one
    ``reference_search_excluding`` per value asked, appending the value to
    ``searched_values``."""
    def exclusion_search(target, values, limits):
        def find(bad, budget):
            searched_values.append(bad)
            return reference_search_excluding(target, bad, limits, budget)
        return find
    return exclusion_search


def both_outcomes(target, limits=None):
    """``outcome`` through the one walk and through the reference.  The
    reference must have searched once per sequence past the seed, or at
    least once before a cap, so a bypassed seam cannot compare the walk
    with itself."""
    fast = outcome(target, limits)
    searched_values = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(degsets, "_exclusion_search", reference_seam(searched_values))
        slow = outcome(target, limits)
    if slow[0] == "cap":
        assert searched_values
    else:
        cert = json.loads(slow)
        seeds = 2 if cert["target"] == [0] else 1
        assert len(searched_values) == len(cert["sequences"]) - seeds
    return fast, slow


def family_targets():
    universe = [x for x in range(-4, 5) if x]
    return [{0} | {universe[i] for i in range(8) if mask >> i & 1}
            for mask in range(256)]


def hull_draws():
    """{0, +-hull} plus further nonzero members of (-hull, hull), fixed seed."""
    rng = random.Random(2505)
    draws = []
    for hull, sizes in ((6, (1, 2, 3)), (10, (1, 2))):
        pool = [x for x in range(1 - hull, hull) if x]
        for size in sizes:
            for _ in range(6):
                draws.append({0, rng.choice((hull, -hull))}
                             | set(rng.sample(pool, size - 1)))
    return draws


def test_certificates_match_reference():
    targets = family_targets() + hull_draws()
    assert len(targets) == 256 + 30
    for target in targets:
        fast, slow = both_outcomes(target)
        assert fast == slow, sorted(target)
        assert fast[0] != "cap", sorted(target)


@pytest.mark.parametrize("target, limits, capped", [
    ({0, 1, 3}, SearchLimits(max_len=1), True),
    ({0, -3, 4}, SearchLimits(max_len=2, max_entry=2), True),
    ({0, 2, 5}, SearchLimits(max_entry=1), False),
    ({0, 1, 9}, SearchLimits(max_entry=2), False),
    ({0, 1, 2, 4, 8, 16}, SearchLimits(budget=20000), True),
    ({-15, -7, -3, -1, 0}, SearchLimits(max_entry=200, budget=20000), True),
])
def test_limited_searches_match_reference(target, limits, capped):
    fast, slow = both_outcomes(target, limits)
    assert fast == slow
    assert (fast[0] == "cap") == capped


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(-9, 9), max_size=5),
       st.sampled_from([None, 1, 2, 3, 4]),
       st.sampled_from([None, 1, 2, 3, 5, 8]),
       st.sampled_from([10, 100, 1000, 5000]))
def test_random_limits_match_reference(target, max_len, max_entry, budget):
    fast, slow = both_outcomes(target | {0}, SearchLimits(max_len, max_entry, budget))
    assert fast == slow


def searched(search, target, bad, limits):
    """The sequence found and the budget left, or the cap error."""
    budget = degsets._Budget(limits.budget)
    try:
        return search(target, bad, limits, budget), budget.left
    except ResourceCapError as exc:
        return ("cap", exc.cap_name, exc.cap_value, str(exc))


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-7, 7).filter(bool), min_size=1, max_size=4),
       st.integers(-8, 8).filter(bool),
       st.sampled_from([None, 1, 2, 3, 4]),
       st.sampled_from([None, 1, 2, 3, 5, 9]),
       st.sampled_from([10, 100, 1000, 5000]))
@example({-4, 2, 4}, 1, None, None, 1000)
@example({-5, 2, 5}, 1, None, None, 5000)
def test_search_matches_reference_directly(nonzero, beyond, max_len, max_entry, budget):
    """Mostly pairs (target, bad) that ``decompose`` never asks for: ``bad``
    lies ``beyond`` the target hull, above it when positive, below it when
    negative."""
    target = frozenset(nonzero | {0})
    bad = max(target) + beyond if beyond > 0 else min(target) + beyond
    limits = SearchLimits(max_len, max_entry, budget).resolve(target)
    fast = searched(degsets._search_excluding, target, bad, limits)
    assert fast == searched(reference_search_excluding, target, bad, limits)


@pytest.mark.parametrize("target, smallest", [
    ({0, 1, 3}, 27),
    ({0, 1, 2, 4}, 1130),
    # values resolve out of order: alone, 5 hits at leaf 629, -1 at 631,
    # -2 at 633 and 1 at 1180, and decompose asks for -2 first
    ({-4, 0, 2, 3}, 633 + 1180),
])
def test_budget_sweep_matches_reference(target, smallest):
    """Every budget below the smallest that succeeds ends in the same cap
    error (same excluded value and progress), so the leaf charges agree
    one by one, the bulk ones included, wherever the walk pauses."""
    for budget in range(smallest + 2):
        fast, slow = both_outcomes(target, SearchLimits(budget=budget))
        assert fast == slow, budget
        assert (fast[0] == "cap") == (budget < smallest), budget


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(-7, 7).filter(bool), min_size=1, max_size=4),
       st.lists(st.integers(-12, 12), min_size=2, max_size=6, unique=True),
       st.sampled_from([None, 1, 2, 3, 4]),
       st.sampled_from([None, 1, 2, 3, 5, 9]),
       st.lists(st.sampled_from([0, 10, 100, 1000, 5000]), min_size=6, max_size=6))
@example({2, 3, -4}, [-2, -1, 1, 5], None, None, [5000] * 6)
@example({2, 3, -4}, [5, 1, -1, -2], None, None, [700, 630, 1000, 5000, 0, 0])
def test_one_walk_matches_reference_per_value(nonzero, asks, max_len, max_entry, budgets):
    """One walk asked for several values, in any order and with a fresh
    budget each time, answers each as a search for that value alone: same
    sequence and budget left, or the same cap error."""
    target = frozenset(nonzero | {0})
    values = [v for v in asks if v not in target]
    limits = SearchLimits(max_len, max_entry).resolve(target)
    find = degsets._exclusion_search(target, values, limits)
    for bad, total in zip(values, budgets):
        capped = limits._replace(budget=total)
        fast = searched(lambda t, v, lim, budget: find(v, budget), target, bad, capped)
        assert fast == searched(reference_search_excluding, target, bad, capped), bad
