"""Differential tests: the decomposition search against a leaf-rebuild reference.

``reference_search_excluding`` is the straightforward search that the
one walk per call (``degsets._exclusion_search``) replaced: it enumerates
the same sequences in the same order, but rebuilds S_B from scratch at
every leaf, counts the leaves one at a time and starts afresh for every
excluded value.  Plugged into ``decompose`` in place of the walk, one
search per value, it must give byte-identical certificates and identical
cap errors; called directly, the same sequence and the same budget left
as the walk asked for that value alone, or both must pass the budget.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from work_count import line_events

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


class Overdrawn(Exception):
    """The reference search counted one leaf past the budget left."""


def reference_search_excluding(target, bad, limits, left):
    """``find(bad, left)`` of the walk, as the walk answers it: the leaves
    charged through the hit and its entries, or the leaves counted and
    None once the count passes ``left`` (one leaf past it) or the search
    runs out."""
    need_hi = max(target)
    need_lo = min(target)
    symbols = [_symbol(i) for i in range(2 * limits.max_entry)]
    top = limits.max_entry
    leaves = 0

    def rec(start, slots, pos, neg, picked):
        nonlocal leaves
        if slots == 0:
            leaves += 1
            if leaves > left:
                raise Overdrawn
            if pos < need_hi or neg > need_lo:
                return None
            sums = _sums_of(picked)
            if bad in sums or not target <= sums:
                return None
            return tuple(picked)
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

    try:
        for length in range(1, limits.max_len + 1):
            hit = rec(0, length, 0, 0, [])
            if hit is not None:
                return leaves, hit
    except Overdrawn:
        pass
    return leaves, None


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
        def find(bad, left):
            searched_values.append(bad)
            return reference_search_excluding(target, bad, limits, left)
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


def search_alone(target, bad, limits, left):
    """The one walk with ``bad`` as its only pending value."""
    return degsets._exclusion_search(target, (bad,), limits)(bad, left)


def walk_answer(find, bad, total):
    """``find(bad, total)``: the sequence found (None when there is none)
    and the budget left, or the budget cap and the leaves charged."""
    charged, entries = find(bad, total)
    if charged > total:
        return ("cap", "budget"), charged
    return (None if entries is None else SequenceB(entries)), total - charged


def searched(search, target, bad, limits):
    """The sequence found and the budget left, or the budget cap alone:
    past the budget, the reference stops one leaf on and the walk at the
    end of a group."""
    got, left = walk_answer(lambda v, total: search(target, v, limits, total),
                            bad, limits.budget)
    return got if isinstance(got, tuple) else (got, left)


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
    fast = searched(search_alone, target, bad, limits)
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
    sequence and budget left, or both pass the budget."""
    target = frozenset(nonzero | {0})
    values = [v for v in asks if v not in target]
    limits = SearchLimits(max_len, max_entry).resolve(target)
    find = degsets._exclusion_search(target, values, limits)
    for bad, total in zip(values, budgets):
        capped = limits._replace(budget=total)
        fast = searched(lambda t, v, lim, left: find(v, left), target, bad, capped)
        assert fast == searched(reference_search_excluding, target, bad, capped), bad


# ---------------------------------------------------------------------------
# the last two slots: groups rejected without testing a last entry


def leaf_groups(target, limits, upto):
    """The leaf groups of the walk in order, until the leaves charged pass
    ``upto``, each as (end, rejected): ``end`` counts the leaves charged
    from the start of the walk through the group, and ``rejected`` says
    that no last entry of any magnitude or sign would complete the target
    below the group's prefix, so the walk charges the group without
    testing a value.  Length-1 groups, with an empty prefix, are never
    rejected."""
    need_hi, need_lo, top = max(target), min(target), limits.max_entry
    end = 2 * top
    groups = []

    def rec(start, slots, pos, neg, prefix):
        if pos + slots * top < need_hi or neg - slots * top > need_lo:
            return
        if slots == 1:
            sums = _sums_of(prefix)
            missing = target - sums
            lowest = min(missing, default=0)
            completes = any(all(t + s - lowest in sums for t in missing) for s in sums)
            groups.append(((groups[-1][0] if groups else 0) + end - start,
                           bool(prefix) and not completes))
            return
        for idx in range(start, end):
            if groups and groups[-1][0] > upto:
                return
            e = _symbol(idx)
            rec(idx, slots - 1, pos + max(e, 0), neg + min(e, 0), prefix + [e])

    for length in range(1, limits.max_len + 1):
        rec(0, length, 0, 0, [])
    return [g for i, g in enumerate(groups) if i == 0 or groups[i - 1][0] <= upto]


def paused_at(groups, budget):
    """Leaves charged when a walk without a hit pauses on ``budget``: the
    end of the first group that passes it."""
    return next(end for end, _ in groups if end > budget)


def spread(values, count):
    """Up to ``count`` of ``values``, evenly spaced, first and last included."""
    if len(values) <= count:
        return list(values)
    return [values[i * (len(values) - 1) // (count - 1)] for i in range(count)]


@pytest.mark.parametrize("target, bad", [
    ({0, 1, 2, 4}, 5),
    ({-4, 0, 2, 3}, 1),
    ({-4, 0, 2, 3}, -2),
    ({0, 1, 2, 4, 8}, 3),
])
def test_budgets_at_rejected_group_ends_match_reference(target, bad):
    """Budgets one before, at and one after the end of groups charged
    without a test: any answer equals the reference's, and a search that
    runs out pauses at the end of the first group past its budget, or at
    its hit when that group holds it."""
    target = frozenset(target)
    limits = SearchLimits().resolve(target)
    hit = searched(reference_search_excluding, target, bad, limits)
    assert isinstance(hit[0], SequenceB)
    at = limits.budget - hit[1]
    groups = leaf_groups(target, limits, at)
    ends = [end for end, rejected in groups if rejected and end < at]
    assert len(ends) >= 3
    for end in spread(ends, 12):
        for total in (end - 1, end, end + 1):
            capped = limits._replace(budget=total)
            fast = searched(search_alone, target, bad, capped)
            assert fast == searched(reference_search_excluding, target, bad, capped)
            if total < at:
                find = degsets._exclusion_search(target, (bad,), limits)
                assert walk_answer(find, bad, total)[1] == \
                    min(at, paused_at(groups, total))


@pytest.mark.parametrize("target, first, second", [
    ({0, 1, 2, 4}, 5, 3),
    ({-4, 0, 2, 3}, 1, -2),
    ({0, 1, 2, 4, 8}, 3, 5),
])
def test_resume_after_a_rejected_cursor_group_matches_reference(target, first, second):
    """A walk that pauses right after a group charged without a test
    (budget one short of its end) resumes past that group without charging
    it again: the later answers equal the reference's for each value
    alone."""
    target = frozenset(target)
    limits = SearchLimits().resolve(target)
    ats = []
    for bad in (first, second):
        seq, left = searched(reference_search_excluding, target, bad, limits)
        ats.append(limits.budget - left)
    groups = leaf_groups(target, limits, min(ats))
    ends = [end for end, rejected in groups if rejected and end < min(ats)]
    for end in spread(ends, 6):
        find = degsets._exclusion_search(target, (first, second), limits)
        assert walk_answer(find, first, end - 1)[1] == end
        for bad in (second, first):
            assert walk_answer(find, bad, limits.budget) == \
                searched(reference_search_excluding, target, bad, limits), (end, bad)


@pytest.mark.parametrize("target", [{0, 1}, {0, -1}, {0, 3}, {0, -5}, {0, 7}])
def test_length_one_walks_match_reference(target):
    """A target {0, t}: its one length-1 group completes it (entry t) and
    holds the hit of every value.  Every budget through that group and
    into the first length-2 groups, for a value asked alone and for one
    asked after another value's search ran out inside the group."""
    target = frozenset(target)
    (t,) = target - {0}
    limits = SearchLimits(max_entry=2 * abs(t) + 2).resolve(target)
    groups = leaf_groups(target, limits, 4 * limits.max_entry)
    for bad, other in ((2 * t, -t), (-t, t + 1), (t + 1 if t > 0 else t - 1, 2 * t)):
        for total in range(groups[1][0] + 2):
            capped = limits._replace(budget=total)
            fast = searched(search_alone, target, bad, capped)
            assert fast == searched(reference_search_excluding, target, bad, capped)
            find = degsets._exclusion_search(target, (other, bad), limits)
            for value, budget in ((other, total), (bad, limits.budget)):
                capped = limits._replace(budget=budget)
                walked = searched(lambda t, v, lim, left: find(v, left), target, value, capped)
                assert walked == searched(reference_search_excluding, target, value, capped)


HARD_TARGETS = [{0, 1, 2, 4, 8, 16}, {-16, -8, -4, -2, -1, 0},
                {0, 1, 3, 7, 15}, {-15, -7, -3, -1, 0}]


@pytest.mark.parametrize("target", HARD_TARGETS)
def test_hard_targets_near_300000_match_reference(target):
    """The targets whose search runs out of a budget of 300000: the same
    cap error as the reference's, and the walk pauses at the end of the
    first group past the budget, also at the ends of groups charged
    without a test on either side of 300000."""
    fast, slow = both_outcomes(target, SearchLimits(budget=300000))
    assert fast == slow
    assert fast[0] == "cap"
    bad = int(fast[3].split("while excluding ")[1].split()[0])
    target = frozenset(target)
    limits = SearchLimits().resolve(target)
    groups = leaf_groups(target, limits, 300100)
    ends = [end for end, rejected in groups if rejected]
    near = [e for e in ends if e <= 300000][-2:] + [e for e in ends if e > 300000][:2]
    assert len(near) == 4
    for total in {299999, 300000, 300001} | {e + d for e in near for d in (-1, 0, 1)}:
        find = degsets._exclusion_search(target, (bad,), limits)
        got, walked = walk_answer(find, bad, total)
        assert got[0] == "cap", total
        assert walked == paused_at(groups, total), total


def test_hard_targets_reject_their_groups_in_bulk():
    """Decomposing the four hard targets at budget 300000 takes ~46,000
    line events in degsets, where testing their leaf groups one at a time
    took ~627,000."""
    with line_events(degsets, 100_000):
        for target in HARD_TARGETS:
            with pytest.raises(ResourceCapError):
                decompose(target, SearchLimits(budget=300000))


def test_family_and_hull_draws_stay_within_their_work():
    """Decomposing the criterion-6 family and the hull draws at default
    limits takes ~565,000 line events in degsets."""
    with line_events(degsets, 600_000):
        for target in family_targets() + hull_draws():
            decompose(target)


# ---------------------------------------------------------------------------
# the candidate mask: groups charged in bulk, without a test


def masks(prefix):
    """The sums mask, difference mask, pos and neg of ``prefix``, encoded
    as the walk encodes them."""
    sums = _sums_of(prefix)
    pos = sum(e for e in prefix if e > 0)
    neg = sum(e for e in prefix if e < 0)
    diffs = {x - y for x in sums for y in sums}
    return (sum(1 << (x - neg) for x in sums),
            sum(1 << (d + pos - neg) for d in diffs), pos, neg)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-6, 6).filter(bool), max_size=4),
       st.sets(st.integers(-9, 9).filter(bool), max_size=5))
@example([], {1, 3})
@example([2], {-3, 2, 5})
def test_group_candidates_keep_every_group_that_fits(prefix, nonzero):
    """Every penultimate entry v whose group holds a last entry that
    completes the target (``fits`` nonzero) is in the mask, which spans at
    most twice the prefix's span plus the target's; no mask means fewer
    than two targets outside the prefix's sums or no pair constraining v."""
    target = sorted(nonzero | {0})
    sums = _sums_of(prefix)
    smask, dmask, pos, neg = masks(prefix)
    for t in target:  # a subset-sum set is a palindrome
        assert {t - x for x in sums} == {x + t - pos - neg for x in sums}
    found = degsets._group_candidates(smask, dmask, pos, neg, target)
    outside = [t for t in target if t not in sums]
    diffs = {x - y for x in sums for y in sums}
    reach = pos - neg + target[-1] - target[0]
    if found is None:
        assert len(outside) < 2 or all(b - outside[0] in diffs for b in outside)
    else:
        assert found[0].bit_length() <= 2 * reach + 1
    for v in range(-2 * reach - 2, 2 * reach + 3):
        s = sums | {x + v for x in sums}
        missing = [t for t in target if t not in s]
        fits = not missing or any(all(t + u in s for t in missing)
                                  for u in {x - missing[0] for x in s})
        if v and fits and found is not None:
            mask, base = found
            assert v + base >= 0 and mask >> (v + base) & 1, v


def walk_groups(target, bad, limits, upto):
    """The leaf groups of a search for ``bad`` alone in order, until the
    leaves charged pass ``upto``, each as [end, kind, run]: ``end`` as in
    ``leaf_groups``; ``kind`` "doomed" below a prefix whose sums hold
    ``bad``, "masked" outside its prefix's candidate mask, "unfiltered"
    below a prefix with no mask and "tested" otherwise, length-1 groups
    included; ``run`` numbers the runs of consecutive doomed or masked
    groups below one prefix, which the walk charges in bulk."""
    need_hi, need_lo, top = max(target), min(target), limits.max_entry
    end = 2 * top
    ordered = sorted(target)
    groups = []
    runs = [0]

    def rec(start, slots, pos, neg, prefix):
        if pos + slots * top < need_hi or neg - slots * top > need_lo:
            return
        if slots == 1:
            groups.append([(groups[-1][0] if groups else 0) + end - start, "tested", None])
            return
        if slots == 2:
            doomed = bad in _sums_of(prefix)
            found = None if doomed else degsets._group_candidates(*masks(prefix), ordered)
            run = None
        for idx in range(start, end):
            if groups and groups[-1][0] > upto:
                return
            e = _symbol(idx)
            count = len(groups)
            rec(idx, slots - 1, pos + max(e, 0), neg + min(e, 0), prefix + [e])
            if slots != 2 or len(groups) == count:
                continue
            if doomed or found is not None and not (
                    e + found[1] >= 0 and found[0] >> (e + found[1]) & 1):
                if run is None:
                    runs[0] += 1
                    run = runs[0]
                groups[-1][1:] = ["doomed" if doomed else "masked", run]
            else:
                run = None
                if found is None:
                    groups[-1][1] = "unfiltered"

    for length in range(1, limits.max_len + 1):
        rec(0, length, 0, 0, [])
    return [g for i, g in enumerate(groups) if i == 0 or groups[i - 1][0] <= upto]


def bulk_runs(groups, kinds=("doomed", "masked")):
    """The runs among ``groups`` of ``kinds``, each as the list of its
    groups' ends, after the leaves charged before it."""
    runs = {}
    for i, (end, kind, run) in enumerate(groups):
        if kind in kinds:
            runs.setdefault(run, [groups[i - 1][0]]).append(end)
    return list(runs.values())


def hit_position(target, bad, limits):
    """Leaves charged through ``bad``'s hit in a search for it alone."""
    hit = searched(reference_search_excluding, target, bad, limits)
    assert isinstance(hit[0], SequenceB)
    return limits.budget - hit[1]


def check_budgets(target, bad, limits, groups, at, totals):
    """Each budget of ``totals`` gives the reference's answer, and a walk
    that runs out pauses at the end of the first group past its budget, or
    at its hit when that group holds it."""
    for total in totals:
        capped = limits._replace(budget=total)
        fast = searched(search_alone, target, bad, capped)
        assert fast == searched(reference_search_excluding, target, bad, capped), total
        if total < at:
            find = degsets._exclusion_search(target, (bad,), limits)
            paused = next(end for end, _, _ in groups if end > total)
            assert walk_answer(find, bad, total)[1] == min(at, paused), total


@pytest.mark.parametrize("target, bad", [
    ({0, 1, 2, 4}, 5),
    ({-4, 0, 2, 3}, 1),
    ({-4, 0, 2, 3}, -2),
    ({0, 1, 2, 4, 8}, 3),
])
def test_budgets_around_bulk_runs_match_reference(target, bad):
    """Budgets one before, at and one after the end of a run charged in
    bulk, at the end of a group inside one and between two of its groups
    (the walk then pauses inside the run); the groups the mask leaves out
    are ones no last entry completes."""
    target = frozenset(target)
    limits = SearchLimits().resolve(target)
    at = hit_position(target, bad, limits)
    groups = walk_groups(target, bad, limits, at)
    assert [g[0] for g in groups] == [end for end, _ in leaf_groups(target, limits, at)]
    assert all(rejected for (_, rejected), g in zip(leaf_groups(target, limits, at), groups)
               if g[1] == "masked")
    runs = [r for r in bulk_runs(groups) if r[-1] < at]
    long = [r for r in runs if len(r) > 3]
    assert long
    totals = set()
    for run in spread(runs, 8):
        totals |= {run[-1] - 1, run[-1], run[-1] + 1}
    for run in spread(long, 4):
        for i in (1, len(run) // 2):
            totals |= {run[i], (run[i] + run[i + 1]) // 2}
    check_budgets(target, bad, limits, groups, at, sorted(totals))


@pytest.mark.parametrize("target, first, second", [
    ({0, 1, 2, 4}, 5, 3),
    ({-4, 0, 2, 3}, 1, -2),
    ({0, 1, 2, 4, 8}, 3, 5),
])
def test_resume_inside_a_bulk_run_matches_reference(target, first, second):
    """A walk that pauses between two groups of a run the mask leaves out
    resumes there without charging either again: the later answers equal
    the reference's for each value alone."""
    target = frozenset(target)
    limits = SearchLimits().resolve(target)
    at = min(hit_position(target, bad, limits) for bad in (first, second))
    groups = walk_groups(target, first, limits, at)
    long = [r for r in bulk_runs(groups, ("masked",)) if len(r) > 3 and r[-1] < at]
    assert long
    for run in spread(long, 4):
        find = degsets._exclusion_search(target, (first, second), limits)
        assert walk_answer(find, first, run[2] - 1)[1] == run[2]
        for bad in (second, first):
            assert walk_answer(find, bad, limits.budget) == \
                searched(reference_search_excluding, target, bad, limits), (run, bad)


@pytest.mark.parametrize("target, bad", [({-1, 0, 5}, 3), ({-5, 0, 1}, -3), ({0, 1, 5}, 4)])
def test_prefixes_missing_fewer_than_two_targets_match_reference(target, bad):
    """Below a prefix whose sums miss fewer than two targets there is no
    mask, and every group is tested: budgets at and around each such
    group's end give the reference's answers.  A maxEntry of 4 leaves the
    hit to length 3 or more, below such prefixes."""
    target = frozenset(target)
    limits = SearchLimits(max_entry=4).resolve(target)
    at = hit_position(target, bad, limits)
    groups = walk_groups(target, bad, limits, at)
    ends = [end for end, kind, _ in groups if kind == "unfiltered" and end < at]
    assert len(ends) >= 3
    check_budgets(target, bad, limits, groups, at,
                  sorted({end + d for end in spread(ends, 10) for d in (-1, 0, 1)}))
