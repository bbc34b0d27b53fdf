"""Bundle degree-set rules against brute-force enumeration and frozen cases."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledeg.abelian import FgAbelianGroup, IntegerMatrix, solve_scalar
from circledeg.bundles import (
    BaseManifold,
    CircleBundle,
    ConnectedSum,
    MapCatalogue,
    MapModel,
    SphereProduct,
    Stabilized,
    SymbolicRepeat,
    _base_rule_hypotheses,
    builtin_registry,
    degree_bound,
    expr_dim,
    expr_from_json,
    expr_to_json,
    fiber_preserving_degree_set,
    finiteness_verdict,
    load_registry,
    parse_volume,
    promote_to_full_degree_set,
    render_expr,
    same_base_pair_degree_set,
    torsion_consistency,
    vertical_degree_set,
)
from circledeg.degsets import DegreeSet
from circledeg.errors import HypothesisError, InputError


def brute_vertical(a, b, lo=-40, hi=40):
    """Nonzero k in [lo, hi] with k*a == b, by direct scaling."""
    return [k for k in range(lo, hi + 1) if k != 0 and k * a == b]


# ---------------------------------------------------------------------------
# vertical sets


def test_vertical_free_rank_one():
    g = FgAbelianGroup(1)
    a, b = g.element([2]), g.element([6])
    got = vertical_degree_set(a, b)
    assert got.as_finite_set() == {3}


def test_vertical_empty_when_not_multiple():
    g = FgAbelianGroup(1)
    assert vertical_degree_set(g.element([2]), g.element([3])).is_empty
    # b = 0 with a non-torsion: the only scalar solution is k = 0
    assert vertical_degree_set(g.element([2]), g.zero()).is_empty


def test_vertical_torsion_progression_excludes_zero():
    g = FgAbelianGroup(0, (6,))
    a, b = g.element(torsion=[2]), g.element(torsion=[4])
    got = vertical_degree_set(a, b)
    assert got.window(-7, 7) == [-7, -4, -1, 2, 5]
    assert not got.contains(0) or b.is_zero

    bz = g.zero()
    gotz = vertical_degree_set(a, bz)
    # k*a = 0 solved by multiples of 3 = order(a); 0 itself is excluded
    assert gotz.window(-7, 7) == [-6, -3, 3, 6]
    assert not gotz.contains(0)


def test_vertical_matches_brute_force_over_mixed_group():
    g = FgAbelianGroup(1, (4,))
    rng = random.Random(11)
    for _ in range(200):
        a = g.element([rng.randint(-3, 3)], [rng.randint(0, 3)])
        b = g.element([rng.randint(-9, 9)], [rng.randint(0, 3)])
        got = vertical_degree_set(a, b)
        assert got.window(-40, 40) == brute_vertical(a, b)


def test_vertical_group_mismatch_rejected():
    with pytest.raises(InputError):
        vertical_degree_set(FgAbelianGroup(1).element([1]),
                            FgAbelianGroup(2).element([1, 0]))


# ---------------------------------------------------------------------------
# torsion consistency and fiber-preserving sets


def test_torsion_consistency_verdicts():
    g = FgAbelianGroup(1, (6,))
    free = g.element([1], [0])
    tors = g.element([0], [3])
    assert torsion_consistency(free, free) == "compatible"
    assert torsion_consistency(tors, tors) == "compatible"
    assert torsion_consistency(free, tors) == "incompatible"
    # different groups compare fine
    other = FgAbelianGroup(0, (2,)).element(torsion=[1])
    assert torsion_consistency(free, other) == "incompatible"
    assert torsion_consistency(tors, other) == "compatible"


def test_fiber_preserving_worked_example():
    # one degree-3 base map acting on H^2 by multiplication by 4,
    # Euler classes a = (2) and b = (1): f#(b) = (4), k*2 = 4 gives k = 2,
    # so the map contributes 2*3 = 6 and the set is {0, 6}
    g = FgAbelianGroup(1)
    cat = MapCatalogue((MapModel(3, IntegerMatrix.from_rows([[4]])),), complete=True)
    res = fiber_preserving_degree_set(cat, g.element([2]), g.element([1]))
    assert res.degree_set.as_finite_set() == {0, 6}
    assert res.exact
    assert len(res.contributions) == 1
    c = res.contributions[0]
    assert c.degree == 3
    assert c.image == g.element([4])
    assert c.solutions.window(-10, 10) == [2]
    assert c.contribution.as_finite_set() == {6}


def test_fiber_preserving_transcript_recomposes():
    # every degree in the final set is 0 or k*deg(f) for some transcript row
    g = FgAbelianGroup(1, (4,))
    cat = MapCatalogue(
        (
            MapModel(2, IntegerMatrix.from_rows([[3, 0], [0, 2]])),
            MapModel(-1, IntegerMatrix.from_rows([[1, 0], [0, 1]])),
            MapModel(5, IntegerMatrix.from_rows([[0, 0], [0, 0]])),
        ),
        complete=False,
    )
    a = g.element([1], [2])
    b = g.element([3], [0])
    res = fiber_preserving_degree_set(cat, a, b)
    assert not res.exact
    lo, hi = -60, 60
    expect = {0}
    for c in res.contributions:
        expect.update(k * c.degree for k in c.solutions.window(-80, 80) if k != 0)
    assert res.degree_set.window(lo, hi) == sorted(x for x in expect if lo <= x <= hi)
    # and each row's solutions really solve k*a = image
    for c in res.contributions:
        for k in c.solutions.window(-20, 20):
            assert k * a == c.image


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(0, (7,)), (1, ()), (1, (4,)), (1, (6,))]),
       st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(-6, 6).filter(bool), st.integers(-3, 3),
                          st.integers(-3, 3), st.integers(-3, 3)), max_size=8),
       st.booleans())
def test_fiber_preserving_matches_map_by_map_union(shape, coords, maps, complete):
    """The set built once from all pieces equals the union taken map by
    map, structure and all."""
    rank, torsion = shape
    g = FgAbelianGroup(rank, torsion)

    def element(free, tors):
        return g.element([free] * rank, [tors % t for t in torsion])

    def action(p, q, r):
        # free part to free part, free part into the torsion, torsion to itself
        if not torsion:
            return IntegerMatrix.from_rows([[p]])
        if not rank:
            return IntegerMatrix.from_rows([[r]])
        return IntegerMatrix.from_rows([[p, 0], [q, r]])

    cat = MapCatalogue(tuple(MapModel(d, action(p, q, r)) for d, p, q, r in maps), complete)
    res = fiber_preserving_degree_set(cat, element(*coords[:2]), element(*coords[2:]))
    union = DegreeSet([0])
    for c in res.contributions:
        union = union.union(c.contribution)
    assert res.degree_set == union
    assert repr(res.degree_set) == repr(union)
    assert res.exact == complete


def test_fiber_preserving_torsion_mismatch_short_circuits():
    g = FgAbelianGroup(1, (6,))
    ident = IntegerMatrix.from_rows([[1, 0], [0, 1]])
    cat = MapCatalogue((MapModel(7, ident),), complete=True)
    res = fiber_preserving_degree_set(cat, g.element([1], [0]), g.element([0], [2]))
    assert res.degree_set.as_finite_set() == {0}
    assert res.contributions == ()


def test_fiber_preserving_rejects_bad_action():
    # sends the order-2 generator to a free generator: not a homomorphism
    g = FgAbelianGroup(1, (2,))
    cat = MapCatalogue((MapModel(1, IntegerMatrix.from_rows([[0, 1], [0, 0]])),))
    with pytest.raises(InputError, match="map 0"):
        fiber_preserving_degree_set(cat, g.element([1], [1]), g.element([1], [0]))


def test_fiber_preserving_across_distinct_groups():
    # domain base group Z, target base group Z x Z/3; action maps the
    # target's generators into Z
    dom = FgAbelianGroup(1)
    tgt = FgAbelianGroup(1, (3,))
    action = IntegerMatrix.from_rows([[5, 0]])
    cat = MapCatalogue((MapModel(2, action),), complete=True)
    res = fiber_preserving_degree_set(cat, dom.element([1]), tgt.element([1], [2]))
    # image of b is (5), k*1 = 5 gives k = 5, contribution 10
    assert res.degree_set.as_finite_set() == {0, 10}


def test_vertical_contained_in_fiber_preserving_with_identity():
    # over one base, a catalogue holding the identity map makes the
    # fiber-preserving set contain the nonzero vertical set
    g = FgAbelianGroup(1, (8,))
    cat = MapCatalogue((MapModel(1, IntegerMatrix.from_rows([[1, 0], [0, 1]])),))
    rng = random.Random(23)
    for _ in range(120):
        a = g.element([rng.randint(-2, 2)], [rng.randint(0, 7)])
        b = g.element([rng.randint(-6, 6)], [rng.randint(0, 7)])
        if torsion_consistency(a, b) == "incompatible":
            continue
        vert = vertical_degree_set(a, b)
        fp = fiber_preserving_degree_set(cat, a, b).degree_set
        for d in vert.window(-30, 30):
            assert fp.contains(d)
        assert fp.contains(0)


# ---------------------------------------------------------------------------
# promotion to the full set


def test_promotion_justified_by_flags():
    reg = builtin_registry()
    assert promote_to_full_degree_set(reg["surface"], reg["knot-glue-3"]) is True

    h2 = FgAbelianGroup(1)
    bare = BaseManifold("bare", 3, h2, (("b", h2.element([1])),), frozenset({"aspherical"}))
    # scf missing on the target side
    assert promote_to_full_degree_set(reg["surface"], bare) is False
    # scf only needed on the target
    assert promote_to_full_degree_set(bare, reg["surface"]) is True


# ---------------------------------------------------------------------------
# same-base pairs


def test_pair_divisible_and_not():
    base = builtin_registry()["knot-glue-3"]
    res = same_base_pair_degree_set(2, 6, base)
    assert res.exact and res.rule == "fixed-class-scaling"
    assert res.degree_set.as_finite_set() == {0, 3}
    res = same_base_pair_degree_set(2, 3, base)
    assert res.exact
    assert res.degree_set.as_finite_set() == {0}
    assert res.to_json() == {"finite": [0]}


def test_pair_signs_and_identity():
    base = builtin_registry()["hyp-odd-4"]
    assert same_base_pair_degree_set(-3, 6, base).degree_set.as_finite_set() == {0, -2}
    assert same_base_pair_degree_set(3, -6, base).degree_set.as_finite_set() == {0, -2}
    assert same_base_pair_degree_set(-5, -5, base).degree_set.as_finite_set() == {0, 1}
    assert same_base_pair_degree_set(7, 7, base).degree_set.as_finite_set() == {0, 1}


def test_pair_surface_rule_tag():
    res = same_base_pair_degree_set(1, 4, builtin_registry()["surface"])
    assert res.rule == "surface-euler-scaling"
    assert res.degree_set.as_finite_set() == {0, 4}


def test_pair_weak_mode_upper_bound():
    h2 = FgAbelianGroup(1)
    weak = BaseManifold(
        "weak", 5, h2, (("b", h2.element([1])),),
        frozenset({"aspherical", "scf_pi1", "d_self_finite"}),
    )
    res = same_base_pair_degree_set(2, 6, weak)
    assert not res.exact and res.rule == "eigenvalue-bound"
    assert res.degree_set.as_finite_set() == {0, 3, -3}
    assert res.to_json() == {"finite": [-3, 0, 3], "upperBound": True}
    assert same_base_pair_degree_set(2, 5, weak).degree_set.as_finite_set() == {0}


def test_pair_missing_hypotheses_named():
    h2 = FgAbelianGroup(1)
    classes = (("b", h2.element([1])),)
    plain = BaseManifold("plain", 3, h2, classes, frozenset({"aspherical"}))
    with pytest.raises(HypothesisError, match="scf_pi1"):
        same_base_pair_degree_set(1, 2, plain)
    nofin = BaseManifold("nofin", 3, h2, classes, frozenset({"aspherical", "scf_pi1"}))
    with pytest.raises(HypothesisError, match="d_self_finite"):
        same_base_pair_degree_set(1, 2, nofin)
    with pytest.raises(HypothesisError, match="no class named"):
        same_base_pair_degree_set(1, 2, builtin_registry()["surface"], "c")
    with pytest.raises(InputError):
        same_base_pair_degree_set(0, 2, builtin_registry()["surface"])


def test_pair_torsion_class_rejected():
    h2 = FgAbelianGroup(1, (4,))
    tors = BaseManifold(
        "tors", 3, h2,
        (("b", h2.element([1], [0])), ("t", h2.element([0], [2]))),
        frozenset({"aspherical", "scf_pi1", "d_self_finite"}),
    )
    with pytest.raises(HypothesisError, match="non-torsion"):
        same_base_pair_degree_set(1, 2, tors, "t")


def _reference_pair_rule(m, k, base, label):
    """The pair rule as first written: one pass, hypotheses then arithmetic;
    returns (degree set, exact, rule) or the raised error's type and text."""
    try:
        if m == 0 or k == 0:
            raise InputError("Euler multipliers m and k must be nonzero")
        for flag in ("aspherical", "scf_pi1"):
            if not base.has(flag):
                raise HypothesisError(f"base {base.name!r} is missing required flag: {flag}")
        if label not in dict(base.named_classes):
            raise HypothesisError(f"base {base.name!r} has no class named {label!r}")
        if not any(base.cls(label).free):
            raise HypothesisError(f"class {label!r} must be non-torsion")
        strong = all(base.has(f) for f in ("aspherical", "scf_pi1", "d_self_is_01")) \
            and label in base.fixes
        if not strong and not base.has("d_self_finite"):
            raise HypothesisError(f"base {base.name!r} is missing required flag: d_self_finite")
    except InputError as exc:
        return type(exc).__name__, str(exc)
    q = [k // m] if k % m == 0 else []
    if strong:
        rule = "surface-euler-scaling" if base.dim == 2 else "fixed-class-scaling"
        return frozenset([0] + q), True, rule
    return frozenset([0] + q + [-x for x in q]), False, "eigenvalue-bound"


def _pair_rule_bases():
    h2 = FgAbelianGroup(1, (4,))
    classes = (("b", h2.element([1], [0])), ("t", h2.element([0], [2])))
    registry = builtin_registry()
    return [(registry[name], "b") for name in ("surface", "knot-glue-3", "hyp-odd-4")] + [
        (BaseManifold("weak", 3, h2, classes,
                      frozenset({"aspherical", "scf_pi1", "d_self_finite"}), {"b"}), "b"),
        (BaseManifold("no-scf", 3, h2, classes,
                      frozenset({"aspherical", "d_self_is_01"}), {"b"}), "b"),
        (BaseManifold("unfixed", 3, h2, classes,
                      frozenset({"aspherical", "scf_pi1", "d_self_is_01"})), "b"),
        (registry["surface"], "c"),
        (BaseManifold("torsion-class", 3, h2, classes,
                      frozenset({"aspherical", "scf_pi1", "d_self_is_01"}), {"b"}), "t"),
    ]


@pytest.mark.parametrize("base, label", _pair_rule_bases(),
                         ids=lambda x: getattr(x, "name", x))
def test_pair_rule_matches_its_reference(base, label):
    for m in range(-12, 13):
        for k in range(-12, 13):
            want = _reference_pair_rule(m, k, base, label)
            try:
                res = same_base_pair_degree_set(m, k, base, label)
            except InputError as exc:
                assert (type(exc).__name__, str(exc)) == want, (m, k)
                continue
            got = (res.degree_set.as_finite_set(), res.exact, res.rule)
            assert got == want, (m, k)


def _identity_catalogue(base, degrees=(1,), signs=(1,)):
    """Self-maps of ``base`` acting on H2 as sign times the identity, one of
    each degree for each sign."""
    n = base.h2.rank + len(base.h2.torsion)
    return MapCatalogue(tuple(
        MapModel(d, IntegerMatrix.from_rows([[sign * (i == j) for j in range(n)]
                                             for i in range(n)]))
        for d in degrees for sign in signs), complete=True)


@pytest.mark.parametrize("name", ["surface", "knot-glue-3", "hyp-odd-4"])
def test_formula_ii_reproduces_the_pair_rule(name):
    # over a base whose only nonzero self-degree is 1 and which fixes b,
    # the fiber-preserving degree set over the complete catalogue {identity}
    # is the exact pair rule: t*(m*b) = k*b has the one solution t = k/m
    # when m divides k, and none otherwise
    base = builtin_registry()[name]
    catalogue = _identity_catalogue(base)
    b = base.cls("b")
    for m in [*range(-12, 0), *range(1, 13)]:
        for k in [*range(-12, 0), *range(1, 13)]:
            rule = same_base_pair_degree_set(m, k, base)
            assert rule.exact
            formula = fiber_preserving_degree_set(catalogue, b.scale(m), b.scale(k))
            assert formula.degree_set.equals(rule.degree_set), (m, k)


def test_formula_ii_stays_within_the_weak_pair_rule():
    # with only a finite self-degree set the rule gives the upper bound
    # {0, +-k/m}; self-maps of degree +-1 acting as +-1 on H2 stay in it
    base = next(base for base, _ in _pair_rule_bases() if base.name == "weak")
    assert base.has("d_self_finite") and not base.has("d_self_is_01")
    catalogue = _identity_catalogue(base, degrees=(1, -1), signs=(1, -1))
    b = base.cls("b")
    for m in [*range(-12, 0), *range(1, 13)]:
        for k in [*range(-12, 0), *range(1, 13)]:
            bound = same_base_pair_degree_set(m, k, base)
            assert not bound.exact
            formula = fiber_preserving_degree_set(catalogue, b.scale(m), b.scale(k))
            assert formula.degree_set.as_finite_set() <= bound.degree_set.as_finite_set()


@pytest.mark.parametrize("base, label", _pair_rule_bases(),
                         ids=lambda x: getattr(x, "name", x))
def test_pair_rule_hypotheses_imply_promotion(base, label):
    # the pair rule is formula (ii) promoted by item (i): every base it
    # accepts, as domain and target base, meets (i)'s hypotheses
    try:
        _base_rule_hypotheses(base, label)
    except InputError:
        return
    assert promote_to_full_degree_set(base, base)


# ---------------------------------------------------------------------------
# volume bound and finiteness


def test_degree_bound_floor():
    assert degree_bound(Fraction(10), Fraction(3)) == 3
    assert degree_bound(Fraction(6), Fraction(3)) == 2
    assert degree_bound(Fraction(5, 2), Fraction(1, 3)) == 7
    assert degree_bound(Fraction(1), Fraction(2)) == 0
    with pytest.raises(HypothesisError):
        degree_bound(Fraction(4), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.from_regex(r"\A\s?[-+]?\d{1,4}(_\d{1,3})?(\.\d{0,4})?([eE][-+]?\d{1,3})?\s?\Z"),
    st.from_regex(r"\A[-+]?(\d{1,4}/\d{1,4}|\.\d{1,4})\Z"),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**30, 10**30),
    st.text(max_size=8),
))
def test_parse_volume_agrees_with_fraction(value):
    # every literal here stays below the digit cap
    try:
        want = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError, match="^v (must be a rational|has a zero denominator)"):
            parse_volume(value, "v")
    else:
        assert parse_volume(value, "v") == want


@pytest.mark.parametrize("text", ["1e2001", "1e-2000", "0e99999999999", "1" * 2001,
                                  "1/" + "1" * 2001, "1." + "0" * 2000])
def test_parse_volume_refuses_long_literals_before_expanding(text):
    with pytest.raises(InputError, match="^v has more than 2000 digits"):
        parse_volume(text, "v")
    assert parse_volume("9" * 2000 + "/" + "7" * 2000, "v") > 1


def test_finiteness_hyperbolic_target():
    reg = builtin_registry()
    b = reg["hyp-odd-4"].cls("b")
    dom = CircleBundle(reg["knot-glue-3"], reg["knot-glue-3"].cls("b"))
    tgt = CircleBundle(reg["hyp-odd-4"], 2 * b)
    assert finiteness_verdict(dom, tgt) == "finite"
    # torsion target Euler class spoils it
    h2t = FgAbelianGroup(1, (5,))
    torsbase = BaseManifold("tb", 4, h2t, (("b", h2t.element([1], [0])),),
                            frozenset({"hyperbolic"}))
    assert finiteness_verdict(dom, CircleBundle(torsbase, h2t.element([0], [1]))) == "unknown"


def test_finiteness_needs_declared_facts_without_hyperbolic():
    reg = builtin_registry()
    base = reg["knot-glue-3"]
    dom = CircleBundle(base, base.cls("b"))
    tgt = CircleBundle(base, 3 * base.cls("b"))
    assert finiteness_verdict(dom, tgt) == "unknown"
    assert finiteness_verdict(dom, tgt, d_base_finite=True) == "unknown"
    assert finiteness_verdict(dom, tgt, d_base_finite=True,
                              pullback_class_set_finite=True) == "finite"


# ---------------------------------------------------------------------------
# manifold expressions


def test_expr_dims_and_render():
    reg = builtin_registry()
    bun = CircleBundle(reg["surface"], 3 * reg["surface"].cls("b"))
    assert expr_dim(bun) == 3
    assert expr_dim(SphereProduct(4)) == 4
    s = ConnectedSum((bun, SphereProduct(3)))
    assert expr_dim(s) == 3
    st = Stabilized(s, 3)
    assert expr_dim(st) == 6
    rep = SymbolicRepeat(SphereProduct(3), "l")
    assert expr_dim(rep) == 3
    text = render_expr(ConnectedSum((bun, rep)))
    assert "S1-bundle[e=(3), base=surface]" in text
    assert "#^l (S^2xS^1)" in text


def test_expr_dimension_rules_enforced():
    reg = builtin_registry()
    bun = CircleBundle(reg["surface"], reg["surface"].cls("b"))
    with pytest.raises(InputError):
        ConnectedSum((bun, SphereProduct(4)))
    with pytest.raises(InputError):
        ConnectedSum(())
    with pytest.raises(InputError):
        Stabilized(bun, 2)
    with pytest.raises(InputError):
        SphereProduct(1)


def test_expr_json_round_trip():
    reg = builtin_registry()
    bun = CircleBundle(reg["hyp-odd-4"], 14 * reg["hyp-odd-4"].cls("b"))
    expr = Stabilized(
        ConnectedSum((bun, SymbolicRepeat(SphereProduct(5), "l"))), 4
    )
    blob = json.dumps(expr_to_json(expr), sort_keys=True)
    back = expr_from_json(json.loads(blob), reg)
    assert back == expr
    with pytest.raises(InputError, match="unknown base"):
        expr_from_json({"bundle": {"base": "nope", "euler": {"free": [1]}}}, reg)


# ---------------------------------------------------------------------------
# presets and registry


def test_builtin_presets_shape():
    reg = builtin_registry()
    assert set(reg) == {"surface", "knot-glue-3", "hyp-odd-4"}
    for name, base in reg.items():
        assert base.name == name
        assert base.h2.rank == 1 and not base.h2.torsion
        assert base.cls("b") == base.h2.element([1])
        assert "b" in base.fixes
        assert base.has("aspherical") and base.has("scf_pi1")
        assert base.has("d_self_is_01") and base.has("d_self_finite")
    assert reg["surface"].dim == 2
    assert reg["knot-glue-3"].dim == 3
    assert reg["hyp-odd-4"].dim == 4
    assert reg["surface"].has("hyperbolic")
    assert reg["hyp-odd-4"].has("hyperbolic")
    assert not reg["knot-glue-3"].has("hyperbolic")
    # the presets are shared, the dict is new on every call
    again = builtin_registry()
    assert again is not reg and again == reg
    assert all(again[name] is base for name, base in reg.items())
    reg.pop("surface")
    assert "surface" in builtin_registry()


def test_flag_closure_and_validation():
    h2 = FgAbelianGroup(1)
    m = BaseManifold("m", 7, h2, flags=frozenset({"hyperbolic"}))
    assert m.flags == {"hyperbolic", "aspherical", "scf_pi1", "d_self_finite"}
    with pytest.raises(InputError, match="unknown flags"):
        BaseManifold("m", 3, h2, flags=frozenset({"aspherical", "simply_connected"}))
    with pytest.raises(InputError, match="dimension"):
        BaseManifold("m", 1, h2)
    with pytest.raises(InputError, match="not a named class"):
        BaseManifold("m", 3, h2, fixes=frozenset({"b"}))


def test_base_json_round_trip():
    reg = builtin_registry()
    for base in reg.values():
        assert BaseManifold.from_json(base.to_json()) == base
    h2 = FgAbelianGroup(2, (3,))
    rich = BaseManifold(
        "rich", 4, h2,
        (("b", h2.element([1, 0], [0])), ("c", h2.element([0, 2], [1]))),
        frozenset({"aspherical", "scf_pi1"}), frozenset(), Fraction(7, 2),
    )
    assert BaseManifold.from_json(rich.to_json()) == rich


def test_registry_file_overrides_and_extends(tmp_path):
    h2 = FgAbelianGroup(1)
    extra = BaseManifold("pretzel", 3, h2, (("b", h2.element([1])),),
                         frozenset({"aspherical", "scf_pi1", "d_self_is_01"}),
                         frozenset({"b"}))
    override = BaseManifold("surface", 2, h2, (("b", h2.element([1])),),
                            frozenset({"aspherical", "scf_pi1", "d_self_finite"}))
    path = tmp_path / "bases.json"
    path.write_text(json.dumps({"bases": [extra.to_json(), override.to_json()]}))
    reg = load_registry(path)
    assert reg["pretzel"] == extra
    assert reg["surface"] == override  # file wins over the built-in
    assert "hyp-odd-4" in reg  # built-ins still present
    # loading a file leaves the built-ins of the next call as they were
    assert "pretzel" not in builtin_registry()
    assert builtin_registry()["surface"] != override
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(InputError, match="not valid JSON"):
        load_registry(bad)
    bad.write_text(json.dumps({"bases": {}}))
    with pytest.raises(InputError, match="bases"):
        load_registry(bad)
    # every entry is checked against the schema before any is converted
    for key, value, where in (("dim", "abc", r"\$\.bases\[0\]\.dim"),
                              ("volume", "zz", "volume must be a rational"),
                              ("classes", {"b": {"free": ["q"]}},
                               r"\$\.bases\[0\]\.classes\.b\.free\[0\]")):
        bad.write_text(json.dumps({"bases": [{**extra.to_json(), key: value}]}))
        with pytest.raises(InputError, match=where):
            load_registry(bad)
    with pytest.raises(InputError, match="cannot read registry file"):
        load_registry(tmp_path / "missing.json")
