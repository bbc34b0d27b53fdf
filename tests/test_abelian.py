"""Group arithmetic tests.

The expected values below were frozen from independent oracles before the
library was used: solution sets are checked against brute-force window
enumeration, normal forms against the defining matrix identity, orders
against repeated addition.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from work_count import line_events

from circledeg import abelian
from circledeg.abelian import (
    EIGEN_DIVISOR_CAP,
    SNF_DIGITS_CAP,
    SNF_SIZE_CAP,
    FgAbelianGroup,
    GroupElement,
    IntegerMatrix,
    apply_matrix,
    canonicalize_group,
    is_torsion,
    lattice_compatible,
    smith_normal_form,
    solve_scalar,
    unimodular_rational_eigen_check,
)
from circledeg.degsets import DegreeSet
from circledeg.errors import GroupMismatchError, InputError, ResourceCapError


def brute_solutions(a: GroupElement, c: GroupElement, lo: int, hi: int) -> list[int]:
    """Oracle: all k in [lo, hi] with k*a == c, by direct scaling."""
    return [k for k in range(lo, hi + 1) if a.scale(k) == c]


# ---------------------------------------------------------------------------
# Smith normal form


def snf_check_identity(m: IntegerMatrix) -> IntegerMatrix:
    u, d, v = smith_normal_form(m)
    assert u.mul(m).mul(v).entries == d.entries
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y == 0 and x == 0) or x == 0 or (x != 0 and (y % x == 0 or y == 0)) or y % x == 0
    # nonzero entries precede zero entries and divide forward
    nz = [x for x in diag if x != 0]
    assert diag[: len(nz)] == nz
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    return d


def test_snf_diag_2_3():
    d = snf_check_identity(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    assert [d[0, 0], d[1, 1]] == [1, 6]


def test_snf_zero_matrix():
    d = snf_check_identity(IntegerMatrix.from_rows([[0, 0], [0, 0]]))
    assert [d[0, 0], d[1, 1]] == [0, 0]


def test_snf_empty_and_thin():
    snf_check_identity(IntegerMatrix(0, 3, ()))
    snf_check_identity(IntegerMatrix.from_rows([[5], [10], [0]], 1))


def test_snf_deterministic():
    m = IntegerMatrix.from_rows([[6, 4, 2], [4, 8, 2], [2, 2, 10]])
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


def test_snf_round_trip_random():
    rng = random.Random(20260816)
    for _ in range(150):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8)
        m = IntegerMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)], cols
        )
        snf_check_identity(m)


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(1979)
    shapes = set()
    deficient = 0
    for n in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if n % 3 == 0 and rows > 1:
            # the last row a combination of the others
            coeffs = [rng.randint(-2, 2) for _ in entries[:-1]]
            entries[-1] = [sum(c * row[j] for c, row in zip(coeffs, entries))
                           for j in range(cols)]
        m = IntegerMatrix.from_rows(entries, cols)
        d = smith_normal_form(m)[1]
        diag = [d[i, i] for i in range(min(rows, cols))]
        expected = [int(x) for x in invariant_factors(sympy.Matrix(entries), domain=sympy.ZZ)]
        assert diag == expected, entries
        # the group's elimination builds no U or V and must agree
        nonzero = [x for x in expected if x != 0]
        assert canonicalize_group(m) == FgAbelianGroup(
            cols - len(nonzero), tuple(x for x in nonzero if x != 1)), entries
        shapes.add(rows == cols)
        deficient += 0 in diag
    assert shapes == {True, False} and deficient > 20


def test_snf_cap_names_u_and_spares_the_group():
    # U's entry becomes -q, with q the second row's entry; the group's
    # elimination builds no U
    u = smith_normal_form(IntegerMatrix.from_rows([[1], [10**SNF_DIGITS_CAP - 1]]))[0]
    assert u[1, 0] == 1 - 10**SNF_DIGITS_CAP
    m = IntegerMatrix.from_rows([[1], [10**SNF_DIGITS_CAP]])
    with pytest.raises(ResourceCapError) as err:
        smith_normal_form(m)
    assert str(err.value) == ("Smith normal form of a 2x1 matrix: an entry of U passed "
                              "4300 decimal digits while placing pivot 1 of 1")
    assert canonicalize_group(m) == FgAbelianGroup(0)


# the seeded 32x32 matrices with entries in [-9, 9] whose group stays under
# the digit cap; through the full Smith normal form 5 and 10 hit it on V
@pytest.mark.parametrize("seed", [3, 5, 10, 14])
def test_group_of_large_matrices_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(seed)
    entries = [[rng.randint(-9, 9) for _ in range(32)] for _ in range(32)]
    expected = [int(x) for x in invariant_factors(sympy.Matrix(entries), domain=sympy.ZZ)]
    nonzero = [x for x in expected if x != 0]
    assert canonicalize_group(IntegerMatrix.from_rows(entries)) == FgAbelianGroup(
        32 - len(nonzero), tuple(x for x in nonzero if x != 1))


def test_snf_entry_growth_is_capped_at_the_printable_bound():
    # V's entry becomes -q, with q the second entry: 4300 digits print,
    # 4301 do not
    u, d, v = smith_normal_form(IntegerMatrix.from_rows([[1, 10**SNF_DIGITS_CAP - 1]]))
    assert v[0, 1] == 1 - 10**SNF_DIGITS_CAP and len(str(-v[0, 1])) == SNF_DIGITS_CAP
    with pytest.raises(ResourceCapError) as err:
        smith_normal_form(IntegerMatrix.from_rows([[1, 10**SNF_DIGITS_CAP]]))
    assert (err.value.cap_name, err.value.cap_value) == ("snf_digits", SNF_DIGITS_CAP)
    assert str(err.value) == ("Smith normal form of a 1x2 matrix: an entry of V passed "
                              "4300 decimal digits while placing pivot 1 of 1")


def test_snf_size_cap_comes_before_any_elimination():
    # U and V of a 1 x 1024 matrix would hold 1 + 2^20 entries; at 1 x 1023
    # they hold 1 + 1023^2, within the cap
    for rows in ([[1] * 1024], [[1]] * 1024):
        m = IntegerMatrix.from_rows(rows)
        with pytest.raises(ResourceCapError) as err:
            smith_normal_form(m)
        assert (err.value.cap_name, err.value.cap_value) == ("snf_size", SNF_SIZE_CAP)
        assert str(err.value) == (f"Smith normal form of a {m.rows}x{m.cols} matrix: U and V "
                                  f"would hold {1 + 1024 ** 2} entries, beyond the cap of "
                                  f"{SNF_SIZE_CAP}")
        assert canonicalize_group(m) == FgAbelianGroup(m.cols - 1)
    d = smith_normal_form(IntegerMatrix.from_rows([[0] * 1023]))[1]
    assert d.rows * d.cols == 1023 and not any(d.entries[0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-50, 50), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_round_trip_property(rows):
    snf_check_identity(IntegerMatrix.from_rows(rows))


# ---------------------------------------------------------------------------
# canonical groups


def test_canonicalize_drops_units_and_counts_rank():
    g = canonicalize_group(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    assert g == FgAbelianGroup(0, (6,))
    g = canonicalize_group(IntegerMatrix(1, 2, ((2, 0),)))
    assert g == FgAbelianGroup(1, (2,))
    g = canonicalize_group(IntegerMatrix(0, 2, ()))
    assert g == FgAbelianGroup(2, ())


def test_group_validation():
    with pytest.raises(InputError):
        FgAbelianGroup(-1)
    with pytest.raises(InputError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(InputError):
        FgAbelianGroup(0, (4, 2))


def _random_group(seed: int) -> FgAbelianGroup:
    """Rank 0..3 and a divisor chain of 1..3 torsion factors."""
    rng = random.Random(seed)
    chain = [rng.randint(2, 6)]
    for _ in range(rng.randint(0, 2)):
        chain.append(chain[-1] * rng.randint(1, 5))
    return FgAbelianGroup(rng.randint(0, 3), tuple(chain))


@pytest.mark.parametrize("group", [
    FgAbelianGroup(1), FgAbelianGroup(0, (4,)), FgAbelianGroup(2, (2, 6)),
    FgAbelianGroup(1, (3, 3, 9)), FgAbelianGroup(0),
] + [_random_group(seed) for seed in range(8)])
def test_scale_matches_the_validating_constructor(group):
    rng = random.Random(group.rank * 31 + len(group.torsion))
    for _ in range(30):
        a = group.element([rng.randint(-9, 9) for _ in range(group.rank)],
                          [rng.randint(-20, 20) for _ in group.torsion])
        for k in (0, 1, -1, 2, -3, 7, 10**20 + 1, -(10**20) - 1):
            want = GroupElement(group, tuple(k * x for x in a.free),
                                tuple(k * x for x in a.torsion))
            for got in (a.scale(k), k * a):
                assert got == want and hash(got) == hash(want)
                assert repr(got) == repr(want)
                assert got.group is group


def test_element_reduction_and_arithmetic():
    g = FgAbelianGroup(1, (6,))
    a = g.element([3], [8])
    assert a.torsion == (2,)
    assert (a + a).torsion == (4,)
    assert (a - a).is_zero
    assert a.scale(-1) == -a
    with pytest.raises(GroupMismatchError):
        a + FgAbelianGroup(1).element([1])


# ---------------------------------------------------------------------------
# torsion order


def test_is_torsion_frozen_values():
    z6 = FgAbelianGroup(0, (6,))
    assert is_torsion(z6.element(torsion=[2])) == (True, 3)
    assert is_torsion(z6.zero()) == (True, 1)
    z = FgAbelianGroup(1)
    assert is_torsion(z.element([4])) == (False, None)
    mixed = FgAbelianGroup(1, (4,))
    assert is_torsion(mixed.element([0], [2])) == (True, 2)


def test_is_torsion_matches_repeated_addition():
    rng = random.Random(7)
    for _ in range(80):
        chain = []
        d = rng.choice([2, 2, 3, 4])
        for _ in range(rng.randint(1, 3)):
            chain.append(d)
            d *= rng.choice([1, 2, 3])
        g = FgAbelianGroup(0, tuple(chain))
        a = g.element(torsion=[rng.randrange(d) for d in chain])
        flag, order = is_torsion(a)
        assert flag
        acc = g.zero()
        steps = 0
        while True:
            acc = acc + a
            steps += 1
            if acc.is_zero:
                break
        assert steps == order


# ---------------------------------------------------------------------------
# scalar equations


def test_solve_scalar_frozen_values():
    z = FgAbelianGroup(1)
    assert solve_scalar(z.element([2]), z.element([6])) == DegreeSet((3,))
    assert solve_scalar(z.element([2]), z.element([3])).is_empty
    z6 = FgAbelianGroup(0, (6,))
    got = solve_scalar(z6.element(torsion=[2]), z6.element(torsion=[4]))
    assert got == DegreeSet((), ((2, 3),))


def test_solve_scalar_trivial_group_is_all_integers():
    triv = FgAbelianGroup(0)
    got = solve_scalar(triv.zero(), triv.zero())
    assert got == DegreeSet((), ((0, 1),))


@st.composite
def group_with_elements(draw):
    """An element a of a group Z^r + Z/d_1 + ..., with r <= 2 and a
    divisibility chain of at most three d_j, and an integer k."""
    rank = draw(st.integers(0, 2))
    chain = []
    for d in sorted(draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 12, 24]), max_size=3))):
        if not chain or d % chain[-1] == 0:
            chain.append(d)
    g = FgAbelianGroup(rank, tuple(chain))
    a = g.element([draw(st.integers(-9, 9)) for _ in range(rank)],
                  [draw(st.integers(0, d - 1)) for d in chain])
    k = draw(st.integers(-30, 30))
    return a, k


@settings(max_examples=200, deadline=None)
@given(group_with_elements(), st.booleans())
def test_solve_scalar_modulus_is_order(case, shifted):
    # no integer, one integer or one progression, whose members solve the
    # equation; for a torsion a the progression's modulus is the order of a
    a, k = case
    c = a.scale(k)
    if shifted:  # c may leave the cyclic subgroup of a
        c = c + a.group.element([1] * a.group.rank, [1] * len(a.group.torsion))
    got = solve_scalar(a, c)
    assert len(got.finite) + len(got.progressions) <= 1
    assert not got.excludes_zero_in_progressions
    assert shifted or got.contains(k)
    if got.is_empty:
        return
    member = got.finite[0] if got.finite else got.progressions[0][0]
    assert a.scale(member) == c
    torsion, order = is_torsion(a)
    assert bool(got.progressions) == torsion
    if torsion:
        assert got.progressions[0][1] == order


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2),
    st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=2),
    st.data(),
)
def test_solve_scalar_matches_brute_force(rank, seed_chain, data):
    chain = []
    for d in sorted(seed_chain):
        if not chain or d % chain[-1] == 0:
            chain.append(d)
    g = FgAbelianGroup(rank, tuple(chain))
    coords = st.integers(-9, 9)
    a = g.element(
        [data.draw(coords) for _ in range(rank)],
        [data.draw(coords) for _ in chain],
    )
    c = g.element(
        [data.draw(coords) for _ in range(rank)],
        [data.draw(coords) for _ in chain],
    )
    got = solve_scalar(a, c)
    lo, hi = -60, 60
    assert got.window(lo, hi) == brute_solutions(a, c, lo, hi)


def test_in_cyclic_subgroup():
    # b lies in the subgroup generated by a (k = 0 included) iff k·a = b has
    # a solution
    z4 = FgAbelianGroup(0, (4,))
    a = z4.element(torsion=[2])
    assert not solve_scalar(a, z4.element(torsion=[2])).is_empty
    assert not solve_scalar(a, z4.zero()).is_empty
    assert solve_scalar(a, z4.element(torsion=[1])).is_empty
    # exhaustive cross-check on a small group
    g = FgAbelianGroup(0, (2, 8))
    for a in g.elements():
        members = set()
        acc = g.zero()
        for _ in range(16):
            members.add(acc)
            acc = acc + a
        for b in g.elements():
            assert (not solve_scalar(a, b).is_empty) == (b in members)


# ---------------------------------------------------------------------------
# matrix homomorphisms


def test_validate_endomorphism_frozen_values():
    # m is an endomorphism of g iff it is lattice compatible from g to g
    g = FgAbelianGroup(0, (2, 4))
    swap = IntegerMatrix.from_rows([[0, 1], [1, 0]])
    assert not lattice_compatible(swap, g, g)
    # doubling into the bigger factor is fine: 2 * (order 2 gen) dies in Z/4
    ok = IntegerMatrix.from_rows([[0, 0], [2, 1]])
    assert lattice_compatible(ok, g, g)
    mixed = FgAbelianGroup(1, (2,))
    to_free = IntegerMatrix.from_rows([[0, 1], [0, 0]])
    assert not lattice_compatible(to_free, mixed, mixed)


def test_valid_endomorphism_respects_addition():
    rng = random.Random(4)
    g = FgAbelianGroup(1, (2, 4))
    n = g.generator_count
    accepted = 0
    for _ in range(300):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        for j in (1, 2):
            if rng.random() < 0.8:
                rows[0][j] = 0  # torsion columns usually need zero free part
        m = IntegerMatrix.from_rows(rows, n)
        if not lattice_compatible(m, g, g):
            continue
        accepted += 1
        x = g.element([rng.randint(-5, 5)], [rng.randint(0, 1), rng.randint(0, 3)])
        y = g.element([rng.randint(-5, 5)], [rng.randint(0, 1), rng.randint(0, 3)])
        assert apply_matrix(m, x + y, g) == apply_matrix(m, x, g) + apply_matrix(m, y, g)
    assert accepted > 10


def test_lattice_compatible_cross_groups():
    dom = FgAbelianGroup(0, (2,))
    cod = FgAbelianGroup(0, (4,))
    assert lattice_compatible(IntegerMatrix.from_rows([[2]]), dom, cod)
    assert not lattice_compatible(IntegerMatrix.from_rows([[1]]), dom, cod)
    assert lattice_compatible(IntegerMatrix.from_rows([[1]]), cod, dom)


# ---------------------------------------------------------------------------
# unimodularity and eigenvalues


def test_eigen_check_frozen_values():
    rot = IntegerMatrix.from_rows([[0, 1], [-1, 0]])
    assert unimodular_rational_eigen_check(rot) == (True, [])
    diag = IntegerMatrix.from_rows([[2, 0], [0, 1]])
    assert unimodular_rational_eigen_check(diag) == (False, [Fraction(2), Fraction(1)])
    ident3 = IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert unimodular_rational_eigen_check(ident3) == (True, [Fraction(1)] * 3)
    singular = IntegerMatrix.from_rows([[0, 0], [0, 2]])
    assert unimodular_rational_eigen_check(singular) == (False, [Fraction(2), Fraction(0)])


def test_eigen_multiplicity_and_negatives():
    m = IntegerMatrix.from_rows([[-1, 1, 0], [0, -1, 0], [0, 0, 3]])
    uni, eigs = unimodular_rational_eigen_check(m)
    assert not uni
    assert eigs == [Fraction(3), Fraction(-1), Fraction(-1)]


def test_eigen_check_bounds_its_trial_division():
    # trial division up to the root of the constant term 10^14 + 7 took 2.1 s,
    # 10^7 divisions, each a line event; the cap fires after ~300 events
    with pytest.raises(ResourceCapError) as err, line_events(abelian, 5_000):
        unimodular_rational_eigen_check(IntegerMatrix.from_rows([[10**14 + 7, 1], [0, 1]]))
    assert (err.value.cap_name, err.value.cap_value) == ("eigen_divisors", EIGEN_DIVISOR_CAP)
    # no eigenvalue passes the largest absolute row sum, 1024, while the
    # root of the constant term 2^80 is 2^40: the eight searches up to 1024
    # take ~21,000 events
    scaled = IntegerMatrix.from_rows([[1024 * (i == j) for j in range(8)] for i in range(8)])
    with line_events(abelian, 50_000):
        eigen = unimodular_rational_eigen_check(scaled)
    assert eigen == (False, [Fraction(1024)] * 8)
    # the root of the constant term at the cap, then one past it
    c = EIGEN_DIVISOR_CAP ** 2
    assert unimodular_rational_eigen_check(IntegerMatrix.from_rows([[c, 0], [0, 1]])) == \
        (False, [Fraction(c), Fraction(1)])
    with pytest.raises(ResourceCapError):
        c = (EIGEN_DIVISOR_CAP + 1) ** 2
        unimodular_rational_eigen_check(IntegerMatrix.from_rows([[c, 0], [0, 1]]))


def test_eigen_check_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(599)
    x = sympy.Symbol("x")
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        roots = sympy.roots(sympy.Matrix(rows).charpoly(x).as_expr(), x, filter="Q")
        want = sorted((Fraction(int(r)) for r, k in roots.items() for _ in range(k)),
                      reverse=True)
        assert unimodular_rational_eigen_check(IntegerMatrix.from_rows(rows)) == \
            (abs(sympy.Matrix(rows).det()) == 1, want), rows


def test_eigen_check_reads_the_determinant_off_the_characteristic_polynomial(monkeypatch):
    """The constant term of the characteristic polynomial is (-1)^n det(m),
    so the check computes no separate determinant."""
    def no_det(self):
        raise AssertionError("det called")

    monkeypatch.setattr(IntegerMatrix, "det", no_det)
    rng = random.Random(627)
    for _ in range(20):
        assert unimodular_rational_eigen_check(random_unimodular(rng, rng.randint(1, 5)))[0]
    assert unimodular_rational_eigen_check(IntegerMatrix.from_rows([], 0)) == (True, [])
    assert unimodular_rational_eigen_check(IntegerMatrix.from_rows([[2, 1], [3, 1]]))[0]
    assert not unimodular_rational_eigen_check(IntegerMatrix.from_rows([[2, 1], [1, 3]]))[0]


def random_unimodular(rng: random.Random, n: int, ops: int = 10) -> IntegerMatrix:
    """Product of elementary matrices, so |det| = 1 by construction."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-3, 3)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif kind == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif kind == 2:
            a[i] = [-x for x in a[i]]
    return IntegerMatrix.from_rows(a, n)


def test_unimodular_rational_eigenvalues_are_units():
    rng = random.Random(2024)
    for _ in range(60):
        m = random_unimodular(rng, rng.randint(1, 5))
        uni, eigs = unimodular_rational_eigen_check(m)
        assert uni
        assert all(e in (Fraction(1), Fraction(-1)) for e in eigs)
