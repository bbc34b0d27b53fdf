"""Exact arithmetic in finitely generated abelian groups.

Everything here runs on arbitrary-precision Python integers; there is no
floating point and no fixed-width arithmetic anywhere.  The group model is
the invariant-factor form

    Z^rank  (+)  Z/d_1 (+) ... (+) Z/d_t      with d_1 | d_2 | ... | d_t,

all d_j >= 2.  Elements carry integer coordinates on the free part and
residues 0 <= r_j < d_j on the torsion part.

JSON formats (stable, used by the CLI and the certificate files):

* group:    ``{"rank": r, "torsion": [d_1, ..., d_t]}``
* element:  ``{"free": [...], "torsion": [...]}``
* matrix:   ``{"rows": r, "cols": c, "entries": [...]}`` row-major
* solution set (output only): the view :func:`solution_set_json` writes
  of a :func:`solve_scalar` result, ``{"kind": "empty"}`` or
  ``{"kind": "progression", "base": b, "mod": m}`` where ``mod`` 0 means
  the singleton {b} and ``mod`` m > 0 means {b + q*m : q in Z} with
  0 <= b < m.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._frozen import Frozen
from .degsets import DegreeSet, _congruence
from .errors import GroupMismatchError, InputError, ResourceCapError

# fractions loads decimal and numbers, ~4 ms of a cold start, so the one
# function that makes a Fraction imports it
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "FgAbelianGroup",
    "GroupElement",
    "IntegerMatrix",
    "smith_normal_form",
    "canonicalize_group",
    "is_torsion",
    "solve_scalar",
    "solution_set_json",
    "lattice_compatible",
    "apply_matrix",
    "unimodular_rational_eigen_check",
    "SNF_DIGITS_CAP",
    "SNF_SIZE_CAP",
    "EIGEN_DIVISOR_CAP",
]

# decimal digits an entry of the Smith normal form's working matrices may
# reach: Python's default bound on int -> str, past which no entry of the
# result could be printed or written as JSON
SNF_DIGITS_CAP = 4300
_SNF_ENTRY_BOUND = 10 ** SNF_DIGITS_CAP
# entries of U and V (rows^2 + cols^2) the Smith normal form may build:
# they are square and as wide as the input, so a 1 x 1023 matrix, within
# the cap, takes ~0.3 s, where a 1 x 3000 one took ~12 s through ``snf``
SNF_SIZE_CAP = 1 << 20
# trial divisions the eigenvalue check may make per rational eigenvalue it
# looks for: a fraction of a second each
EIGEN_DIVISOR_CAP = 1 << 20


# ---------------------------------------------------------------------------
# matrices


class IntegerMatrix(Frozen):
    """Immutable integer matrix, row-major.

    >>> IntegerMatrix.from_rows([[1, 2], [3, 4]]).det()
    -2
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise InputError("entry rows do not match declared row count")
        for row in entries:
            if len(row) != cols:
                raise InputError("entry row length does not match column count")
        set_rows, set_cols, set_entries = self._setters
        set_rows(self, rows)
        set_cols(self, cols)
        set_entries(self, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        tup = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(tup[0]) if tup else 0
        return cls(len(tup), cols, tup)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise InputError("matrix shapes do not compose")
        rows = []
        for i in range(self.rows):
            a_row = self.entries[i]
            rows.append(tuple(
                sum(a_row[k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ))
        return IntegerMatrix(self.rows, other.cols, tuple(rows))

    def apply(self, vector: Sequence[int]) -> list[int]:
        if len(vector) != self.cols:
            raise InputError("vector length does not match column count")
        return [sum(row[j] * vector[j] for j in range(self.cols)) for row in self.entries]

    def det(self) -> int:
        """Exact determinant by the Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss: the division is exact.
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_json(self) -> dict:
        flat = [x for row in self.entries for x in row]
        return {"rows": self.rows, "cols": self.cols, "entries": flat}

    @classmethod
    def from_json(cls, obj: dict) -> "IntegerMatrix":
        """Matrix from a payload valid under the ``matrix`` schema."""
        rows, cols, flat = int(obj["rows"]), int(obj["cols"]), obj["entries"]
        if len(flat) != rows * cols:
            raise InputError("matrix entries length is not rows*cols")
        flat = tuple(map(int, flat))
        return cls(rows, cols, tuple(flat[i * cols:(i + 1) * cols] for i in range(rows)))


# ---------------------------------------------------------------------------
# groups and elements


class FgAbelianGroup(Frozen):
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` must be a divisibility chain of integers >= 2.  Use
    :func:`canonicalize_group` to reach this form from an arbitrary
    relation matrix.

    >>> FgAbelianGroup(1, (2, 4)).generator_count
    3
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        if rank < 0:
            raise InputError("rank must be nonnegative")
        torsion = tuple(map(int, torsion))
        for d in torsion:
            if d < 2:
                raise InputError("torsion invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise InputError("torsion factors must form a divisibility chain")
        set_rank, set_torsion = self._setters
        set_rank(self, rank)
        set_torsion(self, torsion)

    @property
    def generator_count(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank, (0,) * len(self.torsion))

    def element(self, free: Iterable[int] = (), torsion: Iterable[int] = ()) -> "GroupElement":
        return GroupElement(self, tuple(free), tuple(torsion))

    def elements(self) -> Iterator["GroupElement"]:
        """Iterate the whole group; only valid for finite groups."""
        if not self.is_finite:
            raise InputError("cannot enumerate an infinite group")
        def rec(j: int, acc: list[int]) -> Iterator[GroupElement]:
            if j == len(self.torsion):
                yield GroupElement(self, (), tuple(acc))
                return
            for r in range(self.torsion[j]):
                yield from rec(j + 1, acc + [r])
        return rec(0, [])

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj: dict) -> "FgAbelianGroup":
        """Group from a payload valid under the ``group`` schema."""
        return cls(int(obj["rank"]), obj.get("torsion", ()))


class GroupElement(Frozen):
    """Element of an :class:`FgAbelianGroup`; torsion residues stay reduced.

    >>> g = FgAbelianGroup(1, (6,))
    >>> g.element([2], [10]).torsion
    (4,)
    """

    __slots__ = ("group", "free", "torsion")

    def __init__(self, group: FgAbelianGroup, free: tuple[int, ...],
                 torsion: tuple[int, ...]) -> None:
        free = tuple(map(int, free))
        tors = tuple(map(int, torsion))
        if len(free) != group.rank:
            raise InputError("free coordinate count does not match group rank")
        if len(tors) != len(group.torsion):
            raise InputError("torsion coordinate count does not match group")
        set_group, set_free, set_torsion = self._setters
        set_group(self, group)
        set_free(self, free)
        set_torsion(self, tuple(r % d for r, d in zip(tors, group.torsion)))

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise GroupMismatchError("elements belong to different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.free), tuple(-a for a in self.torsion))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        # built directly: the coordinates already fit the group, so only the
        # torsion residues need reducing again, and only when there are any
        out = object.__new__(GroupElement)
        set_group, set_free, set_torsion = self._setters
        group = self.group
        set_group(out, group)
        set_free(out, tuple([k * a for a in self.free]))
        set_torsion(out, tuple([k * r % d for r, d in zip(self.torsion, group.torsion)])
                    if group.torsion else ())
        return out

    __rmul__ = scale

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.free) and all(r == 0 for r in self.torsion)

    def to_json(self) -> dict:
        return {"free": list(self.free), "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, group: FgAbelianGroup, obj: dict) -> "GroupElement":
        """Element of ``group`` from a payload valid under the ``element``
        schema."""
        return cls(group, obj.get("free", ()), obj.get("torsion", ()))


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return unimodular (U, D, V) with U * m * V = D in Smith normal form.

    D is diagonal with nonnegative entries forming a divisibility chain.
    Pivot choice is the smallest nonzero absolute value in the remaining
    block, ties broken by lowest (row, col), so identical inputs always
    produce identical output.

    Entries of the working matrix, U and V can grow without bound during
    elimination; each row or column written is checked, and
    :class:`ResourceCapError` is raised once an entry has more than
    ``SNF_DIGITS_CAP`` decimal digits.  It is raised before any work when
    U and V would hold more than ``SNF_SIZE_CAP`` entries.

    >>> d = smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]]))[1]
    >>> [d[i, i] for i in range(2)]
    [1, 6]
    """
    r, c = m.rows, m.cols
    if r * r + c * c > SNF_SIZE_CAP:
        raise ResourceCapError(
            "snf_size", SNF_SIZE_CAP,
            f"Smith normal form of a {r}x{c} matrix: U and V would hold "
            f"{r * r + c * c} entries, beyond the cap of {SNF_SIZE_CAP}",
        )
    w = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(m.entries)]
    w += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]
    _eliminate(w, r, c)
    return (
        IntegerMatrix.from_rows([row[c:] for row in w[:r]], r),
        IntegerMatrix.from_rows([row[:c] for row in w[:r]], c),
        IntegerMatrix.from_rows([row[:c] for row in w[r:]], c),
    )


def _eliminate(w: list[list[int]], r: int, c: int) -> None:
    """Bring the top-left ``r`` x ``c`` block of ``w`` to Smith normal form
    in place, as :func:`smith_normal_form` describes.  Row operations run
    along the whole row and column operations down the whole column, so
    the columns right of the block become U and the rows below it V."""
    def bounded(line: list[int], name: str) -> None:
        if line and (max(line) >= _SNF_ENTRY_BOUND or min(line) <= -_SNF_ENTRY_BOUND):
            raise ResourceCapError(
                "snf_digits", SNF_DIGITS_CAP,
                f"Smith normal form of a {r}x{c} matrix: an entry of {name} "
                f"passed {SNF_DIGITS_CAP} decimal digits while placing pivot "
                f"{t + 1} of {min(r, c)}",
            )

    def swap_rows(i: int, j: int) -> None:
        w[i], w[j] = w[j], w[i]

    def swap_cols(i: int, j: int) -> None:
        for row in w:
            row[i], row[j] = row[j], row[i]

    def row_sub(i: int, j: int, q: int) -> None:
        # row i -= q * row j
        w[i] = [x - q * y for x, y in zip(w[i], w[j])]
        bounded(w[i][:c], "the matrix")
        bounded(w[i][c:], "U")

    def col_sub(i: int, j: int, q: int) -> None:
        # col i -= q * col j
        for row in w:
            row[i] -= q * row[j]
        bounded([row[i] for row in w[:r]], "the matrix")
        bounded([row[i] for row in w[r:]], "V")

    for t in range(min(r, c)):
        # pivot: smallest |value| != 0 in the lower-right block, lowest (row, col) on ties
        best: tuple[int, int] | None = None
        for i in range(t, r):
            for j in range(t, c):
                val = w[i][j]
                if val != 0 and (best is None or abs(val) < abs(w[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            if w[t][t] < 0:
                w[t] = [-x for x in w[t]]
            pivot = w[t][t]
            # clear the column under the pivot
            restart = False
            for i in range(t + 1, r):
                if w[i][t] != 0:
                    q = w[i][t] // pivot
                    row_sub(i, t, q)
                    if w[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear the row right of the pivot
            for j in range(t + 1, c):
                if w[t][j] != 0:
                    q = w[t][j] // pivot
                    col_sub(j, t, q)
                    if w[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # divisibility sweep: the pivot must divide the whole block
            offender = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if w[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)


def canonicalize_group(relations: IntegerMatrix) -> FgAbelianGroup:
    """Group presented as Z^cols modulo the row space of ``relations``.

    The elimination runs on the relation matrix alone: no U or V grows.

    >>> canonicalize_group(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    FgAbelianGroup(rank=0, torsion=(6,))
    >>> canonicalize_group(IntegerMatrix(1, 2, ((2, 0),)))
    FgAbelianGroup(rank=1, torsion=(2,))
    """
    r, c = relations.rows, relations.cols
    w = [list(row) for row in relations.entries]
    _eliminate(w, r, c)
    nonzero = [w[i][i] for i in range(min(r, c)) if w[i][i] != 0]
    torsion = tuple(x for x in nonzero if x >= 2)
    return FgAbelianGroup(c - len(nonzero), torsion)


# ---------------------------------------------------------------------------
# torsion and scalar equations


def is_torsion(a: GroupElement) -> tuple[bool, int | None]:
    """Whether ``a`` has finite order, and the order when it does.

    The order of a residue r modulo d is d / gcd(d, r); the order of ``a``
    is the lcm over its torsion coordinates.

    >>> is_torsion(FgAbelianGroup(0, (6,)).element(torsion=[2]))
    (True, 3)
    """
    if any(x != 0 for x in a.free):
        return (False, None)
    order = 1
    for r, d in zip(a.torsion, a.group.torsion):
        order = lcm(order, d // gcd(d, r))
    return (True, order)


def solve_scalar(a: GroupElement, c: GroupElement) -> DegreeSet:
    """All integers k with k*a = c: no integer, one integer, or one
    arithmetic progression.

    Free coordinates force exact divisions; torsion coordinates are linear
    congruences, combined by the Chinese remainder theorem.  When ``a`` is
    torsion and the result is nonempty its modulus equals the order of
    ``a``.

    >>> z = FgAbelianGroup(1)
    >>> solve_scalar(z.element([2]), z.element([6])).render()
    '{3}'
    >>> solve_scalar(z.element([2]), z.element([3])).is_empty
    True
    >>> z6 = FgAbelianGroup(0, (6,))
    >>> solve_scalar(z6.element(torsion=[2]), z6.element(torsion=[4])).render()
    '(2 mod 3)'
    """
    if a.group != c.group:
        raise GroupMismatchError("solve_scalar needs both elements in one group")
    out = DegreeSet((), ((0, 1),))  # all integers
    for av, cv in zip(a.free, c.free):
        if av == 0:
            if cv != 0:
                return DegreeSet()
            continue
        if cv % av != 0:
            return DegreeSet()
        out = out & DegreeSet((cv // av,))
        if out.is_empty:
            return out
    for av, cv, d in zip(a.torsion, c.torsion, a.group.torsion):
        hit = _congruence(av, cv, d)
        out = (out & DegreeSet((), (hit,))) if hit else DegreeSet()
        if out.is_empty:
            return out
    return out


def solution_set_json(s: DegreeSet) -> dict:
    """The ``solutionSet`` view of a result of :func:`solve_scalar`.

    >>> solution_set_json(DegreeSet((3,)))
    {'kind': 'progression', 'base': 3, 'mod': 0}
    """
    if s.progressions:
        (base, mod), = s.progressions
        return {"kind": "progression", "base": base, "mod": mod}
    if s.finite:
        (k,) = s.finite
        return {"kind": "progression", "base": k, "mod": 0}
    return {"kind": "empty"}


# ---------------------------------------------------------------------------
# homomorphisms given by integer matrices


def lattice_compatible(m: IntegerMatrix, domain: FgAbelianGroup, codomain: FgAbelianGroup) -> bool:
    """Whether ``m`` defines a homomorphism ``domain -> codomain``.

    Column convention: column j is the image of the j-th canonical
    generator (free generators first, then torsion).  The matrix is a
    homomorphism iff it maps each relation d_j * gen_j into the codomain's
    relation lattice: torsion generators must land on free coordinates
    with value 0 and on torsion coordinates with d_j * entry == 0 mod d'_i.
    """
    if m.rows != codomain.generator_count or m.cols != domain.generator_count:
        return False
    for jt, dj in enumerate(domain.torsion):
        j = domain.rank + jt
        for i in range(codomain.rank):
            if m[i, j] != 0:
                return False
        for it, di in enumerate(codomain.torsion):
            if (dj * m[codomain.rank + it, j]) % di != 0:
                return False
    return True


def apply_matrix(m: IntegerMatrix, a: GroupElement, codomain: FgAbelianGroup) -> GroupElement:
    """Image of ``a`` under the homomorphism ``m`` (column convention)."""
    coords = m.apply(list(a.free) + list(a.torsion))
    return GroupElement(codomain, tuple(coords[: codomain.rank]), tuple(coords[codomain.rank:]))


# ---------------------------------------------------------------------------
# unimodularity and rational eigenvalues


def _char_poly(m: IntegerMatrix) -> list[int]:
    """Coefficients of det(xI - m), descending powers, leading 1.

    Faddeev-LeVerrier recursion; every division is exact over Z.
    """
    n = m.rows
    coeffs = [1]
    prod = IntegerMatrix.from_rows([[0] * n for _ in range(n)], n)  # m * M_{k-1}
    for k in range(1, n + 1):
        mk = IntegerMatrix.from_rows(
            [[prod[i, j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)], n
        )
        prod = m.mul(mk)
        tr = sum(prod[i, i] for i in range(n))
        assert tr % k == 0
        coeffs.append(-(tr // k))
    return coeffs


def _poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs: Sequence[int], root: int) -> list[int]:
    """Divide a monic polynomial by (x - root); remainder must be 0."""
    out: list[int] = []
    acc = 0
    for c in coeffs[:-1]:
        acc = acc * root + c
        out.append(acc)
    assert acc * root + coeffs[-1] == 0
    return out


def _divisors(n: int, bound: int) -> list[int]:
    """The positive divisors of ``n`` up to ``bound``, ascending, by trial
    division up to the lesser of ``bound`` and the square root of |n|.
    Raises :class:`ResourceCapError` when that is more than
    ``EIGEN_DIVISOR_CAP`` divisions."""
    n = abs(n)
    stop = min(isqrt(n), bound)
    if stop > EIGEN_DIVISOR_CAP:
        raise ResourceCapError(
            "eigen_divisors", EIGEN_DIVISOR_CAP,
            f"finding the rational eigenvalues would take more than "
            f"{EIGEN_DIVISOR_CAP} trial divisions",
        )
    small = [d for d in range(1, stop + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if stop < n // d <= bound]


def unimodular_rational_eigen_check(m: IntegerMatrix) -> tuple[bool, list[Fraction]]:
    """(|det| == 1, rational eigenvalues with multiplicity, descending).

    The characteristic polynomial is monic with integer coefficients, so
    by the rational-root test every rational eigenvalue is an integer
    dividing the constant term; no eigenvalue is larger in magnitude than
    the largest absolute row sum.  Raises :class:`ResourceCapError` when
    the divisors to try pass ``EIGEN_DIVISOR_CAP``.

    >>> unimodular_rational_eigen_check(IntegerMatrix.from_rows([[0, 1], [-1, 0]]))
    (True, [])
    >>> unimodular_rational_eigen_check(IntegerMatrix.from_rows([[2, 0], [0, 1]]))
    (False, [Fraction(2, 1), Fraction(1, 1)])
    """
    if m.rows != m.cols:
        raise InputError("eigen check needs a square matrix")
    coeffs = _char_poly(m)
    unimodular = abs(coeffs[-1]) == 1  # the constant term is (-1)^n det(m)
    bound = max((sum(map(abs, row)) for row in m.entries), default=0)
    roots: list[int] = []
    while len(coeffs) > 1 and coeffs[-1] == 0:
        roots.append(0)
        coeffs = coeffs[:-1]
    while len(coeffs) > 1:
        found = None
        for d in _divisors(coeffs[-1], bound):
            for cand in (d, -d):
                if _poly_eval(coeffs, cand) == 0:
                    found = cand
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        coeffs = _poly_deflate(coeffs, found)
    roots.sort(reverse=True)
    from fractions import Fraction
    return (unimodular, [Fraction(r) for r in roots])
