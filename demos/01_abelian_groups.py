"""Scalar equations in finitely generated abelian groups.

Everything downstream reduces to one question: for which integers k does
k*a = c hold in a group like Z^2 x Z/6?  This walk-through shows the
pieces that answer it exactly.
"""

from circledeg import (
    FgAbelianGroup,
    IntegerMatrix,
    canonicalize_group,
    is_torsion,
    smith_normal_form,
    solve_scalar,
)

# A presentation matrix: its rows are relations among three generators.
relations = IntegerMatrix.from_rows([
    [2, 0, 0],
    [0, 6, 0],
])

u, d, v = smith_normal_form(relations)
print("Smith normal form diagonal:", [d[i, i] for i in range(2)])
# The diagonal is a divisibility chain (2 | 6 here), so the invariant
# factors can be read off directly.

g = canonicalize_group(relations)
print("presented group:", g)          # rank 1 free part, torsion 2, 6

# Solving k*a = c.  With a free coordinate the answer is pinned to at
# most one k; pure torsion gives a whole arithmetic progression.
z = FgAbelianGroup(1)
print("2k = 6 over Z:", solve_scalar(z.element([2]), z.element([6])).render())
print("2k = 3 over Z:", solve_scalar(z.element([2]), z.element([3])).render())

z6 = FgAbelianGroup(0, (6,))
a = z6.element(torsion=[2])
b = z6.element(torsion=[4])
sols = solve_scalar(a, b)
print("2k = 4 in Z/6:", sols.render(), "-> k in", sols.window(-10, 10))

# The modulus of a nonempty solution set over a torsion element equals
# the order of that element.
print("order of a:", is_torsion(a))

# Mixed case: the free part and the torsion part must agree.
mixed = FgAbelianGroup(1, (6,))
exact = solve_scalar(mixed.element([2], [2]), mixed.element([6], [0]))
print("solution in Z x Z/6:", exact.render())  # k = 3 works for both parts
none = solve_scalar(mixed.element([2], [2]), mixed.element([6], [1]))
print("incompatible torsion:", none.render())
