"""Torus families on the abelian algebra and the real rigid tables.

The k-th family replaces k-1 coordinate pairs of the diagonal torus by
2x2 blocks.  Both printed forms of the block generator ship: the plain
swap ("as_printed") and the rotation, which is the form the solvable
bracket table realizes and the one whose minimal polynomial t^2 + 1 has
no rational eigenvalues.
"""

import currentalg as ca

n = 4
for k in range(1, n // 2 + 2):
    gens = ca.torus_generators(n, k, ca.ROTATION)
    kinds = ["diag" if all(g.rows[i][j] == 0
                           for i in range(n) for j in range(n) if i != j)
             else "rot" for g in gens]
    print(f"t_{k} on abelian({n}): {len(gens)} generators ({kinds})")
    assert all(ca.operator_analysis(g).is_semisimple for g in gens)

swap = ca.torus_generators(2, 2, ca.AS_PRINTED)[0]
rot = ca.torus_generators(2, 2, ca.ROTATION)[0]
print("\nswap min poly:   ", ca.operator_analysis(swap).min_poly)
print("rotation min poly:", ca.operator_analysis(rot).min_poly)

# The real rigid commutative tables: s rotation-type blocks, the rest
# plain idempotents.  Tensoring with r2 reproduces the solvable bracket
# table t_n + a_n exactly, after swapping indices inside each block.
for (n, s) in ((2, 1), (3, 1), (4, 2)):
    A = ca.real_rigid(n, s)
    cur = ca.current_algebra(ca.r2(), A)
    perm = ca.toplus_current_permutation(n, s)
    moved = ca.change_basis(cur, ca.permutation_matrix(perm))
    print(f"r2 (x) realRigid({n},{s}) == t_oplus_a({n},{s}):",
          moved == ca.t_oplus_a(n, s))

# Over Q(i) each block splits into a conjugate pair of idempotents, so the
# complexification is the fully split algebra M1^n, exactly.  The basis
# change P is computed: its columns are the primitive idempotents.
for (n, s) in ((2, 1), (4, 2)):
    A = ca.complexify(ca.real_rigid(n, s))
    P = ca.Matrix.from_columns(ca.orthogonal_decomposition(A).idempotents)
    print(f"\nP for complexified realRigid({n},{s}), one idempotent per column:")
    for row in P.rows:
        print("   ", "  ".join(f"{str(x):>6}" for x in row))
    ok = ca.change_basis(A, P) == ca.complexify(ca.m1(n))
    print(f"complexified realRigid({n},{s}) == M1^{n}:", ok)
    assert ok
