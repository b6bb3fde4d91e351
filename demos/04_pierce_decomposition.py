"""Idempotents and Pierce decompositions of commutative algebras.

Idempotent discovery is exact: every idempotent is a CRT polynomial in one
element of A, read off that element's relation p(t) = t^s u(t).  Some nonzero
idempotent exists whenever the algebra is not nil, and one factorization of u
gives the complete primitive system.
"""

import currentalg as ca


def show(vec):
    return "(" + ", ".join(str(c) for c in vec) + ")"


A = ca.m1(3)
print(f"{A.name}: unit = {show(ca.find_unit(A))}")
print("all nonzero idempotents:")
for e in ca.find_idempotents(A):
    print("  ", show(e))

# Pierce split at e1: A11 is the line through e1, A00 the complement.
split = ca.pierce(A, (1, 0, 0))
print(f"\npierce at e1: dim A11 = {split.a11.dim}, dim A00 = {split.a00.dim}")

# One split into connected unital components, one per primitive idempotent.
dec = ca.orthogonal_decomposition(A)
print(f"components: {len(dec.components)}, "
      f"idempotent system: {[show(e) for e in dec.idempotents]}")

# A nil summand has no idempotent; the decomposition reports it as the nil
# residual instead of inventing one.
B = ca.direct_sum(ca.m1(1), ca.null_algebra(1))
dec = ca.orthogonal_decomposition(B)
print(f"\n{B.name}: {len(dec.components)} unital component, "
      f"nil residual of dim {dec.nil_residual.dim}")

# Over Q the block algebra realRigid(2,1) is a field (no splitting); over
# Q(i) it gains the conjugate pair of idempotents (1/2, +-i/2).
C = ca.real_rigid(2, 1)
print(f"\n{C.name} over Q:", [show(e) for e in ca.find_idempotents(C)])
print(f"{C.name} over Qi:")
for e in ca.find_idempotents(ca.complexify(C)):
    print("  ", show(e))

# Nilalgebra test by subspace powers.
print("\nnull(2) is a nilalgebra:", ca.is_nilalgebra(ca.null_algebra(2)))
print("M1^2 is a nilalgebra:", ca.is_nilalgebra(ca.m1(2)))
