"""Current Lie algebras g (x) A and the tensor-derivation test.

A current Lie algebra is the tensor product of a Lie algebra g (dim p) and
an associative commutative algebra A (dim q), with bracket

    [X (x) a, Y (x) b] = [X, Y] (x) ab.

The flat basis is g-major: X_i (x) e_a sits at index (i-1)*q + a, so the
basis vectors sharing the same idempotent e_a form consecutive blocks after
the evident permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    LIE,
    ASSOC_COMM,
    Algebra,
    AlgebraError,
    is_derivation,
    require_identities,
)
from .linalg import Matrix, vec_add, vec_is_zero, vec_zero
from .scalars import zero as scalar_zero


def flat_index(i: int, a: int, q: int) -> int:
    """(i, a) -> (i-1)*q + a, all 1-based."""
    return (i - 1) * q + a


def unflat_index(u: int, q: int) -> tuple[int, int]:
    """Inverse of :func:`flat_index`; round-trips by construction."""
    return (u - 1) // q + 1, (u - 1) % q + 1


def current_algebra(g: Algebra, A: Algebra, name: str | None = None) -> Algebra:
    """g (x) A with constants C_ij^k * D_ab^c on the flat basis.

    Both inputs must pass their defining identities; the result then passes
    Jacobi automatically (Lie tensor Com gives Lie).
    """
    if g.kind != LIE:
        raise AlgebraError("first factor must be a Lie algebra")
    if A.kind != ASSOC_COMM:
        raise AlgebraError("second factor must be associative commutative")
    if g.field != A.field:
        raise AlgebraError("factors must share the base field")
    require_identities(g)
    require_identities(A)
    q = A.dim
    dim = g.dim * q
    products = {}
    for (i, j), gterms in g.tensor.items():
        if i > j:
            continue
        for (a, b), aterms in A.tensor.items():
            w = list(vec_zero(dim))
            for k, ck in gterms:
                for c, dc in aterms:
                    w[flat_index(k, c, q) - 1] = ck * dc
            products[(flat_index(i, a, q), flat_index(j, b, q))] = tuple(w)
    return Algebra(name or f"{g.name}(x){A.name}", LIE, g.field, dim, products)


@dataclass(frozen=True)
class PQResidual:
    """One nonzero Jacobi residual of the (s,t)-indexed polynomial system."""

    g_triple: tuple          # (i, j, k)
    a_triple: tuple          # (a, b, c)
    target: tuple            # (s, t)
    value: object            # nonzero scalar

    def flat_triple(self, q: int) -> tuple:
        (i, j, k), (a, b, c) = self.g_triple, self.a_triple
        return (flat_index(i, a, q), flat_index(j, b, q), flat_index(k, c, q))

    def flat_target(self, q: int) -> int:
        return flat_index(*self.target, q)


def jacobi_pq_residuals(g: Algebra, A: Algebra) -> list[PQResidual]:
    """Evaluate the double-sum Jacobi relations of the product constants.

    For each flat triple u < v < w, decoded as (X_i (x) e_a, X_j (x) e_b,
    X_k (x) e_c), and each target (s, t), computes

        sum_{l,r} C_ij^l C_lk^s D_ab^r D_rc^t
                + C_jk^l C_li^s D_bc^r D_ra^t
                + C_ki^l C_lj^s D_ca^r D_rb^t

    directly from the two constant tables (no flat algebra is built), and
    returns the nonzero entries.  Inputs need not pass their own identities;
    the list is empty exactly when the current algebra satisfies Jacobi.
    """
    if g.field != A.field:
        raise AlgebraError("factors must share the base field")
    p, q = g.dim, A.dim
    zero = scalar_zero(g.field)

    def C(i, j):
        return g.basis_product(i, j)

    def D(a, b):
        return A.basis_product(a, b)

    residuals = []
    dim = p * q
    for u in range(1, dim + 1):
        i, a = unflat_index(u, q)
        for v in range(u + 1, dim + 1):
            j, b = unflat_index(v, q)
            for w in range(v + 1, dim + 1):
                k, c = unflat_index(w, q)
                for s in range(1, p + 1):
                    for t in range(1, q + 1):
                        acc = zero
                        for l in range(1, p + 1):
                            cl1 = C(i, j)[l - 1]
                            cl2 = C(j, k)[l - 1]
                            cl3 = C(k, i)[l - 1]
                            s1 = cl1 * C(l, k)[s - 1] if cl1 != 0 else zero
                            s2 = cl2 * C(l, i)[s - 1] if cl2 != 0 else zero
                            s3 = cl3 * C(l, j)[s - 1] if cl3 != 0 else zero
                            if s1 == 0 and s2 == 0 and s3 == 0:
                                continue
                            for r in range(1, q + 1):
                                d1 = D(a, b)[r - 1]
                                d2 = D(b, c)[r - 1]
                                d3 = D(c, a)[r - 1]
                                if s1 != 0 and d1 != 0:
                                    acc = acc + s1 * d1 * D(r, c)[t - 1]
                                if s2 != 0 and d2 != 0:
                                    acc = acc + s2 * d2 * D(r, a)[t - 1]
                                if s3 != 0 and d3 != 0:
                                    acc = acc + s3 * d3 * D(r, b)[t - 1]
                        if acc != 0:
                            residuals.append(PQResidual(
                                g_triple=(i, j, k), a_triple=(a, b, c),
                                target=(s, t), value=acc))
    return residuals


def is_tensor_derivation(g: Algebra, A: Algebra, f1: Matrix, f2: Matrix) -> bool:
    """Is f1 (x) f2 a derivation of g (x) A?

    Evaluates the tensor-form condition verbatim on every basis 4-tuple
    (X_i, X_j, e_a, e_b):

        mu1(f1 X, Y) (x) mu2(f2 a, b) + mu1(X, f1 Y) (x) mu2(f2 b, a)
            - f1(mu1(X, Y)) (x) f2(mu2(a, b)) = 0,

    and independently checks the flat Leibniz rule for kron(f1, f2) on the
    current algebra.  The two must agree; a disagreement would be a bug and
    raises.
    """
    p, q = g.dim, A.dim
    if f1.shape != (p, p) or f2.shape != (q, q):
        raise AlgebraError("operator shapes must match the factor dimensions")

    def outer(xs, ys):
        return tuple(x * y for x in xs for y in ys)

    verbatim = True
    for i in range(1, p + 1):
        ei = g.basis_vector(i)
        f1ei = f1.apply(ei)
        for j in range(1, p + 1):
            ej = g.basis_vector(j)
            for a in range(1, q + 1):
                ea = A.basis_vector(a)
                f2ea = f2.apply(ea)
                for b in range(1, q + 1):
                    eb = A.basis_vector(b)
                    term = vec_add(
                        outer(g.multiply(f1ei, ej), A.multiply(f2ea, eb)),
                        outer(g.multiply(ei, f1.apply(ej)),
                              A.multiply(f2.apply(eb), ea)),
                    )
                    last = outer(f1.apply(g.basis_product(i, j)),
                                 f2.apply(A.basis_product(a, b)))
                    if not vec_is_zero(tuple(x - y for x, y in zip(term, last))):
                        verbatim = False
                        break
                if not verbatim:
                    break
            if not verbatim:
                break
        if not verbatim:
            break

    flat = is_derivation(current_algebra(g, A), f1.kron(f2))
    if flat != verbatim:
        raise AssertionError(
            "tensor-form and flat Leibniz evaluations disagree; "
            "this is a bug in the derivation predicates")
    return verbatim
