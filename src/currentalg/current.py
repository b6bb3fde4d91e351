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
from itertools import combinations, product

from . import scalars
from .algebra import (
    LIE,
    ASSOC_COMM,
    Algebra,
    AlgebraError,
    _jacobi,
    _term,
    is_derivation,
    require_identities,
)
from .linalg import Matrix, vec_add, vec_is_zero


def flat_index(i: int, a: int, q: int) -> int:
    """(i, a) -> (i-1)*q + a, all 1-based."""
    return (i - 1) * q + a


def unflat_index(u: int, q: int) -> tuple[int, int]:
    """Inverse of :func:`flat_index`; round-trips by construction."""
    return (u - 1) // q + 1, (u - 1) % q + 1


def current_algebra(g: Algebra, A: Algebra, name: str | None = None) -> Algebra:
    """g (x) A with constants C_ij^k * D_ab^c on the flat basis: the product
    tensor of the two factor tensors.

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
    return Algebra._of(name or f"{g.name}(x){A.name}", LIE, g.field, g.dim * A.dim,
                       _current_tensor(g.tensor, A.tensor, A.dim), True)


@dataclass(frozen=True)
class PQResidual:
    """One nonzero Jacobi residual of the (s,t)-indexed polynomial system."""

    g_triple: tuple          # (i, j, k)
    a_triple: tuple          # (a, b, c)
    target: tuple            # (s, t)
    value: object            # nonzero field scalar

    def flat_triple(self, q: int) -> tuple:
        (i, j, k), (a, b, c) = self.g_triple, self.a_triple
        return (flat_index(i, a, q), flat_index(j, b, q), flat_index(k, c, q))

    def flat_target(self, q: int) -> int:
        return flat_index(*self.target, q)


def _current_tensor(C: dict, D: dict, q: int) -> dict:
    """The g-major tensor of the product of two factor tensors: the ordered
    pair (X_i (x) e_a, X_j (x) e_b) maps to the terms C_ij^k D_ab^c at (k, c),
    each read through :func:`algebra._term`."""
    return {(flat_index(i, a, q), flat_index(j, b, q)):
            tuple((flat_index(k, c, q), _term(x * y)) for k, x in cterms for c, y in dterms)
            for (i, j), cterms in C.items() for (a, b), dterms in D.items()}


def jacobi_pq_residuals(g: Algebra, A: Algebra) -> list[PQResidual]:
    """Evaluate the double-sum Jacobi relations of the product constants.

    For each flat triple u < v < w, decoded as (X_i (x) e_a, X_j (x) e_b,
    X_k (x) e_c), and each target (s, t), computes

        sum_{l,r} C_ij^l C_lk^s D_ab^r D_rc^t
                + C_jk^l C_li^s D_bc^r D_ra^t
                + C_ki^l C_lj^s D_ca^r D_rb^t

    as the cyclic term sum of ``algebra._jacobi`` on the product tensor of
    the two factor tensors, and returns the nonzero entries in the order of
    (u, v, w) and then (s, t).  Inputs need not pass their own identities;
    the list is empty exactly when the current algebra satisfies Jacobi.
    """
    if g.field != A.field:
        raise AlgebraError("factors must share the base field")
    q = A.dim
    T = _current_tensor(g.tensor, A.tensor, q)
    residuals = []
    for u, v, w in combinations(range(1, g.dim * q + 1), 3):
        acc = {}
        _jacobi(T, T, u, v, w, acc)
        for st in sorted(acc):
            if acc[st] != 0:
                (i, a), (j, b), (k, c) = (unflat_index(x, q) for x in (u, v, w))
                residuals.append(PQResidual(
                    g_triple=(i, j, k), a_triple=(a, b, c), target=unflat_index(st, q),
                    value=scalars.coerce(g.field, acc[st])))
    return residuals


def is_tensor_derivation(g: Algebra, A: Algebra, f1: Matrix, f2: Matrix) -> bool:
    """Is f1 (x) f2 a derivation of g (x) A?

    Evaluates the tensor-form condition verbatim on every basis 4-tuple
    (X_i, X_j, e_a, e_b):

        mu1(f1 X, Y) (x) mu2(f2 a, b) + mu1(X, f1 Y) (x) mu2(f2 b, a)
            - f1(mu1(X, Y)) (x) f2(mu2(a, b)) = 0,

    and independently applies the assembled Leibniz system of the current
    algebra to kron(f1, f2).  The two must agree; a disagreement would be a
    bug and raises.
    """
    p, q = g.dim, A.dim
    if f1.shape != (p, p) or f2.shape != (q, q):
        raise AlgebraError("operator shapes must match the factor dimensions")

    def outer(xs, ys):
        return tuple(x * y for x in xs for y in ys)

    def holds(i, j, a, b):
        ei, ej = g.basis_vector(i), g.basis_vector(j)
        ea, eb = A.basis_vector(a), A.basis_vector(b)
        term = vec_add(
            outer(g.multiply(f1.apply(ei), ej), A.multiply(f2.apply(ea), eb)),
            outer(g.multiply(ei, f1.apply(ej)), A.multiply(f2.apply(eb), ea)),
        )
        last = outer(f1.apply(g.basis_product(i, j)),
                     f2.apply(A.basis_product(a, b)))
        return vec_is_zero(tuple(x - y for x, y in zip(term, last)))

    gs, As = range(1, p + 1), range(1, q + 1)
    verbatim = all(holds(*t) for t in product(gs, gs, As, As))

    flat = is_derivation(current_algebra(g, A), f1.kron(f2))
    if flat != verbatim:
        raise AssertionError(
            "tensor-form and flat Leibniz evaluations disagree; "
            "this is a bug in the derivation predicates")
    return verbatim
