"""Chevalley-Eilenberg and Hochschild/Harrison cohomology in low degrees.

Sign convention for the Chevalley coboundary with adjoint coefficients:

    (d phi)(x_0, ..., x_k) = sum_i (-1)^i [x_i, phi(..., x_i omitted, ...)]
        + sum_{i<j} (-1)^(i+j) phi([x_i, x_j], ..., x_i, x_j omitted, ...)

which satisfies d.d = 0 and makes Z^1 exactly the derivation algebra.
Cochain bases are ordered lexicographically on index tuples with the value
coordinate innermost, so coboundary matrices have reproducible shapes.

Each operator (Chevalley d^0..d^2, Hochschild d^2; the Leibniz system lives in
``algebra``) is assembled row by row from its formula and ``Algebra.tensor``;
Hochschild d^1 is minus the Leibniz system.  The Jacobiator route in ``rigidity``
and the decomposable evaluators below stay independent of these rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, product
from typing import Mapping, Optional, Sequence

from . import scalars
from .algebra import (ASSOC_COMM, LIE, Algebra, AlgebraError, _jacobi, _leibniz_rows, _pairs,
                      _tensor, require_identities)
from .current import _current_tensor, current_algebra, flat_index
from .linalg import (
    Matrix,
    Subspace,
    _entry,
    _rank,
    kernel_basis,
    rank,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_zero,
)
from .structure import subspace_product


def increasing_tuples(n: int, k: int) -> list:
    return list(combinations(range(1, n + 1), k))


def _sort_with_sign(tup):
    """(sorted tuple, permutation sign); sign 0 on repeated indices."""
    items = list(tup)
    if len(set(items)) != len(items):
        return tuple(items), 0
    sign = 1
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                items[i], items[j] = items[j], items[i]
                sign = -sign
    return tuple(items), sign


def _cochain_data(dim: int, data, key) -> dict:
    """The nonzero vectors of ``data`` (a mapping or pairs) by the index tuples
    that ``key`` checks and stores, sorted; a tuple given twice needs one vector."""
    table = {}
    for tup, vec in (data.items() if hasattr(data, "items") else data):
        tup, vec = key(tup), tuple(_entry(x) for x in vec)
        if len(vec) != dim:
            raise AlgebraError("cochain values must have the algebra dimension")
        if tup in table and table[tup] != vec:
            raise AlgebraError(f"inconsistent duplicate entry at {tup}")
        table[tup] = vec
    return {k: v for k, v in sorted(table.items()) if not vec_is_zero(v)}


class ChevalleyCochain:
    """Alternating k-cochain (k <= 3) with coefficients in the algebra.

    Values are stored on strictly increasing index tuples only; evaluation
    on any other tuple applies the permutation sign, and repeated indices
    give zero.  A 0-cochain is a single vector stored at the empty tuple.
    A tuple given twice must carry the same vector both times.
    """

    __slots__ = ("degree", "dim", "data")

    def __init__(self, degree: int, dim: int, data: Mapping = ()):
        if degree not in (0, 1, 2, 3):
            raise AlgebraError("supported cochain degrees are 0..3")
        self.degree = degree
        self.dim = dim
        self.data = _cochain_data(dim, data, self._key)

    def _key(self, tup) -> tuple:
        tup = tuple(tup)
        if len(tup) != self.degree:
            raise AlgebraError(f"tuple {tup} has wrong arity for degree {self.degree}")
        if any(not 1 <= i <= self.dim for i in tup):
            raise AlgebraError(f"tuple {tup} out of range 1..{self.dim}")
        if list(tup) != sorted(set(tup)):
            raise AlgebraError(f"tuple {tup} must be strictly increasing")
        return tup

    @classmethod
    def zero(cls, degree: int, dim: int) -> "ChevalleyCochain":
        return cls(degree, dim)

    def value(self, tup) -> tuple:
        stup, sign = _sort_with_sign(tuple(tup))
        if sign == 0:
            return vec_zero(self.dim)
        vec = self.data.get(stup)
        if vec is None:
            return vec_zero(self.dim)
        return vec if sign == 1 else vec_scale(-1, vec)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, ChevalleyCochain):
            return NotImplemented
        return (self.degree, self.dim, self.data) == (
            other.degree, other.dim, other.data)

    def __repr__(self):
        return f"ChevalleyCochain(deg {self.degree}, dim {self.dim}, {len(self.data)} entries)"


class SymmetricCochain:
    """Symmetric bilinear map with values in the algebra, stored on i <= j."""

    __slots__ = ("dim", "data")

    def __init__(self, dim: int, data: Mapping = ()):
        self.dim = dim
        self.data = _cochain_data(dim, data, self._key)

    def _key(self, pair) -> tuple:
        i, j = pair
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise AlgebraError(f"pair {(i, j)} out of range 1..{self.dim}")
        return (min(i, j), max(i, j))

    @classmethod
    def zero(cls, dim: int) -> "SymmetricCochain":
        return cls(dim)

    def value(self, i: int, j: int) -> tuple:
        return self.data.get((min(i, j), max(i, j)), vec_zero(self.dim))

    def eval_pair(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear evaluation on two coordinate vectors."""
        acc = vec_zero(self.dim)
        for i, ci in enumerate(x, start=1):
            if ci == 0:
                continue
            for j, cj in enumerate(y, start=1):
                if cj != 0:
                    acc = vec_add(acc, vec_scale(ci * cj, self.value(i, j)))
        return acc

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, SymmetricCochain):
            return NotImplemented
        return (self.dim, self.data) == (other.dim, other.data)

    def __repr__(self):
        return f"SymmetricCochain(dim {self.dim}, {len(self.data)} entries)"


def bracket_cochain(g: Algebra) -> ChevalleyCochain:
    """The multiplication of a Lie algebra as a degree-2 cochain."""
    if g.kind != LIE:
        raise AlgebraError("bracket_cochain needs a Lie algebra")
    return ChevalleyCochain(2, g.dim, {(i, j): g.basis_product(i, j) for i, j in g.tensor if i < j})

def multiplication_cochain(A: Algebra) -> SymmetricCochain:
    """The multiplication of a commutative algebra as a symmetric cochain."""
    if A.kind != ASSOC_COMM:
        raise AlgebraError("multiplication_cochain needs an assoc-comm algebra")
    return SymmetricCochain(A.dim, {(i, j): A.basis_product(i, j) for i, j in A.tensor if i <= j})


# ---------------------------------------------------------------------------
# Chevalley coboundary and dimensions
# ---------------------------------------------------------------------------

def chevalley_delta_matrix(g: Algebra, k: int) -> Matrix:
    """Matrix of the degree-k coboundary d: C^k -> C^(k+1), read off the
    formula; a map into the zero space has no rows and keeps its column count.

    Row (T, t) is coordinate t of (d phi)(e_T) on an increasing tuple T;
    column (S, s) is coordinate s of phi(e_S).
    """
    if g.kind != LIE:
        raise AlgebraError("the Chevalley coboundary needs a Lie algebra")
    if k not in (0, 1, 2):
        raise AlgebraError("coboundary implemented for degrees 0..2 only")
    n, tensor = g.dim, g.tensor
    sources, targets = increasing_tuples(n, k), increasing_tuples(n, k + 1)
    col = {tup: pos * n for pos, tup in enumerate(sources)}
    ad = defaultdict(list)  # x -> the nonzero terms (s, t, c) of [e_x, e_s]
    for (x, s), terms in tensor.items():
        ad[x] += ((s, t, c) for t, c in terms)
    entries = defaultdict(int)
    for r, tup in enumerate(targets):
        for p in range(k + 1):
            # (-1)^p [x_p, phi(..., x_p omitted, ...)]
            rest, sign_p = col[tup[:p] + tup[p + 1:]] - 1, -1 if p & 1 else 1
            for s, t, c in ad[tup[p]]:
                entries[r * n + t - 1, rest + s] += sign_p * c
            # (-1)^(p+q) phi([x_p, x_q], ..., x_p, x_q omitted, ...)
            for q in range(p + 1, k + 1):
                sign_pq = -sign_p if q & 1 else sign_p
                for l, c in tensor.get((tup[p], tup[q]), ()):
                    key, sign = _sort_with_sign(
                        (l,) + tup[:p] + tup[p + 1:q] + tup[q + 1:])
                    if sign:
                        x, at = sign_pq * sign * c, col[key]
                        for t in range(n):
                            entries[r * n + t, at + t] += x
    return Matrix.from_entries(entries, len(targets) * n, len(sources) * n)


def chevalley_delta(g: Algebra, c: ChevalleyCochain) -> ChevalleyCochain:
    """Adjoint-coefficient coboundary, degrees 0 -> 1 -> 2 -> 3."""
    if c.dim != g.dim:
        raise AlgebraError("cochain dimension does not match the algebra")
    flat = scalars.coerce_vector(g.field, cochain_to_flat(c))
    image = chevalley_delta_matrix(g, c.degree).apply(flat)
    return cochain_from_flat(c.degree + 1, g.dim, scalars.coerce_vector(g.field, image))


def _cochain_tensor(field: str, c, kind: str) -> dict:
    """The structure tensor of a cochain's values read in ``field``, so that a
    value outside the field raises ``ScalarError`` before any evaluation."""
    return _tensor({k: scalars.coerce_vector(field, v) for k, v in c.data.items()}, kind)


def cochain_to_flat(c: ChevalleyCochain) -> tuple:
    coords = []
    for tup in increasing_tuples(c.dim, c.degree):
        coords.extend(c.value(tup))
    return tuple(coords)


def cochain_from_flat(degree: int, dim: int, flat: Sequence) -> ChevalleyCochain:
    tuples = increasing_tuples(dim, degree)
    if len(flat) != len(tuples) * dim:
        raise AlgebraError("flat vector has the wrong length")
    data = {}
    for pos, tup in enumerate(tuples):
        data[tup] = tuple(flat[pos * dim:(pos + 1) * dim])
    return ChevalleyCochain(degree, dim, data)


@dataclass(frozen=True)
class CohomologyDims:
    dim_Z: int
    dim_B: int
    dim_H: int

    def __post_init__(self):
        if self.dim_H != self.dim_Z - self.dim_B or self.dim_H < 0:
            raise AlgebraError("inconsistent cohomology dimensions")


def chevalley_dims(g: Algebra, k: int) -> CohomologyDims:
    """dim Z^k, dim B^k, dim H^k for k in {1, 2}, by exact rank.  Raises
    ``IdentityError`` when g fails Jacobi."""
    if k not in (1, 2):
        raise AlgebraError("chevalley_dims supports k in {1, 2}")
    return _chevalley_dims(g, k)[0][k - 1]


def _complex_ranks(ds: list) -> list:
    """0, then the rank of each d^k of a complex whose identities have passed:
    d^k d^(k-1) = 0 gives rank d^k <= ncols(d^k) - rank d^(k-1) for k > 0, and
    the elimination of d^k stops at that ceiling, met exactly when H^k = 0."""
    ranks = [0, rank(ds[0])]
    for d in ds[1:]:
        ranks.append(_rank(d, d.ncols - ranks[-1]))
    return ranks


def _chevalley_dims(g: Algebra, high: int) -> tuple[list, list]:
    """(dimensions for k = 1 .. high, operators d^0 .. d^high), each operator
    assembled and ranked once."""
    ds = [chevalley_delta_matrix(g, k) for k in range(high + 1)]
    require_identities(g)
    ranks = _complex_ranks(ds)
    return ([CohomologyDims(dim_Z=d.ncols - r, dim_B=b, dim_H=d.ncols - r - b)
             for d, r, b in zip(ds[1:], ranks[2:], ranks[1:])], ds)


def _leibniz_is_minus_d1(g: Algebra, d1: Matrix) -> None:
    """The Leibniz system of a Lie algebra is -d^1 with the column of f[r][c]
    at (r-1)n + (c-1) there and at (c-1)n + (r-1) in d^1.  The two come from
    different assemblers and are compared entry by entry; any difference is
    a bug in one of them and raises."""
    n = g.dim
    if _leibniz_rows(g).sparse_rows != tuple({k % n * n + k // n: -x for k, x in row.items()}
                                             for row in d1.sparse_rows):
        raise AssertionError(
            "Leibniz system and d^1 disagree; this is a bug in an assembler")


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def derivations(alg: Algebra) -> list:
    """Echelon basis of {f : f(xy) = f(x)y + x f(y)} via the Leibniz system.

    Works for both kinds; for Lie algebras this is Z^1 computed through an
    independent code path (no coboundary matrices involved).
    Operators are flattened row-major: unknown (r, c) at (r-1)*n + (c-1).
    """
    return [Matrix.from_flat(v, alg.dim, alg.dim) for v in kernel_basis(_leibniz_rows(alg))]


def derivation_space(alg: Algebra) -> Subspace:
    """The derivations as a subspace of flattened operators."""
    return Subspace(alg.dim ** 2, kernel_basis(_leibniz_rows(alg)))


def _left_mult_span(alg: Algebra) -> Subspace:
    """span{L_{e_i}} in the flattened-operator coordinates, read off the tensor
    in one pass: c_ij^k is entry (k, j) of L_{e_i}, column (k-1)n + j-1 of row i."""
    n = alg.dim
    rows = [{} for _ in range(n)]
    for (i, j), terms in alg.tensor.items():
        for k, c in terms:
            rows[i - 1][(k - 1) * n + j - 1] = c
    return Subspace._of(n * n, rows)


def inner_derivations(g: Algebra) -> Subspace:
    """span{ad e_i} in the same flattened-operator coordinates."""
    if g.kind != LIE:
        raise AlgebraError("inner_derivations needs a Lie algebra")
    return _left_mult_span(g)


# ---------------------------------------------------------------------------
# Hochschild / Harrison
# ---------------------------------------------------------------------------

def hochschild_delta1(A: Algebra, f: Matrix) -> SymmetricCochain:
    """(d f)(a, b) = a f(b) - f(ab) + f(a) b; symmetric since A is commutative,
    and minus the Leibniz system row for row."""
    if A.kind != ASSOC_COMM:
        raise AlgebraError("hochschild_delta1 needs an assoc-comm algebra")
    if f.shape != (A.dim, A.dim):
        raise AlgebraError("operator shape does not match algebra dimension")
    n = A.dim
    flat = scalars.coerce_vector(A.field, _leibniz_rows(A).apply(f.flatten()))
    return SymmetricCochain(n, {
        pair: tuple(-x for x in flat[pos * n:(pos + 1) * n])
        for pos, pair in enumerate(_pairs(ASSOC_COMM, n))})


def hochschild_delta2(A: Algebra, psi: SymmetricCochain) -> dict:
    """(d psi)(a,b,c) = a psi(b,c) - psi(ab,c) + psi(a,bc) - psi(a,b) c.

    Returns the full trilinear table {(i,j,k): vector}, zero entries kept out.
    """
    if A.kind != ASSOC_COMM:
        raise AlgebraError("hochschild_delta2 needs an assoc-comm algebra")
    if psi.dim != A.dim:
        raise AlgebraError("cochain dimension does not match the algebra")
    n = A.dim
    flat = scalars.coerce_vector(A.field, _hochschild_rows(A).apply(symmetric_to_flat(psi)))
    values = (flat[pos * n:(pos + 1) * n] for pos in range(n ** 3))
    return {t: v for t, v in zip(product(range(1, n + 1), repeat=3), values) if not vec_is_zero(v)}


def _hochschild_rows(A: Algebra) -> Matrix:
    """The Hochschild operator d: S^2 -> C^3.

    Row (i, j, k, t) is coordinate t of (d psi)(e_i, e_j, e_k), triples in
    lexicographic order; column (a <= b, s) is coordinate s of psi(e_a, e_b).
    """
    n, tensor = A.dim, A.tensor
    pairs = _pairs(ASSOC_COMM, n)
    col = {}
    for pos, (a, b) in enumerate(pairs):
        col[a, b] = col[b, a] = pos * n
    entries = defaultdict(int)
    for r, (i, j, k) in enumerate(product(range(1, n + 1), repeat=3)):
        for s in range(n):
            # e_i psi(e_j, e_k) - psi(e_i, e_j) e_k
            for t, c in tensor.get((i, s + 1), ()):
                entries[r * n + t - 1, col[j, k] + s] += c
            for t, c in tensor.get((s + 1, k), ()):
                entries[r * n + t - 1, col[i, j] + s] -= c
        # - psi(e_i e_j, e_k) + psi(e_i, e_j e_k)
        for t in range(n):
            for l, c in tensor.get((i, j), ()):
                entries[r * n + t, col[l, k] + t] -= c
            for l, c in tensor.get((j, k), ()):
                entries[r * n + t, col[i, l] + t] += c
    return Matrix.from_entries(entries, n ** 4, len(pairs) * n)


def symmetric_to_flat(c: SymmetricCochain) -> tuple:
    coords = []
    for i, j in _pairs(ASSOC_COMM, c.dim):
        coords.extend(c.value(i, j))
    return tuple(coords)


def harrison_h2(A: Algebra) -> CohomologyDims:
    """Harrison H^2: symmetric Hochschild 2-cocycles modulo 1-coboundaries.

    Coboundaries of 1-cochains are automatically symmetric over a
    commutative algebra, so no intersection step is needed.  B^2 is the
    image of d^1, which is minus the Leibniz system and has the same rank;
    the two are ranked as a complex (:func:`_complex_ranks`).  Raises
    ``IdentityError`` when A fails associativity.
    """
    if A.kind != ASSOC_COMM:
        raise AlgebraError("harrison_h2 needs an assoc-comm algebra")
    require_identities(A)
    d2 = _hochschild_rows(A)
    _, b, r = _complex_ranks([_leibniz_rows(A), d2])
    return CohomologyDims(dim_Z=d2.ncols - r, dim_B=b, dim_H=d2.ncols - r - b)


# ---------------------------------------------------------------------------
# Decomposable 2-cochains of a current Lie algebra
# ---------------------------------------------------------------------------

class DecomposableDelta:
    """The cyclic-sum coboundary expression for psi1 (x) phi2 + phi3 (x) psi4
    over g (x) A.

    All four blocks are summed with plus signs, exactly as displayed;
    each block is a cyclic sum over simultaneous permutations of the g and
    A arguments.  With Psi the flat tensor of psi1 (x) phi2 + phi3 (x) psi4
    and mu that of g (x) A, the expression at a flat triple is the cyclic
    term sum of ``algebra._jacobi`` with (Psi, mu) plus the one with
    (mu, Psi).  The phi3 (x) psi4 block pairs two symmetric cochains, so Psi
    is alternating only when that block is zero; the expression is then
    minus the Chevalley coboundary of Psi on g (x) A.  Values are flat p*q
    tensors in the g-major layout.
    """

    def __init__(self, g: Algebra, A: Algebra, psi1: ChevalleyCochain,
                 phi2: SymmetricCochain, phi3: SymmetricCochain,
                 psi4: SymmetricCochain):
        if psi1.degree != 2 or psi1.dim != g.dim:
            raise AlgebraError("psi1 must be a degree-2 cochain on g")
        if phi3.dim != g.dim:
            raise AlgebraError("phi3 must live on g")
        if phi2.dim != A.dim or psi4.dim != A.dim:
            raise AlgebraError("phi2 and psi4 must live on A")
        if g.field != A.field:
            raise AlgebraError("factors must share the base field")
        self.g, self.A = g, A
        self.psi1, self.phi2, self.phi3, self.psi4 = psi1, phi2, phi3, psi4
        q, field = A.dim, g.field
        self._mu = _current_tensor(g.tensor, A.tensor, q)
        self._psi = _current_tensor(_cochain_tensor(field, psi1, LIE),
                                    _cochain_tensor(field, phi2, ASSOC_COMM), q)
        for key, terms in _current_tensor(_cochain_tensor(field, phi3, ASSOC_COMM),
                                          _cochain_tensor(field, psi4, ASSOC_COMM), q).items():
            self._psi[key] = self._psi.get(key, ()) + terms

    def evaluate(self, g_tuple: Sequence[int], a_tuple: Sequence[int]) -> tuple:
        g, A = self.g, self.A
        for i, a in zip(g_tuple, a_tuple):
            g._check_index(i), A._check_index(a)
        u, v, w = (flat_index(i, a, A.dim) for i, a in zip(g_tuple, a_tuple))
        acc = {}
        _jacobi(self._psi, self._mu, u, v, w, acc)
        _jacobi(self._mu, self._psi, u, v, w, acc)
        return tuple(scalars.coerce(g.field, acc.get(s, 0))
                     for s in range(1, g.dim * A.dim + 1))

    def first_nonzero(self) -> Optional[tuple]:
        p, q = self.g.dim, self.A.dim
        for gt in product(range(1, p + 1), repeat=3):
            for at in product(range(1, q + 1), repeat=3):
                if not vec_is_zero(self.evaluate(gt, at)):
                    return gt, at
        return None

    def is_zero_on_basis(self) -> bool:
        return self.first_nonzero() is None


class BulletProduct:
    """mu2 * psi4 as the cyclic trilinear map sum mu2(psi4(a1,a2), a3): the
    cyclic term sum of ``algebra._jacobi`` with (psi4, mu2)."""

    def __init__(self, A: Algebra, psi4: SymmetricCochain):
        if A.kind != ASSOC_COMM:
            raise AlgebraError("bullet needs an assoc-comm algebra")
        if psi4.dim != A.dim:
            raise AlgebraError("cochain dimension does not match the algebra")
        self.A, self.psi4 = A, psi4
        self._psi4 = _cochain_tensor(A.field, psi4, ASSOC_COMM)

    def evaluate(self, a1: int, a2: int, a3: int) -> tuple:
        A = self.A
        for a in (a1, a2, a3):
            A._check_index(a)
        acc = {}
        _jacobi(self._psi4, A.tensor, a1, a2, a3, acc)
        return tuple(scalars.coerce(A.field, acc.get(s, 0)) for s in range(1, A.dim + 1))

    def is_zero_on_basis(self) -> bool:
        return all(vec_is_zero(self.evaluate(*t))
                   for t in product(range(1, self.A.dim + 1), repeat=3))


# ---------------------------------------------------------------------------
# The H^1 dimension formula for current Lie algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H1CurrentFormula:
    """Both sides of the H^1 dimension formula for g (x) A.

    rhs = h1(g)*dim A + dim Hom(g,g)*dim Der(A)
        + dim Hom(g/[g,g], Z(g)) * dim(End(A)/(L_A + Der A)),
    with the embedded copy of A read as the left-multiplication operators.
    A mismatch is reported, never hidden.
    """

    lhs_dim: int
    summand_dims: tuple
    rhs_dim: int

    @property
    def difference(self) -> int:
        return self.rhs_dim - self.lhs_dim

    @property
    def matches(self) -> bool:
        return self.lhs_dim == self.rhs_dim


def h1_current_formula(g: Algebra, A: Algebra) -> H1CurrentFormula:
    flat = current_algebra(g, A)
    lhs = chevalley_dims(flat, 1).dim_H

    h1_g = chevalley_dims(g, 1)
    s1 = h1_g.dim_H * A.dim

    der_a = derivation_space(A)
    s2 = g.dim ** 2 * der_a.dim

    derived_dim = subspace_product(g, Subspace.full(g.dim),
                                   Subspace.full(g.dim)).dim
    # Z(g) = Z^0 = ker d^0, so dim Z(g) = dim g - rank d^0 = dim g - dim B^1
    hom_quot_center = (g.dim - derived_dim) * (g.dim - h1_g.dim_B)
    end_quot = A.dim ** 2 - (_left_mult_span(A) + der_a).dim
    s3 = hom_quot_center * end_quot

    return H1CurrentFormula(lhs_dim=lhs, summand_dims=(s1, s2, s3),
                            rhs_dim=s1 + s2 + s3)
