"""Finite-dimensional algebras presented by structure constants.

Two kinds are supported: Lie algebras (antisymmetric bracket) and
associative commutative algebras.  Tables are read symmetry-reduced (only
i < j entries for Lie, only i <= j for assoc-comm) and stored as one sparse
tensor.  Basis indices are 1-based throughout; vector coordinates are
0-based tuples.

Passing :func:`check_identities` is deliberately *not* a construction
invariant: deformed or corrupted candidates are representable, and the
identity check is a separately testable predicate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Mapping, Optional, Sequence

from . import scalars
from .linalg import Matrix, inverse, vec_is_zero, vec_scale

LIE = "lie"
ASSOC_COMM = "assoc-comm"
KINDS = (LIE, ASSOC_COMM)


class AlgebraError(ValueError):
    """Malformed algebra data or incompatible operands."""


class IdentityError(AlgebraError):
    """An operation required the defining identities and they fail."""


def _term(c):
    """A constant in the tensor's normal form: an integral ``Fraction`` as its
    ``int``, so that integer tables over Q are summed as ints by every
    assembler and residual and reach :func:`linalg._integral` as int rows;
    anything else as it is (:meth:`Algebra.basis_product` coerces back)."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _tensor(table: Mapping, kind: str) -> dict:
    """Sparse structure tensor of a symmetry-reduced table: every ordered pair
    (i, j) with a nonzero product maps to the nonzero terms (k, c) of e_i * e_j,
    each c read through :func:`_term`.

    Also reads the ``data`` of a degree-2 cochain, stored on i < j like a
    Lie table.
    """
    tensor = {}
    for (i, j), vec in table.items():
        terms = tuple((k, _term(c)) for k, c in enumerate(vec, start=1) if c)
        if terms:
            tensor[(j, i)] = (terms if kind == ASSOC_COMM
                              else tuple((k, -c) for k, c in terms))
            tensor[(i, j)] = terms
    return tensor


def _products(lo: Mapping, hi: Mapping, a: int, b: int, c: int, acc: dict,
              sign: int = 1) -> None:
    """acc[s] += sign * sum_l lo_ab^l hi_lc^s: the product (e_a e_b) e_c with
    the inner product read from tensor ``lo`` and the outer from ``hi``."""
    for l, x in lo.get((a, b), ()):
        for s, y in hi.get((l, c), ()):
            acc[s] = acc.get(s, 0) + sign * x * y


def _jacobi(lo: Mapping, hi: Mapping, i: int, j: int, k: int, acc: dict) -> None:
    """Cyclic sum of :func:`_products` over (i, j, k), (j, k, i), (k, i, j)."""
    _products(lo, hi, i, j, k, acc)
    _products(lo, hi, j, k, i, acc)
    _products(lo, hi, k, i, j, acc)


def _sparse(vec: Sequence) -> dict:
    return {i: x for i, x in enumerate(vec, start=1) if x}


def _product(tensor: Mapping, x: Mapping, y: Mapping) -> dict:
    """x * y as ``{k: z}`` for sparse vectors ``{i: x_i}``, 1-based like the
    tensor; x_i y_j is formed once per pair (i, j) that has a product."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            terms = tensor.get((i, j))
            if terms:
                ab = a * b
                for k, c in terms:
                    out[k] = out[k] + ab * c if k in out else ab * c
    return out


class Algebra:
    """An algebra over Q or Q(i) given by its structure constants.

    ``products`` maps 1-based index pairs (i, j) to coefficient vectors of
    e_i * e_j.  Entries may be given in any order; the constructor folds them
    onto the symmetry-reduced key set, rejects inconsistent duplicates and
    stores only the sparse ``tensor``.  Instances are immutable by convention.
    ``_passed`` remembers that :func:`require_identities` has passed.
    """

    __slots__ = ("name", "kind", "field", "dim", "tensor", "basis_labels", "_passed")

    def __init__(self, name: str, kind: str, field: str, dim: int,
                 products: Mapping[tuple, Sequence] = (),
                 basis_labels: Optional[Sequence[str]] = None):
        if kind not in KINDS:
            raise AlgebraError(f"unknown kind {kind!r}")
        if field not in scalars.FIELDS:
            raise AlgebraError(f"unknown field {field!r}")
        if not isinstance(dim, int) or dim < 1:
            raise AlgebraError("dim must be a positive integer")
        if basis_labels is not None:
            basis_labels = tuple(basis_labels)
            if len(basis_labels) != dim:
                raise AlgebraError("basis labels must match the dimension")
        self.name = name
        self.kind = kind
        self.field = field
        self.dim = dim
        self.basis_labels = basis_labels
        table: dict[tuple, tuple] = {}
        items = products.items() if hasattr(products, "items") else products
        for (i, j), coeffs in items:
            self._check_index(i), self._check_index(j)
            vec = scalars.coerce_vector(field, coeffs)
            if len(vec) != dim:
                raise AlgebraError(f"product ({i},{j}) has length {len(vec)}, want {dim}")
            if kind == LIE:
                if i == j:
                    if not vec_is_zero(vec):
                        raise AlgebraError(f"[e{i},e{i}] must vanish for a Lie algebra")
                    continue
                key, val = ((i, j), vec) if i < j else ((j, i), vec_scale(-1, vec))
            else:
                key, val = ((min(i, j), max(i, j)), vec)
            if key in table and table[key] != val:
                raise AlgebraError(f"inconsistent duplicate entry for product {key}")
            table[key] = val
        self.tensor = _tensor(dict(sorted(table.items())), kind)
        self._passed = False

    @classmethod
    def _of(cls, name, kind, field, dim, tensor: dict, passed: bool) -> "Algebra":
        """``tensor`` stored as given: its terms already through :func:`_term`,
        and every Q(i) value a ``GaussianRational``."""
        alg = object.__new__(cls)
        alg.name, alg.kind, alg.field, alg.dim = name, kind, field, dim
        alg.tensor, alg.basis_labels, alg._passed = tensor, None, passed
        return alg

    def _check_index(self, i):
        if not isinstance(i, int) or not 1 <= i <= self.dim:
            raise AlgebraError(f"basis index {i!r} out of range 1..{self.dim}")

    # -- products ----------------------------------------------------------

    def basis_product(self, i: int, j: int) -> tuple:
        """e_i * e_j with the stored symmetry class filled back in, as field
        scalars."""
        self._check_index(i), self._check_index(j)
        out = [scalars.zero(self.field)] * self.dim
        for k, c in self.tensor.get((i, j), ()):
            out[k - 1] = scalars.coerce(self.field, c)
        return tuple(out)

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants, by :func:`_product`."""
        out = [scalars.zero(self.field)] * self.dim
        for k, z in _product(self.tensor, _sparse(self._vector(x)),
                             _sparse(self._vector(y))).items():
            out[k - 1] = z
        return tuple(out)

    def _vector(self, x: Sequence) -> tuple:
        if len(x) != self.dim:
            raise AlgebraError("vector length does not match algebra dimension")
        return scalars.coerce_vector(self.field, x)

    def basis_vector(self, i: int) -> tuple:
        self._check_index(i)
        one = scalars.one(self.field)
        zero = scalars.zero(self.field)
        return tuple(one if k == i else zero for k in range(1, self.dim + 1))

    def left_mult_matrix(self, a: Sequence) -> Matrix:
        """L_a, columns a * e_j: entry (k, j) is sum_i a_i c_ij^k."""
        a = self._vector(a)
        entries = defaultdict(int)
        for (i, j), terms in self.tensor.items():
            if a[i - 1]:
                for k, c in terms:
                    entries[k - 1, j - 1] += a[i - 1] * c
        return Matrix.from_entries(entries, self.dim, self.dim)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """ad x = [x, .] for Lie kind (same as L_x; kept for readability)."""
        if self.kind != LIE:
            raise AlgebraError("ad is defined for Lie kind")
        return self.left_mult_matrix(x)

    # -- equality is structural on the tensor; names are labels only --------

    def same_constants(self, other: "Algebra") -> bool:
        return (self.kind, self.field, self.dim, self.tensor) == (
            other.kind, other.field, other.dim, other.tensor)

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.same_constants(other)

    def __hash__(self):
        return hash((self.kind, self.field, self.dim,
                     tuple(sorted(self.tensor.items()))))

    def __repr__(self):
        return (f"Algebra({self.name!r}, kind={self.kind}, field={self.field}, "
                f"dim={self.dim}, {sum(i <= j for i, j in self.tensor)} products)")


def _pairs(kind: str, n: int) -> list:
    """The reduced basis pairs in lexicographic order: i < j for Lie, i <= j
    for assoc-comm.  Every operator and cochain stored on pairs uses this order."""
    return list((combinations if kind == LIE else combinations_with_replacement)(
        range(1, n + 1), 2))


def _left_mult_rows(alg: Algebra) -> Matrix:
    """The left multiplications L_{e_i} as flattened operators, read off the
    tensor in one pass: c_ij^k is entry (k, j) of L_{e_i}, column
    (k-1)n + j-1 of row i."""
    n = alg.dim
    rows = [{} for _ in range(n)]
    for (i, j), terms in alg.tensor.items():
        for k, c in terms:
            rows[i - 1][(k - 1) * n + j - 1] = c
    return Matrix._of(rows, n * n)


def _leibniz_rows(alg: Algebra) -> Matrix:
    """The operator f -> f(e_i e_j) - f(e_i) e_j - e_i f(e_j).

    Row (i, j, s) for each reduced pair; the unknown f[r][c] (coordinate r
    of f(e_c)) sits in column (r-1)*n + (c-1).
    """
    n, tensor = alg.dim, alg.tensor
    pairs = _pairs(alg.kind, n)
    entries = defaultdict(int)
    for pos, (i, j) in enumerate(pairs):
        for c0, w in tensor.get((i, j), ()):
            for s in range(n):
                entries[pos * n + s, s * n + c0 - 1] += w
        for r in range(n):
            for s, c in tensor.get((r + 1, j), ()):
                entries[pos * n + s - 1, r * n + i - 1] -= c
            for s, c in tensor.get((i, r + 1), ()):
                entries[pos * n + s - 1, r * n + j - 1] -= c
    return Matrix.from_entries(entries, len(pairs) * n, n * n)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the defining identities.

    ``violations`` lists (i, j, k, s): the s-coordinate of the Jacobi sum on
    (e_i, e_j, e_k) for Lie kind (i < j < k suffices because the bracket is
    antisymmetric by construction), or of the associator (e_i e_j) e_k -
    e_i (e_j e_k) for assoc-comm kind.
    """

    kind: str
    passed: bool
    violations: tuple


def check_identities(alg: Algebra) -> IdentityReport:
    """Exact residual check: Jacobi for Lie, associativity for assoc-comm.

    Both are sums of (e_a e_b) e_c = sum_l c_ab^l c_lc^s e_s over the tensor.
    """
    t = alg.tensor
    lie = alg.kind == LIE
    basis = range(1, alg.dim + 1)
    violations = []
    for i, j, k in combinations(basis, 3) if lie else product(basis, repeat=3):
        acc = {}
        if lie:
            _jacobi(t, t, i, j, k, acc)
        else:  # the associator, with e_i (e_j e_k) = (e_j e_k) e_i
            _products(t, t, i, j, k, acc)
            _products(t, t, j, k, i, acc, -1)
        violations.extend((i, j, k, s) for s in sorted(acc) if acc[s] != 0)
    return IdentityReport(kind=alg.kind, passed=not violations,
                          violations=tuple(violations))


def require_identities(alg: Algebra) -> None:
    """Raise ``IdentityError`` unless alg passes :func:`check_identities`.  A
    pass is remembered on alg, so each algebra is checked once; a failure is
    found again on every call."""
    if alg._passed:
        return
    report = check_identities(alg)
    if not report.passed:
        raise IdentityError(
            f"{alg.name}: defining identities fail at {len(report.violations)} "
            f"tuples, first {report.violations[0]}"
        )
    alg._passed = True


def change_basis(alg: Algebra, f: Matrix) -> Algebra:
    """Transport of structure: mu_f(x, y) = f^{-1}(mu(f x, f y)) by :func:`_product` on
    the columns of f, read in the field and in the tensor's normal form.  The
    identities do not depend on the basis: a pass is handed on."""
    n, field = alg.dim, alg.field
    if f.shape != (n, n):
        raise AlgebraError("basis-change matrix has the wrong shape")
    f_inv = inverse(f)
    cols = [_sparse(map(_term, scalars.coerce_vector(field, col))) for col in f.columns()]
    table, ks = {}, range(1, n + 1)
    for i, j in _pairs(alg.kind, n):
        w = _product(alg.tensor, cols[i - 1], cols[j - 1])
        table[i, j] = scalars.coerce_vector(field, f_inv.apply([w.get(k, 0) for k in ks]))
    return Algebra._of(alg.name, alg.kind, field, n, _tensor(table, alg.kind), alg._passed)


def direct_sum(a: Algebra, b: Algebra, name: Optional[str] = None) -> Algebra:
    """Product algebra: block-diagonal constants, cross products zero."""
    if a.kind != b.kind:
        raise AlgebraError("direct_sum needs matching kinds")
    if a.field != b.field:
        raise AlgebraError("direct_sum needs matching fields")
    n = a.dim
    tensor = dict(a.tensor)
    tensor.update({(i + n, j + n): tuple((k + n, c) for k, c in terms)
                   for (i, j), terms in b.tensor.items()})
    return Algebra._of(name or f"{a.name}+{b.name}", a.kind, a.field, n + b.dim, tensor,
                       a._passed and b._passed)


def complexify(alg: Algebra) -> Algebra:
    """Scalar extension Q -> Q(i): the same constants, read in Q(i)."""
    if alg.field == scalars.QI:
        raise AlgebraError(f"{alg.name} is already over Qi")
    tensor = {key: tuple((k, scalars.coerce(scalars.QI, c)) for k, c in terms)
              for key, terms in alg.tensor.items()}
    return Algebra._of(alg.name, alg.kind, scalars.QI, alg.dim, tensor, alg._passed)


def is_derivation(alg: Algebra, f: Matrix) -> bool:
    """Leibniz rule f(xy) = f(x)y + x f(y) on all reduced basis pairs, by the Leibniz system."""
    if f.shape != (alg.dim, alg.dim):
        raise AlgebraError("operator shape does not match algebra dimension")
    return vec_is_zero(_leibniz_rows(alg).apply(f.flatten()))
