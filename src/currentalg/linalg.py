"""Exact linear algebra over Q and Q(i).

Every row reduction is one fraction-free Gauss-Jordan, :func:`_rref`, on the
``{col: x}`` rows of a :class:`Matrix`, over Z only.  Each row is
scaled to an integer row, and the rows are fed sparsest first and reduced on
their leading columns by integral row operations, so no ``Fraction`` or
``GaussianRational`` is built while eliminating.  A row is divided by its
content only when it lands as a pivot and once more after back-substitution;
:func:`rank` runs only the forward phase, and :func:`_rank` stops it once a
proven bound on the rank is reached.  A row lands through one loop,
:func:`_land`, which :func:`_krylov` shares to read a first dependence off
integral vectors.  Entries may be ``int``, ``Fraction`` or
``GaussianRational``.  An operator assembled from an integral table over Q
has only ``int`` entries; its rows enter as they are, with no denominators to
clear.  Gaussian rows enter as integer triples
(x, y, d), scaled by the lcm of their d.  When some entry has an imaginary
part, each row v enters as the two integer rows of v and i*v, coordinate c
split into its real part at column 2c and its imaginary part at 2c + 1.  That real span is
closed under multiplication by i, so the pivots come in pairs (2c, 2c + 1)
and the reduced row of pivot 2c is the realified reduced row of pivot c over
Q(i): each entry is read back as the reduced triple of
(x[2k], x[2k+1], x[2c]), and the rank over Q(i) is half the rank over Q.
Everything returns canonical reduced echelon representatives, which makes
subspace equality a plain ``==``.

Vectors are tuples of scalars with 0-based coordinates.  Basis indices in the
algebra layer are 1-based; the translation happens there, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .scalars import GaussianRational, Scalar, ScalarError, _gauss, _parts

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SingularMatrixError(ValueError):
    """Inversion was requested for a singular matrix."""


def _entry(x) -> Scalar:
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"matrix entries must be exact scalars, got {type(x).__name__}")


class Matrix:
    """Immutable matrix of exact scalars: ``sparse_rows``, one ``{col: x}``
    dict per row with no zero entries, and the shape, so that a map into or
    out of the zero space keeps its other dimension.  Dense rows become sparse
    in the constructor; ``rows`` is a dense read-only view."""

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [tuple(map(_entry, row)) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.sparse_rows = tuple({c: x for c, x in enumerate(r) if x} for r in rows)
        self.nrows, self.ncols = len(rows), ncols

    @classmethod
    def _of(cls, rows, ncols: int) -> "Matrix":
        """``{col: x}`` rows without zero entries, stored as given."""
        m = object.__new__(cls)
        m.sparse_rows = tuple(rows)
        m.nrows, m.ncols = len(m.sparse_rows), ncols
        return m

    @classmethod
    def from_entries(cls, entries: Mapping, nrows: int, ncols: int) -> "Matrix":
        """Summed entries {(row, col): x}, those that cancelled to zero dropped."""
        rows = [{} for _ in range(nrows)]
        for (r, c), x in entries.items():
            if x:
                rows[r][c] = x
        return cls._of(rows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([{i: _ONE} for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        return cls(cols).transpose()

    @classmethod
    def from_flat(cls, flat: Sequence, nrows: int, ncols: int) -> "Matrix":
        if len(flat) != nrows * ncols:
            raise ValueError("flat length does not match shape")
        rows = [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)]
        return cls(rows) if rows else cls._of((), ncols)

    @property
    def rows(self) -> tuple:
        return tuple(tuple(row.get(c, _ZERO) for c in range(self.ncols))
                     for row in self.sparse_rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def columns(self) -> list:
        return list(self.transpose().rows)

    def flatten(self) -> tuple:
        """Row-major flattening; the convention used for operator subspaces."""
        return tuple(x for row in self.rows for x in row)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in matrix difference")
        out = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            row = dict(r1)
            for c, y in r2.items():
                z = row.get(c, 0) - y
                if z:
                    row[c] = z
                else:
                    del row[c]
            out.append(row)
        return Matrix._of(out, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.sparse_rows:
            acc = {}
            for k, x in row.items():
                for c, y in other.sparse_rows[k].items():
                    acc[c] = acc.get(c, 0) + x * y
            out.append({c: z for c, z in acc.items() if z})
        return Matrix._of(out, other.ncols)

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        out = [_ZERO] * self.nrows
        for r, row in enumerate(self.sparse_rows):
            for c, x in row.items():
                if vec[c]:
                    out[r] += x * vec[c]
        return tuple(out)

    def transpose(self) -> "Matrix":
        cols = [{} for _ in range(self.ncols)]
        for r, row in enumerate(self.sparse_rows):
            for c, x in row.items():
                cols[c][r] = x
        return Matrix._of(cols, self.nrows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (A kron B)[(i-1)q+a, (j-1)q+b] = A[i,j] B[a,b]."""
        q = other.ncols
        return Matrix._of([{j * q + b: x * y for j, x in arow.items() for b, y in brow.items()}
                           for arow in self.sparse_rows for brow in other.sparse_rows],
                          self.ncols * q)

    def __pow__(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("powers need a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.sparse_rows == other.sparse_rows

    def __hash__(self):
        return hash((self.ncols, tuple(frozenset(row.items()) for row in self.sparse_rows)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, u):
    return tuple(c * a for a in u)

def vec_zero(n):
    return (_ZERO,) * n

def vec_is_zero(u):
    return not any(u)


def _primitive(row: dict) -> dict:
    """row divided by its content, the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _integral(rows) -> tuple[list, bool, bool]:
    """The nonempty sparse rows as integer rows, each scaled by the lcm of its
    denominators; whether any entry is Gaussian; and whether the rows are
    realified, as they are when some entry has an imaginary part.  When every
    entry is a plain int, as in an operator assembled from an integral
    structure tensor, the rows are only copied.

    A realified row v = x + y*i (x, y integer rows) enters as the two rows of
    v and i*v over Z: coordinate c goes to column 2c (real part) and 2c + 1
    (imaginary part), so v has x_c, y_c there and i*v has -y_c, x_c.  Their
    span over Q is the realification of the span over Q(i), so it is closed
    under multiplication by i; its pivots therefore come in pairs
    (2c, 2c + 1), one pair per pivot c over Q(i).  Gaussian rows with no
    imaginary part are reduced as plain int rows."""
    sparse = [r for r in rows if r]
    types = set().union(*(map(type, r.values()) for r in sparse))
    gaussian, ints = GaussianRational in types, types == {int}
    pairs = gaussian and any(_parts(x)[1] for r in sparse for x in r.values())
    out = []
    for row in sparse:
        if gaussian:
            parts = {c: _parts(x) for c, x in row.items()}
            m = lcm(*(d for _, _, d in parts.values()))
            row = ({k: p for c, (x, y, d) in parts.items()
                    for k, p in ((2 * c, x * (m // d)), (2 * c + 1, y * (m // d))) if p}
                   if pairs else {c: x * (m // d) for c, (x, _, d) in parts.items()})
        elif ints:
            row = dict(row)  # the elimination edits its rows in place
        else:
            m = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (m // x.denominator) for c, x in row.items()}
        out.append(row)
        if pairs:  # i*v: (x, y) at (2c, 2c + 1) becomes (-y, x)
            out.append({k ^ 1: -x if k & 1 else x for k, x in row.items()})
    return out, bool(gaussian), pairs


def _eliminate(row: dict, c: int, pivot: dict) -> dict:
    """row - f*pivot when f = row[c] / pivot[c] is integral, else a*row - b*pivot
    with a = pivot[c] and b = row[c] first divided by their gcd; either way
    column c drops out.  The content is left in: the pivots are fixed
    primitive rows, so each step adds at most the bits of one pivot row."""
    a, b = pivot[c], row[c]
    if b % a:
        g = gcd(a, b)
        a, f = a // g, b // g
        row = {k: a * x for k, x in row.items()}
    else:
        f = b // a
    for k, y in pivot.items():
        z = row.get(k, 0) - f * y
        if z:
            row[k] = z
        else:
            del row[k]
    return row


def _land(echelon: dict, row: dict, stop=inf) -> Optional[dict]:
    """Reduce an integral row on its leading column against the pivots while
    that column is below ``stop``: a row that reaches a longer pivot takes
    its place and the old pivot is reduced further, and a row is divided by
    its content when it lands.  None once a row has landed, else the row
    left, which has nothing below ``stop``."""
    while row and (c := min(row)) < stop:
        pivot = echelon.get(c)
        if pivot is None:
            echelon[c] = _primitive(row)
            return None
        if len(row) < len(pivot):
            echelon[c], row = _primitive(row), pivot
        row = _eliminate(row, c, echelon[c])
    return row


def _echelon(rows: list, ceiling: Optional[int] = None) -> dict:
    """Forward phase on integral rows: pivot column -> the primitive row
    leading there, each row fed to :func:`_land` sparsest first (a stable
    sort); the span, and so the reduced form, is that of the given order.
    Once ``ceiling`` pivots are held, a proven bound on the rank, every other
    row lies in their span and is skipped."""
    echelon = {}
    for row in sorted(rows, key=len):
        if len(echelon) == ceiling:
            break
        _land(echelon, row)
    return echelon


def _back_substitute(echelon: dict) -> dict:
    """The forward phase reduced in descending pivot order, so that no pivot
    row keeps an entry in another pivot column."""
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for k in [k for k in row if k != c and k in echelon]:
            row = _eliminate(row, k, echelon[k])
        echelon[c] = _primitive(row)
    return echelon


def _rref(rows) -> tuple[list, list]:
    """Reduced echelon form of sparse rows: (nonzero ``{col: x}`` rows, pivots).

    Fraction-free Gauss-Jordan on the integral rows of :func:`_integral`:
    reduce each row on its leading column against the pivot rows found so
    far, back-substitute in descending pivot order, and divide each row by its
    pivot entry only when it is written out.  Realified rows are read back at
    their even pivots 2c only: the reduced integer row x there is 0 at 2c + 1
    and is x[2c] times the realified reduced row of pivot c over Q(i), whose
    entry k is therefore (x[2k] + x[2k+1]*i) / x[2c].  Entries are
    GaussianRational when any input entry is, else Fraction.
    """
    integral, gaussian, pairs = _integral(rows)
    echelon = _back_substitute(_echelon(integral))
    pivots = sorted(echelon)
    if pairs:
        pivots = pivots[::2]
    out = []
    for c in pivots:
        row, lead = echelon[c], echelon[c][c]
        s = -1 if lead < 0 else 1
        if pairs:
            row = {k: _gauss(s * row.get(2 * k, 0), s * row.get(2 * k + 1, 0), s * lead)
                   for k in sorted({j >> 1 for j in row})}
        elif gaussian:
            row = {k: _gauss(s * x, 0, s * lead) for k, x in row.items()}
        else:
            row = {k: Fraction(x, lead) for k, x in row.items()}
        out.append(row)
    return out, [c >> 1 for c in pivots] if pairs else pivots


def rref(rows) -> tuple[list, list]:
    """Reduced row echelon form of dense rows.  Returns (nonzero rows, pivot
    column indices); see :func:`_rref`."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    out, pivots = _rref([{c: x for c, x in enumerate(row) if x} for row in rows])
    return [tuple(row.get(k, _ZERO) for k in range(ncols)) for row in out], pivots


def rank(M) -> int:
    """Rank of a Matrix, from the forward phase alone (half the rank over Q of
    realified rows)."""
    return _rank(M)


def _rank(M, ceiling: Optional[int] = None) -> int:
    """:func:`rank`, stopped once ``ceiling`` pivots are found; valid only when
    rank M <= ceiling is known, as d o d = 0 proves for a coboundary."""
    integral, _, pairs = _integral(M.sparse_rows)
    if ceiling is not None:
        ceiling <<= pairs
    return len(_echelon(integral, ceiling)) >> pairs


def kernel_basis(M) -> list[tuple]:
    """Canonical basis of {x : Mx = 0}, one vector per free column."""
    rows, pivots = _rref(M.sparse_rows)
    n, pivot_set = M.ncols, set(pivots)
    basis = []
    for f in (c for c in range(n) if c not in pivot_set):
        v = [_ZERO] * n
        v[f] = _ONE
        for row, p in zip(rows, pivots):
            v[p] = -row.get(f, _ZERO)
        basis.append(tuple(v))
    return basis


def solve(M, b: Sequence) -> Optional[tuple]:
    """One particular solution of Mx = b (free variables 0), or None."""
    if len(b) != M.nrows:
        raise ValueError("right-hand side length does not match row count")
    n = M.ncols
    rows, pivots = _rref([{**row, n: x} if x else row for row, x
                          in zip(M.sparse_rows, map(_entry, b))])
    if n in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [_ZERO] * n
    for row, p in zip(rows, pivots):
        x[p] = row.get(n, _ZERO)
    return tuple(x)


def inverse(M: Matrix) -> Matrix:
    n = M.nrows
    if n != M.ncols:
        raise SingularMatrixError("only square matrices are invertible")
    rows, pivots = _rref([{**row, n + i: _ONE} for i, row in enumerate(M.sparse_rows)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix._of([{c - n: x for c, x in row.items() if c >= n} for row in rows], n)


class Subspace:
    """A subspace of K^n held as a canonical RREF row basis.

    Canonical form makes equality decidable by direct comparison.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Sequence] = ()):
        vecs = [tuple(_entry(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        rows, pivots = rref(vecs)
        self.ambient = ambient
        self.basis = tuple(rows)
        self.pivots = tuple(pivots)

    @classmethod
    def _of(cls, ambient: int, rows) -> "Subspace":
        """The span of ``{col: x}`` rows, reduced as they are."""
        out, pivots = _rref(rows)
        sub = object.__new__(cls)
        sub.ambient, sub.pivots = ambient, tuple(pivots)
        sub.basis = tuple(tuple(row.get(k, _ZERO) for k in range(ambient)) for row in out)
        return sub

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.identity(ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, v) -> tuple[tuple, tuple]:
        """(coords, residue) with v = coords . basis + residue, residue 0 at the pivots."""
        w = [_entry(x) for x in v]
        coords = tuple(w[p] for p in self.pivots)
        for c, row in zip(coords, self.basis):
            if c:
                for i, x in enumerate(row):
                    if x:
                        w[i] = w[i] - c * x
        return coords, tuple(w)

    def contains(self, v) -> bool:
        return vec_is_zero(self.reduce(v)[1])

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return Subspace(self.ambient, self.basis + other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient})"


# ---------------------------------------------------------------------------
# Polynomials (dense, ascending coefficients) and operator analysis
# ---------------------------------------------------------------------------

def poly_trim(p: Sequence) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def min_poly(M: Matrix) -> tuple:
    """Monic minimal polynomial, ascending coefficients, via Krylov on vectors.

    It is the lcm of the minimal polynomials of M on e_1, ..., e_n.  With mu
    the lcm so far and w = mu(M) e_j, lcm(mu, mu_{e_j}) = mu * mu_w; mu_w is
    D^-m p(D t) for the :func:`_krylov` relation p of D M (D the lcm of M's
    denominators) on w with its denominators cleared.  Its coefficients are
    Gaussian when a Krylov vector has a Gaussian entry, else ``Fraction``.
    """
    n = M.nrows
    if n != M.ncols:
        raise ValueError("minimal polynomial needs a square matrix")
    parts = [{c: _parts(x) for c, x in row.items()} for row in M.sparse_rows]
    den = lcm(*(d for row in parts for _, _, d in row.values()))
    pairs = any(y for row in parts for _, y, _ in row.values())
    rows = [_scaled(row, den) for row in parts]
    gaussian_entries = any(type(x) is GaussianRational for row in M.sparse_rows for x in row.values())

    def step(v):
        return {r: z for r, row in enumerate(rows)
                if (z := sum(x * v[c] for c, x in row.items() if c in v))}

    mu = (_ONE,)
    for j in range(n):
        if len(mu) > n:
            break
        e = tuple(_ONE if i == j else _ZERO for i in range(n))
        w = vec_zero(n)
        for c in reversed(mu):
            w = vec_add(M.apply(w), vec_scale(c, e))
        if not vec_is_zero(w):
            wparts = {k: _parts(x) for k, x in enumerate(w) if x}
            p = _krylov(step, _scaled(wparts, lcm(*(d for _, _, d in wparts.values()))), n, pairs)[1]
            m = len(p) - 1  # M w = 0 exactly when p = t
            gaussian = (any(type(x) is GaussianRational for x in w if x)
                        or gaussian_entries and p != [0, 1])
            mu = poly_mul(mu, tuple(
                (_gauss(*_parts(c)[:2], den ** (m - k)) if gaussian else Fraction(c, den ** (m - k)))
                if c else _ZERO for k, c in enumerate(p[:-1])) + (_ONE,))
    return mu


def _scaled(parts: dict, m: int) -> dict:
    """``{k: (x, y, d)}`` triples times a common multiple m of their d: ints,
    and Gaussian integers (x, y, 1) where y != 0."""
    return {k: _gauss(x * (m // d), y * (m // d), 1) if y else x * (m // d)
            for k, (x, y, d) in parts.items()}


def _krylov(step: Callable, w: dict, n: int, pairs: bool = False) -> tuple[list, list]:
    """(w, step(w), ..., step^(m-1)(w), p) for a nonzero integral ``{k: x}``
    (k < n) and a linear ``step`` with an integral matrix: the vectors up to
    the first dependence and the least monic p with sum_j p_j step^j(w) = 0,
    which divides the characteristic polynomial and so is integral (Gauss).

    One incremental fraction-free elimination: vector j enters as an integer
    row with a 1 in the tracking column c + j (c = n) and goes to
    :func:`_land`; the first row that vanishes on the coordinates holds q
    with sum_j q_j step^j(w) = 0 in its tracking part, and p = q / q_m.
    With ``pairs`` (Gaussian entries) vector j enters realified as in
    :func:`_integral`, as v (tracking column c + 2j, c = 2n) and i v; the span
    is closed under i, so v vanishes first, with q_j = x_j + y_j i read at
    c + 2j and c + 2j + 1.
    """
    cols = 2 * n if pairs else n
    echelon, vectors = {}, []
    while True:
        j = len(vectors)
        if pairs:
            row = {c: z for k, x in w.items() for c, z in zip((2 * k, 2 * k + 1), _parts(x)) if z}
            row[cols + 2 * j] = 1
            rows = (row, {c ^ 1: -z if c & 1 else z for c, z in row.items()})
        else:
            rows = ({**{k: x for k, x in w.items() if x}, cols + j: 1},)
        for row in rows:
            if (row := _land(echelon, row, cols)) is not None:
                lead = row[cols + (j << pairs)]
                return vectors, [_gauss(row.get(cols + 2 * k, 0) // lead,
                                        row.get(cols + 2 * k + 1, 0) // lead, 1) if pairs
                                 else row.get(cols + k, 0) // lead for k in range(j + 1)]
        vectors.append(w)
        w = step(w)


@dataclass(frozen=True)
class OperatorReport:
    min_poly: tuple
    is_nilpotent: bool
    is_semisimple: bool


def operator_analysis(M: Matrix) -> OperatorReport:
    """Minimal polynomial plus nilpotency / semisimplicity flags.

    Semisimplicity via squarefreeness of the minimal polynomial is valid in
    characteristic 0 only, which is all this package supports.
    """
    p = min_poly(M)
    nilpotent = all(c == 0 for c in p[:-1])
    # squarefree iff gcd(p, p') = 1 iff their Sylvester matrix is nonsingular
    dp, m = [k * c for k, c in enumerate(p)][1:], len(p) - 1
    sylvester = [{i + k: c for k, c in enumerate(q) if c}
                 for q, copies in ((p, m - 1), (dp, m)) for i in range(copies)]
    semisimple = m == 0 or rank(Matrix._of(sylvester, 2 * m - 1)) == 2 * m - 1
    return OperatorReport(min_poly=p, is_nilpotent=nilpotent, is_semisimple=semisimple)
