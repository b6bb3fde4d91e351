"""Shared fixtures: catalog algebras, seeded random generators and oracles."""

from __future__ import annotations

import operator
import os
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, count, product
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

import currentalg as ca
from currentalg import scalars
from currentalg.io import parse_algebra_file
from currentalg.linalg import vec_add, vec_scale, vec_sub

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def pytest_configure(config):
    # Demos and CLI runs are child processes; they import the package from
    # src/ like this process does (``pythonpath`` in pyproject.toml).
    src = str(FIXTURES.parent / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + paths)


# Same examples on every run: no random seed, no replay database, no timing.
settings.register_profile("currentalg", derandomize=True, database=None, deadline=None)
settings.load_profile("currentalg")


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


def catalog_lie_algebras():
    return [
        ca.r2(),
        ca.abelian(1),
        ca.abelian(2),
        ca.abelian(3),
        ca.heisenberg(3),
        ca.sl2(),
        ca.t_oplus_a(2, 1),
        ca.make("t_oplus_a", n=3, s=1),
    ]


def catalog_assoc_algebras():
    return [
        ca.m1(1),
        ca.m1(2),
        ca.m1(3),
        ca.null_algebra(1),
        ca.null_algebra(2),
        ca.real_rigid(2, 1),
        ca.real_rigid(3, 1),
        ca.real_rigid(4, 2),
    ]


class gaussian_pair_oracle:
    """a + b*i held as two ``Fraction`` parts: the former
    ``scalars.GaussianRational``, kept as the oracle for the integer-triple
    class.  Every operation lifts an int or Fraction operand and rebuilds both
    parts through ``Fraction()``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise ca.ScalarError("floating point is not allowed")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _lift(x):
        if isinstance(x, gaussian_pair_oracle):
            return x
        if isinstance(x, (int, Fraction)):
            return gaussian_pair_oracle(x)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return gaussian_pair_oracle(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return gaussian_pair_oracle(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return gaussian_pair_oracle(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return gaussian_pair_oracle(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return gaussian_pair_oracle(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return gaussian_pair_oracle(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Agree with Fraction/int hashing when the value is real.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return gaussian_pair_oracle(self.re, -self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


def rand_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_matrix(rng: random.Random, n: int, span: int = 3) -> ca.Matrix:
    return ca.Matrix([[rand_fraction(rng, span) for _ in range(n)]
                      for _ in range(n)])


def rand_invertible(rng: random.Random, n: int) -> ca.Matrix:
    while True:
        m = ca.Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                       for _ in range(n)])
        try:
            ca.inverse(m)
            return m
        except ca.SingularMatrixError:
            continue


def rand_vector(rng: random.Random, n: int, span: int = 3):
    return tuple(rand_fraction(rng, span) for _ in range(n))


def rand_chevalley2(rng: random.Random, n: int) -> ca.ChevalleyCochain:
    data = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.7:
                data[(i, j)] = rand_vector(rng, n, 2)
    return ca.ChevalleyCochain(2, n, data)


def rand_chevalley(rng: random.Random, n: int, degree: int) -> ca.ChevalleyCochain:
    from itertools import combinations

    data = {}
    for tup in combinations(range(1, n + 1), degree):
        if rng.random() < 0.7:
            data[tup] = rand_vector(rng, n, 2)
    return ca.ChevalleyCochain(degree, n, data)


def rand_symmetric(rng: random.Random, n: int) -> ca.SymmetricCochain:
    data = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if rng.random() < 0.7:
                data[(i, j)] = rand_vector(rng, n, 2)
    return ca.SymmetricCochain(n, data)


def random_assoc_comm_algebras(rng: random.Random, dim: int, want: int,
                               max_tries: int = 20000) -> list:
    """Random commutative tables with small entries that pass associativity."""
    found = []
    for _ in range(max_tries):
        if len(found) >= want:
            break
        products = {}
        for i in range(1, dim + 1):
            for j in range(i, dim + 1):
                vec = [0] * dim
                for s in range(dim):
                    r = rng.random()
                    if r < 0.25:
                        vec[s] = rng.choice((-1, 1))
                products[(i, j)] = tuple(vec)
        alg = ca.Algebra(f"rand{dim}", ca.ASSOC_COMM, ca.Q, dim, products)
        if ca.check_identities(alg).passed:
            found.append(alg)
    return found


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def dense_rref(rows) -> tuple[list, list]:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in m], pivots


def dense_view(op) -> ca.Matrix:
    """The dense Matrix of a sparse operator's ``{col: x}`` rows."""
    return ca.Matrix([[row.get(c, Fraction(0)) for c in range(op.ncols)] for row in op.sparse_rows])


P61 = 2 ** 61 - 1
# p = 1 mod 4, so -1 has a square root mod p and Q(i) maps into Z/p.
P998 = 998244353


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 mod 4: a^((p-1)/4) for a
    quadratic non-residue a."""
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    return pow(a, (p - 1) // 4, p)


def rank_mod_p(rows, p: int = P61) -> int:
    """Rank mod p of sparse ``{col: x}`` rows with rational or Gaussian
    entries; for p = 1 mod 4, i maps to :func:`sqrt_minus_one` (p).

    That map is a ring homomorphism from the Gaussian rationals whose
    denominators p does not divide.  Scaling a row by a unit mod p changes no
    rank, and a minor that vanishes over Q or Q(i) vanishes mod p, so rank
    mod p <= the exact rank.  This route never realifies a Gaussian row."""
    root = sqrt_minus_one(p) if p % 4 == 1 else None
    pivots = {}  # column -> row with a 1 there, reduced mod p
    for row in rows:
        r = {}
        for c, x in row.items():  # pow raises when p divides the denominator
            re, im = (x.re, x.im) if isinstance(x, ca.GaussianRational) else (Fraction(x), 0)
            if im and root is None:
                raise ValueError(f"i has no image mod {p}")
            v = re.numerator * pow(re.denominator, -1, p) % p
            if im:
                v = (v + root * im.numerator * pow(im.denominator, -1, p)) % p
            if v:
                r[c] = v
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[c]
            for k, v in pivots[c].items():
                w = (r.get(k, 0) - f * v) % p
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
    return len(pivots)


# The given-order kernel: rows eliminated in the order given, each divided by
# its content after every step, with no stop.  ``given_order_kernel`` runs the
# public linear algebra on it, so tests compare it with the package's
# sparsest-first kernel through the same calls.

def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _given_order_integral(rows):
    sparse = [r for r in rows if r]
    types = set().union(*(map(type, r.values()) for r in sparse))
    gaussian, ints = ca.GaussianRational in types, types == {int}
    pairs = gaussian and any(scalars._parts(x)[1] for r in sparse for x in r.values())
    out = []
    for row in sparse:
        if gaussian:
            parts = {c: scalars._parts(x) for c, x in row.items()}
            m = lcm(*(d for _, _, d in parts.values()))
            row = ({k: p for c, (x, y, d) in parts.items()
                    for k, p in ((2 * c, x * (m // d)), (2 * c + 1, y * (m // d))) if p}
                   if pairs else {c: x * (m // d) for c, (x, _, d) in parts.items()})
        elif ints:
            row = dict(row)
        else:
            m = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (m // x.denominator) for c, x in row.items()}
        row = _primitive(row)
        out.append(row)
        if pairs:
            out.append({k ^ 1: -x if k & 1 else x for k, x in row.items()})
    return out, bool(gaussian), pairs


def _given_order_eliminate(row, c, pivot):
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
    return _primitive(row) if row else row


def _given_order_echelon(rows, ceiling=None):
    """The full forward phase in the given order; a ceiling is not used."""
    echelon = {}
    for row in rows:
        while row:
            c = min(row)
            if c not in echelon:
                echelon[c] = row
                break
            row = _given_order_eliminate(row, c, echelon[c])
    return echelon


def _given_order_back_substitute(echelon):
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        for k in [k for k in row if k != c and k in echelon]:
            row = _given_order_eliminate(row, k, echelon[k])
        echelon[c] = row
    return echelon


@contextmanager
def given_order_kernel():
    """``currentalg.linalg`` with the given-order kernel in place of its own."""
    linalg = ca.linalg
    swaps = {"_integral": _given_order_integral, "_eliminate": _given_order_eliminate,
             "_echelon": _given_order_echelon, "_back_substitute": _given_order_back_substitute}
    saved = {name: getattr(linalg, name) for name in swaps}
    try:
        for name, fn in swaps.items():
            setattr(linalg, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(linalg, name, fn)


def dense_products(alg):
    """The reduced products e_i * e_j (i < j for Lie, i <= j otherwise) as
    dense vectors read through ``basis_product``, zero vectors included."""
    pairs = (combinations if alg.kind == ca.LIE else combinations_with_replacement)(
        range(1, alg.dim + 1), 2)
    return {(i, j): alg.basis_product(i, j) for i, j in pairs}


def typed_terms(alg):
    """The structure tensor with the type of each constant beside it, so that
    an ``int`` and an equal ``Fraction`` compare unequal."""
    return {key: tuple((k, c, type(c)) for k, c in terms) for key, terms in alg.tensor.items()}


def current_algebra_oracle(g, A):
    """g (x) A through the public constructor on dense product vectors of
    length p*q: [X_i (x) e_a, X_j (x) e_b] for i < j is the outer product of
    [X_i, X_j] and e_a e_b, which puts C_ij^k D_ab^c at the g-major flat
    index of (k, c)."""
    q = A.dim
    products = {}
    for i, j in combinations(range(1, g.dim + 1), 2):
        gij = g.basis_product(i, j)
        for a, b in product(range(1, q + 1), repeat=2):
            products[((i - 1) * q + a, (j - 1) * q + b)] = tuple(
                x * y for x in gij for y in A.basis_product(a, b))
    return ca.Algebra(f"{g.name}(x){A.name}", ca.LIE, g.field, g.dim * q, products)


def direct_sum_oracle(a, b):
    """a + b through the public constructor: a's products padded with b.dim
    zeros, b's moved up by a.dim and padded in front with a.dim zeros."""
    zero = scalars.zero(a.field)
    products = {key: v + (zero,) * b.dim for key, v in dense_products(a).items()}
    products.update({(i + a.dim, j + a.dim): (zero,) * a.dim + v
                     for (i, j), v in dense_products(b).items()})
    return ca.Algebra(f"{a.name}+{b.name}", a.kind, a.field, a.dim + b.dim, products)


def small_scalars(field):
    """Small ints and Fractions and, over Q(i), Gaussian rationals built from them."""
    rational = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3),
                                                       st.integers(1, 3)))
    if field == ca.Q:
        return rational
    return st.one_of(rational, st.builds(scalars.GaussianRational, rational, rational))


@st.composite
def lawful_algebras(draw, kind, field):
    """Small algebras of ``kind`` over ``field`` that pass their identities:
    a 2-dim Lie or 1-dim commutative table with random constants (each is
    lawful whatever its constants), or a catalog algebra of dim <= 3 in a
    dense random basis (:func:`bases`)."""
    entry = small_scalars(field)
    if draw(st.booleans()):
        if kind == ca.LIE:
            return ca.Algebra("free", kind, field, 2, {(1, 2): (draw(entry), draw(entry))})
        return ca.Algebra("free", kind, field, 1, {(1, 1): (draw(entry),)})
    catalog = catalog_lie_algebras() if kind == ca.LIE else catalog_assoc_algebras()
    alg = draw(st.sampled_from([a for a in catalog if a.dim <= 3]))
    if field == ca.QI:
        alg = ca.complexify(alg)
    return ca.change_basis(alg, draw(bases(field, alg.dim, "dense")))


@st.composite
def spelled_tables(draw, field, kind):
    """A random dense table and a spelling of it for the public constructor.

    Returns (n, table, spelled): ``table`` maps some reduced pairs (i < j for
    Lie, i <= j otherwise) to a vector, at times the zero vector; ``spelled``
    gives each as (i, j) or as (j, i) (negated for Lie) or both ways, a
    consistent duplicate, in a random order, plus for Lie at times a zero
    vector on (i, i)."""
    n = draw(st.integers(1, 4))
    entry = small_scalars(field)
    pairs = (combinations if kind == ca.LIE else combinations_with_replacement)(
        range(1, n + 1), 2)
    table, spelled = {}, []
    for i, j in pairs:
        given_as = draw(st.sampled_from(("absent", "zero", "vector")))
        if given_as == "absent":
            continue
        vec = table[(i, j)] = (tuple(draw(entry) for _ in range(n)) if given_as == "vector"
                               else (0,) * n)
        swapped = ((j, i), tuple(-x for x in vec) if kind == ca.LIE else vec)
        spelled += draw(st.sampled_from(([((i, j), vec)], [swapped], [((i, j), vec), swapped])))
    if kind == ca.LIE:
        spelled += [((i, i), (0,) * n) for i in range(1, n + 1) if draw(st.booleans())]
    return n, table, draw(st.permutations(spelled))


def random_algebras(kind, field):
    """Lawful algebras, or random tables that mostly fail the identities."""
    return st.one_of(lawful_algebras(kind, field), spelled_tables(field, kind).map(
        lambda t: ca.Algebra("rand", kind, field, t[0], t[2])))


@st.composite
def vectors(draw, field, n):
    """A vector of length n, sparse (mostly zeros) or dense, its entries ints,
    Fractions and, over Q(i), Gaussian rationals."""
    entry = small_scalars(field)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), entry)
    return tuple(draw(entry) for _ in range(n))


@st.composite
def bases(draw, field, n, shape):
    """An invertible n x n matrix L U (L unit lower, U upper): "unimodular" with
    entries 0 and +-1 beside a unit diagonal, "gaussian" the same with +-i among
    them, "dense" with small scalars of ``field`` everywhere and a nonzero
    diagonal in U."""
    units = {"unimodular": (1, -1), "gaussian": (1, -1, scalars.GaussianRational(0, 1),
                                                 scalars.GaussianRational(0, -1))}
    if shape == "dense":
        entry = small_scalars(field)
        diagonal = entry.filter(bool)
    else:
        entry, diagonal = st.sampled_from((0,) + units[shape]), st.just(1)
    lower = ca.Matrix([[1 if i == j else draw(entry) if i > j else 0 for j in range(n)]
                       for i in range(n)])
    upper = ca.Matrix([[draw(diagonal) if i == j else draw(entry) if i < j else 0
                        for j in range(n)] for i in range(n)])
    return lower @ upper


def multiply_oracle(alg, x, y):
    """x * y by the dense loop over all basis pairs, each product read through
    ``basis_product``: the vectors are read in the algebra's field and every
    coordinate starts at the field's zero, so the values are field scalars."""
    x, y = scalars.coerce_vector(alg.field, x), scalars.coerce_vector(alg.field, y)
    out = [scalars.zero(alg.field)] * alg.dim
    for i, xi in enumerate(x, 1):
        for j, yj in enumerate(y, 1):
            if xi != 0 and yj != 0:
                for k, c in enumerate(alg.basis_product(i, j)):
                    out[k] += xi * yj * c
    return tuple(out)


def change_basis_oracle(alg, f):
    """mu_f(e_i, e_j) = f^{-1}(f e_i * f e_j) on the reduced pairs, the
    products by :func:`multiply_oracle`, through the public constructor."""
    f_inv, cols = ca.inverse(f), f.columns()
    pairs = (combinations if alg.kind == ca.LIE else combinations_with_replacement)(
        range(1, alg.dim + 1), 2)
    products = {(i, j): f_inv.apply(multiply_oracle(alg, cols[i - 1], cols[j - 1]))
                for i, j in pairs}
    return ca.Algebra(alg.name, alg.kind, alg.field, alg.dim, products)


def derivation_oracle(alg, f):
    """The Leibniz rule f(e_i e_j) = f(e_i) e_j + e_i f(e_j) pair by pair, on
    reduced pairs, the products read through ``basis_product``."""
    n = alg.dim
    e = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    pairs = (combinations if alg.kind == ca.LIE else combinations_with_replacement)(range(n), 2)
    for i, j in pairs:
        lhs = f.apply(alg.basis_product(i + 1, j + 1))
        rhs = vec_add(multiply_oracle(alg, f.apply(e[i]), e[j]),
                      multiply_oracle(alg, e[i], f.apply(e[j])))
        if any(x != 0 for x in vec_sub(lhs, rhs)):
            return False
    return True


def left_mult_span_oracle(alg):
    """span{L_{e_i}} from n dense left-multiplication matrices, each flattened
    row-major (entry (k, j) at (k-1)n + j-1)."""
    n = alg.dim
    return ca.Subspace(n * n, [alg.left_mult_matrix(alg.basis_vector(i)).flatten()
                               for i in range(1, n + 1)])


def nilpotent_ops_oracle(ops, n):
    """Do the n x n ``ops`` generate a nilpotent associative algebra?  Exactly
    when every product of n of them vanishes."""
    return all(reduce(operator.matmul, word).is_zero() for word in product(ops, repeat=n))


# Column-by-column oracles of the assembled operators: each column is the
# image of one basis cochain, from the formula and the products e_i * e_j of
# ``basis_product`` (no tensor terms or multiply); a test in test_algebra.py
# ties those products to the constructor input.  Returned as Matrix objects,
# whose constructor turns every entry into a field scalar.

def chevalley_columns_oracle(g, k):
    """Chevalley d^k of g: column (S, s) is d of the cochain phi(e_S) = e_s."""
    n = g.dim
    cols = []
    for tup in combinations(range(1, n + 1), k):
        for s in range(1, n + 1):

            def phi(args):  # phi(e_tup) = e_s, alternating: coefficient of e_s
                if sorted(args) != list(tup) or len(set(args)) < len(args):
                    return 0
                return (-1) ** sum(a > b for a, b in combinations(args, 2))

            col = []
            for T in combinations(range(1, n + 1), k + 1):
                val = [Fraction(0)] * n
                for p in range(k + 1):  # (-1)^p [x_p, phi(..., x_p omitted, ...)]
                    sign = phi(T[:p] + T[p + 1:])
                    for t, c in enumerate(g.basis_product(T[p], s) if sign else ()):
                        val[t] += (-1) ** p * sign * c
                for p, q in combinations(range(k + 1), 2):
                    rest = tuple(x for m, x in enumerate(T) if m not in (p, q))
                    for l, w in enumerate(g.basis_product(T[p], T[q]), 1):
                        val[s - 1] += (-1) ** (p + q) * w * phi((l,) + rest)
                col.extend(val)
            cols.append(tuple(col))
    return ca.Matrix.from_columns(cols)


def leibniz_columns_oracle(alg):
    """The Leibniz system f -> f(e_i e_j) - f(e_i) e_j - e_i f(e_j): column
    (r-1) n + (c-1) is its value on f = E_rc, f(e_c) = e_r; rows (i, j, s) on
    reduced pairs, i < j for Lie and i <= j for assoc-comm."""
    n = alg.dim
    pairs = list((combinations if alg.kind == ca.LIE else combinations_with_replacement)(
        range(1, n + 1), 2))
    cols = []
    for r, c in product(range(1, n + 1), repeat=2):
        col = []
        for i, j in pairs:
            val = [Fraction(0)] * n
            val[r - 1] += alg.basis_product(i, j)[c - 1]
            if i == c:
                val = [x - y for x, y in zip(val, alg.basis_product(r, j))]
            if j == c:
                val = [x - y for x, y in zip(val, alg.basis_product(i, r))]
            col.extend(val)
        cols.append(tuple(col))
    return ca.Matrix.from_columns(cols)


def hochschild_columns_oracle(A):
    """Hochschild d: S^2 -> C^3: column (a <= b, s) is d of the symmetric
    cochain psi(e_a, e_b) = e_s; rows (i, j, k, t) with triples in
    lexicographic order."""
    n = A.dim
    cols = []
    for (a, b), s in product(combinations_with_replacement(range(1, n + 1), 2),
                             range(1, n + 1)):

        def psi(x, y):  # coefficient of e_s in psi(e_x, e_y)
            return int((min(x, y), max(x, y)) == (a, b))

        col = []
        for i, j, k in product(range(1, n + 1), repeat=3):
            # e_i psi(e_j, e_k) - psi(e_i e_j, e_k) + psi(e_i, e_j e_k) - psi(e_i, e_j) e_k
            val = [psi(j, k) * x - psi(i, j) * y for x, y in zip(
                A.basis_product(i, s), A.basis_product(s, k))]
            val[s - 1] += (
                sum(w * psi(i, l) for l, w in enumerate(A.basis_product(j, k), 1))
                - sum(w * psi(l, k) for l, w in enumerate(A.basis_product(i, j), 1)))
            col.extend(val)
        cols.append(tuple(col))
    return ca.Matrix.from_columns(cols)


def unimodular_twist(n, seed):
    rng = random.Random(seed)
    lower = ca.Matrix([[1 if i == j else rng.choice((-1, 1)) if i == j + 1 else 0
                        for j in range(n)] for i in range(n)])
    upper = ca.Matrix([[1 if i == j else rng.choice((-1, 1)) if j == i + 1 else 0
                        for j in range(n)] for i in range(n)])
    return lower @ upper


def fixture_algebras():
    """The algebra fixtures up to dim 8; the larger ones are paper-scale
    inputs for the command line, beyond what the corpus oracles can afford."""
    algebras = [parse_algebra_file(p) for p in sorted(FIXTURES.glob("*.json"))
                if not p.name.startswith("cochain")]
    return [a for a in algebras if a.dim <= 8]


def with_variants(algebras):
    """Each algebra, a unimodular change of basis of it and, over Q, its complexification."""
    out = []
    for pos, alg in enumerate(algebras):
        out += [alg, ca.change_basis(alg, unimodular_twist(alg.dim, pos))]
        if alg.field == ca.Q:
            out.append(ca.complexify(alg))
    return out


def oracle_corpus(kind):
    base = fixture_algebras() + catalog_lie_algebras() + catalog_assoc_algebras()
    base.append(ca.current_algebra(ca.r2(), ca.m1(2)))
    return with_variants([a for a in base if a.kind == kind])


def scaled(alg):
    """alg in the basis 2 e_1, e_2, ..., e_n: constants with halves among ints."""
    n = alg.dim
    return ca.change_basis(alg, ca.Matrix([[2 if i == j == 0 else int(i == j) for j in range(n)]
                                           for i in range(n)]))


def scaled_corpus(kind):
    """The oracle corpus (canonical, twisted, complexified) and each of those scaled."""
    base = oracle_corpus(kind)
    return base + [scaled(a) for a in base]


def _triples(n: int):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                yield (i, j, k)


def deformation_oracle(d):
    """(ok_up_to, first_obstruction) of a TruncatedDeformation, from dense
    bracket polynomials per triple, the base read through ``basis_product``."""
    g = d.base
    n, N = g.dim, d.order
    zero = (Fraction(0),) * n

    def bracket_poly(i: int, j: int) -> list:
        coeffs = [g.basis_product(i, j)]
        for m, phi in enumerate(d.cochains, start=1):
            if m > N:
                break
            coeffs.append(phi.value((i, j)))
        while len(coeffs) < N + 1:
            coeffs.append(zero)
        return coeffs[:N + 1]

    def bracket_poly_mixed(u: list, k: int) -> list:
        # u is a polynomial vector; bracket with basis e_k, truncated.
        out = [list(zero) for _ in range(N + 1)]
        for m, vec in enumerate(u):
            for l, c in enumerate(vec, start=1):
                if c == 0:
                    continue
                inner = bracket_poly(l, k)
                for m2, w in enumerate(inner):
                    if m + m2 > N:
                        break
                    for s in range(n):
                        if w[s] != 0:
                            out[m + m2][s] += c * w[s]
        return [tuple(row) for row in out]

    worst = None
    for (i, j, k) in _triples(n):
        total = [list(zero) for _ in range(N + 1)]
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            term = bracket_poly_mixed(bracket_poly(a, b), c)
            for m in range(N + 1):
                for s in range(n):
                    total[m][s] += term[m][s]
        for m in range(N + 1):
            if any(x != 0 for x in total[m]):
                if worst is None or (m, (i, j, k)) < worst:
                    worst = (m, (i, j, k))
                break
    if worst is None:
        return N, None
    return worst[0] - 1, worst


def pq_residuals_oracle(g, A) -> list:
    """(g_triple, a_triple, target, value) of every nonzero product-form
    Jacobi residual, in flat-triple then target order, by the seven-deep loop
    over both factors read through ``basis_product``."""
    p, q = g.dim, A.dim
    zero = Fraction(0)

    def C(i, j):
        return g.basis_product(i, j)

    def D(a, b):
        return A.basis_product(a, b)

    residuals = []
    dim = p * q
    for u in range(1, dim + 1):
        i, a = ca.unflat_index(u, q)
        for v in range(u + 1, dim + 1):
            j, b = ca.unflat_index(v, q)
            for w in range(v + 1, dim + 1):
                k, c = ca.unflat_index(w, q)
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
                            residuals.append(((i, j, k), (a, b, c), (s, t), acc))
    return residuals


_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _outer(xs, ys):
    return [x * y if x and y else 0 for x in xs for y in ys]


def _first_slot(v, value):
    """sum_l v_l value(l): a cochain with the coordinate vector v in its first slot."""
    acc = [0] * len(v)
    for l, c in enumerate(v, start=1):
        if c:
            for k, x in enumerate(value(l)):
                if x:
                    acc[k] += c * x
    return acc


def _summed(zero, vectors) -> tuple:
    total = [zero] * len(vectors[0])
    for vec in vectors:
        for k, x in enumerate(vec):
            if x:
                total[k] += x
    return tuple(total)


def decomposable_delta_oracle(g, A, psi1, phi2, phi3, psi4, g_tuple, a_tuple) -> tuple:
    """The coboundary expression of psi1 (x) phi2 + phi3 (x) psi4 at one pair of
    basis triples: its four blocks summed verbatim over each cyclic rotation,
    the products read through ``basis_product``, in field scalars."""
    blocks = []
    for cyc in _CYCLES:
        x1, x2, x3 = (g_tuple[c] for c in cyc)
        a1, a2, a3 = (a_tuple[c] for c in cyc)
        gx, ga = g.basis_product(x1, x2), A.basis_product(a1, a2)
        blocks += (
            _outer(_first_slot(psi1.value((x1, x2)), lambda l: g.basis_product(l, x3)),
                   _first_slot(phi2.value(a1, a2), lambda l: A.basis_product(l, a3))),
            _outer(_first_slot(phi3.value(x1, x2), lambda l: g.basis_product(l, x3)),
                   _first_slot(psi4.value(a1, a2), lambda l: A.basis_product(l, a3))),
            _outer(_first_slot(gx, lambda l: psi1.value((l, x3))),
                   _first_slot(ga, lambda l: phi2.value(l, a3))),
            _outer(_first_slot(gx, lambda l: phi3.value(l, x3)),
                   _first_slot(ga, lambda l: psi4.value(l, a3))),
        )
    return _summed(scalars.zero(g.field), blocks)


def bullet_oracle(A, psi4, args) -> tuple:
    """sum over cyclic rotations of mu2(psi4(a1, a2), a3), the products read
    through ``basis_product``, in field scalars."""
    return _summed(scalars.zero(A.field), [
        _first_slot(psi4.value(args[c1], args[c2]), lambda l: A.basis_product(l, args[c3]))
        for c1, c2, c3 in _CYCLES])


def min_poly_oracle(M) -> tuple:
    """Monic minimal polynomial by Krylov on the matrix powers I, M, M^2, ..."""
    n = M.nrows
    if n == 0:
        return (Fraction(1),)
    powers = [ca.Matrix.identity(n)]
    flats = [powers[0].flatten()]
    for _ in range(n):
        powers.append(powers[-1] @ M)
        target = powers[-1].flatten()
        coeffs = ca.solve(ca.Matrix.from_columns(flats), target)
        if coeffs is not None:
            return poly_trim([-c for c in coeffs] + [Fraction(1)])
        flats.append(target)
    raise AssertionError("minimal polynomial must have degree <= n")


# ---------------------------------------------------------------------------
# Readers and a basis change that src/ no longer needs
# ---------------------------------------------------------------------------

def matrix_trace(M):
    """The sum of the diagonal entries of a ``Matrix``."""
    return sum((row.get(i, 0) for i, row in enumerate(M.sparse_rows)), Fraction(0))


def subspace_coordinates(sub, v):
    """Coefficients of v in the stored basis of ``sub``, or None if v lies outside."""
    coords, residue = sub.reduce(v)
    return None if any(residue) else coords


def real_rigid_split_columns(n: int, s: int) -> set:
    """The primitive idempotents of complexify(real_rigid(n, s)) by hand: per
    complex-type block u, v = (e_{2i-1} +- i e_{2i})/2, then the plain e_j."""
    half, zero = Fraction(1, 2), ca.GaussianRational(0)
    cols = set()
    for a in range(0, 2 * s, 2):
        for sign in (1, -1):
            col = [zero] * n
            col[a], col[a + 1] = ca.GaussianRational(half), ca.GaussianRational(0, sign * half)
            cols.add(tuple(col))
    for j in range(2 * s, n):
        cols.add(tuple(ca.GaussianRational(int(k == j)) for k in range(n)))
    return cols


# ---------------------------------------------------------------------------
# The idempotent search before it became one split of A / rad A
# ---------------------------------------------------------------------------

def trace_gram_oracle(A) -> list:
    """Gram rows of T(e_i, e_j) = tr L_{e_i e_j}, one left multiplication each."""
    return [[matrix_trace(A.left_mult_matrix(A.basis_product(i, j)))
             for j in range(1, A.dim + 1)] for i in range(1, A.dim + 1)]


def q_factor_oracle(coeffs):
    """Irreducible monic factors over Q (ascending coeffs) with multiplicities,
    in the order of sympy's ``Poly.factor_list``."""
    import sympy

    t = sympy.Symbol("t")
    coeffs = [Fraction(c) for c in coeffs]
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      t, domain="QQ")
    out = []
    for fac, mult in poly.factor_list()[1]:
        asc = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.append((tuple(c / asc[-1] for c in asc), mult))
    return out


def qi_factor_oracle(coeffs):
    """Irreducible monic factors over Q(i) (ascending coeffs) with
    multiplicities, by sympy's algebraic-field factorization."""
    import sympy

    field = ca.QI
    t = sympy.Symbol("t")

    def to_sympy(c):
        c = ca.scalars.coerce(field, c)
        return (sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))

    def from_sympy(expr):
        re_, im_ = sympy.re(expr), sympy.im(expr)
        re_f = Fraction(int(re_.p), int(re_.q))
        im_f = Fraction(int(im_.p), int(im_.q))
        return ca.GaussianRational(re_f, im_f)

    poly = sympy.Poly([to_sympy(c) for c in reversed(list(coeffs))], t,
                      domain="QQ_I")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        asc = [from_sympy(c) for c in reversed(fac.all_coeffs())]
        lead = asc[-1]
        out.append((tuple(c / lead for c in asc), mult))
    return out


class _Restriction:
    def __init__(self, alg, sub):
        self.alg, self.sub = alg, sub

    def to_ambient(self, coords) -> tuple:
        acc = [ca.scalars.zero(self.alg.field)] * self.sub.ambient
        for c, row in zip(coords, self.sub.basis):
            if c != 0:
                acc = [x + c * y for x, y in zip(acc, row)]
        return tuple(acc)

    def from_ambient(self, vec) -> tuple:
        coords = subspace_coordinates(self.sub, vec)
        if coords is None:
            raise ca.AlgebraError("vector lies outside the subalgebra")
        return coords


def restricted_algebra(parent, sub, name: str) -> _Restriction:
    """The multiplication of ``parent`` restricted to a product-closed subspace."""
    if sub.dim == 0:
        raise ca.AlgebraError("cannot restrict to the zero subspace")
    m = sub.dim
    products = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            w = parent.multiply(sub.basis[i - 1], sub.basis[j - 1])
            coords = subspace_coordinates(sub, w)
            if coords is None:
                raise ca.AlgebraError("subspace is not closed under the product")
            products[(i, j)] = coords
    alg = ca.Algebra(name, parent.kind, parent.field, m, products)
    return _Restriction(alg, sub)


def quotient_algebra(B, ideal):
    """(Q, proj, lift) for B / ideal, on the complement of the pivot columns."""
    free = [c for c in range(B.dim) if c not in ideal.pivots]
    if not free:
        raise ca.AlgebraError("quotient by the whole algebra is empty")
    one, zero = ca.scalars.one(B.field), ca.scalars.zero(B.field)

    def proj(vec):
        residue = ideal.reduce(vec)[1]
        return tuple(residue[f] for f in free)

    def lift(coords):
        out = [zero] * B.dim
        for c, f in zip(coords, free):
            out[f] = c
        return tuple(out)

    def unit_coords(i):
        return tuple(one if k == i - 1 else zero for k in range(len(free)))

    products = {(i, j): proj(B.multiply(lift(unit_coords(i)), lift(unit_coords(j))))
                for i in range(1, len(free) + 1) for j in range(i, len(free) + 1)}
    return ca.Algebra(f"{B.name}/nil", B.kind, B.field, len(free), products), proj, lift


def candidate_coordinate_vectors(dim: int, field: str):
    """The moment curve x(t) = sum_k t^(k-1) b_k for t = 2 .. C(dim,2)(dim-1) + 2:
    in an etale algebra of dimension dim one of these points generates."""
    for t in range(2, comb(dim, 2) * (dim - 1) + 3):
        yield tuple(ca.scalars.coerce(field, t ** k) for k in range(dim))


def hensel_idempotent(B, x: tuple) -> tuple:
    """Lift an idempotent mod the nilradical to an exact one: x <- 3x^2 - 2x^3."""
    for _ in range(64):
        x2 = B.multiply(x, x)
        if x2 == x:
            return x
        x = vec_sub(vec_scale(3, x2), vec_scale(2, B.multiply(x2, x)))
    raise AssertionError("idempotent lifting did not converge")


def bezout_idempotent_oracle(A):
    """A nonzero idempotent or None, from the first non-nilpotent basis element
    a: its powers by ``multiply``, its zero-constant relation p = t^s u, and a
    Bezout identity alpha t^s + beta u = 1, so that (alpha t^s mod p)(a) is
    idempotent."""
    zero, one = ca.scalars.zero(A.field), ca.scalars.one(A.field)
    for i in range(1, A.dim + 1):
        a = A.basis_vector(i)
        powers = [a]
        while (sol := ca.solve(ca.Matrix.from_columns(powers),
                               nxt := A.multiply(a, powers[-1]))) is None:
            powers.append(nxt)
        p = poly_trim([zero] + [-c for c in sol] + [one])
        s = next(d for d, c in enumerate(p) if c != 0)
        ts = (zero,) * s + (one,)
        u, rem = poly_divmod(p, ts)
        assert not rem
        if poly_degree(u) == 0:
            continue
        gcd, alpha, _beta = poly_ext_gcd(ts, u)
        assert poly_degree(gcd) == 0
        eps = poly_divmod(poly_mul(alpha, ts), p)[1]
        assert eps[0] == 0
        e = (zero,) * A.dim
        for c, x in zip(eps[1:], powers):
            e = vec_add(e, vec_scale(c, x))
        assert A.multiply(e, e) == e and any(e)
        return e
    return None


def _eval_poly_with_unit(alg, poly, x, unit):
    acc = vec_scale(ca.scalars.zero(alg.field), unit)
    for c in reversed(poly_trim(poly)):
        acc = alg.multiply(acc, x)
        if c != 0:
            acc = vec_add(acc, vec_scale(c, unit))
    return acc


def _primitive_idempotents_unital(parent, comp, unit) -> list:
    """Primitive idempotents of a unital component, as ambient vectors."""
    view = restricted_algebra(parent, comp, f"{parent.name}|comp")
    B = view.alg
    unit_c = view.from_ambient(unit)
    nilrad = ca.Subspace(B.dim, ca.kernel_basis(ca.Matrix(trace_gram_oracle(B))))
    if nilrad.dim == 0:
        quotient, proj, lift = B, (lambda v: v), (lambda v: v)
    else:
        quotient, proj, lift = quotient_algebra(B, nilrad)
    if quotient.dim == 1:
        return [unit]
    unit_q = proj(unit_c)
    theta, m = next((c, p) for c in candidate_coordinate_vectors(quotient.dim, B.field)
                    for p in [min_poly_oracle(quotient.left_mult_matrix(c))]
                    if poly_degree(p) == quotient.dim)
    factors = qi_factor_oracle(m) if B.field == ca.QI else q_factor_oracle(m)
    assert all(mult == 1 for _, mult in factors)
    if len(factors) == 1:
        return [unit]
    prims = []
    for fac, _ in factors:
        cofactor, rem = poly_divmod(m, fac)
        assert not rem
        gcd, _s, t_coeff = poly_ext_gcd(fac, cofactor)
        assert poly_degree(gcd) == 0
        eps = poly_divmod(poly_mul(t_coeff, cofactor), m)[1]
        ebar = _eval_poly_with_unit(quotient, eps, theta, unit_q)
        e = hensel_idempotent(B, lift(ebar))
        prims.append(view.to_ambient(e))
    return prims


def recursive_decomposition_oracle(A):
    """(idempotents, components, nil residual) by the recursive Pierce peel:
    split off the unital part at some nonzero idempotent, find its primitive
    idempotents through its own trace radical, and repeat on the rest."""
    if ca.is_nilalgebra(A):
        raise ca.AlgebraError("a nilalgebra has no nonzero idempotent to split at")
    comps, idems = [], []
    work = ca.Subspace.full(A.dim)
    while True:
        if work.dim == 0:
            nil = ca.Subspace.zero(A.dim)
            break
        view = restricted_algebra(A, work, f"{A.name}|work")
        e_c = bezout_idempotent_oracle(view.alg)
        if e_c is None:
            nil = work
            break
        e = view.to_ambient(e_c)
        le = view.alg.left_mult_matrix(e_c)
        eye = ca.Matrix.identity(view.alg.dim)
        a11 = ca.Subspace(A.dim, [view.to_ambient(v) for v in ca.kernel_basis(le - eye)])
        a00 = ca.Subspace(A.dim, [view.to_ambient(v) for v in ca.kernel_basis(le)])
        for p in _primitive_idempotents_unital(A, a11, e):
            lp = A.left_mult_matrix(p)
            comps.append(ca.Subspace(A.dim, ca.kernel_basis(lp - ca.Matrix.identity(A.dim))))
            idems.append(p)
        work = a00
    return idems, comps, nil


# ---------------------------------------------------------------------------
# Polynomials over the field (ascending coefficients), which src/ no longer needs
# ---------------------------------------------------------------------------

def poly_trim(p) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_degree(p) -> int:
    return len(poly_trim(p)) - 1


def poly_add(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return poly_trim([a + b for a, b in zip(p, q)])


def poly_scale(c, p):
    return poly_trim([c * a for a in p])


def poly_divmod(p, q):
    p, q = list(poly_trim(p)), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q):
        c = p[-1] / lead
        d = len(p) - len(q)
        quot[d] = c
        for i, b in enumerate(q):
            p[d + i] = p[d + i] - c * b
        p = list(poly_trim(p))
        if not p:
            break
    return poly_trim(quot), poly_trim(p)


def poly_monic(p):
    p = poly_trim(p)
    if not p:
        return p
    lead = p[-1]
    return tuple(a / lead for a in p)


def poly_gcd(p, q):
    """Monic gcd.  Each remainder is made monic, which keeps the Fractions of
    the remainder sequence from compounding their leading coefficients."""
    a, b = poly_trim(p), poly_monic(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_monic(r)
    return poly_monic(a)


def poly_ext_gcd(p, q):
    """(g, s, t) with s*p + t*q = g, g monic."""
    r0, r1 = poly_trim(p), poly_trim(q)
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        qt, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, poly_scale(-1, poly_mul(qt, s1)))
        t0, t1 = t1, poly_add(t0, poly_scale(-1, poly_mul(qt, t1)))
    if not r0:
        return (), s0, t0
    lead = r0[-1]
    inv = 1 / lead
    return poly_monic(r0), poly_scale(inv, s0), poly_scale(inv, t0)


def poly_derivative(p):
    p = poly_trim(p)
    return poly_trim([i * a for i, a in enumerate(p)][1:])


# ---------------------------------------------------------------------------
# The idempotent split in field scalars, before it ran on integers
# ---------------------------------------------------------------------------

def krylov_oracle(M, w):
    """(w, Mw, ..., M^(m-1) w, mu_w): the Krylov vectors up to the first
    dependence, each new power tested by one ``solve``, and the monic mu_w of
    least degree m with mu_w(M) w = 0."""
    krylov = [w]
    while True:
        nxt = M.apply(krylov[-1])
        coeffs = ca.solve(ca.Matrix.from_columns(krylov), nxt)
        if coeffs is not None:
            return krylov, tuple(-c for c in coeffs) + (Fraction(1),)
        krylov.append(nxt)


def _relation_oracle(A, a):
    """(powers of a, the least monic p with p(0) = 0 and p(a) = 0, s with p = t^s u)."""
    powers, mu = krylov_oracle(A.left_mult_matrix(a), a)
    s = 1 + next(d for d, c in enumerate(mu) if c != 0)
    return powers, (scalars.zero(A.field),) + mu, s


def _squarefree_oracle(f):
    """f / gcd(f, f') over the field, monic."""
    f = poly_monic(f)
    return poly_divmod(f, poly_gcd(f, poly_derivative(f)))[0]


def _crt_idempotent_oracle(A, powers, p, f):
    """e(a) for e = 1 mod f, 0 mod p / f, by the extended Euclid over the field."""
    cofactor, rem = poly_divmod(p, f)
    g, _s, inv = poly_ext_gcd(f, poly_divmod(cofactor, f)[1])
    assert not rem and poly_degree(g) == 0
    eps = poly_mul(inv, cofactor)
    e = reduce(vec_add, (vec_scale(c, x) for c, x in zip(eps[1:], powers)),
               (scalars.zero(A.field),) * A.dim)
    assert any(e) and A.multiply(e, e) == e
    return e


def _monic_integral(f):
    """(c^n F(t / c), c) for a monic F of degree n over Q or Q(i), with c the
    lcm of its denominators: a monic polynomial over Z (Z[i]), whose monic
    factors h give the monic factors h(c t) / c^deg h of F."""
    c, n = lcm(*(scalars._parts(x)[2] for x in f)), len(f) - 1
    return [ca.structure._int(x * c ** (n - k)) for k, x in enumerate(f)], c


def _primitive_key(h):
    """(degree, descending coefficients) of the primitive integer form of h over Q."""
    den = lcm(*(c.denominator for c in h))
    ints = [int(x * den) for x in h]
    return len(h), [x // gcd(*ints) for x in reversed(ints)]


def _factor_rational_oracle(sqf):
    f, c = _monic_integral(sqf)
    facs = [tuple(Fraction(x, c ** (len(h) - 1 - k)) for k, x in enumerate(h))
            for h in ca.structure._zassenhaus(f)]
    return sorted(facs, key=_primitive_key)


def _factor_gaussian_oracle(sqf):
    shift_poly = ca.structure._poly_shift
    for s in count():
        shift = ca.GaussianRational(0, s)
        g = scalars.coerce_vector(ca.QI, shift_poly(sqf, -shift))
        re, im = [c.re for c in g], [c.im for c in g]
        norm = poly_add(poly_mul(re, re), poly_mul(im, im))
        if poly_degree(poly_gcd(norm, poly_derivative(norm))) == 0:
            break
    return [scalars.coerce_vector(ca.QI, shift_poly(poly_gcd(g, h), shift))
            for h in _factor_rational_oracle(norm)]


def factor_poly_oracle(field, u):
    """Monic irreducible factors of u with multiplicities, in ``_factor_poly``'s order,
    by the Euclid over Q or Q(i) and a factorization over Z of the squarefree
    part (over Q(i), of its norm: Trager's method)."""
    f = poly_monic(scalars.coerce_vector(field, u))
    sqf = _squarefree_oracle(f)
    out = []
    for fac in (_factor_gaussian_oracle(sqf) if field == ca.QI else _factor_rational_oracle(sqf)):
        mult, rest = 0, f
        while not (div := poly_divmod(rest, fac))[1]:
            mult, rest = mult + 1, div[0]
        out.append((fac, mult))
    return out if field == ca.QI else sorted(out, key=lambda fk: (len(fk[0]), fk[1]))


def factor_poly(field, coeffs):
    """``structure._factor_poly`` on field scalars: the monic F = coeffs / lc
    is made monic over Z (Z[i]) as f = c^deg F(t / c), with c the lcm of F's
    denominators, factored with scale c, and its factors are read back as the
    monic factors of F."""
    f = scalars.coerce_vector(field, coeffs)
    f, c = _monic_integral([x / f[-1] for x in f])
    one = scalars.one(field)
    return [(tuple(one * x / c ** (len(h) - 1 - k) for k, x in enumerate(h)), m)
            for h, m in ca.structure._factor_poly(field, f, ca.structure._squarefree(f), c)]


def primitive_idempotents_oracle(A) -> list:
    """The primitive idempotents of A by the same theta, relation and CRT as
    ``structure._primitive_idempotents``, all in field scalars."""
    d = ca.rank(ca.Matrix(ca.structure._trace_form(A)))
    if d == 0:
        return []
    n = A.dim
    for t in range(2, comb(d + 1, 2) * (n - 1) + 3):
        powers, p, s = _relation_oracle(A, tuple(scalars.coerce(A.field, t ** k) for k in range(n)))
        if poly_degree(_squarefree_oracle(p[s:])) == d:
            break
    else:
        raise AssertionError("no separating point on the moment curve")
    return [_crt_idempotent_oracle(A, powers, p, reduce(poly_mul, [f] * k))
            for f, k in factor_poly_oracle(A.field, p[s:])]
