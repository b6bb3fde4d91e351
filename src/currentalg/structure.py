"""Structural analysis: center, series, idempotents, Pierce decompositions.

The idempotent machinery is fully exact and complete at desk scale:

* ``some_nonzero_idempotent`` needs no factorization at all.  It takes a
  non-nilpotent basis element a (one exists in a commutative non-nil
  algebra), computes the minimal zero-constant-term relation p(t) of a,
  splits p = t^s * u with u(0) != 0, and turns a Bezout identity for
  (t^s, u) into an idempotent polynomial in a.

* ``find_idempotents`` enumerates *all* idempotents as subset sums of the
  primitive orthogonal system.  Primitives are found per unital component:
  nilradical via the trace form (valid over char 0), monogenic generator of
  the semisimple quotient, univariate factorization over the base field
  (sympy), CRT idempotents, and Hensel lifting back through the nilradical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Optional, Sequence

from . import scalars
from .algebra import ASSOC_COMM, LIE, Algebra, AlgebraError
from .linalg import (
    Matrix,
    SparseMatrix,
    Subspace,
    inverse,
    kernel_basis,
    min_poly,
    poly_degree,
    poly_divmod,
    poly_ext_gcd,
    poly_mul,
    poly_trim,
    solve,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


def _require_kind(alg: Algebra, kind: str, op: str) -> None:
    if alg.kind != kind:
        raise AlgebraError(f"{op} requires kind {kind!r}, got {alg.kind!r}")


# ---------------------------------------------------------------------------
# Center and series
# ---------------------------------------------------------------------------

def _right_mult_system(alg: Algebra) -> SparseMatrix:
    """x -> (x e_1, ..., x e_n) stacked: row (j-1) n + k-1, column i holds c_ij^k."""
    n = alg.dim
    rows = [{} for _ in range(n * n)]
    for (i, j), terms in alg.tensor.items():
        for k, c in terms:
            rows[(j - 1) * n + k - 1][i - 1] = c
    return SparseMatrix(rows, n)


def center(g: Algebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j}, as the kernel of the stacked maps."""
    _require_kind(g, LIE, "center")
    return Subspace(g.dim, kernel_basis(_right_mult_system(g)))


def subspace_product(alg: Algebra, u: Subspace, v: Subspace) -> Subspace:
    """span{ x*y : x in u basis, y in v basis }."""
    vecs = [alg.multiply(x, y) for x in u.basis for y in v.basis]
    return Subspace(alg.dim, vecs)


@dataclass(frozen=True)
class SeriesReport:
    derived: tuple
    lower_central: tuple
    is_solvable: bool
    is_nilpotent: bool
    nil_index: Optional[int]


def _descending_chain(first: Subspace, step: Callable[[Subspace], Subspace]) -> list:
    chain = [first]
    while True:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
        if nxt.dim == 0:
            return chain


def series(g: Algebra) -> SeriesReport:
    """Derived and lower central series with solvability/nilpotency flags."""
    _require_kind(g, LIE, "series")
    full = Subspace.full(g.dim)
    derived = _descending_chain(full, lambda s: subspace_product(g, s, s))
    lower = _descending_chain(full, lambda s: subspace_product(g, full, s))
    is_solvable = derived[-1].dim == 0
    is_nilpotent = lower[-1].dim == 0
    nil_index = len(lower) - 1 if is_nilpotent else None
    return SeriesReport(
        derived=tuple(derived),
        lower_central=tuple(lower),
        is_solvable=is_solvable,
        is_nilpotent=is_nilpotent,
        nil_index=nil_index,
    )


def is_nilalgebra(A: Algebra) -> bool:
    """Chain of subspace powers A >= A^2 >= ... reaches {0}?

    For finite-dimensional commutative associative algebras this is
    equivalent to every element being nilpotent.
    """
    _require_kind(A, ASSOC_COMM, "is_nilalgebra")
    full = Subspace.full(A.dim)
    chain = _descending_chain(full, lambda s: subspace_product(A, full, s))
    return chain[-1].dim == 0


# ---------------------------------------------------------------------------
# Units and idempotents
# ---------------------------------------------------------------------------

def find_unit(A: Algebra) -> Optional[tuple]:
    """The unique u with u*e_j = e_j for all j, or None."""
    _require_kind(A, ASSOC_COMM, "find_unit")
    rhs = [x for j in range(1, A.dim + 1) for x in A.basis_vector(j)]
    return solve(_right_mult_system(A), rhs)


def is_idempotent(A: Algebra, e: Sequence) -> bool:
    e = scalars.coerce_vector(A.field, e)
    return A.multiply(e, e) == e


def _element_powers_relation(A: Algebra, a: tuple):
    """Powers a, a^2, ... and the minimal zero-constant relation p(t).

    Returns (powers, p) with p monic ascending, p(0) = 0, p(a) = 0.
    """
    powers = [a]
    while True:
        nxt = A.multiply(a, powers[-1])
        sol = solve(Matrix.from_columns(powers), nxt)
        if sol is not None:
            # a^(m+1) = sum c_d a^d  ->  p = t^(m+1) - sum c_d t^d
            coeffs = [scalars.zero(A.field)]
            coeffs.extend(-c for c in sol)
            coeffs.append(scalars.one(A.field))
            return powers, poly_trim(coeffs)
        powers.append(nxt)


def _eval_zero_constant_poly(A: Algebra, poly, powers):
    """Evaluate a polynomial with p(0) = 0 at the element whose powers are given."""
    acc = vec_scale(scalars.zero(A.field), powers[0])
    for d, c in enumerate(poly):
        if d == 0:
            if c != 0:
                raise AssertionError("polynomial must have zero constant term")
            continue
        if c != 0:
            acc = vec_add(acc, vec_scale(c, powers[d - 1]))
    return acc


def some_nonzero_idempotent(A: Algebra) -> Optional[tuple]:
    """A nonzero idempotent, or None exactly when A is a nilalgebra.

    Works over Q and Q(i) without any polynomial factorization: only a
    Bezout identity for the coprime pair (t^s, u) is needed.
    """
    _require_kind(A, ASSOC_COMM, "some_nonzero_idempotent")
    for i in range(1, A.dim + 1):
        a = A.basis_vector(i)
        powers, p = _element_powers_relation(A, a)
        s = next(d for d, c in enumerate(p) if c != 0)
        ts = (scalars.zero(A.field),) * s + (scalars.one(A.field),)
        u, rem = poly_divmod(p, ts)
        assert not rem
        if poly_degree(u) == 0:
            continue  # a is nilpotent; try the next basis element
        gcd, alpha, _beta = poly_ext_gcd(ts, u)
        if poly_degree(gcd) != 0:
            raise AssertionError("t^s and u must be coprime")
        eps = poly_divmod(poly_mul(alpha, ts), p)[1]
        e = _eval_zero_constant_poly(A, eps, powers)
        if vec_is_zero(e):
            raise AssertionError("constructed idempotent is zero")
        if A.multiply(e, e) != e:
            raise AssertionError("constructed element is not idempotent")
        return e
    return None


# ---------------------------------------------------------------------------
# Subalgebra views and quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Restriction:
    alg: Algebra
    sub: Subspace

    def to_ambient(self, coords: Sequence) -> tuple:
        acc = [scalars.zero(self.alg.field)] * self.sub.ambient
        for c, row in zip(coords, self.sub.basis):
            if c != 0:
                acc = [x + c * y for x, y in zip(acc, row)]
        return tuple(acc)

    def from_ambient(self, vec: Sequence) -> tuple:
        coords = self.sub.coordinates(vec)
        if coords is None:
            raise AlgebraError("vector lies outside the subalgebra")
        return coords


def restricted_algebra(parent: Algebra, sub: Subspace, name: str) -> _Restriction:
    """The multiplication of ``parent`` restricted to a product-closed subspace."""
    if sub.dim == 0:
        raise AlgebraError("cannot restrict to the zero subspace")
    m = sub.dim
    products = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if parent.kind == LIE and i == j:
                continue
            w = parent.multiply(sub.basis[i - 1], sub.basis[j - 1])
            coords = sub.coordinates(w)
            if coords is None:
                raise AlgebraError("subspace is not closed under the product")
            products[(i, j)] = coords
    alg = Algebra(name, parent.kind, parent.field, m, products)
    return _Restriction(alg=alg, sub=sub)


def quotient_algebra(B: Algebra, ideal: Subspace):
    """(Q, proj, lift) for B / ideal, on the complement of the pivot columns."""
    free = [c for c in range(B.dim) if c not in ideal.pivots]
    if not free:
        raise AlgebraError("quotient by the whole algebra is empty")

    def proj(vec):
        residue = ideal.reduce(vec)[1]
        return tuple(residue[f] for f in free)

    def lift(coords):
        out = [scalars.zero(B.field)] * B.dim
        for c, f in zip(coords, free):
            out[f] = c
        return tuple(out)

    one, zero = scalars.one(B.field), scalars.zero(B.field)

    def unit_coords(i):
        return tuple(one if k == i - 1 else zero for k in range(len(free)))

    products = {}
    for i in range(1, len(free) + 1):
        for j in range(i, len(free) + 1):
            w = B.multiply(lift(unit_coords(i)), lift(unit_coords(j)))
            products[(i, j)] = proj(w)
    q = Algebra(f"{B.name}/nil", B.kind, B.field, len(free), products)
    return q, proj, lift


def _trace_radical(B: Algebra) -> Subspace:
    """Radical of the trace form T(x,y) = tr L_{xy}.

    Equals the nilradical for unital commutative algebras in characteristic
    zero; only called on unital components.
    """
    gram = [
        [
            B.left_mult_matrix(B.basis_product(i, j)).trace()
            for j in range(1, B.dim + 1)
        ]
        for i in range(1, B.dim + 1)
    ]
    return Subspace(B.dim, kernel_basis(Matrix(gram)))


# ---------------------------------------------------------------------------
# Factorization bridge and primitive idempotents
# ---------------------------------------------------------------------------

def _factor_poly(field: str, coeffs):
    """Irreducible monic factors (ascending coeffs) with multiplicities."""
    import sympy

    t = sympy.Symbol("t")

    def to_sympy(c):
        c = scalars.coerce(field, c)
        if field == scalars.Q:
            return sympy.Rational(c.numerator, c.denominator)
        return (sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))

    def from_sympy(expr):
        re_, im_ = sympy.re(expr), sympy.im(expr)
        re_f = Fraction(int(re_.p), int(re_.q))
        im_f = Fraction(int(im_.p), int(im_.q))
        if field == scalars.Q:
            if im_f != 0:
                raise AssertionError("unexpected imaginary part over Q")
            return re_f
        return scalars.GaussianRational(re_f, im_f)

    domain = "QQ" if field == scalars.Q else "QQ_I"
    poly = sympy.Poly([to_sympy(c) for c in reversed(list(coeffs))], t,
                      domain=domain)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        asc = [from_sympy(c) for c in reversed(fac.all_coeffs())]
        lead = asc[-1]
        out.append((tuple(c / lead for c in asc), mult))
    return out


def _candidate_coordinate_vectors(dim: int, field: str):
    """The moment curve x(t) = sum_k t^(k-1) b_k for t = 0 .. C(dim,2)(dim-1).

    In an etale algebra x generates iff the dim characters differ at x.  Two
    distinct characters agree on x(t) at the roots of a nonzero polynomial
    of degree < dim, so at most C(dim,2)(dim-1) values of t fail.
    """
    for t in range(comb(dim, 2) * (dim - 1) + 1):
        yield tuple(scalars.coerce(field, t ** k) for k in range(dim))


def _monogenic_generator(Q_alg: Algebra):
    """An element whose minimal polynomial has full degree (etale input)."""
    for cand in _candidate_coordinate_vectors(Q_alg.dim, Q_alg.field):
        m = min_poly(Q_alg.left_mult_matrix(cand))
        if poly_degree(m) == Q_alg.dim:
            return cand, m
    raise AssertionError("an etale algebra has a generator on the moment curve")


def _eval_poly_with_unit(alg: Algebra, poly, x: tuple, unit: tuple):
    """Horner evaluation of an arbitrary polynomial at x in a unital algebra."""
    acc = vec_scale(scalars.zero(alg.field), unit)
    for c in reversed(poly_trim(poly)):
        acc = alg.multiply(acc, x)
        if c != 0:
            acc = vec_add(acc, vec_scale(c, unit))
    return acc


def _hensel_idempotent(B: Algebra, x: tuple) -> tuple:
    """Lift an idempotent mod the nilradical to an exact one: x <- 3x^2 - 2x^3."""
    for _ in range(64):
        x2 = B.multiply(x, x)
        if x2 == x:
            return x
        x3 = B.multiply(x2, x)
        x = vec_sub(vec_scale(3, x2), vec_scale(2, x3))
    raise AssertionError("idempotent lifting did not converge")


def _primitive_idempotents_unital(parent: Algebra, comp: Subspace,
                                  unit: tuple) -> list:
    """Primitive idempotents of a unital component, as ambient vectors."""
    view = restricted_algebra(parent, comp, f"{parent.name}|comp")
    B = view.alg
    unit_c = view.from_ambient(unit)
    nilrad = _trace_radical(B)
    if nilrad.dim == 0:
        quotient, proj, lift = B, (lambda v: v), (lambda v: v)
    else:
        quotient, proj, lift = quotient_algebra(B, nilrad)
    if quotient.dim == 1:
        return [unit]
    unit_q = proj(unit_c)
    theta, m = _monogenic_generator(quotient)
    factors = _factor_poly(B.field, m)
    if any(mult != 1 for _, mult in factors):
        raise AssertionError("semisimple quotient has a non-squarefree minimal polynomial")
    if len(factors) == 1:
        return [unit]
    prims = []
    for fac, _ in factors:
        cofactor, rem = poly_divmod(m, fac)
        assert not rem
        gcd, _s, t_coeff = poly_ext_gcd(fac, cofactor)
        if poly_degree(gcd) != 0:
            raise AssertionError("factors of a squarefree polynomial must be coprime")
        eps = poly_divmod(poly_mul(t_coeff, cofactor), m)[1]
        ebar = _eval_poly_with_unit(quotient, eps, theta, unit_q)
        e = _hensel_idempotent(B, lift(ebar))
        prims.append(view.to_ambient(e))
    return prims


# ---------------------------------------------------------------------------
# Pierce decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PierceSplit:
    """A = A11 + A00 relative to an idempotent e (commutative case)."""

    e: tuple
    a11: Subspace
    a00: Subspace


def pierce(A: Algebra, e: Sequence) -> PierceSplit:
    """Eigenspace split for L_e: A11 = ker(L_e - id), A00 = ker L_e."""
    _require_kind(A, ASSOC_COMM, "pierce")
    e = scalars.coerce_vector(A.field, e)
    if vec_is_zero(e):
        raise AlgebraError("pierce needs a nonzero idempotent")
    if not is_idempotent(A, e):
        raise AlgebraError("pierce: the supplied vector is not idempotent")
    le = A.left_mult_matrix(e)
    a11 = Subspace(A.dim, kernel_basis(le - Matrix.identity(A.dim)))
    a00 = Subspace(A.dim, kernel_basis(le))
    if a11.dim + a00.dim != A.dim:
        raise AssertionError("Pierce eigenspaces do not fill the algebra")
    for x in a11.basis:
        for y in a00.basis:
            if not vec_is_zero(A.multiply(x, y)):
                raise AssertionError("A11 * A00 != 0")
    return PierceSplit(e=e, a11=a11, a00=a00)


@dataclass(frozen=True)
class PierceDecomposition:
    """Unital connected components plus the nil residual.

    ``idempotents[i]`` is the unit of ``components[i]``; the system is
    pairwise orthogonal and sums to a unit of the span of the components.
    The recursion halts on a nil residual instead of inventing an idempotent
    for it.
    """

    components: tuple
    idempotents: tuple
    nil_residual: Subspace


def orthogonal_decomposition(A: Algebra) -> PierceDecomposition:
    """Recursive Pierce splitting into connected unital components."""
    _require_kind(A, ASSOC_COMM, "orthogonal_decomposition")
    if is_nilalgebra(A):
        raise AlgebraError("a nilalgebra has no nonzero idempotent to split at")
    comps: list = []
    idems: list = []
    work = Subspace.full(A.dim)
    while True:
        if work.dim == 0:
            nil = Subspace.zero(A.dim)
            break
        view = restricted_algebra(A, work, f"{A.name}|work")
        e_c = some_nonzero_idempotent(view.alg)
        if e_c is None:
            nil = work
            break
        e = view.to_ambient(e_c)
        le = view.alg.left_mult_matrix(e_c)
        eye = Matrix.identity(view.alg.dim)
        a11 = Subspace(A.dim, [view.to_ambient(v)
                               for v in kernel_basis(le - eye)])
        a00 = Subspace(A.dim, [view.to_ambient(v) for v in kernel_basis(le)])
        for p in _primitive_idempotents_unital(A, a11, e):
            lp = A.left_mult_matrix(p)
            fixed = Subspace(A.dim, kernel_basis(lp - Matrix.identity(A.dim)))
            comps.append(fixed)  # inside a11: p in a11 and px = x give ex = (ep)x = x
            idems.append(p)
        work = a00
    return PierceDecomposition(components=tuple(comps), idempotents=tuple(idems),
                               nil_residual=nil)


def find_idempotents(A: Algebra, candidates: Sequence = ()) -> list:
    """All nonzero idempotents, via subset sums of the primitive system.

    Every idempotent of a finite-dimensional commutative algebra is the sum
    of a subset of the primitive orthogonal idempotents, so the enumeration
    is exhaustive.  User-supplied candidates are verified by multiplication
    and must already appear in the computed set.
    """
    _require_kind(A, ASSOC_COMM, "find_idempotents")
    checked = []
    for cand in candidates:
        cand = scalars.coerce_vector(A.field, cand)
        if vec_is_zero(cand) or not is_idempotent(A, cand):
            raise AlgebraError(f"candidate {cand} is not a nonzero idempotent")
        checked.append(cand)
    if is_nilalgebra(A):
        found: list = []
    else:
        prims = orthogonal_decomposition(A).idempotents
        if len(prims) > 12:
            raise AlgebraError("too many primitive idempotents to enumerate")
        found = []
        for r in range(1, len(prims) + 1):
            for subset in combinations(prims, r):
                acc = subset[0]
                for x in subset[1:]:
                    acc = vec_add(acc, x)
                found.append(acc)
    for cand in checked:
        if cand not in found:
            found.append(cand)  # defensive; the lattice should already contain it
    for e in found:
        if not is_idempotent(A, e):
            raise AssertionError("find_idempotents produced a non-idempotent")
    return found


# ---------------------------------------------------------------------------
# Engel-style nilpotency of operator spaces
# ---------------------------------------------------------------------------

def all_nilpotent_space(ops: Sequence[Matrix]) -> bool:
    """Is every element of the linear span of ``ops`` nilpotent?

    Decided by common-kernel descent: compute the joint kernel, quotient,
    repeat; success iff the dimension descends to 0.  For spans closed under
    commutator (derivation algebras in particular) this is exact by Engel's
    theorem; a failed descent always exhibits a non-nilpotent element in the
    closure.
    """
    mats = list(ops)
    if not mats:
        return True
    n = mats[0].nrows
    for M in mats:
        if M.shape != (n, n):
            raise ValueError("operators must be square and of equal dimension")
    while n > 0:
        stacked = Matrix([row for M in mats for row in M.rows])
        common = kernel_basis(stacked)
        if not common:
            return False
        w = Subspace(n, common)
        k = w.dim
        if k == n:
            return True
        free = [c for c in range(n) if c not in w.pivots]
        cols = [list(row) for row in w.basis]
        cols += [[1 if i == f else 0 for i in range(n)] for f in free]
        t = Matrix.from_columns(cols)
        t_inv = inverse(t)
        new_mats = []
        for M in mats:
            mm = t_inv @ M @ t
            block = [r[k:] for r in mm.rows[k:]]
            new_mats.append(Matrix(block))
        mats = new_mats
        n -= k
    return True


def is_characteristically_nilpotent(g: Algebra) -> bool:
    """Every derivation of g is a nilpotent operator?"""
    _require_kind(g, LIE, "is_characteristically_nilpotent")
    from .cohomology import derivations  # local import: cohomology sits above

    return all_nilpotent_space(derivations(g))
