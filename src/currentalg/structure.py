"""Structural analysis: center, series, idempotents, Pierce decompositions.

Every idempotent is read off one element's Krylov relation in A itself.  For
a in A, the powers a, a^2, ..., a^m come from the sparse L_a up to the first
dependence, which gives the least monic p with p(0) = 0 and p(a) = 0; write
p = t^s u with u(0) != 0.  For a factor f of u coprime to p / f, the CRT
polynomial e = 1 mod f, 0 mod p / f has e(0) = 0 and e^2 - e divisible by p,
so e(a) is an exact idempotent of A; one multiplication checks it.

* ``some_nonzero_idempotent`` needs no factorization at all: it takes the
  first basis element that is not nilpotent and f = u.

* ``find_idempotents`` enumerates *all* idempotents as subset sums of the
  primitive orthogonal system.  The nilradical N is the radical of the trace
  form (valid over char 0, unital or not); with d = dim A / N, the first
  theta on the moment curve whose u has a squarefree part of degree d
  separates the d characters of A / N, and the prime powers of one
  factorization of u give the primitive idempotents.  Over Q the factors
  come from sympy; over Q(i) they come from a factorization over Q of a norm
  (Trager's method).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from math import comb
from typing import Callable, Optional, Sequence

from . import scalars
from .algebra import ASSOC_COMM, LIE, Algebra, AlgebraError
from .linalg import (
    Matrix,
    Subspace,
    _krylov,
    kernel_basis,
    poly_add,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_ext_gcd,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_trim,
    solve,
    vec_add,
    vec_is_zero,
    vec_scale,
)


def _require_kind(alg: Algebra, kind: str, op: str) -> None:
    if alg.kind != kind:
        raise AlgebraError(f"{op} requires kind {kind!r}, got {alg.kind!r}")


# ---------------------------------------------------------------------------
# Center and series
# ---------------------------------------------------------------------------

def _right_mult_system(alg: Algebra) -> Matrix:
    """x -> (x e_1, ..., x e_n) stacked: row (j-1) n + k-1, column i holds c_ij^k."""
    n = alg.dim
    return Matrix.from_entries({((j - 1) * n + k - 1, i - 1): c
                                for (i, j), terms in alg.tensor.items() for k, c in terms},
                               n * n, n)


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


def _relation(A: Algebra, a: tuple) -> tuple[list, tuple, int]:
    """(powers, p, s) for a nonzero a: the powers a, a^2, ..., a^m taken from
    the sparse L_a up to the first dependence, the least monic p (ascending,
    degree m + 1) with p(0) = 0 and p(a) = 0, and s with p = t^s u, u(0) != 0."""
    powers, mu = _krylov(A.left_mult_matrix(a), a)  # mu(L_a) a = 0: p = t mu
    s = 1 + next(d for d, c in enumerate(mu) if c != 0)
    return powers, (scalars.zero(A.field),) + mu, s


def _crt_idempotent(A: Algebra, powers: list, p: tuple, f: tuple) -> tuple:
    """e(a) for the e = 1 mod f, 0 mod p / f, from the powers of a with p(a) = 0.

    f must divide u = p / t^s and be coprime to p / f.  Then t^s | e, so
    e(0) = 0, and p | e^2 - e, so e(a) is exact in A: one multiplication
    checks it, and a failure raises rather than iterating.
    """
    cofactor, rem = poly_divmod(p, f)
    gcd, _s, inv = poly_ext_gcd(f, poly_divmod(cofactor, f)[1])  # 1 / cofactor mod f
    if rem or poly_degree(gcd) != 0:
        raise AssertionError("a CRT factor must divide p and be coprime to its cofactor")
    eps = poly_mul(inv, cofactor)  # 1 mod f, 0 mod cofactor, degree < deg p
    e = reduce(vec_add, (vec_scale(c, x) for c, x in zip(eps[1:], powers)),
               (scalars.zero(A.field),) * A.dim)
    if vec_is_zero(e) or A.multiply(e, e) != e:
        raise AssertionError("the CRT element is not a nonzero idempotent of A")
    return e


def some_nonzero_idempotent(A: Algebra) -> Optional[tuple]:
    """A nonzero idempotent, or None exactly when A is a nilalgebra.

    Works over Q and Q(i) without any polynomial factorization: the first
    basis element a with p = t^s u, deg u > 0, gives e = 1 mod u, 0 mod t^s.
    """
    _require_kind(A, ASSOC_COMM, "some_nonzero_idempotent")
    for i in range(1, A.dim + 1):
        powers, p, s = _relation(A, A.basis_vector(i))
        if poly_degree(p) > s:  # else a is nilpotent; try the next basis element
            return _crt_idempotent(A, powers, p, p[s:])
    return None


# ---------------------------------------------------------------------------
# Trace radical
# ---------------------------------------------------------------------------

def _trace_form(A: Algebra) -> list:
    """Gram rows of T(x, y) = tr L_{xy}, read off the structure tensor:
    tau_k = tr L_{e_k} = sum_j c_kj^j once, then T(e_i, e_j) = sum_k c_ij^k tau_k."""
    zero = scalars.zero(A.field)
    tau = [zero] * (A.dim + 1)
    for (k, j), terms in A.tensor.items():
        for s, c in terms:
            if s == j:
                tau[k] += c
    return [[sum((c * tau[k] for k, c in A.tensor.get((i, j), ())), zero)
             for j in range(1, A.dim + 1)] for i in range(1, A.dim + 1)]


def _trace_radical(A: Algebra) -> Subspace:
    """Radical of the trace form T: the nilradical of A.

    In characteristic 0 this holds for every finite-dimensional commutative
    associative A, unital or not.  If x is nilpotent, so is each xy, hence
    L_{xy} is nilpotent and T(x, y) = 0.  If x is in the radical, then
    tr L_x^k = T(x, x^(k-1)) = 0 for all k >= 2: the squares of the
    eigenvalues of L_x have every power sum 0, so by Newton's identities
    they are all 0, L_x is nilpotent and x^(m+1) = L_x^m x = 0.
    """
    return Subspace(A.dim, kernel_basis(Matrix(_trace_form(A))))


# ---------------------------------------------------------------------------
# Factorization bridge and primitive idempotents
# ---------------------------------------------------------------------------

def _factor_poly(field: str, coeffs):
    """Irreducible monic factors (ascending coeffs) with multiplicities.

    Over Q this is sympy's factorization.  Over Q(i) it is Trager's norm
    method, which needs only a factorization over Q: for the squarefree
    part f take the least s >= 0 with N(t) = f(t - s i) * conj(f)(t + s i)
    squarefree in Q[t]; each irreducible factor h of N gives the irreducible
    factor gcd(f(t - s i), h)(t + s i) of f.  Multiplicities come from
    trial division of the input.
    """
    if field == scalars.QI:
        return _factor_gaussian(coeffs)
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(poly_trim(coeffs))], t, domain="QQ")
    out = []
    for fac, mult in poly.factor_list()[1]:
        asc = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.append((tuple(c / asc[-1] for c in asc), mult))
    return out


def _poly_shift(p, c):
    """p(t + c), by Horner's rule: out <- out * (t + c) + a."""
    out = []
    for a in reversed(poly_trim(p)):
        out = [x + c * y for x, y in zip([a] + out, out + [0])] if c else [a] + out
    return tuple(out)


def _factor_gaussian(coeffs):
    f = poly_monic(scalars.coerce_vector(scalars.QI, coeffs))
    sqf = poly_divmod(f, poly_gcd(f, poly_derivative(f)))[0]
    for s in count():
        shift = scalars.GaussianRational(0, s)
        g = scalars.coerce_vector(scalars.QI, _poly_shift(sqf, -shift))
        re, im = [c.re for c in g], [c.im for c in g]
        norm = poly_add(poly_mul(re, re), poly_mul(im, im))  # g * conj(g)
        if poly_degree(poly_gcd(norm, poly_derivative(norm))) == 0:
            break
    out = []
    for h, _ in _factor_poly(scalars.Q, norm):
        fac = scalars.coerce_vector(scalars.QI, _poly_shift(poly_gcd(g, h), shift))
        mult = 1
        if len(sqf) < len(f):  # repeated factors: count them by trial division
            mult, rest = 0, f
            while not (div := poly_divmod(rest, fac))[1]:
                mult, rest = mult + 1, div[0]
        out.append((fac, mult))
    return out


def _generator(A: Algebra, d: int) -> tuple[list, tuple, int]:
    """``_relation`` of the first theta on the moment curve x(t) = sum_k t^(k-1) b_k,
    t = 2 .. C(d+1, 2)(n-1) + 2, whose u has a squarefree part of degree d.

    The roots of u are the nonzero values of the d characters of A / N at
    theta, so the degree is d iff those values are nonzero and pairwise
    distinct.  Each character is a polynomial in t of degree < n, so a
    character vanishes, or two agree, for at most C(d+1, 2)(n-1) values of t.
    The curve starts at t = 2: x(0) = b_1 and x(1) = sum b_k are the unit or a
    basis idempotent in the canonical and unit-first bases.
    """
    n = A.dim
    for t in range(2, comb(d + 1, 2) * (n - 1) + 3):
        powers, p, s = _relation(A, tuple(scalars.coerce(A.field, t ** k) for k in range(n)))
        u = p[s:]
        if poly_degree(u) - poly_degree(poly_gcd(u, poly_derivative(u))) == d:
            return powers, p, s
    raise AssertionError("the moment curve must separate the characters of A / rad A")


def _primitive_idempotents(A: Algebra) -> list:
    """The primitive idempotents of A from one relation p = t^s u; [] iff A is nil.

    With theta from ``_generator``, each irreducible factor f of u collects
    the characters of A / N that one Galois orbit sends theta to, so with f^k
    the exact power of f in u the CRT idempotents for f^k are the idempotents
    of A that are 1 on one orbit and 0 elsewhere: the primitive ones.
    """
    d = A.dim - _trace_radical(A).dim
    if d == 0:
        return []
    powers, p, s = _generator(A, d)
    return [_crt_idempotent(A, powers, p, reduce(poly_mul, [f] * k))
            for f, k in _factor_poly(A.field, p[s:])]


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
    pairwise orthogonal and sums to a unit u of the span of the components.
    The nil residual ker L_u lies in the nilradical; it is reported rather
    than given an invented idempotent.
    """

    components: tuple
    idempotents: tuple
    nil_residual: Subspace


def orthogonal_decomposition(A: Algebra) -> PierceDecomposition:
    """Components pA = ker(L_p - 1), one per primitive idempotent p, and the
    nil residual ker L_u with u the sum of the p."""
    _require_kind(A, ASSOC_COMM, "orthogonal_decomposition")
    prims = _primitive_idempotents(A)
    if not prims:
        raise AlgebraError("a nilalgebra has no nonzero idempotent to split at")
    eye = Matrix.identity(A.dim)
    comps = tuple(Subspace(A.dim, kernel_basis(A.left_mult_matrix(p) - eye))
                  for p in prims)
    nil = Subspace(A.dim, kernel_basis(A.left_mult_matrix(reduce(vec_add, prims))))
    return PierceDecomposition(components=comps, idempotents=tuple(prims),
                               nil_residual=nil)


def find_idempotents(A: Algebra, candidates: Sequence = ()) -> list:
    """All nonzero idempotents, via subset sums of the primitive system.

    Every idempotent of a finite-dimensional commutative algebra is the sum
    of a subset of the primitive orthogonal idempotents, so the enumeration
    is exhaustive.  User-supplied candidates are verified by multiplication
    and must already appear in the computed set; one that does not is a
    completeness bug and raises ``AssertionError``.
    """
    _require_kind(A, ASSOC_COMM, "find_idempotents")
    checked = []
    for cand in candidates:
        cand = scalars.coerce_vector(A.field, cand)
        if vec_is_zero(cand) or not is_idempotent(A, cand):
            raise AlgebraError(f"candidate {cand} is not a nonzero idempotent")
        checked.append(cand)
    prims = _primitive_idempotents(A)
    if len(prims) > 12:
        raise AlgebraError("too many primitive idempotents to enumerate")
    found = [reduce(vec_add, subset) for r in range(1, len(prims) + 1)
             for subset in combinations(prims, r)]
    for cand in checked:
        if cand not in found:
            raise AssertionError(f"idempotent {cand} is missing from the primitive lattice")
    for e in found:
        if not is_idempotent(A, e):
            raise AssertionError("find_idempotents produced a non-idempotent")
    return found


# ---------------------------------------------------------------------------
# Engel-style nilpotency of operator spaces
# ---------------------------------------------------------------------------

def all_nilpotent_space(ops: Sequence[Matrix]) -> bool:
    """Do ``ops`` generate a nilpotent associative algebra?

    Decided by image descent: W_0 = K^n, W_(k+1) = span{M w : M in ops, w in
    W_k}; the chain reaches 0 iff every product of n of the ops vanishes.  For
    spans closed under commutator (derivation algebras in particular) this is
    exactly whether every element of the span is nilpotent, by Engel's
    theorem; otherwise the span can be nil and the answer false (E12 + E23 and
    E21 - E32 in M_3).
    """
    mats = list(ops)
    if not mats:
        return True
    n = mats[0].nrows
    for M in mats:
        if M.shape != (n, n):
            raise ValueError("operators must be square and of equal dimension")
    chain = _descending_chain(Subspace.full(n), lambda w: Subspace(
        n, [M.apply(v) for M in mats for v in w.basis]))
    return chain[-1].dim == 0


def is_characteristically_nilpotent(g: Algebra) -> bool:
    """Every derivation of g is a nilpotent operator?"""
    _require_kind(g, LIE, "is_characteristically_nilpotent")
    from .cohomology import derivations  # local import: cohomology sits above

    return all_nilpotent_space(derivations(g))
