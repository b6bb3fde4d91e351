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
  come from a Zassenhaus factorization over Z (Cantor-Zassenhaus modulo a
  prime, Hensel lifting, recombination); over Q(i) they come from a
  factorization over Q of a norm (Trager's method).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from math import comb, gcd, isqrt, lcm
from random import Random
from typing import Callable, Optional, Sequence

from . import scalars
from .algebra import ASSOC_COMM, LIE, Algebra, AlgebraError, _product, _sparse
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
    rank,
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
    """span{ x*y : x in u basis, y in v basis }, each product a sparse row by
    :func:`algebra._product`."""
    ys = [_sparse(y) for y in v.basis]
    return Subspace._of(alg.dim, [
        {k - 1: z for k, z in _product(alg.tensor, x, y).items() if z}
        for x in map(_sparse, u.basis) for y in ys])


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
# Trace form
# ---------------------------------------------------------------------------

def _trace_form(A: Algebra) -> list:
    """Gram rows of T(x, y) = tr L_{xy}, read off the structure tensor:
    tau_k = tr L_{e_k} = sum_j c_kj^j once, then T(e_i, e_j) = sum_k c_ij^k tau_k.

    The radical of T is the nilradical N of A, so dim A / N = rank T.  In
    characteristic 0 this holds for every finite-dimensional commutative
    associative A, unital or not.  If x is nilpotent, so is each xy, hence
    L_{xy} is nilpotent and T(x, y) = 0.  If x is in the radical, then
    tr L_x^k = T(x, x^(k-1)) = 0 for all k >= 2: the squares of the
    eigenvalues of L_x have every power sum 0, so by Newton's identities
    they are all 0, L_x is nilpotent and x^(m+1) = L_x^m x = 0."""
    zero = scalars.zero(A.field)
    tau = [zero] * (A.dim + 1)
    for (k, j), terms in A.tensor.items():
        for s, c in terms:
            if s == j:
                tau[k] += c
    return [[sum((c * tau[k] for k, c in A.tensor.get((i, j), ())), zero)
             for j in range(1, A.dim + 1)] for i in range(1, A.dim + 1)]


# ---------------------------------------------------------------------------
# Factorization over Z (Zassenhaus) and primitive idempotents
# ---------------------------------------------------------------------------

_SPLIT_DRAWS = 64  # failed equal-degree draws before giving up (each fails w.p. <= 5/9)


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _sub_mod(a, b, m):
    n = max(len(a), len(b))
    return _trim([(x - y) % m for x, y in zip(list(a) + [0] * (n - len(a)),
                                               list(b) + [0] * (n - len(b)))])


def _mul_mod(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod_mod(a, b, p):
    """Quotient and remainder of a by b != 0 modulo the prime p."""
    a, inv, n = list(a), pow(b[-1], -1, p), len(b) - 1
    quot = [0] * max(len(a) - n, 0)
    for d in reversed(range(len(quot))):
        c = quot[d] = a[d + n] * inv % p
        if c:
            for i in range(n):
                a[d + i] -= c * b[i]
    return quot, _trim([x % p for x in a[:n]])


def _mul_rem(a, b, g, p):
    """a b mod (g, p)."""
    return _divmod_mod(_mul_mod(a, b, p), g, p)[1]


def _gcd_mod(a, b, p):
    """Monic gcd modulo p (a != 0)."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _pow_mod(a, e, f, p):
    """a^e mod (f, p) by repeated squaring."""
    out, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mul_rem(out, a, f, p)
        e >>= 1
        if e:
            a = _mul_rem(a, a, f, p)
    return out


def _split_mod(f, p, rng) -> list:
    """Monic irreducible factors of a monic squarefree f modulo an odd prime p.

    Distinct-degree: g_d = gcd(f, t^(p^d) - t) collects the factors of
    degree d.  Equal-degree (Cantor-Zassenhaus): for random a, gcd(g, a^((p^d
    - 1)/2) - 1) is a proper factor of g with probability >= 4/9 when g has
    two or more factors; after ``_SPLIT_DRAWS`` failures in a row the split
    raises ``AssertionError`` instead of drawing forever.
    """
    def equal_degree(g, d):
        if len(g) - 1 == d:
            return [g]
        for _ in range(_SPLIT_DRAWS):
            a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
            c = _gcd_mod(g, _sub_mod(_pow_mod(a, (p ** d - 1) // 2, g, p), [1], p), p)
            if 1 < len(c) < len(g):
                return equal_degree(c, d) + equal_degree(_divmod_mod(g, c, p)[0], d)
        raise AssertionError("no equal-degree split in %d draws" % _SPLIT_DRAWS)

    out, h, d = [], [0, 1], 1
    while 2 * d <= len(f) - 1:
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out += equal_degree(g, d)
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
        d += 1
    return out + [f] if len(f) > 1 else out


def _exact_quotient(a, b):
    """a / b in Z[t], or None when b does not divide a."""
    a, quot = list(a), [0] * (len(a) - len(b) + 1)
    for d in reversed(range(len(quot))):
        quot[d], r = divmod(a[d + len(b) - 1], b[-1])
        if r:
            return None
        for i, y in enumerate(b):
            a[d + i] -= quot[d] * y
    return None if any(a) else quot


def _zassenhaus(f: list) -> list:
    """Irreducible factors in Z[t] of a primitive squarefree f with f[-1] > 0.

    p is the least odd prime with p not dividing lc(f) and f mod p
    squarefree; the search ends because f is squarefree over Q, so its
    discriminant is nonzero and only the finitely many primes dividing
    lc(f) disc(f) are skipped.  The factors mod p are lifted together by
    linear Hensel steps until q = p^k > 2 lc(f) 2^n |f|_2, a bound on the
    coefficients of lc(f) g / lc(g) for every factor g of f.  Subsets of
    increasing size are then recombined: the symmetric residue of lc times
    their product mod q, made primitive, is a factor iff it divides f
    exactly.  Recombination stays exponential in the number of modular
    factors in the worst case (Swinnerton-Dyer polynomials), as in every
    Zassenhaus factorization without lattice reduction.
    """
    n, lc = len(f) - 1, f[-1]
    if n <= 1:
        return [f] if n == 1 else []
    odd_primes = (p for p in count(3, 2) if all(p % k for k in range(3, isqrt(p) + 1, 2)))
    p = next(p for p in odd_primes if lc % p and len(_gcd_mod(
        [c % p for c in f], _trim([i * c % p for i, c in enumerate(f)][1:]), p)) == 1)
    inv_lc = pow(lc, -1, p)
    g0s = _split_mod([c * inv_lc % p for c in f], p, Random(p))
    if len(g0s) == 1:
        return [f]
    # a_i = (prod_{l != i} g_l)^-1 mod g_i, so sum_i a_i prod_{l != i} g_l = 1 mod p;
    # g_i is irreducible, so the inverse is the power p^deg(g_i) - 2 (Fermat)
    cof = [_pow_mod(reduce(lambda x, h: _mul_rem(x, h, g, p), g0s[:i] + g0s[i + 1:], [1]),
                    p ** (len(g) - 1) - 2, g, p) for i, g in enumerate(g0s)]
    gs, q, bound2 = g0s, p, 4 * lc * lc * 4 ** n * sum(c * c for c in f)
    while q * q <= bound2:  # f = lc prod g_i mod q; make it hold mod q p
        e = _sub_mod(f, reduce(lambda x, g: _mul_mod(x, g, q * p), gs, [lc]), q * p)
        e = [c // q * inv_lc % p for c in e]  # the next p-adic digit of the error, over lc
        # a lifted g_i is g0_i mod p, so the step's arithmetic mod p uses the small g0_i
        deltas = (_mul_rem(_divmod_mod(e, g, p)[1], a, g, p) for g, a in zip(g0s, cof))
        gs = [[x + q * y for x, y in zip(g, delta + [0] * len(g))] for g, delta in zip(gs, deltas)]
        q *= p

    def symmetric(c):
        c %= q
        return c - q if 2 * c > q else c

    out, rest, size = [], f, 1
    while 2 * size <= len(gs):
        for pick in combinations(range(len(gs)), size):
            lead = rest[-1]
            c0 = symmetric(reduce(lambda x, i: x * gs[i][0] % q, pick, lead))
            if c0 and lead * rest[0] % c0:
                continue  # the constant term already rules this subset out
            g = [symmetric(c) for c in reduce(lambda x, i: _mul_mod(x, gs[i], q), pick, [lead])]
            g = [c // gcd(*g) for c in g]
            quot = _exact_quotient(rest, g)
            if quot is not None:
                out.append(g)
                rest, gs = quot, [h for i, h in enumerate(gs) if i not in pick]
                break
        else:
            size += 1
    return out + [rest]


def _factor_poly(field: str, coeffs) -> list:
    """Irreducible monic factors (ascending coeffs) with multiplicities.

    Both fields take the monic input's squarefree part s = f / gcd(f, f').
    Over Q, s with denominators cleared is factored over Z by
    ``_zassenhaus``.  Over Q(i) it is Trager's norm method, which needs only
    a factorization over Q: take the least j >= 0 with N(t) = s(t - j i)
    conj(s)(t + j i) squarefree in Q[t]; each irreducible factor h of N
    gives the irreducible factor gcd(s(t - j i), h)(t + j i).  Multiplicities
    come from trial division of f.  The factors are listed by (degree,
    multiplicity, descending primitive integer coefficients) over Q and by
    the (degree, coefficients) of h over Q(i), the order of the test oracle.
    """
    f = poly_monic(scalars.coerce_vector(field, coeffs))
    sqf = poly_divmod(f, poly_gcd(f, poly_derivative(f)))[0]
    out = []
    for fac in (_factor_gaussian(sqf) if field == scalars.QI else _factor_rational(sqf)):
        mult = 1
        if len(sqf) < len(f):  # repeated factors: count them by trial division
            mult, rest = 0, f
            while not (div := poly_divmod(rest, fac))[1]:
                mult, rest = mult + 1, div[0]
        out.append((fac, mult))
    return out if field == scalars.QI else sorted(out, key=lambda fk: (len(fk[0]), fk[1]))


def _factor_rational(sqf) -> list:
    """Monic irreducible factors of a monic squarefree sqf in Q[t], sorted by
    (degree, descending coefficients) of their primitive integer forms."""
    den = lcm(*(c.denominator for c in sqf))
    ints = [c.numerator * (den // c.denominator) for c in sqf]
    facs = sorted(_zassenhaus([c // gcd(*ints) for c in ints]), key=lambda h: (len(h), h[::-1]))
    return [tuple(Fraction(c, h[-1]) for c in h) for h in facs]


def _poly_shift(p, c):
    """p(t + c), by Horner's rule: out <- out * (t + c) + a."""
    out = []
    for a in reversed(poly_trim(p)):
        out = [x + c * y for x, y in zip([a] + out, out + [0])] if c else [a] + out
    return tuple(out)


def _factor_gaussian(sqf) -> list:
    for s in count():
        shift = scalars.GaussianRational(0, s)
        g = scalars.coerce_vector(scalars.QI, _poly_shift(sqf, -shift))
        re, im = [c.re for c in g], [c.im for c in g]
        norm = poly_add(poly_mul(re, re), poly_mul(im, im))  # g * conj(g)
        if poly_degree(poly_gcd(norm, poly_derivative(norm))) == 0:
            break
    return [scalars.coerce_vector(scalars.QI, _poly_shift(poly_gcd(g, h), shift))
            for h in _factor_rational(norm)]


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
    d = rank(Matrix(_trace_form(A)))
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
