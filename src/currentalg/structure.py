"""Structural analysis: center, series, idempotents, Pierce decompositions.

Every idempotent is read off one element's Krylov relation in A itself, in
integers.  For a in A with integral coordinates and D the lcm of the table's
denominators, the powers b, b^2, ..., b^m of b = D a are products on D times
the tensor up to the first dependence, which gives the least monic p with
p(0) = 0 and p(b) = 0, in Z[t] (Z[i][t] over Q(i)) by Gauss's lemma; write
p = t^s u with u(0) != 0.  For a factor f of u coprime to p / f, the CRT
polynomial e = 1 mod f, 0 mod p / f has e(0) = 0 and e^2 - e divisible by p,
so e(b) is an exact idempotent of A; one multiplication checks it.

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
  factorization over Z of an integral norm (Trager's method).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    _scaled,
    kernel_basis,
    poly_trim,
    rank,
    solve,
    vec_add,
    vec_is_zero,
)
from .scalars import _parts, _reduced


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


def _integral_tensor(A: Algebra) -> tuple[int, dict, bool]:
    """(D, D times the tensor, whether a constant has an imaginary part): D is
    the lcm of the denominators, and each scaled constant an int or a Gaussian
    integer (x, y, 1).  On an integral table over Q, ``A.tensor`` itself."""
    if A.field == scalars.Q and all(type(c) is int for terms in A.tensor.values() for _, c in terms):
        return 1, A.tensor, False
    parts = {key: {k: _parts(c) for k, c in terms} for key, terms in A.tensor.items()}
    den = lcm(*(d for terms in parts.values() for _, _, d in terms.values()))
    pairs = any(y for terms in parts.values() for _, y, _ in terms.values())
    return den, {key: tuple(_scaled(terms, den).items()) for key, terms in parts.items()}, pairs


def _int(z):
    """An integral scalar as an int, or as (x, y, 1) when it has an imaginary part."""
    x, y, _ = _parts(z)
    return _reduced(x, y, 1) if y else x


def _relation(A: Algebra, a: tuple) -> tuple[list, tuple, int]:
    """(powers, p, s) for b = D a, a nonzero with integral coordinates and D
    from :func:`_integral_tensor`: b, b^2 = a * b, ..., b^m on D times the
    tensor, as integral sparse vectors up to the first dependence, the least
    monic p (degree m + 1) with p(0) = 0 and p(b) = 0, and s with p = t^s u,
    u(0) != 0.  L_b is integral, so p lies in Z[t] (Z[i][t] over Q(i)) by
    Gauss's lemma, and b has the same idempotents e(b) as a."""
    den, tensor, pairs = _integral_tensor(A)
    theta = {i: _int(x) for i, x in enumerate(a, start=1) if x}
    powers, mu = _krylov(lambda v: _product(tensor, theta, v),
                         {i: den * x for i, x in theta.items()}, A.dim + 1, pairs)
    s = 1 + next(d for d, c in enumerate(mu) if c)
    return powers, (0, *mu), s


def _crt_idempotents(A: Algebra, powers: list, p: tuple, factors: list) -> list:
    """e(b) for each monic factor f of u = p / t^s coprime to c = p / f and
    e = 1 mod f, 0 mod c, from the powers of b with p(b) = 0: t^s | e and
    p | e^2 - e, so e(b) is exact.  c comes by exact monic division; the one
    rational step is h = c^-1 mod f, one small ``solve`` on t^i c mod f, read
    as H / delta.  The numerators w = (c H)(b) are integral, e = w / delta,
    and e e = e is checked as w * w = D delta w on D times the tensor.  A
    failure raises rather than iterating."""
    (den, tensor, _), one, out = _integral_tensor(A), scalars.one(A.field), []
    for f in factors:
        cofactor = _exact_quotient(p, f)
        if cofactor is None:
            raise AssertionError("a CRT factor must divide p")
        r, cols, x = len(f) - 1, [], _rem_monic(cofactor, f)
        for _ in range(r):
            cols.append(x)
            x = _rem_monic([0] + x, f)
        h = solve(Matrix._of([{i: c[k] for i, c in enumerate(cols) if c[k]} for k in range(r)], r),
                  [1] + [0] * (r - 1))
        if h is None:
            raise AssertionError("a CRT factor must be coprime to its cofactor")
        delta = lcm(*(_parts(c)[2] for c in h))
        w = {}
        for c, v in zip(_mul(cofactor, [_int(c * delta) for c in h])[1:], powers):
            for k, z in v.items():
                w[k] = w.get(k, 0) + c * z
        w = {k: z for k, z in w.items() if z}
        if not w or {k: z for k, z in _product(tensor, w, w).items() if z} != {
                k: den * delta * z for k, z in w.items()}:
            raise AssertionError("the CRT element is not a nonzero idempotent of A")
        out.append(tuple(one * w.get(k, 0) / delta for k in range(1, A.dim + 1)))
    return out


def some_nonzero_idempotent(A: Algebra) -> Optional[tuple]:
    """A nonzero idempotent, or None exactly when A is a nilalgebra.

    Works over Q and Q(i) without any polynomial factorization: the first
    basis element a with p = t^s u, deg u > 0, gives e = 1 mod u, 0 mod t^s.
    """
    _require_kind(A, ASSOC_COMM, "some_nonzero_idempotent")
    for i in range(1, A.dim + 1):
        powers, p, s = _relation(A, A.basis_vector(i))
        if len(p) - 1 > s:  # else a is nilpotent; try the next basis element
            return _crt_idempotents(A, powers, p, [p[s:]])[0]
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


def _mul(a, b):
    """a b over Z or Z[i]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mul_mod(a, b, m):
    return _trim([c % m for c in _mul(a, b)])


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
    """a / b in Z[t], or in Z[i][t] for a monic b; None when b does not divide a."""
    a, quot = list(a), [0] * (len(a) - len(b) + 1)
    for d in reversed(range(len(quot))):
        q = a[d + len(b) - 1]
        if b[-1] != 1:
            q, r = divmod(q, b[-1])
            if r:
                return None
        quot[d] = q
        for i, y in enumerate(b):
            a[d + i] -= q * y
    return None if any(a) else quot


def _rem_monic(a, f):
    """a mod a monic f over Z or Z[i], as deg f coefficients."""
    n = len(f) - 1
    a = list(a) + [0] * (n - len(a))
    for d in reversed(range(len(a) - n)):
        for i in range(n):
            a[d + i] -= a[d + n] * f[i]
    return a[:n]


def _gcd(a, b):
    """gcd(a, b) for a, b != 0 over Z or Z[i] by a primitive remainder
    sequence (see :func:`_content_free`): the primitive gcd over Z, and the
    monic one when a is monic, which is integral by Gauss's lemma."""
    a, b = _content_free(a), _content_free(b)
    while b:
        r, n = list(a), len(b) - 1
        while len(r) > n:  # r <- b[-1] r - r[-1] t^k b, dropping the top term
            top = r.pop()
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b[:-1]):
                r[len(r) - n + i] -= top * y
            _trim(r)
        a, b = b, _content_free(r)
    return a


def _content_free(r):
    """r without trailing zeros, times the conjugate of a Gaussian leading
    coefficient, divided by the gcd of its integer parts, leading positive."""
    r = _trim(list(r))
    if r and _parts(r[-1])[1]:
        r = [c * r[-1].conjugate() for c in r]
    parts = [_parts(c) for c in r]
    g = gcd(*(z for x, y, _ in parts for z in (x, y))) * (-1 if r and parts[-1][0] < 0 else 1)
    return [_reduced(x // g, y // g, 1) if y else x // g for x, y, _ in parts]


def _squarefree(f):
    """f / gcd(f, f') for a primitive f over Z with f[-1] > 0, or a monic f over Z[i]."""
    return _exact_quotient(f, _gcd(f, [k * c for k, c in enumerate(f)][1:]))


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


def _factor_poly(field: str, f: list, sqf: list, scale: int) -> list:
    """Irreducible factors, with multiplicities by exact division, of an f
    primitive with f[-1] > 0 over Z or monic over Z[i], from its squarefree
    part sqf; monic when f is.  Over Z, ``_zassenhaus``; over Z[i], Trager's
    norm method: for the least j >= 0 with N(t) = sqf(t - j c i) conj(sqf)(t
    + j c i) squarefree (c = ``scale``), each irreducible factor h of N over
    Z gives gcd(sqf(t - j c i), h) shifted back.  The order is that of the
    factors of F(t) = f(c t), as when f is u of D theta and F the u of theta:
    (degree, multiplicity, descending primitive integer coefficients) over Q,
    and over Q(i) that of the factors of F's own norm at the shift j i.
    """
    if field == scalars.QI:
        facs = _trager(sqf, scale)
    else:
        facs = sorted(_zassenhaus(sqf), key=lambda h: _order(h, scale))
    out = []
    for fac in facs:
        mult, rest = 1, f
        if len(sqf) < len(f):  # repeated factors: count them by exact division
            mult = 0
            while (rest := _exact_quotient(rest, fac)) is not None:
                mult += 1
        out.append((fac, mult))
    return out if field == scalars.QI else sorted(out, key=lambda fk: (len(fk[0]), fk[1]))


def _order(h, scale):
    """(degree, descending coefficients) of the primitive integer form of h(scale t)."""
    g = [c * scale ** k for k, c in enumerate(h)]
    return len(h), [c // gcd(*g) for c in reversed(g)]


def _poly_shift(p, c):
    """p(t + c), by Horner's rule: out <- out * (t + c) + a."""
    out = []
    for a in reversed(poly_trim(p)):
        out = [x + c * y for x, y in zip([a] + out, out + [0])] if c else [a] + out
    return tuple(out)


def _trager(sqf, scale):
    """The monic irreducible factors over Q(i) of a monic squarefree sqf over Z[i]."""
    for j in count(all(not _parts(c)[1] for c in sqf)):  # a real sqf has norm sqf^2 at j = 0
        shift = _reduced(0, j * scale, 1)
        g = _poly_shift(sqf, -shift)
        parts = [_parts(c) for c in g]
        re, im = [x for x, _, _ in parts], [y for _, y, _ in parts]
        norm = [x + y for x, y in zip(_mul(re, re), _mul(im, im))]  # g conj(g), in Z[t]
        if len(_gcd(norm, [k * c for k, c in enumerate(norm)][1:])) == 1:
            break
    return [list(map(_int, _poly_shift(_gcd(g, h), shift)))
            for h in sorted(_zassenhaus(norm), key=lambda h: _order(h, scale))]


def _generator(A: Algebra, d: int) -> tuple[list, tuple, int, list]:
    """``_relation`` of the first theta on the moment curve x(t) = sum_k t^(k-1) b_k,
    t = 2 .. C(d+1, 2)(n-1) + 2, whose u has a squarefree part of degree d,
    and that squarefree part.

    The roots of u are the nonzero values of the d characters of A / N at
    D theta, so the degree is d iff those values are nonzero and pairwise
    distinct.  Each character is a polynomial in t of degree < n, so a
    character vanishes, or two agree, for at most C(d+1, 2)(n-1) values of t.
    The curve starts at t = 2: x(0) = b_1 and x(1) = sum b_k are the unit or a
    basis idempotent in the canonical and unit-first bases.
    """
    n = A.dim
    for t in range(2, comb(d + 1, 2) * (n - 1) + 3):
        powers, p, s = _relation(A, tuple(scalars.coerce(A.field, t ** k) for k in range(n)))
        if len(p) - 1 - s >= d and len(sqf := _squarefree(p[s:])) - 1 == d:
            return powers, p, s, sqf
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
    powers, p, s, sqf = _generator(A, d)
    factors = _factor_poly(A.field, p[s:], sqf, _integral_tensor(A)[0])
    return _crt_idempotents(A, powers, p, [reduce(_mul, [f] * k) for f, k in factors])


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
