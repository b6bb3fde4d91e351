"""Independent known-answer oracle for the benchmark.

Nothing here imports ``currentalg``: the catalog tables, the tensor
product, the coboundary operators and the elimination are written again
from their definitions, so an expected answer never comes from the code
being timed.  Algebras are plain ``Tab`` records over Q with a full
(both orders filled) sparse table ``{(i, j): {k: Fraction}}``; all indices
are 1-based as in the package.

Only canonical rational inputs are computed here.  Twisted
(``change_basis``) and complexified inputs share their invariants with
the canonical input, which is the closed form the checker relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

LIE = "lie"
COMM = "assoc-comm"


@dataclass(frozen=True)
class Tab:
    kind: str
    dim: int
    table: dict  # (i, j) -> {k: Fraction}, both orders present, zeros absent

    def prod(self, i, j):
        return self.table.get((i, j), {})


def _tab(kind, dim, upper):
    """Fill the symmetry class from i < j (Lie) or i <= j (comm) entries."""
    table = {}
    for (i, j), vec in upper.items():
        vec = {k: Fraction(c) for k, c in vec.items() if c != 0}
        if not vec:
            continue
        table[(i, j)] = vec
        if i != j:
            table[(j, i)] = {k: -c for k, c in vec.items()} if kind == LIE else dict(vec)
    return Tab(kind, dim, table)


# -- catalog, written from the definitions --------------------------------

def r2():
    return _tab(LIE, 2, {(1, 2): {2: 1}})


def sl2():
    return _tab(LIE, 3, {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}})


def heisenberg(n):
    return _tab(LIE, n, {(2 * i - 1, 2 * i): {n: 1} for i in range(1, n // 2 + 1)})


def t_oplus_a(n, s):
    up = {}
    for i in range(1, s + 1):
        a, b = 2 * i - 1, 2 * i
        up[(a, n + a)] = {n + b: -1}
        up[(a, n + b)] = {n + a: 1}
        up[(b, n + a)] = {n + a: 1}
        up[(b, n + b)] = {n + b: 1}
    for j in range(2 * s + 1, n + 1):
        up[(j, n + j)] = {n + j: 1}
    return _tab(LIE, 2 * n, up)


def m1(q):
    return _tab(COMM, q, {(i, i): {i: 1} for i in range(1, q + 1)})


def null(n):
    return Tab(COMM, n, {})


def real_rigid(n, s):
    up = {}
    for i in range(1, s + 1):
        a, b = 2 * i - 1, 2 * i
        up[(a, a)] = {a: 1}
        up[(a, b)] = {b: 1}
        up[(b, b)] = {a: -1}
    for j in range(2 * s + 1, n + 1):
        up[(j, j)] = {j: 1}
    return _tab(COMM, n, up)


FAMILIES = {"r2": r2, "sl2": sl2, "heisenberg": heisenberg, "t_oplus_a": t_oplus_a,
            "M1": m1, "null": null, "realRigid": real_rigid}


def make(name, params):
    return FAMILIES[name](**params)


def tensor(g, A):
    """g (x) A on the flat basis (i-1)q + a, from any two tables."""
    q = A.dim
    table = {}
    for (i, j), gv in g.table.items():
        for (a, b), av in A.table.items():
            out = {}
            for k, ck in gv.items():
                for c, dc in av.items():
                    out[(k - 1) * q + c] = ck * dc
            table[((i - 1) * q + a, (j - 1) * q + b)] = out
    return Tab(LIE, g.dim * q, table)


def from_upper(kind, dim, entries):
    """Table from file-style rows (i, j, k, coeff) with i < j or i <= j."""
    up = {}
    for i, j, k, c in entries:
        up.setdefault((i, j), {})[k] = c
    return _tab(kind, dim, up)


def upper_entries(t):
    """Canonical (i, j, k, coeff) rows as an algebra file lists them."""
    rows = []
    for (i, j), vec in t.table.items():
        if i < j or (t.kind == COMM and i == j):
            rows.extend((i, j, k, c) for k, c in vec.items())
    return sorted(rows)


# -- exact sparse elimination ---------------------------------------------

def echelon(rows):
    """Reduced echelon rows {col: value} with pivot 1, keyed by pivot column."""
    basis = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v != 0}
        for p, prow in basis.items():
            f = row.get(p)
            if f:
                for c, v in prow.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {c: v * inv for c, v in row.items()}
        for q, qrow in basis.items():
            f = qrow.get(p)
            if f:
                for c, v in row.items():
                    nv = qrow.get(c, 0) - f * v
                    if nv:
                        qrow[c] = nv
                    else:
                        qrow.pop(c, None)
        basis[p] = row
    return basis


def rank(rows):
    return len(echelon(rows))


def kernel(rows, ncols):
    """Basis of {x : row . x = 0 for every row}, columns 0..ncols-1."""
    ech = echelon(rows)
    out = []
    for f in range(ncols):
        if f in ech:
            continue
        vec = {f: Fraction(1)}
        for p, prow in ech.items():
            v = prow.get(f)
            if v:
                vec[p] = -v
        out.append(vec)
    return out


# -- Chevalley-Eilenberg, adjoint coefficients -----------------------------

def _pairs(n):
    return list(combinations(range(1, n + 1), 2))


def _signed(a, b):
    """(sorted pair, sign) for phi(e_a, e_b); sign 0 when a == b."""
    if a == b:
        return None, 0
    return ((a, b), 1) if a < b else ((b, a), -1)


def d0_rows(g):
    n = g.dim
    rows = []
    for i in range(1, n + 1):
        for s in range(1, n + 1):
            rows.append({t - 1: g.prod(i, t).get(s, 0) for t in range(1, n + 1)})
    return rows


def d1_rows(g):
    """(d phi)(x, y) = [x, phi y] - [y, phi x] - phi([x, y]); column (m, t)."""
    n = g.dim
    col = lambda m, t: (m - 1) * n + (t - 1)
    rows = []
    for i, j in _pairs(n):
        for s in range(1, n + 1):
            row = {}
            for t in range(1, n + 1):
                for m, c in ((j, g.prod(i, t).get(s, 0)), (i, -g.prod(j, t).get(s, 0))):
                    if c:
                        row[col(m, t)] = row.get(col(m, t), 0) + c
            for m, c in g.prod(i, j).items():
                row[col(m, s)] = row.get(col(m, s), 0) - c
            rows.append(row)
    return rows


def d2_rows(g):
    """(d phi)(x0,x1,x2) = sum (-1)^i [x_i, phi(..)] + sum (-1)^(i+j) phi([x_i,x_j], ..)."""
    n = g.dim
    pidx = {p: k for k, p in enumerate(_pairs(n))}
    rows = []

    def add(row, pair, t, c):
        key = pidx[pair] * n + (t - 1)
        v = row.get(key, 0) + c
        if v:
            row[key] = v
        else:
            row.pop(key, None)

    for x in combinations(range(1, n + 1), 3):
        for s in range(1, n + 1):
            row = {}
            for pos in range(3):
                rest = x[:pos] + x[pos + 1:]
                sign = -1 if pos % 2 else 1
                for t in range(1, n + 1):
                    c = g.prod(x[pos], t).get(s, 0)
                    if c:
                        add(row, rest, t, sign * c)
            for p1, p2 in ((0, 1), (0, 2), (1, 2)):
                other = x[3 - p1 - p2]
                sign = -1 if (p1 + p2) % 2 else 1
                for m, c in g.prod(x[p1], x[p2]).items():
                    pair, sg = _signed(m, other)
                    if sg:
                        add(row, pair, s, sign * sg * c)
            rows.append(row)
    return rows


@dataclass(frozen=True)
class Dims:
    Z: int
    B: int

    @property
    def H(self):
        return self.Z - self.B


def chevalley(g, k):
    n = g.dim
    if k == 1:
        return Dims(n * n - rank(d1_rows(g)), rank(d0_rows(g)))
    return Dims(n * len(_pairs(n)) - rank(d2_rows(g)), rank(d1_rows(g)))


def center_dim(g):
    return g.dim - rank(d0_rows(g))


def span_dim(vectors):
    return rank([dict(v) for v in vectors])


def derived_dim(g):
    return span_dim(list(g.table.values()))


def _mult_vec(t, x, y):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in t.prod(i, j).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: v for k, v in out.items() if v}


def _span_basis(t, vectors):
    return [{k + 1: v for k, v in row.items()}
            for row in echelon([{k - 1: v for k, v in vec.items()} for vec in vectors]).values()]


def _chain_ends_in_zero(t, step):
    cur = [{i: Fraction(1)} for i in range(1, t.dim + 1)]
    while True:
        nxt = _span_basis(t, step(cur))
        if not nxt:
            return True
        if len(nxt) == len(cur):
            return False
        cur = nxt


def is_solvable(g):
    return _chain_ends_in_zero(g, lambda s: [_mult_vec(g, x, y) for x in s for y in s])


def is_nilpotent(t):
    full = [{i: Fraction(1)} for i in range(1, t.dim + 1)]
    return _chain_ends_in_zero(t, lambda s: [_mult_vec(t, x, y) for x in full for y in s])


# -- derivations and Harrison cohomology of a commutative algebra ----------

def hochschild_d1_rows(A):
    """(d f)(a, b) = a f(b) - f(ab) + f(a) b on a <= b; unknown (r, c) is f(e_c)_r."""
    n = A.dim
    col = lambda r, c: (r - 1) * n + (c - 1)
    rows = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            for s in range(1, n + 1):
                row = {}
                for r in range(1, n + 1):
                    for key, c in ((col(r, b), A.prod(a, r).get(s, 0)),
                                   (col(r, a), A.prod(r, b).get(s, 0))):
                        if c:
                            row[key] = row.get(key, 0) + c
                for m, c in A.prod(a, b).items():
                    row[col(s, m)] = row.get(col(s, m), 0) - c
                rows.append(row)
    return rows


def derivation_dim(t):
    if t.kind == LIE:
        return t.dim ** 2 - rank(d1_rows(t))
    return t.dim ** 2 - rank(hochschild_d1_rows(t))


def harrison(A):
    """Symmetric Hochschild 2-cocycles modulo coboundaries of 1-cochains."""
    n = A.dim
    sym = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    sidx = {p: k for k, p in enumerate(sym)}
    key = lambda x, y, t: sidx[(min(x, y), max(x, y))] * n + (t - 1)
    rows = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for s in range(1, n + 1):
                    row = {}

                    def add(k, v):
                        nv = row.get(k, 0) + v
                        if nv:
                            row[k] = nv
                        else:
                            row.pop(k, None)

                    for t in range(1, n + 1):
                        v = A.prod(a, t).get(s, 0)
                        if v:
                            add(key(b, c, t), v)
                        v = A.prod(t, c).get(s, 0)
                        if v:
                            add(key(a, b, t), -v)
                    for m, v in A.prod(a, b).items():
                        add(key(m, c, s), -v)
                    for m, v in A.prod(b, c).items():
                        add(key(a, m, s), v)
                    rows.append(row)
    z = len(sym) * n - rank(rows)
    return Dims(z, rank(hochschild_d1_rows(A)))


def h1_formula_rhs(g, A):
    """h1(g) dim A + (dim g)^2 dim Der A + dim Hom(g/[g,g], Z(g)) dim End A/(L_A + Der A)."""
    p, q = g.dim, A.dim
    s1 = chevalley(g, 1).H * q
    der = kernel(hochschild_d1_rows(A), q * q)
    s2 = p * p * len(der)
    lmult = [{(r - 1) * q + (c - 1): v
              for c in range(1, q + 1) for r, v in A.prod(a, c).items()}
             for a in range(1, q + 1)]
    s3 = (p - derived_dim(g)) * center_dim(g) * (q * q - rank(der + lmult))
    return s1 + s2 + s3


# -- identities, deformations, derivations of g (x) A ----------------------

def _bracket_vec(t, x, j):
    """x * e_j for a sparse vector x."""
    out = {}
    for l, c in x.items():
        for k, v in t.prod(l, j).items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def identity_violations(t):
    """(i, j, k, s) where the Jacobi sum (Lie) or associator (comm) is nonzero."""
    n = t.dim
    out = []
    if t.kind == LIE:
        for i, j, k in combinations(range(1, n + 1), 3):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for s, v in _bracket_vec(t, t.prod(a, b), c).items():
                    acc[s] = acc.get(s, 0) + v
            out.extend((i, j, k, s) for s in sorted(acc) if acc[s])
        return out
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                acc = dict(_bracket_vec(t, t.prod(i, j), k))
                for s, v in _mult_vec(t, {i: Fraction(1)}, t.prod(j, k)).items():
                    acc[s] = acc.get(s, 0) - v
                out.extend((i, j, k, s) for s in sorted(acc) if acc[s])
    return out


def flat_jacobi_residuals(g, A):
    """{(u, v, w, target): value} of the Jacobi sum of g (x) A, any tables."""
    flat = tensor(g, A)
    out = {}
    for u, v, w in combinations(range(1, flat.dim + 1), 3):
        acc = {}
        for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
            for s, x in _bracket_vec(flat, flat.prod(a, b), c).items():
                acc[s] = acc.get(s, 0) + x
        for s, x in acc.items():
            if x:
                out[(u, v, w, s)] = x
    return out


def first_obstruction(g, cochains, order):
    """First (order, triple) where the Jacobi sum of mu + t phi_1 + ... is nonzero.

    ``cochains`` are dicts {(i, j): {k: c}} on i < j.  Returns
    (ok_up_to, first) with first None when every coefficient vanishes.
    """
    n = g.dim

    def term(phi, i, j):
        if i == j:
            return {}
        if i < j:
            return phi.get((i, j), {})
        return {k: -c for k, c in phi.get((j, i), {}).items()}

    def bracket(i, j):
        polys = [g.prod(i, j)] + [term(phi, i, j) for phi in cochains[:order]]
        return polys + [{}] * (order + 1 - len(polys))

    first = None
    for i, j, k in combinations(range(1, n + 1), 3):
        total = [dict() for _ in range(order + 1)]
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, vec in enumerate(bracket(a, b)):
                for l, x in vec.items():
                    for m2, w in enumerate(bracket(l, c)):
                        if m + m2 > order:
                            break
                        for s, y in w.items():
                            total[m + m2][s] = total[m + m2].get(s, 0) + x * y
        for m, vec in enumerate(total):
            if any(vec.values()):
                if first is None or (m, (i, j, k)) < first:
                    first = (m, (i, j, k))
                break
    if first is None:
        return order, None
    return first[0] - 1, first


def is_tensor_derivation(g, A, f1, f2):
    """Flat Leibniz rule for kron(f1, f2) on g (x) A; f1, f2 are row lists."""
    flat = tensor(g, A)
    q = A.dim
    n = flat.dim

    def F(vec):
        out = {}
        for col, x in vec.items():
            j, b = (col - 1) // q, (col - 1) % q
            for i in range(g.dim):
                for a in range(q):
                    v = f1[i][j] * f2[a][b]
                    if v:
                        out[i * q + a + 1] = out.get(i * q + a + 1, 0) + v * x
        return {k: v for k, v in out.items() if v}

    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            lhs = F(flat.prod(u, v))
            rhs = dict(_mult_vec(flat, F({u: Fraction(1)}), {v: Fraction(1)}))
            for s, x in _mult_vec(flat, {u: Fraction(1)}, F({v: Fraction(1)})).items():
                rhs[s] = rhs.get(s, 0) + x
            rhs = {k: x for k, x in rhs.items() if x}
            if lhs != rhs:
                return False
    return True
