import random
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, strategies as st

import currentalg as ca
from currentalg import (
    GaussianRational,
    Matrix,
    SingularMatrixError,
    Subspace,
    inverse,
    kernel_basis,
    min_poly,
    operator_analysis,
    rank,
    solve,
)
from currentalg.cohomology import _hochschild_rows, _leibniz_rows, chevalley_delta_matrix
from currentalg.linalg import (
    _back_substitute,
    _echelon,
    _integral,
    _rank,
    poly_mul,
    rref,
)

from conftest import (P998, dense_rref, given_order_kernel, min_poly_oracle, poly_degree, poly_ext_gcd,
                      poly_gcd, quotient_algebra, rand_matrix, rank_mod_p, scaled_corpus,
                      subspace_coordinates)

F = Fraction


def test_kernel_examples():
    # kernel([[1,1],[2,2]]) = span{(1,-1)}
    k = Subspace(2, kernel_basis(Matrix([[1, 1], [2, 2]])))
    assert k == Subspace(2, [(1, -1)])
    assert kernel_basis(Matrix.identity(3)) == []


def test_rank_plus_nullity_random():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix([[F(rng.randint(-3, 3)) for _ in range(cols)]
                    for _ in range(rows)])
        assert rank(m) + len(kernel_basis(m)) == cols


def test_solve_particular_and_inconsistent():
    m = Matrix([[1, 1], [2, 2]])
    assert solve(m, (1, 2)) is not None
    assert solve(m, (1, 3)) is None
    sol = solve(Matrix([[2, 0], [0, 4]]), (1, 1))
    assert sol == (F(1, 2), F(1, 4))


def test_inverse_round_trip_and_singular():
    rng = random.Random(5)
    for _ in range(10):
        m = rand_matrix(rng, 4)
        try:
            mi = inverse(m)
        except SingularMatrixError:
            continue
        assert m @ mi == Matrix.identity(4)
    with pytest.raises(SingularMatrixError):
        inverse(Matrix([[1, 1], [1, 1]]))


def test_subspace_canonical_equality():
    a = Subspace(3, [(1, 2, 3), (0, 1, 1)])
    b = Subspace(3, [(1, 0, 1), (2, 5, 7)])
    assert a == b
    assert a.contains((3, 7, 10))
    assert not a.contains((0, 0, 1))
    assert (a + Subspace(3, [(0, 0, 1)])).dim == 3


def test_subspace_coordinates_and_constraints():
    s = Subspace(3, [(1, 0, 1), (0, 1, 2)])
    assert subspace_coordinates(s, (2, 3, 8)) == (F(2), F(3))
    assert subspace_coordinates(s, (0, 0, 1)) is None


def test_matrix_kron_layout():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = a.kron(b)
    # (i-1)*q + a layout: entry ((1,2),(2,1)) = a[0][1] * b[1][0]
    assert k.rows[0 * 2 + 1][1 * 2 + 0] == a.rows[0][1] * b.rows[1][0]
    assert k.shape == (4, 4)


def test_min_poly_and_operator_analysis():
    nilp = operator_analysis(Matrix([[0, 1], [0, 0]]))
    assert nilp.min_poly == (F(0), F(0), F(1))  # t^2
    assert nilp.is_nilpotent and not nilp.is_semisimple

    proj = operator_analysis(Matrix([[1, 0], [0, 0]]))
    assert proj.min_poly == (F(0), F(-1), F(1))  # t^2 - t
    assert proj.is_semisimple and not proj.is_nilpotent

    rot = operator_analysis(Matrix([[0, 1], [-1, 0]]))
    assert rot.min_poly == (F(1), F(0), F(1))  # t^2 + 1
    assert rot.is_semisimple

    assert operator_analysis(Matrix.identity(3)).min_poly == (F(-1), F(1))


def test_min_poly_gaussian_entries():
    i = GaussianRational(0, 1)
    m = Matrix([[i]])
    assert min_poly(m) == (GaussianRational(0, -1), Fraction(1))  # t - i


_SMALL = {
    ca.Q: st.builds(F, st.integers(-3, 3), st.integers(1, 2)),
    ca.QI: st.one_of(st.builds(F, st.integers(-3, 3), st.integers(1, 2)),
                     st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))),
}


@st.composite
def _square_operators(draw, field):
    """n x n for n <= 5: free entries, or P B P^-1 with B upper bidiagonal on
    one or two repeated eigenvalues and P unimodular, so that the minimal
    polynomial is often a proper divisor of the characteristic polynomial."""
    n = draw(st.integers(0, 5))
    entry = _SMALL[field]
    if n == 0 or draw(st.booleans()):
        return Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    eigen = draw(st.lists(entry, min_size=1, max_size=2))
    b = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = draw(st.sampled_from(eigen))
        if i + 1 < n:
            b[i][i + 1] = F(draw(st.integers(0, 1)))
    shear = [[F(int(i == j)) if i <= j else F(draw(st.integers(-1, 1)))
              for j in range(n)] for i in range(n)]
    p = Matrix(shear) @ Matrix(shear).transpose()
    return p @ Matrix(b) @ inverse(p)


@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_min_poly_matches_power_krylov_oracle(field, data):
    m = data.draw(_square_operators(field))
    assert min_poly(m) == min_poly_oracle(m)


def test_poly_helpers():
    # (t-1)(t+1) = t^2 - 1
    assert poly_mul((F(-1), F(1)), (F(1), F(1))) == (F(-1), F(0), F(1))
    g = poly_gcd((F(-1), F(0), F(1)), (F(1), F(1)))
    assert g == (F(1), F(1))
    gg, s, t = poly_ext_gcd((F(0), F(1)), (F(1), F(1)))  # t and t+1
    assert gg == (F(1),)
    assert poly_degree(gg) == 0


def test_matrix_difference_checks_shapes():
    assert Matrix([[1, 2]]) - Matrix([[1, 1]]) == Matrix([[0, 1]])
    for other in (Matrix([[1]]), Matrix([[1, 2], [3, 4]])):
        with pytest.raises(ValueError):
            Matrix([[1, 2]]) - other


def test_matrix_edge_shapes():
    wide, tall = Matrix.from_columns([[], []]), Matrix([[], [], []])
    assert (wide.shape, tall.shape) == ((0, 2), (3, 0))
    assert (wide.transpose().shape, tall.transpose().shape) == ((2, 0), (0, 3))
    assert (Matrix.from_flat((), 0, 2), Matrix.from_flat((), 3, 0)) == (wide, tall)
    assert wide != Matrix([]) != tall
    for product, shape in ((wide.transpose() @ wide, (2, 2)), (tall @ wide, (3, 2)),
                           (wide @ wide.transpose(), (0, 0))):
        assert product.shape == shape and product.is_zero()
    assert (wide @ Matrix.identity(2)).shape == (0, 2)
    assert (wide.kron(Matrix.identity(2)).shape, tall.kron(wide).shape) == ((0, 4), (0, 0))
    assert tall.kron(Matrix([[1, 2]])).shape == (3, 0)
    assert rank(wide) == rank(tall) == 0
    assert kernel_basis(wide) == [(F(1), F(0)), (F(0), F(1))]
    assert kernel_basis(tall) == []
    assert solve(wide, ()) == (F(0), F(0))
    assert solve(tall, (0, 0, 0)) == ()
    assert solve(tall, (0, 1, 0)) is None
    assert wide.apply((1, 2)) == () and tall.apply(()) == (F(0),) * 3


def test_dense_and_assembled_matrices_agree():
    i = GaussianRational(0, 1)
    for dense, entries in (([[1, 0], [0, F(2)]], {(0, 0): F(1), (1, 1): 2}),
                           ([[GaussianRational(1), 0, i]], {(0, 0): 1, (0, 2): i}),
                           ([[GaussianRational(F(1, 2)), 3]], {(0, 0): F(1, 2), (0, 1): i - i + 3})):
        m, op = Matrix(dense), Matrix.from_entries(entries, len(dense), len(dense[0]))
        assert m == op and hash(m) == hash(op) and m.rows == op.rows, dense
    with pytest.raises(ca.ScalarError):
        Matrix([[1.0]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_matrix_power():
    m = Matrix([[1, 1], [0, 1]])
    assert m ** 0 == Matrix.identity(2)
    assert m ** 3 == Matrix([[1, 3], [0, 1]])


# ---------------------------------------------------------------------------
# The sparse kernel against the dense Gauss-Jordan oracle (conftest.dense_rref)
# ---------------------------------------------------------------------------

# Numerators up to 10^12 and large prime denominators exercise the lcm
# scaling, the content division and negative pivots of the integral rows.
_RATIONAL = st.builds(
    F,
    st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12)),
    st.one_of(st.integers(1, 3), st.sampled_from((65537, 15485863, 999999937))),
)
_ENTRIES = {
    ca.Q: st.one_of(st.just(F(0)), _RATIONAL),
    # Q(i) matrices mix both scalar types, as L_e - id does over Q(i)
    ca.QI: st.one_of(st.just(GaussianRational(0)), _RATIONAL,
                     st.builds(GaussianRational, _RATIONAL, _RATIONAL)),
}
# Entries of one row: over Q(i), wholly rational rows (as Fraction, or as the
# real GaussianRational that complexify gives) sit next to rows that have
# imaginary parts.
_ROW_ENTRIES = {
    ca.Q: (_ENTRIES[ca.Q],),
    ca.QI: (_ENTRIES[ca.Q], _ENTRIES[ca.QI],
            st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, _RATIONAL))),
}


@st.composite
def _matrices(draw, field):
    """(ncols, rows), at most 8 x 8, with zero columns, zero and repeated rows."""
    ncols = draw(st.integers(0, 8))
    row = st.sampled_from(_ROW_ENTRIES[field]).flatmap(
        lambda entry: st.lists(entry, min_size=ncols, max_size=ncols))
    rows = draw(st.lists(row, max_size=8))
    dead = draw(st.sets(st.integers(0, 7)))
    rows = [[F(0) if c in dead else x for c, x in enumerate(r)] for r in rows]
    extra = draw(st.lists(st.integers(-1, len(rows) - 1), max_size=8 - len(rows)))
    rows += [[F(0)] * ncols if i < 0 else list(rows[i]) for i in extra]
    return ncols, [tuple(r) for r in draw(st.permutations(rows))]


@st.composite
def _vectors(draw, field, rows, ncols):
    """A random vector, or a combination of the rows, possibly perturbed."""
    entry = _ENTRIES[field]
    v = [F(0)] * ncols
    for r in rows:
        c = draw(entry)
        v = [a + c * b for a, b in zip(v, r)]
    if not rows or draw(st.booleans()):
        v = [a + draw(entry) for a in v]
    return tuple(v)


@st.composite
def _assembled(draw, field, rows, ncols):
    """rows as a Matrix summed term by term, as the assemblers build
    operators: each entry x arrives as x - y and y for a drawn y, so zero
    entries with y != 0 cancel to zero during assembly."""
    entries = defaultdict(int)
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            y = draw(_ENTRIES[field])
            entries[r, c] += x - y
            entries[r, c] += y
    return Matrix.from_entries(entries, len(rows), ncols)


def _oracle_kernel(rows, ncols):
    """Kernel basis read off the dense oracle, one vector per free column."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def _oracle_solve(cols, v):
    """Some x with sum x_r cols[r] = v, by the dense oracle, or None."""
    if not cols:
        return () if all(x == 0 for x in v) else None
    aug = [[col[i] for col in cols] + [v[i]] for i in range(len(v))]
    rows, pivots = dense_rref(aug)
    if len(cols) in pivots:
        return None
    x = [F(0)] * len(cols)
    for r, p in enumerate(pivots):
        x[p] = rows[r][len(cols)]
    return tuple(x)


_FIELDS = pytest.mark.parametrize("field", [ca.Q, ca.QI])


@_FIELDS
@given(data=st.data())
def test_rref_matches_dense_oracle(field, data):
    ncols, rows = data.draw(_matrices(field))
    want_rows, want_pivots = dense_rref(rows)
    want_rows = [r for r in want_rows if any(x != 0 for x in r)]
    assert rref(rows) == (want_rows, want_pivots)
    assert rank(Matrix(rows)) == len(want_pivots)
    # the same rows as an assembled sparse operator, and the map into the zero space
    for op, dense in ((data.draw(_assembled(field, rows, ncols)), rows),
                      (Matrix.from_entries({}, 0, ncols), [])):
        assert (op.nrows, op.ncols) == (len(dense), ncols)
        assert all(x != 0 for row in op.sparse_rows for x in row.values())
        if dense:  # built densely or term by term, one matrix
            assert op == Matrix(dense) and hash(op) == hash(Matrix(dense))
        assert rank(op) == len(dense_rref(dense)[1])
        assert kernel_basis(op) == _oracle_kernel(dense, ncols)


def test_rref_edge_shapes():
    assert rref([]) == ([], [])
    assert rref([(), ()]) == ([], [])
    assert rref([(F(0), F(0))] * 3) == ([], [])
    assert rref([(F(0), F(2), F(4))] * 2) == ([(F(0), F(1), F(2))], [1])


def test_gaussian_echelon_entries_stay_small():
    # The coboundaries of t2+a2 over Q(i) in a dense Gaussian unimodular basis:
    # elimination meets Gaussian common factors such as 1+i, which pile up to
    # thousands of bits in rows over Z[i] divided only by their integer content.
    # The kernel reduces the realified rows over Z instead; their entries must
    # stay small too.
    rng = random.Random(0)
    def entry():
        return GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1))
    n = 4
    lower = Matrix([[1 if i == j else entry() if i > j else 0 for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else entry() if i < j else 0 for j in range(n)] for i in range(n)])
    h = ca.change_basis(ca.complexify(ca.t_oplus_a(2, 1)), lower @ upper)
    for k in (1, 2):
        for row in _echelon(_integral(chevalley_delta_matrix(h, k).sparse_rows)[0]).values():
            assert max(abs(x) for x in row.values()).bit_length() < 64


@st.composite
def _gaussian_matrices(draw):
    """(ncols, rows) over Q(i), each row of :func:`_matrices` times a drawn
    scalar, so that most matrices have entries with imaginary parts and
    repeated rows stay dependent."""
    ncols, rows = draw(_matrices(ca.QI))
    scale = st.sampled_from([GaussianRational(*z) for z in ((1, 0), (0, 1), (1, 1), (2, -1))])
    return ncols, [tuple(z * x for x in row) for row, z in ((r, draw(scale)) for r in rows)]


@given(data=st.data())
def test_realified_pivots_pair_up(data):
    # Rows with imaginary parts enter the kernel as v and i*v over Z.  The
    # pivots pair up as (2c, 2c + 1), and after back-substitution the row of
    # pivot 2c is 0 at 2c + 1: the readout of _rref and rank // 2 rest on it.
    ncols, rows = data.draw(_gaussian_matrices())
    integral, _, pairs = _integral(Matrix(rows).sparse_rows)
    assume(pairs)
    echelon = _echelon(integral)
    evens = sorted(echelon)[::2]
    assert all(c % 2 == 0 for c in evens)
    assert sorted(echelon) == [k for c in evens for k in (c, c + 1)]
    reduced = _back_substitute(echelon)
    assert all(c + 1 not in reduced[c] for c in evens)
    assert [c // 2 for c in evens] == dense_rref(rows)[1]


@given(data=st.data())
def test_gaussian_rank_mod_p_bounds_rank(data):
    # i -> sqrt(-1) mod p is a ring map, so no minor survives it that vanishes
    # over Q(i): an independent route that never realifies a row.
    ncols, rows = data.draw(_gaussian_matrices())
    op = Matrix(rows)
    assert rank_mod_p(op.sparse_rows, P998) <= rank(op) == len(dense_rref(rows)[1])


@_FIELDS
@given(data=st.data())
def test_subspace_reduction_matches_solve_oracle(field, data):
    ncols, rows = data.draw(_matrices(field))
    sub = Subspace(ncols, rows)
    v = data.draw(_vectors(field, rows, ncols))
    inside = _oracle_solve(rows, v) is not None
    assert sub.contains(v) == inside
    assert subspace_coordinates(sub, v) == (_oracle_solve(sub.basis, v) if inside else None)
    assert sub.pivots == tuple(dense_rref(rows)[1])


@_FIELDS
@given(data=st.data())
def test_quotient_projection_matches_solve_oracle(field, data):
    ncols, rows = data.draw(_matrices(field))
    basis, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    assume(free)
    ideal = Subspace(ncols, rows)
    _, proj, lift = quotient_algebra(ca.null_algebra(ncols) if field == ca.Q
                                     else ca.complexify(ca.null_algebra(ncols)), ideal)
    v = data.draw(_vectors(field, rows, ncols))
    # v = (element of the ideal) + (vector on the free columns), uniquely
    units = [tuple(F(int(i == f)) for i in range(ncols)) for f in free]
    x = _oracle_solve(basis[:len(pivots)] + units, v)
    assert proj(v) == x[len(pivots):]
    assert proj(lift(x[len(pivots):])) == x[len(pivots):]


# ---------------------------------------------------------------------------
# The kernel against the given-order kernel (conftest.given_order_kernel)
# ---------------------------------------------------------------------------

@st.composite
def _kernel_inputs(draw, field):
    """(Matrix, dense rows, right-hand side).  Over Q the Matrix at times holds
    the int rows of an integral operator; over Q(i) most rows are realified."""
    ncols, rows = draw(_matrices(field) if field == ca.Q
                       else st.one_of(_matrices(field), _gaussian_matrices()))
    M = Matrix(rows) if rows else Matrix._of((), ncols)
    if field == ca.Q and draw(st.booleans()):
        rows = [tuple(x * lcm(*(y.denominator for y in r)) for x in r) for r in rows]
        M = Matrix._of([{c: int(x) for c, x in enumerate(r) if x} for r in rows], ncols)
    x = draw(st.lists(_ENTRIES[field], min_size=ncols, max_size=ncols))
    b = M.apply(x)
    if draw(st.booleans()):
        b = tuple(v + draw(_ENTRIES[field]) for v in b)
    return M, rows, b


def _kernel_results(M, rows, b):
    try:
        inv = inverse(M).sparse_rows
    except SingularMatrixError:
        inv = None
    sub = Subspace(M.ncols, rows)
    return (rank(M), kernel_basis(M), solve(M, b), inv, rref(rows), sub.basis, sub.pivots)


@_FIELDS
@given(data=st.data())
def test_kernel_matches_given_order_kernel(field, data):
    # Sorting the rows, swapping in shorter pivots and dividing by the content
    # only when a row lands change no result, not even a scalar type.
    M, rows, b = data.draw(_kernel_inputs(field))
    got = _kernel_results(M, rows, b)
    with given_order_kernel():
        want = _kernel_results(M, rows, b)
    assert got == want and repr(got) == repr(want)
    r = got[0]
    assert [_rank(M, c) for c in range(r + 3)] == list(range(r)) + [r] * 3
    assert all(gcd(*row.values()) == 1 for row in _echelon(_integral(M.sparse_rows)[0]).values())


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
def test_ceilinged_ranks_match_given_order_kernel(kind):
    # d^k d^(k-1) = 0 bounds rank d^k by ncols - rank d^(k-1); the elimination
    # stopped there must give the full rank of the given-order kernel.  For
    # Harrison, d^1 is minus the Leibniz system and d^2 the Hochschild rows.
    algebras = [a for a in scaled_corpus(kind) if ca.check_identities(a).passed]
    assert {a.field for a in algebras} == {ca.Q, ca.QI}
    for alg in algebras:
        ops = ([chevalley_delta_matrix(alg, k) for k in (0, 1, 2)] if kind == ca.LIE
               else [_leibniz_rows(alg), _hochschild_rows(alg)])
        with given_order_kernel():
            want = [rank(d) for d in ops]
        prev = 0
        for d, r in zip(ops, want):
            assert _rank(d, d.ncols - prev) == r, alg
            prev = r
        dims = [ca.CohomologyDims(d.ncols - r, b, d.ncols - r - b)
                for d, r, b in zip(ops[1:], want[1:], want)]
        assert dims == ([ca.chevalley_dims(alg, k) for k in (1, 2)] if kind == ca.LIE
                        else [ca.harrison_h2(alg)]), alg
