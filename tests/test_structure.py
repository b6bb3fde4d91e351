import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import currentalg as ca
from currentalg import (
    AlgebraError,
    GaussianRational,
    Matrix,
    Subspace,
    all_nilpotent_space,
    center,
    complexify,
    direct_sum,
    find_idempotents,
    find_unit,
    is_characteristically_nilpotent,
    is_derivation,
    is_nilalgebra,
    orthogonal_decomposition,
    pierce,
    series,
    some_nonzero_idempotent,
)

from currentalg import structure
from currentalg.linalg import poly_mul, rank
from currentalg.structure import _poly_shift, _trace_form

from conftest import (
    bases,
    bezout_idempotent_oracle,
    catalog_assoc_algebras,
    catalog_lie_algebras,
    dense_rref,
    factor_poly,
    multiply_oracle,
    nilpotent_ops_oracle,
    oracle_corpus,
    poly_monic,
    primitive_idempotents_oracle,
    q_factor_oracle,
    qi_factor_oracle,
    rand_vector,
    random_algebras,
    random_assoc_comm_algebras,
    recursive_decomposition_oracle,
    trace_gram_oracle,
    unimodular_twist,
    vectors,
)

F = Fraction


def test_center_examples():
    assert center(ca.r2()).dim == 0
    assert center(ca.abelian(4)) == Subspace.full(4)
    h = center(ca.heisenberg(3))
    assert h == Subspace(3, [(0, 0, 1)])
    with pytest.raises(AlgebraError):
        center(ca.m1(2))


def test_series_examples():
    rep = series(ca.r2())
    assert rep.is_solvable and not rep.is_nilpotent
    assert rep.nil_index is None
    assert rep.derived[1] == Subspace(2, [(0, 1)])

    rep = series(ca.abelian(3))
    assert rep.is_nilpotent and rep.nil_index == 1

    rep = series(ca.heisenberg(3))
    assert rep.is_nilpotent and rep.nil_index == 2
    assert rep.lower_central[1] == Subspace(3, [(0, 0, 1)])

    assert not series(ca.sl2()).is_solvable


def test_series_chains_decrease():
    for g in (ca.r2(), ca.heisenberg(3), ca.sl2(), ca.t_oplus_a(2, 1)):
        rep = series(g)
        for chain in (rep.derived, rep.lower_central):
            for a, b in zip(chain, chain[1:]):
                assert b.dim < a.dim
                assert all(a.contains(v) for v in b.basis)


def test_subspace_product_matches_table_oracle():
    # Products are summed as sparse rows on the structure tensor; the oracle
    # multiplies dense vectors through basis_product.
    rng = random.Random(5)
    for alg in oracle_corpus(ca.LIE) + oracle_corpus(ca.ASSOC_COMM):
        n = alg.dim
        full = Subspace.full(n)
        u = Subspace(n, [rand_vector(rng, n) for _ in range(rng.randint(1, n))])
        for a, b in ((full, full), (u, full), (full, u), (u, u)):
            want = Subspace(n, [multiply_oracle(alg, x, y) for x in a.basis for y in b.basis])
            assert structure.subspace_product(alg, a, b) == want, alg


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_subspace_product_is_the_span_of_the_dense_products(field, kind, data):
    # subspace_product forms each x*y as a sparse row on the tensor; the
    # oracle spans the dense products of the two bases.  Same subspace, same
    # scalar type in its canonical basis, in the drawn basis and in a
    # unimodular or dense change of it.
    alg = data.draw(random_algebras(kind, field))
    shape = data.draw(st.sampled_from((None, "unimodular", "dense")))
    if shape:
        alg = ca.change_basis(alg, data.draw(bases(field, alg.dim, shape)))
    n = alg.dim
    u, v = (Subspace(n, data.draw(st.lists(vectors(field, n), min_size=1, max_size=n)))
            for _ in range(2))
    got = structure.subspace_product(alg, u, v)
    want = Subspace(n, [multiply_oracle(alg, x, y) for x in u.basis for y in v.basis])
    assert got == want
    assert [type(c) for w in got.basis for c in w] == [type(c) for w in want.basis for c in w]


def test_is_nilalgebra_examples():
    assert is_nilalgebra(ca.null_algebra(2))
    assert is_nilalgebra(ca.null_algebra(1))
    assert not is_nilalgebra(ca.m1(3))
    assert not is_nilalgebra(ca.real_rigid(2, 1))
    # truncated-polynomial style: u^2 = u^3 = 0, u*v = 0
    t = ca.Algebra("t", ca.ASSOC_COMM, ca.Q, 2, {(1, 1): (0, 1)})
    assert is_nilalgebra(t)


def _right_mult_oracle(alg):
    """Rows (j, k) of x -> (x e_j)_k from basis_product, rank by the dense oracle."""
    n = alg.dim
    return [[alg.basis_product(i, j)[k] for i in range(1, n + 1)]
            for j in range(1, n + 1) for k in range(n)]


def test_center_and_unit_match_table_oracle():
    for g in oracle_corpus(ca.LIE):
        units = Matrix.identity(g.dim).rows
        z = center(g)
        assert z.dim == g.dim - len(dense_rref(_right_mult_oracle(g))[1]), g
        assert all(not any(multiply_oracle(g, x, e)) for x in z.basis for e in units), g
    for A in oracle_corpus(ca.ASSOC_COMM):
        units = Matrix.identity(A.dim).rows
        rhs = [x for e in units for x in e]
        aug = [row + [b] for row, b in zip(_right_mult_oracle(A), rhs)]
        u = find_unit(A)
        assert (u is None) == (A.dim in dense_rref(aug)[1]), A
        assert u is None or all(multiply_oracle(A, u, e) == e for e in units), A


def test_find_unit_examples():
    for q in (1, 2, 3):
        assert find_unit(ca.m1(q)) == tuple(F(1) for _ in range(q))
    assert find_unit(ca.real_rigid(2, 1)) == (F(1), F(0))
    assert find_unit(ca.null_algebra(2)) is None


def test_some_nonzero_idempotent_agrees_with_nil_test():
    rng = random.Random(41)
    algs = catalog_assoc_algebras()
    algs += random_assoc_comm_algebras(rng, 2, 12)
    algs += random_assoc_comm_algebras(rng, 3, 8)
    non_nil = 0
    for a in algs:
        e = some_nonzero_idempotent(a)
        assert (e is None) == is_nilalgebra(a)
        if e is not None:
            non_nil += 1
            assert a.multiply(e, e) == e
            assert any(x != 0 for x in e)
            assert e == bezout_idempotent_oracle(a), a
            idems = find_idempotents(a)
            assert idems and all(a.multiply(x, x) == x for x in idems)
    assert non_nil >= 5


def test_find_idempotents_m1():
    idems = find_idempotents(ca.m1(2))
    assert sorted(idems) == [(F(0), F(1)), (F(1), F(0)), (F(1), F(1))]
    assert len(find_idempotents(ca.m1(3))) == 7


def test_find_idempotents_real_rigid():
    assert find_idempotents(ca.real_rigid(2, 1)) == [(F(1), F(0))]
    got = find_idempotents(complexify(ca.real_rigid(2, 1)))
    half = F(1, 2)
    expected = {
        (GaussianRational(1), GaussianRational(0)),
        (GaussianRational(half), GaussianRational(0, half)),
        (GaussianRational(half), GaussianRational(0, -half)),
    }
    assert set(got) == expected


def test_find_idempotents_candidates():
    a = ca.m1(2)
    got = find_idempotents(a, candidates=[(1, 0)])
    assert (F(1), F(0)) in got
    with pytest.raises(AlgebraError):
        find_idempotents(a, candidates=[(1, 2)])


def test_find_idempotents_null():
    assert find_idempotents(ca.null_algebra(2)) == []


def test_pierce_examples():
    split = pierce(ca.m1(2), (1, 0))
    assert split.a11 == Subspace(2, [(1, 0)])
    assert split.a00 == Subspace(2, [(0, 1)])

    q = 3
    split = pierce(ca.m1(q), (1,) * q)
    assert split.a11 == Subspace.full(q)
    assert split.a00.dim == 0

    split = pierce(ca.real_rigid(2, 1), (1, 0))
    assert split.a11 == Subspace.full(2)
    assert split.a00.dim == 0

    with pytest.raises(AlgebraError):
        pierce(ca.m1(2), (2, 0))
    with pytest.raises(AlgebraError):
        pierce(ca.m1(2), (0, 0))


def test_pierce_invariants_all_catalog_idempotents():
    for a in catalog_assoc_algebras():
        if is_nilalgebra(a):
            continue
        for e in find_idempotents(a):
            split = pierce(a, e)
            assert split.a11.dim + split.a00.dim == a.dim
            for x in split.a11.basis:
                assert a.multiply(e, x) == x
            for y in split.a00.basis:
                assert all(c == 0 for c in a.multiply(e, y))
            for x in split.a11.basis:
                for y in split.a00.basis:
                    assert all(c == 0 for c in a.multiply(x, y))


def test_orthogonal_decomposition_m1q():
    for q in (1, 2, 3):
        dec = orthogonal_decomposition(ca.m1(q))
        assert len(dec.components) == q
        assert dec.nil_residual.dim == 0
        assert sorted(dec.idempotents) == sorted(
            tuple(F(1) if i == k else F(0) for i in range(q)) for k in range(q))


def test_orthogonal_decomposition_real_rigid():
    dec = orthogonal_decomposition(ca.real_rigid(2, 1))
    assert len(dec.components) == 1
    assert dec.components[0] == Subspace.full(2)
    assert dec.idempotents == ((F(1), F(0)),)


def test_orthogonal_decomposition_nil_residual():
    a = direct_sum(ca.m1(1), ca.null_algebra(1))
    dec = orthogonal_decomposition(a)
    assert len(dec.components) == 1
    assert dec.components[0] == Subspace(2, [(1, 0)])
    assert dec.nil_residual == Subspace(2, [(0, 1)])


def test_orthogonal_decomposition_rejects_nilalgebra():
    with pytest.raises(AlgebraError):
        orthogonal_decomposition(ca.null_algebra(2))


def test_orthogonal_idempotent_system_invariants():
    for a in catalog_assoc_algebras():
        if is_nilalgebra(a):
            continue
        dec = orthogonal_decomposition(a)
        idems = dec.idempotents
        for i, e in enumerate(idems):
            assert a.multiply(e, e) == e
            for j, f in enumerate(idems):
                if i != j:
                    assert all(c == 0 for c in a.multiply(e, f))
        if dec.nil_residual.dim == 0:
            total = idems[0]
            for e in idems[1:]:
                total = tuple(x + y for x, y in zip(total, e))
            assert find_unit(a) == total


def test_ad_tensor_power_identity():
    # [ad(X (x) a)]^m = (ad X)^m (x) (L_a)^m on the flat algebra
    rng = random.Random(9)
    pairs = [(ca.r2(), ca.m1(2)), (ca.heisenberg(3), ca.m1(2)),
             (ca.r2(), ca.real_rigid(2, 1))]
    for g, A in pairs:
        flat = ca.current_algebra(g, A)
        for _ in range(4):
            x = tuple(F(rng.randint(-2, 2)) for _ in range(g.dim))
            a = tuple(F(rng.randint(-2, 2)) for _ in range(A.dim))
            tensor = tuple(xi * aj for xi in x for aj in a)
            ad_flat = flat.ad_matrix(tensor)
            adx = g.ad_matrix(x)
            la = A.left_mult_matrix(a)
            for m in (1, 2, 3):
                assert ad_flat ** m == (adx ** m).kron(la ** m)


def test_all_nilpotent_space_examples():
    assert all_nilpotent_space([Matrix([[0, 1], [0, 0]])])
    assert not all_nilpotent_space([Matrix([[1, 0], [0, 0]])])
    e12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e23 = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert all_nilpotent_space([e12, e23])
    e21 = Matrix([[0, 0], [1, 0]])
    assert not all_nilpotent_space([Matrix([[0, 1], [0, 0]]), e21])
    # every x a + y b is nilpotent, but a b = E11 - E22 is not: the answer is
    # about the associative algebra the ops generate, not their span
    a, b = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), Matrix([[0, 0, 0], [1, 0, 0], [0, -1, 0]])
    m = Matrix.from_flat([2 * x + 3 * y for x, y in zip(a.flatten(), b.flatten())], 3, 3)
    assert (m ** 3).is_zero() and not ((a @ b) ** 3).is_zero()
    assert not all_nilpotent_space([a, b])
    assert all_nilpotent_space([]) and nilpotent_ops_oracle([], 2)
    assert all_nilpotent_space([Matrix([[0]]), Matrix([[0]])])
    assert not all_nilpotent_space([Matrix([[0]]), Matrix([[3]])])
    for ops in ([Matrix([[0, 1], [0, 0]]), Matrix([[0]])],
                [Matrix([[0, 1, 0], [0, 0, 1]])]):
        with pytest.raises(ValueError, match="square and of equal dimension"):
            all_nilpotent_space(ops)


_SMALL = st.integers(-2, 2)


@st.composite
def _conjugated_triangular(draw):
    """One to three P T P^-1, T strictly upper triangular and P = L U unimodular."""
    n = draw(st.integers(1, 4))

    def square(entry):
        return Matrix([[entry(i, j) for j in range(n)] for i in range(n)])

    p = (square(lambda i, j: 1 if i == j else draw(_SMALL) if i > j else 0)
         @ square(lambda i, j: 1 if i == j else draw(_SMALL) if i < j else 0))
    p_inv = ca.inverse(p)
    return [p @ square(lambda i, j: draw(_SMALL) if i < j else 0) @ p_inv
            for _ in range(draw(st.integers(1, 3)))]


@st.composite
def _integer_operator_sets(draw):
    n = draw(st.integers(1, 4))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2))
    return [Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])
            for _ in range(draw(st.integers(1, 3)))]


@given(ops=_conjugated_triangular())
def test_all_nilpotent_space_conjugated_triangular(ops):
    assert nilpotent_ops_oracle(ops, ops[0].nrows)
    assert all_nilpotent_space(ops)


@settings(max_examples=300)
@given(ops=_integer_operator_sets())
def test_all_nilpotent_space_matches_product_oracle(ops):
    assert all_nilpotent_space(ops) == nilpotent_ops_oracle(ops, ops[0].nrows)


def _quartic_double_split():
    # K[x]/((x^2 - x)^2) on basis (1, x, x^2, x^3): x^4 = 2x^3 - x^2.
    # Two connected components, each a 2-dim local algebra: x is idempotent
    # only mod the nilradical, and the primitive idempotents are 3x^2 - 2x^3
    # and 1 minus it.
    return ca.Algebra("quartic", ca.ASSOC_COMM, ca.Q, 4, {
        (1, 1): (1, 0, 0, 0), (1, 2): (0, 1, 0, 0),
        (1, 3): (0, 0, 1, 0), (1, 4): (0, 0, 0, 1),
        (2, 2): (0, 0, 1, 0), (2, 3): (0, 0, 0, 1),
        (2, 4): (0, 0, -1, 2), (3, 3): (0, 0, -1, 2),
        (3, 4): (0, 0, -2, 3), (4, 4): (0, 0, -3, 4),
    })


def test_idempotent_lifting_through_nilradical():
    a = _quartic_double_split()
    assert ca.check_identities(a).passed
    e1 = (F(0), F(0), F(3), F(-2))       # 3x^2 - 2x^3, the classical lift
    e0 = (F(1), F(0), F(-3), F(2))       # 1 - e1
    got = set(find_idempotents(a))
    assert got == {e0, e1, (F(1), F(0), F(0), F(0))}
    dec = orthogonal_decomposition(a)
    assert len(dec.components) == 2
    assert dec.nil_residual.dim == 0
    assert all(c.dim == 2 for c in dec.components)
    assert set(dec.idempotents) == {e0, e1}


def test_idempotent_lattice_over_qi():
    # four conjugate-pair primitives after complexification: 2^4 - 1 sums
    a = ca.real_rigid(4, 2)
    assert len(find_idempotents(a)) == 3  # two blocks plus the unit
    assert len(find_idempotents(complexify(a))) == 15


def test_characteristically_nilpotent_examples():
    assert not is_characteristically_nilpotent(ca.abelian(2))
    assert not is_characteristically_nilpotent(ca.r2())
    h = ca.heisenberg(3)
    diag = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert is_derivation(h, diag)  # the witness: a non-nilpotent derivation
    assert not is_characteristically_nilpotent(h)
    for g in catalog_lie_algebras():
        if g.dim <= 4:
            der = ca.derivations(g)
            assert is_characteristically_nilpotent(g) == nilpotent_ops_oracle(der, g.dim)


def _count_relations(monkeypatch, fail=False):
    """Record the elements ``_relation`` is asked about; with ``fail`` every
    one of them reports the relation t^2 of a nilpotent element."""
    seen, relation = [], structure._relation

    def recorded(A, a):
        seen.append(a)
        return ([a], (F(0), F(0), F(1)), 2) if fail else relation(A, a)
    monkeypatch.setattr(structure, "_relation", recorded)
    return seen


def test_generator_candidates_are_bounded(monkeypatch):
    # d characters of A / N, each a polynomial of degree < n in t, so at most
    # C(d+1, 2)(n-1) points fail and the search stops after one more
    for n, d, a in [(1, 1, ca.m1(1)), (3, 3, ca.m1(3)), (4, 2, _m1_null(2, 2)),
                    (5, 3, _m1_null(3, 2)), (4, 4, complexify(ca.m1(4)))]:
        seen = _count_relations(monkeypatch, fail=True)
        with pytest.raises(AssertionError, match="moment curve"):
            find_idempotents(a)
        assert len(seen) == comb(d + 1, 2) * (n - 1) + 1, a
        one = ca.scalars.one(a.field)
        assert seen == [tuple(one * t ** k for k in range(n)) for t in range(2, len(seen) + 2)]
        assert all(type(x) is type(one) for p in seen for x in p)


def test_generator_skips_a_point_with_a_zero_character(monkeypatch):
    # M1^2 in the basis b1 = (2, 1), b2 = (-1, 1): x(2) = b1 + 2 b2 = 3 e2 is
    # killed by the first character, so its u = t - 3 has degree 1 < d = 2
    a = ca.change_basis(ca.m1(2), Matrix([[2, -1], [1, 1]]))
    f_inv = ca.inverse(Matrix([[2, -1], [1, 1]]))
    seen = _count_relations(monkeypatch)
    got = find_idempotents(a)
    assert seen == [(F(1), F(2)), (F(1), F(3))]
    assert set(got) == {f_inv.apply(e) for e in find_idempotents(ca.m1(2))}
    # x(3) = -e1 + 4 e2 has u = (t + 1)(t - 4); the table's denominators are 3,
    # so the relation is that of 3 x(3), with the roots scaled by 3
    assert structure._integral_tensor(a)[0] == 3
    powers, p, s, sqf = structure._generator(a, 2)
    assert s == 1 and p[s:] == (-36, -9, 1) and sqf == [-36, -9, 1]  # (t + 3)(t - 12)


def _complex_basis_m1_3():
    """M1^3 over Q(i) in a basis with genuinely complex structure constants."""
    i = GaussianRational(0, 1)
    return ca.change_basis(complexify(ca.m1(3)), Matrix([[1, i, 0], [0, 1, 1 + i], [0, 0, 1]]))


def test_a_factor_that_does_not_divide_raises_at_once(monkeypatch):
    # Trager's gcd without the shift back: the factors of u(t - i) instead of
    # u(t) (over Q, the factors shifted by 1).  The CRT step must refuse them
    # at once, never iterate on them.
    factor = structure._factor_poly

    def unshifted(field, coeffs, *squarefree_and_scale):
        shift = GaussianRational(0, -1) if field == ca.QI else F(1)
        return [(_poly_shift(f, shift), k) for f, k in factor(field, coeffs, *squarefree_and_scale)]
    monkeypatch.setattr(structure, "_factor_poly", unshifted)
    for a in (ca.m1(3), _quartic_double_split(), complexify(ca.real_rigid(4, 2)),
              ca.change_basis(complexify(ca.m1(4)), _unit_first(4, 4)), _complex_basis_m1_3()):
        start = time.perf_counter()
        with pytest.raises(AssertionError):
            find_idempotents(a)
        assert time.perf_counter() - start < 2, a


def test_equal_degree_split_gives_up_after_bounded_draws(monkeypatch):
    # Every draw is the zero polynomial, which never splits a product of
    # equal-degree factors.  The split must raise after a fixed number of
    # failed draws, never loop.
    class ZeroDraws:
        def __init__(self, seed):
            pass

        def randrange(self, p):
            return 0
    monkeypatch.setattr(structure, "Random", ZeroDraws)
    calls = (lambda: find_idempotents(ca.m1(3)),
             lambda: factor_poly(ca.Q, (-6, 11, -6, 1)),  # three roots mod 3
             lambda: factor_poly(ca.QI, (1, 0, 1)))  # its norm splits mod 5
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(AssertionError):
            call()
        assert time.perf_counter() - start < 2


def test_find_idempotents_unit_first_basis():
    # M1^6 with the unit as basis vector 1: no basis vector generates the
    # semisimple quotient, which used to send the search through a 25^6 box.
    n = 6
    f = Matrix([[1 if j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    f_inv = ca.inverse(f)
    want = {f_inv.apply(e) for e in find_idempotents(ca.m1(n))}
    got = find_idempotents(ca.change_basis(ca.m1(n), f))
    assert len(got) == len(want) == 2 ** n - 1
    assert set(got) == want


# ---------------------------------------------------------------------------
# One split of A / rad A against the recursive Pierce peel
# ---------------------------------------------------------------------------

def _m1_null(q, m):
    return direct_sum(ca.m1(q), ca.null_algebra(m)) if m else ca.m1(q)


def _unit_first(n, q):
    """Columns: the unit of M1^q inside M1^q + null_m, then e_2 .. e_n."""
    return Matrix([[int(i < q) if j == 0 else int(i == j) for j in range(n)]
                   for i in range(n)])


def _m1_null_bases():
    """M1^q + null_m (q <= 4, m <= 2) in a random and in a unit-first basis."""
    out = []
    for q in range(1, 5):
        for m in range(3):
            a = _m1_null(q, m)
            out += [(m, ca.change_basis(a, unimodular_twist(a.dim, 10 * q + m))),
                    (m, ca.change_basis(a, _unit_first(a.dim, q)))]
    return out


def _assoc_corpus():
    return [a for a in oracle_corpus(ca.ASSOC_COMM) if ca.check_identities(a).passed]


def test_orthogonal_decomposition_matches_recursive_oracle():
    algs = _assoc_corpus() + [a for _, a in _m1_null_bases()]
    algs += [ca.real_rigid(4, 2), complexify(ca.real_rigid(4, 2)), _quartic_double_split()]
    split = 0
    for a in algs:
        if is_nilalgebra(a):
            for route in (orthogonal_decomposition, recursive_decomposition_oracle):
                with pytest.raises(AlgebraError):
                    route(a)
            continue
        idems, comps, nil = recursive_decomposition_oracle(a)
        dec = orthogonal_decomposition(a)
        assert len(dec.idempotents) == len(idems) == len(dec.components), a
        assert set(dec.idempotents) == set(idems), a
        assert set(dec.components) == set(comps), a
        assert dec.nil_residual == nil, a
        split += 1
    assert split >= 40


def test_trace_form_matches_left_mult_oracle():
    for a in _assoc_corpus() + [a for _, a in _m1_null_bases()]:
        assert _trace_form(a) == trace_gram_oracle(a), a


def test_trace_radical_is_full_exactly_for_nilalgebras():
    # the radical of the trace form is all of A iff the form has rank 0
    rng = random.Random(41)  # the algebras of test_some_nonzero_idempotent_agrees_with_nil_test
    algs = _assoc_corpus() + catalog_assoc_algebras()
    algs += random_assoc_comm_algebras(rng, 2, 12) + random_assoc_comm_algebras(rng, 3, 8)
    nil = 0
    for a in algs:
        assert (rank(Matrix(_trace_form(a))) == 0) == is_nilalgebra(a), a
        nil += is_nilalgebra(a)
    assert nil >= 5
    # non-unital: the radical of M1^q + null_m is exactly the null summand
    for m, a in _m1_null_bases():
        assert rank(Matrix(_trace_form(a))) == a.dim - m, a


_COEFF = st.one_of(st.integers(-9, 9).map(F),
                   st.builds(F, st.integers(-9, 9), st.integers(1, 4)))


@st.composite
def _q_factor(draw):
    """A factor of degree 1-4 with integer or rational coefficients, not monic in general."""
    deg = draw(st.integers(1, 4))
    return tuple(draw(st.lists(_COEFF, min_size=deg, max_size=deg))) + (draw(_COEFF.filter(bool)),)


@st.composite
def _q_products(draw):
    """A content times 1-5 factors drawn from a pool of at most three, so repeats are common."""
    pool = draw(st.lists(_q_factor(), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))
    content = draw(st.integers(-12, 12).filter(bool))
    return reduce(poly_mul, [pool[i] for i in picks], (F(content),))


def _assert_q_factors_match(poly):
    got = factor_poly(ca.Q, poly)
    assert got == q_factor_oracle(poly), poly  # factors, multiplicities and order
    product = reduce(poly_mul, [fac for fac, mult in got for _ in range(mult)], (F(1),))
    assert product == poly_monic([F(c) for c in poly]), poly


_SD_2_3_5 = (576, 0, -960, 0, 352, 0, -40, 0, 1)  # minimal polynomial of sqrt2 + sqrt3 + sqrt5
_PHI_15 = (1, -1, 0, 1, -1, 1, 0, -1, 1)
_Q_FIXED = (
    ((1, 0, 0, 0, 1), 1),
    (_SD_2_3_5, 1),
    (_PHI_15, 1),
    ((-1,) + (0,) * 11 + (1,), 6),  # t^12 - 1: the cyclotomic polynomials of 1, 2, 3, 4, 6, 12
    (reduce(poly_mul, [(-k, 1) for k in range(1, 11)]), 10),
    (poly_mul((-2 ** 70, 1), (3 ** 40, 1)), 2),
    (reduce(poly_mul, [(-1, 1)] * 2 + [(1, 0, 1)] * 3), 2),
    ((7,), 0),
    ((3, 2), 1),
    (poly_mul((1, 2), (3, 1)), 2),  # 2t + 1 and t + 3: same degree and multiplicity
)


def test_factor_poly_q_fixed_cases():
    for poly, nfactors in _Q_FIXED:
        _assert_q_factors_match(poly)
        assert len(factor_poly(ca.Q, poly)) == nfactors, poly
    assert factor_poly(ca.Q, _Q_FIXED[6][0]) == [((F(-1), F(1)), 2), ((F(1), F(0), F(1)), 3)]
    # ties go by descending integer coefficients: [1, 3] before [2, 1]
    assert factor_poly(ca.Q, _Q_FIXED[-1][0]) == [((F(3), F(1)), 1), ((F(1, 2), F(1)), 1)]


@settings(max_examples=60, deadline=None)
@given(_q_products())
def test_factor_poly_q_matches_oracle(poly):
    _assert_q_factors_match(poly)


_NON_SQUARES = (2, 3, 5, -6, GaussianRational(0, 1), GaussianRational(0, 3),
                GaussianRational(1, 2), GaussianRational(2, -1))
_GAUSS = st.builds(lambda a, b, c, d: GaussianRational(F(a, b), F(c, d)),
                   st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 2))


@st.composite
def _qi_factor(draw):
    """t - a, or (t - a)^2 - d r^2 with d not a square in Q(i)."""
    a = draw(_GAUSS)
    if draw(st.booleans()):
        return (-a, GaussianRational(1))
    d = draw(st.sampled_from(_NON_SQUARES)) * F(draw(st.integers(1, 3)), draw(st.integers(1, 2))) ** 2
    return (a * a - d, -2 * a, GaussianRational(1))


@st.composite
def _qi_products(draw):
    """Products of 1-4 factors drawn from a pool of at most three, so repeats are common."""
    pool = draw(st.lists(_qi_factor(), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
    return reduce(poly_mul, [pool[i] for i in picks])


_M14 = (135, -222, 104, -18, 1)  # the unit-first minimal polynomial of M1(4)
_QI_FIXED = ((2, -2, 1), (1, 0, 1), (1, 0, 0, 0, 1), _M14, poly_mul(_M14, (-17, 1)))


def _assert_qi_factors_match(poly):
    got = factor_poly(ca.QI, poly)
    assert Counter(got) == Counter(qi_factor_oracle(poly)), poly
    product = reduce(poly_mul, [fac for fac, mult in got for _ in range(mult)])
    assert product == poly_monic(ca.scalars.coerce_vector(ca.QI, poly)), poly


def test_factor_poly_qi_fixed_cases():
    # the M1(5) unit-first generator search really meets the quintic
    a = ca.change_basis(ca.m1(5), _unit_first(5, 5))
    _powers, p, s, _sqf = structure._generator(a, 5)
    assert p[s:] == _QI_FIXED[-1]
    for poly in _QI_FIXED:
        _assert_qi_factors_match(poly)


@settings(max_examples=20)
@given(_qi_products())
def test_factor_poly_qi_matches_oracle(poly):
    _assert_qi_factors_match(poly)


def _basis_family():
    """M1^q, realRigid(n, s) and M1^q + null_m, over Q and over Q(i)."""
    base = [ca.m1(q) for q in range(1, 5)]
    base += [ca.real_rigid(n, s) for n in range(2, 5) for s in range(1, n // 2 + 1)]
    base += [_m1_null(q, m) for q in range(1, 4) for m in (1, 2)]
    return base + [complexify(a) for a in base]


_BASIS_FAMILY = _basis_family()


@st.composite
def _unimodular(draw, n):
    """L U with L unit lower and U unit upper triangular, entries in -2..2."""
    def unit_triangular(lower):
        return Matrix([[1 if i == j else draw(st.integers(-2, 2)) if (i > j) == lower else 0
                        for j in range(n)] for i in range(n)])
    return unit_triangular(True) @ unit_triangular(False)


@settings(max_examples=20)
@given(data=st.data())
def test_idempotents_invariant_under_change_of_basis(data):
    a = data.draw(st.sampled_from(_BASIS_FAMILY))
    f = data.draw(_unimodular(a.dim))
    b = ca.change_basis(a, f)
    want = find_idempotents(a)
    got = [f.apply(e) for e in find_idempotents(b)]
    assert len(got) == len(want) and set(got) == set(want)
    dec_a, dec_b = orthogonal_decomposition(a), orthogonal_decomposition(b)
    assert sorted(c.dim for c in dec_b.components) == sorted(c.dim for c in dec_a.components)
    assert dec_b.nil_residual.dim == dec_a.nil_residual.dim


@st.composite
def _dense_basis(draw, n, field):
    """L U with L unit lower triangular and U upper triangular with a nonzero
    diagonal, entries rational (Gaussian over Q(i)) with denominators 2 and 3,
    so that the new table has denominators."""
    part = st.builds(F, st.integers(-3, 3), st.sampled_from((2, 3)))
    entry = part if field == ca.Q else st.builds(GaussianRational, part, part)
    nonzero = entry.filter(bool)

    def triangular(lower):
        return Matrix([[(1 if lower else draw(nonzero)) if i == j
                        else draw(entry) if (i > j) == lower else 0
                        for j in range(n)] for i in range(n)])
    return triangular(True) @ triangular(False)


@settings(max_examples=40)
@given(data=st.data())
def test_primitive_idempotents_match_the_field_scalar_route(data):
    # The integral route (D theta, monic integer relations, one denominator per
    # idempotent) against the field-scalar route it replaced: the same
    # idempotents with the same scalar types, in the same order.  Dense
    # rational bases give tables with denominators, so D > 1.
    a = data.draw(st.sampled_from(_BASIS_FAMILY))
    kind = data.draw(st.sampled_from(("unimodular", "dense", "gaussian")))
    if kind == "unimodular":
        f = data.draw(_unimodular(a.dim))
    else:
        f = data.draw(_dense_basis(a.dim, ca.QI if kind == "gaussian" and a.field == ca.QI else ca.Q))
    b = ca.change_basis(a, f)
    assert repr(structure._primitive_idempotents(b)) == repr(primitive_idempotents_oracle(b))


def test_primitive_idempotents_keep_the_order_of_the_unscaled_relation():
    # D theta has the roots of theta times D = 3 and 6 here; the factors keep
    # the order of theta's own relation, which these bases would reverse
    for a, f in ((ca.m1(2), [[4, 0], [F(1, 3), 2]]),
                 (ca.m1(3), [[3, -1, 0], [0, 2, F(-3, 2)], [F(-3, 2), 0, 5]])):
        b = ca.change_basis(a, Matrix(f))
        assert repr(structure._primitive_idempotents(b)) == repr(primitive_idempotents_oracle(b))


def test_relation_is_integral():
    # Gauss's lemma: L_(D theta) is integral, so the relation p of D theta is
    # monic over Z, over Z[i] for Q(i): ints over Q, and over Q(i) ints or
    # Gaussian triples with d = 1, which have imaginary parts only when the
    # table does.  Dense bases have denominators; D clears them.
    rng = random.Random(17)
    complex_parts = 0
    for a in _BASIS_FAMILY + [_complex_basis_m1_3()]:
        dense = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) + int(i == j) * 5
                         for j in range(a.dim)] for i in range(a.dim)])
        for b in (a, ca.change_basis(a, unimodular_twist(a.dim, 3)), ca.change_basis(a, dense)):
            one = ca.scalars.one(b.field)
            _powers, p, _s = structure._relation(b, tuple(one * 2 ** k for k in range(b.dim)))
            assert p[-1] == 1, b
            if b.field == ca.Q:
                assert all(type(c) is int for c in p), (b, p)
            else:
                assert all(type(c) in (int, GaussianRational) and ca.scalars._parts(c)[2] == 1
                           for c in p), (b, p)
                complex_parts += any(ca.scalars._parts(c)[1] for c in p)
    assert complex_parts >= 1


def test_find_idempotents_rejects_a_candidate_missing_from_the_lattice(monkeypatch):
    a = ca.m1(3)
    full = structure._primitive_idempotents(a)
    monkeypatch.setattr(structure, "_primitive_idempotents", lambda alg: full[1:])
    assert len(find_idempotents(a)) == 3  # the truncated lattice alone is not caught
    with pytest.raises(AssertionError):
        find_idempotents(a, candidates=[full[0]])
