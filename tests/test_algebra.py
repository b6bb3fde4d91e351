import random
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import currentalg as ca
from currentalg import scalars
from currentalg import (
    Algebra,
    AlgebraError,
    GaussianRational,
    IdentityError,
    Matrix,
    ScalarError,
    change_basis,
    check_identities,
    complexify,
    derivations,
    direct_sum,
    is_derivation,
    require_identities,
)
from currentalg.io import emit_algebra

from conftest import (
    bases,
    catalog_assoc_algebras,
    catalog_lie_algebras,
    change_basis_oracle,
    dense_products,
    derivation_oracle,
    direct_sum_oracle,
    multiply_oracle,
    oracle_corpus,
    rand_invertible,
    random_algebras,
    scaled_corpus,
    spelled_tables,
    typed_terms,
    vectors,
)

F = Fraction


def test_multiply_examples():
    g = ca.r2()
    assert g.multiply((1, 0), (0, 1)) == (F(0), F(1))  # [X1,X2] = X2
    assert g.multiply((1, 1), (0, 0)) == (F(0), F(0))
    a = ca.m1(2)
    assert a.multiply((1, 1), (1, 0)) == (F(1), F(0))  # (e1+e2) e1 = e1


def test_multiply_symmetry_classes():
    for g in catalog_lie_algebras():
        for i in range(1, g.dim + 1):
            for j in range(1, g.dim + 1):
                lhs = g.multiply(g.basis_vector(i), g.basis_vector(j))
                rhs = g.multiply(g.basis_vector(j), g.basis_vector(i))
                assert lhs == tuple(-x for x in rhs)
    for a in catalog_assoc_algebras():
        for i in range(1, a.dim + 1):
            for j in range(1, a.dim + 1):
                assert a.multiply(a.basis_vector(i), a.basis_vector(j)) == \
                    a.multiply(a.basis_vector(j), a.basis_vector(i))


def test_multiply_dimension_mismatch():
    with pytest.raises(AlgebraError):
        ca.r2().multiply((1, 0, 0), (0, 1))


def test_check_identities_catalog():
    for alg in catalog_lie_algebras() + catalog_assoc_algebras():
        report = check_identities(alg)
        assert report.passed, (alg.name, report.violations)
        assert report.violations == ()


def test_check_identities_corrupt_witness():
    bad = Algebra("bad", ca.LIE, ca.Q, 3,
                  {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    report = check_identities(bad)
    assert not report.passed
    assert report.violations == ((1, 2, 3, 2),)


def _identity_violations_oracle(alg):
    """Residual loops through products of basis vectors, read through ``basis_product``."""
    n = alg.dim
    e = [None] + [tuple(F(int(k == i)) for k in range(1, n + 1)) for i in range(1, n + 1)]
    violations = []
    if alg.kind == ca.LIE:
        for i, j, k in combinations(range(1, n + 1), 3):
            terms = [multiply_oracle(alg, alg.basis_product(a, b), e[c])
                     for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
            jac = [x + y + z for x, y, z in zip(*terms)]
            violations.extend((i, j, k, s) for s, c in enumerate(jac, 1) if c != 0)
    else:
        for i, j, k in product(range(1, n + 1), repeat=3):
            assoc = [x - y for x, y in zip(
                multiply_oracle(alg, alg.basis_product(i, j), e[k]),
                multiply_oracle(alg, e[i], alg.basis_product(j, k)))]
            violations.extend((i, j, k, s) for s, c in enumerate(assoc, 1) if c != 0)
    return tuple(violations)


def test_check_identities_matches_table_oracle():
    corrupt = 0
    for alg in oracle_corpus(ca.LIE) + oracle_corpus(ca.ASSOC_COMM):
        want = _identity_violations_oracle(alg)
        report = check_identities(alg)
        assert report.violations == want, alg
        assert report.passed == (not want)
        corrupt += bool(want)
    assert corrupt == 6  # m1_2_corrupt, r2_corrupt3: canonical, twisted, over Q(i)


def test_left_mult_matrix_matches_table_oracle():
    rng = random.Random(3)
    for alg in oracle_corpus(ca.LIE) + oracle_corpus(ca.ASSOC_COMM):
        a = tuple(F(rng.randint(-2, 2)) for _ in range(alg.dim))
        cols = [multiply_oracle(alg, a, tuple(F(int(k == j)) for k in range(alg.dim)))
                for j in range(alg.dim)]
        assert alg.left_mult_matrix(a) == Matrix.from_columns(cols), alg
    with pytest.raises(AlgebraError):
        ca.r2().left_mult_matrix((1, 0, 0))


def test_construction_rules():
    with pytest.raises(AlgebraError):  # nonzero diagonal bracket
        Algebra("x", ca.LIE, ca.Q, 2, {(1, 1): (1, 0)})
    with pytest.raises(AlgebraError):  # inconsistent duplicate
        Algebra("x", ca.LIE, ca.Q, 2, {(1, 2): (0, 1), (2, 1): (0, 1)})
    # consistent antisymmetric duplicate is fine
    g = Algebra("x", ca.LIE, ca.Q, 2, [((1, 2), (0, 1)), ((2, 1), (0, -1))])
    assert g == ca.r2()
    # assoc-comm stores symmetrically
    a = Algebra("y", ca.ASSOC_COMM, ca.Q, 2, [((2, 1), (1, 0))])
    assert a.basis_product(1, 2) == (F(1), F(0))


def test_change_basis_examples():
    g = ca.r2()
    assert change_basis(g, Matrix.identity(2)) == g
    for c in (F(2), F(-1, 3), F(7)):
        f = Matrix([[1, 0], [0, c]])
        assert change_basis(g, f) == g
    with pytest.raises(ca.SingularMatrixError):
        change_basis(g, Matrix([[1, 1], [1, 1]]))


def test_change_basis_round_trip_random():
    rng = random.Random(23)
    for alg in [ca.r2(), ca.heisenberg(3), ca.sl2(), ca.abelian(2),
                ca.t_oplus_a(3, 1)]:
        if alg.dim > 6:
            continue
        f = rand_invertible(rng, alg.dim)
        assert change_basis(change_basis(alg, f), ca.inverse(f)) == alg


def test_direct_sum_examples():
    g = direct_sum(ca.r2(), ca.r2())
    assert g.dim == 4
    assert g.basis_product(1, 2) == (F(0), F(1), F(0), F(0))
    assert g.basis_product(3, 4) == (F(0), F(0), F(0), F(1))
    assert g.basis_product(1, 3) == (F(0),) * 4
    assert direct_sum(ca.m1(1), ca.m1(1)) == ca.m1(2)
    assert direct_sum(ca.abelian(1), ca.abelian(2)) == ca.abelian(3)
    with pytest.raises(AlgebraError):
        direct_sum(ca.r2(), ca.m1(2))


def test_complexify():
    a = complexify(ca.m1(2))
    assert a.field == ca.QI
    assert a.dim == 2
    assert a.basis_product(1, 1) == (GaussianRational(1), GaussianRational(0))
    with pytest.raises(AlgebraError):
        complexify(a)
    assert check_identities(complexify(ca.r2())).passed


def test_complexify_preserves_identity_outcomes():
    bad = Algebra("bad", ca.LIE, ca.Q, 3,
                  {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    assert not check_identities(complexify(bad)).passed
    for alg in catalog_lie_algebras() + catalog_assoc_algebras():
        assert check_identities(complexify(alg)).passed


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_basis_product_returns_the_given_table(field, kind, data):
    # The one check that the tensor holds the constructor input: the
    # "stored table" oracles of conftest.py read basis_product.
    n, table, spelled = data.draw(spelled_tables(field, kind))
    alg = Algebra("t", kind, field, n, spelled)
    scalar = Fraction if field == ca.Q else GaussianRational
    for i, j in product(range(1, n + 1), repeat=2):
        if (i, j) in table:
            want = table[(i, j)]
        elif (j, i) in table:
            want = tuple(-x if kind == ca.LIE else x for x in table[(j, i)])
        else:
            want = (0,) * n
        got = alg.basis_product(i, j)
        assert got == scalars.coerce_vector(field, want), (i, j)
        assert all(type(x) is scalar for x in got)


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_direct_sum_matches_dense_oracle(field, kind, data):
    # direct_sum moves b's tensor up by a.dim; the oracle pads dense vectors
    # and goes through the public constructor.  Same constants, same hash, the
    # same normal form term by term, and the identities hold exactly when
    # they hold on both summands (so the pass that direct_sum hands on is sound).
    a, b = data.draw(random_algebras(kind, field)), data.draw(random_algebras(kind, field))
    total, want = direct_sum(a, b), direct_sum_oracle(a, b)
    assert total == want and hash(total) == hash(want)
    assert typed_terms(total) == typed_terms(want)
    assert repr(total) == repr(want)
    assert check_identities(total).passed == (check_identities(a).passed
                                              and check_identities(b).passed)


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@given(data=st.data())
def test_complexify_matches_the_constructor(kind, data):
    # complexify reads each term in Q(i); the public constructor, given the
    # same dense table over Q(i), stores the same values and types.
    alg = data.draw(random_algebras(kind, ca.Q))
    wide = complexify(alg)
    want = Algebra(alg.name, kind, ca.QI, alg.dim, dense_products(alg))
    assert wide == want and hash(wide) == hash(want)
    assert typed_terms(wide) == typed_terms(want)


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_multiply_matches_the_dense_loop(field, kind, data):
    # multiply sums x_i y_j c_ij^k over the pairs that have a product; the
    # oracle loops over every basis pair through basis_product.  Same values,
    # each a field scalar, for sparse and dense vectors, in the drawn basis
    # and in a unimodular or dense change of it.
    alg = data.draw(random_algebras(kind, field))
    shape = data.draw(st.sampled_from((None, "unimodular", "dense")))
    if shape:
        alg = change_basis(alg, data.draw(bases(field, alg.dim, shape)))
    x, y = data.draw(vectors(field, alg.dim)), data.draw(vectors(field, alg.dim))
    got, want = alg.multiply(x, y), multiply_oracle(alg, x, y)
    scalar = Fraction if field == ca.Q else GaussianRational
    assert got == want and [type(z) for z in got] == [scalar] * alg.dim


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_change_basis_matches_the_constructor(field, kind, data):
    # change_basis builds the tensor from products of sparse columns; the
    # oracle multiplies dense columns and goes through the public constructor.
    # Same constants, hash, repr, file text and normal form term by term; a
    # Gaussian basis of an algebra over Q raises on both.
    alg = data.draw(random_algebras(kind, field))
    f = data.draw(bases(field, alg.dim, data.draw(
        st.sampled_from(("unimodular", "gaussian", "dense")))))
    try:
        want = change_basis_oracle(alg, f)
    except ScalarError:
        with pytest.raises(ScalarError, match="imaginary"):
            change_basis(alg, f)
        return
    got = change_basis(alg, f)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and emit_algebra(got) == emit_algebra(want)
    assert typed_terms(got) == typed_terms(want)


def test_change_basis_reads_the_basis_in_the_field():
    # A basis with an imaginary entry raises over Q, even when every product
    # it forms vanishes; one with real Gaussian entries gives constants over Q.
    i = GaussianRational(0, 1)
    for alg in (ca.sl2(), ca.abelian(2), ca.m1(2), ca.r2()):
        n = alg.dim
        f = Matrix([[i if r == c == 0 else int(r == c) for c in range(n)] for r in range(n)])
        with pytest.raises(ScalarError, match="imaginary"):
            change_basis(alg, f)
        assert change_basis(complexify(alg), f) == change_basis_oracle(complexify(alg), f)
        real = Matrix([[GaussianRational(r + 1) if r <= c else 0 for c in range(n)]
                       for r in range(n)])
        assert typed_terms(change_basis(alg, real)) == typed_terms(change_basis_oracle(alg, real))


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
@given(data=st.data())
def test_change_basis_hands_on_the_identity_pass(kind, data):
    # The identities do not depend on the basis: a table that fails them
    # still raises after change_basis, and one that has passed is not
    # checked again.
    alg = data.draw(random_algebras(kind, ca.Q))
    f = data.draw(bases(ca.Q, alg.dim, data.draw(st.sampled_from(("unimodular", "dense")))))
    passed = check_identities(alg).passed
    if passed:
        require_identities(alg)
    with mock.patch.object(ca.algebra, "check_identities", wraps=check_identities) as spy:
        moved = change_basis(alg, f)
        if passed:
            require_identities(moved)
        else:
            with pytest.raises(IdentityError):
                require_identities(moved)
    assert spy.call_count == (0 if passed else 1)
    assert check_identities(moved).passed == passed


def test_equality_ignores_name():
    assert Algebra("other", ca.LIE, ca.Q, 2, dense_products(ca.r2())) == ca.r2()
    assert ca.r2() != ca.abelian(2)


def test_complex_split_example():
    # columns u = (1/2, i/2), v = (1/2, -i/2) take complexified
    # real_rigid(2, 1) to the split table e1^2 = e1, e2^2 = e2, e1 e2 = 0
    ac = complexify(ca.real_rigid(2, 1))
    half = F(1, 2)
    p = Matrix.from_columns([
        (GaussianRational(half), GaussianRational(0, half)),
        (GaussianRational(half), GaussianRational(0, -half)),
    ])
    assert change_basis(ac, p) == complexify(ca.m1(2))


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
def test_is_derivation_matches_pair_oracle(kind):
    # Derivations, integer combinations of them and random integer operators
    # (mostly not derivations) over the scaled corpus, against the Leibniz
    # rule evaluated pair by pair through basis_product.
    rng = random.Random(71)
    verdicts = set()
    for alg in scaled_corpus(kind):
        n = alg.dim
        der = derivations(alg)
        for d in der:
            assert is_derivation(alg, d) and derivation_oracle(alg, d)
        flat = [0] * (n * n)
        for d in der:
            c = rng.randint(-2, 2)
            flat = [x + c * y for x, y in zip(flat, d.flatten())]
        combo = Matrix.from_flat(flat, n, n)
        randoms = [Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                   for _ in range(3)]
        for f in [combo] + randoms:
            verdict = is_derivation(alg, f)
            assert verdict == derivation_oracle(alg, f), (alg, f)
            verdicts.add(verdict)
        for shape in ((n + 1, n + 1), (n, n + 1)):
            with pytest.raises(AlgebraError, match="shape"):
                is_derivation(alg, Matrix([[0] * shape[1]] * shape[0]))
    assert verdicts == {True, False}
