import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import currentalg as ca
from currentalg import (
    AlgebraError,
    BulletProduct,
    ChevalleyCochain,
    DecomposableDelta,
    Matrix,
    Subspace,
    SymmetricCochain,
    bracket_cochain,
    chevalley_delta,
    chevalley_delta_matrix,
    chevalley_dims,
    derivation_space,
    derivations,
    h1_current_formula,
    harrison_h2,
    hochschild_delta1,
    hochschild_delta2,
    inner_derivations,
    multiplication_cochain,
)
from currentalg.cohomology import (_chevalley_dims, _left_mult_span, cochain_from_flat,
                                   cochain_to_flat)
from currentalg.io import parse_algebra_file

from conftest import (
    FIXTURES,
    P998,
    bullet_oracle,
    catalog_assoc_algebras,
    catalog_lie_algebras,
    chevalley_columns_oracle,
    decomposable_delta_oracle,
    hochschild_columns_oracle,
    lawful_algebras,
    left_mult_span_oracle,
    multiply_oracle,
    oracle_corpus,
    rand_chevalley,
    rand_chevalley2,
    rand_matrix,
    rand_symmetric,
    random_algebras,
    rank_mod_p,
    scaled_corpus,
    unimodular_twist,
    with_variants,
)

F = Fraction


def test_cochain_alternating_evaluation():
    c = ChevalleyCochain(2, 3, {(1, 2): (0, 0, 1)})
    assert c.value((2, 1)) == (F(0), F(0), F(-1))
    assert c.value((1, 1)) == (F(0),) * 3
    assert c.value((1, 3)) == (F(0),) * 3
    with pytest.raises(AlgebraError):
        ChevalleyCochain(2, 3, {(2, 1): (0, 0, 1)})
    with pytest.raises(ca.ScalarError):
        ChevalleyCochain(2, 3, {(1, 2): (0.5, 0, 0)})


def test_cochains_reject_inconsistent_duplicates():
    v, w = (1, 0, 0), (0, 1, 0)
    for items in ([((1, 2), v), ((1, 2), w)], [((1, 2), (0, 0, 0)), ((1, 2), w)],
                  [((1, 2), w), ((1, 2), (0, 0, 0))]):
        with pytest.raises(AlgebraError, match="inconsistent duplicate"):
            ChevalleyCochain(2, 3, items)
    for items in ([((1, 2), (0, 0)), ((2, 1), (1, 0))], [((2, 1), (1, 0)), ((1, 2), (0, 0))]):
        with pytest.raises(AlgebraError, match="inconsistent duplicate"):
            SymmetricCochain(2, items)
    # a repeated equal value is one entry, as in Algebra
    assert ChevalleyCochain(2, 3, [((1, 2), v), ((1, 2), v)]).data == {(1, 2): (1, 0, 0)}
    assert SymmetricCochain(2, [((1, 2), (0, 1)), ((2, 1), (0, 1))]).data == {(1, 2): (0, 1)}


def test_cochains_check_their_index_rules():
    # each class keeps its own index rule; the length check is shared
    for args, needle in (((2, 3, {(1,): (0, 0, 1)}), "wrong arity"),
                         ((2, 3, {(1, 4): (0, 0, 1)}), r"tuple \(1, 4\) out of range 1\.\.3"),
                         ((2, 3, {(2, 2): (0, 0, 1)}), "strictly increasing"),
                         ((2, 3, {(1, 2): (0, 1)}), "algebra dimension"),
                         ((2, 3, {(1.5, 2): (1, 0, 0)}), r"tuple \(1\.5, 2\) out of range"),
                         ((-1, 3, {}), "degree -1 is not an integer >= 0")):
        with pytest.raises(AlgebraError, match=needle):
            ChevalleyCochain(*args)
    for args, needle in (((2, {(1, 3): (0, 1)}), r"pair \(1, 3\) out of range 1\.\.2"),
                         ((2, {(0, 1): (0, 1)}), r"pair \(0, 1\) out of range"),
                         ((2, {(1.5, 2): (1, 0)}), r"pair \(1\.5, 2\) out of range"),
                         ((2, {(1, 2): (0, 1, 0)}), "algebra dimension")):
        with pytest.raises(AlgebraError, match=needle):
            SymmetricCochain(*args)
    assert SymmetricCochain(2, {(2, 1): (0, 1), (2, 2): (1, 0), (1, 1): (0, 0)}).data == \
        {(1, 2): (0, 1), (2, 2): (1, 0)}


def test_symmetric_cochains_compare_by_value():
    a = SymmetricCochain(2, {(1, 2): (0, 1), (2, 2): (1, 0)})
    assert a == SymmetricCochain(2, {(2, 1): (0, 1), (2, 2): (1, 0), (1, 1): (0, 0)})
    assert a == SymmetricCochain(2, [((2, 2), (F(1), F(0))), ((1, 2), (0, 1))])
    assert a != SymmetricCochain(2, {(1, 2): (0, 1), (2, 2): (1, 1)})
    assert a != SymmetricCochain(2, {(1, 1): (0, 1), (2, 2): (1, 0)})
    assert SymmetricCochain(2) != SymmetricCochain(3)
    assert SymmetricCochain(2) == SymmetricCochain.zero(2)
    assert a != ChevalleyCochain(2, 2, {(1, 2): (0, 1)})
    A = ca.m1(2)
    assert multiplication_cochain(A) == multiplication_cochain(ca.m1(2))
    assert multiplication_cochain(A) != multiplication_cochain(ca.null_algebra(2))
    f = rand_matrix(random.Random(3), 2)
    assert hochschild_delta1(A, f) == hochschild_delta1(A, f)
    assert hochschild_delta1(A, f) != hochschild_delta1(A, Matrix.identity(2) - f)


def test_delta_on_abelian_vanishes():
    rng = random.Random(2)
    g = ca.abelian(3)
    for degree in (0, 1, 2):
        c = rand_chevalley(rng, 3, degree)
        assert chevalley_delta(g, c).is_zero()


def test_delta_degree1_example():
    # f(X1) = 0, f(X2) = X1 is not a derivation of r2:
    # df(X1,X2) = [X1, f X2] - [X2, f X1] - f([X1,X2]) = -X1
    g = ca.r2()
    f = ChevalleyCochain(1, 2, {(2,): (1, 0)})
    d = chevalley_delta(g, f)
    assert d.value((1, 2)) == (F(-1), F(0))
    assert not d.is_zero()


def test_delta_squared_zero_random():
    rng = random.Random(31)
    algebras = [g for g in catalog_lie_algebras() if g.dim <= 6]
    for g in algebras:
        for degree in range(max(2, g.dim - 1)):
            for _ in range(4):
                c = rand_chevalley(rng, g.dim, degree)
                assert chevalley_delta(g, chevalley_delta(g, c)).is_zero()


def test_chevalley_dims_examples():
    assert chevalley_dims(ca.r2(), 2) == ca.CohomologyDims(2, 2, 0)
    assert chevalley_dims(ca.abelian(2), 2) == ca.CohomologyDims(2, 0, 2)
    assert chevalley_dims(ca.sl2(), 2).dim_H == 0
    assert chevalley_dims(ca.sl2(), 1).dim_H == 0
    with pytest.raises(AlgebraError):
        chevalley_dims(ca.m1(2), 2)


def test_chevalley_dims_in_every_degree_examples():
    # h^0 .. h^n, then 0 at k = n + 1; h^0 is the center
    cases = [(ca.heisenberg(3), (1, 4, 5, 2)),
             (ca.heisenberg(5), (1, 11, 20, 21, 15, 4)),
             (ca.current_algebra(ca.r2(), ca.null_algebra(2)), (4, 16, 24, 16, 4)),
             (ca.current_algebra(ca.sl2(), ca.null_algebra(1)), (3, 9, 9, 3)),
             (ca.current_algebra(ca.heisenberg(3), ca.null_algebra(1)), (3, 9, 9, 3)),
             (ca.abelian(2), (2, 4, 2)),
             (ca.abelian(1), (1, 1))]
    cases += [(g, (0,) * (g.dim + 1)) for g in (
        ca.r2(), ca.sl2(), ca.t_oplus_a(2, 1), ca.current_algebra(ca.r2(), ca.m1(2)))]
    for g, want in cases:
        assert tuple(chevalley_dims(g, k).dim_H for k in range(g.dim + 2)) == want + (0,), g
        assert chevalley_dims(g, g.dim + 1) == ca.CohomologyDims(0, 0, 0)
    for k in (-1, 5, 2.5):
        with pytest.raises(AlgebraError, match=r"chevalley_dims takes k in 0\.\.4, not "):
            chevalley_dims(ca.sl2(), k)
    with pytest.raises(AlgebraError, match="degree -1 is not an integer >= 0"):
        chevalley_delta_matrix(ca.sl2(), -1)


def test_chevalley_dims_in_every_degree_have_euler_characteristic_zero():
    # sum_k (-1)^k h^k = sum_k (-1)^k dim C^k = n (1 - 1)^n = 0; the complex
    # ranked once gives each degree as chevalley_dims gives it alone
    for g in scaled_corpus(ca.LIE):
        if not ca.check_identities(g).passed:
            continue
        dims = _chevalley_dims(g, g.dim)[0]
        assert sum((-1) ** k * d.dim_H for k, d in enumerate(dims)) == 0, g
        assert dims == [chevalley_dims(g, k) for k in range(g.dim + 1)], g


def test_derivations_examples():
    for q in (1, 2, 3, 4):
        assert derivations(ca.m1(q)) == []
    assert len(derivations(ca.r2())) == 2
    for q in (1, 2, 3):
        flat = ca.current_algebra(ca.r2(), ca.m1(q))
        assert len(derivations(flat)) == 2 * q


def test_derivations_satisfy_leibniz():
    for alg in catalog_lie_algebras() + catalog_assoc_algebras():
        for d in derivations(alg):
            assert ca.is_derivation(alg, d)


def test_derivations_equal_z1():
    # Z^1 from the coboundary-matrix route; cochain flat layout is
    # (argument, coordinate) so the operator matrix is the transpose.
    for g in catalog_lie_algebras():
        if g.dim > 6:
            continue
        z1 = [Matrix.from_flat(v, g.dim, g.dim).transpose()
              for v in ca.kernel_basis(chevalley_delta_matrix(g, 1))]
        lhs = Subspace(g.dim ** 2, [m.flatten() for m in z1])
        assert lhs == derivation_space(g)


@st.composite
def _gaussian_unimodular(draw, n):
    """L U with L unit lower and U unit upper bidiagonal (the shape of
    ``unimodular_twist``), off-diagonal entries a + bi with a, b in -1..1."""
    def unit_bidiagonal(lower):
        return Matrix([[1 if i == j else
                        ca.GaussianRational(draw(st.integers(-1, 1)), draw(st.integers(-1, 1)))
                        if i - j == (1 if lower else -1) else 0 for j in range(n)]
                       for i in range(n)])
    return unit_bidiagonal(True) @ unit_bidiagonal(False)


def _composite_is_zero(hi, lo) -> bool:
    """hi . lo = 0 for sparse operators: every row of hi times lo vanishes."""
    for row in hi.sparse_rows:
        acc = {}
        for c, x in row.items():
            for k, y in lo.sparse_rows[c].items():
                acc[k] = acc.get(k, 0) + x * y
        if any(acc.values()):
            return False
    return True


@settings(max_examples=16)
@given(data=st.data())
def test_qi_twisted_catalog_properties(data):
    # A complexified catalog Lie algebra in a random Gaussian unimodular basis:
    # d.d = 0 in degrees 0 and 1, Z^1 = Der, and the fingerprint of the
    # untwisted complexification.
    g = ca.complexify(data.draw(st.sampled_from(
        [g for g in catalog_lie_algebras() if g.dim <= 6])))
    h = ca.change_basis(g, data.draw(_gaussian_unimodular(g.dim)))
    d0, d1, d2 = (chevalley_delta_matrix(h, k) for k in range(3))
    assert _composite_is_zero(d1, d0) and _composite_is_zero(d2, d1)
    z1 = [Matrix.from_flat(v, h.dim, h.dim).transpose() for v in ca.kernel_basis(d1)]
    assert Subspace(h.dim ** 2, [m.flatten() for m in z1]) == derivation_space(h)
    assert ca.fingerprint(h) == ca.fingerprint(g)


@pytest.mark.parametrize("g", [ca.current_algebra(ca.r2(), ca.m1(2)), ca.sl2(), ca.t_oplus_a(2, 1)],
                         ids=["r2 (x) M1^2", "sl2", "t_oplus_a(2,1)"])
@settings(max_examples=3)
@given(data=st.data())
def test_qi_twisted_h2_zero_by_rank_mod_p(g, data):
    # Over Q(i) in a Gaussian bidiagonal basis, with i -> sqrt(-1) mod p:
    # rank_p <= rank and d2 d1 = 0, so rank_p d1 + rank_p d2 = dim C2 proves
    # H2 = 0 and both exact ranks without the kernel.
    g = ca.complexify(g)
    h = ca.change_basis(g, data.draw(_gaussian_unimodular(g.dim)))
    d1, d2 = chevalley_delta_matrix(h, 1), chevalley_delta_matrix(h, 2)
    assert _composite_is_zero(d2, d1)
    r1, r2 = rank_mod_p(d1.sparse_rows, P998), rank_mod_p(d2.sparse_rows, P998)
    assert r1 + r2 == d2.ncols
    assert (ca.rank(d1), ca.rank(d2)) == (r1, r2)


def test_inner_derivations_dims():
    assert inner_derivations(ca.r2()).dim == 2
    assert inner_derivations(ca.abelian(3)).dim == 0
    assert inner_derivations(ca.heisenberg(3)).dim == 2
    for g in catalog_lie_algebras():
        assert inner_derivations(g).dim == g.dim - ca.center(g).dim


@settings(max_examples=40)
@given(data=st.data(), field=st.sampled_from([ca.Q, ca.QI]))
def test_left_mult_span_matches_dense_oracle(data, field):
    # the span read off the tensor in one pass against n dense flattened L_{e_i}
    for kind in (ca.LIE, ca.ASSOC_COMM):
        alg = data.draw(st.one_of(lawful_algebras(kind, field), random_algebras(kind, field)))
        span = left_mult_span_oracle(alg)
        assert _left_mult_span(alg) == span
        if kind == ca.LIE:
            assert inner_derivations(alg) == span


def test_inner_derivations_are_derivations():
    for g in catalog_lie_algebras():
        der = derivation_space(g)
        for v in inner_derivations(g).basis:
            assert der.contains(v)


def test_derivation_linearized_identity():
    # mu(f(a), b) + mu(a, f(b)) = 2 * (f(ab) + f(ba))/2 = Leibniz, asserted
    # on all basis pairs for every derivation of every catalog algebra.
    for A in catalog_assoc_algebras():
        for f in derivations(A):
            for i in range(1, A.dim + 1):
                for j in range(1, A.dim + 1):
                    ei, ej = A.basis_vector(i), A.basis_vector(j)
                    lhs = tuple(
                        x + y for x, y in zip(
                            A.multiply(f.apply(ei), ej),
                            A.multiply(ei, f.apply(ej))))
                    fab = f.apply(A.basis_product(i, j))
                    assert lhs == tuple(2 * x for x in fab)


def test_derivation_kills_unit():
    for A in catalog_assoc_algebras():
        u = ca.find_unit(A)
        if u is None:
            continue
        for f in derivations(A):
            assert all(c == 0 for c in f.apply(u))


@pytest.mark.parametrize("field", [ca.Q, ca.QI])
def test_coboundary_values_are_field_scalars(field):
    # Matrix.apply starts each coordinate at the Fraction zero; the
    # coboundaries hand back every value in the algebra's field, as
    # basis_product does, so no Fraction sits beside a Gaussian value.
    scalar = F if field == ca.Q else ca.GaussianRational
    rng = random.Random(29)
    lift = (lambda a: a) if field == ca.Q else ca.complexify
    g, A = lift(ca.sl2()), lift(ca.real_rigid(3, 1))
    cochains = [ChevalleyCochain(2, 3, {(1, 2): (ca.GaussianRational(0, 1), 0, 0)})] * (
        field == ca.QI)
    cochains += [rand_chevalley(rng, 3, degree) for degree in (0, 1, 2) for _ in range(3)]
    values = [x for c in cochains for v in chevalley_delta(g, c).data.values() for x in v]
    for _ in range(3):
        values += [x for v in hochschild_delta1(A, rand_matrix(rng, 3)).data.values() for x in v]
        values += [x for v in hochschild_delta2(A, rand_symmetric(rng, 3)).values() for x in v]
    assert values and all(type(x) is scalar for x in values)


def test_hochschild_delta_squared_zero():
    rng = random.Random(13)
    for A in catalog_assoc_algebras():
        if A.dim > 4:
            continue
        for _ in range(4):
            f = rand_matrix(rng, A.dim, 2)
            d2 = hochschild_delta2(A, hochschild_delta1(A, f))
            assert d2 == {}


def test_harrison_examples():
    assert harrison_h2(ca.m1(1)).dim_H == 0
    for q in (2, 3, 4):
        assert harrison_h2(ca.m1(q)).dim_H == 0
    dims = harrison_h2(ca.null_algebra(1))
    assert (dims.dim_Z, dims.dim_B, dims.dim_H) == (1, 0, 1)
    assert harrison_h2(ca.real_rigid(2, 1)).dim_H == 0


def test_delta_decomposable_bracket_times_mult_vanishes():
    g, A = ca.r2(), ca.m1(1)
    ev = DecomposableDelta(
        g, A, bracket_cochain(g), multiplication_cochain(A),
        SymmetricCochain.zero(g.dim), SymmetricCochain.zero(A.dim))
    assert ev.is_zero_on_basis()


def test_delta_decomposable_abelian_vanishes():
    rng = random.Random(19)
    g, A = ca.abelian(2), ca.m1(2)
    for _ in range(5):
        ev = DecomposableDelta(
            g, A, rand_chevalley(rng, 2, 2), rand_symmetric(rng, 2),
            rand_symmetric(rng, 2), rand_symmetric(rng, 2))
        assert ev.is_zero_on_basis()


def test_delta_decomposable_unit_specialization_detects_cocycles():
    # with phi2 = mu2 and phi3 = psi4 = 0 over a unital A, a vanishing
    # expression forces psi1 into Z^2 (phi2(1,1) = unit != 0); over
    # heisenberg(3) (x) M1^1 both outcomes actually occur.
    rng = random.Random(23)
    g, A = ca.r2(), ca.m1(2)
    mu2 = multiplication_cochain(A)
    unit = ca.find_unit(A)
    assert any(c != 0 for c in A.multiply(unit, unit))
    z2_flat = ca.kernel_basis(chevalley_delta_matrix(g, 2))
    for v in z2_flat:
        psi1 = cochain_from_flat(2, 2, v)
        ev = DecomposableDelta(g, A, psi1, mu2,
                               SymmetricCochain.zero(2),
                               SymmetricCochain.zero(2))
        assert ev.is_zero_on_basis()
        assert chevalley_delta(g, psi1).is_zero()

    h, A1 = ca.heisenberg(3), ca.m1(1)
    mu2 = multiplication_cochain(A1)
    known_bad = ChevalleyCochain(2, 3, {(1, 3): (1, 0, 0)})
    outcomes = set()
    for psi1 in [rand_chevalley(rng, 3, 2) for _ in range(12)] + [known_bad]:
        ev = DecomposableDelta(h, A1, psi1, mu2,
                               SymmetricCochain.zero(3),
                               SymmetricCochain.zero(1))
        is_cocycle = chevalley_delta(h, psi1).is_zero()
        assert ev.is_zero_on_basis() == is_cocycle
        outcomes.add(is_cocycle)
    assert False in outcomes


def test_bullet_examples():
    A1 = ca.m1(1)
    b = BulletProduct(A1, multiplication_cochain(A1))
    assert b.evaluate(1, 1, 1) == (F(3),)
    assert BulletProduct(A1, SymmetricCochain.zero(1)).is_zero_on_basis()
    A2 = ca.m1(2)
    psi4 = SymmetricCochain(2, {(1, 1): (0, 1)})
    assert BulletProduct(A2, psi4).evaluate(1, 1, 1) == (F(0), F(0))


def test_bullet_reduction_identity():
    # expression(X,X,X; a1,a2,a3) = mu1(phi3(X,X),X) (x) bullet(a1,a2,a3)
    rng = random.Random(29)
    g, A = ca.r2(), ca.m1(2)
    for _ in range(10):
        psi1 = rand_chevalley(rng, 2, 2)
        phi2 = rand_symmetric(rng, 2)
        phi3 = rand_symmetric(rng, 2)
        psi4 = rand_symmetric(rng, 2)
        ev = DecomposableDelta(g, A, psi1, phi2, phi3, psi4)
        bmap = BulletProduct(A, psi4)
        for x in range(1, 3):
            ex = g.basis_vector(x)
            left_factor = g.multiply(phi3.value(x, x), ex)
            for a1 in range(1, 3):
                for a2 in range(1, 3):
                    for a3 in range(1, 3):
                        expected = tuple(
                            lx * by for lx in left_factor
                            for by in bmap.evaluate(a1, a2, a3))
                        assert ev.evaluate((x, x, x), (a1, a2, a3)) == expected


# Four pairs with a non-abelian g, nil parts included (null2, M1^1 + null1).
_DECOMPOSABLE_PAIRS = [
    (ca.r2(), ca.m1(2)), (ca.sl2(), ca.m1(2)), (ca.heisenberg(3), ca.null_algebra(2)),
    (ca.r2(), ca.direct_sum(ca.m1(1), ca.null_algebra(1))),
]


def test_decomposable_evaluators_match_verbatim_oracles():
    # Every basis triple pair, values and scalar types, over Q and Q(i).
    rng = random.Random(31)
    pairs = _DECOMPOSABLE_PAIRS + [(ca.abelian(2), ca.m1(2))]
    pairs += [(ca.complexify(g), ca.complexify(A)) for g, A in pairs]
    evaluations = 0
    for _ in range(9):
        for g, A in pairs:
            p, q = g.dim, A.dim
            cochains = (rand_chevalley(rng, p, 2), rand_symmetric(rng, q),
                        rand_symmetric(rng, p), rand_symmetric(rng, q))
            ev = DecomposableDelta(g, A, *cochains)
            for gt in product(range(1, p + 1), repeat=3):
                for at in product(range(1, q + 1), repeat=3):
                    got = ev.evaluate(gt, at)
                    want = decomposable_delta_oracle(g, A, *cochains, gt, at)
                    assert got == want
                    assert [type(x) for x in got] == [type(x) for x in want]
                    evaluations += 1
            bmap = BulletProduct(A, cochains[3])
            for at in product(range(1, q + 1), repeat=3):
                got, want = bmap.evaluate(*at), bullet_oracle(A, cochains[3], at)
                assert got == want
                assert [type(x) for x in got] == [type(x) for x in want]
    assert evaluations >= 10 ** 4, evaluations


def test_decomposable_psi1_phi2_block_is_minus_the_flat_coboundary():
    # With phi3 = psi4 = 0, Psi = psi1 (x) phi2 is an alternating 2-cochain on
    # g (x) A and the expression is -d Psi at every increasing flat triple.
    rng = random.Random(37)
    pairs = _DECOMPOSABLE_PAIRS + [(ca.complexify(g), ca.complexify(A))
                                   for g, A in _DECOMPOSABLE_PAIRS]
    nonzero = 0
    for g, A in pairs:
        p, q = g.dim, A.dim
        psi1, phi2 = rand_chevalley(rng, p, 2), rand_symmetric(rng, q)
        ev = DecomposableDelta(g, A, psi1, phi2, SymmetricCochain.zero(p),
                               SymmetricCochain.zero(q))
        flat = ChevalleyCochain(2, p * q, {
            (u, v): tuple(x * y for x in psi1.value((i, j)) for y in phi2.value(a, b))
            for u, v in combinations(range(1, p * q + 1), 2)
            for (i, a), (j, b) in [(ca.unflat_index(u, q), ca.unflat_index(v, q))]})
        d = chevalley_delta(ca.current_algebra(g, A), flat)
        for triple in combinations(range(1, p * q + 1), 3):
            g_tuple, a_tuple = zip(*(ca.unflat_index(u, q) for u in triple))
            got = ev.evaluate(g_tuple, a_tuple)
            assert got == tuple(-x for x in d.value(triple))
            nonzero += any(got)
    assert nonzero >= 40, nonzero


def test_h1_formula_listed_pairs():
    cases = [
        (ca.r2(), ca.m1(1), 0),
        (ca.r2(), ca.m1(2), 0),
        (ca.r2(), ca.m1(3), 0),
        (ca.abelian(1), ca.m1(1), 1),
        (ca.abelian(2), ca.m1(2), 16),
    ]
    for g, A, expected in cases:
        rep = h1_current_formula(g, A)
        assert rep.matches, (g.name, A.name, rep)
        assert rep.lhs_dim == expected


def test_h1_formula_reports_known_mismatch():
    # the displayed sum double-counts f (x) id when g is abelian and A is
    # nil: both H^1(g) (x) A and Hom(g,g) (x) Der(A) contain it.  The
    # report exposes the discrepancy instead of hiding it.
    rep = h1_current_formula(ca.abelian(1), ca.null_algebra(1))
    assert rep.lhs_dim == 1
    assert rep.summand_dims == (1, 1, 0)
    assert rep.rhs_dim == 2
    assert not rep.matches


def test_h1_formula_more_pairs_match():
    for g, A in [(ca.r2(), ca.null_algebra(1)),
                 (ca.r2(), ca.real_rigid(2, 1)),
                 (ca.heisenberg(3), ca.m1(1)),
                 (ca.sl2(), ca.m1(2)),
                 (ca.abelian(2), ca.m1(1))]:
        if g.dim * A.dim > 8:
            continue
        rep = h1_current_formula(g, A)
        assert rep.matches, (g.name, A.name, rep)


def test_dimensions_invariant_under_scalar_extension():
    # Q-defined linear systems have field-independent ranks, so every
    # cohomology dimension survives complexification unchanged.
    for g in (ca.r2(), ca.heisenberg(3), ca.sl2()):
        gc = ca.complexify(g)
        for k in (1, 2):
            assert chevalley_dims(g, k) == chevalley_dims(gc, k)
        assert len(derivations(g)) == len(derivations(gc))
    for A in (ca.m1(2), ca.null_algebra(1), ca.real_rigid(2, 1)):
        assert harrison_h2(A) == harrison_h2(ca.complexify(A))


def test_cochain_flat_round_trip():
    rng = random.Random(37)
    for degree in (1, 2, 3):
        c = rand_chevalley(rng, 3, degree)
        assert cochain_from_flat(degree, 3, cochain_to_flat(c)) == c


# ---------------------------------------------------------------------------
# Independent oracle: coboundaries column by column on basis cochains, from
# the formulas and the products of basis_product (no tensor terms or
# multiply); the column oracles live in conftest.py
# ---------------------------------------------------------------------------

def _unit(n, s, c=1):
    return tuple(F(c) if k == s else F(0) for k in range(1, n + 1))


def test_chevalley_delta_matrix_matches_formula_oracle():
    # canonical, twisted, complexified and rational-scaled forms
    for g in scaled_corpus(ca.LIE):
        for k in (0, 1, 2):
            want = chevalley_columns_oracle(g, k)
            got = chevalley_delta_matrix(g, k)
            r, kernel = ca.rank(got), ca.kernel_basis(got)
            # compared after the elimination, which must leave its input as it was;
            # a map into the zero space has no rows and one column per source coordinate
            assert got.shape == (comb(g.dim, k + 1) * g.dim, comb(g.dim, k) * g.dim), (g, k)
            assert got == want and hash(got) == hash(want), (g, k)
            assert r == ca.rank(want) and kernel == ca.kernel_basis(want), (g, k)


def test_chevalley_delta_matrices_compose_to_zero():
    # d^(k+1) d^k = 0 as a product of Matrix objects in every degree, also at
    # and past the top of the complex, where a map into or out of the zero
    # space keeps its other side.
    lie = [g for g in oracle_corpus(ca.LIE) if ca.check_identities(g).passed]
    assert ca.abelian(1) in lie
    for g in lie:
        n = g.dim
        for k in range(n + 1):
            d = chevalley_delta_matrix(g, k + 1) @ chevalley_delta_matrix(g, k)
            assert d.shape == (comb(n, k + 2) * n, comb(n, k) * n), (g, k)
            assert d.is_zero(), (g, k)


def test_hochschild_deltas_match_formula_oracle():
    for A in oracle_corpus(ca.ASSOC_COMM):
        n = A.dim
        zero = (F(0),) * n
        for r, c in product(range(n), repeat=2):
            f = Matrix([[int((i, j) == (r, c)) for j in range(n)] for i in range(n)])
            d1 = hochschild_delta1(A, f)
            for i, j in combinations_with_replacement(range(1, n + 1), 2):
                ei, ej = _unit(n, i), _unit(n, j)
                expected = [x - y + z for x, y, z in zip(
                    multiply_oracle(A, ei, f.apply(ej)),
                    f.apply(A.basis_product(i, j)),
                    multiply_oracle(A, f.apply(ei), ej))]
                assert d1.value(i, j) == tuple(expected), (A, r, c, i, j)
        pairs = combinations_with_replacement(range(1, n + 1), 2)
        columns = hochschild_columns_oracle(A).columns()
        for ((a, b), s), expected in zip(product(pairs, range(1, n + 1)), columns):
            d2 = hochschild_delta2(A, SymmetricCochain(n, {(a, b): _unit(n, s)}))
            got = [x for ijk in product(range(1, n + 1), repeat=3) for x in d2.get(ijk, zero)]
            assert tuple(got) == expected, (A, a, b, s)


def test_infinitesimal_check_routes_agree_on_corpus():
    # infinitesimal_check raises if d(phi) and the Jacobiator coefficient
    # disagree; run it on seeded random 2-cochains over the oracle corpus.
    rng = random.Random(41)
    for g in oracle_corpus(ca.LIE):
        for _ in range(3):
            ca.infinitesimal_check(g, rand_chevalley2(rng, g.dim))


def _identity_failures():
    """The non-Lie 3-dim table, a corrupt Lie fixture and a corrupt assoc-comm one."""
    bad3 = ca.Algebra("bad3", ca.LIE, ca.Q, 3, {
        (1, 2): (-1, 1, 0), (1, 3): (1, 1, 1), (2, 3): (-1, -1, 1)})
    r2_corrupt = parse_algebra_file(FIXTURES / "r2_corrupt3.json")
    m1_corrupt = parse_algebra_file(FIXTURES / "m1_2_corrupt.json")
    return bad3, r2_corrupt, m1_corrupt


def test_dimensions_require_identities_on_every_call():
    # The ceilinged ranks are exact only when d o d = 0, so a table that
    # fails its identities raises instead of giving numbers, every time,
    # also after a change of basis or a complexification.
    algebras = with_variants(_identity_failures())
    calls = [lambda g=g, k=k: chevalley_dims(g, k) for g in algebras if g.kind == ca.LIE
             for k in (1, 2)]
    calls += [lambda A=A: harrison_h2(A) for A in algebras if A.kind == ca.ASSOC_COMM]
    assert len(calls) == 2 * 6 + 3
    for call in calls:
        for _ in range(2):
            with pytest.raises(ca.IdentityError, match="first"):
                call()


def test_identity_check_runs_once_per_algebra(monkeypatch):
    seen = []
    check = ca.algebra.check_identities
    monkeypatch.setattr(ca.algebra, "check_identities", lambda alg: seen.append(alg) or check(alg))
    g, A = ca.sl2(), ca.m1(2)
    flat = ca.current_algebra(g, A)
    assert seen == [g, A]  # the factors; the current algebra passes with them
    twisted = ca.change_basis(flat, unimodular_twist(flat.dim, 3))
    for alg in (flat, twisted, ca.complexify(twisted)):
        ca.rigidity_certificate(alg)
        ca.chevalley_dims(alg, 1)
        ca.fingerprint(alg)
    ca.rigid_in_Lpq(g, A)
    ca.h1_current_formula(g, A)
    assert len(seen) == 2
    r2 = ca.r2()
    for _ in range(3):
        ca.rigidity_certificate(r2)
    assert len(seen) == 3
    # a failure is not remembered
    bad3 = _identity_failures()[0]
    for _ in range(2):
        with pytest.raises(ca.IdentityError):
            ca.rigidity_certificate(bad3)
    assert len(seen) == 5


def test_cochain_values_outside_the_field_raise_up_front():
    # A Q(i) value on an algebra over Q is refused before any evaluation;
    # over Q(i) the same cochain is in the field.
    g, A = ca.sl2(), ca.m1(2)
    phi = ChevalleyCochain(2, 3, {(1, 2): (ca.scalars.I, 0, 0)})
    zero_g, zero_A = SymmetricCochain(3), SymmetricCochain(2)
    calls = [
        lambda: chevalley_delta(g, phi),
        lambda: ca.infinitesimal_check(g, phi),
        lambda: ca.truncated_deformation_check(ca.TruncatedDeformation(g, (phi,), 1)),
        lambda: DecomposableDelta(g, A, phi, zero_A, zero_g, zero_A),
        lambda: BulletProduct(A, SymmetricCochain(2, {(1, 2): (0, ca.scalars.I)})),
    ]
    for call in calls:
        with pytest.raises(ca.ScalarError):
            call()
    gc = ca.complexify(g)
    assert chevalley_delta(gc, phi).data == {(1, 2, 3): (2 * ca.scalars.I, 0, 0)}
    assert not ca.infinitesimal_check(gc, phi)
