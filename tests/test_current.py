import random

import pytest
from hypothesis import given, strategies as st

import currentalg as ca
from currentalg import (
    IdentityError,
    Matrix,
    change_basis,
    check_identities,
    current_algebra,
    direct_sum,
    flat_index,
    is_tensor_derivation,
    jacobi_pq_residuals,
    permutation_matrix,
    unflat_index,
)

from currentalg.io import emit_algebra, parse_algebra_file

from conftest import (
    FIXTURES,
    catalog_assoc_algebras,
    catalog_lie_algebras,
    current_algebra_oracle,
    dense_products,
    lawful_algebras,
    pq_residuals_oracle,
    rand_matrix,
    typed_terms,
)


def test_flat_index_round_trip():
    for q in (1, 2, 3, 5):
        for i in range(1, 4):
            for a in range(1, q + 1):
                u = flat_index(i, a, q)
                assert unflat_index(u, q) == (i, a)
    assert sorted(flat_index(i, a, 3) for i in (1, 2) for a in (1, 2, 3)) == \
        list(range(1, 7))


def test_current_dim_one_is_the_factor():
    assert current_algebra(ca.r2(), ca.m1(1)) == ca.r2()


def test_current_r2_m12_is_two_copies():
    cur = current_algebra(ca.r2(), ca.m1(2))
    # reorder to (X1.e1, X2.e1, X1.e2, X2.e2): old indices (1, 3, 2, 4)
    perm = (1, 3, 2, 4)
    assert change_basis(cur, permutation_matrix(perm)) == \
        direct_sum(ca.r2(), ca.r2())


def test_current_abelian_is_abelian():
    for p, A in ((2, ca.m1(2)), (3, ca.real_rigid(2, 1))):
        cur = current_algebra(ca.abelian(p), A)
        assert cur == ca.abelian(p * A.dim)


@pytest.mark.parametrize("field", [ca.Q, ca.QI])
@given(data=st.data())
def test_current_algebra_matches_dense_oracle(field, data):
    # The product of the two factor tensors against dense product vectors of
    # length p*q through the public constructor: same constants, same hash,
    # the same normal form term by term and the same file text.
    g = data.draw(lawful_algebras(ca.LIE, field))
    A = data.draw(lawful_algebras(ca.ASSOC_COMM, field))
    flat, want = current_algebra(g, A), current_algebra_oracle(g, A)
    assert flat == want and hash(flat) == hash(want)
    assert typed_terms(flat) == typed_terms(want)
    assert emit_algebra(flat) == emit_algebra(want) and repr(flat) == repr(want)


def test_current_validates_inputs():
    bad = ca.Algebra("bad", ca.LIE, ca.Q, 3,
                     {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    with pytest.raises(IdentityError):
        current_algebra(bad, ca.m1(1))
    with pytest.raises(ca.AlgebraError):
        current_algebra(ca.m1(2), ca.m1(2))


def test_catalog_pairs_pass_identities_and_residuals():
    pairs = [
        (ca.r2(), ca.m1(2)), (ca.r2(), ca.m1(3)),
        (ca.r2(), ca.real_rigid(2, 1)), (ca.r2(), ca.null_algebra(2)),
        (ca.heisenberg(3), ca.m1(2)), (ca.sl2(), ca.m1(2)),
        (ca.abelian(2), ca.real_rigid(3, 1)),
    ]
    for g, A in pairs:
        if g.dim * A.dim > 8:
            continue
        cur = current_algebra(g, A)
        assert check_identities(cur).passed
        assert jacobi_pq_residuals(g, A) == []


def test_pq_residuals_match_flat_violations():
    # Jacobi-violating 3-dim table tensored with the 1-dim unital algebra.
    bad = ca.Algebra("bad", ca.LIE, ca.Q, 3,
                     {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    A = ca.m1(1)
    residuals = jacobi_pq_residuals(bad, A)
    assert residuals
    flat_bad = ca.Algebra("flat", ca.LIE, ca.Q, 3, dense_products(bad))
    expected = set(check_identities(flat_bad).violations)
    got = {(*r.flat_triple(1), r.flat_target(1)) for r in residuals}
    assert got == expected


def _corrupted(g, rng):
    """g with one seeded structure constant moved by +-1."""
    table = {k: list(v) for k, v in dense_products(g).items()}
    pairs = [(i, j) for i in range(1, g.dim + 1) for j in range(i + 1, g.dim + 1)]
    vec = table.setdefault(rng.choice(pairs), [0] * g.dim)
    vec[rng.randrange(g.dim)] += rng.choice((-1, 1))
    return ca.Algebra(f"{g.name}-corrupt", ca.LIE, g.field, g.dim, table)


def test_pq_residuals_match_product_form_oracle():
    # Full lists (triples, targets, values, order) against the seven-deep
    # loop over basis_product, on catalog pairs and corrupted factors.
    rng = random.Random(67)
    gs = [g for g in catalog_lie_algebras() if g.dim <= 3]
    gs += [parse_algebra_file(FIXTURES / "r2_corrupt3.json")]
    gs += [_corrupted(g, rng) for g in gs if g.dim == 3 for _ in range(2)]
    As = [A for A in catalog_assoc_algebras() if A.dim <= 2]
    As += [parse_algebra_file(FIXTURES / "m1_2_corrupt.json")]
    pairs = [(g, A) for g in gs for A in As if g.dim * A.dim <= 6]
    pairs += [(ca.complexify(g), ca.complexify(A)) for g, A in pairs[::4]]
    nonempty = 0
    for g, A in pairs:
        got = [(r.g_triple, r.a_triple, r.target, r.value)
               for r in jacobi_pq_residuals(g, A)]
        assert got == pq_residuals_oracle(g, A)
        assert {type(value) for *_, value in got} <= {type(ca.scalars.zero(g.field))}
        nonempty += bool(got)
    assert nonempty >= 30, nonempty


def test_pq_residuals_abelian_empty():
    assert jacobi_pq_residuals(ca.abelian(3), ca.real_rigid(2, 1)) == []


def test_tensor_derivation_examples():
    g, A = ca.r2(), ca.m1(1)
    ad_x1 = g.ad_matrix(g.basis_vector(1))
    assert is_tensor_derivation(g, A, ad_x1, Matrix.identity(1))
    assert not is_tensor_derivation(g, A, Matrix.identity(2), Matrix.identity(1))
    # abelian g: every pair works
    rng = random.Random(3)
    ab = ca.abelian(2)
    for _ in range(5):
        f1, f2 = rand_matrix(rng, 2), rand_matrix(rng, 2)
        assert is_tensor_derivation(ab, ca.m1(2), f1, f2)


def test_tensor_derivation_vs_flat_random():
    # the function itself cross-checks the two code paths; drive it over
    # random operators where both outcomes occur
    rng = random.Random(17)
    g, A = ca.r2(), ca.m1(2)
    seen = set()
    for _ in range(12):
        f1, f2 = rand_matrix(rng, 2, 1), rand_matrix(rng, 2, 1)
        seen.add(is_tensor_derivation(g, A, f1, f2))
    assert False in seen


def test_current_distributes_over_direct_sum():
    g = ca.r2()
    A, B = ca.m1(1), ca.real_rigid(2, 1)
    lhs = current_algebra(g, direct_sum(A, B))
    rhs = direct_sum(current_algebra(g, A), current_algebra(g, B))
    # block permutation: (i, a) with a <= qA goes to block one, else block two
    p, qa, qb = g.dim, A.dim, B.dim
    q = qa + qb
    perm = []
    for i in range(1, p + 1):
        for a in range(1, qa + 1):
            perm.append(flat_index(i, a, q))
    for i in range(1, p + 1):
        for a in range(qa + 1, q + 1):
            perm.append(flat_index(i, a, q))
    moved = change_basis(lhs, permutation_matrix(tuple(perm)))
    assert moved == rhs
