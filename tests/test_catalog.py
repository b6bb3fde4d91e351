from fractions import Fraction

import pytest

import currentalg as ca
from currentalg import (
    AS_PRINTED,
    ROTATION,
    Fingerprint,
    Matrix,
    Subspace,
    UnknownAlgebraError,
    center,
    change_basis,
    check_identities,
    chevalley_dims,
    complexify,
    derivation_space,
    direct_sum,
    fingerprint,
    harrison_h2,
    make,
    operator_analysis,
    permutation_matrix,
    t_oplus_a,
    toplus_current_permutation,
    torus_generators,
)

from currentalg.io import parse_algebra_file

from conftest import FIXTURES, oracle_corpus, real_rigid_split_columns

F = Fraction


def test_make_examples():
    rr = make("realRigid", n=2, s=1)
    assert rr.basis_product(1, 1) == (F(1), F(0))
    assert rr.basis_product(1, 2) == (F(0), F(1))
    assert rr.basis_product(2, 1) == (F(0), F(1))
    assert rr.basis_product(2, 2) == (F(-1), F(0))

    m13 = make("M1", q=3)
    assert all(m13.basis_product(i, i) == m13.basis_vector(i)
               for i in (1, 2, 3))

    rr3 = make("realRigid", n=3, s=1)
    assert rr3.basis_product(2, 2) == (F(-1), F(0), F(0))
    assert rr3.basis_product(3, 3) == (F(0), F(0), F(1))
    assert rr3.basis_product(1, 3) == (F(0),) * 3


def test_make_errors():
    with pytest.raises(UnknownAlgebraError):
        make("nope")
    with pytest.raises(UnknownAlgebraError):
        make("realRigid", n=2, s=2)
    with pytest.raises(UnknownAlgebraError):
        make("abelian")
    with pytest.raises(UnknownAlgebraError):
        make("r2", n=2)


@pytest.mark.parametrize("fixture, name, params", [
    ("r2", "r2", {}),
    ("abelian2", "abelian", {"n": 2}),
    ("heisenberg3", "heisenberg", {"n": 3}),
    ("sl2", "sl2", {}),
    ("m1_1", "M1", {"q": 1}),
    ("m1_2", "M1", {"q": 2}),
    ("m1_3", "M1", {"q": 3}),
    ("null1", "null", {"n": 1}),
    ("null2", "null", {"n": 2}),
    ("real_rigid_2_1", "realRigid", {"n": 2, "s": 1}),
    ("real_rigid_3_1", "realRigid", {"n": 3, "s": 1}),
    ("t2_a2_s1", "t_oplus_a", {"n": 2, "s": 1}),
])
def test_catalog_tables_match_fixture_files(fixture, name, params):
    assert parse_algebra_file(FIXTURES / f"{fixture}.json") == make(name, **params)


def test_real_rigid_zero_blocks_is_m1():
    for n in (1, 2, 3, 4):
        assert ca.real_rigid(n, 0) == ca.m1(n)


def test_real_rigid_passes_identities():
    for n in range(1, 6):
        for s in range(0, n // 2 + 1):
            assert check_identities(ca.real_rigid(n, s)).passed


def test_torus_generator_examples():
    gens = torus_generators(2, 1)
    assert gens == [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]])]

    gens = torus_generators(2, 2, AS_PRINTED)
    assert gens == [Matrix([[0, 1], [1, 0]]), Matrix([[1, 0], [0, 1]])]

    gens = torus_generators(3, 2, ROTATION)
    assert gens[0] == Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert gens[1] == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert gens[2] == Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])


def test_torus_families_all_properties():
    for n in range(1, 6):
        ab = ca.abelian(n)
        for k in range(1, n + 1):
            for variant in (AS_PRINTED, ROTATION):
                gens = torus_generators(n, k, variant)
                assert len(gens) == n
                span = Subspace(n * n, [m.flatten() for m in gens])
                assert span.dim == n
                for a in gens:
                    assert ca.is_derivation(ab, a)
                    assert operator_analysis(a).is_semisimple
                    for b in gens:
                        assert (a @ b - b @ a).is_zero()


def test_torus_index_bounds():
    with pytest.raises(UnknownAlgebraError):
        torus_generators(3, 4)
    with pytest.raises(UnknownAlgebraError):
        torus_generators(3, 0)
    with pytest.raises(UnknownAlgebraError):
        torus_generators(3, 2, "sideways")


def test_rotation_variant_has_no_rational_eigenvalues():
    rot = torus_generators(2, 2, ROTATION)[0]
    assert operator_analysis(rot).min_poly == (F(1), F(0), F(1))
    swap = torus_generators(2, 2, AS_PRINTED)[0]
    assert operator_analysis(swap).min_poly == (F(-1), F(0), F(1))


def test_t_oplus_a_examples():
    assert t_oplus_a(1, 0) == ca.r2()
    g = t_oplus_a(2, 1)
    assert g.dim == 4
    assert check_identities(g).passed
    # the rotation pair: [Y1, X1] = -X2, [Y1, X2] = X1
    assert g.basis_product(1, 3) == (F(0), F(0), F(0), F(-1))
    assert g.basis_product(1, 4) == (F(0), F(0), F(1), F(0))
    with pytest.raises(UnknownAlgebraError):
        t_oplus_a(2, 2)


def test_t_oplus_a_matches_current_algebra():
    for (n, s) in ((2, 1), (3, 1), (4, 2)):
        cur = ca.current_algebra(ca.r2(), ca.real_rigid(n, s))
        perm = toplus_current_permutation(n, s)
        assert change_basis(cur, permutation_matrix(perm)) == t_oplus_a(n, s)


def test_t_oplus_a_realizes_rotation_torus():
    # ad Y_i restricted to the abelian part spans the same torus as the
    # rotation-variant generator family with s blocks.
    for (n, s) in ((2, 1), (3, 1)):
        g = t_oplus_a(n, s)
        ad_blocks = []
        for i in range(1, n + 1):
            ad = g.ad_matrix(g.basis_vector(i))
            block = Matrix([row[n:] for row in ad.rows[n:]])
            ad_blocks.append(block.flatten())
        gens = torus_generators(n, s + 1, ROTATION)
        assert Subspace(n * n, ad_blocks) == \
            Subspace(n * n, [m.flatten() for m in gens])


def test_complexified_real_rigid_is_split():
    # P has the computed primitive idempotents as columns: u, v = (e_{2i-1} +- i e_{2i})/2
    # for each complex-type block, e_j for each plain coordinate
    for (n, s) in ((1, 0), (2, 1), (3, 1), (4, 2), (5, 2)):
        A = complexify(ca.real_rigid(n, s))
        p = Matrix.from_columns(ca.orthogonal_decomposition(A).idempotents)
        assert change_basis(A, p) == complexify(ca.m1(n))
        assert set(p.columns()) == real_rigid_split_columns(n, s)


def test_fingerprint_examples():
    fp = fingerprint(ca.r2())
    assert fp == Fingerprint(dim=2, kind=ca.LIE, center_dim=0,
                             is_solvable=True, is_nilpotent=False,
                             der_dim=2, h1_dim=0, h2_dim=0)
    fp = fingerprint(ca.m1(2))
    assert fp.dim == 2 and fp.unit_exists and fp.idempotent_count == 3
    assert fp.der_dim == 0 and fp.h2_dim == 0
    fp = fingerprint(ca.abelian(2))
    assert (fp.center_dim, fp.der_dim, fp.h1_dim, fp.h2_dim) == (2, 4, 4, 2)


def test_fingerprint_current_vs_product():
    for q in (1, 2, 3):
        flat = ca.current_algebra(ca.r2(), ca.m1(q))
        prod = ca.r2()
        for _ in range(q - 1):
            prod = direct_sum(prod, ca.r2())
        assert fingerprint(flat) == fingerprint(prod)


def test_fingerprint_over_qi():
    fp = fingerprint(complexify(ca.real_rigid(2, 1)))
    assert fp.idempotent_count == 3 and fp.unit_exists
    assert fp.der_dim == 0 and fp.h2_dim == 0
    # over Q the same table is connected: only the unit
    assert fingerprint(ca.real_rigid(2, 1)).idempotent_count == 1


def test_fingerprint_matches_separate_invariants():
    # fingerprint ranks each operator once; the public calls rank them again.
    for kind in (ca.LIE, ca.ASSOC_COMM):
        for alg in oracle_corpus(kind):
            if alg.dim > 6 or not check_identities(alg).passed:
                continue
            fp = fingerprint(alg)
            assert fp.der_dim == derivation_space(alg).dim
            if kind == ca.LIE:
                assert (fp.h1_dim, fp.h2_dim) == (chevalley_dims(alg, 1).dim_H,
                                                  chevalley_dims(alg, 2).dim_H)
                assert fp.center_dim == center(alg).dim == chevalley_dims(alg, 0).dim_H
            else:
                assert fp.h2_dim == harrison_h2(alg).dim_H


def test_fingerprint_requires_identities():
    bad = ca.Algebra("bad", ca.LIE, ca.Q, 3,
                     {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    with pytest.raises(ca.IdentityError):
        fingerprint(bad)


def test_catalog_names_exposed():
    names = ca.catalog_names()
    for expected in ("r2", "abelian", "heisenberg", "sl2", "M1", "null",
                     "realRigid", "t_oplus_a"):
        assert expected in names
