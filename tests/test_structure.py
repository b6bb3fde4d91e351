import random
from fractions import Fraction
from math import comb

import pytest

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

from currentalg.structure import _candidate_coordinate_vectors

from conftest import (
    catalog_assoc_algebras,
    dense_rref,
    oracle_corpus,
    random_assoc_comm_algebras,
    table_mult,
    table_product,
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


def test_is_nilalgebra_examples():
    assert is_nilalgebra(ca.null_algebra(2))
    assert is_nilalgebra(ca.null_algebra(1))
    assert not is_nilalgebra(ca.m1(3))
    assert not is_nilalgebra(ca.real_rigid(2, 1))
    # truncated-polynomial style: u^2 = u^3 = 0, u*v = 0
    t = ca.Algebra("t", ca.ASSOC_COMM, ca.Q, 2, {(1, 1): (0, 1)})
    assert is_nilalgebra(t)


def _right_mult_oracle(alg):
    """Rows (j, k) of x -> (x e_j)_k from the stored table, rank by the dense oracle."""
    n = alg.dim
    return [[table_product(alg, i, j)[k] for i in range(1, n + 1)]
            for j in range(1, n + 1) for k in range(n)]


def test_center_and_unit_match_table_oracle():
    for g in oracle_corpus(ca.LIE):
        units = Matrix.identity(g.dim).rows
        z = center(g)
        assert z.dim == g.dim - len(dense_rref(_right_mult_oracle(g))[1]), g
        assert all(not any(table_mult(g, x, e)) for x in z.basis for e in units), g
    for A in oracle_corpus(ca.ASSOC_COMM):
        units = Matrix.identity(A.dim).rows
        rhs = [x for e in units for x in e]
        aug = [row + [b] for row, b in zip(_right_mult_oracle(A), rhs)]
        u = find_unit(A)
        assert (u is None) == (A.dim in dense_rref(aug)[1]), A
        assert u is None or all(table_mult(A, u, e) == e for e in units), A


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
    assert all_nilpotent_space([])


def _quartic_double_split():
    # K[x]/((x^2 - x)^2) on basis (1, x, x^2, x^3): x^4 = 2x^3 - x^2.
    # Two connected components, each a 2-dim local algebra; the primitive
    # idempotents need genuine Hensel lifting through the nilradical.
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


def test_generator_candidates_are_bounded():
    for d in range(1, 7):
        points = list(_candidate_coordinate_vectors(d, ca.Q))
        assert len(points) == comb(d, 2) * (d - 1) + 1
        assert points[-1] == tuple(F(len(points) - 1) ** k for k in range(d))
    assert all(isinstance(x, GaussianRational)
               for p in _candidate_coordinate_vectors(3, ca.QI) for x in p)


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
