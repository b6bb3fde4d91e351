"""Integral structure constants over Q are plain ints in ``Algebra.tensor``.

Every assembler then sums ints, and its rows reach elimination without a
Fraction.  These tests pin that down and check that nothing public changes:
the assembled operators equal the column-by-column oracles, which build
every entry as a field scalar, in canonical, twisted, complexified and
rational-scaled bases, and public calls still return field scalars.
"""

from fractions import Fraction

import pytest

import currentalg as ca
from currentalg import GaussianRational, Matrix, jacobi_pq_residuals
from currentalg.cohomology import _hochschild_rows, _leibniz_rows, chevalley_delta_matrix
from currentalg.io import parse_algebra_file
from currentalg.linalg import kernel_basis, rank

from conftest import (
    FIXTURES,
    dense_products,
    hochschild_columns_oracle,
    leibniz_columns_oracle,
    oracle_corpus,
    scaled,
    scaled_corpus,
)


def assemblies(alg):
    """(name, assembled operator) for every assembler."""
    if alg.kind == ca.LIE:
        out = [(f"d{k}", chevalley_delta_matrix(alg, k)) for k in (0, 1, 2)]
    else:
        out = [("hochschild", _hochschild_rows(alg))]
    return out + [("leibniz", _leibniz_rows(alg))]


def tensor_values(alg):
    return [c for terms in alg.tensor.values() for _, c in terms]


def is_integral(alg):
    return alg.field == ca.Q and all(x.denominator == 1
                                     for vec in dense_products(alg).values() for x in vec)


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
def test_assemblers_match_column_oracles(kind):
    # Chevalley d^0..d^2 are checked the same way in test_cohomology.py
    for alg in scaled_corpus(kind):
        operators = [("leibniz", _leibniz_rows(alg), leibniz_columns_oracle(alg))]
        if kind == ca.ASSOC_COMM:
            operators.append(
                ("hochschild", _hochschild_rows(alg), hochschild_columns_oracle(alg)))
        for name, got, want in operators:
            r, kernel = rank(got), kernel_basis(got)
            # compared after the elimination, which must leave its input as it was
            assert got.shape == want.shape, (alg, name)
            assert got == want and hash(got) == hash(want), (alg, name)
            assert r == rank(want) and kernel == kernel_basis(want), (alg, name)


@pytest.mark.parametrize("kind", [ca.LIE, ca.ASSOC_COMM])
def test_integral_tables_assemble_int_entries(kind):
    algebras = scaled_corpus(kind)
    integral = [a for a in algebras if is_integral(a)]
    mixed = [a for a in algebras if a.field == ca.Q and not is_integral(a)]
    assert len(integral) >= 10 and mixed
    for alg in integral:
        assert all(type(c) is int for c in tensor_values(alg)), alg
        for name, got in assemblies(alg):
            assert all(type(x) is int for row in got.sparse_rows for x in row.values()), (
                alg, name)
    # Halves keep their Fractions next to the ints of the same table.
    assert any({type(c) for c in tensor_values(a)} == {int, Fraction} for a in mixed)
    for alg in mixed:
        assert all(type(c) is int or c.denominator != 1 for c in tensor_values(alg)), alg


def test_hochschild_after_leibniz_is_zero():
    # Hochschild d^1 is minus the Leibniz system, so d^2 d^1 = 0 reads
    # (Hochschild rows) @ (Leibniz rows) = 0, an (n^4, n^2) zero matrix.
    algebras = [A for A in oracle_corpus(ca.ASSOC_COMM) if ca.check_identities(A).passed]
    assert {A.field for A in algebras} == {ca.Q, ca.QI}
    for A in algebras:
        n = A.dim
        d = _hochschild_rows(A) @ _leibniz_rows(A)
        assert d.shape == (n ** 4, n ** 2), A
        assert d.is_zero(), A


@pytest.mark.parametrize("field", [ca.Q, ca.QI])
def test_public_scalars_stay_in_the_field(field):
    scalar = Fraction if field == ca.Q else GaussianRational
    lift = (lambda a: a) if field == ca.Q else ca.complexify
    for alg in map(lift, [ca.sl2(), ca.r2(), ca.m1(2), scaled(ca.sl2())]):
        n = alg.dim
        products = [alg.basis_product(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        assert all(type(x) is scalar for vec in products for x in vec), alg
        x = alg.basis_vector(1)
        assert all(type(c) is scalar for c in alg.multiply(x, alg.basis_vector(n))), alg
    corrupt = lift(parse_algebra_file(FIXTURES / "m1_2_corrupt.json"))
    residuals = jacobi_pq_residuals(lift(ca.r2()), corrupt)
    assert residuals and all(type(r.value) is scalar for r in residuals)
    assert residuals[0].value == 1


def _drop_last_row(assembler):
    def patched(alg):
        m = assembler(alg)
        return Matrix._of(m.sparse_rows[:-1], m.ncols)
    return patched


def test_rigidity_certificate_compares_leibniz_rank_with_d1(monkeypatch):
    g = ca.r2()
    assert rank(_drop_last_row(_leibniz_rows)(g)) < rank(_leibniz_rows(g))
    ca.rigidity_certificate(g)
    monkeypatch.setattr(ca.cohomology, "_leibniz_rows", _drop_last_row(_leibniz_rows))
    with pytest.raises(AssertionError, match="disagree"):
        ca.rigidity_certificate(g)


def test_fingerprint_compares_derivations_with_z1(monkeypatch):
    g = ca.r2()
    ca.fingerprint(g)
    monkeypatch.setattr(ca.cohomology, "_leibniz_rows", _drop_last_row(_leibniz_rows))
    with pytest.raises(AssertionError, match="disagree"):
        ca.fingerprint(g)


def _flip_first_entry(assembler, degree=None):
    """assembler with the sign of one entry changed (of d^degree only, if given)."""
    def patched(alg, *k):
        m = assembler(alg, *k)
        if degree is not None and k != (degree,):
            return m
        rows = [dict(r) for r in m.sparse_rows]
        row = next(r for r in rows if r)
        row[min(row)] = -row[min(row)]
        return Matrix._of(rows, m.ncols)
    return patched


@pytest.mark.parametrize("flip", ["leibniz", "d1"])
def test_one_flipped_entry_in_either_assembler_raises(monkeypatch, flip):
    # rigidity_certificate and fingerprint compare the Leibniz system with
    # -d^1 entry by entry, so a single wrong sign in either one is caught.
    algebras = [ca.r2(), ca.sl2(), ca.heisenberg(3), ca.current_algebra(ca.r2(), ca.m1(2))]
    if flip == "leibniz":
        monkeypatch.setattr(ca.cohomology, "_leibniz_rows", _flip_first_entry(_leibniz_rows))
    else:
        monkeypatch.setattr(ca.cohomology, "chevalley_delta_matrix",
                            _flip_first_entry(chevalley_delta_matrix, 1))
    for g in algebras:
        for check in (ca.rigidity_certificate, ca.fingerprint):
            with pytest.raises(AssertionError, match="disagree"):
                check(g)
