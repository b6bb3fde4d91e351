"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value is exact; there are no tolerances anywhere.  The
independent oracles (fraction-free elimination, Jacobiator expansion,
subset-sum idempotent checks) live in this file so they cannot share code
with the paths they certify.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import io
import random
import time
from fractions import Fraction

import pytest

import currentalg as ca
from currentalg import (
    BulletProduct,
    DecomposableDelta,
    Matrix,
    Subspace,
    SymmetricCochain,
    TruncatedDeformation,
    bracket_cochain,
    change_basis,
    chevalley_delta,
    chevalley_delta_matrix,
    chevalley_dims,
    check_identities,
    complexify,
    derivation_space,
    derivations,
    direct_sum,
    find_idempotents,
    find_unit,
    h1_current_formula,
    harrison_h2,
    hochschild_delta1,
    hochschild_delta2,
    infinitesimal_check,
    multiplication_cochain,
    permutation_matrix,
    pierce,
    rigid_in_Lpq,
    rigidity_certificate,
    truncated_deformation_check,
)
from currentalg.cohomology import _hochschild_rows, _leibniz_rows
from currentalg.io import emit_algebra, parse_algebra_file
from currentalg.structure import _right_mult_system

from conftest import (
    FIXTURES,
    catalog_assoc_algebras,
    catalog_lie_algebras,
    dense_view,
    fixture_algebras,
    rand_chevalley,
    rand_chevalley2,
    rand_matrix,
    rand_symmetric,
    rank_mod_p,
    real_rigid_split_columns,
    unimodular_twist,
    with_variants,
)

F = Fraction


def _verdict(number: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {title}")
    assert ok, f"criterion {number} failed: {title}"


# -- independent oracle: fraction-free (Bareiss) elimination ----------------

def bareiss_rank(matrix: Matrix) -> int:
    """Rank by fraction-free forward elimination; no shared code with rref."""
    m = [list(row) for row in matrix.rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = F(1)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) / prev
            m[i][c] = F(0)
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def test_criterion_01_identity_suite():
    t0 = time.time()
    ok = True
    for alg in catalog_lie_algebras() + catalog_assoc_algebras():
        rep = check_identities(alg)
        ok = ok and rep.passed and rep.violations == ()
    rep = check_identities(parse_algebra_file(FIXTURES / "r2_corrupt3.json"))
    ok = ok and not rep.passed and rep.violations == ((1, 2, 3, 2),)
    # e1^2 = e2, e2^2 = e1, e1 e2 = 0: four associator witnesses, by hand
    rep = check_identities(parse_algebra_file(FIXTURES / "m1_2_corrupt.json"))
    ok = ok and not rep.passed and rep.violations == (
        (1, 1, 2, 1), (1, 2, 2, 2), (2, 1, 1, 1), (2, 2, 1, 2))
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, f"identity suite with witnesses ({elapsed:.2f}s < 1s)", ok)


def test_criterion_02_current_r2_m12_reproduction():
    t0 = time.time()
    cur = ca.current_algebra(ca.r2(), ca.m1(2))
    perm_ok = change_basis(cur, permutation_matrix((1, 3, 2, 4))) == \
        direct_sum(ca.r2(), ca.r2())
    h2_ok = chevalley_dims(cur, 2).dim_H == 0
    lpq_ok = rigid_in_Lpq(ca.r2(), ca.m1(2)).verdict == ca.RIGID_BY_H2_ZERO
    elapsed = time.time() - t0
    ok = perm_ok and h2_ok and lpq_ok and elapsed < 1.0
    _verdict(2, f"r2 (x) M1^2 = r2 x r2, rigid in L_(2,2) and L_4 "
                f"({elapsed:.2f}s < 1s)", ok)


def test_criterion_03_products_rigid_with_oracle():
    t0 = time.time()
    ok = True
    alg = ca.r2()
    for k in (1, 2, 3):
        d2 = chevalley_delta_matrix(alg, 2)
        d1 = chevalley_delta_matrix(alg, 1)
        c2_dim = d2.ncols
        h2 = chevalley_dims(alg, 2)
        ok = ok and h2.dim_H == 0
        # independent dense-elimination oracle on the same matrices
        z_oracle = c2_dim - bareiss_rank(d2)
        b_oracle = bareiss_rank(d1)
        ok = ok and (z_oracle, b_oracle) == (h2.dim_Z, h2.dim_B)
        ok = ok and z_oracle - b_oracle == 0
        alg = direct_sum(alg, ca.r2())
    # every operator the package assembles, on the fixture corpus: canonical,
    # twisted and over Q(i); rank (fraction-free sparse elimination) of the
    # sparse operator the kernel receives against the oracle on its dense view
    operators = 0
    for alg in with_variants(fixture_algebras()):
        ops = [_leibniz_rows(alg), _right_mult_system(alg)]
        if alg.kind == ca.LIE:
            ops += [chevalley_delta_matrix(alg, k) for k in (0, 1, 2)]
        else:
            ops.append(_hochschild_rows(alg))
        for op in ops:
            ok = ok and ca.rank(op) == bareiss_rank(dense_view(op))
            operators += 1
    # the heaviest coboundaries of the benchmark sweep, in a twisted basis
    for g, A in ((ca.heisenberg(3), ca.m1(2)), (ca.sl2(), ca.m1(2)),
                 (ca.r2(), ca.real_rigid(2, 1))):
        flat = ca.current_algebra(g, A)
        flat = change_basis(flat, unimodular_twist(flat.dim, 7))
        for k in (1, 2):
            op = chevalley_delta_matrix(flat, k)
            ok = ok and ca.rank(op) == bareiss_rank(dense_view(op))
            operators += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _verdict(3, f"H2(r2^k) = 0 for k=1,2,3 vs fraction-free oracle, and rank of "
                f"{operators} fixture and current-algebra operators "
                f"({elapsed:.1f}s < 30s)", ok)


def test_criterion_04_derivation_dimensions():
    ok = True
    for q in (1, 2, 3):
        flat = ca.current_algebra(ca.r2(), ca.m1(q))
        leibniz = derivations(flat)
        ok = ok and len(leibniz) == 2 * q
        z1 = [Matrix.from_flat(v, flat.dim, flat.dim).transpose()
              for v in ca.kernel_basis(chevalley_delta_matrix(flat, 1))]
        z1_space = Subspace(flat.dim ** 2, [m.flatten() for m in z1])
        ok = ok and z1_space == derivation_space(flat)
    _verdict(4, "dim Der(r2 (x) M1^q) = 2q, Leibniz and Z^1 paths agree", ok)


def test_criterion_05_h1_formula_instances():
    ok = True
    for g, A, want in [
        (ca.r2(), ca.m1(1), 0), (ca.r2(), ca.m1(2), 0), (ca.r2(), ca.m1(3), 0),
        (ca.abelian(1), ca.m1(1), 1),
        (ca.abelian(2), ca.m1(2), None),
    ]:
        rep = h1_current_formula(g, A)
        ok = ok and rep.matches
        if want is not None:
            ok = ok and rep.lhs_dim == want
    _verdict(5, "H^1 formula: lhs = rhs on the listed pairs", ok)


def test_criterion_06_pierce_suite():
    ok = True
    for A in catalog_assoc_algebras():
        if ca.is_nilalgebra(A):
            continue
        idems = find_idempotents(A)
        ok = ok and bool(idems)
        for e in idems:
            split = pierce(A, e)
            ok = ok and split.a11.dim + split.a00.dim == A.dim
            ok = ok and all(A.multiply(e, x) == x for x in split.a11.basis)
            ok = ok and all(all(c == 0 for c in A.multiply(e, y))
                            for y in split.a00.basis)
            ok = ok and all(all(c == 0 for c in A.multiply(x, y))
                            for x in split.a11.basis for y in split.a00.basis)
    for q in (1, 2, 3):
        dec = ca.orthogonal_decomposition(ca.m1(q))
        ok = ok and len(dec.components) == q
        total = dec.idempotents[0]
        for e in dec.idempotents[1:]:
            total = tuple(x + y for x, y in zip(total, e))
        ok = ok and find_unit(ca.m1(q)) == total
        ok = ok and derivations(ca.m1(q)) == []
    _verdict(6, "idempotents, Pierce invariants, orthogonal decomposition, "
                "Der(M1^q) = 0", ok)


def test_criterion_07_decomposable_cochain_suite():
    rng = random.Random(101)
    g, A = ca.r2(), ca.m1(1)
    ok = DecomposableDelta(
        g, A, bracket_cochain(g), multiplication_cochain(A),
        SymmetricCochain.zero(2), SymmetricCochain.zero(1)).is_zero_on_basis()

    g, A = ca.r2(), ca.m1(2)
    unit = find_unit(A)
    nonvacuous_cocycle = 0
    nonvacuous_bullet = 0
    for trial in range(100):
        psi1 = rand_chevalley(rng, 2, 2)
        phi3 = rand_symmetric(rng, 2)
        if trial % 2 == 0:
            phi2, psi4 = multiplication_cochain(A), SymmetricCochain.zero(2)
            phi3 = SymmetricCochain.zero(2)
        else:
            phi2, psi4 = rand_symmetric(rng, 2), rand_symmetric(rng, 2)
        ev = DecomposableDelta(g, A, psi1, phi2, phi3, psi4)
        zero = ev.is_zero_on_basis()

        # proposition: phi2(1,1) != 0 and vanishing expression => cocycle
        if zero and any(c != 0 for c in phi2.eval_pair(unit, unit)):
            nonvacuous_cocycle += 1
            if not chevalley_delta(g, psi1).is_zero():
                ok = False

        # bullet proposition via the equal-argument reduction
        bmap = BulletProduct(A, psi4)
        hyp = None
        for x in (1, 2):
            ex = g.basis_vector(x)
            left = g.multiply(phi3.value(x, x), ex)
            for t in ((a, b, c) for a in (1, 2) for b in (1, 2)
                      for c in (1, 2)):
                got = ev.evaluate((x, x, x), t)
                expected = tuple(lx * by for lx in left
                                 for by in bmap.evaluate(*t))
                if got != expected:
                    ok = False
            if any(c != 0 for c in left):
                hyp = x
        if hyp is not None and zero:
            nonvacuous_bullet += 1
            if not bmap.is_zero_on_basis():
                ok = False
    ok = ok and nonvacuous_cocycle >= 25
    _verdict(7, f"decomposable coboundary propositions "
                f"({nonvacuous_cocycle} non-vacuous cocycle instances)", ok)


def test_criterion_08_torus_and_real_rigid_suite():
    ok = True
    for n in range(1, 6):
        ab = ca.abelian(n)
        for k in range(1, n + 1):
            for variant in (ca.AS_PRINTED, ca.ROTATION):
                gens = ca.torus_generators(n, k, variant)
                ok = ok and len(gens) == n
                ok = ok and Subspace(n * n, [m.flatten() for m in gens]).dim == n
                for a in gens:
                    ok = ok and ca.is_derivation(ab, a)
                    ok = ok and ca.operator_analysis(a).is_semisimple
                    for b in gens:
                        ok = ok and (a @ b - b @ a).is_zero()
    for (n, s) in ((2, 1), (3, 1), (4, 2)):
        cur = ca.current_algebra(ca.r2(), ca.real_rigid(n, s))
        moved = change_basis(cur,
                             permutation_matrix(ca.toplus_current_permutation(n, s)))
        ok = ok and moved == ca.t_oplus_a(n, s)
        A = complexify(ca.real_rigid(n, s))
        split = Matrix.from_columns(ca.orthogonal_decomposition(A).idempotents)
        ok = ok and change_basis(A, split) == complexify(ca.m1(n))
        ok = ok and set(split.columns()) == real_rigid_split_columns(n, s)
    _verdict(8, "torus families, t_n + a_n identification, complexification",
             ok)


def test_criterion_09_property_suites():
    rng = random.Random(103)
    ok = True
    lie_algebras = [g for g in catalog_lie_algebras() if g.dim <= 6]
    for _ in range(120):  # Chevalley d.d = 0
        g = rng.choice(lie_algebras)
        degree = rng.choice((0, 1))
        c = rand_chevalley(rng, g.dim, degree)
        ok = ok and chevalley_delta(g, chevalley_delta(g, c)).is_zero()
    assoc = [a for a in catalog_assoc_algebras() if a.dim <= 4]
    for _ in range(80):  # Hochschild d.d = 0
        A = rng.choice(assoc)
        f = rand_matrix(rng, A.dim, 2)
        ok = ok and hochschild_delta2(A, hochschild_delta1(A, f)) == {}

    for _ in range(100):  # infinitesimal <=> order-1 truncated
        g = rng.choice(lie_algebras)
        phi = rand_chevalley2(rng, g.dim)
        flag = infinitesimal_check(g, phi)
        rep = truncated_deformation_check(TruncatedDeformation(
            base=g, cochains=(phi,), order=1))
        ok = ok and flag == (rep.ok_up_to >= 1)

    for path in sorted(FIXTURES.glob("*.json")):  # parse/emit round-trip
        if path.name.startswith("cochain"):
            continue
        alg = parse_algebra_file(path)
        ok = ok and parse_algebra_file(io.StringIO(emit_algebra(alg))) == alg
        if "corrupt" not in path.name:
            ok = ok and emit_algebra(alg) == path.read_text()
    _verdict(9, "d.d = 0 (200 cochains), infinitesimal <=> order-1 (100), "
                "round-trip corpus", ok)


def test_criterion_10_negative_controls():
    cert = rigidity_certificate(ca.abelian(2))
    ok = cert.verdict == ca.INCONCLUSIVE and cert.h2_dims.dim_H == 2
    ok = ok and harrison_h2(ca.null_algebra(1)).dim_H == 1
    ok = ok and not ca.is_characteristically_nilpotent(ca.heisenberg(3))
    _verdict(10, "negative controls: abelian(2) inconclusive, "
                 "Harrison H2(null) = 1, heisenberg(3) not char-nilpotent", ok)


def test_criterion_11_paper_scale_rigidity_with_modular_oracle():
    ok = True
    lines = []
    for g, A, name, want in ((ca.r2(), ca.m1(8), "r2 (x) M1^8", (240, 240, 0)),
                             (ca.sl2(), ca.m1(5), "sl2 (x) M1^5", (210, 210, 0))):
        flat = ca.current_algebra(g, A)
        t0 = time.time()
        cert = rigidity_certificate(flat)
        elapsed = time.time() - t0
        dims = cert.h2_dims
        ok = ok and cert.verdict == ca.RIGID_BY_H2_ZERO and elapsed < 1.0
        ok = ok and (dims.dim_Z, dims.dim_B, dims.dim_H) == want
        # rank_p <= rank_Q, and d2 d1 = 0 gives rank d1 <= dim Z2 = dim C2 - rank d2,
        # so rank_p d1 + rank_p d2 = dim C2 makes both ranks exact and H2 = 0
        d1, d2 = chevalley_delta_matrix(flat, 1), chevalley_delta_matrix(flat, 2)
        for row in d2.sparse_rows:
            composite = {}
            for c, x in row.items():
                for k, y in d1.sparse_rows[c].items():
                    composite[k] = composite.get(k, 0) + x * y
            ok = ok and not any(composite.values())
        r1, r2 = rank_mod_p(d1.sparse_rows), rank_mod_p(d2.sparse_rows)
        ok = ok and r1 + r2 == d2.ncols
        ok = ok and (d2.ncols - r2, r1, 0) == (dims.dim_Z, dims.dim_B, dims.dim_H)
        lines.append(f"{name} H2 = {dims.dim_H} in {elapsed:.2f}s < 1s")
    _verdict(11, f"paper-scale rigidity, dims proved mod 2^61-1: {'; '.join(lines)}", ok)
