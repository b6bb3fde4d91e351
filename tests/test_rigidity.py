import random
from dataclasses import replace
from fractions import Fraction

import pytest

import currentalg as ca
from currentalg import (
    ChevalleyCochain,
    IdentityError,
    INCONCLUSIVE,
    RIGID_BY_H2_ZERO,
    TruncatedDeformation,
    bracket_cochain,
    change_basis,
    derivation_space,
    direct_sum,
    infinitesimal_check,
    rigid_in_Lpq,
    rigidity_certificate,
    truncated_deformation_check,
)

from conftest import (
    deformation_oracle,
    oracle_corpus,
    rand_chevalley2,
    rand_invertible,
    unimodular_twist,
)

F = Fraction


def test_certificate_examples():
    cert = rigidity_certificate(ca.r2())
    assert cert.verdict == RIGID_BY_H2_ZERO
    assert cert.orbit_dim == 2

    cert = rigidity_certificate(ca.abelian(2))
    assert cert.verdict == INCONCLUSIVE
    assert cert.h2_dims.dim_H == 2

    cert = rigidity_certificate(ca.current_algebra(ca.r2(), ca.m1(2)))
    assert cert.verdict == RIGID_BY_H2_ZERO


def test_certificate_rejects_bad_input():
    bad = ca.Algebra("bad", ca.LIE, ca.Q, 3,
                     {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    with pytest.raises(IdentityError):
        rigidity_certificate(bad)


@pytest.mark.parametrize("name, q", [("sl2", 3), ("r2", 6)])
def test_paper_scale_rungs_in_a_twisted_basis(name, q):
    # In a generic basis the coboundaries fill in; the sparsest-first order
    # and the stop at ncols - rank d^1 keep these at a fraction of a second.
    flat = ca.current_algebra(ca.make(name), ca.m1(q))
    twisted = change_basis(flat, unimodular_twist(flat.dim, 7))
    cert = rigidity_certificate(twisted)
    assert cert.verdict == RIGID_BY_H2_ZERO
    assert cert.h2_dims == rigidity_certificate(flat).h2_dims
    assert cert.orbit_dim == cert.h2_dims.dim_B


def test_products_of_r2_are_rigid():
    alg = ca.r2()
    for _ in range(3):
        assert rigidity_certificate(alg).verdict == RIGID_BY_H2_ZERO
        alg = direct_sum(alg, ca.r2())


def test_orbit_dim_basis_invariant():
    rng = random.Random(47)
    g = ca.r2()
    base = rigidity_certificate(g).orbit_dim
    for _ in range(4):
        moved = change_basis(g, rand_invertible(rng, 2))
        assert rigidity_certificate(moved).orbit_dim == base


def test_orbit_dim_is_n2_minus_dim_der():
    for g in oracle_corpus(ca.LIE):
        if ca.check_identities(g).passed:
            assert rigidity_certificate(g).orbit_dim == g.dim ** 2 - derivation_space(g).dim, g


def test_rigid_in_lpq_examples():
    assert rigid_in_Lpq(ca.r2(), ca.m1(2)).verdict == RIGID_BY_H2_ZERO
    assert rigid_in_Lpq(ca.abelian(2), ca.m1(1)).verdict == INCONCLUSIVE
    cert = rigid_in_Lpq(ca.r2(), ca.null_algebra(1))
    assert cert.verdict == INCONCLUSIVE
    assert cert.h2_harrison.dim_H == 1


def test_certificates_over_qi():
    from currentalg import complexify

    cert = rigidity_certificate(complexify(ca.r2()))
    assert cert.verdict == RIGID_BY_H2_ZERO and cert.orbit_dim == 2
    cert = rigid_in_Lpq(complexify(ca.r2()), complexify(ca.real_rigid(2, 1)))
    assert cert.verdict == RIGID_BY_H2_ZERO


def test_infinitesimal_examples():
    ab = ca.abelian(2)
    assert infinitesimal_check(ab, bracket_cochain(ca.r2()))
    assert infinitesimal_check(ca.r2(), ChevalleyCochain.zero(2, 2))
    h = ca.heisenberg(3)
    good = ChevalleyCochain(2, 3, {(1, 2): (1, 0, 0)})
    assert infinitesimal_check(h, good)
    bad = ChevalleyCochain(2, 3, {(1, 3): (1, 0, 0)})
    assert not infinitesimal_check(h, bad)


def test_truncated_examples():
    report = truncated_deformation_check(TruncatedDeformation(
        base=ca.abelian(2), cochains=(bracket_cochain(ca.r2()),), order=3))
    assert report.ok_up_to == 3 and report.first_obstruction is None

    phi = ChevalleyCochain(2, 2, {(1, 2): (1, 0)})
    report = truncated_deformation_check(TruncatedDeformation(
        base=ca.r2(), cochains=(phi,), order=2))
    assert report.ok_up_to == 2

    bad = ChevalleyCochain(2, 3, {(1, 3): (1, 0, 0)})
    report = truncated_deformation_check(TruncatedDeformation(
        base=ca.heisenberg(3), cochains=(bad,), order=1))
    assert report.ok_up_to == 0
    assert report.first_obstruction == (1, (1, 2, 3))


def test_infinitesimal_iff_order_one():
    rng = random.Random(53)
    algebras = [ca.r2(), ca.heisenberg(3), ca.sl2(), ca.abelian(3)]
    for _ in range(25):
        g = rng.choice(algebras)
        phi = rand_chevalley2(rng, g.dim)
        flag = infinitesimal_check(g, phi)
        report = truncated_deformation_check(TruncatedDeformation(
            base=g, cochains=(phi,), order=1))
        assert flag == (report.ok_up_to >= 1)


def test_abelian_order_two_obstruction_is_jacobiator():
    # over an abelian base every phi passes order 1; order 2 fails exactly
    # when phi violates Jacobi as a bracket itself.
    rng = random.Random(59)
    for _ in range(20):
        n = rng.choice((2, 3))
        g = ca.abelian(n)
        phi = rand_chevalley2(rng, n)
        assert infinitesimal_check(g, phi)
        report = truncated_deformation_check(TruncatedDeformation(
            base=g, cochains=(phi,), order=2))
        candidate = ca.Algebra("cand", ca.LIE, ca.Q, n,
                               {k: v for k, v in phi.data.items()})
        jacobi_ok = ca.check_identities(candidate).passed
        assert (report.ok_up_to == 2) == jacobi_ok
        if not jacobi_ok:
            assert report.first_obstruction[0] == 2


def test_multi_term_deformation():
    phi1 = ChevalleyCochain(2, 2, {(1, 2): (0, 1)})
    phi2 = ChevalleyCochain(2, 2, {(1, 2): (1, 0)})
    report = truncated_deformation_check(TruncatedDeformation(
        base=ca.abelian(2), cochains=(phi1, phi2), order=3))
    assert report.ok_up_to == 3  # dim 2: Jacobi is automatic at every order


def _seeded_cochains(rng, g):
    """One to three degree-2 cochains: dense random, single-entry, the
    bracket of g itself or zero; scaled by 1 + i half the time over Q(i)."""
    out = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.4:
            phi = rand_chevalley2(rng, g.dim)
        elif kind < 0.7:
            phi = ChevalleyCochain(2, g.dim, dict(list(
                rand_chevalley2(rng, g.dim).data.items())[:1]))
        elif kind < 0.9:
            phi = bracket_cochain(g)
        else:
            phi = ChevalleyCochain.zero(2, g.dim)
        if g.field == ca.QI and rng.random() < 0.5:
            w = ca.GaussianRational(1, 1)
            phi = ChevalleyCochain(2, g.dim, {
                k: tuple(w * x for x in v) for k, v in phi.data.items()})
        out.append(phi)
    return tuple(out)


def test_truncated_deformation_matches_oracle():
    # The Lie corpus (fixtures incl. the Jacobi-failing r2_corrupt3.json,
    # catalog, r2 (x) M1^2; canonical, twisted, Q(i)) plus heisenberg(5),
    # against dense bracket polynomials evaluated triple by triple.
    rng = random.Random(61)
    seen = set()
    for g in oracle_corpus(ca.LIE) + [ca.heisenberg(5)]:
        for _ in range(4):
            d = TruncatedDeformation(base=g, cochains=_seeded_cochains(rng, g),
                                     order=rng.randint(1, 4))
            report = truncated_deformation_check(d)
            assert (report.ok_up_to, report.first_obstruction) == deformation_oracle(d)
            seen.add(report.ok_up_to)
    assert seen == {-1, 0, 1, 2, 3, 4}


def _small_order_report(d):
    """The oracle at order 2L, L the cochains kept: T_m = 0 for m > L, so
    every coefficient above 2L vanishes and a clean check reaches d.order."""
    ok_up_to, first = deformation_oracle(replace(d, order=2 * len(d.cochains[:d.order])))
    return (d.order if first is None else ok_up_to), first


def test_large_order_matches_small_order_oracle():
    # order 10^6 would take hours if every order m <= N were scanned
    rng = random.Random(67)
    cases = [(g, _seeded_cochains(rng, g))
             for g in oracle_corpus(ca.LIE)[:12] + [ca.heisenberg(3)] for _ in range(3)]
    # over an abelian base one cochain is a cocycle, and it is obstructed at
    # order 2 = 2L exactly when it fails Jacobi: the last order scanned
    cases += [(g, (rand_chevalley2(rng, g.dim),))
              for g in (ca.abelian(3), ca.abelian(4)) for _ in range(3)]
    seen = set()
    for g, cochains in cases:
        d = TruncatedDeformation(base=g, cochains=cochains, order=10 ** 6)
        report = truncated_deformation_check(d)
        assert (report.ok_up_to, report.first_obstruction) == _small_order_report(d)
        first = report.first_obstruction
        seen.add(None if first is None else first[0] == 2 * len(cochains))
    assert seen == {None, True, False}
