"""Rigidity certificates and deformation checks.

The only rigidity verdicts are ``RigidByH2Zero`` and ``Inconclusive``:
H^2 = 0 is sufficient for rigidity but not necessary, so a nonzero H^2
never certifies non-rigidity.

Deformation checks expand the Jacobiator of mu + t phi_1 + t^2 phi_2 + ...
in powers of t.  Its t^m coefficient on (e_i, e_j, e_k) is the sum over
m_1 + m_2 = m of the cyclic sums of (e_a e_b) e_c with the inner bracket
from T_m1 and the outer from T_m2 (T_0 = mu, T_m = phi_m), summed from
sparse structure tensors by the same term rule as ``check_identities``.
The t^1 coefficient is minus the coboundary of phi_1; ``infinitesimal_check``
compares it with ``chevalley_delta``, whose rows are assembled separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .algebra import ASSOC_COMM, LIE, Algebra, AlgebraError, _jacobi
from .cohomology import (
    ChevalleyCochain,
    CohomologyDims,
    _chevalley_dims,
    _cochain_tensor,
    _leibniz_is_minus_d1,
    chevalley_delta,
    chevalley_dims,
    harrison_h2,
)

RIGID_BY_H2_ZERO = "RigidByH2Zero"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RigidityCertificate:
    verdict: str
    h2_dims: CohomologyDims
    orbit_dim: int


def rigidity_certificate(g: Algebra) -> RigidityCertificate:
    """H^2-based certificate plus the orbit dimension n^2 - dim Der.

    Der is both the kernel of the Leibniz system and Z^1, the kernel of d^1,
    and the Leibniz system is -d^1 up to a permutation of its columns.  The
    two operators come from different assemblers and are compared entry by
    entry, so the orbit dimension is dim B^2, the rank of d^1; a difference
    raises.  Raises ``IdentityError`` when g fails Jacobi.
    """
    if g.kind != LIE:
        raise AlgebraError("rigidity_certificate needs a Lie algebra")
    (_, h2), ds = _chevalley_dims(g, 2)
    _leibniz_is_minus_d1(g, ds[1])
    verdict = RIGID_BY_H2_ZERO if h2.dim_H == 0 else INCONCLUSIVE
    return RigidityCertificate(verdict=verdict, h2_dims=h2, orbit_dim=h2.dim_B)


@dataclass(frozen=True)
class LpqCertificate:
    """Rigidity within the product variety: both factor H^2 spaces vanish."""

    verdict: str
    h2_lie: CohomologyDims
    h2_harrison: CohomologyDims


def rigid_in_Lpq(g: Algebra, A: Algebra) -> LpqCertificate:
    if g.kind != LIE or A.kind != ASSOC_COMM:
        raise AlgebraError("rigid_in_Lpq needs a (Lie, assoc-comm) pair")
    h2_lie = chevalley_dims(g, 2)
    h2_har = harrison_h2(A)
    verdict = (RIGID_BY_H2_ZERO
               if h2_lie.dim_H == 0 and h2_har.dim_H == 0 else INCONCLUSIVE)
    return LpqCertificate(verdict=verdict, h2_lie=h2_lie, h2_harrison=h2_har)


def infinitesimal_check(g: Algebra, phi: ChevalleyCochain) -> bool:
    """Is phi a 2-cocycle?  Two routes must agree:

    the coboundary d(phi) vanishes, and the t^1 coefficient of the
    Jacobiator of mu + t*phi vanishes on every basis triple (they differ by
    an overall sign).
    """
    if g.kind != LIE:
        raise AlgebraError("infinitesimal_check needs a Lie algebra")
    if phi.degree != 2 or phi.dim != g.dim:
        raise AlgebraError("phi must be a degree-2 cochain on g")
    mu, t = g.tensor, _cochain_tensor(g.field, phi, LIE)
    d = chevalley_delta(g, phi)
    for i, j, k in combinations(range(1, g.dim + 1), 3):
        t1 = {}
        _jacobi(mu, t, i, j, k, t1)
        _jacobi(t, mu, i, j, k, t1)
        if any(t1.get(s, 0) + x != 0
               for s, x in enumerate(d.value((i, j, k)), start=1)):
            raise AssertionError(
                "coboundary and Jacobiator coefficient disagree; "
                "sign convention bug")
    return d.is_zero()


@dataclass(frozen=True)
class TruncatedDeformation:
    """mu + t phi_1 + t^2 phi_2 + ... over K[t]/(t^(order+1))."""

    base: Algebra
    cochains: tuple
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise AlgebraError("truncation order must be >= 1")
        for c in self.cochains:
            if not isinstance(c, ChevalleyCochain) or c.degree != 2:
                raise AlgebraError("deformation terms must be degree-2 cochains")
            if c.dim != self.base.dim:
                raise AlgebraError("deformation term dimension mismatch")


@dataclass(frozen=True)
class DeformationReport:
    ok_up_to: int
    first_obstruction: Optional[tuple]  # (order, (i, j, k)) or None


def truncated_deformation_check(d: TruncatedDeformation) -> DeformationReport:
    """Jacobiator of the deformed bracket, order by order mod t^(N+1).

    Reports the highest order through which every coefficient vanishes and
    the first violating (order, basis triple) otherwise.  Order 0 is the
    Jacobi identity of the base bracket itself.  T_m = 0 past the L cochains
    kept, so only m <= min(N, 2L) with m_1, m - m_1 <= L can contribute.
    """
    N = d.order
    terms = [d.base.tensor] + [_cochain_tensor(d.base.field, phi, LIE)
                               for phi in d.cochains[:N]]
    L = len(terms) - 1
    # Order-major scan: the first nonzero coefficient is the least
    # (order, triple) pair, the first obstruction.
    for m in range(min(N, 2 * L) + 1):
        for ijk in combinations(range(1, d.base.dim + 1), 3):
            acc = {}
            for m1 in range(max(0, m - L), min(m, L) + 1):
                _jacobi(terms[m1], terms[m - m1], *ijk, acc)
            if any(x != 0 for x in acc.values()):
                return DeformationReport(ok_up_to=m - 1,
                                         first_obstruction=(m, ijk))
    return DeformationReport(ok_up_to=N, first_obstruction=None)
