"""Named algebra constructors, torus generator families, fingerprints.

``make`` is the single entry point used by the CLI; each family is also
exported as a plain function for library use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import scalars
from .algebra import (
    ASSOC_COMM,
    LIE,
    Algebra,
    AlgebraError,
    require_identities,
)
from .current import flat_index
from .linalg import Matrix


class UnknownAlgebraError(AlgebraError):
    """Catalog name or parameters not recognised."""


def _unit(n: int, k: int, c=1) -> tuple:
    """c e_k in K^n, k 1-based."""
    return tuple(c if i == k else 0 for i in range(1, n + 1))


def r2() -> Algebra:
    """The nonabelian 2-dimensional Lie algebra, [X1, X2] = X2."""
    return Algebra("r2", LIE, scalars.Q, 2, {(1, 2): (0, 1)})


def abelian(n: int) -> Algebra:
    """Abelian Lie algebra of dimension n."""
    if n < 1:
        raise UnknownAlgebraError("abelian requires n >= 1")
    return Algebra(f"abelian{n}", LIE, scalars.Q, n, {})


def heisenberg(n: int = 3) -> Algebra:
    """Heisenberg algebra of odd dimension n: [X_{2i-1}, X_{2i}] = X_n."""
    if n < 3 or n % 2 == 0:
        raise UnknownAlgebraError("heisenberg requires odd n >= 3")
    products = {(2 * i - 1, 2 * i): _unit(n, n) for i in range(1, n // 2 + 1)}
    return Algebra(f"heisenberg{n}", LIE, scalars.Q, n, products)


def sl2() -> Algebra:
    """sl(2) on (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return Algebra("sl2", LIE, scalars.Q, 3, {
        (1, 2): (0, 0, 1),
        (1, 3): (-2, 0, 0),
        (2, 3): (0, 2, 0),
    })


def m1(q: int) -> Algebra:
    """M1^q: orthogonal idempotents e_i^2 = e_i, e_i e_j = 0 for i != j."""
    if q < 1:
        raise UnknownAlgebraError("M1 requires q >= 1")
    products = {(i, i): _unit(q, i) for i in range(1, q + 1)}
    return Algebra(f"M1^{q}", ASSOC_COMM, scalars.Q, q, products)


def null_algebra(n: int) -> Algebra:
    """All products zero."""
    if n < 1:
        raise UnknownAlgebraError("null requires n >= 1")
    return Algebra(f"null{n}", ASSOC_COMM, scalars.Q, n, {})


def real_rigid(n: int, s: int) -> Algebra:
    """The real rigid commutative table with s complex-type blocks.

    Block i (coords 2i-1, 2i): e_{2i-1}^2 = e_{2i-1},
    e_{2i-1} e_{2i} = e_{2i}, e_{2i}^2 = -e_{2i-1}; remaining coordinates
    are plain idempotents e_j^2 = e_j.  real_rigid(n, 0) == m1(n).
    """
    if not (0 <= 2 * s <= n):
        raise UnknownAlgebraError("real_rigid requires 0 <= 2s <= n")
    products = {}
    for i in range(1, s + 1):
        a, b = 2 * i - 1, 2 * i
        products[(a, a)] = _unit(n, a)
        products[(a, b)] = _unit(n, b)
        products[(b, b)] = _unit(n, a, -1)
    for j in range(2 * s + 1, n + 1):
        products[(j, j)] = _unit(n, j)
    return Algebra(f"realRigid({n},{s})", ASSOC_COMM, scalars.Q, n, products)


AS_PRINTED = "as_printed"
ROTATION = "rotation"


def torus_generators(n: int, k: int, variant: str = AS_PRINTED) -> list:
    """Generators of the k-th maximal torus family on the n-dim abelian algebra.

    t_1 is the diagonal family {f_1, ..., f_n}; t_k replaces the first
    k-1 coordinate pairs by {f_{1,2p}, f_{2p-1} + f_{2p}} blocks.  Indices
    beyond the last distinct family repeat it, matching the listing.

    Variant ``as_printed`` uses the swap f(X_{2p-1}) = X_{2p},
    f(X_{2p}) = X_{2p-1}; ``rotation`` flips the second image's sign, which
    is the form realised by the solvable bracket table cross-check.
    """
    if not 1 <= k <= n:
        raise UnknownAlgebraError("torus index k must satisfy 1 <= k <= n")
    if variant not in (AS_PRINTED, ROTATION):
        raise UnknownAlgebraError(f"unknown torus variant {variant!r}")
    blocks = min(k - 1, n // 2)
    one = Fraction(1)
    sign = one if variant == AS_PRINTED else -one
    gens = []
    for p in range(1, blocks + 1):
        a, b = 2 * p - 2, 2 * p - 1
        gens.append(Matrix.from_entries({(b, a): one, (a, b): sign}, n, n))
        gens.append(Matrix.from_entries({(a, a): one, (b, b): one}, n, n))
    for j in range(2 * blocks, n):
        gens.append(Matrix.from_entries({(j, j): one}, n, n))
    return gens


def t_oplus_a(n: int, s: int) -> Algebra:
    """The 2n-dimensional solvable algebra t_n + a_n.

    Basis: Y_1..Y_n (indices 1..n, the torus part) and X_1..X_n (indices
    n+1..2n, the abelian part).  Brackets per coordinate pair i <= s:

        [Y_{2i-1}, X_{2i-1}] = -X_{2i},  [Y_{2i-1}, X_{2i}] = X_{2i-1},
        [Y_{2i},   X_{2i-1}] =  X_{2i-1}, [Y_{2i},  X_{2i}] = X_{2i},

    and [Y_j, X_j] = X_j for the remaining coordinates.
    """
    if not (0 <= 2 * s <= n):
        raise UnknownAlgebraError("t_oplus_a requires 0 <= 2s <= n")
    dim = 2 * n
    products = {}
    for i in range(1, s + 1):
        a, b = 2 * i - 1, 2 * i
        products[(a, n + a)] = _unit(dim, n + b, -1)
        products[(a, n + b)] = _unit(dim, n + a)
        products[(b, n + a)] = _unit(dim, n + a)
        products[(b, n + b)] = _unit(dim, n + b)
    for j in range(2 * s + 1, n + 1):
        products[(j, n + j)] = _unit(dim, n + j)
    return Algebra(f"t{n}+a{n}(s={s})", LIE, scalars.Q, dim, products)


def toplus_current_permutation(n: int, s: int) -> tuple:
    """Basis map identifying t_oplus_a(n, s) inside r2 (x) real_rigid(n, s).

    Position m holds the flat index of the current-algebra basis vector
    matching the m-th basis vector of t_oplus_a.  Within each complex-type
    block the indices 2i-1 and 2i swap, for the Y's exactly as for the X's;
    the plain coordinates map straight through.
    """
    perm = []
    for i in range(1, n + 1):  # Y_i = U1 (x) e_sigma(i)
        perm.append(flat_index(1, _block_swap(i, s), n))
    for i in range(1, n + 1):  # X_i = U2 (x) e_sigma(i)
        perm.append(flat_index(2, _block_swap(i, s), n))
    return tuple(perm)


def _block_swap(i: int, s: int) -> int:
    if i <= 2 * s:
        return i + 1 if i % 2 == 1 else i - 1
    return i


def permutation_matrix(perm: tuple) -> Matrix:
    """Columns: new basis vector m is the old basis vector perm[m]."""
    d = len(perm)
    return Matrix.from_entries({(perm[m] - 1, m): Fraction(1) for m in range(d)}, d, d)


# ---------------------------------------------------------------------------
# Registry and fingerprints
# ---------------------------------------------------------------------------

_CATALOG = {
    "r2": (r2, (), "nonabelian 2-dim Lie algebra, [X1,X2] = X2"),
    "abelian": (abelian, ("n",), "abelian Lie algebra of dimension n"),
    "heisenberg": (heisenberg, ("n",), "Heisenberg Lie algebra, odd dim n"),
    "sl2": (sl2, (), "simple 3-dim Lie algebra sl(2)"),
    "M1": (m1, ("q",), "q orthogonal idempotents (the split unital algebra)"),
    "null": (null_algebra, ("n",), "zero multiplication, dimension n"),
    "realRigid": (real_rigid, ("n", "s"),
                  "real rigid commutative table, s complex-type blocks"),
    "t_oplus_a": (t_oplus_a, ("n", "s"),
                  "solvable 2n-dim Lie algebra t_n + a_n"),
}


def catalog_names() -> list:
    return sorted(_CATALOG)


def catalog_entry(name: str):
    if name not in _CATALOG:
        raise UnknownAlgebraError(f"unknown catalog algebra {name!r}")
    return _CATALOG[name]


def make(name: str, **params) -> Algebra:
    """Construct a catalog algebra by name; see ``catalog_names``."""
    ctor, wanted, _ = catalog_entry(name)
    unknown = set(params) - set(wanted)
    if unknown:
        raise UnknownAlgebraError(f"{name} does not take {sorted(unknown)}")
    missing = [p for p in wanted if p not in params]
    if missing and not (name == "heisenberg" and missing == ["n"]):
        raise UnknownAlgebraError(f"{name} requires parameters {missing}")
    return ctor(**params)


@dataclass(frozen=True)
class Fingerprint:
    """Invariant record; equality is necessary, not sufficient, for isomorphism."""

    dim: int
    kind: str
    center_dim: Optional[int] = None
    is_solvable: Optional[bool] = None
    is_nilpotent: Optional[bool] = None
    der_dim: Optional[int] = None
    h1_dim: Optional[int] = None
    h2_dim: Optional[int] = None
    unit_exists: Optional[bool] = None
    idempotent_count: Optional[int] = None


def fingerprint(alg: Algebra) -> Fingerprint:
    """All invariants the other modules compute, in one deterministic record."""
    from .cohomology import _chevalley_dims, _leibniz_is_minus_d1, harrison_h2
    from .structure import find_idempotents, find_unit, is_nilalgebra, series

    require_identities(alg)
    if alg.kind == LIE:
        rep = series(alg)
        (h1, h2), ds = _chevalley_dims(alg, 2)
        # Der is the kernel of the Leibniz system and Z^1 that of d^1: two
        # assemblers of one operator up to sign and column order.
        _leibniz_is_minus_d1(alg, ds[1])
        return Fingerprint(
            dim=alg.dim,
            kind=alg.kind,
            center_dim=alg.dim - h1.dim_B,  # Z(g) = Z^0, of dim n - rank d^0
            is_solvable=rep.is_solvable,
            is_nilpotent=rep.is_nilpotent,
            der_dim=h1.dim_Z,
            h1_dim=h1.dim_H,
            h2_dim=h2.dim_H,
        )
    # Der is the kernel of the Leibniz system, whose rank is B^2 of Harrison.
    h2 = harrison_h2(alg)
    return Fingerprint(
        dim=alg.dim,
        kind=alg.kind,
        is_nilpotent=is_nilalgebra(alg),
        der_dim=alg.dim ** 2 - h2.dim_B,
        h2_dim=h2.dim_H,
        unit_exists=find_unit(alg) is not None,
        idempotent_count=len(find_idempotents(alg)),
    )
