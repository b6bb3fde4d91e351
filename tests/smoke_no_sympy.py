"""Smoke run of currentalg with sympy blocked: the runtime needs no third-party package.

    PYTHONPATH=src python3 tests/smoke_no_sympy.py   # from a checkout
    python3 tests/smoke_no_sympy.py                  # against an installed package

Runs the benchmark warm-up, a Pierce decomposition over Q(i), sl2 (x) M1^2
and M1^3 in a unimodular basis (rigidity certificate, fingerprint, the way
back to the canonical basis, the idempotent split), the idempotents of M1^3
in a dense rational basis and over Q(i) in a complex basis, the H^1 formula for
heisenberg3 (x) M1^2, the inner derivations of sl2 and ``currentalg analyze``
on an associative commutative file, then checks that no sympy module was
loaded.
Exits nonzero on any failure.  The tier-1 suite runs it in a child process;
CI also runs it against a plain ``pip install .``.
"""

import sys
from pathlib import Path

sys.modules["sympy"] = None  # any import of sympy now raises ImportError

import currentalg as ca  # noqa: E402
from currentalg.cli import run_command  # noqa: E402

ca.find_idempotents(ca.real_rigid(2, 1))
ca.rigidity_certificate(ca.current_algebra(ca.r2(), ca.m1(1)))
assert len(ca.orthogonal_decomposition(ca.complexify(ca.real_rigid(4, 2))).idempotents) == 4


def unimodular(n):
    """L U with unit diagonals, alternating +-1 just below that of L and 1 just
    above that of U."""
    lower = ca.Matrix([[1 if i == j else (-1) ** i if i == j + 1 else 0 for j in range(n)]
                       for i in range(n)])
    upper = ca.Matrix([[1 if i == j else 1 if j == i + 1 else 0 for j in range(n)]
                       for i in range(n)])
    return lower @ upper


g = ca.current_algebra(ca.sl2(), ca.m1(2))
f = unimodular(g.dim)
twisted = ca.change_basis(g, f)
assert twisted != g
assert ca.rigidity_certificate(twisted).verdict == ca.RIGID_BY_H2_ZERO
assert ca.fingerprint(twisted).center_dim == 0
assert ca.change_basis(twisted, ca.inverse(f)) == g
assert len(ca.orthogonal_decomposition(ca.change_basis(ca.m1(3), unimodular(3))).idempotents) == 3
# a dense rational basis (the table has denominators) and a basis with complex constants
half, i = ca.scalars.coerce(ca.Q, "1/2"), ca.GaussianRational(0, 1)
dense = ca.Matrix([[1, half, -2], [half, 3, 1], [-1, ca.scalars.coerce(ca.Q, "2/3"), 1]])
assert len(ca.find_idempotents(ca.change_basis(ca.m1(3), dense))) == 7
complex_basis = ca.Matrix([[1, i, 0], [0, 1, 1 + i], [0, 0, 1]])
assert len(ca.find_idempotents(ca.change_basis(ca.complexify(ca.m1(3)), complex_basis))) == 7
assert ca.h1_current_formula(ca.heisenberg(3), ca.m1(2)).matches
assert ca.inner_derivations(ca.sl2()).dim == 3
fixture = Path(__file__).resolve().parent.parent / "fixtures" / "real_rigid_3_1.json"
assert run_command(["analyze", str(fixture)]) == 0
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "sympy" and mod is not None)
assert not loaded, loaded
print("no sympy loaded")
