"""Seeded query generators for the three workloads.

A workload is an endless stream of rounds drawn from ``random.Random(seed)``.
Each round is a stratified draw: every cell of the workload's ladder
(query kind x family x size x field x basis) appears once, the seed draws
the random unimodular twists and the order.  Whole rounds therefore cost
the same on every seed, which keeps the end-to-end figures steady, while
the concrete inputs differ from seed to seed.

A :class:`Query` has a timed ``run`` that starts from catalog parameters
or a file, so it pays for building or parsing its algebra, and an untimed
``check`` that compares the answer with the oracle or a closed form.
"""

from __future__ import annotations

import io as _io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import currentalg as ca
from currentalg import cli as ca_cli

import oracle

# Tail percentile per workload, fixed so that every later run reports the same
# statistic: each has at least ten samples beyond it in a 30 s run at the seed
# commit and falls inside one cell's group of samples, not between two cells
# of different cost, which would make it jump from run to run.
TAIL_PERCENTILE = {"cohomology_sweep": 90, "idempotent_split": 97, "cli_probe": 99.5}


@dataclass
class Query:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _spec(name, **params):
    return (name, tuple(sorted(params.items())))


def _make(spec):
    return ca.make(spec[0], **dict(spec[1]))


def _oracle(spec):
    return oracle.make(spec[0], dict(spec[1]))


def _name(spec):
    inner = ",".join(str(v) for _, v in spec[1])
    return f"{spec[0]}({inner})" if inner else spec[0]


def unimodular(rng, n):
    """Random integer matrix of determinant 1 (rows): L U, bidiagonal factors with +-1.

    Every twist has the same tridiagonal shape, so twisted tables have about
    the same density on every seed and twisted queries cost about the same.
    """
    lower = [[1 if i == j else rng.choice((-1, 1)) if j == i - 1 else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 1)) if j == i + 1 else 0 for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _pair(c):
    """A package scalar as an exact (re, im) pair."""
    if hasattr(c, "im"):
        return (Fraction(c.re), Fraction(c.im))
    return (Fraction(c), Fraction(0))


def _to_canonical(f, vec):
    """f . vec for an integer matrix f: twisted coordinates -> canonical ones."""
    pairs = [_pair(c) for c in vec]
    if f is None:
        return tuple(pairs)
    return tuple((sum(a * p[0] for a, p in zip(row, pairs)),
                  sum(a * p[1] for a, p in zip(row, pairs))) for row in f)


def _dims_error(got, want, what):
    triple = (got.dim_Z, got.dim_B, got.dim_H)
    if triple != (want.Z, want.B, want.H):
        return f"{what}: got Z,B,H={triple}, want {(want.Z, want.B, want.H)}"
    return None


def _first_error(*errors):
    return next((e for e in errors if e), None)


class _Cache:
    """Oracle answers for canonical inputs, computed once per key outside timing."""

    def __init__(self):
        self._memo = {}

    def get(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]


# ---------------------------------------------------------------------------
# cohomology_sweep
# ---------------------------------------------------------------------------

R2, SL2, H3 = _spec("r2"), _spec("sl2"), _spec("heisenberg", n=3)
H5, H7 = _spec("heisenberg", n=5), _spec("heisenberg", n=7)
TOA = _spec("t_oplus_a", n=2, s=1)
M1 = {q: _spec("M1", q=q) for q in range(1, 6)}
NULL = {n: _spec("null", n=n) for n in range(1, 4)}
RR21, RR31, RR42 = (_spec("realRigid", n=2, s=1), _spec("realRigid", n=3, s=1),
                    _spec("realRigid", n=4, s=2))

# (kind, g, A, variant); variant is canonical, twisted or Qi (complexified).
COHOMOLOGY_CELLS = (
    ("rigidity_certificate", R2, M1[2], "canonical"),
    ("rigidity_certificate", R2, M1[2], "twisted"),
    ("rigidity_certificate", R2, RR21, "twisted"),
    ("rigidity_certificate", R2, NULL[2], "canonical"),
    ("rigidity_certificate", SL2, M1[1], "twisted"),
    ("rigidity_certificate", H3, M1[1], "canonical"),
    ("rigidity_certificate", TOA, M1[1], "canonical"),
    ("rigidity_certificate", H5, M1[1], "canonical"),
    ("rigidity_certificate", R2, M1[3], "canonical"),
    ("rigidity_certificate", R2, M1[2], "Qi"),
    ("rigidity_certificate", SL2, M1[2], "canonical"),
    ("rigidity_certificate", H3, M1[2], "canonical"),
    ("rigidity_certificate", H3, M1[2], "twisted"),
    ("chevalley_dims1", R2, M1[4], "canonical"),
    ("chevalley_dims1", TOA, M1[2], "canonical"),
    ("chevalley_dims1", H7, M1[1], "canonical"),
    ("chevalley_dims1", SL2, RR21, "canonical"),
    ("chevalley_dims1", H3, M1[2], "canonical"),
    ("chevalley_dims1", R2, M1[3], "canonical"),
    ("chevalley_dims1", SL2, NULL[2], "canonical"),
    ("chevalley_dims1", H3, NULL[2], "canonical"),
    ("chevalley_dims1", R2, M1[2], "Qi"),
    ("chevalley_dims1", H5, M1[1], "twisted"),
    ("h1_current_formula", R2, M1[4], "canonical"),
    ("h1_current_formula", SL2, M1[2], "twisted"),
    ("h1_current_formula", SL2, M1[2], "canonical"),
    ("h1_current_formula", R2, M1[3], "canonical"),
    ("h1_current_formula", H3, RR21, "canonical"),
    ("h1_current_formula", H3, NULL[2], "canonical"),
    ("h1_current_formula", TOA, M1[1], "twisted"),
    ("h1_current_formula", R2, NULL[3], "canonical"),
    ("rigid_in_Lpq", R2, M1[4], "canonical"),
    ("rigid_in_Lpq", SL2, RR21, "twisted"),
    ("rigid_in_Lpq", H3, M1[2], "canonical"),
    ("rigid_in_Lpq", TOA, NULL[2], "canonical"),
    ("rigid_in_Lpq", R2, M1[3], "Qi"),
    ("harrison_h2", None, M1[4], "canonical"),
    ("harrison_h2", None, M1[3], "twisted"),
    ("harrison_h2", None, NULL[3], "canonical"),
    ("harrison_h2", None, RR31, "canonical"),
    ("harrison_h2", None, RR42, "canonical"),
    ("harrison_h2", None, M1[3], "Qi"),
)


def _prepare(alg, variant, f):
    if variant == "Qi":
        return ca.complexify(alg)
    if variant == "twisted":
        return ca.change_basis(alg, ca.Matrix(f))
    return alg


class CohomologySweep:
    """Coboundary assembly and elimination on g (x) A, canonical vs twisted."""

    def __init__(self, rng, tmpdir=None):
        self.rng = rng
        self.cache = _Cache()

    def _flat(self, g, A):
        return self.cache.get(("flat", g, A), lambda: oracle.tensor(_oracle(g), _oracle(A)))

    def query(self, kind, g, A, variant):
        rng, cache = self.rng, self.cache
        label = f"{kind} {_name(g) + ' (x) ' if g else ''}{_name(A)} {variant}"
        if kind in ("rigidity_certificate", "chevalley_dims1"):
            flat = self._flat(g, A)
            f = unimodular(rng, flat.dim) if variant == "twisted" else None

            def run():
                alg = _prepare(ca.current_algebra(_make(g), _make(A)), variant, f)
                if kind == "rigidity_certificate":
                    return ca.rigidity_certificate(alg)
                return ca.chevalley_dims(alg, 1)

            if kind == "chevalley_dims1":
                want = cache.get(("ch1", g, A), lambda: oracle.chevalley(flat, 1))
                return Query(kind, label, run, lambda r: _dims_error(r, want, "H1"))
            want = cache.get(("rig", g, A), lambda: (
                oracle.chevalley(flat, 2), flat.dim ** 2 - oracle.chevalley(flat, 1).Z))

            def check(r):
                dims, orbit = want
                verdict = ca.RIGID_BY_H2_ZERO if dims.H == 0 else ca.INCONCLUSIVE
                return _first_error(
                    _dims_error(r.h2_dims, dims, "H2"),
                    r.verdict != verdict and f"verdict {r.verdict}, want {verdict}",
                    r.orbit_dim != orbit and f"orbit_dim {r.orbit_dim}, want {orbit}")
            return Query(kind, label, run, check)

        og, oA = (_oracle(g) if g else None), _oracle(A)
        fg = unimodular(rng, og.dim) if variant == "twisted" and g else None
        fA = unimodular(rng, oA.dim) if variant == "twisted" else None

        if kind == "harrison_h2":
            want = cache.get(("har", A), lambda: oracle.harrison(oA))
            run = lambda: ca.harrison_h2(_prepare(_make(A), variant, fA))
            return Query(kind, label, run, lambda r: _dims_error(r, want, "Harrison H2"))

        def factors():
            return _prepare(_make(g), variant, fg), _prepare(_make(A), variant, fA)

        if kind == "h1_current_formula":
            lhs = cache.get(("ch1", g, A), lambda: oracle.chevalley(self._flat(g, A), 1)).H
            rhs = cache.get(("h1rhs", g, A), lambda: oracle.h1_formula_rhs(og, oA))

            def check(r):
                return _first_error(
                    r.lhs_dim != lhs and f"lhs {r.lhs_dim}, want {lhs}",
                    r.rhs_dim != rhs and f"rhs {r.rhs_dim}, want {rhs}",
                    r.matches != (lhs == rhs) and f"matches {r.matches}, want {lhs == rhs}")
            return Query(kind, label, lambda: ca.h1_current_formula(*factors()), check)

        h2g = cache.get(("ch2", g), lambda: oracle.chevalley(og, 2))
        har = cache.get(("har", A), lambda: oracle.harrison(oA))
        verdict = ca.RIGID_BY_H2_ZERO if h2g.H == 0 and har.H == 0 else ca.INCONCLUSIVE

        def check(r):
            return _first_error(
                _dims_error(r.h2_lie, h2g, "H2(g)"),
                _dims_error(r.h2_harrison, har, "Harrison H2(A)"),
                r.verdict != verdict and f"verdict {r.verdict}, want {verdict}")
        return Query(kind, label, lambda: ca.rigid_in_Lpq(*factors()), check)

    def round(self):
        queries = [self.query(*cell) for cell in COHOMOLOGY_CELLS]
        self.rng.shuffle(queries)
        return queries


# ---------------------------------------------------------------------------
# idempotent_split
# ---------------------------------------------------------------------------

class _Shape:
    """Closed-form idempotent structure of A (+ null_m) in canonical coordinates."""

    def __init__(self, n, s, nil, field):
        half = Fraction(1, 2)
        zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
        self.dim = n + nil
        self.nil = nil
        prims = []  # (vector as {coord: pair}, dim of its component)
        for i in range(1, s + 1):
            a, b = 2 * i - 1, 2 * i
            if field == "Qi":
                prims.append(({a: (half, Fraction(0)), b: (Fraction(0), half)}, 1))
                prims.append(({a: (half, Fraction(0)), b: (Fraction(0), -half)}, 1))
            else:
                prims.append(({a: one}, 2))
        for j in range(2 * s + 1, n + 1):
            prims.append(({j: one}, 1))
        self.primitives = prims

        def vec(d):
            return tuple(d.get(k, zero) for k in range(1, self.dim + 1))

        self.a11 = {}  # every nonzero idempotent -> dim of its A11
        self.unit = None  # the sum of all primitives, when there are any
        for mask in range(1, 2 ** len(prims)):
            acc, dim = {}, 0
            for bit, (p, d) in enumerate(prims):
                if mask >> bit & 1:
                    dim += d
                    for k, (re, im) in p.items():
                        r0, i0 = acc.get(k, zero)
                        acc[k] = (r0 + re, i0 + im)
            self.a11[vec(acc)] = dim
            if mask == 2 ** len(prims) - 1:
                self.unit = vec(acc)
        self.primitive_set = {vec(p) for p, _ in prims}

    @property
    def count(self):
        """2^k - 1 for k primitive idempotents."""
        return 2 ** len(self.primitives) - 1


# (A family spec, nil summand dim, field, basis)
IDEMPOTENT_INPUTS = (
    (M1[3], 0, "Q", "canonical"),
    (M1[4], 0, "Q", "random"),
    (M1[5], 0, "Q", "unit-first"),
    (M1[3], 2, "Q", "random"),
    (RR31, 0, "Q", "canonical"),
    (RR42, 0, "Q", "unit-first"),
    (RR31, 0, "Qi", "random"),
    (RR21, 1, "Qi", "canonical"),
    (M1[4], 0, "Qi", "unit-first"),
    (RR42, 0, "Qi", "canonical"),
    (NULL[2], 0, "Q", "random"),
)
IDEMPOTENT_KINDS = ("find_idempotents", "orthogonal_decomposition", "pierce_auto",
                    "some_nonzero_idempotent", "find_unit")


def _unit_first(shape):
    """Columns: the canonical unit, then e_2..e_n (determinant 1)."""
    n = shape.dim
    unit = [int(re) for re, _ in shape.unit]
    return [[unit[i] if j == 0 else int(i == j) for j in range(n)] for i in range(n)]


class IdempotentSplit:
    """Commutative-side search: idempotents, Pierce splits, units."""

    def __init__(self, rng, tmpdir=None):
        self.rng = rng

    def query(self, kind, A, nil, field, basis):
        name, params = A[0], dict(A[1])
        if name == "null":
            shape = _Shape(0, 0, params["n"], field)
        else:
            n, s = params.get("n", params.get("q")), params.get("s", 0)
            shape = _Shape(n, s, nil, field)
        if basis == "random":
            f = unimodular(self.rng, shape.dim)
        elif basis == "unit-first":
            f = _unit_first(shape)
        else:
            f = None
        label = f"{kind} {_name(A)}{f' + null{nil}' if nil else ''} {field} {basis}"

        def build():
            alg = _make(A)
            if nil:
                alg = ca.direct_sum(alg, ca.make("null", n=nil))
            if field == "Qi":
                alg = ca.complexify(alg)
            return ca.change_basis(alg, ca.Matrix(f)) if f else alg

        canon = lambda v: _to_canonical(f, v)

        if kind == "find_idempotents":
            def check(found):
                got = [canon(e) for e in found]
                if len(got) != shape.count or set(got) != set(shape.a11):
                    return f"{len(got)} idempotents, want the {shape.count} of the closed form"
            return Query(kind, label, lambda: ca.find_idempotents(build()), check)

        if kind == "orthogonal_decomposition":
            def check(dec):
                got = [canon(e) for e in dec.idempotents]
                dims = sorted(c.dim for c in dec.components)
                return _first_error(
                    (len(got) != len(shape.primitive_set) or set(got) != shape.primitive_set)
                    and "idempotents are not the primitive system",
                    dims != sorted(d for _, d in shape.primitives)
                    and f"component dims {dims}",
                    dec.nil_residual.dim != shape.nil
                    and f"nil residual {dec.nil_residual.dim}, want {shape.nil}")
            return Query(kind, label, lambda: ca.orthogonal_decomposition(build()), check)

        if kind == "pierce_auto":
            def run():
                alg = build()
                return ca.pierce(alg, ca.some_nonzero_idempotent(alg))

            def check(split):
                e = canon(split.e)
                if e not in shape.a11:
                    return "split idempotent is not an idempotent of A"
                want = shape.a11[e]
                if (split.a11.dim, split.a00.dim) != (want, shape.dim - want):
                    return f"A11, A00 dims {(split.a11.dim, split.a00.dim)}, want {(want, shape.dim - want)}"
            return Query(kind, label, run, check)

        if kind == "some_nonzero_idempotent":
            def check(e):
                if e is None:
                    return None if not shape.primitives else "None for a non-nil algebra"
                return None if canon(e) in shape.a11 else "not a nonzero idempotent"
            return Query(kind, label, lambda: ca.some_nonzero_idempotent(build()), check)

        want_unit = shape.unit if not shape.nil else None

        def check(u):
            got = None if u is None else canon(u)
            return None if got == want_unit else f"unit {got}, want {want_unit}"
        return Query(kind, label, lambda: ca.find_unit(build()), check)

    def round(self):
        cells = [(k, *inp) for inp in IDEMPOTENT_INPUTS for k in IDEMPOTENT_KINDS
                 if not (inp[0][0] == "null" and k in ("orthogonal_decomposition", "pierce_auto"))]
        queries = [self.query(*c) for c in cells]
        self.rng.shuffle(queries)
        return queries


# ---------------------------------------------------------------------------
# cli_probe
# ---------------------------------------------------------------------------

def run_cli(argv):
    """One in-process ``currentalg`` invocation: (exit code, stdout, stderr)."""
    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ca_cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _fmt(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _parse_coeff(obj):
    if isinstance(obj, dict):
        return (Fraction(obj.get("re", "0")), Fraction(obj.get("im", "0")))
    return (Fraction(obj), Fraction(0))


def _parse_scalar_text(text):
    """Inverse of the package's ``str`` of a scalar, e.g. 1/2, -i, 1/2-1/2i."""
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_part, im_part = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    im_part = {"": "1", "+": "1", "-": "-1"}.get(im_part, im_part)
    return (Fraction(re_part), Fraction(im_part))


def _file_error(path, want_kind, want_field, want):
    """Compare an algebra file with an oracle table, reading the JSON directly."""
    with open(path) as fh:
        doc = json.load(fh)
    got = sorted((i, j, k, _parse_coeff(c)) for i, j, k, c in doc["constants"])
    expect = sorted((i, j, k, (c, Fraction(0))) for i, j, k, c in oracle.upper_entries(want))
    if (doc["kind"], doc["field"], doc["dim"]) != (want_kind, want_field, want.dim):
        return f"header {(doc['kind'], doc['field'], doc['dim'])}"
    return None if got == expect else "constants differ from the oracle table"


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _expect_report(result, code, fn):
    rc, out, err = result
    if rc != code:
        return f"exit {rc}, want {code}: {err.strip()[:200]}"
    if fn is None:
        return None
    try:
        data = json.loads(out)["data"]
    except (ValueError, KeyError):
        return "no JSON report"
    return fn(data)


# Pairs with dim(g) * dim(A) <= 4, so `rigidity --json` stays small.
CLI_PAIRS = ((R2, M1[1]), (R2, M1[2]), (R2, NULL[2]), (R2, RR21), (SL2, M1[1]),
             (SL2, NULL[1]), (H3, M1[1]), (H3, NULL[1]))
CLI_GROUPS = (R2, SL2, H3, TOA)
MALFORMED = ("invalid-json", "lower-triangular", "index-range", "unknown-key",
             "decimal", "missing-kind")


def _random_cochain(rng, n, entries):
    data = {}
    for _ in range(entries):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        data.setdefault((i, j), {})[rng.randint(1, n)] = Fraction(rng.choice((-2, -1, 1, 2)))
    return data


def _dense_cochain(data, n):
    return {k: tuple(v.get(s, 0) for s in range(1, n + 1)) for k, v in data.items()}


def _corrupt(rng, t):
    """A Lie table with one extra constant: Jacobi usually fails."""
    entries = [(i, j, k, c) for i, j, k, c in oracle.upper_entries(t)]
    i, j = sorted(rng.sample(range(1, t.dim + 1), 2))
    k = rng.randint(1, t.dim)
    old = {(a, b, c): v for a, b, c, v in entries}
    old[(i, j, k)] = old.get((i, j, k), 0) + rng.choice((-1, 1))
    return [(a, b, c, v) for (a, b, c), v in sorted(old.items()) if v]


class CliProbe:
    """In-process CLI sessions on files, negative inputs, library point checks."""

    def __init__(self, rng, tmpdir):
        self.rng = rng
        self.tmpdir = tmpdir
        self.cache = _Cache()

    def _path(self, slot, name):
        return os.path.join(self.tmpdir, f"s{slot}_{name}.json")

    def session(self, slot, g, A, field):
        rng, cache = self.rng, self.cache
        og, oA = _oracle(g), _oracle(A)
        flat = cache.get(("flat", g, A), lambda: oracle.tensor(og, oA))
        gfile, afile, ffile = (self._path(slot, x) for x in ("g", "a", "flat"))
        cfile, bad, worse = (self._path(slot, x) for x in ("cochain", "corrupt", "malformed"))
        tag = f"{_name(g)} (x) {_name(A)} {field}"
        fieldopt = ["--field", "Qi"] if field == "Qi" else []
        emit = lambda spec, path: fieldopt + ["catalog", "emit", spec[0], *(
            f"{k}={v}" for k, v in spec[1]), "-o", path]
        qs = []

        def cli_query(kind, argv, code, check_data=None, check_file=None, prepare=None):
            def run():
                if prepare:
                    prepare()
                return run_cli(argv)

            def check(result):
                return _first_error(_expect_report(result, code, check_data),
                                    check_file() if check_file and result[0] == code else None)
            qs.append(Query(kind, f"{kind} {tag}", run, check))

        cli_query("cli.catalog_emit", emit(g, gfile), 0,
                  check_file=lambda: _file_error(gfile, "lie", field, og))
        cli_query("cli.catalog_emit", emit(A, afile), 0,
                  check_file=lambda: _file_error(afile, "assoc-comm", field, oA))
        cli_query("cli.current", ["current", gfile, afile, "-o", ffile], 0,
                  check_file=lambda: _file_error(ffile, "lie", field, flat))
        cli_query("cli.validate", ["--json", "validate", ffile], 0,
                  lambda d: None if d["passed"] and d["violations"] == [] else "flat file fails Jacobi")

        h2 = cache.get(("ch2", g, A), lambda: oracle.chevalley(flat, 2))
        z1 = cache.get(("ch1", g, A), lambda: oracle.chevalley(flat, 1))

        def rigidity(d):
            want = {"dim_Z": h2.Z, "dim_B": h2.B, "dim_H": h2.H}
            verdict = ca.RIGID_BY_H2_ZERO if h2.H == 0 else ca.INCONCLUSIVE
            ok = (d["h2"] == want and d["H2"] == h2.H and d["verdict"] == verdict
                  and d["orbit_dim"] == flat.dim ** 2 - z1.Z)
            return None if ok else f"rigidity report {d}"
        cli_query("cli.rigidity", ["--json", "rigidity", ffile], 0, rigidity)

        fp_flat = cache.get(("fp", g, A), lambda: {
            "dim": flat.dim, "kind": "lie", "center_dim": oracle.center_dim(flat),
            "is_solvable": oracle.is_solvable(flat), "is_nilpotent": oracle.is_nilpotent(flat),
            "der_dim": z1.Z, "h1_dim": z1.H, "h2_dim": h2.H})
        ap = dict(A[1])
        shape = (_Shape(0, 0, ap["n"], field) if A[0] == "null" else
                 _Shape(ap.get("n", ap.get("q")), ap.get("s", 0), 0, field))
        fp_alg = cache.get(("fp", A, field), lambda: {
            "dim": oA.dim, "kind": "assoc-comm", "is_nilpotent": oracle.is_nilpotent(oA),
            "der_dim": oracle.derivation_dim(oA), "h2_dim": oracle.harrison(oA).H,
            "unit_exists": shape.unit is not None, "idempotent_count": shape.count})

        def fingerprint(want):
            def check(d):
                got = {k: v for k, v in d["fingerprint"].items() if k != "name"}
                return None if got == want else f"fingerprint {got}, want {want}"
            return check
        cli_query("cli.analyze", ["--json", "analyze", ffile], 0, fingerprint(fp_flat))
        cli_query("cli.analyze", ["--json", "analyze", afile], 0, fingerprint(fp_alg))

        def pierce(d):
            e = tuple(_parse_scalar_text(x) for x in d["idempotent"])
            if e not in shape.a11:
                return "pierce idempotent is not an idempotent"
            want = shape.a11[e]
            if (d["a11"]["dim"], d["a00"]["dim"]) != (want, shape.dim - want):
                return "Pierce dims differ"
        if shape.primitives:
            cli_query("cli.pierce", ["--json", "pierce", afile, "--idempotent", "auto"], 0, pierce)
        else:
            cli_query("cli.pierce", ["--json", "pierce", afile, "--idempotent", "auto"], 1,
                      lambda d: None if "nilalgebra" in d["error"] else "wrong nil report")

        # deform: a rescaled bracket extends to every order, a random cochain rarely does
        n = flat.dim
        if rng.random() < 0.5:
            lam = Fraction(rng.choice((-2, -1, 1, 2)))
            phi = {(i, j): {k: lam * c for k, c in flat.prod(i, j).items()}
                   for (i, j) in flat.table if i < j}
        else:
            phi = _random_cochain(rng, n, rng.randint(1, 2))
        order = rng.randint(1, 3)
        ok_up_to, first = oracle.first_obstruction(flat, [phi], order)
        cochain_doc = {"name": "phi", "field": "Q", "dim": n, "degree": 2,
                       "entries": [[i, j, k, _fmt(c)] for (i, j), v in sorted(phi.items())
                                   for k, c in sorted(v.items()) if c]}

        def deform(d):
            want = None if first is None else {"order": first[0], "triple": list(first[1])}
            ok = d["ok_up_to"] == ok_up_to and d["first_obstruction"] == want
            return None if ok else f"deform report {d}, want {ok_up_to} {want}"
        cli_query("cli.deform",
                  ["--json", "deform", ffile, "--cochain", cfile, "--order", str(order)],
                  0 if first is None else 1, deform,
                  prepare=lambda: _write_json(cfile, cochain_doc))

        # negative inputs: a corrupted table (exit 1) and a malformed file (exit 2)
        base = _oracle(CLI_GROUPS[slot % len(CLI_GROUPS)])
        rows = _corrupt(rng, base)
        violations = [list(v) for v in oracle.identity_violations(
            oracle.from_upper("lie", base.dim, rows))]
        corrupt_doc = {"name": "corrupt", "kind": "lie", "field": "Q", "dim": base.dim,
                       "constants": [[i, j, k, _fmt(c)] for i, j, k, c in rows]}
        cli_query("cli.validate_corrupt", ["--json", "validate", bad], 1 if violations else 0,
                  lambda d: None if d["violations"] == violations else "violation tuples differ",
                  prepare=lambda: _write_json(bad, corrupt_doc))
        kind = MALFORMED[rng.randrange(len(MALFORMED))]
        text = _malformed(kind, corrupt_doc)

        def write_malformed():
            with open(worse, "w") as fh:
                fh.write(text)
        cli_query("cli.malformed", [rng.choice(("validate", "analyze")), worse], 2,
                  prepare=write_malformed)
        return qs

    def point_checks(self, g, tg, tA):
        """Library calls with seeded random cochains and operators."""
        rng = self.rng
        qs = []
        og = _oracle(g)
        n = og.dim
        phi = _random_cochain(rng, n, rng.randint(1, 3))
        if rng.random() < 0.5:  # a multiple of the bracket is always a cocycle
            phi = {(i, j): dict(og.prod(i, j)) for (i, j) in og.table if i < j}
        want = oracle.first_obstruction(og, [phi], 1)[1] is None
        cochain = lambda data: ca.ChevalleyCochain(2, n, _dense_cochain(data, n))
        qs.append(Query("infinitesimal_check", f"infinitesimal_check {_name(g)}",
                        lambda: ca.infinitesimal_check(_make(g), cochain(phi)),
                        lambda r: None if r == want else f"got {r}, want {want}"))

        phi2 = _random_cochain(rng, n, rng.randint(1, 2))
        order = rng.randint(2, 3)
        want_def = oracle.first_obstruction(og, [phi, phi2], order)

        def deform():
            d = ca.TruncatedDeformation(base=_make(g), cochains=(cochain(phi), cochain(phi2)),
                                        order=order)
            return ca.truncated_deformation_check(d)
        qs.append(Query("truncated_deformation_check", f"truncated_deformation_check {_name(g)}",
                        deform,
                        lambda r: None if (r.ok_up_to, r.first_obstruction) == want_def
                        else f"got {(r.ok_up_to, r.first_obstruction)}, want {want_def}"))

        otg, otA = _oracle(tg), _oracle(tA)
        p, q = otg.dim, otA.dim
        rand = lambda k: [[rng.randint(-1, 1) for _ in range(k)] for _ in range(k)]
        ident = lambda k: [[int(i == j) for j in range(k)] for i in range(k)]
        choice = rng.randrange(3)
        if choice == 0:  # ad x (x) id is a derivation of g (x) A
            x = rng.randint(1, p)
            f1 = [[otg.prod(x, j).get(i, 0) for j in range(1, p + 1)] for i in range(1, p + 1)]
            f2 = ident(q)
        elif choice == 1:
            f1, f2 = ident(p), rand(q)
        else:
            f1, f2 = rand(p), rand(q)
        want_td = oracle.is_tensor_derivation(otg, otA, f1, f2)
        qs.append(Query("is_tensor_derivation", f"is_tensor_derivation {_name(tg)} (x) {_name(tA)}",
                        lambda: ca.is_tensor_derivation(_make(tg), _make(tA),
                                                        ca.Matrix(f1), ca.Matrix(f2)),
                        lambda r: None if r == want_td else f"got {r}, want {want_td}"))

        rows = _corrupt(rng, otg) if rng.random() < 0.5 else oracle.upper_entries(otg)
        bad_g = oracle.from_upper("lie", p, rows)
        want_pq = oracle.flat_jacobi_residuals(bad_g, otA)
        products = {}
        for i, j, k, c in rows:
            products.setdefault((i, j), [0] * p)[k - 1] = c

        def residuals():
            gg = ca.Algebra("g", ca.LIE, "Q", p, {key: tuple(v) for key, v in products.items()})
            return ca.jacobi_pq_residuals(gg, _make(tA))

        def check_pq(res):
            got = {(*r.flat_triple(q), r.flat_target(q)): Fraction(r.value) for r in res}
            return None if got == want_pq else f"{len(got)} residuals, want {len(want_pq)}"
        qs.append(Query("jacobi_pq_residuals", f"jacobi_pq_residuals {_name(tg)}* (x) {_name(tA)}",
                        residuals, check_pq))
        return qs

    def round(self):
        """Every pair once over Q and once over Q(i), in a seeded order."""
        sessions = [(g, A, field) for g, A in CLI_PAIRS for field in ("Q", "Qi")]
        self.rng.shuffle(sessions)
        queries = []
        for slot, (g, A, field) in enumerate(sessions):
            queries.extend(self.session(slot, g, A, field))
            queries.extend(self.point_checks(CLI_GROUPS[slot % len(CLI_GROUPS)], g, A))
        return queries


def _malformed(kind, doc):
    doc = json.loads(json.dumps(doc))
    if kind == "invalid-json":
        return json.dumps(doc)[:-7]
    if kind == "lower-triangular":
        doc["constants"].append([2, 1, 1, "1"])
    elif kind == "index-range":
        doc["constants"].append([1, doc["dim"] + 1, 1, "1"])
    elif kind == "unknown-key":
        doc["comment"] = "unexpected"
    elif kind == "decimal":
        doc["constants"].append([1, 2, 1, "0.5"])
    elif kind == "missing-kind":
        del doc["kind"]
    return json.dumps(doc)


GENERATORS = {"cohomology_sweep": CohomologySweep, "idempotent_split": IdempotentSplit,
              "cli_probe": CliProbe}
WORKLOADS = tuple(GENERATORS)


def stream(workload, seed, tmpdir):
    """Endless rounds of queries for ``workload``; the same seed gives the same stream."""
    gen = GENERATORS[workload](random.Random(seed), tmpdir)
    while True:
        yield gen.round()
