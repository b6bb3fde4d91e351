"""Self-tests of the benchmark: generator, checker, time limit, tracer, oracle.

Run from the root of the repository:  python3 -m pytest -q bench/tests
"""

import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import currentalg as ca
import oracle
import run
import tracer
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tmpdir_str(tmp_path):
    return str(tmp_path)


def _rounds(workload, seed, tmpdir, n=2):
    gen = workloads.GENERATORS[workload](random.Random(seed), tmpdir)
    labels = [[q.label for q in gen.round()] for _ in range(n)]
    return labels, gen.rng.getstate()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_queries(workload, tmpdir_str):
    first = _rounds(workload, 7, tmpdir_str)
    assert first == _rounds(workload, 7, tmpdir_str)
    assert first != _rounds(workload, 8, tmpdir_str)


def _query(workload, tmpdir, kind, label_part=""):
    gen = workloads.GENERATORS[workload](random.Random(3), tmpdir)
    return next(q for q in gen.round() if q.kind == kind and label_part in q.label)


def test_checker_rejects_wrong_answers(tmpdir_str):
    har = _query("cohomology_sweep", tmpdir_str, "harrison_h2", "null(3)")
    right = har.run()
    assert har.check(right) is None
    wrong = ca.CohomologyDims(dim_Z=right.dim_Z, dim_B=right.dim_B + 1,
                              dim_H=right.dim_H - 1)
    assert har.check(wrong)

    idem = _query("idempotent_split", tmpdir_str, "find_idempotents", "M1(4)")
    found = idem.run()
    assert idem.check(found) is None
    assert idem.check(found[:-1])
    assert idem.check(found[:-1] + found[:1])

    cli = _query("cli_probe", tmpdir_str, "cli.catalog_emit")
    assert cli.check(cli.run()) is None
    assert cli.check((2, "", "usage error"))


def test_overrun_counts_as_failed():
    def spin():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass

    slow = workloads.Query("spin", "spin", spin, lambda r: None)
    fast = workloads.Query("noop", "noop", lambda: 1, lambda r: None)
    started = time.perf_counter()
    tally = run.run_phase(iter([[slow, fast]]), 0.01, 0.2)
    assert time.perf_counter() - started < 2
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "limit" in tally.failures[0][1]


def _answers(queries, trace=None):
    out = []
    for i, q in enumerate(queries):
        out.append(q.run() if trace is None else trace.run_query(i, q.kind, q.run))
    return out


CHEAP_COHOMOLOGY = [c for c in workloads.COHOMOLOGY_CELLS
                    if c[2] in (workloads.M1[1], workloads.M1[2], workloads.NULL[2],
                                workloads.NULL[3], workloads.RR21, workloads.RR31)
                    and c[1] not in (workloads.H5, workloads.H7)
                    and c[:3] not in {("rigidity_certificate", workloads.SL2, workloads.M1[2]),
                                      ("rigidity_certificate", workloads.H3, workloads.M1[2])}]


def test_traced_and_untraced_answers_agree(tmpdir_str):
    def build():
        coho = workloads.CohomologySweep(random.Random(5))
        idem = workloads.IdempotentSplit(random.Random(5))
        cli = workloads.CliProbe(random.Random(5), tmpdir_str)
        return ([coho.query(*c) for c in CHEAP_COHOMOLOGY] + idem.round()[:30] + cli.round())

    plain = _answers(build())
    t = tracer.Tracer()
    t.install()
    try:
        traced = _answers(build(), t)
    finally:
        t.uninstall()
    assert plain == traced
    metrics, table = t.summary(1.0, 1.0)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["cohomology.chevalley_delta.calls"] > 0
    assert metrics["linalg.rref.calls"] > 0 and metrics["io.bytes"] > 0
    assert abs(metrics["trace.accounted_frac"] - 1) < 1e-6
    # uninstall restored every binding
    import currentalg.cohomology as coh
    import currentalg.linalg as lin
    assert coh.rank is lin.rank and not hasattr(lin.rref, "__wrapped__")


@pytest.mark.parametrize("q", [1, 2, 3])
def test_oracle_closed_forms(q):
    assert oracle.chevalley(oracle.tensor(oracle.r2(), oracle.m1(q)), 2).H == 0
    assert oracle.harrison(oracle.m1(q)).H == 0
    assert oracle.harrison(oracle.null(q)).H == q * q * (q + 1) // 2
    if q <= 2:
        assert oracle.chevalley(oracle.tensor(oracle.sl2(), oracle.m1(q)), 2).H == 0


def _compose(outer_rows, inner_rows, inner_cols):
    """Rows of outer . inner as sparse dicts."""
    out = []
    for row in outer_rows:
        acc = {}
        for k, v in row.items():
            for c, w in inner_rows[k].items():
                acc[c] = acc.get(c, 0) + v * w
        out.append({c: v for c, v in acc.items() if v})
    return out


@pytest.mark.parametrize("alg", [oracle.sl2(), oracle.heisenberg(5), oracle.t_oplus_a(2, 1),
                                 oracle.tensor(oracle.r2(), oracle.real_rigid(2, 1))])
def test_oracle_coboundary_squares_to_zero(alg):
    d0, d1, d2 = oracle.d0_rows(alg), oracle.d1_rows(alg), oracle.d2_rows(alg)
    assert all(not r for r in _compose(d1, d0, alg.dim))
    assert all(not r for r in _compose(d2, d1, alg.dim ** 2))


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_probe",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
