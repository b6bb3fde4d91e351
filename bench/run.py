"""Closed-loop benchmark of currentalg with known-answer checks.

Run from the root of a checkout:

    python3 bench/run.py --workload cohomology_sweep --seed 1 --seconds 20 --trace 0

One caller, one process, no threads: the next query starts only after the
previous one returned and was checked.  Queries run in whole rounds (see
``workloads.py``) until ``--seconds`` have passed.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the first third of the
time runs untraced and the rest under the outside-in tracer, which gives the
per-layer metrics and the tracing overhead, and writes every span to
``.bench_out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
QUERY_LIMIT_S = {"cohomology_sweep": 60.0, "idempotent_split": 30.0, "cli_probe": 10.0}
OVERRUN_S = 45.0  # no query starts this long after the deadline, even mid-round
REF_EVERY_S = 0.25  # query time between two reference-kernel samples

# Set-up ends when the first query is ready: the import and a warm-up query
# that loads sympy lazily inside the factorization bridge.
WARM_UP = ("import currentalg as ca; ca.find_idempotents(ca.real_rigid(2, 1)); "
           "ca.rigidity_certificate(ca.current_algebra(ca.r2(), ca.m1(1)))")


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the package swallows it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def call_with_limit(fn, limit):
    """fn() under an in-process wall-clock limit."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_kernel():
    """Wall time of a fixed piece of exact arithmetic that shares no code with currentalg.

    The host's speed drifts by tens of percent over seconds to minutes.  The
    kernel does the same kind of work as the package's inner loops (Fraction
    products and sums, dict updates, small tuples), so dividing query times by
    its median time over the run cancels most of that drift.
    """
    start = perf_counter()
    acc = {}
    for i in range(1, 400):
        x = Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, i)
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + x
        tuple(x * k for k in range(6))
    return perf_counter() - start


class Tally:
    """Per-query wall times, failures and reference-kernel samples of one phase."""

    def __init__(self):
        self.times = []
        self.failures = []
        self.refs = []
        self.rounds = 0

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def verdicts_per_s(self):
        busy = sum(self.times)
        return (self.attempted - self.failed) / busy if busy else 0.0

    @property
    def ref_s(self):
        """Median reference-kernel time over the phase: the unit of the *_ref metrics."""
        return statistics.median(self.refs)


def run_query(query, limit, tracer=None, query_id=0):
    """(wall seconds, error or None) for one query; the check is not timed."""
    call = query.run if tracer is None else (
        lambda: tracer.run_query(query_id, query.kind, query.run))
    start = perf_counter()
    try:
        result = call_with_limit(call, limit)
    except QueryTimeout:
        return perf_counter() - start, f"over the {limit:g} s limit"
    except Exception as exc:  # any exception from the program is a failed query
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        return elapsed, query.check(result)
    except Exception as exc:  # a malformed answer the checker cannot read
        return elapsed, f"unreadable answer ({type(exc).__name__}: {exc})"


def run_phase(rounds, seconds, limit, tracer=None):
    """Whole rounds until ``seconds`` have passed, sampling the reference kernel
    after every REF_EVERY_S of query time; returns the tally."""
    tally = Tally()
    tally.refs.append(reference_kernel())
    start = perf_counter()
    since_ref = 0.0
    while perf_counter() - start < seconds:
        for query in next(rounds):
            if perf_counter() - start > seconds + OVERRUN_S:
                return tally
            elapsed, error = run_query(query, limit, tracer, tally.attempted)
            tally.times.append(elapsed)
            if error:
                tally.failures.append((query.label, error))
            since_ref += elapsed
            if since_ref >= REF_EVERY_S:
                tally.refs.append(reference_kernel())
                since_ref = 0.0
        tally.rounds += 1
    return tally


def percentile(values, p):
    """Linear-interpolation percentile of a non-empty list."""
    vals = sorted(values)
    pos = (len(vals) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def measure_setup(probes):
    """Median wall time of fresh interpreters running the import and warm-up."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); {WARM_UP}"
    times = []
    for _ in range(probes):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times), times


def import_package():
    if not os.path.isfile(os.path.join(SRC, "currentalg", "__init__.py")):
        sys.exit(f"error: {SRC}/currentalg not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import currentalg

    if not os.path.realpath(currentalg.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: imported currentalg from {currentalg.__file__}, not from {SRC}")
    exec(WARM_UP, {})


def report_line(name, value, unit, note=""):
    print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    limit = QUERY_LIMIT_S[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        if args.trace:
            result = traced_run(args, limit, tmpdir, workloads)
        else:
            result = untraced_run(args, limit, tmpdir, workloads)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))


def _header(args, tally):
    print(f"workload {args.workload} seed {args.seed}: {tally.rounds} rounds, "
          f"{tally.attempted} queries, {tally.failed} failed")
    for label, error in tally.failures[:20]:
        print(f"  FAILED {label}: {error}")


def untraced_run(args, limit, tmpdir, workloads):
    setup_s, probes = measure_setup(SETUP_PROBES)
    tally = run_phase(workloads.stream(args.workload, args.seed, tmpdir), args.seconds, limit)
    times_ms = [t * 1000 for t in tally.times]
    p = workloads.TAIL_PERCENTILE[args.workload]
    p50, tail = percentile(times_ms, 50), percentile(times_ms, p)
    beyond = sum(1 for t in times_ms if t > tail)
    ref_ms = tally.ref_s * 1000
    raw = {
        "setup_s": (setup_s, "s", f"median of {len(probes)} fresh interpreters "
                                  f"({', '.join(f'{t:.3f}' for t in probes)})"),
        "verdicts_per_s": (tally.verdicts_per_s, "1/s",
                           "correct answers per second of query wall time"),
        "query_p50_ms": (p50, "ms", ""),
        "query_tail_ms": (tail, "ms", f"p{p} of {tally.attempted} samples, {beyond} beyond it"),
        "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio",
                        "in the result line as failed / attempted"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", ""),
        "ref_kernel_ms": (ref_ms, "ms", f"median of {len(tally.refs)} reference-kernel samples"),
    }
    # The drift-cancelled forms the result line carries, in reference-kernel units.
    metrics = {
        "setup_s": raw["setup_s"][:2],
        "verdicts_per_ref": (tally.verdicts_per_s * tally.ref_s, "1/ref"),
        "query_p50_ref": (p50 / ref_ms, "ref"),
        "query_tail_ref": (tail / ref_ms, "ref"),
        "peak_rss_mb": raw["peak_rss_mb"][:2],
    }
    _header(args, tally)
    for name, (value, unit, note) in raw.items():
        report_line(name, value, unit, note)
    for name in ("verdicts_per_ref", "query_p50_ref", "query_tail_ref"):
        report_line(name, *metrics[name])
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(args, limit, tmpdir, workloads):
    import tracer as tracer_mod

    plain = run_phase(workloads.stream(args.workload, args.seed, tmpdir), args.seconds / 3, limit)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        traced = run_phase(workloads.stream(args.workload, args.seed, tmpdir),
                           args.seconds * 2 / 3, limit, tracer)
    finally:
        tracer.uninstall()
    metrics, table = tracer.summary(plain.verdicts_per_s * plain.ref_s,
                                    traced.verdicts_per_s * traced.ref_s)
    both = Tally()
    both.times = plain.times + traced.times
    both.failures = plain.failures + traced.failures
    both.rounds = plain.rounds + traced.rounds
    _header(args, both)
    print(f"  tracing overhead: {plain.verdicts_per_s:.4g} verdicts/s untraced, "
          f"{traced.verdicts_per_s:.4g} traced; reference kernel {plain.ref_s * 1000:.4g} ms "
          f"and {traced.ref_s * 1000:.4g} ms")
    print("  layer self time per traced query:")
    for layer, secs in sorted(table["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {secs / max(table['queries'], 1):12.6f} s "
              f"({secs / table['query_time_s']:6.1%})")
    for name, unit in tracer_mod.PER_LAYER.items():
        report_line(name, metrics[name], unit)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "summary": table,
                   "span_fields": ["name", "start", "end", "parent", "query"],
                   "spans": tracer.spans}, fh)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return {"correct": both.failed == 0, "attempted": both.attempted, "failed": both.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in tracer_mod.PER_LAYER.items()}}


if __name__ == "__main__":
    main()
