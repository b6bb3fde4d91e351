"""Outside-in tracer: wraps the package's public functions at run time.

Nothing under ``src/`` is edited.  Each public module-level function of the
span layers is replaced, in every module that binds it, by a wrapper that
records a span ``[name, start, end, parent, query]``; the per-element
functions ``scalars.coerce``, ``Algebra.multiply`` and ``Algebra.basis_product``
only bump counters, because a span per call there would measure the tracer.
Spans stay in memory; :meth:`Tracer.summary` derives self times (duration
minus the time covered by child spans) and the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

SPAN_LAYERS = ("algebra", "current", "cohomology", "linalg", "structure", "rigidity",
               "catalog", "io", "cli")

# Helpers called per vector or per polynomial: no span, their time is the caller's.
PER_ELEMENT = {
    "linalg": {"vec_add", "vec_sub", "vec_scale", "vec_zero", "vec_is_zero", "poly_trim",
               "poly_is_zero", "poly_degree", "poly_add", "poly_scale", "poly_mul",
               "poly_divmod", "poly_monic", "poly_gcd", "poly_ext_gcd", "poly_derivative",
               "poly_str"},
    "cohomology": {"increasing_tuples", "cochain_to_flat", "cochain_from_flat",
                   "symmetric_to_flat", "combinations_with_diag"},
    "current": {"flat_index", "unflat_index"},
}

ASSEMBLERS = {"cohomology.chevalley_delta_matrix": 1, "cohomology.derivations": 1,
              "cohomology.harrison_h2": 2}  # operator matrices built per call
IO_PARSE = {"io.parse_algebra_file", "io.parse_cochain_file", "io.algebra_from_dict",
            "io.cochain_from_dict"}
IO_EMIT = {"io.emit_algebra", "io.write_algebra_file", "io.algebra_to_dict"}
QUERY = "bench.query"
PACKAGE = "currentalg"

# name -> unit of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cohomology.assemble.self_s": "s/query",
    "cohomology.chevalley_delta.calls": "count/query",
    "cohomology.matrix.entries": "count/query",
    "cohomology.matrix.nnz": "count/query",
    "linalg.rref.calls": "count/query",
    "linalg.rref.self_s": "s/query",
    "linalg.rref.entries": "count/query",
    "linalg.min_poly.calls": "count/query",
    "structure.generator.attempts": "count/query",
    "structure.generator.hit_ratio": "ratio",
    "structure.factor.self_s": "s/query",
    "structure.self_s": "s/query",
    "algebra.multiply.calls": "count/query",
    "algebra.basis_product.calls": "count/query",
    "scalars.coerce.calls": "count/query",
    "algebra.check_identities.self_s": "s/query",
    "current.current_algebra.self_s": "s/query",
    "rigidity.self_s": "s/query",
    "catalog.fingerprint.assemblies": "count/call",
    "io.parse.self_s": "s/query",
    "io.emit.self_s": "s/query",
    "io.bytes": "bytes/query",
    "cli.run_command.self_s": "s/query",
    "cohomology.self_s": "s/query",
    "linalg.self_s": "s/query",
    "algebra.self_s": "s/query",
    "catalog.self_s": "s/query",
    "bench.self_s": "s/query",
    "trace.accounted_frac": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.stack = []
        self.counts = Counter()
        self.query_id = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.query_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def run_query(self, query_id, kind, fn):
        """Call ``fn`` inside a root span for one query."""
        self.query_id = query_id
        rec = self._open(f"{QUERY}:{kind}")
        try:
            return fn()
        finally:
            self._close(rec)

    def _span(self, name, fn, before=None, after=None):
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            rec = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(rec)
            if after:
                after(result)
            return result
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self, name):
        """Extra counting around particular functions: (before, after)."""
        counts = self.counts
        if name in ("io.parse_algebra_file", "io.parse_cochain_file"):
            def before(source):
                if isinstance(source, (str, os.PathLike)) and source != "-":
                    counts["io.bytes"] += os.path.getsize(source)
            return before, None
        if name == "io.emit_algebra":
            return None, lambda text: counts.update({"io.bytes": len(text.encode())})
        return None, None

    def install(self):
        import sympy

        modules = {n: m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrapped = {}  # id(original) -> wrapper
        for layer in SPAN_LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or attr in PER_ELEMENT.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                inner = self._rref_entries(obj) if name == "linalg.rref" else obj
                wrapped[id(obj)] = self._span(name, inner, *self._hooks(name))

        for mname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is None:
                    continue
                if mname.endswith(".cohomology") and attr in ("rank", "kernel_basis"):
                    wrapper = self._matrix_probe(wrapper)
                elif mname.endswith(".structure") and attr == "min_poly":
                    wrapper = self._min_poly_probe(wrapper)
                self._set(mod, attr, wrapper)

        scalars = modules[f"{PACKAGE}.scalars"]
        self._set(scalars, "coerce", self._counter("scalars.coerce.calls", scalars.coerce))
        algebra_cls = modules[f"{PACKAGE}.algebra"].Algebra
        for attr in ("multiply", "basis_product"):
            self._set(algebra_cls, attr,
                      self._counter(f"algebra.{attr}.calls", algebra_cls.__dict__[attr]))
        self._set(sympy.Poly, "factor_list",
                  self._span("structure.factor.factor_list", sympy.Poly.__dict__["factor_list"]))

    def _rref_entries(self, rref):
        counts = self.counts

        @functools.wraps(rref)
        def counted(rows):
            rows = rows if isinstance(rows, (list, tuple)) else list(rows)
            counts["linalg.rref.entries"] += len(rows) * (len(rows[0]) if rows else 0)
            return rref(rows)
        return counted

    def _matrix_probe(self, wrapper):
        """Entries and nonzeros of each matrix cohomology passes to rank or kernel_basis."""
        counts = self.counts

        @functools.wraps(wrapper)
        def probed(M):
            counts["cohomology.matrix.entries"] += M.nrows * M.ncols
            counts["cohomology.matrix.nnz"] += sum(1 for row in M.rows for x in row if x != 0)
            return wrapper(M)
        return probed

    def _min_poly_probe(self, wrapper):
        counts = self.counts

        @functools.wraps(wrapper)
        def probed(M):
            poly = wrapper(M)
            counts["structure.generator.attempts"] += 1
            if len(poly) - 1 == M.nrows:
                counts["structure.generator.hits"] += 1
            return poly
        return probed

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """(self time, linalg time beneath) per span, in recording order."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        linalg_below = [0.0] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent, _ = spans[i]
            if parent >= 0:
                child[parent] += end - start
                linalg_below[parent] += (end - start) if name.startswith("linalg.") \
                    else linalg_below[i]
        return [s[2] - s[1] - c for s, c in zip(spans, child)], linalg_below

    def summary(self, untraced_rate=None, traced_rate=None):
        """Per-layer metrics, normalised per traced query, plus a full layer table."""
        spans = self.spans
        self_t, linalg_below = self.self_times()
        by_name = Counter()
        calls = Counter()
        layer = Counter()
        queries = 0
        query_time = 0.0
        assemble = 0.0
        fp_calls = fp_assemblies = 0
        fingerprint_spans = set()
        for i, (name, start, end, parent, _) in enumerate(spans):
            by_name[name] += self_t[i]
            calls[name] += 1
            layer[name.split(".")[0]] += self_t[i]
            if name.startswith(QUERY):
                queries += 1
                query_time += end - start
            elif name in ASSEMBLERS:
                assemble += end - start - linalg_below[i]
            if name == "catalog.fingerprint":
                fp_calls += 1
                fingerprint_spans.add(i)
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name in ASSEMBLERS:
                p = parent
                while p >= 0 and p not in fingerprint_spans:
                    p = spans[p][3]
                if p >= 0:
                    fp_assemblies += ASSEMBLERS[name]
        per = max(queries, 1)
        attempts = self.counts["structure.generator.attempts"]
        metrics = {
            "cohomology.assemble.self_s": assemble / per,
            "cohomology.chevalley_delta.calls": calls["cohomology.chevalley_delta"] / per,
            "cohomology.matrix.entries": self.counts["cohomology.matrix.entries"] / per,
            "cohomology.matrix.nnz": self.counts["cohomology.matrix.nnz"] / per,
            "linalg.rref.calls": calls["linalg.rref"] / per,
            "linalg.rref.self_s": by_name["linalg.rref"] / per,
            "linalg.rref.entries": self.counts["linalg.rref.entries"] / per,
            "linalg.min_poly.calls": calls["linalg.min_poly"] / per,
            "structure.generator.attempts": attempts / per,
            "structure.generator.hit_ratio":
                self.counts["structure.generator.hits"] / attempts if attempts else 0.0,
            "structure.factor.self_s": by_name["structure.factor.factor_list"] / per,
            "structure.self_s": (layer["structure"]
                                 - by_name["structure.factor.factor_list"]) / per,
            "algebra.multiply.calls": self.counts["algebra.multiply.calls"] / per,
            "algebra.basis_product.calls": self.counts["algebra.basis_product.calls"] / per,
            "scalars.coerce.calls": self.counts["scalars.coerce.calls"] / per,
            "algebra.check_identities.self_s": by_name["algebra.check_identities"] / per,
            "current.current_algebra.self_s": by_name["current.current_algebra"] / per,
            "rigidity.self_s": layer["rigidity"] / per,
            "catalog.fingerprint.assemblies": fp_assemblies / fp_calls if fp_calls else 0.0,
            "io.parse.self_s": sum(by_name[n] for n in IO_PARSE) / per,
            "io.emit.self_s": sum(by_name[n] for n in IO_EMIT) / per,
            "io.bytes": self.counts["io.bytes"] / per,
            "cli.run_command.self_s": by_name["cli.run_command"] / per,
            "cohomology.self_s": layer["cohomology"] / per,
            "linalg.self_s": layer["linalg"] / per,
            "algebra.self_s": layer["algebra"] / per,
            "catalog.self_s": layer["catalog"] / per,
            "bench.self_s": layer["bench"] / per,
            "trace.accounted_frac": sum(layer.values()) / query_time if query_time else 0.0,
            "trace.overhead_ratio":
                untraced_rate / traced_rate if untraced_rate and traced_rate else 0.0,
        }
        table = {
            "queries": queries,
            "query_time_s": query_time,
            "layer_self_s": dict(layer),
            "function_self_s": dict(by_name),
            "function_calls": dict(calls),
            "counters": dict(self.counts),
        }
        return metrics, table
