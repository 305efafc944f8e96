"""Spans and counters around ratrec's public functions, applied from outside.

ratrec's modules import each other's functions by name (`from .polys
import shift`), so a function is bound in several module namespaces; the
tracer replaces every one of those bindings, plus a few methods on their
classes, and puts the originals back when it is uninstalled.

A span records its name, start, end, parent span and request id.  Spans
stay in memory in flat arrays until `write` dumps them.  A layer's self
time is its spans' durations minus the time covered by their child spans;
within one thread children never overlap, so that is the sum of the
children's durations.  Each request runs inside a root `bench` span, whose
self time is whatever no layer covered.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

BENCH = "bench"

# (module, function, span name); every binding of the function is wrapped
SPANS = (
    ("cli", "main", "cli.main"),
    ("expressions", "parse_ratfunc", "expressions.parse"),
    ("expressions", "parse_poly", "expressions.parse"),
    ("expressions", "format_value", "expressions.format"),
    ("pipelines", "gosper", "pipelines.gosper"),
    ("pipelines", "rational_solve", "pipelines.rational_solve"),
    ("pipelines", "verify_gosper", "pipelines.verify"),
    ("pipelines", "verify_rational", "pipelines.verify"),
    ("recurrences", "poly_solutions", "recurrences.poly_solutions"),
    ("linalg", "solve_exact", "linalg.solve"),
    ("gcdseq", "gcd_limit", "gcdseq.gcd_limit"),
    ("gcdseq", "universal_denominator", "gcdseq.universal_denominator"),
    # the closed form behind universal_denominator; rational_solve calls it directly
    ("gcdseq", "_universal_from_shift", "gcdseq.universal_denominator"),
    ("denominators", "abramov_reduce", "denominators.abramov"),
    ("denominators", "gosper_rep_from_abramov", "denominators.abramov"),
    ("denominators", "gp_reduce", "denominators.gp"),
    ("denominators", "gp_rep_from_trace", "denominators.gp"),
    ("denominators", "check_gosper_rep", "denominators.check"),
    ("denominators", "check_gp_rep", "denominators.check"),
    ("dispersion", "dispersion", "dispersion.dispersion"),
    ("dispersion", "resultant", "dispersion.resultant"),
    ("dispersion", "integer_roots", "dispersion.integer_roots"),
    ("polys", "gcd_monic", "polys.gcd"),
    ("polys", "shift", "polys.shift"),
    ("polys", "divrem", "polys.divrem"),
    ("polys", "exact_div", "polys.divrem"),
    ("polys", "falling_product", "polys.falling_product"),
    ("intutil", "factorize", "intutil.factorize"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("polys", "Poly", "__mul__", "polys.mul"),
    ("polys", "Poly", "__rmul__", "polys.mul"),
    ("polys", "Poly", "__str__", "expressions.format"),
    ("polys", "RatFunc", "__str__", "expressions.format"),
)
# functions and methods that are counted, not timed: they run too often for a span
COUNTED = (
    ("recurrences", "degree_bound", "recurrences.degree_bound"),
    ("intutil", "is_probable_prime", "intutil.prime_tests"),
)
METHOD_COUNTED = (("intutil", "PrimeStream", "__next__", "polys.gcd_primes"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _span_wrapper(self, fn, span_name: str):
        nid = self.name_id(span_name)
        after = _AFTER.get(span_name)
        stack, name, parent, request, start, end = (
            self.stack, self.name, self.parent, self.request, self.start, self.end)

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(self, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts
        after = _AFTER.get(counter)

        def counted(*args, **kwargs):
            counts[counter] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, -1, args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def run_request(self, request_id: int, fn, *args):
        """Call fn(*args) as one request, inside a root `bench` span."""
        self.request_id = request_id
        return self._span_wrapper(fn, BENCH)(*args)

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in ratrec's modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ratrec" or n.startswith("ratrec.")]
        wrappers: dict[int, object] = {}
        for mod_name, attr, span in SPANS:
            fn = getattr(sys.modules[f"ratrec.{mod_name}"], attr)
            wrappers[id(fn)] = self._span_wrapper(fn, span)
        for mod_name, attr, counter in COUNTED:
            fn = getattr(sys.modules[f"ratrec.{mod_name}"], attr)
            wrappers[id(fn)] = self._count_wrapper(fn, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, attr, span in METHOD_SPANS + METHOD_COUNTED:
            cls = getattr(sys.modules[f"ratrec.{mod_name}"], cls_name)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            wrap = self._span_wrapper if (mod_name, cls_name, attr, span) in METHOD_SPANS else self._count_wrapper
            setattr(cls, attr, wrap(fn, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[list[int], list[int]]:
        """(duration, self time) of every span, in ns."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, covered)]

    def write(self, path: Path) -> None:
        """Dump the spans: a JSON header, then one binary array per field."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "parent", "request", "start", "end")
        header = {
            "names": self.names,
            "count": len(self.name),
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "time_unit": "ns",
            "counts": dict(self.counts),
        }
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)


# -- values read at the boundaries --------------------------------------------


def _after_solve(tracer: Tracer, idx: int, args, result) -> None:
    matrix = args[0]
    tracer.counts["linalg.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _after_degree_bound(tracer: Tracer, idx: int, args, result) -> None:
    tracer.counts["recurrences.degree_bound_sum"] += result


def _after_gcd_limit(tracer: Tracer, idx: int, args, result) -> None:
    tracer.counts["gcdseq.trace_len_sum"] += len(result.trace)


def _after_reduction(tracer: Tracer, idx: int, args, result) -> None:
    # the representation builders return a GosperRep; the reduction inside them has its own span
    if hasattr(result, "step_gcds"):
        tracer.counts["denominators.steps"] += len(result.step_gcds)
        tracer.counts["denominators.useful_steps"] += sum(1 for g in result.step_gcds if g.degree > 0)


def _after_dispersion(tracer: Tracer, idx: int, args, result) -> None:
    tracer.counts["dispersion.witnesses"] += len(result.witnesses)


def _after_integer_roots(tracer: Tracer, idx: int, args, result) -> None:
    parent = tracer.parent[idx]
    if parent >= 0 and tracer.span_name(parent) == "dispersion.dispersion":
        tracer.counts["dispersion.candidate_roots"] += sum(1 for k in result if k >= 0)


_AFTER = {
    "linalg.solve": _after_solve,
    "recurrences.degree_bound": _after_degree_bound,
    "gcdseq.gcd_limit": _after_gcd_limit,
    "denominators.abramov": _after_reduction,
    "denominators.gp": _after_reduction,
    "dispersion.dispersion": _after_dispersion,
    "dispersion.integer_roots": _after_integer_roots,
}
