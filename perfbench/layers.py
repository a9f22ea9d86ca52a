"""Spans around the public functions and operators of each qcpn module.

Wrappers are installed from outside, only for a traced run, by rebinding
public names on the modules and classes that hold them.  Nothing here
reads a ``_``-prefixed name of ``qcpn``, so private code can change freely.

Two kinds of wrapper:

* a span records (id, parent id, name, start, end) for every call;
* a leaf operator (ring multiplication, unit inversion) is called far too
  often to keep a span per call, and calls nothing wrapped, so it is only
  counted and timed, into its enclosing span.

Self time is a call's duration minus the durations of its wrapped children.
Spans are kept in memory and written once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self s, total s], cumulative
        self.counts = defaultdict(int)  # name -> exact count, cumulative
        self.maxima = defaultdict(int)  # name -> largest value seen
        self._stack = [[0.0, 0]]  # open frames: [child seconds, span id]
        self._next_id = 1

    def snapshot(self) -> dict:
        """Cumulative figures so far; a pass's figures are the difference of two."""
        return {
            "totals": {name: list(v) for name, v in self.totals.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def span(self, name: str, fn, on_result=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration - frame[0]
                total[2] += duration
                spans.append((frame[1], parent[1], name, start, end))
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        total = self.totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack[-1][0] += duration
                total[0] += 1
                total[1] += duration
                total[2] += duration

        return wrapper

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans}, fh)


def _free_terms(tracer, poly):
    tracer.counts["ncparse.free_terms"] += poly.term_count()


def _fuzz_report(tracer, report):
    tracer.counts["sphere.fuzz_words"] += report.words
    tracer.maxima["sphere.fuzz_max_steps"] = max(tracer.maxima["sphere.fuzz_max_steps"], report.max_steps)


def install(tracer: Tracer, script_modules: list) -> None:
    """Wrap the traced entry points of qcpn and of the scripts."""
    from qcpn import basis, cli, corep, kclasses, ncparse, pairing, rings, sphere

    def method(cls, attrs, name, leaf=False):
        original = getattr(cls, attrs[0])
        wrapped = tracer.leaf(name, original) if leaf else tracer.span(name, original)
        for attr in attrs:
            # ``__rmul__ = __mul__``: wrap every alias of the same function once
            if getattr(cls, attr) is original:
                setattr(cls, attr, wrapped)

    method(rings.TruncatedPoly, ("__mul__", "__rmul__"), "rings.truncpoly_mul", leaf=True)
    method(rings.TruncatedPoly, ("invert_unit",), "rings.invert_unit", leaf=True)
    method(rings.LaurentQ, ("__mul__", "__rmul__"), "rings.laurent_mul", leaf=True)
    method(basis.BasisCertificate, ("verify",), "basis.verify")
    # NCPoly.__rmul__ delegates to __mul__, so only __mul__ is wrapped.
    method(sphere.NCPoly, ("__mul__",), "sphere.ncpoly_mul")

    modules = [m for key, m in sys.modules.items() if key == "qcpn" or key.startswith("qcpn.")]
    modules += script_modules

    def function(module, attr, name, on_result=None):
        original = getattr(module, attr)
        wrapped = tracer.span(name, original, on_result)
        for mod in modules:  # every module that imported the name holds its own binding
            for public in [k for k in dir(mod) if not k.startswith("_")]:
                if getattr(mod, public) is original:
                    setattr(mod, public, wrapped)

    function(kclasses, "line_class", "kclasses.line_class")
    function(corep, "associated_class", "corep.associated_class")
    function(pairing, "pairing_vector", "pairing.pairing_vector")
    function(basis, "certify_basis", "basis.certify_basis")
    function(basis, "basis_matrix", "basis.basis_matrix")
    function(basis, "unimodular_inverse", "basis.unimodular_inverse")
    function(basis, "nesting_check", "basis.nesting_check")
    function(ncparse, "parse_expr", "ncparse.parse_expr", _free_terms)
    function(sphere, "normal_form", "sphere.normal_form")
    function(sphere, "fuzz_confluence", "sphere.fuzz_confluence", _fuzz_report)
    function(sphere, "exhaustive_pair_check", "sphere.exhaustive_pair_check")
    function(sphere, "verify_defining_relations", "sphere.verify_relations")
    function(cli, "run", "cli.run")
    for mod in script_modules:
        function(mod, "run", f"scripts.{mod.__name__}")


def layer_metrics(before: dict, after: dict, output_bytes: int) -> dict:
    """Per-layer numbers of one pass, from the snapshots around it."""

    def delta(name: str, field: int):
        zero = [0, 0.0, 0.0]
        return after["totals"].get(name, zero)[field] - before["totals"].get(name, zero)[field]

    calls = lambda name: delta(name, 0)
    self_s = lambda name: delta(name, 1)
    total_s = lambda name: delta(name, 2)
    count = lambda name: after["counts"].get(name, 0) - before["counts"].get(name, 0)
    fuzz_s = total_s("sphere.fuzz_confluence")
    return {
        "rings.truncpoly_mul_calls": calls("rings.truncpoly_mul"),
        "rings.truncpoly_mul_s": self_s("rings.truncpoly_mul"),
        "rings.invert_unit_calls": calls("rings.invert_unit"),
        "rings.invert_unit_s": self_s("rings.invert_unit"),
        "rings.laurent_mul_calls": calls("rings.laurent_mul"),
        "rings.laurent_mul_s": self_s("rings.laurent_mul"),
        "kclasses.line_class_calls": calls("kclasses.line_class"),
        "kclasses.line_class_s": self_s("kclasses.line_class"),
        "corep.associated_class_s": self_s("corep.associated_class"),
        "pairing.pairing_vector_s": self_s("pairing.pairing_vector"),
        "basis.basis_matrix_calls": calls("basis.basis_matrix"),
        "basis.basis_matrix_s": self_s("basis.basis_matrix"),
        "basis.unimodular_inverse_s": self_s("basis.unimodular_inverse"),
        "basis.verify_s": self_s("basis.verify"),
        "basis.nesting_check_s": self_s("basis.nesting_check"),
        "ncparse.parse_expr_s": self_s("ncparse.parse_expr"),
        "ncparse.free_terms": count("ncparse.free_terms"),
        "sphere.ncpoly_mul_calls": calls("sphere.ncpoly_mul"),
        "sphere.ncpoly_mul_s": self_s("sphere.ncpoly_mul"),
        "sphere.normal_form_s": self_s("sphere.normal_form"),
        "sphere.fuzz_confluence_s": self_s("sphere.fuzz_confluence"),
        "sphere.fuzz_words_per_s": count("sphere.fuzz_words") / fuzz_s if fuzz_s else 0.0,
        "sphere.fuzz_max_steps": after["maxima"].get("sphere.fuzz_max_steps", 0),
        "sphere.verify_relations_s": self_s("sphere.verify_relations"),
        "cli.run_s": total_s("cli.run"),
        "cli.self_s": self_s("cli.run"),
        "cli.output_bytes": output_bytes,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    return "count"
