"""Span and counter recording around pmconn's public functions.

The wrappers live here, in the benchmark, and are installed by name for the
length of one traced pass.  Nothing under ``src/`` knows about them.

Each wrapped call records a span (name, start, end, parent) and adds to its
layer's counters.  A layer's inclusive time (``.s``) counts only outermost
calls of that name, so recursion (``compute_H`` calling itself for its
stability pass) is not counted twice.  Self time (``.self_s``) is the call's
duration minus the time of wrapped calls nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array

# (layer metric, module, attribute).  "Class.method" patches the method on the
# class; a plain name is patched in its defining module and in every pmconn
# module that imported the same object.  Two targets may share a metric:
# LaurentPoly.__rmul__ is a separate entry point into the same multiply.
TARGETS = (
    ("laurent.mul", "pmconn.laurent", "LaurentPoly.__mul__"),
    ("laurent.mul", "pmconn.laurent", "LaurentPoly.__rmul__"),
    ("laurent.pow", "pmconn.laurent", "LaurentPoly.__pow__"),
    ("laurent.add", "pmconn.laurent", "LaurentPoly.__add__"),
    ("laurent.invert", "pmconn.laurent", "LaurentPoly.invert"),
    ("laurent.substitute", "pmconn.laurent", "LaurentPoly.substitute"),
    ("linalg.snf_int", "pmconn.linalg", "snf_int"),
    ("linalg.homology_divisors", "pmconn.linalg", "homology_divisors"),
    ("dops.op_mul", "pmconn.dops", "op_mul"),
    ("dops.op_apply", "pmconn.dops", "op_apply"),
    ("dops.check_taylor_cocycle", "pmconn.dops", "check_taylor_cocycle"),
    ("dops.tau_transition", "pmconn.dops", "tau_transition"),
    ("connection.is_integrable", "pmconn.connection",
     "Connection.is_integrable"),
    ("connection.is_quasi_nilpotent", "pmconn.connection",
     "is_quasi_nilpotent"),
    ("frobenius.level_raise", "pmconn.frobenius", "level_raise"),
    ("frobenius.descend_rank1", "pmconn.frobenius", "descend_rank1"),
    ("frobenius.twist_decompose", "pmconn.frobenius", "twist_decompose"),
    ("cohomology.compute_H", "pmconn.cohomology", "compute_H"),
    ("cohomology.compare_theorem25", "pmconn.cohomology",
     "compare_theorem25"),
    ("cohomology.hom_space", "pmconn.cohomology", "hom_space"),
    ("witt.ghost", "pmconn.witt", "WittVector.ghost"),
    ("witt.vector_add", "pmconn.witt", "WittVector.__add__"),
    ("witt.vector_mul", "pmconn.witt", "WittVector.__mul__"),
    ("witt.vector_mul", "pmconn.witt", "WittVector.__rmul__"),
    ("witt.witt_compare", "pmconn.witt", "witt_compare"),
    ("arith.pd_product_coeff", "pmconn.arith", "pd_product_coeff"),
)

CASE = "cli.case"

# Counters beyond calls/s/self_s, keyed by the layer that feeds them.
EXTRA = {
    "laurent.mul": ("term_products",),
    "linalg.snf_int": ("cells", "max_dim", "max_entry_bits"),
}
COUNT_SUFFIXES = ("calls", "term_products", "cells", "max_dim",
                  "max_entry_bits")


def is_exact_count(metric):
    """True for the metrics that must repeat exactly at a fixed seed."""
    return metric.rsplit(".", 1)[-1] in COUNT_SUFFIXES or metric in (
        "linalg.snf_per_homology", "cli.case.count")


# Spans beyond this many are counted but not stored, so a traced pass keeps
# a bounded footprint (34 bytes per stored span).
SPAN_CAP = 1_000_000


def _terms(x):
    terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


def _max_bits(*mats):
    return max((abs(x).bit_length() for M in mats for row in M for x in row),
               default=0)


class Tracer:
    """Records spans and counters for one traced pass over ``targets``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.layers = tuple(dict.fromkeys(t[0] for t in targets))
        self.names = list(self.layers) + [CASE]
        self._index = {n: k for k, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.incl = [0.0] * len(self.names)
        self.self_ = [0.0] * len(self.names)
        self.depth = [0] * len(self.names)
        self.extra = {f"{layer}.{key}": 0
                      for layer, keys in EXTRA.items() for key in keys}
        self.snf_in_homology = 0
        self.case_times = []
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.spans_dropped = 0
        self._next_id = 0
        self._stack = []  # [span id, time of wrapped children]
        self._patches = []
        self._suites = None
        self.absent = []
        self.t0 = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _enter(self, k):
        sid = self._next_id
        self._next_id += 1
        self.depth[k] += 1
        self._stack.append([sid, 0.0])
        return sid

    def _leave(self, k, sid, t0, t1, t2):
        """Close a span opened at t0 that ended at t1; t2 is after the
        counters were updated, so the parent's self time excludes them."""
        _, child = self._stack.pop()
        dt = t1 - t0
        self.depth[k] -= 1
        self.calls[k] += 1
        self.self_[k] += dt - child
        if not self.depth[k]:
            self.incl[k] += dt
        parent = -1
        if self._stack:
            self._stack[-1][1] += t2 - t0
            parent = self._stack[-1][0]
        if len(self.span_name) < SPAN_CAP:
            self.span_id.append(sid)
            self.span_name.append(k)
            self.span_start.append(t0 - self.t0)
            self.span_end.append(t1 - self.t0)
            self.span_parent.append(parent)
        else:
            self.spans_dropped += 1

    def _wrap(self, name, fn):
        k = self._index[name]
        clock = time.perf_counter
        enter, leave = self._enter, self._leave
        extra = self.extra
        if name == "laurent.mul":
            def after(args, result):
                extra["laurent.mul.term_products"] += \
                    _terms(args[0]) * _terms(args[1])
        elif name == "linalg.snf_int":
            hom = self._index.get("linalg.homology_divisors")

            def after(args, result):
                M = args[0]
                r = len(M)
                c = len(M[0]) if r else 0
                extra["linalg.snf_int.cells"] += r * c
                extra["linalg.snf_int.max_dim"] = max(
                    extra["linalg.snf_int.max_dim"], r, c)
                U, _, V = result
                extra["linalg.snf_int.max_entry_bits"] = max(
                    extra["linalg.snf_int.max_entry_bits"], _max_bits(U, V))
                if hom is not None and self.depth[hom]:
                    self.snf_in_homology += 1
        else:
            after = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = enter(k)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                leave(k, sid, t0, t1, t1)
                raise
            t1 = clock()
            if after is not None:
                after(args, result)
            leave(k, sid, t0, t1, clock())
            return result

        return wrapper

    def time_case(self, fn):
        """Wrap one suite thunk so its run is a ``cli.case`` span."""
        k = self._index[CASE]

        def case():
            sid = self._enter(k)
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                t1 = time.perf_counter()
                self.case_times.append(t1 - t0)
                self._leave(k, sid, t0, t1, t1)
        return case

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every target that exists; record the others as absent."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pmconn"
                                         or n.startswith("pmconn."))]
        present = set()
        for name, modname, attr in self.targets:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname, None)
                if cls is not None and meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    present.add(name)
                continue
            fn = mod.__dict__.get(attr)
            if callable(fn):
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for key, value in list(m.__dict__.items()):
                        if value is fn:
                            self._set(m, key, wrapped)
                present.add(name)
        self.absent = [name for name in self.layers if name not in present]
        suites = getattr(sys.modules.get("pmconn.cli"), "SUITES", None)
        if isinstance(suites, dict):
            self._suites = (suites, dict(suites))
            for sname, build in list(suites.items()):
                suites[sname] = self._timed_suite(build)

    def _timed_suite(self, build):
        def timed(opts):
            anchor, cases = build(opts)
            return anchor, [(n, self.time_case(fn)) for n, fn in cases]
        return timed

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []
        if self._suites is not None:
            suites, originals = self._suites
            suites.update(originals)
            self._suites = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer numbers of this pass, keyed by metric name.  Metrics of
        an absent layer are left out."""
        out = {}
        for layer in self.layers:
            if layer in self.absent:
                continue
            k = self._index[layer]
            out[f"{layer}.calls"] = self.calls[k]
            out[f"{layer}.s"] = self.incl[k]
            out[f"{layer}.self_s"] = self.self_[k]
            for key in EXTRA.get(layer, ()):
                out[f"{layer}.{key}"] = self.extra[f"{layer}.{key}"]
        present = set(self.layers) - set(self.absent)
        if {"linalg.snf_int", "linalg.homology_divisors"} <= present:
            hom = self.calls[self._index["linalg.homology_divisors"]]
            out["linalg.snf_per_homology"] = \
                self.snf_in_homology / hom if hom else 0.0
        cases = self.case_times
        out["cli.case.count"] = len(cases)
        out["cli.case.p50_s"] = statistics.median(cases) if cases else 0.0
        out["cli.case.max_s"] = max(cases) if cases else 0.0
        return out

    def write_spans(self, path):
        """Write the stored spans as tab-separated lines:
        id, parent id, name, start s, end s (times from tracer creation)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid, k, a, b, par in zip(
                    self.span_id, self.span_name, self.span_start,
                    self.span_end, self.span_parent):
                fh.write(f"{sid}\t{par}\t{names[k]}\t{a:.9f}\t{b:.9f}\n")
