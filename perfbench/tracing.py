"""Spans at the layer boundaries of aecodes, recorded by wrapping module attributes.

Each boundary is a function reached through a module attribute by the layer
that calls it, e.g. ``aecodes.errors.clebsch_gordan_t`` is how the errors
layer reaches the angular layer.  Replacing that attribute with a wrapper
records a span (name, start, end, parent) per call without touching the
program's files.  Spans stay in memory until the run ends; a span's self
time is its duration minus the durations of the wrapped spans it directly
contains.

A boundary whose module attribute no longer exists is reported absent; its
metrics read 0.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name).  One name may sit at several attributes
# when several layers import the same function.
SPAN_BOUNDARIES = (
    ("aecodes.codes", "binom", "combinatorics.binom"),
    ("aecodes.klverify", "binom", "combinatorics.binom"),
    ("aecodes.angular", "binom", "combinatorics.binom"),
    ("aecodes.klverify", "check_kl_correct", "klverify.correct"),
    ("aecodes.cli", "check_kl_correct", "klverify.correct"),
    ("aecodes.search", "check_kl_correct", "klverify.correct"),
    ("aecodes.klverify", "check_kl_detect", "klverify.detect"),
    ("aecodes.cli", "check_kl_detect", "klverify.detect"),
    ("aecodes.klverify", "check_conditions", "klverify.conditions"),
    ("aecodes.cli", "check_conditions", "klverify.conditions"),
    ("aecodes.errors", "clebsch_gordan_t", "angular.cg"),
    ("aecodes.exactnum", "squarefree_decompose", "exactnum.squarefree"),
    ("aecodes.errors", "build_ae_error_set", "errors.build"),
    ("aecodes.klverify", "build_ae_error_set", "errors.build"),
    ("aecodes.cli", "build_ae_error_set", "errors.build"),
    ("aecodes.search", "build_ae_error_set", "errors.build"),
    ("aecodes.cli", "main", "cli.main"),
    ("aecodes.codes", "construct_ae_gmde", "codes.construct"),
    ("aecodes.search", "solve_staggered", "search.solve"),
    ("aecodes.search", "enumerate_and_search", "search.enumerate"),
    ("aecodes.covariance", "operator_norm", "covariance.norm"),
    ("aecodes.covariance", "covariance_residual", "covariance.residual"),
    ("aecodes.covariance", "check_covariance", "covariance.check"),
    ("aecodes.covariance", "wigner_D", "angular.wigner_D"),
)

# Boundaries that are counted but get no span: factorization runs inside
# square-free decomposition, whose span already covers its time.
COUNT_BOUNDARIES = (("aecodes.exactnum", "factorize", "exactnum.factorize"),)


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: int = -1):
        """A root span opened by the benchmark itself (set-up, one operation)."""
        self._op = op
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every boundary; import the modules first so the attributes exist."""
        plan = [(b, self._span_wrapper) for b in SPAN_BOUNDARIES]
        plan += [(b, self._count_wrapper) for b in COUNT_BOUNDARIES]
        for (module_name, attr, name), make in plan:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: boundary {module_name}.{attr} is absent", file=sys.stderr)
                continue
            self.originals[f"{module_name}.{attr}"] = fn
            setattr(module, attr, make(fn, name))

    def totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and call count per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name_id[i]], [0.0, 0])
            entry[0] += self.end[i] - self.start[i] - child[i]
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """All spans as gzipped CSV: span, op, parent, name, start_us, duration_us."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,op,parent,name,start_us,duration_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},"
                    f"{(self.end[i] - self.start[i]) * 1e6:.1f}\n"
                )
