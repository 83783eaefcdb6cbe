"""Outside tracer for the vertexfock package.

The package binds names with ``from .ope import circle`` and the like,
so wrapping ``ope.circle`` alone would miss every call made through
another module's copy of the name.  ``Tracer.install`` therefore
rebinds each traced function in every ``vertexfock`` module namespace
that holds it, and ``Tracer.uninstall`` puts the originals back.

Each call of a traced function becomes one span: name, start, end and
the enclosing span.  Spans stay in memory, in flat arrays, until
``Tracer.write`` stores them at the end of the job; ``read_trace`` and
``layer_metrics`` turn them back into per-layer calls, self times and
sizes.  A span's self time is its duration minus the time its child
spans cover (children of one span never overlap: the package is
single-threaded).
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# Layer-boundary functions, per module.  The per-monomial helpers
# (canonicalize, mono_weight, _circle_mono, _rref, ...) are left out on
# purpose: they run millions of times per job, and a span costs about a
# microsecond, so tracing them would measure the tracer.
TRACED = {
    "cli": ("main",),
    "verify": ("identity_suite", "random_homogeneous_state"),
    "ope": ("circle", "derive", "check_identities"),
    "fock": ("basis", "gr_basis"),
    "winfinity": ("verify_rep", "bracket_basis"),
    "verma": ("singular_vectors", "project_word", "ideal_kernel", "decoupling_relation"),
    "linalg": ("kernel_basis", "solve", "rank", "rank_of_columns", "det"),
    "invariants": ("dim_table", "gr_dim_table", "commutant_basis", "span_check"),
    "exprlang": ("parse", "evaluate"),
}

# functions whose first argument is the SparseMatrix of one exact system
MATRIX_FUNCTIONS = {"linalg.kernel_basis", "linalg.solve", "linalg.rank", "linalg.det"}
# functions that return a list of basis monomials
ENUMERATORS = {"fock.basis", "fock.gr_basis"}
# layer metrics that are counts or sizes, which must repeat exactly
COUNT_SUFFIXES = (".calls", ".monos", "_entries", "rows_max", "cols_max", "nnz_sum", "fill_max")


def _size_probe(name):
    if name in MATRIX_FUNCTIONS:
        return lambda args, result: (args[0].rows, args[0].cols, len(args[0].entries))
    if name in ENUMERATORS:
        return lambda args, result: (len(result),)
    return None


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "vertexfock" or n.startswith("vertexfock."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.sizes: dict[int, tuple[int, ...]] = {}
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, sizes, probe = self._stack, self.sizes, _size_probe(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                stack.pop()
            if probe is not None:
                sizes[i] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever the package holds it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, functions in TRACED.items():
            home = by_name["vertexfock." + layer]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def write(self, path, trace_id: str, gauges: dict) -> None:
        """Store the spans: one JSON header line, then the four arrays."""
        header = {
            "trace_id": trace_id,
            "names": self.names,
            "spans": len(self.span_name),
            "sizes": {str(i): list(s) for i, s in self.sizes.items()},
            "gauges": gauges,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def read_trace(path) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    header["name"], header["parent"], header["start"], header["end"] = cols
    header["sizes"] = {int(i): tuple(s) for i, s in header["sizes"].items()}
    return header


def layer_metrics(traces: list[dict]) -> dict:
    """Per traced function, over the given jobs' traces: calls, self
    seconds and summed sizes; the largest exact system; the largest
    value of each gauge."""
    out: dict = {}
    systems = []
    for name in ENUMERATORS:
        out[f"{name}.monos"] = 0
    for trace in traces:
        names, parent, span_name = trace["names"], trace["parent"], trace["name"]
        start, end = trace["start"], trace["end"]
        covered = [0.0] * len(span_name)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        for name in names:
            out.setdefault(f"{name}.calls", 0)
            out.setdefault(f"{name}.self_s", 0.0)
        for i, nid in enumerate(span_name):
            name = names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end[i] - start[i] - covered[i]
        for i, size in trace["sizes"].items():
            name = names[span_name[i]]
            if name in ENUMERATORS:
                out[f"{name}.monos"] += size[0]
            else:
                systems.append(size)
        for gauge, value in trace["gauges"].items():
            out[gauge] = max(out.get(gauge, 0), value)
    rows, cols, nnz = max(systems, key=lambda s: (s[0] * s[1], s), default=(0, 0, 0))
    out["linalg.rows_max"] = max((s[0] for s in systems), default=0)
    out["linalg.cols_max"] = max((s[1] for s in systems), default=0)
    out["linalg.nnz_sum"] = sum(s[2] for s in systems)
    out["linalg.fill_max"] = nnz / (rows * cols) if rows * cols else 0.0
    return out
