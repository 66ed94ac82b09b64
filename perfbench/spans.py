"""In-memory span recorder and the hooks that wrap ridgeline's public functions.

Each hooked function gets one wrapper per function object, installed in every
``ridgeline`` module namespace (and class) that binds that object, so a call
is recorded whichever module makes it. A span is (name, start, end, parent,
op id); spans stay in memory and are written out after the run. Self time is
a span's duration minus the durations of its direct children, which never
overlap because the load is one thread. ``Budget.spend`` calls are counted as
search steps on the innermost open span and summed into its ancestors.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

# (module, attribute, span name). Span names are the layer (the module) and
# the function; the metrics below sum over them.
SPAN_HOOKS = (
    ("kernels", "ranks_of_nonface_complex", "kernels.ranks_of_nonface_complex"),
    ("kernels", "ranks_of_facet_complex", "kernels.ranks_of_facet_complex"),
    ("algebra", "beta_in_degree", "algebra.beta_in_degree"),
    ("algebra", "betti_table", "algebra.betti_table"),
    ("algebra", "_rational_ranks", "algebra.rational_ranks"),
    ("complexes", "is_chordal_complex", "complexes.is_chordal_complex"),
    ("complexes", "single_swap_order", "complexes.single_swap_order"),
    ("graphs", "clique_edge_partition", "graphs.clique_edge_partition"),
    ("graphs", "has_induced_star", "graphs.has_induced_star"),
    ("graphs", "is_connected", "graphs.is_connected"),
    ("graphs", "is_chordal_graph", "graphs.is_chordal_graph"),
    ("graphs", "diameter", "graphs.diameter"),
    ("linegraph", "line_graph", "linegraph.line_graph"),
    ("linegraph", "ridge_counts", "linegraph.ridge_counts"),
    ("linegraph", "edge_count_formula", "linegraph.edge_count_formula"),
    ("linegraph", "classify_triangles", "linegraph.classify_triangles"),
    ("linegraph", "count_Nt", "linegraph.count_Nt"),
    ("linegraph", "characterize_complete", "linegraph.characterize_complete"),
    ("harness", "random_pure_complex", "harness.random_pure_complex"),
    ("harness", "verify", "harness.verify"),
    ("harness", "VerifyReport.to_json", "harness.to_json"),
)
STEP_HOOK = ("errors", "Budget.spend")

KERNEL_SPANS = ("kernels.ranks_of_nonface_complex", "kernels.ranks_of_facet_complex")
GATE_SPANS = ("graphs.is_connected", "graphs.is_chordal_graph", "graphs.diameter")
LINEGRAPH_FUNCS = ("line_graph", "ridge_counts", "edge_count_formula",
                   "classify_triangles", "count_Nt", "characterize_complete")

# per-layer metric -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "kernels.calls": "count",
    "kernels.self_s": "s",
    "kernels.faces": "count",
    "algebra.beta_in_degree.calls": "count",
    "algebra.beta_in_degree.self_s": "s",
    "algebra.betti_table.calls": "count",
    "algebra.betti_table.self_s": "s",
    "algebra.rational_ranks.calls": "count",
    "algebra.rational_ranks.self_s": "s",
    "algebra.windows": "count",
    "algebra.window_yield": "ratio",
    "complexes.is_chordal_complex.calls": "count",
    "complexes.is_chordal_complex.self_s": "s",
    "complexes.is_chordal_complex.steps": "count",
    "complexes.single_swap_order.calls": "count",
    "complexes.single_swap_order.self_s": "s",
    "complexes.single_swap_order.steps": "count",
    "graphs.clique_edge_partition.calls": "count",
    "graphs.clique_edge_partition.self_s": "s",
    "graphs.clique_edge_partition.steps": "count",
    "graphs.has_induced_star.calls": "count",
    "graphs.has_induced_star.self_s": "s",
    "graphs.has_induced_star.steps": "count",
    "graphs.gate.self_s": "s",
    **{f"linegraph.{f}.self_s": "s" for f in LINEGRAPH_FUNCS},
    "harness.random_pure_complex.calls": "count",
    "harness.random_pure_complex.self_s": "s",
    "harness.verify.self_s": "s",
    "harness.to_json.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _window_nonzero(fvec, ranks, j: int, t) -> bool:
    """Reduced homology of a window of size j nonzero in dimension t, or in
    any dimension with homological index i = j - t - 1 >= 1 when t is None."""
    dims = range(-1, j - 1) if t is None else (t,)
    return any(fvec[s + 1] - ranks[s + 1] - ranks[s + 2] for s in dims)


class Tracer:
    """Spans of one process, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.steps = array("q")
        self.stack: list = []
        self.op = -1
        self.queries: list = []  # degree t of each open Betti query (None: whole table)
        self.windows = 0
        self.windows_nonzero = 0
        self.faces = 0
        self.betti_queries = 0
        self.betti_repeats = 0
        self._seen_ideals: set = set()
        self.absent: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recorded as a span; ``before(args, kwargs)`` pushes the
        degree of a Betti query, ``after(args, result)`` counts windows."""
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.steps.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            if before:
                before(args, kwargs)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if before:
                    self.queries.pop()
            if after:
                after(args, result)
            return result

        return wrapper

    def _spend(self, spend):
        stack = self.stack
        steps = self.steps

        def wrapper(budget, *args, **kwargs):
            if stack:
                steps[stack[-1]] += 1
            return spend(budget, *args, **kwargs)

        return wrapper

    def _query(self, t_of):
        def before(args, kwargs):
            ideal = args[0] if args else kwargs.get("ideal")
            self.betti_queries += 1
            if ideal in self._seen_ideals:
                self.betti_repeats += 1
            else:
                self._seen_ideals.add(ideal)
            self.queries.append(t_of(args, kwargs))

        return before

    def _ranks(self, kernel: bool, window_size=None):
        """Count the faces a kernel returns and, inside a Betti query, the
        windows scanned and those with nonzero homology in the queried degree."""
        def after(args, result):
            fvec, ranks = result
            if kernel:
                self.faces += sum(fvec)
            if window_size is not None and self.queries:
                self.windows += 1
                if _window_nonzero(fvec, ranks, window_size(args), self.queries[-1]):
                    self.windows_nonzero += 1

        return after

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target present in the imported ridgeline modules;
        targets that no longer exist are listed in ``self.absent``."""
        import ridgeline  # noqa: F401  (loads every submodule named below)

        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ridgeline" or k.startswith("ridgeline."))]
        for mod_name, attr, span_name in SPAN_HOOKS:
            owner, fn = _resolve(f"ridgeline.{mod_name}", attr)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            before, after = self._extras(span_name, fn)
            wrapper = self.wrap(fn, span_name, before, after)
            if owner is not None:  # a method: patch the class that holds it
                setattr(owner, attr.rsplit(".", 1)[1], wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        owner, spend = _resolve(f"ridgeline.{STEP_HOOK[0]}", STEP_HOOK[1])
        if spend is None:
            self.absent.append(".".join(STEP_HOOK))
        else:
            setattr(owner, "spend", self._spend(spend))

    def _extras(self, span_name: str, fn):
        """Counters taken at the span boundary: Betti queries, windows, faces."""
        if span_name == "algebra.beta_in_degree":
            sig = inspect.signature(fn)

            def degree(args, kwargs):
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                    return bound["j"] - bound["i"] - 1
                except (TypeError, KeyError):
                    return None

            return self._query(degree), None
        if span_name == "algebra.betti_table":
            return self._query(lambda args, kwargs: None), None
        if span_name == "kernels.ranks_of_nonface_complex":
            return None, self._ranks(True, lambda args: args[1].bit_count())
        if span_name == "kernels.ranks_of_facet_complex":
            return None, self._ranks(True)
        if span_name == "algebra.rational_ranks":
            return None, self._ranks(False, lambda args: args[1])
        return None, None

    # -- results ----------------------------------------------------------

    def aggregate(self, factors: list) -> dict:
        """Per span name: calls, self time and inclusive search steps. Self
        times are scaled by the calibration factor of the span's op."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        cover = [0.0] * n
        steps = list(self.steps)
        for i in range(n - 1, -1, -1):  # children have larger ids than parents
            p = self.parent[i]
            if p >= 0:
                cover[p] += dur[i]
                steps[p] += steps[i]
        agg = {name: {"calls": 0, "self_s": 0.0, "steps": 0} for name in self.names}
        for i in range(n):
            a = agg[self.names[self.name_of[i]]]
            a["calls"] += 1
            op = self.op_of[i]
            a["self_s"] += (dur[i] - cover[i]) * (factors[op] if op >= 0 else 1.0)
            a["steps"] += steps[i]
        return agg

    def layer_metrics(self, factors: list) -> dict:
        """Every per-layer metric except ``trace.overhead_ratio``, which needs
        the untraced run; ``factors`` are the per-op calibration factors."""
        agg = self.aggregate(factors)
        zero = {"calls": 0, "self_s": 0.0, "steps": 0}

        def get(name, key):
            return agg.get(name, zero)[key]

        out = {
            "kernels.calls": sum(get(s, "calls") for s in KERNEL_SPANS),
            "kernels.self_s": sum(get(s, "self_s") for s in KERNEL_SPANS),
            "kernels.faces": self.faces,
        }
        for fn in ("beta_in_degree", "betti_table", "rational_ranks"):
            out[f"algebra.{fn}.calls"] = get(f"algebra.{fn}", "calls")
            out[f"algebra.{fn}.self_s"] = get(f"algebra.{fn}", "self_s")
        out["algebra.windows"] = self.windows
        out["algebra.window_yield"] = (self.windows_nonzero / self.windows
                                       if self.windows else 0.0)
        for name in ("complexes.is_chordal_complex", "complexes.single_swap_order",
                     "graphs.clique_edge_partition", "graphs.has_induced_star"):
            for key in ("calls", "self_s", "steps"):
                out[f"{name}.{key}"] = get(name, key)
        out["graphs.gate.self_s"] = sum(get(s, "self_s") for s in GATE_SPANS)
        for fn in LINEGRAPH_FUNCS:
            out[f"linegraph.{fn}.self_s"] = get(f"linegraph.{fn}", "self_s")
        out["harness.random_pure_complex.calls"] = get("harness.random_pure_complex", "calls")
        out["harness.random_pure_complex.self_s"] = get("harness.random_pure_complex", "self_s")
        out["harness.verify.self_s"] = get("harness.verify", "self_s")
        out["harness.to_json.self_s"] = get("harness.to_json", "self_s")
        return out

    def write(self, path, factors: list) -> None:
        """All spans as gzipped JSON columns, raw times relative to the first
        span, with the calibration factor of every op."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name_of),
            "start": [t - t0 for t in self.start],
            "end": [t - t0 for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op_of),
            "steps": list(self.steps),
            "op_scale": factors,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(module_name: str, attr: str):
    """(owning class or None, function) for ``attr`` in the module, where
    ``attr`` may be ``Class.method``; (None, None) when it does not exist."""
    mod = sys.modules.get(module_name)
    if mod is None:
        return None, None
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        cls = getattr(mod, cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        return (cls, fn) if fn is not None else (None, None)
    return None, getattr(mod, attr, None)


def check_nesting(doc: dict) -> list:
    """Problems with a written span file: a span that ends before it starts,
    or that is not inside its parent, or whose op differs from its parent's."""
    problems = []
    for i, p in enumerate(doc["parent"]):
        if doc["end"][i] < doc["start"][i]:
            problems.append(f"span {i} ends before it starts")
        if p >= 0:
            if p >= i:
                problems.append(f"span {i} has a later parent {p}")
            elif not (doc["start"][p] <= doc["start"][i] and doc["end"][i] <= doc["end"][p]):
                problems.append(f"span {i} lies outside its parent {p}")
            elif doc["op"][i] != doc["op"][p]:
                problems.append(f"span {i} has another op than its parent {p}")
    return problems
