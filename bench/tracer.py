"""In-memory span tracer installed around the library's public functions.

The tracer wraps functions from outside the library: it replaces each
target, in every ``hyperbernardi`` module that binds it, by a wrapper
that records a span (name, start, end, parent) into flat arrays for the
current instance, plus counts.  At the end of each instance the spans
are folded into self times (a span's duration minus the part its child
spans cover), per span name and per (name, caller) pair, and dropped.

A wrapped generator records one span per ``next`` call, so its self time
covers the time spent iterating it and not just the call creating it.
"""

from __future__ import annotations

import math
import sys
import time
import types
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.by_caller: dict[tuple[str, str], float] = defaultdict(float)
        self.by_instance: dict[str, dict[str, float]] = {}
        self.spans = 0
        self.feas_cache_max = 0
        self.missing: list[str] = []     # wrap targets the library lacks
        self._distinct: dict[str, set] = defaultdict(set)
        self._alive: list = []
        self._new_buffers()

    def _new_buffers(self):
        self._nid = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def _declare(self, span: str | None, *counts: str | None) -> None:
        """Give a wrapped function's metrics a zero before its first call,
        so that a function a workload never reaches reads 0."""
        if span:
            self.self_s[span] += 0.0
        for key in counts:
            if key:
                self.counts[key] += 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self._start)
        self._nid.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def distinct(self, key: str, item) -> None:
        self._distinct[key].add(item)

    def keep_alive(self, obj) -> None:
        """Hold ``obj`` until the instance ends, so that ``id(obj)`` in a
        distinct-key is not reused by another object meanwhile."""
        self._alive.append(obj)

    def end_instance(self, name: str | None, graph=None) -> dict[str, float]:
        """Fold the instance's spans into self times; returns its
        per-layer (module) self times."""
        n = len(self._start)
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * n
        parent = self._parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layers: dict[str, float] = defaultdict(float)
        names, nid = self.names, self._nid
        for i in range(n):
            own = dur[i] - child[i]
            span = names[nid[i]]
            p = parent[i]
            self.self_s[span] += own
            self.by_caller[(span, names[nid[p]] if p >= 0 else "-")] += own
            layers[span.split(".", 1)[0]] += own
        self.spans += n
        for key, items in self._distinct.items():
            self.counts[key + ".distinct"] += len(items)
        self._distinct.clear()
        self._alive.clear()
        if graph is not None:
            cache = getattr(graph, "_feas_cache", None)
            if cache is not None:
                self.feas_cache_max = max(self.feas_cache_max, len(cache))
        if name is not None:
            self.by_instance[name] = dict(layers)
        self._new_buffers()
        return layers

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, fn, span: str | None, count: str | None, after=None):
        """Wrap ``fn``: record a span named ``span`` (if given), bump
        ``count`` (if given), and call ``after(args, kwargs, result)``."""
        nid = self._name_id(span) if span else None
        counts, open_, close = self.counts, self._open, self._close
        self._declare(span, count)

        if nid is None:
            def wrapper(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def generator_wrapper(self, fn, span: str, on_call, item_count: str):
        nid = self._name_id(span)
        counts, open_, close = self.counts, self._open, self._close
        self._declare(span, item_count)

        def wrapper(*args, **kwargs):
            on_call(args)
            it = fn(*args, **kwargs)
            while True:
                idx = open_(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(idx)
                counts[item_count] += 1
                yield item
        return wrapper


def _rebind(package: str, old, new) -> None:
    """Replace every module-level binding of ``old`` in the package."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(hb, tracer: Tracer) -> None:
    """Wrap the public entry points of each library module."""
    pkg = "hyperbernardi"
    graph, hypertree, bernardi = hb.graph, hb.hypertree, hb.bernardi
    jaeger, polytope, exactla = hb.jaeger, hb.polytope, hb.exactla
    t = tracer

    def func(owner, attr, span, count=None, after=None, wrap=None):
        """Wrap a module function everywhere it is bound, or a method on
        its class.  A target the library no longer has is listed in
        ``tracer.missing`` and its metrics read 0."""
        old = None if owner is None else getattr(owner, attr, None)
        if old is None:
            t.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            t._declare(span, count)
            return
        new = wrap(old) if wrap else t.span_wrapper(old, span, count, after)
        if isinstance(owner, types.ModuleType):
            _rebind(pkg, old, new)
        else:
            setattr(owner, attr, new)

    def simple(mod, prefix, attrs):
        for attr in attrs:
            func(mod, attr, f"{prefix}.{attr}", f"{prefix}.{attr}.calls")

    # graph: the spanning-tree sweep and tours
    def sweep_call(args):
        g = args[0]
        t.counts["graph.spanning_trees.calls"] += 1
        t.counts["graph.spanning_trees.subsets"] += math.comb(
            len(g.edge_ids), len(g.nodes) - 1)
    cls = graph.RibbonGraph
    func(cls, "spanning_trees", "graph.spanning_trees", "graph.spanning_trees.trees",
         wrap=lambda old: t.generator_wrapper(old, "graph.spanning_trees", sweep_call,
                                              "graph.spanning_trees.trees"))
    func(cls, "tour_of_tree", "graph.tour_of_tree", "graph.tour_of_tree.calls")

    # hypertree: enumeration, the memoized oracle and its search
    def hypertree_key(args, kwargs, result):
        g, side = args[0], args[1]
        t.keep_alive(g)
        t.distinct("hypertree.enumerate_hypertrees", (id(g), side))
    func(hypertree, "enumerate_hypertrees", "hypertree.enumerate_hypertrees",
         "hypertree.enumerate_hypertrees.calls", hypertree_key)
    t._declare(None, "graph.spanning_trees.calls", "graph.spanning_trees.subsets",
               "hypertree.enumerate_hypertrees.distinct",
               "bernardi.run_bernardi.steps", "bernardi.run_bernardi.distinct",
               "polytope.ehrhart_values.points")
    feas = getattr(hypertree, "_Feasibility", None)
    func(feas, "feasible", "hypertree.oracle", "hypertree.oracle.calls")
    func(feas, "_search", "hypertree.oracle", "hypertree.oracle.searches")
    func(hypertree, "can_transfer", None, "hypertree.can_transfer.calls")
    simple(hypertree, "hypertree", ("interior_polynomial", "exterior_polynomial"))

    # bernardi: runs and their embedding activities
    def run_key(args, kwargs, result):
        g, f, variant = args[0], args[1], args[2]
        paranoid = kwargs.get("paranoid", args[3] if len(args) > 3 else False)
        t.counts["bernardi.run_bernardi.steps"] += len(result.steps)
        t.keep_alive(g)
        t.distinct("bernardi.run_bernardi",
                   (id(g), str(variant), tuple(sorted(f.items())), paranoid))
    func(bernardi, "run_bernardi", "bernardi.run_bernardi",
         "bernardi.run_bernardi.calls", run_key)
    simple(bernardi, "bernardi", ("embedding_inactivities",))

    simple(jaeger, "jaeger", ("enumerate_jaeger_trees", "is_jaeger_tree",
                              "t_order", "characterize_edge"))

    # polytope: simplices, containment, dissection, shelling, Ehrhart
    simplex = getattr(polytope, "TreeSimplex", None)
    func(simplex, "__init__", "polytope.TreeSimplex", "polytope.TreeSimplex.constructions")
    func(simplex, "barycentric", None, "polytope.barycentric.calls")
    func(polytope, "facet_cover_status", None, "polytope.facet_cover_status.calls")

    def ehrhart_points(args, kwargs, result):
        t.counts["polytope.ehrhart_values.points"] += sum(result)
    func(polytope, "ehrhart_values", "polytope.ehrhart_values",
         "polytope.ehrhart_values.calls", ehrhart_points)
    simple(polytope, "polytope", ("trees_compatible", "verify_dissection",
                                  "normalized_simplex_volume",
                                  "ehrhart_values_scan",
                                  "geometric_shelling_check"))

    simple(exactla, "exactla", ("invert_matrix", "det_bareiss", "solve_exact"))
    simple(hb.campaign, "campaign", ("campaign_verify_all", "check_conjectures"))
    simple(hb.docio, "docio", ("parse_graph",))
    for attr in ("random_bipartite", "random_ordinary"):
        func(hb.generators, attr, "generators", "generators.calls")
