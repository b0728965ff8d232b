"""The four hypergraphical Bernardi processes and their polynomials.

A process walks the ribbon bipartite graph guided by a hypertree on one
color class (the ht side).  Edges are examined as current edges at
their cut-side endpoint: if the hypertree stays realizable without the
edge it is removed, otherwise it is kept and traversed together with
the following edge at the far endpoint.  The run stops right before any
edge would be traversed a second time from the same direction.

``bernardi_runs`` runs one variant over every hypertree of its ht side,
in family order, from one set-up of the dart table, the oracle and the
per-edge tables; ``run_bernardi`` is the same walk for one hypertree.
The walk keeps integers only; a run's named fields, steps
(``BernardiStep`` named tuples) and first-reach times are built from
them when first read.

Each run performs online checks of the structural guarantees (each edge
current once, traversed subgraph acyclic: a new traversed edge never
ends at a node already reached, kept/traversed edges never removed);
a violation raises TheoremViolation and means either a bug or
a genuine counterexample, which the campaign machinery re-verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, bip
from .hypertree import Poly, _family, _inactive, _opposite, _oracle, _side_key


class TheoremViolation(AssertionError):
    """An invariant that is a theorem failed during execution."""


@dataclass(frozen=True)
class ProcessVariant:
    ht_side: str
    cut_side: str

    def __str__(self):
        tag = {EMERALD: "E", VIOLET: "V"}
        return f"ht{tag[self.ht_side]}-cut{tag[self.cut_side]}"

    @classmethod
    def parse(cls, text: str) -> "ProcessVariant":
        table = {str(v): v for v in VARIANTS}
        if text not in table:
            raise ValueError(f"unknown variant {text!r}; choose from {sorted(table)}")
        return table[text]


HT_E_CUT_V = ProcessVariant(EMERALD, VIOLET)
HT_E_CUT_E = ProcessVariant(EMERALD, EMERALD)
HT_V_CUT_V = ProcessVariant(VIOLET, VIOLET)
HT_V_CUT_E = ProcessVariant(VIOLET, EMERALD)
VARIANTS = (HT_E_CUT_V, HT_E_CUT_E, HT_V_CUT_V, HT_V_CUT_E)


class BernardiStep(NamedTuple):
    edge: str
    decision: str          # "removed" or "kept"
    live_before: int       # current-graph edge count when examined
    traversals: tuple[tuple[str, str], ...]  # (edge, from-color) records


class _Trace(NamedTuple):
    """What the walk records of one run, in integers."""
    graph: RibbonBipartiteGraph
    order: list[int]        # edge indices by current time
    live: bytearray         # the final live flags by edge index
    after: list[int]        # each kept edge's far-side edge, -1 for none
    reached: list[int]      # node indices in first-reach order
    reach_time: list[int]   # by node index


@dataclass(frozen=True)
class BernardiRun:
    """One run's record: the hypertree's values by ht-side position
    (``key``), those positions by first current edge (``class_order``),
    and a trace from which the named fields, ``steps`` and
    ``first_reached`` are built when first read, and kept."""
    variant: ProcessVariant
    key: tuple[int, ...]
    class_order: tuple[int, ...]
    _trace: _Trace = field(repr=False)

    @cached_property
    def hypertree(self) -> tuple[tuple[str, int], ...]:
        return tuple(zip(self._trace.graph.side_nodes(self.variant.ht_side), self.key))

    @cached_property
    def result_tree(self) -> frozenset[str]:
        return frozenset(compress(self._trace.graph.edge_ids, self._trace.live))

    @cached_property
    def current_edge_order(self) -> tuple[str, ...]:
        return tuple(map(self._trace.graph.edge_ids.__getitem__, self._trace.order))

    @cached_property
    def steps(self) -> tuple[BernardiStep, ...]:
        g, order, live, after, _, _ = self._trace
        ids, cut = g.edge_ids, self.variant.cut_side
        far, n_live, steps = _opposite(cut), len(ids), []
        for e in order:
            if not live[e]:
                steps.append(BernardiStep(ids[e], "removed", n_live, ()))
                n_live -= 1
            elif after[e] < 0:          # the run stopped before its far side
                steps.append(BernardiStep(ids[e], "kept", n_live, ((ids[e], cut),)))
            else:
                steps.append(BernardiStep(ids[e], "kept", n_live,
                                          ((ids[e], cut), (ids[after[e]], far))))
        return tuple(steps)

    @cached_property
    def first_reached(self) -> dict[str, int]:
        g, _, _, _, reached, reach_time = self._trace
        return {g.nodes[x]: reach_time[x] for x in reached}


def run_bernardi(g: RibbonBipartiteGraph, f: dict[str, int],
                 variant: ProcessVariant, paranoid: bool = False) -> BernardiRun:
    """Execute one Bernardi process run: the walk of ``bernardi_runs``
    for the single hypertree ``f``.

    The current edge is removed exactly when some spanning tree of the
    live graph without it realizes ``f``; kept edges lie in every such
    tree.  The run starts from the tree that the hypertree family maps
    ``f`` to (the witness) and decides each step, in order: a current
    edge outside the witness is removed; one whose removal leaves an
    endpoint below its degree cap is kept; otherwise the oracle's
    exchange primitive (``_Feasibility.avoid``) decides it on the
    witness.  A live edge that reconnects the witness without the edge
    (preferably one at its hypertree-side node x, a single exchange)
    gives a tree that moves one unit from x to the new edge's node j;
    the edge is removed exactly when j is reachable from x by exchange
    arcs (Kalman 2013: no tight set holds x and misses j), and the
    shortest-path exchange back to x becomes the witness.  With no
    reconnecting edge the edge is a bridge of the live graph and kept.
    A kept edge's refutation, x with all it reaches (the whole class
    for a bridge), is checked online to violate Kalman's inequality
    f(S) <= |N(S)| - c(S) on the live graph without the edge.

    ``paranoid`` instead starts from a fresh full search and searches on
    every step, without the family, witness or exchanges (used to
    re-verify flagged conjecture outcomes and in tests).

    The walk runs on the graph's dart table: the current edge is its dart
    at the cut-side end, a traversal the dart it leaves from.
    """
    return _walk(g, variant, [_side_key(g, variant.ht_side, f)], paranoid)[0]


def bernardi_runs(g: RibbonBipartiteGraph, variant: ProcessVariant,
                  paranoid: bool = False) -> list[BernardiRun]:
    """One run of ``variant`` per hypertree on its ht side, in the order
    of ``enumerate_hypertrees``: the walk of ``run_bernardi``, with its
    online checks, set up once for the whole family."""
    return _walk(g, variant, sorted(_family(g, variant.ht_side)), paranoid)


def _walk(g: RibbonBipartiteGraph, variant: ProcessVariant,
          keys: list[tuple[int, ...]], paranoid: bool) -> list[BernardiRun]:
    """The runs for the hypertree value tuples ``keys``, in their order.
    The dart table and the oracle with its per-edge tables are read once;
    each run then keeps its state in bytearrays by edge and by dart, and
    the reach time of each node (-1 until the walk reaches it).

    A run is one loop over darts from the base dart.  A dart at a cut-side
    end is the current edge, examined first; a removed one moves on around
    its node.  Every other dart takes the one traversal step and moves on
    after its twin (the base edge when the base node is not cut-side, a
    kept current edge, and the edge after it at the far end).  The walk
    stands on a reached node, so a new edge of the traversed subgraph
    closes a cycle exactly when its far end is already reached.  The run
    stops at the first dart already traversed.  It records only integers:
    the hypertree's values, the class order, the current-edge order, the
    live flags, each kept edge's far-side edge and the reached nodes, from
    which the record builds its names, steps and first-reach times when
    they are read."""
    side, cut = variant.ht_side, variant.cut_side
    cut_pos = 0 if cut == EMERALD else 1   # parity of a dart at a cut-side end
    oracle = _oracle(g, side)
    darts, ids = g._darts, g.edge_ids
    succ, node_of = darts.succ, darts.node
    at = oracle.at                      # each edge's position on the ht side
    ht_end, opp_end = oracle.ht_end, oracle.opp_end
    ht_nodes, degree = oracle.ht_nodes, oracle.degree
    base = node_of[darts.base]
    m, n = len(ids), len(degree)
    runs = []
    for f_key in keys:
        if paranoid:
            if oracle._search(f_key, frozenset(ids)) is None:
                raise ValueError("input vector is not a hypertree")
        else:
            member = oracle.family.get(f_key)
            if member is None:
                raise ValueError("input vector is not a hypertree")
            witness = bytearray(member.tree)
        live = bytearray([1]) * m
        live_degree = degree[:]
        traversed = bytearray(2 * m)    # by the dart a traversal leaves from
        seen_current = bytearray(m)
        order: list[int] = []
        after = [-1] * m                # each kept edge's far-side edge
        reach_time = [-1] * n
        reach_time[base] = 0
        reached = [base]

        # no turn limit: a turn examines a fresh edge (the current-once
        # check) or traverses a fresh dart (the loop guard), <= 3|E| turns
        c, now = darts.base, 0
        while not traversed[c]:  # a re-examination would re-traverse: stop right before
            if c & 1 == cut_pos:        # the current edge, at its cut-side end
                e = c >> 1
                if seen_current[e]:
                    raise TheoremViolation(f"edge {ids[e]!r} became current twice")
                seen_current[e] = 1
                order.append(e)
                now = len(order)

                # does a realization avoid e?  Updates the witness
                if paranoid:
                    removable = oracle._search(
                        f_key, frozenset(compress(ids, live)) - {ids[e]}) is not None
                elif not witness[e]:
                    removable = True
                elif live_degree[ht_end[e]] <= f_key[at[e]] + 1 or \
                        live_degree[opp_end[e]] == 1:
                    removable = False
                else:
                    live[e] = 0         # the live graph without e, for the oracle
                    refuted = oracle.avoid(witness, live, e)
                    if refuted and oracle.excess(f_key, refuted, live) <= 0:
                        raise TheoremViolation(
                            f"edge {ids[e]!r} kept by a set that violates no rank inequality")
                    live[e] = 1
                    removable = not refuted

                if removable:
                    if traversed[c ^ 1]:
                        raise TheoremViolation(f"kept/traversed edge {ids[e]!r} removed")
                    live[e] = 0
                    live_degree[node_of[c]] -= 1
                    live_degree[node_of[c ^ 1]] -= 1
                    if not live_degree[node_of[c]]:
                        raise AssertionError("removal isolated the current node")
                    c = succ[c]         # the next live dart around the node
                    while not live[c >> 1]:
                        c = succ[c]
                    continue
            elif now:                   # the far-side traversal after kept edge e
                after[e] = c >> 1

            traversed[c] = 1
            if not traversed[c ^ 1]:    # a new edge of the traversed subgraph
                x = node_of[c ^ 1]
                if reach_time[x] >= 0:
                    raise TheoremViolation(
                        f"traversed subgraph acquired a cycle at {ids[c >> 1]!r}")
                reach_time[x] = now
                reached.append(x)
            c = succ[c ^ 1]
            while not live[c >> 1]:
                c = succ[c]

        if len(order) != m:
            raise TheoremViolation("some edge never became current")
        # the traversed edges stay live and acyclic (checked online): they
        # reach every node, and the live edges are just these
        if len(reached) != n or live.count(1) != n - 1:
            raise TheoremViolation("final current graph is not a spanning tree")
        if tuple(live_degree[x] - 1 for x in ht_nodes) != f_key:
            raise TheoremViolation("result tree does not realize the hypertree")
        _check_arc_rule(g, order, cut_pos)
        runs.append(BernardiRun(
            variant, f_key, tuple(dict.fromkeys(map(at.__getitem__, order))),
            _Trace(g, order, live, after, reached, reach_time)))
    return runs


def _check_arc_rule(g: RibbonBipartiteGraph, order: list[int], cut_pos: int) -> None:
    """The current edges at each cut-side node follow its rotation from
    the earliest (consecutive arc discipline): each one after the first
    comes right after the one before it around the node.  ``order`` lists
    every edge index once, by current time; ``cut_pos`` is the dart
    parity at cut-side ends."""
    succ, node = g._darts.succ, g._darts.node
    last = [-1] * len(g.nodes)   # the latest current dart at each node
    for e in order:
        d = 2 * e + cut_pos
        x = node[d]
        if last[x] >= 0 and succ[last[x]] != d:
            raise TheoremViolation(
                f"current edges at {g.nodes[x]!r} broke the cyclic-order discipline")
        last[x] = d


def embedding_inactivities(g: RibbonBipartiteGraph, run: BernardiRun) -> tuple[int, int]:
    """(internal, external) inactivity of the run's hypertree against the
    class order that the run's current edges induce; a record other than
    a run on this graph is read by its names."""
    side = run.variant.ht_side
    oracle = _oracle(g, side)
    if isinstance(run, BernardiRun) and run._trace.graph is g:
        key, order = run.key, run.class_order
    else:
        names, key = zip(*run.hypertree)
        if names != oracle.side_nodes:
            raise ValueError(f"hypertree must be indexed by the {side} nodes")
        try:
            order = tuple(dict.fromkeys(oracle.at[g._edge_index[e]]
                                        for e in run.current_edge_order))
        except KeyError as missing:
            raise ValueError(f"current edge {missing.args[0]!r} is not an edge here") from None
    member = oracle.family.get(key)
    if member is None:
        raise ValueError(f"not a hypertree on the {side} side: {dict(run.hypertree)}")
    if len(order) != len(oracle.side_nodes):
        raise ValueError(f"a class order must list each {side} node once")
    return (len(_inactive(member, order, outgoing=True)),
            len(_inactive(member, order, outgoing=False)))


def bernardi_polynomials(g: RibbonBipartiteGraph, variant: ProcessVariant,
                         runs=None) -> tuple[Poly, Poly]:
    """The (interior, exterior) embedding polynomials of ``variant``: one
    run per hypertree, or the given ``runs`` of ``variant``, in any order."""
    if runs is None:
        runs = bernardi_runs(g, variant)
    if any(run.variant != variant for run in runs):
        raise ValueError(f"runs must be runs of {variant}")
    pairs = [embedding_inactivities(g, run) for run in runs]
    return (Poly.counting(i for i, _ in pairs),
            Poly.counting(e for _, e in pairs))


def check_composition(g: RibbonBipartiteGraph, runs, rev_runs) -> dict[str, bool]:
    """The three composition identities, from the runs of every variant
    on ``g`` and of both cut:E variants on the reversed setup, each over
    all hypertrees.  With t the ht:E cut:V outcome of f and f_v its violet
    degree vector: (a) ht:V cut:V sends f_v to t; (b) ht:E cut:E and (c)
    ht:V cut:E on the reversed setup send f and f_v to t."""
    def outcomes(variant_runs):
        return {(run.hypertree, run.result_tree) for run in variant_runs}
    base = outcomes(runs[HT_E_CUT_V])
    on_f_v = {(tuple(sorted(g.degree_vector(t, VIOLET).items())), t) for _, t in base}
    return {
        "htV-cutV-on-fV": outcomes(runs[HT_V_CUT_V]) == on_f_v,
        "htE-cutE-reversed": outcomes(rev_runs[HT_E_CUT_E]) == base,
        "htV-cutE-reversed": outcomes(rev_runs[HT_V_CUT_E]) == on_f_v,
    }


def graph_specialization_check(graph_g, tree_of_g: frozenset[str]) -> bool:
    """For an ordinary ribbon graph and one of its spanning trees, both
    ht:E processes induce the tour order of the tree on the edge class."""
    bg = bip(graph_g)
    f = {e: (1 if e in tree_of_g else 0) for e in graph_g.edge_ids}
    want = graph_g.tour_order(tree_of_g)
    for variant in (HT_E_CUT_E, HT_E_CUT_V):
        run = run_bernardi(bg, f, variant)
        if bg.induced_order(EMERALD, run.current_edge_order) != want:
            return False
    return True
