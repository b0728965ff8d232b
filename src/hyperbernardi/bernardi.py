"""The four hypergraphical Bernardi processes and their polynomials.

A process walks the ribbon bipartite graph guided by a hypertree on one
color class (the ht side).  Edges are examined as current edges at
their cut-side endpoint: if the hypertree stays realizable without the
edge it is removed, otherwise it is kept and traversed together with
the following edge at the far endpoint.  The run stops right before any
edge would be traversed a second time from the same direction.

Each run performs online checks of the structural guarantees (each edge
current once, traversed subgraph acyclic, kept/traversed edges never
removed); a violation raises TheoremViolation and means either a bug or
a genuine counterexample, which the campaign machinery re-verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, bip
from .hypertree import (Poly, _inactive, _member, _oracle, _order_positions,
                        _side_key, enumerate_hypertrees)


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


@dataclass(frozen=True)
class BernardiStep:
    edge: str
    decision: str          # "removed" or "kept"
    live_before: int       # current-graph edge count when examined
    traversals: tuple[tuple[str, str], ...]  # (edge, from-color) records


@dataclass(frozen=True)
class BernardiRun:
    variant: ProcessVariant
    hypertree: tuple[tuple[str, int], ...]
    steps: tuple[BernardiStep, ...]
    result_tree: frozenset[str]
    current_edge_order: tuple[str, ...]
    first_reached: dict[str, int]


def run_bernardi(g: RibbonBipartiteGraph, f: dict[str, int],
                 variant: ProcessVariant, paranoid: bool = False) -> BernardiRun:
    """Execute one Bernardi process run.

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
    cut = variant.cut_side
    far = EMERALD if cut == VIOLET else VIOLET
    cut_pos = 0 if cut == EMERALD else 1   # parity of a dart at a cut-side end
    ht_pos = 0 if variant.ht_side == EMERALD else 1
    oracle = _oracle(g, variant.ht_side)
    f_key = _side_key(g, variant.ht_side, f)
    if paranoid:
        witness = oracle._search(f_key, frozenset(g.edge_ids))
    else:
        member = oracle.family.get(f_key)
        witness = None if member is None else member.tree
    if witness is None:
        raise ValueError("input vector is not a hypertree")

    darts = g._darts
    succ, node_of, rotation = darts.succ, darts.node, darts.rotation
    ids, nodes = g.edge_ids, g.nodes
    in_witness = bytearray(map(witness.__contains__, ids))
    live = bytearray([1]) * len(ids)
    live_degree = [len(ds) for ds in rotation]
    traversed = bytearray(len(succ))   # by the dart a traversal leaves from
    seen_current = bytearray(len(ids))
    parent = list(range(len(nodes)))   # union-find of the traversed edges
    steps: list[BernardiStep] = []
    order: list[int] = []
    first_reached: dict[str, int] = {}

    def next_live(d: int) -> int:
        """The first live dart after ``d`` in the rotation at its node."""
        d = succ[d]
        while not live[d >> 1]:
            d = succ[d]
        return d

    def traverse(d: int) -> None:
        if traversed[d]:
            raise AssertionError("second same-direction traversal executed")
        traversed[d] = 1
        if not traversed[d ^ 1]:  # a new edge of the traversed subgraph
            a, b = node_of[d], node_of[d ^ 1]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                raise TheoremViolation(
                    f"traversed subgraph acquired a cycle at {ids[d >> 1]!r}")
            parent[b] = a
        first_reached.setdefault(nodes[node_of[d ^ 1]], len(order))

    def removable(e: int) -> bool:
        """Does a realization avoid edge ``e``?  Updates the witness."""
        if paranoid:
            return oracle._search(
                f_key, frozenset(compress(ids, live)) - {ids[e]}) is not None
        if not in_witness[e]:
            return True
        x, y = node_of[2 * e + ht_pos], node_of[2 * e + 1 - ht_pos]
        if live_degree[x] <= f[nodes[x]] + 1 or live_degree[y] == 1:
            return False
        rest = bytearray(live)
        rest[e] = 0
        refuted = oracle.avoid(in_witness, rest, e)
        if refuted and oracle.excess(f_key, refuted, rest) <= 0:
            raise TheoremViolation(
                f"edge {ids[e]!r} kept by a set that violates no rank inequality")
        return not refuted

    # if the base node is not cut-side, the base edge is pre-traversed from
    # it and the walk starts with the edge following it at the far end
    first_reached[g.base_node] = 0
    c = darts.base
    if c & 1 != cut_pos:
        traverse(c)
        c = succ[c ^ 1]

    limit = 4 * len(ids) + 4
    while not traversed[c]:  # a re-examination would re-traverse: stop right before
        e = c >> 1
        if seen_current[e]:
            raise TheoremViolation(f"edge {ids[e]!r} became current twice")
        seen_current[e] = 1
        order.append(e)
        live_before = live.count(1)

        if removable(e):
            if traversed[c ^ 1]:
                raise TheoremViolation(f"kept/traversed edge {ids[e]!r} removed")
            nxt = next_live(c)
            if nxt == c:
                raise AssertionError("removal isolated the current node")
            live[e] = 0
            live_degree[node_of[c]] -= 1
            live_degree[node_of[c ^ 1]] -= 1
            steps.append(BernardiStep(ids[e], "removed", live_before, ()))
            c = nxt
        else:
            traverse(c)
            d = next_live(c ^ 1)
            if traversed[d]:
                steps.append(BernardiStep(ids[e], "kept", live_before,
                                          ((ids[e], cut),)))
                break  # stop right before the second far-side traversal
            traverse(d)
            steps.append(BernardiStep(ids[e], "kept", live_before,
                                      ((ids[e], cut), (ids[d >> 1], far))))
            c = next_live(d ^ 1)
        if len(order) > limit:
            raise AssertionError("process failed to terminate")

    if len(order) != len(ids):
        raise TheoremViolation("some edge never became current")
    # the traversed edges stay live and acyclic (checked online): one
    # component of them spans, and the live edges are just these
    if sum(p == x for x, p in enumerate(parent)) != 1 or \
            live.count(1) != len(nodes) - 1:
        raise TheoremViolation("final current graph is not a spanning tree")
    if tuple(live_degree[x] - 1 for x, ds in enumerate(rotation)
             if ds[0] & 1 == ht_pos) != f_key:
        raise TheoremViolation("result tree does not realize the hypertree")
    _check_arc_rule(g, order, cut_pos)

    return BernardiRun(
        variant=variant, hypertree=tuple(sorted(f.items())), steps=tuple(steps),
        result_tree=frozenset(compress(ids, live)),
        current_edge_order=tuple(ids[e] for e in order), first_reached=first_reached)


def _check_arc_rule(g: RibbonBipartiteGraph, order: list[int], cut_pos: int) -> None:
    """The current edges at each cut-side node follow its rotation from
    the earliest (consecutive arc discipline): their current times descend
    exactly once around it.  ``order`` lists every edge index once, by
    current time; ``cut_pos`` is the dart parity at cut-side ends."""
    succ, rotation = g._darts.succ, g._darts.rotation
    rank = [0] * len(g.edge_ids)
    for t, e in enumerate(order):
        rank[e] = t
    for x, ds in enumerate(rotation):
        if ds[0] & 1 == cut_pos and sum(
                rank[succ[d] >> 1] <= rank[d >> 1] for d in ds) != 1:
            raise TheoremViolation(
                f"current edges at {g.nodes[x]!r} broke the cyclic-order discipline")


def embedding_inactivities(g: RibbonBipartiteGraph, run: BernardiRun) -> tuple[int, int]:
    """(internal, external) inactivity of the run's hypertree against the
    class order that the run's current edges induce."""
    side = run.variant.ht_side
    member = _member(g, side, dict(run.hypertree))
    order = _order_positions(g, side, g.induced_order(side, run.current_edge_order))
    return (len(_inactive(member, order, outgoing=True)),
            len(_inactive(member, order, outgoing=False)))


def bernardi_polynomials(g: RibbonBipartiteGraph, variant: ProcessVariant,
                         runs=None) -> tuple[Poly, Poly]:
    """The (interior, exterior) embedding polynomials of ``variant``: one
    run per hypertree, or the given ``runs`` of ``variant``, in any order."""
    if runs is None:
        runs = [run_bernardi(g, f, variant)
                for f in enumerate_hypertrees(g, variant.ht_side)]
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
