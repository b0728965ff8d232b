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

from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, UnionFind, bip
from .hypertree import (Poly, _oracle, _side_key, enumerate_hypertrees,
                        external_inactivity, internal_inactivity)


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
    endpoint below its degree cap is kept; one that a live edge at its
    hypertree-side node can replace in the witness is removed; otherwise
    the oracle searches the live graph without it, and the realization
    it finds becomes the witness.

    ``paranoid`` instead starts from a fresh full search and searches on
    every step, without the family, witness or exchange (used to
    re-verify flagged conjecture outcomes and in tests).
    """
    cut = variant.cut_side
    far = EMERALD if cut == VIOLET else VIOLET
    ht_pos = 0 if variant.ht_side == EMERALD else 1
    oracle = _oracle(g, variant.ht_side)
    f_key = _side_key(g, variant.ht_side, f)
    if paranoid:
        witness = oracle._search(f_key, frozenset(g.edge_ids))
    else:
        witness = oracle.family.get(f_key)
    if witness is None:
        raise ValueError("input vector is not a hypertree")

    live = set(g.edge_ids)
    live_degree = {x: len(g.rotations[x]) for x in g.nodes}
    kept: set[str] = set()
    traversed: set[tuple[str, str]] = set()   # (edge, from-color)
    tree_uf = UnionFind(g.nodes)              # traversed subgraph, no-cycle check
    traversed_edges: set[str] = set()
    steps: list[BernardiStep] = []
    order: list[str] = []
    seen_current: set[str] = set()
    first_reached: dict[str, int] = {}

    def reach(node: str):
        first_reached.setdefault(node, len(order))

    def record_traversal(edge: str, from_color: str):
        key = (edge, from_color)
        if key in traversed:
            raise AssertionError("second same-direction traversal executed")
        traversed.add(key)
        if edge not in traversed_edges:
            traversed_edges.add(edge)
            a, b = g.edges[edge]
            if not tree_uf.union(a, b):
                raise TheoremViolation(
                    f"traversed subgraph acquired a cycle at {edge!r}")
        reach(g.other_end(edge, g.end_of_color(edge, from_color)))

    def removable(cur: str) -> bool:
        """Does a realization avoid ``cur``?  Updates the witness."""
        nonlocal witness
        if paranoid:
            return oracle._search(f_key, frozenset(live - {cur})) is not None
        if cur not in witness:
            return True
        x = g.edges[cur][ht_pos]
        y = g.other_end(cur, x)
        if live_degree[x] <= f[x] + 1 or live_degree[y] == 1:
            return False
        swap = _exchange(g, witness, cur, x, live)
        if swap is not None:
            witness = witness - {cur} | {swap}
            return True
        found = oracle._search(f_key, frozenset(live - {cur}))
        if found is None:
            return False
        witness = found
        return True

    # initialization: if the base node's color is not the cut color, the
    # base edge is pre-traversed from that side and the walk starts with
    # the edge following it at the far endpoint.
    reach(g.base_node)
    if g.color(g.base_node) == cut:
        cur = g.base_edge
    else:
        record_traversal(g.base_edge, far)
        b1 = g.other_end(g.base_edge, g.base_node)
        cur = g.next_edge(b1, g.base_edge, live)

    limit = 4 * len(g.edge_ids) + 4
    while True:
        if (cur, cut) in traversed:
            break  # the re-examination would re-traverse: stop right before
        if cur in seen_current:
            raise TheoremViolation(f"edge {cur!r} became current twice")
        seen_current.add(cur)
        near = g.end_of_color(cur, cut)
        order.append(cur)
        live_before = len(live)

        if removable(cur):
            if cur in kept or cur in traversed_edges:
                raise TheoremViolation(f"kept/traversed edge {cur!r} removed")
            nxt = g.next_edge(near, cur, live)
            live.discard(cur)
            for node in g.edges[cur]:
                live_degree[node] -= 1
            steps.append(BernardiStep(cur, "removed", live_before, ()))
            if nxt == cur:
                raise AssertionError("removal isolated the current node")
            cur = nxt
        else:
            kept.add(cur)
            record_traversal(cur, cut)
            far_node = g.end_of_color(cur, far)
            follow = g.next_edge(far_node, cur, live)
            if (follow, far) in traversed:
                steps.append(BernardiStep(cur, "kept", live_before,
                                          ((cur, cut),)))
                break  # stop right before the second far-side traversal
            record_traversal(follow, far)
            steps.append(BernardiStep(cur, "kept", live_before,
                                      ((cur, cut), (follow, far))))
            w = g.end_of_color(follow, cut)
            cur = g.next_edge(w, follow, live)
        if len(order) > limit:
            raise AssertionError("process failed to terminate")

    if seen_current != set(g.edge_ids):
        raise TheoremViolation("some edge never became current")
    result = frozenset(live)
    if not g.is_spanning_tree(result):
        raise TheoremViolation("final current graph is not a spanning tree")
    vals = g.degree_vector(result, variant.ht_side)
    if any(vals[x] != f[x] for x in vals):
        raise TheoremViolation("result tree does not realize the hypertree")
    _check_cut_side_arcs(g, order, variant.cut_side)

    return BernardiRun(
        variant=variant,
        hypertree=tuple(sorted(f.items())),
        steps=tuple(steps),
        result_tree=result,
        current_edge_order=tuple(order),
        first_reached=first_reached)


def _exchange(g: RibbonBipartiteGraph, witness: frozenset[str], cur: str,
              x: str, live: set[str]) -> str | None:
    """A live edge at ``x`` outside ``witness`` that joins the two
    components of witness - cur, or None.  Swapping it for ``cur`` keeps
    every degree on x's side, so the swapped tree realizes the same
    hypertree."""
    side = g.base_side(witness, cur)
    x_in_base = x in side
    for e in g.rotations[x]:
        if e != cur and e in live and (g.other_end(e, x) in side) != x_in_base:
            return e
    return None


def _check_cut_side_arcs(g: RibbonBipartiteGraph, order: list[str], cut: str) -> None:
    """Current edges at each cut-side node follow its full rotation,
    starting at the earliest (consecutive arc discipline)."""
    rank = {e: i for i, e in enumerate(order)}
    for x in g.side_nodes(cut):
        rot = g.rotations[x]
        by_time = sorted(rot, key=lambda e: rank[e])
        start = rot.index(by_time[0])
        expected = tuple(rot[(start + k) % len(rot)] for k in range(len(rot)))
        if tuple(by_time) != expected:
            raise TheoremViolation(
                f"current edges at {x!r} broke the cyclic-order discipline")


def embedding_inactivities(g: RibbonBipartiteGraph, run: BernardiRun) -> tuple[int, int]:
    """(internal, external) inactivity of the run's hypertree against the
    class order that the run's current edges induce."""
    side = run.variant.ht_side
    f = dict(run.hypertree)
    order = g.induced_order(side, run.current_edge_order)
    return (len(internal_inactivity(g, side, f, order)),
            len(external_inactivity(g, side, f, order)))


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
