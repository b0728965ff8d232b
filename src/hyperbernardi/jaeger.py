"""Jaeger trees: recognition, direct enumeration, tree and T-orders,
internally semi-passive edges, and the activity matching for graphs.

A spanning tree is a V-cut (E-cut) Jaeger tree when its tour skips every
non-tree edge for the first time at the violet (emerald) endpoint.  The
violet tour of a V-cut tree uses the given setup; its emerald tour uses
the reversed setup with base edge b0b1-.  The E-cut trees are the V-cut
trees of the reversed setup, so their orders are read there.

Recognition tours many trees at once: each edge is a column, an int
with one bit per tree, and each dart carries the bits of the trees at
it.  ``jaeger_cuts`` tours one tree through one-bit columns; the
campaign's brute-force sweep tours whole blocks of edge subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bernardi import TheoremViolation
from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, UnionFind, bip
from .hypertree import internal_inactivity

VCUT = VIOLET
ECUT = EMERALD


def _tour_cuts(darts, cols, span) -> tuple[int, int]:
    """The trees of a block of edge subsets that are V-cut and E-cut
    Jaeger trees, as bits (vcut, ecut), from one bit-parallel tour over
    the dart table.  Bit t of cols[i] says whether subset t holds edge
    i; ``span`` has a bit for each subset that is a spanning tree, and
    only those are toured.

    Each step moves the trees at a dart on together: across the edge
    for the trees holding it, around the node for the others.  A
    non-tree edge first skipped at its emerald end (an even dart) rules
    out the V cut, one first skipped at its violet end the E cut, and a
    tree ruled out of both leaves the tour.  A spanning tree's tour
    passes every dart once, so after 2|E| steps every tree still on it
    is back at the base dart."""
    succ, twin, edge_of = darts.succ, darts.twin, darts.edge
    skipped = [0] * len(cols)   # per edge, the trees that have skipped it
    vcut = ecut = span
    at = {darts.base: span}     # dart -> the trees at it
    for _ in succ:
        nxt: dict[int, int] = {}
        ruled_out = False
        for d, bits in at.items():
            i = edge_of[d]
            held = bits & cols[i]
            if held:
                e = succ[twin[d]]
                nxt[e] = nxt.get(e, 0) | held
            passed = bits ^ held
            if passed:
                first = passed & ~skipped[i]
                if first:
                    skipped[i] |= first
                    if d & 1:
                        ecut &= ~first
                    else:
                        vcut &= ~first
                    ruled_out = True
                e = succ[d]
                nxt[e] = nxt.get(e, 0) | passed
        if ruled_out:
            walking = vcut | ecut
            nxt = {d: bits & walking for d, bits in nxt.items() if bits & walking}
        at = nxt
    if any(d != darts.base for d in at):
        raise AssertionError("tour failed to close")
    return vcut, ecut


def jaeger_cuts(g: RibbonBipartiteGraph, tree: frozenset[str]) -> frozenset[str]:
    """The cuts (VCUT, ECUT) for which ``tree`` is a Jaeger tree: each
    non-tree edge must be first skipped at the cut-colored end."""
    if not g.is_spanning_tree(tree):
        raise ValueError("not a spanning tree")
    vcut, ecut = _tour_cuts(g._darts, [int(e in tree) for e in g.edge_ids], 1)
    return frozenset(cut for cut, bit in ((VCUT, vcut), (ECUT, ecut)) if bit)


def is_jaeger_tree(g: RibbonBipartiteGraph, tree: frozenset[str], cut: str) -> bool:
    """Each non-tree edge must be first skipped at its ``cut``-colored end."""
    return cut in jaeger_cuts(g, tree)


def enumerate_jaeger_trees(g: RibbonBipartiteGraph, cut: str) -> list[frozenset[str]]:
    """All ``cut``-cut Jaeger trees by a branching tour search.

    An undecided edge met at a cut-colored node branches, cut first and
    keep second, which emits the trees exactly in the violet (emerald)
    tree order.  At the opposite color the edge is forced into the tree.
    One union-find of the kept edges and one status map are shared by
    the whole search; each branch undoes its own decisions on return.
    Two prunes drop only branches that cannot end in a spanning tree: a
    keep goes ahead only when it joins two components of the kept
    edges, and a cut only while fewer than |E| - |V| + 1 edges are cut.

    The walk is the orbit of the base pair under the tour permutation of
    its final decisions, so it returns to the base pair within 2|E|
    steps even when the cuts disconnect the graph; it emits the kept
    edges there when they connect every node.
    """
    darts, ids = g._darts, g.edge_ids
    succ, twin, edge_of, node_of = darts.succ, darts.twin, darts.edge, darts.node
    at_cut = 0 if cut == EMERALD else 1   # parity of the darts at cut-colored ends
    limit = 2 * len(ids) + 1
    max_cuts = len(ids) - len(g.nodes) + 1
    kept = UnionFind(range(len(g.nodes)))
    status: dict[int, bool] = {}  # decided edge index -> kept
    out: list[frozenset[str]] = []

    def walk(d: int, steps: int, cuts: int) -> None:
        mark = kept.snapshot()
        forced: list[int] = []
        while True:
            if steps > 0 and d == darts.base:
                if kept.components == 1:
                    out.append(frozenset(ids[i] for i, s in status.items() if s))
                break
            if steps > limit:
                raise AssertionError("branching tour failed to close")
            i = edge_of[d]
            s = status.get(i)
            if s is None:
                if d & 1 == at_cut:
                    # cut branch first: emission order = tree order
                    if cuts < max_cuts:
                        status[i] = False
                        walk(succ[d], steps + 1, cuts + 1)
                    status[i] = True
                    if kept.union(node_of[d], node_of[twin[d]]):
                        walk(succ[twin[d]], steps + 1, cuts)
                    del status[i]
                    break
                forced.append(i)
                status[i] = s = True
                if not kept.union(node_of[d], node_of[twin[d]]):
                    break
            if s:
                d = twin[d]
            d = succ[d]
            steps += 1
        for i in forced:
            del status[i]
        kept.rollback(mark)

    walk(darts.base, 0, 0)
    return out


def divergence_edge(g: RibbonBipartiteGraph, t1: frozenset[str], t2: frozenset[str],
                    flavor: str = VIOLET) -> str:
    """The edge at which the flavor tours of two distinct trees diverge.

    Walks both tours side by side and stops at the first edge that one
    tree holds and the other does not; up to there the tours agree.  The
    violet tours are those of ``g``, the emerald tours those of the
    reversed setup (base edge b0b1-).
    """
    if not (g.is_spanning_tree(t1) and g.is_spanning_tree(t2)):
        raise ValueError("not a spanning tree")
    return _tour_divergence(g if flavor == VIOLET else g.reversed_setup(), t1, t2)


def _tour_divergence(setup: RibbonBipartiteGraph, t1: frozenset[str],
                     t2: frozenset[str]) -> str:
    """divergence_edge on the tours of ``setup``, for trees the caller
    has already checked to be spanning."""
    for p1, p2 in zip(setup.tour_pairs(t1), setup.tour_pairs(t2)):
        if p1 != p2:
            raise AssertionError("tours diverged without an edge decision")
        edge = p1[1]
        if (edge in t1) != (edge in t2):
            return edge
    raise ValueError("identical trees have no divergence")


@dataclass(frozen=True)
class TOrder:
    flavor: str
    edge_order: tuple[str, ...]
    class_order: tuple[str, ...]

    def edge_rank(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.edge_order)}


def t_order(g: RibbonBipartiteGraph, tree: frozenset[str], flavor: str) -> TOrder:
    """Edges by first occurrence with a flavor-colored current node, plus
    the class order induced by smallest incident edges, for a V-cut
    Jaeger tree (an E-cut tree's orders are read on ``g.reversed_setup()``).
    """
    if not g.is_spanning_tree(tree):
        raise ValueError("not a spanning tree")
    setup = g if flavor == VIOLET else g.reversed_setup()
    order: list[str] = []
    seen: set[str] = set()
    for node, edge in setup.tour_pairs(tree):
        if setup.color(node) == flavor and edge not in seen:
            seen.add(edge)
            order.append(edge)
    if len(order) != len(g.edge_ids):
        raise AssertionError("tour missed an edge on the flavor side")
    return TOrder(flavor, tuple(order), g.induced_order(flavor, order))


def _base_cuts(g: RibbonBipartiteGraph, tree: frozenset[str]):
    """Each edge of a spanning tree, in sorted order, with its cut in
    tree - edge: the cut edges whose violet end lies on the base node's
    side, and those whose emerald end does (the edge itself in one)."""
    node = g._darts.node
    ends = list(zip(g.edge_ids, node[0::2], node[1::2]))   # (edge, emerald, violet)
    for eps, side in sorted(g._base_sides(tree).items()):
        violet_in = [e for e, a, b in ends if side >> b & 1 and not side >> a & 1]
        emerald_in = [e for e, a, b in ends if side >> a & 1 and not side >> b & 1]
        yield eps, violet_in, emerald_in


def semi_passive_edges(g: RibbonBipartiteGraph, tree: frozenset[str],
                       edge_order) -> frozenset[str]:
    """Tree edges standing opposite to the minimum of their own base cut.

    Standing opposite means the two edges have endpoints of different
    colors in each component of tree - edge.  Base-free by definition.
    """
    rank = {e: i for i, e in enumerate(edge_order)}
    out = set()
    for eps, violet_in, emerald_in in _base_cuts(g, tree):
        smallest = min(violet_in + emerald_in, key=rank.__getitem__)
        if (smallest in emerald_in) != (eps in emerald_in):
            out.add(eps)
    return frozenset(out)


@dataclass(frozen=True)
class ShellingStep:
    """One V-cut Jaeger tree of the shelling in violet order: both
    T-orders, the semi-passive edges under the emerald T-order, and the
    divergence edge with each earlier tree, in order."""
    tree: frozenset[str]
    violet: TOrder
    emerald: TOrder
    semi_passive: frozenset[str]
    divergences: tuple[str, ...]


def shelling(g: RibbonBipartiteGraph, trees_in_violet_order) -> list[ShellingStep]:
    """The shelling record of the V-cut Jaeger trees, one step per tree;
    the characterization, dissection and shelling checks read it."""
    trees = [frozenset(t) for t in trees_in_violet_order]
    steps = []
    for i, tree in enumerate(trees):
        emerald = t_order(g, tree, EMERALD)
        steps.append(ShellingStep(
            tree, t_order(g, tree, VIOLET), emerald,
            semi_passive_edges(g, tree, emerald.edge_order),
            tuple(_tour_divergence(g, earlier, tree) for earlier in trees[:i])))
    return steps


def characterize_tree(g: RibbonBipartiteGraph, step: ShellingStep) -> dict[str, dict[str, bool]]:
    """The five equivalent descriptions of an internally semi-passive
    edge, keyed by edge, for every edge of the tree of one shelling step.

    Each edge is also checked against the base-cut order lemma: in the
    violet order, a cut edge with its violet end on the base side
    precedes every cut edge with its emerald end there, and does not
    follow the edge itself.  Raises TheoremViolation when the lemma
    fails or the five disagree.
    """
    tree = step.tree
    vrank = step.violet.edge_rank()
    inactive = internal_inactivity(g, EMERALD, g.degree_vector(tree, EMERALD),
                                   step.emerald.class_order)

    reports = {}
    for eps, violet_in, emerald_in in _base_cuts(g, tree):
        violet_in_base = eps in violet_in
        firsts = [e for e in violet_in if e != eps]
        seconds = [e for e in emerald_in if e != eps]
        for e1 in firsts:
            if any(vrank[e1] >= vrank[e2] for e2 in seconds):
                raise TheoremViolation("base-cut order lemma failed")
            if vrank[e1] > vrank[eps]:
                raise TheoremViolation("base-cut bound failed")

        report = {
            "first_difference": eps in step.divergences,
            "semi_passive_emerald_order": eps in step.semi_passive,
            "violet_in_base_and_inactive_end":
                violet_in_base and g.emerald_end(eps) in inactive,
            "not_largest_in_cut_violet_order":
                eps != max(violet_in + emerald_in, key=vrank.__getitem__),
            "base_cut_witness": violet_in_base and bool(seconds),
        }
        if len(set(report.values())) != 1:
            raise TheoremViolation(
                f"five-way characterization disagrees for {eps!r}: {report}")
        reports[eps] = report
    return reports


def graph_activity_matching(graph_g, tree: frozenset[str]) -> dict:
    """For an ordinary ribbon graph and a V-cut Jaeger tree of its
    subdivision: semi-passive edges under the violet T-order match the
    internally inactive nodes of both induced hypertrees, one-to-one by
    incidence."""
    bg = bip(graph_g)
    if not is_jaeger_tree(bg, tree, VCUT):
        raise ValueError("tree must be a V-cut Jaeger tree of the subdivision")
    vi_order = t_order(bg, tree, VIOLET)
    semi = semi_passive_edges(bg, tree, vi_order.edge_order)

    f_e = bg.degree_vector(tree, EMERALD)
    f_v = bg.degree_vector(tree, VIOLET)
    # the violet T-order induces orders on both classes
    order_e = bg.induced_order(EMERALD, vi_order.edge_order)
    inactive_e = internal_inactivity(bg, EMERALD, f_e, order_e)
    inactive_v = internal_inactivity(bg, VIOLET, f_v, vi_order.class_order)

    em_ends = sorted(bg.emerald_end(e) for e in semi)
    vi_ends = sorted(bg.violet_end(e) for e in semi)
    matched = (em_ends == sorted(inactive_e)
               and vi_ends == sorted(inactive_v)
               and len(set(em_ends)) == len(semi)
               and len(set(vi_ends)) == len(semi))
    return {
        "semi_passive": semi,
        "inactive_emerald": inactive_e,
        "inactive_violet": inactive_v,
        "matched": matched,
        "count": len(semi),
    }
