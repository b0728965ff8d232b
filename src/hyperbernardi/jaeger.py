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

The shelling record tours each tree once on each setup
(``RibbonGraph._tour``) and files the violet tours in one trie, whose
branches give the divergence edge of every pair of trees; each tree's
cut table is built once from the tree rooted at the base node
(``RibbonGraph._root``), as edge bitmasks, for the semi-passive edges,
the characterization and the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bernardi import TheoremViolation
from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, bip
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
    succ = darts.succ
    skipped = [0] * len(cols)   # per edge, the trees that have skipped it
    vcut = ecut = span
    at = {darts.base: span}     # dart -> the trees at it
    for _ in succ:
        nxt: dict[int, int] = {}
        ruled_out = False
        for d, bits in at.items():
            i = d >> 1
            held = bits & cols[i]
            if held:
                e = succ[d ^ 1]
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
    vcut, ecut = _tour_cuts(g._darts, g._flags(tree), 1)
    return frozenset(cut for cut, bit in ((VCUT, vcut), (ECUT, ecut)) if bit)


def _require_cut(cut: str) -> None:
    if cut not in (VCUT, ECUT):
        raise ValueError(f"unknown cut {cut!r}")


def is_jaeger_tree(g: RibbonBipartiteGraph, tree: frozenset[str], cut: str) -> bool:
    """Each non-tree edge must be first skipped at its ``cut``-colored end."""
    _require_cut(cut)
    return cut in jaeger_cuts(g, tree)


def enumerate_jaeger_trees(g: RibbonBipartiteGraph, cut: str) -> list[frozenset[str]]:
    """All ``cut``-cut Jaeger trees by a branching tour search.

    An undecided edge met at a cut-colored node branches, cut first and
    keep second, which emits the trees exactly in the violet (emerald)
    tree order; the cut branch is a nested walk and the keep branch goes
    on in the same walk.  At the opposite color the edge is forced into
    the tree.  A walk crosses each edge as soon as it keeps it, so it
    stands only on reached nodes and the kept edges are one tree on
    them: an edge is kept only if its far end is unreached, and cut only
    while fewer than |E| - |V| + 1 edges are cut.  Each walk undoes its
    own decisions on the shared reached flags and status map.

    The walk is the orbit of the base pair under the tour permutation of
    its final decisions, so it returns to the base pair within 2|E|
    steps even when the cuts disconnect the graph; it emits the kept
    edges there when every node is reached.
    """
    _require_cut(cut)
    darts, ids = g._darts, g.edge_ids
    succ, node_of = darts.succ, darts.node
    at_cut = int(cut == VCUT)   # parity of the darts at cut-colored ends
    limit = 2 * len(ids) + 1
    max_cuts = len(ids) - len(g.nodes) + 1
    reached = bytearray(len(g.nodes))
    reached[node_of[darts.base]] = 1
    status: dict[int, bool] = {}  # decided edge index -> kept
    out: list[frozenset[str]] = []

    def walk(d: int, steps: int, cuts: int) -> None:
        kept: list[tuple[int, int]] = []   # (edge, the node it reached)
        while True:
            if steps > 0 and d == darts.base:
                if all(reached):
                    out.append(frozenset(ids[i] for i, s in status.items() if s))
                break
            if steps > limit:
                raise AssertionError("branching tour failed to close")
            i = d >> 1
            s = status.get(i)
            if s is None:
                if d & 1 == at_cut and cuts < max_cuts:
                    # the cut branch first: emission order = tree order
                    status[i] = False
                    walk(succ[d], steps + 1, cuts + 1)
                    del status[i]
                far = node_of[d ^ 1]
                if reached[far]:
                    break
                status[i] = s = True
                reached[far] = 1
                kept.append((i, far))
            if s:
                d ^= 1
            d = succ[d]
            steps += 1
        for i, x in kept:
            del status[i]
            reached[x] = 0

    walk(darts.base, 0, 0)
    return out


def _flavor_setup(g: RibbonBipartiteGraph, flavor: str) -> RibbonBipartiteGraph:
    """The setup whose tours are the ``flavor`` tours: ``g`` for violet,
    the reversed setup (base edge b0b1-) for emerald."""
    if flavor == VIOLET:
        return g
    if flavor == EMERALD:
        return g.reversed_setup()
    raise ValueError(f"unknown flavor {flavor!r}")


def divergence_edge(g: RibbonBipartiteGraph, t1: frozenset[str], t2: frozenset[str],
                    flavor: str = VIOLET) -> str:
    """The edge at which the flavor tours of two distinct trees diverge.

    It is the edge of the first dart on t1's tour that one tree holds
    and the other does not; up to there the tours agree.  The violet
    tours are those of ``g``, the emerald tours those of the reversed
    setup (base edge b0b1-).
    """
    setup = _flavor_setup(g, flavor)
    if not (g.is_spanning_tree(t1) and g.is_spanning_tree(t2)):
        raise ValueError("not a spanning tree")
    mask, differ = g._edge_mask(t1), g._edge_mask(t1 ^ t2)
    for d in setup._tour(mask):
        if differ >> (d >> 1) & 1:
            return g.edge_ids[d >> 1]
    raise ValueError("identical trees have no divergence")


@dataclass(frozen=True)
class TOrder:
    flavor: str
    edge_order: tuple[str, ...]
    class_order: tuple[str, ...]


def _flavor_order(g: RibbonBipartiteGraph, tour: list[int], flavor: str) -> TOrder:
    """The T-order of a tour (``RibbonGraph._tour``) on the flavor setup."""
    at_flavor = int(flavor == VIOLET)
    order = [g.edge_ids[i] for i in dict.fromkeys(d >> 1 for d in tour if d & 1 == at_flavor)]
    if len(order) != len(g.edge_ids):
        raise AssertionError("tour missed an edge on the flavor side")
    return TOrder(flavor, tuple(order), g.induced_order(flavor, order))


def t_order(g: RibbonBipartiteGraph, tree: frozenset[str], flavor: str) -> TOrder:
    """Edges by first occurrence with a flavor-colored current node, plus
    the class order induced by smallest incident edges, for a V-cut
    Jaeger tree (an E-cut tree's orders are read on ``g.reversed_setup()``).
    """
    setup = _flavor_setup(g, flavor)
    if not g.is_spanning_tree(tree):
        raise ValueError("not a spanning tree")
    return _flavor_order(g, setup._tour(g._edge_mask(tree)), flavor)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ranks(g: RibbonBipartiteGraph, edge_order) -> list[int]:
    """Each edge's position in ``edge_order``, by edge index; the order
    must list every edge once."""
    if sorted(edge_order) != list(g.edge_ids):
        raise ValueError("edge order is not a permutation of the edges")
    rank = [0] * len(g.edge_ids)
    for pos, e in enumerate(edge_order):
        rank[g._edge_index[e]] = pos
    return rank


def _base_cuts(g: RibbonBipartiteGraph, tree: frozenset[str]) -> dict[str, tuple[int, int]]:
    """The cut table of a spanning tree: each tree edge, in sorted order,
    with its cut in tree - edge as two edge bitmasks, the cut edges whose
    violet end lies on the base node's side and those whose emerald end
    does (the edge itself is in one).  One pass up the tree from
    ``RibbonGraph._root`` gathers each subtree's edge bits, shifted by
    |E| at a violet dart.

    The edges in e's own half of its cut are oriented like e.  The +/-1
    functional that weighs +1 the emeralds on e's emerald side and the
    violets off it, an edge taking the sum of its ends, is 2 on e's
    half, -2 on the other one and 0 elsewhere, on tree - e too."""
    darts, ids, m = g._darts, g.edge_ids, len(g.edge_ids)
    order, upward = g._root(g._flags(tree))
    below = [0] * len(g.nodes)
    for d, x in enumerate(darts.node):
        below[x] |= 1 << ((d >> 1) + (m if d & 1 else 0))
    low = (1 << m) - 1
    cuts = {}
    for y in reversed(order[1:]):
        d = upward[y]
        below[darts.node[d ^ 1]] |= below[y]
        emerald_below, violet_below = below[y] & low, below[y] >> m
        cuts[ids[d >> 1]] = (emerald_below & ~violet_below, violet_below & ~emerald_below)
    return dict(sorted(cuts.items()))


def _halves(cut: tuple[int, int], bit: int) -> tuple[int, int]:
    """A cut of the cut table as (the half holding the edge's own
    ``bit``, the other half)."""
    violet_in, emerald_in = cut
    return (violet_in, emerald_in) if violet_in & bit else (emerald_in, violet_in)


def semi_passive_edges(g: RibbonBipartiteGraph, tree: frozenset[str],
                       edge_order, cuts=None) -> frozenset[str]:
    """Tree edges standing opposite to the minimum of their own base cut.

    Standing opposite means the two edges have endpoints of different
    colors in each component of tree - edge.  Base-free by definition.
    ``cuts`` is the tree's cut table (``_base_cuts``) where the caller
    has it.
    """
    rank, index = _ranks(g, edge_order), g._edge_index
    out = set()
    for eps, cut in (cuts or _base_cuts(g, tree)).items():
        smallest = min(_bits(cut[0] | cut[1]), key=rank.__getitem__)
        if _halves(cut, 1 << index[eps])[1] >> smallest & 1:
            out.add(eps)
    return frozenset(out)


@dataclass(frozen=True)
class ShellingStep:
    """One V-cut Jaeger tree of the shelling in violet order: both
    T-orders, the semi-passive edges under the emerald T-order, and the
    divergence edge with each earlier tree, in order.  ``mask`` is the
    tree as an edge bitmask and ``cuts`` its cut table (``_base_cuts``),
    which the characterization, the pair certificates and the facet
    check read."""
    tree: frozenset[str]
    violet: TOrder
    emerald: TOrder
    semi_passive: frozenset[str]
    divergences: tuple[str, ...]
    mask: int = field(compare=False, repr=False)
    cuts: dict[str, tuple[int, int]] = field(compare=False, repr=False)


def shelling(g: RibbonBipartiteGraph, trees_in_violet_order) -> list[ShellingStep]:
    """The shelling record of the V-cut Jaeger trees, one step per tree;
    the characterization, dissection and shelling checks read it.

    Each tree is toured once on each setup: the emerald tour, on the
    reversed setup, checks the tree.  The violet tour is filed in a trie
    of (dart, held) decisions, where ``filed[k]`` lists the trees whose
    tours reach node k.  Two tours agree up to their first different
    decision, so the earlier trees under the other branch of a node on
    a tree's path diverge from it at that node's edge.  Every tour has
    2|E| steps, so a repeated tree ends where an earlier one did.
    """
    trees = [frozenset(t) for t in trees_in_violet_order]
    ids = g.edge_ids
    # node 0, the root, is nobody's child: a missing child reads as 0,
    # under which nothing is filed
    kids, filed = [[0, 0]], [[]]
    steps = []
    for j, tree in enumerate(trees):
        emerald = t_order(g, tree, EMERALD)
        mask = g._edge_mask(tree)
        tour = g._tour(mask)
        divergences = [""] * j
        k = 0
        for d in tour:
            held = mask >> (d >> 1) & 1
            for earlier in filed[kids[k][held ^ 1]]:
                divergences[earlier] = ids[d >> 1]
            if not kids[k][held]:
                kids[k][held] = len(kids)
                kids.append([0, 0])
                filed.append([])
            k = kids[k][held]
            filed[k].append(j)
        if len(filed[k]) > 1:
            raise ValueError("identical trees have no divergence")
        cuts = _base_cuts(g, tree)
        steps.append(ShellingStep(
            tree, _flavor_order(g, tour, VIOLET), emerald,
            semi_passive_edges(g, tree, emerald.edge_order, cuts),
            tuple(divergences), mask, cuts))
    return steps


def realized_hypertrees(g: RibbonBipartiteGraph, trees) -> dict[str, dict]:
    """For each side, the hypertrees that ``trees`` realize, as degree
    vectors over ``g.side_nodes(side)``, each with the positions of the
    trees that realize it.  The unique-realization check and the
    dissection's markers read it."""
    out = {}
    for side in (EMERALD, VIOLET):
        nodes = g.side_nodes(side)
        realized: dict[tuple[int, ...], list[int]] = {}
        for k, tree in enumerate(trees):
            f = g.degree_vector(tree, side)
            realized.setdefault(tuple(f[x] for x in nodes), []).append(k)
        out[side] = realized
    return out


def characterize_tree(g: RibbonBipartiteGraph, step: ShellingStep) -> dict[str, dict[str, bool]]:
    """The five equivalent descriptions of an internally semi-passive
    edge, keyed by edge, for every edge of the tree of one shelling step.

    Each edge is also checked against the base-cut order lemma: in the
    violet order, a cut edge with its violet end on the base side
    precedes every cut edge with its emerald end there, and does not
    follow the edge itself.  Raises TheoremViolation when the lemma
    fails or the five disagree.
    """
    vrank, index = _ranks(g, step.violet.edge_order), g._edge_index
    inactive = internal_inactivity(g, EMERALD, g.degree_vector(step.tree, EMERALD),
                                   step.emerald.class_order)
    diverged = set(step.divergences)

    reports = {}
    for eps, (violet_in, emerald_in) in step.cuts.items():
        bit = 1 << index[eps]
        violet_in_base = bool(violet_in & bit)
        seconds = emerald_in & ~bit
        earliest_second = min(map(vrank.__getitem__, _bits(seconds)), default=len(vrank))
        for e1 in _bits(violet_in & ~bit):
            if vrank[e1] >= earliest_second:
                raise TheoremViolation("base-cut order lemma failed")
            if vrank[e1] > vrank[index[eps]]:
                raise TheoremViolation("base-cut bound failed")

        report = {
            "first_difference": eps in diverged,
            "semi_passive_emerald_order": eps in step.semi_passive,
            "violet_in_base_and_inactive_end":
                violet_in_base and g.emerald_end(eps) in inactive,
            "not_largest_in_cut_violet_order": vrank[index[eps]] != max(
                map(vrank.__getitem__, _bits(violet_in | emerald_in))),
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
