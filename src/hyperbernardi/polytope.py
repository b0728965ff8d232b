"""Exact root-polytope geometry, on plain ints.

The root polytope of a bipartite graph is the convex hull of the points
e + v over its edges; maximal simplices correspond to spanning trees.
Markers are scaled by |E||V| to integer points and peeled leaf by leaf
up the tree that realizes them (rooted at the base node by
``RibbonGraph._root``); simplex volumes are ``det_bareiss`` of incidence
rows (in a search's discovery order every spanning tree's rows are unit
triangular, so every tree simplex is unimodular); each Ehrhart dilate
is a dict of bitmap blocks, one bit per point; the lattice-scan oracle
peels the points of k*Q_G; the binomial-basis fit is unit triangular.

A tree's cut table (``jaeger._base_cuts``) gives the +/-1 functional of
each tree edge's cut as edge bitmasks.  It certifies the pairwise
interior-disjointness of a dissection, one AND per pair, and keys one
facet table by hyperplane and forest: the trees of a forest share its
facet and sort onto its two sides, which decides a triangulation
locally, and the forests of a hyperplane decide the shelling's
coverage, two of them overlapping exactly when, oppositely oriented,
they carry a positive circulation.

Parallel edges collapse to one polytope vertex, so the geometric
operations require a simple bipartite graph.
"""

from __future__ import annotations

from math import comb

from . import graph
from .bernardi import TheoremViolation
from .exactla import det_bareiss
from .graph import EMERALD, VIOLET, RibbonBipartiteGraph
from .hypertree import Poly, _family, enumerate_hypertrees
from .jaeger import _bits, _halves, realized_hypertrees


def is_simple(g: RibbonBipartiteGraph) -> bool:
    """Whether no two edges join the same two nodes."""
    return len({g.edges[e] for e in g.edge_ids}) == len(g.edge_ids)


def _require_simple(g: RibbonBipartiteGraph) -> None:
    if not isinstance(g, RibbonBipartiteGraph) or not is_simple(g):
        raise ValueError("root-polytope geometry needs a simple bipartite graph")


def node_index(g: RibbonBipartiteGraph) -> dict[str, int]:
    return {x: i for i, x in enumerate(g.nodes)}


def scaled_marker(g: RibbonBipartiteGraph, f: dict[str, int],
                  side: str) -> tuple[int, ...]:
    """The marker point of a hypertree, f/|opp| + i_side/(|E||V|) +
    i_opp/|opp|, times |E||V|: f*|side| + 1 on the side's nodes and
    |side| on the opposite ones, all integers."""
    idx = node_index(g)
    own = g.side_nodes(side)
    coords = [len(own)] * len(g.nodes)
    for x in own:
        coords[idx[x]] = f[x] * len(own) + 1
    return tuple(coords)


class TreeSimplex:
    """The maximal simplex of a spanning tree, with a precomputed leaf
    peeling order for exact containment of integer points."""

    def __init__(self, g: RibbonBipartiteGraph, tree: frozenset[str]):
        self.tree_edges = tuple(sorted(tree))
        # the tree rooted at the base node; reversed, each node is a leaf
        # once its children are peeled: (leaf, its edge, far end)
        order, upward = g._root(g._flags(tree))
        position = {g._edge_index[e]: j for j, e in enumerate(self.tree_edges)}
        self._peel = [(y, position[upward[y] >> 1], g._darts.node[upward[y] ^ 1])
                      for y in reversed(order[1:])]
        self._root = order[0]

    def _peel_point(self, p):
        """A leaf's edge takes the leaf's remaining coordinate, which is
        then taken off at the far end: the edge coordinates, and what is
        left at the last node."""
        rest = list(p)
        lam = [0] * len(self._peel)
        for x, j, y in self._peel:
            lam[j] = rest[x]
            rest[y] -= rest[x]
        return lam, rest[self._root]

    def contains_scaled(self, p: tuple[int, ...], scale: int, strict: bool) -> bool:
        """Whether p/scale lies in the simplex (in its relative interior
        when ``strict``), for an integer point p: nothing is left at the
        last node, the coordinates sum to scale and every one of them is
        nonnegative (positive when ``strict``)."""
        lam, left = self._peel_point(p)
        if left != 0 or sum(lam) != scale:
            return False
        low = min(lam)
        return low > 0 if strict else low >= 0


def _positive(g: RibbonBipartiteGraph, cuts) -> dict[str, int]:
    """For each edge eps of a tree, from its cut table ``cuts``, the half
    of eps's cut that holds eps, as an edge bitmask: where the functional
    of that cut is 2.  It is 0 on the tree's other edges."""
    index = g._edge_index
    return {eps: _halves(cut, 1 << index[eps])[0] for eps, cut in cuts.items()}


def _certified(positive: dict[str, int], eps: str, earlier: int) -> bool:
    """The pair certificate, from the later tree's ``_positive`` masks:
    eps is an edge of the later tree, and the functional of its cut is
    at most 0 on the earlier tree's edges (bitmask ``earlier``), none of
    which lies in eps's own half of the cut."""
    own = positive.get(eps)
    return own is not None and not own & earlier


def _pair_certificates(g: RibbonBipartiteGraph, steps) -> list[tuple[bytearray, list[int]]]:
    """The pair certificates of a shelling record, for each step over
    its earlier trees: ``ahead[i]`` when the divergence edge with tree i
    lies in the step's own tree, the pair's later one (a divergence edge
    that the later tree lacks orients the pair the other way), and the
    earlier trees whose certificate fails, in order."""
    positive = [_positive(g, s.cuts) for s in steps]
    rows = []
    for j, step in enumerate(steps):
        ahead, failed = bytearray(len(step.divergences)), []
        for i, eps in enumerate(step.divergences):
            ahead[i] = eps in positive[j]
            earlier, later = (i, j) if ahead[i] else (j, i)
            if not _certified(positive[later], eps, steps[earlier].mask):
                failed.append(i)
        rows.append((ahead, failed))
    return rows


def _facet_table(g: RibbonBipartiteGraph, steps) -> dict[int, dict[int, list]]:
    """The facets conv(T - e) of a record's tree simplices (each step's
    ``mask`` and ``cuts``) by hyperplane: each cut's edge mask maps each
    forest T - e in it, an edge bitmask, to its entries (index of e,
    tree, side), side 1 when e is in the cut's ``violet_in`` half.  A
    forest fixes its two components, so it fixes its cut."""
    index = g._edge_index
    table: dict[int, dict[int, list]] = {}
    for k, step in enumerate(steps):
        for e, (violet_in, emerald_in) in step.cuts.items():
            j = index[e]
            table.setdefault(violet_in | emerald_in, {}).setdefault(
                step.mask ^ 1 << j, []).append((j, k, violet_in >> j & 1))
    return table


def verify_dissection(g: RibbonBipartiteGraph, steps) -> dict:
    """Marker counts and placement for a claimed dissection, given as the
    shelling record (jaeger.shelling) of V-cut Jaeger trees in violet order.

    Checks that the tree count matches both hypertree counts, that each
    emerald and violet marker lies strictly inside exactly one simplex,
    and that tour-divergence functionals certify pairwise
    interior-disjointness; together these make ``is_dissection``.  Each
    certificate is one AND of the earlier tree's edge bitmask with the
    half of the later tree's cut (its cut table) that holds the
    divergence edge.

    A hypertree f's marker lies strictly inside the simplex of a tree T
    exactly when T realizes f, so each marker is peeled only on the
    listed trees that realize it (``jaeger.realized_hypertrees``), and a
    witness lists those that hold it.  Proof: the coordinate of a tree
    edge e is positive exactly when f(C) >= g_T(C), for C the side's
    nodes in the component of T - e at e's end on that side and g_T the
    hypertree T realizes; at a node x of the side, f(x) - g_T(x) sums
    these differences over the tree edges at x, and f, g_T have equal
    totals.

    ``is_triangulation`` replaces the pair certificates by a local check
    on the facet table (``_facet_table``).  The trees sharing the facet
    conv(T - e) are the entries of the forest T - e, the trees T - e + e'
    for e' across the cut of e in T.  The functional of that cut
    (``jaeger._base_cuts``) is 0 on T - e, 2 on e and on the cut edges
    oriented like e, and -2 on the opposite ones: T - e + e' lies across
    the facet exactly when e' lies in the other half of the cut, on T's
    own side otherwise.  The facet is interior when both halves are
    non-empty, on the boundary of Q_G otherwise.  The check: every
    interior facet of every simplex has exactly one entry across it, and
    no facet has one but T on its own side.  Then the covering number,
    the number of simplices of the set that hold a point, does not
    change where a generic path crosses a facet, so it is constant on
    the generic points of Q_G.  Every tree simplex is unimodular, and
    the normalized volume of Q_G is its hypertree count (Postnikov 2009,
    section 12), so matching counts make that constant one, as does a
    marker held by one simplex.  A set of full-dimensional simplices
    with this pseudo-manifold property and covering number one is a
    triangulation (De Loera, Rambau and Santos 2010, ch. 4).
    """
    _require_simple(g)
    trees = [s.tree for s in steps]
    simplices = [TreeSimplex(g, t) for t in trees]
    b_e = enumerate_hypertrees(g, EMERALD)
    b_v = enumerate_hypertrees(g, VIOLET)
    report: dict = {
        "tree_count": len(trees),
        "hypertree_count_emerald": len(b_e),
        "hypertree_count_violet": len(b_v),
        "counts_match": len(trees) == len(b_e) == len(b_v),
        "witnesses": [],
    }

    pairs = []
    for j, (ahead, failed) in enumerate(_pair_certificates(g, steps)):
        for i in failed:
            earlier, later = (i, j) if ahead[i] else (j, i)
            pairs.append({"kind": "pair", "trees": [sorted(trees[earlier]),
                                                    sorted(trees[later])],
                          "divergence": steps[j].divergences[i]})
    certified = not pairs

    realized = realized_hypertrees(g, trees)
    scale = len(g.emeralds) * len(g.violets)
    for side, family in ((EMERALD, b_e), (VIOLET, b_v)):
        nodes = g.side_nodes(side)
        for f in family:
            p = scaled_marker(g, f, side)
            inside = [k for k in realized[side].get(tuple(f[x] for x in nodes), [])
                      if simplices[k].contains_scaled(p, scale, strict=True)]
            if len(inside) != 1:
                report["witnesses"].append(
                    {"kind": "marker", "side": side, "hypertree": dict(f),
                     "strictly_inside": inside})
    placement_ok = report["markers_in_unique_simplex"] = not report["witnesses"]
    report["witnesses"] += pairs
    report["interiors_disjoint_certified"] = certified

    table, index, facets = _facet_table(g, steps), g._edge_index, []
    for k, step in enumerate(steps):
        for e, (violet_in, emerald_in) in step.cuts.items():
            j = index[e]
            side = violet_in >> j & 1
            group = sorted(table[violet_in | emerald_in][step.mask ^ 1 << j])
            across = [p for _, p, s in group if s != side]
            beside = [p for _, p, s in group if s == side and p != k]
            if beside or len(across) != (1 if violet_in and emerald_in else 0):
                facets.append({"kind": "facet", "tree": k, "edge": e,
                               "across": across, "beside": beside})
    report["witnesses"] += facets
    report["is_triangulation"] = report["counts_match"] and placement_ok and not facets
    report["is_dissection"] = report["counts_match"] and placement_ok and certified
    return report


# -- facet coverage for shelling checks ------------------------------------


def _overlap(g: RibbonBipartiteGraph, down: int, up: int, ends: int) -> bool:
    """Whether conv(down) and conv(up), for spanning forests (edge
    bitmasks) with the same two components, share relative-interior
    points, that is whether ``down``'s edges as arcs from emerald to
    violet and ``up``'s from violet to emerald carry a strictly positive
    circulation (compare Postnikov 2009, Lemma 12.6): whether every arc
    lies on a cycle, so that the reach from ``ends``, a node of each
    component, covers every node along the arcs and against them.  An
    arc is a dart, from its node to its twin's; emerald darts are even."""
    node = g._darts.node
    arcs = [2 * i for i in _bits(down)] + [2 * i + 1 for i in _bits(up)]
    for darts in (arcs, [d ^ 1 for d in arcs]):
        reached, grown = ends, True
        while grown:
            grown = False
            for d in darts:
                if reached >> node[d] & 1 and not reached >> node[d ^ 1] & 1:
                    reached |= 1 << node[d ^ 1]
                    grown = True
        if reached != (1 << len(g.nodes)) - 1:
            return False
    return True


def _cover_rule(g: RibbonBipartiteGraph, steps):
    """For a dissection's shelling record, the function (i, eps) -> how
    the earlier simplices cover F = conv(T - eps), T the i-th tree:
    "covered", "disjoint" (its interior misses them) or "mixed".

    F's hyperplane holds the forests of the facet table
    (``_facet_table``) under its cut's edge mask; F's side is the cut
    half holding eps.  A generic point of F lies in one simplex across
    F, which meets F in a facet in that hyperplane, so the trees across
    whose forest overlaps F (``_overlap``, decided once per forest) take
    up F between them."""
    index, node = g._edge_index, g._darts.node
    table = _facet_table(g, steps)

    def status(i: int, eps: str) -> str:
        step, j = steps[i], index[eps]
        violet_in, emerald_in = step.cuts[eps]
        side, ends = violet_in >> j & 1, 1 << node[2 * j] | 1 << node[2 * j + 1]
        overlapping = []
        for forest, group in table[violet_in | emerald_in].items():
            across = [k for _, k, s in group if s != side]
            if across and _overlap(g, step.mask ^ 1 << j, forest, ends):
                overlapping += across
        earlier = sum(k < i for k in overlapping)
        if overlapping and earlier == len(overlapping):
            return "covered"
        return "mixed" if earlier else "disjoint"
    return status


def geometric_shelling_check(g: RibbonBipartiteGraph, steps) -> dict:
    """Facet-by-facet geometric verification of the shelling record
    (jaeger.shelling) of V-cut Jaeger trees in violet order.

    For each tree and each tree edge: a facet whose edge is internally
    semi-passive (emerald T-order) must be covered by the earlier
    simplices (``_cover_rule``); a semi-active facet's interior must be
    disjoint from them (certified by the tour-divergence functional of
    each earlier tree).  Coverage is decided on a dissection only, with
    every pair certificate holding and as many unimodular simplices as
    hypertrees; otherwise one ``not-a-dissection`` failure stands for it.
    """
    _require_simple(g)
    certificates = _pair_certificates(g, steps)
    dissection = (not any(failed for _, failed in certificates)
                  and len(steps) == len(_family(g, EMERALD)))
    failures = [] if dissection else [{"kind": "not-a-dissection"}]
    cover = _cover_rule(g, steps)
    for i, (step, (ahead, failed)) in enumerate(zip(steps, certificates)):
        failures += ({"kind": "divergence-side", "tree": i, "earlier": j}
                     for j, own in enumerate(ahead) if not own)
        for eps in sorted(step.tree):
            if eps in step.semi_passive:
                if dissection and (status := cover(i, eps)) != "covered":
                    failures.append({"kind": "uncovered-facet", "tree": i,
                                     "edge": eps, "status": status})
                continue
            for j, eps_j in enumerate(step.divergences):
                if not ahead[j] or eps_j == eps:
                    failures.append({"kind": "active-facet-hit",
                                     "tree": i, "earlier": j, "edge": eps})
                elif j in failed:
                    failures.append({"kind": "separation-failed",
                                     "tree": i, "earlier": j, "edge": eps})
    return {"ok": not failures, "failures": failures}


def shelling_h_vector(steps) -> tuple[int, ...]:
    """Combinatorial h-vector: a_i counts trees with i internally
    semi-passive edges under their own emerald T-order.  The input must
    be the shelling record of the V-cut Jaeger trees in violet order."""
    if steps and steps[0].semi_passive:
        raise TheoremViolation("first tree of a shelling has no covered facets")
    return Poly.counting(len(s.semi_passive) for s in steps).coeffs


# -- volumes ---------------------------------------------------------------


def normalized_simplex_volume(g: RibbonBipartiteGraph, tree: frozenset[str]) -> int:
    """|det| of the edge set's incidence rows with the first violet's
    coordinate dropped, for |V|-1 edges (``ValueError`` otherwise).

    Dropping that coordinate maps the lattice of span(Q_G) onto Z^(n-1),
    and the emerald coordinate sum is a primitive functional equal to 1
    on aff(Q_G), so this is the normalized volume of the tree simplex.
    It equals 1 exactly when the simplex is unimodular (which Ehrhart
    counting relies on).

    Every spanning tree gives 1: the row of the edge that discovers a
    node in a search from the dropped violet has a 1 in that node's
    column and at most one other 1, in the column of a node discovered
    earlier, so in discovery order the matrix is unit lower triangular.
    Any other edge set gives 0: it holds a cycle, whose alternating row
    sum vanishes.  ``verify`` computes the determinant on the trees of
    the dissection, the simplices that the Ehrhart chain counts."""
    _require_simple(g)
    if unknown := sorted(set(tree) - g.edges.keys()):
        raise ValueError(f"{unknown[0]!r} is not an edge here")
    if len(tree) != len(g.nodes) - 1:
        raise ValueError(f"need {len(g.nodes) - 1} edges, got {len(tree)}")
    dropped = g.violets[0]
    col = {x: i for i, x in enumerate(x for x in g.nodes if x != dropped)}
    rows = []
    for e in tree:
        row = [0] * len(col)
        for x in g.edges[e]:
            if x != dropped:
                row[col[x]] = 1
        rows.append(row)
    return abs(det_bareiss(rows))


# -- Ehrhart ---------------------------------------------------------------


def ehrhart_values(g: RibbonBipartiteGraph, kmax: int) -> list[int]:
    """Lattice points of the dilates k*Q_G for k = 0..kmax.

    Counted as distinct endpoint-degree vectors of k-edge multisets, on
    ints; this relies on the maximal simplices being unimodular.  Every
    spanning tree's simplex is (see normalized_simplex_volume, whose
    determinant ``verify`` computes on the dissection's trees), and the
    lattice-scan oracle (integer points peeled on every tree simplex)
    cross-checks the counts on small instances.

    A dilate is a dict of bitmap blocks.  Each side of a point of k*Q_G
    sums to k, so the last emerald and the last violet coordinate follow
    from the others and are left out: two points of one dilate that
    agree on the rest are equal, so the encoding is injective.  The
    remaining coordinates are digits in radix kmax + 1; no coordinate
    exceeds k <= kmax, so adding an edge's unit digits never carries.
    The low r digits of a packed point, for the largest r with
    (kmax+1)^r <= ``graph.SWEEP_BLOCK``, are its bit in a block, and
    the high digits are the block's key; an edge's packed unit splits
    the same way into a key step and a bit shift.  Dilate k + 1 ORs
    each block, shifted by every edge of a step, into the block at its
    key plus that step, and a dilate's count is the sum of its blocks'
    bit counts.  One dilate therefore holds its number of keys times
    ``SWEEP_BLOCK`` bits, however large its bounding box is.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    _require_simple(g)
    radix = kmax + 1
    coords = g.emeralds[:-1] + g.violets[:-1]
    r = 0
    while r < len(coords) and radix ** (r + 1) <= graph.SWEEP_BLOCK:
        r += 1
    digit = {x: radix ** i for i, x in enumerate(coords)}
    by_step: dict[int, list[int]] = {}
    for a, b in g.edges.values():
        step, shift = divmod(digit.get(a, 0) + digit.get(b, 0), radix ** r)
        by_step.setdefault(step, []).append(shift)
    values = [1]
    layer = {0: 1}
    for _ in range(kmax):
        nxt: dict[int, int] = {}
        for key, bits in layer.items():
            for step, shifts in by_step.items():
                out = 0
                for shift in shifts:
                    out |= bits << shift
                nxt[key + step] = nxt.get(key + step, 0) | out
        layer = nxt
        values.append(sum(bits.bit_count() for bits in layer.values()))
    return values


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def ehrhart_values_scan(g: RibbonBipartiteGraph, kmax: int) -> list[int]:
    """Independent oracle: scan integer points p of the bounding slab and
    test membership of p/k in Q_G via some spanning-tree simplex, by the
    integer peel of p (``contains_scaled``).  At k = 0 the one point, 0,
    peels to 0 on every simplex."""
    _require_simple(g)
    simplices = [TreeSimplex(g, t) for t in g.spanning_trees()]
    return [sum(any(s.contains_scaled(epart + vpart, k, strict=False) for s in simplices)
                for epart in compositions(k, len(g.emeralds))
                for vpart in compositions(k, len(g.violets)))
            for k in range(kmax + 1)]


def fit_binomial_coefficients(values, d: int) -> tuple[int, ...]:
    """Solve epsilon(k) = sum_i a_i * C(d+k-i, d) for k = 0..d.

    The system is unit triangular (C(d, d) = 1 on the diagonal), so
    integer values give integer coefficients; they must be nonnegative
    or the counting upstream is broken.
    """
    if len(values) < d + 1:
        raise ValueError(f"need values for k = 0..{d}")
    out: list[int] = []
    for k in range(d + 1):
        out.append(values[k] - sum(ai * comb(d + k - i, d)
                                   for i, ai in enumerate(out)))
    if any(ai < 0 for ai in out):
        raise AssertionError(f"binomial fit not a nonnegative integer: {out}")
    # consistency on any extra supplied values
    for k in range(d + 1, len(values)):
        pred = sum(out[i] * comb(d + k - i, d) for i in range(len(out)))
        if pred != values[k]:
            raise AssertionError(f"binomial fit fails at k={k}: {pred} != {values[k]}")
    return tuple(out)


def ehrhart_fit(values, d: int, interior: Poly) -> dict:
    """The Ehrhart chain's verdict: ``ok`` when the binomial fit is the
    interior polynomial padded with zeros, with ``fitted``; or ``error``
    when the fit is not a nonnegative integer vector."""
    try:
        fitted = fit_binomial_coefficients(values, d)
    except AssertionError as exc:
        return {"ok": False, "error": str(exc)}
    return {"ok": Poly(fitted) == interior, "fitted": list(fitted)}


def kato_series_check(interior_coeffs, g: RibbonBipartiteGraph, order: int,
                      values=None) -> bool:
    """`I(x) / (1-x)^(|E|+|V|-1)` must reproduce the Ehrhart values of
    the dilates 0..order; given ``values`` must hold every one of them."""
    m = len(g.nodes) - 1
    if values is None:
        values = ehrhart_values(g, order)
    if len(values) <= order:
        raise ValueError(f"no Ehrhart value for dilate {len(values)} (order {order})")
    coeffs = list(interior_coeffs)
    for k in range(order + 1):
        series = sum(c * comb(m - 1 + k - j, m - 1)
                     for j, c in enumerate(coeffs) if k - j >= 0)
        if series != values[k]:
            return False
    return True
