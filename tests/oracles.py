"""Brute-force references for the library's fast paths, over ``Fraction``.

The searches are exponential in the instance, so the tests call them
on small instances only.  Each reference, and what it checks:

* ``solve_exact`` and ``in_convex_hull``: Gauss-Jordan elimination and a
  Caratheodory search over affinely independent subsets (against
  ``barycentric``, the Fraction leaf peel of a tree simplex, and the
  hypertree enumeration);
* ``facet_cover_status``: a facet split along barycentric hyperplanes
  until each piece lies in one simplex or beside all of them (against
  the positive-circulation rule of ``geometric_shelling_check``);
* ``intersection_is_common_face``: the vertices of the intersection of
  two tree simplices, over every active constraint subset (against
  ``trees_compatible``);
* ``trees_compatible``: Postnikov's acyclicity test for two tree
  simplices meeting in a common face, run on every pair of a set
  (against the facet-table check behind ``is_triangulation``);
* ``can_transfer``: one feasibility question per unit transfer (against
  the activities read off the hypertree family);
* ``rank_feasible``: Kalman's rank inequalities over every subset of
  the class, on a live subgraph (against the backtracking search and
  the exchange reachability that decides transfers and Bernardi steps);
* ``marker`` and ``contains``: the Fraction marker point and simplex
  containment (against ``scaled_marker`` and ``contains_scaled``);
* ``ehrhart_by_sets`` and ``ehrhart_by_tuples``: each dilate of the
  root polytope as a set of its points, packed into one int or kept as
  a degree-vector tuple, and ``ehrhart_by_hall``: the points of k*Q_G
  counted by Gale's supply-demand condition, with no edge multisets
  and no trees (against the bitmap blocks of ``ehrhart_values``);
* ``marker_placement``: every marker peeled on every tree simplex
  (against the peel on the realizing tree's simplex alone in
  ``verify_dissection``);
* ``tour_pairs``: the tour walked through a (node, edge) -> next edge
  table (against the dart-table ``tour_pairs`` and ``tour_order``);
* ``divergence_by_full_tours``: two reference tours built whole and
  compared (against ``divergence_edge``, which reads one dart-table
  tour, and the trie of tours in the shelling record);
* ``first_skip_cuts``: the cuts at whose colored end that tour first
  skips every non-tree edge (against ``jaeger_cuts`` and the
  bit-parallel tour of the campaign's sweep);
* ``base_side`` and ``tree_cut``: the sides of tree - edge by a
  name-keyed search (against the sides that the dart-table rooting
  ``_root`` gives, and the cut tables of ``jaeger._base_cuts`` built
  on it, which the cut functional and the five-way characterization
  read);
* ``cut_values`` and ``separates``: the +/-1 cut functional on every
  edge, from ``base_side``, and the pair certificate read off it
  (against the cut tables of ``jaeger._base_cuts`` and the bitmask
  certificates of ``verify_dissection``);
* ``check_arc_rule``: a run's current-edge order checked after the run,
  rotation by rotation, against the consecutive-arc rule (against the
  check that the Bernardi walk makes online at each current edge);
* ``avoid_by_full_arcs``: a Bernardi step decided on the whole exchange
  digraph of the reconnected tree, every arc drawn before the search
  (against ``_Feasibility.avoid``, which settles a lone tree edge with no
  search and draws the arcs as its search reaches them);
* ``bernardi_run``: the Bernardi process walked on edge names, deciding
  every step by a full search (against the dart-table ``run_bernardi``,
  fast and paranoid), stepping around rotations with ``next_edge``
  (against the dart table's successors);
* ``certify_disjoint_interiors``: one pair's separating-functional
  certificate from the later tree's cut table, the certificate that
  ``verify_dissection`` batches (against ``separates``);
* ``arborescence_duality_brute_force``: every C(arcs, faces - 1) arc
  set of the face-dual digraph tested for an arborescence rooted at r0
  (against the matrix-tree count and the per-tree check of
  ``campaign.arborescence_duality``).

Helpers that only the tests call live here too: ``other_end``,
``prev_edge``, ``edge_rank`` of a T-order, and
``random_setup_variation``, a graph with reshuffled rotations and base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from itertools import combinations

from hyperbernardi.bernardi import BernardiStep, ProcessVariant, TheoremViolation
from hyperbernardi.generators import _random_rotations
from hyperbernardi.graph import EMERALD, VIOLET, RibbonBipartiteGraph, UnionFind
from hyperbernardi.hypertree import (_bfs, _exchange, _oracle, _side_key,
                                     enumerate_hypertrees, is_hypertree)
from hyperbernardi.jaeger import ECUT, VCUT, _base_cuts, enumerate_jaeger_trees
from hyperbernardi.polytope import (TreeSimplex, _certified, _positive, _require_simple,
                                    compositions, node_index, scaled_marker)

Point = tuple[Fraction, ...]

# pieces facet_cover_status may examine before it gives up
FACET_COVER_BUDGET = 20000


def other_end(g, edge: str, node: str) -> str:
    """The end of ``edge`` that is not ``node``, by the graph's names."""
    a, b = g.edges[edge]
    if node == a:
        return b
    if node == b:
        return a
    raise ValueError(f"edge {edge!r} not incident to {node!r}")


def next_edge(g, node: str, edge: str, live=None, step: int = 1) -> str:
    """The edge after ``edge`` around ``node`` (before it for ``step``
    -1), by name, in the rotation restricted to the ``live`` edges."""
    rot = g.rotations[node]
    if edge not in rot:
        raise ValueError(f"edge {edge!r} not incident to {node!r}")
    if live is not None and edge not in live:
        raise ValueError(f"edge {edge!r} not live")
    i = rot.index(edge)
    for k in range(1, len(rot) + 1):
        cand = rot[(i + step * k) % len(rot)]
        if live is None or cand in live:
            return cand
    raise AssertionError("unreachable: edge itself is live")


def prev_edge(g, node: str, edge: str, live=None) -> str:
    return next_edge(g, node, edge, live, step=-1)


def edge_rank(order) -> dict[str, int]:
    """Each edge's position in a T-order's edge order."""
    return {e: i for i, e in enumerate(order.edge_order)}


def vertex_point(g, edge: str) -> Point:
    """The vertex e + v of an edge, over Fractions."""
    idx = node_index(g)
    coords = [Fraction(0)] * len(g.nodes)
    a, b = g.edges[edge]
    coords[idx[a]] += 1
    coords[idx[b]] += 1
    return tuple(coords)


def barycentric(simplex: TreeSimplex, p: Point) -> tuple[Fraction, ...] | None:
    """Coordinates of p in the simplex basis, by the simplex's leaf peel;
    None when p is outside the affine hull, that is when something is
    left at the last node or the coordinates do not sum to one."""
    lam, left = simplex._peel_point(p)
    if left != 0 or sum(lam) != 1:
        return None
    return tuple(lam)


def _split_piece(piece: list[Point], values: list[Fraction]) -> tuple[list[Point], list[Point]]:
    """Split conv(piece) by the affine functional whose vertex values are
    given; returns vertex lists (redundancy allowed) of both halves."""
    pos = [p for p, v in zip(piece, values) if v >= 0]
    neg = [p for p, v in zip(piece, values) if v <= 0]
    for (p, vp) in zip(piece, values):
        if vp <= 0:
            continue
        for (q, vq) in zip(piece, values):
            if vq >= 0:
                continue
            t = vp / (vp - vq)  # in (0, 1): crossing point on the segment
            cross = tuple(a + t * (b - a) for a, b in zip(p, q))
            pos.append(cross)
            neg.append(cross)
    return pos, neg


def facet_cover_status(piece: list[Point], simplices: list[TreeSimplex]) -> str:
    """Exact coverage of conv(piece) by a union of simplices.

    Returns "covered", "disjoint" (interior misses every simplex), or
    "mixed", splitting pieces along barycentric hyperplanes that
    separate their vertices until each lies in a simplex or on one
    closed side of every hyperplane.  A simplex with a coordinate that
    is at most 0 on every vertex of a piece and negative on one meets
    the piece in a proper face at most, so the piece and its parts
    leave it out.  All points must lie in the simplices' common affine
    hull.
    """
    stack = [(piece, simplices)]
    all_covered = True
    all_disjoint = True
    work = 0
    while stack:
        work += 1
        if work > FACET_COVER_BUDGET:
            raise RuntimeError("facet coverage recursion budget exceeded")
        cur, live = stack.pop()
        bary = []
        contained = False
        for s in live:
            lam = [barycentric(s, p) for p in cur]
            if any(l is None for l in lam):
                # the pieces are cut from facets of these simplices
                raise AssertionError("point outside the affine hull")
            if all(all(c >= 0 for c in l) for l in lam):
                contained = True
                break
            if not any(all(l[i] <= 0 for l in lam) and any(l[i] < 0 for l in lam)
                       for i in range(len(lam[0]))):
                bary.append((s, lam))
        if contained:
            all_disjoint = False
            continue
        # look for a hyperplane that strictly separates the vertices
        split = None
        for _, lam in bary:
            for i in range(len(lam[0])):
                vals = [l[i] for l in lam]
                if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                    split = vals
                    break
            if split:
                break
        if split is None:
            # piece is on one closed side of every hyperplane: since no
            # simplex contains it, its interior misses them all
            all_covered = False
            continue
        near = [s for s, _ in bary]
        stack.extend((half, near) for half in _split_piece(cur, split))
    if all_covered:
        return "covered"
    if all_disjoint:
        return "disjoint"
    return "mixed"


def solve_exact(rows, rhs):
    """Solve an (possibly overdetermined) linear system exactly.

    Returns the unique solution vector, or None if the system is
    inconsistent.  Raises ValueError when the solution is not unique
    (the columns are dependent).
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    # inconsistent if a zero row has nonzero rhs
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    if len(piv_cols) < n:
        raise ValueError("underdetermined system (columns not independent)")
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][n]
    return tuple(sol)


def in_convex_hull(points, target) -> bool:
    """Exact membership of ``target`` in conv(points): some affinely
    independent subset's simplex contains it (Caratheodory)."""
    dim = len(target)
    for k in range(1, min(len(points), dim + 1) + 1):
        for subset in combinations(points, k):
            rows = [[subset[j][i] for j in range(k)] for i in range(dim)]
            rows.append([Fraction(1)] * k)
            rhs = [Fraction(x) for x in target] + [Fraction(1)]
            try:
                sol = solve_exact(rows, rhs)
            except ValueError:
                continue  # affinely dependent subset
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def _affine_chart(g):
    """Drop one emerald and one violet coordinate: a unimodular chart of
    the direction space of aff(Q_G)."""
    idx = node_index(g)
    drop = {idx[g.emeralds[0]], idx[g.violets[0]]}
    return [i for i in range(len(g.nodes)) if i not in drop]


def intersection_is_common_face(g, t1, t2) -> bool:
    """Exact geometric test: Q_T1 intersect Q_T2 equals the simplex on the
    shared edges.  Vertices of the intersection are enumerated by brute
    force over active constraint subsets in an affine chart."""
    _require_simple(g)
    cols = _affine_chart(g)
    d = len(cols)
    s1, s2 = TreeSimplex(g, t1), TreeSimplex(g, t2)

    # affine functionals lam_i(x) for both simplices, as functions of the
    # chart coordinates: lam(x) = proj . (point(x), 1) where the dropped
    # coordinates are recovered from the affine-hull equations.
    idx = node_index(g)
    drop_e = idx[g.emeralds[0]]
    drop_v = idx[g.violets[0]]
    e_cols = [idx[x] for x in g.emeralds if idx[x] != drop_e]
    v_cols = [idx[x] for x in g.violets if idx[x] != drop_v]

    def lift(chart):
        full = [Fraction(0)] * len(g.nodes)
        for c, val in zip(cols, chart):
            full[c] = val
        full[drop_e] = Fraction(1) - sum(full[c] for c in e_cols)
        full[drop_v] = Fraction(1) - sum(full[c] for c in v_cols)
        return tuple(full)

    def functional_rows(simplex):
        rows = []
        zero = lift(tuple(Fraction(0) for _ in cols))
        lam0 = barycentric(simplex, zero)
        for i in range(len(simplex.tree_edges)):
            grad = []
            for c in range(d):
                unit = tuple(Fraction(int(j == c)) for j in range(d))
                lam = barycentric(simplex, lift(unit))
                grad.append(lam[i] - lam0[i])
            rows.append((grad, lam0[i]))
        return rows

    constraints = functional_rows(s1) + functional_rows(s2)

    def value(con, chart):
        grad, c0 = con
        return c0 + sum(a * b for a, b in zip(grad, chart))

    verts = set()
    for subset in combinations(range(len(constraints)), d):
        rows = [constraints[i][0] for i in subset]
        rhs = [-constraints[i][1] for i in subset]
        try:
            sol = solve_exact([list(r) for r in rows], rhs)
        except ValueError:
            continue
        if sol is None:
            continue
        if all(value(c, sol) >= 0 for c in constraints):
            verts.add(sol)

    expected = set()
    for e in t1 & t2:
        p = vertex_point(g, e)
        expected.add(tuple(p[c] for c in cols))
    return verts == expected


def trees_compatible(g, t1, t2) -> bool:
    """Whether the two tree simplices meet in a common face (Postnikov
    2009, section 12): with the shared edges contracted, t1-only edges
    oriented emerald to violet and t2-only edges violet to emerald must
    form an acyclic digraph."""
    _require_simple(g)
    uf = UnionFind(g.nodes)
    for e in t1 & t2:
        uf.union(*g.edges[e])
    preds: dict[str, set] = {}
    for e in t1 ^ t2:
        emerald, violet = (uf.find(x) for x in g.edges[e])
        tail, head = (emerald, violet) if e in t1 else (violet, emerald)
        preds.setdefault(head, set()).add(tail)
    try:
        TopologicalSorter(preds).prepare()
    except CycleError:
        return False
    return True


def can_transfer(g, side, f, src, dst) -> bool:
    """Can one unit of valence move from src to dst, staying a hypertree?"""
    nodes = g.side_nodes(side)
    if src not in nodes or dst not in nodes:
        raise ValueError("transfer endpoints must lie in the hypertree's class")
    if src == dst:
        raise ValueError("transfer endpoints must differ")
    if f[src] == 0:
        return False
    shifted = dict(f)
    shifted[src] -= 1
    shifted[dst] += 1
    return is_hypertree(g, side, shifted)


def rank_feasible(g, side, f, live) -> bool:
    """Does some spanning tree of the live subgraph (every node, the
    edges in ``live``) realize ``f``?  Kalman 2013: exactly when the live
    subgraph is connected, f >= 0, and f(S) <= mu(S) = |N(S)| - c(S) for
    every set S of the class, with equality on the whole class; N(S) is
    the set of live neighbours of S, and c(S) counts the components of S,
    N(S) and the live edges at S."""
    nodes = g.side_nodes(side)
    pos = 0 if side == EMERALD else 1
    everything = UnionFind(g.nodes)
    for e in live:
        everything.union(*g.edges[e])
    if everything.components != 1 or any(f[x] < 0 for x in nodes):
        return False

    def mu(subset):
        at = [g.edges[e] for e in live if g.edges[e][pos] in subset]
        around = {ends[1 - pos] for ends in at}
        uf = UnionFind(set(subset) | around)
        for a, b in at:
            uf.union(a, b)
        return len(around) - uf.components

    for k in range(1, len(nodes)):
        for subset in combinations(nodes, k):
            if sum(f[x] for x in subset) > mu(subset):
                return False
    return sum(f.values()) == mu(nodes)


def marker(g, f, side):
    """The marker point of a hypertree: f/|opp| + i_side/(|E||V|) + i_opp/|opp|."""
    scale = len(g.emeralds) * len(g.violets)
    return tuple(Fraction(c, scale) for c in scaled_marker(g, f, side))


def contains(simplex, p, strict):
    """Containment over Fractions: p lies in the affine hull and its
    barycentric coordinates are nonnegative (positive when ``strict``)."""
    lam = barycentric(simplex, p)
    if lam is None:
        return False
    return all(c > 0 if strict else c >= 0 for c in lam)


def ehrhart_by_sets(g, kmax) -> list[int]:
    """The dilates k*Q_G for k = 0..kmax as sets of points, each point
    one int with a digit per node in base kmax + 1: dilate k + 1 adds
    every edge's packed unit vector to every point of dilate k."""
    _require_simple(g)
    base = kmax + 1
    idx = node_index(g)
    steps = [base ** idx[a] + base ** idx[b] for a, b in g.edges.values()]
    values = [1]
    layer = {0}
    for _ in range(kmax):
        layer = {p + s for p in layer for s in steps}
        values.append(len(layer))
    return values


def ehrhart_by_tuples(g, kmax) -> list[int]:
    """The dilate layers as sets of degree-vector tuples."""
    idx = node_index(g)
    edge_vecs = []
    for a, b in g.edges.values():
        v = [0] * len(g.nodes)
        v[idx[a]] += 1
        v[idx[b]] += 1
        edge_vecs.append(tuple(v))
    values = [1]
    layer = {tuple([0] * len(g.nodes))}
    for _ in range(kmax):
        layer = {tuple(a + b for a, b in zip(p, v)) for p in layer for v in edge_vecs}
        values.append(len(layer))
    return values


def ehrhart_by_hall(g, kmax) -> list[int]:
    """Lattice points of k*Q_G for k = 0..kmax by Gale's supply-demand
    theorem (Gale 1957): a pair (a, b) of k-compositions over the
    emeralds and over the violets is a point exactly when a(S) <=
    b(N(S)) for every set S of emeralds, N(S) its violet neighbours."""
    emeralds, violets = g.emeralds, g.violets
    near = {x: set() for x in emeralds}
    for e in g.edge_ids:
        near[g.emerald_end(e)].add(violets.index(g.violet_end(e)))
    conditions = [(group, sorted(set().union(*(near[emeralds[i]] for i in group))))
                  for size in range(1, len(emeralds) + 1)
                  for group in combinations(range(len(emeralds)), size)]
    values = []
    for k in range(kmax + 1):
        demands = [[sum(b[j] for j in hood) for _, hood in conditions]
                   for b in compositions(k, len(violets))]
        count = 0
        for a in compositions(k, len(emeralds)):
            supply = [sum(a[i] for i in group) for group, _ in conditions]
            count += sum(all(s <= t for s, t in zip(supply, demand))
                         for demand in demands)
        values.append(count)
    return values


def arborescence_duality_brute_force(g, r0=0):
    """The V-cut Jaeger trees of the setup based at face r0 against the
    complements of the spanning arborescences rooted at r0, searched over
    every arc set of size faces - 1; the same dict as the campaign's."""
    faces = g.faces()
    face_of_dart = {dart: i for i, walk in enumerate(faces) for dart in walk}
    base = next((g.violet_end(e), e) for e in g.edge_ids
                if face_of_dart[(g.violet_end(e), e)] == r0)
    arcs = {e: (face_of_dart[(g.violet_end(e), e)],
                face_of_dart[(g.emerald_end(e), e)]) for e in g.edge_ids}
    arbs = []
    for combo in combinations(sorted(arcs), len(faces) - 1):
        head_of = {}
        for e in combo:
            tail, head = arcs[e]
            if head == r0 or head in head_of or tail == head:
                break
            head_of[head] = tail
        else:
            # every non-root face must reach r0 through its parents
            def reaches_root(node):
                for _ in range(len(faces)):
                    if node == r0:
                        return True
                    node = head_of[node]
                return node == r0
            if all(reaches_root(x) for x in head_of):
                arbs.append(frozenset(combo))
    complements = {frozenset(g.edge_ids) - a for a in arbs}
    jaeger = set(enumerate_jaeger_trees(g.with_base(*base), VCUT))
    return {"base": base, "arborescences": len(arbs), "jaeger": len(jaeger),
            "equal": complements == jaeger}


def tour_pairs(g, tree) -> list[tuple[str, str]]:
    """The (node, edge) pairs of a spanning tree's tour from the base
    pair, walked through a table from each (node, edge) to the next edge
    in the rotation at node: a tree edge moves to its other end first."""
    succ = {(x, e): rot[(i + 1) % len(rot)]
            for x, rot in g.rotations.items() for i, e in enumerate(rot)}
    start = (g.base_node, g.base_edge)
    node, edge = start
    pairs = []
    for _ in range(2 * len(g.edges)):
        pairs.append((node, edge))
        if edge in tree:
            node = other_end(g, edge, node)
        edge = succ[(node, edge)]
        if (node, edge) == start:
            return pairs
    raise AssertionError("tour failed to close")


def divergence_by_full_tours(g, t1, t2, cut, flavor) -> str:
    """The divergence edge of two distinct trees: both flavor tours
    built whole by ``tour_pairs`` (on ``g`` when the flavor is the cut,
    on its reversed setup otherwise), then compared pair by pair."""
    setup = g if flavor == cut else g.reversed_setup()
    tour1, tour2 = tour_pairs(setup, t1), tour_pairs(setup, t2)
    for p1, p2 in zip(tour1, tour2):
        assert p1 == p2
        if (p1[1] in t1) != (p1[1] in t2):
            return p1[1]
    raise AssertionError("distinct trees must diverge")


def first_skip_cuts(g, tree) -> set[str]:
    """The cuts at whose colored end the reference tour first skips every
    non-tree edge."""
    first = {}
    for node, edge in tour_pairs(g, tree):
        if edge not in tree:
            first.setdefault(edge, g.color(node))
    return {cut for cut in (VCUT, ECUT) if all(c == cut for c in first.values())}


def base_side(g, tree, edge) -> frozenset[str]:
    """The base node's side of tree - edge, from one search over the
    other tree edges."""
    if edge not in tree:
        raise ValueError("tree cut needs a tree edge")
    side = {g.base_node}
    stack = [g.base_node]
    while stack:
        x = stack.pop()
        for e in g.rotations[x]:
            if e in tree and e != edge:
                y = other_end(g, e, x)
                if y not in side:
                    side.add(y)
                    stack.append(y)
    return frozenset(side)


def cut_values(g, tree) -> dict[str, dict[str, int]]:
    """For each edge e of a spanning tree, the +/-1 functional of its cut
    on every edge.  With S the component of tree - e that holds e's
    emerald end, a node weighs +1 when it is an emerald in S or a violet
    off it, and -1 otherwise; an edge takes the sum of its ends."""
    values = {}
    for e in tree:
        side = base_side(g, tree, e)
        if g.emerald_end(e) not in side:
            side = frozenset(g.nodes) - side
        values[e] = {f: 2 * ((a in side) - (b in side)) for f, (a, b) in g.edges.items()}
    return values


def separates(value, earlier, later, eps) -> bool:
    """The pair certificate: ``value``, the functional of eps's cut in
    the later tree, is 2 on eps, 0 on the later tree's other edges and
    at most 0 on the earlier tree's edges."""
    return (value[eps] == 2 and all(value[e] == 0 for e in later if e != eps)
            and all(value[e] <= 0 for e in earlier))


def certify_disjoint_interiors(g, earlier: frozenset[str], later: frozenset[str],
                               eps: str) -> bool:
    """The separating-functional certificate for one ordered pair of
    trees whose tours diverge at ``eps`` (an edge of the later tree): the
    functional of eps's cut in the later tree (``jaeger._base_cuts``)
    must be 2 on eps, 0 on the other later-tree edges and at most 0 on
    the earlier tree's edges."""
    _require_simple(g)
    if eps not in later:
        raise ValueError("tree cut needs a tree edge")
    return _certified(_positive(g, _base_cuts(g, later)), eps, g._edge_mask(earlier))


def random_setup_variation(g, seed: int):
    """Same underlying graph with freshly shuffled rotations and base."""
    rng = random.Random(seed)
    rotations = _random_rotations(rng, g.edges)
    base_node = rng.choice(list(g.nodes))
    incident = [e for e in g.edge_ids if base_node in g.edges[e]]
    base_edge = rng.choice(incident)
    return RibbonBipartiteGraph(g.emeralds, g.violets, dict(g.edges),
                                rotations, base_node, base_edge)


def marker_placement(g, trees) -> list[tuple[str, dict, list[int]]]:
    """Each hypertree's marker, emerald side first, with the positions of
    the trees whose simplices hold it strictly inside: every marker
    peeled on every simplex."""
    simplices = [TreeSimplex(g, t) for t in trees]
    scale = len(g.emeralds) * len(g.violets)
    out = []
    for side in (EMERALD, VIOLET):
        for f in enumerate_hypertrees(g, side):
            p = scaled_marker(g, f, side)
            out.append((side, f, [k for k, s in enumerate(simplices)
                                  if s.contains_scaled(p, scale, strict=True)]))
    return out


def tree_cut(g, tree, edge) -> tuple[frozenset[str], frozenset[str]]:
    """The two sides of tree - edge: the base node's side, and the edges
    joining the two sides (``edge`` among them)."""
    side = base_side(g, tree, edge)
    return side, frozenset(e for e, (a, b) in g.edges.items()
                           if (a in side) != (b in side))


@dataclass(frozen=True)
class ReferenceRun:
    """The reference walk's record, under the attribute names of
    ``BernardiRun``, with its steps and first-reach times built in the
    walk."""
    variant: ProcessVariant
    hypertree: tuple[tuple[str, int], ...]
    steps: tuple[BernardiStep, ...]
    result_tree: frozenset[str]
    current_edge_order: tuple[str, ...]
    first_reached: dict[str, int]


def bernardi_run(g, f, variant) -> ReferenceRun:
    """The Bernardi process walked on edge names: ``next_edge`` over the
    live edge set, a name-keyed union-find for the acyclicity check, and
    the final checks through ``is_spanning_tree``, ``degree_vector`` and
    each cut-side rotation against its edges sorted by current time.
    Every step asks the oracle's search whether the live graph without
    the current edge still realizes ``f``."""
    cut = variant.cut_side
    far = EMERALD if cut == VIOLET else VIOLET
    oracle = _oracle(g, variant.ht_side)
    f_key = _side_key(g, variant.ht_side, f)
    if oracle._search(f_key, frozenset(g.edge_ids)) is None:
        raise ValueError("input vector is not a hypertree")

    live = set(g.edge_ids)
    traversed: set[tuple[str, str]] = set()   # (edge, from-color)
    tree_uf = UnionFind(g.nodes)
    traversed_edges: set[str] = set()
    steps: list[BernardiStep] = []
    order: list[str] = []
    seen_current: set[str] = set()
    first_reached: dict[str, int] = {}

    def reach(node):
        first_reached.setdefault(node, len(order))

    def record_traversal(edge, from_color):
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
        reach(other_end(g, edge, g.edges[edge][from_color == VIOLET]))

    reach(g.base_node)
    if g.color(g.base_node) == cut:
        cur = g.base_edge
    else:
        record_traversal(g.base_edge, far)
        b1 = other_end(g, g.base_edge, g.base_node)
        cur = next_edge(g, b1, g.base_edge, live)

    limit = 4 * len(g.edge_ids) + 4
    while True:
        if (cur, cut) in traversed:
            break
        if cur in seen_current:
            raise TheoremViolation(f"edge {cur!r} became current twice")
        seen_current.add(cur)
        near = g.edges[cur][cut == VIOLET]
        order.append(cur)
        live_before = len(live)

        if oracle._search(f_key, frozenset(live - {cur})) is not None:
            if cur in traversed_edges:
                raise TheoremViolation(f"kept/traversed edge {cur!r} removed")
            nxt = next_edge(g, near, cur, live)
            live.discard(cur)
            steps.append(BernardiStep(cur, "removed", live_before, ()))
            if nxt == cur:
                raise AssertionError("removal isolated the current node")
            cur = nxt
        else:
            record_traversal(cur, cut)
            far_node = g.edges[cur][far == VIOLET]
            follow = next_edge(g, far_node, cur, live)
            if (follow, far) in traversed:
                steps.append(BernardiStep(cur, "kept", live_before,
                                          ((cur, cut),)))
                break
            record_traversal(follow, far)
            steps.append(BernardiStep(cur, "kept", live_before,
                                      ((cur, cut), (follow, far))))
            w = g.edges[follow][cut == VIOLET]
            cur = next_edge(g, w, follow, live)
        if len(order) > limit:
            raise AssertionError("process failed to terminate")

    if seen_current != set(g.edge_ids):
        raise TheoremViolation("some edge never became current")
    result = frozenset(live)
    if not g.is_spanning_tree(result):
        raise TheoremViolation("final current graph is not a spanning tree")
    if g.degree_vector(result, variant.ht_side) != f:
        raise TheoremViolation("result tree does not realize the hypertree")
    rank = {e: i for i, e in enumerate(order)}
    for x in g.side_nodes(cut):
        rot = g.rotations[x]
        by_time = sorted(rot, key=lambda e: rank[e])
        start = rot.index(by_time[0])
        if tuple(by_time) != rot[start:] + rot[:start]:
            raise TheoremViolation(
                f"current edges at {x!r} broke the cyclic-order discipline")
    return ReferenceRun(variant=variant, hypertree=tuple(sorted(f.items())),
                        steps=tuple(steps), result_tree=result,
                        current_edge_order=tuple(order),
                        first_reached=first_reached)


def check_arc_rule(g, order: list[int], cut_pos: int) -> None:
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


def avoid_by_full_arcs(oracle, tree: bytearray, live: bytearray, e: int) -> int:
    """``_Feasibility.avoid`` with every exchange arc drawn: the near side
    of tree - e by a search from e's node x, a reconnecting live edge (one
    at x if there is one), then the full exchange digraph of the new tree
    (``_arcs``) and a breadth-first search on it from x."""
    node, rotation, at = oracle.darts.node, oracle.darts.rotation, oracle.at
    x = node[2 * e + oracle.parity]
    tree[e] = 0
    near = bytearray(len(rotation))   # x's component of tree - e
    near[x] = 1
    stack = [x]
    while stack:
        for d in rotation[stack.pop()]:
            z = node[d ^ 1]
            if tree[d >> 1] and not near[z]:
                near[z] = 1
                stack.append(z)
    link = next((d >> 1 for d in rotation[x]
                 if live[d >> 1] and not near[node[d ^ 1]]), None)
    if link is None:
        link = next((k for k, alive in enumerate(live)
                     if alive and near[node[2 * k]] != near[node[2 * k + 1]]), None)
    if link is None:
        tree[e] = 1
        return (1 << len(oracle.side_nodes)) - 1
    tree[link] = 1
    source, target = at[e], at[link]
    if source == target:
        return 0
    adj, witness = oracle._arcs(tree, live)
    pred = _bfs(adj, source)
    if target in pred:
        _exchange(tree, pred, witness, target)
        return 0
    tree[link], tree[e] = 0, 1
    return sum(1 << p for p in pred)
