"""Hypertrees, transfers of valence, activities, and the interior and
exterior polynomials.

A hypertree on one color class assigns a nonnegative integer to each
node of that class so that some spanning tree has degree value+1 there.
The hypertrees of one class are the integer bases of a polymatroid
(Kalman 2013, "A version of Tutte's polynomial for hypergraphs"): f is
one exactly when f(S) <= mu(S) = |N(S)| - c(S) for every set S of the
class, with equality on the whole class, where N(S) is the set of
neighbours of S and c(S) counts the components of S, N(S) and the edges
at S.

Every question the library asks about them is answered by exchanges on
a tree T that realizes f.  Draw an arc j -> i when some non-tree edge at
j has a tree edge at i on its fundamental path in T.  Then f(S) = mu(S)
(S is tight) exactly when S is closed under the arcs, and, by base
exchange, the transfer f - 1_i + 1_j is a hypertree exactly when i is
reachable from j: no tight set holds j and misses i.  Exchanging along
a shortest path j = v_0 -> ... -> v_k = i (add each v_t's non-tree
edge, drop the tree edge at v_{t+1}) realizes the transfer, because a
shortest path has no shortcut arc, so its exchange matrix is triangular.

The family is enumerated by closing one spanning tree's degree vector
under the admitted transfers (the exchange axiom of M-convex sets joins
any two hypertrees by a path of them), and activities are read from the
transfer masks that the closure records for each member.  Exact
backtracking over per-node edge choices (``_Feasibility._search``)
remains as an independent oracle: ``is_hypertree``, paranoid Bernardi
runs and the tests use it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, compress, repeat
from typing import NamedTuple

from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, RibbonGraph, UnionFind, bip


class Poly:
    """Dense nonnegative-integer coefficient sequence, index = exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(map(int, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __str__(self):
        from .docio import format_polynomial
        return format_polynomial(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient_sum(self) -> int:
        return sum(self.coeffs)

    def to_json(self):
        return list(self.coeffs)

    @classmethod
    def counting(cls, exponents) -> "Poly":
        """The polynomial whose x^k coefficient counts k in ``exponents``."""
        counts: list[int] = []
        for k in exponents:
            if k >= len(counts):
                counts += [0] * (k + 1 - len(counts))
            counts[k] += 1
        return cls(counts)


def _side_key(g: RibbonBipartiteGraph, side: str, f: dict[str, int]):
    nodes = g.side_nodes(side)
    if set(f) != set(nodes):
        raise ValueError(f"hypertree must be indexed by the {side} nodes")
    return tuple(f[x] for x in nodes)


def _opposite(side: str) -> str:
    return VIOLET if side == EMERALD else EMERALD


class _Member(NamedTuple):
    """A hypertree f's realizing tree, as a byte mask over edge indices,
    and its admissible unit transfers, as bitmasks over the class's
    positions: bit y of ``out[x]`` when f - 1_x + 1_y is a hypertree, bit
    y of ``inn[x]`` when f - 1_y + 1_x is."""
    tree: bytes
    out: tuple[int, ...]
    inn: tuple[int, ...]


def _bfs(adj: list[int], source: int) -> dict[int, int]:
    """The positions reachable from ``source`` along the arcs ``adj`` (bit
    b of ``adj[a]`` for a -> b), each mapped to its predecessor on a
    shortest path from ``source``, which maps to itself."""
    pred = {source: source}
    seen = 1 << source
    frontier = [source]
    while frontier:
        reached = []
        for a in frontier:
            new = adj[a] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                b = low.bit_length() - 1
                pred[b] = a
                reached.append(b)
        frontier = reached
    return pred


def _exchange(tree: bytearray, pred: dict[int, int], witness: dict,
              target: int) -> None:
    """Exchange along the shortest path that ``pred`` gives to ``target``:
    each arc a -> b adds its non-tree edge at a and drops its tree edge at
    b (``witness[a, b]``), so the path's source gains an edge, ``target``
    loses one, and every other degree on the side stays."""
    b = target
    while pred[b] != b:
        a = pred[b]
        add, drop = witness[a, b]
        tree[add], tree[drop] = 1, 0
        b = a


class _Feasibility:
    """The hypertrees of one graph and side: their family, the exchange
    primitive that decides transfers and Bernardi steps on a realizing
    tree, and the backtracking search kept as an independent oracle.

    The exchange rule is the module's, among the live edges: with T
    realizing f, f(S) = |N(S)| - c_T(S), so S is tight exactly when T's
    edges at S connect what the live edges at S connect, that is, when S
    is closed under the arcs.

    Trees and live edge sets are bytearrays over edge indices; a side
    node is its position in ``side_nodes``, a set of them a bitmask.
    """

    def __init__(self, g: RibbonBipartiteGraph, side: str):
        self.g = g
        self.side = side
        self.side_nodes = g.side_nodes(side)
        self.opp_nodes = g.side_nodes(_opposite(side))
        self.parity = parity = 0 if side == EMERALD else 1   # of a dart at this side's end
        self.darts = g._darts
        node, rotation = g._darts.node, g._darts.rotation
        # the Bernardi walk's tables: each edge's end on the side and on the
        # other, the side's nodes in ``side_nodes`` order, each degree
        self.ht_end, self.opp_end = node[parity::2], node[1 - parity::2]
        self.ht_nodes = [x for x, ds in enumerate(rotation) if ds[0] & 1 == parity]
        self.degree = [len(ds) for ds in rotation]
        position = dict(zip(self.ht_nodes, range(len(self.ht_nodes))))
        self.at = [position[x] for x in self.ht_end]   # each edge's position
        self.ht_darts = [sorted(rotation[x]) for x in self.ht_nodes]   # arcs' draw order

    def _search(self, f_key, live) -> frozenset[str] | None:
        """A spanning tree inside ``live`` with degree f+1 at each node of
        the side, or None if none exists."""
        g = self.g
        need = {x: f_key[i] + 1 for i, x in enumerate(self.side_nodes)}
        if any(v < 1 for v in need.values()):
            return None
        # sum over the whole class: a necessary equality
        if sum(need.values()) != len(self.opp_nodes) - 1 + len(self.side_nodes):
            return None
        # singleton instances of the neighborhood inequality = degree caps
        inc_live = {x: [] for x in self.side_nodes}
        for e in g.edge_ids:
            if e in live:
                inc_live[g.edges[e][self.parity]].append(e)
        for x in self.side_nodes:
            if need[x] > len(inc_live[x]):
                return None
        for v in self.opp_nodes:
            if g.degree(v, live) == 0:
                return None

        uf = UnionFind(g.nodes)
        order = sorted(self.side_nodes,
                       key=lambda x: (len(inc_live[x]) - need[x], x))
        total_left = [0] * (len(order) + 1)
        for i in range(len(order) - 1, -1, -1):
            total_left[i] = total_left[i + 1] + need[order[i]]
        chosen: list[str] = []

        def rec(i: int) -> bool:
            if uf.components - 1 > total_left[i]:
                return False
            if i == len(order):
                return uf.components == 1
            x = order[i]
            mark, base = uf.snapshot(), len(chosen)
            for combo in combinations(inc_live[x], need[x]):
                good = True
                for e in combo:
                    a, b = self.g.edges[e]
                    if not uf.union(a, b):
                        good = False
                        break
                if good:
                    chosen.extend(combo)
                    if rec(i + 1):
                        return True
                    del chosen[base:]
                uf.rollback(mark)
            return False

        return frozenset(chosen) if rec(0) else None

    def _rooted(self, tree: bytearray) -> tuple[list[int], list[int]]:
        """A spanning tree rooted at the base node (``RibbonGraph._root``):
        at each node the dart up to its parent, and its depth."""
        node = self.darts.node
        try:
            order, upward = self.g._root(tree)
        except ValueError:
            raise AssertionError("exchange arcs of an edge set that does not span") from None
        depth = [0] * len(order)
        for y in order[1:]:
            depth[y] = depth[node[upward[y] ^ 1]] + 1
        return upward, depth

    def _arcs_from(self, sources, tree: bytearray, live: bytearray,
                   upward: list[int], depth: list[int]) -> dict:
        """Each exchange arc (a, b) out of the side positions ``sources``, in
        the order drawn on a tree rooted by ``_rooted``, with its first (live
        non-tree edge k at a in index order, tree edge t at b on k's path)."""
        node, at, ht_darts = self.darts.node, self.at, self.ht_darts
        found = {}
        for a in sources:
            drawn = 1 << a
            for d in ht_darts[a]:
                k = d >> 1
                if tree[k] or not live[k]:
                    continue
                u, v = node[d], node[d ^ 1]
                while u != v:
                    if depth[u] < depth[v]:
                        u, v = v, u
                    t = upward[u]
                    b = at[t >> 1]
                    if not drawn >> b & 1:
                        drawn |= 1 << b
                        found[a, b] = (k, t >> 1)
                    u = node[t ^ 1]
        return found

    def _arcs(self, tree: bytearray, live: bytearray) -> tuple[list[int], dict]:
        """The exchange arcs of a spanning tree of the live edges: bit b of
        ``adj[a]`` when a live non-tree edge at a has a tree edge at b on
        its fundamental path, and for each arc one such (non-tree edge,
        tree edge) pair."""
        upward, depth = self._rooted(tree)
        adj = [0] * len(self.side_nodes)
        witness = self._arcs_from(range(len(adj)), tree, live, upward, depth)
        for a, b in witness:
            adj[a] |= 1 << b
        return adj, witness

    def _realized(self, tree: bytearray) -> tuple[int, ...]:
        """The value tuple that a spanning tree realizes on the side."""
        vals = [-1] * len(self.side_nodes)
        for k in compress(range(len(tree)), tree):
            vals[self.at[k]] += 1
        return tuple(vals)

    @cached_property
    def family(self) -> dict[tuple[int, ...], _Member]:
        """Every hypertree's value tuple, mapped to a realizing tree and
        its admissible transfers: the closure of one spanning tree's
        degree vector under the transfers that reachability admits."""
        g = self.g
        node = self.darts.node
        root = list(range(len(g.nodes)))    # Kruskal in edge-index order
        start = bytearray(len(g.edge_ids))
        for k in range(len(start)):
            a, b = node[2 * k], node[2 * k + 1]
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            root[a], start[k] = b, a != b
        live = bytearray([1]) * len(start)
        width = len(self.side_nodes)
        trees = {self._realized(start): start}
        frontier = list(trees)
        family = {}
        while frontier:
            f = frontier.pop()
            tree = trees[f]
            adj, witness = self._arcs(tree, live)
            out, inn = [0] * width, [0] * width
            for j in range(width):
                pred = _bfs(adj, j)
                for i in pred:
                    if i == j:
                        continue
                    inn[j] |= 1 << i
                    out[i] |= 1 << j
                    shifted = list(f)
                    shifted[i] -= 1
                    shifted[j] += 1
                    cand = tuple(shifted)
                    if cand in trees:
                        continue
                    new = bytearray(tree)
                    _exchange(new, pred, witness, i)
                    # that it spans is checked when its arcs are drawn
                    if new.count(1) != len(g.nodes) - 1 or self._realized(new) != cand:
                        raise AssertionError(f"exchanges gave no tree realizing {cand}")
                    trees[cand] = new
                    frontier.append(cand)
            family[f] = _Member(bytes(tree), tuple(out), tuple(inn))
        return family

    def avoid(self, tree: bytearray, live: bytearray, e: int) -> int:
        """Rewrite ``tree``, a spanning tree of the ``live`` edges and edge
        ``e`` that uses ``e``, into a spanning tree of the live edges with
        the same degree at each node of the side, and return 0; or leave
        it as it is and return a set S of side positions (a bitmask) with
        f(S) > mu(S) among the live edges, f the hypertree it realizes.

        A live edge that reconnects tree - e (one at e's node x if there
        is one) makes a tree that moves one unit from x to the edge's node
        j; the unit moves back exactly when j is reachable from x.  If it
        is not, x and the nodes it reaches form a tight set of that tree,
        which f exceeds by the unit.  With no reconnecting edge the live
        edges are disconnected and f exceeds mu on the whole side.

        A lone tree edge e at x leaves x alone on its side, so any other
        live edge at x reconnects it with no move.  Otherwise the search
        from x draws the arcs as it reaches them, up the fundamental paths
        of the live non-tree edges at the nodes it visits, to j's level.
        """
        node, rotation, at = self.darts.node, self.darts.rotation, self.at
        x = node[2 * e + self.parity]
        tree[e] = 0
        for d in rotation[x]:
            if tree[d >> 1]:
                break
        else:       # lone: the first live edge at x, if any (none: a bridge)
            for d in rotation[x]:
                if live[d >> 1]:
                    tree[d >> 1] = 1
                    return 0
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
            return (1 << len(self.side_nodes)) - 1
        tree[link] = 1
        source, target = at[e], at[link]
        if source == target:
            return 0
        upward, depth = self._rooted(tree)
        pred, witness, seen, frontier = {source: source}, {}, 1 << source, [source]
        while frontier and target not in pred:
            reached = []
            for (a, b), pair in self._arcs_from(frontier, tree, live, upward, depth).items():
                if not seen >> b & 1:
                    seen |= 1 << b
                    pred[b], witness[a, b] = a, pair
                    reached.append(b)
            frontier = reached
        if target in pred:
            _exchange(tree, pred, witness, target)
            return 0
        tree[link], tree[e] = 0, 1
        return seen

    def excess(self, f_key, members: int, live: bytearray) -> int:
        """f(S) - mu(S) among the ``live`` edges, S the side positions in
        the bitmask ``members``: mu(S) = |N(S)| - c(S), with N(S) the
        neighbours of S and c(S) the components of S, N(S) and the live
        edges at S (Kalman 2013).  Positive exactly when S refutes f."""
        node = self.darts.node
        uf = UnionFind(range(len(self.darts.rotation)))
        around, joined = set(), 0
        for k, alive in enumerate(live):
            if alive and members >> self.at[k] & 1:
                around.add(node[2 * k + 1 - self.parity])
                joined += uf.union(node[2 * k], node[2 * k + 1])
        components = members.bit_count() + len(around) - joined
        value = sum(v for p, v in enumerate(f_key) if members >> p & 1)
        return value - (len(around) - components)


def _oracle(g: RibbonBipartiteGraph, side: str) -> _Feasibility:
    if side not in g._feas_cache:
        g._feas_cache[side] = _Feasibility(g, side)
    return g._feas_cache[side]


def is_hypertree(g: RibbonBipartiteGraph, side: str, f: dict[str, int]) -> bool:
    """Does some spanning tree of the graph realize ``f``?"""
    f_key = _side_key(g, side, f)
    if any(v < 0 for v in f_key):
        return False
    return _oracle(g, side)._search(f_key, frozenset(g.edge_ids)) is not None


def _family(g: RibbonBipartiteGraph, side: str) -> dict[tuple[int, ...], _Member]:
    """The hypertree value tuples on ``side``, each mapped to a realizing
    tree and its admissible transfers; built once per graph and side.
    Read only."""
    return _oracle(g, side).family


def _member(g: RibbonBipartiteGraph, side: str, f: dict[str, int]) -> _Member:
    member = _family(g, side).get(_side_key(g, side, f))
    if member is None:
        raise ValueError(f"not a hypertree on the {side} side: {f}")
    return member


def enumerate_hypertrees(g: RibbonBipartiteGraph, side: str) -> list[dict[str, int]]:
    """All hypertrees on ``side``, as a fresh list sorted by value tuples.

    Starts from the degree vector of one spanning tree and closes it
    under the unit valence transfers that exchange reachability admits.
    The closure is complete because hypertrees form an M-convex set:
    for hypertrees f != h and any x with f(x) > h(x) there is a y with
    f(y) < h(y) such that f - 1_x + 1_y is a hypertree, one step closer
    to h.
    """
    nodes = g.side_nodes(side)
    return [dict(zip(nodes, key)) for key in sorted(_family(g, side))]


def _order_positions(g: RibbonBipartiteGraph, side: str, order) -> list[int]:
    """The positions in ``side_nodes`` of a class order, which must list
    every node of the class exactly once."""
    pos = {x: i for i, x in enumerate(g.side_nodes(side))}
    order = list(order)
    if len(order) != len(pos) or set(order) != set(pos):
        raise ValueError(f"a class order must list each {side} node once")
    return [pos[x] for x in order]


def _inactivity(g: RibbonBipartiteGraph, side: str, f: dict[str, int],
                order, outgoing: bool) -> frozenset[str]:
    """The nodes x of ``order`` such that, for some y before x, the
    transfer x -> y (``outgoing``) or y -> x is admissible."""
    member, nodes = _member(g, side, f), g.side_nodes(side)
    reach = member.out if outgoing else member.inn
    before, inactive = 0, []
    for x in _order_positions(g, side, order):
        if reach[x] & before:
            inactive.append(nodes[x])
        before |= 1 << x
    return frozenset(inactive)


def internal_inactivity(g: RibbonBipartiteGraph, side: str, f: dict[str, int],
                        order) -> frozenset[str]:
    """The nodes that can transfer valence to some smaller node.

    ``order`` lists the whole class, each node once, from smallest to
    largest.
    """
    return _inactivity(g, side, f, order, outgoing=True)


def external_inactivity(g: RibbonBipartiteGraph, side: str, f: dict[str, int],
                        order) -> frozenset[str]:
    """The nodes that may receive a transfer from some smaller node."""
    return _inactivity(g, side, f, order, outgoing=False)


def _inactivities(member: _Member, order) -> tuple[int, int]:
    """(internal, external) inactivity of a member against a class order of
    positions, in one loop: how many x have a y before them with x -> y
    (internal) or y -> x (external) admissible."""
    out, inn = member.out, member.inn
    before = internal = external = 0
    for x in order:
        if out[x] & before:
            internal += 1
        if inn[x] & before:
            external += 1
        before |= 1 << x
    return internal, external


def _inactivity_polynomials(readings, width: int) -> tuple[Poly, Poly]:
    """The (interior, exterior) polynomials of (member, class order) pairs."""
    internal, external = [0] * (width + 1), [0] * (width + 1)
    for member, order in readings:
        i, e = _inactivities(member, order)
        internal[i] += 1
        external[e] += 1
    return Poly(internal), Poly(external)


def _classical_polynomials(g: RibbonBipartiteGraph, side: str, order=None) -> tuple[Poly, Poly]:
    """The interior and exterior polynomials of ``side``, in one pass over
    its hypertrees (see ``interior_polynomial``)."""
    width = len(g.side_nodes(side))
    positions = range(width) if order is None else _order_positions(g, side, order)
    return _inactivity_polynomials(zip(_family(g, side).values(), repeat(positions)), width)


def interior_polynomial(g: RibbonBipartiteGraph, side: str, order=None) -> Poly:
    """Generating function of internal inactivity over all hypertrees.

    Independent of ``order`` (default: sorted node names); callers who
    want the order-independence asserted can recompute with shuffles.
    """
    return _classical_polynomials(g, side, order)[0]


def exterior_polynomial(g: RibbonBipartiteGraph, side: str, order=None) -> Poly:
    return _classical_polynomials(g, side, order)[1]


# -- ordinary graphs ------------------------------------------------------

def tutte_x_polynomial(g: RibbonGraph) -> Poly:
    """T(x, 1) of a connected multigraph by deletion-contraction.

    Works on (vertex set, edge multiset) pairs; loops created by
    contraction contribute a factor of T(loop, 1) = 1.
    """
    def rec(vertices: tuple, edges: tuple) -> dict[int, int]:
        # edges: tuple of (edge_id, u, v) with u, v in vertices
        plain = [(e, u, v) for (e, u, v) in edges if u != v]
        if not plain:
            return {0: 1}
        e, u, v = plain[0]
        rest = tuple(t for t in edges if t[0] != e)
        # bridge test: does rest connect u and v?
        uf = UnionFind(vertices)
        for _, a, b in rest:
            if a != b:
                uf.union(a, b)
        if uf.find(u) != uf.find(v):
            sub = rec(vertices, rest)  # contraction == deletion + x factor
            return {k + 1: c for k, c in sub.items()}
        deleted = rec(vertices, rest)
        merged = tuple(x for x in vertices if x != v)
        contracted_edges = tuple(
            (eid, u if a == v else a, u if b == v else b) for (eid, a, b) in rest)
        contracted = rec(merged, contracted_edges)
        out = dict(deleted)
        for k, c in contracted.items():
            out[k] = out.get(k, 0) + c
        return out

    start = tuple((e, a, b) for e, (a, b) in sorted(g.edges.items()))
    coeffs = rec(g.nodes, start)
    top = max(coeffs) if coeffs else 0
    return Poly([coeffs.get(i, 0) for i in range(top + 1)])


def tutte_check(g: RibbonGraph) -> bool:
    """Interior polynomial of the subdivision vs xi^{|V|-1} T(1/xi, 1)."""
    t = tutte_x_polynomial(g)
    n = len(g.nodes)
    flipped = [0] * n
    for k, c in enumerate(t.coeffs):
        flipped[n - 1 - k] = c
    interior = interior_polynomial(bip(g), EMERALD)
    return interior == Poly(flipped)


def break_divisors(g: RibbonGraph) -> set[tuple[int, ...]]:
    """Integer vectors z on V with d - 1 - z a hypertree on V in bip(g)."""
    bg = bip(g)
    deg = {x: g.degree(x) for x in g.nodes}
    out = set()
    for f in enumerate_hypertrees(bg, VIOLET):
        out.add(tuple(deg[x] - 1 - f[x] for x in g.nodes))
    return out
