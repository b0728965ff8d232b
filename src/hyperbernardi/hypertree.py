"""Hypertrees, transfers of valence, activities, and the interior and
exterior polynomials.

A hypertree on one color class assigns a nonnegative integer to each
node of that class so that some spanning tree has degree value+1 there.
Feasibility is decided by exact backtracking over per-node edge choices
with union-find pruning; the subset inequality sum f(E') <= |N(E')| - 1
is only used as a necessary rejection filter (singletons and the full
class), never assumed sufficient.

The hypertrees of one class are the lattice points of a polymatroid base
polytope (Kalman 2013, "A version of Tutte's polynomial for
hypergraphs"), so any two of them are joined by a path of unit valence
transfers f - 1_x + 1_y (the exchange axiom of M-convex sets).  The
family is therefore enumerated by closing one spanning tree's degree
vector under transfers that the feasibility oracle admits, and
activities are read off the family by membership.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations

from .graph import EMERALD, VIOLET, RibbonBipartiteGraph, RibbonGraph, UnionFind, bip


class Poly:
    """Dense nonnegative-integer coefficient sequence, index = exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(int(x) for x in coeffs)
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
        counts = Counter(exponents)
        return cls([counts[k] for k in range(max(counts, default=0) + 1)])


def _side_key(g: RibbonBipartiteGraph, side: str, f: dict[str, int]):
    nodes = g.side_nodes(side)
    if set(f) != set(nodes):
        raise ValueError(f"hypertree must be indexed by the {side} nodes")
    return tuple(f[x] for x in nodes)


def _opposite(side: str) -> str:
    return VIOLET if side == EMERALD else EMERALD


class _Feasibility:
    """Degree-constrained spanning tree search on one graph and side, and
    the side's hypertree family.

    A search answers with the realizing tree it found, or None.  Nothing
    is memoized but ``family``, which maps each hypertree's value tuple
    to the spanning tree that realized it.
    """

    def __init__(self, g: RibbonBipartiteGraph, side: str):
        self.g = g
        self.side = side
        self.side_nodes = g.side_nodes(side)
        self.opp_nodes = g.side_nodes(_opposite(side))
        pos = 0 if side == EMERALD else 1
        self.inc = {x: tuple(e for e in g.edge_ids if g.edges[e][pos] == x)
                    for x in self.side_nodes}

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
        inc_live = {x: [e for e in self.inc[x] if e in live] for x in self.side_nodes}
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

    @cached_property
    def family(self) -> dict[tuple[int, ...], frozenset[str]]:
        """The transfer closure of one spanning tree's degree vector, each
        member mapped to the tree that realized it."""
        g = self.g
        uf = UnionFind(g.nodes)
        tree = frozenset(e for e in g.edge_ids if uf.union(*g.edges[e]))
        vals = g.degree_vector(tree, self.side)
        start = tuple(vals[x] for x in self.side_nodes)

        live = frozenset(g.edge_ids)
        # a node's value stays below its degree; cheaper than a search
        cap = [g.degree(x) - 1 for x in self.side_nodes]
        idx = range(len(start))
        family, rejected = {start: tree}, set()
        frontier = [start]
        while frontier:
            f = frontier.pop()
            for i in idx:
                if f[i] == 0:
                    continue
                for j in idx:
                    if i == j or f[j] == cap[j]:
                        continue
                    shifted = list(f)
                    shifted[i] -= 1
                    shifted[j] += 1
                    cand = tuple(shifted)
                    if cand in family or cand in rejected:
                        continue
                    found = self._search(cand, live)
                    if found is not None:
                        family[cand] = found
                        frontier.append(cand)
                    else:
                        rejected.add(cand)
        return family


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


def _family(g: RibbonBipartiteGraph, side: str) -> dict[tuple[int, ...], frozenset[str]]:
    """The hypertree value tuples on ``side``, each mapped to a spanning
    tree that realizes it; built once per graph and side.  Read only."""
    return _oracle(g, side).family


def enumerate_hypertrees(g: RibbonBipartiteGraph, side: str) -> list[dict[str, int]]:
    """All hypertrees on ``side``, as a fresh list sorted by value tuples.

    Starts from the degree vector of one spanning tree and closes it
    under unit valence transfers admitted by the feasibility oracle.
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


def _inactive(family, key: tuple[int, ...], order: list[int],
              outgoing: bool) -> list[int]:
    """The positions x of ``order`` such that, for some y before x, the
    transfer x -> y (``outgoing``) or y -> x stays in ``family``."""
    key = list(key)
    inactive = []
    for k, x in enumerate(order):
        for y in order[:k]:
            src, dst = (x, y) if outgoing else (y, x)
            key[src] -= 1
            key[dst] += 1
            hit = tuple(key) in family
            key[src] += 1
            key[dst] -= 1
            if hit:
                inactive.append(x)
                break
    return inactive


def _inactivity(g: RibbonBipartiteGraph, side: str, f: dict[str, int],
                order, outgoing: bool) -> frozenset[str]:
    nodes = g.side_nodes(side)
    inactive = _inactive(_family(g, side), _side_key(g, side, f),
                         _order_positions(g, side, order), outgoing)
    return frozenset(nodes[i] for i in inactive)


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


def interior_polynomial(g: RibbonBipartiteGraph, side: str, order=None) -> Poly:
    """Generating function of internal inactivity over all hypertrees.

    Independent of ``order`` (default: sorted node names); callers who
    want the order-independence asserted can recompute with shuffles.
    """
    return _polynomial(g, side, order, outgoing=True)


def exterior_polynomial(g: RibbonBipartiteGraph, side: str, order=None) -> Poly:
    return _polynomial(g, side, order, outgoing=False)


def _polynomial(g: RibbonBipartiteGraph, side: str, order, outgoing: bool) -> Poly:
    if order is None:
        order = g.side_nodes(side)
    positions = _order_positions(g, side, order)
    family = _family(g, side)
    return Poly.counting(len(_inactive(family, key, positions, outgoing))
                         for key in family)


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
