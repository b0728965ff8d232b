"""Ribbon graphs, ribbon bipartite graphs, and tours of spanning trees.

A ribbon structure assigns to every node a cyclic order of its incident
edges.  Parallel edges are allowed (each edge has its own id), loops are
not.  Graphs are immutable after construction; "deleting" edges is done
through a ``live`` edge subset passed to the query methods, which
inherits the cyclic orders by restriction.

One spanning tree is read through two primitives on the dart table:
``_tour`` walks its tour from the base dart, ``_root`` roots it at the
base node.  The tours, T-orders and divergence edges read the first;
the spanning-tree check, the cut tables, the tree simplices' peels and
the hypertree oracle's exchange arcs read the second, which takes the
tree as flags by edge index (``_flags`` of a set of edge names).
"""

from __future__ import annotations

from collections.abc import Set
from functools import cached_property
from itertools import compress
from math import comb
from typing import NamedTuple

from .exactla import det_bareiss

EMERALD = "emerald"
VIOLET = "violet"

# the most subsets in one block of the spanning-tree sweep: each of a
# block's columns is an int of this many bits; also the most bits in one
# block of an Ehrhart dilate (polytope.ehrhart_values)
SWEEP_BLOCK = 1 << 16


class ValidationError(ValueError):
    """Raised when a graph violates a structural invariant."""


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}
        self.components = len(self.parent)
        self._trail: list[tuple[str, str]] = []

    def find(self, x):
        # no path compression so that rollback stays trivial
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        self._trail.append((rb, ra))
        return True

    def snapshot(self) -> int:
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        while len(self._trail) > mark:
            rb, ra = self._trail.pop()
            self.parent[rb] = rb
            self.size[ra] -= self.size[rb]
            self.components += 1


class _DartTable(NamedTuple):
    """A graph's darts as integers: dart 2i is edge i of ``edge_ids`` at
    its first end, dart 2i+1 at its second (for a bipartite graph, the
    emerald and the violet end)."""
    edge: list[int]    # edge index of each dart
    twin: list[int]    # the same edge at its other end
    succ: list[int]    # the next dart in the rotation at its node
    node: list[int]    # node index of each dart, into ``nodes``
    base: int          # the base edge at the base node
    rotation: list[tuple[int, ...]]  # each node's darts in rotation order


class RibbonGraph:
    """Loopless multigraph with rotation system, base node and base edge."""

    bipartite = False

    def __init__(self, edges: dict[str, tuple[str, str]],
                 rotations: dict[str, tuple[str, ...]] | None,
                 base_node: str, base_edge: str,
                 nodes: tuple[str, ...] | None = None):
        self.edges = {e: (str(a), str(b)) for e, (a, b) in edges.items()}
        node_set = set()
        for e, (a, b) in self.edges.items():
            if a == b:
                raise ValidationError(f"loop edge {e!r} at {a!r}")
            node_set.update((a, b))
        if nodes is not None:
            node_set.update(nodes)
        self.nodes = tuple(sorted(node_set))
        self.edge_ids = tuple(sorted(self.edges))
        if not self.edges:
            raise ValidationError("graph must have at least one edge")

        incident: dict[str, list[str]] = {x: [] for x in self.nodes}
        for e in self.edge_ids:
            a, b = self.edges[e]
            incident[a].append(e)
            incident[b].append(e)
        self._incident_sorted = {x: tuple(v) for x, v in incident.items()}

        if rotations is None:
            rotations = {}
        rot: dict[str, tuple[str, ...]] = {}
        for x in self.nodes:
            given = rotations.get(x)
            if given is None:
                # default: order of appearance in the (sorted) edge list
                rot[x] = self._incident_sorted[x]
            else:
                given = tuple(given)
                if sorted(given) != sorted(self._incident_sorted[x]):
                    raise ValidationError(
                        f"rotation at {x!r} is not a permutation of its incident edges")
                rot[x] = given
        self.rotations = rot

        if base_node not in set(self.nodes):
            raise ValidationError(f"base node {base_node!r} not in graph")
        if base_edge not in self.edges or base_node not in self.edges[base_edge]:
            raise ValidationError("base edge must be incident to the base node")
        self.base_node = base_node
        self.base_edge = base_edge

        uf = UnionFind(self.nodes)
        for a, b in self.edges.values():
            uf.union(a, b)
        if uf.components != 1:
            raise ValidationError("graph is not connected")

        # side -> the hypertree oracle, which owns the side's family
        self._feas_cache: dict = {}
        self._subdivision: RibbonBipartiteGraph | None = None  # memo of bip()

    # -- basic queries ---------------------------------------------------

    def other_end(self, edge: str, node: str) -> str:
        a, b = self.edges[edge]
        if node == a:
            return b
        if node == b:
            return a
        raise ValueError(f"edge {edge!r} not incident to {node!r}")

    def incident(self, node: str, live: Set[str] | None = None) -> tuple[str, ...]:
        rot = self.rotations[node]
        if live is None:
            return rot
        return tuple(e for e in rot if e in live)

    def degree(self, node: str, live: Set[str] | None = None) -> int:
        return len(self.incident(node, live))

    def _rotation_step(self, node: str, edge: str, step: int,
                       live: Set[str] | None) -> str:
        rot = self.rotations[node]
        if edge not in rot:
            raise ValueError(f"edge {edge!r} not incident to {node!r}")
        if live is not None and edge not in live:
            raise ValueError(f"edge {edge!r} not live")
        n = len(rot)
        i = rot.index(edge)
        for k in range(1, n + 1):
            cand = rot[(i + step * k) % n]
            if live is None or cand in live:
                return cand
        raise AssertionError("unreachable: edge itself is live")

    def next_edge(self, node: str, edge: str, live: Set[str] | None = None) -> str:
        """The edge following ``edge`` at ``node`` in the inherited order."""
        return self._rotation_step(node, edge, +1, live)

    def prev_edge(self, node: str, edge: str, live: Set[str] | None = None) -> str:
        return self._rotation_step(node, edge, -1, live)

    @cached_property
    def _darts(self) -> _DartTable:
        """The dart table of the tour walks and the Bernardi process,
        built on the first walk; ``next_edge`` and ``prev_edge`` read
        ``rotations`` and never need it."""
        index = {e: i for i, e in enumerate(self.edge_ids)}

        def dart(x: str, e: str) -> int:
            return 2 * index[e] + self.edges[e].index(x)

        rotation = [tuple(dart(x, e) for e in self.rotations[x]) for x in self.nodes]
        darts = range(2 * len(index))
        succ, node = [0] * len(darts), [0] * len(darts)
        for x, ds in enumerate(rotation):
            for d, nxt in zip(ds, ds[1:] + ds[:1]):
                succ[d], node[d] = nxt, x
        return _DartTable(
            edge=[d >> 1 for d in darts], twin=[d ^ 1 for d in darts], succ=succ,
            node=node, base=dart(self.base_node, self.base_edge), rotation=rotation)

    def is_spanning_tree(self, tree: frozenset[str]) -> bool:
        """Whether ``tree`` is a set of edges of this graph that forms a
        spanning tree, that is whether ``_root`` roots it; a name that is
        not an edge here makes it False."""
        try:
            self._root(self._flags(tree))
        except ValueError:
            return False
        return True

    # -- spanning trees --------------------------------------------------

    def spanning_trees(self):
        """All spanning trees, lexicographic by sorted edge-id tuples,
        lazily: each block of ``_tree_blocks`` is decoded by
        ``_block_subsets`` when it is reached, so a sweep holds one
        block at a time."""
        for cols, span in self._tree_blocks():
            yield from self._block_subsets(cols, span)

    def _tree_blocks(self):
        """The (|V|-1)-edge subsets, lexicographic by sorted edge-index
        tuples, in blocks of at most ``SWEEP_BLOCK`` consecutive subsets.
        Each block is a pair (cols, span) of ints: bit t of cols[i] is set
        when the block's t-th subset holds edge i, and bit t of span when
        that subset connects every node, which for |V| - 1 edges makes
        it a spanning tree.

        The k-subsets of the edges from j on are those holding j (the
        low bits) followed by those without it.  A block is a prefix of
        edges, each in all of its subsets or in none, and a table of the
        subsets of the edges after it.  Each table is built from two
        smaller ones and memoized for this sweep; a table holds at most
        ``SWEEP_BLOCK`` subsets and there is at most one per pair (j, k),
        so memory follows the block size and not the number of subsets.
        A subset reaches a node when an edge it holds joins the node to
        one it reaches: bit-parallel passes over the edges spread the
        base node's reach until a pass adds nothing.
        """
        m, need = len(self.edge_ids), len(self.nodes) - 1
        node, base = self._darts.node, self.nodes.index(self.base_node)
        tables: dict[tuple[int, int], tuple[list[int], int]] = {}

        def table(j: int, k: int) -> tuple[list[int], int]:
            """The columns of the edges from j on over their k-subsets,
            and the number of subsets."""
            if (j, k) not in tables:
                if k == 0 or k > m - j:
                    tables[j, k] = [0] * (m - j), int(k == 0)
                else:
                    a, na = table(j + 1, k - 1)
                    b, nb = table(j + 1, k)
                    tables[j, k] = ([(1 << na) - 1] + [x | y << na for x, y in zip(a, b)],
                                    na + nb)
            return tables[j, k]

        def blocks(j: int, k: int, prefix: list[int]):
            if comb(m - j, k) > SWEEP_BLOCK:
                yield from blocks(j + 1, k - 1, prefix + [1])
                yield from blocks(j + 1, k, prefix + [0])
                return
            suffix, n = table(j, k)
            full = (1 << n) - 1
            cols = [full * flag for flag in prefix] + suffix
            reach = [0] * len(self.nodes)
            reach[base] = full
            edges = [(c, node[2 * i], node[2 * i + 1]) for i, c in enumerate(cols) if c]
            grown = True
            while grown:
                grown = False
                for c, a, b in edges:
                    x = (reach[a] ^ reach[b]) & c
                    if x:
                        reach[a] |= x
                        reach[b] |= x
                        grown = True
            span = full
            for r in reach:
                span &= r
            yield cols, span

        yield from blocks(0, need, [])

    def _block_subsets(self, cols, bits):
        """The subsets of a ``_tree_blocks`` block at the set bits of
        ``bits``, in order, as frozensets of edge ids; the columns are
        turned into bytes once, so each subset costs one byte per edge."""
        ids = self.edge_ids
        size = (max(c.bit_length() for c in cols) + 7) // 8
        rows = [c.to_bytes(size, "little") for c in cols]
        marks = format(bits, "b")[::-1]
        t = marks.find("1")
        while t >= 0:
            byte, bit = t >> 3, 1 << (t & 7)
            yield frozenset(compress(ids, [row[byte] & bit for row in rows]))
            t = marks.find("1", t + 1)

    def count_spanning_trees(self) -> int:
        """Kirchhoff matrix-tree count (independent oracle)."""
        idx = {x: i for i, x in enumerate(self.nodes)}
        n = len(self.nodes)
        lap = [[0] * n for _ in range(n)]
        for a, b in self.edges.values():
            i, j = idx[a], idx[b]
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
        minor = [row[1:] for row in lap[1:]]
        return det_bareiss(minor)

    @cached_property
    def _edge_index(self) -> dict[str, int]:
        """Each edge's index in ``edge_ids``, its bit in edge bitmasks."""
        return {e: i for i, e in enumerate(self.edge_ids)}

    def _edge_mask(self, edges) -> int:
        """The bitmask of a set of edges."""
        index = self._edge_index
        return sum(1 << index[e] for e in edges)

    def _flags(self, edges: Set[str]) -> bytearray:
        """A set of edge names as flags by edge index, the tree encoding
        of ``_root``; a name that is not an edge here is in no spanning tree."""
        if not self._edge_index.keys() >= edges:
            raise ValueError("not a spanning tree")
        return bytearray(e in edges for e in self.edge_ids)

    def _root(self, held) -> tuple[list[int], list[int]]:
        """A spanning tree, as flags by edge index (``_flags``), rooted at
        the base node on the dart table: its nodes in breadth-first order
        from the base node, and at each node the dart of its tree edge to
        its parent (-1 at the base node).  Reversed, the order lists every
        node after its children."""
        darts = self._darts
        node, rotation = darts.node, darts.rotation
        n = len(rotation)
        root = node[darts.base]
        upward = [-1] * n
        order = [root]
        for x in order:
            for d in rotation[x]:
                y = node[d ^ 1]
                if held[d >> 1] and y != root and upward[y] < 0:
                    upward[y] = d ^ 1
                    order.append(y)
        if len(order) != n or held.count(1) != n - 1:
            raise ValueError("not a spanning tree")
        return order, upward

    # -- tour of a spanning tree ------------------------------------------

    def _tour(self, mask: int) -> list[int]:
        """The darts of a spanning tree's tour from the base dart, for the
        tree as an edge bitmask (not checked to be a spanning tree): from
        a tree edge's dart the tour moves on after its twin, from a
        non-tree edge's dart after the dart itself, in the rotation.
        Stops right before the base dart recurs."""
        darts = self._darts
        succ, twin, start = darts.succ, darts.twin, darts.base
        d, tour = start, []
        while True:     # the steps permute the darts: the base dart recurs
            tour.append(d)
            d = succ[twin[d]] if mask >> (d >> 1) & 1 else succ[d]
            if d == start:
                return tour

    def tour_pairs(self, tree: frozenset[str]) -> list[tuple[str, str]]:
        """The (node, edge) pairs of the tour (``_tour``) of a spanning
        tree, from the base pair."""
        if not self.is_spanning_tree(tree):
            raise ValueError("not a spanning tree")
        node, ids, nodes = self._darts.node, self.edge_ids, self.nodes
        return [(nodes[node[d]], ids[d >> 1]) for d in self._tour(self._edge_mask(tree))]

    def tour_order(self, tree: frozenset[str]) -> tuple[str, ...]:
        """The edges by first occurrence in the tour of a spanning tree."""
        return tuple(dict.fromkeys(e for _, e in self.tour_pairs(tree)))

    # -- faces / genus -----------------------------------------------------

    def faces(self) -> list[tuple[tuple[str, str], ...]]:
        """Face boundary walks as orbits of the face-tracing permutation.

        Darts are (tail node, edge).  The successor of (u, e) is
        (v, next_edge(v, e)) where v is the head of e.  With rotations
        read counterclockwise this lists each face's darts with the face
        on the right of the dart's direction of motion.
        """
        darts = self._darts
        names = [(self.nodes[x], self.edge_ids[e])
                 for x, e in zip(darts.node, darts.edge)]
        remaining = set(range(len(names)))
        out = []
        for start in sorted(remaining, key=names.__getitem__):
            walk = []
            d = start
            while d in remaining:
                remaining.discard(d)
                walk.append(names[d])
                d = darts.succ[darts.twin[d]]
            if walk:
                out.append(tuple(walk))
        return out

    def genus(self) -> int:
        f = len(self.faces())
        v = len(self.nodes)
        e = len(self.edges)
        euler = v - e + f
        if euler % 2 != 0:
            raise AssertionError("Euler characteristic must be even")
        return (2 - euler) // 2


class RibbonBipartiteGraph(RibbonGraph):
    """Two-colored ribbon multigraph; edges join emerald to violet."""

    bipartite = True

    def __init__(self, emeralds, violets,
                 edges: dict[str, tuple[str, str]],
                 rotations: dict[str, tuple[str, ...]] | None,
                 base_node: str, base_edge: str):
        emeralds = tuple(sorted(str(x) for x in emeralds))
        violets = tuple(sorted(str(x) for x in violets))
        if set(emeralds) & set(violets):
            raise ValidationError("a node cannot be both emerald and violet")
        color = {x: EMERALD for x in emeralds}
        color.update({x: VIOLET for x in violets})
        norm = {}
        for e, (a, b) in edges.items():
            a, b = str(a), str(b)
            if a not in color or b not in color:
                raise ValidationError(f"edge {e!r} uses an undeclared node")
            if color[a] == color[b]:
                raise ValidationError(f"edge {e!r} joins two {color[a]} nodes")
            norm[e] = (a, b) if color[a] == EMERALD else (b, a)
        self.emeralds = emeralds
        self.violets = violets
        self._color = color
        self._reversed: RibbonBipartiteGraph | None = None  # memo of reversed_setup()
        super().__init__(norm, rotations, base_node, base_edge,
                         nodes=emeralds + violets)

    # -- color helpers ----------------------------------------------------

    def color(self, node: str) -> str:
        return self._color[node]

    def side_nodes(self, side: str) -> tuple[str, ...]:
        if side == EMERALD:
            return self.emeralds
        if side == VIOLET:
            return self.violets
        raise ValueError(f"unknown side {side!r}")

    def emerald_end(self, edge: str) -> str:
        return self.edges[edge][0]

    def violet_end(self, edge: str) -> str:
        return self.edges[edge][1]

    # -- derived graphs ----------------------------------------------------

    def transpose(self) -> "RibbonBipartiteGraph":
        """Swap colors; rotations and base are untouched."""
        return RibbonBipartiteGraph(
            self.violets, self.emeralds,
            dict(self.edges), dict(self.rotations),
            self.base_node, self.base_edge)

    def reversed_setup(self) -> "RibbonBipartiteGraph":
        """All rotations reversed; base edge becomes b0b1- (computed here,
        in the original structure).  Graphs are immutable, so the
        reversed setup is built once per graph and shared with its memos;
        reversing it again gives a graph equal to this one.  It has the
        same edges and colors, hence the same hypertrees and
        realizations, so it shares this graph's hypertree oracles."""
        if self._reversed is None:
            rev = {x: tuple(reversed(r)) for x, r in self.rotations.items()}
            self._reversed = RibbonBipartiteGraph(
                self.emeralds, self.violets, dict(self.edges), rev,
                self.base_node, self.prev_edge(self.base_node, self.base_edge))
            self._reversed._feas_cache = self._feas_cache
        return self._reversed

    def with_base(self, base_node: str, base_edge: str) -> "RibbonBipartiteGraph":
        return RibbonBipartiteGraph(
            self.emeralds, self.violets, dict(self.edges),
            dict(self.rotations), base_node, base_edge)

    def induced_order(self, side: str, edge_order) -> tuple[str, ...]:
        """The ``side`` nodes ordered by the earliest position of an
        incident edge in ``edge_order``, which must reach every one."""
        nodes = self.side_nodes(side)
        pos = 0 if side == EMERALD else 1
        order = tuple(dict.fromkeys(self.edges[e][pos] for e in edge_order))
        if len(order) != len(nodes):
            raise ValueError(f"edge order misses a {side} node")
        return order

    def degree_vector(self, tree: frozenset[str], side: str) -> dict[str, int]:
        """The hypertree realized by ``tree`` on ``side``: degree - 1."""
        vals = {x: -1 for x in self.side_nodes(side)}
        pos = 0 if side == EMERALD else 1
        for e in tree:
            vals[self.edges[e][pos]] += 1
        return vals


def bip(g: RibbonGraph) -> RibbonBipartiteGraph:
    """Subdivision of an ordinary ribbon graph into a ribbon bipartite graph.

    The vertices of ``g`` become violet nodes, its edges become emerald
    nodes of degree two, and each edge splits into two half-edges named
    ``"<edge>|<vertex>"``.  Degree-two nodes admit a unique cyclic order,
    so the ribbon structure extends uniquely; the base pair carries over
    to the half-edge at the base node.  Graphs are immutable, so the
    subdivision is built once per graph and shared with its memos.
    """
    if g._subdivision is not None:
        return g._subdivision
    clash = set(g.nodes) & set(g.edge_ids)
    if clash:
        raise ValidationError(f"vertex/edge name clash: {sorted(clash)}")
    halves = {}
    for e, (a, b) in g.edges.items():
        halves[f"{e}|{a}"] = (e, a)
        halves[f"{e}|{b}"] = (e, b)
    rotations = {}
    for x in g.nodes:
        rotations[x] = tuple(f"{e}|{x}" for e in g.rotations[x])
    g._subdivision = RibbonBipartiteGraph(
        emeralds=g.edge_ids, violets=g.nodes, edges=halves,
        rotations=rotations, base_node=g.base_node,
        base_edge=f"{g.base_edge}|{g.base_node}")
    return g._subdivision
