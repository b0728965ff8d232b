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
from itertools import chain, compress
from math import comb
from typing import NamedTuple

from .exactla import det_bareiss

EMERALD = "emerald"
VIOLET = "violet"

# the most subsets in one block of the spanning-tree sweep: each of a
# block's columns is an int of this many bits; also the most bits in one
# block of an Ehrhart dilate (polytope.ehrhart_values)
SWEEP_BLOCK = 1 << 16

_BIT = [bytes(b >> k & 1 for b in range(256)) for k in range(8)]   # bit k of each byte


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
    its first end (a bipartite graph's emerald end), dart 2i+1 at its
    second, so a dart's edge is ``d >> 1`` and its twin ``d ^ 1``."""
    succ: list[int]    # the next dart in the rotation at its node
    node: list[int]    # node index of each dart, into ``nodes``
    base: int          # the base edge at the base node
    rotation: list[tuple[int, ...]]  # each node's darts in rotation order


def _rotation_error(edges, nodes, rotations) -> ValidationError:
    """The error for the first node whose rotation is not a permutation."""
    for name in nodes:
        given = rotations.get(name)
        if given is not None and sorted(given) != sorted(
                e for e, ends in edges.items() if name in ends):
            return ValidationError(
                f"rotation at {name!r} is not a permutation of its incident edges")
    raise AssertionError("every rotation is a permutation of its incident edges")


class RibbonGraph:
    """Loopless multigraph with rotation system, base node and base edge."""

    bipartite = False

    def __init__(self, edges: dict[str, tuple[str, str]],
                 rotations: dict[str, tuple[str, ...]] | None,
                 base_node: str, base_edge: str):
        edges = {e: (str(a), str(b)) for e, (a, b) in edges.items()}
        node_set = set()
        for e, (a, b) in edges.items():
            if a == b:
                raise ValidationError(f"loop edge {e!r} at {a!r}")
            node_set.update((a, b))
        self._build(edges, rotations, base_node, base_edge, tuple(sorted(node_set)))

    def _build(self, edges: dict[str, tuple[str, str]],
               rotations: dict[str, tuple[str, ...]] | None,
               base_node: str, base_edge: str, nodes: tuple[str, ...]) -> None:
        """Index the sorted ``nodes`` and the normalized ``edges``, and build
        the dart table, validating on it: each rotation is a permutation of
        its node's darts, and the base node reaches every node."""
        if not edges:
            raise ValidationError("graph must have at least one edge")
        self.edges, self.nodes = edges, nodes
        self.edge_ids = ids = tuple(sorted(edges))
        count = 2 * len(ids)
        node_index = dict(zip(nodes, range(len(nodes))))
        even = dict(zip(ids, range(0, count, 2)))     # each edge's first dart
        ends = list(chain.from_iterable(map(edges.__getitem__, ids)))  # by dart
        node = list(map(node_index.__getitem__, ends))

        rotations = rotations or {}
        if not rotations.keys() <= node_index.keys():
            x = min(rotations.keys() - node_index.keys())
            raise ValidationError(f"rotation for undeclared node {x!r}")
        incident = None
        rot, rotation = {}, []
        succ = [-1] * count
        for name in nodes:
            given = rotations.get(name)
            if given is None:   # default: the edges in sorted order
                if incident is None:
                    incident = {x: [] for x in nodes}
                    for d, x in enumerate(ends):
                        incident[x].append(ids[d >> 1])
                given = incident[name]
            rot[name] = given = tuple(given)
            # the darts at this node, each linked to the next around it; a
            # rotation is a permutation exactly when each names an edge at
            # its node, every dart gets a successor, and none is listed twice
            ds = []
            for e in given:
                d = even.get(e, -2)
                d += ends[d] != name
                if d < 0 or ends[d] != name:
                    raise _rotation_error(edges, nodes, rotations)
                ds.append(d)
            prev = ds[-1] if ds else -1
            for d in ds:
                succ[prev] = prev = d
            rotation.append(tuple(ds))
        if -1 in succ or sum(map(len, rotation)) != count:
            raise _rotation_error(edges, nodes, rotations)
        self.rotations = rot

        if base_node not in node_index:
            raise ValidationError(f"base node {base_node!r} not in graph")
        if base_edge not in edges or base_node not in edges[base_edge]:
            raise ValidationError("base edge must be incident to the base node")
        self.base_node, self.base_edge = base_node, base_edge
        base = even[base_edge] + (ends[even[base_edge]] != base_node)

        reached = bytearray(len(nodes))
        reached[node[base]] = 1
        stack = [node[base]]
        while stack:
            for d in rotation[stack.pop()]:
                y = node[d ^ 1]
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
        if not all(reached):
            raise ValidationError("graph is not connected")

        self._darts = _DartTable(succ=succ, node=node, base=base, rotation=rotation)
        # side -> the hypertree oracle, which owns the side's family
        self._feas_cache: dict = {}
        self._subdivision: RibbonBipartiteGraph | None = None  # memo of bip()

    # -- basic queries ---------------------------------------------------

    def incident(self, node: str, live: Set[str] | None = None) -> tuple[str, ...]:
        rot = self.rotations[node]
        if live is None:
            return rot
        return tuple(e for e in rot if e in live)

    def degree(self, node: str, live: Set[str] | None = None) -> int:
        return len(self.incident(node, live))

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
        node = self._darts.node
        base = node[self._darts.base]
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
        ``bits``, in order, as frozensets of edge ids.  The columns are turned
        into bytes once, each byte position with a wanted subset is gathered
        across them once, and each subset read off that by one translation."""
        ids = self.edge_ids
        size = (max(c.bit_length() for c in cols) + 7) // 8
        rows = [c.to_bytes(size, "little") for c in cols]
        marks = format(bits, "b")[::-1]
        t, byte = marks.find("1"), -1
        while t >= 0:
            if t >> 3 != byte:
                byte = t >> 3
                column = bytes([row[byte] for row in rows])
            yield frozenset(compress(ids, column.translate(_BIT[t & 7])))
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
        return dict(zip(self.edge_ids, range(len(self.edge_ids))))

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
        succ, start = darts.succ, darts.base
        d, tour = start, []
        while True:     # the steps permute the darts: the base dart recurs
            tour.append(d)
            d = succ[d ^ 1] if mask >> (d >> 1) & 1 else succ[d]
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

        Darts are (tail node, edge).  The successor of (u, e) is (v, the
        edge after e around v) where v is the head of e.  With rotations
        read counterclockwise this lists each face's darts with the face
        on the right of the dart's direction of motion.
        """
        darts = self._darts
        names = [(self.nodes[x], self.edge_ids[d >> 1]) for d, x in enumerate(darts.node)]
        remaining = set(range(len(names)))
        out = []
        for start in sorted(remaining, key=names.__getitem__):
            walk = []
            d = start
            while d in remaining:
                remaining.discard(d)
                walk.append(names[d])
                d = darts.succ[d ^ 1]
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
        emeralds = tuple(sorted(map(str, emeralds)))
        violets = tuple(sorted(map(str, violets)))
        color = dict.fromkeys(emeralds, EMERALD)
        if not color.keys().isdisjoint(violets):
            raise ValidationError("a node cannot be both emerald and violet")
        color.update(dict.fromkeys(violets, VIOLET))
        norm = {}
        for e, (a, b) in edges.items():
            a, b = str(a), str(b)
            ca, cb = color.get(a), color.get(b)
            if ca is EMERALD and cb is VIOLET:
                norm[e] = (a, b)
            elif ca is VIOLET and cb is EMERALD:
                norm[e] = (b, a)
            elif ca is None or cb is None:
                raise ValidationError(f"edge {e!r} uses an undeclared node")
            else:
                raise ValidationError(f"edge {e!r} joins two {ca} nodes")
        self.emeralds = emeralds
        self.violets = violets
        self._color = color
        self._reversed: RibbonBipartiteGraph | None = None  # memo of reversed_setup()
        self._build(norm, rotations, base_node, base_edge, tuple(sorted(color)))

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
            rot = self.rotations[self.base_node]
            self._reversed = RibbonBipartiteGraph(
                self.emeralds, self.violets, dict(self.edges), rev,
                self.base_node, rot[rot.index(self.base_edge) - 1])
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
