"""Graph core: documents, rotations, views, tours, trees, faces."""

import random
from collections import deque
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbernardi import graph
from hyperbernardi.docio import GraphFormatError, parse_graph, serialize_graph
from hyperbernardi.fixtures import noncrossing_setup, torus_k4
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import RibbonBipartiteGraph, ValidationError, bip
from hyperbernardi.jaeger import _base_cuts
from oracles import next_edge, other_end, prev_edge, tree_cut

C4_DOC = """
hyperbernardi-graph v1
emerald: e1 e2
violet: v1 v2
edges:
  c1 e1 v1
  c2 e2 v1
  c3 e2 v2
  c4 e1 v2
base: v1 c1
"""

RUNNING_DOC = """
hyperbernardi-graph v1
# seven nodes, nine edges
emerald: e0 e1 e2 e3
violet: v0 v1 v2
edges:
  e0v0 e0 v0
  e0v1 e0 v1
  e1v1 e1 v1
  e1v2 e1 v2
  e2v0 e2 v0
  e2v2 e2 v2
  e3v0 e3 v0
  e3v1 e3 v1
  e3v2 e3 v2
rotations:
  v0: e0v0 e3v0 e2v0
  v1: e0v1 e1v1 e3v1
  v2: e2v2 e3v2 e1v2
  e3: e3v0 e3v1 e3v2
base: v0 e0v0
"""


def test_parse_c4_document():
    g = parse_graph(C4_DOC)
    assert len(g.nodes) == 4 and len(g.edge_ids) == 4
    assert g.base_node == "v1" and g.base_edge == "c1"
    # default rotation: order of appearance in the edge list
    assert g.rotations["v1"] == ("c1", "c2")
    assert g.rotations["e1"] == ("c1", "c4")


def _cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = b + b
    return any(a == doubled[i:i + len(a)] for i in range(len(b)))


def test_parse_running_document(running_fixture):
    g = parse_graph(RUNNING_DOC)
    assert len(g.nodes) == 7 and len(g.edge_ids) == 9
    for x in g.nodes:
        assert _cyclic_equal(g.rotations[x], running_fixture.graph.rotations[x])


def test_serialize_round_trip(running_fixture):
    g = running_fixture.graph
    again = parse_graph(serialize_graph(g))
    assert again.edges == g.edges
    assert again.rotations == g.rotations
    assert (again.base_node, again.base_edge) == (g.base_node, g.base_edge)


@pytest.mark.parametrize("mutation, message", [
    ("header", "header"),
    ("loop", "joins two"),
    ("disconnected", "not connected"),
    ("rotation", "permutation"),
    ("base", "incident"),
    ("duplicate-rotation", "duplicate rotation"),
])
def test_document_errors(mutation, message):
    doc = C4_DOC
    if mutation == "header":
        doc = doc.replace("hyperbernardi-graph v1", "something v0")
    elif mutation == "loop":
        doc = doc.replace("c2 e2 v1", "c2 e2 e1")
    elif mutation == "disconnected":
        doc = doc.replace("emerald: e1 e2", "emerald: e1 e2 e9")
    elif mutation == "rotation":
        doc = doc.replace("base:", "rotations:\n  v1: c1 c3\nbase:")
    elif mutation == "base":
        doc = doc.replace("base: v1 c1", "base: v1 c3")
    elif mutation == "duplicate-rotation":
        # a second line for the same node must not override the first
        doc = doc.replace("base:", "rotations:\n  v1: c1 c2\n  v1: c2 c1\nbase:")
    with pytest.raises(GraphFormatError, match=message):
        parse_graph(doc)


@pytest.mark.parametrize("old, new, message", [
    ("hyperbernardi-graph v1", "", "missing header 'hyperbernardi-graph v1'"),
    ("emerald:", "stray\nemerald:", "content before any section: 'stray'"),
    ("violet: v1 v2", "violet:", "both emerald: and violet: sections are required"),
    ("emerald: e1 e2", "emerald: e1 e2 e1", "duplicate node name"),
    ("  c4 e1 v2", "  c4 e1", "edge line needs 'id emerald violet': 'c4 e1'"),
    ("  c4 e1 v2", "  c4 v2 e1", "edge line needs 'id emerald violet': 'c4 v2 e1'"),
    ("  c4 e1 v2", "  c3 e1 v2", "duplicate edge id 'c3'"),
    ("  c4 e1 v2", "  c4 e1 v9", "edge 'c4' uses an undeclared node"),
    ("edges:\n  c1 e1 v1\n  c2 e2 v1\n  c3 e2 v2\n  c4 e1 v2", "edges:",
     "edges: section is empty"),
    ("base:", "rotations:\n  v1 c1 c2\nbase:",
     "rotation line needs 'node: id id ...': 'v1 c1 c2'"),
    ("base:", "rotations:\n  v9: c1\nbase:", "rotation for undeclared node 'v9'"),
    ("base:", "rotations: v1: c1 c2\n  v1: c2 c1\nbase:",
     "duplicate rotation for node 'v1'"),
    ("base: v1 c1", "base: v1", "base: section needs 'nodeName edgeId'"),
    ("base: v1 c1", "base: v1 c1 c2", "base: section needs 'nodeName edgeId'"),
    ("base:", "rotations:\n  v1: c1 c3\nbase:",
     "rotation at 'v1' is not a permutation of its incident edges"),
    ("violet: v1 v2", "violet: v1 v2 e1", "a node cannot be both emerald and violet"),
    ("emerald: e1 e2", "emerald: e1 e2 e9", "graph is not connected"),
])
def test_document_error_messages(old, new, message):
    """Each ``GraphFormatError`` of ``parse_graph``, with its message in
    full; a graph the constructor refuses keeps the constructor's."""
    assert old in C4_DOC
    with pytest.raises(GraphFormatError) as caught:
        parse_graph(C4_DOC.replace(old, new, 1))
    assert str(caught.value) == message


def test_next_prev_edge(c4_fixture):
    g = c4_fixture.graph
    assert next_edge(g, "v1", "c1") == "c2"
    assert next_edge(g, "v1", "c2") == "c1"
    assert prev_edge(g, "v1", "c1") == "c2"
    live = frozenset(g.edge_ids) - {"c2"}
    assert next_edge(g, "v1", "c1", live) == "c1"  # degree one: self-successor
    with pytest.raises(ValueError):
        next_edge(g, "v1", "c3")
    with pytest.raises(ValueError):
        next_edge(g, "v1", "c2", live)


def test_next_edge_running_rotation(running_fixture):
    g = running_fixture.graph
    # counterclockwise at v0 in the drawing: e0v0 -> e3v0 -> e2v0
    assert next_edge(g, "v0", "e0v0") == "e3v0"
    assert next_edge(g, "v0", "e3v0") == "e2v0"
    assert next_edge(g, "v0", "e2v0") == "e0v0"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), drop=st.integers(0, 10 ** 6))
def test_view_next_edge_consistency(seed, drop):
    g = random_bipartite(seed % 5000, 4, 4, 10)
    rng = random.Random(drop)
    live = frozenset(e for e in g.edge_ids if rng.random() < 0.7)
    for x in g.nodes:
        inc = [e for e in g.rotations[x] if e in live]
        for e in inc:
            nxt = next_edge(g, x, e, live)
            # walking the parent rotation and skipping dead edges agrees
            cand = next_edge(g, x, e)
            while cand not in live:
                cand = next_edge(g, x, cand)
            assert nxt == cand
            assert prev_edge(g, x, nxt, live) == e
    # the all-live view agrees with the full rotation, and with the
    # successor of each dart in the graph's dart table
    everything = frozenset(g.edge_ids)
    for x in g.nodes:
        for e in g.rotations[x]:
            assert next_edge(g, x, e) == next_edge(g, x, e, everything)
    darts = g._darts
    for d, x in enumerate(darts.node):
        assert g.edge_ids[darts.succ[d] >> 1] == next_edge(g, g.nodes[x], g.edge_ids[d >> 1])


def test_tour_paper_example(tour_fixture):
    g = tour_fixture.graph
    tree = tour_fixture.value("tree")
    assert tuple(g.tour_pairs(tree)) == tour_fixture.value("tour_pairs")
    assert g.tour_order(tree) == tour_fixture.value("edge_order")


def test_tour_c4(c4_fixture):
    g = c4_fixture.graph
    tree = frozenset({"c2", "c3", "c4"})
    pairs = tuple(g.tour_pairs(tree))
    assert pairs == (("v1", "c1"), ("v1", "c2"), ("e2", "c3"),
                     ("v2", "c4"), ("e1", "c1"), ("e1", "c4"),
                     ("v2", "c3"), ("e2", "c2"))
    # a tree edge is traversed, a non-tree edge skipped
    assert [e in tree for _, e in pairs[:5]] == [False, True, True, True, False]
    assert g.tour_order(tree) == ("c1", "c2", "c3", "c4")


def test_tour_single_edge(single_edge_fixture):
    g = single_edge_fixture.graph
    pairs = tuple(g.tour_pairs(frozenset({"ev"})))
    assert pairs == (("v", "ev"), ("e", "ev"))  # traversed there and back
    assert g.tour_order(frozenset({"ev"})) == ("ev",)


def test_tour_totality(c4_fixture, running_fixture):
    instances = [c4_fixture.graph, running_fixture.graph]
    instances += [random_bipartite(seed, 4, 4, 12) for seed in range(6)]
    for g in instances:
        all_pairs = {(x, e) for e in g.edge_ids for x in g.edges[e]}
        for tree in g.spanning_trees():
            pairs = tuple(g.tour_pairs(tree))
            assert len(pairs) == len(set(pairs)) == len(all_pairs)
            assert set(pairs) == all_pairs


def test_unknown_edge_is_not_a_spanning_tree(c4_fixture, running_fixture):
    """A name that is not an edge of the graph makes the set no spanning
    tree, so the tree queries refuse it with their documented error."""
    from hyperbernardi.graph import VIOLET
    from hyperbernardi.jaeger import VCUT, is_jaeger_tree, jaeger_cuts, t_order
    from hyperbernardi.polytope import TreeSimplex, normalized_simplex_volume
    g = c4_fixture.graph
    bad = frozenset({"c1", "c2", "zz"})
    assert not g.is_spanning_tree(bad)
    for query in (lambda: g.tour_order(bad), lambda: jaeger_cuts(g, bad),
                  lambda: is_jaeger_tree(g, bad, VCUT), lambda: t_order(g, bad, VIOLET),
                  lambda: TreeSimplex(g, bad)):
        with pytest.raises(ValueError, match="not a spanning tree"):
            query()
    # the volume takes any |V| - 1 edges of the graph, and is 0 off the trees
    with pytest.raises(ValueError, match="'zz' is not an edge"):
        normalized_simplex_volume(g, bad)
    r = running_fixture.graph
    cyclic = next(frozenset(s) for s in combinations(r.edge_ids, len(r.nodes) - 1)
                  if not r.is_spanning_tree(frozenset(s)))
    assert normalized_simplex_volume(r, cyclic) == 0


def test_tour_requires_spanning_tree(c4_fixture):
    cycle = frozenset({"c1", "c2", "c3", "c4"})
    for query in (c4_fixture.graph.tour_order, c4_fixture.graph.tour_pairs):
        with pytest.raises(ValueError, match="not a spanning tree"):
            query(cycle)


def test_path_graph_tour_is_dfs_order():
    # tree-path graph: the edge order is the discovery order along the path
    edges = {"p0": ("e0", "v0"), "p1": ("e1", "v0"),
             "p2": ("e1", "v1"), "p3": ("e2", "v1")}
    g = RibbonBipartiteGraph(["e0", "e1", "e2"], ["v0", "v1"], edges, None,
                             base_node="e0", base_edge="p0")
    assert g.tour_order(frozenset(edges)) == ("p0", "p1", "p2", "p3")


def test_spanning_trees_counts(c4_fixture, running_fixture, single_edge_fixture):
    assert len(list(c4_fixture.graph.spanning_trees())) == 4
    run = running_fixture.graph
    trees = list(run.spanning_trees())
    assert len(trees) == run.count_spanning_trees()
    assert len(list(single_edge_fixture.graph.spanning_trees())) == 1
    # deterministic lexicographic order by sorted edge tuples
    keys = [tuple(sorted(t)) for t in trees]
    assert keys == sorted(keys)


def test_spanning_trees_equal_subset_sweep(c4_fixture, running_fixture,
                                           single_edge_fixture, tour_fixture):
    graphs = [c4_fixture.graph, running_fixture.graph, single_edge_fixture.graph,
              bip(tour_fixture.graph)]
    graphs += [random_bipartite(seed, 5, 5, 14) for seed in range(15)]
    # subdivided multigraphs: parallel edges, degree-two emeralds
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(15)]
    for g in graphs:
        want = [frozenset(c) for c in combinations(g.edge_ids, len(g.nodes) - 1)
                if g.is_spanning_tree(frozenset(c))]
        got = list(g.spanning_trees())
        assert got == want, serialize_graph(g)
        assert len(got) == g.count_spanning_trees()


def test_tree_blocks_decode_to_lexicographic_subsets(running_fixture, monkeypatch):
    """The sweep's blocks, decoded bit by bit, are every (|V|-1)-edge
    subset once, in lexicographic order, and their span bits mark the
    spanning trees; at most ``SWEEP_BLOCK`` subsets share a block.  A
    small block size splits K3,4 into prefix blocks."""
    cases = [(running_fixture.graph, graph.SWEEP_BLOCK),
             (random_bipartite(3, 5, 5, 14), graph.SWEEP_BLOCK),
             (bip(random_ordinary(4, 5, 8)), graph.SWEEP_BLOCK),
             (noncrossing_setup(2, 3), 5)]
    for g, block in cases:
        monkeypatch.setattr(graph, "SWEEP_BLOCK", block)
        want = [frozenset(c) for c in combinations(g.edge_ids, len(g.nodes) - 1)]
        subsets, trees, sizes = [], [], []
        for cols, span in g._tree_blocks():
            size = max(c.bit_length() for c in cols)
            sizes.append(size)
            subsets += g._block_subsets(cols, (1 << size) - 1)
            trees += g._block_subsets(cols, span)
        assert subsets == want
        assert trees == [t for t in want if g.is_spanning_tree(t)] == list(g.spanning_trees())
        assert max(sizes) <= block
    assert len(sizes) > 10  # the small block size made prefixes


def test_block_subsets_decode_sparse_and_dense_marks():
    """A block's subsets at any set of marks, sparse or dense, are the
    subsets that the columns' bits name, in order: several marks may
    share one byte position of the columns, and whole bytes may be
    skipped."""
    rng = random.Random(5)
    shared = skipped = False
    for g in (noncrossing_setup(3, 3), random_bipartite(2, 5, 5, 14)):
        ids = g.edge_ids
        for cols, span in g._tree_blocks():
            n = max(c.bit_length() for c in cols)
            for density in (0.01, 0.05, 0.2, 1.0):
                bits = sum(1 << t for t in range(n) if rng.random() < density)
                want = [frozenset(e for e, c in zip(ids, cols) if c >> t & 1)
                        for t in range(n) if bits >> t & 1]
                assert list(g._block_subsets(cols, bits)) == want
                marked = [bits >> 8 * k & 255 for k in range((n + 7) // 8)]
                shared |= any(b & b - 1 for b in marked)
                skipped |= 0 in marked[:-1]
    assert shared and skipped


def test_spanning_tree_sweeps_are_independent():
    """Each sweep keeps its own forest: two interleaved sweeps of one
    graph, and a fresh sweep after an abandoned one, yield every tree."""
    g = random_bipartite(3, 5, 5, 14)
    want = list(g.spanning_trees())
    assert len(want) == g.count_spanning_trees() > 20
    first, second = g.spanning_trees(), g.spanning_trees()
    got_first, got_second = list(islice(first, 7)), []
    for tree in second:
        got_second.append(tree)
        got_first.extend(islice(first, 1))
    assert got_first == got_second == want
    assert list(islice(g.spanning_trees(), 5)) == want[:5]
    assert list(g.spanning_trees()) == want


def bfs_split(g, tree, edge):
    """Reference: the base node's side of tree - edge by breadth-first
    search, and the graph edges with one end on each side."""
    side, queue = {g.base_node}, deque([g.base_node])
    while queue:
        x = queue.popleft()
        for e in g.incident(x):
            y = other_end(g, e, x)
            if e in tree and e != edge and y not in side:
                side.add(y)
                queue.append(y)
    return (frozenset(side),
            frozenset(e for e in g.edge_ids
                      if (g.edges[e][0] in side) != (g.edges[e][1] in side)))


def bfs_order(g, tree):
    """Reference: the nodes of a spanning tree in breadth-first order
    from the base node, each with its parent and the tree edge to it,
    neighbours taken in rotation order."""
    order, parent = [g.base_node], {g.base_node: None}
    for x in order:
        for e in g.incident(x):
            y = other_end(g, e, x)
            if e in tree and y not in parent:
                parent[y] = (other_end(g, e, y), e)
                order.append(y)
    return order, parent


def root_sides(g, tree):
    """The base node's side of tree - e for each tree edge e, from the
    rooting (``_root``): every node but those below e's child end."""
    order, upward = g._root(g._flags(tree))
    node = g._darts.node
    below = {y: {g.nodes[y]} for y in order}
    sides = {}
    for y in reversed(order[1:]):
        d = upward[y]
        below[node[d ^ 1]] |= below[y]
        sides[g.edge_ids[d >> 1]] = frozenset(g.nodes) - below[y]
    return sides


def test_tree_cut_c4(c4_fixture):
    g = c4_fixture.graph
    t = frozenset({"c1", "c2", "c4"})
    assert tree_cut(g, t, "c2") == (frozenset({"v1", "e1", "v2"}),
                                    frozenset({"c2", "c3"}))
    assert root_sides(g, t) == {
        "c1": {"v1", "e2"}, "c2": {"v1", "e1", "v2"}, "c4": {"v1", "e2", "e1"}}
    with pytest.raises(ValueError, match="tree edge"):
        tree_cut(g, t, "c3")
    # a cycle, an unknown name, and an unknown name added to a spanning tree
    for bad in (frozenset({"c1", "c2", "c3", "c4"}), frozenset({"c1", "c2", "zz"}),
                t | {"zz"}):
        for query in (lambda tree: g._root(g._flags(tree)),
                      lambda tree: _base_cuts(g, tree)):
            with pytest.raises(ValueError, match="not a spanning tree"):
                query(bad)


def test_tree_cut_tree_graph():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="e0", base_edge="a")
    t = frozenset({"a", "b"})
    assert tree_cut(g, t, "a") == (frozenset({"e0", "v1"}), frozenset({"a"}))
    assert root_sides(g, t)["a"] == {"e0", "v1"}
    # each cut is the edge alone, whose emerald end e0 is the base node
    assert _base_cuts(g, t) == {"a": (0, 0b01), "b": (0, 0b10)}


def test_tree_cut_equals_bfs_split(c4_fixture, running_fixture, knot_fixture,
                                   single_edge_fixture, tour_fixture):
    """The rooting (``_root``) is the breadth-first search from the base
    node, parent darts included, and the reference cut and the sides it
    gives are the breadth-first split of every tree edge."""
    graphs = [c4_fixture.graph, running_fixture.graph, knot_fixture.graph,
              single_edge_fixture.graph, bip(tour_fixture.graph)]
    cuts = 0
    for g in graphs:
        node = g._darts.node
        for tree in g.spanning_trees():
            order, upward = g._root(g._flags(tree))
            want_order, parent = bfs_order(g, tree)
            assert [g.nodes[y] for y in order] == want_order
            assert upward[order[0]] == -1
            assert {g.nodes[y]: (g.nodes[node[upward[y] ^ 1]], g.edge_ids[upward[y] >> 1])
                    for y in order[1:]} == {y: p for y, p in parent.items() if p}
            assert all(node[upward[y]] == y for y in order[1:])
            sides = root_sides(g, tree)
            assert sides.keys() == tree
            for edge in tree:
                want = bfs_split(g, tree, edge)
                assert tree_cut(g, tree, edge) == want
                assert sides[edge] == want[0]
                cuts += 1
    assert cuts > 500  # the sweep is not vacuous


def test_transpose_involution(running_fixture):
    g = running_fixture.graph
    t = g.transpose()
    assert t.emeralds == g.violets and t.violets == g.emeralds
    assert len(t.emeralds) == 3 and len(t.violets) == 4
    back = t.transpose()
    assert back.edges == g.edges and back.rotations == g.rotations
    assert back.emeralds == g.emeralds


def test_reversed_setup_round_trip(running_fixture, c4_fixture):
    g = running_fixture.graph
    rev = g.reversed_setup()
    assert g.reversed_setup() is rev  # one shared graph per setup
    assert rev.rotations["v0"] == tuple(reversed(g.rotations["v0"]))
    again = rev.reversed_setup()
    assert again.rotations == g.rotations
    assert again.base_edge == g.base_edge
    # C4: two-edge rotations are their own reverses; base edge flips
    c = c4_fixture.graph
    assert c.reversed_setup().base_edge == "c2"
    for x in c.nodes:
        assert _cyclic_equal(c.reversed_setup().rotations[x], c.rotations[x])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_transpose_and_reversal_are_involutions(seed):
    g = random_bipartite(seed, 4, 4, 10)
    t, rev = g.transpose(), g.reversed_setup()
    assert (t.emeralds, t.violets) == (g.violets, g.emeralds)
    assert all(t.color(x) != g.color(x) for x in g.nodes)
    assert rev.rotations == {x: tuple(reversed(r)) for x, r in g.rotations.items()}
    assert rev.base_edge == prev_edge(g, g.base_node, g.base_edge)
    for back in (t.transpose(), rev.reversed_setup()):
        assert back.edges == g.edges
        assert (back.emeralds, back.violets) == (g.emeralds, g.violets)
        assert all(back.color(x) == g.color(x) for x in g.nodes)
        assert back.rotations == g.rotations
        assert (back.base_node, back.base_edge) == (g.base_node, g.base_edge)


def test_reversed_setup_degree_one_base():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="v0", base_edge="a")
    assert g.reversed_setup().base_edge == "a"


def test_faces_and_genus(c4_fixture, running_fixture):
    assert len(c4_fixture.graph.faces()) == 2
    assert c4_fixture.graph.genus() == 0
    assert len(running_fixture.graph.faces()) == 4  # 7 - 9 + F = 2
    assert running_fixture.graph.genus() == 0


def test_torus_embedding_genus():
    k4 = torus_k4()
    assert k4.genus() == 1
    assert bip(k4).genus() == 1  # subdivision preserves the embedding


def test_bip_subdivision(tour_fixture):
    g = bip(tour_fixture.graph)
    assert set(g.emeralds) == set(tour_fixture.graph.edge_ids)
    assert set(g.violets) == set(tour_fixture.graph.nodes)
    assert all(g.degree(e) == 2 for e in g.emeralds)
    assert g.base_node == "v1" and g.base_edge == "e1|v1"


def test_validation_errors():
    with pytest.raises(ValidationError, match="joins two"):
        RibbonBipartiteGraph(["e"], ["v"], {"x": ("e", "e")}, None, "e", "x")
    from hyperbernardi.graph import RibbonGraph
    with pytest.raises(ValidationError, match="loop"):
        RibbonGraph({"x": ("u", "u")}, None, "u", "x")
    with pytest.raises(ValidationError, match="at least one edge"):
        RibbonBipartiteGraph(["e"], ["v"], {}, None, "e", "x")
    with pytest.raises(ValidationError, match="not connected"):
        RibbonBipartiteGraph(["e0", "e1"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e1", "v1")}, None,
                             "e0", "a")


# a path v0 - e0 - v1 - e1, and each malformed variant of it with the
# message the constructor refuses it with
PATH_EDGES = {"a": ("e0", "v0"), "b": ("e0", "v1"), "c": ("e1", "v1")}
NOT_A_PERMUTATION = "rotation at {!r} is not a permutation of its incident edges"
MALFORMED = [
    ("loop", dict(ordinary={"p": ("u", "w"), "x": ("u", "u")}, base=("u", "p")),
     "loop edge 'x' at 'u'"),
    ("foreign edge", dict(rotations={"e0": ("a", "zz")}), NOT_A_PERMUTATION.format("e0")),
    ("repeated edge", dict(rotations={"e0": ("a", "b", "a")}), NOT_A_PERMUTATION.format("e0")),
    ("repeated for missing", dict(rotations={"e0": ("a", "a")}), NOT_A_PERMUTATION.format("e0")),
    ("missing edge", dict(rotations={"e0": ("a",)}), NOT_A_PERMUTATION.format("e0")),
    ("empty rotation", dict(rotations={"e1": ()}), NOT_A_PERMUTATION.format("e1")),
    ("edge not at node", dict(rotations={"v0": ("c",)}), NOT_A_PERMUTATION.format("v0")),
    # each lists the other's far dart: every dart is listed once, at the
    # wrong node
    ("edges swapped", dict(rotations={"v0": ("b",), "v1": ("a", "c")}),
     NOT_A_PERMUTATION.format("v0")),
    ("edge not at node, ordinary",
     dict(ordinary={"p": ("u", "w"), "q": ("w", "y")}, rotations={"u": ("q",)},
          base=("u", "p")), NOT_A_PERMUTATION.format("u")),
    ("disconnected", dict(violets=["v0", "v1", "v2"]), "graph is not connected"),
    ("base node", dict(base=("zz", "a")), "base node 'zz' not in graph"),
    ("base edge elsewhere", dict(base=("v0", "c")),
     "base edge must be incident to the base node"),
    ("base edge unknown", dict(base=("v0", "zz")),
     "base edge must be incident to the base node"),
    ("both colors", dict(violets=["v0", "v1", "e1"]),
     "a node cannot be both emerald and violet"),
    ("two emeralds", dict(edges={**PATH_EDGES, "x": ("e0", "e1")}),
     "edge 'x' joins two emerald nodes"),
    ("two violets", dict(edges={**PATH_EDGES, "x": ("v0", "v1")}),
     "edge 'x' joins two violet nodes"),
    ("undeclared node", dict(edges={**PATH_EDGES, "x": ("e0", "zz")}),
     "edge 'x' uses an undeclared node"),
    ("no edges", dict(edges={}), "graph must have at least one edge"),
]


def build_path(edges=PATH_EDGES, violets=("v0", "v1"), rotations=None,
               base=("v0", "a"), ordinary=None):
    if ordinary is not None:
        return graph.RibbonGraph(ordinary, rotations, *base)
    return RibbonBipartiteGraph(["e0", "e1"], violets, edges, rotations, *base)


@pytest.mark.parametrize("case, change, message", MALFORMED,
                         ids=[case for case, _, _ in MALFORMED])
def test_constructor_refuses_malformed_input(case, change, message):
    """The valid path builds; each malformed variant raises
    ``ValidationError`` with its message."""
    assert build_path().rotations["v1"] == ("b", "c")
    with pytest.raises(ValidationError) as refused:
        build_path(**change)
    assert str(refused.value) == message


def test_constructor_refuses_rotation_of_no_node():
    """A rotation keyed by a name that is no node of the graph is refused,
    as ``parse_graph`` refuses it in a document."""
    with pytest.raises(ValidationError) as refused:
        RibbonBipartiteGraph(["e0"], ["v0", "v1"], {"a": ("e0", "v0"), "b": ("e0", "v1")},
                             {"zz": ("a",)}, "v0", "a")
    assert str(refused.value) == "rotation for undeclared node 'zz'"
    with pytest.raises(ValidationError, match="undeclared node 'zz'"):
        build_path(rotations={"e0": ("a", "b"), "zz": ()})


def test_constructor_refuses_a_node_named_twice():
    """A node named twice in one class is refused with the message that
    ``parse_graph`` gives for a document that names it twice, so no
    hypertree is ever asked of a class that lists a node twice."""
    edges = {"a": ("e0", "v0"), "b": ("e1", "v0")}
    for emeralds, violets in ((["e0", "e0", "e1"], ["v0"]), (["e0", "e1"], ["v0", "v0"])):
        with pytest.raises(ValidationError) as refused:
            RibbonBipartiteGraph(emeralds, violets, edges, None, "v0", "a")
        assert str(refused.value) == "duplicate node name"


def test_dart_table_is_built_with_the_graph():
    """The dart table is an attribute set by the constructor: each node's
    darts follow its rotation, the base dart is the base edge at the base
    node, and each dart's successor is the next dart around its node."""
    for g in (build_path(), build_path(rotations={"v1": ("c", "b")}),
              random_bipartite(3, 4, 4, 10), bip(random_ordinary(3, 6, 9))):
        darts = vars(g)["_darts"]
        for x, name in enumerate(g.nodes):
            ds = darts.rotation[x]
            assert [g.edge_ids[d >> 1] for d in ds] == list(g.rotations[name])
            assert all(g.edges[g.edge_ids[d >> 1]][d & 1] == name for d in ds)
            assert [darts.succ[d] for d in ds] == list(ds[1:] + ds[:1])
            assert {darts.node[d] for d in ds} <= {x}
        assert g.edges[g.base_edge][darts.base & 1] == g.base_node
        assert darts.base >> 1 == g.edge_ids.index(g.base_edge)
