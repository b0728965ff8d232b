"""Hypertree feasibility, activities, and the two polynomials."""

import random
from collections import Counter
from fractions import Fraction
from itertools import compress, product
from math import comb

import pytest

from hyperbernardi.docio import format_polynomial, serialize_graph
from hyperbernardi.fixtures import (c4, k5_setup, noncrossing_setup, process_example,
                                    running_graph, running_graph_knot_setup,
                                    single_edge)
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import (EMERALD, VIOLET, RibbonBipartiteGraph, RibbonGraph,
                                  UnionFind, bip)
from hyperbernardi.hypertree import (Poly, _bfs, _Feasibility, _oracle, break_divisors,
                                     enumerate_hypertrees, exterior_polynomial,
                                     external_inactivity, interior_polynomial,
                                     internal_inactivity, is_hypertree,
                                     tutte_check, tutte_x_polynomial)
from oracles import avoid_by_full_arcs, can_transfer, in_convex_hull, rank_feasible


def doubled_edge():
    return RibbonGraph({"a": ("u", "w"), "b": ("u", "w")}, None, "u", "a")


def star_graph(k=4):
    edges = {f"s{i}": ("hub", f"v{i}") for i in range(k)}
    return RibbonBipartiteGraph(["hub"], [f"v{i}" for i in range(k)],
                                edges, None, "hub", "s0")


def test_degree_vector_c4(c4_fixture):
    g = c4_fixture.graph
    assert g.degree_vector(frozenset({"c1", "c2", "c4"}), EMERALD) == \
        {"e1": 1, "e2": 0}


def test_degree_vector_sums(running_fixture):
    g = running_fixture.graph
    for tree in g.spanning_trees():
        f = g.degree_vector(tree, EMERALD)
        assert sum(f.values()) == len(g.violets) - 1


def test_degree_vector_star():
    g = star_graph(5)
    f = g.degree_vector(frozenset(g.edge_ids), EMERALD)
    assert f == {"hub": 4}
    assert g.degree_vector(frozenset(g.edge_ids), VIOLET) == \
        {f"v{i}": 0 for i in range(5)}


def test_is_hypertree_running(running_fixture):
    g = running_fixture.graph
    assert is_hypertree(g, EMERALD, {"e0": 0, "e1": 0, "e2": 0, "e3": 2})
    assert not is_hypertree(g, EMERALD, {"e0": 2, "e1": 0, "e2": 0, "e3": 0})
    # sum constraint violated
    assert not is_hypertree(g, EMERALD, {"e0": 1, "e1": 1, "e2": 1, "e3": 0})
    with pytest.raises(ValueError):
        is_hypertree(g, EMERALD, {"e0": 2})


def test_is_hypertree_brute_force_agreement():
    for seed in range(25):
        g = random_bipartite(seed, 4, 4, 9)
        realized = {tuple(sorted(g.degree_vector(t, EMERALD).items()))
                    for t in g.spanning_trees()}
        max_deg = {x: g.degree(x) for x in g.emeralds}
        span = [range(max_deg[x]) for x in sorted(g.emeralds)]
        names = sorted(g.emeralds)
        for combo in product(*span):
            f = dict(zip(names, combo))
            want = tuple(sorted(f.items())) in realized
            assert is_hypertree(g, EMERALD, f) == want, (seed, f)


def test_enumerate_hypertrees(running_fixture, c4_fixture):
    g = running_fixture.graph
    assert len(enumerate_hypertrees(g, EMERALD)) == 7
    assert len(enumerate_hypertrees(g, VIOLET)) == 7
    assert enumerate_hypertrees(c4_fixture.graph, EMERALD) == \
        [{"e1": 0, "e2": 1}, {"e1": 1, "e2": 0}]


def test_enumerate_hypertrees_tree_graph():
    g = star_graph(3)
    assert enumerate_hypertrees(g, EMERALD) == [{"hub": 2}]


def sweep_hypertrees(g, side):
    """Reference family: degree vectors of every spanning tree."""
    nodes = g.side_nodes(side)
    keys = {tuple(g.degree_vector(t, side)[x] for x in nodes)
            for t in g.spanning_trees()}
    return [dict(zip(nodes, key)) for key in sorted(keys)]


def cross_check_graphs():
    graphs = [fx().graph for fx in (c4, running_graph, running_graph_knot_setup,
                                    process_example, single_edge)]
    graphs += [star_graph(4), bip(doubled_edge()), bip(k5_setup().graph)]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(40)]
    # subdivided multigraphs have parallel edges
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(25)]
    return graphs


def test_enumerate_hypertrees_equals_sweep():
    for g in cross_check_graphs():
        for side in (EMERALD, VIOLET):
            want = sweep_hypertrees(g, side)
            got = enumerate_hypertrees(g, side)
            assert got == want, (serialize_graph(g), side)
            got[0]["fresh"] = 1  # callers own the returned list and dicts
            assert enumerate_hypertrees(g, side) == want


def test_activities_equal_can_transfer_count():
    rng = random.Random(3)
    for g in cross_check_graphs():
        for side in (EMERALD, VIOLET):
            nodes = list(g.side_nodes(side))
            shuffled = nodes[:]
            rng.shuffle(shuffled)
            for f in sweep_hypertrees(g, side):
                for order in (nodes, shuffled):
                    want_i = frozenset(
                        x for k, x in enumerate(order)
                        if any(can_transfer(g, side, f, x, y) for y in order[:k]))
                    want_e = frozenset(
                        x for k, x in enumerate(order)
                        if any(can_transfer(g, side, f, y, x) for y in order[:k]))
                    assert internal_inactivity(g, side, f, order) == want_i
                    assert external_inactivity(g, side, f, order) == want_e


def with_parallel_edges(g, rng):
    """``g`` with a parallel copy of a third of its edges."""
    edges = dict(g.edges)
    for e in rng.sample(g.edge_ids, max(1, len(g.edge_ids) // 3)):
        edges[e + "p"] = g.edges[e]
    return RibbonBipartiteGraph(g.emeralds, g.violets, edges, None,
                                g.base_node, g.base_edge)


def spanning_forest(g, edges) -> tuple[set, bool]:
    """A spanning forest of ``edges`` taken in the given order, and
    whether it is a tree."""
    uf = UnionFind(g.nodes)
    return {e for e in edges if uf.union(*g.edges[e])}, uf.components == 1


def test_exchange_reachability_equals_rank_oracle():
    """On connected live subgraphs of seeded graphs (simple, with
    parallel edges, and subdivided multigraphs), on both sides: a
    transfer f - 1_i + 1_j of the hypertree f that a tree realizes is
    reachable from j exactly when Kalman's rank inequalities and the
    backtracking search admit it.  Dropping a tree edge e, ``avoid``
    rewrites the tree into a realization of f without e exactly when they
    admit f there, and otherwise returns a set whose rank inequality f
    violates there, bridges included."""
    rng = random.Random(11)
    graphs = [random_bipartite(seed, 4, 4, 10) for seed in range(20)]
    graphs += [with_parallel_edges(random_bipartite(seed, 3, 4, 8), rng)
               for seed in range(10)]
    graphs += [bip(random_ordinary(seed, 4, 6)) for seed in range(12)]
    outcomes = Counter()
    for g in graphs:
        ids = g.edge_ids
        for side in (EMERALD, VIOLET):
            oracle, nodes = _oracle(g, side), g.side_nodes(side)
            for _ in range(3):
                live = {e for e in ids if rng.random() < 0.8}
                tree, spans = spanning_forest(g, sorted(live, key=lambda _: rng.random()))
                if not spans:
                    continue
                f = g.degree_vector(frozenset(tree), side)
                f_key = tuple(f[x] for x in nodes)
                live_bits = bytearray(e in live for e in ids)
                tree_bits = bytearray(e in tree for e in ids)
                adj, _ = oracle._arcs(tree_bits, live_bits)
                for j, y in enumerate(nodes):
                    reach = _bfs(adj, j)
                    for i, x in enumerate(nodes):
                        if i == j:
                            continue
                        shifted = dict(f, **{x: f[x] - 1, y: f[y] + 1})
                        want = rank_feasible(g, side, shifted, live)
                        searched = oracle._search(tuple(shifted[z] for z in nodes),
                                                  frozenset(live))
                        assert (searched is not None) == want == (i in reach)
                        outcomes["transfer", want] += 1
                for e in tree:
                    k = ids.index(e)
                    rest, bits = bytearray(live_bits), bytearray(tree_bits)
                    rest[k] = 0
                    refuted = oracle.avoid(bits, rest, k)
                    want = rank_feasible(g, side, f, live - {e})
                    assert (oracle._search(f_key, frozenset(live - {e})) is not None) == want
                    assert (not refuted) == want
                    if refuted:
                        assert bits == tree_bits
                        assert oracle.excess(f_key, refuted, rest) > 0
                    else:
                        avoiding = frozenset(compress(ids, bits))
                        assert avoiding <= live - {e} and g.is_spanning_tree(avoiding)
                        assert g.degree_vector(avoiding, side) == f
                    bridge = not spanning_forest(g, live - {e})[1]
                    outcomes["step", want, bridge] += 1
    assert set(outcomes) == {("transfer", True), ("transfer", False),
                             ("step", True, False), ("step", False, False),
                             ("step", False, True)}


def test_avoid_equals_full_arc_search(monkeypatch):
    """On every (witness, live, e) that the Bernardi walks of seeded
    instances meet, ``avoid`` (lone-edge case, lazy arc search) and the
    full-arc reference agree: the same verdict, the same refuting set,
    and a rewritten witness that spans the live edges with the same
    degree at each node of the side."""
    from hyperbernardi.bernardi import VARIANTS, bernardi_runs
    graphs = [random_bipartite(seed, 4, 4, 10) for seed in range(20)]
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(10)]
    graphs += [random_bipartite(seed, 5, 5, 16) for seed in range(3)]
    avoid, outcomes = _Feasibility.avoid, Counter()

    def checked(self, tree, live, e):
        x = self.darts.node[2 * e + self.parity]
        lone = sum(tree[d >> 1] for d in self.darts.rotation[x]) == 1
        want_tree = bytearray(tree)
        want = avoid_by_full_arcs(self, want_tree, live, e)
        given = bytearray(tree)
        refuted = avoid(self, tree, live, e)
        assert refuted == want
        if refuted:
            assert tree == given
        else:
            avoiding = [k for k, held in enumerate(tree) if held]
            assert all(live[k] for k in avoiding)
            assert self.g._root(tree)       # spans, with |V| - 1 edges
            assert self._realized(tree) == self._realized(want_tree)
        exchanged = sum(a != b for a, b in zip(tree, given)) > 2
        outcomes[lone, exchanged, bool(refuted),
                 refuted == (1 << len(self.side_nodes)) - 1] += 1
        return refuted
    monkeypatch.setattr(_Feasibility, "avoid", checked)
    for g in graphs:
        for variant in VARIANTS:
            bernardi_runs(g, variant)
    # lone edges, a link at x, an exchange path, refuted, and bridges
    assert set(outcomes) == {(True, False, False, False), (False, False, False, False),
                             (False, True, False, False), (False, False, True, False),
                             (False, False, True, True)}


def test_activities_reject_bad_orders(c4_fixture):
    g = c4_fixture.graph
    f = {"e1": 0, "e2": 1}
    for order in (["e1", "e1"], ["e1", "v1"], ["e1"]):
        with pytest.raises(ValueError):
            internal_inactivity(g, EMERALD, f, order)
        with pytest.raises(ValueError):
            external_inactivity(g, EMERALD, f, order)


def test_polynomials_reject_partial_orders(running_fixture):
    """A class order that misses a node is not an order of the class: at
    the running example it would count 7 hypertrees with no inactive
    node instead of 1 + 3x + 3x^2."""
    g = running_fixture.graph
    for order in (["e0"], ["e0", "e1", "e2", "e3", "e0"]):
        with pytest.raises(ValueError, match="each emerald node once"):
            interior_polynomial(g, EMERALD, order=order)
        with pytest.raises(ValueError, match="each emerald node once"):
            exterior_polynomial(g, EMERALD, order=order)
    assert interior_polynomial(g, EMERALD, order=["e3", "e2", "e1", "e0"]) == \
        Poly((1, 3, 3))


def test_can_transfer(process_fixture, c4_fixture):
    g = process_fixture.graph
    f = process_fixture.value("hypertree")
    # shifting one unit from the left to the top node stays a hypertree
    assert can_transfer(g, EMERALD, f, "L", "T")
    assert is_hypertree(g, EMERALD, process_fixture.value("receiving_transfer_possible"))
    assert not can_transfer(g, EMERALD, {"L": 0, "T": 1, "R": 2}, "L", "T")
    c = c4_fixture.graph
    assert can_transfer(c, EMERALD, {"e1": 0, "e2": 1}, "e2", "e1")
    with pytest.raises(ValueError):
        can_transfer(c, EMERALD, {"e1": 0, "e2": 1}, "e1", "e1")


def test_activities_process_example(process_fixture):
    g = process_fixture.graph
    f = process_fixture.value("hypertree")
    order = process_fixture.value("induced_order_on_E")
    assert internal_inactivity(g, EMERALD, f, order) == frozenset({"R"})
    assert external_inactivity(g, EMERALD, f, order) == frozenset({"T"})


def test_smallest_node_always_active():
    for seed in range(10):
        g = random_bipartite(seed, 3, 3, 8)
        order = sorted(g.emeralds)
        for f in enumerate_hypertrees(g, EMERALD):
            assert order[0] not in internal_inactivity(g, EMERALD, f, order)
            assert order[0] not in external_inactivity(g, EMERALD, f, order)


def test_interior_polynomial_values(running_fixture, c4_fixture,
                                    single_edge_fixture):
    g = running_fixture.graph
    assert interior_polynomial(g, EMERALD) == Poly((1, 3, 3))
    assert interior_polynomial(g, VIOLET) == Poly((1, 3, 3))
    assert interior_polynomial(c4_fixture.graph, EMERALD) == Poly((1, 1))
    assert interior_polynomial(single_edge_fixture.graph, EMERALD) == Poly((1,))
    assert interior_polynomial(star_graph(4), EMERALD) == Poly((1,))


def test_order_independence(running_fixture):
    g = running_fixture.graph
    base_i = interior_polynomial(g, EMERALD)
    base_x = exterior_polynomial(g, EMERALD)
    rng = random.Random(7)
    for _ in range(10):
        order = list(g.emeralds)
        rng.shuffle(order)
        assert interior_polynomial(g, EMERALD, order=order) == base_i
        assert exterior_polynomial(g, EMERALD, order=order) == base_x


def test_hypertree_class_size_invariants():
    for seed in range(15):
        g = random_bipartite(seed, 4, 4, 10)
        b_e = enumerate_hypertrees(g, EMERALD)
        b_v = enumerate_hypertrees(g, VIOLET)
        assert len(b_e) == len(b_v)
        poly = interior_polynomial(g, EMERALD)
        assert poly.coefficient_sum() == len(b_e)
        assert poly.coeffs[0] == 1
        assert poly.degree <= min(len(g.emeralds), len(g.violets)) - 1


def test_hypertrees_are_hull_lattice_points(running_fixture):
    graphs = [running_fixture.graph]
    graphs += [random_bipartite(seed, 4, 3, 8) for seed in (2, 5)]
    for g in graphs:
        b_e = enumerate_hypertrees(g, EMERALD)
        names = list(g.emeralds)
        pts = [tuple(Fraction(f[x]) for x in names) for f in b_e]
        keys = {tuple(f[x] for x in names) for f in b_e}
        total = len(g.violets) - 1
        for combo in product(range(total + 1), repeat=len(names)):
            if sum(combo) != total:
                continue
            inside = in_convex_hull(pts, tuple(Fraction(c) for c in combo))
            assert inside == (combo in keys), combo


def test_tutte_doubled_edge(c4_fixture):
    de = doubled_edge()
    assert tutte_x_polynomial(de) == Poly((1, 1))  # T(x, y) = x + y at y = 1
    assert tutte_check(de)
    assert interior_polynomial(bip(de), EMERALD) == \
        interior_polynomial(c4_fixture.graph, EMERALD)


def test_tutte_tree_graph():
    path = RibbonGraph({"a": ("u0", "u1"), "b": ("u1", "u2")}, None, "u0", "a")
    assert tutte_x_polynomial(path) == Poly((0, 0, 1))  # x^(n-1)
    assert tutte_check(path)


def test_tutte_random_graphs():
    for seed in range(12):
        h = random_ordinary(seed, 5, 8)
        assert tutte_check(h), seed


def test_break_divisors():
    de = doubled_edge()
    assert break_divisors(de) == {(0, 1), (1, 0)}
    path = RibbonGraph({"a": ("u0", "u1"), "b": ("u1", "u2")}, None, "u0", "a")
    assert break_divisors(path) == {(0, 0, 0)}
    for seed in range(8):
        h = random_ordinary(seed, 5, 7)
        assert len(break_divisors(h)) == h.count_spanning_trees()


def test_poly_formatting():
    assert format_polynomial((1, 3, 3)) == "1 + 3*x + 3*x^2"
    assert format_polynomial((1, 1)) == "1 + x"
    assert format_polynomial((0, 0, 2)) == "2*x^2"
    assert format_polynomial(()) == "0"
    assert Poly((1, 3, 3, 0)) == Poly((1, 3, 3))
    assert str(Poly((1, 0, 1))) == "1 + x^2"


def test_arcs_of_a_non_tree_are_an_internal_error(c4_fixture):
    """Exchange arcs are drawn only on trees the library built, so an edge
    set that does not span is an internal error there, not a bad input:
    AssertionError, never the ValueError of ``RibbonGraph._root``."""
    g = c4_fixture.graph
    live = bytearray([1]) * len(g.edge_ids)
    for tree in (bytearray(len(g.edge_ids)), bytearray([1, 1, 0, 0]), live):
        for side in (EMERALD, VIOLET):
            with pytest.raises(AssertionError) as caught:
                _oracle(g, side)._arcs(tree, live)
            assert type(caught.value) is AssertionError
            assert str(caught.value) == "exchange arcs of an edge set that does not span"


def test_closed_forms_complete_bipartite():
    """On the two-line setup of K_{m+1,n+1} (Kalman and Postnikov 2017)
    the interior polynomial is sum_i C(m,i) C(n,i) x^i, each side has
    C(m+n, m) hypertrees, and there are (m+1)^n (n+1)^m spanning trees:
    on K2,2..K8,8, K3,4 and K4,6."""
    for m, n in [(k, k) for k in range(1, 8)] + [(2, 3), (3, 5)]:
        g = noncrossing_setup(m, n)
        assert interior_polynomial(g, EMERALD) == Poly(
            comb(m, i) * comb(n, i) for i in range(min(m, n) + 1)), (m, n)
        for side in (EMERALD, VIOLET):
            assert len(enumerate_hypertrees(g, side)) == comb(m + n, m), (m, n, side)
        assert g.count_spanning_trees() == (m + 1) ** n * (n + 1) ** m, (m, n)
