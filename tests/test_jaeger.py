"""Jaeger tree recognition, enumeration, orders, and activity matching."""

import random
from itertools import combinations

import pytest

from hyperbernardi import graph, jaeger
from hyperbernardi.bernardi import HT_E_CUT_V, TheoremViolation, run_bernardi
from hyperbernardi.campaign import _jaeger_sweep
from hyperbernardi.fixtures import noncrossing_setup
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import EMERALD, VIOLET, RibbonBipartiteGraph, RibbonGraph, bip
from hyperbernardi.hypertree import enumerate_hypertrees, internal_inactivity
from hyperbernardi.jaeger import (ECUT, VCUT, characterize_tree, enumerate_jaeger_trees,
                                  graph_activity_matching, is_jaeger_tree,
                                  jaeger_cuts, semi_passive_edges, shelling,
                                  t_order)
from oracles import (divergence_by_full_tours, edge_rank, first_skip_cuts,
                     random_setup_variation, tree_cut)
from oracles import tour_pairs as reference_tour_pairs


def test_is_jaeger_tree_running(running_fixture):
    g = running_fixture.graph
    left = running_fixture.value("left_tree")
    right = running_fixture.value("right_tree")
    assert is_jaeger_tree(g, left, ECUT)
    assert not is_jaeger_tree(g, left, VCUT)
    assert not is_jaeger_tree(g, right, ECUT)
    assert not is_jaeger_tree(g, right, VCUT)


def test_is_jaeger_tree_c4(c4_fixture):
    g = c4_fixture.graph
    assert is_jaeger_tree(g, frozenset({"c1", "c2", "c4"}), VCUT)
    assert not is_jaeger_tree(g, frozenset({"c1", "c2", "c3"}), VCUT)
    assert is_jaeger_tree(g, frozenset({"c1", "c2", "c3"}), ECUT)


def test_enumeration_matches_panels(knot_fixture):
    g = knot_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    assert trees == knot_fixture.value("vcut_jaeger_violet_order")


def test_enumeration_c4(c4_fixture):
    g = c4_fixture.graph
    assert enumerate_jaeger_trees(g, VCUT) == \
        c4_fixture.value("vcut_jaeger_violet_order")
    assert set(enumerate_jaeger_trees(g, ECUT)) == \
        {frozenset({"c1", "c2", "c3"}), frozenset({"c1", "c3", "c4"})}


def test_enumeration_tree_graph():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="v0", base_edge="a")
    whole = frozenset({"a", "b"})
    assert enumerate_jaeger_trees(g, VCUT) == [whole]
    assert enumerate_jaeger_trees(g, ECUT) == [whole]


def random_multigraph(seed):
    """A connected bipartite multigraph with random rotations and base,
    from seeded random pairs; unlike random_bipartite it repeats pairs,
    so it has parallel edges."""
    rng = random.Random(seed)
    emeralds = [f"e{i}" for i in range(rng.randint(1, 3))]
    violets = [f"v{i}" for i in range(rng.randint(2, 4))]
    pairs = [(e, violets[0]) for e in emeralds]
    pairs += [(rng.choice(emeralds), v) for v in violets[1:]]
    pairs.append(rng.choice(pairs))
    for _ in range(rng.randint(1, 4)):
        pairs.append(rng.choice(pairs) if rng.random() < 0.5
                     else (rng.choice(emeralds), rng.choice(violets)))
    edges = {f"x{i}": pair for i, pair in enumerate(pairs)}
    g = RibbonBipartiteGraph(emeralds, violets, edges, None,
                             base_node=emeralds[0], base_edge="x0")
    return random_setup_variation(g, seed)


def test_enumeration_equals_recognition(running_fixture, knot_fixture,
                                        c4_fixture, process_fixture,
                                        numbered_fixture, single_edge_fixture,
                                        tour_fixture, matching_fixture,
                                        k5_fixture):
    """The enumeration finds the trees the sweep recognizes, on simple
    graphs, subdivisions and multigraphs, and emits the V-cut trees in
    violet tree order: each later tree holds its divergence edge with
    every earlier one.  The order holds on the reversed setup too."""
    graphs = [running_fixture.graph, knot_fixture.graph, c4_fixture.graph,
              process_fixture.graph, numbered_fixture.graph,
              single_edge_fixture.graph, bip(tour_fixture.graph),
              bip(matching_fixture.graph), bip(k5_fixture.graph)]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(15)]
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(10)]
    multigraphs = [random_multigraph(seed) for seed in range(25)]
    assert all(len(set(g.edges.values())) < len(g.edges) for g in multigraphs)
    pairs = 0
    for g in graphs + multigraphs:
        recognized = {VCUT: set(), ECUT: set()}
        for t in g.spanning_trees():
            for cut in jaeger_cuts(g, t):
                recognized[cut].add(t)
        for cut in (VCUT, ECUT):
            enumerated = enumerate_jaeger_trees(g, cut)
            assert len(set(enumerated)) == len(enumerated)
            assert set(enumerated) == recognized[cut], (sorted(g.edges), cut)
        for h in (g, g.reversed_setup()):
            trees = enumerate_jaeger_trees(h, VCUT)
            for j, later in enumerate(trees):
                for earlier in trees[:j]:
                    pairs += 1
                    assert divergence_by_full_tours(h, earlier, later, VCUT, VIOLET) in later
    assert pairs > 10000  # the order check is not vacuous


def test_bulk_tour_equals_first_skip(monkeypatch, single_edge_fixture):
    """The campaign's sweep, blocks of edge subsets toured bit-parallel,
    recognizes for each cut the trees that the reference tour accepts
    over the ``combinations`` reference, on both setups, and counts every
    spanning tree once: on simple instances, subdivided multigraphs and
    multigraphs with parallel edges, a tree-shaped graph, the single
    edge, and K3,4 cut into prefix blocks of at most five subsets."""
    path = RibbonBipartiteGraph(["e0", "e1", "e2"], ["v0", "v1"],
                                {"p0": ("e0", "v0"), "p1": ("e1", "v0"),
                                 "p2": ("e1", "v1"), "p3": ("e2", "v1")}, None,
                                base_node="v1", base_edge="p2")
    graphs = [(g, graph.SWEEP_BLOCK) for g in
              [random_bipartite(seed, 4, 4, 10) for seed in range(6)]
              + [bip(random_ordinary(seed, 5, 8)) for seed in range(6)]
              + [random_multigraph(seed) for seed in range(6)]
              + [path, single_edge_fixture.graph]]
    graphs.append((noncrossing_setup(2, 3), 5))
    trees = 0
    for g, block in graphs:
        monkeypatch.setattr(graph, "SWEEP_BLOCK", block)
        for h in (g, g.reversed_setup()):
            want = {VCUT: set(), ECUT: set()}
            spanning = [frozenset(c) for c in combinations(h.edge_ids, len(h.nodes) - 1)
                        if h.is_spanning_tree(frozenset(c))]
            for tree in spanning:
                for cut in first_skip_cuts(h, tree):
                    want[cut].add(tree)
            swept, recognized = _jaeger_sweep(h)
            assert (swept, recognized) == (len(spanning), want), sorted(h.edges)
            trees += swept
    assert trees > 2000


def test_bulk_tour_must_close(running_fixture):
    """A tour still walking after 2|E| steps away from the base dart is
    not a spanning tree's: the bit-parallel tour refuses it."""
    g = running_fixture.graph
    cycle = {"e0v0", "e0v1", "e1v1", "e1v2", "e3v0", "e3v1"}
    assert not g.is_spanning_tree(frozenset(cycle))
    with pytest.raises(AssertionError, match="tour failed to close"):
        jaeger._tour_cuts(g._darts, [int(e in cycle) for e in g.edge_ids], 1)


def test_one_tour_recognition_equals_first_skip(running_fixture, knot_fixture,
                                                c4_fixture, process_fixture,
                                                numbered_fixture, single_edge_fixture,
                                                tour_fixture, matching_fixture,
                                                k5_fixture):
    """The dart-table tour, tour order and recognition agree with the
    reference tour on both setups, for every spanning tree of simple
    graphs, subdivisions and multigraphs."""
    graphs = [running_fixture.graph, knot_fixture.graph, c4_fixture.graph,
              process_fixture.graph, numbered_fixture.graph,
              single_edge_fixture.graph, bip(tour_fixture.graph),
              bip(matching_fixture.graph), bip(k5_fixture.graph)]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(15)]
    graphs += [bip(random_ordinary(seed, 5, 7)) for seed in range(10)]
    graphs += [random_multigraph(seed) for seed in range(25)]
    trees = 0
    for g in graphs:
        for tree in g.spanning_trees():
            trees += 1
            for h in (g, g.reversed_setup()):
                pairs = reference_tour_pairs(h, tree)
                assert list(h.tour_pairs(tree)) == pairs
                assert h.tour_order(tree) == tuple(dict.fromkeys(e for _, e in pairs))
                assert jaeger_cuts(h, tree) == first_skip_cuts(h, tree), sorted(tree)
            want = jaeger_cuts(g, tree)
            for cut in (VCUT, ECUT):
                assert is_jaeger_tree(g, tree, cut) == (cut in want)
            # reversal swaps the cuts: E-cut trees are V-cut trees there
            assert jaeger_cuts(g.reversed_setup(), tree) == \
                {ECUT if cut == VCUT else VCUT for cut in want}
    assert trees > 1000
    with pytest.raises(ValueError, match="spanning tree"):
        is_jaeger_tree(c4_fixture.graph, frozenset(c4_fixture.graph.edge_ids), VCUT)


def test_compare_trees(c4_fixture, knot_fixture):
    g = c4_fixture.graph
    t4 = frozenset({"c2", "c3", "c4"})
    t2 = frozenset({"c1", "c2", "c4"})
    # the tree holding the divergence edge is the larger one
    assert divergence_by_full_tours(g, t2, t4, VCUT, VIOLET) in t2
    assert divergence_by_full_tours(g, t4, t2, VCUT, VIOLET) not in t4
    kg = knot_fixture.graph
    trees = knot_fixture.value("vcut_jaeger_violet_order")
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            assert divergence_by_full_tours(kg, trees[i], trees[j], VCUT, VIOLET) in trees[j]


def test_t_order_paper_example(running_fixture):
    g = running_fixture.graph
    left = running_fixture.value("left_tree")
    rev = g.reversed_setup()  # left is an E-cut tree
    em = t_order(rev, left, EMERALD)
    assert em.edge_order == running_fixture.value("left_tree_emerald_t_order")
    assert em.class_order == running_fixture.value("left_tree_order_on_E")
    vi = t_order(rev, left, VIOLET)
    assert vi.edge_order == running_fixture.value("left_tree_violet_t_order")
    assert vi.class_order == running_fixture.value("left_tree_order_on_V")


def test_t_order_single_edge(single_edge_fixture):
    g = single_edge_fixture.graph
    to = t_order(g, frozenset({"ev"}), VIOLET)
    assert to.edge_order == ("ev",) and to.class_order == ("v",)


def test_t_order_rejects_non_spanning_tree(running_fixture):
    with pytest.raises(ValueError, match="not a spanning tree"):
        t_order(running_fixture.graph, frozenset({"e0v0", "e0v1"}), VIOLET)


def test_semi_passive_numbered_example(numbered_fixture):
    g = numbered_fixture.graph
    got = semi_passive_edges(g, numbered_fixture.value("tree"),
                             numbered_fixture.value("edge_order"))
    assert got == numbered_fixture.value("semi_passive")


def test_semi_passive_tree_graph():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="v0", base_edge="a")
    tree = frozenset({"a", "b"})
    assert semi_passive_edges(g, tree, ("a", "b")) == frozenset()


def test_semi_passive_c4(c4_fixture):
    g = c4_fixture.graph
    t2 = frozenset({"c1", "c2", "c4"})
    em = t_order(g, t2, EMERALD)
    assert len(semi_passive_edges(g, t2, em.edge_order)) == 1


def test_semi_passive_needs_an_order_of_every_edge(running_fixture):
    """The edge order must list every edge once: a short order, a
    repeated edge and an unknown name are refused, where they would read
    a missing edge as first or a repeat at its last position."""
    g = running_fixture.graph
    tree = enumerate_jaeger_trees(g, VCUT)[3]
    order = t_order(g, tree, EMERALD).edge_order
    assert semi_passive_edges(g, tree, order) == {"e1v1", "e3v0"}
    for bad in (order[:3], order + order[:1], order + ("zz",)):
        with pytest.raises(ValueError, match="not a permutation of the edges"):
            semi_passive_edges(g, tree, bad)


def characterize_edge_reference(g, trees, index, eps):
    """Reference: the five descriptions for one edge, each computed from
    scratch for that edge alone."""
    tree = trees[index]
    first_difference = any(divergence_by_full_tours(g, earlier, tree, VCUT, VIOLET) == eps
                           for earlier in trees[:index])
    em_order = t_order(g, tree, EMERALD)
    semi_passive = eps in semi_passive_edges(g, tree, em_order.edge_order)
    base_side, cut_edges = tree_cut(g, tree, eps)
    violet_in_base = g.violet_end(eps) in base_side
    inactive = internal_inactivity(g, EMERALD, g.degree_vector(tree, EMERALD),
                                   em_order.class_order)
    vrank = edge_rank(t_order(g, tree, VIOLET))
    return {
        "first_difference": first_difference,
        "semi_passive_emerald_order": semi_passive,
        "violet_in_base_and_inactive_end":
            violet_in_base and g.emerald_end(eps) in inactive,
        "not_largest_in_cut_violet_order":
            eps != max(cut_edges, key=lambda e: vrank[e]),
        "base_cut_witness": violet_in_base and any(
            g.emerald_end(e) in base_side for e in cut_edges - {eps}),
    }


def test_characterize_edges(c4_fixture, running_fixture, knot_fixture):
    """Each shelling step holds its tree's T-orders, semi-passive set and
    divergences, and characterizes its edges as the reference does."""
    graphs = [c4_fixture.graph, running_fixture.graph, knot_fixture.graph]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(20)]
    graphs += [bip(random_ordinary(seed, 5, 7)) for seed in range(8)]
    answers = set()
    for g in graphs:
        trees = enumerate_jaeger_trees(g, VCUT)
        steps = shelling(g, trees)
        assert [step.tree for step in steps] == trees
        for i, tree in enumerate(trees):
            emerald = t_order(g, tree, EMERALD)
            assert steps[i].violet == t_order(g, tree, VIOLET)
            assert steps[i].emerald == emerald
            assert steps[i].semi_passive == semi_passive_edges(g, tree, emerald.edge_order)
            assert steps[i].divergences == tuple(
                divergence_by_full_tours(g, earlier, tree, VCUT, VIOLET)
                for earlier in trees[:i])
            want = {eps: characterize_edge_reference(g, trees, i, eps)
                    for eps in sorted(tree)}
            assert characterize_tree(g, steps[i]) == want
            answers.update(r["first_difference"] for r in want.values())
    assert answers == {False, True}  # both answers occur
    # nothing precedes the first tree, so description (i) must be false
    g = knot_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    assert not any(r["first_difference"]
                   for r in characterize_tree(g, shelling(g, trees)[0]).values())


def test_characterize_tree_reports_disagreement(monkeypatch, running_fixture):
    g = running_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    monkeypatch.setattr(jaeger, "semi_passive_edges", lambda *args: frozenset())
    with pytest.raises(TheoremViolation, match="five-way characterization disagrees"):
        for step in shelling(g, trees):
            characterize_tree(g, step)


def test_shelling_checks_each_tree_once(monkeypatch, running_fixture):
    """shelling checks each tree once, in its emerald T-order, and files
    its violet tour in the trie without checking it again; a bad tree
    still fails."""
    g = running_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    checked = []
    is_spanning_tree = RibbonGraph.is_spanning_tree
    monkeypatch.setattr(RibbonGraph, "is_spanning_tree",
                        lambda self, tree: checked.append(tree) or is_spanning_tree(self, tree))
    steps = shelling(g, trees)
    assert sum(len(step.divergences) for step in steps) == 21
    assert len(checked) == len(trees) == 7
    with pytest.raises(ValueError, match="spanning tree"):
        shelling(g, [trees[0], trees[1] - {min(trees[1])}])


def test_trie_divergences_equal_pairwise_walks(c4_fixture, running_fixture,
                                               knot_fixture):
    """The trie of violet tours gives each pair the edge at which their
    tours diverge, by the reference that builds both tours whole, and
    each tree its violet T-order: for V-cut and E-cut trees, in
    enumeration order and shuffled, on the setup and its reversal.  A
    repeated tree still has no divergence."""
    rng = random.Random(21)
    graphs = [c4_fixture.graph, running_fixture.graph, knot_fixture.graph]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(40)]
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(20)]
    pairs = 0
    for g in graphs:
        for cut in (VCUT, ECUT):
            trees = enumerate_jaeger_trees(g, cut)
            shuffled = rng.sample(trees, len(trees))
            for setup in (g, g.reversed_setup()):
                for listed in (trees, shuffled):
                    steps = shelling(setup, listed)
                    for j, step in enumerate(steps):
                        assert step.violet == t_order(setup, step.tree, VIOLET)
                        # with the cut equal to the flavor, the reference tours ``setup``
                        assert step.divergences == tuple(
                            divergence_by_full_tours(setup, earlier, step.tree,
                                                     VCUT, VIOLET)
                            for earlier in listed[:j])
                        pairs += j
    assert pairs > 5000
    g = running_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    with pytest.raises(ValueError, match="identical trees"):
        shelling(g, trees[:3] + [trees[1]])


def test_unknown_flavor_is_rejected(c4_fixture):
    g = c4_fixture.graph
    t4 = frozenset({"c2", "c3", "c4"})
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        t_order(g, t4, "bogus")


def test_unknown_cut_is_rejected(running_fixture):
    g = running_fixture.graph
    tree = enumerate_jaeger_trees(g, VCUT)[0]
    with pytest.raises(ValueError, match="unknown cut 'bogus'"):
        enumerate_jaeger_trees(g, "bogus")
    with pytest.raises(ValueError, match="unknown cut 'bogus'"):
        is_jaeger_tree(g, tree, "bogus")
    assert is_jaeger_tree(g, tree, VCUT)


def test_cut_tables_equal_reference_cuts(c4_fixture, running_fixture, knot_fixture):
    """Each tree edge's cut table entry splits the reference cut of
    tree - edge by which end of a cut edge lies on the base side."""
    from hyperbernardi.jaeger import _base_cuts
    graphs = [c4_fixture.graph, running_fixture.graph, knot_fixture.graph]
    graphs += [random_bipartite(seed, 3, 4, 8) for seed in range(6)]
    cuts = 0
    for g in graphs:
        names = {i: e for e, i in g._edge_index.items()}
        for tree in g.spanning_trees():
            table = _base_cuts(g, tree)
            assert list(table) == sorted(tree)
            for edge, (violet_in, emerald_in) in table.items():
                side, cut = tree_cut(g, tree, edge)
                assert {names[i] for i in names if violet_in >> i & 1} == {
                    e for e in cut if g.violet_end(e) in side}
                assert {names[i] for i in names if emerald_in >> i & 1} == {
                    e for e in cut if g.emerald_end(e) in side}
                cuts += 1
    assert cuts > 500


def test_unique_realization_invariant():
    for seed in range(12):
        g = random_bipartite(seed, 4, 4, 10)
        for cut, side in ((VCUT, EMERALD), (VCUT, VIOLET),
                          (ECUT, EMERALD), (ECUT, VIOLET)):
            trees = enumerate_jaeger_trees(g, cut)
            family = enumerate_hypertrees(g, side)
            realized = [tuple(sorted(g.degree_vector(t, side).items()))
                        for t in trees]
            assert sorted(realized) == sorted(
                tuple(sorted(f.items())) for f in family), (seed, cut, side)
            assert len(set(realized)) == len(realized)


def test_reversal_duality_invariant():
    for seed in range(12):
        g = random_bipartite(seed, 4, 4, 10)
        rev = g.reversed_setup()
        assert set(enumerate_jaeger_trees(g, VCUT)) == \
            set(enumerate_jaeger_trees(rev, ECUT)), seed
        assert set(enumerate_jaeger_trees(g, ECUT)) == \
            set(enumerate_jaeger_trees(rev, VCUT)), seed


def test_base_cut_order_lemma():
    for seed in range(10):
        g = random_bipartite(seed, 4, 4, 10)
        for tree in enumerate_jaeger_trees(g, VCUT):
            rank = edge_rank(t_order(g, tree, VIOLET))
            for eps in tree:
                base_side, cut_edges = tree_cut(g, tree, eps)
                violet_side = [e for e in cut_edges - {eps}
                               if g.violet_end(e) in base_side]
                emerald_side = [e for e in cut_edges - {eps}
                                if g.emerald_end(e) in base_side]
                for e1 in violet_side:
                    assert rank[e1] <= rank[eps]
                    assert all(rank[e1] < rank[e2] for e2 in emerald_side)


def test_run_order_equals_t_order():
    for seed in range(10):
        g = random_bipartite(seed, 4, 4, 10)
        for f in enumerate_hypertrees(g, EMERALD):
            run = run_bernardi(g, f, HT_E_CUT_V)
            vo = t_order(g, run.result_tree, VIOLET)
            assert run.current_edge_order == vo.edge_order


def test_matching_figure_instance(matching_fixture):
    g = matching_fixture.graph
    tree = matching_fixture.value("tree")
    bg = bip(g)
    assert is_jaeger_tree(bg, tree, VCUT)
    vo = t_order(bg, tree, VIOLET)
    assert vo.edge_order == matching_fixture.value("violet_t_order")
    report = graph_activity_matching(g, tree)
    assert report["matched"]
    assert report["semi_passive"] == matching_fixture.value("semi_passive")
    assert report["inactive_violet"] == matching_fixture.value("inactive_violet")
    assert report["inactive_emerald"] == matching_fixture.value("inactive_emerald")


def test_matching_doubled_edge():
    from hyperbernardi.graph import RibbonGraph
    de = RibbonGraph({"a": ("u", "w"), "b": ("u", "w")}, None, "u", "a")
    bg = bip(de)
    trees = enumerate_jaeger_trees(bg, VCUT)
    counts = sorted(len(graph_activity_matching(de, t)["semi_passive"])
                    for t in trees)
    assert counts == [0, 1]
    for t in trees:
        assert graph_activity_matching(de, t)["matched"]


def test_matching_tree_graph():
    from hyperbernardi.graph import RibbonGraph
    path = RibbonGraph({"a": ("u0", "u1"), "b": ("u1", "u2")}, None, "u0", "a")
    bg = bip(path)
    (tree,) = enumerate_jaeger_trees(bg, VCUT)
    report = graph_activity_matching(path, tree)
    assert report["matched"] and report["count"] == 0


def test_matching_random_graphs():
    for seed in range(10):
        h = random_ordinary(seed, 5, 7)
        bg = bip(h)
        for tree in enumerate_jaeger_trees(bg, VCUT):
            report = graph_activity_matching(h, tree)
            assert report["matched"], (seed, sorted(tree))
            # coarse count equality: internal embedding inactivity on both sides
            vo = t_order(bg, tree, VIOLET)
            rank = edge_rank(vo)
            order_e = tuple(sorted(
                bg.emeralds, key=lambda x: min(rank[e] for e in bg.incident(x))))
            ie_e = internal_inactivity(bg, EMERALD,
                                       bg.degree_vector(tree, EMERALD), order_e)
            ie_v = internal_inactivity(bg, VIOLET,
                                       bg.degree_vector(tree, VIOLET), vo.class_order)
            assert len(ie_e) == len(ie_v) == report["count"]
