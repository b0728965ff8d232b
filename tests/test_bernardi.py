"""The four Bernardi processes, embedding activities, and compositions."""

import random
from collections import Counter
from dataclasses import replace
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbernardi.bernardi import (HT_E_CUT_E, HT_E_CUT_V, HT_V_CUT_E,
                                    HT_V_CUT_V, VARIANTS, BernardiStep,
                                    ProcessVariant, TheoremViolation,
                                    bernardi_polynomials,
                                    bernardi_runs, check_composition,
                                    embedding_inactivities,
                                    graph_specialization_check, run_bernardi)
from hyperbernardi.fixtures import c4
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import EMERALD, VIOLET, RibbonBipartiteGraph, bip
from hyperbernardi.hypertree import (Poly, _Feasibility, _family,
                                     enumerate_hypertrees, external_inactivity,
                                     interior_polynomial, internal_inactivity)
from hyperbernardi.jaeger import VCUT, enumerate_jaeger_trees, is_jaeger_tree
from oracles import bernardi_run as reference_run
from oracles import check_arc_rule
from oracles import random_setup_variation, renamed


def test_variant_parsing():
    assert ProcessVariant.parse("htE-cutV") == HT_E_CUT_V
    assert str(HT_V_CUT_E) == "htV-cutE" == f"{HT_V_CUT_E}"
    with pytest.raises(ValueError):
        ProcessVariant.parse("htE-cutX")


def test_variants_hash_and_compare_as_tuples():
    """A variant built by value is equal to the constant and finds its
    runs in a dict; hashing and comparison are the tuple's own, with no
    generated Python method on the fuzz path."""
    built = ProcessVariant(EMERALD, VIOLET)
    assert built == HT_E_CUT_V and built is not HT_E_CUT_V
    assert {HT_E_CUT_V: 1}[built] == 1 and built != HT_E_CUT_E
    assert ProcessVariant.__hash__ is tuple.__hash__
    assert ProcessVariant.__eq__ is tuple.__eq__


def test_process_walkthrough_cut_at_hypertree_side(process_fixture):
    """The nine-step panel narrative: decisions, order, inactivities."""
    g = process_fixture.graph
    f = process_fixture.value("hypertree")
    run = run_bernardi(g, f, HT_E_CUT_E)
    assert len(run.steps) == process_fixture.value("htE_cutE_steps")
    assert tuple(s.decision for s in run.steps) == \
        process_fixture.value("htE_cutE_decisions")
    assert len(run.current_edge_order) == len(g.edge_ids)
    assert g.degree_vector(run.result_tree, EMERALD) == f
    assert g.induced_order(EMERALD, run.current_edge_order) == \
        process_fixture.value("induced_order_on_E")
    assert embedding_inactivities(g, run) == \
        process_fixture.value("embedding_inactivities")


def test_process_walkthrough_cut_at_vertex_side(process_fixture):
    g = process_fixture.graph
    f = process_fixture.value("hypertree")
    run = run_bernardi(g, f, HT_E_CUT_V)
    assert run.current_edge_order[0] == process_fixture.value("htE_cutV_first_current")
    assert run.current_edge_order[1] == process_fixture.value("htE_cutV_second_current")
    assert g.degree_vector(run.result_tree, EMERALD) == f
    # the outcome is the unique V-cut Jaeger tree realizing f
    matches = [t for t in enumerate_jaeger_trees(g, VCUT)
               if g.degree_vector(t, EMERALD) == f]
    assert matches == [run.result_tree]


def test_c4_run_transcript(c4_fixture):
    g = c4_fixture.graph
    run = run_bernardi(g, {"e1": 1, "e2": 0}, HT_E_CUT_V)
    assert run.result_tree == frozenset({"c1", "c2", "c4"})
    assert run.current_edge_order == ("c1", "c3", "c4", "c2")
    assert [s.decision for s in run.steps] == \
        ["kept", "removed", "kept", "kept"]
    assert g.induced_order(EMERALD, run.current_edge_order) == ("e1", "e2")


def test_infeasible_hypertree_rejected(c4_fixture):
    with pytest.raises(ValueError, match="not a hypertree"):
        run_bernardi(c4_fixture.graph, {"e1": 0, "e2": 0}, HT_E_CUT_V)


def test_star_induced_order_follows_rotation():
    edges = {f"s{i}": ("hub", f"v{i}") for i in range(4)}
    rot = {"hub": ("s0", "s1", "s2", "s3")}
    g = RibbonBipartiteGraph(["hub"], [f"v{i}" for i in range(4)], edges, rot,
                             base_node="hub", base_edge="s0")
    run = run_bernardi(g, {"hub": 3}, HT_E_CUT_E)
    assert g.induced_order(VIOLET, run.current_edge_order) == ("v0", "v1", "v2", "v3")


def test_single_edge_runs(single_edge_fixture):
    g = single_edge_fixture.graph
    for variant in VARIANTS:
        side = variant.ht_side
        f = {x: 0 for x in g.side_nodes(side)}
        run = run_bernardi(g, f, variant)
        assert run.result_tree == frozenset({"ev"})
        assert run.current_edge_order == ("ev",)


def test_embedding_inactivities_tree_graph():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="v0", base_edge="a")
    assert embedding_inactivities(g, run_bernardi(g, {"e0": 1}, HT_E_CUT_E)) == (0, 0)


def test_embedding_inactivities_reject_foreign_runs(running_fixture, c4_fixture):
    """A run whose hypertree is indexed by other nodes, is no hypertree,
    whose current edges are not edges of the graph, or whose current
    edges miss a class node is refused, whether the run is on this graph
    (read by its positions) or on an equal copy (read by its names)."""
    g = running_fixture.graph
    run = bernardi_runs(g, HT_E_CUT_E)[0]
    copy = g.with_base(g.base_node, g.base_edge)
    twin = bernardi_runs(copy, HT_E_CUT_E)[0]
    assert twin.current_edge_order == run.current_edge_order
    assert embedding_inactivities(g, twin) == embedding_inactivities(g, run)
    with pytest.raises(ValueError, match="indexed by the emerald nodes"):
        embedding_inactivities(g, bernardi_runs(c4_fixture.graph, HT_E_CUT_E)[0])
    for record in (run, twin):
        zero = replace(record, key=(0,) * len(record.key))
        assert zero.hypertree == tuple((x, 0) for x, _ in run.hypertree)
        with pytest.raises(ValueError, match="not a hypertree"):
            embedding_inactivities(g, zero)
    other_ids, _, _ = renamed(g, g.nodes, [f"r_{e}" for e in g.edge_ids])
    foreign = bernardi_runs(other_ids, HT_E_CUT_E)[0]
    with pytest.raises(ValueError, match=f"current edge 'r_{run.current_edge_order[0]}' "
                                         "is not an edge here"):
        embedding_inactivities(g, foreign)
    for partial in (replace(run, class_order=run.class_order[:1]),
                    replace(twin, _trace=twin._trace._replace(order=twin._trace.order[:1]))):
        with pytest.raises(ValueError, match="a class order must list each emerald node"):
            embedding_inactivities(g, partial)
    assert partial.current_edge_order == run.current_edge_order[:1]


def test_bernardi_interior_equals_interior(running_fixture, c4_fixture,
                                           single_edge_fixture):
    g = running_fixture.graph
    assert bernardi_polynomials(g, HT_E_CUT_E)[0] == Poly((1, 3, 3))
    assert bernardi_polynomials(c4_fixture.graph, HT_E_CUT_E)[0] == Poly((1, 1))
    assert bernardi_polynomials(single_edge_fixture.graph,
                                HT_E_CUT_E)[0] == Poly((1,))
    cut_v = [run_bernardi(g, f, HT_E_CUT_V) for f in enumerate_hypertrees(g, EMERALD)]
    with pytest.raises(ValueError, match="runs must be runs of htE-cutE"):
        bernardi_polynomials(g, HT_E_CUT_E, cut_v)


def test_bernardi_polynomials_ignore_run_order():
    """Each run carries its own hypertree, so the polynomials do not
    depend on the order in which the runs are given."""
    rng = random.Random(5)
    for seed in range(50):
        g = random_bipartite(seed, 4, 4, 10)
        for variant in (HT_E_CUT_V, HT_E_CUT_E):
            runs = [run_bernardi(g, f, variant) for f in enumerate_hypertrees(g, EMERALD)]
            shuffled = list(runs)
            rng.shuffle(shuffled)
            want = bernardi_polynomials(g, variant, runs)
            assert bernardi_polynomials(g, variant, runs[::-1]) == want
            assert bernardi_polynomials(g, variant, shuffled) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), variation=st.integers(0, 10 ** 6))
def test_bernardi_interior_random_setups(running_fixture, seed, variation):
    """A new base and new rotations leave the interior polynomial as it
    is: classically, from the Bernardi processes cut at the hypertree
    side on either side, and as the h-vector of the V-cut Jaeger
    shelling; on the running example and on a drawn random graph."""
    from hyperbernardi.jaeger import shelling
    from hyperbernardi.polytope import shelling_h_vector
    for g in (running_fixture.graph, random_bipartite(seed, 4, 4, 10)):
        want = interior_polynomial(g, EMERALD)
        setup = random_setup_variation(g, variation)
        assert setup.edges == g.edges
        assert interior_polynomial(setup, EMERALD) == want
        assert bernardi_polynomials(setup, HT_E_CUT_E)[0] == want
        assert bernardi_polynomials(setup, HT_V_CUT_V)[0] == want
        steps = shelling(setup, enumerate_jaeger_trees(setup, VCUT))
        assert Poly(shelling_h_vector(steps)) == want


def composition_runs(g):
    """Runs of every variant on ``g``, and of the two cut:E variants on
    its reversed setup, over all hypertrees of each ht side."""
    family = {side: enumerate_hypertrees(g, side) for side in (EMERALD, VIOLET)}
    runs = {v: [run_bernardi(g, f, v) for f in family[v.ht_side]] for v in VARIANTS}
    rev = g.reversed_setup()
    rev_runs = {v: [run_bernardi(rev, f, v) for f in family[v.ht_side]]
                for v in (HT_E_CUT_E, HT_V_CUT_E)}
    return runs, rev_runs


def test_composition_theorems(c4_fixture, running_fixture):
    for g in (c4_fixture.graph, running_fixture.graph):
        assert all(check_composition(g, *composition_runs(g)).values())


def test_composition_tree_graph():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="v0", base_edge="a")
    assert all(check_composition(g, *composition_runs(g)).values())


def test_composition_detects_a_tampered_outcome(running_fixture):
    """One wrong or missing outcome fails exactly the identity that reads
    it; a wrong ht:E cut:V outcome fails all three."""
    g = running_fixture.graph
    runs, rev_runs = composition_runs(g)
    names = {HT_V_CUT_V: "htV-cutV-on-fV", HT_E_CUT_E: "htE-cutE-reversed",
             HT_V_CUT_E: "htV-cutE-reversed"}
    for table, variant in ((runs, HT_V_CUT_V), (rev_runs, HT_E_CUT_E),
                           (rev_runs, HT_V_CUT_E), (runs, HT_E_CUT_V)):
        honest = table[variant]
        wrong = replace(honest[0], _trace=honest[0]._trace._replace(
            live=honest[1]._trace.live))
        assert (wrong.hypertree, wrong.result_tree) == \
            (honest[0].hypertree, honest[1].result_tree)
        for tampered in ([wrong] + honest[1:], honest[1:]):
            table[variant] = tampered
            failed = {k for k, ok in check_composition(g, runs, rev_runs).items()
                      if not ok}
            table[variant] = honest
            assert failed == ({names[variant]} if variant in names
                              else set(names.values()))


def test_graph_specialization(tour_fixture):
    g = tour_fixture.graph
    tree = tour_fixture.value("tree")
    assert graph_specialization_check(g, tree)
    bg = bip(g)
    f = {e: (1 if e in tree else 0) for e in g.edge_ids}
    run = run_bernardi(bg, f, HT_E_CUT_E)
    assert bg.induced_order(EMERALD, run.current_edge_order) == \
        tour_fixture.value("edge_order")


def test_graph_specialization_random():
    for seed in range(8):
        h = random_ordinary(seed, 5, 7)
        for tree in h.spanning_trees():
            assert graph_specialization_check(h, tree), (seed, sorted(tree))


def test_well_definedness_all_variants(running_fixture, knot_fixture, c4_fixture):
    for g in (running_fixture.graph, knot_fixture.graph, c4_fixture.graph):
        for variant in VARIANTS:
            family = enumerate_hypertrees(g, variant.ht_side)
            results = set()
            for f in family:
                run = run_bernardi(g, f, variant)  # online checks inside
                assert set(run.current_edge_order) == set(g.edge_ids)
                assert len(run.current_edge_order) == len(g.edge_ids)
                assert g.degree_vector(run.result_tree, variant.ht_side) == f
                results.add(run.result_tree)
            # distinct hypertrees give distinct trees
            assert len(results) == len(family)


def test_outcomes_are_jaeger_trees(running_fixture):
    g = running_fixture.graph
    for f in enumerate_hypertrees(g, EMERALD):
        assert is_jaeger_tree(g, run_bernardi(g, f, HT_E_CUT_V).result_tree, VCUT)


def test_transpose_delegation_equivalence():
    flip = {EMERALD: VIOLET, VIOLET: EMERALD}
    for seed in range(8):
        g = random_bipartite(seed, 4, 4, 9)
        tg = g.transpose()
        for variant in VARIANTS:
            mirrored = ProcessVariant(flip[variant.ht_side], flip[variant.cut_side])
            for f in enumerate_hypertrees(g, variant.ht_side):
                r1 = run_bernardi(g, f, variant)
                r2 = run_bernardi(tg, f, mirrored)
                assert r1.result_tree == r2.result_tree
                assert r1.current_edge_order == r2.current_edge_order


def oracle_instances():
    """Fresh graphs (cold memos): fixtures, random bipartite graphs and
    subdivisions of random ordinary graphs."""
    from hyperbernardi.fixtures import (running_graph,
                                        running_graph_knot_setup)
    graphs = [running_graph().graph, running_graph_knot_setup().graph,
              c4().graph]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(40)]
    graphs += [bip(random_ordinary(seed, 6, 9)) for seed in range(12)]
    return graphs


def assert_runs_equal_reference(g):
    """Fast and paranoid runs on ``g`` and on its reversed setup, over
    each family at once and one hypertree at a time, make the records of
    the name-keyed reference walk, which searches every step; the
    embedding polynomials count the runs' embedding inactivities."""
    for setup in (g, g.reversed_setup()):
        for variant in VARIANTS:
            family = enumerate_hypertrees(setup, variant.ht_side)
            wants = [reference_run(setup, f, variant) for f in family]
            for paranoid in (False, True):
                batch = bernardi_runs(setup, variant, paranoid)
                assert len(batch) == len(family)
                for f, want, got in zip(family, wants, batch):
                    one = run_bernardi(setup, f, variant, paranoid)
                    for run in (got, one):
                        case = (setup.base_edge, variant, f, paranoid, run is got)
                        assert run.variant == want.variant, case
                        assert run.hypertree == want.hypertree, case
                        assert run.steps == want.steps, case
                        assert run.current_edge_order == want.current_edge_order, case
                        assert run.result_tree == want.result_tree, case
                        assert list(run.first_reached.items()) == \
                            list(want.first_reached.items()), case
            pairs = [embedding_inactivities(setup, run) for run in wants]
            assert bernardi_polynomials(setup, variant) == (
                Poly.counting(i for i, _ in pairs), Poly.counting(e for _, e in pairs))


def test_run_records_read_their_trace():
    """On seeded instances of the three generators, each field that a run
    builds when read, and its steps, equal the reference walk's record,
    whichever is read first; the class order lists the ht-side positions
    by first current edge; each run's embedding inactivities equal the
    name-keyed inactivities under the class order its current edges
    induce, and the embedding polynomials count them."""
    graphs = [random_bipartite(seed, 4, 4, 10) for seed in range(8)]
    graphs += [bip(random_ordinary(seed, 5, 7)) for seed in range(6)]
    graphs += [random_setup_variation(random_bipartite(seed, 4, 4, 10), seed + 50)
               for seed in range(6)]
    lazy = ("hypertree", "result_tree", "current_edge_order", "steps", "first_reached")
    for g in graphs:
        for variant in VARIANTS:
            side = variant.ht_side
            position = {x: i for i, x in enumerate(g.side_nodes(side))}
            runs = bernardi_runs(g, variant)
            family = enumerate_hypertrees(g, side)
            assert len(runs) == len(family)
            for k, (f, run) in enumerate(zip(family, runs)):
                want = reference_run(g, f, variant)
                for name in lazy[k % len(lazy):] + lazy[:k % len(lazy)]:
                    assert getattr(run, name) == getattr(want, name), (name, variant, f)
                assert run.key == tuple(f[x] for x in g.side_nodes(side))
                induced = g.induced_order(side, run.current_edge_order)
                assert run.class_order == tuple(position[x] for x in induced)
                assert embedding_inactivities(g, run) == (
                    len(internal_inactivity(g, side, f, induced)),
                    len(external_inactivity(g, side, f, induced)))
            pairs = [embedding_inactivities(g, run) for run in runs]
            assert bernardi_polynomials(g, variant) == (
                Poly.counting(i for i, _ in pairs), Poly.counting(e for _, e in pairs))


def test_paranoid_mode_agrees():
    """Witness, degree caps and exchange reachability decide every step
    as a full search does, and the dart-table walk takes the reference
    walk's steps."""
    for g in oracle_instances():
        assert_runs_equal_reference(g)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), graphs_only=st.booleans())
def test_paranoid_mode_agrees_drawn_seed(seed, graphs_only):
    g = (bip(random_ordinary(seed, 6, 9)) if graphs_only
         else random_bipartite(seed, 4, 4, 10))
    assert_runs_equal_reference(g)


def test_runs_check_the_arc_rule(running_fixture, knot_fixture):
    """Every run order, over a family or alone, fast or paranoid, passes
    the reference arc rule, on the fixtures and seeded instances."""
    graphs = [running_fixture.graph, knot_fixture.graph, c4().graph]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(4)]
    graphs += [bip(random_ordinary(seed, 5, 7)) for seed in range(2)]
    for g in graphs:
        for variant in VARIANTS:
            cut_pos = 0 if variant.cut_side == EMERALD else 1
            for paranoid in (False, True):
                runs = bernardi_runs(g, variant, paranoid)
                runs += [run_bernardi(g, dict(run.hypertree), variant, paranoid)
                         for run in runs]
                for run in runs:
                    check_arc_rule(g, [g.edge_ids.index(e) for e in run.current_edge_order],
                                   cut_pos)


def test_walk_checks_the_arc_rule_online(monkeypatch, running_fixture):
    """A fault that drops the next edge around a cut-side node from the live
    graph makes the walk skip it; the walk's own arc check then stops the
    run, naming that node, on some hypertree of each variant that cuts at
    its ht side; a run that completes met no fault."""
    g = running_fixture.graph
    succ, node = g._darts.succ, g._darts.node
    avoid = _Feasibility.avoid
    faults = []

    def faulty(self, tree, live, e):
        d = 2 * e + self.parity       # e's dart at x, its cut-side end here
        if not faults and live[succ[d] >> 1]:
            live[succ[d] >> 1] = 0
            faults.append(g.nodes[node[d]])
        return avoid(self, tree, live, e)
    monkeypatch.setattr(_Feasibility, "avoid", faulty)
    for variant in (HT_E_CUT_E, HT_V_CUT_V):
        named = []
        for f in enumerate_hypertrees(g, variant.ht_side):
            faults.clear()
            try:
                run = run_bernardi(g, f, variant)
            except TheoremViolation as exc:
                if "cyclic-order discipline" in str(exc):
                    assert str(exc) == (f"current edges at {faults[0]!r} broke "
                                        "the cyclic-order discipline")
                    named.append(faults[0])
            else:
                assert not faults
                check_arc_rule(g, [g.edge_ids.index(e) for e in run.current_edge_order],
                               0 if variant.cut_side == EMERALD else 1)
        assert named, variant


def test_bernardi_step_is_an_immutable_named_tuple():
    step = BernardiStep("c1", "kept", 4, (("c1", VIOLET), ("c2", EMERALD)))
    assert BernardiStep._fields == ("edge", "decision", "live_before", "traversals")
    assert step == ("c1", "kept", 4, (("c1", VIOLET), ("c2", EMERALD)))
    assert step.live_before == 4
    with pytest.raises(AttributeError):
        step.edge = "c2"


def test_arc_rule_names_the_node(running_fixture):
    """The consecutive-arc check passes each run's current-edge order and
    names the cut-side node whose current edges leave its rotation; on
    the star each leaf has one edge, which follows itself."""
    star = RibbonBipartiteGraph(
        ["hub"], [f"v{i}" for i in range(4)],
        {f"s{i}": ("hub", f"v{i}") for i in range(4)},
        {"hub": ("s0", "s1", "s2", "s3")}, base_node="hub", base_edge="s0")
    for g in (running_fixture.graph, star):
        for variant in VARIANTS:
            for f in enumerate_hypertrees(g, variant.ht_side):
                run = run_bernardi(g, f, variant)
                order = [g.edge_ids.index(e) for e in run.current_edge_order]
                check_arc_rule(g, order, 0 if variant.cut_side == EMERALD else 1)
    # swap the current times of the last two of e3's edges: around its
    # rotation (e3v0, e3v1, e3v2) the times then descend twice
    g = running_fixture.graph
    run = run_bernardi(g, enumerate_hypertrees(g, EMERALD)[0], HT_E_CUT_E)
    order = [g.edge_ids.index(e) for e in run.current_edge_order]
    i, j = sorted(run.current_edge_order.index(e) for e in g.rotations["e3"])[1:]
    order[i], order[j] = order[j], order[i]
    with pytest.raises(TheoremViolation, match="current edges at 'e3' broke"):
        check_arc_rule(g, order, 0)


def test_arc_rule_is_one_descent_per_rotation(running_fixture, knot_fixture):
    """An order passes the consecutive-arc check exactly when, around each
    cut-side rotation, the current times descend once, on run orders and
    on shuffled orders that keep all but one node's current edges in
    rotation order."""
    rng = random.Random(3)
    outcomes = set()
    for g in (running_fixture.graph, knot_fixture.graph, c4().graph):
        succ, rotation = g._darts.succ, g._darts.rotation
        for variant in VARIANTS:
            cut_pos = 0 if variant.cut_side == EMERALD else 1
            orders = [[g.edge_ids.index(e) for e in run.current_edge_order]
                      for run in bernardi_runs(g, variant)]
            for base in list(orders):
                for _ in range(20):
                    order = list(base)
                    ds = rng.choice([ds for ds in rotation if ds[0] & 1 == cut_pos])
                    times = sorted(order.index(d >> 1) for d in ds)
                    shuffled = [d >> 1 for d in ds]
                    rng.shuffle(shuffled)
                    for t, e in zip(times, shuffled):
                        order[t] = e
                    orders.append(order)
            for order in orders:
                rank = {e: t for t, e in enumerate(order)}
                once = all(sum(rank[succ[d] >> 1] <= rank[d >> 1] for d in ds) == 1
                           for ds in rotation if ds[0] & 1 == cut_pos)
                try:
                    check_arc_rule(g, order, cut_pos)
                except TheoremViolation:
                    assert not once, (variant, order)
                else:
                    assert once, (variant, order)
                outcomes.add(once)
    assert outcomes == {True, False}


def test_search_returns_realizations(monkeypatch):
    """Every tree the oracle's search returns lies in ``live`` and
    realizes the hypertree; None means no spanning tree of the live graph
    does (checked against all spanning trees)."""
    queries = {}
    search = _Feasibility._search

    def recording(self, f_key, live):
        tree = search(self, f_key, live)
        queries[(self, f_key, live)] = tree
        return tree
    monkeypatch.setattr(_Feasibility, "_search", recording)
    graphs = oracle_instances()
    for g in graphs:
        for variant in VARIANTS:
            for f in enumerate_hypertrees(g, variant.ht_side):
                run_bernardi(g, f, variant)
                run_bernardi(g, f, variant, paranoid=True)
    # every spanning tree, grouped by the hypertree it realizes
    realizing = {}
    for g in graphs:
        for t in g.spanning_trees():
            for side in (EMERALD, VIOLET):
                vals = g.degree_vector(t, side)
                key = (id(g), side, tuple(vals[x] for x in g.side_nodes(side)))
                realizing.setdefault(key, []).append(t)
    outcomes = set()
    for (oracle, f_key, live), tree in queries.items():
        g = oracle.g
        candidates = realizing.get((id(g), oracle.side, f_key), [])
        if tree is not None:
            assert g.is_spanning_tree(tree) and tree <= live
            assert tree in candidates
        assert (tree is not None) == any(t <= live for t in candidates)
        outcomes.add(tree is not None)
    assert outcomes == {True, False}


def test_family_maps_hypertrees_to_realizations():
    """Each member of the family is mapped to a spanning tree that
    realizes it, given as a byte mask over the edge indices."""
    for g in oracle_instances():
        for side in (EMERALD, VIOLET):
            family = _family(g, side)
            assert family
            for key, member in family.items():
                assert len(member.tree) == len(g.edge_ids)
                tree = frozenset(compress(g.edge_ids, member.tree))
                assert g.is_spanning_tree(tree)
                vals = g.degree_vector(tree, side)
                assert tuple(vals[x] for x in g.side_nodes(side)) == key


def counting_searches(monkeypatch) -> list[int]:
    """The live edge count of every oracle search from now on."""
    searches = []
    search = _Feasibility._search

    def counting(self, f_key, live):
        searches.append(len(live))
        return search(self, f_key, live)
    monkeypatch.setattr(_Feasibility, "_search", counting)
    return searches


def assert_paranoid_searches_every_step(setup, f, variant, searches):
    """A paranoid run searches the full edge set once, then the live
    graph without the current edge at every step."""
    steps = run_bernardi(setup, f, variant, paranoid=True).steps
    assert searches == [len(setup.edge_ids)] + [s.live_before - 1 for s in steps]
    searches.clear()


def test_reversed_runs_start_from_the_shared_family(monkeypatch):
    """Building the families makes no search, and the reversed setup
    shares them, so its fast runs take their witnesses from them and
    make no search either; its paranoid runs search at every step."""
    searches = counting_searches(monkeypatch)
    for g in oracle_instances():
        rev = g.reversed_setup()
        assert rev._feas_cache is g._feas_cache
        for variant in VARIANTS:
            family = enumerate_hypertrees(g, variant.ht_side)
            for f in family:
                run_bernardi(rev, f, variant)
            assert searches == []
            for f in family:
                assert_paranoid_searches_every_step(rev, f, variant, searches)


def test_witness_answers_most_steps(monkeypatch):
    """The witness, the degree caps and exchange reachability decide
    every step of a fast run, without a search; paranoid runs search at
    every step."""
    searches = counting_searches(monkeypatch)
    for g in oracle_instances():
        for variant in VARIANTS:
            for f in enumerate_hypertrees(g, variant.ht_side):
                run_bernardi(g, f, variant)
                assert searches == []
                assert_paranoid_searches_every_step(g, f, variant, searches)


def test_kept_steps_carry_violated_rank_inequalities(monkeypatch):
    """Each step that exchange reachability keeps is checked online: its
    refuting set must violate Kalman's inequality on the live graph
    without the edge, or the run fails with a TheoremViolation."""
    excesses = []
    excess = _Feasibility.excess

    def recording(self, f_key, members, live):
        excesses.append(excess(self, f_key, members, live))
        return excesses[-1]
    monkeypatch.setattr(_Feasibility, "excess", recording)
    runs = [(g, f, variant) for g in oracle_instances() for variant in VARIANTS
            for f in enumerate_hypertrees(g, variant.ht_side)]
    for g, f, variant in runs:
        run_bernardi(g, f, variant)
    assert excesses and min(excesses) > 0
    monkeypatch.setattr(_Feasibility, "excess", lambda *args: 0)
    with pytest.raises(TheoremViolation, match="violates no rank inequality"):
        for g, f, variant in runs:
            run_bernardi(g, f, variant)


def test_check_conjectures_runs_each_variant_once(family_runs):
    """Each ht:E variant runs over the emerald family once, and no
    hypertree runs twice."""
    from hyperbernardi.campaign import PASS, check_conjectures
    for seed in range(5):
        g = random_bipartite(seed, 4, 4, 10)
        family_runs.clear()
        report = check_conjectures(g)
        assert all(c["status"] == PASS for c in report.checks)
        assert Counter(family for family, _ in family_runs) == \
            Counter([(id(g), HT_E_CUT_V, False), (id(g), HT_E_CUT_E, False)])
        assert all(len(set(hts)) == len(hts) for _, hts in family_runs)
        assert sum(len(hts) for _, hts in family_runs) == \
            2 * len(enumerate_hypertrees(g, EMERALD))


def test_steps_are_built_when_read(monkeypatch, running_fixture):
    """The campaign reads runs' outcomes and current-edge orders only, so
    its runs build no step; a run's steps are built on their first read,
    one per edge, and kept."""
    from hyperbernardi import bernardi
    from hyperbernardi.campaign import campaign_verify_all, check_conjectures
    built = []

    def counting(*fields):
        built.append(fields)
        return BernardiStep(*fields)
    monkeypatch.setattr(bernardi, "BernardiStep", counting)
    g = running_fixture.graph
    for graph in [g] + [bip(random_ordinary(seed, 6, 9)) for seed in range(3)]:
        check_conjectures(graph)
    campaign_verify_all(g)
    assert built == []
    f = enumerate_hypertrees(g, EMERALD)[1]
    run = run_bernardi(g, f, HT_E_CUT_V)
    steps = run.steps
    assert len(built) == len(g.edge_ids) == len(steps)
    assert run.steps is steps
    assert steps == reference_run(g, f, HT_E_CUT_V).steps


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), graphs_only=st.booleans(), data=st.data())
def test_renaming_invariance(seed, graphs_only, data):
    """Results depend on the ribbon structure and base, not on names or
    on their sorted order."""
    from hyperbernardi.campaign import check_conjectures
    g = (bip(random_ordinary(seed, 6, 9)) if graphs_only
         else random_bipartite(seed, 4, 4, 10))
    node_names = data.draw(st.permutations([f"n{i}" for i in range(len(g.nodes))]))
    edge_names = data.draw(st.permutations([f"k{i}" for i in range(len(g.edge_ids))]))
    h, nm, em = renamed(g, node_names, edge_names)

    def polynomials(graph):
        keys = ("name", "status", "polynomial", "expected", "got")
        return [{k: c.get(k) for k in keys} for c in check_conjectures(graph).checks]
    assert polynomials(h) == polynomials(g)
    for variant in VARIANTS:
        for f in enumerate_hypertrees(g, variant.ht_side):
            run_g = run_bernardi(g, f, variant)
            run_h = run_bernardi(h, {nm[x]: v for x, v in f.items()}, variant)
            assert run_h.result_tree == {em[e] for e in run_g.result_tree}
            assert run_h.current_edge_order == tuple(
                em[e] for e in run_g.current_edge_order)


def test_run_records_timestamps(process_fixture):
    g = process_fixture.graph
    run = run_bernardi(g, process_fixture.value("hypertree"), HT_E_CUT_V)
    first_incident_current: dict[str, int] = {}
    for i, e in enumerate(run.current_edge_order):
        for x in g.edges[e]:
            first_incident_current.setdefault(x, i)
    assert set(first_incident_current) == set(g.nodes)
    assert set(run.first_reached) == set(g.nodes)
    # away from the starting nodes, numbering by incident current edge
    # can only precede the walk's arrival; here the top node is numbered
    # well before it is reached
    start = {x for x, i in run.first_reached.items() if i == 0}
    assert all(first_incident_current[x] <= run.first_reached[x]
               for x in g.nodes if x not in start)
    assert first_incident_current["T"] < run.first_reached["T"]


def test_exterior_polynomials_match_for_graphs(c4_fixture):
    from hyperbernardi.hypertree import exterior_polynomial
    g = c4_fixture.graph
    want = exterior_polynomial(g, EMERALD)
    assert bernardi_polynomials(g, HT_E_CUT_E)[1] == want
    assert bernardi_polynomials(g, HT_E_CUT_V)[1] == want


@pytest.mark.parametrize("variant, answers, error, message", [
    (HT_E_CUT_V, "never", TheoremViolation, "traversed subgraph acquired a cycle at 'e2v0'"),
    (HT_E_CUT_E, "never", TheoremViolation, "traversed subgraph acquired a cycle at 'e2v0'"),
    (HT_E_CUT_V, "always", AssertionError, "removal isolated the current node"),
    (HT_E_CUT_E, "always", TheoremViolation, "kept/traversed edge 'e0v0' removed"),
    (HT_E_CUT_V, "after-first", TheoremViolation, "kept/traversed edge 'e0v1' removed"),
])
def test_walk_checks_fire_on_false_answers(monkeypatch, running_fixture, variant,
                                           answers, error, message):
    """A paranoid run whose search answers only the start check truthfully
    trips the walk's online checks: keeping every edge closes a cycle in
    the traversed subgraph, removing every edge removes a traversed edge
    (on cut:E the base edge, traversed before the first current edge) or
    isolates the current node, and removing every edge after a first kept
    one removes that kept edge."""
    search = _Feasibility._search
    steps = []

    def answering(self, f_key, live):
        if len(live) == len(self.g.edge_ids):
            return search(self, f_key, live)
        steps.append(live)
        removable = answers == "always" or answers == "after-first" and len(steps) > 1
        return frozenset() if removable else None
    monkeypatch.setattr(_Feasibility, "_search", answering)
    g = running_fixture.graph
    f = enumerate_hypertrees(g, EMERALD)[0]
    with pytest.raises(error) as caught:
        run_bernardi(g, f, variant, paranoid=True)
    assert type(caught.value) is error and str(caught.value) == message
