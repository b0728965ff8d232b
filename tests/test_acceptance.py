"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with -v/-s or in the
captured output); every expected value is exact, no tolerances.
The sweeps are shared session fixtures:

* sweep_a -- 100 random (rotation, base) variations of the running
  nine-edge example;
* sweep_b -- 50 random connected bipartite graphs, at most 10 nodes
  and 14 edges;
* sweep_c -- 50 random ordinary ribbon multigraphs, at most 6 vertices
  and 9 edges.
"""

import time
from itertools import combinations

import pytest

from hyperbernardi.bernardi import (HT_E_CUT_E, HT_E_CUT_V, HT_V_CUT_E,
                                    HT_V_CUT_V, bernardi_polynomials,
                                    check_composition,
                                    graph_specialization_check, run_bernardi)
from hyperbernardi.campaign import (arborescence_duality, fuzz_conjectures,
                                    verify_noncrossing)
from hyperbernardi.fixtures import (k5_setup, running_graph,
                                    running_graph_knot_setup, tour_example)
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import EMERALD, VIOLET, bip
from hyperbernardi.hypertree import (enumerate_hypertrees,
                                     interior_polynomial, tutte_check)
from hyperbernardi.jaeger import (ECUT, VCUT, characterize_tree,
                                  enumerate_jaeger_trees,
                                  graph_activity_matching, is_jaeger_tree,
                                  shelling)
from hyperbernardi.polytope import (TreeSimplex, ehrhart_values, fit_binomial_coefficients,
                                    geometric_shelling_check,
                                    kato_series_check, shelling_h_vector)
from oracles import (certify_disjoint_interiors, contains, marker, random_setup_variation,
                     trees_compatible)

N_SETUPS = 100
N_BIPARTITE = 50
N_ORDINARY = 50
N_FUZZ = 500


class Bundle:
    """Shared per-instance computations for the sweep criteria."""

    def __init__(self, g):
        self.g = g
        self.b_e = enumerate_hypertrees(g, EMERALD)
        self.b_v = enumerate_hypertrees(g, VIOLET)
        self.runs = {}
        for variant, family in ((HT_E_CUT_V, self.b_e), (HT_E_CUT_E, self.b_e),
                                (HT_V_CUT_V, self.b_v), (HT_V_CUT_E, self.b_v)):
            self.runs[variant] = [run_bernardi(g, f, variant) for f in family]
        self.vcut = enumerate_jaeger_trees(g, VCUT)
        self.steps = shelling(g, self.vcut)
        self.ecut = enumerate_jaeger_trees(g, ECUT)


@pytest.fixture(scope="session")
def sweep_a():
    base = running_graph().graph
    return [random_setup_variation(base, seed) for seed in range(N_SETUPS)]


@pytest.fixture(scope="session")
def sweep_b():
    return [random_bipartite(seed, 5, 5, 14) for seed in range(N_BIPARTITE)]


@pytest.fixture(scope="session")
def sweep_c():
    return [random_ordinary(seed, 6, 9) for seed in range(N_ORDINARY)]


@pytest.fixture(scope="session")
def bundles(sweep_a, sweep_b):
    return [Bundle(g) for g in sweep_a + sweep_b]


def report(n, message):
    print(f"CRITERION {n:>2} PASS: {message}")


def test_criterion_01_running_example_interior():
    t0 = time.perf_counter()
    fx = running_graph()
    g = fx.graph
    b_e = enumerate_hypertrees(g, EMERALD)
    b_v = enumerate_hypertrees(g, VIOLET)
    assert len(b_e) == len(b_v) == 7
    import random
    for side in (EMERALD, VIOLET):
        assert interior_polynomial(g, side).coeffs == (1, 3, 3)
        rng = random.Random(17)
        for _ in range(10):
            order = list(g.side_nodes(side))
            rng.shuffle(order)
            poly = interior_polynomial(g, side, order=order)
            assert poly.coeffs == (1, 3, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"7 hypertrees per class, interior 1+3x+3x^2 both sides, "
              f"22 orders, {elapsed:.2f}s")


def test_criterion_02_bernardi_interior_theorem(bundles):
    for b in bundles:
        interior = interior_polynomial(b.g, EMERALD)
        tilde = bernardi_polynomials(b.g, HT_E_CUT_E)[0]
        assert tilde == interior, b.g.base_node
    report(2, f"I~ = I on {N_SETUPS} setups of the running example and "
              f"{N_BIPARTITE} random bipartite graphs")


def test_criterion_03_well_definedness(bundles):
    runs = 0
    for b in bundles:
        for variant, family in ((HT_E_CUT_V, b.b_e), (HT_E_CUT_E, b.b_e),
                                (HT_V_CUT_V, b.b_v), (HT_V_CUT_E, b.b_v)):
            for f, run in zip(family, b.runs[variant]):
                # run_bernardi would have raised on any online violation
                assert len(run.current_edge_order) == len(b.g.edge_ids)
                assert set(run.current_edge_order) == set(b.g.edge_ids)
                assert b.g.degree_vector(run.result_tree, variant.ht_side) == f
                runs += 1
    report(3, f"{runs} runs, each edge current once, every result realizes "
              "its hypertree, no online assertion fired")


def test_criterion_04_bernardi_equals_jaeger(bundles):
    for b in bundles:
        recognized_v = {t for t in b.g.spanning_trees()
                        if is_jaeger_tree(b.g, t, VCUT)}
        recognized_e = {t for t in b.g.spanning_trees()
                        if is_jaeger_tree(b.g, t, ECUT)}
        out_v = {r.result_tree for r in b.runs[HT_E_CUT_V]} | \
                {r.result_tree for r in b.runs[HT_V_CUT_V]}
        out_e = {r.result_tree for r in b.runs[HT_E_CUT_E]} | \
                {r.result_tree for r in b.runs[HT_V_CUT_E]}
        assert out_v == recognized_v == set(b.vcut)
        assert out_e == recognized_e == set(b.ecut)
    report(4, "process outcomes = recognized Jaeger sets = direct "
              f"enumeration on {len(bundles)} setups, both cuts")


def test_criterion_05_unique_realization_bijection(bundles):
    for b in bundles:
        fe = [tuple(sorted(b.g.degree_vector(t, EMERALD).items()))
              for t in b.vcut]
        fv = [tuple(sorted(b.g.degree_vector(t, VIOLET).items()))
              for t in b.vcut]
        assert len(set(fe)) == len(b.vcut) == len(b.b_e)
        assert len(set(fv)) == len(b.vcut) == len(b.b_v)
        assert set(fe) == {tuple(sorted(f.items())) for f in b.b_e}
        assert set(fv) == {tuple(sorted(f.items())) for f in b.b_v}
    report(5, "hypertree -> V-cut Jaeger tree is a bijection and induces "
              f"a bijection between the hypertree classes ({len(bundles)} setups)")


def test_criterion_06_dissection(bundles):
    from hyperbernardi.jaeger import divergence_edge
    certified_pairs = 0
    markers_checked = 0
    for b in bundles:
        simplices = [TreeSimplex(b.g, t) for t in b.vcut]
        for side, family in ((EMERALD, b.b_e), (VIOLET, b.b_v)):
            for f in family:
                p = marker(b.g, f, side)
                hits = [i for i, s in enumerate(simplices)
                        if contains(s, p, strict=True)]
                assert len(hits) == 1, (side, f)
                markers_checked += 1
        if len(b.g.edge_ids) <= 8:
            for t1, t2 in combinations(b.vcut, 2):
                eps = divergence_edge(b.g, t1, t2)
                earlier, later = (t1, t2) if eps in t2 else (t2, t1)
                assert certify_disjoint_interiors(b.g, earlier, later, eps)
                certified_pairs += 1
    report(6, f"{markers_checked} markers each strictly inside exactly one "
              f"simplex; {certified_pairs} pairs certified interior-disjoint")


def test_criterion_07_shelling(bundles):
    fx = running_graph_knot_setup()
    g = fx.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    assert trees == fx.value("vcut_jaeger_violet_order")
    assert shelling_h_vector(shelling(g, trees)) == (1, 3, 3)
    checked = 0
    for b in bundles:
        if len(b.g.edge_ids) > 8:
            continue
        geo = geometric_shelling_check(b.g, b.steps)
        assert geo["ok"], geo["failures"]
        assert shelling_h_vector(b.steps) == \
            interior_polynomial(b.g, EMERALD).coeffs
        checked += 1
    assert checked >= 10
    report(7, f"running example h-vector (1, 3, 3) in violet order; geometric "
              f"facet coverage verified on {checked} small instances")


def test_criterion_08_five_way_equivalence(bundles):
    edges_checked = 0
    for b in bundles:
        for i in range(len(b.vcut)):
            # raises on a lemma failure or a disagreement
            edges_checked += len(characterize_tree(b.g, b.steps[i]))
    report(8, f"five descriptions agree on {edges_checked} tree edges, "
              "zero disagreements")


def test_criterion_09_ehrhart_chain():
    from hyperbernardi.fixtures import c4
    for fixture, d, want in ((running_graph(), 5, (1, 3, 3)),
                             (c4(), 2, (1, 1))):
        g = fixture.graph
        kmax = d + 5
        values = ehrhart_values(g, kmax)
        fitted = fit_binomial_coefficients(values, d)
        assert fitted[:len(want)] == want
        assert all(c == 0 for c in fitted[len(want):])
        assert kato_series_check(want, g, kmax, values)
    report(9, "binomial fits (1,3,3,0,0,0) and (1,1,0); Kato series matches "
              "to order d+5 on both")


def test_criterion_10_non_triangulation_witnesses():
    fx = running_graph_knot_setup()
    g = fx.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    i, j = fx.value("incompatible_pair")
    assert not trees_compatible(g, trees[i], trees[j])
    incompatible = [(a, b) for a, b in combinations(trees, 2)
                    if not trees_compatible(g, a, b)]
    assert incompatible  # dissection fails to triangulate

    k5 = k5_setup()
    bg = bip(k5.graph)
    ta, tb = k5.value("tree_a"), k5.value("tree_b")
    assert is_jaeger_tree(bg, ta, VCUT) and is_jaeger_tree(bg, tb, VCUT)
    assert not trees_compatible(bg, ta, tb)
    report(10, "running-example trees 2,3 incompatible; transcribed "
               "complete-graph pair of V-cut Jaeger trees incompatible")


def test_criterion_11_special_cases():
    counts = {}
    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
        rep = verify_noncrossing(m, n)
        assert rep["count_ok"] and rep["set_equal"] and rep["lexicographic"], (m, n)
        counts[(m, n)] = rep["count"]
    fxa = arborescence_duality(running_graph().graph)
    assert fxa["equal"]
    from hyperbernardi.fixtures import c4
    for r0 in (0, 1):
        rep = arborescence_duality(c4().graph, r0)
        assert rep["equal"] and rep["arborescences"] == 2
    report(11, f"non-crossing counts {counts} with set equality and "
               "lexicographic shelling; dual-arborescence equality on the "
               "running example and the cycle")


def test_criterion_12_activity_matching(sweep_c):
    trees_checked = 0
    for h in sweep_c:
        bg = bip(h)
        for tree in enumerate_jaeger_trees(bg, VCUT):
            rep = graph_activity_matching(h, tree)
            assert rep["matched"], sorted(tree)
            trees_checked += 1
    report(12, f"semi-passive edges biject with inactive nodes on both sides "
               f"for {trees_checked} Jaeger trees over {len(sweep_c)} graphs")


def test_criterion_13_graph_consistency(sweep_c):
    for h in sweep_c:
        assert tutte_check(h)
    trees_checked = 0
    for h in sweep_c:
        for tree in h.spanning_trees():
            assert graph_specialization_check(h, tree)
            trees_checked += 1
    fx = tour_example()
    assert tuple(fx.graph.tour_pairs(fx.value("tree"))) == fx.value("tour_pairs")
    assert graph_specialization_check(fx.graph, fx.value("tree"))
    report(13, f"Tutte identity on {len(sweep_c)} graphs; induced orders "
               f"equal the tree-tour order for {trees_checked} trees, "
               "including the documented tour verbatim")


def test_criterion_14_composition_theorems(bundles):
    checked = 0
    for b in bundles:
        rev = b.g.reversed_setup()
        rev_runs = {variant: [run_bernardi(rev, f, variant) for f in family]
                    for variant, family in ((HT_E_CUT_E, b.b_e), (HT_V_CUT_E, b.b_v))}
        assert all(check_composition(b.g, b.runs, rev_runs).values()), b.g.base_node
        checked += len(b.b_e)
    report(14, f"all three composition identities hold for {checked} "
               "hypertrees across the sweep")


def test_criterion_15_conjecture_fuzz():
    rep = fuzz_conjectures(range(N_FUZZ), 4, 10)
    summary = rep.checks[-1]
    assert summary["instances"] == N_FUZZ
    # a genuine counterexample would be flagged, not failed; none expected
    assert not rep.failed
    assert summary["flagged"] == 0, rep.checks
    report(15, f"{N_FUZZ} seeded instances, zero conjecture counterexamples")
