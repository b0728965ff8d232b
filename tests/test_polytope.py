"""Exact root-polytope geometry: markers, dissections, shellings, Ehrhart."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbernardi import graph, polytope
from hyperbernardi.campaign import (EHRHART_EDGE_LIMIT, EHRHART_NODE_LIMIT,
                                   LATTICE_SCAN_EDGE_LIMIT, campaign_verify_all)
from hyperbernardi.docio import serialize_graph
from hyperbernardi.exactla import det_bareiss
from hyperbernardi.fixtures import REGISTRY, c4, noncrossing_setup
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import EMERALD, VIOLET, RibbonBipartiteGraph, bip
from hyperbernardi.hypertree import (Poly, enumerate_hypertrees,
                                     interior_polynomial)
from hyperbernardi.jaeger import VCUT, _base_cuts, enumerate_jaeger_trees, shelling
from hyperbernardi.polytope import (TreeSimplex, _cover_rule, _facet_table,
                                    ehrhart_fit, ehrhart_values,
                                    ehrhart_values_scan,
                                    fit_binomial_coefficients,
                                    geometric_shelling_check, is_simple,
                                    kato_series_check,
                                    normalized_simplex_volume, scaled_marker,
                                    shelling_h_vector, verify_dissection)
from oracles import (barycentric, certify_disjoint_interiors, contains,
                     cut_values, ehrhart_by_hall, ehrhart_by_sets,
                     ehrhart_by_tree_scan, ehrhart_by_tuples, facet_cover_status,
                     fraction_scan, holds_scaled, intersection_is_common_face, marker,
                     marker_placement, separates, solve_exact, trees_compatible,
                     vertex_point)


def test_marker_values_c4(c4_fixture):
    g = c4_fixture.graph
    p = marker(g, {"e1": 1, "e2": 0}, EMERALD)
    # coordinates in sorted node order e1, e2, v1, v2
    assert p == (Fraction(3, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))


def test_marker_coordinate_sums(running_fixture):
    g = running_fixture.graph
    idx = {x: i for i, x in enumerate(g.nodes)}
    markers = [marker(g, f, EMERALD) for f in enumerate_hypertrees(g, EMERALD)]
    assert len(set(markers)) == 7
    for p in markers:
        assert sum(p[idx[x]] for x in g.emeralds) == 1
        assert sum(p[idx[x]] for x in g.violets) == 1


def test_marker_inside_own_simplex(c4_fixture, running_fixture):
    for g in (c4_fixture.graph, running_fixture.graph):
        for tree in g.spanning_trees():
            f = g.degree_vector(tree, EMERALD)
            assert contains(TreeSimplex(g, tree), marker(g, f, EMERALD), strict=True)
            fv = g.degree_vector(tree, VIOLET)
            assert contains(TreeSimplex(g, tree), marker(g, fv, VIOLET), strict=True)


def test_marker_inside_iff_realized(c4_fixture, running_fixture):
    """The lemma behind the dissection's marker peel: a hypertree's
    marker lies strictly inside the simplex of a spanning tree exactly
    when the tree realizes the hypertree, on either side."""
    graphs = [c4_fixture.graph, running_fixture.graph, noncrossing_setup(2, 3)]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(30)]
    graphs += [bip(random_ordinary(seed, 4, 6)) for seed in range(20)]
    held = realized = 0
    for g in filter(is_simple, graphs):
        families = {side: enumerate_hypertrees(g, side) for side in (EMERALD, VIOLET)}
        for tree in g.spanning_trees():
            simplex = TreeSimplex(g, tree)
            for side, family in families.items():
                own = g.degree_vector(tree, side)
                for f in family:
                    inside = contains(simplex, marker(g, f, side), strict=True)
                    assert inside == (own == f), (serialize_graph(g), sorted(tree), f)
                    held += inside
                    realized += own == f
    assert held == realized > 1000


def test_vertex_on_boundary(c4_fixture):
    g = c4_fixture.graph
    t = frozenset({"c1", "c2", "c4"})
    p = vertex_point(g, "c1")
    assert contains(TreeSimplex(g, t), p, strict=False)
    assert not contains(TreeSimplex(g, t), p, strict=True)


def test_trees_compatible(knot_fixture, k5_fixture):
    g = knot_fixture.graph
    trees = knot_fixture.value("vcut_jaeger_violet_order")
    i, j = knot_fixture.value("incompatible_pair")
    assert not trees_compatible(g, trees[i], trees[j])
    assert trees_compatible(g, trees[0], trees[0])
    from hyperbernardi.graph import bip
    from hyperbernardi.jaeger import is_jaeger_tree
    bk = bip(k5_fixture.graph)
    ta = k5_fixture.value("tree_a")
    tb = k5_fixture.value("tree_b")
    assert is_jaeger_tree(bk, ta, VCUT) and is_jaeger_tree(bk, tb, VCUT)
    assert not trees_compatible(bk, ta, tb)


def test_compatibility_matches_geometry(c4_fixture):
    g = c4_fixture.graph
    for t1, t2 in combinations(g.spanning_trees(), 2):
        assert trees_compatible(g, t1, t2) == \
            intersection_is_common_face(g, t1, t2)


def test_compatibility_matches_geometry_random():
    answers = []
    for seed in range(6):
        g = random_bipartite(seed, 3, 3, 7)
        trees = list(g.spanning_trees())
        for t1, t2 in combinations(trees, 2):
            answers.append(trees_compatible(g, t1, t2))
            assert answers[-1] == \
                intersection_is_common_face(g, t1, t2), (seed, sorted(t1), sorted(t2))
    assert set(answers) == {False, True}  # both answers occur


def test_dissection_verdicts(knot_fixture, c4_fixture):
    g = knot_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    rep = verify_dissection(g, shelling(g, trees))
    assert rep["is_dissection"]
    assert not rep["is_triangulation"]
    assert rep["interiors_disjoint_certified"]

    c = c4_fixture.graph
    rep = verify_dissection(c, shelling(c, enumerate_jaeger_trees(c, VCUT)))
    assert rep["is_dissection"] and rep["is_triangulation"]


def test_facet_sides_match_barycentric_signs(c4_fixture, running_fixture):
    """Over all spanning trees, the facet table, built from the cut tables
    alone, holds each tree once in the group of each forest T - e, and
    puts T - e + e' across the facet conv(T - e) exactly when the vertex
    of e' has a negative e-coordinate in the barycentric coordinates of
    T's simplex, on T's side when it has a positive one; the facet is
    interior (both halves of its cut non-empty) exactly when some vertex
    of Q_G has a negative e-coordinate."""
    graphs = [c4_fixture.graph, running_fixture.graph]
    graphs += [random_bipartite(seed, 4, 4, 8) for seed in range(20)]
    facets_seen = 0
    for g in graphs:
        trees = list(g.spanning_trees())
        position = {t: k for k, t in enumerate(trees)}
        records = [SimpleNamespace(mask=g._edge_mask(t), cuts=_base_cuts(g, t))
                   for t in trees]
        table = _facet_table(g, records)
        assert sorted((k, g.edge_ids[j]) for forests in table.values()
                      for group in forests.values() for j, k, _ in group) == [
            (k, e) for k, t in enumerate(trees) for e in sorted(t)]
        for k, (tree, record) in enumerate(zip(trees, records)):
            simplex = TreeSimplex(g, tree)
            for eps, (violet_in, emerald_in) in record.cuts.items():
                group = table[violet_in | emerald_in][record.mask ^ g._edge_mask({eps})]
                (side,) = [s for _, p, s in group if p == k]
                assert side == bool(violet_in & g._edge_mask({eps}))
                j = simplex.tree_edges.index(eps)
                coordinate = {e: barycentric(simplex, vertex_point(g, e))[j]
                              for e in g.edge_ids}
                across, beside = set(), set()
                for e in g.edge_ids:
                    if e in tree:
                        continue
                    other = tree - {eps} | {e}
                    if coordinate[e] == 0:
                        assert other not in position
                        continue
                    (across if coordinate[e] < 0 else beside).add(position[other])
                assert ({p for _, p, s in group if s != side},
                        {p for _, p, s in group if s == side and p != k}) == (across, beside)
                assert len(group) == 1 + len(across) + len(beside)
                assert bool(violet_in and emerald_in) == any(c < 0 for c in coordinate.values())
                facets_seen += 1
    assert facets_seen > 800


def facet_witnesses(g, trees) -> list[dict]:
    """The facet witnesses of ``verify_dissection`` on the shelling
    record of ``trees``, in order."""
    rep = verify_dissection(g, shelling(g, trees))
    return [w for w in rep["witnesses"] if w["kind"] == "facet"]


def locally_matched(g, trees) -> bool:
    """The facet rule: one tree across every interior facet, none across
    a boundary facet, none beside any; so no facet witness."""
    return not facet_witnesses(g, trees)


def test_triangulation_equals_pairwise_oracle(knot_fixture, c4_fixture,
                                              running_fixture):
    """The facet-table verdict equals counts, markers and Postnikov's
    pairwise compatibility on every instance; among them are dissections
    that do not triangulate (the knot setup, rb4x4-10/12, subdivisions)."""
    graphs = [knot_fixture.graph, c4_fixture.graph, running_fixture.graph,
              random_bipartite(12, 4, 4, 10)]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(20)]
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(20)]
    verdicts = []
    for g in graphs:
        if len(set(g.edges.values())) != len(g.edge_ids):
            continue
        trees = enumerate_jaeger_trees(g, VCUT)
        rep = verify_dissection(g, shelling(g, trees))
        pairwise = all(trees_compatible(g, a, b) for a, b in combinations(trees, 2))
        assert rep["is_triangulation"] == (
            rep["counts_match"] and rep["markers_in_unique_simplex"] and pairwise), \
            serialize_graph(g)
        assert locally_matched(g, trees) == pairwise
        unmatched = [w for w in rep["witnesses"] if w["kind"] == "facet"]
        assert bool(unmatched) != pairwise
        verdicts.append((rep["is_dissection"], rep["is_triangulation"]))
    assert verdicts[0] == (True, False) and verdicts[3] == (True, False)
    assert set(verdicts) == {(True, True), (True, False)}
    assert verdicts.count((True, False)) >= 5


def test_swapped_tree_fails_facet_check(c4_fixture, running_fixture):
    """Swapping one Jaeger tree of a triangulation for any other spanning
    tree leaves some interior facet unmatched or doubled."""
    graphs = [c4_fixture.graph, running_fixture.graph]
    graphs += [random_bipartite(seed, 5, 5, 14) for seed in range(40)]
    swaps = 0
    for g in graphs:
        trees = enumerate_jaeger_trees(g, VCUT)
        if not locally_matched(g, trees):
            continue
        jaeger = set(trees)
        others = [t for t in g.spanning_trees() if t not in jaeger]
        for k in range(len(trees)):
            for other in others[k::len(trees)][:5]:
                swapped = trees[:k] + [other] + trees[k + 1:]
                assert not locally_matched(g, swapped), (serialize_graph(g), k)
                swaps += 1
        if others:
            swapped = [others[0]] + trees[1:]
            rep = verify_dissection(g, shelling(g, swapped))
            assert not rep["is_triangulation"]
            assert any(w["kind"] == "facet" for w in rep["witnesses"])
    assert swaps > 200


def test_dissection_missing_tree_witness(knot_fixture):
    g = knot_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)[:-1]
    rep = verify_dissection(g, shelling(g, trees))
    assert not rep["is_dissection"]
    assert not rep["counts_match"]
    uncovered = [w for w in rep["witnesses"]
                 if w["kind"] == "marker" and w["strictly_inside"] == []]
    assert uncovered


def test_shelling_h_vectors(knot_fixture, c4_fixture, single_edge_fixture):
    g = knot_fixture.graph
    assert shelling_h_vector(shelling(g, enumerate_jaeger_trees(g, VCUT))) == (1, 3, 3)
    c = c4_fixture.graph
    assert shelling_h_vector(shelling(c, enumerate_jaeger_trees(c, VCUT))) == (1, 1)
    s = single_edge_fixture.graph
    assert shelling_h_vector(shelling(s, enumerate_jaeger_trees(s, VCUT))) == (1,)


def test_geometric_shelling(c4_fixture, running_fixture):
    c = c4_fixture.graph
    rep = geometric_shelling_check(c, shelling(c, enumerate_jaeger_trees(c, VCUT)))
    assert rep["ok"], rep["failures"]
    # nine edges: beyond the acceptance bound but still tractable here
    g = running_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    rep = geometric_shelling_check(g, shelling(g, trees))
    assert rep["ok"], rep["failures"]
    # reversed, the divergence edges lie in the earlier trees and the
    # first tree has facets that nothing covers
    steps = shelling(g, trees[::-1])
    rep = geometric_shelling_check(g, steps)
    assert {f["kind"] for f in rep["failures"]} == {"divergence-side", "uncovered-facet",
                                                    "active-facet-hit"}
    with pytest.raises(AssertionError, match="first tree"):
        shelling_h_vector(steps)


def test_tampered_records_fail_certificates(running_fixture):
    """A divergence edge whose functional does not separate the pair
    fails the dissection's and the shelling's certificates; a tree whose
    semi-passive edges are dropped has active facets at its divergences."""
    g = running_fixture.graph
    steps = shelling(g, enumerate_jaeger_trees(g, VCUT))
    divergences = list(steps[5].divergences)
    assert divergences[1] == "e0v0"
    assert not certify_disjoint_interiors(g, steps[1].tree, steps[5].tree, "e3v0")
    divergences[1] = "e3v0"
    steps[5] = replace(steps[5], divergences=tuple(divergences))
    rep = verify_dissection(g, steps)
    assert rep["interiors_disjoint_certified"] is False and not rep["is_dissection"]
    assert [w["divergence"] for w in rep["witnesses"]] == ["e3v0"]
    rep = geometric_shelling_check(g, steps)
    assert "separation-failed" in {f["kind"] for f in rep["failures"]}
    steps = shelling(g, enumerate_jaeger_trees(g, VCUT))
    steps[6] = replace(steps[6], semi_passive=frozenset())
    rep = geometric_shelling_check(g, steps)
    assert {(f["kind"], f["edge"]) for f in rep["failures"]} == {
        ("active-facet-hit", e) for e in steps[6].divergences}


def simple_instances(knot, c4, running):
    graphs = [knot, c4, running]
    graphs += [random_bipartite(seed, 4, 4, 10) for seed in range(30)]
    graphs += [bip(random_ordinary(seed, 5, 8)) for seed in range(20)]
    return [g for g in graphs if len(set(g.edges.values())) == len(g.edge_ids)]


def test_own_simplex_markers_equal_all_simplices(knot_fixture, c4_fixture,
                                                 running_fixture):
    """``markers_in_unique_simplex`` says that every marker lies strictly
    inside exactly one simplex of the list: the verdict and the marker
    witnesses are those of peeling every marker on every simplex,
    whether or not the list's pairs are certified.  Lists: the V-cut
    Jaeger trees, one of them missing (its markers lie in no simplex),
    and a spanning tree that is not Jaeger swapped in or added (its
    pairs may fail their certificates and its simplex may hold a marker
    that another simplex holds too)."""
    seen = set()
    for g in simple_instances(knot_fixture.graph, c4_fixture.graph, running_fixture.graph):
        trees = enumerate_jaeger_trees(g, VCUT)
        others = [t for t in g.spanning_trees() if t not in set(trees)][:1]
        for listed in (trees, trees[:-1], trees[1:], others + trees[1:], trees + others):
            placement = marker_placement(g, listed)
            want = [{"kind": "marker", "side": side, "hypertree": dict(f),
                     "strictly_inside": hits}
                    for side, f, hits in placement if len(hits) != 1]
            rep = verify_dissection(g, shelling(g, listed))
            assert [w for w in rep["witnesses"] if w["kind"] == "marker"] == want
            assert rep["markers_in_unique_simplex"] == (not want)
            seen.add((rep["interiors_disjoint_certified"],
                      any(len(hits) > 1 for _, _, hits in placement)))
        rep = verify_dissection(g, shelling(g, trees[:-1]))
        missing = [w for w in rep["witnesses"] if w["kind"] == "marker"]
        assert len(missing) == 2 and all(w["strictly_inside"] == [] for w in missing)
    assert seen == {(True, False), (False, True)}


def test_certified_markers_peel_one_simplex_each(monkeypatch, knot_fixture,
                                                 running_fixture):
    """On every list each marker is peeled once on each listed tree that
    realizes its hypertree, in list order, and on no other simplex: once
    on the V-cut Jaeger trees, whose pairs are all certified, never when
    its tree is missing, and twice when a tree that is not Jaeger
    realizes it too, whether or not the pairs are certified."""
    peels = []
    contains_scaled = TreeSimplex.contains_scaled

    def counting(simplex, p, scale):
        peels.append((simplex.tree_edges, p))
        return contains_scaled(simplex, p, scale)
    monkeypatch.setattr(TreeSimplex, "contains_scaled", counting)
    certified, counts = set(), set()
    for g in (knot_fixture.graph, running_fixture.graph):
        trees = enumerate_jaeger_trees(g, VCUT)
        others = [t for t in g.spanning_trees() if t not in set(trees)][:1]
        for listed in (trees, trees[:-1], trees + others, others + trees[1:]):
            peels.clear()
            rep = verify_dissection(g, shelling(g, listed))
            certified.add(rep["interiors_disjoint_certified"])
            want = [(tuple(sorted(t)), scaled_marker(g, f, side))
                    for side in (EMERALD, VIOLET) for f in enumerate_hypertrees(g, side)
                    for t in listed if g.degree_vector(t, side) == f]
            assert peels == want
            markers = [p for _, p in want]
            counts |= {markers.count(p) for p in markers}
    assert certified == {True, False} and counts == {1, 2}


def test_mask_certificates_equal_functional(c4_fixture, running_fixture):
    """The bitmask certificate equals the certificate read off the +/-1
    cut functional, on every ordered pair of spanning trees and every
    edge of the later one; the cut table's halves are where that
    functional is 2 and -2."""
    from hyperbernardi.jaeger import _base_cuts, _halves
    graphs = [c4_fixture.graph, running_fixture.graph]
    graphs += [random_bipartite(seed, 3, 3, 7) for seed in range(4)]
    answers = []
    for g in graphs:
        trees = list(g.spanning_trees())
        values = {t: cut_values(g, t) for t in trees}
        for later in trees:
            for eps, cut in _base_cuts(g, later).items():
                own, other = _halves(cut, 1 << g._edge_index[eps])
                assert own == g._edge_mask(f for f, v in values[later][eps].items() if v == 2)
                assert other == g._edge_mask(f for f, v in values[later][eps].items() if v == -2)
            for earlier in trees:
                if earlier != later:
                    for eps in later:
                        answers.append(certify_disjoint_interiors(g, earlier, later, eps))
                        assert answers[-1] == separates(values[later][eps], earlier, later, eps)
    assert set(answers) == {False, True} and len(answers) > 10000


def test_pair_witnesses_equal_functional(knot_fixture, c4_fixture, running_fixture):
    """The dissection's certificates fail exactly the pairs whose
    functional does not separate them, oriented by the tree that holds
    the divergence edge: on Jaeger trees in violet order, shuffled, and
    with a spanning tree that is not Jaeger swapped in."""
    rng = random.Random(5)
    verdicts = set()
    for g in simple_instances(knot_fixture.graph, c4_fixture.graph, running_fixture.graph):
        trees = enumerate_jaeger_trees(g, VCUT)
        others = [t for t in g.spanning_trees() if t not in set(trees)]
        lists = [trees, rng.sample(trees, len(trees))]
        lists += [trees[:k] + [t] + trees[k + 1:]
                  for k, t in zip(range(len(trees)), others[::7][:3])]
        for listed in lists:
            steps = shelling(g, listed)
            want = []
            for j, step in enumerate(steps):
                for i, eps in enumerate(step.divergences):
                    earlier, later = (listed[i], listed[j]) if eps in listed[j] else (
                        listed[j], listed[i])
                    if not separates(cut_values(g, later)[eps], earlier, later, eps):
                        want.append({"kind": "pair", "trees": [sorted(earlier), sorted(later)],
                                     "divergence": eps})
            rep = verify_dissection(g, steps)
            assert [w for w in rep["witnesses"] if w["kind"] == "pair"] == want
            assert rep["interiors_disjoint_certified"] == (not want)
            verdicts.add(not want)
    assert verdicts == {False, True}


def test_geometric_shelling_random_small():
    checked = 0
    for seed in range(30):
        g = random_bipartite(seed, 4, 4, 8)
        if len(g.edge_ids) > 8:
            continue
        steps = shelling(g, enumerate_jaeger_trees(g, VCUT))
        rep = geometric_shelling_check(g, steps)
        assert rep["ok"], (seed, rep["failures"])
        h = shelling_h_vector(steps)
        assert h == interior_polynomial(g, EMERALD).coeffs, seed
        checked += 1
    assert checked >= 15


def test_geometric_shelling_of_a_dissection_that_is_no_triangulation():
    """The positive-circulation rule decides the shelling of a
    dissection that is not a triangulation.  There a covered facet can
    have no neighbour across it: on seed 7, semi-passive facet t2|w1 of
    trees 3 and 4 is covered by earlier simplices that do not share it,
    whose facets in its hyperplane overlap it without being equal."""
    for seed in (7, 23):
        g = bip(random_ordinary(seed, 4, 4))
        trees = enumerate_jaeger_trees(g, VCUT)
        assert (len(g.edge_ids), len(trees)) == (8, 5)
        steps = shelling(g, trees)
        rep = verify_dissection(g, steps)
        assert rep["is_dissection"] and not rep["is_triangulation"], seed
        shelled = geometric_shelling_check(g, steps)
        assert shelled["ok"], (seed, shelled["failures"])
        assert shelling_h_vector(steps) == interior_polynomial(g, EMERALD).coeffs
        if seed == 7:
            # a witness with nothing across is an interior facet
            lonely = [w for w in rep["witnesses"] if w["kind"] == "facet"
                      and w["edge"] == "t2|w1" and w["tree"] in (3, 4)]
            assert len(lonely) == 2
            for w in lonely:
                assert w["edge"] in steps[w["tree"]].semi_passive
                assert w["across"] == [] and w["beside"] == []


def test_cover_rule_equals_fraction_oracle():
    """The positive-circulation rule gives the coverage that the Fraction
    splitting of ``oracles.facet_cover_status`` finds, on every facet of
    every tree against the trees before it, for Jaeger lists in violet
    order, reversed and shuffled; some of those dissections are not
    triangulations."""
    graphs = [random_bipartite(s, 4, 4, 10) for s in range(80)]
    graphs += [bip(random_ordinary(s, 4, 4)) for s in range(40)]
    graphs += [random_bipartite(s, 5, 5, 16) for s in (0, 5, 9)]  # ladder rb5x5-16
    seen, untriangulated = Counter(), 0
    for seed, g in enumerate(g for g in graphs if is_simple(g)):
        trees = enumerate_jaeger_trees(g, VCUT)
        untriangulated += not locally_matched(g, trees)
        for order in (trees, trees[::-1], random.Random(seed).sample(trees, len(trees))):
            steps = shelling(g, order)
            cover = _cover_rule(g, steps)
            simplices = [TreeSimplex(g, s.tree) for s in steps]
            for i, step in enumerate(steps):
                for e in sorted(step.tree):
                    facet = [vertex_point(g, x) for x in sorted(step.tree - {e})]
                    status = cover(i, e)
                    assert status == facet_cover_status(facet, simplices[:i]), (seed, i, e)
                    seen[status] += 1
    assert set(seen) == {"covered", "disjoint", "mixed"}, seen
    assert untriangulated == 10


def test_facet_coverage_needs_a_dissection(running_fixture):
    """Facet coverage is decided on a dissection only.  Without its first
    Jaeger tree the list keeps every pair certificate but has too few
    trees, and a tampered divergence fails a certificate: either report
    has one ``not-a-dissection`` failure and decides no facet, though
    the first of the short list has semi-passive facets."""
    g = running_fixture.graph
    trees = enumerate_jaeger_trees(g, VCUT)
    steps = shelling(g, trees[1:])
    assert steps[0].semi_passive
    dis = verify_dissection(g, steps)
    assert dis["interiors_disjoint_certified"] and not dis["counts_match"]
    assert geometric_shelling_check(g, steps)["failures"] == [{"kind": "not-a-dissection"}]
    steps = shelling(g, trees)
    assert geometric_shelling_check(g, steps) == {"ok": True, "failures": []}
    divergences = list(steps[5].divergences)
    divergences[1] = "e3v0"
    steps[5] = replace(steps[5], divergences=tuple(divergences))
    failures = geometric_shelling_check(g, steps)["failures"]
    assert failures[0] == {"kind": "not-a-dissection"}
    assert {f["kind"] for f in failures[1:]} == {"separation-failed"}


@pytest.mark.parametrize("name", ["k5", "tour-example", "matching-example"])
def test_geometry_rejects_graphs_that_are_not_bipartite(name):
    """Every geometry entry that takes a graph refuses one that is not
    bipartite with the guard's ``ValueError``; ``TreeSimplex`` and
    ``scaled_marker`` are the primitives those entries call."""
    g = REGISTRY[name]().graph
    tree = next(g.spanning_trees())
    entries = [lambda: verify_dissection(g, []),
               lambda: geometric_shelling_check(g, []),
               lambda: certify_disjoint_interiors(g, tree, tree, min(tree)),
               lambda: normalized_simplex_volume(g, tree),
               lambda: ehrhart_values(g, 2),
               lambda: ehrhart_values_scan(g, 2),
               lambda: kato_series_check((1,), g, 2)]
    for entry in entries:
        with pytest.raises(ValueError, match="simple bipartite"):
            entry()


def test_equal_simplex_volumes(running_fixture):
    g = running_fixture.graph
    assert {normalized_simplex_volume(g, t) for t in g.spanning_trees()} == {1}


def geometry_graphs(c4_fixture, running_fixture, knot_fixture):
    graphs = [c4_fixture.graph, running_fixture.graph, knot_fixture.graph]
    return graphs + [random_bipartite(seed, 3, 4, 8) for seed in range(6)]


def test_peeled_barycentric_equals_exact_solve(c4_fixture, running_fixture,
                                               knot_fixture):
    for g in geometry_graphs(c4_fixture, running_fixture, knot_fixture):
        points = [vertex_point(g, e) for e in g.edge_ids]
        points += [marker(g, f, side) for side in (EMERALD, VIOLET)
                   for f in enumerate_hypertrees(g, side)]
        off_hull = [tuple(2 * c for c in points[0]),  # coordinates sum to 2
                    tuple(Fraction(int(i == 0)) for i in range(len(g.nodes)))]
        for tree in g.spanning_trees():
            simplex = TreeSimplex(g, tree)
            rows = [[vertex_point(g, e)[i] for e in simplex.tree_edges]
                    for i in range(len(g.nodes))]
            rows.append([Fraction(1)] * len(simplex.tree_edges))
            for p in points + off_hull:
                want = solve_exact(rows, list(p) + [Fraction(1)])
                assert barycentric(simplex, p) == want, (sorted(tree), p)
            for p in off_hull:
                assert barycentric(simplex, p) is None


def fraction_det(rows):
    """Reference determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_scaled_marker_hits_equal_fraction_containment(c4_fixture, running_fixture,
                                                       knot_fixture):
    """Integer peeling of points scaled by |E||V| answers containment,
    strict (``contains_scaled``) and not (the oracles' ``holds_scaled``),
    as the Fraction peeling does, on every spanning tree: markers
    (interior points), vertices (boundary points), and markers doubled
    or nudged at one node (off the affine hull)."""
    answers = {kind: set() for kind in ("marker", "vertex", "off-hull")}
    for g in geometry_graphs(c4_fixture, running_fixture, knot_fixture):
        scale = len(g.emeralds) * len(g.violets)
        points = []
        for side in (EMERALD, VIOLET):
            for f in enumerate_hypertrees(g, side):
                p, q = scaled_marker(g, f, side), marker(g, f, side)
                nudged = (p[0] + 1,) + p[1:]
                points += [("marker", p, q),
                           ("off-hull", tuple(2 * c for c in p), tuple(2 * c for c in q)),
                           ("off-hull", nudged, tuple(Fraction(c, scale) for c in nudged))]
        # a one-edge simplex is a point, its own relative interior
        kind = "vertex" if len(g.edge_ids) > 1 else "marker"
        for e in g.edge_ids:
            q = vertex_point(g, e)
            points.append((kind, tuple(int(scale * c) for c in q), q))
        simplices = [TreeSimplex(g, t) for t in g.spanning_trees()]
        for kind, p, q in points:
            hits = {}
            for strict, peel in ((True, TreeSimplex.contains_scaled), (False, holds_scaled)):
                hits[strict] = [i for i, s in enumerate(simplices) if peel(s, p, scale)]
                assert hits[strict] == [i for i, s in enumerate(simplices)
                                        if contains(s, q, strict)], (kind, p, strict)
            answers[kind].add((len(hits[True]), len(hits[False]) > 0))
    # markers lie strictly inside some simplex, vertices only on the
    # boundary of those holding them, off-hull points in none
    assert all(strict > 0 and closed for strict, closed in answers["marker"])
    assert answers["vertex"] == {(0, True)}
    assert answers["off-hull"] == {(0, False)}


def chart_volume(g, edges):
    """Reference volume: the Fraction determinant of the edge-difference
    matrix in the chart that drops the first emerald and violet."""
    idx = {x: i for i, x in enumerate(g.nodes)}
    drop = {idx[g.emeralds[0]], idx[g.violets[0]]}
    cols = [i for i in range(len(g.nodes)) if i not in drop]
    verts = [vertex_point(g, e) for e in sorted(edges)]
    return abs(fraction_det([[v[c] - verts[0][c] for c in cols] for v in verts[1:]]))


def test_integer_volume_equals_fraction_determinant(c4_fixture, running_fixture,
                                                    knot_fixture):
    """Every (n-1)-edge set: a spanning tree gives its normalized volume,
    a set with a cycle gives 0, by both determinants."""
    answers = set()
    for g in geometry_graphs(c4_fixture, running_fixture, knot_fixture):
        for edges in combinations(g.edge_ids, len(g.nodes) - 1):
            vol = normalized_simplex_volume(g, frozenset(edges))
            assert vol == chart_volume(g, edges), edges
            assert vol == (1 if g.is_spanning_tree(frozenset(edges)) else 0)
            answers.add(vol)
    assert answers == {0, 1}


def test_volume_rejects_wrong_size(c4_fixture):
    """An edge set of any size but |V|-1 spans no full-dimensional
    simplex, so it has no normalized volume."""
    g = c4_fixture.graph
    for size in (0, 2, len(g.edge_ids)):
        with pytest.raises(ValueError):
            normalized_simplex_volume(g, frozenset(g.edge_ids[:size]))


def incidence_volume(g, edges):
    """Reference volume: |det_bareiss| of the incidence rows with the
    first violet's coordinate dropped, in the given edge order."""
    cols = [x for x in g.nodes if x != g.violets[0]]
    return abs(det_bareiss([[int(x in g.edges[e]) for x in cols] for e in edges]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_volume_equals_incidence_determinant_drawn(seed, data):
    """Random (n-1)-edge sets of drawn instances, spanning trees and
    sets with a cycle (hence disconnected) alike."""
    g = random_bipartite(seed, 4, 4, 10)
    assert len(set(g.edges.values())) == len(g.edge_ids)  # simple
    for _ in range(8):
        edges = data.draw(st.permutations(g.edge_ids))[:len(g.nodes) - 1]
        vol = normalized_simplex_volume(g, frozenset(edges))
        assert vol == incidence_volume(g, edges), edges
        assert vol == int(g.is_spanning_tree(frozenset(edges)))


def test_det_bareiss_equals_fraction_determinant():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 3)) for _ in range(n)]
                for _ in range(n)]
        assert det_bareiss(rows) == fraction_det(rows), rows


def test_packed_ehrhart_equals_tuple_dilates(c4_fixture, running_fixture):
    graphs = [running_fixture.graph, noncrossing_setup(2, 2), random_bipartite(24, 5, 5, 10)]
    assert [len(g.nodes) for g in graphs] == [7, 6, 9]
    for g in graphs:
        for kmax in (1, 2, len(g.nodes) - 2 + 5):
            assert ehrhart_values(g, kmax) == ehrhart_by_tuples(g, kmax), kmax
    values = ehrhart_values(c4_fixture.graph, 20)
    assert values == ehrhart_by_tuples(c4_fixture.graph, 20)
    assert ehrhart_values_scan(c4_fixture.graph, 6) == values[:7]


# the seeded shapes of the Ehrhart comparisons: random_bipartite's
# (max emeralds, max violets, max edges), inside the campaign's gate
EHRHART_SHAPES = [(5, 5, 10), (4, 5, 10), (3, 6, 10), (2, 7, 9), (4, 4, 8), (5, 4, 9)]


def ehrhart_eligible(g) -> bool:
    return (is_simple(g) and len(g.edge_ids) <= EHRHART_EDGE_LIMIT
            and len(g.nodes) <= EHRHART_NODE_LIMIT)


def test_block_ehrhart_equals_point_sets(monkeypatch):
    """The bitmap blocks count every dilate up to d + 5 as the per-point
    sets do, on the bipartite fixtures, the other ladder instances
    inside the campaign's Ehrhart gate and 300 seeded instances, at the
    sweep's block width and with blocks of 2^8 and 2^4 bits, where small
    graphs too split their coordinates between the key and the bitmap."""
    ladder = [noncrossing_setup(m, n) for m, n in ((2, 2), (2, 3), (3, 3), (3, 4))]
    ladder += [random_bipartite(s, 5, 5, 16) for s in range(10)]
    ladder = [g for g in ladder if ehrhart_eligible(g)]
    assert len(ladder) == 8
    seeded = [random_bipartite(s, *shape) for shape in EHRHART_SHAPES for s in range(50)]
    seeded = [g for g in seeded if ehrhart_eligible(g)]
    assert len(seeded) == 300
    fixtures = [f().graph for f in REGISTRY.values()]
    graphs = [g for g in fixtures if g.bipartite] + ladder + seeded
    widths = (graph.SWEEP_BLOCK, 1 << 8, 1 << 4)
    for g in graphs:
        kmax = len(g.nodes) - 2 + 5
        want = ehrhart_by_sets(g, kmax)
        for block in widths:
            monkeypatch.setattr(graph, "SWEEP_BLOCK", block)
            assert ehrhart_values(g, kmax) == want, (block, sorted(g.edges.values()))


def test_ehrhart_closed_form_complete_bipartite():
    """On the two-line setup of K_{m+1,n+1} the k-th dilate has
    C(k+m, m) * C(k+n, n) points (Kalman and Postnikov 2017): up to
    d + 5 on K2,2..K5,5 and their rectangular neighbours, and up to d on
    K6,6 (9,018,009 points at the top dilate)."""
    cases = [(m, n, m + n + 5) for m in range(1, 5) for n in range(m, min(m + 2, 5))]
    cases.append((5, 5, 10))
    for m, n, kmax in cases:
        assert ehrhart_values(noncrossing_setup(m, n), kmax) == \
            [comb(k + m, m) * comb(k + n, n) for k in range(kmax + 1)], (m, n)


def test_ehrhart_equals_hall_count():
    """Gale's supply-demand count, which needs no trees and no edge
    multisets, gives the bitmap blocks' counts up to d + 1 on 40 seeded
    instances."""
    graphs = [random_bipartite(s, *shape) for s in range(7) for shape in EHRHART_SHAPES]
    for g in graphs[:40]:
        kmax = len(g.nodes) - 2 + 1
        assert ehrhart_values(g, kmax) == ehrhart_by_hall(g, kmax), sorted(g.edges.values())


def test_ehrhart_rejects_negative_kmax(c4_fixture):
    assert ehrhart_values(c4_fixture.graph, 0) == [1]
    with pytest.raises(ValueError, match="nonnegative"):
        ehrhart_values(c4_fixture.graph, -3)


def test_ehrhart_c4(c4_fixture):
    g = c4_fixture.graph
    values = ehrhart_values(g, 4)
    assert values[:3] == [1, 4, 9]
    assert ehrhart_values_scan(g, 4) == values
    assert fit_binomial_coefficients(values, 2) == (1, 1, 0)


def test_ehrhart_running(running_fixture):
    g = running_fixture.graph
    values = ehrhart_values(g, 8)
    assert values[0] == 1
    assert fit_binomial_coefficients(values, 5) == (1, 3, 3, 0, 0, 0)


def lattice_ladder():
    """The ladder instances inside the campaign's lattice-oracle gate:
    c4 and five of the ten ``random_bipartite(s, 5, 5, 16)``."""
    small = [random_bipartite(s, 5, 5, 16) for s in range(10)]
    small = [g for g in small if len(g.edge_ids) <= LATTICE_SCAN_EDGE_LIMIT]
    assert len(small) == 5
    return [c4().graph] + small


def test_integer_scan_equals_fraction_scan(c4_fixture, running_fixture):
    """The integer tree scan, the Fraction scan and the packed dilate
    count agree on c4, the running example, the process example (whose
    node names interleave the two color classes), the two-line K3,3 and
    the ladder's random instances small enough for the campaign's
    lattice oracle."""
    cases = [(c4_fixture.graph, 4), (running_fixture.graph, 3),
             (REGISTRY["process-example"]().graph, 3), (noncrossing_setup(2, 2), 6)]
    cases += [(g, len(g.nodes)) for g in lattice_ladder()[1:]]  # kmax = d + 2
    for g, kmax in cases:
        scan = ehrhart_by_tree_scan(g, kmax)
        assert scan == fraction_scan(g, kmax) == ehrhart_values(g, kmax), sorted(g.edges)


def test_ehrhart_scan_oracle_random():
    for seed in (1, 3, 8):
        g = random_bipartite(seed, 3, 3, 6)
        d = len(g.nodes) - 2
        values = ehrhart_values(g, d + 2)
        assert ehrhart_values_scan(g, d + 2) == values, seed


def test_lattice_oracle_equals_every_count():
    """Gale's bitset count (``ehrhart_values_scan``) equals the tree
    scan, the packed dilates and the subset-by-subset Hall count at
    d + 2 and d + 5 on the ladder's six gated instances and every
    bipartite fixture, and the Fraction scan at d + 2 on those with at
    most 6 nodes (the 7-node fixtures take seconds each there; the
    Fraction test above scans them to dilate 3)."""
    fixtures = [f().graph for f in REGISTRY.values()]
    graphs = lattice_ladder() + [g for g in fixtures if g.bipartite]
    assert len(graphs) == 12
    for g in graphs:
        d = len(g.nodes) - 2
        gale = ehrhart_values_scan(g, d + 5)
        assert gale == ehrhart_values(g, d + 5) == ehrhart_by_hall(g, d + 5), sorted(g.edges)
        assert gale[:d + 3] == ehrhart_by_tree_scan(g, d + 2), sorted(g.edges)
        if len(g.nodes) <= 6:
            assert gale[:d + 3] == fraction_scan(g, d + 2), sorted(g.edges)


# seeded random_bipartite shapes with at most 6 edges: (max emeralds,
# max violets, max edges)
LATTICE_SHAPES = [(3, 4, 6), (4, 3, 6), (2, 5, 6), (3, 3, 6), (1, 6, 6), (5, 2, 6)]


def test_lattice_oracle_seeded_both_condition_sides():
    """On 300 seeded instances with at most 6 edges, and on each one
    transposed, so that each color class serves as the smaller one or,
    at equal sizes, as the condition side: Gale's bitset count equals
    the tree scan at d + 2 and the packed dilates at d + 5, and on the
    untransposed ones the Hall count at d + 2 (which tests every subset
    of the emeralds, whatever their number)."""
    seeded = [random_bipartite(s, *shape) for shape in LATTICE_SHAPES for s in range(50)]
    assert len(seeded) == 300 and max(len(g.edge_ids) for g in seeded) == 6
    sides = set()
    for g in seeded:
        d = len(g.nodes) - 2
        assert ehrhart_values_scan(g, d + 2) == ehrhart_by_hall(g, d + 2), \
            sorted(g.edges.values())
        for h in (g, g.transpose()):
            gale = ehrhart_values_scan(h, d + 5)
            assert gale == ehrhart_values(h, d + 5), sorted(h.edges.values())
            assert gale[:d + 3] == ehrhart_by_tree_scan(h, d + 2), sorted(h.edges.values())
            sides.add(len(h.emeralds) <= len(h.violets))
    assert sides == {True, False}


def test_lattice_oracle_one_node_class():
    """With one node in a class the only condition is the whole class:
    on K1,1 and the stars K1,n and Kn,1, n <= 6, the dilates up to d + 5
    hold C(k + n - 1, n - 1) points, as the tree scan and the packed
    dilates count."""
    for n in range(1, 7):
        leaves = [f"x{i}" for i in range(n)]
        edges = {f"c{x}": ("c", x) for x in leaves}
        for emeralds, violets in ((["c"], leaves), (leaves, ["c"])):
            g = RibbonBipartiteGraph(emeralds, violets, edges, None,
                                     base_node="c", base_edge="cx0")
            kmax = n + 4  # d + 5
            want = [comb(k + n - 1, n - 1) for k in range(kmax + 1)]
            assert ehrhart_values_scan(g, kmax) == want == ehrhart_values(g, kmax)
            assert ehrhart_by_tree_scan(g, kmax) == want, (n, emeralds)


def test_lattice_oracle_keeps_binding_conditions_only(monkeypatch):
    """Gale's count tests only the binding conditions, listing the supplies
    and the demands of each once: none on the two-line complete bipartite
    setups, whose dilates are the slab, and on the path e0 - v0, e0 - v1,
    e1 - v1, e1 - v2 the two single emeralds (the pair's neighbours are
    every violet), with the count of the packed dilates and the Hall
    count there."""
    listed = []

    def counted(kmax, parts, subset):
        listed.append((parts, subset))
        return sums(kmax, parts, subset)
    sums = polytope._sums
    monkeypatch.setattr(polytope, "_sums", counted)
    for m, n in ((1, 1), (1, 4), (2, 3), (3, 3)):
        assert ehrhart_values_scan(noncrossing_setup(m, n), 4) == \
            [comb(k + m, m) * comb(k + n, n) for k in range(5)]
    assert listed == []
    path = RibbonBipartiteGraph(["e0", "e1"], ["v0", "v1", "v2"],
                                {"a": ("e0", "v0"), "b": ("e0", "v1"), "c": ("e1", "v1"),
                                 "d": ("e1", "v2")}, None, "v0", "a")
    assert ehrhart_values_scan(path, 8) == ehrhart_values(path, 8) == ehrhart_by_hall(path, 8)
    assert listed == [(2, 0b01), (2, 0b10), (3, 0b011), (3, 0b110)]


def test_lattice_oracle_builds_no_trees(monkeypatch):
    """Gale's count builds no tree simplex and calls neither the
    spanning-tree generator nor the sweep's blocks; the tree scan, run
    under the same counters, does."""
    calls = Counter()

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)
    counted(TreeSimplex, "__init__")
    for name in ("spanning_trees", "_tree_blocks"):
        counted(graph.RibbonGraph, name)
    for g in lattice_ladder():
        ehrhart_values_scan(g, len(g.nodes))
    assert calls == Counter()
    ehrhart_by_tree_scan(c4().graph, 2)
    assert calls["__init__"] == 4 and calls["spanning_trees"] == 1


def test_campaign_lattice_oracle_reads_node_order():
    """The campaign's lattice oracle counts the same points whatever the
    node names: on a ladder instance whose violet names sort before its
    emerald names the entry passes with the packed count."""
    g = lattice_ladder()[2]  # rb5x5-16/s4: 2 emeralds, 3 violets, 6 edges
    nm = {x: ("a" if x in g.violets else "z") + x for x in g.nodes}
    h = RibbonBipartiteGraph(
        [nm[x] for x in g.emeralds], [nm[x] for x in g.violets],
        {e: (nm[a], nm[b]) for e, (a, b) in g.edges.items()},
        {nm[x]: rot for x, rot in g.rotations.items()},
        base_node=nm[g.base_node], base_edge=g.base_edge)
    assert h.nodes == h.violets + h.emeralds
    [entry] = [c for c in campaign_verify_all(h).checks
               if c["name"] == "ehrhart-lattice-scan-oracle"]
    assert entry["status"] == "pass" and entry["scan"] == entry["dp"]


def test_fit_rejects_bad_values():
    with pytest.raises(AssertionError):
        fit_binomial_coefficients([1, 2, 6], 2)  # a1 = 2 - 3 < 0
    with pytest.raises(AssertionError):
        fit_binomial_coefficients([1, 4, 9], 1)  # inconsistent at k = 2
    with pytest.raises(ValueError):
        fit_binomial_coefficients([1], 2)


def test_fit_constant_values():
    assert fit_binomial_coefficients([1, 1, 1], 0) == (1,)


def test_ehrhart_fit_verdict():
    def values(coeffs, d):
        return [sum(a * comb(d + k - i, d) for i, a in enumerate(coeffs))
                for k in range(d + 3)]
    interior = Poly([1, 3, 3])
    assert ehrhart_fit(values([1, 3, 3, 0, 0, 0], 5), 5, interior) == \
        {"ok": True, "fitted": [1, 3, 3, 0, 0, 0]}
    # a nonzero coefficient past the interior polynomial, or one missing
    assert not ehrhart_fit(values([1, 3, 3, 0, 0, 1], 5), 5, interior)["ok"]
    assert not ehrhart_fit(values([1, 3, 0, 0, 0, 0], 5), 5, interior)["ok"]
    bad = ehrhart_fit([1, 2, 6], 2, Poly([1]))
    assert bad["ok"] is False and "nonnegative integer" in bad["error"]


def test_kato_series(c4_fixture, running_fixture, single_edge_fixture):
    c = c4_fixture.graph
    assert kato_series_check((1, 1), c, 10)
    s = single_edge_fixture.graph
    assert kato_series_check((1,), s, 8)
    g = running_fixture.graph
    assert kato_series_check((1, 3, 3), g, 8)
    assert not kato_series_check((1, 2, 3), g, 8)


def test_kato_series_names_a_missing_dilate(running_fixture):
    g = running_fixture.graph
    values = ehrhart_values(g, 8)
    assert kato_series_check((1, 3, 3), g, 6, values)
    with pytest.raises(ValueError, match="dilate 9"):
        kato_series_check((1, 3, 3), g, 10, values)
    with pytest.raises(ValueError, match="dilate 0"):
        kato_series_check((1, 3, 3), g, 0, [])


def test_h_vector_chain_random():
    """Combinatorial h-vector == binomial fit == interior coefficients."""
    for seed in (0, 4, 7, 11):
        g = random_bipartite(seed, 3, 4, 8)
        interior = interior_polynomial(g, EMERALD)
        trees = enumerate_jaeger_trees(g, VCUT)
        h = shelling_h_vector(shelling(g, trees))
        assert h == interior.coeffs, seed
        d = len(g.nodes) - 2
        values = ehrhart_values(g, d)
        fitted = fit_binomial_coefficients(values, d)
        assert fitted[:len(h)] == h and all(c == 0 for c in fitted[len(h):])


def test_geometry_rejects_parallel_edges():
    g = RibbonBipartiteGraph(["e"], ["v", "w"],
                             {"a": ("e", "v"), "b": ("e", "v"), "c": ("e", "w")},
                             None, "e", "a")
    with pytest.raises(ValueError, match="simple"):
        ehrhart_values(g, 2)
    with pytest.raises(ValueError, match="simple"):
        trees_compatible(g, frozenset({"a", "c"}), frozenset({"b", "c"}))
