"""Generators, campaigns, special-case correspondences, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperbernardi
from hyperbernardi import campaign
from hyperbernardi.bernardi import HT_E_CUT_V
from hyperbernardi.campaign import (arborescence_duality, campaign_verify_all,
                                    check_conjectures, fuzz_conjectures,
                                    verify_noncrossing)
from hyperbernardi.docio import GraphFormatError, parse_graph, serialize_graph
from hyperbernardi.fixtures import (Fixture, load, noncrossing_setup,
                                    running_graph, running_graph_knot_setup)
from hyperbernardi.generators import random_bipartite, random_ordinary
from hyperbernardi.graph import EMERALD, VIOLET, RibbonBipartiteGraph, bip
from hyperbernardi.jaeger import (VCUT, enumerate_jaeger_trees, semi_passive_edges,
                                  t_order)
from hyperbernardi.polytope import normalized_simplex_volume
from oracles import arborescence_duality_brute_force, bernardi_run as reference_run


def test_random_bipartite_deterministic():
    a = random_bipartite(1, 3, 3, 8)
    b = random_bipartite(1, 3, 3, 8)
    assert serialize_graph(a) == serialize_graph(b)
    assert serialize_graph(a) != serialize_graph(random_bipartite(2, 3, 3, 8))


def test_random_instances_connected():
    for seed in range(1000):
        g = random_bipartite(seed, 4, 4, 10)
        assert len(g.edge_ids) <= 10
        assert len(g.emeralds) <= 4 and len(g.violets) <= 4
        # construction is connected by design; the constructor enforces it
    for seed in range(50):
        h = random_ordinary(seed, 6, 9)
        assert len(h.edges) <= 9 and len(h.nodes) <= 6


def test_degenerate_bounds():
    g = random_bipartite(0, 1, 1, 1)
    assert len(g.edge_ids) == 1
    with pytest.raises(ValueError):
        random_bipartite(0, 3, 3, 1)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 2)])
def test_noncrossing_correspondence(m, n):
    rep = verify_noncrossing(m, n)
    assert rep["count_ok"] and rep["set_equal"] and rep["lexicographic"], rep


def test_noncrossing_setup_shape():
    g = noncrossing_setup(2, 3)
    assert len(g.emeralds) == 3 and len(g.violets) == 4
    assert g.base_node == "a0" and g.base_edge == "a0b3"


def test_arborescence_duality_examples(running_fixture, c4_fixture):
    rep = arborescence_duality(running_fixture.graph)
    assert rep["equal"] and rep["arborescences"] == 7
    # the cycle: both faces work, two trees each
    for r0 in (0, 1):
        rep = arborescence_duality(c4_fixture.graph, r0)
        assert rep["equal"] and rep["arborescences"] == 2


def test_arborescence_duality_tree_graph():
    g = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                             {"a": ("e0", "v0"), "b": ("e0", "v1")}, None,
                             base_node="v0", base_edge="a")
    rep = arborescence_duality(g)
    assert rep["equal"] and rep["arborescences"] == 1


def test_arborescence_duality_equals_brute_force(monkeypatch,
                                                 running_fixture, c4_fixture,
                                                 tour_fixture, matching_fixture,
                                                 numbered_fixture,
                                                 single_edge_fixture):
    """The matrix-tree count and the per-tree check give the dict that
    the search over every arc set gives, for every root face."""
    tree_graph = RibbonBipartiteGraph(["e0"], ["v0", "v1"],
                                      {"a": ("e0", "v0"), "b": ("e0", "v1")},
                                      None, base_node="v0", base_edge="a")
    setups = [running_fixture.graph, c4_fixture.graph, bip(tour_fixture.graph),
              bip(matching_fixture.graph), numbered_fixture.graph,
              single_edge_fixture.graph, tree_graph]
    pairs = 0
    for g in setups:
        for r0 in range(len(g.faces())):
            want = arborescence_duality_brute_force(g, r0)
            assert want["equal"]
            assert arborescence_duality(g, r0) == want, (g.edge_ids, r0)
            pairs += 1
    assert pairs == 18

    # a missing tree fails the count, and a tree whose complement is no
    # arborescence fails the duality though the two counts still agree
    enumerate_trees = campaign.enumerate_jaeger_trees

    def one_dropped(setup, cut):
        return enumerate_trees(setup, cut)[:-1]

    def one_swapped(setup, cut):
        trees = enumerate_trees(setup, cut)
        other = next(t for t in setup.spanning_trees() if t not in trees)
        return trees[:-1] + [other]
    for tampered, counts_agree in ((one_dropped, False), (one_swapped, True)):
        monkeypatch.setattr(campaign, "enumerate_jaeger_trees", tampered)
        rep = arborescence_duality(running_fixture.graph)
        assert (rep["arborescences"] == rep["jaeger"]) == counts_agree
        assert not rep["equal"]


def test_arborescence_duality_needs_plane():
    from hyperbernardi.fixtures import torus_k4
    with pytest.raises(ValueError, match="genus"):
        arborescence_duality(bip(torus_k4()))


def test_campaign_all_pass(knot_fixture):
    rep = campaign_verify_all(knot_fixture.graph)
    assert not rep.failed and not rep.flagged, rep.summary()
    h = next(c for c in rep.checks if c["name"] == "h-vector-equals-interior")
    assert h["h"] == [1, 3, 3]
    payload = rep.to_json()
    assert payload["input_hash"] and "tool_version" in payload


def test_campaign_caches_only_the_oracles():
    """After a campaign the graph's cache holds one oracle per side, and
    the reversed setup shares it."""
    from hyperbernardi.hypertree import _Feasibility
    g = running_graph_knot_setup().graph
    campaign_verify_all(g)
    assert set(g._feas_cache) == {EMERALD, VIOLET}
    for side, oracle in g._feas_cache.items():
        assert isinstance(oracle, _Feasibility) and oracle.side == side
    assert g.reversed_setup()._feas_cache is g._feas_cache


def test_volume_check_reads_dissection_and_sweep(monkeypatch):
    """equal-simplex-volumes computes one volume per V-cut Jaeger tree,
    the dissection's simplices, and fails on a volume other than 1; it
    reports the trees the campaign's sweep visited and fails when they
    fall short of Kirchhoff's count, even though every volume is 1."""
    from hyperbernardi import campaign
    g = running_graph().graph

    def volume_check():
        rep = campaign_verify_all(g)
        return next(c for c in rep.checks if c["name"] == "equal-simplex-volumes")
    measured = []

    def counted(h, t):
        measured.append(t)
        return normalized_simplex_volume(h, t)
    monkeypatch.setattr(campaign, "normalized_simplex_volume", counted)
    check = volume_check()
    assert check["status"] == "pass"
    assert sorted(map(sorted, measured)) == sorted(
        map(sorted, enumerate_jaeger_trees(g, VCUT)))
    assert check["trees"] == g.count_spanning_trees() > len(measured)
    monkeypatch.setattr(campaign, "normalized_simplex_volume",
                        lambda h, t: 2 if t == measured[0] else 1)
    doubled = volume_check()
    assert (doubled["status"], doubled["volumes"]) == ("fail", [1, 2])
    monkeypatch.setattr(campaign, "normalized_simplex_volume", normalized_simplex_volume)
    sweep = g._tree_blocks

    def short_sweep():
        """The blocks, with the first spanning tree's bit dropped."""
        blocks = sweep()
        cols, span = next(blocks)
        yield cols, span & (span - 1)
        yield from blocks
    monkeypatch.setattr(g, "_tree_blocks", short_sweep)
    short = volume_check()
    assert short["status"] == "fail"
    assert (short["volumes"], short["trees"]) == ([1], check["trees"] - 1)


def test_campaign_reuses_runs(family_runs):
    """Runs from well-definedness feed the interior theorem, the T-order
    check, the compositions and the conjectures; only the two cut:E
    variants run again, on the reversed setup."""
    from collections import Counter

    from hyperbernardi.bernardi import HT_E_CUT_E, HT_V_CUT_E, VARIANTS
    from hyperbernardi.hypertree import enumerate_hypertrees
    g = running_graph().graph
    rep = campaign_verify_all(g)
    assert not rep.failed and not rep.flagged, rep.summary()
    # four variants on g, two on its reversed setup, none repeated
    rev = g.reversed_setup()
    assert Counter(family for family, _ in family_runs) == Counter(
        [(id(g), v, False) for v in VARIANTS] +
        [(id(rev), v, False) for v in (HT_E_CUT_E, HT_V_CUT_E)])
    assert all(len(set(hts)) == len(hts) for _, hts in family_runs)
    assert sum(len(hts) for _, hts in family_runs) == \
        6 * len(enumerate_hypertrees(g, "emerald"))


def test_campaign_builds_one_shelling_record(monkeypatch):
    """Within the geometry limit, the characterization, the dissection
    and both shelling checks read one record: each tree's tour is walked
    once on each setup (the trie of tours gives the divergences, so no
    pair's tours are walked again), and each tree's emerald T-order,
    semi-passive set and cut table are computed once."""
    from collections import Counter

    from hyperbernardi import jaeger, polytope
    from hyperbernardi.campaign import GEOMETRY_EDGE_LIMIT
    from hyperbernardi.graph import RibbonGraph
    tours, emerald, semi, tables = [], [], [], []
    tour, t_order, semi_passive_edges, base_cuts = (
        RibbonGraph._tour, jaeger.t_order, jaeger.semi_passive_edges, jaeger._base_cuts)

    def counting_tour(setup, mask):
        tours.append((id(setup), mask))
        return tour(setup, mask)

    def counting_order(g, tree, flavor):
        if flavor == EMERALD:
            emerald.append(tree)
        return t_order(g, tree, flavor)

    def counting_semi(g, tree, edge_order, cuts=None):
        semi.append(tree)
        return semi_passive_edges(g, tree, edge_order, cuts)

    def counting_cuts(g, tree):
        tables.append(tree)
        return base_cuts(g, tree)
    monkeypatch.setattr(RibbonGraph, "_tour", counting_tour)
    monkeypatch.setattr(jaeger, "t_order", counting_order)
    monkeypatch.setattr(jaeger, "semi_passive_edges", counting_semi)
    monkeypatch.setattr(jaeger, "_base_cuts", counting_cuts)
    # the geometry reads the record's cut tables and builds none itself
    assert not hasattr(polytope, "_base_cuts")
    g = random_bipartite(5, 4, 4, 8)
    assert len(g.edge_ids) <= GEOMETRY_EDGE_LIMIT
    rep = campaign_verify_all(g)
    assert not rep.failed and not rep.flagged, rep.summary()
    assert "geometric-shelling" in [c["name"] for c in rep.checks]
    trees = jaeger.enumerate_jaeger_trees(g, VCUT)
    assert len(trees) == 5
    assert sorted(map(sorted, emerald)) == sorted(map(sorted, trees))
    assert sorted(map(sorted, semi)) == sorted(map(sorted, trees))
    assert sorted(map(sorted, tables)) == sorted(map(sorted, trees))
    assert Counter(tours) == Counter(
        (id(setup), g._edge_mask(tree))
        for setup in (g, g.reversed_setup()) for tree in trees)


def test_campaign_reads_polynomials_and_orders_once(monkeypatch):
    """The campaign computes the ht:E cut:E embedding polynomials once,
    for the interior theorem and the conjectures alike, and reads each
    run's violet T-order from the shelling record of its outcome."""
    from collections import Counter

    from hyperbernardi.bernardi import HT_E_CUT_E, HT_E_CUT_V
    polynomials, orders = Counter(), []
    bernardi_polynomials = campaign.bernardi_polynomials

    def counting_polynomials(g, variant, runs=None):
        polynomials[variant] += 1
        return bernardi_polynomials(g, variant, runs)
    monkeypatch.setattr(campaign, "bernardi_polynomials", counting_polynomials)
    monkeypatch.setattr(campaign, "t_order", lambda *args: orders.append(args))
    rep = campaign_verify_all(running_graph().graph)
    assert not rep.failed and not rep.flagged, rep.summary()
    assert polynomials == Counter({HT_E_CUT_E: 1, HT_E_CUT_V: 1})
    assert orders == []


def test_conjecture_flag_is_reverified(monkeypatch):
    """A mismatch is flagged with the paranoid runs' polynomial, which
    equals the fast one, and with the classical recheck: a fault in the
    one-pass classical readout flags all three conjectures."""
    from hyperbernardi import campaign
    from hyperbernardi.campaign import FLAG
    from hyperbernardi.hypertree import Poly
    monkeypatch.setattr(campaign, "_classical_polynomials",
                        lambda *a, **k: (Poly([7]), Poly([7])))
    g = random_bipartite(5, 4, 4, 10)
    checks = check_conjectures(g).checks
    assert [c["status"] for c in checks] == [FLAG] * 3
    for c in checks:
        assert c["expected"] == c["classical_recheck"] == [7]
        assert c["reverified"] == c["got"] and sum(c["got"]) > 1


def test_campaign_all_pass_c4(c4_fixture):
    rep = campaign_verify_all(c4_fixture.graph)
    assert not rep.failed and not rep.flagged, rep.summary()
    scan = next(c for c in rep.checks
                if c["name"] == "ehrhart-lattice-scan-oracle")
    assert scan["dp"][:3] == [1, 4, 9]


def test_campaign_refuses_oversized():
    g = noncrossing_setup(3, 3)  # 16 edges
    with pytest.raises(ValueError, match="max-edges"):
        campaign_verify_all(g)


def test_conjectures_pass_for_graphs():
    for seed in range(10):
        h = random_ordinary(seed, 4, 6)
        rep = check_conjectures(bip(h))
        interior_check = next(c for c in rep.checks
                              if c["name"] == "conjecture-interior-cutV")
        # a theorem, not a conjecture, for subdivisions of graphs
        assert interior_check["status"] == "pass", seed


def test_conjectures_large_subdivision():
    # 28 edges, 21,474,180 candidate edge subsets: out of reach of a sweep
    g = bip(random_ordinary(5, max_vertices=4, max_edges=14))
    assert len(g.edge_ids) == 28
    rep = check_conjectures(g)
    assert not rep.failed and not rep.flagged, rep.summary()


def test_fuzz_smoke_and_replay():
    rep1 = fuzz_conjectures(range(20), 4, 9)
    rep2 = fuzz_conjectures(range(20), 4, 9)
    assert not rep1.flagged
    assert json.dumps(rep1.checks) == json.dumps(rep2.checks)
    rep3 = fuzz_conjectures(range(5), 4, 18, graphs_only=True)
    assert not rep3.flagged


def test_fixture_registry_enforces_provenance(running_fixture):
    with pytest.raises(ValueError, match="provenance"):
        Fixture(name="bad", provenance="derived", graph=running_fixture.graph,
                expected={"x": 1})
    with pytest.raises(ValueError, match="provenance"):
        Fixture(name="bad", provenance="rumor", graph=running_fixture.graph)
    assert load("running").name == "running"
    with pytest.raises(KeyError):
        load("nope")


# -- command line -----------------------------------------------------------


def run_cli(*argv, expect=0):
    # the CLI imports the same package as this process, also when the
    # package is found through pytest's pythonpath setting
    package_root = str(Path(hyperbernardi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hyperbernardi.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "running.graph"
    path.write_text(serialize_graph(running_graph().graph))
    return str(path)


def test_cli_info(graph_file):
    proc = run_cli("info", "--graph", graph_file, "--json")
    payload = json.loads(proc.stdout)
    assert payload["edges"] == 9 and payload["spanning_trees"] == 50


def test_cli_interior(graph_file):
    proc = run_cli("interior", "--graph", graph_file)
    assert proc.stdout.strip() == "1 + 3*x + 3*x^2"
    proc = run_cli("exterior", "--graph", graph_file, "--json")
    assert json.loads(proc.stdout)["exterior"] == [1, 2, 3, 1]


def test_cli_hypertrees(graph_file):
    proc = run_cli("hypertrees", "--graph", graph_file, "--side", "E")
    assert len(proc.stdout.strip().splitlines()) == 7


def test_cli_bernardi_trace(graph_file):
    """The trace lists the steps; the JSON record holds the reference
    walk's steps, current-edge order and result tree."""
    argv = ("bernardi", "--graph", graph_file, "--hypertree", "e0=0,e1=0,e2=0,e3=2",
            "--variant", "htE-cutV")
    proc = run_cli(*argv, "--trace")
    assert "result tree:" in proc.stdout
    assert "removed" in proc.stdout and "kept" in proc.stdout
    payload = json.loads(run_cli(*argv, "--json").stdout)
    want = reference_run(running_graph().graph, {"e0": 0, "e1": 0, "e2": 0, "e3": 2},
                         HT_E_CUT_V)
    assert payload["steps"] == [
        {"edge": s.edge, "decision": s.decision, "live_before": s.live_before,
         "traversals": [list(t) for t in s.traversals]} for s in want.steps]
    assert payload["current_edge_order"] == list(want.current_edge_order)
    assert payload["result_tree"] == sorted(want.result_tree)


def test_cli_bernardi_bad_hypertree(graph_file):
    for literal in ("e0=9", "e0=2,e0=0,e1=0,e2=0,e3=2"):
        proc = run_cli("bernardi", "--graph", graph_file,
                       "--hypertree", literal, "--variant", "htE-cutV", expect=2)
        assert "error:" in proc.stderr


def test_cli_jaeger(graph_file):
    proc = run_cli("jaeger", "--graph", graph_file, "--cut", "V", "--list")
    assert len(proc.stdout.strip().splitlines()) == 7
    proc = run_cli("jaeger", "--graph", graph_file, "--characterize")
    assert "agreement" in proc.stdout


def test_cli_polytope(graph_file):
    proc = run_cli("polytope", "--graph", graph_file, "--verify", "dissection",
                   "--json")
    assert json.loads(proc.stdout)["ok"] is True
    proc = run_cli("polytope", "--graph", graph_file, "--verify", "triangulation")
    # the all-counterclockwise setup happens to triangulate
    assert "pass" in proc.stdout
    run_cli("polytope", "--graph", graph_file, "--verify", "shelling")
    run_cli("polytope", "--graph", graph_file, "--verify", "kato", "--kmax", "8")


def test_cli_shelling_says_why_geometry_is_skipped(graph_file, tmp_path):
    """Above GEOMETRY_EDGE_LIMIT the geometric shelling check is skipped
    with a reason; at or below it, it runs."""
    from hyperbernardi.campaign import GEOMETRY_EDGE_LIMIT
    proc = run_cli("polytope", "--graph", graph_file, "--verify", "shelling", "--json")
    payload = json.loads(proc.stdout)
    assert len(running_graph().graph.edge_ids) > GEOMETRY_EDGE_LIMIT
    assert payload["ok"] is True
    assert payload["geometric"] == {
        "status": "skipped", "reason": f"more than {GEOMETRY_EDGE_LIMIT} edges"}
    path = tmp_path / "small.graph"
    path.write_text(serialize_graph(noncrossing_setup(1, 2)))
    payload = json.loads(run_cli("polytope", "--graph", str(path), "--verify",
                                 "shelling", "--json").stdout)
    assert payload["geometric"]["ok"] is True and "status" not in payload["geometric"]


def test_cli_polytope_triangulation_fails_on_knot(tmp_path):
    """The knot setup's Jaeger trees dissect the root polytope without
    triangulating it: the triangulation verdict exits 1 and names the
    unmatched facets, while the dissection verdict stays true."""
    path = tmp_path / "knot.graph"
    path.write_text(serialize_graph(running_graph_knot_setup().graph))
    proc = run_cli("polytope", "--graph", str(path), "--verify", "triangulation",
                   "--json", expect=1)
    payload = json.loads(proc.stdout)
    assert payload["is_triangulation"] is False and payload["is_dissection"] is True
    assert payload["ok"] is False
    assert {w["kind"] for w in payload["witnesses"]} == {"facet"}


def test_cli_polytope_ehrhart(graph_file):
    for cut in ("V", "E"):
        proc = run_cli("polytope", "--graph", graph_file, "--verify", "ehrhart",
                       "--cut", cut, "--json")
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True and payload["fitted"] == [1, 3, 3, 0, 0, 0]
    # the running example has d = |V| - 2 = 5
    for check in ("ehrhart", "kato"):
        for kmax in ("4", "-3"):
            proc = run_cli("polytope", "--graph", graph_file, "--verify", check,
                           "--kmax", kmax, expect=2)
            assert f"--kmax {kmax} is below d = |V| - 2 = 5" in proc.stderr
        run_cli("polytope", "--graph", graph_file, "--verify", check, "--kmax", "5")


def test_cli_ehrhart_fit_failure_is_theorem_failure(monkeypatch, capsys,
                                                    graph_file):
    from hyperbernardi import cli
    monkeypatch.setattr(cli, "ehrhart_values", lambda g, kmax: [1] + [0] * kmax)
    assert cli.main(["polytope", "--graph", graph_file, "--verify", "ehrhart",
                     "--json"]) == cli.EXIT_THEOREM_FAILURE
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert "not a nonnegative integer" in payload["error"]


def test_cli_verify(graph_file):
    proc = run_cli("verify", "--graph", graph_file, "--json")
    payload = json.loads(proc.stdout)
    assert all(c["status"] in ("pass", "skipped") for c in payload["checks"])


def reversed_order(tree, order):
    return order[::-1]


def non_tree_edges_first_reversed(tree, order):
    return (tuple(e for e in reversed(order) if e not in tree)
            + tuple(e for e in order if e in tree))


@pytest.mark.parametrize("perturb, message", [
    (reversed_order, "base-cut bound failed"),
    (non_tree_edges_first_reversed, "base-cut order lemma failed"),
])
def test_lemma_failure_fails_verify_and_characterize(monkeypatch, capsys,
                                                      graph_file, perturb,
                                                      message):
    from dataclasses import replace

    from hyperbernardi import cli, jaeger
    from hyperbernardi.cli import EXIT_THEOREM_FAILURE
    honest = jaeger.characterize_tree

    def on_perturbed_violet_order(g, step):
        to = step.violet
        return honest(g, replace(step, violet=jaeger.TOrder(
            to.flavor, perturb(step.tree, to.edge_order), to.class_order)))

    # the run-order check reads the same records, so the characterization
    # alone is handed records whose violet orders are perturbed
    monkeypatch.setattr(campaign, "characterize_tree", on_perturbed_violet_order)
    monkeypatch.setattr(cli, "characterize_tree", on_perturbed_violet_order)
    assert cli.main(["verify", "--graph", graph_file, "--json"]) == \
        EXIT_THEOREM_FAILURE
    failed = [c for c in json.loads(capsys.readouterr().out)["checks"]
              if c["status"] == "fail"]
    assert failed == [{"name": "five-way-characterization", "status": "fail",
                       "error": message}]
    assert cli.main(["jaeger", "--graph", graph_file, "--characterize"]) == \
        EXIT_THEOREM_FAILURE
    assert message in capsys.readouterr().err


def test_shelling_failure_is_theorem_failure(monkeypatch, capsys, graph_file):
    """A semi-passive edge in the first V-cut tree fails the shelling
    theorem: verify reports it and goes on, and both commands exit 1."""
    from hyperbernardi import cli, jaeger
    monkeypatch.setattr(jaeger, "semi_passive_edges",
                        lambda g, tree, edge_order, cuts=None: frozenset(tree))
    message = "first tree of a shelling has no covered facets"
    assert cli.main(["verify", "--graph", graph_file, "--json"]) == \
        cli.EXIT_THEOREM_FAILURE
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"name": "h-vector-equals-interior", "status": "fail",
            "error": message} in checks
    assert checks[-1]["name"] == "conjecture-exterior-cutV"
    assert cli.main(["polytope", "--graph", graph_file, "--verify", "shelling"]) == \
        cli.EXIT_THEOREM_FAILURE
    assert message in capsys.readouterr().err


def test_readme_library_sketch():
    """The README's Python block runs on the running example, with the
    values its comments give."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    source = 'open("running.graph").read()'
    assert source in block
    ns = {"running_doc": serialize_graph(running_graph().graph)}
    exec(block.replace(source, "running_doc"), ns)
    g, steps = ns["g"], ns["steps"]
    assert ns["interior_polynomial"](g, ns["EMERALD"]).coeffs == (1, 3, 3)
    assert len(ns["trees"]) == len(steps) == 7
    assert ns["shelling_h_vector"](steps) == (1, 3, 3)
    assert ns["verify_dissection"](g, steps)["is_dissection"]


def test_cli_characterize_rejects_e_cut_first(monkeypatch, graph_file):
    from hyperbernardi import cli

    def no_enumeration(*args):
        raise AssertionError("enumerated before rejecting --cut E")
    monkeypatch.setattr(cli, "enumerate_jaeger_trees", no_enumeration)
    assert cli.main(["jaeger", "--graph", graph_file, "--cut", "E",
                     "--characterize"]) == cli.EXIT_INPUT_ERROR


def test_cli_fuzz():
    proc = run_cli("fuzz", "--instances", "6", "--seed", "3", "--json")
    payload = json.loads(proc.stdout)
    summary = payload["checks"][-1]
    assert summary["flagged"] == 0 and summary["instances"] == 6


def test_cli_jaeger_orders(graph_file):
    proc = run_cli("jaeger", "--graph", graph_file, "--orders", "--json")
    payload = json.loads(proc.stdout)
    entry = payload["orders"][0]
    assert set(entry) >= {"tree", "violet_edge_order", "emerald_edge_order",
                          "violet_class_order", "emerald_class_order",
                          "semi_passive_emerald_order"}
    assert len(entry["violet_edge_order"]) == 9
    g = running_graph().graph
    # E-cut trees are the V-cut trees of the reversed setup
    for setup, tag in ((g, "V"), (g.reversed_setup(), "E")):
        proc = run_cli("jaeger", "--graph", graph_file, "--cut", tag,
                       "--orders", "--json")
        for entry in json.loads(proc.stdout)["orders"]:
            tree = frozenset(entry["tree"])
            for flavor in (VIOLET, EMERALD):
                to = t_order(setup, tree, flavor)
                assert entry[f"{flavor}_edge_order"] == list(to.edge_order)
                assert entry[f"{flavor}_class_order"] == list(to.class_order)
            assert entry["semi_passive_emerald_order"] == sorted(
                semi_passive_edges(g, tree, to.edge_order))


def test_exit_code_mapping(monkeypatch, capsys, graph_file):
    import argparse
    from hyperbernardi import cli
    from hyperbernardi.bernardi import TheoremViolation
    from hyperbernardi.campaign import FAIL, FLAG, PASS, CampaignReport
    from hyperbernardi.cli import (EXIT_CONJECTURE_FLAG, EXIT_INPUT_ERROR,
                                   EXIT_INTERNAL_ERROR, EXIT_PASS,
                                   EXIT_THEOREM_FAILURE, _report_exit)
    args = argparse.Namespace(json=True)
    ok = CampaignReport()
    ok.add("x", PASS)
    assert _report_exit(args, ok) == EXIT_PASS
    flagged = CampaignReport()
    flagged.add("x", FLAG)
    assert _report_exit(args, flagged) == EXIT_CONJECTURE_FLAG
    failed = CampaignReport()
    failed.add("x", FAIL)
    failed.add("y", FLAG)
    assert _report_exit(args, failed) == EXIT_THEOREM_FAILURE
    # uncaught exceptions: internal errors get their own code and one line
    for exc, code in ((RuntimeError("budget exceeded"), EXIT_INTERNAL_ERROR),
                      (AssertionError("tour failed to close"), EXIT_INTERNAL_ERROR),
                      (TheoremViolation("lemma failed"), EXIT_THEOREM_FAILURE),
                      (ValueError("bad literal"), EXIT_INPUT_ERROR)):
        def boom(_args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_info", boom)
        assert cli.main(["info", "--graph", graph_file]) == code
        err = capsys.readouterr().err
        assert str(exc) in err and len(err.strip().splitlines()) == 1
    assert len({EXIT_PASS, EXIT_THEOREM_FAILURE, EXIT_INPUT_ERROR,
                EXIT_CONJECTURE_FLAG, EXIT_INTERNAL_ERROR}) == 5


def test_cli_fuzz_parallel_matches_serial():
    serial = json.loads(run_cli("fuzz", "--instances", "6", "--seed", "3",
                                "--json").stdout)
    parallel = json.loads(run_cli("fuzz", "--instances", "6", "--seed", "3",
                                  "--jobs", "2", "--json").stdout)
    assert serial["checks"] == parallel["checks"]


def test_cli_fuzz_jobs_and_instances(monkeypatch, capsys):
    """--jobs and --instances below 1 are input errors, and the pool
    starts at most one worker per instance."""
    import multiprocessing
    from hyperbernardi import cli
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, seeds):
            return list(map(func, seeds))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    for argv in (("--jobs", "0"), ("--jobs", "-2"), ("--instances", "0"),
                 ("--instances", "-1", "--jobs", "2")):
        assert cli.main(["fuzz", *argv]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "at least 1" in err and len(err.strip().splitlines()) == 1
    assert started == []
    for jobs, instances, pool in (("8", "2", [2]), ("3", "5", [3]), ("4", "1", [])):
        started.clear()
        assert cli.main(["fuzz", "--jobs", jobs, "--instances", instances,
                         "--json"]) == cli.EXIT_PASS
        summary = json.loads(capsys.readouterr().out)["checks"][-1]
        assert summary["instances"] == int(instances)
        assert started == pool


def test_cli_fuzz_bounds_checked_before_any_instance(monkeypatch, capsys):
    """Bounds under which some seed's instance cannot be drawn are input
    errors before the first instance; the smallest accepted edge bound
    draws every seed, and bounds the checked instance."""
    import multiprocessing
    from hyperbernardi import cli
    checked = []

    def recorder(report, g, runs=None):
        checked.append(len(g.edge_ids))

    def no_pool(processes):
        raise AssertionError("worker pool started before the bounds were checked")
    monkeypatch.setattr(campaign, "_add_conjecture_checks", recorder)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv, option in ((("--max-nodes", "0"), "--max-nodes"),
                         (("--max-nodes", "1", "--graphs-only"), "--max-nodes"),
                         (("--max-edges", "6"), "--max-edges"),
                         (("--max-nodes", "5", "--max-edges", "8"), "--max-edges"),
                         (("--max-edges", "5", "--graphs-only"), "--max-edges")):
        assert cli.main(["fuzz", "--instances", "12", "--jobs", "2",
                         *argv]) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert option in err and len(err.strip().splitlines()) == 1
    assert checked == []
    for argv, most in ((("--max-edges", "7"), 7),
                       (("--max-edges", "6", "--graphs-only"), 6),
                       (("--max-nodes", "2", "--max-edges", "9", "--graphs-only"), 8)):
        checked.clear()
        assert cli.main(["fuzz", "--instances", "12", "--json", *argv]) == cli.EXIT_PASS
        capsys.readouterr()
        assert len(checked) == 12 and max(checked) <= most


def test_cli_input_errors(tmp_path, graph_file):
    # each command takes only the options it reads
    for argv in (("info", "--graph", graph_file, "--jobs", "2"),
                 ("verify", "--graph", graph_file, "--jobs", "2"),
                 ("hypertrees", "--graph", graph_file, "--seed", "1"),
                 ("fuzz", "--graph", "x")):
        assert "unrecognized arguments" in run_cli(*argv, expect=2).stderr
    run_cli("verify", "--graph", graph_file, "--seed", "3")
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph document\n")
    run_cli("info", "--graph", str(bad), expect=2)
    run_cli("info", "--graph", str(tmp_path / "missing.graph"), expect=2)
    big = tmp_path / "big.graph"
    big.write_text(serialize_graph(noncrossing_setup(3, 3)))
    run_cli("verify", "--graph", str(big), expect=2)
    twice = tmp_path / "twice.graph"
    text = serialize_graph(running_graph().graph)
    twice.write_text(text.replace("rotations:\n", "rotations:\n  v0: e0v0 e2v0 e3v0\n"))
    run_cli("info", "--graph", str(twice), expect=2)


def test_cli_unreadable_input(tmp_path):
    # a directory is not a readable document: an input error, not a
    # theorem failure, reported on one line without a traceback
    proc = run_cli("info", "--graph", str(tmp_path), expect=2)
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_corrupted_rotation_rejected(graph_file):
    text = open(graph_file).read()
    corrupted = text.replace("v0: e0v0 e3v0 e2v0", "v0: e0v0 e3v0 e3v0")
    assert corrupted != text
    with pytest.raises(GraphFormatError, match="permutation"):
        parse_graph(corrupted)
