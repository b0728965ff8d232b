"""Static checks on the package source, standard library only."""

import ast
from pathlib import Path

import hyperbernardi

PACKAGE = Path(hyperbernardi.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never references by name (a
    ``__future__`` import is a directive, not a name)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(c)\n"
    assert unused_imports(source) == ["line 3: d", "line 1: os", "line 2: system"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def calls_to(source: str, name: str) -> list[tuple[str, bool]]:
    """Each call of ``name``, plain or as an attribute, in a module: its
    outermost enclosing function, and whether it lies in the body of an
    ``if paranoid:``."""
    calls = []

    def visit(node, function, paranoid):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                   getattr(node.func, "id", None)):
            calls.append((function, paranoid))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "paranoid":
            for child in node.body:
                visit(child, function, True)
            for child in node.orelse:
                visit(child, function, paranoid)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, paranoid)
    visit(ast.parse(source), None, False)
    return calls


# the backtracking search is the independent oracle: it may run in a
# paranoid Bernardi run and in the public membership test, and nowhere
# on the fast paths
ALLOWED_SEARCH_CALLS = {("_walk", True), ("is_hypertree", False)}


def test_search_calls_detected():
    source = ("def run_bernardi(paranoid):\n"
              "    def removable():\n"
              "        if paranoid:\n"
              "            return o._search(1)\n"
              "        return o._search(2)\n"
              "    if not paranoid:\n"
              "        o._search(3)\n"
              "    return removable() if paranoid else o._search(4)\n"
              "o._search(5)\n")
    assert calls_to(source, "_search") == [
        ("run_bernardi", True), ("run_bernardi", False), ("run_bernardi", False),
        ("run_bernardi", False), (None, False)]
    assert calls_to("def f():\n    run_bernardi(g)\nhb.run_bernardi(g)\n",
                    "run_bernardi") == [("f", False), (None, False)]


def test_hot_path_makes_no_search():
    modules = sorted(PACKAGE.glob("*.py"))
    calls = {p.name: calls_to(p.read_text(encoding="utf-8"), "_search")
             for p in modules}
    assert {name: [c for c in found if c not in ALLOWED_SEARCH_CALLS]
            for name, found in calls.items()
            if set(found) - ALLOWED_SEARCH_CALLS} == {}
    assert {c for found in calls.values() for c in found} == ALLOWED_SEARCH_CALLS


def test_families_run_through_bernardi_runs():
    """A run over a whole hypertree family goes through ``bernardi_runs``,
    which sets the walk up once; single runs remain only for the graph
    specialization check and the CLI's one-hypertree command."""
    callers = {(p.name, function) for p in PACKAGE.glob("*.py")
               for function, _ in calls_to(p.read_text(encoding="utf-8"),
                                           "run_bernardi")}
    assert callers == {("bernardi.py", "graph_specialization_check"),
                       ("cli.py", "cmd_bernardi")}


def imports_and_definitions(source: str) -> tuple[set[str], set[str]]:
    """The top-level modules a module imports, and the functions and
    module-level names it defines."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module.split(".")[0])
    functions = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    names = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in ast.walk(node)
             if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)}
    return modules, functions | names


def test_imports_and_definitions_detected():
    source = ("import graphlib\nfrom graphlib import TopologicalSorter\n"
              "from .graph import bip\nimport os.path\nLIMIT = 8\nPoint: type = tuple\n"
              "def trees_compatible():\n    def inner():\n        local = 1\n")
    assert imports_and_definitions(source) == (
        {"graphlib", "os"}, {"trees_compatible", "inner", "LIMIT", "Point"})


def test_pairwise_compatibility_stays_in_the_oracles():
    """The triangulation verdict is local on the facet table; the
    pairwise compatibility test and its topological sort live in
    ``tests/oracles.py`` only."""
    found = {p.name: imports_and_definitions(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    assert {name for name, (modules, _) in found.items() if "graphlib" in modules} == set()
    assert {name for name, (_, functions) in found.items()
            if "trees_compatible" in functions} == set()


def test_fraction_recursion_stays_in_the_oracles():
    """Facet coverage is decided on the cut tables: no module under
    ``src/`` imports ``fractions``, and the Fraction splitting and its
    helpers are defined in ``tests/oracles.py`` only."""
    found = {p: imports_and_definitions(p.read_text(encoding="utf-8"))
             for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]}
    assert {p.name for p, (modules, _) in found.items()
            if p.parent == PACKAGE and "fractions" in modules} == set()
    for name in ("FACET_COVER_BUDGET", "facet_cover_status", "_split_piece",
                 "vertex_point", "barycentric", "Point"):
        assert {p.name for p, (_, defined) in found.items() if name in defined} \
            == {"oracles.py"}, name


def test_facets_are_indexed_in_one_table():
    """The facets of the tree simplices are indexed once: no module under
    ``src/`` defines ``Facet``, ``facet_neighbours`` or ``_facets``; the
    one facet function of ``polytope.py`` is the table builder
    ``_facet_table``, the only dict it builds by ``setdefault`` beside
    the Ehrhart step table, and ``verify_dissection`` and
    ``_cover_rule`` each call it once."""
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        defined = imports_and_definitions(source)[1] | {
            node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)}
        assert defined & {"Facet", "facet_neighbours", "_facets"} == set(), path.name
    source = (PACKAGE / "polytope.py").read_text(encoding="utf-8")
    assert {name for name in imports_and_definitions(source)[1]
            if "facet" in name.lower()} == {"_facet_table"}
    assert {function for function, _ in calls_to(source, "setdefault")} == {
        "_facet_table", "ehrhart_values"}
    assert sorted(calls_to(source, "_facet_table")) == [
        ("_cover_rule", False), ("verify_dissection", False)]


def test_sweep_is_the_block_primitive():
    """Spanning trees are swept in bit-parallel blocks only: no module
    under ``src/`` defines the per-tree mask frame, and the campaign's
    brute-force oracle (``campaign_verify_all`` and the ``_jaeger_sweep``
    it calls) neither walks ``spanning_trees`` nor tours tree by tree
    through ``jaeger_cuts``."""
    definers = {p.name for p in PACKAGE.glob("*.py")
                if "_spanning_masks" in imports_and_definitions(
                    p.read_text(encoding="utf-8"))[1]}
    assert definers == set()
    source = (PACKAGE / "campaign.py").read_text(encoding="utf-8")
    assert {function for function, _ in calls_to(source, "_jaeger_sweep")} == {
        "campaign_verify_all"}
    callers = {function for name in ("spanning_trees", "jaeger_cuts")
               for function, _ in calls_to(source, name)}
    assert callers & {"campaign_verify_all", "_jaeger_sweep"} == set()


def test_record_checks_walk_no_pairs():
    """The shelling record's divergences come from the trie of tours, and
    the dissection reads them: no module under ``src/`` walks two tours
    side by side, and every single-tree tour is one ``_tour``, which
    ``divergence_edge`` walks once."""
    callers = {(p.name, function) for p in PACKAGE.glob("*.py")
               for function, _ in calls_to(p.read_text(encoding="utf-8"), "_tour")}
    assert callers == {("graph.py", "tour_pairs"), ("jaeger.py", "t_order"),
                       ("jaeger.py", "shelling"), ("jaeger.py", "divergence_edge")}
    source = (PACKAGE / "jaeger.py").read_text(encoding="utf-8")
    assert calls_to(source, "_tour").count(("divergence_edge", False)) == 1


def test_one_tour_and_one_rooting_primitive():
    """One spanning tree is toured by ``_tour`` and rooted by ``_root``,
    both defined in ``graph.py`` only; no module defines the retired
    ``_base_sides`` or the pairwise walk ``_tour_divergence``, and the
    tree simplex's peel, the cut table and the exchange arcs are built
    on ``_root``, the arcs through the oracle's one rooting helper
    ``_rooted`` and its one fundamental-path climb ``_arcs_from``, which
    the family's full arcs and the Bernardi step's lazy search share."""
    found = {p.name: imports_and_definitions(p.read_text(encoding="utf-8"))[1]
             for p in PACKAGE.glob("*.py")}
    for name, definers in (("_tour", {"graph.py"}), ("_root", {"graph.py"}),
                           ("_base_sides", set()), ("_tour_divergence", set())):
        assert {module for module, functions in found.items() if name in functions} \
            == definers, name
    polytope = ast.parse((PACKAGE / "polytope.py").read_text(encoding="utf-8"))
    simplex = next(node for node in polytope.body
                   if isinstance(node, ast.ClassDef) and node.name == "TreeSimplex")
    assert calls_to(ast.unparse(simplex), "_root") == [("__init__", False)]
    source = (PACKAGE / "jaeger.py").read_text(encoding="utf-8")
    assert calls_to(source, "_root") == [("_base_cuts", False)]
    source = (PACKAGE / "hypertree.py").read_text(encoding="utf-8")
    assert calls_to(source, "_root") == [("_rooted", False)]
    for helper in ("_rooted", "_arcs_from"):
        assert sorted(calls_to(source, helper)) == [("_arcs", False), ("avoid", False)]
    assert sum(line.strip() == "u, v = v, u" for line in source.splitlines()) == 1


def test_walk_checks_its_cycles_in_one_place():
    """The Bernardi walk traverses every dart through one block, so one
    ``raise`` in ``bernardi.py`` reports a cycle in the traversed
    subgraph."""
    tree = ast.parse((PACKAGE / "bernardi.py").read_text(encoding="utf-8"))
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and "acquired a cycle" in ast.unparse(node)]
    assert len(raises) == 1


def test_walk_builds_no_steps():
    """The Bernardi walk keeps integers; a ``BernardiStep`` is built only
    in the run record's ``steps``, when it is read."""
    source = (PACKAGE / "bernardi.py").read_text(encoding="utf-8")
    assert {function for function, _ in calls_to(source, "BernardiStep")} == {"steps"}


def peels_in(source: str, function: str) -> list[tuple[bool, bool, list[str]]]:
    """Each peel (a call of ``contains_scaled``) in a module's top-level
    ``function``: whether it lies in a loop or comprehension over
    ``simplices``, whether it lies in a branch of an ``if``, and what
    the loops and comprehensions around it iterate over, outermost
    first."""
    found = []

    def visit(node, over, guarded):
        if isinstance(node, ast.Call) and "contains_scaled" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            found.append((any("simplices" in it for it in over), guarded, over))
        loops = [node] if isinstance(node, ast.For) else getattr(node, "generators", [])
        over = over + [ast.unparse(loop.iter) for loop in loops]
        if isinstance(node, ast.If):
            visit(node.test, over, guarded)
            for child in node.body + node.orelse:
                visit(child, over, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, over, guarded)

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            visit(node, [], False)
    return found


def test_peels_detected():
    source = ("def f(simplices, own, p):\n"
              "    a = [s.contains_scaled(p) for s in simplices]\n"
              "    b = sum(simplices[k].contains_scaled(p) for k in own)\n"
              "    for s in simplices:\n"
              "        if p:\n"
              "            s.contains_scaled(p)\n"
              "    if b:\n"
              "        s.contains_scaled(p)\n"
              "def g(simplices, p):\n"
              "    return [s.contains_scaled(p) for s in simplices]\n")
    assert peels_in(source, "f") == [
        (True, False, ["simplices"]), (False, False, ["own"]),
        (True, True, ["simplices"]), (False, True, [])]


def test_markers_peel_on_their_own_simplex():
    """``verify_dissection`` peels each marker only on the listed trees
    that realize its hypertree, with no branch to a peel on every
    simplex, and no module keeps such a peel (``_strictly_inside``):
    the all-simplices loop is ``tests/oracles.marker_placement``."""
    source = (PACKAGE / "polytope.py").read_text(encoding="utf-8")
    [(every, guarded, over)] = peels_in(source, "verify_dissection")
    assert not every and not guarded
    assert over[-1].startswith("realized[side].get(")
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert "_strictly_inside" not in imports_and_definitions(source)[1], path.name
        assert calls_to(source, "_strictly_inside") == [], path.name


def test_rollback_union_find_stays_in_the_oracle():
    """Only the backtracking oracle ``_Feasibility._search`` takes
    snapshots of a union-find and rolls it back; the Jaeger enumeration
    tracks the nodes that its walk has reached."""
    calls = {(path.name, function)
             for path in PACKAGE.glob("*.py")
             for name in ("snapshot", "rollback")
             for function, _ in calls_to(path.read_text(encoding="utf-8"), name)}
    assert calls == {("hypertree.py", "_search")}
    hypertree = ast.parse((PACKAGE / "hypertree.py").read_text(encoding="utf-8"))
    feasibility = next(node for node in hypertree.body
                       if isinstance(node, ast.ClassDef) and node.name == "_Feasibility")
    searches = [node for node in ast.walk(hypertree)
                if isinstance(node, ast.FunctionDef) and node.name == "_search"]
    assert len(searches) == 1 and searches[0] in feasibility.body


def test_union_find_objects_stay_off_the_walk():
    """The online check of a refuted Bernardi step counts components on an
    int list, as the family's Kruskal start does: only the backtracking
    oracle and the Tutte polynomial build a ``UnionFind``."""
    calls = {(path.name, function)
             for path in PACKAGE.glob("*.py")
             for function, _ in calls_to(path.read_text(encoding="utf-8"), "UnionFind")}
    assert calls == {("hypertree.py", "_search"), ("hypertree.py", "tutte_x_polynomial")}


def set_builders(source: str, function: str) -> list[str]:
    """The set displays, set comprehensions and ``set(...)`` calls in a
    module's top-level ``function``, unparsed."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return [ast.unparse(found) for found in ast.walk(node)
                    if isinstance(found, (ast.Set, ast.SetComp))
                    or isinstance(found, ast.Call) and getattr(found.func, "id", None) == "set"]
    raise AssertionError(f"no function {function!r}")


def test_set_builders_detected():
    source = ("def f(xs):\n"
              "    a = {x + 1 for x in xs}\n"
              "    b = set(xs) | {0}\n"
              "    return {x: 1 for x in xs}, frozenset(xs), [x for x in xs]\n")
    assert set_builders(source, "f") == ["{x + 1 for x in xs}", "set(xs)", "{0}"]


def test_ehrhart_dilates_hold_no_point_set():
    """``ehrhart_values`` counts a dilate in bitmap blocks and builds no
    set of its points: the per-point set is ``tests/oracles.ehrhart_by_sets``."""
    source = (PACKAGE / "polytope.py").read_text(encoding="utf-8")
    assert set_builders(source, "ehrhart_values") == []


def test_graph_constructor_builds_no_union_find():
    """A graph is indexed, validated and given its dart table in one
    integer pass: neither ``RibbonGraph.__init__`` nor anything else in the
    class builds a ``UnionFind``, and the dart table is set there, not
    built on first use."""
    tree = ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8"))
    ribbon = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "RibbonGraph")
    init = next(node for node in ribbon.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert calls_to(ast.unparse(init), "_build") == [("__init__", False)]
    assert calls_to(ast.unparse(ribbon), "UnionFind") == []
    assert "_darts" not in {node.name for node in ribbon.body
                            if isinstance(node, ast.FunctionDef)}


def test_bernardi_step_draws_arcs_lazily():
    """A Bernardi step draws exchange arcs as its search reaches them:
    ``_Feasibility.avoid`` calls neither ``_arcs`` nor ``_bfs``, which
    only the family closure calls."""
    source = (PACKAGE / "hypertree.py").read_text(encoding="utf-8")
    for name in ("_arcs", "_bfs"):
        assert calls_to(source, name) == [("family", False)], name
    for path in PACKAGE.glob("*.py"):
        if path.name != "hypertree.py":
            source = path.read_text(encoding="utf-8")
            assert calls_to(source, "_arcs") == calls_to(source, "_bfs") == [], path.name


def test_walk_checks_its_order_online():
    """The walk checks the arc rule and collects the class order inside its
    loop: ``_walk`` calls neither ``_check_arc_rule`` nor
    ``dict.fromkeys``, and the after-the-run check is defined only in
    ``tests/oracles.py``, as ``check_arc_rule``."""
    source = (PACKAGE / "bernardi.py").read_text(encoding="utf-8")
    walk = [function for name in ("_check_arc_rule", "check_arc_rule", "fromkeys")
            for function, _ in calls_to(source, name)]
    assert "_walk" not in walk
    found = {p: imports_and_definitions(p.read_text(encoding="utf-8"))[1]
             for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]}
    assert {p.name for p, defined in found.items()
            if {"_check_arc_rule", "check_arc_rule"} & defined} == {"oracles.py"}
