"""Verification campaigns: run every computable check on one instance,
fuzz the conjectures over seeded random instances, and the two
special-case correspondences (non-crossing trees, dual arborescences).

A failed theorem is a hard error.  A failed conjecture is flagged as a
potential counterexample: it is re-verified by paranoid runs (a fresh
backtracking search at the start and on every step, without the
hypertree family, witness tree or exchanges) before being reported,
and it does not fail the campaign (exit code 3 signals it instead).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from functools import partial
from math import comb

from . import __version__
from .bernardi import (HT_E_CUT_E, HT_E_CUT_V, HT_V_CUT_E, HT_V_CUT_V,
                       TheoremViolation, bernardi_polynomials, bernardi_runs,
                       check_composition)
from .docio import serialize_graph
from .exactla import det_bareiss
from .graph import EMERALD, VIOLET, RibbonBipartiteGraph
from .hypertree import _classical_polynomials, enumerate_hypertrees, interior_polynomial
from .jaeger import (ECUT, VCUT, _tour_cuts, characterize_tree,
                     enumerate_jaeger_trees, realized_hypertrees, shelling,
                     t_order)
from .polytope import (ehrhart_fit, ehrhart_values, ehrhart_values_scan,
                       geometric_shelling_check, is_simple, kato_series_check,
                       normalized_simplex_volume, shelling_h_vector,
                       verify_dissection)

PASS = "pass"
FAIL = "fail"
FLAG = "CONJECTURE-COUNTEREXAMPLE?"
SKIP = "skipped"

# largest instance (edges) that gets the facet-by-facet shelling check
GEOMETRY_EDGE_LIMIT = 8
# largest instance (edges) whose Ehrhart values the lattice scan recounts
LATTICE_SCAN_EDGE_LIMIT = 6
# largest instance (edges, nodes) that gets the Ehrhart chain
EHRHART_EDGE_LIMIT = 10
EHRHART_NODE_LIMIT = 9
RANDOM_ORDERS = 10  # shuffled emerald orders for order-independence
KATO_EXTRA = 5  # the Kato series is compared up to dilate d + KATO_EXTRA


@dataclass
class CampaignReport:
    checks: list[dict] = field(default_factory=list)
    seed: int | None = None
    input_hash: str | None = None
    elapsed_s: float = 0.0

    def add(self, name: str, status: str, **details):
        entry = {"name": name, "status": status}
        entry.update(details)
        self.checks.append(entry)

    @property
    def failed(self) -> bool:
        return any(c["status"] == FAIL for c in self.checks)

    @property
    def flagged(self) -> bool:
        return any(c["status"] == FLAG for c in self.checks)

    def to_json(self) -> dict:
        return {
            "tool_version": __version__,
            "seed": self.seed,
            "input_hash": self.input_hash,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": self.checks,
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            detail = {k: v for k, v in c.items() if k not in ("name", "status")}
            suffix = f"  {json.dumps(detail, default=str)}" if detail else ""
            lines.append(f"[{c['status']:>4}] {c['name']}{suffix}")
        return "\n".join(lines)


def graph_hash(g: RibbonBipartiteGraph) -> str:
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()[:16]


def check_conjectures(g: RibbonBipartiteGraph) -> CampaignReport:
    """The cut-at-violet interior conjecture and both exterior variants,
    in a report of their own (see ``_add_conjecture_checks``)."""
    report = CampaignReport(input_hash=graph_hash(g))
    _add_conjecture_checks(report, g)
    return report


def _add_conjecture_checks(report: CampaignReport, g: RibbonBipartiteGraph,
                           runs=None, classical=None, embedding=None) -> None:
    """Add the cut-at-violet interior conjecture and both exterior
    variants to ``report``.

    Each ht:E variant runs once per hypertree, unless ``runs`` maps it
    to its runs; the emerald (interior, exterior) polynomials
    (``classical``), and the ht:E embedding polynomials, are computed
    here unless given (a variant's in ``embedding``).  Mismatches are
    flagged, never failed, and only after re-verifying both sides: the
    classical polynomial under a different order, and the embedding
    polynomial from paranoid runs.
    """
    interior, exterior = classical or _classical_polynomials(g, EMERALD)

    runs, known = runs or {}, embedding or {}
    embedding = {v: known.get(v) or bernardi_polynomials(g, v, runs.get(v))
                 for v in (HT_E_CUT_V, HT_E_CUT_E)}

    cases = [
        ("conjecture-interior-cutV", "interior", HT_E_CUT_V, interior),
        ("conjecture-exterior-cutE", "exterior", HT_E_CUT_E, exterior),
        ("conjecture-exterior-cutV", "exterior", HT_E_CUT_V, exterior),
    ]
    for name, kind, variant, want in cases:
        pick = 0 if kind == "interior" else 1
        got = embedding[variant][pick]
        if got == want:
            report.add(name, PASS, polynomial=list(got.coeffs))
            continue
        alt_order = sorted(g.emeralds, reverse=True)
        recheck_classical = _classical_polynomials(g, EMERALD, order=alt_order)[pick]
        paranoid = bernardi_runs(g, variant, paranoid=True)
        reverified = bernardi_polynomials(g, variant, paranoid)[pick]
        report.add(name, FLAG,
                   expected=list(want.coeffs), got=list(got.coeffs),
                   reverified=list(reverified.coeffs),
                   classical_recheck=list(recheck_classical.coeffs),
                   graph=serialize_graph(g))


def _jaeger_sweep(g: RibbonBipartiteGraph) -> tuple[int, dict[str, set]]:
    """The brute-force oracle for the Jaeger trees: every spanning tree,
    swept in blocks of edge subsets and toured bit-parallel for both
    cuts at once.  Returns the number of trees swept and the trees
    recognized for each cut; only those are decoded to edge sets."""
    recognized: dict[str, set] = {VCUT: set(), ECUT: set()}
    swept = 0
    for cols, span in g._tree_blocks():
        swept += span.bit_count()
        vcut, ecut = _tour_cuts(g._darts, cols, span)
        recognized[VCUT].update(g._block_subsets(cols, vcut))
        recognized[ECUT].update(g._block_subsets(cols, ecut))
    return swept, recognized


def campaign_verify_all(g: RibbonBipartiteGraph, max_edges: int = 14,
                        rng_seed: int = 0) -> CampaignReport:
    """Run every module's checks on one desk-scale instance."""
    t0 = time.perf_counter()
    report = CampaignReport(seed=rng_seed, input_hash=graph_hash(g))
    if len(g.edge_ids) > max_edges:
        raise ValueError(
            f"instance has {len(g.edge_ids)} edges > limit {max_edges}; "
            "raise --max-edges to override")
    rng = random.Random(rng_seed)

    b_e = enumerate_hypertrees(g, EMERALD)
    b_v = enumerate_hypertrees(g, VIOLET)
    report.add("hypertree-counts-equal", PASS if len(b_e) == len(b_v) else FAIL,
               emerald=len(b_e), violet=len(b_v))

    interior, exterior = classical = _classical_polynomials(g, EMERALD)
    interior_v = interior_polynomial(g, VIOLET)
    report.add("interior-transpose-invariant",
               PASS if interior == interior_v else FAIL,
               emerald=list(interior.coeffs), violet=list(interior_v.coeffs))
    report.add("interior-coefficient-sum",
               PASS if interior.coefficient_sum() == len(b_e) else FAIL)
    bound = min(len(g.emeralds), len(g.violets)) - 1
    report.add("interior-degree-bound",
               PASS if interior.degree <= bound else FAIL,
               degree=interior.degree, bound=bound)

    orders_ok = True
    for _ in range(RANDOM_ORDERS):
        order = list(g.emeralds)
        rng.shuffle(order)
        orders_ok &= _classical_polynomials(g, EMERALD, order=order) == classical
    report.add("order-independence", PASS if orders_ok else FAIL,
               orders=RANDOM_ORDERS)

    # well-definedness of all four processes over all hypertrees; later
    # checks read these runs
    runs: dict = {}
    outcome: dict[str, set] = {}
    try:
        for variant, family in ((HT_E_CUT_V, b_e), (HT_E_CUT_E, b_e),
                                (HT_V_CUT_V, b_v), (HT_V_CUT_E, b_v)):
            runs[variant] = bernardi_runs(g, variant)
            results = {run.result_tree for run in runs[variant]}
            outcome[str(variant)] = results
            if len(results) != len(family):
                raise TheoremViolation(f"{variant}: runs are not injective")
        report.add("well-definedness", PASS, runs=4 * len(b_e))
    except TheoremViolation as exc:
        report.add("well-definedness", FAIL, error=str(exc))
        report.elapsed_s = time.perf_counter() - t0
        return report

    bernardi_e = bernardi_polynomials(g, HT_E_CUT_E, runs[HT_E_CUT_E])
    report.add("bernardi-interior-theorem",
               PASS if bernardi_e[0] == interior else FAIL)

    swept, recognized = _jaeger_sweep(g)
    vcut = enumerate_jaeger_trees(g, VCUT)
    ecut = enumerate_jaeger_trees(g, ECUT)
    ok = (set(vcut) == recognized[VCUT] == outcome["htE-cutV"] == outcome["htV-cutV"]
          and set(ecut) == recognized[ECUT] == outcome["htE-cutE"] == outcome["htV-cutE"])
    report.add("bernardi-equals-jaeger", PASS if ok else FAIL,
               vcut=len(vcut), ecut=len(ecut))

    rev = g.reversed_setup()
    ok = set(vcut) == set(enumerate_jaeger_trees(rev, ECUT))
    report.add("reversal-duality", PASS if ok else FAIL)

    # unique realization and the induced bijection between hypertree
    # sets; Jaeger enumeration does not use the hypertree module, so this
    # also cross-checks the hypertree enumeration on both sides.
    realized = realized_hypertrees(g, vcut)
    ok = True
    for side, family in ((EMERALD, b_e), (VIOLET, b_v)):
        nodes = g.side_nodes(side)
        ok = ok and len(realized[side]) == len(vcut) and realized[side].keys() == {
            tuple(f[x] for x in nodes) for f in family}
    report.add("unique-realization-bijection", PASS if ok else FAIL)

    # base-cut order lemma and five-way characterization on every V-cut
    # tree; the dissection and shelling checks read the same record
    steps = shelling(g, vcut)
    try:
        for step in steps:
            characterize_tree(g, step)
        report.add("five-way-characterization", PASS, trees=len(vcut))
    except TheoremViolation as exc:
        report.add("five-way-characterization", FAIL, error=str(exc))

    # runs list current edges in the violet T-order of their outcome,
    # read from its record when the outcome is a V-cut Jaeger tree
    recorded = {step.tree: step.violet for step in steps}
    ok = True
    for run in runs[HT_E_CUT_V]:
        t = run.result_tree
        vo = recorded[t] if t in recorded else t_order(g, t, VIOLET)
        if run.current_edge_order != vo.edge_order:
            ok = False
    report.add("run-order-is-t-order", PASS if ok else FAIL)

    # composition theorems: the cut:E variants run once on the reversed
    # setup; the other outcomes are the well-definedness runs
    rev_runs = {variant: bernardi_runs(rev, variant)
                for variant in (HT_E_CUT_E, HT_V_CUT_E)}
    ok = all(check_composition(g, runs, rev_runs).values())
    report.add("composition-theorems", PASS if ok else FAIL)

    # geometry
    if not is_simple(g):
        report.add("root-polytope", SKIP, reason="parallel edges")
    else:
        # the dissection's simplices, the ones the Ehrhart chain counts,
        # are unimodular; the sweep visited every tree (Kirchhoff's count)
        vols = {normalized_simplex_volume(g, t) for t in vcut}
        ok = vols == {1} and swept == g.count_spanning_trees()
        report.add("equal-simplex-volumes", PASS if ok else FAIL,
                   volumes=sorted(vols), trees=swept)

        dis = verify_dissection(g, steps)
        report.add("dissection", PASS if dis["is_dissection"] else FAIL,
                   triangulation=dis["is_triangulation"],
                   certified=dis["interiors_disjoint_certified"])

        try:
            h = shelling_h_vector(steps)
        except TheoremViolation as exc:
            report.add("h-vector-equals-interior", FAIL, error=str(exc))
        else:
            report.add("h-vector-equals-interior",
                       PASS if h == interior.coeffs else FAIL,
                       h=list(h), interior=list(interior.coeffs))
        if len(g.edge_ids) <= GEOMETRY_EDGE_LIMIT:
            geo = geometric_shelling_check(g, steps)
            report.add("geometric-shelling", PASS if geo["ok"] else FAIL,
                       failures=geo["failures"])

        if len(g.edge_ids) > EHRHART_EDGE_LIMIT or len(g.nodes) > EHRHART_NODE_LIMIT:
            report.add("ehrhart-chain", SKIP,
                       reason="dilate counting too large for this instance")
        else:
            d = len(g.nodes) - 2
            kmax = d + KATO_EXTRA
            values = ehrhart_values(g, kmax)
            if len(g.edge_ids) <= LATTICE_SCAN_EDGE_LIMIT:
                scan = ehrhart_values_scan(g, min(kmax, d + 2))
                report.add("ehrhart-lattice-scan-oracle",
                           PASS if values[:len(scan)] == scan else FAIL,
                           dp=values[:len(scan)], scan=scan)
            fit = ehrhart_fit(values, d, interior)
            report.add("ehrhart-binomial-fit", PASS if fit.pop("ok") else FAIL, **fit)
            report.add("kato-series",
                       PASS if kato_series_check(interior.coeffs, g, kmax, values)
                       else FAIL, order=kmax)

    _add_conjecture_checks(report, g, runs, classical, {HT_E_CUT_E: bernardi_e})
    report.elapsed_s = time.perf_counter() - t0
    return report


def fuzz_instance(seed: int, max_nodes: int = 4, max_edges: int = 10,
                  graphs_only: bool = False) -> list[dict]:
    """The conjecture checks on one seeded random instance: the checks
    that did not pass, each tagged with the seed.  With ``graphs_only`` the
    instance is the subdivision of an ordinary graph with at most
    ``max_edges // 2`` edges, so it has at most ``max_edges`` edges."""
    from .generators import random_bipartite, random_ordinary
    from .graph import bip

    if graphs_only:
        g = bip(random_ordinary(seed, max_vertices=max_nodes,
                                max_edges=max_edges // 2))
    else:
        g = random_bipartite(seed, max_nodes, max_nodes, max_edges)
    report = CampaignReport()
    _add_conjecture_checks(report, g)
    return [dict(c, seed=seed) for c in report.checks if c["status"] != PASS]


def fuzz_conjectures(seed_range, max_nodes: int = 4, max_edges: int = 10,
                     graphs_only: bool = False, mapper=map) -> CampaignReport:
    """The conjecture checks over seeded random instances; ``mapper`` (a
    process pool's ``map``, say) runs fuzz_instance over the seeds and
    must keep their order.  Bounds under which some seed's instance
    cannot be drawn are rejected before any instance runs."""
    least_nodes = 2 if graphs_only else 1  # an ordinary graph has two vertices
    if max_nodes < least_nodes:
        raise ValueError(f"--max-nodes {max_nodes} is below {least_nodes}")
    # a subdivided tree on max_nodes vertices, or a tree on 2 * max_nodes nodes
    least_edges = 2 * (max_nodes - 1) if graphs_only else 2 * max_nodes - 1
    if max_edges < least_edges:
        raise ValueError(f"--max-edges {max_edges} is below {least_edges}, the fewest "
                         f"edges of a connected instance at --max-nodes {max_nodes}")
    t0 = time.perf_counter()
    report = CampaignReport()
    seeds = list(seed_range)
    run = partial(fuzz_instance, max_nodes=max_nodes, max_edges=max_edges,
                  graphs_only=graphs_only)
    for flags in mapper(run, seeds):
        report.checks.extend(flags)
    flagged = len(report.checks)
    report.add("fuzz-summary", PASS if flagged == 0 else FLAG,
               instances=len(seeds), flagged=flagged, graphs_only=graphs_only)
    report.elapsed_s = time.perf_counter() - t0
    return report


def verify_noncrossing(m: int, n: int) -> dict:
    """E-cut Jaeger trees of the two-line complete bipartite setup are
    the non-crossing trees; their count is C(m+n, m) and the shelling
    order is the lexicographic order of the induced hypertrees."""
    from .fixtures import is_noncrossing_tree, noncrossing_setup

    g = noncrossing_setup(m, n)
    jaeger = enumerate_jaeger_trees(g, ECUT)
    noncrossing = {t for t in g.spanning_trees() if is_noncrossing_tree(g, t)}
    want = comb(m + n, m)

    def ht_key(tree):
        vals = g.degree_vector(tree, EMERALD)
        return tuple(vals[f"a{i}"] for i in range(m + 1))

    keys = [ht_key(t) for t in jaeger]
    return {
        "count": len(jaeger),
        "expected_count": want,
        "count_ok": len(jaeger) == want == len(noncrossing),
        "set_equal": set(jaeger) == noncrossing,
        "lexicographic": keys == sorted(keys),
    }


def arborescence_duality(g: RibbonBipartiteGraph, r0=None) -> dict:
    """For a genus-zero setup with positively oriented rotations: V-cut
    Jaeger trees are the complements of the edge-duals of the spanning
    arborescences of the face-dual digraph rooted at r0.

    Dual edges are oriented so the violet endpoint of the crossed edge
    sits on their left; with faces() listing right-faces of darts this
    means the arc runs from the face of the violet-tailed dart to the
    face of the emerald-tailed one.  The base pair is chosen (violet
    base node, r0 on the right of the base dart) to match r0.

    Each tree's complement is checked to be an arborescence rooted at
    r0, and the arborescences are counted by the directed matrix-tree
    theorem; the trees are distinct, so equal counts make the sets equal.
    """
    if g.genus() != 0:
        raise ValueError("needs a planar (genus zero) rotation system")
    faces = g.faces()
    face_of_dart = {}
    for i, walk in enumerate(faces):
        for dart in walk:
            face_of_dart[dart] = i
    if r0 is None:
        r0 = 0

    # pick the base: violet node, base edge with r0 right of b0 -> b1
    base = None
    for e in g.edge_ids:
        v = g.violet_end(e)
        if face_of_dart[(v, e)] == r0:
            base = (v, e)
            break
    if base is None:
        raise ValueError("no violet base pair borders the requested face")
    setup = g.with_base(*base)

    # dual digraph: one arc per edge of g
    arcs = {e: (face_of_dart[(g.violet_end(e), e)],
                face_of_dart[(g.emerald_end(e), e)]) for e in g.edge_ids}
    others = [f for f in range(len(faces)) if f != r0]

    # directed matrix-tree theorem: spanning arborescences rooted at r0
    # = the minor of the in-degree Laplacian at r0 (a loop arc adds to
    # and takes from the same diagonal entry, so it counts for nothing)
    row = {f: i for i, f in enumerate(others)}
    lap = [[0] * len(others) for _ in others]
    for tail, head in arcs.values():
        if head != r0:
            lap[row[head]][row[head]] += 1
            if tail != r0:
                lap[row[tail]][row[head]] -= 1
    count = det_bareiss(lap)

    # by planar duality a tree's complement is dual to a spanning tree of
    # the faces, so it is an arborescence rooted at r0 exactly when its
    # arcs enter every other face once and r0 never
    jaeger = enumerate_jaeger_trees(setup, VCUT)
    rooted = all(sorted(arcs[e][1] for e in g.edge_ids if e not in t) == others
                 for t in jaeger)
    return {
        "base": base,
        "arborescences": count,
        "jaeger": len(jaeger),
        "equal": rooted and count == len(jaeger),
    }
