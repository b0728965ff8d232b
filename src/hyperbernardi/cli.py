"""Command-line frontend.

Exit codes: 0 all checks pass, 1 theorem failure, 2 input error,
3 conjecture-counterexample flag, 4 internal error (a broken internal
invariant or an exhausted work budget, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bernardi import ProcessVariant, TheoremViolation, run_bernardi
from .campaign import (GEOMETRY_EDGE_LIMIT, KATO_EXTRA, CampaignReport,
                       campaign_verify_all, fuzz_conjectures, graph_hash)
from .docio import (GraphFormatError, format_hypertree, format_polynomial,
                    parse_graph, parse_hypertree)
from .graph import EMERALD, VIOLET, ValidationError
from .hypertree import enumerate_hypertrees, exterior_polynomial, interior_polynomial
from .jaeger import ECUT, VCUT, characterize_tree, enumerate_jaeger_trees, shelling
from .polytope import (ehrhart_fit, ehrhart_values, geometric_shelling_check,
                       kato_series_check, shelling_h_vector, verify_dissection)

EXIT_PASS = 0
EXIT_THEOREM_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CONJECTURE_FLAG = 3
EXIT_INTERNAL_ERROR = 4


def _add_common(p: argparse.ArgumentParser, graph: bool = True):
    """--json and --max-edges, and the --graph document unless the
    command generates its instances."""
    if graph:
        p.add_argument("--graph", required=True,
                       help="graph document (hyperbernardi-graph v1)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--max-edges", type=int, default=14,
                   help="refuse larger instances (checks are exponential)" if graph
                   else "edge bound of the generated instances (with --graphs-only, "
                        "of the subdivisions: the ordinary graphs get half as many)")


def _load_graph(args):
    with open(args.graph, encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    if len(g.edge_ids) > args.max_edges:
        raise GraphFormatError(
            f"{len(g.edge_ids)} edges exceeds --max-edges {args.max_edges}")
    return g


def _side(tag: str) -> str:
    return EMERALD if tag.upper() == "E" else VIOLET


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def cmd_info(args) -> int:
    g = _load_graph(args)
    payload = {
        "input_hash": graph_hash(g),
        "emerald": list(g.emeralds),
        "violet": list(g.violets),
        "edges": len(g.edge_ids),
        "base_node": g.base_node,
        "base_edge": g.base_edge,
        "genus": g.genus(),
        "spanning_trees": g.count_spanning_trees(),
    }
    text = "\n".join(f"{k}: {v}" for k, v in payload.items())
    _emit(args, payload, text)
    return EXIT_PASS


def cmd_hypertrees(args) -> int:
    g = _load_graph(args)
    side = _side(args.side)
    family = enumerate_hypertrees(g, side)
    lines = [format_hypertree(f) for f in family]
    _emit(args, {"side": side, "count": len(family), "hypertrees": lines},
          "\n".join(lines))
    return EXIT_PASS


def _cmd_polynomial(args, which: str) -> int:
    g = _load_graph(args)
    side = _side(args.side)
    poly = (interior_polynomial if which == "interior" else exterior_polynomial)(g, side)
    _emit(args, {which: poly.to_json()}, format_polynomial(poly.coeffs))
    return EXIT_PASS


def cmd_bernardi(args) -> int:
    g = _load_graph(args)
    variant = ProcessVariant.parse(args.variant)
    f = parse_hypertree(args.hypertree, g, variant.ht_side)
    run = run_bernardi(g, f, variant)
    payload = {
        "variant": str(variant),
        "result_tree": sorted(run.result_tree),
        "current_edge_order": list(run.current_edge_order),
        "steps": [{"edge": s.edge, "decision": s.decision,
                   "live_before": s.live_before,
                   "traversals": [list(t) for t in s.traversals]}
                  for s in run.steps],
    }
    lines = ["result tree: " + " ".join(sorted(run.result_tree))]
    if args.trace:
        lines.append(f"{'step':>4}  {'edge':<12} {'decision':<8} traversals")
        for i, s in enumerate(run.steps, 1):
            trav = ", ".join(f"{e} from {c}" for e, c in s.traversals)
            lines.append(f"{i:>4}  {s.edge:<12} {s.decision:<8} {trav}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def cmd_jaeger(args) -> int:
    g = _load_graph(args)
    cut = VCUT if args.cut.upper() == "V" else ECUT
    if args.characterize and cut != VCUT:
        raise GraphFormatError("--characterize applies to the V cut")
    trees = enumerate_jaeger_trees(g, cut)
    payload: dict = {"cut": args.cut.upper(), "count": len(trees),
                     "trees": [sorted(t) for t in trees]}
    lines = [" ".join(sorted(t)) for t in trees] if (args.list or not args.orders) else []
    if args.orders or args.characterize:
        # E-cut trees are the V-cut trees of the reversed setup, whose
        # violet and emerald tours are theirs
        steps = shelling(g if cut == VCUT else g.reversed_setup(), trees)
        detail = []
        for step in steps:
            entry = {"tree": sorted(step.tree)}
            for to in (step.violet, step.emerald):
                entry[f"{to.flavor}_edge_order"] = list(to.edge_order)
                entry[f"{to.flavor}_class_order"] = list(to.class_order)
            entry["semi_passive_emerald_order"] = sorted(step.semi_passive)
            detail.append(entry)
        payload["orders"] = detail
        if not args.json:
            for entry in detail:
                lines.append(json.dumps(entry))
    if args.characterize:
        for step in steps:
            characterize_tree(g, step)
        payload["five_way_agreement"] = True
        lines.append("base-cut order lemma and five-way characterization: "
                     "agreement on every edge")
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def cmd_polytope(args) -> int:
    g = _load_graph(args)
    if args.cut.upper() == "E":
        # geometric checks are phrased for V-cut trees in violet order
        g = g.reversed_setup()
    ok = True
    payload: dict = {"check": args.verify}
    if args.verify in ("dissection", "triangulation"):
        rep = verify_dissection(g, shelling(g, enumerate_jaeger_trees(g, VCUT)))
        payload.update(rep)
        ok = rep["is_dissection"] if args.verify == "dissection" else rep["is_triangulation"]
    elif args.verify == "shelling":
        steps = shelling(g, enumerate_jaeger_trees(g, VCUT))
        h = shelling_h_vector(steps)
        payload["h_vector"] = list(h)
        interior = interior_polynomial(g, EMERALD)
        payload["interior"] = interior.to_json()
        ok = h == interior.coeffs
        if len(g.edge_ids) <= GEOMETRY_EDGE_LIMIT:
            geo = geometric_shelling_check(g, steps)
            payload["geometric"] = geo
            ok = ok and geo["ok"]
        else:
            payload["geometric"] = {"status": "skipped",
                                    "reason": f"more than {GEOMETRY_EDGE_LIMIT} edges"}
    else:  # ehrhart or kato
        d = len(g.nodes) - 2
        kmax = args.kmax
        if kmax is None:
            kmax = d + (2 if args.verify == "ehrhart" else KATO_EXTRA)
        elif kmax < d:
            raise ValueError(f"--kmax {kmax} is below d = |V| - 2 = {d}")
        interior = interior_polynomial(g, EMERALD)
        payload["interior"] = interior.to_json()
        if args.verify == "ehrhart":
            values = ehrhart_values(g, kmax)
            fit = ehrhart_fit(values, d, interior)
            payload.update(fit, values=values)
            ok = fit["ok"]
        else:
            ok = kato_series_check(interior.coeffs, g, kmax)
            payload["order"] = kmax
    payload["ok"] = ok
    _emit(args, payload, f"{args.verify}: {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_THEOREM_FAILURE


def _report_exit(args, report: CampaignReport) -> int:
    _emit(args, report.to_json(), report.summary())
    if report.failed:
        return EXIT_THEOREM_FAILURE
    if report.flagged:
        return EXIT_CONJECTURE_FLAG
    return EXIT_PASS


def cmd_verify(args) -> int:
    g = _load_graph(args)
    report = campaign_verify_all(g, max_edges=args.max_edges,
                                 rng_seed=args.seed)
    return _report_exit(args, report)


def cmd_fuzz(args) -> int:
    if args.jobs < 1 or args.instances < 1:
        raise ValueError("--jobs and --instances must be at least 1")
    jobs = min(args.jobs, args.instances)  # an idle worker is a wasted fork
    mapper = map
    if jobs > 1:
        import multiprocessing

        def mapper(func, seeds):
            # started only once fuzz_conjectures has checked the bounds
            with multiprocessing.Pool(jobs) as pool:
                return pool.map(func, seeds)  # map keeps the seed order
    report = fuzz_conjectures(range(args.seed, args.seed + args.instances),
                              max_nodes=args.max_nodes, max_edges=args.max_edges,
                              graphs_only=args.graphs_only, mapper=mapper)
    report.seed = args.seed
    return _report_exit(args, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbernardi",
        description="Bernardi processes, Jaeger trees and root-polytope "
                    "verification on ribbon bipartite graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summary of a graph document")
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("hypertrees", help="enumerate hypertrees on one side")
    _add_common(p)
    p.add_argument("--side", choices=["E", "V"], default="E")
    p.set_defaults(func=cmd_hypertrees)

    for which in ("interior", "exterior"):
        p = sub.add_parser(which, help=f"{which} polynomial")
        _add_common(p)
        p.add_argument("--side", choices=["E", "V"], default="E")
        p.set_defaults(func=lambda a, w=which: _cmd_polynomial(a, w))

    p = sub.add_parser("bernardi", help="run one Bernardi process")
    _add_common(p)
    p.add_argument("--hypertree", required=True,
                   help="literal like e0=1,e1=0,e2=0,e3=2")
    p.add_argument("--variant", required=True,
                   choices=["htE-cutV", "htE-cutE", "htV-cutV", "htV-cutE"])
    p.add_argument("--trace", action="store_true", help="print the step table")
    p.set_defaults(func=cmd_bernardi)

    p = sub.add_parser("jaeger", help="enumerate Jaeger trees")
    _add_common(p)
    p.add_argument("--cut", choices=["V", "E"], default="V")
    p.add_argument("--list", action="store_true")
    p.add_argument("--orders", action="store_true")
    p.add_argument("--characterize", action="store_true")
    p.set_defaults(func=cmd_jaeger)

    p = sub.add_parser("polytope", help="root-polytope verification")
    _add_common(p)
    p.add_argument("--verify", required=True,
                   choices=["dissection", "triangulation", "shelling",
                            "ehrhart", "kato"])
    p.add_argument("--cut", choices=["V", "E"], default="V")
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("verify", help="full theorem campaign on one graph")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the shuffled class orders")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz", help="conjecture fuzzing on random instances")
    _add_common(p, graph=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per instance")
    p.add_argument("--instances", type=int, default=100, help="at least 1")
    p.add_argument("--max-nodes", type=int, default=4,
                   help="per-class node bound for random instances")
    p.add_argument("--graphs-only", action="store_true",
                   help="subdivisions of ordinary graphs only")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_THEOREM_FAILURE
    except (AssertionError, RuntimeError) as exc:
        # after TheoremViolation, which is an AssertionError
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
