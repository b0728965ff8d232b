"""Benchmark workloads: their instances, the timed unit, and the verdict
that every run is checked against.

An instance is a name plus the serialized graph document.  The timed
unit parses the document and runs the workload's public entry point
(the full theorem campaign or the conjecture check) on it.  Every
instance set is fixed, so that its verdicts can be recorded once in
``expected/<workload>.json``, and so that every seed does the same work;
the workload seed draws the order of each pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

PASS = "pass"
SKIP = "skipped"

# one ladder campaign may hold K4,5 (20 edges); the library default is 14
LADDER_MAX_EDGES = 20


@dataclass
class Instance:
    name: str
    doc: str
    # answers known independently of any recorded digest
    expect_interior: list | None = None
    expect_hypertrees: int | None = None


@dataclass
class Workload:
    name: str
    build: object          # build(hb) -> list[Instance]
    unit: object           # unit(hb, g) -> CampaignReport
    # report each instance's time and traced layers; only for short lists
    per_instance: bool = False


def _ladder(hb):
    fx, gen = hb.fixtures, hb.generators
    ser = hb.docio.serialize_graph
    out = [Instance("running", ser(fx.running_graph().graph),
                    expect_interior=[1, 3, 3]),
           Instance("c4", ser(fx.c4().graph))]
    for m, n in ((2, 2), (2, 3), (3, 3), (3, 4)):
        out.append(Instance(f"K{m + 1},{n + 1}", ser(fx.noncrossing_setup(m, n)),
                            expect_hypertrees=math.comb(m + n, m)))
    for s in range(10):
        out.append(Instance(f"rb5x5-16/s{s}",
                            ser(gen.random_bipartite(s, 5, 5, 16))))
    return out


FUZZ_BIPARTITE_INSTANCES = 2000
FUZZ_GRAPHS_INSTANCES = 100


def _fuzz_bipartite(hb):
    ser, rb = hb.docio.serialize_graph, hb.generators.random_bipartite
    return [Instance(f"rb4x4-10/s{s}", ser(rb(s, 4, 4, 10)))
            for s in range(FUZZ_BIPARTITE_INSTANCES)]


def _fuzz_graphs(hb):
    ser, ro, bip = (hb.docio.serialize_graph, hb.generators.random_ordinary,
                    hb.graph.bip)
    return [Instance(f"bip-ro6-9/s{s}", ser(bip(ro(s, 6, 9))))
            for s in range(FUZZ_GRAPHS_INSTANCES)]


def _campaign(hb, g):
    return hb.campaign.campaign_verify_all(g, max_edges=LADDER_MAX_EDGES)


def _conjectures(hb, g):
    return hb.campaign.check_conjectures(g)


WORKLOADS = {w.name: w for w in (
    # why each workload is here: README.md and BENCHMARK.json
    Workload("verify-ladder", _ladder, _campaign, per_instance=True),
    Workload("fuzz-bipartite", _fuzz_bipartite, _conjectures),
    Workload("fuzz-graphs", _fuzz_graphs, _conjectures),
)}


# -- verdicts ----------------------------------------------------------------

def _poly(check: dict | None):
    """The classical polynomial a conjecture check compared against."""
    if check is None:
        return None
    return check["polynomial"] if check["status"] == PASS else check["expected"]


def verdict(report) -> dict:
    """The part of a report that must not change between commits: check
    names and statuses, interior and exterior coefficients, hypertree
    and Jaeger counts.  Additive report fields do not enter it."""
    by_name = {c["name"]: c for c in report.checks}
    interior = _poly(by_name.get("conjecture-interior-cutV"))
    counts = by_name.get("hypertree-counts-equal")
    jaeger = by_name.get("bernardi-equals-jaeger")
    return {
        "checks": [[c["name"], c["status"]] for c in report.checks],
        "interior": interior,
        "exterior": _poly(by_name.get("conjecture-exterior-cutE")),
        "hypertrees": ([counts["emerald"], counts["violet"]] if counts
                       else [sum(interior)] if interior else None),
        "jaeger": [jaeger["vcut"], jaeger["ecut"]] if jaeger else None,
    }


def canonical(v: dict) -> str:
    return json.dumps(v, sort_keys=True, separators=(",", ":"))


def digest(v: dict) -> str:
    return hashlib.sha256(canonical(v).encode()).hexdigest()[:16]


def independent_problems(inst: Instance, v: dict) -> list[str]:
    """Answers that hold at any commit, whatever was recorded."""
    problems = [f"{name}: {status}" for name, status in v["checks"]
                if status not in (PASS, SKIP)]
    if inst.expect_interior is not None and v["interior"] != inst.expect_interior:
        problems.append(f"interior {v['interior']} != {inst.expect_interior}")
    if inst.expect_hypertrees is not None:
        want = inst.expect_hypertrees
        if v["hypertrees"] != [want, want]:
            problems.append(f"hypertrees {v['hypertrees']} != [{want}, {want}]")
        if v["interior"] is None or sum(v["interior"]) != want:
            problems.append(f"interior coefficients do not sum to {want}")
    return problems


def work_size(hb, instances, verdicts) -> dict:
    """Input size of one pass; repeats exactly while the inputs do."""
    subsets = trees = 0
    for inst in instances:
        g = hb.docio.parse_graph(inst.doc)
        subsets += math.comb(len(g.edge_ids), len(g.nodes) - 1)
        trees += g.count_spanning_trees()
    hypertrees = sum(v["hypertrees"][0] for v in verdicts
                     if v is not None and v["hypertrees"])
    return {"candidate_subsets": subsets, "kirchhoff_trees": trees,
            "hypertrees": hypertrees}
