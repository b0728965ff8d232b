"""The benchmark's recorded ``verify-ladder`` verdicts, recomputed.

``bench/workloads.py`` builds the ladder instances and reduces each
campaign report to its verdict; ``bench/expected/verify-ladder.json``
holds the verdicts recorded for them.  Both files are only read here.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from hyperbernardi import campaign, docio, fixtures, generators, graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads(monkeypatch):
    """bench/workloads.py as a module; its dataclasses need it listed in
    sys.modules while it runs."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_verify_ladder_verdicts_match_the_recording(monkeypatch):
    workloads = load_workloads(monkeypatch)
    hb = SimpleNamespace(campaign=campaign, docio=docio, fixtures=fixtures,
                         generators=generators, graph=graph)
    ladder = workloads.WORKLOADS["verify-ladder"]
    rec = json.loads((BENCH / "expected" / "verify-ladder.json").read_text())
    instances = ladder.build(hb)
    assert len(instances) == rec["instances"] == len(rec["index"])
    for inst, k in zip(instances, rec["index"]):
        report = ladder.unit(hb, docio.parse_graph(inst.doc))
        got = workloads.canonical(workloads.verdict(report))
        assert got == rec["verdicts"][k], inst.name
