"""The benchmark's recorded verdicts, recomputed for every workload.

``bench/workloads.py`` builds each workload's instances and reduces each
report to its verdict; ``bench/expected/<workload>.json`` holds the
verdicts recorded for them.  Both files are only read here.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def assert_verdicts_match_the_recording(monkeypatch, name):
    workloads = load_workloads(monkeypatch)
    hb = SimpleNamespace(campaign=campaign, docio=docio, fixtures=fixtures,
                         generators=generators, graph=graph)
    workload = workloads.WORKLOADS[name]
    rec = json.loads((BENCH / "expected" / f"{name}.json").read_text())
    instances = workload.build(hb)
    assert len(instances) == rec["instances"] == len(rec["index"])
    for inst, k in zip(instances, rec["index"]):
        report = workload.unit(hb, docio.parse_graph(inst.doc))
        got = workloads.canonical(workloads.verdict(report))
        assert got == rec["verdicts"][k], inst.name


def test_verify_ladder_verdicts_match_the_recording(monkeypatch):
    assert_verdicts_match_the_recording(monkeypatch, "verify-ladder")


@pytest.mark.parametrize("name", ["fuzz-bipartite", "fuzz-graphs"])
def test_fuzz_verdicts_match_the_recording(monkeypatch, name):
    assert_verdicts_match_the_recording(monkeypatch, name)


def test_workload_documents_round_trip(monkeypatch):
    """Every document of the three workloads is what ``serialize_graph``
    writes for the graph that ``parse_graph`` reads from it."""
    workloads = load_workloads(monkeypatch)
    hb = SimpleNamespace(docio=docio, fixtures=fixtures, generators=generators,
                         graph=graph)
    for workload in workloads.WORKLOADS.values():
        for inst in workload.build(hb):
            assert docio.serialize_graph(docio.parse_graph(inst.doc)) == inst.doc, inst.name
