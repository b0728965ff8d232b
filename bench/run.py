"""Benchmark for the hyperbernardi library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root.  Set-up (import, instance generation and
serialization) is repeated at least SETUP_REPS times and its median
reported.  An untraced run then makes whole rounds until another round
would overrun ``--seconds`` (at least one) and reports the medians over
rounds of the end-to-end metrics.  A round is REPEATS passes over the
instances, each in a fresh seeded order, and times every instance at its
fastest run; instances slower than REPEAT_LIMIT_S run once.  Between
runs a fixed kernel probes the machine's speed, and every time is
reported at the reference speed (see Probe); raw times go to ``--out``.
A traced run makes one untraced round, wraps the library's public
functions (see tracer.py), makes one traced pass and reports the
per-layer metrics.  Every run's verdict is checked against
``expected/<workload>.json`` and against answers known independently;
any mismatch makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
metrics that BENCHMARK.json lists for the mode.  ``--out`` writes the
full result (run record, every metric, trace breakdown) as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
from workloads import (WORKLOADS, canonical, digest, independent_problems,  # noqa: E402
                       verdict, work_size)

PACKAGE = "hyperbernardi"
MODULES = ("graph", "hypertree", "bernardi", "jaeger", "polytope", "exactla",
           "campaign", "docio", "generators", "fixtures")
SETUP_REPS = 5
SETUP_BUDGET_S = 2.0
REPEATS = 5
REPEAT_LIMIT_S = 1.0
# machine-speed probe: a fixed pure-Python kernel, run between timed runs
PROBE_EVERY_S = 0.2         # at most this long between two probes
PROBE_WINDOW_S = 2.0        # probes this close to a run set its speed
PROBE_REF_S = 0.0035        # the kernel's median time when this was written
# tail percentile, in tenths of a percent: the highest of these with at
# least TAIL_BEYOND samples beyond it
TAIL_LEVELS = (999, 990, 950, 900, 750, 500, 250)
TAIL_BEYOND = 10
EXIT_INCORRECT = 1
EXIT_SETUP = 2


class SetupError(Exception):
    """The benchmark cannot run here: no program, or no recorded verdicts."""


def load_program() -> SimpleNamespace:
    """Import the library afresh from ``src/``; returns its modules."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    src = ROOT / "src"
    try:
        hb = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                                for m in MODULES})
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {src}: {exc}") from exc
    if not Path(hb.graph.__file__).resolve().is_relative_to(src):
        raise SetupError(f"{PACKAGE} was imported from {hb.graph.__file__}, not {src}")
    return hb


def _kernel() -> int:
    """A few milliseconds of tuple, dict and frozenset work over a few
    megabytes, which slows down with this library when the machine does."""
    xs = [(i, i * 7 % 1013, str(i)) for i in range(6000)]
    d = {x[1] * 10007 + x[0]: x for x in xs}
    s = 0
    for k in range(0, 6000 * 10007, 3 * 10007):
        s += len(d.get(k + (k // 10007) % 6000, ()))
    return s + len(frozenset(x[1] for x in xs))


class Probe:
    """Machine speed over time, from the kernel run on a timer.

    The speed of a shared machine drifts by a third for tens of seconds
    at a time, which no repetition within one run removes.  While the
    probe is active, a SIGALRM every PROBE_EVERY_S times the kernel, also
    in the middle of a timed run, whose time then leaves out the probe's
    (see ``stolen``).  A run is reported at the reference speed:
    multiplied by PROBE_REF_S over the median kernel time of the probes
    within PROBE_WINDOW_S, or half the run's length, of the run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.stolen = 0.0           # seconds spent probing, to subtract
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """(start, seconds of ``fn()`` without probing, result)."""
        stolen, t0 = self.stolen, time.perf_counter()
        result = fn()
        return t0, time.perf_counter() - t0 - (self.stolen - stolen), result

    def scale(self, start: float, end: float) -> float:
        if not self.took:
            return 1.0
        window = max(PROBE_WINDOW_S, (end - start) / 2)
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        return PROBE_REF_S / statistics.median(self.took[lo:hi] or self.took)


def setup(workload, probe: Probe):
    """Import, generate and serialize at least SETUP_REPS times and until
    SETUP_BUDGET_S is spent; keep the last.  Returns the repetitions'
    raw times and the same at the reference speed."""
    def once():
        hb = load_program()
        return hb, workload.build(hb)

    spans = []
    while len(spans) < SETUP_REPS or sum(d for _, d in spans) < SETUP_BUDGET_S:
        t0, dt, (hb, instances) = probe.timed(once)
        spans.append((t0, dt))
    raw = [d for _, d in spans]
    return hb, instances, raw, [d * probe.scale(t, t + d) for t, d in spans]


def expected_path(name: str) -> Path:
    return HERE / "expected" / f"{name}.json"


def inputs_sha256(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.name.encode() + b"\0" + inst.doc.encode() + b"\0")
    return h.hexdigest()


def load_expected(name: str, instances) -> tuple[list[str], dict]:
    """Recorded canonical verdicts, one per instance in build order, and
    the recorded work size."""
    path = expected_path(name)
    try:
        rec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read recorded verdicts {path}: {exc}") from exc
    if rec["inputs_sha256"] != inputs_sha256(instances):
        raise SetupError(f"{path} was recorded for other inputs")
    return [rec["verdicts"][k] for k in rec["index"]], rec["work"]


def run_instance(hb, workload, inst, want, probe: Probe):
    """One timed run of parse + check: (start, seconds, graph, verdict,
    problems).  ``want`` is the recorded canonical verdict, or None."""
    g = None

    def unit():
        nonlocal g
        g = hb.docio.parse_graph(inst.doc)
        return workload.unit(hb, g)

    t_fail = time.perf_counter()
    try:
        t0, dt, report = probe.timed(unit)
        v = verdict(report)
    except Exception as exc:  # an instance that raises is an error, not a crash
        return t_fail, time.perf_counter() - t_fail, g, None, [f"{type(exc).__name__}: {exc}"]
    problems = independent_problems(inst, v)
    if want is not None and canonical(v) != want:
        problems.append(f"verdict {digest(v)} != recorded "
                        f"{digest(json.loads(want))}: {canonical(v)}")
    return t0, dt, g, v, problems


def time_metrics(best: list[float]) -> dict:
    wall = sum(best)
    return {"wall_s": wall,
            "instances_per_s": len(best) / wall,
            "instance_p50_ms": statistics.median(best) * 1000,
            "instance_tail_ms": tail(best)[1] * 1000}


@dataclass
class Round:
    """Passes over the instances, each in a fresh seeded order.  Times are
    per instance: its fastest run, at the reference speed and raw."""
    best: list[float]
    raw_best: list[float]
    first: list[float]          # the run in the first pass, raw
    runs: int
    failed: int
    problems: list[dict]
    verdicts: list
    elapsed: float


def run_round(hb, workload, instances, rng, expected, passes, probe: Probe,
              tracer=None) -> Round:
    """Time every instance once per pass; an instance slower than
    REPEAT_LIMIT_S runs in the first pass only.  Each run starts from a
    collected heap; what survives is frozen, so that collecting costs the
    same on every run."""
    n = len(instances)
    verdicts = [None] * n
    timed = []                  # (instance, start, seconds)
    fastest = [float("inf")] * n
    problems, failed = [], 0
    t0 = time.perf_counter()
    for p in range(passes):
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            if p and fastest[i] > REPEAT_LIMIT_S:
                continue
            inst = instances[i]
            g = v = None
            gc.collect()
            gc.freeze()
            start, dt, g, v, probs = run_instance(
                hb, workload, inst, expected[i] if expected else None, probe)
            timed.append((i, start, dt))
            fastest[i] = min(fastest[i], dt)
            verdicts[i] = v
            if probs:
                failed += 1
                problems.append({"instance": inst.name, "error": "; ".join(probs)})
            if tracer is not None:
                tracer.end_instance(inst.name if workload.per_instance else None, g)
    elapsed = time.perf_counter() - t0
    best, first = [float("inf")] * n, [0.0] * n
    for i, start, dt in timed:
        best[i] = min(best[i], dt * probe.scale(start, start + dt))
        first[i] = first[i] or dt
    return Round(best, fastest, first, len(timed), failed, problems, verdicts, elapsed)


def tail(samples):
    """(percentile, value): the highest TAIL_LEVELS percentile with at
    least TAIL_BEYOND samples beyond it, by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    for level in TAIL_LEVELS:
        rank = max(1, -(-level * n // 1000))
        if n - rank >= TAIL_BEYOND:
            return level / 10, xs[rank - 1]
    return 0.0, xs[0]


def run_record(workload, args, n_instances, rounds, attempted, failed, work):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src_sha256(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
        "instances": n_instances,
        "rounds": rounds,
        "passes_per_round": REPEATS,
        "attempted": attempted,
        "failed": failed,
        "work": work,
    }


def git_commit():
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layer_metrics(tr: tracing.Tracer, untraced_wall: float, traced_wall: float):
    """Every per-layer value the trace gives, by BENCHMARK.json name."""
    c, s = tr.counts, tr.self_s

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{span}.self_s": v for span, v in s.items()}
    values.update(c)
    values.update({
        "graph.spanning_trees.yield_ratio": ratio(
            c["graph.spanning_trees.trees"], c["graph.spanning_trees.subsets"]),
        "hypertree.enumerate_hypertrees.distinct_ratio": ratio(
            c["hypertree.enumerate_hypertrees.distinct"],
            c["hypertree.enumerate_hypertrees.calls"]),
        "hypertree.oracle.hit_ratio": ratio(
            c["hypertree.oracle.calls"] - c["hypertree.oracle.searches"],
            c["hypertree.oracle.calls"]),
        "bernardi.run_bernardi.distinct_ratio": ratio(
            c["bernardi.run_bernardi.distinct"], c["bernardi.run_bernardi.calls"]),
        "hypertree.feas_cache.max_entries": tr.feas_cache_max,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": tr.spans,
    })
    return values


def trace_breakdown(tr: tracing.Tracer, traced_wall: float) -> dict:
    layers: dict[str, float] = {}
    for span, v in tr.self_s.items():
        layer = span.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + v
    return {
        "layer_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        "layer_share": {k: v / traced_wall for k, v in
                        sorted(layers.items(), key=lambda kv: -kv[1])},
        "by_caller": [{"span": span, "caller": caller, "self_s": v}
                      for (span, caller), v in
                      sorted(tr.by_caller.items(), key=lambda kv: -kv[1])],
        "by_instance": tr.by_instance,
        "missing": tr.missing,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(spec_metrics, values: dict) -> dict:
    """The metrics BENCHMARK.json names, in its order and units."""
    out = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise KeyError(f"benchmark produced no value for {m['name']!r}")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    rng = random.Random(args.seed)
    probe = Probe()
    with probe:
        try:
            spec = benchmark_spec()
            hb, instances, setup_raw, setup_times = setup(workload, probe)
            expected, recorded_work = load_expected(workload.name, instances)
        except (SetupError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SETUP
        # whole rounds while another one fits in --seconds, by elapsed time
        rounds = []
        while not rounds or (not args.trace and sum(r.elapsed for r in rounds)
                             + rounds[-1].elapsed <= args.seconds):
            rounds.append(run_round(hb, workload, instances, rng, expected,
                                    REPEATS, probe))
    work = work_size(hb, instances, rounds[0].verdicts)
    problems = []
    if work != recorded_work:
        problems.append({"instance": "*",
                         "error": f"work size {work} != recorded {recorded_work}"})

    tr = traced = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(hb, tr)
        workload.build(hb)          # traced generation, for generators.self_s
        tr.end_instance(None)
        traced = run_round(hb, workload, instances, rng, expected, 1, probe, tr)

    done = rounds + ([traced] if traced else [])
    attempted = sum(r.runs for r in done)
    failed = sum(r.failed for r in done)
    problems += [p for r in done for p in r.problems]
    per_round = [time_metrics(r.best) for r in rounds]
    raw_per_round = [time_metrics(r.raw_best) for r in rounds]

    def medians(setup_s, rows):
        out = {"setup_s": statistics.median(setup_s)}
        out.update({k: statistics.median(m[k] for m in rows) for k in rows[0]})
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["error_share"] = failed / attempted
        return out
    end_to_end = medians(setup_times, per_round)
    result = {
        "record": run_record(workload, args, len(instances), len(rounds),
                             attempted, failed, work),
        "end_to_end": end_to_end,
        "raw_end_to_end": medians(setup_raw, raw_per_round),
        "tail": {"percentile": tail(rounds[0].best)[0], "samples": len(instances)},
        "probe": {"samples": len(probe.took), "ref_s": PROBE_REF_S,
                  "median_s": statistics.median(probe.took)},
        "setup_samples_s": setup_times,
        "setup_raw_s": setup_raw,
        "rounds": per_round,
        "raw_rounds": raw_per_round,
        "errors": problems[:50],
    }
    if workload.per_instance:
        result["instance_best_s"] = {inst.name: t for inst, t in
                                     zip(instances, rounds[0].best)}
    if args.trace:
        traced_wall = sum(traced.raw_best)
        result["per_layer"] = layer_metrics(tr, sum(rounds[0].first), traced_wall)
        result["trace"] = trace_breakdown(tr, traced_wall)

    metrics = select(spec["per_layer"] if args.trace else spec["end_to_end"],
                     result["per_layer"] if args.trace else end_to_end)
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    result["result"] = line
    print_summary(result, spec)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if not problems else EXIT_INCORRECT


def print_summary(result: dict, spec: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"python {rec['python']}  nproc {rec['nproc']}  {rec['platform']}")
    print(f"commit {rec['commit']}  src {rec['src_sha256'][:16]}")
    print(f"instances {rec['instances']}  rounds {rec['rounds']}  "
          f"attempted {rec['attempted']}  failed {rec['failed']}")
    print("work " + "  ".join(f"{k} {v}" for k, v in rec["work"].items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_share"] = "ratio"
    for name, value in result["end_to_end"].items():
        note = ""
        if name == "instance_tail_ms":
            t = result["tail"]
            note = f"  (p{t['percentile']:g} of {t['samples']} instances)"
        print(f"  {name:<18} {value:>14.6f} {units[name]}{note}")
    if "trace" in result:
        if result["trace"]["missing"]:
            print("  not traced (missing): " + " ".join(result["trace"]["missing"]))
        for layer, share in result["trace"]["layer_share"].items():
            print(f"  layer {layer:<12} {share:7.1%} of traced wall")
        for name, value in result["per_layer"].items():
            print(f"  {name:<48} {value:>16.6f}")
    for e in result["errors"][:10]:
        print(f"ERROR {e['instance']}: {e['error']}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
