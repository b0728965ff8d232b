"""Compare two sets of benchmark result files, a parent and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the files ``bench/run.py --out`` wrote.  Untraced
results are compared on the end-to-end metrics, traced ones on the
per-layer metrics.  Runs pair up by workload and seed.  For each
workload and metric the table gives both sides' medians and quartiles,
the share of pairs the change won (ties count for neither) and a verdict:

- improved: the change won at least 9/10 of the pairs and the medians
  differ, in its favour, by more than the parent's quartile spread;
- unresolved: a side's quartile spread exceeds the metric's bound, and
  not every change run beats every parent run;
- worse: the change median is worse than the parent's by more than the
  bound;
- within bound: otherwise.

Metrics without a bound (per-layer metrics, error_share) read improved,
worse (the mirror of improved), same (every value identical) or
unresolved.  A warning marks runs whose work sizes differ.  Exits 1 when
any metric reads worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory: str) -> dict:
    """{(workload, trace): {seed: result}}"""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        rec = result["record"]
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = result
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def judge(parent, change, pairs, better, bound):
    """(share of pairs won, verdict) for one metric."""
    sign = 1 if better == "lower" else -1

    def gain(p, c):                       # > 0 when the change is better
        return sign * (p - c)

    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    losses = sum(1 for p, c in pairs if gain(p, c) < 0)
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = p3 - p1
    if won >= WIN_SHARE and gain(pm, cm) > spread:
        return won, "improved"
    if bound is None:
        if pairs and losses / len(pairs) >= WIN_SHARE and gain(pm, cm) < -spread:
            return won, "worse"
        if len(set(parent) | set(change)) == 1:
            return won, "same"
        return won, "unresolved"
    all_better = min(gain(p, c) for p in parent for c in change) > 0
    widest = max(spread / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if widest > bound and not all_better:
        return won, "unresolved"
    if pm and -gain(pm, cm) / abs(pm) > bound:
        return won, "worse"
    return won, "within bound"


def compare(parent_dir: str, change_dir: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    end_to_end["error_share"] = {"name": "error_share", "unit": "ratio",
                                 "better": "lower"}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"\n{workload}  trace {trace}: {len(p_runs)} parent runs, "
              f"{len(c_runs)} change runs, {len(seeds)} pairs by seed")
        works = {json.dumps(r["record"]["work"], sort_keys=True)
                 for r in list(p_runs.values()) + list(c_runs.values())}
        if len(works) > 1:
            print(f"  WARNING: work size differs between runs: {sorted(works)}")
        section, metrics = (("per_layer", per_layer) if trace
                            else ("end_to_end", end_to_end))
        print(f"  {'metric':<46} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
        for name, m in metrics.items():
            p = [r[section][name] for r in p_runs.values()]
            c = [r[section][name] for r in c_runs.values()]
            pairs = [(p_runs[s][section][name], c_runs[s][section][name]) for s in seeds]
            won, verdict = judge(p, c, pairs, m["better"], m.get("bound"))
            worse += verdict == "worse"
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:<46} {fmt(pq):>34} {fmt(cq):>34} {won:>5.0%}  {verdict}")
    return 1 if worse else 0


def fmt(q) -> str:
    q1, med, q3 = q
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(compare(sys.argv[1], sys.argv[2]))
