"""Record the verdicts every later benchmark run is checked against.

    python3 bench/record.py [WORKLOAD ...]

Runs each workload's instances once and writes
``bench/expected/<workload>.json``: the distinct canonical verdicts, the
verdict index of each instance, a hash of the inputs and the work size.
Refuses to record a verdict that fails an independently known answer.
"""

from __future__ import annotations

import json
import random
import sys

from run import Probe, expected_path, inputs_sha256, load_program, run_round
from workloads import WORKLOADS, canonical, work_size


def record(workload) -> dict:
    hb = load_program()
    instances = workload.build(hb)
    done = run_round(hb, workload, instances, random.Random(0), None, 1, Probe())
    if done.problems:
        raise SystemExit("\n".join(f"{p['instance']}: {p['error']}"
                                    for p in done.problems))
    distinct: dict[str, int] = {}
    index = [distinct.setdefault(canonical(v), len(distinct)) for v in done.verdicts]
    return {
        "workload": workload.name,
        "instances": len(instances),
        "inputs_sha256": inputs_sha256(instances),
        "work": work_size(hb, instances, done.verdicts),
        "verdicts": list(distinct),
        "index": index,
    }


def render(rec: dict) -> str:
    """JSON with one verdict per line and the index on one line."""
    head = {k: v for k, v in rec.items() if k not in ("verdicts", "index")}
    lines = [json.dumps(head)[:-1] + ',', '"verdicts": [']
    lines += [json.dumps(v) + "," for v in rec["verdicts"]]
    lines[-1] = lines[-1][:-1]
    lines += ['],', '"index": ' + json.dumps(rec["index"]), '}']
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    for name in argv or sorted(WORKLOADS):
        rec = record(WORKLOADS[name])
        path = expected_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(render(rec))
        print(f"{name}: {rec['instances']} instances, "
              f"{len(rec['verdicts'])} distinct verdicts, work {rec['work']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
