"""The repository benchmark: one command, two seeded workloads, every
answer checked.  See perfbench/README.md.

    python3 perfbench/run.py --workload complete-zipf --seed 1 --seconds 25 \
        --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics named in BENCHMARK.json, ``--trace 1`` the per-layer ones.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
0 when every answer matched its reference and every premise of the
workload held, 1 otherwise, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from bench_util import environment
    from bench_workloads import WORKLOADS, Context

    ctx = Context(ROOT, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    try:
        WORKLOADS[args.workload](ctx)
    finally:
        ctx.cleanup()
    res = ctx.result

    # error_rate is 0 on a healthy run; the end-to-end set carries its
    # complement, ok_rate, because a bound needs a nonzero base.
    res.put("ok_rate", 1.0 - res.failed / max(1, res.attempted), "ratio")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit = res.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, "
                               f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    correct = res.failed == 0 and res.premises_hold
    record = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "attempted": res.attempted, "failed": res.failed,
        "error_rate": res.failed / max(1, res.attempted),
        "failures": res.failures, "premises": res.premises,
        "environment": environment(ROOT, args.seed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(res.metrics.items())},
        "details": res.details,
    }
    runs = os.path.join(ROOT, ".perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    for name, premise in res.premises.items():
        state = "holds" if premise["holds"] else "FAILS"
        facts = ", ".join(f"{k}={v}" for k, v in premise.items()
                          if k != "holds")
        print(f"premise {state}: {name} ({facts})")
    for failure in res.failures:
        print(f"FAILED: {failure}")
    print(f"details: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
