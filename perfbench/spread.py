"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload complete-zipf --seeds 1-10

Runs the benchmark once per seed (sequentially, untraced), then prints
for every end-to-end metric its median and its interquartile range as a
share of the median -- the figure each metric's ``bound`` in
BENCHMARK.json must stay above.  Raw results go to
``.perfbench/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] \
                if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                status = 1
                continue
            runs.append({"seed": seed, "result": json.loads(last)})
            print(f"{workload} seed {seed}: ok", flush=True)
        out = os.path.join(ROOT, ".perfbench", f"spread-{workload}.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        if len(runs) < 4:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"{'metric':<24}{'median':>12}{'iqr/median':>12}"
              f"{'bound':>8}")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 \
                else "  <-- above a third of the bound"
            print(f"{name:<24}{q2:>12.4g}{spread:>12.4f}"
                  f"{bounds[name]:>8}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
