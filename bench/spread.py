"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads scan settle --seeds 10 [--out FILE]

For every workload and metric prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to a third of the metric's bound from
BENCHMARK.json. Runs use the command and run_seconds of BENCHMARK.json,
one at a time. --out writes every run's result line, the summary and the
machine's provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from proc import ROOT


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    provenance = None
    for workload in args.workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = next((json.loads(line.split(": ", 1)[1]) for line in lines
                               if line.startswith("provenance: ")), provenance)
            result.update(seed=seed, exit=done.returncode,
                          run_s=round(time.perf_counter() - started, 2))
            runs[workload].append(result)
            print(f"{workload} seed {seed}: exit {done.returncode} correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"in {result['run_s']} s", flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
            print(f"  {workload:7s} {name:45s} median {median:<12.6g} spread {spread:.4f}{limit}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump({"provenance": provenance, "run_seconds": spec["run_seconds"],
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
