"""Measure every workload in two sets of runs and write bench/baseline.json.

    python3 bench/baseline.py

Each set runs every workload untraced RUNS times, seeds 1 to RUNS, for
``run_seconds`` of ``BENCHMARK.json``; then each workload runs once traced
(seed 1) for the layer shares.  For every end-to-end metric the file holds,
per set, the median, the quartiles and the spread (interquartile range over
median) as ``statistics.quantiles(values, n=4)`` gives them, and how far the
second set's median moved from the first's, as a share of the first.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
RUNS = 10
SETS = 2


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=200,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    result = {"runs": RUNS, "seconds": SECONDS, "workloads": {w: {"failed": 0, "sets": []} for w in workloads}}
    for s in range(SETS):
        for workload in workloads:
            values: dict[str, list[float]] = {}
            for seed in range(1, RUNS + 1):
                res, lines = run(workload, seed, 0)
                result["workloads"][workload]["failed"] += res["failed"]
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(s, workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
            result["env"] = next(line for line in lines if line.startswith("env "))
            result["workloads"][workload]["sets"].append({name: summary(v) for name, v in values.items()})
    for workload in workloads:
        entry = result["workloads"][workload]
        first, last = entry["sets"][0], entry["sets"][-1]
        entry["median_moved"] = {k: last[k]["median"] / first[k]["median"] - 1.0 for k in first}
        traced, _ = run(workload, 1, 1)
        entry["shares"] = {k: m["value"] for k, m in traced["metrics"].items() if k.startswith("share.")}
        entry["trace_overhead_frac"] = traced["metrics"]["trace_overhead_frac"]["value"]
        for name in first:
            spreads = " ".join(f"{s[name]['spread']:.4f}" for s in entry["sets"])
            print(f"{workload} {name}: median {first[name]['median']:.6g} spreads {spreads} "
                  f"moved {entry['median_moved'][name]:+.4f}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
