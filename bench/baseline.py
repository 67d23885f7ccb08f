#!/usr/bin/env python3
"""Record a baseline: every workload on several seeds, plus one traced run.

Usage (from the repository root)::

    python3 bench/baseline.py --seeds 1-10 --repeat-seeds 11-20 --out bench/baseline_seed.json

For each workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed with tracing off and once (first seed) with tracing on, then writes
per end-to-end metric the median, the quartiles, the spread (distance
between the quartiles over the median, as ``statistics.quantiles(n=4)``
gives them) and the sample count, with the per-layer metrics of the
traced run. A run that fails its checks is recorded and counted.

With ``--repeat-seeds`` a second set of runs of the same code is made,
interleaved with the first (seed i of the first set, then seed i of the
second), so that both sets see the same machine; the record then also
holds the second set's summary and, per metric, the shift of its median
against the first set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--repeat-seeds", help="a second set, run interleaved, e.g. 11-20")
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]
    seeds = seeds_of(args.seeds)
    repeat = seeds_of(args.repeat_seeds) if args.repeat_seeds else []
    record = {"seeds": seeds, "repeat_seeds": repeat, "run_seconds": contract["run_seconds"],
              "workloads": {}}
    for workload in workloads:
        runs, repeat_runs = [], []
        for i, seed in enumerate(seeds):
            for results, s in ((runs, seed), (repeat_runs, repeat[i] if i < len(repeat) else None)):
                if s is not None:
                    results.append(bench(workload, s, contract["run_seconds"], 0))
                    print(workload, s, json.dumps(results[-1]), flush=True)
        traced = bench(workload, seeds[0], contract["run_seconds"], 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}

        def end_to_end_of(results: list[dict]) -> dict:
            return {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in results])
                    for m in contract["end_to_end"]}

        end_to_end = end_to_end_of(runs)
        wall = end_to_end["wall_s"]["median"]
        entry = record["workloads"][workload] = {
            "runs": len(runs) + len(repeat_runs),
            "attempted": sum(r["attempted"] for r in runs + repeat_runs),
            "failed": sum(r["failed"] for r in runs + repeat_runs),
            "end_to_end": end_to_end,
            # Shares of the median untraced wall_s, from the traced run.
            "shares_of_wall": {
                "ingest+stats": (layer["pipeline.ingest_s"] + layer["pipeline.stats_s"]) / wall,
                "ca": layer["pipeline.ca_s"] / wall,
                "periods": layer["pipeline.periods_s"] / wall,
                "setup": end_to_end["setup_s"]["median"] / wall,
            },
            "traced": {"seed": seeds[0], "correct": traced["correct"], **layer},
        }
        if repeat_runs:
            second = entry["end_to_end_repeat"] = end_to_end_of(repeat_runs)
            # Second median over first, minus one: positive is slower or larger.
            entry["repeat_shift"] = {name: second[name]["median"] / first["median"] - 1
                                     for name, first in end_to_end.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
