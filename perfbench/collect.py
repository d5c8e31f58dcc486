"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/set1.jsonl

Runs every workload of BENCHMARK.json for its run_seconds, untraced, one
seed after another (workloads interleaved within a seed), appends every
result line to --out as JSON, and prints, per workload and metric, the
median, the first and third quartiles (`statistics.quantiles(n=4)`) and the
spread (Q3 - Q1) / median, plus the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(records: list[dict]) -> None:
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        failed = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, correct={all(r['result']['correct'] for r in runs)}, "
              f"failed/attempted={sorted(failed)}, run wall {min(walls):.1f}-{max(walls):.1f} s")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:45s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, help="append result lines to this JSONL file")
    parser.add_argument("--summarise", type=Path, help="only summarise an existing JSONL file")
    args = parser.parse_args()
    if args.summarise:
        summarise([json.loads(line) for line in args.summarise.read_text().splitlines()])
        return 0
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    seconds = BENCHMARK["run_seconds"]
    records = []
    for seed in args.seeds:
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=300)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            record = {"workload": workload, "seed": seed, "seconds": seconds, "wall_s": wall,
                      "result": json.loads(lines[-1]), "notes": lines[:-1]}
            records.append(record)
            if args.out:
                with args.out.open("a") as fh:
                    fh.write(json.dumps(record) + "\n")
    summarise(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
