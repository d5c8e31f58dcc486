"""Worker process of the benchmark; started by run.py, which sets its
environment (one compute thread, `src`, `tests` and this directory on the
path).

Phases:
  setup    import, config load and input generation, then print the
           system-wide monotonic clock and exit; run.py takes set-up time
           as that reading minus its own one taken before starting the process
  measure  set up, warm up, run the closed loop, check outputs, print one JSON line
  quick    set up and run one operation of each kind with all checks
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads


def run_ops(workload, ops, tracer, state) -> None:
    """Run operations back to back; time each one and check its output untimed."""
    for op in ops:
        state["attempted"] += 1
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.execute(op)
        except Exception:  # an operation that fails is counted and the loop goes on
            out = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        state["timed_s"] += elapsed
        if out is None:
            state["failed"] += 1
            continue
        state["durations"].append(elapsed)
        state["by_kind"].setdefault(op.kind, []).append(elapsed)
        state["items"] += op.items
        seen = state["seen"]
        if op.key not in seen:
            state["errors"] += workload.check(op, out)
            seen[op.key] = workload.fingerprint(out)
        elif workload.fingerprint(out) != seen[op.key]:
            state["errors"].append(f"operation {op.key!r} did not reproduce its first output")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("setup", "measure", "quick"), required=True)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    workdir = workloads.workdir_for(args.workload)
    try:
        tracer = None
        if args.trace and args.phase == "measure":
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
        workload = workloads.setup(args.workload, args.seed % 2**32, workdir)
        if tracer is not None:
            tracer.active = False
        if args.phase == "setup":
            print(time.monotonic(), flush=True)  # CLOCK_MONOTONIC is system-wide on Linux
            return 0
        return measure(args, workload, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, tracer) -> int:
    state = {"attempted": 0, "failed": 0, "items": 0, "timed_s": 0.0, "durations": [],
             "errors": [], "seen": {}, "by_kind": {}}
    first = workload.ops(0)
    if args.phase == "quick":
        run_ops(workload, first[: workload.quick_ops], None, state)
        return report(state, {})

    cli = isinstance(workload, workloads.Cli)
    if tracer is None:  # warm-up: one operation of each kind (cli: one command)
        kinds = {}
        for op in first[:1] if cli else first:
            kinds.setdefault(op.kind, op)
        for op in kinds.values():
            workload.execute(op)
    else:
        # The traced operations run untraced first, in this process, as the
        # reference for the tracing overhead (cli: in-process commands).
        start, items = time.perf_counter(), 0
        for r in range(workload.trace_rounds):
            for op in workload.ops(r):
                workload.run_in_process(workload.commands[op.key]) if cli else workload.execute(op)
                items += op.items
        print(f"# untraced items_per_s={items / (time.perf_counter() - start)} over the traced operations")
        if cli:
            tracer.cli_import_ms = workloads.cli_import_ms()
            workload.tracer = tracer

    rounds = 0
    while True:
        run_ops(workload, workload.ops(rounds), tracer, state)
        rounds += 1
        if tracer is not None:
            if rounds >= workload.trace_rounds:
                break
        elif state["timed_s"] >= args.seconds:
            break

    items_per_s = state["items"] / state["timed_s"] if state["timed_s"] else 0.0
    if tracer is not None:
        if cli:
            in_process_s = state["timed_s"] - sum(sum(v) for v in tracer.cli_ms.values()) / 1e3
            items_per_s = state["items"] / in_process_s
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics(items_per_s).items()}
        return report(state, metrics)

    for kind, times in state["by_kind"].items():
        print(f"# {kind}: {len(times)} operations, p50_ms={statistics.median(times) * 1e3}")
    durations = sorted(state["durations"])
    if len(durations) >= 100:
        p90 = statistics.quantiles(durations, n=10)[-1]
        print(f"# op_p90_ms={p90 * 1e3} over {len(durations)} operations (reference, not gated)")
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    metrics = {
        "items_per_s": {"value": items_per_s, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(durations) * 1e3 if durations else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
    }
    return report(state, metrics)


def report(state, metrics) -> int:
    for error in state["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not state["errors"], "attempted": state["attempted"],
              "failed": state["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
