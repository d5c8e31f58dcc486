"""cvqnet benchmark: one workload per run, in fresh single-threaded processes.

    python3 perfbench/run.py --workload rate_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (setup_s, items_per_s, op_p50_ms,
peak_rss_mb); with `--trace 1` a fixed number of operations runs with every
traced function wrapped and the metrics are the per-layer ones.  `--quick`
runs one operation of each kind of every workload with all output checks.

This file is the entry point.  It imports nothing from the package: it pins
the thread counts, puts `src` and `tests` on the path of the processes it
starts, times the set-up of a few fresh processes, and starts one fresh
worker process that runs the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("rate_grid", "orderings", "pe_block", "cli")
SETUP_SAMPLES = 15
DEADLINE_S = 170.0  # a run must end within 180 s


def child_env() -> dict[str, str]:
    """One compute thread: BLAS and OpenMP pinned, CVQNET_THREADS left at its default."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CVQNET_THREADS", None)
    path = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def worker_argv(args, phase: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--phase", phase, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]


def run_child(argv, deadline: float) -> str:
    """Run a child to completion and return its stdout; raise on failure.
    The child leads its own process group, so a timeout or a termination of
    this process ends the processes it started too."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for workdir in (HERE / ".work").glob(f"*-{proc.pid}"):  # the killed worker's files
            shutil.rmtree(workdir, ignore_errors=True)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:5])} exited with code {proc.returncode}")
    return out


def setup_seconds(args, deadline: float) -> float:
    """Median over fresh processes of the wall time from process start to
    the end of set-up (import, config load, input generation).  The worker
    prints the monotonic clock when set-up ends, so its teardown and the
    removal of its work directory are not counted."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        end = float(run_child(worker_argv(args, "setup"), deadline).splitlines()[-1])
        samples.append(end - start)
    return statistics.median(samples)


def run_workload(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s = setup_seconds(args, deadline) if not args.trace else None
        lines = run_child(worker_argv(args, "measure"), deadline).splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if setup_s is not None:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(json.dumps(result))
    return 0


def run_quick() -> int:
    """One operation of each kind of every workload, all output checks on."""
    ok = True
    for name in WORKLOAD_NAMES:
        args = argparse.Namespace(workload=name, seed=0, seconds=0, trace=0)
        try:
            result = json.loads(run_child(worker_argv(args, "quick"), time.monotonic() + DEADLINE_S)
                                .splitlines()[-1])
            passed = result["correct"] and result["failed"] == 0
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            result, passed = str(exc), False
        print(f"{name}: {'ok' if passed else 'FAILED'} {json.dumps(result)}")
        ok = ok and passed
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [p for p in (ROOT / "src" / "cvqnet" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"cannot run: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2
    if args.quick:
        return run_quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
