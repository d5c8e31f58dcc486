"""The four benchmark workloads: seeded inputs, operations and their checks.

Each workload is a closed loop over rounds of operations: the next
operation starts when the previous one returns, and a run attempts whole
rounds only.  `rate_grid`, `orderings` and `cli` repeat the same round of
inputs, so each distinct operation is checked in full the first time and
must reproduce its output exactly afterwards; `pe_block` draws a fresh
network and block every round and checks every one.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import cvqnet
from cvqnet import NetworkParams, UserLink

# Package functions are called as attributes of `cvqnet` at call time, so
# that a traced run, which rebinds them there, sees every call.  The output
# checks (and the oracles they use) and `cvqnet.cli` are imported where they
# are first used, after set-up, so that set-up time counts only the program.

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "src" / "cvqnet" / "data" / "table1.cfg"

# Floor on each user's share of the total transmittance.  It keeps every
# confidence-region corner at t_low > 0: worst_case_params and
# derive_worst_case raise instead of returning a zero-key verdict when a
# corner reaches eta_min = 0 (see CHANGES.md).
SHARE_FLOOR = 1e-3
PE_SHARE_FLOOR = 0.1  # n = 10^6 symbols gives wider intervals than N >= 10^8


def random_network(rng: np.random.Generator, base: NetworkParams, m: int,
                   share_floor: float = SHARE_FLOOR) -> NetworkParams:
    """A random M-user network; detector efficiency, beta and eps_pe come
    from the bundled config.  Total transmittance 10^(-L/10) with L uniform
    over 0-15 dB, split by Dirichlet fractions; eps 1-10 mSNU; nu_el 40-70
    mSNU; V_mod 2-10 SNU; N = 10^(8..10)."""
    total = 10.0 ** (-rng.uniform(0.0, 15.0) / 10.0)
    shares = share_floor + (1.0 - m * share_floor) * rng.dirichlet(np.ones(m))
    users = tuple(
        UserLink(float(total * s), float(rng.uniform(1e-3, 10e-3)), float(rng.uniform(40e-3, 70e-3)))
        for s in shares
    )
    return replace(base, users=users, modulation_variance=float(rng.uniform(2.0, 10.0)),
                   block_size=int(10.0 ** rng.uniform(8.0, 10.0)))


@dataclass(frozen=True)
class Op:
    key: object  # equal keys run equal inputs
    kind: str
    items: int  # work items the operation completes


class RateGrid:
    """rate_table of a random network as given and at its derive_worst_case
    corner; item = one key rate.  Each round holds every M from 2 to 8
    REPEATS times, so the mix of sizes is the same whatever the seed."""

    REPEATS = 4
    trace_rounds = 1
    quick_ops = 1

    def __init__(self, seed: int, base: NetworkParams, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.networks = [random_network(rng, base, m) for _ in range(self.REPEATS) for m in range(2, 9)]

    def ops(self, r: int) -> list[Op]:
        return [Op(i, "rate_table", 6 * p.n_users) for i, p in enumerate(self.networks)]

    def execute(self, op: Op):
        params = self.networks[op.key]
        corner = cvqnet.derive_worst_case(params)
        return cvqnet.rate_table(params), corner, cvqnet.rate_table(params, worst_case=corner)

    def check(self, op: Op, out) -> list[str]:
        import checks

        return checks.check_rate_grid(self.networks[op.key], *out)

    def fingerprint(self, out):
        given, corner, at_corner = out
        return [(r.mutual_information, r.holevo, r.rate) for r in given + at_corner], corner


class Orderings:
    """all_orderings of a 5-user network (120 rows) alternating with
    sample_orderings of a 10-user network; item = one decomposition row.
    The sampling seeds are fixed, so the sampled orders, and with them the
    traced coalition counts, do not depend on the workload seed."""

    SAMPLED = 33  # 10-user rows per call; takes about as long as the 120 5-user rows
    PAIRS = 2
    trace_rounds = 1
    quick_ops = 2

    def __init__(self, seed: int, base: NetworkParams, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.inputs = []
        for pair in range(self.PAIRS):
            self.inputs.append(("all_orderings", random_network(rng, base, 5), None))
            self.inputs.append(("sample_orderings", random_network(rng, base, 10), pair))

    def ops(self, r: int) -> list[Op]:
        return [Op(i, kind, 120 if kind == "all_orderings" else self.SAMPLED)
                for i, (kind, _, _) in enumerate(self.inputs)]

    def execute(self, op: Op):
        kind, params, sample_seed = self.inputs[op.key]
        if kind == "all_orderings":
            return cvqnet.all_orderings(params)
        return cvqnet.sample_orderings(params, self.SAMPLED, seed=sample_seed)

    def check(self, op: Op, out) -> list[str]:
        import checks

        kind, params, _ = self.inputs[op.key]
        return checks.check_orderings(params, out, None if kind == "all_orderings" else self.SAMPLED)

    def fingerprint(self, out):
        return [(row.order, row.contributions) for row in out.rows], out.joint_rate


class PeBlock:
    """Parameter estimation on a block: simulate 10^6 symbols of a random
    4-user network, write and read the block file, estimate, take the
    worst-case corner and its 12 key rates; item = one symbol.  Every round
    draws a fresh network and simulation seed."""

    SYMBOLS = 1_000_000
    USERS = 4
    trace_rounds = 2
    quick_ops = 1

    def __init__(self, seed: int, base: NetworkParams, workdir: Path):
        self.rng = np.random.default_rng([seed, 3])
        self.base = base
        self.path = str(workdir / "pe_block.cvnb")
        self.rounds: list[tuple[NetworkParams, int]] = []

    def _round_input(self, r: int) -> tuple[NetworkParams, int]:
        while len(self.rounds) <= r:
            params = random_network(self.rng, self.base, self.USERS, PE_SHARE_FLOOR)
            self.rounds.append((params, int(self.rng.integers(2**63))))
        return self.rounds[r]

    def ops(self, r: int) -> list[Op]:
        self._round_input(r)
        return [Op(r, "pe_round", self.SYMBOLS)]

    def execute(self, op: Op):
        params, sim_seed = self.rounds[op.key]
        block = cvqnet.simulate(params, self.SYMBOLS, sim_seed)
        cvqnet.write_block(block, self.path)
        back = cvqnet.read_block(self.path)
        report = cvqnet.estimate_report(back, params)
        corner = cvqnet.worst_case_params(params, report)
        return block, back, report, cvqnet.rate_table(params, worst_case=corner)

    def check(self, op: Op, out) -> list[str]:
        import checks

        params, _ = self.rounds[op.key]
        block, back, report, at_corner = out
        return (checks.check_block_roundtrip(block, back)
                + checks.check_outcome_statistics(params, back)
                + checks.check_estimates(params, report, at_corner))

    def fingerprint(self, out):
        return None


class Cli:
    """One `python -m cvqnet.cli` command of a fixed session on the bundled
    config, run one after another; item = one command."""

    trace_rounds = 1
    quick_ops = None  # the session is checked as a whole

    def __init__(self, seed: int, base: NetworkParams, workdir: Path):
        self.seed = seed
        self.files = {"block": str(workdir / "block.cvnb"), "small_block": str(workdir / "small.cvnb"),
                      "csv": str(workdir / "small.csv")}
        f = self.files
        self.session = [
            ("keyrate", ["keyrate"]),
            ("keyrate_worst_case", ["keyrate", "--worst-case", "model"]),
            ("keyrate_json", ["--format", "json", "keyrate"]),
            ("decompose", ["decompose", "--orders", "all"]),
            ("sweep_loss", ["sweep", "--param", "loss_db", "--from", "0", "--to", "30", "--steps", "61"]),
            ("sweep_n", ["sweep", "--param", "N", "--from", "1e6", "--to", "1e10", "--steps", "5"]),
            ("simulate", ["simulate", "--symbols", "200000", "--seed", str(seed), "--out-block", f["block"]]),
            ("simulate_csv", ["simulate", "--symbols", "20000", "--seed", str(seed),
                              "--out-block", f["small_block"], "--csv", f["csv"]]),
            ("estimate", ["estimate", "--in", f["block"]]),
        ]
        self.commands = dict(self.session)
        self.outputs: dict[str, str] = {}
        self.tracer = None  # set by a traced run: commands then also run in-process, traced

    def ops(self, r: int) -> list[Op]:
        return [Op(name, argv[0] if argv[0] != "--format" else argv[2], 1) for name, argv in self.session]

    def execute(self, op: Op) -> str:
        """Standard output of one command; a nonzero exit raises."""
        argv = self.commands[op.key]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cvqnet.cli", *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cvqnet {' '.join(argv)}: exit code {proc.returncode}\n{proc.stderr}")
        if self.tracer is None:
            return proc.stdout
        self.tracer.cli_ms.setdefault(op.kind, []).append((time.perf_counter() - start) * 1e3)
        return self.run_in_process(argv)

    def run_in_process(self, argv) -> str:
        import cvqnet.cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cvqnet.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cvqnet {' '.join(argv)}: exit code {code} in process")
        return buffer.getvalue()

    def check(self, op: Op, out) -> list[str]:
        import checks

        self.outputs[op.key] = out
        if len(self.outputs) < len(self.session):
            return []
        config = checks.read_config(CONFIG)
        errors = checks.check_cli_session(self.outputs, config, self.files, self.seed)
        self.outputs = {}
        return errors

    def fingerprint(self, out):
        return out


WORKLOADS = {"rate_grid": RateGrid, "orderings": Orderings, "pe_block": PeBlock, "cli": Cli}


def setup(name: str, seed: int, workdir: Path):
    """Config load and input generation: everything before the first operation."""
    return WORKLOADS[name](seed, cvqnet.default_config().params, workdir)


def cli_import_ms(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing cvqnet.cli."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cvqnet.cli"], cwd=ROOT, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[len(times) // 2]


def workdir_for(name: str) -> Path:
    path = ROOT / "perfbench" / ".work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
