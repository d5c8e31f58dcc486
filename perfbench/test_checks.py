"""Tests of the benchmark itself: each output check passes on program output
and rejects a deliberately wrong one, the tracer sees calls through every
binding, and the quick mode runs every workload with all checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import cvqnet  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from cvqnet import TrustModel  # noqa: E402


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(11)
    return workloads.random_network(rng, cvqnet.default_config().params, 3)


def test_rate_grid_rejects_swapped_trust_columns(network):
    corner = cvqnet.derive_worst_case(network)
    given = cvqnet.rate_table(network)
    at_corner = cvqnet.rate_table(network, worst_case=corner)
    assert checks.check_rate_grid(network, given, corner, at_corner) == []

    swap = {TrustModel.UNTRUSTED: TrustModel.TRUSTED, TrustModel.TRUSTED: TrustModel.UNTRUSTED}
    swapped = [replace(r, trust=swap.get(r.trust, r.trust)) for r in given]
    assert checks.check_rate_grid(network, swapped, corner, at_corner)


def test_orderings_rejects_perturbed_contribution(network):
    table = cvqnet.all_orderings(network)
    assert checks.check_orderings(network, table) == []

    row = table.rows[1]
    bumped = row.contributions[:1] + (row.contributions[1] + 1e-6,) + row.contributions[2:]
    rows = table.rows[:1] + (replace(row, contributions=bumped),) + table.rows[2:]
    assert checks.check_orderings(network, replace(table, rows=rows))


def test_block_roundtrip_rejects_flipped_byte(network, tmp_path):
    block = cvqnet.simulate(network, 2000, 5)
    path = tmp_path / "block.cvnb"
    cvqnet.write_block(block, str(path))
    assert checks.check_block_roundtrip(block, cvqnet.read_block(str(path))) == []

    raw = bytearray(path.read_bytes())
    raw[checks.HEADER.size + 12345] ^= 0x01
    path.write_bytes(bytes(raw))
    assert checks.check_block_roundtrip(block, cvqnet.read_block(str(path)))


def test_cli_session_rejects_missing_row(tmp_path):
    workdir = ROOT / "perfbench" / ".work" / "test-session"
    workdir.mkdir(parents=True, exist_ok=True)
    session = workloads.Cli(3, None, workdir)
    try:
        outputs = {name: session.run_in_process(argv) for name, argv in session.session}
        config = checks.read_config(workloads.CONFIG)
        assert checks.check_cli_session(outputs, config, session.files, 3) == []

        for name in ("keyrate", "decompose", "sweep_loss"):
            lines = outputs[name].splitlines(keepends=True)
            broken = {**outputs, name: "".join(lines[:2] + lines[3:])}
            assert checks.check_cli_session(broken, config, session.files, 3), name
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def test_tracer_counts_calls_through_every_binding(network):
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        cvqnet.rate_table(network)
    finally:
        tracer.active = False
    m = network.n_users
    assert tracer.calls["keyrates.key_rate"] == 3 * m
    for holevo in ("holevo_untrusted", "holevo_trusted", "holevo_collaborative"):
        assert tracer.calls[f"keyrates.{holevo}"] == m  # reached through keyrates._HOLEVO
    assert tracer.calls["network.build_channel_output_cm"] == 3 * m
    metrics = tracer.metrics(1.0)
    assert metrics["gaussian.spectrum_modes"][0] > 0
    assert metrics["keyrates.key_rate.self_ms"][0] > 0


def test_quick_mode_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == list(workloads.WORKLOADS)
