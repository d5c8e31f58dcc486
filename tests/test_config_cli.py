import errno
import importlib
import io
import json
import os
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_params
from cvqnet import (
    NetworkParams,
    UserLink,
    default_config,
    format_config,
    parse_config,
    rate_table,
    read_block,
    simulate,
    write_block,
)
from cvqnet import cli
from cvqnet.cli import main
from cvqnet.errors import ConfigError
from cvqnet.simulate import CHUNK, TILE

TABLE1_TEXT = (
    "modulation_variance = 5.04 SNU\ndetector_efficiency = 0.68\nelectronic_noise = 0.06 SNU\n"
    "beta = 0.95\nblock_size = 1250000000\neps_pe = 1e-10\nsplitter_budget = on\n"
    "\n[user 1]\ntransmittance = 0.13\nexcess_noise = 0.00417 SNU\ntrusted_noise = 0.054 SNU\n"
    "\n[user 2]\ntransmittance = 0.12\nexcess_noise = 0.00296 SNU\ntrusted_noise = 0.0498 SNU\n"
    "\n[user 3]\ntransmittance = 0.11\nexcess_noise = 0.00501 SNU\ntrusted_noise = 0.06022 SNU\n"
    "\n[user 4]\ntransmittance = 0.1\nexcess_noise = 0.0051600000000000005 SNU\n"
    "trusted_noise = 0.05108 SNU\n"
)


class TestConfigParsing:
    def test_bundled_defaults(self):
        params = default_config().params
        assert params.modulation_variance == 5.04
        assert params.detector_efficiency == 0.68
        assert params.beta == 0.95
        assert params.block_size == 1_250_000_000
        assert params.eps_pe == 1e-10
        assert [u.transmittance for u in params.users] == [0.13, 0.12, 0.11, 0.10]
        assert [u.excess_noise for u in params.users] == pytest.approx(
            [4.17e-3, 2.96e-3, 5.01e-3, 5.16e-3]
        )
        assert [u.trusted_noise for u in params.users] == pytest.approx(
            [54.00e-3, 49.80e-3, 60.22e-3, 51.08e-3]
        )
        assert params.electronic_noise == pytest.approx(60e-3)

    def test_unknown_key_rejected_with_line_number(self):
        text = "modulation_variance = 5 SNU\nbogus_key = 1\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(text)

    def test_missing_unit_rejected(self):
        text = "modulation_variance = 5\n"
        with pytest.raises(ConfigError, match="unit"):
            parse_config(text)

    def test_msnu_normalization(self):
        cfg = parse_config(
            "modulation_variance = 5 SNU\ndetector_efficiency = 0.7\nbeta = 0.95\n"
            "block_size = 1e6\n[user 1]\ntransmittance = 0.5\nexcess_noise = 10 mSNU\n"
        )
        assert cfg.params.users[0].excess_noise == pytest.approx(0.01)

    def test_user_sections_must_be_consecutive(self):
        text = (
            "modulation_variance = 5 SNU\ndetector_efficiency = 0.7\nbeta = 0.95\n"
            "block_size = 1e6\n[user 2]\ntransmittance = 0.5\nexcess_noise = 0 SNU\n"
        )
        with pytest.raises(ConfigError, match="consecutively"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = "beta = 0.95\nbeta = 0.9\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_format_table1_exact_text(self, table1):
        assert format_config(table1) == TABLE1_TEXT

    def test_optional_keys_take_the_dataclass_defaults(self):
        cfg = parse_config(
            "modulation_variance = 5 SNU\ndetector_efficiency = 0.7\nbeta = 0.9\n"
            "block_size = 1e6\n[user 1]\ntransmittance = 0.5\nexcess_noise = 10 mSNU\n"
        )
        expected = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.5, excess_noise=0.01),),
            detector_efficiency=0.7,
            beta=0.9,
            block_size=1_000_000,
        )
        assert cfg.params == expected
        assert cfg.params.users[0].trusted_noise is None
        assert cfg.params.trusted_noise(0) == cfg.params.electronic_noise == 0.0
        assert (cfg.params.eps_pe, cfg.params.enforce_splitter_budget) == (1e-10, True)

    def test_roundtrip_reproduces_numbers(self, table1):
        text = format_config(table1)
        reparsed = parse_config(text).params
        assert reparsed == table1
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = random_params(rng)
            assert parse_config(format_config(params)).params == params


def two_user_config(transmittance: str, excess_noise: str = "4.17 mSNU") -> str:
    return (
        "modulation_variance = 5.04 SNU\ndetector_efficiency = 0.68\n"
        "electronic_noise = 60 mSNU\nbeta = 0.95\nblock_size = 1.25e9\n"
        f"[user 1]\ntransmittance = {transmittance}\nexcess_noise = {excess_noise}\n"
        "[user 2]\ntransmittance = 0.12\nexcess_noise = 4.17 mSNU\n"
    )


def _g(x: float) -> str:
    return f"{x:.10g}"


def _keyrate_csv(payload):
    trusts = list(dict.fromkeys(e["trust"] for e in payload))
    users = list(dict.fromkeys(e["user"] for e in payload))
    return ["user," + ",".join(f"K_{t}" for t in trusts)] + [
        f"{k}," + ",".join(_g(e["rate"]) for e in payload if e["user"] == k) for k in users
    ]


def _decompose_csv(payload):
    rows = payload["rows"]
    m = len(rows[0]["order"])
    return (
        ["order," + ",".join(f"K_{i}" for i in range(1, m + 1)) + ",row_sum"]
        + [
            "-".join(map(str, r["order"])) + ","
            + ",".join(map(_g, r["contributions"])) + f",{_g(r['row_sum'])}"
            for r in rows
        ]
        + [f"# joint_rate={_g(payload['joint_rate'])} rows={len(rows)}"]
    )


def _sweep_csv(payload):
    return ["param,value,user,trust,mode,rate"] + [
        f"{e['param']},{_g(e['value'])},{e['user']},{e['trust']},{e['mode']},{_g(e['rate'])}"
        for e in payload
    ]


def _estimate_csv(payload):
    return ["user,eta_hat,eps_hat_msnu,eta_min,eps_max_msnu,flagged"] + [
        f"{u['user']},{_g(u['eta_hat'])},{_g(u['eps_hat_msnu'])},{_g(u['eta_min'])},"
        f"{_g(u['eps_max_msnu'])},{'yes' if u['negative_excess_flagged'] else 'no'}"
        for u in payload["users"]
    ]


GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
# outputs on the bundled config, which CI also diffs against the installed entry
# point; a change that moves a number rewrites them and lists the moved digits in CHANGES.md
GOLDEN_OUTPUTS = [
    ("keyrate.json", ["--format", "json", "keyrate"]),
    ("keyrate_worst_case.json", ["--format", "json", "keyrate", "--worst-case", "model"]),
    ("keyrate_asymptotic_user.json", ["--format", "json", "keyrate", "--mode", "asymptotic",
                                      "--trust", "collaborative", "--user", "2"]),
    ("decompose_all.json", ["--format", "json", "decompose", "--orders", "all"]),
    ("decompose_sample.json", ["--format", "json", "decompose", "--orders", "sample:20",
                               "--seed", "1"]),
    ("decompose_order.json", ["--format", "json", "decompose", "--orders", "4,3,2,1"]),
    ("sweep_loss_db.csv", ["sweep", "--param", "loss_db", "--from", "0", "--to", "30",
                           "--steps", "61"]),
    ("sweep_n_asymptotic.json", ["--format", "json", "sweep", "--param", "N", "--from", "1e6",
                                 "--to", "1e10", "--steps", "3", "--mode", "asymptotic"]),
    # BLOCK is the file of `simulate --symbols 20000 --seed 1`
    ("estimate.json", ["--format", "json", "estimate", "--in", "BLOCK"]),
]


class TestCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_keyrate_table_shape(self, capsys):
        code, out = self.run(capsys, "keyrate", "--trust", "all", "--user", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "user,K_untrusted,K_collaborative,K_trusted"
        assert len(lines) == 5
        assert lines[1].startswith("1,")

    def test_keyrate_asymptotic_dominates(self, capsys):
        _, fin = self.run(capsys, "keyrate", "--mode", "finite")
        _, asym = self.run(capsys, "keyrate", "--mode", "asymptotic")

        def rates(text):
            return [
                [float(v) for v in line.split(",")[1:]]
                for line in text.strip().splitlines()[1:]
            ]

        for fr, ar in zip(rates(fin), rates(asym)):
            for f, a in zip(fr, ar):
                assert a >= f

    def test_keyrate_bad_user_exits_2(self, capsys):
        code = main(["keyrate", "--user", "5"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,csv_from_json",
        [
            (["keyrate"], _keyrate_csv),
            (["decompose", "--orders", "all"], _decompose_csv),
            (["sweep", "--param", "loss_db", "--from", "7", "--to", "9", "--steps", "3"], _sweep_csv),
            (["sweep", "--param", "N", "--from", "1e6", "--to", "1e8", "--steps", "2",
              "--mode", "asymptotic"], _sweep_csv),
            (["estimate", "--in", "b.cvnb"], _estimate_csv),
        ],
        ids=["keyrate", "decompose", "sweep", "sweep-asymptotic", "estimate"],
    )
    def test_json_mirrors_csv(self, argv, csv_from_json, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if argv[0] == "estimate":
            self.run(capsys, "simulate", "--symbols", "5000", "--seed", "3", "--out-block", "b.cvnb")
        code, csv_out = self.run(capsys, *argv)
        assert code == 0
        code, json_out = self.run(capsys, "--format", "json", *argv)
        assert code == 0
        # every CSV cell is the matching JSON value printed with %.10g
        assert csv_from_json(json.loads(json_out)) == csv_out.splitlines()

    @pytest.mark.parametrize("name,argv", GOLDEN_OUTPUTS, ids=[name for name, _ in GOLDEN_OUTPUTS])
    def test_golden_output(self, capsys, tmp_path, name, argv):
        # full-precision JSON floats make this a bit-level pin of the library
        if "BLOCK" in argv:
            block = str(tmp_path / "block.cvnb")
            self.run(capsys, "simulate", "--symbols", "20000", "--seed", "1", "--out-block", block)
            argv = [block if arg == "BLOCK" else arg for arg in argv]
        code, out = self.run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN_DIR / name).read_text()

    @pytest.mark.parametrize(
        "argv",
        [["keyrate"], ["keyrate", "--worst-case", "model"],
         ["sweep", "--param", "loss_db", "--from", "0", "--to", "30", "--steps", "61"]],
        ids=["keyrate", "keyrate-worst-case", "sweep"],
    )
    def test_csv_builds_no_json_record(self, argv, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a JSON record was built for CSV output")

        monkeypatch.setattr(cli, "_rate_record", refuse)
        code, out = self.run(capsys, *argv)
        assert code == 0
        if argv[0] == "sweep":
            assert out == (GOLDEN_DIR / "sweep_loss_db.csv").read_text()
        else:
            assert out.splitlines()[0] == "user,K_untrusted,K_collaborative,K_trusted"

    def test_keyrate_deterministic_output(self, capsys):
        _, first = self.run(capsys, "keyrate")
        _, second = self.run(capsys, "keyrate")
        assert first == second

    def test_decompose_all_orders(self, capsys):
        code, out = self.run(capsys, "decompose", "--orders", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,K_1,K_2,K_3,K_4,row_sum"
        assert len(lines) == 26  # header + 24 rows + summary comment
        assert lines[-1].startswith("# joint_rate=")
        sums = [float(line.split(",")[-1]) for line in lines[1:-1]]
        assert max(sums) - min(sums) <= 1e-9

    def test_decompose_single_order(self, capsys):
        code, out = self.run(capsys, "decompose", "--orders", "1,2,3,4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("1-2-3-4,")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["keyrate", "--user", "abc"], "--user must be an index or 'all', got 'abc'"),
            (["decompose", "--orders", "sample:x"],
             "--orders sample:K needs an integer K, got 'sample:x'"),
            (["decompose", "--orders", "a,b"],
             "--orders must be 'all', 'sample:K' or '1,2,...', got 'a,b'"),
        ],
        ids=["user-abc", "orders-sample-x", "orders-a-b"],
    )
    def test_malformed_argument_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "--orders", "sample:3"],
         ["simulate", "--symbols", "10", "--out-block", "b.cvnb"]],
        ids=["decompose", "simulate"],
    )
    def test_non_integer_seed_exits_2_at_parsing(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--seed", "1.7"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("argument --seed: seed must be an integer, got '1.7'")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_decompose_bad_order_exits_2(self):
        assert main(["decompose", "--orders", "1,2,2,4"]) == 2

    @pytest.mark.parametrize("orders", ["sample:0", "sample:-2"])
    def test_decompose_empty_sample_exits_2(self, orders):
        assert main(["decompose", "--orders", orders]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_decompose_out_of_range_seed_exits_2(self, seed, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["decompose", "--orders", "sample:3", "--seed", seed])
        assert exited.value.code == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    def test_decompose_guard_exits_4(self, tmp_path):
        lines = [
            "modulation_variance = 5 SNU",
            "detector_efficiency = 0.68",
            "beta = 0.95",
            "block_size = 1e9",
        ]
        for i in range(1, 10):
            lines += [f"[user {i}]", "transmittance = 0.1", "excess_noise = 1 mSNU",
                      "trusted_noise = 50 mSNU"]
        cfg = tmp_path / "nine.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["--config", str(cfg), "decompose", "--orders", "all"]) == 4

    def test_decompose_sample_over_cap_exits_4(self, capsys):
        assert main(["decompose", "--orders", "sample:40321"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("refused: ") and "sample at most 40,320 orderings" in err

    @staticmethod
    def table1_config(tmp_path, detector_efficiency: str) -> str:
        """The bundled calibration at another detector efficiency, as a file."""
        text = format_config(default_config().params)
        assert "detector_efficiency = 0.68\n" in text
        cfg = tmp_path / "efficiency.cfg"
        cfg.write_text(text.replace("0.68", detector_efficiency, 1))
        return str(cfg)

    def test_decompose_near_unit_efficiency_exits_0(self, capsys, tmp_path):
        # an EPR purification of these receivers would have variance 1 + nu_el / 1e-5, about 5,000
        cfg = self.table1_config(tmp_path, "0.99999")
        code, out = self.run(capsys, "--config", cfg, "decompose", "--orders", "all")
        assert code == 0
        assert len(out.strip().splitlines()) == 26

    def test_unit_efficiency_first_position_is_trusted_rate(self, capsys, tmp_path):
        # criterion 4 at eta_d = 1, an exact case of the receiver model
        cfg = self.table1_config(tmp_path, "1")
        code, out = self.run(capsys, "--config", cfg, "--format", "json",
                             "decompose", "--orders", "all")
        assert code == 0
        rows = json.loads(out)["rows"]
        code, out = self.run(capsys, "--config", cfg, "--format", "json",
                             "keyrate", "--trust", "trusted", "--mode", "finite")
        assert code == 0
        trusted = {entry["user"]: entry["rate"] for entry in json.loads(out)}
        assert min(trusted.values()) > 0.0  # so the rate's clamp at 0 hides no difference
        assert len(rows) == 24
        for row in rows:
            assert row["contributions"][0] == pytest.approx(trusted[row["order"][0]], abs=1e-9)

    def test_sweep_single_step(self, capsys):
        code, out = self.run(
            capsys, "sweep", "--param", "loss_db", "--from", "10", "--steps", "1",
            "--trust", "trusted",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,value,user,trust,mode,rate"
        assert len(lines) == 1 + 4  # four users at one step

    @pytest.mark.parametrize("users", ["0", "-2"])
    def test_sweep_without_users_exits_3(self, users, capsys):
        argv = ["sweep", "--param", "loss_db", "--from", "0", "--to", "10", "--steps", "2"]
        assert main(argv + ["--users", users]) == 3
        assert "need at least one user" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["N", "V_M", "epsilon"])
    def test_sweep_users_off_loss_db_exits_2(self, param, capsys):
        argv = ["sweep", "--param", param, "--from", "3", "--steps", "1", "--users", "7"]
        assert main(argv) == 2
        assert "--users applies only to --param loss_db" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--param", "loss_db", "--from", "0", "--to", "10", "--steps", "0"],
             "--steps must be >= 1"),
            (["sweep", "--param", "loss_db", "--from", "0", "--steps", "3"],
             "--to is required when --steps > 1"),
            (["sweep", "--param", "N", "--from", "0", "--to", "1e6", "--steps", "3"],
             "N sweep needs positive endpoints"),
            (["sweep", "--param", "loss_db", "--from", "-1", "--to", "10", "--steps", "3"],
             "channel loss must be >= 0 dB, got -1.0"),
            (["simulate", "--symbols", "0", "--seed", "1", "--out-block", "b.cvnb"],
             "need at least one symbol"),
        ],
        ids=["steps-0", "steps-3-without-to", "n-from-0", "loss-from-minus-1", "symbols-0"],
    )
    def test_bad_grid_or_symbol_count_exits_3(self, argv, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_overflowing_modulation_exits_3_naming_params(self, capsys):
        # V^2 overflows, so the network covariance has infinite entries
        argv = ["sweep", "--param", "V_M", "--from", "1e308", "--to", "1.7e308", "--steps", "2"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: network covariance unphysical (covariance matrix has "
                              "non-finite entries); params: V_mod=1e+308, users=(")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,apply",
        [
            (["--param", "V_M", "--from", "3", "--to", "7", "--steps", "3"],
             lambda params, v: replace(params, modulation_variance=v)),
            (["--param", "epsilon", "--from", "1", "--to", "10", "--steps", "4"],
             lambda params, v: replace(
                 params, users=tuple(replace(u, excess_noise=v * 1e-3) for u in params.users))),
        ],
        ids=["V_M", "epsilon-msnu"],
    )
    def test_sweep_point_is_rate_table_of_swept_params(self, argv, apply, capsys):
        code, out = self.run(capsys, "--format", "json", "sweep", *argv)
        assert code == 0
        records = json.loads(out)
        table1 = default_config().params
        values = sorted({e["value"] for e in records})
        assert len(values) == int(argv[-1]) and len(records) == len(values) * 4 * 3
        for v in values:
            rates = {(r.user + 1, r.trust.value): r.rate for r in rate_table(apply(table1, v))}
            got = {(e["user"], e["trust"]): e["rate"] for e in records if e["value"] == v}
            assert got == rates

    def test_sweep_non_monotone_range_exits_3(self):
        assert main(
            ["sweep", "--param", "loss_db", "--from", "20", "--to", "10", "--steps", "5"]
        ) == 3

    def test_loss_sweep_trust_ordering(self, capsys):
        code, out = self.run(
            capsys, "sweep", "--param", "loss_db", "--from", "7", "--to", "15",
            "--steps", "5", "--mode", "asymptotic",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_step_user: dict[tuple[str, str], dict[str, float]] = {}
        for _, value, user, trust, _, rate in rows:
            by_step_user.setdefault((value, user), {})[trust] = float(rate)
        for rates in by_step_user.values():
            assert rates["untrusted"] <= rates["collaborative"] + 1e-12
            assert rates["collaborative"] <= rates["trusted"] + 1e-12

    def test_n_sweep_monotone(self, capsys):
        code, out = self.run(
            capsys, "sweep", "--param", "N", "--from", "1e6", "--to", "1e10",
            "--steps", "5", "--trust", "trusted",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        per_user: dict[str, list[float]] = {}
        for _, _, user, _, _, rate in rows:
            per_user.setdefault(user, []).append(float(rate))
        for rates in per_user.values():
            assert rates == sorted(rates)

    def test_simulate_estimate_roundtrip(self, capsys, tmp_path):
        block_path = tmp_path / "block.cvnb"
        code, _ = self.run(
            capsys, "simulate", "--symbols", "20000", "--seed", "3",
            "--out-block", str(block_path),
        )
        assert code == 0
        code, out = self.run(capsys, "estimate", "--in", str(block_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("user,eta_hat,eps_hat_msnu")
        assert len(lines) == 5
        eta_hats = [float(line.split(",")[1]) for line in lines[1:]]
        for eta_hat, expected in zip(eta_hats, [0.13, 0.12, 0.11, 0.10]):
            assert eta_hat == pytest.approx(expected, rel=0.2)

    def test_simulate_same_seed_same_files(self, capsys, tmp_path):
        import hashlib

        p1, p2 = tmp_path / "a.cvnb", tmp_path / "b.cvnb"
        self.run(capsys, "simulate", "--symbols", "5000", "--seed", "9", "--out-block", str(p1))
        self.run(capsys, "simulate", "--symbols", "5000", "--seed", "9", "--out-block", str(p2))
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_simulate_out_of_range_seed_exits_2(self, seed, capsys, tmp_path):
        block_path = tmp_path / "block.cvnb"
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--symbols", "10", "--seed", seed, "--out-block", str(block_path)])
        assert exited.value.code == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not block_path.exists()

    def test_simulate_unallocatable_block_exits_3(self, capsys, tmp_path):
        # numpy refuses this shape before allocating anything
        block_path = tmp_path / "b.cvnb"
        argv = ["simulate", "--symbols", str(10**18), "--seed", "1", "--out-block", str(block_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"n={10**18}" in err and "M=4" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_csv_lists_both_files_and_holds_the_columns(self, capsys, tmp_path):
        block_path, csv_path = tmp_path / "b.cvnb", tmp_path / "b.csv"
        code, out = self.run(capsys, "simulate", "--symbols", "3000", "--seed", "6",
                             "--out-block", str(block_path), "--csv", str(csv_path))
        assert code == 0
        assert out == f"symbols,users,seed,files\n3000,4,6,{block_path};{csv_path}\n"
        with open(csv_path, newline="") as fh:
            header, *rows = fh.read().split("\r\n")[:-1]
        assert header == "alice_x,alice_p,y_x_1,y_x_2,y_x_3,y_x_4,y_p_1,y_p_2,y_p_3,y_p_4"
        parsed = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        assert np.array_equal(parsed, read_block(str(block_path)).columns.T)

    def test_estimate_unsupported_version_exits_2(self, capsys, tmp_path):
        from cvqnet.simulate import _HEADER, MAGIC

        block_path = tmp_path / "v2.cvnb"
        block = simulate(default_config().params, 2000, seed=1)
        header = _HEADER.pack(MAGIC, 2, block.n, block.n_users, block.seed)
        block_path.write_bytes(header + block.columns.astype("<f8").tobytes())
        assert main(["estimate", "--in", str(block_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {block_path}: unsupported version 2\n"

    def test_estimate_zero_alice_symbols_exits_3(self, capsys, tmp_path):
        block_path = tmp_path / "b.cvnb"
        block = simulate(default_config().params, 2000, seed=1)
        block.columns[:2] = 0.0
        write_block(block, str(block_path))
        assert main(["estimate", "--in", str(block_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Alice symbols have zero empirical variance\n"

    def test_estimate_truncated_exits_2(self, capsys, tmp_path):
        block_path = tmp_path / "block.cvnb"
        self.run(capsys, "simulate", "--symbols", "5000", "--seed", "3",
                 "--out-block", str(block_path))
        raw = block_path.read_bytes()
        block_path.write_bytes(raw[: len(raw) - 100])
        assert main(["estimate", "--in", str(block_path)]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "row, value",
        [(0, np.nan), (3, np.inf), (9, -np.inf)],
        ids=["alice-nan", "user-inf", "user-minus-inf"],
    )
    def test_estimate_non_finite_sample_exits_2(self, row, value, fmt, capsys, tmp_path):
        block_path = tmp_path / "block.cvnb"
        block = simulate(default_config().params, 5000, seed=3)
        block.columns[row, 1234] = value
        write_block(block, str(block_path))
        assert main(["--format", fmt, "estimate", "--in", str(block_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: non-finite sample in the block")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning in any thread fails the test
    @pytest.mark.parametrize(
        "row, column, value",
        [(0, TILE - 1, np.nan), (4, CHUNK, np.nan), (3, CHUNK + TILE + 99, np.inf),
         (1, CHUNK + TILE + 99, -np.inf)],
        ids=["alice-nan-tile-end", "user-nan-chunk-start", "user-inf-last-tile",
             "alice-minus-inf-last-tile"],
    )
    def test_estimate_non_finite_on_tile_edges_exits_2(self, row, column, value, capsys, tmp_path,
                                                       monkeypatch):
        # two chunks, simulated on two threads, the second ending in a
        # 100-symbol tile: the residual of a non-finite sample (inf - inf) must
        # reach the check as a value, with no RuntimeWarning
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        block_path = tmp_path / "block.cvnb"
        block = simulate(default_config().params, CHUNK + TILE + 100, seed=3)
        block.columns[row, column] = value
        write_block(block, str(block_path))
        assert main(["estimate", "--in", str(block_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: non-finite sample in the block")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("cut", [400000 + 14, 8], ids=["header", "payload"])
    def test_estimate_truncated_block_exits_2(self, cut, capsys, tmp_path):
        # 5000 symbols of 4 users: a 24-byte header, then 10 * 5000 doubles
        block_path = tmp_path / "block.cvnb"
        write_block(simulate(default_config().params, 5000, seed=3), str(block_path))
        block_path.write_bytes(block_path.read_bytes()[:-cut])
        assert main(["estimate", "--in", str(block_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {block_path}: ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    def test_estimate_header_larger_than_file_exits_2(self, tmp_path):
        from cvqnet.simulate import _HEADER, FORMAT_VERSION, MAGIC

        block_path = tmp_path / "huge.cvnb"
        block_path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 2**60, 4, 0) + b"\x00" * 64)
        assert main(["estimate", "--in", str(block_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--in", "{missing}/b.cvnb"],
            ["--out", "{missing}/t.csv", "keyrate"],
            ["simulate", "--symbols", "10", "--seed", "1", "--out-block", "{missing}/b.cvnb"],
        ],
        ids=["estimate-in", "out", "simulate-out-block"],
    )
    def test_missing_file_or_directory_exits_2(self, argv, capsys, tmp_path):
        missing = tmp_path / "no-such-dir"
        assert main([a.format(missing=missing) for a in argv]) == 2
        assert "file error:" in capsys.readouterr().err

    def test_simulate_failed_csv_leaves_no_block(self, capsys, tmp_path):
        block_path = tmp_path / "b.cvnb"
        argv = ["simulate", "--symbols", "10", "--seed", "1", "--out-block", str(block_path),
                "--csv", str(tmp_path / "no-such-dir" / "x.csv")]
        assert main(argv) == 2
        assert "file error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_failed_block_write_leaves_no_block(self, capsys, tmp_path, monkeypatch):
        simulate_module = importlib.import_module("cvqnet.simulate")

        class FullDisk(io.BufferedWriter):
            def write(self, data):
                if memoryview(data).nbytes > simulate_module._HEADER.size:  # the payload
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        monkeypatch.setattr(simulate_module, "open", lambda fd, mode: FullDisk(io.FileIO(fd, "w")),
                            raising=False)
        argv = ["simulate", "--symbols", "2000", "--seed", "1", "--out-block", str(tmp_path / "b.cvnb")]
        assert main(argv) == 2
        assert "file error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_simulate_directory_out_block_is_kept(self, capsys, tmp_path):
        target = tmp_path / "blocks"
        target.mkdir()
        assert main(["simulate", "--symbols", "10", "--seed", "1", "--out-block", str(target)]) == 2
        assert "file error:" in capsys.readouterr().err
        assert target.is_dir()

    def test_simulate_unopenable_block_is_kept(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "b.cvnb"
        target.write_bytes(b"kept")
        real_open = os.open

        def refuse(path, *args, **kwargs):
            if path == str(target):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse)
        assert main(["simulate", "--symbols", "10", "--seed", "1", "--out-block", str(target)]) == 2
        assert "file error:" in capsys.readouterr().err
        assert target.read_bytes() == b"kept"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_simulate_failed_csv_keeps_non_regular_block_target(self, capsys, tmp_path):
        fifo = tmp_path / "block.fifo"
        os.mkfifo(fifo)

        def drain():
            with open(fifo, "rb") as fh:
                fh.read()

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        argv = ["simulate", "--symbols", "10", "--seed", "1", "--out-block", str(fifo),
                "--csv", str(tmp_path / "no-such-dir" / "x.csv")]
        assert main(argv) == 2
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert "file error:" in capsys.readouterr().err
        assert fifo.exists()

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["simulate", "--symbols", "2000", "--seed", "1", "--out-block", "{block}",
              "--csv", "{alias}"], "--out-block and --csv"),
            (["--out", "{block}", "simulate", "--symbols", "2000", "--seed", "1",
              "--out-block", "{alias}"], "--out and --out-block"),
            (["--out", "{alias}", "estimate", "--in", "{block}"], "--out and --in"),
        ],
        ids=["simulate-csv", "simulate-out", "estimate-out"],
    )
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing-block"])
    def test_same_file_twice_exits_2_and_writes_nothing(self, argv, flags, existing, capsys,
                                                          tmp_path):
        # the second name of the file goes through "." so only its real path matches
        block = tmp_path / "b.cvnb"
        if existing:
            assert main(["simulate", "--symbols", "2000", "--seed", "7", "--out-block", str(block)]) == 0
            capsys.readouterr()
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        paths = {"block": str(block), "alias": f"{tmp_path}{os.sep}.{os.sep}b.cvnb"}
        assert main([a.format(**paths) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: ") and flags in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_same_non_regular_target_twice_exits_0(self, capsys):
        argv = ["--out", os.devnull, "simulate", "--symbols", "2000", "--seed", "1",
                "--out-block", os.devnull]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("users", [3, 5])
    def test_estimate_block_user_count_mismatch_exits_2(self, users, capsys, tmp_path):
        block_path = tmp_path / "b.cvnb"
        assert main(["simulate", "--symbols", "2000", "--seed", "1",
                     "--out-block", str(block_path)]) == 0
        capsys.readouterr()
        table1 = default_config().params
        links = (table1.users * 2)[:users]
        network = NetworkParams(modulation_variance=5.04, users=links)
        cfg = tmp_path / "other.cfg"
        cfg.write_text(format_config(network))
        assert main(["--config", str(cfg), "estimate", "--in", str(block_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: block has 4 users but config describes {users}" in captured.err

    @pytest.mark.parametrize("argv", [["keyrate"], ["decompose", "--orders", "sample:3"]])
    def test_out_of_memory_exits_3(self, argv, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("cvqnet.cli.rate_table", exhausted)
        monkeypatch.setattr("cvqnet.cli.sample_orderings", exhausted)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["--config", str(cfg), "keyrate"]) == 2

    @pytest.mark.parametrize(
        "old,new",
        [
            ("modulation_variance = 5.04 SNU", "modulation_variance = nan SNU"),
            ("modulation_variance = 5.04 SNU", "modulation_variance = inf SNU"),
            ("block_size = 1.25e9", "block_size = nan"),
            ("excess_noise = 4.17 mSNU\n[user 2]", "excess_noise = nan mSNU\n[user 2]"),
        ],
    )
    def test_non_finite_config_value_exits_2(self, old, new, capsys, tmp_path):
        cfg = tmp_path / "nonfinite.cfg"
        text = two_user_config("0.1")
        assert old in text
        cfg.write_text(text.replace(old, new))
        assert main(["--config", str(cfg), "keyrate"]) == 2
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("start,stop", [("1e6", "inf"), ("nan", "1e9"), ("1e6", "nan")])
    def test_sweep_non_finite_endpoint_exits_3(self, start, stop, capsys):
        assert main(["sweep", "--param", "N", "--from", start, "--to", stop, "--steps", "3"]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("beta = 0.95", "beta = high", "line 4: not a number: 'high'"),
            ("beta = 0.95", "beta = 0.95\nsplitter_budget = yes",
             "line 5: splitter_budget must be 'on' or 'off', got 'yes'"),
            ("detector_efficiency = 0.68", "detector_efficiency = 0.68 SNU",
             "line 2: detector_efficiency takes a bare number, got '0.68 SNU'"),
            ("[user 1]", "[users 1]", "line 6: unknown section '[users 1]'"),
            ("beta = 0.95", "beta 0.95", "line 4: expected 'key = value', got 'beta 0.95'"),
            ("beta = 0.95\n", "", "{cfg}: missing required key 'beta'"),
            ("[user 1]\ntransmittance = 0.1\nexcess_noise = 4.17 mSNU\n"
             "[user 2]\ntransmittance = 0.12\nexcess_noise = 4.17 mSNU\n", "",
             "{cfg}: at least one [user N] section is required"),
            ("excess_noise = 4.17 mSNU\n[user 2]", "[user 2]",
             "{cfg}: [user 1] is missing 'excess_noise'"),
            ("block_size = 1.25e9", "block_size = 1.5",
             "{cfg}: block_size must be a positive integer, got 1.5"),
        ],
        ids=["not-a-number", "bad-flag", "unit-on-bare-number", "unknown-section", "no-equals",
             "missing-key", "no-user-section", "user-missing-key", "fractional-block-size"],
    )
    def test_malformed_config_exits_2(self, old, new, message, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        text = two_user_config("0.1")
        assert old in text
        cfg.write_text(text.replace(old, new, 1))
        assert main(["--config", str(cfg), "keyrate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message.format(cfg=cfg)}\n"

    def test_unreadable_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "no-such.cfg"
        assert main(["--config", str(cfg), "keyrate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot read config {cfg}: ")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "transmittance,excess_noise", [("-0.1", "4.17 mSNU"), ("0.1", "-4 mSNU")]
    )
    def test_out_of_range_user_value_exits_2(self, transmittance, excess_noise, capsys, tmp_path):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(two_user_config(transmittance, excess_noise))
        assert main(["--config", str(cfg), "keyrate"]) == 2
        assert "range.cfg" in capsys.readouterr().err

    def test_zero_transmittance_corner_exits_0(self, capsys, tmp_path):
        cfg = tmp_path / "faint.cfg"
        cfg.write_text(two_user_config("1e-8"))
        code, out = self.run(capsys, "--config", str(cfg), "keyrate", "--worst-case", "model")
        assert code == 0
        assert out.splitlines()[1] == "1,0,0,0"

    def test_out_file_writing(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _ = self.run(capsys, "--out", str(out), "keyrate")
        assert code == 0
        assert out.read_text().startswith("user,K_untrusted")
