import json

import numpy as np
import pytest

from conftest import random_params
from cvqnet import default_config, format_config, parse_config, simulate, write_block
from cvqnet.cli import main
from cvqnet.errors import ConfigError


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
        f"{e['param']},{_g(e['value'])},{e['user']},{e['trust']},finite,{_g(e['rate'])}"
        for e in payload
    ]


def _estimate_csv(payload):
    return ["user,eta_hat,eps_hat_msnu,eta_min,eps_max_msnu,flagged"] + [
        f"{u['user']},{_g(u['eta_hat'])},{_g(u['eps_hat_msnu'])},{_g(u['eta_min'])},"
        f"{_g(u['eps_max_msnu'])},{'yes' if u['negative_excess_flagged'] else 'no'}"
        for u in payload["users"]
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
            (["estimate", "--in", "b.cvnb"], _estimate_csv),
        ],
        ids=["keyrate", "decompose", "sweep", "estimate"],
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

    def test_decompose_bad_order_exits_2(self):
        assert main(["decompose", "--orders", "1,2,2,4"]) == 2

    @pytest.mark.parametrize("orders", ["sample:0", "sample:-2"])
    def test_decompose_empty_sample_exits_2(self, orders):
        assert main(["decompose", "--orders", orders]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_decompose_out_of_range_seed_exits_3(self, seed, capsys):
        assert main(["decompose", "--orders", "sample:3", "--seed", seed]) == 3
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
    def test_simulate_out_of_range_seed_exits_3(self, seed, capsys, tmp_path):
        block_path = tmp_path / "block.cvnb"
        code = main(["simulate", "--symbols", "10", "--seed", seed, "--out-block", str(block_path)])
        assert code == 3
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
        assert captured.err.startswith("config error: non-finite sample in the block")
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
