import csv
import hashlib
import importlib
import io
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cvqnet
from cvqnet import (
    NetworkParams,
    TrustModel,
    UserLink,
    classical_outcome_cov,
    confidence_region,
    estimate,
    estimate_report,
    key_rate,
    one_sided_quantile,
    read_block,
    sample_orderings,
    simulate,
    worst_case_params,
    write_block,
    write_block_csv,
)
from cvqnet.cli import main
from cvqnet.errors import ConfigError, CorruptInputError, ValidationError
from cvqnet.simulate import (
    _HEADER,
    CHUNK,
    FORMAT_VERSION,
    MAGIC,
    TILE,
    SymbolBlock,
    Z_EPS_PE_1E10,
    _chunk_rng,
)

NAN = float("nan")
Z_ORACLE = 6.46695108724051617  # high-precision inverse-normal evaluation at 5e-11


def region_network(electronic_noise: float) -> NetworkParams:
    """One user behind a receiver of eta_d = 0.68, at V_mod = 5 and eps_pe = 1e-10."""
    return NetworkParams(
        modulation_variance=5.0,
        users=(UserLink(transmittance=0.5, excess_noise=0.0),),
        detector_efficiency=0.68,
        electronic_noise=electronic_noise,
        eps_pe=1e-10,
    )


class TestQuantile:
    def test_frozen_constant_matches_oracle(self):
        assert Z_EPS_PE_1E10 == pytest.approx(Z_ORACLE, abs=1e-12)

    def test_runtime_quantile_matches_frozen_constant(self):
        assert one_sided_quantile(1e-10) == pytest.approx(Z_ORACLE, rel=1e-9)

    def test_default_level_returns_frozen_constant(self):
        assert one_sided_quantile(1e-10) == Z_EPS_PE_1E10

    def test_scipy_cross_check(self):
        scipy_special = pytest.importorskip("scipy.special")
        # lower-tail evaluation: forming 1 - 5e-11 first would shed ~8 digits
        assert -scipy_special.ndtri(5e-11) == pytest.approx(Z_ORACLE, rel=1e-12)

    @pytest.mark.parametrize("eps_pe", [0.2, 1e-3, 1e-6, 1e-12, 0.4999])
    def test_runtime_quantile_matches_scipy(self, eps_pe):
        scipy_stats = pytest.importorskip("scipy.stats")
        assert one_sided_quantile(eps_pe) == pytest.approx(
            scipy_stats.norm.isf(eps_pe / 2.0), rel=1e-14
        )

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.5, 0.7])
    def test_domain(self, bad):
        with pytest.raises(ValidationError):
            one_sided_quantile(bad)


class TestSimulate:
    def test_seed_determinism(self, table1):
        a = simulate(table1, 5000, seed=99)
        b = simulate(table1, 5000, seed=99)
        assert np.array_equal(a.alice_x, b.alice_x)
        assert np.array_equal(a.y_x, b.y_x)
        assert np.array_equal(a.y_p, b.y_p)

    @pytest.mark.parametrize("seed", [1.7, 1.0, "7", None], ids=["float", "integral-float",
                                                                "string", "none"])
    def test_non_integer_seed(self, table1, seed):
        message = f"seed must be an integer, got {seed!r}"
        with pytest.raises(ValidationError) as drawn:
            simulate(table1, 100, seed)
        with pytest.raises(ValidationError) as sampled:
            sample_orderings(table1, 3, seed=seed)
        assert str(drawn.value) == str(sampled.value) == message

    @pytest.mark.parametrize("n", [1000.0, 2.5, "1000", None], ids=["integral-float", "float",
                                                                  "string", "none"])
    def test_non_integer_symbol_count(self, table1, n):
        with pytest.raises(ValidationError) as drawn:
            simulate(table1, n, 1)
        assert str(drawn.value) == f"n must be an integer, got {n!r}"

    def test_integer_like_seed(self, table1):
        block = simulate(table1, 100, np.int64(7))
        assert type(block.seed) is int
        assert np.array_equal(block.columns, simulate(table1, 100, 7).columns)

    def test_different_seeds_differ(self, table1):
        a = simulate(table1, 1000, seed=1)
        b = simulate(table1, 1000, seed=2)
        assert not np.array_equal(a.alice_x, b.alice_x)

    def test_chunk_streams_do_not_overlap(self):
        # seed s, chunk c must not replay the stream of any other (s', c')
        first = {tuple(_chunk_rng(s, c).standard_normal(4)) for s in range(8) for c in range(8)}
        assert len(first) == 64

    def test_chunk_boundary_determinism(self, table1):
        # spans two generator chunks; regenerating must still be identical
        n = (1 << 19) + 17
        a = simulate(table1, n, seed=5)
        b = simulate(table1, n, seed=5)
        assert np.array_equal(a.y_p, b.y_p)

    def test_draw_order_pinned(self, table1):
        # chunk i draws from SeedSequence(seed, spawn_key=(i,)): x normals,
        # then p normals, each (size, M+1) and mapped through chol^T
        n, seed, chunk = (1 << 19) + 17, 5, 1 << 19
        block = simulate(table1, n, seed)
        chol = np.linalg.cholesky(classical_outcome_cov(table1))
        x, p = [], []
        for i, start in enumerate(range(0, n, chunk)):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            size = min(chunk, n - start)
            x.append(rng.standard_normal((size, table1.n_users + 1)) @ chol.T)
            p.append(rng.standard_normal((size, table1.n_users + 1)) @ chol.T)
        x, p = np.vstack(x), np.vstack(p)
        assert np.array_equal(block.alice_x, x[:, 0])
        assert np.array_equal(block.alice_p, p[:, 0])
        assert np.array_equal(block.y_x, x[:, 1:])
        assert np.array_equal(block.y_p, p[:, 1:])

    @pytest.mark.parametrize("users", [1, 4])
    def test_block_independent_of_worker_count(self, table1, users, monkeypatch):
        # three chunks, the last of one row: the default, one worker, two (one
        # of them fills chunks 0 and 2 through the same buffers), three (the
        # pool path even where the process has a single CPU) and os.cpu_count
        # where os.sched_getaffinity is missing (outside Linux), switching
        # threads often so that a shared buffer would show
        params = replace(table1, users=table1.users[:users])
        n = 2 * CHUNK + 1
        default = simulate(params, n, seed=21).columns
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in ({0}, {0, 1}, {0, 1, 2}, None):
                if cpus is None:
                    monkeypatch.delattr(os, "sched_getaffinity")
                else:
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                assert np.array_equal(simulate(params, n, seed=21).columns, default)
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_is_block_and_worker_buffers(self, table1, monkeypatch):
        # each of four workers fills through one draw and one product buffer
        # of (CHUNK, M+1) float64, allocated before dispatch; nothing per chunk
        params = replace(table1, users=table1.users[:1])
        workers, m = 4, 1
        n = workers * CHUNK
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        simulate(params, CHUNK + 1, seed=3)  # first-call allocations, pool import
        tracemalloc.start()
        try:
            simulate(params, n, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = (2 + 2 * m) * n * 8
        buffer_bytes = workers * 2 * CHUNK * (m + 1) * 8
        assert peak <= block_bytes + buffer_bytes + (1 << 20)

    def test_zero_modulation(self):
        params = NetworkParams(
            modulation_variance=1e-18,
            users=(UserLink(transmittance=0.3, excess_noise=0.005, trusted_noise=0.05),),
            detector_efficiency=0.68,
        )
        block = simulate(params, 20000, seed=3)
        assert np.max(np.abs(block.alice_x)) < 1e-6
        model_var = classical_outcome_cov(params)[1, 1]
        assert block.y_x[:, 0].var() == pytest.approx(model_var, rel=0.05)

    def test_empirical_covariance_matches_analytic(self, table1):
        n = 200_000
        block = simulate(table1, n, seed=11)
        data = np.column_stack([block.alice_x, block.y_x])
        empirical = np.cov(data.T)
        analytic = classical_outcome_cov(table1)
        # each entry within 5 sigma of its own sampling error
        for i in range(5):
            for j in range(5):
                se = np.sqrt((analytic[i, i] * analytic[j, j] + analytic[i, j] ** 2) / n)
                assert abs(empirical[i, j] - analytic[i, j]) <= 5 * se

    def test_inter_user_correlations_present(self, table1):
        block = simulate(table1, 100_000, seed=12)
        analytic = classical_outcome_cov(table1)
        emp = np.cov(block.y_x[:, 0], block.y_x[:, 1])[0, 1]
        assert emp == pytest.approx(analytic[1, 2], abs=5 * np.sqrt(2.0 / 100_000))


class TestEstimate:
    def test_exact_regression_on_noiseless_data(self, table1):
        # one tile, and three plus a partial fourth: pooled from per-tile
        # residuals, sigma2 stays at rounding level, far below the cancellation
        # error of sum(y^2) - t sum(s y)
        for n in (5000, 3 * TILE + 17):
            rng = np.random.default_rng(0)
            s_x = rng.normal(0, np.sqrt(table1.modulation_variance), n)
            s_p = rng.normal(0, np.sqrt(table1.modulation_variance), n)
            t_true = 0.21
            block = SymbolBlock(columns=np.vstack([s_x, s_p, t_true * s_x, t_true * s_p]), seed=0)
            t_hat, sigma2_hat = estimate(block, 0)
            assert t_hat == pytest.approx(t_true, rel=1e-12)
            assert sigma2_hat == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("n,zero_tile", [(1000, False), (TILE - 1, False), (TILE + 1, False),
                                             (2 * CHUNK + 17, False), (3 * TILE + 5, True)],
                             ids=["1000", "tile-1", "tile+1", "2chunks+17", "zero-tile"])
    def test_agrees_with_full_length_residuals(self, table1, n, zero_tile):
        # the estimators as one sum over all n symbols, then a residual pass;
        # the tiles only regroup the sums.  A tile whose symbols are all zero
        # has no slope of its own and adds nothing to the pooled sums.
        block = simulate(table1, n, seed=8)
        if zero_tile:
            block.columns[:2, TILE : 2 * TILE] = 0.0
        dot = lambda a, b: np.einsum("i,i->", a, b)
        s_x, s_p = block.alice_x, block.alice_p
        report = estimate_report(block, table1)
        for k, u in enumerate(report.users):
            y_x, y_p = block.y_x[:, k], block.y_p[:, k]
            t = (dot(s_x, y_x) + dot(s_p, y_p)) / (dot(s_x, s_x) + dot(s_p, s_p))
            r_x, r_p = y_x - t * s_x, y_p - t * s_p
            sigma2 = (dot(r_x, r_x) + dot(r_p, r_p)) / (2 * n)
            assert u.t_hat == pytest.approx(t, rel=1e-13, abs=0)
            assert u.sigma2_hat == pytest.approx(sigma2, rel=1e-13, abs=0)
            assert estimate(block, k) == (u.t_hat, u.sigma2_hat)

    def test_report_bits_independent_of_worker_count(self, table1, monkeypatch):
        # three chunks, the last of one symbol, under every CPU count that
        # `simulate` would split them by: the estimators run on the calling
        # thread, so none of it may move a bit
        n = 2 * CHUNK + 1
        block = simulate(table1, n, seed=22)
        default = repr(estimate_report(block, table1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in ({0}, {0, 1, 2}, None):
                if cpus is None:
                    monkeypatch.delattr(os, "sched_getaffinity")
                else:
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                        raising=False)
                assert repr(estimate_report(block, table1)) == default
        finally:
            sys.setswitchinterval(interval)

    def test_report_bits_independent_of_blas_threads(self):
        # n is above OpenBLAS's threshold for splitting a dot product across
        # threads, where the split moves last bits
        script = ("from cvqnet import default_config, estimate_report, simulate\n"
                  "params = default_config().params\n"
                  "print(repr(estimate_report(simulate(params, 20000, 3), params)))")
        path = os.pathsep.join(filter(None, [str(Path(cvqnet.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        reports = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        }
        assert len(reports) == 1 and "EstimateReport(" in reports.pop()

    @pytest.mark.parametrize("users", [5, 3])
    def test_report_rejects_block_of_another_user_count(self, table1, users):
        other = NetworkParams(modulation_variance=5.04, users=(table1.users * 2)[:users])
        block = simulate(other, 2000, seed=4)
        with pytest.raises(ConfigError, match=f"block has {users} users but config describes 4"):
            estimate_report(block, table1)

    def test_estimates_recover_truth(self, table1):
        # 3-sigma tolerances: sd(eps_hat) = 2 sigma2 sqrt(2/n) / eta_d is
        # about 4.3 mSNU at n = 1e6, so excess noise is only loosely pinned
        block = simulate(table1, 10**6, seed=21)
        report = estimate_report(block, table1)
        for k, u in enumerate(report.users):
            assert u.eta_hat == pytest.approx(table1.users[k].transmittance, rel=0.02)
            assert u.eps_hat == pytest.approx(table1.users[k].excess_noise, abs=0.013)

    def test_zero_excess_truth_may_flag_negative(self):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.3, excess_noise=0.0, trusted_noise=0.05),),
            detector_efficiency=0.68,
        )
        negatives = 0
        for seed in range(8):
            block = simulate(params, 50_000, seed=seed)
            eps_hat = estimate_report(block, params).users[0].eps_hat
            negatives += eps_hat < 0
        assert negatives > 0  # unbiased estimator noise crosses zero

    def test_negative_excess_estimate_is_flagged(self):
        # residual variances 0.2 SNU of excess noise below and above zero,
        # about nine estimator standard deviations at n = 20000
        params = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.3, excess_noise=0.0, trusted_noise=0.05),) * 2,
            detector_efficiency=0.68,
        )
        n = 20_000
        rng = np.random.default_rng(3)
        s_x, s_p = rng.normal(0.0, np.sqrt(5.0), (2, n))
        sigma2 = np.array([(0.68 * (1.0 + eps) + 0.32 + 0.05 + 1.0) / 2.0 for eps in (-0.2, 0.2)])
        noise_x, noise_p = np.sqrt(sigma2) * rng.standard_normal((2, n, 2))
        y_x = 0.3 * s_x[:, None] + noise_x
        y_p = 0.3 * s_p[:, None] + noise_p
        block = SymbolBlock(columns=np.vstack([s_x, s_p, y_x.T, y_p.T]), seed=0)
        users = estimate_report(block, params).users
        assert [u.eps_hat < 0 for u in users] == [True, False]
        assert [u.negative_excess_flagged for u in users] == [True, False]

    @pytest.mark.parametrize("k,message", [
        (1.5, "user index must be an integer, got 1.5"),
        (1.0, "user index must be an integer, got 1.0"),
        ("1", "user index must be an integer, got '1'"),
        (None, "user index must be an integer, got None"),
        (4, "user index 4 out of range for 4 users"),
        (-1, "user index -1 out of range for 4 users"),
    ], ids=["fraction", "float", "text", "none", "too-large", "negative"])
    def test_bad_user_index(self, table1, k, message):
        # the rule of NetworkParams.check_user, before any array is indexed
        block = simulate(table1, 2000, seed=5)
        with pytest.raises(ValidationError) as info:
            estimate(block, k)
        assert str(info.value) == message

    def test_integer_like_user_index(self, table1):
        block = simulate(table1, 2000, seed=5)
        assert estimate(block, np.int64(1)) == estimate(block, 1)

    def test_minimum_sample_guard(self, table1):
        block = simulate(table1, 500, seed=1)
        with pytest.raises(ValidationError):
            estimate(block, 0)


class TestConfidenceRegion:
    def test_corner_inside_intervals(self):
        region = confidence_region(region_network(0.05), 0, 0.2, 1.0, 1e6)
        assert region.eta_min < region.eta_hat
        assert region.eps_max > region.eps_hat
        assert region.delta_t == pytest.approx(Z_ORACLE * np.sqrt(1.0 / (1e6 * 5.0)), rel=1e-9)

    def test_corner_approaches_ml_for_large_n(self):
        small = confidence_region(region_network(0.05), 0, 0.2, 1.0, 1e4)
        large = confidence_region(region_network(0.05), 0, 0.2, 1.0, 1e14)
        assert abs(large.eta_min - large.eta_hat) < abs(small.eta_min - small.eta_hat) * 1e-3
        assert abs(large.eps_max - large.eps_hat) < 1e-5

    def test_worst_case_rate_never_exceeds_ml(self, table1):
        for seed in range(5):
            block = simulate(table1, 100_000, seed=seed)
            report = estimate_report(block, table1)
            corner = worst_case_params(table1, report)
            for k in range(table1.n_users):
                wc = key_rate(table1, TrustModel.UNTRUSTED, k, worst_case=corner)
                ml = key_rate(table1, TrustModel.UNTRUSTED, k)
                assert wc.rate <= ml.rate + 1e-12

    def test_corner_at_zero_transmittance_gives_no_key(self, table1):
        # 2000 symbols of a faint user 1: its interval on t reaches 0
        q = replace(table1, users=(replace(table1.users[0], transmittance=0.01), *table1.users[1:]))
        report = estimate_report(simulate(q, 2000, 0), q)
        corner = worst_case_params(q, report)
        assert report.users[0].eta_min == 0.0
        assert corner.users[0].transmittance == 0.0
        for trust in TrustModel:
            assert key_rate(q, trust, 0, worst_case=corner).rate == 0.0

    @pytest.mark.parametrize(
        "t_hat,n,sigma2_hat,message",
        [(0.2, 1.0, 1.0, "n >= 2"), (0.2, 1e6, 0.0, "must be positive"),
         (0.2, 1e6, -0.5, "must be positive"), (0.2, NAN, 1.0, "n >= 2"),
         (0.2, 1e6, NAN, "must be positive"), (NAN, 1e6, 1.0, "must be finite"),
         (np.inf, 1e6, 1.0, "must be finite")],
        ids=["n-1", "sigma2-0", "sigma2-negative", "n-nan", "sigma2-nan", "t-nan", "t-inf"],
    )
    def test_sample_domain(self, t_hat, n, sigma2_hat, message):
        with pytest.raises(ValidationError, match=message):
            confidence_region(region_network(0.0), 0, t_hat, sigma2_hat, n)

    def test_eps_pe_domain(self):
        # a region reads eps_pe from the network, which rejects 0.9
        with pytest.raises(ValidationError):
            confidence_region(replace(region_network(0.0), eps_pe=0.9), 0, 0.2, 1.0, 1e6)


class TestBlockFiles:
    def test_roundtrip(self, table1, tmp_path):
        block = simulate(table1, 4096, seed=17)
        path = tmp_path / "block.cvnb"
        write_block(block, str(path))
        loaded = read_block(str(path))
        assert loaded.n == block.n
        assert loaded.seed == block.seed
        assert loaded.n_users == block.n_users
        assert np.array_equal(loaded.alice_x, block.alice_x)
        assert np.array_equal(loaded.alice_p, block.alice_p)
        assert np.array_equal(loaded.y_x, block.y_x)
        assert np.array_equal(loaded.y_p, block.y_p)

    def test_read_fields_view_one_payload(self, table1, tmp_path):
        path = tmp_path / "block.cvnb"
        block = simulate(table1, 3000, seed=5)
        write_block(block, str(path))
        for held in (block, read_block(str(path))):
            payload = held.alice_x.base
            assert payload.shape == (2 + 2 * table1.n_users, 3000)
            for field in (held.alice_p, held.y_x, held.y_p):
                assert field.base is payload

    def test_short_read_rejected(self, table1, tmp_path, monkeypatch):
        import types

        path = tmp_path / "block.cvnb"
        write_block(simulate(table1, 2000, seed=7), str(path))
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        # the size check passes, as for a file that shrinks while it is read
        fake_os = types.SimpleNamespace(fstat=lambda fd: types.SimpleNamespace(st_size=full))
        monkeypatch.setattr(importlib.import_module("cvqnet.simulate"), "os", fake_os)
        with pytest.raises(CorruptInputError, match="short read"):
            read_block(str(path))

    @pytest.mark.parametrize("before", [None, 5000, 1], ids=["fresh", "over-larger", "over-smaller"])
    def test_file_is_header_then_columns(self, before, table1, tmp_path):
        # a rewrite in place ends byte for byte as a fresh write of the layout
        path = tmp_path / "block.cvnb"
        if before is not None:
            write_block(simulate(table1, before, seed=2), str(path))
        block = simulate(table1, 2000, seed=7)
        write_block(block, str(path))
        layout = _HEADER.pack(MAGIC, FORMAT_VERSION, 2000, 4, 7) + block.columns.astype("<f8").tobytes()
        assert hashlib.sha256(path.read_bytes()).digest() == hashlib.sha256(layout).digest()

    def test_dev_null_accepted(self, table1):
        write_block(simulate(table1, 2000, seed=7), os.devnull)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_streams_the_file_bytes(self, table1, tmp_path):
        block = simulate(table1, 20000, seed=7)  # more than a pipe buffer
        write_block(block, str(tmp_path / "block.cvnb"))
        read_end, write_end = os.pipe()
        streamed = []

        def drain():
            with os.fdopen(read_end, "rb") as fh:
                streamed.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            write_block(block, f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert streamed == [(tmp_path / "block.cvnb").read_bytes()]

    def test_write_interrupted_before_header_has_bad_magic(self, table1, tmp_path, monkeypatch):
        class Interrupted(Exception):
            pass

        class StopBeforeHeader(io.BufferedWriter):
            def seek(self, *args):  # payload written and truncated; header next
                raise Interrupted

        path = tmp_path / "block.cvnb"
        write_block(simulate(table1, 5000, seed=1), str(path))
        module = importlib.import_module("cvqnet.simulate")
        monkeypatch.setattr(module, "open", lambda fd, mode: StopBeforeHeader(io.FileIO(fd, "w")),
                            raising=False)
        with pytest.raises(Interrupted):
            write_block(simulate(table1, 2000, seed=7), str(path))
        monkeypatch.undo()
        assert path.stat().st_size == _HEADER.size + 10 * 2000 * 8
        with pytest.raises(CorruptInputError, match="bad magic"):
            read_block(str(path))
        assert main(["estimate", "--in", str(path)]) == 2

    def test_same_seed_same_file_checksum(self, table1, tmp_path):
        p1, p2 = tmp_path / "a.cvnb", tmp_path / "b.cvnb"
        write_block(simulate(table1, 2000, seed=7), str(p1))
        write_block(simulate(table1, 2000, seed=7), str(p2))
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_truncated_file_rejected(self, table1, tmp_path):
        path = tmp_path / "block.cvnb"
        write_block(simulate(table1, 2000, seed=7), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptInputError):
            read_block(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cvnb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptInputError):
            read_block(str(path))

    def test_header_larger_than_file_rejected(self, tmp_path):
        path = tmp_path / "huge.cvnb"
        path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 2**60, 4, 0) + b"\x00" * 64)
        with pytest.raises(CorruptInputError, match="payload bytes"):
            read_block(str(path))

    def test_csv_matches_row_writer(self, table1, tmp_path):
        # a chunk boundary, and values whose 17-digit forms are unusual
        block = simulate(table1, 4100, seed=11)
        block.alice_x[:5] = [-0.0, 5e-324, 1e300, np.inf, np.nan]
        path, reference = tmp_path / "block.csv", tmp_path / "reference.csv"
        write_block_csv(block, str(path))
        cols = [block.alice_x, block.alice_p, *block.y_x.T, *block.y_p.T]
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(path.read_text().splitlines()[0].split(","))
            for i in range(block.n):
                writer.writerow([f"{col[i]:.17g}" for col in cols])
        assert path.read_bytes() == reference.read_bytes()

    def test_csv_export(self, table1, tmp_path):
        block = simulate(table1, 50, seed=1)
        path = tmp_path / "block.csv"
        write_block_csv(block, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alice_x,alice_p," + ",".join(
            [f"y_x_{k}" for k in range(1, 5)] + [f"y_p_{k}" for k in range(1, 5)]
        )
        assert len(lines) == 51
