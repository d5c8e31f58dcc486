import dataclasses

import numpy as np
import pytest

from cvqnet import (
    NetworkParams,
    UserLink,
    attach_trusted_detector,
    build_channel_output_cm,
    check_physicality,
    classical_outcome_cov,
    delta_fs,
    link_from_outcome_model,
    format_config,
    measured_outcome_model,
    one_sided_quantile,
    parse_config,
)
from cvqnet.errors import ModelError, ValidationError

from conftest import random_params, single_user, unphysical_pair
from oracles import brute_force_network_cm, epr_cm


class TestBuilder:
    def test_lossless_single_user_is_epr(self):
        gamma = build_channel_output_cm(single_user())
        assert np.allclose(gamma.matrix, epr_cm(6.0), atol=1e-12)
        assert gamma.mode_labels == ("A", "B1")

    def test_two_user_cross_block(self):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(
                UserLink(transmittance=0.5, excess_noise=0.0),
                UserLink(transmittance=0.5, excess_noise=0.0),
            ),
        )
        gamma = build_channel_output_cm(params)
        assert np.allclose(gamma.block(["B1"], ["B2"]), 2.5 * np.eye(2), atol=1e-12)

    def test_table1_is_physical(self, table1):
        gamma = build_channel_output_cm(table1)
        assert gamma.matrix.shape == (10, 10)
        assert check_physicality(gamma)

    def test_excess_noise_moves_only_own_diagonal(self, table1):
        bumped = table1.with_links(
            [
                (u.transmittance, u.excess_noise + (0.005 if k == 1 else 0.0))
                for k, u in enumerate(table1.users)
            ]
        )
        base = build_channel_output_cm(table1).matrix
        moved = build_channel_output_cm(bumped).matrix
        diff = moved - base
        expected = np.zeros_like(diff)
        expected[4, 4] = expected[5, 5] = 0.005
        assert np.allclose(diff, expected, atol=1e-12)

    def test_splitter_budget_enforced(self):
        with pytest.raises(ValidationError):
            NetworkParams(
                modulation_variance=5.0,
                users=(
                    UserLink(transmittance=0.7, excess_noise=0.0),
                    UserLink(transmittance=0.6, excess_noise=0.0),
                ),
            )
        NetworkParams(  # same network allowed with the budget check off
            modulation_variance=5.0,
            users=(
                UserLink(transmittance=0.7, excess_noise=0.0),
                UserLink(transmittance=0.6, excess_noise=0.0),
            ),
            enforce_splitter_budget=False,
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_brute_force_composition_equivalence(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(25):
            eta_fiber = float(rng.uniform(0.3, 1.0))
            fractions = rng.uniform(0.1, 1.0, m)
            fractions /= fractions.sum()
            eta_last = rng.uniform(0.3, 1.0, m)
            excess = rng.uniform(0.0, 0.02, m)
            v_mod = float(rng.uniform(2.0, 8.0))
            params = NetworkParams(
                modulation_variance=v_mod,
                users=tuple(
                    UserLink(
                        transmittance=float(eta_fiber * fractions[k] * eta_last[k]),
                        excess_noise=float(excess[k]),
                    )
                    for k in range(m)
                ),
            )
            closed = build_channel_output_cm(params).matrix
            brute = brute_force_network_cm(v_mod, eta_fiber, fractions, eta_last, excess)
            assert np.max(np.abs(closed - brute)) <= 1e-10


class TestTrustedDetector:
    def test_identity_detector_leaves_state_alone(self):
        gamma = build_channel_output_cm(single_user())
        extended = attach_trusted_detector(gamma, "B1", 1.0, 0.0)
        assert extended.mode_labels == ("A", "B1", "D1_B1", "D2_B1")
        assert np.allclose(extended.block(["A", "B1"], ["A", "B1"]), gamma.matrix, atol=1e-12)
        assert np.allclose(extended.block(["A", "B1"], ["D1_B1", "D2_B1"]), 0.0, atol=1e-12)
        assert np.allclose(extended.block(["D1_B1"], ["D1_B1"]), np.eye(2))

    def test_detected_variance_on_vacuum(self):
        vacuum = build_channel_output_cm(single_user(v_mod=1e-12)).reduce(["B1"])
        extended = attach_trusted_detector(vacuum, "B1", 0.68, 0.06)
        detected = extended.block(["B1"], ["B1"])
        assert detected[0, 0] == pytest.approx(1.06, abs=1e-9)
        assert detected[1, 1] == pytest.approx(1.06, abs=1e-9)

    def test_detected_variance_general(self, table1):
        gamma = build_channel_output_cm(table1)
        for k, user in enumerate(table1.users):
            label = f"B{k + 1}"
            extended = attach_trusted_detector(
                gamma, label, table1.detector_efficiency, table1.trusted_noise(k)
            )
            w = user.transmittance * table1.modulation_variance + 1.0 + user.excess_noise
            expected = (
                table1.detector_efficiency * w
                + (1.0 - table1.detector_efficiency)
                + table1.trusted_noise(k)
            )
            assert extended.block([label], [label])[0, 0] == pytest.approx(expected, rel=1e-12)
            assert check_physicality(extended)

    def test_unit_efficiency_with_noise_is_exact(self):
        gamma = build_channel_output_cm(single_user())
        extended = attach_trusted_detector(gamma, "B1", 1.0, 0.05)
        assert check_physicality(extended)
        # eta_d = 1 is the calibrated receiver itself: W + nu_el in both quadratures
        detected = extended.block(["B1"], ["B1"])
        assert detected[0, 0] == pytest.approx(6.05, rel=1e-12)
        assert detected[1, 1] == pytest.approx(6.05, rel=1e-12)

    def test_double_attach_rejected(self):
        gamma = build_channel_output_cm(single_user())
        extended = attach_trusted_detector(gamma, "B1", 0.9, 0.01)
        with pytest.raises(ValidationError):
            attach_trusted_detector(extended, "B1", 0.9, 0.01)

    @pytest.mark.parametrize("eta_d,nu", [(0.0, 0.01), (1.5, 0.01), (0.9, -0.1), (0.9, np.inf)])
    def test_receiver_rule_stated_once(self, eta_d, nu):
        # the network's receiver and a raw one are checked by the same rule
        with pytest.raises(ValidationError) as network:
            dataclasses.replace(single_user(), detector_efficiency=eta_d, electronic_noise=nu)
        with pytest.raises(ValidationError) as raw:
            attach_trusted_detector(build_channel_output_cm(single_user()), "B1", eta_d, nu)
        assert str(raw.value) == str(network.value)


class TestBuilderMemo:
    def test_equal_params_share_one_read_only_state(self, table1):
        users = tuple(dataclasses.replace(u) for u in table1.users)
        rebuilt = dataclasses.replace(table1, users=users)
        assert rebuilt == table1 and rebuilt is not table1
        first = build_channel_output_cm(table1)
        assert build_channel_output_cm(rebuilt) is first
        assert not first.matrix.flags.writeable
        with pytest.raises(ValueError):
            first.matrix[0, 0] = 0.0

    def test_equal_values_hash_equal(self, table1):
        # the hash is taken once, at construction; equality compares fields
        rng = np.random.default_rng(47)
        for params in [table1] + [random_params(rng, max_users=8) for _ in range(10)]:
            links = [(u.transmittance, u.excess_noise) for u in params.users]
            users = tuple(dataclasses.replace(u) for u in params.users)
            for copy in (params.with_links(links), dataclasses.replace(params, users=users),
                         parse_config(format_config(params)).params):
                assert copy == params and copy is not params
                assert hash(copy) == hash(params)
        bumped = table1.with_links([(0.1, 0.004)] * table1.n_users)
        assert bumped != table1 and hash(bumped) != hash(table1)

    def test_different_params_get_their_own_state(self, table1):
        bumped = dataclasses.replace(table1, modulation_variance=table1.modulation_variance + 1.0)
        assert not np.array_equal(
            build_channel_output_cm(bumped).matrix, build_channel_output_cm(table1).matrix
        )

    def test_unphysical_network_raises_on_every_call(self):
        # the second pair's Gamma is not even positive definite
        not_positive = dataclasses.replace(
            unphysical_pair(),
            users=(UserLink(transmittance=0.7, excess_noise=0.0),
                   UserLink(transmittance=0.6, excess_noise=0.0)),
        )
        for params in (unphysical_pair(), not_positive):
            for _ in range(3):
                with pytest.raises(ModelError, match="V_mod=5.0"):
                    build_channel_output_cm(params)

    def test_non_finite_output_raises_model_error(self, table1):
        # V^2 overflows to inf, so the covariance has non-finite entries
        params = dataclasses.replace(table1, modulation_variance=1e200)
        with pytest.raises(ModelError, match=r"non-finite entries\); params: V_mod=1e\+200, users="):
            build_channel_output_cm(params)

    @pytest.mark.parametrize("count", [3, 5])
    def test_with_links_needs_one_pair_per_user(self, table1, count):
        with pytest.raises(ValidationError, match="need one"):
            table1.with_links([(0.1, 0.004)] * count)

    def test_matches_block_by_block_reference(self, table1):
        rng = np.random.default_rng(41)
        for params in [table1] + [random_params(rng, max_users=8) for _ in range(20)]:
            v_mod = params.modulation_variance
            v = v_mod + 1.0
            m = params.n_users
            ref = np.zeros((2 * (m + 1), 2 * (m + 1)))
            ref[0:2, 0:2] = v * np.eye(2)
            for k, user in enumerate(params.users):
                eta, i = user.transmittance, 2 * (k + 1)
                ref[i : i + 2, i : i + 2] = (eta * v_mod + 1.0 + user.excess_noise) * np.eye(2)
                cross = np.sqrt(eta * (v * v - 1.0)) * np.diag([1.0, -1.0])
                ref[0:2, i : i + 2] = ref[i : i + 2, 0:2] = cross
                for j in range(k):
                    jj = 2 * (j + 1)
                    shared = np.sqrt(params.users[j].transmittance * eta) * v_mod * np.eye(2)
                    ref[i : i + 2, jj : jj + 2] = ref[jj : jj + 2, i : i + 2] = shared
            assert np.array_equal(build_channel_output_cm(params).matrix, ref)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("field", ["transmittance", "excess_noise", "trusted_noise"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_user_link_rejects(self, field, bad):
        values = {"transmittance": 0.1, "excess_noise": 0.01, "trusted_noise": 0.05, field: bad}
        with pytest.raises(ValidationError):
            UserLink(**values)

    @pytest.mark.parametrize("make,message", [
        (lambda table1: UserLink(0.1, -0.01), "excess noise must be finite and >= 0, got -0.01"),
        (lambda table1: UserLink(0.1, 0.01, float("inf")),
         "trusted noise must be finite and >= 0, got inf"),
        (lambda table1: dataclasses.replace(table1, electronic_noise=float("nan")),
         "electronic noise must be finite and >= 0, got nan"),
    ], ids=["excess", "trusted", "electronic"])
    def test_noise_messages(self, table1, make, message):
        # one rule for every noise variance, each message naming its quantity
        with pytest.raises(ValidationError) as info:
            make(table1)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "field",
        ["modulation_variance", "detector_efficiency", "electronic_noise", "beta",
         "block_size", "eps_pe"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_network_params_reject(self, table1, field, bad):
        with pytest.raises(ValidationError):
            dataclasses.replace(table1, **{field: bad})

    @pytest.mark.parametrize(
        "field,bad,check,message",
        [("eps_pe", 0.9, one_sided_quantile, "eps_pe must be in (0, 0.5), got 0.9"),
         ("block_size", 0.5, delta_fs, "block size must be finite and >= 1, got 0.5")],
        ids=["eps_pe", "block_size"],
    )
    def test_rule_stated_once(self, table1, field, bad, check, message):
        # the network and the function that reads the value raise one message
        with pytest.raises(ValidationError) as built:
            dataclasses.replace(table1, **{field: bad})
        with pytest.raises(ValidationError) as read:
            check(bad)
        assert str(built.value) == str(read.value) == message


class TestOutcomeModel:
    def test_clean_channel_values(self):
        params = single_user()
        model = measured_outcome_model(params, 0)
        assert model.gain == pytest.approx(np.sqrt(0.5))
        assert model.gain * params.modulation_variance == pytest.approx(5.0 / np.sqrt(2.0))
        variance = model.gain**2 * params.modulation_variance + model.noise_variance
        assert variance == pytest.approx(3.5)
        assert model.noise_variance == pytest.approx(1.0)

    def test_vanishing_transmittance(self):
        params = single_user(eta=1e-12, eta_d=0.8, nu=0.04)
        model = measured_outcome_model(params, 0)
        assert model.gain == pytest.approx(0.0, abs=1e-6)
        assert model.noise_variance == pytest.approx((2.0 + 0.04) / 2.0, abs=1e-9)

    def test_inverse_map_round_trips(self, table1):
        rng = np.random.default_rng(8)
        for params in [table1] + [random_params(rng) for _ in range(50)]:
            for k, user in enumerate(params.users):
                eta, eps = link_from_outcome_model(params, k, *measured_outcome_model(params, k))
                assert eta == pytest.approx(user.transmittance, abs=1e-12)
                assert eps == pytest.approx(user.excess_noise, abs=1e-12)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_inverse_map_rejects_user_out_of_range(self, table1, k):
        with pytest.raises(ValidationError, match="out of range"):
            link_from_outcome_model(table1, k, 0.3, 1.0)

    def test_classical_cov_consistent_with_outcome_model(self, table1):
        cov = classical_outcome_cov(table1)
        assert cov[0, 0] == table1.modulation_variance
        for k in range(table1.n_users):
            model = measured_outcome_model(table1, k)
            variance = model.gain**2 * table1.modulation_variance + model.noise_variance
            assert cov[k + 1, k + 1] == pytest.approx(variance, rel=1e-12)
            assert cov[0, k + 1] == pytest.approx(model.gain * table1.modulation_variance)

    def test_outcomes_conditionally_independent_given_symbol(self, table1):
        # inter-user outcome covariance equals the product of gains times V_mod:
        # all shared randomness is the symbol itself.  It is also the
        # channel-output cross block seen through both receivers, eta_d / 2.
        cov = classical_outcome_cov(table1)
        gamma = build_channel_output_cm(table1)
        for k in range(table1.n_users):
            for j in range(k):
                gk = measured_outcome_model(table1, k).gain
                gj = measured_outcome_model(table1, j).gain
                assert cov[j + 1, k + 1] == pytest.approx(
                    gj * gk * table1.modulation_variance, rel=1e-12
                )
                cross = gamma.block([f"B{j + 1}"], [f"B{k + 1}"])[0, 0]
                assert cov[j + 1, k + 1] == pytest.approx(
                    table1.detector_efficiency * cross / 2.0, rel=1e-12
                )

    def test_models_and_snrs_are_taken_at_construction_and_are_not_fields(self, table1):
        # each copy takes its own; equality, hashing, repr and the config
        # text read the eight fields alone
        names = [f.name for f in dataclasses.fields(NetworkParams)]
        assert "outcome_models" not in names and "snrs" not in names and len(names) == 8
        models = tuple(measured_outcome_model(table1, k) for k in range(table1.n_users))
        assert table1.outcome_models == models
        v_mod = table1.modulation_variance
        assert table1.snrs == tuple(v_mod * m.gain**2 / m.noise_variance for m in models)
        louder = dataclasses.replace(table1, modulation_variance=2 * v_mod)
        assert louder.outcome_models == models
        assert louder.snrs == tuple(2 * snr for snr in table1.snrs)
        copy = dataclasses.replace(table1)
        assert copy == table1 and hash(copy) == hash(table1) and repr(copy) == repr(table1)
        assert "snrs" not in repr(table1) and "outcome_models" not in repr(table1)
        assert parse_config(format_config(table1)).params == table1

    def test_classical_cov_positive_definite_random(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            cov = classical_outcome_cov(random_params(rng))
            assert np.linalg.eigvalsh(cov)[0] > 0
