import dataclasses
import math
import sys

import numpy as np
import pytest

import cvqnet.gaussian
import cvqnet.keyrates
import cvqnet.network
from cvqnet import (
    NetworkParams,
    TrustModel,
    UserLink,
    all_orderings,
    attach_trusted_detector,
    build_channel_output_cm,
    delta_fs,
    derive_worst_case,
    estimate_report,
    holevo_collaborative,
    holevo_trusted,
    holevo_untrusted,
    key_rate,
    measured_outcome_model,
    mutual_information,
    rate_table,
    simulate,
    worst_case_params,
)
from cvqnet.errors import ModelError, UnphysicalStateError, ValidationError
from cvqnet.gaussian import (
    CovarianceMatrix,
    block_spectrum,
    condition_on_heterodyne,
    spectrum_entropy,
    von_neumann_entropy,
)
from cvqnet.keyrates import _two_mode_holevo, measure_reference_user_blocks
from cvqnet.network import ALICE_LABEL, quadrature_signs, receiver_map, receiver_noise, user_label

from conftest import random_params, receiver_cases, single_user, unphysical_pair
from oracles import (
    _entropy,
    _heterodyne,
    _outcome_information,
    _purify,
    _State,
    mc_mutual_information,
    measure_reference_user,
    oracle_rates,
    precise_coalition_terms,
)

DELTA_1_25E9 = 1.15818643283188482e-3  # high-precision evaluation
LOG2_3P5 = np.log2(3.5)


def with_first_transmittance(params, eta):
    first = dataclasses.replace(params.users[0], transmittance=eta)
    return dataclasses.replace(params, users=(first, *params.users[1:]))


class TestMutualInformation:
    def test_clean_channel_closed_form(self):
        assert mutual_information(single_user(), 0) == pytest.approx(LOG2_3P5, rel=1e-12)

    def test_against_monte_carlo_oracle(self, table1):
        # 1e7-symbol empirical estimate must agree within 1%
        analytic = mutual_information(table1, 0)
        empirical = mc_mutual_information(table1, 0, n=10**7, seed=42)
        assert empirical == pytest.approx(analytic, rel=0.01)

    def test_vanishing_transmittance_gives_zero(self):
        assert mutual_information(single_user(eta=1e-12), 0) == pytest.approx(0.0, abs=1e-10)

    def test_conditioning_on_decoupled_user_is_noop(self, table1):
        decoupled = NetworkParams(
            modulation_variance=table1.modulation_variance,
            users=table1.users + (UserLink(transmittance=1e-15, excess_noise=0.0),),
            detector_efficiency=table1.detector_efficiency,
            beta=table1.beta,
            block_size=table1.block_size,
        )
        plain = mutual_information(decoupled, 0)
        conditioned = mutual_information(decoupled, 0, [4])
        assert conditioned == pytest.approx(plain, abs=1e-12)

    def test_self_conditioning_rejected(self, table1):
        with pytest.raises(ValidationError):
            mutual_information(table1, 1, [1])

    def test_closed_form_equals_determinant_oracle(self, table1):
        rng = np.random.default_rng(72)
        cases = [table1] + [random_params(rng, max_users=7) for _ in range(25)]
        worst = 0.0
        for params in cases:
            m = params.n_users
            for k in range(m):
                others = [j for j in range(m) if j != k]
                for given in ([], others[:1], others[1:], others):
                    closed = mutual_information(params, k, given)
                    worst = max(worst, abs(closed - _outcome_information(params, k, given)))
        assert worst <= 1e-12


def two_step_measurement(state, label, eta_d, nu):
    """The reference user's measurement through the extended state, less the
    ancilla D2, which the measurement leaves in vacuum and uncorrelated with
    the rest (checked here)."""
    measured = condition_on_heterodyne(attach_trusted_detector(state, label, eta_d, nu), [label])
    *kept, d2 = measured.mode_labels
    assert d2 == f"D2_{label}"
    vacuum = np.zeros((2, 2 * measured.dim_modes))
    vacuum[:, -2:] = np.eye(2)
    assert np.abs(measured.block([d2], measured.mode_labels) - vacuum).max() <= 1e-12
    return measured.reduce(kept)


def purified_measurement(state, label, eta_d, nu):
    """The oracle's measurement (`_purify`, then `_heterodyne`): a bounded
    dilation on three vacua, so eta_d = 1 included."""
    return _heterodyne(_purify(_State(state.matrix, state.mode_labels), label, eta_d, nu), [label])


def quadrature_blocks(state):
    return state.matrix[0::2, 0::2], state.matrix[1::2, 1::2]


class TestFusedReferenceMeasurement:
    def test_equals_attach_then_condition(self, table1):
        # and the oracle's purified measurement: the same state of the other
        # modes and the same entropy (its ancillae are another dilation of
        # the same receiver)
        rng = np.random.default_rng(71)
        cases = [table1] + [random_params(rng, max_users=6) for _ in range(25)]
        worst = worst_oracle = 0.0
        compared = 0
        for params in cases:
            global_state = build_channel_output_cm(params)
            # every state of a measurement chain, an untrusted (A, B1) pair and B1 alone
            chain = [(global_state.reduce(labels), [0]) for labels in
                     ([ALICE_LABEL, user_label(0)], [user_label(0)])]
            chain.append((global_state, [int(k) for k in rng.permutation(params.n_users)]))
            for state, order in chain:
                for k in order:
                    label = user_label(k)
                    # as given, eta_d = 1 with nu > 0, and nu = 0
                    for eta_d, nu in [
                        (params.detector_efficiency, params.trusted_noise(k)),
                        (1.0, 0.05),
                        (1.0, 0.0),
                        (params.detector_efficiency, 0.0),
                    ]:
                        fused = measure_reference_user(*quadrature_blocks(state),
                                                       state.mode_index(label), eta_d, nu)
                        reference = two_step_measurement(state, label, eta_d, nu)
                        scale = np.abs(reference.matrix).max()
                        for block, expected in zip(fused, quadrature_blocks(reference)):
                            worst = max(worst, np.abs(block - expected).max() / scale)
                        oracle = purified_measurement(state, label, eta_d, nu)
                        others = [other for other in state.mode_labels if other != label]
                        if others:
                            rows = oracle.rows(others)
                            expected = oracle.gamma[np.ix_(rows, rows)]
                            for q, block in enumerate(fused):
                                diff = np.abs(block[:-1, :-1] - expected[q::2, q::2]).max()
                                worst_oracle = max(worst_oracle, diff / scale)
                        entropy = spectrum_entropy(block_spectrum(*fused).tolist())
                        worst_oracle = max(worst_oracle, abs(entropy - _entropy(oracle.gamma)))
                        compared += 1
                    state = two_step_measurement(
                        state, label, params.detector_efficiency, params.trusted_noise(k)
                    )
        assert worst <= 1e-12
        assert worst_oracle <= 1e-11
        assert compared > 250

    @pytest.mark.parametrize(
        "user,eta_d,nu",
        [(-1, 0.68, 0.05), (0, 0.0, 0.05), (0, 1.5, 0.05), (0, 0.68, -0.1)],
        ids=["unknown-label", "zero-efficiency", "efficiency-above-1", "negative-noise"],
    )
    def test_rejects_bad_input(self, table1, user, eta_d, nu):
        # one bad input per case: the trusted bound checks the user whose mode
        # it measures (NetworkParams checks its receivers), and
        # attach_trusted_detector checks a raw receiver
        with pytest.raises(ValidationError):
            if user < 0:
                holevo_trusted(table1, user)
            else:
                attach_trusted_detector(build_channel_output_cm(table1), user_label(user), eta_d, nu)


class TestStackedReferenceMeasurement:
    @staticmethod
    def receivers(params, k):
        """As given, eta_d = 1 with nu > 0, and nu = 0."""
        return [(params.detector_efficiency, params.trusted_noise(k)),
                (1.0, 0.05), (1.0, 0.0), (params.detector_efficiency, 0.0)]

    def test_equals_single_state_step(self, table1):
        # every state of a measured chain, stacked once per (user left, receiver):
        # each member measures its own mode behind its own receiver and equals
        # the single-state step exactly, as does a one-member stack
        rng = np.random.default_rng(72)
        cases = [table1] + [random_params(rng, max_users=8) for _ in range(25)]
        members = 0
        for params in cases:
            x, p = quadrature_blocks(build_channel_output_cm(params))
            left = list(range(params.n_users))  # at positions 1.. after Alice
            for k in [int(k) for k in rng.permutation(params.n_users)]:
                jobs = [(left.index(j) + 1, receiver)
                        for j in left for receiver in self.receivers(params, j)]
                index = np.array([i for i, _ in jobs])
                eta_d, nu = np.array([receiver for _, receiver in jobs]).T
                n = len(x)
                stacked = measure_reference_user_blocks(
                    np.broadcast_to(x, (len(jobs), n, n)), index, eta_d, receiver_map(eta_d, nu)
                )
                assert stacked.shape == (len(jobs), n, n)
                for b, (i, receiver) in enumerate(jobs):
                    single = measure_reference_user(x, p, i, *receiver)
                    one = slice(b, b + 1)
                    alone = measure_reference_user_blocks(
                        x[None], index[one], eta_d[one], receiver_map(eta_d[one], nu[one])
                    )
                    assert np.array_equal(stacked[b], single[0])
                    assert np.array_equal(alone[0], single[0])
                    members += 1
                x, p = measure_reference_user(x, p, left.index(k) + 1, params.detector_efficiency,
                                              params.trusted_noise(k))
                left.remove(k)
        assert members > 1000


    def test_one_block_keeps_p_equal_j_x_j(self, table1):
        # the whole coalition lattice, one stacked step per layer as
        # CoalitionValues measures it: the step's X is the two-quadrature
        # reference's x, and X * j j^T its p, bit for bit, on every state
        rng = np.random.default_rng(21)
        cases = [table1, random_params(rng, n_users=8)]
        cases += [random_params(rng, max_users=8) for _ in range(12)]
        states = 0
        for params in cases:
            m = params.n_users
            signs = quadrature_signs(m + 1)
            x, p = quadrature_blocks(build_channel_output_cm(params))
            assert np.array_equal(p, x * signs)
            layer = {(): (x, p)}  # coalition, its users ascending -> reference (x, p)
            for _ in range(m):
                jobs = [(parent, k) for parent in layer
                        for k in range(max(parent, default=-1) + 1, m)]
                index = np.array([k + 1 - len(parent) for parent, k in jobs])
                eta_d = np.full(len(jobs), params.detector_efficiency)
                nu = np.array([params.trusted_noise(k) for _, k in jobs])
                stacked = measure_reference_user_blocks(
                    np.array([layer[parent][0] for parent, _ in jobs]),
                    index,
                    eta_d,
                    receiver_map(eta_d, nu),
                )
                grown = {}
                for b, (parent, k) in enumerate(jobs):
                    x, p = grown[parent + (k,)] = measure_reference_user(
                        *layer[parent], index[b], eta_d[b], nu[b]
                    )
                    assert np.array_equal(stacked[b], x)
                    assert np.array_equal(stacked[b] * signs, p)
                    states += 1
                layer = grown
        assert states == sum(2**params.n_users - 1 for params in cases)


class TestHighPrecisionReference:
    def test_trusted_holevo_within_1e12(self, table1):
        # near and at unit efficiency, where the purification variance of the
        # oracle's receiver reaches 1.5e4 (and diverges at 1)
        pytest.importorskip("mpmath")
        cases = receiver_cases(table1, np.random.default_rng(91))
        worst = 0.0
        for params in cases:
            users = range(params.n_users)
            reference = precise_coalition_terms(params, [()] + [(k,) for k in users])
            before = reference[frozenset()][1]
            for k in users:
                expected = float(before - reference[frozenset([k])][1])
                worst = max(worst, abs(holevo_trusted(params, k) - expected))
        assert len(cases) == 16
        assert worst <= 1e-12


class TestDelta:
    def test_reference_value(self):
        assert delta_fs(1.25e9) == pytest.approx(DELTA_1_25E9, rel=1e-12)

    def test_vanishes_asymptotically(self):
        assert delta_fs(1e18) < 1e-7

    def test_strictly_decreasing(self):
        grid = [1e6, 1e7, 1e8, 1e9, 1e10]
        vals = [delta_fs(n) for n in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_rejected(self):
        for bad in (0, float("nan"), math.inf):
            with pytest.raises(ValidationError, match="block size must be finite and >= 1"):
                delta_fs(bad)


class TestHolevoBounds:
    def test_pure_lossless_channel_has_zero_holevo(self):
        params = single_user()
        assert abs(holevo_untrusted(params, 0)) <= 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            params = random_params(rng)
            for k in range(params.n_users):
                assert holevo_untrusted(params, k) >= -1e-9
                assert holevo_trusted(params, k) >= -1e-9
                assert holevo_collaborative(params, k) >= -1e-9

    def test_trusted_never_exceeds_untrusted(self, table1):
        rng = np.random.default_rng(32)
        cases = [table1] + [random_params(rng) for _ in range(15)]
        for params in cases:
            for k in range(params.n_users):
                assert holevo_trusted(params, k) <= holevo_untrusted(params, k) + 1e-9

    def test_single_user_models_coincide(self):
        params = single_user(eta=0.4, eps=0.01, eta_d=0.7, nu=0.05)
        chi_u = holevo_untrusted(params, 0)
        assert holevo_trusted(params, 0) == pytest.approx(chi_u, abs=1e-9)
        assert holevo_collaborative(params, 0) == pytest.approx(chi_u, abs=1e-9)

    def test_collaborative_is_untrusted_bit_for_bit_when_others_see_nothing(self, table1):
        # Sigma_O = 0, so f = 0 and the pair is not conditioned at all
        for k in range(table1.n_users):
            links = [(u.transmittance if j == k else 0.0, u.excess_noise)
                     for j, u in enumerate(table1.users)]
            params = table1.with_links(links)
            assert holevo_collaborative(params, k) == holevo_untrusted(params, k)

    def test_collaborative_equals_untrusted_with_decoupled_others(self):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(
                UserLink(transmittance=0.3, excess_noise=0.005, trusted_noise=0.05),
                UserLink(transmittance=1e-13, excess_noise=0.0, trusted_noise=0.05),
            ),
            detector_efficiency=0.68,
        )
        assert holevo_collaborative(params, 0) == pytest.approx(
            holevo_untrusted(params, 0), abs=1e-10
        )


def pair_state(a, b, c):
    return CovarianceMatrix(np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]]),
                            (ALICE_LABEL, "B"))


def matrix_path_holevo(state, label, eta_d, nu):
    """S(state) - S(state after the trusted measurement of `label`), on matrices:
    the single-state step of the trusted bound, on any state."""
    after = measure_reference_user(*quadrature_blocks(state), state.mode_index(label), eta_d, nu)
    return von_neumann_entropy(state) - spectrum_entropy(block_spectrum(*after).tolist())


def collaborative_blocks(params, k):
    """x and p blocks of (A, Bk) after the assisting receivers and conditioning
    on the other users, each quadrature block conditioned apart by the same
    steps."""
    gamma = build_channel_output_cm(params).matrix
    eta_d = params.detector_efficiency
    others = [j for j in range(params.n_users) if j != k]
    kept, assisting = [0, k + 1], [j + 1 for j in others]
    noise = np.diag([(1.0 - eta_d) + params.trusted_noise(j) + 1.0 for j in others])
    blocks = []
    for block in (gamma[0::2, 0::2], gamma[1::2, 1::2]):
        cross = np.sqrt(eta_d) * block[np.ix_(kept, assisting)]
        outcome = eta_d * block[np.ix_(assisting, assisting)] + noise
        blocks.append(block[np.ix_(kept, kept)] - cross @ np.linalg.solve(outcome, cross.T))
    return blocks


def reference_two_mode_holevo(mp, a, b, c, eta_d, nu):
    """chi of `_two_mode_holevo` at the working precision of `mp`, with the
    receiver purified by an EPR pair of variance v = 1 + nu / (1 - eta_d): the
    spectra are the square roots of eig(X P) of the pair and of the
    conditional (A, D1, D2) blocks, each quadrature built from its own
    formula.  At eta_d = 1, where v diverges, it is the limit taken at
    eta_d = 1 - 1e-20 with 90 digits."""
    if eta_d == 1.0:
        with mp.workdps(90):
            return reference_two_mode_holevo(mp, a, b, c, 1 - mp.mpf("1e-20"), nu)
    a, b, c, eta_d, nu = map(mp.mpf, (a, b, c, eta_d, nu))
    v = 1 + nu / (1 - eta_d)

    def entropy(x, p):
        total = mp.mpf(0)
        for ev in mp.eig(x * p, left=False, right=False):
            y = (max(mp.sqrt(mp.re(ev)), 1) - 1) / 2
            total += (y + 1) * mp.log(y + 1, 2) - (y * mp.log(y, 2) if y > 0 else 0)
        return total

    t, r, e = mp.sqrt(eta_d), mp.sqrt(1 - eta_d), mp.sqrt(v * v - 1)
    outcome = eta_d * b + (1 - eta_d) * v + 1
    conditional = []
    for sign in (1, -1):  # Alice's cross entry and the ancilla correlation flip in p
        cq, tc = sign * c, sign * t * e
        retained = mp.matrix([[a, -r * cq, 0],
                              [-r * cq, r * r * b + eta_d * v, tc],
                              [0, tc, v]])
        sigma = mp.matrix([t * cq, t * r * (v - b), sign * r * e])
        conditional.append(retained - sigma * sigma.T / outcome)
    pair = [mp.matrix([[a, sign * c], [sign * c, b]]) for sign in (1, -1)]
    return entropy(*pair) - entropy(*conditional)


def two_mode_holevo(a, b, c, eta_d, nu):
    """`_two_mode_holevo` behind the receiver (eta_d, nu)."""
    return _two_mode_holevo(a, b, c, eta_d, receiver_map(eta_d, nu).noise)


def assisted_state(params, k):
    """The channel output after every assisting receiver but user k's, applied
    one user at a time as a full scale @ Gamma @ scale^T product."""
    state = build_channel_output_cm(params)
    eta_d = params.detector_efficiency
    for j in range(params.n_users):
        if j == k:
            continue
        i = 2 * (j + 1)
        scale = np.eye(state.matrix.shape[0])
        scale[i : i + 2, i : i + 2] = np.sqrt(eta_d) * np.eye(2)
        out = scale @ state.matrix @ scale.T
        out[i, i] += (1.0 - eta_d) + params.trusted_noise(j)
        out[i + 1, i + 1] += (1.0 - eta_d) + params.trusted_noise(j)
        state = CovarianceMatrix(out, state.mode_labels)
    return state


def sequential_collaborative_holevo(params, k):
    """Reference for the collaborative Holevo bound on matrices: the assisting
    receivers one at a time, then joint heterodyne conditioning."""
    others = [f"B{j + 1}" for j in range(params.n_users) if j != k]
    state = condition_on_heterodyne(assisted_state(params, k), others)
    return matrix_path_holevo(state, f"B{k + 1}", params.detector_efficiency,
                              params.trusted_noise(k))


class TestOneShotAssistingMap:
    def test_equals_sequential_map(self, table1):
        rng = np.random.default_rng(42)
        cases = [table1] + [random_params(rng, max_users=6) for _ in range(20)]
        assert sum(p.n_users > 2 for p in cases) >= 10
        for params in (p for p in cases if p.n_users > 1):
            for k in range(params.n_users):
                assert holevo_collaborative(params, k) == pytest.approx(
                    sequential_collaborative_holevo(params, k), abs=1e-12
                )

    def test_rate_table_checks_physicality_once(self, monkeypatch):
        import cvqnet.network

        calls = []
        check = cvqnet.network.check_physicality

        def counted(cm):
            calls.append(cm)
            return check(cm)

        monkeypatch.setattr(cvqnet.network, "check_physicality", counted)
        build_channel_output_cm.cache_clear()
        params = random_params(np.random.default_rng(43), n_users=5)
        reports = rate_table(params)
        assert len(reports) == 3 * params.n_users
        assert len(calls) == 1

    @staticmethod
    def count_model_calls(monkeypatch):
        """The user indices of every `measured_outcome_model` call, counted
        through each `cvqnet` module that binds the name."""
        calls = []
        model = cvqnet.network.measured_outcome_model

        def counted(params, k):
            calls.append(k)
            return model(params, k)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "cvqnet" and hasattr(module, "measured_outcome_model"):
                monkeypatch.setattr(module, "measured_outcome_model", counted)
        return calls

    def test_rate_table_takes_each_spectrum_and_outcome_model_once(self, monkeypatch):
        # one spectrum of the channel output (the builder's physicality
        # check, read again as S(sigma_0)) and one for the stacked singleton
        # layer of all M trusted measurements per cold table; the outcome
        # models are taken once, when a NetworkParams is built, so a table
        # takes none, as given or at the worst-case corner
        spectra = []
        spectrum = cvqnet.gaussian.block_spectrum

        def counted(*args):
            spectra.append(args)
            return spectrum(*args)

        monkeypatch.setattr(cvqnet.gaussian, "block_spectrum", counted)
        models = self.count_model_calls(monkeypatch)
        params = random_params(np.random.default_rng(44), n_users=6)
        assert (len(spectra), models) == (0, list(range(params.n_users)))
        corner = derive_worst_case(params)
        for worst_case in (None, corner):
            spectra.clear()
            models.clear()
            build_channel_output_cm.cache_clear()
            cvqnet.keyrates._singletons.cache_clear()
            assert len(rate_table(params, worst_case=worst_case)) == 3 * params.n_users
            assert (len(spectra), models) == (2, [])

    def test_simulator_and_rate_table_share_one_outcome_model_memo(self, monkeypatch):
        # the M outcome models are attributes of the network, taken at its
        # construction and nowhere else: building one, a replaced copy or a
        # worst-case corner takes M; the simulator, the estimator, the rate
        # tables and the decomposition read them and take none
        models = self.count_model_calls(monkeypatch)
        params = random_params(np.random.default_rng(46), n_users=5)
        everyone = list(range(params.n_users))
        assert models == everyone
        assert params.outcome_models == tuple(measured_outcome_model(params, k) for k in everyone)
        build_channel_output_cm.cache_clear()
        cvqnet.keyrates._singletons.cache_clear()

        def taken(fn, *args, **kwargs):
            """fn's result and the user indices of the outcome models it took."""
            models.clear()
            return fn(*args, **kwargs), list(models)

        assert taken(dataclasses.replace, params, beta=0.9)[1] == everyone
        corner, calls = taken(derive_worst_case, params)
        assert calls == everyone
        block, calls = taken(simulate, params, 1000, 0)
        assert calls == []
        report, calls = taken(estimate_report, block, params)
        assert calls == []
        assert taken(worst_case_params, params, report)[1] == everyone
        assert taken(rate_table, params)[1] == []
        assert taken(rate_table, params, worst_case=corner)[1] == []
        assert taken(all_orderings, params)[1] == []

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_rate_table_builds_the_state_once_per_bound(self, monkeypatch, cache):
        # the benchmark's pin: 3M builder calls per table, counted through
        # every module binding; the trusted memo is keyed on the state its
        # caller built, so a cold memo builds nothing more
        import cvqnet.decomposition
        import cvqnet.keyrates
        import cvqnet.network

        params = random_params(np.random.default_rng(45), n_users=5)
        if cache == "cold":
            build_channel_output_cm.cache_clear()
            cvqnet.keyrates._singletons.cache_clear()
        else:
            rate_table(params)
        calls = []
        for module in (cvqnet.network, cvqnet.keyrates, cvqnet.decomposition):
            def counted(params, _fn=module.build_channel_output_cm):
                calls.append(params)
                return _fn(params)

            monkeypatch.setattr(module, "build_channel_output_cm", counted)
        assert len(rate_table(params)) == 3 * params.n_users
        assert calls == [params] * (3 * params.n_users)

    def test_unphysical_network_raises_on_every_rate(self):
        params = unphysical_pair()
        for trust in TrustModel:
            for k in range(params.n_users):
                with pytest.raises(ModelError):
                    key_rate(params, trust, k)


class TestTwoModeClosedForm:
    @staticmethod
    def pairs(params):
        """(user, trust model, (a, b, c)) of every untrusted pair (A, Bk) and,
        with more than one user, every collaborative conditional pair."""
        gamma = build_channel_output_cm(params).matrix
        for k in range(params.n_users):
            i = 2 * k + 2
            yield k, TrustModel.UNTRUSTED, (gamma[0, 0], gamma[i, i], gamma[0, i])
            if params.n_users > 1:
                x = collaborative_blocks(params, k)[0]
                yield k, TrustModel.COLLABORATIVE, (x[0, 0], x[1, 1], x[0, 1])

    def test_bounds_read_the_builders_entries_exactly(self, table1):
        # the untrusted and collaborative bounds are the closed form on the
        # (A, Bk) entries of the builder's state, conditioned with
        # f = Sigma_O / (1 + Sigma_O), and every report names the links it evaluated
        rng = np.random.default_rng(84)
        for params in [table1] + [random_params(rng) for _ in range(60)]:
            state = build_channel_output_cm(params)
            corner = derive_worst_case(params)
            snrs = params.snrs
            eta_d = params.detector_efficiency
            for k in range(params.n_users):
                modes = [ALICE_LABEL, user_label(k)]
                x = state.block(modes, modes)[0::2, 0::2]
                a, b, c = float(x[0, 0]), float(x[1, 1]), float(x[0, 1])
                noise = receiver_noise(eta_d, params.trusted_noise(k))
                assert holevo_untrusted(params, k) == _two_mode_holevo(a, b, c, eta_d, noise)
                others = math.fsum([snr for j, snr in enumerate(snrs) if j != k])
                f = others / (1.0 + others)
                b_f = b - params.modulation_variance * params.users[k].transmittance * f
                assert holevo_collaborative(params, k) == _two_mode_holevo(
                    a - (a + 1.0) * f, b_f, c * (1.0 - f), eta_d, noise
                )
                for trust in TrustModel:
                    for evaluated, report in (
                        (params, key_rate(params, trust, k)),
                        (params, key_rate(params, trust, k, "asymptotic", corner)),
                        (corner, key_rate(params, trust, k, worst_case=corner)),
                    ):
                        links = tuple((u.transmittance, u.excess_noise) for u in evaluated.users)
                        assert report.params_used == links

    def test_matches_50_digit_reference(self, table1):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(81)
        # a pure and two nearly pure lossy pairs, then network pairs
        states = [(6.0, (1.0 - loss) * 5.0 + 1.0, np.sqrt((1.0 - loss) * 35.0))
                  for loss in (0.0, 1e-9, 1e-4)]
        for params in [table1] + [random_params(rng, n_users=4) for _ in range(5)]:
            states += [state for _, _, state in self.pairs(params)]
        receivers = [(1.0, 0.0), (1.0, 0.05), (0.7, 0.0)]
        receivers += [(rng.uniform(0.4, 1.0), rng.uniform(0.0, 0.2)) for _ in states[3:]]
        receivers[3::5] = [(1.0, 0.05)] * len(receivers[3::5])  # unit efficiency with noise
        receivers[4::5] = [(rng.uniform(0.4, 1.0), 0.0)] * len(receivers[4::5])  # no noise
        assert len(states) >= 40
        worst = 0.0
        with mpmath.workdps(50):
            for (a, b, c), receiver in zip(states, receivers):
                reference = reference_two_mode_holevo(mpmath.mp, a, b, c, *receiver)
                worst = max(worst, abs(two_mode_holevo(a, b, c, *receiver) - float(reference)))
        assert worst <= 1e-11

    def test_matches_matrix_path(self, table1):
        rng = np.random.default_rng(82)
        worst, compared = 0.0, 0
        for params in [table1] + [random_params(rng) for _ in range(300)]:
            global_state = build_channel_output_cm(params)
            for k, trust, _ in self.pairs(params):
                label, eta_d, nu = user_label(k), params.detector_efficiency, params.trusted_noise(k)
                if trust is TrustModel.UNTRUSTED:
                    pair = global_state.reduce([ALICE_LABEL, label])
                    closed = holevo_untrusted(params, k)
                    matrix = matrix_path_holevo(pair, label, eta_d, nu)
                else:
                    closed = holevo_collaborative(params, k)
                    matrix = sequential_collaborative_holevo(params, k)
                worst = max(worst, abs(closed - matrix))
                compared += 1
        assert compared == 1817
        assert worst <= 1e-10

    @pytest.mark.parametrize("eta_d,nu", [(0.68, 0.0), (1.0, 0.05), (1.0, 0.0)],
                             ids=["no-electronic-noise", "unit-efficiency-with-noise", "ideal"])
    def test_receiver_edge_cases(self, table1, eta_d, nu):
        # at eta_d = 1 with noise the purification diverges, so the reference
        # is its limit (see reference_two_mode_holevo)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for _, _, (a, b, c) in self.pairs(table1):
                reference = float(reference_two_mode_holevo(mpmath.mp, a, b, c, eta_d, nu))
                closed = two_mode_holevo(a, b, c, eta_d, nu)
                assert closed == pytest.approx(reference, abs=1e-12)

    def test_zero_transmittance_link(self, table1):
        params = with_first_transmittance(table1, 0.0)
        gamma = build_channel_output_cm(params).matrix
        assert gamma[0, 2] == 0.0
        pair = gamma[0, 0], gamma[2, 2], gamma[0, 2]
        # Alice decouples: chi is what the measurement learns of B1's own noise
        expected = matrix_path_holevo(pair_state(*pair), "B", params.detector_efficiency,
                                      params.trusted_noise(0))
        assert holevo_untrusted(params, 0) == pytest.approx(expected, abs=1e-12)
        # its rate is 0 in every trust model: test_zero_transmittance_user_has_no_key

    def test_one_user(self):
        params = single_user(eta=0.4, eps=0.01, eta_d=0.7, nu=0.05)
        pair = build_channel_output_cm(params)
        expected = matrix_path_holevo(pair, "B1", 0.7, 0.05)
        assert holevo_untrusted(params, 0) == pytest.approx(expected, abs=1e-12)
        assert holevo_collaborative(params, 0) == holevo_untrusted(params, 0)
        assert abs(holevo_untrusted(single_user(), 0)) <= 1e-15  # pure: both spectra are 1

    @pytest.mark.parametrize("a,b,c", [(2.0, 2.0, 2.0), (2.0, 2.0, 3.0), (-2.0, -3.0, 0.0),
                                       (math.nan, 2.0, 0.0)],
                             ids=["singular", "indefinite", "negative", "nan"])
    def test_rejects_non_positive_definite(self, a, b, c):
        with pytest.raises(ValidationError):
            two_mode_holevo(a, b, c, 0.7, 0.0)

    def test_rejects_unphysical_pair(self):
        # positive definite, but both symplectic eigenvalues are sqrt(0.39) < 1
        with pytest.raises(UnphysicalStateError):
            two_mode_holevo(2.0, 2.0, 1.9, 0.7, 0.0)

    def test_p_block_mirrors_x_block(self, table1):
        # the closed form reads only x blocks: every p block must be D X D exactly
        rng = np.random.default_rng(83)
        for params in [table1] + [random_params(rng, max_users=8) for _ in range(40)]:
            gamma = build_channel_output_cm(params).matrix
            mirror = np.diag([-1.0] + [1.0] * params.n_users)
            assert np.array_equal(gamma[1::2, 1::2], mirror @ gamma[0::2, 0::2] @ mirror)
            if params.n_users == 1:
                continue
            for k in range(params.n_users):
                x, p = collaborative_blocks(params, k)
                assert np.array_equal(p, mirror[:2, :2] @ x @ mirror[:2, :2])
                # and these are the blocks of the collaborative state on matrices
                others = [user_label(j) for j in range(params.n_users) if j != k]
                state = condition_on_heterodyne(assisted_state(params, k), others).matrix
                for block, reference in ((x, state[0::2, 0::2]), (p, state[1::2, 1::2])):
                    assert np.abs(block - reference).max() <= 1e-12 * np.abs(reference).max()


class TestTrustOrdering:
    def test_ordering_on_table1_and_random(self, table1):
        rng = np.random.default_rng(33)
        cases = [table1] + [random_params(rng) for _ in range(20)]
        for params in cases:
            for k in range(params.n_users):
                rates = {
                    t: key_rate(params, t, k, mode="asymptotic") for t in TrustModel
                }
                raw = {
                    t: params.beta * r.mutual_information - r.holevo
                    for t, r in rates.items()
                }
                assert raw[TrustModel.UNTRUSTED] <= raw[TrustModel.COLLABORATIVE] + 1e-9
                assert raw[TrustModel.COLLABORATIVE] <= raw[TrustModel.TRUSTED] + 1e-9


class TestKeyRate:
    def test_report_identity(self, table1):
        report = key_rate(table1, TrustModel.TRUSTED, 0)
        raw = table1.beta * report.mutual_information - report.holevo - report.delta
        assert report.rate == pytest.approx(max(0.0, raw), abs=1e-12)
        assert report.delta == pytest.approx(delta_fs(table1.block_size), rel=1e-12)
        assert report.params_source == "as-given"

    def test_zero_beta_flags_non_positive(self, table1):
        report = key_rate(dataclasses.replace(table1, beta=1e-9), TrustModel.TRUSTED, 0)
        assert report.non_positive
        assert report.rate == 0.0

    def test_asymptotic_at_least_finite(self, table1):
        for t in TrustModel:
            for k in range(table1.n_users):
                fin = key_rate(table1, t, k, mode="finite")
                asym = key_rate(table1, t, k, mode="asymptotic")
                assert asym.rate >= fin.rate - 1e-12

    def test_monotone_in_each_parameter(self, table1):
        base = key_rate(table1, TrustModel.TRUSTED, 0, mode="asymptotic").rate

        worse_eps = table1.with_links(
            [(u.transmittance, u.excess_noise + 0.002) for u in table1.users]
        )
        assert key_rate(worse_eps, TrustModel.TRUSTED, 0, mode="asymptotic").rate < base

        better_eta = table1.with_links(
            [(u.transmittance * 1.05, u.excess_noise) for u in table1.users]
        )
        assert key_rate(better_eta, TrustModel.TRUSTED, 0, mode="asymptotic").rate > base

        noisier = dataclasses.replace(
            table1,
            users=tuple(
                dataclasses.replace(u, trusted_noise=(u.trusted_noise or 0.0) + 0.05)
                for u in table1.users
            ),
        )
        assert key_rate(noisier, TrustModel.TRUSTED, 0, mode="asymptotic").rate < base

        lower_beta = dataclasses.replace(table1, beta=0.90)
        assert key_rate(lower_beta, TrustModel.TRUSTED, 0, mode="asymptotic").rate < base

    def test_worst_case_of_other_users_rejected(self, table1):
        other = dataclasses.replace(table1, users=table1.users[:3])
        for trust in TrustModel:
            with pytest.raises(ValidationError, match="same users"):
                key_rate(table1, trust, 0, worst_case=derive_worst_case(other))

    def test_worst_case_derivation_direction(self, table1):
        corner = derive_worst_case(table1)
        for u_wc, u in zip(corner.users, table1.users):
            assert u_wc.transmittance < u.transmittance
            assert u_wc.excess_noise > u.excess_noise

    def test_worst_case_rate_below_as_given(self, table1):
        corner = derive_worst_case(table1)
        for t in TrustModel:
            for k in range(table1.n_users):
                wc = key_rate(table1, t, k, worst_case=corner)
                ml = key_rate(table1, t, k)
                assert wc.rate <= ml.rate + 1e-12
                assert wc.params_source == "interval-corner"

    def test_zero_transmittance_user_has_no_key(self, table1):
        # outcomes independent of Alice's symbols; rates match the oracle
        params = with_first_transmittance(table1, 0.0)
        expected = oracle_rates(params)
        for t in TrustModel:
            report = key_rate(params, t, 0)
            raw = params.beta * report.mutual_information - report.holevo - report.delta
            assert raw == pytest.approx(expected[t.value][0], abs=1e-9)
            assert report.rate == 0.0 and report.non_positive

    def test_unit_efficiency_rates_match_oracle(self, table1):
        # eta_d = 1 exactly, on both sides: the oracle's receiver dilation is
        # bounded there
        rng = np.random.default_rng(45)
        cases = [table1] + [random_params(rng, max_users=5) for _ in range(5)]
        for params in (dataclasses.replace(p, detector_efficiency=1.0) for p in cases):
            expected = oracle_rates(params)
            for report in rate_table(params):
                raw = params.beta * report.mutual_information - report.holevo - report.delta
                assert raw == pytest.approx(expected[report.trust.value][report.user], abs=1e-9)

    def test_worst_case_corner_at_zero_transmittance_gives_no_key(self, table1):
        params = with_first_transmittance(table1, 1e-8)
        corner = derive_worst_case(params)
        assert corner.users[0].transmittance == 0.0
        assert corner.users[1:] == derive_worst_case(table1).users[1:]
        for t in TrustModel:
            assert key_rate(params, t, 0, worst_case=corner).rate == 0.0

    def test_finite_converges_to_asymptotic(self, table1):
        import dataclasses

        big = dataclasses.replace(table1, block_size=10**12)
        for k in range(table1.n_users):
            fin = key_rate(big, TrustModel.TRUSTED, k, mode="finite").rate
            asym = key_rate(big, TrustModel.TRUSTED, k, mode="asymptotic").rate
            assert abs(fin - asym) <= 1e-4

    def test_rate_table_shape(self, table1):
        reports = rate_table(table1)
        assert len(reports) == table1.n_users * len(TrustModel)

    def test_bad_user_index(self, table1):
        with pytest.raises(ValidationError):
            key_rate(table1, TrustModel.TRUSTED, 7)

    def test_bad_mode(self, table1):
        with pytest.raises(ValidationError):
            key_rate(table1, TrustModel.TRUSTED, 0, mode="fast")

    @pytest.mark.parametrize("trust", ["trusted", None, 0])
    def test_trust_not_a_trust_model(self, table1, trust):
        # a member's value is not coerced to the member
        message = f"trust must be a TrustModel, got {trust!r}"
        with pytest.raises(ValidationError, match=message):
            key_rate(table1, trust, 0)
        with pytest.raises(ValidationError, match=message):
            rate_table(table1, trusts=[TrustModel.TRUSTED, trust])


BAD_USERS = pytest.mark.parametrize("k", [4, -1], ids=["M", "minus_1"])  # table1 has M = 4


class TestUserIndexGuard:
    """`NetworkParams.check_user` is the one user-index guard, and every
    public entry that takes a user index reaches it."""

    @staticmethod
    def raises(k):
        return pytest.raises(ValidationError, match=f"user index {k} out of range for 4 users")

    @BAD_USERS
    @pytest.mark.parametrize("trust", list(TrustModel), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", ["finite", "asymptotic"])
    def test_key_rate(self, table1, trust, mode, k):
        with self.raises(k):
            key_rate(table1, trust, k, mode=mode)

    @BAD_USERS
    @pytest.mark.parametrize("user,conditioned_on", [("k", ()), ("k", (0, 1)), (0, ("k",)),
                                                     (0, (2, "k"))])
    def test_mutual_information(self, table1, user, conditioned_on, k):
        with self.raises(k):
            mutual_information(table1, k if user == "k" else user,
                               [k if j == "k" else j for j in conditioned_on])

    @BAD_USERS
    @pytest.mark.parametrize("holevo", [holevo_untrusted, holevo_trusted, holevo_collaborative])
    def test_holevo_bounds(self, table1, holevo, k):
        with self.raises(k):
            holevo(table1, k)

    @BAD_USERS
    def test_measured_outcome_model(self, table1, k):
        with self.raises(k):
            measured_outcome_model(table1, k)

    @pytest.mark.parametrize("k", [1.5, 1.0, "1", None])
    @pytest.mark.parametrize("trust", list(TrustModel), ids=lambda t: t.value)
    def test_key_rate_rejects_non_integer_index(self, table1, trust, k):
        with pytest.raises(ValidationError, match="user index must be an integer"):
            key_rate(table1, trust, k)

    @pytest.mark.parametrize("user,conditioned_on", [(0, [1.9]), (0, [np.float64(2.0)]), (1.5, [])])
    def test_mutual_information_rejects_non_integer_index(self, table1, user, conditioned_on):
        # int() would truncate 1.9 to user 1
        with pytest.raises(ValidationError, match="user index must be an integer"):
            mutual_information(table1, user, conditioned_on)

    def test_integer_likes_are_indices(self, table1):
        assert table1.check_user(np.int64(2)) == 2
        assert type(table1.check_user(np.int64(2))) is int
        for trust in TrustModel:
            report = key_rate(table1, trust, np.int64(2))
            assert type(report.user) is int
            assert report == key_rate(table1, trust, 2)
        assert mutual_information(table1, np.int64(0), [np.int64(1)]) == mutual_information(
            table1, 0, [1]
        )
