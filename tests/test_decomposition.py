import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import cvqnet.keyrates
from cvqnet import (
    NetworkParams,
    TrustModel,
    UserLink,
    all_orderings,
    attach_trusted_detector,
    build_channel_output_cm,
    condition_on_heterodyne,
    decompose,
    decomposition_table,
    delta_fs,
    holevo_untrusted,
    joint_key_rate,
    key_rate,
    mutual_information,
    sample_orderings,
    user_label,
    von_neumann_entropy,
)
from cvqnet.keyrates import CoalitionValues
from cvqnet.errors import GuardRefusalError, ValidationError

from conftest import random_params, receiver_cases
from oracles import (
    _joint_information,
    _outcome_information,
    oracle_decomposition,
    oracle_joint_rate,
    precise_coalition_terms,
)


def coalition_values(params, orders):
    """A fresh `CoalitionValues`, measured on the network's channel output
    from `orders`, each entry checked as a user index."""
    checked = [tuple(map(params.check_user, order)) for order in orders]
    return CoalitionValues(params, build_channel_output_cm(params), checked)


def mask(users):
    """The coalition bitmask of a collection of users."""
    return sum(1 << k for k in users)


def chain_steps(params, order):
    """(information step, entropy drop) of each user joining along `order`,
    measured on a fresh `CoalitionValues` of that order alone."""
    coalitions = coalition_values(params, [order])
    terms = [coalitions.terms[c] for c in coalitions.chains[0]]
    return [(ia - ib, sb - sa) for (ib, sb), (ia, sa) in zip(terms, terms[1:])]


class TestChainRule:
    def test_first_position_is_plain_mi(self, table1):
        rng = np.random.default_rng(0)
        cases = [table1] + [random_params(rng) for _ in range(300)]
        for params in cases:
            for k in range(params.n_users):
                (first, _), = chain_steps(params, (k,))
                assert first == pytest.approx(_outcome_information(params, k, []), abs=1e-12)

    def test_chain_sums_to_joint_mi(self, table1):
        rng = np.random.default_rng(41)
        cases = [table1] + [random_params(rng) for _ in range(10)]
        for params in cases:
            m = params.n_users
            for order in itertools.islice(itertools.permutations(range(m)), 3):
                total = sum(info for info, _ in chain_steps(params, order))
                assert total == pytest.approx(_joint_information(params), abs=1e-10)

    def test_decoupled_user_contributes_nothing(self, table1):
        extended = NetworkParams(
            modulation_variance=table1.modulation_variance,
            users=table1.users + (UserLink(transmittance=1e-15, excess_noise=0.0),),
            detector_efficiency=table1.detector_efficiency,
            beta=table1.beta,
            block_size=table1.block_size,
        )
        with_dec = chain_steps(extended, (4, 0, 1, 2, 3))
        plain = chain_steps(table1, (0, 1, 2, 3))
        for pos in range(1, 5):
            assert with_dec[pos][0] == pytest.approx(plain[pos - 1][0], abs=1e-10)


class TestTelescope:
    def test_single_user_term_is_holevo_numerator(self):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.4, excess_noise=0.01, trusted_noise=0.05),),
            detector_efficiency=0.7,
        )
        (_, term), = chain_steps(params, (0,))
        assert term == pytest.approx(holevo_untrusted(params, 0), abs=1e-12)

    def test_terms_sum_to_endpoints(self, table1):
        # the entropy drops along one order telescope to S(sigma_0) - S(sigma_M),
        # which joint_key_rate reaches along the identity order
        order = (1, 3, 0, 2)
        total = sum(drop for _, drop in chain_steps(table1, order))
        jr = joint_key_rate(table1)
        assert total == pytest.approx(jr.holevo, abs=1e-10)

    def test_terms_non_negative(self, table1):
        rng = np.random.default_rng(42)
        cases = [table1] + [random_params(rng) for _ in range(8)]
        for params in cases:
            order = tuple(rng.permutation(params.n_users))
            for _, drop in chain_steps(params, order):
                assert drop >= -1e-9


class TestDecompose:
    def test_row_sums_match_joint(self, table1):
        jr = joint_key_rate(table1)
        for order in itertools.permutations(range(4)):
            row = decompose(table1, order)
            assert row.row_sum == pytest.approx(jr.rate, abs=1e-9)

    def test_first_position_rule(self, table1):
        for order in itertools.permutations(range(4)):
            row = decompose(table1, order)
            trusted = key_rate(table1, TrustModel.TRUSTED, order[0], mode="finite")
            raw = trusted.rate if not trusted.non_positive else (
                table1.beta * trusted.mutual_information - trusted.holevo - trusted.delta
            )
            assert row.contributions[0] == pytest.approx(raw, abs=1e-9)

    def test_first_position_is_the_trusted_rate_exactly(self, table1):
        # criterion 4 as an identity: the trusted bound and the table read
        # chi({k}) from a singleton layer of the same kernel, whatever else
        # the layer stacks (one member for `decompose`, all M for the bound)
        rng = np.random.default_rng(48)
        cases = [table1] + [random_params(rng, max_users=6) for _ in range(60)]
        unclamped = 0
        for params in cases:
            sampled = sample_orderings(params, 2, seed=1).rows
            users = range(params.n_users)
            alone = [decompose(params, [k, *(j for j in users if j != k)]) for k in users]
            for row in all_orderings(params).rows + sampled + tuple(alone):
                trusted = key_rate(params, TrustModel.TRUSTED, row.order[0])
                raw = params.beta * trusted.mutual_information - trusted.holevo - trusted.delta
                assert row.contributions[0] == raw
                if not trusted.non_positive:
                    assert row.contributions[0] == trusted.rate
                    unclamped += 1
        assert unclamped > 100

    def test_asymptotic_mode_drops_delta(self, table1):
        fin = decompose(table1, (0, 1, 2, 3), mode="finite")
        asym = decompose(table1, (0, 1, 2, 3), mode="asymptotic")
        from cvqnet import delta_fs

        per_user = delta_fs(table1.block_size)
        for a, b in zip(fin.contributions, asym.contributions):
            assert a == pytest.approx(b - per_user, abs=1e-12)

    def test_unit_efficiency_rows_match_oracle(self, table1):
        # eta_d = 1 exactly, on both sides: the oracle's receiver dilation is
        # bounded there
        rng = np.random.default_rng(46)
        cases = [table1] + [random_params(rng, max_users=5) for _ in range(5)]
        for params in (dataclasses.replace(p, detector_efficiency=1.0) for p in cases):
            for order in itertools.islice(itertools.permutations(range(params.n_users)), 4):
                row = decompose(params, order)
                assert row.contributions == pytest.approx(
                    oracle_decomposition(params, order), abs=1e-9)

    def test_invalid_order_rejected(self, table1):
        with pytest.raises(ValidationError):
            decompose(table1, (0, 1, 2))
        with pytest.raises(ValidationError):
            decompose(table1, (0, 1, 2, 2))

    @pytest.mark.parametrize("order", [[0, 1.7, 2, 3], [0, 1.0, 2, 3], [3.0, 2, 1, 0]])
    def test_non_integer_user_rejected(self, table1, order):
        # int() would truncate 1.7 to user 1 and return the row of (0, 1, 2, 3)
        with pytest.raises(ValidationError, match="user index must be an integer"):
            decompose(table1, order)
        with pytest.raises(ValidationError, match="user index must be an integer"):
            decomposition_table(table1, [(0, 1, 2, 3), order])


class TestOneRowPath:
    """`decompose` reads its row through the same array step as the tables."""

    @staticmethod
    def assert_rows_are_decompose_rows(params, table, mode="finite"):
        # a coalition's value depends, in its last digits, on the prefix it
        # is first measured from: alone, the first row is measured the same
        # way as in the table, bit for bit, and every row to rounding
        assert decompose(params, table.rows[0].order, mode) == table.rows[0]
        for row in table.rows:
            alone = decompose(params, row.order, mode)
            assert alone.order == row.order
            assert alone.contributions == pytest.approx(row.contributions, abs=1e-12)
            assert alone.row_sum == pytest.approx(row.row_sum, abs=1e-12)
            assert all(type(k) is int for k in row.order)

    def test_all_orderings_rows(self, table1):
        rng = np.random.default_rng(2201)
        for params in [table1] + [random_params(rng) for _ in range(10)]:
            for mode in ("finite", "asymptotic"):
                self.assert_rows_are_decompose_rows(params, all_orderings(params, mode), mode)

    def test_sampled_rows_at_nine_users(self):
        params = random_params(np.random.default_rng(2202), n_users=9)
        table = sample_orderings(params, 12, seed=4)
        assert len({row.order for row in table.rows}) > 1
        self.assert_rows_are_decompose_rows(params, table)

    @pytest.mark.parametrize("order,message", [
        ((0, 1, 1, 2), "user 1 cannot join the coalition {0, 1}"),
        ((3, 2, 1, 0, 3), "user 3 cannot join the coalition {0, 1, 2, 3}"),
        ((0, 1, 2, 4), "user index 4 out of range for 4 users"),
        ((-1, 0, 1, 2), "user index -1 out of range for 4 users"),
        ((0, 1, 2), "ordering must be a permutation of 0..3, got (0, 1, 2)"),
        ((0, 1.5, 2, 3), "user index must be an integer, got 1.5"),
    ], ids=["repeated", "repeated-too-long", "out-of-range", "negative", "too-short",
            "non-integer"])
    def test_bad_order_text(self, table1, order, message):
        with pytest.raises(ValidationError) as alone:
            decompose(table1, order)
        with pytest.raises(ValidationError) as in_table:
            decomposition_table(table1, [(0, 1, 2, 3), order])
        assert str(alone.value) == str(in_table.value) == message


class TestAllOrderings:
    def test_four_users_gives_24_rows(self, table1):
        table = all_orderings(table1)
        assert len(table.rows) == 24
        assert max(abs(r.row_sum - table.joint_rate) for r in table.rows) <= 1e-9

    def test_single_user_table(self):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.3, excess_noise=0.005, trusted_noise=0.06),),
            detector_efficiency=0.68,
        )
        table = all_orderings(params)
        assert len(table.rows) == 1
        trusted = key_rate(params, TrustModel.TRUSTED, 0)
        assert table.rows[0].contributions[0] == pytest.approx(trusted.rate, abs=1e-12)

    def test_guard_above_cap(self):
        users = tuple(
            UserLink(transmittance=0.1, excess_noise=0.001, trusted_noise=0.05)
            for _ in range(9)
        )
        params = NetworkParams(modulation_variance=5.0, users=users)
        with pytest.raises(GuardRefusalError):
            all_orderings(params)

    def test_sampled_orderings_row_cap(self, table1):
        assert len(sample_orderings(table1, 40_320).rows) == 40_320
        with pytest.raises(GuardRefusalError, match="sample at most 40,320 orderings"):
            sample_orderings(table1, 40_321)

    def test_table_draws_at_most_one_order_over_cap(self, table1):
        drawn = 0

        def orders():
            nonlocal drawn
            for _ in range(80_640):
                drawn += 1
                yield (0, 1, 2, 3)

        with pytest.raises(GuardRefusalError, match="at most 40,320 rows"):
            decomposition_table(table1, orders())
        assert drawn <= 40_321

    @pytest.mark.parametrize("count", [2.5, 2.0, "2", None], ids=["float", "integral-float",
                                                                 "string", "none"])
    def test_sampled_orderings_non_integer_count(self, table1, count):
        with pytest.raises(ValidationError, match=f"^count must be an integer, got {count!r}$"):
            sample_orderings(table1, count)

    @pytest.mark.parametrize("count", [0, -1])
    def test_sampled_orderings_need_one(self, table1, count):
        with pytest.raises(ValidationError, match="need at least one ordering"):
            sample_orderings(table1, count)

    def test_sampled_orderings_deterministic(self, table1):
        a = sample_orderings(table1, 5, seed=7)
        b = sample_orderings(table1, 5, seed=7)
        assert [r.order for r in a.rows] == [r.order for r in b.rows]
        assert a.rows[0].contributions == b.rows[0].contributions

    def test_permutation_symmetry_identical_users(self):
        users = tuple(
            UserLink(transmittance=0.2, excess_noise=0.004, trusted_noise=0.05)
            for _ in range(3)
        )
        params = NetworkParams(modulation_variance=5.0, users=users)
        table = all_orderings(params)
        by_position = list(zip(*(row.contributions for row in table.rows)))
        for position_values in by_position:
            assert max(position_values) - min(position_values) <= 1e-9


class TestJointRate:
    def test_direct_equals_decomposition_sum(self, table1):
        jr = joint_key_rate(table1)
        assert jr.rate == pytest.approx(decompose(table1, (0, 1, 2, 3)).row_sum, abs=1e-9)

    def test_single_user_equals_trusted(self):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.3, excess_noise=0.005, trusted_noise=0.06),),
            detector_efficiency=0.68,
        )
        jr = joint_key_rate(params)
        trusted = key_rate(params, TrustModel.TRUSTED, 0)
        assert jr.rate == pytest.approx(trusted.rate, abs=1e-12)

    def test_joint_at_least_best_trusted_user_on_grid(self, table1):
        # Holds when every user's decomposed contribution is non-negative, as
        # on the bundled config and its neighbourhood.  A network containing a
        # sufficiently noisy user can push the joint rate below the best
        # single-user trusted rate, so this is a regime property, not a theorem.
        cases = [table1]
        for eta_scale in (0.8, 1.0, 1.2):
            for eps_scale in (0.0, 1.0, 2.0):
                cases.append(
                    table1.with_links(
                        [
                            (u.transmittance * eta_scale, u.excess_noise * eps_scale)
                            for u in table1.users
                        ]
                    )
                )
        for params in cases:
            jr = joint_key_rate(params, mode="asymptotic")
            best = max(
                key_rate(params, TrustModel.TRUSTED, k, mode="asymptotic").rate
                for k in range(params.n_users)
            )
            assert jr.rate >= best - 1e-9

    def test_double_counting_guard(self, table1):
        # summing per-user trusted rates overcounts shared correlations
        jr = joint_key_rate(table1)
        trusted_sum = sum(
            key_rate(table1, TrustModel.TRUSTED, k).rate for k in range(table1.n_users)
        )
        assert jr.rate < trusted_sum

    def test_joint_and_row_sums_match_one_shot_oracle(self, table1):
        # the oracle purifies every receiver and conditions on all users at
        # once; the package reads v(all) from sequential conditioning
        rng = np.random.default_rng(45)
        for params in [table1] + [random_params(rng) for _ in range(50)]:
            for mode in ("finite", "asymptotic"):
                expected = oracle_joint_rate(params, mode)
                assert joint_key_rate(params, mode).rate == pytest.approx(expected, abs=1e-9)
                for row in all_orderings(params, mode).rows:
                    assert row.row_sum == pytest.approx(expected, abs=1e-9)

    def test_delta_accounting(self, table1):
        from cvqnet import delta_fs

        fin = joint_key_rate(table1, mode="finite")
        asym = joint_key_rate(table1, mode="asymptotic")
        assert fin.delta_total == pytest.approx(4 * delta_fs(table1.block_size), rel=1e-12)
        assert asym.rate - fin.rate == pytest.approx(fin.delta_total, abs=1e-12)


def rebuilt_row(params, order):
    """Finite-mode contributions from a per-order rebuild: condition the
    channel output along `order` from scratch, each user's trusted receiver
    attached and then heterodyned, and take each mutual information term as
    a Schur complement."""
    cm = build_channel_output_cm(params)
    entropies = [von_neumann_entropy(cm)]
    for k in order:
        label = user_label(k)
        cm = attach_trusted_detector(cm, label, params.detector_efficiency, params.trusted_noise(k))
        cm = condition_on_heterodyne(cm, [label])
        entropies.append(von_neumann_entropy(cm))
    delta = delta_fs(params.block_size)
    return [
        params.beta * mutual_information(params, k, order[:pos])
        - (entropies[pos] - entropies[pos + 1])
        - delta
        for pos, k in enumerate(order)
    ]


class TestCoalitionValues:
    def test_information_step_is_conditional_mi(self, table1):
        rng = np.random.default_rng(43)
        cases = [table1] + [random_params(rng, max_users=6) for _ in range(6)]
        for params in cases:
            m = params.n_users
            steps = [(earlier, k) for size in range(m)
                     for earlier in itertools.combinations(range(m), size)
                     for k in set(range(m)) - set(earlier)]
            coalitions = coalition_values(params, [earlier + (k,) for earlier, k in steps])
            for (earlier, k), (*_, before, after) in zip(steps, coalitions.chains):
                step = coalitions.terms[after][0] - coalitions.terms[before][0]
                assert step == pytest.approx(
                    _outcome_information(params, k, list(earlier)), abs=1e-12
                )

    def test_rows_match_per_order_rebuild(self, table1):
        rng = np.random.default_rng(44)
        for params in [table1] + [random_params(rng) for _ in range(4)]:
            for row in all_orderings(params).rows:
                expected = rebuilt_row(params, row.order)
                assert row.contributions == pytest.approx(expected, abs=1e-12)
        for params in [random_params(rng, max_users=7) for _ in range(3)]:
            for row in sample_orderings(params, 10, seed=3).rows:
                expected = rebuilt_row(params, row.order)
                assert row.contributions == pytest.approx(expected, abs=1e-12)

    def test_values_within_1e12_of_high_precision_reference(self, table1):
        # every v(S) of the full lattice, near and at unit detector efficiency
        pytest.importorskip("mpmath")
        worst = 0.0
        for params in receiver_cases(table1, np.random.default_rng(92)):
            m = params.n_users
            coalitions = coalition_values(params, itertools.permutations(range(m)))
            lattice = [c for size in range(m + 1) for c in itertools.combinations(range(m), size)]
            assert set(coalitions.terms) == set(map(mask, lattice)) == set(range(2**m))
            reference = precise_coalition_terms(params, lattice)
            before = reference[frozenset()][1]
            values, = coalitions.values([[mask(c) for c in reference]])
            for value, (info, entropy) in zip(values, reference.values()):
                expected = float(params.beta * info - (before - entropy))
                worst = max(worst, abs(value - expected))
        assert worst <= 1e-12

    @pytest.fixture
    def layer_sizes(self, monkeypatch):
        """Member count of every stacked measurement step a decomposition runs."""
        sizes = []
        real = cvqnet.keyrates.measure_reference_user_blocks

        def counting(x, index, eta_d, receiver):
            sizes.append(len(index))
            return real(x, index, eta_d, receiver)

        monkeypatch.setattr(cvqnet.keyrates, "measure_reference_user_blocks", counting)
        return sizes

    @staticmethod
    def distinct_prefixes(table):
        return {frozenset(r.order[:i]) for r in table.rows for i in range(1, len(r.order) + 1)}

    def test_each_coalition_conditioned_once(self, layer_sizes):
        users = tuple(
            UserLink(transmittance=0.05 + 0.03 * k, excess_noise=0.004, trusted_noise=0.05)
            for k in range(5)
        )
        params = NetworkParams(modulation_variance=5.0, users=users)
        table = all_orderings(params)
        assert len(table.rows) == 120
        # one stacked step per layer, one member per non-empty coalition;
        # the joint rate is v(all) of the same object
        assert layer_sizes == [math.comb(5, size) for size in range(1, 6)]
        assert sum(layer_sizes) == 2**5 - 1

        layer_sizes.clear()
        table = sample_orderings(params, 6, seed=5)
        prefixes = self.distinct_prefixes(table)
        assert sum(layer_sizes) == len(prefixes)
        assert layer_sizes == [sum(len(c) == size for c in prefixes) for size in range(1, 6)]

    def test_single_user_network_is_one_layer(self, layer_sizes):
        params = NetworkParams(
            modulation_variance=5.0,
            users=(UserLink(transmittance=0.3, excess_noise=0.005, trusted_noise=0.06),),
        )
        table = all_orderings(params)
        assert layer_sizes == [1]
        assert table.rows[0].row_sum == pytest.approx(table.joint_rate, abs=1e-15)
        assert table.rows[0].contributions[0] == pytest.approx(
            key_rate(params, TrustModel.TRUSTED, 0).rate, abs=1e-12
        )

    def test_repeated_sampled_orders(self, layer_sizes):
        # 30 draws from the 6 orderings of 3 users must repeat; each distinct
        # prefix is still measured once and equal orders give equal rows
        users = tuple(
            UserLink(transmittance=0.1 + 0.05 * k, excess_noise=0.003, trusted_noise=0.04 + 0.01 * k)
            for k in range(3)
        )
        params = NetworkParams(modulation_variance=4.0, users=users)
        table = sample_orderings(params, 30, seed=2)
        orders = [r.order for r in table.rows]
        assert len(set(orders)) < len(orders)
        assert sum(layer_sizes) == len(self.distinct_prefixes(table))
        by_order = {}
        for row in table.rows:
            assert by_order.setdefault(row.order, row.contributions) == row.contributions

    def test_one_order_is_one_member_per_layer(self, table1, layer_sizes):
        # decompose and joint_key_rate measure their one order: M layers of
        # one member each; the trusted bound is one M-member singleton step
        rng = np.random.default_rng(2301)
        for params in [table1] + [random_params(rng, max_users=7) for _ in range(5)]:
            m = params.n_users
            layer_sizes.clear()
            decompose(params, tuple(reversed(range(m))))
            assert layer_sizes == [1] * m
            layer_sizes.clear()
            joint_key_rate(params, mode="asymptotic")
            assert layer_sizes == [1] * m
            layer_sizes.clear()
            cvqnet.keyrates._singletons.cache_clear()
            key_rate(params, TrustModel.TRUSTED, 0)
            assert layer_sizes == [m]

    def test_short_order_rejected_before_measuring(self, table1, layer_sizes):
        message = "ordering must be a permutation of 0..3, got (0, 1, 2)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            decompose(table1, (0, 1, 2))
        with pytest.raises(ValidationError, match=re.escape(message)):
            decomposition_table(table1, [(0, 1, 2, 3), (0, 1, 2)])
        assert layer_sizes == []
