"""Acceptance criteria, one test per criterion.

Every test prints a PASS/FAIL line with the computed numbers before
asserting, so a full run documents exactly where the pipeline stands.
Criteria 2 and 3 check the four-user tables of the bundled calibration
(`table1.cfg`): criterion 3 asserts all twelve per-user rates, and criterion 2
the (1,2,3,4) chain-rule row, against the independent evaluation in
`oracles.py` to 1e-9. Their lines also print the paper-reported tables and
the relative gap to each value. Those values are reported, not asserted:
the documented model cannot produce them from this calibration (see the
comment on the PAPER_* constants).
"""

import time

import numpy as np
import pytest

from cvqnet import (
    NetworkParams,
    TrustModel,
    UserLink,
    all_orderings,
    build_channel_output_cm,
    condition_on_heterodyne,
    delta_fs,
    g_function,
    key_rate,
    simulate,
    symplectic_eigenvalues,
    von_neumann_entropy,
    worst_case_params,
)
from cvqnet.simulate import estimate_report
import dataclasses

from conftest import random_params
from oracles import (
    brute_force_network_cm,
    lodewyck_untrusted_rate,
    oracle_decomposition,
    oracle_joint_rate,
    oracle_rates,
)

# Values reported by the paper for its four-user evaluation. They are
# printed with their relative gaps but not asserted, because the documented
# model cannot produce them from `table1.cfg`, nor do they agree with each
# other:
# - Ceiling: at user 2's declared T = 0.12, eta_d = 0.68, beta = 0.95 and
#   N = 1.25e9, with xi = 0, nu_el scanned over 0..5 SNU and V_mod over
#   1..40 SNU, the model reaches at most 0.0361 untrusted, 0.0493
#   collaborative and 0.0595 trusted, against 0.0451, 0.0579 and 0.0644
#   below. The lower edge of a 15% band on the untrusted value (0.0383) is
#   already above that ceiling; criterion 3 pins this.
# - Chain rule: PAPER_FIRST_ROW sums to 0.194006, not PAPER_JOINT_RATE =
#   0.197827, while every ordering row sums to the joint rate (criterion 1).
# - Double counting: both numbers exceed the sum of the trusted rates below
#   (0.1934), which criterion 9 forbids.
PAPER_JOINT_RATE = 0.197827
PAPER_FIRST_ROW = (0.05962534, 0.06450573, 0.04096908, 0.02890624)
PAPER_TABLE2 = {
    TrustModel.UNTRUSTED: (0.0396, 0.0451, 0.0225, 0.0120),
    TrustModel.COLLABORATIVE: (0.0529, 0.0579, 0.0348, 0.0232),
    TrustModel.TRUSTED: (0.0596, 0.0644, 0.0408, 0.0286),
}

# V_mod grid (SNU) for the untrusted user-2 ceiling at xi = nu_el = 0.
CEILING_VMOD_GRID = np.linspace(1.0, 40.0, 391)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ordering_table(table1):
    start = time.perf_counter()
    table = all_orderings(table1, mode="finite")
    elapsed = time.perf_counter() - start
    return table, elapsed


@pytest.fixture(scope="module")
def table2_rates(table1):
    """Unclamped rates beta * I - chi - Delta: the zero floor would mask a mismatch."""
    rates = {}
    for trust in TrustModel:
        reports = [key_rate(table1, trust, k, mode="finite") for k in range(4)]
        rates[trust] = [table1.beta * r.mutual_information - r.holevo - r.delta for r in reports]
    return rates


def _gap(value: float, paper: float) -> str:
    return f"{paper} ({(value - paper) / paper:+.1%})"


def test_criterion_1_ordering_invariance(table1, ordering_table):
    table, elapsed = ordering_table
    sums = [row.row_sum for row in table.rows]
    spread = max(sums) - min(sums)
    table_err = max(abs(s - table.joint_rate) for s in sums)
    joint = oracle_joint_rate(table1)
    oracle_err = max(abs(s - joint) for s in sums)
    ok = (
        len(table.rows) == 24
        and spread <= 1e-9
        and table_err <= 1e-9
        and oracle_err <= 1e-9
        and elapsed <= 10.0
    )
    _report(
        1,
        ok,
        f"24 rows in {elapsed:.2f}s, row-sum spread {spread:.3e}, "
        f"spread vs table joint {table_err:.3e}, "
        f"max |row sum - jointly conditioned oracle| {oracle_err:.3e}",
    )
    assert len(table.rows) == 24
    assert spread <= 1e-9
    assert table_err <= 1e-9
    assert oracle_err <= 1e-9
    assert elapsed <= 10.0


def test_criterion_2_reference_decomposition(table1, ordering_table):
    table, _ = ordering_table
    row = next(r for r in table.rows if r.order == (0, 1, 2, 3))
    oracle = oracle_decomposition(table1, row.order)
    contribution_err = max(abs(c - o) for c, o in zip(row.contributions, oracle))
    sum_err = abs(row.row_sum - sum(oracle))
    ok = contribution_err <= 1e-9 and sum_err <= 1e-9
    paper_row = ", ".join(_gap(c, ref) for c, ref in zip(row.contributions, PAPER_FIRST_ROW))
    _report(
        2,
        ok,
        f"(1,2,3,4) row {tuple(round(c, 6) for c in row.contributions)}, max |row - oracle| "
        f"{contribution_err:.1e}; row sum {row.row_sum:.6f}, |sum - oracle| {sum_err:.1e}; "
        f"paper row [{paper_row}]; paper joint {_gap(row.row_sum, PAPER_JOINT_RATE)}",
    )
    assert contribution_err <= 1e-9
    assert sum_err <= 1e-9


def test_criterion_3_reference_rate_table(table1, table2_rates):
    oracle = oracle_rates(table1)
    oracle_err = max(
        abs(table2_rates[trust][k] - oracle[trust.value][k])
        for trust in TrustModel
        for k in range(4)
    )
    closed_form = [
        lodewyck_untrusted_rate(
            table1.modulation_variance,
            user.transmittance,
            user.excess_noise,
            table1.detector_efficiency,
            table1.trusted_noise(k),
            table1.beta,
            table1.block_size,
        )
        for k, user in enumerate(table1.users)
    ]
    closed_err = max(
        abs(r - c) for r, c in zip(table2_rates[TrustModel.UNTRUSTED], closed_form)
    )
    trust_ordering_ok = all(
        table2_rates[TrustModel.UNTRUSTED][k]
        <= table2_rates[TrustModel.COLLABORATIVE][k]
        <= table2_rates[TrustModel.TRUSTED][k]
        for k in range(4)
    )
    user2 = table1.users[1]
    ceiling = max(
        lodewyck_untrusted_rate(
            v_mod,
            user2.transmittance,
            0.0,
            table1.detector_efficiency,
            0.0,
            table1.beta,
            table1.block_size,
        )
        for v_mod in CEILING_VMOD_GRID
    )
    ceiling_bound = 0.85 * PAPER_TABLE2[TrustModel.UNTRUSTED][1]
    ceiling_ok = ceiling < ceiling_bound
    ok = oracle_err <= 1e-9 and closed_err <= 1e-9 and trust_ordering_ok and ceiling_ok
    paper = "; ".join(
        f"{trust.value} ["
        + ", ".join(_gap(r, ref) for r, ref in zip(table2_rates[trust], PAPER_TABLE2[trust]))
        + "]"
        for trust in TrustModel
    )
    computed = {t.value: [round(r, 4) for r in table2_rates[t]] for t in TrustModel}
    _report(
        3,
        ok,
        f"computed {computed}; max |rate - oracle| {oracle_err:.1e}; "
        f"untrusted max |rate - closed form| {closed_err:.1e}; trust ordering "
        f"{'ok' if trust_ordering_ok else 'violated'}; user-2 untrusted ceiling "
        f"{ceiling:.4f} < {ceiling_bound:.4f}: {ceiling_ok}; paper {paper}",
    )
    assert oracle_err <= 1e-9
    assert closed_err <= 1e-9
    assert trust_ordering_ok
    # If the model or calibration ever lifts this ceiling to within 15% of the
    # paper's value, the paper comparison above needs to be looked at again.
    assert ceiling < ceiling_bound


def test_criterion_4_first_position_rule(table1, ordering_table):
    table, _ = ordering_table
    trusted = {}
    for k in range(4):
        r = key_rate(table1, TrustModel.TRUSTED, k, mode="finite")
        trusted[k] = table1.beta * r.mutual_information - r.holevo - r.delta
    worst = max(
        abs(row.contributions[0] - trusted[row.order[0]]) for row in table.rows
    )
    ok = worst <= 1e-9
    _report(4, ok, f"max |first contribution - trusted rate| = {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_5_finite_size_behavior(table1):
    delta_check = abs(delta_fs(1.25e9) - 1.158e-3)
    grid = [10**6, 10**7, 10**8, 10**9, 10**10]
    monotone = True
    gap_worst = 0.0
    for trust in TrustModel:
        for k in range(4):
            rates = []
            for n in grid:
                p = dataclasses.replace(table1, block_size=n)
                r = key_rate(p, trust, k, mode="finite")
                # unclamped rate: the zero floor would mask the monotone shape
                rates.append(table1.beta * r.mutual_information - r.holevo - r.delta)
            monotone &= all(a < b for a, b in zip(rates, rates[1:]))
            asym = key_rate(table1, trust, k, mode="asymptotic").rate
            gap_worst = max(gap_worst, abs(rates[-1] - asym))
    ok = monotone and gap_worst <= 1e-3 and delta_check <= 1e-6
    _report(
        5,
        ok,
        f"monotone={monotone}, max |K(1e10) - asymptotic| = {gap_worst:.2e}, "
        f"|Delta(1.25e9) - 1.158e-3| = {delta_check:.2e}",
    )
    assert monotone
    assert gap_worst <= 1e-3
    assert delta_check <= 1e-6


def test_criterion_6_gaussian_core_properties():
    rng = np.random.default_rng(60)
    min_nu = np.inf
    for _ in range(1000):
        gamma = build_channel_output_cm(random_params(rng))
        min_nu = min(min_nu, symplectic_eigenvalues(gamma).min())
    eigen_ok = min_nu >= 1.0 - 1e-9

    pure_worst = max(
        abs(
            von_neumann_entropy(
                build_channel_output_cm(
                    NetworkParams(
                        modulation_variance=v,
                        users=(UserLink(transmittance=1.0, excess_noise=0.0),),
                        detector_efficiency=1.0,
                    )
                )
            )
        )
        for v in (0.5, 2.0, 5.0, 20.0)
    )
    pure_ok = pure_worst <= 1e-9

    cond_worst = 0.0
    for _ in range(100):
        params = random_params(rng, max_users=5)
        gamma = build_channel_output_cm(params)
        others = [l for l in gamma.mode_labels if l != "A"]
        count = int(rng.integers(1, len(others) + 1)) if len(others) > 1 else 1
        chosen = list(rng.choice(others, size=min(count, len(others) - 1) or 1, replace=False))
        if len(chosen) >= len(gamma.mode_labels) - 1:
            chosen = chosen[:1]
        joint = condition_on_heterodyne(gamma, chosen)
        seq = gamma
        for lab in chosen:
            seq = condition_on_heterodyne(seq, [lab])
        cond_worst = max(cond_worst, float(np.max(np.abs(seq.matrix - joint.matrix))))
    cond_ok = cond_worst <= 1e-10

    g_ok = g_function(0.0) == 0.0 and g_function(1.0) == 2.0

    ok = eigen_ok and pure_ok and cond_ok and g_ok
    _report(
        6,
        ok,
        f"min nu over 1000 networks = {min_nu - 1.0:+.2e} vs 1; pure-state S <= {pure_worst:.1e}; "
        f"sequential-vs-joint <= {cond_worst:.1e}; g(0)={g_function(0.0)}, g(1)={g_function(1.0)}",
    )
    assert eigen_ok
    assert pure_ok
    assert cond_ok
    assert g_ok


def test_criterion_7_brute_force_equivalence():
    rng = np.random.default_rng(70)
    worst = 0.0
    points = 0
    for m in (1, 2, 3):
        for _ in range(34 if m == 1 else 33):
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
            worst = max(worst, float(np.max(np.abs(closed - brute))))
            points += 1
    ok = worst <= 1e-10 and points == 100
    _report(7, ok, f"{points} grid points, max |closed form - composition| = {worst:.2e}")
    assert points == 100
    assert worst <= 1e-10


def test_criterion_8_simulator_estimator_roundtrip(table1):
    start = time.perf_counter()
    n = 10**6
    seeds = range(100)
    z5_hits = 0
    corner_ok = True
    truth_rates = [
        key_rate(table1, TrustModel.UNTRUSTED, k, mode="finite").rate for k in range(4)
    ]
    for seed in seeds:
        block = simulate(table1, n, seed=seed)
        report = estimate_report(block, table1)
        inside = True
        for k, est in enumerate(report.users):
            sigma_t = est.delta_t / 6.46695108724051617
            sigma_s2 = est.delta_sigma2 / 6.46695108724051617
            from cvqnet import measured_outcome_model

            model = measured_outcome_model(table1, k)
            inside &= abs(est.t_hat - model.gain) <= 5 * sigma_t
            inside &= abs(est.sigma2_hat - model.noise_variance) <= 5 * sigma_s2
        z5_hits += inside
        corner = worst_case_params(table1, report)
        for k in range(4):
            wc_rate = key_rate(
                table1, TrustModel.UNTRUSTED, k, mode="finite", worst_case=corner
            ).rate
            corner_ok &= wc_rate <= truth_rates[k] + 1e-12
    elapsed = time.perf_counter() - start
    ok = z5_hits >= 99 and corner_ok and elapsed <= 120.0
    _report(
        8,
        ok,
        f"{z5_hits}/100 runs inside 5-sigma intervals; corner rate never above truth: "
        f"{corner_ok}; runtime {elapsed:.0f}s",
    )
    assert z5_hits >= 99
    assert corner_ok
    assert elapsed <= 120.0


def test_criterion_9_double_counting_guard(table1, ordering_table):
    table, _ = ordering_table
    decomposed_sum = table.rows[0].row_sum
    trusted_sum = sum(
        key_rate(table1, TrustModel.TRUSTED, k, mode="finite").rate for k in range(4)
    )
    ok = decomposed_sum < trusted_sum
    _report(
        9,
        ok,
        f"sum of decomposed contributions {decomposed_sum:.6f} < "
        f"sum of trusted per-user rates {trusted_sum:.6f}: {ok}",
    )
    assert decomposed_sum < trusted_sum
