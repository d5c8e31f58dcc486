"""Output checks for the benchmark workloads.

Every check compares program output with a computation made apart from the
program: the independent oracles in `tests/oracles.py` (explicit network
composition and receiver purification), the textbook single-link closed
form, the outcome model written out below, or a property the method must
have.  Each function returns a list of failure messages; empty means pass.
Nothing here is timed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import struct
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

import oracles
from cvqnet import NetworkParams, UserLink

TOL = 1e-9  # identities and oracle agreement, absolute, in bits per use
ORDER_TOL = 1e-12  # slack on inequalities between rates
PRINTED_RTOL = 1e-9  # the CLI prints 10 significant digits
COV_SIGMAS = 6.0  # sample-covariance tolerance in standard errors
TRUSTS = ("untrusted", "collaborative", "trusted")
HEADER = struct.Struct("<4sHQHQ")  # CVNB: magic, version, n, M, seed


def unclamped(report, beta: float) -> float:
    """beta * I - chi - Delta of one KeyRateReport, before the max(0, .)."""
    return beta * report.mutual_information - report.holevo - report.delta


def closed_form_untrusted(params: NetworkParams, k: int, beta: float, block_size: float) -> float:
    user = params.users[k]
    return oracles.lodewyck_untrusted_rate(
        params.modulation_variance, user.transmittance, user.excess_noise,
        params.detector_efficiency, params.trusted_noise(k), beta, block_size,
    )


def model_corner(params: NetworkParams, n: float) -> list[tuple[float, float]]:
    """(eta_min, eps_max) per user: the documented confidence-region corner for
    maximum-likelihood estimates equal to `params` from n symbols."""
    z = -NormalDist().inv_cdf(params.eps_pe / 2.0)
    eta_d = params.detector_efficiency
    corner = []
    for k, user in enumerate(params.users):
        nu = params.trusted_noise(k)
        t = math.sqrt(user.transmittance * eta_d / 2.0)
        sigma2 = (eta_d * (1.0 + user.excess_noise) + (1.0 - eta_d) + nu + 1.0) / 2.0
        t_low = max(t - z * math.sqrt(sigma2 / (n * params.modulation_variance)), 0.0)
        sigma2_high = sigma2 * (1.0 + z * math.sqrt(2.0 / n))
        corner.append((2.0 * t_low**2 / eta_d,
                       (2.0 * sigma2_high - (1.0 - eta_d) - nu - 1.0) / eta_d - 1.0))
    return corner


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-15


# ------------------------------------------------------------------ rate_grid


def check_rate_grid(params, given, corner, at_corner) -> list[str]:
    """One rate_grid operation: rate tables as given and at the model corner."""
    errors = []
    m, beta = params.n_users, params.beta
    for k, (eta_min, eps_max) in enumerate(model_corner(params, params.block_size)):
        user = corner.users[k]
        if not (_close(user.transmittance, eta_min, 1e-9) and _close(user.excess_noise, eps_max, 1e-9)):
            errors.append(f"corner of user {k + 1}: {user} != ({eta_min}, {eps_max})")
    rates = {}
    for label, point, reports in (("as-given", params, given), ("corner", corner, at_corner)):
        got = {(r.user, r.trust.value): r for r in reports}
        if len(reports) != 3 * m or set(got) != {(k, t) for k in range(m) for t in TRUSTS}:
            errors.append(f"{label}: expected the {3 * m}-entry user x trust grid")
            continue
        expected = oracles.oracle_rates(point)
        for k in range(m):
            raw = {t: unclamped(got[k, t], beta) for t in TRUSTS}
            for t in TRUSTS:
                if abs(raw[t] - expected[t][k]) > TOL:
                    errors.append(f"{label} user {k + 1} {t}: {raw[t]!r} vs oracle {expected[t][k]!r}")
                if got[k, t].rate != max(0.0, raw[t]):
                    errors.append(f"{label} user {k + 1} {t}: rate is not max(0, beta I - chi - Delta)")
            closed = closed_form_untrusted(point, k, beta, params.block_size)
            if abs(raw["untrusted"] - closed) > TOL:
                errors.append(f"{label} user {k + 1}: untrusted {raw['untrusted']!r} vs closed form {closed!r}")
            for t in ("collaborative", "trusted"):
                if raw["untrusted"] > raw[t] + ORDER_TOL:
                    errors.append(f"{label} user {k + 1}: untrusted > {t}")
        rates[label] = {k: got[k, "untrusted"].rate for k in range(m)}
    if len(rates) == 2:
        for k in range(m):
            if rates["corner"][k] > rates["as-given"][k] + ORDER_TOL:
                errors.append(f"user {k + 1}: untrusted rate at the corner exceeds the as-given rate")
    return errors


# ------------------------------------------------------------------ orderings


def check_orderings(params, table, count: int | None = None) -> list[str]:
    """All orderings (count None) or `count` sampled orderings of one network."""
    errors = []
    m = params.n_users
    orders = [row.order for row in table.rows]
    if count is None:
        if sorted(orders) != list(itertools.permutations(range(m))):
            errors.append(f"expected each of the {math.factorial(m)} orderings once")
    else:
        if len(orders) != count or any(sorted(o) != list(range(m)) for o in orders):
            errors.append(f"expected {count} permutations of {m} users")
    trusted = oracles.oracle_rates(params)["trusted"]
    for row in table.rows:
        total = math.fsum(row.contributions)
        if abs(total - table.joint_rate) > TOL or abs(row.row_sum - total) > TOL:
            errors.append(f"order {row.order}: contributions sum to {total!r}, joint {table.joint_rate!r}")
        if abs(row.contributions[0] - trusted[row.order[0]]) > TOL:
            errors.append(f"order {row.order}: first contribution is not the trusted rate")
    for i in sorted({0, len(table.rows) // 2, len(table.rows) - 1}):
        row = table.rows[i]
        expected = oracles.oracle_decomposition(params, row.order)
        if any(abs(a - b) > TOL for a, b in zip(row.contributions, expected)):
            errors.append(f"order {row.order}: contributions differ from the oracle")
    return errors


# ------------------------------------------------------------------- pe_block


def outcome_model_cov(params: NetworkParams) -> np.ndarray:
    """Covariance of (s, y_1..y_M) per quadrature: y_k = g_k s + n_k with
    g_k = sqrt(T_k eta_d / 2), independent noises of variance
    (eta_d (1 + eps_k) + 1 - eta_d + nu_k + 1) / 2, and Var(s) = V_mod."""
    eta_d = params.detector_efficiency
    gains = [1.0] + [math.sqrt(u.transmittance * eta_d / 2.0) for u in params.users]
    cov = params.modulation_variance * np.outer(gains, gains)
    for k, user in enumerate(params.users):
        cov[k + 1, k + 1] += (eta_d * (1.0 + user.excess_noise) + 2.0 - eta_d
                              + params.trusted_noise(k)) / 2.0
    return cov


def check_block_roundtrip(block, back) -> list[str]:
    """read_block(write_block(b)) must give b back bit for bit."""
    errors = []
    if (back.n, back.n_users, back.seed) != (block.n, block.n_users, block.seed):
        errors.append(f"header (n, M, seed) {(back.n, back.n_users, back.seed)} "
                      f"!= {(block.n, block.n_users, block.seed)}")
        return errors
    for name in ("alice_x", "alice_p", "y_x", "y_p"):
        a, b = getattr(block, name), getattr(back, name)
        if a.shape != b.shape or not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
            errors.append(f"{name} differs after the block file round trip")
    return errors


def check_outcome_statistics(params, block) -> list[str]:
    """Sample second moments of (s, y) within COV_SIGMAS standard errors of the model."""
    expected = outcome_model_cov(params)
    moments = np.zeros_like(expected)
    for alice, outcomes in ((block.alice_x, block.y_x), (block.alice_p, block.y_p)):
        data = np.column_stack((alice, outcomes))
        moments += data.T @ data
    samples = 2 * block.n
    sample = moments / samples
    diag = np.diag(expected)
    stderr = np.sqrt((np.outer(diag, diag) + expected**2) / samples)
    worst = float(np.max(np.abs(sample - expected) / stderr))
    if worst > COV_SIGMAS:
        return [f"sample covariance is {worst:.1f} standard errors from the outcome model"]
    return []


def check_estimates(params, report, at_corner) -> list[str]:
    """Corners bound the truth; untrusted rates at the corner match the closed
    form there and do not exceed the rate at the truth."""
    errors = []
    beta = params.beta
    corner = [(u.eta_min, max(u.eps_max, 0.0)) for u in report.users]
    point = params.with_links(corner)
    untrusted = {r.user: r for r in at_corner if r.trust.value == "untrusted"}
    if len(report.users) != params.n_users or len(untrusted) != params.n_users:
        return ["estimate report or corner rates do not cover every user"]
    for k, (est, user) in enumerate(zip(report.users, params.users)):
        if not est.eta_min <= user.transmittance:
            errors.append(f"user {k + 1}: eta_min {est.eta_min!r} above the true T {user.transmittance!r}")
        if not est.eps_max >= user.excess_noise:
            errors.append(f"user {k + 1}: eps_max {est.eps_max!r} below the true eps {user.excess_noise!r}")
        closed_corner = closed_form_untrusted(point, k, beta, params.block_size)
        if abs(unclamped(untrusted[k], beta) - closed_corner) > TOL:
            errors.append(f"user {k + 1}: untrusted rate at the corner differs from the closed form")
        truth = max(0.0, closed_form_untrusted(params, k, beta, params.block_size))
        if untrusted[k].rate > truth + ORDER_TOL:
            errors.append(f"user {k + 1}: untrusted rate at the corner exceeds the rate at the truth")
    return errors


def read_block_file(path) -> tuple[tuple, np.ndarray]:
    """Header fields and the (2 + 2M, n) float64 columns of a CVNB file,
    parsed from the documented layout without the package's reader."""
    raw = Path(path).read_bytes()
    magic, version, n, m, seed = HEADER.unpack_from(raw)
    cols = np.frombuffer(raw, dtype="<f8", offset=HEADER.size)
    if magic != b"CVNB" or cols.size != (2 + 2 * m) * n:
        raise ValueError(f"{path}: not a CVNB block of n={n}, M={m}")
    return (magic, version, n, m, seed), cols.reshape(2 + 2 * m, n)


# ------------------------------------------------------------------------ cli


def read_config(path) -> NetworkParams:
    """Parameters of a cvqnet config file (`key = value [unit]`, `[user N]`
    sections), read without the package's parser."""
    top: dict = {}
    users: list[dict] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[user"):
            users.append({})
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        tokens = value.split()
        if key == "splitter_budget":
            parsed = value == "on"
        else:
            parsed = float(tokens[0]) * (1e-3 if tokens[1:] == ["mSNU"] else 1.0)
        (users[-1] if users else top)[key] = parsed
    return NetworkParams(
        modulation_variance=top["modulation_variance"],
        users=tuple(UserLink(u["transmittance"], u["excess_noise"], u.get("trusted_noise"))
                    for u in users),
        detector_efficiency=top["detector_efficiency"],
        electronic_noise=top.get("electronic_noise", 0.0),
        beta=top["beta"],
        block_size=int(top["block_size"]),
        eps_pe=top.get("eps_pe", 1e-10),
        enforce_splitter_budget=top.get("splitter_budget", True),
    )


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]


def _check_rate_rows(label, rows, params, block_size, errors) -> None:
    """CSV rows user,K_untrusted,K_collaborative,K_trusted against the oracle
    and, for the untrusted column, the closed form."""
    expected = oracles.oracle_rates(params)
    if [row[0] for row in rows] != [str(k + 1) for k in range(params.n_users)]:
        errors.append(f"{label}: expected one row per user")
        return
    for k, row in enumerate(rows):
        printed = dict(zip(TRUSTS, map(float, row[1:])))
        for t in TRUSTS:
            if not _close(printed[t], max(0.0, expected[t][k]), PRINTED_RTOL):
                errors.append(f"{label} user {k + 1} {t}: {printed[t]!r} vs oracle {expected[t][k]!r}")
        closed = max(0.0, closed_form_untrusted(params, k, params.beta, block_size))
        if not _close(printed["untrusted"], closed, PRINTED_RTOL):
            errors.append(f"{label} user {k + 1}: untrusted {printed['untrusted']!r} vs closed form {closed!r}")


def _check_sweep(label, text, points, params, errors) -> None:
    """Sweep rows param,value,user,trust,mode,rate; `points` maps each swept
    value to the network evaluated there."""
    rows = _csv_rows(text)[1:]
    m = params.n_users
    if len(rows) != len(points) * m * 3:
        errors.append(f"{label}: {len(rows)} rows, expected {len(points)} x {m} x 3")
        return
    for i, (value, point) in enumerate(points):
        expected = oracles.oracle_rates(point)
        for j, row in enumerate(rows[i * m * 3 : (i + 1) * m * 3]):
            k, t = divmod(j, 3)
            if (row[2], row[3]) != (str(k + 1), TRUSTS[t]) or not _close(float(row[1]), value, PRINTED_RTOL):
                errors.append(f"{label}: row {i * m * 3 + j} is not ({value}, user {k + 1}, {TRUSTS[t]})")
                return
            if not _close(float(row[5]), max(0.0, expected[TRUSTS[t]][k]), PRINTED_RTOL):
                errors.append(f"{label} at {value}: user {k + 1} {TRUSTS[t]} {row[5]} vs oracle")
        for k in range(m):
            closed = max(0.0, closed_form_untrusted(point, k, point.beta, point.block_size))
            if not _close(float(rows[i * m * 3 + 3 * k][5]), closed, PRINTED_RTOL):
                errors.append(f"{label} at {value}: user {k + 1} untrusted vs closed form")


def check_cli_session(outputs: dict, config: NetworkParams, files: dict, seed: int) -> list[str]:
    """One CLI session.  `outputs` maps each command name of the session to
    its standard output; `files` names the block and CSV files it wrote."""
    errors = []
    m, beta, n_block = config.n_users, config.beta, config.block_size

    rows = _csv_rows(outputs["keyrate"])
    if rows[:1] != [["user", "K_untrusted", "K_collaborative", "K_trusted"]]:
        errors.append("keyrate: unexpected header")
    _check_rate_rows("keyrate", rows[1:], config, n_block, errors)
    plain = {k: float(row[1]) for k, row in enumerate(rows[1:])}

    corner = config.with_links(model_corner(config, n_block))
    rows = _csv_rows(outputs["keyrate_worst_case"])[1:]
    _check_rate_rows("keyrate --worst-case model", rows, corner, n_block, errors)
    for k, row in enumerate(rows):
        if float(row[1]) > plain.get(k, 0.0) + ORDER_TOL:
            errors.append(f"keyrate --worst-case: user {k + 1} untrusted exceeds the as-given rate")

    entries = json.loads(outputs["keyrate_json"])
    expected = oracles.oracle_rates(config)
    if len(entries) != 3 * m:
        errors.append(f"keyrate json: {len(entries)} entries, expected {3 * m}")
    for e in entries:
        k, t = e["user"] - 1, e["trust"]
        raw = beta * e["mutual_information"] - e["holevo"] - e["delta"]
        if abs(raw - expected[t][k]) > TOL or e["rate"] != max(0.0, raw):
            errors.append(f"keyrate json: user {k + 1} {t} differs from the oracle")
        if t == "untrusted" and abs(raw - closed_form_untrusted(config, k, beta, n_block)) > TOL:
            errors.append(f"keyrate json: user {k + 1} untrusted differs from the closed form")

    rows = _csv_rows(outputs["decompose"])[1:]
    joint = float(outputs["decompose"].rsplit("joint_rate=", 1)[-1].split()[0])
    orders = [tuple(int(u) - 1 for u in row[0].split("-")) for row in rows]
    if sorted(orders) != list(itertools.permutations(range(m))):
        errors.append(f"decompose: {len(rows)} rows, expected all {math.factorial(m)} orderings once")
    trusted = expected["trusted"]
    for order, row in zip(orders, rows):
        contributions = [float(x) for x in row[1:-1]]
        slack = PRINTED_RTOL * (sum(map(abs, contributions)) + abs(joint))
        if abs(math.fsum(contributions) - joint) > slack or not _close(float(row[-1]), joint, PRINTED_RTOL):
            errors.append(f"decompose {row[0]}: row does not sum to the joint rate {joint}")
        if not _close(contributions[0], trusted[order[0]], PRINTED_RTOL):
            errors.append(f"decompose {row[0]}: first contribution is not the trusted rate")
        oracle_row = oracles.oracle_decomposition(config, order)
        if not all(_close(a, b, PRINTED_RTOL) for a, b in zip(contributions, oracle_row)):
            errors.append(f"decompose {row[0]}: contributions differ from the oracle")

    uniform = []
    mean_eps = sum(u.excess_noise for u in config.users) / m
    mean_nu = sum(config.trusted_noise(k) for k in range(m)) / m
    for i in range(61):
        loss = 30.0 * i / 60
        eta = 10.0 ** (-loss / 10.0) / m
        users = tuple(UserLink(eta, mean_eps, mean_nu) for _ in range(m))
        uniform.append((loss, replace(config, users=users)))
    _check_sweep("sweep loss_db", outputs["sweep_loss"], uniform, config, errors)
    blocks = []
    for i in range(5):
        n = 1e6 * 1e4 ** (i / 4)
        blocks.append((n, replace(config, block_size=int(round(n)))))
    _check_sweep("sweep N", outputs["sweep_n"], blocks, config, errors)

    for name, symbols, written in (("simulate", 200_000, [files["block"]]),
                                   ("simulate_csv", 20_000, [files["small_block"], files["csv"]])):
        rows = _csv_rows(outputs[name])
        if rows != [["symbols", "users", "seed", "files"],
                    [str(symbols), str(m), str(seed), ";".join(map(str, written))]]:
            errors.append(f"{name}: unexpected summary {rows}")
        header, _ = read_block_file(written[0])
        if header != (b"CVNB", 1, symbols, m, seed):
            errors.append(f"{name}: block header {header}")
    _, cols = read_block_file(files["small_block"])
    with open(files["csv"], newline="") as fh:
        table = list(csv.reader(fh))
    if len(table) != 20_001 or not np.array_equal(np.array(table[1:], dtype=float).T, cols):
        errors.append("simulate --csv: CSV columns differ from the block file")

    rows = _csv_rows(outputs["estimate"])[1:]
    eta_d = config.detector_efficiency
    if len(rows) != m:
        errors.append(f"estimate: {len(rows)} rows, expected {m}")
    for k, row in enumerate(rows[:m]):
        eta_hat, eps_hat, eta_min, eps_max = (float(x) for x in row[1:5])
        t_hat, t_low = math.sqrt(eta_hat * eta_d / 2.0), math.sqrt(eta_min * eta_d / 2.0)
        t_true = math.sqrt(config.users[k].transmittance * eta_d / 2.0)
        eps_true = config.users[k].excess_noise * 1e3
        if abs(t_hat - t_true) > t_hat - t_low or abs(eps_hat - eps_true) > eps_max - eps_hat:
            errors.append(f"estimate: user {k + 1} interval does not contain the config value")
    return errors
