"""Command-line interface.

Subcommands: keyrate, decompose, sweep, simulate, estimate.  CSV is the
canonical tabular output; --format json mirrors it for machine consumption.
Exit codes: 0 success, 2 config/input error, 3 numerical or physicality
error, 4 guard refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .config import RunConfig, default_config, load_config
from .decomposition import all_orderings, decomposition_table, sample_orderings
from .errors import ConfigError, CVQNetError, GuardRefusalError, ValidationError
from .keyrates import TrustModel, derive_worst_case, rate_table
from .network import NetworkParams, UserLink
from .simulate import (
    estimate_report,
    read_block,
    simulate,
    write_block,
    write_block_csv,
)

TRUST_ORDER = (TrustModel.UNTRUSTED, TrustModel.COLLABORATIVE, TrustModel.TRUSTED)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> RunConfig:
    return load_config(args.config) if args.config else default_config()


# ---------------------------------------------------------------- keyrate


def _cmd_keyrate(args) -> int:
    cfg = _load(args)
    params = cfg.params
    users = list(range(params.n_users)) if args.user == "all" else [_user_index(args.user, params)]
    trusts = list(TRUST_ORDER) if args.trust == "all" else [TrustModel(args.trust)]
    worst = derive_worst_case(params) if args.worst_case == "model" and args.mode == "finite" else None

    reports = rate_table(params, trusts, users, args.mode, worst)
    if args.format == "json":
        payload = [
            {
                "user": r.user + 1,
                "trust": r.trust.value,
                "mode": args.mode,
                "mutual_information": r.mutual_information,
                "holevo": r.holevo,
                "delta": r.delta,
                "rate": r.rate,
                "non_positive": r.non_positive,
                "params_source": r.params_source,
                "params_used": [list(p) for p in r.params_used],
            }
            for r in reports
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        header = "user," + ",".join(f"K_{t.value}" for t in trusts)
        lines = [header]
        for k in users:
            lines.append(f"{k + 1}," + ",".join(_fmt(r.rate) for r in reports if r.user == k))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _user_index(raw: str, params: NetworkParams) -> int:
    try:
        k = int(raw) - 1
    except ValueError:
        raise ConfigError(f"--user must be an index or 'all', got {raw!r}") from None
    if not 0 <= k < params.n_users:
        raise ConfigError(f"user {raw} out of range: config has {params.n_users} users")
    return k


# -------------------------------------------------------------- decompose


def _parse_orders(raw: str, n_users: int):
    if raw == "all":
        return ("all", None)
    if raw.startswith("sample:"):
        try:
            count = int(raw.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"--orders sample:K needs an integer K, got {raw!r}") from None
        if count < 1:
            raise ConfigError(f"--orders sample:K needs K >= 1, got {raw!r}")
        return ("sample", count)
    try:
        order = tuple(int(tok) - 1 for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"--orders must be 'all', 'sample:K' or '1,2,...', got {raw!r}") from None
    if sorted(order) != list(range(n_users)):
        raise ConfigError(f"--orders {raw!r} is not a permutation of 1..{n_users}")
    return ("explicit", order)


def _cmd_decompose(args) -> int:
    cfg = _load(args)
    params = cfg.params
    kind, detail = _parse_orders(args.orders, params.n_users)
    if kind == "all":
        table = all_orderings(params, mode=args.mode)
    elif kind == "sample":
        table = sample_orderings(params, detail, seed=args.seed, mode=args.mode)
    else:
        table = decomposition_table(params, [detail], mode=args.mode)
    rows, joint = table.rows, table.joint_rate

    if args.format == "json":
        payload = {
            "rows": [
                {
                    "order": [k + 1 for k in r.order],
                    "contributions": list(r.contributions),
                    "row_sum": r.row_sum,
                }
                for r in rows
            ],
            "joint_rate": joint,
            "mode": args.mode,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        m = params.n_users
        header = "order," + ",".join(f"K_{i + 1}" for i in range(m)) + ",row_sum"
        lines = [header]
        for r in rows:
            order_str = "-".join(str(k + 1) for k in r.order)
            lines.append(
                f"{order_str},"
                + ",".join(_fmt(c) for c in r.contributions)
                + f",{_fmt(r.row_sum)}"
            )
        lines.append(f"# joint_rate={_fmt(joint)} rows={len(rows)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------------------ sweep

SWEEP_PARAMS = ("loss_db", "N", "V_M", "epsilon")


def _sweep_values(args) -> list[float]:
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    for end in (args.start, args.stop):
        if end is not None and not math.isfinite(end):
            raise ValidationError(f"sweep endpoints must be finite, got {end}")
    if args.steps == 1:
        return [args.start]
    if args.stop is None:
        raise ValidationError("--to is required when --steps > 1")
    if not args.stop > args.start:
        raise ValidationError(
            f"sweep range must be increasing, got from={args.start} to={args.stop}"
        )
    if args.param == "N":
        if args.start <= 0:
            raise ValidationError("N sweep needs positive endpoints")
        ratio = (args.stop / args.start) ** (1.0 / (args.steps - 1))
        return [args.start * ratio**i for i in range(args.steps)]
    step = (args.stop - args.start) / (args.steps - 1)
    return [args.start + step * i for i in range(args.steps)]


def _apply_sweep_value(params: NetworkParams, name: str, value: float, n_users: int) -> NetworkParams:
    if name == "loss_db":
        # swept value is the channel loss; the uniform 1:M split is applied
        # on top, so 0 dB means each of M users receives a 1/M share
        if value < 0.0:
            raise ValidationError(f"channel loss must be >= 0 dB, got {value}")
        eta = 10.0 ** (-value / 10.0) / n_users
        mean_eps = sum(u.excess_noise for u in params.users) / params.n_users
        mean_nu = sum(params.trusted_noise(k) for k in range(params.n_users)) / params.n_users
        users = tuple(
            UserLink(transmittance=eta, excess_noise=mean_eps, trusted_noise=mean_nu)
            for _ in range(n_users)
        )
        return replace(params, users=users)
    if name == "N":
        return replace(params, block_size=int(round(value)))
    if name == "V_M":
        return replace(params, modulation_variance=value)
    if name == "epsilon":  # value in mSNU
        users = tuple(replace(u, excess_noise=value * 1e-3) for u in params.users)
        return replace(params, users=users)
    raise ValidationError(f"unknown sweep parameter {name!r}")


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    params = cfg.params
    n_users = args.users or params.n_users
    values = _sweep_values(args)
    trusts = list(TRUST_ORDER) if args.trust == "all" else [TrustModel(args.trust)]

    results = []
    for value in values:
        p = _apply_sweep_value(params, args.param, value, n_users)
        results += [(value, r) for r in rate_table(p, trusts, mode=args.mode)]
    if args.format == "json":
        payload = [
            {"param": args.param, "value": v, "user": r.user + 1, "trust": r.trust.value,
             "rate": r.rate}
            for (v, r) in results
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["param,value,user,trust,mode,rate"]
        for (v, r) in results:
            lines.append(
                f"{args.param},{_fmt(v)},{r.user + 1},{r.trust.value},{args.mode},{_fmt(r.rate)}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------- simulate / estimate


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    if args.symbols < 1:
        raise ValidationError("--symbols must be >= 1")
    block = simulate(cfg.params, args.symbols, args.seed)
    write_block(block, args.out_block)
    written = [args.out_block]
    if args.csv:
        write_block_csv(block, args.csv)
        written.append(args.csv)
    summary = {
        "symbols": block.n,
        "users": block.n_users,
        "seed": block.seed,
        "files": written,
    }
    if args.format == "json":
        _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(
            f"symbols,users,seed,files\n{block.n},{block.n_users},{block.seed},"
            + ";".join(written)
            + "\n",
            args.out,
        )
    return 0


def _cmd_estimate(args) -> int:
    cfg = _load(args)
    block = read_block(args.in_block)
    if block.n_users != cfg.params.n_users:
        raise ConfigError(
            f"block has {block.n_users} users but config describes {cfg.params.n_users}"
        )
    report = estimate_report(block, cfg.params)
    if args.format == "json":
        payload = {
            "n": report.n,
            "eps_pe": report.eps_pe,
            "users": [
                {
                    "user": k,
                    "t_hat": u.t_hat,
                    "sigma2_hat": u.sigma2_hat,
                    "eta_hat": u.eta_hat,
                    "eps_hat_msnu": u.eps_hat * 1e3,
                    "delta_t": u.delta_t,
                    "delta_sigma2": u.delta_sigma2,
                    "eta_min": u.eta_min,
                    "eps_max_msnu": u.eps_max * 1e3,
                    "negative_excess_flagged": u.negative_excess_flagged,
                }
                for k, u in enumerate(report.users, start=1)
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["user,eta_hat,eps_hat_msnu,eta_min,eps_max_msnu,flagged"]
        for k, u in enumerate(report.users, start=1):
            lines.append(
                f"{k},{_fmt(u.eta_hat)},{_fmt(u.eps_hat * 1e3)},"
                f"{_fmt(u.eta_min)},{_fmt(u.eps_max * 1e3)},"
                f"{'yes' if u.negative_excess_flagged else 'no'}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqnet",
        description="Finite-size key rates and joint-rate decomposition "
        "for one-to-many CV-QKD broadcast networks.",
    )
    parser.add_argument("--config", help="network config file (default: bundled four-user config)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keyrate", help="per-user secret key rates")
    p.add_argument("--trust", choices=("untrusted", "collaborative", "trusted", "all"), default="all")
    p.add_argument("--user", default="all", help="1-based user index or 'all'")
    p.add_argument("--mode", choices=("finite", "asymptotic"), default="finite")
    p.add_argument(
        "--worst-case",
        choices=("none", "model"),
        default="none",
        help="substitute the model-implied confidence-region corner before evaluating",
    )
    p.set_defaults(fn=_cmd_keyrate)

    p = sub.add_parser("decompose", help="chain-rule decomposition of the joint rate")
    p.add_argument("--orders", default="all", help="'all', 'sample:K', or an explicit order '1,2,3,4'")
    p.add_argument("--mode", choices=("finite", "asymptotic"), default="finite")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled orderings")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("sweep", help="key-rate curves over a parameter grid")
    p.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trust", choices=("untrusted", "collaborative", "trusted", "all"), default="all")
    p.add_argument("--mode", choices=("finite", "asymptotic"), default="finite")
    p.add_argument("--users", type=int, help="uniform-network user count for loss_db sweeps")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("simulate", help="draw a deterministic symbol block")
    p.add_argument("--symbols", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-block", required=True, help="binary block output path")
    p.add_argument("--csv", help="also write a CSV copy for inspection")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("estimate", help="parameter estimation report from a block file")
    p.add_argument("--in", dest="in_block", required=True, help="binary block input path")
    p.set_defaults(fn=_cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GuardRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CVQNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
