"""Command-line interface.

Subcommands: keyrate, decompose, sweep, simulate, estimate.  Every command is
`_cmd_X(params, args)`, which builds only the output --format asks for: its
CSV lines (the canonical tabular output) or, with --format json, the JSON
mirror of the same numbers.  `main` loads the config, runs the command and
writes that output to stdout or --out.
Every JSON record is its API dataclass's fields, with users 1-based: a
`keyrate` record is its `KeyRateReport`'s, with the trust model by value and
the command's `mode`; a `sweep` record is a keyrate record plus `param` and
`value`; a `decompose` row is its `DecompositionRow`'s; an `estimate` is its
`EstimateReport` with each `ConfidenceRegion`, the excess noises in mSNU.
Exit codes: 0 success, 2 config/input or file error (a corrupt block file is
reported as an input error; two of --out, --out-block, --csv and --in naming
the same regular file are a config error, and nothing is written), 3
numerical or physicality error (a bad sweep grid or --symbols included) or
running out of memory, 4 guard refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .config import default_config, load_config
from .decomposition import all_orderings, decomposition_table, sample_orderings
from .errors import ConfigError, CorruptInputError, CVQNetError, GuardRefusalError, ValidationError
from .keyrates import MODES, KeyRateReport, TrustModel, derive_worst_case, rate_table
from .network import NetworkParams, UserLink
from .simulate import (
    ConfidenceRegion,
    check_seed,
    estimate_report,
    read_block,
    simulate,
    write_block,
    write_block_csv,
)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _seed(raw: str) -> int:
    """A `--seed` held to `check_seed`, so that any bad seed is an argument error (exit 2)."""
    try:
        seed = int(raw)
    except ValueError:
        seed = raw  # check_seed names it as a non-integer
    try:
        return check_seed(seed)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _trusts(raw: str) -> list[TrustModel]:
    return list(TrustModel) if raw == "all" else [TrustModel(raw)]


# ---------------------------------------------------------------- keyrate


def _cmd_keyrate(params: NetworkParams, args):
    users = list(range(params.n_users)) if args.user == "all" else [_user_index(args.user, params)]
    trusts = _trusts(args.trust)
    worst = derive_worst_case(params) if args.worst_case == "model" and args.mode == "finite" else None

    reports = rate_table(params, trusts, users, args.mode, worst)
    if args.format == "json":
        return [_rate_record(r, args.mode) for r in reports]
    lines = ["user," + ",".join(f"K_{t.value}" for t in trusts)]
    for k in users:
        lines.append(f"{k + 1}," + ",".join(_fmt(r.rate) for r in reports if r.user == k))
    return lines


def _rate_record(report: KeyRateReport, mode: str) -> dict:
    return {**vars(report), "user": report.user + 1, "trust": report.trust.value, "mode": mode}


def _user_index(raw: str, params: NetworkParams) -> int:
    try:
        k = int(raw) - 1
        params.check_user(k)
    except ValidationError:  # a ValueError too, so caught first
        raise ConfigError(f"user {raw} out of range: config has {params.n_users} users") from None
    except ValueError:
        raise ConfigError(f"--user must be an index or 'all', got {raw!r}") from None
    return k


# -------------------------------------------------------------- decompose


def _orders_table(raw: str, params: NetworkParams, args):
    """The decomposition table that `--orders raw` names; a malformed value
    raises ConfigError before anything is evaluated."""
    if raw == "all":
        return all_orderings(params, mode=args.mode)
    if raw.startswith("sample:"):
        try:
            count = int(raw.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"--orders sample:K needs an integer K, got {raw!r}") from None
        if count < 1:
            raise ConfigError(f"--orders sample:K needs K >= 1, got {raw!r}")
        return sample_orderings(params, count, seed=args.seed, mode=args.mode)
    try:
        order = tuple(int(tok) - 1 for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"--orders must be 'all', 'sample:K' or '1,2,...', got {raw!r}") from None
    if sorted(order) != list(range(params.n_users)):
        raise ConfigError(f"--orders {raw!r} is not a permutation of 1..{params.n_users}")
    return decomposition_table(params, [order], mode=args.mode)


def _cmd_decompose(params: NetworkParams, args):
    table = _orders_table(args.orders, params, args)
    rows, joint = table.rows, table.joint_rate
    if args.format == "json":
        records = [{**vars(r), "order": [k + 1 for k in r.order]} for r in rows]
        return {"rows": records, "joint_rate": joint, "mode": args.mode}
    lines = ["order," + ",".join(f"K_{i + 1}" for i in range(params.n_users)) + ",row_sum"]
    for r in rows:
        order_str = "-".join(str(k + 1) for k in r.order)
        lines.append(
            f"{order_str}," + ",".join(_fmt(c) for c in r.contributions) + f",{_fmt(r.row_sum)}"
        )
    lines.append(f"# joint_rate={_fmt(joint)} rows={len(rows)}")
    return lines


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
        # swept value is the channel loss; the uniform 1:M split is applied on top, so
        # 0 dB gives each of M users a 1/M share (M < 1 builds no link: NetworkParams rejects it)
        if value < 0.0:
            raise ValidationError(f"channel loss must be >= 0 dB, got {value}")
        eta = 10.0 ** (-value / 10.0)
        mean_eps = sum(u.excess_noise for u in params.users) / params.n_users
        mean_nu = sum(params.trusted_noise(k) for k in range(params.n_users)) / params.n_users
        users = tuple(UserLink(eta / n_users, mean_eps, mean_nu) for _ in range(n_users))
        return replace(params, users=users)
    if name == "N":
        return replace(params, block_size=int(round(value)))
    if name == "V_M":
        return replace(params, modulation_variance=value)
    # epsilon, in mSNU: argparse's choices=SWEEP_PARAMS has turned away every other name
    users = tuple(replace(u, excess_noise=value * 1e-3) for u in params.users)
    return replace(params, users=users)


def _cmd_sweep(params: NetworkParams, args):
    if args.users is not None and args.param != "loss_db":
        raise ConfigError(f"--users applies only to --param loss_db, not {args.param}")
    n_users = params.n_users if args.users is None else args.users
    values = _sweep_values(args)
    trusts = _trusts(args.trust)
    results = [
        (value, r)
        for value in values
        for r in rate_table(_apply_sweep_value(params, args.param, value, n_users), trusts,
                            mode=args.mode)
    ]
    if args.format == "json":
        return [{**_rate_record(r, args.mode), "param": args.param, "value": v}
                for (v, r) in results]
    return ["param,value,user,trust,mode,rate"] + [
        f"{args.param},{_fmt(v)},{r.user + 1},{r.trust.value},{args.mode},{_fmt(r.rate)}"
        for (v, r) in results
    ]


# ------------------------------------------------------- simulate / estimate


def _cmd_simulate(params: NetworkParams, args):
    block = simulate(params, args.symbols, args.seed)
    written = [args.out_block]
    try:
        write_block(block, args.out_block)
        if args.csv:
            write_block_csv(block, args.csv)
            written.append(args.csv)
    except OSError as exc:
        # A failed command leaves no output behind.  An error naming the block
        # path is write_block failing to open it: that target is not ours, and
        # neither is a non-regular one such as /dev/null.
        if exc.filename != args.out_block and os.path.isfile(args.out_block):
            os.remove(args.out_block)
        raise
    if args.format == "json":
        return {"symbols": block.n, "users": block.n_users, "seed": block.seed, "files": written}
    return ["symbols,users,seed,files",
            f"{block.n},{block.n_users},{block.seed}," + ";".join(written)]


def _region_record(k: int, region: ConfidenceRegion) -> dict:
    record = {**vars(region), "user": k, "negative_excess_flagged": region.negative_excess_flagged}
    record["eps_hat_msnu"] = record.pop("eps_hat") * 1e3
    record["eps_max_msnu"] = record.pop("eps_max") * 1e3
    return record


def _cmd_estimate(params: NetworkParams, args):
    report = estimate_report(read_block(args.in_block), params)
    if args.format == "json":
        regions = [_region_record(k, u) for k, u in enumerate(report.users, 1)]
        return {**vars(report), "users": regions}
    return ["user,eta_hat,eps_hat_msnu,eta_min,eps_max_msnu,flagged"] + [
        f"{k},{_fmt(u.eta_hat)},{_fmt(u.eps_hat * 1e3)},{_fmt(u.eta_min)},{_fmt(u.eps_max * 1e3)},"
        f"{'yes' if u.negative_excess_flagged else 'no'}"
        for k, u in enumerate(report.users, start=1)
    ]


# ------------------------------------------------------------------- main


FILE_ARGUMENTS = {"--out": "out", "--out-block": "out_block", "--csv": "csv", "--in": "in_block"}


def _check_distinct_files(args) -> None:
    """Raise ConfigError if two file arguments resolve to the same path, so
    that no command overwrites its input or one output with another.  An
    existing target that is not a regular file, such as /dev/null, is exempt."""
    seen = {}
    for flag, dest in FILE_ARGUMENTS.items():
        path = getattr(args, dest, None)
        if not path or (os.path.exists(path) and not os.path.isfile(path)):
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{seen[real]} and {flag} name the same file {path!r}")
        seen[real] = flag


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
    trusts = tuple(t.value for t in TrustModel) + ("all",)

    p = sub.add_parser("keyrate", help="per-user secret key rates")
    p.add_argument("--trust", choices=trusts, default="all")
    p.add_argument("--user", default="all", help="1-based user index or 'all'")
    p.add_argument("--mode", choices=MODES, default="finite")
    p.add_argument(
        "--worst-case",
        choices=("none", "model"),
        default="none",
        help="substitute the model-implied confidence-region corner before evaluating",
    )
    p.set_defaults(fn=_cmd_keyrate)

    p = sub.add_parser("decompose", help="chain-rule decomposition of the joint rate")
    p.add_argument("--orders", default="all", help="'all', 'sample:K', or an explicit order '1,2,3,4'")
    p.add_argument("--mode", choices=MODES, default="finite")
    p.add_argument("--seed", type=_seed, default=0, help="seed for sampled orderings")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("sweep", help="key-rate curves over a parameter grid")
    p.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trust", choices=trusts, default="all")
    p.add_argument("--mode", choices=MODES, default="finite")
    p.add_argument("--users", type=int, help="uniform-network user count for loss_db sweeps")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("simulate", help="draw a deterministic symbol block")
    p.add_argument("--symbols", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out-block", required=True, help="binary block output path")
    p.add_argument("--csv", help="also write a CSV copy for inspection")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("estimate", help="parameter estimation report from a block file")
    p.add_argument("--in", dest="in_block", required=True, help="binary block input path")
    p.set_defaults(fn=_cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_distinct_files(args)
        params = (load_config(args.config) if args.config else default_config()).params
        output = args.fn(params, args)
        if args.format == "json":
            text = json.dumps(output, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(output) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except GuardRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except CorruptInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CVQNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
