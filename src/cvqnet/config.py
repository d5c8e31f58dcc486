"""Config-file ingestion for network parameters.

Line-oriented `key = value [unit]` format with per-user sections, whose
schema `_TOP_KEYS` and `_USER_KEYS` state once for `parse_config` and
`format_config` alike.  Noise and variance fields must declare their unit
(SNU or mSNU); everything is normalized to SNU at parse time.  An optional
key left out takes its field's dataclass default.  Unknown keys are
rejected with the line number so typos cannot silently change a security
evaluation.

    modulation_variance = 5.04 SNU
    detector_efficiency = 0.68
    electronic_noise = 60 mSNU
    beta = 0.95
    block_size = 1.25e9
    eps_pe = 1e-10
    splitter_budget = on

    [user 1]
    transmittance = 0.13
    excess_noise = 4.17 mSNU
    trusted_noise = 54.00 mSNU
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, ValidationError
from .network import NetworkParams, UserLink

_UNIT_SCALE = {"SNU": 1.0, "mSNU": 1e-3}


# A config key sets one NetworkParams or UserLink field; its kind is "SNU" (a number and
# its unit, SNU or mSNU), "number", "count" (a positive integer) or "flag" (on/off).
class _Key(NamedTuple):
    field: str
    kind: str
    required: bool = False


_TOP_KEYS = {
    "modulation_variance": _Key("modulation_variance", "SNU", True),
    "detector_efficiency": _Key("detector_efficiency", "number", True),
    "electronic_noise": _Key("electronic_noise", "SNU"),
    "beta": _Key("beta", "number", True),
    "block_size": _Key("block_size", "count", True),
    "eps_pe": _Key("eps_pe", "number"),
    "splitter_budget": _Key("enforce_splitter_budget", "flag"),
}
_USER_KEYS = {
    "transmittance": _Key("transmittance", "number", True),
    "excess_noise": _Key("excess_noise", "SNU", True),
    "trusted_noise": _Key("trusted_noise", "SNU"),
}

_SECTION_RE = re.compile(r"^\[user\s+(\d+)\]$")


@dataclass(frozen=True)
class RunConfig:
    params: NetworkParams


def _parse_number(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"line {line_no}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: not a finite number: {token!r}")
    return value


def _parse_value(key: str, rest: str, kind: str, line_no: int) -> float | bool:
    tokens = rest.split()
    if kind == "flag":
        if rest not in ("on", "off"):
            raise ConfigError(f"line {line_no}: {key} must be 'on' or 'off', got {rest!r}")
        return rest == "on"
    if kind == "SNU":
        if len(tokens) != 2 or tokens[1] not in _UNIT_SCALE:
            raise ConfigError(
                f"line {line_no}: {key} needs a value with unit SNU or mSNU, got {rest!r}"
            )
        return _parse_number(tokens[0], line_no) * _UNIT_SCALE[tokens[1]]
    if len(tokens) != 1:
        raise ConfigError(f"line {line_no}: {key} takes a bare number, got {rest!r}")
    return _parse_number(tokens[0], line_no)


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    top: dict[str, float | bool] = {}
    users: list[dict[str, float]] = []
    current: dict[str, float] | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        section = _SECTION_RE.match(line)
        if section:
            index = int(section.group(1))
            if index != len(users) + 1:
                raise ConfigError(
                    f"line {line_no}: user sections must be numbered consecutively from 1, "
                    f"got [user {index}] after {len(users)} section(s)"
                )
            current = {}
            users.append(current)
            continue
        if line.startswith("["):
            raise ConfigError(f"line {line_no}: unknown section {line!r}")
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, rest = (part.strip() for part in line.split("=", 1))
        keys = _USER_KEYS if current is not None else _TOP_KEYS
        if key not in keys:
            scope = "user section" if current is not None else "top level"
            raise ConfigError(f"line {line_no}: unknown {scope} key {key!r}")
        target = current if current is not None else top
        if keys[key].field in target:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        target[keys[key].field] = _parse_value(key, rest, keys[key].kind, line_no)

    for key, spec in _TOP_KEYS.items():
        if spec.required and spec.field not in top:
            raise ConfigError(f"{source}: missing required key {key!r}")
    if not users:
        raise ConfigError(f"{source}: at least one [user N] section is required")
    for i, u in enumerate(users, start=1):
        for key, spec in _USER_KEYS.items():
            if spec.required and spec.field not in u:
                raise ConfigError(f"{source}: [user {i}] is missing {key!r}")

    block = top["block_size"]
    if block < 1 or abs(block - round(block)) > 1e-6 * max(1.0, block):
        raise ConfigError(f"{source}: block_size must be a positive integer, got {block}")
    top["block_size"] = int(round(block))

    try:
        links = tuple(UserLink(**u) for u in users)
        return RunConfig(params=NetworkParams(users=links, **top))
    except ValidationError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def default_config() -> RunConfig:
    """The bundled four-user calibration config."""
    text = resources.files("cvqnet.data").joinpath("table1.cfg").read_text()
    return parse_config(text, source="<builtin table1.cfg>")


def _exact(value: float) -> str:
    """Shortest decimal that parses back to the same float (numpy scalars too)."""
    return repr(float(value))


def _format_value(value: float | bool, kind: str) -> str:
    if kind == "flag":
        return "on" if value else "off"
    if kind == "count":
        return str(value)
    return f"{_exact(value)} SNU" if kind == "SNU" else _exact(value)


def _format_section(values, keys: dict[str, _Key]) -> list[str]:
    """`key = value` lines of one section; a field left unset (None) is omitted."""
    fields = ((key, spec.kind, getattr(values, spec.field)) for key, spec in keys.items())
    return [f"{key} = {_format_value(v, kind)}" for key, kind, v in fields if v is not None]


def format_config(params: NetworkParams) -> str:
    """Emit a parseable config that parse_config reads back to equal params.

    Floats are written in their shortest exact form and noise and variance
    fields in SNU, so no digit is lost on the way back.
    """
    lines = _format_section(params, _TOP_KEYS)
    for i, user in enumerate(params.users, start=1):
        lines += ["", f"[user {i}]"] + _format_section(user, _USER_KEYS)
    return "\n".join(lines) + "\n"
