"""Config-file ingestion for network parameters.

Line-oriented `key = value [unit]` format with per-user sections.  Noise
and variance fields must declare their unit (SNU or mSNU); everything is
normalized to SNU at parse time.  Unknown keys are rejected with the line
number so typos cannot silently change a security evaluation.

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

from .errors import ConfigError, ValidationError
from .network import NetworkParams, UserLink

_UNIT_SCALE = {"SNU": 1.0, "mSNU": 1e-3}

# field name -> unit_required: True (number and SNU or mSNU), False (bare number),
# None (on/off flag)
_TOP_FIELDS = {
    "modulation_variance": True,
    "detector_efficiency": False,
    "electronic_noise": True,
    "beta": False,
    "block_size": False,
    "eps_pe": False,
    "splitter_budget": None,  # on/off flag
}
_USER_FIELDS = {
    "transmittance": False,
    "excess_noise": True,
    "trusted_noise": True,
}

_SECTION_RE = re.compile(r"^\[user\s+(\d+)\]$")


@dataclass(frozen=True)
class RunConfig:
    params: NetworkParams
    source: str  # path or "<builtin>"


def _parse_number(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"line {line_no}: not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: not a finite number: {token!r}")
    return value


def _parse_value(key: str, rest: str, unit_required: bool | None, line_no: int) -> float | bool:
    tokens = rest.split()
    if unit_required is None:  # on/off flag
        if rest not in ("on", "off"):
            raise ConfigError(f"line {line_no}: {key} must be 'on' or 'off', got {rest!r}")
        return rest == "on"
    if unit_required:
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
        fields = _USER_FIELDS if current is not None else _TOP_FIELDS
        if key not in fields:
            scope = "user section" if current is not None else "top level"
            raise ConfigError(f"line {line_no}: unknown {scope} key {key!r}")
        target = current if current is not None else top
        if key in target:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        target[key] = _parse_value(key, rest, fields[key], line_no)

    for required in ("modulation_variance", "detector_efficiency", "beta", "block_size"):
        if required not in top:
            raise ConfigError(f"{source}: missing required key {required!r}")
    if not users:
        raise ConfigError(f"{source}: at least one [user N] section is required")

    for i, u in enumerate(users, start=1):
        for required in ("transmittance", "excess_noise"):
            if required not in u:
                raise ConfigError(f"{source}: [user {i}] is missing {required!r}")

    block = float(top["block_size"])
    if block < 1 or abs(block - round(block)) > 1e-6 * max(1.0, block):
        raise ConfigError(f"{source}: block_size must be a positive integer, got {block}")

    try:
        links = tuple(
            UserLink(
                transmittance=float(u["transmittance"]),
                excess_noise=float(u["excess_noise"]),
                trusted_noise=float(u["trusted_noise"]) if "trusted_noise" in u else None,
            )
            for u in users
        )
        params = NetworkParams(
            modulation_variance=float(top["modulation_variance"]),
            users=links,
            detector_efficiency=float(top["detector_efficiency"]),
            electronic_noise=float(top.get("electronic_noise", 0.0)),
            beta=float(top["beta"]),
            block_size=int(round(block)),
            eps_pe=float(top.get("eps_pe", 1e-10)),
            enforce_splitter_budget=bool(top.get("splitter_budget", True)),
        )
    except ValidationError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return RunConfig(params=params, source=source)


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


def format_config(params: NetworkParams) -> str:
    """Emit a parseable config that parse_config reads back to equal params.

    Floats are written in their shortest exact form and noise and variance
    fields in SNU, so no digit is lost on the way back.
    """
    lines = [
        f"modulation_variance = {_exact(params.modulation_variance)} SNU",
        f"detector_efficiency = {_exact(params.detector_efficiency)}",
        f"electronic_noise = {_exact(params.electronic_noise)} SNU",
        f"beta = {_exact(params.beta)}",
        f"block_size = {params.block_size}",
        f"eps_pe = {_exact(params.eps_pe)}",
        f"splitter_budget = {'on' if params.enforce_splitter_budget else 'off'}",
    ]
    for i, user in enumerate(params.users, start=1):
        lines.append("")
        lines.append(f"[user {i}]")
        lines.append(f"transmittance = {_exact(user.transmittance)}")
        lines.append(f"excess_noise = {_exact(user.excess_noise)} SNU")
        if user.trusted_noise is not None:
            lines.append(f"trusted_noise = {_exact(user.trusted_noise)} SNU")
    return "\n".join(lines) + "\n"
