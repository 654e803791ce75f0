"""Line-oriented scenario config files.

Format: `key = value` assignments grouped under `[section]` headers,
with `#` comments and blank lines ignored.  Unknown sections or keys,
keys the scenario does not read and out-of-range values are rejected
with the offending line number.  A seed is mandatory; scenarios never
fall back to wall-clock seeding.
"""

from dataclasses import dataclass

from ..adversary import AttackKind, AttackSpec, BasisPolicy
from ..channel import ChannelSpec, LinkBudget
from ..kinds import ProtocolKind
from ..protocol import SessionConfig
from .scenario import Scenario, parse_p_grid


class ConfigError(ValueError):
    """A config file problem, with a line number when one applies."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SCHEMA = {
    "scenario": {
        "name": str,
        "seed": int,
        "out_dir": str,
        "n_points": int,
        "d_pd_cm": float,
    },
    "session": {
        "protocol": ProtocolKind.from_string,
        "n_rounds": int,
        "cm_fraction": float,
        "enforce_cm_threshold": _parse_bool,
    },
    "channel": {
        "transmittance_per_leg": float,
        "flip_prob": float,
        "legs": int,
        "alpha_db_per_km": float,
        "distance_km": float,
    },
    "attack": {
        "kind": AttackKind.from_string,
        "presence": float,
        "basis_policy": BasisPolicy.from_string,
        "f0": float,
        "f_plus": float,
    },
    "sweep": {
        "p_grid": parse_p_grid,
        "n_rounds": int,
    },
}


@dataclass
class _Entry:
    value: object
    lineno: int


def _read_entries(path: str) -> dict:
    entries: dict[tuple[str, str], _Entry] = {}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _SCHEMA:
                    raise ConfigError(f"unknown section [{section}]", lineno)
                continue
            if "=" not in line:
                raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
            key, _, raw_value = line.partition("=")
            key = key.strip().lower()
            if section is None:
                raise ConfigError(f"{key!r} set before any [section] header", lineno)
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
            if (section, key) in entries:
                raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
            caster = _SCHEMA[section][key]
            try:
                value = caster(raw_value.strip())
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}", lineno) from None
            entries[(section, key)] = _Entry(value, lineno)
    return entries


def parse_config(path: str) -> Scenario:
    """Parse a scenario config file into a Scenario.

    Each key set in the file is passed under its own name to the
    constructor that reads it (Scenario, SessionConfig, ChannelSpec,
    AttackSpec or LinkBudget), so defaults and range checks live only
    there.  A constructor's ValueError starts with the field name, which
    maps back to the key's line.  A key the scenario does not read is
    rejected, so every value in the file is checked.
    """
    entries = _read_entries(path)
    unread = dict(entries)

    def require(section, key):
        if (section, key) not in entries:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return entries[(section, key)].value

    def take(section, *keys):
        return {key: unread.pop((section, key)).value
                for key in keys if (section, key) in unread}

    name = require("scenario", "name")
    require("scenario", "seed")
    if name in ("session", "sweep"):
        require("session", "protocol")
    if name == "sweep":
        require("sweep", "p_grid")
    fields = take("scenario", "name", "seed", "out_dir")
    try:
        if name in ("session", "sweep"):
            sweep = name == "sweep"
            fields["session"] = SessionConfig(
                seed=fields["seed"],
                channel=ChannelSpec(**take("channel", "transmittance_per_leg", "flip_prob",
                                           "legs")),
                attack=AttackSpec(**take("attack", "kind", *(() if sweep else ("presence",)),
                                         "basis_policy", "f0", "f_plus")),
                **take("session", "protocol", "cm_fraction", "enforce_cm_threshold"),
                **take("sweep" if sweep else "session", "n_rounds"),
                **take("scenario", "d_pd_cm"),
            )
            if sweep:
                fields["p_values"] = take("sweep", "p_grid")["p_grid"]
        elif name == "table1":
            fields.update(take("scenario", "d_pd_cm"), **take("session", "n_rounds"),
                          link=LinkBudget(**take("channel", "alpha_db_per_km", "distance_km")))
        else:
            fields.update(take("scenario", "n_points", "d_pd_cm"))
        scenario = Scenario(**fields)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0].rstrip(":")
        read = {key: entry.lineno for (section, key), entry in entries.items()
                if (section, key) not in unread}
        raise ConfigError(str(exc), read.get(field)) from None
    if unread:
        (section, key), entry = next(iter(unread.items()))
        raise ConfigError(f"key {key!r} in section [{section}] is not read by a "
                          f"{name} scenario", entry.lineno)
    return scenario
