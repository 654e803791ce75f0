"""Scenario configs: line-oriented files and command-line flags.

Format: `key = value` assignments grouped under `[section]` headers,
with `#` comments and blank lines ignored.  Unknown sections or keys,
keys the scenario does not read and out-of-range values are rejected
with the offending line number.  A command-line flag sets one key and
is checked the same way, naming the flag.  A seed is mandatory;
scenarios never fall back to wall-clock seeding.
"""

from dataclasses import dataclass

from ..adversary import AttackKind, AttackSpec, BasisPolicy
from ..channel import ChannelSpec, LinkBudget
from ..protocol import ProtocolKind, SessionConfig
from .scenario import Scenario, parse_p_grid


class ConfigError(ValueError):
    """A config problem, naming the file line or the flag it came from."""

    def __init__(self, message: str, lineno: int | None = None, flag: str | None = None):
        self.lineno = lineno
        where = f"line {lineno}" if lineno is not None else flag
        super().__init__(f"{where}: {message}" if where else message)


def _word(error: str, table: dict):
    """A cast that maps a stripped, lower-cased word through ``table``."""
    def cast(text: str):
        try:
            return table[text.strip().lower()]
        except KeyError:
            raise ValueError(f"{error}: {text!r}") from None
    return cast


def _spellings(enum, **aliases) -> dict:
    return {member.value: member for member in enum} | aliases


_SCHEMA = {
    "scenario": {
        "name": str,
        "seed": int,
        "out_dir": str,
        "n_points": int,
        "d_pd_cm": float,
    },
    "session": {
        "protocol": _word("unknown protocol kind", _spellings(
            ProtocolKind, pingpong=ProtocolKind.PING_PONG, ping_pong=ProtocolKind.PING_PONG,
            mcas_bb84=ProtocolKind.MCAS_BB84)),
        "n_rounds": int,
        "cm_fraction": float,
        "enforce_cm_threshold": _word("not a boolean", {
            **dict.fromkeys(("true", "yes", "1", "on"), True),
            **dict.fromkeys(("false", "no", "0", "off"), False)}),
    },
    "channel": {
        "transmittance_per_leg": float,
        "flip_prob": float,
        "alpha_db_per_km": float,
        "distance_km": float,
    },
    "attack": {
        "kind": _word("unknown attack kind", _spellings(
            AttackKind, no_attack=AttackKind.NO_ATTACK, ir=AttackKind.INTERCEPT_RESEND,
            mitm_pingpong=AttackKind.MITM_PING_PONG)),
        "presence": float,
        "basis_policy": _word("unknown basis policy", _spellings(BasisPolicy)),
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
    value: object  # cast, and set on a file line or by a flag
    lineno: int | None = None
    flag: str | None = None


def _entry(section: str, key: str, text: str, lineno=None, flag=None) -> _Entry:
    try:
        value = _SCHEMA[section][key](text.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", lineno, flag) from None
    return _Entry(value, lineno, flag)


def _read_entries(path: str) -> dict:
    entries: dict[tuple[str, str], _Entry] = {}
    section = None
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # one UTF-8 byte-order mark
    # bytes.splitlines breaks lines where text-mode reading would.
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(str(exc), lineno) from None
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
        entries[(section, key)] = _entry(section, key, raw_value, lineno)
    return entries


def parse_config(path: str | None, flags: dict | None = None) -> Scenario:
    """Parse a scenario config file and command-line flags into a Scenario.

    ``flags`` maps `section.key` to the flag that set it and the flag's
    text; a flag replaces the file's key, and ``path`` None reads flags
    alone.  Each key set is passed under its own name to the constructor
    that reads it (Scenario, SessionConfig, ChannelSpec, AttackSpec or
    LinkBudget), so defaults and range checks live only there.  A
    constructor's ValueError starts with the field name, which maps back
    to the key's line or flag.  A key the scenario does not read is
    rejected, so every value set is checked.
    """
    entries = {} if path is None else _read_entries(path)
    for dotted, (flag, text) in (flags or {}).items():
        section, _, key = dotted.partition(".")
        entries[(section, key)] = _entry(section, key, text, flag=flag)
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
                channel=ChannelSpec(**take("channel", "transmittance_per_leg", "flip_prob")),
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
        read = {key: entry for (section, key), entry in entries.items()
                if (section, key) not in unread}
        entry = read.get(field, _Entry(None))
        raise ConfigError(str(exc), entry.lineno, entry.flag) from None
    if unread:
        (section, key), entry = next(iter(unread.items()))
        raise ConfigError(f"key {key!r} in section [{section}] is not read by a "
                          f"{name} scenario", entry.lineno, entry.flag)
    return scenario
