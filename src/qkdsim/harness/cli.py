"""Command line interface: `qkdsim <command> [<argument>] [flags]`.

`_COMMANDS` gives each command's argument and flags, `_FLAGS` the config
key each flag sets, which :func:`parse_config` checks as a file's: no
default lives here but the seed 0 of `curves`.  Flags take full names,
as `--flag value` or `--flag=value`, and `-h` prints the usage.  Exit
codes: 0 success, 1 usage or config error, 2 when a session aborted.
"""

import sys

from ..infotheory import CURVE_LABELS
from .config import parse_config
from .scenario import run_scenario

# flag: the config key it sets
_FLAGS = {
    "--out": "scenario.out_dir",
    "--seed": "scenario.seed",
    "--points": "scenario.n_points",
    "--d-pd-cm": "scenario.d_pd_cm",
    "--protocol": "session.protocol",
    "--cm-fraction": "session.cm_fraction",
    "--threshold": "session.enforce_cm_threshold",
    "--transmittance": "channel.transmittance_per_leg",
    "--flip-prob": "channel.flip_prob",
    "--attack": "attack.kind",
    "--basis-policy": "attack.basis_policy",
    "--p-grid": "sweep.p_grid",
    "--rounds": "sweep.n_rounds",
}
_SWITCH = "--threshold"  # the one flag that takes no value: it sets its key to true
# command: (its positional argument, the flags it requires, the other flags it takes)
_COMMANDS = {
    "run": ("config", (), ("--out", "--seed")),
    "curves": ("label", (), ("--out", "--points", "--d-pd-cm", "--seed")),
    "sweep": (None, ("--protocol", "--attack", "--p-grid", "--seed"),
              ("--rounds", "--cm-fraction", "--out", "--transmittance", "--flip-prob",
               "--basis-policy", _SWITCH, "--d-pd-cm")),
    "selftest": (None, (), ()),
}


class _UsageError(Exception):
    pass


def _usage() -> str:
    """Each command's usage, optional flags bracketed, then the key each flag sets."""
    usage = [" ".join(["  qkdsim", command, *([f"<{positional}>"] if positional else []),
                       *required, *(f"[{flag}]" for flag in optional)])
             for command, (positional, required, optional) in _COMMANDS.items()]
    return "\n".join(["usage:", *usage, f"<label> is one of {', '.join(CURVE_LABELS)}. Each flag "
                      f"but {_SWITCH} takes a value; flags set these config keys:",
                      *(f"  {flag:<16} {key}" for flag, key in _FLAGS.items())])


def _parse(argv: list[str]) -> tuple:
    """(command, argument, {key: (flag, text)} in `_FLAGS` order); command None is help."""
    words = iter(argv)
    command = next(words, "")
    if command in ("-h", "--help"):
        return None, None, {}
    if command not in _COMMANDS:
        raise _UsageError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    positional, required, optional = _COMMANDS[command]
    takes = required + optional
    argument, given, unknown = None, {"--seed": "0"} if command == "curves" else {}, []
    for word in words:
        if word in ("-h", "--help"):
            return None, None, {}
        flag, eq, text = word.partition("=")
        if word == _SWITCH and word in takes:
            given[word] = "true"
        elif flag in takes and flag != _SWITCH:
            given[flag] = text if eq else next(words, None)
            if given[flag] is None:
                raise _UsageError(f"argument {flag}: expected one argument")
        elif positional and argument is None and not word.startswith("-"):
            argument = word
        else:
            unknown.append(word)
    missing = [positional] if positional and argument is None else []
    missing += [flag for flag in required if flag not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if command == "curves" and argument not in CURVE_LABELS:
        raise _UsageError(f"expected a label ({', '.join(CURVE_LABELS)}), got {argument!r}")
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, argument, {key: (flag, given[flag]) for flag, key in _FLAGS.items()
                               if flag in given}


def main(argv=None) -> int:
    try:
        command, argument, flags = _parse(sys.argv[1:] if argv is None else argv)
        if command is None:
            print(_usage())
            return 0
        if command == "selftest":  # imported here: no other command loads the suite
            from .selftest import run_selftest
            return run_selftest()
        name = {} if command == "run" else {"scenario.name": (command, argument or "sweep")}
        result = run_scenario(parse_config(argument if command == "run" else None, name | flags))
        sys.stdout.writelines(f"{path}\n" for path in result.paths)
        return 2 if result.session_aborted else 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
