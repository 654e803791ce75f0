"""Command line interface.

Subcommands: `run <config>` executes a scenario file, `curves <label>`
emits a bundled curve set, `sweep` runs a presence sweep from flags
alone and `selftest` runs the acceptance suite.  Each flag sets one
config key (`_FLAGS`) that :func:`parse_config` checks as a file's, so
no default lives here but the seed 0 of `curves`.  Exit codes: 0
success, 1 usage or config error, 2 when a session scenario aborted.
The argument parser is built once per process and keeps no state.
"""

import argparse
import functools
import sys

from ..infotheory import CURVE_LABELS
from .config import parse_config
from .scenario import run_scenario
from .selftest import run_selftest

# flag: (the config key it sets, extra add_argument options)
_FLAGS = {
    "--out": ("scenario.out_dir", {}),
    "--seed": ("scenario.seed", {}),
    "--points": ("scenario.n_points", {}),
    "--d-pd-cm": ("scenario.d_pd_cm", {}),
    "--protocol": ("session.protocol", {}),
    "--cm-fraction": ("session.cm_fraction", {}),
    "--threshold": ("session.enforce_cm_threshold", {"action": "store_const", "const": "true"}),
    "--transmittance": ("channel.transmittance_per_leg", {}),
    "--flip-prob": ("channel.flip_prob", {}),
    "--attack": ("attack.kind", {}),
    "--basis-policy": ("attack.basis_policy", {}),
    "--p-grid": ("sweep.p_grid", {"metavar": "A:B:N"}),
    "--rounds": ("sweep.n_rounds", {}),
}


_VALUE_FLAGS = frozenset(flag for flag, (_, options) in _FLAGS.items() if "action" not in options)


def _join_values(argv: list[str]) -> list[str]:
    """Each value flag and its value as one `--flag=value` argument, so that
    argparse takes a value that starts with `-` (say `-1e-3`) as the value
    and the config checks, not the parser, judge it."""
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in _VALUE_FLAGS else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # full flag names only, the ones `_join_values` joins
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _add_flags(parser, *flags, required=()):
    for flag in flags:
        key, options = _FLAGS[flag]
        parser.add_argument(flag, dest=key, required=flag in required,
                            help=f"sets {key}", **options)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qkdsim", description="Command line interface.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config file")
    run_p.add_argument("config", help="path to a scenario config")
    _add_flags(run_p, "--out", "--seed")

    curves_p = sub.add_parser("curves", help="emit a bundled curve set")
    curves_p.add_argument("label", choices=CURVE_LABELS)
    _add_flags(curves_p, "--out", "--points", "--d-pd-cm", "--seed")
    curves_p.set_defaults(**{"scenario.seed": "0"})  # curves are seed-free analytics

    sweep_p = sub.add_parser("sweep", help="sweep attack presence against a protocol")
    sweep_flags = ("--protocol", "--attack", "--p-grid", "--seed")
    _add_flags(sweep_p, *sweep_flags, "--rounds", "--cm-fraction", "--out",
               "--transmittance", "--flip-prob", "--basis-policy", "--threshold",
               "--d-pd-cm", required=sweep_flags)

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


def _cmd_scenario(args) -> int:
    flags = {key: (flag, text) for flag, (key, _) in _FLAGS.items()
             if (text := getattr(args, key, None)) is not None}
    if args.command == "run":
        scenario = parse_config(args.config, flags)
    else:
        name = args.label if args.command == "curves" else "sweep"
        scenario = parse_config(None, {"scenario.name": (args.command, name), **flags})
    result = run_scenario(scenario)
    for path in result.paths:
        print(path)
    return 2 if result.session_aborted else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
        if args.command == "selftest":
            return run_selftest()
        return _cmd_scenario(args)
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
