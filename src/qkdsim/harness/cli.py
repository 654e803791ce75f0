"""Command line interface.

Subcommands: `run <config>` executes a scenario file (flags override its
keys), `curves <label>` emits one of the bundled curve sets, `sweep`
runs a presence sweep from flags alone, and `selftest` runs the
acceptance suite.  Exit codes: 0 success, 1 usage or config error,
2 when a session scenario aborted.  The argument parser is built on the
first call of :func:`main` and shared by every later call in the
process: parsing leaves no state in it.
"""

import argparse
import dataclasses
import functools
import sys

from ..adversary import AttackKind, AttackSpec, BasisPolicy
from ..channel import ChannelSpec
from ..infotheory import DEFAULT_D_PD_CM
from ..kinds import ProtocolKind
from ..protocol import DEFAULT_N_ROUNDS, SessionConfig
from .config import ConfigError, parse_config
from .scenario import Scenario, parse_p_grid, run_scenario
from .selftest import run_selftest


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qkdsim", description="Command line interface.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config file")
    run_p.add_argument("config", help="path to a scenario config")
    run_p.add_argument("--out", help="override the output directory")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")

    curves_p = sub.add_parser("curves", help="emit a bundled curve set")
    curves_p.add_argument("label", choices=["fig2a", "fig2b", "fig2c"])
    curves_p.add_argument("--out", default="out", help="output directory")
    curves_p.add_argument("--points", type=int, default=201)
    curves_p.add_argument("--d-pd-cm", type=float, default=DEFAULT_D_PD_CM,
                          help="control threshold for the truncated curve")
    curves_p.add_argument("--seed", type=int, default=0,
                          help="scenario seed (curves are seed-free analytics)")

    sweep_p = sub.add_parser("sweep", help="sweep attack presence against a protocol")
    sweep_p.add_argument("--protocol", required=True)
    sweep_p.add_argument("--attack", required=True)
    sweep_p.add_argument("--p-grid", required=True, metavar="A:B:N")
    sweep_p.add_argument("--rounds", type=int, default=DEFAULT_N_ROUNDS)
    sweep_p.add_argument("--cm-fraction", type=float, default=0.2)
    sweep_p.add_argument("--seed", type=int, default=None, required=False)
    sweep_p.add_argument("--out", default="out")
    sweep_p.add_argument("--transmittance", type=float, default=1.0)
    sweep_p.add_argument("--flip-prob", type=float, default=0.0)
    sweep_p.add_argument("--basis-policy", default="random")
    sweep_p.add_argument("--threshold", action="store_true",
                         help="enable the control-mode abort threshold")
    sweep_p.add_argument("--d-pd-cm", type=float, default=DEFAULT_D_PD_CM)

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


def _cmd_run(args) -> int:
    scenario = parse_config(args.config)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        if scenario.session is not None and "seed" in overrides:
            overrides["session"] = dataclasses.replace(scenario.session,
                                                       seed=overrides["seed"])
        scenario = dataclasses.replace(scenario, **overrides)
    result = run_scenario(scenario)
    for path in result.paths:
        print(path)
    return 2 if result.session_aborted else 0


def _cmd_curves(args) -> int:
    scenario = Scenario(args.label, seed=args.seed, out_dir=args.out,
                        n_points=args.points, d_pd_cm=args.d_pd_cm)
    result = run_scenario(scenario)
    for path in result.paths:
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    if args.seed is None:
        raise ConfigError("a --seed is required (no wall-clock seeding)")
    session = SessionConfig(
        protocol=ProtocolKind.from_string(args.protocol),
        n_rounds=args.rounds,
        seed=args.seed,
        cm_fraction=args.cm_fraction,
        channel=ChannelSpec(args.transmittance, args.flip_prob),
        attack=AttackSpec(AttackKind.from_string(args.attack),
                          basis_policy=BasisPolicy.from_string(args.basis_policy)),
        d_pd_cm=args.d_pd_cm,
        enforce_cm_threshold=args.threshold,
    )
    scenario = Scenario("sweep", seed=args.seed, out_dir=args.out, session=session,
                        p_values=parse_p_grid(args.p_grid))
    result = run_scenario(scenario)
    for path in result.paths:
        print(path)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "curves":
            return _cmd_curves(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return run_selftest()
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
