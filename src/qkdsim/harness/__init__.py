"""Scenario configs, report emission and the acceptance selftest."""

from .config import ConfigError, parse_config
from .scenario import (
    Scenario,
    ScenarioResult,
    bits_to_hex,
    child_seed,
    curve_svg,
    parse_p_grid,
    run_scenario,
)
from .selftest import CHECKS, run_selftest

__all__ = [
    "CHECKS",
    "ConfigError",
    "Scenario",
    "ScenarioResult",
    "bits_to_hex",
    "child_seed",
    "curve_svg",
    "parse_config",
    "parse_p_grid",
    "run_scenario",
    "run_selftest",
]
