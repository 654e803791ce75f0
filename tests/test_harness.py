"""Tests for config parsing, scenario reports and the CLI."""

import csv
import filecmp
import io
import os
import random
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qkdsim
from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec, LinkBudget, leg_transmittance
from qkdsim.harness.cli import _FLAGS, main
from qkdsim.harness.config import ConfigError, parse_config
from qkdsim.harness.scenario import (
    MAX_GRID_POINTS,
    Scenario,
    ScenarioResult,
    _fmt,
    _write_rows,
    bits_to_hex,
    child_seed,
    parse_p_grid,
    run_scenario,
)
from qkdsim.harness.selftest import _PAPER_LEGS, Check, CheckResult
from qkdsim.infotheory import DEFAULT_D_PD_CM, critical_disturbance
from qkdsim.postproc import MAX_HASH_INPUT_BITS
from qkdsim.protocol import (
    MAX_N_ROUNDS,
    PROTOCOLS,
    ProtocolKind,
    SessionConfig,
    abort_threshold,
    leaked_fraction,
    monitored_rate,
    run_session,
    transcript_csv,
)


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_minimal_curve_config(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = fig2a\nseed = 1\n")
        sc = parse_config(path)
        assert sc.name == "fig2a" and sc.seed == 1 and sc.n_points == 201

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = write_config(tmp_path,
                            "[scenario]\nname = fig2a\nseed = 1\nbogus = 3\n")
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[nonsense]\nname = fig2a\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_out_of_range_value_line_numbered(self, tmp_path):
        path = write_config(tmp_path, "\n".join([
            "[scenario]", "name = session", "seed = 1",
            "[session]", "protocol = lm05", "cm_fraction = 1.2", "",
        ]))
        with pytest.raises(ConfigError, match="line 6"):
            parse_config(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = fig2a\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)

    def test_assignment_without_section(self, tmp_path):
        path = write_config(tmp_path, "name = fig2a\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nname = fig2a\nname = fig2b\nseed = 1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_session_config_roundtrip(self, tmp_path):
        path = write_config(tmp_path, "\n".join([
            "[scenario]", "name = session", "seed = 9", "out_dir = reports",
            "[session]", "protocol = lm05", "n_rounds = 500",
            "[attack]", "kind = mitm_lm05", "presence = 1.0", "",
        ]))
        sc = parse_config(path)
        assert sc.session.protocol is ProtocolKind.LM05
        assert sc.session.n_rounds == 500
        assert sc.session.attack.kind is AttackKind.MITM_LM05
        assert sc.session.seed == 9

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """One leading UTF-8 byte-order mark is not part of line 1; a second is."""
        text = "[scenario]\nname = session\nseed = 9\n[session]\nprotocol = lm05\n"
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_config(str(marked)) == parse_config(write_config(tmp_path, text))
        marked.write_bytes(b"\xef\xbb\xbf" * 2 + text.encode())
        with pytest.raises(ConfigError, match="^line 1: expected `key = value`"):
            parse_config(str(marked))

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path,
                            "# a comment\n\n[scenario]\nname = fig2b\nseed = 2\n")
        assert parse_config(path).name == "fig2b"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, newline):
        out = tmp_path / "out"
        path = tmp_path / "bad.cfg"
        path.write_bytes(newline.join([b"[scenario]", b"name = fig2a", b"seed = 1",
                                       f"out_dir = {out}".encode(), b"\xff", b""]))
        with pytest.raises(ConfigError, match="^line 5: 'utf-8' codec can't decode") as info:
            parse_config(str(path))
        assert info.value.lineno == 5
        assert main(["run", str(path)]) == 1
        assert not out.exists()


# Smallest files each scenario accepts; tests append one `key = value`.
_BASE = {
    "fig2a": {"scenario": {"name": "fig2a", "seed": "1"}},
    "table1": {"scenario": {"name": "table1", "seed": "1"}},
    "session": {"scenario": {"name": "session", "seed": "1"},
                "session": {"protocol": "lm05"}},
    "sweep": {"scenario": {"name": "sweep", "seed": "1"}, "session": {"protocol": "lm05"},
              "sweep": {"p_grid": "0:1:2"}},
}


def config_with(tmp_path, name, section, key, value):
    """A base config plus one key; returns its path and that key's line number."""
    sections = {sec: dict(keys) for sec, keys in _BASE[name].items()}
    sections["scenario"]["out_dir"] = str(tmp_path / "out")
    sections.setdefault(section, {})[key] = value
    lines, lineno = [], None
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        for k, v in keys.items():
            lines.append(f"{k} = {v}")
            if (sec, k) == (section, key):
                lineno = len(lines)
    return write_config(tmp_path, "\n".join(lines) + "\n"), lineno


class TestOneValidationPath:
    """Every bad value is rejected by its dataclass, with the key's line."""

    @pytest.mark.parametrize("name, section, key, value", [
        ("fig2a", "scenario", "seed", "-3"),
        ("fig2a", "scenario", "seed", str(2 ** 64)),
        ("fig2a", "scenario", "n_points", "1"),
        ("fig2a", "scenario", "d_pd_cm", "0.5"),
        ("fig2a", "scenario", "name", "fig9"),
        ("fig2a", "scenario", "out_dir", "a\0b"),  # mkdir would fail with no line
        ("table1", "session", "n_rounds", "0"),
        ("table1", "channel", "alpha_db_per_km", "-1"),
        ("table1", "channel", "distance_km", "inf"),
        ("table1", "channel", "alpha_db_per_km", "nan"),
        ("session", "session", "n_rounds", "0"),
        ("session", "session", "cm_fraction", "1.0"),
        ("session", "channel", "transmittance_per_leg", "1.5"),
        ("session", "channel", "flip_prob", "0.6"),
        ("session", "attack", "presence", "1.1"),
        ("session", "attack", "kind", "mitm_pp"),
        ("session", "attack", "f0", "0.4"),
        ("session", "attack", "f_plus", "nan"),
        ("session", "scenario", "d_pd_cm", "0"),
        ("sweep", "sweep", "n_rounds", "0"),
        ("sweep", "sweep", "p_grid", "0:2:3"),
        ("sweep", "attack", "kind", "mitm_pp"),
        ("sweep", "scenario", "seed", "-1"),
        # Sizes that cannot run: none of these is ever started.
        ("fig2a", "scenario", "n_points", str(MAX_GRID_POINTS + 1)),
        ("fig2a", "scenario", "n_points", "100000000000"),
        ("table1", "session", "n_rounds", "100000000000000"),
        ("session", "session", "n_rounds", str(MAX_N_ROUNDS + 1)),
        ("sweep", "sweep", "n_rounds", "100000000000000"),
        ("sweep", "sweep", "p_grid", f"0:1:{MAX_GRID_POINTS + 1}"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, name, section, key, value):
        path, lineno = config_with(tmp_path, name, section, key, value)
        with pytest.raises(ConfigError, match=f"^line {lineno}: .*{key}"):
            parse_config(path)
        assert main(["run", path]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["session", "sweep"])
    def test_legs_is_an_unknown_key(self, tmp_path, name):
        """The leg count is the protocol's, not a channel key."""
        path, lineno = config_with(tmp_path, name, "channel", "legs", "3")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == f"line {lineno}: unknown key 'legs' in section [channel]"
        assert main(["run", path]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, section, key, value", [
        ("fig2a", "session", "n_rounds", "300"),
        ("fig2a", "channel", "flip_prob", "0.1"),
        ("table1", "scenario", "n_points", "5"),
        ("table1", "channel", "flip_prob", "0.1"),
        ("session", "scenario", "n_points", "5"),
        ("session", "sweep", "n_rounds", "300"),
        ("session", "channel", "distance_km", "10"),
        ("sweep", "session", "n_rounds", "300"),
        ("sweep", "attack", "presence", "0.5"),
    ])
    def test_unread_key_rejected(self, tmp_path, name, section, key, value):
        path, lineno = config_with(tmp_path, name, section, key, value)
        with pytest.raises(ConfigError, match=f"^line {lineno}: key '{key}' .* not read"):
            parse_config(path)
        assert main(["run", path]) == 1
        assert not (tmp_path / "out").exists()

    def test_sweep_template(self, tmp_path):
        """A sweep reads [sweep] n_rounds and takes its presence from the grid."""
        path, _ = config_with(tmp_path, "sweep", "sweep", "n_rounds", "300")
        sc = parse_config(path)
        assert sc.session.n_rounds == 300 and sc.p_values == (0.0, 1.0)
        configs = sc.sweep_configs
        assert [c.attack.presence for c in configs] == [0.0, 1.0]
        assert [c.seed for c in configs] == [child_seed(1, 0), child_seed(1, 1)]

    def test_sweep_builds_its_sessions_once(self, tmp_path, monkeypatch):
        """The configs validated at construction are the ones the sweep runs."""
        from qkdsim.harness import scenario as scenario_module

        session = SessionConfig(protocol=ProtocolKind.LM05, seed=1, n_rounds=200)
        sc = Scenario("sweep", seed=1, out_dir=str(tmp_path), session=session,
                      p_values=(0.0, 0.5, 1.0))
        configs = sc.sweep_configs
        assert sc.sweep_configs is configs
        ran = []
        real = scenario_module.run_session
        monkeypatch.setattr(scenario_module, "run_session",
                            lambda cfg: ran.append(cfg) or real(cfg))
        run_scenario(sc)
        assert len(ran) == 3 and all(a is b for a, b in zip(ran, configs))

    def test_scenario_checks_grid_points(self):
        session = SessionConfig(protocol=ProtocolKind.LM05, seed=1)
        with pytest.raises(ValueError, match="^presence"):
            Scenario("sweep", seed=1, session=session, p_values=(0.5, 1.5))
        with pytest.raises(ValueError, match="^p_values"):
            Scenario("sweep", seed=1, session=session)

    def test_sweep_grid_is_capped(self):
        """A sweep built directly obeys the cap that parse_p_grid applies."""
        session = SessionConfig(protocol=ProtocolKind.LM05, seed=1)
        with pytest.raises(ValueError, match=f"^p_values: .*got {MAX_GRID_POINTS + 1}$"):
            Scenario("sweep", seed=1, session=session,
                     p_values=(0.5,) * (MAX_GRID_POINTS + 1))

    def test_session_scenarios_take_no_threshold_of_their_own(self, tmp_path):
        """session and sweep read session.d_pd_cm; a Scenario.d_pd_cm would be ignored."""
        session = SessionConfig(protocol=ProtocolKind.MCAS_BB84, seed=3, n_rounds=2000,
                                attack=AttackSpec(AttackKind.MITM_MCAS_X, 0.2))
        for d_pd_cm in (0.05, 0.3):
            with pytest.raises(ValueError, match="^d_pd_cm"):
                Scenario("session", seed=3, session=session, d_pd_cm=d_pd_cm)
            with pytest.raises(ValueError, match="^d_pd_cm"):
                Scenario("sweep", seed=3, session=session, p_values=(0.2,), d_pd_cm=d_pd_cm)
        for name in ("fig2c", "table1"):
            assert Scenario(name, seed=3).cm_threshold == DEFAULT_D_PD_CM
            assert Scenario(name, seed=3, d_pd_cm=0.3).cm_threshold == 0.3
            with pytest.raises(ValueError, match="^d_pd_cm"):
                Scenario(name, seed=3, d_pd_cm=0.5)
        # The threshold still reaches a config-file session through its SessionConfig.
        path, _ = config_with(tmp_path, "session", "scenario", "d_pd_cm", "0.3")
        sc = parse_config(path)
        assert sc.d_pd_cm is None and sc.session.d_pd_cm == 0.3

    @pytest.mark.parametrize("argv", [
        ["sweep", "--protocol", "lm05", "--attack", "mitm_lm05", "--p-grid", "0:1:2",
         "--rounds", "100", "--seed", "-1"],
        ["sweep", "--protocol", "pp", "--attack", "intercept_resend", "--p-grid", "0:1:2",
         "--rounds", "100", "--seed", "1"],
        ["sweep", "--protocol", "lm05", "--attack", "mitm_lm05", "--p-grid", "0:1:3",
         "--rounds", "100000000000000", "--seed", "1"],
        ["sweep", "--protocol", "lm05", "--attack", "mitm_lm05",
         "--p-grid", "0:1:100000000000", "--rounds", "100", "--seed", "1"],
        ["curves", "fig2a", "--points", "100000000000"],
    ])
    def test_bad_sweep_flags_leave_no_output(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: --")
        assert not (tmp_path / "out").exists()

    def test_size_bounds(self):
        """The largest sizes construct, one more is rejected; nothing runs."""
        assert MAX_N_ROUNDS <= MAX_HASH_INPUT_BITS  # every sifted key is hashable
        SessionConfig(protocol=ProtocolKind.LM05, seed=1, n_rounds=MAX_N_ROUNDS)
        Scenario("table1", seed=1, n_rounds=MAX_N_ROUNDS)
        Scenario("fig2a", seed=1, n_points=MAX_GRID_POINTS)
        with pytest.raises(ValueError, match="^n_rounds"):
            SessionConfig(protocol=ProtocolKind.LM05, seed=1, n_rounds=MAX_N_ROUNDS + 1)
        with pytest.raises(ValueError, match="^n_rounds"):
            Scenario("table1", seed=1, n_rounds=MAX_N_ROUNDS + 1)
        with pytest.raises(ValueError, match="^n_points"):
            Scenario("fig2a", seed=1, n_points=MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match="p-grid"):
            parse_p_grid(f"0:1:{MAX_GRID_POINTS + 1}")

    @pytest.mark.parametrize("name", ["fig2a", "table1", "session", "sweep"])
    def test_negative_seed_override(self, tmp_path, name):
        path, _ = config_with(tmp_path, name, "scenario", "seed", "1")
        assert main(["run", path, "--seed", "-3"]) == 1
        assert not (tmp_path / "out").exists()


# The smallest sweep and curves command lines, and the files that say the same.
_SWEEP_ARGV = ["sweep", "--protocol", "lm05", "--attack", "none", "--p-grid", "0:1:3",
               "--seed", "5"]
_SWEEP_FILE = {"scenario": {"name": "sweep", "seed": "5"}, "session": {"protocol": "lm05"},
               "attack": {"kind": "none"}, "sweep": {"p_grid": "0:1:3"}}
_CURVES_ARGV = ["curves", "fig2b"]
_CURVES_FILE = {"scenario": {"name": "fig2b", "seed": "0"}}

# (command, flag, a value other than the base one, the key the flag sets)
_FLAG_CASES = [
    ("sweep", "--protocol", "pp", "session.protocol"),
    ("sweep", "--attack", "mitm_lm05", "attack.kind"),
    ("sweep", "--p-grid", "0.1:0.9:4", "sweep.p_grid"),
    ("sweep", "--seed", "99", "scenario.seed"),
    ("sweep", "--rounds", "321", "sweep.n_rounds"),
    ("sweep", "--cm-fraction", "0.35", "session.cm_fraction"),
    ("sweep", "--out", "elsewhere", "scenario.out_dir"),
    ("sweep", "--transmittance", "0.8", "channel.transmittance_per_leg"),
    ("sweep", "--flip-prob", "0.03", "channel.flip_prob"),
    ("sweep", "--basis-policy", "fixed_z", "attack.basis_policy"),
    ("sweep", "--threshold", None, "session.enforce_cm_threshold"),
    ("sweep", "--d-pd-cm", "0.3", "scenario.d_pd_cm"),
    ("curves", "label", "fig2c", "scenario.name"),
    ("curves", "--out", "elsewhere", "scenario.out_dir"),
    ("curves", "--points", "17", "scenario.n_points"),
    ("curves", "--d-pd-cm", "0.3", "scenario.d_pd_cm"),
    ("curves", "--seed", "4", "scenario.seed"),
]

# (command, flag, a value its key rejects)
_BAD_FLAGS = [
    ("sweep", "--protocol", "qkd"),
    ("sweep", "--attack", "laser"),
    ("sweep", "--attack", "mitm_pp"),  # does not apply to lm05
    ("sweep", "--p-grid", "0:2:3"),
    ("sweep", "--p-grid", "0:1"),
    ("sweep", "--seed", "-1"),
    ("sweep", "--seed", str(2 ** 64)),
    ("sweep", "--rounds", "0"),
    ("sweep", "--rounds", "x"),
    ("sweep", "--cm-fraction", "1"),
    ("sweep", "--transmittance", "1.5"),
    ("sweep", "--flip-prob", "0.6"),
    ("sweep", "--basis-policy", "diag"),
    ("sweep", "--d-pd-cm", "0.5"),
    ("curves", "--points", "1"),
    ("curves", "--points", "x"),
    ("curves", "--d-pd-cm", "0"),
    ("curves", "--seed", "-1"),
    ("run", "--seed", "-3"),
    ("run", "--seed", "1.5"),
]
# Values that start with `-` and that argparse does not read as numbers:
# (command, flag, value, the config check's message).
_NEGATIVE_FLAGS = [
    ("sweep", "--flip-prob", "-1e-3", "flip_prob out of [0, 0.5]: -0.001"),
    ("sweep", "--transmittance", "-5e-1", "transmittance_per_leg out of [0, 1]: -0.5"),
    ("sweep", "--cm-fraction", "-1e-2", "cm_fraction out of [0, 1): -0.01"),
    ("sweep", "--d-pd-cm", "-1e-3", "d_pd_cm out of (0, 0.5): -0.001"),
    ("sweep", "--p-grid", "-1:1:5", "bad value for 'p_grid': presence out of [0, 1]: -1.0"),
    ("sweep", "--rounds", "-5", f"n_rounds out of [1, {MAX_N_ROUNDS}]: -5"),
    ("sweep", "--protocol", "-lm05",
     "bad value for 'protocol': unknown protocol kind: '-lm05'"),
    ("curves", "--points", "-3", f"n_points out of [2, {MAX_GRID_POINTS}]: -3"),
    ("curves", "--d-pd-cm", "-0.1e0", "d_pd_cm out of (0, 0.5): -0.1"),
    ("run", "--seed", "-3", "seed must be a 64-bit integer, got -3"),
]


def _scenario_of(monkeypatch, argv):
    """The Scenario main() builds from argv, without running it."""
    built = []
    monkeypatch.setattr("qkdsim.harness.cli.run_scenario",
                        lambda sc: built.append(sc) or ScenarioResult())
    assert main(argv) == 0
    return built[0]


def _file(tmp_path, sections) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return write_config(tmp_path, "\n".join(lines) + "\n")


class TestFlagsAreConfigEntries:
    """Each flag sets one config key, and parse_config checks it as a file's."""

    def test_cases_cover_every_flag(self):
        assert {flag for _, flag, _, _ in _FLAG_CASES} - {"label"} == set(_FLAGS)
        assert {(flag, key) for _, flag, _, key in _FLAG_CASES if flag in _FLAGS} == {
            (flag, key) for flag, key in _FLAGS.items()}

    @pytest.mark.parametrize("command, flag, value, key", _FLAG_CASES)
    def test_flag_builds_the_scenario_of_its_key(self, tmp_path, monkeypatch,
                                                 command, flag, value, key):
        argv, sections = ((_SWEEP_ARGV, _SWEEP_FILE) if command == "sweep"
                          else (_CURVES_ARGV, _CURVES_FILE))
        argv = argv + ["--out", str(tmp_path / "out")]
        sections = {sec: dict(keys) for sec, keys in sections.items()}
        sections["scenario"]["out_dir"] = str(tmp_path / "out")
        section, _, name = key.partition(".")
        sections.setdefault(section, {})[name] = "true" if value is None else value
        if flag == "label":
            argv[1] = value
        else:
            argv += [flag] if value is None else [flag, value]
        from_flags = _scenario_of(monkeypatch, argv)
        assert from_flags == parse_config(_file(tmp_path, sections))
        base = _scenario_of(monkeypatch, (_SWEEP_ARGV if command == "sweep"
                                          else _CURVES_ARGV) + ["--out", str(tmp_path / "out")])
        assert from_flags != base  # the flag took effect

    @pytest.mark.parametrize("command, flag, value", _BAD_FLAGS)
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", _file(tmp_path, {"scenario": {"name": "fig2a", "seed": "1"}})]
        else:
            argv = list(_SWEEP_ARGV if command == "sweep" else _CURVES_ARGV)
        assert main(argv + [flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", _NEGATIVE_FLAGS)
    def test_negative_flag_value_reaches_the_config_check(self, tmp_path, capsys,
                                                          command, flag, value, message):
        """`--flag -1e-3` is the flag's value, not an unknown option."""
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", _file(tmp_path, {"scenario": {"name": "fig2a", "seed": "1"}})]
        else:
            argv = list(_SWEEP_ARGV if command == "sweep" else _CURVES_ARGV)
        assert main(argv + [flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {flag}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("sweep", "--flip", "-1e-3"),
        ("sweep", "--flip", "0.01"),
        ("sweep", "--trans", "0.5"),
        ("sweep", "--cm", "0.1"),
        ("sweep", "--round", "100"),
        ("sweep", "--d-pd", "0.1"),
        ("sweep", "--thr", None),
        ("curves", "--point", "5"),
        ("run", "--se", "3"),
    ])
    def test_abbreviated_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        """Flags are taken by their full names only."""
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", _file(tmp_path, {"scenario": {"name": "fig2a", "seed": "1"}})]
        else:
            argv = list(_SWEEP_ARGV if command == "sweep" else _CURVES_ARGV)
        argv += [flag] if value is None else [flag, value]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: ")
        assert not out.exists()

    def test_run_flags_replace_the_file_keys(self, tmp_path):
        path, _ = config_with(tmp_path, "session", "session", "n_rounds", "200")
        flags = {"scenario.seed": ("--seed", "9"), "scenario.out_dir": ("--out", "elsewhere")}
        sc = parse_config(path, flags)
        assert sc.seed == sc.session.seed == 9 and sc.out_dir == "elsewhere"
        assert sc == replace(parse_config(path), seed=9, out_dir="elsewhere",
                             session=replace(parse_config(path).session, seed=9))

    def test_run_seed_supplies_a_missing_seed(self, tmp_path):
        out = tmp_path / "out"
        path = _file(tmp_path, {"scenario": {"name": "fig2a", "out_dir": str(out)}})
        assert main(["run", path]) == 1
        assert main(["run", path, "--seed", "3"]) == 0
        assert (out / "fig2a.csv").exists()

    def test_file_errors_keep_their_line(self, tmp_path, capsys):
        path, lineno = config_with(tmp_path, "session", "session", "n_rounds", "0")
        assert main(["run", path, "--seed", "2"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: line {lineno}: n_rounds")


class TestPGrid:
    def test_basic(self):
        assert parse_p_grid("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_single_point(self):
        assert parse_p_grid("0.5:0.9:1") == (0.5,)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_p_grid("0:1")
        with pytest.raises(ValueError):
            parse_p_grid("0:2:3")


def hex_oracle(text):
    """`<bitlen>:<hex>` of a '0'/'1' string, as the reports have always spelled it."""
    n = len(text)
    return f"{n}:{int(text, 2):0{(n + 3) // 4}x}" if n else "0:"


def bit_array(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


class TestHexSerialization:
    def test_round_trip(self):
        assert bits_to_hex(bit_array("1010")) == "4:a"
        assert bits_to_hex(bit_array("00001")) == "5:01"
        assert bits_to_hex(bit_array("")) == "0:"

    def test_matches_text_oracle(self):
        rng = random.Random(30)
        for n in range(68):
            for text in (f"{rng.getrandbits(n):0{n}b}" if n else "", "1" * n):
                assert bits_to_hex(bit_array(text)) == hex_oracle(text), text
                # Eve's key is int8; with every bit held it renders the same.
                assert bits_to_hex(bit_array(text).astype(np.int8)) == hex_oracle(text)

    def test_long_key_matches_text_oracle(self):
        n = 2 ** 20 + 3
        for text in (f"{random.Random(31).getrandbits(n):0{n}b}", "1" * n):
            assert bits_to_hex(bit_array(text)) == hex_oracle(text)

    @pytest.mark.parametrize("values, dtype", [([0, 1, 2, 1], np.uint8),
                                               ([1, 255, 0, 0], np.uint8),
                                               ([1, 0, -1, 1], np.int8)])
    def test_non_binary_rejected(self, values, dtype):
        with pytest.raises(ValueError, match="only 0 and 1"):
            bits_to_hex(np.array(values, dtype))

    def test_child_seed_stable_and_distinct(self):
        a = child_seed(123, 0)
        assert a == child_seed(123, 0)
        assert a != child_seed(123, 1)
        assert 0 <= a < 2 ** 64


# One of every kind of cell a report holds: None, bools, Python and numpy
# floats, ints, enum spellings, a threshold rule, an empty abort reason and
# a 10**5-digit hex key.
REPORT_CELLS = [None, True, False, 0.1, -2.5e-300, float("inf"), np.float64(1 / 3),
                np.float64(0.0), 0, -7, 2 ** 64, np.int64(27778), "lm05", "mitm_lm05",
                "MM+CM", "undefined", "d_cm < 0.05", "cm-threshold-exceeded", "",
                f"400000:{random.Random(32).getrandbits(400000):0100000x}"]


class TestWriteRows:
    def test_matches_csv_writer(self, tmp_path):
        """The report equals csv.writer's for every kind of report cell, in
        rows of two cells (summary), three (curves) and the whole table."""
        header = ["key", "value"]
        rows = [[f"k{i}", cell] for i, cell in enumerate(REPORT_CELLS)]
        rows += [REPORT_CELLS[i:i + 3] for i in range(len(REPORT_CELLS) - 2)]
        rows += [REPORT_CELLS, REPORT_CELLS[::-1]]
        path = tmp_path / "report.csv"
        _write_rows(path, header, iter(rows))
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)
        assert path.read_text(encoding="ascii") == want.getvalue()

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
    @pytest.mark.parametrize("where", ["header", "row", "last"])
    def test_cell_needing_quotes_raises_and_leaves_no_file(self, tmp_path, char, where):
        bad = f"no{char}good"
        header = ["key", bad if where == "header" else "value"]
        rows = [["a", 1], ["b", bad if where == "row" else 2.5], ["c", True],
                [bad if where == "last" else "d", None]]
        path = tmp_path / "report.csv"
        with pytest.raises(ValueError, match=re.escape(f"report.csv: report cell needs CSV "
                                                       f"quoting: {bad!r}")):
            _write_rows(path, header, rows)
        assert not path.exists()


class TestCurveScenarios:
    def test_fig2b_constant_unity(self, tmp_path):
        sc = Scenario("fig2b", seed=1, out_dir=str(tmp_path))
        result = run_scenario(sc)
        with open(result.paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201
        assert all(float(r["i_ab"]) == 1.0 for r in rows)

    def test_fig2a_header_and_crossing(self, tmp_path):
        sc = Scenario("fig2a", seed=1, out_dir=str(tmp_path))
        result = run_scenario(sc)
        text = Path(result.paths[0]).read_text()
        assert text.splitlines()[0] == "d,i_ab,i_ae"
        rows = [line.split(",") for line in text.splitlines()[1:]]
        gaps = [(float(d), float(ab) - float(ae)) for d, ab, ae in rows]
        crossing = next(d for (d, g), (_, g2) in zip(gaps, gaps[1:]) if g > 0 >= g2)
        assert abs(crossing - critical_disturbance(1e-6)) <= 0.0025

    def test_svg_emitted(self, tmp_path):
        sc = Scenario("fig2c", seed=1, out_dir=str(tmp_path))
        result = run_scenario(sc)
        svg = Path(result.paths[1]).read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 2
        assert "xlink" not in svg  # self-contained, no external assets


def _watch_columns(monkeypatch):
    """Patch ``scenario.run_session`` to keep a weak reference to each
    session's ``RoundColumns``.  Returns the references and, per call, how
    many earlier sessions' columns were still alive when it started."""
    from qkdsim.harness import scenario as scenario_module

    refs, alive = [], []
    real = scenario_module.run_session

    def run_session(cfg):
        alive.append(sum(ref() is not None for ref in refs))
        transcript = real(cfg)
        refs.append(weakref.ref(transcript.columns))
        return transcript

    monkeypatch.setattr(scenario_module, "run_session", run_session)
    return refs, alive


# Table1's rows with the paper's leg counts: one-way once, LM05 out and
# back, ping-pong four times.
def _table_rows(tmp_path, **kwargs) -> list[dict]:
    sc = Scenario("table1", seed=3, out_dir=str(tmp_path), **kwargs)
    with open(run_scenario(sc).paths[0], newline="") as fh:
        return list(csv.DictReader(fh))


class TestTableScenario:
    def test_exact_link_columns(self, tmp_path):
        link = LinkBudget(0.2, 50.0)
        rows = _table_rows(tmp_path, link=link, n_rounds=2000)
        t_leg = leg_transmittance(link)
        assert [r["protocol"] for r in rows] == list(_PAPER_LEGS)
        for row, (_, legs) in zip(rows, _PAPER_LEGS.items()):
            assert float(row["transmittance"]) == t_leg ** legs
            assert float(row["photon_distance_km"]) == legs * 50.0

    def test_underflowing_link_gives_zero_transmittance(self, tmp_path):
        """A link long enough that one leg's transmittance underflows to 0
        gives 0 in every row, whatever its leg count."""
        link = LinkBudget(0.2, 2.0e4)
        assert leg_transmittance(link) == 0.0
        rows = _table_rows(tmp_path, link=link, n_rounds=50)
        assert len(rows) == len(_PAPER_LEGS)
        for row, (_, legs) in zip(rows, _PAPER_LEGS.items()):
            assert float(row["transmittance"]) == 0.0
            assert float(row["photon_distance_km"]) == legs * 2.0e4

    def test_two_way_rows_report_no_abort(self, tmp_path):
        sc = Scenario("table1", seed=3, out_dir=str(tmp_path), n_rounds=2000)
        with open(run_scenario(sc).paths[0], newline="") as fh:
            rows = {r["protocol"]: r for r in csv.DictReader(fh)}
        assert rows["pp"]["aborted"] == "false"
        assert rows["lm05"]["aborted"] == "false"
        assert rows["mcasbb84"]["aborted"] == "true"
        assert rows["pp"]["d_mm"] == "0.0"
        assert rows["lm05"]["secure_for"] == "undefined"

    def test_frees_each_session_before_the_next(self, tmp_path, monkeypatch):
        refs, alive = _watch_columns(monkeypatch)
        run_scenario(Scenario("table1", seed=3, out_dir=str(tmp_path), n_rounds=500))
        assert alive == [0] * len(PROTOCOLS)
        assert len(refs) == len(PROTOCOLS) and all(ref() is None for ref in refs)

    @pytest.mark.parametrize("d_pd_cm", [None, 0.1])
    def test_rule_cells_follow_the_abort_rule(self, tmp_path, d_pd_cm):
        """modes, max_disturbance, secure_for and i_ae come from the one rule."""
        sc = Scenario("table1", seed=3, out_dir=str(tmp_path), n_rounds=500, d_pd_cm=d_pd_cm)
        with open(run_scenario(sc).paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(PROTOCOLS)
        for i, (row, (protocol, spec)) in enumerate(zip(rows, PROTOCOLS.items())):
            assert row["protocol"] == protocol.value
            cfg = SessionConfig(protocol=protocol, n_rounds=500, seed=child_seed(3, i),
                                attack=spec.table1_attack, d_pd_cm=sc.cm_threshold)
            threshold, rate = abort_threshold(cfg), monitored_rate(cfg)
            if threshold is None:
                assert row["max_disturbance"] == row["secure_for"] == "undefined"
            else:
                assert row["max_disturbance"] == repr(threshold)
                assert row["secure_for"] == f"{rate} < {threshold}"
            assert row["modes"] == ("MM" if rate == "d_mm" else "MM+CM")
            leak = leaked_fraction(run_session(cfg).disturbance, cfg)
            assert row["i_ae"] == ("nan" if leak is None else repr(leak))
        assert [r["max_disturbance"] for r in rows] == [
            "0.11", "undefined", "undefined", repr(sc.cm_threshold)]


class TestSweepScenario:
    def test_frees_each_session_before_the_next(self, tmp_path, monkeypatch):
        refs, alive = _watch_columns(monkeypatch)
        session = SessionConfig(protocol=ProtocolKind.LM05, seed=1, n_rounds=200)
        run_scenario(Scenario("sweep", seed=1, out_dir=str(tmp_path), session=session,
                              p_values=(0.0, 0.5, 1.0)))
        assert alive == [0, 0, 0]
        assert len(refs) == 3 and all(ref() is None for ref in refs)

    def test_full_presence_row(self, tmp_path):
        session = SessionConfig(protocol=ProtocolKind.LM05, n_rounds=3000, seed=4,
                                attack=AttackSpec(AttackKind.MITM_LM05))
        sc = Scenario("sweep", seed=4, out_dir=str(tmp_path), session=session,
                      p_values=(0.0, 1.0))
        with open(run_scenario(sc).paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["p"] for r in rows] == ["0.0", "1.0"]
        hot = rows[1]
        assert hot["d_mm"] == "0.0"
        assert hot["eve_coverage"] == "1.0"
        assert hot["eve_accuracy"] == "1.0"
        assert hot["abort"] == "false"
        cold = rows[0]
        assert cold["eve_coverage"] == "0.0"
        assert cold["eve_accuracy"] == "nan"


class TestSessionScenario:
    def _scenario(self, tmp_path, presence=1.0, seed=5):
        session = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=1500, seed=seed,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.MITM_LM05, presence))
        return Scenario("session", seed=seed, out_dir=str(tmp_path), session=session)

    def test_outputs_and_summary(self, tmp_path):
        result = run_scenario(self._scenario(tmp_path))
        transcript_text = Path(result.paths[0]).read_text()
        assert transcript_text.splitlines()[0] == "index,mode,prep,action,result,lost,eve_touched"
        with open(result.paths[1], newline="") as fh:
            summary = {r["key"]: r["value"] for r in csv.DictReader(fh)}
        assert summary["protocol"] == "lm05"
        assert summary["d_mm"] == "0.0"
        assert summary["eve_coverage"] == "1.0"
        # Full copy: PA gets a leaked fraction near 1 and hands back
        # either nothing or a tiny stub.
        assert "alice_key_hex" in summary and summary["alice_key_hex"].count(":") == 1

    def test_one_seed(self, tmp_path):
        """Privacy amplification draws from the session's seed, the one the
        summary reports, whatever the enclosing Scenario's seed."""
        session = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=3000, seed=9,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.MITM_LM05, 0.1))
        paths = [run_scenario(Scenario("session", seed=seed, out_dir=str(tmp_path / str(seed)),
                                       session=session)).paths[1]
                 for seed in (5, 6)]
        with open(paths[0], newline="") as fh:
            summary = {r["key"]: r["value"] for r in csv.DictReader(fh)}
        assert summary["seed"] == "9" and summary["secret_key_hex"] != "0:"
        assert filecmp.cmp(*paths, shallow=False)

    def test_round_columns_are_freed_before_hashing(self, tmp_path, monkeypatch):
        """Privacy amplification runs once the transcript is written and
        only the key is left: the session's round columns are gone."""
        from qkdsim.harness import scenario as scenario_module

        refs, _ = _watch_columns(monkeypatch)
        alive_at_hash = []
        real = scenario_module.privacy_amplify

        def privacy_amplify(*args):
            alive_at_hash.append(refs[0]() is not None)
            return real(*args)

        monkeypatch.setattr(scenario_module, "privacy_amplify", privacy_amplify)
        run_scenario(self._scenario(tmp_path, presence=0.1))
        assert alive_at_hash == [False]

    def test_rerun_byte_identical(self, tmp_path):
        first = run_scenario(self._scenario(tmp_path / "a"))
        second = run_scenario(self._scenario(tmp_path / "b"))
        for p1, p2 in zip(first.paths, second.paths):
            assert filecmp.cmp(p1, p2, shallow=False)

    @pytest.mark.parametrize("protocol,attack_kind", [
        (ProtocolKind.BB84, AttackKind.INTERCEPT_RESEND),
        (ProtocolKind.LM05, AttackKind.MITM_LM05),
        (ProtocolKind.PING_PONG, AttackKind.MITM_PING_PONG),
    ], ids=["bb84", "lm05", "pp"])
    def test_transcript_file_is_transcript_csv(self, tmp_path, protocol, attack_kind):
        """The scenario writes transcript.csv in binary mode, one kernel family each."""
        session = SessionConfig(protocol=protocol, n_rounds=5000, seed=11,
                                channel=ChannelSpec(0.8, 0.05),
                                attack=AttackSpec(attack_kind, 0.6))
        result = run_scenario(Scenario("session", seed=11, out_dir=str(tmp_path),
                                       session=session))
        expected = transcript_csv(run_session(session)).encode("ascii")
        assert Path(result.paths[0]).read_bytes() == expected


def _child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(qkdsim.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestCli:
    def test_curves_command(self, tmp_path, capsys):
        code = main(["curves", "fig2a", "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        assert (tmp_path / "fig2a.csv").exists()
        assert (tmp_path / "fig2a.svg").exists()

    def test_run_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n".join([
            "[scenario]", "name = fig2b", "seed = 5",
            f"out_dir = {tmp_path / 'out'}", "",
        ]))
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "fig2b.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = fig2a\n")  # no seed
        assert main(["run", str(cfg)]) == 1

    def test_usage_error_exit_code(self):
        assert main(["sweep", "--protocol", "lm05"]) == 1

    def test_unknown_scenario_name(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nname = fig9\nseed = 1\n")
        assert main(["run", str(cfg)]) == 1

    def test_aborted_session_exit_code(self, tmp_path):
        cfg = tmp_path / "abort.cfg"
        cfg.write_text("\n".join([
            "[scenario]", "name = session", "seed = 6",
            f"out_dir = {tmp_path / 'out'}",
            "[session]", "protocol = mcasbb84", "n_rounds = 2000",
            "[attack]", "kind = mitm_mcas_x", "presence = 1.0", "",
        ]))
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("form", ["file", "flag"])
    def test_empty_out_dir_is_rejected(self, tmp_path, monkeypatch, capsys, form):
        """An empty out_dir would put the reports in the working directory."""
        monkeypatch.chdir(tmp_path)
        if form == "file":
            argv = ["run", _file(tmp_path, {"scenario": {"name": "fig2a", "seed": "1",
                                                         "out_dir": ""}})]
        else:
            argv = ["curves", "fig2a", "--out", ""]
        assert main(argv) == 1
        where = "line 4" if form == "file" else "--out"
        assert capsys.readouterr().err == (
            f"config error: {where}: out_dir must name a directory, got ''\n")
        assert os.listdir(tmp_path) == (["scenario.cfg"] if form == "file" else [])

    def test_sweep_requires_seed(self, tmp_path):
        code = main(["sweep", "--protocol", "lm05", "--attack", "mitm_lm05",
                     "--p-grid", "0:1:2", "--out", str(tmp_path)])
        assert code == 1

    def test_sweep_command(self, tmp_path):
        code = main(["sweep", "--protocol", "lm05", "--attack", "mitm_lm05",
                     "--p-grid", "0:1:2", "--rounds", "500", "--seed", "7",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_shared_parser_keeps_no_state(self, tmp_path):
        """No call of main() changes the next."""
        sweep = ["sweep", "--protocol", "lm05", "--attack", "mitm_lm05", "--p-grid", "0:1:3",
                 "--rounds", "2000", "--seed", "4"]

        def sweep_csv(name, *flags):
            assert main(sweep + ["--out", str(tmp_path / name), *flags]) == 0
            return (tmp_path / name / "sweep.csv").read_bytes()

        threshold = sweep_csv("threshold", "--threshold", "--d-pd-cm", "0.01")
        plain = sweep_csv("plain")
        assert plain != threshold
        assert main(["sweep", "--protocol", "lm05"]) == 1
        assert sweep_csv("again") == plain
        assert sweep_csv("fresh") == plain

    def test_runs_with_docstrings_stripped(self, tmp_path):
        """Under python -OO every __doc__ is None; the CLI must not need one."""
        env = _child_env()
        proc = subprocess.run(
            [sys.executable, "-OO", "-m", "qkdsim.harness.cli", "curves", "fig2a",
             "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2a.csv", "fig2a.svg"]
        proc = subprocess.run([sys.executable, "-OO", "-m", "qkdsim.harness.cli", "sweep", "-h"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "--p-grid" in proc.stdout and "sweep.p_grid" in proc.stdout

    def test_other_commands_never_load_the_acceptance_suite(self, tmp_path):
        """curves, sweep and run, in a child interpreter, leave
        qkdsim.harness.selftest unimported."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[scenario]\nname = fig2b\nseed = 5\nout_dir = {tmp_path / 'run'}\n")
        commands = [["curves", "fig2a", "--out", str(tmp_path / "curves")],
                    ["sweep", "--protocol", "lm05", "--attack", "mitm_lm05", "--p-grid", "0:1:2",
                     "--rounds", "500", "--seed", "7", "--out", str(tmp_path / "sweep")],
                    ["run", str(cfg)]]
        script = ("import sys\nfrom qkdsim.harness.cli import main\n"
                  f"codes = [main(argv) for argv in {commands!r}]\n"
                  "print(codes, 'qkdsim.harness.selftest' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"

    def test_selftest_command_runs_the_suite(self, monkeypatch, capsys):
        """`qkdsim selftest` imports the suite on demand, prints each
        criterion's line and exits 1 when one fails."""
        for passed, code in ((True, 0), (False, 1)):
            check = Check(1, "stub", lambda: CheckResult(passed, "detail"))
            monkeypatch.setattr("qkdsim.harness.selftest.CHECKS", (check,))
            assert main(["selftest"]) == code
            assert "criterion  1 stub: detail" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n".join([
            "[scenario]", "name = session", "seed = 1",
            f"out_dir = {tmp_path / 'x'}",
            "[session]", "protocol = lm05", "n_rounds = 200", "",
        ]))
        assert main(["run", str(cfg), "--seed", "99",
                     "--out", str(tmp_path / "y")]) == 0
        assert (tmp_path / "y" / "summary.csv").exists()


class TestTableEdgeCases:
    @pytest.mark.parametrize("n_rounds", range(1, 11))
    def test_short_sessions_run_clean(self, tmp_path, capsys, n_rounds):
        """BB84 may disclose no bit in a very short session; its d_mm and
        the cells derived from it are reported as nan, not a traceback."""
        cfg = tmp_path / "t.cfg"
        cfg.write_text("\n".join([
            "[scenario]", "name = table1", "seed = 8", f"out_dir = {tmp_path / 'out'}",
            "[session]", f"n_rounds = {n_rounds}", "",
        ]))
        assert main(["run", str(cfg)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        with open(tmp_path / "out" / "table1.csv", newline="") as fh:
            bb84 = next(csv.DictReader(fh))
        if bb84["d_mm"] == "nan":
            assert bb84["i_ab"] == bb84["i_ae"] == "nan"

    def test_underflowing_link(self, tmp_path, capsys):
        """0.2 dB/km over 20000 km underflows the leg transmittance to 0."""
        cfg = tmp_path / "t.cfg"
        cfg.write_text("\n".join([
            "[scenario]", "name = table1", "seed = 9", f"out_dir = {tmp_path / 'out'}",
            "[session]", "n_rounds = 200",
            "[channel]", "alpha_db_per_km = 0.2", "distance_km = 20000", "",
        ]))
        assert main(["run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "table1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["transmittance"]) for r in rows] == [0.0] * 4
        assert [float(r["photon_distance_km"]) for r in rows] == [20000.0, 80000.0,
                                                                   40000.0, 20000.0]


def _reports(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestNumericTypes:
    """Reports and range checks treat numpy numbers as the Python numbers
    they hold, or reject them."""

    @pytest.mark.parametrize("name", ["sweep", "session", "table1", "fig2c"])
    def test_numpy_floats_write_the_same_reports(self, tmp_path, name):
        def build(out, number):
            session = SessionConfig(protocol=ProtocolKind.LM05, seed=2, n_rounds=300,
                                    attack=AttackSpec(AttackKind.MITM_LM05, number(0.3)))
            if name == "sweep":
                p_values = tuple(np.linspace(0, 1, 3)) if number is np.float64 else (0.0, 0.5, 1.0)
                return Scenario(name, seed=2, out_dir=out, session=session, p_values=p_values)
            if name == "session":
                return Scenario(name, seed=2, out_dir=out, session=session)
            return Scenario(name, seed=2, out_dir=out, n_rounds=300, n_points=5,
                            d_pd_cm=number(0.2))

        for number in (float, np.float64):
            run_scenario(build(str(tmp_path / number.__name__), number))
        python, numpy = _reports(tmp_path / "float"), _reports(tmp_path / "float64")
        assert python == numpy
        assert not any(b"np." in data for data in numpy.values())

    @pytest.mark.parametrize("field, value", [
        ("seed", 5.5), ("seed", np.int64(5)), ("seed", True),
        ("n_rounds", 10.5), ("n_rounds", True), ("n_rounds", np.int64(10)),
    ])
    def test_session_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            SessionConfig(protocol=ProtocolKind.LM05, **{"seed": 5, "n_rounds": 10,
                                                         field: value})

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", np.int64(1)), ("seed", True),
        ("n_rounds", 2.5), ("n_rounds", np.int64(10)), ("n_rounds", True),
        ("n_points", 2.5), ("n_points", np.int64(5)), ("n_points", True),
    ])
    def test_scenario_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            Scenario("table1" if field == "n_rounds" else "fig2a", **{"seed": 1, field: value})


class TestCommandLineGrammar:
    """The words main() reads: commands, their argument and their flags."""

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus", "--out", "OUT"],
        ["--out", "OUT"],
        ["curves", "fig9", "--out", "OUT"],
        ["curves", "--out", "OUT"],
        ["curves", "fig2a", "--out", "OUT", "--rounds", "5"],
        [*_SWEEP_ARGV, "--out", "OUT", "--points", "4"],
        ["curves", "fig2a", "--out", "OUT", "--points"],
        [*_SWEEP_ARGV, "--out", "OUT", "--rounds"],
        ["run", "CFG", "extra"],
        ["run", "--out", "OUT"],
        [*_SWEEP_ARGV, "--out", "OUT", "--threshold=true"],
        ["curves", "fig2a", "--out", "OUT", "--threshold"],
        [*_SWEEP_ARGV, "--out", "OUT", "--"],
        ["selftest", "--seed", "1"],
    ])
    def test_usage_error_writes_nothing(self, tmp_path, monkeypatch, capsys, argv):
        out = tmp_path / "out"
        cfg = _file(tmp_path, {"scenario": {"name": "fig2a", "seed": "1", "out_dir": str(out)}})
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([{"CFG": cfg, "OUT": str(out)}.get(word, word) for word in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and captured.out == ""
        assert not out.exists() and os.listdir(cwd) == []

    def test_unknown_words_are_listed_in_order(self, capsys):
        assert main(["curves", "fig2a", "--bogus", "-x", "--point=5", "more"]) == 1
        assert capsys.readouterr().err == (
            "usage error: unrecognized arguments: --bogus -x --point=5 more\n")

    def test_missing_required_flags_are_named(self, capsys):
        assert main(["sweep", "--attack", "none", "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --protocol, --p-grid\n")

    def test_equals_form_builds_the_same_scenario(self, tmp_path, monkeypatch):
        out = ["--out", str(tmp_path / "out")]
        spaced = _scenario_of(monkeypatch, _SWEEP_ARGV + out + ["--seed", "7", "--flip-prob",
                                                                 "0.01"])
        joined = _scenario_of(monkeypatch, _SWEEP_ARGV + out + ["--seed=7", "--flip-prob=0.01"])
        assert joined == spaced and joined.seed == 7

    def test_repeated_flag_keeps_its_last_value(self, tmp_path, monkeypatch):
        out = ["--out", str(tmp_path / "out")]
        sc = _scenario_of(monkeypatch, _SWEEP_ARGV + out + ["--seed", "3", "--seed=8",
                                                            "--rounds", "5", "--rounds", "6"])
        assert sc.seed == 8 and sc.session.n_rounds == 6

    def test_argument_may_follow_the_flags(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = _file(tmp_path, {"scenario": {"name": "fig2a"}})
        assert main(["run", "--seed", "3", "--out", str(out), path]) == 0
        assert (out / "fig2a.csv").exists()
        sc = _scenario_of(monkeypatch, ["curves", "--seed", "2", "--out", str(out), "fig2c"])
        assert sc.name == "fig2c" and sc.seed == 2

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["sweep", "-h"], ["sweep", "--protocol", "lm05", "--help"],
        ["curves", "fig2a", "-h"], ["run", "--help"], ["selftest", "-h"],
    ])
    def test_help_prints_every_command_and_flag(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        text = capsys.readouterr().out
        for command in ("run <config>", "curves <label>", "sweep --protocol", "selftest"):
            assert f"qkdsim {command}" in text
        for flag, key in _FLAGS.items():
            assert re.search(rf"^ +{re.escape(flag)} +{re.escape(key)}$", text, re.M), flag
        assert os.listdir(tmp_path) == []

    def test_help_is_a_value_after_a_value_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_CURVES_ARGV + ["--out", str(out), "--points", "-h"]) == 1
        assert capsys.readouterr().err.startswith("config error: --points: ")
        assert not out.exists()
