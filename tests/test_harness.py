"""Tests for config parsing, scenario reports and the CLI."""

import csv
import filecmp
from pathlib import Path

import pytest

from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec, LinkBudget, leg_transmittance, legs_for, path_transmittance
from qkdsim.harness import (
    ConfigError,
    Scenario,
    bits_to_hex,
    child_seed,
    parse_config,
    parse_p_grid,
    run_scenario,
)
from qkdsim.harness.cli import main
from qkdsim.infotheory import DEFAULT_D_PD_CM, critical_disturbance
from qkdsim.kinds import ProtocolKind
from qkdsim.protocol import SessionConfig


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

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path,
                            "# a comment\n\n[scenario]\nname = fig2b\nseed = 2\n")
        assert parse_config(path).name == "fig2b"


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
        ("table1", "session", "n_rounds", "0"),
        ("table1", "channel", "alpha_db_per_km", "-1"),
        ("table1", "channel", "distance_km", "inf"),
        ("table1", "channel", "alpha_db_per_km", "nan"),
        ("session", "session", "n_rounds", "0"),
        ("session", "session", "cm_fraction", "1.0"),
        ("session", "channel", "transmittance_per_leg", "1.5"),
        ("session", "channel", "flip_prob", "0.6"),
        ("session", "channel", "legs", "3"),
        ("session", "attack", "presence", "1.1"),
        ("session", "attack", "kind", "mitm_pp"),
        ("session", "attack", "f0", "0.4"),
        ("session", "attack", "f_plus", "nan"),
        ("session", "scenario", "d_pd_cm", "0"),
        ("sweep", "sweep", "n_rounds", "0"),
        ("sweep", "sweep", "p_grid", "0:2:3"),
        ("sweep", "attack", "kind", "mitm_pp"),
        ("sweep", "channel", "legs", "3"),
        ("sweep", "scenario", "seed", "-1"),
    ])
    def test_bad_value_names_its_line(self, tmp_path, name, section, key, value):
        path, lineno = config_with(tmp_path, name, section, key, value)
        with pytest.raises(ConfigError, match=f"^line {lineno}: .*{key}"):
            parse_config(path)
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
        configs = sc.sweep_configs()
        assert [c.attack.presence for c in configs] == [0.0, 1.0]
        assert [c.seed for c in configs] == [child_seed(1, 0), child_seed(1, 1)]

    def test_scenario_checks_grid_points(self):
        session = SessionConfig(protocol=ProtocolKind.LM05, seed=1)
        with pytest.raises(ValueError, match="^presence"):
            Scenario("sweep", seed=1, session=session, p_values=(0.5, 1.5))
        with pytest.raises(ValueError, match="^p_values"):
            Scenario("sweep", seed=1, session=session)

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
    ])
    def test_bad_sweep_flags_leave_no_output(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["fig2a", "table1", "session", "sweep"])
    def test_negative_seed_override(self, tmp_path, name):
        path, _ = config_with(tmp_path, name, "scenario", "seed", "1")
        assert main(["run", path, "--seed", "-3"]) == 1
        assert not (tmp_path / "out").exists()


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


class TestHexSerialization:
    def test_round_trip(self):
        assert bits_to_hex("1010") == "4:a"
        assert bits_to_hex("00001") == "5:01"
        assert bits_to_hex("") == "0:"

    def test_child_seed_stable_and_distinct(self):
        a = child_seed(123, 0)
        assert a == child_seed(123, 0)
        assert a != child_seed(123, 1)
        assert 0 <= a < 2 ** 64


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


class TestTableScenario:
    def test_exact_link_columns(self, tmp_path):
        link = LinkBudget(0.2, 50.0)
        sc = Scenario("table1", seed=3, out_dir=str(tmp_path), link=link,
                      n_rounds=2000)
        result = run_scenario(sc)
        with open(result.paths[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        t_leg = leg_transmittance(link)
        order = [ProtocolKind.BB84, ProtocolKind.PING_PONG, ProtocolKind.LM05,
                 ProtocolKind.MCAS_BB84]
        assert [r["protocol"] for r in rows] == [p.value for p in order]
        for row, protocol in zip(rows, order):
            assert float(row["transmittance"]) == path_transmittance(t_leg, protocol)
            assert float(row["photon_distance_km"]) == legs_for(protocol) * 50.0

    def test_two_way_rows_report_no_abort(self, tmp_path):
        sc = Scenario("table1", seed=3, out_dir=str(tmp_path), n_rounds=2000)
        with open(run_scenario(sc).paths[0], newline="") as fh:
            rows = {r["protocol"]: r for r in csv.DictReader(fh)}
        assert rows["pp"]["aborted"] == "false"
        assert rows["lm05"]["aborted"] == "false"
        assert rows["mcasbb84"]["aborted"] == "true"
        assert rows["pp"]["d_mm"] == "0.0"
        assert rows["lm05"]["secure_for"] == "undefined"


class TestSweepScenario:
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

    def test_rerun_byte_identical(self, tmp_path):
        first = run_scenario(self._scenario(tmp_path / "a"))
        second = run_scenario(self._scenario(tmp_path / "b"))
        for p1, p2 in zip(first.paths, second.paths):
            assert filecmp.cmp(p1, p2, shallow=False)


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
