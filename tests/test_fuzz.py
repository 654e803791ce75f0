"""Property tests: every config file and `sweep` command line runs or
fails cleanly, and every session keeps the run invariants.

Hypothesis runs derandomized with a fixed example budget, so the suite
draws the same examples on every run.  The end-to-end cases keep every
session at most 2000 rounds and every grid at most 5 points.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.adversary import MIN_FIDELITY, AttackKind, AttackSpec, BasisPolicy, eve_accuracy
from qkdsim.channel import ChannelSpec
from qkdsim.harness.cli import _FLAGS, main
from qkdsim.harness.config import ConfigError, parse_config
from qkdsim.protocol import PROTOCOLS, ProtocolKind, SessionConfig, run_session


def _fuzz(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


# Per key: valid values, then out-of-range, non-finite and mistyped ones.
_VALID = {
    ("scenario", "name"): ["fig2a", "fig2b", "fig2c", "table1", "sweep", "session"],
    ("scenario", "seed"): ["0", "7", str(2 ** 64 - 1)],
    ("scenario", "n_points"): ["2", "5"],
    ("scenario", "d_pd_cm"): ["0.05", "0.2", "0.49"],
    ("session", "protocol"): ["bb84", "pp", "lm05", "mcasbb84"],
    ("session", "n_rounds"): ["1", "50", "2000"],
    ("session", "cm_fraction"): ["0", "0.2", "0.999"],
    ("session", "enforce_cm_threshold"): ["true", "off"],
    ("channel", "transmittance_per_leg"): ["0", "0.9", "1"],
    ("channel", "flip_prob"): ["0", "0.05", "0.5"],
    ("channel", "alpha_db_per_km"): ["0", "0.2", "1e308"],
    ("channel", "distance_km"): ["0", "50", "20000"],
    ("attack", "kind"): ["none", "ir", "mitm_pp", "mitm_lm05", "mitm_mcas_x", "ancilla_ube"],
    ("attack", "presence"): ["0", "0.5", "1"],
    ("attack", "basis_policy"): ["random", "fixed_z", "fixed_x"],
    ("attack", "f0"): ["0.5", "0.9", "1"],
    ("attack", "f_plus"): ["0.5", "0.9", "1"],
    ("sweep", "p_grid"): ["0:1:5", "0.2:0.4:1", "1:0:3"],
    ("sweep", "n_rounds"): ["1", "500", "2000"],
}
_INVALID = {
    ("scenario", "name"): ["fig9", ""],
    ("scenario", "seed"): ["-3", str(2 ** 64), "1.5", "x"],
    ("scenario", "n_points"): ["1", "0", "-4", "two"],
    ("scenario", "d_pd_cm"): ["0", "0.5", "-0.1", "nan", "inf"],
    ("session", "protocol"): ["qkd", ""],
    ("session", "n_rounds"): ["0", "-1", "1e3"],
    ("session", "cm_fraction"): ["1", "-0.1", "nan"],
    ("session", "enforce_cm_threshold"): ["maybe"],
    ("channel", "transmittance_per_leg"): ["1.01", "-0.5", "nan"],
    ("channel", "flip_prob"): ["0.51", "-0.01", "inf"],
    ("channel", "alpha_db_per_km"): ["-0.1", "inf", "nan"],
    ("channel", "distance_km"): ["-1", "inf", "nan"],
    ("attack", "kind"): ["laser"],
    ("attack", "presence"): ["1.5", "-0.5", "nan"],
    ("attack", "basis_policy"): ["diag"],
    ("attack", "f0"): ["0.49", "1.1", "nan"],
    ("attack", "f_plus"): ["0.49", "1.1", "nan"],
    ("sweep", "p_grid"): ["0:1", "0:2:3", "0:1:0", "a:b:c", "nan:1:2"],
    ("sweep", "n_rounds"): ["0", "-5"],
}
_KEYS = sorted(_VALID)
_SESSION_KEYS = [("scenario", "d_pd_cm"), ("session", "cm_fraction"),
                 ("session", "enforce_cm_threshold"), ("channel", "transmittance_per_leg"),
                 ("channel", "flip_prob"), ("attack", "kind"), ("attack", "basis_policy"),
                 ("attack", "f0"), ("attack", "f_plus")]
_CURVE_KEYS = [("scenario", "n_points"), ("scenario", "d_pd_cm")]
_MANDATORY = ("seed", "protocol", "p_grid")
# The keys each scenario reads besides name, seed and out_dir.  The round
# counts are not mandatory but always set, to keep every session small.
_REQUIRED = {
    "table1": [("session", "n_rounds")],
    "session": [("session", "protocol"), ("session", "n_rounds")],
    "sweep": [("session", "protocol"), ("sweep", "p_grid"), ("sweep", "n_rounds")],
}
_OPTIONAL = {
    "fig2a": _CURVE_KEYS, "fig2b": _CURVE_KEYS, "fig2c": _CURVE_KEYS,
    "table1": [("scenario", "d_pd_cm"), ("channel", "alpha_db_per_km"),
               ("channel", "distance_km")],
    "session": _SESSION_KEYS + [("attack", "presence")],
    "sweep": _SESSION_KEYS,
}
# Keys whose errors may also come from a cross-field check (attack against
# protocol) on an otherwise valid file.
_CROSS_FIELD = ("kind",)
_NOISE = ["", "# comment", "[bogus]", "no equals sign", "bogus = 1", "name = fig2a"]


@st.composite
def config_texts(draw):
    """(lines, fault, fault key) of a config file with at most one planted fault.

    Without a fault every value is valid, every key is read by the
    scenario and the required keys are present, so the file either runs
    or fails a cross-field check.  The faults: one invalid value, one key
    the scenario does not read, one missing required key, or noise lines.
    """
    name = draw(st.sampled_from(_VALID[("scenario", "name")]))
    keys = [("scenario", "name"), ("scenario", "seed"), *_REQUIRED.get(name, [])]
    keys += draw(st.lists(st.sampled_from(_OPTIONAL[name]), max_size=4))
    values = {key: draw(st.sampled_from(_VALID[key])) for key in keys}
    values[("scenario", "name")] = name
    fault = draw(st.sampled_from(["none", "none", "value", "unread", "missing", "noise"]))
    fault_key = None
    if fault == "value":
        fault_key = draw(st.sampled_from(sorted(values)))
        values[fault_key] = draw(st.sampled_from(_INVALID[fault_key]))
    elif fault == "unread":
        read = {("scenario", "name"), ("scenario", "seed"), *_REQUIRED.get(name, []),
                *_OPTIONAL[name]}
        fault_key = draw(st.sampled_from([k for k in _KEYS if k not in read]))
        values[fault_key] = draw(st.sampled_from(_VALID[fault_key]))
    elif fault == "missing":
        fault_key = draw(st.sampled_from([k for k in keys if k[1] in _MANDATORY]))
        del values[fault_key]
    values[("scenario", "out_dir")] = "OUT"
    lines = []
    for section in dict.fromkeys(sec for sec, _ in sorted(values)):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for (sec, key), value in sorted(values.items())
                     if sec == section)
    if fault == "noise":
        for noise in draw(st.lists(st.sampled_from(_NOISE), min_size=1, max_size=2)):
            lines.insert(draw(st.integers(0, len(lines))), noise)
    return lines, fault, fault_key


def _write(tmp: str, lines) -> tuple[str, Path]:
    out = Path(tmp) / "out"
    path = Path(tmp) / "fuzz.cfg"
    path.write_text("\n".join(lines).replace("= OUT", f"= {out}") + "\n", encoding="utf-8")
    return str(path), out


def _key_on(lines, lineno: int) -> str:
    return lines[lineno - 1].partition("=")[0].strip()


def _check_error(exc: ConfigError, lines, fault, fault_key) -> None:
    """The error points at the planted fault, or at a cross-field key."""
    if exc.lineno is None:
        assert "missing required key" in str(exc), str(exc)
        assert fault in ("missing", "noise"), str(exc)
        return
    line = lines[exc.lineno - 1]
    key = _key_on(lines, exc.lineno)
    if "=" in line and any(key == k for _, k in _KEYS):
        assert key in str(exc), (line, str(exc))
    if fault in ("value", "unread"):
        assert key == fault_key[1] or key in _CROSS_FIELD, (fault_key, str(exc))
    elif fault != "noise":
        assert fault == "none" and key in _CROSS_FIELD, (fault, str(exc))


@_fuzz(400)
@given(config_texts())
def test_parse_config_raises_only_config_errors_with_lines(case):
    lines, fault, fault_key = case
    with tempfile.TemporaryDirectory() as tmp:
        path, _ = _write(tmp, lines)
        try:
            parse_config(path)
        except ConfigError as exc:
            _check_error(exc, lines, fault, fault_key)
        else:
            assert fault in ("none", "noise")


@_fuzz(100)
@given(st.lists(st.one_of(st.sampled_from(_NOISE + ["[scenario]", "seed = 1", "[sweep]",
                                                    "p_grid = 0:1:2", "name = sweep"]),
                          st.text(max_size=24)), max_size=8))
def test_parse_config_on_arbitrary_text(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            parse_config(str(path))
        except ConfigError:
            pass


@_fuzz(100)
@given(config_texts())
def test_cli_run_exits_cleanly(case):
    lines, fault, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = _write(tmp, lines)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", path])
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 1:
            message = stderr.getvalue()
            assert message.startswith(("config error: line ", "config error: missing"))
            assert not out.exists()
        else:
            assert fault in ("none", "noise") and out.is_dir()


_SWEEP_REQUIRED = ("--protocol", "--attack", "--p-grid", "--seed")
# The other flags of `sweep` that take a value, besides --out.
_SWEEP_OPTIONAL = ("--rounds", "--cm-fraction", "--transmittance", "--flip-prob",
                   "--basis-policy", "--d-pd-cm")


@st.composite
def sweep_argvs(draw):
    """(argv, flags given an invalid value) of a `sweep` command line.

    Each flag takes a value from the config tables of the key it sets:
    an invalid one 1 time in 10, else a valid one.  A required flag is
    sometimes left out and an optional one usually is.
    """
    argv, invalid = ["sweep"], set()
    for flag in _SWEEP_REQUIRED + _SWEEP_OPTIONAL:
        key = tuple(_FLAGS[flag].split("."))
        if not draw(st.sampled_from(range(25 if flag in _SWEEP_REQUIRED else 3))):
            continue  # left out: 1 in 25 for a required flag, 2 in 3 otherwise
        if draw(st.sampled_from(range(10))):
            argv += [flag, draw(st.sampled_from(_VALID[key]))]
        else:
            argv += [flag, draw(st.sampled_from(_INVALID[key]))]
            invalid.add(flag)
    if draw(st.booleans()):
        argv.append("--threshold")
    return argv, invalid


@_fuzz(150)
@given(sweep_argvs())
def test_cli_sweep_exits_cleanly(case):
    argv, invalid = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        message = stderr.getvalue()
        assert code in (0, 1), message
        assert "Traceback" not in message
        if code == 0:
            assert not invalid and out.is_dir()
            return
        assert message.startswith(("config error: --", "usage error:")), message
        assert not out.exists()
        if message.startswith("config error: "):
            # A bad value, or the attack that does not apply to the protocol.
            flag = message.removeprefix("config error: ").split(":", 1)[0]
            assert flag in invalid | {"--attack"}, (flag, invalid, message)
        else:
            assert not set(_SWEEP_REQUIRED) <= set(argv), message


def _in(lo, hi):
    """Floats in [lo, hi]: both ends, a grid of 100 steps and arbitrary floats."""
    return st.one_of(st.sampled_from([lo, hi]),
                     st.integers(1, 99).map(lambda i: lo + (hi - lo) * i / 100),
                     st.floats(lo, hi))


_PAIRS = sorted(((p, k) for p, row in PROTOCOLS.items() for k in row.attacks),
                key=lambda pair: (pair[0].value, pair[1].value))
# Attacks whose copy of a message bit is exact on a noiseless line.
_EXACT_COPY = (AttackKind.MITM_PING_PONG, AttackKind.MITM_LM05, AttackKind.MITM_MCAS_X)


@st.composite
def session_configs(draw, protocol, kind):
    """Keyword arguments of a SessionConfig for a compatible protocol x attack
    pair; a cm_fraction of 1 is invalid."""
    return dict(
        protocol=protocol, n_rounds=draw(st.integers(1, 2000) | st.just(2000)),
        seed=draw(st.integers(0, 2 ** 64 - 1)), cm_fraction=draw(_in(0.0, 1.0)),
        channel=ChannelSpec(draw(_in(0.0, 1.0)), draw(st.just(0.0) | _in(0.0, 0.5))),
        attack=AttackSpec(kind, draw(_in(0.0, 1.0)), draw(st.sampled_from(BasisPolicy)),
                          draw(_in(MIN_FIDELITY, 1.0)), draw(_in(MIN_FIDELITY, 1.0))),
        d_pd_cm=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        enforce_cm_threshold=draw(st.booleans()))


def _sift_rule(protocol, cols):
    """The received message rounds that key: BB84 on matching bases, the
    asymmetric variant on the computational basis, the two-way protocols
    on every one."""
    keep = ~cols.lost & ~cols.cm
    if protocol is ProtocolKind.BB84:
        return keep & (cols.bob_basis == cols.prep_basis)
    if protocol is ProtocolKind.MCAS_BB84:
        return keep & (cols.bob_basis == 0)
    return keep


def _rate_ok(value) -> bool:
    """None for an empty sample (never NaN), else a rate in [0, 1]."""
    return value is None or 0.0 <= value <= 1.0


@pytest.mark.parametrize("protocol,kind", _PAIRS,
                         ids=[f"{p.value}-{k.value}" for p, k in _PAIRS])
@_fuzz(60)
@given(data=st.data())
def test_session_invariants(protocol, kind, data):
    kwargs = data.draw(session_configs(protocol, kind))
    try:
        cfg = SessionConfig(**kwargs)
    except ValueError:
        return
    transcript = run_session(cfg)
    cols = transcript.columns
    alice, bob, eve = transcript.alice_key, transcript.bob_key, transcript.eve_key
    assert len(alice) == len(bob) == len(eve)
    if transcript.abort_reason == "no-yield":
        assert cols.lost.all() and not len(alice)
        return
    sifted = _sift_rule(cfg.protocol, cols)
    assert not (cols.disclosed & ~sifted).any()
    key_rounds = np.flatnonzero(sifted & ~cols.disclosed)
    assert len(key_rounds) == len(alice)
    assert alice.dtype == bob.dtype == np.uint8 and eve.dtype == np.int8
    assert np.isin(alice, (0, 1)).all() and np.isin(bob, (0, 1)).all()
    # Eve's key is aligned: position i is round key_rounds[i], -1 where she
    # holds no bit, and she holds bits only on rounds she engaged.
    eve_bit = cols.eve_bit[key_rounds]
    assert np.array_equal(eve, eve_bit) and np.isin(eve, (-1, 0, 1)).all()
    assert cols.eve[key_rounds][eve_bit >= 0].all()
    if cfg.attack.kind in _EXACT_COPY and cfg.channel.flip_prob == 0.0:
        assert all(e == a for e, a in zip(eve, alice) if e != -1)
    est = transcript.disturbance
    assert est.key_errors == int(np.count_nonzero(alice != bob))
    acc = eve_accuracy(transcript)
    for rate in (est.d_mm, est.d_cm, est.half_width_95, acc.coverage, acc.accuracy):
        assert _rate_ok(rate), (rate, est, acc)
