"""The benchmark's traced run against the current code.

``perfbench/tracing.py`` wraps qkdsim functions at the module attributes
where callers look them up, and reads per-round results such as
``.lost`` on ``Transcript.rounds``; a missing name makes it abort.  This
test installs it, runs one short lossy sweep and two sessions (a copy
attack and the probe attack) through the CLI, and checks the counts, so
a renamed or deleted name fails here.  The per-round names it still
wraps are placeholders that nothing calls, so their counters read 0.
"""

import importlib.util
from pathlib import Path

from qkdsim import protocol
from qkdsim.harness.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The counters of the per-round placeholders, which nothing calls.
PLACEHOLDER_COUNTS = ("channel.transmit.calls", "channel.transmit_bell.calls",
                      "adversary.intervene.calls", "adversary.ancilla_apply.calls",
                      "qstate.measure.calls", "qstate.prepare.calls")


def session_config(path, attack):
    path.write_text("\n".join([
        "[scenario]", "name = session", "seed = 4", f"out_dir = {path.with_suffix('')}",
        "[session]", "protocol = lm05", "n_rounds = 2000",
        "[channel]", "transmittance_per_leg = 0.9",
        "[attack]", *attack, ""]), encoding="ascii")
    return str(path)


def test_traced_sweep_and_session(tmp_path):
    tracing = load_tracing()
    configs = [session_config(tmp_path / "copy.cfg", ["kind = mitm_lm05", "presence = 0.2"]),
               session_config(tmp_path / "probe.cfg",
                              ["kind = ancilla_ube", "presence = 1", "f0 = 0.9", "f_plus = 0.6"])]
    sift = protocol.sift
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert protocol.sift is not sift
        assert main(["sweep", "--protocol", "pp", "--attack", "mitm_pp", "--p-grid", "0:1:3",
                     "--rounds", "2000", "--transmittance", "0.9", "--seed", "3",
                     "--out", str(tmp_path / "sweep")]) == 0
        for config in configs:
            assert main(["run", config]) == 0
    finally:
        tracer.restore()
    assert protocol.sift is sift
    metrics = tracing.layer_metrics(tracer)
    assert metrics["scenario.run_scenario.calls"] == 3
    assert metrics["protocol.rounds"] == 5 * 2000
    assert 0 < metrics["protocol.lost_ratio"] < 1
    assert metrics["scenario.report_bytes"] > 0
    placeholders = {name: metrics[name] for name in PLACEHOLDER_COUNTS}
    assert placeholders == dict.fromkeys(PLACEHOLDER_COUNTS, 0)
