"""The benchmark's traced run against the current code.

``perfbench/tracing.py`` wraps qkdsim functions at the module attributes
where callers look them up, and reads per-round results such as
``.lost`` on ``Transcript.rounds``; a missing name makes it abort.  This
test installs it, runs one short lossy sweep and one session through the
CLI, and checks the counts, so a renamed or deleted name fails here.
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


def test_traced_sweep_and_session(tmp_path):
    tracing = load_tracing()
    config = tmp_path / "session.cfg"
    config.write_text("\n".join([
        "[scenario]", "name = session", "seed = 4", f"out_dir = {tmp_path / 'session'}",
        "[session]", "protocol = lm05", "n_rounds = 2000",
        "[channel]", "transmittance_per_leg = 0.9",
        "[attack]", "kind = mitm_lm05", "presence = 0.2", ""]), encoding="ascii")
    sift = protocol.sift
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert protocol.sift is not sift
        assert main(["sweep", "--protocol", "pp", "--attack", "mitm_pp", "--p-grid", "0:1:3",
                     "--rounds", "2000", "--transmittance", "0.9", "--seed", "3",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["run", str(config)]) == 0
    finally:
        tracer.restore()
    assert protocol.sift is sift
    metrics = tracing.layer_metrics(tracer)
    assert metrics["scenario.run_scenario.calls"] == 2
    assert metrics["protocol.rounds"] == 4 * 2000
    assert 0 < metrics["protocol.lost_ratio"] < 1
    assert metrics["scenario.report_bytes"] > 0
