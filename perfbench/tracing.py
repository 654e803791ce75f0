"""Tracing for the benchmark's traced run, entirely from outside qkdsim.

Wrappers are installed on the module attributes where callers look the
functions up (``qkdsim.protocol.transmit``, ``qkdsim.adversary.measure``,
``qkdsim.harness.scenario.run_session`` ...) and removed afterwards.
Coarse boundaries record spans (name, start, end, parent, op id) in
memory; per-round functions only count calls, because a span per round
would cost more than the round itself.  A layer's self time is its span
time minus the time of the spans nested directly inside it.
"""

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -------------------------------------------------------- wrappers

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` runs in a span of its
        own so that bookkeeping never counts as the caller's self time."""
        spans, stack = self.spans, self._stack

        def open_span(span_name):
            spans.append([span_name, perf_counter(), None,
                          stack[-1] if stack else None, self.op_id])
            stack.append(len(spans) - 1)

        def close_span():
            spans[stack.pop()][2] = perf_counter()

        def wrapper(*args, **kwargs):
            open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span()
            if after is not None:
                open_span("trace.bookkeeping")
                try:
                    after(args, result)
                finally:
                    close_span()
            return result

        return wrapper

    def count(self, name: str, fn, after=None):
        """Count calls of a per-round function; ``after(args, result)`` may
        add outcome counts."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_count(self, name: str, fn):
        """Count calls and add up busy time without a span per call."""
        counts, busy = self.counts, self.busy

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += perf_counter() - start
                counts[name] += 1

        return wrapper

    def patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------- results

    def span_times(self) -> tuple[Counter, Counter, Counter]:
        """Total time, self time and call count per span name."""
        total, self_time, calls = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        return total, self_time, calls

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each qkdsim layer at their call sites."""
    from qkdsim import adversary, postproc, protocol
    from qkdsim.harness import cli, scenario

    counts = tracer.counts

    def after_scenario(args, result):
        counts["scenario.report_bytes"] += sum(p.stat().st_size for p in result.paths)

    def after_session(args, transcript):
        counts["protocol.rounds"] += args[0].n_rounds
        counts["protocol.lost_rounds"] += sum(1 for r in transcript.rounds if r.lost)
        counts["protocol.key_bits"] += len(transcript.alice_key)
        counts["protocol.aborted"] += transcript.aborted

    def after_hash(args, result):
        spec = args[1]
        m, k = spec.input_len, spec.output_len
        counts["postproc.hash_bits_in"] += m
        counts["postproc.hash_bits_out"] += k
        if k:
            counts["postproc.hash_ops_computed"] += m * (m + k - 1)

    def after_transmit(args, result):
        if result is None:
            counts["channel.lost"] += 1

    def after_intervene(args, result):
        if args[1].engaged:
            counts["adversary.engaged"] += 1

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def count(name, after=None):
        return lambda fn: tracer.count(name, fn, after)

    tracer.patch(cli, "parse_config", span("config.parse_config"))
    tracer.patch(cli, "run_scenario", span("scenario.run_scenario", after_scenario))
    tracer.patch(scenario, "run_session", span("protocol.run_session", after_session))
    tracer.patch(scenario, "write_transcript_csv", span("scenario.write_transcript_csv"))
    tracer.patch(scenario, "eve_accuracy", span("adversary.eve_accuracy"))
    tracer.patch(scenario, "privacy_amplify", span("postproc.privacy_amplify"))
    tracer.patch(postproc, "universal_hash", span("postproc.universal_hash", after_hash))
    tracer.patch(protocol, "sift", span("protocol.sift"))
    tracer.patch(protocol, "estimate_disturbance", span("protocol.estimate_disturbance"))
    tracer.patch(protocol, "transmit", count("channel.transmit", after_transmit))
    tracer.patch(protocol, "transmit_bell", count("channel.transmit_bell", after_transmit))
    tracer.patch(protocol, "intervene_forward", count("adversary.intervene", after_intervene))
    tracer.patch(protocol, "intervene_backward", count("adversary.intervene", after_intervene))
    for module in (protocol, adversary):
        tracer.patch(module, "measure", count("qstate.measure"))
        tracer.patch(module, "prepare", count("qstate.prepare"))
    tracer.patch(adversary.AncillaInteraction, "apply",
                 lambda fn: tracer.timed_count("adversary.ancilla_apply", fn))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, named as in BENCHMARK.json."""
    total, self_time, calls = tracer.span_times()
    c = tracer.counts
    transmits = c["channel.transmit"] + c["channel.transmit_bell"]
    return {
        "config.parse_config.s": total["config.parse_config"],
        "scenario.run_scenario.calls": calls["scenario.run_scenario"],
        "scenario.self.s": self_time["scenario.run_scenario"],
        "scenario.write_transcript_csv.s": total["scenario.write_transcript_csv"],
        "scenario.report_bytes": c["scenario.report_bytes"],
        "protocol.run_session.calls": calls["protocol.run_session"],
        "protocol.run_session.s": total["protocol.run_session"],
        "protocol.round_loop.s": self_time["protocol.run_session"],
        "protocol.sift.s": total["protocol.sift"],
        "protocol.estimate_disturbance.s": total["protocol.estimate_disturbance"],
        "protocol.rounds": c["protocol.rounds"],
        "protocol.lost_ratio": _ratio(c["protocol.lost_rounds"], c["protocol.rounds"]),
        "protocol.key_ratio": _ratio(c["protocol.key_bits"], c["protocol.rounds"]),
        "protocol.abort_ratio": _ratio(c["protocol.aborted"], calls["protocol.run_session"]),
        "channel.transmit.calls": c["channel.transmit"],
        "channel.transmit_bell.calls": c["channel.transmit_bell"],
        "channel.loss_ratio": _ratio(c["channel.lost"], transmits),
        "adversary.intervene.calls": c["adversary.intervene"],
        "adversary.engaged_ratio": _ratio(c["adversary.engaged"], c["adversary.intervene"]),
        "adversary.ancilla_apply.calls": c["adversary.ancilla_apply"],
        "adversary.ancilla_apply.s": tracer.busy["adversary.ancilla_apply"],
        "adversary.eve_accuracy.s": total["adversary.eve_accuracy"],
        "qstate.measure.calls": c["qstate.measure"],
        "qstate.prepare.calls": c["qstate.prepare"],
        "postproc.privacy_amplify.calls": calls["postproc.privacy_amplify"],
        "postproc.universal_hash.calls": calls["postproc.universal_hash"],
        "postproc.universal_hash.s": total["postproc.universal_hash"],
        "postproc.hash_bits_in": c["postproc.hash_bits_in"],
        "postproc.hash_bits_out": c["postproc.hash_bits_out"],
        "postproc.hash_ops_computed": c["postproc.hash_ops_computed"],
    }
