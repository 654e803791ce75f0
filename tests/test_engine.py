"""Consistency of the column engine with its RoundRecord view.

The transcript keeps its rounds as numpy columns; ``transcript.rounds``
renders them as RoundRecord objects.  Sifting, disturbance estimation
and the transcript CSV must tell the same story from either side, for
every protocol and every attack that applies to it.
"""

import csv
import io
import math

import pytest

from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec
from qkdsim.kinds import ProtocolKind
from qkdsim.protocol import (
    Announcement,
    RoundColumns,
    RoundMode,
    SessionConfig,
    estimate_disturbance,
    run_session,
    sift,
    transcript_csv,
)
from qkdsim.qstate import BellLabel, Encoding

PAIRS = [
    (ProtocolKind.BB84, AttackKind.NO_ATTACK),
    (ProtocolKind.BB84, AttackKind.INTERCEPT_RESEND),
    (ProtocolKind.BB84, AttackKind.ANCILLA_UBE),
    (ProtocolKind.MCAS_BB84, AttackKind.NO_ATTACK),
    (ProtocolKind.MCAS_BB84, AttackKind.INTERCEPT_RESEND),
    (ProtocolKind.MCAS_BB84, AttackKind.MITM_MCAS_X),
    (ProtocolKind.MCAS_BB84, AttackKind.ANCILLA_UBE),
    (ProtocolKind.LM05, AttackKind.NO_ATTACK),
    (ProtocolKind.LM05, AttackKind.INTERCEPT_RESEND),
    (ProtocolKind.LM05, AttackKind.MITM_LM05),
    (ProtocolKind.LM05, AttackKind.ANCILLA_UBE),
    (ProtocolKind.PING_PONG, AttackKind.NO_ATTACK),
    (ProtocolKind.PING_PONG, AttackKind.MITM_PING_PONG),
]


def lossy_noisy_session(protocol, attack_kind, seed=61):
    return run_session(SessionConfig(
        protocol=protocol, n_rounds=3000, seed=seed,
        channel=ChannelSpec.for_protocol(protocol, 0.8, 0.05),
        attack=AttackSpec(attack_kind, 0.6, f0=0.9, f_plus=0.7)))


def render_rows(rounds) -> str:
    """The transcript CSV written one RoundRecord at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "mode", "prep", "action", "result", "lost", "eve_touched"])
    for rec in rounds:
        if rec.action is None:
            action = ""
        elif isinstance(rec.action, Encoding):
            action = rec.action.value
        else:
            action = f"{rec.action.basis.value}:{rec.action.bit}"
        if rec.bob_result is None:
            result = ""
        elif isinstance(rec.bob_result, BellLabel):
            result = rec.bob_result.value
        else:
            result = str(rec.bob_result)
        writer.writerow([rec.index, rec.mode.value, rec.prep.value, action, result,
                         "true" if rec.lost else "false",
                         "true" if rec.eve_touched else "false"])
    return buf.getvalue()


@pytest.mark.parametrize("protocol,attack_kind", PAIRS,
                         ids=[f"{p.value}-{a.value}" for p, a in PAIRS])
class TestColumnsAgreeWithRecords:
    def test_sift_and_estimate_on_records(self, protocol, attack_kind):
        transcript = lossy_noisy_session(protocol, attack_kind)
        assert 0 < sum(r.lost for r in transcript.rounds) < len(transcript.rounds)
        assert sift(protocol, transcript.rounds) == (transcript.alice_key, transcript.bob_key)
        assert estimate_disturbance(protocol, transcript.rounds) == transcript.disturbance

    def test_csv_matches_row_rendering(self, protocol, attack_kind):
        transcript = lossy_noisy_session(protocol, attack_kind)
        assert transcript_csv(transcript) == render_rows(transcript.rounds)

    def test_records_round_trip(self, protocol, attack_kind):
        transcript = lossy_noisy_session(protocol, attack_kind)
        rounds = transcript.rounds
        assert RoundColumns.from_records(rounds).records(protocol) == rounds
        for rec in rounds:
            assert rec.action is None or protocol.is_two_way
            assert isinstance(rec.action, Announcement) == (
                rec.action is not None and rec.mode is RoundMode.CONTROL)


def test_empty_round_list():
    assert sift(ProtocolKind.LM05, []) == ("", "")
    est = estimate_disturbance(ProtocolKind.LM05, [])
    assert est.d_mm is None and est.d_cm is None and est.n_mm == est.n_cm == 0


@pytest.mark.parametrize("protocol", [ProtocolKind.BB84, ProtocolKind.LM05,
                                      ProtocolKind.MCAS_BB84])
@pytest.mark.parametrize("f0,f_plus", [(1.0, 0.5), (0.9, 0.7), (0.75, 0.95)])
def test_ancilla_mm_disturbance(protocol, f0, f_plus):
    """The probe keeps a computational carrier with probability f0 and a
    diagonal one with probability f_plus.  BB84 and LM05 key on both
    bases equally, so D_MM = 1 - (f0 + f_plus)/2; mcasBB84 keys on the
    computational basis alone, so there D_MM = 1 - f0."""
    cfg = SessionConfig(
        protocol=protocol, n_rounds=60000, seed=62,
        channel=ChannelSpec.for_protocol(protocol),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 1.0, f0=f0, f_plus=f_plus))
    est = run_session(cfg).disturbance
    if protocol is ProtocolKind.MCAS_BB84:
        expected = 1.0 - f0
    else:
        expected = 1.0 - (f0 + f_plus) / 2.0
    assert est.n_mm >= 1500
    bound = 4 * math.sqrt(max(expected * (1 - expected), 1e-12) / est.n_mm)
    assert abs(est.d_mm - expected) <= bound
