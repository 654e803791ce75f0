"""Consistency of the column engine with its RoundRecord view.

The transcript keeps its rounds as numpy columns; ``transcript.rounds``
renders them as RoundRecord objects.  The transcript CSV written from
the columns must equal the one written row by row from the records, for
every protocol and every attack that applies to it.
"""

import csv
import io
import math
from dataclasses import fields, replace

import pytest

from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec
from qkdsim.kinds import ProtocolKind
from qkdsim.protocol import (
    _CSV_BLOCK_ROWS,
    RoundColumns,
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
        channel=ChannelSpec(0.8, 0.05),
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
    def test_csv_matches_row_rendering(self, protocol, attack_kind):
        transcript = lossy_noisy_session(protocol, attack_kind)
        text = transcript_csv(transcript)
        # Lines, not one string: a failure then reports the first differing row.
        assert text.splitlines() == render_rows(transcript.rounds).splitlines()
        assert text.endswith("\n")


# One pair per kernel family: one-way, LM05, ping-pong.
FAMILIES = [
    (ProtocolKind.BB84, AttackKind.INTERCEPT_RESEND),
    (ProtocolKind.LM05, AttackKind.MITM_LM05),
    (ProtocolKind.PING_PONG, AttackKind.MITM_PING_PONG),
]
# Where the index gains a digit, and the block boundaries of the writer.
EDGE_ROWS = [1, 9, 10, 11, 99, 100, 101, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
             _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 1]


@pytest.fixture(scope="module", params=FAMILIES, ids=[p.value for p, _ in FAMILIES])
def long_session(request):
    """A lossy, noisy session of max(EDGE_ROWS) rounds and its row-by-row CSV lines."""
    protocol, attack_kind = request.param
    transcript = run_session(SessionConfig(
        protocol=protocol, n_rounds=max(EDGE_ROWS), seed=63,
        channel=ChannelSpec(0.8, 0.05),
        attack=AttackSpec(attack_kind, 0.6)))
    return transcript, render_rows(transcript.rounds).splitlines()


@pytest.mark.parametrize("n", EDGE_ROWS)
def test_csv_at_digit_and_block_edges(long_session, n):
    """The CSV of the first n rounds equals the first n rows of the reference."""
    transcript, lines = long_session
    cols = transcript.columns
    head = replace(transcript, columns=RoundColumns(
        **{f.name: getattr(cols, f.name)[:n] for f in fields(cols)}))
    text = transcript_csv(head)
    # Lines, not one string: a failure then reports the first differing row.
    assert text.splitlines() == lines[:n + 1] and text.endswith("\n")


@pytest.mark.parametrize("protocol,attack_kind", FAMILIES,
                         ids=[p.value for p, _ in FAMILIES])
def test_csv_of_session_without_yield(protocol, attack_kind):
    transcript = run_session(SessionConfig(
        protocol=protocol, n_rounds=1001, seed=64,
        channel=ChannelSpec(0.0, 0.05),
        attack=AttackSpec(attack_kind, 0.6)))
    assert transcript.abort_reason == "no-yield"
    assert transcript_csv(transcript).splitlines() == render_rows(transcript.rounds).splitlines()


def test_empty_round_list():
    cols = lossy_noisy_session(ProtocolKind.LM05, AttackKind.NO_ATTACK).columns
    empty = RoundColumns(**{f.name: getattr(cols, f.name)[:0] for f in fields(cols)})
    assert sift(ProtocolKind.LM05, empty) == ("", "")
    est = estimate_disturbance(ProtocolKind.LM05, empty)
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
        channel=ChannelSpec(),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 1.0, f0=f0, f_plus=f_plus))
    est = run_session(cfg).disturbance
    if protocol is ProtocolKind.MCAS_BB84:
        expected = 1.0 - f0
    else:
        expected = 1.0 - (f0 + f_plus) / 2.0
    assert est.n_mm >= 1500
    bound = 4 * math.sqrt(max(expected * (1 - expected), 1e-12) / est.n_mm)
    assert abs(est.d_mm - expected) <= bound
