"""Consistency of the column engine with its transcript CSV.

The transcript keeps its rounds as numpy columns; ``transcript.rounds``
transposes them into one RoundRecord per round.  The transcript CSV
written from the columns must equal the one this module renders row by
row from each round's raw fields, with the field text and the ping-pong
and loss rules spelled out here, for every protocol and every attack
that applies to it.  The engine's selects are bitwise arithmetic, so the
columns' dtypes and 0/1 values are checked as well: a bool flag turned
uint8 would make ``~`` give 254 or 255.
"""

import csv
import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec
from qkdsim.protocol import (
    _CSV_BLOCK_ROWS,
    _FIELD_RADIX,
    _FIELD_TEXT,
    ProtocolKind,
    RoundColumns,
    RoundRecord,
    SessionConfig,
    _csv_tables,
    _select,
    estimate_disturbance,
    run_session,
    sift,
    transcript_csv,
)

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


# Field text, by column code: basis 0 is Z and 1 is X, a canonical state is
# 2 * basis + bit, and a pair label bit 0 is the source state.
BASES = ("Z", "X")
STATES = ("zero", "one", "plus", "minus")
ENCODINGS = ("I", "iY")
PAIR_LABELS = ("psi_minus", "psi_plus")
FLAGS = ("false", "true")


def render_rows(transcript) -> str:
    """The transcript CSV written one round at a time from its raw fields."""
    pp = transcript.config.protocol is ProtocolKind.PING_PONG
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "mode", "prep", "action", "result", "lost", "eve_touched"])
    for r in transcript.rounds:
        # A ping-pong round always starts from the source pair.
        prep = PAIR_LABELS[0] if pp else STATES[2 * r.prep_basis + r.prep_bit]
        if not r.acted:  # one-way, or lost before the encoder
            action = ""
        elif r.cm:
            action = f"{BASES[r.act_basis]}:{r.act_bit}"
        else:
            action = ENCODINGS[r.act_bit]
        if r.lost:
            result = ""
        elif pp and not r.cm:
            result = PAIR_LABELS[r.result]
        else:
            result = str(r.result)
        writer.writerow([r.index, "CM" if r.cm else "MM", prep, action, result,
                         FLAGS[r.lost], FLAGS[r.eve]])
    return buf.getvalue()


FLAG_COLUMNS = ("cm", "acted", "lost", "eve", "valid", "disclosed")
BIT_COLUMNS = ("prep_basis", "prep_bit", "act_basis", "act_bit", "bob_basis", "result",
               "sent", "got")


@pytest.mark.parametrize("protocol,attack_kind", PAIRS,
                         ids=[f"{p.value}-{a.value}" for p, a in PAIRS])
class TestColumnsAgreeWithRecords:
    def test_csv_matches_row_rendering(self, protocol, attack_kind):
        transcript = lossy_noisy_session(protocol, attack_kind)
        text = transcript_csv(transcript)
        # Lines, not one string: a failure then reports the first differing row.
        assert text.splitlines() == render_rows(transcript).splitlines()
        assert text.endswith("\n")

    def test_rounds_transpose_the_columns(self, protocol, attack_kind):
        transcript = lossy_noisy_session(protocol, attack_kind)
        cols, rounds = transcript.columns, transcript.rounds
        names = [f.name for f in fields(cols)]
        assert RoundRecord._fields == ("index", *names)
        assert len(rounds) == transcript.config.n_rounds
        assert [r.index for r in rounds] == list(range(len(rounds)))
        for name in names:
            assert [getattr(r, name) for r in rounds] == getattr(cols, name).tolist(), name

    def test_column_dtypes(self, protocol, attack_kind):
        cols = lossy_noisy_session(protocol, attack_kind).columns
        for name in FLAG_COLUMNS:
            assert getattr(cols, name).dtype == np.bool_, name
        for name in BIT_COLUMNS:
            column = getattr(cols, name)
            assert column.dtype == np.uint8 and np.isin(column, (0, 1)).all(), name
        eve_bit = cols.eve_bit
        assert eve_bit.dtype == np.int8 and np.isin(eve_bit, (-1, 0, 1)).all()
        assert cols.eve[eve_bit >= 0].all()


@pytest.mark.parametrize("cond_dtype", [np.bool_, np.uint8])
def test_select_matches_where(cond_dtype):
    """_select(cond, a, b) is np.where(cond, a, b) on 0/1 uint8 columns and a
    bool or 0/1 condition: all eight input combinations, then random columns."""
    combos = np.array([(c, x, y) for c in (0, 1) for x in (0, 1) for y in (0, 1)],
                      dtype=np.uint8).T
    random_columns = np.random.default_rng(5).integers(0, 2, size=(3, 10001), dtype=np.uint8)
    for cond, a, b in (combos, random_columns):
        cond = cond.astype(cond_dtype)
        got = _select(cond, a, b)
        assert got.dtype == np.uint8 and np.array_equal(got, np.where(cond, a, b))


# One pair per kernel family: one-way, LM05, ping-pong.
FAMILIES = [
    (ProtocolKind.BB84, AttackKind.INTERCEPT_RESEND),
    (ProtocolKind.LM05, AttackKind.MITM_LM05),
    (ProtocolKind.PING_PONG, AttackKind.MITM_PING_PONG),
]
# Where the index gains a digit, where the writer's blocks end at multiples
# of 2**12 rows, and where they end at multiples of 10**4.
EDGE_ROWS = [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001,
             *(k * _CSV_BLOCK_ROWS + d for k in (1, 4) for d in (-1, 0, 1)),
             2 * _CSV_BLOCK_ROWS + 1, 8 * _CSV_BLOCK_ROWS + 1,
             *(k * 10000 + d for k in (2, 3) for d in (-1, 0, 1))]


@pytest.fixture(scope="module", params=FAMILIES, ids=[p.value for p, _ in FAMILIES])
def long_session(request):
    """A lossy, noisy session of max(EDGE_ROWS) rounds and its row-by-row CSV lines."""
    protocol, attack_kind = request.param
    transcript = run_session(SessionConfig(
        protocol=protocol, n_rounds=max(EDGE_ROWS), seed=63,
        channel=ChannelSpec(0.8, 0.05),
        attack=AttackSpec(attack_kind, 0.6)))
    return transcript, render_rows(transcript).splitlines()


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


def test_csv_tables():
    """Each field code's table row is its text after the index, and the row
    lengths allow the writer's placement: a row of at least 1 + shortest
    bytes holds an 8-byte digit cell and the previous tail's spill.  The
    digit tables hold k < 10**4 as 4 digits and as str(k) with its width."""
    length, head, tail, digits, short, short_width = _csv_tables()
    assert len(length) == len(head) == len(tail) == math.prod(_FIELD_RADIX) == 1400
    for code in range(len(length)):
        ks = np.unravel_index(code, _FIELD_RADIX)
        text = ("," + ",".join(t[k] for t, k in zip(_FIELD_TEXT, ks)) + "\n").encode("ascii")
        assert length[code] == len(text), code
        assert (head[code].tobytes() + tail[code].tobytes())[:len(text)] == text, code
    shortest, longest = length.min(), length.max()
    assert head.itemsize == shortest and head.itemsize + tail.itemsize == longest
    assert tail.itemsize <= 1 + shortest and 8 <= 1 + shortest
    assert digits.dtype == short.dtype == np.dtype("<u4") and short_width.dtype == np.uint8
    assert len(digits) == len(short) == len(short_width) == 10000
    assert digits.tobytes() == "".join(f"{k:04}" for k in range(10000)).encode("ascii")
    for k in range(10000):
        assert short[k:k + 1].tobytes()[:short_width[k]] == str(k).encode("ascii"), k
        assert short_width[k] == len(str(k)), k


@pytest.mark.parametrize("protocol,attack_kind", FAMILIES,
                         ids=[p.value for p, _ in FAMILIES])
def test_csv_of_session_without_yield(protocol, attack_kind):
    transcript = run_session(SessionConfig(
        protocol=protocol, n_rounds=1001, seed=64,
        channel=ChannelSpec(0.0, 0.05),
        attack=AttackSpec(attack_kind, 0.6)))
    assert transcript.abort_reason == "no-yield"
    assert transcript_csv(transcript).splitlines() == render_rows(transcript).splitlines()


def test_empty_round_list():
    cols = lossy_noisy_session(ProtocolKind.LM05, AttackKind.NO_ATTACK).columns
    empty = RoundColumns(**{f.name: getattr(cols, f.name)[:0] for f in fields(cols)})
    alice, bob, eve = sift(empty)
    assert len(alice) == len(bob) == len(eve) == 0
    est = estimate_disturbance(empty, alice, bob)
    assert est.d_mm is None and est.d_cm is None and est.n_mm == est.n_cm == 0
    assert est.key_errors == 0


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
