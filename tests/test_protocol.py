"""Tests for the protocol state machines, sifting and disturbance logic."""

import math
from dataclasses import fields

import numpy as np
import pytest

from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec
from qkdsim.harness.selftest import decoy, error_rate
from qkdsim.protocol import (
    PROTOCOLS,
    DisturbanceEstimate,
    ProtocolKind,
    RoundColumns,
    SessionConfig,
    _abort_reason,
    abort_threshold,
    estimate_disturbance,
    leaked_fraction,
    monitored_rate,
    run_session,
    sift,
    transcript_csv,
)

_FLAGS = ("cm", "acted", "lost", "eve", "valid", "disclosed")
_PAIRS = sorted(((p, k) for p, row in PROTOCOLS.items() for k in row.attacks),
                key=lambda pair: (pair[0].value, pair[1].value))
_PAIR_IDS = [f"{p.value}-{k.value}" for p, k in _PAIRS]

# Each protocol's reading of a round, spelled out from the raw columns:
# (sent, got, valid) on message rounds, then on control rounds.  True
# stands for a round that is always valid.
_MESSAGE_READING = {
    # BB84 keeps the rounds Bob measured in the preparation basis.
    ProtocolKind.BB84: lambda c: (c.prep_bit, c.result, c.bob_basis == c.prep_basis),
    # The asymmetric variant keys on the computational basis.
    ProtocolKind.MCAS_BB84: lambda c: (c.prep_bit, c.result, c.bob_basis == 0),
    # LM05 keeps every message round: Bob decodes outcome XOR prepared bit.
    ProtocolKind.LM05: lambda c: (c.act_bit, c.result ^ c.prep_bit, True),
    # Ping-pong keeps every message round: the label is the encoding.
    ProtocolKind.PING_PONG: lambda c: (c.act_bit, c.result, True),
}
_CONTROL_READING = {
    # BB84 has no control rounds.
    ProtocolKind.BB84: None,
    # The variant's control rounds are the diagonal ones, checked in X.
    ProtocolKind.MCAS_BB84: lambda c: (c.prep_bit, c.result, c.bob_basis == 1),
    # LM05 compares the announced outcome with the preparation, and only
    # where the announced basis is the prepared one.
    ProtocolKind.LM05: lambda c: (c.prep_bit, c.act_bit, c.act_basis == c.prep_basis),
    # A genuine ping-pong pair anticorrelates in Z.
    ProtocolKind.PING_PONG: lambda c: (c.act_bit, 1 - c.result, True),
}


def table_reading(protocol, cols):
    """(sent, got, valid) of every round from the tables above; entries of
    lost rounds mean nothing."""
    n = len(cols.cm)
    message = _MESSAGE_READING[protocol](cols)
    control = _CONTROL_READING[protocol]
    if control is None:
        assert not cols.cm.any()
        control = message
    else:
        control = control(cols)
    return tuple(np.where(cols.cm, np.broadcast_to(c, n), np.broadcast_to(m, n))
                 for m, c in zip(message, control))


def make_cfg(protocol, n_rounds=2000, seed=7, attack=None, channel=None, **kw):
    return SessionConfig(
        protocol=protocol,
        n_rounds=n_rounds,
        seed=seed,
        channel=channel or ChannelSpec(),
        attack=attack or AttackSpec(),
        **kw,
    )


def make_columns(n, **given):
    """n received, valid message rounds with all codes 0, except the given columns.

    Basis codes are 0 for Z and 1 for X; a value broadcasts over the rounds.
    """
    cols = {f.name: np.zeros(n, dtype=bool if f.name in _FLAGS else np.uint8)
            for f in fields(RoundColumns)}
    cols["eve_bit"] = np.full(n, -1, dtype=np.int8)
    cols["valid"][:] = True
    for name, value in given.items():
        cols[name][:] = value
    return RoundColumns(**cols)


class TestCleanSessions:
    def test_lm05_noiseless_keys_agree(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 1000))
        assert len(transcript.alice_key) > 0
        assert np.array_equal(transcript.alice_key, transcript.bob_key)
        est = transcript.disturbance
        assert est.d_cm == 0.0
        assert est.d_mm == 0.0
        assert not transcript.aborted

    def test_pp_noiseless_iy_rounds_decode_bunched(self):
        """Flip-encoded message rounds come back as the bunching label.

        Label bit 1 is PSI_PLUS and 0 the source PSI_MINUS; encoding bit 1
        is iY and 0 the identity.
        """
        cols = run_session(make_cfg(ProtocolKind.PING_PONG, 1000)).columns
        encoded = ~cols.cm & cols.acted
        assert not cols.lost[encoded].any()
        assert np.array_equal(cols.result[encoded], cols.act_bit[encoded])
        assert np.count_nonzero(encoded & (cols.act_bit == 1)) > 100

    def test_bb84_yield_is_half(self):
        transcript = run_session(make_cfg(ProtocolKind.BB84, 1000, cm_fraction=0.0))
        assert np.array_equal(transcript.alice_key, transcript.bob_key)
        # Basis match halves the rounds; disclosure removes another 10%.
        kept = len(transcript.alice_key) + transcript.disturbance.n_mm
        assert abs(kept - 500) <= 3 * math.sqrt(1000 * 0.25)

    def test_mcas_noiseless(self):
        transcript = run_session(make_cfg(ProtocolKind.MCAS_BB84, 2000))
        assert np.array_equal(transcript.alice_key, transcript.bob_key)
        assert transcript.disturbance.d_cm == 0.0
        assert not transcript.aborted

    def test_two_way_keys_full_rate(self):
        """Two-way message rounds all survive sifting (no basis talk)."""
        transcript = run_session(make_cfg(ProtocolKind.LM05, 2000, cm_fraction=0.0))
        kept = len(transcript.alice_key) + transcript.disturbance.n_mm
        assert kept == 2000


class TestNoiseComposition:
    def test_lm05_mm_error_composes_over_two_legs(self):
        """With per-leg flip probability q and no attack, the message
        error rate converges to 2q(1-q) (flip out xor flip back)."""
        q = 0.05
        cfg = make_cfg(ProtocolKind.LM05, 40000, seed=11,
                       channel=ChannelSpec(1.0, q))
        transcript = run_session(cfg)
        expected = 2 * q * (1 - q)
        est = transcript.disturbance
        n = len(transcript.alice_key) + est.n_mm
        rate = (est.key_errors + est.mm_failed) / n
        assert abs(rate - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)


class TestLoss:
    def test_loss_reduces_yield_only(self):
        cfg = make_cfg(ProtocolKind.LM05, 4000, seed=12,
                       channel=ChannelSpec(0.7, 0.0))
        transcript = run_session(cfg)
        assert np.array_equal(transcript.alice_key, transcript.bob_key)
        lost = int(np.count_nonzero(transcript.columns.lost))
        # Round trip survival 0.49.
        assert abs(lost / 4000 - (1 - 0.49)) <= 4 * math.sqrt(0.25 / 4000)
        # A lost round has no result in the transcript, a received one has.
        rows = [line.split(",") for line in transcript_csv(transcript).splitlines()[1:]]
        assert all((row[5] == "true") == (row[4] == "") for row in rows)

    def test_opaque_channel_aborts_no_yield(self):
        cfg = make_cfg(ProtocolKind.LM05, 50, seed=13, channel=ChannelSpec(0.0, 0.0))
        transcript = run_session(cfg)
        assert transcript.aborted
        assert transcript.abort_reason == "no-yield"
        assert len(transcript.alice_key) == len(transcript.bob_key) == 0
        assert transcript.alice_key.dtype == np.uint8 and transcript.eve_key.dtype == np.int8


class TestReading:
    @pytest.mark.parametrize("protocol,kind", _PAIRS, ids=_PAIR_IDS)
    def test_kernels_follow_the_table(self, protocol, kind):
        """On a lossy, noisy line under every compatible attack, each
        received round's sent, got and valid columns are the table's."""
        cfg = make_cfg(protocol, 3000, seed=22, cm_fraction=0.3,
                       channel=ChannelSpec(0.9, 0.05),
                       attack=AttackSpec(kind, 0.6, f0=0.8, f_plus=0.7))
        cols = run_session(cfg).columns
        received = ~cols.lost
        sent, got, valid = table_reading(protocol, cols)
        for name, want in (("sent", sent), ("got", got), ("valid", valid)):
            assert np.array_equal(getattr(cols, name)[received], want[received]), name
        # Every basis check in the table sees rounds on both of its sides.
        for mode, table in ((False, _MESSAGE_READING), (True, _CONTROL_READING)):
            if table[protocol] is not None and table[protocol](cols)[2] is not True:
                rows = received & (cols.cm == mode)
                assert (rows & valid).any() and (rows & ~valid).any()


class TestSift:
    def test_lm05_keeps_all_message_rounds(self):
        """The LM05 kernel marks every received message round valid, so each
        one ends in the key or the disclosed sample."""
        cfg = make_cfg(ProtocolKind.LM05, 1000, seed=23, cm_fraction=0.0,
                       channel=ChannelSpec(0.9, 0.05),
                       attack=AttackSpec(AttackKind.MITM_LM05, 0.6))
        transcript = run_session(cfg)
        cols = transcript.columns
        received = ~cols.lost
        assert cols.valid[received].all()
        alice, bob, eve = sift(cols)
        assert len(alice) == len(bob) == len(eve) == len(transcript.alice_key)
        assert len(alice) + transcript.disturbance.n_mm == int(received.sum())

    def test_lost_rounds_never_contribute(self):
        alice, bob, eve = sift(make_columns(1, lost=True))
        assert len(alice) == len(bob) == len(eve) == 0

    def test_disclosed_rounds_removed(self):
        cols = make_columns(10, sent=1, got=1)
        cols.disclosed[3] = True
        alice, bob, eve = sift(cols)
        assert alice.tolist() == bob.tolist() == [1] * 9 and eve.tolist() == [-1] * 9
        assert alice.dtype == bob.dtype == np.uint8

    def test_keys_equal_length_always(self):
        for protocol in ProtocolKind:
            transcript = run_session(make_cfg(protocol, 500, seed=14))
            assert len(transcript.alice_key) == len(transcript.bob_key)
            assert len(transcript.eve_key) == len(transcript.alice_key)


# A valid control round fails whenever the enumerated decoy reads wrong.
_DECOY_RATE = float(error_rate(decoy))


def _presence_id(presence):
    """Name a copy-attack case by its presence and its target D_CM."""
    return f"{presence}-{presence * _DECOY_RATE}"


class TestDisturbanceEstimation:
    def test_clean_session_zero(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 3000, seed=15))
        est = transcript.disturbance
        assert est.d_mm == 0.0 and est.d_cm == 0.0
        assert est.n_cm > 0 and est.n_mm > 0

    @pytest.mark.parametrize("presence", [0.25, 0.4, 1.0], ids=_presence_id)
    def test_lm05_mitm_detection_rate(self, presence):
        """Valid control rounds fail with probability exactly presence times
        the enumerated decoy rate; the estimate agrees within 4 sigma."""
        cfg = make_cfg(ProtocolKind.LM05, 20000, seed=16,
                       attack=AttackSpec(AttackKind.MITM_LM05, presence))
        est = run_session(cfg).disturbance
        expected = presence * _DECOY_RATE
        bound = 4 * math.sqrt(expected * (1 - expected) / est.n_cm)
        assert abs(est.d_cm - expected) <= bound

    @pytest.mark.parametrize("presence", [0.25, 1.0], ids=_presence_id)
    def test_pp_mitm_detection_rate(self, presence):
        cfg = make_cfg(ProtocolKind.PING_PONG, 20000, seed=16,
                       attack=AttackSpec(AttackKind.MITM_PING_PONG, presence))
        est = run_session(cfg).disturbance
        expected = presence * _DECOY_RATE
        bound = 4 * math.sqrt(expected * (1 - expected) / est.n_cm)
        assert abs(est.d_cm - expected) <= bound

    def test_no_control_rounds_flagged(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 200, seed=17,
                                          cm_fraction=0.0))
        assert transcript.disturbance.d_cm is None
        assert transcript.disturbance.n_cm == 0

    def test_lm05_mismatched_bases_discarded(self):
        """An LM05 control round whose announced basis is not the prepared
        one is invalid and never checked; the matching ones all are."""
        cfg = make_cfg(ProtocolKind.LM05, 2000, seed=24, cm_fraction=0.5,
                       channel=ChannelSpec(0.9, 0.05))
        transcript = run_session(cfg)
        cols = transcript.columns
        control = ~cols.lost & cols.cm
        mismatched = control & (cols.act_basis != cols.prep_basis)
        assert mismatched.any() and not cols.valid[mismatched].any()
        assert transcript.disturbance.n_cm == int((control & ~mismatched).sum())
        # Preparation ZERO, announcement X:0: nothing to check.
        cols = make_columns(1, cm=True, acted=True, act_basis=1, valid=False)
        est = estimate_disturbance(cols, *sift(cols)[:2])
        assert est.n_cm == 0 and est.d_cm is None

    def test_half_width_formula(self):
        # 100 valid control rounds; the first 25 read the wrong bit.
        cols = make_columns(100, cm=True, got=[1] * 25 + [0] * 75)
        est = estimate_disturbance(cols, *sift(cols)[:2])
        assert (est.n_cm, est.cm_failed) == (100, 25) and est.d_cm == 0.25
        assert est.half_width_95 == pytest.approx(1.96 * math.sqrt(0.25 * 0.75 / 100))
        assert DisturbanceEstimate(0, 0, 0, 0, 0).half_width_95 == 0.0

    @pytest.mark.parametrize("protocol,kind", _PAIRS, ids=_PAIR_IDS)
    def test_counts_match_a_recount(self, protocol, kind):
        """On a lossy, noisy line under every compatible attack, the keys and
        the counts equal a recount from the raw columns through the reading
        table, and the rates and the half-width follow from them."""
        cfg = make_cfg(protocol, 3000, seed=22, cm_fraction=0.3,
                       channel=ChannelSpec(0.9, 0.05),
                       attack=AttackSpec(kind, 0.6, f0=0.8, f_plus=0.7))
        transcript = run_session(cfg)
        cols, est = transcript.columns, transcript.disturbance
        sent, got, valid = table_reading(protocol, cols)
        message = ~cols.lost & ~cols.cm & valid
        assert not (cols.disclosed & ~message).any()
        key_rounds = message & ~cols.disclosed
        assert np.array_equal(transcript.alice_key, sent[key_rounds])
        assert np.array_equal(transcript.bob_key, got[key_rounds])
        checked = ~cols.lost & cols.cm & valid
        disclosed = cols.disclosed & ~cols.lost
        assert est == DisturbanceEstimate(
            n_mm=int(disclosed.sum()), mm_failed=int((disclosed & (sent != got)).sum()),
            n_cm=int(checked.sum()), cm_failed=int((checked & (sent != got)).sum()),
            key_errors=int((transcript.alice_key != transcript.bob_key).sum()))
        assert est.n_mm > 0 and est.key_errors > 0
        assert (est.n_cm > 0) == (protocol is not ProtocolKind.BB84)
        assert est.d_mm == est.mm_failed / est.n_mm
        if est.n_cm:
            assert est.d_cm == est.cm_failed / est.n_cm
            assert est.half_width_95 == 1.96 * math.sqrt(est.d_cm * (1 - est.d_cm) / est.n_cm)
        else:
            assert est.d_cm is None and est.half_width_95 == 0.0


# (protocol, enforce_cm_threshold): the abort level at d_pd_cm = 0.1, None
# where the protocol defines none.
_ABORT_LEVELS = {
    (ProtocolKind.BB84, False): 0.11, (ProtocolKind.BB84, True): 0.11,
    (ProtocolKind.MCAS_BB84, False): 0.1, (ProtocolKind.MCAS_BB84, True): 0.1,
    (ProtocolKind.LM05, False): None, (ProtocolKind.LM05, True): 0.1,
    (ProtocolKind.PING_PONG, False): None, (ProtocolKind.PING_PONG, True): 0.1,
}


class TestAbortRule:
    """The one security rule: which rate, its abort level and Eve's leak."""

    @pytest.mark.parametrize("protocol,enforce", list(_ABORT_LEVELS),
                             ids=[f"{p.value}-{e}" for p, e in _ABORT_LEVELS])
    @pytest.mark.parametrize("sample", ["none", "clean", "at-limit", "above", "half"])
    def test_abort_rule_table(self, protocol, enforce, sample):
        cfg = make_cfg(protocol, d_pd_cm=0.1, enforce_cm_threshold=enforce)
        level = _ABORT_LEVELS[protocol, enforce]
        rate = "d_mm" if protocol is ProtocolKind.BB84 else "d_cm"
        assert monitored_rate(cfg) == rate
        assert abort_threshold(cfg) == level
        # 100 monitored samples, judged at the level (d_pd_cm where there is
        # none); the other rate always has a clean sample.
        limit = round(100 * (0.1 if level is None else level))
        sampled = {"none": (0, 0), "clean": (100, 0), "at-limit": (100, limit),
                   "above": (100, limit + 1), "half": (100, 50)}[sample]
        (n_mm, mm_failed), (n_cm, cm_failed) = (
            (sampled, (10, 0)) if rate == "d_mm" else ((10, 0), sampled))
        est = DisturbanceEstimate(n_mm=n_mm, mm_failed=mm_failed, n_cm=n_cm,
                                  cm_failed=cm_failed, key_errors=0)
        exceeded = "mm-disturbance-exceeded" if rate == "d_mm" else "cm-threshold-exceeded"
        missing = "no-message-sample" if rate == "d_mm" else "no-control-sample"
        want = {"none": missing, "above": exceeded, "half": exceeded}.get(sample)
        assert _abort_reason(est, cfg) == (None if level is None else want)
        # Eve's leak reads the same rate: h(d) for BB84, 2 d otherwise.
        d = getattr(est, rate)
        if d is None:
            assert leaked_fraction(est, cfg) is None
        elif rate == "d_mm":
            assert leaked_fraction(est, cfg) == pytest.approx(
                -(d * math.log2(d) + (1 - d) * math.log2(1 - d)) if d else 0.0)
        else:
            assert leaked_fraction(est, cfg) == 2 * d

    def test_leak_clamps_rates_past_one_half(self):
        est = DisturbanceEstimate(n_mm=4, mm_failed=3, n_cm=4, cm_failed=3, key_errors=0)
        assert leaked_fraction(est, make_cfg(ProtocolKind.BB84)) == 1.0
        assert leaked_fraction(est, make_cfg(ProtocolKind.LM05)) == 1.0

    def test_sessions_abort_by_the_rule(self):
        """A live session aborts exactly when the rule says so."""
        attack = {ProtocolKind.BB84: AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0),
                  ProtocolKind.MCAS_BB84: AttackSpec(AttackKind.MITM_MCAS_X, 1.0),
                  ProtocolKind.LM05: AttackSpec(AttackKind.MITM_LM05, 1.0),
                  ProtocolKind.PING_PONG: AttackSpec(AttackKind.MITM_PING_PONG, 1.0)}
        for protocol, enforce in _ABORT_LEVELS:
            transcript = run_session(make_cfg(protocol, 2000, attack=attack[protocol],
                                              d_pd_cm=0.1, enforce_cm_threshold=enforce))
            assert transcript.aborted == (_ABORT_LEVELS[protocol, enforce] is not None)


    def test_bb84_without_a_disclosed_bit_misses_the_message_sample(self):
        """BB84 has no control mode: a 1-round session that disclosed no
        bit aborts for want of the message sample it is judged on."""
        transcript = run_session(make_cfg(ProtocolKind.BB84, 1))
        assert transcript.disturbance.n_mm == 0
        assert transcript.aborted and transcript.abort_reason == "no-message-sample"


class TestDeterminism:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_replay_is_bit_identical(self, protocol):
        attack = {
            ProtocolKind.LM05: AttackSpec(AttackKind.MITM_LM05, 0.5),
            ProtocolKind.PING_PONG: AttackSpec(AttackKind.MITM_PING_PONG, 0.5),
            ProtocolKind.BB84: AttackSpec(AttackKind.INTERCEPT_RESEND, 0.5),
            ProtocolKind.MCAS_BB84: AttackSpec(AttackKind.MITM_MCAS_X, 0.5),
        }[protocol]
        cfg = make_cfg(protocol, 800, seed=18, attack=attack,
                       channel=ChannelSpec(0.9, 0.01))
        first = run_session(cfg)
        second = run_session(cfg)
        assert transcript_csv(first) == transcript_csv(second)
        assert np.array_equal(first.alice_key, second.alice_key)
        assert np.array_equal(first.eve_key, second.eve_key)

    def test_different_seeds_differ(self):
        a = run_session(make_cfg(ProtocolKind.LM05, 500, seed=1))
        b = run_session(make_cfg(ProtocolKind.LM05, 500, seed=2))
        assert not np.array_equal(a.alice_key, b.alice_key)


class TestTranscriptCsv:
    def test_header_and_shape(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 50, seed=19))
        text = transcript_csv(transcript)
        lines = text.splitlines()
        assert lines[0] == "index,mode,prep,action,result,lost,eve_touched"
        assert len(lines) == 51

    def test_round_serialization(self):
        transcript = run_session(make_cfg(
            ProtocolKind.LM05, 200, seed=20,
            attack=AttackSpec(AttackKind.MITM_LM05, 1.0)))
        lines = transcript_csv(transcript).splitlines()[1:]
        modes = {line.split(",")[1] for line in lines}
        assert modes <= {"MM", "CM"}
        eve_flags = {line.split(",")[6] for line in lines}
        assert eve_flags == {"true"}

    def test_mm_rows_carry_encoding_cm_rows_announcement(self):
        """Every received round was acted on: an encoding on a message
        round, an announcement on a control round."""
        cols = run_session(make_cfg(ProtocolKind.LM05, 400, seed=21)).columns
        assert cols.acted[~cols.lost].all()


class TestConfigValidation:
    def test_rounds_positive(self):
        with pytest.raises(ValueError):
            make_cfg(ProtocolKind.LM05, 0)

    def test_cm_fraction_range(self):
        with pytest.raises(ValueError):
            make_cfg(ProtocolKind.LM05, cm_fraction=1.0)

    def test_seed_is_64_bit(self):
        with pytest.raises(ValueError):
            make_cfg(ProtocolKind.LM05, seed=2 ** 64)

    def test_attack_protocol_compatibility(self):
        with pytest.raises(ValueError, match="does not apply"):
            make_cfg(ProtocolKind.BB84, attack=AttackSpec(AttackKind.MITM_LM05, 1.0))
