"""Tests for the protocol state machines, sifting and disturbance logic."""

import math
from dataclasses import fields

import numpy as np
import pytest

from qkdsim.adversary import AttackKind, AttackSpec
from qkdsim.channel import ChannelSpec
from qkdsim.kinds import ProtocolKind
from qkdsim.protocol import (
    Announcement,
    DisturbanceEstimate,
    RoundColumns,
    RoundMode,
    SessionConfig,
    abort_decision,
    estimate_disturbance,
    run_session,
    sift,
    transcript_csv,
)
from qkdsim.qstate import BellLabel, Encoding

_FLAGS = ("cm", "acted", "lost", "eve", "disclosed")


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
    """n kept message rounds with all codes 0, except the given columns.

    Basis codes are 0 for Z and 1 for X; a value broadcasts over the rounds.
    """
    cols = {f.name: np.zeros(n, dtype=bool if f.name in _FLAGS else np.uint8)
            for f in fields(RoundColumns)}
    cols["eve_bit"] = np.full(n, -1, dtype=np.int8)
    for name, value in given.items():
        cols[name][:] = value
    return RoundColumns(**cols)


class TestCleanSessions:
    def test_lm05_noiseless_keys_agree(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 1000))
        assert len(transcript.alice_key) > 0
        assert transcript.alice_key == transcript.bob_key
        est = transcript.disturbance
        assert est.d_cm == 0.0
        assert est.d_mm == 0.0
        assert not transcript.aborted

    def test_pp_noiseless_iy_rounds_decode_bunched(self):
        """Flip-encoded message rounds come back as the bunching label."""
        transcript = run_session(make_cfg(ProtocolKind.PING_PONG, 1000))
        checked = 0
        for rec in transcript.rounds:
            if rec.mode is RoundMode.MESSAGE and rec.action is Encoding.IY:
                assert rec.bob_result is BellLabel.PSI_PLUS
                checked += 1
            elif rec.mode is RoundMode.MESSAGE and rec.action is Encoding.IDENTITY:
                assert rec.bob_result is BellLabel.PSI_MINUS
        assert checked > 100

    def test_bb84_yield_is_half(self):
        transcript = run_session(make_cfg(ProtocolKind.BB84, 1000, cm_fraction=0.0))
        assert transcript.alice_key == transcript.bob_key
        # Basis match halves the rounds; disclosure removes another 10%.
        kept = len(transcript.alice_key) + transcript.disturbance.n_mm
        assert abs(kept - 500) <= 3 * math.sqrt(1000 * 0.25)

    def test_mcas_noiseless(self):
        transcript = run_session(make_cfg(ProtocolKind.MCAS_BB84, 2000))
        assert transcript.alice_key == transcript.bob_key
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
        mism = sum(transcript.alice_key[i] != transcript.bob_key[i]
                   for i in range(len(transcript.alice_key)))
        rate = (mism + est.d_mm * est.n_mm) / (len(transcript.alice_key) + est.n_mm)
        n = len(transcript.alice_key) + est.n_mm
        assert abs(rate - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)


class TestLoss:
    def test_loss_reduces_yield_only(self):
        cfg = make_cfg(ProtocolKind.LM05, 4000, seed=12,
                       channel=ChannelSpec(0.7, 0.0, legs=2))
        transcript = run_session(cfg)
        assert transcript.alice_key == transcript.bob_key
        lost = sum(1 for r in transcript.rounds if r.lost)
        # Round trip survival 0.49.
        assert abs(lost / 4000 - (1 - 0.49)) <= 4 * math.sqrt(0.25 / 4000)
        for rec in transcript.rounds:
            assert rec.lost == (rec.bob_result is None)

    def test_opaque_channel_aborts_no_yield(self):
        cfg = make_cfg(ProtocolKind.LM05, 50, seed=13,
                       channel=ChannelSpec(0.0, 0.0, legs=2))
        transcript = run_session(cfg)
        assert transcript.aborted
        assert transcript.abort_reason == "no-yield"
        assert transcript.alice_key == "" and transcript.bob_key == ""


class TestSift:
    def test_lm05_keeps_all_message_rounds(self):
        alice, bob = sift(ProtocolKind.LM05, make_columns(1000, acted=True))
        assert len(alice) == len(bob) == 1000

    def test_bb84_keeps_matching_bases(self):
        # Preparations ZERO, ZERO, PLUS; Bob measures in Z, X, X.
        cols = make_columns(3, prep_basis=[0, 0, 1], bob_basis=[0, 1, 1], result=[0, 1, 0])
        assert sift(ProtocolKind.BB84, cols) == ("00", "00")

    def test_lost_rounds_never_contribute(self):
        assert sift(ProtocolKind.BB84, make_columns(1, lost=True)) == ("", "")

    def test_disclosed_rounds_removed(self):
        cols = make_columns(10, acted=True, act_bit=1, result=1)
        cols.disclosed[3] = True
        alice, bob = sift(ProtocolKind.LM05, cols)
        assert len(alice) == 9

    def test_keys_equal_length_always(self):
        for protocol in ProtocolKind:
            transcript = run_session(make_cfg(protocol, 500, seed=14))
            assert len(transcript.alice_key) == len(transcript.bob_key)
            assert len(transcript.eve_key) == len(transcript.alice_key)


class TestDisturbanceEstimation:
    def test_clean_session_zero(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 3000, seed=15))
        est = transcript.disturbance
        assert est.d_mm == 0.0 and est.d_cm == 0.0
        assert est.n_cm > 0 and est.n_mm > 0

    @pytest.mark.parametrize("presence,expected", [(0.25, 0.125), (0.4, 0.2), (1.0, 0.5)])
    def test_lm05_mitm_detection_rate(self, presence, expected):
        """Valid control rounds fail with probability exactly presence/2
        (decoy enumeration); the estimate agrees within 4 sigma."""
        cfg = make_cfg(ProtocolKind.LM05, 20000, seed=16,
                       attack=AttackSpec(AttackKind.MITM_LM05, presence))
        est = run_session(cfg).disturbance
        bound = 4 * math.sqrt(expected * (1 - expected) / est.n_cm)
        assert abs(est.d_cm - expected) <= bound

    @pytest.mark.parametrize("presence,expected", [(0.25, 0.125), (1.0, 0.5)])
    def test_pp_mitm_detection_rate(self, presence, expected):
        cfg = make_cfg(ProtocolKind.PING_PONG, 20000, seed=16,
                       attack=AttackSpec(AttackKind.MITM_PING_PONG, presence))
        est = run_session(cfg).disturbance
        bound = 4 * math.sqrt(expected * (1 - expected) / est.n_cm)
        assert abs(est.d_cm - expected) <= bound

    def test_no_control_rounds_flagged(self):
        transcript = run_session(make_cfg(ProtocolKind.LM05, 200, seed=17,
                                          cm_fraction=0.0))
        assert transcript.disturbance.d_cm is None
        assert transcript.disturbance.n_cm == 0

    def test_half_width_formula(self):
        # Preparation ZERO, announced in Z: outcome 1 in the first 25 rounds.
        est = estimate_disturbance(ProtocolKind.LM05, make_columns(
            100, cm=True, acted=True, act_bit=[1] * 25 + [0] * 75, result=1))
        assert est.d_cm == 0.25
        assert est.half_width_95 == pytest.approx(1.96 * math.sqrt(0.25 * 0.75 / 100))

    def test_lm05_mismatched_bases_discarded(self):
        # Preparation ZERO, announcement X:0.
        est = estimate_disturbance(ProtocolKind.LM05, make_columns(
            1, cm=True, acted=True, act_basis=1))
        assert est.n_cm == 0 and est.d_cm is None


class TestAbortDecision:
    def _estimate(self, d_mm=None, d_cm=None, n_mm=0, n_cm=0):
        return DisturbanceEstimate(d_mm, d_cm, n_mm, n_cm, 0.0)

    def test_mcas_threshold_exceeded(self):
        cfg = make_cfg(ProtocolKind.MCAS_BB84, d_pd_cm=0.05)
        assert abort_decision(self._estimate(d_mm=0.0, d_cm=0.06, n_mm=10, n_cm=100), cfg)

    def test_bb84_hard_threshold(self):
        cfg = make_cfg(ProtocolKind.BB84)
        assert abort_decision(self._estimate(d_mm=0.12, n_mm=100), cfg)
        assert not abort_decision(self._estimate(d_mm=0.11, n_mm=100), cfg)

    def test_clean_proceeds(self):
        cfg = make_cfg(ProtocolKind.MCAS_BB84, d_pd_cm=0.05)
        assert not abort_decision(self._estimate(d_mm=0.0, d_cm=0.0, n_mm=10, n_cm=100), cfg)

    def test_two_way_without_extension_never_aborts(self):
        cfg = make_cfg(ProtocolKind.LM05)
        assert not abort_decision(self._estimate(d_mm=0.0, d_cm=0.5, n_mm=10, n_cm=100), cfg)

    def test_two_way_with_extension(self):
        cfg = make_cfg(ProtocolKind.LM05, enforce_cm_threshold=True, d_pd_cm=0.1)
        assert abort_decision(self._estimate(d_mm=0.0, d_cm=0.2, n_mm=10, n_cm=100), cfg)

    def test_missing_control_sample_aborts(self):
        cfg = make_cfg(ProtocolKind.MCAS_BB84)
        assert abort_decision(self._estimate(d_mm=0.0, n_mm=10), cfg)


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
        assert first.alice_key == second.alice_key
        assert first.eve_key == second.eve_key

    def test_different_seeds_differ(self):
        a = run_session(make_cfg(ProtocolKind.LM05, 500, seed=1))
        b = run_session(make_cfg(ProtocolKind.LM05, 500, seed=2))
        assert a.alice_key != b.alice_key


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
        transcript = run_session(make_cfg(ProtocolKind.LM05, 400, seed=21))
        for rec in transcript.rounds:
            if rec.lost:
                continue
            if rec.mode is RoundMode.MESSAGE:
                assert isinstance(rec.action, Encoding)
            else:
                assert isinstance(rec.action, Announcement)


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

    def test_two_way_needs_even_legs(self):
        with pytest.raises(ValueError, match="even leg count"):
            make_cfg(ProtocolKind.LM05, channel=ChannelSpec(1.0, 0.0, legs=3))
