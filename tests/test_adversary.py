"""Tests for the eavesdropper hooks, the probe interaction and Eve scoring."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qkdsim.adversary import (
    AncillaInteraction,
    AttackKind,
    AttackSpec,
    BasisPolicy,
    EveState,
    eve_accuracy,
    intervene_backward,
    intervene_forward,
    xi_from_fidelities,
)
from qkdsim.channel import ChannelSpec
from qkdsim.harness.config import _SCHEMA, ConfigError, parse_config
from qkdsim.harness.selftest import decoy, error_rate, intercept_resend
from qkdsim.protocol import ProtocolKind, SessionConfig, run_session
from qkdsim.qstate import Basis, BellLabel, CanonState, Encoding, apply_encoding


class TestOracles:
    def test_intercept_resend_rate_is_one_quarter(self):
        for policy in BasisPolicy:
            assert error_rate(intercept_resend(policy)) == Fraction(1, 4)

    def test_lm05_cm_failure_is_one_half(self):
        assert error_rate(decoy) == Fraction(1, 2)


class TestAttackSpec:
    def test_presence_range(self):
        with pytest.raises(ValueError):
            AttackSpec(AttackKind.MITM_LM05, 1.5)

    def test_fidelity_range(self):
        with pytest.raises(ValueError):
            AttackSpec(AttackKind.ANCILLA_UBE, 1.0, f0=0.4)

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_fidelity_range_for_every_kind(self, kind):
        with pytest.raises(ValueError, match="^f_plus"):
            AttackSpec(kind, f_plus=1.2)

    def test_from_string(self):
        parse = _SCHEMA["attack"]["kind"]
        assert parse("mitm_lm05") is AttackKind.MITM_LM05
        with pytest.raises(ValueError):
            parse("bogus")


# The config key each spelled type is read from, and the error for a word it
# does not know.
_SPELLED_KEYS = {
    ProtocolKind: ("session", "protocol", "unknown protocol kind"),
    AttackKind: ("attack", "kind", "unknown attack kind"),
    BasisPolicy: ("attack", "basis_policy", "unknown basis policy"),
    bool: ("session", "enforce_cm_threshold", "not a boolean"),
}
# Every accepted spelling of a spelled key and the value it names.
_SPELLINGS = [
    ("bb84", ProtocolKind.BB84), ("pp", ProtocolKind.PING_PONG),
    ("pingpong", ProtocolKind.PING_PONG), ("ping_pong", ProtocolKind.PING_PONG),
    ("lm05", ProtocolKind.LM05), ("mcasbb84", ProtocolKind.MCAS_BB84),
    ("mcas_bb84", ProtocolKind.MCAS_BB84),
    ("none", AttackKind.NO_ATTACK), ("no_attack", AttackKind.NO_ATTACK),
    ("intercept_resend", AttackKind.INTERCEPT_RESEND), ("ir", AttackKind.INTERCEPT_RESEND),
    ("mitm_pp", AttackKind.MITM_PING_PONG), ("mitm_pingpong", AttackKind.MITM_PING_PONG),
    ("mitm_lm05", AttackKind.MITM_LM05), ("mitm_mcas_x", AttackKind.MITM_MCAS_X),
    ("ancilla_ube", AttackKind.ANCILLA_UBE),
    ("fixed_z", BasisPolicy.FIXED_Z), ("fixed_x", BasisPolicy.FIXED_X),
    ("random", BasisPolicy.RANDOM),
    ("true", True), ("yes", True), ("1", True), ("on", True),
    ("false", False), ("no", False), ("0", False), ("off", False),
]


class TestSpellings:
    """Every spelled key reads its words through the config layer's one rule."""

    def test_every_value_is_a_spelling(self):
        members = (*ProtocolKind, *AttackKind, *BasisPolicy)
        assert {(m.value, m) for m in members} <= set(_SPELLINGS)
        assert {type(value) for _, value in _SPELLINGS} == set(_SPELLED_KEYS)
        assert len(_SPELLINGS) == 27

    @pytest.mark.parametrize("text, member", _SPELLINGS, ids=[t for t, _ in _SPELLINGS])
    def test_spelling_maps_to_its_member(self, text, member):
        section, key, _ = _SPELLED_KEYS[type(member)]
        parse = _SCHEMA[section][key]
        for variant in (text, text.upper(), f"  {text}\t", f" {text.upper()} "):
            assert parse(variant) is member

    @pytest.mark.parametrize("kind", list(_SPELLED_KEYS))
    @pytest.mark.parametrize("text", ["bogus", "", "ping-pong", "mitm", "PP_", "maybe", "2"])
    def test_unknown_spelling_is_named(self, tmp_path, kind, text):
        section, key, error = _SPELLED_KEYS[kind]
        path = tmp_path / "scenario.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(str(path))
        assert str(info.value) == f"line 2: bad value for {key!r}: {error}: {text!r}"


class TestXiFromFidelities:
    def test_no_attack(self):
        assert xi_from_fidelities(1.0, 1.0) == 1.0

    def test_z_measured_forward(self):
        assert xi_from_fidelities(1.0, 0.5) == 0.5

    def test_x_measured_forward(self):
        assert xi_from_fidelities(0.5, 1.0) == 0.5

    def test_range(self):
        with pytest.raises(ValueError):
            xi_from_fidelities(0.4, 1.0)
        with pytest.raises(ValueError):
            xi_from_fidelities(1.0, 1.01)


class TestForwardHook:
    def test_no_attack_passthrough(self):
        attack = AttackSpec()
        st = EveState(attack)
        st.begin_round(attack, random.Random(0))
        carrier = CanonState.PLUS
        assert intervene_forward(attack, st, carrier, random.Random(1)) is carrier

    def test_not_engaged_passthrough(self):
        attack = AttackSpec(AttackKind.MITM_LM05, 0.0)
        st = EveState(attack)
        st.begin_round(attack, random.Random(0))
        carrier = CanonState.PLUS
        assert intervene_forward(attack, st, carrier, random.Random(1)) is carrier

    def test_lm05_decoy_uniform_and_storage(self):
        attack = AttackSpec(AttackKind.MITM_LM05, 1.0)
        rng = random.Random(2)
        seen = set()
        for _ in range(400):
            st = EveState(attack)
            st.begin_round(attack, rng)
            carrier = CanonState.PLUS
            decoy_state = intervene_forward(attack, st, carrier, rng)
            assert st.delayed_carrier is carrier
            assert decoy_state is st.decoy_record
            seen.add(st.decoy_record)
        assert seen == set(CanonState)

    def test_pp_decoy_is_fresh_source_pair(self):
        attack = AttackSpec(AttackKind.MITM_PING_PONG, 1.0)
        st = EveState(attack)
        st.begin_round(attack, random.Random(3))
        out = intervene_forward(attack, st, BellLabel.PSI_MINUS, random.Random(4))
        assert out is BellLabel.PSI_MINUS
        assert st.delayed_carrier is BellLabel.PSI_MINUS

    def test_mcas_attack_reemits_message_basis_eigenstate(self):
        """The asymmetric-protocol attack measures in the message
        (computational) basis, so computational carriers pass unchanged."""
        attack = AttackSpec(AttackKind.MITM_MCAS_X, 1.0)
        rng = random.Random(5)
        for state in (CanonState.ZERO, CanonState.ONE):
            for _ in range(50):
                st = EveState(attack)
                st.begin_round(attack, rng)
                out = intervene_forward(attack, st, state, rng)
                assert out is state
        outs = set()
        for _ in range(100):
            st = EveState(attack)
            st.begin_round(attack, rng)
            outs.add(intervene_forward(attack, st, CanonState.PLUS, rng))
        assert outs == {CanonState.ZERO, CanonState.ONE}


class TestBackwardHook:
    def _engaged_state(self, attack, rng):
        st = EveState(attack)
        st.begin_round(attack, rng)
        assert st.engaged
        return st

    def test_lm05_inference_and_replay(self):
        """Returned decoy encoded with iY: Eve reads 1 and flips the
        stored carrier the same way."""
        attack = AttackSpec(AttackKind.MITM_LM05, 1.0)
        rng = random.Random(6)
        st = self._engaged_state(attack, rng)
        intervene_forward(attack, st, CanonState.PLUS, rng)
        returned = apply_encoding(st.decoy_record, Encoding.IY)
        out = intervene_backward(attack, st, returned, rng)
        assert st._pending_bit == 1
        assert out is CanonState.MINUS
        assert st.delayed_carrier is None

    def test_pp_inference_and_replay(self):
        attack = AttackSpec(AttackKind.MITM_PING_PONG, 1.0)
        rng = random.Random(7)
        st = self._engaged_state(attack, rng)
        intervene_forward(attack, st, BellLabel.PSI_MINUS, rng)
        out = intervene_backward(attack, st, BellLabel.PSI_PLUS, rng)
        assert st._pending_bit == 1
        assert out is BellLabel.PSI_PLUS

    def test_backward_without_stored_carrier_faults(self):
        attack = AttackSpec(AttackKind.MITM_LM05, 1.0)
        rng = random.Random(8)
        st = self._engaged_state(attack, rng)
        with pytest.raises(RuntimeError, match="stored carrier"):
            intervene_backward(attack, st, CanonState.ZERO, rng)

    def test_not_engaged_passthrough(self):
        attack = AttackSpec(AttackKind.MITM_LM05, 0.0)
        st = EveState(attack)
        st.begin_round(attack, random.Random(9))
        carrier = CanonState.ONE
        assert intervene_backward(attack, st, carrier, random.Random(10)) is carrier


class TestMitmInvariants:
    @pytest.mark.parametrize("protocol,attack_kind", [
        (ProtocolKind.LM05, AttackKind.MITM_LM05),
        (ProtocolKind.PING_PONG, AttackKind.MITM_PING_PONG),
    ])
    @pytest.mark.parametrize("presence", [0.3, 1.0])
    def test_flip_free_in_mm(self, protocol, attack_kind, presence):
        """Every engaged message round returns the encoded preparation."""
        cfg = SessionConfig(
            protocol=protocol, n_rounds=4000, seed=42,
            channel=ChannelSpec(),
            attack=AttackSpec(attack_kind, presence))
        cols = run_session(cfg).columns
        engaged_mm = ~cols.cm & ~cols.lost & cols.eve
        # The encoding flips the preparation's bit (LM05, read in the
        # preparation basis) or toggles the source pair label (pp, whose
        # prep_bit column is the source label 0).
        returned = cols.prep_bit ^ cols.act_bit
        assert np.array_equal(cols.result[engaged_mm], returned[engaged_mm])
        assert engaged_mm.any()

    @pytest.mark.parametrize("protocol,attack_kind", [
        (ProtocolKind.LM05, AttackKind.MITM_LM05),
        (ProtocolKind.PING_PONG, AttackKind.MITM_PING_PONG),
    ])
    def test_copied_bits_always_correct(self, protocol, attack_kind):
        """Eve's inference is self-consistent: every copied bit equals
        the encoded bit (noiseless line)."""
        cfg = SessionConfig(
            protocol=protocol, n_rounds=4000, seed=43,
            channel=ChannelSpec(),
            attack=AttackSpec(attack_kind, 0.7))
        transcript = run_session(cfg)
        assert len(transcript.eve_key)
        for alice_bit, eve_bit in zip(transcript.alice_key, transcript.eve_key):
            if eve_bit != -1:
                assert eve_bit == alice_bit

    def test_intercept_resend_baseline_rate(self):
        """BB84 sifted error under always-on random-basis intercept-resend
        matches the enumerated 1/4 within 4 sigma."""
        cfg = SessionConfig(
            protocol=ProtocolKind.BB84, n_rounds=240000, seed=44, cm_fraction=0.0,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0, BasisPolicy.RANDOM))
        transcript = run_session(cfg)
        est = transcript.disturbance
        expected = float(error_rate(intercept_resend(BasisPolicy.RANDOM)))
        assert est.n_mm >= 10000
        bound = 4 * math.sqrt(expected * (1 - expected) / est.n_mm)
        assert abs(est.d_mm - expected) <= bound

    @pytest.mark.parametrize("policy", [BasisPolicy.FIXED_Z, BasisPolicy.FIXED_X])
    def test_intercept_resend_fixed_policies(self, policy):
        """Fixed-basis interception shows the same enumerated rate."""
        cfg = SessionConfig(
            protocol=ProtocolKind.BB84, n_rounds=40000, seed=45, cm_fraction=0.0,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0, policy))
        est = run_session(cfg).disturbance
        expected = float(error_rate(intercept_resend(policy)))
        bound = 4 * math.sqrt(expected * (1 - expected) / est.n_mm)
        assert abs(est.d_mm - expected) <= bound

    def test_copy_attack_is_noise_transparent(self):
        """With per-leg flip noise q, engaged rounds show the same message
        error rate 2q(1-q) as unengaged ones: the decoy picks up exactly
        the flips a genuine carrier would have."""
        q = 0.08
        expected = 2 * q * (1 - q)
        cfg = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=60000, seed=52,
            channel=ChannelSpec(1.0, q),
            attack=AttackSpec(AttackKind.MITM_LM05, 1.0))
        transcript = run_session(cfg)
        est = transcript.disturbance
        n = len(transcript.alice_key) + est.n_mm
        rate = (est.key_errors + est.mm_failed) / n
        assert abs(rate - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)

    def test_copy_attack_is_loss_transparent(self):
        """The attack does not change the loss signature: the decoy
        traverses the same legs a genuine carrier would."""
        rates = []
        for presence in (0.0, 1.0):
            cfg = SessionConfig(
                protocol=ProtocolKind.LM05, n_rounds=40000, seed=53,
                channel=ChannelSpec(0.8, 0.0),
                attack=AttackSpec(AttackKind.MITM_LM05, presence))
            transcript = run_session(cfg)
            rates.append(np.count_nonzero(transcript.columns.lost) / 40000)
        expected = 1 - 0.8 ** 2
        for rate in rates:
            assert abs(rate - expected) <= 4 * math.sqrt(expected * (1 - expected) / 40000)

    def test_mcas_attack_never_flips_message_rounds(self):
        cfg = SessionConfig(
            protocol=ProtocolKind.MCAS_BB84, n_rounds=8000, seed=45,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.MITM_MCAS_X, 1.0))
        cols = run_session(cfg).columns
        z_mm = ~cols.cm & ~cols.lost & (cols.bob_basis == 0)
        assert np.array_equal(cols.result[z_mm], cols.prep_bit[z_mm])


class TestCoverageModel:
    @pytest.mark.parametrize("presence", [0.2, 0.5, 1.0])
    def test_analytic_model_matches_monte_carlo(self, presence):
        """The copied-fraction curve eve_info_mitm(d_cm) = 2 d_cm agrees
        with the simulated coverage within combined 4-sigma bounds."""
        from qkdsim.infotheory import eve_info_mitm
        cfg = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=20000, seed=51,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.MITM_LM05, presence))
        transcript = run_session(cfg)
        est = transcript.disturbance
        coverage = eve_accuracy(transcript).coverage
        model = eve_info_mitm(min(est.d_cm, 0.5))
        sigma_cov = math.sqrt(presence * (1 - presence) / len(transcript.alice_key))
        sigma_model = 2 * math.sqrt((presence / 2) * (1 - presence / 2) / est.n_cm)
        assert abs(coverage - model) <= 4 * (sigma_cov + sigma_model)


def probe_isometry(f0, f_plus):
    """The probe isometry V as an 8 x 2 matrix.

    Rows are indexed by carrier_bit * 4 + probe_index, columns by the
    computational input.  Kept branches attach probe states in
    span{e1, e2}, flipped ones in span{e3, e4}; within a subspace the two
    probe states overlap by 2 f_plus - 1.
    """
    overlap = 2.0 * f_plus - 1.0
    keep, leak = math.sqrt(f0), math.sqrt(1.0 - f0)
    ortho = math.sqrt(1.0 - overlap * overlap)
    v = np.zeros((8, 2))
    v[0:4, 0] = keep * np.array([1.0, 0.0, 0.0, 0.0])
    v[4:8, 0] = leak * np.array([0.0, 0.0, 1.0, 0.0])
    v[4:8, 1] = keep * np.array([overlap, ortho, 0.0, 0.0])
    v[0:4, 1] = leak * np.array([0.0, 0.0, overlap, ortho])
    return v


class ScriptedRandom:
    """An rng whose random() returns the given values, then fails."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


FIDELITY_PAIRS = [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.75, 0.8), (0.9, 0.6)]


class TestAncillaInteraction:
    def test_construction_validates_range(self):
        with pytest.raises(ValueError):
            AncillaInteraction(0.3, 1.0)

    @pytest.mark.parametrize("f0,f_plus", FIDELITY_PAIRS)
    def test_apply_keeps_exactly_below_fidelity(self, f0, f_plus):
        """One random() draw u per call: the carrier is kept exactly when
        u < f0 (computational inputs) or u < f_plus (diagonal inputs),
        and otherwise leaves as the other state of its basis."""
        interaction = AncillaInteraction(f0, f_plus)
        for state in CanonState:
            target = f0 if state.basis is Basis.Z else f_plus
            draws = {0.0, math.nextafter(target, 0.0), target,
                     math.nextafter(target, 1.0), math.nextafter(1.0, 0.0)}
            for u in sorted(d for d in draws if d < 1.0):
                rng = ScriptedRandom([u])
                want = state if u < target else state.flipped
                assert interaction.apply(state, rng) is want
                with pytest.raises(StopIteration):
                    rng.random()

    def test_no_attack_configuration_is_identity(self):
        interaction = AncillaInteraction(1.0, 1.0)
        rng = random.Random(47)
        for state in CanonState:
            assert interaction.apply(state, rng) is state

    def test_branch_probes_orthogonal_with_exact_weights(self):
        """V is an isometry, and the keep and flip branches attach
        orthogonal probe states for every protocol input, with branch
        weights equal to the configured fidelities.  This is what makes
        the keep/flip coin of ``apply`` an exact model of the carrier's
        reduced state."""
        r = 2 ** -0.5
        eig = {(Basis.Z, 0): np.array([1.0, 0.0]), (Basis.Z, 1): np.array([0.0, 1.0]),
               (Basis.X, 0): np.array([r, r]), (Basis.X, 1): np.array([r, -r])}
        for f0 in (0.5, 0.75, 1.0):
            for f_plus in (0.5, 0.8, 1.0):
                matrix = probe_isometry(f0, f_plus)
                assert np.allclose(matrix.T @ matrix, np.eye(2), rtol=0.0, atol=1e-12)
                for state in CanonState:
                    joint = (matrix @ eig[(state.basis, state.bit)]).reshape(2, 4)
                    keep = eig[(state.basis, state.bit)].conj() @ joint
                    flip = eig[(state.basis, 1 - state.bit)].conj() @ joint
                    assert abs(np.vdot(keep, flip)) < 1e-12
                    target = f0 if state.basis is Basis.Z else f_plus
                    assert abs(np.vdot(keep, keep).real - target) < 1e-12

    def test_session_with_ancilla_attack_runs(self):
        cfg = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=20000, seed=48,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.ANCILLA_UBE, 1.0, f0=1.0, f_plus=0.5))
        transcript = run_session(cfg)
        # The forward probe scrambles half the diagonal rounds; the
        # resulting message disturbance is 1/4 on average.
        assert transcript.disturbance.d_mm == pytest.approx(0.25, abs=0.05)


class TestEveAccuracy:
    def _transcript(self, presence, seed=49):
        cfg = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=8000, seed=seed,
            channel=ChannelSpec(),
            attack=AttackSpec(AttackKind.MITM_LM05, presence))
        return run_session(cfg)

    def test_full_presence_full_copy(self):
        acc = eve_accuracy(self._transcript(1.0))
        assert acc.coverage == 1.0 and acc.accuracy == 1.0

    def test_absent_eve(self):
        acc = eve_accuracy(self._transcript(0.0))
        assert acc.coverage == 0.0 and acc.accuracy is None

    def test_half_presence(self):
        transcript = self._transcript(0.5)
        acc = eve_accuracy(transcript)
        bound = 4 * math.sqrt(0.25 / len(transcript.alice_key))
        assert abs(acc.coverage - 0.5) <= bound
        assert acc.accuracy == 1.0

    def test_empty_key_flagged(self):
        cfg = SessionConfig(
            protocol=ProtocolKind.LM05, n_rounds=2, seed=50, cm_fraction=0.0,
            channel=ChannelSpec(0.0, 0.0))
        transcript = run_session(cfg)
        acc = eve_accuracy(transcript)
        assert acc.coverage is None and acc.accuracy is None
