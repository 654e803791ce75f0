"""Eavesdropper strategies as intervention hooks on the channel legs.

The copy attacks (``MITM_LM05``, ``MITM_PING_PONG``) park the genuine
carrier in Eve's quantum memory on the outgoing leg and substitute a
decoy of her own.  She reads the sender's encoding off the returned
decoy, replays it onto the stored carrier and forwards that, so message
rounds decode exactly as encoded while every copied bit is genuine.
Only control rounds, where the encoding party measures what is in fact
Eve's decoy, can reveal her.

``INTERCEPT_RESEND`` measures and re-emits in a policy basis on the
outgoing leg.  ``MITM_MCAS_X`` is the same strategy fixed to the
computational basis, i.e. the message basis of the message/control
asymmetric protocol, whose message rounds it therefore never disturbs.

``ANCILLA_UBE`` couples the outgoing carrier to a four-dimensional probe
with configurable basis fidelities; see :class:`AncillaInteraction`.

Eve's presence is drawn per round (Bernoulli p), which makes the
control-mode detection rate exactly p/2 in expectation.
"""

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .qstate import Basis, BellLabel, CanonState, Encoding, apply_encoding, measure, prepare

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import Transcript

_BASES = (Basis.Z, Basis.X)

MIN_FIDELITY = 0.5


class AttackKind(Enum):
    NO_ATTACK = "none"
    INTERCEPT_RESEND = "intercept_resend"
    MITM_PING_PONG = "mitm_pp"
    MITM_LM05 = "mitm_lm05"
    MITM_MCAS_X = "mitm_mcas_x"
    ANCILLA_UBE = "ancilla_ube"


class BasisPolicy(Enum):
    FIXED_Z = "fixed_z"
    FIXED_X = "fixed_x"
    RANDOM = "random"


@dataclass(frozen=True)
class AttackSpec:
    """Which adversary runs, with presence fraction and parameters.

    The ancilla fidelities follow the symmetric convention: f0 covers
    both computational states, f_plus both diagonal ones; their range is
    checked for every kind.
    """

    kind: AttackKind = AttackKind.NO_ATTACK
    presence: float = 0.0
    basis_policy: BasisPolicy = BasisPolicy.RANDOM
    f0: float = 1.0
    f_plus: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.presence <= 1.0:
            raise ValueError(f"presence out of [0, 1]: {self.presence!r}")
        _check_fidelities(self.f0, self.f_plus)


def _check_fidelities(f0: float, f_plus: float) -> None:
    for name, value in (("f0", f0), ("f_plus", f_plus)):
        if not MIN_FIDELITY <= value <= 1.0:
            raise ValueError(f"{name} out of [{MIN_FIDELITY}, 1]: {value!r}")


def xi_from_fidelities(f0: float, f_plus: float) -> float:
    """The key-rate argument xi = f_plus - (1 - f0).

    Uses the identification c1^2 = 1 - f0 and c++^2 = f_plus.
    """
    _check_fidelities(f0, f_plus)
    return f_plus - (1.0 - f0)


class AncillaInteraction:
    """Two-parameter probe coupling with configurable basis fidelities.

    The probe isometry keeps a computational input in place with
    probability f0 and a diagonal one with probability f_plus.  The kept
    and flipped branches attach probe states in orthogonal subspaces, so
    the carrier leaves as a classical keep/flip mixture in its own basis;
    probe states within a subspace overlap by 2 f_plus - 1, which is what
    lets f_plus vary while fully orthogonal probes would pin it to 1/2.
    For every f0 and f_plus in [1/2, 1] the isometry exists, and the
    reduced carrier state is all the protocols ever observe;
    ``tests/test_adversary.py`` builds the isometry and checks the branch
    weights exactly.
    """

    def __init__(self, f0: float, f_plus: float):
        _check_fidelities(f0, f_plus)
        self.f0 = f0
        self.f_plus = f_plus

    def apply(self, state: CanonState, rng: random.Random) -> CanonState:
        """Couple the carrier to a fresh probe and trace the probe out.

        The carrier is kept when ``rng.random()`` falls below f0 (Z
        inputs) or f_plus (X inputs) and flipped within its basis
        otherwise, which reproduces all downstream statistics exactly.
        """
        keep = self.f0 if state.basis is Basis.Z else self.f_plus
        return state if rng.random() < keep else state.flipped


class EveAccuracy(NamedTuple):
    """Coverage of the key and correctness on the covered bits."""

    coverage: float | None
    accuracy: float | None


class EveState:
    """Eve's memory within one round of the per-round hooks.

    ``engaged`` is the round's presence draw.  The copy attacks park the
    genuine carrier in ``delayed_carrier`` and remember the decoy they
    sent in ``decoy_record``; ``_pending_bit`` is the key bit Eve
    inferred in the round, on control rounds as on message rounds.
    """

    def __init__(self, attack: AttackSpec):
        self.engaged = False
        self.delayed_carrier: CanonState | BellLabel | None = None
        self.decoy_record: CanonState | BellLabel | None = None
        self._pending_bit: int | None = None
        self.ancilla: AncillaInteraction | None = None
        if attack.kind is AttackKind.ANCILLA_UBE:
            self.ancilla = AncillaInteraction(attack.f0, attack.f_plus)

    def begin_round(self, attack: AttackSpec, rng: random.Random) -> None:
        """Reset per-round state and draw the engagement flag."""
        self.delayed_carrier = None
        self.decoy_record = None
        self._pending_bit = None
        if attack.kind is AttackKind.NO_ATTACK:
            self.engaged = False
        else:
            self.engaged = rng.random() < attack.presence


def _policy_basis(policy: BasisPolicy, rng: random.Random) -> Basis:
    if policy is BasisPolicy.FIXED_Z:
        return Basis.Z
    if policy is BasisPolicy.FIXED_X:
        return Basis.X
    return _BASES[rng.randrange(2)]


def intervene_forward(attack: AttackSpec, st: EveState, carrier, rng: random.Random):
    """Eve's hook on the outgoing leg (toward the encoding party).

    Runs at the sender's side, so whatever Eve emits traverses the same
    channel legs a genuine carrier would: the attacks neither change the
    loss signature nor add noise of their own.
    """
    if attack.kind is AttackKind.NO_ATTACK or not st.engaged:
        return carrier
    kind = attack.kind
    if kind is AttackKind.MITM_LM05:
        st.delayed_carrier = carrier
        decoy = prepare(_BASES[rng.randrange(2)], rng.randrange(2))
        st.decoy_record = decoy
        return decoy
    if kind is AttackKind.MITM_PING_PONG:
        st.delayed_carrier = carrier
        st.decoy_record = BellLabel.PSI_MINUS
        return BellLabel.PSI_MINUS
    if kind is AttackKind.INTERCEPT_RESEND:
        basis = _policy_basis(attack.basis_policy, rng)
        bit, post = measure(carrier, basis, rng)
        st._pending_bit = bit
        return post
    if kind is AttackKind.MITM_MCAS_X:
        # Measure-and-resend in the message basis of the asymmetric
        # protocol (computational states pass through untouched).
        bit, post = measure(carrier, Basis.Z, rng)
        st._pending_bit = bit
        return post
    if kind is AttackKind.ANCILLA_UBE:
        return st.ancilla.apply(carrier, rng)
    raise ValueError(f"unknown attack kind: {kind!r}")


def intervene_backward(attack: AttackSpec, st: EveState, carrier, rng: random.Random):
    """Eve's hook on the return leg of a two-way round.

    For the copy attacks: measure the returned decoy in its preparation
    basis, infer the encoding, replay it onto the stored carrier and
    forward that.  Being at the receiver's doorstep, the forwarded
    carrier traverses no further fiber.
    """
    if attack.kind is AttackKind.NO_ATTACK or not st.engaged:
        return carrier
    if attack.kind in (AttackKind.MITM_LM05, AttackKind.MITM_PING_PONG):
        if st.delayed_carrier is None:
            raise RuntimeError("backward hook called without a stored carrier")
        decoy = st.decoy_record
        if attack.kind is AttackKind.MITM_LM05:
            bit, _ = measure(carrier, decoy.basis, rng)
            unchanged = bit == decoy.bit
        else:
            # Ideal Bell-state discrimination reads the label itself.
            unchanged = carrier is decoy
        encoding = Encoding.IDENTITY if unchanged else Encoding.IY
        st._pending_bit = encoding.bit
        out = apply_encoding(st.delayed_carrier, encoding)
        st.delayed_carrier = None
        return out
    # Forward-leg-only strategies leave the return leg untouched.
    return carrier


def eve_accuracy(transcript: "Transcript") -> EveAccuracy:
    """Coverage and correctness of Eve's raw key against the sifted key.

    Key bits Eve never engaged on (-1 in ``eve_key``) are excluded rather
    than scored as guesses; coverage is the fraction she holds.  Accuracy
    is None when nothing is covered, and both are None for an empty key.
    """
    alice, eve = transcript.alice_key, transcript.eve_key
    if not len(alice):
        return EveAccuracy(None, None)
    covered = eve >= 0
    n_covered = int(np.count_nonzero(covered))
    coverage = n_covered / len(alice)
    if not n_covered:
        return EveAccuracy(coverage, None)
    hits = int(np.count_nonzero(covered & (alice == eve)))
    return EveAccuracy(coverage, hits / n_covered)
