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

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .qstate import (
    Basis,
    BellLabel,
    CanonState,
    Encoding,
    PureState,
    apply_encoding,
    bell_measure,
    canon_for,
    measure,
    pp_encode,
    prepare,
)

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import Transcript

_BASES = (Basis.Z, Basis.X)
_CANON = (CanonState.ZERO, CanonState.ONE, CanonState.PLUS, CanonState.MINUS)

MIN_FIDELITY = 0.5


class AttackKind(Enum):
    NO_ATTACK = "none"
    INTERCEPT_RESEND = "intercept_resend"
    MITM_PING_PONG = "mitm_pp"
    MITM_LM05 = "mitm_lm05"
    MITM_MCAS_X = "mitm_mcas_x"
    ANCILLA_UBE = "ancilla_ube"

    @classmethod
    def from_string(cls, text: str) -> "AttackKind":
        aliases = {
            "none": cls.NO_ATTACK,
            "no_attack": cls.NO_ATTACK,
            "intercept_resend": cls.INTERCEPT_RESEND,
            "ir": cls.INTERCEPT_RESEND,
            "mitm_pp": cls.MITM_PING_PONG,
            "mitm_pingpong": cls.MITM_PING_PONG,
            "mitm_lm05": cls.MITM_LM05,
            "mitm_mcas_x": cls.MITM_MCAS_X,
            "ancilla_ube": cls.ANCILLA_UBE,
        }
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown attack kind: {text!r}") from None


class BasisPolicy(Enum):
    FIXED_Z = "fixed_z"
    FIXED_X = "fixed_x"
    RANDOM = "random"

    @classmethod
    def from_string(cls, text: str) -> "BasisPolicy":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown basis policy: {text!r}") from None


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

    The isometry keeps a computational input in place with probability
    f0 and a diagonal one with probability f_plus.  The kept and flipped
    branches attach probe states in orthogonal subspaces, so the carrier
    leaves as a classical keep/flip mixture in its own basis; probe
    states within a subspace overlap by 2 f_plus - 1, which is what lets
    f_plus vary while fully orthogonal probes would pin it to 1/2.
    Construction verifies isometry numerically and rejects violations.
    """

    def __init__(self, f0: float, f_plus: float):
        _check_fidelities(f0, f_plus)
        self.f0 = f0
        self.f_plus = f_plus
        overlap = 2.0 * f_plus - 1.0
        keep = math.sqrt(f0)
        leak = math.sqrt(1.0 - f0)
        ortho = math.sqrt(max(0.0, 1.0 - overlap * overlap))
        # Probe vectors in C^4: kept branches live in span{e1, e2},
        # flipped branches in span{e3, e4}.
        a0 = np.array([1.0, 0.0, 0.0, 0.0])
        a1 = np.array([overlap, ortho, 0.0, 0.0])
        b0 = np.array([0.0, 0.0, 1.0, 0.0])
        b1 = np.array([0.0, 0.0, overlap, ortho])
        # Rows indexed by carrier_bit * 4 + probe_index; columns by the
        # computational input.
        v = np.zeros((8, 2))
        v[0:4, 0] = keep * a0
        v[4:8, 0] = leak * b0
        v[4:8, 1] = keep * a1
        v[0:4, 1] = leak * b1
        gram = v.T @ v
        if not np.allclose(gram, np.eye(2), atol=1e-10):
            raise ValueError(f"fidelity configuration is not unitary: V^T V = {gram!r}")
        self._matrix = v

    def apply(self, state: PureState, basis: Basis, rng: random.Random) -> PureState:
        """Couple the carrier to a fresh probe and trace the probe out.

        The two branches carry orthogonal probe states for every
        protocol input, so the reduced carrier state is a keep/flip
        mixture in ``basis`` and a stochastic collapse reproduces all
        downstream statistics exactly.
        """
        amps = np.array([state.amp0, state.amp1], dtype=complex)
        joint = self._matrix.astype(complex) @ amps
        if basis is Basis.Z:
            kept = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        else:
            r = 1.0 / math.sqrt(2.0)
            kept = np.array([r, r]), np.array([r, -r])
        joint_view = joint.reshape(2, 4)
        p0 = float(np.sum(np.abs(kept[0].conj() @ joint_view) ** 2))
        bit = 0 if rng.random() < p0 else 1
        return prepare(canon_for(basis, bit))


class EveAccuracy(NamedTuple):
    """Coverage of the key and correctness on the covered bits."""

    coverage: float
    accuracy: float | None


class EveState:
    """Eve's per-session memory.

    ``copied_bits`` maps round index to the inferred key bit and grows
    only on engaged message rounds; inference happens identically on
    control rounds but the meaningless bit is dropped once the round
    mode becomes public.
    """

    def __init__(self, attack: AttackSpec):
        self.copied_bits: dict[int, int] = {}
        self.engaged = False
        self.delayed_carrier: PureState | BellLabel | None = None
        self.decoy_record: CanonState | BellLabel | None = None
        self.emitted_basis: Basis | None = None
        self._round_index: int | None = None
        self._pending_bit: int | None = None
        self.ancilla: AncillaInteraction | None = None
        if attack.kind is AttackKind.ANCILLA_UBE:
            self.ancilla = AncillaInteraction(attack.f0, attack.f_plus)

    def begin_round(self, index: int, attack: AttackSpec, rng: random.Random) -> None:
        """Reset per-round state and draw the engagement flag."""
        self._round_index = index
        self.delayed_carrier = None
        self.decoy_record = None
        self.emitted_basis = None
        self._pending_bit = None
        if attack.kind is AttackKind.NO_ATTACK:
            self.engaged = False
        else:
            self.engaged = rng.random() < attack.presence

    def commit_round(self, is_message_mode: bool) -> None:
        """Keep the round's inferred bit only if the round carried a message."""
        if is_message_mode and self.engaged and self._pending_bit is not None:
            self.copied_bits[self._round_index] = self._pending_bit
        self._pending_bit = None


def _policy_basis(policy: BasisPolicy, rng: random.Random) -> Basis:
    if policy is BasisPolicy.FIXED_Z:
        return Basis.Z
    if policy is BasisPolicy.FIXED_X:
        return Basis.X
    return _BASES[rng.randrange(2)]


def _nominal_basis(state: PureState) -> Basis:
    """The preparation basis of a protocol carrier (eigenstate up to phase)."""
    w0 = abs(state.amp0) ** 2
    if w0 > 1.0 - 1e-9 or w0 < 1e-9:
        return Basis.Z
    if abs(w0 - 0.5) < 1e-9:
        return Basis.X
    raise ValueError(f"carrier is not a protocol eigenstate: {state!r}")


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
        decoy = _CANON[rng.randrange(4)]
        st.decoy_record = decoy
        st.emitted_basis = decoy.basis
        return prepare(decoy)
    if kind is AttackKind.MITM_PING_PONG:
        st.delayed_carrier = carrier
        st.decoy_record = BellLabel.PSI_MINUS
        return BellLabel.PSI_MINUS
    if kind is AttackKind.INTERCEPT_RESEND:
        basis = _policy_basis(attack.basis_policy, rng)
        bit, post = measure(carrier, basis, rng)
        st._pending_bit = bit
        st.emitted_basis = basis
        return post
    if kind is AttackKind.MITM_MCAS_X:
        # Measure-and-resend in the message basis of the asymmetric
        # protocol (computational states pass through untouched).
        bit, post = measure(carrier, Basis.Z, rng)
        st._pending_bit = bit
        st.emitted_basis = Basis.Z
        return post
    if kind is AttackKind.ANCILLA_UBE:
        return st.ancilla.apply(carrier, _nominal_basis(carrier), rng)
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
    kind = attack.kind
    if kind is AttackKind.MITM_LM05:
        if st.delayed_carrier is None:
            raise RuntimeError("backward hook called without a stored carrier")
        decoy = st.decoy_record
        bit, _ = measure(carrier, decoy.basis, rng)
        encoding = Encoding.IDENTITY if bit == decoy.bit else Encoding.IY
        st._pending_bit = encoding.bit
        out = apply_encoding(st.delayed_carrier, encoding)
        st.delayed_carrier = None
        return out
    if kind is AttackKind.MITM_PING_PONG:
        if st.delayed_carrier is None:
            raise RuntimeError("backward hook called without a stored carrier")
        label = bell_measure(carrier)
        encoding = Encoding.IDENTITY if label is st.decoy_record else Encoding.IY
        st._pending_bit = encoding.bit
        out = pp_encode(st.delayed_carrier, encoding)
        st.delayed_carrier = None
        return out
    # Forward-leg-only strategies leave the return leg untouched.
    return carrier


def eve_accuracy(transcript: "Transcript") -> EveAccuracy:
    """Coverage and correctness of Eve's raw key against the sifted key.

    Key bits Eve never engaged on are excluded rather than scored as
    guesses; coverage reports the excluded fraction.  Accuracy is None
    when nothing is covered, and both are NaN/None for an empty key.
    """
    if not transcript.alice_key:
        return EveAccuracy(float("nan"), None)
    alice = np.frombuffer(transcript.alice_key.encode("ascii"), dtype=np.uint8)
    eve = np.frombuffer(transcript.eve_key.encode("ascii"), dtype=np.uint8)
    covered = eve != ord("?")
    n_covered = int(np.count_nonzero(covered))
    coverage = n_covered / len(alice)
    if not n_covered:
        return EveAccuracy(coverage, None)
    hits = int(np.count_nonzero(covered & (alice == eve)))
    return EveAccuracy(coverage, hits / n_covered)
