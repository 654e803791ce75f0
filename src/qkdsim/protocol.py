"""Session engine for the four protocols over canonical-state columns.

Every carrier a session builds is one of the four canonical states, or
for ping-pong one of the two anticorrelated Bell labels, so every Born
probability is 0, 1/2 or 1.  A round therefore reduces to a few boolean
operations on (basis, bit) columns: a same-basis measurement returns the
bit, a cross-basis one a fair coin, the flip iY toggles the bit in
either basis and a channel flip toggles it within the carrier's basis.
One numpy kernel per protocol family (one-way, LM05, ping-pong) runs all
rounds of a session at once and returns a :class:`RoundColumns`.

Leg topology: two-way rounds go sender -> [Eve] -> channel -> encoder ->
channel -> [Eve] -> sender, one-way rounds go preparer -> [Eve] ->
channel -> measurer.  Eve sits at the key party's doorstep, so her
substituted carriers traverse exactly the legs a genuine one would.

Mode scheduling, sifting, disturbance estimation and the abort rule
follow the per-protocol conventions documented on the operations below.
Per-round control-mode consistency checks:

* LM05    - a control round is valid when the encoder's announced
            measurement basis equals the preparer's basis; it fails when
            the announced outcome differs from the prepared state.
* pp      - the encoder measures her pair half in Z and announces; the
            preparer measures his stored half in Z; the pair must
            anticorrelate.
* mcasBB84- control rounds are the diagonal-basis rounds; failure is a
            measured outcome differing from the preparation.

Message-mode disturbance is estimated on a randomly disclosed 10% sample
of the sifted key, which is then discarded from the key.  Everything is
deterministic given the session seed: all draws come in bulk from one
``random.Random(seed)`` stream.
"""

import io
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .adversary import AttackKind, AttackSpec, BasisPolicy
from .channel import ChannelSpec, legs_for
from .infotheory import DEFAULT_D_PD_CM, check_d_pd_cm
from .kinds import ProtocolKind
from .postproc import _bit_string
from .qstate import Basis, BellLabel, CanonState, Encoding

# The per-round primitives stay attributes of this module, and adversary
# keeps its own measure and prepare: the benchmark's traced run
# (perfbench/tracing.py) wraps these names in both places.
from .adversary import intervene_backward, intervene_forward  # noqa: F401
from .channel import transmit, transmit_bell  # noqa: F401
from .qstate import measure, prepare  # noqa: F401

DISCLOSE_FRACTION = 0.1
BB84_ABORT_THRESHOLD = 0.11
DEFAULT_N_ROUNDS = 20000

_Z95 = 1.96
# Column codes: basis 0 is Z and 1 is X; a canonical state is 2 * basis + bit.
_BASES = (Basis.Z, Basis.X)
_CANON = (CanonState.ZERO, CanonState.ONE, CanonState.PLUS, CanonState.MINUS)
_ENCODINGS = (Encoding.IDENTITY, Encoding.IY)
# Pair label bit: 0 is the source state PSI_MINUS, 1 the toggled PSI_PLUS.
_LABELS = (BellLabel.PSI_MINUS, BellLabel.PSI_PLUS)
_TWO_POW_53 = 2.0 ** 53

_COMPATIBLE_ATTACKS = {
    AttackKind.NO_ATTACK: frozenset(ProtocolKind),
    AttackKind.INTERCEPT_RESEND: frozenset(
        {ProtocolKind.BB84, ProtocolKind.MCAS_BB84, ProtocolKind.LM05}),
    AttackKind.MITM_PING_PONG: frozenset({ProtocolKind.PING_PONG}),
    AttackKind.MITM_LM05: frozenset({ProtocolKind.LM05}),
    AttackKind.MITM_MCAS_X: frozenset({ProtocolKind.MCAS_BB84}),
    AttackKind.ANCILLA_UBE: frozenset(
        {ProtocolKind.BB84, ProtocolKind.MCAS_BB84, ProtocolKind.LM05}),
}


class RoundMode(Enum):
    MESSAGE = "MM"
    CONTROL = "CM"


class Announcement(NamedTuple):
    """A publicly announced control-mode measurement."""

    basis: Basis
    bit: int


@dataclass(frozen=True, kw_only=True)
class SessionConfig:
    """Everything one session depends on; identical configs replay identically.

    ``cm_fraction`` is the per-round probability of a control round; BB84
    has no control mode and ignores it.  ``enforce_cm_threshold`` opts
    the two-way protocols into the predetermined abort threshold that the
    asymmetric variant always applies.  A ValueError names the offending
    field first.
    """

    protocol: ProtocolKind
    n_rounds: int = DEFAULT_N_ROUNDS
    seed: int
    cm_fraction: float = 0.2
    channel: ChannelSpec = ChannelSpec()
    attack: AttackSpec = AttackSpec()
    d_pd_cm: float = DEFAULT_D_PD_CM
    enforce_cm_threshold: bool = False

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be positive, got {self.n_rounds!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if not 0.0 <= self.cm_fraction < 1.0:
            raise ValueError(f"cm_fraction out of [0, 1): {self.cm_fraction!r}")
        check_d_pd_cm(self.d_pd_cm)
        if self.protocol not in _COMPATIBLE_ATTACKS[self.attack.kind]:
            raise ValueError(
                f"kind {self.attack.kind.value} does not apply to {self.protocol.value}")
        legs = self.resolved_legs
        if self.protocol.is_two_way and legs % 2 != 0:
            raise ValueError(
                f"legs: two-way protocols need an even leg count, got {legs}")

    @property
    def resolved_legs(self) -> int:
        return self.channel.legs if self.channel.legs is not None else legs_for(self.protocol)


@dataclass(slots=True)
class RoundRecord:
    """One protocol round, as an object.

    ``action`` is the applied Encoding on message rounds of two-way
    protocols, the Announcement on control rounds, and None for one-way
    rounds (the preparation itself carries the intent) or when the
    carrier was lost before the encoder.  ``bob_result`` is the raw
    measured bit or Bell label; None together with ``lost`` means the
    round produced no detection.  ``eve_touched`` is ground truth for
    test oracles only; protocol logic never reads it.
    """

    index: int
    mode: RoundMode
    prep: CanonState | BellLabel
    action: Encoding | Announcement | None
    bob_basis: Basis | None
    bob_result: int | BellLabel | None
    lost: bool
    eve_touched: bool
    disclosed: bool = False


@dataclass(eq=False)
class RoundColumns:
    """A session's rounds as parallel numpy columns, one entry per round.

    Bases and bits are uint8 codes (basis 0 = Z, 1 = X); flags are bool.
    Entries a round does not define (the action of a one-way round, the
    result of a lost one) hold arbitrary bits and are never read.

    * ``prep_basis``/``prep_bit`` - the preparation; a ping-pong pair is
      always the source label, bit 0.
    * ``acted`` - a two-way encoder received the carrier and acted on it.
    * ``act_basis``/``act_bit`` - the encoding bit on message rounds, the
      announced basis and outcome on control rounds.
    * ``bob_basis``/``result`` - the one-way receiver's basis and the raw
      outcome; ping-pong message results are pair label bits.
    * ``eve`` - Eve engaged; ``eve_bit`` - the key bit she inferred on a
      message round, -1 where she holds none.
    """

    cm: np.ndarray
    prep_basis: np.ndarray
    prep_bit: np.ndarray
    acted: np.ndarray
    act_basis: np.ndarray
    act_bit: np.ndarray
    bob_basis: np.ndarray
    result: np.ndarray
    lost: np.ndarray
    eve: np.ndarray
    eve_bit: np.ndarray
    disclosed: np.ndarray

    def records(self, protocol: ProtocolKind) -> list[RoundRecord]:
        """The rounds as RoundRecord objects."""
        two_way = protocol.is_two_way
        pp = protocol is ProtocolKind.PING_PONG
        columns = (self.cm, self.prep_basis, self.prep_bit, self.acted, self.act_basis,
                   self.act_bit, self.bob_basis, self.result, self.lost, self.eve,
                   self.disclosed)
        out = []
        for idx, (cm, pb, pbit, acted, ab, abit, bb, res, lost, eve, disclosed) in enumerate(
                zip(*(c.tolist() for c in columns))):
            if not acted:
                action = None
            elif cm:
                action = Announcement(_BASES[ab], abit)
            else:
                action = _ENCODINGS[abit]
            if lost:
                bob_basis = result = None
            else:
                bob_basis = None if two_way else _BASES[bb]
                result = _LABELS[res] if pp and not cm else res
            out.append(RoundRecord(
                idx, RoundMode.CONTROL if cm else RoundMode.MESSAGE,
                _LABELS[0] if pp else _CANON[2 * pb + pbit], action, bob_basis, result,
                lost, eve, disclosed))
        return out


@dataclass(frozen=True)
class DisturbanceEstimate:
    """Empirical flip rates with sample counts.

    ``d_mm`` is None when no message bits were disclosed, ``d_cm`` when
    no valid control rounds exist (flagged undefined).  The half-width
    is the 95% binomial interval of the control-mode estimate.
    """

    d_mm: float | None
    d_cm: float | None
    n_mm: int
    n_cm: int
    half_width_95: float


@dataclass(frozen=True)
class Transcript:
    """Full session log: config echo, round columns, sifted keys and verdict.

    ``eve_key`` is aligned with the sifted keys; '?' marks key bits from
    rounds Eve did not engage on.  ``rounds`` builds the RoundRecord view
    of the columns on first access.
    """

    config: SessionConfig
    columns: RoundColumns
    alice_key: str
    bob_key: str
    eve_key: str
    disturbance: DisturbanceEstimate
    aborted: bool
    abort_reason: str | None

    @cached_property
    def rounds(self) -> list[RoundRecord]:
        return self.columns.records(self.config.protocol)


def binomial_half_width_95(p_hat: float, n: int) -> float:
    """95% normal-approximation half-width of a binomial proportion."""
    if n <= 0:
        return 0.0
    return _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def _alice_bits(protocol: ProtocolKind, cols: RoundColumns) -> np.ndarray:
    return cols.act_bit if protocol.is_two_way else cols.prep_bit


def _bob_bits(protocol: ProtocolKind, cols: RoundColumns) -> np.ndarray:
    if protocol is ProtocolKind.LM05:
        return cols.result ^ cols.prep_bit
    return cols.result


def _sift_mask(protocol: ProtocolKind, cols: RoundColumns) -> np.ndarray:
    keep = ~cols.lost & ~cols.cm
    if protocol is ProtocolKind.BB84:
        return keep & (cols.bob_basis == cols.prep_basis)
    if protocol is ProtocolKind.MCAS_BB84:
        return keep & (cols.bob_basis == 0)
    return keep


def sift(protocol: ProtocolKind, cols: RoundColumns) -> tuple[str, str]:
    """Distill the key pair from a session's round columns.

    BB84 keeps basis-matched message rounds, the asymmetric variant
    keeps computational-basis ones, and the two-way protocols keep every
    non-lost message round (no basis reconciliation).  Disclosed rounds
    are excluded.
    """
    key = _sift_mask(protocol, cols) & ~cols.disclosed
    return (_bit_string(_alice_bits(protocol, cols)[key]),
            _bit_string(_bob_bits(protocol, cols)[key]))


def _cm_check(protocol: ProtocolKind, cols: RoundColumns) -> tuple[np.ndarray, np.ndarray]:
    """(valid, failed) masks of the control-mode checks."""
    live = cols.cm & ~cols.lost
    if protocol is ProtocolKind.LM05:
        return live & (cols.act_basis == cols.prep_basis), cols.act_bit != cols.prep_bit
    if protocol is ProtocolKind.PING_PONG:
        return live, cols.result == cols.act_bit
    if protocol is ProtocolKind.MCAS_BB84:
        return live & (cols.bob_basis == 1), cols.result != cols.prep_bit
    return np.zeros_like(live), np.zeros_like(live)


def estimate_disturbance(protocol: ProtocolKind, cols: RoundColumns) -> DisturbanceEstimate:
    """Flip rates from the disclosed message sample and the control checks."""
    sample = cols.disclosed & ~cols.lost
    n_mm = int(np.count_nonzero(sample))
    mm_fail = int(np.count_nonzero(
        sample & (_alice_bits(protocol, cols) != _bob_bits(protocol, cols))))
    valid, failed = _cm_check(protocol, cols)
    n_cm = int(np.count_nonzero(valid))
    cm_fail = int(np.count_nonzero(valid & failed))
    d_mm = mm_fail / n_mm if n_mm else None
    d_cm = cm_fail / n_cm if n_cm else None
    half_width = binomial_half_width_95(d_cm, n_cm) if d_cm is not None else 0.0
    return DisturbanceEstimate(d_mm, d_cm, n_mm, n_cm, half_width)


def _abort_reason(est: DisturbanceEstimate, cfg: SessionConfig) -> str | None:
    if cfg.protocol is ProtocolKind.BB84:
        if est.d_mm is None:
            return "no-control-sample"
        if est.d_mm > BB84_ABORT_THRESHOLD:
            return "mm-disturbance-exceeded"
        return None
    threshold_active = cfg.protocol is ProtocolKind.MCAS_BB84 or cfg.enforce_cm_threshold
    if threshold_active:
        if est.d_cm is None:
            return "no-control-sample"
        if est.d_cm > cfg.d_pd_cm:
            return "cm-threshold-exceeded"
    return None


def abort_decision(est: DisturbanceEstimate, cfg: SessionConfig) -> bool:
    """Whether the session must be aborted.

    BB84 aborts above the hard-coded 0.11 message disturbance.  The
    asymmetric variant always enforces its predetermined control-mode
    threshold; the two-way protocols do so only when the optional
    threshold extension is enabled (they have no inherent abort point).
    """
    return _abort_reason(est, cfg) is not None


# ---------------------------------------------------------------- kernels

class _Draws:
    """Bulk draws for one session, n rounds at a time, from its rng.

    A Bernoulli(p) is u < p for a uniform u = k / 2**53, evaluated
    exactly as k < T with T = ceil(p * 2**53), so p = 0 never fires and
    p = 1 always does; a constant p of 0 or 1 draws nothing.  ``p`` may
    be a per-round array.  See :meth:`bernoulli` for how k is drawn.
    """

    def __init__(self, rng: random.Random, n: int):
        self._rng = rng
        self.n = n

    def _bytes(self, count: int) -> np.ndarray:
        return np.frombuffer(self._rng.randbytes(count), dtype=np.uint8)

    def bits(self) -> np.ndarray:
        raw = self._bytes((self.n + 7) // 8)
        return np.unpackbits(raw, count=self.n, bitorder="little")

    def bernoulli(self, p) -> np.ndarray:
        """One coin per round, about one stream byte each (Knuth & Yao).

        Each coin compares a 56-bit uniform V with 8 * T one byte at a
        time, most significant first; floor(V / 8) is uniform on
        [0, 2**53), so V < 8 * T is exactly k < T.  Every round draws its
        first byte, in one ``randbytes(n)``; the rounds whose bytes so far
        all equal the threshold's then draw their next byte together, in
        round order, and so on for up to seven bytes.  A coin costs
        1 + 1/255 bytes on average.
        """
        constant = np.ndim(p) == 0
        if constant:
            if p in (0.0, 1.0):
                return np.full(self.n, p == 1.0)
            # A Python int keeps every comparison in uint8.
            threshold = 8 * math.ceil(p * 2 ** 53)
        else:
            threshold = np.ceil(np.multiply(p, _TWO_POW_53)).astype(np.uint64) << 3
        # The top byte is not masked: where p = 1 it is 256, above every draw.
        top = threshold >> 48
        byte = self._bytes(self.n)
        out = byte < top
        tied = np.flatnonzero(byte == top)
        for shift in (40, 32, 24, 16, 8, 0):
            if not tied.size:
                break
            limb = (threshold if constant else threshold[tied]) >> shift & 0xFF
            byte = self._bytes(tied.size)
            out[tied[byte < limb]] = True
            tied = tied[byte == limb]
        return out


def _traverse(draws: _Draws, spec: ChannelSpec, legs: int) -> tuple[np.ndarray, np.ndarray]:
    """Survival and net bit flip of the carriers over ``legs`` channel legs.

    Each leg passes with probability t and flips with probability f, so
    all legs pass with probability t**legs and an odd number of flips
    happens with probability (1 - (1 - 2f)**legs) / 2.
    """
    alive = draws.bernoulli(spec.transmittance_per_leg ** legs)
    flip = draws.bernoulli((1.0 - (1.0 - 2.0 * spec.flip_prob) ** legs) / 2.0)
    return alive, flip


def _measure(draws: _Draws, basis, carrier_basis, carrier_bit) -> np.ndarray:
    """Outcomes in ``basis``: the carrier bit on a basis match, else a fair coin."""
    return np.where(carrier_basis == basis, carrier_bit, draws.bits())


def _engaged(attack: AttackSpec, draws: _Draws) -> np.ndarray:
    if attack.kind is AttackKind.NO_ATTACK:
        return np.zeros(draws.n, dtype=bool)
    return draws.bernoulli(attack.presence)


def _forward_attack(attack: AttackSpec, draws: _Draws, eve, basis, bit, eve_bit):
    """The outgoing-leg hooks that act on a single photon in place.

    Intercept-resend measures in its policy basis (Z for the mcas
    variant) and re-emits the eigenstate it found, keeping the outcome.
    The probe attack keeps a computational carrier with probability f0
    and a diagonal one with probability f_plus and flips it otherwise,
    the carrier's reduced state under the probe isometry.  Returns the
    carrier's (basis, bit) columns; ``eve_bit`` is filled in place.
    """
    kind = attack.kind
    if kind in (AttackKind.INTERCEPT_RESEND, AttackKind.MITM_MCAS_X):
        if kind is AttackKind.MITM_MCAS_X or attack.basis_policy is BasisPolicy.FIXED_Z:
            eve_basis = np.zeros(draws.n, dtype=np.uint8)
        elif attack.basis_policy is BasisPolicy.FIXED_X:
            eve_basis = np.ones(draws.n, dtype=np.uint8)
        else:
            eve_basis = draws.bits()
        outcome = _measure(draws, eve_basis, basis, bit)
        eve_bit[eve] = outcome[eve]
        return np.where(eve, eve_basis, basis), np.where(eve, outcome, bit)
    if kind is AttackKind.ANCILLA_UBE:
        keep = draws.bernoulli(np.where(basis == 0, attack.f0, attack.f_plus))
        return basis, bit ^ (eve & ~keep)
    return basis, bit


def _one_way_kernel(cfg: SessionConfig, draws: _Draws) -> RoundColumns:
    n = draws.n
    if cfg.protocol is ProtocolKind.BB84:
        cm = np.zeros(n, dtype=bool)
        prep_basis = draws.bits()
    else:
        # Control rounds are the diagonal-basis rounds.
        cm = draws.bernoulli(cfg.cm_fraction)
        prep_basis = cm.astype(np.uint8)
    prep_bit = draws.bits()
    eve = _engaged(cfg.attack, draws)
    eve_bit = np.full(n, -1, dtype=np.int8)
    basis, bit = _forward_attack(cfg.attack, draws, eve, prep_basis, prep_bit, eve_bit)
    alive, flip = _traverse(draws, cfg.channel, cfg.resolved_legs)
    bob_basis = draws.bits()
    result = _measure(draws, bob_basis, basis, bit ^ flip)
    zeros = np.zeros(n, dtype=np.uint8)
    return RoundColumns(cm, prep_basis, prep_bit, np.zeros(n, dtype=bool), zeros, zeros,
                        bob_basis, result, ~alive, eve, eve_bit, np.zeros(n, dtype=bool))


def _lm05_kernel(cfg: SessionConfig, draws: _Draws) -> RoundColumns:
    n = draws.n
    legs = cfg.resolved_legs
    prep_basis, prep_bit = draws.bits(), draws.bits()
    cm = draws.bernoulli(cfg.cm_fraction)
    attack = cfg.attack
    copy = attack.kind is AttackKind.MITM_LM05
    eve = _engaged(attack, draws)
    eve_bit = np.full(n, -1, dtype=np.int8)
    basis, bit = _forward_attack(attack, draws, eve, prep_basis, prep_bit, eve_bit)
    if copy:
        # Eve parks the genuine carrier and sends a random decoy instead.
        decoy_basis, decoy_bit = draws.bits(), draws.bits()
        basis = np.where(eve, decoy_basis, basis)
        bit = np.where(eve, decoy_bit, bit)
    alive_fwd, flip = _traverse(draws, cfg.channel, legs // 2)
    bit = bit ^ flip
    # Message rounds apply I or iY (iY toggles the bit in either basis);
    # control rounds measure in a random basis, announce and re-prepare.
    encoding = draws.bits()
    cm_basis = draws.bits()
    cm_bit = _measure(draws, cm_basis, basis, bit)
    bit = np.where(cm, cm_bit, bit ^ encoding)
    basis = np.where(cm, cm_basis, basis)
    alive_bwd, flip = _traverse(draws, cfg.channel, legs - legs // 2)
    bit = bit ^ flip
    if copy:
        # She reads the encoding off the returned decoy and replays it
        # onto the stored carrier, which travels no further fiber.
        inferred = _measure(draws, decoy_basis, basis, bit) ^ decoy_bit
        eve_bit[eve] = inferred[eve]
        basis = np.where(eve, prep_basis, basis)
        bit = np.where(eve, prep_bit ^ inferred, bit)
    result = _measure(draws, prep_basis, basis, bit)
    return RoundColumns(cm, prep_basis, prep_bit, alive_fwd, cm_basis,
                        np.where(cm, cm_bit, encoding), np.zeros(n, dtype=np.uint8), result,
                        ~(alive_fwd & alive_bwd), eve, eve_bit, np.zeros(n, dtype=bool))


def _pp_kernel(cfg: SessionConfig, draws: _Draws) -> RoundColumns:
    """Ping-pong over pair label bits.

    The copy attack needs no columns of its own: the decoy is a fresh
    source pair, so the label Eve reads off it on the way back is the
    encoding plus the channel toggles, and replaying that onto the
    stored genuine pair hands the preparer the very same label.
    """
    n = draws.n
    legs = cfg.resolved_legs
    cm = draws.bernoulli(cfg.cm_fraction)
    eve = _engaged(cfg.attack, draws)
    alive_fwd, flip_fwd = _traverse(draws, cfg.channel, legs // 2)
    encoding = draws.bits()
    alive_bwd, flip_bwd = _traverse(draws, cfg.channel, legs - legs // 2)
    label = encoding ^ flip_fwd ^ flip_bwd
    # Control mode: the encoder measures her received photon in Z and
    # announces; the preparer measures his stored pair half in Z.  A
    # genuine pair anticorrelates (either label); with a decoy in the
    # line the two halves belong to different pairs and are independent.
    alice_bit = draws.bits()
    bob_bit = np.where(eve, draws.bits(), 1 - alice_bit)
    eve_bit = np.full(n, -1, dtype=np.int8)
    copied = eve & ~cm
    eve_bit[copied] = label[copied]
    zeros = np.zeros(n, dtype=np.uint8)
    return RoundColumns(cm, zeros, zeros, alive_fwd, zeros, np.where(cm, alice_bit, encoding),
                        zeros, np.where(cm, bob_bit, label), ~alive_fwd | (~cm & ~alive_bwd),
                        eve, eve_bit, np.zeros(n, dtype=bool))


_KERNELS = {
    ProtocolKind.BB84: _one_way_kernel,
    ProtocolKind.MCAS_BB84: _one_way_kernel,
    ProtocolKind.LM05: _lm05_kernel,
    ProtocolKind.PING_PONG: _pp_kernel,
}


def run_session(cfg: SessionConfig) -> Transcript:
    """Execute a full session and return its transcript.

    Deterministic given the seed: replaying a config reproduces the
    transcript bit for bit.
    """
    draws = _Draws(random.Random(cfg.seed), cfg.n_rounds)
    cols = _KERNELS[cfg.protocol](cfg, draws)
    if cols.lost.all():
        est = DisturbanceEstimate(None, None, 0, 0, 0.0)
        return Transcript(cfg, cols, "", "", "", est, True, "no-yield")

    # Disclose a sample of the sifted bits for the message-mode estimate;
    # disclosed rounds are dropped from the key.
    keep = _sift_mask(cfg.protocol, cols)
    cols.disclosed = keep & draws.bernoulli(DISCLOSE_FRACTION)

    alice_key, bob_key = sift(cfg.protocol, cols)
    eve_bits = cols.eve_bit[keep & ~cols.disclosed]
    eve_key = np.where(eve_bits < 0, ord("?"), eve_bits + ord("0")).astype(np.uint8)
    est = estimate_disturbance(cfg.protocol, cols)
    reason = _abort_reason(est, cfg)
    return Transcript(cfg, cols, alice_key, bob_key, eve_key.tobytes().decode("ascii"),
                      est, reason is not None, reason)


# ---------------------------------------------------------------- transcript CSV

_HEADER = "index,mode,prep,action,result,lost,eve_touched\n"
# Text of each field after the index, by field code.  prep: 2 * basis + bit,
# or 4 for a ping-pong pair.  action: 0 none, 1 + bit an encoding,
# 3 + 2 * basis + bit an announcement.  result: 0 none, 1 + bit a
# measured bit, 3 + bit a pair label.
_FIELD_TEXT = (
    tuple(m.value for m in (RoundMode.MESSAGE, RoundMode.CONTROL)),
    tuple(s.value for s in _CANON) + (_LABELS[0].value,),
    ("",) + tuple(e.value for e in _ENCODINGS)
    + tuple(f"{b.value}:{bit}" for b in _BASES for bit in (0, 1)),
    ("", "0", "1") + tuple(label.value for label in _LABELS),
    ("false", "true"),
    ("false", "true"),
)
_FIELD_RADIX = tuple(len(text) for text in _FIELD_TEXT)
_CSV_BLOCK_ROWS = 1 << 14


def _row_codes(cols: RoundColumns, pp: bool) -> np.ndarray:
    """Each row's fields after the index as one mixed-radix code (uint16)."""
    prep = np.full(len(cols.cm), 4, np.uint8) if pp else 2 * cols.prep_basis + cols.prep_bit
    action = cols.acted * np.where(cols.cm, 3 + 2 * cols.act_basis + cols.act_bit,
                                   1 + cols.act_bit)
    result = ~cols.lost * (1 + cols.result + np.uint8(2) * (pp & ~cols.cm))
    code = cols.cm.astype(np.uint16)
    for radix, field in zip(_FIELD_RADIX[1:], (prep, action, result, cols.lost, cols.eve)):
        code *= radix
        code += field
    return code


def write_transcript_csv(transcript: Transcript, fileobj) -> None:
    """One round per line: index, mode, prep, action, result, lost, eve_touched.

    The transcript is rendered from the columns one block of rows at a
    time, with the same bytes as formatting each row on its own.  A
    session has few distinct combinations of the fields after the index,
    so each one present is rendered once into a row of a byte table.  A
    block is a uint8 matrix: the index digits, then the row's table entry,
    NUL-padded; its non-NUL bytes in row-major order are the block's text.
    """
    cols = transcript.columns
    n = len(cols.cm)
    code = _row_codes(cols, transcript.config.protocol is ProtocolKind.PING_PONG)
    present = np.zeros(math.prod(_FIELD_RADIX), dtype=bool)
    present[code] = True
    distinct = np.flatnonzero(present)
    slot = np.zeros(len(present), dtype=np.uint16)
    slot[distinct] = np.arange(len(distinct))
    tails = [",".join(text[k] for text, k in zip(_FIELD_TEXT, fields))
             for fields in zip(*np.unravel_index(distinct, _FIELD_RADIX))]
    digits = len(str(max(n - 1, 0)))
    width = digits + 2 + max(map(len, tails), default=0)
    table = np.frombuffer("".join(("\0" * digits + f",{tail}\n").ljust(width, "\0")
                                  for tail in tails).encode("ascii"), dtype=np.uint8)
    table = table.reshape(len(tails), width)
    fileobj.write(_HEADER)
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n)
        block = table[slot[code[start:stop]]]
        index = np.arange(start, stop, dtype=np.uint32)
        for col in range(digits - 1, -1, -1):
            index, digit = np.divmod(index, 10)
            block[:, col] = digit + ord("0")
        for col in range(digits - 1):  # NUL where the index has fewer digits
            block[:max(10 ** (digits - 1 - col) - start, 0), col] = 0
        fileobj.write(block[block != 0].tobytes().decode("ascii"))


def transcript_csv(transcript: Transcript) -> str:
    """The round log as a CSV string (LF line endings)."""
    buf = io.StringIO()
    write_transcript_csv(transcript, buf)
    return buf.getvalue()
