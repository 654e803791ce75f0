"""Session engine for the four protocols over canonical-state columns.

Every carrier a session builds is one of the four canonical states, or
for ping-pong one of the two anticorrelated Bell labels, so every Born
probability is 0, 1/2 or 1.  A round therefore reduces to a few boolean
operations on (basis, bit) columns: a same-basis measurement returns the
bit, a cross-basis one a fair coin, the flip iY toggles the bit in
either basis and a channel flip toggles it within the carrier's basis.
One numpy kernel per protocol family (one-way, LM05, ping-pong) runs all
rounds of a session at once and returns a :class:`RoundColumns`.

Each kernel also states its protocol's reading of every round: the bit
the round should deliver (``sent``), the bit the other side read
(``got``) and whether the two can be compared (``valid``).  The rest is
one rule for all protocols: a received, valid message round is a key
round, a received, valid control round is checked, and either one fails
where ``sent != got``.

Selects are XOR/AND on 0/1 uint8 columns and :func:`sift` gathers the
keys through one index, because ``np.where`` and mask indexing branch
per element: on 27778 random rounds (2-vCPU VM, numpy 2.4.6) ``np.where``
took 171 us and XOR/AND 7-10 us, ``a[mask]`` 188 us and an index 38 us.

Leg topology: two-way rounds go sender -> [Eve] -> channel -> encoder ->
channel -> [Eve] -> sender, one-way rounds go preparer -> [Eve] ->
channel -> measurer.  Eve sits at the key party's doorstep, so her
substituted carriers traverse exactly the legs a genuine one would.

Message-mode disturbance is estimated on a randomly disclosed 10% sample
of the sifted key, which is then discarded from the key.  Everything is
deterministic given the session seed: all draws come in bulk from one
``random.Random(seed)`` stream.
"""

import functools
import io
import itertools
import math
import random
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .adversary import AttackKind, AttackSpec, BasisPolicy
from .channel import ChannelSpec
from .infotheory import DEFAULT_D_PD_CM, check_d_pd_cm, eve_info_mitm, mutual_info_ae
from .postproc import MAX_HASH_INPUT_BITS

# Placeholders: perfbench/tracing.py wraps these names, nothing calls them,
# and ROADMAP item 2, step A, removes them.
transmit = transmit_bell = intervene_forward = intervene_backward = measure = prepare = None

DISCLOSE_FRACTION = 0.1
BB84_ABORT_THRESHOLD = 0.11
DEFAULT_N_ROUNDS = 20000
# A session's sifted key is never longer than its round count, so every
# key of a valid session can be hashed.
MAX_N_ROUNDS = MAX_HASH_INPUT_BITS

_Z95 = 1.96
# Column codes: basis 0 is Z and 1 is X; a canonical state is 2 * basis + bit.
# Pair label bit: 0 is the source state psi_minus, 1 the toggled psi_plus.


class ProtocolKind(Enum):
    """The four simulated protocols; :data:`PROTOCOLS` holds their facts."""

    BB84 = "bb84"
    PING_PONG = "pp"
    LM05 = "lm05"
    MCAS_BB84 = "mcasbb84"


@dataclass(frozen=True, kw_only=True)
class SessionConfig:
    """Everything one session depends on; identical configs replay identically.

    ``cm_fraction`` is the per-round probability of a control round; BB84
    has no control mode and ignores it.  ``enforce_cm_threshold`` opts
    the two-way protocols into the predetermined abort threshold that the
    asymmetric variant always applies.  ``n_rounds`` is at most
    ``MAX_N_ROUNDS``.  A ValueError names the offending field first.
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
        if not 1 <= self.n_rounds <= MAX_N_ROUNDS:
            raise ValueError(f"n_rounds out of [1, {MAX_N_ROUNDS}]: {self.n_rounds!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit integer, got {self.seed!r}")
        if not 0.0 <= self.cm_fraction < 1.0:
            raise ValueError(f"cm_fraction out of [0, 1): {self.cm_fraction!r}")
        check_d_pd_cm(self.d_pd_cm)
        if self.attack.kind not in PROTOCOLS[self.protocol].attacks:
            raise ValueError(
                f"kind {self.attack.kind.value} does not apply to {self.protocol.value}")


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
    * ``sent``/``got`` - the bit the round should deliver (the key bit on
      a message round, the expected bit on a control round) and the bit
      the other side read; ``valid`` - the two can be compared.
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
    sent: np.ndarray
    got: np.ndarray
    valid: np.ndarray
    disclosed: np.ndarray


# One round of a session: its index, then its entry in every column.
RoundRecord = namedtuple("RoundRecord", ["index"] + [f.name for f in fields(RoundColumns)])


@dataclass(frozen=True)
class DisturbanceEstimate:
    """Failure counts of a session's three samples.

    ``mm_failed`` of the ``n_mm`` disclosed message bits and
    ``key_errors`` of the sifted key bits differ between Alice and Bob;
    ``cm_failed`` of the ``n_cm`` valid control rounds fail their check.
    A rate is None without a sample (the control one flagged undefined);
    the half-width is the 95% normal-approximation binomial interval of
    ``d_cm``, 0 without a control sample.
    """

    n_mm: int
    mm_failed: int
    n_cm: int
    cm_failed: int
    key_errors: int

    @property
    def d_mm(self) -> float | None:
        return self.mm_failed / self.n_mm if self.n_mm else None

    @property
    def d_cm(self) -> float | None:
        return self.cm_failed / self.n_cm if self.n_cm else None

    @property
    def half_width_95(self) -> float:
        d = self.d_cm
        return 0.0 if d is None else _Z95 * math.sqrt(d * (1.0 - d) / self.n_cm)


@dataclass(frozen=True, eq=False)
class Transcript:
    """Full session log: config echo, round columns, sifted keys and verdict.

    The keys are uint8 bit arrays.  ``eve_key`` is ``columns.eve_bit`` at
    the key rounds, so it is aligned with them: int8, with -1 where Eve
    did not engage.  ``rounds`` transposes the columns into one
    RoundRecord per round; the benchmark's traced run reads its ``lost``.
    """

    config: SessionConfig
    columns: RoundColumns
    alice_key: np.ndarray
    bob_key: np.ndarray
    eve_key: np.ndarray
    disturbance: DisturbanceEstimate
    abort_reason: str | None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def rounds(self) -> list[RoundRecord]:
        cols = self.columns
        return list(map(RoundRecord, range(len(cols.cm)),
                        *(getattr(cols, f.name).tolist() for f in fields(cols))))


def _message_rounds(cols: RoundColumns) -> np.ndarray:
    """The received, valid message rounds: the sifted key with its disclosed sample."""
    return cols.valid & ~(cols.cm | cols.lost)


def sift(cols: RoundColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distill Alice's, Bob's and Eve's keys, ``sent``, ``got`` and
    ``eve_bit``, through one index: the received, valid message rounds
    that were not disclosed.
    """
    rounds = np.flatnonzero(_message_rounds(cols) & ~cols.disclosed)
    return cols.sent[rounds], cols.got[rounds], cols.eve_bit[rounds]


def estimate_disturbance(cols: RoundColumns, alice_key: np.ndarray,
                         bob_key: np.ndarray) -> DisturbanceEstimate:
    """Failure counts of the disclosed message sample, the received, valid
    control rounds and the sifted key pair; a round fails where ``sent != got``."""
    received = ~cols.lost
    sample = cols.disclosed & received
    checked = cols.valid & cols.cm & received
    failed = cols.sent != cols.got
    return DisturbanceEstimate(
        int(np.count_nonzero(sample)),
        int(np.count_nonzero(sample & failed)),
        int(np.count_nonzero(checked)),
        int(np.count_nonzero(checked & failed)),
        int(np.count_nonzero(alice_key != bob_key)))


# ---------------------------------------------------------------- kernels

class _Draws:
    """Bulk draws for one session, n rounds at a time, from its rng.

    A Bernoulli(p) is u < p for a uniform u = k / 2**53, evaluated
    exactly as k < T with T = ceil(p * 2**53), so p = 0 never fires and
    p = 1 always does; a constant p of 0 or 1 draws nothing.  ``p`` may
    be picked per round from a few values.  See :meth:`bernoulli`.
    """

    def __init__(self, rng: random.Random, n: int):
        self._rng = rng
        self.n = n

    def _bytes(self, count: int) -> np.ndarray:
        return np.frombuffer(self._rng.randbytes(count), dtype=np.uint8)

    def bits(self) -> np.ndarray:
        raw = self._bytes((self.n + 7) // 8)
        return np.unpackbits(raw, count=self.n, bitorder="little")

    def bernoulli(self, p, index=None) -> np.ndarray:
        """One coin per round, about one stream byte each (Knuth & Yao).

        Each coin compares a 56-bit uniform V with 8 * T one byte at a
        time, most significant first; floor(V / 8) is uniform on
        [0, 2**53), so V < 8 * T is exactly k < T.  Every round draws its
        first byte, in one ``randbytes(n)``; the rounds whose bytes so far
        all equal the threshold's then draw their next byte together, in
        round order, and so on for up to seven bytes.  A coin costs
        1 + 1/255 bytes on average.  With ``index``, ``p`` is a short
        sequence and round i uses p[index[i]].
        """
        if index is None:
            if p in (0.0, 1.0):
                return np.full(self.n, p == 1.0)
            limbs = _threshold_limbs(p)  # Python ints keep every comparison in uint8
        else:  # one row per limb; uint16 holds the top limb 256 of a p of 1
            limbs = np.array([_threshold_limbs(q) for q in p], dtype=np.uint16).T
        top = limbs[0] if index is None else limbs[0][index]
        byte = self._bytes(self.n)
        out = byte < top
        tied = np.flatnonzero(byte == top)
        for limb in limbs[1:]:
            if not tied.size:
                break
            if index is not None:
                limb = limb[index[tied]]
            byte = self._bytes(tied.size)
            out[tied[byte < limb]] = True
            tied = tied[byte == limb]
        return out


def _threshold_limbs(p: float) -> list[int]:
    """The seven bytes of 8 * ceil(p * 2**53), most significant first.  The
    top byte is not masked: where p = 1 it is 256, above every draw."""
    threshold = 8 * math.ceil(p * 2 ** 53)
    return [threshold >> 48, *(threshold >> shift & 0xFF for shift in (40, 32, 24, 16, 8, 0))]


def _traverse(draws: _Draws, spec: ChannelSpec, legs: int) -> tuple[np.ndarray, np.ndarray]:
    """Survival and net bit flip of the carriers over ``legs`` channel legs.

    Each leg passes with probability t and flips with probability f, so
    all legs pass with probability t**legs and an odd number of flips
    happens with probability (1 - (1 - 2f)**legs) / 2.
    """
    alive = draws.bernoulli(spec.transmittance_per_leg ** legs)
    flip = draws.bernoulli((1.0 - (1.0 - 2.0 * spec.flip_prob) ** legs) / 2.0)
    return alive, flip


def _select(cond, a, b) -> np.ndarray:
    """``np.where(cond, a, b)`` for a bool or 0/1 ``cond`` and 0/1 uint8 ``a`` and ``b``."""
    return b ^ (cond & (a ^ b))


def _eve_bit(engaged, bit) -> np.ndarray:
    """Eve's inferred bit as int8: ``bit`` where ``engaged``, else -1 (bool and 0/1 uint8)."""
    return (engaged.view(np.int8) - 1) | bit.view(np.int8)


def _measure(draws: _Draws, basis, carrier_basis, carrier_bit) -> np.ndarray:
    """Outcomes in ``basis``: the carrier bit on a basis match, else a fair coin."""
    return _select(basis ^ carrier_basis, draws.bits(), carrier_bit)


def _engaged(attack: AttackSpec, draws: _Draws) -> np.ndarray:
    if attack.kind is AttackKind.NO_ATTACK:
        return np.zeros(draws.n, dtype=bool)
    return draws.bernoulli(attack.presence)


def _forward_attack(attack: AttackSpec, draws: _Draws, eve, basis, bit):
    """The outgoing-leg attacks that act on a single photon in place.

    Intercept-resend measures in its policy basis (Z for the mcas
    variant) and re-emits the eigenstate it found, keeping the outcome.
    The probe attack keeps a computational carrier with probability f0
    and a diagonal one with probability f_plus and flips it otherwise.
    That coin is exact: the probe isometry attaches the kept and flipped
    branches to probe states in orthogonal subspaces, so the carrier
    leaves as a keep/flip mixture in its own basis, and probe states
    within a subspace overlap by 2 f_plus - 1, which lets f_plus vary
    where fully orthogonal probes would pin it to 1/2.  The isometry
    exists for every f0 and f_plus in [1/2, 1]; ``tests/test_adversary.py``
    builds it and checks the branch weights exactly.  Returns the
    carrier's (basis, bit) columns and Eve's inferred bit (-1 throughout
    for an attack that infers none).
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
        return (_select(eve, eve_basis, basis), _select(eve, outcome, bit),
                _eve_bit(eve, outcome))
    no_bit = np.full(draws.n, -1, dtype=np.int8)
    if kind is AttackKind.ANCILLA_UBE:
        keep = draws.bernoulli((attack.f0, attack.f_plus), index=basis)
        return basis, bit ^ (eve & ~keep), no_bit
    return basis, bit, no_bit


def _one_way_kernel(cfg: SessionConfig, draws: _Draws, legs: int) -> RoundColumns:
    """BB84 and mcasBB84: a round delivers the prepared bit and compares
    where the receiver measured in the preparation basis.

    mcasBB84's control rounds are its diagonal-basis rounds, so its key
    is read in Z and its control check is an X outcome differing from
    the preparation.
    """
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
    basis, bit, eve_bit = _forward_attack(cfg.attack, draws, eve, prep_basis, prep_bit)
    alive, flip = _traverse(draws, cfg.channel, legs)
    bob_basis = draws.bits()
    result = _measure(draws, bob_basis, basis, bit ^ flip)
    zeros = np.zeros(n, dtype=np.uint8)
    return RoundColumns(cm, prep_basis, prep_bit, np.zeros(n, dtype=bool), zeros, zeros,
                        bob_basis, result, ~alive, eve, eve_bit, prep_bit, result,
                        bob_basis == prep_basis, np.zeros(n, dtype=bool))


def _lm05_kernel(cfg: SessionConfig, draws: _Draws, legs: int) -> RoundColumns:
    """LM05: a message round delivers the encoding, which the preparer reads
    as his outcome XOR his prepared bit.  A control round is valid when
    the encoder's announced basis equals the preparer's, and fails when
    the announced outcome differs from the prepared bit.
    """
    n = draws.n
    half = legs // 2  # legs each way
    prep_basis, prep_bit = draws.bits(), draws.bits()
    cm = draws.bernoulli(cfg.cm_fraction)
    attack = cfg.attack
    copy = attack.kind is AttackKind.MITM_LM05
    eve = _engaged(attack, draws)
    basis, bit, eve_bit = _forward_attack(attack, draws, eve, prep_basis, prep_bit)
    if copy:
        # Eve parks the genuine carrier and sends a random decoy instead.
        decoy_basis, decoy_bit = draws.bits(), draws.bits()
        basis = _select(eve, decoy_basis, basis)
        bit = _select(eve, decoy_bit, bit)
    alive_fwd, flip = _traverse(draws, cfg.channel, half)
    bit = bit ^ flip
    # Message rounds apply I or iY (iY toggles the bit in either basis);
    # control rounds measure in a random basis, announce and re-prepare.
    encoding = draws.bits()
    cm_basis = draws.bits()
    cm_bit = _measure(draws, cm_basis, basis, bit)
    bit = _select(cm, cm_bit, bit ^ encoding)
    basis = _select(cm, cm_basis, basis)
    alive_bwd, flip = _traverse(draws, cfg.channel, half)
    bit = bit ^ flip
    if copy:
        # She reads the encoding off the returned decoy and replays it
        # onto the stored carrier, which travels no further fiber.
        inferred = _measure(draws, decoy_basis, basis, bit) ^ decoy_bit
        eve_bit = _eve_bit(eve, inferred)
        basis = _select(eve, prep_basis, basis)
        bit = _select(eve, prep_bit ^ inferred, bit)
    result = _measure(draws, prep_basis, basis, bit)
    return RoundColumns(cm, prep_basis, prep_bit, alive_fwd, cm_basis,
                        _select(cm, cm_bit, encoding), np.zeros(n, dtype=np.uint8), result,
                        ~(alive_fwd & alive_bwd), eve, eve_bit,
                        _select(cm, prep_bit, encoding), _select(cm, cm_bit, result ^ prep_bit),
                        ~cm | (cm_basis == prep_basis), np.zeros(n, dtype=bool))


def _pp_kernel(cfg: SessionConfig, draws: _Draws, legs: int) -> RoundColumns:
    """Ping-pong over pair label bits.

    A message round delivers the encoding as the pair label.  In a
    control round the encoder measures her received photon in Z and
    announces; the preparer measures his stored pair half in Z, and the
    round fails unless the pair anticorrelates.  Every round is valid.

    The copy attack needs no columns of its own: the decoy is a fresh
    source pair, so the label Eve reads off it on the way back is the
    encoding plus the channel toggles, and replaying that onto the
    stored genuine pair hands the preparer the very same label.
    """
    n = draws.n
    half = legs // 2  # legs each way
    cm = draws.bernoulli(cfg.cm_fraction)
    eve = _engaged(cfg.attack, draws)
    alive_fwd, flip_fwd = _traverse(draws, cfg.channel, half)
    encoding = draws.bits()
    alive_bwd, flip_bwd = _traverse(draws, cfg.channel, half)
    label = encoding ^ flip_fwd ^ flip_bwd
    # A genuine pair anticorrelates in Z (either label); with a decoy in
    # the line the two halves belong to different pairs and are independent.
    alice_bit = draws.bits()
    bob_bit = _select(eve, draws.bits(), alice_bit ^ 1)
    act_bit, result = _select(cm, alice_bit, encoding), _select(cm, bob_bit, label)
    zeros = np.zeros(n, dtype=np.uint8)
    return RoundColumns(cm, zeros, zeros, alive_fwd, zeros, act_bit, zeros, result,
                        ~alive_fwd | (~cm & ~alive_bwd), eve, _eve_bit(eve & ~cm, label),
                        act_bit, result ^ cm, np.ones(n, dtype=bool), np.zeros(n, dtype=bool))


# ---------------------------------------------------------------- protocol table

@dataclass(frozen=True)
class Protocol:
    """One protocol's facts: the channel ``legs`` a round crosses, the
    ``kernel`` that runs a session's rounds over them, the ``attacks`` a
    session accepts, the worst-case ``table1_attack``, the ``monitored``
    estimate ("d_mm" or "d_cm"), the ``abort_level`` of a config (None
    where the protocol defines none) and Eve's ``leak`` at a rate."""

    legs: int
    kernel: Callable[[SessionConfig, _Draws, int], RoundColumns]
    attacks: frozenset[AttackKind]
    table1_attack: AttackSpec
    monitored: str
    abort_level: Callable[[SessionConfig], float | None]
    leak: Callable[[float], float]


# The attacks on a lone photon, which every single-photon protocol accepts.
_PHOTON_ATTACKS = frozenset({AttackKind.NO_ATTACK, AttackKind.INTERCEPT_RESEND,
                             AttackKind.ANCILLA_UBE})

# In table1's row order.  Legs: one-way once, LM05 out and back, ping-pong
# the travel photon's round trip plus the stored photon's matched delay
# line.  BB84 has no control mode and aborts above 0.11, the asymmetric
# variant above its predetermined d_pd_cm; the two-way protocols define
# no abort level unless the threshold extension gives them d_pd_cm.
PROTOCOLS = {
    ProtocolKind.BB84: Protocol(
        1, _one_way_kernel, _PHOTON_ATTACKS,
        AttackSpec(AttackKind.INTERCEPT_RESEND, 1.0, BasisPolicy.RANDOM),
        "d_mm", lambda cfg: BB84_ABORT_THRESHOLD, mutual_info_ae),
    ProtocolKind.PING_PONG: Protocol(
        4, _pp_kernel, frozenset({AttackKind.NO_ATTACK, AttackKind.MITM_PING_PONG}),
        AttackSpec(AttackKind.MITM_PING_PONG, 1.0),
        "d_cm", lambda cfg: cfg.d_pd_cm if cfg.enforce_cm_threshold else None, eve_info_mitm),
    ProtocolKind.LM05: Protocol(
        2, _lm05_kernel, _PHOTON_ATTACKS | {AttackKind.MITM_LM05},
        AttackSpec(AttackKind.MITM_LM05, 1.0),
        "d_cm", lambda cfg: cfg.d_pd_cm if cfg.enforce_cm_threshold else None, eve_info_mitm),
    ProtocolKind.MCAS_BB84: Protocol(
        1, _one_way_kernel, _PHOTON_ATTACKS | {AttackKind.MITM_MCAS_X},
        AttackSpec(AttackKind.MITM_MCAS_X, 1.0),
        "d_cm", lambda cfg: cfg.d_pd_cm, eve_info_mitm),
}


# ---------------------------------------------------------------- security rule
# One rule over the protocol rows decides the abort, table1's cells and Eve's leak.

def monitored_rate(cfg: SessionConfig) -> str:
    """The estimate a session is judged on, "d_mm" or "d_cm"."""
    return PROTOCOLS[cfg.protocol].monitored


def abort_threshold(cfg: SessionConfig) -> float | None:
    """The monitored rate above which a session aborts, None where undefined."""
    return PROTOCOLS[cfg.protocol].abort_level(cfg)


def leaked_fraction(est: DisturbanceEstimate, cfg: SessionConfig) -> float | None:
    """Eve's share of the key from the monitored rate, None without a
    sample.  The rate is clamped at 0.5 first, which sampling noise can pass."""
    row = PROTOCOLS[cfg.protocol]
    rate = getattr(est, row.monitored)
    return None if rate is None else row.leak(min(rate, 0.5))


_EXCEEDED = {"d_mm": "mm-disturbance-exceeded", "d_cm": "cm-threshold-exceeded"}
_NO_SAMPLE = {"d_mm": "no-message-sample", "d_cm": "no-control-sample"}


def _abort_reason(est: DisturbanceEstimate, cfg: SessionConfig) -> str | None:
    threshold = abort_threshold(cfg)
    if threshold is None:
        return None
    name = monitored_rate(cfg)
    rate = getattr(est, name)
    if rate is None:
        return _NO_SAMPLE[name]
    return _EXCEEDED[name] if rate > threshold else None


def run_session(cfg: SessionConfig) -> Transcript:
    """Execute a full session and return its transcript.

    Deterministic given the seed: replaying a config reproduces the
    transcript bit for bit.  A session that loses every round aborts as
    "no-yield", with empty keys and no estimate.
    """
    draws = _Draws(random.Random(cfg.seed), cfg.n_rounds)
    row = PROTOCOLS[cfg.protocol]
    cols = row.kernel(cfg, draws, row.legs)
    # Disclose a sample of the sifted bits for the message-mode estimate;
    # disclosed rounds are dropped from the key.
    cols.disclosed = _message_rounds(cols) & draws.bernoulli(DISCLOSE_FRACTION)

    alice_key, bob_key, eve_key = sift(cols)
    est = estimate_disturbance(cols, alice_key, bob_key)
    reason = "no-yield" if cols.lost.all() else _abort_reason(est, cfg)
    return Transcript(cfg, cols, alice_key, bob_key, eve_key, est, reason)


# ---------------------------------------------------------------- transcript CSV

_HEADER = b"index,mode,prep,action,result,lost,eve_touched\n"
# Text of each field after the index, by field code.  prep: 2 * basis + bit,
# or 4 for a ping-pong pair.  action: 0 none, 1 + bit an encoding,
# 3 + 2 * basis + bit an announcement.  result: 0 none, 1 + bit a
# measured bit, 3 + bit a pair label.
_FIELD_TEXT = (
    ("MM", "CM"),
    ("zero", "one", "plus", "minus", "psi_minus"),
    ("", "I", "iY", "Z:0", "Z:1", "X:0", "X:1"),
    ("", "0", "1", "psi_minus", "psi_plus"),
    ("false", "true"),
    ("false", "true"),
)
_FIELD_RADIX = tuple(len(text) for text in _FIELD_TEXT)
_CSV_BLOCK_ROWS = 1 << 12
_POW10 = 10 ** np.arange(1, 8)


def _row_codes(cols: RoundColumns, pp: bool) -> np.ndarray:
    """Each row's fields after the index as one mixed-radix code (uint16)."""
    prep = np.full(len(cols.cm), 4, np.uint8) if pp else 2 * cols.prep_basis + cols.prep_bit
    action = cols.acted * (1 + cols.act_bit + cols.cm * (2 + 2 * cols.act_basis))
    result = ~cols.lost * (1 + cols.result + np.uint8(2) * (pp & ~cols.cm))
    code = cols.cm.astype(np.uint16)
    for radix, field in zip(_FIELD_RADIX[1:], (prep, action, result, cols.lost, cols.eve)):
        code *= radix
        code += field
    return code


@functools.cache
def _csv_tables():
    """The writer's tables, built on first use so that import does not pay ~4 ms.

    Code c's text after the index, ``","`` + its fields + ``"\\n"``, is ``length[c]``
    bytes, ``head[c]`` then ``tail[c]`` (padded); ``digits[k]`` is k in 4 ASCII digits.
    """
    rows = ["," + ",".join(fields) + "\n" for fields in itertools.product(*_FIELD_TEXT)]
    length = np.array([len(row) for row in rows])
    shortest, longest = int(length.min()), int(length.max())
    if longest - shortest > 1 + shortest or 8 > 1 + shortest:  # not assert: -O drops it
        raise AssertionError("a row must hold an 8-byte digit cell and a tail's spill")
    text = np.frombuffer("".join(row.ljust(longest) for row in rows).encode("ascii"),
                         np.uint8).reshape(len(rows), longest)
    head = text[:, :shortest].copy().view(f"V{shortest}")[:, 0]
    tail = text[:, shortest:].copy().view(f"V{longest - shortest}")[:, 0]
    digits = np.frombuffer("".join(map("{:04}".format, range(10000))).encode("ascii"), "<u4")
    return length, head, tail, digits.astype(np.uint64)


def write_transcript_csv(transcript: Transcript, fileobj) -> None:
    """One round per line: index, mode, prep, action, result, lost, eve_touched.

    Writes ASCII bytes to a binary file, the same bytes as formatting each
    row on its own.  Row i is the digits of i (i < 10**8) and then the text
    of its field code, whose length a table gives, so one cumsum over a
    block of rows places every row before any byte moves.  The block's
    buffer is then filled by three fixed-width scatters through windows of
    it, no two of one scatter overlapping: each tail, whose padding spills
    into the next row's first bytes; the index, as 8 ASCII digits shifted
    to the left; each head.  Every spill lands where a later scatter writes.
    """
    length, head, tail, digits = _csv_tables()
    cols = transcript.columns
    n = len(cols.cm)
    code = _row_codes(cols, transcript.config.protocol is ProtocolKind.PING_PONG)
    fileobj.write(_HEADER)
    for start in range(0, n, _CSV_BLOCK_ROWS):
        index = np.arange(start, min(start + _CSV_BLOCK_ROWS, n), dtype=np.uint32)
        block = code[start:start + _CSV_BLOCK_ROWS]
        ndigits = 1 + np.searchsorted(_POW10, index, side="right")
        word = np.take(digits, index // 10000) | np.take(digits, index % 10000) << np.uint64(32)
        word >>= (64 - 8 * ndigits).astype(np.uint64)
        row_len = np.take(length, block) + ndigits
        end = np.cumsum(row_len)
        text_at = end - row_len + ndigits
        buf = np.empty(end[-1] + tail.itemsize, np.uint8)
        for cells, at in ((np.take(tail, block), text_at + head.itemsize),
                          (word.view("V8"), text_at - ndigits), (np.take(head, block), text_at)):
            width = cells.itemsize
            np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))[at] = cells
        fileobj.write(buf[:end[-1]])


def transcript_csv(transcript: Transcript) -> str:
    """The round log as a CSV string (LF line endings)."""
    buf = io.BytesIO()
    write_transcript_csv(transcript, buf)
    return buf.getvalue().decode("ascii")
