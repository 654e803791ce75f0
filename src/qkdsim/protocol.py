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
deterministic given the session seed: each column a session draws is a
block of the counter-based stream (``qkdsim.stream``) of its own purpose,
keyed by ``child_seed(seed, purpose)``.
"""

import functools
import io
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable

import numpy as np

from .adversary import AttackKind, AttackSpec, BasisPolicy
from .channel import ChannelSpec
from .checks import check_range, check_seed, check_type
from .infotheory import DEFAULT_D_PD_CM, eve_info_mitm, mutual_info_ae
from . import stream
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
        check_type("protocol", self.protocol, ProtocolKind)
        check_range("n_rounds", self.n_rounds, 1, MAX_N_ROUNDS, integer=True)
        check_seed(self.seed)
        check_range("cm_fraction", self.cm_fraction, 0, 1, "[)")
        check_range("d_pd_cm", self.d_pd_cm, 0, 0.5, "()")
        check_type("channel", self.channel, ChannelSpec)
        check_type("attack", self.attack, AttackSpec)
        check_type("enforce_cm_threshold", self.enforce_cm_threshold, bool)
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
    checked = cols.valid & cols.cm & ~cols.lost
    failed = cols.sent != cols.got
    return DisturbanceEstimate(
        int(np.count_nonzero(cols.disclosed)),
        int(np.count_nonzero(cols.disclosed & failed)),
        int(np.count_nonzero(checked)),
        int(np.count_nonzero(checked & failed)),
        int(np.count_nonzero(alice_key != bob_key)))


# ---------------------------------------------------------------- kernels

# Stream purposes (see qkdsim.stream): each column a session draws reads
# the stream of its own purpose, so a new column moves no other's draws.
# Fair coins take 0-11 and Bernoulli columns 12-19 (20-31 are free); a
# Bernoulli purpose P settles its ties from purpose P + _TIE.
(_PREP_BASIS, _PREP_BIT, _EVE_BASIS, _EVE_READ, _DECOY_BASIS, _DECOY_BIT, _ENCODING,
 _CM_BASIS, _CM_READ, _DECOY_READ, _BOB_BASIS, _RESULT_READ,
 _CM, _EVE, _ALIVE_OUT, _FLIP_OUT, _ALIVE_BACK, _FLIP_BACK, _KEEP, _DISCLOSE) = range(20)
_N_COINS, _TIE, _N_PURPOSES = _CM, 32, 64
_PASS_ROUNDS = 1 << 15  # rounds per pass of a Bernoulli block: bounds its temporaries


class _Draws:
    """A session's n-round columns, each from the stream of its purpose.

    The purposes' keys are words 0-63 of the session seed's stream, one
    mix.  A fair-coin column is its purpose's bits, bit i % 64 of word
    i // 64 in round i.  A short session (one pass) draws and unpacks all
    of them in its first Bernoulli block's mix; a long one draws each when
    asked, so that no unused column is held.
    """

    def __init__(self, seed: int, n: int):
        self.n = n
        self._keys = stream.block(seed, 0, _N_PURPOSES)
        self._coins = None

    def bits(self, purpose: int) -> np.ndarray:
        if self._coins is None:
            return stream.bits(stream.block(self._keys[purpose], 0, (self.n + 63) // 64), self.n)
        return self._coins[purpose]

    def bernoulli(self, *columns, index=None) -> list[np.ndarray]:
        """One exact coin per round for each ``(purpose, p)`` column.

        A coin is V < 8 * T with T = ceil(p * 2**53) for a 56-bit uniform
        V: floor(V / 8) is uniform on [0, 2**53), so p = 0 never fires and
        p = 1 always does.  V's top byte is byte i % 8 of word i // 8 of the
        purpose, compared with t, the top byte of 8 * T capped at 255.  Only
        where the two are equal, one round in 256, is V's low part read: the
        top 48 bits of word i of the tie purpose, against 8 * T - t * 2**48
        (2**48 where p = 1).  In passes of ``_PASS_ROUNDS`` rounds, the first
        bytes of all columns come from one mix and all their ties from one
        more.  A constant p of 0 or 1 draws nothing.  With ``index``, each p
        is a short sequence and round i uses p[index[i]].
        """
        n = self.n
        certain, purposes, top, low = _plan(columns, index is not None)
        coins = [None if p is None else (np.ones if p else np.zeros)(n, bool) for p in certain]
        if purposes is None:
            return coins
        keys, top = self._keys[purposes, None], top if index is None else top[:, index]
        out = np.empty((len(purposes), n), dtype=bool)
        for lo in range(0, n, _PASS_ROUNDS):
            hi = min(lo + _PASS_ROUNDS, n)
            if self._coins is None and n <= _PASS_ROUNDS:
                first, coins_words = stream.blocks((keys, 0, (n + 7) // 8),
                                                   (self._keys[:_N_COINS, None], 0, (n + 63) // 64))
                self._coins = stream.bits(coins_words, n)
            else:
                first = stream.block(keys, lo // 8, (hi + 7) // 8)
            first, coin = first.view(np.uint8)[:, :hi - lo], out[:, lo:hi]
            threshold = top if index is None else top[:, lo:hi]
            np.less(first, threshold, out=coin)
            row, col = np.divmod((first == threshold).ravel().nonzero()[0], hi - lo)
            if row.size:
                tail = stream.words(self._keys[purposes[row] + _TIE], col + lo) >> 16
                coin[row, col] = tail < low[row, 0 if index is None else index[col + lo]]
        # A long session copies its columns out, so one the kernel drops is freed.
        rows = iter(out) if n <= _PASS_ROUNDS else map(np.copy, out)
        return [next(rows) if coin is None else coin for coin in coins]


def _plan(columns: tuple, indexed: bool) -> tuple:
    """For :meth:`_Draws.bernoulli`: each column's certain coin (p == 1 for a
    constant p of 0 or 1, else None), then the drawn columns' purposes and,
    for each p (a tuple of them if ``indexed``), t = the top byte of
    8 * ceil(p * 2**53) capped at 255 (uint8) and the rest below t * 2**48."""
    certain = [None if indexed or p not in (0.0, 1.0) else p == 1.0 for _, p in columns]
    drawn = [column for column, coin in zip(columns, certain) if coin is None]
    if not drawn:
        return certain, None, None, None
    # Flat lists: numpy builds an array from nested ones several times slower.
    thresholds = [8 * math.ceil(q * 2.0 ** 53) for _, p in drawn for q in (p if indexed else (p,))]
    top = [min(t >> 48, 255) for t in thresholds]
    low = [t - (c << 48) for t, c in zip(thresholds, top)]
    shape = len(drawn), len(top) // len(drawn)
    return (certain, np.array([purpose for purpose, _ in drawn]),
            np.array(top, np.uint8).reshape(shape), np.array(low, np.uint64).reshape(shape))


def _select(cond, a, b) -> np.ndarray:
    """``np.where(cond, a, b)`` for a bool or 0/1 ``cond`` and 0/1 uint8 ``a`` and ``b``."""
    return b ^ (cond & (a ^ b))


def _eve_bit(engaged, bit) -> np.ndarray:
    """Eve's inferred bit as int8: ``bit`` where ``engaged``, else -1 (bool and 0/1 uint8)."""
    return (engaged.view(np.int8) - 1) | bit.view(np.int8)


def _measure(draws: _Draws, purpose: int, basis, carrier_basis, carrier_bit) -> np.ndarray:
    """Outcomes in ``basis``: the carrier bit on a basis match, else a fair coin."""
    return _select(basis ^ carrier_basis, draws.bits(purpose), carrier_bit)


def _session_coins(cfg: SessionConfig, draws: _Draws, legs: int, back: bool) -> list:
    """A session's Bernoulli columns in one block: control mode (none for
    BB84), Eve's presence, survival and net flip over ``legs`` legs out
    (and, with ``back``, as many back) and the disclosure coin.  All legs
    pass with probability t**legs, and an odd number of the legs' flips
    happens with probability (1 - (1 - 2f)**legs) / 2."""
    t = cfg.channel.transmittance_per_leg ** legs
    f = (1.0 - (1.0 - 2.0 * cfg.channel.flip_prob) ** legs) / 2.0
    cm = 0.0 if cfg.protocol is ProtocolKind.BB84 else cfg.cm_fraction
    eve = 0.0 if cfg.attack.kind is AttackKind.NO_ATTACK else cfg.attack.presence
    channel = ((_ALIVE_OUT, t), (_FLIP_OUT, f)) + ((_ALIVE_BACK, t), (_FLIP_BACK, f)) * back
    return draws.bernoulli((_CM, cm), (_EVE, eve), *channel, (_DISCLOSE, DISCLOSE_FRACTION))


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
            eve_basis = draws.bits(_EVE_BASIS)
        outcome = _measure(draws, _EVE_READ, eve_basis, basis, bit)
        return (_select(eve, eve_basis, basis), _select(eve, outcome, bit),
                _eve_bit(eve, outcome))
    no_bit = np.full(draws.n, -1, dtype=np.int8)
    if kind is AttackKind.ANCILLA_UBE:
        keep, = draws.bernoulli((_KEEP, (attack.f0, attack.f_plus)), index=basis)
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
    cm, eve, alive, flip, disclose = _session_coins(cfg, draws, legs, back=False)
    # mcasBB84's control rounds are its diagonal-basis rounds.
    prep_basis = draws.bits(_PREP_BASIS) if cfg.protocol is ProtocolKind.BB84 else cm.view(np.uint8)
    prep_bit = draws.bits(_PREP_BIT)
    basis, bit, eve_bit = _forward_attack(cfg.attack, draws, eve, prep_basis, prep_bit)
    bob_basis = draws.bits(_BOB_BASIS)
    result = _measure(draws, _RESULT_READ, bob_basis, basis, bit ^ flip)
    zeros = np.zeros(n, dtype=np.uint8)
    return RoundColumns(cm, prep_basis, prep_bit, np.zeros(n, dtype=bool), zeros, zeros,
                        bob_basis, result, ~alive, eve, eve_bit, prep_bit, result,
                        bob_basis == prep_basis, disclose)


def _lm05_kernel(cfg: SessionConfig, draws: _Draws, legs: int) -> RoundColumns:
    """LM05: a message round delivers the encoding, which the preparer reads
    as his outcome XOR his prepared bit.  A control round is valid when
    the encoder's announced basis equals the preparer's, and fails when
    the announced outcome differs from the prepared bit.
    """
    cm, eve, alive_fwd, flip_fwd, alive_bwd, flip_bwd, disclose = _session_coins(
        cfg, draws, legs // 2, back=True)
    prep_basis, prep_bit = draws.bits(_PREP_BASIS), draws.bits(_PREP_BIT)
    attack = cfg.attack
    copy = attack.kind is AttackKind.MITM_LM05
    basis, bit, eve_bit = _forward_attack(attack, draws, eve, prep_basis, prep_bit)
    if copy:
        # Eve parks the genuine carrier and sends a random decoy instead.
        decoy_basis, decoy_bit = draws.bits(_DECOY_BASIS), draws.bits(_DECOY_BIT)
        basis = _select(eve, decoy_basis, basis)
        bit = _select(eve, decoy_bit, bit)
    bit = bit ^ flip_fwd
    # Message rounds apply I or iY (iY toggles the bit in either basis);
    # control rounds measure in a random basis, announce and re-prepare.
    encoding = draws.bits(_ENCODING)
    cm_basis = draws.bits(_CM_BASIS)
    cm_bit = _measure(draws, _CM_READ, cm_basis, basis, bit)
    bit = _select(cm, cm_bit, bit ^ encoding)
    basis = _select(cm, cm_basis, basis)
    bit = bit ^ flip_bwd
    del flip_fwd, flip_bwd  # free them before the last columns
    if copy:
        # She reads the encoding off the returned decoy and replays it
        # onto the stored carrier, which travels no further fiber.
        inferred = _measure(draws, _DECOY_READ, decoy_basis, basis, bit) ^ decoy_bit
        eve_bit = _eve_bit(eve, inferred)
        basis = _select(eve, prep_basis, basis)
        bit = _select(eve, prep_bit ^ inferred, bit)
    result = _measure(draws, _RESULT_READ, prep_basis, basis, bit)
    return RoundColumns(cm, prep_basis, prep_bit, alive_fwd, cm_basis,
                        _select(cm, cm_bit, encoding), np.zeros(draws.n, dtype=np.uint8), result,
                        ~(alive_fwd & alive_bwd), eve, eve_bit,
                        _select(cm, prep_bit, encoding), _select(cm, cm_bit, result ^ prep_bit),
                        ~cm | (cm_basis == prep_basis), disclose)


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
    cm, eve, alive_fwd, flip_fwd, alive_bwd, flip_bwd, disclose = _session_coins(
        cfg, draws, legs // 2, back=True)
    encoding = draws.bits(_ENCODING)
    label = encoding ^ flip_fwd ^ flip_bwd
    del flip_fwd, flip_bwd  # free them before the last columns
    # A genuine pair anticorrelates in Z (either label); with a decoy in
    # the line the two halves belong to different pairs and are independent.
    alice_bit = draws.bits(_CM_READ)
    bob_bit = _select(eve, draws.bits(_RESULT_READ), alice_bit ^ 1)
    act_bit, result = _select(cm, alice_bit, encoding), _select(cm, bob_bit, label)
    zeros = np.zeros(n, dtype=np.uint8)
    return RoundColumns(cm, zeros, zeros, alive_fwd, zeros, act_bit, zeros, result,
                        ~alive_fwd | (~cm & ~alive_bwd), eve, _eve_bit(eve, label),
                        act_bit, result ^ cm, np.ones(n, dtype=bool), disclose)


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
    row = PROTOCOLS[cfg.protocol]
    cols = row.kernel(cfg, _Draws(cfg.seed, cfg.n_rounds), row.legs)
    # A kernel returns the disclosure coin: it discloses a sample of the
    # sifted bits for the message-mode estimate, which leaves the key.
    cols.disclosed &= _message_rounds(cols)

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
    bytes, ``head[c]`` then ``tail[c]`` (padded).  For k < 10**4, ``digits[k]`` is
    k in 4 ASCII digits and ``short[k]`` is ``str(k)`` padded with spaces, both
    uint32 words whose little-endian bytes are the text; ``short_width[k]`` is
    ``len(str(k))``.
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
    digits, short = (np.frombuffer("".join(map(spec.format, range(10000))).encode("ascii"),
                                   "<u4") for spec in ("{:04}", "{:<4}"))
    short_width = np.frombuffer(bytes(len(str(k)) for k in range(10000)), np.uint8)
    return length, head, tail, digits, short, short_width


def write_transcript_csv(transcript: Transcript, fileobj) -> None:
    """One round per line: index, mode, prep, action, result, lost, eve_touched.

    Writes ASCII bytes to a binary file, the same bytes as formatting each
    row on its own.  Row i is the digits of i (i < 10**8) and then the text
    of its field code, whose length a table gives, so one cumsum over a
    block of rows places every row before any byte moves.  A block holds at
    most 2**12 rows and never crosses a multiple of 10**4, so its indices'
    digits are table slices: below 10**4 a slice of ``str(k)`` words and
    their widths, above it ``str(i // 10**4)`` then a slice of 4-digit
    words, all of one width.  The block's buffer is then filled by three
    fixed-width scatters through windows of it, no two of one scatter
    overlapping: each tail, whose padding spills into the next row's first
    bytes; the index, whose padding spills into its head; each head.  Every
    spill lands where a later scatter writes.
    """
    length, head, tail, digits, short, short_width = _csv_tables()
    cols = transcript.columns
    n = len(cols.cm)
    code = _row_codes(cols, transcript.config.protocol is ProtocolKind.PING_PONG)
    fileobj.write(_HEADER)
    start = 0
    while start < n:
        top, lo = divmod(start, 10000)
        stop = min(start + _CSV_BLOCK_ROWS, n, 10000 * (top + 1))
        block, hi = code[start:stop], lo + stop - start
        if top:
            prefix = str(top).encode("ascii")
            ndigits = len(prefix) + 4
            word = digits[lo:hi] << np.uint64(8 * len(prefix)) | int.from_bytes(prefix, "little")
        else:
            ndigits, word = short_width[lo:hi], short[lo:hi]
        row_len = np.take(length, block) + ndigits
        end = np.cumsum(row_len)
        text_at = end - row_len + ndigits
        buf = np.empty(end[-1] + tail.itemsize, np.uint8)
        for cells, at in ((np.take(tail, block), text_at + head.itemsize),
                          (word.view(f"V{word.itemsize}"), text_at - ndigits),
                          (np.take(head, block), text_at)):
            width = cells.itemsize
            np.ndarray((len(buf) - width + 1,), f"V{width}", buf, strides=(1,))[at] = cells
        fileobj.write(buf[:end[-1]])
        start = stop


def transcript_csv(transcript: Transcript) -> str:
    """The round log as a CSV string (LF line endings)."""
    buf = io.BytesIO()
    write_transcript_csv(transcript, buf)
    return buf.getvalue().decode("ascii")
