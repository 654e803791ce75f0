"""The session engine's random draws, checked byte by byte.

A Bernoulli(p) coin is V < 8 * ceil(p * 2**53) for a 56-bit uniform V
whose bytes are drawn most significant first, a round drawing its next
byte only while all of its bytes so far equal the threshold's.  The
oracle below scripts the byte stream, so it pins both the coins and the
exact bytes they consume.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from qkdsim.adversary import AttackKind, AttackSpec, BasisPolicy
from qkdsim.channel import ChannelSpec
from qkdsim.protocol import (
    PROTOCOLS,
    ProtocolKind,
    SessionConfig,
    _Draws,
    run_session,
    transcript_csv,
)

EDGE_P = [0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.1, 0.9]


class ScriptedBytes:
    """A stand-in for ``random.Random`` that hands out fixed byte layers."""

    def __init__(self, layers):
        self.layers = list(layers)

    def randbytes(self, count):
        assert self.layers, f"drew {count} bytes past the script"
        layer = self.layers.pop(0)
        assert count == len(layer), f"drew {count} bytes where {len(layer)} were scripted"
        return layer


def threshold(p: float) -> int:
    """8 * ceil(p * 2**53); p * 2**53 is exact in floating point."""
    return 8 * math.ceil(p * 2 ** 53)


def script(values, thresholds):
    """The stream the coins of ``values`` read: the first byte of every
    round, then byte j of each round whose first j bytes equal its
    threshold's, round by round, one layer per j."""
    v_bytes = [v.to_bytes(7, "big") for v in values]
    t_bytes = [t.to_bytes(8, "big")[1:] if t < 2 ** 56 else None for t in thresholds]
    layers = []
    for j in range(7):
        layer = bytes(v[j] for v, t in zip(v_bytes, t_bytes)
                      if j == 0 or (t is not None and v[:j] == t[:j]))
        if layer:
            layers.append(layer)
    return layers


def draw_values(rng, thresholds):
    """56-bit uniforms; half of them copy 0-7 leading bytes of their threshold."""
    values = []
    for t in thresholds:
        v = rng.getrandbits(56)
        if t < 2 ** 56 and rng.random() < 0.5:
            k = rng.randrange(8)
            head = t.to_bytes(8, "big")[1:1 + k]
            v = int.from_bytes(head + rng.randbytes(7 - k), "big")
        values.append(v)
    return values


@pytest.mark.parametrize("batch", range(300))
def test_bernoulli_against_scripted_bytes(batch):
    rng = random.Random(batch)
    n = rng.randrange(1, 40)
    p = np.array([rng.choice(EDGE_P) if rng.random() < 0.6 else rng.random()
                  for _ in range(n)])
    thresholds = [threshold(x) for x in p.tolist()]
    values = draw_values(rng, thresholds)
    source = ScriptedBytes(script(values, thresholds))
    p_values, index = np.unique(p, return_inverse=True)
    coins = _Draws(source, n).bernoulli(p_values.tolist(), index=index)
    assert coins.tolist() == [v < t for v, t in zip(values, thresholds)]
    assert coins[p == 1.0].all() and not coins[p == 0.0].any()
    assert source.layers == []


@pytest.mark.parametrize("p", EDGE_P[2:] + [1 / 3, 0.5, 0.7])
def test_constant_bernoulli_against_scripted_bytes(p):
    rng = random.Random(repr(p))
    n = 500
    thresholds = [threshold(p)] * n
    values = draw_values(rng, thresholds)
    source = ScriptedBytes(script(values, thresholds))
    coins = _Draws(source, n).bernoulli(p)
    assert coins.tolist() == [v < t for v, t in zip(values, thresholds)]
    assert source.layers == []


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_constant_certain_coin_draws_nothing(p):
    source = ScriptedBytes([])
    assert _Draws(source, 7).bernoulli(p).tolist() == [p == 1.0] * 7


# The random stream, pinned.  Changing a digest changes the reports every
# seed produces: that is a stream change, and it must be recorded in
# CHANGES.md together with the evidence that the law of the draws held.
STREAM_CASES = {
    "bb84-noise": (SessionConfig(
        protocol=ProtocolKind.BB84, n_rounds=1000, seed=11,
        channel=ChannelSpec(0.9, 0.05)),
        "f090318c49b81aa3093079fe5cd21346b3961a30f72a6e8858a424072b0d9658"),
    "mcas-mitm": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=12,
        channel=ChannelSpec(0.9, 0.02), attack=AttackSpec(AttackKind.MITM_MCAS_X, 0.3)),
        "3edc050861647d213e48092fad923460eb6e1934bcbcaada409231a9c8dad87c"),
    "lm05-mitm": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=13,
        channel=ChannelSpec(0.9, 0.02), attack=AttackSpec(AttackKind.MITM_LM05, 0.3)),
        "65bd9c73eb1b766fb74ec8fd6e9501b2cc13a4336c85e41e3d4044c8776f458e"),
    "pp-mitm": (SessionConfig(
        protocol=ProtocolKind.PING_PONG, n_rounds=1000, seed=14,
        channel=ChannelSpec(0.9, 0.02), attack=AttackSpec(AttackKind.MITM_PING_PONG, 0.3)),
        "6711c52b741c4e9e5edda7d289b57754007a0a3cfcd3cbdf84be81dc3e1b9baf"),
    "lm05-ancilla-f0-1": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=15,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 0.7, f0=1.0, f_plus=0.8)),
        "1ba47071ca840123a7fc8860b540d61eee1775ff93c4ecf6aec7d4d1eb17bdb9"),
    # One case for every other protocol x attack pair the engine accepts;
    # the three intercept-resend cases cover the three basis policies.
    "bb84-ir-random": (SessionConfig(
        protocol=ProtocolKind.BB84, n_rounds=1000, seed=16,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 0.4, BasisPolicy.RANDOM)),
        "1f9829323c5939525426bc51ab21cdf5553b60e5a892a41362caa67254828ee8"),
    "mcas-ir-fixed-z": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=17,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 0.4, BasisPolicy.FIXED_Z)),
        "670b31e93b3c03916d010e7422c944d39be2e97dab793c9a8966d325c2a64733"),
    "lm05-ir-fixed-x": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=18,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 0.4, BasisPolicy.FIXED_X)),
        "5adf5f0d37c554f85070a73e9470943f9399e5d0b1af0ce068927380a01dbeac"),
    "pp-none": (SessionConfig(
        protocol=ProtocolKind.PING_PONG, n_rounds=1000, seed=19,
        channel=ChannelSpec(0.9, 0.02)),
        "63dfbad835ee53f28206e23472733d079182690309603acf54f72d19b1042e8b"),
    "lm05-none": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=20,
        channel=ChannelSpec(0.9, 0.02)),
        "f05b6cf9046e14b2f2f392a9c8b181e770041a5bcd8b2af4871619429bdfe64f"),
    "mcas-none": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=21,
        channel=ChannelSpec(0.9, 0.02)),
        "ab75914ed3a4bb0a1ee833e3cbdaa3541a8de639e50fd9e7894af77f7bdbe05d"),
    "bb84-ancilla": (SessionConfig(
        protocol=ProtocolKind.BB84, n_rounds=1000, seed=22,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 0.7, f0=0.9, f_plus=0.8)),
        "b40423e0a8e77736f05c5f4ff14cf5c8c2f11ee69a9bad71935a8b15c80e4f04"),
    "mcas-ancilla": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=23,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 0.7, f0=0.8, f_plus=0.9)),
        "d6d871e2068bf5b047c35855241be07113c50564206cb1aeff7b626f58528f10"),
}


def test_stream_cases_cover_every_compatible_pair():
    pairs = {(cfg.protocol, cfg.attack.kind) for cfg, _ in STREAM_CASES.values()}
    assert pairs == {(protocol, kind) for protocol, row in PROTOCOLS.items()
                     for kind in row.attacks}
    policies = {cfg.attack.basis_policy for cfg, _ in STREAM_CASES.values()
                if cfg.attack.kind is AttackKind.INTERCEPT_RESEND}
    assert policies == set(BasisPolicy)


def key_text(bits):
    """A key array as the text the digests were taken over: '0'/'1', '?' for -1."""
    return "".join("?" if b < 0 else str(b) for b in bits.tolist())


@pytest.mark.parametrize("name", STREAM_CASES)
def test_stream_is_pinned(name):
    cfg, digest = STREAM_CASES[name]
    transcript = run_session(cfg)
    text = "\n".join([transcript_csv(transcript), key_text(transcript.alice_key),
                      key_text(transcript.bob_key), key_text(transcript.eve_key)])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
