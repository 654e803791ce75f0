"""The session engine's random draws, checked word by word.

Every column a session draws reads the counter-based stream of its own
purpose (``qkdsim.stream``).  A Bernoulli(p) coin is V < 8 * ceil(p * 2**53)
for a 56-bit uniform V: its top byte is byte i % 8 of word i // 8 of the
column's purpose, and only a round whose top byte equals the threshold's
(capped at 255) reads its low 48 bits, the top of word i of the tie
purpose.  The oracle below scripts those words, so it pins both the
coins and exactly which words they read.
"""

import ast
import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from qkdsim import protocol, stream
from qkdsim.adversary import AttackKind, AttackSpec, BasisPolicy
from qkdsim.channel import ChannelSpec
from qkdsim.protocol import (
    _CM,
    _DISCLOSE,
    _EVE,
    _KEEP,
    _N_PURPOSES,
    _TIE,
    PROTOCOLS,
    ProtocolKind,
    SessionConfig,
    _Draws,
    run_session,
    transcript_csv,
)
from qkdsim.stream import child_seed

EDGE_P = [0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.1, 0.9]
LOW48 = 2 ** 48 - 1


class ScriptedStream:
    """A stand-in for ``qkdsim.stream``: word c of the stream keyed by k is
    ``table[k, c]``, and every word read is recorded."""

    def __init__(self, table):
        self.table = table
        self.read = []

    def word(self, key, counter):
        assert (key, counter) in self.table, f"read word {counter} of key {key:#x} past the script"
        self.read.append((key, counter))
        return self.table[key, counter]

    def words(self, keys, counters):
        counters = np.asarray(counters).tolist()
        keys = np.broadcast_to(np.asarray(keys, np.uint64), (len(counters),)).tolist()
        return np.array(list(map(self.word, keys, counters)), np.uint64)

    def block(self, keys, start, stop):
        keys = np.asarray(keys, np.uint64)
        rows = [[self.word(k, c) for c in range(start, stop)] for k in keys.ravel().tolist()]
        return np.array(rows, np.uint64).reshape(keys.shape[:1] + (stop - start,))

    def blocks(self, *parts):
        return [self.block(*part) for part in parts]


def threshold(p: float) -> int:
    """8 * ceil(p * 2**53); p * 2**53 is exact in floating point."""
    return 8 * math.ceil(p * 2 ** 53)


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


def script(rng, seed, purpose, values):
    """The words a column of coins with 56-bit ``values`` reads: each round's
    top byte in the purpose's words, eight rounds to a word, least
    significant first, the rest of a short last word random; and each
    round's low 48 bits atop word i of the tie purpose, over 16 random bits."""
    key, tie_key = child_seed(seed, purpose), child_seed(seed, purpose + _TIE)
    top = [v >> 48 for v in values] + [rng.randrange(256) for _ in range(-len(values) % 8)]
    table = {(key, w): int.from_bytes(bytes(top[8 * w:8 * w + 8]), "little")
             for w in range(len(top) // 8)}
    table.update({(tie_key, i): (v & LOW48) << 16 | rng.getrandbits(16)
                  for i, v in enumerate(values)})
    return table


def tied(seed, purpose, values, thresholds):
    """The tie words a column must read: the rounds whose top byte equals
    the threshold's, capped at 255."""
    tie_key = child_seed(seed, purpose + _TIE)
    return {(tie_key, i) for i, (v, t) in enumerate(zip(values, thresholds))
            if v >> 48 == min(t >> 48, 255)}


def scripted_draws(monkeypatch, seed, n, table):
    """A session's draws whose keys and fair coins are real and whose
    Bernoulli columns read the scripted words."""
    draws = _Draws(seed, n)
    draws.bernoulli((_CM, 0.5))  # a short session's fair coins ride along with it
    source = ScriptedStream(table)
    for name in ("words", "block", "blocks"):
        monkeypatch.setattr(stream, name, getattr(source, name))
    return draws, source


@pytest.mark.parametrize("batch", range(300))
def test_bernoulli_against_scripted_bytes(monkeypatch, batch):
    """Index-mapped p, as the probe coin draws it; odd batches in passes of 64 rounds."""
    monkeypatch.setattr(protocol, "_PASS_ROUNDS", 64 if batch % 2 else protocol._PASS_ROUNDS)
    rng = random.Random(batch)
    n = rng.randrange(1, 200)
    p = np.array([rng.choice(EDGE_P) if rng.random() < 0.6 else rng.random()
                  for _ in range(n)])
    thresholds = [threshold(x) for x in p.tolist()]
    values = draw_values(rng, thresholds)
    seed = rng.getrandbits(64)
    draws, source = scripted_draws(monkeypatch, seed, n, script(rng, seed, _KEEP, values))
    p_values, index = np.unique(p, return_inverse=True)
    coins, = draws.bernoulli((_KEEP, tuple(p_values.tolist())), index=index)
    assert coins.tolist() == [v < t for v, t in zip(values, thresholds)]
    assert coins[p == 1.0].all() and not coins[p == 0.0].any()
    key = child_seed(seed, _KEEP)
    assert {c for k, c in source.read if k == key} == set(range((n + 7) // 8))
    assert {r for r in source.read if r[0] != key} == tied(seed, _KEEP, values, thresholds)


@pytest.mark.parametrize("p", EDGE_P[2:] + [1 / 3, 0.5, 0.7])
def test_constant_bernoulli_against_scripted_bytes(monkeypatch, p):
    """Three columns in one block, in one pass and in passes of 64 rounds:
    each column reads only its own words, and each word once."""
    rng = random.Random(repr(p))
    for pass_rounds in (protocol._PASS_ROUNDS, 64):
        monkeypatch.setattr(protocol, "_PASS_ROUNDS", pass_rounds)
        n, seed = 500, rng.getrandbits(64)
        columns = ((_EVE, p), (_KEEP, 1.0 - p), (_DISCLOSE, p / 3))
        table, values, reads = {}, [], set()
        for purpose, q in columns:
            thresholds = [threshold(q)] * n
            values.append(draw_values(rng, thresholds))
            table.update(script(rng, seed, purpose, values[-1]))
            reads |= tied(seed, purpose, values[-1], thresholds)
            reads |= {(child_seed(seed, purpose), w) for w in range((n + 7) // 8)}
        draws, source = scripted_draws(monkeypatch, seed, n, table)
        coins = draws.bernoulli(*columns)
        for coin, (_, q), column_values in zip(coins, columns, values):
            assert coin.tolist() == [v < threshold(q) for v in column_values]
        assert len(source.read) == len(set(source.read)) and set(source.read) == reads
        monkeypatch.undo()


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_constant_certain_coin_draws_nothing(monkeypatch, p):
    draws, source = scripted_draws(monkeypatch, 3, 7, {})
    assert [c.tolist() for c in draws.bernoulli((_EVE, p), (_KEEP, p))] == [[p == 1.0] * 7] * 2
    assert source.read == []


# ---------------------------------------------------------------- the stream

@pytest.mark.parametrize("key", [0, 1, 11, 0x70A, 2 ** 63, 2 ** 64 - 1])
def test_child_seed_is_the_scalar_case(key):
    """child_seed(k, i) is word i of the stream keyed by k, on counters 0-1023,
    however the words are asked for."""
    want = [child_seed(key, i) for i in range(1024)]
    counters = np.arange(1024)
    assert stream.words(key, counters).tolist() == want
    assert stream.block(key, 0, 1024).tolist() == want
    assert stream.words(np.full(1024, key, np.uint64), counters).tolist() == want
    assert [stream.words(key, counters[i:i + 5]).tolist() for i in range(0, 1024, 5)] == \
        [want[i:i + 5] for i in range(0, 1024, 5)]
    keys = np.array([[key], [key ^ 1]], np.uint64)
    both = [want, [child_seed(key ^ 1, i) for i in range(1024)]]
    assert stream.block(keys, 0, 1024).tolist() == both
    first, second = stream.blocks((keys, 0, 700), (keys[:1], 700, 1024))
    assert first.tolist() == [row[:700] for row in both] and second.tolist() == [want[700:]]


def test_session_keys_are_child_seeds():
    seed = 2 ** 64 - 5
    assert _Draws(seed, 10)._keys.tolist() == [child_seed(seed, p) for p in range(_N_PURPOSES)]


def stream_words(pairs, count=2 ** 17):
    """``count`` words (8 * count bytes) of the stream of each (seed, purpose)."""
    keys = np.array([[child_seed(seed, purpose)] for seed, purpose in pairs], np.uint64)
    return stream.block(keys, 0, count)


def bit_planes(words):
    """(64, len(words)) 0/1 planes: plane b holds bit b of every word."""
    return np.unpackbits(words[:, None].view(np.uint8), axis=1, bitorder="little").T


def four_sigma_count(count, trials, q=0.5):
    return abs(count - q * trials) < 4 * math.sqrt(trials * q * (1 - q))


@pytest.mark.parametrize("seed", [1, 11, 2 ** 64 - 1])
def test_stream_bytes_and_bits_are_uniform(seed):
    """Over 2**20 bytes of each of several purposes, the byte chi-square
    (255 degrees of freedom) lies within 4 sigma of its mean, and each of
    the 64 bit positions of a word is set within 4 sigma of half the time."""
    for words in stream_words([(seed, p) for p in (0, 1, 12, 12 + _TIE, 0x70A)]):
        counts = np.bincount(words.view(np.uint8), minlength=256)
        expected = len(words) * 8 / 256
        chi2 = float(((counts - expected) ** 2).sum() / expected)
        assert abs(chi2 - 255) < 4 * math.sqrt(2 * 255), chi2
        ones = bit_planes(words).sum(axis=1)
        assert all(four_sigma_count(int(c), len(words)) for c in ones), ones


@pytest.mark.parametrize("a, b", [((11, 0), (12, 0)), ((11, 0), (11, 1)), ((0, 12), (1, 12)),
                                  ((11, 12), (11, 13)), ((11, 12), (11, 12 + _TIE)),
                                  ((2 ** 64 - 1, 3), (0, 3))])
def test_adjacent_streams_are_uncorrelated(a, b):
    """Streams of adjacent seeds or adjacent purposes: at every bit position
    the two agree within 4 sigma of half the time, and the Pearson
    correlation of their words as uniforms on [0, 1) is within 4 sigma of 0."""
    first, second = stream_words([a, b])
    agree = (bit_planes(first) == bit_planes(second)).sum(axis=1)
    assert all(four_sigma_count(int(c), len(first)) for c in agree), agree
    r = np.corrcoef(first.astype(np.float64), second.astype(np.float64))[0, 1]
    assert abs(r) < 4 / math.sqrt(len(first)), r


def test_no_module_imports_random():
    """Every random bit in the package comes from qkdsim.stream: no module
    under it imports the standard library's random."""
    root = Path(stream.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # not a relative import
                names = [node.module]
            else:
                continue
            if "random" in (name.split(".")[0] for name in names):
                importers.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not importers


def session_text(transcript):
    cols = transcript.columns
    return [transcript_csv(transcript)] + [getattr(cols, name).tobytes() for name in
                                           ("cm", "prep_basis", "prep_bit", "acted", "act_basis",
                                            "act_bit", "bob_basis", "result", "lost", "eve",
                                            "eve_bit", "sent", "got", "valid", "disclosed")]


def test_a_new_column_moves_no_other(monkeypatch):
    """Patch a new Bernoulli column, on a free purpose, into every block a
    session draws: every existing column stays byte-identical."""
    extra = 20
    assert _DISCLOSE < extra < _TIE
    before = {name: session_text(run_session(cfg)) for name, (cfg, _) in STREAM_CASES.items()}
    drawn = []
    bernoulli = _Draws.bernoulli

    def with_extra(self, *columns, index=None):
        coins = bernoulli(self, *columns, (extra, 0.3 if index is None else (0.3, 0.6)),
                          index=index)
        drawn.append(coins[-1])
        return coins[:-1]

    monkeypatch.setattr(_Draws, "bernoulli", with_extra)
    after = {name: session_text(run_session(cfg)) for name, (cfg, _) in STREAM_CASES.items()}
    assert after == before
    assert len(drawn) == len(STREAM_CASES) + 3 and all(c.any() and not c.all() for c in drawn)


def test_passes_leave_every_column_alone(monkeypatch):
    """A session drawn in passes of 64 rounds, as a long one is, with its
    words mixed in passes of 5, is byte-identical to one drawn whole."""
    whole = {name: session_text(run_session(cfg)) for name, (cfg, _) in STREAM_CASES.items()}
    monkeypatch.setattr(protocol, "_PASS_ROUNDS", 64)
    monkeypatch.setattr(stream, "PASS_WORDS", 5)
    passes = {name: session_text(run_session(cfg)) for name, (cfg, _) in STREAM_CASES.items()}
    assert passes == whole


# The random stream, pinned.  Changing a digest changes the reports every
# seed produces: that is a stream change, and it must be recorded in
# CHANGES.md together with the evidence that the law of the draws held.
STREAM_CASES = {
    "bb84-noise": (SessionConfig(
        protocol=ProtocolKind.BB84, n_rounds=1000, seed=11,
        channel=ChannelSpec(0.9, 0.05)),
        "14143ac1305393dee51873d9ac5fe5554563b038e5de2424d388d9cae05c1aef"),
    "mcas-mitm": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=12,
        channel=ChannelSpec(0.9, 0.02), attack=AttackSpec(AttackKind.MITM_MCAS_X, 0.3)),
        "bfa686ab036a5995d318cdfe5c953c1e6e3e7720650326885e0a73565e69a4af"),
    "lm05-mitm": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=13,
        channel=ChannelSpec(0.9, 0.02), attack=AttackSpec(AttackKind.MITM_LM05, 0.3)),
        "ce50e83b7d88ed8681c677facd4686762df53158f13b799e225eefcf3248be81"),
    "pp-mitm": (SessionConfig(
        protocol=ProtocolKind.PING_PONG, n_rounds=1000, seed=14,
        channel=ChannelSpec(0.9, 0.02), attack=AttackSpec(AttackKind.MITM_PING_PONG, 0.3)),
        "e6af5de8b29a7d81913288fd008bdcf7640ac3ae5cfa306bccdaa6d473ebaa02"),
    "lm05-ancilla-f0-1": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=15,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 0.7, f0=1.0, f_plus=0.8)),
        "c6096e2eb38ac5653fcc67dbb02a4e86f55c0177db26676e59774cacd08e445f"),
    # One case for every other protocol x attack pair the engine accepts;
    # the three intercept-resend cases cover the three basis policies.
    "bb84-ir-random": (SessionConfig(
        protocol=ProtocolKind.BB84, n_rounds=1000, seed=16,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 0.4, BasisPolicy.RANDOM)),
        "ad17d5ccb7ac82c8a8d251f201a53f0e723188ae494efd3b3045076f804e78e0"),
    "mcas-ir-fixed-z": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=17,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 0.4, BasisPolicy.FIXED_Z)),
        "5f43a2c9ffb26df902ed907bd1c6c2555eec29984c9ce5d9b5e0b91ff84f85c1"),
    "lm05-ir-fixed-x": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=18,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.INTERCEPT_RESEND, 0.4, BasisPolicy.FIXED_X)),
        "6693dd6235dd8cc0cb466d6a690725720731e85dd710ff70d573acdad704c5d5"),
    "pp-none": (SessionConfig(
        protocol=ProtocolKind.PING_PONG, n_rounds=1000, seed=19,
        channel=ChannelSpec(0.9, 0.02)),
        "73a95ce8011bd646cd9c1783a2098f54a57fb070dc871eb4d831c874f792f018"),
    "lm05-none": (SessionConfig(
        protocol=ProtocolKind.LM05, n_rounds=1000, seed=20,
        channel=ChannelSpec(0.9, 0.02)),
        "07f038a6ec857da7f635b5d0b7e575ff0494e9ac235557f98ecca3875f3447d2"),
    "mcas-none": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=21,
        channel=ChannelSpec(0.9, 0.02)),
        "ac503ea8e096a0256459d277003726e7ff899c364c691ac143c54a6f63ae8f1a"),
    "bb84-ancilla": (SessionConfig(
        protocol=ProtocolKind.BB84, n_rounds=1000, seed=22,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 0.7, f0=0.9, f_plus=0.8)),
        "a4eff9deae35ebf6c0320fcbab5dd342366474324bfc9a979bcb999fd16fe999"),
    "mcas-ancilla": (SessionConfig(
        protocol=ProtocolKind.MCAS_BB84, n_rounds=1000, seed=23,
        channel=ChannelSpec(0.9, 0.02),
        attack=AttackSpec(AttackKind.ANCILLA_UBE, 0.7, f0=0.8, f_plus=0.9)),
        "dba5a5909ce6c3239fd80af490afbd65e491c936822b23df45da086832657e43"),
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
