"""The counter-based random stream behind every draw and every derived seed.

Word i of the stream keyed by k is mix(k + (i + 1) * GAMMA) mod 2**64, the
finaliser and increment of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)
applied to a counter, as counter-based generators do (Salmon et al., SC
2011): any block of words is one vectorised mix, and :func:`child_seed` is
the scalar case.  A sweep point's or a table row's seed, and the key of each
column a session draws, is a word of its parent seed's stream.

Streams keyed a and b are shifted copies of one sequence that share a word
only where a - b = j * GAMMA mod 2**64 for |j| below their lengths, at most
2**24 words here: for keys drawn through the mix, about 2**-39 per pair.
The mix runs on uint64 arrays, which wrap silently where numpy's uint64
scalars warn, and a word's bytes and bits are read least significant first.
"""

import functools

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
# As 0-d uint64 arrays, which numpy applies to a short array faster than a
# Python int or a uint64 scalar (0.45 against 0.74-0.88 us on 64 words).
_GAMMA, _ONE, _LAST = (np.array(x, np.uint64) for x in (GAMMA, 1, 31))
_MIX64 = tuple((np.array(shift, np.uint64), np.array(factor, np.uint64)) for shift, factor in _MIX)
PASS_WORDS = 1 << 15  # words per pass of the mix: a pass stays in cache


def child_seed(seed: int, salt: int) -> int:
    """Word ``salt`` of the stream keyed by ``seed``, in Python ints."""
    x = (seed + (salt + 1) * GAMMA) % 2 ** 64
    for shift, factor in _MIX:
        x = ((x ^ (x >> shift)) * factor) % 2 ** 64
    return x ^ (x >> 31)


def words(keys, counters: np.ndarray) -> np.ndarray:
    """Words ``counters`` (a 1-d integer array) of the streams keyed by
    ``keys``, one int or one key per counter."""
    return _mix((counters.astype(np.uint64) + _ONE) * _GAMMA + keys)


def block(keys, start: int, stop: int) -> np.ndarray:
    """Words start to stop - 1: a row for an int key, one per key of a (rows, 1) column."""
    return _mix(_steps(start, stop) + keys).astype("<u8", copy=False)


def blocks(*parts) -> list[np.ndarray]:
    """``block(keys, start, stop)`` for each ``(keys, start, stop)`` part with
    (rows, 1) keys, in one mix."""
    sizes = [len(keys) * (stop - start) for keys, start, stop in parts]
    flat = np.empty(sum(sizes), "<u8")
    out, at = [], 0
    for (keys, start, stop), size in zip(parts, sizes):
        view = flat[at:at + size].reshape(len(keys), stop - start)
        out.append(np.add(_steps(start, stop), keys, out=view))
        at += size
    _mix(flat)
    return out


@functools.lru_cache(maxsize=8)
def _steps(start: int, stop: int) -> np.ndarray:
    steps = (np.arange(start, stop, dtype=np.uint64) + _ONE) * _GAMMA
    steps.setflags(write=False)
    return steps


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place, in passes of ``PASS_WORDS``."""
    flat = z.reshape(-1)
    for lo in range(0, len(flat), PASS_WORDS):
        part = flat[lo:lo + PASS_WORDS]
        for shift, factor in _MIX64:
            part ^= part >> shift
            part *= factor
        part ^= part >> _LAST
    return z


def bits(rows: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of words, bit i from word i // 64, as 0/1 uint8."""
    return np.unpackbits(rows.view(np.uint8), axis=-1, count=n, bitorder="little")
