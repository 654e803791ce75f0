"""Classical post-processing: hash verification and privacy amplification.

Keys, hash seeds and hash values are uint8 numpy arrays of 0/1 bits; a
value other than 0 or 1 is rejected.  The hash family is the
diagonal-constant (Toeplitz) binary matrix family: a matrix with k rows
and m columns whose descending diagonals are constant, defined by
m + k - 1 seed bits.  Distinct inputs collide with probability at most
2^-k under a uniformly drawn seed, which is what both the equality check
and the extraction step rely on.

The matrix-vector product is a convolution of the seed with the input,
evaluated by real FFTs in O((m + k) log(m + k)) time and rounded back to
integers before taking parities.  The FFT length is the smallest
n = 2^a * 3^b * 5^c with n >= m + k - 1.  float64 keeps that rounding
exact up to ``MAX_HASH_INPUT_BITS`` input bits; longer inputs are
rejected.

``choose_output_length`` is a policy stub, not a security proof: the
leaked fraction must be supplied externally.  The copy attack's is its
coverage 2 * D_CM, not a bound over attacks: a double-CNOT Eve copies
every LM05 key bit at D_CM = p/4, so a length from 2 * D_CM does not
hold against her.  With full leakage it returns zero, the executable
form of the statement that hashing alone cannot erase key bits an
eavesdropper already holds.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import stream
from .checks import check_range, check_seed

NO_PRIVACY_REASON = "no-extractable-privacy"

DEFAULT_SAFETY_BITS = 32

# Largest input length m that universal_hash accepts (see its docstring).
MAX_HASH_INPUT_BITS = 2 ** 24


def bit_rows(values: Sequence[int], width: int) -> np.ndarray:
    """uint8 bit rows of shape (len(values), width), most significant bit first.

    Row i holds the low ``width`` bits of ``values[i]``, in the order
    f"{values[i]:0{width}b}" spells them.
    """
    nbytes = (width + 7) // 8
    packed = b"".join(v.to_bytes(nbytes, "big") for v in values)
    raw = np.frombuffer(packed, dtype=np.uint8).reshape(len(values), nbytes)
    return np.unpackbits(raw, axis=1)[:, nbytes * 8 - width:]


def check_bits(bits: np.ndarray, name: str) -> np.ndarray:
    """``bits`` as a uint8 array; ValueError when a value is not 0 or 1.

    An unsigned or bool array is checked by its maximum, one pass with no
    temporary array; any other kind value by value.
    """
    bits = np.asarray(bits)
    if bits.max(initial=0) > 1 if bits.dtype.kind in "bu" else np.any((bits != 0) & (bits != 1)):
        raise ValueError(f"{name} must contain only 0 and 1")
    return bits.astype(np.uint8, copy=False)


@dataclass(frozen=True, eq=False)
class HashSpec:
    """A member of the diagonal-constant matrix family.

    ``seed_bits`` is a 0/1 array of the m + k - 1 diagonal values; entry
    (i, j) of the matrix is ``seed_bits[m - 1 + i - j]``.  The spec keeps
    a read-only uint8 copy of the array it is given.
    """

    input_len: int
    output_len: int
    seed_bits: np.ndarray

    def __post_init__(self):
        check_range("input_len", self.input_len, 1, math.inf, "[)", integer=True)
        check_range("output_len", self.output_len, 0, self.input_len, integer=True)
        expected = self.input_len + self.output_len - 1
        if len(self.seed_bits) != expected:
            raise ValueError(
                f"seed_bits must have length {expected}, got {len(self.seed_bits)}")
        seed = check_bits(self.seed_bits, "seed_bits").copy()
        seed.setflags(write=False)
        object.__setattr__(self, "seed_bits", seed)


def random_hash_spec(input_len: int, output_len: int, seed: int) -> HashSpec:
    """A uniformly random family member, drawn from the stream keyed by
    ``seed`` (see :mod:`qkdsim.stream`).

    Its m + k - 1 diagonals are the stream's first bits: diagonal j is bit
    j % 64 of word j // 64.  Equal seeds give equal specs, so two peers that
    share a seed share the matrix.  ValueError when ``seed`` is not a
    64-bit integer.
    """
    check_seed(seed)
    n = max(input_len + output_len - 1, 0)
    return HashSpec(input_len, output_len, stream.bits(stream.block(seed, 0, (n + 63) // 64), n))


def _fft_length(t: int) -> int:
    """The smallest n = 2^a * 3^b * 5^c with n >= t, for t >= 1."""
    best = 1 << (t - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two >= ceil(t / p35)
            best = min(best, p35 << (-(-t // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_parity(seeds: np.ndarray, xs: np.ndarray, m: int, k: int) -> np.ndarray:
    """Toeplitz hashes of a batch of rows: (B, k) uint8 output bits.

    ``seeds`` holds uint8 diagonal rows of shape (B, m + k - 1) and
    ``xs`` uint8 input bits of shape (B, m).  Output bit i of a row is
    entry m - 1 + i of the linear convolution seed * x, mod 2.  The
    circular convolution of length n >= m + k - 1 adds entry
    m - 1 + i + n to it, which lies beyond the last linear entry
    2m + k - 3, so no padding to the full linear length is needed.  n is
    ``_fft_length(m + k - 1)``, the smallest 2^a * 3^b * 5^c that long:
    mixed-radix FFTs of such lengths cost about as much per point as
    power-of-two ones (Frigo & Johnson, Proc. IEEE 93(2), 2005), while the
    next power of two can be almost twice m + k - 1.

    The most array memory held at once is the two spectra: their product
    overwrites the first, and it is freed before the rounding, which
    happens in place in the inverse FFT's output.  Values are at most
    m <= 2^24, so their parities are taken in int32.
    """
    n = _fft_length(m + k - 1)
    spectrum = np.fft.rfft(seeds, n)
    spectrum *= np.fft.rfft(xs, n)
    conv = np.fft.irfft(spectrum, n)[..., m - 1:m - 1 + k]
    del spectrum
    np.rint(conv, out=conv)
    return (conv.astype(np.int32) & 1).astype(np.uint8)


def universal_hash(x: np.ndarray, spec: HashSpec) -> np.ndarray:
    """Image of the bit array x under the matrix defined by spec, mod 2.

    Returns ``spec.output_len`` uint8 bits: row i of the output is the
    parity of the input masked by diagonal window i.  Raises ValueError
    when x does not have length ``spec.input_len``, is longer than
    ``MAX_HASH_INPUT_BITS`` or holds a value other than 0 and 1.

    Exactness: the convolution is evaluated by FFTs of length n, the
    smallest 2^a * 3^b * 5^c >= m + k - 1.  Its values are integers in
    [0, m].  The float64 FFT error on them is of order
    eps * |seed| * |x| * log2(n) with Euclidean norms, and for 0/1 rows
    |seed| * |x| <= sqrt(2) * m, so every value rounds to the right
    integer while that stays well below 1/2.  At the cap m = 2^24
    (n <= 2^25) it is about 2^-53 * sqrt(2) * 2^24 * 25, below 1e-7.
    Measured with numpy's pocketfft at mixed-radix lengths, the largest
    distance to the nearest integer was 0.0 for all-ones inputs at
    m = 2^23 + 1 (k = 1, n = 2^8 * 3^8 * 5), where every output
    equals m, 0.0 for a random input at m = 2^21 (k = m/2,
    n = 3 * 2^20), and 9.3e-10 for a random input at m = 2^24
    (k = 2^22 + 1, n = 5 * 2^22).  A 1e7-round session's key of about
    7e6 bits lies below the cap.
    """
    if len(x) != spec.input_len:
        raise ValueError(f"input length {len(x)} != spec input_len {spec.input_len}")
    if spec.input_len > MAX_HASH_INPUT_BITS:
        raise ValueError(f"input length {spec.input_len} exceeds "
                         f"MAX_HASH_INPUT_BITS = {MAX_HASH_INPUT_BITS}")
    x = check_bits(x, "x")
    if spec.output_len == 0:
        return np.zeros(0, dtype=np.uint8)
    return _toeplitz_parity(spec.seed_bits[None], x[None], spec.input_len,
                            spec.output_len)[0]


def ec_verify(alice_key: np.ndarray, bob_key: np.ndarray, check_len: int, seed: int) -> bool:
    """Compare check_len-bit hashes of the two keys under the spec drawn
    from ``seed`` (see :func:`random_hash_spec`).

    True means the keys agree except with probability at most
    2^-check_len.  Empty keys verify as False (nothing to confirm).
    """
    if len(alice_key) != len(bob_key):
        raise ValueError(f"key length mismatch: {len(alice_key)} != {len(bob_key)}")
    if not len(alice_key):
        return False
    spec = random_hash_spec(len(alice_key), min(check_len, len(alice_key)), seed)
    return np.array_equal(universal_hash(alice_key, spec), universal_hash(bob_key, spec))


def choose_output_length(m: int, eve_info: float, safety: int = DEFAULT_SAFETY_BITS) -> int:
    """Output-length policy: max(0, floor(m * (1 - eve_info)) - safety).

    With eve_info = 1 this is zero regardless of m: full leakage leaves
    nothing to extract.
    """
    check_range("m", m, 0, math.inf, "[)", integer=True)
    check_range("eve_info", eve_info, 0, 1)
    check_range("safety", safety, 0, math.inf, "[)", integer=True)
    return max(0, math.floor(m * (1.0 - eve_info)) - safety)


def privacy_amplify(key: np.ndarray, eve_info: float, safety: int,
                    seed: int) -> tuple[np.ndarray, HashSpec | None]:
    """Compress a raw key through the hash spec drawn from ``seed`` (see
    :func:`random_hash_spec`).

    Returns the secret key and the spec, so the peer (who holds the same
    raw key) can compute the identical output.  A zero output length
    yields an empty key; callers report that as NO_PRIVACY_REASON.  The
    caller supplies the seed: there is no wall-clock seeding.
    """
    m = len(key)
    if m == 0:
        return np.zeros(0, dtype=np.uint8), None
    k = choose_output_length(m, eve_info, safety)
    spec = random_hash_spec(m, k, seed)
    return universal_hash(key, spec), spec
