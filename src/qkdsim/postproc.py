"""Classical post-processing: hash verification and privacy amplification.

Keys are bit strings of '0'/'1' characters.  The hash family is the
diagonal-constant (Toeplitz) binary matrix family: a matrix with k rows
and m columns whose descending diagonals are constant, defined by
m + k - 1 seed bits.  Distinct inputs collide with probability at most
2^-k under a uniformly drawn seed, which is what both the equality check
and the extraction step rely on.

``choose_output_length`` is a policy stub, not a security proof: the
leaked fraction must be supplied externally (for the copy attack it is
the coverage estimate 2 * D_CM).  With full leakage it returns zero,
which is the executable form of the statement that hashing alone cannot
erase key bits an eavesdropper already holds.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

NO_PRIVACY_REASON = "no-extractable-privacy"

DEFAULT_SAFETY_BITS = 32


@dataclass(frozen=True)
class HashSpec:
    """A member of the diagonal-constant matrix family.

    ``seed_bits`` holds the m + k - 1 diagonal values; entry (i, j) of
    the matrix is ``seed_bits[m - 1 + i - j]``.
    """

    input_len: int
    output_len: int
    seed_bits: str

    def __post_init__(self):
        if self.input_len < 1:
            raise ValueError(f"input_len must be positive, got {self.input_len!r}")
        if not 0 <= self.output_len <= self.input_len:
            raise ValueError(
                f"output_len out of [0, {self.input_len}]: {self.output_len!r}")
        expected = self.input_len + self.output_len - 1
        if len(self.seed_bits) != expected:
            raise ValueError(
                f"seed_bits must have length {expected}, got {len(self.seed_bits)}")
        if self.seed_bits.strip("01"):
            raise ValueError("seed_bits must contain only '0' and '1'")


def random_hash_spec(input_len: int, output_len: int, rng: random.Random) -> HashSpec:
    """Draw a uniformly random family member."""
    n = input_len + output_len - 1
    seed = f"{rng.getrandbits(n):0{n}b}" if n > 0 else ""
    return HashSpec(input_len, output_len, seed)


def _bit_array(bits: str) -> np.ndarray:
    return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def _bit_string(arr: np.ndarray) -> str:
    return (arr.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def universal_hash(x: str, spec: HashSpec) -> str:
    """Image of x under the matrix defined by spec, arithmetic mod 2.

    The matrix-vector product is a convolution of the seed diagonals
    with the input, so row i of the output is the parity of the input
    masked by diagonal window i.
    """
    if len(x) != spec.input_len:
        raise ValueError(f"input length {len(x)} != spec input_len {spec.input_len}")
    if spec.output_len == 0:
        return ""
    seed = _bit_array(spec.seed_bits).astype(np.int64)
    vec = _bit_array(x).astype(np.int64)
    full = np.convolve(seed, vec)
    m = spec.input_len
    return _bit_string(full[m - 1:m - 1 + spec.output_len] & 1)


def verify(fx: str, fy: str) -> bool:
    """Bitwise equality of two hash values of the same length."""
    if len(fx) != len(fy):
        raise ValueError(f"length mismatch: {len(fx)} != {len(fy)}")
    return fx == fy


def ec_verify(alice_key: str, bob_key: str, check_len: int, rng: random.Random) -> bool:
    """Compare check_len-bit hashes of the two keys under a shared spec.

    True means the keys agree except with probability at most
    2^-check_len.  Empty keys verify as False (nothing to confirm).
    """
    if len(alice_key) != len(bob_key):
        raise ValueError(f"key length mismatch: {len(alice_key)} != {len(bob_key)}")
    if not alice_key:
        return False
    spec = random_hash_spec(len(alice_key), min(check_len, len(alice_key)), rng)
    return verify(universal_hash(alice_key, spec), universal_hash(bob_key, spec))


def choose_output_length(m: int, eve_info: float, safety: int = DEFAULT_SAFETY_BITS) -> int:
    """Output-length policy: max(0, floor(m * (1 - eve_info)) - safety).

    With eve_info = 1 this is zero regardless of m: full leakage leaves
    nothing to extract.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m!r}")
    if not 0.0 <= eve_info <= 1.0:
        raise ValueError(f"eve_info out of [0, 1]: {eve_info!r}")
    if safety < 0:
        raise ValueError(f"safety must be >= 0, got {safety!r}")
    return max(0, math.floor(m * (1.0 - eve_info)) - safety)


def privacy_amplify(key: str, eve_info: float, safety: int,
                    rng: random.Random) -> tuple[str, HashSpec | None]:
    """Compress a raw key through a hash spec drawn from ``rng``.

    Returns the secret key and the spec, so the peer (who holds the same
    raw key) can compute the identical output.  A zero output length
    yields an empty key; callers report that as NO_PRIVACY_REASON.  The
    caller supplies a seeded rng: there is no wall-clock seeding.
    """
    m = len(key)
    if m == 0:
        return "", None
    k = choose_output_length(m, eve_info, safety)
    spec = random_hash_spec(m, k, rng)
    return universal_hash(key, spec), spec
