"""Tests for universal hashing, verification and the output-length policy.

Keys, seeds and hash values are uint8 bit arrays."""

import random
import tracemalloc

import numpy as np
import pytest

from qkdsim.postproc import (
    MAX_HASH_INPUT_BITS,
    HashSpec,
    _fft_length,
    _toeplitz_parity,
    check_bits,
    choose_output_length,
    ec_verify,
    privacy_amplify,
    random_hash_spec,
    universal_hash,
)
from qkdsim.stream import child_seed


def hash_oracle(x, spec):
    """Row-by-row matrix product, independent of the convolution path."""
    m, k = spec.input_len, spec.output_len
    out = []
    for i in range(k):
        acc = 0
        for j in range(m):
            acc ^= int(spec.seed_bits[m - 1 + i - j]) & int(x[j])
        out.append(acc)
    return np.array(out, dtype=np.uint8)


def random_bits(rng, n):
    """n uint8 bits of one rng.getrandbits(n), most significant first."""
    return np.array([int(c) for c in f"{rng.getrandbits(n):0{n}b}"] if n else [],
                    dtype=np.uint8)


def bits(text):
    """The uint8 array of a '0'/'1' string."""
    return np.array([int(c) for c in text], dtype=np.uint8)


def convolve_oracle(x, spec):
    """Direct convolution: its valid part is entries m - 1 .. m + k - 2 of seed * x."""
    full = np.convolve(spec.seed_bits.astype(np.float64), x.astype(np.float64), "valid")
    return (full.astype(np.int64) & 1).astype(np.uint8)


def assert_bits_equal(got, want):
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


# Arrays no key can be: a 2, a 255 and Eve's int8 -1 for "no bit".
NON_BINARY = [np.array([0, 1, 2, 1], np.uint8), np.array([1, 255, 0, 0], np.uint8),
              np.array([1, 0, -1, 1], np.int8)]


class TestCheckBits:
    @pytest.mark.parametrize("values, dtype", [
        ([0, 1, 2], np.uint8), ([1, 0, -1], np.int8), ([0, 0.5], np.float64),
        ([1, 256], np.uint16), ([-1, 0], np.int64), ([2], np.int64), ([1.0, 2.0], np.float32)])
    def test_rejects_every_other_value(self, values, dtype):
        with pytest.raises(ValueError, match="key must contain only 0 and 1"):
            check_bits(np.array(values, dtype), "key")

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64, np.uint64, bool, np.float64])
    def test_accepts_zeros_and_ones(self, dtype):
        for values in ([], [0], [1], [1, 0, 1, 1]):
            got = check_bits(np.array(values, dtype), "key")
            assert got.dtype == np.uint8 and got.tolist() == [int(v) for v in values]

    def test_uint8_check_allocates_no_copy(self):
        """A uint8 key is checked in place: no temporary of its length."""
        key = np.ones(1 << 20, np.uint8)
        check_bits(key, "key")
        tracemalloc.start()
        try:
            assert check_bits(key, "key") is key
            assert tracemalloc.get_traced_memory()[1] < 4096
        finally:
            tracemalloc.stop()


class TestFftLength:
    def test_smallest_smooth_length(self):
        """The smallest 2^a * 3^b * 5^c >= t, by brute force."""
        smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(14) for b in range(9)
                        for c in range(7) if 2 ** a * 3 ** b * 5 ** c <= 8192)
        for t in range(1, 5001):
            assert _fft_length(t) == next(n for n in smooth if n >= t)

    def test_cap_fits_in_two_to_the_25(self):
        assert _fft_length(2 * MAX_HASH_INPUT_BITS - 1) == 2 ** 25


class TestHashSpec:
    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            HashSpec(8, 4, np.zeros(10, np.uint8))

    def test_output_len_bounds(self):
        with pytest.raises(ValueError):
            HashSpec(8, 9, np.zeros(16, np.uint8))

    def test_bit_alphabet(self):
        for seed in NON_BINARY:
            with pytest.raises(ValueError, match="only 0 and 1"):
                HashSpec(3, 2, seed)

    def test_seed_stored_as_checked_copy(self):
        given = np.array([1, 0, 1, 1], np.int64)
        spec = HashSpec(3, 2, given)
        assert spec.seed_bits.dtype == np.uint8 and not spec.seed_bits.flags.writeable
        given[0] = 0
        assert spec.seed_bits.tolist() == [1, 0, 1, 1]
        listed = HashSpec(3, 2, [1, 0, 1, 1])
        assert_bits_equal(universal_hash(bits("101"), listed),
                          universal_hash(bits("101"), spec))

    def test_random_spec_shape(self):
        for seed in (0, 5, 2 ** 64 - 1):
            spec = random_hash_spec(80, 16, seed)
            assert spec.input_len == 80 and spec.output_len == 16
            assert len(spec.seed_bits) == 95 and spec.seed_bits.dtype == np.uint8
            # Diagonal j is bit j % 64 of word j // 64 of the seed's stream.
            words = [child_seed(seed, i) for i in range(2)]
            assert spec.seed_bits.tolist() == [words[j // 64] >> (j % 64) & 1 for j in range(95)]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, True])
    def test_spec_seed_is_a_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a 64-bit integer"):
            random_hash_spec(16, 8, seed)


class TestUniversalHash:
    def test_matches_matrix_oracle(self):
        rng = random.Random(1)
        for _ in range(50):
            m = rng.randrange(1, 40)
            k = rng.randrange(0, m + 1)
            spec = random_hash_spec(m, k, rng.getrandbits(64))
            x = random_bits(rng, m)
            assert_bits_equal(universal_hash(x, spec), hash_oracle(x, spec))

    def test_zero_output_length(self):
        spec = random_hash_spec(8, 0, 2)
        assert_bits_equal(universal_hash(bits("10110010"), spec), bits(""))

    def test_equal_inputs_equal_hashes(self):
        spec = random_hash_spec(32, 16, 3)
        x = random_bits(random.Random(4), 32)
        assert np.array_equal(universal_hash(x, spec), universal_hash(x, spec))

    def test_zero_seed_gives_zero_output(self):
        spec = HashSpec(8, 4, np.zeros(11, np.uint8))
        assert_bits_equal(universal_hash(bits("11111111"), spec), bits("0000"))

    def test_length_mismatch_rejected(self):
        spec = random_hash_spec(8, 4, 5)
        with pytest.raises(ValueError):
            universal_hash(bits("101"), spec)

    def test_linearity(self):
        """hash(x xor y) = hash(x) xor hash(y) for the matrix family."""
        rng = random.Random(6)
        m, k = 64, 32
        trials = [(random_hash_spec(m, k, rng.getrandbits(64)), random_bits(rng, m),
                   random_bits(rng, m)) for _ in range(2000)]
        specs, xs, ys = zip(*trials)
        seeds, a, b = np.stack([s.seed_bits for s in specs]), np.stack(xs), np.stack(ys)
        ha, hb, hxor = (_toeplitz_parity(seeds, rows, m, k) for rows in (a, b, a ^ b))
        assert np.array_equal(hxor, ha ^ hb)

    def test_batch_kernel_matches_universal_hash(self):
        rng = random.Random(17)
        for m, k in ((1, 1), (5, 3), (64, 32), (100, 100), (257, 1)):
            specs = [random_hash_spec(m, k, rng.getrandbits(64)) for _ in range(20)]
            xs = [random_bits(rng, m) for _ in range(20)]
            rows = _toeplitz_parity(np.stack([s.seed_bits for s in specs]), np.stack(xs), m, k)
            assert np.array_equal(rows, [universal_hash(x, s) for x, s in zip(xs, specs)])

    @pytest.mark.parametrize("m", [1000, 4097, 20013])
    def test_matches_direct_convolution(self, m):
        rng = random.Random(m)
        for k in (1, m // 2, m):
            spec = random_hash_spec(m, k, rng.getrandbits(64))
            x = random_bits(rng, m)
            assert_bits_equal(universal_hash(x, spec), convolve_oracle(x, spec))

    @pytest.mark.parametrize("t", [2 ** 15, 2 ** 15 + 1, 34560, 34561, 34583])
    def test_matches_direct_convolution_at_length(self, t):
        """m + k - 1 = t on both sides of an FFT length: a power of two,
        one past it, a mixed-radix length (2^8 * 3^3 * 5), one past that,
        and a prime."""
        rng = random.Random(t)
        k = 1000
        spec = random_hash_spec(t - k + 1, k, rng.getrandbits(64))
        x = random_bits(rng, spec.input_len)
        assert_bits_equal(universal_hash(x, spec), convolve_oracle(x, spec))

    def test_all_ones_closed_form(self):
        """With every seed and input bit set, every convolution value is m,
        so the FFT must round values of size 2^22 exactly: an error of one
        would flip the output parity.  2^22 + 1 hashes at the mixed-radix
        length 2^7 * 3^8 * 5."""
        for m in (2 ** 22, 2 ** 22 + 1):
            ones = np.ones(m, np.uint8)
            assert_bits_equal(universal_hash(ones, HashSpec(m, 1, ones)),
                              np.array([m % 2], np.uint8))

    def test_peak_memory_is_the_two_spectra(self):
        """At session_pa's largest (m, k), the hash allocates at most 4 KiB
        more than holding the seed's and the input's spectra at once: the
        product overwrites one, and it is freed before the rounding."""
        m, k = 20000, 18968
        rng = random.Random(20)
        spec = random_hash_spec(m, k, rng.getrandbits(64))
        x = random_bits(rng, m)
        n = _fft_length(m + k - 1)

        def peak(fn):
            fn()  # warm-up: no first-call cost counts
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spectra = peak(lambda: (np.fft.rfft(spec.seed_bits, n), np.fft.rfft(x, n)))
        assert peak(lambda: universal_hash(x, spec)) <= spectra + 4096

    def test_input_above_cap_rejected(self):
        m = MAX_HASH_INPUT_BITS + 1
        with pytest.raises(ValueError, match="MAX_HASH_INPUT_BITS"):
            universal_hash(np.zeros(m, np.uint8), HashSpec(m, 1, np.zeros(m, np.uint8)))

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("x", ["1?1 ", "1?11", "0120", "10/1", "10é1"])
    def test_non_binary_input_rejected(self, x, k):
        """Each character as its code point minus ord('0'): '?' is 15, '2'
        is 2, ' ' is -16, '/' is -1 and 'é' is 185."""
        spec = random_hash_spec(4, k, 18)
        with pytest.raises(ValueError):
            universal_hash(np.array([ord(c) - ord("0") for c in x]), spec)

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("i", range(len(NON_BINARY)))
    def test_non_binary_array_rejected(self, i, k):
        spec = random_hash_spec(4, k, 18)
        with pytest.raises(ValueError, match="only 0 and 1"):
            universal_hash(NON_BINARY[i], spec)

    def test_text_rejected(self):
        spec = random_hash_spec(4, 2, 18)
        with pytest.raises(ValueError):
            universal_hash("1011", spec)


class TestVerify:
    def test_no_collisions_at_k32(self):
        """Universal family bound 2^-32: zero observed collisions over 20000
        random distinct pairs, each under its own random member."""
        rng = random.Random(7)
        m, k, n = 64, 32, 20000
        seeds = np.stack([random_hash_spec(m, k, rng.getrandbits(64)).seed_bits
                          for _ in range(n)])
        xa, xb = np.random.default_rng(7).integers(0, 2, (2, n, m), dtype=np.uint8)
        xb[:, 0] ^= np.all(xa == xb, axis=1)  # a pair drawn equal differs in bit 0
        for lo in range(0, n, 10000):
            chunk = slice(lo, lo + 10000)
            ha = _toeplitz_parity(seeds[chunk], xa[chunk], m, k)
            hb = _toeplitz_parity(seeds[chunk], xb[chunk], m, k)
            assert not np.all(ha == hb, axis=1).any()


class TestEcVerify:
    def test_equal_keys(self):
        rng = random.Random(8)
        key = random_bits(rng, 128)
        assert ec_verify(key, key, 64, rng.getrandbits(64))

    def test_differing_keys_detected(self):
        rng = random.Random(9)
        for _ in range(500):
            key = random_bits(rng, 128)
            pos = rng.randrange(128)
            other = key.copy()
            other[pos] ^= 1
            assert not ec_verify(key, other, 64, rng.getrandbits(64))

    def test_empty_keys_false(self):
        assert not ec_verify(bits(""), bits(""), 64, 10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ec_verify(bits("101"), bits("10"), 8, 11)

    def test_non_binary_key_rejected(self):
        with pytest.raises(ValueError):
            ec_verify(np.array([1, -1, 1, 0], np.int8), bits("1110"), 4, 20)

    @pytest.mark.parametrize("i", range(len(NON_BINARY)))
    def test_non_binary_array_rejected(self, i):
        for pair in ((NON_BINARY[i], bits("1110")), (bits("1110"), NON_BINARY[i])):
            with pytest.raises(ValueError, match="only 0 and 1"):
                ec_verify(*pair, 4, 20)


class TestOutputLengthPolicy:
    def test_full_leakage_zero(self):
        assert choose_output_length(1000, 1.0, 10) == 0

    def test_no_leakage(self):
        assert choose_output_length(1000, 0.0, 10) == 990

    def test_half_leakage(self):
        assert choose_output_length(1000, 0.5, 10) == 490

    def test_monotone_in_eve_info(self):
        values = [choose_output_length(1000, i / 20, 10) for i in range(21)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_m(self):
        values = [choose_output_length(m, 0.3, 10) for m in range(0, 2000, 37)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_output_length(-1, 0.5, 10)
        with pytest.raises(ValueError):
            choose_output_length(10, 1.5, 0)


class TestPrivacyAmplify:
    def test_full_leakage_empty_key(self):
        secret, spec = privacy_amplify(np.ones(100, np.uint8), 1.0, 10, 12)
        assert_bits_equal(secret, bits(""))
        assert spec.output_len == 0

    def test_no_leakage_full_length(self):
        key = random_bits(random.Random(13), 256)
        secret, spec = privacy_amplify(key, 0.0, 0, 14)
        assert len(secret) == 256
        assert spec.output_len == 256

    def test_peers_agree_through_shared_spec(self):
        rng = random.Random(15)
        key = random_bits(rng, 200)
        secret, spec = privacy_amplify(key, 0.25, 8, rng.getrandbits(64))
        assert_bits_equal(universal_hash(key, spec), secret)

    def test_empty_key(self):
        secret, spec = privacy_amplify(bits(""), 0.0, 0, 16)
        assert_bits_equal(secret, bits(""))
        assert spec is None

    def test_key_above_cap_rejected(self):
        key = np.zeros(MAX_HASH_INPUT_BITS + 1, np.uint8)
        with pytest.raises(ValueError, match="MAX_HASH_INPUT_BITS"):
            privacy_amplify(key, 1.0, 0, 19)

    @pytest.mark.parametrize("eve_info", [0.0, 1.0])
    @pytest.mark.parametrize("i", range(len(NON_BINARY)))
    def test_non_binary_key_rejected(self, i, eve_info):
        with pytest.raises(ValueError, match="only 0 and 1"):
            privacy_amplify(NON_BINARY[i], eve_info, 0, 19)
