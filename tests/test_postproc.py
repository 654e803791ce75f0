"""Tests for universal hashing, verification and the output-length policy."""

import random

import numpy as np
import pytest

from qkdsim.postproc import (
    MAX_HASH_INPUT_BITS,
    HashSpec,
    _toeplitz_parity,
    choose_output_length,
    ec_verify,
    privacy_amplify,
    random_hash_spec,
    universal_hash,
    verify,
)


def hash_oracle(x, spec):
    """Row-by-row matrix product, independent of the convolution path."""
    m, k = spec.input_len, spec.output_len
    out = []
    for i in range(k):
        acc = 0
        for j in range(m):
            acc ^= int(spec.seed_bits[m - 1 + i - j]) & int(x[j])
        out.append(str(acc))
    return "".join(out)


def random_bits(rng, n):
    return f"{rng.getrandbits(n):0{n}b}" if n else ""


def bit_rows(strings):
    """uint8 rows of a sequence of equal-length '0'/'1' strings."""
    strings = list(strings)
    return np.frombuffer("".join(strings).encode(), dtype=np.uint8).reshape(
        len(strings), -1) - ord("0")


def convolve_oracle(x, spec):
    """Direct convolution: its valid part is entries m - 1 .. m + k - 2 of seed * x."""
    seed = bit_rows([spec.seed_bits])[0].astype(np.float64)
    vec = bit_rows([x])[0].astype(np.float64)
    full = np.convolve(seed, vec, "valid")
    return "".join(map(str, full.astype(np.int64) & 1))


class TestHashSpec:
    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            HashSpec(8, 4, "0" * 10)

    def test_output_len_bounds(self):
        with pytest.raises(ValueError):
            HashSpec(8, 9, "0" * 16)

    def test_bit_alphabet(self):
        with pytest.raises(ValueError):
            HashSpec(4, 2, "01x01")

    def test_random_spec_shape(self):
        spec = random_hash_spec(16, 8, random.Random(0))
        assert spec.input_len == 16 and spec.output_len == 8
        assert len(spec.seed_bits) == 23


class TestUniversalHash:
    def test_matches_matrix_oracle(self):
        rng = random.Random(1)
        for _ in range(50):
            m = rng.randrange(1, 40)
            k = rng.randrange(0, m + 1)
            spec = random_hash_spec(m, k, rng)
            x = random_bits(rng, m)
            assert universal_hash(x, spec) == hash_oracle(x, spec)

    def test_zero_output_length(self):
        spec = random_hash_spec(8, 0, random.Random(2))
        assert universal_hash("10110010", spec) == ""

    def test_equal_inputs_equal_hashes(self):
        spec = random_hash_spec(32, 16, random.Random(3))
        x = random_bits(random.Random(4), 32)
        assert universal_hash(x, spec) == universal_hash(x, spec)

    def test_zero_seed_gives_zero_output(self):
        spec = HashSpec(8, 4, "0" * 11)
        assert universal_hash("11111111", spec) == "0000"

    def test_length_mismatch_rejected(self):
        spec = random_hash_spec(8, 4, random.Random(5))
        with pytest.raises(ValueError):
            universal_hash("101", spec)

    def test_linearity(self):
        """hash(x xor y) = hash(x) xor hash(y) for the matrix family."""
        rng = random.Random(6)
        m, k = 64, 32
        trials = [(random_hash_spec(m, k, rng), random_bits(rng, m), random_bits(rng, m))
                  for _ in range(2000)]
        specs, xs, ys = zip(*trials)
        seeds, a, b = bit_rows(s.seed_bits for s in specs), bit_rows(xs), bit_rows(ys)
        ha, hb, hxor = (_toeplitz_parity(seeds, rows, m, k) for rows in (a, b, a ^ b))
        assert np.array_equal(hxor, ha ^ hb)

    def test_batch_kernel_matches_universal_hash(self):
        rng = random.Random(17)
        for m, k in ((1, 1), (5, 3), (64, 32), (100, 100), (257, 1)):
            specs = [random_hash_spec(m, k, rng) for _ in range(20)]
            xs = [random_bits(rng, m) for _ in range(20)]
            rows = _toeplitz_parity(bit_rows(s.seed_bits for s in specs), bit_rows(xs), m, k)
            assert ["".join(map(str, r)) for r in rows] == [
                universal_hash(x, s) for x, s in zip(xs, specs)]

    @pytest.mark.parametrize("m", [1000, 4097, 20013])
    def test_matches_direct_convolution(self, m):
        rng = random.Random(m)
        for k in (1, m // 2, m):
            spec = random_hash_spec(m, k, rng)
            x = random_bits(rng, m)
            assert universal_hash(x, spec) == convolve_oracle(x, spec)

    def test_all_ones_closed_form(self):
        """With every seed and input bit set, every convolution value is m,
        so the FFT must round values of size 2^22 exactly: an error of one
        would flip the output parity."""
        m = 2 ** 22
        assert universal_hash("1" * m, HashSpec(m, 1, "1" * m)) == "0"

    def test_input_above_cap_rejected(self):
        m = MAX_HASH_INPUT_BITS + 1
        with pytest.raises(ValueError, match="MAX_HASH_INPUT_BITS"):
            universal_hash("0" * m, HashSpec(m, 1, "0" * m))

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("x", ["1?1 ", "1?11", "0120", "10/1", "10é1"])
    def test_non_binary_input_rejected(self, x, k):
        spec = random_hash_spec(4, k, random.Random(18))
        with pytest.raises(ValueError):
            universal_hash(x, spec)


class TestVerify:
    def test_equal(self):
        assert verify("1010", "1010")

    def test_single_bit_difference(self):
        assert not verify("1010", "1011")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify("10", "101")

    def test_no_collisions_at_k32(self):
        """Universal family bound 2^-32: zero observed collisions over
        randomized unequal pairs."""
        rng = random.Random(7)
        m, k = 64, 32
        trials = []
        for _ in range(20000):
            spec = random_hash_spec(m, k, rng)
            a = rng.getrandbits(m)
            b = rng.getrandbits(m)
            while b == a:
                b = rng.getrandbits(m)
            trials.append((spec.seed_bits, f"{a:0{m}b}", f"{b:0{m}b}"))
        seeds, xa, xb = (bit_rows(column) for column in zip(*trials))
        for lo in range(0, len(trials), 10000):
            chunk = slice(lo, lo + 10000)
            ha = _toeplitz_parity(seeds[chunk], xa[chunk], m, k)
            hb = _toeplitz_parity(seeds[chunk], xb[chunk], m, k)
            assert not np.all(ha == hb, axis=1).any()


class TestEcVerify:
    def test_equal_keys(self):
        rng = random.Random(8)
        key = random_bits(rng, 128)
        assert ec_verify(key, key, 64, rng)

    def test_differing_keys_detected(self):
        rng = random.Random(9)
        for _ in range(500):
            key = random_bits(rng, 128)
            pos = rng.randrange(128)
            other = key[:pos] + ("1" if key[pos] == "0" else "0") + key[pos + 1:]
            assert not ec_verify(key, other, 64, rng)

    def test_empty_keys_false(self):
        assert not ec_verify("", "", 64, random.Random(10))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ec_verify("101", "10", 8, random.Random(11))

    def test_non_binary_key_rejected(self):
        with pytest.raises(ValueError):
            ec_verify("1?10", "1110", 4, random.Random(20))


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
        secret, spec = privacy_amplify("1" * 100, 1.0, 10, random.Random(12))
        assert secret == ""
        assert spec.output_len == 0

    def test_no_leakage_full_length(self):
        key = random_bits(random.Random(13), 256)
        secret, spec = privacy_amplify(key, 0.0, 0, random.Random(14))
        assert len(secret) == 256
        assert spec.output_len == 256

    def test_peers_agree_through_shared_spec(self):
        rng = random.Random(15)
        key = random_bits(rng, 200)
        secret, spec = privacy_amplify(key, 0.25, 8, rng)
        assert universal_hash(key, spec) == secret

    def test_empty_key(self):
        secret, spec = privacy_amplify("", 0.0, 0, random.Random(16))
        assert secret == "" and spec is None
