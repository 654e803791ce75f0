"""Tests for the canonical-state kernel."""

import math
import random

import pytest

from qkdsim.qstate import (
    Basis,
    BellLabel,
    CanonState,
    Encoding,
    apply_encoding,
    measure,
    prepare,
)


class TestPreparation:
    def test_zero(self):
        assert prepare(Basis.Z, 0) is CanonState.ZERO

    def test_plus(self):
        assert prepare(Basis.X, 0) is CanonState.PLUS

    def test_minus(self):
        assert prepare(Basis.X, 1) is CanonState.MINUS

    def test_prepare_roundtrip(self):
        for state in CanonState:
            assert prepare(state.basis, state.bit) is state

    def test_prepare_bad_bit(self):
        with pytest.raises(ValueError):
            prepare(Basis.Z, 2)


class TestMeasurement:
    def test_zero_in_z_deterministic(self):
        rng = random.Random(1)
        for _ in range(200):
            bit, post = measure(CanonState.ZERO, Basis.Z, rng)
            assert bit == 0
            assert post is CanonState.ZERO

    def test_minus_in_x_deterministic(self):
        """Minus carries bit 1 in the diagonal basis, with certainty."""
        rng = random.Random(2)
        for _ in range(200):
            bit, _ = measure(CanonState.MINUS, Basis.X, rng)
            assert bit == 1

    def test_plus_in_z_unbiased(self):
        """|+> in Z is a fair coin within 3 sigma."""
        rng = random.Random(3)
        n = 20000
        ones = sum(measure(CanonState.PLUS, Basis.Z, rng)[0] for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(ones - n / 2) <= 3 * sigma

    @pytest.mark.parametrize("state", list(CanonState))
    def test_matching_basis_recovers_bit(self, state):
        rng = random.Random(4)
        for _ in range(50):
            bit, _ = measure(state, state.basis, rng)
            assert bit == state.bit

    @pytest.mark.parametrize("state", list(CanonState))
    def test_cross_basis_outcome_is_the_coin(self, state):
        """A cross-basis measurement reads 0 exactly when random() < 1/2
        and leaves the eigenstate it found."""
        other = Basis.X if state.basis is Basis.Z else Basis.Z
        for u, want in ((0.0, 0), (0.5 - 2 ** -53, 0), (0.5, 1), (1 - 2 ** -53, 1)):
            rng = random.Random()
            rng.random = lambda u=u: u
            assert measure(state, other, rng) == (want, prepare(other, want))

    def test_post_state_is_eigenstate(self):
        rng = random.Random(6)
        bit, post = measure(CanonState.ZERO, Basis.X, rng)
        assert post in (CanonState.PLUS, CanonState.MINUS)
        assert post.bit == bit


class TestEncoding:
    def test_iy_on_zero(self):
        assert apply_encoding(CanonState.ZERO, Encoding.IY) is CanonState.ONE

    def test_iy_on_one(self):
        assert apply_encoding(CanonState.ONE, Encoding.IY) is CanonState.ZERO

    def test_iy_on_plus_gives_minus(self):
        assert apply_encoding(CanonState.PLUS, Encoding.IY) is CanonState.MINUS

    def test_iy_on_minus_gives_plus(self):
        assert apply_encoding(CanonState.MINUS, Encoding.IY) is CanonState.PLUS

    def test_identity(self):
        for state in CanonState:
            assert apply_encoding(state, Encoding.IDENTITY) is state

    def test_double_iy_is_identity(self):
        """iY twice is -I: every state comes back as itself."""
        for state in CanonState:
            assert apply_encoding(apply_encoding(state, Encoding.IY), Encoding.IY) is state

    def test_bit_mapping(self):
        assert Encoding.IDENTITY.bit == 0 and Encoding.IY.bit == 1


class TestBasisFlip:
    def test_z_flip_swaps_computational(self):
        assert CanonState.ZERO.flipped is CanonState.ONE
        assert CanonState.ONE.flipped is CanonState.ZERO

    def test_x_flip_swaps_diagonal(self):
        assert CanonState.PLUS.flipped is CanonState.MINUS
        assert CanonState.MINUS.flipped is CanonState.PLUS


class TestBellOperations:
    def test_pp_encode_identity(self):
        assert apply_encoding(BellLabel.PSI_MINUS, Encoding.IDENTITY) is BellLabel.PSI_MINUS

    def test_pp_encode_flip(self):
        assert apply_encoding(BellLabel.PSI_MINUS, Encoding.IY) is BellLabel.PSI_PLUS
        assert apply_encoding(BellLabel.PSI_PLUS, Encoding.IY) is BellLabel.PSI_MINUS

    def test_pp_encode_involution(self):
        for label in BellLabel:
            twice = apply_encoding(apply_encoding(label, Encoding.IY), Encoding.IY)
            assert twice is label
