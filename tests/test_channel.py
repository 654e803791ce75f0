"""Tests for the leg-level loss/noise model and path accounting."""

import math
import random

import pytest

from qkdsim.channel import (
    ChannelSpec,
    LinkBudget,
    leg_transmittance,
    legs_for,
    path_transmittance,
    transmit,
    transmit_bell,
)
from qkdsim.kinds import ProtocolKind
from qkdsim.qstate import BellLabel, CanonState


class TestSpecs:
    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_transmittance_range(self, bad):
        with pytest.raises(ValueError):
            ChannelSpec(transmittance_per_leg=bad)

    @pytest.mark.parametrize("bad", [-0.1, 0.6])
    def test_flip_prob_range(self, bad):
        with pytest.raises(ValueError):
            ChannelSpec(flip_prob=bad)

    def test_legs_positive(self):
        with pytest.raises(ValueError):
            ChannelSpec(legs=0)

    def test_link_budget_nonnegative(self):
        with pytest.raises(ValueError):
            LinkBudget(-1.0, 10.0)
        with pytest.raises(ValueError):
            LinkBudget(0.2, -10.0)

    @pytest.mark.parametrize("alpha, distance", [(0.0, math.inf), (math.inf, 1.0),
                                                 (math.nan, 1.0), (0.2, math.nan)])
    def test_link_budget_finite(self, alpha, distance):
        """0 dB/km over an infinite distance would give a nan transmittance."""
        with pytest.raises(ValueError, match="finite"):
            LinkBudget(alpha, distance)


class TestLegTransmittance:
    def test_lossless_fiber(self):
        assert leg_transmittance(LinkBudget(0.0, 50.0)) == 1.0

    def test_zero_distance(self):
        assert leg_transmittance(LinkBudget(0.2, 0.0)) == 1.0

    def test_ten_db_loss(self):
        # 0.2 dB/km over 50 km is 10 dB, i.e. a factor 10.
        assert leg_transmittance(LinkBudget(0.2, 50.0)) == pytest.approx(0.1, abs=1e-15)


class TestPathTransmittance:
    def test_protocol_exponents(self):
        assert path_transmittance(0.9, ProtocolKind.PING_PONG) == pytest.approx(0.6561)
        assert path_transmittance(0.9, ProtocolKind.LM05) == pytest.approx(0.81)
        assert path_transmittance(0.9, ProtocolKind.BB84) == pytest.approx(0.9)
        assert path_transmittance(0.9, ProtocolKind.MCAS_BB84) == pytest.approx(0.9)

    def test_exact_powers(self):
        for protocol in ProtocolKind:
            assert path_transmittance(0.7, protocol) == 0.7 ** legs_for(protocol)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            path_transmittance(0.9, "not-a-protocol")

    def test_range_rejected(self):
        for t_leg in (-0.1, 1.1):
            with pytest.raises(ValueError):
                path_transmittance(t_leg, ProtocolKind.BB84)

    def test_opaque_leg_gives_zero(self):
        for protocol in ProtocolKind:
            assert path_transmittance(0.0, protocol) == 0.0


class TestTransmit:
    def test_identity_channel(self):
        rng = random.Random(1)
        spec = ChannelSpec(1.0, 0.0)
        for _ in range(100):
            assert transmit(CanonState.PLUS, spec, rng) is CanonState.PLUS

    def test_flip_applies_in_prep_basis(self):
        """Whenever the channel flips, the output is the orthogonal state
        of the carrier's own basis; there are only two branches."""
        rng = random.Random(2)
        spec = ChannelSpec(1.0, 0.5)
        for state in CanonState:
            outs = {transmit(state, spec, rng) for _ in range(200)}
            assert outs == {state, state.flipped}
            assert {out.basis for out in outs} == {state.basis}

    def test_half_flip_rate(self):
        rng = random.Random(3)
        spec = ChannelSpec(1.0, 0.5)
        n = 20000
        flips = sum(1 for _ in range(n)
                    if transmit(CanonState.ZERO, spec, rng) is CanonState.ONE)
        assert abs(flips - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_half_loss_rate(self):
        rng = random.Random(4)
        spec = ChannelSpec(0.5, 0.0)
        n = 20000
        lost = sum(1 for _ in range(n) if transmit(CanonState.ZERO, spec, rng) is None)
        assert abs(lost - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_loss_never_flips(self):
        """Survivors of a lossy noiseless channel are untouched."""
        rng = random.Random(5)
        spec = ChannelSpec(0.3, 0.0)
        for _ in range(500):
            out = transmit(CanonState.PLUS, spec, rng)
            assert out is None or out is CanonState.PLUS


class TestTransmitBell:
    def test_identity_channel(self):
        rng = random.Random(6)
        spec = ChannelSpec(1.0, 0.0)
        for _ in range(100):
            assert transmit_bell(BellLabel.PSI_MINUS, spec, rng) is BellLabel.PSI_MINUS

    def test_opaque_channel(self):
        rng = random.Random(7)
        spec = ChannelSpec(0.0, 0.0)
        for _ in range(100):
            assert transmit_bell(BellLabel.PSI_MINUS, spec, rng) is None

    def test_flip_toggles_label(self):
        rng = random.Random(8)
        spec = ChannelSpec(1.0, 0.5)
        outcomes = {transmit_bell(BellLabel.PSI_MINUS, spec, rng) for _ in range(200)}
        assert outcomes == {BellLabel.PSI_MINUS, BellLabel.PSI_PLUS}

    def test_toggle_frequency(self):
        """Empirical toggle rate matches flip_prob = 0.1 within 4 sigma
        over 1e5 legs."""
        rng = random.Random(9)
        spec = ChannelSpec(1.0, 0.1)
        n = 100000
        toggles = sum(1 for _ in range(n)
                      if transmit_bell(BellLabel.PSI_MINUS, spec, rng)
                      is BellLabel.PSI_PLUS)
        assert abs(toggles / n - 0.1) <= 4 * math.sqrt(0.1 * 0.9 / n)
