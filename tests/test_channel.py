"""Tests for the channel parameters and link budgets."""

import math

import pytest

from qkdsim.channel import ChannelSpec, LinkBudget, leg_transmittance


class TestSpecs:
    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_transmittance_range(self, bad):
        with pytest.raises(ValueError):
            ChannelSpec(transmittance_per_leg=bad)

    @pytest.mark.parametrize("bad", [-0.1, 0.6])
    def test_flip_prob_range(self, bad):
        with pytest.raises(ValueError):
            ChannelSpec(flip_prob=bad)

    def test_link_budget_nonnegative(self):
        with pytest.raises(ValueError):
            LinkBudget(-1.0, 10.0)
        with pytest.raises(ValueError):
            LinkBudget(0.2, -10.0)

    @pytest.mark.parametrize("alpha, distance", [(0.0, math.inf), (math.inf, 1.0),
                                                 (math.nan, 1.0), (0.2, math.nan)])
    def test_link_budget_finite(self, alpha, distance):
        """0 dB/km over an infinite distance would give a nan transmittance."""
        with pytest.raises(ValueError, match=r"_km out of \[0, inf\): (inf|nan)$"):
            LinkBudget(alpha, distance)


class TestLegTransmittance:
    def test_lossless_fiber(self):
        assert leg_transmittance(LinkBudget(0.0, 50.0)) == 1.0

    def test_zero_distance(self):
        assert leg_transmittance(LinkBudget(0.2, 0.0)) == 1.0

    def test_ten_db_loss(self):
        # 0.2 dB/km over 50 km is 10 dB, i.e. a factor 10.
        assert leg_transmittance(LinkBudget(0.2, 50.0)) == pytest.approx(0.1, abs=1e-15)
