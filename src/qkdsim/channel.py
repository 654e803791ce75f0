"""Loss and noise parameters for one photon leg, plus fiber link budgets.

A round crosses its protocol's leg count (``PROTOCOLS`` in the protocol
module) and pays the fiber attenuation on each leg; ``protocol._session_coins``
draws a session's survival and net flip from a :class:`ChannelSpec`.
Noise is a basis-relative bit flip per leg, which reproduces the
polarization-flip disturbance observable directly.  Lost photons only
reduce yield; they never flip bits.
"""

import math
from dataclasses import dataclass

from .checks import check_range


@dataclass(frozen=True)
class ChannelSpec:
    """Per-leg survival probability and flip probability.

    Transmittance 0 is allowed as a degenerate opaque channel.
    """

    transmittance_per_leg: float = 1.0
    flip_prob: float = 0.0

    def __post_init__(self):
        check_range("transmittance_per_leg", self.transmittance_per_leg, 0, 1)
        check_range("flip_prob", self.flip_prob, 0, 0.5)


@dataclass(frozen=True)
class LinkBudget:
    """Fiber attenuation coefficient and one-leg distance, both finite."""

    alpha_db_per_km: float = 0.2
    distance_km: float = 50.0

    def __post_init__(self):
        check_range("alpha_db_per_km", self.alpha_db_per_km, 0, math.inf, "[)")
        check_range("distance_km", self.distance_km, 0, math.inf, "[)")


def leg_transmittance(budget: LinkBudget) -> float:
    """Survival probability of one leg: 10^(-alpha * L / 10)."""
    return 10.0 ** (-budget.alpha_db_per_km * budget.distance_km / 10.0)
