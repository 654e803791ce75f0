"""Loss and noise model for one photon leg, plus fiber link budgets.

A round crosses its protocol's leg count (``PROTOCOLS`` in the protocol
module) and pays the fiber attenuation on each leg.  Noise is a
basis-relative bit flip per leg, which reproduces the polarization-flip
disturbance observable directly.  Lost photons only reduce yield; they
never flip bits.
"""

import math
import random
from dataclasses import dataclass

from .qstate import BellLabel, CanonState


@dataclass(frozen=True)
class ChannelSpec:
    """Per-leg survival probability and flip probability.

    Transmittance 0 is allowed as a degenerate opaque channel.
    """

    transmittance_per_leg: float = 1.0
    flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.transmittance_per_leg <= 1.0:
            raise ValueError(f"transmittance_per_leg out of [0, 1]: {self.transmittance_per_leg!r}")
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError(f"flip_prob out of [0, 0.5]: {self.flip_prob!r}")


@dataclass(frozen=True)
class LinkBudget:
    """Fiber attenuation coefficient and one-leg distance, both finite."""

    alpha_db_per_km: float = 0.2
    distance_km: float = 50.0

    def __post_init__(self):
        for name in ("alpha_db_per_km", "distance_km"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def leg_transmittance(budget: LinkBudget) -> float:
    """Survival probability of one leg: 10^(-alpha * L / 10)."""
    return 10.0 ** (-budget.alpha_db_per_km * budget.distance_km / 10.0)


def transmit(carrier: CanonState | BellLabel, spec: ChannelSpec,
             rng: random.Random) -> CanonState | BellLabel | None:
    """Send a photon, or a ping-pong pair's travel photon, through one leg.

    Returns None when the photon is lost; otherwise the carrier, flipped
    with probability ``flip_prob``: the other state of its basis, or the
    other pair label.
    """
    if rng.random() >= spec.transmittance_per_leg:
        return None
    if spec.flip_prob > 0.0 and rng.random() < spec.flip_prob:
        return carrier.flipped
    return carrier


# A pair crosses a leg the same way; ``transmit_bell`` names the pair form.
transmit_bell = transmit
