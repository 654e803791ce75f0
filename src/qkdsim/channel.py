"""Loss and noise model for each photon leg, plus path accounting.

One-way protocols pay the fiber attenuation once per round, LM05 twice
(out and back) and ping-pong four times (the travel photon's round trip
plus the matched storage path of the retained photon).  Noise is a
basis-relative bit flip per leg, which reproduces the polarization-flip
disturbance observable directly.  Lost photons only reduce yield; they
never flip bits.
"""

import math
import random
from dataclasses import dataclass

from .kinds import ProtocolKind
from .qstate import BellLabel, CanonState

_LEGS = {
    ProtocolKind.BB84: 1,
    ProtocolKind.MCAS_BB84: 1,
    ProtocolKind.LM05: 2,
    ProtocolKind.PING_PONG: 4,
}


@dataclass(frozen=True)
class ChannelSpec:
    """Per-leg survival probability and flip probability.

    ``legs`` is the number of leg traversals one protocol round pays;
    leave it None to derive the conventional count from the protocol.
    Transmittance 0 is allowed as a degenerate opaque channel.
    """

    transmittance_per_leg: float = 1.0
    flip_prob: float = 0.0
    legs: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.transmittance_per_leg <= 1.0:
            raise ValueError(f"transmittance_per_leg out of [0, 1]: {self.transmittance_per_leg!r}")
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError(f"flip_prob out of [0, 0.5]: {self.flip_prob!r}")
        if self.legs is not None and self.legs < 1:
            raise ValueError(f"legs must be positive, got {self.legs!r}")


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


def legs_for(protocol: ProtocolKind) -> int:
    """Leg traversals per round: 1 for one-way, 2 for LM05, 4 for ping-pong."""
    try:
        return _LEGS[protocol]
    except (KeyError, TypeError):
        raise ValueError(f"unknown protocol kind: {protocol!r}") from None


def path_transmittance(t_leg: float, protocol: ProtocolKind) -> float:
    """End-to-end transmittance for one round of the given protocol.

    A leg transmittance of 0 (an opaque link, or a long one whose
    attenuation underflows) gives 0.
    """
    if not 0.0 <= t_leg <= 1.0:
        raise ValueError(f"t_leg out of [0, 1]: {t_leg!r}")
    return t_leg ** legs_for(protocol)


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
