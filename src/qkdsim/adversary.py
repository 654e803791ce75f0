"""Attack specs, probe fidelities and Eve's scoring.

The attacks themselves run in the session engine:
``protocol._forward_attack`` acts on a lone photon on the outgoing leg
(intercept-resend, its computational-basis variant ``MITM_MCAS_X`` and
the ``ANCILLA_UBE`` probe), and the LM05 and ping-pong kernels run the
copy attacks (``MITM_LM05``, ``MITM_PING_PONG``), which park the genuine
carrier, send a decoy and replay the encoding read off it.

Eve's presence is drawn per round (Bernoulli p), so a control round
fails at p times the rate of what replaces the photon: p/2 for the copy
attacks' maximally mixed decoy, p/4 for intercept-resend on LM05.
"""

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import Transcript

MIN_FIDELITY = 0.5


class AttackKind(Enum):
    NO_ATTACK = "none"
    INTERCEPT_RESEND = "intercept_resend"
    MITM_PING_PONG = "mitm_pp"
    MITM_LM05 = "mitm_lm05"
    MITM_MCAS_X = "mitm_mcas_x"
    ANCILLA_UBE = "ancilla_ube"


class BasisPolicy(Enum):
    FIXED_Z = "fixed_z"
    FIXED_X = "fixed_x"
    RANDOM = "random"


@dataclass(frozen=True)
class AttackSpec:
    """Which adversary runs, with presence fraction and parameters.

    The ancilla fidelities follow the symmetric convention: f0 covers
    both computational states, f_plus both diagonal ones; their range is
    checked for every kind.
    """

    kind: AttackKind = AttackKind.NO_ATTACK
    presence: float = 0.0
    basis_policy: BasisPolicy = BasisPolicy.RANDOM
    f0: float = 1.0
    f_plus: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.presence <= 1.0:
            raise ValueError(f"presence out of [0, 1]: {self.presence!r}")
        _check_fidelities(self.f0, self.f_plus)


def _check_fidelities(f0: float, f_plus: float) -> None:
    for name, value in (("f0", f0), ("f_plus", f_plus)):
        if not MIN_FIDELITY <= value <= 1.0:
            raise ValueError(f"{name} out of [{MIN_FIDELITY}, 1]: {value!r}")


def xi_from_fidelities(f0: float, f_plus: float) -> float:
    """The key-rate argument xi = f_plus - (1 - f0).

    Uses the identification c1^2 = 1 - f0 and c++^2 = f_plus.
    """
    _check_fidelities(f0, f_plus)
    return f_plus - (1.0 - f0)


class EveAccuracy(NamedTuple):
    """Coverage of the key and correctness on the covered bits."""

    coverage: float | None
    accuracy: float | None


# Placeholders: perfbench/tracing.py wraps these names, nothing calls them,
# and ROADMAP item 2, step A, removes them.
measure = prepare = None


class AncillaInteraction:
    apply = None


def eve_accuracy(transcript: "Transcript") -> EveAccuracy:
    """Coverage and correctness of Eve's raw key against the sifted key.

    Key bits Eve never engaged on (-1 in ``eve_key``) are excluded rather
    than scored as guesses; coverage is the fraction she holds.  Accuracy
    is None when nothing is covered, and both are None for an empty key.
    """
    alice, eve = transcript.alice_key, transcript.eve_key
    if not len(alice):
        return EveAccuracy(None, None)
    covered = eve >= 0
    n_covered = int(np.count_nonzero(covered))
    coverage = n_covered / len(alice)
    if not n_covered:
        return EveAccuracy(coverage, None)
    hits = int(np.count_nonzero(covered & (alice == eve)))
    return EveAccuracy(coverage, hits / n_covered)
