"""Canonical carrier states and the per-round operations on them.

Polarization identification |H> = |0> and |V> = |1>.  The Z basis is
the computational one {|0>, |1>}, X is the diagonal one {|+>, |->}.  Bit
convention: Zero and Plus carry bit 0, One and Minus carry bit 1.

Every carrier the protocols build is one of these four states, so a
carrier is its :class:`CanonState` and every Born probability is 0, 1/2
or 1: a measurement in the carrier's own basis returns its bit, one in
the other basis a fair coin.  The flip iY toggles the bit within the
basis; the global phase it leaves on |0> and |-> is invisible to any
measurement and is not kept.

Entangled carrier pairs for the ping-pong protocol are kept symbolic: the
protocol only ever toggles between the two anticorrelated Bell states and
discriminates them at a beam splitter, so a label plus toggle operations
is an exact model.
"""

import random
from enum import Enum


class Basis(Enum):
    """Measurement/preparation basis: Z (computational) or X (diagonal)."""

    Z = "Z"
    X = "X"


class CanonState(Enum):
    """The four single-photon protocol states."""

    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"
    MINUS = "minus"

    @property
    def basis(self) -> Basis:
        if self in (CanonState.ZERO, CanonState.ONE):
            return Basis.Z
        return Basis.X

    @property
    def bit(self) -> int:
        return 0 if self in (CanonState.ZERO, CanonState.PLUS) else 1

    @property
    def flipped(self) -> "CanonState":
        """The other state of the same basis."""
        return prepare(self.basis, 1 - self.bit)


class Encoding(Enum):
    """Alice's message operation: identity encodes 0, the flip iY encodes 1."""

    IDENTITY = "I"
    IY = "iY"

    @property
    def bit(self) -> int:
        return 0 if self is Encoding.IDENTITY else 1


class BellLabel(Enum):
    """Symbolic label for the two anticorrelated Bell states.

    PSI_MINUS is the state emitted by the pair source; the photons split
    at the receiving beam splitter.  PSI_PLUS photons bunch.
    """

    PSI_MINUS = "psi_minus"
    PSI_PLUS = "psi_plus"

    @property
    def flipped(self) -> "BellLabel":
        """The other label: the half-wave-plate flip toggles the two."""
        return BellLabel.PSI_PLUS if self is BellLabel.PSI_MINUS else BellLabel.PSI_MINUS


_CANON_FOR = {(s.basis, s.bit): s for s in CanonState}


def prepare(basis: Basis, bit: int) -> CanonState:
    """The canonical state carrying `bit` in `basis`."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return _CANON_FOR[(basis, bit)]


def measure(state: CanonState, basis: Basis, rng: random.Random) -> tuple[int, CanonState]:
    """Projective measurement of a canonical state.

    Returns the outcome bit and the post-measurement eigenstate: the
    state's own bit in its basis, a fair coin from ``rng.random()`` in
    the other.
    """
    if basis is state.basis:
        return state.bit, state
    bit = 0 if rng.random() < 0.5 else 1
    return bit, prepare(basis, bit)


def apply_encoding(carrier: CanonState | BellLabel,
                   encoding: Encoding) -> CanonState | BellLabel:
    """Apply I or the flip iY = ZX to a photon or a stored pair.

    iY sends |0> to |1>, |1> to |0>, |+> to |-> and |-> to |+> (up to
    global phase); on a pair it toggles the two labels.
    """
    return carrier if encoding is Encoding.IDENTITY else carrier.flipped
