"""Protocol identifiers shared across the channel and protocol modules."""

from enum import Enum


class ProtocolKind(Enum):
    """The four simulated protocols."""

    BB84 = "bb84"
    PING_PONG = "pp"
    LM05 = "lm05"
    MCAS_BB84 = "mcasbb84"

    @classmethod
    def from_string(cls, text: str) -> "ProtocolKind":
        key = text.strip().lower()
        aliases = {"pingpong": cls.PING_PONG, "ping_pong": cls.PING_PONG,
                   "mcas_bb84": cls.MCAS_BB84}
        try:
            return aliases.get(key) or cls(key)
        except ValueError:
            raise ValueError(f"unknown protocol kind: {text!r}") from None
