"""qkdsim: a desk-scale simulator for two-way QKD protocols (ping-pong,
LM05) and one-way references (BB84 and a message/control asymmetric
variant) under man-in-the-middle and ancilla attacks, with the matching
information-theoretic curves and privacy-amplification toolkit."""

__version__ = "0.1.0"
