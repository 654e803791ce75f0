"""Closed-form information quantities and the curve builders.

All entropies are base 2, with the endpoint values defined by continuity.
The bundled curve presets are:

* ``fig2a``  - one-way BB84: I_AB(D) = 1 - h(D) against I_AE(D) = h(D)
               over the message-mode disturbance D.
* ``fig2b``  - two-way protocols under a copy-in-the-middle attack:
               I_AB is constant 1 and Eve's copied-key fraction grows
               linearly with the control-mode disturbance, I_AE = 2 D_CM.
* ``fig2c``  - the one-way message/control asymmetric variant: same
               linear model, truncated at the predetermined control-mode
               threshold.

The linear ``fig2b`` shape is the copy attack's leak (presence p yields
D_CM = p/2 and coverage p), cross-checked against Monte-Carlo coverage.
It is not a bound over attacks: a double-CNOT Eve copies every LM05
message bit at D_CM = p/4.  The related six-state threshold (about 0.126)
is noted here for reference only and is not computed.
"""

import math
from dataclasses import dataclass

from .checks import check_range

CURVE_LABELS = ("fig2a", "fig2b", "fig2c")

DEFAULT_GRID_POINTS = 201
DEFAULT_D_PD_CM = 0.05


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    check_range("argument", x, 0, 1)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def mutual_info_ab(d: float) -> float:
    """Sender-receiver mutual information 1 - h(d)."""
    check_range("disturbance", d, 0, 0.5)
    return 1.0 - binary_entropy(d)


def mutual_info_ae(d: float) -> float:
    """Sender-eavesdropper mutual information h(d)."""
    check_range("disturbance", d, 0, 0.5)
    return binary_entropy(d)


def critical_disturbance(tol: float = 1e-6) -> float:
    """Bisection root of I_AB(d) - I_AE(d) on [0.05, 0.2].

    Equivalently the d with h(d) = 1/2, about 0.11.  The returned value
    satisfies |h(d) - 1/2| < tol.
    """
    check_range("tol", tol, 0, math.inf, "(]")
    lo, hi = 0.05, 0.2
    # |d/dd (1 - 2 h)| < 9 on the bracket, so an interval below tol/16
    # pins the function value well inside tol.
    target = tol / 16.0
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if 1.0 - 2.0 * binary_entropy(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def key_rate_rpa(xi: float) -> float:
    """Asymptotic secure key rate 1 - h(xi) of the ancilla-attack bound."""
    check_range("xi", xi, 0, 1)
    return 1.0 - binary_entropy(xi)


def eve_info_mitm(d_cm: float) -> float:
    """Eve's copied-key fraction under the copy attack, 2 * D_CM capped at 1.

    Control-mode disturbance D_CM = p/2 at presence p, and Eve holds
    exactly the engaged fraction p of the key.  This is the copy attack's
    leak, not a bound over attacks: a double-CNOT Eve copies every LM05
    message bit at D_CM = p/4.
    """
    check_range("disturbance", d_cm, 0, 0.5)
    return min(1.0, 2.0 * d_cm)


@dataclass(frozen=True)
class MutualInfoCurve:
    """Sampled I_AB / I_AE curves over a disturbance grid."""

    d_grid: tuple[float, ...]
    i_ab: tuple[float, ...]
    i_ae: tuple[float, ...]
    label: str

    def __post_init__(self):
        if not (len(self.d_grid) == len(self.i_ab) == len(self.i_ae)):
            raise ValueError("grid and value lists must have equal length")
        for values in (self.i_ab, self.i_ae):
            for v in values:
                if not -1e-12 <= v <= 1.0 + 1e-12:
                    raise ValueError(f"mutual information out of [0, 1]: {v!r}")


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n - 1)) + (hi,)


def build_curve(label: str, n_points: int = DEFAULT_GRID_POINTS,
                d_pd_cm: float = DEFAULT_D_PD_CM) -> MutualInfoCurve:
    """Sample one of the bundled curve presets (see module docstring)."""
    check_range("n_points", n_points, 2, math.inf, "[)", integer=True)
    if label not in CURVE_LABELS:
        raise ValueError(f"unknown curve label: {label!r}")
    if label == "fig2c":  # fig2b's copy model, up to the control threshold
        check_range("d_pd_cm", d_pd_cm, 0, 0.5, "()")
    grid = _linspace(0.0, d_pd_cm if label == "fig2c" else 0.5, n_points)
    if label == "fig2a":
        return MutualInfoCurve(grid, tuple(map(mutual_info_ab, grid)),
                               tuple(map(mutual_info_ae, grid)), label)
    return MutualInfoCurve(grid, (1.0,) * n_points, tuple(map(eve_info_mitm, grid)), label)
