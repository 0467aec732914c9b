"""The sine-Gordon breather family, a closed-form solution used as initial
data and as an independent oracle:

    B_beta(t, x) = 4 arctan( (beta/alpha) cos(alpha t) / cosh(beta x) ),
    alpha = sqrt(1 - beta^2),

an even, time-periodic (period 2 pi / alpha) solution of
phi_tt - phi_xx = -sin(phi) with energy 16 beta: localized energy that
never decays.  Being even, it cannot be represented on the odd half-line
grid; breather runs use the full-line grid.

The time derivative of the breather is implemented in closed form, not
by differencing B, so the oracle stays independent of the code paths it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, State


@dataclass(frozen=True)
class BreatherParams:
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"breather parameter must lie in (0, 1), got beta={self.beta}")

    @property
    def alpha(self) -> float:
        return math.sqrt(1.0 - self.beta * self.beta)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.alpha


def breather_exact(p: BreatherParams, t: float, x):
    """B_beta(t, x); broadcasts over x."""
    with np.errstate(over="ignore"):  # cosh overflows past 710: g = 0, its value there
        g = (p.beta / p.alpha) * math.cos(p.alpha * t) / np.cosh(p.beta * np.asarray(x))
    return 4.0 * np.arctan(g)


def breather_dt_exact(p: BreatherParams, t: float, x):
    """Exact time derivative of B_beta at (t, x)."""
    with np.errstate(over="ignore"):  # cosh overflows past 710: sech = 0, its value there
        sech = 1.0 / np.cosh(p.beta * np.asarray(x))
    g = (p.beta / p.alpha) * math.cos(p.alpha * t) * sech
    return -4.0 * p.beta * math.sin(p.alpha * t) * sech / (1.0 + g * g)


def breather_state(p: BreatherParams, t: float, grid: Grid) -> State:
    """Sample (B_beta, dB_beta/dt) on a full-line grid.

    The breather is even, so the half-line odd representation cannot hold
    it; requesting it there is an error by construction.
    """
    if not grid.fullline:
        raise ValueError("breather data is even; it requires a full-line grid")
    u1 = breather_exact(p, t, grid.x)
    u2 = breather_dt_exact(p, t, grid.x)
    return State(grid, u1, u2, t)
