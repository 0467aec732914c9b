"""Uniform 1D grids, sampled fields, and the discrete calculus on them.

Two grid flavors share one representation:

* half-line grid on (0, L): interior nodes x_j = j*dx, j = 1..N, with
  dx = L/(N+1).  The boundary nodes x=0 and x=L are Dirichlet nodes and
  are not stored.  A field on this grid represents the restriction of an
  odd function on the real line; the value at -x_j is -values[j] and the
  value at 0 is exactly 0.
* full line grid on (-L, L): interior nodes -L + j*dx, dx = 2L/(N+1),
  Dirichlet at both ends.  Used only for even data (breather runs) that
  the odd half-line representation cannot hold.

`State` holds a state: its grid and the two sample arrays u1, u2.
Everything else, the calculus included, takes a bare sample array together
with its grid, and `check_samples` is the one check of its length.  All
line integrals of even integrands reduce to the half-line: 2 * trapezoid
on [0, L].  Derivatives are plain central differences with zero ghost
values at the Dirichlet nodes; for odd fields the x=0 ghost is exact, so
the stencil is second order up to the boundary.  `support` is the one rule
for the spans of nodes that the step, the records and `integrator.run` work on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MIN_INTERIOR_POINTS = 16


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform mesh; use make_grid / make_fullline_grid to construct.

    `tables` keeps what is derived from the grid alone, by key (see `table`).
    Nothing in it refers back to the grid, so refcount frees both together.
    """

    L: float
    N: int
    dx: float
    x: np.ndarray
    fullline: bool = False
    tables: dict = field(default_factory=dict, init=False, repr=False)

    def table(self, key, make):
        """The table under `key`, made by `make()` on first request."""
        if key not in self.tables:
            self.tables[key] = make()
        return self.tables[key]


def check_spacing(dx: float) -> float:
    """`dx` if dx > 0 with dx^2 and 4/dx^2 finite (about 1e-154 < dx < 1e154), else ValueError.

    The one rule on a spacing: the stencil, `cfl_dt` and the spectral sectors take 1/dx^2.
    """
    if not (dx > 0.0 and dx * dx < math.inf and 4.0 / dx / dx < math.inf):
        raise ValueError(f"dx = {dx:g} is out of range: dx^2 and 4/dx^2 must be finite")
    return dx


def spacing(L: float, N: int, fullline: bool) -> float:
    """dx of N interior nodes: L/(N+1) on the half-line, 2L/(N+1) on the full line.

    The one check of a grid's size, which allocates nothing: L > 0, N >= 16
    (MIN_INTERIOR_POINTS) and `check_spacing`'s rule on dx, else ValueError.
    """
    if not L > 0:
        raise ValueError(f"domain half-width must be positive, got L={L}")
    if not N >= MIN_INTERIOR_POINTS:
        raise ValueError(f"need at least {MIN_INTERIOR_POINTS} interior points, got N={N}")
    return check_spacing((2.0 if fullline else 1.0) * L / (N + 1))


def _make(L: float, N: int, fullline: bool) -> Grid:
    dx = spacing(L, N, fullline)
    x = dx * np.arange(1, N + 1, dtype=float)
    if x.size != N:  # np.arange gives no nodes for a count past numpy's index range
        raise ValueError(f"numpy cannot index a grid of N={N} nodes")
    return Grid(L=float(L), N=int(N), dx=dx, x=-L + x if fullline else x, fullline=fullline)


def make_grid(L: float, N: int) -> Grid:
    """Half-line grid on (0, L) with N interior nodes, dx = L/(N+1)."""
    return _make(L, N, False)


def make_fullline_grid(L: float, N: int) -> Grid:
    """Full-line grid on (-L, L) with N interior nodes, dx = 2L/(N+1)."""
    return _make(L, N, True)


def check_samples(v, grid: Grid) -> np.ndarray:
    """`v` as a float array, which must hold one value per interior node of `grid`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.N,):
        raise ValueError(f"field has {v.shape} values for a grid with N={grid.N}")
    return v


def support(skip: np.ndarray) -> tuple[int, int]:
    """The smallest [lo, hi) outside which the bool array `skip` is true everywhere,
    or (0, 0) if it is true everywhere: one argmin from the front, one from the back.
    A nan compares False under np.less, so a mask np.less(np.abs(u), t) puts it inside."""
    lo = int(skip.argmin())
    if skip[lo]:
        return 0, 0
    return lo, skip.size - int(skip[::-1].argmin())


@dataclass(eq=False)
class State:
    """(u1, u2) = (u, du/dt) at one instant, sampled on `grid`."""

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u1 = check_samples(self.u1, self.grid)
        self.u2 = check_samples(self.u2, self.grid)

    def copy(self) -> "State":
        return State(self.grid, self.u1.copy(), self.u2.copy(), self.t)


def integrate_fullline(v: np.ndarray, grid: Grid) -> float:
    """Integral over the whole real line of an even integrand sampled as `v` on `grid`.

    On a full-line grid this is the trapezoid rule with zero Dirichlet end
    values (x=0 is an ordinary interior node there).  On a half-line grid
    it is 2 x trapezoid on [0, L] with 0 at the unstored x=0 node: right for
    an integrand with an odd factor (u1^2, u1*u2, ...), not for (du1/dx)^2,
    which the diagnostics kernel integrates with its `UnitWeights.even` row.
    """
    v = check_samples(v, grid)
    if grid.fullline:
        return float(grid.dx * v.sum())
    # 0.0 is the origin value; adding it also turns a -0 sum into +0
    return float(grid.dx * (0.0 + 2.0 * v.sum()))


def derivative(v: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Central-difference derivative of `v` on `grid`, zero ghost values at both ends.

    Writes into `out` (N values) when given, else into a fresh array.
    """
    h = 2.0 * grid.dx
    if out is None:
        out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] /= h
    out[0] = v[1] / h
    out[-1] = -v[-2] / h
    return out


def gradient_sq_integral(v: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> float:
    """Full-line integral of (dv/dx)^2 in the staggered (forward-difference) form.

    This is the stiffness term of the Hamiltonian that the semidiscrete
    flow conserves exactly: sum over cell midpoints of ((v_{j+1}-v_j)/dx)^2
    with zero ghosts.  It is second order for the continuum value and, in
    particular, integrates the origin cell correctly for odd fields whose
    derivative does not vanish at x = 0.  The N+1 differences go into
    `out` when given, else into a fresh array.
    """
    dx = grid.dx
    d = np.empty(v.size + 1) if out is None else out
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:-1])
    d[-1] = -v[-1]
    d /= dx
    s = dx * float(np.dot(d, d))
    return s if grid.fullline else 2.0 * s
