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

All line integrals of even integrands reduce to the half-line:
2 * trapezoid on [0, L].  Derivatives are plain central differences with
zero ghost values at the Dirichlet nodes; for odd fields the x=0 ghost is
exact, so the stencil is second order up to the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_INTERIOR_POINTS = 16


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform mesh; use make_grid / make_fullline_grid to construct."""

    L: float
    N: int
    dx: float
    x: np.ndarray
    fullline: bool = False


def make_grid(L: float, N: int) -> Grid:
    """Half-line grid on (0, L) with N interior nodes, dx = L/(N+1)."""
    if not L > 0:
        raise ValueError(f"domain half-width must be positive, got L={L}")
    if N < MIN_INTERIOR_POINTS:
        raise ValueError(f"need at least {MIN_INTERIOR_POINTS} interior points, got N={N}")
    dx = L / (N + 1)
    x = dx * np.arange(1, N + 1, dtype=float)
    return Grid(L=float(L), N=int(N), dx=dx, x=x, fullline=False)


def make_fullline_grid(L: float, N: int) -> Grid:
    """Full-line grid on (-L, L) with N interior nodes, dx = 2L/(N+1)."""
    if not L > 0:
        raise ValueError(f"domain half-width must be positive, got L={L}")
    if N < MIN_INTERIOR_POINTS:
        raise ValueError(f"need at least {MIN_INTERIOR_POINTS} interior points, got N={N}")
    dx = 2.0 * L / (N + 1)
    x = -L + dx * np.arange(1, N + 1, dtype=float)
    return Grid(L=float(L), N=int(N), dx=dx, x=x, fullline=True)


@dataclass(eq=False)
class Field:
    """Samples of a function at the interior nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.N,):
            raise ValueError(
                f"field has {self.values.shape} values for a grid with N={self.grid.N}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass(eq=False)
class State:
    """(u1, u2) = (u, du/dt) at one instant; both fields share one grid."""

    u1: Field
    u2: Field
    t: float = 0.0

    def __post_init__(self):
        if self.u1.grid is not self.u2.grid:
            raise ValueError("u1 and u2 must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    def copy(self) -> "State":
        return State(self.u1.copy(), self.u2.copy(), self.t)


def zero_state(grid: Grid, t: float = 0.0) -> State:
    return State(Field(grid, np.zeros(grid.N)), Field(grid, np.zeros(grid.N)), t)


def integrate_fullline(integrand, grid: Grid | None = None, origin: str = "zero") -> float:
    """Integral over the whole real line of an even integrand.

    `integrand` is a Field, or an ndarray of samples paired with `grid`.
    On a full-line grid this is the trapezoid rule with zero Dirichlet end
    values (x=0 is an ordinary interior node there).  On a half-line grid
    it is 2 x trapezoid on [0, L]; the value at the unstored x=0 node is
    controlled by `origin`:

    * "zero": take 0.  Correct whenever the integrand carries an odd
      factor (u1^2, u1*u2, ...), which covers the raw field products.
    * "even": estimate g(0) ~= (4 g(x_1) - g(x_2))/3, the parabola through
      the first two nodes of an even function.  Needed for integrands
      built from x-derivatives of odd fields, e.g. (du1/dx)^2, whose
      origin value does not vanish; leaving it out costs an O(dx) error.
    """
    if isinstance(integrand, Field):
        grid = integrand.grid
        v = integrand.values
    else:
        if grid is None:
            raise ValueError("grid is required when integrand is a bare array")
        v = np.asarray(integrand, dtype=float)
        if v.shape != (grid.N,):
            raise ValueError(f"integrand has {v.shape} values for a grid with N={grid.N}")
    if grid.fullline:
        return float(grid.dx * v.sum())
    if origin == "zero":
        g0 = 0.0
    elif origin == "even":
        g0 = (4.0 * v[0] - v[1]) / 3.0
    else:
        raise ValueError(f"unknown origin mode {origin!r}")
    return float(grid.dx * (g0 + 2.0 * v.sum()))


def derivative(f: Field, out: np.ndarray | None = None) -> Field:
    """Central-difference derivative with zero ghost values at both ends.

    Writes into `out` (N values) when given, else into a fresh array.
    """
    v = f.values
    h = 2.0 * f.grid.dx
    if out is None:
        out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] /= h
    out[0] = v[1] / h
    out[-1] = -v[-2] / h
    return Field(f.grid, out)


def gradient_sq_integral(f: Field, out: np.ndarray | None = None) -> float:
    """Full-line integral of (df/dx)^2 in the staggered (forward-difference) form.

    This is the stiffness term of the Hamiltonian that the semidiscrete
    flow conserves exactly: sum over cell midpoints of ((f_{j+1}-f_j)/dx)^2
    with zero ghosts.  It is second order for the continuum value and, in
    particular, integrates the origin cell correctly for odd fields whose
    derivative does not vanish at x = 0.  The N+1 differences go into
    `out` when given, else into a fresh array.
    """
    v = f.values
    dx = f.grid.dx
    d = np.empty(v.size + 1) if out is None else out
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:-1])
    d[-1] = -v[-1]
    d /= dx
    s = dx * float(np.dot(d, d))
    return s if f.grid.fullline else 2.0 * s


def h1_l2_norm_sq(u1: Field, u2: Field) -> float:
    """Full-line H1 x L2 norm squared of a state.

    The gradient term uses the staggered form (see gradient_sq_integral),
    making this the norm whose quadratic part the integrator conserves.
    """
    a = gradient_sq_integral(u1)
    b = integrate_fullline(u1.values * u1.values, u1.grid)
    c = integrate_fullline(u2.values * u2.values, u2.grid)
    return a + b + c
