"""Independent references that the tests compare the package against.

Not a test module: pytest collects only test_*.py, and the tests import it
as `oracles`, as they import `test_fence`.

* `even_origin_integral`: the full-line quadrature of an even integrand
  whose value at x = 0 need not vanish, written out on its own.  It is the
  reference for the diagnostics kernel's `UnitWeights.even` row.
* Linear Klein-Gordon standing waves sin(kx) cos(wt), w^2 = k^2 + 1,
  k = n pi / L: odd, exactly representable on the half-line grid, used
  for integrator order and energy checks.
* `exact_count_below`: the LDL^T inertia count of a symmetric tridiagonal
  matrix in rational arithmetic.  Every float is a rational number, so by
  Sylvester's law of inertia the count is exact for the assembled matrix,
  with no rounding in the loop.  It is the reference for `count_below`.
* `exact_slope`: the slope of log|det(A - s)| of the same matrix, from its
  continuant in rational arithmetic.  It is the reference for the Newton
  pass's slope.
"""

import math
from fractions import Fraction

import numpy as np

from oddkg.grid import Grid, State, check_samples


def even_origin_integral(v: np.ndarray, grid: Grid) -> float:
    """Integral over the whole real line of an even integrand sampled as `v` on `grid`.

    On a full-line grid this is the trapezoid rule with zero Dirichlet end
    values.  On a half-line grid it is 2 x trapezoid on [0, L], with the
    value at the unstored x=0 node estimated as g(0) ~= (4 g(x_1) - g(x_2))/3,
    the parabola through the first two nodes of an even function.  That
    estimate is what integrands built from x-derivatives of odd fields, e.g.
    (du1/dx)^2, need: their origin value does not vanish, and leaving it out
    costs an O(dx) error.
    """
    v = check_samples(v, grid)
    if grid.fullline:
        return float(grid.dx * v.sum())
    g0 = (4.0 * v[0] - v[1]) / 3.0
    return float(grid.dx * (g0 + 2.0 * v.sum()))


def linear_standing_wave(n: int, grid: Grid, t: float) -> State:
    """Standing wave of the m = -1 linear equation: u = sin(kx) cos(wt).

    k = n pi / L with the mode number n >= 1, w = sqrt(k^2 + 1).  sin(kx)
    vanishes at x = 0 and x = L, so the sample is exactly compatible with
    the Dirichlet/odd representation.
    """
    k = n * math.pi / grid.L
    w = math.sqrt(k * k + 1.0)
    u1 = np.sin(k * grid.x) * math.cos(w * t)
    u2 = -w * np.sin(k * grid.x) * math.sin(w * t)
    return State(grid, u1, u2, t)


def standing_wave_energy(n: int, grid: Grid) -> float:
    """Closed-form full-line energy of the standing wave: (L/2) * w^2.

    Over [0, L]: int sin^2 = int cos^2 = L/2, so the energy density
    integrates to (L/4)(w^2 sin^2(wt) + (k^2+1) cos^2(wt)) = (L/4) w^2,
    and the odd extension doubles it.
    """
    k = n * math.pi / grid.L
    return 0.5 * grid.L * (k * k + 1.0)


def exact_count_below(diag: np.ndarray, offdiag: np.ndarray, shift: float) -> tuple[int, bool]:
    """Eigenvalues of the tridiagonal (diag, offdiag) below `shift`, counted exactly,
    and whether some exact LDL^T pivot is zero (then the count stops there and
    says nothing; a caller should require that it is not)."""
    shift = Fraction(shift)
    count, pivot = 0, None
    for i, a in enumerate(diag.tolist()):
        d = Fraction(a) - shift
        if i:
            d -= Fraction(offdiag[i - 1].item()) ** 2 / pivot
        if d == 0:
            return count, True
        count += d < 0
        pivot = d
    return count, False


def exact_slope(diag: np.ndarray, offdiag: np.ndarray, shift: float) -> Fraction:
    """d/ds log|det(A - s)| = -sum_j 1/(lambda_j - s) at s = `shift`, exactly, for the
    tridiagonal A = (diag, offdiag): p_n'/p_n, from the continuant of the leading
    minors p_i = (a_i - s) p_(i-1) - b_(i-1)^2 p_(i-2) and its s-derivative
    p_i' = (a_i - s) p_(i-1)' - p_(i-1) - b_(i-1)^2 p_(i-2)'.  ZeroDivisionError
    where `shift` is an eigenvalue."""
    shift = Fraction(shift)
    p_prev, p, q_prev, q = Fraction(0), Fraction(1), Fraction(0), Fraction(0)
    for i, a in enumerate(diag.tolist()):
        b2 = Fraction(offdiag[i - 1].item()) ** 2 if i else Fraction(0)
        am = Fraction(a) - shift
        p_prev, p, q_prev, q = p, am * p - b2 * p_prev, q, am * q - p - b2 * q_prev
    return q / p
