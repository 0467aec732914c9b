"""Certified spectral facts for the operator -d^2/dx^2 - (V0/lam^2) sech^2(x/lam).

The continuum bound-state count (index) of this potential is the largest
integer kappa with kappa < sqrt(4*V0 + 1)/2 + 1/2, and the bound states
alternate parity starting from an even ground state.  At V0 = 2 the odd
candidate tanh(x/lam) is a zero-energy resonance, not a bound state;
this threshold structure is exactly what makes the odd-sector quadratic
form

    Bsharp(w) = integral (dw/dx)^2 - sech^2(x/lam)/(2 lam^2) w^2

coercive with the sharp constant 3/4 on odd functions.

Everything here is computed from inertia (Sturm) counts on symmetric
tridiagonal matrices: counts are certified integers obtained from LDL^T
pivot signs, and the few eigenvalues needed are isolated by bisection on
the same count, never by a general-purpose dense eigensolver.  Every count,
the coercivity pencil's included, is `count_below` on an assembled sector.

Parity is encoded in the boundary treatment at x = 0:

* odd:  Dirichlet ghost (u(0) = 0), the plain N x N matrix on x_1..x_N.
* even: the x = 0 node is a genuine unknown; restricting the symmetric
  full-line matrix to even vectors gives an (N+1) x (N+1) tridiagonal
  whose first off-diagonal is -sqrt(2)/dx^2 (the symmetric equivalent of
  the doubled coupling produced by the mirror ghost u(-dx) = u(dx)).
  This is an exact subspace restriction, so eigenvalues keep the O(dx^2)
  accuracy of the full-line stencil.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Grid
from .virial import VirialConfig

#: |eigenvalue| below this is reported as marginal (threshold resonance)
MARGINAL_EIG_TOL = 1e-4

#: absolute half-width to which bisection brackets each eigenvalue
EIG_ATOL = 1e-10

_EPS = float(np.finfo(float).eps)


def _bisect(holds, lo: float, hi: float, width: float) -> float:
    """Midpoint of a bracket [lo, hi] around the point where `holds` turns true.

    `holds` must be false at lo, true at hi and monotone in between.  The
    stop follows LAPACK dstebz: the bracket is narrow enough when hi - lo
    is within the requested width plus 2*eps*max(|lo|, |hi|), a couple of
    float spacings at the bracket, or when the midpoint rounds onto an
    endpoint, so that no further split exists.  Without the relative term
    a bracket around a large eigenvalue could never shrink below its own
    float spacing.
    """
    while True:
        mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
        if hi - lo <= width + 2.0 * _EPS * max(abs(lo), abs(hi)) or mid in (lo, hi):
            return mid
        if holds(mid):
            hi = mid
        else:
            lo = mid


def _check_strength(V0: float) -> None:
    if not 0.0 <= V0 < math.inf:  # the one rule on a potential strength
        raise ValueError(f"potential strength must be nonnegative and finite, got V0={V0}")


def pt_index(V0: float) -> int:
    """Largest integer strictly below sqrt(4*V0 + 1)/2 + 1/2.

    The strict inequality matters at thresholds: the marginal state there
    is a resonance and is not counted (pt_index(2) == 1, not 2).
    """
    _check_strength(V0)
    bound = math.sqrt(V0 + 0.25) + 0.5  # the same bits, without overflow at 4*V0
    k = math.floor(bound)
    return int(k - 1) if k == bound else int(k)


@dataclass(frozen=True, eq=False)
class SchrodingerDiscretization:
    """Symmetric tridiagonal discretization of one parity sector."""

    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)
    #: Sturm counts taken on the matrix so far, (shifts, counts) in shift order
    counts: tuple = field(default_factory=lambda: ([], []), repr=False)
    #: i -> (lower, upper) enclosing the i-th smallest eigenvalue (1-based),
    #: from the free Laplacian; set by `assemble`, None on a matrix built by hand
    eig_bounds: Callable[[int], tuple[float, float]] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.diag.size

    @cached_property
    def lists(self) -> tuple[list, list, float]:
        """The float lists and pivmin of `_sturm_count`, made on the first count."""
        return _as_lists(self.diag, self.offdiag)


def assemble(grid: Grid, V0: float, lam: float, parity: str) -> SchrodingerDiscretization:
    """Assemble the parity sector of the operator on the half-line grid.

    The same inputs assemble the same matrix, so its sectors share the count
    table that `grid` keeps for them (the certificates reuse index_check's).

    The sector is A = A0 - diag(V) with 0 <= V <= V0/lam^2, where A0 is the
    free (V0 = 0) sector, whose eigenvalues are (4/dx^2) sin^2(i pi/(2(N+1)))
    (odd) and (4/dx^2) sin^2((i - 1/2) pi/(2(N+1))) (even).  By Weyl's
    inequality lambda_i(A0) - V0/lam^2 <= lambda_i(A) <= lambda_i(A0): these
    are the sector's `eig_bounds`.
    """
    if grid.fullline:
        raise ValueError("spectral sectors are assembled on the half-line grid")
    _check_strength(V0)
    VirialConfig(lam)  # the potential's scale obeys the virial weight's rule
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    inv_dx2 = 1.0 / grid.dx ** 2
    depth = V0 / lam ** 2
    if not depth < math.inf:  # V0 and lam each obey their rule, but the quotient may overflow
        raise ValueError(f"potential depth V0/lam^2 must be finite, got V0={V0:g}, lam={lam:g}")
    V_interior = depth / np.cosh(grid.x / lam) ** 2
    if parity == "odd":
        diag = 2.0 * inv_dx2 - V_interior
        offdiag = np.full(grid.N - 1, -inv_dx2)
        phase = 0.0
    else:
        diag = np.empty(grid.N + 1)
        diag[0] = 2.0 * inv_dx2 - depth  # sech(0) = 1: full weight at x=0
        diag[1:] = 2.0 * inv_dx2 - V_interior
        offdiag = np.full(grid.N, -inv_dx2)
        offdiag[0] = -math.sqrt(2.0) * inv_dx2
        phase = 0.5
    step = math.pi / (2 * (grid.N + 1))

    def eig_bounds(i: int) -> tuple[float, float]:
        free = 4.0 * inv_dx2 * math.sin((i - phase) * step) ** 2
        return free - depth, free

    counts = grid.table(("sturm_counts", V0, lam, parity), lambda: ([], []))
    return SchrodingerDiscretization(diag=diag, offdiag=offdiag, counts=counts,
                                     eig_bounds=eig_bounds)


def _sturm_count(diag: list, off_sq: list, shift: float, pivmin: float) -> int:
    """Eigenvalues below `shift`, from the signs of the LDL^T pivots.

    Runs on plain Python floats: the recurrence is sequential, and the
    interpreter loop over floats is an order of magnitude faster than
    per-element numpy scalars, so `shift` must be a float too.  Pivots
    landing exactly on zero are nudged to -pivmin (the marginal eigenvalue
    counts as below the shift), as in LAPACK dstebz; the bisection callers
    tolerate either direction.
    """
    d = diag[0] - shift
    if d == 0.0:
        d = -pivmin
    count = 1 if d < 0.0 else 0
    for a, b2 in zip(diag[1:], off_sq):
        d = a - shift - b2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = -pivmin
            count += 1
    return count


def _as_lists(diag: np.ndarray, offdiag: np.ndarray) -> tuple[list, list, float]:
    off_sq = (offdiag * offdiag).tolist()
    scale = float(np.max(np.abs(offdiag))) if offdiag.size else 1.0
    pivmin = max(scale, 1.0) * 1e-150
    return diag.tolist(), off_sq, pivmin


def count_below(d: SchrodingerDiscretization, shift: float) -> int:
    """Certified count of eigenvalues of the sector matrix below `shift`,
    taken once per shift: it comes from, and goes into, `d.counts`."""
    shift = float(shift)
    shifts, counts = d.counts
    j = bisect.bisect_left(shifts, shift)
    if j == len(shifts) or shifts[j] != shift:
        diag, off_sq, pivmin = d.lists
        shifts.insert(j, shift)
        counts.insert(j, _sturm_count(diag, off_sq, shift, pivmin))
    return counts[j]


def negative_count(d: SchrodingerDiscretization) -> int:
    """Number of eigenvalues < 0: the count at shift 0, whose zero pivots
    are nudged like every other count's (an eigenvalue exactly at 0 counts)."""
    return count_below(d, 0.0)


def lowest_eigs(d: SchrodingerDiscretization, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, by bisection on the Sturm count.

    Each eigenvalue is bracketed inside its Gershgorin interval to
    absolute half-width EIG_ATOL, or to float resolution where that is
    coarser (see _bisect); the returned midpoints carry that
    bracketing error plus the O(dx^2) error of the matrix itself.

    A count is skipped when the counts already taken on the matrix decide
    it, as in Barth, Martin & Wilkinson's `bisect` and LAPACK dstebz.  The
    computed count is monotone in the shift, so a count of at least i at
    or below x means count(x) >= i, and a count below i at or above x
    means count(x) < i.  The bisection visits the same midpoints either
    way, so the result is bit for bit the one that counts every midpoint
    afresh.  The counts come from, and go into, `d.counts`.

    On an assembled sector a count is also skipped when `d.eig_bounds`
    decides it: true above the upper bound plus a margin, false below the
    lower bound minus it.  The margin, 16 eps max(|gl|, |gu|), exceeds the
    backward error of a computed count, which is the exact count of a
    matrix within a few eps ||A|| of A (Kahan 1966), so a decided midpoint
    gets the answer its count would give and the bisection again visits the
    same midpoints.  The shipped spectral run takes 443 counts.
    """
    n = d.size
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    radius = np.zeros(n)
    radius[:-1] += np.abs(d.offdiag)
    radius[1:] += np.abs(d.offdiag)
    gl = float(np.min(d.diag - radius))
    gu = float(np.max(d.diag + radius))
    if not (math.isfinite(gl) and math.isfinite(gu)):  # nan would bisect forever
        raise ValueError(f"the Gershgorin interval [{gl:g}, {gu:g}] is not finite")
    margin = 16.0 * _EPS * max(abs(gl), abs(gu))
    shifts, counts = d.counts

    def at_least(i: int, x: float, floor: float, ceil: float) -> bool:
        if x > ceil:
            return True
        if x < floor:
            return False
        j = bisect.bisect_left(shifts, x)
        if j and counts[j - 1] >= i:
            return True
        if j < len(shifts) and counts[j] < i:
            return False
        return count_below(d, x) >= i

    out = []
    for i in range(1, k + 1):
        # previous eigenvalue's bracket floor is a valid lower bound
        lo = gl if i == 1 else out[-1] - 2.0 * EIG_ATOL
        # a count below floor is less than i, one above ceil at least i
        floor, ceil = -math.inf, math.inf
        if d.eig_bounds is not None:
            lower, upper = d.eig_bounds(i)
            # a bound or margin that is not finite decides nothing
            if math.isfinite(lower - margin):
                floor = lower - margin
            if math.isfinite(upper + margin):
                ceil = upper + margin
        mid = _bisect(lambda x: at_least(i, x, floor, ceil), lo, gu, 2.0 * EIG_ATOL)
        # a bracket can end below the last midpoint where eigenvalues lie closer than
        # EIG_ATOL; lambda_i >= lambda_(i-1) >= out[-1] - EIG_ATOL, so out[-1] is close too
        out.append(max(mid, out[-1]) if out else mid)
    return np.array(out)


@dataclass(frozen=True)
class SpectralReport:
    """Counts, extreme eigenvalues, and coercivity ratios for one sector."""

    negative_count: int
    lowest_eigs: tuple
    coercivity_min_ratio: float
    residual_min_eig: float


def coercivity_certificate(lam: float, grid: Grid, parity: str = "odd") -> SpectralReport:
    """Certify the coercivity of Bsharp on one parity sector.

    Two independent routes are reported:

    * residual_min_eig: smallest eigenvalue of the residual operator
      -d^2/dx^2 - (2/lam^2) sech^2(x/lam), the V0 = 2 comparison operator
      whose sector nonnegativity is exactly the decomposition
      Bsharp = 3/4 * stiffness + 1/4 * residual.
    * coercivity_min_ratio: min over the sector of Bsharp(w)/||dw/dx||^2,
      the smallest eigenvalue of the pencil (A_stiff - M_V, A_stiff), M_V of
      strength 1/2.  As A_stiff - M_V - mu A_stiff = (1 - mu)(A_stiff -
      M_V/(1 - mu)), for mu < 1 the pencil has an eigenvalue below mu exactly
      when the sector of strength V0 = 1/(2(1 - mu)) has one below 0, so 3/4
      is the mu of the V0 = 2 sector; for mu >= 1 it always has one.  It is
      bisected on those counts to 1e-6 from [-2, 2], doubling the lower edge
      while the minimum lies below it (the even sector's does at moderate L/lam).

    On the odd sector both routes say the same thing: ratio >= 3/4 and
    residual eigenvalue >= 0, up to the truncation-induced margin.
    """
    residual_op = assemble(grid, 2.0, lam, parity)
    res_eigs = lowest_eigs(residual_op, min(3, residual_op.size))
    neg = negative_count(residual_op)

    def below(mu: float) -> bool:  # the pencil has an eigenvalue below mu
        return mu >= 1.0 or count_below(
            assemble(grid, 0.5 / (1.0 - mu), lam, parity), 0.0) >= 1

    lo = -2.0
    while below(lo):
        lo *= 2.0
        if lo < -2.0 ** 40:
            raise ArithmeticError("pencil minimum not bracketed above -2^40")
    ratio = _bisect(below, lo, 2.0, 1e-6)

    return SpectralReport(
        negative_count=neg,
        lowest_eigs=tuple(float(e) for e in res_eigs),
        coercivity_min_ratio=ratio,
        residual_min_eig=float(res_eigs[0]),
    )


@dataclass(frozen=True)
class IndexCheck:
    """pt_index verification for one V0: sector counts plus marginal eigenvalues."""

    predicted: int
    count_odd: int
    count_even: int
    marginal_odd: float
    marginal_even: float

    @property
    def counts_match(self) -> bool:
        return self.count_odd + self.count_even == self.predicted

    @property
    def marginals_near_zero(self) -> bool:
        return (self.marginal_odd >= -MARGINAL_EIG_TOL
                and self.marginal_even >= -MARGINAL_EIG_TOL)


def index_check(grid: Grid, V0: float, lam: float) -> IndexCheck:
    """Compare the discrete sector counts against the closed-form index.

    For each parity the first eigenvalue above the counted ones is
    reported as the marginal one; at threshold V0 (where the index bound
    is an exact integer) it hugs zero from above, reflecting the
    continuum resonance pushed up by the Dirichlet truncation.
    """
    predicted = pt_index(V0)
    counts = {}
    marginal = {}
    for parity in ("odd", "even"):
        op = assemble(grid, V0, lam, parity)
        c = counts[parity] = negative_count(op)
        eigs = lowest_eigs(op, min(c + 1, op.size))
        marginal[parity] = float(eigs[c]) if c < eigs.size else math.inf
    return IndexCheck(
        predicted=predicted,
        count_odd=counts["odd"], count_even=counts["even"],
        marginal_odd=marginal["odd"], marginal_even=marginal["even"],
    )
