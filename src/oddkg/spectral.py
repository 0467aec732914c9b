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
the same count, never by a general-purpose dense eigensolver.

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

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

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
        mid = 0.5 * (lo + hi)
        if hi - lo <= width + 2.0 * _EPS * max(abs(lo), abs(hi)) or mid in (lo, hi):
            return mid
        if holds(mid):
            hi = mid
        else:
            lo = mid


def pt_index(V0: float) -> int:
    """Largest integer strictly below sqrt(4*V0 + 1)/2 + 1/2.

    The strict inequality matters at thresholds: the marginal state there
    is a resonance and is not counted (pt_index(2) == 1, not 2).
    """
    if V0 < 0:
        raise ValueError(f"potential strength must be nonnegative, got V0={V0}")
    bound = 0.5 * (math.sqrt(4.0 * V0 + 1.0) + 1.0)
    k = math.floor(bound)
    return int(k - 1) if k == bound else int(k)


@dataclass(frozen=True, eq=False)
class SchrodingerDiscretization:
    """Symmetric tridiagonal discretization of one parity sector."""

    grid: Grid
    V0: float
    lam: float
    parity: str
    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.diag.size


def assemble(grid: Grid, V0: float, lam: float, parity: str) -> SchrodingerDiscretization:
    """Assemble the parity sector of the operator on the half-line grid."""
    if grid.fullline:
        raise ValueError("spectral sectors are assembled on the half-line grid")
    if V0 < 0:
        raise ValueError(f"potential strength must be nonnegative, got V0={V0}")
    if not lam > 0:
        raise ValueError(f"potential scale must be positive, got lam={lam}")
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    inv_dx2 = 1.0 / grid.dx ** 2
    V_interior = (V0 / lam ** 2) / np.cosh(grid.x / lam) ** 2
    if parity == "odd":
        diag = 2.0 * inv_dx2 - V_interior
        offdiag = np.full(grid.N - 1, -inv_dx2)
    else:
        diag = np.empty(grid.N + 1)
        diag[0] = 2.0 * inv_dx2 - V0 / lam ** 2  # sech(0) = 1: full weight at x=0
        diag[1:] = 2.0 * inv_dx2 - V_interior
        offdiag = np.full(grid.N, -inv_dx2)
        offdiag[0] = -math.sqrt(2.0) * inv_dx2
    return SchrodingerDiscretization(
        grid=grid, V0=float(V0), lam=float(lam), parity=parity, diag=diag, offdiag=offdiag
    )


def _sturm_count(diag: list, off_sq: list, shift: float, pivmin: float) -> int:
    """Eigenvalues below `shift`, from the signs of the LDL^T pivots.

    Runs on plain Python floats: the recurrence is sequential, and the
    interpreter loop over floats is an order of magnitude faster than
    per-element numpy scalars.  Pivots landing exactly on zero are nudged
    to -pivmin (the marginal eigenvalue counts as below the shift), which
    the bisection callers tolerate in either direction; with pivmin = 0 a
    zero pivot raises ZeroDivisionError instead.
    """
    d = diag[0] - shift
    if d == 0.0:
        if not pivmin:
            raise ZeroDivisionError(f"zero LDL^T pivot 0 at shift {shift}")
        d = -pivmin
    count = 1 if d < 0.0 else 0
    for j in range(1, len(diag)):
        d = diag[j] - shift - off_sq[j - 1] / d
        if d == 0.0:
            if not pivmin:
                raise ZeroDivisionError(f"zero LDL^T pivot {j} at shift {shift}")
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def _as_lists(diag: np.ndarray, offdiag: np.ndarray) -> tuple[list, list, float]:
    off_sq = (offdiag * offdiag).tolist()
    scale = float(np.max(np.abs(offdiag))) if offdiag.size else 1.0
    pivmin = max(scale, 1.0) * 1e-150
    return diag.tolist(), off_sq, pivmin


def count_below(d: SchrodingerDiscretization, shift: float) -> int:
    """Certified count of eigenvalues of the sector matrix below `shift`."""
    diag, off_sq, pivmin = _as_lists(d.diag, d.offdiag)
    return _sturm_count(diag, off_sq, shift, pivmin)


def negative_count(d: SchrodingerDiscretization) -> int:
    """Number of eigenvalues < 0, by exact pivot signs at shift 0.

    A zero pivot (exact eigenvalue hit or factorization breakdown)
    triggers one retry at shift -1e-12; a second breakdown is reported.
    """
    diag, off_sq, _ = _as_lists(d.diag, d.offdiag)
    for shift in (0.0, -1e-12):
        with contextlib.suppress(ZeroDivisionError):
            return _sturm_count(diag, off_sq, shift, 0.0)
    raise ArithmeticError("LDL^T breakdown at shift 0 and at the fallback shift -1e-12")


def lowest_eigs(d: SchrodingerDiscretization, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, by bisection on the Sturm count.

    Each eigenvalue is bracketed inside its Gershgorin interval to
    absolute half-width EIG_ATOL, or to float resolution where that is
    coarser (see _bisect); the returned midpoints carry that
    bracketing error plus the O(dx^2) error of the matrix itself.
    """
    n = d.size
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    diag, off_sq, pivmin = _as_lists(d.diag, d.offdiag)
    radius = np.zeros(n)
    radius[:-1] += np.abs(d.offdiag)
    radius[1:] += np.abs(d.offdiag)
    gl = float(np.min(d.diag - radius))
    gu = float(np.max(d.diag + radius))

    out = np.empty(k)
    for i in range(1, k + 1):
        # previous eigenvalue's bracket floor is a valid lower bound
        lo = gl if i == 1 else out[i - 2] - 2.0 * EIG_ATOL
        out[i - 1] = _bisect(lambda x: _sturm_count(diag, off_sq, x, pivmin) >= i,
                             lo, gu, 2.0 * EIG_ATOL)
    return out


@dataclass(frozen=True)
class SpectralReport:
    """Counts, extreme eigenvalues, and coercivity ratios for one sector."""

    negative_count: int
    lowest_eigs: tuple
    coercivity_min_ratio: float
    residual_min_eig: float

    def as_summary(self, prefix: str = "") -> dict:
        """Flat key:value block for the experiment summary file."""
        out = {}
        out[f"{prefix}negative_count"] = self.negative_count
        out[f"{prefix}lowest_eigs"] = " ".join(f"{e:.17g}" for e in self.lowest_eigs)
        out[f"{prefix}coercivity_min_ratio"] = self.coercivity_min_ratio
        out[f"{prefix}residual_min_eig"] = self.residual_min_eig
        return out


def _pencil_count_below(stiff_diag: np.ndarray, stiff_off: np.ndarray,
                        Vdiag: np.ndarray, mu: float) -> int:
    """Generalized eigenvalues of (A_stiff - M_V) w = mu A_stiff w below mu.

    Valid because A_stiff is positive definite on the Dirichlet grid, so
    the inertia of A_Bsharp - mu * A_stiff counts pencil eigenvalues below
    mu (Sylvester's law under the congruence that diagonalizes A_stiff).
    """
    diag, off_sq, pivmin = _as_lists((1.0 - mu) * stiff_diag - Vdiag,
                                     (1.0 - mu) * stiff_off)
    return _sturm_count(diag, off_sq, 0.0, pivmin)


def coercivity_certificate(lam: float, grid: Grid, parity: str = "odd") -> SpectralReport:
    """Certify the coercivity of Bsharp on one parity sector.

    Two independent routes are reported:

    * residual_min_eig: smallest eigenvalue of the residual operator
      -d^2/dx^2 - (2/lam^2) sech^2(x/lam), the V0 = 2 comparison operator
      whose sector nonnegativity is exactly the decomposition
      Bsharp = 3/4 * stiffness + 1/4 * residual.
    * coercivity_min_ratio: min over the sector of Bsharp(w)/||dw/dx||^2,
      the smallest generalized eigenvalue of the pencil
      (A_stiff - M_V, A_stiff), by bisection on inertia counts to 1e-6
      resolution, starting from the window [-2, 2] and doubling the lower
      edge downward when the sector minimum lies below it (the even
      sector does at moderate L/lam).

    On the odd sector both routes say the same thing: ratio >= 3/4 and
    residual eigenvalue >= 0, up to the truncation-induced margin.
    """
    residual_op = assemble(grid, 2.0, lam, parity)
    res_eigs = lowest_eigs(residual_op, min(3, residual_op.size))
    neg = negative_count(residual_op)

    stiff = assemble(grid, 0.0, lam, parity)
    half = assemble(grid, 0.5, lam, parity)  # M_V carries strength V0 = 1/2
    Vdiag = stiff.diag - half.diag

    lo, hi = -2.0, 2.0
    while _pencil_count_below(stiff.diag, stiff.offdiag, Vdiag, lo) > 0:
        lo *= 2.0
        if lo < -2.0 ** 40:
            raise ArithmeticError("pencil minimum not bracketed above -2^40")
    if _pencil_count_below(stiff.diag, stiff.offdiag, Vdiag, hi) < 1:
        raise ArithmeticError("pencil minimum above the upper window edge 2")
    ratio = _bisect(lambda mu: _pencil_count_below(stiff.diag, stiff.offdiag, Vdiag, mu) >= 1,
                    lo, hi, 1e-6)

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
