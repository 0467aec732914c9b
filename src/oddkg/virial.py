"""Virial and localized-energy diagnostics along Klein-Gordon trajectories.

The central object is the weighted momentum functional

    I(u) = integral (psi * du1/dx + psi'/2 * u1) * u2,
    psi(x) = lam * tanh(x/lam),

whose exact time derivative along the flow is

    -dI/dt = B(u1) + integral psi' * [F(u1) - u1 f(u1)/2],
    B(u1)  = integral psi' (du1/dx)^2 - 1/4 integral psi''' u1^2.

Substituting w = zeta*u1 with zeta = sqrt(psi') = sech(x/lam) turns B into
the Schrodinger form

    Bsharp(w) = integral (dw/dx)^2 - V w^2,   V = sech^2(x/lam) / (2 lam^2),

which is coercive on odd functions: Bsharp(w) >= 3/4 integral (dw/dx)^2.
The localized energy uses the fixed unit-scale weight sech(x):

    H = integral sech(x) [u1x^2 + u1^2 + u2^2],

split into the weighted H1 and L2 pieces, with the exact derivative

    dH/dt = 2 integral sech(x) [(1+m) u1 + f(u1)] u2
            - 2 integral sech'(x) u2 u1x.

All weights (psi, psi', psi''', zeta, V, sech, sech') are evaluated from
closed forms only; nothing here differentiates psi numerically.

Each quantity is written once, in `_Kernel`, as np.dot(weight row,
product) terms; make_record and every standalone functional are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, State, check_samples, derivative, gradient_sq_integral, integrate_fullline
from .models import Model

#: fixed CSV schema for one diagnostics record (dI_dt_rhs = -(B + nonlinear term))
CSV_COLUMNS = (
    "t", "E", "I", "dI_dt_numeric", "dI_dt_rhs", "B_val",
    "H", "H1w_sq", "L2w_sq", "cross", "dH_dt_analytic", "sf_ratio",
)


@dataclass(frozen=True)
class VirialConfig:
    """Scale lam of the virial weight psi(x) = lam*tanh(x/lam)."""

    lam: float

    def __post_init__(self):
        lam2 = self.lam * self.lam  # the weights take lam^2 and 2/lam^2
        if not (self.lam > 0 and 0.0 < lam2 < math.inf and 2.0 / lam2 < math.inf):
            raise ValueError(f"virial scale lam must be positive, with lam^2 and 2/lam^2 "
                             f"finite, got {self.lam}")


class UnitWeights:
    """The rows on one grid that no virial scale lam enters.

    np.dot(even, g) integrates an even g over the line, with g(0) taken from the
    parabola through the first two nodes (`even_origin_integral` in tests/oracles.py
    is the tests' reference): the row is dx*(2, ..., 2) + dx*(4/3, -1/3, 0, ..., 0)
    on the half-line and dx*(1, ..., 1) on the full line.  The localization rows are `even` times

        sech   = sech(x)          (unit-scale localization weight)
        dsech  = -sech(x) tanh(x)
    """

    def __init__(self, grid: Grid):
        x, dx = grid.x, grid.dx
        self.even = even = np.full(grid.N, dx if grid.fullline else 2.0 * dx)
        if not grid.fullline:
            even[0] += 4.0 * dx / 3.0
            even[1] -= dx / 3.0
        sech1 = 1.0 / np.cosh(x)
        self.sech = even * sech1
        self.dsech = even * (-sech1 * np.tanh(x))


class Weights:
    """Closed-form weights of scale lam on one grid: `even` (see UnitWeights) times

        psi    = lam tanh(x/lam)
        psip   = sech^2(x/lam)                                  (psi')
        psippp = (2/lam^2) sech^2(x/lam) (3 tanh^2(x/lam) - 1)  (psi''')
        V      = sech^2(x/lam) / (2 lam^2)

    and zeta = sech(x/lam), not a row, is the factor of w = zeta * u1.
    """

    def __init__(self, grid: Grid, lam: float):
        even = _unit_weights(grid).even
        s = 1.0 / np.cosh(grid.x / lam)
        th = np.tanh(grid.x / lam)
        self.psi = even * (lam * th)
        self.psip = even * (s * s)
        self.psippp = even * ((2.0 / lam ** 2) * s * s * (3.0 * th * th - 1.0))
        self.V = even * (0.5 / lam ** 2 * s * s)
        self.zeta = s


def _unit_weights(grid: Grid) -> UnitWeights:
    return grid.table(("unit_weights",), lambda: UnitWeights(grid))


def _weights(grid: Grid, lam: float) -> Weights:
    return grid.table(("weights", lam), lambda: Weights(grid, lam))


def _dot(row: np.ndarray, product: np.ndarray) -> float:
    return float(np.dot(row, product))


class _Once:
    """Kernel attribute: evaluated on first read, then shadowed by the instance's value.
    Not functools.cached_property, which takes a lock on Python 3.11: make_record
    at N = 7,999 took 298 us with it against 270 us with this."""

    def __init__(self, recipe):
        self.recipe = recipe

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, k, owner=None):
        value = k.__dict__[self.name] = self.recipe(k)
        return value


class _Kernel:
    """Every diagnostic quantity of one state, each evaluated on first read.

    `u1` and `u2` are sample arrays on `grid`; a kernel of one field takes
    u2 = None.  `lam` is the scale of the rows W; a kernel that reads only
    the lam-free rows U (H, the weighted norms, the energy) takes None.
    Arrays go into the grid's one workspace table, a dict of buffers by
    name, so records and standalone functionals alike allocate nothing
    N-sized here but what model.f and model.F return, and agree bit for
    bit.  Sharing the buffers is safe because only floats leave a kernel
    and no two kernels on one grid are ever evaluated interleaved: a
    kernel's products are read only while it is the last one evaluated.
    """

    def __init__(self, grid: Grid, u1: np.ndarray, lam: float | None,
                 u2: np.ndarray | None = None, model: Model | None = None):
        self.grid, self.u1, self.lam, self.u2 = grid, u1, lam, u2
        self.model = model
        self.ws = grid.table(("workspace",), dict)

    def buf(self, name: str, size: int | None = None) -> np.ndarray:
        out = self.ws.get(name)
        if out is None:
            out = self.ws[name] = np.empty(self.grid.N if size is None else size)
        return out

    # weight rows: U has no lam; W, of scale lam, is built only when read
    U = _Once(lambda k: _unit_weights(k.grid))
    W = _Once(lambda k: _weights(k.grid, k.lam))
    # pointwise products, each written into its own workspace buffer
    du1 = _Once(lambda k: derivative(k.u1, k.grid, out=k.buf("du1")))
    u1_sq = _Once(lambda k: np.multiply(k.u1, k.u1, out=k.buf("u1_sq")))
    du1_sq = _Once(lambda k: np.multiply(k.du1, k.du1, out=k.buf("du1_sq")))
    u2_sq = _Once(lambda k: np.multiply(k.u2, k.u2, out=k.buf("u2_sq")))
    u1u2 = _Once(lambda k: np.multiply(k.u1, k.u2, out=k.buf("u1u2")))
    du1u2 = _Once(lambda k: np.multiply(k.du1, k.u2, out=k.buf("du1u2")))
    f = _Once(lambda k: k.model.f(k.u1))
    F = _Once(lambda k: k.model.F(k.u1))
    u1f = _Once(lambda k: np.multiply(k.u1, k.f, out=k.buf("u1f")))
    fu2 = _Once(lambda k: np.multiply(k.f, k.u2, out=k.buf("fu2")))
    # |u1|^(2+q) with q = p - 1; the catalog's p = 3 makes the quartic case the hot one
    q = _Once(lambda k: k.model.p - 1.0)
    abs_pow = _Once(lambda k: np.square(k.u1_sq, out=k.buf("abs_pow")) if 2.0 + k.q == 4.0
                    else np.power(np.abs(k.u1, out=k.buf("abs_pow")), 2.0 + k.q,
                                  out=k.buf("abs_pow")))
    w = _Once(lambda k: np.multiply(k.W.zeta, k.u1, out=k.buf("w")))
    dw = _Once(lambda k: derivative(k.w, k.grid, out=k.buf("dw")))
    dw_sq = _Once(lambda k: np.square(k.dw, out=k.buf("dw_sq")))
    h1_sum = _Once(lambda k: np.add(k.du1_sq, k.u1_sq, out=k.buf("h1_sum")))
    h_sum = _Once(lambda k: np.add(k.h1_sum, k.u2_sq, out=k.buf("h_sum")))
    # scalars (E and energy_norm_sq: the staggered gradient, see `energy`)
    grad_sq = _Once(lambda k: gradient_sq_integral(k.u1, k.grid, out=k.buf("grad", k.grid.N + 1)))
    u1_l2 = _Once(lambda k: integrate_fullline(k.u1_sq, k.grid))
    u2_l2 = _Once(lambda k: integrate_fullline(k.u2_sq, k.grid))
    E = _Once(lambda k: 0.5 * k.grad_sq + 0.5 * k.u2_l2 - 0.5 * k.model.m * k.u1_l2
              - integrate_fullline(k.F, k.grid))
    energy_norm_sq = _Once(lambda k: k.grad_sq + k.u1_l2 + k.u2_l2)
    # S >= |E|, the size of E's terms, which the O(dt^2) energy drift scales with
    energy_scale = _Once(lambda k: 0.5 * k.grad_sq + 0.5 * k.u2_l2
                         + 0.5 * abs(k.model.m) * k.u1_l2
                         + integrate_fullline(np.abs(k.F, out=k.buf("abs_F")), k.grid))
    I = _Once(lambda k: _dot(k.W.psi, k.du1u2) + 0.5 * _dot(k.W.psip, k.u1u2))
    I_abs = _Once(lambda k: _dot(k.W.psi, np.abs(k.du1u2, out=k.buf("abs_du1u2")))
                  + 0.5 * _dot(k.W.psip, np.abs(k.u1u2, out=k.buf("abs_u1u2"))))
    B = _Once(lambda k: _dot(k.W.psip, k.du1_sq) - 0.25 * _dot(k.W.psippp, k.u1_sq))
    nonlinear = _Once(lambda k: _dot(k.W.psip, k.F) - 0.5 * _dot(k.W.psip, k.u1f))
    rhs = _Once(lambda k: k.B + k.nonlinear)
    h1w = _Once(lambda k: _dot(k.U.sech, k.h1_sum))
    l2w = _Once(lambda k: _dot(k.U.sech, k.u2_sq))
    # H is its own quadrature of the summed integrand, not h1w + l2w
    H = _Once(lambda k: _dot(k.U.sech, k.h_sum))
    cross = _Once(lambda k: _dot(k.U.sech, k.u1u2))
    dH = _Once(lambda k: 2.0 * (1.0 + k.model.m) * k.cross + 2.0 * _dot(k.U.sech, k.fu2)
               - 2.0 * _dot(k.U.dsech, k.du1u2))
    sup = _Once(lambda k: float(np.max(np.abs(k.u1, out=k.buf("abs_u1")))))
    dw_norm_sq = _Once(lambda k: _dot(k.U.even, k.dw_sq))
    # sf_ratio = int psi' |u1|^(2+q) / (||u1||_inf^q ||dw/dx||^2), 0 at u1 = 0, is scale
    # invariant: its bound is the weighted Sobolev bound behind the nonlinear estimate.
    # numpy pow overflows to inf rather than raising, as near-blow-up states need
    sf_denom = _Once(lambda k: float(np.float64(k.sup) ** k.q) * k.dw_norm_sq)
    sf = _Once(lambda k: _dot(k.W.psip, k.abs_pow) / k.sf_denom if k.sf_denom != 0.0 else 0.0)
    # on the kernel of w itself: a route to B independent of the one via du1/dx
    bsharp = _Once(lambda k: _dot(k.U.even, k.du1_sq) - _dot(k.W.V, k.u1_sq))


def virial_I(state: State, cfg: VirialConfig) -> float:
    """I = integral (psi u1x + psi'/2 u1) u2; even integrand for odd data."""
    return _Kernel(state.grid, state.u1, cfg.lam, state.u2).I


def virial_I_abs(state: State, cfg: VirialConfig) -> float:
    """Scale of I: integral psi |u1x u2| + psi'/2 |u1 u2| (psi >= 0 on the half-line)."""
    return _Kernel(state.grid, state.u1, cfg.lam, state.u2).I_abs


def bilinear_B(u1: np.ndarray, grid: Grid, cfg: VirialConfig) -> float:
    """B = integral psi' u1x^2 - 1/4 integral psi''' u1^2."""
    return _Kernel(grid, check_samples(u1, grid), cfg.lam).B


def to_w(u1: np.ndarray, grid: Grid, cfg: VirialConfig) -> np.ndarray:
    """Auxiliary function w = zeta * u1, zeta = sech(x/lam); odd when u1 is."""
    return _weights(grid, cfg.lam).zeta * check_samples(u1, grid)


def bsharp(w: np.ndarray, grid: Grid, cfg: VirialConfig) -> float:
    """Bsharp = integral (dw/dx)^2 - V w^2 with V = sech^2(x/lam)/(2 lam^2)."""
    return _Kernel(grid, check_samples(w, grid), cfg.lam).bsharp


def weighted_norms(state: State) -> tuple[float, float]:
    """(H1w_sq, L2w_sq): sech(x)-weighted H1 and L2 norms squared.

    The weight has unit scale, independent of the virial lam.
    """
    k = _Kernel(state.grid, state.u1, None, state.u2)
    return k.h1w, k.l2w


def H_loc(state: State) -> float:
    """H = integral sech(x) [u1x^2 + u1^2 + u2^2]."""
    return _Kernel(state.grid, state.u1, None, state.u2).H


def energy(state: State, model: Model) -> float:
    """Conserved energy: full-line integral of u2^2/2 + u1x^2/2 - m*u1^2/2 - F(u1).

    Its gradient term is gradient_sq_integral, the exact stiffness of the
    semidiscrete Hamiltonian, so along a symplectic trajectory it wobbles at O(dt^2).
    """
    return _Kernel(state.grid, state.u1, None, state.u2, model).E


def energy_norm_sq(state: State) -> float:
    """Full-line H1 x L2 norm squared, with the staggered gradient of `energy`."""
    return _Kernel(state.grid, state.u1, None, state.u2).energy_norm_sq


@dataclass
class DiagnosticsRecord:
    """One time slice of every scalar functional; see CSV_COLUMNS for order.

    dI_dt_numeric is filled in a post-pass over a record sequence
    (fill_dI_dt_numeric); it is NaN for a standalone record.  The last four
    fields are not CSV columns: the staggered H1 x L2 norm squared, the
    nonlinear term integral psi' [F(u1) - u1 f(u1)/2] of -dI/dt and the
    denominator of sf_ratio, ||u1||_inf^q ||dw/dx||^2, for the decay summary,
    and the energy scale S, against which the convergence study measures drift.
    """

    t: float
    E: float
    I: float
    dI_dt_numeric: float
    dI_dt_rhs: float
    B_val: float
    H: float
    H1w_sq: float
    L2w_sq: float
    cross: float
    dH_dt_analytic: float
    sf_ratio: float
    energy_norm_sq: float = field(default=math.nan, compare=False)
    nonlinear: float = field(default=math.nan, compare=False)
    sf_denom: float = field(default=math.nan, compare=False)
    energy_scale: float = field(default=math.nan, compare=False)


def make_record(state: State, model: Model, cfg: VirialConfig) -> DiagnosticsRecord:
    """Every diagnostic functional of one state, bit-identical to the standalone ones."""
    k = _Kernel(state.grid, state.u1, cfg.lam, state.u2, model)
    return DiagnosticsRecord(
        t=state.t, E=k.E, I=k.I, dI_dt_numeric=math.nan, dI_dt_rhs=-k.rhs, B_val=k.B,
        H=k.H, H1w_sq=k.h1w, L2w_sq=k.l2w, cross=k.cross, dH_dt_analytic=k.dH,
        sf_ratio=k.sf, energy_norm_sq=k.energy_norm_sq, nonlinear=k.nonlinear,
        sf_denom=k.sf_denom, energy_scale=k.energy_scale,
    )


def fill_dI_dt_numeric(records: list[DiagnosticsRecord]) -> None:
    """Fill dI_dt_numeric with numpy's second-order gradient of I over the record times.

    np.gradient(I, t, edge_order=2) is the slope of the 3-point quadratic
    interpolant: centered on interior records, one-sided at the ends and
    across the shorter final interval (the last record need not land on
    the regular record cadence).  Two records take their secant, one NaN.
    """
    if len(records) < 2:
        for r in records:
            r.dI_dt_numeric = math.nan
        return
    t = np.array([r.t for r in records])
    I = np.array([r.I for r in records])
    with np.errstate(all="ignore"):  # the last records of a blow-up may be huge, inf or nan
        slopes = np.gradient(I, t, edge_order=min(len(records) - 1, 2))
    for r, slope in zip(records, slopes.tolist()):
        r.dI_dt_numeric = slope
