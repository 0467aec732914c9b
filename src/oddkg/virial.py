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
product) terms; make_record and the standalone functionals are views of it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, State, derivative, gradient_sq_integral, integrate_fullline
from .models import Model

#: fixed CSV schema for one diagnostics record (dI_dt_rhs = -virial_rhs)
CSV_COLUMNS = (
    "t", "E", "I", "dI_dt_numeric", "dI_dt_rhs", "B_val",
    "H", "H1w_sq", "L2w_sq", "cross", "dH_dt_analytic", "sf_ratio",
)


@dataclass(frozen=True)
class VirialConfig:
    """Scale lam of the virial weight psi(x) = lam*tanh(x/lam)."""

    lam: float = 10.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"virial scale must be positive, got lam={self.lam}")


class Weights:
    """Closed-form weights on one grid, each times the quadrature row `even`.

    np.dot(even, g) is integrate_fullline(g, origin="even"): the row is
    dx*(2, ..., 2) + dx*(4/3, -1/3, 0, ..., 0) on the half-line and
    dx*(1, ..., 1) on the full line.  The weight rows are `even` times

        psi    = lam tanh(x/lam)
        psip   = sech^2(x/lam)                                  (psi')
        psippp = (2/lam^2) sech^2(x/lam) (3 tanh^2(x/lam) - 1)  (psi''')
        V      = sech^2(x/lam) / (2 lam^2)
        sech   = sech(x)          (unit-scale localization weight)
        dsech  = -sech(x) tanh(x)

    and zeta = sech(x/lam), not a row, is the factor of w = zeta * u1.
    """

    def __init__(self, grid: Grid, lam: float):
        x, dx = grid.x, grid.dx
        self.even = even = np.full(grid.N, dx if grid.fullline else 2.0 * dx)
        if not grid.fullline:
            even[0] += 4.0 * dx / 3.0
            even[1] -= dx / 3.0
        s = 1.0 / np.cosh(x / lam)
        th = np.tanh(x / lam)
        sech1 = 1.0 / np.cosh(x)
        self.psi = even * (lam * th)
        self.psip = even * (s * s)
        self.psippp = even * ((2.0 / lam ** 2) * s * s * (3.0 * th * th - 1.0))
        self.V = even * (0.5 / lam ** 2 * s * s)
        self.zeta = s
        self.sech = even * sech1
        self.dsech = even * (-sech1 * np.tanh(x))


#: grid -> {lam: Weights}; a grid's tables are freed together with the grid
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _weights(grid: Grid, lam: float) -> Weights:
    tables = _TABLES.get(grid) or _TABLES.setdefault(grid, {})
    return tables[lam] if lam in tables else tables.setdefault(lam, Weights(grid, lam))


def _dot(row: np.ndarray, product: np.ndarray) -> float:
    return float(np.dot(row, product))


class _Once:
    """Kernel attribute: evaluated on first read, then shadowed by the instance's value."""

    def __init__(self, recipe):
        self.recipe = recipe

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, k, owner=None):
        value = k.__dict__[self.name] = self.recipe(k)
        return value


class _Kernel:
    """Every diagnostic quantity of one state, each evaluated on first read.

    Arrays go into `workspace`, a dict of buffers by name.  `run` passes one
    dict to all its records, so they allocate nothing N-sized here but what
    model.f and model.F return; a standalone functional gets fresh buffers.
    The arithmetic is the same either way, so records and standalone
    functionals agree bit for bit.
    """

    def __init__(self, u1: Field, u2: Field | None = None, model: Model | None = None,
                 lam: float = 1.0, q: float = 2.0, workspace: dict | None = None):
        self.grid = u1.grid
        self.W = _weights(u1.grid, lam)
        self.field1, self.u1 = u1, u1.values
        self.u2 = None if u2 is None else u2.values
        self.model, self.q = model, q
        self.ws = {} if workspace is None else workspace

    def buf(self, name: str, size: int | None = None) -> np.ndarray:
        out = self.ws.get(name)
        if out is None:
            out = self.ws[name] = np.empty(self.grid.N if size is None else size)
        return out

    # pointwise products, each written into its own workspace buffer
    du1 = _Once(lambda k: derivative(k.field1, out=k.buf("du1")).values)
    u1_sq = _Once(lambda k: np.multiply(k.u1, k.u1, out=k.buf("u1_sq")))
    du1_sq = _Once(lambda k: np.multiply(k.du1, k.du1, out=k.buf("du1_sq")))
    u2_sq = _Once(lambda k: np.multiply(k.u2, k.u2, out=k.buf("u2_sq")))
    u1u2 = _Once(lambda k: np.multiply(k.u1, k.u2, out=k.buf("u1u2")))
    du1u2 = _Once(lambda k: np.multiply(k.du1, k.u2, out=k.buf("du1u2")))
    f = _Once(lambda k: k.model.f(k.u1))
    F = _Once(lambda k: k.model.F(k.u1))
    u1f = _Once(lambda k: np.multiply(k.u1, k.f, out=k.buf("u1f")))
    fu2 = _Once(lambda k: np.multiply(k.f, k.u2, out=k.buf("fu2")))
    # |u1|^(2+q); the catalog's p = 3 makes the quartic case the hot one
    abs_pow = _Once(lambda k: np.square(k.u1_sq, out=k.buf("abs_pow")) if 2.0 + k.q == 4.0
                    else np.power(np.abs(k.u1, out=k.buf("abs_pow")), 2.0 + k.q,
                                  out=k.buf("abs_pow")))
    w = _Once(lambda k: np.multiply(k.W.zeta, k.u1, out=k.buf("w")))
    dw = _Once(lambda k: derivative(Field(k.grid, k.w), out=k.buf("dw")).values)
    dw_sq = _Once(lambda k: np.square(k.dw, out=k.buf("dw_sq")))
    h1_sum = _Once(lambda k: np.add(k.du1_sq, k.u1_sq, out=k.buf("h1_sum")))
    h_sum = _Once(lambda k: np.add(k.h1_sum, k.u2_sq, out=k.buf("h_sum")))
    # scalars (E and energy_norm_sq: the staggered gradient of models.energy)
    grad_sq = _Once(lambda k: gradient_sq_integral(k.field1, out=k.buf("grad", k.grid.N + 1)))
    u1_l2 = _Once(lambda k: integrate_fullline(k.u1_sq, k.grid))
    u2_l2 = _Once(lambda k: integrate_fullline(k.u2_sq, k.grid))
    E = _Once(lambda k: 0.5 * k.grad_sq + 0.5 * k.u2_l2 - 0.5 * k.model.m * k.u1_l2
              - integrate_fullline(k.F, k.grid))
    energy_norm_sq = _Once(lambda k: k.grad_sq + k.u1_l2 + k.u2_l2)
    I = _Once(lambda k: _dot(k.W.psi, k.du1u2) + 0.5 * _dot(k.W.psip, k.u1u2))
    B = _Once(lambda k: _dot(k.W.psip, k.du1_sq) - 0.25 * _dot(k.W.psippp, k.u1_sq))
    nonlinear = _Once(lambda k: _dot(k.W.psip, k.F) - 0.5 * _dot(k.W.psip, k.u1f))
    rhs = _Once(lambda k: k.B + k.nonlinear)
    h1w = _Once(lambda k: _dot(k.W.sech, k.h1_sum))
    l2w = _Once(lambda k: _dot(k.W.sech, k.u2_sq))
    # H is its own quadrature of the summed integrand, not h1w + l2w
    H = _Once(lambda k: _dot(k.W.sech, k.h_sum))
    cross = _Once(lambda k: _dot(k.W.sech, k.u1u2))
    dH = _Once(lambda k: 2.0 * (1.0 + k.model.m) * k.cross + 2.0 * _dot(k.W.sech, k.fu2)
               - 2.0 * _dot(k.W.dsech, k.du1u2))
    sup = _Once(lambda k: float(np.max(np.abs(k.u1, out=k.buf("abs_u1")))))
    dw_norm_sq = _Once(lambda k: _dot(k.W.even, k.dw_sq))
    # numpy pow overflows to inf rather than raising, as near-blow-up states need
    sf_denom = _Once(lambda k: float(np.float64(k.sup) ** k.q) * k.dw_norm_sq)
    sf = _Once(lambda k: _dot(k.W.psip, k.abs_pow) / k.sf_denom if k.sf_denom != 0.0 else 0.0)
    # on the kernel of w itself: a route to B independent of the one via du1/dx
    bsharp = _Once(lambda k: _dot(k.W.even, k.du1_sq) - _dot(k.W.V, k.u1_sq))


def virial_I(state: State, cfg: VirialConfig) -> float:
    """I = integral (psi u1x + psi'/2 u1) u2; even integrand for odd data."""
    return _Kernel(state.u1, state.u2, lam=cfg.lam).I


def bilinear_B(u1: Field, cfg: VirialConfig) -> float:
    """B = integral psi' u1x^2 - 1/4 integral psi''' u1^2."""
    return _Kernel(u1, lam=cfg.lam).B


def to_w(u1: Field, cfg: VirialConfig) -> Field:
    """Auxiliary function w = zeta * u1, zeta = sech(x/lam); odd when u1 is."""
    return Field(u1.grid, _weights(u1.grid, cfg.lam).zeta * u1.values)


def bsharp(w: Field, cfg: VirialConfig) -> float:
    """Bsharp = integral (dw/dx)^2 - V w^2 with V = sech^2(x/lam)/(2 lam^2)."""
    return _Kernel(w, lam=cfg.lam).bsharp


def virial_rhs(state: State, model: Model, cfg: VirialConfig) -> float:
    """-dI/dt as predicted by the virial identity: B(u1) + nonlinear term."""
    return _Kernel(state.u1, model=model, lam=cfg.lam).rhs


def weighted_norms(state: State) -> tuple[float, float]:
    """(H1w_sq, L2w_sq): sech(x)-weighted H1 and L2 norms squared.

    The weight has unit scale, independent of the virial lam.
    """
    k = _Kernel(state.u1, state.u2)
    return k.h1w, k.l2w


def H_loc(state: State) -> float:
    """H = integral sech(x) [u1x^2 + u1^2 + u2^2]."""
    return _Kernel(state.u1, state.u2).H


def dH_analytic(state: State, model: Model) -> float:
    """Exact dH/dt: 2 int sech [(1+m)u1 + f(u1)] u2 - 2 int sech' u2 u1x."""
    return _Kernel(state.u1, state.u2, model).dH


def cross_term(state: State) -> float:
    """integral sech(x) u1 u2."""
    return _Kernel(state.u1, state.u2).cross


def sf_ratio(u1: Field, cfg: VirialConfig, q: float) -> float:
    """[int psi' |u1|^(2+q)] / [||u1||_inf^q * ||dw/dx||_L2^2], or 0 for u1 = 0.

    Scale invariant: both numerator and denominator are homogeneous of
    degree 2+q in u1.  Boundedness of this ratio along trajectories is
    the testable content of the weighted Sobolev bound behind the
    nonlinear error estimate.
    """
    if not q > 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    return _Kernel(u1, lam=cfg.lam, q=q).sf


@dataclass
class DiagnosticsRecord:
    """One time slice of every scalar functional; see CSV_COLUMNS for order.

    dI_dt_numeric is filled in a post-pass over a record sequence
    (centered differences over neighbouring records); it is NaN for a
    standalone record.  The last three fields are not CSV columns (NaN
    when read back from a CSV row): the staggered H1 x L2 norm squared,
    sup|u1| and ||dw/dx||^2 with w = zeta * u1, for the decay probe.
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
    sup_u1: float = field(default=math.nan, compare=False)
    dw_norm_sq: float = field(default=math.nan, compare=False)

    def csv_row(self) -> str:
        return ",".join(f"{getattr(self, c):.16e}" for c in CSV_COLUMNS)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def record_from_csv_row(row: str) -> DiagnosticsRecord:
    parts = row.strip().split(",")
    if len(parts) < len(CSV_COLUMNS):
        raise ValueError(f"CSV row has {len(parts)} fields, expected >= {len(CSV_COLUMNS)}")
    vals = {c: float(parts[i]) for i, c in enumerate(CSV_COLUMNS)}
    return DiagnosticsRecord(**vals)


def make_record(state: State, model: Model, cfg: VirialConfig,
                workspace: dict | None = None) -> DiagnosticsRecord:
    """Every diagnostic functional of one state, bit-identical to the standalone
    ones; `run` passes one `workspace` (see `_Kernel`) to all its records."""
    k = _Kernel(state.u1, state.u2, model, cfg.lam, model.p - 1.0, workspace)
    return DiagnosticsRecord(
        t=state.t, E=k.E, I=k.I, dI_dt_numeric=math.nan, dI_dt_rhs=-k.rhs, B_val=k.B,
        H=k.H, H1w_sq=k.h1w, L2w_sq=k.l2w, cross=k.cross, dH_dt_analytic=k.dH,
        sf_ratio=k.sf, energy_norm_sq=k.energy_norm_sq, sup_u1=k.sup,
        dw_norm_sq=k.dw_norm_sq,
    )


def _quadratic_slope(t1, t2, t3, f1, f2, f3, at) -> float:
    """Derivative at `at` of the parabola through (t1,f1), (t2,f2), (t3,f3)."""
    return float(
        f1 * (2.0 * at - t2 - t3) / ((t1 - t2) * (t1 - t3))
        + f2 * (2.0 * at - t1 - t3) / ((t2 - t1) * (t2 - t3))
        + f3 * (2.0 * at - t1 - t2) / ((t3 - t1) * (t3 - t2))
    )


def fill_dI_dt_numeric(records: list[DiagnosticsRecord]) -> None:
    """Fill dI_dt_numeric by differencing I over the record sequence.

    Each record takes the derivative of the local 3-point quadratic
    interpolant, which is the centered difference on equispaced interior
    records and stays second order at the ends and across the shorter
    final interval (the last record need not land on the regular record
    cadence).  With fewer than three records only a first-order slope is
    available.
    """
    n = len(records)
    if n == 0:
        return
    if n == 1:
        records[0].dI_dt_numeric = math.nan
        return
    t = [r.t for r in records]
    I = [r.I for r in records]
    if n == 2:
        slope = (I[1] - I[0]) / (t[1] - t[0])
        records[0].dI_dt_numeric = slope
        records[1].dI_dt_numeric = slope
        return
    for k in range(n):
        j = min(max(k - 1, 0), n - 3)  # leftmost index of the 3-point stencil
        records[k].dI_dt_numeric = _quadratic_slope(
            t[j], t[j + 1], t[j + 2], I[j], I[j + 1], I[j + 2], t[k]
        )
