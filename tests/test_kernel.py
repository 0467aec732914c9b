"""The diagnostics kernel's contract: one record from reused buffers equals a
fresh record and every standalone functional bit for bit, on random odd
fields (half-line) and even fields (full line), for every catalog model.
A buffer that kept a previous state's values shows up as a mismatch."""

import gc
import math
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oddkg import virial
from oddkg.grid import (
    Field, State, derivative, h1_l2_norm_sq, integrate_fullline, make_fullline_grid, make_grid,
)
from oddkg.models import CATALOG_NAMES, energy, make_model
from oddkg.virial import (
    CSV_COLUMNS, VirialConfig, H_loc, bilinear_B, bsharp, cross_term, dH_analytic,
    make_record, sf_ratio, to_w, virial_I, virial_rhs, weighted_norms,
)

EXTRA_FIELDS = ("energy_norm_sq", "sup_u1", "dw_norm_sq")


@st.composite
def models(draw):
    name = draw(st.sampled_from(CATALOG_NAMES))
    if name != "custom-poly":
        return make_model(name)
    # odd coefficients from degree 3 up; c3 = 0 gives p = 5 and exercises
    # the general |u|^(2+q) branch
    c3, c5 = draw(st.sampled_from([(1.0, 0.0), (0.0, 2.0), (-0.5, 0.25)]))
    m = draw(st.sampled_from([-1.0, 0.5]))
    return make_model("custom-poly", {"m": m, "coeffs": (0.0, 0.0, 0.0, c3, 0.0, c5)})


def _field_values(grid, seed, amplitude):
    v = amplitude * np.random.default_rng(seed).standard_normal(grid.N)
    return 0.5 * (v + v[::-1]) if grid.fullline else v  # even on the full line


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=60, deadline=None)
@given(
    fullline=st.booleans(),
    N=st.integers(16, 300),
    L=st.floats(5.0, 60.0),
    lam=st.floats(0.5, 20.0),
    model=models(),
    seeds=st.tuples(*[st.integers(0, 2 ** 32 - 1)] * 4),
    amplitude=st.floats(1e-3, 1.5),
    t=st.floats(0.0, 100.0),
)
def test_record_from_reused_workspace_matches_fresh_and_standalone(
        fullline, N, L, lam, model, seeds, amplitude, t):
    grid = (make_fullline_grid if fullline else make_grid)(L, N)
    cfg = VirialConfig(lam)
    u1, u2, v1, v2 = (Field(grid, _field_values(grid, s, amplitude)) for s in seeds)
    state = State(u1, u2, t)

    workspace = {}
    make_record(State(v1, v2), model, cfg, workspace)  # leave another state's products behind
    rec = make_record(state, model, cfg, workspace)
    fresh = make_record(state, model, cfg)
    for name in CSV_COLUMNS + EXTRA_FIELDS:
        assert _same(getattr(rec, name), getattr(fresh, name)), name

    q = model.p - 1.0
    assert rec.t == t
    assert rec.I == virial_I(state, cfg)
    assert rec.B_val == bilinear_B(u1, cfg)
    assert rec.dI_dt_rhs == -virial_rhs(state, model, cfg)
    assert rec.H == H_loc(state)
    assert (rec.H1w_sq, rec.L2w_sq) == weighted_norms(state)
    assert rec.cross == cross_term(state)
    assert rec.dH_dt_analytic == dH_analytic(state, model)
    assert rec.sf_ratio == sf_ratio(u1, cfg, q=q)
    assert rec.energy_norm_sq == h1_l2_norm_sq(u1, u2)
    assert rec.sup_u1 == float(np.max(np.abs(u1.values)))
    assert math.isnan(rec.dI_dt_numeric)

    # the remaining values against independent quadratures, to roundoff
    E = energy(state, model, grid)
    scale = rec.energy_norm_sq + integrate_fullline(np.abs(model.F(u1.values)), grid)
    assert abs(rec.E - E) <= 1e-12 * scale
    dw = derivative(to_w(u1, cfg)).values
    dw_sq = integrate_fullline(dw * dw, grid, origin="even")
    assert abs(rec.dw_norm_sq - dw_sq) <= 1e-12 * dw_sq
    V_w_sq = dw_sq - bsharp(to_w(u1, cfg), cfg)  # integral V w^2 >= 0
    assert V_w_sq >= -1e-12 * dw_sq


def test_weight_tables_live_as_long_as_their_grid():
    grid = make_grid(10.0, 99)
    u1 = Field(grid, grid.x * np.exp(-grid.x ** 2))
    bilinear_B(u1, VirialConfig(2.0))
    table = virial._weights(grid, 2.0)
    assert virial._weights(grid, 2.0) is table  # cached while the grid lives
    ref = weakref.ref(table)
    del grid, u1, table
    gc.collect()
    assert ref() is None
