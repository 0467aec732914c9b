"""The diagnostics kernel's contract: a record equals every standalone
functional bit for bit, on random odd fields (half-line) and even fields
(full line), for every catalog model.  All of them write into the grid's one
set of buffers, and each is evaluated after another state's record: a buffer
that kept a previous state's values shows up as a mismatch.  The record values
that have no standalone functional are compared with a record on a fresh grid."""

import gc
import math
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import even_origin_integral

from oddkg import virial
from oddkg.experiments import Lcg, random_odd_field
from oddkg.grid import (
    State, derivative, gradient_sq_integral, integrate_fullline, make_fullline_grid, make_grid,
)
from oddkg.models import CATALOG_NAMES, make_model
from oddkg.spectral import coercivity_certificate, index_check
from oddkg.virial import (
    VirialConfig, H_loc, bilinear_B, bsharp, energy, energy_norm_sq, make_record, to_w,
    virial_I, weighted_norms,
)


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
def test_record_after_another_state_matches_standalone(
        fullline, N, L, lam, model, seeds, amplitude, t):
    make = make_fullline_grid if fullline else make_grid
    grid = make(L, N)
    cfg = VirialConfig(lam)
    u1, u2, v1, v2 = (_field_values(grid, s, amplitude) for s in seeds)
    state, other = State(grid, u1, u2, t), State(grid, v1, v2)

    def after_other(functional, *args, **kwargs):
        make_record(other, model, cfg)  # leave another state's products in the buffers
        return functional(*args, **kwargs)

    rec = after_other(make_record, state, model, cfg)
    q = model.p - 1.0
    assert rec.t == t
    assert rec.E == after_other(energy, state, model)
    assert rec.I == after_other(virial_I, state, cfg)
    assert rec.B_val == after_other(bilinear_B, u1, grid, cfg)
    assert rec.dI_dt_rhs == -(rec.B_val + rec.nonlinear)
    assert rec.H == after_other(H_loc, state)
    assert (rec.H1w_sq, rec.L2w_sq) == after_other(weighted_norms, state)
    assert rec.energy_norm_sq == after_other(energy_norm_sq, state)
    assert math.isnan(rec.dI_dt_numeric)
    fresh = make_record(State(make(L, N), u1, u2, t), model, cfg)  # buffers no state has used
    assert ((rec.cross, rec.dH_dt_analytic, rec.sf_ratio)
            == (fresh.cross, fresh.dH_dt_analytic, fresh.sf_ratio))

    # the staggered norm sum, written out: the same operations in the same order
    u1_sq, u2_sq = u1 * u1, u2 * u2
    norm_sq = (gradient_sq_integral(u1, grid) + integrate_fullline(u1_sq, grid)
               + integrate_fullline(u2_sq, grid))
    assert rec.energy_norm_sq == norm_sq

    # the remaining values against independent quadratures, to roundoff; S, the
    # size of the energy's terms, bounds |E| and is E itself for linear-kg
    S = 0.5 * gradient_sq_integral(u1, grid) + integrate_fullline(
        0.5 * u2_sq + 0.5 * abs(model.m) * u1_sq + np.abs(model.F(u1)), grid)
    assert abs(rec.energy_scale - S) <= 1e-14 * S
    assert rec.energy_scale >= abs(rec.E) - 1e-14 * S
    if model.name == "linear-kg":
        assert rec.energy_scale == rec.E
    E = 0.5 * gradient_sq_integral(u1, grid) + integrate_fullline(
        0.5 * u2_sq - 0.5 * model.m * u1_sq - model.F(u1), grid)
    assert abs(rec.E - E) <= 1e-12 * S
    dw = derivative(to_w(u1, grid, cfg), grid)
    dw_sq = even_origin_integral(dw * dw, grid)
    sf_denom = float(np.max(np.abs(u1))) ** q * dw_sq
    assert abs(rec.sf_denom - sf_denom) <= 1e-12 * sf_denom
    V_w_sq = dw_sq - bsharp(to_w(u1, grid, cfg), grid, cfg)  # integral V w^2 >= 0
    assert V_w_sq >= -1e-12 * dw_sq


def _weigh(grid):
    bilinear_B(grid.x * np.exp(-grid.x ** 2), grid, VirialConfig(2.0))
    assert virial._weights(grid, 2.0) is virial._weights(grid, 2.0)  # kept while the grid lives


def _localize(grid):
    H_loc(State(grid, grid.x * np.exp(-grid.x ** 2), np.zeros(grid.N)))


def _draw_odd_field(grid):
    random_odd_field(grid, Lcg(1))


def _certify(grid):
    index_check(grid, 2.0, 1.0)
    coercivity_certificate(1.0, grid, "odd")


def test_weight_tables_live_as_long_as_their_grid():
    # weights, kernel buffers, odd-mode rows and Sturm counts; a table that
    # referred back to its grid would make a cycle that only the cycle
    # collector frees
    for derive, kind in ((_weigh, "weights"), (_localize, "workspace"),
                         (_draw_odd_field, "odd_modes"), (_certify, "sturm_counts")):
        grid = make_grid(40.0, 399)
        derive(grid)
        assert kind in {key[0] for key in grid.tables}
        ref = weakref.ref(grid)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del grid
            assert ref() is None, kind
        finally:
            if enabled:
                gc.enable()


def test_unit_scale_functionals_build_no_lam_table():
    # H and the weighted norms use only the lam-free rows
    grid = make_grid(40.0, 399)
    state = State(grid, grid.x * np.exp(-grid.x ** 2), np.cos(grid.x))
    H_loc(state)
    weighted_norms(state)
    assert not [key for key in grid.tables if key[0] == "weights"]
