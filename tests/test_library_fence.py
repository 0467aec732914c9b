"""Every library object either gives finite results or raises ValueError.

`test_fence.py` reaches the library only through `validate_config`, which
refuses many inputs before any library object sees them.  This fence calls
the guarded objects directly with the same EXTREME values (plus a few of
its own), so that a rule missing from the object that needs it shows here:
a ZeroDivisionError, an OverflowError, a non-finite result or a hang.
Each @example is an input that once did one of these.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fence import EXTREME, TINY

from oddkg.exact import BreatherParams, breather_state
from oddkg.grid import State, make_fullline_grid, make_grid
from oddkg.integrator import RunSettings, cfl_dt, run
from oddkg.models import make_model
from oddkg.spectral import assemble, lowest_eigs, negative_count, pt_index
from oddkg.virial import VirialConfig, bilinear_B, bsharp, to_w, virial_I

GRID = make_grid(20.0, 99)
LK = make_model("linear-kg")
VC = VirialConfig(10.0)

FEW = settings(max_examples=40, deadline=None)


def _number(text: str):
    """`text` as an int where it is one, else as a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _refused(make, *args):
    """make(*args), or None when it raises ValueError (the clean refusal)."""
    try:
        return make(*args)
    except ValueError:
        return None


@FEW
@given(L=st.sampled_from(EXTREME["L"] + TINY["L"]), N=st.sampled_from(EXTREME["N"] + TINY["N"]),
       fullline=st.booleans(), beta=st.sampled_from(EXTREME["beta"]))
@example(L="inf", N="99", fullline=False, beta="0.5")  # dx = inf
@example(L="1e308", N="99", fullline=True, beta="0.5")  # 2L overflows: dx = inf
def test_grids_states_and_breathers_are_finite_or_refused(L, N, fullline, beta):
    grid = _refused(make_fullline_grid if fullline else make_grid, float(L), _number(N))
    if grid is None:
        return
    assert 0.0 < grid.dx < math.inf and 0.0 < 1.0 / grid.dx ** 2 < math.inf
    assert grid.x.shape == (grid.N,) and np.isfinite(grid.x).all()
    for shape in ((grid.N,), (grid.N - 1,), (grid.N, 1)):  # a State holds one value per node
        state = _refused(State, grid, np.zeros(shape), np.zeros(grid.N))
        assert (state is not None) == (shape == (grid.N,))
    params = _refused(BreatherParams, float(beta))
    if params is not None and fullline:
        assert math.isfinite(params.alpha) and math.isfinite(params.period)
        state = breather_state(params, 0.0, grid)
        assert np.isfinite(state.u1).all() and np.isfinite(state.u2).all()


@FEW
@given(dt=st.sampled_from(("0.1", "0.5", "1e-300", "1e300", "0", "-1", "inf", "nan")),
       T=st.sampled_from(EXTREME["T"] + TINY["T"]),
       every=st.sampled_from(EXTREME["record_every"] + ("nan",)))
@example(dt="0.1", T="1", every="nan")  # emitted records at t = 0 without a step, forever
@example(dt="0.1", T="1", every="2.5")  # records at steps 3, 5, 8, 10
@example(dt="1e-300", T="1e300", every="1")  # T/dt = inf: run raised OverflowError
def test_run_settings_record_whole_strides_or_are_refused(dt, T, every):
    rs = _refused(RunSettings, float(dt), float(T), _number(every))
    if rs is None or rs.T / rs.dt > 1000:  # too long to run here
        return
    seen = []  # the run stops at its 50th record
    grid = make_grid(20.0, 16)
    records = run(State(grid, np.zeros(grid.N), np.zeros(grid.N)), LK, rs, VC,
                  on_record=lambda state, rec: seen.append(rec) or len(seen) >= 50)
    steps = [round(rec.t / rs.dt) for rec in records]
    assert steps == sorted(set(steps)) and steps[0] == 0
    n_steps = round(rs.T / rs.dt)
    assert all(k % rs.record_every == 0 or k == n_steps for k in steps)
    assert len(records) == 50 or steps[-1] == n_steps


@FEW
@given(lam=st.sampled_from(EXTREME["lambda"] + ("1e-200", "1e-160", "1e150", "1e160")))
@example(lam="1e-200")  # accepted, after which bilinear_B raised ZeroDivisionError
def test_virial_scales_give_finite_functionals_or_are_refused(lam):
    vcfg = _refused(VirialConfig, float(lam))
    if vcfg is None:
        return
    u1 = GRID.x * np.exp(-GRID.x ** 2 / 4.0)
    values = (bilinear_B(u1, GRID, vcfg), bsharp(to_w(u1, GRID, vcfg), GRID, vcfg),
              virial_I(State(GRID, u1, u1), vcfg))
    assert all(map(math.isfinite, values)), values


#: "x" fails the config parser, before any model sees it
COEFFS = tuple(v for v in EXTREME["poly_coeffs"] if v != "x") + ("0,0,0,nan", "0,0,0,inf")


@FEW
@given(m=st.sampled_from(EXTREME["poly_m"] + ("inf",)), coeffs=st.sampled_from(COEFFS))
@example(m="nan", coeffs="0,0,0,1")  # accepted: f, F and dV were nan
def test_custom_poly_models_are_finite_or_refused(m, coeffs):
    params = {"m": float(m), "coeffs": [float(c) for c in coeffs.split(",") if c]}
    model = _refused(make_model, "custom-poly", params)
    if model is None:
        return
    assert all(map(math.isfinite, (model.m, model.p, model.linear_below)))
    u = np.linspace(-0.5, 0.5, 11)
    dV = model.dV(u, np.empty_like(u), np.empty_like(u))
    assert all(np.isfinite(v).all() for v in (model.f(u), model.F(u), dV))


@FEW
@given(dx=st.sampled_from(("0.01", "1e-300", "1e-160", "1e160", "1e300", "0", "-1", "nan",
                           "inf")),
       model=st.sampled_from(("sine-gordon", "phi4", "linear-kg")),
       safety=st.sampled_from(EXTREME["dt_safety"]))
@example(dx="1e-302", model="linear-kg", safety="0.4")  # dx^2 = 0
def test_cfl_steps_are_finite_or_refused(dx, model, safety):
    dt = _refused(cfl_dt, float(dx), make_model(model), float(safety))
    if dt is not None:
        assert 0.0 < dt < math.inf


@FEW
@given(V0=st.sampled_from(("0", "0.5", "2", "6", "1e300", "-1", "nan", "inf")),
       lam=st.sampled_from(EXTREME["lambda"] + ("1", "1e-5")),
       parity=st.sampled_from(("odd", "even")), N=st.sampled_from((16, 99, 399)),
       L=st.sampled_from(EXTREME["L"] + TINY["L"]))
@example(V0="2", lam="1e200", parity="odd", N=99, L="20")  # lam^2 raised OverflowError
@example(V0="2", lam="1e-200", parity="odd", N=99, L="20")  # lam^2 = 0: ZeroDivisionError
@example(V0="nan", lam="1", parity="odd", N=99, L="20")  # the bisection never returned
@example(V0="inf", lam="1", parity="odd", N=99, L="20")  # returned [-inf]
@example(V0="1e308", lam="1", parity="odd", N=99, L="20")  # the midpoint overflowed: [-inf]
@example(V0="1e300", lam="1e-5", parity="even", N=99, L="20")  # V0/lam^2 = inf: nan entries, a hang
@example(V0="2", lam="1", parity="odd", N=99, L="1e-300")  # 1/dx^2 = inf: ZeroDivisionError
def test_spectral_sectors_give_finite_eigenvalues_or_are_refused(V0, lam, parity, N, L):
    index = _refused(pt_index, float(V0))
    grid = _refused(make_grid, float(L), N)
    if grid is None:
        return
    sector = _refused(assemble, grid, float(V0), float(lam), parity)
    if sector is None:
        return
    assert index is not None  # pt_index and assemble share the rule on V0
    eigs = _refused(lowest_eigs, sector, 2)
    if eigs is not None:
        assert np.isfinite(eigs).all(), eigs
        assert 0 <= negative_count(sector) <= sector.size
