"""Property tests of the two numerical cores.

Spectral: on random symmetric tridiagonals, the Sturm count, the count at
zero and the bisected lowest eigenvalues agree with scipy's tridiagonal
eigensolver.  Integrator: on random half-line grids and catalog models with
small odd data, `run` lands bit for bit on the state that repeated
`leapfrog_step` calls reach, and stepping back with -dt undoes n steps to
roundoff, as amplified by the linear instability of the zero state when
m > 0 (phi4).
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from oddkg.grid import Field, State, make_grid
from oddkg.integrator import RunSettings, cfl_dt, leapfrog_step, run
from oddkg.models import CATALOG_NAMES, make_model
from oddkg.spectral import (
    SchrodingerDiscretization, count_below, lowest_eigs, negative_count,
)
from oddkg.virial import VirialConfig, make_record

GRID = make_grid(1.0, 16)  # carried by the sector object, unused by the counts
ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

MODELS = [make_model(name) for name in CATALOG_NAMES if name != "custom-poly"]
# m < 0: with m > 0 this quintic blows small data up within the drawn horizons
MODELS.append(make_model("custom-poly", {"m": -0.5, "coeffs": (0.0, 0.0, 0.0, -0.5, 0.0, 0.25)}))


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(2, 60))
    diag = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    off = np.array(draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1)))
    return diag, off


def _sector(diag, off):
    return SchrodingerDiscretization(grid=GRID, V0=0.0, lam=1.0, parity="odd",
                                     diag=diag, offdiag=off)


def _roundoff(diag, off) -> float:
    """A margin well above the backward error of an LDL^T count."""
    return 1e-9 * (1.0 + float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off))))


@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals(), shift=st.floats(-40.0, 40.0))
def test_count_below_matches_scipy(tri, shift):
    diag, off = tri
    eigs = eigvalsh_tridiagonal(diag, off)
    assume(np.min(np.abs(eigs - shift)) > _roundoff(diag, off))
    assert count_below(_sector(diag, off), shift) == int(np.sum(eigs < shift))


@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals())
def test_negative_count_matches_scipy(tri):
    diag, off = tri
    eigs = eigvalsh_tridiagonal(diag, off)
    assume(np.min(np.abs(eigs)) > _roundoff(diag, off))
    assert negative_count(_sector(diag, off)) == int(np.sum(eigs < 0.0))


@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals(), k_frac=st.floats(0.0, 1.0))
def test_lowest_eigs_match_scipy(tri, k_frac):
    diag, off = tri
    eigs = eigvalsh_tridiagonal(diag, off)
    k = 1 + int(k_frac * (diag.size - 1))
    assert np.allclose(lowest_eigs(_sector(diag, off), k), eigs[:k],
                       rtol=0.0, atol=_roundoff(diag, off))


def _odd_state(N, L, seed, amplitude):
    grid = make_grid(L, N)
    rng = np.random.default_rng(seed)
    # half-line samples are odd data by representation
    bump = np.exp(-grid.x ** 2 / 8.0)
    return State(Field(grid, amplitude * bump * rng.standard_normal(N)),
                 Field(grid, amplitude * bump * rng.standard_normal(N)))


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(16, 200),
    L=st.floats(5.0, 40.0),
    model=st.sampled_from(MODELS),
    seed=st.integers(0, 2 ** 32 - 1),
    amplitude=st.floats(1e-3, 0.1),
    safety=st.floats(0.1, 0.9),
    n=st.integers(1, 60),
    every=st.integers(1, 70),
)
def test_run_is_repeated_leapfrog_and_reversible(N, L, model, seed, amplitude, safety,
                                                 n, every):
    st0 = _odd_state(N, L, seed, amplitude)
    dt = cfl_dt(st0.grid, model, safety)
    vcfg = VirialConfig(2.0)

    seen = []
    recs = run(st0, model, RunSettings(dt=dt, T=n * dt, record_every=every), vcfg,
               on_record=lambda state, rec: seen.append(state))
    walk = st0
    for _ in range(n):
        walk = leapfrog_step(walk, model, dt)
    last = seen[-1]
    assert last.t == n * dt == recs[-1].t
    assert np.array_equal(last.u1.values, walk.u1.values)
    assert np.array_equal(last.u2.values, walk.u2.values)
    walked = make_record(State(walk.u1, walk.u2, n * dt), model, vcfg)
    assert (recs[-1].E, recs[-1].I, recs[-1].H) == (walked.E, walked.I, walked.H)

    for _ in range(n):
        walk = leapfrog_step(walk, model, -dt)
    # roundoff grows at most like the zero state's linear rate sqrt(m), m > 0
    growth = math.exp(math.sqrt(max(model.m, 0.0)) * n * dt)
    scale = math.sqrt(float(np.sum(st0.u1.values ** 2) + np.sum(st0.u2.values ** 2)))
    diff = math.sqrt(float(np.sum((walk.u1.values - st0.u1.values) ** 2)
                           + np.sum((walk.u2.values - st0.u2.values) ** 2)))
    assert diff <= 1e-10 * growth * scale
