import math
import warnings

import numpy as np
import pytest

from oddkg.exact import linear_standing_wave
from oddkg.grid import Field, State, make_grid, zero_state
from oddkg.integrator import (
    BlowupError, RunSettings, StopRun, cfl_dt, leapfrog_step, run,
)
from oddkg.models import make_model
from oddkg.virial import VirialConfig

LK = make_model("linear-kg")
SG = make_model("sine-gordon")
VC = VirialConfig(10.0)


def test_cfl_formula():
    g = make_grid(80.0, 7999)  # dx = 0.01
    dt = cfl_dt(g, LK, 0.4)
    assert dt == pytest.approx(0.4 * 2.0 / math.sqrt(4.0 / 0.01 ** 2 + 1.0), rel=1e-14)
    assert dt == pytest.approx(0.004, rel=1e-4)


def test_cfl_rejects_bad_safety():
    g = make_grid(80.0, 7999)
    for s in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            cfl_dt(g, LK, s)


def test_cfl_coarse_grid_limit():
    # dx -> infinity: dt -> safety * 2 / sqrt(max(|m|, 1))
    g = make_grid(1e9, 16)
    assert cfl_dt(g, LK, 0.5) == pytest.approx(1.0, rel=1e-8)


def test_run_settings_validation():
    with pytest.raises(ValueError):
        RunSettings(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        RunSettings(dt=0.1, T=-1.0)
    with pytest.raises(ValueError):
        RunSettings(dt=0.1, T=1.0, record_every=0)


def test_zero_state_is_fixed_point():
    g = make_grid(20.0, 199)
    st = zero_state(g)
    for model in (LK, SG, make_model("phi4")):
        out = leapfrog_step(st, model, 0.05)
        assert np.all(out.u1.values == 0.0)
        assert np.all(out.u2.values == 0.0)


def test_leapfrog_standing_wave_order():
    # one period of the linear standing wave: the state error is O(dt^2 + dx^2).
    # (the u1 part alone degenerates to 4th order at exact periods, where the
    # cos phase is flat; the pair (u1, u2) carries the honest first-order-in-
    # phase signal)
    errs = []
    for N, dtfac in ((1999, 1.0), (3999, 0.5)):
        g = make_grid(40.0, N)
        k = 25 * math.pi / g.L
        w = math.sqrt(k * k + 1.0)
        period = 2.0 * math.pi / w
        dt0 = 0.004 * dtfac
        n = int(round(period / dt0))
        dt = period / n  # land exactly on t = period
        st = linear_standing_wave(25, g, 0.0)
        for _ in range(n):
            st = leapfrog_step(st, LK, dt)
        exact = linear_standing_wave(25, g, period)
        err = math.sqrt(g.dx * float(
            np.sum((st.u1.values - exact.u1.values) ** 2)
            + np.sum((st.u2.values - exact.u2.values) ** 2)
        ))
        errs.append(err)
    assert 3.0 <= errs[0] / errs[1] <= 5.5


def test_time_reversibility():
    g = make_grid(40.0, 1999)
    st0 = State(Field(g, 0.1 * g.x * np.exp(-g.x ** 2 / 4.0)),
                Field(g, 0.05 * g.x * np.exp(-g.x ** 2 / 6.0)))
    st = st0.copy()
    n, dt = 500, 0.008
    for _ in range(n):
        st = leapfrog_step(st, SG, dt)
    for _ in range(n):
        st = leapfrog_step(st, SG, -dt)
    scale = math.sqrt(float(np.sum(st0.u1.values ** 2) + np.sum(st0.u2.values ** 2)))
    diff = math.sqrt(float(np.sum((st.u1.values - st0.u1.values) ** 2)
                           + np.sum((st.u2.values - st0.u2.values) ** 2)))
    assert diff / scale < 1e-10


def test_run_T_zero_single_record():
    g = make_grid(20.0, 199)
    st = zero_state(g)
    recs = run(st, LK, RunSettings(dt=0.01, T=0.0), VC)
    assert len(recs) == 1
    assert recs[0].t == 0.0


def test_run_records_strictly_increasing_and_final_step():
    g = make_grid(20.0, 199)
    st = State(Field(g, 0.01 * g.x * np.exp(-g.x ** 2)), Field(g, np.zeros(g.N)))
    recs = run(st, LK, RunSettings(dt=0.01, T=1.03, record_every=10), VC)
    t = [r.t for r in recs]
    assert t[0] == 0.0
    assert all(b > a for a, b in zip(t, t[1:]))
    # 103 steps: the final step is off the regular cadence, still recorded
    assert t[-1] == pytest.approx(1.03, abs=1e-12)
    assert len(recs) == 12


def test_run_matches_repeated_leapfrog_steps():
    g = make_grid(20.0, 399)
    st = State(Field(g, 0.05 * g.x * np.exp(-g.x ** 2)), Field(g, np.zeros(g.N)))
    settings = RunSettings(dt=0.01, T=0.25, record_every=5)
    recs = run(st, SG, settings, VC)
    walk = st.copy()
    for _ in range(25):
        walk = leapfrog_step(walk, SG, 0.01)
    from oddkg.virial import make_record
    final = make_record(State(walk.u1, walk.u2, 0.25), SG, VC)
    assert recs[-1].E == final.E
    assert recs[-1].I == final.I
    assert recs[-1].H == final.H


def test_energy_conservation_linear_small_data():
    g = make_grid(40.0, 3999)
    st = State(Field(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)), Field(g, np.zeros(g.N)))
    recs = run(st, LK, RunSettings(dt=0.004, T=20.0, record_every=50), VC)
    E = np.array([r.E for r in recs])
    assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-5


def test_long_linear_run_stays_bounded():
    # 1e5 steps at the CFL bound: no blow-up, bounded energy wobble
    g = make_grid(40.0, 3999)
    dt = cfl_dt(g, LK, 0.4)
    st = State(Field(g, 0.1 * g.x * np.exp(-g.x ** 2 / 4.0)), Field(g, np.zeros(g.N)))
    recs = run(st, LK, RunSettings(dt=dt, T=1e5 * dt, record_every=5000), VC)
    E = np.array([r.E for r in recs])
    assert np.all(np.isfinite(E))
    assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort_carries_records():
    # far beyond the stability bound: the unstable modes grow from round-off
    # at ~400x per step and overflow well within 300 steps; the run must
    # abort with the step index, not return junk
    g = make_grid(20.0, 199)
    st = State(Field(g, 0.1 * g.x * np.exp(-g.x ** 2)), Field(g, np.zeros(g.N)))
    with pytest.raises(BlowupError) as exc:
        run(st, LK, RunSettings(dt=1.0, T=300.0, record_every=1), VC)
    assert exc.value.step > 0
    assert len(exc.value.records) >= 1
    assert exc.value.records[0].t == 0.0


def test_blowup_is_reported_at_the_first_non_finite_step():
    # f = +u^3 with large data overflows within a few dozen steps, long before
    # the only record step after t=0; the run stops at the very step whose
    # arithmetic overflows, as a BlowupError and without a RuntimeWarning
    g = make_grid(40.0, 999)
    nl = make_model("cubic-nlkg")
    dt = cfl_dt(g, nl, 0.4)
    st = State(Field(g, 5.0 * g.x * np.exp(-g.x ** 2 / 4.0)), Field(g, np.zeros(g.N)))
    walk, first = st, None
    with np.errstate(all="ignore"):
        for step in range(1, 1001):
            walk = leapfrog_step(walk, nl, dt)
            if not (np.isfinite(walk.u1.values).all() and np.isfinite(walk.u2.values).all()):
                first = step
                break
    assert first is not None and first > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError) as exc:
            run(st, nl, RunSettings(dt=dt, T=1000 * dt, record_every=100000), VC)
    assert exc.value.step == first
    assert exc.value.t == first * dt
    assert [r.t for r in exc.value.records] == [0.0]


def test_on_record_stop_run():
    g = make_grid(20.0, 199)
    st = State(Field(g, 0.01 * g.x * np.exp(-g.x ** 2)), Field(g, np.zeros(g.N)))
    seen = []

    def probe(state, rec):
        seen.append(rec.t)
        if rec.t >= 0.1:
            raise StopRun()

    recs = run(st, LK, RunSettings(dt=0.01, T=1.0, record_every=5), VC, on_record=probe)
    assert recs[-1].t == pytest.approx(0.1)
    assert len(seen) == len(recs)


def test_phi4_small_data_runs_without_nan_to_T200():
    # the phi4 zero state is linearly unstable; amplitudes saturate near
    # sqrt(2) and the run must stay finite all the way out
    g = make_grid(40.0, 1999)  # dx = 0.02 keeps this test quick
    p4 = make_model("phi4")
    dt = cfl_dt(g, p4, 0.4)
    st = State(Field(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)), Field(g, np.zeros(g.N)))
    recs = run(st, p4, RunSettings(dt=dt, T=200.0, record_every=500), VC)
    assert all(math.isfinite(r.E) and math.isfinite(r.H) for r in recs)
    assert recs[-1].t == pytest.approx(200.0, abs=2 * dt)


def test_energy_drift_halves_fourfold_with_dt():
    g = make_grid(40.0, 3999)
    st = State(Field(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)), Field(g, np.zeros(g.N)))
    drifts = []
    for dt in (0.004, 0.002):
        recs = run(st, SG, RunSettings(dt=dt, T=20.0, record_every=250), VC)
        E = np.array([r.E for r in recs])
        drifts.append(np.max(np.abs(E - E[0])) / abs(E[0]))
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


def test_dH_analytic_matches_H_differences():
    # centered differences of H over records vs the closed-form dH/dt:
    # residual is O(dt^2 + dx^2) relative to the dH scale and refines ~4x
    def resid(N, dt):
        g = make_grid(40.0, N)
        st = State(Field(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)),
                   Field(g, np.zeros(g.N)))
        recs = run(st, SG, RunSettings(dt=dt, T=10.0, record_every=25), VC)
        t = np.array([r.t for r in recs])
        H = np.array([r.H for r in recs])
        dH = np.array([r.dH_dt_analytic for r in recs])
        num = (H[2:] - H[:-2]) / (t[2:] - t[:-2])
        scale = np.max(np.abs(dH))
        return float(np.max(np.abs(num - dH[1:-1])) / scale)

    coarse = resid(3999, 0.004)
    fine = resid(7999, 0.002)
    assert coarse < 1e-2
    assert 3.0 <= coarse / fine <= 5.0


def test_dH_bound_constant_stable_under_refinement():
    # |dH/dt| <= C (H1w^2 + L2w^2) along trajectories, with C converged
    def max_ratio(N, dt):
        g = make_grid(40.0, N)
        st = State(Field(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)),
                   Field(g, np.zeros(g.N)))
        recs = run(st, SG, RunSettings(dt=dt, T=20.0, record_every=25), VC)
        return max(abs(r.dH_dt_analytic) / (r.H1w_sq + r.L2w_sq)
                   for r in recs if r.H1w_sq + r.L2w_sq > 0)

    c1 = max_ratio(3999, 0.004)
    c2 = max_ratio(7999, 0.002)
    assert math.isfinite(c1) and c1 > 0
    assert abs(c2 - c1) <= 0.05 * c1
