import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import linear_standing_wave

from oddkg.experiments import ExperimentConfig, make_initial_data, parse_config, validate_config
from oddkg.grid import State, gradient_sq_integral, integrate_fullline, make_grid
from oddkg.integrator import (
    PREFIX_SCAN_EVERY, BlowupError, RunSettings, _acceleration, _half_kick, _kick_drift_kick,
    _live_prefix, cfl_dt, leapfrog_step, run,
)
from oddkg.models import CATALOG_NAMES, make_model
from oddkg.virial import (
    H_loc, VirialConfig, bilinear_B, energy_norm_sq, fill_dI_dt_numeric, make_record, virial_I,
    virial_I_abs, weighted_norms,
)

ROOT = Path(__file__).resolve().parents[1]
LK = make_model("linear-kg")
SG = make_model("sine-gordon")
VC = VirialConfig(10.0)


def test_cfl_formula():
    g = make_grid(80.0, 7999)  # dx = 0.01
    dt = cfl_dt(g.dx, LK, 0.4)
    assert dt == pytest.approx(0.4 * 2.0 / math.sqrt(4.0 / 0.01 ** 2 + 1.0), rel=1e-14)
    assert dt == pytest.approx(0.004, rel=1e-4)


def test_cfl_rejects_bad_safety():
    g = make_grid(80.0, 7999)
    for s in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            cfl_dt(g.dx, LK, s)


def test_cfl_coarse_grid_limit():
    # dx -> infinity: dt -> safety * 2 / sqrt(max(|m|, 1))
    g = make_grid(1e9, 16)
    assert cfl_dt(g.dx, LK, 0.5) == pytest.approx(1.0, rel=1e-8)


def test_run_settings_validation():
    # a non-finite T or dt would take no step, overflow the step count, or
    # blow up at step 0; each is refused when the settings are made
    for dt, T in ((0.0, 1.0), (0.1, -1.0), (math.inf, 1.0), (math.nan, 1.0),
                  (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ValueError):
            RunSettings(dt=dt, T=T, record_every=25)
    with pytest.raises(ValueError):
        RunSettings(dt=0.1, T=1.0, record_every=0)


def test_zero_state_is_fixed_point():
    g = make_grid(20.0, 199)
    st = State(g, np.zeros(g.N), np.zeros(g.N))
    for model in (LK, SG, make_model("phi4")):
        out = leapfrog_step(st, model, 0.05)
        assert np.all(out.u1 == 0.0)
        assert np.all(out.u2 == 0.0)


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
            np.sum((st.u1 - exact.u1) ** 2)
            + np.sum((st.u2 - exact.u2) ** 2)
        ))
        errs.append(err)
    assert 3.0 <= errs[0] / errs[1] <= 5.5


def test_time_reversibility():
    g = make_grid(40.0, 1999)
    st0 = State(g, 0.1 * g.x * np.exp(-g.x ** 2 / 4.0), 0.05 * g.x * np.exp(-g.x ** 2 / 6.0))
    st = st0.copy()
    n, dt = 500, 0.008
    for _ in range(n):
        st = leapfrog_step(st, SG, dt)
    for _ in range(n):
        st = leapfrog_step(st, SG, -dt)
    scale = math.sqrt(float(np.sum(st0.u1 ** 2) + np.sum(st0.u2 ** 2)))
    diff = math.sqrt(float(np.sum((st.u1 - st0.u1) ** 2)
                           + np.sum((st.u2 - st0.u2) ** 2)))
    assert diff / scale < 1e-10


def test_run_T_zero_single_record():
    g = make_grid(20.0, 199)
    st = State(g, np.zeros(g.N), np.zeros(g.N))
    recs = run(st, LK, RunSettings(dt=0.01, T=0.0, record_every=25), VC)
    assert len(recs) == 1
    assert recs[0].t == 0.0


def test_run_records_strictly_increasing_and_final_step():
    g = make_grid(20.0, 199)
    st = State(g, 0.01 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    recs = run(st, LK, RunSettings(dt=0.01, T=1.03, record_every=10), VC)
    t = [r.t for r in recs]
    assert t[0] == 0.0
    assert all(b > a for a, b in zip(t, t[1:]))
    # 103 steps: the final step is off the regular cadence, still recorded
    assert t[-1] == pytest.approx(1.03, abs=1e-12)
    assert len(recs) == 12


def test_run_reports_its_counts_on_the_shipped_decay():
    # the shipped decay at T = 20 (5,000 steps, a record every 25): its Gaussian
    # tail is +0 past x = 54.6 at t = 0, so the steps run on part of the grid,
    # and V' is evaluated on a window within that part
    cfg = parse_config((ROOT / "configs" / "decay_sine_gordon.cfg").read_text() + "T=20\n")
    sim = validate_config(cfg)
    stats = {}
    records = run(make_initial_data(cfg, sim.grid()), sim.model, sim.settings, sim.vcfg,
                  stats=stats)
    steps = round(20.0 / sim.settings.dt)
    assert stats["steps"] == steps == 5000
    assert stats["records"] == len(records) == steps // 25 + 1
    assert stats["prefix_scans"] == -(-steps // PREFIX_SCAN_EVERY)
    assert 1 <= stats["window_rescans"] <= steps + 1
    assert 0 < stats["window_mean_width"] <= stats["prefix_mean_width"] < sim.N


def test_run_matches_repeated_leapfrog_steps():
    g = make_grid(20.0, 399)
    st = State(g, 0.05 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    settings = RunSettings(dt=0.01, T=0.25, record_every=5)
    recs = run(st, SG, settings, VC)
    walk = st.copy()
    for _ in range(25):
        walk = leapfrog_step(walk, SG, 0.01)
    final = make_record(State(g, walk.u1, walk.u2, 0.25), SG, VC)
    assert recs[-1].E == final.E
    assert recs[-1].I == final.I
    assert recs[-1].H == final.H


def test_window_on_a_short_grid_is_narrower_than_the_prefix_and_changes_no_bit():
    # the decay data on a grid of 599 nodes: V' runs on a window inside the live
    # prefix, and every record, dI_dt_numeric included, is that of repeated
    # leapfrog_step bit for bit
    cfg = ExperimentConfig(scenario="decay", L=30.0, N=599, T=5.0)
    sim = validate_config(cfg)
    initial = make_initial_data(cfg, sim.grid())
    stats = {}
    recs = run(initial, sim.model, sim.settings, sim.vcfg, stats=stats)
    assert stats["window_mean_width"] < stats["prefix_mean_width"]
    dt, every = sim.settings.dt, sim.settings.record_every
    walk, walked = initial, []
    for k in range(stats["steps"] + 1):
        if k:
            walk = leapfrog_step(walk, sim.model, dt)
        if k % every == 0 or k == stats["steps"]:
            walked.append(make_record(State(walk.grid, walk.u1, walk.u2, k * dt),
                                      sim.model, sim.vcfg))
    fill_dI_dt_numeric(walked)
    assert len(recs) == len(walked)
    for rec, ref in zip(recs, walked):
        assert np.array_equal(np.array(list(vars(rec).values())).view(np.int64),
                              np.array(list(vars(ref).values())).view(np.int64))


def test_energy_conservation_linear_small_data():
    g = make_grid(40.0, 3999)
    st = State(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
    recs = run(st, LK, RunSettings(dt=0.004, T=20.0, record_every=50), VC)
    E = np.array([r.E for r in recs])
    assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-5


def test_long_linear_run_stays_bounded():
    # 1e5 steps at the CFL bound: no blow-up, bounded energy wobble
    g = make_grid(40.0, 3999)
    dt = cfl_dt(g.dx, LK, 0.4)
    st = State(g, 0.1 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
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
    st = State(g, 0.1 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    with pytest.raises(BlowupError) as exc:
        run(st, LK, RunSettings(dt=1.0, T=300.0, record_every=1), VC)
    assert exc.value.step > 0
    assert len(exc.value.records) >= 1
    assert exc.value.records[0].t == 0.0


def _first_non_finite_step_is_reported(model, st, dt):
    """Walk leapfrog_step to the first non-finite state, check that `run`
    raises there without a RuntimeWarning, and return that step and state."""
    walk, first = st, None
    with np.errstate(all="ignore"):
        for step in range(1, 1001):
            walk = leapfrog_step(walk, model, dt)
            if not (np.isfinite(walk.u1).all() and np.isfinite(walk.u2).all()):
                first = step
                break
    assert first is not None and first > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError) as exc:
            run(st, model, RunSettings(dt=dt, T=1000 * dt, record_every=100000), VC)
    assert exc.value.step == first
    assert exc.value.t == first * dt
    assert [r.t for r in exc.value.records] == [0.0]
    return first, walk


def test_blowup_is_reported_at_the_first_non_finite_step():
    # f = +u^3 with large data overflows within a few dozen steps, long before
    # the only record step after t=0; the run stops at the very step whose
    # arithmetic overflows, as a BlowupError and without a RuntimeWarning
    g = make_grid(40.0, 999)
    nl = make_model("cubic-nlkg")
    st = State(g, 5.0 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
    _first_non_finite_step_is_reported(nl, st, cfl_dt(g.dx, nl, 0.4))
    # sine-Gordon at dt = 0.1, beyond the stability bound: a grid-scale ripple
    # of 1e-10 in the far field grows ~25x per step and overflows there first,
    # at step 232; below linear_below, the far field starts outside the window
    # of nonlinear nodes and joins it only by rescans (dx stays 0.04)
    g = make_grid(80.0, 1999)
    ripple = np.where(g.x > 30.0, 1e-10 * (-1.0) ** np.arange(g.N), 0.0)
    st = State(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0) + ripple, np.zeros(g.N))
    first, walk = _first_non_finite_step_is_reported(SG, st, 0.1)
    assert first == 232
    far = ~(np.isfinite(walk.u1) & np.isfinite(walk.u2))
    assert far.any() and np.all(np.abs(st.u1[far]) < SG.linear_below)


def test_a_record_that_overflows_is_a_blowup_at_its_step():
    # the state stays finite, but F(u) = 0 * u^4 of linear-kg turns inf * 0 into
    # nan at this amplitude: the run keeps that record, hands it to on_record
    # and stops at its step, without a RuntimeWarning
    g = make_grid(20.0, 199)
    st = State(g, 1e100 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError) as exc:
            run(st, LK, RunSettings(dt=cfl_dt(g.dx, LK, 0.4), T=1.0, record_every=1), VC,
                on_record=lambda state, rec: seen.append(rec))
    assert exc.value.step == 0 and exc.value.t == 0.0
    assert exc.value.records == seen and len(seen) == 1
    assert math.isnan(seen[0].E) and math.isfinite(seen[0].H)


def test_on_record_stop_run():
    g = make_grid(20.0, 199)
    st = State(g, 0.01 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    seen = []

    def probe(state, rec):
        seen.append(rec.t)
        return rec.t >= 0.1

    recs = run(st, LK, RunSettings(dt=0.01, T=1.0, record_every=5), VC, on_record=probe)
    assert recs[-1].t == pytest.approx(0.1)
    assert len(seen) == len(recs)


def test_on_record_stop_at_t0_keeps_one_record():
    g = make_grid(20.0, 199)
    st = State(g, 0.01 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    seen = []

    def probe(state, rec):
        seen.append(rec)
        return True

    recs = run(st, LK, RunSettings(dt=0.01, T=1.0, record_every=5), VC, on_record=probe)
    assert recs == seen and [r.t for r in recs] == [0.0]


def test_on_record_stop_precedes_the_record_finite_check():
    # the record of test_a_record_that_overflows_is_a_blowup_at_its_step: an
    # observer that stops on it ends the run with it, as a stop, not a blow-up
    g = make_grid(20.0, 199)
    st = State(g, 1e100 * g.x * np.exp(-g.x ** 2), np.zeros(g.N))
    recs = run(st, LK, RunSettings(dt=cfl_dt(g.dx, LK, 0.4), T=1.0, record_every=1), VC,
               on_record=lambda state, rec: True)
    assert len(recs) == 1 and recs[0].t == 0.0 and math.isnan(recs[0].E)


@pytest.mark.parametrize("u1_bad, u2_bad", [(math.nan, 0.0), (0.0, math.inf)])
def test_non_finite_initial_state_is_a_blowup_at_step_0(u1_bad, u2_bad):
    g = make_grid(20.0, 199)
    u1 = 0.01 * g.x * np.exp(-g.x ** 2)
    u2 = np.zeros(g.N)
    u1[50] += u1_bad
    u2[50] += u2_bad
    seen = []
    with pytest.raises(BlowupError) as exc:
        run(State(g, u1, u2), LK, RunSettings(dt=0.01, T=1.0, record_every=5), VC,
            on_record=lambda state, rec: seen.append(rec))
    assert exc.value.step == 0 and exc.value.t == 0.0
    assert exc.value.records == [] and seen == []


def test_phi4_small_data_runs_without_nan_to_T200():
    # the phi4 zero state is linearly unstable; amplitudes saturate near
    # sqrt(2) and the run must stay finite all the way out
    g = make_grid(40.0, 1999)  # dx = 0.02 keeps this test quick
    p4 = make_model("phi4")
    dt = cfl_dt(g.dx, p4, 0.4)
    st = State(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
    recs = run(st, p4, RunSettings(dt=dt, T=200.0, record_every=500), VC)
    assert all(math.isfinite(r.E) and math.isfinite(r.H) for r in recs)
    assert recs[-1].t == pytest.approx(200.0, abs=2 * dt)


def test_energy_drift_halves_fourfold_with_dt():
    g = make_grid(40.0, 3999)
    st = State(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
    drifts = []
    for dt in (0.004, 0.002):
        recs = run(st, SG, RunSettings(dt=dt, T=20.0, record_every=250), VC)
        E = np.array([r.E for r in recs])
        drifts.append(np.max(np.abs(E - E[0])) / abs(E[0]))
    assert 3.0 <= drifts[0] / drifts[1] <= 5.0


#: V''(u) of the models whose modified energy is fenced, written here, not taken from src
D2V = {"linear-kg": np.ones_like, "sine-gordon": np.cos,
       "phi6": lambda u: 1.0 - 12.0 * u ** 2 + 15.0 * u ** 4}


def _energy_drifts(name, dt_halvings, T, record_every):
    """Per dt = cfl_dt(0.4) / 2^h, the drifts of E, of E - (dt^2/8) int a^2 and of
    H~ = E - (dt^2/24) int a^2 + (dt^2/12) [int (du2/dx)^2 + int V''(u1) u2^2], each
    max |value - value at t=0| against the run's largest energy_scale.  a = D2 u1 - V'(u1)
    is `_acceleration` on the whole grid; the data is the decay scenario's at eps = 0.05."""
    model, g = make_model(name), make_grid(20.0, 999)
    initial = make_initial_data(ExperimentConfig(scenario="decay", L=20.0, N=999), g)
    a, tmp, scratch = (np.empty(g.N) for _ in range(3))
    out = []
    for h in range(dt_halvings):
        dt = cfl_dt(g.dx, model, 0.4) / 2 ** h
        rows = []

        def observe(state, rec):
            _acceleration(state.u1, model, 1.0 / g.dx ** 2, a, tmp, scratch, 0, g.N)
            a_sq = integrate_fullline(a * a, g)
            kinetic = (gradient_sq_integral(state.u2, g)
                       + integrate_fullline(D2V[name](state.u1) * state.u2 ** 2, g))
            rows.append((rec.E, rec.E - dt * dt / 8.0 * a_sq,
                         rec.E - dt * dt / 24.0 * a_sq + dt * dt / 12.0 * kinetic,
                         rec.energy_scale))

        run(initial, model, RunSettings(dt, T, record_every), VC, on_record=observe)
        values = np.array(rows)
        out.append(np.max(np.abs(values[:, :3] - values[0, :3]), axis=0) / values[:, 3].max())
    return out


def test_linear_step_conserves_its_modified_energy_to_roundoff():
    # for a linear force, kick-drift-kick conserves E - (dt^2/8) int a^2 exactly:
    # a roundoff-level oracle for the stencil, the tail path and the carried half-kick
    for E_drift, modified_drift, _ in _energy_drifts("linear-kg", 3, T=20.0, record_every=25):
        assert E_drift > 1e-6
        assert modified_drift < 1e-13


@pytest.mark.parametrize("name", sorted(D2V))
def test_modified_energy_drift_falls_sixteenfold_per_dt_halving(name):
    # H~ is the O(dt^4) modified energy of Stormer-Verlet (Hairer, Lubich & Wanner,
    # Geometric Numerical Integration, ch. IX); other coefficients leave an O(dt^2) rest
    (E0, _, H0), (E1, _, H1) = _energy_drifts(name, 2, T=10.0, record_every=5)
    assert 3.0 <= E0 / E1 <= 5.0
    assert 12.0 <= H0 / H1 <= 20.0


def test_dH_analytic_matches_H_differences():
    # centered differences of H over records vs the closed-form dH/dt:
    # residual is O(dt^2 + dx^2) relative to the dH scale and refines ~4x
    def resid(N, dt):
        g = make_grid(40.0, N)
        st = State(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
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


def _virial_residual_parts(N, record_every):
    """The virial residual of sine-Gordon decay data (L = 40, T = 8) split in two,
    each as a fraction of max |dI_dt_rhs|: max |Idot_h - dI_dt_rhs|, the space
    part, and max |dI_dt_numeric - Idot_h|, the record-spacing part.  I is
    bilinear in (u1, u2), so along the semidiscrete flow the rate of I is
    Idot_h = I(u2, u2) + I(u1, a), with a = D2 u1 - V'(u1) on the whole grid."""
    g = make_grid(40.0, N)
    initial = make_initial_data(ExperimentConfig(scenario="decay", L=40.0, N=N), g)
    a, tmp, scratch = (np.empty(g.N) for _ in range(3))
    rates = []

    def on_record(state, rec):
        _acceleration(state.u1, SG, 1.0 / g.dx ** 2, a, tmp, scratch, 0, g.N)
        rates.append(virial_I(State(g, state.u2, state.u2), VC)
                     + virial_I(State(g, state.u1, a), VC))

    settings = RunSettings(dt=cfl_dt(g.dx, SG, 0.4), T=8.0, record_every=record_every)
    recs = run(initial, SG, settings, VC, on_record=on_record)
    scale = max(abs(r.dI_dt_rhs) for r in recs)
    space = max(abs(i - r.dI_dt_rhs) for i, r in zip(rates, recs))
    spacing = max(abs(r.dI_dt_numeric - i) for i, r in zip(rates, recs))
    return space / scale, spacing / scale


def test_virial_space_residual_falls_fourfold_per_dx_halving():
    space = [_virial_residual_parts(N, 25)[0] for N in (499, 999, 1999)]
    assert space[0] < 1e-2
    assert 3.0 <= space[0] / space[1] <= 5.0
    assert 3.0 <= space[1] / space[2] <= 5.0


def test_virial_record_spacing_residual_falls_fourfold_per_spacing_halving():
    spacing = [_virial_residual_parts(999, every)[1] for every in (12, 6, 3)]
    assert 3.0 <= spacing[0] / spacing[1] <= 5.0
    assert 3.0 <= spacing[1] / spacing[2] <= 5.0


def test_dH_bound_constant_stable_under_refinement():
    # |dH/dt| <= C (H1w^2 + L2w^2) along trajectories, with C converged
    def max_ratio(N, dt):
        g = make_grid(40.0, N)
        st = State(g, 0.05 * g.x * np.exp(-g.x ** 2 / 4.0), np.zeros(g.N))
        recs = run(st, SG, RunSettings(dt=dt, T=20.0, record_every=25), VC)
        return max(abs(r.dH_dt_analytic) / (r.H1w_sq + r.L2w_sq)
                   for r in recs if r.H1w_sq + r.L2w_sq > 0)

    c1 = max_ratio(3999, 0.004)
    c2 = max_ratio(7999, 0.002)
    assert math.isfinite(c1) and c1 > 0
    assert abs(c2 - c1) <= 0.05 * c1


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "custom-poly"])
def test_step_allocates_nothing(name):
    # with its buffers preallocated, the step body and the prefix scan allocate
    # no N-sized array
    model = make_model(name)
    g = make_grid(80.0, 7999)
    u1 = 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)
    u2 = np.zeros(g.N)
    a, tmp, scratch = (np.empty_like(u1) for _ in range(3))
    inv_dx2 = 1.0 / g.dx ** 2
    dt = cfl_dt(g.dx, model, 0.4)
    _half_kick(u1, model, inv_dx2, dt, a, tmp, scratch, 0, 0)
    lo = hi = 0  # an empty window: the first traced step rescans
    tracemalloc.start()
    try:
        for _ in range(200):
            _live_prefix(u1, u2, a, tmp, scratch)
            lo, hi = _kick_drift_kick(u1, u2, a, model, inv_dx2, dt, tmp, scratch, lo, hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u1.nbytes


@pytest.mark.parametrize("functional", [
    H_loc, weighted_norms, energy_norm_sq,
    lambda state: virial_I(state, VC), lambda state: virial_I_abs(state, VC),
    lambda state: bilinear_B(state.u1, state.grid, VC),
], ids=["H_loc", "weighted_norms", "energy_norm_sq", "virial_I", "virial_I_abs", "bilinear_B"])
def test_standalone_functional_allocates_nothing(functional):
    # after a warm-up call has made the grid's buffers and weight rows, a
    # standalone functional allocates no N-sized array, as a record does not
    g = make_grid(80.0, 7999)
    u1 = 0.05 * g.x * np.exp(-g.x ** 2 / 4.0)
    state = State(g, u1, 0.5 * u1)
    functional(state)
    tracemalloc.start()
    try:
        functional(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u1.nbytes
