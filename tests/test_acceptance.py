"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.

Heavy simulations are shared through module-scoped fixtures.  Criteria 5b
and 7b exercise the phi4 model, whose zero state is linearly unstable
(m = +1), so small odd data leaves the small-data regime within a few time
units.  5b measures the energy drift against the size of the trajectory's
energy terms, which the Stormer-Verlet error scales with, rather than
against E(0), which for phi4 is a near-zero leftover of cancellation.  7b
checks the theorem's dichotomy: a phi4 decay run either stays within the
3*eps smallness guard and decays as in 7a, or the guard ends it, and then
the summary must agree with itself and the exit must come from the
instability rather than from a numerical fault.  See README.
"""

import math

import numpy as np
import pytest

from oddkg.exact import BreatherParams, breather_exact, breather_state
from oddkg.experiments import (
    ExperimentConfig, Lcg, parse_config, random_odd_field, run_scenario,
)
from oddkg.grid import make_fullline_grid, make_grid
from oddkg.integrator import RunSettings, run
from oddkg.models import make_model
from oddkg.spectral import (
    assemble, coercivity_certificate, lowest_eigs, negative_count, pt_index,
)
from oddkg.virial import VirialConfig, bilinear_B, bsharp, to_w

VC10 = VirialConfig(10.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


# ----------------------------------------------------------------------
# shared runs
# ----------------------------------------------------------------------

def _decay_cfg(model, epsilon, T, N=7999, L=80.0, output_dir="."):
    return ExperimentConfig(scenario="decay", model=model, epsilon=epsilon,
                            T=T, L=L, N=N, output_dir=str(output_dir))


@pytest.fixture(scope="module")
def sg_decay(tmp_path_factory):
    return run_scenario(_decay_cfg("sine-gordon", 0.05, 200.0,
                                   output_dir=tmp_path_factory.mktemp("sg_decay")))


@pytest.fixture(scope="module")
def sg_decay_half_eps(tmp_path_factory):
    return run_scenario(_decay_cfg("sine-gordon", 0.025, 200.0,
                                   output_dir=tmp_path_factory.mktemp("sg_decay_half_eps")))


@pytest.fixture(scope="module")
def sg_decay_refined(tmp_path_factory):
    return run_scenario(_decay_cfg("sine-gordon", 0.05, 200.0, N=15999,
                                   output_dir=tmp_path_factory.mktemp("sg_decay_refined")))


def _virial_residual_ratio(model_name, epsilon, N, dt, T):
    g = make_grid(80.0, N)
    model = make_model(model_name)
    cfg = _decay_cfg(model_name, epsilon, T, N=N)
    from oddkg.experiments import make_initial_data
    init = make_initial_data(cfg, g)
    recs = run(init, model, RunSettings(dt=dt, T=T, record_every=25), VC10)
    resid = max(abs(r.dI_dt_numeric - r.dI_dt_rhs) for r in recs)
    scale = max(abs(r.dI_dt_rhs) for r in recs)
    return resid / scale


def _drift_pair(model_name, dts, T=100.0, N=7999):
    """Per step size: (max|E - E(0)| / S, E(0), S), S the run's largest energy scale.

    S is the record's `energy_scale`, the integral of u2^2/2 + u1x^2/2 +
    |m|u1^2/2 + |F|, which the convergence scenario reads as well.  For
    m <= 0 and F <= 0 (linear-kg, say) it is the energy itself; for m = +1
    the energy is a difference of terms of this size and can sit near zero.
    """
    g = make_grid(80.0, N)
    model = make_model(model_name)
    cfg = _decay_cfg(model_name, 0.05, T, N=N)
    from oddkg.experiments import make_initial_data
    init = make_initial_data(cfg, g)
    out = []
    for dt in dts:
        recs = run(init, model, RunSettings(dt=dt, T=T, record_every=25), VC10)
        E = np.array([r.E for r in recs])
        S = max(r.energy_scale for r in recs)
        out.append((float(np.max(np.abs(E - E[0])) / S), float(E[0]), S))
    return out


def _breather_final_error(N, dt, T=10.0):
    g = make_fullline_grid(80.0, N)
    sg = make_model("sine-gordon")
    p = BreatherParams(0.5)
    err = {}

    def probe(state, rec):
        diff = state.u1 - breather_exact(p, state.t, g.x)
        err["last"] = math.sqrt(g.dx * float(np.dot(diff, diff)))

    run(breather_state(p, 0.0, g), sg, RunSettings(dt=dt, T=T, record_every=25),
        VC10, on_record=probe)
    return err["last"]


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_virial_identity_phi4():
    # phi4 decay run (eps=0.05, dx=0.01, dt=0.004, T=50): residual ratio
    # < 1e-2; halving (dx, dt, record spacing) reduces it by >= 3x
    coarse = _virial_residual_ratio("phi4", 0.05, 7999, 0.004, 50.0)
    fine = _virial_residual_ratio("phi4", 0.05, 15999, 0.002, 50.0)
    factor = coarse / fine
    ok = coarse < 1e-2 and factor >= 3.0
    report("AC-01", ok,
           f"virial identity: residual ratio {coarse:.3e} (< 1e-2), "
           f"refinement factor {factor:.2f} (>= 3)")
    assert coarse < 1e-2
    assert factor >= 3.0


def test_criterion_02_transform_identity():
    # |B - Bsharp|/max(|B|, 1e-12) < 1e-4 over the 100-field battery at
    # dx = 0.01; second-order convergence under dx-halving
    def battery(N):
        g = make_grid(80.0, N)
        lcg = Lcg(12345)
        worst = 0.0
        for _ in range(100):
            u1 = random_odd_field(g, lcg)
            B = bilinear_B(u1, g, VC10)
            Bs = bsharp(to_w(u1, g, VC10), g, VC10)
            worst = max(worst, abs(B - Bs) / max(abs(B), 1e-12))
        return worst

    coarse, fine = battery(7999), battery(15999)
    factor = coarse / fine
    ok = coarse < 1e-4 and 3.0 <= factor <= 5.0
    report("AC-02", ok,
           f"B vs Bsharp: max rel mismatch {coarse:.3e} (< 1e-4), "
           f"halving factor {factor:.2f} (second order)")
    assert coarse < 1e-4
    assert 3.0 <= factor <= 5.0


def test_criterion_03_coercivity_certificate():
    # odd-sector ratio >= 3/4 - 1e-3 for lam in {1, 10, 100}; even sector
    # falls below 3/4; residual-form minimum eigenvalue >= -1e-6
    details = []
    ok = True
    for lam in (1.0, 10.0, 100.0):
        grid = make_grid(40.0 * lam, 3999)
        rep = coercivity_certificate(lam, grid, parity="odd")
        details.append(f"lam={lam:g}: odd {rep.coercivity_min_ratio:.6f}")
        ok = ok and rep.coercivity_min_ratio >= 0.75 - 1e-3
        ok = ok and rep.residual_min_eig >= -1e-6
    even = coercivity_certificate(1.0, make_grid(40.0, 3999), parity="even")
    ok = ok and even.coercivity_min_ratio < 0.75
    report("AC-03", ok,
           "coercivity: " + ", ".join(details)
           + f"; even {even.coercivity_min_ratio:.3f} (< 0.75)")
    for lam in (1.0, 10.0, 100.0):
        rep = coercivity_certificate(lam, make_grid(40.0 * lam, 3999), parity="odd")
        assert rep.coercivity_min_ratio >= 0.75 - 1e-3
        assert rep.residual_min_eig >= -1e-6
    assert even.coercivity_min_ratio < 0.75


def test_criterion_04_poschl_teller_index():
    # exact count agreement at V0 in {0, 0.5, 6}; V0 = 2 threshold: one even
    # bound state at -1 +- 1e-4 (dx = 0.005), no odd eigenvalue below -1e-4
    g = make_grid(40.0, 7999)  # dx = 0.005
    counts_ok = True
    for V0 in (0.0, 0.5, 6.0):
        total = (negative_count(assemble(g, V0, 1.0, "odd"))
                 + negative_count(assemble(g, V0, 1.0, "even")))
        counts_ok = counts_ok and (total == pt_index(V0))
    even_op = assemble(g, 2.0, 1.0, "even")
    odd_op = assemble(g, 2.0, 1.0, "odd")
    n_even = negative_count(even_op)
    ev = lowest_eigs(even_op, 1)[0]
    odd_low = lowest_eigs(odd_op, 1)[0]
    ok = (counts_ok and n_even == 1 and abs(ev + 1.0) <= 1e-4 and odd_low >= -1e-4)
    report("AC-04", ok,
           f"index: counts match at V0=0,0.5,6: {counts_ok}; V0=2 even eig "
           f"{ev:.8f} (err {abs(ev + 1):.1e} <= 1e-4), odd lowest {odd_low:.2e} "
           f"(>= -1e-4)")
    assert counts_ok
    assert n_even == 1
    assert abs(ev + 1.0) <= 1e-4
    assert odd_low >= -1e-4


def _drift_detail(dt_runs):
    (drift, E0, S), (drift_half, _, _) = dt_runs
    factor = drift / drift_half
    detail = (f"E(0) {E0:.4e}, energy scale S {S:.4e}, drift/S {drift:.3e} "
              f"(< 1e-5), dt-halving factor {factor:.2f} (~4)")
    return drift, factor, detail


def test_criterion_05a_energy_conservation_linear():
    drift, factor, detail = _drift_detail(_drift_pair("linear-kg", (0.004, 0.002)))
    ok = drift < 1e-5 and 3.0 <= factor <= 5.0
    report("AC-05a", ok, "linear-kg energy: " + detail)
    assert drift < 1e-5
    assert 3.0 <= factor <= 5.0


def test_criterion_05b_energy_conservation_phi4():
    # Same thresholds as 05a.  The drift is measured against the energy
    # scale S, not against E(0): with m = +1 the energy terms of the
    # saturated trajectory are O(1) while E(0) is a near-zero difference
    # of O(eps^2) terms, and the Stormer-Verlet error is O(dt^2) relative
    # to the terms, not to their difference.
    drift, factor, detail = _drift_detail(_drift_pair("phi4", (0.004, 0.002)))
    ok = drift < 1e-5 and 3.0 <= factor <= 5.0
    report("AC-05b", ok, "phi4 energy: " + detail)
    assert drift < 1e-5
    assert 3.0 <= factor <= 5.0


def test_criterion_06_breather_oracle():
    err = _breather_final_error(15999, 0.004)
    err_fine = _breather_final_error(31999, 0.002)
    order = math.log2(err / err_fine)
    ok = err < 1e-2 and 1.8 <= order <= 2.2
    report("AC-06", ok,
           f"breather: L2 error at T=10 {err:.3e} (< 1e-2), observed order "
           f"{order:.3f} (in [1.8, 2.2])")
    assert err < 1e-2
    assert 1.8 <= order <= 2.2


def test_criterion_07a_decay_trend_sine_gordon(sg_decay, sg_decay_half_eps):
    s = sg_decay.summary
    s2 = sg_decay_half_eps.summary
    h_ratio = s["H_ratio"]
    plateau = s["J_plateau_increment_ratio"]
    j_ratio = s["J_total"] / s2["J_total"]
    ok = (sg_decay.status == "ok" and h_ratio < 0.2 and plateau < 0.25
          and 3.0 <= j_ratio <= 5.0)
    report("AC-07a", ok,
           f"sine-gordon decay: H(200)/H(0) {h_ratio:.4f} (< 0.2), J plateau "
           f"increment {plateau:.3f} (< 0.25), J(eps)/J(eps/2) {j_ratio:.3f} "
           f"(in [3, 5])")
    assert sg_decay.status == "ok"
    assert h_ratio < 0.2
    assert plateau < 0.25
    assert 3.0 <= j_ratio <= 5.0


def test_criterion_07b_decay_trend_phi4(tmp_path):
    # The theorem's dichotomy at eps and eps/2: a run that stays within the
    # 3*eps smallness guard must decay as in 07a; otherwise the guard ends
    # it with status aborted_smallness.  With m = +1 the linearisation
    # u_tt = u_xx + u has growing modes for |k| < 1, so the abort branch is
    # expected.  There the summary must agree with itself, and the exit must
    # come from the instability: the norm grows at rate at most
    # 1 + O(sup|u1|^2), so tripling it takes at least ln 3, and the exit
    # time barely depends on eps.  Up to the exit the virial form must
    # stay positive.
    T = 200.0
    runs = [run_scenario(_decay_cfg("phi4", eps, T, output_dir=tmp_path / f"eps{eps:g}"))
            for eps in (0.05, 0.025)]
    sums = [r.summary for r in runs]
    statuses = [r.status for r in runs]
    exits = [r.records[-1].t for r in runs]
    spacing = sums[0]["record_every"] * sums[0]["dt"]

    checks = {}
    for label, status, s, t_exit in zip(("eps", "eps/2"), statuses, sums, exits):
        if status == "ok":
            checks[f"{label}: completed run decays as in 07a"] = (
                s["smallness_ok"] and s["H_ratio"] < 0.2
                and s["J_plateau_increment_ratio"] < 0.25)
        else:
            checks[f"{label}: status is ok or aborted_smallness"] = (
                status == "aborted_smallness")
            checks[f"{label}: summary agrees with the abort"] = (
                not s["smallness_ok"] and s["sup_energy_norm"] > s["smallness_bound"]
                and t_exit < T)
            checks[f"{label}: exit at t >= ln 3"] = t_exit >= math.log(3.0)
        checks[f"{label}: min virial ratio after t=1 > 0"] = (
            s["min_virial_ratio_after_t1"] > 0)
    if statuses == ["ok", "ok"]:
        checks["J(eps)/J(eps/2) in [3, 5]"] = (
            3.0 <= sums[0]["J_total"] / sums[1]["J_total"] <= 5.0)
    if statuses == ["aborted_smallness", "aborted_smallness"]:
        checks["exit times agree within one record spacing"] = (
            abs(exits[0] - exits[1]) <= spacing)
    failed = [name for name, good in checks.items() if not good]

    def pair(values, fmt):
        return ", ".join(format(v, fmt) for v in values)

    report("AC-07b", not failed,
           f"phi4 decay at eps, eps/2: status {pair(statuses, 's')}; exit t "
           f"{pair(exits, '.2f')} (>= ln 3, within {spacing:.3f} of each other); "
           f"sup norm {pair([s['sup_energy_norm'] for s in sums], '.4f')} vs guard "
           f"{pair([s['smallness_bound'] for s in sums], '.3f')}; min virial ratio "
           f"after t=1 {pair([s['min_virial_ratio_after_t1'] for s in sums], '.3f')} "
           f"(> 0)" + (f"; failed: {'; '.join(failed)}" if failed else ""))
    assert not failed, failed


def test_criterion_08_breather_non_decay(tmp_path):
    p = BreatherParams(0.5)
    cfg = ExperimentConfig(scenario="breather", model="sine-gordon", beta=0.5,
                           T=3.0 * p.period, L=80.0, N=15999, output_dir=str(tmp_path))
    result = run_scenario(cfg)
    s = result.summary
    ratios = [s[f"H_period_ratio_{k}"] for k in (1, 2, 3)]
    ok = result.status == "ok" and min(ratios) >= 0.8
    report("AC-08", ok,
           "breather H at period multiples / H(0): "
           + ", ".join(f"{r:.4f}" for r in ratios) + " (all >= 0.8)")
    assert result.status == "ok"
    assert min(ratios) >= 0.8


def test_criterion_09_virial_coercivity_constant(sg_decay, sg_decay_half_eps,
                                                 sg_decay_refined):
    c = sg_decay.summary["min_virial_ratio_after_t1"]
    c_eps2 = sg_decay_half_eps.summary["min_virial_ratio_after_t1"]
    c_ref = sg_decay_refined.summary["min_virial_ratio_after_t1"]
    rel_change = abs(c_ref - c) / c if c > 0 else math.inf
    ok = c > 0 and c_eps2 > 0 and rel_change <= 0.2
    report("AC-09", ok,
           f"empirical coercivity constant: min virial_rhs/H1w^2 after t=1 is "
           f"{c:.4f} (eps/2: {c_eps2:.4f}), refinement change {100 * rel_change:.2f}% "
           f"(<= 20%)")
    assert c > 0
    assert c_eps2 > 0
    assert rel_change <= 0.2


def test_criterion_10_determinism(tmp_path):
    text = ("scenario=decay\nmodel=sine-gordon\nepsilon=0.05\nL=20\nN=1999\n"
            "T=4\nrecord_every=10\n")
    payloads = []
    for name in ("a", "b"):
        cfg = parse_config(text + f"output_dir={tmp_path / name}\n")
        result = run_scenario(cfg)
        payloads.append((open(result.csv_path, "rb").read(),
                         open(result.summary_path, "rb").read()))
    ok = payloads[0] == payloads[1]
    report("AC-10", ok,
           f"determinism: repeated runs byte-identical "
           f"({len(payloads[0][0])} CSV bytes compared)")
    assert payloads[0][0] == payloads[1][0]
    assert payloads[0][1] == payloads[1][1]
