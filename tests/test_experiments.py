import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oddkg import experiments, virial
from oddkg.cli import main as cli_main
from oddkg.experiments import (
    MAX_STEPS, SCENARIOS, ConfigError, ExperimentConfig, Lcg, config_model, describe,
    make_initial_data, parse_config, random_odd_field, run_scenario, validate_config,
    write_summary, write_timeseries,
)
from oddkg.grid import (
    State, derivative, gradient_sq_integral, integrate_fullline, make_fullline_grid, make_grid,
)
from oddkg.integrator import cfl_dt, leapfrog_step, run
from oddkg.models import make_model
from oddkg.virial import (
    CSV_COLUMNS, VirialConfig, energy, energy_norm_sq, virial_I_abs,
)

ROOT = Path(__file__).resolve().parents[1]

QUICK_DECAY = """
scenario=decay
model=sine-gordon
epsilon=0.05
L=20
N=1999
T=4
record_every=10
"""


def test_parse_defaults_filled():
    cfg = parse_config("scenario=decay\nmodel=phi4\nepsilon=0.05\n")
    assert cfg.scenario == "decay"
    assert cfg.model == "phi4"
    assert cfg.L == 80.0 and cfg.N == 7999
    assert cfg.dt_safety == 0.4 and cfg.lam == 10.0
    assert cfg.record_every == 25 and cfg.sigma == 2.0


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nscenario=spectral\nlambda=1\n")
    assert cfg.scenario == "spectral"
    assert cfg.lam == 1.0


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("scenario=decay\nepsilonn=0.05\n")


def test_parse_rejects_missing_scenario():
    with pytest.raises(ConfigError):
        parse_config("model=phi4\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("scenario=decay\nepsilon=-1\n")
    with pytest.raises(ConfigError):
        parse_config("scenario=decay\nN=abc\n")
    with pytest.raises(ConfigError):
        parse_config("scenario=breather\nbeta=1.5\n")
    with pytest.raises(ConfigError):
        parse_config("scenario=warp\n")
    with pytest.raises(ConfigError):
        parse_config("scenario=decay\ndt_safety=1.0\n")
    with pytest.raises(ConfigError):
        parse_config("scenario=decay\njust a line\n")


def test_describe_roundtrips_through_parser():
    cfg = parse_config(QUICK_DECAY)
    again = parse_config(describe(cfg))
    assert again == cfg


def test_initial_data_norm_is_epsilon():
    cfg = parse_config(QUICK_DECAY)
    g = make_grid(cfg.L, cfg.N)
    st = make_initial_data(cfg, g)
    norm = math.sqrt(energy_norm_sq(st))
    assert norm == pytest.approx(cfg.epsilon, rel=1e-10)
    assert np.all(st.u2 == 0.0)


def test_initial_data_velocity_family():
    cfg = parse_config(QUICK_DECAY + "data_family=gauss-odd-velocity\n")
    g = make_grid(cfg.L, cfg.N)
    st = make_initial_data(cfg, g)
    assert np.all(st.u1 == 0.0)
    l2 = math.sqrt(integrate_fullline(st.u2 ** 2, g))
    assert l2 == pytest.approx(cfg.epsilon, rel=1e-10)


@pytest.mark.parametrize("sigma", [0.7, 2.0])
@pytest.mark.parametrize("family", ["gauss-odd-displacement", "gauss-odd-velocity"])
def test_initial_data_bits_match_the_explicit_norms(family, sigma):
    # the H1 x L2 norm of the displaced profile and the L2 norm of the
    # velocity profile, each written out as its own sum of quadratures
    cfg = parse_config(QUICK_DECAY + f"data_family={family}\nsigma={sigma}\n")
    g = make_grid(cfg.L, cfg.N)
    profile = g.x * np.exp(-(g.x ** 2) / cfg.sigma ** 2)
    zero = np.zeros(g.N)
    if family == "gauss-odd-displacement":
        Z = math.sqrt(gradient_sq_integral(profile, g)
                      + integrate_fullline(profile * profile, g) + integrate_fullline(zero * zero, g))
    else:
        Z = math.sqrt(integrate_fullline(profile * profile, g))
    st = make_initial_data(cfg, g)
    moved, still = (st.u1, st.u2) if family == "gauss-odd-displacement" else (st.u2, st.u1)
    assert moved.tobytes() == (cfg.epsilon * profile / Z).tobytes()
    assert still.tobytes() == zero.tobytes()


def test_initial_data_energy_order_eps_squared():
    cfg = parse_config(QUICK_DECAY)
    g = make_grid(cfg.L, cfg.N)
    st = make_initial_data(cfg, g)
    E = energy(st, make_model(cfg.model))
    assert E > 0.0
    assert 0.01 * cfg.epsilon ** 2 < E < cfg.epsilon ** 2


def test_lcg_reproducible():
    a = Lcg(12345)
    b = Lcg(12345)
    seq_a = [a.uniform_pm1() for _ in range(10)]
    seq_b = [b.uniform_pm1() for _ in range(10)]
    assert seq_a == seq_b
    assert all(-1.0 <= v < 1.0 for v in seq_a)
    # frozen first draws for seed 12345 (Numerical Recipes constants)
    assert seq_a[0] == pytest.approx(2.0 * 87628868.0 / 2 ** 32 - 1.0, rel=1e-15)


def test_random_odd_fields_decay_and_differ():
    g = make_grid(80.0, 1999)
    lcg = Lcg(1)
    f1 = random_odd_field(g, lcg)
    f2 = random_odd_field(g, lcg)
    assert not np.array_equal(f1, f2)
    assert abs(f1[-1]) < 1e-30  # envelope kills the far field
    # the kernel's scale of I on the self-pair (f, f) is, bit for bit, the
    # integral of the integrand's magnitude written out from the weight rows
    vcfg = VirialConfig(10.0)
    W = virial._weights(g, vcfg.lam)
    for f in (f1, f2):
        inline = float(np.dot(W.psi, np.abs(derivative(f, g) * f))
                       + 0.5 * np.dot(W.psip, f ** 2))
        assert virial_I_abs(State(g, f, f.copy()), vcfg) == inline


def test_write_timeseries_empty_is_header_only(tmp_path):
    path = tmp_path / "timeseries.csv"
    write_timeseries([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_summary_format(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary({"a": 1, "b": 0.5, "c": "text", "d": True}, path)
    assert path.read_text() == "a: 1\nb: 0.5\nc: text\nd: true\n"


def test_decay_scenario_quick(tmp_path):
    cfg = parse_config(QUICK_DECAY + f"output_dir={tmp_path}\n")
    result = run_scenario(cfg)
    assert result.status == "ok"
    s = result.summary
    for key in ("H_initial", "H_final", "H_ratio", "J_total", "J_half",
                "J_plateau_increment_ratio", "J_over_eps2",
                "min_virial_ratio_after_t1", "max_dH_ratio", "max_sfsix_const",
                "sup_energy_norm", "smallness_bound", "smallness_ok", "status",
                "dx", "dt", "n_records"):
        assert key in s, key
    assert s["smallness_ok"] is True
    assert s["sup_energy_norm"] <= 3 * cfg.epsilon
    # the weighted-Sobolev ratio stays finite and O(1) along the trajectory
    sf = [r.sf_ratio for r in result.records]
    assert all(math.isfinite(v) for v in sf)
    assert max(sf) < 10.0
    assert math.isfinite(s["max_sfsix_const"]) and s["max_sfsix_const"] > 0

    # CSV round-trip: parse back bit-equal
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(result.records)
    back = [float(v) for v in lines[3].split(",")]
    assert back == [getattr(result.records[2], col) for col in CSV_COLUMNS]


def test_decay_scenario_phi4_aborts_on_smallness(tmp_path):
    # the phi4 zero state is linearly unstable: the norm grows through the
    # 3*epsilon guard within a few time units and the scenario must abort
    # loudly rather than keep integrating
    cfg = parse_config(
        f"scenario=decay\nmodel=phi4\nepsilon=0.05\nL=40\nN=3999\nT=30\n"
        f"output_dir={tmp_path}\n"
    )
    result = run_scenario(cfg)
    assert result.status == "aborted_smallness"
    assert result.summary["smallness_ok"] is False
    assert result.records[-1].t < 10.0
    assert result.summary["sup_energy_norm"] > 3 * cfg.epsilon


@pytest.mark.parametrize("model, status", [("sine-gordon", "ok"), ("phi4", "aborted_smallness")])
def test_decay_summary_maxima_are_taken_over_the_records(model, status):
    # the maxima cover every record the run returns, the one that tripped
    # the smallness guard included; each record's nonlinear term is the
    # kernel's own, not a difference of two larger values
    cfg = parse_config(QUICK_DECAY.replace("T=4", "T=12") + f"model={model}\n")
    result = run_scenario(cfg, write_files=False)
    assert result.status == status
    recs, s = result.records, result.summary
    assert s["sup_energy_norm"] == max(math.sqrt(r.energy_norm_sq) for r in recs)
    assert s["max_sfsix_const"] == max(abs(r.nonlinear) / r.sf_denom for r in recs
                                       if r.sf_denom > 0.0)
    assert (s["sup_energy_norm"] > s["smallness_bound"]) == (status != "ok")

    sim = validate_config(cfg)
    same = []

    def fresh_kernel(state, rec):
        k = virial._Kernel(state.grid, state.u1, cfg.lam, model=sim.model)
        same.append(rec.nonlinear == k.nonlinear)

    initial = make_initial_data(cfg, make_grid(cfg.L, cfg.N))
    records = run(initial, sim.model, sim.settings, sim.vcfg, on_record=fresh_kernel)
    assert len(same) == len(records) and all(same)


def test_breather_scenario_quick(tmp_path):
    cfg = parse_config(
        f"scenario=breather\nmodel=sine-gordon\nbeta=0.5\nL=40\nN=7999\nT=8\n"
        f"record_every=20\noutput_dir={tmp_path}\n"
    )
    result = run_scenario(cfg)
    assert result.status == "ok"
    s = result.summary
    assert s["n_periods"] == 1
    assert "H_period_ratio_1" in s
    # exact breather periodicity: H recurs to < 1% at this resolution
    assert abs(s["H_period_ratio_1"] - 1.0) < 0.01
    assert s["max_exact_err_l2"] < 1e-2
    header = Path(result.csv_path).read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS) + ",exact_err_l2"


def test_breather_scenario_requires_sine_gordon():
    cfg = ExperimentConfig(scenario="breather", model="phi4", L=40, N=799, T=1.0)
    with pytest.raises(ConfigError):
        run_scenario(cfg, write_files=False)


def test_convergence_scenario_quick(tmp_path):
    cfg = parse_config(
        f"scenario=convergence\nmodel=sine-gordon\nepsilon=0.05\nL=20\nN=999\n"
        f"T=4\nrecord_every=10\noutput_dir={tmp_path}\n"
    )
    result = run_scenario(cfg)
    s = result.summary
    assert s["status"] == "ok"
    assert s["dx_fine"] == pytest.approx(0.5 * s["dx_coarse"], rel=1e-12)
    assert 1.5 <= s["order_virial_residual"] <= 2.6
    assert s["order_energy_drift"] > 1.5


def test_convergence_scenario_phi4_drift_against_energy_scale(tmp_path):
    # phi4's E(0) is a near-zero cancellation; measured against the size S of
    # the energy's terms, the drift is small and second order in dt
    cfg = parse_config(
        f"scenario=convergence\nmodel=phi4\nepsilon=0.05\nL=20\nN=999\n"
        f"T=4\nrecord_every=10\noutput_dir={tmp_path}\n"
    )
    s = run_scenario(cfg).summary
    assert s["status"] == "ok"
    assert s["drift_coarse"] < 1e-4
    assert 1.9 <= s["order_energy_drift"] <= 2.1


def test_convergence_scenario_breather_mode(tmp_path):
    # L = 40 keeps the breather tail truncation (e^{-beta L}) far below the
    # discretization error, so the observed order is clean
    cfg = parse_config(
        f"scenario=convergence\nconv_mode=breather\nmodel=sine-gordon\nbeta=0.5\n"
        f"L=40\nN=1999\nT=3\nrecord_every=25\noutput_dir={tmp_path}\n"
    )
    s = run_scenario(cfg).summary
    assert 1.8 <= s["order_exact_error"] <= 2.2


def test_spectral_scenario(tmp_path):
    cfg = parse_config(
        f"scenario=spectral\nlambda=1\nL=40\nN=3999\noutput_dir={tmp_path}\n"
    )
    result = run_scenario(cfg)
    s = result.summary
    assert result.status == "ok"
    for v0 in ("V0_0", "V0_0.5", "V0_2", "V0_6"):
        assert s[f"counts_match_{v0}"] is True
    assert s["count_even_V0_2"] == 1 and s["count_odd_V0_2"] == 0
    assert s["cert_odd_coercivity_min_ratio"] >= 0.75 - 1e-3
    assert s["cert_even_coercivity_min_ratio"] < 0.75
    assert s["cert_odd_residual_min_eig"] >= -1e-6


def test_virial_check_scenario(tmp_path):
    cfg = parse_config(
        f"scenario=virial-check\nL=80\nN=7999\nseed=12345\noutput_dir={tmp_path}\n"
    )
    result = run_scenario(cfg)
    s = result.summary
    assert result.status == "ok"
    assert s["n_fields"] == 100
    assert s["max_rel_B_vs_Bsharp"] < s["tol_B_vs_Bsharp"]
    assert s["max_rel_I_selfpair"] < s["tol_I_selfpair"]
    assert s["max_rel_H_decomp"] < s["tol_H_decomp"]


@pytest.mark.parametrize("name", ["B_vs_Bsharp", "I_selfpair", "H_decomp"])
def test_virial_check_fails_on_each_check_alone(name, tmp_path, monkeypatch):
    # a zero tolerance fails one check: the run exits 1 and says so, with
    # the summary keys of a passing run, in their order
    monkeypatch.setitem(experiments.VIRIAL_CHECK_TOL, name, 0.0)
    argv = ["virial-check", "--config", str(ROOT / "configs" / "virial_check.cfg"),
            "--set", f"output_dir={tmp_path}"]
    assert cli_main(argv) == 1
    golden = ROOT / "tests" / "golden" / "virial_check" / "summary.txt"
    keys = [line.split(": ", 1)[0] for line in golden.read_text().splitlines()]
    summary = dict(line.split(": ", 1)
                   for line in (tmp_path / "summary.txt").read_text().splitlines())
    assert list(summary) == keys
    assert summary["status"] == "failed_checks"
    assert float(summary[f"tol_{name}"]) == 0.0


def test_determinism_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cfg = parse_config(QUICK_DECAY + f"output_dir={out}\n")
        run_scenario(cfg)
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--version"])
    assert exc.value.code == 0
    assert "oddkg" in capsys.readouterr().out


def test_cli_describe(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(QUICK_DECAY)
    rc = cli_main(["decay", "--config", str(cfgfile), "--describe"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario=decay" in out
    assert "epsilon=0.05" in out


def test_cli_set_overrides_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(QUICK_DECAY)
    rc = cli_main(["decay", "--config", str(cfgfile), "--set", "epsilon=0.01",
                   "--describe"])
    assert rc == 0
    assert "epsilon=0.01" in capsys.readouterr().out


def test_cli_subcommand_overrides_scenario(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(QUICK_DECAY)  # says scenario=decay
    rc = cli_main(["virial-check", "--config", str(cfgfile), "--set", "N=1999",
                   "--set", "L=20", "--describe"])
    assert rc == 0
    assert "scenario=virial-check" in capsys.readouterr().out


def test_cli_config_error_exit_code_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("epsilon=-3\n")
    rc = cli_main(["decay", "--config", str(cfgfile)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert cli_main(["decay", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_runs_scenario_and_exit_codes(tmp_path, capsys):
    rc = cli_main([
        "virial-check", "--set", "L=40", "--set", "N=1999",
        "--set", f"output_dir={tmp_path}",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: ok" in out
    assert (tmp_path / "timeseries.csv").exists()
    # stdout is the text of summary.txt, then the two paths written
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert out == (summary + f"wrote {tmp_path / 'timeseries.csv'}\n"
                   f"wrote {tmp_path / 'summary.txt'}\n")


def test_cli_failure_exit_code_1(tmp_path):
    # phi4 decay trips the smallness abort -> assertion-failure exit code
    rc = cli_main([
        "decay", "--set", "model=phi4", "--set", "L=40", "--set", "N=3999",
        "--set", "T=30", "--set", f"output_dir={tmp_path}",
    ])
    assert rc == 1


def test_custom_poly_through_config_matches_cubic():
    # custom-poly with coeffs of u^3 and m=-1 is the cubic model; the two
    # trajectories agree to rounding-level differences
    base = parse_config(
        "scenario=decay\nmodel=cubic-nlkg\nepsilon=0.05\nL=20\nN=999\nT=2\n"
        "record_every=10\n"
    )
    custom = parse_config(
        "scenario=decay\nmodel=custom-poly\npoly_m=-1\npoly_coeffs=0,0,0,1\n"
        "epsilon=0.05\nL=20\nN=999\nT=2\nrecord_every=10\n"
    )
    r1 = run_scenario(base, write_files=False)
    r2 = run_scenario(custom, write_files=False)
    assert r1.status == r2.status == "ok"
    for a, b in zip(r1.records, r2.records):
        assert b.H == pytest.approx(a.H, rel=1e-12)
        assert b.I == pytest.approx(a.I, rel=1e-9, abs=1e-18)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decay_scenario_nan_abort_recorded(tmp_path):
    # custom-poly with a huge positive m: the half-line modes grow so fast
    # that the state overflows before the first record, exercising the
    # NaN-abort path of the scenario (status, not exception)
    cfg = parse_config(
        f"scenario=decay\nmodel=custom-poly\npoly_m=1e8\npoly_coeffs=0,0,0,0\n"
        f"epsilon=0.05\nL=20\nN=999\nT=2\nrecord_every=1000\n"
        f"output_dir={tmp_path}\n"
    )
    result = run_scenario(cfg)
    assert result.status == "aborted_nan"
    assert result.summary["status"] == "aborted_nan"
    assert len(result.records) >= 1  # the t=0 record survives the abort


@pytest.mark.parametrize("name", ("decay_sine_gordon", "breather", "spectral",
                                  "virial_check"))
def test_shipped_configs_parse(name):
    text = Path(__file__).resolve().parents[1].joinpath(
        "configs", f"{name}.cfg").read_text()
    cfg = parse_config(text)
    assert cfg.scenario in ("decay", "breather", "spectral", "virial-check")


def _first_nonfinite_step(cfg: ExperimentConfig) -> int:
    """Walk leapfrog_step from the half-line initial data of `cfg` at its CFL
    step and return the first step whose state is not finite."""
    grid = make_grid(cfg.L, cfg.N)
    model = config_model(cfg)
    dt = cfl_dt(grid.dx, model, cfg.dt_safety)
    state = make_initial_data(cfg, grid)
    with np.errstate(all="ignore"):
        for step in range(1, round(cfg.T / dt) + 1):
            state = leapfrog_step(state, model, dt)
            if not (np.isfinite(state.u1).all()
                    and np.isfinite(state.u2).all()):
                return step
    raise AssertionError("the state stayed finite up to T")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decay_nan_abort_summary_says_where_it_stopped(tmp_path):
    # cubic-nlkg at epsilon=5 overflows between the t=0 record and the only
    # other scheduled one, the last step: a single record survives, and the
    # abort names the step where the state first went non-finite
    argv = ["decay", "--config", str(ROOT / "configs" / "decay_sine_gordon.cfg"),
            "--set", "model=cubic-nlkg", "--set", "epsilon=5", "--set", "N=999",
            "--set", "T=20", "--set", "record_every=100000",
            "--set", f"output_dir={tmp_path}"]
    assert cli_main(argv) == 1
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    summary = dict(line.split(": ", 1) for line in lines)
    assert summary["status"] == "aborted_nan"
    assert summary["smallness_ok"] == "false"
    assert summary["n_records"] == "1"
    dt = float(summary["dt"])
    step = int(summary["abort_step"])
    cfg = parse_config((ROOT / "configs" / "decay_sine_gordon.cfg").read_text()
                       + "model=cubic-nlkg\nepsilon=5\nN=999\nT=20\n")
    assert step == _first_nonfinite_step(cfg) < round(20.0 / dt)
    assert float(summary["abort_t"]) == step * dt
    for key in ("H_ratio", "J_plateau_increment_ratio", "J_over_eps2",
                "min_virial_ratio_after_t1", "max_dH_ratio"):
        assert summary[key] == "nan", key


def test_decay_whose_records_overflow_aborts_nan(tmp_path, capsys):
    # the state stays finite but E, dI_dt_rhs and sf_ratio overflow to nan:
    # this used to print numpy warnings and report status ok, smallness_ok true
    argv = ["decay", "--config", str(ROOT / "configs" / "decay_sine_gordon.cfg"),
            "--set", "N=99", "--set", "T=1", "--set", "model=linear-kg",
            "--set", "epsilon=1e100", "--set", f"output_dir={tmp_path}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(argv) == 1
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    summary = dict(line.split(": ", 1) for line in lines)
    assert summary["status"] == "aborted_nan"
    assert summary["smallness_ok"] == "false"
    assert (summary["abort_step"], summary["abort_t"], summary["n_records"]) == ("0", "0", "1")


def test_decay_ok_summary_has_no_abort_keys():
    result = run_scenario(parse_config(QUICK_DECAY), write_files=False)
    assert result.status == "ok"
    assert result.summary["smallness_ok"] is True
    assert "abort_step" not in result.summary and "abort_t" not in result.summary


def test_lambda_below_four_dx_is_config_error():
    with pytest.raises(ConfigError, match="not resolved"):
        parse_config("scenario=spectral\nL=40\nN=99\nlambda=1.5\n")  # dx = 0.4
    parse_config("scenario=spectral\nL=40\nN=99\nlambda=1.6\n")
    # the breather runs on the full line, where dx = 2L/(N+1)
    with pytest.raises(ConfigError, match="not resolved"):
        parse_config("scenario=breather\nL=40\nN=99\nlambda=3\n")


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("key", ("epsilon", "sigma", "L", "T", "lambda", "dt_safety",
                                 "beta", "poly_m"))
def test_cli_non_finite_float_key_exits_2(key, value, tmp_path, capsys):
    # T=nan used to run no step and report status ok, T=inf to end in an
    # OverflowError traceback, lambda=inf to report ok with degenerate weights
    rc = cli_main(["decay", "--set", "N=99", "--set", f"{key}={value}",
                   "--set", f"output_dir={tmp_path / 'out'}"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err == [f"config error: {key} must be finite, got {value}"]
    assert not (tmp_path / "out").exists()


def test_non_finite_poly_coeff_is_config_error():
    with pytest.raises(ConfigError, match="poly_coeffs must be finite"):
        parse_config("scenario=decay\nmodel=custom-poly\npoly_coeffs=0,0,nan\n")


def test_cli_unresolved_lambda_exits_2_without_traceback(tmp_path):
    # this input used to spin forever in the eigenvalue bisection
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "oddkg", "spectral", "--set", "lambda=1e-9",
         "--set", "N=99", "--set", f"output_dir={tmp_path}"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr


@pytest.mark.parametrize("setting", (
    "L=1e-300",  # dx^2 underflows: was a ZeroDivisionError in cfl_dt
    "sigma=1e-300",  # zero profile norm: was a NaN state, then an IndexError
    "epsilon=1e308",  # was an OverflowError at epsilon**2
    "N=1000000000000000",  # 8 PB, beyond the address space: was an _ArrayMemoryError
    "N=100000000000000000000",  # past numpy's index range: was a ValueError from np.arange
    "L=1e-150",  # dx = 1e-152 asks for ~1e152 steps: ran without end
    "sigma=1e-153",  # x^2/sigma^2 overflows: numpy warnings came before the error line
    "model=custom-poly",  # no poly_coeffs: was a ModelError traceback
))
def test_cli_out_of_range_value_exits_2_without_traceback(setting, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "oddkg", "decay",
         "--config", str(ROOT / "configs" / "decay_sine_gordon.cfg"), "--set", "N=99",
         "--set", "T=1", "--set", setting, "--set", f"output_dir={tmp_path / 'out'}"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), proc.stderr


def test_convergence_breather_mode_steps_on_the_fullline_grid():
    # dt and the reported dx come from the grid the breather runs on
    cfg = parse_config(
        "scenario=convergence\nconv_mode=breather\nmodel=sine-gordon\nbeta=0.5\n"
        "L=40\nN=1999\nT=0.5\nrecord_every=25\n"
    )
    s = run_scenario(cfg, write_files=False).summary
    assert s["status"] == "ok"
    assert s["dx"] == s["dx_coarse"]
    assert s["dt"] == s["dt_coarse"] == cfl_dt(
        make_fullline_grid(cfg.L, cfg.N).dx, make_model("sine-gordon"), cfg.dt_safety)


def test_breather_data_requires_sine_gordon_at_parse():
    with pytest.raises(ConfigError, match="sine-gordon"):
        parse_config("scenario=convergence\nconv_mode=breather\nmodel=phi4\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_convergence_nan_abort_summary_says_where_it_stopped(tmp_path, capsys):
    # cubic-nlkg at epsilon=5 overflows in the coarse run before its second
    # record step; the fine run is not attempted
    argv = ["convergence", "--set", "model=cubic-nlkg", "--set", "epsilon=5",
            "--set", "N=999", "--set", "T=20", "--set", f"output_dir={tmp_path}"]
    assert cli_main(argv) == 1
    assert "status: aborted_nan" in capsys.readouterr().out
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    summary = dict(line.split(": ", 1) for line in lines)
    assert summary["status"] == "aborted_nan"
    assert summary["abort_resolution"] == "coarse"
    step = int(summary["abort_step"])
    cfg = parse_config("scenario=convergence\nmodel=cubic-nlkg\nepsilon=5\nN=999\nT=20\n")
    assert step == _first_nonfinite_step(cfg)
    assert float(summary["abort_t"]) == step * float(summary["dt_coarse"])
    for key in ("drift_coarse", "drift_fine", "order_energy_drift",
                "virial_resid_coarse", "virial_resid_fine", "order_virial_residual"):
        assert summary[key] == "nan", key
    assert list(summary)[-3:] == ["abort_step", "abort_t", "abort_resolution"]


@pytest.mark.parametrize("target", ("blocker", "blocker/sub"))
def test_cli_output_dir_that_cannot_be_created_exits_2(tmp_path, target):
    # a file where the output directory should go fails before the run
    (tmp_path / "blocker").write_text("not a directory\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "oddkg", "decay", "--set", "L=20", "--set", "N=999",
         "--set", "T=1", "--set", f"output_dir={target}"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: cannot create output_dir")
    assert proc.stdout == ""


@pytest.mark.parametrize("blocked", ("timeseries.csv", "summary.txt"))
def test_cli_output_file_that_cannot_be_written_exits_2(tmp_path, blocked):
    # a directory where an output file should go fails the write after the
    # run: one config-error line, exit 2, and no temporary file left behind
    (tmp_path / "o3" / blocked).mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "oddkg", "virial-check", "--set", "L=20", "--set", "N=999",
         "--set", "output_dir=o3"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: failed writing o3/{blocked}")
    assert proc.stdout == ""
    assert not list((tmp_path / "o3").glob("*.tmp"))


def test_describe_spectral_and_run_agree_that_custom_poly_needs_coeffs(tmp_path, capsys):
    # --describe and the spectral scenario never built the model, so both
    # exited 0 on a config that the decay run refused with exit code 2
    for argv in (["decay", "--describe"], ["decay"], ["spectral"]):
        rc = cli_main(argv + ["--set", "model=custom-poly", "--set", "N=99",
                              "--set", f"output_dir={tmp_path / 'out'}"])
        assert rc == 2, argv
        assert capsys.readouterr() == (
            "", "config error: custom-poly coeffs must be a nonempty 1D sequence\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", (
    ["decay", "--set", "T=1e7"],  # dt = 0.004 at the default N: 2.5e9 steps
    ["convergence", "--set", "L=20", "--set", "N=99", "--set", "T=6e6"],  # the fine run only
))
def test_describe_and_run_agree_on_the_step_budget(argv, tmp_path, capsys):
    # the budget was checked only when a run was set up: --describe exited 0
    # and the run exited 2 after it had made output_dir
    if argv[0] == "convergence":
        coarse = validate_config(parse_config("scenario=decay\nL=20\nN=99\nT=6e6\n"))
        assert coarse.settings.T / coarse.settings.dt <= MAX_STEPS
    errors = []
    for extra in (["--describe"], []):
        assert cli_main(argv + extra + ["--set", f"output_dir={tmp_path / 'out'}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        errors.append(err)
    assert errors[0] == errors[1] and errors[0].startswith("config error: T=")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_scenario_makes_the_model_once(scenario, monkeypatch):
    # validate_config makes the model, and the scenario runs the one it made
    cfg = parse_config(f"scenario={scenario}\nL=20\nN=99\nT=0.5\nlambda=2\n")
    calls = []

    def counted(c):
        calls.append(c)
        return config_model(c)

    monkeypatch.setattr(experiments, "config_model", counted)
    run_scenario(cfg, write_files=False)
    assert calls == [cfg]


@pytest.mark.parametrize("setting, message", (
    ("record_every=0", "record_every must be an integer >= 1, got 0"),
    ("lambda=1e-200", "virial scale lam must be positive"),
    ("beta=1", "breather parameter must lie in (0, 1), got beta=1.0"),
    ("L=0", "domain half-width must be positive, got L=0.0"),
    ("dt_safety=1", "safety factor must lie in (0, 1), got 1.0"),
))
def test_config_errors_carry_the_message_of_the_object_that_refuses(setting, message, capsys):
    # validate_config makes each library object once; its rule and message are the object's
    assert cli_main(["decay", "--set", setting, "--set", "N=99", "--describe"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
