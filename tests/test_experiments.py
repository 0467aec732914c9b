import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oddkg.cli import main as cli_main
from oddkg.experiments import (
    ConfigError, ExperimentConfig, Lcg, config_model, describe, make_initial_data,
    parse_config, random_odd_field, run_scenario, write_summary, write_timeseries,
)
from oddkg.grid import h1_l2_norm_sq, integrate_fullline, make_fullline_grid, make_grid
from oddkg.integrator import cfl_dt, leapfrog_step
from oddkg.models import energy, make_model
from oddkg.virial import CSV_COLUMNS, csv_header, record_from_csv_row

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
    norm = math.sqrt(h1_l2_norm_sq(st.u1, st.u2))
    assert norm == pytest.approx(cfg.epsilon, rel=1e-10)
    assert np.all(st.u2.values == 0.0)


def test_initial_data_velocity_family():
    cfg = parse_config(QUICK_DECAY + "data_family=gauss-odd-velocity\n")
    g = make_grid(cfg.L, cfg.N)
    st = make_initial_data(cfg, g)
    assert np.all(st.u1.values == 0.0)
    l2 = math.sqrt(integrate_fullline(st.u2.values ** 2, g))
    assert l2 == pytest.approx(cfg.epsilon, rel=1e-10)


def test_initial_data_energy_order_eps_squared():
    cfg = parse_config(QUICK_DECAY)
    g = make_grid(cfg.L, cfg.N)
    st = make_initial_data(cfg, g)
    E = energy(st, make_model(cfg.model), g)
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
    assert not np.array_equal(f1.values, f2.values)
    assert abs(f1.values[-1]) < 1e-30  # envelope kills the far field


def test_write_timeseries_empty_is_header_only(tmp_path):
    path = tmp_path / "timeseries.csv"
    write_timeseries([], path)
    assert path.read_text() == csv_header() + "\n"


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
    assert lines[0] == csv_header()
    assert len(lines) == 1 + len(result.records)
    back = record_from_csv_row(lines[3])
    for col in CSV_COLUMNS:
        assert getattr(back, col) == getattr(result.records[2], col)


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
    assert header == csv_header() + ",exact_err_l2"


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
    assert (tmp_path / "summary.txt").exists()
    assert (tmp_path / "timeseries.csv").exists()


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
    dt = cfl_dt(grid, model, cfg.dt_safety)
    state = make_initial_data(cfg, grid)
    with np.errstate(all="ignore"):
        for step in range(1, round(cfg.T / dt) + 1):
            state = leapfrog_step(state, model, dt)
            if not (np.isfinite(state.u1.values).all()
                    and np.isfinite(state.u2.values).all()):
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
        make_fullline_grid(cfg.L, cfg.N), make_model("sine-gordon"), cfg.dt_safety)


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
