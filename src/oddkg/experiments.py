"""Experiment configuration, scenario orchestration, and file output.

Configs are flat ``key=value`` text (one pair per line, ``#`` comments);
unknown keys are rejected rather than ignored, so typos fail loudly.
Five scenarios turn the decay machinery into runnable experiments:

* decay        small odd data on the half-line; reports the localized
               energy ratio H(T)/H(0), the running time integral J of the
               weighted norms, and the empirical virial constants.
* breather     full-line sine-Gordon run from exact breather data; the
               non-decaying contrast case.
* convergence  the same run at (dx, dt) and (dx/2, dt/2); reports
               observed orders for energy drift, the virial-identity
               residual, and (breather mode) the exact-solution error.
* spectral     bound-state counts against the closed-form index for a
               battery of potential strengths, plus the odd/even
               coercivity certificates at the configured scale.
* virial-check single-state identity tests over 100 reproducible
               pseudo-random odd fields.

Outputs: ``timeseries.csv`` (fixed column order, 17 significant digits)
and ``summary.txt`` (flat ``key: value`` lines), written atomically.
Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exact import BreatherParams, breather_exact, breather_state
from .grid import (
    Field, Grid, State, derivative, h1_l2_norm_sq, integrate_fullline,
    make_fullline_grid, make_grid,
)
from .integrator import BlowupError, RunSettings, StopRun, cfl_dt, run
from .models import CATALOG_NAMES, Model, make_model
from .virial import (
    H_loc, VirialConfig, bilinear_B, bsharp, csv_header, to_w, virial_I,
    weighted_norms,
)

SCENARIOS = ("decay", "breather", "convergence", "spectral", "virial-check")
DATA_FAMILIES = ("gauss-odd-displacement", "gauss-odd-velocity")

#: verification battery of potential strengths for the spectral scenario
SPECTRAL_BATTERY_V0 = (0.0, 0.5, 2.0, 6.0)

#: identity-test thresholds for the virial-check scenario (dx = 0.01 scale)
VIRIAL_CHECK_TOL = {"B_vs_Bsharp": 1e-4, "I_selfpair": 1e-4, "H_decomp": 1e-12}

#: decay runs abort once the energy norm exceeds this multiple of epsilon
SMALLNESS_FACTOR = 3.0

#: smallest lambda/dx accepted: the sech^2(x/lambda) weights and potentials
#: need a few grid points across their width
MIN_LAMBDA_OVER_DX = 4.0


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    model: str = "sine-gordon"
    poly_m: float = -1.0
    poly_coeffs: tuple = ()
    epsilon: float = 0.05
    sigma: float = 2.0
    L: float = 80.0
    N: int = 7999
    dt_safety: float = 0.4
    T: float = 200.0
    lam: float = 10.0
    record_every: int = 25
    beta: float = 0.5
    seed: int = 12345
    output_dir: str = "."
    data_family: str = "gauss-odd-displacement"
    conv_mode: str = "decay"


# config key -> (attribute, parser)
def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(float(c) for c in text.split(",") if c.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad poly_coeffs value {text!r}: {exc}") from None


_KEY_TABLE = {
    "scenario": ("scenario", str),
    "model": ("model", str),
    "poly_m": ("poly_m", float),
    "poly_coeffs": ("poly_coeffs", _parse_coeffs),
    "epsilon": ("epsilon", float),
    "sigma": ("sigma", float),
    "L": ("L", float),
    "N": ("N", int),
    "dt_safety": ("dt_safety", float),
    "T": ("T", float),
    "lambda": ("lam", float),
    "record_every": ("record_every", int),
    "beta": ("beta", float),
    "seed": ("seed", int),
    "output_dir": ("output_dir", str),
    "data_family": ("data_family", str),
    "conv_mode": ("conv_mode", str),
}


def parse_pairs(text: str) -> dict:
    """First stage: raw key=value pairs from config text."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_config(pairs: dict) -> ExperimentConfig:
    """Second stage: typed, validated config from raw pairs."""
    kwargs = {}
    for key, value in pairs.items():
        if key not in _KEY_TABLE:
            raise ConfigError(f"unknown config key {key!r}")
        attr, conv = _KEY_TABLE[key]
        try:
            kwargs[attr] = conv(value)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
    if "scenario" not in kwargs:
        raise ConfigError("missing required key 'scenario'")
    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}; choose one of {SCENARIOS}")
    if cfg.model not in CATALOG_NAMES:
        raise ConfigError(f"unknown model {cfg.model!r}; choose one of {CATALOG_NAMES}")
    if not cfg.epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {cfg.epsilon}")
    if not cfg.sigma > 0:
        raise ConfigError(f"sigma must be positive, got {cfg.sigma}")
    if not cfg.L > 0:
        raise ConfigError(f"L must be positive, got {cfg.L}")
    if cfg.N < 16:
        raise ConfigError(f"N must be at least 16, got {cfg.N}")
    if not 0.0 < cfg.dt_safety < 1.0:
        raise ConfigError(f"dt_safety must lie in (0, 1), got {cfg.dt_safety}")
    if cfg.T < 0:
        raise ConfigError(f"T must be nonnegative, got {cfg.T}")
    if not cfg.lam > 0:
        raise ConfigError(f"lambda must be positive, got {cfg.lam}")
    fullline = cfg.scenario == "breather" or (
        cfg.scenario == "convergence" and cfg.conv_mode == "breather")
    dx = (2.0 if fullline else 1.0) * cfg.L / (cfg.N + 1)
    if cfg.lam < MIN_LAMBDA_OVER_DX * dx:
        raise ConfigError(f"lambda={cfg.lam:g} is not resolved by the grid: it must be "
                          f"at least {MIN_LAMBDA_OVER_DX:g}*dx = {MIN_LAMBDA_OVER_DX * dx:g}")
    if cfg.record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {cfg.record_every}")
    if not 0.0 < cfg.beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {cfg.beta}")
    if cfg.data_family not in DATA_FAMILIES:
        raise ConfigError(f"unknown data_family {cfg.data_family!r}")
    if cfg.conv_mode not in ("decay", "breather"):
        raise ConfigError(f"conv_mode must be 'decay' or 'breather', got {cfg.conv_mode!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config file."""
    return build_config(parse_pairs(text))


def config_model(cfg: ExperimentConfig) -> Model:
    if cfg.model == "custom-poly":
        return make_model("custom-poly", {"m": cfg.poly_m, "coeffs": cfg.poly_coeffs})
    return make_model(cfg.model)


def describe(cfg: ExperimentConfig) -> str:
    """Resolved configuration, one key=value per line (CLI --describe)."""
    lines = []
    for key, (attr, _) in _KEY_TABLE.items():
        val = getattr(cfg, attr)
        if attr == "poly_coeffs":
            val = ",".join(f"{c:.17g}" for c in val)
        elif isinstance(val, float):
            val = f"{val:.17g}"
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def make_initial_data(cfg: ExperimentConfig, grid: Grid) -> State:
    """Small odd data with an exact discrete norm of epsilon.

    gauss-odd-displacement: u1 = eps * x exp(-x^2/sigma^2) / Z, u2 = 0,
    Z fixed so the discrete H1 x L2 norm of the state equals eps.
    gauss-odd-velocity: the same profile placed in u2, normalized in L2.
    """
    profile = grid.x * np.exp(-(grid.x ** 2) / cfg.sigma ** 2)
    zero = np.zeros(grid.N)
    if cfg.data_family == "gauss-odd-displacement":
        raw = State(Field(grid, profile), Field(grid, zero))
        Z = math.sqrt(h1_l2_norm_sq(raw.u1, raw.u2))
        return State(Field(grid, cfg.epsilon * profile / Z), Field(grid, zero.copy()))
    raw = Field(grid, profile)
    Z = math.sqrt(integrate_fullline(profile * profile, grid))
    return State(Field(grid, zero), Field(grid, cfg.epsilon * profile / Z))


# ----------------------------------------------------------------------
# reproducible pseudo-random odd fields (virial-check scenario)
# ----------------------------------------------------------------------

_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_M = 2 ** 32


class Lcg:
    """Numerical-Recipes linear congruential generator.

    Deliberately self-contained: the virial-check battery must be
    reproducible from the seed alone, with no dependence on any RNG
    library's stream format.
    """

    def __init__(self, seed: int):
        self.state = seed % _LCG_M

    def uniform_pm1(self) -> float:
        """Next draw in [-1, 1)."""
        self.state = (_LCG_A * self.state + _LCG_C) % _LCG_M
        return 2.0 * self.state / _LCG_M - 1.0


def random_odd_field(grid: Grid, lcg: Lcg, n_modes: int = 5) -> Field:
    """Sum of sine modes under a fixed Gaussian envelope exp(-x^2/25)."""
    envelope = np.exp(-(grid.x ** 2) / 25.0)
    vals = np.zeros(grid.N)
    for k in range(1, n_modes + 1):
        c = lcg.uniform_pm1()
        vals += c * np.sin(k * math.pi * grid.x / grid.L)
    return Field(grid, vals * envelope)


# ----------------------------------------------------------------------
# scenario results and file output
# ----------------------------------------------------------------------

@dataclass
class ScenarioResult:
    status: str
    summary: dict
    records: list = field(default_factory=list)
    extra_columns: dict = field(default_factory=dict)
    csv_path: str = ""
    summary_path: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def write_timeseries(records, path, extra_columns: dict | None = None) -> None:
    """CSV with the fixed diagnostic columns plus optional extra columns."""
    path = Path(path)
    extra = extra_columns or {}
    header = csv_header()
    if extra:
        header = header + "," + ",".join(extra.keys())
    lines = [header]
    for i, rec in enumerate(records):
        row = rec.csv_row()
        if extra:
            row = row + "," + ",".join(f"{col[i]:.16e}" for col in extra.values())
        lines.append(row)
    _atomic_write(path, "\n".join(lines) + "\n")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_summary(summary: dict, path) -> None:
    """Flat key: value lines, insertion order preserved."""
    path = Path(path)
    lines = [f"{k}: {_format_value(v)}" for k, v in summary.items()]
    _atomic_write(path, "\n".join(lines) + "\n")


def _base_summary(cfg: ExperimentConfig, grid: Grid, dt: float) -> dict:
    return {
        "scenario": cfg.scenario,
        "status": "ok",
        "model": cfg.model,
        "L": cfg.L,
        "N": cfg.N,
        "dx": grid.dx,
        "dt": dt,
        "T": cfg.T,
        "lambda": cfg.lam,
        "record_every": cfg.record_every,
    }


# ----------------------------------------------------------------------
# decay scenario
# ----------------------------------------------------------------------

class _DecayProbe:
    """Per-record accumulation that the CSV schema does not carry."""

    def __init__(self, model: Model, epsilon: float):
        self.model = model
        self.limit = SMALLNESS_FACTOR * epsilon
        self.sup_energy_norm = 0.0
        self.sfsix = []
        self.aborted = False

    def __call__(self, state: State, rec) -> None:
        norm = math.sqrt(rec.energy_norm_sq)
        self.sup_energy_norm = max(self.sup_energy_norm, norm)
        nonlinear = (-rec.dI_dt_rhs) - rec.B_val
        denom = rec.dw_norm_sq * float(np.float64(rec.sup_u1) ** (self.model.p - 1.0))
        if denom > 0.0:
            self.sfsix.append(abs(nonlinear) / denom)
        if norm > self.limit:
            self.aborted = True
            raise StopRun()


#: decay summary values that compare the run's last record with earlier ones
_TWO_RECORD_RATIOS = ("H_ratio", "J_plateau_increment_ratio", "J_over_eps2",
                      "min_virial_ratio_after_t1", "max_dH_ratio")


def _decay_metrics(records, epsilon: float) -> dict:
    t = np.array([r.t for r in records])
    w2 = np.array([r.H1w_sq + r.L2w_sq for r in records])
    H = np.array([r.H for r in records])
    J_total = float(np.trapezoid(w2, t)) if len(records) > 1 else 0.0
    half_idx = int(np.argmin(np.abs(t - 0.5 * t[-1])))
    J_half = float(np.trapezoid(w2[: half_idx + 1], t[: half_idx + 1])) if half_idx > 0 else 0.0
    plateau = (J_total - J_half) / J_half if J_half > 0 else math.nan
    ratios = [
        (-r.dI_dt_rhs) / r.H1w_sq
        for r in records
        if r.t >= 1.0 and r.H1w_sq > 0.0
    ]
    dh_ratios = [
        abs(r.dH_dt_analytic) / (r.H1w_sq + r.L2w_sq)
        for r in records
        if r.H1w_sq + r.L2w_sq > 0.0
    ]
    return {
        "n_records": len(records),
        "H_initial": float(H[0]),
        "H_final": float(H[-1]),
        "H_ratio": float(H[-1] / H[0]) if H[0] > 0 else math.nan,
        "J_total": J_total,
        "J_half": J_half,
        "J_plateau_increment_ratio": plateau,
        "J_over_eps2": J_total / epsilon ** 2,
        "min_virial_ratio_after_t1": min(ratios) if ratios else math.nan,
        "max_dH_ratio": max(dh_ratios) if dh_ratios else math.nan,
    }


def _run_decay(cfg: ExperimentConfig) -> ScenarioResult:
    grid = make_grid(cfg.L, cfg.N)
    model = config_model(cfg)
    dt = cfl_dt(grid, model, cfg.dt_safety)
    settings = RunSettings(dt=dt, T=cfg.T, record_every=cfg.record_every)
    vcfg = VirialConfig(cfg.lam)
    initial = make_initial_data(cfg, grid)
    probe = _DecayProbe(model, cfg.epsilon)

    status = "ok"
    blowup = None
    try:
        records = run(initial, model, settings, vcfg, on_record=probe)
    except BlowupError as exc:
        records, blowup = exc.records, exc
        status = "aborted_nan"
    if probe.aborted:
        status = "aborted_smallness"

    summary = _base_summary(cfg, grid, dt)
    summary["status"] = status
    summary["epsilon"] = cfg.epsilon
    summary["sigma"] = cfg.sigma
    summary["data_family"] = cfg.data_family
    summary.update(_decay_metrics(records, cfg.epsilon))
    summary["max_sfsix_const"] = max(probe.sfsix) if probe.sfsix else math.nan
    summary["sup_energy_norm"] = probe.sup_energy_norm
    summary["smallness_bound"] = SMALLNESS_FACTOR * cfg.epsilon
    summary["smallness_ok"] = status == "ok"
    if blowup is not None:
        summary["abort_step"] = blowup.step
        summary["abort_t"] = blowup.t
        if len(records) < 2:
            # the only record precedes the blow-up: there is no span to compare over
            summary.update(dict.fromkeys(_TWO_RECORD_RATIOS, math.nan))
    return ScenarioResult(status=status, summary=summary, records=records)


# ----------------------------------------------------------------------
# breather scenario
# ----------------------------------------------------------------------

def _run_breather(cfg: ExperimentConfig) -> ScenarioResult:
    if cfg.model != "sine-gordon":
        raise ConfigError("the breather scenario requires model=sine-gordon")
    grid = make_fullline_grid(cfg.L, cfg.N)
    model = config_model(cfg)
    dt = cfl_dt(grid, model, cfg.dt_safety)
    settings = RunSettings(dt=dt, T=cfg.T, record_every=cfg.record_every)
    vcfg = VirialConfig(cfg.lam)
    params = BreatherParams(cfg.beta)
    initial = breather_state(params, 0.0, grid)

    err_l2 = []

    def probe(state: State, rec) -> None:
        diff = state.u1.values - breather_exact(params, state.t, grid.x)
        err_l2.append(math.sqrt(integrate_fullline(diff * diff, grid)))

    status = "ok"
    try:
        records = run(initial, model, settings, vcfg, on_record=probe)
    except BlowupError as exc:
        records = exc.records
        status = "aborted_nan"

    summary = _base_summary(cfg, grid, dt)
    summary["status"] = status
    summary["beta"] = cfg.beta
    summary["alpha"] = params.alpha
    summary["period"] = params.period
    summary["n_records"] = len(records)
    t = np.array([r.t for r in records])
    H = np.array([r.H for r in records])
    summary["H_initial"] = float(H[0])
    n_periods = int(math.floor(cfg.T / params.period + 1e-9))
    summary["n_periods"] = n_periods
    ratios = []
    for kper in range(1, n_periods + 1):
        idx = int(np.argmin(np.abs(t - kper * params.period)))
        ratio = float(H[idx] / H[0]) if H[0] > 0 else math.nan
        summary[f"H_period_ratio_{kper}"] = ratio
        ratios.append(ratio)
    summary["min_period_ratio"] = min(ratios) if ratios else math.nan
    summary["max_exact_err_l2"] = max(err_l2) if err_l2 else math.nan
    summary["final_exact_err_l2"] = err_l2[-1] if err_l2 else math.nan
    return ScenarioResult(
        status=status, summary=summary, records=records,
        extra_columns={"exact_err_l2": err_l2},
    )


# ----------------------------------------------------------------------
# convergence scenario
# ----------------------------------------------------------------------

def _refinement_metrics(cfg: ExperimentConfig, N: int, dt: float) -> dict:
    """One resolution of the convergence study; returns the raw metrics."""
    model = config_model(cfg)
    vcfg = VirialConfig(cfg.lam)
    holder = {}
    probe = None
    if cfg.conv_mode == "breather":
        grid = make_fullline_grid(cfg.L, N)
        params = BreatherParams(cfg.beta)
        initial = breather_state(params, 0.0, grid)

        def probe(state, rec):
            diff = state.u1.values - breather_exact(params, state.t, grid.x)
            holder["err"] = math.sqrt(integrate_fullline(diff * diff, grid))
    else:
        grid = make_grid(cfg.L, N)
        initial = make_initial_data(cfg, grid)
    settings = RunSettings(dt=dt, T=cfg.T, record_every=cfg.record_every)
    records = run(initial, model, settings, vcfg, on_record=probe)

    E = np.array([r.E for r in records])
    scale = abs(E[0]) if E[0] != 0.0 else 1.0
    drift = float(np.max(np.abs(E - E[0])) / scale)
    resid = np.array([abs(r.dI_dt_numeric - r.dI_dt_rhs) for r in records])
    rhs_scale = float(np.max(np.abs([r.dI_dt_rhs for r in records])))
    virial_resid = float(np.max(resid) / rhs_scale) if rhs_scale > 0 else math.nan
    out = {"drift": drift, "virial_resid": virial_resid, "dx": grid.dx, "dt": dt}
    if cfg.conv_mode == "breather":
        out["exact_err"] = holder["err"]
    return out


def _run_convergence(cfg: ExperimentConfig) -> ScenarioResult:
    grid = make_grid(cfg.L, cfg.N)
    model = config_model(cfg)
    dt = cfl_dt(grid, model, cfg.dt_safety)
    coarse = _refinement_metrics(cfg, cfg.N, dt)
    fine = _refinement_metrics(cfg, 2 * cfg.N + 1, 0.5 * dt)

    def order(a, b):
        if a > 0 and b > 0:
            return math.log2(a / b)
        return math.nan

    summary = _base_summary(cfg, grid, dt)
    summary["conv_mode"] = cfg.conv_mode
    summary["dx_coarse"] = coarse["dx"]
    summary["dx_fine"] = fine["dx"]
    summary["dt_coarse"] = coarse["dt"]
    summary["dt_fine"] = fine["dt"]
    summary["drift_coarse"] = coarse["drift"]
    summary["drift_fine"] = fine["drift"]
    summary["order_energy_drift"] = order(coarse["drift"], fine["drift"])
    summary["virial_resid_coarse"] = coarse["virial_resid"]
    summary["virial_resid_fine"] = fine["virial_resid"]
    summary["order_virial_residual"] = order(coarse["virial_resid"], fine["virial_resid"])
    if cfg.conv_mode == "breather":
        summary["exact_err_coarse"] = coarse["exact_err"]
        summary["exact_err_fine"] = fine["exact_err"]
        summary["order_exact_error"] = order(coarse["exact_err"], fine["exact_err"])
    return ScenarioResult(status="ok", summary=summary, records=[])


# ----------------------------------------------------------------------
# spectral scenario
# ----------------------------------------------------------------------

def _run_spectral(cfg: ExperimentConfig) -> ScenarioResult:
    from .spectral import coercivity_certificate, index_check

    grid = make_grid(cfg.L, cfg.N)
    summary = {
        "scenario": cfg.scenario,
        "status": "ok",
        "lambda": cfg.lam,
        "L": cfg.L,
        "N": cfg.N,
        "dx": grid.dx,
    }
    all_ok = True
    for V0 in SPECTRAL_BATTERY_V0:
        chk = index_check(grid, V0, cfg.lam)
        tag = f"V0_{V0:g}"
        summary[f"pt_index_{tag}"] = chk.predicted
        summary[f"count_odd_{tag}"] = chk.count_odd
        summary[f"count_even_{tag}"] = chk.count_even
        summary[f"counts_match_{tag}"] = chk.counts_match
        summary[f"marginal_odd_{tag}"] = chk.marginal_odd
        summary[f"marginal_even_{tag}"] = chk.marginal_even
        all_ok = all_ok and chk.counts_match and chk.marginals_near_zero
    for parity in ("odd", "even"):
        rep = coercivity_certificate(cfg.lam, grid, parity=parity)
        summary.update(rep.as_summary(prefix=f"cert_{parity}_"))
    if not all_ok:
        summary["status"] = "failed_checks"
    return ScenarioResult(status=summary["status"], summary=summary, records=[])


# ----------------------------------------------------------------------
# virial-check scenario
# ----------------------------------------------------------------------

def _run_virial_check(cfg: ExperimentConfig, n_fields: int = 100) -> ScenarioResult:
    grid = make_grid(cfg.L, cfg.N)
    vcfg = VirialConfig(cfg.lam)
    lcg = Lcg(cfg.seed)

    max_b = 0.0
    max_ipair = 0.0
    max_hdec = 0.0
    for _ in range(n_fields):
        u1 = random_odd_field(grid, lcg)
        B = bilinear_B(u1, vcfg)
        Bs = bsharp(to_w(u1, vcfg), vcfg)
        max_b = max(max_b, abs(B - Bs) / max(abs(B), 1e-12))

        state = State(u1, u1.copy())
        du1 = derivative(u1).values
        wt_psi = vcfg.lam * np.tanh(grid.x / vcfg.lam)
        wt_psip = 1.0 / np.cosh(grid.x / vcfg.lam) ** 2
        scale = integrate_fullline(
            np.abs(wt_psi * du1 * u1.values) + 0.5 * wt_psip * u1.values ** 2,
            grid, origin="even",
        )
        ipair = virial_I(state, vcfg)
        max_ipair = max(max_ipair, abs(ipair) / max(scale, 1e-12))

        h1w, l2w = weighted_norms(state)
        H = H_loc(state)
        max_hdec = max(max_hdec, abs(H - (h1w + l2w)) / max(abs(H), 1e-12))

    ok = (
        max_b < VIRIAL_CHECK_TOL["B_vs_Bsharp"]
        and max_ipair < VIRIAL_CHECK_TOL["I_selfpair"]
        and max_hdec < VIRIAL_CHECK_TOL["H_decomp"]
    )
    summary = {
        "scenario": cfg.scenario,
        "status": "ok" if ok else "failed_checks",
        "lambda": cfg.lam,
        "L": cfg.L,
        "N": cfg.N,
        "dx": grid.dx,
        "seed": cfg.seed,
        "n_fields": n_fields,
        "max_rel_B_vs_Bsharp": max_b,
        "max_rel_I_selfpair": max_ipair,
        "max_rel_H_decomp": max_hdec,
        "tol_B_vs_Bsharp": VIRIAL_CHECK_TOL["B_vs_Bsharp"],
        "tol_I_selfpair": VIRIAL_CHECK_TOL["I_selfpair"],
        "tol_H_decomp": VIRIAL_CHECK_TOL["H_decomp"],
    }
    return ScenarioResult(status=summary["status"], summary=summary, records=[])


_SCENARIO_RUNNERS = {
    "decay": _run_decay,
    "breather": _run_breather,
    "convergence": _run_convergence,
    "spectral": _run_spectral,
    "virial-check": _run_virial_check,
}


def run_scenario(cfg: ExperimentConfig, write_files: bool = True) -> ScenarioResult:
    """Execute the configured scenario; optionally write the artifacts."""
    validate_config(cfg)
    result = _SCENARIO_RUNNERS[cfg.scenario](cfg)
    if write_files:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / "timeseries.csv"
        summary_path = outdir / "summary.txt"
        write_timeseries(result.records, csv_path, result.extra_columns or None)
        write_summary(result.summary, summary_path)
        result.csv_path = str(csv_path)
        result.summary_path = str(summary_path)
    return result
