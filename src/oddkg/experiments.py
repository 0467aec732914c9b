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

The time-stepping scenarios share one pipeline: `_fullline` picks the grid
kind, `_Simulation` builds a run at one resolution, and its `simulate` turns
a NaN/Inf blow-up into `status: aborted_nan` with `abort_step`/`abort_t`.

Outputs: ``timeseries.csv`` (fixed column order, 17 significant digits)
and ``summary.txt`` (flat ``key: value`` lines), written atomically into
``output_dir``, created first; failing to create or write it is a ConfigError.
Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, fields
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
    H_loc, VirialConfig, _weights, bilinear_B, bsharp, csv_header, to_w, virial_I,
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

    @property
    def virial(self) -> VirialConfig:
        """The virial weight scale of every scenario that measures it."""
        return VirialConfig(self.lam)


def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(float(c) for c in text.split(",") if c.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad poly_coeffs value {text!r}: {exc}") from None


#: config key -> (attribute, parser), one per ExperimentConfig field, in field
#: order; the key of `lam` is "lambda"
_PARSERS = {"str": str, "float": float, "int": int, "tuple": _parse_coeffs}
_KEY_TABLE = {"lambda" if f.name == "lam" else f.name: (f.name, _PARSERS[f.type])
              for f in fields(ExperimentConfig)}


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
    dx = (2.0 if _fullline(cfg) else 1.0) * cfg.L / (cfg.N + 1)
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
    if _fullline(cfg) and cfg.model != "sine-gordon":
        raise ConfigError("breather data (scenario=breather, conv_mode=breather) "
                          "requires model=sine-gordon")


def _fullline(cfg: ExperimentConfig) -> bool:
    """The one place that decides the grid kind: only breather data runs on the full line."""
    return cfg.scenario == "breather" or (
        cfg.scenario == "convergence" and cfg.conv_mode == "breather")


def _grid(cfg: ExperimentConfig, N: int) -> Grid:
    if _fullline(cfg):
        return make_fullline_grid(cfg.L, N)
    return make_grid(cfg.L, N)


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
        val = ",".join(map(_format_value, val)) if attr == "poly_coeffs" else _format_value(val)
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
        Z = math.sqrt(h1_l2_norm_sq(Field(grid, profile), Field(grid, zero)))
        return State(Field(grid, cfg.epsilon * profile / Z), Field(grid, zero.copy()))
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
    summary: dict
    records: list = field(default_factory=list)
    extra_columns: dict = field(default_factory=dict)
    csv_path: str = ""
    summary_path: str = ""

    @property
    def status(self) -> str:
        return self.summary["status"]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
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


# ----------------------------------------------------------------------
# the time-stepping pipeline: setup, run, breather-error probe
# ----------------------------------------------------------------------

class _Simulation:
    """One time-stepping run of `cfg` at N nodes: grid, model, dt (the CFL
    step of the grid unless given), settings and initial state."""

    def __init__(self, cfg: ExperimentConfig, N: int, dt: float | None = None):
        self.grid = _grid(cfg, N)
        self.model = config_model(cfg)
        if dt is None:
            dt = cfl_dt(self.grid, self.model, cfg.dt_safety)
        self.settings = RunSettings(dt=dt, T=cfg.T, record_every=cfg.record_every)
        self.vcfg = cfg.virial
        #: the exact solution, when the data is a breather (on the full line)
        self.breather = BreatherParams(cfg.beta) if _fullline(cfg) else None
        if self.breather is None:
            self.initial = make_initial_data(cfg, self.grid)
        else:
            self.initial = breather_state(self.breather, 0.0, self.grid)

    def simulate(self, on_record=None) -> tuple[list, dict]:
        """Run to T; returns the records and the abort keys.

        A NaN/Inf state is a scenario outcome, not an exception: the records
        before it come back with {abort_step, abort_t}, for the summary of a
        run with status aborted_nan.  Otherwise the abort keys are {}.
        """
        try:
            return run(self.initial, self.model, self.settings, self.vcfg,
                       on_record=on_record), {}
        except BlowupError as exc:
            return exc.records, {"abort_step": exc.step, "abort_t": exc.t}


class _BreatherError:
    """On-record probe: L2 distance of u1 from the exact breather at the same t."""

    def __init__(self, sim: _Simulation):
        self.params = sim.breather
        self.grid = sim.grid
        self.errors = []

    def __call__(self, state: State, rec) -> None:
        diff = state.u1.values - breather_exact(self.params, state.t, self.grid.x)
        self.errors.append(math.sqrt(integrate_fullline(diff * diff, self.grid)))


def _base_summary(cfg: ExperimentConfig, sim: _Simulation, abort: dict) -> dict:
    return {
        "scenario": cfg.scenario,
        "status": "aborted_nan" if abort else "ok",
        "model": cfg.model,
        "L": cfg.L,
        "N": cfg.N,
        "dx": sim.grid.dx,
        "dt": sim.settings.dt,
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
    sim = _Simulation(cfg, cfg.N)
    probe = _DecayProbe(sim.model, cfg.epsilon)
    records, abort = sim.simulate(on_record=probe)

    summary = _base_summary(cfg, sim, abort)
    if probe.aborted:
        summary["status"] = "aborted_smallness"
    summary["epsilon"] = cfg.epsilon
    summary["sigma"] = cfg.sigma
    summary["data_family"] = cfg.data_family
    summary.update(_decay_metrics(records, cfg.epsilon))
    summary["max_sfsix_const"] = max(probe.sfsix) if probe.sfsix else math.nan
    summary["sup_energy_norm"] = probe.sup_energy_norm
    summary["smallness_bound"] = SMALLNESS_FACTOR * cfg.epsilon
    summary["smallness_ok"] = summary["status"] == "ok"
    summary.update(abort)
    if abort and len(records) < 2:
        # the only record precedes the blow-up: there is no span to compare over
        summary.update(dict.fromkeys(_TWO_RECORD_RATIOS, math.nan))
    return ScenarioResult(summary, records)


# ----------------------------------------------------------------------
# breather scenario
# ----------------------------------------------------------------------

def _run_breather(cfg: ExperimentConfig) -> ScenarioResult:
    sim = _Simulation(cfg, cfg.N)
    params, probe = sim.breather, _BreatherError(sim)
    records, abort = sim.simulate(on_record=probe)

    summary = _base_summary(cfg, sim, abort)
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
    summary["max_exact_err_l2"] = max(probe.errors) if probe.errors else math.nan
    summary["final_exact_err_l2"] = probe.errors[-1] if probe.errors else math.nan
    summary.update(abort)
    return ScenarioResult(summary, records, {"exact_err_l2": probe.errors})


# ----------------------------------------------------------------------
# convergence scenario
# ----------------------------------------------------------------------

#: (raw metric, summary key of its observed order); exact_err in breather mode only
_ORDERS = (("drift", "order_energy_drift"), ("virial_resid", "order_virial_residual"),
           ("exact_err", "order_exact_error"))
_NAN_METRICS = dict.fromkeys((key for key, _ in _ORDERS), math.nan)


def _refinement_metrics(sim: _Simulation, resolution: str) -> tuple[dict, dict]:
    """One resolution of the convergence study: its raw metrics and abort keys.
    A run that blew up covers a shorter span than the other, so its metrics are nan."""
    probe = _BreatherError(sim) if sim.breather is not None else None
    records, abort = sim.simulate(on_record=probe)
    if abort:
        return _NAN_METRICS, {**abort, "abort_resolution": resolution}

    E = np.array([r.E for r in records])
    scale = abs(E[0]) if E[0] != 0.0 else 1.0
    drift = float(np.max(np.abs(E - E[0])) / scale)
    resid = np.array([abs(r.dI_dt_numeric - r.dI_dt_rhs) for r in records])
    rhs_scale = float(np.max(np.abs([r.dI_dt_rhs for r in records])))
    virial_resid = float(np.max(resid) / rhs_scale) if rhs_scale > 0 else math.nan
    exact_err = probe.errors[-1] if probe is not None else math.nan
    return {"drift": drift, "virial_resid": virial_resid, "exact_err": exact_err}, {}


def _run_convergence(cfg: ExperimentConfig) -> ScenarioResult:
    coarse = _Simulation(cfg, cfg.N)
    fine = _Simulation(cfg, 2 * cfg.N + 1, 0.5 * coarse.settings.dt)
    c, abort = _refinement_metrics(coarse, "coarse")
    # a blown-up coarse run leaves nothing to compare the fine run with
    f, abort = (_NAN_METRICS, abort) if abort else _refinement_metrics(fine, "fine")

    summary = _base_summary(cfg, coarse, abort)
    summary["conv_mode"] = cfg.conv_mode
    summary["dx_coarse"] = coarse.grid.dx
    summary["dx_fine"] = fine.grid.dx
    summary["dt_coarse"] = coarse.settings.dt
    summary["dt_fine"] = fine.settings.dt
    for key, order_key in _ORDERS if coarse.breather is not None else _ORDERS[:2]:
        a = summary[f"{key}_coarse"] = c[key]
        b = summary[f"{key}_fine"] = f[key]
        summary[order_key] = math.log2(a / b) if a > 0 and b > 0 else math.nan
    summary.update(abort)
    return ScenarioResult(summary)


# ----------------------------------------------------------------------
# spectral scenario
# ----------------------------------------------------------------------

def _check_summary(cfg: ExperimentConfig, grid: Grid) -> dict:
    """Leading summary keys of the scenarios that check a grid, not a run."""
    return {"scenario": cfg.scenario, "status": "ok", "lambda": cfg.lam, "L": cfg.L,
            "N": cfg.N, "dx": grid.dx}


def _run_spectral(cfg: ExperimentConfig) -> ScenarioResult:
    from .spectral import coercivity_certificate, index_check

    grid = _grid(cfg, cfg.N)
    summary = _check_summary(cfg, grid)
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
    return ScenarioResult(summary)


# ----------------------------------------------------------------------
# virial-check scenario
# ----------------------------------------------------------------------

def _run_virial_check(cfg: ExperimentConfig, n_fields: int = 100) -> ScenarioResult:
    grid = _grid(cfg, cfg.N)
    vcfg = cfg.virial
    W = _weights(grid, cfg.lam)
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
        # I(u1, u1) against the integral of its integrand's magnitude (psi >= 0)
        scale = float(np.dot(W.psi, np.abs(derivative(u1).values * u1.values))
                      + 0.5 * np.dot(W.psip, u1.values ** 2))
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
    summary = _check_summary(cfg, grid)
    if not ok:
        summary["status"] = "failed_checks"
    summary.update({
        "seed": cfg.seed,
        "n_fields": n_fields,
        "max_rel_B_vs_Bsharp": max_b,
        "max_rel_I_selfpair": max_ipair,
        "max_rel_H_decomp": max_hdec,
        "tol_B_vs_Bsharp": VIRIAL_CHECK_TOL["B_vs_Bsharp"],
        "tol_I_selfpair": VIRIAL_CHECK_TOL["I_selfpair"],
        "tol_H_decomp": VIRIAL_CHECK_TOL["H_decomp"],
    })
    return ScenarioResult(summary)


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
    outdir = Path(cfg.output_dir)
    if write_files:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output_dir {outdir}: {exc}") from exc
    result = _SCENARIO_RUNNERS[cfg.scenario](cfg)
    if write_files:
        csv_path = outdir / "timeseries.csv"
        summary_path = outdir / "summary.txt"
        try:
            write_timeseries(result.records, csv_path, result.extra_columns or None)
            write_summary(result.summary, summary_path)
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        result.csv_path = str(csv_path)
        result.summary_path = str(summary_path)
    return result
