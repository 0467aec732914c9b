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

`validate_config` sets a scenario up once, as a `_Simulation`, which makes its
grid and the convergence study's fine run.  The time-stepping scenarios share
`simulate`, which runs the initial state with the one record observer (the
exact-breather error, and a stop test such as the decay smallness guard); a
NaN/Inf blow-up becomes `status: aborted_nan` with `abort_step`/`abort_t`.

Outputs: ``timeseries.csv`` (`write_timeseries`) and ``summary.txt`` (flat
``key: value`` lines, `format_summary`).  This module writes every byte of
both; the modules it calls return numbers.  Every float keeps 17 significant
digits, which ``float()`` reads back bit for bit.  Both go atomically into
``output_dir``, created first; failing to create or write it is a ConfigError.
Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .exact import BreatherParams, breather_exact, breather_state
from .grid import (Grid, State, check_spacing, integrate_fullline, make_fullline_grid,
                   make_grid, spacing)
from .integrator import BlowupError, RunSettings, cfl_dt, run
from .models import Model, make_model
from .virial import (
    CSV_COLUMNS, H_loc, VirialConfig, bilinear_B, bsharp, energy_norm_sq, to_w, virial_I,
    virial_I_abs, weighted_norms,
)

DATA_FAMILIES = ("gauss-odd-displacement", "gauss-odd-velocity")

#: verification battery of potential strengths for the spectral scenario
SPECTRAL_BATTERY_V0 = (0.0, 0.5, 2.0, 6.0)

#: identity-test thresholds for the virial-check scenario (dx = 0.01 scale)
VIRIAL_CHECK_TOL = {"B_vs_Bsharp": 1e-4, "I_selfpair": 1e-4, "H_decomp": 1e-12}

#: the virial-check battery: this many random odd fields of this many sine modes
VIRIAL_CHECK_FIELDS = 100
VIRIAL_CHECK_MODES = 5

#: decay runs abort once the energy norm exceeds this multiple of epsilon
SMALLNESS_FACTOR = 3.0

#: most time steps one run may take: a run asking for more (a tiny dx with a
#: long T can ask for 1e150) is a config error, not an endless loop
MAX_STEPS = 10 ** 8

#: most grid nodes one run may hold: 8 GB per array, and a run holds several,
#: so no larger grid can run; a larger N is a config error before output_dir is made
MAX_NODES = 10 ** 9

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


def validate_config(cfg: ExperimentConfig) -> _Simulation:
    """The run of `cfg`, with each library object it needs made once here and no
    array; a ConfigError unless `cfg` meets the experiment's rules and the library's."""
    for key, (attr, conv) in _KEY_TABLE.items():
        if conv is float and not math.isfinite(getattr(cfg, attr)):
            raise ConfigError(f"{key} must be finite, got {getattr(cfg, attr)}")
    if not all(map(math.isfinite, cfg.poly_coeffs)):
        raise ConfigError(f"poly_coeffs must be finite, got {cfg.poly_coeffs}")
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}; choose one of {SCENARIOS}")
    if not cfg.epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {cfg.epsilon}")
    # the summary divides by epsilon^2; the smallness guard squares norms up to 3 epsilon
    bound = SMALLNESS_FACTOR * cfg.epsilon
    if not (cfg.epsilon * cfg.epsilon > 0.0 and bound * bound < math.inf):
        raise ConfigError(f"epsilon={cfg.epsilon:g} is out of range: epsilon^2 and "
                          f"({SMALLNESS_FACTOR:g}*epsilon)^2 must be positive and finite")
    if not (cfg.sigma > 0 and 0.0 < cfg.sigma * cfg.sigma < math.inf):
        raise ConfigError(f"sigma must be positive, with a positive and finite square, "
                          f"got {cfg.sigma}")
    if cfg.data_family not in DATA_FAMILIES:
        raise ConfigError(f"unknown data_family {cfg.data_family!r}")
    if cfg.conv_mode not in ("decay", "breather"):
        raise ConfigError(f"conv_mode must be 'decay' or 'breather', got {cfg.conv_mode!r}")
    fullline = cfg.scenario == "breather" or (  # only breather data runs on the full line
        cfg.scenario == "convergence" and cfg.conv_mode == "breather")
    if fullline and cfg.model != "sine-gordon":
        raise ConfigError("breather data (scenario=breather, conv_mode=breather) "
                          "requires model=sine-gordon")
    try:
        dx = spacing(cfg.L, cfg.N, fullline)
        model = config_model(cfg)
        settings = RunSettings(cfl_dt(dx, model, cfg.dt_safety), cfg.T, cfg.record_every)
        vcfg, breather = VirialConfig(cfg.lam), BreatherParams(cfg.beta)
        sim = _Simulation(cfg, cfg.N, dx, model, settings, vcfg,
                          breather if fullline else None)
        # the runs that step time; the convergence study adds its fine run
        runs = ((sim, sim.refined()) if cfg.scenario == "convergence"
                else (sim,) if cfg.scenario in ("decay", "breather") else ())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.lam < MIN_LAMBDA_OVER_DX * dx:
        raise ConfigError(f"lambda={cfg.lam:g} is not resolved by the grid: it must be "
                          f"at least {MIN_LAMBDA_OVER_DX:g}*dx = {MIN_LAMBDA_OVER_DX * dx:g}")
    for dt in (r.settings.dt for r in runs):
        if cfg.T / dt > MAX_STEPS:
            raise ConfigError(f"T={cfg.T:g} at dt={dt:g} is {cfg.T / dt:.3g} steps, "
                              f"more than the {MAX_STEPS:g} one run may take")
    for r in runs or (sim,):  # the grids that the scenario makes
        if r.N > MAX_NODES:
            raise ConfigError(f"a grid of N={r.N} nodes does not fit in memory: "
                              f"one run may hold {MAX_NODES:g}")
    for r in (r for r in runs if r.breather is None):
        low, high = _profile_norm_sq_bounds(cfg, r.dx, r.N)
        if not low > 0.0:
            raise ConfigError(f"the profile of sigma={cfg.sigma:g} has norm 0 on this grid; "
                              f"it must be positive and finite")
        if not high < math.inf:
            raise ConfigError(f"the profile of sigma={cfg.sigma:g} has a norm that overflows "
                              f"on this grid; it must be positive and finite")
    return sim


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config file."""
    return build_config(parse_pairs(text))


def config_model(cfg: ExperimentConfig) -> Model:
    """The configured model; make_model ignores the custom-poly parameters of the others."""
    return make_model(cfg.model, {"m": cfg.poly_m, "coeffs": cfg.poly_coeffs})


def describe(cfg: ExperimentConfig) -> str:
    """Resolved configuration, one key=value per line (CLI --describe)."""
    lines = []
    for key, (attr, _) in _KEY_TABLE.items():
        val = getattr(cfg, attr)
        val = ",".join(map(_format_value, val)) if attr == "poly_coeffs" else _format_value(val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def _profile(x: np.ndarray, sigma: float) -> np.ndarray:
    """x exp(-x^2/sigma^2), the shape of the Gaussian odd data, at the nodes `x`."""
    with np.errstate(over="ignore"):  # x^2/sigma^2 overflows for a tiny sigma: the sample is 0
        return x * np.exp(-(x ** 2) / sigma ** 2)


def _profile_peak(sigma: float, dx: float, N: int) -> float:
    """The largest sample of `_profile` on the half-line grid of N nodes j*dx.

    The profile rises up to x = sigma/sqrt(2) and falls after it, so its largest
    sample is at one of the two nodes around that point; 0 means every sample
    underflows, and the profile has norm 0 on the grid.
    """
    j = min(max(math.floor(min(sigma / math.sqrt(2.0) / dx, N)), 1), N)
    return float(np.max(_profile(dx * np.array([j, min(j + 1, N)], dtype=float), sigma)))


def _profile_norm_sq_bounds(cfg: ExperimentConfig, dx: float, N: int) -> tuple[float, float]:
    """Bounds (low, high) of the squared norm that `make_initial_data` finds for
    the profile on the half-line grid of N nodes j*dx, from two of its samples.

    low is the largest sample squared times dx and, for displaced data, the
    origin cell's squared difference (first sample / dx)^2 times dx too.
    Each is a term of the norm's sums, rounded as they round it, and the
    sums add only terms >= 0, so low > 0 means a positive norm.
    high is 4 max(1, dx) max((N+1) (peak/dx)^2, N peak^2).  The profile is
    >= 0 on the half-line, so each of its N + 1 staggered differences (zero
    ghosts included) is at most peak/dx and each sample at most peak.  The
    norm sums the squared differences and the squared samples, multiplies
    each sum by 2 dx and adds the two: each of these is at most half of
    high, which leaves a factor 2 for rounding, so a finite high means a
    finite norm.  `validate_config` accepts a profile only when low > 0 and
    high is finite; near the ends of the float range that can refuse a
    profile whose norm would have been finite.
    """
    peak = _profile_peak(cfg.sigma, dx, N)
    low = peak * peak * dx
    if cfg.data_family == "gauss-odd-displacement":
        d0 = float(_profile(np.array([dx]), cfg.sigma)[0]) / dx
        low = max(low, d0 * d0 * dx)
    q = peak / dx
    return low, 4.0 * max(1.0, dx) * max((N + 1) * q * q, N * peak * peak)


def make_initial_data(cfg: ExperimentConfig, grid: Grid) -> State:
    """Small odd data with an exact discrete norm of epsilon.

    gauss-odd-displacement: u1 = eps * x exp(-x^2/sigma^2) / Z, u2 = 0,
    Z fixed so the discrete H1 x L2 norm of the state equals eps.
    gauss-odd-velocity: the same profile placed in u2, normalized in L2.
    """
    profile = _profile(grid.x, cfg.sigma)
    zero = np.zeros(grid.N)
    displaced = cfg.data_family == "gauss-odd-displacement"
    Z = math.sqrt(energy_norm_sq(State(grid, profile, zero) if displaced
                                 else State(grid, zero, profile)))
    if not 0.0 < Z < math.inf:
        raise ConfigError(f"the profile of sigma={cfg.sigma:g} has norm {Z:g} on this grid; "
                          f"it must be positive and finite")
    u = cfg.epsilon * profile / Z
    return State(grid, u, zero) if displaced else State(grid, zero, u)


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


def _odd_modes(grid: Grid) -> tuple:
    """The envelope exp(-x^2/25) and the rows sin(k pi x / L), k = 1..VIRIAL_CHECK_MODES."""
    return grid.table(("odd_modes",), lambda: (
        np.exp(-(grid.x ** 2) / 25.0),
        [np.sin(k * math.pi * grid.x / grid.L) for k in range(1, VIRIAL_CHECK_MODES + 1)]))


def random_odd_field(grid: Grid, lcg: Lcg) -> np.ndarray:
    """Sum of sine modes under a fixed Gaussian envelope exp(-x^2/25)."""
    envelope, rows = _odd_modes(grid)
    vals = np.zeros(grid.N)
    for row in rows:
        vals += lcg.uniform_pm1() * row
    return vals * envelope


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
    """CSV of each record's CSV_COLUMNS, then the extra columns (name -> one
    value per record), in one float format, written atomically to `path`."""
    extra = extra_columns or {}
    lines = [",".join((*CSV_COLUMNS, *extra))]
    for i, rec in enumerate(records):
        row = [getattr(rec, c) for c in CSV_COLUMNS] + [col[i] for col in extra.values()]
        lines.append(",".join(f"{v:.16e}" for v in row))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def format_summary(summary: dict) -> str:
    """Flat key: value lines, insertion order preserved."""
    return "\n".join(f"{k}: {_format_value(v)}" for k, v in summary.items()) + "\n"


def write_summary(summary: dict, path) -> None:
    """The summary's format_summary text, written atomically to `path`."""
    _atomic_write(Path(path), format_summary(summary))


# ----------------------------------------------------------------------
# the time-stepping pipeline: setup, and a run with its record observer
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Simulation:
    """One run of `cfg` at N nodes of spacing dx, as `validate_config` set it up:
    the model, settings, virial config and, for breather data (on the full line),
    the exact breather, else None.  It holds no array: `grid` makes the grid and
    `simulate` the initial state when the run starts."""

    cfg: ExperimentConfig
    N: int
    dx: float
    model: Model
    settings: RunSettings
    vcfg: VirialConfig
    breather: BreatherParams | None

    def grid(self) -> Grid:
        """The run's grid: the full line exactly when it carries breather data."""
        make = make_grid if self.breather is None else make_fullline_grid
        try:
            return make(self.cfg.L, self.N)
        except (MemoryError, ValueError):  # ValueError: a count numpy cannot index
            raise ConfigError(f"a grid of N={self.N} nodes does not fit in memory") from None

    def refined(self) -> _Simulation:
        """The convergence study's fine run: 2N+1 nodes at dt/2.  spacing(L, 2N+1)
        divides by 2(N+1), so it is dx/2 exactly; ValueError if dx/2 fails `check_spacing`."""
        return replace(self, N=2 * self.N + 1, dx=check_spacing(0.5 * self.dx),
                       settings=replace(self.settings, dt=0.5 * self.settings.dt))

    def simulate(self, stop=None) -> tuple[list, dict, list]:
        """Run to T, or to the first record for which `stop(rec)` is true; returns
        the records, the abort keys and, with breather data, the L2 distances of
        u1 from the exact breather at each record's t (else []).

        A NaN/Inf state or record is a scenario outcome, not an exception: the
        records so far come back with {abort_step, abort_t}, for the summary
        of a run with status aborted_nan.  Otherwise the abort keys are {}.
        """
        grid = self.grid()
        initial = (make_initial_data(self.cfg, grid) if self.breather is None
                   else breather_state(self.breather, 0.0, grid))
        errors = []

        def on_record(state: State, rec) -> bool:
            if self.breather is not None:
                diff = state.u1 - breather_exact(self.breather, state.t, grid.x)
                errors.append(math.sqrt(integrate_fullline(diff * diff, grid)))
            return stop is not None and stop(rec)

        try:
            return run(initial, self.model, self.settings, self.vcfg,
                       on_record=on_record), {}, errors
        except BlowupError as exc:
            return exc.records, {"abort_step": exc.step, "abort_t": exc.t}, errors


def _base_summary(cfg: ExperimentConfig, sim: _Simulation, abort: dict) -> dict:
    """Leading summary keys of the scenarios that step time."""
    return {"scenario": cfg.scenario, "status": "aborted_nan" if abort else "ok",
            "model": cfg.model, "L": cfg.L, "N": cfg.N, "dx": sim.dx, "dt": sim.settings.dt,
            "T": cfg.T, "lambda": cfg.lam, "record_every": cfg.record_every}


# ----------------------------------------------------------------------
# decay scenario
# ----------------------------------------------------------------------

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
    ratios = [(-r.dI_dt_rhs) / r.H1w_sq for r in records if r.t >= 1.0 and r.H1w_sq > 0.0]
    dh_ratios = [abs(r.dH_dt_analytic) / (r.H1w_sq + r.L2w_sq) for r in records
                 if r.H1w_sq + r.L2w_sq > 0.0]
    # the nonlinear term against its weighted Sobolev bound ||u1||_inf^q ||dw/dx||^2
    sfsix = [abs(r.nonlinear) / r.sf_denom for r in records if r.sf_denom > 0.0]
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
        "max_sfsix_const": max(sfsix) if sfsix else math.nan,
        "sup_energy_norm": max(math.sqrt(r.energy_norm_sq) for r in records),
    }


def _run_decay(cfg: ExperimentConfig, sim: _Simulation) -> ScenarioResult:
    bound = SMALLNESS_FACTOR * cfg.epsilon
    # the smallness guard ends the run at the first record whose norm exceeds the
    # bound, so the records' sup exceeds it exactly when it fired (nan fails both)
    records, abort, _ = sim.simulate(stop=lambda rec: math.sqrt(rec.energy_norm_sq) > bound)

    summary = _base_summary(cfg, sim, abort)
    summary["epsilon"] = cfg.epsilon
    summary["sigma"] = cfg.sigma
    summary["data_family"] = cfg.data_family
    summary.update(_decay_metrics(records, cfg.epsilon))
    if summary["sup_energy_norm"] > bound:
        summary["status"] = "aborted_smallness"
    summary["smallness_bound"] = bound
    summary["smallness_ok"] = summary["status"] == "ok"
    summary.update(abort)
    if abort and len(records) < 2:
        # the only record precedes the blow-up: there is no span to compare over
        summary.update(dict.fromkeys(_TWO_RECORD_RATIOS, math.nan))
    return ScenarioResult(summary, records)


# ----------------------------------------------------------------------
# breather scenario
# ----------------------------------------------------------------------

def _run_breather(cfg: ExperimentConfig, sim: _Simulation) -> ScenarioResult:
    records, abort, errors = sim.simulate()

    summary = _base_summary(cfg, sim, abort)
    summary["beta"] = cfg.beta
    summary["alpha"] = sim.breather.alpha
    summary["period"] = sim.breather.period
    summary["n_records"] = len(records)
    t = np.array([r.t for r in records])
    H = np.array([r.H for r in records])
    summary["H_initial"] = float(H[0])
    n_periods = int(math.floor(cfg.T / sim.breather.period + 1e-9))
    summary["n_periods"] = n_periods
    ratios = []
    for kper in range(1, n_periods + 1):
        idx = int(np.argmin(np.abs(t - kper * sim.breather.period)))
        ratio = float(H[idx] / H[0]) if H[0] > 0 else math.nan
        summary[f"H_period_ratio_{kper}"] = ratio
        ratios.append(ratio)
    summary["min_period_ratio"] = min(ratios) if ratios else math.nan
    summary["max_exact_err_l2"] = max(errors) if errors else math.nan
    summary["final_exact_err_l2"] = errors[-1] if errors else math.nan
    summary.update(abort)
    return ScenarioResult(summary, records, {"exact_err_l2": errors})


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
    records, abort, errors = sim.simulate()
    if abort:
        return _NAN_METRICS, {**abort, "abort_resolution": resolution}

    E = np.array([r.E for r in records])
    # against the run's largest energy scale S >= |E|, not E(0), a cancellation for phi4
    scale = max(r.energy_scale for r in records) or 1.0
    drift = float(np.max(np.abs(E - E[0])) / scale)
    resid = np.array([abs(r.dI_dt_numeric - r.dI_dt_rhs) for r in records])
    rhs_scale = float(np.max(np.abs([r.dI_dt_rhs for r in records])))
    virial_resid = float(np.max(resid) / rhs_scale) if rhs_scale > 0 else math.nan
    exact_err = errors[-1] if errors else math.nan
    return {"drift": drift, "virial_resid": virial_resid, "exact_err": exact_err}, {}


def _run_convergence(cfg: ExperimentConfig, coarse: _Simulation) -> ScenarioResult:
    fine = coarse.refined()
    c, abort = _refinement_metrics(coarse, "coarse")
    # a blown-up coarse run leaves nothing to compare the fine run with
    f, abort = (_NAN_METRICS, abort) if abort else _refinement_metrics(fine, "fine")

    summary = _base_summary(cfg, coarse, abort)
    summary["conv_mode"] = cfg.conv_mode
    summary["dx_coarse"] = coarse.dx
    summary["dx_fine"] = fine.dx
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

def _check_summary(cfg: ExperimentConfig, sim: _Simulation) -> dict:
    """Leading summary keys of the scenarios that check a grid, not a run."""
    return {"scenario": cfg.scenario, "status": "ok", "lambda": cfg.lam, "L": cfg.L,
            "N": cfg.N, "dx": sim.dx}


def _run_spectral(cfg: ExperimentConfig, sim: _Simulation) -> ScenarioResult:
    # imported at call time: the benchmark tracer patches these names in
    # oddkg.spectral, which a module-level import would capture before it does
    from .spectral import coercivity_certificate, index_check

    grid = sim.grid()
    summary = _check_summary(cfg, sim)
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
        tag = f"cert_{parity}"
        summary[f"{tag}_negative_count"] = rep.negative_count
        summary[f"{tag}_lowest_eigs"] = " ".join(map(_format_value, rep.lowest_eigs))
        summary[f"{tag}_coercivity_min_ratio"] = rep.coercivity_min_ratio
        summary[f"{tag}_residual_min_eig"] = rep.residual_min_eig
    if not all_ok:
        summary["status"] = "failed_checks"
    return ScenarioResult(summary)


# ----------------------------------------------------------------------
# virial-check scenario
# ----------------------------------------------------------------------

def _run_virial_check(cfg: ExperimentConfig, sim: _Simulation) -> ScenarioResult:
    grid, vcfg = sim.grid(), sim.vcfg
    lcg = Lcg(cfg.seed)

    worst = dict.fromkeys(VIRIAL_CHECK_TOL, 0.0)
    for _ in range(VIRIAL_CHECK_FIELDS):
        u1 = random_odd_field(grid, lcg)
        B = bilinear_B(u1, grid, vcfg)
        Bs = bsharp(to_w(u1, grid, vcfg), grid, vcfg)
        state = State(grid, u1, u1.copy())
        # I(u1, u1) against the integral of its integrand's magnitude
        ipair = virial_I(state, vcfg)
        I_abs = virial_I_abs(state, vcfg)
        h1w, l2w = weighted_norms(state)
        H = H_loc(state)
        for name, rel in (("B_vs_Bsharp", abs(B - Bs) / max(abs(B), 1e-12)),
                          ("I_selfpair", abs(ipair) / max(I_abs, 1e-12)),
                          ("H_decomp", abs(H - (h1w + l2w)) / max(abs(H), 1e-12))):
            worst[name] = max(worst[name], rel)

    summary = _check_summary(cfg, sim)
    if not all(worst[name] < tol for name, tol in VIRIAL_CHECK_TOL.items()):
        summary["status"] = "failed_checks"
    summary.update({"seed": cfg.seed, "n_fields": VIRIAL_CHECK_FIELDS})
    summary.update({f"max_rel_{name}": value for name, value in worst.items()})
    summary.update({f"tol_{name}": tol for name, tol in VIRIAL_CHECK_TOL.items()})
    return ScenarioResult(summary)


_SCENARIO_RUNNERS = {
    "decay": _run_decay,
    "breather": _run_breather,
    "convergence": _run_convergence,
    "spectral": _run_spectral,
    "virial-check": _run_virial_check,
}
SCENARIOS = tuple(_SCENARIO_RUNNERS)


def run_scenario(cfg: ExperimentConfig) -> ScenarioResult:
    """Execute the configured scenario and write its two files into output_dir."""
    sim = validate_config(cfg)
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {outdir}: {exc}") from exc
    result = _SCENARIO_RUNNERS[cfg.scenario](cfg, sim)
    csv_path, summary_path = outdir / "timeseries.csv", outdir / "summary.txt"
    try:
        write_timeseries(result.records, csv_path, result.extra_columns)
        write_summary(result.summary, summary_path)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    result.csv_path = str(csv_path)
    result.summary_path = str(summary_path)
    return result
