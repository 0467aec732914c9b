"""oddkg: a numerical laboratory for decay of small odd Klein-Gordon waves.

Half-line odd simulations of d^2u/dt^2 = d^2u/dx^2 + m u + f(u) with
symplectic time stepping, virial and localized-energy diagnostics,
certified Schrodinger spectral checks, and the non-decaying sine-Gordon
breather as the even counterexample.
"""

__version__ = "0.1.0"

from .exact import BreatherParams, breather_exact, breather_state
from .experiments import (
    ConfigError, ExperimentConfig, make_initial_data, parse_config, run_scenario,
    write_summary, write_timeseries,
)
from .grid import Grid, State, derivative, integrate_fullline, make_fullline_grid, make_grid
from .integrator import BlowupError, RunSettings, cfl_dt, leapfrog_step, run
from .models import Model, ModelError, make_model
from .spectral import (
    SpectralReport, assemble, coercivity_certificate, index_check, lowest_eigs,
    negative_count, pt_index,
)
from .virial import (
    DiagnosticsRecord, VirialConfig, H_loc, bilinear_B, bsharp, energy, to_w, virial_I,
    weighted_norms,
)

__all__ = [
    "BlowupError", "BreatherParams", "ConfigError", "DiagnosticsRecord",
    "ExperimentConfig", "Grid", "H_loc", "Model", "ModelError",
    "RunSettings", "SpectralReport", "State", "VirialConfig", "assemble",
    "bilinear_B", "breather_exact", "breather_state", "bsharp", "cfl_dt",
    "coercivity_certificate", "derivative", "energy", "index_check",
    "integrate_fullline", "leapfrog_step", "lowest_eigs", "make_fullline_grid",
    "make_grid", "make_initial_data", "make_model", "negative_count",
    "parse_config", "pt_index", "run", "run_scenario", "to_w",
    "virial_I", "weighted_norms", "write_summary", "write_timeseries",
]
