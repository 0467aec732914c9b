"""Stormer-Verlet (kick-drift-kick) time stepping for the first-order system

    du1/dt = u2
    du2/dt = D2 u1 + m u1 + f(u1)

with D2 the 3-point Laplacian and zero ghost values at the Dirichlet
nodes.  On the half-line grid the x=0 ghost realizes the odd extension
exactly, so oddness is preserved by representation.  The scheme is
symplectic and exactly time reversible; energy error stays bounded and
O(dt^2) instead of drifting, which long decay measurements rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field, Grid, State
from .models import Model
from .virial import DiagnosticsRecord, VirialConfig, fill_dI_dt_numeric, make_record


class BlowupError(RuntimeError):
    """NaN/Inf appeared in the state; carries the records collected so far."""

    def __init__(self, step: int, t: float, records):
        super().__init__(f"non-finite state detected at step {step} (t={t:.6g})")
        self.step = step
        self.t = t
        self.records = records


class StopRun(Exception):
    """Raised by an on_record callback to end a run early but cleanly."""


@dataclass(frozen=True)
class RunSettings:
    """Time step, final time, and record cadence for one simulation."""

    dt: float
    T: float
    record_every: int = 25

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.T < 0:
            raise ValueError(f"final time must be nonnegative, got {self.T}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def cfl_dt(grid: Grid, model: Model, safety: float) -> float:
    """Stable time step: safety * 2 / sqrt(4/dx^2 + max(|m|, 1)).

    The bound covers the linearized operator -D2 - m on either grid; the
    max(|m|, 1) term keeps a margin when m reduces the stiffness.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety}")
    return safety * 2.0 / math.sqrt(4.0 / grid.dx ** 2 + max(abs(model.m), 1.0))


def _acceleration(u1: np.ndarray, model: Model, inv_dx2: float, out: np.ndarray) -> np.ndarray:
    out[:] = -2.0 * u1
    out[:-1] += u1[1:]
    out[1:] += u1[:-1]
    out *= inv_dx2
    out += model.m * u1
    out += model.f(u1)
    return out


def _kick_drift_kick(u1: np.ndarray, u2: np.ndarray, a: np.ndarray, model: Model,
                     inv_dx2: float, dt: float) -> None:
    """One step in place.  `a` holds the acceleration at u1 on entry and,
    because u1 does not move between the trailing half-kick of one step and
    the leading half-kick of the next, again on exit."""
    u2 += 0.5 * dt * a
    u1 += dt * u2
    _acceleration(u1, model, inv_dx2, a)
    u2 += 0.5 * dt * a


def leapfrog_step(state: State, model: Model, dt: float) -> State:
    """One kick-drift-kick step; dt may be negative (time reversal)."""
    grid = state.grid
    inv_dx2 = 1.0 / grid.dx ** 2
    u1 = state.u1.values.copy()
    u2 = state.u2.values.copy()
    a = _acceleration(u1, model, inv_dx2, np.empty_like(u1))
    _kick_drift_kick(u1, u2, a, model, inv_dx2, dt)
    return State(Field(grid, u1), Field(grid, u2), state.t + dt)


def run(
    initial: State,
    model: Model,
    settings: RunSettings,
    diagnostics: VirialConfig,
    on_record: Callable[[State, DiagnosticsRecord], None] | None = None,
) -> list[DiagnosticsRecord]:
    """Integrate from t=0 to T, emitting a record every record_every steps.

    Records always include t=0 and the final step, in strictly increasing
    time order; dI_dt_numeric is filled over the collected sequence before
    returning.  A non-finite initial state raises BlowupError at step 0; the
    steps run under np.errstate(over="raise", invalid="raise"), the records
    outside it, so a blow-up raises BlowupError at the step whose arithmetic
    first overflowed or turned invalid, carrying that step index and the
    records so far (instability is experimentally meaningful data, not
    silent output).  `on_record` receives a copy of the state and the fresh
    record; it may raise StopRun to end the run early with the records
    collected so far.
    """
    grid = initial.grid
    inv_dx2 = 1.0 / grid.dx ** 2
    dt = settings.dt
    every = settings.record_every
    n_steps = int(round(settings.T / dt)) if settings.T > 0 else 0

    u1 = initial.u1.values.copy()
    u2 = initial.u2.values.copy()
    a = np.empty_like(u1)
    workspace: dict = {}  # record buffers, reused by every make_record below

    records: list[DiagnosticsRecord] = []
    if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
        raise BlowupError(0, 0.0, records)

    def emit(step: int) -> None:
        snap = State(Field(grid, u1.copy()), Field(grid, u2.copy()), step * dt)
        rec = make_record(snap, model, diagnostics, workspace)
        records.append(rec)
        if on_record is not None:
            on_record(snap, rec)

    k = 0  # steps completed
    try:
        emit(0)
        while k < n_steps:
            stop = min(k - k % every + every, n_steps)  # the next record step
            try:
                with np.errstate(over="raise", invalid="raise"):
                    if k == 0:  # step 1's leading acceleration; later steps reuse
                        _acceleration(u1, model, inv_dx2, a)
                    while k < stop:
                        _kick_drift_kick(u1, u2, a, model, inv_dx2, dt)
                        k += 1
            except FloatingPointError:
                fill_dI_dt_numeric(records)
                raise BlowupError(k + 1, (k + 1) * dt, records) from None
            emit(k)
    except StopRun:
        pass
    fill_dI_dt_numeric(records)
    return records
