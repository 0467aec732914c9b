"""Stormer-Verlet (kick-drift-kick) time stepping for the first-order system

    du1/dt = u2
    du2/dt = D2 u1 - V'(u1),    V'(u) = -(m u + f(u)) = model.dV

with D2 the 3-point Laplacian and zero ghost values at the Dirichlet
nodes.  On the half-line grid the x=0 ghost realizes the odd extension
exactly (V' is odd), so oddness is preserved by representation.  The
scheme is symplectic and exactly time reversible; energy error stays
bounded and O(dt^2) instead of drifting, which long decay measurements
rely on.  A step writes only into the acceleration and two buffers
allocated once per run, so it allocates nothing.  V' is evaluated only on
a window of nodes; outside it, V' is -m u1 to the last bit.  `run` steps
only the live prefix of the grid: past it, u1, u2 and the carried half-kick
hold +0 and keep holding it.  Both spans come from `grid.support`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import State, check_spacing, support
from .models import Model
from .virial import CSV_COLUMNS, DiagnosticsRecord, VirialConfig, fill_dI_dt_numeric, make_record


class BlowupError(RuntimeError):
    """NaN/Inf appeared in the state or a record; carries the records so far."""

    def __init__(self, step: int, t: float, records):
        super().__init__(f"non-finite state or record at step {step} (t={t:.6g})")
        self.step = step
        self.t = t
        self.records = records


@dataclass(frozen=True)
class RunSettings:
    """Time step, final time, and record cadence for one simulation."""

    dt: float
    T: float
    record_every: int

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.T and self.T / self.dt < math.inf):  # run takes round(T/dt) steps
            raise ValueError(f"T must be nonnegative, T/dt finite, got T={self.T}, dt={self.dt}")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every}")


def cfl_dt(dx: float, model: Model, safety: float) -> float:
    """Stable time step on a grid of spacing dx: safety * 2 / sqrt(4/dx^2 + max(|m|, 1)).

    The bound covers the linearized operator -D2 - m on either grid; the
    max(|m|, 1) term keeps a margin when m reduces the stiffness.  ValueError
    unless 0 < safety < 1 and dx obeys `grid.check_spacing`.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety}")
    check_spacing(dx)
    return safety * 2.0 / math.sqrt(4.0 / dx ** 2 + max(abs(model.m), 1.0))


def _acceleration(u1: np.ndarray, model: Model, inv_dx2: float, a: np.ndarray,
                  tmp: np.ndarray, scratch: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """a = D2 u1 - V'(u1), written in place; tmp and scratch are overwritten.
    V' is `model.dV` on [lo, hi) and the bitwise equal u1 * (-m) outside, where
    |u1| < model.linear_below (for m = -1, a - u is a - u*1.0)."""
    np.multiply(u1, -2.0, out=a)
    np.add(a[:-1], u1[1:], out=a[:-1])
    np.add(a[1:], u1[:-1], out=a[1:])
    a *= inv_dx2
    a[lo:hi] -= model.dV(u1[lo:hi], tmp[lo:hi], scratch[lo:hi])
    for tail in (slice(0, lo), slice(hi, u1.size)):
        if tail.start == tail.stop:
            continue
        if model.m == -1.0:
            a[tail] -= u1[tail]
        else:
            a[tail] -= np.multiply(u1[tail], -model.m, out=tmp[tail])
    return a


def _half_kick(u1: np.ndarray, model: Model, inv_dx2: float, dt: float, a: np.ndarray,
               tmp: np.ndarray, scratch: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """a = (dt/2) (D2 u1 - V'(u1)) in place; returns the window [lo, hi) used:
    the given one (0, 0 at the start) while both tails hold |u1| < t =
    model.linear_below (a nan fails both tests), else the `support` of
    |u1| < t padded by 64 nodes, so that a spreading wave rescans only now and then."""
    t, n, top, bottom = model.linear_below, u1.size, np.maximum.reduce, np.minimum.reduce
    if not ((lo == 0 or (top(u1[:lo]) < t and bottom(u1[:lo]) > -t))
            and (hi == n or (top(u1[hi:]) < t and bottom(u1[hi:]) > -t))):
        lo, hi = support(np.less(np.abs(u1, out=tmp), t, out=scratch.view(bool)[:n]))
        lo, hi = (max(lo - 64, 0), min(hi + 64, n)) if hi else (0, 0)
    _acceleration(u1, model, inv_dx2, a, tmp, scratch, lo, hi)
    a *= 0.5 * dt
    return lo, hi


def _kick_drift_kick(u1: np.ndarray, u2: np.ndarray, a: np.ndarray, model: Model,
                     inv_dx2: float, dt: float, tmp: np.ndarray, scratch: np.ndarray,
                     lo: int, hi: int) -> tuple[int, int]:
    """One step in place from the window [lo, hi) at u1; returns the new one.
    `a` holds the half-kick at u1 on entry and, because u1 does not move
    between the trailing half-kick of one step and the leading one of the
    next, again on exit.  tmp and scratch are work buffers shaped like u1."""
    u2 += a
    u1 += np.multiply(u2, dt, out=tmp)
    lo, hi = _half_kick(u1, model, inv_dx2, dt, a, tmp, scratch, lo, hi)
    u2 += a
    return lo, hi


def leapfrog_step(state: State, model: Model, dt: float) -> State:
    """One kick-drift-kick step; dt may be negative (time reversal)."""
    grid = state.grid
    inv_dx2 = 1.0 / grid.dx ** 2
    u1 = state.u1.copy()
    u2 = state.u2.copy()
    a, tmp, scratch = (np.empty_like(u1) for _ in range(3))
    window = _half_kick(u1, model, inv_dx2, dt, a, tmp, scratch, 0, 0)
    _kick_drift_kick(u1, u2, a, model, inv_dx2, dt, tmp, scratch, *window)
    return State(grid, u1, u2, state.t + dt)


#: steps between two scans for the live prefix; it grows by one node a step in between
PREFIX_SCAN_EVERY = 64


def _live_prefix(u1: np.ndarray, u2: np.ndarray, a: np.ndarray, tmp: np.ndarray,
                 scratch: np.ndarray) -> int:
    """The least p such that u1, u2 and a hold the bits of +0.0 at every node from p
    on (a -0 is live), by `support`; tmp and scratch are work buffers shaped like u1."""
    bits = np.bitwise_or(u1.view(np.int64), u2.view(np.int64), out=tmp.view(np.int64))
    np.bitwise_or(bits, a.view(np.int64), out=bits)
    return support(np.equal(bits, 0, out=scratch.view(bool)[:bits.size]))[1]


def run(
    initial: State,
    model: Model,
    settings: RunSettings,
    diagnostics: VirialConfig,
    on_record: Callable[[State, DiagnosticsRecord], object] | None = None,
    stats: dict | None = None,
) -> list[DiagnosticsRecord]:
    """Integrate from t=0 to T, keeping a record every record_every steps.

    Records include t=0 and the final step, in strictly increasing time
    order; dI_dt_numeric is filled over them on every way out.  A blow-up
    (instability is data, not silent output) raises BlowupError with its
    step and the records so far: step 0 for a non-finite initial state; the
    step whose arithmetic overflows or turns invalid (steps run under
    np.errstate(over="raise", invalid="raise")); the record's own step for a
    non-finite CSV value other than dI_dt_numeric (records run under
    errstate(all="ignore")), after it is kept and passed to `on_record`.
    `on_record` gets a copy of the state and the fresh record; a true return
    ends the run there, that record included, before its finite check.

    Each step runs on the live prefix [0, p + 1) of the grid, where nodes
    p, p + 1, ... hold +0 in u1, u2 and the carried half-kick.  The stencil
    reaches one node, so a step moves p by at most one: p, the end of the
    `support` of the nodes where all three arrays' bits are 0, is scanned
    every PREFIX_SCAN_EVERY steps and taken one node further after each step
    in between.  Node p is +0, so the prefix's zero ghost gives the whole grid's bits
    of u1 and u2.  A `stats` dict, if given, is filled on every way out with counts:
    "steps" and "records"; "window_rescans" and "window_mean_width" of V''s window
    (the first half-kick's scan included, the width averaged over steps); and
    "prefix_scans" and "prefix_mean_width", the nodes a step ran on.
    """
    inv_dx2 = 1.0 / initial.grid.dx ** 2
    dt = settings.dt
    every = settings.record_every
    n_steps = int(round(settings.T / dt)) if settings.T > 0 else 0

    u1, u2 = initial.u1.copy(), initial.u2.copy()
    a, tmp, scratch = (np.empty_like(u1) for _ in range(3))  # step buffers
    records: list[DiagnosticsRecord] = []
    k = 0  # steps completed
    p = 0  # every node from p on is +0 in u1, u2 and a
    rescans = window_sum = scans = prefix_sum = 0
    try:
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
            raise BlowupError(0, 0.0, records)
        while True:
            snap = State(initial.grid, u1.copy(), u2.copy(), k * dt)
            with np.errstate(all="ignore"):
                rec = make_record(snap, model, diagnostics)
            records.append(rec)
            if on_record is not None and on_record(snap, rec):
                break
            if not all(math.isfinite(getattr(rec, c)) for c in CSV_COLUMNS
                       if c != "dI_dt_numeric"):
                raise BlowupError(k, k * dt, records)
            if k == n_steps:
                break
            next_record = min(k - k % every + every, n_steps)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    if k == 0:  # step 1's leading half-kick; later steps carry it
                        window = _half_kick(u1, model, inv_dx2, dt, a, tmp, scratch, 0, 0)
                        rescans += window != (0, 0)
                    while k < next_record:
                        if k % PREFIX_SCAN_EVERY == 0:
                            p = _live_prefix(u1, u2, a, tmp, scratch)
                            scans += 1
                        n = min(p + 1, u1.size)
                        lo, hi = min(window[0], n), min(window[1], n)
                        window = _kick_drift_kick(u1[:n], u2[:n], a[:n], model, inv_dx2, dt,
                                                  tmp[:n], scratch[:n], lo, hi)
                        rescans += window != (lo, hi)
                        window_sum += window[1] - window[0]
                        prefix_sum += n
                        p += 1
                        k += 1
            except FloatingPointError:
                raise BlowupError(k + 1, (k + 1) * dt, records) from None
    finally:
        fill_dI_dt_numeric(records)
        if stats is not None:
            stats.update(steps=k, records=len(records), window_rescans=rescans,
                         window_mean_width=window_sum / k if k else 0.0,
                         prefix_scans=scans, prefix_mean_width=prefix_sum / k if k else 0.0)
    return records
