"""Property tests of the numerical cores.

Spectral: on random symmetric tridiagonals, the Sturm count, the count at
zero and the bisected lowest eigenvalues agree with the exact inertia of
the matrix (`oracles.exact_count_below`, in rationals); the computed count
is monotone in the shift, which is what
lets `lowest_eigs` skip counts that earlier ones decide, and that skipping
changes no bit of its result.  The Newton pass counts as the Sturm count
does and its slope of log|det(A - s)| matches the exact one
(`oracles.exact_slope`, in rationals).  On
assembled sectors, the free-Laplacian bounds enclose every eigenvalue and
the counts they skip change no bit either, nor does a wrong estimate of
where an eigenvalue lies.  Wherever no eigenvalue of an assembled sector lies
within `lowest_eigs`' margin of the shift, `count_below` is the exact count.
Grid: the even-origin estimate of the tests' oracle is exact for
even quadratics, and `support` is the span of a mask's false nodes, nan
and +-inf inside, on any mask of |u| < t.
Virial: on random odd fields, B(u1) and Bsharp(zeta u1) agree to second
order in dx.
Models: each model's in-place V'(u) is -(m u + f(u)) to roundoff, odd bit
for bit, and leaves its argument alone.  Integrator: on random half-line
grids and catalog models with small odd data, `run` lands bit for bit on
the state that repeated `leapfrog_step` calls reach, and stepping back
with -dt undoes n steps to roundoff, as amplified by the linear
instability of the zero state when m > 0 (phi4); a phi4 run ends while
that growth keeps its data small.  The force on a window of nodes, with
the linear force outside it, is the whole-array force bit for bit, and
the half-kick keeps or rescans any given window so that this holds.  The
diagnostics kernel's f and F, evaluated on their own window, are the
whole-array ones bit for bit, and `run`, which steps only the live prefix
of the grid, equals repeated `leapfrog_step` in u1, u2 and every record
on states with long +0 tails.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import even_origin_integral, exact_count_below, exact_slope
from scipy.linalg import eigvalsh_tridiagonal

from oddkg.experiments import Lcg, random_odd_field
from oddkg.grid import State, make_grid, support
from oddkg.integrator import (
    RunSettings, _acceleration, _half_kick, cfl_dt, leapfrog_step, run,
)
from oddkg.models import CATALOG_NAMES, make_model
from oddkg import spectral
from oddkg.spectral import (
    EIG_ATOL, SchrodingerDiscretization, _as_lists, _bisect, _sturm_count, _sturm_slope,
    assemble, count_below, lowest_eigs, negative_count,
)
from oddkg.virial import VirialConfig, _Kernel, bilinear_B, bsharp, make_record, to_w

ENTRIES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

MODELS = [make_model(name) for name in CATALOG_NAMES if name != "custom-poly"]
# m < 0: with m > 0 this quintic blows small data up within the drawn horizons
MODELS.append(make_model("custom-poly", {"m": -0.5, "coeffs": (0.0, 0.0, 0.0, -0.5, 0.0, 0.25)}))


@st.composite
def tridiagonals(draw):
    n = draw(st.integers(2, 60))
    diag = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    off = np.array(draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1)))
    return diag, off


def _sector(diag, off):
    return SchrodingerDiscretization(diag=diag, offdiag=off)


def _roundoff(diag, off) -> float:
    """A margin well above the backward error of an LDL^T count."""
    return 1e-9 * (1.0 + float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off))))


def _exact_count(diag, off, shift) -> int:
    """The exact count of eigenvalues below `shift`; a draw whose exact LDL^T
    meets a zero pivot there is discarded."""
    count, zero_pivot = exact_count_below(diag, off, shift)
    assume(not zero_pivot)
    return count


def _exact_count_if_clear(diag, off, shift) -> int:
    """The exact count below `shift`, for a draw with no eigenvalue within
    `_roundoff` of it (decided by the exact counts at shift -+ _roundoff)."""
    r = _roundoff(diag, off)
    below = _exact_count(diag, off, shift - r)
    assume(below == _exact_count(diag, off, shift + r))
    return below


# the exact inertia, not LAPACK, is the oracle: eigvalsh_tridiagonal misplaced an
# eigenvalue by 1.9e-3 on a draw with entries such as 5e-324, which ENTRIES makes
@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals(), shift=st.floats(-40.0, 40.0))
def test_count_below_matches_scipy(tri, shift):
    diag, off = tri
    assert count_below(_sector(diag, off), shift) == _exact_count_if_clear(diag, off, shift)


@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals())
# zero pivots at shift 0, and at shift -1e-12 too: eigenvalues -1, +1 and about -1, +1
@example(tri=(np.array([0.0, 0.0, -1e-12, 0.0]), np.array([1.0, 0.0, 1.0])))
def test_negative_count_matches_scipy(tri):
    diag, off = tri
    assert negative_count(_sector(diag, off)) == _exact_count_if_clear(diag, off, 0.0)


@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals(), k_frac=st.floats(0.0, 1.0))
def test_lowest_eigs_match_scipy(tri, k_frac):
    # the i-th exact eigenvalue lies within _roundoff of the i-th one returned
    diag, off = tri
    k = 1 + int(k_frac * (diag.size - 1))
    r = _roundoff(diag, off)
    for i, lam in enumerate(lowest_eigs(_sector(diag, off), k), start=1):
        assert _exact_count(diag, off, lam - r) < i <= _exact_count(diag, off, lam + r)


class _Draws:
    """A stand-in for `st.data()` in an `@example`: its draws cycle through `values`."""

    def __init__(self, *values):
        self.values = itertools.cycle(values)

    def draw(self, strategy):
        return next(self.values)


def _seed_189_draw():
    """The 29 x 29 draw on which the count was 28 at shift 0 and 27 at shift
    diag[4] while only exact zero pivots were replaced: at diag[4] the 16th
    pivot is -diag[4], not 0, so the 17th came out +1.2e35 instead of -1."""
    diag, off = np.zeros(29), np.zeros(28)
    diag[4], diag[16] = 1.677281558978061e-258, -1.0
    off[4], off[15] = 1.0, 4.529744763914276e-112
    return diag, off


@settings(max_examples=60, deadline=None)
@given(tri=tridiagonals(), data=st.data())
@example(tri=_seed_189_draw(), data=_Draws(0.0, 1.677281558978061e-258))
def test_sturm_count_is_monotone_in_the_shift(tri, data):
    diag, off = tri
    # a shift equal to diag[0] makes the first pivot exactly zero
    shift = st.one_of(st.floats(-40.0, 40.0), st.sampled_from(diag.tolist()))
    lo, hi = sorted((data.draw(shift), data.draw(shift)))
    dl, off_sq, pivmin = _as_lists(diag, off)
    assert _sturm_count(dl, off_sq, lo, pivmin) <= _sturm_count(dl, off_sq, hi, pivmin)


def _pivots(dl, off_sq, shift, pivmin) -> list:
    """The pivots of `_sturm_count` at `shift` as computed, before each one with
    |d| < pivmin is replaced by -pivmin for the next."""
    out, d = [], 1.0
    for a, b2 in zip(dl, off_sq):
        d = a - shift - b2 / d
        out.append(d)
        if abs(d) < pivmin:
            d = -pivmin
    return out


@settings(max_examples=60, deadline=None)
@given(tri=tridiagonals(), data=st.data())
def test_sturm_slope_counts_as_sturm_count_and_slopes_as_scipy(tri, data):
    diag, off = tri
    # a shift equal to a diagonal entry makes a pivot exactly zero (pivmin nudge):
    # the first one always, a later one where the coupling above it is 0
    shift = data.draw(st.one_of(st.floats(-40.0, 40.0), st.sampled_from(diag.tolist())))
    dl, off_sq, pivmin = _as_lists(diag, off)
    count, slope = _sturm_slope(dl, off_sq, shift, pivmin)
    # its counts go into the table that _sturm_count's counts go into
    assert count == _sturm_count(dl, off_sq, shift, pivmin)
    if not math.isfinite(slope):
        # only the reciprocal of a pivot below pivmin but not 0 overflows it, and
        # _locate_eigenvalue then steps to its bracket's midpoint
        assert any(abs(p) < pivmin for p in _pivots(dl, off_sq, shift, pivmin))
        return
    # no eigenvalue within 1e-3 of the shift, by the exact counts on either side
    below, zero_below = exact_count_below(diag, off, shift - 1e-3)
    above, zero_above = exact_count_below(diag, off, shift + 1e-3)
    if below == above and not (zero_below or zero_above):
        # the exact d/ds log|det(A - s)|, relative to the sum of its terms' sizes;
        # scipy's eigenvalues, which can be off by 1e-4 here, only size that scale
        terms = 1.0 / (eigvalsh_tridiagonal(diag, off) - shift)
        assert abs(slope - float(exact_slope(diag, off, shift))) <= (
            1e-8 * float(np.sum(np.abs(terms))))


def test_a_pivot_below_pivmin_changes_no_bit():
    # at shift 1 the second pivot is 1e-310, below pivmin in size: it counts and
    # becomes -pivmin, so the slope stays finite and close to the exact one, about 0
    diag, off = np.array([0.0, 1.0, 0.0]), np.array([1e-155, 1.0])
    dl, off_sq, pivmin = _as_lists(diag, off)
    assert _pivots(dl, off_sq, 1.0, pivmin)[1] == 1e-310
    count, slope = _sturm_slope(dl, off_sq, 1.0, pivmin)
    assert count == _sturm_count(dl, off_sq, 1.0, pivmin) == 2
    assert math.isfinite(slope) and abs(slope - float(exact_slope(diag, off, 1.0))) <= 1e-12
    assert lowest_eigs(_sector(diag, off), 3).tolist() == _lowest_eigs_counting_afresh(diag, off, 3)
    # eigenvalues about -0.618, 0 and 1.618; the first pass is at shift 1, whose
    # step -1/slope leaves the bracket and is replaced by the bracket's midpoint
    theta = spectral._locate_eigenvalue(_sector(diag, off), 3, -1.0, 3.0)
    assert abs(theta - (1.0 + math.sqrt(5.0)) / 2.0) <= 1e-9


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan, 0.0))
def test_a_slope_that_is_no_hint_changes_no_bit(monkeypatch, bad):
    # no known matrix gives a slope of +-inf or nan; every such slope, and 0,
    # makes _locate_eigenvalue step to the bracket's midpoint, and the counts decide
    diag, off = np.array([0.0, 1.0, 0.0]), np.array([1e-155, 1.0])
    fresh = _lowest_eigs_counting_afresh(diag, off, 3)
    sloping = spectral._sturm_slope
    monkeypatch.setattr(spectral, "_sturm_slope",
                        lambda *args: (sloping(*args)[0], bad))
    theta = spectral._locate_eigenvalue(_sector(diag, off), 3, -1.0, 3.0)
    assert abs(theta - (1.0 + math.sqrt(5.0)) / 2.0) <= 1e-9
    assert lowest_eigs(_sector(diag, off), 3).tolist() == fresh


def _lowest_eigs_counting_afresh(diag, off, k):
    """lowest_eigs as it reads without reuse: one new count per midpoint."""
    dl, off_sq, pivmin = _as_lists(diag, off)
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    gl = float(np.min(diag - radius))
    gu = float(np.max(diag + radius))
    out = []
    for i in range(1, k + 1):
        lo = gl if i == 1 else out[-1] - 2.0 * EIG_ATOL
        mid = _bisect(lambda x: _sturm_count(dl, off_sq, x, pivmin) >= i, lo, gu, 2.0 * EIG_ATOL)
        out.append(max(mid, out[-1]) if out else mid)
    return out


@settings(max_examples=30, deadline=None)
@given(tri=tridiagonals(), k_fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_reused_counts_change_no_bit(tri, k_fracs):
    diag, off = tri
    shared = _sector(diag, off)
    # later calls on the shared sector start from the counts of earlier ones
    for k_frac in k_fracs:
        k = 1 + int(k_frac * (diag.size - 1))
        fresh = _lowest_eigs_counting_afresh(diag, off, k)
        assert lowest_eigs(_sector(diag, off), k).tolist() == fresh
        assert lowest_eigs(shared, k).tolist() == fresh
    assert shared.counts[0] == sorted(shared.counts[0])


@st.composite
def assembled_sectors(draw):
    """(sector, its free V0 = 0 sector, depth V0/lam^2) on a drawn grid."""
    grid = make_grid(draw(st.floats(5.0, 40.0)), draw(st.integers(16, 300)))
    V0, lam = draw(st.floats(0.0, 12.0)), draw(st.floats(0.5, 4.0))
    parity = draw(st.sampled_from(("odd", "even")))
    return assemble(grid, V0, lam, parity), assemble(grid, 0.0, lam, parity), V0 / lam ** 2


@settings(max_examples=30, deadline=None)
@given(sector=assembled_sectors())
def test_free_laplacian_bounds_enclose_every_eigenvalue(sector):
    d, free_sector, depth = sector
    eigs = eigvalsh_tridiagonal(d.diag, d.offdiag)
    free = eigvalsh_tridiagonal(free_sector.diag, free_sector.offdiag)
    tol = 1e-12 * (float(np.max(np.abs(d.diag))) + 2.0 * float(np.max(np.abs(d.offdiag))))
    # Weyl: lambda_i(A0) - V0/lam^2 <= lambda_i(A) <= lambda_i(A0)
    assert np.all(free - depth - tol <= eigs) and np.all(eigs <= free + tol)
    lower, upper = np.array([d.eig_bounds(i) for i in range(1, d.size + 1)]).T
    assert np.max(np.abs(upper - free)) <= tol
    assert np.max(np.abs(lower - (free - depth))) <= tol


@settings(max_examples=40, deadline=None)
@given(L=st.floats(5.0, 40.0), N=st.integers(16, 200), V0=st.floats(0.0, 8.0),
       lam=st.floats(0.5, 3.0), parity=st.sampled_from(("odd", "even")), i=st.integers(0, 2),
       delta=st.one_of(st.floats(-1e-3, 1e-3), st.floats(-50.0, 50.0)))
def test_counts_outside_the_margin_are_the_exact_inertia(L, N, V0, lam, parity, i, delta):
    # lowest_eigs trusts a count wherever no eigenvalue lies within its margin
    # 16 eps max(|gl|, |gu|) of the shift; there the count is the exact inertia
    d = assemble(make_grid(L, N), V0, lam, parity)
    shift = float(lowest_eigs(d, 3)[i]) + delta
    radius = np.abs(np.r_[0.0, d.offdiag]) + np.abs(np.r_[d.offdiag, 0.0])
    gl, gu = float(np.min(d.diag - radius)), float(np.max(d.diag + radius))
    margin = 16.0 * np.finfo(float).eps * max(abs(gl), abs(gu))
    exact = _exact_count(d.diag, d.offdiag, shift - margin)
    assume(exact == _exact_count(d.diag, d.offdiag, shift + margin))
    assert count_below(d, shift) == exact


@settings(max_examples=30, deadline=None)
@given(sector=assembled_sectors(), k_frac=st.floats(0.0, 1.0))
def test_free_laplacian_bounds_change_no_bit(sector, k_frac):
    d = sector[0]
    k = 1 + int(k_frac * (min(d.size, 40) - 1))
    assert lowest_eigs(d, k).tolist() == _lowest_eigs_counting_afresh(d.diag, d.offdiag, k)


WRONG_THETAS = ("gl", "gu", "nan", "neighbour")


def _wrong_locator(kind, diag, off):
    """A stand-in for `_locate_eigenvalue` that returns, for the i-th eigenvalue,
    a Gershgorin end, nan, or the eigenvalue next to it."""
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    ends = {"gl": float(np.min(diag - radius)), "gu": float(np.max(diag + radius)),
            "nan": math.nan}
    eigs = eigvalsh_tridiagonal(diag, off)

    def locate(d, i, lo, hi):
        if kind in ends:
            return ends[kind]
        return float(eigs[i] if i < eigs.size else eigs[i - 2])
    return locate


def _lowest_eigs_with_wrong_thetas(d, k):
    """lowest_eigs of a fresh copy of `d` under each wrong theta, as lists."""
    out = []
    for kind in WRONG_THETAS:
        fresh = SchrodingerDiscretization(diag=d.diag, offdiag=d.offdiag,
                                          eig_bounds=d.eig_bounds)
        with mock.patch.object(spectral, "_locate_eigenvalue",
                               _wrong_locator(kind, d.diag, d.offdiag)):
            out.append(lowest_eigs(fresh, k).tolist())
    return out


@settings(max_examples=20, deadline=None)
@given(sector=assembled_sectors(), k_frac=st.floats(0.0, 1.0))
def test_a_wrong_theta_changes_no_bit(sector, k_frac):
    # every decision still comes from a count or a bound: theta only places counts
    d = sector[0]
    k = 1 + int(k_frac * (min(d.size, 40) - 1))
    fresh = _lowest_eigs_counting_afresh(d.diag, d.offdiag, k)
    assert _lowest_eigs_with_wrong_thetas(d, k) == [fresh] * len(WRONG_THETAS)


@pytest.mark.parametrize("parity", ("odd", "even"))
def test_a_wrong_theta_changes_no_bit_on_the_shipped_sectors(parity):
    # the V0 = 6 sectors of configs/spectral.cfg, bisected to their marginal eigenvalue
    d = assemble(make_grid(40.0, 3999), 6.0, 1.0, parity)
    k = negative_count(d) + 1
    fresh = _lowest_eigs_counting_afresh(d.diag, d.offdiag, k)
    assert _lowest_eigs_with_wrong_thetas(d, k) == [fresh] * len(WRONG_THETAS)


@st.composite
def custom_polys(draw):
    """A custom-poly model of odd degree 3 to 9 with a drawn m and row."""
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
    coeffs = [0.0, 0.0]
    for c in draw(st.lists(coeff, min_size=1, max_size=4)):
        coeffs += [0.0, c]
    return make_model("custom-poly", {"m": draw(coeff.map(lambda c: 0.4 * c)), "coeffs": coeffs})


# |u| >= 1e-20 and |coefficients| >= 1e-3 keep every term of V' normal
SAMPLES = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-20, 4.0), st.floats(-4.0, -1e-20)),
    min_size=1, max_size=64,
).map(np.array)


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(st.sampled_from(MODELS), custom_polys()), u=SAMPLES)
def test_dV_is_minus_m_u_minus_f_and_odd(model, u):
    eps = np.finfo(float).eps
    before = u.copy()
    out, scratch = np.empty_like(u), np.empty_like(u)
    dv = model.dV(u, out, scratch)
    assert dv is out
    assert np.array_equal(u.view(np.int64), before.view(np.int64))
    mu, f = model.m * u, model.f(u)
    assert np.all(np.abs(dv + (mu + f)) <= 4.0 * eps * (np.abs(mu) + np.abs(f)))
    # the half-line's odd extension needs V'(-u) = -V'(u) exactly
    assert np.array_equal(model.dV(-u, np.empty_like(u), scratch).view(np.int64),
                          (-dv).view(np.int64))


def _full_acceleration(u, model, inv_dx2):
    """The stencil minus model.dV over the whole array: the windowed oracle."""
    a = np.multiply(u, -2.0)
    np.add(a[:-1], u[1:], out=a[:-1])
    np.add(a[1:], u[:-1], out=a[1:])
    a *= inv_dx2
    a -= model.dV(u, np.empty_like(u), np.empty_like(u))
    return a


def _bits(x):
    return x.view(np.int64)


@st.composite
def windowed_fields(draw, model):
    """A field and a window [lo, hi) outside which |u| < model.linear_below."""
    t = model.linear_below
    n = draw(st.integers(1, 60))
    lo, hi = draw(st.one_of(st.just((0, 0)), st.just((0, n)),
                            st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)))
    below = st.nothing()
    if t == 0.0:
        lo, hi = 0, n  # no linear tail
    else:
        small = [0.0, 5e-324, 2.0 ** -1022, 0.5 * t, 0.9 * t, float(np.nextafter(t, 0.0))]
        below = st.one_of(st.sampled_from(small + [-v for v in small]),
                          st.floats(-t, t, exclude_min=True, exclude_max=True))
    anything = st.one_of(below, st.sampled_from([t, -t, float(np.nextafter(t, 2.0))]),
                         st.floats(-4.0, 4.0))
    return np.array([draw(anything if lo <= i < hi else below) for i in range(n)]), lo, hi


# each catalog model, then custom-poly rows drawn by custom_polys
@pytest.mark.parametrize("model", [*MODELS[:-1], None], ids=[*CATALOG_NAMES[:-1], "custom-poly"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), inv_dx2=st.floats(0.01, 1e4))
def test_windowed_acceleration_is_the_full_one_bit_for_bit(model, data, inv_dx2):
    model = model or data.draw(custom_polys())
    u, lo, hi = data.draw(windowed_fields(model))
    a, tmp, scratch = (np.empty_like(u) for _ in range(3))
    _acceleration(u, model, inv_dx2, a, tmp, scratch, lo, hi)
    assert np.array_equal(_bits(a), _bits(_full_acceleration(u, model, inv_dx2)))


@pytest.mark.parametrize("model", [*MODELS[:-1], None], ids=[*CATALOG_NAMES[:-1], "custom-poly"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), dt=st.floats(-0.5, 0.5))
def test_half_kick_window_holds_and_changes_no_bit(model, data, dt):
    # from any window, valid or stale, the half-kick keeps or rescans it so
    # that every node outside holds |u| < linear_below; a nan or inf lands
    # inside; the half-kick is the full one bit for bit
    model = model or data.draw(custom_polys())
    t = model.linear_below
    edge = [0.0, t, -t, float(np.nextafter(t, 0.0)), 1e-300, math.nan, math.inf]
    values = st.one_of(st.sampled_from(edge), st.floats(-2.0 * t, 2.0 * t),
                       st.floats(-4.0, 4.0))
    # constant margins below t, long enough that a rescan keeps a window
    below = st.sampled_from([0.0, -0.0, 5e-324, edge[3], -edge[3]])
    left, right = (np.full(data.draw(st.integers(0, 1500)), data.draw(below)) for _ in "lr")
    u = np.concatenate([left, data.draw(st.lists(values, min_size=1, max_size=300)), right])
    n = u.size
    lo, hi = sorted(data.draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    a, tmp, scratch = (np.empty_like(u) for _ in range(3))
    with np.errstate(all="ignore"):
        lo, hi = _half_kick(u, model, 4.0, dt, a, tmp, scratch, lo, hi)
        full = _full_acceleration(u, model, 4.0)
        full *= 0.5 * dt
    assert 0 <= lo <= hi <= n
    assert np.all(np.abs(np.concatenate([u[:lo], u[hi:]])) < t)
    assert np.array_equal(_bits(a), _bits(full))


# each catalog model, then custom-poly rows drawn by custom_polys
@pytest.mark.parametrize("model", [*MODELS[:-1], None], ids=[*CATALOG_NAMES[:-1], "custom-poly"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_f_and_F_on_their_window_are_the_whole_array_ones_bit_for_bit(model, data):
    # the kernel finds its own window, evaluates f and F on that slice and
    # writes +0 outside it; a SIMD loop's remainder could take another path
    model = model or data.draw(custom_polys())
    u, _, _ = data.draw(windowed_fields(model))
    u = np.concatenate([u, np.zeros(16 - min(u.size, 16))])  # a grid has 16 nodes or more
    k = _Kernel(make_grid(10.0, u.size), u, None, model=model)
    assert np.array_equal(_bits(k.f), _bits(model.f(u)))
    assert np.array_equal(_bits(k.F), _bits(model.F(u)))


def _odd_state(N, L, seed, amplitude):
    grid = make_grid(L, N)
    rng = np.random.default_rng(seed)
    # half-line samples are odd data by representation
    bump = np.exp(-grid.x ** 2 / 8.0)
    return State(grid, amplitude * bump * rng.standard_normal(N),
                 amplitude * bump * rng.standard_normal(N))


@settings(max_examples=30, deadline=None)
@given(
    N=st.integers(16, 200),
    L=st.floats(5.0, 40.0),
    model=st.sampled_from(MODELS),
    seed=st.integers(0, 2 ** 32 - 1),
    amplitude=st.floats(1e-3, 0.1),
    safety=st.floats(0.1, 0.9),
    n=st.integers(1, 60),
    every=st.integers(1, 70),
)
# a draw whose phi4 data reached the wells, then blew up at this dt, when
# the run was not ended while the data was small
@example(N=16, L=21.0, model=MODELS[CATALOG_NAMES.index("phi4")], seed=0,
         amplitude=0.0625, safety=0.875, n=19, every=1)
def test_run_is_repeated_leapfrog_and_reversible(N, L, model, seed, amplitude, safety,
                                                 n, every):
    st0 = _odd_state(N, L, seed, amplitude)
    dt = cfl_dt(st0.grid.dx, model, safety)
    if model.m > 0:
        # the data grows at the zero state's linear rate sqrt(m) only while it
        # is small: end the run before it passes 0.1 (phi4 data reaching the
        # wells u = +-1 leaves the linearized bound that cfl_dt covers)
        n = max(1, min(n, int(math.log(0.1 / amplitude) / (math.sqrt(model.m) * dt))))
    vcfg = VirialConfig(2.0)

    seen = []
    recs = run(st0, model, RunSettings(dt=dt, T=n * dt, record_every=every), vcfg,
               on_record=lambda state, rec: seen.append(state))
    walk = st0
    for _ in range(n):
        walk = leapfrog_step(walk, model, dt)
    last = seen[-1]
    assert last.t == n * dt == recs[-1].t
    assert np.array_equal(last.u1, walk.u1)
    assert np.array_equal(last.u2, walk.u2)
    walked = make_record(State(walk.grid, walk.u1, walk.u2, n * dt), model, vcfg)
    assert (recs[-1].E, recs[-1].I, recs[-1].H) == (walked.E, walked.I, walked.H)

    for _ in range(n):
        walk = leapfrog_step(walk, model, -dt)
    # roundoff grows at most like the zero state's linear rate sqrt(m), m > 0
    growth = math.exp(math.sqrt(max(model.m, 0.0)) * n * dt)
    scale = math.sqrt(float(np.sum(st0.u1 ** 2) + np.sum(st0.u2 ** 2)))
    diff = math.sqrt(float(np.sum((walk.u1 - st0.u1) ** 2)
                           + np.sum((walk.u2 - st0.u2) ** 2)))
    assert diff <= 1e-10 * growth * scale


def _record_bits(rec):
    return _bits(np.array([v for name, v in vars(rec).items() if name != "dI_dt_numeric"]))


# a front value: "t" and "-t" stand for +-model.linear_below
FRONT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, "t", "-t"]),
                  st.floats(-1e-2, 1e-2))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(MODELS), fronts=st.tuples(*[st.lists(FRONT, min_size=1,
                                                                 max_size=40)] * 2),
       tail=st.integers(0, 300), n=st.integers(1, 150), every=st.integers(1, 40),
       safety=st.floats(0.1, 0.9))
# a -0 is live: the whole grid's step turns this u2's -0 into +0
@example(model=MODELS[CATALOG_NAMES.index("sine-gordon")], fronts=([0.0], [0.0, -0.0]),
         tail=0, n=1, every=1, safety=0.5)
def test_run_on_the_live_prefix_is_repeated_leapfrog_bit_for_bit(model, fronts, tail, n,
                                                                   every, safety):
    # data at the front of the grid, then a long tail of +0: run steps only the
    # live prefix, which must grow by a node a step between its scans; -0,
    # the least subnormal and +-linear_below sit where the prefix ends
    edge = {"t": model.linear_below, "-t": -model.linear_below}
    fronts = [np.array([edge.get(v, v) for v in front]) for front in fronts]
    N = max(16, max(map(len, fronts)) + tail)
    grid = make_grid(0.1 * (N + 1), N)
    u1, u2 = (np.concatenate([v, np.zeros(N - v.size)]) for v in fronts)
    dt = cfl_dt(grid.dx, model, safety)
    if model.m > 0:  # phi4: end the run while its growth keeps the data small
        n = max(1, min(n, int(math.log(10.0) / (math.sqrt(model.m) * dt))))
    vcfg = VirialConfig(2.0)

    seen = []
    recs = run(State(grid, u1, u2), model, RunSettings(dt=dt, T=n * dt, record_every=every),
               vcfg, on_record=lambda state, rec: seen.append(state))
    walk = [State(grid, u1, u2)]
    for _ in range(n):
        walk.append(leapfrog_step(walk[-1], model, dt))
    assert [round(rec.t / dt) for rec in recs] == [*range(0, n, every), n]
    for state, rec in zip(seen, recs):
        k = round(rec.t / dt)
        assert np.array_equal(_bits(state.u1), _bits(walk[k].u1))
        assert np.array_equal(_bits(state.u2), _bits(walk[k].u2))
        walked = make_record(State(grid, walk[k].u1, walk[k].u2, rec.t), model, vcfg)
        assert np.array_equal(_record_bits(rec), _record_bits(walked))


@settings(max_examples=60, deadline=None)
@given(a=ENTRIES, b=ENTRIES, L=st.floats(1.0, 40.0), N=st.integers(16, 500))
def test_even_origin_estimate_recovers_even_quadratics(a, b, L, N):
    # (4 g(dx) - g(2 dx))/3 is exact for g = a + b x^2, so the half-line
    # rule is dx (g(0) + 2 sum g) with g(0) = a, up to roundoff
    grid = make_grid(L, N)
    g = a + b * grid.x ** 2
    expected = grid.dx * (a + 2.0 * g.sum())
    eps = np.finfo(float).eps
    tol = 16.0 * eps * grid.dx * (abs(a) + 4.0 * abs(b) * grid.dx ** 2) + 4.0 * eps * abs(expected)
    assert abs(even_origin_integral(g, grid) - expected) <= tol


@st.composite
def masks(draw):
    """A bool array: random, or true but at up to three drawn nodes (all true with none)."""
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    skip = np.ones(n, dtype=bool)
    skip[draw(st.lists(st.integers(0, n - 1), max_size=3))] = False
    return skip


def _false_span(skip):
    """The oracle of `support`: from the first false node to one past the last."""
    idx = np.flatnonzero(~skip)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


@settings(max_examples=100, deadline=None)
@given(skip=masks())
@example(skip=np.ones(7, dtype=bool))
@example(skip=np.zeros(7, dtype=bool))
@example(skip=np.array([True]))
@example(skip=np.array([False]))
def test_support_is_the_span_of_the_false_nodes(skip):
    assert support(skip) == _false_span(skip)


@settings(max_examples=100, deadline=None)
@given(t=st.floats(5e-324, 4.0), data=st.data())
def test_support_of_below_holds_every_node_not_below(t, data):
    # the step's and the records' masks: nan, +-inf and +-t are not below t
    values = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                                        -5e-324, t, -t]), st.floats(-2.0 * t, 2.0 * t))
    u = np.array(data.draw(st.lists(values, min_size=1, max_size=200)))
    lo, hi = support(np.less(np.abs(u), t))
    outside = np.concatenate([u[:lo], u[hi:]])
    assert np.all(np.abs(outside) < t)
    assert (lo, hi) == _false_span(np.abs(u) < t)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(1.0, 10.0))
def test_B_and_Bsharp_agree_to_second_order(seed, lam):
    # the two routes to B differ by their O(dx^2) discretization errors, so
    # halving dx (N = 999 -> 1999 on L = 80) divides the gap by about 4
    cfg = VirialConfig(lam)
    gaps = []
    for N in (999, 1999):
        grid = make_grid(80.0, N)
        u1 = random_odd_field(grid, Lcg(seed))
        B = bilinear_B(u1, grid, cfg)
        gaps.append(abs(B - bsharp(to_w(u1, grid, cfg), grid, cfg)) / abs(B))
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5
