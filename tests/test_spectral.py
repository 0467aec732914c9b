"""Spectral module tests.

Oracles: the closed-form index bound, the exactly solvable sech^2
spectrum (eigenvalues -(nu-n)^2 with alternating parity), the discrete
Dirichlet-Laplacian eigenvalues (4/dx^2) sin^2(k pi dx / (2L)), and dense
eigensolves on small random tridiagonals for the Sturm machinery itself.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import exact_count_below

from oddkg import spectral
from oddkg.experiments import build_config, parse_pairs, run_scenario
from oddkg.grid import make_grid
from oddkg.spectral import (
    EIG_ATOL, MARGINAL_EIG_TOL, assemble, coercivity_certificate, count_below,
    index_check, lowest_eigs, negative_count, pt_index,
)

LAM1_GRID = make_grid(40.0, 3999)  # dx = 0.01, the battery grid
ROOT = Path(__file__).resolve().parents[1]


def test_pt_index_values():
    assert pt_index(0.0) == 0
    assert pt_index(0.5) == 1   # 1 < (sqrt(3)+1)/2 < 2
    assert pt_index(2.0) == 1   # bound is exactly 2: strict inequality
    assert pt_index(6.0) == 2   # bound is exactly 3
    assert pt_index(12.0) == 3
    assert pt_index(3.0) == 2


def test_pt_index_rejects_negative():
    with pytest.raises(ValueError):
        pt_index(-0.1)


def test_assemble_validation():
    with pytest.raises(ValueError):
        assemble(LAM1_GRID, -1.0, 1.0, "odd")
    with pytest.raises(ValueError):
        assemble(LAM1_GRID, 1.0, 0.0, "odd")
    with pytest.raises(ValueError):
        assemble(LAM1_GRID, 1.0, 1.0, "both")


def test_assemble_refuses_a_depth_that_overflows():
    # V0 and lam each pass their rule, but V0/lam^2 = inf gave a sector of nan
    # entries whose negative_count was 1
    with pytest.raises(ValueError, match="depth"):
        assemble(make_grid(20.0, 99), 1e300, 1e-5, "even")


def test_assemble_shapes_and_parity_structure():
    odd = assemble(LAM1_GRID, 2.0, 1.0, "odd")
    even = assemble(LAM1_GRID, 2.0, 1.0, "even")
    N = LAM1_GRID.N
    inv_dx2 = 1.0 / LAM1_GRID.dx ** 2
    assert odd.diag.shape == (N,) and odd.offdiag.shape == (N - 1,)
    # even sector carries the x=0 node as a genuine unknown
    assert even.diag.shape == (N + 1,) and even.offdiag.shape == (N,)
    # V(0) enters with full weight (sech(0) = 1)
    assert even.diag[0] == pytest.approx(2.0 * inv_dx2 - 2.0, rel=1e-14)
    # the interior entries coincide; only the boundary treatment differs
    assert np.array_equal(even.diag[1:], odd.diag)
    assert even.offdiag[0] == pytest.approx(-math.sqrt(2.0) * inv_dx2, rel=1e-15)
    assert np.array_equal(even.offdiag[1:], odd.offdiag)


def test_sturm_count_against_dense_eigensolver():
    rng = np.random.default_rng(3)
    for n in (5, 17, 60):
        diag = rng.normal(size=n)
        off = rng.normal(size=n - 1)
        M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eigs = np.linalg.eigvalsh(M)
        g = make_grid(1.0, n) if n >= 16 else None
        for shift in (-2.0, -0.5, 0.0, 0.3, 1.7):
            # exercise the raw counting kernel through a wrapper object
            from oddkg.spectral import SchrodingerDiscretization
            d = SchrodingerDiscretization(diag=diag, offdiag=off)
            assert count_below(d, shift) == int(np.sum(eigs < shift))


def test_lowest_eigs_against_dense_eigensolver():
    rng = np.random.default_rng(11)
    n = 40
    diag = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    from oddkg.spectral import SchrodingerDiscretization
    d = SchrodingerDiscretization(diag=diag, offdiag=off)
    M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    dense = np.sort(np.linalg.eigvalsh(M))
    mine = lowest_eigs(d, 7)
    assert np.allclose(mine, dense[:7], atol=1e-9)


def test_free_laplacian_odd_sector_closed_form():
    op = assemble(LAM1_GRID, 0.0, 1.0, "odd")
    eigs = lowest_eigs(op, 3)
    dx, L = LAM1_GRID.dx, LAM1_GRID.L
    exact = [(4.0 / dx ** 2) * math.sin(k * math.pi * dx / (2.0 * L)) ** 2
             for k in (1, 2, 3)]
    assert np.allclose(eigs, exact, atol=1e-9)
    assert eigs[0] == pytest.approx((math.pi / L) ** 2, rel=1e-3)


def test_free_laplacian_even_sector_closed_form():
    # exact even restriction of the full-line Dirichlet matrix on
    # [-L', L'], L' = (N+1) dx: the odd-numbered full-line modes
    op = assemble(LAM1_GRID, 0.0, 1.0, "even")
    eigs = lowest_eigs(op, 3)
    dx, N = LAM1_GRID.dx, LAM1_GRID.N
    exact = [(4.0 / dx ** 2) * math.sin(j * math.pi / (2 * (2 * N + 2))) ** 2
             for j in (1, 3, 5)]
    assert np.allclose(eigs, exact, atol=1e-9)


@pytest.mark.parametrize("parity", ("odd", "even"))
@pytest.mark.parametrize("N", (16, 17, 64))
def test_free_spectrum_closed_form_matches_a_dense_solve(N, parity):
    # every eigenvalue of the free sector, not only the lowest few
    grid = make_grid(10.0, N)
    op = assemble(grid, 0.0, 1.0, parity)
    dense = np.linalg.eigvalsh(_dense(op))
    bounds = [op.eig_bounds(i) for i in range(1, op.size + 1)]
    assert all(lower == upper for lower, upper in bounds)
    assert np.max(np.abs(np.array(bounds)[:, 1] - dense)) <= 1e-13 * 4.0 / grid.dx ** 2


def test_bounds_that_are_not_finite_decide_nothing():
    d = assemble(make_grid(10.0, 40), 2.0, 1.0, "even")
    bare = spectral.SchrodingerDiscretization(diag=d.diag, offdiag=d.offdiag)
    broken = spectral.SchrodingerDiscretization(
        diag=d.diag, offdiag=d.offdiag, eig_bounds=lambda i: (math.inf, -math.inf))
    assert lowest_eigs(broken, 5).tolist() == lowest_eigs(bare, 5).tolist()
    assert lowest_eigs(d, 5).tolist() == lowest_eigs(bare, 5).tolist()


def test_lowest_eigs_ascend_where_eigenvalues_lie_closer_than_the_tolerance():
    # dx = 1e98 puts every eigenvalue in [0, 4e-196], far inside EIG_ATOL, so
    # a bracket can end below the previous eigenvalue's midpoint
    with np.errstate(over="ignore"):  # cosh(x/lam) overflows on every node
        op = assemble(make_grid(1e100, 99), 2.0, 1.0, "odd")
    eigs = lowest_eigs(op, 3)
    assert eigs.tolist() == sorted(eigs.tolist())
    assert np.all(np.abs(eigs - np.linalg.eigvalsh(_dense(op))[:3]) <= EIG_ATOL)


def test_shipped_spectral_run_takes_at_most_100_counts(tmp_path, monkeypatch):
    # 84 counts and 81 Newton passes; without the free-Laplacian bounds the
    # Newton passes decide less, and the run takes 137 counts and 388 passes
    shifts = []
    counting = spectral._sturm_count
    monkeypatch.setattr(spectral, "_sturm_count",
                        lambda *args: shifts.append(args[2]) or counting(*args))
    pairs = parse_pairs((ROOT / "configs" / "spectral.cfg").read_text(encoding="utf-8"))
    pairs["output_dir"] = str(tmp_path)
    run_scenario(build_config(pairs))
    assert len(shifts) <= 100


def test_shipped_spectral_run_takes_at_most_200_pivot_passes(tmp_path, monkeypatch):
    # plain counts and Newton passes together: 443 counts before the eigenvalues
    # were located first, 84 counts and 81 passes after
    passes = []
    for name in ("_sturm_count", "_sturm_slope"):
        original = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *args, f=original: passes.append(f) or f(*args))
    pairs = parse_pairs((ROOT / "configs" / "spectral.cfg").read_text(encoding="utf-8"))
    pairs["output_dir"] = str(tmp_path)
    run_scenario(build_config(pairs))
    assert len(passes) <= 200


def test_negative_count_free_laplacian_zero():
    for parity in ("odd", "even"):
        assert negative_count(assemble(LAM1_GRID, 0.0, 1.0, parity)) == 0


def test_negative_count_nudges_zero_pivots():
    # a pivot within pivmin of 0 at shift 0 counts and becomes -pivmin, as in LAPACK dlaebz
    from oddkg.spectral import SchrodingerDiscretization

    def sector(diag, off):
        return SchrodingerDiscretization(
            diag=np.array(diag, dtype=float), offdiag=np.array(off, dtype=float),
        )

    # eigenvalues (1 -+ sqrt 2)/2: one negative, past a zero first pivot
    assert negative_count(sector([0.0, 1.0], [0.5])) == 1
    # eigenvalues -1, +1 and about -1, +1: zero pivots at shift 0 and at -1e-12
    assert negative_count(sector([0.0, 0.0, -1e-12, 0.0], [1.0, 0.0, 1.0])) == 2
    # eigenvalues 1e-300 and 1: the first pivot, 1e-300, is below pivmin and counts
    assert negative_count(sector([1e-300, 1.0], [0.0])) == 1


def test_poschl_teller_ground_state_even():
    # V0 = 2, lam = 1: single even bound state sech(x) at eigenvalue -1
    assert negative_count(assemble(LAM1_GRID, 2.0, 1.0, "even")) == 1
    assert negative_count(assemble(LAM1_GRID, 2.0, 1.0, "odd")) == 0
    ev = lowest_eigs(assemble(LAM1_GRID, 2.0, 1.0, "even"), 1)[0]
    assert ev == pytest.approx(-1.0, abs=1e-4)


def test_poschl_teller_v0_6_spectrum_parity_split():
    # nu = 2: eigenvalues -4 (even) and -1 (odd)
    ev_even = lowest_eigs(assemble(LAM1_GRID, 6.0, 1.0, "even"), 1)[0]
    ev_odd = lowest_eigs(assemble(LAM1_GRID, 6.0, 1.0, "odd"), 1)[0]
    assert ev_even == pytest.approx(-4.0, abs=1e-3)
    assert ev_odd == pytest.approx(-1.0, abs=1e-3)
    assert negative_count(assemble(LAM1_GRID, 6.0, 1.0, "even")) == 1
    assert negative_count(assemble(LAM1_GRID, 6.0, 1.0, "odd")) == 1


def test_eigenvalue_convergence_second_order():
    errs = []
    for N in (1999, 3999):
        g = make_grid(40.0, N)
        ev = lowest_eigs(assemble(g, 2.0, 1.0, "even"), 1)[0]
        errs.append(abs(ev + 1.0))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("V0", (0.0, 0.5, 1.0, 2.0, 3.0, 6.0, 12.0))
def test_index_consistency_battery(V0):
    chk = index_check(LAM1_GRID, V0, 1.0)
    assert chk.counts_match, (
        f"V0={V0}: counts {chk.count_odd}+{chk.count_even} != {chk.predicted}"
    )
    # the first uncounted eigenvalue in each sector stays out of the counted
    # range; at thresholds (V0 = 2, 6, 12) it is the near-zero resonance
    assert chk.marginal_odd >= -MARGINAL_EIG_TOL
    assert chk.marginal_even >= -MARGINAL_EIG_TOL


def test_parities_sum_to_index_at_half():
    total = (negative_count(assemble(LAM1_GRID, 0.5, 1.0, "odd"))
             + negative_count(assemble(LAM1_GRID, 0.5, 1.0, "even")))
    assert total == pt_index(0.5) == 1


@pytest.mark.parametrize("parity", ("odd", "even"))
def test_certificate_reuses_the_counts_of_index_check(parity, monkeypatch):
    # the grid keeps the count tables of its sectors; the residual operator
    # is the V0 = 2 sector that index_check bisects
    grid = make_grid(40.0, 399)
    assert index_check(grid, 2.0, 1.0) == index_check(make_grid(40.0, 399), 2.0, 1.0)
    shifts = []
    counting = spectral._sturm_count
    monkeypatch.setattr(spectral, "_sturm_count",
                        lambda *args: shifts.append(args[2]) or counting(*args))
    shared = coercivity_certificate(1.0, grid, parity)
    n_shared = len(shifts)
    assert shared == coercivity_certificate(1.0, make_grid(40.0, 399), parity)
    assert 0 < n_shared < len(shifts) - n_shared


def test_coercivity_certificate_odd():
    rep = coercivity_certificate(1.0, LAM1_GRID, parity="odd")
    assert rep.residual_min_eig >= -1e-6
    assert rep.negative_count == 0
    assert 0.75 - 1e-3 <= rep.coercivity_min_ratio <= 1.0


def test_coercivity_certificate_even_breaks_bound():
    rep = coercivity_certificate(1.0, LAM1_GRID, parity="even")
    assert rep.coercivity_min_ratio < 0.75
    assert rep.negative_count == 1
    assert rep.residual_min_eig == pytest.approx(-1.0, abs=1e-3)


def test_certificate_scale_equivariance():
    # (lam, L=40*lam, N) is an exact rescaling of (1, 40, N): eigenvalues
    # scale by 1/lam^2 and the dimensionless ratio is unchanged
    base = coercivity_certificate(1.0, LAM1_GRID, parity="odd")
    lam = 10.0
    scaled = coercivity_certificate(lam, make_grid(40.0 * lam, LAM1_GRID.N), parity="odd")
    assert scaled.coercivity_min_ratio == pytest.approx(base.coercivity_min_ratio,
                                                        abs=2e-6)
    # each eigenvalue is bisected to +-1e-10 on its own scale; rescaling by
    # lam^2 amplifies the scaled bracket accordingly
    assert scaled.residual_min_eig * lam ** 2 == pytest.approx(
        base.residual_min_eig, abs=(1.0 + lam ** 2) * 1e-10
    )


def _dense(d):
    return np.diag(d.diag) + np.diag(d.offdiag, 1) + np.diag(d.offdiag, -1)


@pytest.mark.parametrize("parity", ("odd", "even"))
@pytest.mark.parametrize("lam, L, N", ((1.0, 20.0, 199), (2.0, 10.0, 99), (0.5, 8.0, 150),
                                       (3.7, 40.0, 200)))
def test_coercivity_min_ratio_matches_a_dense_pencil_solve(lam, L, N, parity):
    # an independent oracle: the smallest generalized eigenvalue of
    # (A_stiff - M_V, A_stiff), the V0 = 1/2 and V0 = 0 sectors, by LAPACK
    from scipy.linalg import eigh
    grid = make_grid(L, N)
    pencil = [_dense(assemble(grid, V0, lam, parity)) for V0 in (0.5, 0.0)]
    dense = eigh(*pencil, eigvals_only=True, subset_by_index=[0, 0])[0]
    ratio = coercivity_certificate(lam, grid, parity).coercivity_min_ratio
    assert abs(ratio - dense) <= 1e-6


@pytest.mark.parametrize("lam", (1.0, 10.0, 100.0))
def test_coercivity_battery_across_scales(lam):
    grid = make_grid(40.0 * lam, 3999)
    rep = coercivity_certificate(lam, grid, parity="odd")
    assert rep.coercivity_min_ratio >= 0.75 - 1e-3
    assert rep.residual_min_eig >= -1e-6


def test_bisection_stops_at_float_resolution():
    # lambda = 1e-9 puts eigenvalues near -2e18, whose float spacing (256)
    # is far above EIG_ATOL; bisection must still end.  Run in a child
    # process so that a regression fails on the timeout instead of hanging.
    code = (
        "from oddkg.grid import make_grid\n"
        "from oddkg.spectral import assemble, coercivity_certificate, lowest_eigs\n"
        "g = make_grid(40.0, 99)\n"
        "print(lowest_eigs(assemble(g, 2.0, 1e-9, 'even'), 3)[0])\n"
        "coercivity_certificate(1e-9, g, 'odd')\n"
    )
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(-2e18, rel=1e-6)


@pytest.mark.parametrize("N", (100, 400))
@pytest.mark.parametrize("V0, parity", ((0.5, "even"), (2.0, "odd"), (2.0, "even"),
                                        (6.0, "odd")))
def test_counts_equal_the_exact_inertia_of_the_assembled_matrix(V0, parity, N):
    # at 0 and just either side of each of the three lowest eigenvalues, the
    # float count equals the exact count in rational arithmetic, and no exact
    # pivot vanishes, so the exact count is the inertia itself
    d = assemble(make_grid(20.0, N), V0, 1.0, parity)
    shifts = [0.0] + [float(e) + s for e in lowest_eigs(d, 3) for s in (-1e-6, 1e-6)]
    for shift in shifts:
        exact, zero_pivot = exact_count_below(d.diag, d.offdiag, shift)
        assert not zero_pivot, shift
        assert exact == count_below(d, shift), shift
