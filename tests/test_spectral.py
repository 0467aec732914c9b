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

from oddkg.grid import make_grid
from oddkg.spectral import (
    MARGINAL_EIG_TOL, assemble, coercivity_certificate, count_below,
    index_check, lowest_eigs, negative_count, pt_index,
)

LAM1_GRID = make_grid(40.0, 3999)  # dx = 0.01, the battery grid


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
            d = SchrodingerDiscretization(
                grid=LAM1_GRID, V0=0.0, lam=1.0, parity="odd",
                diag=diag, offdiag=off,
            )
            assert count_below(d, shift) == int(np.sum(eigs < shift))


def test_lowest_eigs_against_dense_eigensolver():
    rng = np.random.default_rng(11)
    n = 40
    diag = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    from oddkg.spectral import SchrodingerDiscretization
    d = SchrodingerDiscretization(grid=LAM1_GRID, V0=0.0, lam=1.0, parity="odd",
                                  diag=diag, offdiag=off)
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


def test_negative_count_free_laplacian_zero():
    for parity in ("odd", "even"):
        assert negative_count(assemble(LAM1_GRID, 0.0, 1.0, parity)) == 0


def test_negative_count_zero_pivot_retries_then_raises():
    # an exact zero pivot at shift 0 is retried once at shift -1e-12
    from oddkg.spectral import SchrodingerDiscretization

    def sector(diag, off):
        return SchrodingerDiscretization(
            grid=LAM1_GRID, V0=0.0, lam=1.0, parity="odd",
            diag=np.array(diag, dtype=float), offdiag=np.array(off, dtype=float),
        )

    # eigenvalues (1 -+ sqrt 2)/2: one negative, found through the retry
    assert negative_count(sector([0.0, 1.0], [0.5])) == 1
    # the second pivot is exactly zero at the fallback shift too
    with pytest.raises(ArithmeticError):
        negative_count(sector([0.0, -1e-12], [0.0]))


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(-2e18, rel=1e-6)
