import math

import numpy as np
import pytest
from oracles import even_origin_integral

from oddkg.grid import (
    State, derivative, gradient_sq_integral, integrate_fullline, make_fullline_grid, make_grid,
)
from oddkg.virial import energy_norm_sq


def test_make_grid_spacing():
    assert make_grid(80, 7999).dx == pytest.approx(0.01, abs=1e-15)
    assert make_grid(40, 3999).dx == pytest.approx(0.01, abs=1e-15)


def test_make_grid_nodes():
    g = make_grid(2.0, 19)
    assert g.x[0] == pytest.approx(g.dx)
    assert g.x[-1] == pytest.approx(g.L - g.dx)
    assert g.dx * (g.N + 1) == pytest.approx(g.L, rel=1e-15)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(80, 15)
    with pytest.raises(ValueError):
        make_grid(0.0, 100)
    with pytest.raises(ValueError):
        make_grid(-1.0, 100)


def test_fullline_grid_contains_origin_node():
    g = make_fullline_grid(80.0, 15999)
    assert g.dx == pytest.approx(0.01, abs=1e-15)
    assert np.min(np.abs(g.x)) < 1e-12  # x = 0 is an interior node
    assert g.x[0] == pytest.approx(-g.L + g.dx)


def test_field_shape_validation():
    # N - 1 values in either field; the single-field entry points are
    # checked in test_virial.test_single_field_entry_points_check_the_sample_count
    g = make_grid(10, 99)
    with pytest.raises(ValueError, match="N=99"):
        State(g, np.zeros(98), np.zeros(99))
    with pytest.raises(ValueError, match="N=99"):
        State(g, np.zeros(99), np.zeros(98))


def test_integrate_gaussian_against_sqrt_pi():
    # full-line integral of exp(-x^2); the even-origin estimate supplies the x=0 value
    g = make_grid(40.0, 3999)
    val = even_origin_integral(np.exp(-g.x ** 2), g)
    assert abs(val - math.sqrt(math.pi)) < 1e-6


def test_integrate_zero_field():
    g = make_grid(40.0, 3999)
    assert integrate_fullline(np.zeros(g.N), g) == 0.0


@pytest.mark.parametrize("make", (make_grid, make_fullline_grid))
def test_integrate_rejects_unknown_origin_and_foreign_grid(make):
    # on either grid kind, samples of another size than the grid's are an
    # error rather than integrated with its dx
    g, other = make(20.0, 99), make(40.0, 199)
    v = np.ones(g.N)
    with pytest.raises(ValueError, match="N=199"):
        integrate_fullline(v, other)


def test_integrate_sech_against_pi():
    # int sech = pi; domain truncation is exponentially small at L = 40
    # (the 1e-9 floor is the O(dx^5) origin-extrapolation term, not truncation)
    g40 = make_grid(40.0, 3999)
    val40 = even_origin_integral(1.0 / np.cosh(g40.x), g40)
    assert abs(val40 - math.pi) < 1e-9
    g80 = make_grid(80.0, 7999)  # same dx, doubled domain isolates truncation
    val80 = even_origin_integral(1.0 / np.cosh(g80.x), g80)
    assert abs(val80 - val40) < 10 * math.exp(-g40.L)


def test_integrate_fullline_grid_is_plain_trapezoid():
    g = make_fullline_grid(20.0, 1999)
    val = integrate_fullline(np.exp(-g.x ** 2), g)
    assert abs(val - math.sqrt(math.pi)) < 1e-10


def test_derivative_of_sine_second_order():
    errs = []
    for N in (1999, 3999):
        g = make_grid(40.0, N)
        f = np.sin(math.pi * g.x / g.L)
        exact = (math.pi / g.L) * np.cos(math.pi * g.x / g.L)
        errs.append(np.max(np.abs(derivative(f, g) - exact)))
    order = math.log2(errs[0] / errs[1])
    assert 1.9 <= order <= 2.1


def test_derivative_zero_field():
    g = make_grid(10, 99)
    assert np.all(derivative(np.zeros(g.N), g) == 0.0)


def test_derivative_linear_field_exact_interior():
    # central differences are exact on x; only the x=L Dirichlet ghost clips
    g = make_grid(10, 99)
    d = derivative(g.x.copy(), g)
    assert np.allclose(d[:-1], 1.0, atol=1e-12)
    assert d[-1] != pytest.approx(1.0, abs=0.1)


def test_quadrature_refinement_at_least_second_order():
    # |x|^2.5-type even integrand has a genuine algebraic error signal at the
    # origin; smooth decaying integrands superconverge past any fixed order,
    # so assert at-least-second-order on the error ratio
    def err(N):
        g = make_grid(20.0, N)
        exact = math.gamma(1.75) / 2.0 ** 1.75  # int_R |x|^2.5 exp(-2 x^2) via Gamma
        val = even_origin_integral(np.abs(g.x) ** 2.5 * np.exp(-2.0 * g.x ** 2), g)
        return abs(val - exact)

    e1, e2 = err(999), err(1999)
    assert e1 / e2 >= 3.7


def test_integration_by_parts_exact_for_odd_fields():
    # central differences + zero ghosts telescope exactly: residual ~ round-off
    g = make_grid(40.0, 3999)
    f = g.x * np.exp(-g.x ** 2)
    h = g.x * np.exp(-g.x ** 2 / 2.0)
    resid = integrate_fullline(derivative(f, g) * h + f * derivative(h, g), g)
    assert abs(resid) < 1e-6
    assert abs(resid) < 1e-12  # in fact it telescopes to round-off


def test_gradient_sq_integral_matches_analytic():
    # d/dx (x e^{-x^2}) squared integrates to 3/4 sqrt(pi/2) over the line;
    # the staggered form is second order
    exact = 0.75 * math.sqrt(math.pi / 2.0)
    errs = []
    for N in (7999, 15999):
        g = make_grid(40.0, N)
        f = g.x * np.exp(-g.x ** 2)
        errs.append(abs(gradient_sq_integral(f, g) - exact) / exact)
    assert errs[0] < 1e-4
    assert 3.7 <= errs[0] / errs[1] <= 4.3


def test_h1_l2_norm_positive_definite():
    g = make_grid(20.0, 999)
    u1 = g.x * np.exp(-g.x ** 2)
    u2 = np.zeros(g.N)
    assert energy_norm_sq(State(g, u1, u2)) > 0
    assert energy_norm_sq(State(g, u2, u2)) == 0.0
