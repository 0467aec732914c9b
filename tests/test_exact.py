import math

import numpy as np
import pytest
from oracles import linear_standing_wave, standing_wave_energy

from oddkg.exact import BreatherParams, breather_dt_exact, breather_exact, breather_state
from oddkg.grid import make_fullline_grid, make_grid
from oddkg.models import make_model
from oddkg.virial import energy


def test_breather_params_validation():
    with pytest.raises(ValueError):
        BreatherParams(0.0)
    with pytest.raises(ValueError):
        BreatherParams(1.0)
    p = BreatherParams(0.6)
    assert p.alpha ** 2 + p.beta ** 2 == pytest.approx(1.0, rel=1e-15)


def test_breather_symmetric_parameters_value():
    # beta = alpha = 1/sqrt(2): B(0, 0) = 4 arctan(1) = pi
    p = BreatherParams(1.0 / math.sqrt(2.0))
    assert breather_exact(p, 0.0, 0.0) == pytest.approx(math.pi, rel=1e-15)


def test_breather_vanishes_at_quarter_period():
    p = BreatherParams(0.37)
    t = math.pi / (2.0 * p.alpha)
    x = np.linspace(-10, 10, 101)
    assert np.max(np.abs(breather_exact(p, t, x))) < 1e-12


def test_breather_time_periodicity():
    p = BreatherParams(0.5)
    x = np.linspace(-8, 8, 33)
    for t in (0.0, 0.3, 2.1):
        a = breather_exact(p, t, x)
        b = breather_exact(p, t + p.period, x)
        assert np.allclose(a, b, atol=1e-12)


def test_breather_even_in_x():
    p = BreatherParams(0.5)
    x = np.linspace(0.1, 12, 40)
    for t in (0.0, 1.0, 5.0):
        assert np.array_equal(breather_exact(p, t, x), breather_exact(p, t, -x))


def test_breather_dt_against_finite_difference():
    # closed-form time derivative vs centered difference of B itself
    p = BreatherParams(0.45)
    x = np.linspace(-6, 6, 25)
    h = 1e-6
    for t in (0.0, 0.7, 3.3):
        fd = (breather_exact(p, t + h, x) - breather_exact(p, t - h, x)) / (2 * h)
        assert np.allclose(breather_dt_exact(p, t, x), fd, atol=1e-8)


def test_breather_state_requires_fullline_grid():
    p = BreatherParams(0.5)
    with pytest.raises(ValueError):
        breather_state(p, 0.0, make_grid(40.0, 1999))


def test_breather_state_quarter_period_displacement_vanishes():
    p = BreatherParams(0.5)
    g = make_fullline_grid(40.0, 3999)
    st = breather_state(p, math.pi / (2.0 * p.alpha), g)
    assert np.max(np.abs(st.u1)) < 1e-12
    assert np.max(np.abs(st.u2)) > 0.1


def test_breather_discrete_pde_residual_second_order():
    # substitute exact samples into the discrete sine-Gordon operator:
    # B_tt - D2 B + sin(B) = O(dx^2 + ht^2)
    p = BreatherParams(0.5)
    resid = []
    for N in (3999, 7999):
        g = make_fullline_grid(20.0, N)
        ht = g.dx  # time difference step tied to dx so both refine together
        um = breather_exact(p, -ht, g.x)
        u0 = breather_exact(p, 0.0, g.x)
        up = breather_exact(p, ht, g.x)
        utt = (up - 2.0 * u0 + um) / ht ** 2
        u_pad = np.concatenate(([0.0], u0, [0.0]))
        uxx = (u_pad[:-2] - 2.0 * u_pad[1:-1] + u_pad[2:]) / g.dx ** 2
        r = np.max(np.abs(utt - uxx + np.sin(u0))[1:-1])
        resid.append(r)
    assert 3.5 <= resid[0] / resid[1] <= 4.5


def test_breather_l2_norm_vanishes_with_beta():
    # small-beta asymptotics: u1 ~ 4 beta sech(beta x), so ||u1||_L2 ~ sqrt(32 beta)
    g = make_fullline_grid(60.0, 5999)
    norms = {}
    for beta in (0.4, 0.2, 0.1, 0.05):
        u1 = breather_state(BreatherParams(beta), 0.0, g).u1
        norms[beta] = math.sqrt(g.dx * float(np.dot(u1, u1)))
    assert norms[0.05] < norms[0.1] < norms[0.2] < norms[0.4]
    assert norms[0.05] / norms[0.2] == pytest.approx(0.5, rel=0.1)
    assert norms[0.05] == pytest.approx(math.sqrt(32 * 0.05), rel=0.05)


def test_standing_wave_initial_velocity_zero():
    g = make_grid(40.0, 1999)
    st = linear_standing_wave(3, g, 0.0)
    assert np.all(st.u2 == 0.0)
    assert np.max(np.abs(st.u1)) > 0.9


def test_standing_wave_periodicity_continuum():
    g = make_grid(40.0, 1999)
    k = 3 * math.pi / g.L
    w = math.sqrt(k * k + 1.0)
    a = linear_standing_wave(3, g, 0.0)
    b = linear_standing_wave(3, g, 2.0 * math.pi / w)
    assert np.allclose(a.u1, b.u1, atol=1e-12)
    assert np.allclose(a.u2, b.u2, atol=1e-12)


def test_standing_wave_energy_closed_form():
    g = make_grid(40.0, 7999)
    lk = make_model("linear-kg")
    for t in (0.0, 0.4):
        st = linear_standing_wave(5, g, t)
        assert energy(st, lk) == pytest.approx(standing_wave_energy(5, g), rel=1e-4)
