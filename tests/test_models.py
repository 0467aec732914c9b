import math

import numpy as np
import pytest
from scipy.integrate import quad

from oddkg.grid import State, make_fullline_grid, make_grid
from oddkg.models import ModelError, make_model
from oddkg.virial import energy
from oddkg.exact import BreatherParams, breather_state

CATALOG = ("sine-gordon", "phi4", "phi6", "cubic-nlkg", "linear-kg")

# coefficient in the small-amplitude bound |f'(u)| <= C |u|^(p-1), |u| < 1
FPRIME_BOUND = {
    "sine-gordon": 0.5,   # f' = 1 - cos(u) <= u^2/2
    "phi4": 3.0,
    "phi6": 12.0,         # |12u^2 - 15u^4| <= 12u^2 on |u| < 1
    "cubic-nlkg": 3.0,
    "linear-kg": 1.0,
}


def test_catalog_coefficients():
    sg = make_model("sine-gordon")
    assert sg.m == -1.0
    assert sg.m * (math.pi / 2) + sg.f(math.pi / 2) == pytest.approx(-1.0, abs=1e-15)
    p4 = make_model("phi4")
    assert p4.m == 1.0
    assert p4.f(0.5) == -0.125
    p6 = make_model("phi6")
    assert p6.m == -1.0
    assert p6.f(1.0) == pytest.approx(1.0)  # 4 - 3
    cn = make_model("cubic-nlkg")
    assert cn.m == -1.0
    assert cn.f(2.0) == 8.0
    lk = make_model("linear-kg")
    assert lk.m == -1.0
    assert lk.f(1.7) == 0.0


def test_unknown_model_rejected():
    with pytest.raises(ModelError):
        make_model("phi8")


@pytest.mark.parametrize("name", CATALOG)
def test_f_vanishes_at_origin(name):
    assert make_model(name).f(0.0) == 0.0


@pytest.mark.parametrize("name", CATALOG)
def test_oddness_exact(name):
    model = make_model(name)
    u = np.linspace(-2.0, 2.0, 1001)
    assert np.all(model.f(-u) + model.f(u) == 0.0)


@pytest.mark.parametrize("name", CATALOG)
def test_small_amplitude_bound(name):
    # |f'(u)| <= C |u|^(p-1) for |u| < 1, f' by central differences
    model = make_model(name)
    u = np.linspace(-0.99, 0.99, 397)
    h = 1e-6
    fprime = (model.f(u + h) - model.f(u - h)) / (2 * h)
    bound = FPRIME_BOUND[name] * np.abs(u) ** (model.p - 1.0) + 1e-9
    assert np.all(np.abs(fprime) <= bound)


# custom-poly rows with a large row sum, a small m, and degree 9
LINEAR_BELOW_CUSTOM = [
    {"m": -1.0, "coeffs": (0.0, 0.0, 0.0, 1e6, 0.0, -1e6)},
    {"m": 1e-3, "coeffs": (0.0, 0.0, 0.0, 0.5)},
    {"m": -2.5, "coeffs": (0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, -3.0)},
]


@pytest.mark.parametrize("name, params", [(n, None) for n in CATALOG]
                         + [("custom-poly", p) for p in LINEAR_BELOW_CUSTOM])
def test_dV_is_linear_below_linear_below_bit_for_bit(name, params):
    # the step's linear far field rests on this (for sine-Gordon: np.sin(u) == u
    # on this numpy and libm): random mantissas in every binade below t, down
    # to the subnormals, the largest double below t, and +-0.  The records'
    # f and F rest on the same values being +0 bit for bit below f_zero_below
    # (sine-Gordon, whose threshold is t; np.cos(u) rounds to 1 there)
    model = make_model(name, params)
    t = model.linear_below
    assert 0.0 < t <= 1.0
    exponents = np.arange(-1074, math.frexp(t)[1])
    rng = np.random.default_rng(7)
    u = np.ldexp(rng.uniform(1.0, 2.0, (exponents.size, 256)), exponents[:, None]).ravel()
    u = np.concatenate([u[u < t], [np.nextafter(t, 0.0), 0.0]])
    u = np.concatenate([u, -u])
    dv = model.dV(u, np.empty_like(u), np.empty_like(u))
    assert np.array_equal(dv.view(np.int64), (u * -model.m).view(np.int64))
    assert model.f_zero_below in (0.0, t)
    if model.f_zero_below:
        for g in (model.f, model.F):
            assert np.array_equal(g(u).view(np.int64), np.zeros(u.size, np.int64))


def test_linear_below_thresholds():
    assert make_model("sine-gordon").linear_below == 2.0 ** -27
    assert make_model("phi4").linear_below == 2.0 ** -28
    assert make_model("linear-kg").linear_below == 1.0  # the cap: a zero row
    assert make_model("custom-poly", {"m": 0.0, "coeffs": (0.0, 0.0, 0.0, 1.0)}).linear_below == 0.0
    # f and F are +0 below 2^-27 for sine-Gordon; a row's f = u^3 P(u^2) is not
    assert make_model("sine-gordon").f_zero_below == 2.0 ** -27
    for name in ("phi4", "phi6", "cubic-nlkg", "linear-kg"):
        assert make_model(name).f_zero_below == 0.0


@pytest.mark.parametrize("name", CATALOG)
def test_F_is_antiderivative_of_f(name):
    model = make_model(name)
    h = 1e-5
    for u in np.linspace(-2.0, 2.0, 41):
        fd = (model.F(u + h) - model.F(u - h)) / (2 * h)
        assert fd == pytest.approx(model.f(u), abs=1e-8)
    assert model.F(0.0) == 0.0


def test_sine_gordon_F_closed_form():
    sg = make_model("sine-gordon")
    for u in (0.3, 1.0, 2.5):
        assert sg.F(u) == pytest.approx(0.5 * u * u + math.cos(u) - 1.0, rel=1e-15)


@pytest.mark.parametrize("name", ("sine-gordon", "phi6", "cubic-nlkg"))
@pytest.mark.parametrize("u_top", (0.3, 1.0, 2.5))
def test_F_matches_quadrature_of_f(name, u_top):
    model = make_model(name)
    val, err = quad(lambda s: model.f(s), 0.0, u_top, epsabs=1e-12)
    assert model.F(u_top) == pytest.approx(val, abs=10 * err + 1e-12)


def test_custom_poly():
    m = make_model("custom-poly", {"m": -1.0, "coeffs": (0.0, 0.0, 0.0, 2.0)})
    assert m.f(2.0) == 16.0
    assert m.F(2.0) == pytest.approx(8.0)  # 2 u^4 / 4
    assert m.p == 3.0


# (m, coefficients of u^3, u^5, ...) of each polynomial catalog model
POLYNOMIAL_ROWS = {
    "phi4": (1.0, (-1.0,)),
    "phi6": (-1.0, (4.0, -3.0)),
    "cubic-nlkg": (-1.0, (1.0,)),
    "linear-kg": (-1.0, (0.0,)),
}


@pytest.mark.parametrize("name", sorted(POLYNOMIAL_ROWS))
def test_custom_poly_of_a_catalog_row_is_the_catalog_model(name):
    # the same m and coefficients give the same f, bit for bit
    m, row = POLYNOMIAL_ROWS[name]
    coeffs = [0.0, 0.0]
    for c in row:
        coeffs += [0.0, c]
    custom = make_model("custom-poly", {"m": m, "coeffs": coeffs})
    catalog = make_model(name)
    assert (custom.m, custom.p) == (catalog.m, catalog.p)
    tiny = np.logspace(-320, -1, 2001)
    u = np.concatenate([np.linspace(-3.0, 3.0, 100_001), tiny, -tiny])
    assert np.array_equal(custom.f(u).view(np.int64), catalog.f(u).view(np.int64))


def test_custom_poly_rejects_even_degrees():
    with pytest.raises(ModelError):
        make_model("custom-poly", {"m": -1.0, "coeffs": (0.0, 0.0, 1.0, 2.0)})
    with pytest.raises(ModelError):
        make_model("custom-poly", {"m": -1.0, "coeffs": (1.0,)})


def test_custom_poly_rejects_linear_term():
    # a linear term belongs in m, not in f (it would force p = 1)
    with pytest.raises(ModelError):
        make_model("custom-poly", {"m": -1.0, "coeffs": (0.0, 0.5, 0.0, 1.0)})


def test_custom_poly_requires_params():
    with pytest.raises(ModelError):
        make_model("custom-poly")


def test_energy_zero_state():
    g = make_grid(40.0, 1999)
    st = State(g, np.zeros(g.N), np.zeros(g.N))
    assert energy(st, make_model("linear-kg")) == 0.0


def test_energy_pure_velocity_gaussian():
    # u1 = 0, u2 = x exp(-x^2): E = 1/2 int u2^2 = sqrt(pi/2)/8
    g = make_grid(40.0, 3999)
    st = State(g, np.zeros(g.N), g.x * np.exp(-g.x ** 2))
    exact = math.sqrt(math.pi / 2.0) / 8.0
    assert energy(st, make_model("linear-kg")) == pytest.approx(exact, rel=1e-7)


def test_breather_energy_against_quadrature_oracle():
    # at t=0: u2 = 0, E = int u1x^2/2 + (1 - cos u1); oracle via scipy.quad
    sg = make_model("sine-gordon")
    beta = 0.6
    p = BreatherParams(beta)

    def u1(x):
        return 4.0 * math.atan((beta / p.alpha) / math.cosh(beta * x))

    def u1x(x):
        g = (beta / p.alpha) / math.cosh(beta * x)
        return 4.0 * (-beta * math.tanh(beta * x)) * g / (1.0 + g * g)

    dens = lambda x: 0.5 * u1x(x) ** 2 + (1.0 - math.cos(u1(x)))
    oracle, _ = quad(dens, -60.0, 60.0, epsabs=1e-12, limit=200)

    grid = make_fullline_grid(60.0, 23999)
    st = breather_state(p, 0.0, grid)
    assert energy(st, sg) == pytest.approx(oracle, rel=1e-6)


def test_breather_energy_scales_linearly_in_beta():
    sg = make_model("sine-gordon")
    grid = make_fullline_grid(60.0, 11999)
    E = {}
    for beta in (0.1, 0.2, 0.4):
        E[beta] = energy(breather_state(BreatherParams(beta), 0.0, grid), sg)
    assert E[0.2] / E[0.1] == pytest.approx(2.0, rel=0.05)
    assert E[0.4] / E[0.2] == pytest.approx(2.0, rel=0.05)
