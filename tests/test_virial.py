"""Virial functional tests: quadrature oracles via scipy on closed forms,
identity checks between the independent B / Bsharp routes, and the record
machinery."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import even_origin_integral
from scipy.integrate import quad

from oddkg.experiments import write_timeseries
from oddkg.grid import State, derivative, integrate_fullline, make_grid
from oddkg.models import make_model
from oddkg.virial import (
    CSV_COLUMNS, DiagnosticsRecord, VirialConfig, H_loc, bilinear_B, bsharp,
    fill_dI_dt_numeric, make_record, to_w, virial_I, weighted_norms,
)

# dense grid so quadrature/stencil error sits below the 1e-6 oracle tolerance
FINE = make_grid(20.0, 79999)


def _field(fn):
    return fn(FINE.x)


def _state(f1, f2):
    return State(FINE, _field(f1), _field(f2))


def test_virial_config_validation():
    with pytest.raises(ValueError):
        VirialConfig(0.0)
    with pytest.raises(ValueError):
        VirialConfig(-1.0)
    # the weights divide by lam^2, which must stay finite
    for lam in (math.inf, 1e200):
        with pytest.raises(ValueError):
            VirialConfig(lam)


@pytest.mark.parametrize("call", [
    lambda v, g: bilinear_B(v, g, VirialConfig(10.0)),
    lambda v, g: bsharp(v, g, VirialConfig(10.0)),
    lambda v, g: to_w(v, g, VirialConfig(10.0)),
    integrate_fullline,
], ids=["bilinear_B", "bsharp", "to_w", "integrate_fullline"])
def test_single_field_entry_points_check_the_sample_count(call):
    # one shape check, grid.check_samples, guards every entry point that takes
    # a bare array; the State cases are in test_grid.test_field_shape_validation
    g = make_grid(20.0, 99)
    with pytest.raises(ValueError, match="N=99"):
        call(np.ones(g.N - 1), g)


def test_virial_I_zero_velocity():
    st = _state(lambda x: x * np.exp(-x * x), lambda x: 0.0 * x)
    assert virial_I(st, VirialConfig(10.0)) == 0.0


def test_virial_I_selfpair_vanishes():
    # int (psi v_x + psi'/2 v) v = 0: discretely exact up to O(dx^2)
    st = _state(lambda x: x * np.exp(-x * x), lambda x: x * np.exp(-x * x))
    cfg = VirialConfig(10.0)
    scale = integrate_fullline(np.abs(st.u1) ** 2, FINE)
    assert abs(virial_I(st, cfg)) < 1e-6 * scale


def test_virial_I_against_quadrature_oracle():
    lam = 10.0
    st = _state(lambda x: x * np.exp(-x * x), lambda x: x * np.exp(-x * x / 2.0))

    def integrand(x):
        u1x = math.exp(-x * x) * (1.0 - 2.0 * x * x)
        u1 = x * math.exp(-x * x)
        u2 = x * math.exp(-x * x / 2.0)
        psi = lam * math.tanh(x / lam)
        psip = 1.0 / math.cosh(x / lam) ** 2
        return (psi * u1x + 0.5 * psip * u1) * u2

    oracle = 2.0 * quad(integrand, 0.0, 20.0, epsabs=1e-13, limit=200)[0]
    assert virial_I(st, VirialConfig(lam)) == pytest.approx(oracle, rel=1e-6)


def test_bilinear_B_zero_field():
    z = np.zeros(FINE.N)
    assert bilinear_B(z, FINE, VirialConfig(1.0)) == 0.0


def test_bilinear_B_against_quadrature_oracle():
    lam = 1.0
    u1 = _field(lambda x: x * np.exp(-x * x))

    def integrand(x):
        u1x = math.exp(-x * x) * (1.0 - 2.0 * x * x)
        u = x * math.exp(-x * x)
        s = 1.0 / math.cosh(x / lam)
        th = math.tanh(x / lam)
        psip = s * s
        psippp = (2.0 / lam ** 2) * s * s * (3.0 * th * th - 1.0)
        return psip * u1x ** 2 - 0.25 * psippp * u * u

    oracle = 2.0 * quad(integrand, 0.0, 20.0, epsabs=1e-13, limit=200)[0]
    assert bilinear_B(u1, FINE, VirialConfig(lam)) == pytest.approx(oracle, rel=1e-6)


def test_bsharp_against_quadrature_oracle():
    lam = 1.0
    w = _field(lambda x: x * np.exp(-x * x))

    def integrand(x):
        wx = math.exp(-x * x) * (1.0 - 2.0 * x * x)
        wv = x * math.exp(-x * x)
        V = 0.5 / lam ** 2 / math.cosh(x / lam) ** 2
        return wx * wx - V * wv * wv

    oracle = 2.0 * quad(integrand, 0.0, 20.0, epsabs=1e-13, limit=200)[0]
    assert bsharp(w, FINE, VirialConfig(lam)) == pytest.approx(oracle, rel=1e-6)


def test_to_w_inverts_cosh_factor():
    lam = 3.0
    g = lambda x: x * np.exp(-x * x)
    u1 = _field(lambda x: np.cosh(x / lam) * g(x))
    w = to_w(u1, FINE, VirialConfig(lam))
    assert np.allclose(w, g(FINE.x), rtol=1e-12, atol=1e-300)


def test_to_w_zero_and_oddness():
    z = np.zeros(FINE.N)
    assert np.all(to_w(z, FINE, VirialConfig(2.0)) == 0.0)


def test_b_equals_bsharp_after_transform():
    cfg = VirialConfig(10.0)
    u1 = _field(lambda x: x * np.exp(-x * x / 4.0) + 0.3 * np.sin(x) * np.exp(-x * x / 9.0))
    B = bilinear_B(u1, FINE, cfg)
    Bs = bsharp(to_w(u1, FINE, cfg), FINE, cfg)
    assert Bs == pytest.approx(B, rel=1e-8)


def test_bsharp_odd_coercivity_on_samples():
    # Bsharp(w) >= 3/4 int w_x^2 for odd w
    cfg = VirialConfig(1.0)
    rng = np.random.default_rng(42)
    for _ in range(20):
        c = rng.normal(size=4)
        w = _field(lambda x: np.exp(-x * x / 8.0)
                   * (c[0] * x + c[1] * np.sin(x) + c[2] * np.sin(2 * x) + c[3] * x ** 3
                      * np.exp(-x * x)))
        dw = derivative(w, FINE)
        stiff = even_origin_integral(dw * dw, FINE)
        assert bsharp(w, FINE, cfg) >= 0.75 * stiff - 1e-9 * stiff


def test_virial_rhs_zero_state():
    g = make_grid(20.0, 999)
    z = State(g, np.zeros(g.N), np.zeros(g.N))
    assert make_record(z, make_model("phi4"), VirialConfig(10.0)).dI_dt_rhs == 0.0


def test_virial_rhs_linear_model_reduces_to_B():
    st = _state(lambda x: x * np.exp(-x * x), lambda x: 0.0 * x)
    cfg = VirialConfig(10.0)
    lk = make_model("linear-kg")
    rhs = -make_record(st, lk, cfg).dI_dt_rhs
    assert rhs == pytest.approx(bilinear_B(st.u1, FINE, cfg), rel=1e-15)


def test_weighted_norms_oracle_and_zero_velocity():
    st = _state(lambda x: x * np.exp(-x * x), lambda x: 0.0 * x)

    def integrand(x):
        u1x = math.exp(-x * x) * (1.0 - 2.0 * x * x)
        u1 = x * math.exp(-x * x)
        return (u1x ** 2 + u1 ** 2) / math.cosh(x)

    oracle = 2.0 * quad(integrand, 0.0, 20.0, epsabs=1e-13, limit=200)[0]
    h1w, l2w = weighted_norms(st)
    assert l2w == 0.0
    assert h1w == pytest.approx(oracle, rel=1e-6)


def test_H_equals_sum_of_weighted_norms():
    st = _state(lambda x: x * np.exp(-x * x / 2.0), lambda x: np.sin(x) * np.exp(-x * x / 5.0))
    h1w, l2w = weighted_norms(st)
    assert H_loc(st) == pytest.approx(h1w + l2w, rel=1e-12)


def test_H_zero_state():
    g = make_grid(20.0, 999)
    z = State(g, np.zeros(g.N), np.zeros(g.N))
    assert H_loc(z) == 0.0


def test_dH_analytic_vanishes_without_velocity():
    st = _state(lambda x: x * np.exp(-x * x), lambda x: 0.0 * x)
    cfg = VirialConfig(10.0)
    assert make_record(st, make_model("sine-gordon"), cfg).dH_dt_analytic == 0.0
    g = make_grid(20.0, 999)
    z = State(g, np.zeros(g.N), np.zeros(g.N))
    assert make_record(z, make_model("phi4"), cfg).dH_dt_analytic == 0.0


def test_cross_term_oracle_and_bound():
    st = _state(lambda x: x * np.exp(-x * x), lambda x: x * np.exp(-x * x))
    oracle = 2.0 * quad(lambda x: (x * math.exp(-x * x)) ** 2 / math.cosh(x),
                        0.0, 20.0, epsabs=1e-13)[0]
    cross = make_record(st, make_model("sine-gordon"), VirialConfig(10.0)).cross
    assert cross == pytest.approx(oracle, rel=1e-6)
    # |cross| <= (H1w + L2w)/2 by Cauchy-Schwarz + AM-GM
    h1w, l2w = weighted_norms(st)
    assert abs(cross) <= 0.5 * (h1w + l2w) + 1e-15


def test_sf_ratio_zero_field_and_validation():
    # sine-Gordon's p = 3 gives q = p - 1 = 2
    g = make_grid(20.0, 999)
    z = State(g, np.zeros(g.N), np.zeros(g.N))
    assert make_record(z, make_model("sine-gordon"), VirialConfig(10.0)).sf_ratio == 0.0


def test_sf_ratio_scale_invariance():
    cfg, sg = VirialConfig(10.0), make_model("sine-gordon")  # q = p - 1 = 2
    u1 = _field(lambda x: x * np.exp(-x * x))
    base = make_record(State(FINE, u1, u1), sg, cfg).sf_ratio
    for c in (2.0, -5.0, 0.03):
        scaled = c * u1
        assert make_record(State(FINE, scaled, scaled), sg, cfg).sf_ratio == pytest.approx(
            base, rel=1e-12)


def test_sf_ratio_against_quadrature_oracle():
    lam, q = 10.0, 2.0  # sine-Gordon's q = p - 1
    u1 = _field(lambda x: x * np.exp(-x * x))

    def num_int(x):
        return abs(x * math.exp(-x * x)) ** (2 + q) / math.cosh(x / lam) ** 2

    def dw_int(x):
        # d/dx [sech(x/lam) * x e^{-x^2}]
        u = x * math.exp(-x * x)
        ux = math.exp(-x * x) * (1 - 2 * x * x)
        s = 1.0 / math.cosh(x / lam)
        sp = -s * math.tanh(x / lam) / lam
        return (s * ux + sp * u) ** 2

    num = 2.0 * quad(num_int, 0.0, 20.0, epsabs=1e-14)[0]
    den = 2.0 * quad(dw_int, 0.0, 20.0, epsabs=1e-14)[0]
    sup = float(np.max(np.abs(u1)))
    oracle = num / (sup ** q * den)
    rec = make_record(State(FINE, u1, u1), make_model("sine-gordon"), VirialConfig(lam))
    assert rec.sf_ratio == pytest.approx(oracle, rel=1e-6)


def test_make_record_consistent_with_functionals():
    g = make_grid(40.0, 1999)
    st = State(g, g.x * np.exp(-g.x ** 2 / 4.0), 0.2 * g.x * np.exp(-g.x ** 2 / 3.0))
    sg = make_model("sine-gordon")
    cfg = VirialConfig(10.0)
    rec = make_record(st, sg, cfg)
    assert rec.I == virial_I(st, cfg)
    assert rec.B_val == bilinear_B(st.u1, g, cfg)
    assert rec.H == H_loc(st)
    assert (rec.H1w_sq, rec.L2w_sq) == weighted_norms(st)
    assert math.isnan(rec.dI_dt_numeric)


def test_csv_roundtrip_bit_exact(tmp_path):
    # every value the CSV writer formats, record and extra columns alike,
    # reads back with float() bit for bit
    rec = DiagnosticsRecord(
        t=0.30000000000000004, E=-1.2345678912345678e-7, I=math.pi,
        dI_dt_numeric=-2.718281828459045e3, dI_dt_rhs=1e-300, B_val=0.1,
        H=7.0, H1w_sq=3.5, L2w_sq=3.5, cross=-0.25,
        dH_dt_analytic=1.7976931348623157e2, sf_ratio=0.0,
    )
    extra = {"exact_err_l2": [5e-324]}
    path = tmp_path / "timeseries.csv"
    write_timeseries([rec], path, extra)
    header, row = path.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS) + ",exact_err_l2"
    want = [getattr(rec, col) for col in CSV_COLUMNS] + extra["exact_err_l2"]
    assert [float(v).hex() for v in row.split(",")] == [v.hex() for v in want]

    write_timeseries([], path, {"exact_err_l2": []})
    assert path.read_text() == header + "\n"


def _records(times, I):
    return [DiagnosticsRecord(t=t, E=0, I=i, dI_dt_numeric=math.nan, dI_dt_rhs=0, B_val=0,
                              H=0, H1w_sq=0, L2w_sq=0, cross=0, dH_dt_analytic=0, sf_ratio=0)
            for t, i in zip(times, I)]


def test_fill_dI_dt_numeric_quadratic_exact():
    # derivative of the record interpolant is exact on quadratics, including
    # a shorter final interval and the end records
    times = [0.0, 0.1, 0.2, 0.3, 0.34]
    recs = _records(times, [3.0 * t * t - 2.0 * t + 1.0 for t in times])
    fill_dI_dt_numeric(recs)
    for r in recs:
        assert r.dI_dt_numeric == pytest.approx(6.0 * r.t - 2.0, abs=1e-10)


def test_fill_dI_dt_numeric_is_the_exact_three_point_slope():
    # record times on a dt cadence with a short final interval; each slope
    # against the derivative, at its record, of the parabola through the
    # record's 3-point stencil, evaluated in exact rationals on the same floats
    times = [k * 25 * 0.0016 for k in range(9)] + [8.3 * 25 * 0.0016]
    I = [7e-3 + 1e-3 * math.sin(3.0 * t) for t in times]
    recs = _records(times, I)
    fill_dI_dt_numeric(recs)
    n = len(recs)
    for k, r in enumerate(recs):
        j = min(max(k - 1, 0), n - 3)
        ts, fs, at = [Fraction(v) for v in times[j:j + 3]], I[j:j + 3], Fraction(times[k])
        coefs = [(2 * at - sum(ts) + ti) / math.prod(ti - tm for tm in ts if tm != ti)
                 for ti in ts]
        exact = sum(c * Fraction(f) for c, f in zip(coefs, fs))
        # the rounding of a 3-term sum whose coefficients are rounded too
        bound = 8 * Fraction(np.finfo(float).eps) * sum(abs(c * Fraction(f))
                                                        for c, f in zip(coefs, fs))
        assert abs(Fraction(r.dI_dt_numeric) - exact) <= bound, k


def test_fill_dI_dt_numeric_short_sequences():
    fill_dI_dt_numeric([])
    one = _records([0.0], [2.0])
    one[0].dI_dt_numeric = 1.0
    fill_dI_dt_numeric(one)
    assert math.isnan(one[0].dI_dt_numeric)
    two = _records([0.1, 0.25], [2.0, 3.5])
    fill_dI_dt_numeric(two)
    assert [r.dI_dt_numeric for r in two] == [(3.5 - 2.0) / (0.25 - 0.1)] * 2


@pytest.mark.parametrize("last_two", [(1.0, math.inf), (1.0, math.nan),
                                      (1e308, math.inf), (math.inf, math.inf)])
def test_fill_dI_dt_numeric_after_a_blow_up_warns_nothing(last_two):
    # the last records of a blow-up may hold a huge or non-finite I: no numpy
    # warning escapes, and the slopes whose stencils avoid them are kept
    times = [0.0, 0.1, 0.2, 0.3, 0.4, 0.45]
    finite = _records(times, [1.0, 2.0, 4.0, 3.0, 5.0, 6.0])
    blown = _records(times, [1.0, 2.0, 4.0, 3.0, *last_two])
    fill_dI_dt_numeric(finite)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fill_dI_dt_numeric(blown)
    assert [r.dI_dt_numeric for r in blown[:3]] == [r.dI_dt_numeric for r in finite[:3]]
    assert not math.isfinite(blown[-1].dI_dt_numeric)
