"""Catalog of 1D nonlinear Klein-Gordon models d^2u/dt^2 = d^2u/dx^2 + m*u + f(u).

Each entry fixes the linear coefficient m and an odd C^1 nonlinearity f
with f(0) = 0 and |f'(u)| <= C |u|^(p-1) near 0 for some p > 1, together
with the exact antiderivative F(u) = integral_0^u f (never quadrature, so
the energy and the virial right-hand side carry no quadrature-of-f error).
Every polynomial model is one row: m and the coefficients P_k of
f(u) = u^3 P(u^2); F(u) = u^4 Q(u^2) with Q_k = P_k / (2k + 4) follows.
The time stepper needs only V'(u) = -(m*u + f(u)), the derivative of the
field potential V(u) = -(m u^2/2 + F(u)), which each model writes in place
(`Model.dV`); for a row it is u R(u^2) with R(s) = -(m + s P(s)).

    name         m    row P      f(u)          F(u)                 V'(u)
    ----------   ---  ---------  ------------  -------------------  ---------------
    sine-gordon  -1   -          u - sin(u)    u^2/2 + cos(u) - 1   sin(u)
    phi4         +1   (-1,)      -u^3          -u^4/4               u^3 - u
    phi6         -1   (4, -3)    4u^3 - 3u^5   u^4 - u^6/2          u - 4u^3 + 3u^5
    cubic-nlkg   -1   (1,)       u^3           u^4/4                u - u^3
    linear-kg    -1   (0,)       0             0                    u
    custom-poly  user odd polynomial from poly_coeffs

Note that phi4 has m = +1: the zero state sits on the local maximum of
the field potential, so it is linearly unstable and small data does not
stay small (long decay experiments are meaningful only for the m = -1
entries; see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

CATALOG_NAMES = ("sine-gordon", "phi4", "phi6", "cubic-nlkg", "linear-kg", "custom-poly")

#: the polynomial models: name -> (m, coefficients of u^3, u^5, ... in f)
_POLYNOMIALS = {
    "phi4": (1.0, (-1.0,)),
    "phi6": (-1.0, (4.0, -3.0)),
    "cubic-nlkg": (-1.0, (1.0,)),
    "linear-kg": (-1.0, (0.0,)),
}


class ModelError(ValueError):
    """Unknown model name or invalid model parameters."""


@dataclass(frozen=True)
class Model:
    """Immutable model definition: equation coefficients plus closed forms.

    `dV(u, out, scratch)` writes V'(u) = -(m*u + f(u)) into `out` and
    returns it, allocating nothing; `scratch` is a buffer shaped like `u`
    that it may overwrite.  `u` stays unchanged.  Where |u| < `linear_below`
    (at most 1), dV(u) equals u * (-m) bit for bit, and where |u| <
    `f_zero_below`, f(u) and F(u) are +0 bit for bit (0 when no such range
    is known: a polynomial row's f is tiny but nonzero in the tails).
    """

    name: str
    m: float
    p: float
    linear_below: float
    f_zero_below: float
    f: Callable = field(repr=False)
    F: Callable = field(repr=False)
    dV: Callable = field(repr=False)


def _horner(coeffs: tuple, s, out=None):
    """coeffs[0] + coeffs[1]*s + coeffs[2]*s^2 + ..., by Horner's rule.

    Evaluated in place in `out` (a new array if None), one pass per
    operation; a single coefficient is returned as the constant itself.
    """
    if len(coeffs) == 1:
        return coeffs[0]
    out = np.multiply(s, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= s
    out += coeffs[0]
    return out


def _polynomial(name: str, m: float, coeffs: tuple, p: float = 3.0) -> Model:
    """f(u) = u^3 P(u^2) and F(u) = u^4 Q(u^2) from the nonempty row P = coeffs."""
    Fcoeffs = tuple(c / (2 * k + 4) for k, c in enumerate(coeffs))
    Rcoeffs = (-m, *(-c for c in coeffs))

    # powers are spelled with multiplications: np.power is an order of
    # magnitude slower, and f runs on the whole grid at every record
    def f(u):
        s = u * u
        return (u * s) * _horner(coeffs, s)

    def F(u):
        s = u * u
        return (s * s) * _horner(Fcoeffs, s)

    def dV(u, out, scratch):
        # u R(s) with s = u^2; R has at least two coefficients, so it is
        # evaluated into out
        _horner(Rcoeffs, np.multiply(u, u, out=scratch), out)
        out *= u
        return out

    # |u| < t gives s < 1 and |s P(s)| < 2^-56 |m| (|P(s)| <= sum|P_k|), below half an
    # ulp of m even after rounding, so R(s) rounds to -m and dV(u) is u * (-m).  t = 0
    # if m = 0; the cap keeps every |u| >= 1, where u*u may overflow, in the window.
    total = sum(abs(c) for c in coeffs)
    t = 0.0 if m == 0.0 else min(1.0, math.sqrt(2.0 ** -56 * abs(m) / total) if total else 1.0)
    return Model(name, m=m, p=p, linear_below=t, f_zero_below=0.0, f=f, F=F, dV=dV)


def make_model(name: str, params: Mapping | None = None) -> Model:
    """Build a catalog model by name.

    `params` is used by custom-poly only and must provide `m` and
    `coeffs` (ascending-degree coefficients of f).  Coefficients of even
    degree must vanish (f must be odd) and the linear coefficient must
    vanish as well: a linear term belongs in m, and keeping it out of f
    preserves |f'(u)| <= C|u|^(p-1) with p > 1.  The small-amplitude degree
    p is the lowest degree with a nonzero coefficient, or 3 if f is zero.
    """
    if name == "sine-gordon":
        # |sin(u) - u| <= |u|^3/6 is below half an ulp of u for |u| < 2^-26, so sin
        # rounds to u there; t = 2^-27 leaves a factor 2 (tests check numpy's sin).
        # Below t, cos(u) and u^2/2 + cos(u) round to 1 too, so f and F are
        # u - u = +0 and 1 - 1 = +0 (-0 - sin(-0) is +0 as well)
        return Model(
            name, m=-1.0, p=3.0, linear_below=2.0 ** -27, f_zero_below=2.0 ** -27,
            f=lambda u: u - np.sin(u),
            F=lambda u: 0.5 * u * u + np.cos(u) - 1.0,
            dV=lambda u, out, scratch: np.sin(u, out=out),
        )
    if name in _POLYNOMIALS:
        return _polynomial(name, *_POLYNOMIALS[name])
    if name == "custom-poly":
        if params is None or "m" not in params or "coeffs" not in params:
            raise ModelError("custom-poly requires params with 'm' and 'coeffs'")
        m = float(params["m"])
        coeffs = np.asarray(list(params["coeffs"]), dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ModelError("custom-poly coeffs must be a nonempty 1D sequence")
        if not (math.isfinite(m) and np.isfinite(coeffs).all()):
            raise ModelError(f"custom-poly m and coeffs must be finite, got m={m}")
        for deg in range(0, coeffs.size, 2):
            if coeffs[deg] != 0.0:
                raise ModelError(
                    f"custom-poly coefficient of even degree {deg} must be zero (f must be odd)"
                )
        if coeffs.size > 1 and coeffs[1] != 0.0:
            raise ModelError(
                "custom-poly linear coefficient must be zero; fold linear terms into m"
            )
        nonzero = np.nonzero(coeffs)[0]
        p = float(nonzero[0]) if nonzero.size else 3.0
        # an f of degree below 3 is zero: linear-kg's row
        row = tuple(coeffs[3::2].tolist()) or (0.0,)
        return _polynomial(name, m, row, p)
    raise ModelError(f"unknown model {name!r}; choose one of {CATALOG_NAMES}")

