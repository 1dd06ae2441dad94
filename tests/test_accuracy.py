"""Accuracy against a 60-digit ``decimal`` reference at unit scale.

The reference computes ``||x||_p``, the semi-inner product
``[x, y] = ||y||^(2-p) * sum_i x_i * conj(y_i) * |y_i|^(p-2)`` and the
support coefficients ``phase(y_i) * (|y_i| / ||y||)^(p-1)`` in
``decimal`` arithmetic.  Floats convert to ``Decimal`` exactly, so every
input is represented exactly; complex values are carried as separate real
and imaginary parts, and ``|y_i|`` comes from ``Decimal.sqrt``.

The budgets follow the forward error of the float formulas (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3):

* ``norm`` within ``NORM_ULPS`` ulp relative to ``||x||``;
* ``sip`` within ``2 * (p + 4)`` ulp relative to ``||x|| * ||y||``: the
  support coefficients ``(|y_i| / ||y||)^(p-1)`` carry the relative error
  of ``||y||`` multiplied by ``p - 1``.

An ulp here is ``2**-52``, the spacing of floats at 1.  The wrong answers
that the evaluators still give outside unit scale are listed at the end as
strict xfails, each asserting the right value and naming its defect, so a
fix shows up as an XPASS.
"""

from decimal import Decimal, localcontext
from math import inf

import numpy as np
import pytest

from sipwigner import (COMPLEX, REAL, gateaux_sip_oracle, lp_space, norm, sip,
                       support_functional)

DIGITS = 60
EPS = 2.0 ** -52
PS = (1.1, 1.5, 3.0, 7.0, 50.0, 100.0)
PAIRS = 20  # seeded pairs per (field, p), dims 1..16
NORM_ULPS = 8


def parts(z):
    """(re, im) of a float or complex as exact Decimals."""
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def modulus(re, im):
    return (re * re + im * im).sqrt()


def ref_norm(v, p):
    p = Decimal(p)
    return sum(modulus(*parts(c)) ** p for c in v) ** (1 / p)


def ref_sip(x, y, p):
    """[x, y] as (re, im) Decimals, at a nonzero y."""
    ny, p = ref_norm(y, p), Decimal(p)
    re = im = Decimal(0)
    for xi, yi in zip(x, y):
        (xr, xj), (yr, yj) = parts(xi), parts(yi)
        a = modulus(yr, yj)
        if a:
            w = a ** (p - 2)
            re += (xr * yr + xj * yj) * w
            im += (xj * yr - xr * yj) * w
    scale = ny ** (2 - p)
    return re * scale, im * scale


def ref_support(y, p):
    """The support coefficients at y as (re, im) Decimal pairs."""
    ny, p = ref_norm(y, p), Decimal(p)
    out = []
    for yi in y:
        yr, yj = parts(yi)
        a = modulus(yr, yj)
        w = (a / ny) ** (p - 1) / a if a else Decimal(0)  # phase(y_i) = y_i / |y_i|
        out.append((yr * w, yj * w))
    return out


def ulps(value, ref, scale):
    """|value - ref| / scale in ulps, for a float or complex ``value`` and an
    (re, im) or real Decimal ``ref``; inf when ``value`` is not finite."""
    if not np.isfinite(value):
        return inf
    re, im = ref if isinstance(ref, tuple) else (ref, Decimal(0))
    vr, vi = parts(value)
    return float(modulus(vr - re, vi - im) / scale) / EPS


def draw_pairs(field, p):
    """PAIRS seeded (space, x, y) of standard normal coordinates, one dim
    from 1 to 16 per pair."""
    rng = np.random.default_rng([int(p * 10), field == COMPLEX])
    pairs = []
    for _ in range(PAIRS):
        n = int(rng.integers(1, 17))
        xy = rng.standard_normal((2, n))
        if field == COMPLEX:
            xy = xy + 1j * rng.standard_normal((2, n))
        pairs.append((lp_space(field, n, p), *xy))
    return pairs


@pytest.fixture(autouse=True)
def sixty_digits():
    with localcontext() as ctx:
        ctx.prec = DIGITS
        yield


CELLS = [(field, p) for field in (REAL, COMPLEX) for p in PS]


@pytest.mark.parametrize("field, p", CELLS, ids=[f"{f}-{p:g}" for f, p in CELLS])
def test_norm_and_sip_are_within_their_ulp_budgets(field, p):
    worst_norm = worst_sip = 0.0
    for s, x, y in draw_pairs(field, p):
        nx, ny = ref_norm(x, p), ref_norm(y, p)
        worst_norm = max(worst_norm, ulps(norm(s, x), nx, nx), ulps(norm(s, y), ny, ny))
        worst_sip = max(worst_sip, ulps(sip(s, x, y), ref_sip(x, y, p), nx * ny))
    assert worst_norm <= NORM_ULPS
    assert worst_sip <= 2 * (p + 4)


# ---------------------------------------------------------------- known wrong answers

R3 = lp_space(REAL, 2, 3.0)
R100 = lp_space(REAL, 2, 100.0)


def xfail(defect):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=defect)


@pytest.mark.parametrize("space, v", [
    pytest.param(R3, [1e200, 1e-200], marks=xfail("|v_i|^3 overflows: norm returns inf")),
    pytest.param(R3, [1e-120, 1e-120], marks=xfail("|v_i|^3 underflows: norm returns 0")),
    pytest.param(R100, [2000.0, 1.0], marks=xfail("|v_i|^100 overflows: norm returns inf")),
    pytest.param(R100, [5e-4, 5e-4], marks=xfail("|v_i|^100 underflows: norm returns 0")),
], ids=["l3-1e200", "l3-1e-120", "l100-2000", "l100-5e-4"])
def test_norm_out_of_unit_scale(space, v):
    with np.errstate(over="ignore", under="ignore"):
        value = norm(space, v)
    ref = ref_norm(v, space.norm.p)
    assert ulps(value, ref, ref) <= NORM_ULPS


@xfail("||x||^3 overflows on the way to ||y||^(2-p): sip(x, x) returns NaN")
def test_sip_of_x_with_itself_at_1e150():
    x = [1e150, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        value = sip(R3, x, x)
    ref = ref_norm(x, 3.0)
    assert ulps(value, ref_sip(x, x, 3.0), ref * ref) <= 2 * (3 + 4)


@xfail("||y|| overflows to inf: support_functional returns [0, 0]")
def test_support_functional_at_1e200():
    # the functional has norm 1, so its coefficients' errors are absolute
    y = [1e200, 1.0]
    with np.errstate(over="ignore"):
        g = support_functional(R3, y)
    assert max(ulps(gi, ri, 1) for gi, ri in zip(g, ref_support(y, 3.0))) <= 2 * (3 + 4)


@xfail("the step 1e-5*||y|| sends ||y + h*x|| past the float range: NaN")
def test_gateaux_oracle_at_1e100():
    y = [1e100, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        value = gateaux_sip_oracle(R3, y, y)
    ref = ref_norm(y, 3.0)
    # a central difference, not a closed form: criterion 2's 1e-7 relative
    assert ulps(value, ref_sip(y, y, 3.0), ref * ref) <= 1e-7 / EPS
