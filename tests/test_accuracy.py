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
that the evaluators and the checkers still give outside unit scale are
listed at the end as strict xfails, each asserting the right outcome and
naming its defect, so a fix shows up as an XPASS.
"""

from decimal import Decimal, localcontext
from math import inf

import numpy as np
import pytest

from sipwigner import (COMPLEX, REAL, HypothesisViolation, MapOracle, SipwignerError,
                       best_coeffs, bj_orthogonal, check_exact_preservation, check_linearity,
                       check_phase_isometry_sets, check_wigner, default_samples,
                       gateaux_sip_oracle, identity_oracle, lp_space, norm, reconstruct,
                       recover_pair_coeffs, recover_scalar_action, reproduction_residual,
                       scale_oracle, sip, support_functional)

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
R33 = lp_space(REAL, 3, 3.0)
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


def outcome(call):
    """``call()``'s value, or the SipwignerError it raised."""
    try:
        return call()
    except SipwignerError as exc:
        return exc


@xfail("the step 1e308 sends ||y + h*x|| past the float range: NaN")
def test_gateaux_oracle_with_a_step_of_1e308():
    # the step is the caller's; a finite value or a typed refusal is no wrong answer
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: gateaux_sip_oracle(R3, [1, 0], [0, 1], 1e308))
    assert isinstance(got, SipwignerError) or np.isfinite(got), got


@xfail("|v_i|^3 overflows and the true norm 2.1e308 is past the float range: "
       "norm returns inf, not a typed error")
def test_norm_past_the_float_range_is_a_typed_error():
    with np.errstate(over="ignore"):
        got = outcome(lambda: norm(R3, [1.7e308, 1.7e308]))
    assert isinstance(got, SipwignerError), got


@pytest.mark.parametrize("t_scale, basis_scale, expected", [
    pytest.param(1e-100, 1.0, [7.5e-101, 2e-100],
                 marks=xfail("the searches' tolerances are absolute: "
                             "best_coeffs returns [-0, 0]")),
    pytest.param(1e-200, 1e-200, [0.75, 2.0],
                 marks=xfail("|r_i|^3 underflows: best_coeffs returns [-0, 0]")),
    pytest.param(1e200, 1.0, [7.5e199, 2e200],
                 marks=xfail("|r_i|^3 overflows: best_coeffs raises SolverError (NaN)")),
], ids=["target-1e-100", "all-1e-200", "target-1e200"])
def test_best_coeffs_out_of_unit_scale(t_scale, basis_scale, expected):
    # min ||t - c1*b1 - c2*b2||_3 at unit scale: c2 = 2 zeroes the middle
    # coordinate and c1 = 0.75 splits |1 - c1| = |0.5 - c1|
    t = np.array([1.0, 2.0, 0.5]) * t_scale
    basis = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) * basis_scale
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = outcome(lambda: best_coeffs(R33, t, basis))
    assert not isinstance(got, SipwignerError), got
    assert np.allclose(got, expected, rtol=1e-8, atol=0), got


@xfail("the coefficient -1e320j is past the float range: best_coeffs returns [nan+nanj]")
def test_best_coeffs_past_the_float_range_is_a_typed_error():
    # on complex l_3^2 the nearest multiple of [1e-320j, 0] to [1, 1e-320j]
    # is [1, 0], at the coefficient 1/1e-320j = -1e320j
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = outcome(lambda: best_coeffs(lp_space(COMPLEX, 2, 3.0), [1, 1e-320j],
                                          [[1e-320j, 0]]))
    assert isinstance(got, SipwignerError), got


@pytest.mark.xfail(strict=True, raises=ZeroDivisionError,
                   reason="|0.5|^1100 underflows: bj divides by the unit-scale ||y|| = 0")
def test_bj_at_p_1100_with_a_y_whose_unit_norm_underflows():
    # y rescales to [0.5, 0]; x = 0.9*y is not orthogonal to y, and a typed
    # refusal is no wrong answer, but the trivial y = 0 verdict is
    got = outcome(lambda: bj_orthogonal(lp_space(REAL, 2, 1100.0), [0.9, 0.0], [1.0, 0.0]))
    assert isinstance(got, SipwignerError) or not got.orthogonal, got


@xfail("v[i] + v[j] overflows to inf: the identity fails with max_violation NaN")
def test_phase_isometry_sets_at_1_5e308_is_no_nan_fail():
    # passing the identity is the right answer; a typed refusal is no wrong one
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: check_phase_isometry_sets(identity_oracle(R33),
                                                        np.eye(3) * 1.5e308))
    assert isinstance(got, SipwignerError) or (got.passed and np.isfinite(got.max_violation)), got


CHECKS = [check_wigner, check_phase_isometry_sets, check_exact_preservation, check_linearity]


def checker_cases(defect):
    return [pytest.param(check, marks=xfail(defect.format(check.__name__))) for check in CHECKS]


def scaled_samples(scale):
    return np.array(default_samples(R33, 12, 5, unit=True)) * scale


@pytest.mark.parametrize("check", checker_cases(
    "|x_i|^3 overflows: {} fails the identity with max_violation NaN"),
    ids=[check.__name__ for check in CHECKS])
def test_checkers_pass_the_identity_at_1e200(check):
    # passing the identity is the right answer; a typed refusal is no wrong one
    with np.errstate(over="ignore", invalid="ignore"):
        got = outcome(lambda: check(identity_oracle(R33), scaled_samples(1e200)))
    assert isinstance(got, SipwignerError) or (got.passed and np.isfinite(got.max_violation)), got


@pytest.mark.parametrize("check", checker_cases(
    "|x_i|^3 underflows: {} passes 2*identity with max_violation 0"),
    ids=[check.__name__ for check in CHECKS])
def test_checkers_fail_twice_the_identity_at_1e_minus_200(check):
    # 2*identity scales every norm and semi-inner product: no check may pass it
    with np.errstate(under="ignore"):
        got = outcome(lambda: check(scale_oracle(identity_oracle(R33), 2.0),
                                    scaled_samples(1e-200)))
    assert isinstance(got, SipwignerError) or not got.passed, got


X33 = np.array([1.0, 0.5, 0.3])


@xfail("|x_i|^3 underflows and the zero test reads ||x|| = 0: "
       "recover_scalar_action refuses a nonzero x")
def test_scalar_action_at_1e_minus_200():
    # f(2x) = 2 f(x) for the identity; at unit scale gamma is 2 to 1 ulp
    with np.errstate(under="ignore", invalid="ignore"):
        got = outcome(lambda: recover_scalar_action(identity_oracle(R33), X33 * 1e-200, 2.0))
    assert not isinstance(got, SipwignerError) and abs(got - 2.0) <= 1e-12, got


@xfail("|x_i|^3 underflows and the zero test reads ||x|| = 0: "
       "reproduction_residual refuses a nonzero held-out vector")
def test_reproduction_residual_at_1e_minus_200():
    # the identity reproduces itself: 2.3e-16 of ||x|| at unit scale
    m = identity_oracle(R33)
    with np.errstate(under="ignore", invalid="ignore", divide="ignore"):
        got = outcome(lambda: reproduction_residual(m, reconstruct(m), [X33 * 1e-200]))
    assert not isinstance(got, SipwignerError) and 0.0 <= got <= 1e-12 * 1e-200, got


def negate_the_second_coordinate_where_x0_is_negative(v):
    return np.where(v[0] < 0, [1.0, -1.0, 1.0], 1.0) * v


@xfail("the span bound tol*(1 + ||x + y||) is absolute below unit scale: at 1e-100 "
       "only the unimodularity test refuses the region-switching map")
def test_recover_pair_coeffs_refuses_a_region_switching_map_by_its_span_at_every_scale():
    # f(x + y) leaves span(f(x), f(y)) at every scale (residual 0.832 at 1)
    m = MapOracle(R33, R33, negate_the_second_coordinate_where_x0_is_negative)
    y = np.array([-2.0, 1.0, 0.25])
    for scale in (1.0, 1e-100, 1e-200):
        with np.errstate(under="ignore"):
            got = outcome(lambda: recover_pair_coeffs(m, X33 * scale, y * scale))
        assert isinstance(got, HypothesisViolation), (scale, got)
        assert str(got).startswith("f(x+y) leaves span(f(x), f(y))"), (scale, got)
