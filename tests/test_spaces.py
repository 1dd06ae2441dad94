"""Core form evaluation against hand-derived values and the norm-only oracle.

The frozen constants below were derived by hand from the closed form
[x, y] = ||y||^(2-p) * sum_i x_i * conj(y_i) * |y_i|^(p-2) and are exact
expressions, not recorded program output.
"""

import numpy as np
import pytest

from sipwigner import (
    COMPLEX,
    REAL,
    ContractViolation,
    Lp,
    MapOracle,
    NonSmoothPoint,
    Space,
    as_vec,
    basis_vec,
    check_phase_isometry_sets,
    default_samples,
    functional_value,
    gateaux_sip_oracle,
    identity_oracle,
    is_smooth_point,
    linf2_space,
    lp_space,
    norm,
    scale_oracle,
    sip,
    support_functional,
)
from sipwigner.spaces import _IN_PLACE_POWER

FIX = linf2_space()
LP3 = lp_space(REAL, 2, 3.0)


# ---------------------------------------------------------------- fixture

def test_fixture_weighted_tie_values_are_exact():
    # 0.75 and 0.25 are dyadic, so these equalities are exact in binary
    assert sip(FIX, [1, 0], [1, 1]) == 0.75
    # images under the coordinate swap T: T(1,0) = (0,1), T(1,1) = (1,1)
    assert sip(FIX, [0, 1], [1, 1]) == 0.25


def test_fixture_away_from_ties_uses_the_dominant_coordinate():
    assert sip(FIX, [1, 3], [2, 1]) == 2.0
    assert sip(FIX, [1, 3], [1, -2]) == -6.0
    assert sip(FIX, [5, -7], [-3, 3]) == 0.75 * 5 * (-3) + 0.25 * (-7) * 3


def test_fixture_norm_is_max_norm():
    assert norm(FIX, [3, -4]) == 4.0
    assert sip(FIX, [3, -4], [3, -4]) == 16.0  # [x, x] = ||x||^2 at a tie-free x


# ---------------------------------------------------------------- lp closed form

def test_lp_norm_and_self_sip():
    x = np.array([1.0, 2.0])
    assert norm(LP3, x) == pytest.approx(9.0 ** (1 / 3), rel=1e-15)
    assert sip(LP3, x, x) == pytest.approx(9.0 ** (2 / 3), rel=1e-14)


def test_lp3_cross_value_hand_derived():
    # ||y||^(2-3) * (1*3*|3| + 2*1*|1|) = 11 * 28^(-1/3) for x=(1,2), y=(3,1)
    x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
    assert sip(LP3, x, y) == pytest.approx(11.0 * 28.0 ** (-1 / 3), rel=1e-14)


def test_lp3_complex_cross_value_hand_derived():
    # y = (i, 1): ||y|| = 2^(1/3) and sum x_i conj(y_i) |y_i| = (1+2i)(-i) = 2 - i
    s = lp_space(COMPLEX, 2, 3.0)
    value = sip(s, [1 + 2j, 0], [1j, 1])
    assert value == pytest.approx((2 - 1j) * 2.0 ** (-1 / 3), rel=1e-14)


def test_sip_second_argument_zero_is_zero():
    assert sip(LP3, [1.0, 2.0], [0.0, 0.0]) == 0.0


def test_sip_small_p_small_components_do_not_overflow():
    # |y_i|^(p-2) alone would overflow for p < 2; the stable form must not
    s = lp_space(REAL, 2, 1.5)
    y = np.array([1e-300, 1.0])
    value = sip(s, [1.0, 1.0], y)
    assert np.isfinite(value)
    assert value == pytest.approx(1.0, rel=1e-10)


def test_fixture_sip_broadcasts_exactly_over_stacked_pairs():
    grid = np.array([[1, 0], [1, 1], [0, 1], [-1, 1], [2, -1], [0, 0], [5, -7], [-3, 3]],
                    dtype=float)
    gram = sip(FIX, grid[:, None], grid[None])
    assert gram.shape == (len(grid), len(grid))
    for i, x in enumerate(grid):
        for j, y in enumerate(grid):
            assert gram[i, j] == sip(FIX, x, y)
    assert np.array_equal(norm(FIX, grid), [norm(FIX, v) for v in grid])


def coordinate_stack(field, kind, rows, dim):
    """Seeded rows: ``sparse`` with 85% exact zeros, half of them -0.0;
    ``dense`` standard normal; ``subnormal`` sparse with a quarter of the
    nonzero coordinates subnormal."""
    rng = np.random.default_rng([len(kind), field == COMPLEX])
    v = rng.standard_normal((rows, dim))
    if field == COMPLEX:
        v = v + 1j * rng.standard_normal((rows, dim))
    if kind != "dense":
        u = rng.random((rows, dim))
        v[u < 0.85] = 0.0
        v[u < 0.425] = -0.0 if field == REAL else complex(-0.0, -0.0)
        if kind == "subnormal":
            v[(u >= 0.85) & (u < 0.8875)] *= 1e-310
    return v


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ["sparse", "dense", "subnormal"])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0, 50.0, 100.0])
def test_a_large_stack_has_the_bits_of_its_small_slices(field, kind, p):
    # stacks of _IN_PLACE_POWER coordinates or more take the in-place power
    # with zeros mapped to 1; slices below that size take the one expression
    dim = 16
    v = coordinate_stack(field, kind, 2 * _IN_PLACE_POWER // dim, dim)
    s = lp_space(field, dim, p)
    if kind != "dense":
        assert np.mean(v == 0) >= 0.8 and np.signbit(v.real).any()
    whole = norm(s, v)
    step = _IN_PLACE_POWER // (2 * dim)
    sliced = np.concatenate([norm(s, v[k:k + step]) for k in range(0, len(v), step)])
    assert v.size >= _IN_PLACE_POWER > step * dim
    assert whole.tobytes() == sliced.tobytes()


@pytest.mark.parametrize("make_map", [
    lambda s: scale_oracle(identity_oracle(s), 2.0),
    lambda s: MapOracle(s, s, lambda v: v ** 3),
], ids=["double", "cube"])
def test_phase_isometry_sets_matches_per_pair_norms_on_64_samples(make_map):
    # the 64 structured samples of l_1.5^16 give 2,080 pairs of 16
    # coordinates, mostly exact zeros, whose blocks take the in-place power
    s = lp_space(REAL, 16, 1.5)
    m, xs = make_map(s), np.array(default_samples(s, 64, 401, unit=True))
    fxs = m(xs)
    worst, witness = -1.0, None
    for i in range(len(xs)):
        for j in range(i + 1):
            lo_f, hi_f = sorted([norm(s, fxs[i] + fxs[j]), norm(s, fxs[i] - fxs[j])])
            lo, hi = sorted([norm(s, xs[i] + xs[j]), norm(s, xs[i] - xs[j])])
            violation = max(abs(lo_f - lo), abs(hi_f - hi))
            if violation > worst:
                worst, witness = violation, (i, j, [lo_f, hi_f], [lo, hi])
    report = check_phase_isometry_sets(m, xs)
    assert not report.passed and report.max_violation == worst
    i, j, lhs, rhs = witness
    assert np.array_equal(report.witness.x, xs[i]) and np.array_equal(report.witness.y, xs[j])
    assert [report.witness.lhs, report.witness.rhs] == [lhs, rhs]


# ---------------------------------------------------------------- FD oracle

def test_closed_form_matches_difference_quotient():
    x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
    closed = sip(LP3, x, y)
    assert abs(closed - gateaux_sip_oracle(LP3, x, y)) <= 1e-8 * norm(LP3, x) * norm(LP3, y)


def test_difference_quotient_is_second_order():
    x, y = np.array([1.0, 2.0]), np.array([3.0, 1.0])
    closed = sip(LP3, x, y)
    err = abs(closed - gateaux_sip_oracle(LP3, x, y, 1e-3))
    err_half = abs(closed - gateaux_sip_oracle(LP3, x, y, 5e-4))
    assert err / err_half == pytest.approx(4.0, abs=0.5)
    assert err < 1e-4  # empirical constant: err ~ C*h^2 with C of order 10


def test_difference_quotient_complex_part():
    s = lp_space(COMPLEX, 2, 3.0)
    x, y = np.array([1 + 2j, -1j]), np.array([1j, 1 + 1j])
    assert abs(sip(s, x, y) - gateaux_sip_oracle(s, x, y)) <= 1e-8


def test_difference_quotient_refuses_bad_points():
    with pytest.raises(NonSmoothPoint):
        gateaux_sip_oracle(FIX, [1, 0], [1, -1])  # max-norm tie
    with pytest.raises(ContractViolation):
        gateaux_sip_oracle(LP3, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ContractViolation):
        gateaux_sip_oracle(LP3, [1.0, 0.0], [1.0, 1.0], h=0.0)


# ---------------------------------------------------------------- support functionals

def test_support_functional_lp3_direction_and_norming():
    y = np.array([3.0, 1.0])
    g = support_functional(LP3, y)
    assert g[0] / g[1] == pytest.approx(9.0, rel=1e-12)  # coefficients ~ (9, 1)
    assert functional_value(LP3, y, g) == pytest.approx(norm(LP3, y), rel=1e-12)
    # dual (q = 3/2) norm of the coefficients is one
    q = 1.5
    assert np.sum(np.abs(g) ** q) ** (1 / q) == pytest.approx(1.0, rel=1e-12)


def test_support_functional_reproduces_sip():
    y = np.array([3.0, 1.0])
    g = support_functional(LP3, y)
    for x in ([1.0, 2.0], [-2.0, 0.5], [0.0, 1.0]):
        assert norm(LP3, y) * functional_value(LP3, x, g) == pytest.approx(
            sip(LP3, x, y), rel=1e-12)


def test_support_functional_is_finite_at_subnormal_complex_coordinates():
    # the phase of y_2 must not come from a division by |y_2|: 1/|y_2|
    # overflows for a subnormal modulus and complex division yields NaN
    s = lp_space(COMPLEX, 2, 1.5)
    y = np.array([1.0, 1e-310 * (1 + 1j)])
    g = support_functional(s, y)
    assert np.all(np.isfinite(g))
    assert g[0] == pytest.approx(1.0, rel=1e-15)
    assert np.angle(g[1]) == pytest.approx(np.pi / 4, rel=1e-15)
    assert sip(s, [1.0, 1.0], y) == pytest.approx(norm(s, y) * np.sum(np.conj(g)), rel=1e-15)


def test_support_functional_fixture_cases():
    assert np.array_equal(support_functional(FIX, [2.0, -1.0]), [1.0, 0.0])
    assert np.array_equal(support_functional(FIX, [-1.0, 3.0]), [0.0, 1.0])
    with pytest.raises(NonSmoothPoint):
        support_functional(FIX, [1.0, 1.0])
    with pytest.raises(ContractViolation):
        support_functional(FIX, [0.0, 0.0])


def test_smooth_point_classification():
    assert not is_smooth_point(FIX, [1.0, -1.0])
    assert is_smooth_point(FIX, [2.0, 1.0])
    assert is_smooth_point(LP3, [1.0, 1.0])
    assert not is_smooth_point(LP3, [0.0, 0.0])


# ---------------------------------------------------------------- plumbing

def test_as_vec_contract():
    with pytest.raises(ContractViolation):
        as_vec(LP3, [1.0, 2.0, 3.0])
    with pytest.raises(ContractViolation):
        as_vec(LP3, [1.0 + 1j, 0.0])
    v = as_vec(lp_space(COMPLEX, 2, 2.0), [1, 2])
    assert v.dtype == np.complex128
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]):
        with pytest.raises(ContractViolation):
            as_vec(LP3, bad)
    with pytest.raises(ContractViolation):
        as_vec(lp_space(COMPLEX, 2, 2.0), [complex(0.0, np.nan), 1.0])
    # the evaluators validate stacked vectors the same way
    with pytest.raises(ContractViolation):
        sip(LP3, [[1.0, 2.0], [np.nan, 0.0]], [1.0, 1.0])
    with pytest.raises(ContractViolation):
        norm(LP3, [[1.0, 2.0, 3.0]])
    # ragged or non-numeric coordinates are contract violations, not numpy errors
    for space in (lp_space(REAL, 3, 3.0), lp_space(COMPLEX, 3, 3.0)):
        for bad in ([[1, 0, 0], [1, 0]], [{}, 1, 2], ["a", 1, 2]):
            for evaluate in (norm, as_vec, lambda s, v: sip(s, v, v)):
                with pytest.raises(ContractViolation):
                    evaluate(space, bad)


def test_basis_vec():
    assert np.array_equal(basis_vec(lp_space(REAL, 3, 2.0), 1), [0.0, 1.0, 0.0])


def test_space_json_round_trip():
    for s in (lp_space(COMPLEX, 3, 2.5), lp_space(REAL, 1, 7.0), linf2_space()):
        assert Space.from_dict(s.to_dict()) == s


def test_space_validation():
    with pytest.raises(ContractViolation):
        lp_space(REAL, 2, 1.0)  # not smooth
    with pytest.raises(ContractViolation):
        lp_space(REAL, 0, 2.0)
    with pytest.raises(ContractViolation):
        lp_space("rational", 2, 2.0)
    with pytest.raises(ContractViolation):
        Space.from_dict({"field": "complex", "dim": 2, "norm": {"linf2_fixture": True}})
    with pytest.raises(ContractViolation):
        Space.from_dict({"field": "real", "dim": 2, "norm": {"sup": True}})


def test_complex_coordinates_with_zero_imaginary_part_are_real_coordinates():
    s = lp_space(REAL, 2, 3.0)
    v = as_vec(s, np.array([3.0 + 0j, -4.0 + 0j]))
    assert v.dtype == np.float64 and np.array_equal(v, [3.0, -4.0])
    assert norm(s, [3.0 + 0j, -4.0 + 0j]) == norm(s, [3.0, -4.0])


@pytest.mark.parametrize("build, message", [
    (lambda: basis_vec(LP3, 2), "basis index 2 out of range for dim 2"),
    (lambda: basis_vec(LP3, -1), "basis index -1 out of range for dim 2"),
    # a bool is no index (True would pass for 1), nor is a float
    (lambda: basis_vec(LP3, True), "basis index True out of range for dim 2"),
    (lambda: basis_vec(LP3, 1.5), "basis index 1.5 out of range for dim 2"),
    (lambda: Space(REAL, 2, "l2"), "unknown norm descriptor 'l2'"),
    (lambda: Space.from_dict({"field": "real", "dim": 2, "norm": {"linf2_fixture": False}}),
     "malformed norm descriptor"),
    (lambda: Lp("3"), "Lp exponent must satisfy 1 < p < inf, got '3'"),
    (lambda: Lp(None), "Lp exponent must satisfy 1 < p < inf, got None"),
    # an integer exponent past the float range is refused, not overflowed
    (lambda: Lp(10 ** 400), "Lp exponent must satisfy 1 < p < inf, got 1000"),
    (lambda: lp_space(REAL, 2, 10 ** 400), "Lp exponent must satisfy 1 < p < inf, got 1000"),
    # lp_space leaves the exponent to Lp, which refuses what float() would not take
    (lambda: lp_space(REAL, 2, "x"), "Lp exponent must satisfy 1 < p < inf, got 'x'"),
    (lambda: lp_space(REAL, 2, None), "Lp exponent must satisfy 1 < p < inf, got None"),
    (lambda: lp_space(REAL, 2, 2j), r"Lp exponent must satisfy 1 < p < inf, got 2j"),
    # the pair evaluators refuse stacks whose leading axes do not broadcast
    (lambda: sip(LP3, np.ones((2, 2)), np.ones((3, 2))),
     r"x and y do not broadcast: shapes \(2, 2\) and \(3, 2\)"),
    (lambda: gateaux_sip_oracle(LP3, np.ones((2, 2)), np.ones((3, 2))),
     r"x and y do not broadcast: shapes \(2, 2\) and \(3, 2\)"),
    # a given step is a real number, tested before float() sees it
    (lambda: gateaux_sip_oracle(LP3, [1.0, 0.0], [1.0, 1.0], h="a"),
     "step must be a positive finite number, got 'a'"),
    (lambda: gateaux_sip_oracle(LP3, [1.0, 0.0], [1.0, 1.0], h=1j),
     "step must be a positive finite number, got 1j"),
    (lambda: gateaux_sip_oracle(LP3, [1.0, 0.0], [1.0, 1.0], h=np.array([1e-5, 1e-5])),
     r"step must be a positive finite number, got array\("),
], ids=["basis-past-dim", "basis-negative", "basis-bool", "basis-float", "norm-string",
        "linf2-false", "lp-string", "lp-none", "lp-past-float-range", "lp-space-past-float-range",
        "lp-space-string", "lp-space-none", "lp-space-complex", "sip-no-broadcast",
        "oracle-no-broadcast", "oracle-step-string", "oracle-step-complex",
        "oracle-step-array"])
def test_space_builders_refuse_bad_input(build, message):
    with pytest.raises(ContractViolation, match=message):
        build()


def test_lp_stores_its_exponent_as_a_float():
    # numpy float32 and float16 exponents too, without a RuntimeWarning
    for p in (3, np.int64(3), 3.0, np.float32(3.0), np.float16(3.0)):
        assert type(Lp(p).p) is float and Lp(p) == Lp(3.0)
    assert type(lp_space(REAL, 2, 3).norm.p) is float
