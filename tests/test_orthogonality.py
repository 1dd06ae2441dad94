"""Scalar minimization and Birkhoff-James verdicts against dense grid oracles.

The grid oracles below evaluate the objective on a fine lattice with plain
numpy broadcasting, independently of the grid line search they verify.
"""

import hashlib

import numpy as np
import pytest

from sipwigner import acceptance, orthogonality
from sipwigner import (
    COMPLEX,
    REAL,
    ContractViolation,
    SolverError,
    best_coeffs,
    bj_orthogonal,
    linf2_space,
    lp_space,
    minimize_scalar,
    norm,
    sip,
)
from sipwigner.acceptance import GateConfig, criterion_3_orthogonality_routes


def lp_norms(p, pts):
    return (np.abs(pts) ** p).sum(axis=-1) ** (1.0 / p)


def grid_min_1d(p, x, y, lo, hi, count=240001):
    lams = np.linspace(lo, hi, count)
    vals = lp_norms(p, x[None, :] + lams[:, None] * y[None, :])
    k = int(np.argmin(vals))
    return lams[k], float(vals[k])


def grid_min_2d(p, x, y, lo, hi, count=401):
    """Coarse complex-lambda grid, refined once around the best cell."""
    best = None
    for _ in range(2):
        re = np.linspace(lo[0], hi[0], count)
        im = np.linspace(lo[1], hi[1], count)
        lam = re[:, None] + 1j * im[None, :]
        vals = lp_norms(p, x[None, None, :] + lam[..., None] * y[None, None, :])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best = (complex(lam[i, j]), float(vals[i, j]))
        dr, di = re[1] - re[0], im[1] - im[0]
        lo = (re[i] - 2 * dr, im[j] - 2 * di)
        hi = (re[i] + 2 * dr, im[j] + 2 * di)
    return best


# ---------------------------------------------------------------- minimize_scalar

def test_real_minimizer_matches_grid():
    x, y = np.array([1.0, 2.0]), np.array([0.5, -1.5])
    res = minimize_scalar(lambda c: float(lp_norms(3.0, x + c * y)), REAL,
                          initial_width=6.0)
    lam, val = grid_min_1d(3.0, x, y, -6.0, 6.0)
    assert res.value <= val + 1e-12
    assert abs(res.argmin - lam) <= 1e-4  # grid spacing dominates
    assert res.flat is False


def test_complex_minimizer_matches_refined_grid():
    x = np.array([1 + 0.5j, -2 + 1j])
    y = np.array([0.7 - 0.2j, 0.3 + 1.1j])
    res = minimize_scalar(lambda c: float(lp_norms(3.0, x + c * y)), COMPLEX,
                          initial_width=4.0)
    lam, val = grid_min_2d(3.0, x, y, (-4.0, -4.0), (4.0, 4.0))
    assert res.value <= val + 1e-10
    assert abs(res.argmin - lam) <= 5e-3


def test_quadratic_argmin_is_sharp():
    res = minimize_scalar(lambda c: (c - 0.75) ** 2 + 2.0, REAL)
    # value queries cannot localize a quadratic minimum past ~sqrt(eps)
    assert res.argmin == pytest.approx(0.75, abs=1e-7)
    assert res.value == pytest.approx(2.0, abs=1e-15)


def test_flat_plateau_reports_midpoint_and_flag():
    g = lambda c: max(abs(c - 1.0) - 1.0, 0.0) + 5.0  # flat on [0, 2]
    res = minimize_scalar(g, REAL, initial_width=8.0)
    assert res.flat is True
    assert res.argmin == pytest.approx(1.0, abs=1e-6)
    assert res.value == 5.0


def test_quadratic_minimum_is_not_flagged_flat():
    res = minimize_scalar(lambda c: (c - 0.3) ** 2 + 1.0, REAL)
    assert res.flat is False


def test_quartic_contact_reports_a_float_plateau():
    # (c-0.3)^4 + 1 evaluates to exactly 1.0 over a ~2e-4 wide interval, so
    # the argmin is genuinely unresolvable from values and gets flagged
    res = minimize_scalar(lambda c: (c - 0.3) ** 4 + 1.0, REAL)
    assert res.flat is True
    assert res.argmin == pytest.approx(0.3, abs=1e-3)
    assert res.value == 1.0


def test_flat_is_reported_without_being_asked():
    # the real line search measures flatness on every call and the result
    # carries it as measured; the complex sweeps never set it
    g = lambda c: max(abs(c - 1.0) - 1.0, 0.0) + 5.0  # flat on [0, 2]
    assert minimize_scalar(g, REAL, initial_width=8.0).flat is True
    assert minimize_scalar(g, COMPLEX, initial_width=8.0).flat is False


def test_non_coercive_objective_raises():
    with pytest.raises(SolverError):
        minimize_scalar(lambda c: -c, REAL, max_width=1e6)
    # a constant inf passes the bracket test at once; inf is no minimum
    for field in (REAL, COMPLEX):
        with pytest.raises(SolverError):
            minimize_scalar(lambda c: np.inf, field)


def test_line_search_probe_cap_raises(monkeypatch):
    # the cap guards the loop against never settling; a quadratic needs ~14 probes
    monkeypatch.setattr(orthogonality, "_MAX_PROBES", 3)
    with pytest.raises(SolverError, match="did not settle"):
        minimize_scalar(lambda c: (c - 0.3) ** 2, REAL)


def test_scalar_only_objective_works_through_minimize_scalar():
    # Python's max refuses arrays: g is called with one scalar at a time
    g = lambda c: max(abs(c - 2.0), 0.5)  # flat on [1.5, 2.5]
    res = minimize_scalar(g, REAL, initial_width=8.0)
    assert res.flat is True
    assert res.argmin == pytest.approx(2.0, abs=1e-9)
    assert res.value == 0.5
    assert res.nfev >= res.probes > 0
    res = minimize_scalar(lambda c: max(abs(c - (1 + 1j)), 0.25) + abs(c.imag - 1.0),
                          COMPLEX, initial_width=4.0)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert abs(res.argmin - (1 + 1j)) <= 0.25 + 1e-6


def test_minimize_rejects_bad_arguments():
    with pytest.raises(ContractViolation):
        minimize_scalar(lambda c: c * c, "quaternion")
    with pytest.raises(ContractViolation):
        minimize_scalar(lambda c: c * c, REAL, xatol=0.0)


# ---------------------------------------------------------------- bj_orthogonal

def test_bj_margin_matches_grid_value():
    s = lp_space(REAL, 2, 1.5)
    x, y = np.array([2.0, 1.0]), np.array([1.0, 1.0])
    verdict = bj_orthogonal(s, x, y)
    _, val = grid_min_1d(1.5, x, y, -7.0, 7.0)
    assert verdict.margin == pytest.approx(val - norm(s, x), abs=1e-9)
    assert not verdict.orthogonal


def test_bj_dual_routes_agree_on_lp3_pair():
    # sip((1,-1), (1,1)) = 0 in l_3^2, so the minimum of ||x + t*y|| sits at 0
    s = lp_space(REAL, 2, 3.0)
    verdict = bj_orthogonal(s, [1.0, 1.0], [1.0, -1.0])
    assert sip(s, [1.0, -1.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert verdict.orthogonal
    assert verdict.margin >= -1e-9
    assert abs(verdict.minimizer) <= 1e-4
    assert not verdict.flat_minimizer


def test_bj_parallel_vector_is_far_from_orthogonal():
    s = lp_space(REAL, 2, 3.0)
    verdict = bj_orthogonal(s, [1.0, 1.0], [1.0, 1.0])
    assert not verdict.orthogonal
    # the minimum at t = -1 is a cone, so value accuracy is only ~xatol*slope
    assert verdict.margin == pytest.approx(-norm(s, [1.0, 1.0]), abs=5e-6)
    assert verdict.minimizer == pytest.approx(-1.0, abs=1e-4)


def test_bj_tiny_y_keeps_the_bracket_search_terminating():
    # ||y|| ~ 1e-16 pushes the bracket out to ~1e16 where float spacing
    # exceeds the coordinate tolerance; the search must still terminate
    # and the margin is unaffected (it only rescales the minimizer).
    s = lp_space(REAL, 2, 3.0)
    verdict = bj_orthogonal(s, [1.0, 1.0], [1e-16, -1e-16])
    assert verdict.orthogonal

    verdict = bj_orthogonal(s, [1.0, 1.0], [1e-16, 0.0])
    assert not verdict.orthogonal
    # min_t ||(1 + t, 1)|| is at t = -1, so the margin is 1 - ||x||
    assert verdict.margin == pytest.approx(1.0 - 2.0 ** (1.0 / 3.0), abs=1e-9)
    assert verdict.minimizer == pytest.approx(-1e16, rel=1e-6)


def test_bj_overflowing_norm_is_decided_at_unit_scale():
    # ||x + lam*y|| overflows to inf in l_7 at 1e50; the bracket walk used to
    # widen until its center was inf - inf = NaN and never stop.  Decided at
    # unit scale, the pair gets the verdict of (x, y) / 1e50, margin times 1e50.
    s = lp_space(COMPLEX, 2, 7.0)
    x, y = np.array([1e50, 2e50j]), np.array([3e50, -1e50])
    verdict = bj_orthogonal(s, x, y)
    unit = bj_orthogonal(s, x / 1e50, y / 1e50)
    assert not verdict.orthogonal and not unit.orthogonal
    assert verdict.margin == pytest.approx(-3.586e49, rel=1e-3)
    assert verdict.margin == pytest.approx(1e50 * unit.margin, rel=1e-9)


def test_bj_subnormal_y_is_decided_without_overflow():
    # 2*||x||/||y|| overflows for subnormal ||y||; within representable
    # lam such a y cannot move the norm, so the verdict is orthogonal.
    s = lp_space(REAL, 2, 3.0)
    verdict = bj_orthogonal(s, [1.0, 1.0], [5e-324, 0.0])
    assert verdict.orthogonal
    assert verdict.margin == pytest.approx(0.0, abs=1e-12)


def test_bj_complex_imaginary_sip_is_detected():
    # [y, x] purely imaginary: real line searches alone would miss the dip
    s = lp_space(COMPLEX, 2, 2.0)
    x, y = [1.0, 0.0], [1j, 0.5]
    assert sip(s, y, x) == 1j * 1.0
    verdict = bj_orthogonal(s, x, y)
    assert not verdict.orthogonal
    assert verdict.minimizer.imag == pytest.approx(0.8, abs=1e-3)  # -conj(i)/||y||^2


def test_bj_fixture_plateau():
    s = linf2_space()
    verdict = bj_orthogonal(s, [1.0, 0.0], [0.0, 1.0])
    assert verdict.orthogonal
    assert verdict.flat_minimizer  # every |t| <= 1 minimizes max(1, |t|)
    assert verdict.minimizer == pytest.approx(0.0, abs=1e-6)
    assert verdict.margin == 0.0


def test_bj_degenerate_contact_is_flagged_but_still_orthogonal():
    # ||e1 + t*e2||_4 = (1 + t^4)^(1/4) has quartic contact at 0: the
    # verdict is unaffected, the flat flag records the unresolvable argmin
    s = lp_space(REAL, 2, 4.0)
    verdict = bj_orthogonal(s, [1.0, 0.0], [0.0, 1.0])
    assert verdict.orthogonal
    assert verdict.flat_minimizer
    assert abs(verdict.minimizer) <= 1e-3


def test_bj_zero_cases():
    s = lp_space(REAL, 2, 3.0)
    verdict = bj_orthogonal(s, [1.0, 0.0], [0.0, 0.0])
    assert verdict.orthogonal and verdict.flat_minimizer
    with pytest.raises(ContractViolation):
        bj_orthogonal(s, [0.0, 0.0], [1.0, 0.0])


def test_bj_scale_equivariance():
    s = lp_space(REAL, 3, 1.5)
    x, y = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.4, 2.0])
    a, b = bj_orthogonal(s, x, y), bj_orthogonal(s, 3.0 * x, y)
    assert a.orthogonal == b.orthogonal
    assert b.margin == pytest.approx(3.0 * a.margin, rel=1e-6)


def _seeded_pair(rng, s, orthogonal):
    def draw():
        v = rng.standard_normal(s.dim)
        if s.field == COMPLEX:
            v = v + 1j * rng.standard_normal(s.dim)
        return v
    x = draw()
    while norm(s, x) < 0.5:
        x = draw()
    y = draw()
    if orthogonal:
        return x, y - (sip(s, y, x) / norm(s, x) ** 2) * x
    # decisively non-orthogonal, as in criterion 3
    while abs(sip(s, y, x)) < 5e-2 * norm(s, x) * norm(s, y):
        y = draw()
    return x, y


def test_bj_agrees_with_sip_route_and_grid_oracles():
    rng = np.random.default_rng(20201)
    for k in range(200):
        field = REAL if k % 2 == 0 else COMPLEX
        p = float(rng.choice([1.5, 2.0, 3.0, 7.0, 50.0, 100.0]))
        s = lp_space(field, int(rng.choice([2, 5, 16])), p)
        x, y = _seeded_pair(rng, s, orthogonal=k % 4 < 2)
        verdict = bj_orthogonal(s, x, y)
        by_sip = abs(sip(s, y, x)) <= 1e-7 * norm(s, x) * norm(s, y)
        assert verdict.orthogonal == by_sip, (k, s)
        reach = 2.0 * norm(s, x) / norm(s, y) + 1.0
        if field == REAL:
            _, val = grid_min_1d(p, x, y, -reach, reach, count=4001)
        else:
            _, val = grid_min_2d(p, x, y, (-reach, -reach), (reach, reach), count=81)
        assert verdict.margin <= val - norm(s, x) + 1e-10, (k, s)
        assert bj_orthogonal(s, x, y) == verdict  # counters included


def test_bj_orthogonal_bits_are_pinned_on_criterion_3(monkeypatch):
    # every field of all 1,000 criterion-3 decisions at the default seed, bit
    # for bit: a rewrite of the minimizer must not move bj_orthogonal's output
    rows = []

    def recording(*args, **kwargs):
        v = bj_orthogonal(*args, **kwargs)
        rows.append((v.orthogonal, v.margin, v.minimizer, v.flat_minimizer, v.nfev))
        return v

    monkeypatch.setattr(acceptance, "bj_orthogonal", recording)
    criterion_3_orthogonality_routes(GateConfig())
    assert len(rows) == 1000
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "e62498ec792a0278e2c621e2c2f49c2556f87637025fc3fa7d82bbb40f8123df")


# ---------------------------------------------------------------- best_coeffs

def test_best_coeffs_recovers_exact_combination():
    s = lp_space(REAL, 3, 3.0)
    b1, b2 = np.array([1.0, 0.5, -0.2]), np.array([0.1, -1.0, 0.7])
    target = 2.0 * b1 - 3.0 * b2
    c1, c2 = best_coeffs(s, target, [b1, b2])
    assert c1 == pytest.approx(2.0, abs=1e-6)
    assert c2 == pytest.approx(-3.0, abs=1e-6)
    assert norm(s, target - c1 * b1 - c2 * b2) <= 1e-9


def test_best_coeffs_complex_combination():
    s = lp_space(COMPLEX, 2, 2.0)
    b1, b2 = np.array([1.0, 1j]), np.array([1j, 0.5])
    target = (1 + 2j) * b1 + (-2 + 0.5j) * b2
    c1, c2 = best_coeffs(s, target, [b1, b2])
    assert c1 == pytest.approx(1 + 2j, abs=1e-6)
    assert c2 == pytest.approx(-2 + 0.5j, abs=1e-6)


def test_best_coeffs_single_vector():
    s = lp_space(REAL, 2, 1.5)
    (c,) = best_coeffs(s, [-3.0, 1.5], [[2.0, -1.0]])
    assert c == pytest.approx(-1.5, abs=1e-8)


@pytest.mark.parametrize("field, p, target, b1, b2", [
    # condition number 33: plain block descent zig-zags down the valley and
    # used to stop at residual 0.0151 with no error
    (REAL, 3.0, [-1.45663774256872, -0.16463575180371992],
     [-0.2593164895494978, 0.2075467211604842], [-1.3586941642962918, 1.634114776892911]),
    # condition number 346 over C: a search along each sweep's displacement
    # alone still stops at residual ~2e-4
    (COMPLEX, 7.0, [-0.08011614473408182 + 0.12035491427317502j,
                    0.6082484271232689 + 0.19903012491274652j],
     [-0.34400754985883303 - 0.48239538641784946j, -2.013482844627813 + 1.5224601960339834j],
     [-0.357000913961899 - 0.4853041691575171j, -2.0150266744506617 + 1.5133411035443807j]),
], ids=["real-l3-cond33", "complex-l7-cond346"])
def test_best_coeffs_reaches_the_minimum_on_an_ill_conditioned_basis(field, p, target, b1, b2):
    s = lp_space(field, 2, p)
    target, b1, b2 = map(np.array, (target, b1, b2))
    c1, c2 = best_coeffs(s, target, [b1, b2])
    want = np.linalg.solve(np.stack([b1, b2], axis=1), target)
    assert np.abs(np.array([c1, c2]) - want).max() <= 1e-8
    assert norm(s, target - c1 * b1 - c2 * b2) <= 1e-9


@pytest.mark.parametrize("p, target, b1, b2", [
    (1.5, [0.3, -1.2, 2.0], [1.0, 0.4, -0.5], [0.2, -1.0, 0.8]),
    # condition number 381 in l_1.1^5: without the displacement search the
    # sweeps stop ~2e-8 above the minimum, without the orthonormal basis ~5e-6
    (1.1, [0.009264513337087887, -0.024949830418830164, -0.01738389362919807,
           -0.0016083632362688801, -0.0038852629656130444],
     [-0.7364540870016669, -0.16290994799305278, -0.48211931267997826,
      0.5988462126346276, 0.03972210748165899],
     [-0.7394358834609578, -0.1638907468325011, -0.48208826259392684,
      0.5977952049953, 0.04465700086833263]),
], ids=["l1.5", "l1.1-cond381"])
def test_best_coeffs_off_span_matches_a_dense_grid(p, target, b1, b2):
    target, b1, b2 = map(np.array, (target, b1, b2))
    c1, c2 = best_coeffs(lp_space(REAL, len(target), p), target, [b1, b2])
    value = float(lp_norms(p, target - c1 * b1 - c2 * b2))
    assert value > 1e-3  # the target is off the span
    # no point of a dense coefficient grid around the result, at any of
    # four zoom levels, beats it
    for half in (1.0, 1e-2, 1e-4, 1e-6):
        g = np.linspace(-half, half, 401)
        C = np.array([c1, c2]) + np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        assert value <= lp_norms(p, target - C[:, :1] * b1 - C[:, 1:] * b2).min() + 1e-10


def test_best_coeffs_stops_once_the_value_stalls(monkeypatch):
    # an off-span target whose minimum is too flat for the coefficients to
    # settle to 2e-12: a stop rule on coefficient moves alone ran all 200
    # sweeps, ~72k batched norm calls, without an error
    s = lp_space(COMPLEX, 5, 1.5)
    rng = np.random.default_rng(2)

    def z():
        return rng.standard_normal(5) + 1j * rng.standard_normal(5)

    b1 = z()
    b2 = b1 + 1e-6 * z()
    target = z()
    calls = 0
    norm_fn = orthogonality.norm_fn

    def counting_norm_fn(space):
        nrm = norm_fn(space)

        def count(v):
            nonlocal calls
            calls += 1
            return nrm(v)
        return count

    monkeypatch.setattr(orthogonality, "norm_fn", counting_norm_fn)
    c1, c2 = best_coeffs(s, target, [b1, b2])
    assert calls <= 20_000
    assert norm(s, target - c1 * b1 - c2 * b2) <= 3.1878383594088944 * (1 + 1e-9)


def count_norm_calls(monkeypatch):
    """Count the norm evaluations of orthogonality's norm_fn; read counts[0]."""
    counts = [0]
    norm_fn = orthogonality.norm_fn

    def counting_norm_fn(space):
        nrm = norm_fn(space)

        def count(v):
            counts[0] += 1
            return nrm(v)
        return count

    monkeypatch.setattr(orthogonality, "norm_fn", counting_norm_fn)
    return counts


@pytest.mark.parametrize("field, target, b, budget", [
    (REAL, [-3.0, 1.5], [2.0, -1.0], 40),
    (COMPLEX, [-3 + 1j, 1.5], [2.0, -1 + 0.5j], 400),
], ids=["real", "complex"])
def test_best_coeffs_one_vector_skips_the_displacement_search(monkeypatch, field, target, b,
                                                               budget):
    # the block search already minimizes along the one vector's line; a
    # displacement search along that line and the sweep confirming it cost
    # 52 (real) and 1,018 (complex) norm calls where ~30 and ~230 do
    counts = count_norm_calls(monkeypatch)
    s = lp_space(field, 2, 1.5)
    target, b = np.array(target), np.array(b)
    (c,) = best_coeffs(s, target, [b])
    assert counts[0] <= budget
    # and no coefficient on a fine grid around the result does better
    g = np.linspace(-1e-6, 1e-6, 201)
    cs = c + (g if field == REAL else (g[:, None] + 1j * g[None, :]).ravel())
    assert norm(s, target - c * b) <= lp_norms(1.5, target - cs[:, None] * b).min() + 1e-12

def stress_problems():
    """Sixty seeded best_coeffs problems: both fields, p from 1.1 to 100,
    n in {2, 5, 16}, bases 10^-u apart (u in 0..6), every third target in
    the span."""
    rng = np.random.default_rng(11)
    problems = []
    for k in range(60):
        field, p, n = (REAL, COMPLEX)[k % 2], (1.1, 1.5, 3, 20, 100)[k % 5], (2, 5, 16)[k % 3]

        def z():
            v = rng.standard_normal(n)
            return v + 1j * rng.standard_normal(n) if field == COMPLEX else v

        u = rng.integers(0, 7)
        b1 = z()
        b2 = b1 + 10.0 ** -u * z()
        target = z() if k % 3 else 0.7 * b1 - 1.3 * b2
        problems.append((lp_space(field, n, p), target, b1, b2))
    return problems


@pytest.mark.parametrize("k, residual", [
    (20, 8.831825535380094),   # real l_1.1^16
    (55, 3.3031539122215334),  # complex l_1.1^5
])
def test_best_coeffs_keeps_its_minimum_on_the_stress_problems(k, residual):
    # residuals of the per-block loop with a displacement search; single
    # descent loops shared with the complex minimizer ended 1e-9 to 2e-5
    # relative above them on these two problems
    s, target, b1, b2 = stress_problems()[k]
    c1, c2 = best_coeffs(s, target, [b1, b2])
    assert norm(s, target - c1 * b1 - c2 * b2) <= residual * (1 + 1e-9)


def test_best_coeffs_rejects_dependent_basis():
    s = lp_space(REAL, 2, 2.0)
    with pytest.raises(ContractViolation):
        best_coeffs(s, [1.0, 1.0], [[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ContractViolation):
        best_coeffs(s, [1.0, 1.0], [])
    # in dimension 1 two vectors are dependent, though the 1x2 matrix has a
    # single singular value
    with pytest.raises(ContractViolation):
        best_coeffs(lp_space(REAL, 1, 2.0), [1.0], [[1.0], [2.0]])
