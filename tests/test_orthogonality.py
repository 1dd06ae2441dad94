"""Scalar minimization and Birkhoff-James verdicts against dense grid oracles.

The grid oracles below evaluate the objective on a fine lattice with plain
numpy broadcasting, independently of the grid line search they verify.
"""

import hashlib
from fractions import Fraction

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
from sipwigner.jsonio import dumps


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


def test_a_plateau_past_max_width_keeps_the_probed_part():
    # a constant objective never stops the bracket growing; once it is wider
    # than max_width the search settles on what it has probed instead of
    # raising, since the minimum is attained there
    res = minimize_scalar(lambda t: 1.0, REAL, max_width=10.0)
    assert res == orthogonality.ScalarMin(0.0, 1.0, True, 51, 3)


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
    # a width past the float range is as good as infinite
    for width in ({"initial_width": 10 ** 400}, {"xatol": Fraction(10 ** 400)},
                  {"max_width": np.longdouble("1e400")}):
        with pytest.raises(ContractViolation,
                           match="initial_width, xatol and max_width must be positive and finite"):
            minimize_scalar(lambda c: c * c, REAL, **width)
    # the objective is a callable returning real numbers
    with pytest.raises(ContractViolation, match="the objective must be callable, got 3"):
        minimize_scalar(3, REAL)
    for value in ("a", 1j):
        with pytest.raises(ContractViolation,
                           match=f"the objective must return real numbers, got {value!r}"):
            minimize_scalar(lambda c, value=value: value, REAL)


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
    # a y 1e16 times smaller than x is searched at its own power of two, so
    # the bracket stays near 1 instead of reaching out to ~1e16; the margin
    # is unaffected, and only the minimizer scales by 1e16.
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
    # x perp y iff x perp c*y, so a tiny y gets the verdict of y = [1, 0]
    # with its minimizer scaled back, or SolverError where that minimizer
    # is past the float range
    s = lp_space(REAL, 2, 3.0)
    with pytest.raises(SolverError, match="past the float range"):
        bj_orthogonal(s, [1.0, 1.0], [5e-324, 0.0])
    with pytest.raises(SolverError, match="past the float range"):
        bj_orthogonal(s, [1e300, 1e300], [1e-300, 0.0])
    verdict = bj_orthogonal(s, [1.0, 0.0], [0.0, 5e-324])
    assert verdict.orthogonal and verdict.margin == 0.0 and verdict.minimizer == 0.0
    verdict = bj_orthogonal(s, [1.0, 1.0], [1e-305, 0.0])
    assert not verdict.orthogonal
    assert verdict.margin == pytest.approx(1.0 - 2.0 ** (1.0 / 3.0), abs=1e-12)
    assert verdict.minimizer == pytest.approx(-1e305, rel=1e-6)
    # a subnormal complex pair, whose real and imaginary parts are scaled up
    # by 2^1029 exactly; numpy would divide it by 1e-310 as a product with
    # 1/1e-310, which is past the float range
    verdict = bj_orthogonal(lp_space(COMPLEX, 2, 2.0), [1e-310, 1e-310], [0.0, 1e-310j])
    assert verdict.margin == pytest.approx((1.0 - 2.0 ** 0.5) * 1e-310, rel=1e-6)
    assert verdict.minimizer == pytest.approx(1j, abs=1e-5)


def test_bj_large_y_keeps_its_dip():
    # the minimizer of ||[1, 1] + lam*[c, 0]||, -1/c, lies below the searches'
    # coordinate tolerance (1e-6) from c ~ 1e7 on; with each vector at its
    # own power of two it is searched at mu = -1, so the dip is seen
    s = lp_space(REAL, 2, 3.0)
    for c in (1e7, 1e150, 1e300):
        verdict = bj_orthogonal(s, [1.0, 1.0], [c, 0.0])
        assert not verdict.orthogonal
        assert verdict.margin == pytest.approx(1.0 - 2.0 ** (1.0 / 3.0), abs=1e-12)
        assert verdict.minimizer == pytest.approx(-1.0 / c, rel=1e-6)


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


def criterion_3_stacks(monkeypatch):
    """Criterion 3's per-space stacks at the default seed, each with the
    verdict the criterion itself got for it."""
    decided = []

    def recording(*args, **kwargs):
        v = bj_orthogonal(*args, **kwargs)
        decided.append((args, kwargs, v))
        return v

    monkeypatch.setattr(acceptance, "bj_orthogonal", recording)
    criterion_3_orthogonality_routes(GateConfig())
    stacks = acceptance._orth_draws(np.random.default_rng([GateConfig().seed, 3]))
    assert len(decided) == len(stacks) <= 24
    for (s, draws, x, y), ((space, xs, ys), kwargs, _) in zip(stacks, decided):
        assert space == s and kwargs == {"tol": acceptance.ORTH_TOL}
        assert np.array_equal(xs, x) and np.array_equal(ys, y)
    return [(s, draws, x, y, v) for (s, draws, x, y), (_, _, v) in zip(stacks, decided)]


def verdict_row(v, r):
    """Row r of a stacked verdict as the tuple of Python scalars a one-pair
    call gives."""
    return (bool(v.orthogonal[r]), float(v.margin[r]), v.minimizer[r].item(),
            bool(v.flat_minimizer[r]), int(v.nfev[r]))


def test_bj_orthogonal_bits_are_pinned_on_criterion_3(monkeypatch):
    # every field of all 1,000 criterion-3 decisions at the default seed, bit
    # for bit: a rewrite of the minimizer must not move bj_orthogonal's output.
    # The criterion decides one stack per space; its rows go back in draw
    # order, which is the order of the one-pair calls the digest was taken on.
    rows = {}
    for _, draws, _, _, v in criterion_3_stacks(monkeypatch):
        for r, k in enumerate(draws.tolist()):
            rows[k] = verdict_row(v, r)
    assert sorted(rows) == list(range(1000))
    assert hashlib.sha256(repr([rows[k] for k in range(1000)]).encode()).hexdigest() == (
        "01ac95758f6e9956221a24d48997c5b84a3e5afeb1e687c0996d07b3f7b45167")


def test_stacked_rows_equal_one_pair_calls_on_criterion_3(monkeypatch):
    # row k of each stacked verdict is the one-pair verdict, counters included
    for s, _, x, y, v in criterion_3_stacks(monkeypatch):
        for r in range(len(x)):
            one = bj_orthogonal(s, x[r], y[r], tol=acceptance.ORTH_TOL)
            assert (one.orthogonal, one.margin, one.minimizer, one.flat_minimizer,
                    one.nfev) == verdict_row(v, r), (s, r)


def test_bj_stacked_edge_rows():
    s = lp_space(REAL, 2, 3.0)
    x = np.array([[1.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
    y = np.array([[1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
    v = bj_orthogonal(s, x, y)
    assert v.margin.shape == v.nfev.shape == (3,)
    assert v.orthogonal.dtype == bool and v.nfev.dtype.kind == "i"
    # a y = 0 row keeps its trivial verdict and leaves the other rows alone
    assert verdict_row(v, 1) == (True, 0.0, 0.0, True, 2)
    for r in range(3):
        one = bj_orthogonal(s, x[r], y[r])
        assert verdict_row(v, r) == (one.orthogonal, one.margin, one.minimizer,
                                     one.flat_minimizer, one.nfev)
    # an x = 0 row anywhere in the stack refuses the call
    with pytest.raises(ContractViolation, match="nonzero x"):
        bj_orthogonal(s, np.vstack([x, [0.0, 0.0]]), np.vstack([y, [1.0, 0.0]]))
    # leading axes broadcast like sip's; stacks that do not are refused
    grid = bj_orthogonal(s, x[:, None], y[None, [0, 2]])
    assert grid.margin.shape == (3, 2)
    assert grid.margin[2, 1] == bj_orthogonal(s, x[2], y[2]).margin
    assert bj_orthogonal(s, x[0], y).margin.shape == (3,)
    for xs, ys in ((x, y[:2]), (x[:, None], np.ones((2, 4, 2)))):
        with pytest.raises(ContractViolation, match="do not broadcast"):
            bj_orthogonal(s, xs, ys)
    # an empty stack decides nothing
    assert bj_orthogonal(s, x[:0], y[:0]).margin.shape == (0,)
    # a plateau row probes 18-point grids beside 17-point ones
    s, x, y = linf2_space(), x[[0, 2]], np.array([[0.0, 1.0], [0.5, 2.0]])
    v = bj_orthogonal(s, x, y)
    assert v.flat_minimizer.tolist() == [True, False]
    for r in range(2):
        one = bj_orthogonal(s, x[r], y[r])
        assert verdict_row(v, r) == (one.orthogonal, one.margin, one.minimizer,
                                     one.flat_minimizer, one.nfev)


def test_bj_padded_row_keeps_its_minimum_at_its_own_last_point():
    # in one stacked round a plateau row probes 18 points while a row still
    # descending past its bracket probes 17 with the minimum at the last one.
    # Its padding repeats that minimum, so the stack's last argmin lands on
    # the padding and must be clipped to the row's own grid.
    objectives = [lambda t: np.maximum(np.abs(t), 0.5), lambda t: np.abs(t - 100.0)]
    stacked = []

    def G(live):
        if len(live) == 1:
            return objectives[live[0]]

        def evaluate(points):
            values = np.array([objectives[k](row) for k, row in zip(live, points)])
            stacked.append(values)
            return values
        return evaluate

    def searches():
        return [orthogonality._line_min(1.0, 1e-9, 1e6) for _ in objectives]

    results = orthogonality._run(searches(), G)
    assert any(values.shape == (2, 18) and values[1, 16] == values[1, 17] == values[1].min()
               for values in stacked)
    for search, f, res in zip(searches(), objectives, results):
        assert orthogonality._finish(search, next(search), f) == res
    assert results[1].argmin == pytest.approx(100.0)


@pytest.mark.parametrize("field, x, y", [
    (REAL, [1.0, 1.0], [1.0, -1.0]),
    (REAL, [2.0, 1.0], [1.0, 1.0]),
    (REAL, [1.0, 0.0], [0.0, 0.0]),
    (COMPLEX, [1.0, 0.0], [1j, 0.5]),
])
def test_bj_one_pair_gives_python_scalars(field, x, y):
    s = lp_space(field, 2, 3.0)
    one = bj_orthogonal(s, x, y)
    scalar = complex if field == COMPLEX else float
    assert [type(f) for f in (one.orthogonal, one.margin, one.minimizer,
                              one.flat_minimizer, one.nfev)] == [bool, float, scalar, bool, int]
    stacked = bj_orthogonal(s, [x], [y])
    assert verdict_row(stacked, 0) == (one.orthogonal, one.margin, one.minimizer,
                                       one.flat_minimizer, one.nfev)
    row = {k: np.asarray(f)[0].item() for k, f in stacked.to_dict().items()}
    assert dumps(one.to_dict()) == dumps(row)
    assert dumps(stacked.to_dict()) == dumps({k: [f] for k, f in one.to_dict().items()})


def test_stacked_verdicts_compare_field_by_field():
    s = lp_space(REAL, 2, 3.0)
    x = np.array([[1.0, 1.0], [2.0, -1.0]])
    y = np.array([1.0, -1.0])
    v = bj_orthogonal(s, x, y)
    assert v == bj_orthogonal(s, x, y)
    assert not v != bj_orthogonal(s, x, y)
    assert v != bj_orthogonal(s, x[::-1], y)
    assert v != bj_orthogonal(s, x[:1], y)  # a different stack shape
    assert v != bj_orthogonal(s, x[0], y)  # a stack is not its first pair


def test_one_pair_verdicts_compare_as_plain_dataclasses():
    s = lp_space(COMPLEX, 2, 3.0)
    one = bj_orthogonal(s, [1.0, 0.0], [1j, 0.5])
    again = bj_orthogonal(s, [1.0, 0.0], [1j, 0.5])
    assert one == again and hash(one) == hash(again)
    assert one != bj_orthogonal(s, [1.0, 0.0], [0.0, 1.0])
    assert one == type(one)(one.orthogonal, one.margin, one.minimizer,
                            one.flat_minimizer, one.nfev)
    assert one != type(one)(one.orthogonal, one.margin, one.minimizer,
                            one.flat_minimizer, one.nfev + 1)
    assert one != (one.orthogonal, one.margin, one.minimizer, one.flat_minimizer, one.nfev)


def test_bj_decides_vectors_whose_norm_underflows_at_the_common_scale():
    # BJ orthogonality is homogeneous in y: [1e-200, 0] must get the verdict
    # of [1e-100, 0], not the margin 0 of a y that rescales to norm 0; and an
    # x whose norm underflows next to y is still a nonzero x
    s = lp_space(REAL, 2, 3.0)
    dip = 1.0 - 2.0 ** (1.0 / 3.0)  # min_t ||(1 + t, 1)|| - ||(1, 1)||
    for y in ([1e-100, 0.0], [1e-200, 0.0]):
        v = bj_orthogonal(s, [1.0, 1.0], y)
        assert not v.orthogonal
        assert v.margin == pytest.approx(dip, rel=1e-12)
        assert v.minimizer == pytest.approx(-1.0 / y[0], rel=1e-6)
    v = bj_orthogonal(s, [1e-120, 1e-120], [1.0, 0.0])
    assert v.margin == pytest.approx(dip * 1e-120, rel=1e-12)
    assert v.minimizer == pytest.approx(-1e-120, rel=1e-6)
    assert v.orthogonal  # tol is absolute: a dip of 2.6e-121 is inside 1e-7
    assert not bj_orthogonal(s, [1e-120, 1e-120], [1.0, 0.0], tol=1e-130).orthogonal
    # stacked with ordinary rows, each row is its one-pair verdict
    x = np.array([[1.0, 1.0], [1e-120, 1e-120], [2.0, -1.0]])
    y = np.array([[1e-200, 0.0], [1.0, 0.0], [1.0, 1.0]])
    v = bj_orthogonal(s, x, y)
    for r in range(3):
        one = bj_orthogonal(s, x[r], y[r])
        assert verdict_row(v, r) == (one.orthogonal, one.margin, one.minimizer,
                                     one.flat_minimizer, one.nfev)


def test_bj_finds_zero_rows_from_coordinates_where_the_unit_norm_underflows():
    # at p = 1100 the unit-scale row [0.5, 0] has |0.5|^p below the
    # subnormals, so its norm is 0; it is still a nonzero x, and only a
    # zero row is refused
    s = lp_space(REAL, 2, 1100.0)
    assert norm(s, [0.5, 0.0]) == 0.0
    v = bj_orthogonal(s, [1.0, 0.0], [0.0, 0.0])
    assert (v.orthogonal, v.margin, v.minimizer, v.flat_minimizer) == (True, 0.0, 0.0, True)
    with pytest.raises(ContractViolation, match="nonzero x only"):
        bj_orthogonal(s, [0.0, 0.0], [1.0, 0.0])


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
    # the basis is validated as one stack first, then counted
    with pytest.raises(ContractViolation, match="expected coordinates of shape"):
        best_coeffs(s, [1.0, 1.0], None)
    with pytest.raises(ContractViolation, match="basis must hold one or two vectors"):
        best_coeffs(s, [1.0, 1.0], np.eye(2)[[0, 1, 0]])
    # in dimension 1 two vectors are dependent, though the 1x2 matrix has a
    # single singular value
    with pytest.raises(ContractViolation):
        best_coeffs(lp_space(REAL, 1, 2.0), [1.0], [[1.0], [2.0]])
