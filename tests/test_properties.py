"""Axioms as properties: the form, the verdicts, and the generators."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sipwigner import (
    COMPLEX,
    REAL,
    IsometrySpec,
    bj_orthogonal,
    linf2_space,
    lp_space,
    gateaux_sip_oracle,
    minimize_scalar,
    norm,
    sip,
    support_functional,
)
from sipwigner.fixtures import _sip_linf2_exact

SPACES = (
    lp_space(REAL, 2, 1.5),
    lp_space(REAL, 3, 3.0),
    lp_space(COMPLEX, 2, 2.0),
    lp_space(COMPLEX, 2, 1.5),
    lp_space(COMPLEX, 3, 7.0),
)

coord = st.floats(min_value=-4.0, max_value=4.0)


def vector(draw, space):
    re = draw(st.tuples(*[coord] * space.dim))
    if space.field == COMPLEX:
        im = draw(st.tuples(*[coord] * space.dim))
        return np.array(re) + 1j * np.array(im)
    return np.array(re)


@st.composite
def space_and_vectors(draw, count=2):
    space = draw(st.sampled_from(SPACES))
    return (space, *[vector(draw, space) for _ in range(count)])


@st.composite
def space_and_stacks(draw):
    space = draw(st.sampled_from(SPACES))
    stacks = [np.array([vector(draw, space) for _ in range(draw(st.integers(1, 4)))])
              for _ in range(2)]
    return (space, *stacks)


def scalar_for(space, draw_pair):
    a, b = draw_pair
    return complex(a, b) if space.field == COMPLEX else a


@given(space_and_vectors(count=3))
@settings(max_examples=150, deadline=None)
def test_sip_is_additive_in_the_first_argument(svx):
    s, x, z, y = svx
    lhs = sip(s, x + z, y)
    rhs = sip(s, x, y) + sip(s, z, y)
    scale = 1.0 + (norm(s, x) + norm(s, z)) * norm(s, y)
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(space_and_vectors(), st.tuples(coord, coord))
@settings(max_examples=150, deadline=None)
def test_sip_is_homogeneous_in_the_first_argument(svx, pair):
    s, x, y = svx
    a = scalar_for(s, pair)
    scale = 1.0 + abs(a) * norm(s, x) * norm(s, y)
    assert abs(sip(s, a * x, y) - a * sip(s, x, y)) <= 1e-12 * scale


@given(space_and_vectors(), st.tuples(coord, coord))
@settings(max_examples=150, deadline=None)
def test_sip_is_conjugate_homogeneous_in_the_second_argument(svx, pair):
    s, x, y = svx
    b = scalar_for(s, pair)
    conj_b = np.conj(b) if s.field == COMPLEX else b
    scale = 1.0 + abs(b) * norm(s, x) * norm(s, y)
    assert abs(sip(s, x, b * y) - conj_b * sip(s, x, y)) <= 1e-11 * scale


@given(space_and_vectors())
@settings(max_examples=150, deadline=None)
def test_sip_satisfies_cauchy_schwarz(svx):
    s, x, y = svx
    bound = norm(s, x) * norm(s, y)
    assert abs(sip(s, x, y)) <= bound * (1.0 + 1e-12) + 1e-12


@given(space_and_vectors(count=1))
@settings(max_examples=150, deadline=None)
def test_sip_of_a_vector_with_itself_is_its_norm_squared(svx):
    s, x = svx
    n2 = norm(s, x) ** 2
    assert abs(sip(s, x, x) - n2) <= 1e-12 * (1.0 + n2)


@given(space_and_stacks())
@settings(max_examples=100, deadline=None)
def test_stacked_evaluation_matches_one_pair_at_a_time(sxy):
    # the batched path runs the same arithmetic per pair, so equality is exact
    s, xs, ys = sxy
    assume(all(norm(s, y) > 0 for y in ys))
    gram = sip(s, xs[:, None], ys[None])
    oracle = gateaux_sip_oracle(s, xs[:, None], ys[None])
    assert gram.shape == oracle.shape == (len(xs), len(ys))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert gram[i, j] == sip(s, x, y)
            assert oracle[i, j] == gateaux_sip_oracle(s, x, y)
    assert np.array_equal(norm(s, xs), [norm(s, x) for x in xs])
    assert np.array_equal(support_functional(s, ys), [support_functional(s, y) for y in ys])


int_coord = st.integers(min_value=-9, max_value=9)


@given(st.tuples(int_coord, int_coord), st.tuples(int_coord, int_coord))
@settings(max_examples=200, deadline=None)
def test_fixture_sip_equals_the_rational_oracle_exactly(xt, yt):
    # quarters and small integer products are dyadic, hence float-exact
    s = linf2_space()
    x = np.array(xt, dtype=float)
    y = np.array(yt, dtype=float)
    a1, a2 = abs(yt[0]), abs(yt[1])
    if a1 > a2:
        expected = Fraction(xt[0] * yt[0])
    elif a1 < a2:
        expected = Fraction(xt[1] * yt[1])
    else:
        expected = Fraction(3, 4) * xt[0] * yt[0] + Fraction(1, 4) * xt[1] * yt[1]
    assert Fraction(sip(s, x, y)) == expected
    assert _sip_linf2_exact(xt, yt) == expected


@given(space_and_vectors(count=3))
@settings(max_examples=25, deadline=None)
def test_constructed_orthogonality_survives_sums(svx):
    s, x, z1, z2 = svx
    assume(norm(s, x) >= 0.3)
    y1 = z1 - (sip(s, z1, x) / norm(s, x) ** 2) * x
    y2 = z2 - (sip(s, z2, x) / norm(s, x) ** 2) * x
    # when z is nearly parallel to x the subtraction leaves a cancellation
    # residue whose direction is float noise (it can even point along x);
    # keep only instances whose direction the arithmetic determines
    assume(norm(s, y1) == 0.0 or norm(s, y1) > 1e-9 * norm(s, z1))
    assume(norm(s, y2) == 0.0 or norm(s, y2) > 1e-9 * norm(s, z2))
    ysum = y1 + y2
    assume(norm(s, ysum) == 0.0
           or norm(s, ysum) > 1e-9 * (norm(s, y1) + norm(s, y2)))
    assert bj_orthogonal(s, x, y1).orthogonal
    assert bj_orthogonal(s, x, ysum).orthogonal


@given(space_and_vectors(count=2), st.floats(min_value=0.25, max_value=4.0))
@settings(max_examples=25, deadline=None)
def test_bj_verdict_is_scale_invariant(svx, t):
    s, x, y = svx
    assume(norm(s, x) >= 0.3 and norm(s, y) >= 0.3)
    base = bj_orthogonal(s, x, y)
    # scaling y moves the minimizer but never the verdict
    assert bj_orthogonal(s, x, t * y).orthogonal == base.orthogonal


@given(st.sampled_from((REAL, COMPLEX)), st.sampled_from((1.5, 2.0, 3.0, 7.0, 50.0, 100.0)),
       st.integers(min_value=2, max_value=4), st.integers(min_value=-150, max_value=150),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_bj_verdict_is_invariant_under_float_scale(field, p, n, k, orthogonalize, data):
    s = lp_space(field, n, p)
    coords = st.lists(st.integers(-64, 64).map(lambda m: m / 16.0), min_size=n, max_size=n)

    def vec():
        v = np.array(data.draw(coords))
        return v + 1j * np.array(data.draw(coords)) if field == COMPLEX else v

    x, y = vec(), vec()
    assume(norm(s, x) > 0.0)
    if orthogonalize:
        y = y - (sip(s, y, x) / norm(s, x) ** 2) * x
    tol = 1e-7
    base = bj_orthogonal(s, x, y, tol=tol)
    # rescaling rounds the coordinates; keep margins that rounding cannot tip
    assume(abs(base.margin + tol) > 1e-3 * tol)
    c = 10.0 ** k
    scaled = bj_orthogonal(s, c * x, c * y, tol=tol * c)
    assert np.isfinite(scaled.margin)
    assert scaled.orthogonal == base.orthogonal
    assert scaled.margin == pytest.approx(c * base.margin, rel=1e-6, abs=c * 1e-10)


@given(space_and_vectors(count=2), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=25, deadline=None)
def test_minimizer_value_dominates_sampled_points(svx, seed):
    s, x, y = svx
    assume(norm(s, y) >= 0.3)
    g = lambda lam: norm(s, x + lam * y)
    res = minimize_scalar(g, s.field, initial_width=4.0)
    lams = np.random.default_rng(seed).uniform(-5.0, 5.0, 41)
    if s.field == COMPLEX:
        lams = lams + 1j * np.random.default_rng(seed + 1).uniform(-5.0, 5.0, 41)
    assert res.value <= min(g(lam) for lam in lams) + 1e-10


@given(st.permutations(list(range(1, 5))),
       st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_signed_permutation_specs_are_lp_isometries(perm, signs):
    s = lp_space(REAL, 4, 1.5)
    m = IsometrySpec(tuple(perm), tuple(signs)).matrix(REAL)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.standard_normal(4)
        assert abs(norm(s, m @ x) - norm(s, x)) <= 1e-12 * (1 + norm(s, x))
