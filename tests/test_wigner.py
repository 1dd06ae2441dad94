"""Checker verdicts on maps whose behaviour is known in closed form."""

import cmath

import numpy as np
import pytest

from sipwigner import (
    COMPLEX,
    KIND_LINEAR,
    REAL,
    ContractViolation,
    MapOracle,
    UnsupportedField,
    UnsupportedSpace,
    as_vec,
    best_coeffs,
    check_exact_preservation,
    check_linearity,
    check_phase_isometry_sets,
    check_wigner,
    conjugation_oracle,
    default_samples,
    identity_oracle,
    linf2_space,
    lp_space,
    make_isometry,
    make_phase_equivalent,
    matrix_oracle,
    norm,
    random_isometry_spec,
    reconstruct,
    recover_pair_coeffs,
    scale_oracle,
    seeded_phase,
    sip,
    swap_counterexample,
)
from sipwigner.jsonio import dumps

RC3 = lp_space(REAL, 3, 3.0)
R2 = lp_space(REAL, 2, 3.0)
CC2 = lp_space(COMPLEX, 2, 3.0)


def samples_for(space, seed=101):
    # size past the all-real structured prefix so complex draws are present
    return default_samples(space, space.dim ** 2 + 8, seed)


def test_identity_passes_everything_with_zero_violation():
    m = identity_oracle(RC3)
    xs = samples_for(RC3)
    for check in (check_wigner, check_phase_isometry_sets,
                  check_exact_preservation):
        report = check(m, xs, seed=101)
        assert report.passed
        assert report.max_violation == 0.0
        assert report.witness is None
    # combination vectors are accumulated in two different orders, so the
    # linearity probe sits at rounding level rather than exactly zero
    report = check_linearity(m, xs, seed=101)
    assert report.passed
    assert report.max_violation <= 1e-14


def test_minus_identity_preserves_the_form_exactly():
    # [-x, -y] = (-1)*conj(-1)*[x, y] = [x, y]: the two sign flips cancel,
    # so the exact check must pass (and linearity holds trivially)
    m = scale_oracle(identity_oracle(RC3), -1.0)
    xs = samples_for(RC3)
    assert check_exact_preservation(m, xs, seed=101).passed
    assert check_linearity(m, xs, seed=101).passed
    mc = scale_oracle(identity_oracle(CC2), -1.0)
    assert check_exact_preservation(mc, samples_for(CC2), seed=101).passed


def test_constant_unimodular_phase_passes_exact_and_linearity():
    m = scale_oracle(identity_oracle(CC2), cmath.exp(0.7j))
    xs = samples_for(CC2)
    assert check_exact_preservation(m, xs, seed=101).passed
    assert check_linearity(m, xs, seed=101).passed
    assert check_wigner(m, xs, seed=101).passed


def test_conjugation_passes_wigner_but_fails_exact_and_linearity():
    m = conjugation_oracle(CC2)
    xs = samples_for(CC2)
    assert check_wigner(m, xs, seed=101).passed  # |conj(z)| = |z|
    report = check_exact_preservation(m, xs, seed=101)
    assert not report.passed
    w = report.witness
    assert w is not None
    # the witness pair really does violate the pinned threshold
    lhs = sip(CC2, m(w.x), m(w.y))
    rhs = sip(CC2, w.x, w.y)
    assert abs(lhs - rhs) > 1e-8 * (1.0 + norm(CC2, w.x) * norm(CC2, w.y))
    assert not check_linearity(m, xs, seed=101).passed


def test_nonconstant_phase_passes_wigner_fails_exact():
    m = make_phase_equivalent(identity_oracle(CC2), seeded_phase(CC2, 5))
    xs = samples_for(CC2)
    assert check_wigner(m, xs, seed=101).passed
    assert not check_exact_preservation(m, xs, seed=101).passed
    assert not check_linearity(m, xs, seed=101).passed


def test_hashed_sign_twist_passes_the_real_multiset_check():
    # f(x) = s(x)*U*x with s = +-1: {||f(x)+-f(y)||} = {||x+-y||} as sets
    rng = np.random.default_rng(3)
    base = make_isometry(RC3, random_isometry_spec(RC3, rng))
    m = make_phase_equivalent(base, seeded_phase(RC3, 5))
    xs = samples_for(RC3)
    assert check_phase_isometry_sets(m, xs, seed=101).passed
    assert check_wigner(m, xs, seed=101).passed
    # chosen so the hashed signs are not constant across the samples
    assert not check_exact_preservation(m, xs, seed=101).passed


def test_doubled_map_fails_with_order_one_violation_on_unit_samples():
    m = scale_oracle(identity_oracle(RC3), 2.0)
    xs = default_samples(RC3, 12, 101, unit=True)
    for check in (check_wigner, check_phase_isometry_sets):
        report = check(m, xs, seed=101)
        assert not report.passed
        assert report.max_violation >= 1.0


def test_fixture_space_is_rejected_by_sip_checks_only():
    space, swap, _ = swap_counterexample()
    xs = [np.array([1.0, 0.0]), np.array([0.5, 1.0]), np.array([1.0, 1.0])]
    with pytest.raises(UnsupportedSpace):
        check_wigner(swap, xs)
    with pytest.raises(UnsupportedSpace):
        check_exact_preservation(swap, xs)
    # the multiset condition needs norms only, and the swap is an isometry
    assert check_phase_isometry_sets(swap, xs, seed=101).passed


def test_multiset_check_is_real_only():
    with pytest.raises(UnsupportedField):
        check_phase_isometry_sets(identity_oracle(CC2), samples_for(CC2))


def test_linearity_flags_norm_break_and_additivity_break():
    xs = samples_for(RC3)
    assert not check_linearity(scale_oracle(identity_oracle(RC3), 2.0),
                               xs, seed=101).passed
    shift = MapOracle(RC3, RC3, lambda v: v + np.array([1.0, 0.0, 0.0]))
    assert not check_linearity(shift, xs, seed=101).passed


def test_report_shape_and_serialization():
    report = check_wigner(identity_oracle(CC2), samples_for(CC2), seed=7)
    d = report.to_dict()
    assert d["check"] == "wigner"
    assert d["verdict"] == "pass"
    assert d["seed"] == 7
    assert d["assumptions"] == ["surjectivity"]
    dumps(d)  # must be representable in the report format

    failing = check_exact_preservation(conjugation_oracle(CC2),
                                       samples_for(CC2), seed=7)
    d = failing.to_dict()
    assert d["verdict"] == "fail"
    assert set(d["witness"]) == {"x", "y", "lhs", "rhs"}
    dumps(d)


def test_reports_count_pairs_and_map_calls_outside_to_dict():
    calls = []

    class CountingOracle(MapOracle):
        def __call__(self, x):
            calls.append(np.shape(x))
            return super().__call__(x)

    xs = samples_for(RC3)
    k = len(xs)
    keys = {"check", "verdict", "max_violation", "witness", "seed", "assumptions"}
    for fn in (identity_oracle(RC3).fn, scale_oracle(identity_oracle(RC3), 2.0).fn):
        m = CountingOracle(RC3, RC3, fn)
        for report, pairs in (
            (lambda: check_wigner(m, xs, seed=3), k * k),
            (lambda: check_exact_preservation(m, xs, seed=3), k * k),
            (lambda: check_phase_isometry_sets(m, xs, seed=3), k * (k + 1) // 2),
            (lambda: check_linearity(m, xs, seed=3, n_draws=20), k + 20),
        ):
            calls.clear()
            r = report()
            assert (r.pairs, r.map_calls) == (pairs, len(calls))
            assert r.map_calls == (2 if r.check == "linearity" else 1)
            assert set(r.to_dict()) == keys


def test_map_oracle_validates_shapes_and_fields():
    bad = MapOracle(RC3, RC3, lambda v: v[:2])
    with pytest.raises(ContractViolation):
        bad(np.array([1.0, 0.0, 0.0]))
    for poison in (np.nan, np.inf):
        broken = MapOracle(RC3, RC3, lambda v, c=poison: v + np.array([c, 0.0, 0.0]))
        with pytest.raises(ContractViolation):
            broken(np.array([1.0, 0.0, 0.0]))
        for check in (check_wigner, check_phase_isometry_sets,
                      check_exact_preservation, check_linearity):
            with pytest.raises(ContractViolation):
                check(broken, samples_for(RC3))
    with pytest.raises(ContractViolation):
        identity_oracle(RC3)(np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ContractViolation):
        identity_oracle(RC3)(np.array([1.0, 0.0]))
    mixed = MapOracle(RC3, lp_space(COMPLEX, 3, 3.0), lambda v: v + 0j)
    with pytest.raises(ContractViolation):
        check_wigner(mixed, samples_for(RC3))
    # a stack of points maps row by row and keeps its leading axes
    for space in (RC3, CC2):
        f = make_phase_equivalent(identity_oracle(space), seeded_phase(space, 5))
        X = np.stack(samples_for(space)[-6:])
        assert np.array_equal(f(X), np.stack([f(x) for x in X]))
        assert np.array_equal(f(X.reshape(2, 3, -1)), f(X).reshape(2, 3, -1))
    # one row with the wrong output shape, or of the wrong length, fails the stack
    uneven = MapOracle(RC3, RC3, lambda v: v if v[0] >= 0 else v[:2])
    assert np.array_equal(uneven(np.eye(3)), np.eye(3))
    with pytest.raises(ContractViolation):
        uneven(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        identity_oracle(RC3)(np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        identity_oracle(RC3)([[1.0, 0.0, 0.0], [1.0, 0.0]])
    # images checked as one stack must still be one image of length dim per
    # point: a (1, dim) image, scalar images that a stack of exactly dim
    # points would line up into one vector, and dim + 1 coordinates all fail
    for fn in (lambda v: v[None, :], lambda v: float(v[0]), lambda v: np.append(v, 0.0)):
        for x in (np.ones(3), np.eye(3), np.eye(3)[None]):
            with pytest.raises(ContractViolation):
                MapOracle(RC3, RC3, fn)(x)


def test_checks_reject_degenerate_input():
    m = identity_oracle(RC3)
    with pytest.raises(ContractViolation):
        check_wigner(m, [])
    with pytest.raises(ContractViolation):
        check_wigner(m, samples_for(RC3), tol=0.0)
    # a sample set is a sequence of source vectors: not ragged, not a 3-D stack
    for bad in ([[1, 0, 0], [1, 0]], np.ones((2, 2, 3)), [1.0, 0.0, 0.0], [{}, 1, 2]):
        for check in (check_wigner, check_phase_isometry_sets,
                      check_exact_preservation, check_linearity):
            with pytest.raises(ContractViolation):
                check(m, bad)


def per_vector_real(v):
    """(a, b, c) -> (-c, a, b), read one coordinate at a time with float()."""
    return np.array([-float(v[2]), float(v[0]), float(v[1])])


def per_vector_complex(v):
    """(a, b) -> (i*b, -a), read one coordinate at a time with complex()."""
    return np.array([1j * complex(v[1]), -complex(v[0])])


def test_per_vector_user_map_matches_its_matrix_oracle():
    # float()/complex() of a coordinate fails on a stack, so these maps only
    # work one vector at a time; every checker and reconstruct must still see
    # the same map as the equivalent matrix oracle, passing and failing
    cases = [
        (RC3, per_vector_real, [[0, 0, -1], [1, 0, 0], [0, 1, 0]],
         (check_wigner, check_phase_isometry_sets, check_exact_preservation, check_linearity)),
        (CC2, per_vector_complex, [[0, 1j], [-1, 0]],
         (check_wigner, check_exact_preservation, check_linearity)),
    ]
    for space, fn, matrix, checks in cases:
        with pytest.raises(TypeError):
            fn(np.ones((space.dim, space.dim)))
        user, ref = MapOracle(space, space, fn), matrix_oracle(space, matrix)
        xs = samples_for(space)
        for m, m_ref in ((user, ref), (scale_oracle(user, 2.0), scale_oracle(ref, 2.0))):
            for check in checks:
                got, want = check(m, xs, seed=101), check(m_ref, xs, seed=101)
                assert (got.verdict, got.max_violation) == (want.verdict, want.max_violation)
                assert (got.witness is None) == (want.witness is None)
                if got.witness is not None:
                    assert np.array_equal(got.witness.x, want.witness.x)
                    assert np.array_equal(got.witness.y, want.witness.y)
        got, want = reconstruct(user, seed=11), reconstruct(ref, seed=11)
        assert got.kind == want.kind
        assert np.array_equal(got.U, want.U)
        assert got.residual == want.residual
        assert len(got.phase_samples) == len(want.phase_samples)
        for (x, sigma), (x_ref, sigma_ref) in zip(got.phase_samples, want.phase_samples):
            assert np.array_equal(x, x_ref) and sigma == sigma_ref


# ---------------------------------------------------------------- pairwise reference

def reference_scan(check, m, samples, tol=1e-8, seed=101):
    """The checkers' contract as a plain loop over sample pairs.

    Returns (failed, max violation, witness pair or None); the witness is
    the first pair attaining the maximum in the scan order below.
    """
    s, t = m.source, m.target
    xs = [as_vec(s, x) for x in samples]
    fxs = [m(x) for x in xs]
    entries = []  # (violation, bound, x, y) in scan order
    if check in (check_wigner, check_exact_preservation):
        for i, (x, fx) in enumerate(zip(xs, fxs)):
            for j, (y, fy) in enumerate(zip(xs, fxs)):
                lhs, rhs = sip(t, fx, fy), sip(s, x, y)
                if check is check_wigner:
                    lhs, rhs = abs(lhs), abs(rhs)
                entries.append((abs(lhs - rhs), tol * norm(s, x) * norm(s, y), x, y))
    elif check is check_phase_isometry_sets:
        for i in range(len(xs)):
            for j in range(i + 1):
                x, y, fx, fy = xs[i], xs[j], fxs[i], fxs[j]
                lhs = sorted((norm(t, fx + fy), norm(t, fx - fy)))
                rhs = sorted((norm(s, x + y), norm(s, x - y)))
                violation = max(abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))
                entries.append((violation, tol * (norm(s, x) + norm(s, y)), x, y))
    else:
        for x, fx in zip(xs, fxs):
            entries.append((abs(norm(t, fx) - norm(s, x)), tol * norm(s, x), x, x))
        rng = np.random.default_rng(seed)
        for _ in range(50):
            i = int(rng.integers(len(xs)))
            j = int(rng.integers(len(xs)))
            if s.field == COMPLEX:
                a = complex(rng.standard_normal(), rng.standard_normal())
                b = complex(rng.standard_normal(), rng.standard_normal())
            else:
                a = float(rng.standard_normal())
                b = float(rng.standard_normal())
            dev = norm(t, m(a * xs[i] + b * xs[j]) - a * fxs[i] - b * fxs[j])
            bound = tol * (abs(a) * norm(s, xs[i]) + abs(b) * norm(s, xs[j]))
            entries.append((dev, bound, xs[i], xs[j]))
    worst, pair, failed = 0.0, None, False
    for violation, bound, x, y in entries:
        if violation > worst:
            worst, pair = violation, (x, y)
        failed = failed or violation > bound
    return failed, worst, pair if failed else None


REFERENCE_MAPS = [
    ("identity", RC3, identity_oracle),
    ("double", RC3, lambda s: scale_oracle(identity_oracle(s), 2.0)),
    ("seeded_phase", RC3, lambda s: make_phase_equivalent(identity_oracle(s), seeded_phase(s, 5))),
    ("identity", CC2, identity_oracle),
    ("double", CC2, lambda s: scale_oracle(identity_oracle(s), 2.0)),
    ("conjugation", CC2, conjugation_oracle),
    ("seeded_phase", CC2, lambda s: make_phase_equivalent(identity_oracle(s), seeded_phase(s, 5))),
]


@pytest.mark.parametrize("name, space, build", REFERENCE_MAPS,
                         ids=[f"{n}-{s.field}" for n, s, _ in REFERENCE_MAPS])
def test_checkers_match_the_pairwise_reference(name, space, build):
    m = build(space)
    xs = samples_for(space)
    checks = [check_wigner, check_exact_preservation, check_linearity]
    if space.field == REAL:
        checks.append(check_phase_isometry_sets)
    for check in checks:
        report = check(m, xs, seed=101)
        failed, worst, pair = reference_scan(check, m, xs)
        assert report.passed is not failed, check.__name__
        assert abs(report.max_violation - worst) <= 1e-12, check.__name__
        if pair is None:
            assert report.witness is None
        else:
            assert np.array_equal(report.witness.x, pair[0]), check.__name__
            assert np.array_equal(report.witness.y, pair[1]), check.__name__


@pytest.mark.parametrize("space", [RC3, CC2], ids=["real", "complex"])
def test_check_linearity_refuses_a_bad_n_draws_and_keeps_the_empty_report(space):
    m, xs = identity_oracle(space), default_samples(space, 8, 5)
    for bad in (-1, 2.5):
        with pytest.raises(ContractViolation, match="n_draws"):
            check_linearity(m, xs, n_draws=bad)
    # no draws: the sample norms alone decide, in the usual two map calls
    report = check_linearity(m, xs, n_draws=0)
    assert (report.verdict, report.witness, report.pairs, report.map_calls) == ("pass", None, 8, 2)
    doubled = check_linearity(scale_oracle(m, 2.0), xs, n_draws=0)
    assert doubled.verdict == "fail"
    assert np.array_equal(doubled.witness.x, doubled.witness.y)  # a sample norm


SPAN_USERS = {
    "check_linearity": (lambda xs: check_linearity(identity_oracle(R2), xs),
                        "samples must span the source space"),
    "recover_pair_coeffs": (lambda xs: recover_pair_coeffs(identity_oracle(R2), *xs),
                            "x and y must be linearly independent"),
    "best_coeffs": (lambda xs: best_coeffs(R2, [1.0, 1.0], xs),
                    "basis vectors are linearly dependent"),
}


@pytest.mark.parametrize("call, message", SPAN_USERS.values(), ids=SPAN_USERS.keys())
def test_samples_that_do_not_span_are_refused_at_one_threshold(call, message):
    """Every caller of the independence rule refuses vectors whose smallest
    singular value is at most 1e-10 of the largest, and accepts them above."""
    with pytest.raises(ContractViolation, match=message):
        call([[1.0, 0.0], [1.0, 1e-11]])  # ratio 5e-12
    call([[1.0, 0.0], [1.0, 1e-9]])  # ratio 5e-10


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0, 50.0, 100.0])
def test_the_real_field_theorem_ties_the_two_checks_together(p):
    """On a smooth, strictly convex real space, |[f(x), f(y)]| = |[x, y]|
    holds exactly when {||f(x) + f(y)||, ||f(x) - f(y)||} = {||x + y||,
    ||x - y||}, and a map with both is phase-equivalent to a linear isometry.

    Isometries, their hashed-sign twists and their sign flips pass both
    checks and reconstruct as linear; the doubled map and a 1e-3 radial
    distortion fail both.
    """
    rng = np.random.default_rng([int(p * 10), 17])
    for n in (1, 2, 3, 5):
        s = lp_space(REAL, n, p)
        for _ in range(2):
            base = make_isometry(s, random_isometry_spec(s, rng))
            w, phase_seed, seed = rng.standard_normal(n), *rng.integers(2 ** 63, size=2).tolist()
            samples = default_samples(s, max(8, 2 * n), seed, unit=True)
            maps = {
                "isometry": (base, True),
                "sign_twist": (make_phase_equivalent(base, seeded_phase(s, phase_seed)), True),
                "sign_flip": (scale_oracle(base, -1.0), True),
                "doubled": (scale_oracle(base, 2.0), False),
                "radial": (MapOracle(s, s, lambda x, U=base.fn, w=w, s=s: U(x) * (
                    1.0 + 1e-3 * np.tanh(w @ x / norm(s, x) + 0.3))), False),
            }
            for name, (f, expected) in maps.items():
                verdicts = (check_wigner(f, samples, seed=seed).passed,
                            check_phase_isometry_sets(f, samples, seed=seed).passed)
                assert verdicts == (expected, expected), (n, name)
                if expected:
                    rec = reconstruct(f, seed=seed)
                    assert rec.kind == KIND_LINEAR and rec.residual <= 1e-8, (n, name)


@pytest.mark.parametrize("space", [RC3, CC2], ids=["real", "complex"])
def test_linearity_witness_carries_the_per_draw_coefficients(space):
    # a norm-preserving, non-additive map: the worst violation is a combination
    m = make_phase_equivalent(identity_oracle(space), seeded_phase(space, 5))
    xs = samples_for(space)
    rng = np.random.default_rng(101)
    draws = []
    for _ in range(50):  # the reference stream, one scalar call at a time
        i, j = int(rng.integers(len(xs))), int(rng.integers(len(xs)))
        c = rng.standard_normal(4 if space.field == COMPLEX else 2).tolist()
        a, b = (complex(*c[:2]), complex(*c[2:])) if space.field == COMPLEX else tuple(c)
        draws.append((norm(space, m(a * xs[i] + b * xs[j]) - a * m(xs[i]) - b * m(xs[j])),
                      i, j, (a, b)))
    worst = max(draws, key=lambda d: d[0])  # the first draw attaining it
    report = check_linearity(m, xs, seed=101)
    assert report.verdict == "fail" and report.witness.rhs == worst[0]
    assert np.array_equal(report.witness.x, xs[worst[1]])
    assert np.array_equal(report.witness.y, xs[worst[2]])
    assert report.witness.lhs == worst[3]
    assert [type(c) for c in report.witness.lhs] == [type(c) for c in worst[3]]


def test_checker_verdicts_do_not_depend_on_the_sample_scale():
    """Each checker's verdict on samples times 10^k is its verdict at k = 0.

    Real and complex l_p^n, p in {1.5, 2, 3, 7}, n in {2, 3}; the identity,
    the doubled map, a phase-twisted isometry and, over C, conjugation;
    k in {+-1, +-10, +-40} with |k|*p <= 280.  The limit keeps every
    |x_i|^p inside the float range: past it the raw p-norm underflows or
    overflows, a defect of the evaluators themselves, probed at 1e+-150
    under ROADMAP item 1.  A tolerance relative to the magnitudes compared
    makes the verdicts scale-free; an additive one let the doubled map pass
    at small scale.
    """
    checks = (check_wigner, check_exact_preservation, check_linearity)
    rng = np.random.default_rng(29)
    for field in (REAL, COMPLEX):
        for p in (1.5, 2.0, 3.0, 7.0):
            for n in (2, 3):
                s = lp_space(field, n, p)
                iso = make_isometry(s, random_isometry_spec(s, rng))
                maps = {"identity": identity_oracle(s),
                        "doubled": scale_oracle(identity_oracle(s), 2.0),
                        "phase_twisted": make_phase_equivalent(
                            iso, seeded_phase(s, int(rng.integers(2 ** 63))))}
                if field == COMPLEX:
                    maps["conjugation"] = conjugation_oracle(s)
                samples = np.array(default_samples(s, 8, int(rng.integers(2 ** 63)), unit=True))
                for name, f in maps.items():
                    for check in checks + ((check_phase_isometry_sets,) if field == REAL else ()):
                        at_unit = check(f, samples).verdict
                        if name == "doubled":
                            assert at_unit == "fail"
                        for k in (-40, -10, -1, 1, 10, 40):
                            if abs(k) * p <= 280:
                                got = check(f, samples * 10.0 ** k).verdict
                                assert got == at_unit, (field, p, n, name, check.__name__, k)
