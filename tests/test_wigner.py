"""Checker verdicts on maps whose behaviour is known in closed form."""

import cmath

import numpy as np
import pytest

from sipwigner import (
    COMPLEX,
    REAL,
    ContractViolation,
    MapOracle,
    UnsupportedField,
    UnsupportedSpace,
    as_vec,
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
    norm,
    random_isometry_spec,
    scale_oracle,
    seeded_phase,
    sip,
    swap_counterexample,
)
from sipwigner.jsonio import dumps

RC3 = lp_space(REAL, 3, 3.0)
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


def test_checks_reject_degenerate_input():
    m = identity_oracle(RC3)
    with pytest.raises(ContractViolation):
        check_wigner(m, [])
    with pytest.raises(ContractViolation):
        check_wigner(m, samples_for(RC3), tol=0.0)


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
                entries.append((abs(lhs - rhs), tol * (1.0 + norm(s, x) * norm(s, y)), x, y))
    elif check is check_phase_isometry_sets:
        for i in range(len(xs)):
            for j in range(i + 1):
                x, y, fx, fy = xs[i], xs[j], fxs[i], fxs[j]
                lhs = sorted((norm(t, fx + fy), norm(t, fx - fy)))
                rhs = sorted((norm(s, x + y), norm(s, x - y)))
                violation = max(abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))
                entries.append((violation, tol * (1.0 + norm(s, x) + norm(s, y)), x, y))
    else:
        for x, fx in zip(xs, fxs):
            entries.append((abs(norm(t, fx) - norm(s, x)), tol * (1.0 + norm(s, x)), x, x))
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
            bound = tol * (1.0 + abs(a) * norm(s, xs[i]) + abs(b) * norm(s, xs[j]))
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
