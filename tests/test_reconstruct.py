"""Reconstruction round trips against generated ground truth.

A generated map f(x) = sigma(x) * U * x(*) hides (sigma, U, kind); the
tests rebuild them and compare with the originals up to the one global
phase the problem leaves undetermined (fixed here by sigma(e_1) = 1).
"""

import numpy as np
import pytest

from sipwigner import (
    COMPLEX,
    KIND_CONJUGATE,
    KIND_LINEAR,
    REAL,
    ContractViolation,
    HypothesisViolation,
    IsometrySpec,
    KindAmbiguous,
    MapOracle,
    Reconstruction,
    UnsupportedSpace,
    basis_vec,
    bj_orthogonal,
    check_exact_preservation,
    check_linearity,
    check_phase_isometry_sets,
    check_wigner,
    conjugation_oracle,
    detect_kind,
    identity_oracle,
    lp_space,
    make_isometry,
    make_phase_equivalent,
    matrix_oracle,
    norm,
    random_isometry_spec,
    random_unitary,
    reconstruct,
    recover_pair_coeffs,
    recover_scalar_action,
    reproduction_residual,
    scale_oracle,
    seeded_phase,
    sip,
    swap_counterexample,
    unit_sphere_samples,
)
from sipwigner.jsonio import dumps

RC3 = lp_space(REAL, 3, 3.0)
CC3 = lp_space(COMPLEX, 3, 1.5)

SPEC3 = IsometrySpec((3, 1, 2), (1j, -1.0, np.exp(0.4j)))
SPEC3C = IsometrySpec((3, 1, 2), (1j, -1.0, np.exp(0.4j)), conjugate_first=True)


def phase_distance(U, V):
    """max |U - w*V| over the best unimodular w (the free global phase)."""
    k = int(np.argmax(np.abs(V)))
    w = U.flat[k] / V.flat[k]
    return float(np.max(np.abs(U - w * V))), abs(w)


def test_identity_reconstructs_to_identity():
    rec = reconstruct(identity_oracle(RC3), seed=11)
    assert rec.kind == KIND_LINEAR
    assert np.max(np.abs(rec.U - np.eye(3))) <= 1e-10
    assert rec.residual <= 1e-10
    assert all(abs(sig - 1.0) <= 1e-10 for _, sig in rec.phase_samples)


def test_phase_twisted_isometry_round_trip_linear():
    truth = SPEC3.matrix(COMPLEX)
    f = make_phase_equivalent(make_isometry(CC3, SPEC3), seeded_phase(CC3, 21))
    rec = reconstruct(f, seed=11)
    assert rec.kind == KIND_LINEAR
    dist, wmod = phase_distance(rec.U, truth)
    assert dist <= 1e-9
    assert wmod == pytest.approx(1.0, abs=1e-10)
    held_out = unit_sphere_samples(CC3, 50, np.random.default_rng(4))
    assert reproduction_residual(f, rec, held_out) <= 1e-9


def test_conjugate_linear_round_trip():
    truth = SPEC3C.matrix(COMPLEX)
    f = make_phase_equivalent(make_isometry(CC3, SPEC3C), seeded_phase(CC3, 22))
    rec = reconstruct(f, seed=11)
    assert rec.kind == KIND_CONJUGATE
    dist, _ = phase_distance(rec.U, truth)
    assert dist <= 1e-9
    held_out = unit_sphere_samples(CC3, 50, np.random.default_rng(4))
    assert reproduction_residual(f, rec, held_out) <= 1e-9


def test_dense_unitary_round_trip_p2():
    s = lp_space(COMPLEX, 4, 2.0)
    truth = random_unitary(s, np.random.default_rng(8))
    f = make_phase_equivalent(matrix_oracle(s, truth), seeded_phase(s, 23))
    rec = reconstruct(f, seed=11)
    dist, _ = phase_distance(rec.U, truth)
    assert rec.kind == KIND_LINEAR
    assert dist <= 1e-9


def test_global_phase_lands_in_U_with_sigma_gauged_at_e1():
    # the gauge sigma(e_1) = 1 pushes any global phase into U itself:
    # reconstructing w*f must give exactly w*U, with the phases unchanged
    f = make_isometry(CC3, SPEC3)
    g = scale_oracle(f, np.exp(1.3j))
    rec_f, rec_g = reconstruct(f, seed=11), reconstruct(g, seed=11)
    dist, w = phase_distance(rec_g.U, rec_f.U)
    assert dist <= 1e-9
    assert w == pytest.approx(1.0, abs=1e-10)
    ratio = rec_g.U[1, 0] / rec_f.U[1, 0]  # column 1 carries the phase
    assert ratio == pytest.approx(np.exp(1.3j), abs=1e-9)


def test_dim1_conjugation_is_reported_linear():
    # in one complex dimension conj(z) = (conj(z)/z) * z is itself a phase
    # twist of the identity, so "linear" is the right (degenerate) answer
    s = lp_space(COMPLEX, 1, 2.0)
    rec = reconstruct(conjugation_oracle(s), seed=11)
    assert rec.kind == KIND_LINEAR
    held_out = unit_sphere_samples(s, 20, np.random.default_rng(4))
    assert reproduction_residual(conjugation_oracle(s), rec, held_out) <= 1e-9


def test_detect_kind_both_ways():
    assert detect_kind(make_isometry(CC3, SPEC3)) == KIND_LINEAR
    assert detect_kind(make_isometry(CC3, SPEC3C)) == KIND_CONJUGATE
    twisted = make_phase_equivalent(make_isometry(CC3, SPEC3C), seeded_phase(CC3, 2))
    assert detect_kind(twisted) == KIND_CONJUGATE


def test_detect_kind_preconditions():
    with pytest.raises(ContractViolation):
        detect_kind(identity_oracle(RC3))  # real field
    with pytest.raises(ContractViolation):
        detect_kind(identity_oracle(lp_space(COMPLEX, 1, 2.0)))  # dim 1


def test_recover_scalar_action():
    s = lp_space(COMPLEX, 2, 3.0)
    x = np.array([1.0, 2.0 - 1j])
    gamma = recover_scalar_action(identity_oracle(s), x, 2 + 1j)
    assert gamma == pytest.approx(2 + 1j, abs=1e-8)
    gamma = recover_scalar_action(conjugation_oracle(s), x, 2 + 1j)
    assert gamma == pytest.approx(2 - 1j, abs=1e-8)
    shift = MapOracle(s, s, lambda v: v + np.array([1.0, 0.0]))
    with pytest.raises(HypothesisViolation):
        recover_scalar_action(shift, x, 3.0)
    gamma = recover_scalar_action(identity_oracle(RC3), [1.0, -2.0, 0.5], -3.0)
    assert type(gamma) is float  # a real field gives a Python float
    assert gamma == pytest.approx(-3.0, abs=1e-12)


def test_recover_pair_coeffs_unimodular():
    f = make_phase_equivalent(make_isometry(CC3, SPEC3), seeded_phase(CC3, 21))
    x = np.array([1.0, 0.5j, -0.25])
    y = np.array([0.0, 1.0, 1.0 + 1j])
    alpha, beta = recover_pair_coeffs(f, x, y)
    assert abs(alpha) == pytest.approx(1.0, abs=1e-9)
    assert abs(beta) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ContractViolation):
        recover_pair_coeffs(f, x, 2.0 * x)
    # v -> (||v||, 0, 0) sends e1 and e2 to the same vector, so f(e1 + e2)
    # has no unique coefficients on {f(e1), f(e2)}
    collapse = MapOracle(RC3, RC3, lambda v: np.array([norm(RC3, v), 0.0, 0.0]))
    with pytest.raises(ContractViolation):
        recover_pair_coeffs(collapse, basis_vec(RC3, 0), basis_vec(RC3, 1))
    # in dimension 1 any two vectors are dependent, though the 1x2 system
    # has a single singular value
    line = identity_oracle(lp_space(COMPLEX, 1, 2.0))
    with pytest.raises(ContractViolation):
        recover_pair_coeffs(line, [1.0], [2.0])


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_reconstruct_helpers_reject_a_non_positive_tol(tol):
    # with tol = nan every bound test "residual > nan * scale" is False, so
    # the hypothesis checks were silently off: the shift map passed them
    e1, e2 = basis_vec(CC3, 0), basis_vec(CC3, 1)
    shift = MapOracle(CC3, CC3, lambda v: v + e1)
    with pytest.raises(ContractViolation, match="tol must be positive"):
        recover_scalar_action(shift, e1, 2.0, tol=tol)
    with pytest.raises(ContractViolation, match="tol must be positive"):
        recover_pair_coeffs(shift, e1, e2, tol=tol)
    with pytest.raises(ContractViolation, match="tol must be positive"):
        detect_kind(shift, tol=tol)


TOL_TAKERS = {
    "bj_orthogonal": lambda m, xs, tol: bj_orthogonal(m.source, xs[0], xs[1], tol=tol),
    "check_wigner": lambda m, xs, tol: check_wigner(m, xs, tol=tol),
    "check_phase_isometry_sets": lambda m, xs, tol: check_phase_isometry_sets(m, xs, tol=tol),
    "check_exact_preservation": lambda m, xs, tol: check_exact_preservation(m, xs, tol=tol),
    "check_linearity": lambda m, xs, tol: check_linearity(m, xs, tol=tol),
    "recover_scalar_action": lambda m, xs, tol: recover_scalar_action(m, xs[0], 2.0, tol=tol),
    "recover_pair_coeffs": lambda m, xs, tol: recover_pair_coeffs(m, xs[0], xs[1], tol=tol),
    "detect_kind": lambda m, xs, tol: detect_kind(m, tol=tol),
    "reconstruct": lambda m, xs, tol: reconstruct(m, tol=tol, seed=11),
}


@pytest.mark.parametrize("tol", [np.inf, np.nan, True, 10 ** 400, np.longdouble("1e400")],
                         ids=["inf", "nan", "bool", "int-past-float-range",
                              "longdouble-past-float-range"])
@pytest.mark.parametrize("name", sorted(TOL_TAKERS))
def test_every_public_tol_must_be_finite(name, tol):
    # an infinite tol passes every bound test, so orthogonality, the
    # checkers and reconstruction would accept anything; nan compares false,
    # a bool is no tolerance (True would decide with tolerance 1), and a
    # number past the float range is as good as infinite
    m = identity_oracle(RC3)
    xs = [basis_vec(RC3, i) for i in range(3)]
    with pytest.raises(ContractViolation, match="^tol must be positive and finite$"):
        TOL_TAKERS[name](m, xs, tol)


def test_reconstruct_rejects_the_doubled_map():
    with pytest.raises(HypothesisViolation) as info:
        reconstruct(scale_oracle(identity_oracle(RC3), 2.0), seed=11)
    assert info.value.witness is not None


def test_reconstruct_rejects_norm_preserving_nonadditive_map():
    # coordinatewise absolute value keeps every lp norm and fixes the basis
    # columns, so only the held-out residual test can expose it
    m = MapOracle(RC3, RC3, np.abs)
    with pytest.raises(HypothesisViolation) as info:
        reconstruct(m, seed=11)
    assert info.value.witness is not None


@pytest.fixture
def map_calls(monkeypatch):
    """The number of points of every MapOracle call made, in order."""
    calls, call = [], MapOracle.__call__
    monkeypatch.setattr(MapOracle, "__call__",
                        lambda self, x: calls.append(len(np.reshape(x, (-1, self.source.dim))))
                        or call(self, x))
    return calls


@pytest.mark.parametrize("field, n", [(REAL, 5), (COMPLEX, 16), (COMPLEX, 1)])
def test_reconstruct_evaluates_each_probe_point_once(field, n, map_calls):
    # e1..en, e1 + ej for j >= 2, e1 + i*e2 (complex field, n >= 2 only) and
    # the verification draws, in one map call
    s = lp_space(field, n, 3.0)
    spec = random_isometry_spec(s, np.random.default_rng(n), conjugate=field == COMPLEX)
    twisted = make_phase_equivalent(make_isometry(s, spec), seeded_phase(s, 5))
    points = []
    m = MapOracle(s, s, lambda v: points.append(v.tobytes()) or twisted.fn(v))
    rec = reconstruct(m, seed=11)
    assert rec.kind == (KIND_CONJUGATE if field == COMPLEX and n > 1 else KIND_LINEAR)
    draws = len(rec.phase_samples)
    assert draws == 64
    expected = 2 * n - 1 + (field == COMPLEX and n > 1) + draws
    assert map_calls == [expected] and len(points) == len(set(points)) == expected
    if n == 16:
        assert expected == 96


def test_pair_and_kind_helpers_evaluate_their_points_in_one_call(map_calls):
    m = make_isometry(CC3, SPEC3C)
    recover_pair_coeffs(m, basis_vec(CC3, 0), basis_vec(CC3, 2))
    assert detect_kind(m) == KIND_CONJUGATE
    assert map_calls == [3, 4]  # x, y, x + y; then e1, e2, e1 + e2, e1 + i*e2


def test_reconstruct_validates_every_image_before_any_column_is_solved():
    # f(e1 + ej) = 3*(e1 + ej) makes the pair coefficients 3, and every
    # verification draw (no zero coordinate) gets an image of the wrong shape:
    # reconstruct evaluates all its points in one call, so the malformed
    # image is reported, not the column
    def fn(v):
        nonzero = np.count_nonzero(v)
        return v if nonzero == 1 else 3.0 * v if nonzero == 2 else v[:-1]

    m = MapOracle(RC3, RC3, fn)
    with pytest.raises(HypothesisViolation, match="alpha is not unimodular"):
        recover_pair_coeffs(m, basis_vec(RC3, 0), basis_vec(RC3, 1))
    with pytest.raises(ContractViolation):
        reconstruct(m, seed=11)


# --------------------------------------------- per-sample reference pipeline

def reference_phase_and_residual(m, U, kind, x):
    image = U @ (np.conj(x) if kind == KIND_CONJUGATE else x)
    fx = m(x)
    sigma = sip(m.target, fx, image) / norm(m.source, x) ** 2
    return sigma, norm(m.target, fx - sigma * image), image


def reference_columns(m, tol=1e-8):
    """U in the gauge sigma(e1) = 1, and the kind, as reconstruct builds them."""
    s, n = m.source, m.source.dim
    e1 = basis_vec(s, 0)
    cols = [m(e1)]
    for j in range(1, n):
        alpha, beta = recover_pair_coeffs(m, e1, basis_vec(s, j), tol)
        cols.append((beta / alpha) * m(basis_vec(s, j)))
    return np.stack(cols, axis=1), KIND_LINEAR if s.field == REAL or n == 1 else detect_kind(m, tol)


def reference_verify(m, U, kind, *, tol=1e-8, phase_tol=1e-8, iso_tol=1e-7, n_test=64, seed=7):
    """reconstruct's verification as one loop over samples, on the public
    norm and sip.

    Returns (phase_samples, residual) or raises HypothesisViolation at the
    first failing sample, testing isometry, phase, then residual.
    """
    rng = np.random.default_rng(seed)
    draws = unit_sphere_samples(m.source, n_test, rng)
    scales = rng.uniform(0.5, 2.0, n_test)
    worst, samples = 0.0, []
    for v, scale in zip(draws, scales):
        v = v * scale
        sigma, residual, image = reference_phase_and_residual(m, U, kind, v)
        nv = norm(m.source, v)
        iso_dev = abs(norm(m.target, image) - nv)
        if iso_dev > iso_tol * (1.0 + nv):
            raise HypothesisViolation("isometry", {"x": v.tolist(), "deviation": iso_dev})
        if abs(abs(sigma) - 1.0) > phase_tol:
            raise HypothesisViolation("phase", {"x": v.tolist(), "sigma": sigma})
        if residual > tol * (1.0 + nv):
            raise HypothesisViolation("residual", {"x": v.tolist(), "residual": residual})
        worst = max(worst, residual)
        samples.append((v, sigma))
    return samples, worst


REFERENCE_MAPS = {
    "identity": lambda: identity_oracle(RC3),
    "twisted_linear": lambda: make_phase_equivalent(
        make_isometry(CC3, SPEC3), seeded_phase(CC3, 21)),
    "conjugate_linear": lambda: make_phase_equivalent(
        make_isometry(CC3, SPEC3C), seeded_phase(CC3, 22)),
    "double": lambda: scale_oracle(identity_oracle(RC3), 2.0),
    "abs": lambda: MapOracle(RC3, RC3, np.abs),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_batched_verification_matches_the_per_sample_loop(name):
    m = REFERENCE_MAPS[name]()
    U, kind = reference_columns(m)
    held_out = unit_sphere_samples(m.source, 50, np.random.default_rng(4))
    expected = max(reference_phase_and_residual(m, U, kind, x)[1] for x in held_out)
    got = reproduction_residual(m, Reconstruction(U, kind, [], 0.0), held_out)
    assert got == pytest.approx(expected, abs=1e-12)
    try:
        samples, worst = reference_verify(m, U, kind, seed=11)
    except HypothesisViolation as ref:
        with pytest.raises(type(ref)) as info:
            reconstruct(m, seed=11)
        # same first failing sample, failing the same test
        assert info.value.witness["x"] == ref.witness["x"]
        assert set(info.value.witness) == set(ref.witness)
        return
    rec = reconstruct(m, seed=11)
    assert rec.kind == kind
    assert np.array_equal(rec.U, U)
    assert rec.residual == pytest.approx(worst, abs=1e-12)
    assert len(rec.phase_samples) == len(samples)
    for (x, sigma), (x_ref, sigma_ref) in zip(rec.phase_samples, samples):
        assert np.array_equal(x, x_ref)
        assert abs(sigma - sigma_ref) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0, 50.0, 100.0])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_stacked_draws_match_the_sequential_draws_bit_for_bit(field, p):
    # the verification rows are the unit_sphere_samples * uniform stack,
    # which the reference scales one sample at a time
    for n in (1, 2, 5, 16):
        m = identity_oracle(lp_space(field, n, p))
        U = np.eye(n, dtype=m.source.dtype)
        for seed in (0, 1, 2, 8, 136):
            samples, _ = reference_verify(m, U, KIND_LINEAR, seed=seed)
            rec = reconstruct(m, seed=seed)
            assert len(rec.phase_samples) == len(samples) == 64
            for (x, _), (x_ref, _) in zip(rec.phase_samples, samples):
                assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("seed", [8, 136])
def test_a_rejected_draw_is_drawn_again_so_every_seed_verifies_on_64_points(seed):
    # on real l_100^1 the raw norm underflows to 0 below |v| ~ 5.9e-4, and
    # seed 8's first 64 normals hold one such draw, which is drawn again
    m = identity_oracle(lp_space(REAL, 1, 100.0))
    first = np.random.default_rng(seed).standard_normal(64)
    assert np.count_nonzero(norm(m.source, first[:, None]) == 0.0) == {8: 1, 136: 0}[seed]
    assert len(reconstruct(m, seed=seed).phase_samples) == 64


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_a_phase_failure_at_a_later_draw_gives_the_reference_witness(field):
    # sigma = 1.5 where Re x_1 < -0.5: no probe point lies there, so the
    # columns are those of the identity, and only the phase test can fail
    s = lp_space(field, 3, 3.0)
    m = MapOracle(s, s, lambda v: 1.5 * v if v[0].real < -0.5 else v)
    with pytest.raises(HypothesisViolation, match="^phase$") as ref:
        reference_verify(m, np.eye(3, dtype=s.dtype), KIND_LINEAR, seed=11)
    with pytest.raises(HypothesisViolation,
                       match=r"^recovered phase is not unimodular: \|sigma\| = ") as info:
        reconstruct(m, seed=11)
    assert abs(info.value.witness["sigma"]) == pytest.approx(1.5, abs=1e-12)
    assert info.value.witness["x"] == ref.value.witness["x"]
    assert info.value.witness["sigma"] == pytest.approx(ref.value.witness["sigma"], abs=1e-12)
    draws = [x.tolist() for x, _ in reconstruct(identity_oracle(s), seed=11).phase_samples]
    assert draws.index(info.value.witness["x"]) > 0


def test_reproduction_residual_validates_the_held_out_set():
    m = identity_oracle(RC3)
    rec = reconstruct(m, seed=11)
    for bad in ([[1, 0, 0], [1, 0]], np.ones((2, 2, 3)), [1.0, 0.0, 0.0],
                [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]):
        with pytest.raises(ContractViolation):
            reproduction_residual(m, rec, bad)
    assert reproduction_residual(m, rec, []) == 0.0


def test_reconstruct_requires_lp_spaces():
    _, swap, _ = swap_counterexample()
    with pytest.raises(UnsupportedSpace):
        reconstruct(swap, seed=11)


def test_reconstruction_report_serializes():
    rec = reconstruct(identity_oracle(RC3), seed=11)
    d = rec.to_dict()
    assert d["kind"] == "linear"
    assert d["gauge"] == "sigma(e_1)=1"
    assert len(d["matrix"]) == 3
    assert isinstance(d["phase_samples"], list) and d["phase_samples"]
    dumps(d)


def _identity_except(space, images):
    """The identity, except at the points ``images`` maps (as coordinate
    tuples) to the images given there."""
    def fn(x):
        key = tuple(x.tolist())
        return np.asarray(images[key], dtype=space.dtype) if key in images else x
    return MapOracle(space, space, fn)


def _off_the_probes(x):
    """The identity on {e1, e2, e1 + e2}, a 1e-6 rotation anywhere else."""
    if tuple(x.tolist()) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        return x
    return x + 1e-6 * np.array([-x[1], x[0]])


R22 = lp_space(REAL, 2, 2.0)
C32 = lp_space(COMPLEX, 2, 3.0)
PROBE_Z = (1 + 0j, 1j)  # e1 + i*e2, the kind probe


@pytest.mark.parametrize("m, error, message", [
    (MapOracle(R22, R22, _off_the_probes), HypothesisViolation,
     "factorization fails to reproduce f: residual 1.019e-06"),
    (_identity_except(C32, {PROBE_Z: [1, 1]}), KindAmbiguous, "sits between the classes"),
    (_identity_except(C32, {PROBE_Z: [0, 1]}), KindAmbiguous, "degenerate leading coefficient"),
    (MapOracle(R22, lp_space(COMPLEX, 2, 2.0), lambda x: x + 0j), ContractViolation,
     "source and target must share the scalar field"),
    (MapOracle(R22, lp_space(REAL, 3, 2.0), lambda x: np.r_[x, 0.0]), ContractViolation,
     "reconstruction needs equal dimensions"),
], ids=["residual_only", "kind_between_classes", "kind_degenerate", "mixed_field",
        "unequal_dims"])
def test_reconstruct_refuses_each_broken_hypothesis(m, error, message):
    with pytest.raises(error, match=message):
        reconstruct(m)


@pytest.mark.parametrize("fn, x, error, message", [
    (lambda v: v, [0.0, 0.0, 0.0], ContractViolation, "probed at nonzero x"),
    (lambda v: 0.0 * v, [1.0, 0.0, 0.0], HypothesisViolation, "f vanished"),
    (lambda v: v * (1.0 + 0.1 * (abs(v[0]) > 1.5)), [1.0, 0.0, 0.0], HypothesisViolation,
     r"\|gamma\| = 2.2000000000000002 drifted from \|lam\| = 2"),
], ids=["zero_x", "f_vanishes", "gamma_drifts"])
def test_recover_scalar_action_refuses_each_broken_hypothesis(fn, x, error, message):
    with pytest.raises(error, match=message):
        recover_scalar_action(MapOracle(RC3, RC3, fn), x, 2.0)


@pytest.mark.parametrize("space, lam", [
    (RC3, "a"), (RC3, None), (RC3, np.ones(3)), (RC3, 2j), (RC3, True), (RC3, np.inf),
    (RC3, 10 ** 400), (CC3, np.complex128(np.nan)), (RC3, np.longdouble("1e400")),
    (CC3, np.clongdouble(1) * np.longdouble("1e400")),
], ids=["string", "none", "array", "complex-on-real", "bool", "inf", "past-float-range",
        "complex-nan", "longdouble-past-float-range", "clongdouble-past-float-range"])
def test_recover_scalar_action_refuses_a_lam_outside_the_field(space, lam):
    with pytest.raises(ContractViolation, match="lam must be a finite scalar of the field"):
        recover_scalar_action(identity_oracle(space), basis_vec(space, 0), lam)
    # numpy scalars of the field are scalars too, a float32 without a warning
    for two in (np.float64(2.0), np.float32(2.0)):
        assert recover_scalar_action(identity_oracle(space), basis_vec(space, 0),
                                     two) == pytest.approx(2.0)
