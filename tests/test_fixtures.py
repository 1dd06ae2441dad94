"""Generators, specs, and the exact rational witness on the max-norm plane."""

import hashlib
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sipwigner.fixtures
from sipwigner import (
    COMPLEX,
    REAL,
    ContractViolation,
    IsometrySpec,
    Lp,
    MapOracle,
    Space,
    as_vec,
    basis_vec,
    bj_orthogonal,
    check_linearity,
    check_phase_isometry_sets,
    check_wigner,
    conjugation_oracle,
    default_samples,
    detect_kind,
    identity_oracle,
    linf2_space,
    lp_space,
    make_isometry,
    make_phase_equivalent,
    matrix_oracle,
    minimize_scalar,
    norm,
    random_isometry_spec,
    random_unitary,
    reconstruct,
    recover_pair_coeffs,
    reproduction_residual,
    scale_oracle,
    seeded_phase,
    sip,
    structured_samples,
    swap_counterexample,
    unit_sphere_samples,
)


def test_isometry_spec_gather_convention():
    # perm (2,1), diag (1,-1) must send (a, b) to (b, -a)
    spec = IsometrySpec((2, 1), (1.0, -1.0))
    m = spec.matrix(REAL)
    assert np.array_equal(m @ np.array([2.0, 5.0]), [5.0, -2.0])


def test_isometry_spec_validation():
    with pytest.raises(ContractViolation):
        IsometrySpec((1, 1), (1.0, 1.0))  # not a permutation
    with pytest.raises(ContractViolation):
        IsometrySpec((0, 1), (1.0, 1.0))  # zero-based
    with pytest.raises(ContractViolation):
        IsometrySpec((2, 1), (2.0, 1.0))  # diag not unimodular
    with pytest.raises(ContractViolation):
        IsometrySpec((2, 1), (1.0,))  # length mismatch
    # criteria draw the flag as a numpy comparison; its dict is a JSON bool
    spec = IsometrySpec((1,), (1.0,), np.int64(1) == 1)
    assert IsometrySpec.from_dict(spec.to_dict()).conjugate_first is True


def test_isometry_spec_json_round_trip():
    spec = IsometrySpec((3, 1, 2), (1j, -1.0, np.exp(0.4j)), conjugate_first=True)
    again = IsometrySpec.from_dict(spec.to_dict())
    assert again.perm == spec.perm
    assert again.conjugate_first is True
    assert np.allclose(again.diag, spec.diag)


def test_make_isometry_preserves_norms():
    s = lp_space(REAL, 4, 1.5)
    rng = np.random.default_rng(5)
    f = make_isometry(s, random_isometry_spec(s, rng))
    for x in unit_sphere_samples(s, 10, rng):
        assert norm(s, f(x)) == pytest.approx(1.0, rel=1e-12)


def test_conjugate_first_spec_is_conjugate_linear():
    s = lp_space(COMPLEX, 2, 3.0)
    spec = IsometrySpec((2, 1), (1.0, 1j), conjugate_first=True)
    f = make_isometry(s, spec)
    x = np.array([1 + 1j, 2.0])
    lam = 0.5 - 2j
    assert np.allclose(f(lam * x), np.conj(lam) * f(x))


def test_matrix_oracle_applies_conjugation_before_the_matrix():
    s = lp_space(COMPLEX, 2, 2.0)
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    f = matrix_oracle(s, m, conjugate_first=True)
    out = f(np.array([1j, 2.0]))
    assert np.allclose(out, [2.0, -1j])


def test_scale_oracle_scales():
    s = lp_space(REAL, 2, 2.0)
    from sipwigner import identity_oracle
    f = scale_oracle(identity_oracle(s), 2.0)
    assert norm(s, f([1.0, 0.0])) == 2.0


def test_seeded_phase_is_deterministic_and_unimodular():
    s = lp_space(COMPLEX, 3, 2.0)
    sigma_a = seeded_phase(s, 7)
    sigma_b = seeded_phase(s, 7)
    sigma_c = seeded_phase(s, 8)
    xs = default_samples(s, 12, 3)
    vals_a = [sigma_a(x) for x in xs]
    assert vals_a == [sigma_b(x) for x in xs]
    assert any(a != c for a, c in zip(vals_a, (sigma_c(x) for x in xs)))
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in vals_a)


def reference_phase(space, seed):
    """The phase as first written: a keyed blake2b made for every point, and
    the complex phase through numpy's exp."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def sigma(x):
        xv = as_vec(space, x) + (0j if space.field == COMPLEX else 0.0)
        digest = hashlib.blake2b(xv.tobytes(), digest_size=8, key=key).digest()
        u = int.from_bytes(digest, "little") / 2.0 ** 64
        if space.field == REAL:
            return 1.0 if u < 0.5 else -1.0
        return complex(np.exp(2j * np.pi * u))

    return sigma


def test_seeded_phase_matches_the_per_call_hash_bit_for_bit():
    rng, extra = np.random.default_rng(11), np.random.default_rng(12)
    for field in (REAL, COMPLEX):
        xs = []
        for n in (1, 2, 3, 5, 16):
            s = lp_space(field, n, 3.0)
            v = rng.standard_normal((250, n)) * 10.0 ** rng.integers(-8, 9, (250, 1))
            if field == COMPLEX:
                v = v + 1j * rng.standard_normal((250, n))
            v[rng.random((250, n)) < 0.2] = 0.0
            v[rng.random((250, n)) < 0.2] = -0.0
            # all-zero points, of either sign; over C, -0.0 in imaginary parts only
            special = [np.zeros(n), -np.zeros(n)]
            if field == COMPLEX:
                special.append(np.full(n, complex(-0.0, -0.0)))
                for w in extra.standard_normal((20, n)):
                    special.append(w + 0j)
                    special[-1].imag = -0.0
            xs.append((s, list(v) + special))
        # the bytes of -0.0 astride two coordinates, with no coordinate -0.0:
        # the kernel normalizes a point that needs none, to the same bytes
        astride = [2.5e-323, 1.0 + 128 * 2.0 ** -52]
        assert np.float64(-0.0).tobytes() in np.array(astride).tobytes()
        if field == REAL:
            xs.append((lp_space(REAL, 2, 3.0), [np.array(astride)]))
        else:
            xs.append((lp_space(COMPLEX, 1, 3.0), [np.array([complex(*astride)])]))
            xs.append((lp_space(COMPLEX, 2, 3.0), [np.array([1j, complex(*astride)])]))
        for seed in (0, 17, 2 ** 63, 2 ** 64 + 5):
            for s, vecs in xs:
                got = [seeded_phase(s, seed)(x) for x in vecs]
                want = [reference_phase(s, seed)(x) for x in vecs]
                assert [type(z) for z in got] == [type(z) for z in want]
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_seeded_phase_real_gives_signs_and_ignores_negative_zero():
    s = lp_space(REAL, 2, 2.0)
    sigma = seeded_phase(s, 7)
    assert all(sigma(x) in (-1.0, 1.0)
               for x in default_samples(s, 8, 3))
    assert sigma(np.array([0.0, 1.0])) == sigma(np.array([-0.0, 1.0]))


@pytest.mark.parametrize("x, message", [
    ([np.nan, 1.0], "coordinates must be finite"),
    ([1.0, 0.0, 0.0], r"expected coordinates of shape \(2,\), got shape \(3,\)"),
    ([[1.0, 0.0]], r"expected coordinates of shape \(2,\), got shape \(1, 2\)"),
    ([1j, 0.0], "complex coordinates in a real space"),
], ids=["nan", "wrong-shape", "two-d", "complex-on-real"])
def test_public_seeded_phase_validates_each_vector(x, message):
    with pytest.raises(ContractViolation, match=message):
        seeded_phase(lp_space(REAL, 2, 3.0), 5)(x)


def test_the_phase_kernel_gives_the_public_phase_maps_bit_for_bit():
    # the package composes the kernel on the rows its oracle has validated;
    # the public seeded_phase validates each vector again before hashing it
    rng = np.random.default_rng(23)
    for field in (REAL, COMPLEX):
        for n in (1, 2, 3, 5, 16):
            s = lp_space(field, n, 3.0)
            base = make_isometry(s, random_isometry_spec(s, rng))
            x = rng.standard_normal((40, n))
            if field == COMPLEX:
                x = x + 1j * rng.standard_normal((40, n))
                x.imag[rng.random((40, n)) < 0.2] = -0.0
            x[rng.random((40, n)) < 0.2] = 0.0
            x.real[rng.random((40, n)) < 0.2] = -0.0
            for seed in (0, 17, 2 ** 64 + 5):
                kernel, public = sipwigner.fixtures._seeded_phase(s, seed), seeded_phase(s, seed)
                got = [kernel(v) for v in x]
                want = [public(v) for v in x]
                assert [type(z) for z in got] == [type(z) for z in want]
                assert np.array(got).tobytes() == np.array(want).tobytes()
                composed = make_phase_equivalent(base, kernel)
                reference = make_phase_equivalent(base, public)
                for stack in (x, x[:1], x[0], x.reshape(4, 10, n)):
                    assert composed(stack).tobytes() == reference(stack).tobytes()


def count_validations(monkeypatch) -> list:
    """Wrap ``spaces._as_array`` in every sipwigner module that binds it; the
    returned list grows by one entry per call."""
    calls = []
    validate = sipwigner.spaces._as_array

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sipwigner" and getattr(module, "_as_array", None) is validate:
            monkeypatch.setattr(module, "_as_array", counted)
    return calls


def test_package_phase_twisted_maps_validate_each_stack_once_per_end(monkeypatch):
    from sipwigner import acceptance, cli

    # the maps criteria 4, 5 and 6a build, as they build them
    built, compose = [], acceptance.make_phase_equivalent
    monkeypatch.setattr(acceptance, "make_phase_equivalent",
                        lambda base, sigma: built.append(compose(base, sigma)) or built[-1])
    for criterion, count in ((acceptance.criterion_4_checker_verdicts, "CHECKER_SPECS"),
                             (acceptance.criterion_5_roundtrip, "ROUNDTRIP_TRIPLES"),
                             (acceptance.criterion_6a_preservation_implies_linearity,
                              "IMPLICATION_SEEDS")):
        monkeypatch.setattr(acceptance, count, 8)
        before = len(built)
        criterion(acceptance.GateConfig())
        assert len(built) > before, criterion.__name__
    # ... and the CLI's phase_seed map
    built.append(cli._resolve_map(cli.RunConfig.from_dict({
        "source": {"field": "complex", "dim": 3, "norm": {"lp": 3.0}},
        "map": {"isometry": {"perm": [3, 1, 2], "diag": [1.0, 1.0, 1.0]}, "phase_seed": 11}})))

    calls = count_validations(monkeypatch)
    rng = np.random.default_rng(3)
    for f in built:
        # criterion 4 also checks the doubled map: one composition deeper
        for m in (f, scale_oracle(f, 2.0)):
            x = np.array(unit_sphere_samples(f.source, 7, rng))
            calls.clear()
            assert m(x).shape == x.shape
            assert len(calls) == 2  # the 7 points, then their 7 images
    # the public phase validates each point once more: k + 2
    s = lp_space(COMPLEX, 3, 3.0)
    x = np.array(unit_sphere_samples(s, 7, rng))
    calls.clear()
    make_phase_equivalent(identity_oracle(s), seeded_phase(s, 11))(x)
    assert len(calls) == 9


def test_swap_counterexample_exact_witness():
    space, swap, wit = swap_counterexample()
    assert wit.sip_before == Fraction(3, 4)
    assert wit.sip_after == Fraction(1, 4)
    # the float path lands on the same binary-exact values
    assert sip(space, wit.x, wit.y) == 0.75
    assert sip(space, swap(wit.x), swap(wit.y)) == 0.25
    # yet the swap is an isometry of the max norm
    for v in ([1.0, 0.5], [1.0, 1.0], [-2.0, 3.0]):
        assert norm(space, swap(v)) == norm(space, v)


def test_structured_samples_lead_and_unit_option():
    s = lp_space(REAL, 2, 3.0)
    xs = structured_samples(s)
    assert np.array_equal(xs[0], [1.0, 0.0])
    assert any(np.array_equal(v, [1.0, 1.0]) for v in xs)
    assert all(norm(s, v) == pytest.approx(1.0, rel=1e-12)
               for v in structured_samples(s, unit=True))


def sequential_structured_samples(space, unit=False):
    """The reference loop: one basis vector, sum, difference and norm at a time."""
    vecs = [basis_vec(space, i) for i in range(space.dim)]
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            vecs.append(basis_vec(space, i) + basis_vec(space, j))
            vecs.append(basis_vec(space, i) - basis_vec(space, j))
    if unit:
        vecs = [v / norm(space, v) for v in vecs]
    return vecs


def test_structured_samples_match_the_sequential_loop_bit_for_bit():
    for field in (REAL, COMPLEX):
        for p in (1.5, 2.0, 3.0, 7.0):
            for n in (1, 2, 3, 5, 16):
                s = lp_space(field, n, p)
                for unit in (False, True):
                    got = structured_samples(s, unit=unit)
                    want = sequential_structured_samples(s, unit=unit)
                    assert isinstance(got, list)
                    assert [(v.dtype, v.shape) for v in got] == [(v.dtype, v.shape) for v in want]
                    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
                    # default_samples: a prefix of these rows, then sphere draws at the seed
                    for count in {2} | {c for c in (n - 1, n + 1, n * n - 1, n * n + 3) if c >= 2}:
                        ref = want[:count] + sequential_sphere_draws(
                            s, count - len(want[:count]), np.random.default_rng(7))
                        first = default_samples(s, count, 7, unit=unit)
                        assert [v.tobytes() for v in first] == [v.tobytes() for v in ref]
                        first[0][0] = 5.0  # each call gets its own copy of the cached rows
                        again = default_samples(s, count, 7, unit=unit)
                        assert [v.tobytes() for v in again] == [v.tobytes() for v in ref]


def test_default_samples_builds_only_the_rows_it_returns():
    # 16 samples of complex l_3^200 take 16 structured rows, not all 40,000
    sipwigner.fixtures._cached_rows.cache_clear()
    tracemalloc.start()
    try:
        xs = default_samples(lp_space(COMPLEX, 200, 3.0), 16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(xs) == 16 and peak < 4_000_000


def test_default_samples_contract():
    s = lp_space(COMPLEX, 3, 2.0)
    xs = default_samples(s, 20, 9)
    assert len(xs) == 20
    assert len({tuple(np.round(v, 12)) for v in map(tuple, xs)}) == 20
    with pytest.raises(ContractViolation):
        default_samples(s, 1, 9)


def test_unit_sphere_samples_are_unit():
    s = lp_space(COMPLEX, 3, 1.5)
    for v in unit_sphere_samples(s, 10, np.random.default_rng(2)):
        assert norm(s, v) == pytest.approx(1.0, rel=1e-12)


def sequential_sphere_draws(space, count, rng):
    """The reference draw loop: one vector, and one norm call, at a time."""
    out = []
    while len(out) < count:
        v = rng.standard_normal(space.dim)
        if space.field == COMPLEX:
            v = v + 1j * rng.standard_normal(space.dim)
        n = norm(space, v)
        if n > 1e-6:
            out.append(v / n)
    return out


class ZeroedStart:
    """A generator whose first ``zeros`` normals are 0, to force rejections."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros = np.random.default_rng(seed), zeros

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        k = min(self.zeros, g.size)
        g.reshape(-1)[:k] = 0.0
        self.zeros -= k
        return g


def test_unit_sphere_samples_match_the_sequential_draws_bit_for_bit():
    for field in (REAL, COMPLEX):
        for p in (1.5, 2.0, 3.0, 7.0):
            for n in (1, 2, 3, 5, 16):
                s = lp_space(field, n, p)
                for seed in range(20):
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = unit_sphere_samples(s, 7, rng)
                    want = sequential_sphere_draws(s, 7, ref_rng)
                    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
                    assert rng.random() == ref_rng.random()  # same stream position
                # two rejected draws, made up by a second batch
                zeros = 2 * n * (2 if field == COMPLEX else 1)
                got = unit_sphere_samples(s, 5, ZeroedStart(3, zeros))
                want = sequential_sphere_draws(s, 5, ZeroedStart(3, zeros))
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_composed_wrappers_match_the_public_calls_bit_for_bit():
    for s in (lp_space(REAL, 3, 3.0), lp_space(COMPLEX, 3, 1.5)):
        base = make_isometry(s, random_isometry_spec(s, np.random.default_rng(3)))
        sigma = seeded_phase(s, 17)
        f = scale_oracle(make_phase_equivalent(base, sigma), -1.0)
        X = np.stack(default_samples(s, 12, 5))
        by_hand = np.stack([-1.0 * (sigma(x) * base(x)) for x in X])
        assert f(X).tobytes() == by_hand.tobytes()
        assert [f(x).tobytes() for x in X] == [row.tobytes() for row in by_hand]


def test_matrix_oracle_matches_the_matmul_bit_for_bit():
    # ndarray.dot where numpy gives it the bits of m @ x; m @ x itself on a
    # matrix with no unit stride, at dim 1 and on points of negative stride
    rng = np.random.default_rng(5)
    for field in (REAL, COMPLEX):
        for n in (1, 2, 3, 5, 16):
            s = lp_space(field, n, 2.0)
            dense = rng.standard_normal((n, n)).astype(s.dtype)
            if field == COMPLEX:
                dense += 1j * rng.standard_normal((n, n))
            for base in (random_isometry_spec(s, rng).matrix(field), random_unitary(s, rng), dense):
                wide = np.zeros((2 * n, 2 * n), s.dtype)
                wide[::2, ::2] = base
                pts = rng.standard_normal((7, 2 * n)).astype(s.dtype)
                if field == COMPLEX:
                    pts += 1j * rng.standard_normal((7, 2 * n))
                pts[:, ::3] = 0.0
                stacks = (np.ascontiguousarray(pts[:, :n]), np.asfortranarray(pts[:, :n]),
                          pts[:, ::2], pts[:, ::-2], np.eye(n, dtype=s.dtype), -np.eye(n))
                for m in (base, np.asfortranarray(base), wide[::2, ::2]):
                    for conj in ((False, True) if field == COMPLEX else (False,)):
                        f = matrix_oracle(s, m, conj)
                        for X in stacks:
                            want = np.stack([m @ (np.conj(x) if conj else x) for x in X])
                            assert f(X).tobytes() == want.tobytes()


def reference_isometry_spec(space, rng, conjugate=None):
    """The spec as first drawn: rng.choice signs and numpy-exp weights."""
    n = space.dim
    perm = tuple(int(i) + 1 for i in rng.permutation(n))
    if space.field == COMPLEX:
        diag = tuple(complex(np.exp(2j * np.pi * u)) for u in rng.random(n))
        if conjugate is None:
            conjugate = bool(rng.integers(2))
    else:
        diag = tuple(float(d) for d in rng.choice([-1.0, 1.0], size=n))
        conjugate = False
    return IsometrySpec(perm, diag, conjugate)


def test_random_isometry_spec_matches_the_choice_draws_bit_for_bit():
    for field in (REAL, COMPLEX):
        for n in (1, 2, 3, 5, 16):
            s = lp_space(field, n, 3.0)
            for conjugate in ((None, False, True) if field == COMPLEX else (None, False)):
                for seed in range(40):
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = random_isometry_spec(s, rng, conjugate)
                    want = reference_isometry_spec(s, ref_rng, conjugate)
                    assert got.perm == want.perm
                    assert got.conjugate_first is want.conjugate_first
                    assert [type(d) for d in got.diag] == [type(d) for d in want.diag]
                    assert np.array(got.diag).tobytes() == np.array(want.diag).tobytes()
                    assert rng.random() == ref_rng.random()  # same stream position


def test_random_unitary_contract():
    with pytest.raises(ContractViolation):
        random_unitary(lp_space(REAL, 2, 3.0), np.random.default_rng(1))
    s = lp_space(COMPLEX, 3, 2.0)
    u = random_unitary(s, np.random.default_rng(1))
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_random_isometry_spec_obeys_field():
    s = lp_space(REAL, 3, 1.5)
    spec = random_isometry_spec(s, np.random.default_rng(0))
    assert spec.conjugate_first is False
    assert all(d in (-1.0, 1.0) for d in spec.diag)


@pytest.mark.parametrize("build, message", [
    (lambda: IsometrySpec((1,), (1j,)).matrix(REAL), "complex weights in a real-field spec"),
    (lambda: IsometrySpec.from_dict({"perm": 1, "diag": [1.0]}), "must be JSON arrays"),
    (lambda: matrix_oracle(lp_space(REAL, 2, 3.0), np.eye(3)), r"matrix shape \(3, 3\)"),
    (lambda: matrix_oracle(lp_space(REAL, 2, 3.0), np.eye(2), conjugate_first=True),
     "conjugation needs the complex field"),
    (lambda: make_isometry(linf2_space(), IsometrySpec((2, 1), (1.0, 1.0))),
     "realized on Lp spaces"),
    (lambda: make_isometry(lp_space(REAL, 3, 3.0), IsometrySpec((2, 1), (1.0, 1.0))),
     "spec dim 2 != space dim 3"),
    (lambda: conjugation_oracle(lp_space(REAL, 2, 3.0)), "conjugation needs the complex field"),
    (lambda: IsometrySpec((1.0, 2.0), (1, 1)), "perm entry must be an integer"),
    (lambda: IsometrySpec((1,), ("a",)), "diag entries must be unimodular, got 'a'"),
    (lambda: IsometrySpec((1,), (None,)), "diag entries must be unimodular, got None"),
    (lambda: IsometrySpec((1, 2), (float("nan"), 1.0)), "diag entries must be unimodular, got nan"),
    (lambda: IsometrySpec((1, 2), (True, 1.0)), "diag entries must be unimodular, got True"),
    (lambda: IsometrySpec((1, 2), (10 ** 400, 1.0)), "diag entries must be unimodular, got 1000"),
    (lambda: IsometrySpec((1,), (Fraction(1),)), "diag entries must be unimodular, got Fraction"),
    (lambda: IsometrySpec((1,), (complex(1.7e308, 1.7e308),)),
     r"diag entries must be unimodular, got \(1.7e\+308\+1.7e\+308j\)"),
    (lambda: IsometrySpec((1, 2), (1.0, 1.0), "false"),
     "conjugate_first must be a bool, got 'false'"),
    (lambda: matrix_oracle(lp_space(REAL, 2, 3.0), [[np.nan, 0], [0, 1]]),
     "matrix entries must be finite"),
    (lambda: matrix_oracle(lp_space(COMPLEX, 2, 3.0), [[1, 0], [0, np.inf * 1j]]),
     "matrix entries must be finite"),
    (lambda: matrix_oracle(lp_space(REAL, 2, 3.0), [[1, 2], [3]]), "malformed matrix"),
    (lambda: matrix_oracle(lp_space(REAL, 2, 3.0), [[1j, 0], [0, 1]]), "malformed matrix"),
    (lambda: matrix_oracle(lp_space(REAL, 2, 3.0), 1j * np.eye(2)), "malformed matrix"),
    # the factor is checked when the map is built, not when it is called
    (lambda: scale_oracle(identity_oracle(lp_space(REAL, 2, 3.0)), "a"),
     "scale factor must be a finite number, got 'a'"),
    (lambda: scale_oracle(identity_oracle(lp_space(REAL, 2, 3.0)), None),
     "scale factor must be a finite number, got None"),
    (lambda: scale_oracle(identity_oracle(lp_space(REAL, 2, 3.0)), float("nan")),
     "scale factor must be a finite number, got nan"),
    (lambda: scale_oracle(identity_oracle(lp_space(REAL, 2, 3.0)), True),
     "scale factor must be a finite number, got True"),
    (lambda: scale_oracle(identity_oracle(lp_space(REAL, 2, 3.0)), 10 ** 400),
     "scale factor must be a finite number"),
    (lambda: scale_oracle(identity_oracle(lp_space(REAL, 2, 3.0)), np.longdouble("1e400")),
     "scale factor must be a finite number"),
    # a map argument, a phase and an oracle's fn are checked when built, too
    (lambda: scale_oracle("x", 2.0), "the map must be a MapOracle, got str"),
    (lambda: make_phase_equivalent("x", seeded_phase(lp_space(REAL, 2, 3.0), 5)),
     "the map must be a MapOracle, got str"),
    (lambda: make_phase_equivalent(identity_oracle(lp_space(REAL, 2, 3.0)), 5),
     "sigma must be callable, got 5"),
    (lambda: MapOracle(lp_space(REAL, 2, 3.0), lp_space(REAL, 2, 3.0), 5),
     "a map's fn must be callable, got 5"),
    (lambda: MapOracle("l_3^2", lp_space(REAL, 2, 3.0), np.negative),
     "a map's source and target must be Spaces"),
    # a space argument is a Space, checked once when the builder is called
    (lambda: seeded_phase("x", 5), "the space must be a Space, got str"),
    (lambda: default_samples("x", 4, 1), "the space must be a Space, got str"),
    (lambda: structured_samples("x"), "the space must be a Space, got str"),
    (lambda: unit_sphere_samples("x", 3, np.random.default_rng(0)),
     "the space must be a Space, got str"),
    (lambda: make_isometry("x", IsometrySpec((2, 1), (1.0, 1.0))),
     "the space must be a Space, got str"),
    (lambda: identity_oracle("x"), "the space must be a Space, got str"),
    (lambda: matrix_oracle("x", np.eye(2)), "the space must be a Space, got str"),
    (lambda: conjugation_oracle(None), "the space must be a Space, got NoneType"),
    (lambda: random_isometry_spec("x", np.random.default_rng(0)),
     "the space must be a Space, got str"),
    (lambda: random_unitary("x", np.random.default_rng(0)), "the space must be a Space, got str"),
    (lambda: reproduction_residual(identity_oracle(lp_space(REAL, 2, 3.0)), "rec", np.eye(2)),
     "rec must be a Reconstruction, got str"),
    # a flag is a bool, not any truthy value
    (lambda: matrix_oracle(lp_space(COMPLEX, 2, 3.0), np.eye(2), conjugate_first="no"),
     "conjugate_first must be a bool, got 'no'"),
    (lambda: default_samples(lp_space(REAL, 2, 3.0), 4, 1, unit="no"),
     "unit must be a bool, got 'no'"),
    (lambda: structured_samples(lp_space(REAL, 2, 3.0), unit="no"),
     "unit must be a bool, got 'no'"),
    # a spec is an IsometrySpec, whose perm and diag are tuples
    (lambda: make_isometry(lp_space(REAL, 2, 3.0), "x"), "spec must be an IsometrySpec, got str"),
    (lambda: IsometrySpec(3, (1.0,)), "perm and diag must be tuples, got 3 and"),
    (lambda: IsometrySpec(None, None), "perm and diag must be tuples, got None and None"),
], ids=["complex-weight-real-field", "perm-not-array", "matrix-shape", "conjugate-real-matrix",
        "isometry-on-fixture", "isometry-dim", "conjugation-real", "perm-float", "diag-string",
        "diag-none", "diag-nan", "diag-bool", "diag-past-float-range", "diag-fraction", "diag-modulus-past-float-range",
        "conjugate-string",
        "matrix-nan", "matrix-inf", "matrix-ragged", "matrix-complex-list", "matrix-complex-array",
        "scale-string", "scale-none", "scale-nan", "scale-bool", "scale-past-float-range",
        "scale-longdouble-past-float-range",
        "scale-map-string", "phase-map-string", "phase-sigma-int", "oracle-fn-int",
        "oracle-source-string", "phase-space-string", "samples-space-string",
        "structured-space-string", "sphere-space-string", "isometry-space-string",
        "identity-space-string", "matrix-space-string", "conjugation-space-none",
        "isometry-spec-space-string", "unitary-space-string", "residual-rec-string",
        "matrix-conjugate-string", "samples-unit-string", "structured-unit-string",
        "isometry-spec-string", "perm-int", "perm-none"])
def test_fixture_builders_refuse_bad_input(build, message):
    with pytest.raises(ContractViolation, match=message):
        build()


@pytest.mark.parametrize("call", [
    lambda: reconstruct(identity_oracle(lp_space(REAL, 2, 3.0)), seed=-1),
    lambda: reconstruct(identity_oracle(lp_space(REAL, 2, 3.0)), seed=2.5),
    lambda: reconstruct(identity_oracle(lp_space(REAL, 2, 3.0)), seed=True),
    lambda: check_linearity(identity_oracle(lp_space(REAL, 2, 3.0)), np.eye(2), seed=-1),
    lambda: check_linearity(identity_oracle(lp_space(REAL, 2, 3.0)), np.eye(2), seed="1"),
    lambda: default_samples(lp_space(REAL, 2, 3.0), 8, -1),
    lambda: default_samples(lp_space(REAL, 2, 3.0), 8, 2.5),
    lambda: default_samples(lp_space(REAL, 2, 3.0), 2.5, 1),
    lambda: default_samples(lp_space(REAL, 2, 3.0), True, 1),
    lambda: Space(REAL, True, Lp(3.0)),
    lambda: Space(REAL, 2.0, Lp(3.0)),
    lambda: unit_sphere_samples(lp_space(REAL, 2, 3.0), 2.5, np.random.default_rng(0)),
    lambda: unit_sphere_samples(lp_space(REAL, 2, 3.0), -1, np.random.default_rng(0)),
    lambda: seeded_phase(lp_space(REAL, 2, 3.0), "a"),
    lambda: check_wigner(identity_oracle(lp_space(REAL, 2, 3.0)), np.eye(2), tol="x"),
    lambda: reconstruct(identity_oracle(lp_space(REAL, 2, 3.0)), tol="x"),
    lambda: bj_orthogonal(lp_space(REAL, 2, 3.0), [1.0, 0.0], [0.0, 1.0], tol="x"),
    lambda: minimize_scalar(lambda t: t * t, REAL, xatol="x"),
    # a width is a number, not a bool read as 1
    lambda: minimize_scalar(lambda t: (t - 0.3) ** 2, REAL, xatol=True),
    lambda: minimize_scalar(lambda t: (t - 0.3) ** 2, REAL, initial_width=True),
    lambda: minimize_scalar(lambda t: (t - 0.3) ** 2, REAL, max_width=True),
    # a generator is a numpy Generator, not a seed
    lambda: random_isometry_spec(lp_space(REAL, 2, 3.0), 1),
    lambda: unit_sphere_samples(lp_space(REAL, 2, 3.0), 3, 5),
    lambda: random_unitary(lp_space(REAL, 2, 2.0), 5),
    # a map is a MapOracle, checked before any of its attributes is read
    lambda: check_wigner("x", np.eye(2)),
    lambda: check_phase_isometry_sets("x", np.eye(2)),
    lambda: check_linearity(None, np.eye(2)),
    lambda: reconstruct(3),
    lambda: detect_kind("m"),
    lambda: recover_pair_coeffs(1, [1.0, 0.0], [0.0, 1.0]),
    lambda: reproduction_residual("m", reconstruct(identity_oracle(lp_space(REAL, 2, 3.0))),
                                  np.eye(2)),
], ids=["reconstruct-negative-seed", "reconstruct-float-seed", "reconstruct-bool-seed",
        "linearity-negative-seed", "linearity-str-seed", "samples-negative-seed",
        "samples-float-seed", "samples-float-count", "samples-bool-count", "space-bool-dim",
        "space-float-dim", "sphere-float-count", "sphere-negative-count", "phase-str-seed",
        "wigner-str-tol", "reconstruct-str-tol", "bj-str-tol", "minimize-str-xatol",
        "minimize-bool-xatol", "minimize-bool-initial-width", "minimize-bool-max-width",
        "isometry-spec-int-rng", "sphere-int-rng", "unitary-int-rng", "wigner-str-map",
        "multiset-str-map", "linearity-none-map", "reconstruct-int-map", "kind-str-map",
        "pair-int-map", "residual-str-map"])
def test_bad_seeds_counts_and_dims_raise_contract_violations(call):
    with pytest.raises(ContractViolation):
        call()


def test_numpy_integer_seeds_and_counts_are_accepted():
    s = lp_space(REAL, 2, 3.0)
    assert np.array_equal(default_samples(s, np.int64(8), np.uint64(5)), default_samples(s, 8, 5))
    by_numpy, by_int = (reconstruct(identity_oracle(s), seed=seed) for seed in (np.int64(3), 3))
    assert np.array_equal([x for x, _ in by_numpy.phase_samples],
                          [x for x, _ in by_int.phase_samples])
    assert check_linearity(identity_oracle(s), np.eye(2), seed=np.uint32(4)).passed
    assert Space(REAL, np.int64(2), Lp(3.0)) == s
    xs = default_samples(s, 6, 1)
    by_numpy, by_int = (check_linearity(identity_oracle(s), xs, seed=2, n_draws=draws)
                        for draws in (np.int64(3), 3))
    assert by_numpy == by_int and by_int.pairs == 9
