"""The acceptance gate: seven seeded end-to-end criteria.

Each criterion function returns a CriterionResult with a stable name, a
boolean outcome, a human-readable detail string, and its runtime.  The
pytest gate (tests/test_acceptance.py) prints one line per criterion and
asserts each outcome; the ``sipwigner selftest`` subcommand runs the same
functions and renders the same table.

Pinned budgets and tolerances live in GateConfig below; they are part of
the contract, so changing them is an interface change, not a tuning knob.

Known red: criterion "6b_minus_identity" asserts that f = -identity fails
exact preservation.  It cannot pass: the semi-inner-product axioms force
[-x, -y] = (-1)*conj(-1)*[x, y] = [x, y], so -identity preserves the form
exactly (it is a linear isometry, which criterion 7 requires to PASS the
same check).  The assertion is kept as stated rather than silently
inverted; see the test docstring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fixtures import (
    default_samples,
    identity_oracle,
    make_isometry,
    make_phase_equivalent,
    matrix_oracle,
    random_isometry_spec,
    random_unitary,
    scale_oracle,
    seeded_phase,
    swap_counterexample,
    unit_sphere_samples,
)
from .orthogonality import bj_orthogonal
from .reconstruct import KIND_CONJUGATE, KIND_LINEAR, reconstruct, reproduction_residual
from .spaces import COMPLEX, REAL, gateaux_sip_oracle, lp_space, norm, sip
from .wigner import (
    check_exact_preservation,
    check_linearity,
    check_phase_isometry_sets,
    check_wigner,
)

DEFAULT_SEED = 73120229


@dataclass(frozen=True)
class GateConfig:
    seed: int = DEFAULT_SEED
    # 1: fixture witness
    fixture_budget_s: float = 1e-3
    # 2: closed form vs difference quotient
    fd_pairs: int = 1000
    fd_h: float = 1e-5
    fd_rel_tol: float = 1e-7
    fd_ratio_lo: float = 3.5
    fd_ratio_hi: float = 4.5
    fd_budget_s: float = 5.0
    fd_x_scale: float = 3.0
    # 3: orthogonality routes
    orth_triples: int = 500
    orth_tol: float = 1e-7
    # 4: checker verdicts on generated families
    checker_specs: int = 200
    checker_fail_floor: float = 1.0
    # 5: reconstruction round trip
    roundtrip_triples: int = 100
    roundtrip_tol: float = 1e-8
    roundtrip_heldout: int = 100
    roundtrip_budget_s: float = 30.0
    # 6/7: preservation-implies-linearity and linear isometries
    implication_seeds: int = 200
    exact_tol: float = 1e-10


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def criterion_1_fixture_witness(cfg: GateConfig) -> CriterionResult:
    """Swap on the max-norm plane: [x,y] = 3/4 vs [Tx,Ty] = 1/4, exactly."""
    space, T, wit = swap_counterexample()
    # warm the path once, then time the two evaluations
    sip(space, wit.x, wit.y)
    started = time.perf_counter()
    before = sip(space, wit.x, wit.y)
    after = sip(space, T(wit.x), T(wit.y))
    elapsed = time.perf_counter() - started
    ok = (
        before == Fraction(3, 4)
        and after == Fraction(1, 4)
        and before == wit.sip_before
        and after == wit.sip_after
        and elapsed < cfg.fixture_budget_s
    )
    detail = f"[x,y]={before}, [Tx,Ty]={after}, eval time {elapsed * 1e6:.1f}us"
    return CriterionResult("1_fixture_witness", ok, detail, elapsed)


def _fd_draw(rng, n, scale, field):
    mag = rng.uniform(0.3, 1.3, n)
    if field == COMPLEX:
        phase = np.exp(2j * np.pi * rng.random(n))
    else:
        phase = rng.choice([-1.0, 1.0], n)
    return scale * mag * phase


def criterion_2_closed_form_vs_oracle(cfg: GateConfig) -> CriterionResult:
    """sip agrees with the difference quotient and converges at order two."""
    started = time.perf_counter()
    worst = 0.0
    ratios = []
    for field in (REAL, COMPLEX):
        for p in (1.5, 2.0, 3.0, 7.0):
            for n in (2, 3, 5):
                s = lp_space(field, n, p)
                rng = np.random.default_rng(
                    [cfg.seed, int(p * 2), n, 0 if field == REAL else 1]
                )
                draws = [(_fd_draw(rng, n, cfg.fd_x_scale, field), _fd_draw(rng, n, 1.0, field))
                         for _ in range(cfg.fd_pairs)]
                x, y = (np.array(v) for v in zip(*draws))
                closed = sip(s, x, y)
                scale = norm(s, x) * norm(s, y)
                err_h = np.max(np.abs(closed - gateaux_sip_oracle(s, x, y, cfg.fd_h)) / scale)
                err_half = np.max(np.abs(closed - gateaux_sip_oracle(s, x, y, cfg.fd_h / 2)) / scale)
                worst = max(worst, err_h)
                ratios.append(err_h / err_half)
    elapsed = time.perf_counter() - started
    ok = (
        worst <= cfg.fd_rel_tol
        and all(cfg.fd_ratio_lo <= r <= cfg.fd_ratio_hi for r in ratios)
        and elapsed < cfg.fd_budget_s
    )
    detail = (
        f"max rel err {worst:.3e} (tol {cfg.fd_rel_tol:.0e}), halving ratios in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.2f}s"
    )
    return CriterionResult("2_closed_form_vs_oracle", ok, detail, elapsed)


def _orth_space(rng):
    field = REAL if rng.integers(2) == 0 else COMPLEX
    p = float(rng.choice([1.5, 2.0, 3.0, 7.0]))
    n = int(rng.choice([2, 3, 5]))
    return lp_space(field, n, p)


def _random_vec(rng, space):
    v = rng.standard_normal(space.dim)
    if space.field == COMPLEX:
        v = v + 1j * rng.standard_normal(space.dim)
    return v


def _orthogonalize(space, z, x):
    """y with sip(y, x) = 0, exact by first-argument linearity."""
    return z - (sip(space, z, x) / norm(space, x) ** 2) * x


def criterion_3_orthogonality_routes(cfg: GateConfig) -> CriterionResult:
    """Norm-minimization and sip criteria agree; right-additivity holds."""
    started = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 3])
    disagreements = 0
    for k in range(cfg.orth_triples):
        s = _orth_space(rng)
        x = _random_vec(rng, s)
        while norm(s, x) < 0.5:
            x = _random_vec(rng, s)
        if k % 2 == 0:
            y = _orthogonalize(s, _random_vec(rng, s), x)
        else:
            # keep instances decisively non-orthogonal: the norm dip below
            # ||x|| scales like ||x|| * (relative sip)^2, so a 5e-2 floor
            # keeps the margin orders of magnitude past the verdict tol
            y = _random_vec(rng, s)
            while abs(sip(s, y, x)) < 5e-2 * norm(s, x) * norm(s, y):
                y = _random_vec(rng, s)
        by_min = bj_orthogonal(s, x, y, tol=cfg.orth_tol).orthogonal
        by_sip = abs(sip(s, y, x)) <= cfg.orth_tol * norm(s, x) * norm(s, y)
        if by_min != by_sip:
            disagreements += 1
    additivity_failures = 0
    for _ in range(cfg.orth_triples):
        s = _orth_space(rng)
        x = _random_vec(rng, s)
        while norm(s, x) < 0.5:
            x = _random_vec(rng, s)
        y = _orthogonalize(s, _random_vec(rng, s), x)
        z = _orthogonalize(s, _random_vec(rng, s), x)
        if not bj_orthogonal(s, x, y + z, tol=cfg.orth_tol).orthogonal:
            additivity_failures += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and additivity_failures == 0
    detail = (
        f"{cfg.orth_triples} triples, {disagreements} route disagreements; "
        f"{cfg.orth_triples} smooth instances, {additivity_failures} right-additivity failures"
    )
    return CriterionResult("3_orthogonality_routes", ok, detail, elapsed)


def _checker_space(rng, n):
    field = REAL if rng.integers(2) == 0 else COMPLEX
    p = float(rng.choice([1.5, 2.0, 3.0]))
    return lp_space(field, n, p)


def criterion_4_checker_verdicts(cfg: GateConfig) -> CriterionResult:
    """Phase-equivalent isometries pass; the doubled map fails loudly."""
    started = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 4])
    bad = []
    for k in range(cfg.checker_specs):
        n = int(rng.choice([1, 2, 3, 5]))
        s = _checker_space(rng, n)
        spec = random_isometry_spec(s, rng)
        base = make_isometry(s, spec)
        f = make_phase_equivalent(base, seeded_phase(s, int(rng.integers(2 ** 63))))
        sample_seed = int(rng.integers(2 ** 63))
        samples = default_samples(s, max(8, 2 * n), sample_seed, unit=True)
        if not check_wigner(f, samples, seed=sample_seed).passed:
            bad.append((k, "wigner pass"))
        doubled = check_wigner(scale_oracle(f, 2.0), samples, seed=sample_seed)
        if doubled.passed or doubled.max_violation < cfg.checker_fail_floor:
            bad.append((k, "wigner 2U fail floor"))
        if s.field == REAL:
            if not check_phase_isometry_sets(f, samples, seed=sample_seed).passed:
                bad.append((k, "multiset pass"))
            doubled = check_phase_isometry_sets(scale_oracle(f, 2.0), samples, seed=sample_seed)
            if doubled.passed or doubled.max_violation < cfg.checker_fail_floor:
                bad.append((k, "multiset 2U fail floor"))
    elapsed = time.perf_counter() - started
    detail = f"{cfg.checker_specs} specs over n in (1,2,3,5); offenders: {bad[:4]}"
    return CriterionResult("4_checker_verdicts", not bad, detail, elapsed)


def criterion_5_roundtrip(cfg: GateConfig) -> CriterionResult:
    """reconstruct recovers kind, unimodular phase, and reproduces the map."""
    started = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 5])
    kind_hits = 0
    bad = []
    for k in range(cfg.roundtrip_triples):
        n = int(rng.choice([1, 2, 3, 5]))
        field = REAL if rng.integers(2) == 0 else COMPLEX
        p = float(rng.choice([1.5, 2.0, 3.0]))
        s = lp_space(field, n, p)
        use_dense = p == 2.0 and rng.integers(2) == 1
        conjugate = field == COMPLEX and rng.integers(2) == 1
        if use_dense:
            base = matrix_oracle(s, random_unitary(s, rng), conjugate)
        else:
            base = make_isometry(s, random_isometry_spec(s, rng, conjugate=conjugate))
        f = make_phase_equivalent(base, seeded_phase(s, int(rng.integers(2 ** 63))))
        expected = KIND_CONJUGATE if (conjugate and n > 1) else KIND_LINEAR
        try:
            rec = reconstruct(
                f,
                tol=cfg.roundtrip_tol,
                phase_tol=cfg.roundtrip_tol,
                seed=int(rng.integers(2 ** 63)),
            )
        except Exception as exc:  # any escape is a criterion failure
            bad.append((k, type(exc).__name__))
            continue
        if rec.kind == expected:
            kind_hits += 1
        else:
            bad.append((k, f"kind {rec.kind} != {expected}"))
        if rec.residual > cfg.roundtrip_tol:
            bad.append((k, f"residual {rec.residual:.2e}"))
        if any(abs(abs(sig) - 1.0) > cfg.roundtrip_tol for _, sig in rec.phase_samples):
            bad.append((k, "phase drift"))
        held_out = unit_sphere_samples(s, cfg.roundtrip_heldout,
                                       np.random.default_rng(int(rng.integers(2 ** 63))))
        res = reproduction_residual(f, rec, held_out)
        if res > cfg.roundtrip_tol:
            bad.append((k, f"held-out residual {res:.2e}"))
    elapsed = time.perf_counter() - started
    ok = not bad and kind_hits == cfg.roundtrip_triples and elapsed < cfg.roundtrip_budget_s
    detail = (
        f"kind {kind_hits}/{cfg.roundtrip_triples}, offenders {bad[:4]}, "
        f"{elapsed:.2f}s (budget {cfg.roundtrip_budget_s:.0f}s)"
    )
    return CriterionResult("5_reconstruction_roundtrip", ok, detail, elapsed)


def _implication_family(rng):
    """Seeded map families mixing linear/conjugate isometries and phases.

    Real spaces get a global sign flip instead of a per-vector +-1 phase: a
    hashed sign can land constant on a small sample set by chance, and a
    finite-sample exact-preservation pass must keep implying linearity.
    Complex per-vector phases are continuous, so they never collide.
    """
    n = int(rng.choice([2, 3, 5]))
    s = _checker_space(rng, n)
    conjugate = s.field == COMPLEX and rng.integers(2) == 1
    base = make_isometry(s, random_isometry_spec(s, rng, conjugate=conjugate))
    twist = rng.integers(2) == 1
    if twist and s.field == COMPLEX:
        f = make_phase_equivalent(base, seeded_phase(s, int(rng.integers(2 ** 63))))
    elif twist:
        f = scale_oracle(base, -1.0)
    else:
        f = base
    return s, f


def criterion_6a_preservation_implies_linearity(cfg: GateConfig) -> CriterionResult:
    """Maps that preserve [.,.] exactly on a spanning sample are linear."""
    started = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 6])
    exceptions = []
    passed_exact = 0
    for k in range(cfg.implication_seeds):
        s, f = _implication_family(rng)
        sample_seed = int(rng.integers(2 ** 63))
        # the structured prefix of default_samples is all-real (basis sums
        # and differences); size past it so random draws are present, else
        # conjugation is invisible to an exact check over real-sip pairs
        samples = default_samples(s, s.dim ** 2 + 8, sample_seed)
        if check_exact_preservation(f, samples, seed=sample_seed).passed:
            passed_exact += 1
            if not check_linearity(f, samples, seed=sample_seed).passed:
                exceptions.append(k)
    elapsed = time.perf_counter() - started
    detail = (
        f"{passed_exact}/{cfg.implication_seeds} maps passed exact preservation, "
        f"{len(exceptions)} of those failed linearity {exceptions[:4]}"
    )
    return CriterionResult("6a_preservation_implies_linearity",
                           passed_exact > 0 and not exceptions, detail, elapsed)


def criterion_6b_minus_identity(cfg: GateConfig) -> CriterionResult:
    """As stated: -identity must FAIL exact preservation with a witness.

    This cannot hold (see the module docstring): the homogeneity axioms
    make -identity preserve the form exactly, so the checker passes it and
    this criterion stays red on any correct implementation.
    """
    started = time.perf_counter()
    s = lp_space(REAL, 3, 3.0)
    f = scale_oracle(identity_oracle(s), -1.0)
    samples = default_samples(s, 8, cfg.seed)
    report = check_exact_preservation(f, samples, seed=cfg.seed)
    elapsed = time.perf_counter() - started
    ok = (not report.passed) and report.witness is not None
    detail = (
        f"-identity verdict: {report.verdict} (max violation "
        f"{report.max_violation:.3e}); a fail verdict is unattainable since "
        f"[-x,-y] = [x,y] identically"
    )
    return CriterionResult("6b_minus_identity", ok, detail, elapsed)


def criterion_7_linear_isometries_pass_exact(cfg: GateConfig) -> CriterionResult:
    """Every generated linear isometry preserves [.,.] to 1e-10."""
    started = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 7])
    worst = 0.0
    failures = 0
    for _ in range(cfg.implication_seeds):
        n = int(rng.choice([1, 2, 3, 5]))
        s = _checker_space(rng, n)
        f = make_isometry(s, random_isometry_spec(s, rng, conjugate=False))
        sample_seed = int(rng.integers(2 ** 63))
        samples = default_samples(s, max(8, 2 * n), sample_seed, unit=True)
        report = check_exact_preservation(f, samples, tol=cfg.exact_tol, seed=sample_seed)
        worst = max(worst, report.max_violation)
        if not report.passed or report.max_violation > cfg.exact_tol:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and worst <= cfg.exact_tol
    detail = f"{cfg.implication_seeds} linear isometries, worst violation {worst:.3e}"
    return CriterionResult("7_linear_isometries_exact", ok, detail, elapsed)


CRITERIA = (
    criterion_1_fixture_witness,
    criterion_2_closed_form_vs_oracle,
    criterion_3_orthogonality_routes,
    criterion_4_checker_verdicts,
    criterion_5_roundtrip,
    criterion_6a_preservation_implies_linearity,
    criterion_6b_minus_identity,
    criterion_7_linear_isometries_pass_exact,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    cfg = GateConfig(seed=seed)
    return [fn(cfg) for fn in CRITERIA]
