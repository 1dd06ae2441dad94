"""The acceptance gate: seven seeded end-to-end criteria.

Each criterion function returns a CriterionResult with a stable name, a
boolean outcome, a human-readable detail string, and its runtime.  The
pytest gate (tests/test_acceptance.py) prints one line per criterion and
asserts each outcome; the ``sipwigner selftest`` subcommand runs the same
functions and renders the same table.

Pinned sample counts and tolerances are the module constants below; the
wall-clock budgets are GateConfig fields, so a benchmark can lift them.
Both are part of the contract: changing one is an interface change.

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


# 2: closed form vs difference quotient
FD_PAIRS = 1000
FD_H = 1e-5
FD_REL_TOL = 1e-7
FD_RATIO_LO = 3.5
FD_RATIO_HI = 4.5
FD_X_SCALE = 3.0
# 3: orthogonality routes
ORTH_TRIPLES = 500
ORTH_TOL = 1e-7
# 4: checker verdicts on generated families
CHECKER_SPECS = 200
CHECKER_FAIL_FLOOR = 1.0
# 5: reconstruction round trip
ROUNDTRIP_TRIPLES = 100
ROUNDTRIP_TOL = 1e-8
ROUNDTRIP_HELDOUT = 100
# 6/7: preservation-implies-linearity and linear isometries
IMPLICATION_SEEDS = 200
EXACT_TOL = 1e-10


@dataclass(frozen=True)
class GateConfig:
    """The seed, and the wall-clock budgets that a benchmark may lift to inf."""

    seed: int = DEFAULT_SEED
    fixture_budget_s: float = 1e-3  # criterion 1
    fd_budget_s: float = 5.0  # criterion 2
    roundtrip_budget_s: float = 30.0  # criterion 5


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


def _fd_draws(rng, pairs, n, scale, field):
    """Criterion 2's sample pairs as two ``(pairs, n)`` stacks, x and y.

    Each coordinate is a magnitude in [0.3, 1.3) times a phase: a uniform
    angle over the complex field, a sign over the reals; x is scaled by
    ``scale``.  The stacks are bit-identical to drawing x then y, pair by
    pair, with ``rng.uniform(0.3, 1.3, n)`` and then ``rng.random(n)``
    (complex) or ``rng.choice([-1.0, 1.0], n)`` (real), and leave ``rng``
    where those draws left it.  That keeps the gate on the data it has
    always checked; a fresh stream would re-seed it.

    Complex field: one ``rng.random`` stack read, per draw, as n
    magnitudes then n angles; ``uniform`` computes ``low + (high - low) * u``,
    and ``scale * mag * phase`` stays in that order (regrouped, it moves
    results by an ulp).

    Real field: ``choice`` takes 32-bit halves of the PCG64 output words,
    low half first, and the generator keeps an unused high half for its
    next 32-bit call, so the signs interleave with the 64-bit magnitude
    words.  Per pair the raw stream holds x's n magnitude words,
    ceil(n/2) sign words, y's n magnitude words and floor(n/2) sign words;
    the pair's n sign words give x's n signs, then y's.  A magnitude word
    w gives ``u = (w >> 11) * 2**-53``; a sign is the top bit of its half,
    1 -> +1.0 and 0 -> -1.0.  This assumes a PCG64 generator whose 32-bit
    buffer is empty, as it is for a fresh ``default_rng``; 2n signs per
    pair leave it empty again.
    """
    if field == COMPLEX:
        u = rng.random((pairs, 2, 2, n))
        mag, phase = 0.3 + (1.3 - 0.3) * u[:, :, 0], np.exp(2j * np.pi * u[:, :, 1])
    else:
        h = (n + 1) // 2
        w = rng.bit_generator.random_raw((pairs, 3 * n))
        u = (np.stack([w[:, :n], w[:, n + h:2 * n + h]], axis=1) >> 11) * 2.0 ** -53
        mag = 0.3 + (1.3 - 0.3) * u
        signs = np.concatenate([w[:, n:n + h], w[:, 2 * n + h:]], axis=1)
        top = np.stack([signs >> 31 & 1, signs >> 63], axis=-1).reshape(pairs, 2, n)
        phase = np.where(top == 1, 1.0, -1.0)
    return scale * mag[:, 0] * phase[:, 0], mag[:, 1] * phase[:, 1]


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
                x, y = _fd_draws(rng, FD_PAIRS, n, FD_X_SCALE, field)
                closed = sip(s, x, y)
                scale = norm(s, x) * norm(s, y)
                err_h = np.max(np.abs(closed - gateaux_sip_oracle(s, x, y, FD_H)) / scale)
                err_half = np.max(np.abs(closed - gateaux_sip_oracle(s, x, y, FD_H / 2)) / scale)
                worst = max(worst, err_h)
                ratios.append(err_h / err_half)
    elapsed = time.perf_counter() - started
    ok = (
        worst <= FD_REL_TOL
        and all(FD_RATIO_LO <= r <= FD_RATIO_HI for r in ratios)
        and elapsed < cfg.fd_budget_s
    )
    detail = (
        f"max rel err {worst:.3e} (tol {FD_REL_TOL:.0e}), halving ratios in "
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
    for k in range(ORTH_TRIPLES):
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
        by_min = bj_orthogonal(s, x, y, tol=ORTH_TOL).orthogonal
        by_sip = abs(sip(s, y, x)) <= ORTH_TOL * norm(s, x) * norm(s, y)
        if by_min != by_sip:
            disagreements += 1
    additivity_failures = 0
    for _ in range(ORTH_TRIPLES):
        s = _orth_space(rng)
        x = _random_vec(rng, s)
        while norm(s, x) < 0.5:
            x = _random_vec(rng, s)
        y = _orthogonalize(s, _random_vec(rng, s), x)
        z = _orthogonalize(s, _random_vec(rng, s), x)
        if not bj_orthogonal(s, x, y + z, tol=ORTH_TOL).orthogonal:
            additivity_failures += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and additivity_failures == 0
    detail = (
        f"{ORTH_TRIPLES} triples, {disagreements} route disagreements; "
        f"{ORTH_TRIPLES} smooth instances, {additivity_failures} right-additivity failures"
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
    for k in range(CHECKER_SPECS):
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
        if doubled.passed or doubled.max_violation < CHECKER_FAIL_FLOOR:
            bad.append((k, "wigner 2U fail floor"))
        if s.field == REAL:
            if not check_phase_isometry_sets(f, samples, seed=sample_seed).passed:
                bad.append((k, "multiset pass"))
            doubled = check_phase_isometry_sets(scale_oracle(f, 2.0), samples, seed=sample_seed)
            if doubled.passed or doubled.max_violation < CHECKER_FAIL_FLOOR:
                bad.append((k, "multiset 2U fail floor"))
    elapsed = time.perf_counter() - started
    detail = f"{CHECKER_SPECS} specs over n in (1,2,3,5); offenders: {bad[:4]}"
    return CriterionResult("4_checker_verdicts", not bad, detail, elapsed)


def criterion_5_roundtrip(cfg: GateConfig) -> CriterionResult:
    """reconstruct recovers kind, unimodular phase, and reproduces the map."""
    started = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, 5])
    kind_hits = 0
    bad = []
    for k in range(ROUNDTRIP_TRIPLES):
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
            rec = reconstruct(f, tol=ROUNDTRIP_TOL, seed=int(rng.integers(2 ** 63)))
        except Exception as exc:  # any escape is a criterion failure
            bad.append((k, type(exc).__name__))
            continue
        if rec.kind == expected:
            kind_hits += 1
        else:
            bad.append((k, f"kind {rec.kind} != {expected}"))
        if rec.residual > ROUNDTRIP_TOL:
            bad.append((k, f"residual {rec.residual:.2e}"))
        if any(abs(abs(sig) - 1.0) > ROUNDTRIP_TOL for _, sig in rec.phase_samples):
            bad.append((k, "phase drift"))
        held_out = unit_sphere_samples(s, ROUNDTRIP_HELDOUT,
                                       np.random.default_rng(int(rng.integers(2 ** 63))))
        res = reproduction_residual(f, rec, held_out)
        if res > ROUNDTRIP_TOL:
            bad.append((k, f"held-out residual {res:.2e}"))
    elapsed = time.perf_counter() - started
    ok = not bad and kind_hits == ROUNDTRIP_TRIPLES and elapsed < cfg.roundtrip_budget_s
    detail = (
        f"kind {kind_hits}/{ROUNDTRIP_TRIPLES}, offenders {bad[:4]}, "
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
    for k in range(IMPLICATION_SEEDS):
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
        f"{passed_exact}/{IMPLICATION_SEEDS} maps passed exact preservation, "
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
    for _ in range(IMPLICATION_SEEDS):
        n = int(rng.choice([1, 2, 3, 5]))
        s = _checker_space(rng, n)
        f = make_isometry(s, random_isometry_spec(s, rng, conjugate=False))
        sample_seed = int(rng.integers(2 ** 63))
        samples = default_samples(s, max(8, 2 * n), sample_seed, unit=True)
        report = check_exact_preservation(f, samples, tol=EXACT_TOL, seed=sample_seed)
        worst = max(worst, report.max_violation)
        if not report.passed or report.max_violation > EXACT_TOL:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and worst <= EXACT_TOL
    detail = f"{IMPLICATION_SEEDS} linear isometries, worst violation {worst:.3e}"
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
