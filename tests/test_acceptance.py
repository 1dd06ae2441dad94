"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each criterion is a self-contained harness in ``sipwigner.acceptance``; the
tests here just run them at the default seed and assert the verdict, so
``pytest -v`` prints exactly one pass/fail line per criterion.  Tolerances
and budgets are pinned in ``sipwigner.acceptance`` (fixture witness exact and < 1ms;
closed form vs difference quotient <= 1e-7 relative with halving ratios in
[3.5, 4.5]; orthogonality routes agree on 500 decisive triples at tol 1e-7;
checker verdicts on 200 generated families; reconstruction round trip <=
1e-8 on 100 triples; exact preservation <= 1e-10 for 200 linear isometries).

One criterion is expected to fail and is left red on purpose:
``6b_minus_identity`` demands that x -> -x FAIL exact s.i.p. preservation,
which no implementation satisfying the s.i.p. axioms can deliver: additivity
plus conjugate homogeneity force [-x, -y] = (-1)*conj(-1)*[x, y] = [x, y],
so -identity preserves every semi-inner product exactly (it is a linear
isometry, and criterion 7 independently requires linear isometries to pass).
The sign intuition behind the criterion double-counts one flip.  See the
criterion's detail string for the measured (zero) violation.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from sipwigner import COMPLEX, REAL, SolverError, acceptance
from sipwigner.acceptance import (
    CRITERIA,
    DEFAULT_SEED,
    FD_X_SCALE,
    GateConfig,
    _fd_draws,
    criterion_2_closed_form_vs_oracle,
)
from sipwigner.wigner import Report

CFG = GateConfig(seed=DEFAULT_SEED)

_IDS = [fn.__name__.removeprefix("criterion_") for fn in CRITERIA]


@pytest.mark.parametrize("criterion", CRITERIA, ids=_IDS)
def test_criterion(criterion):
    result = criterion(CFG)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{result.name}: {verdict} ({result.elapsed_s:.2f}s) {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def sequential_fd_draw(rng, n, scale, field):
    """The reference draw: one vector, and two generator calls, at a time."""
    mag = rng.uniform(0.3, 1.3, n)
    if field == COMPLEX:
        phase = np.exp(2j * np.pi * rng.random(n))
    else:
        phase = rng.choice([-1.0, 1.0], n)
    return scale * mag * phase


def test_fd_draws_match_the_sequential_draws_bit_for_bit():
    # odd n leaves a 32-bit half of a sign word to the next real draw
    for seed in (DEFAULT_SEED, 401, 9):
        for field in (REAL, COMPLEX):
            for p in (1.5, 2.0, 3.0, 7.0):
                for n in (1, 2, 3, 4, 5):
                    key = [seed, int(p * 2), n, 0 if field == REAL else 1]
                    rng, ref_rng = np.random.default_rng(key), np.random.default_rng(key)
                    x, y = _fd_draws(rng, 64, n, FD_X_SCALE, field)
                    want = [(sequential_fd_draw(ref_rng, n, FD_X_SCALE, field),
                             sequential_fd_draw(ref_rng, n, 1.0, field)) for _ in range(64)]
                    assert x.tobytes() == np.array([wx for wx, _ in want]).tobytes()
                    assert y.tobytes() == np.array([wy for _, wy in want]).tobytes()
                    assert x.shape == y.shape == (64, n)
                    assert rng.random() == ref_rng.random()  # same stream position


def test_criterion_2_checks_the_pinned_draws():
    detail = criterion_2_closed_form_vs_oracle(CFG).detail
    assert detail.rsplit(", ", 1)[0] == (
        "max rel err 5.668e-08 (tol 1e-07), halving ratios in [3.937, 4.040]"
    )


def test_gate_config_holds_only_the_seed_and_the_budgets():
    names = [f.name for f in dataclasses.fields(GateConfig)]
    assert names == ["seed", "fixture_budget_s", "fd_budget_s", "roundtrip_budget_s"]
    assert GateConfig() == GateConfig(DEFAULT_SEED, 1e-3, 5.0, 30.0)


# the gate's pinned numbers: changing one is an interface change
PINNED = {
    "FD_PAIRS": 1000, "FD_H": 1e-5, "FD_REL_TOL": 1e-7, "FD_RATIO_LO": 3.5,
    "FD_RATIO_HI": 4.5, "FD_X_SCALE": 3.0,
    "ORTH_TRIPLES": 500, "ORTH_TOL": 1e-7,
    "CHECKER_SPECS": 200, "CHECKER_FAIL_FLOOR": 1.0,
    "ROUNDTRIP_TRIPLES": 100, "ROUNDTRIP_TOL": 1e-8, "ROUNDTRIP_HELDOUT": 100,
    "IMPLICATION_SEEDS": 200, "EXACT_TOL": 1e-10,
}


def test_gate_constants_hold_their_pinned_values():
    assert {name: getattr(acceptance, name) for name in PINNED} == PINNED


def _report(verdict):
    return lambda *args, **kwargs: Report("patched", verdict, 0.0, None)


def _solver_error(*args, **kwargs):
    raise SolverError("patched")


def _bad_reconstruction(*args, **kwargs):
    return SimpleNamespace(kind="neither", residual=1.0, phase_samples=[(None, 2.0)])


OFFENDERS = {
    "4-wigner": (acceptance.criterion_4_checker_verdicts, {"check_wigner": _report("fail")},
                 "offenders: [(0, 'wigner pass'), (0, 'wigner 2U fail floor'), "
                 "(1, 'wigner pass'), (1, 'wigner 2U fail floor')]"),
    "4-multiset": (acceptance.criterion_4_checker_verdicts,
                   {"check_phase_isometry_sets": _report("fail")},
                   "offenders: [(1, 'multiset pass'), (1, 'multiset 2U fail floor'), "
                   "(3, 'multiset pass'), (3, 'multiset 2U fail floor')]"),
    "5-raises": (acceptance.criterion_5_roundtrip, {"reconstruct": _solver_error},
                 "kind 0/100, offenders [(0, 'SolverError'), (1, 'SolverError'), "
                 "(2, 'SolverError'), (3, 'SolverError')]"),
    "5-wrong": (acceptance.criterion_5_roundtrip,
                {"reconstruct": _bad_reconstruction, "reproduction_residual": lambda *a: 1.0},
                "kind 0/100, offenders [(0, 'kind neither != linear'), (0, 'residual 1.00e+00'), "
                "(0, 'phase drift'), (0, 'held-out residual 1.00e+00')]"),
    "6a": (acceptance.criterion_6a_preservation_implies_linearity,
           {"check_exact_preservation": _report("pass"), "check_linearity": _report("fail")},
           "200/200 maps passed exact preservation, 200 of those failed linearity [0, 1, 2, 3]"),
    "7": (acceptance.criterion_7_linear_isometries_pass_exact,
          {"check_exact_preservation": _report("fail")},
          "200 linear isometries, worst violation 0.000e+00"),
}


@pytest.mark.parametrize("criterion, patches, detail", OFFENDERS.values(), ids=OFFENDERS.keys())
def test_a_criterion_fails_and_names_its_offenders(monkeypatch, criterion, patches, detail):
    for name, fake in patches.items():
        monkeypatch.setattr(acceptance, name, fake)
    result = criterion(CFG)
    assert not result.passed
    assert detail in result.detail
