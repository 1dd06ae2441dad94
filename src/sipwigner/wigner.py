"""Symmetry checkers for norm-preserving maps, up to phase.

A map f between spaces of the same scalar field is probed on a finite
sample set through four checks:

* ``check_wigner``            |[f(x), f(y)]| = |[x, y]|      (phase-blind)
* ``check_phase_isometry_sets``  {||f(x)+f(y)||, ||f(x)-f(y)||} =
                                 {||x+y||, ||x-y||} as multisets (real field)
* ``check_exact_preservation``   [f(x), f(y)] = [x, y]       (no moduli)
* ``check_linearity``            f(a*x + b*y) = a*f(x) + b*f(y) and
                                 ||f(x)|| = ||x||

A sample check can only ever certify "no violation found", and all the
structure theorems need surjectivity on top; every Report therefore
records the assumption explicitly.  Checks that evaluate semi-inner
products require smooth (Lp) spaces and refuse the max-norm fixture.

Each check evaluates all sample pairs at once as arrays (the pair checks
compare Gram-type matrices), and a failing Report's witness is the first
pair, in row-major order, attaining the largest violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ContractViolation, UnsupportedField, UnsupportedSpace
from .spaces import COMPLEX, Lp, REAL, Space, Vector, as_vec, norm, sip

PASS = "pass"
FAIL = "fail"

ASSUMPTIONS = ("surjectivity",)


@dataclass(frozen=True)
class MapOracle:
    """A black-box map between spaces, queried pointwise.

    ``fn`` receives a validated source vector and must return a vector of
    the target dimension; every call re-validates both ends.
    """

    source: Space
    target: Space
    fn: Callable[[Vector], Vector]
    name: str = ""

    def __call__(self, x) -> Vector:
        xv = as_vec(self.source, x)
        out = np.asarray(self.fn(xv))
        if out.shape != (self.target.dim,):
            raise ContractViolation(
                f"map output has shape {out.shape}, expected ({self.target.dim},)"
            )
        return as_vec(self.target, out)


@dataclass(frozen=True)
class Witness:
    """The sample pair attaining the worst violation, with both sides recorded."""

    x: Vector
    y: Vector
    lhs: Any
    rhs: Any

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class Report:
    check: str
    verdict: str
    max_violation: float
    witness: Witness | None
    seed: int | None = None
    assumptions: tuple[str, ...] = ASSUMPTIONS

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "max_violation": self.max_violation,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "seed": self.seed,
            "assumptions": list(self.assumptions),
        }


def _prepared(m: MapOracle, samples: Sequence, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The samples and their images, stacked as rows, after the shared
    argument checks."""
    if not (tol > 0):
        raise ContractViolation("tol must be positive")
    if m.source.field != m.target.field:
        raise ContractViolation("source and target must share the scalar field")
    if len(samples) == 0:
        raise ContractViolation("need at least one sample")
    xs = np.stack([as_vec(m.source, s) for s in samples])
    return xs, np.stack([m(x) for x in xs])


def _worst(violation: np.ndarray, bound: np.ndarray) -> tuple[bool, float, tuple]:
    """Verdict, maximum violation, and the first index (row-major) attaining
    it.  A NaN violation never passes."""
    k = np.unravel_index(np.argmax(violation), violation.shape)
    return not np.all(violation <= bound), float(violation[k]), k


def _gram_check(check, m, samples, tol, seed, modulus) -> Report:
    """Compare the Gram-type matrices G_f[i, j] = [f(x_i), f(x_j)] and
    G[i, j] = [x_i, x_j] entrywise, in modulus or as they are."""
    if not isinstance(m.source.norm, Lp) or not isinstance(m.target.norm, Lp):
        raise UnsupportedSpace("semi-inner-product checks need smooth (Lp) spaces on both ends")
    xs, fxs = _prepared(m, samples, tol)
    lhs = sip(m.target, fxs[:, None], fxs[None])
    rhs = sip(m.source, xs[:, None], xs[None])
    if modulus:
        lhs, rhs = np.abs(lhs), np.abs(rhs)
    nx = norm(m.source, xs)
    failed, worst, (i, j) = _worst(np.abs(lhs - rhs), tol * (1.0 + nx[:, None] * nx[None]))
    witness = Witness(xs[i], xs[j], lhs[i, j].item(), rhs[i, j].item()) if failed else None
    return Report(check, FAIL if failed else PASS, worst, witness, seed)


def check_wigner(m: MapOracle, samples: Sequence, tol: float = 1e-8,
                 seed: int | None = None) -> Report:
    """Pass iff |[f(x), f(y)]| matches |[x, y]| on all ordered sample pairs."""
    return _gram_check("wigner", m, samples, tol, seed, modulus=True)


def check_phase_isometry_sets(m: MapOracle, samples: Sequence, tol: float = 1e-8,
                              seed: int | None = None) -> Report:
    """Pass iff {||f(x)+f(y)||, ||f(x)-f(y)||} = {||x+y||, ||x-y||} pairwise.

    Real field only: the multiset identity characterizes phase-isometries
    there but not over the complex numbers.  Multisets are compared sorted,
    which absorbs near-tied elements under either pairing.  The pairs are
    unordered, diagonal included.
    """
    if m.source.field != REAL or m.target.field != REAL:
        raise UnsupportedField("the multiset criterion is a real-field check")
    xs, fxs = _prepared(m, samples, tol)
    i, j = np.tril_indices(len(xs))  # row-major: (0, 0), (1, 0), (1, 1), ...

    def sorted_pair(space, v):
        plus, minus = norm(space, v[i] + v[j]), norm(space, v[i] - v[j])
        return np.minimum(plus, minus), np.maximum(plus, minus)

    lo_f, hi_f = sorted_pair(m.target, fxs)
    lo, hi = sorted_pair(m.source, xs)
    nx = norm(m.source, xs)
    violation = np.maximum(np.abs(lo_f - lo), np.abs(hi_f - hi))
    failed, worst, (k,) = _worst(violation, tol * (1.0 + nx[i] + nx[j]))
    witness = None
    if failed:
        witness = Witness(xs[i[k]], xs[j[k]], [lo_f[k].item(), hi_f[k].item()],
                          [lo[k].item(), hi[k].item()])
    return Report("phase_isometry_sets", FAIL if failed else PASS, worst, witness, seed)


def check_exact_preservation(m: MapOracle, samples: Sequence, tol: float = 1e-8,
                             seed: int | None = None) -> Report:
    """Pass iff [f(x), f(y)] equals [x, y] (no absolute values) on all pairs."""
    return _gram_check("exact_preservation", m, samples, tol, seed, modulus=False)


def check_linearity(m: MapOracle, samples: Sequence, tol: float = 1e-8,
                    seed: int = 0, n_draws: int = 50) -> Report:
    """Pass iff f respects seeded linear combinations of the samples and
    preserves their norms.

    The samples must span the source space, otherwise additivity off their
    span would go untested.
    """
    xs, fxs = _prepared(m, samples, tol)
    svals = np.linalg.svd(xs, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    if rank < m.source.dim:
        raise ContractViolation("samples must span the source space")

    rng = np.random.default_rng(seed)
    pairs, coeffs = [], []
    for _ in range(n_draws):
        pairs.append((int(rng.integers(len(xs))), int(rng.integers(len(xs)))))
        if m.source.field == COMPLEX:
            coeffs.append((complex(rng.standard_normal(), rng.standard_normal()),
                           complex(rng.standard_normal(), rng.standard_normal())))
        else:
            coeffs.append((float(rng.standard_normal()), float(rng.standard_normal())))
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    a, b = np.array(coeffs, dtype=m.source.dtype).reshape(-1, 2).T[:, :, None]
    images = np.array([m(c) for c in a * xs[i] + b * xs[j]]).reshape(-1, m.target.dim)

    # the scan runs over the sample norms first, then the seeded combinations
    nx, nfx = norm(m.source, xs), norm(m.target, fxs)
    combo_dev = norm(m.target, images - a * fxs[i] - b * fxs[j])
    failed, worst, (k,) = _worst(
        np.concatenate([np.abs(nfx - nx), combo_dev]),
        tol * np.concatenate([1.0 + nx, 1.0 + np.abs(a[:, 0]) * nx[i] + np.abs(b[:, 0]) * nx[j]]),
    )
    witness = None
    if failed and k < len(xs):
        witness = Witness(xs[k], xs[k], float(nfx[k]), float(nx[k]))
    elif failed:
        k -= len(xs)
        witness = Witness(xs[i[k]], xs[j[k]], coeffs[k], float(combo_dev[k]))
    return Report("linearity", FAIL if failed else PASS, worst, witness, seed)
