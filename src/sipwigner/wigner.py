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

The argument rules each have one home.  ``_require_map`` holds the
preconditions on a map that the checks and ``reconstruct`` share:
``spaces._require_tol`` and one scalar field at both ends.
``_require_smooth`` refuses a map unless both of its ends are Lp spaces;
the semi-inner-product checks and ``reconstruct`` call it.  ``_prepared``
runs ``_require_map`` and returns the validated samples with their images
and norms; ``n_draws`` and ``seed`` go through ``spaces._require_int``,
and ``check_linearity``'s spanning test is ``spaces._require_independent``.

A check's ``tol`` is relative to the magnitudes it compares: a violation
passes within tol*||x_i||*||x_j|| for the Gram entries, tol*(||x_i|| +
||x_j||) for the multisets, and tol*||x|| or tol*(|a|*||x_i|| +
|b|*||x_j||) for a norm or a combination under ``check_linearity``.  A
verdict on samples times 10^k is thus the verdict at unit scale, while the
norms stay inside the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ContractViolation, UnsupportedField, UnsupportedSpace
from .spaces import (COMPLEX, Lp, REAL, Space, Vector, _as_array, _norm, _require_independent,
                     _require_int, _require_tol, _rng, _sip)

PASS = "pass"
FAIL = "fail"

ASSUMPTIONS = ("surjectivity",)


@dataclass(frozen=True)
class MapOracle:
    """A black-box map between spaces, queried on stacks of points.

    ``fn`` receives one validated source vector and must return a vector of
    the target dimension.  A call takes points stacked along leading axes,
    like the ``spaces`` evaluators (a 1-D ``x`` is one point).  The call is
    where validation happens: ``spaces._as_array`` checks the stack of
    points once, ``fn`` is applied to each point, and the list of images is
    checked once as a 2-D stack, which every image must fill with exactly
    one row of the target dimension, before it is returned with the points'
    leading axes.  An oracle is its two spaces and ``fn``, nothing more.
    """

    source: Space
    target: Space
    fn: Callable[[Vector], Vector]

    def __call__(self, x) -> np.ndarray:
        xv = _as_array(self.source, x)
        images = [self.fn(v) for v in xv.reshape(-1, self.source.dim)]
        return _as_array(self.target, images, ndim=2).reshape(xv.shape[:-1] + (self.target.dim,))


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
    """A check's verdict, worst violation and witness.

    ``to_dict`` records ``ASSUMPTIONS``, which every check rests on.
    ``pairs`` counts the sample pairs (or combinations) examined and
    ``map_calls`` the batched map calls made; both stay out of ``to_dict``.
    """

    check: str
    verdict: str
    max_violation: float
    witness: Witness | None
    seed: int | None = None
    pairs: int = 0
    map_calls: int = 0

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
            "assumptions": list(ASSUMPTIONS),
        }


def _require_map(m: MapOracle, tol: float) -> None:
    """The preconditions of every check and of ``reconstruct``: a positive,
    finite ``tol`` and one scalar field at both ends of the map."""
    _require_tol(tol)
    if m.source.field != m.target.field:
        raise ContractViolation("source and target must share the scalar field")


def _require_smooth(m: MapOracle) -> None:
    """Raise UnsupportedSpace unless both ends of the map are smooth (Lp)."""
    if not isinstance(m.source.norm, Lp) or not isinstance(m.target.norm, Lp):
        raise UnsupportedSpace("the map needs smooth (Lp) spaces on both ends")


def _prepared(m: MapOracle, samples: Sequence,
              tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The samples and their images, stacked as rows, and the samples'
    norms, after the shared argument checks.

    This is where a check validates its samples (and ``m`` its images),
    once: the checks compute on the results with the ``spaces`` kernels
    ``_norm`` and ``_sip``, and ``_gram_check`` reuses the norms as the
    ||y|| of the source Gram matrix."""
    _require_map(m, tol)
    if len(samples) == 0:
        raise ContractViolation("need at least one sample")
    xs = _as_array(m.source, samples, ndim=2)
    return xs, m(xs), _norm(m.source, xs)


def _worst(violation: np.ndarray, bound: np.ndarray) -> tuple[bool, float, tuple]:
    """Verdict, maximum violation, and the first index (row-major) attaining
    it.  A NaN violation never passes."""
    k = np.unravel_index(np.argmax(violation), violation.shape)
    return not np.all(violation <= bound), float(violation[k]), k


def _gram_check(check, m, samples, tol, seed, modulus) -> Report:
    """Compare the Gram-type matrices G_f[i, j] = [f(x_i), f(x_j)] and
    G[i, j] = [x_i, x_j] entrywise, in modulus or as they are."""
    _require_smooth(m)
    xs, fxs, nx = _prepared(m, samples, tol)
    lhs = _sip(m.target, fxs[:, None], fxs[None], _norm(m.target, fxs))
    rhs = _sip(m.source, xs[:, None], xs[None], nx)
    if modulus:
        lhs, rhs = np.abs(lhs), np.abs(rhs)
    failed, worst, (i, j) = _worst(np.abs(lhs - rhs), tol * nx[:, None] * nx[None])
    witness = Witness(xs[i], xs[j], lhs[i, j].item(), rhs[i, j].item()) if failed else None
    return Report(check, FAIL if failed else PASS, worst, witness, seed,
                  pairs=len(xs) ** 2, map_calls=1)


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
    xs, fxs, nx = _prepared(m, samples, tol)
    i, j = np.tril_indices(len(xs))  # row-major: (0, 0), (1, 0), (1, 1), ...

    def sorted_pair(space, v):
        plus, minus = _norm(space, v[i] + v[j]), _norm(space, v[i] - v[j])
        return np.minimum(plus, minus), np.maximum(plus, minus)

    lo_f, hi_f = sorted_pair(m.target, fxs)
    lo, hi = sorted_pair(m.source, xs)
    violation = np.maximum(np.abs(lo_f - lo), np.abs(hi_f - hi))
    failed, worst, (k,) = _worst(violation, tol * (nx[i] + nx[j]))
    witness = None
    if failed:
        witness = Witness(xs[i[k]], xs[j[k]], [lo_f[k].item(), hi_f[k].item()],
                          [lo[k].item(), hi[k].item()])
    return Report("phase_isometry_sets", FAIL if failed else PASS, worst, witness, seed,
                  pairs=len(i), map_calls=1)


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
    _require_int(n_draws, 0, "n_draws")
    rng = _rng(seed)
    xs, fxs, nx = _prepared(m, samples, tol)
    _require_independent(np.linalg.svd(xs, compute_uv=False), m.source.dim,
                         "samples must span the source space")

    # per draw, in stream order: two indices, then the coefficients' normals
    n, width = len(xs), 4 if m.source.field == COMPLEX else 2
    draws = [v for _ in range(n_draws)
             for v in (rng.integers(n), rng.integers(n), rng.standard_normal(width))]
    i, j = np.array(draws[0::3], dtype=int), np.array(draws[1::3], dtype=int)
    c = np.array(draws[2::3]).reshape(n_draws, width)
    if width == 4:  # (ar, ai, br, bi) -> (a, b)
        c = c[:, 0::2] + 1j * c[:, 1::2]
    a, b = c.T[:, :, None]
    images = m(a * xs[i] + b * xs[j])

    # the scan runs over the sample norms first, then the seeded combinations
    nfx = _norm(m.target, fxs)
    combo_dev = _norm(m.target, images - a * fxs[i] - b * fxs[j])
    failed, worst, (k,) = _worst(
        np.concatenate([np.abs(nfx - nx), combo_dev]),
        tol * np.concatenate([nx, np.abs(a[:, 0]) * nx[i] + np.abs(b[:, 0]) * nx[j]]),
    )
    witness = None
    if failed and k < len(xs):
        witness = Witness(xs[k], xs[k], float(nfx[k]), float(nx[k]))
    elif failed:
        k -= len(xs)
        witness = Witness(xs[i[k]], xs[j[k]], tuple(c[k].tolist()), float(combo_dev[k]))
    return Report("linearity", FAIL if failed else PASS, worst, witness, seed,
                  pairs=len(xs) + n_draws, map_calls=2)
