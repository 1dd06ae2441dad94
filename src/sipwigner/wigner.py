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

Each check evaluates its sample pairs as arrays (the pair checks compare
Gram-type matrices; the multiset check scans the pair triangle in blocks
of ``_PAIR_BLOCK`` coordinates) and ends in ``_report``, the one verdict
tail: a failing Report's witness is the first pair, in row-major order,
attaining the largest violation.

Checks of one map on one sample set share one preparation inside a
``_one_preparation`` block: ``sipwigner check`` runs its whole list of
checks in one, and acceptance criteria 4 and 6a run the checks of each
map in one.  The block holds one memo, keyed by a part's name and the
identities of the map and the samples (``_shared``).  There the samples
are validated, the map is called on them and the norms of both are taken
once (``_prepared``), and the Gram pair (G_f, G) is built once, for all the
block's checks of that map on those samples; outside a block each check
prepares its own.  Identity decides, not equality: two equal but distinct
sample lists are each evaluated.  Each check still applies its own argument
rules first, so a request meets the error its first refusing check would
meet alone.  ``Report.map_calls`` counts the map calls its own check made:
a shared evaluation of the samples counts for the check that made it, and
a check that raises puts its calls in no report.

The argument rules each have one home.  ``_require_map`` is the rule for
a map argument: a MapOracle, tested before any attribute of it is read,
with one scalar field at both ends.  The checks, ``reconstruct`` and the
``fixtures`` composers run it before they touch the map, and a MapOracle
checks its own spaces and ``fn`` when built.  ``_require_smooth`` refuses
a map unless both of its ends are Lp spaces; the semi-inner-product checks
and ``reconstruct`` call it.  ``_prepared`` runs ``spaces._require_tol``
and ``spaces._as_rows`` and returns the samples with their images and norms;
``n_draws`` and ``seed`` go through ``spaces._require_int`` and
``check_linearity``'s spanning test is ``spaces._require_independent``.
``check_linearity`` draws its combinations as two stacks at the generator
of ``seed``: the index pairs, ``rng.integers(n, size=(2, n_draws))``, then
the coefficients' normals, ``rng.standard_normal((n_draws, width))``.

A check's ``tol`` is relative to the magnitudes it compares: a violation
passes within tol*||x_i||*||x_j|| for the Gram entries, tol*(||x_i|| +
||x_j||) for the multisets, and tol*||x|| or tol*(|a|*||x_i|| +
|b|*||x_j||) for a norm or a combination under ``check_linearity``.  A
verdict on samples times 10^k is thus the verdict at unit scale, while the
norms stay inside the float range.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ContractViolation, UnsupportedField, UnsupportedSpace
from .spaces import (COMPLEX, Lp, REAL, Space, Vector, _as_array, _as_rows, _norm,
                     _require_independent, _require_int, _require_tol, _rng, _sip)

PASS = "pass"
FAIL = "fail"

ASSUMPTIONS = ("surjectivity",)

# The multiset check stacks its pairs in blocks of about this many
# coordinates.  That is past spaces._IN_PLACE_POWER, so a full block takes
# the in-place power, and a block's 8-byte temporaries (96 KiB) stay under
# glibc's default 128 KiB mmap threshold, so they come from the heap, not
# from fresh pages.  With one (2080, 16) stack per side a real l_1.5^16
# check on 64 samples took about 520 minor page faults; in blocks it takes
# none.
_PAIR_BLOCK = 12288


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
    leading axes.  An oracle is its two spaces and ``fn``, nothing more;
    anything else raises ContractViolation when the oracle is built.
    """

    source: Space
    target: Space
    fn: Callable[[Vector], Vector]

    def __post_init__(self):
        if not (isinstance(self.source, Space) and isinstance(self.target, Space)):
            raise ContractViolation("a map's source and target must be Spaces")
        if not callable(self.fn):
            raise ContractViolation(f"a map's fn must be callable, got {self.fn!r}")

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
    ``pairs`` counts the values compared (one per sample pair, sample or
    combination examined) and ``map_calls`` the batched map calls the
    check made (a shared evaluation of the samples counts for the check
    that made it); both stay out of ``to_dict``.
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


def _require_map(m: MapOracle) -> None:
    """The rule for a map argument, run before any attribute of ``m`` is
    read: a MapOracle with one scalar field at both ends."""
    if not isinstance(m, MapOracle):
        raise ContractViolation(f"the map must be a MapOracle, got {type(m).__name__}")
    if m.source.field != m.target.field:
        raise ContractViolation("source and target must share the scalar field")


def _require_smooth(m: MapOracle) -> None:
    """Raise UnsupportedSpace unless both ends of the map are smooth (Lp)."""
    if not isinstance(m.source.norm, Lp) or not isinstance(m.target.norm, Lp):
        raise UnsupportedSpace("the map needs smooth (Lp) spaces on both ends")


# the open _one_preparation block's memo: (part, id(map), id(samples)) -> (map, samples, value)
_MEMO: ContextVar[dict] = ContextVar("_MEMO")


@contextmanager
def _one_preparation():
    """A block in which checks of one map on one sample set share their
    preparation (see ``_shared``).

    The map and the samples are matched by identity, and the memo holds
    both, so neither may change inside the block."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _shared(part: str, m: MapOracle, samples: Sequence, build: Callable) -> tuple[Any, bool]:
    """``build()``, and whether this call built it: once per ``part`` of
    ``m`` on ``samples`` inside a block, every time outside one."""
    memo = _MEMO.get({})  # outside a block, a memo of this call alone
    key = (part, id(m), id(samples))
    built = key not in memo
    if built:  # holding m and samples keeps their ids from being reused
        memo[key] = m, samples, build()
    return memo[key][2], built


def _prepared(m: MapOracle, samples: Sequence, tol: float) -> tuple:
    """The samples and their images, stacked as rows, the norms of both, and
    the map calls made for them (1, or 0 if shared), after
    ``spaces._require_tol``; the caller has run ``_require_map``.

    This is where the samples are validated (and ``m`` their images): the
    checks compute on the results with the ``spaces`` kernels ``_norm`` and
    ``_sip``, and the Gram pair reuses the norms as the ||y|| of its
    matrices."""
    _require_tol(tol)

    def build():
        xs = _as_rows(m.source, samples, inf, "need at least one sample")
        fxs = m(xs)
        return xs, fxs, _norm(m.source, xs), _norm(m.target, fxs)

    rows, built = _shared("rows", m, samples, build)
    return (*rows, int(built))


def _report(check: str, violation: np.ndarray, bound: np.ndarray, witness: Callable,
            seed: int | None, map_calls: int) -> Report:
    """Every check's verdict tail: fail unless each violation is within its
    bound (a NaN violation never passes), the maximum violation, and on a
    fail ``witness(*k)`` at the first index k, row-major, attaining it;
    ``pairs`` is the number of violations."""
    k = np.unravel_index(np.argmax(violation), violation.shape)
    failed = not np.all(violation <= bound)
    return Report(check, FAIL if failed else PASS, float(violation[k]),
                  witness(*k) if failed else None, seed, violation.size, map_calls)


def _gram_check(check, m, samples, tol, seed, modulus) -> Report:
    """Compare the Gram-type matrices G_f[i, j] = [f(x_i), f(x_j)] and
    G[i, j] = [x_i, x_j] entrywise, in modulus or as they are."""
    _require_map(m)
    _require_smooth(m)
    xs, fxs, nx, nfx, calls = _prepared(m, samples, tol)
    (lhs, rhs), _ = _shared("gram", m, samples, lambda: (
        _sip(m.target, fxs[:, None], fxs[None], nfx), _sip(m.source, xs[:, None], xs[None], nx)))
    if modulus:
        lhs, rhs = np.abs(lhs), np.abs(rhs)
    return _report(check, np.abs(lhs - rhs), tol * nx[:, None] * nx[None],
                   lambda i, j: Witness(xs[i], xs[j], lhs[i, j].item(), rhs[i, j].item()),
                   seed, calls)


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
    _require_map(m)
    if m.source.field != REAL:
        raise UnsupportedField("the multiset criterion is a real-field check")
    xs, fxs, nx, _, calls = _prepared(m, samples, tol)
    i, j = np.tril_indices(len(xs))  # row-major: (0, 0), (1, 0), (1, 1), ...

    def sorted_pair(space, v):
        lo, hi = np.empty(len(i)), np.empty(len(i))
        step = max(1, _PAIR_BLOCK // v.shape[1])
        for k in range(0, len(i), step):
            vi, vj = v[i[k:k + step]], v[j[k:k + step]]
            plus = _norm(space, vi + vj)
            vi -= vj
            minus = _norm(space, vi)
            np.minimum(plus, minus, out=lo[k:k + step])
            np.maximum(plus, minus, out=hi[k:k + step])
        return lo, hi

    lo_f, hi_f = sorted_pair(m.target, fxs)
    lo, hi = sorted_pair(m.source, xs)
    return _report("phase_isometry_sets", np.maximum(np.abs(lo_f - lo), np.abs(hi_f - hi)),
                   tol * (nx[i] + nx[j]),
                   lambda k: Witness(xs[i[k]], xs[j[k]], [lo_f[k].item(), hi_f[k].item()],
                                     [lo[k].item(), hi[k].item()]),
                   seed, calls)


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
    _require_map(m)
    xs, fxs, nx, nfx, calls = _prepared(m, samples, tol)
    _require_independent(np.linalg.svd(xs, compute_uv=False), m.source.dim,
                         "samples must span the source space")

    n, width = len(xs), 4 if m.source.field == COMPLEX else 2
    i, j = rng.integers(n, size=(2, n_draws))
    c = rng.standard_normal((n_draws, width))
    if width == 4:  # (ar, ai, br, bi) -> (a, b)
        c = c[:, 0::2] + 1j * c[:, 1::2]
    a, b = c.T[:, :, None]
    images = m(a * xs[i] + b * xs[j])

    # the scan runs over the sample norms first, then the seeded combinations
    combo_dev = _norm(m.target, images - a * fxs[i] - b * fxs[j])

    def witness(k) -> Witness:
        if k < n:
            return Witness(xs[k], xs[k], float(nfx[k]), float(nx[k]))
        k -= n
        return Witness(xs[i[k]], xs[j[k]], tuple(c[k].tolist()), float(combo_dev[k]))

    return _report("linearity", np.concatenate([np.abs(nfx - nx), combo_dev]),
                   tol * np.concatenate([nx, np.abs(a[:, 0]) * nx[i] + np.abs(b[:, 0]) * nx[j]]),
                   witness, seed, calls + 1)
