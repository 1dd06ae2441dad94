"""Birkhoff-James orthogonality via derivative-free norm minimization.

x is orthogonal to y when ||x + lam*y|| >= ||x|| for every scalar lam,
i.e. when lam = 0 already minimizes lam -> ||x + lam*y||.  The objective
is convex, so a grid line search decides it from norm queries alone: each
probe evaluates the objective on a 17-point grid in one batched call, and
the grid minima of a convex function bracket all of its minimizers.  Over
the complex field each sweep searches along Re lam, along Im lam and then
along the sweep's displacement; a 2-D grid argmin is not a sound bracket
for elongated convex level sets.  In smooth spaces the decision agrees
with the semi-inner product criterion [y, x] = 0, which callers can
cross-check through ``spaces.sip``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, SolverError
from .spaces import (COMPLEX, REAL, Scalar, Space, _require_independent, _require_tol, as_vec,
                     norm_fn)

_SPAN = np.linspace(-1.0, 1.0, 17)  # the first grid, width * _SPAN, holds 0 exactly
_FRAC = np.linspace(0.0, 1.0, 17)  # a grid across a bracket: a + (b - a) * _FRAC
_EDGE = np.linspace(0.0, 1.0, 9)  # a grid across one plateau edge cell
_FLAT = 1e-6  # runs of equal minima wider than this are flat
_MAX_PROBES = 2000  # far past any expansion to max_width; guards a stuck loop
_STALL = 1e-13  # a sweep lowering the value by at most this, relatively, has stalled
_COEFF_TOL = 1e-12  # best_coeffs' coordinate tolerance on the orthonormal basis
_MAX_SWEEPS = 200  # best_coeffs' sweep cap
_MAX_COMPLEX_SWEEPS = 60  # _minimize's sweep cap over C


@dataclass(frozen=True)
class ScalarMin:
    """Result of a scalar minimization: location, value, flatness flag.

    ``flat`` is set when a whole interval of minimizers was detected (the
    computed objective is constant across it, wider than 1e-6); ``argmin``
    is then the midpoint of that interval.  Genuine plateaus (max-norm
    objectives) trigger it, and so does degenerate higher-order contact
    (cubic and flatter minima, e.g. ||x + t*y|| in l_3 when the minimum
    touches a zero coordinate), whose argmin is unresolvable from value
    queries at float precision; simple quadratic minima never do.
    ``nfev`` counts the objective points evaluated and ``probes`` the
    batched calls that evaluated them.
    """

    argmin: Scalar
    value: float
    flat: bool = False
    nfev: int = 0
    probes: int = 0


def _line_min(G, width: float, xatol: float, max_width: float) -> ScalarMin:
    """Minimize a convex function of one real variable by grid probes.

    ``G`` maps a 1-D array of points to their values.  The grid minima of a
    convex function form one run t[i..j], and every minimizer lies in
    [t[i-1], t[j+1]], which becomes the next grid (~8x narrower).  While
    the run touches a free end of the grid, one that no probe has yet shown
    to lie past every minimizer, the bracket widens outwards on that side
    instead, up to ``max_width``; a single minimum at a free end past that
    bound means the objective still descends there (SolverError).  A run of
    three or more points is a plateau: the objective is constant between
    its ends, so the next probe refines only the two cells holding its
    edges.  The search stops once the bracket exceeds the run by at most
    2*xatol, or stops shrinking (a few ulp at the scale of the points); the
    argmin is the run's midpoint and ``flat`` says the run is wider than
    1e-6.
    """
    t = width * _SPAN
    free_lo = free_hi = True
    gap = math.inf
    nfev = 0
    for probes in range(1, _MAX_PROBES + 1):
        v = G(t)
        last = len(t) - 1
        nfev += last + 1
        i = int(v.argmin())
        j = last - int(v[::-1].argmin())
        vmin = float(v[i])
        if not math.isfinite(vmin):
            raise SolverError(f"objective has no finite minimum on the bracket: {vmin!r}")
        ts = t.tolist()
        lo, hi = ts[max(i - 1, 0)], ts[min(j + 1, last)]
        free_lo, free_hi = free_lo and i == 0, free_hi and j == last
        if free_lo or free_hi:
            w = ts[last] - ts[0]
            if w <= max_width:  # also stops a NaN width
                lo = ts[0] - 2.0 * w if free_lo else lo
                hi = ts[last] + 2.0 * w if free_hi else hi
                t = lo + (hi - lo) * _FRAC
                continue
            if i == j:
                raise SolverError(
                    "bracket expansion exceeded its bound; objective looks non-coercive"
                )
            # a plateau reaching past max_width keeps the part that was probed
            free_lo = free_hi = False
        new_gap = (ts[i] - lo) + (hi - ts[j])
        if new_gap <= 2.0 * xatol or not new_gap < gap:
            break
        gap = new_gap
        if j - i >= 2:
            t = np.concatenate((lo + (ts[i] - lo) * _EDGE, ts[j] + (hi - ts[j]) * _EDGE))
        else:
            t = lo + (hi - lo) * _FRAC
    else:
        raise SolverError(f"line search did not settle in {_MAX_PROBES} probes")
    return ScalarMin(0.5 * (ts[i] + ts[j]), vmin, ts[j] - ts[i] > _FLAT, nfev, probes)


def _minimize(G, field: str, *, initial_width: float, xatol: float,
              max_width: float) -> ScalarMin:
    """``minimize_scalar`` on an objective ``G`` batched over 1-D arrays, from
    0; ``flat`` is ``_line_min``'s over the reals and never set over C."""
    if field == REAL:
        return _line_min(G, initial_width, xatol, max_width)
    if field != COMPLEX:
        raise ContractViolation(f"unknown field {field!r}")

    lam = 0j

    def search(d: complex, reach: float, tol: float) -> ScalarMin:
        """A line search from lam along d over |t*d| <= reach, to tol in lam."""
        step = abs(d)
        return _line_min(lambda t: G(lam + t * d), reach / step, tol / step, max_width / step)

    # a loop of its own, not best_coeffs' sweep over the blocks (1, 1j): its
    # coarse-to-fine tolerances fix bj_orthogonal's output bytes, while
    # best_coeffs needs a fixed 1e-12 tolerance and complex blocks searched
    # as field scalars
    width = initial_width
    value = math.inf
    nfev = probes = stalls = 0
    for _ in range(_MAX_COMPLEX_SWEEPS):
        begin = lam
        # a wide sweep only has to place the next, narrower one, so only a
        # sweep run to xatol may end the descent
        tol = max(xatol, 1e-2 * width)
        for d in (1.0, 1j):
            res = search(d, width, tol)
            lam += res.argmin * d
            nfev, probes = nfev + res.nfev, probes + res.probes
        # then along the sweep's displacement: on the curved valleys of l_p at
        # large p the coordinate steps alone shrink geometrically and stall
        d = lam - begin
        if d != 0:
            res = search(d, abs(d), tol)
            lam += res.argmin * d
            nfev, probes = nfev + res.nfev, probes + res.probes
        moved = abs(lam.real - begin.real) + abs(lam.imag - begin.imag)
        improvement = value - res.value
        value = res.value
        stalls = stalls + 1 if improvement <= _STALL * (1.0 + abs(value)) else 0
        if tol == xatol and (moved <= 2.0 * xatol or stalls >= 2):
            break
        width = max(4.0 * moved, 100.0 * xatol)
    return ScalarMin(lam, value, False, nfev, probes)


def minimize_scalar(
    g,
    field: str,
    *,
    initial_width: float = 1.0,
    xatol: float = 1e-12,
    max_width: float = 1e12,
) -> ScalarMin:
    """Minimize a convex scalar -> real objective over the given field.

    ``g`` takes one scalar of the field.  Real field: a grid line search on
    a bracket of half-width ``initial_width`` around 0, widened while the
    minimum sits at its edge.  Complex field: sweeps of such line searches
    along Re, along Im and along the sweep's displacement, each to 1% of
    the sweep's width but no finer than ``xatol``; convexity of the
    objective along every line makes the sweeps monotone.  Sweeping stops
    once a sweep run to ``xatol`` moves the point by at most 2*xatol, or
    the value stalls (improves by at most 1e-13 relative, a constant) twice
    in a row, or after 60 sweeps.  ``flat`` is reported as the real line
    search measures it (see ``ScalarMin``); over C it is never set.
    Raises SolverError when the bracket widens past ``max_width`` with the
    objective still descending (non-coercive input) or the objective has no
    finite minimum on the grid.
    """
    if not all(v > 0 and math.isfinite(v) for v in (initial_width, xatol, max_width)):
        raise ContractViolation("initial_width, xatol and max_width must be positive and finite")
    return _minimize(
        lambda lams: np.array([g(lam) for lam in lams.tolist()], dtype=float),
        field,
        initial_width=initial_width,
        xatol=xatol,
        max_width=max_width,
    )


@dataclass(frozen=True)
class OrthVerdict:
    """Outcome of a Birkhoff-James orthogonality decision.

    ``margin`` is min over lam of ||x + lam*y|| minus ||x||.  Since lam = 0
    is always a candidate the margin never exceeds 0; the verdict is
    ``orthogonal`` exactly when margin >= -tol.  ``flat_minimizer`` flags a
    whole interval of minimizers: genuine ones on the non-strictly-convex
    max-norm fixture, float-resolution ones at higher-order contact in l_p
    (see ``ScalarMin``); ``minimizer`` is then the interval midpoint.
    ``nfev`` counts the norm values computed for the decision.
    """

    orthogonal: bool
    margin: float
    minimizer: Scalar
    flat_minimizer: bool = False
    nfev: int = 0

    def to_dict(self) -> dict:
        return {
            "orthogonal": self.orthogonal,
            "margin": self.margin,
            "minimizer": self.minimizer,
            "flat_minimizer": self.flat_minimizer,
        }


def bj_orthogonal(space: Space, x, y, tol: float = 1e-7) -> OrthVerdict:
    """Decide x perp y (Birkhoff-James) by minimizing ||x + lam*y||.

    The problem is solved at unit scale: x and y are divided once by
    s = max(|x_i|, |y_i|), which leaves every minimizer in place and keeps
    the norm finite at any float scale, and the margin is multiplied back
    by s, so ``tol`` stays an absolute margin in norm units.  The margin
    only needs norm-value accuracy, so the line searches run at a loose
    coordinate tolerance (1e-6): around a smooth minimum the value error is
    quadratic in the coordinate error, ~1e-12, well inside tol.
    """
    _require_tol(tol)
    xv = as_vec(space, x)
    yv = as_vec(space, y)
    scale = float(max(np.max(np.abs(xv)), np.max(np.abs(yv))))
    if scale > 0.0:
        xv, yv = xv / scale, yv / scale
    nrm = norm_fn(space)
    nx = nrm(xv)
    if nx == 0.0:
        raise ContractViolation("orthogonality is decided at nonzero x only")
    ny = nrm(yv)
    if ny == 0.0:
        # ||x + lam*0|| is constant: trivially orthogonal, every lam minimizes.
        return OrthVerdict(True, 0.0, space.zero_scalar(), flat_minimizer=True, nfev=2)

    # any minimizer satisfies |lam| <= 2||x||/||y||, so seed the bracket there;
    # for ||y|| so small that the bound leaves the float range, searching the
    # representable lam is all that value queries can decide anyway
    reach = 2.0 * nx / ny + 1.0
    if not math.isfinite(reach) or reach > 1e300:
        reach = 1e300
    res = _minimize(
        lambda lams: nrm(xv + lams[:, None] * yv),
        space.field,
        initial_width=reach,
        max_width=64.0 * reach,
        xatol=1e-6,
    )
    value, minimizer = res.value, res.argmin
    if nx <= value:
        value, minimizer = nx, space.zero_scalar()
    margin = (value - nx) * scale
    return OrthVerdict(margin >= -tol, margin, minimizer, res.flat, res.nfev + 2)


def best_coeffs(space: Space, target, basis: Sequence) -> list[Scalar]:
    """Coefficients minimizing ||target - sum_i c_i * basis_i|| (1 or 2 vectors).

    Block coordinate descent on the Euclidean-orthonormal basis Q of the
    span (basis = Q R, coefficients mapped back through R), so an
    ill-conditioned basis cannot narrow the objective's valleys.  Every
    search is a line step from the coefficients c: it minimizes
    ||r - s*(Q@d)|| over the field's scalars s from 0, with r = t - Q@c.
    A sweep steps along each block (d = e_i, to 1e-12 on Q), then, with two
    vectors, along the sweep's displacement, as ``_minimize`` does after
    its Re/Im steps.  Jointly convex, so sweeps are monotone.  Sweeping
    stops by ``_minimize``'s rule: once a sweep moves the coefficients by
    at most 2e-12, or the value stalls (improves by at most 1e-13
    relative) twice in a row; 200 sweeps are the cap.
    Raises ContractViolation when the basis vectors are linearly dependent.
    """
    t = as_vec(space, target)
    vecs = [as_vec(space, b) for b in basis]
    if not 1 <= len(vecs) <= 2:
        raise ContractViolation("basis must hold one or two vectors")
    A = np.stack(vecs, axis=1)
    _require_independent(np.linalg.svd(A, compute_uv=False), len(vecs),
                         "basis vectors are linearly dependent")
    Q, R = np.linalg.qr(A)
    nrm = norm_fn(space)
    c = np.zeros(len(vecs), Q.dtype)

    def step(d, width: float, xatol: float, max_width: float) -> ScalarMin:
        """Move c to the minimizer of ||r - s*(Q@d)|| over scalars s, r = t - Q@c."""
        nonlocal c
        r, w = t - Q @ c, Q @ d
        res = _minimize(lambda ss: nrm(r - ss[:, None] * w), space.field,
                        initial_width=width, xatol=xatol, max_width=max_width)
        c = c + res.argmin * d
        return res

    reach = 2.0 * nrm(t) / min(nrm(q) for q in Q.T) + 1.0
    width = reach
    value = math.inf
    stalls = 0
    for _ in range(_MAX_SWEEPS):
        begin = c
        for e in np.eye(len(c)):
            res = step(e, width, _COEFF_TOL, 64.0 * reach)
        d = c - begin
        size = float(np.abs(d).sum())
        if len(c) == 2 and size > 0:
            # coercive along Q@d != 0 (the basis is independent): expansion ends
            res = step(d, 1.0, _COEFF_TOL / size, math.inf)
        moved = float(np.abs(c - begin).sum())
        improvement = value - res.value
        value = res.value
        stalls = stalls + 1 if improvement <= _STALL * (1.0 + abs(value)) else 0
        if moved <= 2.0 * _COEFF_TOL or stalls >= 2:
            break
        width = max(4.0 * moved, 100.0 * _COEFF_TOL)
    return np.linalg.solve(R, c).tolist()
