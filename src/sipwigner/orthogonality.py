"""Birkhoff-James orthogonality via derivative-free norm minimization.

x is orthogonal to y when ||x + lam*y|| >= ||x|| for every scalar lam,
i.e. when lam = 0 already minimizes lam -> ||x + lam*y||.  The objective
is convex, so a grid line search decides it from norm queries alone: each
probe evaluates the objective on a 17-point grid in one batched call, and
the grid minima of a convex function bracket all of its minimizers.  The
searches are generators driven by ``_run``, so the independent decisions
of a stack share each call: one per probe round for every open pair.  A
search yields its grid and is sent back only what it needs of the values:
the first and last index of their minimum and the minimum itself, which
``_run`` reduces for every row of a round in one array call each; the
bracket state stays in each search's own Python scalars.  Over the complex
field each sweep searches along Re lam, along Im lam and then along the
sweep's displacement, each search yielding its real grid t with the line
(lam, d) that maps it to the points lam + t*d; a 2-D grid argmin is not a
sound bracket for elongated convex level sets.  In smooth spaces the
decision agrees with the semi-inner product criterion [y, x] = 0, which
callers can cross-check through ``spaces.sip``.  The relation is
homogeneous in both vectors, and ``bj_orthogonal`` keeps it so at every
float scale by searching at the unit scale of ``spaces._unit_rows``, the
package's one scale rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import ContractViolation, SolverError
from .spaces import (COMPLEX, REAL, Scalar, Space, _as_rows, _is_finite, _pair,
                     _require_independent, _require_tol, _unit_rows, as_vec, norm_fn)

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
    flat: bool
    nfev: int
    probes: int


def _line_min(width: float, xatol: float, max_width: float, line: tuple = ()):
    """Minimize a convex function of one real variable by grid probes.

    A generator: it yields each grid t, as ``(t, lam, d)`` when ``line`` is
    ``(lam, d)`` (the points are then the scalars lam + t*d), and is sent
    ``(i, j, vmin)``: the first and the last index of the minimum of the
    objective over the grid, and that minimum.  It returns the
    ``ScalarMin``; ``_run`` or ``_finish`` drives it.  The grid minima of a
    convex function form one run t[i..j], and every minimizer lies in
    [t[i-1], t[j+1]], which becomes the next grid (~8x narrower).  While the
    run touches a free end of the grid, one that no probe has yet shown to
    lie past every minimizer, the bracket widens outwards on that side
    instead, up to ``max_width``; a single minimum at a free end past that
    bound means the objective still descends there (SolverError).  A run of
    three or more points is a plateau: the objective is constant between its
    ends, so the next probe refines only the two cells holding its edges.
    The search stops once the bracket exceeds the run by at most 2*xatol, or
    stops shrinking (a few ulp at the scale of the points); the argmin is
    the run's midpoint and ``flat`` says the run is wider than 1e-6.
    """
    t = width * _SPAN
    free_lo = free_hi = True
    gap = math.inf
    nfev = 0
    for probes in range(1, _MAX_PROBES + 1):
        i, j, vmin = yield ((t, *line) if line else t)
        last = len(t) - 1
        nfev += last + 1
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


def _minimize(field: str, *, initial_width: float, xatol: float, max_width: float):
    """``minimize_scalar``'s search from 0 as a generator of grids, driven by
    ``_run``; ``flat`` is ``_line_min``'s over the reals and never set over C."""
    if field == REAL:
        return (yield from _line_min(initial_width, xatol, max_width))
    if field != COMPLEX:
        raise ContractViolation(f"unknown field {field!r}")

    lam = 0j

    def search(d: complex, reach: float, tol: float):
        """A line search from lam along d over |t*d| <= reach, to tol in lam."""
        step = abs(d)
        return _line_min(reach / step, tol / step, max_width / step, (lam, d))

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
            res = yield from search(d, width, tol)
            lam += res.argmin * d
            nfev, probes = nfev + res.nfev, probes + res.probes
        # then along the sweep's displacement: on the curved valleys of l_p at
        # large p the coordinate steps alone shrink geometrically and stall
        d = lam - begin
        if d != 0:
            res = yield from search(d, abs(d), tol)
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


def _run(searches: list, G) -> list[ScalarMin]:
    """Drive independent searches in lockstep, one objective call per round.

    Each search is a ``_minimize`` or ``_line_min`` generator.  ``G(rows)``
    returns the objective of the searches listed in ``rows``: for several,
    it maps a ``(len(rows), m)`` array whose row r holds the points of
    search ``rows[r]`` to their values; for one, that search's 1-D grid.
    While two or more searches run, every round stacks their grids (17
    points, or 18 on a plateau edge; a shorter grid is padded with its own
    last point), maps complex searches' grids to their points
    ``lam + t*d`` in one array expression and makes one call.  It then
    reduces every row at once, one argmin from each end and one fancy index
    for the minima, and sends each search its ``(i, j, vmin)``, with j
    clipped to the search's own grid, since the padding repeats its last
    value.  ``G`` is asked again only when a search finishes.  The last
    search left runs on its own grids through ``_finish``.  Returns each
    search's ``ScalarMin``, in order.
    """
    results: list = [None] * len(searches)
    live = list(range(len(searches)))
    grids = [next(search) for search in searches]
    evaluate = None
    while len(live) > 1:
        evaluate = evaluate or G(live)
        lines = isinstance(grids[0], tuple)
        ts = [g[0] for g in grids] if lines else grids
        sizes = [len(t) for t in ts]
        m = max(sizes)
        if min(sizes) == m:
            points = np.array(ts)
        else:
            points = np.empty((len(ts), m))
            for r, t in enumerate(ts):
                points[r, :len(t)] = t
                points[r, len(t):] = t[-1]
        if lines:
            lam, d = np.array([g[1:] for g in grids], complex).T
            points = lam[:, None] + points * d[:, None]
        values = evaluate(points)
        first = values.argmin(axis=1)
        ends = zip(first.tolist(), (m - 1 - values[:, ::-1].argmin(axis=1)).tolist(),
                   values[np.arange(len(ts)), first].tolist(), sizes)
        finished = []
        for r, (k, (i, j, vmin, size)) in enumerate(zip(live, ends)):
            try:
                grids[r] = searches[k].send((i, min(j, size - 1), vmin))
            except StopIteration as stop:
                results[k] = stop.value
                finished.append(r)
        if finished:
            live = [k for r, k in enumerate(live) if r not in finished]
            grids = [g for r, g in enumerate(grids) if r not in finished]
            evaluate = None
    if live:
        (k,), (grid,) = live, grids
        results[k] = _finish(searches[k], grid, G(live))
    return results


def _finish(search, grid, f) -> ScalarMin:
    """Drive one search from its pending ``grid`` until it returns its
    ``ScalarMin``: map each grid to its points (``lam + t*d`` for a complex
    search's ``(t, lam, d)``), evaluate ``f`` on them and send the search
    the ``(i, j, vmin)`` that ``_run`` reduces for a row."""
    try:
        while True:
            if isinstance(grid, tuple):
                t, lam, d = grid
                grid = lam + t * d
            v = f(grid)
            i = int(v.argmin())
            grid = search.send((i, len(v) - 1 - int(v[::-1].argmin()), float(v[i])))
    except StopIteration as stop:
        return stop.value


def minimize_scalar(
    g,
    field: str,
    *,
    initial_width: float = 1.0,
    xatol: float = 1e-12,
    max_width: float = 1e12,
) -> ScalarMin:
    """Minimize a convex scalar -> real objective over the given field.

    ``g`` is a callable that takes one scalar of the field and returns a
    real number; anything else raises ContractViolation.  Real field: a
    grid line search on a bracket of half-width ``initial_width`` around 0,
    widened while the minimum sits at its edge.  Complex field: sweeps of
    such line searches along Re, along Im and along the sweep's
    displacement, each to 1% of the sweep's width but no finer than
    ``xatol``; convexity of the objective along every line makes the
    sweeps monotone.  Sweeping stops once a sweep run to ``xatol`` moves
    the point by at most 2*xatol, or the value stalls (improves by at most
    1e-13 relative, a constant) twice in a row, or after 60 sweeps.
    ``flat`` is reported as the real line search measures it (see
    ``ScalarMin``); over C it is never set.
    Raises SolverError when the bracket widens past ``max_width`` with the
    objective still descending (non-coercive input) or the objective has no
    finite minimum on the grid.
    """
    if not callable(g):
        raise ContractViolation(f"the objective must be callable, got {g!r}")
    if not all(_is_finite(v) and v > 0 for v in (initial_width, xatol, max_width)):
        raise ContractViolation("initial_width, xatol and max_width must be positive and finite")

    def values(lams):
        out = [g(lam) for lam in lams.tolist()]
        for v in out:
            if not isinstance(v, Real):
                raise ContractViolation(f"the objective must return real numbers, got {v!r}")
        return np.array(out, dtype=float)

    search = _minimize(field, initial_width=initial_width, xatol=xatol, max_width=max_width)
    return _finish(search, next(search), values)


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
    flat_minimizer: bool
    nfev: int

    def __eq__(self, other):  # field by field, so stacked (array) fields compare too
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def to_dict(self) -> dict:  # every field but nfev, in field order
        return {k: v for k, v in vars(self).items() if k != "nfev"}


def bj_orthogonal(space: Space, x, y, tol: float = 1e-7) -> OrthVerdict:
    """Decide x perp y (Birkhoff-James) by minimizing ||x + lam*y||.

    ``x`` and ``y`` hold one vector along the last axis and broadcast over
    their leading axes like ``sip``: stacked input decides every pair, and
    the ``OrthVerdict`` fields are then arrays of the broadcast shape (per
    pair ``nfev`` included); one vector each gives Python scalars.  The
    searches of all pairs share each norm call.

    The relation is homogeneous in both vectors: x perp y exactly when
    a*x perp b*y for nonzero a and b.  So every pair is searched at unit
    scale: ``spaces._unit_rows`` gives X = x*2**-ex and Y = y*2**-ey.
    Every norm is then finite, and the bound |mu| <= 2||X||/||Y||, at most
    4*n**(1/p), seeds the bracket.  The minimizer mu of ||X + mu*Y|| maps
    back to lam = mu*2**(ex - ey) and the margin is (min - ||X||)*2**ex,
    each rounded once, so ``tol`` stays an absolute margin in norm units; a
    margin or a minimizer past the float range raises SolverError, so no
    field is inf or NaN.  The margin only needs norm-value accuracy, so the
    coordinate tolerance is loose: around a smooth minimum the value error
    is quadratic in the coordinate error, ~1e-12, well inside tol.
    """
    _require_tol(tol)
    xv, yv = _pair(space, x, y)
    if xv.shape != yv.shape:
        xv, yv = np.broadcast_arrays(xv, yv)
    shape = xv.shape[:-1]
    xv, yv = xv.reshape(-1, space.dim), yv.reshape(-1, space.dim)
    (X, ex), (Y, ey) = _unit_rows(xv), _unit_rows(yv)
    nrm = norm_fn(space)
    nx, ny = nrm(X).tolist(), nrm(Y).tolist()
    # a zero row has norm 0, but so has a nonzero unit row once p > 1074
    # (0.5**p underflows): the coordinates decide
    if 0.0 in nx and False in np.logical_or.reduce(X, axis=1).tolist():
        raise ContractViolation("orthogonality is decided at nonzero x only")
    # ||x + lam*0|| is constant: trivially orthogonal, every lam minimizes
    zero = space.zero_scalar()
    verdicts = [(True, 0.0, zero, True, 2)] * len(nx)
    rows = [k for k, v in enumerate(ny) if v != 0.0 or Y[k].any()]
    reaches = [2.0 * nx[k] / ny[k] + 1.0 for k in rows]
    searches = [_minimize(space.field, initial_width=reach, max_width=64.0 * reach, xatol=1e-6)
                for reach in reaches]

    def G(live):
        pick = [rows[r] for r in live]
        xs, ys = (X[pick[0]], Y[pick[0]]) if len(pick) == 1 else (X[pick, None], Y[pick, None])
        return lambda lams: nrm(xs + lams[..., None] * ys)

    for k, res in zip(rows, _run(searches, G)):
        value, mu = res.value, res.argmin
        if nx[k] <= value:
            value, mu = nx[k], zero
        e, d = int(ex[k]), int(ex[k] - ey[k])
        try:
            margin = math.ldexp(value - nx[k], e)
            minimizer = (complex(math.ldexp(mu.real, d), math.ldexp(mu.imag, d))
                         if isinstance(mu, complex) else math.ldexp(mu, d))
        except OverflowError:
            raise SolverError(f"the margin {value - nx[k]!r}*2**{e} or the minimizer "
                              f"{mu!r}*2**{d} is past the float range") from None
        verdicts[k] = (margin >= -tol, margin, minimizer, res.flat, res.nfev + 2)
    if not shape:
        return OrthVerdict(*verdicts[0])
    columns = zip(*verdicts) if verdicts else [()] * 5
    return OrthVerdict(*(np.array(column, dtype).reshape(shape) for column, dtype in
                         zip(columns, (bool, float, space.dtype, bool, int))))


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
    A = _as_rows(space, basis, 2, "basis must hold one or two vectors").T
    _require_independent(np.linalg.svd(A, compute_uv=False), A.shape[1],
                         "basis vectors are linearly dependent")
    Q, R = np.linalg.qr(A)
    nrm = norm_fn(space)
    c = np.zeros(A.shape[1], Q.dtype)

    def step(d, width: float, xatol: float, max_width: float) -> ScalarMin:
        """Move c to the minimizer of ||r - s*(Q@d)|| over scalars s, r = t - Q@c."""
        nonlocal c
        r, w = t - Q @ c, Q @ d
        search = _minimize(space.field, initial_width=width, xatol=xatol, max_width=max_width)
        res = _finish(search, next(search), lambda ss: nrm(r - ss[:, None] * w))
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
