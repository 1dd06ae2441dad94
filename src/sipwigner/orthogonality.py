"""Birkhoff-James orthogonality via derivative-free norm minimization.

x is orthogonal to y when ||x + lam*y|| >= ||x|| for every scalar lam,
i.e. when lam = 0 already minimizes lam -> ||x + lam*y||.  The objective
is convex, so a golden-section search on an auto-expanded bracket decides
it from norm queries alone; over the complex field we run coordinate
descent on (Re lam, Im lam) with golden-section line searches.  In smooth
spaces the decision agrees with the semi-inner product criterion
[y, x] = 0, which callers can cross-check through ``spaces.sip``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, SolverError
from .spaces import COMPLEX, REAL, Scalar, Space, as_vec, norm, norm_fn

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    """

    argmin: Scalar
    value: float
    flat: bool = False


def _golden(g, a: float, b: float, xatol: float):
    """Golden-section search on [a, b]; returns the best point seen.

    Stops at width xatol, or as soon as the width stops shrinking: once the
    interval is a few ulp wide at the scale of its endpoints the update
    cannot make progress, and for brackets seeded far from the origin that
    can happen above any absolute xatol.
    """
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    best_x, best_v = (c, gc) if gc <= gd else (d, gd)
    width = b - a
    while width > xatol:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
            if gc < best_v:
                best_x, best_v = c, gc
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
            if gd < best_v:
                best_x, best_v = d, gd
        new_width = b - a
        if not new_width < width:
            break
        width = new_width
    mid = 0.5 * (a + b)
    gm = g(mid)
    if gm <= best_v:
        return mid, gm
    return best_x, best_v


def _expand_bracket(g, center: float, width: float, max_width: float):
    """Walk a (a, m, b) triple downhill until g(a) >= g(m) <= g(b)."""
    a, m, b = center - width, center, center + width
    ga, gm, gb = g(a), g(m), g(b)
    while not (ga >= gm <= gb):
        if not (b - a) <= max_width:  # also stops a NaN width
            raise SolverError(
                "bracket expansion exceeded its bound; objective looks non-coercive"
            )
        if ga < gm:
            step = 2.0 * (b - a)
            a, m, b = a - step, a, m
            ga, gm, gb = g(a), ga, gm
        else:
            step = 2.0 * (b - a)
            a, m, b = m, b, b + step
            ga, gm, gb = gm, gb, g(b)
    if not math.isfinite(gm):
        raise SolverError(f"objective is not finite at the bracket center: {gm!r}")
    return a, b


def _flat_interval(g, x: float, v: float, max_width: float):
    """Widest interval around x on which g is float-equal to (or below) v.

    Exact equality is the right probe here: a genuinely flat stretch of a
    piecewise-linear norm reproduces the minimum bit for bit, while near a
    smooth strict minimum the function climbs past one ulp within ~1e-8,
    far below the caller's width threshold.
    """

    def edge(direction: float) -> float:
        w = 1e-9
        inside = 0.0
        while w < max_width and g(x + direction * w) <= v:
            inside = w
            w *= 2.0
        if inside == 0.0:
            return x
        lo, hi = inside, w  # flat at lo, not flat at hi (or out of bounds)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(x + direction * mid) <= v:
                lo = mid
            else:
                hi = mid
        return x + direction * lo

    return edge(-1.0), edge(+1.0)


def _minimize_real(
    g: Callable[[float], float],
    *,
    start: float,
    initial_width: float,
    xatol: float,
    max_width: float,
    detect_flat: bool,
) -> ScalarMin:
    a, b = _expand_bracket(g, start, initial_width, max_width)
    x, v = _golden(g, a, b, xatol)
    flat = False
    if detect_flat:
        lo, hi = _flat_interval(g, x, v, max_width=max_width)
        if hi - lo > 1e-6:
            flat = True
            x = 0.5 * (lo + hi)
            v = min(v, g(x))
    return ScalarMin(float(x), float(v), flat)


def minimize_scalar(
    g,
    field: str,
    *,
    start: Scalar = 0.0,
    initial_width: float = 1.0,
    xatol: float = 1e-12,
    ftol: float = 1e-13,
    max_width: float = 1e12,
    max_sweeps: int = 60,
    detect_flat: bool = False,
) -> ScalarMin:
    """Minimize a convex scalar -> real objective over the given field.

    Real field: golden-section on an auto-expanded bracket around ``start``.
    Complex field: coordinate descent over (Re, Im), each line search a
    golden-section pass; convexity of the objective along every line makes
    the sweeps monotone.  Sweeping stops once the coordinates settle within
    ``xatol`` or the value stalls within relative ``ftol`` twice in a row.
    Raises SolverError when bracket expansion runs past ``max_width``
    (non-coercive input) or the objective is not finite at its center.
    """
    if not all(v > 0 and math.isfinite(v)
               for v in (initial_width, xatol, ftol, max_width)):
        raise ContractViolation(
            "initial_width, xatol, ftol and max_width must be positive and finite"
        )
    if field == REAL:
        return _minimize_real(
            g,
            start=float(start),
            initial_width=initial_width,
            xatol=xatol,
            max_width=max_width,
            detect_flat=detect_flat,
        )
    if field != COMPLEX:
        raise ContractViolation(f"unknown field {field!r}")

    re, im = float(np.real(start)), float(np.imag(start))
    width = initial_width
    value = g(complex(re, im))
    stalls = 0
    for _ in range(max_sweeps):
        res_re = _minimize_real(
            lambda t: g(complex(t, im)),
            start=re,
            initial_width=width,
            xatol=xatol,
            max_width=max_width,
            detect_flat=False,
        )
        moved = abs(res_re.argmin - re)
        re = res_re.argmin
        res_im = _minimize_real(
            lambda t: g(complex(re, t)),
            start=im,
            initial_width=width,
            xatol=xatol,
            max_width=max_width,
            detect_flat=False,
        )
        moved += abs(res_im.argmin - im)
        im = res_im.argmin
        improvement = value - res_im.value
        value = res_im.value
        if moved <= 2.0 * xatol:
            break
        stalls = stalls + 1 if improvement <= ftol * (1.0 + abs(value)) else 0
        if stalls >= 2:
            break
        width = max(4.0 * moved, 100.0 * xatol)
    return ScalarMin(complex(re, im), float(value), False)


@dataclass(frozen=True)
class OrthVerdict:
    """Outcome of a Birkhoff-James orthogonality decision.

    ``margin`` is min over lam of ||x + lam*y|| minus ||x||.  Since lam = 0
    is always a candidate the margin never exceeds 0; the verdict is
    ``orthogonal`` exactly when margin >= -tol.  ``flat_minimizer`` flags a
    whole interval of minimizers: genuine ones on the non-strictly-convex
    max-norm fixture, float-resolution ones at higher-order contact in l_p
    (see ``ScalarMin``); ``minimizer`` is then the interval midpoint.
    """

    orthogonal: bool
    margin: float
    minimizer: Scalar
    flat_minimizer: bool = False

    def to_dict(self) -> dict:
        return {
            "orthogonal": self.orthogonal,
            "margin": self.margin,
            "minimizer": self.minimizer,
            "flat_minimizer": self.flat_minimizer,
        }


def bj_orthogonal(space: Space, x, y, tol: float = 1e-7) -> OrthVerdict:
    """Decide x perp y (Birkhoff-James) by minimizing ||x + lam*y||.

    The margin only needs norm-value accuracy, so the line searches run at
    a loose coordinate tolerance (1e-6): around a smooth minimum the value
    error is quadratic in the coordinate error, ~1e-12, well inside tol.
    """
    if not (tol > 0):
        raise ContractViolation("tol must be positive")
    xv = as_vec(space, x)
    yv = as_vec(space, y)
    nrm = norm_fn(space)
    nx = nrm(xv)
    if nx == 0.0:
        raise ContractViolation("orthogonality is decided at nonzero x only")
    ny = nrm(yv)
    if ny == 0.0:
        # ||x + lam*0|| is constant: trivially orthogonal, every lam minimizes.
        return OrthVerdict(True, 0.0, space.zero_scalar(), flat_minimizer=True)

    # any minimizer satisfies |lam| <= 2||x||/||y||, so seed the bracket there;
    # for ||y|| so small that the bound leaves the float range, searching the
    # representable lam is all that value queries can decide anyway
    reach = 2.0 * nx / ny + 1.0
    if not math.isfinite(reach) or reach > 1e300:
        reach = 1e300
    res = minimize_scalar(
        lambda lam: nrm(xv + lam * yv),
        space.field,
        initial_width=reach,
        max_width=64.0 * reach,
        xatol=1e-6,
        detect_flat=(space.field == REAL),
    )
    value, minimizer, flat = res.value, res.argmin, res.flat
    if nx <= value:
        value, minimizer = nx, space.zero_scalar()
    margin = value - nx
    return OrthVerdict(margin >= -tol, margin, minimizer, flat)


def best_coeffs(
    space: Space,
    target,
    basis: Sequence,
    *,
    xatol: float = 1e-12,
    max_sweeps: int = 200,
) -> list[Scalar]:
    """Coefficients minimizing ||target - sum_i c_i * basis_i|| (1 or 2 vectors).

    Block coordinate descent, one ``minimize_scalar`` per block and sweep;
    jointly convex, so sweeps are monotone.  Raises ContractViolation when
    the basis vectors are linearly dependent.
    """
    t = as_vec(space, target)
    vecs = [as_vec(space, b) for b in basis]
    if not 1 <= len(vecs) <= 2:
        raise ContractViolation("basis must hold one or two vectors")
    stacked = np.stack(vecs, axis=1)
    svals = np.linalg.svd(stacked, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0] or svals[0] == 0.0:
        raise ContractViolation("basis vectors are linearly dependent")

    nrm = norm_fn(space)
    nt = nrm(t)
    reaches = [2.0 * nt / nrm(v) + 1.0 for v in vecs]

    if len(vecs) == 1:
        res = minimize_scalar(
            lambda c: nrm(t - c * vecs[0]),
            space.field,
            initial_width=reaches[0],
            max_width=64.0 * reaches[0],
            xatol=xatol,
        )
        return [res.argmin]

    coeffs = [space.zero_scalar(), space.zero_scalar()]
    widths = list(reaches)
    for _ in range(max_sweeps):
        moved = 0.0
        for i in (0, 1):
            rest = t - coeffs[1 - i] * vecs[1 - i]
            res = minimize_scalar(
                lambda c, r=rest, v=vecs[i]: nrm(r - c * v),
                space.field,
                start=coeffs[i],
                initial_width=widths[i],
                max_width=64.0 * reaches[i],
                xatol=xatol,
            )
            moved += abs(res.argmin - coeffs[i])
            coeffs[i] = res.argmin
        widths = [max(4.0 * moved, 100.0 * xatol)] * 2
        if moved <= 2.0 * xatol:
            break
    return coeffs
