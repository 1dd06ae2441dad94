"""Finite-dimensional normed spaces and their semi-inner products.

Two norm families are supported:

* ``Lp(p)`` with 1 < p < inf over the real or complex field.  These norms
  are Gateaux differentiable at every nonzero point, so each such point
  carries a unique norm-one support functional and the compatible
  semi-inner product is unique:

      [x, y] = ||y||^(2-p) * sum_i x_i * conj(y_i) * |y_i|^(p-2),

  with the convention that coordinates where y_i = 0 contribute nothing
  (their limit contribution is 0 for every p > 1).

* ``Linf2``, the max norm on R^2.  It is not smooth where |y_1| = |y_2|;
  there the support functional is not unique and we pin one admissible
  weighted choice, giving the piecewise semi-inner product

      [x, y] = x_1*y_1                          if |y_1| > |y_2|
               x_2*y_2                          if |y_1| < |y_2|
               (3/4)*x_1*y_1 + (1/4)*x_2*y_2    if |y_1| = |y_2|.

Both forms are evaluated as [x, y] = ||y|| * sum_i x_i * conj(g_i), where g
holds the coefficients of the norm-one support functional at y, the same
ones ``support_functional`` returns.

Everything downstream (orthogonality decisions, symmetry checkers, the
reconstruction pipeline) consumes spaces only through ``norm`` and ``sip``.
The evaluators ``norm``, ``sip``, ``gateaux_sip_oracle`` and
``support_functional`` are batch-first: the last axis of an argument holds
the coordinates of a vector, and leading axes stack vectors and broadcast
against each other as in numpy, so ``sip(s, X[:, None], Y[None])`` is the
matrix of all [x_i, y_j].  A single vector is the 0-d case, which returns a
Python float (complex over the complex field) from the scalar evaluators.
``gateaux_sip_oracle`` recovers [x, y] from norm evaluations alone via a
central finite difference of t -> ||y + t*x||; it is the independent
cross-check for the closed forms above and is *rejected* at non-smooth
points, where the one-sided derivatives disagree.

Coordinates are validated in one place, ``_as_array``, and once, at the
public boundary: the evaluators here, ``as_vec`` and ``wigner.MapOracle``
(once per stack of points, once per stack of images) all call it.  Each
public evaluator validates its arguments, calls a kernel on the validated
arrays and converts the result with ``_scalar``.  The kernels are ``_norm``
and ``_sip``, the one product of ``_support`` and ``_apply``; package code
that holds validated arrays (the checkers, ``reconstruct``, the samplers)
calls them directly and passes on the norms it already holds.
The other argument rules live here too, one function each, and raise
ContractViolation: ``_require_tol`` for a tolerance, ``_require_int`` for
an integer with a lower bound (dims, seeds, sample and draw counts, perm
entries; ``_is_int`` is its type test, which ``basis_vec`` shares),
``_require_rng`` for a generator and ``_require_independent`` for a set of
vectors.  That is the package's one independence rule: the smallest
singular value must exceed 1e-10 of the largest, for ``best_coeffs``,
``check_linearity``, ``recover_pair_coeffs`` and ``reconstruct``'s span
solves alike.  ``wigner._require_map`` holds the preconditions on a map.
``_gaussian`` is the one Gaussian draw of space vectors, which the
samplers share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Real
from sys import float_info
from typing import Union

import numpy as np

from .errors import ContractViolation, NonSmoothPoint
from .jsonio import float_from_json, int_from_json, object_from_json

REAL = "real"
COMPLEX = "complex"

Scalar = Union[float, complex]
Vector = np.ndarray


@dataclass(frozen=True)
class Lp:
    """p-norm descriptor; smoothness requires 1 < p < inf."""

    p: float

    def __post_init__(self):
        # compared, not converted: an integer past the float range is refused too
        if not (isinstance(self.p, Real) and 1.0 < self.p <= float_info.max):
            raise ContractViolation(f"Lp exponent must satisfy 1 < p < inf, got {self.p!r}")


@dataclass(frozen=True)
class Linf2:
    """Max norm on R^2 with the fixed weighted tie-break semi-inner product."""


Norm = Union[Lp, Linf2]


@dataclass(frozen=True)
class Space:
    """A normed space descriptor: scalar field, dimension, norm family."""

    field: str
    dim: int
    norm: Norm

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ContractViolation(f"unknown field {self.field!r}")
        _require_int(self.dim, 1, "dim")
        if isinstance(self.norm, Linf2):
            if self.field != REAL or self.dim != 2:
                raise ContractViolation("the Linf2 norm lives on the real plane only")
        elif not isinstance(self.norm, Lp):
            raise ContractViolation(f"unknown norm descriptor {self.norm!r}")

    @property
    def dtype(self):
        return np.complex128 if self.field == COMPLEX else np.float64

    def zero_scalar(self) -> Scalar:
        return 0j if self.field == COMPLEX else 0.0

    def to_dict(self) -> dict:
        if isinstance(self.norm, Linf2):
            norm = {"linf2_fixture": True}
        else:
            norm = {"lp": self.norm.p}
        return {"field": self.field, "dim": self.dim, "norm": norm}

    @staticmethod
    def from_dict(d: dict) -> "Space":
        d = object_from_json(d, "space", ("field", "dim", "norm"), ())
        field, dim, norm = d["field"], int_from_json(d["dim"]), d["norm"]
        if isinstance(norm, dict) and "lp" in norm:
            p = object_from_json(norm, "norm", ("lp",), ())["lp"]
            return Space(field, dim, Lp(float_from_json(p)))
        if object_from_json(norm, "norm", ("linf2_fixture",), ())["linf2_fixture"] is True:
            return Space(field, dim, Linf2())
        raise ContractViolation(f"malformed norm descriptor: {norm!r}")


def lp_space(field: str, dim: int, p: float) -> Space:
    try:
        p = float(p)
    except OverflowError:  # an integer past the float range: Lp refuses it
        pass
    return Space(field, dim, Lp(p))


def linf2_space() -> Space:
    return Space(REAL, 2, Linf2())


def _as_array(space: Space, x, ndim: int | None = None) -> np.ndarray:
    """The package's one coordinate validator: ``x`` as finite coordinates of
    ``space``, one vector along the last axis and vectors stacked along the
    leading ones.  ``ndim=1`` asks for one vector, ``ndim=2`` for one vector
    per row (an empty sequence gives zero rows).  Ragged or non-numeric
    input, a wrong shape, complex coordinates in a real space and non-finite
    ones raise ContractViolation."""
    try:
        v = np.asarray(x)
        if ndim == 2 and v.shape == (0,):
            v = v.reshape(0, space.dim)
        if v.ndim == 0 or v.shape[-1] != space.dim or ndim not in (None, v.ndim):
            want = {None: "(..., {})", 1: "({},)", 2: "(k, {})"}[ndim].format(space.dim)
            raise ContractViolation(f"expected coordinates of shape {want}, got shape {v.shape}")
        if space.field == REAL and np.iscomplexobj(v):
            if np.any(v.imag != 0):
                raise ContractViolation("complex coordinates in a real space")
            v = v.real
        v = np.asarray(v, space.dtype)
    except ContractViolation:  # itself a ValueError: keep its message
        raise
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed coordinates: {exc}") from None
    if not np.isfinite(v).all():
        raise ContractViolation("coordinates must be finite")
    return v


def as_vec(space: Space, x) -> Vector:
    """Coerce ``x`` to one validated coordinate vector of ``space``."""
    return _as_array(space, x, ndim=1)


def _require_independent(svals, count: int, message: str) -> None:
    """Raise ContractViolation(message) unless the descending singular values
    ``svals`` of a ``count``-column matrix show independent columns: all
    ``count`` of them present, the smallest above 1e-10 of the largest."""
    if len(svals) < count or svals[-1] <= 1e-10 * svals[0]:
        raise ContractViolation(message)


def _scalar(value, field: str = REAL):
    """A 0-d result as a Python float (complex over the complex field);
    stacked results stay arrays."""
    if np.ndim(value):
        return value
    return complex(value) if field == COMPLEX else float(value)


def basis_vec(space: Space, i: int) -> Vector:
    if not (_is_int(i) and 0 <= i < space.dim):
        raise ContractViolation(f"basis index {i} out of range for dim {space.dim}")
    e = np.zeros(space.dim, dtype=space.dtype)
    e[i] = 1
    return e


def _norm(space: Space, v: np.ndarray):
    """||v|| along the last axis of validated coordinates."""
    if isinstance(space.norm, Linf2):
        return np.maximum.reduce(np.abs(v), axis=-1)
    p = space.norm.p
    # np.power, not **: on a 0-d sum ** would take numpy's scalar pow, which
    # rounds differently from the array loop that stacked sums go through.
    # The ufunc reductions skip np.sum's dispatch cost in the minimizers.
    return np.power(np.add.reduce(np.abs(v) ** p, axis=-1), 1.0 / p)


def norm(space: Space, x):
    """||x|| of each vector stacked along the last axis of ``x``."""
    return _scalar(_norm(space, _as_array(space, x)))


def norm_fn(space: Space):
    """The minimizers' evaluator: ``_norm`` as a callable, without validation.

    The returned callable assumes its argument is already a coordinate
    array of the right dtype, with the coordinates along the last axis; a
    single vector gives a float and stacked vectors an array of norms.
    ``orthogonality``'s searches take every norm value through it, so it
    stays the one seam where their evaluations are counted: tests patch
    ``orthogonality.norm_fn``, and ``perfbench/tracer.py`` wraps it for
    ``spaces.norm_evals``.  Other package code calls ``_norm``.
    """
    return lambda v: _scalar(_norm(space, v))


def _smooth(space: Space, yv: np.ndarray):
    """Where the norm is Gateaux differentiable, per stacked vector: off the
    origin, and off the ties |y_1| = |y_2| of the max-norm plane."""
    smooth = np.any(yv != 0, axis=-1)
    if isinstance(space.norm, Linf2):
        smooth = smooth & (np.abs(yv[..., 0]) != np.abs(yv[..., 1]))
    return smooth


def is_smooth_point(space: Space, y) -> bool:
    """True when the norm is Gateaux differentiable at ``y``."""
    return bool(_smooth(space, as_vec(space, y)))


def _norm_at_smooth(space: Space, yv: np.ndarray):
    """||y|| of each stacked y, refusing the origin and non-smooth points."""
    ny = _norm(space, yv)
    if np.any(ny == 0.0):
        raise ContractViolation("the norm has no derivative at the origin")
    smooth = _smooth(space, yv)
    if not np.all(smooth):
        raise NonSmoothPoint(f"norm not differentiable at {yv[~smooth][0].tolist()}")
    return ny


def _support(space: Space, yv: np.ndarray, ny) -> np.ndarray:
    """Support-functional coefficients g at each stacked y (g = 0 at y = 0).

    Lp: g_i = phase(y_i) * (|y_i|/||y||)^(p-1).  The ratio stays in [0, 1],
    so no exponent overflows, and the phase is taken without dividing by
    |y_i|: complex division forms 1/|y_i| first, which overflows for a
    subnormal |y_i| and turns the coefficient into NaN.

    Linf2: sign(y_k) on the dominant coordinate k, and the pinned weights
    (3/4, 1/4) on the signs at ties |y_1| = |y_2|.
    """
    if isinstance(space.norm, Linf2):
        a1, a2 = np.abs(yv[..., 0]), np.abs(yv[..., 1])
        w1 = np.where(a1 > a2, 1.0, np.where(a1 < a2, 0.0, 0.75))
        return np.stack([w1, 1.0 - w1], axis=-1) * np.sign(yv)
    phase = np.sign(yv) if space.field == REAL else np.exp(1j * np.angle(yv))
    safe = np.where(ny > 0, ny, 1.0)[..., None]
    return phase * (np.abs(yv) / safe) ** (space.norm.p - 1.0)


def _apply(g: np.ndarray, xv: np.ndarray):
    """sum_i x_i * conj(g_i) along the last axis, broadcasting leading axes
    without forming their elementwise product."""
    return np.einsum("...i,...i->...", xv, np.conj(g))


def _sip(space: Space, xv: np.ndarray, yv: np.ndarray, ny):
    """The kernel of ``sip``: [x, y] on validated arrays, given ``ny`` =
    ||y|| of each stacked y, so a caller holding the norms passes them."""
    return ny * _apply(_support(space, yv, ny), xv)


def sip(space: Space, x, y):
    """The semi-inner product [x, y] of ``space``.

    Linear in ``x``, conjugate-homogeneous in ``y``, with [x, x] = ||x||^2
    and |[x, y]| <= ||x||*||y||.  By convention [x, 0] = 0.  Evaluated as
    ||y|| * sum_i x_i * conj(g_i) with g the support coefficients at y, for
    each pair of vectors stacked along the broadcast leading axes of x, y.
    """
    xv = _as_array(space, x)
    yv = _as_array(space, y)
    return _scalar(_sip(space, xv, yv, _norm(space, yv)), space.field)


def gateaux_sip_oracle(space: Space, x, y, h: float | None = None):
    """Finite-difference reconstruction of [x, y] from norm values only.

    Uses the central difference (||y + h*v|| - ||y - h*v||)/(2h) for the
    real part of the support functional and, over the complex field, the
    identity Re phi(-i*v) = Im phi(v) for the imaginary part.  Second-order
    accurate: the error shrinks ~4x when h is halved.  Broadcasts over the
    leading axes of x and y like ``sip``.
    """
    xv = _as_array(space, x)
    yv = _as_array(space, y)
    ny = _norm_at_smooth(space, yv)
    h = 1e-5 * np.maximum(1.0, ny) if h is None else float(h)
    if not np.all((h > 0) & np.isfinite(h)):
        raise ContractViolation(f"step must be a positive finite number, got {_scalar(h)!r}")
    step = np.expand_dims(h, -1)

    def slope(v):
        return (_norm(space, yv + step * v) - _norm(space, yv - step * v)) / (2.0 * h)

    value = ny * slope(xv)
    if space.field == COMPLEX:
        value = value + 1j * (ny * slope(-1j * xv))
    return _scalar(value, space.field)


def support_functional(space: Space, y) -> np.ndarray:
    """Coefficients g of the norm-one support functional at a smooth point y.

    The functional acts by c -> sum_i c_i * conj(g_i); it satisfies
    phi(y) = ||y|| and ||phi|| = 1, and [x, y] = ||y|| * phi(x).  Stacked
    points give stacked coefficient vectors.
    """
    yv = _as_array(space, y)
    return _support(space, yv, _norm_at_smooth(space, yv))


def functional_value(space: Space, coeffs, x) -> Scalar:
    """Apply a coefficient-represented functional: sum_i x_i * conj(g_i)."""
    return _scalar(_apply(as_vec(space, coeffs), as_vec(space, x)), space.field)


def _require_tol(tol) -> None:
    """Raise ContractViolation unless the tolerance ``tol`` is a positive,
    finite real number; NaN fails too, since it compares false."""
    if not (isinstance(tol, Real) and 0 < tol < inf):
        raise ContractViolation("tol must be positive and finite")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: an ``int`` or a numpy integer, never
    a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(value, low: int, what: str) -> None:
    """Raise ContractViolation unless ``value`` is an integer (``_is_int``)
    of at least ``low``; ``what`` names it in the message."""
    if not (_is_int(value) and value >= low):
        raise ContractViolation(f"{what} must be an integer >= {low}, got {value!r}")


def _require_rng(rng) -> None:
    """Raise ContractViolation unless ``rng`` draws like a numpy Generator;
    the test is duck-typed on ``standard_normal``, so a wrapper will do."""
    if not callable(getattr(rng, "standard_normal", None)):
        raise ContractViolation(f"rng must be a numpy Generator, got {rng!r}")


def _gaussian(space: Space, rng, *lead: int) -> np.ndarray:
    """Standard normal vectors of ``space``, stacked along the ``lead`` axes:
    per vector, ``dim`` normals, then over C ``dim`` more for the imaginary
    part, the stream of drawing the two halves one call each."""
    if space.field == REAL:
        return rng.standard_normal((*lead, space.dim))
    g = rng.standard_normal((*lead, 2, space.dim))
    return g[..., 0, :] + 1j * g[..., 1, :]


def _rng(seed) -> np.random.Generator:
    """numpy's default generator at ``seed``, a non-negative integer."""
    _require_int(seed, 0, "seed")
    return np.random.default_rng(seed)
