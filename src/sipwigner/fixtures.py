"""Ground-truth map generators, samplers, and the max-norm counterexample.

Everything here is driven by a single 64-bit seed (numpy's default_rng or
a keyed hash), so fixture runs are reproducible bit for bit.

The pointwise phase comes in two parts, like ``spaces.sip`` and its kernel
``_sip``: the public ``seeded_phase`` validates each vector it is given and
then hashes it with the kernel ``_seeded_phase``, while the package's own
phase-twisted maps (``acceptance``'s criteria 4, 5 and 6a, and the CLI's
``phase_seed``) compose the kernel itself through ``make_phase_equivalent``,
since ``MapOracle`` hands its ``fn`` only rows it has validated.  Both give
the same phase, bit for bit.

Each builder that takes a space runs ``spaces._require_space`` on it when
called, before reading it; no built map or phase checks it again per point.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ContractViolation
from .jsonio import int_from_json, object_from_json, scalar_from_json
from .spaces import (
    COMPLEX,
    Lp,
    REAL,
    Space,
    Vector,
    _gaussian,
    _is_scalar,
    _norm,
    _require_flag,
    _require_int,
    _require_rng,
    _require_space,
    _rng,
    as_vec,
    linf2_space,
)
from .wigner import MapOracle, _require_map


@dataclass(frozen=True)
class IsometrySpec:
    """A permutation-with-unimodular-weights isometry of an Lp space.

    Output coordinate i gathers source coordinate perm[i] (1-based) and is
    scaled by diag[i]; with ``conjugate_first`` the input is conjugated
    before the matrix acts (complex field only).  For p != 2 these maps
    exhaust the linear isometries of Lp; for p = 2 see ``random_unitary``.
    """

    perm: tuple[int, ...]
    diag: tuple[float | complex, ...]
    conjugate_first: bool = False

    def __post_init__(self):
        if not (isinstance(self.perm, tuple) and isinstance(self.diag, tuple)):
            raise ContractViolation(f"perm and diag must be tuples, got {self.perm!r} and "
                                    f"{self.diag!r}")
        n = len(self.perm)
        for i in self.perm:
            _require_int(i, 1, "perm entry")
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ContractViolation(f"perm must be a permutation of 1..{n}")
        if len(self.diag) != n:
            raise ContractViolation("diag length must match perm length")
        for d in self.diag:  # halved, so that the modulus of finite parts is finite
            if not (_is_scalar(d, COMPLEX) and abs(abs(complex(d) / 2) - 0.5) <= 5e-13):
                raise ContractViolation(f"diag entries must be unimodular, got {d!r}")
        _require_flag(self.conjugate_first, "conjugate_first")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def matrix(self, field: str) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=np.complex128 if field == COMPLEX else np.float64)
        for i, (src, d) in enumerate(zip(self.perm, self.diag)):
            d = complex(d)
            if field == REAL and d.imag != 0:
                raise ContractViolation("complex weights in a real-field spec")
            d /= abs(d)  # re-normalize so the matrix is an exact isometry
            m[i, src - 1] = d if field == COMPLEX else d.real
        return m

    def to_dict(self) -> dict:
        return {
            "perm": list(self.perm),
            "diag": [{"re": complex(d).real, "im": complex(d).imag} for d in self.diag],
            "conjugate_first": bool(self.conjugate_first),
        }

    @staticmethod
    def from_dict(d: dict) -> "IsometrySpec":
        d = object_from_json(d, "isometry", ("perm", "diag"), ("conjugate_first",))
        if not (isinstance(d["perm"], list) and isinstance(d["diag"], list)):
            raise ContractViolation(f"perm and diag must be JSON arrays: {d!r}")
        diag = [complex(scalar_from_json(z)) for z in d["diag"]]
        return IsometrySpec(tuple(int_from_json(i) for i in d["perm"]),
                            tuple(z if z.imag != 0 else z.real for z in diag),
                            d.get("conjugate_first", False))


def matrix_oracle(space: Space, matrix, conjugate_first: bool = False) -> MapOracle:
    """Wrap a square matrix (optionally composed with conjugation) as a map.

    The matrix must have finite entries.  Points are evaluated with
    ``ndarray.dot`` at about half the call cost of ``m @ x``, wherever numpy
    gives the two the same bits: a C- or Fortran-ordered matrix of dim >= 2
    and a point of positive stride.  Elsewhere numpy sums in another order
    or signs a zero otherwise, so there the map takes ``m @ x``.
    """
    _require_space(space)
    _require_flag(conjugate_first, "conjugate_first")
    try:  # same_kind: a complex matrix is refused on a real space, not truncated
        m = np.asarray(matrix).astype(space.dtype, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed matrix: {exc}") from None
    if m.shape != (space.dim, space.dim):
        raise ContractViolation(f"matrix shape {m.shape} does not fit dim {space.dim}")
    if not np.isfinite(m).all():
        raise ContractViolation("matrix entries must be finite")
    if conjugate_first and space.field != COMPLEX:
        raise ContractViolation("conjugation needs the complex field")
    if m.flags.forc and space.dim > 1:
        def mul(x):
            return m.dot(x) if x.strides[0] > 0 else m @ x
    else:
        mul = m.__matmul__
    if conjugate_first:
        return MapOracle(space, space, lambda x: mul(np.conj(x)))
    return MapOracle(space, space, mul)


def make_isometry(space: Space, spec: IsometrySpec) -> MapOracle:
    """Realize an IsometrySpec on an Lp space as a map oracle."""
    _require_space(space)
    if not isinstance(spec, IsometrySpec):
        raise ContractViolation(f"spec must be an IsometrySpec, got {type(spec).__name__}")
    if not isinstance(space.norm, Lp):
        raise ContractViolation("isometry specs are realized on Lp spaces")
    if spec.dim != space.dim:
        raise ContractViolation(f"spec dim {spec.dim} != space dim {space.dim}")
    return matrix_oracle(space, spec.matrix(space.field), spec.conjugate_first)


def identity_oracle(space: Space) -> MapOracle:
    _require_space(space)
    return matrix_oracle(space, np.eye(space.dim))


def conjugation_oracle(space: Space) -> MapOracle:
    _require_space(space)
    if space.field != COMPLEX:
        raise ContractViolation("conjugation needs the complex field")
    return MapOracle(space, space, np.conj)


def scale_oracle(base: MapOracle, factor: float | complex) -> MapOracle:
    """The map x -> factor * f(x).

    ``base`` must be a MapOracle and ``factor`` a finite int, float or
    complex (numpy scalars included, bools not); anything else raises
    ContractViolation here, not when the map is called.  Composes on
    ``base.fn``, so each point is validated once, by the returned oracle,
    however deep the composition.
    """
    _require_map(base)
    if not _is_scalar(factor, COMPLEX):
        raise ContractViolation(f"scale factor must be a finite number, got {factor!r}")
    return MapOracle(base.source, base.target, lambda x: factor * np.asarray(base.fn(x)))


def make_phase_equivalent(base: MapOracle, sigma) -> MapOracle:
    """Compose a map with a pointwise unimodular factor x -> sigma(x)*f(x).

    ``sigma`` takes one source vector and returns a scalar; like
    ``scale_oracle``, the composition is on ``base.fn``, and a ``base``
    that is not a MapOracle or a ``sigma`` that is not callable raises
    ContractViolation here.
    """
    _require_map(base)
    if not callable(sigma):
        raise ContractViolation(f"sigma must be callable, got {sigma!r}")
    return MapOracle(base.source, base.target, lambda x: sigma(x) * np.asarray(base.fn(x)))


_NEGATIVE_ZERO = np.float64(-0.0).tobytes()


def _seeded_phase(space: Space, seed: int):
    """``seeded_phase`` on coordinate vectors already validated on ``space``.

    The kernel under the public ``seeded_phase``, as ``spaces._sip`` is under
    ``sip``: the space and seed are checked, the keyed blake2b is set up and
    the field's phase rule is chosen once, here, and each point hashes on a
    copy of the keyed hash.  A point's bytes are hashed as they are unless
    the 8 bytes of -0.0 occur in them; only then is the point normalized by
    adding a zero, which turns each -0.0 into 0.0.  A match astride two
    coordinates normalizes a point that needed none, to the same bytes.
    The package composes the kernel into its phase-twisted maps with
    ``make_phase_equivalent``, whose oracle hands it only the rows that
    ``MapOracle.__call__`` has validated.
    """
    _require_space(space)
    _require_int(seed, 0, "seed")
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    keyed = hashlib.blake2b(digest_size=8, key=key)
    zero = space.zero_scalar()

    def uniform(v) -> float:
        data = v.tobytes()
        if _NEGATIVE_ZERO in data:
            data = (v + zero).tobytes()
        h = keyed.copy()
        h.update(data)
        return int.from_bytes(h.digest(), "little") / 2.0 ** 64

    if space.field == REAL:
        return lambda v: 1.0 if uniform(v) < 0.5 else -1.0
    return lambda v: cmath.exp(2j * math.pi * uniform(v))


def seeded_phase(space: Space, seed: int):
    """A deterministic pseudo-random unimodular function of the input vector.

    Hashes the exact coordinate bytes (with -0.0 normalized away) under a
    64-bit key, so repeated evaluations at the same vector agree and
    different seeds give unrelated phase patterns.  Real field: +-1.  Each
    call validates its input with ``as_vec``, then runs the kernel
    ``_seeded_phase``; the package's own phase-twisted maps call the kernel
    directly, on rows their oracle has validated, so they validate each
    point once.
    """
    sigma = _seeded_phase(space, seed)
    return lambda x: sigma(as_vec(space, x))


def _sip_linf2_exact(x, y) -> Fraction:
    """The fixture semi-inner product in exact rational arithmetic."""
    x1, x2 = (Fraction(v) for v in x)
    y1, y2 = (Fraction(v) for v in y)
    if abs(y1) > abs(y2):
        return x1 * y1
    if abs(y1) < abs(y2):
        return x2 * y2
    return Fraction(3, 4) * x1 * y1 + Fraction(1, 4) * x2 * y2


@dataclass(frozen=True)
class SwapWitness:
    """A linear isometry that moves |[x, y]|: the coordinate swap on the
    max-norm plane, caught at x = (1, 0), y = (1, 1)."""

    x: Vector
    y: Vector
    sip_before: Fraction  # [x, y]
    sip_after: Fraction   # [Tx, Ty]

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "sip_x_y": float(self.sip_before),
            "sip_Tx_Ty": float(self.sip_after),
            "exact": {"sip_x_y": self.sip_before, "sip_Tx_Ty": self.sip_after},
        }


def swap_counterexample() -> tuple[Space, MapOracle, SwapWitness]:
    """The max-norm plane, its coordinate swap, and the witness pair.

    The swap preserves the norm (and is linear), yet the pinned weighted
    semi-inner product gives [x, y] = 3/4 but [Tx, Ty] = 1/4 at the tied
    point y = (1, 1): without smoothness, even linear isometries need not
    respect a chosen semi-inner product, so checks built on one must
    refuse this space.
    """
    space = linf2_space()
    swap = MapOracle(space, space, lambda v: v[::-1].copy())
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0])
    before = _sip_linf2_exact((1, 0), (1, 1))
    after = _sip_linf2_exact((0, 1), (1, 1))
    return space, swap, SwapWitness(x, y, before, after)


def unit_sphere_samples(space: Space, count: int, rng: np.random.Generator) -> list[Vector]:
    """Seeded draws normalized to the unit sphere of the space's norm.

    Drawn as one ``spaces._gaussian`` stack (per draw, ``dim`` normals, then
    ``dim`` more for the imaginary part); draws with norm <= 1e-6 are
    rejected and only the shortfall is drawn again, so the stream matches
    one draw at a time.
    """
    _require_space(space)
    _require_int(count, 0, "sample count")
    _require_rng(rng)
    out: list[Vector] = []
    while len(out) < count:
        v = _gaussian(space, rng, count - len(out))
        n = _norm(space, v)
        keep = n > 1e-6
        out.extend(v[keep] / n[keep, None])
    return out


def _structured_rows(space: Space, rows: int, unit: bool) -> np.ndarray:
    """The first ``rows`` rows of ``structured_samples`` as one stack, built
    without the rows past them."""
    n = space.dim
    eye = np.eye(n, dtype=space.dtype)
    # index lists, not np.triu_indices: at n <= 5 that call alone costs
    # more than the whole old per-vector loop
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n))
    ij = list(islice(pairs, max(rows - n + 1, 0) // 2))
    i, j = [a for a, _ in ij], [b for _, b in ij]
    pm = np.empty((len(ij), 2, n), dtype=space.dtype)
    pm[:, 0] = eye[i] + eye[j]
    pm[:, 1] = eye[i] - eye[j]
    vecs = np.concatenate([eye, pm.reshape(-1, n)])[:rows]
    if unit:
        vecs = vecs / _norm(space, vecs)[:, None]
    return vecs


# default_samples' prefixes; a bounded cache, read only through copies
_cached_rows = lru_cache(maxsize=64)(_structured_rows)


def structured_samples(space: Space, unit: bool = False) -> list[Vector]:
    """Basis vectors plus pairwise sums and differences (tie-prone points).

    The rows are ``e_0 .. e_{n-1}``, then ``e_i + e_j`` and ``e_i - e_j``
    for each ``i < j`` in row-major order, built as one stack (and, with
    ``unit``, normalized by one stacked ``spaces._norm`` call).  All n^2
    rows are built each call, uncached.
    """
    _require_space(space)
    _require_flag(unit, "unit")
    return list(_structured_rows(space, space.dim ** 2, unit))


def default_samples(space: Space, count: int, seed: int, unit: bool = False) -> list[Vector]:
    """Structured points first, then sphere draws, truncated to ``count``.

    Only the structured rows kept are built, once per (space, rows, unit)
    in a bounded cache; each call returns its own copy.  The generator at
    ``seed`` is made only when sphere draws follow.
    """
    _require_space(space)
    _require_int(count, 2, "sample count")
    _require_int(seed, 0, "seed")
    _require_flag(unit, "unit")
    vecs = list(_cached_rows(space, int(min(count, space.dim ** 2)), bool(unit)).copy())
    if len(vecs) < count:
        vecs.extend(unit_sphere_samples(space, count - len(vecs), _rng(seed)))
    return vecs


def random_isometry_spec(space: Space, rng: np.random.Generator,
                         conjugate: bool | None = None) -> IsometrySpec:
    """A seeded IsometrySpec for the given space."""
    _require_space(space)
    _require_rng(rng)
    n = space.dim
    perm = tuple(int(i) + 1 for i in rng.permutation(n))
    if space.field == COMPLEX:
        diag = tuple(cmath.exp(2j * math.pi * u) for u in rng.random(n).tolist())
        if conjugate is None:
            conjugate = bool(rng.integers(2))
    else:  # the values and the stream of rng.choice([-1.0, 1.0], size=n)
        diag = tuple((-1.0, 1.0)[b] for b in rng.integers(0, 2, size=n).tolist())
        conjugate = False
    return IsometrySpec(perm, diag, conjugate)


def random_unitary(space: Space, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal/unitary matrix via QR; p = 2 spaces only."""
    _require_space(space)
    _require_rng(rng)
    if not (isinstance(space.norm, Lp) and space.norm.p == 2.0):
        raise ContractViolation("dense rotations are isometries of p = 2 only")
    g = rng.standard_normal((space.dim, space.dim))
    if space.field == COMPLEX:
        g = g + 1j * rng.standard_normal((space.dim, space.dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q.astype(space.dtype)
