"""Ground-truth map generators, samplers, and the max-norm counterexample.

Everything here is driven by a single 64-bit seed (numpy's default_rng or
a keyed hash), so fixture runs are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolation
from .spaces import (
    COMPLEX,
    Lp,
    REAL,
    Space,
    Vector,
    as_vec,
    basis_vec,
    linf2_space,
    norm,
)
from .wigner import MapOracle


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
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ContractViolation(f"perm must be a permutation of 1..{n}")
        if len(self.diag) != n:
            raise ContractViolation("diag length must match perm length")
        for d in self.diag:
            if abs(abs(complex(d)) - 1.0) > 1e-12:
                raise ContractViolation(f"diag entries must be unimodular, got {d!r}")

    @property
    def dim(self) -> int:
        return len(self.perm)

    def matrix(self, field: str) -> np.ndarray:
        dtype = np.complex128 if field == COMPLEX else np.float64
        if field == REAL:
            for d in self.diag:
                if complex(d).imag != 0:
                    raise ContractViolation("complex weights in a real-field spec")
        m = np.zeros((self.dim, self.dim), dtype=dtype)
        for i, (src, d) in enumerate(zip(self.perm, self.diag)):
            d = complex(d)
            d /= abs(d)  # re-normalize so the matrix is an exact isometry
            m[i, src - 1] = d if field == COMPLEX else d.real
        return m

    def to_dict(self) -> dict:
        return {
            "perm": list(self.perm),
            "diag": [{"re": complex(d).real, "im": complex(d).imag} for d in self.diag],
            "conjugate_first": self.conjugate_first,
        }

    @staticmethod
    def from_dict(d: dict) -> "IsometrySpec":
        try:
            perm = tuple(int(i) for i in d["perm"])
            conj = bool(d.get("conjugate_first", False))
            diag = []
            for entry in d["diag"]:
                if isinstance(entry, dict):
                    z = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
                else:
                    z = complex(entry)
                diag.append(z if z.imag != 0 else z.real)
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractViolation(f"malformed isometry spec: {d!r}") from exc
        return IsometrySpec(perm, tuple(diag), conj)


def matrix_oracle(space: Space, matrix, conjugate_first: bool = False,
                  name: str = "") -> MapOracle:
    """Wrap a square matrix (optionally composed with conjugation) as a map."""
    m = np.asarray(matrix, dtype=space.dtype)
    if m.shape != (space.dim, space.dim):
        raise ContractViolation(f"matrix shape {m.shape} does not fit dim {space.dim}")
    if conjugate_first and space.field != COMPLEX:
        raise ContractViolation("conjugation needs the complex field")
    if conjugate_first:
        return MapOracle(space, space, lambda x: m @ np.conj(x), name)
    return MapOracle(space, space, lambda x: m @ x, name)


def make_isometry(space: Space, spec: IsometrySpec) -> MapOracle:
    """Realize an IsometrySpec on an Lp space as a map oracle."""
    if not isinstance(space.norm, Lp):
        raise ContractViolation("isometry specs are realized on Lp spaces")
    if spec.dim != space.dim:
        raise ContractViolation(f"spec dim {spec.dim} != space dim {space.dim}")
    kind = "conjugate" if spec.conjugate_first else "linear"
    return matrix_oracle(space, spec.matrix(space.field), spec.conjugate_first,
                         name=f"{kind} isometry spec")


def identity_oracle(space: Space) -> MapOracle:
    return matrix_oracle(space, np.eye(space.dim), name="identity")


def conjugation_oracle(space: Space) -> MapOracle:
    if space.field != COMPLEX:
        raise ContractViolation("conjugation needs the complex field")
    return MapOracle(space, space, np.conj, name="conjugation")


def scale_oracle(base: MapOracle, factor: float | complex) -> MapOracle:
    return MapOracle(base.source, base.target, lambda x: factor * base(x),
                     name=f"{factor} * ({base.name or 'map'})")


def make_phase_equivalent(base: MapOracle, sigma, name: str = "") -> MapOracle:
    """Compose a map with a pointwise unimodular factor x -> sigma(x)*f(x)."""
    return MapOracle(base.source, base.target, lambda x: sigma(x) * base(x),
                     name=name or f"phase * ({base.name or 'map'})")


def seeded_phase(space: Space, seed: int):
    """A deterministic pseudo-random unimodular function of the input vector.

    Hashes the exact coordinate bytes (with -0.0 normalized away) under a
    64-bit key, so repeated evaluations at the same vector agree and
    different seeds give unrelated phase patterns.  Real field: +-1.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def sigma(x):
        xv = as_vec(space, x) + (0j if space.field == COMPLEX else 0.0)
        digest = hashlib.blake2b(xv.tobytes(), digest_size=8, key=key).digest()
        u = int.from_bytes(digest, "little") / 2.0 ** 64
        if space.field == REAL:
            return 1.0 if u < 0.5 else -1.0
        return complex(np.exp(2j * np.pi * u))

    return sigma


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
    swap = MapOracle(space, space, lambda v: v[::-1].copy(), name="coordinate swap")
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0])
    before = _sip_linf2_exact((1, 0), (1, 1))
    after = _sip_linf2_exact((0, 1), (1, 1))
    return space, swap, SwapWitness(x, y, before, after)


def unit_sphere_samples(space: Space, count: int, rng: np.random.Generator) -> list[Vector]:
    """Seeded draws normalized to the unit sphere of the space's norm."""
    out: list[Vector] = []
    while len(out) < count:
        v = rng.standard_normal(space.dim)
        if space.field == COMPLEX:
            v = v + 1j * rng.standard_normal(space.dim)
        n = norm(space, v)
        if n > 1e-6:
            out.append(v / n)
    return out


def structured_samples(space: Space, unit: bool = False) -> list[Vector]:
    """Basis vectors plus pairwise sums and differences (tie-prone points)."""
    vecs = [basis_vec(space, i) for i in range(space.dim)]
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            vecs.append(basis_vec(space, i) + basis_vec(space, j))
            vecs.append(basis_vec(space, i) - basis_vec(space, j))
    if unit:
        vecs = [v / norm(space, v) for v in vecs]
    return vecs


def default_samples(space: Space, count: int, seed: int, unit: bool = False) -> list[Vector]:
    """Structured points first, then sphere draws, truncated to ``count``."""
    if count < 2:
        raise ContractViolation("need at least two samples")
    rng = np.random.default_rng(seed)
    vecs = structured_samples(space, unit=unit)[:count]
    if len(vecs) < count:
        vecs.extend(unit_sphere_samples(space, count - len(vecs), rng))
    return vecs


def random_isometry_spec(space: Space, rng: np.random.Generator,
                         conjugate: bool | None = None) -> IsometrySpec:
    """A seeded IsometrySpec for the given space."""
    n = space.dim
    perm = tuple(int(i) + 1 for i in rng.permutation(n))
    if space.field == COMPLEX:
        diag = tuple(complex(np.exp(2j * np.pi * u)) for u in rng.random(n))
        if conjugate is None:
            conjugate = bool(rng.integers(2))
    else:
        diag = tuple(float(d) for d in rng.choice([-1.0, 1.0], size=n))
        conjugate = False
    return IsometrySpec(perm, diag, conjugate)


def random_unitary(space: Space, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal/unitary matrix via QR; p = 2 spaces only."""
    if not (isinstance(space.norm, Lp) and space.norm.p == 2.0):
        raise ContractViolation("dense rotations are isometries of p = 2 only")
    g = rng.standard_normal((space.dim, space.dim))
    if space.field == COMPLEX:
        g = g + 1j * rng.standard_normal((space.dim, space.dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q.astype(space.dtype)
