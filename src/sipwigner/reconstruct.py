"""Recover the isometry and phase behind a symmetry-preserving map.

A surjective map f between smooth spaces that preserves |[., .]| factors
as f(x) = sigma(x) * U(x) with |sigma| = 1 and U a linear or
conjugate-linear surjective isometry.  This module rebuilds (sigma, U)
from black-box evaluations of f:

* scalars move through f up to phase (``recover_scalar_action``),
* f(x + y) lands in span{f(x), f(y)} with unimodular coefficients
  (``recover_pair_coeffs``),
* the coefficient ratio on the pair (e1, i*e2) reveals whether scalars
  pass through linearly or conjugated (``detect_kind``),
* ``reconstruct`` assembles U column by column in the gauge sigma(e1) = 1
  and then reads sigma off as [f(x), U x*] / ||x||^2.

Span coefficients come from a least-squares solve.  Under the hypothesis
f(x+y) lies exactly in span{f(x), f(y)}, so the target-norm residual is at
rounding level; off it, that residual bounds the best-approximation distance
from above, so no map that a norm minimizer rejects is accepted.

U is only ever determined up to one global unimodular factor; the gauge
pins that factor.  Maps that break the factorization raise
HypothesisViolation with a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, HypothesisViolation, KindAmbiguous
from .spaces import (COMPLEX, Scalar, Space, Vector, _as_array, _norm, _require_independent, _rng,
                     _sip, as_vec)
from .wigner import MapOracle, _require_map, _require_smooth

KIND_LINEAR = "linear"
KIND_CONJUGATE = "conjugate_linear"

_ISO_TOL = 1e-7  # isometry defect allowed of the recovered columns, relative to 1 + ||x||
_N_TEST = 64  # seeded draws in the verification set


@dataclass(frozen=True)
class Reconstruction:
    """A recovered factorization f(x) = sigma(x) * U @ x*.

    ``U`` acts on the conjugated coordinates when ``kind`` is
    "conjugate_linear" and plainly otherwise; ``phase_samples`` holds
    (x, sigma(x)) over the verification set and ``residual`` the worst
    ||f(x) - sigma(x) * U x*|| seen there.  The gauge sigma(e1) = 1 fixes
    the global phase shared by U and sigma.
    """

    U: np.ndarray
    kind: str
    phase_samples: list[tuple[Vector, Scalar]]
    residual: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "matrix": self.U,  # row-major nested lists once serialized
            "residual": self.residual,
            "gauge": "sigma(e_1)=1",
            "phase_samples": [{"x": x, "sigma": s} for x, s in self.phase_samples],
        }


def _require_reconstructible(m: MapOracle, tol: float) -> None:
    _require_smooth(m)
    _require_map(m, tol)
    if m.source.dim != m.target.dim:
        raise ContractViolation("reconstruction needs equal dimensions")


def _span_coeffs(target: Space, w: Vector, basis, bound: float, leaves: str,
                 witness: dict) -> list[Scalar]:
    """Least-squares coefficients c of w on the basis vectors.

    A target-norm residual ||w - sum_i c_i * basis_i|| above ``bound``
    raises HypothesisViolation "<leaves>: residual ...", whose witness is
    ``witness`` followed by the residual.
    """
    A = np.stack(basis, axis=1)
    c, _, _, svals = np.linalg.lstsq(A, w, rcond=None)
    _require_independent(svals, A.shape[1], "basis vectors are linearly dependent")
    residual = float(_norm(target, w - A @ c))
    if residual > bound:
        raise HypothesisViolation(f"{leaves}: residual {residual:.3e}",
                                  {**witness, "residual": residual})
    return c.tolist()


def _pair_coeffs(m: MapOracle, x, y, fx, fy, fxy, tol: float) -> tuple[Scalar, Scalar]:
    """Unimodular (alpha, beta) with f(x+y) = alpha*f(x) + beta*f(y), from
    the images fx, fy, fxy of x, y and x + y."""
    witness = {"x": x.tolist(), "y": y.tolist()}
    alpha, beta = _span_coeffs(m.target, fxy, [fx, fy],
                               tol * (1.0 + _norm(m.source, x + y)),
                               "f(x+y) leaves span(f(x), f(y))", witness)
    for name, c in (("alpha", alpha), ("beta", beta)):
        if abs(abs(c) - 1.0) > tol:
            raise HypothesisViolation(f"{name} is not unimodular: |{name}| = {abs(c):.17g}",
                                      {**witness, name: c})
    return alpha, beta


def _kind(m: MapOracle, z: Vector, f1, col2, fz, tol: float) -> str:
    """The kind from f(e1), the gauge-aligned second column
    col2 = (beta/alpha)*f(e2) and the image fz of the probe z = e1 + i*e2."""
    a, b = _span_coeffs(m.target, fz, [f1, col2], tol * (1.0 + _norm(m.source, z)),
                        "f(e1 + i*e2) leaves span(f(e1), f(e2))", {})
    if abs(a) < 1e-6:
        raise KindAmbiguous(f"degenerate leading coefficient {a!r}")
    ratio = b / a  # carries h(i)
    d_lin, d_conj = abs(ratio - 1j), abs(ratio + 1j)
    near, far = sorted((d_lin, d_conj))
    if far < 10.0 * near:
        raise KindAmbiguous(f"h(i) estimate {ratio!r} sits between the classes "
                            f"(|.-i| = {d_lin:.3e}, |.+i| = {d_conj:.3e})")
    return KIND_LINEAR if d_lin < d_conj else KIND_CONJUGATE


def recover_scalar_action(m: MapOracle, x, lam: Scalar, tol: float = 1e-8) -> Scalar:
    """The scalar gamma with f(lam*x) = gamma*f(x); |gamma| = |lam| must hold."""
    _require_reconstructible(m, tol)
    xv = as_vec(m.source, x)
    nx = _norm(m.source, xv)
    if nx == 0.0:
        raise ContractViolation("scalar action is probed at nonzero x")
    fx, flx = m(np.stack([xv, lam * xv]))
    if _norm(m.target, fx) == 0.0:
        raise HypothesisViolation("f vanished at a nonzero point", {"x": xv.tolist()})
    witness = {"x": xv.tolist(), "lam": lam}
    (gamma,) = _span_coeffs(m.target, flx, [fx], tol * (1.0 + abs(lam) * nx),
                            "f(lam*x) leaves the line through f(x)", witness)
    if abs(abs(gamma) - abs(lam)) > tol * (1.0 + abs(lam)):
        raise HypothesisViolation(
            f"|gamma| = {abs(gamma):.17g} drifted from |lam| = {abs(lam):.17g}",
            {**witness, "gamma": gamma})
    return gamma


def recover_pair_coeffs(m: MapOracle, x, y, tol: float = 1e-8) -> tuple[Scalar, Scalar]:
    """Unimodular (alpha, beta) with f(x+y) = alpha*f(x) + beta*f(y)."""
    _require_reconstructible(m, tol)
    xv = as_vec(m.source, x)
    yv = as_vec(m.source, y)
    svals = np.linalg.svd(np.stack([xv, yv], axis=1), compute_uv=False)
    _require_independent(svals, 2, "x and y must be linearly independent")
    return _pair_coeffs(m, xv, yv, *m(np.stack([xv, yv, xv + yv])), tol)


def detect_kind(m: MapOracle, tol: float = 1e-8) -> str:
    """Classify how scalars pass through f: "linear" or "conjugate_linear".

    Decomposing f(e1 + i*e2) against f(e1) and the gauge-aligned second
    column (beta/alpha)*f(e2) yields the coefficient ratio h(i), which is
    +i for linear and -i for conjugate-linear maps; the classification must
    be decisive by a factor of 10, otherwise KindAmbiguous is raised.
    """
    _require_reconstructible(m, tol)
    if m.source.field != COMPLEX:
        raise ContractViolation("kind detection needs the complex field")
    if m.source.dim < 2:
        raise ContractViolation("kind detection needs dim >= 2")
    e1, e2 = np.eye(m.source.dim, dtype=m.source.dtype)[:2]
    z = e1 + 1j * e2
    f1, f2, f12, fz = m(np.stack([e1, e2, e1 + e2, z]))
    alpha, beta = _pair_coeffs(m, e1, e2, f1, f2, f12, tol)
    return _kind(m, z, f1, (beta / alpha) * f2, fz, tol)


def _phase_and_residual(m: MapOracle, U: np.ndarray, kind: str, X: np.ndarray, F: np.ndarray):
    """Per row x of X, with f(x) the same row of F: ||x||, sigma(x) via the
    semi-inner product, the residual ||f(x) - sigma(x) * U x*|| and ||U x*||."""
    images = (np.conj(X) if kind == KIND_CONJUGATE else X) @ U.T
    nx, n_images = _norm(m.source, X), _norm(m.target, images)
    sigma = _sip(m.target, F, images, n_images) / nx ** 2
    return nx, sigma, _norm(m.target, F - sigma[:, None] * images), n_images


def reconstruct(m: MapOracle, *, tol: float = 1e-8, seed: int = 7) -> Reconstruction:
    """Rebuild (sigma, U) from the map oracle and verify the factorization.

    Columns: U e1 = f(e1); U ej = (beta_j/alpha_j) * f(ej), which aligns
    every column to the common gauge sigma(e1) = 1.  The factorization is
    then stress-tested on 64 seeded draws: an isometry defect beyond
    1e-7*(1 + ||x||), a phase with ||sigma| - 1| > tol, or a reproduction
    residual beyond tol*(1 + ||x||) raises HypothesisViolation.

    The map is evaluated once, on one stack: the basis e1..en, the sums
    e1 + ej (j >= 2), the kind probe e1 + i*e2 (complex field, n >= 2) and
    the verification draws, which depend on ``seed`` alone.  Every image is
    therefore validated before any is examined: an exception from ``fn``, or
    a ContractViolation for a malformed image, at any of these points comes
    before any HypothesisViolation or KindAmbiguous, even one a column would
    raise.

    The draws keep the stream of a per-draw loop: n normals (2n over C), then
    u for the scale 0.5 + 1.5*u, numpy's ``uniform(0.5, 2.0)``.  A loop of
    bare generator calls makes them; norms and scales are taken on the stack.
    A draw of norm below 1e-6 takes no scale: at the first one the generator
    is reset to the round's start, replays the draws before it and its
    normals, and a new round draws the rest.  The first failing draw is
    reported, tested for isometry, then phase, then residual.
    """
    _require_reconstructible(m, tol)
    source, n = m.source, m.source.dim

    rng = _rng(seed)
    shape = (2, n) if source.field == COMPLEX else (n,)
    rows, left = [], _N_TEST
    while left:
        state = rng.bit_generator.state
        V, u = zip(*[(rng.standard_normal(shape), rng.random()) for _ in range(left)])
        V = np.array(V)
        if source.field == COMPLEX:
            V = V[:, 0] + 1j * V[:, 1]
        nv = _norm(source, V)
        r = int(np.argmax(np.append(nv < 1e-6, True)))  # the first rejected draw, or left
        rows.append(V[:r] * ((0.5 + 1.5 * np.array(u[:r])) / nv[:r])[:, None])
        if r < left:  # draw r takes no scale: replay the stream up to its normals
            rng.bit_generator.state = state
            for _ in range(r):
                rng.standard_normal(shape)
                rng.random()
            rng.standard_normal(shape)
        left -= min(r + 1, left)
    X = np.concatenate(rows)

    # dim-1 maps are always phase-equivalent to a linear isometry:
    # sigma absorbs any conjugation of the lone coordinate.
    probe_kind = source.field == COMPLEX and n > 1
    E = np.eye(n, dtype=source.dtype)
    probes = np.concatenate([E, E[0] + E[1:]] + ([E[0] + 1j * E[1:2]] if probe_kind else []))
    F = m(np.concatenate([probes, X]))

    cols = [F[0]]
    for j in range(1, n):
        alpha, beta = _pair_coeffs(m, E[0], E[j], F[0], F[j], F[n + j - 1], tol)
        cols.append((beta / alpha) * F[j])
    U = np.stack(cols, axis=1)
    kind = _kind(m, probes[-1], F[0], cols[1], F[2 * n - 1], tol) if probe_kind else KIND_LINEAR

    nx, sigma, residual, n_images = _phase_and_residual(m, U, kind, X, F[len(probes):])
    iso_dev = np.abs(n_images - nx)
    iso_bad = iso_dev > _ISO_TOL * (1.0 + nx)
    phase_bad = np.abs(np.abs(sigma) - 1.0) > tol
    failed = iso_bad | phase_bad | (residual > tol * (1.0 + nx))
    if failed.any():  # the first failing sample in draw order, first failing test
        k = int(np.argmax(failed))
        x, dev, sig, res = X[k].tolist(), float(iso_dev[k]), sigma[k].item(), float(residual[k])
        if iso_bad[k]:
            raise HypothesisViolation(
                f"recovered columns are not isometric: norm deviation {dev:.3e}",
                {"x": x, "deviation": dev})
        if phase_bad[k]:
            raise HypothesisViolation(
                f"recovered phase is not unimodular: |sigma| = {abs(sig):.17g}",
                {"x": x, "sigma": sig})
        raise HypothesisViolation(f"factorization fails to reproduce f: residual {res:.3e}",
                                  {"x": x, "residual": res})

    return Reconstruction(U, kind, list(zip(X, sigma.tolist())), float(residual.max(initial=0.0)))


def reproduction_residual(m: MapOracle, rec: Reconstruction, vectors) -> float:
    """Worst ||f(x) - sigma(x) * U x*|| over held-out vectors."""
    X = _as_array(m.source, vectors, ndim=2)
    if np.any(_norm(m.source, X) == 0.0):
        raise ContractViolation("held-out vectors must be nonzero")
    _, _, residual, _ = _phase_and_residual(m, rec.U, rec.kind, X, m(X))
    return float(residual.max(initial=0.0))
