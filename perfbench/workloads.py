"""Workload inputs and their construction-derived expectations.

Every input is generated from the workload seed by this module alone; the
program under test receives only the generated requests.  Expected outputs
follow from how each input was built (a map's construction fixes its checker
verdicts, an orthogonalized pair fixes its Birkhoff-James verdict, ...), never
from a recording of what the program printed before.

The shape of each operation list (which fields, exponents, dimensions, scales
and maps appear, and in what order) is the same for every seed; the seed only
draws the vectors, isometry specs, phases and checker seeds.  That keeps the
cost of a pass and its share of known-hard inputs the same from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FIELDS = ("real", "complex")
CHECK_PS = (1.5, 2.0, 3.0, 7.0)
SOLVE_PS = (1.5, 2.0, 3.0, 7.0, 50.0, 100.0)
DIMS = (2, 5, 16)
# the check cells that use 64 samples; the rest use 16
CHECK_64 = (("real", 1.5, 16), ("real", 7.0, 5), ("complex", 2.0, 2), ("complex", 3.0, 16))
SCALE_EXPS = tuple(range(-150, 151, 50))
ORTH_TOL = 1e-7        # orth-check margin tolerance at unit scale
SIP_REL_TOL = 1e-9     # sip-eval error allowed, relative to ||x|| * ||y||
MATRIX_TOL = 1e-7      # entrywise error allowed on the recovered U
RECONSTRUCT_TOL = 1e-8  # the CLI's default reconstruction tolerance

# Per-operation wall-clock limits, by cost class.  Normal single-pair
# requests take under 50 ms, map requests under 1 s and gate criteria
# under 10 s on a 2-core machine, so each limit leaves ample headroom for
# the traced run.
PAIR_LIMIT_S = 0.5
MAP_LIMIT_S = 5.0
CRITERION_LIMIT_S = 60.0

# the acceptance criteria that carry a wall-clock budget, and its GateConfig field
BUDGETS = {
    "criterion_1_fixture_witness": "fixture_budget_s",
    "criterion_2_closed_form_vs_oracle": "fd_budget_s",
    "criterion_5_roundtrip": "roundtrip_budget_s",
}
EXPECTED_RED = "criterion_6b_minus_identity"


@dataclass
class Op:
    """One request of a workload.

    ``argv``/``stdin`` drive ``cli.main``; gate operations instead name an
    acceptance criterion in ``criterion``.  ``expect(code, stdout)`` returns
    None when the output matches the input's construction, else a reason.
    ``edge`` marks inputs outside unit scale, where today's numerics are
    known to break (they count as failed operations, not as a broken run).
    """

    kind: str
    label: str
    limit_s: float
    argv: list[str] | None = None
    stdin: str | None = None
    criterion: str | None = None
    expect: Callable[[int, str], str | None] | None = None
    edge: bool = False
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- reference math

def ref_norm(v: np.ndarray, p: float) -> float:
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0:
        return 0.0
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


def ref_sip(x: np.ndarray, y: np.ndarray, p: float):
    """[x, y] on l_p: ||y|| * sum_i x_i * conj(u_i) * |u_i|^(p-2), u = y/||y||."""
    ny = ref_norm(y, p)
    if ny == 0.0:
        return 0.0
    u = y / ny
    au = np.abs(u)
    w = np.zeros_like(u)
    nz = au > 0
    w[nz] = np.conj(u[nz]) * au[nz] ** (p - 2.0)
    value = ny * np.sum(x * w)
    return complex(value) if np.iscomplexobj(value) else float(value)


def _draw(rng: np.random.Generator, fld: str, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    if fld == "complex":
        v = v + 1j * rng.standard_normal(n)
    return v


def _vec_json(v: np.ndarray) -> str:
    if np.iscomplexobj(v):
        return json.dumps([{"re": float(c.real), "im": float(c.imag)} for c in v],
                          separators=(",", ":"))
    return json.dumps([float(c) for c in v], separators=(",", ":"))


def _space(fld: str, n: int, p: float) -> dict:
    return {"field": fld, "dim": n, "norm": {"lp": p}}


def _scalar(v) -> complex:
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _spec(rng: np.random.Generator, fld: str, n: int, conjugate: bool):
    """A permutation-with-unimodular-weights isometry, as wire dict and matrix."""
    perm = rng.permutation(n)
    if fld == "complex":
        diag = np.exp(2j * np.pi * rng.random(n))
    else:
        diag = rng.choice([-1.0, 1.0], size=n).astype(complex)
    matrix = np.zeros((n, n), dtype=complex)
    matrix[np.arange(n), perm] = diag
    wire = {
        "perm": [int(i) + 1 for i in perm],
        "diag": [{"re": float(d.real), "im": float(d.imag)} for d in diag],
        "conjugate_first": bool(conjugate),
    }
    return wire, matrix


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 63))


# ---------------------------------------------------------------- gate

def gate_ops(seed: int) -> list[Op]:
    """The eight acceptance criteria, in ``acceptance.CRITERIA`` order."""
    names = [
        "criterion_1_fixture_witness",
        "criterion_2_closed_form_vs_oracle",
        "criterion_3_orthogonality_routes",
        "criterion_4_checker_verdicts",
        "criterion_5_roundtrip",
        "criterion_6a_preservation_implies_linearity",
        EXPECTED_RED,
        "criterion_7_linear_isometries_pass_exact",
    ]
    return [Op("criterion", name.removeprefix("criterion_"), CRITERION_LIMIT_S,
               criterion=name, info={"seed": seed}) for name in names]


# ---------------------------------------------------------------- check

_ALL_CHECKS = {
    "real": ["wigner", "phase_isometry_sets", "exact_preservation", "linearity"],
    "complex": ["wigner", "exact_preservation", "linearity"],
}
_PHASE_BLIND = {"real": ["wigner", "phase_isometry_sets"], "complex": ["wigner"]}


def _expect_check(verdict: str, checks: list[str]):
    want_code = 0 if verdict == "pass" else 1

    def expect(code: int, stdout: str) -> str | None:
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        payload, err = _parse(stdout)
        if err:
            return err
        reports = payload.get("reports", [])
        if [r.get("check") for r in reports] != checks:
            return f"reports {[r.get('check') for r in reports]}, expected {checks}"
        for r in reports:
            if r["verdict"] != verdict:
                return f"{r['check']} verdict {r['verdict']}, expected {verdict}"
            if (r["witness"] is None) != (verdict == "pass"):
                return f"{r['check']} witness presence does not match its verdict"
        return None

    return expect


def check_ops(seed: int) -> list[Op]:
    """``sipwigner check`` requests: per (field, p, n) one passing, one failing map.

    Passing maps are isometry specs, plain (paired with every check they
    must pass) or phase-twisted (paired with the phase-blind checks only).
    Failing maps are ``double`` (fails every check) and, over the complex
    field, ``conjugation`` paired with linearity, the one check whose
    verdict conjugation fixes.  The CHECK_64 cells use 64 samples and pair
    a plain spec with ``double``, both under every check.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for fi, fld in enumerate(FIELDS):
        for pi, p in enumerate(CHECK_PS):
            for ni, n in enumerate(DIMS):
                samples = 64 if (fld, p, n) in CHECK_64 else 16
                space = _space(fld, n, p)
                # 64-sample cells carry every check on both maps, so the
                # slowest tenth of requests is one cluster of pair scans
                twisted = samples == 16 and (pi + ni) % 3 == 1
                conjugate = fld == "complex" and twisted and ni % 2 == 0
                wire, _ = _spec(rng, fld, n, conjugate)
                good_map = {"isometry": wire}
                if twisted:
                    good_map["phase_seed"] = _seed(rng)
                    good_checks = _PHASE_BLIND[fld]
                else:
                    good_checks = _ALL_CHECKS[fld]
                if fld == "complex" and twisted:
                    bad_map, bad_checks = {"builtin": "conjugation"}, ["linearity"]
                else:
                    bad_map, bad_checks = {"builtin": "double"}, good_checks
                for verdict, m, checks in (("pass", good_map, good_checks),
                                           ("fail", bad_map, bad_checks)):
                    cfg = {"source": space, "map": m, "checks": checks, "samples": samples}
                    name = "builtin " + m["builtin"] if "builtin" in m else (
                        "twisted spec" if "phase_seed" in m else "spec")
                    ops.append(Op(
                        "check", f"check {fld} p={p:g} n={n} s={samples} {name}",
                        MAP_LIMIT_S,
                        argv=["check", "--config", "-", "--json", "--seed", str(_seed(rng))],
                        stdin=json.dumps(cfg, separators=(",", ":")),
                        expect=_expect_check(verdict, checks),
                        info={"field": fld, "p": p, "n": n, "samples": samples,
                              "map": name, "verdict": verdict},
                    ))
    return ops


# ---------------------------------------------------------------- solve

def _pair(rng, fld, n, p, orthogonal):
    """(x, y, [y, x]) with x BJ-orthogonal to y iff ``orthogonal``.

    y is orthogonalized against x with the reference formula, which makes
    [y, x] = 0 by linearity in the first slot; the non-orthogonal pair adds
    c*x back with |c| in [0.5, 1], so [y, x] = c*||x||^2 is far from zero.
    """
    x = _draw(rng, fld, n)
    z = _draw(rng, fld, n)
    nx2 = ref_sip(x, x, p)
    w = z - (ref_sip(z, x, p) / nx2) * x
    if orthogonal:
        return x, w, 0.0
    w = w * (ref_norm(x, p) / ref_norm(w, p))
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    return x, w + c * x, c * nx2


def _expect_orth(orthogonal: bool):
    want_code = 0 if orthogonal else 1

    def expect(code: int, stdout: str) -> str | None:
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        payload, err = _parse(stdout)
        if err:
            return err
        if payload.get("orthogonal") is not orthogonal:
            return f"verdict {payload.get('orthogonal')}, expected {orthogonal}"
        return None

    return expect


def _expect_sip(value: complex, bound: float):
    def expect(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        payload, err = _parse(stdout)
        if err:
            return err
        got = _scalar(payload["sip"])
        if not (abs(got - value) <= bound):
            return f"sip {got!r}, expected {value!r} within {bound:.3e}"
        return None

    return expect


def _expect_reconstruct(kind: str, matrix: np.ndarray):
    def expect(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        payload, err = _parse(stdout)
        if err:
            return err
        if payload.get("kind") != kind:
            return f"kind {payload.get('kind')}, expected {kind}"
        U = np.array([[_scalar(c) for c in row] for row in payload["matrix"]])
        if U.shape != matrix.shape:
            return f"U has shape {U.shape}, expected {matrix.shape}"
        # U is recovered in the gauge sigma(e1) = 1: U = c * M with |c| = 1
        row = int(np.argmax(np.abs(matrix[:, 0])))
        c = U[row, 0] / matrix[row, 0]
        if not abs(abs(c) - 1.0) <= MATRIX_TOL:
            return f"gauge factor {c!r} is not unimodular"
        dev = float(np.max(np.abs(U - c * matrix)))
        if not dev <= MATRIX_TOL:
            return f"U deviates from the gauged isometry by {dev:.3e}"
        if not payload["residual"] <= RECONSTRUCT_TOL:
            return f"residual {payload['residual']!r} above {RECONSTRUCT_TOL}"
        for s in payload["phase_samples"]:
            if not abs(abs(_scalar(s["sigma"])) - 1.0) <= RECONSTRUCT_TOL:
                return f"phase sample {s['sigma']!r} is not unimodular"
        return None

    return expect


def _expect_rejected(code: int, stdout: str) -> str | None:
    if code != 1:
        return f"exit {code}, expected 1"
    payload, err = _parse(stdout)
    if err:
        return err
    if payload.get("error") != "HypothesisViolation":
        return f"error {payload.get('error')!r}, expected HypothesisViolation"
    return None


def solve_ops(seed: int) -> list[Op]:
    """orth-check and sip-eval over a scale sweep, then reconstruct requests.

    Each (field, p, 10^k) cell gets one orth-check and one sip-eval, one on
    an orthogonal pair and one on a decisively non-orthogonal pair, with the
    dimension rotating through DIMS.  The margin tolerance is scaled with
    the inputs, so a scaled request is the unit-scale request up to a
    positive factor and has the same verdict.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    for fi, fld in enumerate(FIELDS):
        for pi, p in enumerate(SOLVE_PS):
            for ki, k in enumerate(SCALE_EXPS):
                n = DIMS[(pi + ki) % len(DIMS)]
                s = 10.0 ** k
                space = json.dumps(_space(fld, n, p), separators=(",", ":"))
                orth_first = (fi + pi + ki) % 2 == 0
                cell = {"field": fld, "p": p, "n": n, "scale_exp": k}
                for request in ("orth-check", "sip-eval"):
                    orthogonal = orth_first == (request == "orth-check")
                    x, y, yx = _pair(rng, fld, n, p, orthogonal)
                    xs, ys = x * s, y * s
                    info = dict(cell, orthogonal=orthogonal)
                    label = (f"{request} {fld} p={p:g} n={n} 1e{k} "
                             f"{'orth' if orthogonal else 'non-orth'}")
                    if request == "orth-check":
                        argv = ["orth-check", "--json", "--space", space,
                                "--x", _vec_json(xs), "--y", _vec_json(ys),
                                "--tol", repr(ORTH_TOL * s)]
                        expect = _expect_orth(orthogonal)
                    else:
                        # evaluates [y, x], fixed by the construction
                        argv = ["sip-eval", "--json", "--space", space,
                                "--x", _vec_json(ys), "--y", _vec_json(xs)]
                        bound = SIP_REL_TOL * ref_norm(x, p) * ref_norm(y, p) * s * s
                        expect = _expect_sip(yx * s * s, bound)
                    ops.append(Op(request, label, PAIR_LIMIT_S, argv=argv,
                                  expect=expect, edge=k != 0, info=info))
    ops.extend(_reconstruct_ops(rng))
    return ops


def _reconstruct_plans():
    """(field, p, n, map) of each reconstruct request.

    n = 2 and 5 cover both fields and every map; n = 16 is complex only,
    at p in {1.5, 2, 3}, 15 requests of similar cost: with the ten
    requests that hang at large scales they make up the slowest tenth of
    the pass, so ``op_p90_ms`` lands inside them.
    """
    plans = []
    for ni, n in enumerate(DIMS[:2]):
        for j, (fld, how) in enumerate([
                ("real", "linear"), ("real", "twisted"), ("complex", "linear"),
                ("complex", "conjugate"), ("complex", "twisted"),
                ("real", "double"), ("complex", "double")]):
            if how == "twisted" and fld == "complex" and ni == 1:
                how = "twisted conjugate"
            plans.append((fld, CHECK_PS[(ni + j) % len(CHECK_PS)], n, how))
    for p in CHECK_PS[:3]:
        for how in ("linear", "conjugate", "twisted", "twisted conjugate", "double"):
            plans.append(("complex", p, DIMS[2], how))
    return plans


def _reconstruct_ops(rng: np.random.Generator) -> list[Op]:
    """Accepted maps (linear, conjugate and phase-twisted specs) and ``double``."""
    ops = []
    for fld, p, n, how in _reconstruct_plans():
        if how == "double":
            m, expect = {"builtin": "double"}, _expect_rejected
        else:
            conjugate = how.endswith("conjugate")
            wire, matrix = _spec(rng, fld, n, conjugate)
            m = {"isometry": wire}
            if how.startswith("twisted"):
                m["phase_seed"] = _seed(rng)
            expect = _expect_reconstruct("conjugate_linear" if conjugate else "linear", matrix)
        ops.append(Op(
            "reconstruct", f"reconstruct {fld} p={p:g} n={n} {how}", MAP_LIMIT_S,
            argv=["reconstruct", "--config", "-", "--json", "--seed", str(_seed(rng))],
            stdin=json.dumps({"source": _space(fld, n, p), "map": m}, separators=(",", ":")),
            expect=expect, info={"field": fld, "p": p, "n": n, "map": how},
        ))
    return ops


WORKLOADS = {"gate": gate_ops, "check": check_ops, "solve": solve_ops}


def traffic(ops: list[Op]) -> dict:
    """Input properties of an operation list, for the run record."""
    kinds: dict[str, int] = {}
    scales: dict[str, int] = {}
    dims: dict[str, int] = {}
    samples: dict[str, int] = {}
    failing_maps = 0
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        if "scale_exp" in op.info:
            k = str(op.info["scale_exp"])
            scales[k] = scales.get(k, 0) + 1
        if "n" in op.info:
            d = str(op.info["n"])
            dims[d] = dims.get(d, 0) + 1
        if "samples" in op.info:
            s = str(op.info["samples"])
            samples[s] = samples.get(s, 0) + 1
        if op.info.get("verdict") == "fail" or op.info.get("map") == "double":
            failing_maps += 1
    total = len(ops)
    return {
        "operations": total,
        "kinds": kinds,
        "failing_map_share": failing_maps / total,
        "scale_exp_share": {k: v / total for k, v in scales.items()},
        "dims": dims,
        "samples": samples,
        "edge_share": sum(op.edge for op in ops) / total,
    }


def all_finite(stdout: str) -> bool:
    """True unless the JSON on stdout holds a NaN or infinite number."""
    try:
        stack = [json.loads(stdout)]
    except json.JSONDecodeError:
        return True
    while stack:
        v = stack.pop()
        if isinstance(v, float) and not math.isfinite(v):
            return False
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return True
