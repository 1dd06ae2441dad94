"""Command-line front door.

Subcommands
-----------
sip-eval        evaluate [x, y] and cross-check it against the difference
                quotient of the norm; exit 3 at non-smooth points
orth-check      Birkhoff-James verdict for a pair; exit 1 when not orthogonal
check           run symmetry checkers from a RunConfig JSON file
reconstruct     recover (U, kind, phases) from a RunConfig map
counterexample  print the max-norm-plane witness that |[.,.]| preservation
                depends on the semi-inner product chosen for a non-smooth norm
selftest        run the acceptance suite and print a pass/fail table

Everything prints JSON (pretty by default, one line with --json) through
jsonio.dumps, so floats carry 17 significant digits and reruns with the same
seed are byte-identical.  The seed is taken from --seed, then the config
file, then the SIPWIGNER_SEED environment variable, then a fixed default.

Exit codes: 0 success / all checks passed; 1 a check failed, the pair is not
orthogonal, or reconstruction rejected the map; 2 usage, parse, or
unsupported-input errors; 3 the evaluation point is not a smooth point.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .acceptance import DEFAULT_SEED, run_all
from .errors import (
    ContractViolation,
    HypothesisViolation,
    KindAmbiguous,
    NonSmoothPoint,
    SolverError,
    UnsupportedField,
    UnsupportedSpace,
)
from .fixtures import (
    IsometrySpec,
    _seeded_phase,
    conjugation_oracle,
    default_samples,
    identity_oracle,
    make_isometry,
    make_phase_equivalent,
    scale_oracle,
    swap_counterexample,
)
from .jsonio import dumps, float_from_json, int_from_json, object_from_json, vec_from_json
from .orthogonality import bj_orthogonal
from .reconstruct import reconstruct
from .spaces import Space, Vector, _require_int, _require_tol, gateaux_sip_oracle, sip
from .wigner import (
    MapOracle,
    _one_preparation,
    check_exact_preservation,
    check_linearity,
    check_phase_isometry_sets,
    check_wigner,
)

CHECKS = {
    "wigner": check_wigner,
    "phase_isometry_sets": check_phase_isometry_sets,
    "exact_preservation": check_exact_preservation,
    "linearity": check_linearity,
}

# "example_1_1_T" is a wire-format alias kept for config compatibility;
# the canonical name of the same map is "swap_linf2".
SWAP_BUILTINS = ("swap_linf2", "example_1_1_T")
BUILTINS = ("identity", "double", "conjugation") + SWAP_BUILTINS


@dataclass(frozen=True)
class RunConfig:
    """Parsed contents of a --config file for check/reconstruct."""

    source: Space
    map_spec: dict
    checks: tuple[str, ...]
    tol: float
    samples: int
    seed: int | None

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        d = object_from_json(d, "config", ("map",),
                             ("source", "target", "checks", "tol", "samples", "seed"))
        map_spec = d["map"]
        if not isinstance(map_spec, dict):
            raise ContractViolation('config needs a "map" object')
        if "source" in d:
            source = Space.from_dict(d["source"])
        elif map_spec.get("builtin") in SWAP_BUILTINS:
            source = swap_counterexample()[0]
        else:
            raise ContractViolation('config needs a "source" space')
        if "target" in d and Space.from_dict(d["target"]) != source:
            raise ContractViolation("all bundled maps act on a single space; "
                                    "target must match source")
        checks = d.get("checks", ["wigner"])
        if not (isinstance(checks, list) and checks and all(isinstance(c, str) for c in checks)):
            raise ContractViolation("checks must be a non-empty JSON array of check names, "
                                    f"got {checks!r}")
        tol = float_from_json(d.get("tol", 1e-8))
        samples = int_from_json(d.get("samples", 16))
        bad = [c for c in checks if c not in CHECKS]
        if bad:
            raise ContractViolation(f"unknown checks {bad}; known: {sorted(CHECKS)}")
        _require_tol(tol)
        _require_int(samples, 2, "sample count")
        seed = d.get("seed")
        if seed is not None:
            seed = _u64(int_from_json(seed))
        return RunConfig(source, map_spec, tuple(checks), tol, samples, seed)


def _u64(v) -> int:
    """A seed from decimal text (--seed, SIPWIGNER_SEED) or a JSON integer."""
    try:
        n = int(v)
    except (TypeError, ValueError):
        raise ContractViolation(f"seed must be an integer, got {v!r}") from None
    if not 0 <= n < 2 ** 64:
        raise ContractViolation("seed must fit in an unsigned 64-bit integer")
    return n


def _resolve_seed(cli_seed, config_seed) -> int:
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return config_seed
    env = os.environ.get("SIPWIGNER_SEED")
    if env is not None:
        return _u64(env)
    return DEFAULT_SEED


def _resolve_map(cfg: RunConfig) -> MapOracle:
    spec = cfg.map_spec
    if "builtin" in spec:
        name = object_from_json(spec, "map", ("builtin",), ())["builtin"]
        if name not in BUILTINS:
            raise ContractViolation(f"unknown builtin {name!r}; known: {sorted(BUILTINS)}")
        if name in SWAP_BUILTINS:
            space, swap, _ = swap_counterexample()
            if cfg.source != space:
                raise ContractViolation(f"builtin {name!r} lives on the two-dimensional "
                                        "max-norm fixture plane")
            return swap
        if name == "identity":
            return identity_oracle(cfg.source)
        if name == "double":
            return scale_oracle(identity_oracle(cfg.source), 2.0)
        return conjugation_oracle(cfg.source)
    if "isometry" in spec:
        object_from_json(spec, "map", ("isometry",), ("phase_seed",))
        m = make_isometry(cfg.source, IsometrySpec.from_dict(spec["isometry"]))
        phase_seed = spec.get("phase_seed")
        if phase_seed is not None:
            m = make_phase_equivalent(m, _seeded_phase(cfg.source, _u64(int_from_json(phase_seed))))
        return m
    raise ContractViolation('map spec needs "builtin" or "isometry"')


class _InputError(Exception):
    """An argument or a config file that is not JSON text."""


def _from_json(source):
    """The value of one JSON input: the text of --space, --x or --y, or a
    config file open for reading.  Malformed JSON, a file that is not UTF-8
    and nesting past the recursion limit all raise _InputError."""
    try:
        return json.loads(source) if isinstance(source, str) else json.load(source)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _InputError(exc) from None


def _load_config(path: str) -> RunConfig:
    if path == "-":
        return RunConfig.from_dict(_from_json(sys.stdin))
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_dict(_from_json(fh))


def _map_request(args) -> tuple[RunConfig, int, float, MapOracle, dict]:
    """The config, seed, tol and map of a check or reconstruct request, and
    the head of its answer; --tol (else the config's tol) is checked before
    the map is built."""
    cfg = _load_config(args.config)
    seed = _resolve_seed(args.seed, cfg.seed)
    tol = cfg.tol if args.tol is None else args.tol
    _require_tol(tol)
    head = {"space": cfg.source.to_dict(), "map": cfg.map_spec, "seed": seed}
    return cfg, seed, tol, _resolve_map(cfg), head


def _emit(obj, args) -> None:
    print(dumps(obj, pretty=not args.json))


def _pair_request(args) -> tuple[Space, Vector, Vector, dict]:
    """The space and the vectors x, y of a sip-eval or orth-check request,
    and the head of its answer."""
    space = Space.from_dict(_from_json(args.space))
    x, y = vec_from_json(_from_json(args.x)), vec_from_json(_from_json(args.y))
    return space, x, y, {"space": space.to_dict(), "x": x, "y": y}


def cmd_sip_eval(args) -> int:
    space, x, y, head = _pair_request(args)
    value = sip(space, x, y)
    oracle = gateaux_sip_oracle(space, x, y)
    _emit({**head, "sip": value, "oracle": oracle, "abs_difference": abs(value - oracle)}, args)
    return 0


def cmd_orth_check(args) -> int:
    space, x, y, head = _pair_request(args)
    verdict = bj_orthogonal(space, x, y, tol=args.tol)
    _emit({**head, **verdict.to_dict()}, args)
    return 0 if verdict.orthogonal else 1


def cmd_check(args) -> int:
    cfg, seed, tol, m, head = _map_request(args)
    samples = default_samples(cfg.source, cfg.samples, seed)
    with _one_preparation():  # the map is called on the samples once for all checks
        reports = [CHECKS[name](m, samples, tol=tol, seed=seed) for name in cfg.checks]
    _emit({**head, "tol": tol, "reports": [r.to_dict() for r in reports]}, args)
    return 0 if all(r.passed for r in reports) else 1


def cmd_reconstruct(args) -> int:
    _, seed, tol, m, head = _map_request(args)
    _emit({**head, **reconstruct(m, tol=tol, seed=seed).to_dict()}, args)
    return 0


def cmd_counterexample(args) -> int:
    space, _, witness = swap_counterexample()
    _emit({
        "space": space.to_dict(),
        "map": {"builtin": "swap_linf2"},
        "note": "coordinate swap is a linear isometry, yet the chosen "
                "semi-inner product changes under it at these vectors",
        **witness.to_dict(),
    }, args)
    return 0


def cmd_selftest(args) -> int:
    results = run_all(_resolve_seed(args.seed, None))
    if args.json:
        # timings are excluded on purpose: same seed, same bytes
        print(dumps([{"name": r.name, "passed": r.passed} for r in results],
                    pretty=False))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) else 1


@functools.cache  # built on the first request, then reused
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="sipwigner",
        description="semi-inner products, Birkhoff-James orthogonality, and "
                    "phase-isometry checks on finite-dimensional normed spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true",
                       help="compact single-line JSON output")
        p.set_defaults(func=func)
        return p

    for name, func, help_ in (
        ("sip-eval", cmd_sip_eval, "evaluate [x, y] and its derivative oracle"),
        ("orth-check", cmd_orth_check, "decide Birkhoff-James orthogonality"),
    ):
        p = add(name, func, help_)
        p.add_argument("--space", required=True, help="space as JSON")
        p.add_argument("--x", required=True, help="vector as a JSON array")
        p.add_argument("--y", required=True, help="vector as a JSON array")
    p.add_argument("--tol", type=float, default=1e-7, help="margin tolerance")  # orth-check

    for name, func, help_ in (
        ("check", cmd_check, "run checkers from a RunConfig JSON file"),
        ("reconstruct", cmd_reconstruct, "recover the isometry behind a map"),
    ):
        p = add(name, func, help_)
        p.add_argument("--config", required=True, help="RunConfig path, - for stdin")
        p.add_argument("--seed", type=_u64, default=None)
        p.add_argument("--tol", type=float, default=None)

    add("counterexample", cmd_counterexample,
        "print the max-norm-plane swap witness")

    p = add("selftest", cmd_selftest, "run the acceptance criteria")
    p.add_argument("--seed", type=_u64, default=None)

    return parser, sub.choices


def main(argv=None) -> int:
    # A request that opens with its command is parsed once, by that
    # command's parser alone; every other request (no arguments, --help, an
    # unknown command, an option before the command) takes the top-level
    # parser.  Either way the usage and help bytes are those of parse_args.
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
    else:
        args = parser.parse_args(argv)
    try:
        # an overflow on the way to a refused input is no output: jsonio
        # refuses every non-finite value, so numpy's warning text is noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except NonSmoothPoint as exc:
        print(f"non-smooth point: {exc}", file=sys.stderr)
        return 3
    except (HypothesisViolation, KindAmbiguous, SolverError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["witness"] = witness
        _emit(payload, args)
        return 1
    except (ContractViolation, UnsupportedSpace, UnsupportedField) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
