"""End-to-end benchmark of sipwigner, with an opt-in traced run per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload {gate,check,solve} --seed N \
        --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout this file sits in and
driven only through its public functions and ``cli.main``, in this one
process, by one closed-loop caller: each request is sent after the previous
one has returned.  A run repeats passes over the workload's fixed operation
list until the next pass would end past ``--seconds`` (at least one pass for
``gate``, two for the others, so repeated requests can be compared byte for
byte).  Every output is checked against how its input was built.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then traced, and reports the per-module numbers of
the traced runs; the spans are written under ``perfbench/results/`` with
the run record.  The last line of stdout is the result object.  BLAS and
OpenMP thread pools are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from speed import REF_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPS = 5

CRITERIA = [op.criterion for op in wl.gate_ops(0)]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def _layer_names() -> dict[str, str]:
    names = {}
    for base in ("spaces.sip", "spaces.norm", "spaces.gateaux_sip_oracle"):
        names[f"{base}.calls"] = "count"
        names[f"{base}.self_s"] = "s"
    names["spaces.norm_evals"] = "count"
    for fn in ("bj_orthogonal", "minimize_scalar", "best_coeffs"):
        for suffix, unit in (("calls", "count"), ("self_s", "s"), ("nfev", "count")):
            names[f"orthogonality.{fn}.{suffix}"] = unit
    for fn in ("check_wigner", "check_phase_isometry_sets",
               "check_exact_preservation", "check_linearity"):
        names[f"wigner.{fn}.calls"] = "count"
        names[f"wigner.{fn}.self_s"] = "s"
    names["wigner.pairs"] = "count"
    names["wigner.MapOracle.calls"] = "count"
    for fn in ("reconstruct", "recover_pair_coeffs", "detect_kind", "reproduction_residual"):
        names[f"reconstruct.{fn}.calls"] = "count"
        names[f"reconstruct.{fn}.self_s"] = "s"
    names["reconstruct.rejects"] = "count"
    names["fixtures.seeded_phase.evals"] = "count"
    names["fixtures.seeded_phase.self_s"] = "s"
    names["fixtures.default_samples.self_s"] = "s"
    names["jsonio.dumps.calls"] = "count"
    names["jsonio.dumps.self_s"] = "s"
    names["jsonio.dumps.bytes"] = "bytes"
    names["cli.main.self_s"] = "s"
    for crit in CRITERIA:
        names[f"acceptance.{crit.removeprefix('criterion_')}_s"] = "s"
    names["acceptance.budget_misses"] = "count"
    names["trace.overhead_frac"] = "frac"
    return names


PER_LAYER = _layer_names()
# per-layer metrics named differently from the tracer's aggregate keys
_LAYER_ALIASES = {"fixtures.seeded_phase.evals": "fixtures.seeded_phase.calls"}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


def timed(fn, limit_s: float):
    """Run ``fn()`` under a wall-clock limit: (status, value, start, end)."""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            status, value = "ok", fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status, value = "timeout", None
    except Exception as exc:  # the operation's boundary: record and go on
        status, value = "error", exc
    return status, value, t0, perf_counter()


def call_cli(main, argv, stdin):
    """``main(argv)`` with stdin fed from a string; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def import_program():
    """Fresh import of sipwigner from this checkout's ``src``."""
    if not (SRC / "sipwigner" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sipwigner sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sipwigner" or n.startswith("sipwigner.")]:
        del sys.modules[name]
    cli = importlib.import_module("sipwigner.cli")
    acceptance = importlib.import_module("sipwigner.acceptance")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: sipwigner imported from {cli.__file__}, not {SRC}")
    return cli, acceptance


@dataclasses.dataclass
class Outcome:
    index: int
    elapsed_s: float
    reason: str | None
    budget_miss: bool = False


class Runner:
    """Runs passes over one operation list and judges every output.

    With a tracer, each operation runs untraced and then traced, back to
    back, so that slow drift in machine speed cancels out of the tracing
    overhead; the traced runs land in ``traced_outcomes``.
    """

    def __init__(self, cli, acceptance, ops, seed, tracer=None, probe=None):
        self.cli = cli
        self.acceptance = acceptance
        self.ops = ops
        self.seed = seed
        self.tracer = tracer
        self.probe = probe
        self.first_stdout: dict[int, str] = {}
        self.outcomes: list[Outcome] = []
        self.traced_outcomes: list[Outcome] = []
        self.nondeterministic = False
        signal.signal(signal.SIGALRM, _alarm)

    def run_passes(self, seconds: float, min_passes: int) -> list[float]:
        """Passes until the next one would end past ``seconds``."""
        walls = []
        start = last = perf_counter()
        while True:
            walls.append(self.run_pass())
            now = perf_counter()
            if len(walls) >= min_passes and now - start + (now - last) > seconds:
                return walls
            last = now

    def run_pass(self) -> float:
        """One pass; returns the sum of its untraced operation latencies.

        The benchmark's own judging between requests, and re-judging a
        criterion without its budget, are not part of it.
        """
        wall = 0.0
        for i, op in enumerate(self.ops):
            outcome = self._run(i, op, traced=False)
            self.outcomes.append(outcome)
            wall += outcome.elapsed_s
            if self.tracer:
                self.tracer.begin(i)
                self.tracer.install()
                if self.probe:  # its samples would land in the spans
                    self.probe.stop()
                try:
                    self.traced_outcomes.append(self._run(i, op, traced=True))
                finally:
                    self.tracer.uninstall()
                    if self.probe:
                        self.probe.start()
        return wall

    def _elapsed(self, op, status, t0, t1) -> float:
        """An operation's time at the reference speed; a timeout costs its limit."""
        if status == "timeout":
            return op.limit_s
        return self.probe.scaled(t0, t1) if self.probe else t1 - t0

    def _run(self, i, op, traced: bool) -> Outcome:
        return self._criterion(i, op, traced) if op.criterion else self._request(i, op)

    def _request(self, i, op) -> Outcome:
        status, value, t0, t1 = timed(
            lambda: call_cli(self.cli.main, op.argv, op.stdin), op.limit_s)
        elapsed = self._elapsed(op, status, t0, t1)
        if status == "timeout":
            return Outcome(i, elapsed, f"timed out after {op.limit_s:g}s")
        if status == "error":
            return Outcome(i, elapsed, f"uncaught {type(value).__name__}: {value}")
        code, out, err = value
        reason = op.expect(code, out)
        if reason is None and not wl.all_finite(out):
            reason = "non-finite number in output"
        if reason is not None and err.strip():
            reason += f" (stderr: {err.strip().splitlines()[-1][:200]})"
        if reason is None:
            first = self.first_stdout.setdefault(i, out)
            if first != out:
                self.nondeterministic = True
                reason = "stdout differs from an earlier pass"
        return Outcome(i, elapsed, reason)

    def _criterion(self, i, op, traced: bool) -> Outcome:
        cfg = self.acceptance.GateConfig(seed=self.seed)
        if traced:  # the traced run judges no budgets
            cfg = dataclasses.replace(cfg, **{b: math.inf for b in wl.BUDGETS.values()})
        fn = getattr(self.acceptance, op.criterion)
        status, result, t0, t1 = timed(lambda: fn(cfg), op.limit_s)
        elapsed = self._elapsed(op, status, t0, t1)
        if status == "timeout":
            return Outcome(i, elapsed, f"timed out after {op.limit_s:g}s")
        if status == "error":
            return Outcome(i, elapsed, f"uncaught {type(result).__name__}: {result}")
        if op.criterion == wl.EXPECTED_RED:
            return Outcome(i, elapsed, "passed, but its premise is false" if result.passed
                           else None)
        if result.passed:
            return Outcome(i, elapsed, None)
        budget = wl.BUDGETS.get(op.criterion)
        if budget is None or result.elapsed_s < getattr(cfg, budget):
            return Outcome(i, elapsed, f"red: {result.detail}")
        # over budget only? judge it again without the budget, outside the pass
        if fn(dataclasses.replace(cfg, **{budget: math.inf})).passed:
            return Outcome(i, elapsed, None, budget_miss=True)
        return Outcome(i, elapsed, f"red: {result.detail}")


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def end_to_end(setup_s, walls, outcomes) -> dict[str, float]:
    times_ms = [o.elapsed_s * 1e3 for o in outcomes]
    failed = sum(o.reason is not None for o in outcomes)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_p50_ms": float(np.percentile(times_ms, 50)),
        "op_p90_ms": float(np.percentile(times_ms, 90)),
        "ok_frac": 1.0 - failed / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner, passes: int) -> dict[str, float]:
    """Per-pass layer numbers from the traced runs, plus untraced criterion times."""
    layers = runner.tracer.layer_metrics(passes)
    values = {name: layers.get(_LAYER_ALIASES.get(name, name), 0.0) for name in PER_LAYER}
    for i, op in enumerate(runner.ops):
        if op.criterion:
            times = [o.elapsed_s for o in runner.outcomes if o.index == i]
            values[f"acceptance.{op.criterion.removeprefix('criterion_')}_s"] = (
                statistics.median(times))
    values["acceptance.budget_misses"] = sum(o.budget_miss for o in runner.outcomes) / passes
    values["trace.overhead_frac"] = (sum(o.elapsed_s for o in runner.traced_outcomes)
                                     / sum(o.elapsed_s for o in runner.outcomes) - 1.0)
    return values


def failure_listing(ops, outcomes) -> list[dict]:
    by_op: dict[int, dict] = {}
    for o in outcomes:
        if o.reason is None:
            continue
        op = ops[o.index]
        entry = by_op.setdefault(o.index, {
            "label": op.label, "edge": op.edge, "reason": o.reason, "times": 0,
            "input": op.info, "argv": op.argv, "stdin": op.stdin})
        entry["times"] += 1
    return [by_op[i] for i in sorted(by_op)]


def runner_correct(runner, failures) -> bool:
    """Outputs repeat byte for byte, and only edge-scale requests failed."""
    return not runner.nondeterministic and all(f["edge"] for f in failures)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        return run(args, probe)
    finally:
        probe.stop()


def run(args, probe) -> int:
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        cli, acceptance = import_program()
        ops = wl.WORKLOADS[args.workload](args.seed)
        setup_times.append(probe.scaled(t0, perf_counter()))
    setup_s = statistics.median(setup_times)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_info(), "traffic": wl.traffic(ops),
              "setup_times_s": setup_times}
    runner = Runner(cli, acceptance, ops, args.seed, Tracer() if args.trace else None, probe)
    walls = runner.run_passes(args.seconds, 1 if args.trace or args.workload == "gate" else 2)
    record["pass_walls"] = walls
    record["probe_slowdown"] = {
        "samples": len(probe.durations),
        "quartiles": statistics.quantiles([d / REF_S for d in probe.durations], n=4)}
    if args.trace:
        values, units = per_layer(runner, len(walls)), PER_LAYER
        record["trace"] = runner.tracer.dump()
    else:
        values, units = end_to_end(setup_s, walls, runner.outcomes), END_TO_END

    outcomes = runner.outcomes + runner.traced_outcomes
    failures = failure_listing(ops, outcomes)
    failed = sum(o.reason is not None for o in outcomes)
    correct = runner_correct(runner, failures)
    record.update(correct=correct, attempted=len(outcomes), failed=failed,
                  failures=failures, metrics=values, op_median_ms={
                      op.label: statistics.median(o.elapsed_s * 1e3 for o in runner.outcomes
                                                  if o.index == i)
                      for i, op in enumerate(ops)})

    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls)} "
          f"attempted={len(outcomes)} failed={failed} record={out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
