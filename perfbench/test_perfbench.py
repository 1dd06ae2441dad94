"""Tests of the benchmark itself: inputs, judging, time limits, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
from types import SimpleNamespace

import pytest

import run as bench
import workloads as wl
from speed import REF_S, SpeedProbe
from tracer import Tracer

CLI, ACCEPTANCE = bench.import_program()


def _first(ops, kind, **info):
    return next(op for op in ops if op.kind == kind
                and all(op.info.get(k) == v for k, v in info.items()))


def _call(op):
    code, out, _ = bench.call_cli(CLI.main, op.argv, op.stdin)
    return code, out


def _requests(ops):
    return [(op.kind, op.label, op.argv, op.stdin, op.criterion) for op in ops]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_operation_list_is_fixed_by_the_seed(workload):
    make = wl.WORKLOADS[workload]
    assert _requests(make(5)) == _requests(make(5))
    # the seed changes the drawn inputs, never the shape of the list
    assert [op.label for op in make(5)] == [op.label for op in make(6)]
    if workload != "gate":
        assert _requests(make(5)) != _requests(make(6))


def test_flipped_verdicts_are_flagged():
    ops = wl.check_ops(3)
    op = _first(ops, "check", verdict="pass", samples=16)
    code, out = _call(op)
    assert op.expect(code, out) is None
    flipped = json.loads(out)
    flipped["reports"][0]["verdict"] = "fail"
    assert op.expect(code, json.dumps(flipped)) is not None
    assert op.expect(1, out) is not None

    orth = _first(wl.solve_ops(3), "orth-check", scale_exp=0, orthogonal=True)
    code, out = _call(orth)
    assert orth.expect(code, out) is None
    assert orth.expect(1, out.replace('"orthogonal":true', '"orthogonal":false')) is not None


def test_nan_sip_is_flagged():
    op = _first(wl.solve_ops(3), "sip-eval", scale_exp=0, orthogonal=False)
    code, out = _call(op)
    assert op.expect(code, out) is None and wl.all_finite(out)
    payload = json.loads(out)
    payload["sip"] = math.nan
    corrupted = json.dumps(payload)
    assert op.expect(code, corrupted) is not None
    assert not wl.all_finite(corrupted)


def test_timeout_stops_the_operation_and_fails_it():
    def spin(argv):
        while True:
            pass

    op = wl.Op("orth-check", "spins forever", 0.05, argv=[], expect=lambda c, o: None)
    runner = bench.Runner(SimpleNamespace(main=spin), ACCEPTANCE, [op], seed=1)
    runner.run_pass()
    (outcome,) = runner.outcomes
    assert outcome.reason.startswith("timed out")
    assert 0.05 <= outcome.elapsed_s < 1.0
    failures = bench.failure_listing([op], runner.outcomes)
    assert not bench.runner_correct(runner, failures)
    op.edge = True
    assert bench.runner_correct(runner, bench.failure_listing([op], runner.outcomes))


def _fake_gate(outcomes):
    """An acceptance module whose criteria return canned results.

    ``outcomes`` maps a criterion to (passed, elapsed_s, passed_without_budget).
    """
    def criterion(name):
        passed, elapsed, unbudgeted = outcomes.get(name, (True, 0.01, True))

        def fn(cfg):
            budget = wl.BUDGETS.get(name)
            ok = unbudgeted if budget and math.isinf(getattr(cfg, budget)) else passed
            return SimpleNamespace(name=name, passed=ok, detail="canned", elapsed_s=elapsed)
        return fn

    fake = SimpleNamespace(GateConfig=ACCEPTANCE.GateConfig)
    for op in wl.gate_ops(0):
        setattr(fake, op.criterion, criterion(op.criterion))
    return fake


def _gate_ok_frac(outcomes):
    ops = wl.gate_ops(9)
    runner = bench.Runner(None, _fake_gate(outcomes), ops, seed=9)
    walls = [runner.run_pass()]
    return bench.end_to_end(0.1, walls, runner.outcomes)["ok_frac"], runner.outcomes


def test_gate_with_6b_red_and_the_rest_green_has_no_failures():
    ok_frac, outcomes = _gate_ok_frac({wl.EXPECTED_RED: (False, 0.01, False)})
    assert ok_frac == 1.0
    assert not any(o.budget_miss for o in outcomes)


def test_gate_budget_miss_is_not_a_failure():
    ok_frac, outcomes = _gate_ok_frac({
        wl.EXPECTED_RED: (False, 0.01, False),
        "criterion_2_closed_form_vs_oracle": (False, 5.2, True),
    })
    assert ok_frac == 1.0
    assert sum(o.budget_miss for o in outcomes) == 1


@pytest.mark.parametrize("outcomes", [
    {wl.EXPECTED_RED: (True, 0.01, True)},
    {wl.EXPECTED_RED: (False, 0.01, False), "criterion_4_checker_verdicts": (False, 3.0, False)},
    {wl.EXPECTED_RED: (False, 0.01, False),
     "criterion_2_closed_form_vs_oracle": (False, 5.2, False)},
])
def test_gate_red_criteria_are_failures(outcomes):
    ok_frac, _ = _gate_ok_frac(outcomes)
    assert ok_frac == 7 / 8


def test_repeated_passes_must_print_the_same_bytes():
    op = _first(wl.check_ops(4), "check", verdict="fail", samples=16)
    calls = []

    def main(argv):
        calls.append(1)
        return CLI.main(argv) if len(calls) == 1 else (print("{}") or 1)

    runner = bench.Runner(SimpleNamespace(main=main), ACCEPTANCE, [op], seed=4)
    op.expect = lambda code, out: None
    runner.run_pass()
    runner.run_pass()
    assert runner.outcomes[0].reason is None
    assert runner.outcomes[1].reason == "stdout differs from an earlier pass"
    assert runner.nondeterministic


def test_tracer_spans_self_time_and_counts():
    ops = [_first(wl.check_ops(2), "check", verdict="pass", samples=16),
           _first(wl.solve_ops(2), "orth-check", scale_exp=0)]
    original_sip, original_check = CLI.sip, CLI.CHECKS["wigner"]
    tracer = Tracer()
    tracer.install()
    assert CLI.sip is not original_sip and CLI.CHECKS["wigner"] is not original_check
    tracer.uninstall()
    assert CLI.sip is original_sip and CLI.CHECKS["wigner"] is original_check

    runner = bench.Runner(CLI, ACCEPTANCE, ops, seed=2, tracer=tracer)
    runner.run_pass()
    assert CLI.sip is original_sip
    assert len(runner.traced_outcomes) == len(runner.outcomes) == 2
    assert all(o.reason is None for o in runner.outcomes + runner.traced_outcomes)

    layers = tracer.layer_metrics(1)
    samples = ops[0].info["samples"]
    checks = json.loads(ops[0].stdin)["checks"]
    expected_pairs = sum({"wigner": samples ** 2, "exact_preservation": samples ** 2,
                          "phase_isometry_sets": samples * (samples + 1) // 2,
                          "linearity": 50}[c] for c in checks)
    assert layers["wigner.pairs"] == expected_pairs
    assert layers["cli.main.calls"] == 2
    assert layers["orthogonality.bj_orthogonal.calls"] == 1
    # every norm_fn evaluation is charged to exactly one open span
    nfev = sum(v for k, v in layers.items() if k.endswith(".nfev"))
    assert nfev == layers["spaces.norm_evals"] > 0
    for name, (calls, total, self_s, _) in tracer.stats.items():
        assert 0.0 <= self_s <= total + 1e-9, name
    main_total = tracer.stats["cli.main"][1]
    assert sum(s[2] for s in tracer.stats.values()) == pytest.approx(main_total, rel=1e-6)


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_speed_probe_rescales_to_the_reference_speed():
    probe = SpeedProbe()
    # samples at t = 1.0 and 1.5 ran at half speed; t = 3.0 at full speed
    probe.starts = [1.0, 1.5, 3.0]
    probe.durations = [2 * REF_S, 2 * REF_S, REF_S]
    # the loop's own time comes out, the rest counts at half speed
    assert probe.scaled(0.9, 2.0) == pytest.approx((1.1 - 4 * REF_S) / 2)
    # no sample inside: the neighbours on either side set the speed
    assert probe.scaled(2.0, 2.3) == pytest.approx(0.3 / 1.5)
    assert SpeedProbe().scaled(0.0, 0.5) == 0.5
