"""Exit codes, JSON payloads, and rerun determinism of the command line."""

import hashlib
import json
import subprocess
import sys

import pytest

from sipwigner.cli import main

LP3 = json.dumps({"field": "real", "dim": 2, "norm": {"lp": 3.0}})
FIX = json.dumps({"field": "real", "dim": 2, "norm": {"linf2_fixture": True}})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_sip_eval_reports_value_oracle_and_gap(capsys):
    code, out, _ = run(capsys, ["sip-eval", "--space", LP3,
                                "--x", "[1,0]", "--y", "[1,1]", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sip"] == pytest.approx(2.0 ** (-1 / 3), rel=1e-14)
    assert payload["abs_difference"] < 1e-7


def test_sip_eval_nonsmooth_point_exits_3(capsys):
    code, out, err = run(capsys, ["sip-eval", "--space", FIX,
                                  "--x", "[1,0]", "--y", "[1,1]"])
    assert code == 3
    assert "non-smooth" in err


def test_sip_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, ["sip-eval", "--space", "{bad",
                                "--x", "[1,0]", "--y", "[1,1]"])
    assert code == 2
    for space, x, y in (
        (LP3, "[1,0,0]", "[1,1]"),
        (LP3, "[NaN,0]", "[1,1]"),
        (LP3, "[1,0]", "[Infinity,1]"),
        (json.dumps({"field": "real", "dim": 2, "norm": {"lp": "abc"}}), "[1,0]", "[1,1]"),
        (json.dumps({"field": "real", "dim": 2, "norm": {"lp": None}}), "[1,0]", "[1,1]"),
        # dim takes JSON integers only, never a truncated float, string or bool
        (json.dumps({"field": "real", "dim": 2.7, "norm": {"lp": 3}}), "[1,0]", "[1,1]"),
        (json.dumps({"field": "real", "dim": "2", "norm": {"lp": 3}}), "[1,0]", "[1,1]"),
        (json.dumps({"field": "real", "dim": True, "norm": {"lp": 3}}), "[1]", "[1]"),
    ):
        code, _, err = run(capsys, ["sip-eval", "--space", space, "--x", x, "--y", y])
        assert code == 2, (space, x, y)


def test_orth_check_exit_codes(capsys):
    code, out, _ = run(capsys, ["orth-check", "--space", LP3,
                                "--x", "[1,1]", "--y", "[1,-1]", "--json"])
    assert code == 0
    assert json.loads(out)["orthogonal"] is True
    code, out, _ = run(capsys, ["orth-check", "--space", LP3,
                                "--x", "[1,1]", "--y", "[1,1]", "--json"])
    assert code == 1
    assert json.loads(out)["margin"] < 0
    # non-finite input is a usage error, not a failed orthogonality decision
    code, _, err = run(capsys, ["orth-check", "--space", LP3,
                                "--x", "[NaN,1]", "--y", "[1,-1]"])
    assert code == 2
    assert "finite" in err


def test_orth_check_json_carries_no_counters(capsys):
    # OrthVerdict.nfev is a dataclass field only: stdout keeps its bytes
    code, out, _ = run(capsys, ["orth-check", "--space", LP3,
                                "--x", "[1,1]", "--y", "[1,-1]", "--json"])
    assert code == 0
    assert out == ('{"space":{"field":"real","dim":2,"norm":{"lp":3}},"x":[1,1],'
                   '"y":[1,-1],"orthogonal":true,"margin":0,"minimizer":0,'
                   '"flat_minimizer":false}\n')


def test_complex_orth_check_output_is_pinned(capsys):
    # bytes of an earlier release: a non-orthogonal complex pair, whose
    # margin and minimizer come from the complex sweeps of the minimizer
    code, out, err = run(capsys, ["orth-check", "--space",
                                  '{"field":"complex","dim":2,"norm":{"lp":3}}',
                                  "--x", '[1,{"re":0,"im":1}]',
                                  "--y", '[{"re":1,"im":1},0.5]', "--json"])
    assert (code, err) == (1, "")
    assert out == ('{"space":{"field":"complex","dim":2,"norm":{"lp":3}},'
                   '"x":[{"re":1,"im":0},{"re":0,"im":1}],'
                   '"y":[{"re":1,"im":1},{"re":0.5,"im":0}],"orthogonal":false,'
                   '"margin":-0.13743018052547684,'
                   '"minimizer":{"re":-0.41314663760588088,"im":0.065733117368639904},'
                   '"flat_minimizer":false}\n')


def test_check_identity_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "complex", "dim": 3, "norm": {"lp": 3.0}},
        "map": {"builtin": "identity"},
        "checks": ["wigner", "exact_preservation", "linearity"],
        "seed": 5,
    })
    code, out, _ = run(capsys, ["check", "--config", cfg, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert [r["verdict"] for r in payload["reports"]] == ["pass"] * 3


def test_check_doubled_map_fails_with_witness(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "real", "dim": 2, "norm": {"lp": 1.5}},
        "map": {"builtin": "double"}, "seed": 5,
    })
    code, out, _ = run(capsys, ["check", "--config", cfg, "--json"])
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["verdict"] == "fail"
    assert report["witness"] is not None


def test_check_isometry_spec_with_phase_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "complex", "dim": 2, "norm": {"lp": 2.0}},
        "map": {"isometry": {"perm": [2, 1],
                             "diag": [{"re": 0.0, "im": 1.0},
                                      {"re": -1.0, "im": 0.0}],
                             "conjugate_first": False},
                "phase_seed": 11},
        "checks": ["wigner"], "seed": 5,
    })
    code, out, _ = run(capsys, ["check", "--config", cfg, "--json"])
    assert code == 0


def test_check_fixture_swap_is_unsupported_for_wigner(tmp_path, capsys):
    cfg = write_config(tmp_path, {"map": {"builtin": "example_1_1_T"}})
    code, _, err = run(capsys, ["check", "--config", cfg])
    assert code == 2
    assert "smooth" in err


def test_check_config_validation_exit_2(tmp_path, capsys):
    bad = [
        {"map": {"builtin": "identity"}},  # missing source
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "no-such-map"}},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "identity"}, "checks": ["no-such-check"]},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "identity"}, "samples": 1},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "identity"}, "tol": 0.0},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": "abc"}},
         "map": {"builtin": "identity"}},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": None}},
         "map": {"builtin": "identity"}},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "identity"}, "samples": "many"},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "identity"}, "tol": "x"},
        {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
         "map": {"builtin": "identity"}, "checks": 5},
        {"source": {"field": "complex", "dim": 1, "norm": {"lp": 2.0}},
         "map": {"isometry": {"perm": [1], "diag": [{"re": "a"}]}}},
    ]
    # integer fields take JSON integers only, never a truncated float, string or bool
    for bad_int in (2.7, "2", True):
        bad += [
            {"source": {"field": "real", "dim": bad_int, "norm": {"lp": 3.0}},
             "map": {"builtin": "identity"}},
            {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
             "map": {"builtin": "identity"}, "samples": bad_int},
            {"source": {"field": "real", "dim": 1, "norm": {"lp": 2.0}},
             "map": {"isometry": {"perm": [bad_int], "diag": [1.0]}}},
        ]
    # diagonal weights are JSON numbers or {"re", "im"} objects, never strings or bools
    for bad_weight in ("1", True):
        bad.append({"source": {"field": "real", "dim": 1, "norm": {"lp": 2.0}},
                    "map": {"isometry": {"perm": [1], "diag": [bad_weight]}}})
    # seeds are JSON integers, never a truncated float or a string
    for bad_seed in (2.7, "2"):
        bad += [
            {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
             "map": {"builtin": "identity"}, "seed": bad_seed},
            {"source": {"field": "real", "dim": 1, "norm": {"lp": 2.0}},
             "map": {"isometry": {"perm": [1], "diag": [1.0]}, "phase_seed": bad_seed}},
        ]
    # conjugate_first is a JSON bool: the string "false" must not build a conjugate map
    bad.append({"source": {"field": "complex", "dim": 2, "norm": {"lp": 2.0}},
                "map": {"isometry": {"perm": [1, 2], "diag": [1.0, 1.0],
                                     "conjugate_first": "false"}}})
    for obj in bad:
        code, _, err = run(capsys, ["check", "--config", write_config(tmp_path, obj)])
        assert code == 2, obj
    (tmp_path / "broken.json").write_text("{not json")
    code, _, _ = run(capsys, ["check", "--config", str(tmp_path / "broken.json")])
    assert code == 2
    code, _, _ = run(capsys, ["check", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_seed_precedence_flag_over_config_over_env(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {
        "source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
        "map": {"builtin": "identity"}, "seed": 5,
    })
    monkeypatch.setenv("SIPWIGNER_SEED", "99")
    code, out, _ = run(capsys, ["check", "--config", cfg, "--json", "--seed", "7"])
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out, _ = run(capsys, ["check", "--config", cfg, "--json"])
    assert json.loads(out)["seed"] == 5
    cfg_no_seed = write_config(tmp_path, {
        "source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
        "map": {"builtin": "identity"},
    }, name="noseed.json")
    code, out, _ = run(capsys, ["check", "--config", cfg_no_seed, "--json"])
    assert json.loads(out)["seed"] == 99
    monkeypatch.setenv("SIPWIGNER_SEED", "not-a-number")
    code, _, _ = run(capsys, ["check", "--config", cfg_no_seed, "--json"])
    assert code == 2


def test_check_output_is_byte_identical_across_reruns(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "complex", "dim": 3, "norm": {"lp": 1.5}},
        "map": {"isometry": {"perm": [3, 1, 2],
                             "diag": [{"re": 0.0, "im": 1.0},
                                      {"re": 1.0, "im": 0.0},
                                      {"re": -1.0, "im": 0.0}],
                             "conjugate_first": True},
                "phase_seed": 4},
        "checks": ["wigner"], "seed": 12,
    })
    _, first, _ = run(capsys, ["check", "--config", cfg, "--json"])
    _, second, _ = run(capsys, ["check", "--config", cfg, "--json"])
    assert first == second


def test_reconstruct_identity_gives_identity_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
        "map": {"builtin": "identity"}, "seed": 5,
    })
    code, out, _ = run(capsys, ["reconstruct", "--config", cfg, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "linear"
    assert payload["residual"] <= 1e-8
    matrix = payload["matrix"]
    assert matrix[0][0] == pytest.approx(1.0, abs=1e-9)
    assert matrix[0][1] == pytest.approx(0.0, abs=1e-9)


def test_reconstruct_double_map_violates_hypotheses(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
        "map": {"builtin": "double"}, "seed": 5,
    })
    code, out, _ = run(capsys, ["reconstruct", "--config", cfg, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "HypothesisViolation"
    assert "witness" in payload


def test_complex_reconstruct_output_is_pinned(tmp_path, capsys):
    # the README's RunConfig, conjugated: bytes of an earlier release, pinned
    # by digest because the 64 phase samples make ~15 kB
    cfg = write_config(tmp_path, {
        "source": {"field": "complex", "dim": 3, "norm": {"lp": 1.5}},
        "map": {"isometry": {"perm": [3, 1, 2],
                             "diag": [{"re": 0, "im": 1}, {"re": -1, "im": 0},
                                      {"re": 1, "im": 0}],
                             "conjugate_first": True},
                "phase_seed": 11},
        "checks": ["wigner", "linearity"], "tol": 1e-8, "samples": 20, "seed": 7,
    })
    code, out, err = run(capsys, ["reconstruct", "--config", cfg, "--json"])
    assert (code, err) == (0, "")
    head = out[:out.index(',"phase_samples"')]
    assert head.endswith(
        '"seed":7,"kind":"conjugate_linear","matrix":['
        '[{"re":0,"im":-0},{"re":0,"im":-0},'
        '{"re":0.99998273704065632,"im":-0.0058758506343193446}],'
        '[{"re":0.005875850634319179,"im":0.99998273704065666},'
        '{"re":0,"im":-0},{"re":0,"im":-0}],'
        '[{"re":0,"im":-0},{"re":-0.0058758506343191998,"im":-0.99998273704065688},'
        '{"re":0,"im":-0}]],"residual":1.3836080204126784e-15,"gauge":"sigma(e_1)=1"')
    assert len(out) == 15211
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "038f40e8ede1df6678f0956386dc93cd0c6206557e55b4c818fc2f3a4003160a")


def test_counterexample_prints_the_rational_witness(capsys):
    code, first, _ = run(capsys, ["counterexample", "--json"])
    assert code == 0
    payload = json.loads(first)
    assert payload["exact"] == {"sip_x_y": "3/4", "sip_Tx_Ty": "1/4"}
    assert payload["sip_x_y"] == 0.75
    code, second, _ = run(capsys, ["counterexample", "--json"])
    assert first == second


def test_selftest_reports_the_known_red_criterion(capsys):
    code, out, _ = run(capsys, ["selftest", "--json"])
    assert code == 1  # 6b is red by design: -identity preserves the form
    results = {r["name"]: r["passed"] for r in json.loads(out)}
    assert results.pop("6b_minus_identity") is False
    assert all(results.values())


def test_module_invocation_matches_in_process_output(capsys):
    argv = ["counterexample", "--json"]
    code, out, _ = run(capsys, argv)
    proc = subprocess.run([sys.executable, "-m", "sipwigner", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_one_parser_serves_every_request_without_leaking_state(tmp_path, capsys):
    from sipwigner import cli

    def usage(call, argv):
        with pytest.raises(SystemExit) as info:
            call(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    missing_y = ["orth-check", "--space", LP3, "--x", "[1,0]"]
    first_error = usage(main, missing_y)
    parser = cli._build_parser()
    help_text = usage(main, ["--help"])
    assert run(capsys, ["orth-check", "--space", LP3,
                        "--x", "[1,1]", "--y", "[1,-1]", "--json"])[0] == 0
    second_error = usage(main, missing_y)
    assert cli._build_parser() is parser
    assert first_error[0] == second_error[0] == 2
    assert first_error == second_error
    assert "the following arguments are required: --y" in first_error[2]
    assert help_text[0] == 0 and help_text[1].startswith("usage: sipwigner")
    # a parser built afresh prints the same bytes
    fresh = cli._build_parser.__wrapped__()
    assert usage(fresh.parse_args, missing_y) == first_error
    assert usage(fresh.parse_args, ["--help"]) == help_text

    # a flag given to one request does not carry over to the next
    cfg = {"source": {"field": "real", "dim": 2, "norm": {"lp": 3.0}},
           "map": {"builtin": "identity"}, "tol": 1e-6, "seed": 5}
    path = write_config(tmp_path, cfg)
    code, out, _ = run(capsys, ["check", "--config", path, "--json", "--tol", "1e-3"])
    assert (code, json.loads(out)["tol"]) == (0, 1e-3)
    code, out, _ = run(capsys, ["check", "--config", path, "--json"])
    assert (code, json.loads(out)["tol"]) == (0, 1e-6)


def test_complex_reconstruct_pretty_output_is_pinned(tmp_path, capsys):
    # the default (pretty) bytes of the pinned --json request above, taken
    # from the encoder this one replaced
    cfg = write_config(tmp_path, {
        "source": {"field": "complex", "dim": 3, "norm": {"lp": 1.5}},
        "map": {"isometry": {"perm": [3, 1, 2],
                             "diag": [{"re": 0, "im": 1}, {"re": -1, "im": 0},
                                      {"re": 1, "im": 0}],
                             "conjugate_first": True},
                "phase_seed": 11},
        "checks": ["wigner", "linearity"], "tol": 1e-8, "samples": 20, "seed": 7,
    })
    code, out, err = run(capsys, ["reconstruct", "--config", cfg])
    assert (code, err) == (0, "")
    assert len(out) == 27735
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bd1213cac624214bcfad86dc67f8e00c73cc2c32dba99e25d64de8656e12b094")


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_2_before_any_work(tmp_path, capsys, monkeypatch, tol):
    from sipwigner import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a map was built despite a non-finite tol")

    monkeypatch.setattr(cli, "_resolve_map", no_work)
    source = {"field": "real", "dim": 2, "norm": {"lp": 3.0}}
    cfg = write_config(tmp_path, {"source": source, "map": {"builtin": "double"}})
    bad_cfg = tmp_path / "bad.json"
    # JSON has no literal for inf or nan: 1e400 overflows, NaN is Python's extension
    bad_cfg.write_text('{"source": %s, "map": {"builtin": "identity"}, "tol": %s}'
                       % (json.dumps(source), "1e400" if tol == "inf" else "NaN"))
    for argv in (
        ["orth-check", "--space", LP3, "--x", "[1,0]", "--y", "[1,1]", "--tol", tol],
        ["check", "--config", cfg, "--tol", tol],
        ["reconstruct", "--config", cfg, "--tol", tol],
        ["check", "--config", str(bad_cfg)],
        ["reconstruct", "--config", str(bad_cfg)],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "error: tol must be positive and finite\n"), argv



_SRC = {"field": "real", "dim": 2, "norm": {"lp": 3.0}}
_ISO = {"perm": [2, 1], "diag": [1.0, -1.0]}
MALFORMED = {
    # wire numbers are JSON numbers: no bools, no numeric strings, none past the float range
    "tol-bool": {"source": _SRC, "map": {"builtin": "identity"}, "tol": True},
    "tol-string": {"source": _SRC, "map": {"builtin": "identity"}, "tol": "1e-3"},
    "tol-huge-int": {"source": _SRC, "map": {"builtin": "identity"}, "tol": 10 ** 400},
    "lp-string": {"source": {**_SRC, "norm": {"lp": "3"}}, "map": {"builtin": "identity"}},
    "re-string": {"source": {"field": "complex", "dim": 1, "norm": {"lp": 2.0}},
                  "map": {"isometry": {"perm": [1], "diag": [{"re": "1"}]}}},
    # checks are a non-empty JSON array of check names
    "checks-nested": {"source": _SRC, "map": {"builtin": "identity"}, "checks": [["wigner"]]},
    "checks-empty": {"source": _SRC, "map": {"builtin": "identity"}, "checks": []},
    "checks-string": {"source": _SRC, "map": {"builtin": "identity"}, "checks": "wigner"},
    # no wire object takes a key it does not know
    "isometry-typo": {"source": _SRC, "map": {"isometry": {**_ISO, "conjugate": True}}},
    "builtin-with-isometry": {"source": _SRC, "map": {"builtin": "identity", "phase_seed": 5,
                                                      "isometry": _ISO}},
    "space-extra-key": {"source": {**_SRC, "shape": "round"}, "map": {"builtin": "identity"}},
    "norm-two-kinds": {"source": {**_SRC, "norm": {"lp": 2, "linf2_fixture": True}},
                       "map": {"builtin": "identity"}},
}


@pytest.mark.parametrize("obj", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2_with_an_error_line(tmp_path, capsys, obj):
    for command in ("check", "reconstruct"):
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, obj)])
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and err.count("\n") == 1, err
