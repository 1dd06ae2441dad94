"""Exit codes, JSON payloads, and rerun determinism of the command line."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import sipwigner
from sipwigner.cli import main

LP3 = json.dumps({"field": "real", "dim": 2, "norm": {"lp": 3.0}})
FIX = json.dumps({"field": "real", "dim": 2, "norm": {"linf2_fixture": True}})
DEEP = "[" * 100_000  # nested past Python's recursion limit


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_an_overflowing_request_exits_2_with_one_error_line_and_no_warning(capsys):
    # the suite raises RuntimeWarnings as errors (pyproject.toml), so a numpy
    # warning on the way to the refusal would escape main
    code, out, err = run(capsys, ["sip-eval", "--space", LP3, "--x", "[1e150, 1]",
                                  "--y", "[1e150, 1]"])
    assert (code, out) == (2, "")
    assert err == "error: step must be a positive finite number, got inf\n"


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
        (DEEP, "[1,0]", "[1,1]"),
        (LP3, DEEP, "[1,1]"),
        (LP3, "[1,0]", DEEP),
    ):
        code, _, err = run(capsys, ["sip-eval", "--space", space, "--x", x, "--y", y])
        assert (code, err.count("\n")) == (2, 1), (space, x, y)


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
    # the bytes of a non-orthogonal complex pair, whose margin and minimizer
    # come from the complex sweeps of the minimizer on x and y each scaled
    # by its own power of two (x by 2^-1, y by 2^-1)
    code, out, err = run(capsys, ["orth-check", "--space",
                                  '{"field":"complex","dim":2,"norm":{"lp":3}}',
                                  "--x", '[1,{"re":0,"im":1}]',
                                  "--y", '[{"re":1,"im":1},0.5]', "--json"])
    assert (code, err) == (1, "")
    assert out == ('{"space":{"field":"complex","dim":2,"norm":{"lp":3}},'
                   '"x":[{"re":1,"im":0},{"re":0,"im":1}],'
                   '"y":[{"re":1,"im":1},{"re":0.5,"im":0}],"orthogonal":false,'
                   '"margin":-0.13743018052547673,'
                   '"minimizer":{"re":-0.41314662539884967,"im":0.065733105161608657},'
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
    for name, raw in (("broken.json", b"{not json"), ("utf16.json", b"\xff\xfe{}"),
                      ("deep.json", DEEP.encode())):
        (tmp_path / name).write_bytes(raw)
        code, _, err = run(capsys, ["check", "--config", str(tmp_path / name)])
        assert (code, err.startswith("input error: "), err.count("\n")) == (2, True, 1), name
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


CROSS_CHECK_ERRORS = {
    # each check applies its own argument rules before it reads the shared
    # samples, so the first check to refuse the request names the error
    "multiset-on-complex": ({"source": {"field": "complex", "dim": 3, "norm": {"lp": 3.0}},
                             "map": {"builtin": "identity"},
                             "checks": ["wigner", "phase_isometry_sets"]},
                            "error: the multiset criterion is a real-field check\n"),
    "linearity-then-wigner-on-swap": ({"map": {"builtin": "swap_linf2"},
                                       "checks": ["linearity", "wigner"]},
                                      "error: the map needs smooth (Lp) spaces on both ends\n"),
    "wigner-then-linearity-short-of-a-span": (
        {"source": {"field": "real", "dim": 5, "norm": {"lp": 3.0}},
         "map": {"builtin": "double"}, "samples": 3, "checks": ["wigner", "linearity"]},
        "error: samples must span the source space\n"),
}


@pytest.mark.parametrize("obj, message", CROSS_CHECK_ERRORS.values(),
                         ids=CROSS_CHECK_ERRORS.keys())
def test_a_multi_check_request_meets_its_first_error(tmp_path, capsys, obj, message):
    code, out, err = run(capsys, ["check", "--config", write_config(tmp_path, obj)])
    assert (code, out, err) == (2, "", message)


def test_a_repeated_check_gives_equal_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "source": {"field": "complex", "dim": 2, "norm": {"lp": 3.0}},
        "map": {"builtin": "double"}, "checks": ["wigner", "wigner"], "seed": 5,
    })
    code, out, _ = run(capsys, ["check", "--config", cfg, "--json"])
    first, second = json.loads(out)["reports"]
    assert code == 1 and first == second and first["verdict"] == "fail"


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
    # the README's RunConfig, conjugated, pinned by digest because the 64
    # phase samples make ~15 kB; U is the bytes of an earlier release
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
        '{"re":0,"im":-0}]],"residual":8.8427702691302752e-16,"gauge":"sigma(e_1)=1"')
    assert len(out) == 15229
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b94a39c2ac5b9fab6922853142b08f4dc6025da9bec15af84189c971916e712d")


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
    # the subprocess imports the package this process imported, with or without PYTHONPATH
    src = os.path.dirname(os.path.dirname(sipwigner.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sipwigner", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
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
    parser, _ = cli._build_parser()
    help_text = usage(main, ["--help"])
    assert run(capsys, ["orth-check", "--space", LP3,
                        "--x", "[1,1]", "--y", "[1,-1]", "--json"])[0] == 0
    second_error = usage(main, missing_y)
    assert cli._build_parser()[0] is parser
    assert first_error[0] == second_error[0] == 2
    assert first_error == second_error
    assert "the following arguments are required: --y" in first_error[2]
    assert help_text[0] == 0 and help_text[1].startswith("usage: sipwigner")
    # a parser built afresh prints the same bytes
    fresh, _ = cli._build_parser.__wrapped__()
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
    # the default (pretty) bytes of the pinned --json request above
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
    assert len(out) == 27753
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b8497649b91bcca5b0bb48ed1d40b91fa7e388c93f4c9d81c23bc07a242f8bda")


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


REFUSED = {
    "target-differs": ({"source": _SRC, "target": {**_SRC, "dim": 3}, "map": {"builtin": "identity"}},
                       "error: all bundled maps act on a single space; target must match source\n"),
    "seed-2**64": ({"source": _SRC, "map": {"builtin": "identity"}, "seed": 2 ** 64},
                   "error: seed must fit in an unsigned 64-bit integer\n"),
    "map-number": ({"source": _SRC, "map": 3}, 'error: config needs a "map" object\n'),
    "map-neither-key": ({"source": _SRC, "map": {}},
                        'error: map spec needs "builtin" or "isometry"\n'),
    # json writes NaN as the literal that the config parser takes
    "diag-nan": ({"source": _SRC, "map": {"isometry": {"perm": [2, 1], "diag": [float("nan"), 1.0]}}},
                 "error: diag entries must be unimodular, got nan\n"),
    "swap-on-lp": ({"source": _SRC, "map": {"builtin": "swap_linf2"}},
                   "error: builtin 'swap_linf2' lives on the two-dimensional max-norm "
                   "fixture plane\n"),
}


@pytest.mark.parametrize("obj, message", REFUSED.values(), ids=REFUSED.keys())
def test_refused_config_exits_2_with_its_reason(tmp_path, capsys, obj, message):
    for command in ("check", "reconstruct"):
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, obj)])
        assert (code, out, err) == (2, "", message), command


def test_config_from_stdin_matches_the_config_file(tmp_path, capsys, monkeypatch):
    obj = {"source": {"field": "complex", "dim": 2, "norm": {"lp": 3.0}},
           "map": {"builtin": "conjugation"}, "checks": ["wigner", "exact_preservation"],
           "seed": 5}
    from_file = run(capsys, ["check", "--config", write_config(tmp_path, obj), "--json"])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    assert run(capsys, ["check", "--config", "-", "--json"]) == from_file
    code, out, _ = from_file
    # conjugation keeps |[x, y]| but not [x, y] itself
    assert code == 1
    assert [r["verdict"] for r in json.loads(out)["reports"]] == ["pass", "fail"]


def test_selftest_table_has_one_aligned_row_per_criterion(capsys, monkeypatch):
    from sipwigner.acceptance import CriterionResult

    names = ["1_a", "2_bb", "3_ccc", "4_dddd", "5_e", "6a_f", "6b_gg", "7_hhhhhhh"]
    # patch the module that the imported main runs in, which a re-import of
    # sipwigner elsewhere in the session would not replace
    monkeypatch.setitem(main.__globals__, "run_all", lambda seed: [
        CriterionResult(name, name != "6b_gg", f"detail {k}", 0.0) for k, name in enumerate(names)])
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == [
        "PASS  1_a        detail 0",
        "PASS  2_bb       detail 1",
        "PASS  3_ccc      detail 2",
        "PASS  4_dddd     detail 3",
        "PASS  5_e        detail 4",
        "PASS  6a_f       detail 5",
        "FAIL  6b_gg      detail 6",
        "PASS  7_hhhhhhh  detail 7",
        "7/8 criteria passed",
    ]


HELP_AND_USAGE_SHA256 = {
    # --help of the top level and of each subcommand
    ("--help",): (0, "f167de31c9d48e479bce027b31f660abb9883e42d21c1d2fb3b0b4fc952db990"),
    ("sip-eval", "--help"):
        (0, "d7d596bc3793a58e495634d6771af3a598c1deb8034ab4e49a6ae7f0452c85c4"),
    ("orth-check", "--help"):
        (0, "a49aa0b9be890558e5ca6a25d207b5f93e965163fc3566c29f5d6143a785ff76"),
    ("check", "--help"): (0, "045469bf2ec7187584f2c6d26fd41e5e1a2b82b746df2b466ad64d7969f1fae6"),
    ("reconstruct", "--help"):
        (0, "b330642d0cad49b767d00b939185f86dcc968cb9364db14060f24954232fa499"),
    ("counterexample", "--help"):
        (0, "2a1ed03ccbfc592585025af6425403e130c2e671116e6facad7532413da96d8d"),
    ("selftest", "--help"):
        (0, "af5edeaf4c095a2297cb784b6826ec946cd05149fdd3ae6c3c481220240f2d12"),
    # one usage error per subcommand
    ("sip-eval", "--space", LP3, "--x", "[1]"):
        (2, "0ed308c38700212704a34e0399528e6fde13863a25297ca569c491baa8ab0949"),
    ("orth-check", "--space", LP3, "--x", "[1]", "--y", "[1]", "--tol", "x"):
        (2, "e633287032196a1563c26e063cbc5efde690fada52728224c7a2ec31fda19b03"),
    ("check",): (2, "a349a3de8e93d1555fff00b0957da3d3e76d6580fe09ea79e7105e9cf517da12"),
    ("reconstruct", "--config", "-", "--seed", "-1"):
        (2, "01bfd849fc067c187faa31114eb0fa043355d4c5254bf2d45b1b0cf6a9be33c9"),
    ("counterexample", "--seed", "1"):
        (2, "9d8bf4e0e2028c14b2a105bee6c770bbaa9c5d6cc90fc655396e904da6cf81d4"),
    ("selftest", "--seed", "abc"):
        (2, "b101f76773aa9e82a3587128e0fdf0fd72fd2f1f5b25d8166772a9e8c771fc1d"),
    # the requests that the top-level parser answers: no command, an
    # unknown one, an option before the command, and a stray argument
    # after a well-formed request
    (): (2, "939297a27b71d8b228583a188f75b0b3c20323dde367328eba93196759b2b466"),
    ("nope",): (2, "7fe8d79ee2fcac985fb9e7393553a468a515614b7b05c794d7cb581b62a31e38"),
    ("--json", "sip-eval", "--space", LP3, "--x", "[1,0]", "--y", "[1,1]"):
        (2, "6766988da1463bc6f98ee7a6356457efd4b473686adc1f2f40a86214b8b90a8a"),
    ("orth-check", "--space", LP3, "--x", "[1,1]", "--y", "[1,-1]", "extra"):
        (2, "3f88ab2c16273e2696f496addd515e0e35ed3aea7c02f00661f8ae9a7ed616aa"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the pinned bytes are those of Python 3.11's argparse")
@pytest.mark.parametrize("argv", list(HELP_AND_USAGE_SHA256), ids=" ".join)
def test_help_and_usage_bytes_are_pinned(capsys, monkeypatch, argv):
    # sha256 of stdout, a NUL, then stderr, at an 80-column terminal
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest()
    assert (info.value.code, digest) == HELP_AND_USAGE_SHA256[argv]


def test_main_reads_its_request_from_sys_argv(capsys, monkeypatch):
    expected = run(capsys, ["counterexample", "--json"])
    monkeypatch.setattr(sys, "argv", ["sipwigner", "counterexample", "--json"])
    assert run(capsys, None) == expected


def test_a_well_formed_request_is_parsed_once(capsys, monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    argv = ["orth-check", "--space", LP3, "--x", "[1,1]", "--y", "[1,-1]", "--json"]
    assert run(capsys, argv)[0] == 0
    assert calls == ["sipwigner orth-check"]
