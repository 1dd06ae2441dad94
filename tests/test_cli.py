"""Exit codes, JSON payloads, and rerun determinism of the command line."""

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
