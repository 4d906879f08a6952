import json
import subprocess
import sys

import pytest

from qseidel import cli
from qseidel.suites import SuiteResult

GOLDEN_ROOTS_A2 = (
    '{"cartan": [[2, -1], [-1, 2]], "involution": [2, 1], '
    '"minuscule": [1, 2], "positive_roots": [[0, 1], [1, 0], [1, 1]], '
    '"rank": 2, "theta": [1, 1], "type": "A2"}'
)

GOLDEN_TABLE_P2 = """type A2  I_P=[1]
  e       * sigma(1) = 1
  e       * sigma(s[1]) = s[1]
  e       * sigma(s[2.1]) = s[2.1]
  tau_1   * sigma(1) = s[1]
  tau_1   * sigma(s[1]) = s[2.1]
  tau_1   * sigma(s[2.1]) = q1*1
  tau_2   * sigma(1) = s[2.1]
  tau_2   * sigma(s[1]) = q1*1
  tau_2   * sigma(s[2.1]) = q1*s[1]
"""

UNIT_P2 = ('{"type":"A2","parabolic":[1],'
           '"terms":[{"w":[],"q":[0],"coeff":{"0,0":1}}]}')


def test_roots_json_golden(capsys):
    assert cli.run(["roots", "A2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_ROOTS_A2 + "\n"


def test_roots_text_mentions_theta(capsys):
    assert cli.run(["roots", "B2"]) == 0
    out = capsys.readouterr().out
    assert "theta: 1 2" in out
    assert "minuscule nodes: 1" in out


def test_output_is_byte_stable(capsys):
    cli.run(["roots", "D4", "--format", "json"])
    first = capsys.readouterr().out
    cli.run(["roots", "D4", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_seidel_table_golden(capsys):
    assert cli.run(["seidel-table", "A2", "--parabolic", "1"]) == 0
    assert capsys.readouterr().out == GOLDEN_TABLE_P2


def test_seidel_table_json(capsys):
    assert cli.run(["seidel-table", "A2", "--parabolic", "1",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["rows"]) == 9
    last = data["rows"][-1]
    assert last["z"] == 2
    assert last["product"]["terms"] == [
        {"w": [1], "q": [1], "coeff": {"0,0": 1}}]


def test_weyl_counts(capsys):
    assert cli.run(["weyl", "A2", "--parabolic", "1",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3
    assert data["minreps"] == [[], [1], [2, 1]]
    assert data["v_elements"] == {"1": [2, 1], "2": [1, 2]}


def test_qprod_seidel(capsys):
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", UNIT_P2,
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"] == [{"coeff": {"0,0": 1}, "q": [0], "w": [2, 1]}]


def test_qprod_chevalley(capsys):
    cls = UNIT_P2.replace('"w":[]', '"w":[1]')
    assert cli.run(["qprod", "chevalley", "-j", "1", "--class", cls]) == 0
    assert capsys.readouterr().out == "s[2.1]\n"


def test_qprod_wrong_flag_is_usage_error(capsys):
    assert cli.run(["qprod", "seidel", "-j", "1", "--class", UNIT_P2]) == 2
    assert "needs -i" in capsys.readouterr().err


def test_affine_commands(capsys):
    elt = '{"w": [1, 2], "lambda": [-1, -1]}'
    assert cli.run(["affine", "length", "A2", "--elt", elt,
                    "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"length": 2}
    assert cli.run(["affine", "decompose", "A2", "--elt", elt,
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["central"] is None
    assert data["hat_word"] == [2, 0]
    assert cli.run(["affine", "pi-p", "A2", "--elt", elt,
                    "--parabolic", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pi_p"] == {"lambda": [-1, -1], "w": [1, 2]}
    assert data["residual"] == {"lambda": [0, 0], "w": []}


def test_affine_pi_p_without_parabolic_errors(capsys):
    elt = '{"w": [], "lambda": [0, 0]}'
    assert cli.run(["affine", "pi-p", "A2", "--elt", elt]) == 2
    assert "parabolic" in capsys.readouterr().err


def test_elt_from_file(tmp_path, capsys):
    path = tmp_path / "elt.json"
    path.write_text('{"w": [1], "lambda": [0, 0]}')
    assert cli.run(["affine", "length", "A2", "--elt", str(path)]) == 0
    assert capsys.readouterr().out == "length 1\n"


def test_unknown_type_is_usage_error(capsys):
    assert cli.run(["roots", "E9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_is_usage_error(capsys):
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", "{bad"]) == 2
    capsys.readouterr()


def test_invalid_choice_is_usage_error(capsys):
    assert cli.run(["verify", "--suite", "nonexistent"]) == 2
    capsys.readouterr()


def test_verify_small_suite(capsys):
    assert cli.run(["verify", "--suite", "v-elements",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["suites"][0]["name"] == "v-elements"
    assert data["suites"][0]["checks"] > 0


def test_verify_reports_equivariant_findings(capsys):
    assert cli.run(["verify", "--suite", "equivariant",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    findings = data["suites"][0]["findings"]
    assert len(findings) == 2
    assert any("2*w1" in f for f in findings)


def test_verify_config_file(tmp_path, capsys):
    cfg = {"suite": "v-elements", "types": ["A1", "A2"], "format": "json"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(["verify", "--config", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True


def test_verify_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suiet": "psi"}')
    assert cli.run(["verify", "--config", str(path)]) == 2
    capsys.readouterr()


def test_verify_failure_exits_one(monkeypatch, capsys):
    bad = SuiteResult(name="length")
    bad.check(False, "synthetic failure")
    monkeypatch.setattr(cli, "run_suites", lambda cfg: [bad])
    assert cli.run(["verify", "--suite", "length"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "synthetic failure" in out


def test_no_floats_in_output(capsys):
    for argv in (["roots", "A2", "--format", "json"],
                 ["seidel-table", "A2", "--parabolic", "1", "--format",
                  "json"],
                 ["verify", "--suite", "v-elements", "--format", "json"]):
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        data = json.loads(out)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(k)
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(data)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qseidel.cli", "roots", "A1", "--format",
         "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["type"] == "A1"


@pytest.mark.parametrize("elt", [
    '{"w": [], "lambda": [0.5, 0]}',
    '{"w": [], "lambda": [1.0, 0]}',
    '{"w": [], "lambda": [true, 0]}',
    '{"w": [], "lambda": ["1", 0]}',
    '{"w": "12", "lambda": [0, 0]}',
    '{"w": [1.0], "lambda": [0, 0]}',
    '{"w": [false], "lambda": [0, 0]}',
])
def test_affine_rejects_non_integers(elt, capsys):
    for action in ("length", "decompose"):
        assert cli.run(["affine", action, "A2", "--elt", elt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


@pytest.mark.parametrize("field, value", [
    ("w", "[1.0]"), ("w", '"1"'), ("q", "[0.5]"), ("q", "[true]"),
    ("coeff", '{"0,0": 1.7}'), ("coeff", '{"0,0": true}'),
    ("coeff", '{"0,0": "2"}'),
])
def test_qprod_rejects_non_integers(field, value, capsys):
    term = {"w": "[1]", "q": "[0]", "coeff": '{"0,0": 1}'}
    term[field] = value
    cls = ('{"type": "A2", "parabolic": [1], "terms": [{'
           + ", ".join(f'"{k}": {v}' for k, v in term.items()) + "}]}")
    assert cli.run(["qprod", "chevalley", "-j", "1", "--class", cls]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_qprod_q_needs_one_exponent_per_node(capsys):
    cls = UNIT_P2.replace('"q":[0]', '"q":[0, 0]')
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", cls]) == 2
    assert "quantum node" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("radius", 1.0), ("radius", True), ("seed", "3"), ("max_rank", 2.5),
    ("expansion_cap", False), ("parabolic", [1.0]), ("parabolic", "1"),
    ("types", "A2"), ("types", ["A2", 3]),
])
def test_verify_config_rejects_non_integers(key, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "v-elements", key: value}))
    assert cli.run(["verify", "--config", str(path)]) == 2
    assert "must be" in capsys.readouterr().err


def test_verify_config_caps_expansion_at_the_engine_bound(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "nilhecke", "types": ["A1"], "expansion_cap": 9}')
    assert cli.run(["verify", "--config", str(path)]) == 2
    assert "expansion_cap must be at most 8" in capsys.readouterr().err
    path.write_text('{"suite": "nilhecke", "types": ["A1"], "expansion_cap": 4}')
    assert cli.run(["verify", "--config", str(path)]) == 0


def test_verify_config_has_no_weyl_cap(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "v-elements", "weyl_cap": 100}')
    assert cli.run(["verify", "--config", str(path)]) == 2
    assert "weyl_cap" in capsys.readouterr().err


def test_verify_empty_radius_is_not_a_pass(capsys):
    assert cli.run(["verify", "--suite", "hat", "--radius", "-1"]) == 1
    captured = capsys.readouterr()
    assert "hat: EMPTY checks=0" in captured.out
    assert "verify: FAIL" in captured.out
    assert "hat made no checks" in captured.err


def test_verify_names_types_a_rank_cap_skipped(capsys):
    assert cli.run(["verify", "--suite", "psi", "--types", "A4",
                    "--format", "json"]) == 1
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["ok"] is False
    assert data["suites"][0]["checks"] == 0
    assert "psi skipped by rank cap: A4" in captured.err
    assert "psi made no checks" in captured.err


def test_verify_partial_skip_still_passes(capsys):
    assert cli.run(["verify", "--suite", "v-elements", "--types", "A1",
                    "A4", "--max-rank", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("verify: ok\n")
    assert "v-elements skipped by rank cap: A4" in captured.err


def test_verify_all_passes_when_one_suite_does_not_apply(capsys):
    # intertwine caps rank at 2 and psi has no box at radius 0: both make
    # no check on A3, which under "all" is not a failure
    assert cli.run(["verify", "--types", "A3", "--radius", "0"]) == 0
    captured = capsys.readouterr()
    assert "intertwine: ok checks=0" in captured.out
    assert "psi: ok checks=0" in captured.out
    assert captured.out.endswith("verify: ok\n")
    assert "intertwine skipped by rank cap: A3" in captured.err
    assert "made no checks" not in captured.err


@pytest.mark.parametrize("cls", [
    '{"type": 2, "parabolic": [1]}',
    '{"type": ["A2"], "parabolic": [1]}',
    '{"type": "A2", "parabolic": [1], "terms": [5]}',
    '{"type": "A2", "parabolic": [1], "terms": {"w": []}}',
    '{"type": "A2", "parabolic": [1], "terms": [{"w": [], "q": [0], "coeff": [1]}]}',
])
def test_qprod_malformed_class_is_usage_error(cls, capsys):
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", cls]) == 2
    assert "error:" in capsys.readouterr().err


def test_elt_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "elt.json"
    path.write_text("[1, 2]")
    assert cli.run(["affine", "length", "A2", "--elt", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err
