import json
import os
import subprocess
import sys
import time

import pytest

from qseidel import affine, cli, qh, weyl
from qseidel.rootsys import build_root_system
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


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_repeated_seidel_table_reads_the_memo_and_prints_the_same_bytes(fmt, capsys):
    argv = ["seidel-table", "D4", "--parabolic", "1"] + fmt
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    before = qh._seidel_term.cache_info()
    assert cli.run(argv) == 0
    after = qh._seidel_term.cache_info()
    assert capsys.readouterr().out == first
    # |W^P| = 8 rows for each of the three central elements besides e
    assert (after.hits - before.hits, after.misses - before.misses) == (24, 0)


@pytest.mark.parametrize("argv", [
    ["seidel-table", "A2", "--parabolic", "1", "1"],
    ["weyl", "A2", "--parabolic", "2", "1", "2"],
    ["affine", "pi-p", "A2", "--elt", '{"w": [], "lambda": [0, 0]}', "--parabolic", "1", "1"],
    ["qprod", "seidel", "-i", "1", "--class", UNIT_P2.replace('"parabolic":[1]', '"parabolic":[1,1]')],
    ["verify", "--suite", "commutation", "--types", "A2", "--parabolic", "1", "1"],
    ["verify", "--suite", "v-elements", "--types", "A2", "--parabolic", "1", "1"],
])
def test_repeated_parabolic_nodes_are_a_usage_error(argv, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "distinct" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "v-elements", "--types", "A2", "--parabolic", "5"],
    ["verify", "--suite", "seidel-table", "--parabolic", "9"],
    ["verify", "--suite", "commutation", "--types", "A2", "--parabolic", "5"],
    ["verify", "--suite", "orbit", "--types", "B3", "A2", "--parabolic", "3"],
    ["verify", "--suite", "v-elements", "--types", "A2", "--parabolic", "0"],
])
def test_verify_refuses_a_parabolic_node_past_the_rank(argv, capsys):
    # refused for every suite, whether or not it builds a parabolic set
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parabolic nodes must lie in" in captured.err


def test_weyl_counts(capsys):
    assert cli.run(["weyl", "A2", "--parabolic", "1",
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3
    assert data["minreps"] == [[], [1], [2, 1]]
    assert data["v_elements"] == {"1": [2, 1], "2": [1, 2]}
    assert cli.run(["weyl", "E7", "--parabolic", "7", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 56


@pytest.mark.parametrize("command", ["weyl", "seidel-table"])
def test_weyl_and_seidel_table_echo_the_sorted_parabolic(command, capsys):
    # I_P is echoed as the set it is, not in the order typed: the output is
    # the same bytes as for the sorted list, and the table's products agree
    for fmt in ([], ["--format", "json"]):
        assert cli.run([command, "A3", "--parabolic", "3", "1", *fmt]) == 0
        out = capsys.readouterr().out
        assert cli.run([command, "A3", "--parabolic", "1", "3", *fmt]) == 0
        assert capsys.readouterr().out == out
        if fmt:
            data = json.loads(out)
            assert data["parabolic"] == [1, 3]
            assert all(row["product"]["parabolic"] == [1, 3] for row in data.get("rows", []))
        else:
            assert out.startswith("type A3  I_P=[1, 3]")


def _enumeration_cache_sizes():
    return tuple(f.cache_info().currsize for f in (weyl.enumerate_weyl, weyl.enumerate_minreps))


@pytest.mark.parametrize("argv", [["weyl", "E8"], ["weyl", "E8", "--parabolic", "1", "2", "3"]])
def test_weyl_refuses_an_enumeration_above_the_cap_before_it_starts(argv, capsys):
    # |W(E8)| = 696,729,600, and |W^P| = 967,680 with I_P = {1, 2, 3}: 232M
    # root-permutation entries, though below the old cap of 2^21 elements
    before = _enumeration_cache_sizes()
    t0 = time.perf_counter()
    assert cli.run(argv) == 2
    assert time.perf_counter() - t0 < 10
    assert "exceed the enumeration cap" in capsys.readouterr().err
    assert _enumeration_cache_sizes() == before


def test_verify_commutation_on_e7_enumerates_no_weyl_group(capsys):
    before = weyl.enumerate_weyl.cache_info().currsize
    assert cli.run(["verify", "--suite", "commutation", "--types", "E7",
                    "--parabolic", "7", "--max-rank", "7"]) == 0
    assert capsys.readouterr().out == (
        "commutation: ok checks=56 failures=0 findings=0\nverify: ok\n")
    assert weyl.enumerate_weyl.cache_info().currsize == before


def test_qprod_seidel(capsys):
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", UNIT_P2,
                    "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"] == [{"coeff": {"0,0": 1}, "q": [0], "w": [2, 1]}]


@pytest.mark.parametrize("coeff, want", [
    (', "coeff": {}', "0"),
    (', "coeff": {"0,0": 0}', "0"),
    ('', "s[2.1]"),
])
def test_qprod_coeff_object_is_a_polynomial(coeff, want, capsys):
    # {} is the zero polynomial, as SPoly.to_json writes it; no coeff means 1
    cls = ('{"type": "A2", "parabolic": [1], "terms": [{"w": [], "q": [0]'
           + coeff + '}]}')
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", cls]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_qprod_chevalley(capsys):
    cls = UNIT_P2.replace('"w":[]', '"w":[1]')
    assert cli.run(["qprod", "chevalley", "-j", "1", "--class", cls]) == 0
    assert capsys.readouterr().out == "s[2.1]\n"


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_repeated_qprod_chevalley_reads_the_memo_and_prints_the_same_bytes(fmt, capsys):
    cls = json.dumps({"type": "B3", "parabolic": [1, 3], "terms": [
        {"w": [1], "q": [0, 1], "coeff": {"1,0,0": 2}},
        {"w": [3, 2, 1], "q": [0, 0]}]})
    argv = ["qprod", "chevalley", "-j", "3", "--equivariant", "--class", cls] + fmt
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    before = qh._chevalley_row.cache_info()
    assert cli.run(argv) == 0
    after = qh._chevalley_row.cache_info()
    assert capsys.readouterr().out == first
    # one row per input term, each already in the memo
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def test_qprod_wrong_flag_is_usage_error(capsys):
    assert cli.run(["qprod", "seidel", "-j", "1", "--class", UNIT_P2]) == 2
    assert "needs -i" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_qprod_seidel_refuses_equivariant(fmt, capsys):
    # the equivariant Seidel operator is not defined yet; the flag is not ignored
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", UNIT_P2,
                    "--equivariant"] + fmt) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no equivariant form" in captured.err


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


@pytest.mark.parametrize("name, elt, text, payload", [
    ("A2", '{"w": [1], "lambda": [-1, 0]}',
     'central node: 1\nhat = {"lambda": [-1, -1], "w": [1, 2, 1]}\nhat word: [0]\n',
     '{"central": 1, "hat": {"lambda": [-1, -1], "w": [1, 2, 1]}, "hat_word": [0]}\n'),
    ("D4", '{"w": [2, 4], "lambda": [1, 0, -1, 0]}',
     'central node: 4\nhat = {"lambda": [1, -1, -1, 1], "w": [2, 4, 2, 3, 1, 2]}\n'
     'hat word: [2, 1, 0, 2, 4, 0, 2, 1]\n',
     '{"central": 4, "hat": {"lambda": [1, -1, -1, 1], "w": [2, 4, 2, 3, 1, 2]}, '
     '"hat_word": [2, 1, 0, 2, 4, 0, 2, 1]}\n'),
])
def test_affine_decompose_off_the_coroot_lattice_prints_the_central_node(
        name, elt, text, payload, capsys):
    for fmt, want in (("text", text), ("json", payload)):
        assert cli.run(["affine", "decompose", name, "--elt", elt, "--format", fmt]) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("action", ["length", "pi-p", "decompose"])
def test_affine_refuses_a_lambda_of_the_wrong_rank(action, capsys):
    for lam in ([-1], [-1, 0, 0]):
        elt = json.dumps({"w": [1], "lambda": lam})
        assert cli.run(["affine", action, "A2", "--elt", elt, "--parabolic", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: lambda has wrong rank\n"


def test_affine_decompose_refuses_a_word_above_the_cap_before_any_letter(monkeypatch, capsys):
    peeled = []
    real = affine._affine_descent
    monkeypatch.setattr(affine, "_affine_descent",
                        lambda rs, perm, lam: peeled.append(perm) or real(rs, perm, lam))
    elt = json.dumps({"w": [], "lambda": [10**9, 0]})
    assert cli.run(["affine", "decompose", "A2", "--elt", elt]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert f"cap of {affine.AFFINE_WORD_CAP} letters" in out.err
    assert peeled == []
    # A2, lambda = (1000, 0): the hat part has a word of 2000 letters, under the cap.
    elt = json.dumps({"w": [], "lambda": [1000, 0]})
    assert cli.run(["affine", "decompose", "A2", "--elt", elt, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["hat_word"]) == len(peeled) == 2000


@pytest.mark.parametrize("bad", [
    ["verify", "--suite", "nonexistent"],
    ["qprod", "seidel", "-i", "1", "-j", "1", "--class", UNIT_P2],
    ["affine", "length", "A2"],
    ["qprod", "seidel", "-j", "1", "--class", UNIT_P2],
    [],
])
def test_parser_is_built_once_and_a_usage_error_leaves_no_state(bad, capsys):
    assert cli.build_parser() is cli.build_parser()
    good = ["qprod", "seidel", "-i", "1", "--class", UNIT_P2]
    assert cli.run(good) == 0
    first = capsys.readouterr()
    assert cli.run(bad) == 2
    err = capsys.readouterr().err
    assert cli.run(bad) == 2
    assert capsys.readouterr().err == err
    assert cli.run(good) == 0
    assert capsys.readouterr() == first


def test_affine_length_in_e7_and_e8_enumerates_nothing(capsys):
    # |W(E8)| = 696,729,600: the length must come from the element alone.
    before = weyl.enumerate_weyl.cache_info().currsize
    for name, lam, want in (("E8", [0] * 7 + [1], 65), ("E7", [0] * 6 + [1], 34)):
        elt = json.dumps({"w": [1, 2, 3, 4, 5, 6, 7], "lambda": lam})
        assert cli.run(["affine", "length", name, "--elt", elt]) == 0
        assert capsys.readouterr().out == f"length {want}\n"
        assert weyl.enumerate_weyl.cache_info().currsize == before


def test_affine_pi_p_without_parabolic_errors(capsys):
    elt = '{"w": [], "lambda": [0, 0]}'
    assert cli.run(["affine", "pi-p", "A2", "--elt", elt]) == 2
    assert "parabolic" in capsys.readouterr().err


def test_affine_pi_p_on_e7_enumerates_no_parabolic_subgroup(monkeypatch, capsys):
    # W_P is W(E6), 51,840 elements, for I_P = {7}; every enumeration of W,
    # W_P or W^P walks weyl._closure
    walks = []
    real = weyl._closure

    def counted(rs, roots):
        walks.append(len(roots))
        return real(rs, roots)

    monkeypatch.setattr(weyl, "_closure", counted)
    before = _enumeration_cache_sizes()
    elt = {"w": [7, 6, 5, 4, 2], "lambda": [0, 0, 0, 0, 0, 0, 10**6]}
    argv = ["affine", "pi-p", "E7", "--parabolic", "7", "--elt", json.dumps(elt)]
    assert cli.run(argv) == 0
    text = capsys.readouterr().out
    assert text.startswith("pi_P(x) = ")
    assert cli.run(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert _enumeration_cache_sizes() == before
    assert walks == []
    rs = build_root_system("E7")
    p = weyl.parabolic(rs, (7,))
    x1, x2 = (affine.ExtAffElt(weyl.from_word(rs, data[k]["w"]), tuple(data[k]["lambda"]))
              for k in ("pi_p", "residual"))
    assert affine.is_wpaff(x1, p) and affine.in_parabolic_aff(x2, p)
    assert affine.aff_mul(x1, x2) == affine.ExtAffElt(weyl.from_word(rs, elt["w"]),
                                                      tuple(elt["lambda"]))


@pytest.mark.parametrize("argv, unused", [
    (["seidel-table", "A2", "--parabolic", "1"], "qh_to_json"),
    (["seidel-table", "A2", "--parabolic", "1", "--format", "json"], "qh_text"),
    (["qprod", "seidel", "-i", "1", "--class", UNIT_P2], "qh_to_json"),
    (["qprod", "seidel", "-i", "1", "--class", UNIT_P2, "--format", "json"], "qh_text"),
])
def test_commands_render_only_the_format_they_print(argv, unused, monkeypatch, capsys):
    want = cli.run(argv), capsys.readouterr().out

    def unused_renderer(*_):
        raise AssertionError(f"{unused} called")

    monkeypatch.setattr(cli, unused, unused_renderer)
    assert (cli.run(argv), capsys.readouterr().out) == want


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


def test_verify_flags_override_the_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "psi", "types": ["A1"], "format": "json"}')
    assert cli.run(["verify", "--config", str(path), "--suite", "v-elements",
                    "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "v-elements: ok checks=2 failures=0 findings=0\nverify: ok\n")


def test_verify_refuses_a_bad_file_value_that_a_flag_overrides(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "hat", "types": ["A1"], "radius": -1}')
    assert cli.run(["verify", "--config", str(path), "--radius", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "radius must be non-negative" in captured.err


def test_verify_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suiet": "psi"}')
    assert cli.run(["verify", "--config", str(path)]) == 2
    capsys.readouterr()


def test_verify_failure_exits_one(monkeypatch, capsys):
    bad = SuiteResult(name="length")
    bad.check(False, lambda: "synthetic failure")
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
    # pytest's pythonpath setting reaches this process only, so the child is
    # pointed at the checkout's src/ through PYTHONPATH
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "qseidel.cli", "roots", "A1", "--format",
         "json"],
        capture_output=True, text=True, env=env)
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


def test_affine_refuses_an_unknown_element_key(capsys):
    for action in ("length", "pi-p", "decompose"):
        argv = ["affine", action, "A2", "--elt", '{"w": [], "lambda": [0, 0], "x": 1}',
                "--parabolic", "1"]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown element key 'x'" in captured.err


@pytest.mark.parametrize("field, value", [
    ("w", "[1.0]"), ("w", '"1"'), ("q", "[0.5]"), ("q", "[true]"),
    ("coeff", '{"0,0": 1.7}'), ("coeff", '{"0,0": true}'),
    ("coeff", '{"0,0": "2"}'), ("coeff", '{"-1,0": 1}'),
    ("coeff", '{"1_0,0": 1}'), ("coeff", '{" 1,+0": 1}'),
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
    ("seed", False), ("parabolic", [1.0]), ("parabolic", "1"),
    ("types", "A2"), ("types", ["A2", 3]), ("format", "xml"),
    ("format", ["json"]), ("suite", "no-such-suite"), ("suite", ["all"]),
    ("types", []), ("parabolic", []), ("parabolic", [1, 1]), ("types", ["A2", "A2"]),
])
def test_verify_config_rejects_non_integers(key, value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "v-elements", key: value}))
    assert cli.run(["verify", "--config", str(path)]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['["suite", "v-elements"]', '3', '"v-elements"', 'null'])
def test_verify_config_rejects_a_non_object(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.run(["verify", "--config", str(path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_verify_config_refuses_expansion_cap(tmp_path, capsys):
    # the nil Hecke suite always expands up to nilhecke.EXPANSION_CAP; a
    # lower cap would only verify less
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "nilhecke", "types": ["A1"], "expansion_cap": 8}')
    assert cli.run(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config key 'expansion_cap'" in captured.err


def test_verify_orbit_on_a_type_of_rank_above_the_catalog(capsys):
    # |P_vee/Q_vee| comes from the type, not from a table of the catalog
    assert cli.run(["verify", "--suite", "orbit", "--types", "B4",
                    "--parabolic", "1"]) == 0
    assert "orbit: ok" in capsys.readouterr().out


def test_verify_config_has_no_weyl_cap(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"suite": "v-elements", "weyl_cap": 100}')
    assert cli.run(["verify", "--config", str(path)]) == 2
    assert "weyl_cap" in capsys.readouterr().err


def test_verify_empty_scope_is_not_a_pass(capsys):
    # the rank cap leaves hat nothing to check
    assert cli.run(["verify", "--suite", "hat", "--types", "A4",
                    "--max-rank", "3"]) == 1
    captured = capsys.readouterr()
    assert "hat: EMPTY checks=0" in captured.out
    assert "verify: FAIL" in captured.out
    assert "hat made no checks" in captured.err


@pytest.mark.parametrize("key, flag, value", [
    ("radius", "--radius", -1), ("max_rank", "--max-rank", -1),
    ("max_rank", "--max-rank", 0),
])
def test_verify_refuses_a_negative_radius_or_a_rank_cap_below_one(
        key, flag, value, tmp_path, capsys):
    # either would run an empty scope; it is a usage error, by flag or config
    assert cli.run(["verify", "--suite", "hat", "--types", "A1",
                    flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} must be" in captured.err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": "hat", "types": ["A1"], key: value}))
    assert cli.run(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} must be" in captured.err


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


@pytest.mark.parametrize("argv, checks, note", [
    # the table and the divergence report are frozen on A2 and A1 only
    (["seidel-table", "--types", "B2"], 0, ""),
    (["equivariant", "--types", "D4"], 0, ""),
    # the seeded pairs honour --max-rank, and run on the first type without A2
    (["nilhecke", "--types", "E8", "--max-rank", "2"], 0,
     "note: nilhecke skipped by rank cap: E8\n"),
    (["nilhecke", "--types", "B3"], 200, ""),
    # the D_1^(n+1)(1) = q tail covers every A_n in scope, on I_P = {1}
    # whatever --parabolic says
    (["chevalley", "--types", "A5", "--parabolic", "1", "--max-rank", "5"], 1, ""),
    (["chevalley", "--types", "A5", "--parabolic", "3", "--max-rank", "5"], 1, ""),
    # a rank cap holds above --max-rank too
    (["v-elements", "--types", "A5", "--max-rank", "5"], 0,
     "note: v-elements skipped by rank cap: A5\n"),
])
def test_verify_runs_no_type_outside_types_and_max_rank(argv, checks, note, capsys):
    code = cli.run(["verify", "--suite", *argv, "--format", "json"])
    captured = capsys.readouterr()
    assert json.loads(captured.out)["suites"][0]["checks"] == checks
    assert code == (0 if checks else 1)
    assert captured.err == note + ("" if checks else f"error: {argv[0]} made no checks\n")


@pytest.mark.parametrize("suite", ["seidel-table", "equivariant", "orbit", "all"])
@pytest.mark.parametrize("types, error", [
    (["a2"], "bad root system name: 'a2'"), (["A02"], "bad root system name: 'A02'"),
    (["A1", "Z9"], "bad root system name: 'Z9'"),
    (["A2", "A2"], "types must be distinct, got ['A2', 'A2']"),
])
def test_verify_refuses_a_bad_or_repeated_type_in_every_suite(suite, types, error, capsys):
    # a bad name is refused even by the suites that run on named types only,
    # and a repeated type would run every check twice
    assert cli.run(["verify", "--suite", suite, "--types", *types]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("cls", [
    '{"type": 2, "parabolic": [1]}',
    '{"type": ["A2"], "parabolic": [1]}',
    '{"type": "A2", "parabolic": [1], "terms": [5]}',
    '{"type": "A2", "parabolic": [1], "terms": {"w": []}}',
    '{"type": "A2", "parabolic": [1], "terms": [{"w": [], "q": [0], "coeff": [1]}]}',
    '{"type": "A2", "parabolic": [1], "terms": [{"w": [1], "q": [0]}], "extra": 1}',
    '{"type": "A2", "parabolic": [1], "terms": [{"w": [1], "q": [0], "x": 1}]}',
    '{"type": "A2", "parabolic": [1], "terms": [{"w": [1, 2], "q": [0]}]}',
])
def test_qprod_malformed_class_is_usage_error(cls, capsys):
    assert cli.run(["qprod", "seidel", "-i", "1", "--class", cls]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_elt_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "elt.json"
    path.write_text("[1, 2]")
    assert cli.run(["affine", "length", "A2", "--elt", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err
