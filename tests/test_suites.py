import dataclasses
import re
from pathlib import Path

import pytest

from qseidel import cli, suites
from qseidel.affine import ExtAffElt, aff_mul, central_elements, ext
from qseidel.qh import seidel_apply, seidel_table, sigma
from qseidel.rootsys import CATALOG, build_root_system
from qseidel.suites import (
    SUITES,
    RunConfig,
    SuiteResult,
    run_suites,
)
from qseidel.weyl import enumerate_minreps, from_word, parabolic, simple_reflection


def test_registered_suites():
    assert set(SUITES) == {
        "seidel-table", "commutation", "chevalley", "orbit", "length",
        "hat", "pi-p", "closure", "v-elements", "nilhecke", "psi",
        "equivariant", "intertwine",
    }


def test_runconfig_from_json():
    cfg = RunConfig.from_json({"format": "json", "suite": "psi",
                               "types": ["A1"], "radius": 1})
    assert cfg.fmt == "json"
    assert cfg.suite == "psi"
    assert cfg.types == ("A1",)
    assert cfg.radius == 1


def test_config_keys_match_the_fields_and_the_readme():
    # --config, RunConfig and the README name the same settings one to one
    names = [f.name for f in dataclasses.fields(RunConfig)]
    keys = ["format" if n == "fmt" else n for n in names]
    default = RunConfig()
    for key, name in zip(keys, names):
        value = getattr(default, name)
        as_json = list(value) if isinstance(value, tuple) else value
        assert RunConfig.from_json({key: as_json}) == default
    with pytest.raises(ValueError, match="unknown config key 'fmt'"):
        RunConfig.from_json({"fmt": "text"})
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("`verify` accepts"):].split("\n\n")[0]
    listed = re.search(r"Its keys are ([^.]*)\.", paragraph)
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(keys)


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_json({"radiu": 1})


def test_run_suites_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suites(RunConfig(suite="nonexistent"))


def test_suite_result_accounting():
    # a message is built only when its check fails
    built = []
    r = SuiteResult(name="demo")
    assert r.ok()
    r.check(True, lambda: built.append("fine") or "fine")
    r.check(False, lambda: built.append("broken") or "broken")
    assert r.checks == 2
    assert r.failures == built == ["broken"]
    assert not r.ok()


def test_a_passing_run_builds_no_message(monkeypatch):
    # every hat message formats reduced_word(w); a pass must format nothing
    built, words = [], []
    check = SuiteResult.check
    monkeypatch.setattr(SuiteResult, "check", lambda self, cond, msg: check(
        self, cond, lambda: built.append(1) or msg()))
    monkeypatch.setattr(suites, "reduced_word", lambda w: words.append(w) or ())
    (res,) = run_suites(RunConfig(suite="hat", types=("C3",), radius=1))
    assert res.ok() and res.checks == 4 * 48 * 27
    assert built == [] and words == []


def test_seidel_table_shape():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    rows = seidel_table(p)
    assert len(rows) == len(central_elements(rs)) * len(
        enumerate_minreps(rs, p))
    full = parabolic(rs, (1, 2))
    assert len(seidel_table(full)) == 3 * 6


def test_seidel_table_matches_the_operator_on_every_catalog_parabolic():
    for name in CATALOG:
        rs = build_root_system(name)
        for p in suites._parabolics(rs, RunConfig()):  # every I_P
            assert seidel_table(p) == [
                (z, w, seidel_apply(z, sigma(p, w)))
                for z in central_elements(rs) for w in enumerate_minreps(rs, p)]


def test_seidel_table_rows_share_no_terms():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    first = seidel_table(p)
    want = [dict(prod.terms) for _, _, prod in first]
    for _, _, prod in first:
        prod.terms.clear()
    assert [prod.terms for _, _, prod in seidel_table(p)] == want


def test_runconfig_refuses_repeated_parabolic_nodes():
    with pytest.raises(ValueError, match="distinct"):
        RunConfig(parabolic=(1, 1))
    with pytest.raises(ValueError, match="distinct"):
        RunConfig.from_json({"parabolic": [2, 1, 2]})
    assert RunConfig(types=("A2",), parabolic=(2, 1)).parabolic == (2, 1)


def test_runconfig_refuses_a_parabolic_node_past_the_rank_of_a_type():
    # every listed type, as with a bad type name: node 2 is past A1's rank
    with pytest.raises(ValueError, match=r"1\.\.1 for A1"):
        RunConfig(parabolic=(2, 1))
    with pytest.raises(ValueError, match=r"1\.\.2 for A2"):
        RunConfig.from_json({"suite": "v-elements", "types": ["B3", "A2"], "parabolic": [3]})
    assert RunConfig(types=("B3", "C3"), parabolic=(3,)).parabolic == (3,)


@pytest.mark.parametrize("kw, match", [
    ({"seed": 2.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"types": ()}, "types must be a non-empty list"),
    ({"parabolic": ()}, "parabolic must be null or a non-empty list"),
    ({"suite": "no-such-suite"}, "suite must be one of"),
    ({"fmt": "xml"}, "format must be one of"),
    ({"types": "A2"}, "types must be a non-empty list"),
    ({"types": ("A2", 3)}, "types must be a non-empty list"),
    ({"parabolic": (1.0,)}, "parabolic must be an integer"),
    ({"parabolic": "1"}, "parabolic must be a list of integers"),
    ({"max_rank": 2.5}, "max_rank must be an integer"),
    ({"radius": True}, "radius must be an integer"),
    ({"radius": 1.5}, "radius must be an integer"),
    ({"suite": "seidel-table", "types": ("A02",)}, "bad root system name: 'A02'"),
    ({"types": ("A2", "A2")}, "types must be distinct"),
])
def test_runconfig_checks_its_bounds_however_it_is_built(kw, match):
    # a config built from Python meets the bounds that --config and the
    # flags meet; radius=True would run as radius 1 and radius=1.5 would
    # fail inside range() in the middle of a run
    with pytest.raises(ValueError, match=match):
        RunConfig(**kw)
    with pytest.raises(ValueError, match=match):
        run_suites(RunConfig(**{"suite": "nilhecke", **kw}))


def test_run_suites_makes_each_result_and_passes_it_in(monkeypatch):
    # the suite gets its result and the types within its rank cap, and the
    # result already names the types the cap left out
    seen = []

    def fake(cfg, res, types):
        seen.append((res, [rs.name() for rs in types], list(res.skipped)))
        res.check(True, lambda: "")

    monkeypatch.setitem(suites.SUITES, "v-elements", (fake, 2))
    (res,) = run_suites(RunConfig(suite="v-elements", types=("B3", "A2", "A1", "A4"),
                                  max_rank=3))
    assert len(seen) == 1 and seen[0][0] is res
    assert seen[0][1:] == (["A2", "A1"], ["B3", "A4"])
    assert (res.name, res.checks, res.skipped) == ("v-elements", 1, ["B3", "A4"])


def test_single_suite_scoping():
    results = run_suites(RunConfig(suite="v-elements", types=("A1", "A2")))
    assert len(results) == 1
    assert results[0].name == "v-elements"
    assert results[0].ok()


def test_all_runs_every_suite():
    results = run_suites(RunConfig(types=("A1",), radius=1, max_rank=1))
    assert [r.name for r in results] == [
        "seidel-table", "commutation", "chevalley", "orbit", "length",
        "hat", "pi-p", "closure", "v-elements", "nilhecke", "psi",
        "equivariant", "intertwine",
    ]
    assert all(r.ok() for r in results)


def test_rank_caps_record_skipped_types():
    (res,) = run_suites(RunConfig(suite="intertwine", types=("A1", "A3", "B2")))
    assert res.skipped == ["A3"]
    assert res.checks > 0
    (res,) = run_suites(RunConfig(suite="v-elements", types=("A2", "A3"),
                                  max_rank=2))
    assert res.skipped == ["A3"]


@pytest.mark.parametrize("types, drawn", [
    (("A1", "B2", "A2"), "A2"), (("B2", "A1"), "B2"),
])
def test_nilhecke_draws_its_seeded_pairs_on_a2_else_the_first_type(types, drawn, monkeypatch):
    # every check's message names its type; build them all to see where the
    # 200 seeded pairs ran
    texts = []
    real = SuiteResult.check

    def check(self, cond, msg):
        texts.append(msg())
        real(self, cond, msg)

    monkeypatch.setattr(SuiteResult, "check", check)
    (res,) = run_suites(RunConfig(suite="nilhecke", types=types))
    assert res.ok() and len(texts) == res.checks
    pairs = [t.split(":")[0] for t in texts if "embedding not multiplicative" in t]
    assert pairs == [drawn] * 200


def test_pi_p_oracle_keeps_the_multiplicity_of_its_hits(monkeypatch):
    # W_P listed twice makes every factorization appear twice in the window
    real = suites.enumerate_parabolic_subgroup
    monkeypatch.setattr(suites, "enumerate_parabolic_subgroup",
                        lambda p: real(p) * 2)
    (res,) = run_suites(RunConfig(suite="pi-p", types=("A2",), radius=1))
    # one failure per answer: 3 parabolic sets times a box of 3^2 points
    assert len(res.failures) == 27
    assert all(f.endswith(": 2 factorizations in the window")
               for f in res.failures)


def test_pi_p_oracle_catches_a_wrong_pi_p(monkeypatch):
    # pi_P times a Levi reflection s_j, j off I_P, stays in the same coset, so
    # the residual is still parabolic; the criterion and the windowed brute
    # force must each see every answer go wrong
    rs = build_root_system("B3")
    real = suites.pi_P
    monkeypatch.setattr(suites, "pi_P", lambda x, p: aff_mul(
        real(x, p), ext(simple_reflection(rs, p.wp_nodes[0]))))
    (res,) = run_suites(RunConfig(suite="pi-p", types=("B3",), parabolic=(1,), radius=1))
    assert res.checks == 135
    assert sum(f.endswith(": pi_P escapes") for f in res.failures) == 27
    assert sum(f.endswith(": brute residual disagrees with pi_P") for f in res.failures) == 27
    assert len(res.failures) == 54


def test_length_oracle_catches_one_wrong_length(monkeypatch, capsys):
    # aff_length off by one on a single element: one failure, with the text
    # the suite has always printed, and the check count of a passing run
    rs = build_root_system("A2")
    bad = ExtAffElt(from_word(rs, (2, 1)), rs.coroot_to_coweight((1, -1)))
    real = suites.aff_length
    monkeypatch.setattr(suites, "aff_length", lambda x: real(x) + (x == bad))
    text = "A2 w=(2, 1) lam=(1, -1): formula 9 != inversions 8"
    (res,) = run_suites(RunConfig(suite="length", types=("A2",), radius=1))
    assert (res.checks, res.failures) == (54, [text])
    argv = ["verify", "--suite", "length", "--types", "A2", "--radius", "1"]
    assert cli.run([*argv, "--format", "text"]) == 1
    assert capsys.readouterr().out == (
        f"length: FAIL checks=54 failures=1 findings=0\n  ! {text}\nverify: FAIL\n")
    assert cli.run([*argv, "--format", "json"]) == 1
    assert capsys.readouterr().out == (
        f'{{"ok": false, "suites": [{{"checks": 54, "failures": ["{text}"], '
        f'"findings": [], "name": "length"}}]}}\n')


def test_the_length_suite_fails_when_the_formula_drops_the_weyl_sign(monkeypatch):
    # sum |<lam, alpha>| is right on translations only; the inversion oracle
    # must still see every other element it gets wrong
    monkeypatch.setattr(suites, "aff_length", lambda x: sum(
        abs(sum(map(int.__mul__, x.lam, a))) for a in x.rs.pos_roots))
    (res,) = run_suites(RunConfig(suite="length", types=("A2", "B2"), radius=1))
    assert res.checks == 9 * 6 + 9 * 8
    assert 0 < len(res.failures) < res.checks
