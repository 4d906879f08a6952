import pytest

from qseidel.affine import central_elements
from qseidel.rootsys import build_root_system
from qseidel.suites import (
    SUITES,
    RunConfig,
    SuiteResult,
    run_suites,
    seidel_table,
)
from qseidel.weyl import enumerate_minreps, parabolic


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


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_json({"radiu": 1})


def test_run_suites_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suites(RunConfig(suite="nonexistent"))


def test_suite_result_accounting():
    r = SuiteResult(name="demo")
    assert r.ok()
    r.check(True, "fine")
    r.check(False, "broken")
    assert r.checks == 2
    assert r.failures == ["broken"]
    assert not r.ok()


def test_seidel_table_shape():
    rs = build_root_system("A2")
    p = parabolic(rs, (1,))
    rows = seidel_table(p)
    assert len(rows) == len(central_elements(rs)) * len(
        enumerate_minreps(rs, p))
    full = parabolic(rs, (1, 2))
    assert len(seidel_table(full)) == 3 * 6


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
