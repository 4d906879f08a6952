"""Tests of the benchmark itself, on tiny scopes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_PREFIXES = ("call.", "cache.", "ratio.", "count.")


def tiny_plan(workload: str, pinned: dict, seed: int = 7) -> dict:
    """The workload's own plan cut to a few cheap units."""
    plan = run.plan_for(workload, seed, pinned)
    if workload == "cli-queries":
        units = plan["units"][:12]
    else:
        cheap = {"quantum-sweep": ("chevalley:A3:1,2:r2", "orbit:A2:1:r2",
                                   "psi:A2:1:r2"),
                 "affine-sweep": ("pi-p:B3:1,2,3:r2",)}[workload]
        units = [u for u in plan["units"] if u["key"] in cheap]
    return dict(plan, units=units, scope=workloads.setup_scope(units))


@pytest.fixture(scope="module")
def pinned():
    return workloads.load_pinned()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, pinned):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    plan = tiny_plan(workload, pinned)
    assert plan["units"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = run.measure(workload, 7, 0, trace, pinned=pinned, plan=plan,
                          min_passes=1)
        assert out["correct"], out["problems"]
        assert out["failed"] == 0 and out["attempted"] >= len(plan["units"])
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: m["unit"] for k, m in out["metrics"].items()}
        assert got == want


def test_exact_counters_repeat_across_traced_runs(pinned):
    plan = tiny_plan("quantum-sweep", pinned)
    a, b = (run.measure("quantum-sweep", 7, 0, True, pinned=pinned, plan=plan)
            for _ in range(2))
    exact = {k: m["value"] for k, m in a["metrics"].items()
             if k.startswith(EXACT_PREFIXES) and not k.endswith(".us")}
    assert exact["call.peterson_decompose.count"] > 0
    assert exact == {k: b["metrics"][k]["value"] for k in exact}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plain_pass_scales_every_unit_by_its_probes(workload, pinned):
    plan = tiny_plan(workload, pinned)
    res = run.spawn(plan, "plain", run.now() + 60)
    assert res is not None and res["setup_ref"] > 0
    assert len(res["rows"]) == len(plan["units"])
    assert all(row["ref"] > 0 for row in res["rows"])
    assert run.scaled(2.0, run.REF_S / 2) == 4.0


def test_gate_trips_on_a_tampered_check_count(pinned):
    bad = copy.deepcopy(pinned)
    bad["units"]["affine-sweep"]["pi-p:B3:1,2,3:r2"] += 1
    out = run.measure("affine-sweep", 7, 0, False, pinned=bad,
                      plan=tiny_plan("affine-sweep", bad), min_passes=1)
    assert not out["correct"]
    assert out["failed"] == bad["units"]["affine-sweep"]["pi-p:B3:1,2,3:r2"]
    assert any("pinned" in p for p in out["problems"])


def test_gate_trips_on_a_tampered_digest(pinned):
    plan = tiny_plan("cli-queries", pinned)
    bad = copy.deepcopy(pinned)
    bad["cli"]["digests"][plan["units"][3]["index"]] = "0" * 16
    out = run.measure("cli-queries", 7, 0, False, pinned=bad, plan=plan,
                      min_passes=1)
    assert not out["correct"]
    assert out["failed"] == 1 and out["attempted"] == len(plan["units"])


def test_empty_scope_is_a_failure(pinned):
    plan = {"workload": "quantum-sweep", "units": [], "scope": []}
    out = run.measure("quantum-sweep", 7, 0, False, pinned=pinned, plan=plan,
                      min_passes=1)
    assert not out["correct"] and out["failed"] >= 1 and out["attempted"] >= 1


def test_zero_check_unit_is_a_failure(pinned):
    # psi caps the rank at 3, so on A4 it makes no check at all.
    unit = {"suite": "psi", "type": "A4", "parabolic": None, "radius": 2,
            "key": "psi:A4:all:r2", "expect": 0}
    plan = {"workload": "quantum-sweep", "units": [unit],
            "scope": workloads.setup_scope([unit])}
    out = run.measure("quantum-sweep", 7, 0, False, pinned=pinned, plan=plan,
                      min_passes=1)
    assert not out["correct"] and out["failed"] == 1
    assert any("no check" in p for p in out["problems"])


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "quantum-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
