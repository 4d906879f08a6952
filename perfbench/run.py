"""qseidel benchmark: one workload, one seed, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass of the workload runs in a fresh,
single-threaded process (`worker.py`), as a closed loop with one caller:
the next unit starts when the previous one returns. Passes repeat while
the next one would end within `--seconds`, and at least three run.

`--trace 0` reports the end-to-end metrics. Every time is first scaled to
a fixed host speed: multiplied by REF_S over the time of the reference
probe taken around it in the same process (see `worker.probe`). A unit (one
scoped suite call, or one CLI request) has as its latency its best scaled
time over the passes; `wall_s` sums those, `ops_per_s` divides the checks
or requests by that, and `query_p50_ms` and `query_p99_ms` are taken over
the units. `setup_s` and `peak_rss_mb` are medians over passes. `--trace 1`
runs one plain pass, one pass under cProfile and the micro timings, and
reports the per-layer metrics, unscaled.

Every pass is checked against `pinned.json`: each suite call must make
exactly its pinned number of checks with no failure, and each CLI response
must match its pinned digest. Anything else counts in `failed`, and the run
exits 1. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))  # the cli-queries pool is built with the library

import workloads  # noqa: E402
from worker import now  # noqa: E402  (the clock a pass reports setup_s against)

MIN_PASSES = 3
# A run ends within this many seconds whatever the program's speed: no pass
# starts that would not end by then at the pace of the last one, and a pass
# still running at the deadline is stopped and counted as failed.
RUN_BUDGET_S = 170

# The reference probe's time on a host at the speed all times are scaled to;
# about its best time on the 2-vCPU machine the baseline was measured on.
# The speed of a shared host drifts by 30-50% for seconds to minutes, and
# the library, pure Python like the probe, drifts with it: in ten 38-second
# runs per workload, scaling each unit by the probes around it gave `wall_s`
# spreads of 0.016, 0.065 and 0.012 where the same runs unscaled gave
# 0.117, 0.106 and 0.123 (quantum-sweep, affine-sweep, cli-queries).
REF_S = 1e-3

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB", "query_p50_ms": "ms", "query_p99_ms": "ms"}


def layer_units(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_us") or name.endswith(".us"):
        return "us"
    if name.endswith(".hit_ratio") or name == "trace.overhead_ratio":
        return "ratio"
    if name.startswith("ratio."):
        return "calls/miss"
    return "count"


def spawn(plan: dict, mode: str, deadline: float) -> dict | None:
    """Run one worker process; its parsed result, or None if it failed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    payload = dict(plan, mode=mode, started_at=now())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(payload), capture_output=True, text=True,
            env=env, timeout=max(deadline - now(), 1.0), cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        print(f"{mode} pass stopped at the run's {RUN_BUDGET_S} s budget",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print("pass printed no result", file=sys.stderr)
        return None


def unit_ops(workload: str, units: list[dict]) -> int:
    if workload == "cli-queries":
        return len(units)
    return sum(max(u["expect"], 1) for u in units)


def gate(workload: str, units: list[dict], result: dict | None,
         pinned: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass, against the pinned values."""
    attempted = unit_ops(workload, units)
    if not units:
        return 1, 1, ["empty scope: the pass has no unit"]
    if result is None:
        return attempted, attempted, ["the pass did not complete"]
    rows = result["rows"]
    if len(rows) != len(units):
        return attempted, attempted, [f"{len(rows)} results for {len(units)} units"]
    failed = 0
    problems = []
    if workload == "cli-queries":
        digests = pinned["cli"]["digests"]
        for u, row in zip(units, rows):
            if row["index"] != u["index"] or row["digest"] != digests[u["index"]]:
                failed += 1
                problems.append(f"request {u['index']}: response digest mismatch")
        return attempted, failed, problems
    for u, row in zip(units, rows):
        bad = None
        if row["key"] != u["key"]:
            bad = "ran out of order"
        elif "error" in row:
            bad = row["error"]
        elif row["checks"] == 0:
            bad = "made no check"
        elif row["checks"] != u["expect"]:
            bad = f"made {row['checks']} checks, pinned {u['expect']}"
        elif row["failures"]:
            bad = f"{row['failures']} failures, first: {row['first_failure']}"
        elif u["expect"] <= 0:
            bad = "pinned count is not positive"
        if bad:
            failed += max(u["expect"], 1)
            problems.append(f"{u['key']}: {bad}")
    return attempted, failed, problems


def plan_for(workload: str, seed: int, pinned: dict) -> dict:
    if workload == "cli-queries":
        units = workloads.request_stream(seed, workloads.request_pool())
    else:
        units = workloads.sweep_units(workload, pinned)
    return {"workload": workload, "units": units,
            "scope": workloads.setup_scope(units)}


def percentile(vals: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the data (no extrapolation past
    the slowest unit, which on a sweep's few dozen units would amplify noise)."""
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1]


def scaled(seconds: float, ref: float) -> float:
    """`seconds` measured while the reference probe took `ref`, at REF_S."""
    return seconds * REF_S / ref


def end_to_end(plan: dict, seconds: float, pinned: dict,
               min_passes: int = MIN_PASSES) -> tuple[dict, int, int, list[str], int]:
    units = plan["units"]
    ops = unit_ops(plan["workload"], units)
    results = []
    attempted = failed = 0
    problems: list[str] = []
    t0 = now()
    deadline = t0 + RUN_BUDGET_S
    runs = 0
    last = 0.0
    # After the first few passes, a pass starts only if, at the pace of the
    # last one, it ends within `seconds`.
    while runs < min_passes or now() + last - t0 <= seconds:
        start = now()
        if start + last > deadline:
            break
        res = spawn(plan, "plain", deadline)
        last = now() - start
        runs += 1
        a, f, p = gate(plan["workload"], units, res, pinned)
        attempted += a
        failed += f
        problems += p
        if res is not None and len(res["rows"]) == len(units):
            results.append(res)
    if not results:
        return {}, attempted, failed, problems, 0
    # Every pass runs the same units in the same order. A unit's latency is
    # its best scaled time over the passes: what scaling leaves of the
    # host's noise only ever slows a unit. On a recording of 207
    # affine-sweep passes cut into 25-second runs, the run-to-run spread of
    # the sum of per-unit bests was half that of the sum of per-unit medians
    # (0.105 against 0.203). The timed phase is that sum.
    unit_ms = sorted(min(scaled(r["rows"][k]["s"], r["rows"][k]["ref"])
                         for r in results) * 1e3
                     for k in range(len(units))) or [0.0]
    wall = sum(unit_ms) / 1e3
    refs = [row["ref"] for r in results for row in r["rows"]]
    if refs:
        raw = sum(min(r["rows"][k]["s"] for r in results) for k in range(len(units)))
        print(f"unscaled wall_s {raw:.4g} s; median probe "
              f"{statistics.median(refs) * 1e3:.4g} ms, REF_S {REF_S * 1e3:.4g} ms",
              file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_ref"])
                                     for r in results),
        "wall_s": wall,
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "query_p50_ms": percentile(unit_ms, 50),
        "query_p99_ms": percentile(unit_ms, 99),
    }
    return metrics, attempted, failed, problems, len(results)


def per_layer(plan: dict, pinned: dict) -> tuple[dict, int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    deadline = now() + RUN_BUDGET_S
    plain = spawn(plan, "plain", deadline)
    traced = spawn(plan, "profile", deadline)
    for res in (plain, traced):
        a, f, p = gate(plan["workload"], plan["units"], res, pinned)
        attempted += a
        failed += f
        problems += p
    micro = spawn({}, "micro", deadline)
    if plain is None or traced is None or micro is None:
        return {}, attempted, max(failed, 1), problems + ["a traced-run process failed"]
    metrics = dict(traced["layers"])
    metrics.update(traced["caches"])
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / plain["wall_s"] if plain["wall_s"] > 0 else 0.0)
    metrics.update(micro["micro"])
    return metrics, attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            pinned: dict | None = None, plan: dict | None = None,
            min_passes: int = MIN_PASSES) -> dict:
    """Run one workload and return the result object (see the module doc)."""
    pinned = workloads.load_pinned() if pinned is None else pinned
    plan = plan_for(workload, seed, pinned) if plan is None else plan
    if trace:
        metrics, attempted, failed, problems = per_layer(plan, pinned)
        passes = 2
        units = {k: layer_units(k) for k in metrics}
    else:
        metrics, attempted, failed, problems, passes = end_to_end(
            plan, seconds, pinned, min_passes)
        units = E2E_UNITS
    return {
        "correct": failed == 0 and attempted > 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed if metrics else max(failed, 1),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "passes": passes,
        "problems": problems,
    }


def check_checkout() -> str | None:
    """Why the benchmark cannot run from here, or None."""
    if not (SRC / "qseidel" / "__init__.py").is_file():
        return f"no qseidel sources under {SRC}"
    if not workloads.PINNED.is_file():
        return f"missing {workloads.PINNED}"
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # pass in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    why = check_checkout()
    if why:
        print(f"perfbench: {why}", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {out['passes']}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'ops':40s} {out['attempted']:14d} count")
    print(f"  {'ops_failed':40s} {out['failed']:14d} count")
    for p in out["problems"][:20]:
        print(f"  FAILED {p}")
    result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
