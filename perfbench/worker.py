"""One pass of a workload in a fresh process.

Reads a plan (JSON) on stdin and prints one JSON object as its last stdout
line. The parent passes the CLOCK_MONOTONIC time at which it started this
process, so `ready_at - started_at` is the set-up time from process start:
interpreter start, `import qseidel`, building the root systems, and
enumerating W and W^P over the pass's (type, I_P) scope.

Modes: `plain` times the pass; `profile` runs the same pass under cProfile
and reduces the profile to per-layer figures; `micro` times the primitives
on fixed inputs.

A `plain` pass also times a fixed reference loop (`probe`) right after
set-up and then every PROBE_EVERY units. Each row carries `ref`, the mean
of the probes just before and just after it, so that the parent can scale
the row's time to a fixed host speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# A plain pass probes after every this many units: after every suite call,
# after every 20th CLI request (about 50 ms of requests), so that a row and
# the probes around it fall in one state of the host. The count is fixed,
# not timed, so every pass allocates alike and collects garbage alike.
PROBE_EVERY = {"cli-queries": 20}


def _reference_chunk(n: int = 200) -> int:
    """A fixed stdlib-only loop of the kinds of work the library does:
    Fraction arithmetic, building and sorting small tuples, dict updates."""
    counts: dict[tuple, int] = {}
    acc = Fraction(0)
    for i in range(n):
        t = (i % 7, i % 5, -(i % 3))
        counts[t] = counts.get(t, 0) + 1
        acc += Fraction(i % 11 - 5, i % 4 + 1)
        acc -= sorted(t)[0]
    return len(counts) + acc.denominator


def probe() -> float:
    """Best of three timings of the reference chunk, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_chunk()
        best = min(best, time.perf_counter() - t0)
    return best


def response_digest(argv: list[str], rc, out: str) -> str:
    blob = json.dumps(argv) + "\n" + str(rc) + "\n" + out
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def setup(scope: list[list]) -> None:
    import qseidel  # noqa: F401  (the import is part of set-up)
    from qseidel.rootsys import build_root_system
    from qseidel.weyl import enumerate_minreps, enumerate_weyl, parabolic

    for t, p in scope:
        rs = build_root_system(t)
        enumerate_weyl(rs)
        if p is not None:
            enumerate_minreps(rs, parabolic(rs, p))


def run_sweep_unit(u: dict) -> dict:
    from qseidel.suites import RunConfig, run_suites

    kw = {"suite": u["suite"], "radius": u["radius"]}
    if u["type"] is not None:
        kw["types"] = (u["type"],)
    if u["parabolic"] is not None:
        kw["parabolic"] = tuple(u["parabolic"])
    if "seed" in u:
        kw["seed"] = u["seed"]
    t0 = time.perf_counter()
    try:
        (res,) = run_suites(RunConfig(**kw))
    except Exception as exc:  # a crash in the library is a failed unit
        return {"key": u["key"], "s": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}"}
    dt = time.perf_counter() - t0
    return {"key": u["key"], "s": dt, "checks": res.checks,
            "failures": len(res.failures), "first_failure": res.failures[:1]}


def run_request(u: dict, out_buf: io.StringIO) -> dict:
    from qseidel import cli

    t0 = time.perf_counter()
    try:
        rc = cli.run(list(u["argv"]))
    except Exception as exc:  # an escaped exception is a failed request
        rc = f"exception {type(exc).__name__}"
    dt = time.perf_counter() - t0
    row = {"index": u["index"], "s": dt, "rc": rc,
           "digest": response_digest(u["argv"], rc, out_buf.getvalue())}
    out_buf.seek(0)
    out_buf.truncate()
    return row


def run_units(run_one, units: list[dict], every: int) -> tuple[list[dict], float]:
    """Rows of the units run in order with a probe every `every` units (none
    if 0), and the first probe (0.0 without probes)."""
    rows: list[dict] = []
    first = before = probe() if every else 0.0
    pending: list[dict] = []  # rows that wait for the probe after them
    for i, u in enumerate(units):
        pending.append(run_one(u))
        if every and ((i + 1) % every == 0 or i == len(units) - 1):
            after = probe()
            for row in pending:
                row["ref"] = (before + after) / 2
            rows += pending
            pending = []
            before = after
    return rows + pending, first


def run_pass(plan: dict, probes: bool) -> dict:
    started_at = plan["started_at"]
    setup(plan["scope"])
    ready_at = now()
    every = PROBE_EVERY.get(plan["workload"], 1) if probes else 0
    if plan["workload"] == "cli-queries":
        out_buf, err_buf = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            rows, setup_ref = run_units(lambda u: run_request(u, out_buf),
                                        plan["units"], every)
    else:
        rows, setup_ref = run_units(run_sweep_unit, plan["units"], every)
    return {"setup_s": ready_at - started_at, "setup_ref": setup_ref,
            "wall_s": sum(r["s"] for r in rows), "rows": rows,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def profile_pass(plan: dict) -> dict:
    import cProfile

    import layers
    import qseidel.cli  # noqa: F401  (imported first: import time is no layer's)

    prof = cProfile.Profile()
    prof.enable()
    result = run_pass(plan, probes=False)
    prof.disable()
    result["layers"] = layers.reduce_profile(prof)
    result["caches"] = layers.cache_counters()
    return result


def main() -> int:
    plan = json.loads(sys.stdin.read())
    mode = plan["mode"]
    if mode == "plain":
        result = run_pass(plan, probes=True)
    elif mode == "profile":
        result = profile_pass(plan)
    elif mode == "micro":
        import layers

        result = {"micro": layers.micro_timings()}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
