"""Write `pinned.json`: the check count of every sweep unit and the digest of
every response in the cli-queries pool, taken from the current tree.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known to be right: the benchmark
treats any later difference from these values as a failed run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402


def pin_units() -> dict:
    out = {}
    for name in workloads.SWEEPS:
        counts = {}
        for u in workloads.candidate_units(name):
            row = worker.run_sweep_unit(dict(u.to_json(), key=u.key))
            if "error" in row or row["failures"]:
                raise SystemExit(f"{u.key} fails at this commit: {row}")
            if row["checks"]:
                counts[u.key] = row["checks"]
        out[name] = counts
    nh = set()
    for seed in (0, 1, 2):
        row = worker.run_sweep_unit({"suite": "nilhecke", "type": None,
                                     "parabolic": None, "radius": 2,
                                     "seed": seed, "key": "nilhecke"})
        if "error" in row or row["failures"] or not row["checks"]:
            raise SystemExit(f"nilhecke fails at this commit: {row}")
        nh.add(row["checks"])
    if len(nh) != 1:
        raise SystemExit(f"nilhecke check count depends on the seed: {nh}")
    out["quantum-sweep"]["nilhecke"] = nh.pop()
    return out


def pin_cli() -> dict:
    pool = workloads.request_pool()
    units = [dict(r, index=i) for i, r in enumerate(pool)]
    rows = worker.run_requests(units)
    bad = [r["index"] for r in rows if r["rc"] != 0]
    if bad:
        raise SystemExit(f"pool requests fail at this commit: {bad[:10]}")
    return {"pool_seed": workloads.POOL_SEED, "pool_size": len(pool),
            "digests": [r["digest"] for r in rows]}


def main() -> int:
    pinned = {"units": pin_units(), "cli": pin_cli()}
    with open(workloads.PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=0, sort_keys=True)
        fh.write("\n")
    total = {k: sum(v.values()) for k, v in pinned["units"].items()}
    print(f"pinned {workloads.PINNED}: checks per sweep {total}, "
          f"{len(pinned['cli']['digests'])} cli digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
