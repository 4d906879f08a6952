"""Workload definitions: what each workload runs, and the inputs made from a seed.

A workload is a list of *units*. For the three sweeps a unit is one scoped
suite call, the same work as `qseidel verify --suite S --types T
[--parabolic P]`; for `cli-queries` a unit is one request through
`qseidel.cli.run`. A sweep is a fixed scope; for `cli-queries` the seed
orders the requests of a fixed pool whose every response digest is pinned
in `pinned.json`.

Only `request_pool` touches the library, and it runs in the parent process,
never in the process being timed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

CATALOG = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4")
RANK = {t: int(t[1:]) for t in CATALOG}

# The cli-queries stream is a fixed pool of POOL_SIZE requests generated from
# POOL_SEED, run in an order drawn from the workload seed. Sampling a part of
# a larger pool instead made p99 depend on how many of the heaviest requests
# the seed happened to draw.
POOL_SEED = 20071217
POOL_SIZE = 2000
# The nilhecke suite draws 200 random pairs from its own seed, and its cost
# moves by about 15% with that seed; the sweep runs it at a fixed one.
NILHECKE_SEED = 0


@dataclass(frozen=True)
class Unit:
    """One scoped suite call. `parabolic` None means the suite's own scope."""

    suite: str
    type: str
    parabolic: tuple[int, ...] | None = None
    radius: int = 2

    @property
    def key(self) -> str:
        p = "all" if self.parabolic is None else ",".join(map(str, self.parabolic))
        return f"{self.suite}:{self.type}:{p}:r{self.radius}"

    def to_json(self) -> dict:
        return {"suite": self.suite, "type": self.type,
                "parabolic": self.parabolic, "radius": self.radius}


def subsets(rank: int) -> list[tuple[int, ...]]:
    """Every non-empty set of quantum nodes I_P, by size then lexicographically."""
    return [s for r in range(1, rank + 1)
            for s in itertools.combinations(range(1, rank + 1), r)]


def _per_parabolic(suite: str, types, radius: int = 2, sizes=range(1, 9)) -> list[Unit]:
    return [Unit(suite, t, p, radius) for t in types
            for p in subsets(RANK[t]) if len(p) in sizes]


def candidate_units(name: str) -> list[Unit]:
    """Every unit the workload's scope names, before zero-check units are dropped.

    `pin.py` runs these once; a unit that makes no check at the seed commit
    (a single quantum node has no pair of Chevalley operators; `psi` has no
    translation shift on some parabolics) is left out of the pinned scope,
    so that at run time a zero-check unit is always a failure. The scopes
    are cut so that one pass takes a few seconds, which lets a run take the
    best of several passes.
    """
    if name == "quantum-sweep":
        return (_per_parabolic("chevalley", ("A3", "B3", "C3"))
                + _per_parabolic("chevalley", ("A4",), sizes=(1, 2))
                + _per_parabolic("orbit", ("A1", "A2", "A3", "B2", "B3", "C3"))
                + _per_parabolic("orbit", ("D4",), sizes=(1, 2))
                + _per_parabolic("psi", ("A1", "A2", "A3", "B2", "B3", "C3"))
                + _per_parabolic("intertwine", ("A1", "A2", "B2")))
    if name == "affine-sweep":
        return (_per_parabolic("pi-p", ("B3", "C3"))
                + _per_parabolic("pi-p", ("D4",), radius=1, sizes=(2, 3, 4))
                + [Unit("hat", "C3", None, 1), Unit("length", "C3", None, 1)])
    raise KeyError(name)


SWEEPS = ("quantum-sweep", "affine-sweep")
WORKLOADS = SWEEPS + ("cli-queries",)


def load_pinned() -> dict:
    with open(PINNED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_units(name: str, pinned: dict) -> list[dict]:
    """The pinned units of a sweep in catalog order, each with its expected count.

    The order is fixed: units share the element-keyed caches, so a seeded
    order moved the cost of small units from seed to seed (the median unit's
    latency by about 12%) without changing what the sweep verifies.
    """
    counts = pinned["units"][name]
    units = [dict(u.to_json(), key=u.key, expect=counts[u.key])
             for u in candidate_units(name) if u.key in counts]
    if name == "quantum-sweep":
        units.append({"suite": "nilhecke", "type": None, "parabolic": None,
                      "radius": 2, "seed": NILHECKE_SEED, "key": "nilhecke",
                      "expect": counts["nilhecke"]})
    return units


# -- the cli-queries request pool ----------------------------------------------


class _Catalog:
    """Type data read through the documented CLI (`roots`, `weyl` in json form).

    Those outputs are pinned byte for byte by the repository's own contract,
    so the pool built on them is stable across faithful optimisations.
    """

    def __init__(self):
        from qseidel import cli  # noqa: deferred so only the parent imports it

        self._cli = cli
        self._roots: dict[str, dict] = {}
        self._minreps: dict[tuple, list] = {}

    def _json(self, argv: list[str]) -> dict:
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self._cli.run(argv)
        if rc != 0:
            raise RuntimeError(f"catalog query failed: {argv}")
        return json.loads(buf.getvalue())

    def minuscule(self, t: str) -> list[int]:
        if t not in self._roots:
            self._roots[t] = self._json(["roots", t, "--format", "json"])
        return self._roots[t]["minuscule"]

    def minreps(self, t: str, p: tuple[int, ...]) -> list[list[int]]:
        if (t, p) not in self._minreps:
            out = self._json(["weyl", t, "--parabolic", *map(str, p),
                              "--format", "json"])
            self._minreps[(t, p)] = out["minreps"]
        return self._minreps[(t, p)]


def _word(rng: random.Random, rank: int) -> list[int]:
    return [rng.randint(1, rank) for _ in range(rng.randint(0, 8))]


def _elt(rng: random.Random, rank: int) -> str:
    lam = [rng.randint(-4, 4) for _ in range(rank)]
    return json.dumps({"w": _word(rng, rank), "lambda": lam})


def _qclass(rng: random.Random, cat: _Catalog, t: str, p: tuple[int, ...]) -> str:
    reps = cat.minreps(t, p)
    terms = []
    for _ in range(rng.randint(1, 2)):
        term = {"w": rng.choice(reps), "q": [rng.randint(0, 2) for _ in p]}
        if rng.random() < 0.5:
            term["coeff"] = {",".join("0" * RANK[t]): rng.choice((-3, -2, -1, 1, 2, 3))}
        terms.append(term)
    return json.dumps({"type": t, "parabolic": list(p), "terms": terms})


def _request(rng: random.Random, cat: _Catalog) -> dict:
    """One request: its argv, and the (type, I_P) whose W and W^P it reads."""
    t = rng.choice(CATALOG)
    n = RANK[t]
    p = rng.choice(subsets(n))
    ps = [str(i) for i in p]
    kind = rng.choice(("length", "pi-p", "decompose", "chevalley", "seidel",
                       "length", "pi-p", "decompose", "chevalley", "seidel",
                       "seidel-table"))
    if kind in ("length", "pi-p", "decompose"):
        argv = ["affine", kind, t, "--elt", _elt(rng, n)]
        if kind == "pi-p":
            argv += ["--parabolic", *ps]
        else:
            p = None
    elif kind == "chevalley":
        argv = ["qprod", "chevalley", "-j", str(rng.choice(p)),
                "--class", _qclass(rng, cat, t, p)]
        if rng.random() < 0.5:
            argv.append("--equivariant")
    elif kind == "seidel":
        argv = ["qprod", "seidel", "-i", str(rng.choice(cat.minuscule(t))),
                "--class", _qclass(rng, cat, t, p)]
    else:
        argv = ["seidel-table", t, "--parabolic", *ps]
    if rng.random() < 0.5:
        argv += ["--format", "json"]
    return {"argv": argv, "type": t, "parabolic": p}


def request_pool() -> list[dict]:
    """The fixed pool of POOL_SIZE valid requests (needs `qseidel` importable)."""
    rng = random.Random(POOL_SEED)
    cat = _Catalog()
    return [_request(rng, cat) for _ in range(POOL_SIZE)]


def request_stream(seed: int, pool: list[dict]) -> list[dict]:
    """The whole pool in seeded order, each request with its index."""
    idx = list(range(len(pool)))
    random.Random(seed).shuffle(idx)
    return [dict(pool[i], index=i) for i in idx]


def setup_scope(units: list[dict]) -> list[list]:
    """(type, I_P or None) pairs whose W and W^P a pass enumerates in set-up."""
    scope = set()
    for u in units:
        if u.get("suite") == "nilhecke":
            scope.update({("A1", None), ("A2", None)})
        else:
            p = u["parabolic"]
            scope.add((u["type"], None if p is None else tuple(p)))
    return [[t, p] for t, p in sorted(scope, key=lambda s: (s[0], s[1] or ()))]
