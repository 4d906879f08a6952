"""Per-layer figures, measured from outside the library.

* `reduce_profile` turns a cProfile run into self time per qseidel module
  (stdlib and builtin time is charged to the qseidel module that called
  it), call counts and mean inclusive time of the hot public functions, two
  useful-to-attempted ratios and the number of `fractions` calls.
* `cache_counters` reads `cache_info()` of the element-keyed caches.
* `micro_timings` gives best-of-k microseconds per call of the primitives
  on fixed D4 and B3 inputs.

Counts come from the profiler's call counts and are exact; the times carry
the profiler's overhead, which the traced run reports as its own ratio.
"""

from __future__ import annotations

import os
import pstats
import time

LAYERS = ("rootsys", "weyl", "affine", "nilhecke", "poly", "qh", "suites", "cli")

# metric name -> (module, function name as cProfile records it)
CALLS = {
    "w_mul": ("weyl", "w_mul"),
    "weyl_length": ("weyl", "length"),
    "coset_reduce": ("weyl", "coset_reduce"),
    "reduced_word": ("weyl", "reduced_word"),
    "coweight_to_coroot": ("rootsys", "coweight_to_coroot"),
    "aff_mul": ("affine", "aff_mul"),
    "aff_length": ("affine", "aff_length"),
    "hat_decompose": ("affine", "hat_decompose"),
    "pi_P": ("affine", "pi_P"),
    "peterson_decompose": ("affine", "peterson_decompose"),
    "seidel_multiply": ("qh", "seidel_multiply"),
    "chevalley_multiply": ("qh", "chevalley_multiply"),
    "nh_mul": ("nilhecke", "nh_mul"),
    "divdiff": ("nilhecke", "divdiff"),
    "spoly_mul": ("poly", "__mul__"),
    "build_parser": ("cli", "build_parser"),
}

# lru_cache-wrapped functions: the profiler sees their body only on a miss.
CACHED = {
    "pi_P": ("affine", "pi_P"),
    "peterson_decompose": ("affine", "peterson_decompose"),
    "coset_reduce": ("weyl", "coset_reduce"),
    "reduced_word": ("weyl", "reduced_word"),
}


def _module_of(func: tuple) -> str | None:
    """The qseidel module a profiled function belongs to, or None."""
    path = func[0]
    parent, base = os.path.split(path)
    if os.path.basename(parent) == "qseidel" and base.endswith(".py"):
        return base[:-3]
    return None


def _shares(stats: dict) -> dict:
    """For each profiled function, how its self time splits over the layers.

    A qseidel function belongs to its own module. Anything else (stdlib,
    builtins, dataclass-generated methods) is split over its callers in
    proportion to the time each caller spent in it, transitively, until a
    qseidel frame is reached; time that never reaches one is `other`.
    """
    memo: dict = {}
    busy: set = set()

    def share(func) -> dict:
        if func in memo:
            return memo[func]
        mod = _module_of(func)
        if mod is not None:
            memo[func] = {mod: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(v[3] for v in callers.values())
        if func in busy or not callers or total <= 0:
            return {"other": 1.0}
        busy.add(func)
        out: dict = {}
        for caller, v in callers.items():
            w = v[3] / total
            for layer, s in share(caller).items():
                out[layer] = out.get(layer, 0.0) + w * s
        busy.discard(func)
        memo[func] = out
        return out

    return {func: share(func) for func in stats}


def reduce_profile(prof) -> dict:
    stats = pstats.Stats(prof).stats
    shares = _shares(stats)
    self_s = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tt, _, callers) in stats.items():
        mod = _module_of(func)
        if mod is not None:
            self_s[mod] = self_s.get(mod, 0.0) + tt
            continue
        # The profiler splits this function's self time by direct caller;
        # each part goes where that caller's own time goes.
        for caller, v in callers.items():
            for layer, s in shares[caller].items():
                if layer in self_s:
                    self_s[layer] += v[2] * s
    by_name: dict = {}
    for func, row in stats.items():
        mod = _module_of(func)
        if mod is not None:
            by_name[(mod, func[2])] = row
    out: dict = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_s[layer]
    for name, key in CALLS.items():
        row = by_name.get(key)
        calls = row[1] if row else 0
        out[f"call.{name}.count"] = calls
        out[f"call.{name}.us"] = (row[3] / calls * 1e6) if calls else 0.0
    solve = by_name.get(("affine", "_solve_square"))
    pi = by_name.get(("affine", "pi_P"))
    out["ratio.pi_P.candidates_per_miss"] = (
        solve[1] / pi[1] if solve and pi and pi[1] else 0.0)
    shifts = 0
    pcw = by_name.get(("affine", "_parabolic_coweight"))
    pet = by_name.get(("affine", "peterson_decompose"))
    if pcw:
        for caller, v in pcw[4].items():
            if _module_of(caller) == "affine" and caller[2] == "peterson_decompose":
                shifts += v[1]
    out["ratio.peterson.shifts_per_miss"] = (
        shifts / pet[1] if pet and pet[1] else 0.0)
    out["count.fraction_ops"] = sum(
        row[1] for func, row in stats.items()
        if os.path.basename(func[0]) == "fractions.py")
    return out


def cache_counters() -> dict:
    import importlib

    out = {}
    for name, (mod, attr) in CACHED.items():
        info = getattr(importlib.import_module(f"qseidel.{mod}"), attr).cache_info()
        calls = info.hits + info.misses
        out[f"cache.{name}.hit_ratio"] = info.hits / calls if calls else 0.0
        out[f"cache.{name}.entries"] = info.currsize
    return out


# -- micro timings ---------------------------------------------------------------

MICRO = ("w_mul", "weyl_length", "coset_reduce", "coweight_to_coroot",
         "hat_decompose", "pi_P", "seidel_multiply", "chevalley_multiply",
         "nh_mul", "divdiff")


def _micro_cases(name: str) -> dict:
    """Per primitive: (call on one argument, maker of a fresh argument or None)."""
    from qseidel.affine import ExtAffElt, affine_simple_ext, hat_decompose, pi_P
    from qseidel.nilhecke import divdiff, embed_group, nh_mul
    from qseidel.poly import SPoly
    from qseidel.qh import chevalley_multiply, seidel_multiply, sigma
    from qseidel.rootsys import build_root_system, vsub
    from qseidel.weyl import WeylElt, coset_reduce, from_word, parabolic, w_mul

    rs = build_root_system(name)
    n = rs.rank
    a = from_word(rs, (1, 2, 3, 2))
    b = from_word(rs, tuple(range(n, 0, -1)) + (2,))
    p1 = parabolic(rs, (1,))
    pj = parabolic(rs, (1, 2))
    w = w_mul(a, b)
    m = tuple(range(1, n + 1))
    coroot_lam = rs.coroot_to_coweight(tuple((-1) ** k * (k + 1) for k in range(n)))
    i = rs.minuscule_nodes[0]
    x_ext = ExtAffElt(w, vsub(coroot_lam, rs.fund_coweight(i)))
    x_aff = ExtAffElt(w, coroot_lam)
    c = sigma(pj, from_word(rs, (2, 1)))
    g0 = embed_group(affine_simple_ext(rs, 0))
    g1 = embed_group(affine_simple_ext(rs, 1))
    f = (SPoly.var(n, 0) + SPoly.var(n, 1) + SPoly.var(n, n - 1)) ** 3

    def fresh(_):
        return WeylElt(w.rs, w.images, w.inv_images)

    return {
        "w_mul": (lambda _: w_mul(a, b), None),
        "weyl_length": (lambda e: e.length, fresh),
        "coset_reduce": (lambda _: coset_reduce.__wrapped__(w, p1), None),
        "coweight_to_coroot": (lambda _: rs.coweight_to_coroot(m), None),
        "hat_decompose": (lambda _: hat_decompose(x_ext), None),
        "pi_P": (lambda _: pi_P.__wrapped__(x_aff, p1), None),
        "seidel_multiply": (lambda _: seidel_multiply(i, c), None),
        "chevalley_multiply": (lambda _: chevalley_multiply(1, c), None),
        "nh_mul": (lambda _: nh_mul(g0, g1), None),
        "divdiff": (lambda _: divdiff(rs, 1, f), None),
    }


def _best_us(fn, make, repeats: int = 5, budget_s: float = 0.02) -> float:
    """Best of `repeats` loops of mean microseconds per call."""
    fn(make(0) if make else None)  # first touch, outside the timing
    loops = 1
    while True:
        args = [make(k) if make else None for k in range(loops)]
        t0 = time.perf_counter()
        for x in args:
            fn(x)
        dt = time.perf_counter() - t0
        if dt >= budget_s or loops >= 1 << 16:
            break
        loops *= 2
    best = dt / loops
    for _ in range(repeats - 1):
        args = [make(k) if make else None for k in range(loops)]
        t0 = time.perf_counter()
        for x in args:
            fn(x)
        best = min(best, (time.perf_counter() - t0) / loops)
    return best * 1e6


def micro_timings() -> dict:
    out = {}
    for name in ("D4", "B3"):
        cases = _micro_cases(name)
        for prim in MICRO:
            fn, make = cases[prim]
            out[f"micro.{prim}.{name}_us"] = _best_us(fn, make)
    return out
