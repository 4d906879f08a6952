"""Command-line front end.

Subcommands: roots, weyl, affine (length | pi-p | decompose), qprod
(chevalley | seidel), seidel-table, verify. Exit codes: 0 success, 1 suite
failure (a suite named on its own, or a whole run, that made no check counts
as one), 2 usage error. All output is exact; JSON keys and rows are emitted
in sorted order so output is byte-stable for a fixed configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .affine import (
    ExtAffElt,
    aff_inv,
    aff_length,
    aff_mul,
    hat_decompose,
    pi_P_ext,
    reduced_word_affine,
)
from .qh import (
    chevalley_multiply,
    qh_from_json,
    qh_text,
    qh_to_json,
    seidel_multiply,
)
from .rootsys import build_root_system, strict_ints
from .suites import SUITES, RunConfig, run_suites, seidel_table
from .weyl import (
    enumerate_minreps,
    from_word,
    longest_element,
    parabolic,
    reduced_word,
    v_element,
)


def _emit(payload: dict, args, text: str) -> None:
    if (args.format or "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_ext(rs, data: dict) -> ExtAffElt:
    w = from_word(rs, strict_ints(data["w"], "w"))
    lam = strict_ints(data["lambda"], "lambda")
    if len(lam) != rs.rank:
        raise ValueError("lambda has wrong rank")
    return ExtAffElt(w, lam)


def _ext_json(x: ExtAffElt) -> dict:
    return {"w": list(reduced_word(x.w)), "lambda": list(x.lam)}


def _load_json_arg(value: str) -> dict:
    """A literal JSON object, or a path to a file holding one."""
    value = value.strip()
    if value.startswith("{"):
        data = json.loads(value)
    else:
        with open(value, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    return data


def _cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    payload = {
        "type": rs.name(),
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [list(r) for r in rs.pos_roots],
        "theta": list(rs.theta),
        "minuscule": list(rs.minuscule_nodes),
        "involution": list(rs.involution),
    }
    lines = [f"type {rs.name()}  rank {rs.rank}"]
    lines.append("cartan:")
    for row in rs.cartan:
        lines.append("  " + " ".join(f"{a:3d}" for a in row))
    lines.append("positive roots (simple-root coordinates):")
    for r in rs.pos_roots:
        lines.append("  " + " ".join(str(a) for a in r))
    lines.append("theta: " + " ".join(str(a) for a in rs.theta))
    lines.append("minuscule nodes: "
                 + (" ".join(str(i) for i in rs.minuscule_nodes) or "none"))
    lines.append("involution f: "
                 + " ".join(f"{i + 1}->{rs.involution[i]}"
                            for i in range(rs.rank)))
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_weyl(args) -> int:
    rs = build_root_system(args.type)
    nodes = tuple(args.parabolic) if args.parabolic else tuple(
        range(1, rs.rank + 1))
    p = parabolic(rs, nodes)
    reps = enumerate_minreps(rs, p)
    payload = {
        "type": rs.name(),
        "parabolic": list(nodes),
        "count": len(reps),
        "minreps": [list(reduced_word(w)) for w in reps],
        "longest": list(reduced_word(longest_element(rs))),
        "v_elements": {str(i): list(reduced_word(v_element(rs, i)))
                       for i in rs.minuscule_nodes},
    }
    lines = [f"type {rs.name()}  I_P={list(nodes)}  |W^P| = {len(reps)}"]
    for w in reps:
        word = reduced_word(w)
        lines.append("  s[" + ".".join(map(str, word)) + "]" if word
                     else "  1")
    lines.append("longest: s[" + ".".join(
        map(str, reduced_word(longest_element(rs)))) + "]")
    for i in rs.minuscule_nodes:
        lines.append(f"v_{i}: s[" + ".".join(
            map(str, reduced_word(v_element(rs, i)))) + "]")
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_affine(args) -> int:
    rs = build_root_system(args.type)
    x = _parse_ext(rs, _load_json_arg(args.elt))
    if args.action == "length":
        n = aff_length(x)
        _emit({"length": n}, args, f"length {n}")
        return 0
    if args.action == "pi-p":
        if not args.parabolic:
            raise ValueError("pi-p needs --parabolic")
        p = parabolic(rs, tuple(args.parabolic))
        x1 = pi_P_ext(x, p)
        x2 = aff_mul(aff_inv(x1), x)
        payload = {"pi_p": _ext_json(x1), "residual": _ext_json(x2)}
        text = (f"pi_P(x) = {json.dumps(_ext_json(x1), sort_keys=True)}\n"
                f"residual = {json.dumps(_ext_json(x2), sort_keys=True)}")
        _emit(payload, args, text)
        return 0
    tau, hat = hat_decompose(x)
    payload = {
        "central": tau.node,
        "hat": _ext_json(hat),
        "hat_word": list(reduced_word_affine(hat)),
    }
    text = (f"central node: {tau.node}\n"
            f"hat = {json.dumps(_ext_json(hat), sort_keys=True)}\n"
            f"hat word: {list(reduced_word_affine(hat))}")
    _emit(payload, args, text)
    return 0


def _cmd_qprod(args) -> int:
    c = qh_from_json(_load_json_arg(args.cls))
    if args.action == "chevalley":
        out = chevalley_multiply(args.node, c, equivariant=args.equivariant)
    else:
        out = seidel_multiply(args.node, c)
    _emit(qh_to_json(out), args, qh_text(out))
    return 0


def _cmd_seidel_table(args) -> int:
    rs = build_root_system(args.type)
    nodes = tuple(args.parabolic) if args.parabolic else tuple(
        range(1, rs.rank + 1))
    p = parabolic(rs, nodes)
    rows = seidel_table(p)
    payload = {"type": rs.name(), "parabolic": list(nodes), "rows": []}
    lines = [f"type {rs.name()}  I_P={list(nodes)}"]
    for z, w, prod in rows:
        word = reduced_word(w)
        payload["rows"].append({
            "z": z.node,
            "w": list(word),
            "product": qh_to_json(prod),
        })
        zlab = f"tau_{z.node}" if z.node else "e"
        wlab = "s[" + ".".join(map(str, word)) + "]" if word else "1"
        lines.append(f"  {zlab:7s} * sigma({wlab}) = {qh_text(prod)}")
    _emit(payload, args, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    cfg = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_json(json.load(fh))
    updates = {}
    if args.suite:
        updates["suite"] = args.suite
    if args.types:
        updates["types"] = tuple(args.types)
    if args.parabolic:
        updates["parabolic"] = tuple(args.parabolic)
    if args.radius is not None:
        updates["radius"] = args.radius
    if args.max_rank is not None:
        updates["max_rank"] = args.max_rank
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        cfg = replace(cfg, **updates)
    results = run_suites(cfg)
    # A suite named on its own that made no check verified nothing, and so
    # did a run of all suites without a single check; under "all", one suite
    # may simply not apply to the chosen types.
    empty = [r.name for r in results if r.checks == 0]
    if cfg.suite == "all" and len(empty) < len(results):
        empty = []
    for r in results:
        if r.skipped:
            print(f"note: {r.name} skipped by rank cap: {' '.join(r.skipped)}",
                  file=sys.stderr)
    for name in empty:
        print(f"error: {name} made no checks", file=sys.stderr)
    ok = all(r.ok() for r in results) and not empty
    fmt = args.format or cfg.fmt
    if fmt == "json":
        payload = {
            "ok": ok,
            "suites": [{
                "name": r.name,
                "checks": r.checks,
                "failures": r.failures,
                "findings": r.findings,
            } for r in results],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            status = "FAIL" if not r.ok() else "EMPTY" if r.name in empty else "ok"
            print(f"{r.name}: {status} checks={r.checks} "
                  f"failures={len(r.failures)} findings={len(r.findings)}")
            for f in r.failures:
                print(f"  ! {f}")
            for f in r.findings:
                print(f"  * {f}")
        print("verify: " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseidel",
        description="Exact combinatorics of Seidel multiplication in quantum "
                    "cohomology of G/P")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("json", "text"), default=None)

    sp = sub.add_parser("roots", help="root system data")
    sp.add_argument("type")
    add_format(sp)
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("weyl", help="Weyl group and coset representatives")
    sp.add_argument("type")
    sp.add_argument("--parabolic", type=int, nargs="+", metavar="NODE")
    add_format(sp)
    sp.set_defaults(func=_cmd_weyl)

    sp = sub.add_parser("affine", help="extended affine Weyl arithmetic")
    sp.add_argument("action", choices=("length", "pi-p", "decompose"))
    sp.add_argument("type")
    sp.add_argument("--elt", required=True,
                    help='element JSON {"w": [...], "lambda": [...]} or a '
                         "file path")
    sp.add_argument("--parabolic", type=int, nargs="+", metavar="NODE")
    add_format(sp)
    sp.set_defaults(func=_cmd_affine)

    sp = sub.add_parser("qprod", help="apply a multiplication operator")
    sp.add_argument("action", choices=("chevalley", "seidel"))
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("-j", dest="node_j", type=int,
                       help="quantum node for chevalley")
    group.add_argument("-i", dest="node_i", type=int,
                       help="minuscule node for seidel")
    sp.add_argument("--class", dest="cls", required=True,
                    help="class JSON or a file path")
    sp.add_argument("--equivariant", action="store_true")
    add_format(sp)
    sp.set_defaults(func=_cmd_qprod)

    sp = sub.add_parser("seidel-table",
                        help="all central-element products with basis classes")
    sp.add_argument("type")
    sp.add_argument("--parabolic", type=int, nargs="+", metavar="NODE")
    add_format(sp)
    sp.set_defaults(func=_cmd_seidel_table)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=tuple(sorted(SUITES)) + ("all",))
    sp.add_argument("--types", nargs="+", metavar="TYPE")
    sp.add_argument("--parabolic", type=int, nargs="+", metavar="NODE")
    sp.add_argument("--radius", type=int)
    sp.add_argument("--max-rank", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--config", help="JSON file mirroring the run config")
    add_format(sp)
    sp.set_defaults(func=_cmd_verify)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "qprod":
        node = args.node_j if args.action == "chevalley" else args.node_i
        if node is None:
            print(f"qprod {args.action} needs "
                  f"{'-j' if args.action == 'chevalley' else '-i'}",
                  file=sys.stderr)
            return 2
        args.node = node
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
