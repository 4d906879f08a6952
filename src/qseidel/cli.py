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
from functools import cache

from .affine import (
    ExtAffElt,
    aff_inv,
    aff_length,
    aff_mul,
    hat_decompose,
    pi_P,
    reduced_word_affine,
)
from .qh import (
    chevalley_multiply,
    qh_from_json,
    qh_text,
    qh_to_json,
    seidel_multiply,
    seidel_table,
    word_text,
)
from .rootsys import build_root_system, strict_ints, strict_keys
from .suites import SUITES, RunConfig, run_suites
from .weyl import (
    enumerate_minreps,
    from_word,
    involution,
    longest_element,
    parabolic,
    reduced_word,
    v_element,
)


def _print_json(payload: dict) -> int:
    """Print a command's --format json output; the exit code is 0."""
    print(json.dumps(payload, sort_keys=True))
    return 0


def _parse_ext(rs, data: dict) -> ExtAffElt:
    strict_keys(data, ("w", "lambda"), "element")
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
    if args.format == "json":
        return _print_json({
            "type": rs.name(),
            "rank": rs.rank,
            "cartan": [list(row) for row in rs.cartan],
            "positive_roots": [list(r) for r in rs.pos_roots],
            "theta": list(rs.theta),
            "minuscule": list(rs.minuscule_nodes),
            "involution": list(involution(rs)),
        })
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
                 + " ".join(f"{i + 1}->{j}"
                            for i, j in enumerate(involution(rs))))
    print("\n".join(lines))
    return 0


def _cmd_weyl(args) -> int:
    rs = build_root_system(args.type)
    p = parabolic(rs, args.parabolic or range(1, rs.rank + 1))
    reps = enumerate_minreps(rs, p)
    if args.format == "json":
        return _print_json({
            "type": rs.name(),
            "parabolic": list(p.nodes),
            "count": len(reps),
            "minreps": [list(reduced_word(w)) for w in reps],
            "longest": list(reduced_word(longest_element(rs))),
            "v_elements": {str(i): list(reduced_word(v_element(rs, i)))
                           for i in rs.minuscule_nodes},
        })
    lines = [f"type {rs.name()}  I_P={list(p.nodes)}  |W^P| = {len(reps)}"]
    lines.extend("  " + word_text(w) for w in reps)
    lines.append("longest: " + word_text(longest_element(rs)))
    lines.extend(f"v_{i}: " + word_text(v_element(rs, i))
                 for i in rs.minuscule_nodes)
    print("\n".join(lines))
    return 0


def _cmd_affine(args) -> int:
    rs = build_root_system(args.type)
    x = _parse_ext(rs, _load_json_arg(args.elt))
    if args.action == "length":
        n = aff_length(x)
        if args.format == "json":
            return _print_json({"length": n})
        print(f"length {n}")
        return 0
    if args.action == "pi-p":
        if not args.parabolic:
            raise ValueError("pi-p needs --parabolic")
        p = parabolic(rs, args.parabolic)
        x1 = pi_P(x, p)
        j1, j2 = _ext_json(x1), _ext_json(aff_mul(aff_inv(x1), x))
        if args.format == "json":
            return _print_json({"pi_p": j1, "residual": j2})
        print(f"pi_P(x) = {json.dumps(j1, sort_keys=True)}\n"
              f"residual = {json.dumps(j2, sort_keys=True)}")
        return 0
    tau, hat = hat_decompose(x)
    word = list(reduced_word_affine(hat))
    if args.format == "json":
        return _print_json({"central": tau.node, "hat": _ext_json(hat),
                            "hat_word": word})
    print(f"central node: {tau.node}\n"
          f"hat = {json.dumps(_ext_json(hat), sort_keys=True)}\n"
          f"hat word: {word}")
    return 0


def _cmd_qprod(args) -> int:
    if args.action == "seidel" and args.equivariant:
        raise ValueError("qprod seidel has no equivariant form")
    c = qh_from_json(_load_json_arg(args.cls))
    if args.action == "chevalley":
        out = chevalley_multiply(args.node, c, equivariant=args.equivariant)
    else:
        out = seidel_multiply(args.node, c)
    if args.format == "json":
        return _print_json(qh_to_json(out))
    print(qh_text(out))
    return 0


def _cmd_seidel_table(args) -> int:
    rs = build_root_system(args.type)
    p = parabolic(rs, args.parabolic or range(1, rs.rank + 1))
    rows = seidel_table(p)
    if args.format == "json":
        return _print_json({"type": rs.name(), "parabolic": list(p.nodes), "rows": [
            {"z": z.node, "w": list(reduced_word(w)), "product": qh_to_json(prod)}
            for z, w, prod in rows]})
    lines = [f"type {rs.name()}  I_P={list(p.nodes)}"]
    for z, w, prod in rows:
        zlab = f"tau_{z.node}" if z.node else "e"
        lines.append(f"  {zlab:7s} * sigma({word_text(w)}) = {qh_text(prod)}")
    print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        # read on its own first: a bad value in the file is refused even
        # where a flag overrides it
        RunConfig.from_json(data)
    flags = {"suite": args.suite, "types": args.types, "parabolic": args.parabolic,
             "radius": args.radius, "max_rank": args.max_rank, "seed": args.seed,
             "format": args.format}
    cfg = RunConfig.from_json({**data, **{k: v for k, v in flags.items() if v is not None}})
    code, out, err = verify_output(run_suites(cfg), cfg.suite, cfg.fmt)
    sys.stderr.write(err)
    sys.stdout.write(out)
    return code


def verify_output(results, suite: str, fmt: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `verify --suite suite --format fmt`,
    for the results of its run_suites call.

    A suite named on its own that made no check verified nothing, and so did
    a run of all suites without a single check; under "all", one suite may
    simply not apply to the chosen types.
    """
    empty = [r.name for r in results if r.checks == 0]
    if suite == "all" and len(empty) < len(results):
        empty = []
    err = [f"note: {r.name} skipped by rank cap: {' '.join(r.skipped)}\n"
           for r in results if r.skipped]
    err += [f"error: {name} made no checks\n" for name in empty]
    ok = all(r.ok() for r in results) and not empty
    if fmt == "json":
        out = [json.dumps({
            "ok": ok,
            "suites": [{
                "name": r.name,
                "checks": r.checks,
                "failures": r.failures,
                "findings": r.findings,
            } for r in results],
        }, sort_keys=True) + "\n"]
    else:
        out = []
        for r in results:
            status = "FAIL" if not r.ok() else "EMPTY" if r.name in empty else "ok"
            out.append(f"{r.name}: {status} checks={r.checks} "
                       f"failures={len(r.failures)} findings={len(r.findings)}\n")
            out += [f"  ! {f}\n" for f in r.failures]
            out += [f"  * {f}\n" for f in r.findings]
        out.append("verify: " + ("ok" if ok else "FAIL") + "\n")
    return 0 if ok else 1, "".join(out), "".join(err)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing keeps no state on the parser (each call fills a new Namespace),
    so every run() shares this one.
    """
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
    try:
        args = build_parser().parse_args(argv)
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
