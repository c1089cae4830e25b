"""Command-line entry point.

Exit codes: 0 success / all checks pass, 1 a verification or synthesis
check failed, 2 usage error (bad flags, malformed input, impossible
requests).  Human-readable output by default, a versioned JSON record
with --json.  Environment fallbacks: GATECALC_WINDOW_CAP for the table
window cap, GATECALC_MEM for the search memory budget.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import analysis, cyclic, gates, grammar, search, synth, verify

SCHEMA = "gatecalc.report/1"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_mem(text: str) -> int:
    m = re.fullmatch(r"(\d+)([KMGkmg]?)", text.strip())
    if not m:
        raise ValueError(f"bad memory size {text!r}")
    scale = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2).upper()]
    return int(m.group(1)) * scale


def _parse_cap(text: str | int) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise ValueError(f"bad window cap {text!r}") from None
    if cap < 1:
        raise ValueError(f"window cap must be at least 1, got {cap}")
    return cap


def _default_mem() -> int:
    env = os.environ.get("GATECALC_MEM")
    return _parse_mem(env) if env else 512 << 20


def _gate_from_args(args) -> gates.GroupElement:
    if args.name:
        return gates.named_or_eca(args.name)
    expr = gates.GateExpr.parse(args.expr)
    gens = {name: gates.named_or_eca(name) for name, _ in expr.atoms}
    return gates.evaluate_expr(expr, gens)


def _parse_gate_token(text: str) -> gates.GroupElement:
    # "e57@1" etc: a named generator with an optional cell
    if "@" in text:
        name, _, cell = text.partition("@")
        return gates.named_or_eca(name).shift_conjugate(int(cell))
    return gates.named_or_eca(text)


# -- subcommand handlers ---------------------------------------------------


def _cmd_gate(args) -> int:
    g = _gate_from_args(args)
    record = g.to_record()
    lines = [
        f"shift power : {record['shift_power']}",
        f"window      : {record['window_lo']} .. {record['window_hi']}"
        if record["window_lo"] is not None
        else "window      : empty (inert part is the identity)",
    ]
    if record["table"]:
        lines.append(f"table       : {record['table']}")
    _emit(args, {"command": "gate", "gate": record}, lines)
    return 0


def _cmd_classify_swap(args) -> int:
    cls = analysis.classify_swap(args.u, args.v, verify=args.verify)
    payload = {
        "command": "classify-swap",
        "u": args.u,
        "v": args.v,
        "verdict": cls.verdict.value,
        "subgroup": cls.subgroup,
        "witness": cls.witness,
        "verified": cls.verified,
    }
    line = f"{cls.verdict.value}"
    if cls.subgroup:
        line += f" (inside the {cls.subgroup}"
        if cls.witness:
            line += f", span generator {cls.witness}"
        line += ")"
    if args.verify and cls.verified is not None:
        line += f" [memberships verified: {cls.verified}]"
    _emit(args, payload, [line])
    return 0 if (not args.verify or cls.verified in (None, True)) else 1


def _cmd_classify_eca(args) -> int:
    rules = range(256) if args.all else [args.rule]
    records = []
    lines = []
    failed = False
    for rule in rules:
        cls = analysis.classify_eca(rule)
        rec = {
            "rule": rule,
            "verdict": cls.verdict.value,
            "reason": cls.reason,
            "context": cls.context,
        }
        if cls.certificate:
            rec["certificate"] = cls.certificate
            if not cls.certificate["flip_reached"]:
                failed = True
        records.append(rec)
        text = f"rule {rule:>3}: {cls.verdict.value}"
        if cls.reason:
            text += f" ({cls.reason})"
        if cls.verdict is analysis.EcaVerdict.UNIVERSAL:
            text += " (certificate verified)"
        lines.append(text)
    _emit(args, {"command": "classify-eca", "rules": records}, lines)
    return 1 if failed else 0


def _cmd_synthesize(args) -> int:
    try:
        programs = synth.synthesize_nct(args.u, args.v)
    except synth.NotUniversalError as exc:
        _emit(
            args,
            {
                "command": "synthesize",
                "error": "not-universal",
                "verdict": exc.verdict.verdict.value,
            },
            [f"not universal: {exc.verdict.verdict.value}"],
        )
        return 1
    wanted = ["c1", "rc1", "s", "c2"] if args.gate == "all" else [args.gate]
    payload = {
        "command": "synthesize",
        "u": args.u,
        "v": args.v,
        "programs": {k: programs[k].to_string() for k in wanted},
    }
    lines = [f"{k:>3} ({len(programs[k])} gates): {programs[k].to_string()}" for k in wanted]
    _emit(args, payload, lines)
    return 0


def _cmd_project(args) -> int:
    g = _gate_from_args(args)
    perm = cyclic.project_formula(g, args.n)
    payload = {
        "command": "project",
        "n": args.n,
        "sign": cyclic.sign(perm),
    }
    lines = [f"permutation of {{0,1}}^{args.n}, parity {cyclic.sign(perm)}"]
    if args.table:
        payload["table"] = [int(v) for v in perm.perm]
        lines.append(str(payload["table"]))
    else:
        cycles = [
            "(" + " ".join(format(w, f"0{args.n}b") for w in cyc) + ")"
            for cyc in perm.cycles()
        ]
        payload["cycles"] = cycles
        lines.extend(cycles if cycles else ["identity"])
    _emit(args, payload, lines)
    return 0


def _cmd_parity(args) -> int:
    if not 1 <= args.max_n <= 64:
        raise ValueError(f"--max-n must be in [1, 64], got {args.max_n}")
    rows = []
    sigma = gates.make_named("sigma")
    for n in range(1, args.max_n + 1):
        formula = cyclic.necklace_count(n)
        orbits = cyclic.necklace_count_by_orbits(n) if n <= cyclic.RING_CAP else None
        rotation_sign = (
            cyclic.sign(cyclic.project_formula(sigma, n))
            if 2 <= n <= cyclic.RING_CAP
            else None
        )
        rows.append(
            {"n": n, "formula": formula, "orbits": orbits, "rotation_sign": rotation_sign}
        )
    lines = [f"{'n':>3} {'count':>10} {'orbits':>10} {'rotation':>9}"]
    for r in rows:
        lines.append(
            f"{r['n']:>3} {r['formula']:>10} "
            f"{r['orbits'] if r['orbits'] is not None else '-':>10} "
            f"{r['rotation_sign'] or '-':>9}"
        )
    _emit(args, {"command": "parity", "rows": rows}, lines)
    mismatch = any(r["orbits"] is not None and r["orbits"] != r["formula"] for r in rows)
    return 1 if mismatch else 0


def _cmd_grammar(args) -> int:
    if args.grammar_action == "expand":
        text = grammar.expand(args.start)
        payload = {"command": "grammar-expand", "start": args.start, "string": text}
        lines = [text]
        if args.report:
            rep = grammar.adjacent_repeat_report(args.start)
            payload["repeat_report"] = rep
            lines.append(
                f"length {rep['length']}, adjacent duplicate pairs "
                f"{rep['adjacent_pairs']}, cascading removable {rep['cascading_removable']}"
            )
        _emit(args, payload, lines)
        return 0
    # verify
    target = gates.make_named(grammar.STANDARD_TARGETS[args.start])
    if args.ring:
        ok = grammar.verify_on_ring(args.start, target, args.ring)
        payload = {
            "command": "grammar-verify",
            "start": args.start,
            "ring": args.ring,
            "passed": ok,
        }
        _emit(args, payload, [f"{args.start} on ring {args.ring}: {'pass' if ok else 'FAIL'}"])
        return 0 if ok else 1
    report = grammar.verify_semantics(args.start, target)
    payload = {
        "command": "grammar-verify",
        "start": args.start,
        "passed": report.passed,
        "anchor": report.anchor,
        "reading_agreement": report.reading_agreement,
    }
    _emit(
        args,
        payload,
        [
            f"{args.start} -> {report.target}: {'pass' if report.passed else 'FAIL'}"
            + (f" at cell {report.anchor}" if report.anchor is not None else "")
        ],
    )
    return 0 if report.passed else 1


def _cmd_search(args) -> int:
    gens = tuple(_parse_gate_token(s) for s in args.gen.split(","))
    target = _parse_gate_token(args.target)
    cfg = search.SearchConfig(
        gens,
        target,
        args.max_depth,
        memory_budget=_parse_mem(args.mem) if args.mem else _default_mem(),
        strategy=args.strategy,
        certify_minimum=args.certify_min,
    )
    result = search.search(cfg)
    payload = {
        "command": "search",
        "status": result.status,
        "word": list(result.word) if result.word is not None else None,
        "stats": result.stats,
    }
    lines = [f"status: {result.status}"]
    if result.word is not None:
        lines.append(f"word ({len(result.word)} letters): " + " ".join(
            args.gen.split(",")[i] for i in result.word
        ))
    if "minimal_length" in result.stats:
        lines.append(f"certified minimal length: {result.stats['minimal_length']}")
    lines.append(f"stats: {result.stats}")
    _emit(args, payload, lines)
    return 0


def _cmd_verify_all(args) -> int:
    indices = None
    if args.only is not None:
        indices = {int(tok) for tok in args.only.split(",") if tok.strip()}
    results = verify.run_all(indices)
    payload = {
        "command": "verify-all",
        "results": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.index:>2} {r.name:<44} {r.seconds:7.2f}s  {r.detail}"
        for r in results
    ]
    lines.append(
        f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
    )
    _emit(args, payload, lines)
    return 0 if payload["passed"] else 1


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatecalc",
        description="calculus of reversible gates and shifts on the binary tape",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--window-cap",
        type=int,
        default=None,
        help="max table window width (env GATECALC_WINDOW_CAP)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gate", help="canonical form of a gate or expression")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", help="named gate (c0, c1, c2, rc1, swap, sigma, ck<k>, e<rule>)")
    group.add_argument("--expr", help="expression, e.g. 'c0@1 e57 e57@-1'")
    p.set_defaults(fn=_cmd_gate)

    p = sub.add_parser("classify", help="classify a swap pair or a CA rule")
    csub = p.add_subparsers(dest="classify_kind", required=True)
    ps = csub.add_parser("swap")
    ps.add_argument("--u", required=True)
    ps.add_argument("--v", required=True)
    ps.add_argument("--verify", action="store_true", help="verify subgroup memberships")
    ps.set_defaults(fn=_cmd_classify_swap)
    pe = csub.add_parser("eca")
    group = pe.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", type=int)
    group.add_argument("--all", action="store_true")
    pe.set_defaults(fn=_cmd_classify_eca)

    p = sub.add_parser("synthesize", help="programs for the standard gates from a swap pair")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--gate", choices=["c1", "rc1", "s", "c2", "all"], default="all")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("project", help="project a gate onto a ring")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name")
    group.add_argument("--expr")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--table", action="store_true", help="emit the full table instead of cycles")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("parity", help="necklace counts and rotation parity table")
    p.add_argument("--max-n", type=int, default=16)
    p.set_defaults(fn=_cmd_parity)

    p = sub.add_parser("grammar", help="program grammar: expand or verify")
    gsub = p.add_subparsers(dest="grammar_action", required=True)
    pg = gsub.add_parser("expand")
    pg.add_argument("--start", required=True, choices=list(grammar.START_SYMBOLS))
    pg.add_argument("--report", action="store_true", help="also report removable duplicates")
    pg.set_defaults(fn=_cmd_grammar)
    pv = gsub.add_parser("verify")
    pv.add_argument("--start", required=True, choices=list(grammar.START_SYMBOLS))
    pv.add_argument("--ring", type=int, default=None)
    pv.set_defaults(fn=_cmd_grammar)

    p = sub.add_parser("search", help="search for a word reaching a target gate")
    p.add_argument("--gen", required=True, help="comma-separated gates, e.g. e57@-1,e57,e57@1")
    p.add_argument("--target", required=True)
    p.add_argument("--strategy", choices=["bfs", "mitm"], default="bfs")
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--mem", default=None, help="memory budget, e.g. 512M or 8G (env GATECALC_MEM)")
    p.add_argument(
        "--certify-min",
        action="store_true",
        help="mitm only, as BFS lengths are already exact: certify that the word's "
        "length is the exact distance, up to 2 x max-depth, from the levels where "
        "a shortest word splits",
    )
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = args.window_cap
    if cap is None:
        cap = os.environ.get("GATECALC_WINDOW_CAP") or None
    try:
        if cap is not None:
            gates.WINDOW_CAP = _parse_cap(cap)
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
