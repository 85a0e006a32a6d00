"""Command-line entry point.

Subcommands: chase, core, laconify, blocks, emit-sql, certain, verify.
All outputs are plain text (fact files, mapping DSL, SQL) so runs can be
diffed.  Exit codes: 0 success, 1 check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

from dx import sqlgen
from dx import verify as verify_mod
from dx.certain import certain_answers, eliminate_mapping
from dx.chase import naive_chase, restricted_chase, to_term_interpretation
from dx.laconify import generate_block_types, laconify, preconditions, side_condition
from dx.lang import decompose, format_formula, format_mapping, free_vars
from dx.model import (
    DxError, MappingError, ParseError, compute_core, format_facts, format_value, parse_facts,
)
from dx.parser import declarations, parse_formula, parse_mapping


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_seed() -> int:
    return int(os.environ.get("DX_SEED", "0"))


def _load_mapping(path: str):
    return parse_mapping(_read(path))


def _cmd_chase(args) -> int:
    m = _load_mapping(args.mapping)
    inst = parse_facts(_read(args.instance), m.source)
    if args.restricted:
        out = restricted_chase(m, inst)
    else:
        out = naive_chase(m, inst)
    _emit(format_facts(out), args.output)
    return 0


def _cmd_core(args) -> int:
    m = _load_mapping(args.mapping)
    inst = parse_facts(_read(args.instance), m.source)
    core, _retr = compute_core(naive_chase(m, inst))
    _emit(format_facts(core), args.output)
    return 0


def _cmd_laconify(args) -> int:
    m = _load_mapping(args.mapping)
    out = laconify(m, side_conditions=not args.no_side_conditions)
    if args.eliminate_certain:
        out = eliminate_mapping(out)
    _emit(format_mapping(out), args.output)
    return 0


def _cmd_blocks(args) -> int:
    m = _load_mapping(args.mapping)
    md = decompose(m)
    types = generate_block_types(md)
    lines = []
    for i, (t, pre) in enumerate(zip(types, preconditions(types, md)), start=1):
        atoms = " & ".join(format_formula(a) for a in t.atoms)
        side = side_condition(t)
        lines.append(f"type t{i}({', '.join(t.const_vars)}; {', '.join(t.null_vars)})")
        lines.append(f"  atoms:          {atoms}")
        lines.append(f"  precondition:   {format_formula(pre)}")
        lines.append(f"  side condition: {format_formula(side)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_emit_sql(args) -> int:
    text = _read(args.mapping)
    m = parse_mapping(text)
    if any(arity == 0 for _rel, arity in m.source.rels + m.target.rels):
        # a SQL table needs a column; point at the first such declaration
        for rel, (arity, line, col) in declarations(text).items():
            if arity == 0:
                raise ParseError(f"cannot emit SQL for 0-ary relation {rel}", line, col)
    pi = to_term_interpretation(m)
    artifact = sqlgen.interpretation_to_sql(pi)
    _emit(artifact.text(include_ddl=args.emit_ddl), args.output)
    return 0


def _cmd_certain(args) -> int:
    m = _load_mapping(args.mapping)
    q = parse_formula(args.query, m.target)
    inst = parse_facts(_read(args.instance), m.source)
    free = tuple(sorted(free_vars(q)))
    answers = sorted(certain_answers(m, q, inst, free))
    lines = [f"# answer variables: ({', '.join(free)})"]
    lines += ["(" + ", ".join(map(format_value, row)) + ")" for row in answers]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 0:
        raise DxError(f"--samples must not be negative, not {args.samples}")
    bounds = verify_mod.Bounds(args.max_consts, args.max_facts)
    m = _load_mapping(args.mapping)
    if args.kind == "laconic":
        report = verify_mod.check_laconic(m, args.samples, args.seed, bounds)
    elif args.kind == "equivalent":
        if not args.against:
            print("verify equivalent requires --against", file=sys.stderr)
            return 2
        m2 = _load_mapping(args.against)
        if (m.source, m.target) != (m2.source, m2.target):
            raise MappingError(
                f"{args.mapping} and {args.against} must share source and target schemas"
            )
        report = verify_mod.check_cq_equivalent(m, m2, args.samples, args.seed, bounds)
    else:
        report = verify_mod.check_disjunctive_preservation(
            m, args.samples, args.seed, bounds
        )
    print(report.render())
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            fh.write(report.records_jsonl())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dx",
        description="Data exchange engine: chase, cores, laconic rewriting, SQL",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, instance=False, output=True):
        p.add_argument("-m", "--mapping", required=True, help="mapping DSL file")
        if instance:
            p.add_argument("-i", "--instance", required=True, help="fact file")
        if output:
            p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("chase", help="canonical universal solution as a fact file")
    add_common(p, instance=True)
    p.add_argument(
        "--restricted",
        action="store_true",
        help="fire only dependencies whose consequent is not yet satisfied",
    )
    p.set_defaults(func=_cmd_chase)

    p = sub.add_parser("core", help="core universal solution as a fact file")
    add_common(p, instance=True)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("laconify", help="rewrite so canonical solution = core")
    add_common(p)
    p.add_argument(
        "--eliminate-certain",
        action="store_true",
        help="unfold certain[...] nodes into plain formulas",
    )
    p.add_argument(
        "--no-side-conditions",
        action="store_true",
        help="omit order side conditions (restricted chase still yields the core)",
    )
    p.set_defaults(func=_cmd_laconify)

    p = sub.add_parser("blocks", help="fact-block types with pre/side conditions")
    add_common(p)
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("emit-sql", help="compile a mapping to SQL views")
    add_common(p)
    p.add_argument("--emit-ddl", action="store_true", help="include CREATE TABLE DDL")
    p.set_defaults(func=_cmd_emit_sql)

    p = sub.add_parser("certain", help="certain answers of a conjunctive query")
    add_common(p, instance=True)
    p.add_argument("-q", "--query", required=True, help="query in DSL formula syntax")
    p.set_defaults(func=_cmd_certain)

    p = sub.add_parser("verify", help="sampled property checks")
    p.add_argument("kind", choices=["laconic", "equivalent", "disjunctive"])
    p.add_argument("-m", "--mapping", required=True)
    p.add_argument("--against", help="second mapping (for 'equivalent')")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-consts", type=int, default=6)
    p.add_argument("--max-facts", type=int, default=12)
    p.add_argument("--records", help="write per-sample JSONL records to this file")
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "seed", None) is None and args.command == "verify":
        args.seed = _default_seed()
    try:
        return args.func(args)
    except DxError as exc:
        print(f"dx: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
