"""Command-line entry point.

Subcommands: chase, core, laconify, blocks, emit-sql, certain, verify.
`COMMANDS` holds each one's help, arguments and handler, and `main`
builds one `ArgumentParser`, for the one command its argv names: argparse
pays for every parser and argument it makes.  The parser of all commands
is built only for the top-level help and errors (an empty argv, a leading
option or an unknown command) and to print a usage error after a command.
All outputs are plain text (fact files, mapping DSL, SQL) so runs can be
diffed.  Exit codes: 0 success, 1 check failure, 2 usage or parse error.

`main` pauses the cyclic collector while the command runs.  Values and
facts are tuple subclasses, which the collector never stops tracking
(it untracks plain tuples only), so the millions a bulk chase makes
lengthen every pass their allocation sets off; and the passes find
nothing, for values and facts are immutable and make no reference
cycles.  The collector is turned back on when the command returns or
raises, if it was on when the command began.
"""

from __future__ import annotations

import argparse
import gc
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
    clash = sqlgen.name_clash(m.source, m.target)
    if clash is not None:
        rel, why = clash
        _arity, line, col = declarations(text)[rel]
        raise ParseError(why, line, col)
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
    if args.kind == "equivalent" and not args.against:
        raise DxError("verify equivalent requires --against")
    bounds = verify_mod.Bounds(args.max_consts, args.max_facts)
    m = _load_mapping(args.mapping)
    if args.kind == "laconic":
        report = verify_mod.check_laconic(m, args.samples, args.seed, bounds)
    elif args.kind == "equivalent":
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


# Options shared by several commands, as (flags, add_argument keywords).
_MAPPING = (("-m", "--mapping"), {"required": True, "help": "mapping DSL file"})
_INSTANCE = (("-i", "--instance"), {"required": True, "help": "fact file"})
_OUTPUT = (("-o", "--output"), {"help": "output file (default: stdout)"})


def _flag(name: str, text: str):
    return (name,), {"action": "store_true", "help": text}


# command -> (help, handler, arguments in the order `--help` lists them)
COMMANDS = {
    "chase": ("canonical universal solution as a fact file", _cmd_chase, (
        _MAPPING, _INSTANCE, _OUTPUT,
        _flag("--restricted", "fire only dependencies whose consequent is not yet satisfied"),
    )),
    "core": ("core universal solution as a fact file", _cmd_core, (_MAPPING, _INSTANCE, _OUTPUT)),
    "laconify": ("rewrite so canonical solution = core", _cmd_laconify, (
        _MAPPING, _OUTPUT,
        _flag("--eliminate-certain", "unfold certain[...] nodes into plain formulas"),
        _flag(
            "--no-side-conditions",
            "omit order side conditions (restricted chase still yields the core)",
        ),
    )),
    "blocks": ("fact-block types with pre/side conditions", _cmd_blocks, (_MAPPING, _OUTPUT)),
    "emit-sql": ("compile a mapping to SQL views", _cmd_emit_sql, (
        _MAPPING, _OUTPUT, _flag("--emit-ddl", "include CREATE TABLE DDL"),
    )),
    "certain": ("certain answers of a conjunctive query", _cmd_certain, (
        _MAPPING, _INSTANCE, _OUTPUT,
        (("-q", "--query"), {"required": True, "help": "query in DSL formula syntax"}),
    )),
    "verify": ("sampled property checks", _cmd_verify, (
        (("kind",), {"choices": ("laconic", "equivalent", "disjunctive")}),
        (("-m", "--mapping"), {"required": True}),
        (("--against",), {"help": "second mapping (for 'equivalent')"}),
        (("--samples",), {"type": int, "default": 200}),
        (("--seed",), {"type": int, "default": 0}),
        (("--max-consts",), {"type": int, "default": 6}),
        (("--max-facts",), {"type": int, "default": 12}),
        (("--records",), {"help": "write per-sample JSONL records to this file"}),
    )),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, for an argv that starts with the command.
    The parser of all commands prints its errors: some are its own."""

    def parse_args(self, argv):
        self.argv = argv
        return super().parse_args(argv[1:])

    def error(self, message):
        _parser(None).parse_args(self.argv)  # prints the error and exits
        super().error(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `dx` parser with every command of `COMMANDS`, or the parser of
    `command` alone (prog `dx <command>`), which prints what the first
    prints for the same argv."""
    return _parser(command)


def _parser(command):
    if command is None:
        ap = argparse.ArgumentParser(
            prog="dx",
            description="Data exchange engine: chase, cores, laconic rewriting, SQL",
        )
        sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else (command,):
        summary, handler, arguments = COMMANDS[name]
        p = _CommandParser(prog=f"dx {name}") if command else sub.add_parser(name, help=summary)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=handler)
    return p if command else ap


def main(argv=None) -> int:
    """Run the command argv names and return its exit code, with the
    cyclic collector paused (see the module docstring)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (DxError, OSError) as exc:
        print(f"dx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
