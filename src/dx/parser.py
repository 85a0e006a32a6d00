"""Parser for the mapping DSL.

Statements end with a period:

    source R/2, P/1.
    target S/2.
    tgd: R(x,y) & x < y -> exists z: S(x,z) & S(y,z).

Operators `&`, `|`, `!`, `exists v:`, `forall v:`, `=`, `<` and
parentheses; variables are lowercase identifiers, constants are
single-quoted.  Quantifier bodies extend as far right as possible.
`certain[...]` occurs only in printed output and is rejected here.

`_TOKEN` feeds the shared `model.Lexer`; a relation lookup answers the
arity or None, and every error is raised at the token it names, whose
line and column are worked out then.
"""

from __future__ import annotations

import re

from dx.lang import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Lt,
    Not,
    Or,
    RelAtom,
    SchemaMapping,
    TGD,
    TrueF,
    Var,
)
from dx.model import Lexer, MappingError, ParseError, Schema

_KEYWORDS = {"source", "target", "tgd", "exists", "forall", "true", "certain"}

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
       |(?P<arrow>->)
       |(?P<punct>[().,:/&|!=<\[\]])
       |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
       |(?P<number>[0-9]+)
       |(?P<quoted>'(?:[^'\\]|\\.)*')
       |(?P<error>.)
    """,
    re.VERBOSE,
)


class _FormulaParser:
    def __init__(self, lex: Lexer, schema_lookup):
        self.lex = lex
        self.schema_lookup = schema_lookup  # rel name -> arity, or None

    def formula(self) -> Formula:
        tok = self.lex.peek()
        if tok and tok[1] in ("exists", "forall"):
            return self.quantified()
        return self.disjunction()

    def quantified(self) -> Formula:
        kw = self.lex.next()[1]
        names = [self._var_name()]
        while self.lex.accept(","):
            names.append(self._var_name())
        self.lex.expect(":")
        body = self.formula()
        node = Exists if kw == "exists" else Forall
        for name in reversed(names):
            body = node(name, body)
        return body

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.lex.accept("|"):
            tok = self.lex.peek()
            if tok and tok[1] in ("exists", "forall"):
                parts.append(self.quantified())
                break
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.lex.accept("&"):
            tok = self.lex.peek()
            if tok and tok[1] in ("exists", "forall"):
                parts.append(self.quantified())
                break
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.lex.peek()
        if tok is None:
            self.lex.error("expected a formula")
        if tok[1] == "!":
            self.lex.next()
            return Not(self.unary())
        if tok[1] == "(":
            self.lex.next()
            inner = self.formula()
            self.lex.expect(")")
            return inner
        if tok[1] in ("exists", "forall"):
            return self.quantified()
        if tok[1] == "true":
            self.lex.next()
            return TrueF()
        if tok[1] == "certain":
            self.lex.fail(
                tok,
                "certain[...] cannot be parsed back; regenerate the mapping "
                "with certain answers eliminated",
            )
        return self.atom()

    def _var_name(self) -> str:
        tok = self.lex.peek()
        if tok is None or tok[0] != "ident" or tok[1] in _KEYWORDS:
            self.lex.error("expected a variable name")
        if not tok[1][0].islower():
            self.lex.error("variables must start with a lowercase letter")
        return self.lex.next()[1]

    def term(self):
        tok = self.lex.peek()
        if tok is None:
            self.lex.error("expected a term")
        if tok[0] == "quoted":
            self.lex.next()
            return self.lex.quoted_const(tok)
        if tok[0] == "ident" and tok[1] not in _KEYWORDS:
            if not tok[1][0].islower():
                self.lex.error(
                    "expected a variable (lowercase) or quoted constant"
                )
            self.lex.next()
            return Var(tok[1])
        self.lex.error("expected a term")

    def atom(self) -> Formula:
        tok = self.lex.peek()
        if tok is None:
            self.lex.error("expected an atom")
        if tok[0] == "ident" and tok[1] not in _KEYWORDS:
            nxt = self.lex.peek(1)
            if nxt and nxt[1] == "(":
                rel_tok = self.lex.next()
                self.lex.expect("(")
                args = []
                if not self.lex.accept(")"):
                    args.append(self.term())
                    while self.lex.accept(","):
                        args.append(self.term())
                    self.lex.expect(")")
                arity = self.schema_lookup(rel_tok[1])
                if arity is None:
                    self.lex.fail(rel_tok, f"undeclared relation {rel_tok[1]}")
                if arity != len(args):
                    self.lex.fail(
                        rel_tok,
                        f"arity mismatch for {rel_tok[1]}: declared /{arity}, "
                        f"used with {len(args)} arguments",
                    )
                return RelAtom(rel_tok[1], tuple(args))
        left = self.term()
        op = self.lex.peek()
        if op is None or op[1] not in ("=", "<"):
            self.lex.error("expected '=' or '<'")
        self.lex.next()
        right = self.term()
        return Eq(left, right) if op[1] == "=" else Lt(left, right)


def _parse_decls(lex: Lexer, declared: dict):
    """One declaration statement; `declared` holds the relations that
    earlier statements (source or target) declared."""
    rels = {}
    while True:
        tok = lex.peek()
        if tok is None or tok[0] != "ident" or tok[1] in _KEYWORDS:
            lex.error("expected a relation declaration like R/2")
        name = lex.next()[1]
        lex.expect("/")
        num = lex.peek()
        if num is None or num[0] != "number":
            lex.error("expected an arity")
        lex.next()
        if name in rels or name in declared:
            lex.fail(tok, f"relation {name} declared twice")
        rels[name] = int(num[1])
        if lex.accept(","):
            continue
        lex.expect(".")
        return rels


def parse_mapping(text: str) -> SchemaMapping:
    """Parse the mapping DSL into a schema mapping."""
    lex = Lexer(text, _TOKEN)
    source: dict = {}
    target: dict = {}
    tgds = []

    def lookup(rel):
        return source.get(rel, target.get(rel))

    while True:
        tok = lex.peek()
        if tok is None:
            break
        if tok[1] == "source":
            lex.next()
            source.update(_parse_decls(lex, {**source, **target}))
        elif tok[1] == "target":
            lex.next()
            target.update(_parse_decls(lex, {**source, **target}))
        elif tok[1] == "tgd":
            lex.next()
            lex.expect(":")
            parser = _FormulaParser(lex, lookup)
            antecedent = parser.formula()
            lex.expect("->")
            exist_vars: list = []
            nxt = lex.peek()
            if nxt and nxt[1] == "exists":
                lex.next()
                exist_vars.append(parser._var_name())
                while lex.accept(","):
                    exist_vars.append(parser._var_name())
                lex.expect(":")
            atoms = [parser.atom()]
            while lex.accept("&"):
                atoms.append(parser.atom())
            lex.expect(".")
            for a in atoms:
                if not isinstance(a, RelAtom):
                    lex.fail(
                        tok,
                        "dependency consequents must be conjunctions of "
                        "relational atoms",
                    )
                if a.rel not in target:
                    lex.fail(tok, f"consequent relation {a.rel} is not a target relation")
            used = {v.name for a in atoms for v in a.args if isinstance(v, Var)}
            for rel_atom in _rel_atoms(antecedent):
                if rel_atom.rel in target:
                    lex.fail(tok, f"antecedent uses target relation {rel_atom.rel}")
            try:
                tgds.append(
                    TGD(antecedent, tuple(v for v in exist_vars if v in used), tuple(atoms))
                )
            except MappingError as exc:
                lex.fail(tok, str(exc))
        else:
            lex.error("expected 'source', 'target' or 'tgd'")
    try:
        return SchemaMapping(Schema(source), Schema(target), tuple(tgds))
    except MappingError as exc:
        raise ParseError(str(exc)) from None


def declarations(text: str) -> dict:
    """Relation name -> (arity, line, col) of its declaration, in file
    order, for a mapping text that `parse_mapping` accepts."""
    lex = Lexer(text, _TOKEN)
    toks = lex.tokens
    return {
        name[1]: (int(num[1]), *lex.where(name))
        for name, slash, num in zip(toks, toks[1:], toks[2:])
        if name[0] == "ident" and slash[1] == "/"
    }


def _rel_atoms(f: Formula):
    if isinstance(f, RelAtom):
        yield f
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _rel_atoms(p)
    elif isinstance(f, (Not, Exists, Forall)):
        yield from _rel_atoms(f.body)


def parse_formula(text: str, schema: Schema) -> Formula:
    """Parse a standalone formula against one schema (used for queries)."""
    lex = Lexer(text, _TOKEN)
    parser = _FormulaParser(lex, dict(schema.rels).get)
    f = parser.formula()
    if lex.peek() is not None:
        lex.error("trailing input after formula")
    return f
