"""Parser for the mapping DSL.

Statements end with a period:

    source R/2, P/1.
    target S/2.
    tgd: R(x,y) & x < y -> exists z: S(x,z) & S(y,z).

Operators `&`, `|`, `!`, `exists v:`, `forall v:`, `=`, `<` and
parentheses; variables are lowercase identifiers, constants are
single-quoted.  Quantifier bodies extend as far right as possible.
`certain[...]` occurs only in printed output and is rejected here.

`_TOKEN` feeds the shared `model.Lexer`.  `_FormulaParser` is a plain
precedence parser with one method per level (`|`, `&`, unary).  Each
relational atom is checked where it is read: an antecedent names source
relations, a consequent target ones.  Every error is raised at the token
it names, whose line and column are worked out then.
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

# Deepest nesting of `!`, parentheses and quantified variables that a
# formula may have.  An explicit bound puts the error at a position the
# text alone fixes, and keeps every recursive walk of the formula well
# inside Python's stack.
MAX_NESTING = 100

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
    """`formula` (|), `conjunction` (&) and `unary` (!, parentheses,
    quantifiers, `true`, atoms), one per level; a quantifier body is a
    whole `formula`.  `rels` maps every declared relation to its arity;
    an atom of `formula` must name one in `allowed`.
    """

    def __init__(self, lex: Lexer, rels: dict, allowed):
        self.lex = lex
        self.rels = rels
        self.allowed = allowed
        self.depth = 0

    def nested(self, tok, levels: int, parse) -> Formula:
        """`parse()`, `levels` deeper: one for `!` or `(`, one per
        variable for a quantifier.  Past MAX_NESTING it fails at `tok`."""
        if self.depth + levels > MAX_NESTING:
            self.lex.fail(tok, "formula nested too deeply")
        self.depth += levels
        f = parse()
        self.depth -= levels
        return f

    def formula(self) -> Formula:
        parts = [self.conjunction()]
        while self.lex.accept("|"):
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.lex.accept("&"):
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        lex = self.lex
        tok = lex.peek()
        if self._at_rel_atom(tok):
            return self.rel_atom(self.allowed, "antecedent uses target relation {}")
        if tok[0] == "end":
            lex.error("expected a formula")
        if tok[1] == "!":
            lex.take()
            return Not(self.nested(tok, 1, self.unary))
        if tok[1] == "(":
            lex.take()
            inner = self.nested(tok, 1, self.formula)
            lex.expect(")")
            return inner
        if tok[1] in ("exists", "forall"):
            lex.take()
            names = self.var_names()
            body = self.nested(tok, len(names), self.formula)
            node = Exists if tok[1] == "exists" else Forall
            for name in reversed(names):
                body = node(name, body)
            return body
        if tok[1] == "true":
            lex.take()
            return TrueF()
        if tok[1] == "certain":
            lex.fail(
                tok,
                "certain[...] cannot be parsed back; regenerate the mapping "
                "with certain answers eliminated",
            )
        left = self.term()
        if lex.accept("="):
            return Eq(left, self.term())
        if lex.accept("<"):
            return Lt(left, self.term())
        lex.error("expected '=' or '<'")

    def var_names(self) -> list:
        """`v1, ..., vn:`, as after a quantifier or a consequent's `exists`."""
        names = [self._var_name()]
        while self.lex.accept(","):
            names.append(self._var_name())
        self.lex.expect(":")
        return names

    def _var_name(self) -> str:
        tok = self.lex.peek()
        if tok[0] != "ident" or tok[1] in _KEYWORDS:
            self.lex.error("expected a variable name")
        if not tok[1][0].islower():
            self.lex.error("variables must start with a lowercase letter")
        return self.lex.take()[1]

    def term(self):
        tok = self.lex.peek()
        if tok[0] == "quoted":
            self.lex.take()
            return self.lex.quoted_const(tok)
        if tok[0] == "ident" and tok[1] not in _KEYWORDS:
            if not tok[1][0].islower():
                self.lex.error(
                    "expected a variable (lowercase) or quoted constant"
                )
            self.lex.take()
            return Var(tok[1])
        self.lex.error("expected a term")

    def _at_rel_atom(self, tok) -> bool:
        return tok[0] == "ident" and tok[1] not in _KEYWORDS and self.lex.peek(1)[1] == "("

    def rel_atom(self, allowed, misuse: str) -> RelAtom:
        """`R(t1, ..., tn)` for a relation R in `allowed`; a relation
        declared but not allowed fails with `misuse` at R.  A consequent
        reads its atoms here: a comparison fails at its first term, and a
        token that starts no term fails as `term` fails at it."""
        lex = self.lex
        tok = lex.peek()
        if not self._at_rel_atom(tok):
            if tok[0] == "end":
                lex.error("expected an atom")
            self.term()
            lex.fail(tok, "dependency consequents must be conjunctions of relational atoms")
        name = lex.take()[1]
        lex.expect("(")
        args = []
        if not lex.accept(")"):
            args.append(self.term())
            while lex.accept(","):
                args.append(self.term())
            lex.expect(")")
        arity = self.rels.get(name)
        if arity is None:
            lex.fail(tok, f"undeclared relation {name}")
        if arity != len(args):
            lex.fail(
                tok,
                f"arity mismatch for {name}: declared /{arity}, "
                f"used with {len(args)} arguments",
            )
        if name not in allowed:
            lex.fail(tok, misuse.format(name))
        return RelAtom(name, tuple(args))


def _parse_decls(lex: Lexer, declared: dict):
    """One declaration statement; `declared` holds the relations that
    earlier statements (source or target) declared."""
    rels = {}
    while True:
        tok = lex.peek()
        if tok[0] != "ident" or tok[1] in _KEYWORDS:
            lex.error("expected a relation declaration like R/2")
        name = lex.take()[1]
        lex.expect("/")
        if lex.peek()[0] != "number":
            lex.error("expected an arity")
        arity = int(lex.take()[1])
        if name in rels or name in declared:
            lex.fail(tok, f"relation {name} declared twice")
        rels[name] = arity
        if lex.accept(","):
            continue
        lex.expect(".")
        return rels


def parse_mapping(text: str) -> SchemaMapping:
    """Parse the mapping DSL into a schema mapping."""
    lex = Lexer(text, _TOKEN)
    source: dict = {}
    target: dict = {}
    declared: dict = {}
    tgds = []
    consequent = "consequent relation {} is not a target relation"
    while (tok := lex.peek())[0] != "end":
        if tok[1] in ("source", "target"):
            lex.take()
            rels = _parse_decls(lex, declared)
            (source if tok[1] == "source" else target).update(rels)
            declared.update(rels)
        elif lex.accept("tgd"):
            lex.expect(":")
            parser = _FormulaParser(lex, declared, source)
            antecedent = parser.formula()
            lex.expect("->")
            exist_vars = parser.var_names() if lex.accept("exists") else []
            atoms = [parser.rel_atom(target, consequent)]
            while lex.accept("&"):
                atoms.append(parser.rel_atom(target, consequent))
            lex.expect(".")
            used = {v.name for a in atoms for v in a.args if isinstance(v, Var)}
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


def parse_formula(text: str, schema: Schema) -> Formula:
    """Parse a standalone formula against one schema (used for queries)."""
    lex = Lexer(text, _TOKEN)
    rels = dict(schema.rels)
    f = _FormulaParser(lex, rels, rels).formula()
    if lex.peek()[0] != "end":
        lex.error("trailing input after formula")
    return f
