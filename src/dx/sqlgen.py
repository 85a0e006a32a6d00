"""Compilation of formulas and term interpretations to SQL text.

The dialect is SQLite-compatible: all columns are TEXT with binary
collation, so `<` on columns agrees with the engine's constant order.
Labeled nulls are encoded as tagged text `@f(arg,...)` rather than SQL
NULL (SQL NULL's three-valued semantics would break labeled-null
identity).  Constants therefore may not start with `@`; inside a null's
arguments, `\\`, `,`, `(` and `)` are escaped with a backslash.

Formulas are printed from their relational plans (`dx.plan`), the plans
the in-memory evaluator runs: a scan is a FROM item joined on the bound
variables, a comparison or domain check a WHERE condition, a copy a
column expression, a negation `NOT EXISTS` over its body correlated on
the bound variables, and a closed union a UNION subquery, or a CTE when
the statement reads it more than once.  A target view computes each
dependency condition once, as a CTE that every consequent atom's branch
reads; the active domain is read, through one `dom` CTE, only for a
variable nothing else binds and to check a constant.  A branch selects
its rule's compiled head positions (`dx.chase.Rule`): a parameter is a
CTE column, a constant a literal, and a Skolem term, its symbol over
the rule's parameters, one concatenation built once per rule.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass

from dx.chase import TermInterpretation
from dx.lang import Var
from dx.model import Const, Fact, Instance, MappingError, Schema, SkolemNull, Value
from dx.plan import Anti, Cert, Cmp, Copy, Dom, Member, Node, Proj, Ref, Scan, Seq, Union


# Inside a null's arguments a constant's `\`, `,`, `(` and `)` get a
# backslash, so its text never reads as structure.  Backslash goes first.
_ESCAPES = tuple((ch, "\\" + ch) for ch in "\\,()")


def encode_value(v: Value) -> str:
    """Text encoding: constants verbatim, Skolem nulls as @f(arg,...)
    with `\\`, `,`, `(` and `)` escaped in constant arguments."""
    if isinstance(v, Const):
        return v.text
    if isinstance(v, SkolemNull):
        return "@" + v.symbol + "(" + ",".join(map(_encode_arg, v.args)) + ")"
    raise MappingError(f"value has no SQL encoding: {v!r}")


def _encode_arg(v: Value) -> str:
    if not isinstance(v, Const):
        return encode_value(v)
    text = v.text
    for ch, esc in _ESCAPES:
        text = text.replace(ch, esc)
    return text


# A null encoding in pieces: the text up to each unescaped `(`, `,` or
# `)`, and that delimiter.  `split` puts any text no piece covers (a
# backslash that escapes nothing, text after the last delimiter) at
# every third place.
_PIECES = re.compile(r"((?:[^\\(),]|\\.)*)([(),])", re.S)
_UNESCAPE = re.compile(r"\\(.)", re.S)
# The piece before a term's `(`: `@` and its function symbol.
_SYMBOL = re.compile(r"@[^\\]+\Z")


def decode_value(text: str) -> Value:
    """Exact inverse of encode_value on values whose function symbols
    hold no `\\`, `(`, `,` or `)`; a ValueError on text that encodes no
    such value."""
    if not text.startswith("@"):
        return Const(text)
    parts = _PIECES.split(text)
    if any(parts[::3]):
        raise ValueError(f"malformed null encoding: {text!r}")
    stack: list = []  # (symbol, args) of each open term
    done = None  # the term a `)` just closed, until its `,` or `)`
    for piece, delim in zip(parts[1::3], parts[2::3]):
        if delim == "(":
            if done is not None or not _SYMBOL.match(piece):
                raise ValueError(f"malformed null encoding: {text!r}")
            stack.append((piece[1:], []))
            continue
        if not stack:
            raise ValueError(f"unbalanced null encoding: {text!r}")
        args = stack[-1][1]
        if done is not None:
            if piece:
                raise ValueError(f"malformed null encoding: {text!r}")
            args.append(done)
            done = None
        elif piece:
            if piece.startswith("@"):
                raise ValueError(f"malformed null encoding: {text!r}")
            args.append(Const(_UNESCAPE.sub(r"\1", piece) if "\\" in piece else piece))
        elif delim == "," or args:
            raise ValueError("empty argument in null encoding")
        if delim == ")":
            symbol, args = stack.pop()
            done = SkolemNull(symbol, tuple(args))
    if stack or done is None:
        raise ValueError(f"unbalanced null encoding: {text!r}")
    return done


def _sql_quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _skolem_sql(symbol: str, args) -> str:
    """SQL for the encoding of the null `symbol` over `args`, SQL
    expressions of source values, hence constants: each is escaped as
    `_encode_arg` escapes a constant."""
    pieces = [_sql_quote("@" + symbol + "(")]
    for i, sql in enumerate(args):
        if i:
            pieces.append(_sql_quote(","))
        for ch, esc in _ESCAPES:
            sql = f"replace({sql}, {_sql_quote(ch)}, {_sql_quote(esc)})"
        pieces.append(sql)
    pieces.append(_sql_quote(")"))
    return " || ".join(pieces)


def _ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


@dataclass(frozen=True)
class SqlArtifact:
    ddl: str
    adom_view: str
    queries: tuple  # (target relation, CREATE VIEW statement)

    def text(self, include_ddl: bool = False) -> str:
        parts = []
        if include_ddl:
            parts.append(self.ddl)
        parts.append(self.adom_view)
        parts.extend(stmt for _rel, stmt in self.queries)
        return "\n\n".join(parts) + "\n"


# Names the artifact gives its own objects: the adom view and, within a
# statement, the CTEs that read the domain, a rule's rows and a shared
# union.  A CTE hides a table of its name.
_RESERVED = re.compile(r"adom|dom|[ku][0-9]+", re.ASCII | re.IGNORECASE)


def name_clash(source: Schema, target: Schema):
    """The first relation whose name SQLite would take for another name
    the artifact uses, with the reason; None if there is none.  Each
    source relation is a table and each target relation T the view
    `target_T`, and SQLite compares names ignoring ASCII case."""
    views = {f"target_{t}".encode().lower(): t for t, _arity in target.rels}
    seen: dict = {}
    for rel, _arity in source.rels + target.rels:
        key = rel.encode().lower()  # folds ASCII letters only, as SQLite does
        if _RESERVED.fullmatch(rel):
            return rel, f"relation name {rel} is reserved in the emitted SQL"
        if key in seen:
            return rel, f"relation names {seen[key]} and {rel} are one name in SQL"
        if key in views:
            return rel, f"relation name {rel} is the view name of target relation {views[key]}"
        seen[key] = rel
    return None


def source_ddl(schema: Schema) -> str:
    stmts = []
    for name, arity in schema.rels:
        if arity == 0:
            raise MappingError(f"cannot emit SQL for 0-ary relation {name}")
        cols = ", ".join(f"c{i + 1} TEXT NOT NULL" for i in range(arity))
        stmts.append(f"CREATE TABLE {_ident(name)} ({cols});")
    return "\n".join(stmts)


def adom_view_sql(schema: Schema) -> str:
    selects = []
    for name, arity in schema.rels:
        for i in range(arity):
            selects.append(f"SELECT c{i + 1} AS v FROM {_ident(name)}")
    if not selects:
        selects.append("SELECT '' AS v WHERE 0")
    body = "\nUNION\n".join(selects)
    return f"CREATE VIEW adom(v) AS\n{body};"


# A statement that reads the active domain does so through one leading
# CTE: a CTE that a statement reads more than once is computed once
# (SQLite materialises it), where each read of the adom view would rerun
# its UNION.
_DOM_CTE = "WITH dom(v) AS (SELECT v FROM adom)"


class _Select:
    """A SELECT under construction: its FROM items and WHERE conditions.
    The SQL expression of each bound variable is kept beside it, in an
    `env` dict, so that scopes can share one select."""

    __slots__ = ("froms", "where")

    def __init__(self):
        self.froms = []
        self.where = []

    def tail(self) -> str:
        text = f" FROM {', '.join(self.froms)}" if self.froms else ""
        return text + (f" WHERE {' AND '.join(self.where)}" if self.where else "")

    def condition(self) -> str:
        """True iff the select has a row."""
        if self.froms:
            return f"EXISTS (SELECT 1{self.tail()})"
        return "(" + " AND ".join(self.where) + ")" if self.where else "1"


class _SqlBuilder:
    """Prints plans as SQL for one statement.  A shared union that the
    statement reads more than once becomes a CTE."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.counter = 0
        self.uses_dom = False
        self.ctes: list = []  # (name, body), each after those it reads
        self._names: dict = {}  # shared node -> CTE name
        self._reads: dict = {}  # shared node -> reads in the statement

    def alias(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def term(self, t, env: dict) -> str:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise MappingError(f"unbound variable {t.name}") from None
        if isinstance(t, Const):
            return _sql_quote(t.text)
        raise TypeError(f"not a term: {t!r}")

    def count(self, node: Node):
        """Record how often the statement reads each shared union."""
        kind = type(node)
        if kind is Ref:
            n = self._reads[node.node] = self._reads.get(node.node, 0) + 1
            if n == 1:
                self.count(node.node)
        elif kind in (Seq, Union):
            for child in node.steps if kind is Seq else node.parts:
                self.count(child)
        elif kind in (Proj, Anti):
            self.count(node.body)

    def with_clause(self) -> str:
        items = [_DOM_CTE.removeprefix("WITH ")] if self.uses_dom else []
        items += [f"{name} AS (\n{body}\n)" for name, body in self.ctes]
        return "WITH " + "\n, ".join(items) + "\n" if items else ""

    def query(self, node: Node, cols: tuple, as_names=None, distinct=True) -> str:
        """A SELECT of node's rows, one column per variable of `cols`."""
        if type(node) is Union and node.vars:
            return "\nUNION\n".join(self.query(p, cols, as_names, False) for p in node.parts)
        sel, env = _Select(), {}
        self.into(node, sel, env)
        names = as_names or [f"c{i + 1}" for i in range(len(cols))]
        outs = [f"{env[v]} AS {a}" for v, a in zip(cols, names)] or ["1 AS sat"]
        head = "SELECT DISTINCT " if distinct else "SELECT "
        return head + ", ".join(outs) + sel.tail()

    def shared(self, node: Node) -> str:
        """A FROM item reading a shared union: its CTE, or a subquery."""
        name = self._names.get(node)
        if name is not None:
            return name
        body = self.query(node, node.vars)
        if self._reads.get(node, 0) < 2:
            return f"(\n{body}\n)"
        name = self._names[node] = f"u{len(self._names) + 1}"
        self.ctes.append((name, body))
        return name

    def _bind(self, var: str, expr: str, sel: _Select, env: dict):
        if var in env:
            sel.where.append(f"{expr} = {env[var]}")
        else:
            env[var] = expr

    def _in_dom(self, expr: str) -> str:
        self.uses_dom = True
        return f"{expr} IN (SELECT v FROM dom)"

    def into(self, node: Node, sel: _Select, env: dict):
        """Add node to sel: its tables joined to the bound variables in env,
        and its conditions; env gains the variables it binds."""
        kind = type(node)
        if kind is Seq:
            for step in node.steps:
                self.into(step, sel, env)
        elif kind is Scan:
            if node.rel not in self.schema:
                raise MappingError(f"undeclared relation {node.rel}")
            alias = self.alias("t")
            sel.froms.append(f"{_ident(node.rel)} {alias}")
            for i, a in enumerate(node.args):
                col = f"{alias}.c{i + 1}"
                if isinstance(a, Var):
                    self._bind(a.name, col, sel, env)
                else:
                    sel.where.append(f"{col} = {self.term(a, env)}")
        elif kind is Dom:
            self.uses_dom = True
            alias = self.alias("a")
            sel.froms.append(f"dom {alias}")
            self._bind(node.var, f"{alias}.v", sel, env)
        elif kind is Cmp:
            test = f"{self.term(node.left, env)} {node.op} {self.term(node.right, env)}"
            sel.where.append(f"NOT ({test})" if node.negated else test)
        elif kind is Member:
            sel.where.append(self._in_dom(self.term(node.term, env)))
        elif kind is Copy:
            expr = self.term(node.term, env)
            if not isinstance(node.term, Var):
                sel.where.append(self._in_dom(expr))
            self._bind(node.var, expr, sel, env)
        elif kind is Proj:
            outer = env.pop(node.var, None)
            self.into(node.body, sel, env)
            env.pop(node.var, None)
            if outer is not None:
                env[node.var] = outer
        elif kind is Anti:
            sub = _Select()
            self.into(node.body, sub, dict(env))
            sel.where.append("NOT " + sub.condition())
        elif kind is Union:  # a filter on bound variables
            conds = []
            for part in node.parts:
                sub = _Select()
                self.into(part, sub, dict(env))
                conds.append(sub.condition())
            sel.where.append("(" + " OR ".join(conds) + ")")
        elif kind is Ref:
            alias = self.alias("s")
            sel.froms.append(f"{self.shared(node.node)} {alias}")
            for i, v in enumerate(node.vars):
                self._bind(v, f"{alias}.c{i + 1}", sel, env)
        elif kind is Cert:
            raise MappingError(
                "certain[...] cannot be compiled to SQL; eliminate it first"
            )
        else:
            raise TypeError(f"not a plan node: {node!r}")


def interpretation_to_sql(pi: TermInterpretation) -> SqlArtifact:
    """DDL, adom view, and one view per target relation computing the
    interpretation's output under the text encoding of values.

    Each view prints the plan of every rule with a head in it once, as a
    CTE `kN` whose columns are the rule's parameters; the heads only
    build their term tuples from it.  A relation name that `name_clash`
    finds is an error."""
    clash = name_clash(pi.source, pi.target)
    if clash is not None:
        raise MappingError(clash[1])
    queries = []
    for rel, arity in pi.target.rels:
        if arity == 0:
            raise MappingError(f"cannot emit SQL for 0-ary relation {rel}")
        view = _ident(f"target_{rel}")
        uses = [
            (rule, plan)
            for rule, plan in zip(pi.rules, pi.plans)
            if any(head == rel for head, _ps in rule.heads)
        ]
        if not uses:
            empty_cols = ", ".join(f"'' AS c{i + 1}" for i in range(arity))
            queries.append((rel, f"CREATE VIEW {view} AS\nSELECT {empty_cols} WHERE 0;"))
            continue
        builder = _SqlBuilder(pi.source)
        for _rule, plan in uses:
            builder.count(plan)
        branch_sqls = []
        for k, (rule, plan) in enumerate(uses, 1):
            builder.ctes.append((f"k{k}", builder.query(plan, rule.params)))
            params = [f"k{k}.c{i + 1}" for i in range(len(rule.params))]
            terms = [
                *params,
                *(_sql_quote(c.text) for c in rule.fixed),
                *(_skolem_sql(symbol, params) for symbol in rule.skolems),
            ]
            for head, ps in rule.heads:
                if head == rel:
                    cols = ", ".join(f"{terms[p]} AS c{i + 1}" for i, p in enumerate(ps))
                    branch_sqls.append(f"SELECT {cols} FROM k{k}")
        outer_cols = ", ".join(f"c{i + 1}" for i in range(arity))
        union = "\nUNION ALL\n".join(branch_sqls)
        queries.append((rel, (
            f"CREATE VIEW {view} AS\n{builder.with_clause()}"
            f"SELECT DISTINCT {outer_cols} FROM (\n{union}\n);"
        )))
    return SqlArtifact(source_ddl(pi.source), adom_view_sql(pi.source), tuple(queries))


# ---------------------------------------------------------------------------
# CSV conventions and execution helpers.

def write_source_csv(inst: Instance, directory: str):
    """One <relation>.csv per source relation, no header, UTF-8, rows
    in canonical order."""
    if not inst.is_source:
        raise MappingError("CSV export is defined for null-free instances")
    os.makedirs(directory, exist_ok=True)
    for name, _arity in inst.schema.rels:
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for args in sorted(inst.by_rel.get(name, ())):
                writer.writerow([a.text for a in args])


def read_source_csv(schema: Schema, directory: str) -> Instance:
    facts = []
    for name, arity in schema.rels:
        path = os.path.join(directory, f"{name}.csv")
        if not os.path.exists(path):
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                where = f"{path}: row {reader.line_num}"
                if len(row) != arity:
                    raise MappingError(
                        f"{where}: expected {arity} columns, got {len(row)}"
                    )
                try:
                    facts.append(Fact(name, tuple(Const(v) for v in row)))
                except ValueError as exc:
                    raise MappingError(f"{where}: {exc}") from None
    return Instance(schema, facts)


def load_instance(conn, inst: Instance):
    """Create source tables in an sqlite3 connection and insert the
    facts, each relation's rows in canonical order: SQLite's work (an
    EXISTS scan stops at its first match) follows the row order, so it
    repeats for one input.  A relation name that `name_clash` finds is
    an error."""
    clash = name_clash(inst.schema, Schema({}))
    if clash is not None:
        raise MappingError(clash[1])
    cur = conn.cursor()
    cur.executescript(source_ddl(inst.schema))
    for name, arity in inst.schema.rels:
        marks = ", ".join("?" * arity)
        cur.executemany(
            f"INSERT INTO {_ident(name)} VALUES ({marks})",
            ([a.text for a in args] for args in sorted(inst.by_rel.get(name, ()))),
        )
    conn.commit()


def run_artifact(conn, artifact: SqlArtifact):
    """Create the adom and target views (tables must already exist)."""
    conn.executescript(artifact.text())


def read_target(conn, target: Schema) -> Instance:
    """Decode the target views back into an instance.  Each distinct cell
    text is decoded once, so equal values share one object."""
    cur = conn.cursor()
    decoded: dict = {}
    facts = []
    for name, arity in target.rels:
        cur.execute(f"SELECT * FROM {_ident(f'target_{name}')}")
        for row in cur.fetchall():
            args = []
            for text in row:
                v = decoded.get(text)
                if v is None:
                    v = decoded[text] = decode_value(text)
                args.append(v)
            facts.append(Fact(name, tuple(args)))
    return Instance(target, facts)
