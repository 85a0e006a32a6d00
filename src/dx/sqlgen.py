"""Compilation of formulas and term interpretations to SQL text.

The dialect is SQLite-compatible: all columns are TEXT with binary
collation, so `<` on columns agrees with the engine's constant order.
Labeled nulls are encoded as tagged text `@f(arg,...)` rather than SQL
NULL (SQL NULL's three-valued semantics would break labeled-null
identity).  Constants therefore may not start with `@`; inside a null's
arguments, `\\`, `,`, `(` and `)` are escaped with a backslash.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

from dx.chase import App, TermInterpretation
from dx.lang import (
    And,
    Certain,
    Eq,
    Exists,
    Forall,
    Formula,
    Lt,
    Not,
    Or,
    RelAtom,
    TrueF,
    Var,
    free_vars,
)
from dx.model import Const, Fact, Instance, MappingError, Schema, SkolemNull, Value


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


def decode_value(text: str) -> Value:
    """Exact inverse of encode_value on its image."""
    if not text.startswith("@"):
        return Const(text)
    value, end = _decode_term(text, 0)
    if end < len(text):
        raise ValueError(f"trailing text after null encoding: {text[end:]!r}")
    return value


def _decode_term(text: str, i: int):
    """The Skolem term encoded at text[i] == '@', and the index after it."""
    open_idx = text.find("(", i)
    if open_idx <= i + 1:
        raise ValueError(f"malformed null encoding: {text!r}")
    symbol = text[i + 1 : open_idx]
    j = open_idx + 1
    args = []
    if text.startswith(")", j):
        return SkolemNull(symbol, ()), j + 1
    while True:
        if text.startswith("@", j):
            arg, j = _decode_term(text, j)
        else:
            buf = []
            while j < len(text) and text[j] not in ",)":
                if text[j] == "\\":
                    j += 1
                elif text[j] == "(":
                    raise ValueError(f"unescaped '(' in null encoding: {text!r}")
                buf.append(text[j:j + 1])
                j += 1
            if not buf:
                raise ValueError("empty argument in null encoding")
            arg = Const("".join(buf))
        args.append(arg)
        if j >= len(text):
            raise ValueError(f"unbalanced null encoding: {text!r}")
        if text[j] == ")":
            return SkolemNull(symbol, tuple(args)), j + 1
        if text[j] != ",":
            raise ValueError(f"malformed null encoding: {text!r}")
        j += 1


def _sql_quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


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


# Every statement reads the active domain through one CTE: a CTE that a
# statement reads more than once is computed once (SQLite materialises
# it), where each read of the adom view would rerun its UNION.
_DOM_CTE = "WITH dom(v) AS (SELECT v FROM adom)"


class _SqlBuilder:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.counter = 0
        self.uses_dom = False

    def alias(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def dom(self, prefix: str) -> tuple:
        """A fresh alias over the active domain, and its FROM item."""
        self.uses_dom = True
        alias = self.alias(prefix)
        return alias, f"dom {alias}"

    def term(self, t, env: dict) -> str:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise MappingError(f"unbound variable {t.name}") from None
        if isinstance(t, Const):
            return _sql_quote(t.text)
        if isinstance(t, App):
            pieces = [_sql_quote("@" + t.symbol + "(")]
            for i, a in enumerate(t.args):
                if i:
                    pieces.append(_sql_quote(","))
                if isinstance(a, Const):
                    pieces.append(_sql_quote(_encode_arg(a)))
                elif isinstance(a, App):
                    pieces.append(self.term(a, env))
                else:
                    # a source value, hence a constant: escape as _encode_arg
                    sql = self.term(a, env)
                    for ch, esc in _ESCAPES:
                        sql = f"replace({sql}, {_sql_quote(ch)}, {_sql_quote(esc)})"
                    pieces.append(sql)
            pieces.append(_sql_quote(")"))
            return " || ".join(pieces)
        raise TypeError(f"not a term: {t!r}")

    def cond(self, f: Formula, env: dict) -> str:
        if isinstance(f, TrueF):
            return "1 = 1"
        if isinstance(f, RelAtom):
            if f.rel not in self.schema:
                raise MappingError(f"undeclared relation {f.rel}")
            alias = self.alias("t")
            checks = " AND ".join(
                f"{alias}.c{i + 1} = {self.term(a, env)}"
                for i, a in enumerate(f.args)
            )
            where = f" WHERE {checks}" if checks else ""
            return f"EXISTS (SELECT 1 FROM {_ident(f.rel)} {alias}{where})"
        if isinstance(f, Eq):
            return f"{self.term(f.left, env)} = {self.term(f.right, env)}"
        if isinstance(f, Lt):
            return f"{self.term(f.left, env)} < {self.term(f.right, env)}"
        if isinstance(f, And):
            return "(" + " AND ".join(self.cond(p, env) for p in f.parts) + ")"
        if isinstance(f, Or):
            return "(" + " OR ".join(self.cond(p, env) for p in f.parts) + ")"
        if isinstance(f, Not):
            return f"NOT {self.cond(f.body, env)}"
        if isinstance(f, Exists):
            alias, item = self.dom("q")
            inner = self.cond(f.body, {**env, f.var: f"{alias}.v"})
            return f"EXISTS (SELECT 1 FROM {item} WHERE {inner})"
        if isinstance(f, Forall):
            alias, item = self.dom("q")
            inner = self.cond(Not(f.body), {**env, f.var: f"{alias}.v"})
            return f"NOT EXISTS (SELECT 1 FROM {item} WHERE {inner})"
        if isinstance(f, Certain):
            raise MappingError(
                "certain[...] cannot be compiled to SQL; eliminate it first"
            )
        raise TypeError(f"not a formula: {f!r}")


def formula_to_sql(f: Formula, schema: Schema, free=None) -> str:
    """SELECT statement whose rows are the formula's answers.

    Free variables become columns drawn from the active domain (the
    adom view, read through the `dom` CTE); the result agrees with the
    in-memory evaluator row for row.
    """
    if free is None:
        free = tuple(sorted(free_vars(f)))
    missing = free_vars(f) - set(free)
    if missing:
        raise MappingError(f"unbound free variables: {sorted(missing)}")
    builder = _SqlBuilder(schema)
    env = {}
    froms = []
    for v in free:
        alias, item = builder.dom("a")
        env[v] = f"{alias}.v"
        froms.append(item)
    cond = builder.cond(f, env)
    cte = f"{_DOM_CTE}\n" if builder.uses_dom else ""
    if free:
        cols = ", ".join(f"{env[v]} AS {_ident(v)}" for v in free)
        return (
            f"{cte}SELECT DISTINCT {cols}\nFROM {', '.join(froms)}\nWHERE {cond}"
        )
    return f"{cte}SELECT DISTINCT 1 AS sat\nWHERE {cond}"


def interpretation_to_sql(pi: TermInterpretation) -> SqlArtifact:
    """DDL, adom view, and one view per target relation computing the
    interpretation's output under the text encoding of values."""
    queries = []
    for rel, arity in pi.target.rels:
        if arity == 0:
            raise MappingError(f"cannot emit SQL for 0-ary relation {rel}")
        branch_sqls = []
        uses_dom = False
        for b in pi.branches_for(rel):
            builder = _SqlBuilder(pi.source)
            env = {}
            froms = []
            for v in b.params:
                alias, item = builder.dom("a")
                env[v] = f"{alias}.v"
                froms.append(item)
            cols = ", ".join(
                f"{builder.term(t, env)} AS c{i + 1}" for i, t in enumerate(b.terms)
            )
            cond = builder.cond(b.condition, env)
            if froms:
                branch_sqls.append(
                    f"SELECT {cols} FROM {', '.join(froms)} WHERE {cond}"
                )
            else:
                branch_sqls.append(f"SELECT {cols} WHERE {cond}")
            uses_dom = uses_dom or builder.uses_dom
        view = _ident(f"target_{rel}")
        outer_cols = ", ".join(f"c{i + 1}" for i in range(arity))
        if branch_sqls:
            union = "\nUNION ALL\n".join(branch_sqls)
            cte = f"{_DOM_CTE}\n" if uses_dom else ""
            stmt = (
                f"CREATE VIEW {view} AS\n{cte}"
                f"SELECT DISTINCT {outer_cols} FROM (\n{union}\n);"
            )
        else:
            empty_cols = ", ".join(f"'' AS c{i + 1}" for i in range(arity))
            stmt = f"CREATE VIEW {view} AS\nSELECT {empty_cols} WHERE 0;"
        queries.append((rel, stmt))
    return SqlArtifact(source_ddl(pi.source), adom_view_sql(pi.source), tuple(queries))


# ---------------------------------------------------------------------------
# CSV conventions and execution helpers.

def write_source_csv(inst: Instance, directory: str):
    """One <relation>.csv per source relation, no header, UTF-8."""
    if not inst.is_source:
        raise MappingError("CSV export is defined for null-free instances")
    os.makedirs(directory, exist_ok=True)
    for name, _arity in inst.schema.rels:
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for args in inst.by_rel.get(name, ()):
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
    """Create source tables in a DB-API connection and insert the facts."""
    cur = conn.cursor()
    for stmt in source_ddl(inst.schema).split(";"):
        stmt = stmt.strip()
        if stmt:
            cur.execute(stmt)
    for name, _arity in inst.schema.rels:
        for args in inst.by_rel.get(name, ()):
            marks = ", ".join("?" for _ in args)
            cur.execute(
                f"INSERT INTO {_ident(name)} VALUES ({marks})",
                [a.text for a in args],
            )
    conn.commit()


def run_artifact(conn, artifact: SqlArtifact):
    """Create the adom and target views (tables must already exist)."""
    cur = conn.cursor()
    cur.execute(artifact.adom_view.rstrip(";\n ").rstrip(";"))
    for _rel, stmt in artifact.queries:
        cur.execute(stmt.rstrip(";\n ").rstrip(";"))
    conn.commit()


def read_target(conn, target: Schema) -> Instance:
    """Decode the target views back into an instance."""
    cur = conn.cursor()
    facts = []
    for name, arity in target.rels:
        cur.execute(f"SELECT * FROM {_ident(f'target_{name}')}")
        for row in cur.fetchall():
            facts.append(Fact(name, tuple(decode_value(v) for v in row)))
    return Instance(target, facts)
