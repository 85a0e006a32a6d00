"""Abstract syntax for formulas over schemas, dependencies, and mappings.

Formulas are first-order with an order predicate over constants, plus a
`Certain` node that embeds the certain answers of a conjunctive target
query with respect to a base mapping.  Terms inside atoms are variables
or constants only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable

from dx.model import Const, MappingError, Schema, quote


class _Node:
    """Slots for what a node computes once: its hash and, on a compound
    formula, its free variables.  Unset until first used; `==` and repr
    do not read them."""

    __slots__ = ("_hash", "_free")


def _node(cls):
    """Make a `_Node` subclass a frozen, slotted dataclass whose hash is
    a hash of its fields, computed once."""
    cls = dataclass(frozen=True, slots=True)(cls)
    key = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Var(_Node):
    name: str


Term = Var | Const


@_node
class RelAtom(_Node):
    rel: str
    args: tuple


@_node
class Eq(_Node):
    left: Term
    right: Term


@_node
class Lt(_Node):
    left: Term
    right: Term


@_node
class And(_Node):
    parts: tuple


@_node
class Or(_Node):
    parts: tuple


@_node
class Not(_Node):
    body: "Formula"


@_node
class Exists(_Node):
    var: str
    body: "Formula"


@_node
class Forall(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class TrueF:
    pass


@_node
class Certain(_Node):
    """Membership in the certain answers of `query` w.r.t. `base`."""

    query: "Formula"
    base: "SchemaMapping"


Formula = RelAtom | Eq | Lt | And | Or | Not | Exists | Forall | TrueF | Certain

TRUE = TrueF()
FALSE = Not(TRUE)


def conj(parts: Iterable[Formula]) -> Formula:
    """Flattened conjunction; drops `true`, deduplicates, unwraps singletons."""
    out = tuple(dict.fromkeys(
        q
        for p in parts
        if not isinstance(p, TrueF)
        for q in (p.parts if isinstance(p, And) else (p,))
    ))
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(out)


def disj(parts: Iterable[Formula]) -> Formula:
    out = tuple(dict.fromkeys(
        q for p in parts for q in (p.parts if isinstance(p, Or) else (p,))
    ))
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(out)


def exists_all(vars: Iterable[str], body: Formula) -> Formula:
    for v in reversed(tuple(vars)):
        body = Exists(v, body)
    return body


def neg(f: Formula) -> Formula:
    return f.body if isinstance(f, Not) else Not(f)


def is_true(f: Formula) -> bool:
    return isinstance(f, TrueF)


def is_false(f: Formula) -> bool:
    return isinstance(f, Not) and isinstance(f.body, TrueF)


def _term_vars(t: Term) -> frozenset:
    return frozenset((t.name,)) if isinstance(t, Var) else frozenset()


def free_vars(f: Formula) -> frozenset:
    """The free variables of f.

    A compound node keeps its set once computed; an atom's are read off
    its arguments.  The equal sets one call computes are one object, so
    a large formula keeps a few sets, not one per node.
    """
    return _free_vars(f, {})


def _free_vars(f: Formula, sets: dict) -> frozenset:
    if isinstance(f, RelAtom):
        return frozenset(a.name for a in f.args if isinstance(a, Var))
    if isinstance(f, (Eq, Lt)):
        return _term_vars(f.left) | _term_vars(f.right)
    if isinstance(f, TrueF):
        return frozenset()
    out = getattr(f, "_free", None)
    if out is not None:
        return out
    if isinstance(f, (And, Or)):
        out = frozenset().union(*(_free_vars(p, sets) for p in f.parts))
    elif isinstance(f, Not):
        out = _free_vars(f.body, sets)
    elif isinstance(f, (Exists, Forall)):
        out = _free_vars(f.body, sets) - {f.var}
    elif isinstance(f, Certain):
        out = _free_vars(f.query, sets)
    else:
        raise TypeError(f"not a formula: {f!r}")
    out = sets.setdefault(out, out)
    object.__setattr__(f, "_free", out)
    return out


def all_var_names(f: Formula) -> set:
    """Free and bound variable names occurring anywhere in f."""
    if isinstance(f, (Exists, Forall)):
        return {f.var} | all_var_names(f.body)
    if isinstance(f, (And, Or)):
        out = set()
        for p in f.parts:
            out |= all_var_names(p)
        return out
    if isinstance(f, Not):
        return all_var_names(f.body)
    if isinstance(f, Certain):
        return all_var_names(f.query)
    return set(free_vars(f))


def fresh_name(base: str, taken: set) -> str:
    if base not in taken:
        return base
    for i in itertools.count(1):
        cand = f"{base}_{i}"
        if cand not in taken:
            return cand
    raise AssertionError


def substitute(f: Formula, sub: dict) -> Formula:
    """Replace free variables by terms; renames bound variables on capture."""
    sub = {k: v for k, v in sub.items() if not (isinstance(v, Var) and v.name == k)}
    if not sub:
        return f

    def s_term(t: Term) -> Term:
        if isinstance(t, Var) and t.name in sub:
            return sub[t.name]
        return t

    if isinstance(f, RelAtom):
        return RelAtom(f.rel, tuple(s_term(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(s_term(f.left), s_term(f.right))
    if isinstance(f, Lt):
        return Lt(s_term(f.left), s_term(f.right))
    if isinstance(f, And):
        return And(tuple(substitute(p, sub) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(substitute(p, sub) for p in f.parts))
    if isinstance(f, Not):
        return Not(substitute(f.body, sub))
    if isinstance(f, (Exists, Forall)):
        inner = {k: v for k, v in sub.items() if k != f.var}
        relevant = {k: v for k, v in inner.items() if k in free_vars(f.body)}
        if not relevant:
            return f
        var = f.var
        body = f.body
        captured = {
            v.name for v in relevant.values() if isinstance(v, Var)
        }
        if var in captured:
            taken = all_var_names(body) | captured | set(relevant)
            var = fresh_name(f.var, taken)
            body = substitute(body, {f.var: Var(var)})
        return type(f)(var, substitute(body, relevant))
    if isinstance(f, TrueF):
        return f
    if isinstance(f, Certain):
        return Certain(substitute(f.query, sub), f.base)
    raise TypeError(f"not a formula: {f!r}")


def rename_bound(f: Formula, taken: set, counter=None) -> Formula:
    """Rename every bound variable to a name outside `taken`."""
    if counter is None:
        counter = itertools.count(1)
    if isinstance(f, (And, Or)):
        return type(f)(tuple(rename_bound(p, taken, counter) for p in f.parts))
    if isinstance(f, Not):
        return Not(rename_bound(f.body, taken, counter))
    if isinstance(f, (Exists, Forall)):
        new = f.var
        while new in taken:
            new = f"q{next(counter)}"
        taken = taken | {new}
        body = f.body if new == f.var else substitute(f.body, {f.var: Var(new)})
        return type(f)(new, rename_bound(body, taken, counter))
    if isinstance(f, Certain):
        return Certain(rename_bound(f.query, taken, counter), f.base)
    return f


# ---------------------------------------------------------------------------
# Dependencies and mappings.

@_node
class TGD(_Node):
    """forall x (antecedent -> exists y. /\\ consequent)."""

    antecedent: Formula
    exist_vars: tuple
    consequent: tuple

    def __post_init__(self):
        # the consequent is a set of atoms; drop duplicates
        object.__setattr__(
            self, "consequent", tuple(dict.fromkeys(self.consequent))
        )
        if not self.consequent:
            raise MappingError("dependency consequent must be nonempty")
        free = free_vars(self.antecedent)
        ev = set(self.exist_vars)
        if len(ev) != len(self.exist_vars):
            raise MappingError("duplicate existential variable")
        if ev & free:
            raise MappingError(
                f"existential variables also free in the antecedent: {sorted(ev & free)}"
            )
        for atom in self.consequent:
            if not isinstance(atom, RelAtom):
                raise MappingError("consequent must consist of relational atoms")
            for a in atom.args:
                if isinstance(a, Var) and a.name not in ev and a.name not in free:
                    raise MappingError(
                        f"unsafe dependency: consequent variable {a.name} "
                        "is not free in the antecedent"
                    )

    @property
    def universal_vars(self) -> tuple:
        """All free antecedent variables, sorted; fixes Skolem argument order."""
        return tuple(sorted(free_vars(self.antecedent)))


def _check_formula_schema(f: Formula, schema: Schema, where: str, seen: dict):
    """Raise MappingError at the first atom of f not over `schema`.
    `seen` maps a schema to the ids of the compound nodes already checked
    against it, so a subformula shared by several parents is checked
    once (ids, as in `format_formula`, for parsed mappings' sake)."""
    if isinstance(f, RelAtom):
        if f.rel not in schema:
            raise MappingError(f"{where}: undeclared relation {f.rel}")
        if len(f.args) != schema.arity(f.rel):
            raise MappingError(
                f"{where}: arity mismatch for {f.rel}: "
                f"expected {schema.arity(f.rel)}, got {len(f.args)}"
            )
        return
    if isinstance(f, (Eq, Lt, TrueF)):
        return
    if not isinstance(f, (And, Or, Not, Exists, Forall, Certain)):
        raise TypeError(f"not a formula: {f!r}")
    checked = seen.setdefault(schema, set())
    if id(f) in checked:
        return
    if isinstance(f, (And, Or)):
        for p in f.parts:
            _check_formula_schema(p, schema, where, seen)
    elif isinstance(f, Certain):
        _check_formula_schema(f.query, f.base.target, where + " (certain query)", seen)
    else:
        _check_formula_schema(f.body, schema, where, seen)
    checked.add(id(f))


@_node
class SchemaMapping(_Node):
    source: Schema
    target: Schema
    tgds: tuple

    def __post_init__(self):
        overlap = set(self.source.names()) & set(self.target.names())
        if overlap:
            raise MappingError(f"source and target schemas overlap: {sorted(overlap)}")
        seen: dict = {}
        for tgd in self.tgds:
            _check_formula_schema(tgd.antecedent, self.source, "antecedent", seen)
            for atom in tgd.consequent:
                _check_formula_schema(atom, self.target, "consequent", seen)


def certain_nodes(f: Formula):
    """The certain[...] nodes of f, not counting those inside their queries."""
    if isinstance(f, Certain):
        yield f
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from certain_nodes(p)
    elif isinstance(f, (Not, Exists, Forall)):
        yield from certain_nodes(f.body)


def has_certain(f: Formula) -> bool:
    return next(certain_nodes(f), None) is not None


def mapping_certain_free(m: SchemaMapping) -> bool:
    return not any(has_certain(t.antecedent) for t in m.tgds)


def decompose(m: SchemaMapping) -> SchemaMapping:
    """Split every dependency along the connected components of its
    consequent, where two atoms are connected iff they share an
    existential variable.  Logically equivalent to the input.
    """
    out = []
    for tgd in m.tgds:
        ev = set(tgd.exist_vars)
        atoms = list(tgd.consequent)
        parent = list(range(len(atoms)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        seen: dict[str, int] = {}
        for i, atom in enumerate(atoms):
            for a in atom.args:
                if isinstance(a, Var) and a.name in ev:
                    if a.name in seen:
                        union(seen[a.name], i)
                    else:
                        seen[a.name] = i
        comps: dict[int, list] = {}
        for i in range(len(atoms)):
            comps.setdefault(find(i), []).append(atoms[i])
        for root in sorted(comps):
            comp_atoms = tuple(comps[root])
            comp_vars = {
                a.name
                for atom in comp_atoms
                for a in atom.args
                if isinstance(a, Var) and a.name in ev
            }
            out.append(
                TGD(
                    tgd.antecedent,
                    tuple(v for v in tgd.exist_vars if v in comp_vars),
                    comp_atoms,
                )
            )
    return SchemaMapping(m.source, m.target, tuple(out))


# ---------------------------------------------------------------------------
# Printing (inverse of the parser for the Certain-free fragment).

# Precedence levels: quantifiers 0 (body extends maximally), | 1, & 2,
# ! 3, atoms and comparisons 4.  A construct is parenthesized when the
# context demands a higher level than its own.

def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return quote(t.text)


def format_formula(f: Formula, prec: int = 0, memo: dict | None = None) -> str:
    """The DSL text of f in a context of precedence `prec`.  `memo` maps
    (id of a compound node, precedence) to its text; `format_mapping`
    passes one for all dependencies, so a shared subformula is printed
    once.  Identity, not equality, because a parsed mapping shares no
    node, and hashing each of its nodes costs more than the walk saves."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, RelAtom):
        return f"{f.rel}({', '.join(format_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, Lt):
        return f"{format_term(f.left)} < {format_term(f.right)}"
    if memo is None:
        memo = {}
    key = (id(f), prec)
    text = memo.get(key)
    if text is None:
        text = memo[key] = _format_compound(f, prec, memo)
    return text


def _format_compound(f: Formula, prec: int, memo: dict) -> str:
    if isinstance(f, And):
        body = " & ".join(format_formula(p, 3, memo) for p in f.parts)
        return _wrap(body, prec > 2)
    if isinstance(f, Or):
        body = " | ".join(format_formula(p, 2, memo) for p in f.parts)
        return _wrap(body, prec > 1)
    if isinstance(f, Not):
        return "!" + format_formula(f.body, 3, memo)
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        names = [f.var]
        body = f.body
        while isinstance(body, type(f)):
            names.append(body.var)
            body = body.body
        text = f"{kw} {', '.join(names)}: {format_formula(body, 0, memo)}"
        return _wrap(text, prec > 0)
    if isinstance(f, Certain):
        return f"certain[{format_formula(f.query, 0, memo)}]"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, wrap: bool) -> str:
    return f"({text})" if wrap else text


def format_tgd(tgd: TGD, memo: dict | None = None) -> str:
    head = format_formula(tgd.antecedent, 0, memo)
    atoms = " & ".join(format_formula(a) for a in tgd.consequent)
    if tgd.exist_vars:
        rhs = f"exists {', '.join(tgd.exist_vars)}: {atoms}"
    else:
        rhs = atoms
    return f"tgd: {head} -> {rhs}."


def format_mapping(m: SchemaMapping) -> str:
    lines = []
    for label, schema in (("source", m.source), ("target", m.target)):
        if schema.rels:
            decls = ", ".join(f"{n}/{a}" for n, a in schema.rels)
            lines.append(f"{label} {decls}.")
    memo: dict = {}
    for tgd in m.tgds:
        lines.append(format_tgd(tgd, memo))
    return "\n".join(lines) + "\n"
