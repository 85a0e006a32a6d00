"""Active-domain evaluation of formulas over finite instances.

Quantifiers range over the active domain of the instance; nulls are
ordinary values.  Order atoms compare constants by text and are false
whenever either side is a null; equality on nulls is identity.

One set-at-a-time engine evaluates every formula against a context: a
relation whose columns are variables already bound.  The result is the
context joined with the formula's answers.  Atoms are hash joins.  A
conjunction applies each comparison and negation as soon as its
variables are bound, lets an equality with one bound side copy a column,
and joins its other conjuncts in order; a negation is one anti-join
against the negated subformula, evaluated once on the distinct bound
tuples.  Only a variable nothing binds (an unsafe filter, a disjunct
missing a variable) ranges over the active domain.  `holds` is the same
path on a one-row context.
"""

from __future__ import annotations

import itertools
import operator
from typing import Sequence

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
from dx.model import Const, Instance, MappingError


def _lt(a, b) -> bool:
    return isinstance(a, Const) and isinstance(b, Const) and a.text < b.text


class _Rel:
    """An answer set: named columns plus a set of value rows."""

    __slots__ = ("vars", "rows")

    def __init__(self, vars: tuple, rows: set):
        self.vars = vars
        self.rows = rows


_UNIT = _Rel((), {()})


def _join(a: _Rel, b: _Rel) -> _Rel:
    if not a.vars and a.rows:  # the one-row, no-column relation
        return b
    shared = [v for v in b.vars if v in a.vars]
    extra = [v for v in b.vars if v not in a.vars]
    a_idx = {v: i for i, v in enumerate(a.vars)}
    b_idx = {v: i for i, v in enumerate(b.vars)}
    b_by_key: dict = {}
    for row in b.rows:
        key = tuple(row[b_idx[v]] for v in shared)
        b_by_key.setdefault(key, []).append(tuple(row[b_idx[v]] for v in extra))
    rows = set()
    for row in a.rows:
        key = tuple(row[a_idx[v]] for v in shared)
        for ext in b_by_key.get(key, ()):
            rows.add(row + ext)
    return _Rel(a.vars + tuple(extra), rows)


def _project(rel: _Rel, keep: Sequence[str]) -> _Rel:
    idx = {v: i for i, v in enumerate(rel.vars)}
    cols = tuple(keep)
    rows = {tuple(row[idx[v]] for v in cols) for row in rel.rows}
    return _Rel(cols, rows)


def _widen(rel: _Rel, vars, dom: Sequence) -> _Rel:
    """rel with each of `vars` it lacks ranging over the active domain."""
    missing = tuple(v for v in dict.fromkeys(vars) if v not in rel.vars)
    if not missing:
        return rel
    combos = list(itertools.product(dom, repeat=len(missing)))
    rows = {row + combo for row in rel.rows for combo in combos}
    return _Rel(rel.vars + missing, rows)


def _extend(rel: _Rel, vars: Sequence[str], dom: Sequence) -> _Rel:
    return _project(_widen(rel, vars, dom), vars)


def _picker(t, vars: tuple):
    """A term's value in a row with columns `vars`."""
    if isinstance(t, Var):
        i = vars.index(t.name)
        return lambda row: row[i]
    return lambda row: t


def _keep(ctx: _Rel, f, test) -> _Rel:
    """The rows of ctx (which binds f's variables) where test holds."""
    left, right = _picker(f.left, ctx.vars), _picker(f.right, ctx.vars)
    return _Rel(ctx.vars, {row for row in ctx.rows if test(left(row), right(row))})


def _empty(ctx: _Rel, f: Formula) -> _Rel:
    """No rows, with the columns `ctx` joined with f's answers has."""
    return _Rel(ctx.vars + tuple(sorted(free_vars(f) - set(ctx.vars))), set())


class _Evaluator:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.dom = inst.dom
        self._in_dom = set(inst.dom)
        self._atoms: dict = {}

    def rel(self, f: Formula, ctx: _Rel = _UNIT) -> _Rel:
        """ctx joined with the answers of f: ctx's columns, then f's other
        free variables."""
        if not ctx.rows:
            return _empty(ctx, f)
        if isinstance(f, TrueF):
            return ctx
        if isinstance(f, RelAtom):
            return _join(ctx, self._atom_rel(f))
        if isinstance(f, Eq):
            return self._eq(f, ctx)
        if isinstance(f, Lt):
            names = [t.name for t in (f.left, f.right) if isinstance(t, Var)]
            return _keep(_widen(ctx, names, self.dom), f, _lt)
        if isinstance(f, Certain):
            fv = tuple(sorted(free_vars(f.query)))
            return _join(ctx, _Rel(fv, set(self._certain(f))))
        if isinstance(f, And):
            return self._and(f, ctx)
        if isinstance(f, Or):
            cols = ctx.vars + tuple(sorted(free_vars(f) - set(ctx.vars)))
            rows = set()
            for p in f.parts:
                rows |= _extend(self.rel(p, ctx), cols, self.dom).rows
            return _Rel(cols, rows)
        if isinstance(f, Exists):
            outer = ctx
            if f.var in ctx.vars:  # the quantifier shadows a bound column
                ctx = _project(ctx, tuple(v for v in ctx.vars if v != f.var))
            inner = self.rel(f.body, ctx)
            if f.var not in inner.vars and not self.dom:
                return _empty(outer, f)
            out = _project(inner, tuple(v for v in inner.vars if v != f.var))
            return out if outer is ctx else _join(outer, out)
        if isinstance(f, Forall):
            return self.rel(Not(Exists(f.var, Not(f.body))), ctx)
        if isinstance(f, Not):
            key = tuple(sorted(free_vars(f.body)))
            ctx = _widen(ctx, key, self.dom)
            idx = [ctx.vars.index(v) for v in key]
            bad = _project(self.rel(f.body, _project(ctx, key)), key).rows
            return _Rel(
                ctx.vars,
                {row for row in ctx.rows if tuple(row[i] for i in idx) not in bad},
            )
        raise TypeError(f"not a formula: {f!r}")

    def _and(self, f: And, acc: _Rel) -> _Rel:
        pending = [(p, free_vars(p)) for p in f.parts]
        while pending:
            bound = set(acc.vars)
            ranks = [_readiness(p, fv, bound) for p, fv in pending]
            # filters on bound variables bind nothing, so they go together
            step = [i for i, r in enumerate(ranks) if r == 0] or [ranks.index(min(ranks))]
            for i in step:
                acc = self.rel(pending[i][0], acc)
            done = set(step)
            pending = [x for i, x in enumerate(pending) if i not in done]
        return acc

    def _eq(self, f: Eq, ctx: _Rel) -> _Rel:
        names = [t.name for t in (f.left, f.right) if isinstance(t, Var) and t.name not in ctx.vars]
        if not names or f.left == f.right:
            return _keep(_widen(ctx, names, self.dom), f, operator.eq)
        # One side binds the other to a domain value: copy it instead of
        # ranging over the domain (when neither is bound, the left one does).
        ctx = _widen(ctx, names[:-1], self.dom)
        get = _picker(f.right if f.left == Var(names[-1]) else f.left, ctx.vars)
        rows = {row + (v,) for row in ctx.rows if (v := get(row)) in self._in_dom}
        return _Rel(ctx.vars + (names[-1],), rows)

    def _atom_rel(self, f: RelAtom) -> _Rel:
        cached = self._atoms.get(f)
        if cached is not None:
            return cached
        if f.rel not in self.inst.schema:
            raise MappingError(f"undeclared relation {f.rel}")
        cols = []
        for a in f.args:
            if isinstance(a, Var) and a.name not in cols:
                cols.append(a.name)
        rows = set()
        for args in self.inst.by_rel.get(f.rel, ()):
            env: dict = {}
            ok = True
            for a, v in zip(f.args, args):
                if isinstance(a, Var):
                    if env.setdefault(a.name, v) != v:
                        ok = False
                        break
                elif a != v:
                    ok = False
                    break
            if ok:
                rows.add(tuple(env[c] for c in cols))
        out = self._atoms[f] = _Rel(tuple(cols), rows)
        return out

    def _certain(self, node: Certain):
        from dx import certain as certain_mod

        return certain_mod.certain_answers(node.base, node.query, self.inst)


def _readiness(f: Formula, fv: frozenset, bound: set) -> int:
    """Conjunct order: filters on bound variables, then equalities that
    bind a variable, then generators, then whatever is left (unsafe)."""
    if isinstance(f, (Eq, Lt, Not)):
        if fv <= bound:
            return 0
        if isinstance(f, Eq) and any(
            not isinstance(t, Var) or t.name in bound for t in (f.left, f.right)
        ):
            return 1
        return 3
    return 2


def eval_formula(f: Formula, inst: Instance, free: Sequence[str]) -> set:
    """All assignments to `free` (over the active domain) satisfying f."""
    fv = free_vars(f)
    missing = fv - set(free)
    if missing:
        raise MappingError(f"unbound free variables: {sorted(missing)}")
    if len(set(free)) != len(tuple(free)):
        raise MappingError("duplicate variables in the answer tuple")
    rel = _Evaluator(inst).rel(f)
    return _extend(rel, tuple(free), inst.dom).rows


def ground_answers(f: Formula, inst: Instance, free: Sequence[str]) -> set:
    """eval_formula restricted to all-constant tuples."""
    return {
        row
        for row in eval_formula(f, inst, free)
        if all(isinstance(v, Const) for v in row)
    }


def holds(f: Formula, inst: Instance, env: dict | None = None) -> bool:
    """Satisfaction of f under an assignment of its free variables."""
    env = env or {}
    fv = tuple(sorted(free_vars(f)))
    for v in fv:
        if v not in env:
            raise MappingError(f"unbound variable {v}")
    ctx = _Rel(fv, {tuple(env[v] for v in fv)})
    return bool(_Evaluator(inst).rel(f, ctx).rows)
