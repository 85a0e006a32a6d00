"""Active-domain evaluation of formulas over finite instances.

Quantifiers range over the active domain of the instance; nulls are
ordinary values.  Order atoms compare constants by text and are false
whenever either side is a null; equality on nulls is identity.

The evaluator executes the relational plans of `dx.plan`, the same plans
`dx.sqlgen` prints as SQL, set-at-a-time: every node runs against a
context (a relation whose columns are the variables already bound) and
returns the context joined with its rows.  Scans and the active domain
are hash joins, comparisons and domain checks filter, a copy adds a
column, a negation is one anti-join against its body evaluated once on
the distinct bound tuples, and a shared union is computed once per
evaluation.  A `certain[...]` query runs, with its planner's one plan,
on one evaluator over its base's chase; like every variable, its answers
range over the active domain, so its rows are the answers whose values
all lie there (the chase of a null-free instance adds only nulls outside
it, so these are constants).  `holds` substitutes its assignment into
the formula and runs the plan of the resulting sentence.
"""

from __future__ import annotations

import operator
from typing import Sequence

from dx.lang import Formula, Var, free_vars
from dx.model import Const, Instance, MappingError
from dx.plan import Anti, Cert, Cmp, Copy, Dom, Member, Node, Planner, Proj, Ref, Scan, Seq, Union


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


def row_getter(positions: Sequence[int]):
    """A function from a row to the tuple of its items at `positions`:
    a slice for an ascending run of positions (the row itself when the
    run is the whole row), else one itemgetter."""
    start = positions[0] if positions else 0
    if list(positions) == list(range(start, start + len(positions))):
        return operator.itemgetter(slice(start, start + len(positions)))
    return operator.itemgetter(*positions)


def _picker(t, vars: tuple):
    """A term's value in a row with columns `vars`."""
    if isinstance(t, Var):
        i = vars.index(t.name)
        return lambda row: row[i]
    return lambda row: t


class _Evaluator:
    """Runs plans against one instance; shared unions (keyed by plan node,
    so one planner's plans share them), atom scans and `certain[...]`
    queries are computed once per evaluator, and each `certain[...]` base
    is chased once, into one evaluator that runs its queries."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._in_dom = inst.values
        self._memo: dict = {}
        self._bases: dict = {}  # certain[...] base mapping -> evaluator of its chase

    def run(self, node: Node, ctx: _Rel) -> _Rel:
        """ctx joined with the rows of node."""
        if not ctx.rows:
            return _Rel(ctx.vars + tuple(v for v in node.vars if v not in ctx.vars), set())
        kind = type(node)
        if kind is Seq:
            for step in node.steps:
                ctx = self.run(step, ctx)
            return ctx
        if kind in (Scan, Ref, Dom, Cert):
            return _join(ctx, self._closed(node))
        if kind is Cmp:
            left, right = _picker(node.left, ctx.vars), _picker(node.right, ctx.vars)
            test = operator.eq if node.op == "=" else _lt
            keep = not node.negated
            return _Rel(ctx.vars, {r for r in ctx.rows if test(left(r), right(r)) is keep})
        if kind is Member:
            get = _picker(node.term, ctx.vars)
            return _Rel(ctx.vars, {r for r in ctx.rows if get(r) in self._in_dom})
        if kind is Copy:
            get = _picker(node.term, ctx.vars)
            rows = {r + (get(r),) for r in ctx.rows}
            if not isinstance(node.term, Var):
                rows = {r for r in rows if r[-1] in self._in_dom}
            return _Rel(ctx.vars + (node.var,), rows)
        if kind is Proj:
            inner = self.run(node.body, ctx)
            return _project(inner, tuple(v for v in inner.vars if v != node.var))
        if kind is Anti:
            idx = [ctx.vars.index(v) for v in node.key]
            bad = _project(self.run(node.body, _project(ctx, node.key)), node.key).rows
            return _Rel(ctx.vars, {r for r in ctx.rows if tuple(r[i] for i in idx) not in bad})
        if kind is Union:  # a filter: every part keeps a subset of ctx
            rows = set()
            for part in node.parts:
                rows |= self.run(part, ctx).rows
            return _Rel(ctx.vars, rows)
        raise TypeError(f"not a plan node: {node!r}")

    def _closed(self, node: Node) -> _Rel:
        """The rows of a node that reads no context."""
        inner = node.node if type(node) is Ref else node
        kind = type(inner)
        key = (inner.rel, inner.args) if kind is Scan else inner.formula if kind is Cert else inner
        rel = self._memo.get(key)
        if rel is None:
            rel = self._memo[key] = self._compute(inner)
        return rel if rel.vars == node.vars else _Rel(node.vars, rel.rows)

    def _compute(self, node: Node) -> _Rel:
        kind = type(node)
        if kind is Union:
            rows = set()
            for part in node.parts:
                rows |= _project(self.run(part, _UNIT), node.vars).rows
            return _Rel(node.vars, rows)
        if kind is Dom:
            return _Rel(node.vars, {(v,) for v in self._in_dom})
        if kind is Cert:
            from dx.chase import naive_chase

            f = node.formula
            plan = node.planner.query(f)
            sub = self._bases.get(f.base)
            if sub is None:
                sub = self._bases[f.base] = _Evaluator(naive_chase(f.base, self.inst))
            rows = _project(sub.run(plan, _UNIT), sorted(free_vars(f.query))).rows
            return _Rel(node.vars, {r for r in rows if self._in_dom.issuperset(r)})
        if node.rel not in self.inst.schema:
            raise MappingError(f"undeclared relation {node.rel}")
        # equality checks for a repeated variable and for a constant,
        # then one projection onto each variable's first position
        first: dict = {}
        same, fixed = [], []
        for i, a in enumerate(node.args):
            if isinstance(a, Var):
                j = first.setdefault(a.name, i)
                if j != i:
                    same.append((j, i))
            else:
                fixed.append(i)
        rows = self.inst.by_rel.get(node.rel, ())
        if same:
            left = row_getter([j for j, _i in same])
            right = row_getter([i for _j, i in same])
            rows = [r for r in rows if left(r) == right(r)]
        if fixed:
            key = row_getter(fixed)
            want = key(node.args)
            rows = [r for r in rows if key(r) == want]
        return _Rel(node.vars, set(map(row_getter(list(first.values())), rows)))


def eval_formula(f: Formula, inst: Instance, free: Sequence[str]) -> set:
    """All assignments to `free` (over the active domain) satisfying f."""
    free = tuple(free)
    missing = free_vars(f) - set(free)
    if missing:
        raise MappingError(f"unbound free variables: {sorted(missing)}")
    if len(set(free)) != len(free):
        raise MappingError("duplicate variables in the answer tuple")
    return run_plans([(Planner().plan(f, want=free), free)], inst)[0]


def run_plans(plans, inst: Instance) -> list:
    """The rows of each (plan, columns) pair.  One evaluator runs them
    all, so shared unions, atom scans and `certain[...]` chases are
    computed once for the whole list."""
    ev = _Evaluator(inst)
    out = []
    for p, cols in plans:
        rel = ev.run(p, _UNIT)
        out.append(rel.rows if rel.vars == tuple(cols) else _project(rel, cols).rows)
    return out


def ground_answers(f: Formula, inst: Instance, free: Sequence[str]) -> set:
    """eval_formula restricted to all-constant tuples."""
    return {
        row
        for row in eval_formula(f, inst, free)
        if all(isinstance(v, Const) for v in row)
    }


def holds(f: Formula, inst: Instance, env: dict | None = None) -> bool:
    """Satisfaction of f under an assignment of its free variables, which
    is substituted into f."""
    env = env or {}
    for v in sorted(free_vars(f)):
        if v not in env:
            raise MappingError(f"unbound variable {v}")
    return bool(_Evaluator(inst).run(Planner().plan(f, sub=env), _UNIT).rows)
