"""Safe-range normalisation and relational plans for formulas.

Both formula engines run the plans built here: `dx.evaluator` executes
them set-at-a-time, and `dx.sqlgen` prints them as SQL.

Normalisation rewrites a formula bottom-up:

* every quantified variable is renamed after its nesting depth (`%1`,
  `%2`, ...), so no quantifier shadows a variable and subformulas that
  differ only in the names of their bound variables become equal;
* `forall` becomes `!exists !`, double negations cancel, a negated
  disjunction becomes a conjunction of negations, and comparisons
  between constants are folded;
* `exists v` is pushed into disjunctions, conjuncts without `v` move out
  of its scope, and an equality `v = t` in its scope is substituted
  away: `exists v: v = t & phi(v)` becomes `dom(t) & phi(t)`, where
  `dom(t)` says that t is in the active domain;
* in a conjunction with equalities between variables, the other
  conjuncts name each class of equal variables by its least name;
* the operands of `&` and `|` are deduplicated and sorted, so equal
  subformulas have equal keys.

Planning turns the normal form into relational operators.  A conjunction
is a pipeline over the context of bound variables: it applies every
conjunct whose variables are bound (comparisons and domain checks as
filters, negations as anti-joins), then lets an equality with one bound
side copy a column, then joins one generator (a scan per atom, a union
per disjunction, a projection per `exists`; first one that binds its
variables without reading the domain), and repeats.  A variable that
nothing binds reads the active domain.  A disjunction that binds new
variables is planned once, with positional column names, as a closed
union; equal unions are one node, which the evaluator computes once and
SQL emits as one common table expression.  Every variable a plan binds
lies in the active domain: `holds` substitutes its assignment as values,
and the evaluator keeps only the certain answers in the domain.  So a
closed union may read the bound variables it shares with its context
from the domain, and only a value, never a variable, needs a domain check.
"""

from __future__ import annotations

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
    substitute,
)
from dx.model import Const


# ---------------------------------------------------------------------------
# Normal form: a formula tree with its free variables and a canonical key.

class _N:
    __slots__ = ("kind", "a", "b", "parts", "fv", "key")

    def __init__(self, kind, key, fv, a=None, b=None, parts=()):
        self.kind = kind
        self.key = key
        self.fv = fv
        self.a = a
        self.b = b
        self.parts = parts


def _tkey(t) -> str:
    """A term's key: a variable's name, a constant's quoted text, or a
    null value's repr (a value `holds` substitutes)."""
    if isinstance(t, Var):
        return t.name
    return repr(t.text) if isinstance(t, Const) else repr(t)


def _tfv(*terms) -> frozenset:
    return frozenset(t.name for t in terms if isinstance(t, Var))


TRUE_N = _N("true", "T", frozenset())
FALSE_N = _N("not", "!T", frozenset(), parts=(TRUE_N,))


def _atom(rel, args) -> _N:
    return _N("atom", f"{rel}({','.join(map(_tkey, args))})", _tfv(*args), rel, args)


def _cmp(kind, left, right) -> _N:
    if left == right:
        return TRUE_N if kind == "eq" else FALSE_N
    if isinstance(left, Const) and isinstance(right, Const):
        holds = False if kind == "eq" else left.text < right.text
        return TRUE_N if holds else FALSE_N
    kl, kr = _tkey(left), _tkey(right)
    if kind == "eq" and kr < kl:  # equality is symmetric
        left, right, kl, kr = right, left, kr, kl
    sym = "=" if kind == "eq" else "<"
    return _N(kind, f"{kl}{sym}{kr}", _tfv(left, right), left, right)


def _dom(t) -> _N:
    return _N("dom", f"%dom({_tkey(t)})", _tfv(t), t)


def _is_false(n: _N) -> bool:
    return n.key == FALSE_N.key


def _junction(kind, parts) -> _N:
    """Flattened, deduplicated, sorted `and`/`or`; folds true and false."""
    unit, zero = (TRUE_N, FALSE_N) if kind == "and" else (FALSE_N, TRUE_N)
    out = {}
    for p in parts:
        for q in p.parts if p.kind == kind else (p,):
            if q.key == zero.key:
                return zero
            if q.key != unit.key:
                out[q.key] = q
    if not out:
        return unit
    if len(out) == 1:
        return next(iter(out.values()))
    keys = sorted(out)
    kids = tuple(out[k] for k in keys)
    sym = "&" if kind == "and" else "|"
    return _N(
        kind,
        f"{sym}({','.join(keys)})",
        frozenset().union(*(p.fv for p in kids)),
        parts=kids,
    )


class Normaliser:
    """Builds normal forms.  Substitution results are memoised by key for
    the normaliser's lifetime: the same subformula recurs under many
    quantifiers (a laconic precondition repeats its positive part in
    every guard)."""

    def __init__(self):
        self._subs: dict = {}
        self._certs: dict = {}  # certain[...] node -> its number in keys

    def formula(self, f: Formula, sub: dict | None = None, depth: int = 1) -> _N:
        """The normal form of f (see the module docstring)."""
        sub = sub or {}
        if isinstance(f, RelAtom):
            return _atom(f.rel, tuple(sub.get(a.name, a) if isinstance(a, Var) else a for a in f.args))
        if isinstance(f, (Eq, Lt)):
            left, right = (sub.get(t.name, t) if isinstance(t, Var) else t for t in (f.left, f.right))
            return _cmp("eq" if isinstance(f, Eq) else "lt", left, right)
        if isinstance(f, TrueF):
            return TRUE_N
        if isinstance(f, Not):
            return self.not_(self.formula(f.body, sub, depth))
        if isinstance(f, (And, Or)):
            kind = "and" if isinstance(f, And) else "or"
            return self.junction(kind, [self.formula(p, sub, depth) for p in f.parts])
        if isinstance(f, (Exists, Forall)):
            v = f"%{depth}"
            body = self.formula(f.body, {**sub, f.var: Var(v)}, depth + 1)
            if isinstance(f, Exists):
                return self.exists(v, body)
            return self.not_(self.exists(v, self.not_(body)))
        if isinstance(f, Certain):
            return self.certain(f, sub)
        raise TypeError(f"not a formula: {f!r}")

    def not_(self, n: _N) -> _N:
        if n.kind == "not":
            return n.parts[0]
        if n.kind == "or":
            return self.junction("and", [self.not_(p) for p in n.parts])
        return _N("not", "!" + n.key, n.fv, parts=(n,))

    def junction(self, kind: str, parts) -> _N:
        n = _junction(kind, parts)
        return self._equate(n) if n.kind == "and" else n

    def _equate(self, n: _N) -> _N:
        """A conjunction with equalities between variables, its other
        conjuncts naming each class of equal variables by the least name
        in it, so that `a = b & phi(b)` and `a = b & phi(a)` meet."""
        eqs = [
            p for p in n.parts
            if p.kind == "eq" and isinstance(p.a, Var) and isinstance(p.b, Var)
        ]
        if not eqs:
            return n
        parent: dict = {}

        def find(v):
            while v in parent:
                v = parent[v]
            return v

        for p in eqs:
            a, b = find(p.a.name), find(p.b.name)
            if a != b:
                parent[max(a, b)] = min(a, b)
        sub = {v: Var(find(v)) for v in parent}
        others = [p for p in n.parts if p.kind != "eq" or p not in eqs]
        if not any(p.fv & sub.keys() for p in others):
            return n
        eqs = [_cmp("eq", Var(v), t) for v, t in sub.items()]
        return self.junction("and", [self.subst(p, sub) for p in others] + eqs)

    def exists(self, v: str, body: _N) -> _N:
        if _is_false(body):
            return FALSE_N
        if v not in body.fv:
            if body.kind == "true":
                return _N("exists", f"E{v}:T", frozenset(), v, parts=(body,))
            # `exists v: phi` is phi on a nonempty domain
            return self.junction("and", [body, self.exists(v, TRUE_N)])
        if body.kind == "or":
            return self.junction("or", [self.exists(v, p) for p in body.parts])
        parts = body.parts if body.kind == "and" else (body,)
        for p in parts:
            if p.kind == "eq" and Var(v) in (p.a, p.b):
                t = p.b if p.a == Var(v) else p.a
                rest = [self.subst(q, {v: t}) for q in parts if q is not p]
                return self.junction("and", [_dom(t)] + rest)
        outside = [p for p in parts if v not in p.fv]
        if outside:
            inside = self.junction("and", [p for p in parts if v in p.fv])
            return self.junction("and", outside + [self.exists(v, inside)])
        return _N("exists", f"E{v}:{body.key}", body.fv - {v}, v, parts=(body,))

    def subst(self, n: _N, sub: dict) -> _N:
        """n with free variables replaced by terms.  Quantified variables
        are named by depth and substituted terms come from outside, so
        nothing is captured."""
        relevant = tuple(sorted((v, t) for v, t in sub.items() if v in n.fv))
        if not relevant:
            return n
        memo = self._subs.get((n.key, relevant))
        if memo is None:
            memo = self._subs[n.key, relevant] = self._subst(n, sub)
        return memo

    def _subst(self, n: _N, sub: dict) -> _N:
        k = n.kind

        def s(t):
            return sub.get(t.name, t) if isinstance(t, Var) else t

        if k == "atom":
            return _atom(n.a, tuple(map(s, n.b)))
        if k in ("eq", "lt"):
            return _cmp(k, s(n.a), s(n.b))
        if k == "dom":
            return _dom(s(n.a))
        if k == "not":
            return self.not_(self.subst(n.parts[0], sub))
        if k in ("and", "or"):
            return self.junction(k, [self.subst(p, sub) for p in n.parts])
        if k == "exists":
            return self.exists(n.a, self.subst(n.parts[0], sub))
        if k == "certain":
            return self.certain(n.a, {q: s(Var(o)) for q, o in n.b})
        raise AssertionError(k)

    def certain(self, node: Certain, names: dict) -> _N:
        """A certain[...] node.  Its query keeps its own variable names,
        so evaluating it elsewhere never meets ours; `names` maps the
        query's free variables to terms.  A constant is substituted into
        the query, and of two variables given one name the second becomes
        the first.  Certain answers are constants, so a null makes the
        node false."""
        query, pairs, fix = node.query, {}, {}
        for qv in sorted(free_vars(query)):
            t = names.get(qv, Var(qv))
            if not isinstance(t, (Var, Const)):
                return FALSE_N
            first = next((q for q, o in pairs.items() if isinstance(t, Var) and o == t.name), None)
            if isinstance(t, Const) or first is not None:
                fix[qv] = t if first is None else Var(first)
            else:
                pairs[qv] = t.name
        node, b = Certain(substitute(query, fix), node.base), tuple(pairs.items())
        num = self._certs.setdefault(node, len(self._certs))
        return _N("certain", f"C{num}:{b}", frozenset(pairs.values()), node, b)

    def rename(self, n: _N, sub: dict, depth: int = 1) -> _N:
        """n with free variables replaced by `sub` and each quantified
        variable named `%` and its depth below n, so that subformulas
        equal up to the names of their variables get one key.  No free
        variable of the result may start with `%`."""
        if n.kind == "exists":
            v = f"%{depth}"
            body = self.rename(n.parts[0], {**sub, n.a: Var(v)}, depth + 1)
            return self.exists(v, body)
        if n.kind in ("and", "or"):
            return self.junction(n.kind, [self.rename(p, sub, depth) for p in n.parts])
        if n.kind == "not":
            return self.not_(self.rename(n.parts[0], sub, depth))
        return self.subst(n, sub)


def _var_order(n: _N, out: dict):
    """Variables of n in order of first occurrence."""
    if n.kind == "atom":
        terms = n.b
    elif n.kind in ("eq", "lt", "dom"):
        terms = (n.a, n.b)
    elif n.kind == "certain":
        terms = [Var(o) for _q, o in n.b]
    else:
        terms = ()
        for p in n.parts:
            _var_order(p, out)
    for t in terms:
        if isinstance(t, Var):
            out.setdefault(t.name)
    return out


# ---------------------------------------------------------------------------
# Plan operators.  `vars` are the columns a node adds to (or joins with)
# the context it runs in.

class Node:
    __slots__ = ("vars",)


class Scan(Node):
    """The rows of one relation matching an atom."""

    __slots__ = ("rel", "args")

    def __init__(self, rel: str, args: tuple):
        self.rel, self.args = rel, args
        self.vars = tuple(dict.fromkeys(a.name for a in args if isinstance(a, Var)))


class Dom(Node):
    """The active domain, for a variable that nothing else binds."""

    __slots__ = ("var",)

    def __init__(self, var: str):
        self.var = var
        self.vars = (var,)


class Cmp(Node):
    """A filter `left op right` (op is `=` or `<`), or its negation."""

    __slots__ = ("op", "left", "right", "negated")

    def __init__(self, op: str, left, right, negated: bool):
        self.op, self.left, self.right, self.negated = op, left, right, negated
        self.vars = ()


class Member(Node):
    """A filter: the term is in the active domain."""

    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term
        self.vars = ()


class Copy(Node):
    """A new column equal to a bound term.  A variable is bound in the
    active domain; for a value, only the rows where it lies there too are
    kept."""

    __slots__ = ("var", "term")

    def __init__(self, var: str, term):
        self.var, self.term = var, term
        self.vars = (var,)


class Seq(Node):
    """A conjunction: the steps run in order, each on the previous output."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps
        self.vars = tuple(dict.fromkeys(v for s in steps for v in s.vars))


class Proj(Node):
    """`exists var`: the body, with `var` projected away."""

    __slots__ = ("body", "var")

    def __init__(self, body: Node, var: str):
        self.body, self.var = body, var
        self.vars = tuple(v for v in body.vars if v != var)


class Anti(Node):
    """A negation: the context rows whose `key` columns the body rejects."""

    __slots__ = ("body", "key")

    def __init__(self, body: Node, key: tuple):
        self.body, self.key = body, key
        self.vars = ()


class Union(Node):
    """A disjunction.  Shared through a `Ref`, it is closed: every part
    binds exactly the columns `cols` from nothing.  Otherwise it is a
    filter on bound variables: every part runs on the context, and a row
    is kept when one of them keeps it."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple, cols: tuple = ()):
        self.parts = parts
        self.vars = cols


class Ref(Node):
    """A closed, shared node, its columns renamed to `vars`."""

    __slots__ = ("node",)

    def __init__(self, node: Node, vars: tuple):
        self.node = node
        self.vars = vars


class Cert(Node):
    """The certain answers of a target query (evaluator only), its columns
    (the query's sorted free variables) renamed to `vars`; `planner.query` plans it."""

    __slots__ = ("formula", "planner")

    def __init__(self, formula: Certain, vars: tuple, planner: "Planner"):
        self.formula, self.vars, self.planner = formula, vars, planner


UNIT = Seq(())

_GEN_RANK = {"atom": 0, "exists": 1, "or": 2, "certain": 3, "dom": 4}
_FILTER_RANK = {"eq": 0, "lt": 0, "dom": 0, "not": 1}


class Planner:
    """Plans normal forms.  Closed unions are memoised by canonical key and
    certain[...] queries by node, so one planner shares them all."""

    def __init__(self):
        self._canon: dict = {}  # canonical key -> union node
        self._unions: dict = {}  # key -> (union node, its columns' names)
        self._bound_by: dict = {}  # key -> the variables it binds
        self._queries: dict = {}  # certain[...] node -> the plan of its query
        self.norm = Normaliser()

    def plan(self, f: Formula, want=(), sub=None) -> Node:
        """The plan of f with the free variables in `sub` replaced by its
        values; every variable of `want` is bound in its output."""
        n = self.norm.formula(f, sub)
        return self.conj(n.parts if n.kind == "and" else (n,), (), want)

    def query(self, node: Certain) -> Node:
        """The plan of a certain[...] node's query, binding its sorted free
        variables; the node is checked (a CQ over a certain[...]-free base)
        when it is first planned."""
        if node not in self._queries:
            from dx.certain import require_certain_query

            require_certain_query(node.base, node.query)
            self._queries[node] = self.plan(node.query, sorted(free_vars(node.query)))
        return self._queries[node]

    def node(self, n: _N, bound) -> Node:
        k = n.kind
        if k == "atom":
            return Scan(n.a, n.b)
        if k == "certain":
            return Cert(n.a, tuple(o for _q, o in n.b), self)
        if k == "true":
            return UNIT
        if k == "or":
            if n.fv <= bound:
                return Union(tuple(self.node(p, bound) for p in n.parts))
            return self.union(n)
        if k == "exists":
            body = n.parts[0]
            parts = body.parts if body.kind == "and" else (body,)
            return Proj(self.conj(parts, bound, (n.a,)), n.a)
        if k == "dom":
            if not n.fv <= bound:
                return Dom(n.a.name)
            return UNIT if isinstance(n.a, Var) else Member(n.a)
        if n.fv <= bound and k in ("eq", "lt"):
            return Cmp("=" if k == "eq" else "<", n.a, n.b, False)
        if n.fv <= bound and k == "not":
            body = n.parts[0]
            if body.kind in ("eq", "lt"):
                return Cmp("=" if body.kind == "eq" else "<", body.a, body.b, True)
            key = tuple(sorted(body.fv))
            return Anti(self.node(body, frozenset(key)), key)
        return self.conj(n.parts if k == "and" else (n,), bound, ())

    def conj(self, parts, bound, want) -> Node:
        """Filters first, then binding equalities, then generators."""
        bound = set(bound)
        pending = list(parts)
        steps = []
        while pending:
            ready = [p for p in pending if p.fv <= bound]
            if ready:
                ready.sort(key=lambda p: _FILTER_RANK.get(p.kind, 2))
                fb = frozenset(bound)
                steps.extend(self.node(p, fb) for p in ready)
                pending = [p for p in pending if not p.fv <= bound]
                continue
            copy = self._binding(pending, bound)
            if copy is not None:
                p, v, t = copy
                steps.append(Copy(v, t))
                bound.add(v)
                pending.remove(p)
                continue
            # a generator that binds its variables without reading the
            # domain goes first; joined to bound variables, the better
            gens = [
                (0 if p.fv - bound <= self._binds(p) else 1,
                 0 if p.fv & bound else 1, _GEN_RANK[p.kind], i)
                for i, p in enumerate(pending)
                if p.kind in _GEN_RANK
            ]
            if gens:
                p = pending.pop(min(gens)[-1])
                steps.append(self.node(p, frozenset(bound)))
                bound |= p.fv
                continue
            v = min(pending[0].fv - bound)
            steps.append(Dom(v))
            bound.add(v)
        for v in want:
            if v not in bound:
                steps.append(Dom(v))
                bound.add(v)
        return steps[0] if len(steps) == 1 else Seq(tuple(steps))

    def _binds(self, n: _N) -> frozenset:
        """The variables n binds without reading the active domain: those
        of its atoms and certain answers, through equalities, in every
        disjunct."""
        out = self._bound_by.get(n.key)
        if out is not None:
            return out
        k = n.kind
        if k in ("atom", "certain"):
            out = n.fv
        elif k == "or":
            out = frozenset.intersection(*(self._binds(p) for p in n.parts))
        elif k == "exists":
            out = self._binds(n.parts[0]) - {n.a}
        elif k == "and":
            out = frozenset().union(*(self._binds(p) for p in n.parts))
            eqs = [p for p in n.parts if p.kind == "eq"]
            while True:
                more = {
                    v.name
                    for p in eqs
                    for v, t in ((p.a, p.b), (p.b, p.a))
                    if isinstance(v, Var) and (not isinstance(t, Var) or t.name in out)
                }
                if more <= out:
                    break
                out |= more
        else:
            out = frozenset()
        self._bound_by[n.key] = out
        return out

    @staticmethod
    def _binding(pending, bound):
        for p in pending:
            if p.kind != "eq":
                continue
            for v, t in ((p.a, p.b), (p.b, p.a)):
                if (
                    isinstance(v, Var)
                    and v.name not in bound
                    and (not isinstance(t, Var) or t.name in bound)
                ):
                    return p, v.name, t
        return None

    def union(self, n: _N) -> Ref:
        """A closed union over n's variables, shared by canonical key."""
        hit = self._unions.get(n.key)
        if hit is not None:
            return Ref(*hit)
        cols = tuple(v for v in _var_order(n, {}) if v in n.fv)
        names = tuple(f"#{i + 1}" for i in range(len(cols)))
        canon = self.norm.rename(n, {v: Var(h) for v, h in zip(cols, names)})
        node = self._canon.get(canon.key)
        if node is None:
            # renaming may leave a single disjunct
            disjuncts = canon.parts if canon.kind == "or" else (canon,)
            node = Union(
                tuple(
                    self.conj(p.parts if p.kind == "and" else (p,), (), names)
                    for p in disjuncts
                ),
                names,
            )
            self._canon[canon.key] = node
        self._unions[n.key] = node, cols
        return Ref(node, cols)
