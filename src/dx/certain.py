"""Certain answers to conjunctive target queries.

Two routes are implemented and kept in agreement:

* operational: chase the source instance and take the ground answers of
  the query in the canonical universal solution;
* syntactic: unfold the query through the mapping's term interpretation
  into a union of source conditions (used to eliminate `certain[...]`
  nodes before SQL emission).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from dx.chase import Rule, TermInterpretation, naive_chase, to_term_interpretation
from dx.evaluator import ground_answers
from dx.lang import (
    And,
    Certain,
    Eq,
    Exists,
    FALSE,
    Forall,
    Formula,
    Lt,
    Not,
    Or,
    RelAtom,
    SchemaMapping,
    TGD,
    TRUE,
    TrueF,
    Var,
    conj,
    disj,
    exists_all,
    format_formula,
    free_vars,
    is_false,
    is_true,
    mapping_certain_free,
    neg,
    rename_bound,
    substitute,
)
from dx.model import Instance, MappingError


def cq_parts(q: Formula):
    """Split a conjunctive query into (existential vars, atoms, equalities).

    Raises MappingError when q is not of the form exists* (and of
    relational atoms and equalities).
    """
    exist = []
    body = q
    while isinstance(body, Exists):
        exist.append(body.var)
        body = body.body
    atoms: list = []
    eqs: list = []

    def walk(f):
        if isinstance(f, RelAtom):
            atoms.append(f)
        elif isinstance(f, Eq):
            eqs.append(f)
        elif isinstance(f, And):
            for p in f.parts:
                walk(p)
        elif isinstance(f, TrueF):
            pass
        else:
            raise MappingError(f"not a conjunctive query: {format_formula(q)}")

    walk(body)
    return tuple(exist), tuple(atoms), tuple(eqs)


def certain_answers(m: SchemaMapping, q: Formula, inst: Instance, free=None):
    """Ground answers of the conjunctive query q in the canonical
    universal solution of inst; sound and complete for CQs.
    """
    require_certain_query(m, q)
    if free is None:
        free = tuple(sorted(free_vars(q)))
    return frozenset(ground_answers(q, naive_chase(m, inst), tuple(free)))


def require_certain_query(m: SchemaMapping, q: Formula) -> None:
    """Raise MappingError unless q is a CQ over a certain[...]-free m."""
    cq_parts(q)
    if not mapping_certain_free(m):
        raise MappingError("certain answers require a certain[...]-free mapping")


# ---------------------------------------------------------------------------
# Unfolding through the term interpretation.

@dataclass(frozen=True)
class Disjunct:
    condition: Formula
    equalities: frozenset  # pairs of identified answer variables


@dataclass(frozen=True)
class UnfoldedRewriting:
    free: tuple
    disjuncts: tuple

    def as_formula(self) -> Formula:
        parts = []
        for d in self.disjuncts:
            eqs = [Eq(Var(u), Var(v)) for u, v in sorted(d.equalities)]
            parts.append(conj([d.condition] + eqs))
        return disj(parts)


class _Unifier:
    """Union-find over integer nodes with term bindings, undone on a trail.

    A node is an int.  A class may be bound to a constant or to a
    function term (symbol, args), a plain tuple whose arguments `unfold`
    makes nodes; a value is a tuple subclass, so `type(t)` tells the
    three apart.  Each write goes to an unbound root and is
    recorded on `trail`, so `undo(mark)` restores the state of `mark`
    entries; `find` does not compress paths, which undo could not restore.
    """

    __slots__ = ("parent", "binding", "trail")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.binding: list = [None] * n
        self.trail: list = []

    def undo(self, mark: int) -> None:
        parent, binding, trail = self.parent, self.binding, self.trail
        for x in trail[mark:]:
            parent[x] = x
            binding[x] = None
        del trail[mark:]

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def occurs(self, root: int, term) -> bool:
        # reads only the term's own nodes, not their classes' bindings,
        # so a cycle through a bound node is missed (ROADMAP item 1)
        if type(term) is tuple:
            for a in term[1]:
                if self.occurs(root, a):
                    return True
            return False
        return type(term) is int and self.find(term) == root

    def unify(self, a, b) -> bool:
        # a node stands for its class's binding, or else for its root
        parent, binding = self.parent, self.binding
        if type(a) is int:
            while parent[a] != a:
                a = parent[a]
            if binding[a] is not None:
                a = binding[a]
        if type(b) is int:
            while parent[b] != b:
                b = parent[b]
            if binding[b] is not None:
                b = binding[b]
        if type(a) is int:
            if type(b) is not int:
                return self._bind(a, b)
            if a != b:
                parent[b] = a
                self.trail.append(b)
            return True
        if type(b) is int:
            return self._bind(b, a)
        if a == b:
            return True
        if type(a) is tuple and type(b) is tuple:
            if a[0] != b[0] or len(a[1]) != len(b[1]):
                return False
            for x, y in zip(a[1], b[1]):
                if not self.unify(x, y):
                    return False
            return True
        return False  # a proper term never equals a constant, nor two constants

    def _bind(self, root: int, term) -> bool:
        if type(term) is tuple and self.occurs(root, term):
            return False
        self.binding[root] = term
        self.trail.append(root)
        return True


@dataclass(frozen=True, slots=True)
class _Branch:
    """A rule head compiled for the query atom at one depth: its terms
    over the depth's nodes, which the rule's parameters take in order,
    with the `repr` of each parameter as a named node ('b', depth, name),
    which orders classes.  `index` is the rule's position."""

    rule: Rule
    index: int
    terms: tuple
    nodes: tuple
    names: tuple


class _Heads:
    """The rule heads of a term interpretation, compiled for `unfold` by
    (depth, relation) on first use.  The branch variables of depth `idx`
    are nodes idx * width, ..., so a compiled head serves every query;
    an elimination shares one per base mapping among its unfoldings.
    A head position is a node, a constant or a Skolem term (symbol,
    nodes)."""

    def __init__(self, pi: TermInterpretation):
        self.width = max((len(r.params) for r in pi.rules), default=0)
        self.by_rel: dict = {}  # relation -> (rule index, rule, head positions)
        for index, rule in enumerate(pi.rules):
            for rel, ps in rule.heads:
                self.by_rel.setdefault(rel, []).append((index, rule, ps))
        self.compiled: dict = {}

    def branches(self, idx: int, rel: str) -> list:
        out = self.compiled.get((idx, rel))
        if out is None:
            out = self.compiled[idx, rel] = []
            base, per_rule = idx * self.width, {}
            for index, rule, ps in self.by_rel.get(rel, ()):
                if index not in per_rule:
                    nodes = tuple(range(base, base + len(rule.params)))
                    terms = (*nodes, *rule.fixed, *((s, nodes) for s in rule.skolems))
                    reprs = tuple(repr(("b", idx, p)) for p in rule.params)
                    per_rule[index] = nodes, terms, reprs
                nodes, terms, reprs = per_rule[index]
                out.append(_Branch(rule, index, tuple(terms[p] for p in ps), nodes, reprs))
        return out


def unfold(m: SchemaMapping, q: Formula, heads: _Heads | None = None) -> UnfoldedRewriting:
    """Source rewriting of the certain answers of a conjunctive query.

    Every way of sending the query atoms to heads of the term
    interpretation's rules (the branches of their relations) is tried;
    the head terms are unified with the query arguments (answer
    variables may only unify with non-proper terms), and each success
    contributes one disjunct: the conjunction of the chosen rules'
    conditions under the unifying substitution.  `heads`, when given,
    is m's term interpretation's `_Heads`, which a caller unfolding
    several queries over m shares among them.

    The atoms are walked depth first, in `itertools.product` order, on
    one unifier: a branch binds in place, and its bindings are undone on
    backtrack, so a prefix whose unification fails is not extended.
    The query variables' nodes follow the branch variables', answer
    variables first.
    """
    if not mapping_certain_free(m):
        raise MappingError("unfolding requires a certain[...]-free mapping")
    exist, atoms, eqs = cq_parts(q)
    free = tuple(sorted(free_vars(q)))
    if heads is None:
        heads = _Heads(to_term_interpretation(m))
    qvars = dict.fromkeys(free)
    for atom in atoms:
        qvars.update((a.name, None) for a in atom.args if isinstance(a, Var))
    for eq in eqs:
        qvars.update((t.name, None) for t in (eq.left, eq.right) if isinstance(t, Var))
    first = len(atoms) * heads.width
    qnode = {v: first + i for i, v in enumerate(qvars)}
    # each node's sort key, the repr of ('q', name) or ('b', depth, name):
    # classes are ordered, and fresh variables numbered, by these strings
    names = [""] * first + [repr(("q", v)) for v in qvars]

    def query_term(t):
        return qnode[t.name] if isinstance(t, Var) else t

    per_atom = [
        ([query_term(a) for a in atom.args], heads.branches(idx, atom.rel))
        for idx, atom in enumerate(atoms)
    ]
    uf = _Unifier(len(names))
    unify, undo, trail = uf.unify, uf.undo, uf.trail
    choice: list = [None] * len(atoms)
    memo: dict = {}
    disjuncts: dict = {}  # an ordered set

    def walk(idx: int):
        if idx == len(atoms):
            d = _build_disjunct(uf, free, first, choice, names, memo)
            if d is not None:
                disjuncts.setdefault(d)
            return
        mark = len(trail)
        args, branches = per_atom[idx]
        for branch in branches:
            for a, t in zip(args, branch.terms):
                if not unify(a, t):
                    break
            else:
                choice[idx] = branch
                if branch.nodes:
                    names[branch.nodes[0]:branch.nodes[-1] + 1] = branch.names
                walk(idx + 1)
            if len(trail) > mark:
                undo(mark)

    if all(unify(query_term(eq.left), query_term(eq.right)) for eq in eqs):
        walk(0)
    return UnfoldedRewriting(free, tuple(disjuncts))


def _build_disjunct(uf: _Unifier, free, first: int, choice, names, memo: dict):
    """The disjunct of one successful choice of branches, or None when an
    answer variable or a branch parameter is bound to a proper term.
    The answer variables are nodes first, first + 1, ... in `free` order;
    `names` gives each node's sort key.  `memo` keeps, for one unfolding,
    each rule condition renamed and substituted, so leaves share them."""
    find, binding = uf.find, uf.binding
    grounded = range(first, first + len(free))
    for node in itertools.chain(grounded, *(branch.nodes for branch in choice)):
        if type(binding[find(node)]) is tuple:
            return None
    # group the grounded nodes (answer vars and branch params) by class
    classes: dict = {}  # root -> its answer variables, sorted
    for node, v in zip(grounded, free):
        classes.setdefault(find(node), []).append(v)
    params = [find(node) for branch in choice for node in branch.nodes]
    for root in params:
        classes.setdefault(root, [])

    rep: dict = {}  # each class's term: a constant, or a variable's name
    equalities = set()
    extra_eqs = []
    fresh_names: list = []
    taken = set(free)
    counter = itertools.count(1)
    for root in sorted(classes, key=names.__getitem__):
        frees = classes[root]
        bound = binding[root]
        if bound is not None:
            rep[root] = bound
            for u in frees:
                extra_eqs.append(Eq(Var(u), bound))
        elif frees:
            rep[root] = frees[0]
            for other in frees[1:]:
                equalities.add((frees[0], other))
        else:
            name = f"w{next(counter)}"
            while name in taken:
                name = f"w{next(counter)}"
            taken.add(name)
            fresh_names.append(name)
            rep[root] = name

    conds = []
    at = 0
    for branch in choice:
        rule = branch.rule
        terms = tuple(rep[root] for root in params[at:at + len(rule.params)])
        at += len(rule.params)
        # `taken` is `free` and the first len(fresh_names) fresh names
        key = (branch.index, len(fresh_names), terms)
        cond = memo.get(key)
        if cond is None:
            sub = {p: Var(t) if type(t) is str else t for p, t in zip(rule.params, terms)}
            cond = rename_bound(rule.condition, taken | set(rule.params))
            cond = memo[key] = substitute(cond, sub)
        conds.append(cond)
    body = conj(conds + extra_eqs)
    used_fresh = [n for n in fresh_names if n in free_vars(body)]
    return Disjunct(exists_all(used_fresh, body), frozenset(equalities))


def eliminate(f: Formula) -> Formula:
    """Replace every certain[...] node by its unfolded source rewriting,
    folding true and false on the way."""
    return _eliminate(f, {})


def _eliminate(f: Formula, memo: dict) -> Formula:
    """One bottom-up walk.  `memo` maps each compound node to its result,
    for one elimination, so a subformula shared by several parents is
    rewritten once and its result is shared in turn; it also maps each
    base mapping to its term interpretation's heads, compiled once."""
    if isinstance(f, (RelAtom, Eq, Lt, TrueF)):
        return f
    out = memo.get(f)
    if out is None:
        out = memo[f] = _eliminate_node(f, memo)
    return out


def _eliminate_node(f: Formula, memo: dict) -> Formula:
    """f over its rewritten parts, with constants folded.  Quantifiers
    over constant bodies are only dropped when the bound variable does
    not occur, since exists/forall over an empty active domain differ
    from their bodies."""
    if isinstance(f, Certain):
        heads = memo.get(f.base)
        if heads is None and mapping_certain_free(f.base):  # else unfold rejects it
            heads = memo[f.base] = _Heads(to_term_interpretation(f.base))
        # the unfolding is certain[...]-free: walking it folds constants
        return _eliminate(unfold(f.base, f.query, heads).as_formula(), memo)
    if isinstance(f, And):
        parts = [_eliminate(p, memo) for p in f.parts]
        return FALSE if any(is_false(p) for p in parts) else conj(parts)
    if isinstance(f, Or):
        parts = [p for p in (_eliminate(q, memo) for q in f.parts) if not is_false(p)]
        return TRUE if any(is_true(p) for p in parts) else disj(parts)
    if isinstance(f, Not):
        return neg(_eliminate(f.body, memo))
    if isinstance(f, (Exists, Forall)):
        body = _eliminate(f.body, memo)
        if is_false(body) and isinstance(f, Exists):
            return FALSE
        if is_true(body) and isinstance(f, Forall):
            return TRUE
        return type(f)(f.var, body)
    return f


def eliminate_mapping(m: SchemaMapping) -> SchemaMapping:
    """Eliminate certain[...] from every antecedent of a mapping."""
    memo: dict = {}
    return SchemaMapping(
        m.source,
        m.target,
        tuple(
            TGD(_eliminate(t.antecedent, memo), t.exist_vars, t.consequent)
            for t in m.tgds
        ),
    )
