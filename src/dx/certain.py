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

from dx.chase import App, naive_chase, to_term_interpretation
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
    free_vars,
    is_false,
    is_true,
    mapping_certain_free,
    neg,
    rename_bound,
    substitute,
)
from dx.model import Const, Instance, MappingError


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
            raise MappingError(f"not a conjunctive query: {q!r}")

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
    """Union-find over query/branch variables with term bindings.

    Nodes are ('q', name) for query variables and ('b', i, name) for
    variables of the i-th chosen branch.  A class may be bound to a
    constant or to a function term ('app', symbol, args) whose
    arguments are again nodes, constants, or terms.  Nodes and terms are
    plain tuples, told apart from constants by `type(t) is tuple`, since
    a `Const` is a tuple subclass.
    """

    def __init__(self):
        self.parent: dict = {}
        self.binding: dict = {}

    def copy(self) -> "_Unifier":
        uf = _Unifier()
        uf.parent = dict(self.parent)
        uf.binding = dict(self.binding)
        return uf

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _occurs(self, node, term) -> bool:
        if type(term) is tuple and term and term[0] == "app":
            return any(self._occurs(node, a) for a in term[2])
        if type(term) is tuple and len(term) in (2, 3) and term[0] in ("q", "b"):
            return self.find(term) == node
        return False

    def unify(self, a, b) -> bool:
        a = self._resolve(a)
        b = self._resolve(b)
        if a == b:
            return True
        a_node = self._is_node(a)
        b_node = self._is_node(b)
        if a_node and b_node:
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                return True
            self.parent[rb] = ra
            bound = self.binding.pop(rb, None)
            if bound is not None:
                return self._bind(ra, bound)
            return True
        if a_node:
            return self._bind(self.find(a), b)
        if b_node:
            return self._bind(self.find(b), a)
        return self._unify_terms(a, b)

    def _is_node(self, t) -> bool:
        return type(t) is tuple and len(t) in (2, 3) and t[0] in ("q", "b")

    def _resolve(self, t):
        if self._is_node(t):
            r = self.find(t)
            return self.binding.get(r, r)
        return t

    def _bind(self, root, term) -> bool:
        term = self._resolve(term)
        if self._is_node(term):
            return self.unify(root, term)
        if self._occurs(root, term):
            return False
        old = self.binding.get(root)
        if old is None:
            self.binding[root] = term
            return True
        return self._unify_terms(old, term)

    def _unify_terms(self, a, b) -> bool:
        a_app = type(a) is tuple and a and a[0] == "app"
        b_app = type(b) is tuple and b and b[0] == "app"
        if a_app and b_app:
            if a[1] != b[1] or len(a[2]) != len(b[2]):
                return False
            return all(self.unify(x, y) for x, y in zip(a[2], b[2]))
        if a_app or b_app:
            return False  # a proper term never equals a constant
        return a == b  # two constants

    def term_is_proper(self, t) -> bool:
        t = self._resolve(t) if self._is_node(t) else t
        if type(t) is tuple and t and t[0] == "app":
            return True
        return False


def _term_to_internal(t, branch_idx):
    if isinstance(t, Var):
        return ("b", branch_idx, t.name)
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return ("app", t.symbol, tuple(_term_to_internal(a, branch_idx) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


def _query_term(t):
    return ("q", t.name) if isinstance(t, Var) else t


def unfold(m: SchemaMapping, q: Formula) -> UnfoldedRewriting:
    """Source rewriting of the certain answers of a conjunctive query.

    Every way of sending the query atoms to heads of the term
    interpretation's rules (the branches of their relations) is tried;
    the head terms are unified with the query arguments (answer
    variables may only unify with non-proper terms), and each success
    contributes one disjunct: the conjunction of the chosen rules'
    conditions under the unifying substitution.

    The atoms are walked depth first, in `itertools.product` order: each
    branch of an atom unifies on a copy of its prefix's unifier, and a
    prefix whose unification fails is not extended.
    """
    if not mapping_certain_free(m):
        raise MappingError("unfolding requires a certain[...]-free mapping")
    exist, atoms, eqs = cq_parts(q)
    free = tuple(sorted(free_vars(q)))
    rules = to_term_interpretation(m).rules
    # each atom's branches: the (rule, terms) of every head in its relation
    per_atom = [
        [(r, terms) for r in rules for head, terms in r.heads if head == atom.rel]
        for atom in atoms
    ]
    disjuncts: dict = {}  # an ordered set

    def walk(uf: _Unifier, choice: tuple):
        idx = len(choice)
        if idx == len(atoms):
            # answer variables and branch variables must stay non-proper
            grounded = [("q", v) for v in free] + [
                ("b", i, p) for i, rule in enumerate(choice) for p in rule.params
            ]
            if not any(uf.term_is_proper(n) for n in grounded):
                d = _build_disjunct(uf, free, choice)
                if d is not None:
                    disjuncts.setdefault(d)
            return
        for rule, terms in per_atom[idx]:
            ext = uf.copy()
            if all(
                ext.unify(_query_term(arg), _term_to_internal(term, idx))
                for arg, term in zip(atoms[idx].args, terms)
            ):
                walk(ext, choice + (rule,))

    uf = _Unifier()
    if all(uf.unify(_query_term(eq.left), _query_term(eq.right)) for eq in eqs):
        walk(uf, ())
    return UnfoldedRewriting(free, tuple(disjuncts))


def _build_disjunct(uf: _Unifier, free, choice):
    # group the grounded variables (answer vars and branch params) by class
    classes: dict = {}
    for v in free:
        classes.setdefault(uf.find(("q", v)), []).append(("q", v))
    for idx, rule in enumerate(choice):
        for p in rule.params:
            classes.setdefault(uf.find(("b", idx, p)), []).append(("b", idx, p))

    rep_term: dict = {}
    equalities = set()
    extra_eqs = []
    fresh_names: list = []
    taken = set(free)
    counter = itertools.count(1)
    for root in sorted(classes, key=repr):
        members = classes[root]
        bound = uf.binding.get(root)
        frees = sorted(n[1] for n in members if n[0] == "q" and n[1] in free)
        if bound is not None:
            if not isinstance(bound, Const):
                return None  # grounded class bound to a proper term
            term = bound
            for u in frees:
                extra_eqs.append(Eq(Var(u), bound))
        elif frees:
            term = Var(frees[0])
            for other in frees[1:]:
                equalities.add((frees[0], other))
        else:
            name = f"w{next(counter)}"
            while name in taken:
                name = f"w{next(counter)}"
            taken.add(name)
            fresh_names.append(name)
            term = Var(name)
        rep_term[root] = term

    conds = []
    for idx, rule in enumerate(choice):
        sub = {}
        for p in rule.params:
            sub[p] = rep_term[uf.find(("b", idx, p))]
        cond = rename_bound(rule.condition, taken | set(rule.params))
        conds.append(substitute(cond, sub))
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
    rewritten once and its result is shared in turn."""
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
        # the unfolding is certain[...]-free: walking it folds constants
        return _eliminate(unfold(f.base, f.query).as_formula(), memo)
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
