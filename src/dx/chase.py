"""Chase procedures and term interpretations.

`to_term_interpretation` compiles a mapping once: one rule per
dependency, whose existential variables become Skolem terms
f<d>_<i>(a...) over its universal variables, each rule planned once on
first use.  Both chases, `dx.sqlgen` and `dx.verify` read this form.

The naive chase is the evaluation of the term interpretation: every
rule fires on every satisfying tuple, so its output is literally equal
(not merely isomorphic) to the interpretation evaluated on the same
instance.  All plans run on one evaluator (`dx.evaluator.run_plans`),
so `certain[...]` antecedents chase their base mapping once per chase;
nothing is cached between calls.

The restricted chase reads only the rules.  A rule's heads give one
consequent check, ordered once, whose Skolem terms are search
variables; a firing is skipped whenever the check, filled in with the
tuple's values, is satisfied by the instance built so far.  It is
order-sensitive, so the order is pinned: dependencies in declaration
order, tuples sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dx import kernel
from dx.evaluator import run_plans
from dx.lang import (
    Formula,
    SchemaMapping,
    Var,
    certain_nodes,
    mapping_certain_free,
)
from dx.model import (
    Const,
    Encoding,
    Fact,
    Instance,
    MappingError,
    Schema,
    SkolemNull,
)
from dx.plan import Planner


@dataclass(frozen=True, slots=True)
class App:
    """A function symbol applied to terms."""

    symbol: str
    args: tuple


TTerm = Var | Const | App


@dataclass(frozen=True)
class Rule:
    """One Skolemized dependency: its antecedent with parameters `params`
    (sorted free variables) and a term tuple per consequent atom."""

    condition: Formula
    params: tuple
    heads: tuple  # (relation, terms)


@dataclass(frozen=True)
class TermInterpretation:
    """A mapping compiled once: one rule per dependency, in order."""

    source: Schema
    target: Schema
    rules: tuple

    @cached_property
    def plans(self) -> tuple:
        """One plan per rule, binding its parameters, built on first use
        by one planner, so rules share their unions."""
        planner = Planner()
        return tuple(planner.plan(r.condition, want=r.params) for r in self.rules)


def _skolem_symbol(tgd_index: int, var_index: int) -> str:
    return f"f{tgd_index + 1}_{var_index + 1}"


def _term_value(t: TTerm, params: tuple):
    """A function from a row of values for `params` to the value of t."""
    if isinstance(t, Var):
        i = params.index(t.name)
        return lambda row: row[i]
    if isinstance(t, Const):
        return lambda row: t
    args = [_term_value(a, params) for a in t.args]
    return lambda row: SkolemNull(t.symbol, tuple([f(row) for f in args]))


def to_term_interpretation(m: SchemaMapping) -> TermInterpretation:
    """Compile m: one rule per dependency, each existential variable
    replaced by a function term over the dependency's universal
    variables.  A certain[...] antecedent must name a base mapping
    without further certain[...] nodes."""
    rules = []
    for d, tgd in enumerate(m.tgds):
        if not all(mapping_certain_free(c.base) for c in certain_nodes(tgd.antecedent)):
            raise MappingError(
                "certain[...] antecedents must reference a mapping "
                "without further certain[...] nodes"
            )
        params = tgd.universal_vars
        skolem: dict = {
            Var(y): App(_skolem_symbol(d, i), tuple(Var(x) for x in params))
            for i, y in enumerate(tgd.exist_vars)
        }
        heads = tuple(
            (atom.rel, tuple(skolem.get(a, a) for a in atom.args)) for atom in tgd.consequent
        )
        rules.append(Rule(tgd.antecedent, params, heads))
    return TermInterpretation(m.source, m.target, tuple(rules))


def _answers(pi: TermInterpretation, inst: Instance) -> list:
    """The parameter rows satisfying each rule's condition in inst."""
    if inst.schema != pi.source:
        raise MappingError("instance schema differs from the mapping's source schema")
    if not inst.is_source:
        raise MappingError("chase input must be null-free")
    return run_plans(zip(pi.plans, (r.params for r in pi.rules)), inst)


def naive_chase(m: SchemaMapping, inst: Instance) -> Instance:
    """Canonical universal solution of `inst` under `m`: the term
    interpretation of m's Skolemized dependencies, evaluated on inst."""
    return eval_interpretation(to_term_interpretation(m), inst)


def restricted_chase(m: SchemaMapping, inst: Instance) -> Instance:
    """Like the naive chase, but a dependency only fires on a tuple if
    its consequent is not yet satisfiable in the instance built so far.
    """
    pi = to_term_interpretation(m)
    facts: set = set()
    built = Encoding()  # `facts`, indexed for the consequent checks
    for rule, answers in zip(pi.rules, _answers(pi, inst)):
        heads = [(rel, [_term_value(t, rule.params) for t in terms]) for rel, terms in rule.heads]
        nulls: dict = {}  # a Skolem term -> its search variable
        slots: dict = {}  # any other term -> the slot of its value's code
        check = kernel.order_pattern([
            (rel, tuple(-1 - nulls.setdefault(t, len(nulls)) if isinstance(t, App)
                        else slots.setdefault(t, len(slots)) for t in terms))
            for rel, terms in rule.heads
        ])
        values = [_term_value(t, rule.params) for t in slots]
        for row in sorted(answers):
            codes = [built.code(f(row)) for f in values]
            pattern = [(rel, tuple(a if a < 0 else codes[a] for a in args)) for rel, args in check]
            if kernel.find_hom(pattern, built, len(nulls)) is not None:
                continue
            for rel, terms in heads:
                fact = Fact(rel, tuple([f(row) for f in terms]))
                if fact not in facts:
                    facts.add(fact)
                    built.add(fact)
    return Instance(m.target, facts)


def eval_interpretation(pi: TermInterpretation, inst: Instance) -> Instance:
    """The target instance generated by a term interpretation."""
    facts = set()
    for rule, rows in zip(pi.rules, _answers(pi, inst)):
        for rel, terms in rule.heads:
            values = [_term_value(t, rule.params) for t in terms]
            facts.update([Fact(rel, tuple([f(row) for f in values])) for row in rows])
    return Instance(pi.target, facts)
