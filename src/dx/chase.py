"""Chase procedures and term interpretations.

`to_term_interpretation` compiles a mapping once: one rule per
dependency, each planned once on first use, its heads compiled into
positions (see `Rule`).  An existential variable becomes a Skolem term
f<d>_<i>(a...), its symbol over all of the rule's parameters.  Both
chases, `dx.certain.unfold`, `dx.sqlgen` and `dx.verify` read this
form, each giving a head position its own kind of value.

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
from dx.evaluator import row_getter, run_plans
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
    facts_of,
    skolem_nulls,
)
from dx.plan import Planner


@dataclass(frozen=True)
class Rule:
    """One Skolemized dependency: its antecedent with parameters `params`
    (sorted free variables), and its heads compiled once.  `fixed` lists
    the head constants; `skolems` one symbol f<d>_<i> per existential
    variable a head uses, applied to the whole parameter row; `heads`
    (relation, positions) per consequent atom, a position indexing the
    parameters, then `fixed`, then the Skolem values."""

    condition: Formula
    params: tuple
    fixed: tuple
    skolems: tuple
    heads: tuple


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
        args = [a for atom in tgd.consequent for a in atom.args]
        fixed = tuple(dict.fromkeys(a for a in args if isinstance(a, Const)))
        pos = {t: i for i, t in enumerate((*map(Var, params), *fixed))}
        base = len(pos)
        for a in args:  # each existential variable a head uses, in order
            pos.setdefault(a, len(pos))
        skolems = tuple(_skolem_symbol(d, tgd.exist_vars.index(y.name)) for y in list(pos)[base:])
        heads = tuple((atom.rel, tuple(pos[a] for a in atom.args)) for atom in tgd.consequent)
        rules.append(Rule(tgd.antecedent, params, fixed, skolems, heads))
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
        fixed, skolems = rule.fixed, rule.skolems
        base = len(rule.params) + len(fixed)
        # a Skolem value is a search variable; any other value fills a
        # slot with its code
        slots: dict = {}
        check = kernel.order_pattern([
            (rel, tuple(base - 1 - p if p >= base else slots.setdefault(p, len(slots)) for p in ps))
            for rel, ps in rule.heads
        ])
        values = row_getter(list(slots))
        heads = [(rel, row_getter(ps)) for rel, ps in rule.heads]
        for row in sorted(answers):
            extended = row + fixed
            codes = list(map(built.code, values(extended)))
            pattern = [(rel, tuple(a if a < 0 else codes[a] for a in args)) for rel, args in check]
            if kernel.find_hom(pattern, built, len(skolems)) is not None:
                continue
            extended += tuple(SkolemNull(symbol, row) for symbol in skolems)
            for rel, get in heads:
                fact = Fact(rel, get(extended))
                if fact not in facts:
                    facts.add(fact)
                    built.add(fact)
    return Instance(m.target, facts)


def eval_interpretation(pi: TermInterpretation, inst: Instance) -> Instance:
    """The target instance generated by a term interpretation.

    Each rule fires a column at a time, with no Python call per row: its
    Skolem values and head facts are made by `map` over the answer rows,
    or over `zip`s of columns where a term lies outside them (a constant,
    a Skolem value).  An argument tuple that is a whole answer row is that
    row, shared, not a copy.  The rows are a set, iterated unchanged, so
    every column and every `map` over them follows one order."""
    facts = set()
    for rule, rows in zip(pi.rules, _answers(pi, inst)):
        if not rows:
            continue
        width, n = len(rule.params), len(rows)
        columns = [*zip(*rows), *([c] * n for c in rule.fixed)]
        columns += (list(skolem_nulls(symbol, rows)) for symbol in rule.skolems)

        def tuples(ps):
            if all(p < width for p in ps):
                return map(row_getter(ps), rows)
            return zip(*[columns[p] for p in ps])

        for rel, ps in rule.heads:
            facts.update(facts_of(rel, tuples(ps)))
    return Instance(pi.target, facts)
