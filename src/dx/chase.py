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

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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
    all_bare,
    fact_lines,
    facts_of,
    format_facts,
    skolem_nulls,
    sort_plain_lines,
)
from dx.plan import Planner

_TEXT = operator.itemgetter(1)  # a constant's text


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


def _fire(rule: Rule, rows, columns: list, fixed, skolems):
    """(relation, argument tuples) per head of `rule`, fired a column at a
    time over `rows`, its answer rows, with columns `columns`: no Python
    call per row.  A head constant of `fixed` is a column too, and so is a
    Skolem symbol's `skolems(symbol, rows)`; an argument tuple that
    is a whole row is that row, shared.  `rows` must keep one order."""
    width, n = len(rule.params), len(rows)
    if not n:
        return
    columns = [*columns, *([c] * n for c in fixed)]
    columns += (list(skolems(symbol, rows)) for symbol in rule.skolems)
    for rel, ps in rule.heads:
        if all(p < width for p in ps):
            yield rel, map(row_getter(ps), rows)
        else:
            yield rel, zip(*[columns[p] for p in ps])


def eval_interpretation(pi: TermInterpretation, inst: Instance) -> Instance:
    """The target instance generated by a term interpretation: each rule
    fired a column at a time (`_fire`) over its answer rows, a set,
    iterated unchanged, its Skolem values made by `map`."""
    facts = set()
    for rule, rows in zip(pi.rules, _answers(pi, inst)):
        for rel, tuples in _fire(rule, rows, list(zip(*rows)), rule.fixed, skolem_nulls):
            facts.update(facts_of(rel, tuples))
    return Instance(pi.target, facts)


def _skolem_texts(symbol: str, rows: list) -> list:
    """The texts of a Skolem symbol's nulls over rows of argument texts."""
    text = f"?{symbol}(" + ", ".join(["%s"] * len(rows[0])) + ")\n"
    return ((text * len(rows)) % tuple(chain.from_iterable(rows))).splitlines()


def naive_chase_text(m: SchemaMapping, inst: Instance) -> str:
    """`format_facts(naive_chase(m, inst))`, the canonical universal
    solution as a fact file.  If it is plain, as read off the source and
    the rules before any antecedent runs (every source constant, head
    constant and target relation name bare; Skolem symbols always are),
    it is printed straight from each rule's answer texts, fired by
    `_fire`, and never built: a Skolem column is one `%` format over the
    rows, each head's lines one more; a relation's lines, deduplicated as
    strings (exact, as plain texts are injective), are sorted by
    `sort_plain_lines`.  Other input takes `naive_chase`."""
    pi = to_term_interpretation(m)
    fixed = chain.from_iterable(rule.fixed for rule in pi.rules)
    texts = chain(map(_TEXT, inst.values), map(_TEXT, fixed), pi.target.names())
    if not (inst.is_source and all_bare(texts)):
        return format_facts(naive_chase(m, inst))
    lines = _plain_lines(pi, inst)  # each set is freed once joined
    return "".join(sort_plain_lines("".join(lines.pop(rel))) for rel in sorted(lines))


def _plain_lines(pi: TermInterpretation, inst: Instance) -> dict:
    """relation -> its distinct fact lines, each rule fired over the texts
    of its answer rows, which hold constants only."""
    lines: dict = {}
    for rule, rows in zip(pi.rules, _answers(pi, inst)):
        columns = [list(map(_TEXT, col)) for col in zip(*rows)]
        texts = list(zip(*columns)) if columns else list(rows)  # no parameters: [()]
        fixed = list(map(_TEXT, rule.fixed))
        for rel, tuples in _fire(rule, texts, columns, fixed, _skolem_texts):
            cells = tuple(chain.from_iterable(tuples))
            text = fact_lines(rel, pi.target.arity(rel), len(texts), cells)
            lines.setdefault(rel, set()).update(text.splitlines(True))
    return lines
