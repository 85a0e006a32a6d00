"""Chase procedures and term interpretations.

The naive chase is the evaluation of the mapping's term interpretation:
every dependency fires on every satisfying tuple, and its existential
variables become labeled nulls named as Skolem terms f<d>_<i>(a...) over
the firing tuple.  The chase output is thus literally equal (not merely
isomorphic) to the term interpretation evaluated on the same instance.
All its conditions are evaluated together, so `certain[...]` antecedents
chase their base mapping once per chase (see `dx.evaluator.eval_formulas`);
nothing is cached between calls.

The restricted chase skips a firing whenever the consequent is already
satisfied by the instance built so far; it is order-sensitive, so the
order is pinned: dependencies in declaration order, tuples sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from dx.evaluator import eval_formulas
from dx.lang import (
    Formula,
    SchemaMapping,
    Var,
    format_formula,
    mapping_certain_free,
)
from dx.model import (
    Const,
    Encoding,
    Fact,
    Instance,
    MappingError,
    PatternVar,
    Schema,
    SkolemNull,
    value_key,
)


@dataclass(frozen=True, slots=True)
class App:
    """A function symbol applied to terms."""

    symbol: str
    args: tuple


TTerm = Union[Var, Const, App]


def format_tterm(t: TTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return repr(t.text)
    inner = ", ".join(format_tterm(a) for a in t.args)
    return f"{t.symbol}({inner})"


@dataclass(frozen=True)
class Branch:
    """One defining clause of a target relation: a term tuple guarded by
    a source condition with parameters `params` (sorted free variables).
    """

    rel: str
    terms: tuple
    condition: Formula
    params: tuple


@dataclass(frozen=True)
class TermInterpretation:
    source: Schema
    target: Schema
    branches: tuple

    def branches_for(self, rel: str) -> tuple:
        return tuple(b for b in self.branches if b.rel == rel)

    def render(self) -> str:
        """Human-readable definition of each target relation."""
        lines = []
        for rel, _arity in self.target.rels:
            parts = [
                "{(%s) | %s}"
                % (
                    ", ".join(format_tterm(t) for t in b.terms),
                    format_formula(b.condition),
                )
                for b in self.branches_for(rel)
            ]
            rhs = " u ".join(parts) if parts else "{}"
            lines.append(f"{rel} := {rhs}")
        return "\n".join(lines) + "\n"


def _require_chaseable(m: SchemaMapping, inst: Instance):
    if inst.schema != m.source:
        raise MappingError("instance schema differs from the mapping's source schema")
    if not inst.is_source:
        raise MappingError("chase input must be null-free")
    for tgd in m.tgds:
        for node in _certain_nodes(tgd.antecedent):
            if not mapping_certain_free(node.base):
                raise MappingError(
                    "certain[...] antecedents must reference a mapping "
                    "without further certain[...] nodes"
                )


def _certain_nodes(f: Formula):
    from dx.lang import And, Certain, Exists, Forall, Not, Or

    if isinstance(f, Certain):
        yield f
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _certain_nodes(p)
    elif isinstance(f, (Not, Exists, Forall)):
        yield from _certain_nodes(f.body)


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


def _branches(m: SchemaMapping) -> tuple:
    """One branch per consequent atom, each existential variable
    replaced by a function term over the dependency's universal
    variables."""
    branches = []
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        term_env: dict = {
            y: App(_skolem_symbol(d, i), tuple(Var(x) for x in params))
            for i, y in enumerate(tgd.exist_vars)
        }
        for atom in tgd.consequent:
            terms = tuple(
                term_env.get(a.name, a) if isinstance(a, Var) else a
                for a in atom.args
            )
            branches.append(Branch(atom.rel, terms, tgd.antecedent, params))
    return tuple(branches)


def naive_chase(m: SchemaMapping, inst: Instance) -> Instance:
    """Canonical universal solution of `inst` under `m`: the term
    interpretation of m's Skolemized dependencies, evaluated on inst."""
    _require_chaseable(m, inst)
    return eval_interpretation(TermInterpretation(m.source, m.target, _branches(m)), inst)


def restricted_chase(m: SchemaMapping, inst: Instance) -> Instance:
    """Like the naive chase, but a dependency only fires on a tuple if
    its consequent is not yet satisfiable in the instance built so far.
    """
    _require_chaseable(m, inst)
    facts: set = set()
    built = Encoding()  # `facts`, indexed for the consequent checks
    answers = eval_formulas([(tgd.antecedent, tgd.universal_vars) for tgd in m.tgds], inst)
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        rows = sorted(answers[d], key=lambda row: tuple(value_key(v) for v in row))
        ev = set(tgd.exist_vars)
        for row in rows:
            env = dict(zip(params, row))
            pattern = [
                (
                    atom.rel,
                    tuple(
                        PatternVar(a.name)
                        if isinstance(a, Var) and a.name in ev
                        else (env[a.name] if isinstance(a, Var) else a)
                        for a in atom.args
                    ),
                )
                for atom in tgd.consequent
            ]
            if built.search(pattern) is not None:
                continue
            for i, y in enumerate(tgd.exist_vars):
                env[y] = SkolemNull(_skolem_symbol(d, i), row)
            for atom in tgd.consequent:
                fact = Fact(
                    atom.rel,
                    tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args),
                )
                if fact not in facts:
                    facts.add(fact)
                    built.add(fact)
    return Instance(m.target, facts)


def to_term_interpretation(m: SchemaMapping) -> TermInterpretation:
    """Skolemize and split a certain[...]-free mapping (see `_branches`)."""
    if not mapping_certain_free(m):
        raise MappingError(
            "term interpretations require certain[...]-free antecedents; "
            "eliminate them first"
        )
    return TermInterpretation(m.source, m.target, _branches(m))


def eval_interpretation(pi: TermInterpretation, inst: Instance) -> Instance:
    """The target instance generated by a term interpretation."""
    if inst.schema != pi.source:
        raise MappingError("instance schema differs from the interpretation's source")
    if not inst.is_source:
        raise MappingError("term interpretations evaluate over null-free instances")
    # a dependency's branches share its condition
    queries = {(id(b.condition), b.params): (b.condition, b.params) for b in pi.branches}
    answers = dict(zip(queries, eval_formulas(list(queries.values()), inst)))
    facts = set()
    for b in pi.branches:
        terms = [_term_value(t, b.params) for t in b.terms]
        rows = answers[id(b.condition), b.params]
        facts.update([Fact(b.rel, tuple([f(row) for f in terms])) for row in rows])
    return Instance(pi.target, facts)
