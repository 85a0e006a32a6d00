"""Chase procedures and term interpretations.

The naive chase fires every dependency on every satisfying tuple and
invents labeled nulls for the existential variables.  Nulls are named
as Skolem terms f<d>_<i>(a...) over the firing tuple, which makes the
chase output literally equal (not merely isomorphic) to evaluating the
term interpretation extracted from the same mapping.

The restricted chase skips a firing whenever the consequent is already
satisfied by the instance built so far; it is order-sensitive, so the
order is pinned: dependencies in declaration order, tuples sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from dx.evaluator import eval_formula
from dx.lang import (
    Formula,
    SchemaMapping,
    Var,
    format_formula,
    has_certain,
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


def is_proper(t: TTerm) -> bool:
    return isinstance(t, App)


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


def _require_chaseable(m: SchemaMapping):
    for tgd in m.tgds:
        if has_certain(tgd.antecedent):
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


def _instantiate_term(t: TTerm, env: dict):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return t
    return SkolemNull(t.symbol, tuple(_instantiate_term(a, env) for a in t.args))


def naive_chase(m: SchemaMapping, inst: Instance) -> Instance:
    """Canonical universal solution of `inst` under `m`."""
    return _naive_chase_cached(m, inst)


@lru_cache(maxsize=4096)
def _naive_chase_cached(m: SchemaMapping, inst: Instance) -> Instance:
    if inst.schema != m.source:
        raise MappingError("instance schema differs from the mapping's source schema")
    if not inst.is_source:
        raise MappingError("chase input must be null-free")
    _require_chaseable(m)
    facts = set()
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        for row in eval_formula(tgd.antecedent, inst, params):
            env = dict(zip(params, row))
            for i, y in enumerate(tgd.exist_vars):
                env[y] = SkolemNull(_skolem_symbol(d, i), row)
            for atom in tgd.consequent:
                facts.add(
                    Fact(
                        atom.rel,
                        tuple(
                            env[a.name] if isinstance(a, Var) else a
                            for a in atom.args
                        ),
                    )
                )
    return Instance(m.target, facts)


def restricted_chase(m: SchemaMapping, inst: Instance) -> Instance:
    """Like the naive chase, but a dependency only fires on a tuple if
    its consequent is not yet satisfiable in the instance built so far.
    """
    if inst.schema != m.source:
        raise MappingError("instance schema differs from the mapping's source schema")
    if not inst.is_source:
        raise MappingError("chase input must be null-free")
    _require_chaseable(m)
    facts: set = set()
    built = Encoding()  # `facts`, indexed for the consequent checks
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        rows = sorted(
            eval_formula(tgd.antecedent, inst, params),
            key=lambda row: tuple(value_key(v) for v in row),
        )
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
    """Skolemize and split the mapping: one branch per consequent atom,
    existential variables replaced by function terms over the
    dependency's universal variables.
    """
    if not mapping_certain_free(m):
        raise MappingError(
            "term interpretations require certain[...]-free antecedents; "
            "eliminate them first"
        )
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
    return TermInterpretation(m.source, m.target, tuple(branches))


def eval_interpretation(pi: TermInterpretation, inst: Instance) -> Instance:
    """The target instance generated by a term interpretation."""
    if inst.schema != pi.source:
        raise MappingError("instance schema differs from the interpretation's source")
    if not inst.is_source:
        raise MappingError("term interpretations evaluate over null-free instances")
    facts = set()
    answers: dict = {}  # a dependency's branches share its condition
    for b in pi.branches:
        key = (id(b.condition), b.params)
        if key not in answers:
            answers[key] = eval_formula(b.condition, inst, b.params)
        for row in answers[key]:
            env = dict(zip(b.params, row))
            facts.add(Fact(b.rel, tuple(_instantiate_term(t, env) for t in b.terms)))
    return Instance(pi.target, facts)
