"""Property harness: random generators, laconicity and equivalence
checks, disjunctive target dependencies, and counterexample shrinking.

Every check is reproducible from (seed, bounds).  Sampling can refute a
claim but never prove it; reports say so in their header.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from dx.chase import eval_interpretation, to_term_interpretation
from dx.evaluator import holds
from dx.lang import (
    Eq,
    RelAtom,
    SchemaMapping,
    Var,
    conj,
    disj,
    exists_all,
    free_vars,
    neg,
)
from dx.model import (
    Const,
    Fact,
    Instance,
    MappingError,
    PatternVar,
    Schema,
    compute_core,
    format_facts,
    instances_isomorphic,
    is_core,
    match_pattern,
)

_CONST_POOL = "abcdefghijkl"


def _check_bounds(max_consts: int, max_facts: int) -> None:
    if not 1 <= max_consts <= len(_CONST_POOL):
        raise MappingError(f"max_consts must be 1 to {len(_CONST_POOL)}, not {max_consts}")
    if max_facts < 0:
        raise MappingError(f"max_facts must not be negative, not {max_facts}")


@dataclass(frozen=True)
class Bounds:
    """Sampled instances use at most `max_consts` (1 to 12) constants
    and `max_facts` facts."""

    max_consts: int = 6
    max_facts: int = 12

    def __post_init__(self):
        _check_bounds(self.max_consts, self.max_facts)


@dataclass(frozen=True)
class SampleRecord:
    index: int
    seed: str
    ok: bool
    diagnosis: str | None = None


@dataclass(frozen=True)
class Failure:
    seed: str
    instance: Instance
    diagnosis: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    samples: int
    seed: int
    bounds: Bounds
    records: tuple
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def render(self) -> str:
        lines = [
            f"check {self.name}: {self.verdict}",
            f"  samples={self.samples} seed={self.seed} "
            f"max_consts={self.bounds.max_consts} max_facts={self.bounds.max_facts}",
            "  note: sampling refutes but cannot prove; a pass is evidence, not proof",
        ]
        for f in self.failures[:5]:
            lines.append(f"  failure at seed {f.seed}: {f.diagnosis}")
            for row in format_facts(f.instance).splitlines():
                lines.append(f"    {row}")
        if len(self.failures) > 5:
            lines.append(f"  ... {len(self.failures) - 5} more failures")
        return "\n".join(lines)

    def records_jsonl(self) -> str:
        out = []
        for r in self.records:
            out.append(
                json.dumps(
                    {
                        "index": r.index,
                        "seed": r.seed,
                        "verdict": "pass" if r.ok else "fail",
                        "diagnosis": r.diagnosis,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(out) + ("\n" if out else "")


def random_source_instance(
    schema: Schema, seed, max_consts: int = 6, max_facts: int = 12
) -> Instance:
    """Deterministic pseudo-random null-free instance within bounds (see
    `Bounds`)."""
    _check_bounds(max_consts, max_facts)
    rng = random.Random(str(seed))
    consts = [Const(ch) for ch in _CONST_POOL[:max_consts]]
    n = rng.randint(0, max_facts)
    facts = []
    rels = schema.rels
    for _ in range(n):
        if not rels:
            break
        rel, arity = rng.choice(rels)
        facts.append(Fact(rel, tuple(rng.choice(consts) for _ in range(arity))))
    return Instance(schema, facts)


# ---------------------------------------------------------------------------
# Shrinking.

def shrink_instance(inst: Instance, failing) -> Instance:
    """Greedy removal of facts while `failing` keeps returning True."""
    current = inst
    changed = True
    while changed:
        changed = False
        for f in current.facts_sorted:
            candidate = current.without([f])
            if failing(candidate):
                current = candidate
                changed = True
                break
    return current


def _run_check(name, m_schema, predicate, samples, seed, bounds) -> CheckReport:
    records = []
    failures = []
    for i in range(samples):
        sample_seed = f"{seed}:{i}"
        inst = random_source_instance(
            m_schema, sample_seed, bounds.max_consts, bounds.max_facts
        )
        diagnosis = predicate(inst)
        ok = diagnosis is None
        records.append(SampleRecord(i, sample_seed, ok, diagnosis))
        if not ok:
            shrunk = shrink_instance(inst, lambda j: predicate(j) is not None)
            failures.append(Failure(sample_seed, shrunk, diagnosis))
    return CheckReport(name, samples, seed, bounds, tuple(records), tuple(failures))


def check_laconic(
    m: SchemaMapping, samples: int = 200, seed: int = 0, bounds: Bounds = Bounds()
) -> CheckReport:
    """Sampled check that every canonical solution of m is a core."""
    pi = to_term_interpretation(m)

    def predicate(inst):
        if not is_core(eval_interpretation(pi, inst)):
            return "canonical solution is not a core"
        return None

    return _run_check("laconic", m.source, predicate, samples, seed, bounds)


def check_cq_equivalent(
    m: SchemaMapping,
    m2: SchemaMapping,
    samples: int = 200,
    seed: int = 0,
    bounds: Bounds = Bounds(),
) -> CheckReport:
    """Sampled check that both mappings induce isomorphic core solutions."""
    if m.source != m2.source or m.target != m2.target:
        raise ValueError("mappings must share source and target schemas")
    pi, pi2 = to_term_interpretation(m), to_term_interpretation(m2)

    def predicate(inst):
        c1, _ = compute_core(eval_interpretation(pi, inst))
        c2, _ = compute_core(eval_interpretation(pi2, inst))
        if not instances_isomorphic(c1, c2):
            return "core solutions are not isomorphic"
        return None

    return _run_check("cq-equivalent", m.source, predicate, samples, seed, bounds)


# ---------------------------------------------------------------------------
# Disjunctive target dependencies.

@dataclass(frozen=True)
class DepDisjunct:
    exist_vars: tuple
    atoms: tuple
    equalities: tuple  # Eq formulas


@dataclass(frozen=True)
class DisjunctiveDependency:
    """forall x (/\\ atoms & eqs -> \\/_i exists y_i. /\\ atoms_i & eqs_i)."""

    ante_atoms: tuple
    ante_equalities: tuple
    disjuncts: tuple

    def variables(self) -> tuple:
        out = free_vars(conj(self.ante_atoms + self.ante_equalities))
        return tuple(sorted(out))


def eval_disjunctive(dep: DisjunctiveDependency, inst: Instance) -> bool:
    """Active-domain truth of the dependency in an instance (nulls are
    ordinary values): no antecedent match satisfies none of the
    disjuncts."""
    heads = disj(exists_all(d.exist_vars, conj(d.atoms + d.equalities)) for d in dep.disjuncts)
    ante = conj(dep.ante_atoms + dep.ante_equalities)
    return not holds(exists_all(dep.variables(), conj([ante, neg(heads)])), inst)


def separating_dependency(j_prime: Instance) -> DisjunctiveDependency:
    """Dependency true on every proper retract of j_prime but false on
    j_prime itself: the conjunction of all its facts (one variable per
    value) implies that some two variables are equal."""
    values = j_prime.dom
    names = {v: f"x{i + 1}" for i, v in enumerate(values)}
    atoms = tuple(
        RelAtom(f.rel, tuple(Var(names[a]) for a in f.args))
        for f in j_prime.facts_sorted
    )
    eq_disjuncts = tuple(
        DepDisjunct((), (), (Eq(Var(names[values[i]]), Var(names[values[j]])),))
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )
    return DisjunctiveDependency(atoms, (), eq_disjuncts)


def separating_dependency_holds(dep: DisjunctiveDependency, inst: Instance) -> bool:
    """Evaluate an all-variables-distinct separating dependency via a
    single injective match (equivalent to eval_disjunctive, but does
    not enumerate the antecedent's answer set)."""
    xs = dep.variables()
    if len(inst.dom) < len(xs):
        return True  # pigeonhole: no injective assignment exists
    pvars = {x: PatternVar(x) for x in xs}
    pattern = [
        (a.rel, tuple(pvars[v.name] for v in a.args)) for a in dep.ante_atoms
    ]
    asn = match_pattern(pattern, inst.facts_sorted, injective=True)
    return asn is None


def random_disjunctive(target: Schema, seed) -> DisjunctiveDependency:
    """Random small dependency: <=3 antecedent atoms, <=2 disjuncts."""
    rng = random.Random(f"dep:{seed}")
    xs = ["x1", "x2", "x3"]
    atoms = []
    for _ in range(rng.randint(1, 3)):
        rel, arity = rng.choice(target.rels)
        atoms.append(RelAtom(rel, tuple(Var(rng.choice(xs)) for _ in range(arity))))
    used = sorted({v.name for a in atoms for v in a.args})
    ante_eqs = ()
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        evs = ["z1", "z2"][: rng.randint(0, 2)]
        datoms = []
        for _ in range(rng.randint(0, 2)):
            rel, arity = rng.choice(target.rels)
            datoms.append(
                RelAtom(
                    rel, tuple(Var(rng.choice(used + evs)) for _ in range(arity))
                )
            )
        deqs = []
        if rng.random() < 0.5 and len(used) >= 2:
            u, v = rng.sample(used, 2)
            deqs.append(Eq(Var(u), Var(v)))
        if not datoms and not deqs:
            deqs.append(Eq(Var(used[0]), Var(used[0])))
        evs = tuple(
            z for z in evs if any(Var(z) in a.args for a in datoms)
        )
        disjuncts.append(DepDisjunct(evs, tuple(datoms), tuple(deqs)))
    return DisjunctiveDependency(tuple(atoms), ante_eqs, tuple(disjuncts))


def check_disjunctive_preservation(
    m: SchemaMapping,
    samples: int = 100,
    seed: int = 0,
    bounds: Bounds = Bounds(),
    deps_per_sample: int = 3,
) -> CheckReport:
    """On samples whose canonical solution is not a core: random
    dependencies true on the canonical solution must be true on the
    core (part 1), and the constructed separating dependency must hold
    on the core but fail on the canonical solution (part 2)."""
    pi = to_term_interpretation(m)
    records = []
    failures = []
    found = 0
    attempt = 0
    while found < samples and attempt < samples * 50:
        sample_seed = f"{seed}:{attempt}"
        attempt += 1
        inst = random_source_instance(
            m.source, sample_seed, bounds.max_consts, bounds.max_facts
        )
        j_prime = eval_interpretation(pi, inst)
        core, _ = compute_core(j_prime)
        if core.facts == j_prime.facts:
            continue
        found += 1
        diagnosis = None
        for k in range(deps_per_sample):
            dep = random_disjunctive(m.target, f"{sample_seed}:{k}")
            if eval_disjunctive(dep, j_prime) and not eval_disjunctive(dep, core):
                diagnosis = "dependency true on canonical but false on core"
                break
        if diagnosis is None:
            sep = separating_dependency(j_prime)
            if not separating_dependency_holds(sep, core):
                diagnosis = "separating dependency fails on the core"
            elif separating_dependency_holds(sep, j_prime):
                diagnosis = "separating dependency holds on the canonical solution"
        ok = diagnosis is None
        records.append(SampleRecord(found - 1, sample_seed, ok, diagnosis))
        if not ok:
            failures.append(Failure(sample_seed, inst, diagnosis))
    return CheckReport(
        "disjunctive-preservation",
        found,
        seed,
        bounds,
        tuple(records),
        tuple(failures),
    )
