"""Shared fixtures: the example mapping pairs, small builders, seeded
random mappings and queries, and independent brute-force oracles used to
cross-check the engine.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Sequence

from dx.certain import Disjunct, UnfoldedRewriting, cq_parts, unfold
from dx.chase import _answers, _skolem_symbol, to_term_interpretation
from dx.evaluator import eval_formula, row_getter
from dx.laconify import (
    BlockType,
    SideCondition,
    _order_type,
    _proper_instantiation,
    generate_block_types,
    side_condition,
)
from dx.lang import (
    FALSE,
    TRUE,
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
    SchemaMapping,
    TGD,
    TrueF,
    Var,
    conj,
    decompose,
    disj,
    exists_all,
    format_term,
    free_vars,
    is_false,
    is_true,
    mapping_certain_free,
    rename_bound,
    substitute,
)
from dx.model import (
    _FACT_TOKEN,
    _FRESH,
    Const,
    Fact,
    FreshNull,
    Instance,
    Lexer,
    MappingError,
    PatternVar,
    Schema,
    SkolemNull,
    match_pattern,
)
from dx.parser import parse_mapping
from dx.plan import Normaliser, Planner
from dx.sqlgen import _SqlBuilder, _ident

# Non-laconic mappings paired with hand-written equivalent laconic ones.
PAIR_SOURCES = {
    "double_witness": (
        """source P/1. target R/2.
           tgd: P(x) -> exists y, z: R(x,y) & R(x,z).""",
        """source P/1. target R/2.
           tgd: P(x) -> exists y: R(x,y).""",
    ),
    "loop_absorbs_null": (
        """source P/1. target R/2.
           tgd: P(x) -> exists y: R(x,y).
           tgd: P(x) -> R(x,x).""",
        """source P/1. target R/2.
           tgd: P(x) -> R(x,x).""",
    ),
    "view_overlap": (
        """source R/2, P/1. target S/2.
           tgd: R(x,y) -> S(x,y).
           tgd: P(x) -> exists y: S(x,y).""",
        """source R/2, P/1. target S/2.
           tgd: R(x,y) -> S(x,y).
           tgd: P(x) & !(exists y: R(x,y)) -> exists y: S(x,y).""",
    ),
    "diagonal_overlap": (
        """source R/2. target S/3.
           tgd: R(x,y) -> exists z: S(x,y,z).
           tgd: R(x,x) -> S(x,x,x).""",
        """source R/2. target S/3.
           tgd: R(x,y) & !(x = y) -> exists z: S(x,y,z).
           tgd: R(x,x) -> S(x,x,x).""",
    ),
    # The orientation-breaking antecedent needs a guard on the reflexive
    # case: firing at (b,b) next to a fired (a,b) would add a foldable
    # one-fact block, so x = y only counts when x has no other partner.
    "symmetric_join": (
        """source R/2. target S/2.
           tgd: R(x,y) -> exists z: S(x,z) & S(y,z).""",
        """source R/2. target S/2.
           tgd: (R(x,y) | R(y,x)) & (x < y | x = y & !(exists w: !(w = x) & (R(x,w) | R(w,x))))
                -> exists z: S(x,z) & S(y,z).""",
    ),
}

# Two overlapping rules; its three block types have preconditions
# equivalent to P(x), Q(x) & !P(x), and Q(x) & P(x).
OVERLAP_SOURCE = """
source P/1, Q/1.
target R1/2, R2/2.
tgd: P(x) -> exists y: R1(x,y).
tgd: Q(x) -> exists y, z, u: R2(x,y) & R2(z,y) & R1(z,u).
"""

# One shared null between two target relations plus a ground rule.
SPLIT_PAIR_SOURCE = """
source R/2.
target S/2, T/2.
tgd: R(x1,x2) -> exists y: S(x1,y) & T(x2,y).
tgd: R(x,x) -> S(x,x).
"""


# Source declarations whose relation name the emitted SQL would take for
# one of its own.  The CTE `k2` hides the table `k2`, so the SQL route
# drops T(a); SQLite rejects `k1`, `adom`, `target_T` and `p` beside `P`.
# A statement that reads the domain fails under `dom`, and one that
# reads a shared union twice gives wrong rows under `u1`.
# `sql_name_clash` declares each at line 2, column 3.
SQL_NAME_CLASHES = ("k2", "k1", "u1", "dom", "DOM", "adom", "target_T", "p")


def sql_name_clash(name: str) -> str:
    return (
        f"source P/1,\n  {name}/1.\ntarget T/1.\n"
        f"tgd: {name}(x) -> T(x).\ntgd: P(x) -> T(x).\n"
    )

def pair(name):
    left, right = PAIR_SOURCES[name]
    return parse_mapping(left), parse_mapping(right)


def overlap_mapping():
    return parse_mapping(OVERLAP_SOURCE)


def split_pair_mapping():
    return parse_mapping(SPLIT_PAIR_SOURCE)


def star_blowup_mapping(k: int):
    """k unary copy rules plus one star-shaped rule; generates one block
    type per subset of {1..k} plus k ground types."""
    src = "source Q/1, " + ", ".join(f"P{i}/1" for i in range(1, k + 1)) + "."
    tgt = "target R/2, " + ", ".join(f"Pp{i}/1" for i in range(1, k + 1)) + "."
    tgds = [f"tgd: P{i}(x) -> Pp{i}(x)." for i in range(1, k + 1)]
    body = " & ".join(
        ["R(x,y0)"] + [f"R(y{i},y0) & Pp{i}(y{i})" for i in range(1, k + 1)]
    )
    ys = ", ".join(f"y{i}" for i in range(k + 1))
    tgds.append(f"tgd: Q(x) -> exists {ys}: {body}.")
    return parse_mapping("\n".join([src, tgt] + tgds))


def fan_mapping(k: int):
    """k constants sharing one null witness: every permutation of them
    realizes the same block."""
    xs = ",".join(f"x{i}" for i in range(k))
    atoms = " & ".join(f"S(x{i},y)" for i in range(k))
    return parse_mapping(f"source R/{k}. target S/2. tgd: R({xs}) -> exists y: {atoms}.")


def cycle_mapping(k: int, tail: bool = False):
    """A k-cycle of nulls, plus an edge from the constant with a tail."""
    ys = ", ".join(f"y{i}" for i in range(k))
    atoms = [f"S(y{i},y{(i + 1) % k})" for i in range(k)] + ["S(x,y0)"] * tail
    return parse_mapping(
        f"source P/1. target S/2. tgd: P(x) -> exists {ys}: {' & '.join(atoms)}."
    )


# Mappings, by name, on which the compile steps are checked against their
# reference versions: the eliminated families of the benchmark's
# `rewrite` workload plus star-3, fan-4 and the pure 5-cycle.  The
# tail-3-cycle's elimination raises RecursionError.
COMPILE_FAMILIES = {
    "star_2": lambda: star_blowup_mapping(2),
    "star_3": lambda: star_blowup_mapping(3),
    "fan_3": lambda: fan_mapping(3),
    "fan_4": lambda: fan_mapping(4),
    "pure_4_cycle": lambda: cycle_mapping(4),
    "pure_5_cycle": lambda: cycle_mapping(5),
    "symmetric_join": lambda: pair("symmetric_join")[0],
    "overlap": overlap_mapping,
    "split_pair": split_pair_mapping,
    "tail_3_cycle": lambda: cycle_mapping(3, tail=True),
}


def inst(schema: Schema, *facts) -> Instance:
    """Facts as (rel, arg, arg, ...) with strings for constants."""
    out = []
    for rel, *args in facts:
        out.append(
            Fact(rel, tuple(Const(a) if isinstance(a, str) else a for a in args))
        )
    return Instance(schema, out)


# ---------------------------------------------------------------------------
# Seeded generators of small random mappings and target queries.  Their
# random streams are fixed: every seeded test sees the same mappings.

_RANDOM_SOURCE = Schema({"P": 1, "R": 2})
_RANDOM_TARGET = Schema({"S": 2, "T": 1})


def random_mapping(seed, *, lav: bool = False) -> SchemaMapping:
    """Small random mapping over fixed schemas P/1, R/2 -> S/2, T/1."""
    rng = random.Random(f"map:{seed}")
    tgds = []
    for _ in range(rng.randint(1, 3)):
        uvars = ["x1", "x2", "x3"][: rng.randint(1, 3)]
        if lav:
            rel, arity = rng.choice(_RANDOM_SOURCE.rels)
            atoms = [RelAtom(rel, tuple(Var(rng.choice(uvars)) for _ in range(arity)))]
        else:
            atoms = []
            for _ in range(rng.randint(1, 2)):
                rel, arity = rng.choice(_RANDOM_SOURCE.rels)
                atoms.append(
                    RelAtom(rel, tuple(Var(rng.choice(uvars)) for _ in range(arity)))
                )
        used = sorted({v.name for a in atoms for v in a.args})
        ante_parts: list = list(atoms)
        if len(used) >= 2 and rng.random() < 0.3:
            u, v = rng.sample(used, 2)
            ante_parts.append(Lt(Var(u), Var(v)))
        antecedent = conj(ante_parts)
        evars = ["y1", "y2"][: rng.randint(0, 2)]
        cons = []
        pool = used + evars
        for _ in range(rng.randint(1, 2)):
            rel, arity = rng.choice(_RANDOM_TARGET.rels)
            cons.append(RelAtom(rel, tuple(Var(rng.choice(pool)) for _ in range(arity))))
        used_e = tuple(
            y for y in evars if any(Var(y) in a.args for a in cons)
        )
        tgds.append(TGD(antecedent, used_e, tuple(cons)))
    return SchemaMapping(_RANDOM_SOURCE, _RANDOM_TARGET, tuple(tgds))


def random_cq(target: Schema, seed, max_atoms: int = 2) -> Formula:
    """Random conjunctive query over the target schema."""
    rng = random.Random(f"cq:{seed}")
    n = rng.randint(1, max_atoms)
    freevars = ["u1", "u2"]
    evars = ["w1", "w2"]
    atoms = []
    for _ in range(n):
        rel, arity = rng.choice(target.rels)
        atoms.append(
            RelAtom(
                rel,
                tuple(Var(rng.choice(freevars + evars)) for _ in range(arity)),
            )
        )
    used = {v.name for a in atoms for v in a.args}
    return exists_all([w for w in evars if w in used], conj(atoms))


# ---------------------------------------------------------------------------
# A formula's answers as one SQL statement, printed from its plan by the
# builder that prints the target views.

def formula_to_sql(f: Formula, schema: Schema, free=None) -> str:
    """SELECT statement whose rows are the formula's answers.

    The statement prints the formula's plan (`dx.plan`); a free variable
    that nothing binds ranges over the active domain (the adom view, read
    through the `dom` CTE).  The result agrees with the in-memory
    evaluator row for row.
    """
    if free is None:
        free = tuple(sorted(free_vars(f)))
    missing = free_vars(f) - set(free)
    if missing:
        raise MappingError(f"unbound free variables: {sorted(missing)}")
    free = tuple(free)
    builder = _SqlBuilder(schema)
    plan = Planner().plan(f, want=free)
    builder.count(plan)
    body = builder.query(plan, free, [_ident(v) for v in free])
    return builder.with_clause() + body


def total_relation_instance(schema: Schema, rel: str, consts) -> Instance:
    values = [Const(c) for c in consts]
    return Instance(
        schema, [Fact(rel, (u, v)) for u in values for v in values]
    )


def all_instances(schema: Schema, consts):
    """Every instance over the given constants (exhaustive)."""
    values = [Const(c) for c in consts]
    slots = []
    for rel, arity in schema.rels:
        for args in itertools.product(values, repeat=arity):
            slots.append(Fact(rel, args))
    for bits in range(2 ** len(slots)):
        yield Instance(schema, [f for i, f in enumerate(slots) if bits >> i & 1])


# ---------------------------------------------------------------------------
# Side-condition oracles.

def type_copies(t, a_vals, b_vals) -> bool:
    """Blocks t(a_vals) and t(b_vals) are copies (same facts up to a
    renaming of nulls)."""
    from dx.model import instances_isomorphic

    def build(vals, offset):
        env = dict(zip(t.const_vars, vals))
        env.update({y: FreshNull(offset + k + 1) for k, y in enumerate(t.null_vars)})
        rels = {a.rel: len(a.args) for a in t.atoms}
        facts = [
            Fact(
                a.rel,
                tuple(env[v.name] if isinstance(v, Var) else v for v in a.args),
            )
            for a in t.atoms
        ]
        return Instance(Schema(rels), facts)

    return instances_isomorphic(build(a_vals, 0), build(b_vals, 10))


def check_rigid_and_safe(t) -> list:
    """Brute-force check of a type's side condition over |const_vars|
    ordered constants; returns a list of violation descriptions."""
    from dx.evaluator import holds

    phi = side_condition(t)
    m = len(t.const_vars)
    consts = [Const(f"c{i}") for i in range(m)]
    empty = Instance(Schema({}), [])

    def sat(vals):
        return holds(phi, empty, dict(zip(t.const_vars, vals)))

    assignments = list(itertools.product(consts, repeat=m))
    violations = []
    for a_vals in assignments:
        for b_vals in assignments:
            if a_vals != b_vals and sat(a_vals) and sat(b_vals):
                if type_copies(t, a_vals, b_vals):
                    violations.append(f"not rigid: {a_vals} vs {b_vals}")
    for a_vals in assignments:
        if not any(
            sat(b_vals) and type_copies(t, a_vals, b_vals) for b_vals in assignments
        ):
            violations.append(f"not safe: {a_vals}")
    return violations


# ---------------------------------------------------------------------------
# Brute-force oracles (independent of the kernel-based search paths).

def brute_homomorphism(i: Instance, j: Instance):
    """Exhaustive search over all null assignments."""
    nulls = i.nulls
    for combo in itertools.product(j.dom, repeat=len(nulls)):
        mapping = dict(zip(nulls, combo))

        def h(v):
            return mapping.get(v, v)

        if all(
            Fact(f.rel, tuple(h(a) for a in f.args)) in j.facts for f in i.facts
        ):
            return mapping
    return None


def brute_is_core(j: Instance) -> bool:
    """No endomorphism whose fact image misses a fact."""
    nulls = j.nulls
    for combo in itertools.product(j.dom, repeat=len(nulls)):
        mapping = dict(zip(nulls, combo))

        def h(v):
            return mapping.get(v, v)

        image = {Fact(f.rel, tuple(h(a) for a in f.args)) for f in j.facts}
        if image <= j.facts and image != j.facts:
            return False
    return True


def brute_isomorphic(i: Instance, j: Instance) -> bool:
    if len(i.facts) != len(j.facts) or len(i.nulls) != len(j.nulls):
        return False
    if set(i.constants) != set(j.constants):
        return False
    for perm in itertools.permutations(j.nulls):
        mapping = dict(zip(i.nulls, perm))

        def h(v):
            return mapping.get(v, v)

        image = {Fact(f.rel, tuple(h(a) for a in f.args)) for f in i.facts}
        if image == j.facts:
            return True
    return False


def ref_instances_isomorphic(i: Instance, j: Instance) -> bool:
    """The block matcher that `instances_isomorphic` replaced with block
    forms: equal counts and ground facts, then a pairing of the null
    blocks with equal constant signatures, each pair checked by an
    injective search of `ref_homs` that sends nulls to nulls only.

    The pairing is greedy where the matcher backtracked: block
    isomorphism is an equivalence, so a block may take any free block
    of its class, and backtracking over the choice only multiplied the
    work on a negative answer (factorially in a class's size)."""
    from dx import kernel
    from dx.model import is_null

    if len(i.facts) != len(j.facts) or len(i.dom) != len(j.dom):
        return False
    if i.constants != j.constants or len(i.nulls) != len(j.nulls):
        return False
    iground = {f for f in i.facts if not any(is_null(a) for a in f.args)}
    jground = {f for f in j.facts if not any(is_null(a) for a in f.args)}
    if iground != jground:
        return False
    iblocks = [b for b in ref_blocks(i) if b.facts_sorted[0] not in iground]
    jblocks = [b for b in ref_blocks(j) if b.facts_sorted[0] not in jground]
    if len(iblocks) != len(jblocks):
        return False

    def signature(block):
        return tuple(sorted(
            (f.rel, tuple(("n",) if is_null(a) else ("c", a.text) for a in f.args))
            for f in block.facts
        ))

    def blocks_match(bi, bj) -> bool:
        codes: dict = {}
        index: dict = {}
        for f in bj.facts_sorted:
            index.setdefault(f.rel, []).append(tuple(codes.setdefault(a, len(codes)) for a in f.args))
        var: dict = {}
        pattern = []
        for f in bi.facts_sorted:
            if not all(is_null(a) or a in codes for a in f.args):
                return False
            pattern.append((f.rel, tuple(
                -1 - var.setdefault(a, len(var)) if is_null(a) else codes[a] for a in f.args
            )))
        nulls = frozenset(c for v, c in codes.items() if is_null(v))
        return next(ref_homs(kernel.order_pattern(pattern), index, len(var), True, nulls), None) is not None

    jsigs: dict = {}
    for idx, b in enumerate(jblocks):
        jsigs.setdefault(signature(b), []).append(idx)
    taken = [False] * len(jblocks)
    for bi in iblocks:
        idx = next((idx for idx in jsigs.get(signature(bi), ())
                    if not taken[idx] and blocks_match(bi, jblocks[idx])), None)
        if idx is None:
            return False
        taken[idx] = True
    return True


# ---------------------------------------------------------------------------
# Reference canonical order: the sort keys the engine used before values
# became tagged tuples whose native order is this one.

def ref_value_key(v):
    """Total order over all values: constants first, then nulls."""
    if isinstance(v, Const):
        return ("a", v.text)
    if isinstance(v, FreshNull):
        return ("b", v.id)
    return ("c", v.symbol, tuple(ref_value_key(a) for a in v.args))


def ref_fact_key(f: Fact):
    return (f.rel, tuple(ref_value_key(a) for a in f.args))


# ---------------------------------------------------------------------------
# Reference bulk write path: one sort of whole facts, one formatted string
# per line, and rules fired a row at a time, which the per-relation sort,
# the per-relation line templates and column-wise firing replaced.

def ref_facts_sorted(inst: Instance) -> tuple:
    return tuple(sorted(inst.facts))


def ref_value_text(v) -> str:
    """A value's fact-file text, written out apart from `dx.model`."""
    if isinstance(v, Const):
        if re.fullmatch(r"[A-Za-z0-9_]+", v.text):
            return v.text
        return "'" + v.text.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(v, FreshNull):
        return f"?N{v.id}"
    return f"?{v.symbol}({', '.join(map(ref_value_text, v.args))})"


def ref_format_facts(inst: Instance) -> str:
    # the order comes from ref_facts_sorted
    lines = [f"{rel}({', '.join(map(ref_value_text, args))}).\n" for rel, args in ref_facts_sorted(inst)]
    return "".join(lines)


def ref_eval_interpretation(pi, inst: Instance) -> Instance:
    """The target instance generated by a term interpretation, each rule
    fired on one answer row at a time."""
    facts = set()
    for rule, rows in zip(pi.rules, _answers(pi, inst)):
        heads = [(rel, row_getter(ps)) for rel, ps in rule.heads]
        for row in rows:
            extended = row + rule.fixed + tuple(SkolemNull(s, row) for s in rule.skolems)
            facts.update([Fact(rel, get(extended)) for rel, get in heads])
    return Instance(pi.target, facts)


@dataclass(frozen=True, slots=True)
class App:
    """A function symbol applied to terms."""

    symbol: str
    args: tuple


def ref_rule_heads(m: SchemaMapping) -> list:
    """Per dependency, its heads as (relation, terms), each existential
    variable an `App` over the universal variables, built straight from
    the TGDs: the oracle for the positions `to_term_interpretation`
    compiles."""
    out = []
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        skolem: dict = {
            Var(y): App(_skolem_symbol(d, i), tuple(Var(x) for x in params))
            for i, y in enumerate(tgd.exist_vars)
        }
        heads = tuple(
            (atom.rel, tuple(skolem.get(a, a) for a in atom.args)) for atom in tgd.consequent
        )
        out.append(heads)
    return out


def rule_head_terms(rule) -> tuple:
    """A compiled rule's heads with each position resolved to its term: a
    parameter's Var, a constant, or an `App` of a Skolem symbol over all
    the parameters."""
    params = tuple(Var(x) for x in rule.params)
    terms = (*params, *rule.fixed, *(App(s, params) for s in rule.skolems))
    return tuple((rel, tuple(terms[p] for p in ps)) for rel, ps in rule.heads)


# ---------------------------------------------------------------------------
# Reference core and restricted-chase paths: the per-call encoding and
# the full-scan search that `compute_core`, `is_core` and
# `restricted_chase` replaced, kept as an oracle for their encode-once,
# indexed, single-pass versions.

def ref_homs(pattern, index, nvars, injective=False, allowed=None):
    """The kernel search as a scan of every row of a pattern fact's
    relation, with no index: `index` maps a relation to a list of rows.
    Same contract and answer order as `dx.kernel.homs`."""
    n = len(pattern)
    cands = []
    for rel, _args in pattern:
        lst = index.get(rel)
        if not lst:
            return
        cands.append(lst)
    if n == 0:
        yield [-1] * nvars
        return

    asn = [-1] * nvars
    used = set()
    pos = [0] * n
    trail = [()] * n
    i = 0
    while True:
        lst = cands[i]
        args = pattern[i][1]
        k = len(args)
        ci = pos[i]
        end = len(lst)
        advanced = False
        while ci < end:
            cand = lst[ci]
            ci += 1
            bound = []
            ok = True
            for j in range(k):
                a = args[j]
                c = cand[j]
                if a >= 0:
                    if a != c:
                        ok = False
                        break
                else:
                    v = -1 - a
                    cur = asn[v]
                    if cur < 0:
                        if allowed is not None and c not in allowed:
                            ok = False
                            break
                        if injective and c in used:
                            ok = False
                            break
                        asn[v] = c
                        if injective:
                            used.add(c)
                        bound.append(v)
                    elif cur != c:
                        ok = False
                        break
            if not ok:
                for v in bound:
                    if injective:
                        used.discard(asn[v])
                    asn[v] = -1
                continue
            pos[i] = ci
            trail[i] = tuple(bound)
            advanced = True
            break
        if advanced:
            i += 1
            if i < n:
                pos[i] = 0
                continue
            yield list(asn)
        i -= 1
        if i < 0:
            return
        for v in trail[i]:
            if injective:
                used.discard(asn[v])
            asn[v] = -1


def ref_match_pattern(pattern, target_facts, presorted=False):
    """Encode the whole target afresh, then search it."""
    from dx import kernel
    if not presorted:
        target_facts = sorted(target_facts, key=ref_fact_key)
    val_codes: dict = {}
    code_vals: list = []

    def val_code(v):
        if v not in val_codes:
            val_codes[v] = len(code_vals)
            code_vals.append(v)
        return val_codes[v]

    index: dict = {}
    for f in target_facts:
        index.setdefault(f.rel, []).append(tuple(val_code(a) for a in f.args))
    var_ids: dict = {}
    pat = []
    for rel, args in pattern:
        enc = []
        for a in args:
            if isinstance(a, PatternVar):
                if a not in var_ids:
                    var_ids[a] = len(var_ids)
                enc.append(-1 - var_ids[a])
            else:
                enc.append(val_code(a))
        pat.append((rel, tuple(enc)))
    asn = next(ref_homs(kernel.order_pattern(pat), index, len(var_ids)), None)
    if asn is None:
        return None
    return {var: code_vals[asn[idx]] for var, idx in var_ids.items() if asn[idx] >= 0}


def ref_blocks(inst: Instance) -> list:
    """Union-find over the facts themselves, components sorted by first fact."""
    from dx.model import is_null

    parent: dict = {f: f for f in inst.facts_sorted}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    anchor: dict = {}
    for f in inst.facts_sorted:
        for a in f.args:
            if is_null(a):
                if a in anchor:
                    ra, rb = find(anchor[a]), find(f)
                    if ra is not rb:
                        parent[rb] = ra
                else:
                    anchor[a] = f
    groups: dict = {}
    for f in inst.facts_sorted:
        groups.setdefault(find(f), []).append(f)
    comps = [Instance(inst.schema, fs) for fs in groups.values()]
    comps.sort(key=lambda c: ref_fact_key(c.facts_sorted[0]))
    return comps


def null_pattern(inst: Instance):
    """The instance's facts, in canonical order, with nulls replaced by
    search variables named by them."""
    from dx.model import is_null

    return [
        (f.rel, tuple(PatternVar(a) if is_null(a) else a for a in f.args))
        for f in inst.facts_sorted
    ]


def ref_homomorphic(i: Instance, j: Instance) -> bool:
    """Whether some homomorphism i -> j fixes the constants."""
    return ref_match_pattern(null_pattern(i), j.facts_sorted, presorted=True) is not None


def ref_block_fold(block: Instance, ordered_facts: tuple):
    pattern = null_pattern(block)
    for gone in block.facts_sorted:
        target = [f for f in ordered_facts if f != gone]
        asn = ref_match_pattern(pattern, target, presorted=True)
        if asn is not None:
            return {pv.name: val for pv, val in asn.items()}
    return None


def _ground(block: Instance) -> bool:
    from dx.model import is_null

    return not any(is_null(a) for f in block.facts for a in f.args)


def ref_compute_core(j: Instance):
    """Fold the first foldable block, then rescan from the first block.
    The folds' composite permutes the core; the retraction follows it
    with that permutation's power e^(order-1), as a dict from every
    value of j in `j.dom` order."""
    current = j
    comp = {v: v for v in j.dom}
    while True:
        reduced = False
        ordered = current.facts_sorted
        for block in ref_blocks(current):
            if _ground(block):
                continue
            fold = ref_block_fold(block, ordered)
            if fold is None:
                continue
            step = {v: fold.get(v, v) for v in current.dom}
            current = Instance(
                current.schema,
                {Fact(f.rel, tuple(step[a] for a in f.args)) for f in current.facts},
            )
            comp = {v: step.get(m, m) for v, m in comp.items()}
            reduced = True
            break
        if not reduced:
            break
    e = {v: comp[v] for v in current.dom}
    order = 1
    p = dict(e)
    while any(p[v] != v for v in current.dom):
        p = {v: e[p[v]] for v in current.dom}
        order += 1
    retr = dict(comp)
    for _ in range(order - 1):
        retr = {v: e[w] for v, w in retr.items()}
    return current, retr


def ref_is_core(j: Instance) -> bool:
    ordered = j.facts_sorted
    return all(
        _ground(block) or ref_block_fold(block, ordered) is None
        for block in ref_blocks(j)
    )


def ref_restricted_chase(m, source: Instance) -> Instance:
    """Re-sort and re-encode the facts built so far for every check."""
    from dx.chase import _skolem_symbol

    facts: set = set()
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        rows = sorted(
            eval_formula(tgd.antecedent, source, params),
            key=lambda row: tuple(ref_value_key(v) for v in row),
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
            if ref_match_pattern(pattern, facts) is not None:
                continue
            for i, y in enumerate(tgd.exist_vars):
                env[y] = SkolemNull(_skolem_symbol(d, i), row)
            for atom in tgd.consequent:
                facts.add(
                    Fact(
                        atom.rel,
                        tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args),
                    )
                )
    return Instance(m.target, facts)


# ---------------------------------------------------------------------------
# Reference symmetry searches of the laconic rewriting: the product times
# permutation loops and the restarting side-condition scan that the
# kernel-based searches and the single-pass `side_condition` replaced,
# kept as an oracle for them.

@dataclass(frozen=True)
class Embedding:
    """One embedding of t into t2, as `ref_embeddings_between` lists them."""

    const_map: tuple  # pairs (var of t, var of t2)
    null_map: tuple
    strict: bool

    def as_dict(self) -> dict:
        return dict(self.const_map) | dict(self.null_map)


def ref_renamings_between(t: BlockType, t2: BlockType) -> list:
    """All renamings t -> t2: bijections on constant variables and on
    null variables mapping the atom set onto the atom set."""
    if len(t.const_vars) != len(t2.const_vars) or len(t.null_vars) != len(t2.null_vars):
        return []
    out = []
    atoms2 = set(t2.atoms)
    for cperm in itertools.permutations(t2.const_vars):
        cmap = dict(zip(t.const_vars, cperm))
        for nperm in itertools.permutations(t2.null_vars):
            nmap = dict(zip(t.null_vars, nperm))
            ren = {**cmap, **nmap}
            image = {
                RelAtom(
                    a.rel,
                    tuple(
                        Var(ren[v.name]) if isinstance(v, Var) else v for v in a.args
                    ),
                )
                for a in t.atoms
            }
            if image == atoms2:
                out.append(ren)
    return out


def ref_embeddings_between(t: BlockType, t2: BlockType) -> list:
    """All embeddings of t into t2: constant variables map (not
    necessarily injectively) into constant variables, null variables
    injectively into null variables, atoms land on atoms.  The strict
    flag marks embeddings whose image misses some atom of t2."""
    out = []
    atoms2 = set(t2.atoms)
    if len(t.null_vars) > len(t2.null_vars):
        return []
    cvars2 = t2.const_vars if t2.const_vars else ()
    if t.const_vars and not cvars2:
        return []
    for cchoice in itertools.product(cvars2, repeat=len(t.const_vars)):
        cmap = dict(zip(t.const_vars, cchoice))
        for nchoice in itertools.permutations(t2.null_vars, len(t.null_vars)):
            nmap = dict(zip(t.null_vars, nchoice))
            ren = {**cmap, **nmap}
            image = {
                RelAtom(
                    a.rel,
                    tuple(
                        Var(ren[v.name]) if isinstance(v, Var) else v for v in a.args
                    ),
                )
                for a in t.atoms
            }
            if image <= atoms2:
                out.append(
                    Embedding(
                        tuple(sorted(cmap.items())),
                        tuple(sorted(nmap.items())),
                        strict=bool(atoms2 - image),
                    )
                )
    return out


def ref_self_maps(t: BlockType) -> list:
    """All substitutions (constant part arbitrary, null part bijective)
    mapping the atom set onto exactly itself; includes the identity."""
    out = []
    atoms = set(t.atoms)
    for cchoice in itertools.product(t.const_vars, repeat=len(t.const_vars)):
        cmap = dict(zip(t.const_vars, cchoice))
        for nperm in itertools.permutations(t.null_vars):
            nmap = dict(zip(t.null_vars, nperm))
            ren = {**cmap, **nmap}
            image = {
                RelAtom(
                    a.rel,
                    tuple(
                        Var(ren[v.name]) if isinstance(v, Var) else v for v in a.args
                    ),
                )
                for a in t.atoms
            }
            if image == atoms:
                out.append((cmap, nmap))
    return out


def _ref_order_formula_holds(f: Formula, env: dict) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, And):
        return all(_ref_order_formula_holds(p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_ref_order_formula_holds(p, env) for p in f.parts)
    if isinstance(f, Not):
        return not _ref_order_formula_holds(f.body, env)
    if isinstance(f, Eq):
        return env[f.left.name] == env[f.right.name]
    if isinstance(f, Lt):
        return env[f.left.name] < env[f.right.name]
    raise TypeError(f"not an order formula: {f!r}")


def _ref_atom_key(atom: RelAtom, cmap: dict, nmap: dict):
    parts = []
    for a in atom.args:
        if isinstance(a, Var):
            if a.name in cmap:
                parts.append(("x", cmap[a.name]))
            else:
                parts.append(("y", nmap[a.name]))
        else:
            parts.append(("k", a.text))
    return (atom.rel, tuple(parts))


def ref_least_form(atoms, cmaps, null_vars) -> tuple:
    """The least sorted set of atom keys over the constant-variable maps
    `cmaps` and every numbering of `null_vars` from 1, by trying them
    all (the oracle for `model.least_form`, through `laconify._atom_form`)."""
    best = None
    for cmap in cmaps:
        for nperm in itertools.permutations(null_vars):
            nmap = {y: j + 1 for j, y in enumerate(nperm)}
            key = tuple(sorted({_ref_atom_key(a, cmap, nmap) for a in atoms}))
            if best is None or key < best:
                best = key
    return best


def ref_side_condition(t: BlockType) -> SideCondition:
    """Order constraint making the type rigid without losing any block.

    Search over assignments of the constant variables into an ordered
    universe of |vars| values (every order pattern occurs there): while
    two distinct assignments satisfying the condition realize copies of
    each other, exclude the complete order pattern of the first one.
    Rigid types get `true`.
    """
    names = t.const_vars
    m = len(names)
    phi: Formula = TRUE
    if m <= 1:
        return phi
    universe = list(range(m))
    while True:
        witness = None
        first_of_form: dict = {}
        for values in itertools.product(universe, repeat=m):
            if not _ref_order_formula_holds(phi, dict(zip(names, values))):
                continue
            form = ref_least_form(t.atoms, (dict(zip(names, values)),), t.null_vars)
            prev = first_of_form.setdefault(form, values)
            if prev != values:
                witness = prev
                break
        if witness is None:
            return phi
        phi = conj([phi, Not(_order_type(names, witness))])


# ---------------------------------------------------------------------------
# Reference evaluator: the two-engine evaluator (a relational engine for
# the positive structure, a per-assignment `holds` for negation and
# comparisons) that the set-at-a-time `dx.evaluator` replaced, kept as an
# oracle for it.

def _ref_lt(a, b) -> bool:
    return isinstance(a, Const) and isinstance(b, Const) and a.text < b.text


def _ref_term_value(t, env):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise MappingError(f"unbound variable {t.name}") from None
    return t


class _RefRel:
    """An answer set: named columns plus a set of value rows."""

    __slots__ = ("vars", "rows")

    def __init__(self, vars: tuple, rows: set):
        self.vars = vars
        self.rows = rows


def _ref_join(a: _RefRel, b: _RefRel) -> _RefRel:
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
    return _RefRel(a.vars + tuple(extra), rows)


def _ref_project(rel: _RefRel, keep: Sequence[str]) -> _RefRel:
    idx = {v: i for i, v in enumerate(rel.vars)}
    cols = tuple(keep)
    rows = {tuple(row[idx[v]] for v in cols) for row in rel.rows}
    return _RefRel(cols, rows)


def _ref_extend(rel: _RefRel, vars: Sequence[str], dom: Sequence) -> _RefRel:
    missing = [v for v in vars if v not in rel.vars]
    if missing:
        rows = set()
        for row in rel.rows:
            for combo in itertools.product(dom, repeat=len(missing)):
                rows.add(row + combo)
        rel = _RefRel(rel.vars + tuple(missing), rows)
    return _ref_project(rel, vars)


class _RefEvaluator:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.dom = inst.dom
        self._rel_cache: dict = {}

    # -- satisfaction of a formula under a full assignment ------------------

    def holds(self, f: Formula, env: dict) -> bool:
        if isinstance(f, TrueF):
            return True
        if isinstance(f, RelAtom):
            args = tuple(_ref_term_value(a, env) for a in f.args)
            return args in self._args_set(f.rel)
        if isinstance(f, Eq):
            return _ref_term_value(f.left, env) == _ref_term_value(f.right, env)
        if isinstance(f, Lt):
            return _ref_lt(_ref_term_value(f.left, env), _ref_term_value(f.right, env))
        if isinstance(f, And):
            return all(self.holds(p, env) for p in f.parts)
        if isinstance(f, Or):
            return any(self.holds(p, env) for p in f.parts)
        if isinstance(f, Not):
            return not self.holds(f.body, env)
        if isinstance(f, Exists):
            return any(
                self.holds(f.body, {**env, f.var: v}) for v in self.dom
            )
        if isinstance(f, Forall):
            return all(
                self.holds(f.body, {**env, f.var: v}) for v in self.dom
            )
        if isinstance(f, Certain):
            fv = tuple(sorted(free_vars(f.query)))
            answers = self._certain(f)
            try:
                key = tuple(env[v] for v in fv)
            except KeyError as exc:
                raise MappingError(f"unbound variable {exc.args[0]}") from None
            return key in answers
        raise TypeError(f"not a formula: {f!r}")

    def _args_set(self, rel):
        if rel not in self.inst.schema:
            raise MappingError(f"undeclared relation {rel}")
        return self._rel_cache.setdefault(
            rel, set(self.inst.by_rel.get(rel, ()))
        )

    def _certain(self, node: Certain):
        from dx import certain as certain_mod

        return certain_mod.certain_answers(node.base, node.query, self.inst)

    # -- relational evaluation ----------------------------------------------

    def rel(self, f: Formula) -> _RefRel:
        if isinstance(f, TrueF):
            return _RefRel((), {()})
        if isinstance(f, RelAtom):
            return self._atom_rel(f)
        if isinstance(f, (Eq, Lt)):
            return self._filter_rel(f)
        if isinstance(f, Certain):
            # an answer's values range over `dom`, as every variable's
            # do in `holds`; a head constant may be a certain answer
            # outside it
            fv = tuple(sorted(free_vars(f.query)))
            dom = set(self.dom)
            return _RefRel(fv, {r for r in self._certain(f) if dom.issuperset(r)})
        if isinstance(f, And):
            return self._and_rel(f.parts)
        if isinstance(f, Or):
            fv = tuple(sorted(free_vars(f)))
            rows = set()
            for p in f.parts:
                rows |= _ref_extend(self.rel(p), fv, self.dom).rows
            return _RefRel(fv, rows)
        if isinstance(f, Exists):
            inner = self.rel(f.body)
            if f.var not in inner.vars and not self.dom:
                return _RefRel(tuple(v for v in inner.vars), set())
            return _ref_project(inner, tuple(v for v in inner.vars if v != f.var))
        if isinstance(f, Forall):
            return self.rel(Not(Exists(f.var, Not(f.body))))
        if isinstance(f, Not):
            fv = tuple(sorted(free_vars(f)))
            rows = set()
            for combo in itertools.product(self.dom, repeat=len(fv)):
                if not self.holds(f.body, dict(zip(fv, combo))):
                    rows.add(combo)
            return _RefRel(fv, rows)
        raise TypeError(f"not a formula: {f!r}")

    def _atom_rel(self, f: RelAtom) -> _RefRel:
        tuples = self._args_set(f.rel)
        cols = []
        for a in f.args:
            if isinstance(a, Var) and a.name not in cols:
                cols.append(a.name)
        rows = set()
        for args in tuples:
            env: dict = {}
            ok = True
            for a, v in zip(f.args, args):
                if isinstance(a, Var):
                    if env.setdefault(a.name, v) != v:
                        ok = False
                        break
                elif a != v:
                    ok = False
                    break
            if ok:
                rows.add(tuple(env[c] for c in cols))
        return _RefRel(tuple(cols), rows)

    def _filter_rel(self, f) -> _RefRel:
        fv = tuple(sorted(free_vars(f)))
        rows = set()
        for combo in itertools.product(self.dom, repeat=len(fv)):
            if self.holds(f, dict(zip(fv, combo))):
                rows.add(combo)
        return _RefRel(fv, rows)

    def _and_rel(self, parts) -> _RefRel:
        relational = []
        filters = []
        for p in parts:
            if isinstance(p, (Eq, Lt, Not)):
                filters.append(p)
            else:
                relational.append(p)
        acc = _RefRel((), {()})
        for p in relational:
            acc = _ref_join(acc, self.rel(p))
            if not acc.rows:
                return acc
        pending = list(filters)
        progress = True
        while pending and progress:
            progress = False
            for p in list(pending):
                fv = free_vars(p)
                if fv <= set(acc.vars):
                    idx = {v: i for i, v in enumerate(acc.vars)}
                    acc = _RefRel(
                        acc.vars,
                        {
                            row
                            for row in acc.rows
                            if self.holds(p, {v: row[idx[v]] for v in acc.vars})
                        },
                    )
                    pending.remove(p)
                    progress = True
        for p in pending:
            # filter variables outside the joined columns: extend first
            fv = tuple(sorted(set(acc.vars) | free_vars(p)))
            acc = _ref_extend(acc, fv, self.dom)
            idx = {v: i for i, v in enumerate(acc.vars)}
            acc = _RefRel(
                acc.vars,
                {
                    row
                    for row in acc.rows
                    if self.holds(p, {v: row[idx[v]] for v in acc.vars})
                },
            )
        return acc


def ref_eval_formula(f: Formula, inst: Instance, free: Sequence[str]) -> set:
    """All assignments to `free` (over the active domain) satisfying f."""
    fv = free_vars(f)
    missing = fv - set(free)
    if missing:
        raise MappingError(f"unbound free variables: {sorted(missing)}")
    if len(set(free)) != len(tuple(free)):
        raise MappingError("duplicate variables in the answer tuple")
    ev = _RefEvaluator(inst)
    rel = ev.rel(f)
    return _ref_extend(rel, tuple(free), inst.dom).rows


def ref_ground_answers(f: Formula, inst: Instance, free: Sequence[str]) -> set:
    """eval_formula restricted to all-constant tuples."""
    return {
        row
        for row in ref_eval_formula(f, inst, free)
        if all(isinstance(v, Const) for v in row)
    }


def ref_holds(f: Formula, inst: Instance, env: dict | None = None) -> bool:
    """Satisfaction of f under an assignment of its free variables."""
    return _RefEvaluator(inst).holds(f, dict(env or {}))


def ref_naive_chase(m, inst: Instance) -> Instance:
    """The naive chase with its antecedents evaluated by ref_eval_formula."""
    facts = set()
    for d, tgd in enumerate(m.tgds):
        params = tgd.universal_vars
        for row in ref_eval_formula(tgd.antecedent, inst, params):
            env = dict(zip(params, row))
            for k, y in enumerate(tgd.exist_vars):
                env[y] = SkolemNull(_skolem_symbol(d, k), row)
            for atom in tgd.consequent:
                args = tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args)
                facts.add(Fact(atom.rel, args))
    return Instance(m.target, facts)


# ---------------------------------------------------------------------------
# Reference compile steps: the product loop over branch choices that the
# depth-first `certain.unfold` replaced, on its own dict-based unifier
# (a fresh one per choice, sharing no code with unfold's trail), the
# precondition prime with a null-null collapse per ordered pair of nulls,
# and the per-type precondition that rebuilt the prime for every pair of
# types, kept as oracles.

class RefUnifier:
    """Union-find over query/branch variables with term bindings.

    Nodes are ('q', name) for query variables and ('b', i, name) for
    variables of the i-th chosen branch.  A class may be bound to a
    constant or to a function term ('app', symbol, args) whose
    arguments are again nodes, constants, or terms.  Nodes and terms are
    plain tuples, told apart from constants by `type(t) is tuple`, since
    a `Const` is a tuple subclass.  The occurs check reads only the
    term's own nodes, as `certain._Unifier` does.
    """

    def __init__(self):
        self.parent: dict = {}
        self.binding: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _occurs(self, node, term) -> bool:
        if type(term) is tuple and term and term[0] == "app":
            return any(self._occurs(node, a) for a in term[2])
        if self._is_node(term):
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
        return type(t) is tuple and bool(t) and t[0] == "app"


def ref_term_to_internal(rule, p: int, branch_idx):
    """The term at head position p of a compiled rule, over the nodes
    of branch branch_idx."""
    params = [("b", branch_idx, x) for x in rule.params]
    terms = [*params, *rule.fixed, *(("app", s, tuple(params)) for s in rule.skolems)]
    return terms[p]


def ref_build_disjunct(uf: RefUnifier, free, choice):
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


def ref_unfold(m: SchemaMapping, q: Formula) -> UnfoldedRewriting:
    if not mapping_certain_free(m):
        raise MappingError("unfolding requires a certain[...]-free mapping")
    exist, atoms, eqs = cq_parts(q)
    free = tuple(sorted(free_vars(q)))
    rules = to_term_interpretation(m).rules
    per_atom = []
    for atom in atoms:
        branches = [(r, ps) for r in rules for head, ps in r.heads if head == atom.rel]
        per_atom.append(branches)
    disjuncts: list = []
    seen = set()
    for choice in itertools.product(*per_atom) if atoms else [()]:
        uf = RefUnifier()
        ok = True
        for eq in eqs:
            lhs = ("q", eq.left.name) if isinstance(eq.left, Var) else eq.left
            rhs = ("q", eq.right.name) if isinstance(eq.right, Var) else eq.right
            if not uf.unify(lhs, rhs):
                ok = False
                break
        if ok:
            for idx, (atom, (rule, ps)) in enumerate(zip(atoms, choice)):
                for arg, p in zip(atom.args, ps):
                    qterm = ("q", arg.name) if isinstance(arg, Var) else arg
                    if not uf.unify(qterm, ref_term_to_internal(rule, p, idx)):
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue
        # answer variables and branch variables must stay non-proper
        for v in free:
            if uf.term_is_proper(("q", v)):
                ok = False
                break
        if ok:
            for idx, (rule, _ps) in enumerate(choice):
                for p in rule.params:
                    if uf.term_is_proper(("b", idx, p)):
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue
        d = ref_build_disjunct(uf, free, tuple(rule for rule, _ps in choice))
        if d is not None and d not in seen:
            seen.add(d)
            disjuncts.append(d)
    return UnfoldedRewriting(free, tuple(disjuncts))


def ref_precon_parts(t: BlockType, m: SchemaMapping) -> list:
    """The conjuncts of t's precondition prime with one null-null
    collapse per ordered pair of nulls, each with its label: ("real",),
    ("nulls", i, j) for null i replaced by null j (i != j), ("const", i)
    for null i replaced by a constant."""
    ys = t.null_vars
    parts = [(("real",), Certain(t.query(), m))]
    for i, yi in enumerate(ys):
        rest = tuple(y for y in ys if y != yi)
        for j, yj in enumerate(ys):
            if i != j:
                collapsed = conj(substitute(a, {yi: Var(yj)}) for a in t.atoms)
                parts.append((("nulls", i, j), Not(Certain(exists_all(rest, collapsed), m))))
    taken = t.const_vars + ys
    w = next(w for w in (f"xc{k or ''}" for k in itertools.count()) if w not in taken)
    for i, yi in enumerate(ys):
        rest = tuple(y for y in ys if y != yi)
        collapsed = conj(substitute(a, {yi: Var(w)}) for a in t.atoms)
        parts.append((("const", i), Not(Exists(w, Certain(exists_all(rest, collapsed), m)))))
    return parts


def ref_precon_prime(t: BlockType, m: SchemaMapping) -> Formula:
    """t's precondition prime: `ref_precon_parts` without the null-null
    collapses for i > j, each the (j, i) one up to renaming."""
    return conj(
        f for label, f in ref_precon_parts(t, m)
        if label[0] != "nulls" or label[1] < label[2]
    )


def ref_precondition(t: BlockType, types, m: SchemaMapping, up_to_symmetry: bool = False) -> Formula:
    """Formula over the source (free variables: t's constant variables)
    holding at exactly the tuples where t is realized in the core
    universal solution: one guard per strict embedding of t into a type
    t2.  With `up_to_symmetry`, of the embeddings that automorphisms of
    t2 map onto each other only the first is guarded."""
    base = ref_precon_prime(t, m)
    guards = []
    for t2 in types:
        embeddings = [e for e in ref_embeddings_between(t, t2) if e.strict]
        if not embeddings:
            continue
        autos = ref_renamings_between(t2, t2) if up_to_symmetry else []
        seen = set()
        fresh = {x: Var(f"v{k + 1}") for k, x in enumerate(t2.const_vars)}
        prime = substitute(ref_precon_prime(t2, m), fresh)
        for emb in embeddings:
            ren = emb.as_dict()
            if tuple(sorted(ren.items())) in seen:
                continue
            seen.update(tuple(sorted((v, a[w]) for v, w in ren.items())) for a in autos)
            eqs = [
                Eq(Var(x), fresh[ren[x]]) for x in t.const_vars
            ]
            inner = conj(
                eqs
                + [prime]
                + [substitute(_proper_instantiation(t, t2, ren), fresh)]
            )
            guards.append(
                Not(exists_all([v.name for v in fresh.values()], inner))
            )
    return conj([base] + guards)


def ref_laconify(m: SchemaMapping) -> SchemaMapping:
    """`laconify` with `ref_precondition`'s guards, one per strict
    embedding."""
    md = decompose(m)
    types = generate_block_types(md)
    return SchemaMapping(m.source, m.target, tuple(
        TGD(conj([ref_precondition(t, types, md), side_condition(t)]), t.null_vars, t.atoms)
        for t in types
    ))


def guard_keys(f: Formula) -> list:
    """The keys of the quantified negations among f's conjuncts (its
    guards), each renamed so that guards equal up to the names of their
    quantified variables get one key: one guard per orbit and one per
    strict embedding give one set of keys."""
    norm = Normaliser()
    n = norm.formula(f)
    parts = n.parts if n.kind == "and" else (n,)
    # binders are %1, %2, ...; f's free variables never start with `%`
    return [norm.rename(p, {}).key for p in parts if p.kind == "not" and "E%" in p.key]


# ---------------------------------------------------------------------------
# Reference matchers: the union-find searches that `laconify._separable_for`
# and `verify.eval_disjunctive` carried before they became one kernel
# search and one `holds` call, kept as oracles.

def ref_separable_for(tgd, kept_atoms, kept_nulls) -> bool:
    ev = set(tgd.exist_vars)
    kept_set = set(kept_atoms)
    touching = [
        a
        for a in tgd.consequent
        if a not in kept_set
        and any(isinstance(v, Var) and v.name in kept_nulls for v in a.args)
    ]
    if not touching:
        return True

    class UF:
        def __init__(self):
            self.parent: dict = {}
            self.anchor: dict = {}

        def find(self, x):
            self.parent.setdefault(x, x)
            while self.parent[x] != x:
                self.parent[x] = self.parent[self.parent[x]]
                x = self.parent[x]
            return x

        def union(self, a, b) -> bool:
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                return True
            aa, ab = self.anchor.get(ra), self.anchor.get(rb)
            if aa is not None and ab is not None and aa != ab:
                return False
            self.parent[rb] = ra
            if ab is not None:
                self.anchor[ra] = ab
            return True

        def set_anchor(self, x, lit) -> bool:
            r = self.find(x)
            old = self.anchor.get(r)
            if old is not None and old != lit:
                return False
            self.anchor[r] = lit
            return True

    state = {"uf": UF(), "sigma": {}}

    def entry_of(term):
        if isinstance(term, Var):
            if term.name in kept_nulls:
                return ("null", term.name)
            return ("cvar", term.name)
        return ("lit", term.text)

    def agree(e1, e2) -> bool:
        uf = state["uf"]
        if e1[0] == "null" or e2[0] == "null":
            return e1 == e2
        if e1[0] == "cvar" and e2[0] == "cvar":
            return uf.union(e1[1], e2[1])
        if e1[0] == "cvar":
            return uf.set_anchor(e1[1], e2[1])
        if e2[0] == "cvar":
            return uf.set_anchor(e2[1], e1[1])
        return e1[1] == e2[1]

    def match_atom(a: RelAtom, target: RelAtom) -> bool:
        if a.rel != target.rel or len(a.args) != len(target.args):
            return False
        sigma = state["sigma"]
        for src, dst in zip(a.args, target.args):
            dst_entry = entry_of(dst)
            if isinstance(src, Var) and src.name in kept_nulls:
                if dst_entry != ("null", src.name):
                    return False
            elif isinstance(src, Var) and src.name in ev:
                prev = sigma.get(src.name)
                if prev is None:
                    if dst_entry[0] == "null" and dst_entry[1] not in kept_nulls:
                        return False
                    sigma[src.name] = dst_entry
                elif not agree(prev, dst_entry):
                    return False
            else:  # universal variable or literal constant
                if dst_entry[0] == "null":
                    return False
                src_entry = (
                    ("cvar", src.name) if isinstance(src, Var) else ("lit", src.text)
                )
                if not agree(src_entry, dst_entry):
                    return False
        return True

    def search(i) -> bool:
        if i == len(touching):
            return True
        for target in kept_atoms:
            saved = (
                dict(state["uf"].parent),
                dict(state["uf"].anchor),
                dict(state["sigma"]),
            )
            if match_atom(touching[i], target) and search(i + 1):
                return True
            state["uf"].parent, state["uf"].anchor = dict(saved[0]), dict(saved[1])
            state["sigma"] = dict(saved[2])
        return False

    return search(0)


def ref_eval_disjunctive(dep, inst: Instance) -> bool:
    """Truth of a disjunctive dependency: one union-find match per
    antecedent answer and disjunct.  A disjunct without atoms but with
    existential variables is taken as true on any nonempty instance,
    even when its equalities pin a variable outside the active domain."""
    xs = dep.variables()
    ante = conj(dep.ante_atoms + dep.ante_equalities)
    for row in eval_formula(ante, inst, xs):
        env = dict(zip(xs, row))
        if not any(_ref_disjunct_holds(d, env, inst) for d in dep.disjuncts):
            return False
    return True


def _ref_disjunct_holds(d, env: dict, inst: Instance) -> bool:
    # union-find over the existential variables, with value anchors
    ev = set(d.exist_vars)
    parent = {y: y for y in ev}
    anchor: dict = {}

    def find(y):
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        return y

    def side(t):
        if isinstance(t, Var):
            if t.name in env:
                return ("val", env[t.name])
            if t.name in ev:
                return ("var", t.name)
            raise ValueError(f"unbound variable {t.name} in dependency")
        return ("val", t)

    for eq in d.equalities:
        l, r = side(eq.left), side(eq.right)
        if l[0] == "var" and r[0] == "var":
            rl, rr = find(l[1]), find(r[1])
            if rl != rr:
                al, ar = anchor.get(rl), anchor.get(rr)
                if al is not None and ar is not None and al != ar:
                    return False
                parent[rr] = rl
                if ar is not None:
                    anchor[rl] = ar
        elif l[0] == "var" or r[0] == "var":
            root = find(l[1] if l[0] == "var" else r[1])
            val = r[1] if l[0] == "var" else l[1]
            old = anchor.get(root)
            if old is not None and old != val:
                return False
            anchor[root] = val
        elif l[1] != r[1]:
            return False

    pvars: dict = {}
    pattern = []
    for atom in d.atoms:
        enc = []
        for t in atom.args:
            s = side(t)
            if s[0] == "val":
                enc.append(s[1])
            else:
                root = find(s[1])
                val = anchor.get(root)
                if val is not None:
                    enc.append(val)
                else:
                    enc.append(pvars.setdefault(root, PatternVar(root)))
        pattern.append((atom.rel, tuple(enc)))
    if not pattern:
        return not ev or bool(inst.dom)
    return match_pattern(pattern, inst.facts_sorted) is not None


def ref_tokens(text: str, token_re) -> list:
    """Oracle for `model.Lexer`: the eager scanning loop it replaced.

    (kind, text, line, col) tokens, "ws" dropped, positions counted as
    the scan goes; the first character only the catch-all `error` group
    matches ends the list with one "error" token.
    """
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m.lastgroup == "error":
            tokens.append(("error", text[pos], line, col))
            break
        tok = m.group(0)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    return tokens


def _ref_read_args(lex: Lexer, consts: dict) -> tuple:
    lex.expect("(")
    args = []
    if not lex.accept(")"):
        args.append(_ref_read_value(lex, consts))
        while lex.accept(","):
            args.append(_ref_read_value(lex, consts))
        lex.expect(")")
    return tuple(args)


def _ref_read_value(lex: Lexer, consts: dict):
    tok = lex.peek()
    if tok[0] not in ("bare", "quoted", "null"):
        lex.error("expected a value")
    kind, text, _pos = lex.take()
    if kind == "bare":
        c = consts.get(text)
        if c is None:
            c = consts[text] = Const(text)
        return c
    if kind == "quoted":
        return lex.quoted_const(tok)
    name = text[1:]
    m = _FRESH.match(name)
    if m and lex.peek()[1] != "(":
        try:
            return FreshNull(int(m.group(1)))
        except ValueError as exc:
            lex.fail(tok, str(exc))
    return SkolemNull(name, _ref_read_args(lex, consts))


def ref_parse_facts(text: str, schema: Schema) -> Instance:
    """Oracle for `model.parse_facts`: the token reader alone, from the
    first character, with no flat-fact pattern."""
    lex = Lexer(text, _FACT_TOKEN)
    consts: dict = {}
    facts = []
    while (tok := lex.peek())[0] != "end":
        if tok[0] != "bare":
            lex.error("expected relation name")
        rel = lex.take()[1]
        args = _ref_read_args(lex, consts)
        lex.expect(".")
        if rel not in schema:
            lex.fail(tok, f"undeclared relation {rel}")
        if len(args) != schema.arity(rel):
            lex.fail(
                tok, f"arity mismatch for {rel}: expected {schema.arity(rel)}, got {len(args)}"
            )
        facts.append(Fact(rel, args))
    return Instance(schema, facts)


def ref_decode_value(text: str):
    """Oracle for `sqlgen.decode_value`: the character loop it replaced."""
    if not text.startswith("@"):
        return Const(text)
    value, end = _ref_decode_term(text, 0)
    if end < len(text):
        raise ValueError(f"trailing text after null encoding: {text[end:]!r}")
    return value


def _ref_decode_term(text: str, i: int):
    """The Skolem term encoded at text[i] == '@', and the index after it."""
    open_idx = text.find("(", i)
    if open_idx <= i + 1:
        raise ValueError(f"malformed null encoding: {text!r}")
    symbol = text[i + 1 : open_idx]
    j = open_idx + 1
    args = []
    if text.startswith(")", j):
        return SkolemNull(symbol, ()), j + 1
    while True:
        if text.startswith("@", j):
            arg, j = _ref_decode_term(text, j)
        else:
            buf = []
            while j < len(text) and text[j] not in ",)":
                if text[j] == "\\":
                    j += 1
                elif text[j] == "(":
                    raise ValueError(f"unescaped '(' in null encoding: {text!r}")
                buf.append(text[j:j + 1])
                j += 1
            if not buf:
                raise ValueError("empty argument in null encoding")
            arg = Const("".join(buf))
        args.append(arg)
        if j >= len(text):
            raise ValueError(f"unbalanced null encoding: {text!r}")
        if text[j] == ")":
            return SkolemNull(symbol, tuple(args)), j + 1
        if text[j] != ",":
            raise ValueError(f"malformed null encoding: {text!r}")
        j += 1


# ---------------------------------------------------------------------------
# Tree walks that visit a shared subformula once per parent, kept as
# oracles for the per-call memos of `format_formula`, the schema check
# of `SchemaMapping` and `certain.eliminate`, which folds true and false
# as `ref_simplify` does.

def ref_simplify(f: Formula) -> Formula:
    if isinstance(f, And):
        parts = [ref_simplify(p) for p in f.parts]
        if any(is_false(p) for p in parts):
            return FALSE
        return conj(parts)
    if isinstance(f, Or):
        parts = [p for p in (ref_simplify(q) for q in f.parts) if not is_false(p)]
        if any(is_true(p) for p in parts):
            return TRUE
        return disj(parts)
    if isinstance(f, Not):
        body = ref_simplify(f.body)
        if is_true(body):
            return FALSE
        if is_false(body):
            return TRUE
        if isinstance(body, Not):
            return body.body
        return Not(body)
    if isinstance(f, (Exists, Forall)):
        body = ref_simplify(f.body)
        if is_false(body) and isinstance(f, Exists):
            return FALSE
        if is_true(body) and isinstance(f, Forall):
            return TRUE
        return type(f)(f.var, body)
    if isinstance(f, Certain):
        return Certain(ref_simplify(f.query), f.base)
    return f


def ref_format_formula(f: Formula, prec: int = 0) -> str:
    def wrap(text: str, needed: bool) -> str:
        return f"({text})" if needed else text

    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, RelAtom):
        return f"{f.rel}({', '.join(format_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, Lt):
        return f"{format_term(f.left)} < {format_term(f.right)}"
    if isinstance(f, And):
        return wrap(" & ".join(ref_format_formula(p, 3) for p in f.parts), prec > 2)
    if isinstance(f, Or):
        return wrap(" | ".join(ref_format_formula(p, 2) for p in f.parts), prec > 1)
    if isinstance(f, Not):
        return "!" + ref_format_formula(f.body, 3)
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        names = [f.var]
        body = f.body
        while isinstance(body, type(f)):
            names.append(body.var)
            body = body.body
        return wrap(f"{kw} {', '.join(names)}: {ref_format_formula(body, 0)}", prec > 0)
    if isinstance(f, Certain):
        return f"certain[{ref_format_formula(f.query, 0)}]"
    raise TypeError(f"not a formula: {f!r}")


def ref_check_formula_schema(f: Formula, schema: Schema, where: str) -> None:
    if isinstance(f, RelAtom):
        if f.rel not in schema:
            raise MappingError(f"{where}: undeclared relation {f.rel}")
        if len(f.args) != schema.arity(f.rel):
            raise MappingError(
                f"{where}: arity mismatch for {f.rel}: "
                f"expected {schema.arity(f.rel)}, got {len(f.args)}"
            )
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            ref_check_formula_schema(p, schema, where)
    elif isinstance(f, (Not, Exists, Forall)):
        ref_check_formula_schema(f.body, schema, where)
    elif isinstance(f, Certain):
        ref_check_formula_schema(f.query, f.base.target, where + " (certain query)")


def ref_eliminate(f: Formula) -> Formula:
    """certain[...] nodes replaced by their unfoldings, before `ref_simplify`."""
    if isinstance(f, Certain):
        return unfold(f.base, f.query).as_formula()
    if isinstance(f, (And, Or)):
        return type(f)(tuple(ref_eliminate(p) for p in f.parts))
    if isinstance(f, Not):
        return Not(ref_eliminate(f.body))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, ref_eliminate(f.body))
    return f
