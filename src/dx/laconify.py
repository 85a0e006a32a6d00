"""Rewriting a mapping so that its canonical solution is always a core.

Pipeline: decompose the input, enumerate the fact-block types its core
solutions can realize, compute for each type a precondition (exactly
when the type is realized, phrased with certain[...] nodes over the
input mapping) and a side condition (an order constraint breaking the
symmetries of non-rigid types), and assemble one dependency per type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from dx.lang import (
    Certain,
    Eq,
    Exists,
    Formula,
    Lt,
    Not,
    RelAtom,
    SchemaMapping,
    TGD,
    TRUE,
    Var,
    conj,
    decompose,
    disj,
    exists_all,
    mapping_certain_free,
    neg,
    substitute,
)
from dx.model import (
    Const,
    Encoding,
    Fact,
    FreshNull,
    Instance,
    MappingError,
    PatternVar,
    Schema,
    blocks,
    is_core,
    least_form,
    match_pattern,
    twin_classes,
)

SideCondition = Formula

# Budgets on the exponential phases; an input that exceeds one fails with
# a MappingError instead of running for hours.  Each sits above the
# largest value that the golden, acceptance and benchmark mappings reach.
# The canonical naming's budget is `model.NAMING_BUDGET`.
TYPES_BUDGET = 2**14  # existential-variable subsets of one dependency
SIDE_CONDITION_BUDGET = 10**5  # constant assignments (m^m) of one type
PRECONDITION_BUDGET = 10**4  # guards (strict embeddings up to symmetry) of one precondition


@dataclass(frozen=True)
class BlockType:
    """An atom set over constant variables and null variables.

    Stored in canonical form: constant variables are named x1..xm, null
    variables y1..yn, and the naming minimizes the sorted atom list, so
    two types are renamings of each other iff they are equal.
    """

    atoms: tuple
    const_vars: tuple
    null_vars: tuple

    def canonical_instance(self) -> Instance:
        """Constant variables as distinct constants, null variables as
        distinct nulls."""
        env: dict = {}
        for i, x in enumerate(self.const_vars):
            env[x] = Const(f"c#{i + 1}")
        for j, y in enumerate(self.null_vars):
            env[y] = FreshNull(j + 1)
        rels = {}
        for atom in self.atoms:
            rels[atom.rel] = len(atom.args)
        facts = [
            Fact(
                atom.rel,
                tuple(env[a.name] if isinstance(a, Var) else a for a in atom.args),
            )
            for atom in self.atoms
        ]
        return Instance(Schema(rels), facts)

    def query(self) -> Formula:
        """exists nulls: conjunction of the atoms."""
        return exists_all(self.null_vars, conj(self.atoms))


def _atom_form(atoms, cmap, const_vars, null_vars) -> tuple:
    """`least_form` of the atoms over the numberings from 1 of
    `const_vars` (kind "x") and of `null_vars` (kind "y"), constant
    variables first.  A literal constant is the part `("k", text)`, and
    `cmap` fixes the number of each constant variable it names (callers
    fix all of them or none)."""
    index: dict = {}
    templates = []
    for a in atoms:
        args = []
        for v in a.args:
            if not isinstance(v, Var):
                args.append(("k", v.text))
            elif v.name in cmap:
                args.append(("x", cmap[v.name]))
            else:
                args.append(index.setdefault(v.name, len(index)))
        templates.append((a.rel, tuple(args)))
    kinds = {v: "y" for v in null_vars} | {v: "x" for v in const_vars}
    return least_form(templates, [kinds[v] for v in index])


def make_block_type(atoms, const_vars, null_vars) -> BlockType:
    """Canonicalize an atom set into a BlockType (renaming-invariant)."""
    atoms = tuple(dict.fromkeys(atoms))
    const_vars = tuple(dict.fromkeys(const_vars))
    null_vars = tuple(dict.fromkeys(null_vars))
    key = _atom_form(atoms, {}, const_vars, null_vars)
    renamed = []
    for rel, parts in key:
        args = []
        for kind, v in parts:
            if kind == "x":
                args.append(Var(f"x{v}"))
            elif kind == "y":
                args.append(Var(f"y{v}"))
            else:
                args.append(Const(v))
        renamed.append(RelAtom(rel, tuple(args)))
    return BlockType(
        tuple(renamed),
        tuple(f"x{i + 1}" for i in range(len(const_vars))),
        tuple(f"y{j + 1}" for j in range(len(null_vars))),
    )


def block_type_key(t: BlockType):
    return tuple(
        (
            a.rel,
            tuple(
                ("v", v.name) if isinstance(v, Var) else ("#", v.text)
                for v in a.args
            ),
        )
        for a in t.atoms
    )


# ---------------------------------------------------------------------------
# Type generation.

def _reject_consequent_constants(m: SchemaMapping):
    for tgd in m.tgds:
        for atom in tgd.consequent:
            if any(not isinstance(a, Var) for a in atom.args):
                raise MappingError(
                    "the laconic rewriting is defined for variable-only "
                    "consequents; constants in consequent atoms are not "
                    "supported (they are fine in antecedents)"
                )


def generate_block_types(m: SchemaMapping) -> tuple:
    """All fact-block types that the core solutions of m can realize.

    For every dependency and every subset of its existential variables:
    keep the consequent atoms avoiding the dropped variables, provided
    the result is nonempty, connected, has a core canonical instance,
    and can be separated from the surrounding consequent by a
    retraction.  Deduplicated up to renaming.
    """
    m = decompose(m)
    _reject_consequent_constants(m)
    seen = {}
    for tgd in m.tgds:
        atoms = tgd.consequent
        ev = list(tgd.exist_vars)
        if 2 ** len(ev) > TYPES_BUDGET:
            raise MappingError(
                f"block types: {2 ** len(ev)} subsets of one dependency's "
                f"{len(ev)} existential variables exceed the budget of {TYPES_BUDGET}"
            )
        for bits in range(2 ** len(ev)):
            dropped = {ev[i] for i in range(len(ev)) if not bits >> i & 1}
            kept_atoms = tuple(
                a
                for a in atoms
                if not any(
                    isinstance(v, Var) and v.name in dropped for v in a.args
                )
            )
            if not kept_atoms:
                continue
            kept_nulls = [
                y
                for y in ev
                if y not in dropped
                and any(
                    isinstance(v, Var) and v.name == y
                    for a in kept_atoms
                    for v in a.args
                )
            ]
            const_vars = []
            for a in kept_atoms:
                for v in a.args:
                    if (
                        isinstance(v, Var)
                        and v.name not in tgd.exist_vars
                        and v.name not in const_vars
                    ):
                        const_vars.append(v.name)
            if not _separable_for(tgd, kept_atoms, set(kept_nulls)):
                continue
            t = make_block_type(kept_atoms, const_vars, kept_nulls)
            inst = t.canonical_instance()
            if len(blocks(inst)) != 1:
                continue
            if not is_core(inst):
                continue
            seen.setdefault(block_type_key(t), t)
    return tuple(seen[k] for k in sorted(seen))


def _separable_for(tgd: TGD, kept_atoms, kept_nulls) -> bool:
    """Whether the consequent atoms touching a kept null map into the
    kept atoms, fixing the kept nulls and sending each dropped null to
    one value.  Consequents are variable-only, and a firing tuple may
    give every universal variable the same constant, so they are all
    coded as one shared value (None)."""
    ev = set(tgd.exist_vars)
    kept_set = set(kept_atoms)

    def value(v: Var):
        if v.name in kept_nulls:
            return v
        return PatternVar(v.name) if v.name in ev else None

    touching = [
        (a.rel, tuple(value(v) for v in a.args))
        for a in tgd.consequent
        if a not in kept_set and any(v.name in kept_nulls for v in a.args)
    ]
    target = [Fact(a.rel, tuple(value(v) for v in a.args)) for a in kept_atoms]
    return match_pattern(touching, target) is not None


# ---------------------------------------------------------------------------
# Embeddings and automorphisms of block types.

def _encode_type(t2: BlockType) -> Encoding:
    """t2's canonical instance as a search target: its variables coded
    by position (constant variables first), then its atoms."""
    enc = Encoding()
    for x in t2.const_vars + t2.null_vars:
        enc.code(Var(x))
    for a in dict.fromkeys(t2.atoms):
        enc.add(a)
    return enc


def _twins(t2: BlockType, enc: Encoding) -> list:
    """`model.twin_classes` of t2's variables, by code in `enc`."""
    nvars = len(t2.const_vars) + len(t2.null_vars)
    templates = [
        (rel, tuple(c if c < nvars else ("k", c) for c in row))
        for rel, rows in enc.rows.items() for row in rows
    ]
    return twin_classes(templates, [k >= len(t2.const_vars) for k in range(nvars)])


def _twin_least(codes, twin) -> tuple:
    """The least tuple that permutations within t2's twin classes make
    of `codes` (`twin` as `_twins` gives it): each class's codes, in the
    order they first occur, take the class's codes in increasing order."""
    members: dict = {}
    for c, cls in enumerate(twin):
        members.setdefault(cls, []).append(c)
    free = {cls: iter(cs) for cls, cs in members.items()}
    new: dict = {}
    return tuple([new[c] if c in new else new.setdefault(c, next(free[twin[c]])) for c in codes])


def _type_homs(t: BlockType, t2: BlockType, enc, twin, injective: bool = False):
    """Homomorphisms of t's atoms into t2's canonical instance sending
    constant variables to constant variables and null variables
    injectively to null variables, as (codes, onto): the codes in `enc`
    of the images of t's variables, constant variables first.

    The variables of t get values one at a time, each trying t2's
    variables of its kind in code order, and an atom is checked once its
    last variable has one; so the homomorphisms come out one by one, in
    increasing order of their codes, with none listed ahead.  `onto`
    tells whether every atom of t2 is hit.  `injective` also makes the
    constant part injective.  `enc` is `_encode_type(t2)`; the search
    adds no code to it.

    Given t2's `_twins` as `twin`, only the twin-lex-leaders come out:
    of two twins, the first (in code order) has the smaller least
    preimage, an unused one counting as past the end.  They are the
    homomorphisms that are least among their images under permutations
    within the twin classes (`_twin_least` of each is itself).  A value
    is first taken only after its previous twin, so no other one is
    listed.  A `twin` of `list(range(n))` puts every variable in a class
    of its own, and so lists every homomorphism.
    """
    rows = enc.rows
    m, m2 = len(t.const_vars), len(t2.const_vars)
    kinds = (range(m2), range(m2, m2 + len(t2.null_vars)))
    index = {x: k for k, x in enumerate(t.const_vars + t.null_vars)}
    nvars = len(index)
    atoms = []
    checks: list = [[] for _ in range(nvars)]  # atoms by their last variable
    for a in dict.fromkeys(t.atoms):
        args = tuple(-1 - index[v.name] if isinstance(v, Var) else enc.codes.get(v) for v in a.args)
        if None in args or a.rel not in rows:
            return  # a literal constant or a relation that t2 lacks
        atoms.append((a.rel, args))
        last = max([-1 - c for c in args if c < 0], default=-1)
        if last >= 0:
            checks[last].append((a.rel, args))
        elif args not in rows[a.rel]:
            return
    ntargets = sum(map(len, rows.values()))
    prev = []  # the previous twin of each code
    latest: dict = {}
    for c, cls in enumerate(twin):
        prev.append(latest.get(cls, -1))
        latest[cls] = c
    asn = [-1] * nvars
    used = [0] * len(prev)  # how many of the variables before have each value

    def image_size():
        return len({(rel, tuple([c if c >= 0 else asn[-1 - c] for c in args])) for rel, args in atoms})

    if not nvars:
        yield (), image_size() == ntargets
        return
    its = [iter(kinds[k >= m]) for k in range(nvars)]
    k = 0
    while True:
        for c in its[k]:
            if used[c]:
                if k >= m or injective:
                    continue
            elif prev[c] >= 0 and not used[prev[c]]:
                continue
            asn[k] = c
            if all(
                tuple([d if d >= 0 else asn[-1 - d] for d in args]) in rows[rel]
                for rel, args in checks[k]
            ):
                break
        else:  # no value left: back to the previous variable
            k -= 1
            if k < 0:
                return
            used[asn[k]] -= 1
            continue
        if k + 1 == nvars:
            yield tuple(asn), image_size() == ntargets
            continue
        used[c] += 1
        k += 1
        its[k] = iter(kinds[k >= m])


def _maps(t: BlockType, t2: BlockType, codes) -> tuple:
    """The const map and null map of t's variables that `codes` give."""
    names2 = t2.const_vars + t2.null_vars
    images = [names2[c] for c in codes]
    m = len(t.const_vars)
    return dict(zip(t.const_vars, images[:m])), dict(zip(t.null_vars, images[m:]))


# ---------------------------------------------------------------------------
# Preconditions.

def _precon_prime(t: BlockType, m: SchemaMapping) -> Formula:
    """Certain realization of t at the answer tuple, minus every way the
    type could collapse: two nulls forced equal (one conjunct per
    unordered pair, yi replaced by yj for i < j; the swapped substitution
    is the same formula up to renaming) or a null forced to a constant."""
    parts = [Certain(t.query(), m)]
    ys = t.null_vars
    for i, yi in enumerate(ys):
        rest = tuple(y for y in ys if y != yi)
        for yj in ys[i + 1:]:
            collapsed = [substitute(a, {yi: Var(yj)}) for a in t.atoms]
            parts.append(
                Not(Certain(exists_all(rest, conj(collapsed)), m))
            )
    taken = set(t.const_vars) | set(t.null_vars)
    for yi in ys:
        w = "xc"
        k = 0
        while w in taken:
            k += 1
            w = f"xc{k}"
        rest = tuple(y for y in ys if y != yi)
        collapsed = [substitute(a, {yi: Var(w)}) for a in t.atoms]
        parts.append(
            Not(Exists(w, Certain(exists_all(rest, conj(collapsed)), m)))
        )
    return conj(parts)


def _fact_equality(a1: RelAtom, a2: RelAtom, null_vars) -> Formula | None:
    """Condition on the constant variables under which the two atoms
    denote the same fact (null variables stand for distinct nulls).
    None when they can never coincide."""
    if a1.rel != a2.rel or len(a1.args) != len(a2.args):
        return None
    eqs = []
    for v1, v2 in zip(a1.args, a2.args):
        n1 = isinstance(v1, Var) and v1.name in null_vars
        n2 = isinstance(v2, Var) and v2.name in null_vars
        if n1 or n2:
            if not (n1 and n2 and v1.name == v2.name):
                return None
            continue
        if v1 == v2:
            continue
        if isinstance(v1, Var) or isinstance(v2, Var):
            eqs.append(Eq(v1, v2))
        else:
            return None  # distinct literal constants
    return conj(eqs)


def _proper_instantiation(t: BlockType, t2: BlockType, ren: dict) -> Formula:
    """Condition (over t2's constant variables) under which the image of
    t under the embedding `ren` is a proper sub-block of t2's
    realization.  A strict embedding can degenerate when identifying
    constants makes the missing atoms coincide with image atoms."""
    image = list(
        dict.fromkeys(
            RelAtom(
                a.rel,
                tuple(Var(ren[v.name]) if isinstance(v, Var) else v for v in a.args),
            )
            for a in t.atoms
        )
    )
    missing = [a for a in t2.atoms if a not in image]
    options = []
    for a in missing:
        coincide = []
        for b in image:
            eq = _fact_equality(a, b, set(t2.null_vars))
            if eq is not None:
                coincide.append(eq)
        options.append(neg(disj(coincide)) if coincide else TRUE)
    return disj(options)


def preconditions(types, m: SchemaMapping) -> list:
    """For every t in `types`, in order, a formula over the source (free
    variables: t's constant variables) holding at exactly the tuples
    where t is realized in the core universal solution.

    Each type's `_precon_prime`, its copy over v1..vm, its encoding and
    its symmetries are built once, however many types embed into it."""
    primes = [_precon_prime(t, m) for t in types]
    targets = [_guard_target(t2, prime) for t2, prime in zip(types, primes)]
    return [precondition(t, prime, targets) for t, prime in zip(types, primes)]


def _guard_target(t2: BlockType, prime: Formula):
    """What a guard against t2 needs: t2, its encoding, its `_twins`, its
    automorphisms that are twin-lex-leaders but the identity, the
    renaming of its constant variables to v1..vm, and its
    `_precon_prime` renamed.  Every automorphism is one of those (or the
    identity) followed by a permutation within the twin classes."""
    enc = _encode_type(t2)
    twin = _twins(t2, enc)
    autos = [codes for codes, onto in _type_homs(t2, t2, enc, twin, True) if onto]
    fresh = {x: Var(f"v{k + 1}") for k, x in enumerate(t2.const_vars)}
    return t2, enc, twin, autos[1:], fresh, substitute(prime, fresh)


def precondition(t: BlockType, base: Formula, targets) -> Formula:
    """t's precondition: `base` (t's `_precon_prime`), guarded by one
    negated guard per orbit of t2's automorphisms on the strict
    embeddings of t into t2, for each type t2 of `targets` (as
    `_guard_target` builds them).  Embeddings that differ by an automorphism σ of t2
    give guards equal up to renaming v1..vm by σ, so only the least
    embedding of each orbit (by the codes of its images) is kept.

    `_type_homs` lists only the embeddings least under t2's twin
    permutations; one is the least of its orbit iff no other automorphism
    followed by the twin permutation making it least (`_twin_least`)
    gives a smaller one.  For fan-k and the symmetric join every
    automorphism permutes twins, so the twin-lex-leaders are the orbits:
    fan-k gets B(k) - 1 guards (B the Bell numbers), not k^k - k!.  The
    guards are counted against `PRECONDITION_BUDGET` as they are found."""
    guards = []
    for t2, enc, twin, autos, fresh, prime in targets:
        for codes, onto in _type_homs(t, t2, enc, twin):
            if onto or any(_twin_least([a[c] for c in codes], twin) < codes for a in autos):
                continue
            if len(guards) == PRECONDITION_BUDGET:
                raise MappingError(
                    f"preconditions: one type's strict embeddings up to symmetry "
                    f"exceed the budget of {PRECONDITION_BUDGET}"
                )
            cmap, nmap = _maps(t, t2, codes)
            eqs = [Eq(Var(x), fresh[cmap[x]]) for x in t.const_vars]
            inner = conj(
                eqs
                + [prime]
                + [substitute(_proper_instantiation(t, t2, cmap | nmap), fresh)]
            )
            guards.append(
                Not(exists_all([v.name for v in fresh.values()], inner))
            )
    return conj([base] + guards)


# ---------------------------------------------------------------------------
# Side conditions.

def _order_type(names, values) -> Formula:
    """Complete description of the order pattern of `values`: for each
    pair exactly one of <, =, > holds."""
    parts = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if values[i] < values[j]:
                parts.append(Lt(Var(names[i]), Var(names[j])))
            elif values[i] == values[j]:
                parts.append(Eq(Var(names[i]), Var(names[j])))
            else:
                parts.append(Lt(Var(names[j]), Var(names[i])))
    return conj(parts)


def _realized_block_form(t: BlockType, values):
    """Canonical form of the block t(values, fresh distinct nulls).

    Two assignments realize copy blocks iff their forms are equal.
    Nulls are canonicalized by minimizing over renamings, so collapsed
    (non-injective) assignments compare correctly.
    """
    return _atom_form(t.atoms, dict(zip(t.const_vars, values)), (), t.null_vars)


def _order_key(values) -> tuple:
    """The order pattern of `values` as the dense rank of each entry."""
    ranks = {v: r for r, v in enumerate(sorted(set(values)))}
    return tuple(ranks[v] for v in values)


def side_condition(t: BlockType) -> SideCondition:
    """Order constraint making the type rigid without losing any block.

    Scan the assignments of the constant variables into an ordered
    universe of |vars| values (every order pattern occurs there), skipping
    those whose order pattern is excluded: when an assignment realizes a
    copy of the block of the first earlier one of its form, exclude that
    one's complete order pattern.  One pass gives what rescanning from the
    start after each exclusion gives, since a rescan sees the same prefix
    minus the excluded assignments; a first-of-form entry whose pattern
    is excluded meanwhile only hands its form on (excluding again is a
    no-op).  Rigid types get `true`.
    """
    names = t.const_vars
    m = len(names)
    if m <= 1:
        return TRUE
    if m**m > SIDE_CONDITION_BUDGET:
        raise MappingError(
            f"side conditions: {m**m} assignments of one type's {m} constant "
            f"variables exceed the budget of {SIDE_CONDITION_BUDGET}"
        )
    excluded: dict = {}  # order patterns, in the order of exclusion
    first_of_form: dict = {}
    for values in itertools.product(range(m), repeat=m):
        key = _order_key(values)
        if key in excluded:
            continue
        form = _realized_block_form(t, values)
        prev = first_of_form.get(form)
        if prev is not None:
            excluded.setdefault(_order_key(prev))
        first_of_form[form] = values
    return conj([Not(_order_type(names, key)) for key in excluded])


# ---------------------------------------------------------------------------
# Assembly.

def laconify(m: SchemaMapping, *, side_conditions: bool = True) -> SchemaMapping:
    """Logically equivalent mapping whose canonical solution is the core.

    The output antecedents contain certain[...] nodes referring to the
    (decomposed) input mapping; eliminate them with
    `dx.certain.eliminate_mapping` when a pure formula is needed.
    """
    if not mapping_certain_free(m):
        raise MappingError("laconify input must be certain[...]-free")
    md = decompose(m)
    types = generate_block_types(md)
    tgds = []
    for t, ante in zip(types, preconditions(types, md)):
        if side_conditions:
            ante = conj([ante, side_condition(t)])
        tgds.append(TGD(ante, t.null_vars, t.atoms))
    return SchemaMapping(m.source, m.target, tuple(tgds))
