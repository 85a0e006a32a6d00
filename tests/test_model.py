import copy
import pathlib
import pickle
import random
import re
from collections import Counter
from itertools import groupby

import pytest
from helpers import (
    brute_homomorphism,
    brute_is_core,
    brute_isomorphic,
    inst,
    null_pattern,
    ref_fact_key,
    ref_facts_sorted,
    ref_format_facts,
    ref_homomorphic,
    ref_instances_isomorphic,
    ref_parse_facts,
    ref_tokens,
    ref_value_key,
)
from hypothesis import assume, example, given, settings, strategies as st

from dx.chase import naive_chase
from dx.laconify import laconify
from dx.model import (
    _FACT_TOKEN,
    Const,
    Fact,
    FreshNull,
    Instance,
    Lexer,
    MappingError,
    Schema,
    SkolemNull,
    blocks,
    compute_core,
    format_facts,
    instances_isomorphic,
    is_core,
    is_null,
    match_pattern,
    parse_facts,
    quote,
    sort_plain_lines,
)
from dx.parser import _TOKEN, parse_formula, parse_mapping
from dx.verify import random_source_instance

S2 = Schema({"S": 2})
ST = Schema({"S": 2, "T": 2})
R2 = Schema({"R": 2})


def test_const_rejects_reserved_prefix():
    with pytest.raises(ValueError):
        Const("@x")
    with pytest.raises(ValueError):
        Const("")


def test_value_checks_keep_their_messages():
    for make, message in [
        (lambda: Const(""), "constant text must be nonempty"),
        (lambda: Const("@x"), "constant text may not start with '@'"),
        (lambda: FreshNull(0), "fresh null id must be positive"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            make()


def test_values_and_facts_keep_their_reprs_and_fields():
    n = SkolemNull("f", (Const("a"), FreshNull(3)))
    f = Fact("R", (Const("it's"), n))
    assert repr(n) == "SkolemNull('f', (Const('a'), FreshNull(3)))"
    assert repr(f) == "Fact(rel='R', args=(Const(\"it's\"), " + repr(n) + "))"
    assert (n.symbol, n.args) == ("f", (Const("a"), FreshNull(3)))
    assert (f.rel, f.args) == ("R", (Const("it's"), n))
    assert (Const("a").text, FreshNull(3).id) == ("a", 3)
    for v in (Const("a"), FreshNull(3), n, f):
        assert copy.copy(v) == v and pickle.loads(pickle.dumps(v)) == v
        with pytest.raises(AttributeError):
            v.extra = 1


# Values for the order properties: constants whose text holds quoting and
# escape characters, digit strings such as '10' and '9' and mixed case;
# fresh nulls; and Skolem nulls nested up to depth 3.
_order_leaves = st.one_of(
    st.one_of(
        st.sampled_from(["10", "9", "A", "a", "x,y", "f(a)", "it's", "\\", "a@b"]),
        st.text(alphabet="aAzZ09' ,()\\@", min_size=1, max_size=5),
    ).filter(lambda t: not t.startswith("@")).map(Const),
    st.integers(min_value=1, max_value=12).map(FreshNull),
)


def _nest(children):
    return st.one_of(_order_leaves, st.builds(
        SkolemNull,
        st.sampled_from(["f", "g", "f1_2"]),
        st.lists(children, max_size=3).map(tuple),
    ))


_order_values = _nest(_nest(_nest(_order_leaves)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_order_values, max_size=12))
def test_native_value_order_is_the_reference_order(values):
    assert sorted(values) == sorted(values, key=ref_value_key)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(_order_values, _order_values).map(lambda args: Fact("R", args)),
    st.tuples(_order_values).map(lambda args: Fact("Q", args)),
), max_size=10))
def test_facts_sorted_is_the_reference_order(facts):
    i = Instance(Schema({"R": 2, "Q": 1}), facts)
    assert list(i.facts_sorted) == sorted(set(facts), key=ref_fact_key)
    assert list(i.dom) == sorted({a for f in facts for a in f.args}, key=ref_value_key)


# Relation names that prefix one another, a 0-ary relation, and a name
# holding `%`, which `format_facts`'s line templates must escape.
_WRITE_SCHEMA = Schema({"R": 2, "R1": 1, "R_": 2, "Z": 0, "P%s": 1})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["R", "R_"]), st.tuples(_order_values, _order_values)),
    st.tuples(st.sampled_from(["R1", "P%s"]), st.tuples(_order_values)),
    st.just(("Z", ())),
), max_size=16))
def test_facts_sorted_and_format_facts_match_the_reference(facts):
    i = Instance(_WRITE_SCHEMA, [Fact(rel, args) for rel, args in facts])
    assert i.facts_sorted == ref_facts_sorted(i)
    assert format_facts(i) == ref_format_facts(i)


# Plain values: bare constants, and Skolem nulls over them whose symbols
# prefix one another.  Their lines, sorted as strings by `sort_plain_lines`,
# are in the order `format_facts` gets by sorting argument tuples.  The
# nested Skolem values here are ones `dx chase` never prints.
_plain_leaves = st.one_of(
    st.sampled_from(["10", "9", "A", "a", "_", "c1", "c10"]),
    st.text(alphabet="aAzZ09_", min_size=1, max_size=3),
).map(Const)


def _plain_nest(children):
    return st.one_of(_plain_leaves, st.builds(
        SkolemNull,
        st.sampled_from(["f", "f1", "f1_1", "g"]),
        st.lists(children, max_size=3).map(tuple),
    ))


_plain_values = _plain_nest(_plain_nest(_plain_nest(_plain_leaves)))
_PLAIN_SCHEMA = Schema({"R": 2, "R1": 1, "R_": 2, "Z": 0})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(["R", "R_"]), st.tuples(_plain_values, _plain_values)),
    st.tuples(st.just("R1"), st.tuples(_plain_values)),
    st.just(("Z", ())),
), max_size=16))
def test_format_facts_sorts_plain_lines_as_strings(facts):
    i = Instance(_PLAIN_SCHEMA, [Fact(rel, args) for rel, args in facts])
    want = ref_format_facts(i)
    assert format_facts(i) == want
    assert "facts_sorted" not in i.__dict__
    for _rel, group in groupby(want.splitlines(True), lambda line: line[:line.index("(")]):
        lines = list(group)
        assert sort_plain_lines("".join(reversed(lines))) == "".join(lines)


def test_format_facts_reads_a_null_as_above_every_constant():
    # `?` lies below `c`: sorted as written, the null's line comes first
    i = parse_facts("S(c1, ?f1_1(c1, c2)).\nS(c1, c1).\n", S2)
    assert format_facts(i) == "S(c1, c1).\nS(c1, ?f1_1(c1, c2)).\n"
    assert "facts_sorted" not in i.__dict__


@pytest.mark.parametrize("schema, facts", [
    (S2, [("S", (Const("a b"), Const("a"))), ("S", (Const("a"), Const("a")))]),
    (S2, [("S", (Const("a"), FreshNull(3))), ("S", (Const("a"), Const("b")))]),
    (Schema({"P%s": 1, "P": 1}), [("P%s", (Const("b"),)), ("P%s", (Const("a"),)), ("P", (Const("c"),))]),
    # sorted as written, `?f a(` comes before `?f(`
    (S2, [("S", (Const("c"), SkolemNull("f a", (Const("c"),)))),
          ("S", (Const("c"), SkolemNull("f", (Const("c"),))))]),
], ids=["quoted-constant", "fresh-null", "percent-relation", "spaced-symbol"])
def test_format_facts_falls_back_to_the_canonical_order(schema, facts):
    i = Instance(schema, [Fact(rel, args) for rel, args in facts])
    assert format_facts(i) == ref_format_facts(i)


@settings(max_examples=150, deadline=None)
@given(_order_values, _order_values)
def test_values_are_equal_exactly_when_their_reference_keys_are(a, b):
    assert (a == b) == (ref_value_key(a) == ref_value_key(b))
    if type(a) is not type(b):
        assert a != b
    if isinstance(a, SkolemNull):
        assert Fact(a.symbol, a.args) != a


def test_instance_checks_arity():
    with pytest.raises(MappingError):
        Instance(S2, [Fact("S", (Const("a"),))])
    with pytest.raises(MappingError):
        Instance(S2, [Fact("T", (Const("a"), Const("b")))])


def test_blocks_examples():
    i = inst(ST, ("S", "a", FreshNull(1)), ("T", "b", FreshNull(1)), ("S", "c", "c"))
    comps = blocks(i)
    assert sorted(len(b.facts) for b in comps) == [1, 2]
    assert frozenset().union(*(b.facts for b in comps)) == i.facts
    assert blocks(Instance(ST, [])) == []
    # two facts with distinct nulls stay separate components
    j = inst(R2, ("R", "a", FreshNull(1)), ("R", "a", FreshNull(2)))
    assert [len(b.facts) for b in blocks(j)] == [1, 1]


def _homomorphism(i: Instance, j: Instance):
    """A homomorphism i -> j fixing constants, as {null: value}, by
    `match_pattern` on i's facts with nulls as search variables; or None."""
    asn = match_pattern(null_pattern(i), j.facts_sorted)
    return None if asn is None else {pv.name: v for pv, v in asn.items()}


def _image(h, f: Fact) -> Fact:
    return Fact(f.rel, tuple(h(a) for a in f.args))


def test_match_pattern_on_instance_examples():
    i = inst(S2, ("S", "a", FreshNull(1)))
    j = inst(S2, ("S", "a", "b"))
    h = _homomorphism(i, j)
    assert h is not None and h[FreshNull(1)] == Const("b")
    assert _homomorphism(i, inst(S2, ("S", "b", "c"))) is None

    n, m1, m2 = FreshNull(5), FreshNull(11), FreshNull(12)
    i2 = inst(S2, ("S", "a", n), ("S", "b", n))
    j2 = inst(S2, ("S", "a", m1), ("S", "b", m1), ("S", "a", m2))
    h2 = _homomorphism(i2, j2)
    assert h2[n] == m1


def test_homomorphism_image_is_contained():
    i = inst(S2, ("S", "a", FreshNull(1)))
    j = inst(S2, ("S", "a", "b"))
    h = _homomorphism(i, j)
    assert {_image(lambda v: h.get(v, v), f) for f in i.facts} <= j.facts


def test_compute_core_examples():
    ground = inst(S2, ("S", "a", "b"), ("S", "b", "c"))
    core, retr = compute_core(ground)
    assert core == ground
    assert all(retr[v] == v for v in ground.dom)

    j = inst(R2, ("R", "a", FreshNull(1)), ("R", "a", FreshNull(2)))
    core, retr = compute_core(j)
    assert len(core.facts) == 1
    assert not is_core(j)
    assert is_core(core)
    for f in j.facts:
        assert _image(retr.__getitem__, f) in core.facts


def test_compute_core_total_relation_fixture():
    # chase of Rxy -> exists z (Sxz & Syz) over a total 4-element R,
    # built directly: the core keeps one null per unordered pair.
    consts = [Const(c) for c in "abcd"]
    facts = []
    for x in consts:
        for y in consts:
            n = SkolemNull("f", (x, y))
            facts += [Fact("S", (x, n)), Fact("S", (y, n))]
    j = Instance(S2, facts)
    assert len(j.facts) == 28 and len(j.nulls) == 16
    core, retr = compute_core(j)
    assert len(core.nulls) == 6
    assert len(core.facts) == 12
    # each surviving null is shared by exactly two S-facts with distinct
    # constant endpoints
    for n in core.nulls:
        ends = {f.args[0] for f in core.facts if f.args[1] == n}
        assert len(ends) == 2
    assert all(retr[v] == v for v in core.dom)
    assert is_core(core)


def test_is_core_examples():
    assert is_core(inst(S2, ("S", "a", "b")))
    assert not is_core(inst(R2, ("R", "a", FreshNull(1)), ("R", "a", FreshNull(2))))
    # chain block: R2(x,y), R2(z,y), R1(z,u) with x constant
    sch = Schema({"R1": 2, "R2": 2})
    y, z, u = FreshNull(1), FreshNull(2), FreshNull(3)
    t2 = inst(sch, ("R2", "a", y), ("R2", z, y), ("R1", z, u))
    assert is_core(t2)


def test_isomorphic_examples():
    assert instances_isomorphic(
        inst(S2, ("S", "a", FreshNull(1))), inst(S2, ("S", "a", FreshNull(9)))
    )
    assert not instances_isomorphic(
        inst(S2, ("S", "a", FreshNull(1))), inst(S2, ("S", "b", FreshNull(1)))
    )
    n, m1, m2 = FreshNull(5), FreshNull(11), FreshNull(12)
    assert not instances_isomorphic(
        inst(S2, ("S", "a", n), ("S", "b", n)),
        inst(S2, ("S", "a", m1), ("S", "b", m2)),
    )


def test_isomorphism_requires_matching_ground_facts():
    assert not instances_isomorphic(
        inst(S2, ("S", "a", "a")), inst(S2, ("S", "b", "b"))
    )


# -- randomized cross-checks against the brute-force oracles ----------------

def _random_target_instance(seed):
    import random

    rng = random.Random(f"ti:{seed}")
    values = [Const(c) for c in "abc"] + [FreshNull(i) for i in (1, 2, 3)]
    facts = [
        Fact("S", (rng.choice(values), rng.choice(values)))
        for _ in range(rng.randint(0, 5))
    ]
    return Instance(S2, facts)


@pytest.mark.parametrize("seed", range(120))
def test_homomorphism_matches_brute_force(seed):
    i = _random_target_instance(f"a{seed}")
    j = _random_target_instance(f"b{seed}")
    ours = _homomorphism(i, j)
    brute = brute_homomorphism(i, j)
    assert (ours is None) == (brute is None)
    if ours is not None:
        assert {_image(lambda v: ours.get(v, v), f) for f in i.facts} <= j.facts


@pytest.mark.parametrize("seed", range(120))
def test_core_and_iso_match_brute_force(seed):
    j = _random_target_instance(seed)
    assert is_core(j) == brute_is_core(j)
    core, retr = compute_core(j)
    assert is_core(core)
    assert core.facts <= j.facts
    assert all(retr[v] == v for v in core.dom)
    assert {_image(retr.__getitem__, f) for f in j.facts} <= core.facts
    # the core is homomorphically equivalent to the original
    assert ref_homomorphic(core, j)
    assert ref_homomorphic(j, core)

    k = _random_target_instance(f"x{seed}")
    assert instances_isomorphic(j, k) == brute_isomorphic(j, k)


@pytest.mark.parametrize("seed", range(60))
def test_blocks_partition_and_core_invariants(seed):
    j = _random_target_instance(f"p{seed}")
    comps = blocks(j)
    if comps:
        assert frozenset().union(*(b.facts for b in comps)) == j.facts
    assert sum(len(b.facts) for b in comps) == len(j.facts)
    # homomorphic equivalence iff isomorphic cores
    k = _random_target_instance(f"q{seed}")
    both_ways = ref_homomorphic(j, k) and ref_homomorphic(k, j)
    cores_iso = instances_isomorphic(compute_core(j)[0], compute_core(k)[0])
    assert both_ways == cores_iso


def test_is_core_invariant_under_renaming():
    j = inst(S2, ("S", "a", FreshNull(1)), ("S", "a", FreshNull(2)))
    k = inst(S2, ("S", "a", FreshNull(7)), ("S", "a", FreshNull(9)))
    assert instances_isomorphic(j, k)
    assert is_core(j) == is_core(k)


# -- isomorphism by block forms against the block matcher ---------------------

_ISO = Schema({"U": 1, "R": 2, "T": 3})
_ISO_CONSTS = [Const(c) for c in ("a", "b", "c", "d")]


@st.composite
def _block_copies(draw):
    """Copies of one to four block shapes: each shape is 1-5 atoms over
    up to 4 null slots and 2 constant slots, and each copy fills the
    constant slots from a pool of 4, so many copies share a signature.
    The copies, as (shape, constants, Skolem or fresh nulls), make
    20-300 distinct facts."""
    slot = st.one_of(st.integers(0, 3).map(lambda v: ("n", v)), st.integers(0, 1).map(lambda c: ("c", c)))
    atom = st.sampled_from(sorted(_ISO.names())).flatmap(
        lambda rel: st.tuples(st.just(rel), st.lists(slot, min_size=_ISO.arity(rel), max_size=_ISO.arity(rel)))
    )
    shapes = draw(st.lists(st.lists(atom, min_size=1, max_size=5), min_size=1, max_size=4))
    copies = draw(st.lists(
        st.tuples(st.integers(0, len(shapes) - 1), st.lists(st.sampled_from(_ISO_CONSTS), min_size=2, max_size=2),
                  st.booleans()),
        min_size=8, max_size=80,
    ))
    assume(20 <= len(_build_copies(shapes, copies, _null_i)) <= 300)
    return shapes, copies


def _null_i(k, v, skolem):
    return SkolemNull("f", (Const(f"k{k}"), Const(f"v{v}"))) if skolem else FreshNull(8 * k + v + 1)


def _null_j(k, v, skolem):
    return FreshNull(8 * k + v + 1) if skolem else SkolemNull("g", (FreshNull(8 * k + v + 1),))


def _build_copies(shapes, copies, null):
    """The facts of the copies; `null(k, v, skolem)` names null slot v of copy k."""
    facts = set()
    for k, (shape, consts, skolem) in enumerate(copies):
        for rel, args in shapes[shape]:
            facts.add(Fact(rel, tuple(consts[i] if kind == "c" else null(k, i, skolem) for kind, i in args)))
    return facts


def _perturbed(facts, rng):
    """One fact changed at one argument: to a constant or a null of the
    instance, or to a new null."""
    facts = sorted(facts)
    old = rng.choice(facts)
    pos = rng.randrange(len(old.args))
    pool = sorted({a for f in facts for a in f.args}) + [FreshNull(10**6)]
    args = list(old.args)
    args[pos] = rng.choice(pool)
    return Instance(_ISO, [f for f in facts if f != old] + [Fact(old.rel, tuple(args))])


@settings(max_examples=80, deadline=None)
@given(_block_copies(), st.randoms(use_true_random=False))
def test_isomorphism_matches_the_block_matcher(case, rng):
    """Renamed nulls (fresh and Skolem nulls mixed), the copies in
    another order, so the blocks sort differently, and a one-fact
    perturbation: block forms answer as the block matcher does."""
    shapes, copies = case
    i = Instance(_ISO, _build_copies(shapes, copies, _null_i))
    swapped = rng.sample(copies, len(copies))
    j = Instance(_ISO, _build_copies(shapes, swapped, _null_j))
    assert instances_isomorphic(i, j) and ref_instances_isomorphic(i, j)
    for _ in range(3):
        k = _perturbed(j.facts, rng)
        assert instances_isomorphic(i, k) == ref_instances_isomorphic(i, k)
        assert instances_isomorphic(k, i) == ref_instances_isomorphic(k, i)


def _sparse_pairs(n: int) -> Instance:
    """n R(x,y) facts over n constants, few of them symmetric."""
    rng = random.Random(n)
    rows = {(f"c{k // n}", f"c{k % n}") for k in rng.sample(range(n * n), n)}
    return Instance(Schema({"R": 2}), [Fact("R", (Const(x), Const(y))) for x, y in rows])


def _laconic_chase_and_core(n: int):
    demo = pathlib.Path(__file__).resolve().parents[1] / "demo"
    m = parse_mapping((demo / "symmetric_join.map").read_text(encoding="utf-8"))
    i = _sparse_pairs(n)
    return naive_chase(laconify(m), i), compute_core(naive_chase(m, i))[0]


def test_laconic_chase_is_isomorphic_to_the_core_at_1280_pairs():
    """About 1,280 blocks; the block matcher's pairing recursed once per
    block and raised RecursionError here."""
    lac, core = _laconic_chase_and_core(1280)
    assert len(blocks(lac)) > 1200
    assert instances_isomorphic(lac, core)


def test_isomorphism_at_5000_blocks_and_after_one_changed_constant():
    lac, core = _laconic_chase_and_core(5120)
    assert len(blocks(lac)) >= 5000
    assert instances_isomorphic(lac, core)
    # one constant of one block changed to another constant of the
    # instance: the counts all agree, so only the block forms tell
    counts = Counter(a for f in lac.facts for a in f.args)
    old = next(f for f in lac.facts_sorted if counts[f.args[0]] > 1 and is_null(f.args[1]))
    other = next(c for c in lac.constants if c != old.args[0] and Fact(old.rel, (c, old.args[1])) not in lac.facts)
    changed = lac.without([old]).with_facts([Fact(old.rel, (other, old.args[1]))])
    assert (len(changed.facts), changed.constants, len(changed.nulls)) == (
        len(core.facts), core.constants, len(core.nulls))
    assert not instances_isomorphic(changed, core)


def test_block_past_the_naming_budget_raises(monkeypatch):
    """Past the naming budget a block raises MappingError, never a wrong
    answer.  Under a budget of 100 nodes an 8-cycle of nulls (its
    rotations are no swaps of twins, so the search visits them) and a
    directed chain of 12 nulls (the bound ranks a middle null below the
    start) raise, while a star of 12 interchangeable nulls around a null
    is named: its leaves are twins, and the search tries one of them."""
    def star(n):
        return inst(R2, *[("R", FreshNull(100), FreshNull(k)) for k in range(1, n + 1)])

    def chain(n, close=False):
        return inst(R2, *[("R", FreshNull(k), FreshNull(k % n + 1 if close else k + 1)) for k in range(1, n + 1)])

    monkeypatch.setattr("dx.model.NAMING_BUDGET", 100)
    assert instances_isomorphic(star(12), star(12))
    assert not instances_isomorphic(star(12), star(11).with_facts([Fact("R", (FreshNull(12), FreshNull(100)))]))
    for block in (chain(8, close=True), chain(12)):
        with pytest.raises(MappingError, match="exceeds the budget of 100 nodes"):
            instances_isomorphic(block, block)


# -- fact files --------------------------------------------------------------

_values = st.recursive(
    st.one_of(
        st.text(
            alphabet="abcxyz_09' \\,()#",
            min_size=1,
            max_size=6,
        ).filter(lambda t: not t.startswith("@")).map(Const),
        st.integers(min_value=1, max_value=99).map(FreshNull),
    ),
    lambda children: st.tuples(children, children).map(
        lambda args: SkolemNull("f1_2", args)
    ),
    max_leaves=4,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_values, _values), max_size=5))
def test_fact_file_round_trip(pairs):
    i = Instance(S2, [Fact("S", pair) for pair in pairs])
    assert parse_facts(format_facts(i), S2) == i


def test_fact_file_reads_each_bare_constant_once():
    (x, y), (_b, n) = (f.args for f in parse_facts("S(a, a).\nS(b, ?f(a)).\n", S2).facts_sorted)
    assert x is y is n.args[0]


def test_fact_file_rejects_garbage():
    from dx.model import ParseError

    for text, error in [
        ("S(a b).", r"1:5: expected '\)', got 'b'"),
        ("S(a).", r"1:1: arity mismatch for S"),
        ("Q(a, b).", r"1:1: undeclared relation Q"),
        ("S(a, b).\n# two\nS(a, ?N0).\n", r"3:6: fresh null id must be positive"),
        ("S(a, b).\nS('@x', b).", r"2:3: constant text may not start with '@'"),
        ("S('', b).", r"1:3: empty constant"),
    ]:
        with pytest.raises(ParseError, match="^" + error):
            parse_facts(text, S2)


@pytest.mark.parametrize("text, error", [
    ("S(a, ?N0).\nS(a, b).\nS(a, b).\nS(a, b).\nS(@, b).\n", r"1:6: fresh null id must be positive"),
    ("S(a, b).\nQ(a, b).\nS($, b).", r"2:1: undeclared relation Q"),
    ("S(a, b).\nS(a b).\nS(a, $).", r"2:5: expected '\)', got 'b'"),
    ("S(a, b).\nS(a, b)@", r"2:8: unexpected character '@'"),
    ("S(a, ?N1 @", r"1:10: unexpected character '@'"),
    ("$S(a, b).", r"1:1: unexpected character '\$'"),
])
def test_fact_file_reports_first_error_in_file(text, error):
    from dx.model import ParseError

    with pytest.raises(ParseError, match="^" + error):
        parse_facts(text, S2)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="S(a, b).?N01\n@$'", max_size=40))
def test_fact_file_lexical_error_waits_its_turn(text):
    """Text with a stray character fails as the text before it would,
    unless that text fails only for ending early."""
    from dx.model import ParseError

    lex = Lexer(text, _FACT_TOKEN)
    error = next((tok for tok in lex.tokens if tok[0] == "error"), None)
    if error is None:
        return
    line, col = lex.where(error)
    offset = error[2]
    with pytest.raises(ParseError) as full:
        parse_facts(text, S2)
    try:
        parse_facts(text[:offset], S2)
    except ParseError as exc:
        if "at end of input" not in str(exc):
            assert str(full.value) == str(exc)
            return
    assert str(full.value).startswith(f"{line}:{col}: unexpected character")


_IGNORED = re.compile(r"(?:\s+|#[^\n]*)*")


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet="S(a, b).?N01_xX\n\t\r #'\\@$-></:&|!=<[]\u00e9\u2028", max_size=60),
    st.sampled_from([_FACT_TOKEN, _TOKEN]),
)
def test_lexer_agrees_with_eager_oracle(text, token_re):
    """Up to the first error token the one-pass lexer yields the eager
    scanner's tokens, and `where` its positions; every character lands
    in a token or in the whitespace and comments between them."""
    lex = Lexer(text, token_re)
    ref = ref_tokens(text, token_re)
    ours = lex.tokens[: len(ref)]
    assert [tok[:2] for tok in ours] == [tok[:2] for tok in ref]
    assert [lex.where(tok) for tok in ours] == [tok[2:] for tok in ref]
    if not ref or ref[-1][0] != "error":
        assert len(lex.tokens) == len(ref)
    pieces, pos = [], 0
    for _kind, tok_text, offset in lex.tokens:
        assert _IGNORED.fullmatch(text, pos, offset)
        pieces += [text[pos:offset], tok_text]
        pos = offset + len(tok_text)
    assert _IGNORED.fullmatch(text, pos)
    assert "".join(pieces) + text[pos:] == text


def test_valid_texts_work_out_no_positions(monkeypatch):
    def where(self, tok):
        raise AssertionError(f"position worked out for {tok!r}")

    monkeypatch.setattr(Lexer, "where", where)
    m = parse_mapping(
        "# header\nsource R/2, P/1.\ntarget S/2.\n"
        "tgd: R(x,y) & x < 'k' & !P(y) -> exists z: S(x,z) & S(y,z).\n"
    )
    parse_formula("exists y: (R(x, y) | P(x)) & forall z: x = z", m.source)
    i = parse_facts("# c\nS('a b', ?N1).\nS(?f(a, ?N2), c). # d\n", S2)
    assert len(i) == 2


def test_fact_file_null_lookahead():
    i = parse_facts("S(?N1 , ?N1 (a)).\nS(12ab, ?g\n()).", S2)
    assert i.facts == frozenset({
        Fact("S", (FreshNull(1), SkolemNull("N1", (Const("a"),)))),
        Fact("S", (Const("12ab"), SkolemNull("g", ()))),
    })


def test_fact_file_comments_and_quotes():
    text = "# header\nS('hello world', ?N3). # trailing\n"
    i = parse_facts(text, S2)
    assert i.facts == frozenset({Fact("S", (Const("hello world"), FreshNull(3)))})


# Fact texts for the reader oracle: flat facts beside facts that hold
# nulls, comments inside them, quoted tokens that are no constant ('' and
# '@...'), undeclared relations and arity mismatches, then at times one
# character deleted, inserted or replaced.  The schema holds a 0-ary
# relation and a name that extends another's at another arity.
SP = Schema({"S": 2, "P": 1, "PQ": 2, "Z": 0})
_value_text = st.recursive(
    st.one_of(
        st.sampled_from(["a", "b", "c1", "_x", "010"]),
        st.text(alphabet="ab '\\,()@#\n", max_size=4).map(quote),
        st.sampled_from(["''", "'@'", "'@a'", "'a@'", "'\\@'"]),
        st.sampled_from(["?N1", "?N2", "?N0"]),
    ),
    lambda kids: st.tuples(st.sampled_from(["?f", "?N1"]), st.lists(kids, max_size=2)).map(
        lambda p: f"{p[0]}({', '.join(p[1])})"
    ),
    max_leaves=4,
)
_gap_inside = st.sampled_from(["", "", "", " ", "\n", "  \n  ", " # inside\n"])
_gap_between = st.sampled_from(["\n", "", " ", "\n\n", "  # between\n", "#\n"])


@st.composite
def _fact_texts(draw):
    parts = [draw(_gap_between)]
    for _ in range(draw(st.integers(0, 5))):
        rel, arity = draw(st.sampled_from([
            ("S", 2), ("S", 2), ("P", 1), ("Q", 1), ("Z", 0), ("PQ", 2),
        ]))
        n = draw(st.one_of(st.just(arity), st.integers(0, 3)))
        args = draw(st.lists(_value_text, min_size=n, max_size=n))
        tokens = [rel, "("]
        for k, a in enumerate(args):
            tokens += [","] * (k > 0) + [a]
        for tok in tokens + [")", "."]:
            parts += [draw(_gap_inside), tok]
        parts.append(draw(_gap_between))
    text = "".join(parts)
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from("S(a, b).?N0'\\#\n@$"))
        text = draw(st.sampled_from([
            text[:i] + text[i + 1:], text[:i] + ch + text[i:], text[:i] + ch + text[i + 1:],
        ]))
    return text


@settings(max_examples=600, deadline=None)
@given(_fact_texts())
@example("S(a, b).\nS('', a).\n")
@example("S(a, b).\nS('@x', a).\n")
@example("S(a, b).\nS(a).\n")
@example("P(a).\nQ(b).\n")
@example("S(a, b) # c\n.S(c, ?N0).")
@example("S(a, 'b\\\nc').")
@example("Z().")
@example("Z ( ) .")
@example("PQ(a, b).\nP(a).")
@example("S(a, ?N1).\nZ().\n")
def test_fact_reader_matches_token_reader(text):
    """Flat facts read by one `findall`, then the token reader from the
    first text no flat fact takes, give the instance the token reader
    alone gives, or its ParseError, message and position alike."""
    from dx.model import ParseError

    try:
        want = ref_parse_facts(text, SP)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_facts(text, SP)
        assert str(got.value) == str(exc)
        return
    assert parse_facts(text, SP) == want


def test_mixed_demo_facts_take_both_readers(monkeypatch):
    """demo/mixed.facts holds flat facts, then a comment inside a fact,
    where the token reader takes over."""
    import dx.model as model

    text = (pathlib.Path(__file__).resolve().parents[1] / "demo" / "mixed.facts").read_text(encoding="utf-8")
    starts = []
    read_facts = model._read_facts

    def recording(lex, *args):
        starts.append(lex.where(lex.peek()))
        return read_facts(lex, *args)

    monkeypatch.setattr(model, "_read_facts", recording)
    got = parse_facts(text, R2)
    assert starts == [(9, 1)]
    assert got == ref_parse_facts(text, R2)
    assert len(got) == 9
    assert Fact("R", (Const("it's"), Const("back\\slash"))) in got.facts


@pytest.mark.parametrize("name", ["pairs_2000", "quoted_pairs"])
def test_flat_reader_matches_token_reader_on_files(name):
    """The flat reader's facts, made by the C-level constructor, equal the
    token reader's and format alike: on 2,000 generated flat facts and on
    demo/quoted_pairs.facts."""
    if name == "pairs_2000":
        keys = random.Random(1).sample(range(700 * 700), 2000)
        text = "".join(f"R(c{k // 700}, c{k % 700}).\n" for k in sorted(keys))
    else:
        path = pathlib.Path(__file__).resolve().parents[1] / "demo" / f"{name}.facts"
        text = path.read_text(encoding="utf-8")
    got, want = parse_facts(text, R2), ref_parse_facts(text, R2)
    assert got == want and all(type(f) is Fact for f in got.facts)
    assert format_facts(got) == format_facts(want)


def test_random_source_instance_deterministic():
    a = random_source_instance(R2, 7, 4, 8)
    b = random_source_instance(R2, 7, 4, 8)
    assert a == b
    assert random_source_instance(R2, 1, 4, 0).facts == frozenset()
    small = random_source_instance(R2, 2, 4, 16)
    assert all(f.rel == "R" for f in small.facts)
    assert len({v.text for v in small.constants}) <= 4
