import random

import pytest
from helpers import (
    inst,
    overlap_mapping,
    pair,
    ref_homomorphic,
    ref_eval_interpretation,
    ref_format_facts,
    ref_naive_chase,
    ref_restricted_chase,
    split_pair_mapping,
)
from hypothesis import given, settings, strategies as st

from dx.chase import (
    App,
    Rule,
    TermInterpretation,
    eval_interpretation,
    naive_chase,
    restricted_chase,
    to_term_interpretation,
)
from dx.laconify import laconify
from dx.lang import Var, format_mapping
from dx.model import (
    Const,
    Fact,
    Instance,
    MappingError,
    SkolemNull,
    instances_isomorphic,
    format_facts,
    is_core,
)
from dx.parser import parse_mapping
from dx.verify import random_mapping, random_source_instance

A, B, C = Const("a"), Const("b"), Const("c")


def test_naive_chase_split_pair_example():
    m = split_pair_mapping()
    i = inst(m.source, ("R", "a", "b"), ("R", "c", "c"))
    j = naive_chase(m, i)
    fab = SkolemNull("f1_1", (A, B))
    fcc = SkolemNull("f1_1", (C, C))
    assert j.facts == frozenset(
        {
            Fact("S", (A, fab)),
            Fact("T", (B, fab)),
            Fact("S", (C, fcc)),
            Fact("T", (C, fcc)),
            Fact("S", (C, C)),
        }
    )


def test_naive_chase_empty_instance():
    m = split_pair_mapping()
    assert naive_chase(m, Instance(m.source, [])).facts == frozenset()


def test_naive_chase_double_witness_not_core():
    m, _ = pair("double_witness")
    j = naive_chase(m, inst(m.source, ("P", "a")))
    assert len(j.facts) == 2
    assert len(j.nulls) == 2
    assert not is_core(j)


def test_naive_chase_rejects_nulls_and_wrong_schema():
    m = split_pair_mapping()
    from dx.model import FreshNull, Schema

    bad = Instance(m.source, [Fact("R", (A, FreshNull(1)))])
    with pytest.raises(MappingError):
        naive_chase(m, bad)
    with pytest.raises(MappingError):
        naive_chase(m, Instance(Schema({"R": 2, "X": 1}), []))


def test_restricted_chase_order_sensitivity():
    declared = parse_mapping(
        "source P/1. target R/2. "
        "tgd: P(x) -> exists y: R(x,y). tgd: P(x) -> R(x,x)."
    )
    reordered = parse_mapping(
        "source P/1. target R/2. "
        "tgd: P(x) -> R(x,x). tgd: P(x) -> exists y: R(x,y)."
    )
    i = inst(declared.source, ("P", "a"))
    first = restricted_chase(declared, i)
    second = restricted_chase(reordered, i)
    assert second.facts == frozenset({Fact("R", (A, A))})
    assert Fact("R", (A, A)) in first.facts and len(first.facts) == 2


def test_restricted_chase_equals_naive_on_full_tgds():
    m = parse_mapping("source R/2. target S/2. tgd: R(x,y) -> S(x,y).")
    i = inst(m.source, ("R", "a", "b"), ("R", "b", "c"))
    assert restricted_chase(m, i) == naive_chase(m, i)


def test_restricted_chase_is_homomorphically_equivalent_to_naive():
    for seed in range(30):
        m = random_mapping(seed)
        i = random_source_instance(m.source, f"rc:{seed}", 4, 6)
        r = restricted_chase(m, i)
        n = naive_chase(m, i)
        assert ref_homomorphic(r, n)
        assert ref_homomorphic(n, r)


def test_restricted_chase_matches_reference_with_order_atoms():
    mappings = [m for m in map(random_mapping, range(120)) if "<" in format_mapping(m)]
    assert len(mappings) >= 20
    for k, m in enumerate(mappings):
        for n in range(3):
            i = random_source_instance(m.source, f"rco:{k}:{n}", 5, 10)
            assert format_facts(restricted_chase(m, i)) == format_facts(
                ref_restricted_chase(m, i)
            )


def _scaled_instance(schema, seed, consts: int, facts: int) -> Instance:
    """`facts` random facts over `consts` constants, past the verify bounds."""
    rng = random.Random(seed)
    pool = [Const(f"c{k}") for k in range(consts)]
    rels = [rng.choice(schema.rels) for _ in range(facts)]
    return Instance(schema, [Fact(r, tuple(rng.choice(pool) for _ in range(n))) for r, n in rels])


@pytest.mark.parametrize(
    "name, consts, facts",
    [
        ("symmetric_join", 100, 400),
        ("overlap", 400, 300),
        ("double_witness", 400, 200),
        ("laconified_overlap", 400, 300),
    ],
)
def test_restricted_chase_matches_reference_at_scale(name, consts, facts):
    """Beyond the 6-constant, 12-fact verify bounds; the laconified
    overlap's antecedents hold certain[...] nodes."""
    if name.endswith("overlap"):
        m = overlap_mapping()
        m = laconify(m) if name.startswith("laconified") else m
    else:
        m = pair(name)[0]
    i = _scaled_instance(m.source, f"rc-scale:{name}", consts, facts)
    assert len(i.facts) >= 150
    assert format_facts(restricted_chase(m, i)) == format_facts(ref_restricted_chase(m, i))


def test_restricted_chase_orders_each_consequent_check_once(monkeypatch):
    """The check's shape is one per dependency, so it is ordered once,
    not once per antecedent row."""
    import dx.kernel as kernel

    m = pair("symmetric_join")[0]
    i = _scaled_instance(m.source, "rc-order", 500, 1000)
    ordered = []
    order = kernel.order_pattern

    def counting(pattern):
        ordered.append(pattern)
        return order(pattern)

    monkeypatch.setattr(kernel, "order_pattern", counting)
    out = restricted_chase(m, i)
    assert len(out.facts) > len(i.facts)
    assert len(ordered) == len(m.tgds)


# Head shapes the compiled heads must each get right: an antecedent atom
# that repeats a variable, constants in antecedents and heads, existential
# variables shared across heads (one Skolem value for all of them), heads
# without a Skolem term beside heads with one, a rule that never has an
# answer, a rule without parameters, and a 0-ary head.
HEAD_SHAPES = {
    "repeated_variable": """source R/3.
target S/2, T/1.
tgd: R(x,x,y) -> exists z: S(y,z) & T(z).
tgd: R(x,y,y) -> S(x,x).
tgd: R(x,y,x) -> exists z: S(z,z).
""",
    "constants": """source R/2.
target S/3.
tgd: R(x,'k') -> exists z: S(x,z,'c') & S('c',z,x).
tgd: R('k',y) -> S(y,'k','k').
tgd: R(x,y) -> S('c','c','c').
""",
    "shared_existentials": """source R/2.
target S/2, T/3.
tgd: R(x,y) -> exists z, w: S(x,z) & S(z,w) & T(w,y,z) & S(w,w).
tgd: R(y,x) -> exists z, w: T(z,w,x) & T(w,z,y).
""",
    "skolem_free_head": """source R/2.
target S/2, T/2.
tgd: R(x,y) -> exists z: S(x,y) & T(y,z) & T(x,z).
tgd: R(x,x) -> exists z: S(x,x) & T(x,z).
""",
    "no_answers_no_parameters": """source R/2.
target S/2, Z/0.
tgd: R(x,y) & x < y & y < x -> exists z: S(x,z).
tgd: R('k','k') -> exists z: S(z,z) & Z().
tgd: R(x,y) -> Z() & S(y,x).
""",
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(HEAD_SHAPES)), st.data())
def test_chases_match_reference_on_head_shapes(name, data):
    m = parse_mapping(HEAD_SHAPES[name])
    ((rel, arity),) = m.source.rels
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from("abkc")] * arity), max_size=12))
    i = Instance(m.source, [Fact(rel, tuple(map(Const, row))) for row in rows])
    j = naive_chase(m, i)
    assert j == ref_naive_chase(m, i) == ref_eval_interpretation(to_term_interpretation(m), i)
    assert format_facts(j) == ref_format_facts(j)
    assert restricted_chase(m, i) == ref_restricted_chase(m, i)


def test_nested_skolem_terms_fire_as_row_at_a_time():
    """Skolem terms over Skolem terms, and over a constant alone, which no
    parsed mapping makes, fire column-wise as they do a row at a time."""
    m = parse_mapping("source R/2. target S/2, T/1. tgd: R(x,y) -> S(x,y).")
    f = App("f", (Var("x"),))
    g = App("g", (f, Const("c")))
    h = App("h", (Const("c"),))
    heads = (("S", (g, Var("y"))), ("S", (h, f)), ("T", (g,)), ("T", (h,)))
    pi = TermInterpretation(m.source, m.target, (Rule(m.tgds[0].antecedent, ("x", "y"), heads),))
    for seed in range(10):
        i = random_source_instance(m.source, f"nest:{seed}", 4, 8)
        assert eval_interpretation(pi, i) == ref_eval_interpretation(pi, i)


def test_shared_skolem_value_is_built_once():
    """Heads that share an existential variable share its one value."""
    m = parse_mapping(HEAD_SHAPES["shared_existentials"])
    j = naive_chase(m, inst(m.source, ("R", "a", "b")))
    objects: dict = {}  # each null -> the ids of its occurrences
    for f in j.facts:
        for a in f.args:
            if isinstance(a, SkolemNull):
                objects.setdefault(a, set()).add(id(a))
    assert len(objects) == 4
    assert all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize("name", ["symmetric_join", "double_witness", "split_pair"])
def test_interpretation_of_a_laconified_mapping_equals_its_chase(name):
    """A certain[...] antecedent compiles; its base is chased on demand."""
    m = split_pair_mapping() if name == "split_pair" else pair(name)[0]
    lm = laconify(m)
    pi = to_term_interpretation(lm)
    for seed in range(15):
        i = random_source_instance(m.source, f"lac-pi:{seed}", 4, 7)
        assert eval_interpretation(pi, i) == naive_chase(lm, i)


def test_term_interpretation_shape():
    m = split_pair_mapping()
    pi = to_term_interpretation(m)
    first, second = pi.rules
    f = App("f1_1", (Var("x1"), Var("x2")))
    assert first.params == ("x1", "x2")
    assert first.heads == (("S", (Var("x1"), f)), ("T", (Var("x2"), f)))
    assert second.params == ("x",)
    assert second.heads == (("S", (Var("x"), Var("x"))),)


def test_full_tgd_interpretation():
    m = parse_mapping("source R/2. target S/2. tgd: R(x,y) -> S(x,y).")
    pi = to_term_interpretation(m)
    (rule,) = pi.rules
    assert rule.heads == (("S", (Var("x"), Var("y"))),)


def test_eval_interpretation_examples():
    m = split_pair_mapping()
    pi = to_term_interpretation(m)
    i = inst(m.source, ("R", "a", "b"))
    j = eval_interpretation(pi, i)
    fab = SkolemNull("f1_1", (A, B))
    assert j.facts == frozenset({Fact("S", (A, fab)), Fact("T", (B, fab))})
    assert eval_interpretation(pi, Instance(m.source, [])).facts == frozenset()


def test_interpretation_equals_chase_exactly():
    for seed in range(120):
        m = random_mapping(seed)
        pi = to_term_interpretation(m)
        i = random_source_instance(m.source, f"pi:{seed}", 5, 9)
        j = eval_interpretation(pi, i)
        assert j == naive_chase(m, i) == ref_eval_interpretation(pi, i)
        assert format_facts(j) == ref_format_facts(j)


def test_chase_isomorphic_under_tgd_reordering():
    m = split_pair_mapping()
    flipped = parse_mapping(
        """source R/2. target S/2, T/2.
           tgd: R(x,x) -> S(x,x).
           tgd: R(x1,x2) -> exists y: S(x1,y) & T(x2,y)."""
    )
    for seed in range(20):
        i = random_source_instance(m.source, f"perm:{seed}", 4, 6)
        assert instances_isomorphic(naive_chase(m, i), naive_chase(flipped, i))


def test_chase_output_is_universal():
    # adding facts to the canonical solution keeps a homomorphism into it
    m, _ = pair("symmetric_join")
    for seed in range(15):
        i = random_source_instance(m.source, f"uni:{seed}", 4, 6)
        j = naive_chase(m, i)
        bigger = j.with_facts([Fact("S", (A, B))])
        assert ref_homomorphic(j, bigger)
