import pathlib
import random
import tempfile
from unittest import mock

import pytest
from helpers import (
    COMPILE_FAMILIES,
    fan_mapping,
    inst,
    overlap_mapping,
    pair,
    random_mapping,
    ref_homomorphic,
    ref_eval_interpretation,
    ref_format_facts,
    ref_naive_chase,
    ref_restricted_chase,
    ref_rule_heads,
    rule_head_terms,
    split_pair_mapping,
    star_blowup_mapping,
)
from hypothesis import given, settings, strategies as st

from dx.chase import (
    eval_interpretation,
    naive_chase,
    restricted_chase,
    to_term_interpretation,
)
from dx.certain import eliminate_mapping
from dx.cli import main
from dx.laconify import laconify
from dx.lang import TGD, RelAtom, SchemaMapping, Var, format_mapping
from dx.model import (
    Const,
    Fact,
    Instance,
    MappingError,
    SkolemNull,
    instances_isomorphic,
    format_facts,
    is_core,
    parse_facts,
)
from dx.parser import parse_mapping
from dx.verify import random_source_instance

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


DEMO = pathlib.Path(__file__).resolve().parents[1] / "demo"

# Heads with a constant, with a repeated term, with two existential
# variables shared across atoms, and, built by hand since the parser drops
# it, with an unused existential variable y1: it gets no Skolem symbol but
# keeps its number, so y2's symbol is f5_2.
HAND_HEADS = """source P/1. target S/2, T/1.
tgd: P(x) -> exists y: S(x,'c') & S(y,'c') & T('d').
tgd: P(x) -> exists y: S(y,y) & S(x,x).
tgd: P(x) -> exists y1, y2: S(x,y1) & S(y1,y2) & S(y2,x) & T(y2).
tgd: P(x) -> T('c') & S(x,'c') & S('c',x).
"""


def _hand_heads() -> SchemaMapping:
    m = parse_mapping(HAND_HEADS)
    x, y2 = Var("x"), Var("y2")
    unused = TGD(RelAtom("P", (x,)), ("y1", "y2"), (RelAtom("S", (x, y2)), RelAtom("T", (y2,))))
    return SchemaMapping(m.source, m.target, m.tgds + (unused,))


HEAD_FAMILIES = {
    **{f"demo/{p.stem}": (lambda p=p: parse_mapping(p.read_text("utf-8"))) for p in DEMO.glob("*.map")},
    **COMPILE_FAMILIES,
    "fan_5": lambda: fan_mapping(5),
    "star_4": lambda: star_blowup_mapping(4),
    "hand_heads": _hand_heads,
}


def _check_compiled_heads(m: SchemaMapping) -> None:
    """Every head position of m's compiled rules resolves to the term the
    `App` compilation gives it."""
    rules = to_term_interpretation(m).rules
    assert [rule_head_terms(r) for r in rules] == ref_rule_heads(m)
    for r in rules:
        assert len(set(r.fixed)) == len(r.fixed) and len(set(r.skolems)) == len(r.skolems)


def test_hand_built_heads_compile_to_positions():
    pi = to_term_interpretation(_hand_heads())
    assert [(r.fixed, r.skolems, r.heads) for r in pi.rules] == [
        ((Const("c"), Const("d")), ("f1_1",), (("S", (0, 1)), ("S", (3, 1)), ("T", (2,)))),
        ((), ("f2_1",), (("S", (1, 1)), ("S", (0, 0)))),
        ((), ("f3_1", "f3_2"), (("S", (0, 1)), ("S", (1, 2)), ("S", (2, 0)), ("T", (2,)))),
        ((Const("c"),), (), (("T", (1,)), ("S", (0, 1)), ("S", (1, 0)))),
        ((), ("f5_2",), (("S", (0, 1)), ("T", (1,)))),
    ]


@pytest.mark.parametrize("name", sorted(HEAD_FAMILIES))
def test_compiled_heads_resolve_to_app_terms_on_families(name):
    m = HEAD_FAMILIES[name]()
    _check_compiled_heads(m)
    if any(isinstance(a, Const) for t in m.tgds for atom in t.consequent for a in atom.args):
        return  # the laconic rewriting takes variable-only consequents
    lm = laconify(m)
    _check_compiled_heads(lm)
    if name != "tail_3_cycle":  # its elimination raises RecursionError (ROADMAP item 1)
        _check_compiled_heads(eliminate_mapping(lm))


def test_compiled_heads_resolve_to_app_terms_on_random_mappings():
    for seed in range(400):
        _check_compiled_heads(random_mapping(seed))


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
    # positions: the parameters, then the constants, then f1_1(x1, x2)
    assert (first.params, first.fixed, first.skolems) == (("x1", "x2"), (), ("f1_1",))
    assert first.heads == (("S", (0, 2)), ("T", (1, 2)))
    assert (second.params, second.fixed, second.skolems) == (("x",), (), ())
    assert second.heads == (("S", (0, 0)),)


def test_full_tgd_interpretation():
    m = parse_mapping("source R/2. target S/2. tgd: R(x,y) -> S(x,y).")
    pi = to_term_interpretation(m)
    (rule,) = pi.rules
    assert (rule.params, rule.fixed, rule.skolems) == (("x", "y"), (), ())
    assert rule.heads == (("S", (0, 1)),)


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


# ---------------------------------------------------------------------------
# `dx chase` prints plain output straight from the rules' answer columns
# (`naive_chase_text`); `format_facts(naive_chase(m, i))` is its oracle.
# The two share `sort_plain_lines`, so `ref_format_facts` checks the order.

# Bare constants whose byte order is not the obvious one
_PLAIN_CONSTS = st.sampled_from(["a", "b", "c", "k", "A", "Z", "_u", "9", "10", "010", "c1", "c10"])


def _dx_chase(mapping_text: str, facts_text: str, route: str) -> bytes:
    """The bytes `dx chase` writes, with the route other than `route`
    ("text" or "fallback") made to raise."""
    import dx.chase as chase

    other = {"text": "naive_chase", "fallback": "_plain_lines"}[route]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        chase, other, side_effect=AssertionError(f"{other} ran")
    ):
        m, i, out = (pathlib.Path(tmp) / name for name in ("m.map", "i.facts", "out"))
        m.write_text(mapping_text, encoding="utf-8")
        i.write_text(facts_text, encoding="utf-8")
        assert main(["chase", "-m", str(m), "-i", str(i), "-o", str(out)]) == 0
        return out.read_bytes()


def _chase_bytes(m: SchemaMapping, i: Instance) -> bytes:
    """The oracle's bytes, which the reference formatter prints too."""
    j = naive_chase(m, i)
    text = format_facts(j)
    assert text == ref_format_facts(j)
    return text.encode()


def _plain_source(data, schema) -> Instance:
    """Facts over a few of the plain constants, so that rows repeat values."""
    pool = st.sampled_from(data.draw(st.lists(_PLAIN_CONSTS, min_size=1, max_size=5, unique=True)))
    rels = data.draw(st.lists(st.sampled_from(schema.rels), max_size=24))
    return Instance(schema, [
        Fact(rel, tuple(data.draw(st.lists(pool.map(Const), min_size=n, max_size=n))))
        for rel, n in rels
    ])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 199), st.data())
def test_dx_chase_prints_plain_output_as_the_oracle(seed, data):
    m = random_mapping(seed)
    i = _plain_source(data, m.source)
    want = _chase_bytes(m, i)
    assert _dx_chase(format_mapping(m), format_facts(i), "text") == want


# A head constant, a rule without parameters, a 0-ary head, a repeated
# head variable, and two heads and two rules that print the same line;
# HEAD_SHAPES adds constants in antecedents and rules without answers.
TEXT_SHAPES = {
    **HEAD_SHAPES,
    "sentence_head": (DEMO / "sentence_head.map").read_text(encoding="utf-8"),
    "nullary": (DEMO / "nullary.map").read_text(encoding="utf-8"),
    "same_lines": """source R/2.
target S/2, T/1.
tgd: R(x,y) -> S(x,y) & S(y,x) & T('k').
tgd: R(x,x) -> exists z: S(x,x) & S(z,x) & T('k') & T(x).
tgd: R(y,x) -> S(x,y).
""",
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(TEXT_SHAPES)), st.data())
def test_dx_chase_prints_plain_head_shapes_as_the_oracle(name, data):
    m = parse_mapping(TEXT_SHAPES[name])
    i = _plain_source(data, m.source)
    want = _chase_bytes(m, i)
    assert _dx_chase(TEXT_SHAPES[name], format_facts(i), "text") == want


@pytest.mark.parametrize("name, facts", [
    ("symmetric_join", "r_pairs"), ("split_pair", "split_pair"), ("nullary", "nullary"),
    ("sentence_head", "sentence_head"), ("constant_head", "constant_head"),
])
def test_dx_chase_prints_plain_demos_as_the_oracle(name, facts):
    """split_pair.facts puts constants and Skolem nulls in one column."""
    mapping = (DEMO / f"{name}.map").read_text(encoding="utf-8")
    text = (DEMO / f"{facts}.facts").read_text(encoding="utf-8")
    m = parse_mapping(mapping)
    want = _chase_bytes(m, parse_facts(text, m.source))
    assert _dx_chase(mapping, text, "text") == want


SYMMETRIC_JOIN = "source R/2. target S/2.\ntgd: R(x,y) -> exists z: S(x,z) & S(y,z).\n"


@pytest.mark.parametrize("mapping, facts", [
    (SYMMETRIC_JOIN, "R('c 1', a).\nR(a, b).\nR(b, 'c 1').\n"),
    ("source R/2. target S/2.\ntgd: R(x,y) -> S(x,'k 1') & S(y,x).\n", "R(a, b).\n"),
    ("source R/2, P/1. target S/2.\ntgd: R(x,y) -> S(x,y).\n", "R(a, b).\nP('x y').\n"),
], ids=["quoted_source_constant", "quoted_head_constant", "quoted_constant_never_printed"])
def test_dx_chase_formats_the_chase_of_other_input(mapping, facts):
    m = parse_mapping(mapping)
    want = _chase_bytes(m, parse_facts(facts, m.source))
    assert _dx_chase(mapping, facts, "fallback") == want


@pytest.mark.parametrize("facts", ["R(a, b).\nR(b, c).\n", "R('c 1', a).\nR(a, b).\n"])
def test_dx_chase_evaluates_the_antecedents_once(facts, monkeypatch, tmp_path):
    import dx.chase as chase

    calls = []
    answers = chase._answers
    monkeypatch.setattr(chase, "_answers", lambda pi, inst: calls.append(inst) or answers(pi, inst))
    m, i = tmp_path / "m.map", tmp_path / "i.facts"
    m.write_text(SYMMETRIC_JOIN, encoding="utf-8")
    i.write_text(facts, encoding="utf-8")
    assert main(["chase", "-m", str(m), "-i", str(i), "-o", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
