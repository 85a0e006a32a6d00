import copy
import dataclasses
import pickle
import random
import re

import pytest
from helpers import OVERLAP_SOURCE, inst, ref_holds
from hypothesis import given, settings, strategies as st

from dx.certain import eliminate, eliminate_mapping
from dx.evaluator import eval_formula, ground_answers, holds
from dx.lang import (
    And,
    Certain,
    Eq,
    Exists,
    Forall,
    Lt,
    Not,
    Or,
    RelAtom,
    SchemaMapping,
    TGD,
    TRUE,
    Var,
    conj,
    decompose,
    disj,
    format_formula,
    format_mapping,
    free_vars,
    rename_bound,
    substitute,
)
from dx.laconify import laconify
from dx.model import Const, Fact, FreshNull, Instance, MappingError, ParseError, Schema
from dx.parser import parse_formula, parse_mapping

PR = Schema({"P": 1, "R": 2})
S2 = Schema({"S": 2})


# -- parsing -----------------------------------------------------------------

def test_parse_mapping_examples():
    m = parse_mapping(
        "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(y,z)."
    )
    assert len(m.tgds) == 1
    assert m.tgds[0].exist_vars == ("z",)

    m2 = parse_mapping("source P/1. target R/2. tgd: P(x) -> R(x,x).")
    assert m2.tgds[0].exist_vars == ()

    with pytest.raises(ParseError):
        parse_mapping("source R/2. target T/1. tgd: S(x) -> exists y: T(y).")


def test_parse_errors_carry_positions():
    try:
        parse_mapping("source R/2.\ntarget S/1.\ntgd: R(x) -> S(x).")
    except ParseError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected an arity error")


@pytest.mark.parametrize("text, error", [
    ("source R/2.\ntarget S/1.\ntgd: R(x) -> S(x).\n$", r"3:6: arity mismatch for R"),
    ("source R/2.\ntarget S/1.\ntgd: R(x,y) -> T(x).\ntgd: R(x,$", r"3:16: undeclared relation T"),
    ("source R/2 $.\ntarget S/1.", r"1:12: unexpected character '\$'"),
    ("source R/2.\ntarget S/1.\ntgd: R(x,y) -> S(x) $", r"3:21: unexpected character '\$'"),
])
def test_mapping_reports_first_error_in_file(text, error):
    with pytest.raises(ParseError, match="^" + error):
        parse_mapping(text)
    with pytest.raises(ParseError, match=r"^1:9: unexpected character '\$'"):
        parse_formula("R(x, y) $ & x = y", PR)


@pytest.mark.parametrize("tgd, error", [
    ("tgd: P(x) -> P(x).", "2:14: consequent relation P is not a target relation"),
    ("tgd: P(x) & T(x) -> T(x).", "2:13: antecedent uses target relation T"),
    (
        "tgd: P(x) -> T(x) & x = 'a'.",
        "2:21: dependency consequents must be conjunctions of relational atoms",
    ),
])
def test_relation_errors_point_at_the_atom(tgd, error):
    """A relation on the wrong side of `->`, or a comparison in the
    consequent, fails at its own token, not at `tgd`."""
    with pytest.raises(ParseError) as exc:
        parse_mapping("source P/1. target T/1.\n" + tgd)
    assert str(exc.value) == error


def test_dependency_and_schema_checks_keep_their_messages():
    x = Var("x")
    for make, message in [
        (lambda: TGD(RelAtom("P", (x,)), (), ()), "dependency consequent must be nonempty"),
        (
            lambda: TGD(RelAtom("P", (x,)), (), (Lt(x, x),)),
            "consequent must consist of relational atoms",
        ),
        (lambda: Schema({"": 1}), "relation name must be nonempty"),
        (lambda: Schema({"R": -1}), "negative arity for relation R"),
    ]:
        with pytest.raises(MappingError, match="^" + re.escape(message) + "$"):
            make()


def test_parse_rejects_unsafe_tgd():
    with pytest.raises(ParseError):
        parse_mapping("source P/1. target S/2. tgd: P(x) -> S(x,w).")


def test_parse_rejects_target_atom_in_antecedent():
    with pytest.raises(ParseError):
        parse_mapping("source P/1. target S/1. tgd: S(x) -> S(x).")


def test_parse_rejects_certain():
    with pytest.raises(ParseError):
        parse_mapping(
            "source P/1. target S/1. tgd: certain[S(x)] -> S(x)."
        )


def test_operator_precedence():
    f = parse_formula("P(x) & !P(y) | x = y", PR)
    assert isinstance(f, Or)
    g = parse_formula("!(P(x) & P(y))", PR)
    assert isinstance(g, Not) and isinstance(g.body, And)
    q = parse_formula("exists v: P(v) & P(x)", PR)
    assert isinstance(q, Exists) and isinstance(q.body, And)


def test_unparenthesized_quantifier_bodies_extend_right():
    """A quantifier after `&`, `|` or `!` takes every `&` and `|` after it;
    `format_formula` parenthesizes these forms, so the random round trip
    never reads them."""
    x, y = Var("x"), Var("y")
    px, py, rxy = RelAtom("P", (x,)), RelAtom("P", (y,)), RelAtom("R", (x, y))
    body = Or((And((rxy, py)), px))
    cases = {
        "P(x) & exists y: R(x,y) & P(y) | P(x)": And((px, Exists("y", body))),
        "P(x) | exists y: R(x,y) & P(y) | P(x)": Or((px, Exists("y", body))),
        "!exists y: R(x,y) & P(y) | P(x)": Not(Exists("y", body)),
        "P(x) & !forall y: R(x,y) & P(y) | P(x)": And((px, Not(Forall("y", body)))),
        "exists x, y: R(x,y) & P(y) | P(x)": Exists("x", Exists("y", body)),
        "(exists y: R(x,y)) & P(x) | P(y)": Or((And((Exists("y", rxy), px)), py)),
    }
    for text, tree in cases.items():
        assert parse_formula(text, PR) == tree, text


def test_quoted_constants():
    f = parse_formula("R(x, 'hello world')", PR)
    assert f.args[1] == Const("hello world")
    with pytest.raises(ParseError):
        parse_formula("R(x, '@bad')", PR)


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="abcxyz_09' \\,()#", min_size=1, max_size=8).filter(
        lambda t: not t.startswith("@")
    )
)
def test_quoted_constant_round_trip(text):
    x = Var("x")
    m = SchemaMapping(
        Schema({"P": 1}),
        Schema({"R": 2}),
        (TGD(And((RelAtom("P", (x,)), Eq(x, Const(text)))), (), (RelAtom("R", (x, x)),)),),
    )
    assert parse_mapping(format_mapping(m)) == m


def test_round_trip_fixture_mappings():
    from helpers import PAIR_SOURCES, OVERLAP_SOURCE, SPLIT_PAIR_SOURCE

    sources = [s for lr in PAIR_SOURCES.values() for s in lr]
    sources += [OVERLAP_SOURCE, SPLIT_PAIR_SOURCE]
    for text in sources:
        m = parse_mapping(text)
        assert parse_mapping(format_mapping(m)) == m


def _random_formula(rng, depth, vars_in_scope):
    choices = ["atom", "eq", "lt"]
    if depth > 0:
        choices += ["and", "or", "not", "exists", "forall"]
    kind = rng.choice(choices)
    if kind == "atom":
        if rng.random() < 0.5:
            return RelAtom("P", (Var(rng.choice(vars_in_scope)),))
        return RelAtom(
            "R", (Var(rng.choice(vars_in_scope)), Var(rng.choice(vars_in_scope)))
        )
    if kind == "eq":
        return Eq(Var(rng.choice(vars_in_scope)), Var(rng.choice(vars_in_scope)))
    if kind == "lt":
        return Lt(Var(rng.choice(vars_in_scope)), Var(rng.choice(vars_in_scope)))
    if kind == "and":
        return And(
            tuple(_random_formula(rng, depth - 1, vars_in_scope) for _ in range(2))
        )
    if kind == "or":
        return Or(
            tuple(_random_formula(rng, depth - 1, vars_in_scope) for _ in range(2))
        )
    if kind == "not":
        return Not(_random_formula(rng, depth - 1, vars_in_scope))
    v = f"b{depth}"
    inner = _random_formula(rng, depth - 1, vars_in_scope + [v])
    return (Exists if kind == "exists" else Forall)(v, inner)


def _random_pr_instance(rng):
    consts = [Const(c) for c in "abcd"]
    facts = [
        Fact("P", (rng.choice(consts),)) for _ in range(rng.randint(0, 3))
    ] + [
        Fact("R", (rng.choice(consts), rng.choice(consts)))
        for _ in range(rng.randint(0, 4))
    ]
    return Instance(PR, facts)


@pytest.mark.parametrize("seed", range(80))
def test_printer_parser_round_trip_random(seed):
    rng = random.Random(f"fmt:{seed}")
    f = _random_formula(rng, 3, ["x", "y"])
    text = format_formula(f)
    assert parse_formula(text, PR) == f


@pytest.mark.parametrize("seed", range(60))
def test_logical_laws(seed):
    rng = random.Random(f"law:{seed}")
    f = _random_formula(rng, 2, ["x"])
    g = _random_formula(rng, 2, ["x"])
    i = _random_pr_instance(rng)
    fv = ("x",)
    # De Morgan
    lhs = eval_formula(Not(And((f, g))), i, fv)
    rhs = eval_formula(Or((Not(f), Not(g))), i, fv)
    assert lhs == rhs
    # double negation
    assert eval_formula(Not(Not(f)), i, fv) == eval_formula(f, i, fv)
    # quantifier duality
    assert eval_formula(Forall("y", f), i, fv) == eval_formula(
        Not(Exists("y", Not(f))), i, fv
    )


@pytest.mark.parametrize("seed", range(60))
def test_relational_and_assignment_engines_agree(seed):
    rng = random.Random(f"eng:{seed}")
    f = _random_formula(rng, 2, ["x", "y"])
    i = _random_pr_instance(rng)
    rows = eval_formula(f, i, ("x", "y"))
    expected = {
        (a, b)
        for a in i.dom
        for b in i.dom
        if ref_holds(f, i, {"x": a, "y": b})
    }
    assert rows == expected
    assert expected == {
        (a, b) for a in i.dom for b in i.dom if holds(f, i, {"x": a, "y": b})
    }


@pytest.mark.parametrize("seed", range(40))
def test_simplify_preserves_answers(seed):
    """Elimination folds true and false; without certain[...] nodes that
    is all it does."""
    rng = random.Random(f"simp:{seed}")
    f = _random_formula(rng, 3, ["x"])
    i = _random_pr_instance(rng)
    assert eval_formula(eliminate(f), i, ("x",)) == eval_formula(f, i, ("x",))


# -- evaluation examples ------------------------------------------------------

def test_eval_examples():
    i = inst(PR, ("P", "a"), ("P", "b"), ("R", "b", "c"))
    f = And(
        (
            RelAtom("P", (Var("x"),)),
            Not(Exists("y", RelAtom("R", (Var("x"), Var("y"))))),
        )
    )
    assert eval_formula(f, i, ("x",)) == {(Const("a"),)}

    empty = Instance(PR, [])
    assert eval_formula(Exists("x", RelAtom("R", (Var("x"), Var("x")))), empty, ()) == set()

    two = inst(Schema({"P": 1}), ("P", "a"), ("P", "b"))
    assert eval_formula(Lt(Var("x"), Var("y")), two, ("x", "y")) == {
        (Const("a"), Const("b"))
    }


def test_order_is_bytewise_on_text():
    i = inst(Schema({"P": 1}), ("P", "B"), ("P", "a"))
    # "B" (0x42) sorts before "a" (0x61)
    assert eval_formula(Lt(Var("x"), Var("y")), i, ("x", "y")) == {
        (Const("B"), Const("a"))
    }


def test_lt_on_nulls_is_false():
    i = Instance(S2, [Fact("S", (Const("a"), FreshNull(1)))])
    assert eval_formula(Lt(Var("x"), Var("y")), i, ("x", "y")) == set()
    assert eval_formula(Eq(Var("x"), Var("x")), i, ("x",)) == {
        (Const("a"),),
        (FreshNull(1),),
    }


def test_ground_answers_examples():
    i = Instance(S2, [Fact("S", (Const("a"), FreshNull(1))), Fact("S", (FreshNull(2), Const("b")))])
    q = Exists("y", RelAtom("S", (Var("x"), Var("y"))))
    assert ground_answers(q, i, ("x",)) == {(Const("a"),)}
    j = inst(S2, ("S", "a", "b"))
    assert ground_answers(RelAtom("S", (Var("x"), Var("y"))), j, ("x", "y")) == {
        (Const("a"), Const("b"))
    }
    k = Instance(S2, [Fact("S", (Const("a"), FreshNull(1)))])
    assert ground_answers(RelAtom("S", (Var("x"), Var("y"))), k, ("x", "y")) == set()


def test_eval_rejects_unbound_free_vars():
    with pytest.raises(MappingError):
        eval_formula(RelAtom("P", (Var("x"),)), Instance(PR, []), ())


def test_unused_answer_variable_ranges_over_domain():
    i = inst(PR, ("P", "a"), ("P", "b"))
    rows = eval_formula(RelAtom("P", (Var("x"),)), i, ("x", "z"))
    assert rows == {
        (Const("a"), Const("a")),
        (Const("a"), Const("b")),
        (Const("b"), Const("a")),
        (Const("b"), Const("b")),
    }


# -- substitution -------------------------------------------------------------

def test_substitute_avoids_capture():
    f = Exists("y", RelAtom("R", (Var("x"), Var("y"))))
    g = substitute(f, {"x": Var("y")})
    assert free_vars(g) == {"y"}
    assert isinstance(g, Exists) and g.var != "y"


def test_substitute_composes_with_eval():
    i = inst(PR, ("R", "a", "b"))
    f = RelAtom("R", (Var("x"), Var("y")))
    g = substitute(f, {"x": Const("a")})
    assert eval_formula(g, i, ("y",)) == {(Const("b"),)}


# -- cached hashes and free variables ----------------------------------------

_BASE_TEXT = "source P/1. target S/2. tgd: P(x) -> exists y: S(x,y)."
_names = st.sampled_from(["x", "y", "z"])
_terms = st.one_of(_names.map(Var), st.sampled_from(["a", "b"]).map(Const))
_leaves = st.one_of(
    st.builds(lambda a: RelAtom("P", (a,)), _terms),
    st.builds(lambda a, b: RelAtom("R", (a, b)), _terms, _terms),
    st.builds(Eq, _terms, _terms),
    st.builds(Lt, _terms, _terms),
    st.just(TRUE),
)
_formulas = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
        st.lists(sub, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
        sub.map(Not),
        st.builds(Exists, _names, sub),
        st.builds(Forall, _names, sub),
        sub.map(lambda q: Certain(q, parse_mapping(_BASE_TEXT))),
    ),
    max_leaves=10,
)


def _rebuilt(f):
    """An equal copy of f made of new nodes, none hashed yet."""
    def term(t):
        return Var(t.name) if isinstance(t, Var) else Const(t.text)

    if isinstance(f, RelAtom):
        return RelAtom(f.rel, tuple(term(a) for a in f.args))
    if isinstance(f, (Eq, Lt)):
        return type(f)(term(f.left), term(f.right))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_rebuilt(p) for p in f.parts))
    if isinstance(f, Not):
        return Not(_rebuilt(f.body))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, _rebuilt(f.body))
    if isinstance(f, Certain):
        return Certain(_rebuilt(f.query), parse_mapping(_BASE_TEXT))
    return type(f)()


def _walked_free_vars(f) -> frozenset:
    """free_vars by a walk that reads no cache."""
    if isinstance(f, RelAtom):
        return frozenset(a.name for a in f.args if isinstance(a, Var))
    if isinstance(f, (Eq, Lt)):
        return frozenset(t.name for t in (f.left, f.right) if isinstance(t, Var))
    if isinstance(f, (And, Or)):
        return frozenset().union(*(_walked_free_vars(p) for p in f.parts))
    if isinstance(f, (Not, Exists, Forall)):
        return _walked_free_vars(f.body) - {getattr(f, "var", None)}
    if isinstance(f, Certain):
        return _walked_free_vars(f.query)
    return frozenset()


def _subformulas(f):
    yield f
    if isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _subformulas(p)
    elif isinstance(f, (Not, Exists, Forall)):
        yield from _subformulas(f.body)
    elif isinstance(f, Certain):
        yield from _subformulas(f.query)


@settings(max_examples=150, deadline=None)
@given(_formulas, st.dictionaries(_names, _terms), st.sets(_names))
def test_cached_hash_and_free_vars(f, sub, taken):
    h = hash(f)
    copy = _rebuilt(f)
    assert copy == f and hash(copy) == h and repr(copy) == repr(f)
    for g in (f, substitute(f, sub), rename_bound(f, set(taken))):
        for node in _subformulas(g):
            assert free_vars(node) == _walked_free_vars(node), node
            assert free_vars(node) == _walked_free_vars(node), node  # cached
    assert hash(f) == h and _rebuilt(f) == f


def test_two_parses_hash_alike():
    from helpers import OVERLAP_SOURCE, PAIR_SOURCES, SPLIT_PAIR_SOURCE

    texts = [OVERLAP_SOURCE, SPLIT_PAIR_SOURCE] + [t for pair in PAIR_SOURCES.values() for t in pair]
    for text in texts:
        m1, m2 = parse_mapping(text), parse_mapping(text)
        assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2), text
        for t1, t2 in zip(m1.tgds, m2.tgds):
            assert t1 == t2 and hash(t1) == hash(t2), text


def _mapping_nodes(m):
    yield m
    for tgd in m.tgds:
        yield tgd
        yield from _subformulas(tgd.antecedent)
        for atom in tgd.consequent:
            yield from _subformulas(atom)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copied_nodes_keep_equality_hash_and_free_vars(duplicate):
    m = parse_mapping(OVERLAP_SOURCE)
    for mapping in (m, laconify(m), eliminate_mapping(laconify(m))):
        for node in _mapping_nodes(mapping):
            for _ in range(2):  # copy before and after the caches are filled
                twin = duplicate(node)
                assert twin == node and repr(twin) == repr(node)
                assert hash(twin) == hash(node)
                if not isinstance(node, (SchemaMapping, TGD)):
                    assert free_vars(twin) == free_vars(node) == _walked_free_vars(node)
    atom = RelAtom("P", (Var("x"),))
    tgd = duplicate(TGD(atom, (), (atom, atom)))
    assert tgd.consequent == (atom,) and hash(tgd) == hash(TGD(atom, (), (atom,)))
    for node, field in [(atom, "rel"), (tgd, "consequent"), (duplicate(Not(atom)), "body")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, None)
    with pytest.raises(MappingError, match="^dependency consequent must be nonempty$"):
        TGD(atom, (), ())
    with pytest.raises(MappingError, match=re.escape("source and target schemas overlap: ['P']")):
        SchemaMapping(Schema({"P": 1}), Schema({"P": 1}), ())


# -- shared subformulas --------------------------------------------------------

# Conjunctive queries over S/2, the target of _BASE_TEXT's mapping: the
# leaves are certain[...] nodes over them, and, rarely, the bare queries.
_CQS = [
    parse_formula(text, S2)
    for text in ("S(x,y)", "exists y: S(x,y)", "exists z: S(x,z) & S(y,z)", "S(x,x)")
]
_shared_leaves = st.one_of(
    _leaves,
    st.sampled_from(_CQS).map(lambda q: Certain(q, parse_mapping(_BASE_TEXT))),
    st.sampled_from(_CQS[1:]),
)


@st.composite
def _shared_formulas(draw):
    """A formula in which subformulas recur: every new node takes its
    children from the nodes built before it, so one node may sit under
    several parents, and some children are equal copies, not the node."""
    nodes = draw(st.lists(_shared_leaves, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 14))):
        def child():
            node = nodes[draw(st.integers(0, len(nodes) - 1))]
            return _rebuilt(node) if draw(st.booleans()) else node

        kind = draw(st.sampled_from([And, Or, Not, Exists, Forall]))
        if kind in (And, Or):
            node = kind(tuple(child() for _ in range(draw(st.integers(2, 3)))))
        elif kind is Not:
            node = Not(child())
        else:
            node = kind(draw(_names), child())
        nodes.append(node)
    return nodes[-1]


@settings(max_examples=150, deadline=None)
@given(_shared_formulas())
def test_shared_subformulas_simplify_and_print_as_trees(f):
    from helpers import ref_eliminate, ref_format_formula, ref_simplify

    for prec in range(5):
        assert format_formula(f, prec) == ref_format_formula(f, prec)
    assert eliminate(f) == ref_simplify(ref_eliminate(f))


def _mapping(source: Schema, antecedents) -> SchemaMapping:
    head = (RelAtom("T", (Var("w"),)),)
    return SchemaMapping(source, Schema({"T": 1}), tuple(TGD(f, ("w",), head) for f in antecedents))


def _schema_error(source: Schema, antecedents) -> str | None:
    """The message of the mapping's schema check, or None if it passes."""
    try:
        _mapping(source, antecedents)
    except MappingError as exc:
        return str(exc)
    return None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_shared_formulas(), min_size=1, max_size=3),
    st.sampled_from([{"P": 1, "R": 2}, {"P": 1}, {"P": 1, "R": 1}, {"R": 2}, {"P": 1, "R": 2, "S": 1}]),
)
def test_shared_subformulas_schema_check_and_mapping_text(antecedents, source):
    """Dependencies may share subformulas; the schema check reports the
    first bad atom, of the whole mapping and of a mapping on each
    subformula, and the printed mapping is the one a tree walk prints."""
    from helpers import ref_check_formula_schema, ref_format_formula

    source = Schema(source)

    def expected(fs):
        try:
            for f in fs:
                ref_check_formula_schema(f, source, "antecedent")
        except MappingError as exc:
            return str(exc)
        return None

    for g in dict.fromkeys(g for f in antecedents for g in _subformulas(f)):
        assert _schema_error(source, [g]) == expected([g]), g
    assert _schema_error(source, antecedents) == expected(antecedents)
    if expected(antecedents) is None:
        decls = [f"source {', '.join(f'{n}/{a}' for n, a in source.rels)}.", "target T/1."]
        lines = [f"tgd: {ref_format_formula(f)} -> exists w: T(w)." for f in antecedents]
        assert format_mapping(_mapping(source, antecedents)) == "\n".join(decls + lines) + "\n"


def test_query_checked_in_certain_is_checked_again_outside():
    """A certain[...] query is checked against its base's target; the
    same subformula outside the node is checked against the source."""
    q = parse_formula("exists y: S(x,y)", S2)
    certain_q = Certain(q, parse_mapping(_BASE_TEXT))
    assert _schema_error(Schema({"P": 1}), [And((certain_q, q))]) == "antecedent: undeclared relation S"
    assert _schema_error(Schema({"P": 1}), [certain_q, q]) == "antecedent: undeclared relation S"
    assert _schema_error(Schema({"S": 1}), [certain_q]) is None


# -- decomposition ------------------------------------------------------------

def test_decompose_examples():
    m = parse_mapping(
        "source Q/1. target A/2, B/2. "
        "tgd: Q(x) -> exists y1, y2: A(x,y1) & B(x,y2)."
    )
    d = decompose(m)
    assert len(d.tgds) == 2
    assert [t.exist_vars for t in d.tgds] == [("y1",), ("y2",)]

    m2 = parse_mapping(
        "source Q/1. target R2/2, R1/2. "
        "tgd: Q(x) -> exists y, z, u: R2(x,y) & R2(z,y) & R1(z,u)."
    )
    assert decompose(m2) == m2

    m3 = parse_mapping(
        "source R/2. target S/2, T/2. tgd: R(x,y) -> S(x,y) & T(x,y)."
    )
    d3 = decompose(m3)
    assert len(d3.tgds) == 2
    assert all(t.exist_vars == () for t in d3.tgds)


@pytest.mark.parametrize("seed", range(30))
def test_decompose_preserves_cores(seed):
    from dx.chase import naive_chase
    from dx.model import compute_core, instances_isomorphic
    from dx.verify import random_source_instance
    from helpers import random_mapping

    m = random_mapping(seed)
    d = decompose(m)
    i = random_source_instance(m.source, f"dc:{seed}", 4, 8)
    c1, _ = compute_core(naive_chase(m, i))
    c2, _ = compute_core(naive_chase(d, i))
    assert instances_isomorphic(c1, c2)


def test_conj_disj_normalization():
    a = RelAtom("P", (Var("x"),))
    assert conj([a, TRUE, a]) == a
    assert conj([]) == TRUE
    assert isinstance(disj([]), Not)
    assert format_formula(conj([])) == "true"
