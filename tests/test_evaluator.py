"""The plan-executing evaluator and the SQL printed from the same plans,
against the two-engine reference evaluator kept in helpers.py, on
formulas and instances past the 6/12 bounds."""

import sqlite3

import pytest
from helpers import formula_to_sql, ref_eval_formula, ref_ground_answers, ref_holds
from hypothesis import given, settings, strategies as st

from dx.evaluator import eval_formula, ground_answers, holds
from dx.sqlgen import adom_view_sql, load_instance
from dx.lang import And, Eq, Exists, Forall, Lt, Not, Or, RelAtom, TRUE, Var
from dx.model import Const, Fact, FreshNull, Instance, MappingError, Schema, SkolemNull

PR = Schema({"P": 1, "R": 2})
CONSTS = [Const(c) for c in "abcdef"]
# `z` occurs in formulas but never in an instance: a constant outside the
# active domain, which an equality must not bind a quantified variable to.
TERM_CONSTS = CONSTS[:3] + [Const("z")]
NULLS = [FreshNull(1), FreshNull(2), SkolemNull("f", (Const("a"),)), SkolemNull("g", ())]


@st.composite
def formulas(draw, depth, scope):
    leaves = ["atom", "atom", "eq", "lt", "true"]
    nodes = ["and", "and", "or", "not", "not", "exists", "exists", "forall"]
    # inner nodes down to depth 2, so formulas reach depth 3-4
    inner = depth >= 2 or depth == 1 and draw(st.booleans())
    kind = draw(st.sampled_from(nodes if inner else leaves))

    def term():
        return draw(st.one_of(
            st.sampled_from([Var(v) for v in scope]),
            st.sampled_from(TERM_CONSTS),
        ))

    if kind == "atom":
        if draw(st.booleans()):
            return RelAtom("P", (term(),))
        return RelAtom("R", (term(), term()))
    if kind == "eq":
        return Eq(term(), term())
    if kind == "lt":
        return Lt(term(), term())
    if kind == "true":
        return TRUE
    if kind in ("and", "or"):
        parts = draw(st.lists(formulas(depth - 1, scope), min_size=2, max_size=2))
        return (And if kind == "and" else Or)(tuple(parts))
    if kind == "not":
        return Not(draw(formulas(depth - 1, scope)))
    # `x` shadows a free variable; `q` may shadow an outer quantifier
    v = draw(st.sampled_from(["q", "x"]))
    body = draw(formulas(depth - 1, sorted(set(scope) | {v})))
    return (Exists if kind == "exists" else Forall)(v, body)


@st.composite
def instances(draw):
    """P/R facts whose active domain is the six constants plus 2-4 nulls."""
    values = CONSTS + NULLS[: draw(st.integers(2, 4))]
    pick = st.sampled_from(values)
    facts = []
    for v in values:  # every value occurs, so the domain has 8-10 values
        if draw(st.booleans()):
            facts.append(Fact("P", (v,)))
        else:
            facts.append(Fact("R", (v, draw(pick))))
    for _ in range(draw(st.integers(0, 8))):
        facts.append(Fact("R", (draw(pick), draw(pick))))
    return Instance(PR, facts)


@st.composite
def source_instances(draw):
    """Null-free P/R facts over 8-10 constants, or no facts at all."""
    if draw(st.integers(0, 7)) == 0:
        return Instance(PR, [])
    values = [Const(c) for c in "abcdefgh"] + [Const("a'b"), Const("i j")]
    values = values[: draw(st.integers(8, 10))]
    pick = st.sampled_from(values)
    facts = []
    for v in values:  # every value occurs
        if draw(st.booleans()):
            facts.append(Fact("P", (v,)))
        else:
            facts.append(Fact("R", (v, draw(pick))))
    for _ in range(draw(st.integers(0, 8))):
        facts.append(Fact("R", (draw(pick), draw(pick))))
    return Instance(PR, facts)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 4).flatmap(lambda d: formulas(d, ["x", "y"])), source_instances())
def test_plan_sql_evaluator_and_reference_agree(f, i):
    """One plan, two executors: SQLite running the printed plan and the
    evaluator running it give the reference evaluator's answers."""
    want = ref_eval_formula(f, i, ("x", "y"))
    assert eval_formula(f, i, ("x", "y")) == want
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    conn.execute(adom_view_sql(PR).rstrip(";"))
    rows = set(conn.execute(formula_to_sql(f, PR, ("x", "y"))).fetchall())
    assert rows == {tuple(v.text for v in row) for row in want}


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 4).flatmap(lambda d: formulas(d, ["x", "y"])), instances())
def test_eval_formula_matches_reference(f, i):
    assert eval_formula(f, i, ("x", "y")) == ref_eval_formula(f, i, ("x", "y"))
    assert ground_answers(f, i, ("y", "x")) == ref_ground_answers(f, i, ("y", "x"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_holds_matches_reference(data):
    f = data.draw(st.integers(3, 4).flatmap(lambda d: formulas(d, ["x", "y"])))
    i = data.draw(instances())
    values = st.sampled_from(i.dom + (Const("z"),))
    for _ in range(5):
        env = {"x": data.draw(values), "y": data.draw(values)}
        assert holds(f, i, env) == ref_holds(f, i, env)


def test_disjunction_sharing_a_value_outside_the_domain():
    """`y` is bound outside the active domain, so a union that reads it from
    the domain would lose the disjunct that does not mention it."""
    i = Instance(PR, [Fact("P", (Const("a"),)), Fact("R", (Const("b"), Const("a")))])
    q = Var("q")
    f = Exists("q", And((
        RelAtom("P", (q,)),
        Or((RelAtom("R", (q, Var("y"))), RelAtom("R", (Var("x"), q)))),
    )))
    for y in (Const("a"), Const("z")):
        env = {"x": Const("b"), "y": y}
        assert holds(f, i, env) and ref_holds(f, i, env)
    assert not holds(f, i, {"x": Const("z"), "y": Const("z")})


def test_negation_of_bound_filter_is_an_anti_join():
    i = Instance(PR, [Fact("R", (Const("a"), Const("b"))), Fact("R", (Const("b"), Const("b")))])
    f = And((RelAtom("R", (Var("x"), Var("y"))), Not(Eq(Var("x"), Var("y")))))
    assert eval_formula(f, i, ("x", "y")) == {(Const("a"), Const("b"))}


def test_equality_binds_only_domain_values():
    i = Instance(PR, [Fact("P", (Const("a"),))])
    assert eval_formula(Eq(Var("x"), Const("z")), i, ("x",)) == set()
    assert eval_formula(Eq(Var("x"), Const("a")), i, ("x",)) == {(Const("a"),)}
    assert not holds(Exists("y", Eq(Var("x"), Var("y"))), i, {"x": Const("z")})
    assert holds(Exists("y", Eq(Var("x"), Var("y"))), i, {"x": Const("a")})


def test_quantifier_shadowing_a_bound_variable():
    i = Instance(PR, [Fact("P", (Const("a"),)), Fact("R", (Const("b"), Const("b")))])
    f = And((RelAtom("P", (Var("x"),)), Exists("x", RelAtom("R", (Var("x"), Var("x"))))))
    assert eval_formula(f, i, ("x",)) == {(Const("a"),)}


def test_holds_requires_every_free_variable():
    i = Instance(PR, [Fact("P", (Const("a"),))])
    with pytest.raises(MappingError, match="unbound variable y"):
        holds(RelAtom("R", (Var("x"), Var("y"))), i, {"x": Const("a")})


def test_quantifiers_over_an_empty_domain():
    empty = Instance(PR, [])
    for f in (Exists("q", TRUE), Forall("q", Not(TRUE)), Exists("q", Eq(Var("q"), Var("q")))):
        assert eval_formula(f, empty, ()) == ref_eval_formula(f, empty, ())
        assert holds(Or((f, Eq(Var("x"), Var("x")))), empty, {"x": Const("a")})
        assert holds(f, empty) == ref_holds(f, empty)
    assert eval_formula(Exists("q", TRUE), empty, ()) == set()
    assert eval_formula(Forall("q", Not(TRUE)), empty, ()) == {()}
