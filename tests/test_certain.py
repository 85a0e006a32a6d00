import re
import sqlite3

import pytest
from helpers import (
    COMPILE_FAMILIES,
    all_instances,
    cycle_mapping,
    inst,
    overlap_mapping,
    random_cq,
    random_mapping,
    ref_eval_formula,
    ref_holds,
    ref_unfold,
    star_blowup_mapping,
)

from dx.certain import (
    _Unifier,
    certain_answers,
    cq_parts,
    eliminate,
    eliminate_mapping,
    unfold,
)
from dx.chase import naive_chase, to_term_interpretation
from dx.evaluator import eval_formula, holds
from dx.laconify import laconify
from dx.lang import (
    TGD,
    And,
    Certain,
    Exists,
    Forall,
    Not,
    Or,
    RelAtom,
    SchemaMapping,
    Var,
    exists_all,
    format_formula,
    free_vars,
)
from dx.model import Const, Fact, FreshNull, Instance, MappingError, Schema, SkolemNull
from dx.parser import parse_formula, parse_mapping
from dx.sqlgen import interpretation_to_sql, load_instance, read_target, run_artifact
from dx.verify import random_source_instance

A, B, C = Const("a"), Const("b"), Const("c")


def test_certain_answers_examples():
    m = parse_mapping("source P/1. target R1/2. tgd: P(x) -> exists y: R1(x,y).")
    q = parse_formula("exists y: R1(x,y)", m.target)
    assert certain_answers(m, q, inst(m.source, ("P", "a"))) == {(A,)}
    assert certain_answers(m, q, Instance(m.source, [])) == set()

    m2 = parse_mapping(
        "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(y,z)."
    )
    q2 = parse_formula("S(x,y)", m2.target)
    assert certain_answers(m2, q2, inst(m2.source, ("R", "a", "b"))) == set()


def test_certain_answers_requires_cq():
    m = parse_mapping("source P/1. target S/1. tgd: P(x) -> S(x).")
    with pytest.raises(MappingError):
        certain_answers(m, Not(RelAtom("S", (Var("x"),))), Instance(m.source, []))


def test_cq_parts():
    m = parse_mapping("source P/1. target S/2. tgd: P(x) -> exists y: S(x,y).")
    ev, atoms, eqs = cq_parts(parse_formula("exists y: S(x,y) & x = x", m.target))
    assert ev == ("y",) and len(atoms) == 1 and len(eqs) == 1


def test_unfold_full_tgd():
    m = parse_mapping("source R/2. target S/2. tgd: R(x,y) -> S(x,y).")
    u = unfold(m, parse_formula("S(u,v)", m.target))
    assert len(u.disjuncts) == 1
    i = inst(m.source, ("R", "a", "b"))
    assert eval_formula(u.as_formula(), i, ("u", "v")) == {(A, B)}


def test_unfold_join_query_matches_operational_route():
    m = parse_mapping(
        "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(y,z)."
    )
    q = parse_formula("exists z: S(u,z) & S(v,z)", m.target)
    u = unfold(m, q)
    assert u.disjuncts
    for i in all_instances(m.source, "abc"):
        got = set(eval_formula(u.as_formula(), i, ("u", "v")))
        want = set(certain_answers(m, q, i, ("u", "v")))
        assert got == want, i.facts_sorted


def test_unfold_rejects_proper_terms_for_answer_variables():
    m = parse_mapping(
        "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(y,z)."
    )
    u = unfold(m, parse_formula("S(u,v)", m.target))
    assert u.disjuncts == ()
    assert certain_answers(m, parse_formula("S(u,v)", m.target), inst(m.source, ("R", "a", "b"))) == set()


def test_unfold_distinguishes_function_symbols():
    m = parse_mapping(
        """source P/1, Q/1. target S/1, T/1.
           tgd: P(x) -> exists y: S(y).
           tgd: Q(x) -> exists y: T(y)."""
    )
    # S and T witnesses come from different rules: no certain join
    q = parse_formula("exists w1, w2: S(w1) & T(w2)", m.target)
    u = unfold(m, q)
    i = inst(m.source, ("P", "a"), ("Q", "b"))
    assert eval_formula(u.as_formula(), i, ()) == certain_answers(m, q, i, ())


@pytest.mark.parametrize("seed", range(60))
def test_unfold_equals_certain_on_random_cqs(seed):
    m = random_mapping(seed)
    q = random_cq(m.target, seed)
    u = unfold(m, q)
    fv = tuple(sorted(free_vars(q)))
    for k in range(3):
        i = random_source_instance(m.source, f"u:{seed}:{k}", 4, 7)
        got = set(eval_formula(u.as_formula(), i, fv))
        want = set(certain_answers(m, q, i, fv))
        assert got == want


def test_certain_monotone_for_cq_antecedents():
    m = parse_mapping(
        "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(y,z)."
    )
    q = parse_formula("exists z: S(u,z) & S(v,z)", m.target)
    small = inst(m.source, ("R", "a", "b"))
    large = small.with_facts([Fact("R", (B, C))])
    assert certain_answers(m, q, small, ("u", "v")) <= certain_answers(
        m, q, large, ("u", "v")
    )


def test_eliminate_examples():
    m = overlap_mapping()
    node = Certain(parse_formula("exists y: R1(x,y)", m.target), m)
    out = eliminate(node)
    for i in all_instances(m.source, "abcd"):
        assert eval_formula(out, i, ("x",)) == eval_formula(
            RelAtom("P", (Var("x"),)), i, ("x",)
        )

    plain = parse_formula("P(x) & Q(x)", m.source)
    assert eliminate(plain) == plain

    negated = Not(node)
    out_neg = eliminate(negated)
    i = inst(m.source, ("P", "a"), ("Q", "b"))
    assert eval_formula(out_neg, i, ("x",)) == {(B,)}


def test_eliminate_mapping_matches_symbolic_evaluation():
    from helpers import pair
    from dx.laconify import laconify
    from dx.model import instances_isomorphic

    m, _ = pair("symmetric_join")
    lac = laconify(m)
    flat = eliminate_mapping(lac)
    for seed in range(25):
        i = random_source_instance(m.source, f"em:{seed}", 4, 6)
        assert instances_isomorphic(naive_chase(lac, i), naive_chase(flat, i))


def test_certain_node_evaluation_delegates():
    m = parse_mapping("source P/1. target R1/2. tgd: P(x) -> exists y: R1(x,y).")
    node = Certain(parse_formula("exists y: R1(x,y)", m.target), m)
    i = inst(m.source, ("P", "a"))
    assert eval_formula(node, i, ("x",)) == {(A,)}


def test_certain_answers_invariant_under_laconic_rewriting():
    from dx.laconify import laconify

    m = parse_mapping(
        "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(y,z)."
    )
    flat = eliminate_mapping(laconify(m))
    for seed in range(20):
        q = random_cq(m.target, seed)
        fv = tuple(sorted(free_vars(q)))
        for k in range(2):
            i = random_source_instance(m.source, f"ci:{seed}:{k}", 4, 7)
            assert certain_answers(m, q, i, fv) == certain_answers(flat, q, i, fv)


# -- depth-first unfolding against the product loop ---------------------------

def _certain_nodes(f, out):
    if isinstance(f, Certain):
        out.setdefault(f)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            _certain_nodes(p, out)
    elif isinstance(f, (Not, Exists, Forall)):
        _certain_nodes(f.body, out)
    return out


def _unfold_or_error(m, q, fn):
    try:
        return fn(m, q)
    except RecursionError:
        return RecursionError


def _check_unfold_matches_reference(m) -> int:
    """unfold == ref_unfold, disjunct order included, on every certain[...]
    node of m's laconic rewriting; returns how many raised RecursionError."""
    out = {}
    for tgd in laconify(m).tgds:
        _certain_nodes(tgd.antecedent, out)
    assert out
    failed = 0
    for c in out:
        got = _unfold_or_error(c.base, c.query, unfold)
        assert got == _unfold_or_error(c.base, c.query, ref_unfold), c
        failed += got is RecursionError
    return failed


@pytest.mark.parametrize("name", sorted(COMPILE_FAMILIES))
def test_unfold_matches_reference_on_compile_families(name):
    failed = _check_unfold_matches_reference(COMPILE_FAMILIES[name]())
    # the occurs check misses a bound node (ROADMAP item 1): both loops fail
    assert bool(failed) == (name == "tail_3_cycle")


def test_unfold_matches_reference_on_random_mappings():
    for seed in range(50):
        assert _check_unfold_matches_reference(random_mapping(seed)) == 0, seed


@pytest.mark.parametrize("mapping, query, want", [
    # z is numbered before y, but ('q', 'y') sorts first
    ("source P/1, Q/1. target R/1, T/1. tgd: P(x) -> R(x). tgd: Q(x) -> T(x).",
     "exists z, y: R(z) & T(y)", "exists w1, w2: P(w2) & Q(w1)"),
    # depth 10's parameter, ('b', 10, 'x'), sorts before depth 2's
    ("source P/1. target R/1. tgd: P(x) -> exists y: R(y).",
     "exists " + ", ".join(f"z{i}" for i in range(11)) + ": "
     + " & ".join(f"R(z{i})" for i in range(11)),
     "exists " + ", ".join(f"w{i}" for i in range(1, 12)) + ": "
     + " & ".join(f"P(w{i})" for i in (1, 2, *range(4, 12), 3))),
], ids=["existential_order", "depth_10"])
def test_unfold_numbers_fresh_variables_in_reference_order(mapping, query, want):
    """Fresh variables are numbered by class, in the order of the reprs
    of the tuples that named the classes' roots in the product loop, not
    in the order of the integer nodes."""
    m = parse_mapping(mapping)
    q = parse_formula(query, m.target)
    got = unfold(m, q)
    assert got == ref_unfold(m, q)
    assert format_formula(got.as_formula()) == want


def test_unfold_renames_a_shared_condition_per_fresh_name_count():
    """R's rule condition over u is taken twice, once beside the fresh
    name w1 (so its bound w1 is renamed) and once without one."""
    m = parse_mapping(
        "source S/2, Q/1, P/1. target R/1, T/1. tgd: (exists w1: S(x,w1)) -> R(x). "
        "tgd: Q(x) -> T(x). tgd: P('c') -> T('c')."
    )
    q = parse_formula("exists z: R(u) & T(z)", m.target)
    got = unfold(m, q)
    assert got == ref_unfold(m, q)
    assert format_formula(got.as_formula()) == (
        "(exists w1: (exists q1: S(u, q1)) & Q(w1)) | (exists w1: S(u, w1)) & P('c')"
    )


def test_unfold_prunes_failed_prefixes(monkeypatch):
    """The pure 4-cycle's elimination tries 4,352 branch choices in the
    product loop, which makes 15,660 unify calls; the depth-first walk
    unifies each branch once per surviving prefix, so a walk that
    extended a failed prefix would reach all 4,352 choices and make at
    least one call for each."""
    calls = 0
    unify = _Unifier.unify

    def counting_unify(self, a, b):
        nonlocal calls
        calls += 1
        return unify(self, a, b)

    lm = laconify(cycle_mapping(4))
    monkeypatch.setattr(_Unifier, "unify", counting_unify)
    eliminate_mapping(lm)
    assert 0 < calls < 4352 // 4


def test_eval_formula_chases_each_certain_base_once(monkeypatch):
    """A laconified antecedent holds many certain[...] nodes over one
    base mapping; one evaluation chases that base once and shares it."""
    import dx.chase as chase_mod

    m = star_blowup_mapping(3)
    lm = laconify(m)
    tgd = max(lm.tgds, key=lambda t: len(_certain_nodes(t.antecedent, {})))
    nodes = _certain_nodes(tgd.antecedent, {})
    assert len(nodes) >= 10 and {n.base for n in nodes} == {m}
    # a's block is R(a, y): a satisfies every P_i; b's keeps a P_2 and a P_3 null
    i = inst(m.source, ("Q", "a"), ("P1", "a"), ("P2", "a"), ("P3", "a"), ("Q", "b"), ("P1", "b"))
    want = ref_eval_formula(tgd.antecedent, i, tgd.universal_vars)
    assert want == {(Const("a"),)}
    chased = []
    chase = chase_mod.naive_chase

    def counting(base, source):
        chased.append(base)
        return chase(base, source)

    monkeypatch.setattr(chase_mod, "naive_chase", counting)
    assert eval_formula(tgd.antecedent, i, tgd.universal_vars) == want
    assert chased == [m]
    # a second evaluation keeps no chase from the first
    eval_formula(tgd.antecedent, i, tgd.universal_vars)
    assert chased == [m, m]


def test_chases_of_a_laconified_mapping_chase_its_base_once(monkeypatch):
    """Every dependency of a laconified mapping reads certain[...] over the
    same base; one chase of it (naive or restricted) chases that base once."""
    import dx.chase as chase_mod

    m = overlap_mapping()
    lm = laconify(m)
    assert len(lm.tgds) > 1
    i = inst(m.source, ("P", "a"), ("Q", "a"), ("Q", "b"))
    want = naive_chase(lm, i), chase_mod.restricted_chase(lm, i)
    chased = []
    chase = chase_mod.naive_chase

    def counting(base, source):
        chased.append(base)
        return chase(base, source)

    monkeypatch.setattr(chase_mod, "naive_chase", counting)
    assert chase_mod.naive_chase(lm, i) == want[0]
    assert chased == [lm, m]
    assert chase_mod.restricted_chase(lm, i) == want[1]
    assert chased == [lm, m, m]


@pytest.mark.parametrize("laconic_base, query, message", [
    (False, "!R1(x,x)", "not a conjunctive query"),
    (True, "exists y: R1(x,y)", "certain answers require a certain[...]-free mapping"),
])
def test_certain_node_evaluation_rejects_what_certain_answers_rejects(laconic_base, query, message):
    m = parse_mapping("source P/1. target R1/2. tgd: P(x) -> exists y: R1(x,y).")
    base = laconify(m) if laconic_base else m
    node = Certain(parse_formula(query, m.target), base)
    with pytest.raises(MappingError, match=re.escape(message)):
        eval_formula(node, inst(m.source, ("P", "a")), ("x",))


# Bases whose heads carry constants (c, d) that a source instance may lack.
HEAD_CONSTANT_BASES = [
    "source P/1. target T/1. tgd: P(y) -> T('c').",
    "source R/2. target S/2. tgd: R(x,y) -> exists z: S(x,z) & S(z,'c').",
    "source P/1, R/2. target S/2, T/1. tgd: P(x) -> S(x,'d') & T('c'). "
    "tgd: R(x,y) -> exists z: S(y,z) & T(z).",
]


@pytest.mark.parametrize("facts", [("a",), ("a", "c")])
def test_certain_antecedent_chases_agree_on_a_head_constant(facts):
    """certain[T(x)] answers only values of the source's active domain,
    like every variable, so the chase of `certain[T(x)] -> U(x)` equals
    the chase of its elimination and the SQL route, c in the source or
    not."""
    base = parse_mapping(HEAD_CONSTANT_BASES[0])
    node = Certain(RelAtom("T", (Var("x"),)), base)
    m = SchemaMapping(base.source, Schema({"U": 1}), (TGD(node, (), (RelAtom("U", (Var("x"),)),)),))
    flat = eliminate_mapping(m)
    i = inst(m.source, *[("P", c) for c in facts])
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, interpretation_to_sql(to_term_interpretation(flat)))
    got = naive_chase(m, i)
    assert got == naive_chase(flat, i) == read_target(conn, m.target)
    assert got == inst(m.target, *[("U", c) for c in facts if c == "c"])


@pytest.mark.parametrize("text", HEAD_CONSTANT_BASES)
def test_certain_nodes_agree_with_their_elimination_on_head_constants(text):
    base = parse_mapping(text)
    for seed in range(10):
        q = random_cq(base.target, seed)
        node = Certain(q, base)
        flat = eliminate(node)
        fv = tuple(sorted(free_vars(q)))
        for k in range(3):
            i = random_source_instance(base.source, f"hc:{seed}:{k}", 4, 6)
            got = eval_formula(node, i, fv)
            assert got == eval_formula(flat, i, fv) == ref_eval_formula(node, i, fv)
            assert holds(exists_all(fv, node), i) == holds(exists_all(fv, flat), i) == bool(got)


def test_holds_substitutes_its_assignment_into_certain_nodes():
    """A constant outside the active domain is substituted into the query;
    a null makes the node false (certain answers are constants), though
    the base's chase holds T of it."""
    base = parse_mapping(HEAD_CONSTANT_BASES[0])
    node = Certain(RelAtom("T", (Var("x"),)), base)
    i = inst(base.source, ("P", "a"))
    assert holds(node, i, {"x": C}) and holds(eliminate(node), i, {"x": C})
    assert ref_holds(node, i, {"x": C})
    base = parse_mapping("source P/1. target T/1. tgd: P(y) -> exists z: T(z).")
    node = Certain(RelAtom("T", (Var("x"),)), base)
    null = SkolemNull("f1_1", (A,))
    assert Fact("T", (null,)) in naive_chase(base, i).facts
    assert not holds(node, i, {"x": null}) and not ref_holds(node, i, {"x": null})


def _bound(uf, node):
    return uf.binding[uf.find(node)]


@pytest.mark.parametrize("value", [
    Const("q"), Const("b"), Const("app"), FreshNull(2),
    SkolemNull("q", (Const("x"),)), SkolemNull("app", ()),
])
def test_unifier_treats_values_as_constants(value):
    """Unifier nodes are ints and proper terms plain (symbol, args)
    tuples; a value is a tuple subclass, and never reads as either."""
    uf = _Unifier(1)
    assert not uf.occurs(0, value)
    assert uf.unify(0, value)
    assert _bound(uf, 0) is value and uf.trail == [0]
    assert not uf.unify(value, ("f", ()))
    assert not uf.unify(value, ("q", ()))
    assert not uf.unify(value, Const("other"))
    assert uf.unify(value, value) and uf.unify(0, value)
    assert uf.trail == [0]


def test_unifier_undoes_to_a_mark():
    """Undo restores the unions and bindings made since the mark, and
    only those."""
    uf = _Unifier(4)
    assert uf.unify(0, 1)
    mark = len(uf.trail)
    assert uf.unify(2, ("f", (0,)))
    assert uf.unify(1, 3)
    assert uf.unify(3, Const("a"))
    assert _bound(uf, 2) == ("f", (0,)) and _bound(uf, 0) == Const("a")
    uf.undo(mark)
    assert [uf.find(n) for n in range(4)] == [0, 0, 2, 3]
    assert uf.binding == [None] * 4 and len(uf.trail) == mark
    assert uf.unify(0, Const("b")) and _bound(uf, 1) == Const("b")


def test_unifier_occurs_check_rejects_a_direct_cycle():
    uf = _Unifier(2)
    assert uf.unify(0, 1)
    assert not uf.unify(1, ("f", (0,)))
    assert uf.trail == [1]


@pytest.mark.xfail(
    strict=True,
    reason="the occurs check reads a term's own nodes, not their bindings "
    "(ROADMAP item 1: the tail-3-cycle's RecursionError)",
)
def test_unifier_occurs_check_sees_through_bound_nodes():
    """a = f(b), then b = g(a) would make b = g(f(b)): a cycle."""
    uf = _Unifier(2)
    assert uf.unify(0, ("f", (1,)))
    assert not uf.unify(1, ("g", (0,)))
