import json
from collections import Counter

import pytest
from helpers import inst, pair, random_mapping, ref_eval_disjunctive, star_blowup_mapping

from dx.certain import eliminate_mapping
from dx.chase import naive_chase
from dx.laconify import laconify
from dx.lang import Eq, RelAtom, Var
from dx.model import Const, Fact, FreshNull, MappingError, Schema, compute_core
from dx.parser import parse_mapping
from dx.verify import (
    Bounds,
    DepDisjunct,
    DisjunctiveDependency,
    check_cq_equivalent,
    check_disjunctive_preservation,
    check_laconic,
    eval_disjunctive,
    random_disjunctive,
    random_source_instance,
    separating_dependency,
    separating_dependency_holds,
    shrink_instance,
)

A = Const("a")
S2 = Schema({"S": 2})

KEY_DEP = DisjunctiveDependency(
    (RelAtom("S", (Var("x"), Var("y"))), RelAtom("S", (Var("x"), Var("z")))),
    (),
    (DepDisjunct((), (), (Eq(Var("y"), Var("z")),)),),
)


def test_eval_disjunctive_examples():
    assert eval_disjunctive(KEY_DEP, inst(S2, ("S", "a", FreshNull(1))))
    assert not eval_disjunctive(
        KEY_DEP, inst(S2, ("S", "a", FreshNull(1)), ("S", "a", FreshNull(2)))
    )


def test_eval_disjunctive_with_existential_disjunct():
    dep = DisjunctiveDependency(
        (RelAtom("S", (Var("x"), Var("y"))),),
        (),
        (DepDisjunct(("z",), (RelAtom("S", (Var("z"), Var("x"))),), ()),),
    )
    good = inst(S2, ("S", "a", "b"), ("S", "b", "a"))
    assert eval_disjunctive(dep, good)
    assert not eval_disjunctive(dep, inst(S2, ("S", "a", "b")))


def test_eval_disjunctive_existential_stays_in_active_domain():
    """exists z: z = 'c' is false where 'c' is not a value of the
    instance, although the disjunct has no atom to range over."""
    dep = DisjunctiveDependency(
        (RelAtom("S", (Var("x1"), Var("x2"))),),
        (),
        (DepDisjunct(("z",), (), (Eq(Var("z"), Const("c")),)),),
    )
    assert not eval_disjunctive(dep, inst(S2, ("S", "a", "b")))
    assert eval_disjunctive(dep, inst(S2, ("S", "a", "b"), ("S", "c", "c")))


def test_eval_disjunctive_matches_reference_on_chases_and_cores():
    outcomes = []
    for seed in range(40):
        m = random_mapping(seed)
        i = random_source_instance(m.source, seed, 3, 5)
        j_prime = naive_chase(m, i)
        core, _ = compute_core(j_prime)
        deps = [random_disjunctive(m.target, f"{seed}:{k}") for k in range(6)]
        deps.append(separating_dependency(j_prime))
        # no generated disjunct has existential variables without atoms,
        # the one case where the reference answers differently
        for dep in deps:
            for target in (j_prime, core):
                got = eval_disjunctive(dep, target)
                assert got == ref_eval_disjunctive(dep, target), (seed, dep)
                outcomes.append(got)
    assert len(outcomes) > 400 and 0 < sum(outcomes) < len(outcomes)


def test_key_dependency_on_core_vs_padded_solution():
    m = parse_mapping("source R/1. target S/2. tgd: R(x) -> exists y: S(x,y).")
    i = inst(m.source, ("R", "a"))
    core = naive_chase(m, i)  # laconic here: one fresh null per fact
    assert eval_disjunctive(KEY_DEP, core)
    padded = core.with_facts([Fact("S", (A, FreshNull(77)))])
    assert not eval_disjunctive(KEY_DEP, padded)


def test_check_laconic_fails_with_shrunk_counterexample():
    m, _ = pair("double_witness")
    report = check_laconic(m, samples=40, seed=3)
    assert not report.passed
    assert report.verdict == "fail"
    for f in report.failures:
        assert len(f.instance.facts) == 1  # shrunk to a single source fact
        assert not_core_witness(m, f.instance)


def not_core_witness(m, i):
    from dx.model import is_core

    return not is_core(naive_chase(m, i))


def test_check_laconic_passes_on_full_tgds():
    m = parse_mapping("source R/2. target S/2. tgd: R(x,y) -> S(x,y).")
    report = check_laconic(m, samples=40, seed=3)
    assert report.passed


def test_check_laconic_passes_on_laconic_pair():
    _, right = pair("loop_absorbs_null")
    assert check_laconic(right, samples=60, seed=1).passed


def test_check_laconic_plans_each_dependency_once(monkeypatch):
    from dx.plan import Planner

    m = eliminate_mapping(laconify(pair("symmetric_join")[0]))
    calls = []
    plan = Planner.plan

    def counted(self, f, *args, **kwargs):
        calls.append(f)
        return plan(self, f, *args, **kwargs)

    monkeypatch.setattr(Planner, "plan", counted)
    assert check_laconic(m, samples=50, seed=7).passed
    assert calls == [t.antecedent for t in m.tgds]


def test_check_laconic_plans_each_certain_query_once(monkeypatch):
    """A laconified mapping is compiled once per check: its antecedents
    and each certain[...] query are planned once, on first use.  Only
    the base, compiled again by each sample's chase of it, is planned
    once per sample."""
    from dx.plan import Planner

    m = star_blowup_mapping(3)
    lm = laconify(m)
    planned = []
    plan = Planner.plan

    def counting(self, f, *args, **kwargs):
        planned.append(f)
        return plan(self, f, *args, **kwargs)

    monkeypatch.setattr(Planner, "plan", counting)
    assert check_laconic(lm, 50, 0).passed
    base = Counter(t.antecedent for t in m.tgds)
    counts = Counter(planned)
    assert {f: n for f, n in counts.items() if f in base} == {f: 50 * n for f, n in base.items()}
    assert all(n == 1 for f, n in counts.items() if f not in base)


def test_check_laconic_checks_each_certain_node_once(monkeypatch):
    """A certain[...] node is checked (CQ query, certain[...]-free base)
    when its query is planned, so once per compiled mapping, not once
    per sample's evaluator."""
    import dx.certain
    from dx.lang import certain_nodes

    lm = laconify(star_blowup_mapping(3))
    checked = Counter()
    check = dx.certain.require_certain_query

    def counting(base, query):
        checked[base, query] += 1
        return check(base, query)

    monkeypatch.setattr(dx.certain, "require_certain_query", counting)
    assert check_laconic(lm, 50, 0).passed
    nodes = {n for t in lm.tgds for n in certain_nodes(t.antecedent)}
    assert checked == Counter({(n.base, n.query): 1 for n in nodes})


def test_check_cq_equivalent_pairs():
    left, right = pair("view_overlap")
    assert check_cq_equivalent(left, right, samples=60, seed=5).passed
    other_left, other_right = pair("diagonal_overlap")
    assert check_cq_equivalent(other_left, other_right, samples=60, seed=5).passed


def test_check_cq_equivalent_detects_difference():
    null_form = parse_mapping("source P/1. target R/2. tgd: P(x) -> exists y: R(x,y).")
    loop_form = parse_mapping("source P/1. target R/2. tgd: P(x) -> R(x,x).")
    report = check_cq_equivalent(null_form, loop_form, samples=60, seed=5)
    assert not report.passed
    assert len(report.failures[0].instance.facts) == 1


def test_check_schemas_must_match():
    m = parse_mapping("source P/1. target R/2. tgd: P(x) -> R(x,x).")
    m2 = parse_mapping("source Q/1. target R/2. tgd: Q(x) -> R(x,x).")
    with pytest.raises(ValueError):
        check_cq_equivalent(m, m2, samples=5, seed=0)


def test_reports_are_reproducible():
    m, _ = pair("double_witness")
    r1 = check_laconic(m, samples=25, seed=11)
    r2 = check_laconic(m, samples=25, seed=11)
    assert r1 == r2
    lines = r1.records_jsonl().strip().splitlines()
    assert len(lines) == 25
    rec = json.loads(lines[0])
    assert set(rec) == {"index", "seed", "verdict", "diagnosis"}


def test_shrink_preserves_failure():
    m, _ = pair("double_witness")
    i = random_source_instance(m.source, "shrink", 5, 10)
    if not_core_witness(m, i):
        small = shrink_instance(i, lambda j: not_core_witness(m, j))
        assert not_core_witness(m, small)
        for f in small.facts_sorted:
            assert not not_core_witness(m, small.without([f]))


def test_separating_dependency_construction():
    m, _ = pair("double_witness")
    i = inst(m.source, ("P", "a"))
    j_prime = naive_chase(m, i)
    from dx.model import compute_core

    core, _ = compute_core(j_prime)
    sep = separating_dependency(j_prime)
    assert separating_dependency_holds(sep, core)
    assert not separating_dependency_holds(sep, j_prime)
    # the two evaluation routes agree on small instances
    assert eval_disjunctive(sep, core) is True
    assert eval_disjunctive(sep, j_prime) is False


def test_check_disjunctive_preservation():
    m, _ = pair("double_witness")
    report = check_disjunctive_preservation(m, samples=40, seed=2)
    assert report.passed
    assert report.samples == 40


def test_check_disjunctive_preservation_full_tgds_vacuous():
    m = parse_mapping("source R/2. target S/2. tgd: R(x,y) -> S(x,y).")
    report = check_disjunctive_preservation(m, samples=10, seed=2)
    assert report.passed
    assert report.samples == 0  # no non-core canonical solutions exist


def test_random_disjunctive_deterministic():
    d1 = random_disjunctive(S2, 9)
    d2 = random_disjunctive(S2, 9)
    assert d1 == d2


def test_bounds_respected():
    i = random_source_instance(S2, 5, max_consts=3, max_facts=4)
    assert len(i.facts) <= 4
    assert len(i.constants) <= 3


@pytest.mark.parametrize("max_consts, max_facts", [(0, 4), (13, 4), (3, -1)])
def test_bounds_out_of_range_are_rejected(max_consts, max_facts):
    """The pool holds 12 constants; a larger bound would be reported
    but not sampled."""
    with pytest.raises(MappingError):
        random_source_instance(S2, 5, max_consts, max_facts)
    with pytest.raises(MappingError):
        Bounds(max_consts, max_facts)


def test_bounds_at_the_edges_are_sampled():
    i = random_source_instance(S2, 5, max_consts=12, max_facts=200)
    assert len(i.constants) == 12
    assert random_source_instance(S2, 5, max_consts=1, max_facts=0).facts == frozenset()
