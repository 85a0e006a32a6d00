"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line with its headline
numbers so a verbose run doubles as a report.  Tolerances are exact
(zero failures) throughout; sampling parameters are fixed seeds and the
default bounds (at most 6 constants and 12 facts per source sample).
"""

try:
    import sqlite3
except ImportError:  # pragma: no cover
    sqlite3 = None

import pytest
from helpers import (
    PAIR_SOURCES,
    all_instances,
    check_rigid_and_safe,
    inst,
    overlap_mapping,
    pair,
    random_cq,
    random_mapping,
    ref_self_maps,
    split_pair_mapping,
    star_blowup_mapping,
    total_relation_instance,
)

from dx.certain import certain_answers, eliminate_mapping, unfold
from dx.chase import (
    eval_interpretation,
    naive_chase,
    restricted_chase,
    to_term_interpretation,
)
from dx.evaluator import eval_formula
from dx.lang import Not, RelAtom, Var, conj, decompose, free_vars
from dx.laconify import (
    generate_block_types,
    laconify,
    make_block_type,
    preconditions,
)
from dx.model import compute_core, instances_isomorphic, is_core
from dx.verify import (
    Bounds,
    check_cq_equivalent,
    check_disjunctive_preservation,
    check_laconic,
    random_source_instance,
)
from dx.sqlgen import (
    interpretation_to_sql,
    load_instance,
    read_source_csv,
    read_target,
    run_artifact,
    write_source_csv,
)

SAMPLES = 200
BOUNDS = Bounds(max_consts=6, max_facts=12)


@pytest.fixture(scope="module")
def laconified():
    out = {name: laconify(pair(name)[0]) for name in PAIR_SOURCES}
    out["overlap"] = laconify(overlap_mapping())
    return out


def test_criterion_01_pair_suite():
    for name in PAIR_SOURCES:
        left, right = pair(name)
        bad = check_laconic(left, samples=SAMPLES, seed=101, bounds=BOUNDS)
        assert not bad.passed, name
        shrunk = bad.failures[0].instance
        assert not is_core(naive_chase(left, shrunk)), name
        for f in shrunk.facts_sorted:
            assert is_core(naive_chase(left, shrunk.without([f]))), name
        good = check_laconic(right, samples=SAMPLES, seed=102, bounds=BOUNDS)
        assert good.passed, (name, good.render())
        equiv = check_cq_equivalent(left, right, samples=SAMPLES, seed=103, bounds=BOUNDS)
        assert equiv.passed, (name, equiv.render())
    print(
        f"\nPASS 01 pair suite: {len(PAIR_SOURCES)} pairs, "
        f"{SAMPLES} samples per check, 0 failures"
    )


def test_criterion_02_laconify_end_to_end(laconified):
    inputs = {name: pair(name)[0] for name in PAIR_SOURCES}
    inputs["overlap"] = overlap_mapping()
    for name, m in inputs.items():
        lac = laconified[name]
        lrep = check_laconic(lac, samples=SAMPLES, seed=201, bounds=BOUNDS)
        assert lrep.passed, (name, lrep.render())
        erep = check_cq_equivalent(m, lac, samples=SAMPLES, seed=202, bounds=BOUNDS)
        assert erep.passed, (name, erep.render())
    print(
        f"\nPASS 02 laconify end to end: {len(inputs)} mappings, "
        f"{SAMPLES} samples per check, 0 failures"
    )


def test_criterion_03_overlap_types_and_preconditions_exact():
    md = decompose(overlap_mapping())
    types = generate_block_types(md)
    assert len(types) == 3

    def by_rels(*rels):
        for t in types:
            if sorted(a.rel for a in t.atoms) == sorted(rels):
                return t
        raise AssertionError(rels)

    t1 = by_rels("R1")
    t2 = by_rels("R1", "R2", "R2")
    t3 = by_rels("R2")
    x = (Var("x1"),)
    expected = [
        (t1, RelAtom("P", x)),
        (t2, conj([RelAtom("Q", x), Not(RelAtom("P", x))])),
        (t3, conj([RelAtom("Q", x), RelAtom("P", x)])),
    ]
    checked = 0
    pres = dict(zip(types, preconditions(types, md)))
    for t, want in expected:
        pre = pres[t]
        for i in all_instances(md.source, "abcd"):
            assert eval_formula(pre, i, ("x1",)) == eval_formula(want, i, ("x1",))
            checked += 1
    print(
        f"\nPASS 03 overlap example: exactly 3 types; preconditions exact "
        f"on {checked // 3} instances each (exhaustive over 4 constants)"
    )


def test_criterion_04_star_blowup_types():
    m = star_blowup_mapping(3)
    types = generate_block_types(m)
    star_types = [t for t in types if any(a.rel == "R" for a in t.atoms)]
    assert len(star_types) == 8
    found = 0
    for bits in range(8):
        subset = [i for i in (1, 2, 3) if bits >> (i - 1) & 1]
        atoms = [RelAtom("R", (Var("x"), Var("y0")))]
        for i in subset:
            atoms.append(RelAtom("R", (Var(f"y{i}"), Var("y0"))))
            atoms.append(RelAtom(f"Pp{i}", (Var(f"y{i}"),)))
        expected = make_block_type(
            tuple(atoms), ("x",), tuple(["y0"] + [f"y{i}" for i in subset])
        )
        assert expected in star_types, subset
        found += 1
    print(f"\nPASS 04 star blowup (k=3): all {found} star types present (of {len(types)} total)")


def test_criterion_05_total_relation_fixture(laconified):
    m, _ = pair("symmetric_join")
    i = total_relation_instance(m.source, "R", "abcd")
    assert len(i.facts) == 16
    canonical = naive_chase(m, i)
    core, _ = compute_core(canonical)
    assert len(core.nulls) == 6
    assert len(core.facts) == 12
    lac_chase = naive_chase(laconified["symmetric_join"], i)
    assert instances_isomorphic(core, lac_chase)
    print(
        "\nPASS 05 total-relation fixture: core has 6 nulls / 12 facts; "
        "laconified chase isomorphic"
    )


def test_criterion_06_interpretation_and_unfold_parity():
    for seed in range(500):
        m = random_mapping(seed)
        i = random_source_instance(m.source, f"c6:{seed}", 5, 9)
        assert eval_interpretation(to_term_interpretation(m), i) == naive_chase(m, i)
    cq_checked = 0
    for seed in range(100):
        m = random_mapping(f"cq{seed}")
        q = random_cq(m.target, seed)
        u = unfold(m, q)
        fv = tuple(sorted(free_vars(q)))
        for k in range(3):
            i = random_source_instance(m.source, f"c6q:{seed}:{k}", 4, 8)
            got = set(eval_formula(u.as_formula(), i, fv))
            want = set(certain_answers(m, q, i, fv))
            assert got == want, (seed, k)
        cq_checked += 1
    print(
        f"\nPASS 06 parity: 500 chase/interpretation pairs equal fact-for-fact; "
        f"{cq_checked} unfolded queries match certain answers"
    )


def test_criterion_07_sql_pipeline(laconified, tmp_path):
    if sqlite3 is None:  # pragma: no cover
        pytest.skip(
            "no embedded SQL engine available; evaluator parity (criterion 6) "
            "and the golden SQL files stand in"
        )
    fixtures = {name: pair(name)[0] for name in PAIR_SOURCES}
    fixtures["overlap"] = overlap_mapping()
    fixtures["split_pair"] = split_pair_mapping()
    runs = 0
    for name, m in fixtures.items():
        lac = laconified.get(name) or laconify(m)
        flat = eliminate_mapping(lac)
        artifact = interpretation_to_sql(to_term_interpretation(flat))
        for k in range(50):
            i = random_source_instance(m.source, f"c7:{name}:{k}", 5, 9)
            directory = tmp_path / f"{name}_{k}"
            write_source_csv(i, str(directory))
            loaded = read_source_csv(m.source, str(directory))
            assert loaded == i
            conn = sqlite3.connect(":memory:")
            load_instance(conn, loaded)
            run_artifact(conn, artifact)
            out = read_target(conn, m.target)
            conn.close()
            core, _ = compute_core(naive_chase(m, i))
            assert instances_isomorphic(out, core), (name, k)
            runs += 1
    print(
        f"\nPASS 07 SQL pipeline: {runs} CSV-to-SQLite runs decode to the "
        f"core universal solution ({len(fixtures)} fixtures x 50 instances)"
    )


def test_criterion_08_disjunctive_preservation():
    total = 0
    for name in ("double_witness", "loop_absorbs_null", "symmetric_join"):
        m, _ = pair(name)
        rep = check_disjunctive_preservation(
            m, samples=34, seed=81, bounds=BOUNDS, deps_per_sample=3
        )
        assert rep.passed, (name, rep.render())
        total += rep.samples
    assert total >= 100
    print(
        f"\nPASS 08 disjunctive preservation: {total} non-core canonical "
        f"solutions, 0 violations, separating dependency always splits"
    )


def test_criterion_09_restricted_chase_without_side_conditions():
    for name, m in (("symmetric_join", pair("symmetric_join")[0]), ("overlap", overlap_mapping())):
        stripped = laconify(m, side_conditions=False)
        for k in range(SAMPLES):
            i = random_source_instance(m.source, f"c9:{name}:{k}", 6, 12)
            core, _ = compute_core(naive_chase(m, i))
            assert instances_isomorphic(core, restricted_chase(stripped, i)), (name, k)
    print(
        f"\nPASS 09 restricted chase: side-condition-free rewriting reaches "
        f"the core on {SAMPLES} samples x 2 fixtures"
    )


def test_criterion_10_side_condition_rigidity_and_safety():
    mappings = [pair(name)[0] for name in PAIR_SOURCES]
    mappings += [overlap_mapping(), split_pair_mapping(), star_blowup_mapping(2)]
    checked = 0
    nontrivial = 0
    for m in mappings:
        for t in generate_block_types(decompose(m)):
            checked += 1
            if len(ref_self_maps(t)) > 1:
                nontrivial += 1
            violations = check_rigid_and_safe(t)
            assert violations == [], (t, violations)
    assert nontrivial >= 1
    print(
        f"\nPASS 10 side conditions: {checked} types checked exhaustively "
        f"({nontrivial} with nontrivial self-maps), 0 violations"
    )
