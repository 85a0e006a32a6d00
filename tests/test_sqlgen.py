import functools
import random
import re
import sqlite3

import pytest
from helpers import (
    COMPILE_FAMILIES,
    SQL_NAME_CLASHES,
    fan_mapping,
    formula_to_sql,
    guard_keys,
    inst,
    overlap_mapping,
    pair,
    random_mapping,
    ref_decode_value,
    ref_laconify,
    ref_naive_chase,
    split_pair_mapping,
    sql_name_clash,
    star_blowup_mapping,
)
from hypothesis import example, given, settings, strategies as st

from dx.certain import eliminate_mapping
from dx.chase import eval_interpretation, naive_chase, restricted_chase, to_term_interpretation
from dx.evaluator import eval_formula
from dx.lang import TGD, And, Exists, Lt, Not, Or, RelAtom, SchemaMapping, Var
from dx.laconify import laconify
from dx.model import (
    Const,
    Fact,
    FreshNull,
    Instance,
    MappingError,
    Schema,
    SkolemNull,
    compute_core,
    format_facts,
    instances_isomorphic,
    parse_facts,
)
from dx.parser import parse_mapping
from dx.sqlgen import (
    adom_view_sql,
    decode_value,
    encode_value,
    interpretation_to_sql,
    load_instance,
    read_source_csv,
    read_target,
    run_artifact,
    write_source_csv,
)
from dx.verify import random_source_instance

A, B = Const("a"), Const("b")


def test_encode_examples():
    assert encode_value(Const("abc")) == "abc"
    assert encode_value(SkolemNull("f12", (A, B))) == "@f12(a,b)"
    nested = SkolemNull("g", (SkolemNull("f", (A,)),))
    assert encode_value(nested) == "@g(@f(a))"
    assert decode_value("@g(@f(a))") == nested


def test_decode_rejects_malformed():
    with pytest.raises(ValueError):
        decode_value("@broken")
    with pytest.raises(ValueError):
        decode_value("@f(a")
    with pytest.raises(ValueError):
        decode_value("@f(a))x")


def test_encode_fresh_null_unsupported():
    with pytest.raises(MappingError):
        encode_value(FreshNull(1))


_safe_const = st.text(
    alphabet="abcdefxyz_0123456789", min_size=1, max_size=6
).map(Const)
_tree = st.recursive(
    _safe_const,
    lambda kids: st.lists(kids, min_size=0, max_size=3).map(
        lambda args: SkolemNull("f1_1", tuple(args))
    ),
    max_leaves=5,
)


@settings(max_examples=120, deadline=None)
@given(_tree)
def test_encode_decode_round_trip(value):
    assert decode_value(encode_value(value)) == value


_odd_const = st.text(alphabet="ab@\\,()'", min_size=1, max_size=6).filter(
    lambda t: not t.startswith("@")
).map(Const)
_odd_tree = st.recursive(
    _odd_const,
    lambda kids: st.lists(kids, min_size=0, max_size=3).map(
        lambda args: SkolemNull("f1_1", tuple(args))
    ),
    max_leaves=5,
)


@settings(max_examples=200, deadline=None)
@given(_odd_tree)
def test_encode_decode_round_trip_structural_characters(value):
    text = encode_value(value)
    assert decode_value(text) == ref_decode_value(text) == value


def _plain_symbols(v) -> bool:
    """No function symbol in v holds a character the encoding uses."""
    if not isinstance(v, SkolemNull):
        return True
    return not any(ch in v.symbol for ch in "\\(),") and all(map(_plain_symbols, v.args))


# Near-encodings: an encoding with one piece of another inserted or one
# character dropped, so that most texts fail at a single place.
_STRAY = ["@f(", "@(", "a", "b@", ",", ")", "(", "\\", "\\,", "\\)", "@", ""]


@st.composite
def _near_encodings(draw):
    text = encode_value(draw(_odd_tree))
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + draw(st.sampled_from(_STRAY)) + text[i:]
    return text[:i] + text[i + 1:]


@settings(max_examples=800, deadline=None)
@given(_near_encodings())
@example("@f(@f(a)b)")
@example("@f(a,)")
@example("@f(,a)")
@example("@f(a))")
@example("@f(a\\")
@example("@f@g(a)")
def test_decode_agrees_with_character_loop(text):
    """On any text, here near-encodings, the one-split decoder gives the
    character loop's value, or a ValueError where the loop raises or
    reads a function symbol that holds a structural character, which no
    encoding writes."""
    try:
        want = ref_decode_value(text)
    except ValueError:
        want = None
    if want is None or not _plain_symbols(want):
        with pytest.raises(ValueError):
            decode_value(text)
    else:
        assert decode_value(text) == want


def test_encode_escapes_constant_arguments():
    v = SkolemNull("f1_1", (Const("a,b"), Const("c")))
    assert encode_value(v) == "@f1_1(a\\,b,c)"
    assert encode_value(SkolemNull("f1_1", (Const("a"), Const("b"), Const("c")))) != encode_value(v)
    assert encode_value(SkolemNull("g", (Const("\\"), Const("(x)")))) == "@g(\\\\,\\(x\\))"
    with pytest.raises(ValueError):
        decode_value("@f(a(b)")


def test_encoding_injective_on_samples():
    rng = random.Random("inj")
    seen = {}
    for _ in range(500):
        depth = rng.randint(0, 2)

        def rand_value(d):
            if d == 0 or rng.random() < 0.5:
                return Const(rng.choice("abcd") * rng.randint(1, 2))
            return SkolemNull(
                f"f{rng.randint(1, 2)}",
                tuple(rand_value(d - 1) for _ in range(rng.randint(0, 2))),
            )

        v = rand_value(depth)
        text = encode_value(v)
        assert seen.setdefault(text, v) == v


def test_encoding_order_compatible_on_constants():
    consts = [Const(t) for t in ("A", "Z", "a", "ab", "b")]
    encoded = [encode_value(c) for c in consts]
    assert encoded == sorted(encoded)


# -- formula translation -------------------------------------------------------

PR = Schema({"P": 1, "R": 2})


def _query(conn, sql):
    return set(conn.execute(sql).fetchall())


def _setup(conn, instance):
    load_instance(conn, instance)
    conn.execute(adom_view_sql(instance.schema).rstrip(";"))


def test_formula_sql_negation_example():
    i = inst(PR, ("P", "a"), ("P", "b"), ("R", "b", "c"))
    f = And(
        (
            RelAtom("P", (Var("x"),)),
            Not(Exists("y", RelAtom("R", (Var("x"), Var("y"))))),
        )
    )
    conn = sqlite3.connect(":memory:")
    _setup(conn, i)
    rows = _query(conn, formula_to_sql(f, PR))
    assert rows == {("a",)}


def test_formula_sql_order_comparison():
    i = inst(PR, ("P", "b"), ("P", "a"))
    conn = sqlite3.connect(":memory:")
    _setup(conn, i)
    rows = _query(conn, formula_to_sql(Lt(Var("x"), Var("y")), PR))
    assert rows == {("a", "b")}


def test_formula_sql_union_shape():
    f = And(
        (
            Or((RelAtom("R", (Var("x1"), Var("x2"))), RelAtom("R", (Var("x2"), Var("x1"))))),
            Or((Lt(Var("x1"), Var("x2")), )),
        )
    )
    i = inst(PR, ("R", "b", "a"))
    conn = sqlite3.connect(":memory:")
    _setup(conn, i)
    rows = _query(conn, formula_to_sql(f, PR, ("x1", "x2")))
    assert rows == {("a", "b")}


def _random_formula(rng, depth, scope):
    kind = rng.choice(
        ["atom", "atom", "eq", "lt", "and", "or", "not", "exists"]
        if depth > 0
        else ["atom", "eq", "lt"]
    )
    if kind == "atom":
        if rng.random() < 0.4:
            return RelAtom("P", (Var(rng.choice(scope)),))
        return RelAtom("R", (Var(rng.choice(scope)), Var(rng.choice(scope))))
    if kind == "eq":
        from dx.lang import Eq

        return Eq(Var(rng.choice(scope)), Var(rng.choice(scope)))
    if kind == "lt":
        return Lt(Var(rng.choice(scope)), Var(rng.choice(scope)))
    if kind == "and":
        return And(tuple(_random_formula(rng, depth - 1, scope) for _ in range(2)))
    if kind == "or":
        return Or(tuple(_random_formula(rng, depth - 1, scope) for _ in range(2)))
    if kind == "not":
        return Not(_random_formula(rng, depth - 1, scope))
    v = f"q{depth}"
    return Exists(v, _random_formula(rng, depth - 1, scope + [v]))


@pytest.mark.parametrize("seed", range(40))
def test_formula_sql_matches_evaluator(seed):
    rng = random.Random(f"fs:{seed}")
    f = _random_formula(rng, 2, ["x", "y"])
    i = random_source_instance(PR, f"fs:{seed}", 4, 7)
    conn = sqlite3.connect(":memory:")
    _setup(conn, i)
    rows = _query(conn, formula_to_sql(f, PR, ("x", "y")))
    expected = {
        tuple(encode_value(v) for v in row)
        for row in eval_formula(f, i, ("x", "y"))
    }
    assert rows == expected


# -- interpretation translation --------------------------------------------------

def test_interpretation_sql_split_pair():
    m = split_pair_mapping()
    art = interpretation_to_sql(to_term_interpretation(m))
    assert len(art.queries) == 2
    text = art.text(include_ddl=True)
    assert 'CREATE TABLE "R"' in text
    assert "CREATE VIEW adom(v)" in text
    assert 'CREATE VIEW "target_S"' in text
    i = inst(m.source, ("R", "a", "b"))
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, art)
    rows_s = _query(conn, 'SELECT * FROM "target_S"')
    rows_t = _query(conn, 'SELECT * FROM "target_T"')
    assert rows_s == {("a", "@f1_1(a,b)")}
    assert rows_t == {("b", "@f1_1(a,b)")}


def test_interpretation_sql_empty_relation():
    m = parse_mapping("source P/1. target S/2, T/1. tgd: P(x) -> T(x).")
    art = interpretation_to_sql(to_term_interpretation(m))
    conn = sqlite3.connect(":memory:")
    load_instance(conn, inst(m.source, ("P", "a")))
    run_artifact(conn, art)
    assert _query(conn, 'SELECT * FROM "target_S"') == set()
    assert _query(conn, 'SELECT * FROM "target_T"') == {("a",)}


@pytest.mark.parametrize("seed", range(30))
def test_interpretation_sql_matches_evaluator(seed):
    m = random_mapping(seed)
    pi = to_term_interpretation(m)
    art = interpretation_to_sql(pi)
    i = random_source_instance(m.source, f"is:{seed}", 4, 7)
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, art)
    assert read_target(conn, m.target) == eval_interpretation(pi, i)


def test_equal_antecedents_stay_two_rules():
    """Dependencies sharing one antecedent object are two rules: each
    has its own Skolem symbols and its own condition CTE."""
    ante = RelAtom("P", (Var("x"),))
    m = SchemaMapping(
        Schema({"P": 1}),
        Schema({"S": 2}),
        (
            TGD(ante, ("y",), (RelAtom("S", (Var("x"), Var("y"))),)),
            TGD(ante, ("y",), (RelAtom("S", (Var("y"), Var("x"))),)),
        ),
    )
    pi = to_term_interpretation(m)
    assert [(r.skolems, r.heads) for r in pi.rules] == [
        (("f1_1",), (("S", (0, 1)),)),
        (("f2_1",), (("S", (1, 0)),)),
    ]
    ((_rel, stmt),) = interpretation_to_sql(pi).queries
    assert re.findall(r"^(?:WITH |, )(k\d+) AS \($", stmt, re.M) == ["k1", "k2"]
    i = inst(m.source, ("P", "a"), ("P", "b"))
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, interpretation_to_sql(pi))
    assert read_target(conn, m.target) == naive_chase(m, i)
    assert len(naive_chase(m, i)) == 4


@pytest.mark.parametrize("mapping", ["split_pair", "symmetric_join"])
def test_sql_output_equals_chase_with_structural_characters(mapping):
    m = split_pair_mapping() if mapping == "split_pair" else pair(mapping)[0]
    odd = ["a,b", "c", "(x)", "\\", "p\\,q", ")(", "a", "b"]
    rng = random.Random(mapping)
    i = inst(m.source, *[("R", rng.choice(odd), rng.choice(odd)) for _ in range(12)])
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, interpretation_to_sql(to_term_interpretation(m)))
    assert read_target(conn, m.target) == naive_chase(m, i)


def test_sql_term_matches_encode_value():
    """`_skolem_sql` over source values gives their null's encoding, also
    over no values, where it has nothing to escape."""
    from dx.sqlgen import _skolem_sql

    conn = sqlite3.connect(":memory:")
    for args in [(), ("a(b)",), ("x,y", "\\", "p\\,q)", "'")]:
        sql = _skolem_sql("g", ["?"] * len(args))
        got = conn.execute(f"SELECT {sql}", args).fetchone()[0]
        want = SkolemNull("g", tuple(map(Const, args)))
        assert got == encode_value(want)
        assert decode_value(got) == want


@pytest.mark.parametrize("laconic", [False, True])
def test_sentence_head_routes_agree(laconic):
    """A dependency without parameters has a Skolem term without
    arguments: both chases and the SQL route give one null for it."""
    import pathlib

    demo = pathlib.Path(__file__).resolve().parents[1] / "demo"
    m = parse_mapping((demo / "sentence_head.map").read_text("utf-8"))
    if laconic:
        m = eliminate_mapping(laconify(m))
    i = parse_facts((demo / "sentence_head.facts").read_text("utf-8"), m.source)
    j = naive_chase(m, i)
    ((null,),) = [f.args for f in j.facts if f.rel == "T"]
    assert isinstance(null, SkolemNull) and null.args == () and len(j) == 3
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, interpretation_to_sql(to_term_interpretation(m)))
    assert restricted_chase(m, i) == j == read_target(conn, m.target)


def test_read_target_decodes_each_cell_text_once(monkeypatch):
    import dx.sqlgen

    schema = Schema({"S": 2, "T": 1})
    n = SkolemNull("f", (Const("a,b"), SkolemNull("g", ())))
    rows = {"S": [(A, n), (B, n), (n, A), (A, A)], "T": [(n,), (B,)]}
    conn = sqlite3.connect(":memory:")
    for name, facts in rows.items():
        cols = ", ".join(f"c{i} TEXT" for i in range(len(facts[0])))
        conn.execute(f"CREATE TABLE target_{name} ({cols})")
        marks = ", ".join("?" * len(facts[0]))
        conn.executemany(
            f"INSERT INTO target_{name} VALUES ({marks})",
            [[encode_value(v) for v in row] for row in facts],
        )
    each = Instance(schema, [
        Fact(name, tuple(decode_value(text) for text in row))
        for name in rows
        for row in conn.execute(f"SELECT * FROM target_{name}")
    ])
    decoded = []

    def counting(text):
        decoded.append(text)
        return decode_value(text)

    monkeypatch.setattr(dx.sqlgen, "decode_value", counting)
    got = read_target(conn, schema)
    assert got == each
    assert sorted(decoded) == sorted({encode_value(v) for v in (A, B, n)})
    assert len({id(v) for f in got.facts for v in f.args if v == n}) == 1


def test_laconified_symmetric_join_two_rows_one_null():
    m, _ = pair("symmetric_join")
    flat = eliminate_mapping(laconify(m))
    art = interpretation_to_sql(to_term_interpretation(flat))
    i = inst(m.source, ("R", "a", "b"), ("R", "b", "a"))
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, art)
    out = read_target(conn, m.target)
    assert len(out.facts) == 2
    assert len(out.nulls) == 1
    core, _ = compute_core(naive_chase(m, i))
    assert instances_isomorphic(out, core)


# Eliminated laconic mappings, with the number of constants their
# instances draw from: fan-3's guards cost the reference evaluator
# |dom|^3 assignments per row, so its instances are denser.
LACONIC = {
    "symmetric_join": (lambda: pair("symmetric_join")[0], 16),
    "overlap": (overlap_mapping, 16),
    "split_pair": (split_pair_mapping, 16),
    "star_2": (lambda: star_blowup_mapping(2), 16),
    "fan_3": (lambda: fan_mapping(3), 6),
}
DOM_CTE = "WITH dom(v) AS (SELECT v FROM adom)"


@functools.lru_cache(maxsize=None)
def _laconic(name):
    """The eliminated laconic mapping and its SQL artifact."""
    lm = eliminate_mapping(laconify(LACONIC[name][0]()))
    return lm, interpretation_to_sql(to_term_interpretation(lm))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", LACONIC)
def test_laconic_routes_match_reference_chase(name, seed):
    lm, art = _laconic(name)
    rng = random.Random(f"lac:{name}:{seed}")
    consts = [Const(f"c{k}") for k in range(LACONIC[name][1])]
    facts = []
    for _ in range(40):
        rel, arity = rng.choice(lm.source.rels)
        facts.append(Fact(rel, tuple(rng.choice(consts) for _ in range(arity))))
    i = Instance(lm.source, facts)
    chased = naive_chase(lm, i)
    assert format_facts(chased) == format_facts(ref_naive_chase(lm, i))
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, art)
    assert read_target(conn, lm.target) == chased


def _reads_adom_only_in_cte(select: str) -> bool:
    """`adom` occurs only in one leading dom CTE, there iff dom is read."""
    rest = select.removeprefix(DOM_CTE + "\n")
    reads_dom = re.search(r"\bdom\b", rest) is not None
    return not re.search(r"\badom\b", rest) and reads_dom == (rest != select)


@pytest.mark.parametrize("name", LACONIC)
def test_target_views_read_adom_only_in_dom_cte(name):
    _lm, art = _laconic(name)
    for _rel, stmt in art.queries:
        head, _, select = stmt.partition(" AS\n")
        assert head.startswith("CREATE VIEW ")
        assert _reads_adom_only_in_cte(select)


@pytest.mark.parametrize("seed", range(20))
def test_formula_sql_reads_adom_only_in_dom_cte(seed):
    f = _random_formula(random.Random(f"cte:{seed}"), 3, ["x", "y"])
    assert _reads_adom_only_in_cte(formula_to_sql(f, PR, ("x", "y")))
    assert _reads_adom_only_in_cte(formula_to_sql(f, PR, ("x", "y", "z")))


@pytest.mark.parametrize("name", LACONIC)
def test_laconic_views_scan_relations_and_read_each_condition_once(name):
    """The views never read the active domain: atoms are scans, and each
    quantified variable is bound by a scan or an equality.  Each
    dependency condition a view uses is one CTE, and every branch only
    builds its terms from that CTE."""
    lm, art = _laconic(name)
    pi = to_term_interpretation(lm)
    for rel, stmt in art.queries:
        assert not re.search(r"\b(dom|adom)\b", stmt)
        heads = [(r, terms) for r in pi.rules for head, terms in r.heads if head == rel]
        conditions = {id(r.condition) for r, _terms in heads}
        ctes = re.findall(r"^(?:WITH |, )(k\d+) AS \($", stmt, re.M)
        assert len(ctes) == len(conditions)
        branches = stmt.rsplit(" FROM (\n", 1)[1].removesuffix("\n);").split("\nUNION ALL\n")
        assert len(branches) == len(heads)
        for branch in branches:
            assert re.fullmatch(r"SELECT .* FROM k\d+", branch)


def _eliminated_sql(m) -> str:
    return interpretation_to_sql(to_term_interpretation(eliminate_mapping(m))).text()


def _check_orbit_guards(m, samples: int):
    """`laconify` and `ref_laconify` (one guard per strict embedding)
    eliminate to mappings with the same guards up to the names of their
    quantified variables, `laconify`'s each once, that chase alike."""
    lm, rm = eliminate_mapping(laconify(m)), eliminate_mapping(ref_laconify(m))
    assert len(lm.tgds) == len(rm.tgds)
    for ours, ref in zip(lm.tgds, rm.tgds):
        keys = guard_keys(ours.antecedent)
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(guard_keys(ref.antecedent))
    lpi, rpi = to_term_interpretation(lm), to_term_interpretation(rm)
    for seed in range(samples):
        i = random_source_instance(m.source, f"orbit:{seed}", 4, 8)
        assert eval_interpretation(lpi, i) == eval_interpretation(rpi, i)


@pytest.mark.parametrize("name", sorted(COMPILE_FAMILIES))
def test_orbit_guards_give_the_all_embeddings_sql(name):
    """One guard per orbit of t2's automorphisms keeps the guards that
    one guard per strict embedding gives, once each."""
    m = COMPILE_FAMILIES[name]()
    if name == "tail_3_cycle":
        # the occurs check misses a bound node (ROADMAP): both fail alike
        for lm in (laconify(m), ref_laconify(m)):
            with pytest.raises(RecursionError):
                _eliminated_sql(lm)
        return
    _check_orbit_guards(m, 5)


def test_orbit_guards_give_the_all_embeddings_sql_on_random_mappings():
    for seed in range(50):
        _check_orbit_guards(random_mapping(seed), 3)


@pytest.mark.parametrize("name", SQL_NAME_CLASHES)
def test_relation_names_the_sql_would_confuse_are_rejected(name):
    m = parse_mapping(sql_name_clash(name))
    with pytest.raises(MappingError, match=rf"^relation names? (P and )?{name} "):
        interpretation_to_sql(to_term_interpretation(m))


def test_target_names_equal_but_for_case_are_rejected():
    m = parse_mapping("source P/1. target T/1, t/1. tgd: P(x) -> T(x) & t(x).")
    with pytest.raises(MappingError, match="relation names T and t are one name in SQL"):
        interpretation_to_sql(to_term_interpretation(m))


@pytest.mark.parametrize(
    "rels, message",
    [
        ({"P": 1, "p": 1}, "relation names P and p are one name in SQL"),
        ({"adom": 1}, "relation name adom is reserved"),
        ({"k1": 1}, "relation name k1 is reserved"),
    ],
)
def test_load_instance_rejects_names_the_sql_would_confuse(rels, message):
    schema = Schema(rels)
    i = Instance(schema, [Fact(rel, (Const("a"),)) for rel in rels])
    conn = sqlite3.connect(":memory:")
    with pytest.raises(MappingError, match=message):
        load_instance(conn, i)
    assert conn.execute("SELECT name FROM sqlite_master").fetchall() == []


def test_names_sqlite_tells_apart_are_accepted():
    """Only ASCII letters fold, and only the artifact's own names are
    reserved: `k`, `u1x` and `target_P` (with no target P) are free."""
    names = ["k", "u1x", "target_P", "\u00c4", "\u00e4"]
    x = (Var("x"),)
    m = SchemaMapping(
        Schema({n: 1 for n in names}),
        Schema({"T": 1}),
        (TGD(And(tuple(RelAtom(n, x) for n in names)), (), (RelAtom("T", x),)),),
    )
    art = interpretation_to_sql(to_term_interpretation(m))
    i = Instance(m.source, [Fact(rel, (Const("a"),)) for rel, _arity in m.source.rels])
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, art)
    assert read_target(conn, m.target) == naive_chase(m, i)


def test_load_instance_inserts_rows_in_canonical_order():
    """The row order decides where an EXISTS scan stops, so SQLite's
    work on one instance must not follow the hash seed."""
    rng = random.Random("load-order")
    i = Instance(PR, [
        Fact("R", (Const(f"c{rng.randrange(40)}"), Const(f"c{rng.randrange(40)}")))
        for _ in range(200)
    ])
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    rows = conn.execute('SELECT c1, c2 FROM "R" ORDER BY rowid').fetchall()
    assert rows == [tuple(a.text for a in args) for rel, args in i.facts_sorted if rel == "R"]


def test_names_and_constants_holding_semicolons_load_and_run():
    """A `;` inside a quoted name or a constant does not end a statement."""
    x, y = Var("x"), Var("y")
    m = SchemaMapping(
        Schema({"a;b": 1}),
        Schema({"T;U": 2}),
        (TGD(RelAtom("a;b", (x,)), ("y",), (RelAtom("T;U", (x, y)),)),),
    )
    i = Instance(m.source, [Fact("a;b", (Const("q;r"),))])
    conn = sqlite3.connect(":memory:")
    load_instance(conn, i)
    run_artifact(conn, interpretation_to_sql(to_term_interpretation(m)))
    assert read_target(conn, m.target) == naive_chase(m, i)


def test_golden_sql_stable():
    import pathlib

    m = split_pair_mapping()
    art = interpretation_to_sql(to_term_interpretation(m))
    golden = pathlib.Path(__file__).parent / "golden" / "split_pair.sql"
    assert art.text(include_ddl=True) == golden.read_text(encoding="utf-8")


# -- CSV conventions ------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    i = inst(PR, ("P", "a"), ("R", "b,c", "d"), ("R", "a", "b"), ("R", "a", "a"))
    write_source_csv(i, str(tmp_path))
    assert read_source_csv(PR, str(tmp_path)) == i
    # rows in canonical order, so the files are byte-stable
    assert (tmp_path / "R.csv").read_bytes() == b'a,a\r\na,b\r\n"b,c",d\r\n'


def test_csv_missing_file_is_empty_relation(tmp_path):
    i = inst(PR, ("P", "a"))
    write_source_csv(i, str(tmp_path))
    (tmp_path / "R.csv").unlink()
    back = read_source_csv(PR, str(tmp_path))
    assert back.by_rel.get("R") is None


@pytest.mark.parametrize("row", ["@y,b", "a,"])
def test_csv_bad_cell_names_file_and_row(tmp_path, row):
    (tmp_path / "R.csv").write_text(f"a,b\n{row}\n", encoding="utf-8")
    with pytest.raises(MappingError, match=r"R\.csv: row 2: constant text"):
        read_source_csv(PR, str(tmp_path))
