"""The encode-once, single-pass core and the incremental restricted chase
against the per-call reference paths in helpers, byte for byte, on
instances beyond the 6-constant / 12-fact acceptance bounds."""

import random

import pytest
from helpers import (
    overlap_mapping,
    pair,
    ref_blocks,
    ref_compute_core,
    ref_is_core,
    ref_restricted_chase,
    split_pair_mapping,
)

from dx.chase import naive_chase, restricted_chase
from dx.model import (
    Const,
    Fact,
    FreshNull,
    Instance,
    Schema,
    blocks,
    compute_core,
    format_facts,
    is_core,
    parse_facts,
)
from dx.parser import parse_mapping

# A 2-fact path per edge and a 2-cycle through each P value; a loop
# edge's path and its value's cycle fold into each other.
PATH_CYCLE = """
source E/2, P/1.
target F/2.
tgd: E(x,y) -> exists z: F(x,z) & F(z,y).
tgd: P(x) -> exists u: F(x,u) & F(u,x).
"""

# A 3-cycle hanging off each P value; copied E edges give it somewhere
# to fold.
TAIL_CYCLE = """
source P/1, E/2.
target S/2.
tgd: P(x) -> exists y0, y1, y2: S(x,y0) & S(y0,y1) & S(y1,y2) & S(y2,y0).
tgd: E(x,y) -> S(x,y).
"""

MAPPINGS = {
    "symmetric_join": lambda: pair("symmetric_join")[0],
    "overlap": overlap_mapping,
    "split_pair": split_pair_mapping,
    "path_cycle": lambda: parse_mapping(PATH_CYCLE),
    "tail_cycle": lambda: parse_mapping(TAIL_CYCLE),
}


def _cases(name, m, count=30, max_facts=40, max_consts=10, big=3):
    """`count` small random source instances, then `big` ones of 100-150
    facts, where most fold checks find a bound argument to index on."""
    rng = random.Random(f"core-oracle-{name}")
    for k in range(count + big):
        small = k < count
        nconsts = rng.randint(1, max_consts) if small else rng.randint(30, 60)
        facts = set()
        for _ in range(rng.randint(0, max_facts) if small else rng.randint(100, 150)):
            rel, arity = rng.choice(m.source.rels)
            facts.add(Fact(rel, tuple(Const(f"c{rng.randrange(nconsts)}") for _ in range(arity))))
        yield rng, Instance(m.source, facts)


def _retraction(h):
    return list(h.items())


@pytest.mark.parametrize("name", sorted(MAPPINGS))
def test_core_paths_agree_with_reference(name):
    m = MAPPINGS[name]()
    folded = 0
    for rng, source in _cases(name, m):
        j = naive_chase(m, source)
        core, retr = compute_core(j)
        ref_core, ref_retr = ref_compute_core(j)
        assert format_facts(core) == format_facts(ref_core)
        assert _retraction(retr) == _retraction(ref_retr)
        assert repr(retr) == repr(ref_retr)
        assert is_core(j) == ref_is_core(j)
        assert is_core(core) and ref_is_core(ref_core)
        part = Instance(j.schema, [f for f in j.facts_sorted if rng.random() < 0.7])
        assert is_core(part) == ref_is_core(part)
        assert format_facts(restricted_chase(m, source)) == format_facts(
            ref_restricted_chase(m, source)
        )
        folded += len(j) - len(core)
    # split pair's chase is its own core: a null's S and T facts name
    # both columns of one R fact
    assert folded > 0 or name == "split_pair"


@pytest.mark.parametrize("name", sorted(MAPPINGS))
def test_blocks_same_components_same_order(name):
    m = MAPPINGS[name]()
    for _rng, source in _cases(name, m, count=20):
        j = naive_chase(m, source)
        assert blocks(j) == ref_blocks(j)
        assert [b.facts_sorted for b in blocks(j)] == [b.facts_sorted for b in ref_blocks(j)]


FG = Schema({"F": 2, "G": 2})


def test_folded_block_piece_is_retried_in_canonical_order():
    # {G(N1,N3), G(N2,N3)} folds to its piece {G(N2,N3)}, which comes
    # before {G(N4,N5)} and so folds into it, not the other way round.
    n = [None] + [FreshNull(i) for i in range(1, 6)]
    j = Instance(FG, [Fact("G", (n[1], n[3])), Fact("G", (n[2], n[3])), Fact("G", (n[4], n[5]))])
    core, retr = compute_core(j)
    ref_core, ref_retr = ref_compute_core(j)
    assert format_facts(core) == format_facts(ref_core) == "G(?N4, ?N5).\n"
    assert _retraction(retr) == _retraction(ref_retr)


def test_retraction_undoes_the_permutation_the_folds_leave_on_the_core():
    # The only fold sends ?N2 to ?N3 and swaps ?N3 and ?N4, so the folds
    # map the core onto itself by a swap; the retraction must fix both.
    j = parse_facts("S(?N2,?N3). S(?N3,?N4). S(?N4,?N3).", Schema({"S": 2}))
    core, retr = compute_core(j)
    ref_core, ref_retr = ref_compute_core(j)
    assert format_facts(core) == format_facts(ref_core) == "S(?N3, ?N4).\nS(?N4, ?N3).\n"
    n2, n3, n4 = FreshNull(2), FreshNull(3), FreshNull(4)
    assert list(retr.items()) == list(ref_retr.items()) == [(n2, n4), (n3, n3), (n4, n4)]


def test_core_paths_agree_on_random_null_instances():
    rng = random.Random("core-oracle-nulls")
    for _ in range(1500):
        nconsts, nnulls = rng.randint(1, 3), rng.randint(1, 8)
        vals = [Const(f"c{i}") for i in range(nconsts)]
        vals += [FreshNull(i + 1) for i in range(nnulls)]
        j = Instance(FG, [
            Fact(rng.choice("FG"), (rng.choice(vals), rng.choice(vals)))
            for _ in range(rng.randint(1, 14))
        ])
        core, retr = compute_core(j)
        ref_core, ref_retr = ref_compute_core(j)
        assert format_facts(core) == format_facts(ref_core)
        assert _retraction(retr) == _retraction(ref_retr)
        assert is_core(j) == ref_is_core(j)
        assert blocks(j) == ref_blocks(j)


def test_symmetric_join_core_at_scale_matches_closed_form():
    # Each unordered pair {x, y}, x != y, keeps one 2-fact block; a
    # reflexive R(x, x) keeps its 1-fact block only if x has no other
    # partner, since S(x, z) folds into any block holding S(x, _).
    m = MAPPINGS["symmetric_join"]()
    rng = random.Random("core-oracle-scale")
    c = [Const(f"c{i}") for i in range(500)]
    source = Instance(m.source, [
        Fact("R", (rng.choice(c), rng.choice(c))) for _ in range(1000)
    ])
    pairs = {frozenset(f.args) for f in source.facts if f.args[0] != f.args[1]}
    partnered = set().union(*pairs)
    lone = {f.args[0] for f in source.facts if f.args[0] == f.args[1]} - partnered
    core, _retr = compute_core(naive_chase(m, source))
    assert len(core) == 2 * len(pairs) + len(lone)
    assert is_core(core)
