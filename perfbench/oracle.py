"""Independent checks for benchmark outputs.

Nothing here calls into `dx`: fact files are read by a parser of our
own, instances are compared up to isomorphism by canonical block forms,
and the expected outputs of the benchmark's mapping families are built
directly from their source facts.

Values: a constant is its text (str); a labelled null is a tuple
("?", symbol, args) with args a tuple of values, or None for `?N7`-style
nulls printed without an argument list.  A fact is (relation, args).
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

MAX_BLOCK_NULLS = 7


class CheckFailed(Exception):
    """An output differs from what the oracle expects."""


_TOKEN = re.compile(r"#[^\n]*|[().,]|\?[A-Za-z_][A-Za-z0-9_]*|[A-Za-z0-9_]+|'(?:[^'\\]|\\.)*'|\S")


def read_facts(text: str) -> set:
    """Parse a fact file (`R(a, ?f1_1(a, b)).` per fact) into a set."""
    toks = [t for t in _TOKEN.findall(text) if t[0] != "#"]
    toks.append("")  # end marker
    i = 0

    def take(want):
        nonlocal i
        if toks[i] != want:
            raise CheckFailed(f"fact text: expected {want!r}, got {toks[i] or 'end of text'!r}")
        i += 1

    def args():
        nonlocal i
        take("(")
        out = []
        if toks[i] == ")":
            i += 1
            return ()
        while True:
            out.append(value())
            i += 1
            if toks[i - 1] == ")":
                return tuple(out)
            if toks[i - 1] != ",":
                raise CheckFailed(f"fact text: expected ',' or ')', got {toks[i - 1]!r}")

    def value():
        nonlocal i
        tok = toks[i]
        i += 1
        if tok[:1] == "?":
            if toks[i] == "(":
                return ("?", tok[1:], args())
            return ("?", tok[1:], None)
        if tok[:1] == "'":
            return re.sub(r"\\(.)", r"\1", tok[1:-1])
        if tok and (tok[0].isalnum() or tok[0] == "_"):
            return tok
        raise CheckFailed(f"fact text: unexpected {tok or 'end of text'!r}")

    facts = set()
    while toks[i]:
        rel = value()
        if not isinstance(rel, str):
            raise CheckFailed(f"fact text: bad relation name {rel!r}")
        facts.add((rel, args()))
        take(".")
    return facts


def from_dx_instance(inst) -> set:
    """Facts of a `dx` Instance in this module's value encoding."""

    def conv(v):
        if hasattr(v, "text"):
            return v.text
        if hasattr(v, "symbol"):
            return ("?", v.symbol, tuple(conv(a) for a in v.args))
        return ("?", f"N{v.id}", None)

    return {(f.rel, tuple(conv(a) for a in f.args)) for f in inst.facts}


def blocks(facts) -> list:
    """Connected components of the facts under shared nulls."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _rel, args in facts:
        nulls = [a for a in args if isinstance(a, tuple)]
        for n in nulls:
            parent.setdefault(n, n)
        for n in nulls[1:]:
            ra, rb = find(nulls[0]), find(n)
            if ra != rb:
                parent[rb] = ra
    groups: dict = {}
    ground = []
    for fact in facts:
        for a in fact[1]:
            if isinstance(a, tuple):
                groups.setdefault(find(a), []).append(fact)
                break
        else:
            ground.append([fact])
    return list(groups.values()) + ground


def canonical_block(block) -> tuple:
    """A form equal for two blocks iff they are isomorphic (identity on
    constants, a bijection on nulls): the least sorted fact list over
    all numberings of the block's nulls."""
    nulls = list({a for _r, args in block for a in args if isinstance(a, tuple)})
    if len(nulls) > MAX_BLOCK_NULLS:
        raise CheckFailed(f"block with {len(nulls)} nulls is too large to compare")
    best = None
    for perm in itertools.permutations(range(len(nulls))):
        ren = dict(zip(nulls, perm))
        form = sorted(
            (r, tuple((1, ren[a]) if isinstance(a, tuple) else (0, a) for a in args))
            for r, args in block
        )
        if best is None or form < best:
            best = form
    return tuple(best)


def isomorphic(a, b) -> bool:
    if len(a) != len(b):
        return False
    return Counter(map(canonical_block, blocks(a))) == Counter(
        map(canonical_block, blocks(b))
    )


def require_isomorphic(got, want, what: str):
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} facts, expected {len(want)}")
    if not isomorphic(got, want):
        raise CheckFailed(f"{what}: not isomorphic to the expected instance")


# ---------------------------------------------------------------------------
# Expected outputs of the benchmark families, built from the source facts.
# Source facts are tuples of constant texts: (x, y) pairs for R/2, and
# (relation, x) for the unary P/Q overlap instances.

class _Nulls:
    def __init__(self):
        self.count = itertools.count()

    def __call__(self):
        return ("?", "e", (str(next(self.count)),))


def symjoin_canonical(pairs) -> set:
    """Naive chase of R(x,y) -> exists z: S(x,z) & S(y,z)."""
    null = _Nulls()
    out = set()
    for x, y in pairs:
        z = null()
        out |= {("S", (x, z)), ("S", (y, z))}
    return out


def symjoin_core_size(pairs) -> int:
    """2 * |unordered pairs x != y| + |reflexive x with no other partner|."""
    links = {frozenset(p) for p in pairs if p[0] != p[1]}
    partnered = {x for link in links for x in link}
    lonely = {x for x, y in pairs if x == y} - partnered
    return 2 * len(links) + len(lonely)


def symjoin_core(pairs) -> set:
    null = _Nulls()
    links = {frozenset(p) for p in pairs if p[0] != p[1]}
    partnered = {x for link in links for x in link}
    out = set()
    for link in links:
        z = null()
        out |= {("S", (x, z)) for x in link}
    for x in {x for x, y in pairs if x == y} - partnered:
        out.add(("S", (x, null())))
    return out


def symjoin_restricted(pairs) -> set:
    """Restricted chase in the engine's documented firing order (rows
    sorted by constant text): a row fires only when no null is shared
    by S(x,_) and S(y,_) yet."""
    null = _Nulls()
    fired = set()
    touched = set()
    out = set()
    for x, y in sorted(pairs):
        if x == y:
            if x in touched:
                continue
        elif frozenset((x, y)) in fired:
            continue
        z = null()
        out |= {("S", (x, z)), ("S", (y, z))}
        fired.add(frozenset((x, y)))
        touched |= {x, y}
    return out


def overlap_canonical(unary) -> set:
    """Naive chase of P(x) -> exists y: R1(x,y) and
    Q(x) -> exists y, z, u: R2(x,y) & R2(z,y) & R1(z,u)."""
    null = _Nulls()
    out = set()
    for rel, x in unary:
        if rel == "P":
            out.add(("R1", (x, null())))
        else:
            y, z, u = null(), null(), null()
            out |= {("R2", (x, y)), ("R2", (z, y)), ("R1", (z, u))}
    return out


def overlap_core_size(unary) -> int:
    """|P| + 3 * |Q minus P| + |Q and P|."""
    p = {x for r, x in unary if r == "P"}
    q = {x for r, x in unary if r == "Q"}
    return len(p) + 3 * len(q - p) + len(q & p)


def overlap_core(unary) -> set:
    null = _Nulls()
    p = {x for r, x in unary if r == "P"}
    q = {x for r, x in unary if r == "Q"}
    out = {("R1", (x, null())) for x in p}
    for x in q - p:
        y, z, u = null(), null(), null()
        out |= {("R2", (x, y)), ("R2", (z, y)), ("R1", (z, u))}
    out |= {("R2", (x, null())) for x in q & p}
    return out


def split_pair_core(pairs) -> set:
    """R(x1,x2) -> exists y: S(x1,y) & T(x2,y) and R(x,x) -> S(x,x).
    No block folds: T never holds a constant in its second place."""
    null = _Nulls()
    out = set()
    for x1, x2 in pairs:
        y = null()
        out |= {("S", (x1, y)), ("T", (x2, y))}
        if x1 == x2:
            out.add(("S", (x1, x1)))
    return out
