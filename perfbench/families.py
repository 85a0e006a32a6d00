"""Mapping families and seeded source instances for the benchmark.

Mappings are DSL text.  `with_prefix` puts one common prefix on every
relation name: a prefix keeps every name ordering (a suffix would not:
`P10_x` sorts before `P1_x`), so sorted scans do identical work while the
mapping differs from every earlier one and no process-wide cache can
serve it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

SYMMETRIC_JOIN = """source R/2.
target S/2.
tgd: R(x,y) -> exists z: S(x,z) & S(y,z).
"""

OVERLAP = """source P/1, Q/1.
target R1/2, R2/2.
tgd: P(x) -> exists y: R1(x,y).
tgd: Q(x) -> exists y, z, u: R2(x,y) & R2(z,y) & R1(z,u).
"""

SPLIT_PAIR = """source R/2.
target S/2, T/2.
tgd: R(x1,x2) -> exists y: S(x1,y) & T(x2,y).
tgd: R(x,x) -> S(x,x).
"""


@dataclass(frozen=True)
class Family:
    name: str
    text: str
    source: tuple  # ((relation, arity), ...)
    target: tuple
    block_types: int  # number of fact-block types laconify must find

    def with_prefix(self, prefix: str) -> str:
        names = [r for r, _a in self.source + self.target]
        pattern = r"\b(" + "|".join(map(re.escape, names)) + r")(?=[(/])"
        return re.sub(pattern, prefix + r"\1", self.text)


def _decls(text: str, keyword: str) -> tuple:
    line = re.search(rf"^{keyword} (.*)\.$", text, re.M).group(1)
    return tuple((r, int(a)) for r, a in (d.strip().split("/") for d in line.split(",")))


def _family(name: str, text: str, block_types: int) -> Family:
    return Family(name, text, _decls(text, "source"), _decls(text, "target"), block_types)


def pure_cycle(k: int, tail: bool = False) -> Family:
    """P(x) -> exists y0..: S(y0,y1) & ... & S(yk-1,y0), plus S(x,y0) with a tail."""
    ys = ", ".join(f"y{i}" for i in range(k))
    atoms = [f"S(y{i},y{(i + 1) % k})" for i in range(k)]
    if tail:
        atoms.append("S(x,y0)")
    text = f"source P/1.\ntarget S/2.\ntgd: P(x) -> exists {ys}: {' & '.join(atoms)}.\n"
    return _family(f"{'tail' if tail else 'pure'}_{k}_cycle", text, 1)


def fan(k: int) -> Family:
    """R(x0..xk-1) -> exists y: S(x0,y) & ... & S(xk-1,y)."""
    xs = ",".join(f"x{i}" for i in range(k))
    atoms = " & ".join(f"S(x{i},y)" for i in range(k))
    text = f"source R/{k}.\ntarget S/2.\ntgd: R({xs}) -> exists y: {atoms}.\n"
    return _family(f"fan_{k}", text, 1)


def star(k: int) -> Family:
    """k unary copy rules plus one star-shaped rule; one block type per
    subset of {1..k} plus k ground types (the acceptance suite's
    star-blowup generator)."""
    src = "source Q/1, " + ", ".join(f"P{i}/1" for i in range(1, k + 1)) + "."
    tgt = "target R/2, " + ", ".join(f"Pp{i}/1" for i in range(1, k + 1)) + "."
    tgds = [f"tgd: P{i}(x) -> Pp{i}(x)." for i in range(1, k + 1)]
    body = " & ".join(["R(x,y0)"] + [f"R(y{i},y0) & Pp{i}(y{i})" for i in range(1, k + 1)])
    ys = ", ".join(f"y{i}" for i in range(k + 1))
    tgds.append(f"tgd: Q(x) -> exists {ys}: {body}.")
    return _family(f"star_{k}", "\n".join([src, tgt] + tgds) + "\n", 2**k + k)


symmetric_join = _family("symmetric_join", SYMMETRIC_JOIN, 1)
overlap = _family("overlap", OVERLAP, 3)
split_pair = _family("split_pair", SPLIT_PAIR, 2)


# ---------------------------------------------------------------------------
# Source instances.  Constants are `c<k>`; facts are distinct.

def pairs(rng: random.Random, n: int, consts: int) -> set:
    """n distinct R(x,y) facts over `consts` constants."""
    return {(f"c{k // consts}", f"c{k % consts}") for k in rng.sample(range(consts * consts), n)}


def unary(rng: random.Random, n: int, consts: int) -> set:
    """n distinct P(x)/Q(x) facts over `consts` constants."""
    return {("PQ"[k % 2], f"c{k // 2}") for k in rng.sample(range(2 * consts), n)}


def pairs_text(facts) -> str:
    return "".join(f"R({x}, {y}).\n" for x, y in sorted(facts))


def unary_text(facts) -> str:
    return "".join(f"{r}({x}).\n" for r, x in sorted(facts))
