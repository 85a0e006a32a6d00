"""Values, facts, instances, fact blocks, pattern search, cores, isomorphism.

A value is a tagged tuple: a constant is `(0, text)`, a numbered
("fresh") labeled null `(1, id)`, and a Skolem null `(2, symbol, args)`,
a function symbol applied to values.  A fact is `(rel, args)`.  So
hashing, equality and ordering are Python's own tuple operations, and
their order is the canonical one: constants first, by text (byte-wise
lexicographic on the UTF-8 text, which coincides with Python's str
ordering and with SQLite's binary collation), then fresh nulls by
label, then Skolem nulls by symbol and argument by argument.  The one
caveat: a value equals the plain tuple of its items (`Const('a') ==
(0, 'a')`), so the engine never mixes the two in one set or dict.
Everything here is immutable and hashable.
"""

from __future__ import annotations

import bisect
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, groupby, repeat
from typing import Iterable, Iterator, Mapping, NoReturn, Optional

from dx import kernel

RESERVED_PREFIX = "@"


class DxError(Exception):
    """Base class for engine errors."""


class ParseError(DxError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class MappingError(DxError):
    """Semantic problem in a schema, mapping, or formula."""


def _field(i: int) -> property:
    """A read-only named field at tuple position i."""
    return property(operator.itemgetter(i))


class Const(tuple):
    """A constant value, (0, text); ordered by its text."""

    __slots__ = ()
    text = _field(1)

    def __new__(cls, text: str):
        if not text:
            raise ValueError("constant text must be nonempty")
        if text.startswith(RESERVED_PREFIX):
            raise ValueError(f"constant text may not start with {RESERVED_PREFIX!r}")
        return tuple.__new__(cls, (0, text))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return f"Const({self[1]!r})"


class FreshNull(tuple):
    """A labeled null with a numeric label, (1, id)."""

    __slots__ = ()
    id = _field(1)

    def __new__(cls, id: int):
        if id <= 0:
            raise ValueError("fresh null id must be positive")
        return tuple.__new__(cls, (1, id))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return f"FreshNull({self[1]})"


class SkolemNull(tuple):
    """A labeled null that is a term, (2, symbol, args): a function
    symbol applied to values."""

    __slots__ = ()
    symbol = _field(1)
    args = _field(2)

    def __new__(cls, symbol: str, args: tuple):
        return tuple.__new__(cls, (2, symbol, args))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        return f"SkolemNull({self[1]!r}, {self[2]!r})"


Value = Const | FreshNull | SkolemNull

_new_skolem = partial(tuple.__new__, SkolemNull)


def skolem_nulls(symbol: str, arg_tuples: Iterable[tuple]) -> Iterator[SkolemNull]:
    """SkolemNull(symbol, args) for each args, made in C: no Python call
    per value."""
    return map(_new_skolem, zip(repeat(2), repeat(symbol), arg_tuples))


def is_null(v: Value) -> bool:
    return not isinstance(v, Const)


class Fact(tuple):
    """A fact, (rel, args): a relation name applied to values."""

    __slots__ = ()
    rel = _field(0)
    args = _field(1)

    def __new__(cls, rel: str, args: tuple):
        return tuple.__new__(cls, (rel, args))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Fact(rel={self[0]!r}, args={self[1]!r})"


_new_fact = partial(tuple.__new__, Fact)
_REL = operator.itemgetter(0)
_ARGS = operator.itemgetter(1)


def facts_of(rel: str, arg_tuples: Iterable[tuple]) -> Iterator[Fact]:
    """Fact(rel, args) for each args, made in C: no Python call per fact."""
    return map(_new_fact, zip(repeat(rel), arg_tuples))


class Schema:
    """Relation symbols with arities."""

    __slots__ = ("rels", "_arity")

    def __init__(self, rels: Mapping[str, int] | Iterable[tuple[str, int]]):
        items = sorted(dict(rels).items())
        for name, ar in items:
            if not name:
                raise MappingError("relation name must be nonempty")
            if ar < 0:
                raise MappingError(f"negative arity for relation {name}")
        object.__setattr__(self, "rels", tuple(items))
        object.__setattr__(self, "_arity", dict(items))

    def __setattr__(self, name, value):
        raise AttributeError("Schema is immutable")

    def __reduce__(self):
        return Schema, (self.rels,)

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise MappingError(f"undeclared relation: {name}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.rels)

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def __eq__(self, other):
        return isinstance(other, Schema) and self.rels == other.rels

    def __hash__(self):
        return hash(self.rels)

    def __repr__(self):
        body = ", ".join(f"{n}/{a}" for n, a in self.rels)
        return f"Schema({body})"


class Instance:
    """A finite set of facts over a schema.  Immutable."""

    __slots__ = ("schema", "facts", "__dict__")

    def __init__(self, schema: Schema, facts: Iterable[Fact]):
        fs = frozenset(facts)
        # each distinct (relation, argument count) is checked once
        shapes = set(zip(map(_REL, fs), map(len, map(_ARGS, fs))))
        for rel, n in sorted(shapes):
            if rel not in schema:
                raise MappingError(f"fact over undeclared relation {rel}")
            if n != schema.arity(rel):
                raise MappingError(
                    f"arity mismatch: {rel} declared /{schema.arity(rel)}, fact has {n} arguments"
                )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "facts", fs)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.schema == other.schema
            and self.facts == other.facts
        )

    def __hash__(self):
        return hash((self.schema, self.facts))

    def __len__(self):
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts_sorted)

    def __repr__(self):
        return f"Instance({len(self.facts)} facts)"

    @cached_property
    def facts_sorted(self) -> tuple:
        """The facts in canonical order, that of `sorted(self.facts)`:
        relations by name, and each relation's facts sorted apart from the
        others by their argument tuples, so no comparison reads a name."""
        groups: dict = {}
        for f in self.facts:
            groups.setdefault(f[0], []).append(f)
        return tuple(chain.from_iterable(sorted(groups[rel], key=_ARGS) for rel in sorted(groups)))

    @cached_property
    def values(self) -> frozenset:
        """The active domain, in no order."""
        return frozenset(chain.from_iterable(map(_ARGS, self.facts)))

    @cached_property
    def dom(self) -> tuple:
        return tuple(sorted(self.values))

    @cached_property
    def nulls(self) -> tuple:
        return tuple(v for v in self.dom if is_null(v))

    @cached_property
    def constants(self) -> tuple:
        return tuple(v for v in self.dom if not is_null(v))

    @cached_property
    def by_rel(self) -> dict:
        """relation -> its facts' argument tuples, in no order"""
        out: dict[str, list] = {}
        for rel, args in self.facts:
            out.setdefault(rel, []).append(args)
        return out

    @property
    def is_source(self) -> bool:
        # a value's first field is its tag, 0 for a constant
        return not any(map(operator.itemgetter(0), self.values))

    def with_facts(self, facts: Iterable[Fact]) -> "Instance":
        return Instance(self.schema, self.facts | frozenset(facts))

    def without(self, facts: Iterable[Fact]) -> "Instance":
        return Instance(self.schema, self.facts - frozenset(facts))


def blocks(inst: Instance) -> list[Instance]:
    """Connected components of the fact graph, in canonical order.

    Ground facts are isolated components.
    """
    _enc, rows, null = _encoded(inst)
    fs = inst.facts_sorted
    return [
        Instance(inst.schema, [fs[i] for i in comp])
        for comp in _components(range(len(rows)), rows, null)
    ]


def _components(positions, rows, null) -> list[list[int]]:
    """The blocks among rows[p] for p in `positions` (ascending): lists
    of positions joined by shared null codes, ordered by first position.
    """
    parent = {p: p for p in positions}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    anchor: dict = {}
    for p in parent:
        for c in rows[p][1]:
            if null[c]:
                a = anchor.setdefault(c, p)
                if a != p:
                    ra, rb = find(a), find(p)
                    if ra != rb:
                        parent[rb] = ra
    groups: dict = {}
    for p in parent:
        groups.setdefault(find(p), []).append(p)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Pattern search: the bridge from values to the integer kernel.

@dataclass(frozen=True, slots=True)
class PatternVar:
    """Placeholder for an unknown value inside a search pattern."""

    name: object


class Encoding:
    """Values as integer codes, and facts as per-relation rows of codes.

    Codes are handed out in order of first appearance, and each
    relation's rows keep insertion order, which is the order the kernel
    tries them in.  The encoding is the kernel's search target: `rows`
    maps a relation to its rows (a dict used as an ordered set), and
    `column(rel, pos)` indexes them by the code at one position.  Each
    column is built on first use and kept current as rows are added
    and removed between searches.
    """

    __slots__ = ("codes", "values", "rows", "columns")

    def __init__(self, facts: Iterable[Fact] = ()):
        self.codes: dict = {}
        self.values: list = []
        self.rows: dict[str, dict] = {}
        self.columns: dict[str, dict] = {}  # rel -> pos -> code -> rows
        for f in facts:
            self.add(f)

    def code(self, v: Value) -> int:
        c = self.codes.get(v)
        if c is None:
            c = self.codes[v] = len(self.values)
            self.values.append(v)
        return c

    def add(self, f: Fact) -> tuple:
        row = tuple(self.code(a) for a in f.args)
        self.add_row(f.rel, row)
        return row

    def add_row(self, rel, row: tuple) -> None:
        self.rows.setdefault(rel, {})[row] = None
        for pos, col in self.columns.get(rel, {}).items():
            col.setdefault(row[pos], {})[row] = None

    def remove(self, rel, row: tuple) -> None:
        """Drop a row; the rows after it keep their order."""
        del self.rows[rel][row]
        for pos, col in self.columns.get(rel, {}).items():
            lst = col[row[pos]]
            del lst[row]
            if not lst:
                del col[row[pos]]

    def column(self, rel, pos: int) -> dict:
        """code -> the rows of `rel` holding it at `pos`, in row order."""
        cols = self.columns.setdefault(rel, {})
        col = cols.get(pos)
        if col is None:
            col = cols[pos] = {}
            for row in self.rows.get(rel, ()):
                col.setdefault(row[pos], {})[row] = None
        return col


def match_pattern(
    pattern: Iterable[tuple[str, tuple]],
    target_facts: Iterable[Fact],
    *,
    injective: bool = False,
) -> Optional[dict]:
    """Assign pattern variables to target values so that every pattern
    fact becomes a target fact.  Constants and concrete values in the
    pattern must match exactly.  Returns {PatternVar: Value} or None.

    `target_facts` come in canonical order (an instance's
    `facts_sorted`), so the search and its result are deterministic.
    One kernel search, `injective` asking for pairwise-distinct values.
    """
    target = Encoding(target_facts)
    var_ids: dict = {}
    pat = []
    for rel, args in pattern:
        pat.append((rel, tuple(
            -1 - var_ids.setdefault(a, len(var_ids))
            if isinstance(a, PatternVar) else target.code(a)
            for a in args
        )))
    asn = kernel.find_hom(kernel.order_pattern(pat), target, len(var_ids), injective)
    if asn is None:
        return None
    return {var: target.values[asn[idx]] for var, idx in var_ids.items() if asn[idx] >= 0}


# ---------------------------------------------------------------------------
# Cores.

def _encoded(inst: Instance):
    """The instance's encoding, its facts as (relation, row) pairs in
    canonical order, and a null flag per code."""
    enc = Encoding()
    rows = [(f.rel, enc.add(f)) for f in inst.facts_sorted]
    return enc, rows, [is_null(v) for v in enc.values]


def _block_fold(block, rows, enc, null) -> Optional[dict]:
    """A map of the block's null codes into codes of the instance whose
    image misses at least one row of the block, or None.

    `block` lists positions into `rows`; `enc` holds the instance's
    rows per relation in canonical order.  The fold is the first map
    that misses the block's first missable row.  One search lists the
    maps, skipping those onto the block's rows; at the first other map,
    only the rows before the first it misses are tried again.
    """
    var: dict = {}
    own = [rows[p] for p in block]
    pattern = kernel.order_pattern([
        (rel, tuple(-1 - var.setdefault(c, len(var)) if null[c] else c for c in row))
        for rel, row in own
    ])
    identity = list(var)  # each variable's own code, by variable number
    for asn in kernel.homs(pattern, enc, len(var)):
        if asn == identity:
            continue
        image = {(rel, tuple(asn[-1 - a] if a < 0 else a for a in args)) for rel, args in pattern}
        if not image.issuperset(own):
            k = next(k for k, row in enumerate(own) if row not in image)
            earlier = (kernel.find_hom(pattern, enc, len(var), exclude=row) for row in own[:k])
            asn = next((h for h in earlier if h is not None), asn)
            return {c: asn[v] for c, v in var.items()}
    return None


def _null_blocks(rows, null) -> list[list[int]]:
    """The blocks that hold a null; a ground fact never folds."""
    return [
        b for b in _components(range(len(rows)), rows, null)
        if any(null[c] for c in rows[b[0]][1])
    ]


def compute_core(j: Instance) -> tuple[Instance, dict]:
    """The core of j as a subinstance, with a retraction onto it: a dict
    from every value of j, in `j.dom` order, to a value of the core,
    the identity on the core's values.

    Repeatedly folds a block whose facts can be homomorphically mapped
    into the rest of the instance (or into fewer of its own facts); the
    fixpoint has no proper retracts.  Exponential in block size, which
    is small in this engine's workloads.

    One pass over the blocks in canonical order, on one integer encoding
    (the blocks algorithm of Fagin, Kolaitis and Popa): a fold sends the
    instance to a subinstance that lacks only facts of the folded block,
    and a block that cannot fold into an instance cannot fold into a
    subinstance, so the scan resumes at the pieces of the folded block.
    """
    enc, rows, null = _encoded(j)
    log = []  # each fold's moved codes, in fold order
    todo = _null_blocks(rows, null)
    k = 0
    while k < len(todo):
        block = todo[k]
        fold = _block_fold(block, rows, enc, null)
        if fold is None:
            k += 1
            continue
        facts = [rows[p] for p in block]
        image = {(rel, tuple(fold.get(c, c) for c in row)) for rel, row in facts}
        dead = set(facts) - image
        for rel, row in dead:
            enc.remove(rel, row)
        log.append({c: d for c, d in fold.items() if c != d})
        kept = [p for p in block if rows[p] not in dead]
        del todo[k]
        for piece in _components(kept, rows, null):
            bisect.insort(todo, piece, lo=k, key=lambda b: b[0])
    # comp, the folds composed last first, sends j into the core (a code
    # it lacks stays put) but need not fix the core pointwise: on the
    # core it is a permutation e, so e^-1 after comp is a retraction;
    # inv holds e^-1 on every code that e moves
    comp: dict = {}
    for moves in reversed(log):
        comp.update({c: comp.get(d, d) for c, d in moves.items()})
    inv = {comp[c]: c for lst in enc.rows.values() for row in lst for c in row if c in comp}
    values, codes = enc.values, enc.codes
    core = Instance(j.schema, [
        Fact(rel, tuple(values[c] for c in row))
        for rel, lst in enc.rows.items() for row in lst
    ])
    retr = {}
    for v in j.dom:
        c = comp.get(codes[v], codes[v])
        retr[v] = values[inv.get(c, c)]
    return core, retr


def is_core(j: Instance) -> bool:
    """True iff no block of j folds into the rest of the instance."""
    enc, rows, null = _encoded(j)
    return all(
        _block_fold(block, rows, enc, null) is None
        for block in _null_blocks(rows, null)
    )


# ---------------------------------------------------------------------------
# Canonical forms and isomorphism.

NAMING_BUDGET = 10**5  # search nodes of one canonical naming


def twin_classes(templates, kind) -> list:
    """The least variable of each variable's twin class, templates as
    for `least_form`.  Two variables of one kind are twins when swapping
    them maps the template set onto itself.  Being twins is an
    equivalence (the swap (u w) is (u v)(v w)(u v)), so every
    permutation within a class maps the set onto itself too: the leaves
    of a star and fan-k's constant variables are classes, a cycle's
    rotations are not swaps."""
    templates = set(templates)
    occurs: list = [[] for _ in kind]
    for tpl in templates:
        for a in set(tpl[1]):
            if a.__class__ is int:
                occurs[a].append(tpl)

    def swapped(tpl, u, v):
        return tpl[0], tuple(
            (v if a == u else u if a == v else a) if a.__class__ is int else a for a in tpl[1]
        )

    least = list(range(len(kind)))
    heads: dict = {}  # kind -> the least variable of each class so far
    for v in range(len(kind)):
        same = heads.setdefault(kind[v], [])
        # with equal occurrence counts, a swap that maps u's templates
        # into the set maps v's onto u's
        u = next((
            u for u in same
            if len(occurs[u]) == len(occurs[v]) and all(swapped(tpl, u, v) in templates for tpl in occurs[u])
        ), None)
        if u is None:
            same.append(v)
        else:
            least[v] = u
    return least


def least_form(templates, kind) -> tuple:
    """The least sorted set of atom keys `(rel, parts)` over every
    numbering of the variables, each kind numbered from 1.  A template
    is `(rel, args)`: an int arg is a variable, and `kind[v]` is the kind
    of variable v; any other arg is a literal, kept as it is.  Variable v
    numbered n becomes the part `(kind[v], n)`, so literals must compare
    with such parts.  Two template sets have equal forms iff a renaming
    within each kind maps one onto the other.

    Branch and bound over partial numberings: numbers go out one
    variable at a time, kinds in ascending order.  The bound of a
    partial numbering reads each unnumbered variable as the next free
    number of its kind, so every completion gives each template a key
    at least its bound key, and sorting keeps that order position by
    position.  Equal templates are merged first; then distinct
    templates get distinct keys under every numbering, the completed
    keys sorted are the set, and the bound is at most the completed
    form.  Of the unnumbered variables of one twin class
    (`twin_classes`) only the first is tried next: swapping it with
    another is a symmetry of the templates, so both subtrees hold the
    same forms.  Children are tried in the order of their bounds, ties
    in variable order; a child whose bound reaches the best form found
    is cut with its later siblings.  Past `NAMING_BUDGET` nodes (bounds
    computed) the search raises a MappingError.
    """
    templates = list(dict.fromkeys(templates))

    def form(val):
        return tuple(sorted(
            [(rel, tuple([val[a] if a.__class__ is int else a for a in args])) for rel, args in templates]
        ))

    val = [(k, 1) for k in kind]
    order = sorted(range(len(kind)), key=kind.__getitem__)
    if not order:
        return form(val)
    # each variable is its own class when no two share a kind
    twin = twin_classes(templates, kind) if len(set(kind)) < len(kind) else range(len(kind))
    nodes = 0
    best = None
    stack = [(None, val, order, 1)]  # depth first: the last entry is tried next
    while stack:
        bound, val, free, n = stack.pop()
        if best is not None and bound >= best:
            continue
        if not free:
            best = bound
            continue
        k = kind[free[0]]
        same = [i for i in free if kind[i] == k]
        tried: dict = {}
        for i in same:
            tried.setdefault(twin[i], i)
        nodes += len(tried)
        if nodes > NAMING_BUDGET:
            raise MappingError(
                f"canonical naming: the search for one block's form "
                f"exceeds the budget of {NAMING_BUDGET} nodes"
            )
        children = []
        for i in tried.values():
            child = val.copy()
            for j in same:
                child[j] = (k, n + 1)
            child[i] = (k, n)
            children.append((form(child), i, child))
        children.sort(key=lambda c: c[0])
        for bound, i, child in reversed(children):
            rest = [j for j in free if j != i]
            stack.append((bound, child, rest, n + 1 if rest and kind[rest[0]] == k else 1))
    return best


def _block_forms(inst: Instance) -> Counter:
    """The multiset of the instance's block forms: nulls are variables
    of kind 1 (a numbered null `(1, n)` sorts after every constant
    `(0, text)`, as values do) and constants are literals, so a ground
    fact is its own form."""
    enc, rows, null = _encoded(inst)
    values = enc.values
    forms: Counter = Counter()
    for comp in _components(range(len(rows)), rows, null):
        var: dict = {}
        templates = [
            (rel, tuple([var.setdefault(c, len(var)) if null[c] else values[c] for c in row]))
            for rel, row in (rows[p] for p in comp)
        ]
        forms[least_form(templates, [1] * len(var))] += 1
    return forms


def instances_isomorphic(i: Instance, j: Instance) -> bool:
    """Isomorphism test: identity on constants, a bijection on nulls.

    Blocks must map onto blocks, so two instances are isomorphic iff
    their multisets of block forms (`least_form`) are equal.  Fact,
    constant and null counts are compared first.
    """
    if i.schema != j.schema:
        raise MappingError("isomorphism requires a common schema")
    if len(i.facts) != len(j.facts) or len(i.nulls) != len(j.nulls) or i.constants != j.constants:
        return False
    return _block_forms(i) == _block_forms(j)


# ---------------------------------------------------------------------------
# Tokens and quoted constants, shared by the fact-file and mapping readers.

class Lexer:
    """A cursor over (kind, text, offset) tokens split with one regex pass,
    from offset `start` (a token boundary) to the end of the text.

    `token_re` is an alternation of named groups that ends with a
    catch-all `(?P<error>.)`, so every character lands in exactly one
    token; the group that matched names the token kind, and tokens of
    kind "ws" (whitespace and comments) are dropped.  Past the last token
    `peek` answers an "end" token at the last token's offset, so a reader
    never tests for a missing token.  An "error" token raises once the
    reader takes it or reports an error at it, so errors are reported in
    file order.  A token's line and column are worked out from its offset
    (`where`) only when an error names it.
    """

    def __init__(self, text: str, token_re: re.Pattern, start: int = 0):
        self.text = text
        self.tokens = [
            (m.lastgroup, m.group(), m.start())
            for m in token_re.finditer(text, start)
            if m.lastgroup != "ws"
        ]
        self.end = ("end", "", self.tokens[-1][2] if self.tokens else 0)
        self.i = 0

    def where(self, tok) -> tuple[int, int]:
        """The 1-based (line, col) at which `tok` starts."""
        pos = tok[2]
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def fail(self, tok, msg) -> NoReturn:
        """Raise a ParseError positioned at `tok`."""
        raise ParseError(msg, *self.where(tok)) from None

    def peek(self, ahead: int = 0):
        try:
            return self.tokens[self.i + ahead]
        except IndexError:
            return self.end

    def take(self):
        """The next token, consumed; an "error" token raises instead."""
        tok = self.peek()
        if tok[0] == "error":
            self.error("")
        self.i += 1
        return tok

    def error(self, msg) -> NoReturn:
        """Raise `msg` at the next token."""
        tok = self.peek()
        if tok[0] == "end":
            self.fail(tok, f"{msg} at end of input")
        if tok[0] == "error":
            self.fail(tok, f"unexpected character {tok[1]!r}")
        self.fail(tok, f"{msg}, got {tok[1]!r}")

    def accept(self, value) -> bool:
        """Consume the next token if its text is `value`, a punctuation
        mark or keyword (never an "error" token's text)."""
        if self.peek()[1] == value:
            self.i += 1
            return True
        return False

    def expect(self, value) -> None:
        if not self.accept(value):
            self.error(f"expected {value!r}")

    def quoted_const(self, tok) -> Const:
        """The constant written by a quoted token, or a ParseError at it."""
        body = _unquote(tok[1])
        if not body:
            self.fail(tok, "empty constant")
        try:
            return Const(body)
        except ValueError as exc:
            self.fail(tok, str(exc))


def quote(text: str) -> str:
    """Constant text as a single-quoted token; `_unquote` inverts it."""
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _unquote(token: str) -> str:
    """The text of a quoted token; `quote` inverts it."""
    return token[1:-1].replace("\\'", "'").replace("\\\\", "\\")


# ---------------------------------------------------------------------------
# Fact files: one fact per line, `R(a, b).`, nulls as ?N1 / ?f(a,b).

_BARE = re.compile(r"[A-Za-z0-9_]+\Z")
_FACT_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
       |(?P<punct>[().,])
       |(?P<null>\?[A-Za-z_][A-Za-z0-9_]*)
       |(?P<bare>[A-Za-z0-9_]+)
       |(?P<quoted>'(?:[^'\\]|\\.)*')
       |(?P<error>.)
    """,
    re.VERBOSE,
)
_FRESH = re.compile(r"N([0-9]+)\Z")

# A flat fact's argument, captured: a bare token, or a quoted one that
# reads as a constant (neither empty nor starting with `@`), and the
# space after it.
_FLAT_ARG = r"([A-Za-z0-9_]+|'(?!@)(?:[^'\\]|\\.)+')\s*"
# Whitespace and comments between facts, one character or one whole
# comment per step, so a failed match never backtracks into a comment.
_FACT_GAP = re.compile(r"(?:\s|\#[^\n]*(?![^\n]))*")


class _Texts(dict):
    """Each value's fact-file text, made on first lookup; a Skolem
    null's text is built from its arguments' texts."""

    __slots__ = ()

    def __missing__(self, v: Value) -> str:
        if v[0] == 0:
            t = v[1] if _BARE.match(v[1]) else quote(v[1])
        elif v[0] == 1:
            t = f"?N{v[1]}"
        else:
            t = f"?{v[1]}({', '.join(map(self.__getitem__, v[2]))})"
        self[v] = t
        return t


def format_value(v: Value) -> str:
    return _Texts()[v]


def all_bare(texts: Iterable[str]) -> bool:
    """True iff every text is bare: a fact file writes it as it is."""
    return all(map(_BARE.match, texts))


def fact_lines(rel: str, arity: int, n: int, cells: tuple) -> str:
    """n lines of facts of `rel`: one `%` format of its line template,
    repeated, over the cells, the n rows' argument texts in row order."""
    line = rel.replace("%", "%%") + "(" + ", ".join(["%s"] * arity) + ").\n"
    return (line * n) % cells


def sort_plain_lines(lines: str) -> str:
    """A bare relation's distinct fact lines, sorted into canonical order.
    The lines must be plain: every constant bare, every Skolem symbol an
    ASCII identifier, and no `?N` null.

    Sorted as strings, with `?` read as `\\x7f`, they are in canonical
    order: identifier characters lie above `(`, `)` and `,`, so a
    constant or symbol comes before those it prefixes and a shorter
    argument list before a longer one, and `\\x7f` lies above them all,
    so constants come before nulls; plain texts are injective."""
    out = lines.replace("?", "\x7f").splitlines(True)
    out.sort()
    return "".join(out).replace("\x7f", "?")


def format_facts(inst: Instance) -> str:
    """One line per fact, in canonical order: relations in name order,
    each relation's argument tuples sorted apart from the others, as in
    `facts_sorted`, which is neither read nor cached.  Each distinct
    value's text is made once, and each relation's lines are one
    `fact_lines` format."""
    text = _Texts().__getitem__
    groups = [(rel, sorted(map(_ARGS, g))) for rel, g in groupby(sorted(inst.facts, key=_REL), _REL)]
    return "".join(
        fact_lines(rel, len(rows[0]), len(rows), tuple(map(text, chain.from_iterable(rows))))
        for rel, rows in groups
    )


class _Consts(dict):
    """A fact file's constants by token text, each made on first lookup,
    so every occurrence of a token shares one constant."""

    __slots__ = ()

    def __missing__(self, token: str) -> Const:
        c = self[token] = Const(_unquote(token) if token[0] == "'" else token)
        return c


def _read_args(lex: Lexer, consts: _Consts) -> tuple:
    lex.expect("(")
    args = []
    if not lex.accept(")"):
        args.append(_read_value(lex, consts))
        while lex.accept(","):
            args.append(_read_value(lex, consts))
        lex.expect(")")
    return tuple(args)


def _read_value(lex: Lexer, consts: _Consts) -> Value:
    """The value at the next token."""
    tok = lex.peek()
    if tok[0] not in ("bare", "quoted", "null"):
        lex.error("expected a value")
    kind, text, _pos = lex.take()
    if kind == "bare":
        return consts[text]
    if kind == "quoted":
        return lex.quoted_const(tok)
    name = text[1:]
    m = _FRESH.match(name)
    if m and lex.peek()[1] != "(":
        try:
            return FreshNull(int(m.group(1)))
        except ValueError as exc:
            lex.fail(tok, str(exc))
    return SkolemNull(name, _read_args(lex, consts))


def _read_facts(lex: Lexer, schema: Schema, consts: _Consts, facts: list) -> None:
    """The token reader: append the facts of `lex` to `facts`, or raise a
    ParseError at the first error in file order."""
    while (tok := lex.peek())[0] != "end":
        if tok[0] != "bare":
            lex.error("expected relation name")
        rel = lex.take()[1]
        args = _read_args(lex, consts)
        lex.expect(".")
        if rel not in schema:
            lex.fail(tok, f"undeclared relation {rel}")
        if len(args) != schema.arity(rel):
            lex.fail(
                tok, f"arity mismatch for {rel}: expected {schema.arity(rel)}, got {len(args)}"
            )
        facts.append(Fact(rel, args))


def parse_facts(text: str, schema: Schema) -> Instance:
    """Read a fact file into an instance over the given schema.

    Flat facts, comment-free facts of bare and quoted constants, are read
    with one `findall` of a pattern built from the schema: one
    alternative per arity, listing its bare relation names, then a last
    group that takes the rest of the text from the first place no
    alternative matches (a null, a comment inside a fact, an undeclared
    relation, an arity mismatch, a quoted token that is no constant, or
    malformed input).  Each arity's facts are built a column at a time.
    The token reader reads the rest: it alone reads nulls and raises
    ParseError.  Both share one table of constants.
    """
    consts = _Consts()
    facts: list = []
    pos = _FACT_GAP.match(text).end()
    names: dict = {}  # arity -> its bare relation names
    for rel, n in schema.rels:
        if _BARE.match(rel):
            names.setdefault(n, []).append(rel)
    if names and pos < len(text):
        alts = ["(" + "|".join(rels) + r")\s*\(\s*" + r",\s*".join([_FLAT_ARG] * n) + r"\)\s*\."
                for n, rels in names.items()]
        found = re.compile(rf"(?:{'|'.join(alts)}){_FACT_GAP.pattern}|([\s\S]+)").findall(text, pos)
        columns = list(zip(*found))
        pos = len(text) - len(columns.pop()[-1])
        get = consts.__getitem__
        for n in names:
            rels, args, columns = columns[0], columns[1:n + 1], columns[n + 1:]
            rows = zip(*[map(get, compress(col, rels)) for col in args]) if n else repeat(())
            facts += map(_new_fact, zip(compress(rels, rels), rows))
    if pos < len(text):
        _read_facts(Lexer(text, _FACT_TOKEN, pos), schema, consts, facts)
    return Instance(schema, facts)
