"""Fact-matching kernel.

This is the hot inner loop of the whole engine: a backtracking search
that maps a pattern (a set of facts whose arguments are integer codes,
negative codes standing for variables) into a target fact set.  Every
homomorphism, retraction and core question reduces to calls into
`find_hom`.  The symmetry searches of the laconic rewriting (embeddings
and automorphisms) are not made here: `laconify._type_homs` gives
values variable by variable, so that its answers come out sorted and
it can skip those that only permute twin variables.  Isomorphism is
not a search either: it compares canonical block forms
(`model.least_form`).

Encoding convention: argument codes >= 0 are fixed values and must match
target codes exactly; a code a < 0 denotes variable number (-1 - a).
Targets come prebuilt (a `model.Encoding`): each relation's rows
(tuples of codes) in insertion order, and an index from a relation,
position and code to the rows holding that code there, in the same
order.  Callers that search one fact set many times encode it once.
"""

from __future__ import annotations


def homs(pattern, target, nvars, injective=False, exclude=None):
    """Every assignment of the pattern variables into the target.

    pattern: sequence of (relation, args) with int args, negatives = vars.
    target:  rows to search: `target.rows` maps a relation to its rows
             (args >= 0) in insertion order, and `target.column(rel, pos)`
             maps a code to the rows holding it at `pos`, in that order.
    nvars:   number of distinct variables in the pattern.
    injective: require pairwise-distinct variable values.
    exclude: optional (relation, row): a target row the search skips.

    All facts of one relation must have the same arity (callers encode
    schema-checked instances, so this holds by construction).

    Yields each assignment once (a relation's rows form a set), as a
    fresh list of length nvars (-1 for a variable the pattern does not
    use).  The order is deterministic: pattern facts are matched in
    the given order, candidate target rows are tried in insertion order.
    On entering a pattern fact, the candidates are the shortest index
    list among its positions whose code is fixed or bound by an earlier
    fact; a subsequence of the relation's rows, so the order is the same
    as a scan of all of them.
    """
    n = len(pattern)
    rows = target.rows
    frames = []
    seen = set()
    for rel, args in pattern:
        full = rows.get(rel)
        if not full:
            return
        keys = [
            (a, target.column(rel, j))
            for j, a in enumerate(args) if a >= 0 or a in seen
        ]
        seen.update(a for a in args if a < 0)
        skip = exclude[1] if exclude is not None and exclude[0] == rel else None
        frames.append((args, full, keys, skip))
    if n == 0:
        yield [-1] * nvars
        return

    asn = [-1] * nvars
    used = set()
    its = [None] * n
    trail = [()] * n
    i = 0
    enter = True
    while True:
        args, full, keys, skip = frames[i]
        if enter:
            best = full
            for a, col in keys:
                lst = col.get(a if a >= 0 else asn[-1 - a])
                if lst is None:
                    best = ()
                    break
                if len(lst) < len(best):
                    best = lst
            its[i] = iter(best)
        k = len(args)
        advanced = False
        for cand in its[i]:
            if skip is not None and cand == skip:
                continue
            bound = []
            ok = True
            for j in range(k):
                a = args[j]
                c = cand[j]
                if a >= 0:
                    if a != c:
                        ok = False
                        break
                else:
                    v = -1 - a
                    cur = asn[v]
                    if cur < 0:
                        if injective and c in used:
                            ok = False
                            break
                        asn[v] = c
                        if injective:
                            used.add(c)
                        bound.append(v)
                    elif cur != c:
                        ok = False
                        break
            if not ok:
                for v in bound:
                    if injective:
                        used.discard(asn[v])
                    asn[v] = -1
                continue
            trail[i] = tuple(bound)
            advanced = True
            break
        if advanced:
            i += 1
            if i < n:
                enter = True
                continue
            yield list(asn)
        # frame exhausted, or a solution given out: undo the last matched
        # frame's bindings and try its next row
        enter = False
        i -= 1
        if i < 0:
            return
        for v in trail[i]:
            if injective:
                used.discard(asn[v])
            asn[v] = -1


def find_hom(pattern, target, nvars, injective=False, exclude=None):
    """The first assignment `homs` yields, or None."""
    return next(homs(pattern, target, nvars, injective, exclude), None)


def order_pattern(pattern):
    """Reorder pattern facts most-constrained-first.

    Greedy: repeatedly pick the fact with the most arguments that are
    already fixed or bound by previously picked facts (ties broken by
    original position, so the result is deterministic).  This keeps the
    backtracking search shallow on chain- and star-shaped patterns.
    """
    remaining = list(enumerate(pattern))
    ordered = []
    seen = set()
    while remaining:
        best = None
        best_score = None
        for idx, (orig, (rel, args)) in enumerate(remaining):
            known = sum(1 for a in args if a >= 0 or a in seen)
            score = (-known, orig)
            if best_score is None or score < best_score:
                best_score = score
                best = idx
        orig, fact = remaining.pop(best)
        ordered.append(fact)
        for a in fact[1]:
            if a < 0:
                seen.add(a)
    return ordered
