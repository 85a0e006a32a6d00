"""Fact-matching kernel.

This is the hot inner loop of the whole engine: a backtracking search
that maps a pattern (a set of facts whose arguments are integer codes,
negative codes standing for variables) into a target fact set.  Every
homomorphism, retraction, core and isomorphism question reduces to calls
into `find_hom`; the symmetry searches of the laconic rewriting
(embeddings, renamings, self-maps) enumerate all answers with `homs`.

Encoding convention: argument codes >= 0 are fixed values and must match
target codes exactly; a code a < 0 denotes variable number (-1 - a).
Targets come prebuilt as an index from relation to its rows (tuples of
codes), so callers that search one fact set many times encode it once.
"""

from __future__ import annotations


def homs(pattern, index, nvars, injective=False, allowed=None):
    """Every assignment of the pattern variables into the target.

    pattern: sequence of (relation, args) with int args, negatives = vars.
    index:   mapping relation -> sequence of target rows, args >= 0.
    nvars:   number of distinct variables in the pattern.
    injective: require pairwise-distinct variable values.
    allowed: optional set of codes variables may take.

    All facts of one relation must have the same arity (callers encode
    schema-checked instances, so this holds by construction).

    Yields each assignment as a fresh list of length nvars (-1 for a
    variable the pattern does not use), once if each relation's rows are
    distinct.  The order is deterministic: pattern facts are matched in
    the given order, candidate target rows are tried in their index order.
    """
    n = len(pattern)
    cands = []
    for rel, _args in pattern:
        lst = index.get(rel)
        if not lst:
            return
        cands.append(lst)
    if n == 0:
        yield [-1] * nvars
        return

    asn = [-1] * nvars
    used = set()
    pos = [0] * n
    trail = [()] * n
    i = 0
    while True:
        lst = cands[i]
        args = pattern[i][1]
        k = len(args)
        ci = pos[i]
        end = len(lst)
        advanced = False
        while ci < end:
            cand = lst[ci]
            ci += 1
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
                        if allowed is not None and c not in allowed:
                            ok = False
                            break
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
            pos[i] = ci
            trail[i] = tuple(bound)
            advanced = True
            break
        if advanced:
            i += 1
            if i < n:
                pos[i] = 0
                continue
            yield list(asn)
        # frame exhausted, or a solution given out: undo the last matched
        # frame's bindings and try its next row
        i -= 1
        if i < 0:
            return
        for v in trail[i]:
            if injective:
                used.discard(asn[v])
            asn[v] = -1


def find_hom(pattern, index, nvars, injective=False, allowed=None):
    """The first assignment `homs` yields, or None."""
    return next(homs(pattern, index, nvars, injective, allowed), None)


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
