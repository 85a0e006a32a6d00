"""The backtracking kernel: soundness, completeness, pattern order, and
the indexed search against the full-scan reference."""

import itertools
import random

from helpers import ref_homs

from dx import kernel
from dx.model import Encoding


def _random_case(rng):
    nrels = rng.randint(1, 3)
    arities = [rng.randint(1, 3) for _ in range(nrels)]
    nvals = rng.randint(1, 6)
    nvars = rng.randint(0, 4)
    target = []
    for _ in range(rng.randint(0, 8)):
        r = rng.randrange(nrels)
        target.append((r, tuple(rng.randrange(nvals) for _ in range(arities[r]))))
    pattern = []
    for _ in range(rng.randint(0, 5)):
        r = rng.randrange(nrels)
        args = []
        for _ in range(arities[r]):
            if nvars and rng.random() < 0.5:
                args.append(-1 - rng.randrange(nvars))
            else:
                args.append(rng.randrange(nvals))
        pattern.append((r, tuple(args)))
    injective = rng.random() < 0.3
    return pattern, target, nvars, injective, nvals


def _index(target):
    enc = Encoding()
    for rel, args in target:
        enc.add_row(rel, args)
    return enc


def _ref_index(target):
    index = {}
    for rel, args in dict.fromkeys(target):
        index.setdefault(rel, []).append(args)
    return index


def _is_solution(pattern, target, asn, injective):
    """asn[v] is the value of variable v, or -1 if v is not in the pattern."""
    tgt = set(target)
    for rel, args in pattern:
        if (rel, tuple(a if a >= 0 else asn[-1 - a] for a in args)) not in tgt:
            return False
    used = {-1 - a for _rel, args in pattern for a in args if a < 0}
    bound = [asn[v] for v in used]
    return not injective or len(bound) == len(set(bound))


def test_found_assignments_are_valid():
    rng = random.Random("valid")
    checked = 0
    for _ in range(500):
        pattern, target, nvars, injective, _nvals = _random_case(rng)
        asn = kernel.find_hom(pattern, _index(target), nvars, injective)
        if asn is None:
            continue
        checked += 1
        assert _is_solution(pattern, target, asn, injective)
        used = {-1 - a for _rel, args in pattern for a in args if a < 0}
        assert all((asn[v] >= 0) == (v in used) for v in range(nvars))
    assert checked > 50


def test_none_means_no_assignment_exists():
    rng = random.Random("complete")
    refuted = 0
    for _ in range(500):
        pattern, target, nvars, injective, nvals = _random_case(rng)
        if kernel.find_hom(pattern, _index(target), nvars, injective) is not None:
            continue
        refuted += 1
        for asn in itertools.product(range(nvals), repeat=nvars):
            assert not _is_solution(pattern, target, list(asn), injective)
    assert refuted > 50


def test_homs_yields_every_assignment_once():
    rng = random.Random("all")
    many = 0
    for _ in range(500):
        pattern, target, nvars, injective, nvals = _random_case(rng)
        target = list(dict.fromkeys(target))  # fact sets: rows are distinct
        found = list(kernel.homs(pattern, _index(target), nvars, injective))
        keys = [tuple(asn) for asn in found]
        assert len(keys) == len(set(keys))
        used = {-1 - a for _rel, args in pattern for a in args if a < 0}
        brute = set()
        for vals in itertools.product(range(nvals), repeat=len(used)):
            asn = [-1] * nvars
            for v, c in zip(sorted(used), vals):
                asn[v] = c
            if _is_solution(pattern, target, asn, injective):
                brute.add(tuple(asn))
        assert set(keys) == brute
        first = kernel.find_hom(pattern, _index(target), nvars, injective)
        assert first == (found[0] if found else None)
        many += len(found) > 1
    assert many > 20


def test_order_pattern_is_deterministic_and_complete():
    pattern = [
        (0, (-1, -2)),
        (1, (5,)),
        (0, (-2, -3)),
    ]
    ordered = kernel.order_pattern(pattern)
    assert sorted(ordered) == sorted(pattern)
    assert ordered == kernel.order_pattern(pattern)
    # the fully fixed fact is picked first
    assert ordered[0] == (1, (5,))


def _big_case(rng):
    """Relations of 10-60 distinct rows over up to 12 values: sizes at
    which most pattern facts have a bound position to index on."""
    nrels = rng.randint(1, 2)
    arities = [rng.randint(1, 3) for _ in range(nrels)]
    nvals = rng.randint(2, 12)
    target = []
    for _ in range(rng.randint(10, 60)):
        r = rng.randrange(nrels)
        target.append((r, tuple(rng.randrange(nvals) for _ in range(arities[r]))))
    target = list(dict.fromkeys(target))
    nvars = rng.randint(1, 4)
    pattern = []
    for _ in range(rng.randint(1, 4)):
        r = rng.randrange(nrels)
        pattern.append((r, tuple(
            -1 - rng.randrange(nvars) if rng.random() < 0.7 else rng.randrange(nvals)
            for _ in range(arities[r])
        )))
    injective = rng.random() < 0.3
    return pattern, target, nvars, injective


def _both_cases(rng):
    if rng.random() < 0.5:
        pattern, target, nvars, injective, _nvals = _random_case(rng)
        return pattern, list(dict.fromkeys(target)), nvars, injective
    return _big_case(rng)


def _agrees(pattern, enc, rows, nvars, injective):
    """The indexed search on `enc` yields what a scan of `rows` yields."""
    return list(kernel.homs(pattern, enc, nvars, injective)) == list(
        ref_homs(pattern, _ref_index(rows), nvars, injective))


def test_indexed_homs_yield_the_reference_sequence():
    rng = random.Random("indexed")
    answered_big = 0
    for _ in range(600):
        pattern, target, nvars, injective = _both_cases(rng)
        pattern = kernel.order_pattern(pattern) if rng.random() < 0.5 else pattern
        assert _agrees(pattern, _index(target), target, nvars, injective)
        answered_big += len(target) >= 10 and next(
            ref_homs(pattern, _ref_index(target), nvars, injective), None) is not None
    assert answered_big > 50


def test_index_kept_current_as_rows_come_and_go():
    # Columns built before rows are added and removed must show those
    # changes in the next search, in insertion order.
    rng = random.Random("current")
    changed = 0
    for _ in range(400):
        pattern, target, nvars, injective = _both_cases(rng)
        case = (nvars, injective)
        cut = rng.randint(0, len(target))
        enc = _index(target[:cut])
        for rel, args in pattern:
            for j in range(len(args)):
                enc.column(rel, j)
        live = list(target[:cut])
        for row in target[cut:]:  # as the restricted chase adds facts
            enc.add_row(*row)
            live.append(row)
            if rng.random() < 0.3:
                assert _agrees(pattern, enc, live, *case)
        for row in rng.sample(live, rng.randint(0, len(live))):  # as a fold drops them
            enc.remove(*row)
            live.remove(row)
            if rng.random() < 0.3:
                assert _agrees(pattern, enc, live, *case)
        assert _agrees(pattern, enc, live, *case)
        changed += cut < len(target)
    assert changed > 100


def test_excluded_row_is_skipped():
    rng = random.Random("exclude")
    for _ in range(300):
        pattern, target, nvars, injective = _both_cases(rng)
        if not target:
            continue
        gone = rng.choice(target)
        rest = [row for row in target if row != gone]
        got = list(kernel.homs(pattern, _index(target), nvars, injective, exclude=gone))
        assert got == list(ref_homs(pattern, _ref_index(rest), nvars, injective))
