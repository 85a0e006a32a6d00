"""Spans around the public functions of each `dx` layer, recorded from
outside the program.

Each traced function is replaced at *every* attribute of a loaded
`dx.*` module bound to it (found by identity), so calls dx makes
through imported names (`dx.chase.match_pattern`, `dx.cli.compute_core`)
are timed too.  A span records name, start, end and parent; a
function's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


def _match_pattern_counts(args, kwargs, result):
    target = args[1] if len(args) > 1 else kwargs["target_facts"]
    return {
        "model.match_pattern.target_facts": len(target),
        "model.match_pattern.hits": result is not None,
    }


# layer (dx module) -> public function -> count hook or None.  A hook
# maps (args, kwargs, result) to {metric name: amount}; hooks read sizes
# only.
TRACED = {
    "kernel": {"find_hom": None},
    "model": {
        "match_pattern": _match_pattern_counts,
        "compute_core": lambda a, k, r: {"model.compute_core.folded_facts": len(a[0]) - len(r[0])},
        "blocks": None,
        "parse_facts": None,
        "format_facts": None,
    },
    "evaluator": {"eval_formula": lambda a, k, r: {"evaluator.eval_formula.rows_out": len(r)}},
    "chase": {"naive_chase": None, "restricted_chase": None},
    "laconify": {
        "generate_block_types": lambda a, k, r: {"laconify.block_types": len(r)},
        "precondition": None,
        "side_condition": None,
        "laconify": None,
    },
    "certain": {
        "unfold": lambda a, k, r: {"certain.unfold.disjuncts": len(r.disjuncts)},
        "eliminate_mapping": None,
    },
    "sqlgen": {
        "interpretation_to_sql": None,
        "load_instance": None,
        "run_artifact": None,
        "read_target": lambda a, k, r: {"sqlite.rows_out": len(r)},
        "decode_value": None,
    },
    "parser": {"parse_mapping": None},
}

# Metrics a hook reports under a name that is not its function's.
COUNT_SOURCE = {
    "laconify.block_types": "laconify.generate_block_types",
    "sqlite.rows_out": "sqlgen.read_target",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the op's span list, -1 for a root


class Tracer:
    """Installs and removes the wrappers; collects one op's spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (module, attribute, original)
        self.missing: set = set()  # "module.function" not found in dx

    def install(self):
        dx_modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "dx" or name.startswith("dx."))
        ]
        wrappers = {}
        for layer, funcs in TRACED.items():
            mod = sys.modules.get(f"dx.{layer}")
            for fname, hook in funcs.items():
                fn = getattr(mod, fname, None)
                if not callable(fn):
                    self.missing.add(f"{layer}.{fname}")
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn, hook)
        for mod in dx_modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, time.perf_counter(), 0.0, parent)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            counts[f"{name}.calls"] += 1
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    counts[key] += n
            return result

        return traced

    def take_op(self):
        """Self time per function and the counts of the op just run;
        clears the spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        self_s: Counter = Counter()
        for span, c in zip(self.spans, child):
            self_s[span.name] += span.end - span.start - c
        counts = Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return self_s, counts
