#!/usr/bin/env python3
"""Benchmark of the dx pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 30 --trace 0

Closed loop, one client: a single thread makes one op after another,
each starting when the previous one has finished, the way a `dx` user
waits on each command.  Run from the root of a source checkout; `dx` is
imported from `src/`.  With `--trace 0` the untraced ops give the
end-to-end metrics; with `--trace 1` every other op runs with spans
around the public functions of each dx layer (see tracing.py) and the
run reports per-layer metrics instead.  Metric names and units come from
BENCHMARK.json at the checkout root.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sqlite3  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import COUNT_SOURCE, Tracer  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, Inputs, is_correct  # noqa: E402

def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100 * k // len(values), sorted(values)[k - 1]


def describe(name, values, unit):
    line = f"{name:<16} median {statistics.median(values):.4f} {unit}"
    t = tail(values)
    line += f"   p{t[0]} {t[1]:.4f} {unit}" if t else "   (no tail percentile: n < 11)"
    return line + f"   n={len(values)}"


def layer_metrics(names, traced, untraced, missing):
    """Per-layer values from the traced ops.  Counts come from the first
    traced op, whose inputs depend only on the seed, so they repeat
    exactly; times are medians over the traced ops.  Metrics of a
    function dx no longer has are left out."""
    first_op, _self, counts = traced[0]
    calls = counts["model.match_pattern.calls"]
    special = {
        "model.match_pattern.hit_ratio": counts["model.match_pattern.hits"] / calls if calls else 0.0,
        "sqlite.vm_steps_k": first_op.vm_steps_k,
        "sqlgen.sql_bytes": first_op.sql_bytes,
        "tracing.overhead": statistics.median(op.seconds for op, _s, _c in traced)
        / statistics.median(op.seconds for op in untraced),
    }
    out = {}
    for name in names:
        source = COUNT_SOURCE.get(name) or ".".join(name.split(".")[:2])
        if source in missing:
            continue
        if name in special:
            out[name] = special[name]
        elif name.startswith("route."):
            route = name[len("route."):-len("_s")]
            out[name] = statistics.median(op.times.get(route, 0.0) for op in untraced)
        elif name.endswith(".self_s"):
            out[name] = statistics.median(s[source] for _op, s, _c in traced)
        else:
            out[name] = counts[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    cls = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    inputs = Inputs()
    setups = []

    def set_up(start):
        """A fresh workload: import dx, write the inputs, compile.  Every op
        gets one, so set-up is timed many times over the run, and setup_s,
        their median, does not hang on the machine's speed at its start."""
        workload = cls(SRC, workdir, args.seed, inputs)
        workload.setup()
        setups.append(time.perf_counter() - start)
        return workload

    try:
        workload = set_up(PROCESS_START)
        start = time.perf_counter()
        workload.run_op(0)  # untimed warm-up
        warm_up = time.perf_counter() - start
        # Sampled at a fixed point, so it does not depend on how many ops
        # a run fits in.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        dx = workload.dx["dx"]

        tracer = Tracer() if args.trace else None
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        index = 1
        while True:
            gc.collect()
            began = time.perf_counter()
            workload = set_up(began)
            use_tracer = tracer is not None and index % 2 == 0
            op = workload.run_op(index, tracer if use_tracer else None)
            if use_tracer:
                traced.append((op, *tracer.take_op()))
            else:
                untraced.append(op)
            index += 1
            enough = untraced and (traced or tracer is None)
            now = time.perf_counter()
            if enough and now + (now - began) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = untraced + [t[0] for t in traced]
    failures = Counter((label, err) for op in ops for label, err in op.failures.items())
    wrong = [msg for op in ops for msg in op.wrong]
    attempted = sum(op.attempted for op in ops)
    failed = sum(failures.values())

    setup_s = statistics.median(setups)
    op_ref = statistics.median(op.ref_units for op in untraced)
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "op_ref": op_ref,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        values = layer_metrics([m["name"] for m in wanted], traced, untraced, tracer.missing)

    env = {
        "kernel_backend": getattr(dx, "KERNEL_BACKEND", None),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for route in workload.routes:
        print(describe(f"{route}_s", [op.times[route] for op in untraced], "s"))
    print(describe("op_s", [op.seconds for op in untraced], "s"))
    print(describe("reference_s", [t for op in untraced for t in op.references], "s"))
    print(describe("op_ref", [op.ref_units for op in untraced], "ref"))
    print(f"setup_s          {setup_s:.4f} s: median of {len(setups)} set-ups; untimed warm-up op {warm_up:.4f} s")
    if any(op.sql_bytes for op in ops):
        print(f"sql_bytes        {ops[0].sql_bytes} bytes per op")
    print(f"failed_share     {failed / attempted:.4f} ({failed} of {attempted} calls)")
    for (label, err), n in sorted(failures.items()):
        known = "known at baseline" if KNOWN_FAILURES.get(label) == err else "NEW"
        print(f"  failed {label}: {err} x{n} ({known})")
    for msg in wrong[:10]:
        print(f"  wrong output: {msg}")
    print(
        f"peak_rss_mb      {peak_rss_mb:.1f} MB through set-up and the warm-up op, "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB at the end"
    )

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    result = {"correct": is_correct(ops), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
