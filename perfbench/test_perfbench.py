"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They run the real command, so they take about two minutes.
"""

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import families as fam  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# Metrics that count work and must repeat exactly for one seed.
EXACT = (".calls", ".target_facts", ".folded_facts", ".block_types", ".disjuncts",
         ".rows_out", "sqlite.vm_steps_k", "sqlgen.sql_bytes")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_reported():
    result = run("exchange", 5, 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = run(workload, 3, 1), run(workload, 3, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [n for n in first["metrics"] if n.endswith(EXACT)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def _core_with_dx(mapping_text, rows):
    from dx.chase import naive_chase
    from dx.model import Const, Fact, Instance, compute_core, format_facts
    from dx.parser import parse_mapping

    m = parse_mapping(mapping_text)
    inst = Instance(m.source, [Fact(r, tuple(map(Const, a))) for r, a in rows])
    core, _ = compute_core(naive_chase(m, inst))
    return oracle.read_facts(format_facts(core))


def test_oracle_cores_agree_with_dx_on_small_instances():
    for k in range(20):
        rng = random.Random(k)
        pairs = fam.pairs(rng, rng.randrange(1, 12), 5)
        rows = [("R", p) for p in pairs]
        sj = _core_with_dx(fam.SYMMETRIC_JOIN, rows)
        assert len(sj) == oracle.symjoin_core_size(pairs)
        assert oracle.isomorphic(sj, oracle.symjoin_core(pairs))
        assert oracle.isomorphic(_core_with_dx(fam.SPLIT_PAIR, rows), oracle.split_pair_core(pairs))
        unary = fam.unary(rng, rng.randrange(1, 10), 5)
        ov = _core_with_dx(fam.OVERLAP, [(r, (x,)) for r, x in unary])
        assert len(ov) == oracle.overlap_core_size(unary)
        assert oracle.isomorphic(ov, oracle.overlap_core(unary))


def test_isomorphism_tells_blocks_apart():
    a, b = ("?", "f", ("1",)), ("?", "f", ("2",))
    same = {("S", ("x", a)), ("S", ("y", a))}
    renamed = {("S", ("x", b)), ("S", ("y", b))}
    split = {("S", ("x", a)), ("S", ("y", b))}
    assert oracle.isomorphic(same, renamed)
    assert not oracle.isomorphic(same, split)
    assert oracle.read_facts("S(x, ?f(a, 'b c')).\n") == {("S", ("x", ("?", "f", ("a", "b c"))))}


def test_prefix_renames_relations_only():
    text = fam.star(3).with_prefix("p0007_")
    assert "source p0007_Q/1, p0007_P1/1" in text and "p0007_R(x,y0)" in text
    assert "p0007_x" not in text


def test_only_known_failures_are_correct():
    known = workloads.Op(("compile",))
    known.fail("eliminate/tail_3_cycle", "RecursionError")
    assert workloads.is_correct([known])
    new = workloads.Op(("compile",))
    new.fail("eliminate/star_2", "RecursionError")
    assert not workloads.is_correct([known, new])
    other_error = workloads.Op(("compile",))
    other_error.fail("eliminate/tail_3_cycle", "exit1")
    assert not workloads.is_correct([other_error])


class _CrashingEmit(workloads.Rewrite):
    """`dx emit-sql` raises on fan-3, as a regression might make it."""

    def load(self):
        super().load()
        real = self.cli.main

        def main(argv):
            if argv[0] == "emit-sql" and "fan_3" in argv[2]:
                raise ValueError("crash")
            return real(argv)

        self.cli = type("Cli", (), {"main": staticmethod(main)})


def test_new_call_failure_is_not_correct(tmp_path):
    work = _CrashingEmit(os.path.join(ROOT, "src"), str(tmp_path), 1, workloads.Inputs())
    op = work.run_op(1)
    assert op.failures == {"eliminate/tail_3_cycle": "RecursionError", "emit_sql/fan_3": "ValueError"}
    assert not op.wrong
    assert not workloads.is_correct([op])


def test_malformed_output_is_a_failed_check_not_an_abort(tmp_path):
    work = workloads.Rewrite(os.path.join(ROOT, "src"), str(tmp_path), 1, workloads.Inputs())
    op = workloads.Op(work.routes)
    work.write("laconify_fan_4.out", "tgd: certain[ unbalanced\n")
    op.check("laconify/fan_4", work._check_types, "laconify_fan_4.out", workloads._readable,
             fam.fan(4), work.dx["parser"].parse_mapping)
    op.check("emit_sql/fan_3", work._check_sql, "missing.sql", fam.fan(3), "p0001_")
    assert set(op.failures) == {"laconify/fan_4", "emit_sql/fan_3"}
    assert len(op.wrong) == 2 and not workloads.is_correct([op])
