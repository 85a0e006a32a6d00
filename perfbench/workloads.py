"""The three benchmark workloads.

An op is one job a `dx` user waits for.  Each op runs in three steps:
`prepare` makes and writes its inputs (untimed), `execute` makes the
timed calls, and `verify` checks every output against `oracle`
(untimed).  Calls go through `dx.cli.main(argv)` in-process, with input
files and `-o` outputs in a scratch directory; the SQL route uses
`dx.sqlgen` on a fresh in-memory SQLite connection.

Cache-proofing: every timed call gets an input no earlier call in the
process received.  Instance ops draw fresh facts from a seed made of the
workload seed, the op index and the route; mapping-only ops put a per-op
prefix on every relation name.  `Inputs.claim` stops the run if an input
repeats anyway, because the process-wide caches of the naive chase,
certain answers and unfolding would then serve it.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import os
import sys
import random
import re
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import families as fam
import oracle
from oracle import CheckFailed


class InputRepeated(RuntimeError):
    pass


class Inputs:
    """Digests of every timed call's input in this process."""

    def __init__(self):
        self.seen = set()

    def claim(self, *parts: str):
        digest = hashlib.sha256("\0".join(parts).encode()).digest()
        if digest in self.seen:
            raise InputRepeated(f"a timed call would repeat an earlier input: {parts[0]}")
        self.seen.add(digest)


@dataclass
class Op:
    """Timings and outcomes of one op."""

    routes: tuple
    times: dict = field(default_factory=dict)
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # call label -> error class
    wrong: list = field(default_factory=list)  # check messages
    sql_bytes: int = 0
    vm_steps_k: int = 0
    ref_units: float = 0.0  # op time in units of reference_work, see timed
    references: list = field(default_factory=list)  # reference_work timings

    def __post_init__(self):
        self.times = dict.fromkeys(self.routes, 0.0)

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    def fail(self, label: str, error: str):
        self.failures.setdefault(label, error)

    def check(self, label: str, fn, *args):
        """Run one untimed check and return its result; a failure marks
        the call's output wrong and gives None.  Any exception counts,
        so that one bad output never ends the run."""
        try:
            return fn(*args)
        except Exception as exc:  # the check boundary: record and keep running
            self.fail(label, type(exc).__name__)
            self.wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def reference_work():
    """Fixed CPython work of the kind dx does: tuples, strings, dicts,
    sets and a sort.

    On a shared 2-core machine, speed was seen to switch by up to 1.7x
    from one op to the next and to drift by 1.8x over half an hour, so
    raw op times of two runs are not comparable.  This is timed just before each timed call, and
    the call's time is expressed in units of it (see `timed`)."""
    d = {}
    for i in range(20000):
        d[(i % 997, str(i))] = (i, i + 1)
    ordered = sorted(d.items(), key=lambda kv: kv[1])
    return len({k[0] for k, _v in ordered})


def time_reference() -> float:
    """The collector is off meanwhile, so the timing does not depend on
    how many objects dx keeps alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


@contextmanager
def timed(op: Op, route: str):
    """Time one call on `route`.  Its time is also added to the op in
    units of a reference timing made just before it, so that each call
    is paired with the machine's speed at that moment."""
    ref = time_reference()
    op.references.append(ref)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds = time.perf_counter() - t0
        op.times[route] += seconds
        op.ref_units += seconds / ref


DX_MODULES = ("cli", "model", "parser", "lang", "evaluator", "chase", "certain", "laconify", "sqlgen", "kernel")


def fresh_dx(src: str) -> dict:
    """Import dx from `src`, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == "dx" or n.startswith("dx.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {"dx": importlib.import_module("dx")}
    if not os.path.abspath(mods["dx"].__file__).startswith(src + os.sep):
        raise ImportError(f"dx was imported from {mods['dx'].__file__}, not from {src}")
    for name in DX_MODULES:
        mods[name] = importlib.import_module(f"dx.{name}")
    return mods


class Workload:
    name = ""
    routes: tuple = ()

    def __init__(self, src: str, workdir: str, seed: int, inputs: Inputs):
        self.src = src
        self.dir = workdir
        self.seed = seed
        self.inputs = inputs
        self.load()

    def load(self):
        """Import dx afresh, as each `dx` command does in its own process.
        Every op runs in a workload made afresh, so the process-wide
        caches start empty and no op pays for the results earlier ops
        left in them."""
        self.dx = fresh_dx(self.src)
        self.cli = self.dx["cli"]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    def read(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8") as fh:
            return fh.read()

    def rng(self, op: int, route: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{op}/{route}")

    def dx_call(self, op: Op, route: str, label: str, argv, *claim) -> bool:
        """Time one `dx` command; record a raise or non-zero exit.  `claim`
        is the input (mapping and instance text) the call must not repeat."""
        command = " ".join([argv[0]] + [a for a in argv[1:] if a.startswith("--")])
        self.inputs.claim(command, *claim)
        op.attempted += 1
        try:
            with timed(op, route):
                rc = self.cli.main(list(argv))
        except Exception as exc:  # the op boundary: record and keep running
            op.fail(label, type(exc).__name__)
            return False
        if rc != 0:
            op.fail(label, f"exit{rc}")
            return False
        return True

    def setup(self):
        """One-off preparation timed as part of set-up."""

    def run_op(self, index: int, tracer=None) -> Op:
        """Prepare, execute (traced if a tracer is given) and verify one op."""
        gc.collect()
        job = self.prepare(index)
        op = Op(self.routes)
        if tracer is not None:
            tracer.install()
        try:
            self.execute(job, op, traced=tracer is not None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.verify(job, op)
        return op


# ---------------------------------------------------------------------------

CORE_SJ = (45, 12)  # symmetric-join facts, constants: fold-rich
CORE_OV = (40, 30)  # P/Q facts, constants
RCHASE_SJ = (160, 80)  # sparse symmetric join
BULK_SJ = (2000, 700)
BULK_OV = (2000, 1600)


class Exchange(Workload):
    name = "exchange"
    routes = ("core", "rchase", "chase")

    def setup(self):
        self.sj_map = self.write("symmetric_join.map", fam.symmetric_join.text)
        self.ov_map = self.write("overlap.map", fam.overlap.text)

    def prepare(self, i: int):
        job = {
            "core_sj": fam.pairs(self.rng(i, "core_sj"), *CORE_SJ),
            "core_ov": fam.unary(self.rng(i, "core_ov"), *CORE_OV),
            "rchase_sj": fam.pairs(self.rng(i, "rchase_sj"), *RCHASE_SJ),
            "chase_sj": fam.pairs(self.rng(i, "chase_sj"), *BULK_SJ),
            "chase_ov": fam.unary(self.rng(i, "chase_ov"), *BULK_OV),
        }
        job["text"] = {
            k: (fam.pairs_text if k.endswith("sj") else fam.unary_text)(v)
            for k, v in job.items()
        }
        for k, text in job["text"].items():
            self.write(f"{k}.facts", text)
        return job

    def execute(self, job, op: Op, traced: bool):
        text = job["text"]
        runs = [
            ("core", "core_sj", ["core", "-m", self.sj_map], fam.SYMMETRIC_JOIN),
            ("core", "core_ov", ["core", "-m", self.ov_map], fam.OVERLAP),
            ("rchase", "rchase_sj", ["chase", "--restricted", "-m", self.sj_map], fam.SYMMETRIC_JOIN),
            ("chase", "chase_sj", ["chase", "-m", self.sj_map], fam.SYMMETRIC_JOIN),
            ("chase", "chase_ov", ["chase", "-m", self.ov_map], fam.OVERLAP),
        ]
        job["ok"] = {}
        for route, key, argv, mapping in runs:
            argv = argv + ["-i", self.path(f"{key}.facts"), "-o", self.path(f"{key}.out")]
            job["ok"][key] = self.dx_call(op, route, key, argv, mapping, text[key])

    def verify(self, job, op: Op):
        expect = {
            "core_sj": (oracle.symjoin_core, oracle.symjoin_core_size),
            "core_ov": (oracle.overlap_core, oracle.overlap_core_size),
            "rchase_sj": (oracle.symjoin_restricted, None),
            "chase_sj": (oracle.symjoin_canonical, None),
            "chase_ov": (oracle.overlap_canonical, None),
        }
        for key, (build, closed_form) in expect.items():
            if job["ok"][key]:
                op.check(key, self._check, key, job[key], build, closed_form)

    def _check(self, key, source, build, closed_form):
        got = oracle.read_facts(self.read(f"{key}.out"))
        if closed_form is not None and len(got) != closed_form(source):
            raise CheckFailed(f"core has {len(got)} facts, closed form gives {closed_form(source)}")
        oracle.require_isomorphic(got, build(source), key)


# ---------------------------------------------------------------------------

LACONIC = (
    # family, generator, text, oracle core, (facts, constants)
    (fam.symmetric_join, fam.pairs, fam.pairs_text, oracle.symjoin_core, (45, 22)),
    (fam.overlap, fam.unary, fam.unary_text, oracle.overlap_core, (40, 30)),
    (fam.split_pair, fam.pairs, fam.pairs_text, oracle.split_pair_core, (100, 50)),
)


class LaconicSql(Workload):
    name = "laconic_sql"
    routes = ("sql", "lacon_chase", "core")

    def setup(self):
        parse_mapping = self.dx["parser"].parse_mapping
        laconify = self.dx["laconify"].laconify
        eliminate_mapping = self.dx["certain"].eliminate_mapping
        to_pi = self.dx["chase"].to_term_interpretation
        sqlgen = self.dx["sqlgen"]
        self.compiled = {}
        for family, *_rest in LACONIC:
            m = parse_mapping(family.text)
            lm = eliminate_mapping(laconify(m))
            artifact = sqlgen.interpretation_to_sql(to_pi(lm))
            lacon_text = self.dx["lang"].format_mapping(lm)
            self.compiled[family.name] = (
                m,
                artifact,
                self.write(f"{family.name}.map", family.text),
                self.write(f"{family.name}.laconic.map", lacon_text),
                lacon_text,
            )

    def prepare(self, i: int):
        model = self.dx["model"]
        job = []
        for family, gen, to_text, core_of, size in LACONIC:
            facts = gen(self.rng(i, family.name), *size)
            text = to_text(facts)
            self.write(f"{family.name}.facts", text)
            if family is fam.overlap:
                rows = [(rel, (x,)) for rel, x in facts]
            else:
                rows = [("R", xy) for xy in facts]
            inst = model.Instance(
                self.compiled[family.name][0].source,
                [model.Fact(rel, tuple(map(model.Const, args))) for rel, args in rows],
            )
            job.append({"family": family, "facts": facts, "text": text, "inst": inst, "core_of": core_of})
        return job

    def execute(self, job, op: Op, traced: bool):
        sqlgen = self.dx["sqlgen"]
        for item in job:
            name = item["family"].name
            m, artifact, map_path, lacon_path, lacon_text = self.compiled[name]
            self.inputs.claim("sql", name, item["text"])
            op.attempted += 1
            conn = sqlite3.connect(":memory:")
            steps = [0]
            if traced:
                def tick():
                    steps[0] += 1
                    return 0
                conn.set_progress_handler(tick, 1000)
            try:
                with timed(op, "sql"):
                    sqlgen.load_instance(conn, item["inst"])
                    sqlgen.run_artifact(conn, artifact)
                    item["sql_out"] = sqlgen.read_target(conn, m.target)
            except Exception as exc:  # the op boundary: record and keep running
                op.fail(f"{name}/sql", type(exc).__name__)
                item["sql_out"] = None
            finally:
                conn.close()
            op.vm_steps_k += steps[0]
            facts = self.path(f"{name}.facts")
            item["lacon_ok"] = self.dx_call(
                op, "lacon_chase", f"{name}/lacon_chase",
                ["chase", "-m", lacon_path, "-i", facts, "-o", self.path(f"{name}.lacon.out")],
                lacon_text, item["text"],
            )
            item["core_ok"] = self.dx_call(
                op, "core", f"{name}/core",
                ["core", "-m", map_path, "-i", facts, "-o", self.path(f"{name}.core.out")],
                item["family"].text, item["text"],
            )

    def verify(self, job, op: Op):
        for item in job:
            name = item["family"].name
            want = item["core_of"](item["facts"])
            lacon = None
            if item["lacon_ok"]:
                lacon = op.check(f"{name}/lacon_chase", self._check_output, f"{name}.lacon.out", want,
                                 f"{name} laconic chase")
            if item["core_ok"]:
                op.check(f"{name}/core", self._check_output, f"{name}.core.out", want, f"{name} core")
            if item["sql_out"] is not None:
                op.check(f"{name}/sql", self._check_sql, item["sql_out"], lacon, want, name)

    def _check_output(self, out_name, want, what):
        """The facts of an output file, after checking them against `want`."""
        got = oracle.read_facts(self.read(out_name))
        oracle.require_isomorphic(got, want, what)
        return got

    @staticmethod
    def _check_sql(sql_out, lacon, want, name):
        sql = oracle.from_dx_instance(sql_out)
        if lacon is not None and sql != lacon:
            raise CheckFailed(f"{name}: SQL output differs from the laconic chase output")
        oracle.require_isomorphic(sql, want, f"{name} SQL output")


# ---------------------------------------------------------------------------

# A pure 8-cycle (2-3 s alone), star-3 elimination (3 s) and pure 5-cycle
# elimination (2 s) would leave too few ops in a run for a steady median.
LACONIFY = (fam.pure_cycle(7), fam.star(4), fam.fan(4))
COMPILE = (
    fam.star(2),
    fam.fan(3),
    fam.pure_cycle(4),
    fam.pure_cycle(3, tail=True),  # RecursionError in certain._Unifier at baseline
    fam.symmetric_join,
    fam.overlap,
    fam.split_pair,
)


def _readable(text: str) -> str:
    """The laconify output with each certain[q] node replaced by
    equalities `v = v` over q's free variables.  The parser refuses
    certain[...] by design (the node refers to a base mapping the text
    does not carry), so this is the part of the output that can be read
    back; the free variables keep every dependency safe."""
    out = []
    pos = 0
    while (start := text.find("certain[", pos)) >= 0:
        depth, k = 0, start + len("certain")
        while True:
            depth += {"[": 1, "]": -1}.get(text[k], 0)
            k += 1
            if depth == 0:
                break
        query = text[start + len("certain["):k - 1]
        bound = {v for group in re.findall(r"(?:exists|forall)\s+([^:]*):", query)
                 for v in re.findall(r"\w+", group)}
        names = re.findall(r"'(?:[^'\\]|\\.)*'|\b[A-Za-z_]\w*\b(?!\s*\()", query)
        free = sorted({n for n in names if n[0] != "'"} - bound - {"exists", "forall", "true"})
        out.append(text[pos:start] + ("(" + " & ".join(f"{v} = {v}" for v in free) + ")" if free else "true"))
        pos = k
    out.append(text[pos:])
    return "".join(out)


def _tgd_count(text: str) -> int:
    return len(re.findall(r"^tgd:", text, re.M))


class Rewrite(Workload):
    name = "rewrite"
    routes = ("laconify", "compile")

    def prepare(self, i: int):
        prefix = f"p{i:04d}_"
        job = {"prefix": prefix, "laconify": [], "compile": []}
        for kind, fams in (("laconify", LACONIFY), ("compile", COMPILE)):
            for family in fams:
                text = family.with_prefix(prefix)
                self.write(f"{kind}_{family.name}.map", text)
                job[kind].append([family, text])
        return job

    def execute(self, job, op: Op, traced: bool):
        for item in job["laconify"]:
            family, text = item[0], item[1]
            item.append(self.dx_call(
                op, "laconify", f"laconify/{family.name}",
                ["laconify", "-m", self.path(f"laconify_{family.name}.map"),
                 "-o", self.path(f"laconify_{family.name}.out")],
                text,
            ))
        for item in job["compile"]:
            family, text = item[0], item[1]
            base = f"compile_{family.name}"
            ok = self.dx_call(
                op, "compile", f"eliminate/{family.name}",
                ["laconify", "--eliminate-certain", "-m", self.path(f"{base}.map"),
                 "-o", self.path(f"{base}.out")],
                text,
            ) and self.dx_call(
                op, "compile", f"emit_sql/{family.name}",
                ["emit-sql", "-m", self.path(f"{base}.out"), "-o", self.path(f"{base}.sql")],
                text,
            )
            item.append(ok)

    def verify(self, job, op: Op):
        parse_mapping = self.dx["parser"].parse_mapping
        for family, _text, ok in job["laconify"]:
            if ok:
                op.check(f"laconify/{family.name}", self._check_types, f"laconify_{family.name}.out",
                         _readable, family, parse_mapping)
        for family, _text, ok in job["compile"]:
            if ok:
                base = f"compile_{family.name}"
                op.check(f"eliminate/{family.name}", self._check_types, f"{base}.out",
                         None, family, parse_mapping)
                op.sql_bytes += op.check(f"emit_sql/{family.name}", self._check_sql, f"{base}.sql",
                                         family, job["prefix"]) or 0

    def _check_types(self, out_name, readable, family, parse_mapping):
        """One dependency per block type, and the text parses back, after
        `readable` if it is given."""
        out = self.read(out_name)
        if _tgd_count(out) != family.block_types:
            raise CheckFailed(f"{_tgd_count(out)} dependencies, expected {family.block_types} block types")
        if len(parse_mapping(readable(out) if readable else out).tgds) != family.block_types:
            raise CheckFailed("output parses back to a different number of dependencies")

    def _check_sql(self, sql_name, family, prefix):
        """The views must create and answer on an empty source database.
        Gives the size of the SQL in bytes."""
        sql = self.read(sql_name)
        conn = sqlite3.connect(":memory:")
        try:
            for rel, arity in family.source:
                cols = ", ".join(f"c{k + 1} TEXT NOT NULL" for k in range(arity))
                conn.execute(f'CREATE TABLE "{prefix}{rel}" ({cols})')
            conn.executescript(sql)
            for rel, _arity in family.target:
                rows = conn.execute(f'SELECT * FROM "target_{prefix}{rel}"').fetchall()
                if rows:
                    raise CheckFailed(f"target_{rel} is not empty on an empty source")
        except sqlite3.Error as exc:
            raise CheckFailed(f"emitted SQL fails in SQLite: {exc}") from None
        finally:
            conn.close()
        return len(sql.encode())


# Failures of the program itself, present at the commit that added the
# benchmark; reported, never hidden.
KNOWN_FAILURES = {"eliminate/tail_3_cycle": "RecursionError"}


def is_correct(ops) -> bool:
    """No output was wrong and every failed call is a known failure."""
    return all(
        not op.wrong and all(KNOWN_FAILURES.get(label) == err for label, err in op.failures.items())
        for op in ops
    )

WORKLOADS = {w.name: w for w in (Exchange, LaconicSql, Rewrite)}
