import argparse
import contextlib
import gc
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from helpers import SQL_NAME_CLASHES, sql_name_clash
from hypothesis import given, settings, strategies as st

from dx import cli
from dx.cli import COMMANDS, build_parser, main
from dx.parser import MAX_NESTING

DEMO = pathlib.Path(__file__).resolve().parents[1] / "demo"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def overlap_map():
    return str(DEMO / "overlap.map")


@pytest.fixture
def double_map():
    return str(DEMO / "double_witness.map")


@pytest.fixture
def p_a(tmp_path):
    path = tmp_path / "p_a.facts"
    path.write_text("P(a).\n", encoding="utf-8")
    return str(path)


def test_chase_and_core(capsys, double_map, p_a):
    code, out, _ = run(capsys, "chase", "-m", double_map, "-i", p_a)
    assert code == 0
    assert out.count("R(a,") == 2
    code, out, _ = run(capsys, "core", "-m", double_map, "-i", p_a)
    assert code == 0
    assert out.count("R(a,") == 1


def test_chase_restricted_flag(capsys, tmp_path):
    mp = tmp_path / "m.map"
    mp.write_text(
        "source P/1. target R/2.\n"
        "tgd: P(x) -> R(x,x).\n"
        "tgd: P(x) -> exists y: R(x,y).\n",
        encoding="utf-8",
    )
    facts = tmp_path / "i.facts"
    facts.write_text("P(a).\n", encoding="utf-8")
    code, out, _ = run(capsys, "chase", "--restricted", "-m", str(mp), "-i", str(facts))
    assert code == 0
    assert out.strip() == "R(a, a)."


def test_blocks_table(capsys, overlap_map):
    code, out, _ = run(capsys, "blocks", "-m", overlap_map)
    assert code == 0
    assert out.count("type t") == 3
    assert "precondition:" in out and "side condition:" in out


def test_laconify_output_reparses_after_elimination(capsys, tmp_path, overlap_map):
    out_path = tmp_path / "out.map"
    code = main(
        ["laconify", "-m", overlap_map, "--eliminate-certain", "-o", str(out_path)]
    )
    assert code == 0
    from dx.parser import parse_mapping

    m = parse_mapping(out_path.read_text(encoding="utf-8"))
    assert len(m.tgds) == 3


def test_laconify_symbolic_output_mentions_certain(capsys, double_map):
    code, out, _ = run(capsys, "laconify", "-m", double_map)
    assert code == 0
    assert "certain[" in out


def test_emit_sql(capsys, tmp_path, overlap_map):
    lac = tmp_path / "lac.map"
    assert main(["laconify", "-m", overlap_map, "--eliminate-certain", "-o", str(lac)]) == 0
    code, out, _ = run(capsys, "emit-sql", "-m", str(lac), "--emit-ddl")
    assert code == 0
    assert 'CREATE VIEW "target_R1"' in out
    assert "CREATE TABLE" in out


def test_emit_sql_points_at_a_0_ary_declaration(capsys, tmp_path):
    mp = tmp_path / "m.map"
    mp.write_text("source R/2.\ntarget S/1,\n  Q/0.\n", encoding="utf-8")
    code, _, err = run(capsys, "emit-sql", "-m", str(mp))
    assert code == 2
    assert err == "dx: 3:3: cannot emit SQL for 0-ary relation Q\n"


@pytest.mark.parametrize("name", SQL_NAME_CLASHES)
def test_emit_sql_points_at_a_relation_name_the_sql_would_confuse(capsys, tmp_path, name):
    mp = tmp_path / "m.map"
    mp.write_text(sql_name_clash(name), encoding="utf-8")
    code, out, err = run(capsys, "emit-sql", "-m", str(mp))
    assert code == 2 and out == ""
    assert re.fullmatch(rf"dx: 2:3: relation names? (P and )?{name} .*\n", err), err


def test_certain_answers_command(capsys, overlap_map, p_a):
    code, out, _ = run(
        capsys, "certain", "-m", overlap_map, "-i", p_a, "-q", "exists y: R1(x,y)"
    )
    assert code == 0
    assert "(a)" in out


def test_certain_answers_print_values_as_fact_files_do(capsys):
    """A constant that is not bare is quoted, so `'x,y'` reads as one value."""
    code, out, _ = run(
        capsys, "certain", "-m", str(DEMO / "symmetric_join.map"),
        "-i", str(DEMO / "quoted_pairs.facts"), "-q", "exists z: S(x,z) & S(y,z)",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# answer variables: (x, y)"
    assert "('x,y', 'f(a)')" in lines
    assert "(a, b)" in lines
    assert "('it\\'s', 'back\\\\slash')" in lines


def test_deeply_nested_formula_is_a_parse_error(capsys, tmp_path, p_a):
    """Nesting past the parser's bound exits 2 with a positioned message."""
    mp = tmp_path / "deep.map"
    mp.write_text(
        "source P/1. target T/1.\ntgd: " + "(" * 1000 + "P(x)" + ")" * 1000 + " -> T(x).\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "chase", "-m", str(mp), "-i", p_a)
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"dx: 2:\d+: formula nested too deeply\n", err)
    code, _, err = run(
        capsys, "certain", "-m", str(DEMO / "symmetric_join.map"),
        "-i", str(DEMO / "r_pairs.facts"), "-q", "!" * 5000 + "S(x,x)",
    )
    assert code == 2
    assert re.fullmatch(r"dx: 1:\d+: formula nested too deeply\n", err)


def test_nesting_error_position_depends_only_on_the_text(capsys, tmp_path, p_a):
    """Every command reports a too-deep formula at the same token: the
    one that opens level MAX_NESTING + 1, here the `(` of the 51st
    `(exists y:`, since each opens two levels."""
    mp = tmp_path / "deep.map"
    mp.write_text(
        "source P/1. target T/1.\n\ntgd: P(x) & " + "(exists y: " * 200 + "P(y)" + ")" * 200
        + " -> T(x).\n",
        encoding="utf-8",
    )
    col = len("tgd: P(x) & ") + len("(exists y: ") * (MAX_NESTING // 2) + 1
    for argv in (["chase", "-m", str(mp), "-i", p_a], ["emit-sql", "-m", str(mp)]):
        assert run(capsys, *argv) == (2, "", f"dx: 3:{col}: formula nested too deeply\n")


def test_verify_exit_codes(capsys, tmp_path, double_map):
    code, out, _ = run(
        capsys, "verify", "laconic", "-m", double_map, "--samples", "20", "--seed", "7"
    )
    assert code == 1
    assert "fail" in out

    laconic = tmp_path / "ok.map"
    assert main(["laconify", "-m", double_map, "-o", str(laconic),
                 "--eliminate-certain"]) == 0
    code, out, _ = run(
        capsys, "verify", "laconic", "-m", str(laconic), "--samples", "20", "--seed", "7"
    )
    assert code == 0


def test_verify_disjunctive(capsys, double_map):
    code, out, _ = run(
        capsys, "verify", "disjunctive", "-m", double_map, "--samples", "20", "--seed", "7"
    )
    assert code == 0
    assert out.startswith("check disjunctive-preservation: pass\n  samples=20 seed=7 ")


def test_verify_equivalent_and_records(capsys, tmp_path, double_map):
    lac = tmp_path / "lac.map"
    assert main(["laconify", "-m", double_map, "--eliminate-certain", "-o", str(lac)]) == 0
    records = tmp_path / "r.jsonl"
    code, out, _ = run(
        capsys,
        "verify",
        "equivalent",
        "-m",
        double_map,
        "--against",
        str(lac),
        "--samples",
        "25",
        "--seed",
        "4",
        "--records",
        str(records),
    )
    assert code == 0
    assert len(records.read_text().strip().splitlines()) == 25


@pytest.mark.parametrize("tgd, message", [
    ("tgd: R(x) -> exists z, z: S(x,z).", "duplicate existential variable"),
    (
        "tgd: R(x) -> exists x: S(x,x).",
        "existential variables also free in the antecedent: ['x']",
    ),
])
def test_bad_existential_variables_are_positioned_errors(capsys, tmp_path, tgd, message):
    path = tmp_path / "bad.map"
    path.write_text(f"source R/1.\ntarget S/2.\n{tgd}\n", encoding="utf-8")
    code, out, err = run(capsys, "laconify", "-m", str(path))
    assert (code, out, err) == (2, "", f"dx: 3:1: {message}\n")


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("source P/1. target R/2. tgd: P(x) -> R(x,w).", encoding="utf-8")
    facts = tmp_path / "i.facts"
    facts.write_text("", encoding="utf-8")
    code = main(["chase", "-m", str(bad), "-i", str(facts)])
    assert code == 2


def test_missing_file_exit_code(capsys):
    assert main(["blocks", "-m", "/nonexistent/x.map"]) == 2


def test_certain_rejects_non_cq(capsys, overlap_map, p_a):
    code = main(
        ["certain", "-m", overlap_map, "-i", p_a, "-q", "!(exists y: R1(x,y))"]
    )
    assert code == 2


def test_certain_prints_a_head_constant_missing_from_the_source(capsys):
    """`dx certain` answers over the target: c is an answer though the
    source lacks it, and the nulls that T also holds are not."""
    code, out, _ = run(
        capsys, "certain", "-m", str(DEMO / "constant_head.map"),
        "-i", str(DEMO / "constant_head.facts"), "-q", "T(x)",
    )
    assert code == 0
    assert out == "# answer variables: (x)\n(c)\n"


def test_certain_prints_a_non_cq_query_as_dsl_text(capsys):
    code, out, err = run(
        capsys, "certain", "-m", str(DEMO / "constant_head.map"),
        "-i", str(DEMO / "constant_head.facts"), "-q", "S(x,y) | T(x)",
    )
    assert code == 2 and out == ""
    assert err == "dx: not a conjunctive query: S(x, y) | T(x)\n"


def test_verify_equivalent_requires_against(capsys, double_map):
    assert main(["verify", "equivalent", "-m", double_map, "--samples", "3"]) == 2


def test_verify_equivalent_without_against_fails_before_reading_the_mapping(capsys, tmp_path):
    missing = str(tmp_path / "missing.map")
    code, out, err = run(capsys, "verify", "equivalent", "-m", missing, "--samples", "3")
    assert (code, out, err) == (2, "", "dx: verify equivalent requires --against\n")


def test_verify_equivalent_rejects_other_schemas(capsys, double_map, overlap_map):
    code, out, err = run(
        capsys, "verify", "equivalent", "-m", double_map, "--against", overlap_map
    )
    message = f"dx: {double_map} and {overlap_map} must share source and target schemas\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-consts", "0", "max_consts must be 1 to 12, not 0"),
        ("--max-consts", "13", "max_consts must be 1 to 12, not 13"),
        ("--max-facts", "-1", "max_facts must not be negative, not -1"),
        ("--samples", "-1", "--samples must not be negative, not -1"),
    ],
)
def test_verify_rejects_bounds_out_of_range(capsys, double_map, flag, value, message):
    for kind in ("laconic", "disjunctive"):
        code, out, err = run(capsys, "verify", kind, "-m", double_map, flag, value)
        assert (code, out, err) == (2, "", f"dx: {message}\n")


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2


# -- the cyclic collector ------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collecting(request):
    """The collector's state on entry to `main`, restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _tail_3_cycle_map(tmp_path) -> str:
    path = tmp_path / "tail_3_cycle.map"
    path.write_text(
        "source P/1. target S/2.\n"
        "tgd: P(x) -> exists y0, y1, y2: S(y0,y1) & S(y1,y2) & S(y2,y0) & S(x,y0).\n",
        encoding="utf-8",
    )
    return str(path)


# Every way out of `main`: a command that succeeds, a ParseError (exit 2),
# an argparse error (exit 2), and an exception that escapes `main`: the
# tail-3-cycle's elimination raises RecursionError (ROADMAP item 1).
@pytest.mark.parametrize("way_out", ["exit_0", "parse_error", "usage_error", "escaping_error"])
def test_main_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, tmp_path, double_map, p_a, collecting, way_out
):
    during = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *a: during.append(gc.isenabled()) or emit(*a))
    if way_out == "exit_0":
        assert main(["chase", "-m", double_map, "-i", p_a]) == 0
        assert during == [False]
    elif way_out == "parse_error":
        bad = tmp_path / "bad.facts"
        bad.write_text("P(a", encoding="utf-8")
        assert main(["chase", "-m", double_map, "-i", str(bad)]) == 2
    elif way_out == "usage_error":
        assert main(["chase", "--no-such-option"]) == 2
    else:
        with pytest.raises(RecursionError):
            main(["laconify", "--eliminate-certain", "-m", _tail_3_cycle_map(tmp_path)])
    assert gc.isenabled() is collecting


def test_only_the_cli_imports_gc():
    """The collector is paused in one place: no other dx module imports gc."""
    imports_gc = re.compile(r"^\s*(?:import\s+(?:[\w.]+\s*,\s*)*gc\b|from\s+gc\s+import)", re.M)
    src = pathlib.Path(cli.__file__).parent
    assert sorted(p.name for p in src.glob("*.py") if imports_gc.search(p.read_text("utf-8"))) == [
        "cli.py"
    ]


# -- one-command parsers ------------------------------------------------------

def _parse(capsys, parser, argv):
    """stdout, stderr and exit status of parsing argv (None if it parses)."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return out.out, out.err, code


# Every argv names a known command, so `main` parses it with that command alone.
_ONE_COMMAND_ARGVS = [[name, "--help"] for name in COMMANDS] + [
    ["chase"],
    ["core", "-i", "x.facts"],
    ["laconify"],
    ["blocks", "-o", "out"],
    ["emit-sql", "--emit-ddl"],
    ["certain", "-m", "m.map", "-i", "x.facts"],
    ["verify"],
    ["verify", "laconic"],
    ["chase", "-m", "m.map", "-i", "x.facts", "--bogus"],
    ["emit-sql", "-m", "m.map", "extra"],
    ["laconify", "-m", "m.map", "--eliminate=yes"],
    ["verify", "bogus", "-m", "m.map"],
    ["verify", "laconic", "-m", "m.map", "--samples", "x"],
    ["verify", "laconic", "-m", "m.map", "--seed", "1.5"],
]


@pytest.fixture
def built(monkeypatch):
    """The command of each parser `main` builds (None: all commands)."""
    commands = []

    def spy(command=None):
        commands.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    return commands


@pytest.mark.parametrize("argv", _ONE_COMMAND_ARGVS, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, built, argv):
    expected = _parse(capsys, build_parser(), argv)
    assert expected[2] is not None  # each argv is help or a usage error
    assert _parse(capsys, build_parser(argv[0]), argv) == expected
    code = main(argv)
    out = capsys.readouterr()
    assert built == [argv[0]]
    assert (out.out, out.err) == expected[:2]
    assert code == (0 if expected[2] == 0 else 2)


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "chase"], ["bogus"], ["bogus", "-m", "x"]], ids=str)
def test_top_level_argv_gets_the_full_parser(capsys, built, argv):
    expected = _parse(capsys, build_parser(), argv)
    code = main(argv)
    out = capsys.readouterr()
    assert built == [None]
    assert (out.out, out.err) == expected[:2]
    assert code == (0 if expected[2] == 0 else 2)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, built, double_map, p_a):
    expected = run(capsys, "core", "-m", double_map, "-i", p_a)
    monkeypatch.setattr(sys, "argv", ["dx", "core", "-m", double_map, "-i", p_a])
    assert main() == 0
    assert capsys.readouterr().out == expected[1]
    assert built == ["core", "core"]
    monkeypatch.setattr(sys, "argv", ["dx", "core", "-m", double_map, "-i", p_a, "--bogus"])
    assert main(None) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["chase", "core"])
def test_a_command_builds_one_argument_parser(capsys, monkeypatch, double_map, p_a, command):
    made = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    code, out, err = run(capsys, command, "-m", double_map, "-i", p_a)
    assert (code, err) == (0, "") and out.count("R(a,") >= 1
    assert made == [f"dx {command}"]


def test_outputs_deterministic(capsys, tmp_path, overlap_map, p_a):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert main(["chase", "-m", overlap_map, "-i", p_a, "-o", str(a)]) == 0
    assert main(["chase", "-m", overlap_map, "-i", p_a, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_defaults_to_zero_whatever_the_environment(capsys, double_map, monkeypatch):
    monkeypatch.setenv("DX_SEED", "99")
    code, out, _ = run(capsys, "verify", "laconic", "-m", double_map, "--samples", "5")
    assert "seed=0 " in out


@pytest.mark.parametrize(
    "facts, where, message",
    [
        ("P(a).\nP('@x').\n", "2:3", "may not start with '@'"),
        ("P(?N0).\n", "1:3", "fresh null id must be positive"),
    ],
)
def test_bad_fact_file_is_a_positioned_parse_error(tmp_path, double_map, facts, where, message):
    path = tmp_path / "bad.facts"
    path.write_text(facts, encoding="utf-8")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "dx.cli", "chase", "-m", double_map, "-i", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"dx: {where}: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# -- robustness: arbitrary input text ------------------------------------------

# Mapping and fact text built from DSL tokens (so parsing gets past the
# first character), spliced with arbitrary characters.
_TOKENS = [
    "source", "target", "tgd", ":", ".", ",", "(", ")", "->", "&", "|", "!",
    "=", "<", "/", "0", "1", "2", "exists", "forall", "true", "certain", "[",
    "]", "R", "S", "P", "x", "y", "z", "'a'", "b", "@", "#", "\n", " ",
]
_text = st.one_of(
    st.lists(
        st.one_of(st.sampled_from(_TOKENS), st.text(max_size=2)), max_size=40
    ).map(" ".join),
    st.text(max_size=40),
)
_VALID_MAP = "source R/2, P/1.\ntarget S/2.\ntgd: R(x,y) & !P(y) -> exists z: S(x,z) & S(y,z).\n"


def _mutated(draw, text):
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 4)))
    return text[:i] + draw(st.text(max_size=3)) + text[j:]


@st.composite
def _declared_mapping(draw):
    """Declarations and dependencies over a few relation names, arities
    0-2, so that names clash and atoms misuse arities."""
    rel = st.sampled_from("RSP")
    term = st.sampled_from(["x", "y", "z", "'a'"])

    def decls():
        n = draw(st.integers(1, 2))
        return ", ".join(f"{draw(rel)}/{draw(st.integers(0, 2))}" for _ in range(n))

    def atom():
        args = ", ".join(draw(term) for _ in range(draw(st.integers(0, 2))))
        return f"{draw(rel)}({args})"

    lines = [f"source {decls()}.", f"target {decls()}."]
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"tgd: {atom()} & !{atom()} -> exists z: {atom()}.")
    return "\n".join(lines) + "\n"


@st.composite
def _mapping_text(draw):
    pick = draw(st.integers(0, 2))
    if pick == 0:
        return _mutated(draw, _VALID_MAP)
    return draw(_declared_mapping()) if pick == 1 else draw(_text)


@st.composite
def _fact_text(draw):
    return _mutated(draw, "R(a,b).\nR(b,'c d').\nP(a).\n") if draw(st.booleans()) else draw(_text)


@settings(max_examples=300, deadline=None)
@given(_mapping_text(), _fact_text(), st.sampled_from(["chase", "core", "emit-sql"]))
def test_arbitrary_input_exits_cleanly(mapping, facts, command):
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, text in (("m.map", mapping), ("i.facts", facts)):
            paths[name] = os.path.join(d, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [command, "-m", paths["m.map"], "-o", os.path.join(d, "out")]
        if command != "emit-sql":
            argv += ["-i", paths["i.facts"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert re.match(r"dx: \d+:\d+: ", err.getvalue()), err.getvalue()
