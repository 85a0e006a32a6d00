import os
import pathlib
import subprocess
import sys

import pytest

from dx.cli import main

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


def test_certain_answers_command(capsys, overlap_map, p_a):
    code, out, _ = run(
        capsys, "certain", "-m", overlap_map, "-i", p_a, "-q", "exists y: R1(x,y)"
    )
    assert code == 0
    assert "(a)" in out


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


def test_verify_equivalent_requires_against(capsys, double_map):
    assert main(["verify", "equivalent", "-m", double_map, "--samples", "3"]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_outputs_deterministic(capsys, tmp_path, overlap_map, p_a):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert main(["chase", "-m", overlap_map, "-i", p_a, "-o", str(a)]) == 0
    assert main(["chase", "-m", overlap_map, "-i", p_a, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_default(capsys, tmp_path, double_map, monkeypatch):
    monkeypatch.setenv("DX_SEED", "99")
    code, out, _ = run(capsys, "verify", "laconic", "-m", double_map, "--samples", "5")
    assert "seed=99" in out


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
