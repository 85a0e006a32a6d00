"""Byte-for-byte CLI output of the rewriting commands.

The gzipped files under tests/golden/cli/ pin `dx blocks`, `dx laconify`
and `dx laconify --eliminate-certain` on the demo mappings and on a few
symmetric families (star, fan, pure cycle), whose canonical naming,
embeddings, renamings and side conditions exercise every symmetry search
of the rewriting.
Regenerate the files only for a deliberate change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import gzip
import hashlib
import pathlib
import sys

import pytest

from dx.cli import main
from dx.lang import format_mapping
from dx.parser import parse_mapping

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMO = ROOT / "demo"
GOLDEN = ROOT / "tests" / "golden" / "cli"

STAR_3 = """source Q/1, P1/1, P2/1, P3/1.
target R/2, Pp1/1, Pp2/1, Pp3/1.
tgd: P1(x) -> Pp1(x).
tgd: P2(x) -> Pp2(x).
tgd: P3(x) -> Pp3(x).
tgd: Q(x) -> exists y0, y1, y2, y3: R(x,y0) & R(y1,y0) & Pp1(y1) & R(y2,y0) & Pp2(y2) & R(y3,y0) & Pp3(y3).
"""

FAN_5 = """source R/5.
target S/2.
tgd: R(x0,x1,x2,x3,x4) -> exists y: S(x0,y) & S(x1,y) & S(x2,y) & S(x3,y) & S(x4,y).
"""

PURE_5_CYCLE = """source P/1.
target S/2.
tgd: P(x) -> exists y0, y1, y2, y3, y4: S(y0,y1) & S(y1,y2) & S(y2,y3) & S(y3,y4) & S(y4,y0).
"""

MAPPINGS = {
    "double_witness": (DEMO / "double_witness.map").read_text(encoding="utf-8"),
    "overlap": (DEMO / "overlap.map").read_text(encoding="utf-8"),
    "symmetric_join": (DEMO / "symmetric_join.map").read_text(encoding="utf-8"),
    "star_3": STAR_3,
    "fan_4": (DEMO / "fan_4.map").read_text(encoding="utf-8"),
    "pure_5_cycle": PURE_5_CYCLE,
    "fan_5": FAN_5,
    "pure_8_cycle": (DEMO / "cycle_8.map").read_text(encoding="utf-8"),
}

COMMANDS = {
    "blocks": ["blocks"],
    "laconify": ["laconify"],
    "eliminate": ["laconify", "--eliminate-certain"],
}

# fan_5 is pinned for `blocks` only: its side condition is the point.
# pure_8_cycle's 8! numberings check the canonical naming's search; its
# files were made by trying every numbering.
ONLY = {"fan_5": ("blocks",), "pure_8_cycle": ("blocks", "laconify")}
CASES = [(name, cmd) for name in MAPPINGS for cmd in COMMANDS if cmd in ONLY.get(name, COMMANDS)]


def run_case(name, cmd, workdir: pathlib.Path):
    """Exit code and stdout of one case, as bytes."""
    path = workdir / f"{name}.map"
    path.write_text(MAPPINGS[name], encoding="utf-8")
    out = workdir / f"{name}.{cmd}.out"
    code = main(COMMANDS[cmd] + ["-m", str(path), "-o", str(out)])
    return code, out.read_bytes() if out.exists() else b""


@pytest.mark.parametrize("name,cmd", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_cli_output_matches_golden(name, cmd, tmp_path):
    code, out = run_case(name, cmd, tmp_path)
    assert code == 0
    assert out == gzip.decompress((GOLDEN / f"{name}.{cmd}.txt.gz").read_bytes())


ELIMINATED = sorted(GOLDEN.glob("*.eliminate.txt.gz"))


@pytest.mark.parametrize("path", ELIMINATED, ids=[p.name.split(".")[0] for p in ELIMINATED])
def test_eliminated_mapping_reads_back(path):
    """The flat mappings `dx laconify --eliminate-certain` prints parse
    back to themselves; fan_4's 182 KB is the reader's largest input."""
    text = gzip.decompress(path.read_bytes()).decode("utf-8")
    assert format_mapping(parse_mapping(text)) == text


# fan_5's eliminated mapping is 9.1 MB, so it is pinned by its digest.
# Its one dependency repeats the unfoldings of 51 guards, which share
# subformulas; eliminating (with its constant folding) and printing each
# shared node once must print the same bytes as walking the tree.
FAN_5_ELIMINATE_SHA256 = "4c5aabbb849e4ad2c3b5284028baf71defe619223fe163dfb84db91da38c4bd2"


def test_fan_5_eliminated_mapping_digest(tmp_path):
    code, out = run_case("fan_5", "eliminate", tmp_path)
    assert code == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == (9_096_433, FAN_5_ELIMINATE_SHA256)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in CASES:
            code, out = run_case(name, cmd, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"{name} {cmd}: exit code {code}")
            (GOLDEN / f"{name}.{cmd}.txt.gz").write_bytes(gzip.compress(out, 9, mtime=0))
