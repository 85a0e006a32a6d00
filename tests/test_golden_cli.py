"""Byte-for-byte CLI output of the rewriting and data-exchange commands.

The gzipped files under tests/golden/cli/ pin `dx blocks`, `dx laconify`
and `dx laconify --eliminate-certain` on the demo mappings and on a few
symmetric families (star, fan, pure cycle), whose canonical naming,
embeddings, renamings and side conditions exercise every symmetry search
of the rewriting.
Regenerate the files only for a deliberate change of output:

    PYTHONPATH=src python tests/test_golden_cli.py

`CHASE_DIGESTS` pins `dx chase`, `dx chase --restricted` and `dx core`
by length and SHA-256 on the demo fact files and on seeded 2,000-fact
instances; the same command prints the table afresh.
"""

import gzip
import hashlib
import pathlib
import random
import sys

import pytest

from dx.cli import main
from dx.lang import format_mapping
from dx.parser import parse_mapping
from helpers import SPLIT_PAIR_SOURCE

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMO = ROOT / "demo"
GOLDEN = ROOT / "tests" / "golden" / "cli"

STAR_4 = """source Q/1, P1/1, P2/1, P3/1, P4/1.
target R/2, Pp1/1, Pp2/1, Pp3/1, Pp4/1.
tgd: P1(x) -> Pp1(x).
tgd: P2(x) -> Pp2(x).
tgd: P3(x) -> Pp3(x).
tgd: P4(x) -> Pp4(x).
tgd: Q(x) -> exists y0, y1, y2, y3, y4: R(x,y0) & R(y1,y0) & Pp1(y1) & R(y2,y0) & Pp2(y2) & R(y3,y0) & Pp3(y3) & R(y4,y0) & Pp4(y4).
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
    "star_3": (DEMO / "star_3.map").read_text(encoding="utf-8"),
    "fan_4": (DEMO / "fan_4.map").read_text(encoding="utf-8"),
    "pure_5_cycle": PURE_5_CYCLE,
    "fan_5": FAN_5,
    "star_4": STAR_4,
    "pure_8_cycle": (DEMO / "cycle_8.map").read_text(encoding="utf-8"),
}

COMMANDS = {
    "blocks": ["blocks"],
    "laconify": ["laconify"],
    "eliminate": ["laconify", "--eliminate-certain"],
}

# fan_5 is pinned for `blocks` only: its side condition is the point.
# pure_8_cycle's 8! numberings check the canonical naming's search; its
# files were made by trying every numbering.  star_4 is pinned by digest
# only.
ONLY = {"fan_5": ("blocks",), "pure_8_cycle": ("blocks", "laconify"), "star_4": ()}
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


# star_4's elimination unfolds 354 distinct certain[...] nodes, the most
# branch choices of any pinned mapping; the disjuncts, their order and
# the fresh-variable numbering of each must not move.
STAR_4_ELIMINATE_SHA256 = "4f6e4c7138cd251de139b8beb91a21f1382f8bdeaa7901be80ac7854f52639d1"


def test_star_4_eliminated_mapping_digest(tmp_path):
    code, out = run_case("star_4", "eliminate", tmp_path)
    assert code == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == (78_564, STAR_4_ELIMINATE_SHA256)


# star_4's laconic mapping before elimination: its types have up to 5
# nulls, so 10 null-null collapse conjuncts each, one per unordered pair,
# renamed into every guard against the type.
STAR_4_LACONIFY_SHA256 = "c9d1d4a4c5fd9dab85d9a1230a3fac5f5bad94603b906d7a169be635d4f83a1c"


def test_star_4_laconic_mapping_digest(tmp_path):
    code, out = run_case("star_4", "laconify", tmp_path)
    assert code == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == (91_695, STAR_4_LACONIFY_SHA256)


# ---------------------------------------------------------------------------
# Chase and core outputs, pinned by digest.

def pairs_text(seed: int, n: int, consts: int) -> str:
    """n distinct R(x,y) facts over `consts` constants."""
    keys = random.Random(seed).sample(range(consts * consts), n)
    return "".join(f"R(c{k // consts}, c{k % consts}).\n" for k in sorted(keys))


def unary_text(seed: int, n: int, consts: int) -> str:
    """n distinct P(x)/Q(x) facts over `consts` constants."""
    keys = random.Random(seed).sample(range(2 * consts), n)
    return "".join(f"{'PQ'[k % 2]}(c{k // 2}).\n" for k in sorted(keys))


def _demo(name: str) -> str:
    return (DEMO / name).read_text(encoding="utf-8")


# (mapping, facts) by case name
EXCHANGE_INPUTS = {
    "symmetric_join/r_pairs": (MAPPINGS["symmetric_join"], _demo("r_pairs.facts")),
    "symmetric_join/quoted_pairs": (MAPPINGS["symmetric_join"], _demo("quoted_pairs.facts")),
    "symmetric_join/mixed": (MAPPINGS["symmetric_join"], _demo("mixed.facts")),
    "overlap/p_a": (MAPPINGS["overlap"], _demo("p_a.facts")),
    "double_witness/p_a": (MAPPINGS["double_witness"], _demo("p_a.facts")),
    "cycle_8/p_a": (MAPPINGS["pure_8_cycle"], _demo("p_a.facts")),
    "split_pair/split_pair": (_demo("split_pair.map"), _demo("split_pair.facts")),
    "nullary/nullary": (_demo("nullary.map"), _demo("nullary.facts")),
    "symmetric_join/2000x700": (MAPPINGS["symmetric_join"], pairs_text(1, 2000, 700)),
    "overlap/2000x1600": (MAPPINGS["overlap"], unary_text(2, 2000, 1600)),
    "split_pair/2000x700": (SPLIT_PAIR_SOURCE, pairs_text(3, 2000, 700)),
}

EXCHANGE_COMMANDS = {
    "chase": ["chase"],
    "restricted": ["chase", "--restricted"],
    "core": ["core"],
}

EXCHANGE_CASES = [f"{name}/{cmd}" for name in EXCHANGE_INPUTS for cmd in EXCHANGE_COMMANDS]


def run_exchange(case: str, workdir: pathlib.Path) -> tuple:
    """Exit code, length and SHA-256 of one case's output."""
    name, cmd = case.rsplit("/", 1)
    mapping, facts = EXCHANGE_INPUTS[name]
    stem = name.replace("/", "-")
    m, i, out = (workdir / f"{stem}.{ext}" for ext in ("map", "facts", f"{cmd}.out"))
    m.write_text(mapping, encoding="utf-8")
    i.write_text(facts, encoding="utf-8")
    code = main(EXCHANGE_COMMANDS[cmd] + ["-m", str(m), "-i", str(i), "-o", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, len(data), hashlib.sha256(data).hexdigest()


CHASE_DIGESTS = {
    "symmetric_join/r_pairs/chase": (95, "be8ef285790c9df213707725f0176bfbe8b9a1cf68683494c7ef64e3a7114cd5"),
    "symmetric_join/r_pairs/restricted": (57, "62c17e8f8d512beb7e438ac14d6affbd1035cfb0e648509ebb1fbd3875b4e626"),
    "symmetric_join/r_pairs/core": (57, "5ac325ed1491eda79fa82c0aa1f57732a0eccb59c6677ebffae41ad26d1f9897"),
    "symmetric_join/quoted_pairs/chase": (969, "ef828ebc358f14d6a098cd6fc83434a58e785d648e43dc85edecf548af91dac7"),
    "symmetric_join/quoted_pairs/restricted": (706, "c7db1b3cf6d8ff3a401e848a417f280b023ae0a650600aab59c375a008ed1d66"),
    "symmetric_join/quoted_pairs/core": (706, "65f77507c992c1f96a5eda7ee89f487b860c1ee545a69ec141a73678f069d7bb"),
    "symmetric_join/mixed/chase": (444, "47595d99d46b05e242f94047d7fc0880e71c1669b43d1686da42af4563bc2d9b"),
    "symmetric_join/mixed/restricted": (444, "47595d99d46b05e242f94047d7fc0880e71c1669b43d1686da42af4563bc2d9b"),
    "symmetric_join/mixed/core": (444, "47595d99d46b05e242f94047d7fc0880e71c1669b43d1686da42af4563bc2d9b"),
    "overlap/p_a/chase": (17, "c76df0eea1b4b77a48d48d7d161789f27ddb9b75122622b7b770307396a449f8"),
    "overlap/p_a/restricted": (17, "c76df0eea1b4b77a48d48d7d161789f27ddb9b75122622b7b770307396a449f8"),
    "overlap/p_a/core": (17, "c76df0eea1b4b77a48d48d7d161789f27ddb9b75122622b7b770307396a449f8"),
    "double_witness/p_a/chase": (32, "d33b12044b2f26b94d357312900ca4805b6fb8b5d304090df06044debe135d49"),
    "double_witness/p_a/restricted": (32, "d33b12044b2f26b94d357312900ca4805b6fb8b5d304090df06044debe135d49"),
    "double_witness/p_a/core": (16, "a56b0184c3c73f916f899235ec08f7ae5c469389277bfa45a4817345ddf64670"),
    "cycle_8/p_a/chase": (184, "49015c9edc9b26782bb727bdba03e3734f5f16ba6dbe5475d05f7ee26c22e130"),
    "cycle_8/p_a/restricted": (184, "49015c9edc9b26782bb727bdba03e3734f5f16ba6dbe5475d05f7ee26c22e130"),
    "cycle_8/p_a/core": (184, "49015c9edc9b26782bb727bdba03e3734f5f16ba6dbe5475d05f7ee26c22e130"),
    "split_pair/split_pair/chase": (396, "11449d1a562313430e460cc10849b4739a98794d226fb89ed9f7a1b211d108a3"),
    "split_pair/split_pair/restricted": (396, "11449d1a562313430e460cc10849b4739a98794d226fb89ed9f7a1b211d108a3"),
    "split_pair/split_pair/core": (396, "11449d1a562313430e460cc10849b4739a98794d226fb89ed9f7a1b211d108a3"),
    "nullary/nullary/chase": (192, "8d63ef26cb75ceba6643e4ccfc0b4e30c42843d0e094ca46840a995df9f5de82"),
    "nullary/nullary/restricted": (173, "614a20e86b4113952b73d74ca02bdb08c5dac2aa8396e190b93c89436ebc56c1"),
    "nullary/nullary/core": (173, "614a20e86b4113952b73d74ca02bdb08c5dac2aa8396e190b93c89436ebc56c1"),
    "symmetric_join/2000x700/chase": (110063, "7aa3080a09bb10d5e79bfefecd1840af4fdb2c6500b324fa76c416353e28f1cb"),
    "symmetric_join/2000x700/restricted": (109901, "2ca036793a3b82607a628c87466721ff4fe99addd1dc999a3a68052b9fdfd385"),
    "symmetric_join/2000x700/core": (109901, "95e156617f066484edeb1008d68c631407e87395cd9dabe78629c37d1b97704f"),
    "overlap/2000x1600/chase": (109692, "a27481067065645020cb738eb755bef54521b0a5c80eba33762cd356aa31381a"),
    "overlap/2000x1600/restricted": (109692, "a27481067065645020cb738eb755bef54521b0a5c80eba33762cd356aa31381a"),
    "overlap/2000x1600/core": (71256, "376c7fbfd673510e8166f955b31194a512ff271f73c89d0fe5d2384ef65060b8"),
    "split_pair/2000x700/chase": (110170, "4e144eb7de66bba813155d59d186d4bdc0ef2bd90f94fa77f15755a930da1258"),
    "split_pair/2000x700/restricted": (110170, "4e144eb7de66bba813155d59d186d4bdc0ef2bd90f94fa77f15755a930da1258"),
    "split_pair/2000x700/core": (110170, "4e144eb7de66bba813155d59d186d4bdc0ef2bd90f94fa77f15755a930da1258"),
}


@pytest.mark.parametrize("case", EXCHANGE_CASES)
def test_exchange_output_matches_digest(case, tmp_path):
    code, size, digest = run_exchange(case, tmp_path)
    assert code == 0
    assert (size, digest) == CHASE_DIGESTS[case]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in CASES:
            code, out = run_case(name, cmd, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"{name} {cmd}: exit code {code}")
            (GOLDEN / f"{name}.{cmd}.txt.gz").write_bytes(gzip.compress(out, 9, mtime=0))
        print("CHASE_DIGESTS = {")
        for case in EXCHANGE_CASES:
            code, size, digest = run_exchange(case, pathlib.Path(tmp))
            if code != 0:
                sys.exit(f"{case}: exit code {code}")
            print(f'    "{case}": ({size}, "{digest}"),')
        print("}")
