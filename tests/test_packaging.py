"""pyproject.toml is the only packaging file; check what it declares."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_package_dir_exists():
    where = _project()["tool"]["setuptools"]["packages"]["find"]["where"]
    assert [(ROOT / w / "dx" / "__init__.py").is_file() for w in where] == [True]


def test_console_scripts_resolve_and_run(capsys):
    scripts = _project()["project"]["scripts"]
    assert scripts == {"dx": "dx.cli:main"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        main = getattr(importlib.import_module(module), attr)
        assert main(["--help"]) == 0
        assert "usage: dx" in capsys.readouterr().out


def _submodules() -> list:
    return sorted(p.stem for p in (ROOT / "src" / "dx").glob("*.py") if p.stem != "__init__")


def test_every_submodule_is_reachable_as_a_module():
    dx = importlib.import_module("dx")
    for name in _submodules():
        module = importlib.import_module(f"dx.{name}")
        assert getattr(dx, name) is module, f"dx.{name} is shadowed"


def test_every_exported_name_resolves():
    dx = importlib.import_module("dx")
    assert [name for name in dx.__all__ if not hasattr(dx, name)] == []


def test_no_module_keeps_a_process_wide_cache():
    for name in _submodules():
        module = importlib.import_module(f"dx.{name}")
        cached = [attr for attr, value in vars(module).items() if hasattr(value, "cache_info")]
        assert cached == [], f"dx.{name}"


_REIMPORT = """
import gc, importlib, sys, weakref
import dx
refs = [weakref.ref(c) for c in (dx.lang.Var, dx.model.Const, dx.chase.Rule)]
for name in [n for n in sys.modules if n == "dx" or n.startswith("dx.")]:
    del sys.modules[name]
dx = importlib.import_module("dx")
gc.collect()
print(sum(r() is not None for r in refs))
"""


def test_reimported_dx_frees_the_previous_import():
    # In a fresh interpreter, so the suite's own dx modules are untouched.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _REIMPORT], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0"], "classes of the first import are still alive"
