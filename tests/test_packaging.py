"""pyproject.toml is the only packaging file; check what it declares."""

import importlib
import pathlib

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
