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
