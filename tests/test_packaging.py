"""Checks on the package metadata in pyproject.toml."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_script_targets_import():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), f"{name} = {target!r}"


def test_package_imports_only_declared_dependencies():
    """Every import in the package is relative, from the standard library, or
    of a name in ``[project].dependencies``: an installed but undeclared
    package (scipy, say) would pass every other test and fail on install."""
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().replace("-", "_").lower() for d in deps}
    paths = sorted((ROOT / "src" / "mazehrl").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top.lower() in declared, (
                    f"{path.name}:{node.lineno} imports {name}, which is not declared"
                )
