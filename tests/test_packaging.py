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
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
NAME = r"[A-Za-z0-9_.-]+"


def test_console_script_targets_import():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), f"{name} = {target!r}"


def test_test_extra_pins_what_ci_installs():
    """The ``test`` extra pins each tool to the version CI's install step pins, and CI
    pins nothing else but the runtime dependencies: tests run with warnings as errors,
    so a tool upgrade can fail them with no code change."""
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    extra = {}
    for req in project["optional-dependencies"]["test"]:
        pin = re.fullmatch(rf"({NAME})==(\S+)", req)
        assert pin, f"test extra {req!r} is not an == pin"
        extra[pin[1]] = pin[2]
    install = re.search(r"- name: Install\n\s+run: (.*)", WORKFLOW.read_text())
    assert install, f"no Install step in {WORKFLOW.name}"
    ci = dict(re.findall(rf'"({NAME})==([^"]+)"', install[1]))
    runtime = {re.match(NAME, d).group() for d in project["dependencies"]}
    assert {k: ci.get(k) for k in extra} == extra
    assert set(ci) - set(extra) <= runtime


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


def test_no_module_rebinds_a_global():
    """No function in the package holds a ``global`` statement, so no module keeps state
    that every caller in the process shares: a cache keys on what its caller passes."""
    for path in sorted((ROOT / "src" / "mazehrl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Global), f"{path.name}:{node.lineno} rebinds {node.names}"


# Every defaulted parameter of the package's public functions, public methods
# and constructors, as (module, function, parameter), and every defaulted field
# of a public dataclass, as (module, class, field). Each one is an option a
# caller can set; a new one must be added here, so its need is argued in review.
PUBLIC_KNOBS = {
    ("nets", "Mlp.__init__", "output_activation"),
    ("nets", "Mlp.__init__", "dtype"),
    ("replay", "sample_pool", "alpha"),
}


def is_dataclass(node):
    """Whether the class ``node`` is decorated ``@dataclass``, ``@dataclass(...)`` or
    ``@dataclasses.dataclass``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)


def defaulted_parameters(path):
    """(module, function, parameter) for each defaulted parameter, positional or
    keyword-only, of the public functions, public methods and ``__init__`` in ``path``,
    and (module, class, field) for each annotated field with a value in a public dataclass."""
    found = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
            if is_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and f.value is not None]
                found |= {(path.stem, node.name, f.target.id) for f in fields}
        else:
            continue
        for name, fn in functions:
            last = name.rpartition(".")[2]
            if last.startswith("_") and last != "__init__":
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found |= {(path.stem, name, a.arg) for a in defaulted}
    return found


def test_public_knobs_are_the_listed_ones():
    found = set().union(*map(defaulted_parameters, (ROOT / "src" / "mazehrl").glob("*.py")))
    assert found == PUBLIC_KNOBS, (
        f"not listed: {sorted(found - PUBLIC_KNOBS)}; listed but gone: {sorted(PUBLIC_KNOBS - found)}"
    )
