"""Every module of the package star-imports; with an ``__all__`` that names
an undefined object this raises ``AttributeError``.  The package's modules
import each other at the top, in one direction: ``models`` builds graphs
and never reaches for the experiments."""

import ast
import pkgutil
from pathlib import Path

import pytest

import neumann_lab

MODULES = sorted(f"neumann_lab.{info.name}"
                 for info in pkgutil.iter_modules(neumann_lab.__path__))

PACKAGE = Path(neumann_lab.__file__).parent


@pytest.mark.parametrize("name", ["neumann_lab"] + MODULES)
def test_star_import(name):
    exec(f"from {name} import *", {})


def _targets(node) -> list[str]:
    """The package modules an import statement names ([] for other imports)."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("neumann_lab.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "neumann_lab":
            return []
        module = module[len("neumann_lab"):].lstrip(".")
    if module:
        return [module.split(".")[0]]
    return [alias.name for alias in node.names]


def package_imports(path: Path) -> list[tuple[str, bool]]:
    """(imported package module, whether the import sits in a function) for
    every package import in the source file."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            found.extend((target, in_function) for target in _targets(child))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_package_imports_sit_at_module_level():
    nested = [(path.stem, target) for path in sorted(PACKAGE.glob("*.py"))
              for target, in_function in package_imports(path) if in_function]
    # models imports birth_death at the top, so birth_death's use of the
    # comb generators is the one import that has to wait for a call
    assert nested == [("birth_death", "models")]


def test_only_birth_death_imports_mpmath():
    """The engines run in float64; mpmath serves the exact series of the
    birth-death classifier alone."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.stem)
    assert importers == {"birth_death"}


def test_models_does_not_import_the_experiments():
    imported = {target for target, _ in package_imports(PACKAGE / "models.py")}
    assert "birth_death" in imported
    assert not imported & {"analysis", "convergence"}


def test_cli_leaves_the_family_rules_to_models():
    """The exhaustion, its defaults and its reference continuation are
    ``models``' rules: the CLI reads no private ``models`` name, and reads a
    model's family only to gate ``comb-beta``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    private = [node.attr for node in attributes
               if isinstance(node.value, ast.Name) and node.value.id == "models"
               and node.attr.startswith("_")]
    assert private == []
    assert sum(node.attr == "family" for node in attributes) == 1
