"""Every module of the package star-imports; with an ``__all__`` that names
an undefined object this raises ``AttributeError``.  The package's modules
import each other at the top, in one direction: ``models`` builds graphs
and never reaches for the experiments."""

import ast
import os
import pkgutil
import subprocess
import sys
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


def test_no_package_module_imports_mpmath():
    """numpy is the package's one runtime dependency: mpmath serves the
    tests' references alone."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.add(path.stem)
    assert importers == set()


def test_only_errors_states_the_input_rule():
    """``errors.checked`` decides which numbers the package takes in: no
    other module compares against math.inf or words that rule's message."""
    stating = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            operands = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
                        else [])
            if (any(isinstance(op, ast.Attribute) and op.attr == "inf"
                    and isinstance(op.value, ast.Name) and op.value.id == "math"
                    for op in operands)
                    or isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "and finite, got" in node.value):
                stating.add(path.stem)
    assert stating == {"errors"}


def test_the_chain_solvers_run_without_mpmath():
    """With mpmath unimportable, every chain preset classifies and the
    alpha-harmonic recursion runs on float and on exact data."""
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "import neumann_lab.cli\n"
            "from neumann_lab import birth_death, models\n"
            "for name in ('bd:unit', 'bd:geo', 'bd:explosive', 'bd:tail'):\n"
            "    birth_death.classify(models.PRESETS[name]().chain, 50)\n"
            "chain = models.PRESETS['bd:geo']().chain\n"
            "birth_death.solve_alpha_harmonic(chain, 1.0, 1.0, 20)\n"
            "birth_death.solve_alpha_harmonic(chain, 1, 1, 20)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


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
