"""The package's public names, with the allocation layer loaded on first use."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import greenstock
from greenstock import allocation

PACKAGE_DIR = Path(greenstock.__file__).parent
# Every name the package exports, by the module that defines it.
EXPORTS = {
    "core": "DOMAIN_EPS NormalizedParams StrategyPair approximation_error "
            "exact_backlog_discrete mean_backlog mean_inventory",
    "errors": "AllGridRegimeError ConvergenceError DegenerateGameError GreenstockError "
              "ParameterError",
    "game": "EquilibriumReport GameInstance auxiliary_f "
            "best_response_dynamics bs_best_response centralized_cost centralized_optimum "
            "coordinated_costs cost_bs cost_rps "
            "equilibrium_report nash_equilibrium power_split rps_best_response total_cost",
    "allocation": "AllocationResult AuditReport BsProfile DeviationGrid Market OrderVector "
                  "adaptive_uniform_allocation breakeven_lambda breakeven_rate optimal_demand "
                  "pareto_priority_allocation post_allocation_cost proportional_allocation "
                  "social_cost social_optimum_bruteforce truthful_orders truthfulness_audit",
    "simulate": "Exponential HyperExp2 SimConfig SimStats TruncatedNormal "
                "empirical_pdf_compare replicate simulate",
}


def test_every_export_imports_from_the_package_and_is_listed():
    listed = dir(greenstock)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"greenstock.{module}")
        for name in names.split():
            namespace = {}
            exec(f"from greenstock import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
            assert name in listed and name in greenstock.__all__, name


def test_all_is_exactly_the_exported_names():
    """No submodule that importing the names binds in the package is exported."""
    assert set(greenstock.__all__) == {name for names in EXPORTS.values() for name in names.split()}


def test_star_import_binds_the_allocation_names():
    namespace = {}
    exec("from greenstock import *", namespace)
    for name in EXPORTS["allocation"].split():
        assert namespace[name] is getattr(allocation, name), name


# Exported names that no module of the package or the benchmark reads.
_UNREAD_EXPORTS = {
    "approximation_error",  # acceptance criterion 5 reads it; ROADMAP item 9 gives it an output
    "replicate",            # perfbench reads it as `_sim().replicate`, a call's attribute
}
_MODULE_NAMES = {"greenstock"} | {path.stem for path in PACKAGE_DIR.glob("*.py")}


def _reads(tree: ast.AST, name: str) -> bool:
    """Whether `tree` reads `name` outside a def or class of that name: as a
    loaded Name, by `from ... import`, or as an attribute of a package module
    (`game.name`).  `report.epsilon_range` is a field read, not a use."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                continue
        if isinstance(node, ast.Name):
            read = node.id == name and isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.ImportFrom):
            read = any(alias.name == name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            read = (node.attr == name and isinstance(node.value, ast.Name)
                    and node.value.id in _MODULE_NAMES)
        else:
            read = False
        if read or _reads(node, name):
            return True
    return False


def test_every_export_has_a_reader():
    sources = [path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"]
    sources += sorted((PACKAGE_DIR.parents[1] / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    unread = {name for name in greenstock.__all__
              if not any(_reads(tree, name) for tree in trees)}
    assert unread == _UNREAD_EXPORTS


def test_readme_library_example_runs():
    """The README's one python block runs as written."""
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(blocks[0], {})


def test_allocation_names_are_read_from_the_module_each_time(monkeypatch):
    """Nothing is cached, so a rebinding in the module, such as a tracer's
    timing wrapper, shows through the package."""
    monkeypatch.setattr(allocation, "social_cost", lambda *args: 0.0)
    assert greenstock.social_cost is allocation.social_cost
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        greenstock.no_such_name


@pytest.mark.parametrize("first", [
    "import greenstock",
    "import greenstock.simulate",
    "from greenstock import simulate",
    "import importlib; importlib.import_module('greenstock.simulate')",
    "import greenstock.cli",
    "import greenstock.allocation",
    "from greenstock import Market",
])
def test_simulate_is_the_function_whatever_is_imported_first(first):
    """The package attribute `simulate` is the function, not the module of
    the same name, in a fresh interpreter whichever import comes first."""
    code = (f"{first}\nimport sys, types, greenstock\n"
            "assert isinstance(greenstock.simulate, types.FunctionType), greenstock.simulate\n"
            "assert isinstance(sys.modules['greenstock.simulate'], types.ModuleType)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(greenstock.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
