"""The package's public names, with the allocation layer loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greenstock
from greenstock import allocation

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "core": "DOMAIN_EPS NormalizedParams StrategyPair SystemParams approximation_error "
            "exact_backlog_discrete mean_backlog mean_inventory normalize",
    "errors": "AllGridRegimeError ConvergenceError DegenerateGameError GreenstockError "
              "ParameterError",
    "game": "EquilibriumReport GameInstance TransferContract acceptable_contract auxiliary_f "
            "best_response_dynamics bs_best_response centralized_cost centralized_optimum "
            "competition_penalty coordinated_costs cost_bs cost_rps epsilon_range "
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


def test_star_import_binds_the_allocation_names():
    namespace = {}
    exec("from greenstock import *", namespace)
    for name in EXPORTS["allocation"].split():
        assert namespace[name] is getattr(allocation, name), name


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
