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
    "core": "NormalizedParams StrategyPair approximation_error "
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



def _records():
    """(record class, its fields in order, fields that fail its validation or None,
    the attributes it derives outside the tuple)."""
    import numpy as np

    from greenstock.cli import ResultTable

    gs = greenstock
    norm = gs.NormalizedParams(b_n=10.0, cs_n=5.0, phi=1.0, alpha=0.5)
    report = gs.equilibrium_report(gs.GameInstance(norm))
    profiles = (gs.BsProfile(lambda_bar=1.0, b=2.0, index=0),
                gs.BsProfile(lambda_bar=2.0, b=2.0, index=1))
    market = {"profiles": profiles, "mu0": 20.0, "p": 2.0, "p1": 1.0, "p2": 10.0}
    sim = {"arrival": gs.Exponential(rate=1.0), "service": gs.Exponential(rate=2.0),
           "horizon": 1000, "seed": 3}
    stats = {"mean_outstanding": 1.0, "mean_waiting": 0.5, "pdf": np.array([0.5, 0.5]),
             "ci_halfwidth": 0.1, "events": 10, "sim_time": 5.0}
    grid = {"n_points": 200, "span": 2.5, "n_scenarios": 20, "seed": 0}
    return [
        (gs.NormalizedParams, norm._asdict(), {**norm._asdict(), "phi": 0.0}, ()),
        (gs.StrategyPair, {"s": 1.0, "nu": 0.5}, {"s": 1.0, "nu": 0.0}, ()),
        (gs.GameInstance, {"norm": norm}, None,
         ("b", "cs", "phi", "alpha", "log_ab", "gamma", "residual_b", "inv_f", "rps_level",
          "nu_top")),
        (gs.EquilibriumReport, report._asdict(), None, ()),
        (gs.Exponential, {"rate": 1.0}, {"rate": -1.0}, ()),
        (gs.HyperExp2, {"prob": 0.5, "rate1": 2.3, "rate2": 3.5},
         {"prob": 1.5, "rate1": 2.3, "rate2": 3.5}, ()),
        (gs.TruncatedNormal, {"mean": 1.0, "cv": 0.5}, {"mean": 1.0, "cv": 0.0}, ("_base",)),
        (gs.SimConfig, sim, {**sim, "horizon": 0}, ()),
        (gs.SimStats, stats, None, ()),
        (gs.BsProfile, {"lambda_bar": 1.0, "b": 2.0, "index": 0},
         {"lambda_bar": 0.0, "b": 2.0, "index": 0}, ()),
        (gs.Market, market, {**market, "mu0": -1.0}, ("lambda_bar", "gamma")),
        (gs.OrderVector, {"orders": (1.0, 2.0)}, {"orders": (1.0, -2.0)}, ()),
        (gs.AllocationResult, {"grants": (1.0,), "n_hat": 1, "rejected": frozenset({0})},
         None, ()),
        (gs.DeviationGrid, grid, {**grid, "n_points": 1}, ()),
        (gs.AuditReport, {"mechanism": "m", "max_improvement": 0.0,
                          "improvements": (0.0, 0.0), "truthful_dominant": True}, None, ()),
        (ResultTable, {"columns": ["a"], "rows": [[1.0]], "provenance": {"seed": 0}}, None, ()),
    ]


_RECORDS = _records()


@pytest.mark.parametrize("cls, fields, bad, derived", _RECORDS,
                         ids=[entry[0].__name__ for entry in _RECORDS])
def test_record_contract(cls, fields, bad, derived):
    """Each value record builds alike from positional and keyword arguments, and
    validates both; it refuses assignment and deletion, of derived attributes
    too; and its ==, hash and Name(field=value, ...) repr are those of its
    fields (SimStats: identity), as for the frozen dataclasses it replaced.
    ResultTable alone stays mutable and unhashable."""
    record, twin = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) is value and getattr(twin, name) is value
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    if bad is not None:
        for build in (lambda: cls(*bad.values()), lambda: cls(**bad)):
            with pytest.raises(greenstock.ParameterError):
                build()
    if cls is greenstock.SimStats:
        assert record == record and record != twin and hash(record) == object.__hash__(record)
    elif cls.__name__ == "ResultTable":
        assert record == twin
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        record.rows = []
        return
    else:
        assert record == twin and hash(record) == hash(twin) == hash(tuple(fields.values()))
    for name in (*fields, *derived, "undeclared"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(hasattr(record, name) for name in derived)
