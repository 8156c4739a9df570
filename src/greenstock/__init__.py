"""Renewable supply-inventory games on a make-to-stock queue.

Closed-form equilibria and centralized benchmarks for the single
BS/supplier game, transfer-payment coordination, renewable/grid load
splitting, truthful multi-BS capacity allocation mechanisms, and a
deterministic event simulator that validates the queue analytics.

Importing the package loads no numpy: the simulator imports it when it
runs, and the allocation mechanisms' names load their module, which needs
numpy, on first use.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    NormalizedParams,
    StrategyPair,
    approximation_error,
    exact_backlog_discrete,
    mean_backlog,
    mean_inventory,
)
from .errors import (
    AllGridRegimeError,
    ConvergenceError,
    DegenerateGameError,
    GreenstockError,
    ParameterError,
)
from .game import (
    EquilibriumReport,
    GameInstance,
    auxiliary_f,
    best_response_dynamics,
    bs_best_response,
    centralized_cost,
    centralized_optimum,
    coordinated_costs,
    cost_bs,
    cost_rps,
    equilibrium_report,
    nash_equilibrium,
    power_split,
    rps_best_response,
    total_cost,
)
from .simulate import (
    Exponential,
    HyperExp2,
    SimConfig,
    SimStats,
    TruncatedNormal,
    empirical_pdf_compare,
    replicate,
    simulate,
)

# allocation's names, served by __getattr__ (PEP 562) so that numpy loads
# on first use.  Nothing is cached: each lookup reads the module's binding.
_ALLOCATION = frozenset({
    "AllocationResult", "AuditReport", "BsProfile", "DeviationGrid", "Market", "OrderVector",
    "adaptive_uniform_allocation", "breakeven_lambda", "breakeven_rate", "optimal_demand",
    "pareto_priority_allocation", "post_allocation_cost", "proportional_allocation",
    "social_cost", "social_optimum_bruteforce", "truthful_orders", "truthfulness_audit",
})
# The imported names, not the submodules that importing them binds here too.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + sorted(_ALLOCATION)


def __getattr__(name: str):
    if name in _ALLOCATION:
        from . import allocation
        return getattr(allocation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ALLOCATION})
