"""Acceptance criteria, one test per criterion.

The pinned criteria live in one place: each scenario's `--check` function
in `greenstock.cli`.  The tests below run each scenario at its defaults and
its checks on the resulting table, as `greenstock <scenario> --check` does,
at seed 0 (queue-validate also at seed 24), require every check to pass,
print its PASS lines (visible under pytest -s) and enforce the runtime
budget.  Criterion 5 has no scenario and is pinned here.  Run with:
pytest tests/test_acceptance.py -v -s
"""

import sys
import time

from greenstock import approximation_error
from greenstock.cli import run_checks, run_scenario


def assert_checks_pass(scenario: str, budget_s: float, seed: int = 0) -> None:
    t0 = time.perf_counter()
    results = run_checks(scenario, run_scenario(scenario, {}, seed), seed, sys.stdout)
    elapsed = time.perf_counter() - t0
    failed = [f"{label} ({detail})" for label, ok, detail in results if not ok]
    assert results and not failed, failed
    assert elapsed < budget_s, f"{scenario} checks took {elapsed:.2f}s"


def test_criterion_1_centralized_optimum():
    """Centralized optimum (nu_bar, s_bar, cost) at the reference point, < 1 s."""
    assert_checks_pass("central", 1.0)


def test_criterion_2_equilibrium_consistency():
    """Closed form vs dynamics and the two NE identities over 100 random
    draws, < 5 s."""
    assert_checks_pass("nash", 5.0)


def test_criterion_3_penalty_and_contract():
    """Competition penalty; the coordinated 300x300 grid argmins of both
    players match the centralized gridpoint for every tested eps, < 10 s."""
    assert_checks_pass("penalty-contract", 10.0)


def test_criterion_4_queue_validation():
    """M/M/1 means and pmfs at four loads; H2/truncated-normal mean against
    the kappa-corrected formula, < 60 s.  The check sizes its runs so that
    no seed decides it; seed 24 missed the rho = 0.93 bound (rel 0.0763)
    when every load ran 2M events."""
    for seed in (0, 24):
        assert_checks_pass("queue-validate", 60.0, seed)


def test_criterion_5_continuous_approximation():
    """Approximation error at rho=0.9 stays below 8% for s = 0..10, < 1 s."""
    t0 = time.perf_counter()
    errors = [approximation_error(s, 0.9) for s in range(11)]
    elapsed = time.perf_counter() - t0
    assert max(errors) <= 0.08, f"worst error {max(errors):.4f}"
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: worst heavy-traffic error {max(errors):.4f} "
          f"in {elapsed:.3f}s")


def test_criterion_6_multi_bs_mechanisms():
    """Adaptive uniform is truthful-dominant on 200-point grids over 21
    scenarios; pareto priority admits a profitable inflation, < 60 s."""
    assert_checks_pass("audit", 60.0)


def test_criterion_7_lemma_reproduction():
    """Adaptive split index and uniform grant; proportional strictly exceeds
    the brute-force optimum, which pareto priority attains, < 10 s."""
    assert_checks_pass("allocate", 10.0)


def test_criterion_8_power_split():
    """lambda* matches a 1e-3 grid oracle across the grid prices, the split
    rises with the grid price, and the two anchors hold, < 5 s."""
    assert_checks_pass("power-split", 5.0)
