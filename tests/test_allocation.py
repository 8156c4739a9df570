"""Multi-BS capacity allocation: demands, mechanisms, optimum and audits.

The reference market is the 8-station scenario (mu0=20, p=2, p1=1, p2=10,
b=2, lambda_bar_i = 0.5 i) whose hand-executable numbers anchor every
mechanism.  Property tests draw markets and orders from the market domain
in `strategies.py`; only `scarce_market`, for the planner-dominance checks,
is drawn from a seeded rng.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenstock import (
    AllGridRegimeError,
    AllocationResult,
    BsProfile,
    DeviationGrid,
    Market,
    OrderVector,
    ParameterError,
    adaptive_uniform_allocation,
    breakeven_lambda,
    breakeven_rate,
    optimal_demand,
    pareto_priority_allocation,
    post_allocation_cost,
    proportional_allocation,
    social_cost,
    social_optimum_bruteforce,
    truthful_orders,
    truthfulness_audit,
)
from greenstock import allocation
from greenstock.allocation import (
    _AUDIT_CALL_BYTES,
    FEAS_EPS,
    MAX_AUDIT_CELLS,
    MAX_AUDIT_MATRIX_BYTES,
    _lambda_on_curve,
    _mu_on_curve,
    _thresholds,
)
from strategies import make_market, markets, order_rows


def reference_market(**kwargs):
    """lambda_bar_i = 0.5 i for i = 1..8, b = 2; mu0 and the prices as `make_market`'s."""
    return make_market([0.5 * i for i in range(1, 9)], **kwargs)


def scarce_market(rng, t_range=(0.4, 0.6), p2_range=(4.0, 9.0)):
    """Identical-b market whose capacity covers only t in t_range of the
    truthful demand; the planner-dominance regime of the extreme-point
    optimum (near full coverage, post-allocation re-optimization lets
    interior splits edge out extreme points)."""
    n = int(rng.integers(2, 9))
    b = float(rng.uniform(0.5, 5.0))
    lambda_bars = [float(rng.uniform(0.3, 4.0)) for _ in range(n)]
    p2 = float(rng.uniform(*p2_range))
    demand = _added_left_to_right(truthful_orders(make_market(lambda_bars, b, p2=p2)).orders)
    if demand <= 0.0:
        return None
    return make_market(lambda_bars, b, max(float(rng.uniform(*t_range)) * demand, 1e-3), p2=p2)


# -------------------------------------------------------- optimal demand

def test_optimal_demand_reference_point():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    mu, s, cost = optimal_demand(pr, 4.0, p=2.0, p1=1.0, p2=10.0)
    assert mu == pytest.approx(5.4823, abs=1e-4)
    assert s == pytest.approx(2.9646, abs=1e-4)
    assert cost == pytest.approx(2 * 2.9646 + 3 * 4.0, abs=1e-3)


def test_optimal_demand_idle_and_no_backlog():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    assert optimal_demand(pr, 0.0, 2.0, 1.0, 10.0) == (0.0, 0.0, 40.0)
    pr0 = BsProfile(lambda_bar=4.0, b=0.0, index=0)
    mu, s, _ = optimal_demand(pr0, 4.0, 2.0, 1.0, 10.0)
    assert mu == pytest.approx(4.0, abs=1e-12)
    assert s == 0.0
    with pytest.raises(ParameterError):
        optimal_demand(pr, 4.0, p=0.0, p1=1.0, p2=10.0)


def test_optimal_demand_admits_a_curve_rate_one_rounding_past_lambda_bar():
    """Inverted on the curve, mu_hat(lambda_bar) reads lambda_bar plus two ulps,
    3e-8 past lambda_bar = 7e7 and so past an absolute FEAS_EPS; the tolerance
    is relative there, and a rate beyond it is still refused."""
    pr = BsProfile(lambda_bar=7e7, b=5.0, index=0)
    lam = _lambda_on_curve(pr, _mu_on_curve(pr, pr.lambda_bar, 0.25), 0.25)
    assert lam > pr.lambda_bar + FEAS_EPS
    assert np.isfinite(optimal_demand(pr, lam, 0.25, 1.0, 10.0)).all()
    with pytest.raises(ParameterError, match="lam must lie in"):
        optimal_demand(pr, pr.lambda_bar * (1.0 + 2.0 * FEAS_EPS), 0.25, 1.0, 10.0)


def test_optimal_demand_matches_grid_refinement():
    """2-D refinement of p*mu + C_o|alpha=1 over (mu, s) finds the closed form."""
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    lam, p = 4.0, 2.0

    def bs_cost(mu, s):
        nu = (mu - lam) / lam
        if nu <= 0:
            return math.inf
        return p * mu + s - (1 - (pr.b + 1) * math.exp(-nu * s)) / nu

    mu_lo, mu_hi, s_lo, s_hi = lam + 1e-6, lam + 8.0, 1e-6, 12.0
    for _ in range(7):
        mus = np.linspace(mu_lo, mu_hi, 50)
        ss = np.linspace(s_lo, s_hi, 50)
        vals = np.array([[bs_cost(m, s) for s in ss] for m in mus])
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        dm, dsp = mus[1] - mus[0], ss[1] - ss[0]
        mu_lo, mu_hi = max(mus[i] - 2 * dm, lam + 1e-9), mus[i] + 2 * dm
        s_lo, s_hi = max(ss[j] - 2 * dsp, 1e-9), ss[j] + 2 * dsp
    mu_ref, s_ref = mus[i], ss[j]
    mu, s, _ = optimal_demand(pr, lam, p, 1.0, 10.0)
    assert mu == pytest.approx(mu_ref, abs=1e-3)
    assert s == pytest.approx(s_ref, abs=1e-3)


def test_optimal_demand_curve_identity():
    # s_hat * nu_hat = ln(1 + b) with nu_hat = (mu_hat - lam)/lam
    pr = BsProfile(lambda_bar=3.0, b=4.0, index=0)
    for lam in (0.5, 1.5, 3.0):
        mu, s, _ = optimal_demand(pr, lam, 2.0, 1.0, 10.0)
        nu = (mu - lam) / lam
        assert s * nu == pytest.approx(math.log1p(pr.b), abs=1e-9)


# ---------------------------------------------------------- break-even

def test_breakeven_reference_value():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    assert breakeven_lambda(pr, 2.0, 1.0, 10.0) == pytest.approx(
        8 * math.log(3.0) / 49.0, abs=1e-9)
    assert breakeven_lambda(pr, 2.0, 1.0, 10.0) == pytest.approx(0.179365, abs=1e-5)


def test_breakeven_matches_root_oracle():
    """lambda_hat solves min-cost(lam) = p2*lam, found by bisection."""
    pr = BsProfile(lambda_bar=50.0, b=2.0, index=0)
    p, p1, p2 = 2.0, 1.0, 10.0

    def excess(lam):
        _, _, cost = optimal_demand(
            BsProfile(lambda_bar=lam, b=pr.b, index=0), lam, p, p1, p2)
        return cost - p2 * lam

    lo, hi = 1e-9, 5.0
    assert excess(lo) > 0 and excess(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert breakeven_lambda(pr, p, p1, p2) == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_breakeven_zero_backlog_and_all_grid_signal():
    assert breakeven_lambda(BsProfile(lambda_bar=1.0, b=0.0, index=0),
                            2.0, 1.0, 10.0) == 0.0
    with pytest.raises(AllGridRegimeError):
        breakeven_lambda(BsProfile(lambda_bar=1.0, b=2.0, index=0), 2.0, 1.0, 3.0)
    # At b = 0 the break-even rate is 0, so the station orders its full demand.
    assert truthful_orders(make_market([1.5, 4.0], b=[0.0, 2.0])).orders[0] == 1.5


def test_breakeven_rate_reference_value():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    assert breakeven_rate(pr, 2.0, 1.0, 10.0) == pytest.approx(0.493254, abs=1e-5)


def test_truthful_orders_reference_market():
    market = reference_market()
    orders = truthful_orders(market).orders
    expected = [1.024074, 1.741152, 2.407722, 3.048147,
                3.671864, 4.283713, 4.886568, 5.482304]
    assert orders == pytest.approx(expected, abs=1e-5)
    assert sum(orders) == pytest.approx(26.5455, abs=1e-3)


# ------------------------------------------------------- proportional

def test_proportional_scales_under_scarcity():
    market = reference_market()
    orders = truthful_orders(market)
    result = proportional_allocation(market, orders)
    scale = 20.0 / sum(orders.orders)
    assert scale == pytest.approx(0.753422, abs=1e-5)
    for g, m in zip(result.grants, orders.orders):
        assert g == pytest.approx(scale * m, abs=1e-9)


def test_proportional_no_scarcity_grants_orders():
    market = reference_market(mu0=40.0)
    orders = truthful_orders(market)
    assert proportional_allocation(market, orders).grants == pytest.approx(
        orders.orders, abs=1e-12)


def test_proportional_single_large_order_capped():
    market = reference_market()
    orders = OrderVector(orders=(25.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    result = proportional_allocation(market, orders)
    assert result.grants[0] == pytest.approx(20.0, abs=1e-12)


def test_proportional_all_zero_orders():
    market = reference_market()
    result = proportional_allocation(market, OrderVector(orders=(0.0,) * 8))
    assert result.grants == (0.0,) * 8


def test_order_vector_rejects_negative_entries():
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            OrderVector(orders=(1.0, bad))
        with pytest.raises(ParameterError):
            proportional_allocation(reference_market(), np.full((2, 8), bad))
    with pytest.raises(ParameterError):
        proportional_allocation(reference_market(), OrderVector(orders=(1.0, 2.0)))
    with pytest.raises(ParameterError):
        proportional_allocation(reference_market(), np.ones((3, 2)))
    with pytest.raises(ParameterError):
        proportional_allocation(reference_market(), np.ones(8))


def _price_site(call, price):
    """Builds `call` at prices (p, p1, p2) = (2, 1, 10) with `price` replaced."""
    return lambda value: lambda: call(**{"p": 2.0, "p1": 1.0, "p2": 10.0, price: value})


_PR = BsProfile(lambda_bar=4.0, b=2.0, index=0)
_PRICED = {    # id prefix: a call that takes the three prices
    "": reference_market,
    "optimal_demand-": lambda **prices: optimal_demand(_PR, 1.0, **prices),
    "breakeven_lambda-": lambda **prices: breakeven_lambda(_PR, **prices),
    "breakeven_rate-": lambda **prices: breakeven_rate(_PR, **prices),
    "post_allocation_cost-": lambda **prices: post_allocation_cost(_PR, 1.0, **prices),
}
# Each range-checked input: a builder taking the value, and whether 0 is refused.
_RANGE_SITES = {
    "b": (lambda v: lambda: BsProfile(lambda_bar=1.0, b=v, index=0), False),
    "mu0": (lambda v: lambda: reference_market(mu0=v), True),
    "orders": (lambda v: lambda: OrderVector(orders=(1.0, v)), False),
    "span": (lambda v: lambda: DeviationGrid(span=v), True),
    **{prefix + price: (_price_site(call, price), price == "p")
       for prefix, call in _PRICED.items() for price in ("p", "p1", "p2")},
}
_BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -1.0, "zero": 0.0}
_OUT_OF_RANGE = {f"{site}-{kind}": build(value)
                 for site, (build, zero_refused) in _RANGE_SITES.items()
                 for kind, value in _BAD.items() if zero_refused or kind != "zero"}


@pytest.mark.parametrize("make", [
    lambda: BsProfile(lambda_bar=math.nan, b=2.0, index=0),
    lambda: BsProfile(lambda_bar=math.inf, b=2.0, index=0),
    lambda: BsProfile(lambda_bar=5e-324, b=2.0, index=0),
    lambda: BsProfile(lambda_bar=1e-308, b=2.0, index=0),
    lambda: DeviationGrid(n_points=1),
    lambda: DeviationGrid(n_points=200.5),
    lambda: DeviationGrid(n_scenarios=2.5),
    lambda: DeviationGrid(seed=math.nan),
    lambda: DeviationGrid(seed=-1),
    lambda: breakeven_lambda(_PR, 1.0, 0.0, 1.35e154),
    # Orders and deviation orders that overflow to inf, with no RuntimeWarning on the way.
    lambda: truthful_orders(reference_market(p=5e-324, p1=0.0, p2=1.0)),
    lambda: truthfulness_audit(reference_market(), adaptive_uniform_allocation,
                               DeviationGrid(n_points=5, n_scenarios=1, span=1e308)),
    *_OUT_OF_RANGE.values(),
], ids=["lambda_bar-nan", "lambda_bar-inf", "lambda_bar-subnormal", "lambda_bar-below-normal",
        "n_points-one", "n_points-fraction", "n_scenarios-fraction", "seed-nan", "seed-negative",
        "breakeven_lambda-gap-square-overflows", "truthful_orders-overflow",
        "audit-span-overflow", *_OUT_OF_RANGE])
def test_non_finite_or_out_of_range_inputs_rejected(make):
    with pytest.raises(ParameterError):
        make()


def test_audit_refuses_oversized_grids_before_allocating(deadline):
    market = reference_market()
    smallest_refused = MAX_AUDIT_MATRIX_BYTES // (8 * market.n)
    for n_points in (smallest_refused, 100_000_000):
        with deadline(1), pytest.raises(ParameterError, match="lower n_points"):
            truthfulness_audit(market, adaptive_uniform_allocation,
                               DeviationGrid(n_points=n_points))


def test_audit_work_bound_admits_large_markets_and_refuses_past_it(deadline):
    # n = 256 at the default grid is the largest audit the bound must admit.
    grid = DeviationGrid()
    assert 256**2 * (grid.n_points + 1) * (grid.n_scenarios + 1) <= MAX_AUDIT_CELLS
    market = reference_market()
    with deadline(1), pytest.raises(ParameterError, match="order cells"):
        truthfulness_audit(market, adaptive_uniform_allocation,
                           DeviationGrid(n_scenarios=100_000))


def test_audit_refuses_a_mechanism_without_a_matching_deviation_kernel():
    market, grid = reference_market(), DeviationGrid(n_points=5, n_scenarios=1)

    def bare(market, orders):
        return adaptive_uniform_allocation(market, orders)

    with pytest.raises(ParameterError, match="bare has no deviation kernel"):
        truthfulness_audit(market, bare, grid)

    # The kernel is found through functools.wraps, but the grants differ.
    @functools.wraps(adaptive_uniform_allocation)
    def impostor(market, orders):
        return proportional_allocation(market, orders)

    with pytest.raises(ParameterError, match="differ from its deviation kernel"):
        truthfulness_audit(market, impostor, grid)


# ----------------------------------------------------- pareto priority

def test_pareto_reference_grants():
    market = reference_market()
    result = pareto_priority_allocation(market, truthful_orders(market))
    # descending fill: the four largest in full, the fifth partial, rest zero
    assert result.grants[7] == pytest.approx(5.482304, abs=1e-5)
    assert result.grants[6] == pytest.approx(4.886568, abs=1e-5)
    assert result.grants[5] == pytest.approx(4.283713, abs=1e-5)
    assert result.grants[4] == pytest.approx(3.671864, abs=1e-5)
    assert result.grants[3] == pytest.approx(1.675551, abs=1e-5)
    assert result.grants[:3] == (0.0, 0.0, 0.0)
    assert not result.rejected   # 1.6756 clears the 0.4933 break-even rate


def test_pareto_no_scarcity_grants_everything():
    market = reference_market(mu0=30.0)
    orders = truthful_orders(market)
    assert pareto_priority_allocation(market, orders).grants == pytest.approx(
        orders.orders, abs=1e-12)


def test_pareto_rejects_below_breakeven_partial():
    market = reference_market(mu0=0.3)   # first partial grant 0.3 < 0.4933
    result = pareto_priority_allocation(market, truthful_orders(market))
    assert result.grants == (0.0,) * 8
    assert 7 in result.rejected          # largest order got the partial
    # A partial grant exactly at the break-even rate is kept.
    at_rate = breakeven_rate(market.profiles[7], market.p, market.p1, market.p2)
    result = pareto_priority_allocation(reference_market(mu0=at_rate), truthful_orders(market))
    assert result.grants[7] == at_rate and not result.rejected


# ---------------------------------------------------- adaptive uniform

def test_adaptive_reference_allocation():
    market = reference_market()
    result = adaptive_uniform_allocation(market, truthful_orders(market))
    assert result.n_hat == 5
    expected = [1.024074, 1.741152, 2.407722, 2.965411,
                2.965411, 2.965411, 2.965411, 2.965411]
    assert result.grants == pytest.approx(expected, abs=1e-5)
    assert not result.rejected
    assert sum(result.grants) == pytest.approx(20.0, abs=1e-9)


def test_adaptive_single_effective_bidder():
    market = reference_market()
    result = adaptive_uniform_allocation(
        market, OrderVector(orders=(25.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
    assert result.grants[0] == pytest.approx(20.0, abs=1e-12)


# Orders whose left-to-right sum is one ulp above mu0, though no uniform
# share fits them.
SCARCE_BY_ROUNDING = ([27239414.099999998, 18159609.4, 15778440.2], 61177463.699999996)


def test_adaptive_no_scarcity_grants_orders():
    market = reference_market(mu0=40.0)
    orders = truthful_orders(market)
    result = adaptive_uniform_allocation(market, orders)
    assert result.grants == pytest.approx(orders.orders, abs=1e-12)
    assert result.n_hat == 8

    orders, mu0 = SCARCE_BY_ROUNDING
    market, _, _ = _edge_case(orders, mu0, [])
    result = adaptive_uniform_allocation(market, OrderVector(tuple(orders)))
    assert all(g <= m for g, m in zip(result.grants, orders))
    assert sum(result.grants) <= mu0 + 4 * math.ulp(mu0)
    assert result.n_hat == 3


def test_adaptive_monotone_under_inflation():
    """Inflating one order never lifts another BS past its own order and
    never grows the inflater's grant while it sits in the uniform group."""
    market = reference_market()
    orders = truthful_orders(market)
    base = adaptive_uniform_allocation(market, orders)
    for i in range(8):
        for factor in (1.0, 1.2, 1.5, 1.8, 2.1, 2.4):
            mutated = list(orders.orders)
            mutated[i] *= factor
            result = adaptive_uniform_allocation(market, OrderVector(tuple(mutated)))
            for j in range(8):
                if j != i:
                    assert result.grants[j] <= orders.orders[j] + 1e-9
            if base.grants[i] < orders.orders[i] - 1e-9:   # uniform group member
                assert result.grants[i] <= base.grants[i] + 1e-9


# ------------------------------- batched kernels vs the scalar references
#
# The mechanisms, post_allocation_cost and the audit loop as they were
# written per order vector, before the (K, N) kernels; each kernel must
# reproduce them bit for bit.

def _added_left_to_right(values):
    """The floats added left to right, as sum() adds them before Python
    3.12; from 3.12 on, sum() compensates its rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


def _ref_descending(orders):
    return sorted(range(len(orders)), key=lambda i: (-orders[i], i))


def _ref_proportional(market, orders):
    m = orders.orders
    total = _added_left_to_right(m)
    if total <= 0.0:
        return AllocationResult(grants=tuple(0.0 for _ in m))
    scale = min(1.0, market.mu0 / total)
    return AllocationResult(grants=tuple(mi * scale for mi in m))


def _ref_pareto(market, orders):
    grants = [0.0] * market.n
    rejected = set()
    capacity = market.mu0
    for i in _ref_descending(orders.orders):
        g = min(orders.orders[i], capacity)
        capacity -= g
        grants[i] = g
        if 0.0 < g < orders.orders[i]:
            if g < breakeven_rate(market.profiles[i], market.p, market.p1, market.p2):
                grants[i] = 0.0
                rejected.add(i)
    return AllocationResult(grants=tuple(grants), rejected=frozenset(rejected))


def _ref_adaptive(market, orders):
    m = orders.orders
    order_idx = _ref_descending(m)
    sorted_m = [m[i] for i in order_idx]
    n = market.n
    grants_sorted = list(sorted_m)
    n_hat = n
    if _added_left_to_right(m) > market.mu0:
        tail = 0.0
        for k in range(n, 0, -1):
            u = (market.mu0 - tail) / k
            if u <= sorted_m[k - 1] + 1e-9:
                n_hat = k
                grants_sorted = [u] * k + sorted_m[k:]
                break
            tail += sorted_m[k - 1]
    grants = [0.0] * n
    for pos, i in enumerate(order_idx):
        grants[i] = grants_sorted[pos]
    rejected = set()
    for i, g in enumerate(grants):
        if 0.0 < g <= breakeven_rate(market.profiles[i], market.p, market.p1, market.p2):
            grants[i] = 0.0
            rejected.add(i)
    return AllocationResult(grants=tuple(grants), n_hat=n_hat, rejected=frozenset(rejected))


def _ref_cost(profile, a, p, p1, p2):
    if a == 0.0:
        return p2 * profile.lambda_bar
    gamma = math.log1p(profile.b)
    lam = a - math.sqrt(a * gamma / (p2 - p1)) if p2 > p1 else 0.0
    lam = min(max(lam, 0.0), min(profile.lambda_bar, a * (1.0 - 1e-9)))
    cost = p * a + p1 * lam + p2 * (profile.lambda_bar - lam)
    if lam > 0.0:
        # lam = a only at a subnormal grant.
        cost += lam * gamma / (a - lam if lam < a else 1.0)
    return cost


def _ref_audit(market, mechanism, grid):
    m_star = truthful_orders(market).orders
    rng = np.random.default_rng(grid.seed)
    scenarios = [m_star]
    for _ in range(grid.n_scenarios):
        factors = rng.uniform(0.5, 1.5, size=market.n)
        scenarios.append(tuple(ms * f for ms, f in zip(m_star, factors)))

    def bs_cost(i, alloc):
        return _ref_cost(market.profiles[i], alloc.grants[i], market.p, market.p1, market.p2)

    improvements = [0.0] * market.n
    for scen in scenarios:
        for i, pr in enumerate(market.profiles):
            base_orders = list(scen)
            base_orders[i] = m_star[i]
            base = bs_cost(i, mechanism(market, OrderVector(tuple(base_orders))))
            scale = m_star[i] if m_star[i] > 0 else optimal_demand(
                pr, pr.lambda_bar, market.p, market.p1, market.p2)[0]
            for k in range(grid.n_points):
                base_orders[i] = grid.span * scale * k / (grid.n_points - 1)
                gain = base - bs_cost(i, mechanism(market, OrderVector(tuple(base_orders))))
                if gain > improvements[i]:
                    improvements[i] = gain
    return improvements


def _block_audit(market, mechanism, grid):
    """truthfulness_audit's improvements as computed before the deviation
    kernels: each deviator's (n_points + 1, N) block of one scenario (its
    truthful row, then the grid rows) stacked into mechanism calls of at
    most 128 KiB, and every grant read from the mechanism's output."""
    n, rows = market.n, grid.n_points + 1
    m_star = np.array(truthful_orders(market).orders)
    rng = np.random.default_rng(grid.seed)
    scenarios = [m_star]
    for _ in range(grid.n_scenarios):
        scenarios.append(m_star * rng.uniform(0.5, 1.5, size=n))
    columns = np.empty((n, rows))
    for i, pr in enumerate(market.profiles):
        scale = m_star[i] if m_star[i] > 0 else _mu_on_curve(pr, pr.lambda_bar, market.p)
        columns[i, 0] = m_star[i]
        columns[i, 1:] = grid.span * scale * np.arange(grid.n_points) / (grid.n_points - 1)
    per_call = max(1, 2**17 // (rows * n * 8))
    own = np.empty((n, len(scenarios), rows))
    for k, scen in enumerate(scenarios):
        for first in range(0, n, per_call):
            devs = np.arange(first, min(first + per_call, n))
            block = np.arange(len(devs))
            orders = np.tile(scen, (len(devs) * rows, 1))
            orders.reshape(len(devs), rows, n)[block, :, devs] = columns[devs]
            grants = mechanism(market, orders).reshape(len(devs), rows, n)
            own[devs, k] = grants[block, :, devs]
    improvements = []
    for i, pr in enumerate(market.profiles):
        _, cost = post_allocation_cost(pr, own[i], market.p, market.p1, market.p2)
        gains = np.max(cost[:, :1] - cost[:, 1:], axis=1)
        improvements.append(max([0.0, *gains.tolist()]))
    return improvements


REFERENCES = {
    proportional_allocation: _ref_proportional,
    pareto_priority_allocation: _ref_pareto,
    adaptive_uniform_allocation: _ref_adaptive,
}


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def markets_with_orders():
    """A market on the market domain and a (K, N) order matrix, K 1-6."""
    return markets().flatmap(lambda market: st.tuples(st.just(market), order_rows(market.n, 6)))


@settings(max_examples=100, deadline=None)
@given(markets_with_orders())
# Reference-market rows (mu0 = 20) whose orders fill mu0 exactly, whose
# largest order alone exceeds it, and which order nothing.
@example((reference_market(), np.array([[5.0, 4.0, 3.0, 3.0, 2.0, 1.5, 1.0, 0.5]])))
@example((reference_market(), np.array([[0.5, 25.0, 1.0, 0.0, 2.0, 3.0, 0.0, 1.0]])))
@example((reference_market(), np.zeros((1, 8))))
def test_kernels_match_scalar_references_on_the_market_domain(case):
    market, orders = case
    for mechanism, reference in REFERENCES.items():
        grants = mechanism(market, orders)
        assert grants.shape == orders.shape
        for row, g in zip(orders, grants):
            vector = OrderVector(tuple(row.tolist()))
            one, expected = mechanism(market, vector), reference(market, vector)
            assert _bits(one.grants) == _bits(g) == _bits(expected.grants)
            assert (one.n_hat, one.rejected) == (expected.n_hat, expected.rejected)
            assert np.all(g >= 0.0) and np.all(g <= row + 1e-9)
            assert sum(g.tolist()) <= market.mu0 + 1e-9

    # Inflating an order rationed to an accepted uniform share never raises
    # that BS's grant: one matrix row per inflated BS.
    adaptive = adaptive_uniform_allocation(market, orders)
    for row, g in zip(orders, adaptive):
        inflated = np.tile(row, (market.n, 1))
        inflated[np.diag_indices(market.n)] *= 1.7
        after = np.diag(adaptive_uniform_allocation(market, inflated))
        rationed = (0.0 < g) & (g < row - 1e-9)
        assert np.all(after[rationed] <= g[rationed] + 1e-9)

    pr, column = market.profiles[0], adaptive[:, 0]
    _, costs = post_allocation_cost(pr, column, market.p, market.p1, market.p2)
    assert _bits(costs) == _bits([_ref_cost(pr, a, market.p, market.p1, market.p2)
                                  for a in column.tolist()])


def test_audit_matches_scalar_reference_loop():
    """Bit-equal improvements on the reference market and one with an idle
    (below-break-even) and a zero-backlog BS."""
    grid = DeviationGrid(n_points=40, n_scenarios=3, seed=5)
    for market in (reference_market(), make_market([0.05, 1.0, 2.5], b=[2.0, 0.0, 3.0], mu0=2.0)):
        for mechanism, reference in REFERENCES.items():
            report = truthfulness_audit(market, mechanism, grid)
            expected = _ref_audit(market, reference, grid)
            assert _bits(report.improvements) == _bits(expected)
            assert report.truthful_dominant == (max(expected) <= 1e-9)


@st.composite
def deviation_cases(draw):
    """A market on the market domain; 1-4 opponent scenarios; deviation orders
    that are 0, equal to an opponent's order (at indices on both sides of the
    deviator's) or neither."""
    market = draw(markets())
    scen = draw(order_rows(market.n, 4))
    deviation = st.one_of(st.just(0.0), st.sampled_from(scen.ravel().tolist()),
                          st.floats(0.0, 30.0))
    width = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(st.lists(deviation, min_size=width, max_size=width),
                               min_size=market.n, max_size=market.n)))
    return market, scen, x


def _edge_case(orders, mu0, x):
    """Zero-backlog stations, so that no grant is rejected."""
    market = make_market([1.0] * len(orders), b=0.0, mu0=mu0, p=1.0, p1=0.0, p2=10.0)
    return market, np.array([orders]), np.array(x)


@settings(max_examples=150, deadline=None)
@given(deviation_cases())
# The deviator's uniform share equals its order + FEAS_EPS exactly, so it fits.
@example(_edge_case([5.0, 0.0], 2.0 * (1.0 + FEAS_EPS), [[5.0], [1.0]]))
# The row is scarce by its left-to-right sum, yet no uniform share fits, so
# every station keeps its order.
@example(_edge_case(*SCARCE_BY_ROUNDING, [[o] for o in SCARCE_BY_ROUNDING[0]]))
def test_deviation_kernels_match_the_mechanisms_bit_for_bit(case):
    market, scen, x = case
    n, (g, t) = market.n, (len(scen), x.shape[1])
    diag = np.arange(n)
    # rows[i, k, t]: scenario k with entry i set to x[i, t].
    rows = np.broadcast_to(scen[None, :, None, :], (n, g, t, n)).copy()
    rows[diag, :, :, diag] = x[:, None, :]
    for mechanism in REFERENCES:
        kernel = mechanism._deviation_grants(market, scen, x, _thresholds(market))
        grants = mechanism(market, rows.reshape(-1, n)).reshape(n, g, t, n)
        assert _bits(kernel) == _bits(grants[diag, :, :, diag])


@pytest.mark.parametrize("n", [32, 128])
def test_audit_matches_the_block_audit_on_large_markets(n):
    """Tied lambda_bar and b, b = 0 and below-break-even stations, past the
    N <= 16 of the hypothesis domains."""
    market = make_market([0.05 if i % 11 == 3 else 0.25 * (1 + i % 13) for i in range(n)],
                         b=[0.0 if i % 7 == 2 else 1.0 + i % 2 for i in range(n)], mu0=0.2 * n)
    grid = DeviationGrid(n_points=6, n_scenarios=2, seed=n)
    for mechanism in REFERENCES:
        report = truthfulness_audit(market, mechanism, grid)
        assert _bits(report.improvements) == _bits(_block_audit(market, mechanism, grid))


@st.composite
def audit_cases(draw):
    """A market on the market domain, a small grid, and a kernel-call budget
    from under one scenario's orders to all of them."""
    market = draw(markets())
    grid = DeviationGrid(n_points=draw(st.integers(2, 8)), span=draw(st.floats(0.1, 4.0)),
                         n_scenarios=draw(st.integers(0, 3)), seed=draw(st.integers(0, 2**32 - 1)))
    all_bytes = (grid.n_scenarios + 2) * (grid.n_points + 1) * market.n * 8
    return market, grid, draw(st.integers(1, all_bytes))


@settings(max_examples=40, deadline=None)
@given(audit_cases())
def test_batched_audit_matches_scalar_reference_on_the_market_domain(case):
    """Scenario groups from under one scenario to all of them, each costed
    in one call."""
    market, grid, budget = case
    with mock.patch.object(allocation, "_AUDIT_CALL_BYTES", budget):
        for mechanism, reference in REFERENCES.items():
            report = truthfulness_audit(market, mechanism, grid)
            expected = _ref_audit(market, reference, grid)
            assert _bits(report.improvements) == _bits(expected)
            assert report.max_improvement == max(expected)


@pytest.mark.parametrize("n, n_points, n_scenarios, calls", [
    (8, 200, 20, 3),        # ten scenarios a group
    (32, 50, 5, 1),         # every scenario in one group
    (8, 3000, 1, 2),        # one scenario is past the budget: one a group
])
def test_audit_calls_stay_within_the_budget(n, n_points, n_scenarios, calls):
    """One mechanism call a scenario group, on every deviator's truthful
    row, and one post_allocation_cost call a scenario group."""
    market = make_market([0.5 * (i + 1) for i in range(n)], mu0=2.5 * n)
    grid = DeviationGrid(n_points=n_points, n_scenarios=n_scenarios, seed=3)
    scenario_bytes = (n_points + 1) * n * 8
    shapes = []

    # As perfbench's tracer wraps it: functools.wraps carries the kernel.
    @functools.wraps(adaptive_uniform_allocation)
    def recording(market, orders):
        shapes.append(orders.shape)
        return adaptive_uniform_allocation(market, orders)

    with mock.patch.object(allocation, "post_allocation_cost",
                           wraps=allocation.post_allocation_cost) as costs:
        report = truthfulness_audit(market, recording, grid)
    per_group = max(1, _AUDIT_CALL_BYTES // scenario_bytes)
    assert len(shapes) == calls == -(-(n_scenarios + 1) // per_group)
    assert costs.call_count == calls
    for k, width in shapes:
        assert width == n and k % n == 0
        assert k // n * scenario_bytes <= _AUDIT_CALL_BYTES or k == n
    plain = truthfulness_audit(market, adaptive_uniform_allocation, grid)
    assert _bits(report.improvements) == _bits(plain.improvements)
    assert report.mechanism == plain.mechanism == "adaptive_uniform_allocation"


# ------------------------------------------------- post-allocation cost

def test_post_allocation_zero_grant():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    assert post_allocation_cost(pr, 0.0, 2.0, 1.0, 10.0) == (0.0, 40.0)


def test_post_allocation_reference_point():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    lam, cost = post_allocation_cost(pr, 2.9654, 2.0, 1.0, 10.0)
    assert lam == pytest.approx(2.363752, abs=1e-5)
    # fine-grid oracle over lambda at the same granted rate
    grid = np.linspace(0.0, min(4.0, 2.9654 * (1 - 1e-9)), 300_001)
    gamma = math.log(3.0)
    vals = (2.0 * 2.9654 + grid + 10.0 * (4.0 - grid)
            + np.where(grid > 0, grid * gamma / (2.9654 - grid), 0.0))
    k = int(np.argmin(vals))
    assert lam == pytest.approx(grid[k], abs=1e-4)
    assert cost == pytest.approx(float(vals[k]), abs=1e-6)


def test_post_allocation_full_demand_recovers_minimum():
    pr = BsProfile(lambda_bar=4.0, b=2.0, index=0)
    mu, _, best = optimal_demand(pr, 4.0, 2.0, 1.0, 10.0)
    lam, cost = post_allocation_cost(pr, mu, 2.0, 1.0, 10.0)
    assert lam == pytest.approx(4.0, abs=1e-9)
    assert cost == pytest.approx(best, abs=1e-9)


# ------------------------------------------------------- social metrics

def test_social_cost_all_grid():
    market = reference_market()
    assert social_cost(market, [0.0] * 8) == pytest.approx(180.0, abs=1e-9)


def test_social_cost_mechanism_ordering():
    market = reference_market()
    orders = truthful_orders(market)
    pareto = social_cost(market, pareto_priority_allocation(market, orders))
    uniform = social_cost(market, adaptive_uniform_allocation(market, orders))
    prop = social_cost(market, proportional_allocation(market, orders))
    zero = social_cost(market, [0.0] * 8)
    assert pareto <= uniform <= zero
    assert pareto <= prop


def test_bruteforce_reference_market_agrees_with_pareto():
    market = reference_market()
    grants, cost = social_optimum_bruteforce(market)
    pareto_cost = social_cost(market, pareto_priority_allocation(
        market, truthful_orders(market)))
    assert cost == pytest.approx(pareto_cost, abs=1e-9)
    assert sum(grants) <= market.mu0 + 1e-9


def test_bruteforce_abundant_capacity_serves_everyone():
    market = reference_market(mu0=30.0)
    grants, _ = social_optimum_bruteforce(market)
    orders = truthful_orders(market).orders
    assert grants == pytest.approx(orders, abs=1e-6)


def test_bruteforce_symmetric_pair_prefers_one_served():
    """With capacity for exactly one demand, an even split loses: the
    interior point the KKT contradiction rules out is strictly worse."""
    mu_hat = truthful_orders(make_market([2.0, 2.0])).orders[0]
    market = make_market([2.0, 2.0], mu0=mu_hat)
    grants, cost = social_optimum_bruteforce(market)
    assert sorted(grants) == pytest.approx([0.0, mu_hat], abs=1e-9)
    split = social_cost(market, [mu_hat / 2, mu_hat / 2])
    assert cost < split - 1e-6


def test_bruteforce_refuses_large_markets():
    with pytest.raises(ParameterError):
        social_optimum_bruteforce(make_market([1.0] * 13, b=1.0, mu0=5.0))


def _ref_bruteforce(market):
    """social_optimum_bruteforce's rule as a loop over every mask and
    residual taker: of the extreme points within 1e-9 of the least planner
    value, in mask order with full service before each residual taker, the
    first within 1e-12 of their least social_cost wins.  Every value is a
    Python float, so that a repr compares values, not types."""
    n = market.n
    p, p1, p2 = market.p, market.p1, market.p2
    full_rate = [float(_mu_on_curve(pr, pr.lambda_bar, p)) for pr in market.profiles]
    full_cost = [float(optimal_demand(pr, pr.lambda_bar, p, p1, p2)[2])
                 for pr in market.profiles]
    grid_cost = [p2 * pr.lambda_bar for pr in market.profiles]

    points = []
    for mask in range(1 << n):
        used = 0.0
        value = 0.0
        for i in range(n):
            if mask >> i & 1:
                used += full_rate[i]
                value += full_cost[i]
            else:
                value += grid_cost[i]
        if used > market.mu0 + FEAS_EPS:
            continue
        grants = tuple(full_rate[i] if mask >> i & 1 else 0.0 for i in range(n))
        points.append((value, grants))
        residual = market.mu0 - used
        if residual <= FEAS_EPS:
            continue
        for j in range(n):
            if mask >> j & 1 or residual >= full_rate[j]:
                continue
            lam_j = float(_lambda_on_curve(market.profiles[j], residual, p))
            cand = (value - grid_cost[j]
                    + float(optimal_demand(market.profiles[j], lam_j, p, p1, p2)[2]))
            points.append((cand, grants[:j] + (residual,) + grants[j + 1:]))
    least = min(value for value, _ in points)
    candidates = [(grants, social_cost(market, grants))
                  for value, grants in points if value <= least + 1e-9]
    best = min(cost for _, cost in candidates)
    return next((grants, cost) for grants, cost in candidates if cost <= best + 1e-12)


@settings(max_examples=60, deadline=None)
# mu0 from a sliver of the full-service demand to well past it.
@given(markets(max_n=12, mu0_share=st.floats(0.0, 1.5)))
def test_bruteforce_matches_the_full_mask_loop(market):
    assert repr(social_optimum_bruteforce(market)) == repr(_ref_bruteforce(market))


def test_bruteforce_costs_the_twelve_station_market_in_one_call():
    """The planner's social_cost calls at the 12-station benchmark market,
    the count perfbench's traced audit reports."""
    market = make_market([0.5 * i for i in range(1, 13)], mu0=30.0)
    with mock.patch.object(allocation, "social_cost", wraps=allocation.social_cost) as calls:
        social_optimum_bruteforce(market)
    assert calls.call_count == 1


def test_bruteforce_costs_a_later_mask_within_the_tie_tolerance():
    """Serving the second station fully costs 7e-12 more than serving the
    first: far more than rounding, within the 1e-9 candidate window.  Both
    masks serving one station fully, the other taking the residual, are
    the candidates."""
    market = make_market([2.0, 2.0 - 1e-11], mu0=5.0)
    with mock.patch.object(allocation, "social_cost", wraps=allocation.social_cost) as calls:
        result = social_optimum_bruteforce(market)
    (_, candidates), = (call.args for call in calls.call_args_list)
    full = [_mu_on_curve(pr, pr.lambda_bar, market.p) for pr in market.profiles]
    assert candidates.tolist() == [[full[0], 5.0 - full[0]], [5.0 - full[1], full[1]]]
    assert repr(result) == repr(_ref_bruteforce(market))


def test_bruteforce_takes_a_residual_whose_curve_rate_rounds_past_lambda_bar():
    """mu0 is the two full rates' sum, so serving station 0 leaves station 1
    a residual one rounding below its full rate.  Inverted on the curve it
    reads 1.5e-8 past lambda_bar = 1.2e8, more than FEAS_EPS; the planner
    still costs that point and returns it."""
    full = truthful_orders(make_market([7e7, 1.2e8])).orders
    market = make_market([7e7, 1.2e8], mu0=full[0] + full[1])
    residual = market.mu0 - full[0]
    assert residual < full[1]
    assert _lambda_on_curve(market.profiles[1], residual, 2.0) > 1.2e8 + FEAS_EPS
    grants, cost = social_optimum_bruteforce(market)
    assert grants == (full[0], residual)
    assert cost == social_cost(market, grants)


@settings(max_examples=100, deadline=None)
@given(markets_with_orders())
# A subnormal grant, which 1 - FEAS_EPS cannot lower, at zero backlog cost.
@example(_edge_case([0.0, 5e-324], 1.0, [])[:2])
def test_social_cost_rows_match_the_one_row_calls(case):
    """Each row of a (K, N) call is bit-equal to its own call and to its
    stations' costs added left to right; one row over capacity is refused."""
    market, orders = case
    grants = np.concatenate([mechanism(market, orders) for mechanism in REFERENCES])
    costs = social_cost(market, grants)
    assert costs.shape == (len(grants),)
    for row, cost in zip(grants.tolist(), costs.tolist()):
        expected = _added_left_to_right(
            _ref_cost(pr, a, market.p, market.p1, market.p2)
            for pr, a in zip(market.profiles, row))
        assert _bits([social_cost(market, row)]) == _bits([cost]) == _bits([expected])
    over = grants.copy()
    over[-1, 0] = market.mu0 + 1e-3
    with pytest.raises(ParameterError):
        social_cost(market, over)


@settings(max_examples=100, deadline=None)
@given(markets_with_orders(), st.integers(1, 4))
def test_station_calls_match_the_one_profile_calls(case, width):
    """A market's lambda_bar and gamma are its profiles' floats, bit for
    bit, in read-only arrays that leave equality and hashing to the five
    fields.  post_allocation_cost over a market costs station j at
    [..., j] of (K, N) and (G, T, N) rates, bit-equal to its one-profile
    call; breakeven_lambda, breakeven_rate, optimal_demand and
    truthful_orders over the market are bit-equal to their per-station
    scalars."""
    market, orders = case
    prices = market.p, market.p1, market.p2
    assert _bits(market.lambda_bar) == _bits([pr.lambda_bar for pr in market.profiles])
    assert _bits(market.gamma) == _bits([math.log1p(pr.b) for pr in market.profiles])
    assert not market.lambda_bar.flags.writeable and not market.gamma.flags.writeable
    twin = Market(profiles=market.profiles, mu0=market.mu0, p=market.p, p1=market.p1,
                  p2=market.p2)
    assert twin == market and hash(twin) == hash(market)
    grants = adaptive_uniform_allocation(market, orders)
    stacked = np.stack([orders * (0.5 * t) for t in range(width)], axis=1)
    for rates in (orders, grants, stacked):
        lam, cost = post_allocation_cost(market, rates, *prices)
        assert lam.shape == cost.shape == rates.shape
        for j, pr in enumerate(market.profiles):
            one_lam, one_cost = post_allocation_cost(pr, rates[..., j], *prices)
            assert _bits(lam[..., j]) == _bits(one_lam)
            assert _bits(cost[..., j]) == _bits(one_cost)
    for breakeven in (breakeven_lambda, breakeven_rate):
        assert _bits(breakeven(market, *prices)) == _bits(
            [breakeven(pr, *prices) for pr in market.profiles])
    for column, one in zip(optimal_demand(market, market.lambda_bar, *prices),
                           zip(*[optimal_demand(pr, pr.lambda_bar, *prices)
                                 for pr in market.profiles])):
        assert _bits(column) == _bits(one)
    assert _bits(truthful_orders(market).orders) == _bits([
        math.sqrt(pr.lambda_bar * math.log1p(pr.b) / market.p) + pr.lambda_bar
        if pr.lambda_bar >= breakeven_lambda(pr, *prices) else 0.0
        for pr in market.profiles])


def test_post_allocation_cost_refuses_a_last_axis_other_than_the_stations():
    market = reference_market()
    for rates in (2.0, np.ones(market.n - 1), np.ones((market.n, 3)),
                  np.ones((2, 3, market.n + 1))):
        with pytest.raises(ParameterError, match="last axis"):
            post_allocation_cost(market, rates, market.p, market.p1, market.p2)


def test_bruteforce_beats_proportional_with_strict_gap_somewhere():
    """Scarce heterogeneous markets: proportional never beats the planner
    optimum and loses strictly on at least one instance."""
    rng = np.random.default_rng(77)
    strict_gap = False
    checked = 0
    for _ in range(25):
        market = scarce_market(rng)
        if market is None:
            continue
        orders = truthful_orders(market)
        if sum(orders.orders) <= market.mu0:
            continue
        checked += 1
        prop = social_cost(market, proportional_allocation(market, orders))
        _, brute = social_optimum_bruteforce(market)
        assert prop >= brute - 1e-9, f"proportional {prop} beat planner {brute}"
        if prop > brute + 1e-6:
            strict_gap = True
    assert checked >= 10
    assert strict_gap, "no instance showed a strict proportional gap"


def test_bruteforce_agrees_with_pareto_when_nothing_rejected():
    """Greedy priority matches the extreme-point optimum when every
    partial grant clears break-even (identical backlog costs)."""
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(25):
        market = scarce_market(rng)
        if market is None:
            continue
        orders = truthful_orders(market)
        result = pareto_priority_allocation(market, orders)
        if result.rejected or sum(orders.orders) <= market.mu0:
            continue
        checked += 1
        pareto_cost = social_cost(market, result)
        _, brute = social_optimum_bruteforce(market)
        assert brute == pytest.approx(pareto_cost, abs=1e-6), (
            f"greedy {pareto_cost} vs enumeration {brute}")
    assert checked >= 10


# -------------------------------------------------------------- audits

def test_adaptive_audit_truthful_dominant():
    market = reference_market()
    report = truthfulness_audit(
        market, adaptive_uniform_allocation,
        DeviationGrid(n_points=80, n_scenarios=5, seed=1))
    assert report.truthful_dominant
    assert report.max_improvement <= 1e-9


def test_pareto_audit_finds_profitable_inflation():
    market = reference_market()
    report = truthfulness_audit(
        market, pareto_priority_allocation,
        DeviationGrid(n_points=80, n_scenarios=5, seed=1))
    assert not report.truthful_dominant
    assert report.max_improvement > 1e-3


def test_every_mechanism_truthful_without_scarcity():
    # Capacity must cover every audited scenario (deviations up to 2.5x and
    # opponent perturbations up to 1.5x), otherwise an inflating opponent
    # manufactures scarcity and proportional rationing kicks in.
    demand = sum(truthful_orders(make_market([2.0, 1.0])).orders)
    market = make_market([2.0, 1.0], mu0=2.5 * demand + 1.0)
    grid = DeviationGrid(n_points=60, n_scenarios=4, seed=9)
    for mech in (proportional_allocation, pareto_priority_allocation,
                 adaptive_uniform_allocation):
        report = truthfulness_audit(market, mech, grid)
        assert report.truthful_dominant, f"{mech.__name__} failed without scarcity"


@settings(max_examples=60, deadline=None)
@given(markets(), st.integers(0, (1 << 16) - 1))
def test_adaptive_truthful_across_random_markets(market, seed):
    """Dominance holds across the market domain: capacity scarce or not, tied
    stations, b = 0 and below-break-even stations."""
    report = truthfulness_audit(market, adaptive_uniform_allocation,
                                DeviationGrid(n_points=50, n_scenarios=3, seed=seed))
    assert report.truthful_dominant, f"improvement {report.max_improvement} on {market}"
