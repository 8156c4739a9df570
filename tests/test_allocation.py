"""Multi-BS capacity allocation: demands, mechanisms, optimum and audits.

The reference market is the 8-station scenario (mu0=20, p=2, p1=1, p2=10,
b=2, lambda_bar_i = 0.5 i) whose hand-executable numbers anchor every
mechanism; fuzz checks draw random markets from seeded rngs.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    MAX_AUDIT_MATRIX_BYTES,
    _lambda_on_curve,
    _mu_on_curve,
)


def reference_market(mu0=20.0):
    profiles = tuple(BsProfile(lambda_bar=0.5 * i, b=2.0, index=i - 1)
                     for i in range(1, 9))
    return Market(profiles=profiles, mu0=mu0, p=2.0, p1=1.0, p2=10.0)


def random_market(rng, n=None, scarcity=None, same_b=False):
    n = n if n is not None else int(rng.integers(2, 9))
    b = rng.uniform(0.5, 5.0)
    profiles = tuple(
        BsProfile(lambda_bar=float(rng.uniform(0.3, 4.0)),
                  b=b if same_b else float(rng.uniform(0.5, 5.0)),
                  index=i)
        for i in range(n))
    p, p1 = 2.0, 1.0
    p2 = float(rng.uniform(p1 + p + 1.0, 12.0))
    demand = sum(
        optimal_demand(pr, pr.lambda_bar, p, p1, p2)[0] for pr in profiles)
    frac = scarcity if scarcity is not None else float(rng.uniform(0.4, 1.4))
    return Market(profiles=profiles, mu0=max(frac * demand, 1e-3), p=p, p1=p1, p2=p2)


def scarce_market(rng, t_range=(0.4, 0.6), p2_range=(4.0, 9.0)):
    """Identical-b market whose capacity covers only t in t_range of the
    truthful demand; the planner-dominance regime of the extreme-point
    optimum (near full coverage, post-allocation re-optimization lets
    interior splits edge out extreme points)."""
    n = int(rng.integers(2, 9))
    b = float(rng.uniform(0.5, 5.0))
    profiles = tuple(BsProfile(lambda_bar=float(rng.uniform(0.3, 4.0)), b=b, index=i)
                     for i in range(n))
    p, p1 = 2.0, 1.0
    p2 = float(rng.uniform(*p2_range))
    demand = 0.0
    for pr in profiles:
        if pr.lambda_bar >= breakeven_lambda(pr, p, p1, p2):
            demand += optimal_demand(pr, pr.lambda_bar, p, p1, p2)[0]
    if demand <= 0.0:
        return None
    mu0 = max(float(rng.uniform(*t_range)) * demand, 1e-3)
    return Market(profiles=profiles, mu0=mu0, p=p, p1=p1, p2=p2)


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


@pytest.mark.parametrize("make", [
    lambda: BsProfile(lambda_bar=math.nan, b=2.0, index=0),
    lambda: BsProfile(lambda_bar=math.inf, b=2.0, index=0),
    lambda: BsProfile(lambda_bar=1.0, b=math.nan, index=0),
    lambda: BsProfile(lambda_bar=1.0, b=math.inf, index=0),
    lambda: reference_market(mu0=math.nan),
    lambda: reference_market(mu0=math.inf),
    lambda: Market(profiles=reference_market().profiles, mu0=20.0, p=math.nan, p1=1.0, p2=10.0),
    lambda: Market(profiles=reference_market().profiles, mu0=20.0, p=2.0, p1=math.nan, p2=10.0),
    lambda: Market(profiles=reference_market().profiles, mu0=20.0, p=2.0, p1=1.0, p2=math.inf),
    lambda: DeviationGrid(span=math.nan),
    lambda: DeviationGrid(span=0.0),
    lambda: DeviationGrid(span=math.inf),
], ids=["lambda_bar-nan", "lambda_bar-inf", "b-nan", "b-inf", "mu0-nan", "mu0-inf",
        "p-nan", "p1-nan", "p2-inf", "span-nan", "span-zero", "span-inf"])
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


def test_adaptive_no_scarcity_grants_orders():
    market = reference_market(mu0=40.0)
    orders = truthful_orders(market)
    result = adaptive_uniform_allocation(market, orders)
    assert result.grants == pytest.approx(orders.orders, abs=1e-12)
    assert result.n_hat == 8


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


def test_mechanisms_always_feasible():
    """1000 random markets/orders: sum(g) <= mu0 and g_i <= m_i."""
    rng = np.random.default_rng(404)
    for _ in range(1000):
        market = random_market(rng)
        mechanism = (proportional_allocation, pareto_priority_allocation,
                     adaptive_uniform_allocation)[int(rng.integers(0, 3))]
        orders = OrderVector(tuple(
            float(rng.uniform(0.0, 2.0) * pr.lambda_bar) for pr in market.profiles))
        result = mechanism(market, orders)
        assert sum(result.grants) <= market.mu0 + 1e-9
        for g, m in zip(result.grants, orders.orders):
            assert g <= m + 1e-9
            assert g >= 0.0


# ------------------------------- batched kernels vs the scalar references
#
# The mechanisms, post_allocation_cost and the audit loop as they were
# written per order vector, before the (K, N) kernels; each kernel must
# reproduce them bit for bit.

def _ref_descending(orders):
    return sorted(range(len(orders)), key=lambda i: (-orders[i], i))


def _ref_proportional(market, orders):
    m = orders.orders
    total = sum(m)
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
    if sum(m) > market.mu0:
        tail = 0.0
        n_hat = 1
        uniform = market.mu0
        for k in range(n, 0, -1):
            u = (market.mu0 - tail) / k
            if u <= sorted_m[k - 1] + 1e-9:
                n_hat, uniform = k, u
                break
            tail += sorted_m[k - 1]
        grants_sorted = [uniform] * n_hat + sorted_m[n_hat:]
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
        cost += lam * gamma / (a - lam)
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


REFERENCES = {
    proportional_allocation: _ref_proportional,
    pareto_priority_allocation: _ref_pareto,
    adaptive_uniform_allocation: _ref_adaptive,
}


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def markets_with_orders(draw):
    """A market anywhere in the documented domain (N 2-16, p2 > p1 + p) and
    a (K, N) order matrix with zeros and ties."""
    n = draw(st.integers(2, 16))
    positive = st.floats(0.05, 20.0)
    profiles = tuple(BsProfile(lambda_bar=draw(positive), b=draw(st.floats(0.0, 10.0)), index=i)
                     for i in range(n))
    p, p1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0))
    market = Market(profiles=profiles, mu0=draw(st.floats(0.01, 100.0)), p=p, p1=p1,
                    p2=p1 + p + draw(st.floats(0.01, 20.0)))
    pool = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3))
    entry = st.one_of(st.just(0.0), st.sampled_from(pool), st.floats(0.0, 30.0))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    return market, np.array(rows)


@settings(max_examples=100, deadline=None)
@given(markets_with_orders())
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
    """Bit-equal improvements on the reference market, one with an idle
    (below-break-even) and a zero-backlog BS, and random markets."""
    rng = np.random.default_rng(31)
    edge = (BsProfile(lambda_bar=0.05, b=2.0, index=0),
            BsProfile(lambda_bar=1.0, b=0.0, index=1),
            BsProfile(lambda_bar=2.5, b=3.0, index=2))
    markets = [reference_market(),
               Market(profiles=edge, mu0=2.0, p=2.0, p1=1.0, p2=10.0),
               random_market(rng), random_market(rng, n=5)]
    grid = DeviationGrid(n_points=40, n_scenarios=3, seed=5)
    for market in markets:
        for mechanism, reference in REFERENCES.items():
            report = truthfulness_audit(market, mechanism, grid)
            expected = _ref_audit(market, reference, grid)
            assert _bits(report.improvements) == _bits(expected)
            assert report.truthful_dominant == (max(expected) <= 1e-9)


@st.composite
def tied_profiles(draw, n):
    """n stations whose lambda_bar and b often repeat, with some b = 0."""
    lambda_bars = draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3))
    bs = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3))
    return tuple(
        BsProfile(lambda_bar=draw(st.one_of(st.sampled_from(lambda_bars), st.floats(0.05, 20.0))),
                  b=draw(st.one_of(st.just(0.0), st.sampled_from(bs), st.floats(0.0, 10.0))),
                  index=i)
        for i in range(n))


@st.composite
def audit_cases(draw):
    """A market on the documented domain (N 2-16) with tied and zero
    orders (tied lambda_bar and b, b = 0 and below-break-even stations), a
    small grid, and a per-call budget from under one block to all of them."""
    n = draw(st.integers(2, 16))
    profiles = draw(tied_profiles(n))
    p, p1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0))
    market = Market(profiles=profiles, mu0=draw(st.floats(0.01, 100.0)), p=p, p1=p1,
                    p2=p1 + p + draw(st.floats(0.01, 20.0)))
    grid = DeviationGrid(n_points=draw(st.integers(2, 8)), span=draw(st.floats(0.1, 4.0)),
                         n_scenarios=draw(st.integers(0, 3)), seed=draw(st.integers(0, 2**32 - 1)))
    block_bytes = (grid.n_points + 1) * n * 8
    return market, grid, draw(st.integers(1, (n + 1) * block_bytes))


@settings(max_examples=40, deadline=None)
@given(audit_cases())
def test_batched_audit_matches_scalar_reference_on_the_market_domain(case):
    market, grid, budget = case
    with mock.patch.object(allocation, "_AUDIT_CALL_BYTES", budget):
        for mechanism, reference in REFERENCES.items():
            report = truthfulness_audit(market, mechanism, grid)
            expected = _ref_audit(market, reference, grid)
            assert _bits(report.improvements) == _bits(expected)
            assert report.max_improvement == max(expected)


@pytest.mark.parametrize("n, n_points, n_scenarios, calls", [
    (8, 200, 20, 21),       # every block of a scenario in one call
    (32, 50, 5, 24),        # 10 blocks a call: 4 calls a scenario
    (8, 3000, 1, 16),       # one block is past the budget: one call each
])
def test_audit_calls_stay_within_the_budget(n, n_points, n_scenarios, calls):
    profiles = tuple(BsProfile(lambda_bar=0.5 * (i + 1), b=2.0, index=i) for i in range(n))
    market = Market(profiles=profiles, mu0=2.5 * n, p=2.0, p1=1.0, p2=10.0)
    grid = DeviationGrid(n_points=n_points, n_scenarios=n_scenarios, seed=3)
    rows = n_points + 1
    shapes = []

    def recording(market, orders):
        shapes.append(orders.shape)
        return adaptive_uniform_allocation(market, orders)

    report = truthfulness_audit(market, recording, grid)
    per_call = max(1, _AUDIT_CALL_BYTES // (rows * n * 8))
    assert len(shapes) == calls == (n_scenarios + 1) * -(-n // per_call)
    for k, width in shapes:
        assert width == n and k % rows == 0
        assert k * n * 8 <= _AUDIT_CALL_BYTES or k == rows
    plain = truthfulness_audit(market, adaptive_uniform_allocation, grid)
    assert _bits(report.improvements) == _bits(plain.improvements)


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
    pr = [BsProfile(lambda_bar=2.0, b=2.0, index=i) for i in range(2)]
    mu_hat = optimal_demand(pr[0], 2.0, 2.0, 1.0, 10.0)[0]
    market = Market(profiles=tuple(pr), mu0=mu_hat, p=2.0, p1=1.0, p2=10.0)
    grants, cost = social_optimum_bruteforce(market)
    assert sorted(grants) == pytest.approx([0.0, mu_hat], abs=1e-9)
    split = social_cost(market, [mu_hat / 2, mu_hat / 2])
    assert cost < split - 1e-6


def test_bruteforce_refuses_large_markets():
    profiles = tuple(BsProfile(lambda_bar=1.0, b=1.0, index=i) for i in range(13))
    market = Market(profiles=profiles, mu0=5.0, p=2.0, p1=1.0, p2=10.0)
    with pytest.raises(ParameterError):
        social_optimum_bruteforce(market)


def _ref_bruteforce(market):
    """social_optimum_bruteforce's loop over every mask, as it was before
    the masks were prefiltered; social_cost is looked up on the module so
    that a patched recorder sees its calls."""
    n = market.n
    p, p1, p2 = market.p, market.p1, market.p2
    full_rate = [_mu_on_curve(pr, pr.lambda_bar, p) for pr in market.profiles]
    full_cost = [optimal_demand(pr, pr.lambda_bar, p, p1, p2)[2] for pr in market.profiles]
    grid_cost = [p2 * pr.lambda_bar for pr in market.profiles]

    best_value = math.inf
    best_social = math.inf
    best_grants = tuple(0.0 for _ in range(n))

    def consider(value, grants):
        nonlocal best_value, best_social, best_grants
        if value > best_value + 1e-9:
            return
        social = allocation.social_cost(market, grants)
        if value < best_value - 1e-9 or social < best_social - 1e-12:
            best_value = min(best_value, value)
            best_social = social
            best_grants = grants

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
        consider(value, grants)
        residual = market.mu0 - used
        if residual <= FEAS_EPS:
            continue
        for j in range(n):
            if mask >> j & 1 or residual >= full_rate[j]:
                continue
            lam_j = _lambda_on_curve(market.profiles[j], residual, p)
            cand = (value - grid_cost[j]
                    + optimal_demand(market.profiles[j], lam_j, p, p1, p2)[2])
            g = list(grants)
            g[j] = residual
            consider(cand, tuple(g))
    return best_grants, best_social


@st.composite
def planner_markets(draw):
    """N 2-12 with tied lambda_bar and b, b = 0 stations, and mu0 from a
    sliver of the full-service demand to well past it."""
    profiles = draw(tied_profiles(draw(st.integers(2, 12))))
    p, p1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0))
    full = sum(_mu_on_curve(pr, pr.lambda_bar, p) for pr in profiles)
    return Market(profiles=profiles, mu0=max(draw(st.floats(0.0, 1.5)) * full, 1e-3),
                  p=p, p1=p1, p2=p1 + p + draw(st.floats(0.01, 20.0)))


@settings(max_examples=60, deadline=None)
@given(planner_markets())
def test_bruteforce_matches_the_full_mask_loop(market):
    original = allocation.social_cost
    seen = {}
    for name, solve in (("pruned", social_optimum_bruteforce), ("full", _ref_bruteforce)):
        calls = seen[name] = []

        def recording(market, grants, calls=calls):
            calls.append(grants)
            return original(market, grants)

        with mock.patch.object(allocation, "social_cost", recording):
            seen[name + " result"] = solve(market)
    assert repr(seen["pruned result"]) == repr(seen["full result"])
    assert repr(seen["pruned"]) == repr(seen["full"])


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
    pr = (BsProfile(lambda_bar=2.0, b=2.0, index=0),
          BsProfile(lambda_bar=1.0, b=2.0, index=1))
    demand = sum(optimal_demand(x, x.lambda_bar, 2.0, 1.0, 10.0)[0] for x in pr)
    market = Market(profiles=pr, mu0=2.5 * demand + 1.0, p=2.0, p1=1.0, p2=10.0)
    grid = DeviationGrid(n_points=60, n_scenarios=4, seed=9)
    for mech in (proportional_allocation, pareto_priority_allocation,
                 adaptive_uniform_allocation):
        report = truthfulness_audit(market, mech, grid)
        assert report.truthful_dominant, f"{mech.__name__} failed without scarcity"


def test_adaptive_truthful_across_random_markets():
    """Dominance holds on random markets, feasible and infeasible alike."""
    rng = np.random.default_rng(2718)
    for _ in range(10):
        market = random_market(rng)
        report = truthfulness_audit(
            market, adaptive_uniform_allocation,
            DeviationGrid(n_points=50, n_scenarios=3, seed=int(rng.integers(1 << 16))))
        assert report.truthful_dominant, (
            f"improvement {report.max_improvement} on {market}")
