"""Capacity allocation for N base stations sharing one renewable supplier.

Each BS i privately knows its total connection rate lambda_bar_i and
backlog cost b_i, pays an incentive price p per unit granted supply
rate, p1 per renewable-served connection and p2 per grid-served one.
With gamma_i = ln(1 + b_i), routing lambda connections to the renewable
chain is worth doing at the optimal operating point

    mu_hat(lambda) = sqrt(lambda * gamma / p) + lambda,
    s_hat(lambda)  = sqrt(p * lambda * gamma),
    cost           = 2 sqrt(p lambda gamma) + (p + p1) lambda + p2 (lambda_bar - lambda),

and all-renewable beats all-grid exactly when lambda_bar exceeds the
break-even rate lambda_hat = 4 p gamma / (p2 - p1 - p)^2.

The supplier rations capacity mu0 across submitted orders with one of
three mechanisms: proportional, descending-order priority (with
below-break-even grants rejected), or the adaptive uniform rule that
makes truthful ordering a dominant strategy.  A brute-force extreme
point enumeration of the planner's problem and a deviation-grid audit
close the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllGridRegimeError, ParameterError

FEAS_EPS = 1e-9


@dataclass(frozen=True)
class BsProfile:
    """One base station: total arrival rate, normalized backlog cost, identity."""

    lambda_bar: float
    b: float
    index: int

    def __post_init__(self):
        if self.lambda_bar <= 0:
            raise ParameterError(f"lambda_bar must be > 0, got {self.lambda_bar}")
        if self.b < 0:
            raise ParameterError(f"b must be >= 0, got {self.b}")


@dataclass(frozen=True)
class Market:
    """N >= 2 base stations facing one supplier of capacity mu0.

    Requires p2 > p1 + p; below that no BS orders renewable supply at all.
    """

    profiles: tuple[BsProfile, ...]
    mu0: float
    p: float
    p1: float
    p2: float

    def __post_init__(self):
        if len(self.profiles) < 2:
            raise ParameterError("a market needs at least 2 base stations")
        if self.mu0 <= 0:
            raise ParameterError(f"mu0 must be > 0, got {self.mu0}")
        if self.p <= 0:
            raise ParameterError(f"incentive price p must be > 0, got {self.p}")
        if self.p1 < 0 or self.p2 < 0:
            raise ParameterError("energy prices must be >= 0")
        if self.p2 <= self.p1 + self.p:
            raise ParameterError(
                f"p2 must exceed p1 + p for nonzero renewable demand "
                f"(p2={self.p2}, p1={self.p1}, p={self.p})")

    @property
    def n(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class OrderVector:
    """Per-BS supply-rate requests, aligned with Market.profiles."""

    orders: tuple[float, ...]

    def __post_init__(self):
        if any(m < 0 for m in self.orders):
            raise ParameterError("orders must be >= 0")


@dataclass(frozen=True)
class AllocationResult:
    """Feasible grants (sum <= mu0, grant <= order), aligned with profiles.

    n_hat is the adaptive mechanism's split index (None otherwise);
    `rejected` lists indices zeroed by the take-or-leave step.
    """

    grants: tuple[float, ...]
    n_hat: int | None = None
    rejected: frozenset[int] = frozenset()


def optimal_demand(
    profile: BsProfile, lam: float, p: float, p1: float, p2: float
) -> tuple[float, float, float]:
    """Optimal supply rate, base stock and cost for serving `lam` renewably.

    Returns (mu_hat, s_hat, cost); lam = 0 degenerates to (0, 0, p2*lambda_bar).
    """
    if p <= 0:
        raise ParameterError(f"incentive price p must be > 0, got {p}")
    if not 0.0 <= lam <= profile.lambda_bar + FEAS_EPS:
        raise ParameterError(
            f"lam must lie in [0, lambda_bar={profile.lambda_bar}], got {lam}")
    if lam == 0.0:
        return 0.0, 0.0, p2 * profile.lambda_bar
    s_hat = math.sqrt(p * lam * math.log1p(profile.b))
    cost = 2.0 * s_hat + (p + p1) * lam + p2 * (profile.lambda_bar - lam)
    return _mu_on_curve(profile, lam, p), s_hat, cost


def _mu_on_curve(profile: BsProfile, lam: float, p: float) -> float:
    return math.sqrt(lam * math.log1p(profile.b) / p) + lam


def breakeven_lambda(profile: BsProfile, p: float, p1: float, p2: float) -> float:
    """Arrival rate at which all-renewable and all-grid costs tie:

        lambda_hat = 4 p ln(1 + b) / (p2 - p1 - p)^2.

    A BS prefers all-renewable iff lambda_bar >= lambda_hat (the objective
    is concave in lambda, so the optimum sits at a boundary).
    """
    if p <= 0:
        raise ParameterError(f"incentive price p must be > 0, got {p}")
    if p2 <= p1 + p:
        raise AllGridRegimeError(
            f"p2 <= p1 + p: every BS orders zero renewable supply "
            f"(p2={p2}, p1={p1}, p={p})")
    return 4.0 * p * math.log1p(profile.b) / (p2 - p1 - p) ** 2


def breakeven_rate(profile: BsProfile, p: float, p1: float, p2: float) -> float:
    """Supply rate mu_hat(lambda_hat) at the break-even arrival rate.

    Grants live in supply-rate units, so take-or-leave rejections compare
    against this rate, not against lambda_hat itself.
    """
    return _mu_on_curve(profile, breakeven_lambda(profile, p, p1, p2), p)


def _lambda_on_curve(profile: BsProfile, rate: float, p: float) -> float:
    """Invert mu_hat(lambda) = rate: with g = sqrt(gamma/p), lambda = t^2 for
    t the positive root of t^2 + g t - rate = 0."""
    gamma = math.log1p(profile.b)
    if gamma == 0.0:
        return rate
    g = math.sqrt(gamma / p)
    t = 0.5 * (-g + math.sqrt(g * g + 4.0 * rate))
    return t * t


def truthful_orders(market: Market) -> OrderVector:
    """Each BS's optimal order: mu_hat(lambda_bar) when lambda_bar is past
    break-even, else 0 (all-grid)."""
    orders = []
    for pr in market.profiles:
        lam_hat = breakeven_lambda(pr, market.p, market.p1, market.p2)
        if pr.lambda_bar >= lam_hat and pr.b > 0:
            orders.append(optimal_demand(pr, pr.lambda_bar, market.p, market.p1, market.p2)[0])
        else:
            orders.append(0.0)
    return OrderVector(orders=tuple(orders))


def _check_orders(market: Market, orders: OrderVector) -> None:
    if len(orders.orders) != market.n:
        raise ParameterError(
            f"order vector length {len(orders.orders)} != market size {market.n}")


def proportional_allocation(market: Market, orders: OrderVector) -> AllocationResult:
    """g_i = min(m_i, mu0 * m_i / sum(m)): everyone gets a pro-rata share."""
    _check_orders(market, orders)
    m = orders.orders
    total = sum(m)
    if total <= 0.0:
        return AllocationResult(grants=tuple(0.0 for _ in m))
    scale = min(1.0, market.mu0 / total)
    return AllocationResult(grants=tuple(mi * scale for mi in m))


def _descending(market: Market, orders: OrderVector) -> list[int]:
    # Descending by order size, ties broken by stable BS index.
    return sorted(range(market.n), key=lambda i: (-orders.orders[i], i))


def pareto_priority_allocation(market: Market, orders: OrderVector) -> AllocationResult:
    """Serve orders in descending size until capacity runs out.

    A partial grant below the break-even supply rate is rejected (zeroed);
    the freed capacity is not reassigned within the period.
    """
    _check_orders(market, orders)
    grants = [0.0] * market.n
    rejected = set()
    capacity = market.mu0
    for i in _descending(market, orders):
        g = min(orders.orders[i], capacity)
        capacity -= g
        grants[i] = g
        if 0.0 < g < orders.orders[i]:
            threshold = breakeven_rate(market.profiles[i], market.p, market.p1, market.p2)
            if g < threshold:
                grants[i] = 0.0
                rejected.add(i)
    return AllocationResult(grants=tuple(grants), rejected=frozenset(rejected))


def adaptive_uniform_allocation(market: Market, orders: OrderVector) -> AllocationResult:
    """Adaptive uniform rule, the truth-inducing mechanism.

    Sort orders in decreasing size.  n_hat is the largest index such that
    the uniform share u = (mu0 - sum of orders below n_hat) / n_hat does
    not exceed the n_hat-th order; the top n_hat orders all receive u and
    the rest receive their orders in full.  A positive grant at or below
    the break-even supply rate is then rejected (take-or-leave, a single
    adjustment pass); freed capacity is not redistributed.
    """
    _check_orders(market, orders)
    m = orders.orders
    order_idx = _descending(market, orders)
    sorted_m = [m[i] for i in order_idx]
    n = market.n

    grants_sorted = list(sorted_m)
    n_hat = n
    if sum(m) > market.mu0:
        tail = 0.0
        n_hat = 1
        uniform = market.mu0  # n=1 fallback; loop always finds some n
        for k in range(n, 0, -1):
            u = (market.mu0 - tail) / k
            if u <= sorted_m[k - 1] + FEAS_EPS:
                n_hat, uniform = k, u
                break
            tail += sorted_m[k - 1]
        grants_sorted = [uniform] * n_hat + sorted_m[n_hat:]

    grants = [0.0] * n
    for pos, i in enumerate(order_idx):
        grants[i] = grants_sorted[pos]

    rejected = set()
    for i, g in enumerate(grants):
        threshold = breakeven_rate(market.profiles[i], market.p, market.p1, market.p2)
        if 0.0 < g <= threshold:
            grants[i] = 0.0
            rejected.add(i)
    return AllocationResult(grants=tuple(grants), n_hat=n_hat, rejected=frozenset(rejected))


def post_allocation_cost(
    profile: BsProfile, granted_rate: float, p: float, p1: float, p2: float
) -> tuple[float, float]:
    """Best operating point for a BS holding supply rate `granted_rate`.

    The BS pays p per unit granted rate regardless of use, then picks the
    renewable-served share to minimize

        p*a + p1*lam + p2*(lambda_bar - lam) + lam*gamma/(a - lam),

    whose first-order condition gives
    lam(a) = clamp(a - sqrt(a*gamma/(p2 - p1)), 0, min(lambda_bar, a)).
    Returns (lam, cost); a = 0 returns (0, p2*lambda_bar).
    """
    a = granted_rate
    if a < 0:
        raise ParameterError(f"granted rate must be >= 0, got {a}")
    if a == 0.0:
        return 0.0, p2 * profile.lambda_bar
    gamma = math.log1p(profile.b)
    lam = a - math.sqrt(a * gamma / (p2 - p1)) if p2 > p1 else 0.0
    lam = min(max(lam, 0.0), min(profile.lambda_bar, a * (1.0 - FEAS_EPS)))
    cost = p * a + p1 * lam + p2 * (profile.lambda_bar - lam)
    if lam > 0.0:
        cost += lam * gamma / (a - lam)
    return lam, cost


def social_cost(market: Market, grants) -> float:
    """Sum of post-allocation minimized costs across all base stations."""
    if isinstance(grants, AllocationResult):
        grants = grants.grants
    if len(grants) != market.n:
        raise ParameterError("grants length must match the market")
    total = sum(grants)
    if total > market.mu0 + 1e-6:
        raise ParameterError(f"grants sum {total} exceeds capacity {market.mu0}")
    return sum(
        post_allocation_cost(pr, g, market.p, market.p1, market.p2)[1]
        for pr, g in zip(market.profiles, grants)
    )


def social_optimum_bruteforce(market: Market) -> tuple[tuple[float, ...], float]:
    """Certified planner optimum by extreme-point enumeration.

    The planner objective (every served BS operating on its optimal-demand
    curve mu = mu_hat(lambda)) is concave in the lambdas, so the optimum
    has every BS all-renewable or all-grid except at most one fractional
    BS absorbing the residual capacity.  All such assignments are
    enumerated and ranked by the planner objective.  With identical
    backlog costs the planner value ties exactly over which BS takes the
    residual (its p2*lambda_bar term cancels), so ties are broken by the
    post-allocation social cost of the grants; the winner is returned
    with that social_cost so the figure is comparable with mechanism
    outputs.  Refuses N > 12 (combinatorial).
    """
    n = market.n
    if n > 12:
        raise ParameterError(f"brute force limited to N <= 12, got {n}")
    p, p1, p2 = market.p, market.p1, market.p2
    full_rate = [_mu_on_curve(pr, pr.lambda_bar, p) for pr in market.profiles]
    full_cost = [optimal_demand(pr, pr.lambda_bar, p, p1, p2)[2] for pr in market.profiles]
    grid_cost = [p2 * pr.lambda_bar for pr in market.profiles]

    best_value = math.inf
    best_social = math.inf
    best_grants: tuple[float, ...] = tuple(0.0 for _ in range(n))

    def consider(value: float, grants: tuple[float, ...]) -> None:
        nonlocal best_value, best_social, best_grants
        if value > best_value + 1e-9:
            return
        social = social_cost(market, grants)
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


@dataclass(frozen=True)
class DeviationGrid:
    """Audit resolution: deviation grid per BS and opponent-order scenarios."""

    n_points: int = 200
    span: float = 2.5            # grid covers [0, span * truthful order]
    n_scenarios: int = 20        # random opponent perturbations beyond truthful
    perturb_lo: float = 0.5
    perturb_hi: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 2 or self.n_scenarios < 0:
            raise ParameterError("need n_points >= 2 and n_scenarios >= 0")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a dominant-strategy audit for one mechanism."""

    mechanism: str
    max_improvement: float                  # best cost cut any BS found anywhere
    improvements: tuple[float, ...]         # per-BS maxima over scenarios and grid
    truthful_dominant: bool                 # max_improvement <= 1e-9


def truthfulness_audit(
    market: Market, mechanism, grid: DeviationGrid = DeviationGrid()
) -> AuditReport:
    """Check whether truthful ordering is a dominant equilibrium.

    For every BS, every opponent scenario (truthful orders plus
    `n_scenarios` random multiplicative perturbations) and every deviation
    on the grid, compares the deviator's post-allocation cost against its
    cost under truthful reporting in the same scenario.  The verdict is
    truthful-dominant iff no deviation improves cost by more than 1e-9.
    """
    m_star = truthful_orders(market).orders
    rng = np.random.default_rng(grid.seed)
    scenarios = [m_star]
    for _ in range(grid.n_scenarios):
        factors = rng.uniform(grid.perturb_lo, grid.perturb_hi, size=market.n)
        scenarios.append(tuple(ms * f for ms, f in zip(m_star, factors)))

    def bs_cost(i: int, alloc: AllocationResult) -> float:
        return post_allocation_cost(
            market.profiles[i], alloc.grants[i], market.p, market.p1, market.p2)[1]

    improvements = [0.0] * market.n
    for scen in scenarios:
        for i in range(market.n):
            base_orders = list(scen)
            base_orders[i] = m_star[i]
            base = bs_cost(i, mechanism(market, OrderVector(tuple(base_orders))))
            scale = m_star[i] if m_star[i] > 0 else _mu_on_curve(
                market.profiles[i], market.profiles[i].lambda_bar, market.p)
            for k in range(grid.n_points):
                dev = grid.span * scale * k / (grid.n_points - 1)
                base_orders[i] = dev
                cost = bs_cost(i, mechanism(market, OrderVector(tuple(base_orders))))
                gain = base - cost
                if gain > improvements[i]:
                    improvements[i] = gain
    max_improvement = max(improvements)
    return AuditReport(
        mechanism=getattr(mechanism, "__name__", str(mechanism)),
        max_improvement=max_improvement,
        improvements=tuple(improvements),
        truthful_dominant=max_improvement <= 1e-9,
    )
